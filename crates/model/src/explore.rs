//! Systematic schedule exploration: enumerate the interleavings of a
//! [`TransactionSystem`] with DFS + sleep-set (DPOR-style) pruning and
//! validate every maximal schedule against the batch `D(S)` oracle.
//!
//! The explorer is a goal visitor on the scheduler-state search of
//! [`crate::search`] (which defines the step model). Every maximal path
//! of the search tree is either
//!
//! * a **complete schedule** — validated with [`Schedule::validate`] and
//!   checked for a `D(S)` cycle via [`Schedule::conflict_digraph`] (the
//!   existing batch oracle, not a re-implementation), or
//! * a **deadlock** — an incomplete state with no enabled step, whose
//!   wait-for edges are reported as the witness.
//!
//! ## Pruning
//!
//! Two steps are *independent* iff they belong to different transactions
//! **and** touch different entities. Independent adjacent steps commute:
//! swapping them changes neither the reached state nor any per-entity
//! lock order, and `D(S)` is a function of the per-entity lock orders
//! alone — so the verdict is invariant across a Mazurkiewicz trace.
//! Sleep sets exploit exactly this: after a subtree for step `m` has
//! been explored, `m` is put to sleep for the sibling subtrees of every
//! step independent of it, which eliminates re-exploring permutations of
//! commuting steps. Sleep sets never drop a reachable deadlock state or
//! a trace class of maximal schedules (Godefroid), so the pruned space
//! carries the same set of `D(S)` verdicts and anomalies as full
//! enumeration — `tests/explore_dpor.rs` checks that equivalence
//! property against unpruned enumeration on small random systems.
//!
//! ## Anomaly classification
//!
//! A `D(S)` cycle of length two is classified by the shape of the two
//! transactions' lock sequences in the witness schedule, restricted to
//! their common entities:
//!
//! * identical sequences ⇒ [`AnomalyKind::LostUpdate`] — homogeneous
//!   read-modify-write copies raced on the same items in the same order;
//!   the later writer's update was computed from a stale read (in the
//!   lock model the "read" is the earlier critical section, e.g. a
//!   snapshot entity, and the "write" the later one).
//! * same set, different order ⇒ [`AnomalyKind::WriteSkew`] — each
//!   transaction updated an item the other had already read.
//!
//! Everything else is a generic [`AnomalyKind::ConflictCycle`]; a stuck
//! state is [`AnomalyKind::Deadlock`]. The classification is a report
//! label — the *finding* is always the cycle or stuck state itself.

use crate::ids::{EntityId, GlobalNode, TxnId};
use crate::schedule::Schedule;
pub use crate::search::WaitEdge;
use crate::search::{Budget, Dfs, Pruning, SchedulerState, Step, Visitor};
use crate::system::TransactionSystem;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// Exploration knobs.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Budget on applied steps (moves) across the whole search. When it
    /// runs out the search stops and [`ExploreOutcome::exhausted`] is
    /// `false`.
    pub max_steps: u64,
    /// Stop after this many counterexamples (1 = first hit).
    pub max_counterexamples: usize,
    /// Sleep-set pruning on (the default). Off = full enumeration of
    /// every interleaving, for cross-checking the pruning.
    pub sleep_sets: bool,
    /// Permutes the order sibling steps are tried (0 = canonical
    /// transaction/node order). The explored *space* is the same for
    /// every seed; only which counterexample is found first varies.
    pub seed: u64,
    /// Record the canonical footprint sets ([`ExploreSets`]) — the
    /// equivalence-test hook; costs memory proportional to the number of
    /// distinct traces, so it is off by default.
    pub collect_sets: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self {
            max_steps: 1_000_000,
            max_counterexamples: 16,
            sleep_sets: true,
            seed: 0,
            collect_sets: false,
        }
    }
}

/// What kind of counterexample a witness is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AnomalyKind {
    /// A reachable stuck state: some transaction's next lock waits on a
    /// holder, circularly.
    Deadlock,
    /// A 2-cycle between transactions with identical lock sequences on
    /// their common entities — concurrent read-modify-writes where the
    /// later update was based on a stale read.
    LostUpdate,
    /// A 2-cycle between transactions with crossing lock sequences —
    /// each updated an entity the other had already read.
    WriteSkew,
    /// Any other `D(S)` cycle.
    ConflictCycle,
}

impl AnomalyKind {
    /// Stable lowercase name (JSONL `kind` field).
    pub fn name(self) -> &'static str {
        match self {
            AnomalyKind::Deadlock => "deadlock",
            AnomalyKind::LostUpdate => "lost_update",
            AnomalyKind::WriteSkew => "write_skew",
            AnomalyKind::ConflictCycle => "conflict_cycle",
        }
    }
}

impl fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete counterexample: the schedule that exhibits it, replayable
/// step by step (e.g. through the engine's wait-die path).
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The classification (a label; the witness below is the finding).
    pub kind: AnomalyKind,
    /// The executed steps, in order. For a deadlock this is the stuck
    /// partial schedule; otherwise a complete schedule.
    pub steps: Vec<GlobalNode>,
    /// The `D(S)` cycle (empty for a deadlock witness).
    pub cycle: Vec<TxnId>,
    /// Entities labelling consecutive cycle arcs (parallel to `cycle`;
    /// one representative label per arc).
    pub cycle_entities: Vec<EntityId>,
    /// Transactions with pending operations at the stuck state (empty
    /// unless this is a deadlock witness).
    pub stuck: Vec<TxnId>,
    /// The wait-for edges at the stuck state (empty unless deadlock).
    pub waits_for: Vec<WaitEdge>,
}

/// Search counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Steps applied (each node execution counts once).
    pub steps: u64,
    /// Maximal complete schedules reached and validated.
    pub complete_schedules: u64,
    /// Stuck states reached.
    pub deadlocks: u64,
    /// Complete schedules whose `D(S)` was cyclic.
    pub cyclic_schedules: u64,
    /// Enabled steps skipped because they were asleep.
    pub sleep_skips: u64,
}

/// Canonical result sets, recorded when [`ExploreConfig::collect_sets`]
/// is on. Two explorations are equivalent iff these sets are equal —
/// the property the DPOR proptest asserts for pruned vs unpruned runs.
///
/// A complete schedule's *footprint* is its per-entity lock order
/// (`entity index → lockers in order`), which fully determines its
/// Mazurkiewicz trace class and hence its `D(S)`. A deadlock state is
/// encoded as the per-transaction sets of executed nodes (the reached
/// state up to commuting independent steps).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreSets {
    /// Footprints of all complete schedules.
    pub complete: BTreeSet<Vec<(u32, Vec<u32>)>>,
    /// Footprints of the complete schedules whose `D(S)` was cyclic.
    pub cyclic: BTreeSet<Vec<(u32, Vec<u32>)>>,
    /// Reached deadlock states (executed node ids per transaction).
    pub deadlocks: BTreeSet<Vec<Vec<u32>>>,
    /// Distinct anomaly kinds found.
    pub kinds: BTreeSet<AnomalyKind>,
}

/// The result of one exploration.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Counterexamples found, in discovery order (capped by
    /// [`ExploreConfig::max_counterexamples`]).
    pub counterexamples: Vec<Counterexample>,
    /// Search counters.
    pub stats: ExploreStats,
    /// `true` iff the full (pruned) space was covered: the budget did
    /// not run out and the counterexample cap did not stop the search.
    pub exhausted: bool,
    /// Canonical result sets (empty unless
    /// [`ExploreConfig::collect_sets`]).
    pub sets: ExploreSets,
}

/// Builds the system explored for "run `n` instances of this workload":
/// instance `i` is a copy of template `i mod templates`, renamed
/// `name#i`. With `n` = the template count this is the system itself
/// (modulo names).
pub fn instances_of(
    sys: &TransactionSystem,
    n: usize,
) -> Result<TransactionSystem, crate::error::ModelError> {
    let txns = (0..n)
        .map(|i| {
            let t = sys.txn(TxnId((i % sys.len()) as u32));
            t.clone().with_name(format!("{}#{}", t.name(), i))
        })
        .collect();
    TransactionSystem::new(sys.db().clone(), txns)
}

/// Explores the schedule space of `sys` under `cfg`. See the module
/// docs for the step model, pruning, and oracle.
pub fn explore(sys: &TransactionSystem, cfg: &ExploreConfig) -> ExploreOutcome {
    let pruning = if cfg.sleep_sets {
        Pruning::SleepSets
    } else {
        Pruning::None
    };
    let budget = Budget {
        states: usize::MAX,
        steps: cfg.max_steps,
    };
    let oracle = Oracle {
        sys,
        cfg,
        counterexamples: Vec::new(),
        stats: ExploreStats::default(),
        sets: ExploreSets::default(),
        rng: cfg.seed,
    };
    let mut dfs = Dfs::new(SchedulerState::initial(sys), oracle, pruning, budget);
    let stopped = dfs.run().is_some();
    let mut stats = dfs.visitor.stats;
    stats.steps = dfs.stats.steps;
    stats.sleep_skips = dfs.stats.sleep_skips;
    ExploreOutcome {
        counterexamples: dfs.visitor.counterexamples,
        stats,
        exhausted: !dfs.truncated && !stopped,
        sets: dfs.visitor.sets,
    }
}

/// The [`Visitor`] behind [`explore`]: judges every maximal path — a
/// complete schedule by the batch `D(S)` oracle, a stuck state as a
/// deadlock witness — and stops the search (`Found`) at the
/// counterexample cap.
struct Oracle<'a> {
    sys: &'a TransactionSystem,
    cfg: &'a ExploreConfig,
    counterexamples: Vec<Counterexample>,
    stats: ExploreStats,
    sets: ExploreSets,
    rng: u64,
}

impl Visitor for Oracle<'_> {
    type Found = ();

    fn enter(&mut self, st: &SchedulerState<'_>, enabled: &[Step]) -> Option<()> {
        if !enabled.is_empty() {
            return None;
        }
        let ce = if st.is_complete() {
            self.stats.complete_schedules += 1;
            self.complete_leaf(st.trace())?
        } else {
            self.stats.deadlocks += 1;
            self.deadlock_leaf(st)
        };
        if self.counterexamples.len() < self.cfg.max_counterexamples {
            self.counterexamples.push(ce);
        }
        (self.counterexamples.len() >= self.cfg.max_counterexamples).then_some(())
    }

    /// Deterministic Fisher–Yates keyed by the running xorshift state;
    /// seed 0 keeps the canonical order.
    fn select(&mut self, steps: &mut Vec<Step>) {
        if self.cfg.seed == 0 {
            return;
        }
        for i in (1..steps.len()).rev() {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            let j = (self.rng % (i as u64 + 1)) as usize;
            steps.swap(i, j);
        }
    }
}

impl Oracle<'_> {
    /// Runs the oracle on a complete schedule; a cyclic `D(S)` is a
    /// counterexample.
    fn complete_leaf(&mut self, trace: &[GlobalNode]) -> Option<Counterexample> {
        let sched = Schedule::from_steps(trace.to_vec());
        // The search only ever takes legal steps, so validation cannot
        // fail; going through it keeps the batch oracle — not the
        // search's own bookkeeping — the arbiter of the verdict.
        let valid = sched
            .validate(self.sys)
            .expect("explorer produced an illegal schedule");
        let graph = sched.conflict_digraph(self.sys, &valid);
        let cycle = graph.cycle();
        if self.cfg.collect_sets {
            let map: BTreeMap<u32, Vec<u32>> = valid
                .lock_order
                .iter()
                .map(|(e, order)| (e.0, order.iter().map(|t| t.0).collect()))
                .collect();
            let footprint: Vec<_> = map.into_iter().collect();
            if cycle.is_some() {
                self.sets.cyclic.insert(footprint.clone());
            }
            self.sets.complete.insert(footprint);
        }
        let cycle = cycle?;
        self.stats.cyclic_schedules += 1;
        let kind = self.classify(trace, &cycle);
        if self.cfg.collect_sets {
            self.sets.kinds.insert(kind);
        }
        let cycle_entities = self.cycle_labels(trace, &cycle);
        Some(Counterexample {
            kind,
            steps: trace.to_vec(),
            cycle,
            cycle_entities,
            stuck: Vec::new(),
            waits_for: Vec::new(),
        })
    }

    fn deadlock_leaf(&mut self, st: &SchedulerState<'_>) -> Counterexample {
        if self.cfg.collect_sets {
            let state: Vec<Vec<u32>> = st
                .prefix()
                .iter()
                .map(|(_, p)| p.iter().map(|n| n.0).collect())
                .collect();
            self.sets.deadlocks.insert(state);
            self.sets.kinds.insert(AnomalyKind::Deadlock);
        }
        let stuck = self
            .sys
            .iter()
            .filter(|&(t, txn)| !st.prefix().of(t).is_complete(txn))
            .map(|(t, _)| t)
            .collect();
        Counterexample {
            kind: AnomalyKind::Deadlock,
            steps: st.trace().to_vec(),
            cycle: Vec::new(),
            cycle_entities: Vec::new(),
            stuck,
            waits_for: st.waits_for(),
        }
    }

    /// See the module docs: 2-cycles are classified by the two
    /// transactions' lock sequences (from the witness), restricted to
    /// their common entities.
    fn classify(&self, trace: &[GlobalNode], cycle: &[TxnId]) -> AnomalyKind {
        if cycle.len() != 2 {
            return AnomalyKind::ConflictCycle;
        }
        let (a, b) = (cycle[0], cycle[1]);
        let seq_a = self.lock_sequence(trace, a);
        let seq_b = self.lock_sequence(trace, b);
        let ca: Vec<&EntityId> = seq_a.iter().filter(|e| seq_b.contains(e)).collect();
        let cb: Vec<&EntityId> = seq_b.iter().filter(|e| seq_a.contains(e)).collect();
        if ca.is_empty() {
            AnomalyKind::ConflictCycle
        } else if ca == cb {
            AnomalyKind::LostUpdate
        } else {
            AnomalyKind::WriteSkew
        }
    }

    /// The order `t` locked its entities in `trace`.
    fn lock_sequence(&self, trace: &[GlobalNode], t: TxnId) -> Vec<EntityId> {
        let txn = self.sys.txn(t);
        trace
            .iter()
            .filter(|g| g.txn == t)
            .filter_map(|g| {
                let op = txn.op(g.node);
                op.is_lock().then_some(op.entity)
            })
            .collect()
    }

    /// One representative entity per consecutive cycle arc: for the arc
    /// `cycle[i] → cycle[i+1]`, an entity both access where `cycle[i]`
    /// locked first.
    fn cycle_labels(&self, trace: &[GlobalNode], cycle: &[TxnId]) -> Vec<EntityId> {
        // First-lock position of (txn, entity) in the trace.
        let mut first_lock: HashMap<(TxnId, EntityId), usize> = HashMap::new();
        for (i, g) in trace.iter().enumerate() {
            let op = self.sys.txn(g.txn).op(g.node);
            if op.is_lock() {
                first_lock.entry((g.txn, op.entity)).or_insert(i);
            }
        }
        cycle
            .iter()
            .enumerate()
            .filter_map(|(i, &from)| {
                let to = cycle[(i + 1) % cycle.len()];
                self.sys
                    .txn(from)
                    .entities()
                    .iter()
                    .copied()
                    .filter(|&e| {
                        match (first_lock.get(&(from, e)), first_lock.get(&(to, e))) {
                            (Some(a), Some(b)) => a < b,
                            // Lemma 1 arc: `to` accesses `e` but never
                            // locked it in this (partial) schedule.
                            (Some(_), None) => self.sys.txn(to).accesses(e),
                            _ => false,
                        }
                    })
                    .min()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::op::Op;
    use crate::txn::Transaction;

    const X: EntityId = EntityId(0);
    const Y: EntityId = EntityId(1);

    /// Two total-order transactions over two entities on two sites.
    fn pair(t1: (&str, [Op; 4]), t2: (&str, [Op; 4])) -> TransactionSystem {
        let db = Database::one_entity_per_site(2);
        let txns = [t1, t2].map(|(n, ops)| Transaction::from_total_order(n, &ops, &db).unwrap());
        TransactionSystem::new(db, txns.to_vec()).unwrap()
    }

    /// Both transactions read `X` (first critical section) and then
    /// update `Y` (second) — the lost-update shape.
    fn lost_update_system() -> TransactionSystem {
        let ops = [Op::lock(X), Op::unlock(X), Op::lock(Y), Op::unlock(Y)];
        pair(("rmw_1", ops), ("rmw_2", ops))
    }

    /// T1 reads y then writes x; T2 reads x then writes y — write skew.
    fn write_skew_system() -> TransactionSystem {
        pair(
            (
                "check_y_write_x",
                [Op::lock(Y), Op::unlock(Y), Op::lock(X), Op::unlock(X)],
            ),
            (
                "check_x_write_y",
                [Op::lock(X), Op::unlock(X), Op::lock(Y), Op::unlock(Y)],
            ),
        )
    }

    /// Opposite-order 2PL pair: the classic deadlock.
    fn deadlock_system() -> TransactionSystem {
        pair(
            (
                "T1",
                [Op::lock(X), Op::lock(Y), Op::unlock(X), Op::unlock(Y)],
            ),
            (
                "T2",
                [Op::lock(Y), Op::lock(X), Op::unlock(Y), Op::unlock(X)],
            ),
        )
    }

    /// Same-order 2PL pair: certified, no anomaly reachable.
    fn certified_system() -> TransactionSystem {
        let ops = [Op::lock(X), Op::lock(Y), Op::unlock(X), Op::unlock(Y)];
        pair(("T1", ops), ("T2", ops))
    }

    fn all(cfg_tweak: impl FnOnce(&mut ExploreConfig)) -> ExploreConfig {
        let mut cfg = ExploreConfig {
            max_counterexamples: usize::MAX,
            collect_sets: true,
            ..ExploreConfig::default()
        };
        cfg_tweak(&mut cfg);
        cfg
    }

    #[test]
    fn certified_pair_exhausts_clean() {
        let sys = certified_system();
        let out = explore(&sys, &all(|_| {}));
        assert!(out.exhausted);
        assert!(out.counterexamples.is_empty());
        assert_eq!(out.stats.deadlocks, 0);
        assert_eq!(out.stats.cyclic_schedules, 0);
        assert!(out.stats.complete_schedules > 0);
    }

    #[test]
    fn lost_update_found_and_classified() {
        let sys = lost_update_system();
        let out = explore(&sys, &all(|_| {}));
        assert!(out.exhausted);
        assert!(out
            .counterexamples
            .iter()
            .any(|ce| ce.kind == AnomalyKind::LostUpdate));
        // The shape admits no deadlock (no transaction holds two locks).
        assert_eq!(out.stats.deadlocks, 0);
        let ce = out
            .counterexamples
            .iter()
            .find(|ce| ce.kind == AnomalyKind::LostUpdate)
            .unwrap();
        assert_eq!(ce.cycle.len(), 2);
        assert_eq!(ce.steps.len(), sys.total_nodes());
        // The witness replays to a non-serializable verdict — the oracle
        // agrees with the explorer's claim.
        let sched = Schedule::from_steps(ce.steps.clone());
        assert_eq!(sched.is_serializable(&sys), Ok(false));
    }

    #[test]
    fn write_skew_found_and_classified() {
        let sys = write_skew_system();
        let out = explore(&sys, &all(|_| {}));
        assert!(out.exhausted);
        assert_eq!(out.stats.deadlocks, 0);
        let ce = out
            .counterexamples
            .iter()
            .find(|ce| ce.kind == AnomalyKind::WriteSkew)
            .expect("write skew found");
        assert_eq!(ce.cycle.len(), 2);
        assert_eq!(ce.cycle_entities.len(), 2);
    }

    #[test]
    fn deadlock_found_with_wait_edges() {
        let sys = deadlock_system();
        let out = explore(&sys, &all(|_| {}));
        assert!(out.exhausted);
        let ce = out
            .counterexamples
            .iter()
            .find(|ce| ce.kind == AnomalyKind::Deadlock)
            .expect("deadlock found");
        assert_eq!(ce.stuck.len(), 2);
        assert_eq!(ce.waits_for.len(), 2, "a 2-cycle of wait-for edges");
        // Each waiter waits on the entity the other holds.
        for w in &ce.waits_for {
            assert_ne!(w.waiter, w.holder);
        }
    }

    #[test]
    fn budget_truncation_reported() {
        let sys = deadlock_system();
        let out = explore(
            &sys,
            &all(|c| {
                c.max_steps = 3;
            }),
        );
        assert!(!out.exhausted);
        assert!(out.stats.steps <= 3);
    }

    #[test]
    fn stop_at_first_counterexample() {
        let sys = lost_update_system();
        let cfg = ExploreConfig {
            max_counterexamples: 1,
            ..ExploreConfig::default()
        };
        let out = explore(&sys, &cfg);
        assert_eq!(out.counterexamples.len(), 1);
        assert!(!out.exhausted, "stopped early by the cap");
    }

    #[test]
    fn sleep_sets_prune_but_preserve_the_findings() {
        for sys in [
            certified_system(),
            lost_update_system(),
            write_skew_system(),
            deadlock_system(),
        ] {
            let pruned = explore(&sys, &all(|_| {}));
            let full = explore(&sys, &all(|c| c.sleep_sets = false));
            assert_eq!(pruned.sets, full.sets, "{}", sys.txn(TxnId(0)).name());
            assert!(
                pruned.stats.steps < full.stats.steps,
                "pruning must actually prune ({} vs {})",
                pruned.stats.steps,
                full.stats.steps
            );
        }
    }

    #[test]
    fn seeds_permute_order_not_space() {
        let sys = write_skew_system();
        let base = explore(&sys, &all(|_| {}));
        for seed in [1, 7, 0xdead_beef] {
            let out = explore(&sys, &all(|c| c.seed = seed));
            assert_eq!(out.sets, base.sets, "seed {seed}");
        }
    }

    #[test]
    fn instances_of_round_robins_and_renames() {
        let sys = deadlock_system();
        let inflated = instances_of(&sys, 4).unwrap();
        assert_eq!(inflated.len(), 4);
        assert_eq!(inflated.txn(TxnId(0)).name(), "T1#0");
        assert_eq!(inflated.txn(TxnId(1)).name(), "T2#1");
        assert_eq!(inflated.txn(TxnId(2)).name(), "T1#2");
        assert_eq!(inflated.txn(TxnId(3)).name(), "T2#3");
    }
}
