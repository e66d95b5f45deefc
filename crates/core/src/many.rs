//! **Theorem 4 / Corollary 4**: safety-and-deadlock-freedom for any fixed
//! number of transactions, in time polynomial in the number of cycles of
//! the interaction graph.
//!
//! The algorithm rests on the paper's *normal form* theorem: if some
//! partial schedule has a cyclic conflict digraph, then there is one of
//! the following shape. Pick a cycle `T₁ → T₂ → … → T_k → T₁` of the
//! interaction graph and a "last" transaction (`T_k`); run, serially,
//!
//! * a prefix of `T₁` that avoids every entity of `T₃, …, T_k`,
//! * then for `i = 2..k` a prefix of `Tᵢ` avoiding the entities still
//!   locked by `T_{i-1}`'s prefix and every entity of the transactions
//!   other than `T_{i-1}, Tᵢ, T_{i+1}`,
//!
//! each prefix *maximal* with that property. The construction succeeds iff
//! each prefix reaches the lock of `xᵢ` — the common first-locked entity
//! of `Tᵢ` and `T_{i+1}` guaranteed by the (already verified) pairwise
//! test — in which case the serial concatenation is a legal partial
//! schedule whose conflict digraph contains the cycle.
//!
//! # The label-chord test
//!
//! Every cycle is visited as it is enumerated (no cycle list is built) and
//! is first decided by a bit test. Label each edge `(T_p, T_{p+1})` of the
//! cycle with its `x_p`. If some label is also an entity of a *third*
//! member of the cycle, all `2k` orderings of the cycle — direction ×
//! choice of last transaction — fail the construction, and none is built.
//!
//! This is a necessary condition of the construction above, not a new
//! theorem. Write `A_p` for the set position `p`'s prefix avoids; the
//! prefix must lock `x_p`, so `x_p ∈ A_p` kills the ordering. Let the
//! third member be `T_q`, in any ordering of the cycle:
//!
//! 1. if `T_q` is not `T_{p-1}`, or `p` is the first position, then
//!    `A_p ⊇ E(T_q) ∋ x_p` by definition;
//! 2. if `T_q = T_{p-1}`: `T_{p+1}` is none of `T_{p-2}, T_{p-1}, T_p`, so
//!    `A_{p-1} ⊇ E(T_{p+1}) ∋ x_p`; `T_{p-1}`'s prefix never locks `x_p`,
//!    which it therefore "still holds", and `A_p` contains what `T_{p-1}`
//!    still holds;
//! 3. except when `k = 3` and `p` is the last position, where `T_{p+1}` *is*
//!    `T_{p-2}`: then step 1 puts `x_p` in `A_{p-2}` and step 2's argument
//!    carries it to `A_{p-1}` and on to `A_p`.
//!
//! The condition mentions neither direction nor rotation (an edge has one
//! label, whichever way it is walked), hence one test per cycle.
//!
//! Cycles the test cannot kill go through the construction unchanged, in
//! the same cycle → direction → rotation order, so verdicts, witnesses and
//! both counters are those of running the construction on every ordering.
//! The cost is `O(k)` word operations per visited cycle (for up to 64
//! transactions; `⌈d/64⌉` words per edge beyond), and prefixes are built
//! only for survivors.
//!
//! # The cycle budget
//!
//! [`ManyOptions::cycle_limit`] bounds the enumeration: cycles
//! `1..cycle_limit` are examined, and a witness found among them is
//! returned as [`ManyViolation::Cycle`] — a concrete, validated schedule
//! beats "unknown". Reaching the `cycle_limit`-th cycle returns
//! [`ManyViolation::CycleBudget`] without examining it.

use crate::pairwise::{pairwise_safe_df, PairViolation};
use ddlf_model::{
    BitSet, EntityId, GlobalNode, Prefix, Schedule, SystemPrefix, TransactionSystem, TxnId,
};
use std::cell::OnceCell;
use std::ops::ControlFlow;

/// Options for the Theorem 4 procedure.
#[derive(Debug, Clone, Copy)]
pub struct ManyOptions {
    /// Maximum number of interaction-graph cycles to enumerate. Theorem 4
    /// is polynomial *in the number of cycles*, which can be exponential
    /// in the number of transactions; hitting this limit makes the result
    /// `Err(ManyViolation::CycleBudget)`.
    pub cycle_limit: usize,
}

impl Default for ManyOptions {
    fn default() -> Self {
        Self {
            cycle_limit: 1_000_000,
        }
    }
}

/// Evidence that the whole system is safe and deadlock-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManyCertificate {
    /// Interacting pairs that passed the Theorem 3 test.
    pub pairs_checked: usize,
    /// Interaction-graph cycles examined (all orderings included).
    pub cycles_checked: usize,
    /// Ordered cycle traversals (direction × rotation) examined.
    pub orderings_checked: usize,
}

/// A concrete normal-form witness that the system is not safe and
/// deadlock-free.
#[derive(Debug, Clone)]
pub struct CycleWitness {
    /// The interaction-graph cycle, in traversal order; the last element
    /// is the "last transaction".
    pub cycle: Vec<TxnId>,
    /// The per-transaction prefixes of the normal-form partial schedule.
    pub prefix: SystemPrefix,
    /// The serial partial schedule realizing the prefixes.
    pub schedule: Schedule,
    /// The conflict-digraph cycle it induces (transaction ids).
    pub conflict_cycle: Vec<TxnId>,
}

/// Why the system is not (provably) safe-and-deadlock-free.
#[derive(Debug, Clone)]
pub enum ManyViolation {
    /// Some interacting pair already fails Theorem 3.
    Pair {
        /// First transaction of the failing pair.
        i: TxnId,
        /// Second transaction of the failing pair.
        j: TxnId,
        /// The pairwise violation.
        violation: PairViolation,
    },
    /// A normal-form cycle construction succeeded.
    Cycle(Box<CycleWitness>),
    /// The cycle enumeration budget was exhausted (result unknown).
    CycleBudget {
        /// The limit that was hit.
        limit: usize,
    },
}

/// The Theorem 4 decision procedure.
pub fn many_safe_df(
    sys: &TransactionSystem,
    opts: ManyOptions,
) -> Result<ManyCertificate, ManyViolation> {
    let d = sys.len();

    // Step 1: every interacting pair must be safe and deadlock-free
    // (Theorem 3); cache the common first entity x for each edge.
    let mut labels = EdgeLabels::new(sys);
    let mut pairs_checked = 0;
    for i in 0..d {
        for j in (i + 1)..d {
            let ti = sys.txn(TxnId::from_index(i));
            let tj = sys.txn(TxnId::from_index(j));
            if ti.entity_set().is_disjoint(tj.entity_set()) {
                continue;
            }
            pairs_checked += 1;
            match pairwise_safe_df(ti, tj) {
                Ok(cert) => {
                    let x = cert.first.expect("interacting pair has common entities");
                    labels.first[i * d + j] = Some(x);
                    labels.first[j * d + i] = Some(x);
                }
                Err(violation) => {
                    return Err(ManyViolation::Pair {
                        i: TxnId::from_index(i),
                        j: TxnId::from_index(j),
                        violation,
                    });
                }
            }
        }
    }

    // Step 2: normal-form construction along every interaction-graph
    // cycle, in both directions, with every choice of last transaction.
    let mut scratch = Scratch::new(sys);
    let mut cycles_checked = 0;
    let mut orderings_checked = 0;
    let stopped = sys
        .interaction_graph()
        .try_for_each_simple_cycle(3, |cycle| {
            cycles_checked += 1;
            if cycles_checked >= opts.cycle_limit {
                return ControlFlow::Break(ManyViolation::CycleBudget {
                    limit: opts.cycle_limit,
                });
            }
            orderings_checked += 2 * cycle.len();
            match labels.check_cycle(cycle, &mut scratch) {
                Some(witness) => ControlFlow::Break(ManyViolation::Cycle(Box::new(witness))),
                None => ControlFlow::Continue(()),
            }
        });
    match stopped {
        ControlFlow::Break(violation) => Err(violation),
        ControlFlow::Continue(()) => Ok(ManyCertificate {
            pairs_checked,
            cycles_checked,
            orderings_checked,
        }),
    }
}

/// What step 2 reads of the system: the edge labels step 1 produced and,
/// per entity, who uses it.
struct EdgeLabels<'a> {
    sys: &'a TransactionSystem,
    /// `first[i * d + j]` = common first entity of the interacting pair
    /// `(Tᵢ, Tⱼ)`; `None` off the interaction graph.
    first: Vec<Option<EntityId>>,
    /// `users[e]` = the transactions whose entity set contains `e`; built
    /// at the first cycle, so a system without one never pays for it.
    users: OnceCell<Vec<BitSet>>,
}

/// Step 2's buffers, allocated once and reused for every cycle.
struct Scratch {
    /// The current cycle as a set of transactions.
    members: BitSet,
    /// The current ordering: a direction and rotation of the cycle.
    ordered: Vec<usize>,
    /// The avoid set of the position under construction.
    avoid: BitSet,
}

impl Scratch {
    fn new(sys: &TransactionSystem) -> Self {
        Self {
            members: BitSet::new(sys.len()),
            ordered: Vec::new(),
            avoid: BitSet::new(sys.db().entity_count()),
        }
    }
}

impl<'a> EdgeLabels<'a> {
    fn new(sys: &'a TransactionSystem) -> Self {
        Self {
            sys,
            first: vec![None; sys.len() * sys.len()],
            users: OnceCell::new(),
        }
    }

    fn users(&self) -> &[BitSet] {
        self.users.get_or_init(|| {
            let mut users = vec![BitSet::new(self.sys.len()); self.sys.db().entity_count()];
            for (t, txn) in self.sys.iter() {
                for e in txn.entities() {
                    users[e.index()].insert(t.index());
                }
            }
            users
        })
    }

    /// `x` of the interaction-graph edge `(Tᵢ, Tⱼ)`.
    fn label(&self, i: usize, j: usize) -> EntityId {
        self.first[i * self.sys.len() + j].expect("cycle edges are interacting pairs")
    }

    /// Tries all `2k` orderings of `cycle`, in direction → rotation order.
    fn check_cycle(&self, cycle: &[usize], s: &mut Scratch) -> Option<CycleWitness> {
        let k = cycle.len();
        s.members.clear();
        for &t in cycle {
            s.members.insert(t);
        }
        if self.label_chord(cycle, &s.members) {
            return None;
        }
        for reversed in [false, true] {
            for rot in 0..k {
                // Ordered traversal with `ordered[k-1]` as the last
                // transaction: `cycle`, or `cycle` reversed, rotated.
                s.ordered.clear();
                s.ordered.extend((0..k).map(|p| {
                    let i = (p + rot) % k;
                    cycle[if reversed { k - 1 - i } else { i }]
                }));
                if let Some(witness) = self.try_normal_form(&s.ordered, &mut s.avoid) {
                    return Some(witness);
                }
            }
        }
        None
    }

    /// The label-chord test (module docs): does some edge label of `cycle`
    /// belong to a third one of its `members`?
    fn label_chord(&self, cycle: &[usize], members: &BitSet) -> bool {
        let (k, users) = (cycle.len(), self.users());
        (0..k).any(|p| {
            let x = self.label(cycle[p], cycle[(p + 1) % k]);
            users[x.index()].intersection_len(members) > 2
        })
    }

    /// Attempts the normal-form prefix construction along `ordered` (a
    /// cyclic sequence of transaction indices). Returns a witness if every
    /// prefix reaches its `Lxᵢ` node (property 3).
    fn try_normal_form(&self, ordered: &[usize], avoid: &mut BitSet) -> Option<CycleWitness> {
        let sys = self.sys;
        let k = ordered.len();
        let txn_at = |p: usize| sys.txn(TxnId::from_index(ordered[p]));

        let mut prefixes: Vec<Prefix> = Vec::with_capacity(k);
        for p in 0..k {
            let t = txn_at(p);
            avoid.clear();
            if p == 0 {
                // T₁ avoids the entities of T₃ … T_k (positions 2..k).
                for q in 2..k {
                    avoid.union_with(txn_at(q).entity_set());
                }
            } else {
                // Tᵢ avoids what T_{i-1} still holds …
                for e in prefixes[p - 1].pending_entities(txn_at(p - 1)) {
                    avoid.insert(e.index());
                }
                // … and every entity of transactions other than
                // T_{i-1}, Tᵢ, T_{i+1} (cyclically).
                for q in (0..k).filter(|&q| q != p && q != p - 1 && q != (p + 1) % k) {
                    avoid.union_with(txn_at(q).entity_set());
                }
            }
            let prefix = Prefix::maximal_avoiding(t, avoid);
            // Property (3): the prefix must contain L xᵢ, xᵢ = common
            // first entity of (orderedᵢ, orderedᵢ₊₁).
            let x = self.label(ordered[p], ordered[(p + 1) % k]);
            if !prefix.contains(t.lock_node_of(x).expect("xᵢ common to the pair")) {
                return None;
            }
            prefixes.push(prefix);
        }

        // Assemble the serial partial schedule and the system prefix.
        let mut sp = SystemPrefix::empty(sys.txns());
        let mut schedule = Schedule::new();
        for (p, prefix) in prefixes.into_iter().enumerate() {
            let t = TxnId::from_index(ordered[p]);
            for n in sys.txn(t).any_total_order() {
                if prefix.contains(n) {
                    schedule.push(GlobalNode::new(t, n));
                }
            }
            *sp.of_mut(t) = prefix;
        }

        // A completed construction is a violation; if it were ever not a
        // legal schedule with a cyclic conflict digraph, answering `None`
        // would certify through the inconsistency.
        let valid = schedule
            .validate(sys)
            .expect("normal-form theorem: the serial concatenation of the prefixes is legal");
        let conflict_cycle = schedule
            .conflict_digraph(sys, &valid)
            .cycle()
            .expect("normal-form theorem: the schedule's conflict digraph is cyclic");

        Some(CycleWitness {
            cycle: ordered.iter().map(|&i| TxnId::from_index(i)).collect(),
            prefix: sp,
            schedule,
            conflict_cycle,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddlf_model::{Database, Op, Transaction};

    fn two_phase(db: &Database, name: &str, order: &[u32]) -> Transaction {
        let ops: Vec<Op> = order
            .iter()
            .map(|&e| Op::lock(EntityId(e)))
            .chain(order.iter().rev().map(|&e| Op::unlock(EntityId(e))))
            .collect();
        Transaction::from_total_order(name, &ops, db).unwrap()
    }

    /// Three transactions in a ring: T0 uses {0,1}, T1 uses {1,2},
    /// T2 uses {2,0}. Every pair passes Theorem 3 (each pair shares one
    /// entity), but the ring admits the classic 3-cycle.
    fn ring3(db: &Database) -> TransactionSystem {
        let t0 = two_phase(db, "T0", &[0, 1]);
        let t1 = two_phase(db, "T1", &[1, 2]);
        let t2 = two_phase(db, "T2", &[2, 0]);
        TransactionSystem::new(db.clone(), vec![t0, t1, t2]).unwrap()
    }

    #[test]
    fn ring_of_two_phase_transactions_violates() {
        let db = Database::one_entity_per_site(3);
        let sys = ring3(&db);
        let v = many_safe_df(&sys, ManyOptions::default()).unwrap_err();
        match v {
            ManyViolation::Cycle(w) => {
                assert_eq!(w.cycle.len(), 3);
                assert!(w.conflict_cycle.len() >= 3);
                // Witness schedule is legal.
                let val = w.schedule.validate(&sys).unwrap();
                assert!(!val.complete);
                // And its conflict digraph is cyclic.
                let cg = w.schedule.conflict_digraph(&sys, &val);
                assert!(!cg.is_acyclic());
            }
            other => panic!("expected cycle witness, got {other:?}"),
        }
    }

    #[test]
    fn ground_truth_agrees_on_ring() {
        let db = Database::one_entity_per_site(3);
        let sys = ring3(&db);
        let ex = crate::explore::Explorer::new(&sys, 5_000_000);
        assert!(ex.find_conflict_cycle().0.violated());
    }

    #[test]
    fn shared_root_hierarchy_passes() {
        // All transactions lock entity 0 first (a tree-root discipline):
        // pairwise passes, and no cycle construction can fire because the
        // first prefix must avoid x of later pairs... verify with ground truth.
        let db = Database::one_entity_per_site(4);
        let t0 = two_phase(&db, "T0", &[0, 1]);
        let t1 = two_phase(&db, "T1", &[0, 2]);
        let t2 = two_phase(&db, "T2", &[0, 3]);
        let sys = TransactionSystem::new(db, vec![t0, t1, t2]).unwrap();
        let cert = many_safe_df(&sys, ManyOptions::default()).unwrap();
        assert_eq!(cert.pairs_checked, 3);
        // Interaction graph is a triangle (all share entity 0).
        assert_eq!(cert.cycles_checked, 1);
        let ex = crate::explore::Explorer::new(&sys, 5_000_000);
        assert!(ex.find_conflict_cycle().0.holds());
    }

    #[test]
    fn pair_failure_reported_before_cycles() {
        let db = Database::one_entity_per_site(2);
        let t0 = two_phase(&db, "T0", &[0, 1]);
        let t1 = two_phase(&db, "T1", &[1, 0]);
        let t2 = two_phase(&db, "T2", &[0]);
        let sys = TransactionSystem::new(db, vec![t0, t1, t2]).unwrap();
        match many_safe_df(&sys, ManyOptions::default()).unwrap_err() {
            ManyViolation::Pair { i, j, .. } => {
                assert_eq!((i, j), (TxnId(0), TxnId(1)));
            }
            other => panic!("expected pair violation, got {other:?}"),
        }
    }

    #[test]
    fn disjoint_transactions_trivially_pass() {
        let db = Database::one_entity_per_site(6);
        let t0 = two_phase(&db, "T0", &[0, 1]);
        let t1 = two_phase(&db, "T1", &[2, 3]);
        let t2 = two_phase(&db, "T2", &[4, 5]);
        let sys = TransactionSystem::new(db, vec![t0, t1, t2]).unwrap();
        let cert = many_safe_df(&sys, ManyOptions::default()).unwrap();
        assert_eq!(cert.pairs_checked, 0);
        assert_eq!(cert.cycles_checked, 0);
    }

    #[test]
    fn theorem5_identical_copies_reduce_to_two() {
        // Safe+DF copies: strict 2PL with global first entity.
        let db = Database::one_entity_per_site(3);
        let t = two_phase(&db, "T", &[0, 1, 2]);
        for d in 2..=5 {
            let sys = TransactionSystem::copies(db.clone(), &t, d).unwrap();
            let many = many_safe_df(&sys, ManyOptions::default()).is_ok();
            let two = crate::copies::copies_safe_df(&t).is_ok();
            assert_eq!(many, two, "d={d}");
            assert!(many);
        }
        // Unsafe copies (early unlock): both should reject.
        let ops = [
            Op::lock(EntityId(0)),
            Op::unlock(EntityId(0)),
            Op::lock(EntityId(1)),
            Op::unlock(EntityId(1)),
        ];
        let bad = Transaction::from_total_order("B", &ops, &db).unwrap();
        for d in 2..=4 {
            let sys = TransactionSystem::copies(db.clone(), &bad, d).unwrap();
            assert!(many_safe_df(&sys, ManyOptions::default()).is_err(), "d={d}");
        }
        assert!(crate::copies::copies_safe_df(&bad).is_err());
    }

    #[test]
    fn four_ring_detected() {
        let db = Database::one_entity_per_site(4);
        let t0 = two_phase(&db, "T0", &[0, 1]);
        let t1 = two_phase(&db, "T1", &[1, 2]);
        let t2 = two_phase(&db, "T2", &[2, 3]);
        let t3 = two_phase(&db, "T3", &[3, 0]);
        let sys = TransactionSystem::new(db, vec![t0, t1, t2, t3]).unwrap();
        match many_safe_df(&sys, ManyOptions::default()).unwrap_err() {
            ManyViolation::Cycle(w) => assert_eq!(w.cycle.len(), 4),
            other => panic!("expected cycle witness, got {other:?}"),
        }
    }

    #[test]
    fn cycle_budget_reported() {
        let db = Database::one_entity_per_site(3);
        let sys = ring3(&db);
        match many_safe_df(&sys, ManyOptions { cycle_limit: 1 }).unwrap_err() {
            ManyViolation::CycleBudget { limit } => assert_eq!(limit, 1),
            // With limit 1 the single triangle cycle might be found first —
            // both outcomes are acceptable behaviours of a budgeted API,
            // but simple_cycles(3, 1) returns exactly 1 cycle == limit,
            // so the budget branch must fire.
            other => panic!("expected budget, got {other:?}"),
        }
    }

    /// Two disjoint 3-rings: two cycles, the first already a violation.
    fn two_rings(db: &Database) -> TransactionSystem {
        let txns = [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]]
            .iter()
            .enumerate()
            .map(|(i, order)| two_phase(db, &format!("T{i}"), order))
            .collect();
        TransactionSystem::new(db.clone(), txns).unwrap()
    }

    #[test]
    fn witness_before_the_limit_beats_the_budget() {
        let db = Database::one_entity_per_site(6);
        let sys = two_rings(&db);
        // The witness sits in cycle 1; cycle 2 is where limit 2 is reached.
        match many_safe_df(&sys, ManyOptions { cycle_limit: 2 }).unwrap_err() {
            ManyViolation::Cycle(w) => assert!(w.cycle.iter().all(|t| t.index() < 3)),
            other => panic!("expected the first ring's witness, got {other:?}"),
        }
        // Limit 1 is reached at cycle 1, which is therefore not examined.
        assert!(matches!(
            many_safe_df(&sys, ManyOptions { cycle_limit: 1 }).unwrap_err(),
            ManyViolation::CycleBudget { limit: 1 }
        ));
    }

    #[test]
    fn reaching_the_limit_is_a_budget_even_on_the_last_cycle() {
        // Four transactions on one root: K4, 7 cycles, certifiable.
        let db = Database::one_entity_per_site(5);
        let txns = (1..5)
            .map(|p| two_phase(&db, &format!("T{p}"), &[0, p]))
            .collect();
        let sys = TransactionSystem::new(db, txns).unwrap();
        assert!(matches!(
            many_safe_df(&sys, ManyOptions { cycle_limit: 7 }).unwrap_err(),
            ManyViolation::CycleBudget { limit: 7 }
        ));
        let cert = many_safe_df(&sys, ManyOptions { cycle_limit: 8 }).unwrap();
        assert_eq!((cert.cycles_checked, cert.orderings_checked), (7, 48));
    }

    /// Past 64 transactions the member sets span several words.
    #[test]
    fn seventy_transactions_on_one_root_certify() {
        let db = Database::one_entity_per_site(71);
        let txns = (1..71)
            .map(|p| two_phase(&db, &format!("T{p}"), &[0, p]))
            .collect();
        let sys = TransactionSystem::new(db, txns).unwrap();
        let budget = many_safe_df(&sys, ManyOptions { cycle_limit: 5_000 }).unwrap_err();
        assert!(matches!(
            budget,
            ManyViolation::CycleBudget { limit: 5_000 }
        ));
        // A 70-ring is a single cycle of length 70, and a violation.
        let db = Database::one_entity_per_site(70);
        let txns = (0..70)
            .map(|i| two_phase(&db, &format!("T{i}"), &[i, (i + 1) % 70]))
            .collect();
        let sys = TransactionSystem::new(db, txns).unwrap();
        match many_safe_df(&sys, ManyOptions::default()).unwrap_err() {
            ManyViolation::Cycle(w) => assert_eq!(w.cycle.len(), 70),
            other => panic!("expected cycle witness, got {other:?}"),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(300))]

        /// The label-chord test only ever kills orderings the construction
        /// would have failed on: on every ordering of every cycle (over the
        /// pairs that pass Theorem 3) it calls dead, `try_normal_form` is
        /// `None`.
        #[test]
        fn label_chord_dead_implies_no_normal_form(
            seed in 0u64..1_000_000,
            d in 3usize..7,
            n_entities in 3usize..7,
        ) {
            use rand::{rngs::StdRng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let sys = crate::testgen::random_legal_system(&mut rng, d, n_entities, 3);
            let mut labels = EdgeLabels::new(&sys);
            let mut graph = ddlf_model::UnGraph::new(d);
            for i in 0..d {
                for j in 0..d {
                    let (ti, tj) = (sys.txn(TxnId::from_index(i)), sys.txn(TxnId::from_index(j)));
                    if i != j && !ti.entity_set().is_disjoint(tj.entity_set()) {
                        if let Ok(cert) = pairwise_safe_df(ti, tj) {
                            labels.first[i * d + j] = cert.first;
                            graph.add_edge(i, j);
                        }
                    }
                }
            }
            let mut avoid = Scratch::new(&sys).avoid;
            for cycle in graph.simple_cycles(3, 10_000) {
                let k = cycle.len();
                let members = BitSet::from_indices(d, cycle.iter().copied());
                if !labels.label_chord(&cycle, &members) {
                    continue;
                }
                let reversed: Vec<usize> = cycle.iter().rev().copied().collect();
                for dir in [&cycle, &reversed] {
                    for rot in 0..k {
                        let ordered: Vec<usize> = (0..k).map(|p| dir[(p + rot) % k]).collect();
                        proptest::prop_assert!(
                            labels.try_normal_form(&ordered, &mut avoid).is_none(),
                            "label-chord test killed a constructible ordering {:?}",
                            ordered
                        );
                    }
                }
            }
        }
    }
}
