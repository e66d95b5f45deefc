//! Exhaustive state-space analyses — the `[SM]`-style ground truth.
//!
//! Deadlock-freedom is decided by exploring the reachable scheduler
//! states of [`ddlf_model::search`]. For safety we additionally carry the
//! arc set of the partial-schedule conflict digraph `D(S')` (Lemma 1),
//! which *is* path-dependent and therefore part of the search state.
//!
//! Everything here is exponential in the worst case — deadlock-freedom is
//! coNP-complete (Theorem 2) — and is used as the oracle the polynomial
//! algorithms (`pairwise`, `many`, `copies`) are validated against, and as
//! the honest baseline whose exact state counts the paper ledger's `wall`
//! row pins.

use crate::reduction::{complete_schedule, DeadlockPrefix, ReductionGraph};
use ddlf_model::search::{Budget, Dfs, Next, Pruning, SchedulerState, Step, Visitor};
use ddlf_model::{BitSet, Schedule, TransactionSystem};

/// Result of an exhaustive search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict<T> {
    /// The property holds: the search space was exhausted without finding
    /// a counterexample.
    Holds,
    /// A counterexample was found.
    CounterExample(T),
    /// The state budget ran out before the space was exhausted.
    Inconclusive {
        /// States visited before giving up.
        states: usize,
    },
}

impl<T> Verdict<T> {
    /// Whether the property was proven to hold.
    pub fn holds(&self) -> bool {
        matches!(self, Verdict::Holds)
    }

    /// The counterexample, if any.
    pub fn counterexample(&self) -> Option<&T> {
        match self {
            Verdict::CounterExample(t) => Some(t),
            _ => None,
        }
    }

    /// Whether a counterexample was found.
    pub fn violated(&self) -> bool {
        matches!(self, Verdict::CounterExample(_))
    }
}

/// Exhaustive explorer over the scheduler state space of one system: the
/// memoised-state [`Dfs`] under four goal visitors.
#[derive(Debug, Clone)]
pub struct Explorer<'a> {
    sys: &'a TransactionSystem,
    max_states: usize,
}

/// Statistics of a finished search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Distinct states visited.
    pub states: usize,
    /// Moves (schedule steps) attempted.
    pub moves: usize,
}

impl<'a> Explorer<'a> {
    /// Creates an explorer with a state budget.
    pub fn new(sys: &'a TransactionSystem, max_states: usize) -> Self {
        Self { sys, max_states }
    }

    /// Searches for an operational deadlock: a reachable state where some
    /// transaction is unfinished and *no* legal move exists. `Holds` means
    /// the system is deadlock-free.
    pub fn find_deadlock(&self) -> (Verdict<Schedule>, SearchStats) {
        self.run(Stuck)
    }

    /// Searches for a deadlock prefix by testing the reduction graph of
    /// every reachable state (every reachable state has a schedule: the
    /// search path). `Holds` means no deadlock prefix exists — by Theorem 1
    /// this must agree with [`Explorer::find_deadlock`].
    pub fn find_deadlock_prefix(&self) -> (Verdict<DeadlockPrefix>, SearchStats) {
        self.run(CyclicReduction)
    }

    /// Lemma 1 ground truth: searches for a reachable partial schedule
    /// whose conflict digraph is cyclic. `Holds` means the system is both
    /// safe and deadlock-free.
    pub fn find_conflict_cycle(&self) -> (Verdict<Schedule>, SearchStats) {
        self.run(Conflicts::new(self.sys, None))
    }

    /// Safety-only ground truth: searches for a complete, legal,
    /// non-serializable schedule. `Holds` means the system is safe.
    pub fn find_unserializable(&self) -> (Verdict<Schedule>, SearchStats) {
        self.run(Conflicts::new(self.sys, Some(self.max_states)))
    }

    fn run<V: Visitor>(&self, goal: V) -> (Verdict<V::Found>, SearchStats) {
        let budget = Budget {
            states: self.max_states,
            steps: u64::MAX,
        };
        let start = SchedulerState::initial(self.sys);
        let mut dfs = Dfs::new(start, goal, Pruning::Memo, budget);
        let found = dfs.run();
        let stats = SearchStats {
            states: dfs.stats.states,
            moves: dfs.stats.steps as usize,
        };
        let verdict = match found {
            Some(w) => Verdict::CounterExample(w),
            None if dfs.truncated => Verdict::Inconclusive {
                states: stats.states,
            },
            None => Verdict::Holds,
        };
        (verdict, stats)
    }
}

fn witness(st: &SchedulerState<'_>) -> Schedule {
    Schedule::from_steps(st.trace().to_vec())
}

/// Goal: a reachable stuck state with an unfinished transaction
/// (operational deadlock).
struct Stuck;

impl Visitor for Stuck {
    type Found = Schedule;

    fn enter(&mut self, st: &SchedulerState<'_>, enabled: &[Step]) -> Option<Schedule> {
        (enabled.is_empty() && !st.is_complete()).then(|| witness(st))
    }
}

/// Goal: a reachable state whose reduction graph is cyclic (a deadlock
/// prefix — Theorem 1's characterization).
struct CyclicReduction;

impl Visitor for CyclicReduction {
    type Found = DeadlockPrefix;

    fn enter(&mut self, st: &SchedulerState<'_>, _: &[Step]) -> Option<DeadlockPrefix> {
        let cycle = ReductionGraph::build(st.sys(), st.prefix()).cycle(st.sys())?;
        Some(DeadlockPrefix {
            prefix: st.prefix().clone(),
            schedule: witness(st),
            cycle,
        })
    }
}

/// Goal: a reachable state whose conflict digraph `D(S')` is cyclic
/// (Lemma 1: the system is not safe-and-deadlock-free) — or, with a
/// completion budget, such a state that also extends to a *complete*
/// schedule (the system is not safe). The arcs are path-dependent, so
/// they are part of the search state.
struct Conflicts {
    arcs: ConflictArcs,
    /// Arcs added along the current path, and where each step's begin.
    added: Vec<(usize, usize)>,
    frames: Vec<usize>,
    /// `Some(budget)`: only a completable cyclic state counts.
    complete_within: Option<usize>,
}

impl Conflicts {
    fn new(sys: &TransactionSystem, complete_within: Option<usize>) -> Self {
        Self {
            arcs: ConflictArcs::new(sys.len()),
            added: Vec::new(),
            frames: Vec::new(),
            complete_within,
        }
    }
}

impl Visitor for Conflicts {
    type Found = Schedule;

    fn key_extra(&self, key: &mut Vec<u64>) {
        for row in &self.arcs.rows {
            key.extend_from_slice(row.words());
        }
    }

    fn applied(&mut self, st: &SchedulerState<'_>, step: &Step) -> Next<Schedule> {
        self.frames.push(self.added.len());
        if !step.is_lock {
            return Next::Descend;
        }
        // New arcs t → k for accessors k that have not yet locked this
        // entity (Lemma 1's D(S') definition).
        let t = step.txn.index();
        let mut cyclic = false;
        for (k, txn_k) in st.sys().iter() {
            if k == step.txn || !txn_k.accesses(step.entity) {
                continue;
            }
            let lk = txn_k.lock_node_of(step.entity).expect("accesses");
            if !st.prefix().of(k).contains(lk) {
                cyclic |= self.arcs.reaches(k.index(), t);
                if self.arcs.add(t, k.index()) {
                    self.added.push((t, k.index()));
                }
            }
        }
        match (cyclic, self.complete_within) {
            (false, _) => Next::Descend,
            (true, None) => Next::Found(witness(st)),
            // D is cyclic; any completion of this partial schedule is
            // non-serializable. Try to complete it.
            (true, Some(budget)) => match complete_schedule(st.sys(), &witness(st), budget) {
                Some(full) => Next::Found(full),
                None => Next::Skip,
            },
        }
    }

    fn undoing(&mut self, _: &Step) {
        let mark = self.frames.pop().expect("undo pairs with apply");
        for (a, b) in self.added.drain(mark..) {
            self.arcs.remove(a, b);
        }
    }
}

/// Dense arc matrix of the conflict digraph, with incremental cycle
/// detection.
#[derive(Debug, Clone)]
struct ConflictArcs {
    rows: Vec<BitSet>,
    /// Scratch of [`ConflictArcs::reaches`], kept to spare the inner
    /// loop two allocations per probe.
    seen: BitSet,
    stack: Vec<usize>,
}

impl ConflictArcs {
    fn new(d: usize) -> Self {
        Self {
            rows: vec![BitSet::new(d); d],
            seen: BitSet::new(d),
            stack: Vec::new(),
        }
    }

    fn add(&mut self, a: usize, b: usize) -> bool {
        self.rows[a].insert(b)
    }

    fn remove(&mut self, a: usize, b: usize) {
        self.rows[a].remove(b);
    }

    /// Whether `src` can reach `dst` — i.e. whether adding `dst → src`
    /// would close (or has closed) a cycle.
    fn reaches(&mut self, src: usize, dst: usize) -> bool {
        if src == dst {
            return true;
        }
        self.seen.clear();
        self.seen.insert(src);
        self.stack.clear();
        self.stack.push(src);
        while let Some(v) = self.stack.pop() {
            for w in self.rows[v].iter() {
                if w == dst {
                    return true;
                }
                if self.seen.insert(w) {
                    self.stack.push(w);
                }
            }
        }
        false
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ddlf_model::{Database, EntityId, Op, Transaction};

    const X: EntityId = EntityId(0);
    const Y: EntityId = EntityId(1);

    /// Two total-order transactions over two entities on two sites.
    fn pair(t1: [Op; 4], t2: [Op; 4]) -> TransactionSystem {
        let db = Database::one_entity_per_site(2);
        let mk = |name, ops: [Op; 4]| Transaction::from_total_order(name, &ops, &db).unwrap();
        let txns = vec![mk("T1", t1), mk("T2", t2)];
        TransactionSystem::new(db, txns).unwrap()
    }

    /// T1 = Lx Ly Ux Uy, T2 = Ly Lx Uy Ux: the classic deadlock.
    pub(crate) fn deadlocky() -> TransactionSystem {
        pair(
            [Op::lock(X), Op::lock(Y), Op::unlock(X), Op::unlock(Y)],
            [Op::lock(Y), Op::lock(X), Op::unlock(Y), Op::unlock(X)],
        )
    }

    /// Both transactions lock x then y (same order): deadlock-free, safe.
    fn same_order() -> TransactionSystem {
        let ops = [Op::lock(X), Op::lock(Y), Op::unlock(X), Op::unlock(Y)];
        pair(ops, ops)
    }

    /// Non-two-phase, non-safe but deadlock-free pair:
    /// T1 = Lx Ux Ly Uy ; T2 = Lx Ux Ly Uy (sequential lock/unlock).
    fn unsafe_df() -> TransactionSystem {
        let ops = [Op::lock(X), Op::unlock(X), Op::lock(Y), Op::unlock(Y)];
        pair(ops, ops)
    }

    #[test]
    fn deadlock_found_in_classic_pair() {
        let sys = deadlocky();
        let ex = Explorer::new(&sys, 1_000_000);
        let (v, stats) = ex.find_deadlock();
        let w = v.counterexample().expect("deadlock");
        // The witness is a legal partial schedule.
        let vs = w.validate(&sys).unwrap();
        assert!(!vs.complete);
        assert!(stats.states > 0);
    }

    #[test]
    fn same_order_is_deadlock_free_and_safe() {
        let sys = same_order();
        let ex = Explorer::new(&sys, 1_000_000);
        assert!(ex.find_deadlock().0.holds());
        assert!(ex.find_deadlock_prefix().0.holds());
        assert!(ex.find_conflict_cycle().0.holds());
        assert!(ex.find_unserializable().0.holds());
    }

    #[test]
    fn theorem1_agreement_on_classic_pair() {
        let sys = deadlocky();
        let ex = Explorer::new(&sys, 1_000_000);
        let (dl, _) = ex.find_deadlock();
        let (dp, _) = ex.find_deadlock_prefix();
        assert!(dl.violated());
        assert!(dp.violated());
        let w = dp.counterexample().unwrap();
        // The witness prefix really is a deadlock prefix.
        w.schedule.validate(&sys).unwrap();
        let rg = ReductionGraph::build(&sys, &w.prefix);
        assert!(rg.is_cyclic());
    }

    #[test]
    fn sequential_pair_is_unsafe_but_deadlock_free() {
        let sys = unsafe_df();
        let ex = Explorer::new(&sys, 1_000_000);
        assert!(ex.find_deadlock().0.holds(), "no deadlock possible");
        let (unsafe_v, _) = ex.find_unserializable();
        let w = unsafe_v
            .counterexample()
            .expect("non-serializable schedule");
        assert!(!w.is_serializable(&sys).unwrap());
        // Lemma 1 must flag it too (safe+DF is violated).
        assert!(ex.find_conflict_cycle().0.violated());
    }

    #[test]
    fn conflict_cycle_detects_classic_deadlock_too() {
        // A deadlock also violates safe+DF (Lemma 1), even though every
        // complete schedule of this pair happens to be serializable.
        let sys = deadlocky();
        let ex = Explorer::new(&sys, 1_000_000);
        assert!(ex.find_conflict_cycle().0.violated());
        assert!(
            ex.find_unserializable().0.holds(),
            "complete schedules are serializable"
        );
    }

    #[test]
    fn budget_exhaustion_is_inconclusive() {
        let sys = deadlocky();
        let ex = Explorer::new(&sys, 1);
        let (v, _) = ex.find_conflict_cycle();
        assert!(matches!(v, Verdict::Inconclusive { .. }));
    }

    #[test]
    fn single_transaction_trivially_fine() {
        let db = Database::one_entity_per_site(1);
        let t = Transaction::from_total_order(
            "T",
            &[Op::lock(EntityId(0)), Op::unlock(EntityId(0))],
            &db,
        )
        .unwrap();
        let sys = TransactionSystem::new(db, vec![t]).unwrap();
        let ex = Explorer::new(&sys, 10_000);
        assert!(ex.find_deadlock().0.holds());
        assert!(ex.find_conflict_cycle().0.holds());
        assert!(ex.find_unserializable().0.holds());
        assert!(ex.find_deadlock_prefix().0.holds());
    }

    /// The conflict-tracking goals have no transaction-count limit: 33
    /// copies of the classic pair (66 transactions, two arc words per
    /// row) still yield a witness.
    #[test]
    fn conflict_goals_work_past_64_transactions() {
        let base = deadlocky();
        let txns = (0..66)
            .map(|i| base.txn(ddlf_model::TxnId(i % 2)).clone())
            .collect();
        let sys = TransactionSystem::new(base.db().clone(), txns).unwrap();
        let ex = Explorer::new(&sys, 100_000);
        let (v, _) = ex.find_conflict_cycle();
        let w = v.counterexample().expect("crossed copies close a D cycle");
        w.validate(&sys).unwrap();
        assert!(!ex.find_deadlock().0.holds());
    }

    #[test]
    fn conflict_arcs_cycle_probe() {
        let mut c = ConflictArcs::new(4);
        assert!(c.add(0, 1));
        assert!(c.add(1, 2));
        assert!(!c.add(1, 2), "duplicate arc");
        assert!(c.reaches(0, 2));
        assert!(!c.reaches(2, 0));
        c.add(2, 0);
        assert!(c.reaches(2, 1));
        c.remove(1, 2);
        assert!(!c.reaches(0, 2));
    }
}
