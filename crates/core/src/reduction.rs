//! The **reduction graph** `R(A')` and deadlock prefixes (§3 of the paper).
//!
//! Given a prefix `A' = {T'₁, …, T'ₙ}` of a transaction system, the
//! reduction graph captures the order constraints any continuation of a
//! schedule of `A'` must obey:
//!
//! * its nodes are the *remaining* (unexecuted) operation nodes;
//! * it contains every transaction arc between remaining nodes;
//! * for each entity `x` locked-but-not-unlocked by `T'ᵢ`, it contains an
//!   arc `Uⁱx → Lʲx` to every remaining `Lx` node of another transaction
//!   (before anyone else may lock `x`, `Tᵢ` must unlock it).
//!
//! `A'` is a **deadlock prefix** when (1) it has a schedule, and (2) its
//! reduction graph is cyclic. Theorem 1: a system is deadlock-free iff it
//! has no deadlock prefix. The reduction graph generalizes the classic
//! wait-for graph; unlike the wait-for graph it flags dooms *before* the
//! operational deadlock state is reached, and — crucially for partial
//! orders — acyclicity does **not** imply completability.

use ddlf_model::search::{Budget, Dfs, Next, Pruning, SchedulerState, Step, Visitor};
use ddlf_model::{DiGraph, GlobalNode, Prefix, Schedule, SystemPrefix, TransactionSystem};

/// The reduction graph of a system prefix.
#[derive(Debug, Clone)]
pub struct ReductionGraph {
    /// Digraph over dense global-node indices (executed nodes are present
    /// but isolated, which does not affect cycle detection).
    graph: DiGraph,
}

impl ReductionGraph {
    /// Builds `R(A')` for `prefix`.
    pub fn build(sys: &TransactionSystem, prefix: &SystemPrefix) -> Self {
        let mut graph = DiGraph::new(sys.total_nodes());

        // Transaction arcs among remaining nodes. A prefix is downward
        // closed, so a direct arc with its head outside the prefix has its
        // tail outside too whenever the tail is remaining.
        for (t, txn) in sys.iter() {
            let p = prefix.of(t);
            for a in txn.nodes() {
                if p.contains(a) {
                    continue;
                }
                for &b in txn.successors(a) {
                    debug_assert!(!p.contains(b), "prefix not downward closed");
                    graph.add_arc(
                        sys.global_index(GlobalNode::new(t, a)),
                        sys.global_index(GlobalNode::new(t, b)),
                    );
                }
            }
        }

        // Wait arcs: for each held entity, its unlock precedes every other
        // transaction's remaining lock of the same entity.
        for (t, txn) in sys.iter() {
            let p = prefix.of(t);
            for e in p.held_entities(txn) {
                let u = txn.unlock_node_of(e).expect("held entity is accessed");
                let u_idx = sys.global_index(GlobalNode::new(t, u));
                for (t2, txn2) in sys.iter() {
                    if t2 == t || !txn2.accesses(e) {
                        continue;
                    }
                    let l2 = txn2.lock_node_of(e).expect("accesses e");
                    if !prefix.of(t2).contains(l2) {
                        graph.add_arc(u_idx, sys.global_index(GlobalNode::new(t2, l2)));
                    }
                }
            }
        }

        Self { graph }
    }

    /// The underlying digraph (global-node indices).
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Whether the reduction graph is cyclic.
    pub fn is_cyclic(&self) -> bool {
        self.graph.has_cycle()
    }

    /// A cycle witness as global nodes, if cyclic.
    pub fn cycle(&self, sys: &TransactionSystem) -> Option<Vec<GlobalNode>> {
        self.graph
            .find_cycle()
            .map(|c| c.into_iter().map(|i| sys.from_global_index(i)).collect())
    }
}

/// A certified deadlock prefix: the prefix, a legal partial schedule
/// executing it, and a cycle of its reduction graph.
#[derive(Debug, Clone)]
pub struct DeadlockPrefix {
    /// The prefix `A'`.
    pub prefix: SystemPrefix,
    /// A schedule of `A'` (witnessing requirement (1)).
    pub schedule: Schedule,
    /// A cycle of `R(A')` (witnessing requirement (2)).
    pub cycle: Vec<GlobalNode>,
}

/// Checks whether `prefix` is a deadlock prefix of `sys`: searches for a
/// schedule of the prefix (exact search, exponential worst case — the
/// problem is NP-hard) and tests the reduction graph for a cycle.
///
/// `budget` bounds the number of search states visited; `None` is returned
/// both when the prefix is not a deadlock prefix and when the budget is
/// exhausted (callers needing the distinction use
/// [`find_schedule_for_prefix`] directly).
pub fn check_deadlock_prefix(
    sys: &TransactionSystem,
    prefix: &SystemPrefix,
    budget: usize,
) -> Option<DeadlockPrefix> {
    let rg = ReductionGraph::build(sys, prefix);
    let cycle = rg.cycle(sys)?;
    let schedule = find_schedule_for_prefix(sys, prefix, budget)?;
    Some(DeadlockPrefix {
        prefix: prefix.clone(),
        schedule,
        cycle,
    })
}

/// Searches for a legal schedule that executes exactly `target` (each
/// transaction runs precisely its prefix). Depth-first search over
/// scheduler states with memoization; `budget` caps visited states.
pub fn find_schedule_for_prefix(
    sys: &TransactionSystem,
    target: &SystemPrefix,
    budget: usize,
) -> Option<Schedule> {
    steps_to(sys, SystemPrefix::empty(sys.txns()), target, budget).map(Schedule::from_steps)
}

/// Attempts to extend a legal partial schedule to a complete one
/// (searching over lock-respecting continuations). Returns the full
/// schedule if the partial schedule is completable, `None` if it is
/// doomed (every continuation deadlocks) or the budget ran out.
pub fn complete_schedule(
    sys: &TransactionSystem,
    partial: &Schedule,
    budget: usize,
) -> Option<Schedule> {
    let v = partial.validate(sys).ok()?;
    let everything = SystemPrefix::new(sys.txns().iter().map(Prefix::full).collect());
    let mut steps = partial.steps().to_vec();
    steps.extend(steps_to(sys, v.prefix, &everything, budget)?);
    Some(Schedule::from_steps(steps))
}

/// The steps of a legal schedule leading from the state `start` to
/// exactly `target`, if the memoised search finds one within `budget`
/// states.
fn steps_to(
    sys: &TransactionSystem,
    start: SystemPrefix,
    target: &SystemPrefix,
    budget: usize,
) -> Option<Vec<GlobalNode>> {
    // The start state must be consistent with the target.
    for (t, p) in start.iter() {
        if !p.executed().is_subset(target.of(t).executed()) {
            return None;
        }
    }
    let goal = Reach {
        target,
        len: target.total_len(),
    };
    if start.total_len() == goal.len {
        return Some(Vec::new());
    }
    let budget = Budget {
        states: budget,
        steps: u64::MAX,
    };
    Dfs::new(SchedulerState::at(sys, start), goal, Pruning::Memo, budget).run()
}

/// Goal: every node of `target` executed, taking no step outside it.
struct Reach<'t> {
    target: &'t SystemPrefix,
    len: usize,
}

impl Visitor for Reach<'_> {
    type Found = Vec<GlobalNode>;

    fn select(&mut self, steps: &mut Vec<Step>) {
        steps.retain(|s| self.target.of(s.txn).contains(s.node));
    }

    fn applied(&mut self, st: &SchedulerState<'_>, _: &Step) -> Next<Vec<GlobalNode>> {
        if st.prefix().total_len() == self.len {
            Next::Found(st.trace().to_vec())
        } else {
            Next::Descend
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // T1 = Lx Ly Ux Uy ; T2 = Ly Lx Uy Ux.
    use crate::explore::tests::deadlocky as classic_pair;
    use ddlf_model::{Database, EntityId, NodeId, Op, Transaction, TxnId};

    #[test]
    fn classic_deadlock_prefix_detected() {
        let sys = classic_pair();
        // Prefix: T1 executed Lx; T2 executed Ly.
        let prefix = SystemPrefix::new(vec![
            Prefix::from_nodes(sys.txn(TxnId(0)), [NodeId(0)]).unwrap(),
            Prefix::from_nodes(sys.txn(TxnId(1)), [NodeId(0)]).unwrap(),
        ]);
        let rg = ReductionGraph::build(&sys, &prefix);
        assert!(rg.is_cyclic());
        let dp = check_deadlock_prefix(&sys, &prefix, 10_000).expect("deadlock prefix");
        assert_eq!(dp.schedule.len(), 2);
        dp.schedule.validate(&sys).unwrap();
        // The cycle goes U1x → L2x → U2y → L1y (4 nodes), possibly longer
        // through transaction arcs.
        assert!(dp.cycle.len() >= 4);
    }

    #[test]
    fn empty_prefix_reduction_graph_acyclic() {
        let sys = classic_pair();
        let prefix = SystemPrefix::empty(sys.txns());
        let rg = ReductionGraph::build(&sys, &prefix);
        assert!(!rg.is_cyclic());
        assert!(rg.cycle(&sys).is_none());
    }

    #[test]
    fn safe_order_prefix_not_deadlock() {
        let sys = classic_pair();
        // T1 executed Lx Ly — holds both; T2 nothing. Reduction graph has
        // wait arcs U1x → L2x, U1y → L2y but no cycle.
        let prefix = SystemPrefix::new(vec![
            Prefix::from_nodes(sys.txn(TxnId(0)), [NodeId(0), NodeId(1)]).unwrap(),
            Prefix::empty(sys.txn(TxnId(1))),
        ]);
        let rg = ReductionGraph::build(&sys, &prefix);
        assert!(!rg.is_cyclic());
        assert!(check_deadlock_prefix(&sys, &prefix, 10_000).is_none());
    }

    #[test]
    fn completion_api() {
        let sys = classic_pair();
        // T1 holds x and y: completable (T1 finishes, then T2).
        let ok = Schedule::from_steps(vec![
            ddlf_model::GlobalNode::new(TxnId(0), NodeId(0)),
            ddlf_model::GlobalNode::new(TxnId(0), NodeId(1)),
        ]);
        let full = complete_schedule(&sys, &ok, 1_000_000).expect("completable");
        assert!(full.validate(&sys).unwrap().complete);
        // Crossed holds: doomed.
        let doomed = Schedule::from_steps(vec![
            ddlf_model::GlobalNode::new(TxnId(0), NodeId(0)),
            ddlf_model::GlobalNode::new(TxnId(1), NodeId(0)),
        ]);
        assert!(complete_schedule(&sys, &doomed, 1_000_000).is_none());
    }

    #[test]
    fn schedule_search_finds_nontrivial_order() {
        // Target: T1 fully done, T2 fully done — requires interleaving
        // discipline (T1 must finish x before T2 locks it or vice versa).
        let sys = classic_pair();
        let target = SystemPrefix::new(vec![
            Prefix::full(sys.txn(TxnId(0))),
            Prefix::full(sys.txn(TxnId(1))),
        ]);
        let s = find_schedule_for_prefix(&sys, &target, 100_000).expect("completable");
        assert_eq!(s.len(), 8);
        let v = s.validate(&sys).unwrap();
        assert!(v.complete);
    }

    #[test]
    fn unschedulable_prefix_rejected() {
        // Prefix where both transactions hold x: impossible.
        let db = Database::one_entity_per_site(1);
        let x = EntityId(0);
        let t = Transaction::from_total_order("T", &[Op::lock(x), Op::unlock(x)], &db).unwrap();
        let sys = TransactionSystem::new(db, vec![t.clone(), t.with_name("T2")]).unwrap();
        let target = SystemPrefix::new(vec![
            Prefix::from_nodes(sys.txn(TxnId(0)), [NodeId(0)]).unwrap(),
            Prefix::from_nodes(sys.txn(TxnId(1)), [NodeId(0)]).unwrap(),
        ]);
        assert!(find_schedule_for_prefix(&sys, &target, 100_000).is_none());
    }

    #[test]
    fn budget_zero_is_inconclusive_none() {
        let sys = classic_pair();
        let target = SystemPrefix::new(vec![
            Prefix::full(sys.txn(TxnId(0))),
            Prefix::full(sys.txn(TxnId(1))),
        ]);
        assert!(find_schedule_for_prefix(&sys, &target, 0).is_none());
    }
}
