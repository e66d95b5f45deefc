//! Schedules: lock-respecting interleavings of transactions (§2), their
//! validation, and the conflict digraph `D(S)` used for the serializability
//! test and for Lemma 1.

use crate::error::ModelError;
use crate::graph::DiGraph;
use crate::ids::{EntityId, GlobalNode, TxnId};
use crate::prefix::SystemPrefix;
use crate::search::SchedulerState;
use crate::system::TransactionSystem;
use std::collections::{HashMap, HashSet};

/// A (partial or complete) schedule: a sequence of operation steps drawn
/// from the transactions of a system.
///
/// Invariant-free container; call [`Schedule::validate`] to check the §2
/// conditions (each transaction's subsequence is a linear extension of one
/// of its prefixes, and locks are respected).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule {
    steps: Vec<GlobalNode>,
}

/// The outcome of validating a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidSchedule {
    /// The per-transaction prefixes executed by the schedule.
    pub prefix: SystemPrefix,
    /// Whether every transaction ran to completion.
    pub complete: bool,
    /// For each entity, the transactions that locked it, in lock order.
    pub lock_order: HashMap<EntityId, Vec<TxnId>>,
}

impl Schedule {
    /// The empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// A schedule from explicit steps.
    pub fn from_steps(steps: Vec<GlobalNode>) -> Self {
        Self { steps }
    }

    /// The steps, in execution order.
    #[inline]
    pub fn steps(&self) -> &[GlobalNode] {
        &self.steps
    }

    /// Number of steps.
    #[inline]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the schedule has no steps.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Appends a step.
    pub fn push(&mut self, step: GlobalNode) {
        self.steps.push(step);
    }

    /// The **serial** schedule running the transactions completely, one
    /// after another, in the given order. Always legal.
    pub fn serial(sys: &TransactionSystem, order: &[TxnId]) -> Self {
        let mut steps = Vec::with_capacity(sys.total_nodes());
        for &t in order {
            for n in sys.txn(t).any_total_order() {
                steps.push(GlobalNode::new(t, n));
            }
        }
        Self { steps }
    }

    /// Validates the schedule against §2:
    ///
    /// * every step exists and appears at most once;
    /// * each step's predecessors within its transaction ran first
    ///   (the subsequence of each `Tᵢ` is a linear extension of a prefix);
    /// * a `Lock x` step only runs while no other transaction holds `x`
    ///   ("between every two `Lx` operations there is a `Ux`").
    ///
    /// Returns the executed [`SystemPrefix`], completeness, and the
    /// per-entity lock order (needed by [`Schedule::conflict_digraph`]).
    pub fn validate(&self, sys: &TransactionSystem) -> Result<ValidSchedule, ModelError> {
        let mut prefix = SystemPrefix::empty(sys.txns());
        let mut holder: HashMap<EntityId, TxnId> = HashMap::new();
        let mut lock_order: HashMap<EntityId, Vec<TxnId>> = HashMap::new();

        for &step in &self.steps {
            sys.check_txn(step.txn)?;
            let txn = sys.txn(step.txn);
            if step.node.index() >= txn.node_count() {
                return Err(ModelError::BadScheduleStep(step));
            }
            let p = prefix.of(step.txn);
            if p.contains(step.node) {
                return Err(ModelError::DuplicateStep(step));
            }
            if let Some(&missing) = txn
                .predecessors(step.node)
                .iter()
                .find(|&&q| !p.contains(q))
            {
                return Err(ModelError::PrecedenceViolated { step, missing });
            }
            let op = txn.op(step.node);
            if op.is_lock() {
                if let Some(&h) = holder.get(&op.entity) {
                    if h != step.txn {
                        return Err(ModelError::LockHeld {
                            step,
                            entity: op.entity,
                            holder: h,
                        });
                    }
                    // Same transaction re-locking is impossible: it has a
                    // single Lock node per entity and duplicates are caught
                    // above.
                }
                holder.insert(op.entity, step.txn);
                lock_order.entry(op.entity).or_default().push(step.txn);
            } else {
                holder.remove(&op.entity);
            }
            prefix.of_mut(step.txn).push(step.node);
        }

        let complete = prefix.is_complete(sys.txns());
        Ok(ValidSchedule {
            prefix,
            complete,
            lock_order,
        })
    }

    /// The labelled conflict digraph `D(S)` of a (partial) schedule, per
    /// §2/§5 (Lemma 1): one vertex per transaction and an arc `Tᵢ → Tⱼ`
    /// labelled `x` whenever both access `x` and `Tᵢ` locks `x` in `S`
    /// before `Tⱼ` does — *even if `Tⱼ` never executes its `Lx` inside
    /// `S`*.
    ///
    /// Accepts the [`ValidSchedule`] from [`Schedule::validate`].
    pub fn conflict_digraph(&self, sys: &TransactionSystem, v: &ValidSchedule) -> ConflictGraph {
        let n = sys.len();
        let mut g = DiGraph::new(n);
        let mut labels: HashMap<(u32, u32), Vec<EntityId>> = HashMap::new();
        let mut seen: HashSet<(u32, u32)> = HashSet::new();

        for e in sys.used_entities().iter().map(EntityId::from_index) {
            // Transactions accessing e.
            let accessors: Vec<TxnId> = sys
                .iter()
                .filter(|(_, t)| t.accesses(e))
                .map(|(id, _)| id)
                .collect();
            if accessors.len() < 2 {
                continue;
            }
            let lockers: &[TxnId] = v.lock_order.get(&e).map(Vec::as_slice).unwrap_or(&[]);
            let locked: HashSet<TxnId> = lockers.iter().copied().collect();
            // Arcs among lockers in lock order, and from each locker to
            // every accessor that has not locked e in S.
            for (i, &a) in lockers.iter().enumerate() {
                for &b in &lockers[i + 1..] {
                    Self::add_labelled(&mut g, &mut labels, &mut seen, a, b, e);
                }
                for &b in &accessors {
                    if !locked.contains(&b) {
                        Self::add_labelled(&mut g, &mut labels, &mut seen, a, b, e);
                    }
                }
            }
        }
        ConflictGraph { graph: g, labels }
    }

    fn add_labelled(
        g: &mut DiGraph,
        labels: &mut HashMap<(u32, u32), Vec<EntityId>>,
        seen: &mut HashSet<(u32, u32)>,
        a: TxnId,
        b: TxnId,
        e: EntityId,
    ) {
        if a == b {
            return;
        }
        if seen.insert((a.0, b.0)) {
            g.add_arc(a.index(), b.index());
        }
        labels.entry((a.0, b.0)).or_default().push(e);
    }

    /// Whether a **complete** schedule is serializable: `D(S)` acyclic (§2).
    ///
    /// Returns `Err` if the schedule is illegal or incomplete.
    pub fn is_serializable(&self, sys: &TransactionSystem) -> Result<bool, ModelError> {
        let v = self.validate(sys)?;
        debug_assert!(
            v.complete,
            "serializability is defined for complete schedules"
        );
        Ok(!self.conflict_digraph(sys, &v).graph.has_cycle())
    }

    /// Restricts the schedule to its first `k` steps.
    pub fn truncated(&self, k: usize) -> Schedule {
        Schedule {
            steps: self.steps[..k.min(self.steps.len())].to_vec(),
        }
    }

    /// For a complete, serializable schedule: a **serialization order** —
    /// a transaction order consistent with every conflict arc, i.e. a
    /// topological order of `D(S)`. Returns `None` when the schedule is
    /// illegal, incomplete, or non-serializable.
    pub fn serialization_order(&self, sys: &TransactionSystem) -> Option<Vec<TxnId>> {
        let v = self.validate(sys).ok()?;
        if !v.complete {
            return None;
        }
        let cg = self.conflict_digraph(sys, &v);
        cg.graph
            .topo_order()
            .map(|o| o.into_iter().map(TxnId::from_index).collect())
    }

    /// The serial schedule this one is equivalent to (same conflict arcs,
    /// no interleaving) — the constructive content of "S is serializable".
    pub fn equivalent_serial(&self, sys: &TransactionSystem) -> Option<Schedule> {
        let order = self.serialization_order(sys)?;
        Some(Schedule::serial(sys, &order))
    }
}

/// A conflict digraph with its entity labels.
#[derive(Debug, Clone)]
pub struct ConflictGraph {
    /// The digraph over transaction indices.
    pub graph: DiGraph,
    /// Labels: for each arc `(i, j)`, the entities inducing it.
    pub labels: HashMap<(u32, u32), Vec<EntityId>>,
}

impl ConflictGraph {
    /// Whether the graph is acyclic (⇔ the schedule is serializable /
    /// the partial schedule passes Lemma 1's condition).
    pub fn is_acyclic(&self) -> bool {
        !self.graph.has_cycle()
    }

    /// A cycle witness, as transaction ids.
    pub fn cycle(&self) -> Option<Vec<TxnId>> {
        self.graph
            .find_cycle()
            .map(|c| c.into_iter().map(TxnId::from_index).collect())
    }
}

/// Helper to materialize one full legal schedule of a validated prefix by
/// greedy execution; returns `None` if the executor gets stuck before
/// reaching the prefix (should not happen for prefixes produced by search).
pub fn replay_prefix(sys: &TransactionSystem, target: &SystemPrefix) -> Option<Schedule> {
    let mut st = SchedulerState::initial(sys);
    while st.prefix().total_len() < target.total_len() {
        let mut enabled = st.enabled().into_iter();
        st.apply(&enabled.find(|s| target.of(s.txn).contains(s.node))?);
    }
    Some(Schedule::from_steps(st.trace().to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::ids::NodeId;
    use crate::op::Op;
    use crate::txn::Transaction;

    fn two_txn_system() -> TransactionSystem {
        let db = Database::one_entity_per_site(2);
        let (x, y) = (EntityId(0), EntityId(1));
        let t1 = Transaction::from_total_order(
            "T1",
            &[Op::lock(x), Op::unlock(x), Op::lock(y), Op::unlock(y)],
            &db,
        )
        .unwrap();
        let t2 = Transaction::from_total_order(
            "T2",
            &[Op::lock(y), Op::unlock(y), Op::lock(x), Op::unlock(x)],
            &db,
        )
        .unwrap();
        TransactionSystem::new(db, vec![t1, t2]).unwrap()
    }

    #[test]
    fn serial_schedules_are_legal_and_serializable() {
        let sys = two_txn_system();
        let s = Schedule::serial(&sys, &[TxnId(0), TxnId(1)]);
        let v = s.validate(&sys).unwrap();
        assert!(v.complete);
        assert!(s.is_serializable(&sys).unwrap());
    }

    #[test]
    fn lock_conflict_detected() {
        let sys = two_txn_system();
        // T1: Lx; T2: Ly; T2: Lx → illegal (T1 holds x).
        let s = Schedule::from_steps(vec![
            GlobalNode::new(TxnId(0), NodeId(0)),
            GlobalNode::new(TxnId(1), NodeId(0)),
            GlobalNode::new(TxnId(1), NodeId(1)),
            GlobalNode::new(TxnId(1), NodeId(2)),
        ]);
        let err = s.validate(&sys).unwrap_err();
        assert!(matches!(
            err,
            ModelError::LockHeld {
                holder: TxnId(0),
                ..
            }
        ));
    }

    #[test]
    fn precedence_violation_detected() {
        let sys = two_txn_system();
        let s = Schedule::from_steps(vec![GlobalNode::new(TxnId(0), NodeId(1))]);
        assert!(matches!(
            s.validate(&sys).unwrap_err(),
            ModelError::PrecedenceViolated { .. }
        ));
    }

    #[test]
    fn duplicate_step_detected() {
        let sys = two_txn_system();
        let s = Schedule::from_steps(vec![
            GlobalNode::new(TxnId(0), NodeId(0)),
            GlobalNode::new(TxnId(0), NodeId(0)),
        ]);
        assert!(matches!(
            s.validate(&sys).unwrap_err(),
            ModelError::DuplicateStep(_)
        ));
    }

    #[test]
    fn nonserializable_interleaving() {
        // T1: Lx Ux Ly Uy ; T2: Ly Uy Lx Ux.
        // Interleave so T1 uses x before T2 and T2 uses y before T1:
        // T1.Lx T1.Ux T2.Ly T2.Uy T1.Ly T1.Uy T2.Lx T2.Ux
        // D(S): T1 →x T2 (T1 locked x first), T2 →y T1 → cycle.
        let sys = two_txn_system();
        let s = Schedule::from_steps(vec![
            GlobalNode::new(TxnId(0), NodeId(0)),
            GlobalNode::new(TxnId(0), NodeId(1)),
            GlobalNode::new(TxnId(1), NodeId(0)),
            GlobalNode::new(TxnId(1), NodeId(1)),
            GlobalNode::new(TxnId(0), NodeId(2)),
            GlobalNode::new(TxnId(0), NodeId(3)),
            GlobalNode::new(TxnId(1), NodeId(2)),
            GlobalNode::new(TxnId(1), NodeId(3)),
        ]);
        assert!(!s.is_serializable(&sys).unwrap());
        let v = s.validate(&sys).unwrap();
        let cg = s.conflict_digraph(&sys, &v);
        let cyc = cg.cycle().unwrap();
        assert_eq!(cyc.len(), 2);
    }

    #[test]
    fn partial_schedule_conflict_arcs_include_non_lockers() {
        // Lemma 1's D(S'): T1 locked x; T2 accesses x but hasn't locked it
        // → arc T1 → T2 labelled x.
        let sys = two_txn_system();
        let s = Schedule::from_steps(vec![GlobalNode::new(TxnId(0), NodeId(0))]);
        let v = s.validate(&sys).unwrap();
        assert!(!v.complete);
        let cg = s.conflict_digraph(&sys, &v);
        assert!(cg.is_acyclic());
        assert_eq!(cg.labels[&(0, 1)], vec![EntityId(0)]);
        assert!(!cg.labels.contains_key(&(1, 0)));
    }

    #[test]
    fn truncated_prefix() {
        let sys = two_txn_system();
        let s = Schedule::serial(&sys, &[TxnId(0), TxnId(1)]);
        let t = s.truncated(3);
        assert_eq!(t.len(), 3);
        let v = t.validate(&sys).unwrap();
        assert!(!v.complete);
        assert_eq!(v.prefix.total_len(), 3);
    }

    #[test]
    fn serialization_order_witness() {
        // Interleave T1 and T2 legally but serializably:
        // T1.Lx T1.Ux T2.Lx T2.Ux T2.Ly T2.Uy T1.Ly T1.Uy
        // Conflicts: x: T1 → T2; y: T2 → T1 — wait, that's cyclic. Use an
        // order where both conflicts agree: T1 before T2 on both.
        let sys = two_txn_system();
        // T1 = Lx Ux Ly Uy ; T2 = Ly Uy Lx Ux.
        // Run: T1.Lx T1.Ux T1.Ly T1.Uy T2.Ly T2.Uy T2.Lx T2.Ux — serial.
        // More interesting: interleave without conflict inversion:
        // T1.Lx T1.Ux T2.Ly? — T2 locks y BEFORE T1? That inverts y.
        // Instead: T1.Lx T1.Ux T1.Ly T1.Uy then T2 fully: order [T1, T2].
        let s = Schedule::serial(&sys, &[TxnId(0), TxnId(1)]);
        let order = s.serialization_order(&sys).unwrap();
        assert_eq!(order.len(), 2);
        // The serialization order must put T1 before T2 (T1 used both
        // entities first).
        assert_eq!(order[0], TxnId(0));
        let serial = s.equivalent_serial(&sys).unwrap();
        let v1 = s.validate(&sys).unwrap();
        let v2 = serial.validate(&sys).unwrap();
        // Same labelled conflict arcs.
        let c1 = s.conflict_digraph(&sys, &v1);
        let c2 = serial.conflict_digraph(&sys, &v2);
        let norm = |c: &ConflictGraph| {
            let mut v: Vec<_> = c
                .labels
                .iter()
                .map(|(&k, ents)| {
                    let mut e = ents.clone();
                    e.sort_unstable();
                    (k, e)
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(norm(&c1), norm(&c2));
    }

    #[test]
    fn non_serializable_schedule_has_no_order() {
        let sys = two_txn_system();
        let s = Schedule::from_steps(vec![
            GlobalNode::new(TxnId(0), NodeId(0)),
            GlobalNode::new(TxnId(0), NodeId(1)),
            GlobalNode::new(TxnId(1), NodeId(0)),
            GlobalNode::new(TxnId(1), NodeId(1)),
            GlobalNode::new(TxnId(0), NodeId(2)),
            GlobalNode::new(TxnId(0), NodeId(3)),
            GlobalNode::new(TxnId(1), NodeId(2)),
            GlobalNode::new(TxnId(1), NodeId(3)),
        ]);
        assert!(s.serialization_order(&sys).is_none());
        assert!(s.equivalent_serial(&sys).is_none());
    }

    #[test]
    fn partial_schedule_has_no_serialization_order() {
        let sys = two_txn_system();
        let s = Schedule::from_steps(vec![GlobalNode::new(TxnId(0), NodeId(0))]);
        assert!(s.serialization_order(&sys).is_none());
    }

    #[test]
    fn replay_reaches_target_prefix() {
        let sys = two_txn_system();
        let mut target = SystemPrefix::empty(sys.txns());
        target.of_mut(TxnId(0)).push(NodeId(0)); // T1 holds x
        target.of_mut(TxnId(1)).push(NodeId(0)); // T2 holds y
        let sched = replay_prefix(&sys, &target).unwrap();
        assert_eq!(sched.len(), 2);
        let v = sched.validate(&sys).unwrap();
        assert_eq!(v.prefix, target);
    }
}
