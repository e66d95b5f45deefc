//! Execution histories and the serializability audits over them.
//!
//! The simulator records the *effective* order of lock/unlock events as
//! decided by the sites. For committed transactions this trace is a
//! model [`Schedule`] audited with the paper's `D(S)` test — connecting
//! the runtime back to the static theory. Two audit paths exist:
//!
//! * the **incremental streaming audit**
//!   ([`ddlf_model::incremental::StreamingAuditor`], fed live by the
//!   engine from inside its one event critical section) is the primary
//!   path: it maintains the verdict at amortized near-constant cost per
//!   event, so live reports and WAL recovery stay linear in history
//!   size;
//! * the **batch audit** ([`History::audit`]) re-validates and rebuilds
//!   the full conflict digraph from scratch — quadratic in committed
//!   instances — and is kept as the *oracle* the streaming verdict is
//!   proptested (and debug-asserted) against.

use crate::time::SimTime;
use ddlf_model::{GlobalNode, ModelError, NodeId, Schedule, TransactionSystem, TxnId};
use serde::{Deserialize, Serialize};

/// One recorded lock-manager event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistoryEvent {
    /// When the site made the operation effective.
    pub time: SimTime,
    /// The transaction.
    pub txn: TxnId,
    /// The attempt number the event belongs to.
    pub attempt: u32,
    /// The operation node within the transaction.
    pub node: NodeId,
}

/// The full event history of a run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct History {
    events: Vec<HistoryEvent>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event (times must be non-decreasing; the engine
    /// guarantees it).
    pub fn record(&mut self, ev: HistoryEvent) {
        debug_assert!(self
            .events
            .last()
            .map(|last| last.time <= ev.time)
            .unwrap_or(true));
        self.events.push(ev);
    }

    /// All events.
    pub fn events(&self) -> &[HistoryEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Projects the history onto the *committing* attempts: given the
    /// attempt number each transaction committed with, keeps only that
    /// attempt's events, in time order, as a model [`Schedule`].
    ///
    /// Events of aborted attempts carry no information flow in the pure
    /// locking model (no action was made durable), so excluding them
    /// preserves the conflict structure of the committed execution.
    ///
    /// This materialized projection backs the **batch** audit path; the
    /// primary (streaming) path never materializes it — a
    /// [`StreamingAuditor`](ddlf_model::incremental::StreamingAuditor)
    /// performs the same projection online by
    /// buffering events per attempt until the commit/abort decision.
    pub fn committed_schedule(&self, committed_attempt: &[Option<u32>]) -> Schedule {
        let steps = self
            .events
            .iter()
            .filter(|e| committed_attempt[e.txn.index()] == Some(e.attempt))
            .map(|e| GlobalNode::new(e.txn, e.node))
            .collect();
        Schedule::from_steps(steps)
    }

    /// The **batch** `D(S)` audit: validates the committed schedule step
    /// by step and rebuilds the full conflict digraph from scratch.
    /// Returns `Ok(serializable)` or the validation error (which would
    /// indicate an engine bug, not a workload property).
    ///
    /// This is `Θ(instances²)` (the full `D(S)` carries an arc per
    /// ordered locker pair) and is **no longer the primary path**: the
    /// engine and `wal::recover` maintain the verdict incrementally via
    /// [`StreamingAuditor`](ddlf_model::incremental::StreamingAuditor)
    /// at amortized near-constant cost per event.
    /// The batch form stays as the independent *oracle* — proptests
    /// drive random certified and wait-die histories through both and
    /// assert verdict equality, and debug builds cross-check every
    /// engine run.
    pub fn audit(
        &self,
        sys: &TransactionSystem,
        committed_attempt: &[Option<u32>],
    ) -> Result<bool, ModelError> {
        let sched = self.committed_schedule(committed_attempt);
        let v = sched.validate(sys)?;
        Ok(sched.conflict_digraph(sys, &v).is_acyclic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddlf_model::{Database, EntityId, Op, Transaction};

    fn sys() -> TransactionSystem {
        let db = Database::one_entity_per_site(1);
        let t = Transaction::from_total_order(
            "T",
            &[Op::lock(EntityId(0)), Op::unlock(EntityId(0))],
            &db,
        )
        .unwrap();
        TransactionSystem::new(db, vec![t.clone(), t.with_name("T2")]).unwrap()
    }

    #[test]
    fn committed_projection_filters_attempts() {
        let sys = sys();
        let mut h = History::new();
        // T0 attempt 0 aborted after locking; attempt 1 commits; T1
        // commits attempt 0 in between.
        h.record(HistoryEvent {
            time: SimTime(1),
            txn: TxnId(0),
            attempt: 0,
            node: NodeId(0),
        });
        h.record(HistoryEvent {
            time: SimTime(2),
            txn: TxnId(0),
            attempt: 0,
            node: NodeId(1),
        });
        h.record(HistoryEvent {
            time: SimTime(3),
            txn: TxnId(1),
            attempt: 0,
            node: NodeId(0),
        });
        h.record(HistoryEvent {
            time: SimTime(4),
            txn: TxnId(1),
            attempt: 0,
            node: NodeId(1),
        });
        h.record(HistoryEvent {
            time: SimTime(5),
            txn: TxnId(0),
            attempt: 1,
            node: NodeId(0),
        });
        h.record(HistoryEvent {
            time: SimTime(6),
            txn: TxnId(0),
            attempt: 1,
            node: NodeId(1),
        });
        let committed = vec![Some(1), Some(0)];
        let sched = h.committed_schedule(&committed);
        assert_eq!(sched.len(), 4);
        assert!(h.audit(&sys, &committed).unwrap());
    }

    #[test]
    fn empty_history_audits_fine() {
        let sys = sys();
        let h = History::new();
        assert!(h.audit(&sys, &[None, None]).unwrap());
        assert!(h.is_empty());
    }
}
