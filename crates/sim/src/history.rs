//! Execution histories and the serializability audits over them.
//!
//! The simulator records the *effective* order of lock/unlock events as
//! decided by the sites. For committed transactions this trace is a
//! model [`Schedule`] audited with the paper's `D(S)` test — connecting
//! the runtime back to the static theory. Two audit paths exist:
//!
//! * the **incremental streaming audit**
//!   ([`ddlf_model::incremental::StreamingAuditor`], fed live through
//!   [`SharedHistory::with_streaming_audit`]) is the primary path: it
//!   maintains the verdict at amortized near-constant cost per event,
//!   so live reports and WAL recovery stay linear in history size;
//! * the **batch audit** ([`History::audit`]) re-validates and rebuilds
//!   the full conflict digraph from scratch — quadratic in committed
//!   instances — and is kept as the *oracle* the streaming verdict is
//!   proptested (and debug-asserted) against.

use crate::time::SimTime;
use ddlf_model::incremental::StreamingAuditor;
use ddlf_model::{GlobalNode, ModelError, NodeId, Schedule, TransactionSystem, TxnId};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

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
    /// [`StreamingAuditor`] performs the same projection online by
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
    /// [`StreamingAuditor`] at amortized near-constant cost per event.
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

/// A thread-shared [`History`] with logical timestamps.
///
/// Concurrent runtimes (the engine's worker pool) append through
/// [`record`](Self::record), which stamps each event with the event
/// count *inside* the history critical section —
/// the subtle part: deriving the timestamp outside the lock lets two
/// threads append out of timestamp order, violating
/// [`History::record`]'s monotonicity contract.
///
/// An optional **sink** observes every event from inside the same
/// critical section, so a durable copy (the engine's `history.wal`)
/// sees events in exactly timestamp order.
pub struct SharedHistory {
    history: Mutex<History>,
    sink: Option<EventSink>,
}

impl Default for SharedHistory {
    // Manual (not derived) so the mutex lands in the `history.shared`
    // lock-discipline class on every construction path.
    fn default() -> Self {
        Self {
            history: Mutex::new_named("history.shared", History::new()),
            sink: None,
        }
    }
}

/// The observer type [`SharedHistory::with_sink`] installs.
pub type EventSink = Box<dyn Fn(&HistoryEvent) + Send + Sync>;

impl std::fmt::Debug for SharedHistory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedHistory")
            .field("history", &self.history)
            .field("sink", &self.sink.as_ref().map(|_| "Fn(&HistoryEvent)"))
            .finish()
    }
}

impl SharedHistory {
    /// An empty shared history.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty shared history whose every recorded event is also handed
    /// to `sink`, inside the timestamp critical section (write-ahead
    /// logging hangs off this).
    pub fn with_sink(sink: EventSink) -> Self {
        Self {
            history: Mutex::new_named("history.shared", History::new()),
            sink: Some(sink),
        }
    }

    /// The **streaming-audit sink mode**: every recorded event is fed —
    /// inside the timestamp critical section, so the auditor sees
    /// exactly timestamp order — to `auditor` as instance
    /// `base + event.txn`, plus optionally to `extra` (the engine stacks
    /// its WAL sink here). The caller keeps the `Arc` to admit
    /// instances, report commit/abort decisions, and read the live
    /// verdict; `base` translates the run-local `TxnId`s into the
    /// auditor's global instance-id space (the WAL gid space when
    /// logging, 0 otherwise).
    pub fn with_streaming_audit(
        auditor: Arc<Mutex<StreamingAuditor>>,
        base: u32,
        extra: Option<EventSink>,
    ) -> Self {
        Self::with_sink(Box::new(move |ev: &HistoryEvent| {
            if let Some(extra) = &extra {
                extra(ev);
            }
            auditor.lock().event(base + ev.txn.0, ev.attempt, ev.node);
        }))
    }

    /// Appends an event stamped with the next logical time.
    pub fn record(&self, txn: TxnId, attempt: u32, node: NodeId) {
        let mut history = self.history.lock();
        let t = history.len() as u64;
        let ev = HistoryEvent {
            time: SimTime(t),
            txn,
            attempt,
            node,
        };
        if let Some(sink) = &self.sink {
            sink(&ev);
        }
        history.record(ev);
    }

    /// Appends a batch of events for one `(txn, attempt)` under a
    /// *single* timestamp critical section, stamping them with
    /// consecutive logical times (and feeding each to the sink, in
    /// order, from inside the lock). Equivalent to calling
    /// [`record`](Self::record) once per node back to back with no
    /// interleaving — callers batch events whose relative order against
    /// other transactions is already fixed (e.g. lock grants the caller
    /// still holds), amortizing the per-event lock acquisition.
    pub fn record_batch(&self, txn: TxnId, attempt: u32, nodes: &[NodeId]) {
        if nodes.is_empty() {
            return;
        }
        let mut history = self.history.lock();
        for &node in nodes {
            let t = history.len() as u64;
            let ev = HistoryEvent {
                time: SimTime(t),
                txn,
                attempt,
                node,
            };
            if let Some(sink) = &self.sink {
                sink(&ev);
            }
            history.record(ev);
        }
    }

    /// Locks and exposes the history (audits, length checks).
    pub fn lock(&self) -> parking_lot::MutexGuard<'_, History> {
        self.history.lock()
    }

    /// Consumes the wrapper, returning the recorded history.
    pub fn into_inner(self) -> History {
        self.history.into_inner()
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

    #[test]
    fn streaming_audit_sink_matches_batch_audit() {
        let sys = sys();
        let auditor = Arc::new(Mutex::new(StreamingAuditor::new(&sys)));
        {
            let mut a = auditor.lock();
            a.admit(0, TxnId(0));
            a.admit(1, TxnId(1));
        }
        let shared = SharedHistory::with_streaming_audit(Arc::clone(&auditor), 0, None);
        // T0 attempt 0 dies after locking; attempt 1 commits; T1 commits.
        shared.record(TxnId(0), 0, NodeId(0));
        shared.record(TxnId(1), 0, NodeId(0));
        shared.record(TxnId(1), 0, NodeId(1));
        shared.record(TxnId(0), 1, NodeId(0));
        shared.record(TxnId(0), 1, NodeId(1));
        let streaming = {
            let mut a = auditor.lock();
            a.abort(0, 0);
            a.commit(0, 1);
            a.commit(1, 0);
            a.seal()
        };
        // Attempt 0 of T0 locked e0 and never unlocked before T1's lock,
        // but that attempt *aborted*, so the committed projection is
        // clean — and the batch oracle agrees.
        let history = shared.into_inner();
        let committed = vec![Some(1), Some(0)];
        assert_eq!(streaming, history.audit(&sys, &committed).ok());
        assert_eq!(streaming, Some(true));
    }

    #[test]
    fn record_batch_matches_back_to_back_records() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let shared = SharedHistory::with_sink(Box::new(move |ev: &HistoryEvent| {
            seen2.lock().push(*ev);
        }));
        shared.record(TxnId(1), 0, NodeId(7));
        shared.record_batch(TxnId(0), 2, &[NodeId(0), NodeId(1), NodeId(2)]);
        shared.record_batch(TxnId(0), 2, &[]);
        let history = shared.into_inner();
        assert_eq!(history.len(), 4);
        let times: Vec<u64> = history.events().iter().map(|e| e.time.0).collect();
        assert_eq!(times, vec![0, 1, 2, 3]);
        assert_eq!(
            history.events()[1..]
                .iter()
                .map(|e| (e.txn, e.attempt, e.node))
                .collect::<Vec<_>>(),
            vec![
                (TxnId(0), 2, NodeId(0)),
                (TxnId(0), 2, NodeId(1)),
                (TxnId(0), 2, NodeId(2)),
            ]
        );
        // The sink saw every batched event, in timestamp order, from
        // inside the critical section.
        assert_eq!(&*seen.lock(), history.events());
    }

    #[test]
    fn sink_sees_events_in_timestamp_order_under_threads() {
        use std::sync::Arc;
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let shared = Arc::new(SharedHistory::with_sink(Box::new(move |ev| {
            seen2.lock().push(ev.time);
        })));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for a in 0..100 {
                        shared.record(TxnId(t), a, NodeId(0));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let seen = seen.lock();
        assert_eq!(seen.len(), 400);
        assert!(
            seen.windows(2).all(|w| w[0] < w[1]),
            "sink order = time order"
        );
    }

    #[test]
    fn shared_history_timestamps_monotone_under_threads() {
        use std::sync::Arc;
        let shared = Arc::new(SharedHistory::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for a in 0..200 {
                        shared.record(TxnId(t), a, NodeId(0));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let history = Arc::try_unwrap(shared).unwrap().into_inner();
        assert_eq!(history.len(), 800);
        let times: Vec<_> = history.events().iter().map(|e| e.time).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }
}
