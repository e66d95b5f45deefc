//! Replay explored schedules through the engine's data path.
//!
//! `ddlf_model::explore` finds counterexample schedules in the abstract
//! lock model; this module re-executes such a schedule against the real
//! engine machinery — the sharded [`Store`] with its FIFO lock tables
//! and write-order value chains, and the incremental
//! [`StreamingAuditor`] — so a recorded
//! JSONL trace is not just a claim about the model but a reproducible
//! run of the engine itself.
//!
//! Two phases:
//!
//! 1. **Trace replay** — the recorded steps execute verbatim, one
//!    virtual thread per transaction. A legal schedule never blocks (a
//!    `Lock` step only appears where the entity is free), so every lock
//!    request must be granted immediately; anything else means the
//!    trace is corrupt and is reported as [`ReplayError::IllegalStep`].
//! 2. **Wait-die completion** — a deadlock witness ends in a stuck
//!    state. The replay then continues under the engine's wait-die
//!    rule: each unfinished transaction advances in timestamp order;
//!    a requester younger than the holder dies — its queued request is
//!    withdrawn, its held locks released, its exposed writes rolled
//!    back out of the value chains — and retries from scratch. Wait-die
//!    admits no waiting cycle, so the replay always drains: the
//!    deadlock the certified path would have hit is demonstrably
//!    unjammed by the fallback path, at the cost of real aborts.
//!
//! The sealed streaming-audit verdict is returned: replaying a `D(S)`
//! cycle counterexample yields `serializable == Some(false)` end to end
//! in the engine, while a deadlock witness completes with aborts and a
//! serializable history.

use crate::store::{LockOutcome, Store, WriteCtx};
use crate::template::Program;
use crossbeam::channel::{unbounded, Receiver, Sender};
use ddlf_model::{
    EntityId, GlobalNode, NodeId, Prefix, StreamingAuditor, TransactionSystem, TxnId,
};
use std::fmt;

/// The initial integer payload of every entity in a replay store
/// (mirrors the engine's default).
pub const REPLAY_INITIAL_VALUE: u64 = 1000;

/// How a replay went.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Transactions in the replayed system (one instance each).
    pub instances: usize,
    /// Recorded steps executed verbatim (phase 1).
    pub replayed_steps: usize,
    /// Steps executed by the wait-die completion (phase 2); zero when
    /// the trace was already complete.
    pub completion_steps: usize,
    /// Attempts killed by the wait-die rule during completion.
    pub aborts: u32,
    /// Exposed writes rolled back (their chain entries removed).
    pub rolled_back: u32,
    /// Transactions that committed (always `instances` on success).
    pub committed: usize,
    /// The sealed streaming `D(S)` verdict over the committed history.
    pub serializable: Option<bool>,
}

/// Why a replay failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// A recorded step was not executable at its position — the trace
    /// does not come from a legal schedule of this system.
    IllegalStep {
        /// Index into the recorded steps.
        index: usize,
        /// The offending step.
        step: GlobalNode,
        /// What went wrong.
        reason: String,
    },
    /// The wait-die completion stopped making progress (cannot happen
    /// for traces produced by the explorer; guards corrupt input).
    Stalled {
        /// Transactions committed before the stall.
        committed: usize,
        /// Transactions in the system.
        instances: usize,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::IllegalStep {
                index,
                step,
                reason,
            } => {
                write!(f, "step {index} ({step:?}) is illegal: {reason}")
            }
            ReplayError::Stalled {
                committed,
                instances,
            } => {
                write!(
                    f,
                    "completion stalled with {committed}/{instances} committed"
                )
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// One transaction's execution state: its executed prefix, attempt
/// counter, grant channel, and this attempt's exposed writes.
struct Slot {
    prefix: Prefix,
    attempt: u32,
    committed: bool,
    written: Vec<EntityId>,
    blocked: Option<(EntityId, NodeId)>,
    tx: Sender<EntityId>,
    rx: Receiver<EntityId>,
}

impl Slot {
    fn ctx(&self, t: TxnId) -> WriteCtx {
        WriteCtx {
            instance: t,
            gid: t.0,
            attempt: self.attempt,
        }
    }
}

/// Replays `steps` — a (possibly partial) schedule of `sys`, one
/// transaction per instance — through the engine's store, rollback, and
/// streaming auditor, then completes any unfinished transactions under
/// the wait-die rule. See the module docs.
pub fn replay_schedule(
    sys: &TransactionSystem,
    steps: &[GlobalNode],
) -> Result<ReplayReport, ReplayError> {
    let store = Store::new(sys.db(), REPLAY_INITIAL_VALUE);
    let mut auditor = StreamingAuditor::new(sys);
    let programs: Vec<Program> = sys
        .txns()
        .iter()
        .map(|t| Program::counter(t.entities()))
        .collect();
    let mut slots: Vec<Slot> = sys
        .txns()
        .iter()
        .map(|t| {
            let (tx, rx) = unbounded();
            Slot {
                prefix: Prefix::empty(t),
                attempt: 0,
                committed: false,
                written: Vec::new(),
                blocked: None,
                tx,
                rx,
            }
        })
        .collect();
    for (t, _) in sys.iter() {
        auditor.admit(t.0, t);
    }
    let mut report = ReplayReport {
        instances: sys.len(),
        replayed_steps: 0,
        completion_steps: 0,
        aborts: 0,
        rolled_back: 0,
        committed: 0,
        serializable: None,
    };

    // Phase 1: the recorded steps, verbatim. Every lock must grant.
    for (i, g) in steps.iter().enumerate() {
        let bad = |reason: String| ReplayError::IllegalStep {
            index: i,
            step: *g,
            reason,
        };
        if g.txn.index() >= slots.len() {
            return Err(bad(format!("no transaction {}", g.txn)));
        }
        let txn = sys.txn(g.txn);
        if !slots[g.txn.index()]
            .prefix
            .ready_nodes(txn)
            .contains(&g.node)
        {
            return Err(bad("node is not ready in its transaction".to_string()));
        }
        let op = txn.op(g.node);
        if op.is_lock() {
            let outcome =
                store
                    .shard_of(op.entity)
                    .request(g.txn, op.entity, &slots[g.txn.index()].tx);
            if let LockOutcome::Queued { holder } = outcome {
                return Err(bad(format!(
                    "lock on {} blocked by {holder} — not a legal schedule",
                    op.entity
                )));
            }
        }
        let slot = &mut slots[g.txn.index()];
        auditor.event(g.txn.0, slot.attempt, g.node);
        if op.is_unlock() {
            let ctx = slot.ctx(g.txn);
            let applied = store
                .shard_of(op.entity)
                .write_and_release(
                    &ctx,
                    op.entity,
                    programs[g.txn.index()].write_for(op.entity),
                )
                .unwrap_or(false);
            if applied {
                slot.written.push(op.entity);
            }
        }
        slot.prefix.push(g.node);
        report.replayed_steps += 1;
        if slot.prefix.is_complete(txn) {
            commit(&store, &mut auditor, &mut slots[g.txn.index()], g.txn);
            report.committed += 1;
        }
    }

    // Phase 2: finish whatever the trace left unfinished (a deadlock
    // witness leaves everything in the cycle stuck) under wait-die.
    let mut idle_rounds = 0usize;
    while slots.iter().any(|s| !s.committed) {
        let mut progressed = false;
        for idx in 0..slots.len() {
            let t = TxnId(idx as u32);
            let txn = sys.txn(t);
            if slots[idx].committed {
                continue;
            }
            // A parked requester first checks whether the FIFO hand-over
            // promoted it.
            if let Some((e, n)) = slots[idx].blocked {
                match slots[idx].rx.try_recv() {
                    Ok(granted) if granted == e => {
                        slots[idx].blocked = None;
                        auditor.event(t.0, slots[idx].attempt, n);
                        slots[idx].prefix.push(n);
                        report.completion_steps += 1;
                        progressed = true;
                    }
                    _ => continue,
                }
            }
            // Run ahead until the transaction commits, parks, or dies.
            loop {
                let ready = slots[idx].prefix.ready_nodes(txn);
                let Some(&n) = ready.first() else {
                    if slots[idx].prefix.is_complete(txn) {
                        commit(&store, &mut auditor, &mut slots[idx], t);
                        report.committed += 1;
                        progressed = true;
                    }
                    break;
                };
                let op = txn.op(n);
                if op.is_lock() {
                    match store
                        .shard_of(op.entity)
                        .request(t, op.entity, &slots[idx].tx)
                    {
                        LockOutcome::Granted => {}
                        LockOutcome::Queued { holder } => {
                            if t.0 >= holder.0 {
                                // Younger than the holder: die, roll
                                // back, retry from scratch.
                                store.shard_of(op.entity).withdraw(t, op.entity);
                                abort(&store, &mut auditor, sys, &mut slots[idx], t, &mut report);
                                progressed = true;
                            } else {
                                // Older: park until the hand-over.
                                slots[idx].blocked = Some((op.entity, n));
                            }
                            break;
                        }
                    }
                    auditor.event(t.0, slots[idx].attempt, n);
                    slots[idx].prefix.push(n);
                } else {
                    let ctx = slots[idx].ctx(t);
                    auditor.event(t.0, slots[idx].attempt, n);
                    let applied = store
                        .shard_of(op.entity)
                        .write_and_release(&ctx, op.entity, programs[idx].write_for(op.entity))
                        .unwrap_or(false);
                    if applied {
                        slots[idx].written.push(op.entity);
                    }
                    slots[idx].prefix.push(n);
                }
                report.completion_steps += 1;
                progressed = true;
            }
        }
        if progressed {
            idle_rounds = 0;
        } else {
            idle_rounds += 1;
            // Wait-die admits no waiting cycle, so a full idle sweep
            // (plus slack) proves the input was not a schedule of `sys`.
            if idle_rounds > slots.len() + 2 {
                return Err(ReplayError::Stalled {
                    committed: report.committed,
                    instances: report.instances,
                });
            }
        }
    }

    report.serializable = auditor.seal();
    Ok(report)
}

/// Commit: the attempt's chain entries are stamped (its writes become
/// permanent), the auditor folds the attempt into the committed history.
fn commit(store: &Store, auditor: &mut StreamingAuditor, slot: &mut Slot, t: TxnId) {
    store.publish_commit(store.reserve_commit_ts(), t.0, slot.written.drain(..));
    auditor.commit(t.0, slot.attempt);
    slot.committed = true;
}

/// Wait-die death: release everything, undo exposed writes (reverse
/// order), drop the attempt's buffered events, and reset for a retry.
fn abort(
    store: &Store,
    auditor: &mut StreamingAuditor,
    sys: &TransactionSystem,
    slot: &mut Slot,
    t: TxnId,
    report: &mut ReplayReport,
) {
    let txn = sys.txn(t);
    let ctx = slot.ctx(t);
    for e in slot.prefix.held_entities(txn) {
        store.shard_of(e).release(t, e);
    }
    for &e in slot.written.iter().rev().collect::<Vec<_>>() {
        if store.shard_of(e).undo_write(&ctx, e).rolled_back() {
            report.rolled_back += 1;
        }
    }
    // A grant delivered between queueing and withdrawal is stale now.
    while slot.rx.try_recv().is_ok() {}
    auditor.abort(t.0, slot.attempt);
    slot.attempt += 1;
    slot.prefix = Prefix::empty(txn);
    slot.written.clear();
    slot.blocked = None;
    report.aborts += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddlf_model::explore::{explore, AnomalyKind, ExploreConfig};
    use ddlf_model::{Database, Op, Transaction};

    fn pair(ops1: &[Op], ops2: &[Op]) -> TransactionSystem {
        let db = Database::one_entity_per_site(2);
        let t1 = Transaction::from_total_order("T1", ops1, &db).unwrap();
        let t2 = Transaction::from_total_order("T2", ops2, &db).unwrap();
        TransactionSystem::new(db, vec![t1, t2]).unwrap()
    }

    fn first_counterexample(sys: &TransactionSystem) -> ddlf_model::Counterexample {
        let out = explore(
            sys,
            &ExploreConfig {
                max_counterexamples: 1,
                ..ExploreConfig::default()
            },
        );
        out.counterexamples.into_iter().next().expect("found one")
    }

    #[test]
    fn empty_trace_completes_serially() {
        let (x, y) = (ddlf_model::EntityId(0), ddlf_model::EntityId(1));
        let ops = [Op::lock(x), Op::lock(y), Op::unlock(x), Op::unlock(y)];
        let sys = pair(&ops, &ops);
        let rep = replay_schedule(&sys, &[]).unwrap();
        assert_eq!(rep.committed, 2);
        assert_eq!(rep.aborts, 0);
        assert_eq!(rep.serializable, Some(true));
        assert_eq!(rep.completion_steps, 8);
    }

    #[test]
    fn cycle_witness_reproduces_the_non_serializable_verdict() {
        let (x, y) = (ddlf_model::EntityId(0), ddlf_model::EntityId(1));
        // The lost-update shape: both read x (snapshot), then write y.
        let ops = [Op::lock(x), Op::unlock(x), Op::lock(y), Op::unlock(y)];
        let sys = pair(&ops, &ops);
        let ce = first_counterexample(&sys);
        assert_eq!(ce.kind, AnomalyKind::LostUpdate);
        let rep = replay_schedule(&sys, &ce.steps).unwrap();
        assert_eq!(rep.committed, 2);
        assert_eq!(rep.aborts, 0, "a complete legal trace never conflicts");
        assert_eq!(rep.serializable, Some(false), "the engine audit agrees");
    }

    #[test]
    fn deadlock_witness_is_unjammed_by_wait_die() {
        let (x, y) = (ddlf_model::EntityId(0), ddlf_model::EntityId(1));
        let sys = pair(
            &[Op::lock(x), Op::lock(y), Op::unlock(x), Op::unlock(y)],
            &[Op::lock(y), Op::lock(x), Op::unlock(y), Op::unlock(x)],
        );
        let ce = first_counterexample(&sys);
        assert_eq!(ce.kind, AnomalyKind::Deadlock);
        let rep = replay_schedule(&sys, &ce.steps).unwrap();
        assert_eq!(rep.committed, 2, "wait-die drains the stuck state");
        assert!(rep.aborts >= 1, "someone had to die");
        assert_eq!(rep.serializable, Some(true), "and the history audits");
    }

    #[test]
    fn corrupt_trace_is_rejected() {
        let (x, y) = (ddlf_model::EntityId(0), ddlf_model::EntityId(1));
        let ops = [Op::lock(x), Op::lock(y), Op::unlock(x), Op::unlock(y)];
        let sys = pair(&ops, &ops);
        // Both transactions "lock x" back to back: the second is blocked,
        // so this is not a legal schedule.
        let steps = [
            GlobalNode::new(TxnId(0), NodeId(0)),
            GlobalNode::new(TxnId(1), NodeId(0)),
        ];
        let err = replay_schedule(&sys, &steps).unwrap_err();
        assert!(
            matches!(err, ReplayError::IllegalStep { index: 1, .. }),
            "{err}"
        );
    }
}
