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
//! Both phases step the engine's own `Attempt` — the one
//! the threaded executor drives — through non-queueing lock acquires,
//! one virtual thread per transaction:
//!
//! 1. **Trace replay** — the recorded steps execute verbatim. A legal
//!    schedule never blocks (a `Lock` step only appears where the entity
//!    is free), so every acquire must succeed; anything else means the
//!    trace is corrupt and is reported as [`ReplayError::IllegalStep`].
//! 2. **Wait-die completion** — a deadlock witness ends in a stuck
//!    state. The replay then continues in cooperative sweeps, oldest
//!    transaction first, each running ahead until it commits or a lock
//!    is refused. The refusal is put to the engine's wait-die rule
//!    against the holder of that moment: an older requester asks again
//!    next sweep, any other dies — its held locks released, its exposed
//!    writes rolled back out of the value chains — and retries from
//!    scratch. Nothing ever queues, so nothing can jam: the youngest
//!    unfinished transaction ends every turn committed or holding
//!    nothing, hence (by induction over the sweeps) so does the k-th
//!    youngest from sweep k on, and the oldest runs unobstructed within
//!    `n + 1` sweeps. The deadlock the certified path would have hit is
//!    demonstrably unjammed by the fallback path, at the cost of real
//!    aborts; [`ReplayError::Stalled`] guards that bound.
//!
//! The sealed streaming-audit verdict is returned: replaying a `D(S)`
//! cycle counterexample yields `serializable == Some(false)` end to end
//! in the engine, while a deadlock witness completes with aborts and a
//! serializable history.

use crate::attempt::{wait_die, Attempt, AttemptBufs, Refused};
use crate::store::{Store, WriteCtx};
use crate::template::Program;
use ddlf_model::{GlobalNode, NodeId, StreamingAuditor, Transaction, TransactionSystem, TxnId};
use std::fmt;

/// The initial value of every entity in a replay store
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
    /// The oldest unfinished transaction did not advance for more
    /// sweeps of the wait-die completion than the rule allows (see the
    /// module docs) — a regression in the engine, reported instead of
    /// looping forever.
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

/// The replay's store, auditor and tally.
struct Replay<'a> {
    store: &'a Store,
    auditor: StreamingAuditor,
    report: ReplayReport,
}

impl Replay<'_> {
    /// Executes ready node `n` of `a` — an unlock always, a lock if it
    /// is free (else `Err(holder)`) — and commits `a` if that completed
    /// it: its chain entries are stamped and the auditor folds the
    /// attempt into the committed history.
    fn step(&mut self, a: &mut Attempt<'_>, txn: &Transaction, n: NodeId) -> Result<(), TxnId> {
        let (op, ctx) = (txn.op(n), a.ctx);
        if op.is_lock() {
            self.store
                .shard_of(op.entity)
                .try_acquire(ctx.holder(), op.entity)?;
            a.granted(n);
        } else {
            a.unlock(n, |nodes| {
                for &m in nodes {
                    self.auditor.event(ctx.gid, ctx.attempt, m);
                }
            });
        }
        if a.is_complete() {
            let ts = self.store.reserve_commit_ts();
            self.store.publish_commit(ts, ctx.gid, a.take_exposed());
            self.auditor.commit(ctx.gid, ctx.attempt);
            self.report.committed += 1;
        }
        Ok(())
    }
}

/// The completion's progress measure: which transaction is the oldest
/// unfinished one and how many steps it has executed. Wait-die never
/// kills the oldest, so the measure only grows; a death elsewhere is
/// not progress.
#[derive(Default)]
struct StallGuard {
    best: (usize, usize),
    idle_sweeps: usize,
}

impl StallGuard {
    /// Notes the measure after one sweep; `true` once it has not grown
    /// for more than `limit` sweeps in a row.
    fn stalled(&mut self, mark: (usize, usize), limit: usize) -> bool {
        if mark > self.best {
            self.best = mark;
            self.idle_sweeps = 0;
        } else {
            self.idle_sweeps += 1;
        }
        self.idle_sweeps > limit
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
    let programs: Vec<Program> = sys
        .txns()
        .iter()
        .map(|t| Program::counter(t.entities()))
        .collect();
    let attempt_of = |t: TxnId, attempt: u32| {
        let ctx = WriteCtx { gid: t.0, attempt };
        Attempt::new(
            &store,
            sys.txn(t),
            &programs[t.index()],
            ctx,
            AttemptBufs::default(),
        )
    };
    let mut attempts: Vec<Attempt<'_>> = sys.iter().map(|(t, _)| attempt_of(t, 0)).collect();
    let mut run = Replay {
        store: &store,
        auditor: StreamingAuditor::new(sys),
        report: ReplayReport {
            instances: sys.len(),
            replayed_steps: 0,
            completion_steps: 0,
            aborts: 0,
            rolled_back: 0,
            committed: 0,
            serializable: None,
        },
    };
    for (t, _) in sys.iter() {
        run.auditor.admit(t.0, t);
    }

    // Phase 1: the recorded steps, verbatim. Every lock must grant.
    for (i, g) in steps.iter().enumerate() {
        let bad = |reason: String| ReplayError::IllegalStep {
            index: i,
            step: *g,
            reason,
        };
        let Some(a) = attempts.get_mut(g.txn.index()) else {
            return Err(bad(format!("no transaction {}", g.txn)));
        };
        if !a.ready().any(|n| n == g.node) {
            return Err(bad("node is not ready in its transaction".to_string()));
        }
        let txn = sys.txn(g.txn);
        run.step(a, txn, g.node).map_err(|holder| {
            bad(format!(
                "lock on {} blocked by {holder} — not a legal schedule",
                txn.op(g.node).entity
            ))
        })?;
        run.report.replayed_steps += 1;
    }

    // Phase 2: finish whatever the trace left unfinished (a deadlock
    // witness leaves everything in the cycle stuck) under wait-die.
    let mut guard = StallGuard::default();
    while let Some(oldest) = attempts.iter().position(|a| !a.is_complete()) {
        for (t, txn) in sys.iter().skip(oldest) {
            let a = &mut attempts[t.index()];
            // Run ahead until the transaction commits or is refused.
            loop {
                let Some(n) = a.ready().next() else { break };
                match run.step(a, txn, n) {
                    Ok(()) => run.report.completion_steps += 1,
                    Err(holder) => {
                        if wait_die(t, holder) == Refused::Die {
                            run.report.rolled_back += a.die();
                            run.auditor.abort(t.0, a.ctx.attempt);
                            run.report.aborts += 1;
                            *a = attempt_of(t, a.ctx.attempt + 1);
                        }
                        break; // ask again next sweep
                    }
                }
            }
        }
        if guard.stalled((oldest, attempts[oldest].steps()), attempts.len() + 2) {
            return Err(ReplayError::Stalled {
                committed: run.report.committed,
                instances: run.report.instances,
            });
        }
    }

    run.report.serializable = run.auditor.seal();
    Ok(run.report)
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
    fn deaths_alone_do_not_feed_the_stall_guard() {
        // The measure is the oldest unfinished transaction's progress;
        // whatever the younger ones do (die, retry, die again), a
        // sweep that leaves it where it was is an idle sweep.
        let mut guard = StallGuard::default();
        assert!(!guard.stalled((0, 1), 3), "first observation is progress");
        assert!(
            (0..3).all(|_| !guard.stalled((0, 1), 3)),
            "within the bound"
        );
        assert!(guard.stalled((0, 1), 3), "one idle sweep too many");
        assert!(!guard.stalled((0, 2), 3), "a step resets the count");
        assert!(
            !guard.stalled((1, 0), 3),
            "so does the next-oldest taking over"
        );
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
