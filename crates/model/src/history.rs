//! Recorded lock/unlock histories and the **batch** `D(S)` audit over
//! their committed projection.
//!
//! A runtime — the engine, the discrete-event simulator, a test's toy
//! lock manager — records the *effective* order of lock/unlock events as
//! a [`History`], each event keyed by the instance id that performed it
//! and the attempt it belongs to. The paper's serializability test is
//! `D(S)` over the *committed projection* of that history:
//! [`History::committed_projection`] builds it once — one transaction per
//! committed instance, in id order, plus the committing attempts' events
//! in recorded order — and [`CommittedProjection::audit`] runs
//! [`Schedule::validate`] on it and checks `D(S)` for a cycle.
//!
//! The full `D(S)` ([`CommittedProjection::conflict_digraph`]) carries an
//! arc per ordered locker pair, `Θ(instances²)`; the audit checks its
//! per-entity transitive reduction, which has the same cycles. It is not
//! `wal::recover`'s path, which keeps the verdict incrementally in a
//! [`StreamingAuditor`](crate::incremental::StreamingAuditor). The batch
//! form is that auditor's independent *oracle* — the model proptests
//! drive random histories through both — and engine debug builds audit
//! every run with it.

use crate::error::ModelError;
use crate::graph::DiGraph;
use crate::ids::{GlobalNode, NodeId, TxnId};
use crate::schedule::{ConflictGraph, Schedule};
use crate::system::TransactionSystem;
use std::collections::HashMap;

/// One recorded lock/unlock event; order is [`History::record`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryEvent {
    /// The instance that performed the operation.
    pub id: u32,
    /// The attempt number the event belongs to.
    pub attempt: u32,
    /// The operation node within the instance's template.
    pub node: NodeId,
}

/// The full event history of a run, every attempt's.
#[derive(Debug, Clone, Default)]
pub struct History {
    events: Vec<HistoryEvent>,
}

/// The committed projection of a [`History`]: the audit system and the
/// schedule steps the batch `D(S)` test runs on.
#[derive(Debug, Clone)]
pub struct CommittedProjection {
    /// One transaction per committed instance, in id order: transaction
    /// `i` is instance `ids[i]`'s template, named `"<template>#<id>"`.
    pub sys: TransactionSystem,
    /// The committed instance ids, ascending.
    pub ids: Vec<u32>,
    /// The committing attempts' events in recorded order, keyed by the
    /// dense index into [`CommittedProjection::ids`].
    pub steps: Vec<GlobalNode>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn record(&mut self, ev: HistoryEvent) {
        self.events.push(ev);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Projects the history onto its committing attempts. `committed`
    /// names each committed instance once, as `(id, template, attempt)`
    /// with `template` indexing `sys`; every other instance, and every
    /// other attempt, drops out.
    ///
    /// Events of aborted attempts carry no information flow in the pure
    /// locking model (no action was made durable), so excluding them
    /// preserves the conflict structure of the committed execution.
    pub fn committed_projection(
        &self,
        sys: &TransactionSystem,
        committed: impl IntoIterator<Item = (u32, TxnId, u32)>,
    ) -> CommittedProjection {
        let mut members: Vec<(u32, TxnId, u32)> = committed.into_iter().collect();
        members.sort_unstable_by_key(|&(id, ..)| id);
        let dense: HashMap<u32, (TxnId, u32)> = (0..)
            .zip(&members)
            .map(|(i, &(id, _, attempt))| (id, (TxnId(i), attempt)))
            .collect();
        let txns = members
            .iter()
            .map(|&(id, template, _)| {
                let t = sys.txn(template);
                t.clone().with_name(format!("{}#{id}", t.name()))
            })
            .collect();
        let steps = self
            .events
            .iter()
            .filter_map(|e| match dense.get(&e.id) {
                Some(&(txn, attempt)) if attempt == e.attempt => Some(GlobalNode::new(txn, e.node)),
                _ => None,
            })
            .collect();
        CommittedProjection {
            sys: TransactionSystem::new(sys.db().clone(), txns)
                .expect("templates of a valid system stay valid"),
            ids: members.iter().map(|&(id, ..)| id).collect(),
            steps,
        }
    }
}

impl CommittedProjection {
    /// Validates [`steps`](Self::steps) as a [`Schedule`] of
    /// [`sys`](Self::sys) and builds its conflict digraph `D(S)`. A
    /// validation error means the recorded history is no lock-respecting
    /// schedule — a runtime bug, not a workload property.
    pub fn conflict_digraph(&self) -> Result<ConflictGraph, ModelError> {
        let sched = Schedule::from_steps(self.steps.clone());
        let v = sched.validate(&self.sys)?;
        Ok(sched.conflict_digraph(&self.sys, &v))
    }

    /// The batch `D(S)` verdict: `Ok(serializable)`, or the validation
    /// error of [`conflict_digraph`](Self::conflict_digraph). Per
    /// entity it keeps only the transitive reduction of `D(S)`'s arcs —
    /// each locker to the next, and the last locker to every accessor
    /// that never locked the entity — which has the same cycles, so the
    /// audit is linear in the history, not quadratic in the lockers.
    pub fn audit(&self) -> Result<bool, ModelError> {
        let sched = Schedule::from_steps(self.steps.clone());
        let v = sched.validate(&self.sys)?;
        let mut g = DiGraph::new(self.sys.len());
        let mut locked = vec![false; self.sys.len()];
        for (&e, lockers) in &v.lock_order {
            for pair in lockers.windows(2) {
                g.add_arc(pair[0].index(), pair[1].index());
            }
            let Some(last) = lockers.last() else { continue };
            lockers.iter().for_each(|t| locked[t.index()] = true);
            for (t, txn) in self.sys.iter() {
                if txn.accesses(e) && !locked[t.index()] {
                    g.add_arc(last.index(), t.index());
                }
            }
            lockers.iter().for_each(|t| locked[t.index()] = false);
        }
        Ok(!g.has_cycle())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, EntityId, Op, Transaction};

    fn sys() -> TransactionSystem {
        let db = Database::one_entity_per_site(1);
        let t = Transaction::from_total_order(
            "T",
            &[Op::lock(EntityId(0)), Op::unlock(EntityId(0))],
            &db,
        )
        .unwrap();
        TransactionSystem::new(db, vec![t]).unwrap()
    }

    #[test]
    fn committed_projection_filters_attempts() {
        // Instance 7's attempt 0 aborted after locking; attempt 1
        // commits; instance 3 commits attempt 0 in between; instance 9
        // never commits.
        let mut h = History::new();
        for (id, attempt, node) in [(7, 0, 0), (7, 0, 1), (3, 0, 0), (9, 0, 0), (3, 0, 1)] {
            h.record(HistoryEvent {
                id,
                attempt,
                node: NodeId(node),
            });
        }
        h.record(HistoryEvent {
            id: 7,
            attempt: 1,
            node: NodeId(0),
        });
        h.record(HistoryEvent {
            id: 7,
            attempt: 1,
            node: NodeId(1),
        });
        let p = h.committed_projection(&sys(), [(7, TxnId(0), 1), (3, TxnId(0), 0)]);
        assert_eq!(p.ids, [3, 7]);
        assert_eq!(p.sys.txn(TxnId(1)).name(), "T#7");
        let step = |t, n| GlobalNode::new(TxnId(t), NodeId(n));
        assert_eq!(p.steps, [step(0, 0), step(0, 1), step(1, 0), step(1, 1)]);
        assert_eq!(p.audit(), Ok(true));
    }

    #[test]
    fn empty_history_audits_fine() {
        let h = History::new();
        assert!(h.is_empty());
        assert_eq!(h.committed_projection(&sys(), []).audit(), Ok(true));
    }
}
