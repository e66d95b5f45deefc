//! The exclusive lock table: FIFO wait queues per entity. Each store
//! shard keeps one under `shard.state`; the discrete-event simulator
//! keeps one per site.

use ddlf_model::{EntityId, IntBuild, TxnId};
use std::collections::{HashMap, VecDeque};

/// Outcome of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// The lock was free (or re-requested by its holder) and is now held.
    Granted,
    /// Another transaction holds the lock; the request was queued.
    Queued {
        /// The current holder (prevention policies decide against it).
        holder: TxnId,
    },
}

/// The lock table of one site (a store shard, or a simulated site):
/// exclusive locks, FIFO grant order.
#[derive(Debug, Clone, Default)]
pub struct LockTable {
    locks: HashMap<EntityId, LockState, IntBuild>,
}

#[derive(Debug, Clone)]
struct LockState {
    holder: TxnId,
    queue: VecDeque<TxnId>,
}

impl LockTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests the exclusive lock on `entity` for `txn`.
    pub fn acquire(&mut self, txn: TxnId, entity: EntityId) -> Acquire {
        match self.locks.get_mut(&entity) {
            None => {
                self.locks.insert(
                    entity,
                    LockState {
                        holder: txn,
                        queue: VecDeque::new(),
                    },
                );
                Acquire::Granted
            }
            Some(st) if st.holder == txn => Acquire::Granted,
            Some(st) => {
                if !st.queue.contains(&txn) {
                    st.queue.push_back(txn);
                }
                Acquire::Queued { holder: st.holder }
            }
        }
    }

    /// Releases `entity` if held by `txn` (granting the next waiter), or
    /// removes `txn` from the entity's queue. Returns the transaction now
    /// granted the lock, if any.
    pub fn release(&mut self, txn: TxnId, entity: EntityId) -> Option<TxnId> {
        let st = self.locks.get_mut(&entity)?;
        if st.holder == txn {
            if let Some(next) = st.queue.pop_front() {
                st.holder = next;
                Some(next)
            } else {
                self.locks.remove(&entity);
                None
            }
        } else {
            st.queue.retain(|&t| t != txn);
            None
        }
    }

    /// The holder of `entity`, if locked.
    pub fn holder(&self, entity: EntityId) -> Option<TxnId> {
        self.locks.get(&entity).map(|s| s.holder)
    }

    /// The queued waiters on `entity`, in grant order.
    pub fn waiters(&self, entity: EntityId) -> Vec<TxnId> {
        self.locks
            .get(&entity)
            .map(|s| s.queue.iter().copied().collect())
            .unwrap_or_default()
    }

    /// All `(waiter, holder)` wait-for pairs in this table — the edges of
    /// the classic wait-for graph.
    pub fn wait_for_edges(&self) -> Vec<(TxnId, TxnId)> {
        let mut out = Vec::new();
        for st in self.locks.values() {
            for &w in &st.queue {
                out.push((w, st.holder));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: TxnId = TxnId(0);
    const T1: TxnId = TxnId(1);
    const T2: TxnId = TxnId(2);
    const X: EntityId = EntityId(0);
    const Y: EntityId = EntityId(1);

    #[test]
    fn grant_queue_release_cycle() {
        let mut lt = LockTable::new();
        assert_eq!(lt.acquire(T0, X), Acquire::Granted);
        assert_eq!(lt.acquire(T1, X), Acquire::Queued { holder: T0 });
        assert_eq!(lt.acquire(T2, X), Acquire::Queued { holder: T0 });
        assert_eq!(lt.holder(X), Some(T0));
        assert_eq!(lt.waiters(X), vec![T1, T2]);
        // FIFO grant.
        assert_eq!(lt.release(T0, X), Some(T1));
        assert_eq!(lt.holder(X), Some(T1));
        assert_eq!(lt.release(T1, X), Some(T2));
        assert_eq!(lt.release(T2, X), None);
        assert_eq!(lt.holder(X), None);
    }

    #[test]
    fn reacquire_by_holder_is_granted() {
        let mut lt = LockTable::new();
        lt.acquire(T0, X);
        assert_eq!(lt.acquire(T0, X), Acquire::Granted);
    }

    #[test]
    fn duplicate_queue_entries_suppressed() {
        let mut lt = LockTable::new();
        lt.acquire(T0, X);
        lt.acquire(T1, X);
        lt.acquire(T1, X);
        assert_eq!(lt.waiters(X), vec![T1]);
    }

    #[test]
    fn release_of_queued_request_cancels() {
        let mut lt = LockTable::new();
        lt.acquire(T0, X);
        lt.acquire(T1, X);
        assert_eq!(lt.release(T1, X), None);
        assert_eq!(lt.waiters(X), Vec::<TxnId>::new());
        assert_eq!(lt.holder(X), Some(T0));
    }

    #[test]
    fn wait_for_edges_reported() {
        let mut lt = LockTable::new();
        lt.acquire(T0, X);
        lt.acquire(T1, X);
        lt.acquire(T1, Y);
        lt.acquire(T0, Y);
        let mut edges = lt.wait_for_edges();
        edges.sort();
        assert_eq!(edges, vec![(T0, T1), (T1, T0)]);
    }
}
