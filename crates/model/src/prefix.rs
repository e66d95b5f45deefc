//! Prefixes of transactions and of transaction systems (§3 of the paper).
//!
//! A *prefix* of a DAG is a set of nodes with no arc entering it from
//! outside — the sets of operations that can have been executed at some
//! point. Deadlock analysis (reduction graphs, Theorem 1) and the Theorem 4
//! normal-form construction are all phrased in terms of prefixes.

use crate::bitset::BitSet;
use crate::ids::{EntityId, NodeId, TxnId};
use crate::txn::Transaction;

/// A prefix (downward-closed node set) of a single transaction. The
/// default is the empty prefix of a transaction with no nodes; use
/// [`Prefix::reset`] to re-aim it.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Prefix {
    executed: BitSet,
}

impl Prefix {
    /// The empty prefix of `txn`.
    pub fn empty(txn: &Transaction) -> Self {
        Self {
            executed: BitSet::new(txn.node_count()),
        }
    }

    /// Makes this the empty prefix of `txn`, keeping its storage: a
    /// prefix reused across attempts of transactions no larger than the
    /// largest it has held allocates nothing.
    pub fn reset(&mut self, txn: &Transaction) {
        self.executed.reset(txn.node_count());
    }

    /// The complete prefix (all nodes) of `txn`.
    pub fn full(txn: &Transaction) -> Self {
        Self {
            executed: BitSet::from_indices(txn.node_count(), 0..txn.node_count()),
        }
    }

    /// Builds a prefix from an explicit node set, verifying downward
    /// closure (every predecessor of a member is a member).
    pub fn from_nodes(txn: &Transaction, nodes: impl IntoIterator<Item = NodeId>) -> Option<Self> {
        let mut executed = BitSet::new(txn.node_count());
        for n in nodes {
            if n.index() >= txn.node_count() {
                return None;
            }
            executed.insert(n.index());
        }
        for i in executed.iter().collect::<Vec<_>>() {
            for &p in txn.predecessors(NodeId::from_index(i)) {
                if !executed.contains(p.index()) {
                    return None;
                }
            }
        }
        Some(Self { executed })
    }

    /// Whether node `n` is in the prefix.
    #[inline]
    pub fn contains(&self, n: NodeId) -> bool {
        self.executed.contains(n.index())
    }

    /// Number of executed nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.executed.len()
    }

    /// Whether no node has executed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.executed.is_empty()
    }

    /// Whether every node of `txn` has executed.
    pub fn is_complete(&self, txn: &Transaction) -> bool {
        self.len() == txn.node_count()
    }

    /// Marks `n` executed. Callers are responsible for only executing
    /// *ready* nodes; use [`Prefix::ready_nodes`] to find them.
    #[inline]
    pub fn push(&mut self, n: NodeId) {
        self.executed.insert(n.index());
    }

    /// Removes `n` from the prefix — the undo operation for backtracking
    /// searches. Callers must only remove nodes that keep the set downward
    /// closed (i.e. nodes with no executed successors).
    #[inline]
    pub fn unpush(&mut self, n: NodeId) {
        self.executed.remove(n.index());
    }

    /// The executed node set.
    #[inline]
    pub fn executed(&self) -> &BitSet {
        &self.executed
    }

    /// Iterates executed nodes in index order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.executed.iter().map(NodeId::from_index)
    }

    /// Nodes of `txn` outside the prefix whose predecessors are all inside:
    /// the candidates for execution next.
    pub fn ready_nodes(&self, txn: &Transaction) -> Vec<NodeId> {
        self.ready(txn).collect()
    }

    /// [`Prefix::ready_nodes`] without the allocation, in node order.
    pub fn ready<'a>(&'a self, txn: &'a Transaction) -> impl Iterator<Item = NodeId> + 'a {
        txn.nodes().filter(move |&n| {
            !self.contains(n) && txn.predecessors(n).iter().all(|&p| self.contains(p))
        })
    }

    /// Entities locked but not unlocked by this prefix — the locks held
    /// after executing exactly these nodes — in `txn`'s entity order,
    /// without allocating.
    pub fn held_entities<'a>(
        &'a self,
        txn: &'a Transaction,
    ) -> impl Iterator<Item = EntityId> + 'a {
        txn.entities().iter().copied().filter(move |&e| {
            let l = txn.lock_node_of(e).expect("entity accessed");
            let u = txn.unlock_node_of(e).expect("entity accessed");
            self.contains(l) && !self.contains(u)
        })
    }

    /// `Y(T')` from §5: entities mentioned in the *remaining* steps —
    /// equivalently, accessed entities whose `Uy` is not in the prefix.
    pub fn pending_entities(&self, txn: &Transaction) -> Vec<EntityId> {
        txn.entities()
            .iter()
            .copied()
            .filter(|&e| !self.contains(txn.unlock_node_of(e).expect("accessed")))
            .collect()
    }

    /// The unique **maximal prefix** of `txn` that locks no entity in
    /// `avoid` (a bitset over the database entity space): obtained by
    /// deleting each `Ly`, `y ∈ avoid`, together with all its successors
    /// (§5, Theorem 4 construction).
    pub fn maximal_avoiding(txn: &Transaction, avoid: &BitSet) -> Self {
        let n = txn.node_count();
        let mut executed = BitSet::from_indices(n, 0..n);
        for &e in txn.entities() {
            if avoid.contains(e.index()) {
                let l = txn.lock_node_of(e).expect("accessed");
                executed.remove(l.index());
                executed.difference_with(txn.descendants(l));
            }
        }
        Self { executed }
    }

    /// The **minimal prefix** algorithm from §5: the smallest prefix of
    /// `txn` that (a) contains every strict predecessor of `target`, and
    /// (b) for each entity `z ∈ closure_entities`, contains `Uz` whenever
    /// it contains `Lz`. Used by the `O(n³)` variant of the pairwise test:
    /// condition (2) of Lemma 2 is violated for `y` iff this prefix avoids
    /// the `target = Ly` node.
    pub fn minimal_closed(txn: &Transaction, target: NodeId, closure_entities: &BitSet) -> Self {
        let n = txn.node_count();
        let mut v = BitSet::new(n);
        // Strict ancestors of target.
        for i in 0..n {
            if txn.precedes(NodeId::from_index(i), target) {
                v.insert(i);
            }
        }
        // Fixpoint: Lz ∈ V ∧ z ∈ closure_entities ⇒ Uz (and its ancestors) ∈ V.
        loop {
            let mut grew = false;
            for &e in txn.entities() {
                if !closure_entities.contains(e.index()) {
                    continue;
                }
                let l = txn.lock_node_of(e).expect("accessed");
                let u = txn.unlock_node_of(e).expect("accessed");
                if v.contains(l.index()) && !v.contains(u.index()) {
                    v.insert(u.index());
                    for i in 0..n {
                        if txn.precedes(NodeId::from_index(i), u) {
                            grew |= v.insert(i) || grew;
                        }
                    }
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        Self { executed: v }
    }
}

/// A prefix of a whole transaction system: one [`Prefix`] per transaction
/// (the paper's `A' = {T'₁, …, T'ₙ}`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SystemPrefix {
    prefixes: Vec<Prefix>,
}

impl SystemPrefix {
    /// The all-empty prefix of a system with the given transactions.
    pub fn empty(txns: &[Transaction]) -> Self {
        Self {
            prefixes: txns.iter().map(Prefix::empty).collect(),
        }
    }

    /// Builds from per-transaction prefixes.
    pub fn new(prefixes: Vec<Prefix>) -> Self {
        Self { prefixes }
    }

    /// The prefix of transaction `t`.
    #[inline]
    pub fn of(&self, t: TxnId) -> &Prefix {
        &self.prefixes[t.index()]
    }

    /// Mutable access for search algorithms.
    #[inline]
    pub fn of_mut(&mut self, t: TxnId) -> &mut Prefix {
        &mut self.prefixes[t.index()]
    }

    /// Number of transactions.
    #[inline]
    pub fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// Whether the system has zero transactions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }

    /// Iterates `(TxnId, &Prefix)`.
    pub fn iter(&self) -> impl Iterator<Item = (TxnId, &Prefix)> {
        self.prefixes
            .iter()
            .enumerate()
            .map(|(i, p)| (TxnId::from_index(i), p))
    }

    /// Whether every transaction has fully executed.
    pub fn is_complete(&self, txns: &[Transaction]) -> bool {
        self.prefixes
            .iter()
            .zip(txns)
            .all(|(p, t)| p.is_complete(t))
    }

    /// Total executed nodes across all transactions.
    pub fn total_len(&self) -> usize {
        self.prefixes.iter().map(Prefix::len).sum()
    }

    /// For each entity, which transaction currently holds its lock.
    /// Multiple holders indicate the prefix combination is not reachable by
    /// any legal schedule (a necessary condition from §3).
    pub fn holders(&self, txns: &[Transaction]) -> Vec<(EntityId, TxnId)> {
        let mut out = Vec::new();
        for (i, (p, t)) in self.prefixes.iter().zip(txns).enumerate() {
            out.extend(p.held_entities(t).map(|e| (e, TxnId::from_index(i))));
        }
        out.sort_unstable();
        out
    }

    /// Whether at most one transaction holds each entity — the simple
    /// necessary condition for the prefix to have a schedule.
    pub fn locks_consistent(&self, txns: &[Transaction]) -> bool {
        let h = self.holders(txns);
        h.windows(2).all(|w| w[0].0 != w[1].0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::op::Op;

    fn db3() -> Database {
        Database::one_entity_per_site(3)
    }

    fn seq_txn(db: &Database, name: &str, order: &[usize]) -> Transaction {
        // Locks all entities in `order`, then unlocks in the same order (2PL).
        let locks: Vec<Op> = order
            .iter()
            .map(|&i| Op::lock(EntityId::from_index(i)))
            .collect();
        let unlocks: Vec<Op> = order
            .iter()
            .map(|&i| Op::unlock(EntityId::from_index(i)))
            .collect();
        let ops: Vec<Op> = locks.into_iter().chain(unlocks).collect();
        Transaction::from_total_order(name, &ops, db).unwrap()
    }

    #[test]
    fn empty_full_ready() {
        let db = db3();
        let t = seq_txn(&db, "T", &[0, 1]);
        let p = Prefix::empty(&t);
        assert!(p.is_empty() && !p.is_complete(&t));
        assert_eq!(p.ready_nodes(&t), vec![NodeId(0)]);
        let f = Prefix::full(&t);
        assert!(f.is_complete(&t));
        assert!(f.ready_nodes(&t).is_empty());
    }

    #[test]
    fn from_nodes_validates_closure() {
        let db = db3();
        let t = seq_txn(&db, "T", &[0, 1]);
        // {n0} ok, {n1} not downward closed (n0 precedes it).
        assert!(Prefix::from_nodes(&t, [NodeId(0)]).is_some());
        assert!(Prefix::from_nodes(&t, [NodeId(1)]).is_none());
        assert!(Prefix::from_nodes(&t, [NodeId(99)]).is_none());
    }

    #[test]
    fn held_and_pending_entities() {
        let db = db3();
        let t = seq_txn(&db, "T", &[0, 1]);
        // Execute L e0, L e1, U e0.
        let p = Prefix::from_nodes(&t, [NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        assert_eq!(p.held_entities(&t).collect::<Vec<_>>(), [EntityId(1)]);
        assert_eq!(p.pending_entities(&t), vec![EntityId(1)]);
    }

    #[test]
    fn maximal_avoiding_removes_lock_and_successors() {
        let db = db3();
        let t = seq_txn(&db, "T", &[0, 1, 2]);
        // Avoid e1: the prefix is everything before L e1 = {L e0}.
        let avoid = BitSet::from_indices(3, [1]);
        let p = Prefix::maximal_avoiding(&t, &avoid);
        assert_eq!(p.iter().collect::<Vec<_>>(), vec![NodeId(0)]);
        // Avoid nothing: complete.
        let none = BitSet::new(3);
        assert!(Prefix::maximal_avoiding(&t, &none).is_complete(&t));
        // Avoid the first entity: empty.
        let first = BitSet::from_indices(3, [0]);
        assert!(Prefix::maximal_avoiding(&t, &first).is_empty());
    }

    #[test]
    fn maximal_avoiding_is_a_prefix() {
        let db = db3();
        let t = seq_txn(&db, "T", &[2, 0, 1]);
        let avoid = BitSet::from_indices(3, [0]);
        let p = Prefix::maximal_avoiding(&t, &avoid);
        // Must be downward closed.
        assert!(Prefix::from_nodes(&t, p.iter()).is_some());
    }

    #[test]
    fn minimal_closed_pulls_in_unlocks() {
        let db = db3();
        // t = L0 L1 U0 U1 L2 U2; target L2; closure entities {0}:
        // ancestors of L2 = {L0, L1, U0, U1}; L0 in ⇒ U0 must be in (already).
        let t = seq_txn(&db, "T", &[0, 1]); // L0 L1 U0 U1
        let mut b = Transaction::builder("T2");
        let l0 = b.lock(EntityId(0));
        let l1 = b.lock(EntityId(1));
        let u0 = b.unlock(EntityId(0));
        let l2 = b.lock(EntityId(2));
        let u1 = b.unlock(EntityId(1));
        let u2 = b.unlock(EntityId(2));
        b.chain(&[l0, l1, u0, l2, u1, u2]);
        let t2 = b.build(&db).unwrap();
        drop(t);
        // Target = u1's lock? Use target L2 node: ancestors = {l0, l1, u0}.
        // closure entities {1}: L1 ∈ V ⇒ U1 ∈ V, whose ancestors add l2.
        let ce = BitSet::from_indices(3, [1]);
        let p = Prefix::minimal_closed(&t2, l2, &ce);
        assert!(p.contains(l0) && p.contains(l1) && p.contains(u0));
        assert!(p.contains(u1), "closure rule must pull U1 in");
        assert!(p.contains(l2), "and L2 as an ancestor of U1");
    }

    #[test]
    fn system_prefix_holders_and_consistency() {
        let db = db3();
        let t1 = seq_txn(&db, "T1", &[0, 1]);
        let t2 = seq_txn(&db, "T2", &[1, 0]);
        let txns = vec![t1, t2];
        let mut sp = SystemPrefix::empty(&txns);
        // T1 locks e0; T2 locks e1: consistent.
        sp.of_mut(TxnId(0)).push(NodeId(0));
        sp.of_mut(TxnId(1)).push(NodeId(0));
        assert_eq!(
            sp.holders(&txns),
            vec![(EntityId(0), TxnId(0)), (EntityId(1), TxnId(1))]
        );
        assert!(sp.locks_consistent(&txns));
        // Now T2 also "locks" e0 (node 1 of T2): inconsistent double-hold.
        sp.of_mut(TxnId(1)).push(NodeId(1));
        assert!(!sp.locks_consistent(&txns));
        assert_eq!(sp.total_len(), 3);
        assert!(!sp.is_complete(&txns));
    }
}
