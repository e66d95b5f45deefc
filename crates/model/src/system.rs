//! Transaction systems and their interaction graphs.

use crate::bitset::BitSet;
use crate::database::Database;
use crate::error::ModelError;
use crate::graph::UnGraph;
use crate::ids::{GlobalNode, NodeId, TxnId};
use crate::txn::Transaction;
use std::sync::Arc;

/// A finite set of locked transactions over one database — the paper's
/// `A = {T₁, …, Tₙ}`.
#[derive(Debug, Clone)]
pub struct TransactionSystem {
    db: Database,
    /// Shared, not owned: an auditor over the system's templates holds
    /// a clone of this `Arc` instead of a copy of every transaction.
    txns: Arc<[Transaction]>,
    /// `offsets[i]` = number of nodes in transactions before `i`; used for
    /// dense global node numbering.
    offsets: Vec<usize>,
}

impl TransactionSystem {
    /// Assembles a system. The transactions must have been built against
    /// `db` (entity ranges are re-checked).
    pub fn new(db: Database, txns: Vec<Transaction>) -> Result<Self, ModelError> {
        for t in &txns {
            for &e in t.entities() {
                db.check_entity(e)?;
            }
        }
        let mut offsets = Vec::with_capacity(txns.len());
        let mut acc = 0usize;
        for t in &txns {
            offsets.push(acc);
            acc += t.node_count();
        }
        Ok(Self {
            db,
            txns: txns.into(),
            offsets,
        })
    }

    /// The database schema.
    #[inline]
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Number of transactions.
    #[inline]
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// Whether the system has no transactions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// The transactions, in id order.
    #[inline]
    pub fn txns(&self) -> &[Transaction] {
        &self.txns
    }

    /// The transactions as a shared slice: a refcount bump, not a copy.
    #[inline]
    pub fn shared_txns(&self) -> Arc<[Transaction]> {
        Arc::clone(&self.txns)
    }

    /// A single transaction.
    ///
    /// # Panics
    /// Panics if `t` is out of range.
    #[inline]
    pub fn txn(&self, t: TxnId) -> &Transaction {
        &self.txns[t.index()]
    }

    /// Iterates `(TxnId, &Transaction)`.
    pub fn iter(&self) -> impl Iterator<Item = (TxnId, &Transaction)> {
        self.txns
            .iter()
            .enumerate()
            .map(|(i, t)| (TxnId::from_index(i), t))
    }

    /// Validates a transaction id.
    pub fn check_txn(&self, t: TxnId) -> Result<(), ModelError> {
        if t.index() < self.txns.len() {
            Ok(())
        } else {
            Err(ModelError::UnknownTxn(t))
        }
    }

    /// Total number of operation nodes across all transactions.
    pub fn total_nodes(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0)
            + self.txns.last().map_or(0, Transaction::node_count)
    }

    /// Dense index of a global node in `0..total_nodes()`.
    #[inline]
    pub fn global_index(&self, g: GlobalNode) -> usize {
        self.offsets[g.txn.index()] + g.node.index()
    }

    /// Inverse of [`TransactionSystem::global_index`].
    pub fn from_global_index(&self, idx: usize) -> GlobalNode {
        let t = match self.offsets.binary_search(&idx) {
            Ok(i) => {
                // Several empty transactions may share an offset; take the
                // last one that actually contains the node.
                let mut i = i;
                while i + 1 < self.offsets.len() && self.offsets[i + 1] == idx {
                    i += 1;
                }
                i
            }
            Err(i) => i - 1,
        };
        GlobalNode::new(
            TxnId::from_index(t),
            NodeId::from_index(idx - self.offsets[t]),
        )
    }

    /// `R(Tᵢ) ∩ R(Tⱼ)`: the common entities of two transactions.
    pub fn common_entities(&self, i: TxnId, j: TxnId) -> BitSet {
        let mut s = self.txn(i).entity_set().clone();
        s.intersect_with(self.txn(j).entity_set());
        s
    }

    /// The **interaction graph** `G(A)` (§5): vertices are transactions,
    /// with an edge between any two that share an entity.
    pub fn interaction_graph(&self) -> UnGraph {
        let n = self.txns.len();
        let mut g = UnGraph::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                if !self.txns[i]
                    .entity_set()
                    .is_disjoint(self.txns[j].entity_set())
                {
                    g.add_edge(i, j);
                }
            }
        }
        g
    }

    /// Builds a system of `d` copies of one transaction (for the
    /// Corollary 3 / Theorem 5 analyses). Copies share the syntax and are
    /// named `name#k`.
    pub fn copies(db: Database, t: &Transaction, d: usize) -> Result<Self, ModelError> {
        let txns = (0..d)
            .map(|k| t.clone().with_name(format!("{}#{k}", t.name())))
            .collect();
        Self::new(db, txns)
    }

    /// The entities accessed by at least one transaction.
    pub fn used_entities(&self) -> BitSet {
        let mut s = BitSet::new(self.db.entity_count());
        for t in self.txns.iter() {
            s.union_with(t.entity_set());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::EntityId;
    use crate::op::Op;

    fn db() -> Database {
        Database::one_entity_per_site(3)
    }

    fn t(dbr: &Database, name: &str, order: &[u32]) -> Transaction {
        let ops: Vec<Op> = order
            .iter()
            .map(|&i| Op::lock(EntityId(i)))
            .chain(order.iter().map(|&i| Op::unlock(EntityId(i))))
            .collect();
        Transaction::from_total_order(name, &ops, dbr).unwrap()
    }

    #[test]
    fn interaction_graph_edges() {
        let db = db();
        let sys = TransactionSystem::new(
            db.clone(),
            vec![
                t(&db, "A", &[0, 1]),
                t(&db, "B", &[1, 2]),
                t(&db, "C", &[2]),
            ],
        )
        .unwrap();
        let g = sys.interaction_graph();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn common_entities() {
        let db = db();
        let sys =
            TransactionSystem::new(db.clone(), vec![t(&db, "A", &[0, 1]), t(&db, "B", &[1, 2])])
                .unwrap();
        let c = sys.common_entities(TxnId(0), TxnId(1));
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn global_index_roundtrip() {
        let db = db();
        let sys = TransactionSystem::new(db.clone(), vec![t(&db, "A", &[0]), t(&db, "B", &[1, 2])])
            .unwrap();
        assert_eq!(sys.total_nodes(), 2 + 4);
        for t_idx in 0..sys.len() {
            let txn = sys.txn(TxnId::from_index(t_idx));
            for n in txn.nodes() {
                let g = GlobalNode::new(TxnId::from_index(t_idx), n);
                assert_eq!(sys.from_global_index(sys.global_index(g)), g);
            }
        }
    }

    #[test]
    fn copies_share_syntax() {
        let db = db();
        let base = t(&db, "T", &[0, 1]);
        let sys = TransactionSystem::copies(db, &base, 3).unwrap();
        assert_eq!(sys.len(), 3);
        for (_, txn) in sys.iter() {
            assert_eq!(txn.entities(), base.entities());
            assert_eq!(txn.node_count(), base.node_count());
        }
        assert_eq!(sys.txn(TxnId(2)).name(), "T#2");
        // Identical copies all interact.
        assert_eq!(sys.interaction_graph().edge_count(), 3);
    }

    #[test]
    fn used_entities_union() {
        let db = db();
        let sys =
            TransactionSystem::new(db.clone(), vec![t(&db, "A", &[0]), t(&db, "B", &[2])]).unwrap();
        assert_eq!(sys.used_entities().iter().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn check_txn_bounds() {
        let db = db();
        let sys = TransactionSystem::new(db.clone(), vec![t(&db, "A", &[0])]).unwrap();
        assert!(sys.check_txn(TxnId(0)).is_ok());
        assert_eq!(
            sys.check_txn(TxnId(1)),
            Err(ModelError::UnknownTxn(TxnId(1)))
        );
    }
}
