//! **k-inflation** of a transaction system: `k_t` syntactic copies of
//! each template, plus the bookkeeping that maps an inflated transaction
//! back to `(template, copy_index)`.
//!
//! Inflation is how multiprogramming becomes a *certified quantity*: the
//! paper's theorems quantify over a fixed system `A`, so to admit `k_t`
//! concurrent instances of template `t` on the no-detector path one
//! certifies the inflated system `A^k` up front (Theorem 4 on its
//! interaction graph, or Theorem 5 / Corollary 3 when `A` is a single
//! template). Any in-flight mix of at most `k_t` instances per template is
//! then a subsystem of `A^k`, and subsystems of safe-and-deadlock-free
//! systems inherit both properties.

use crate::error::ModelError;
use crate::ids::TxnId;
use crate::system::TransactionSystem;
use crate::txn::Transaction;

/// The two-way map between inflated transactions and `(template, copy)`
/// pairs. Copies are laid out template-major: all copies of template 0
/// first, then template 1, and so on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CopyMap {
    /// `back[inflated.index()]` = (template, copy_index).
    back: Vec<(TxnId, usize)>,
    /// `fwd[template.index()]` = inflated ids of its copies, copy order.
    fwd: Vec<Vec<TxnId>>,
}

impl CopyMap {
    /// Number of templates in the base system.
    pub fn template_count(&self) -> usize {
        self.fwd.len()
    }

    /// Number of transactions in the inflated system.
    pub fn inflated_count(&self) -> usize {
        self.back.len()
    }

    /// The `(template, copy_index)` an inflated transaction descends
    /// from, or `None` when `inflated` is out of range.
    pub fn source_of(&self, inflated: TxnId) -> Option<(TxnId, usize)> {
        self.back.get(inflated.index()).copied()
    }

    /// The inflated id of copy `copy` of `template`, or `None` when
    /// either index is out of range.
    pub fn copy_of(&self, template: TxnId, copy: usize) -> Option<TxnId> {
        self.fwd.get(template.index())?.get(copy).copied()
    }

    /// All inflated ids of `template`'s copies, in copy order.
    ///
    /// # Panics
    /// Panics when `template` is out of range.
    pub fn copies_of(&self, template: TxnId) -> &[TxnId] {
        &self.fwd[template.index()]
    }

    /// The full inflation vector, template order.
    pub fn k(&self) -> Vec<usize> {
        self.fwd.iter().map(Vec::len).collect()
    }
}

/// An inflated system: the copied [`TransactionSystem`] plus its
/// [`CopyMap`]. Produced by [`TransactionSystem::inflate`].
#[derive(Debug, Clone)]
pub struct InflatedSystem {
    sys: TransactionSystem,
    map: CopyMap,
}

impl InflatedSystem {
    /// The inflated transaction system (`Σ k_t` transactions).
    pub fn system(&self) -> &TransactionSystem {
        &self.sys
    }

    /// The copy bookkeeping.
    pub fn map(&self) -> &CopyMap {
        &self.map
    }
}

impl TransactionSystem {
    /// Builds the **k-inflation** of this system: `k[t]` copies of each
    /// template `t`, named `name#copy`, over the same database. The
    /// copies share their template's syntax (partial order and entity
    /// set), so certifying the inflated system certifies every mix of at
    /// most `k[t]` concurrent instances per template.
    ///
    /// Errors with [`ModelError::InflationArity`] when `k` does not have
    /// one entry per template and [`ModelError::ZeroInflation`] when some
    /// `k[t]` is zero (an admitted template needs at least one slot; drop
    /// the template from the system instead of inflating it away).
    pub fn inflate(&self, k: &[usize]) -> Result<InflatedSystem, ModelError> {
        if k.len() != self.len() {
            return Err(ModelError::InflationArity {
                expected: self.len(),
                got: k.len(),
            });
        }
        if let Some(t) = k.iter().position(|&kt| kt == 0) {
            return Err(ModelError::ZeroInflation {
                template: TxnId::from_index(t),
            });
        }
        let mut txns: Vec<Transaction> = Vec::with_capacity(k.iter().sum());
        let mut back = Vec::with_capacity(txns.capacity());
        let mut fwd = Vec::with_capacity(self.len());
        for (t, template) in self.iter() {
            let copies = (0..k[t.index()])
                .map(|copy| {
                    back.push((t, copy));
                    txns.push(
                        template
                            .clone()
                            .with_name(format!("{}#{copy}", template.name())),
                    );
                    TxnId::from_index(txns.len() - 1)
                })
                .collect();
            fwd.push(copies);
        }
        let sys = Self::new(self.db().clone(), txns)?;
        Ok(InflatedSystem {
            sys,
            map: CopyMap { back, fwd },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::ids::EntityId;
    use crate::op::Op;

    fn sys2() -> TransactionSystem {
        let db = Database::one_entity_per_site(3);
        let t = |name: &str, order: &[u32]| {
            let ops: Vec<Op> = order
                .iter()
                .map(|&e| Op::lock(EntityId(e)))
                .chain(order.iter().rev().map(|&e| Op::unlock(EntityId(e))))
                .collect();
            Transaction::from_total_order(name, &ops, &db).unwrap()
        };
        TransactionSystem::new(db.clone(), vec![t("A", &[0, 1]), t("B", &[1, 2])]).unwrap()
    }

    #[test]
    fn inflate_shapes_and_names() {
        let base = sys2();
        let inflated = base.inflate(&[2, 3]).unwrap();
        assert_eq!(inflated.system().len(), 5);
        assert_eq!(inflated.map().k(), vec![2, 3]);
        assert_eq!(inflated.system().txn(TxnId(0)).name(), "A#0");
        assert_eq!(inflated.system().txn(TxnId(1)).name(), "A#1");
        assert_eq!(inflated.system().txn(TxnId(4)).name(), "B#2");
        // Same database, same syntax per copy.
        assert_eq!(inflated.system().db().entity_count(), 3);
        for g in 0..5 {
            let (t, _) = inflated.map().source_of(TxnId(g)).unwrap();
            assert_eq!(
                inflated.system().txn(TxnId(g)).entities(),
                base.txn(t).entities()
            );
        }
    }

    #[test]
    fn copy_map_round_trips() {
        let inflated = sys2().inflate(&[2, 3]).unwrap();
        let map = inflated.map();
        for g in 0..map.inflated_count() {
            let (t, c) = map.source_of(TxnId::from_index(g)).unwrap();
            assert_eq!(map.copy_of(t, c), Some(TxnId::from_index(g)));
        }
        assert_eq!(map.copies_of(TxnId(1)).len(), 3);
        assert_eq!(map.source_of(TxnId(99)), None);
        assert_eq!(map.copy_of(TxnId(0), 2), None);
    }

    #[test]
    fn inflate_rejects_bad_arity_and_zero() {
        let base = sys2();
        assert_eq!(
            base.inflate(&[1]).unwrap_err(),
            ModelError::InflationArity {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(
            base.inflate(&[1, 0]).unwrap_err(),
            ModelError::ZeroInflation { template: TxnId(1) }
        );
    }

    #[test]
    fn uniform_one_is_the_identity_modulo_names() {
        let base = sys2();
        let inflated = base.inflate(&[1, 1]).unwrap();
        assert_eq!(inflated.system().len(), base.len());
        assert_eq!(inflated.system().txn(TxnId(0)).name(), "A#0");
        assert_eq!(inflated.map().source_of(TxnId(1)), Some((TxnId(1), 0)));
    }
}
