//! **Corollary 3 / Theorem 5**: systems made of identical copies of one
//! transaction.
//!
//! Corollary 3: two copies of a distributed transaction `T` are safe and
//! deadlock-free iff
//!
//! 1. some entity `x` has `Lx` preceding **all other nodes** of `T`, and
//! 2. for every other entity `y` there is an entity `z` locked before `Ly`
//!    and unlocked after `Ly`.
//!
//! Theorem 5 lifts this to any number of copies: `d` copies are safe and
//! deadlock-free iff two copies are (the Theorem 4 cycle construction
//! collapses, because the first prefix must avoid every entity).
//!
//! The paper warns that the analogous lift is **false** for
//! deadlock-freedom alone (Fig. 6: three copies can deadlock while two
//! cannot); see the `ddlf-workloads` figure constructions and the paper
//! ledger's `thm5` and `fig6` rows.

use ddlf_model::{EntityId, Transaction};

/// Evidence that any number of copies of the transaction form a safe and
/// deadlock-free system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CopiesCertificate {
    /// The entity whose lock precedes every other node.
    pub first: EntityId,
    /// For every other accessed entity `y`: a covering entity `z` with
    /// `Lz ≺ Ly ≺ Uz`.
    pub coverage: Vec<(EntityId, EntityId)>,
}

/// Why copies of the transaction are not safe-and-deadlock-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CopiesViolation {
    /// No entity's lock precedes all other nodes of the transaction.
    NoFirstLock,
    /// Entity `y` has no cover `z` with `Lz ≺ Ly ≺ Uz`.
    Uncovered {
        /// The uncovered entity.
        y: EntityId,
    },
}

impl std::fmt::Display for CopiesViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CopiesViolation::NoFirstLock => {
                write!(f, "no lock precedes all other nodes of the transaction")
            }
            CopiesViolation::Uncovered { y } => {
                write!(f, "entity {y} has no cover held across its lock")
            }
        }
    }
}

/// The Corollary 3 test (= Theorem 5 for any `d ≥ 2`). `O(n²)` with the
/// precomputed closure.
pub fn copies_safe_df(t: &Transaction) -> Result<CopiesCertificate, CopiesViolation> {
    let n = t.node_count();
    if t.entities().is_empty() {
        // A transaction touching nothing conflicts with nothing.
        return Ok(CopiesCertificate {
            first: EntityId(u32::MAX),
            coverage: Vec::new(),
        });
    }

    // Condition 1: Lx precedes all n-1 other nodes ⇔ |descendants(Lx)| = n-1.
    let first = t
        .entities()
        .iter()
        .copied()
        .find(|&e| {
            let l = t.lock_node_of(e).expect("accessed");
            t.descendants(l).len() == n - 1
        })
        .ok_or(CopiesViolation::NoFirstLock)?;

    // Condition 2: each other y is covered by some z: Lz ≺ Ly ≺ Uz.
    let mut coverage = Vec::new();
    for &y in t.entities() {
        if y == first {
            continue;
        }
        let ly = t.lock_node_of(y).expect("accessed");
        let z = t
            .entities()
            .iter()
            .copied()
            .find(|&z| {
                if z == y {
                    return false;
                }
                let lz = t.lock_node_of(z).expect("accessed");
                let uz = t.unlock_node_of(z).expect("accessed");
                t.precedes(lz, ly) && t.precedes(ly, uz)
            })
            .ok_or(CopiesViolation::Uncovered { y })?;
        coverage.push((y, z));
    }

    Ok(CopiesCertificate { first, coverage })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddlf_model::{Database, Op};

    #[test]
    fn strict_two_phase_copies_pass() {
        // Lx Ly Lz Uz Uy Ux: x first, everything covered by x.
        let db = Database::one_entity_per_site(3);
        let ops = [
            Op::lock(EntityId(0)),
            Op::lock(EntityId(1)),
            Op::lock(EntityId(2)),
            Op::unlock(EntityId(2)),
            Op::unlock(EntityId(1)),
            Op::unlock(EntityId(0)),
        ];
        let t = Transaction::from_total_order("T", &ops, &db).unwrap();
        let cert = copies_safe_df(&t).unwrap();
        assert_eq!(cert.first, EntityId(0));
        assert_eq!(cert.coverage.len(), 2);
    }

    #[test]
    fn early_unlock_uncovered() {
        // Lx Ux Ly Uy: x first but y uncovered.
        let db = Database::one_entity_per_site(2);
        let ops = [
            Op::lock(EntityId(0)),
            Op::unlock(EntityId(0)),
            Op::lock(EntityId(1)),
            Op::unlock(EntityId(1)),
        ];
        let t = Transaction::from_total_order("T", &ops, &db).unwrap();
        assert_eq!(
            copies_safe_df(&t).unwrap_err(),
            CopiesViolation::Uncovered { y: EntityId(1) }
        );
    }

    #[test]
    fn parallel_start_has_no_first_lock() {
        // Lx ∥ Ly (different sites, no cross arcs): no lock precedes all.
        let db = Database::one_entity_per_site(2);
        let mut b = Transaction::builder("T");
        b.lock_unlock(EntityId(0));
        b.lock_unlock(EntityId(1));
        let t = b.build(&db).unwrap();
        assert_eq!(
            copies_safe_df(&t).unwrap_err(),
            CopiesViolation::NoFirstLock
        );
    }

    #[test]
    fn first_lock_must_precede_all_nodes_not_just_locks() {
        // Lx Ly Uy Ux but with Uy ∥ Ux? Construct: Lx → Ly → Uy, Lx → Ux,
        // where Ux is unordered wrt Ly/Uy. Lx still precedes all nodes.
        let db = Database::one_entity_per_site(2);
        let mut b = Transaction::builder("T");
        let lx = b.lock(EntityId(0));
        let ly = b.lock(EntityId(1));
        let uy = b.unlock(EntityId(1));
        let ux = b.unlock(EntityId(0));
        b.arc(lx, ly);
        b.arc(ly, uy);
        b.arc(lx, ux);
        b.arc(ly, ux); // cover: x unlocked after Ly
        let t = b.build(&db).unwrap();
        let cert = copies_safe_df(&t).unwrap();
        assert_eq!(cert.first, EntityId(0));
        assert_eq!(cert.coverage, vec![(EntityId(1), EntityId(0))]);
    }

    #[test]
    fn agrees_with_pairwise_on_self_pair() {
        // Corollary 3 is Theorem 3 specialized to T1 = T2 = T: the two
        // implementations must agree.
        let db = Database::one_entity_per_site(3);
        let candidates: Vec<Vec<Op>> = vec![
            // strict 2PL
            vec![
                Op::lock(EntityId(0)),
                Op::lock(EntityId(1)),
                Op::unlock(EntityId(1)),
                Op::unlock(EntityId(0)),
            ],
            // early unlock
            vec![
                Op::lock(EntityId(0)),
                Op::unlock(EntityId(0)),
                Op::lock(EntityId(1)),
                Op::unlock(EntityId(1)),
            ],
            // chained covers
            vec![
                Op::lock(EntityId(0)),
                Op::lock(EntityId(1)),
                Op::unlock(EntityId(0)),
                Op::lock(EntityId(2)),
                Op::unlock(EntityId(1)),
                Op::unlock(EntityId(2)),
            ],
        ];
        for ops in candidates {
            let t = Transaction::from_total_order("T", &ops, &db).unwrap();
            let a = copies_safe_df(&t).is_ok();
            let b = crate::pairwise::pairwise_safe_df(&t, &t).is_ok();
            assert_eq!(a, b, "mismatch on {t}");
        }
    }

    #[test]
    fn empty_transaction_trivially_passes() {
        let db = Database::one_entity_per_site(1);
        let t = Transaction::builder("T").build(&db).unwrap();
        assert!(copies_safe_df(&t).is_ok());
    }
}
