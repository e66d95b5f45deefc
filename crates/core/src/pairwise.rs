//! **Theorem 3**: the `O(n²)` safety-and-deadlock-freedom test for a pair
//! of distributed transactions, plus the `O(n³)` minimal-prefix algorithm
//! that precedes it in §5 of the paper.
//!
//! Let `R = R(T₁) ∩ R(T₂)` be the common entities. The pair is safe and
//! deadlock-free iff:
//!
//! 1. some `x ∈ R` has `Lx ≺ Ly` in *both* transactions for every other
//!    `y ∈ R` (a common first-locked entity), and
//! 2. for every `y ∈ R, y ≠ x`, both `L_{T₁}(L¹y) ∩ R_{T₂}(L²y)` and
//!    `L_{T₂}(L²y) ∩ R_{T₁}(L¹y)` are nonempty, where `R_T(s) = {z : Lz ≺
//!    s}` and `L_T(s) = {z : s ⪯ Uz ∧ ¬(s ⪯ Lz)}` (the asymmetric
//!    locked-set of §5).
//!
//! Intuitively: (1) forces the two transactions to serialize on a common
//! "entry ticket" `x`, and (2) says every later common entity `y` is
//! *covered* — when either transaction is about to lock `y`, it still
//! holds some entity `z` that the other transaction must lock first, so
//! the conflict graph can never close a cycle through `y`.

use ddlf_model::{BitSet, EntityId, Transaction};

/// Evidence that a pair is safe and deadlock-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairCertificate {
    /// The common entities `R(T₁) ∩ R(T₂)`, sorted.
    pub common: Vec<EntityId>,
    /// The common first-locked entity `x` (condition 1); `None` when the
    /// transactions share no entity (vacuously safe+DF).
    pub first: Option<EntityId>,
    /// For every other common entity `y`: `(y, z₁, z₂)` where
    /// `z₁ ∈ L_{T₁}(L¹y) ∩ R_{T₂}(L²y)` and `z₂ ∈ L_{T₂}(L²y) ∩ R_{T₁}(L¹y)`
    /// (condition 2 witnesses).
    pub coverage: Vec<(EntityId, EntityId, EntityId)>,
}

/// Why a pair is *not* safe-and-deadlock-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PairViolation {
    /// Condition (1) fails: no common entity is locked first in both.
    /// Carries the minimal common-lock entities of each transaction (the
    /// competing "first" candidates).
    NoCommonFirst {
        /// Minimal `R`-locks of `T₁`.
        minimals_t1: Vec<EntityId>,
        /// Minimal `R`-locks of `T₂`.
        minimals_t2: Vec<EntityId>,
    },
    /// Condition (2) fails for entity `y`.
    Uncovered {
        /// The uncovered common entity.
        y: EntityId,
        /// `true` if `L_{T₁}(L¹y) ∩ R_{T₂}(L²y) = ∅` (the `Q₁` side),
        /// `false` if the symmetric `Q₂` side is empty.
        q1_side: bool,
    },
}

impl std::fmt::Display for PairViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PairViolation::NoCommonFirst {
                minimals_t1,
                minimals_t2,
            } => write!(
                f,
                "no common first-locked entity (T1 minimals {minimals_t1:?}, T2 minimals {minimals_t2:?})"
            ),
            PairViolation::Uncovered { y, q1_side } => write!(
                f,
                "common entity {y} is uncovered on the {} side",
                if *q1_side { "Q1" } else { "Q2" }
            ),
        }
    }
}

/// The Theorem 3 test. `O(n²)` for transactions given with their
/// (precomputed) transitive closures.
pub fn pairwise_safe_df(
    t1: &Transaction,
    t2: &Transaction,
) -> Result<PairCertificate, PairViolation> {
    let mut common_set = t1.entity_set().clone();
    common_set.intersect_with(t2.entity_set());
    let common: Vec<EntityId> = common_set.iter().map(EntityId::from_index).collect();

    if common.is_empty() {
        return Ok(PairCertificate {
            common,
            first: None,
            coverage: Vec::new(),
        });
    }

    // Condition (1): find x with Lx ≺ Ly in both transactions for all y.
    let x = find_common_first(t1, t2, &common).ok_or_else(|| PairViolation::NoCommonFirst {
        minimals_t1: minimal_locks(t1, &common),
        minimals_t2: minimal_locks(t2, &common),
    })?;

    // Condition (2): coverage of every other common entity.
    let mut coverage = Vec::with_capacity(common.len() - 1);
    for &y in &common {
        if y == x {
            continue;
        }
        let l1y = t1.lock_node_of(y).expect("common entity");
        let l2y = t2.lock_node_of(y).expect("common entity");
        let q1 = t1.l_set(l1y).first_common(&t2.r_set(l2y));
        let Some(z1) = q1 else {
            return Err(PairViolation::Uncovered { y, q1_side: true });
        };
        let q2 = t2.l_set(l2y).first_common(&t1.r_set(l1y));
        let Some(z2) = q2 else {
            return Err(PairViolation::Uncovered { y, q1_side: false });
        };
        coverage.push((y, EntityId::from_index(z1), EntityId::from_index(z2)));
    }

    Ok(PairCertificate {
        common,
        first: Some(x),
        coverage,
    })
}

/// Finds the entity `x ∈ common` whose lock precedes the locks of all
/// other common entities in both transactions, if one exists. (In a finite
/// partial order a unique minimal element is the minimum, so it suffices
/// to check each candidate.)
fn find_common_first(t1: &Transaction, t2: &Transaction, common: &[EntityId]) -> Option<EntityId> {
    'cand: for &x in common {
        let l1x = t1.lock_node_of(x).expect("common");
        let l2x = t2.lock_node_of(x).expect("common");
        for &y in common {
            if y == x {
                continue;
            }
            let l1y = t1.lock_node_of(y).expect("common");
            let l2y = t2.lock_node_of(y).expect("common");
            if !t1.precedes(l1x, l1y) || !t2.precedes(l2x, l2y) {
                continue 'cand;
            }
        }
        return Some(x);
    }
    None
}

/// The common entities whose lock is not preceded by any other common
/// entity's lock in `t` — the candidates for "first" (used in violation
/// reports).
fn minimal_locks(t: &Transaction, common: &[EntityId]) -> Vec<EntityId> {
    common
        .iter()
        .copied()
        .filter(|&y| {
            let ly = t.lock_node_of(y).expect("common");
            !common
                .iter()
                .any(|&z| z != y && t.precedes(t.lock_node_of(z).expect("common"), ly))
        })
        .collect()
}

/// **Lemma 2** (`[Y2, Theorem 2]`, quoted in §5): the criterion for a
/// pair of *centralized* transactions (total orders). The pair is safe
/// and deadlock-free iff (1) both lock the same common entity first, and
/// (2) for every other common `y`, `Q₁(y) = L_{t₁}(Ly) ∩ R_{t₂}(Ly)` and
/// `Q₂(y)` are nonempty.
///
/// For total orders `L_T`/`R_T` coincide with the classical locked-set /
/// requested-set definitions, so this is literally [`pairwise_safe_df`]
/// restricted to chains — but having it as a separate entry point lets
/// the test-suite verify **Corollary 1**: a distributed pair is safe+DF
/// iff *every* pair of linear extensions satisfies Lemma 2.
///
/// # Panics
/// Panics if either transaction is not a total order.
pub fn lemma2_centralized(
    t1: &Transaction,
    t2: &Transaction,
) -> Result<PairCertificate, PairViolation> {
    for t in [t1, t2] {
        let n = t.node_count();
        let comparable = (0..n).all(|a| {
            (0..n).all(|b| {
                a == b
                    || t.precedes(
                        ddlf_model::NodeId::from_index(a),
                        ddlf_model::NodeId::from_index(b),
                    )
                    || t.precedes(
                        ddlf_model::NodeId::from_index(b),
                        ddlf_model::NodeId::from_index(a),
                    )
            })
        });
        assert!(comparable, "lemma2_centralized requires total orders");
    }
    pairwise_safe_df(t1, t2)
}

/// The `O(n³)` variant that precedes Theorem 3 in §5: condition (2) is
/// decided by computing, for each `y`, the **minimal prefix** of each
/// transaction that contains all predecessors of `Ly` and is closed under
/// "if `Lz` is in, `Uz` is in" for `z ∈ R_{other}(Ly)`; the condition
/// fails iff that prefix avoids `Ly`.
///
/// Kept as an independently-implemented cross-check for Theorem 3 (the
/// two must agree on the overall verdict — the paper notes the per-`y`
/// conditions are *not* equivalent, only their conjunctions are).
pub fn pairwise_safe_df_minimal_prefix(
    t1: &Transaction,
    t2: &Transaction,
) -> Result<(), PairViolation> {
    use ddlf_model::Prefix;

    let mut common_set = t1.entity_set().clone();
    common_set.intersect_with(t2.entity_set());
    let common: Vec<EntityId> = common_set.iter().map(EntityId::from_index).collect();
    if common.is_empty() {
        return Ok(());
    }

    let x = find_common_first(t1, t2, &common).ok_or_else(|| PairViolation::NoCommonFirst {
        minimals_t1: minimal_locks(t1, &common),
        minimals_t2: minimal_locks(t2, &common),
    })?;

    for &y in &common {
        if y == x {
            continue;
        }
        // Q1 side: fix t2 minimal before L²y; violating t1 exists iff the
        // minimal closed prefix of T1 avoids L¹y.
        let l1y = t1.lock_node_of(y).expect("common");
        let l2y = t2.lock_node_of(y).expect("common");
        let r2: BitSet = t2.r_set(l2y);
        let v1 = Prefix::minimal_closed(t1, l1y, &r2);
        if !v1.contains(l1y) {
            return Err(PairViolation::Uncovered { y, q1_side: true });
        }
        let r1: BitSet = t1.r_set(l1y);
        let v2 = Prefix::minimal_closed(t2, l2y, &r1);
        if !v2.contains(l2y) {
            return Err(PairViolation::Uncovered { y, q1_side: false });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddlf_model::{Database, Op};

    fn db(n: usize) -> Database {
        Database::one_entity_per_site(n)
    }

    fn two_phase(dbr: &Database, name: &str, order: &[u32]) -> Transaction {
        // Lock in `order`, unlock in reverse order (strict 2PL).
        let ops: Vec<Op> = order
            .iter()
            .map(|&e| Op::lock(EntityId(e)))
            .chain(order.iter().rev().map(|&e| Op::unlock(EntityId(e))))
            .collect();
        Transaction::from_total_order(name, &ops, dbr).unwrap()
    }

    #[test]
    fn same_order_two_phase_passes() {
        let db = db(3);
        let t1 = two_phase(&db, "T1", &[0, 1, 2]);
        let t2 = two_phase(&db, "T2", &[0, 1, 2]);
        let cert = pairwise_safe_df(&t1, &t2).unwrap();
        assert_eq!(cert.first, Some(EntityId(0)));
        assert_eq!(cert.coverage.len(), 2);
        // x=0 covers both later entities.
        for (_, z1, z2) in &cert.coverage {
            assert_eq!(*z1, EntityId(0));
            assert_eq!(*z2, EntityId(0));
        }
        pairwise_safe_df_minimal_prefix(&t1, &t2).unwrap();
    }

    #[test]
    fn opposite_order_fails_condition_1() {
        let db = db(2);
        let t1 = two_phase(&db, "T1", &[0, 1]);
        let t2 = two_phase(&db, "T2", &[1, 0]);
        let v = pairwise_safe_df(&t1, &t2).unwrap_err();
        match v {
            PairViolation::NoCommonFirst {
                minimals_t1,
                minimals_t2,
            } => {
                assert_eq!(minimals_t1, vec![EntityId(0)]);
                assert_eq!(minimals_t2, vec![EntityId(1)]);
            }
            other => panic!("expected NoCommonFirst, got {other:?}"),
        }
        assert!(pairwise_safe_df_minimal_prefix(&t1, &t2).is_err());
    }

    #[test]
    fn early_unlock_fails_condition_2() {
        // T = Lx Ux Ly Uy in both: x is first in both (cond 1 ok), but at
        // Ly nothing is still held → y uncovered.
        let db = db(2);
        let ops = [
            Op::lock(EntityId(0)),
            Op::unlock(EntityId(0)),
            Op::lock(EntityId(1)),
            Op::unlock(EntityId(1)),
        ];
        let t1 = Transaction::from_total_order("T1", &ops, &db).unwrap();
        let t2 = Transaction::from_total_order("T2", &ops, &db).unwrap();
        let v = pairwise_safe_df(&t1, &t2).unwrap_err();
        assert_eq!(
            v,
            PairViolation::Uncovered {
                y: EntityId(1),
                q1_side: true
            }
        );
        assert!(pairwise_safe_df_minimal_prefix(&t1, &t2).is_err());
    }

    #[test]
    fn disjoint_transactions_vacuously_pass() {
        let db = db(4);
        let t1 = two_phase(&db, "T1", &[0, 1]);
        let t2 = two_phase(&db, "T2", &[2, 3]);
        let cert = pairwise_safe_df(&t1, &t2).unwrap();
        assert_eq!(cert.first, None);
        assert!(cert.common.is_empty());
        pairwise_safe_df_minimal_prefix(&t1, &t2).unwrap();
    }

    #[test]
    fn single_common_entity_passes() {
        let db = db(3);
        let t1 = two_phase(&db, "T1", &[0, 1]);
        let t2 = two_phase(&db, "T2", &[0, 2]);
        let cert = pairwise_safe_df(&t1, &t2).unwrap();
        assert_eq!(cert.first, Some(EntityId(0)));
        assert!(cert.coverage.is_empty());
    }

    #[test]
    fn non_two_phase_but_covered_passes() {
        // T = Lx Ly Ux Lz Uy Uz (x unlocked early, but y still held at Lz).
        let db = db(3);
        let ops = [
            Op::lock(EntityId(0)),
            Op::lock(EntityId(1)),
            Op::unlock(EntityId(0)),
            Op::lock(EntityId(2)),
            Op::unlock(EntityId(1)),
            Op::unlock(EntityId(2)),
        ];
        let t1 = Transaction::from_total_order("T1", &ops, &db).unwrap();
        let t2 = Transaction::from_total_order("T2", &ops, &db).unwrap();
        let cert = pairwise_safe_df(&t1, &t2).unwrap();
        assert_eq!(cert.first, Some(EntityId(0)));
        // y=1 covered by x=0; z=2 covered by y=1.
        let cov: std::collections::HashMap<_, _> =
            cert.coverage.iter().map(|&(y, z1, _)| (y, z1)).collect();
        assert_eq!(cov[&EntityId(1)], EntityId(0));
        assert_eq!(cov[&EntityId(2)], EntityId(1));
        pairwise_safe_df_minimal_prefix(&t1, &t2).unwrap();
    }

    #[test]
    fn distributed_partial_order_pair() {
        // x on site 0 first in both; y, z on other sites, unordered between
        // themselves in T1 but both covered by x (2PL shape: x held to the
        // end).
        let db = db(3);
        let mk = |name: &str| {
            let mut b = Transaction::builder(name);
            let lx = b.lock(EntityId(0));
            let ly = b.lock(EntityId(1));
            let lz = b.lock(EntityId(2));
            let uy = b.unlock(EntityId(1));
            let uz = b.unlock(EntityId(2));
            let ux = b.unlock(EntityId(0));
            b.arc(lx, ly);
            b.arc(lx, lz);
            b.arc(ly, uy);
            b.arc(lz, uz);
            b.arc(uy, ux);
            b.arc(uz, ux);
            b.build(&db).unwrap()
        };
        let t1 = mk("T1");
        let t2 = mk("T2");
        let cert = pairwise_safe_df(&t1, &t2).unwrap();
        assert_eq!(cert.first, Some(EntityId(0)));
        assert_eq!(cert.coverage.len(), 2);
        pairwise_safe_df_minimal_prefix(&t1, &t2).unwrap();
    }

    #[test]
    fn condition1_needs_minimum_not_just_unique_minimal_on_r() {
        // T1 locks 0 then 1; T2 locks 1 then 0 — swap detected even when a
        // third, uncommon entity exists.
        let db = db(3);
        let t1 = two_phase(&db, "T1", &[0, 2, 1]);
        let t2 = two_phase(&db, "T2", &[1, 0]);
        // Common = {0, 1}; T1 locks 0 first, T2 locks 1 first.
        assert!(matches!(
            pairwise_safe_df(&t1, &t2),
            Err(PairViolation::NoCommonFirst { .. })
        ));
    }
}
