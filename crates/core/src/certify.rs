//! One-call certification of safety-and-deadlock-freedom, dispatching to
//! the cheapest applicable algorithm from the paper.
//!
//! * 0 or 1 transactions: trivially safe and deadlock-free;
//! * 2 transactions: Theorem 3 (`O(n²)`);
//! * ≥ 3 transactions: Theorem 4 (polynomial in interaction-graph
//!   cycles — `O(n²)` for any fixed number of transactions).
//!
//! A `Certificate` means **every** schedule of the system is serializable
//! and every partial schedule can be completed — the static guarantee the
//! engine (and the simulator) exploit by switching off all deadlock
//! handling for certified workloads.

use crate::many::{many_safe_df, CycleWitness, ManyOptions, ManyViolation};
use crate::pairwise::{pairwise_safe_df, PairCertificate, PairViolation};
use ddlf_model::{TransactionSystem, TxnId};

/// Options for certification.
#[derive(Debug, Clone, Copy, Default)]
pub struct CertifyOptions {
    /// Passed through to Theorem 4 for ≥ 3 transactions.
    pub many: ManyOptions,
}

/// Evidence that the system is safe and deadlock-free.
#[derive(Debug, Clone)]
pub enum Certificate {
    /// Fewer than two transactions: nothing to interleave with.
    Trivial,
    /// Two transactions: the Theorem 3 certificate.
    Pairwise(PairCertificate),
    /// Three or more transactions: the Theorem 4 certificate.
    Many(crate::many::ManyCertificate),
}

/// Evidence that the system is *not* safe-and-deadlock-free (or could not
/// be certified within budget).
#[derive(Debug, Clone)]
pub enum Violation {
    /// A pair of transactions fails Theorem 3.
    Pair {
        /// First transaction of the failing pair.
        i: TxnId,
        /// Second transaction of the failing pair.
        j: TxnId,
        /// The pairwise violation.
        violation: PairViolation,
    },
    /// A Theorem 4 normal-form witness: a legal partial schedule whose
    /// conflict digraph is cyclic.
    Cycle(Box<CycleWitness>),
    /// The interaction graph had more cycles than the configured budget.
    CycleBudget {
        /// The exhausted limit.
        limit: usize,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Pair { i, j, violation } => {
                write!(f, "pair ({i}, {j}) fails Theorem 3: {violation}")
            }
            Violation::Cycle(w) => write!(
                f,
                "normal-form cycle through {:?} yields a partial schedule with a cyclic conflict digraph",
                w.cycle
            ),
            Violation::CycleBudget { limit } => {
                write!(f, "interaction graph exceeded the cycle budget of {limit}")
            }
        }
    }
}

/// Certifies that every schedule of `sys` is serializable and every
/// partial schedule completable (§5 of the paper).
pub fn certify_safe_and_deadlock_free(
    sys: &TransactionSystem,
    opts: CertifyOptions,
) -> Result<Certificate, Violation> {
    match sys.len() {
        0 | 1 => Ok(Certificate::Trivial),
        2 => match pairwise_safe_df(sys.txn(TxnId(0)), sys.txn(TxnId(1))) {
            Ok(cert) => Ok(Certificate::Pairwise(cert)),
            Err(violation) => Err(Violation::Pair {
                i: TxnId(0),
                j: TxnId(1),
                violation,
            }),
        },
        _ => match many_safe_df(sys, opts.many) {
            Ok(cert) => Ok(Certificate::Many(cert)),
            Err(ManyViolation::Pair { i, j, violation }) => {
                Err(Violation::Pair { i, j, violation })
            }
            Err(ManyViolation::Cycle(w)) => Err(Violation::Cycle(w)),
            Err(ManyViolation::CycleBudget { limit }) => Err(Violation::CycleBudget { limit }),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;
    use ddlf_model::{Database, EntityId, Op, Transaction};

    fn two_phase(db: &Database, name: &str, order: &[u32]) -> Transaction {
        let ops: Vec<Op> = order
            .iter()
            .map(|&e| Op::lock(EntityId(e)))
            .chain(order.iter().rev().map(|&e| Op::unlock(EntityId(e))))
            .collect();
        Transaction::from_total_order(name, &ops, db).unwrap()
    }

    #[test]
    fn trivial_for_one_transaction() {
        let db = Database::one_entity_per_site(1);
        let t = two_phase(&db, "T", &[0]);
        let sys = TransactionSystem::new(db, vec![t]).unwrap();
        assert!(matches!(
            certify_safe_and_deadlock_free(&sys, CertifyOptions::default()),
            Ok(Certificate::Trivial)
        ));
    }

    #[test]
    fn pairwise_dispatch() {
        let db = Database::one_entity_per_site(2);
        let t1 = two_phase(&db, "T1", &[0, 1]);
        let t2 = two_phase(&db, "T2", &[0, 1]);
        let sys = TransactionSystem::new(db, vec![t1, t2]).unwrap();
        assert!(matches!(
            certify_safe_and_deadlock_free(&sys, CertifyOptions::default()),
            Ok(Certificate::Pairwise(_))
        ));
    }

    #[test]
    fn many_dispatch_and_violation_display() {
        let db = Database::one_entity_per_site(3);
        let t0 = two_phase(&db, "T0", &[0, 1]);
        let t1 = two_phase(&db, "T1", &[1, 2]);
        let t2 = two_phase(&db, "T2", &[2, 0]);
        let sys = TransactionSystem::new(db, vec![t0, t1, t2]).unwrap();
        let v = certify_safe_and_deadlock_free(&sys, CertifyOptions::default()).unwrap_err();
        assert!(v.to_string().contains("normal-form cycle"));
    }

    /// The load-bearing cross-validation: on random small systems the
    /// certifier must agree exactly with the Lemma 1 exhaustive ground
    /// truth.
    #[test]
    fn agrees_with_ground_truth_on_random_systems() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(7);
        let mut certified = 0;
        let mut violated = 0;
        for trial in 0..80 {
            let n_entities = rng.gen_range(2..4usize);
            let d = rng.gen_range(2..4usize);
            let sys = crate::testgen::random_legal_system(&mut rng, d, n_entities, n_entities);
            let cert = certify_safe_and_deadlock_free(&sys, CertifyOptions::default());
            let ex = Explorer::new(&sys, 3_000_000);
            let (ground, _) = ex.find_conflict_cycle();
            match (&cert, &ground) {
                (Ok(_), v) => {
                    assert!(
                        v.holds(),
                        "trial {trial}: certified but ground truth violated"
                    );
                    certified += 1;
                }
                (Err(_), v) => {
                    assert!(
                        v.violated(),
                        "trial {trial}: certifier rejected but ground truth holds"
                    );
                    violated += 1;
                }
            }
        }
        assert!(certified > 0, "sample should contain certifiable systems");
        assert!(violated > 0, "sample should contain violations");
    }
}
