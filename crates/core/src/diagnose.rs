//! Diagnosis of safe+DF violations: Lemma 1's dichotomy, made executable.
//!
//! Lemma 1's "only if" direction observes that a partial schedule with a
//! cyclic conflict digraph condemns the system in one of exactly two
//! ways: either it extends to a complete schedule — which is then
//! non-serializable (**unsafe**) — or it cannot be completed — so the
//! system is **not deadlock-free**. This module classifies a violation
//! witness accordingly, telling an operator *which* disease their
//! workload has.

use crate::reduction::complete_schedule;
use ddlf_model::{Schedule, TransactionSystem};

/// Which of Lemma 1's two diseases a cyclic-`D` partial schedule proves.
#[derive(Debug, Clone)]
pub enum ViolationKind {
    /// The witness extends to a complete, legal, non-serializable
    /// schedule: the system is **unsafe**.
    Unserializable {
        /// The completed non-serializable schedule.
        complete: Schedule,
    },
    /// The witness cannot be completed: some continuation deadlocks, so
    /// the system is **not deadlock-free**.
    Doomed {
        /// The uncompletable partial schedule.
        partial: Schedule,
    },
}

/// Classifies a partial schedule whose conflict digraph is cyclic.
///
/// Returns `None` when the schedule is illegal, its conflict digraph is
/// acyclic (nothing to diagnose), or the completion search exhausted
/// `budget` without an answer.
pub fn classify_violation(
    sys: &TransactionSystem,
    witness: &Schedule,
    budget: usize,
) -> Option<ViolationKind> {
    let v = witness.validate(sys).ok()?;
    let cg = witness.conflict_digraph(sys, &v);
    if cg.is_acyclic() {
        return None;
    }
    match complete_schedule(sys, witness, budget) {
        Some(complete) => {
            debug_assert_eq!(complete.is_serializable(sys), Ok(false));
            Some(ViolationKind::Unserializable { complete })
        }
        None => Some(ViolationKind::Doomed {
            partial: witness.clone(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;
    use ddlf_model::{Database, EntityId, Op, Transaction};

    fn pair(a: &[Op], b: &[Op]) -> TransactionSystem {
        let db = Database::one_entity_per_site(2);
        let t1 = Transaction::from_total_order("T1", a, &db).unwrap();
        let t2 = Transaction::from_total_order("T2", b, &db).unwrap();
        TransactionSystem::new(db, vec![t1, t2]).unwrap()
    }

    #[test]
    fn deadlock_witness_classified_as_doomed() {
        let (x, y) = (EntityId(0), EntityId(1));
        let sys = pair(
            &[Op::lock(x), Op::lock(y), Op::unlock(x), Op::unlock(y)],
            &[Op::lock(y), Op::lock(x), Op::unlock(y), Op::unlock(x)],
        );
        let w = Explorer::new(&sys, 1_000_000)
            .find_conflict_cycle()
            .0
            .counterexample()
            .expect("violation")
            .clone();
        match classify_violation(&sys, &w, 1_000_000).expect("classified") {
            ViolationKind::Doomed { partial } => {
                assert!(!partial.validate(&sys).unwrap().complete);
            }
            other => panic!("expected Doomed, got {other:?}"),
        }
    }

    #[test]
    fn unsafe_witness_classified_as_unserializable() {
        // Sequential (non-2PL) pairs: no deadlock possible, but unsafe.
        let (x, y) = (EntityId(0), EntityId(1));
        let ops = [Op::lock(x), Op::unlock(x), Op::lock(y), Op::unlock(y)];
        let sys = pair(&ops, &ops);
        let w = Explorer::new(&sys, 1_000_000)
            .find_conflict_cycle()
            .0
            .counterexample()
            .expect("violation")
            .clone();
        match classify_violation(&sys, &w, 1_000_000).expect("classified") {
            ViolationKind::Unserializable { complete } => {
                assert!(!complete.is_serializable(&sys).unwrap());
                assert!(complete.validate(&sys).unwrap().complete);
            }
            other => panic!("expected Unserializable, got {other:?}"),
        }
    }

    #[test]
    fn acyclic_witness_yields_none() {
        let (x, y) = (EntityId(0), EntityId(1));
        let ops = [Op::lock(x), Op::lock(y), Op::unlock(y), Op::unlock(x)];
        let sys = pair(&ops, &ops);
        let empty = Schedule::new();
        assert!(classify_violation(&sys, &empty, 1_000_000).is_none());
    }

    #[test]
    fn theorem4_witnesses_are_classifiable() {
        // Every normal-form cycle witness from Theorem 4 diagnoses as one
        // of the two diseases.
        use crate::many::{many_safe_df, ManyOptions, ManyViolation};
        use ddlf_workloads_shim::ring_system;

        mod ddlf_workloads_shim {
            use ddlf_model::{Database, EntityId, Op, Transaction, TransactionSystem};
            pub fn ring_system(d: usize) -> TransactionSystem {
                let db = Database::one_entity_per_site(d);
                let txns = (0..d)
                    .map(|i| {
                        let a = EntityId(i as u32);
                        let b = EntityId(((i + 1) % d) as u32);
                        Transaction::from_total_order(
                            format!("T{i}"),
                            &[Op::lock(a), Op::lock(b), Op::unlock(b), Op::unlock(a)],
                            &db,
                        )
                        .unwrap()
                    })
                    .collect();
                TransactionSystem::new(db, txns).unwrap()
            }
        }

        let sys = ring_system(3);
        match many_safe_df(&sys, ManyOptions::default()).unwrap_err() {
            ManyViolation::Cycle(w) => {
                let kind = classify_violation(&sys, &w.schedule, 5_000_000).expect("classifiable");
                // 2PL ring: safe but deadlock-prone → Doomed.
                assert!(
                    matches!(kind, ViolationKind::Doomed { .. }),
                    "2PL ring should diagnose as Doomed"
                );
            }
            other => panic!("expected cycle, got {other:?}"),
        }
    }
}
