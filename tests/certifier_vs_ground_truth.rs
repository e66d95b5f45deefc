//! The central soundness/completeness property: the polynomial certifier
//! (Theorems 3 and 4) agrees exactly with the exhaustive Lemma 1 ground
//! truth, and a certificate really implies both safety and
//! deadlock-freedom separately.

mod ledger;

use ddlf::core::{certify_safe_and_deadlock_free, CertifyOptions, Explorer, Verdict};
use ddlf::model::{explore, ExploreConfig};
use ddlf::workloads::{LockDiscipline, SystemGen};
use proptest::prelude::*;

fn arb_discipline() -> impl Strategy<Value = LockDiscipline> {
    prop_oneof![
        Just(LockDiscipline::RandomLegal),
        Just(LockDiscipline::RandomTwoPhase),
        Just(LockDiscipline::LockUnlockShaped),
        Just(LockDiscipline::OrderedTwoPhase),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// certify == Lemma 1 exhaustive search, exactly. Four or five
    /// transactions are the only place an interaction-graph cycle has a
    /// non-neighbour; there each locks 2 of 4–5 entities, which keeps the
    /// exhaustive search inside its budget.
    #[test]
    fn certifier_matches_lemma1_ground_truth(
        seed in 0u64..10_000,
        d in 2usize..6,
        n_e in 2usize..4,
        disc in arb_discipline(),
    ) {
        let (n_e, entities_per_txn) = if d >= 4 { (n_e + 2, 2) } else { (n_e, n_e) };
        let sys = SystemGen {
            n_sites: n_e,
            entities_per_site: 1,
            n_txns: d,
            entities_per_txn,
            discipline: disc,
            seed,
        }
        .generate();
        let certified =
            certify_safe_and_deadlock_free(&sys, CertifyOptions::default()).is_ok();
        let ground = Explorer::new(&sys, 5_000_000).find_conflict_cycle().0;
        prop_assert!(!matches!(ground, Verdict::Inconclusive { .. }), "budget too small");
        prop_assert_eq!(
            certified,
            ground.holds(),
            "certifier disagrees with Lemma 1 ground truth"
        );
    }

    /// A certificate implies deadlock-freedom AND safety individually.
    #[test]
    fn certificate_implies_both_properties(
        seed in 0u64..10_000,
        d in 2usize..4,
        disc in arb_discipline(),
    ) {
        let sys = SystemGen {
            n_sites: 3,
            entities_per_site: 1,
            n_txns: d,
            entities_per_txn: 3,
            discipline: disc,
            seed,
        }
        .generate();
        if certify_safe_and_deadlock_free(&sys, CertifyOptions::default()).is_ok() {
            let ex = Explorer::new(&sys, 5_000_000);
            prop_assert!(ex.find_deadlock().0.holds(), "certified system deadlocked");
            prop_assert!(
                ex.find_unserializable().0.holds(),
                "certified system has a non-serializable schedule"
            );
        }
    }

    /// The two prunings of the one search core agree: the memoised-state
    /// search (`Explorer`) and the sleep-set search (`explore`) share a
    /// stepper but not a visited rule, so on systems small enough to
    /// exhaust (the ≤ 3 × ≤ 3 envelope of `explore_dpor.rs`) they must
    /// give the same answers to "is a deadlock reachable" and "does a
    /// non-serializable complete schedule exist" — which also guards the
    /// stepper both stand on.
    #[test]
    fn memoised_and_sleep_set_searches_agree(
        seed in 0u64..10_000,
        d in 2usize..4,
        n_e in 2usize..4,
        disc in arb_discipline(),
    ) {
        let sys = SystemGen {
            n_sites: n_e,
            entities_per_site: 1,
            n_txns: d,
            // Three transactions on all three entities outgrow the step
            // budget; two entities each keeps every case exhaustible.
            entities_per_txn: if d == 3 { 2 } else { n_e },
            discipline: disc,
            seed,
        }
        .generate();
        let cfg = ExploreConfig {
            max_steps: 5_000_000,
            max_counterexamples: usize::MAX,
            ..ExploreConfig::default()
        };
        let sleep = explore(&sys, &cfg);
        prop_assert!(sleep.exhausted, "sleep-set search must exhaust the space");
        let memo = Explorer::new(&sys, 5_000_000);
        let (deadlock, unsafe_) = (memo.find_deadlock().0, memo.find_unserializable().0);
        prop_assert!(
            !matches!(deadlock, Verdict::Inconclusive { .. })
                && !matches!(unsafe_, Verdict::Inconclusive { .. }),
            "memoised search must exhaust the space"
        );
        prop_assert_eq!(deadlock.violated(), sleep.stats.deadlocks > 0, "{:?}", sleep.stats);
        prop_assert_eq!(unsafe_.violated(), sleep.stats.cyclic_schedules > 0, "{:?}", sleep.stats);
    }

    /// Ordered two-phase locking (global lock order, hold till end) is
    /// always certified — the classic prevention discipline is a special
    /// case of the paper's condition.
    #[test]
    fn ordered_two_phase_always_certifies(
        seed in 0u64..10_000,
        d in 2usize..5,
        n_e in 2usize..5,
    ) {
        let sys = SystemGen {
            n_sites: n_e,
            entities_per_site: 1,
            n_txns: d,
            entities_per_txn: n_e,
            discipline: LockDiscipline::OrderedTwoPhase,
            seed,
        }
        .generate();
        prop_assert!(
            certify_safe_and_deadlock_free(&sys, CertifyOptions::default()).is_ok()
        );
    }

    /// Theorem 3's violation witnesses point at real phenomena: when the
    /// pairwise test rejects, the ground truth must find a cyclic-D
    /// partial schedule.
    #[test]
    fn pairwise_rejections_are_sound(
        seed in 0u64..10_000,
        disc in arb_discipline(),
    ) {
        let sys = SystemGen {
            n_sites: 3,
            entities_per_site: 1,
            n_txns: 2,
            entities_per_txn: 3,
            discipline: disc,
            seed,
        }
        .generate();
        use ddlf::model::TxnId;
        if ddlf::core::pairwise_safe_df(sys.txn(TxnId(0)), sys.txn(TxnId(1))).is_err() {
            let ground = Explorer::new(&sys, 5_000_000).find_conflict_cycle().0;
            prop_assert!(ground.violated(), "rejection without a real violation");
        }
    }

    /// The two pairwise implementations (O(n²) Theorem 3 and O(n³)
    /// minimal-prefix) agree on the overall verdict.
    #[test]
    fn pairwise_variants_agree(
        seed in 0u64..10_000,
        n_e in 2usize..5,
        disc in arb_discipline(),
    ) {
        let sys = SystemGen {
            n_sites: n_e,
            entities_per_site: 1,
            n_txns: 2,
            entities_per_txn: n_e,
            discipline: disc,
            seed,
        }
        .generate();
        use ddlf::model::TxnId;
        let (t1, t2) = (sys.txn(TxnId(0)), sys.txn(TxnId(1)));
        prop_assert_eq!(
            ddlf::core::pairwise_safe_df(t1, t2).is_ok(),
            ddlf::core::pairwise_safe_df_minimal_prefix(t1, t2).is_ok()
        );
    }
}

/// Theorem 5 as a deterministic sweep: for identical copies, the d-copy
/// Theorem 4 verdict equals the 2-copy Corollary 3 verdict for d up to 5.
#[test]
fn theorem5_copies_sweep() {
    ledger::check(&["thm5.sweep"]);
}

/// `hub(n)`'s Theorem 4 counters, which `harness/` pins for n = 9.
#[test]
fn hub_counters_are_pinned() {
    ledger::check(&["thm4.hub9", "thm4.hub10"]);
}
