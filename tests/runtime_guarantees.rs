//! Runtime/theory contract: certified systems run deadlock-free with no
//! runtime machinery; every policy preserves serializability of committed
//! histories; the threaded runtime (the engine) honours the same contract.

use ddlf::core::{certify_safe_and_deadlock_free, CertifyOptions};
use ddlf::engine::{run_system, EngineConfig};
use ddlf::sim::{run, DeadlockPolicy, SimConfig};
use ddlf::workloads::{LockDiscipline, SystemGen};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The `payoff` ledger row's headline, on random systems:
    /// certification ⇒ the `Nothing` policy always commits,
    /// with zero aborts, and the history is serializable.
    #[test]
    fn certified_systems_never_deadlock_at_runtime(
        seed in 0u64..5_000,
        sim_seed in 0u64..64,
        d in 2usize..5,
        n_e in 2usize..4,
        disc in prop_oneof![
            Just(LockDiscipline::OrderedTwoPhase),
            Just(LockDiscipline::RandomTwoPhase),
            Just(LockDiscipline::RandomLegal),
        ],
    ) {
        let sys = SystemGen {
            n_sites: n_e,
            entities_per_site: 1,
            n_txns: d,
            entities_per_txn: n_e,
            discipline: disc,
            seed,
        }
        .generate();
        if certify_safe_and_deadlock_free(&sys, CertifyOptions::default()).is_err() {
            return Ok(());
        }
        let r = run(
            &sys,
            SimConfig {
                policy: DeadlockPolicy::Nothing,
                seed: sim_seed,
                ..Default::default()
            },
        );
        prop_assert!(r.all_committed(d), "certified system stalled: {r:?}");
        prop_assert_eq!(r.aborted_attempts, 0);
        prop_assert_eq!(r.serializable, Some(true));
    }

    /// Dynamic policies always deliver serializable committed histories
    /// (2PL at the sites guarantees it; the audit confirms the engine).
    #[test]
    fn policies_preserve_serializability(
        seed in 0u64..5_000,
        sim_seed in 0u64..16,
        policy_idx in 0usize..3,
    ) {
        let policy = [
            DeadlockPolicy::Detect { period_us: 2_000 },
            DeadlockPolicy::WoundWait,
            DeadlockPolicy::WaitDie,
        ][policy_idx];
        let sys = SystemGen {
            n_sites: 3,
            entities_per_site: 1,
            n_txns: 3,
            entities_per_txn: 3,
            discipline: LockDiscipline::RandomTwoPhase,
            seed,
        }
        .generate();
        let r = run(
            &sys,
            SimConfig {
                policy,
                seed: sim_seed,
                ..Default::default()
            },
        );
        if r.all_committed(3) {
            prop_assert_eq!(r.serializable, Some(true), "{:?}", r);
        }
    }
}

/// Deterministic sweep of the same contract at larger scale. Random-2PL
/// systems rarely certify (they need globally compatible lock orders), so
/// the sweep mixes in ordered-2PL systems that always do.
#[test]
fn certified_sweep_under_nothing_policy() {
    let mut checked = 0;
    for disc in [
        LockDiscipline::RandomTwoPhase,
        LockDiscipline::OrderedTwoPhase,
    ] {
        for seed in 0..30u64 {
            let sys = SystemGen {
                n_sites: 4,
                entities_per_site: 1,
                n_txns: 4,
                entities_per_txn: 3,
                discipline: disc,
                seed,
            }
            .generate();
            if certify_safe_and_deadlock_free(&sys, CertifyOptions::default()).is_err() {
                continue;
            }
            checked += 1;
            for sim_seed in 0..5 {
                let r = run(
                    &sys,
                    SimConfig {
                        policy: DeadlockPolicy::Nothing,
                        seed: sim_seed,
                        ..Default::default()
                    },
                );
                assert!(r.all_committed(4), "seed {seed}/{sim_seed}: {r:?}");
                assert_eq!(r.serializable, Some(true));
            }
        }
    }
    assert!(
        checked > 25,
        "sweep found too few certified systems ({checked})"
    );
}

/// Uncertified systems must actually exhibit the predicted failure under
/// some timing: for pairwise-rejected 2PL pairs the rejection is a
/// deadlock risk, and the detector policy repairs it.
#[test]
fn uncertified_systems_hit_deadlocks_and_detector_repairs() {
    let mut rejected = 0;
    let mut deadlocked_any = 0;
    for seed in 0..40u64 {
        let sys = SystemGen {
            n_sites: 3,
            entities_per_site: 1,
            n_txns: 3,
            entities_per_txn: 3,
            discipline: LockDiscipline::RandomTwoPhase,
            seed: 0xBAD + seed,
        }
        .generate();
        if certify_safe_and_deadlock_free(&sys, CertifyOptions::default()).is_ok() {
            continue;
        }
        rejected += 1;
        let mut stalled = false;
        for sim_seed in 0..10 {
            let r = run(
                &sys,
                SimConfig {
                    policy: DeadlockPolicy::Nothing,
                    seed: sim_seed,
                    ..Default::default()
                },
            );
            if !r.stalled.is_empty() {
                stalled = true;
                // Detector fixes the same timing.
                let r2 = run(
                    &sys,
                    SimConfig {
                        policy: DeadlockPolicy::Detect { period_us: 2_000 },
                        seed: sim_seed,
                        ..Default::default()
                    },
                );
                assert!(
                    r2.all_committed(sys.len()),
                    "detector failed to repair seed {seed}/{sim_seed}: {r2:?}"
                );
                break;
            }
        }
        deadlocked_any += stalled as usize;
    }
    assert!(
        rejected >= 5,
        "sweep needs rejected systems, got {rejected}"
    );
    // 2PL rejections are precisely deadlock risks; most manifest within
    // 10 timings.
    assert!(
        deadlocked_any * 2 >= rejected,
        "too few rejected systems deadlocked: {deadlocked_any}/{rejected}"
    );
}

/// The threaded runtime — the engine, one instance per transaction on
/// its own worker — commits and audits serializable on a certified
/// workload and on a deadlock-prone one (random 2PL) alike.
#[test]
fn threaded_runtime_contract() {
    for (discipline, seed) in [
        (LockDiscipline::OrderedTwoPhase, 5),
        (LockDiscipline::RandomTwoPhase, 17),
    ] {
        let sys = SystemGen {
            n_sites: 3,
            entities_per_site: 1,
            n_txns: 4,
            entities_per_txn: 3,
            discipline,
            seed,
        }
        .generate();
        let r = run_system(
            &sys,
            EngineConfig {
                threads: 4,
                instances: 4,
                work: std::time::Duration::from_micros(200),
                ..Default::default()
            },
        );
        assert_eq!(r.committed, 4, "{discipline:?}: {r:?}");
        assert_eq!(r.serializable, Some(true), "{discipline:?}: {r:?}");
    }
}
