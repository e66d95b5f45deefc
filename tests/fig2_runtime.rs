//! Figure 2 at runtime: the four-entity deadlock that two-entity
//! detectors cannot predict actually bites the simulated database — and,
//! because the Fig. 2 transactions are *not two-phase*, dynamic deadlock
//! policies rescue liveness but **cannot rescue safety**: some committed
//! histories are non-serializable. This is the operational argument for
//! the paper's joint safety-and-deadlock-freedom certification.

use ddlf::core::is_two_phase;
use ddlf::model::TxnId;
use ddlf::sim::{run, DeadlockPolicy, SimConfig};
use ddlf::workloads::fig2;

#[test]
fn fig2_is_not_two_phase_and_not_certified() {
    let (sys, _) = fig2();
    assert!(!is_two_phase(sys.txn(TxnId(0))));
    assert!(ddlf::core::certify_safe_and_deadlock_free(
        &sys,
        ddlf::core::CertifyOptions::default()
    )
    .is_err());
}

#[test]
fn fig2_deadlocks_under_nothing_policy() {
    let (sys, _) = fig2();
    let mut stalls = 0;
    for seed in 0..60 {
        let r = run(
            &sys,
            SimConfig {
                policy: DeadlockPolicy::Nothing,
                seed,
                ..Default::default()
            },
        );
        if !r.stalled.is_empty() {
            stalls += 1;
            // When it deadlocks, both transactions are stuck.
            assert_eq!(r.stalled.len(), 2);
        } else {
            assert!(r.all_committed(2));
        }
    }
    assert!(
        stalls > 0,
        "some timing must drive Fig. 2 into its 4-entity deadlock"
    );
}

/// Policies restore liveness (everything commits) but NOT safety: the
/// un-safe interleavings that certification would have prevented do
/// occur and are caught by the D(S) audit.
#[test]
fn fig2_policies_restore_liveness_but_not_safety() {
    let (sys, _) = fig2();
    let mut nonserializable_total = 0;
    for policy in [
        DeadlockPolicy::Detect { period_us: 1_000 },
        DeadlockPolicy::WoundWait,
        DeadlockPolicy::WaitDie,
    ] {
        for seed in 0..30 {
            let r = run(
                &sys,
                SimConfig {
                    policy,
                    seed,
                    ..Default::default()
                },
            );
            assert!(r.all_committed(2), "{policy:?} seed {seed}: {r:?}");
            if r.serializable == Some(false) {
                nonserializable_total += 1;
            }
        }
    }
    // Whether a given policy's restarts happen to serialize is timing
    // luck; across policies and seeds, the un-safety of the non-2PL
    // Fig. 2 pair must show — deadlock policies are not safety policies.
    assert!(
        nonserializable_total > 0,
        "no non-serializable committed history in 90 runs of an unsafe pair"
    );
}

#[test]
fn fig2_threaded_runtime_commits() {
    let (sys, _) = fig2();
    let r = ddlf::engine::run_system(
        &sys,
        ddlf::engine::EngineConfig {
            threads: 2,
            instances: 2,
            work: std::time::Duration::from_micros(200),
            ..Default::default()
        },
    );
    assert_eq!(r.committed, 2, "{r:?}");
    // Serializability is NOT guaranteed for this non-2PL pair; the audit
    // result is recorded either way.
    assert!(r.serializable.is_some());
}
