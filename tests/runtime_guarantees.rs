//! Runtime/theory contract on random systems: certified systems run
//! deadlock-free with no runtime machinery, and every policy preserves
//! serializability of committed histories. The fixed instances — the
//! seeded sweeps and the engine's threaded runs — are the paper
//! ledger's golden lines (`payoff.sweep.*`, `engine.ordered_2pl.*`,
//! `engine.random_2pl.*`, checked by `tests/paper_ledger.rs`).

use ddlf::core::{certify_safe_and_deadlock_free, CertifyOptions};
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
