//! Referee of the unification: the engine has one attempt stepper and
//! one wait-die rule, driven by the threaded executor and by the
//! cooperative schedule replayer. On random small systems of every lock
//! discipline both drivers must drain: every deadlock witness the
//! explorer finds replays to completion, and the same system run on
//! threads under forced wait-die commits everything with clean aborts
//! only. Both histories are audited: wait-die restores liveness, not
//! safety, so the verdict must be `Some(true)` exactly where two-phase
//! locking guarantees it and a verdict (`Some(_)`) everywhere.

use ddlf::core::is_two_phase;
use ddlf::engine::{replay_schedule, Engine, EngineConfig};
use ddlf::model::{explore, AnomalyKind, ExploreConfig};
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

    #[test]
    fn replayer_and_threads_both_drain_under_the_one_wait_die_rule(
        seed in 0u64..10_000,
        d in 2usize..5,
        n_e in 2usize..4,
        per_txn in 2usize..4,
        disc in arb_discipline(),
    ) {
        let sys = SystemGen {
            n_sites: n_e,
            entities_per_site: 1,
            n_txns: d,
            entities_per_txn: per_txn.min(n_e),
            discipline: disc,
            seed,
        }
        .generate();
        let audited = |verdict: Option<bool>| match verdict {
            Some(ok) => ok || !sys.txns().iter().all(is_two_phase),
            None => false,
        };

        // Driver one: the cooperative replayer, from every stuck state
        // the explorer reaches (bounded, not necessarily exhaustive).
        let out = explore(&sys, &ExploreConfig {
            max_counterexamples: 12,
            max_steps: 200_000,
            ..ExploreConfig::default()
        });
        for ce in out.counterexamples.iter().filter(|ce| ce.kind == AnomalyKind::Deadlock) {
            let rep = replay_schedule(&sys, &ce.steps);
            let rep = rep.unwrap_or_else(|e| panic!("{:?} does not replay: {e}", ce.steps));
            prop_assert_eq!(rep.committed, d, "{:?}", ce.steps);
            prop_assert!(rep.aborts >= 1, "a deadlock needs a death: {:?}", ce.steps);
            prop_assert!(audited(rep.serializable), "{:?}: {:?}", ce.steps, rep.serializable);
        }

        // Driver two: one thread per transaction, wait-die forced even
        // where the system certifies, a little work per lock so the
        // instances really overlap.
        let report = Engine::new(sys.clone(), EngineConfig {
            threads: d,
            instances: 3 * d,
            force_fallback: true,
            work: std::time::Duration::from_micros(20),
            seed,
            ..EngineConfig::default()
        })
        .run();
        prop_assert!(report.all_committed(), "{report:?}");
        prop_assert_eq!(report.dirty_aborts, 0);
        prop_assert!(audited(report.serializable), "{:?}", report.serializable);
    }
}
