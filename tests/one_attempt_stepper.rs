//! Referee of the unification: the engine has one attempt stepper and
//! one wait-die rule, driven by the threaded executor and by the
//! cooperative schedule replayer. On random small systems of every lock
//! discipline both drivers must drain: every deadlock witness the
//! explorer finds replays to completion, and the same system run on
//! threads under forced wait-die commits everything with clean aborts
//! only. Both histories are audited: wait-die restores liveness, not
//! safety, so the verdict must be `Some(true)` exactly where two-phase
//! locking guarantees it and a verdict (`Some(_)`) everywhere.
//!
//! The stepper names an instance by one id, its engine-lifetime gid; the
//! last two cases referee that: gids never repeat across runs (WAL or
//! not), and wait-die keeps killing the younger gid once earlier runs
//! have moved the id space off zero.

use ddlf::core::is_two_phase;
use ddlf::engine::{replay_schedule, Engine, EngineConfig, Telemetry, TelemetryConfig};
use ddlf::model::{
    explore, AnomalyKind, Database, EntityId, ExploreConfig, Op, Transaction, TransactionSystem,
    TxnId,
};
use ddlf::workloads::{bank_ordered_pair, LockDiscipline, SystemGen};
use proptest::prelude::*;

/// The gid of every `kind` span in the trace ring, ring order.
fn span_gids(tel: &Telemetry, kind: &str) -> Vec<u32> {
    let kind = format!("\"kind\":\"{kind}\"");
    tel.dump_trace_jsonl()
        .lines()
        .filter(|l| l.contains(&kind))
        .map(|l| {
            let gid = l.split("\"gid\":").nth(1).expect("span has a gid");
            gid.split(',').next().unwrap().parse().unwrap()
        })
        .collect()
}

fn traced(trace_sample: u32) -> Telemetry {
    Telemetry::new(TelemetryConfig { trace_sample })
}

#[test]
fn gids_never_repeat_across_runs_of_an_engine_without_a_wal() {
    let telemetry = traced(2);
    let engine = Engine::new(
        bank_ordered_pair().1,
        EngineConfig {
            telemetry: telemetry.clone(),
            ..EngineConfig::default()
        },
    );
    // Four single-instance runs: gids 0, 1, 2, 3, of which a 1-in-2
    // sample traces 0 and 2. Run-local ids would make every one of them
    // instance 0 — all four traced, under one gid.
    for run in 0..4 {
        assert!(engine.run_mix(&[(TxnId(0), 1)]).all_committed());
        let traced_so_far = span_gids(&telemetry, "commit").len();
        assert_eq!(traced_so_far, run / 2 + 1, "after run {run}");
    }
    assert_eq!(span_gids(&telemetry, "commit"), [0, 2]);
    assert_eq!(span_gids(&telemetry, "admit"), [0, 2]);
}

#[test]
fn wait_die_kills_the_younger_gid_after_earlier_runs_moved_the_id_space() {
    let db = Database::one_entity_per_site(2);
    let (x, y) = (EntityId(0), EntityId(1));
    let t1 = [Op::lock(x), Op::lock(y), Op::unlock(x), Op::unlock(y)];
    let t2 = [Op::lock(y), Op::lock(x), Op::unlock(y), Op::unlock(x)];
    let txns = vec![
        Transaction::from_total_order("T1", &t1, &db).unwrap(),
        Transaction::from_total_order("T2", &t2, &db).unwrap(),
    ];
    let telemetry = traced(1);
    let engine = Engine::new(
        TransactionSystem::new(db, txns).unwrap(),
        EngineConfig {
            threads: 2,
            work: std::time::Duration::from_millis(2),
            telemetry: telemetry.clone(),
            ..EngineConfig::default()
        },
    );
    assert!(!engine.registry().verdict().is_certified());
    // Uncontended runs first (nothing refused, nothing dies — what a
    // certified run looks like): gids 0..3 are spent.
    for _ in 0..3 {
        let quiet = engine.run_mix(&[(TxnId(0), 1)]);
        assert!(quiet.all_committed() && quiet.aborted_attempts == 0);
    }
    // Then the opposite-order pair, head to head. T1 is interleaved
    // first, so it is the older gid of its round: it may wait for T2,
    // never die; every death is the younger T2's.
    let mut deaths = 0;
    for round in 0..8u32 {
        let older = 3 + 2 * round;
        let report = engine.run_mix(&[(TxnId(0), 1), (TxnId(1), 1)]);
        assert!(report.all_committed(), "{report:?}");
        assert_eq!(report.serializable, Some(true));
        let died = span_gids(&telemetry, "abort");
        assert!(
            died[deaths..].iter().all(|&g| g == older + 1),
            "round {round}: gid {older} is the older one, deaths {:?}",
            &died[deaths..]
        );
        assert_eq!(died.len() - deaths, report.aborted_attempts);
        deaths = died.len();
    }
    assert!(deaths >= 1, "the pair never collided in eight rounds");
    let mut committed = span_gids(&telemetry, "commit");
    committed.sort_unstable();
    assert_eq!(committed, (0..19).collect::<Vec<u32>>());
}

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
        prop_assert!(audited(report.serializable), "{:?}", report.serializable);
    }
}
