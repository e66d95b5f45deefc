//! Lockdep regression tests for the engine's run path: the `wal_sync`
//! committer that fsyncs pushes the log and fsyncs *outside*
//! `wal.group_state`, and waiters park holding only that lock; an
//! unlock appends its events to the log holding no lock; and a
//! one-chunk run takes an exact number of locks, however many templates
//! are registered — machine-checked here
//! by the instrumented shim. Only meaningful with `--features lockdep`;
//! without it the validator observes nothing.
#![cfg(feature = "lockdep")]

use ddlf_engine::{AdmissionOptions, Engine, EngineConfig};
use ddlf_model::{SystemSpec, TxnId};
use std::path::PathBuf;

const SPEC: &str = r#"{
  "entities": [ {"name": "x", "site": 0}, {"name": "y", "site": 1} ],
  "transactions": [
    { "name": "T1", "ops": ["L x", "L y", "U y", "U x"] },
    { "name": "T2", "ops": ["L x", "L y", "U y", "U x"] }
  ]
}"#;

/// A contended `wal_sync` run: many committers park on the durable
/// mark's condvar while up to two push and fsync, one per fsync slot,
/// their fsyncs overlapping. The condvar checker asserts no waiter
/// waits holding a second class; the blocking checker asserts no
/// flush/fsync ever runs under `wal.group_state` (it is deliberately
/// absent from the allowlist); the order graph must show
/// `wal.group_state` as a *leaf* — a committer takes its slot and
/// releases it before touching any other lock, and records its slot's
/// `upto` only after releasing `wal.log`.
#[test]
fn group_commit_park_and_flush_hold_no_extra_locks() {
    let sys = serde_json::from_str::<SystemSpec>(SPEC)
        .unwrap()
        .build()
        .unwrap();
    let dir = std::env::temp_dir().join(format!("ddlf-lockdep-group-{}", std::process::id()));
    let engine = Engine::try_with_admission(
        sys,
        AdmissionOptions::default(),
        EngineConfig {
            threads: 4,
            instances: 200,
            wal_dir: Some(dir.clone()),
            wal_sync: true,
            ..Default::default()
        },
    )
    .unwrap();
    let report = engine.run();
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(report.committed, 200, "workload must actually commit");

    let classes = ddlf_lockdep::classes();
    assert!(
        classes.iter().any(|c| c == "wal.group_state"),
        "the durable mark must have run under the validator; saw {classes:?}"
    );
    // Leaf property: the durable mark's lock orders *after* nothing —
    // acquiring any other class while holding it would record an edge.
    let offenders: Vec<_> = ddlf_lockdep::edges()
        .into_iter()
        .filter(|(from, _)| from == "wal.group_state")
        .collect();
    assert!(
        offenders.is_empty(),
        "a sync committer must flush outside wal.group_state: {offenders:?}"
    );
    let bad: Vec<_> = ddlf_lockdep::violations()
        .into_iter()
        .filter(|v| v.classes.iter().any(|c| c.starts_with("wal.")))
        .collect();
    assert!(bad.is_empty(), "wal discipline violations: {bad:#?}");
}

fn engine(threads: usize, wal_dir: Option<PathBuf>) -> Engine {
    let sys = serde_json::from_str::<SystemSpec>(SPEC)
        .unwrap()
        .build()
        .unwrap();
    Engine::try_with_admission(
        sys,
        AdmissionOptions::default(),
        EngineConfig {
            threads,
            wal_dir,
            ..Default::default()
        },
    )
    .unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ddlf-lockdep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An unlock appends its release batch's `Event` frames while its
/// entity is held in the lock table, which is no mutex: after two
/// concurrent WAL'd runs, the only order edge into `wal.log` is the
/// write-ahead append under `shard.state`, and no audit lock exists.
#[test]
fn an_event_append_holds_no_lock() {
    let dir = temp_dir("events");
    let engine = engine(2, Some(dir.clone()));
    std::thread::scope(|s| {
        let runs = [0, 1].map(|_| s.spawn(|| engine.run_mix(&engine.uniform_mix(64))));
        for run in runs {
            let report = run.join().unwrap();
            assert_eq!(report.committed, 64);
            assert_eq!(report.serializable, Some(true));
        }
    });
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    let mut into_log: Vec<String> = ddlf_lockdep::edges()
        .into_iter()
        .filter(|(_, to)| to == "wal.log")
        .map(|(from, _)| from)
        .collect();
    into_log.dedup();
    assert_eq!(into_log, ["shard.state"]);
    let classes = ddlf_lockdep::classes();
    assert!(
        !classes.iter().any(|c| c.starts_with("engine.a")),
        "an audit lock is back: {classes:?}"
    );
}

/// `n` disjoint two-entity templates ("L a, L b, U b, U a") spread over
/// 8 sites: every template is certified and conflicts with no other.
fn disjoint_spec(n: usize) -> String {
    let entities: Vec<String> = (0..2 * n)
        .map(|e| format!(r#"{{"name": "e{e}", "site": {}}}"#, e % 8))
        .collect();
    let txns: Vec<String> = (0..n)
        .map(|t| {
            let (a, b) = (2 * t, 2 * t + 1);
            format!(r#"{{"name": "T{t}", "ops": ["L e{a}", "L e{b}", "U e{b}", "U e{a}"]}}"#)
        })
        .collect();
    format!(
        r#"{{"entities": [{}], "transactions": [{}]}}"#,
        entities.join(", "),
        txns.join(", ")
    )
}

/// A one-chunk run (what every count=1 Submit is) runs on its caller's
/// thread, so every lock it takes is counted there. The count is exact:
/// a lock added to (or dropped from) the one-instance path shows here.
/// The debug-build oracle takes no lock, so debug and release builds
/// count the same. A run touches only its own templates' gates, so the
/// count does not grow with the registered templates: a 16-template
/// system counts the same.
/// With a (non-sync) WAL the run also appends its `Begin`, `Write`,
/// `Event` and `Commit` frames and pushes the log at its end.
#[test]
fn a_one_chunk_run_takes_an_exact_number_of_locks() {
    let dir = temp_dir("one-chunk");
    let wide = || {
        let sys = serde_json::from_str::<SystemSpec>(&disjoint_spec(16))
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(sys.txns().len(), 16);
        Engine::new(sys, EngineConfig::default())
    };
    let cases = [
        (engine(2, None), 10),
        (engine(2, Some(dir.clone())), 17),
        (wide(), 10),
    ];
    for (engine, expected) in cases {
        let templates = engine.registry().len();
        let before = ddlf_lockdep::thread_acquire_count();
        let report = engine.run_mix(&[(TxnId::from_index(0), 1)]);
        let taken = ddlf_lockdep::thread_acquire_count() - before;
        assert_eq!(report.committed, 1);
        assert_eq!(report.serializable, Some(true));
        assert_eq!(
            taken,
            expected,
            "wal: {}, templates: {templates}",
            engine.wal().is_some()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
