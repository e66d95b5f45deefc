//! Lockdep regression tests for the engine's `wal_sync` commit path:
//! the committer that fsyncs pushes the log and fsyncs *outside*
//! `wal.group_state`, and waiters park holding only that lock — machine-
//! checked here by the instrumented shim. Only meaningful with
//! `--features lockdep`; without it the validator observes nothing.
#![cfg(feature = "lockdep")]

use ddlf_engine::{AdmissionOptions, Engine, EngineConfig};
use ddlf_model::SystemSpec;

const SPEC: &str = r#"{
  "entities": [ {"name": "x", "site": 0}, {"name": "y", "site": 1} ],
  "transactions": [
    { "name": "T1", "ops": ["L x", "L y", "U y", "U x"] },
    { "name": "T2", "ops": ["L x", "L y", "U y", "U x"] }
  ]
}"#;

/// A contended `wal_sync` run: many committers park on the durable
/// mark's condvar while one pushes and fsyncs. The condvar checker
/// asserts no waiter waits holding a second class; the blocking checker
/// asserts no flush/fsync ever runs under `wal.group_state` (it is
/// deliberately absent from the allowlist); the order graph must show
/// `wal.group_state` as a *leaf* — the syncer sets `syncing` and
/// releases it before touching any other lock.
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
        "the syncer must flush outside wal.group_state: {offenders:?}"
    );
    let bad: Vec<_> = ddlf_lockdep::violations()
        .into_iter()
        .filter(|v| v.classes.iter().any(|c| c.starts_with("wal.")))
        .collect();
    assert!(bad.is_empty(), "wal discipline violations: {bad:#?}");
}
