//! Lockdep certification of the read-only transaction path. The claim:
//! a snapshot read takes **leaf locks only, one at a time** — the
//! `store.clock` registry mutex to register and unregister its cut, and
//! one brief `shard.state` acquisition per entity read; no lock-table
//! entry, nothing nested. With a WAL the read may also push the log,
//! taking `wal.log` alone after its scan — but only while a commit
//! decision is still in the log's buffer, which at quiescence none is.
//! The instrumented shim makes that checkable:
//! it counts every acquisition per thread
//! ([`ddlf_lockdep::thread_acquire_count`]) and records an order edge
//! whenever a lock is taken while another is held
//! ([`ddlf_lockdep::edges`]). Only meaningful with `--features
//! lockdep`; without it the shim observes nothing.
#![cfg(feature = "lockdep")]

use ddlf_engine::{AdmissionOptions, Engine, EngineConfig};
use ddlf_model::{EntityId, SystemSpec};
use std::path::PathBuf;

const SPEC: &str = r#"{
  "entities": [ {"name": "x", "site": 0}, {"name": "y", "site": 1} ],
  "transactions": [
    { "name": "T1", "ops": ["L x", "L y", "U y", "U x"] },
    { "name": "T2", "ops": ["L x", "L y", "U y", "U x"] }
  ]
}"#;

fn counter_engine(instances: usize, wal_dir: Option<PathBuf>) -> Engine {
    let sys = serde_json::from_str::<SystemSpec>(SPEC)
        .unwrap()
        .build()
        .unwrap();
    Engine::try_with_admission(
        sys,
        AdmissionOptions::default(),
        EngineConfig {
            threads: 4,
            instances,
            wal_dir,
            ..Default::default()
        },
    )
    .unwrap()
}

/// After contended writer runs populated the chains — one engine
/// in memory, one with a (non-sync) WAL — a storm of read-only
/// transactions on this thread acquires exactly the locks the protocol
/// names — two `store.clock` acquisitions per scan plus one
/// `shard.state` per entity, and no `wal.log`: the WAL'd run's end
/// flush already pushed every decision — and never one inside another:
/// the class order graph gains no edge, and `store.clock` appears in
/// none at all. Both engines run before the storm starts, so their
/// writers' edges are all in the baseline.
#[test]
fn read_only_path_takes_leaf_locks_one_at_a_time() {
    let dir = std::env::temp_dir().join(format!("ddlf-lockdep-ro-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engines = [
        counter_engine(150, None),
        counter_engine(150, Some(dir.clone())),
    ];
    for engine in &engines {
        assert_eq!(engine.run().committed, 150);
    }

    let edges_before = ddlf_lockdep::edges();
    for engine in &engines {
        let entities: Vec<EntityId> = engine.store().db().entities().collect();
        let before = ddlf_lockdep::thread_acquire_count();
        let (mut last_ts, mut expected) = (0, 0u64);
        for round in 0..1_000 {
            // Alternate full scans with subsets so both shapes are covered.
            let scanned = if round % 2 == 0 {
                &entities[..]
            } else {
                &entities[..1]
            };
            let snap = engine.run_read_only(scanned);
            assert!(snap.ts >= last_ts);
            last_ts = snap.ts;
            assert_eq!(snap.entries.len(), scanned.len());
            expected += 2 + scanned.len() as u64;
        }
        assert_eq!(
            ddlf_lockdep::thread_acquire_count() - before,
            expected,
            "a read-only transaction acquired a lock the protocol does not name"
        );
    }

    let edges = ddlf_lockdep::edges();
    assert_eq!(edges, edges_before, "a snapshot read nested two locks");
    let clock_edges: Vec<_> = edges
        .iter()
        .filter(|(from, to)| from == "store.clock" || to == "store.clock")
        .collect();
    assert!(
        clock_edges.is_empty(),
        "store.clock must never be held with another lock: {clock_edges:?}"
    );
    assert!(
        ddlf_lockdep::classes().iter().any(|c| c == "store.clock"),
        "the registry mutex must have run under the validator"
    );

    // And the storm left no discipline violations behind either.
    let bad = ddlf_lockdep::violations();
    assert!(bad.is_empty(), "lockdep violations: {bad:#?}");
    drop(engines);
    let _ = std::fs::remove_dir_all(&dir);
}
