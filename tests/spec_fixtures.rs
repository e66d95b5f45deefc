//! Fixture-driven tests: the JSON system specifications under
//! `fixtures/` load through the public spec API and reproduce the
//! behaviours they document — the same files double as CLI demos.

use ddlf::core::{
    certify_safe_and_deadlock_free, lu_pair_deadlock_prefix, tirri_two_entity_pattern,
    CertifyOptions, Explorer,
};
use ddlf::model::{SystemSpec, TransactionSystem, TxnId};

fn load(name: &str) -> TransactionSystem {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let json = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let spec: SystemSpec = serde_json::from_str(&json).expect("valid JSON spec");
    spec.build().expect("spec builds")
}

#[test]
fn fig2_fixture_reproduces_the_counterexample() {
    let sys = load("fig2_tirri_counterexample.json");
    assert_eq!(sys.len(), 2);
    assert_eq!(sys.db().site_count(), 4);
    // Tirri-blind …
    assert!(tirri_two_entity_pattern(sys.txn(TxnId(0)), sys.txn(TxnId(1))).is_none());
    // … but deadlock-prone.
    assert!(lu_pair_deadlock_prefix(&sys, 10_000_000).unwrap().is_some());
    assert!(Explorer::new(&sys, 10_000_000).find_deadlock().0.violated());
}

#[test]
fn classic_fixture_rejected_and_deadlocks() {
    let sys = load("classic_opposite_order.json");
    assert!(certify_safe_and_deadlock_free(&sys, CertifyOptions::default()).is_err());
    assert!(Explorer::new(&sys, 1_000_000).find_deadlock().0.violated());
}

#[test]
fn three_way_fixture_rejected_and_deadlocks() {
    // Three transactions, three entities, every pair in opposite order
    // somewhere: the witnesses of this one jammed the explorer's
    // wait-die replay (see `tests/explore_anomalies.rs`).
    let sys = load("three_way_deadlock.json");
    assert_eq!((sys.len(), sys.db().site_count()), (3, 3));
    assert!(certify_safe_and_deadlock_free(&sys, CertifyOptions::default()).is_err());
    assert!(Explorer::new(&sys, 1_000_000).find_deadlock().0.violated());
}

#[test]
fn ticketed_fixture_certifies_despite_inner_disorder() {
    // The two transactions lock a/b in opposite orders, but both take the
    // ticket first and hold it throughout: certified.
    let sys = load("ticketed_pair.json");
    let cert = certify_safe_and_deadlock_free(&sys, CertifyOptions::default())
        .expect("ticket discipline certifies");
    // And indeed no deadlock is reachable.
    assert!(Explorer::new(&sys, 1_000_000).find_deadlock().0.holds());
    drop(cert);
}

#[test]
fn banking_fixture_certifies_and_matches_the_workload() {
    // The CI wire-smoke step registers this file with a live server and
    // asserts zero aborts + a serializable audit; the certificate is
    // what makes that assertion safe to demand.
    let sys = load("banking_ordered.json");
    certify_safe_and_deadlock_free(&sys, CertifyOptions::default())
        .expect("ordered transfers certify");
    let (_, built) = ddlf::workloads::bank_ordered_pair();
    assert_eq!(sys.len(), built.len());
    for (a, b) in sys.txns().iter().zip(built.txns()) {
        assert_eq!(
            format!("{a}"),
            format!("{b}"),
            "fixture drifted from bank_ordered_pair"
        );
    }
}

#[test]
fn banking_uniform_fixture_matches_the_workload_and_is_not_two_phase() {
    // The CI crash-recovery and wait-die-audit steps drive this file:
    // a single Theorem 5-certifiable hand-over-hand transfer. Unlike
    // `banking_ordered.json` it is *not* two-phase, so a wait-die victim
    // can die after an unlock — exactly the regime the undo log exists
    // for.
    let sys = load("banking_uniform.json");
    let (_, built) = ddlf::workloads::bank_uniform_transfer();
    assert_eq!(sys.len(), built.len());
    for (a, b) in sys.txns().iter().zip(built.txns()) {
        assert_eq!(
            format!("{a}"),
            format!("{b}"),
            "fixture drifted from bank_uniform_transfer"
        );
    }
    certify_safe_and_deadlock_free(&sys, CertifyOptions::default())
        .expect("hand-over-hand chain certifies (Theorem 5)");
}

#[test]
fn banking_readers_fixture_certifies_the_locked_scan_baseline() {
    // The lock-based alternative to a multiversion snapshot read: a
    // `scan_all` template that locks every entity (schema order) before
    // reading any. It certifies alongside the ordered transfers — the
    // correctness baseline the `ro_snapshot` bench compares against —
    // but costs a lock class on all six entities per read, which is
    // precisely what `Engine::run_read_only` eliminates.
    let sys = load("banking_readers.json");
    assert_eq!(sys.len(), 3);
    certify_safe_and_deadlock_free(&sys, CertifyOptions::default())
        .expect("schema-ordered full scan certifies with the transfers");
    // The two writer templates are exactly the ordered banking pair.
    let (_, built) = ddlf::workloads::bank_ordered_pair();
    for (a, b) in sys.txns().iter().take(2).zip(built.txns()) {
        assert_eq!(
            format!("{a}"),
            format!("{b}"),
            "writer templates drifted from bank_ordered_pair"
        );
    }
    // And the reader really is a full scan: its lock set is the schema.
    let scan = sys.txn(TxnId(2));
    let mut locked: Vec<_> = scan.entities().to_vec();
    locked.sort();
    let mut all: Vec<_> = sys.db().entities().collect();
    all.sort();
    assert_eq!(locked, all, "scan_all must cover every entity");
}

#[test]
fn lost_update_fixture_is_deadlock_free_but_uncertifiable() {
    // The CI exploration tier runs this file to first counterexample.
    // Each transaction reads the snapshot, lets it go, then writes the
    // value — never holding two locks, so no deadlock is reachable —
    // yet interleaving the two critical sections yields a D(S) 2-cycle:
    // the stale read-modify-write shape.
    let sys = load("anomaly_lost_update.json");
    assert_eq!(sys.len(), 2);
    assert!(certify_safe_and_deadlock_free(&sys, CertifyOptions::default()).is_err());
    assert!(Explorer::new(&sys, 1_000_000).find_deadlock().0.holds());
}

#[test]
fn write_skew_fixture_is_deadlock_free_but_uncertifiable() {
    // Also exploration-tier fodder: each transaction reads the *other*
    // constraint column before writing its own, again without ever
    // holding two locks. Opposite access orders make the 2-cycle's
    // per-txn lock sequences differ — the write-skew shape.
    let sys = load("anomaly_write_skew.json");
    assert_eq!(sys.len(), 2);
    assert!(certify_safe_and_deadlock_free(&sys, CertifyOptions::default()).is_err());
    assert!(Explorer::new(&sys, 1_000_000).find_deadlock().0.holds());
}

#[test]
fn fixtures_roundtrip_through_spec() {
    for name in [
        "fig2_tirri_counterexample.json",
        "classic_opposite_order.json",
        "three_way_deadlock.json",
        "ticketed_pair.json",
        "banking_ordered.json",
        "banking_readers.json",
        "banking_uniform.json",
        "anomaly_lost_update.json",
        "anomaly_write_skew.json",
    ] {
        let sys = load(name);
        let spec = SystemSpec::from_system(&sys);
        let sys2 = spec.build().expect("roundtrip builds");
        assert_eq!(sys.len(), sys2.len());
        for (a, b) in sys.txns().iter().zip(sys2.txns()) {
            assert_eq!(format!("{a}"), format!("{b}"), "{name}");
        }
    }
}

#[test]
fn fig2_fixture_matches_programmatic_construction() {
    let fixture = load("fig2_tirri_counterexample.json");
    let (built, _) = ddlf::workloads::fig2();
    assert_eq!(fixture.len(), built.len());
    for (a, b) in fixture.txns().iter().zip(built.txns()) {
        assert_eq!(a.node_count(), b.node_count());
        // Same precedence relation up to node numbering: both use the
        // L/U-pair-per-entity layout, so direct comparison works.
        for x in a.nodes() {
            for y in a.nodes() {
                assert_eq!(a.precedes(x, y), b.precedes(x, y), "{x} ≺ {y}");
            }
        }
    }
}
