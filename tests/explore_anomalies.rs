//! End-to-end exploration tests over the shipped fixtures: the explorer
//! finds each documented anomaly, replaying the recorded witness through
//! the engine's store + streaming audit reproduces the verdict, and the
//! certified banking fixture exhausts its pruned schedule space clean —
//! the same contracts the CI exploration tier enforces through
//! `ddlf-audit explore` exit codes.

use ddlf::engine::replay_schedule;
use ddlf::model::{
    explore, instances_of, AnomalyKind, ExploreConfig, SystemSpec, TransactionSystem,
};

fn load(name: &str) -> TransactionSystem {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let json = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let spec: SystemSpec = serde_json::from_str(&json).expect("valid JSON spec");
    spec.build().expect("spec builds")
}

/// Explores a fixture to exhaustion and returns every counterexample.
fn explore_all(sys: &TransactionSystem) -> ddlf::model::ExploreOutcome {
    let out = explore(
        sys,
        &ExploreConfig {
            max_counterexamples: usize::MAX,
            ..ExploreConfig::default()
        },
    );
    assert!(out.exhausted, "fixture small enough to exhaust");
    out
}

#[test]
fn lost_update_fixture_yields_a_replayable_lost_update() {
    let sys = load("anomaly_lost_update.json");
    let out = explore_all(&sys);
    let ce = out
        .counterexamples
        .iter()
        .find(|ce| ce.kind == AnomalyKind::LostUpdate)
        .expect("explorer finds the lost update");
    // The shape never holds two locks, so the *only* failure mode is the
    // cycle — no deadlock states exist to muddy the classification.
    assert_eq!(out.stats.deadlocks, 0);
    // The witness is a real engine run, not just a model artifact: the
    // streaming audit over the replayed store history votes the same way.
    let rep = replay_schedule(&sys, &ce.steps).expect("witness replays");
    assert_eq!(rep.committed, rep.instances);
    assert_eq!(rep.aborts, 0, "a complete legal schedule never conflicts");
    assert_eq!(
        rep.serializable,
        Some(false),
        "non-serializability reproduced"
    );
}

#[test]
fn write_skew_fixture_yields_a_replayable_write_skew() {
    let sys = load("anomaly_write_skew.json");
    let out = explore_all(&sys);
    let ce = out
        .counterexamples
        .iter()
        .find(|ce| ce.kind == AnomalyKind::WriteSkew)
        .expect("explorer finds the write skew");
    assert_eq!(out.stats.deadlocks, 0);
    assert_eq!(ce.cycle.len(), 2);
    let rep = replay_schedule(&sys, &ce.steps).expect("witness replays");
    assert_eq!(rep.committed, rep.instances);
    assert_eq!(rep.aborts, 0);
    assert_eq!(
        rep.serializable,
        Some(false),
        "non-serializability reproduced"
    );
}

#[test]
fn classic_deadlock_witness_is_unjammed_by_the_wait_die_replay() {
    let sys = load("classic_opposite_order.json");
    let out = explore_all(&sys);
    let ce = out
        .counterexamples
        .iter()
        .find(|ce| ce.kind == AnomalyKind::Deadlock)
        .expect("explorer finds the deadlock");
    assert_eq!(ce.stuck.len(), 2, "both transactions stuck in the cycle");
    // Replaying the stuck prefix drops the engine into its fallback path:
    // wait-die kills the younger requester, rolls its exposed writes
    // back, and the retry drains — every instance commits, the history
    // audits serializable, and at least one abort proves the deadlock
    // was real.
    let rep = replay_schedule(&sys, &ce.steps).expect("witness replays");
    assert_eq!(rep.committed, rep.instances, "wait-die drains the deadlock");
    assert!(rep.aborts >= 1, "someone had to die to unjam it");
    assert_eq!(rep.serializable, Some(true));
}

#[test]
fn every_three_way_deadlock_witness_replays_to_completion() {
    // T2 dies at once; with a FIFO hand-over x then went to T0, which
    // parked on y behind T1, which was parked on x behind T0 — and the
    // replay never returned. Without queues nothing can jam.
    let sys = load("three_way_deadlock.json");
    let out = explore_all(&sys);
    let witnesses: Vec<_> = out
        .counterexamples
        .iter()
        .filter(|ce| ce.kind == AnomalyKind::Deadlock)
        .collect();
    assert_eq!(
        witnesses.len(),
        4,
        "deadlock witnesses at the default config"
    );
    for ce in witnesses {
        let rep = replay_schedule(&sys, &ce.steps).expect("witness replays");
        assert_eq!(rep.committed, 3, "{:?}", ce.steps);
        assert!(rep.aborts >= 1, "someone had to die to unjam it");
        assert_eq!(rep.serializable, Some(true));
    }
}

#[test]
fn banking_ordered_exhausts_clean_at_small_multiprogramming() {
    // The certified fixture at N = 3 round-robin instances: the full
    // sleep-set-pruned schedule space contains no D(S) cycle and no
    // deadlock — the paper's claim checked exhaustively rather than
    // sampled. (CI pushes the same check to N = 4 with a larger budget.)
    let sys = instances_of(&load("banking_ordered.json"), 3).unwrap();
    let out = explore(
        &sys,
        &ExploreConfig {
            max_counterexamples: usize::MAX,
            max_steps: 20_000_000,
            ..ExploreConfig::default()
        },
    );
    assert!(out.exhausted, "pruned space fits the budget");
    assert!(
        out.counterexamples.is_empty(),
        "certified system admits no counterexample: {:?}",
        out.counterexamples[0].kind
    );
    assert_eq!(out.stats.deadlocks, 0);
    assert_eq!(out.stats.cyclic_schedules, 0);
    assert!(out.stats.complete_schedules > 0);
}
