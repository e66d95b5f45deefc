//! Figure 2 at runtime: the four-entity deadlock that two-entity
//! detectors cannot predict actually bites the simulated database — and,
//! because the Fig. 2 transactions are *not two-phase*, dynamic deadlock
//! policies rescue liveness but **cannot rescue safety**: some committed
//! histories are non-serializable. Each claim is checked by the paper
//! ledger's golden lines that hold it (`tests/ledger/`).

mod ledger;

#[test]
fn fig2_is_not_two_phase_and_not_certified() {
    ledger::check(&["fig2.two_phase", "fig2.certify"]);
}

/// Some timings deadlock, and a deadlocked run commits neither copy.
#[test]
fn fig2_deadlocks_under_nothing_policy() {
    ledger::check(&["fig2.des.nothing"]);
}

/// Every policy commits every run, and the detector's runs include
/// non-serializable histories.
#[test]
fn fig2_policies_restore_liveness_but_not_safety() {
    ledger::check(&[
        "fig2.des.detect_1ms",
        "fig2.des.wound_wait",
        "fig2.des.wait_die",
    ]);
}

#[test]
fn fig2_threaded_runtime_commits() {
    ledger::check(&["engine.fig2"]);
}
