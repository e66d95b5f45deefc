//! The engine's runs, where the paper ledger (`tests/ledger/`) holds
//! what no schedule can change — a certified banking run aborts nothing,
//! audits serializable and conserves balances (`engine.banking`) — and
//! the tests below hold what only contention shows:
//!
//! * an **uncertified** greedy pair completes via the wait-die fallback,
//!   paying for its missing certificate with real aborts;
//! * a Theorem 5-certifiable single template really runs k ≥ 4 instances
//!   at once, with zero aborts.

mod ledger;

use ddlf::engine::{
    AdmissionOptions, AdmissionVerdict, Engine, EngineConfig, Inflation, Program, Slots,
    TemplateRegistry,
};
use ddlf::model::TxnId;
use ddlf::workloads::{bank_greedy_pair, bank_uniform_transfer};
use std::time::Duration;

#[test]
fn certified_banking_runs_clean_across_threads() {
    ledger::check(&["engine.banking"]);
}

/// The benchmark's comparison axis: the same certified workload, run
/// once trusting the certificate and once on wait-die.
#[test]
fn forced_fallback_still_correct_on_certified_system() {
    ledger::check(&["engine.banking", "engine.banking_fallback"]);
}

#[test]
fn uncertified_greedy_pair_completes_via_wait_die_with_aborts() {
    let (_, sys) = bank_greedy_pair();
    let engine = Engine::new(
        sys,
        EngineConfig {
            threads: 2,
            instances: 30,
            work: Duration::from_micros(100),
            initial_value: 1_000,
            seed: 42,
            ..Default::default()
        },
    );
    let AdmissionVerdict::Fallback { reason } = engine.registry().verdict() else {
        panic!("greedy opposite-direction transfers must not certify");
    };
    assert!(!reason.is_empty());

    let report = engine.run();
    assert!(report.all_committed(), "{report:?}");
    // The fallback path really was exercised: contention on the two
    // ledgers (locked in opposite orders) forces wait-die victims.
    assert!(
        report.aborted_attempts > 0,
        "greedy pair under contention must pay aborts: {report:?}"
    );
    // Every death rolled back, so the committed projection still
    // serializes.
    assert_eq!(report.serializable, Some(true), "{report:?}");
}

/// Admission grants the explicit request as a ceiling of 4
/// (`engine.uniform_k4`); the run shows it used.
#[test]
fn certified_single_template_runs_at_k4_with_zero_aborts() {
    let (bank, sys) = bank_uniform_transfer();
    let mut reg = TemplateRegistry::register_with(
        sys,
        AdmissionOptions {
            inflate: Inflation::Uniform(4),
            ..Default::default()
        },
    );
    reg.set_program(
        TxnId(0),
        Program::transfer(bank.accounts[0][0], bank.accounts[1][0], 5),
    )
    .unwrap();

    let engine = Engine::with_registry(
        reg,
        EngineConfig {
            threads: 8,
            instances: 200,
            work: Duration::from_micros(100),
            seed: 7,
            ..Default::default()
        },
    );
    let report = engine.run();

    // The paper's payoff at real multiprogramming: every instance
    // commits, nothing aborts, and the audited history serializes.
    assert!(report.all_committed(), "{report:?}");
    assert_eq!(report.aborted_attempts, 0, "{report:?}");
    assert_eq!(report.serializable, Some(true), "{report:?}");
    // ≥ 4 instances of the single template were genuinely in flight at
    // once (8 workers, a gate of 4, 100µs of work per lock).
    assert!(
        report.peak_inflight() >= 4,
        "expected k ≥ 4 concurrency, got {} — {report:?}",
        report.peak_inflight()
    );
    assert_eq!(report.per_template.len(), 1);
    assert_eq!(report.per_template[0].certified_slots, Slots::Bounded(4));
    assert_eq!(report.per_template[0].committed, 200);
    // Transfers conserve: 6 entities seeded with 1 000 each.
    assert_eq!(engine.store().total_int(), 6_000);
}
