//! No engine path commits an unserializable history, on any seed.
//!
//! Two probes, one per regime with no certificate of safety for the
//! system as asked:
//!
//! * Fig. 6 at `Inflation::Uniform(2)`: two copies are deadlock-free
//!   but not safe, so admission must floor the request to the largest
//!   `k` certified safe.
//! * `L a U a L b U b` against `L b U b L a U a` under wait-die: the
//!   templates are not two-phase and do not certify, so wait-die must
//!   run their two-phase closures.
//!
//! Every run must commit every instance and report `Some(true)`, and
//! one WAL'd run per probe must recover as serializable: the whole-log
//! audit of `wal::recover` referees what the report claims. A run that
//! does not finish within [`DEADLINE`] fails the test (a plan that is
//! not deadlock-free hangs instead of committing).

use ddlf::engine::{
    recover, AdmissionOptions, Engine, EngineConfig, Inflation, Report, TemplateRegistry,
};
use ddlf::model::{Database, EntityId, Op, Transaction, TransactionSystem};
use ddlf::workloads::fig6;
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

const SEEDS: u64 = 50;

/// How long one run may take; every run here takes milliseconds.
const DEADLINE: Duration = Duration::from_secs(60);

fn fig6_k2() -> TemplateRegistry {
    let k2 = AdmissionOptions {
        inflate: Inflation::Uniform(2),
        ..Default::default()
    };
    TemplateRegistry::register_with(fig6(1), k2)
}

fn non_two_phase_pair() -> TemplateRegistry {
    let db = Database::one_entity_per_site(2);
    let (a, b) = (EntityId(0), EntityId(1));
    let ab = [Op::lock(a), Op::unlock(a), Op::lock(b), Op::unlock(b)];
    let ba = [Op::lock(b), Op::unlock(b), Op::lock(a), Op::unlock(a)];
    let txns = vec![
        Transaction::from_total_order("AB", &ab, &db).unwrap(),
        Transaction::from_total_order("BA", &ba, &db).unwrap(),
    ];
    TemplateRegistry::register(TransactionSystem::new(db, txns).unwrap())
}

fn config(instances: usize, threads: usize, seed: u64) -> EngineConfig {
    EngineConfig {
        threads,
        instances,
        work: Duration::from_micros(20),
        seed,
        ..Default::default()
    }
}

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ddlf-no-unserializable-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `registry()` once per seed, then once more with a WAL, and
/// recovers that log.
fn probe(tag: &str, registry: impl Fn() -> TemplateRegistry, cfg: impl Fn(u64) -> EngineConfig) {
    // One run on its own thread, the engine dropped before the report
    // comes back; a run past the deadline is left hanging and fails.
    let run = |seed: u64, cfg: EngineConfig| {
        let engine = Engine::with_registry(registry(), cfg);
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let report = engine.run();
            drop(engine);
            let _ = tx.send(report);
        });
        let report: Report = match rx.recv_timeout(DEADLINE) {
            Ok(report) => {
                handle.join().expect("the run's thread sent its report");
                report
            }
            Err(RecvTimeoutError::Disconnected) => match handle.join() {
                Err(panic) => std::panic::resume_unwind(panic),
                Ok(()) => unreachable!("the run's thread ended without a report"),
            },
            Err(RecvTimeoutError::Timeout) => {
                panic!("{tag} seed {seed}: no report within {DEADLINE:?}")
            }
        };
        assert!(report.all_committed(), "{tag} seed {seed}: {report:?}");
        assert_eq!(
            report.serializable,
            Some(true),
            "{tag} seed {seed}: {}",
            report.summary()
        );
        report
    };
    for seed in 0..SEEDS {
        run(seed, cfg(seed));
    }
    let dir = wal_dir(tag);
    let wal = EngineConfig {
        wal_dir: Some(dir.clone()),
        ..cfg(SEEDS)
    };
    let report = run(SEEDS, wal);
    let rec = recover(&dir).unwrap();
    assert_eq!(rec.committed, report.committed, "{tag}");
    assert_eq!(
        rec.serializable,
        Some(true),
        "{tag}: the recovered log audits unserializable ({:?})",
        rec.audit_error
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig6_at_k2_commits_only_serializable_histories() {
    probe("fig6-k2", fig6_k2, |seed| config(40, 4, seed));
}

#[test]
fn a_non_two_phase_wait_die_pair_commits_only_serializable_histories() {
    probe("pair", non_two_phase_pair, |seed| config(8, 2, seed));
}
