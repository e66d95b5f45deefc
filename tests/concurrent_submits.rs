//! Concurrent runs on one engine — the wire server's Submits from two
//! or more connections — share one audit epoch. Two contracts:
//!
//! * **Soundness, refereed by recovery.** The live reports of
//!   overlapping runs, each a conjunction of the epoch verdicts its
//!   chunks observed, must agree with the single whole-log auditor of
//!   `wal::recover`, which knows nothing of epochs; and every commit a
//!   report acknowledged is a commit the log recovers.
//! * **Bounded state.** Overlapping runs keep an epoch open, but never
//!   past [`EPOCH_CAP`] instances plus one chunk: the auditor's live
//!   node count (the telemetry gauge) stays under that bound however
//!   long the overlap lasts.

use ddlf::engine::{
    recover, AdmissionOptions, AdmissionVerdict, Engine, EngineConfig, Inflation, Program, Report,
    Telemetry, TelemetryConfig, TemplateRegistry, WriteOp, EPOCH_CAP,
};
use ddlf::model::{Database, EntityId, Op, Transaction, TransactionSystem, TxnId};
use ddlf::workloads::{bank_ordered_pair, bank_uniform_transfer};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ddlf-concurrent-submits-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The three-valued conjunction the cumulative report also uses.
fn conjunction(reports: &[Report]) -> Option<bool> {
    if reports.iter().any(|r| r.serializable == Some(false)) {
        Some(false)
    } else if reports.iter().all(|r| r.serializable == Some(true)) {
        Some(true)
    } else {
        None
    }
}

/// Two *opposite* non-two-phase chains: rejected by the certifier, so
/// every run takes the wait-die path for real.
fn opposite_chains() -> TemplateRegistry {
    let db = Database::one_entity_per_site(2);
    let (a, b) = (EntityId(0), EntityId(1));
    let fwd = [Op::lock(a), Op::lock(b), Op::unlock(a), Op::unlock(b)];
    let rev = [Op::lock(b), Op::lock(a), Op::unlock(b), Op::unlock(a)];
    let t0 = Transaction::from_total_order("chain_ab", &fwd, &db).unwrap();
    let t1 = Transaction::from_total_order("chain_ba", &rev, &db).unwrap();
    let sys = TransactionSystem::new(db, vec![t0, t1]).unwrap();
    let mut reg = TemplateRegistry::register(sys);
    assert!(
        matches!(reg.verdict(), AdmissionVerdict::Fallback { .. }),
        "opposite chains must not certify: {}",
        reg.verdict()
    );
    let add_both = Program::default()
        .write(a, WriteOp::Add(1))
        .write(b, WriteOp::Add(1));
    reg.set_program(TxnId(0), add_both.clone()).unwrap();
    reg.set_program(TxnId(1), add_both).unwrap();
    reg
}

/// The hand-over-hand (non-two-phase) transfer forced onto wait-die:
/// the `banking_uniform --force-fallback` shape.
fn forced_uniform_transfer() -> TemplateRegistry {
    let (bank, sys) = bank_uniform_transfer();
    let mut reg = TemplateRegistry::register_with(
        sys,
        AdmissionOptions {
            inflate: Inflation::Uniform(6),
            ..Default::default()
        },
    );
    reg.set_program(
        TxnId(0),
        Program::transfer(bank.accounts[0][0], bank.accounts[1][0], 5),
    )
    .unwrap();
    reg
}

/// Four submitters each make `runs` runs of `count` instances,
/// concurrently, on one WAL'd engine; recovery's whole-log audit
/// referees the live verdicts and the acknowledged commits.
fn submit_concurrently(
    tag: &str,
    reg: TemplateRegistry,
    cfg: EngineConfig,
    runs: usize,
    count: usize,
) -> Vec<Report> {
    let dir = wal_dir(tag);
    let engine = Engine::with_registry(
        reg,
        EngineConfig {
            wal_dir: Some(dir.clone()),
            ..cfg
        },
    );
    let reports: Vec<Report> = std::thread::scope(|s| {
        let submitters: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    (0..runs)
                        .map(|_| engine.run_mix(&engine.uniform_mix(count)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        submitters
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(reports.len(), 4 * runs, "{tag}: every run completes");
    for r in &reports {
        assert!(r.all_committed(), "{tag}: {r:?}");
    }
    let live = conjunction(&reports);
    assert_eq!(engine.report_snapshot().serializable, live, "{tag}");
    drop(engine);

    let rec = recover(&dir).unwrap();
    assert_eq!(
        rec.serializable, live,
        "{tag}: the epoch audit disagrees with recovery's whole-log audit ({:?})",
        rec.audit_error
    );
    assert_eq!(
        rec.committed,
        reports.iter().map(|r| r.committed).sum::<usize>(),
        "{tag}: every acknowledged commit recovers, and nothing else"
    );
    assert_eq!(rec.torn_tails, 0);
    let _ = std::fs::remove_dir_all(&dir);
    reports
}

/// Four submitters drive three contended runs each on two-thread
/// engines that take the wait-die path for real.
#[test]
fn concurrent_wait_die_runs_audit_like_the_recovered_log() {
    for (tag, reg, force_fallback) in [
        ("opposite-chains", opposite_chains(), false),
        ("uniform-forced", forced_uniform_transfer(), true),
    ] {
        let cfg = EngineConfig {
            threads: 2,
            work: Duration::from_micros(60),
            seed: 7,
            force_fallback,
            ..Default::default()
        };
        let reports = submit_concurrently(tag, reg, cfg, 3, 10);
        for r in &reports {
            assert_eq!(r.path(), "wait-die", "{tag}");
        }
        let aborts: usize = reports.iter().map(|r| r.aborted_attempts).sum();
        assert!(aborts > 0, "{tag}: contended wait-die must abort somewhere");
    }
}

/// Many one-instance runs from four submitters on a one-thread engine:
/// each run executes on its submitter's own thread, and no submitter
/// starves, on the certified and on the forced wait-die path alike.
#[test]
fn count_one_runs_from_four_submitters_all_complete() {
    let (_, sys) = bank_ordered_pair();
    let certified = TemplateRegistry::register(sys);
    assert!(
        certified.verdict().is_certified(),
        "{}",
        certified.verdict()
    );
    for (tag, reg, path) in [
        ("pool-certified", certified, "no-detector"),
        ("pool-forced", forced_uniform_transfer(), "wait-die"),
    ] {
        let cfg = EngineConfig {
            threads: 1,
            force_fallback: path == "wait-die",
            ..Default::default()
        };
        for r in submit_concurrently(tag, reg, cfg, 50, 1) {
            assert_eq!((r.instances, r.path()), (1, path), "{tag}");
        }
    }
}

#[test]
fn overlapping_runs_keep_the_epoch_bounded() {
    const CHUNK: usize = 4;
    let (_, sys) = bank_ordered_pair();
    let telemetry = Telemetry::new(TelemetryConfig::default());
    let engine = Engine::new(
        sys,
        EngineConfig {
            threads: 4,
            admission_batch: CHUNK,
            telemetry: telemetry.clone(),
            ..Default::default()
        },
    );
    let bound = (EPOCH_CAP + CHUNK) as u64;
    let peak = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    // Two overlapping runs of a full cap each: twice what one epoch may
    // hold, so the shared epoch must close at the cap and reopen.
    let reports: Vec<Report> = std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                peak.fetch_max(telemetry.snapshot().auditor_nodes, Ordering::Relaxed);
                std::thread::yield_now();
            }
        });
        let runs: Vec<_> = (0..2)
            .map(|_| s.spawn(|| engine.run_mix(&engine.uniform_mix(EPOCH_CAP))))
            .collect();
        let reports = runs.into_iter().map(|h| h.join().unwrap()).collect();
        done.store(true, Ordering::Relaxed);
        reports
    });
    // Every committed instance recorded each of its nodes once, and the
    // count is the run's own although the epoch was shared.
    let sys = engine.registry().system();
    let events: usize = engine
        .uniform_mix(EPOCH_CAP)
        .iter()
        .map(|&(t, n)| n * sys.txn(t).node_count())
        .sum();
    for r in &reports {
        assert!(r.all_committed(), "{r:?}");
        assert_eq!(r.serializable, Some(true), "{r:?}");
        assert_eq!(r.history_len, events, "per-run event count");
    }
    let last_epoch = telemetry.snapshot().auditor_nodes;
    assert!(
        last_epoch > 0 && last_epoch <= bound,
        "the last epoch held {last_epoch} nodes, bound {bound}"
    );
    let peak = peak.into_inner();
    assert!(
        peak <= bound,
        "the live auditor reached {peak} nodes, bound {bound}"
    );
}
