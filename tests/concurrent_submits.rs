//! Concurrent runs on one engine — the wire server's Submits from two
//! or more connections. Every plan the engine runs is serializable by a
//! theorem, so every report of overlapping runs must say so, refereed
//! by recovery: `wal::recover`'s single whole-log auditor must agree,
//! and every commit a report acknowledged is a commit the log recovers.

use ddlf::engine::{
    recover, AdmissionOptions, AdmissionVerdict, Engine, EngineConfig, Inflation, Program, Report,
    TemplateRegistry, WriteOp,
};
use ddlf::model::{Database, EntityId, Op, Transaction, TransactionSystem, TxnId};
use ddlf::workloads::{bank_ordered_pair, bank_uniform_transfer};
use std::path::PathBuf;
use std::time::Duration;

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ddlf-concurrent-submits-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Two *opposite* chains: rejected by the certifier, so every run takes
/// the wait-die path for real.
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

/// The hand-over-hand (non-two-phase) transfer forced onto wait-die —
/// over its two-phase closure: the `banking_uniform --force-fallback`
/// shape.
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
/// concurrently, on one WAL'd engine; every run must serialize, and
/// recovery's whole-log audit referees that and the acknowledged
/// commits.
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
        assert_eq!(r.serializable, Some(true), "{tag}: {r:?}");
    }
    assert_eq!(engine.report_snapshot().serializable, Some(true), "{tag}");
    drop(engine);

    let rec = recover(&dir).unwrap();
    assert_eq!(
        rec.serializable,
        Some(true),
        "{tag}: recovery's whole-log audit ({:?})",
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

/// Two overlapping runs share one engine, and each report counts its
/// own instances' events alone.
#[test]
fn overlapping_runs_each_count_their_own_events() {
    const COUNT: usize = 256;
    let (_, sys) = bank_ordered_pair();
    let engine = Engine::new(
        sys,
        EngineConfig {
            threads: 4,
            admission_batch: 4,
            ..Default::default()
        },
    );
    let reports: Vec<Report> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..2)
            .map(|_| s.spawn(|| engine.run_mix(&engine.uniform_mix(COUNT))))
            .collect();
        runs.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Every committed instance recorded each of its nodes once.
    let sys = engine.registry().system();
    let events: usize = engine
        .uniform_mix(COUNT)
        .iter()
        .map(|&(t, n)| n * sys.txn(t).node_count())
        .sum();
    for r in &reports {
        assert!(r.all_committed(), "{r:?}");
        assert_eq!(r.serializable, Some(true), "{r:?}");
        assert_eq!(r.history_len, events, "per-run event count");
    }
}
