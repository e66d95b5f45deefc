//! The oracle-backed consistency layer for multiversion snapshot reads:
//! concurrent writers + read-only scanners, where **every** observed
//! snapshot must
//!
//!   1. be a whole-transaction cut — conserving Σint exactly under
//!      transfer programs,
//!   2. equal an **independent reference model**: the log's `Write`
//!      records replayed in file order, restricted to the instances
//!      whose decision record's timestamp is `≤` the cut — for
//!      absolute writes on a non-two-phase template under wait-die, the
//!      case where commit order and write order disagree,
//!   3. never run backwards — a scanner's snapshot timestamps are
//!      nondecreasing.
//!
//! Plus the visibility contract of a non-sync WAL — a commit decision
//! may wait in the log's user-space buffer, but a snapshot that shows
//! the commit never returns before the decision reached the kernel —
//! and the negative-space contracts that make the path "read-only":
//! RO transactions append **nothing** to the WAL, the committed
//! history, or the streaming auditor's `D(S)` graph — so no snapshot
//! read can ever appear in a `D(S)` cycle (cycles are built solely
//! from committed lock-writer arcs), and the serializability audit of
//! a run is byte-identical with or without concurrent scanners.

use ddlf::engine::{
    recover, Datum, Engine, EngineConfig, Program, Telemetry, TelemetryConfig, TemplateRegistry,
    VersionedValue, WalRecord, WriteOp,
};
use ddlf::model::{EntityId, Op, Transaction, TransactionSystem, TxnId};
use ddlf::sim::msg::frame::read_frame;
use ddlf::workloads::{bank_ordered_pair, Bank};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ddlf-mvcc-snap-{}-{tag}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The certified banking pair with genuine *transfer* programs: each
/// commit moves `amount` between two accounts, so Σint over the six
/// entities is invariant — the strongest possible per-snapshot check.
fn transfer_engine(instances: usize, cfg: EngineConfig) -> Engine {
    let (bank, sys) = bank_ordered_pair();
    let mut reg = TemplateRegistry::register(sys);
    reg.set_program(
        TxnId(0),
        Program::transfer(bank.accounts[0][0], bank.accounts[1][0], 5),
    )
    .unwrap();
    reg.set_program(
        TxnId(1),
        Program::transfer(bank.accounts[1][1], bank.accounts[0][1], 3),
    )
    .unwrap();
    Engine::with_registry(reg, EngineConfig { instances, ..cfg })
}

fn all_entities(engine: &Engine) -> Vec<EntityId> {
    engine.store().db().entities().collect()
}

fn wal_bytes_on_disk(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Every record of the log, in file order.
fn wal_records(dir: &Path) -> Vec<WalRecord> {
    let log = std::fs::File::open(dir.join("log.wal")).unwrap();
    let mut file = std::io::BufReader::new(log);
    let frames = std::iter::from_fn(|| read_frame(&mut file).unwrap());
    frames
        .map(|f| WalRecord::decode(f.into()).unwrap())
        .collect()
}

/// The commit timestamps of every decision the kernel holds for
/// `dir`'s log, read through a fresh descriptor: whole frames only — a
/// push still in flight may leave a partial frame at the end.
fn decided_on_disk(dir: &Path) -> HashSet<u64> {
    let log = std::fs::File::open(dir.join("log.wal")).unwrap();
    let mut file = std::io::BufReader::new(log);
    let frames = std::iter::from_fn(|| read_frame(&mut file).ok().flatten());
    let mut decided = HashSet::new();
    for f in frames {
        if let WalRecord::Commit(e) = WalRecord::decode(f.into()).unwrap() {
            decided.insert(e.commit_ts);
        }
    }
    decided
}

/// The reference model, sharing no code with the store: per entity, the
/// log's `Write` ops in file order, restricted to the committing
/// attempts whose decision record's timestamp is `≤ cut`. An `Add`
/// meeting a byte payload is the same typed skip the engine has.
fn model_at(dir: &Path, entities: &[EntityId], cut: u64) -> Vec<VersionedValue> {
    let records = wal_records(dir);
    let mut decided = HashMap::new();
    for rec in &records {
        if let WalRecord::Commit(e) = rec {
            decided.insert((e.gid, e.attempt), e.commit_ts);
        }
    }
    let seed = VersionedValue {
        version: 0,
        datum: Datum::Int(1_000),
    };
    let mut state: HashMap<EntityId, VersionedValue> =
        entities.iter().map(|&e| (e, seed.clone())).collect();
    for rec in records {
        let WalRecord::Write {
            gid,
            attempt,
            entity,
            op,
            ..
        } = rec
        else {
            continue;
        };
        if decided.get(&(gid, attempt)).is_none_or(|&ts| ts > cut) {
            continue;
        }
        let v = state.get_mut(&entity).unwrap();
        v.datum = match (op, &v.datum) {
            (WriteOp::Add(d), Datum::Int(n)) => Datum::Int(n.wrapping_add_signed(d)),
            (WriteOp::Add(_), Datum::Bytes(_)) => continue,
            (WriteOp::Put(n), _) => Datum::Int(n),
            (WriteOp::PutBytes(b), _) => Datum::Bytes(b),
        };
        v.version += 1;
    }
    entities.iter().map(|e| state[e].clone()).collect()
}

proptest! {
    // Each case runs a threaded wait-die engine with a WAL plus scanner
    // threads, then replays the logs once per captured cut; the
    // debug-build batch-audit cross-check is quadratic, so keep the case
    // count and instance sizes modest. `instances < 48` also keeps
    // every chain under `CHAIN_CAP` and the auto-GC cadence, so every
    // captured cut is still retained for the `snapshot_at` pass.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline property. Two copies of the hand-over-hand
    /// (non-two-phase) transfer chain plus two one-entity transactions
    /// on the chain's first and third entity, each with its own program
    /// drawn from `Add`/`Put`/`PutBytes`, forced onto wait-die. A short
    /// transaction that locks an entity right after a chain released it
    /// commits long before that chain does — commit order inverts write
    /// order — and victims die with writes exposed. Every scanned cut,
    /// `snapshot_at` of the same cut, the quiescent `snapshot()` and
    /// `live_snapshot()`, and the recovered store must all equal the
    /// log-replay model.
    #[test]
    fn concurrent_scans_conserve_and_match_the_locked_oracle(
        instances in 8usize..48,
        threads in 2usize..5,
        scanners in 1usize..3,
        raw_ops in prop::collection::vec((0u8..3, -50i64..50), 10..11),
    ) {
        let bank = Bank::new(2, 2);
        let mut txns: Vec<_> = (0..2)
            .map(|i| bank.transfer_pipelined(&format!("chain{i}"), (0, 0), (1, 0)))
            .collect();
        for e in [txns[0].entities()[0], txns[0].entities()[2]] {
            let ops = [Op::lock(e), Op::unlock(e)];
            txns.push(Transaction::from_total_order(format!("short{e}"), &ops, &bank.db).unwrap());
        }
        let sys = TransactionSystem::new(bank.db.clone(), txns).unwrap();
        let mut reg = TemplateRegistry::register(sys);
        let mut raw_ops = raw_ops.iter();
        for t in 0..4u32 {
            let txn = reg.system().txn(TxnId(t)).clone();
            let mut program = Program::default();
            for (&e, &(kind, n)) in txn.entities().iter().zip(&mut raw_ops) {
                program = program.write(e, match kind {
                    0 => WriteOp::Add(n),
                    1 => WriteOp::Put(n.unsigned_abs()),
                    _ => WriteOp::PutBytes(vec![kind; n.unsigned_abs() as usize % 5]),
                });
            }
            reg.set_program(TxnId(t), program).unwrap();
        }
        let dir = wal_dir("oracle");
        let engine = Engine::with_registry(reg, EngineConfig {
            instances,
            threads,
            force_fallback: true,
            work: std::time::Duration::from_micros(100),
            wal_dir: Some(dir.clone()),
            ..Default::default()
        });
        let entities = all_entities(&engine);

        let done = AtomicBool::new(false);
        let (report, captured) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..scanners)
                .map(|_| {
                    s.spawn(|| {
                        let mut cuts = Vec::new();
                        let mut last_ts = 0u64;
                        // Scan before checking `done`: a run that ends
                        // before this scanner is scheduled still leaves
                        // it one cut.
                        loop {
                            let snap = engine.run_read_only(&entities);
                            assert!(snap.ts >= last_ts, "snapshot ts ran backwards");
                            if snap.ts > last_ts || cuts.is_empty() {
                                cuts.push(snap.clone());
                            }
                            last_ts = snap.ts;
                            if done.load(Ordering::Relaxed) {
                                break cuts;
                            }
                        }
                    })
                })
                .collect();
            let report = engine.run();
            done.store(true, Ordering::Relaxed);
            let cuts: Vec<_> = handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            (report, cuts)
        });
        prop_assert!(report.all_committed(), "{report:?}");
        if report.dirty_aborts == 0 {
            prop_assert_eq!(report.serializable, Some(true));
        }
        prop_assert!(!captured.is_empty(), "no snapshot was captured");

        // Oracle pass: every captured cut against the log replay, and
        // against `snapshot_at` (full fidelity, bytes included).
        for snap in &captured {
            let model = model_at(&dir, &entities, snap.ts);
            let at = engine.store().snapshot_at(snap.ts).expect("cut still retained");
            prop_assert_eq!(snap.entries.len(), entities.len());
            for ((entry, want), (_, got)) in snap.entries.iter().zip(&model).zip(&at) {
                prop_assert_eq!(got, want, "snapshot_at({}) diverges from the log", snap.ts);
                prop_assert_eq!(entry.version, want.version, "cut {} {:?}", snap.ts, entry);
                prop_assert_eq!(entry.value, want.datum.as_int(), "cut {} {:?}", snap.ts, entry);
            }
        }

        // Quiescence: one answer everywhere — committed view, live
        // values, the model at the closed clock, and the recovered store.
        let closed = engine.store().commit_ts();
        prop_assert_eq!(closed, instances as u64);
        let model: Vec<_> = entities.iter().copied().zip(model_at(&dir, &entities, closed)).collect();
        prop_assert_eq!(&engine.store().snapshot(), &model);
        prop_assert_eq!(&engine.store().live_snapshot(), &model);
        drop(engine);
        let rec = recover(&dir).unwrap();
        prop_assert_eq!(rec.committed, instances);
        prop_assert_eq!(&rec.store.snapshot(), &model);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Without `wal_sync`, commits leave their decision in the log's buffer
/// until someone can observe them. A scanner beside the writers checks
/// that it is one of those observers: after each `run_read_only`
/// returns, the log file — read through a fresh descriptor, with the
/// engine not flushed — holds the decision of every commit at or below
/// the snapshot's cut (a fresh engine's commit timestamps are exactly
/// `1..=closed`).
#[test]
fn a_snapshot_never_returns_a_decision_the_kernel_has_not_seen() {
    let dir = wal_dir("visible");
    let engine = transfer_engine(
        1_024,
        EngineConfig {
            threads: 2,
            wal_dir: Some(dir.clone()),
            ..Default::default()
        },
    );
    let entities = all_entities(&engine);
    let done = AtomicBool::new(false);
    let scans = std::thread::scope(|s| {
        let scanner = s.spawn(|| {
            let mut scans = 0u32;
            while !done.load(Ordering::Relaxed) {
                let snap = engine.run_read_only(&entities);
                let decided = decided_on_disk(&dir);
                if let Some(ts) = (1..=snap.ts).find(|ts| !decided.contains(ts)) {
                    panic!(
                        "a snapshot at {} returned before the decision of commit {ts} reached the kernel",
                        snap.ts
                    );
                }
                scans += u32::from(snap.ts > 0);
            }
            scans
        });
        assert!(engine.run().all_committed());
        done.store(true, Ordering::Relaxed);
        scanner.join().unwrap()
    });
    assert!(scans > 0, "no scan saw a commit");
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Read-only transactions are invisible to durability: they append no
/// WAL record (byte-identical log files), claim no commit timestamp,
/// and bump no telemetry WAL counter.
#[test]
fn read_only_transactions_write_nothing_to_the_wal() {
    let dir = wal_dir("silent");
    let telemetry = Telemetry::new(TelemetryConfig::default());
    let engine = transfer_engine(
        24,
        EngineConfig {
            threads: 4,
            wal_dir: Some(dir.clone()),
            telemetry: telemetry.clone(),
            ..Default::default()
        },
    );
    assert!(engine.run().all_committed());

    let disk_before = wal_bytes_on_disk(&dir);
    let counter_before = telemetry.snapshot().wal_bytes;
    let ts_before = engine.store().commit_ts();
    assert!(disk_before > 0, "the writer run must have logged");

    let entities = all_entities(&engine);
    for _ in 0..200 {
        let snap = engine.run_read_only(&entities);
        assert_eq!(snap.ts, ts_before);
    }

    assert_eq!(
        wal_bytes_on_disk(&dir),
        disk_before,
        "a read-only transaction appended to the WAL"
    );
    assert_eq!(telemetry.snapshot().wal_bytes, counter_before);
    assert_eq!(
        engine.store().commit_ts(),
        ts_before,
        "a read-only transaction claimed a commit timestamp"
    );
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshot reads never appear in any `D(S)` cycle — structurally: the
/// streaming auditor's graph is built from committed history events,
/// and RO transactions append none. Hammering the read path (including
/// concurrently with a second writer run) leaves the history length,
/// the auditor's node/arc counts, and the serializability verdict
/// exactly where the writers alone put them.
#[test]
fn snapshot_reads_never_enter_the_ds_graph() {
    let telemetry = Telemetry::new(TelemetryConfig::default());
    let engine = transfer_engine(
        20,
        EngineConfig {
            threads: 4,
            telemetry: telemetry.clone(),
            ..Default::default()
        },
    );
    let entities = all_entities(&engine);

    // First writer run, no readers: the baseline D(S) graph.
    assert!(engine.run().all_committed());
    let base = telemetry.snapshot();
    let base_history = engine.report_snapshot().history_len;
    assert_eq!(base.auditor_nodes, 20, "one D(S) node per committed txn");

    // Read-only storm against the quiescent store: nothing moves.
    for _ in 0..500 {
        let _ = engine.run_read_only(&entities);
    }
    let after_reads = telemetry.snapshot();
    assert_eq!(after_reads.auditor_nodes, base.auditor_nodes);
    assert_eq!(after_reads.auditor_arcs, base.auditor_arcs);
    assert_eq!(engine.report_snapshot().history_len, base_history);

    // Second writer run with scanners hammering concurrently: the
    // D(S) graph grows by exactly the writers' contribution, and the
    // audit still certifies — scanner reads contributed no node, no
    // arc, and so can close no cycle.
    let done = AtomicBool::new(false);
    let report = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                s.spawn(|| {
                    while !done.load(Ordering::Relaxed) {
                        let _ = engine.run_read_only(&entities);
                    }
                })
            })
            .collect();
        let report = engine.run_mix(&[(TxnId(0), 10), (TxnId(1), 10)]);
        done.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        report
    });
    assert!(report.all_committed(), "{report:?}");
    assert_eq!(report.serializable, Some(true));
    // The auditor gauge reports the *last run's* graph: exactly the 20
    // second-run writers — had any scanner read entered D(S), the node
    // count would exceed the committed writer count.
    let after = telemetry.snapshot();
    assert_eq!(after.auditor_nodes, 20, "20 writers, 0 readers");
    assert_eq!(
        engine.report_snapshot().history_len,
        base_history + report.history_len,
        "history grew by the second run's writer events alone"
    );
}

/// The `snapshot()` doc contract (satellite 1), asserted under active
/// churn: a chain-backed snapshot taken while writers run is a
/// committed cut — exact conservation — where the old shard-peek
/// implementation could read half a transfer.
#[test]
fn store_snapshot_is_a_committed_cut_under_churn() {
    let engine = transfer_engine(
        120,
        EngineConfig {
            threads: 4,
            ..Default::default()
        },
    );
    let expected: u128 = 1_000 * all_entities(&engine).len() as u128;
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut samples = 0u32;
            while !done.load(Ordering::Relaxed) {
                let cut = engine.store().snapshot();
                let sum: u128 = cut
                    .iter()
                    .filter_map(|(_, v)| v.datum.as_int())
                    .map(u128::from)
                    .sum();
                assert_eq!(sum, expected, "snapshot() split a transfer");
                samples += 1;
            }
            samples
        });
        assert!(engine.run().all_committed());
        done.store(true, Ordering::Relaxed);
        assert!(sampler.join().unwrap() > 0);
    });
}
