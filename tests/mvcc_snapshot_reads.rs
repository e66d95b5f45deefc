//! The oracle-backed consistency layer for multiversion snapshot reads:
//! concurrent writers + read-only scanners, where **every** observed
//! snapshot must
//!
//!   1. be a whole-transaction cut — conserving Σint exactly under
//!      transfer programs,
//!   2. equal an **independent reference model**: the writes of the
//!      log's `Unlock` records replayed in file order, restricted to the
//!      instances whose decision record's timestamp is `≤` the cut — for
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
//! history, or the `D(S)` graph recovery audits — so no snapshot
//! read can ever appear in a `D(S)` cycle (cycles are built solely
//! from committed lock-writer arcs), and the serializability audit of
//! a run is byte-identical with or without concurrent scanners.
//!
//! Every test that runs scanners beside a run stops them through a
//! [`StopOnDrop`] guard, so a run that panics fails its test instead of
//! leaving the scanners spinning and the test hanging.

use ddlf::engine::wire::frame::read_frame_into;
use ddlf::engine::{
    recover, Engine, EngineConfig, Program, Telemetry, TelemetryConfig, TemplateRegistry,
    VersionedValue, WalRecord, WriteOp,
};
use ddlf::model::{EntityId, Op, Transaction, TransactionSystem, TxnId};
use ddlf::workloads::{bank_ordered_pair, Bank};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Sets its flag when dropped — at the end of the scope that runs the
/// engine, and also when that scope unwinds — so the scanners that poll
/// the flag always stop.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

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
    let (mut payload, mut records) = (Vec::new(), Vec::new());
    while read_frame_into(&mut file, &mut payload).unwrap() {
        records.push(WalRecord::decode(&payload).unwrap());
    }
    records
}

/// The commit timestamps of every decision the kernel holds for
/// `dir`'s log, read through a fresh descriptor: whole frames only — a
/// push still in flight may leave a partial frame at the end.
fn decided_on_disk(dir: &Path) -> HashSet<u64> {
    let log = std::fs::File::open(dir.join("log.wal")).unwrap();
    let mut file = std::io::BufReader::new(log);
    let (mut payload, mut decided) = (Vec::new(), HashSet::new());
    while let Ok(true) = read_frame_into(&mut file, &mut payload) {
        if let WalRecord::Commit { commit_ts, .. } = WalRecord::decode(&payload).unwrap() {
            decided.insert(commit_ts);
        }
    }
    decided
}

/// The reference model, sharing no code with the store: per entity, the
/// write ops of the log's `Unlock`s in file order, restricted to the
/// committing attempts whose decision record's timestamp is `≤ cut`.
fn model_at(dir: &Path, entities: &[EntityId], cut: u64) -> Vec<VersionedValue> {
    let records = wal_records(dir);
    let mut decided = HashMap::new();
    for rec in &records {
        if let WalRecord::Commit {
            gid,
            attempt,
            commit_ts,
            ..
        } = *rec
        {
            decided.insert((gid, attempt), commit_ts);
        }
    }
    let seed = VersionedValue {
        version: 0,
        value: 1_000,
    };
    let mut state: HashMap<EntityId, VersionedValue> =
        entities.iter().map(|&e| (e, seed)).collect();
    for rec in records {
        let WalRecord::Unlock {
            gid,
            attempt,
            written: Some((entity, op)),
            ..
        } = rec
        else {
            continue;
        };
        if decided.get(&(gid, attempt)).is_none_or(|&ts| ts > cut) {
            continue;
        }
        let v = state.get_mut(&entity).unwrap();
        v.value = match op {
            WriteOp::Add(d) => v.value.wrapping_add_signed(d),
            WriteOp::Put(n) => n,
        };
        v.version += 1;
    }
    entities.iter().map(|e| state[e]).collect()
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
    /// drawn from `Add`/`Put`, forced onto wait-die. A short
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
        raw_ops in prop::collection::vec((0u8..2, -50i64..50), 10..11),
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
                    _ => WriteOp::Put(n.unsigned_abs()),
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
            let stop = StopOnDrop(&done);
            let report = engine.run();
            drop(stop);
            let cuts: Vec<_> = handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            (report, cuts)
        });
        prop_assert!(report.all_committed(), "{report:?}");
        prop_assert_eq!(report.serializable, Some(true));
        prop_assert!(!captured.is_empty(), "no snapshot was captured");

        // Oracle pass: every captured cut against the log replay, and
        // against `snapshot_at`.
        for snap in &captured {
            let model = model_at(&dir, &entities, snap.ts);
            let at = engine.store().snapshot_at(snap.ts).expect("cut still retained");
            prop_assert_eq!(snap.entries.len(), entities.len());
            for ((entry, want), (_, got)) in snap.entries.iter().zip(&model).zip(&at) {
                prop_assert_eq!(got, want, "snapshot_at({}) diverges from the log", snap.ts);
                prop_assert_eq!(entry.version, want.version, "cut {} {:?}", snap.ts, entry);
                prop_assert_eq!(entry.value, want.value, "cut {} {:?}", snap.ts, entry);
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
/// `1..=closed`). A run can end before the scanner is first scheduled,
/// so the writer runs again, up to `RUNS` times, until a scan has seen
/// a commit.
#[test]
fn a_snapshot_never_returns_a_decision_the_kernel_has_not_seen() {
    const RUNS: usize = 50;
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
    let scans = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let scanner = s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                let snap = engine.run_read_only(&entities);
                let decided = decided_on_disk(&dir);
                if let Some(ts) = (1..=snap.ts).find(|ts| !decided.contains(ts)) {
                    panic!(
                        "a snapshot at {} returned before the decision of commit {ts} reached the kernel",
                        snap.ts
                    );
                }
                scans.fetch_add(usize::from(snap.ts > 0), Ordering::Relaxed);
            }
        });
        let stop = StopOnDrop(&done);
        for _ in 0..RUNS {
            assert!(engine.run().all_committed());
            if scans.load(Ordering::Relaxed) > 0 {
                break;
            }
        }
        drop(stop);
        scanner.join().unwrap()
    });
    assert!(
        scans.into_inner() > 0,
        "no scan saw a commit in {RUNS} runs"
    );
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

/// Snapshot reads never appear in any `D(S)` cycle — structurally:
/// `D(S)` is built from committed history events, and RO transactions
/// append none. Hammering the read path (including concurrently with a
/// second writer run) leaves the history length and the serializability
/// verdict exactly where the writers alone put them, and recovery's
/// whole-log audit of the WAL sees exactly the committed writers.
#[test]
fn snapshot_reads_never_enter_the_ds_graph() {
    let dir = wal_dir("ds-graph");
    let engine = transfer_engine(
        20,
        EngineConfig {
            threads: 4,
            admission_batch: 20,
            wal_dir: Some(dir.clone()),
            ..Default::default()
        },
    );
    let entities = all_entities(&engine);

    // First writer run, no readers: the baseline history.
    let first = engine.run();
    assert!(first.all_committed(), "{first:?}");
    assert_eq!(first.serializable, Some(true));
    let base_history = engine.report_snapshot().history_len;

    // Read-only storm against the quiescent store: nothing moves.
    for _ in 0..500 {
        let _ = engine.run_read_only(&entities);
    }
    assert_eq!(engine.report_snapshot().history_len, base_history);

    // Second writer run with scanners hammering concurrently: the
    // history grows by exactly the writers' contribution, and the run
    // still serializes — scanner reads contributed no node, no arc,
    // and so can close no cycle.
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
        let stop = StopOnDrop(&done);
        let report = engine.run_mix(&[(TxnId(0), 10), (TxnId(1), 10)]);
        drop(stop);
        for h in handles {
            h.join().unwrap();
        }
        report
    });
    assert!(report.all_committed(), "{report:?}");
    assert_eq!(report.serializable, Some(true));
    let history_len = engine.report_snapshot().history_len;
    assert_eq!(
        history_len,
        base_history + report.history_len,
        "history grew by the second run's writer events alone"
    );
    drop(engine);

    // Recovery audits the whole log: had any scanner read entered
    // D(S), it would count an instance or an event more than the 20 + 20
    // committed writers.
    let rec = recover(&dir).unwrap();
    assert_eq!(rec.committed, 40, "20 + 20 writers, 0 readers");
    assert_eq!(rec.history_len, history_len);
    assert_eq!(rec.serializable, Some(true), "{:?}", rec.audit_error);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `snapshot()` doc contract (satellite 1), asserted under active
/// churn: a chain-backed snapshot taken while writers run is a
/// committed cut — exact conservation — where the old shard-peek
/// implementation could read half a transfer. A run can end before the
/// sampler is first scheduled, so the check is repeated on a fresh
/// engine (the transfers drain their accounts, so one engine cannot run
/// twice), up to 50 times, until the sampler has taken a cut.
#[test]
fn store_snapshot_is_a_committed_cut_under_churn() {
    let cut_while_running = || {
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
                    let sum: u128 = cut.iter().map(|(_, v)| u128::from(v.value)).sum();
                    assert_eq!(sum, expected, "snapshot() split a transfer");
                    samples += 1;
                }
                samples
            });
            let stop = StopOnDrop(&done);
            assert!(engine.run().all_committed());
            drop(stop);
            sampler.join().unwrap() > 0
        })
    };
    assert!(
        (0..50).any(|_| cut_while_running()),
        "no cut was taken in 50 runs"
    );
}
