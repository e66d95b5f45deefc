//! Write-ahead durability end to end: engines log every write, commit
//! decision, and history event to a WAL directory; `ddlf::engine::recover`
//! replays the committed operations into a fresh store and re-runs the
//! `D(S)` audit over the recovered history. Commit is the durable
//! decision: uncommitted work — including rolled-back wait-die victims
//! and torn log tails — contributes nothing.

use ddlf::engine::{
    recover, AdmissionOptions, Engine, EngineConfig, Inflation, Program, TemplateRegistry, WalError,
};
use ddlf::model::TxnId;
use ddlf::workloads::{bank_ordered_pair, bank_uniform_transfer};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ddlf-wal-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn banking_engine(dir: &Path, instances: usize) -> Engine {
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
    Engine::with_registry(
        reg,
        EngineConfig {
            threads: 4,
            instances,
            wal_dir: Some(dir.to_path_buf()),
            ..Default::default()
        },
    )
}

#[test]
fn recovery_replays_committed_state_and_reaudits() {
    let dir = wal_dir("banking");
    let engine = banking_engine(&dir, 40);
    let live = engine.run();
    assert!(
        live.all_committed() && live.serializable == Some(true),
        "{live:?}"
    );
    // A second run on the same engine: the WAL must keep instance ids
    // globally unique so both runs' histories concatenate.
    let live2 = engine.run();
    assert!(live2.all_committed(), "{live2:?}");
    let live_snapshot = engine.store().snapshot();
    let live_total = engine.store().total_int();
    drop(engine);

    let rec = recover(&dir).unwrap();
    assert_eq!(rec.committed, 80, "{}", rec.summary());
    assert_eq!(rec.torn_tails, 0);
    assert_eq!(rec.replayed_writes, 80 * 2);
    assert_eq!(rec.history_len, 80 * 8, "8 lock/unlock events per instance");
    assert_eq!(
        rec.serializable,
        Some(true),
        "recovered history must pass D(S): {:?}",
        rec.audit_error
    );
    // Live order = logged order under four worker threads: the log and
    // the live auditor were fed inside one critical section, so replaying
    // the log reaches the live verdict over the same number of events.
    assert_eq!(rec.serializable, live.serializable.and(live2.serializable));
    assert_eq!(rec.history_len, live.history_len + live2.history_len);
    // The recovered store is byte-for-byte the live one: same values,
    // same versions.
    assert_eq!(rec.store.snapshot(), live_snapshot);
    assert_eq!(rec.store.total_int(), live_total);
    assert_eq!(rec.next_base, 80);
}

#[test]
fn recovery_after_wait_die_rollbacks_sees_only_committed_effects() {
    let dir = wal_dir("waitdie");
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
    let engine = Engine::with_registry(
        reg,
        EngineConfig {
            threads: 8,
            instances: 100,
            work: Duration::from_micros(60),
            force_fallback: true,
            wal_dir: Some(dir.clone()),
            ..Default::default()
        },
    );
    let live = engine.run();
    assert!(live.all_committed(), "{live:?}");
    assert_eq!(live.dirty_aborts, 0, "{live:?}");
    let live_snapshot = engine.store().snapshot();
    drop(engine);

    // Replay ignores the aborted attempts entirely (their Write records
    // have no Commit; a rollback logs nothing), so the recovered store
    // equals the live post-rollback store exactly.
    let rec = recover(&dir).unwrap();
    assert_eq!(rec.committed, 100);
    assert_eq!(rec.store.snapshot(), live_snapshot);
    assert_eq!(rec.store.total_int(), 6_000, "conservation after replay");
    assert_eq!(rec.serializable, Some(true), "{:?}", rec.audit_error);
}

#[test]
fn torn_tails_mark_the_crash_point_without_losing_committed_work() {
    let dir = wal_dir("torn");
    let engine = banking_engine(&dir, 20);
    let live = engine.run();
    assert!(live.all_committed());
    let live_snapshot = engine.store().snapshot();
    drop(engine);

    // Simulate a crash mid-append: a complete length prefix promising
    // more payload than was written (commit log), and a few stray bytes
    // of a half-written prefix (a shard log).
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("commit.wal"))
        .unwrap();
    f.write_all(&100u32.to_le_bytes()).unwrap();
    f.write_all(&[1, 2, 3]).unwrap();
    drop(f);
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("shard-0.wal"))
        .unwrap();
    f.write_all(&[0xAB, 0xCD]).unwrap();
    drop(f);

    let rec = recover(&dir).unwrap();
    assert_eq!(rec.torn_tails, 2, "both torn tails detected");
    assert_eq!(rec.committed, 20, "committed work untouched by the tear");
    assert_eq!(rec.store.snapshot(), live_snapshot);
    assert_eq!(rec.serializable, Some(true), "{:?}", rec.audit_error);
}

#[test]
fn next_base_covers_gids_missing_from_the_decision_log() {
    let dir = wal_dir("lostbegin");
    let engine = banking_engine(&dir, 20);
    assert!(engine.run().all_committed());
    drop(engine);
    // Simulate a power loss that lost the (unsynced) decision log while
    // shard and history records survived: id minting on resume must
    // still start above every gid that survives anywhere, or a resumed
    // run would collide with the surviving data records.
    std::fs::write(dir.join("commit.wal"), b"").unwrap();

    let rec = recover(&dir).unwrap();
    assert_eq!(rec.committed, 0, "no durable decisions remain");
    assert_eq!(
        rec.next_base, 20,
        "ids reserved above the surviving data records"
    );
}

#[test]
fn corrupt_frame_length_mid_log_is_a_typed_record_error() {
    let dir = wal_dir("corrupt");
    let engine = banking_engine(&dir, 10);
    assert!(engine.run().all_committed());
    drop(engine);
    // A length prefix above MAX_FRAME is never produced by a torn
    // append (which is a prefix of a valid frame): recovery must
    // surface it as corruption, not silently discard the rest of the
    // log as a clean crash point.
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("shard-0.wal"))
        .unwrap();
    f.write_all(&u32::MAX.to_le_bytes()).unwrap();
    drop(f);

    match recover(&dir) {
        Err(WalError::Record(m)) => assert!(m.contains("corrupt frame length"), "{m}"),
        Err(other) => panic!("expected Record error, got {other}"),
        Ok(rec) => panic!("corruption must not recover cleanly: {}", rec.summary()),
    }
}

#[test]
fn sync_mode_runs_clean_and_recovers_byte_identically() {
    // Power loss itself cannot be simulated in-process; this drives the
    // fsync ordering path end to end: a sync-mode engine fsyncs every
    // shard log and the history log before each commit record, must not
    // poison the WAL, and must recover exactly.
    let dir = wal_dir("sync");
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
    let engine = Engine::with_registry(
        reg,
        EngineConfig {
            threads: 4,
            instances: 20,
            wal_dir: Some(dir.clone()),
            wal_sync: true,
            ..Default::default()
        },
    );
    let live = engine.run();
    assert!(
        live.all_committed() && live.serializable == Some(true),
        "{live:?}"
    );
    assert!(
        !engine.wal().unwrap().poisoned(),
        "fsync path must not fail"
    );
    let snapshot = engine.store().snapshot();
    drop(engine);

    let rec = recover(&dir).unwrap();
    assert_eq!(rec.committed, 20);
    assert_eq!(rec.store.snapshot(), snapshot);
    assert_eq!(rec.serializable, Some(true), "{:?}", rec.audit_error);
}

#[test]
fn an_engine_resumed_from_recovery_continues_the_same_wal() {
    let dir = wal_dir("resume");
    let engine = banking_engine(&dir, 20);
    assert!(engine.run().all_committed());
    drop(engine);

    let rec = recover(&dir).unwrap();
    assert_eq!(rec.committed, 20);
    let resumed = Engine::from_recovered(
        rec,
        AdmissionOptions::default(),
        EngineConfig::default(),
        &dir,
    )
    .unwrap();
    // The resumed engine starts from the recovered balances...
    let total_before = resumed.store().total_int();
    assert_eq!(total_before, 6_000);
    // ...and its new work appends to the same WAL above the old ids.
    let (bank, _) = bank_ordered_pair();
    let mix = resumed.run_mix(&[(TxnId(0), 10)]);
    assert!(mix.all_committed(), "{mix:?}");
    drop(resumed);
    let _ = bank;

    let rec2 = recover(&dir).unwrap();
    assert_eq!(rec2.committed, 30, "old and new instances both recovered");
    assert_eq!(rec2.serializable, Some(true), "{:?}", rec2.audit_error);
    assert_eq!(
        rec2.next_base, 30,
        "resume reserved ids above the first run"
    );
}

#[test]
fn recovery_of_an_empty_wal_is_the_initial_store() {
    let dir = wal_dir("empty");
    let engine = banking_engine(&dir, 0);
    let live = engine.run();
    assert_eq!(live.instances, 0);
    drop(engine);

    let rec = recover(&dir).unwrap();
    assert_eq!(rec.committed, 0);
    assert_eq!(rec.store.total_int(), 6_000, "untouched initial values");
    assert_eq!(
        rec.serializable,
        Some(true),
        "an empty committed history is vacuously serializable"
    );
}

#[test]
fn recover_without_meta_is_a_typed_error() {
    let dir = wal_dir("nometa");
    std::fs::create_dir_all(&dir).unwrap();
    match recover(&dir) {
        Err(WalError::Meta(m)) => assert!(m.contains("meta.json"), "{m}"),
        Err(other) => panic!("expected Meta error, got {other}"),
        Ok(_) => panic!("recovery of a meta-less directory must fail"),
    }
}

#[test]
fn wal_refuses_to_rotate_a_directory_that_is_not_a_wal() {
    let dir = wal_dir("notawal");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("precious.txt"), b"do not delete").unwrap();
    let (_, sys) = bank_ordered_pair();
    let err = Engine::try_with_admission(
        sys,
        AdmissionOptions::default(),
        EngineConfig {
            wal_dir: Some(dir.clone()),
            ..Default::default()
        },
    )
    .err()
    .expect("must refuse a non-WAL directory");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert!(dir.join("precious.txt").exists(), "nothing was deleted");
}
