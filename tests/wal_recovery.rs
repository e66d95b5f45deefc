//! Write-ahead durability end to end: engines log every write, commit
//! decision, and history event to a WAL directory; `ddlf::engine::recover`
//! replays the committed operations into a fresh store and re-runs the
//! `D(S)` audit over the recovered history. Commit is the durable
//! decision: uncommitted work — including rolled-back wait-die victims
//! and torn log tails — contributes nothing.

use ddlf::engine::wire::frame::{put_frame, read_frame_into};
use ddlf::engine::{
    recover, AdmissionOptions, Engine, EngineConfig, Inflation, Phase, Program, Telemetry,
    TemplateRegistry, Wal, WalError, WalOptions, WalRecord, WriteOp,
};
use ddlf::model::{
    Database, EntityId, NodeId, Op, SystemSpec, Transaction, TransactionSystem, TxnId,
};
use ddlf::workloads::{bank_ordered_pair, bank_uniform_transfer};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ddlf-wal-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The names in a WAL directory, sorted.
fn wal_files(dir: &Path) -> Vec<String> {
    let names = std::fs::read_dir(dir).unwrap();
    let mut names: Vec<_> = names
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

fn banking_engine(dir: &Path, instances: usize) -> Engine {
    let cfg = EngineConfig {
        threads: 4,
        instances,
        ..Default::default()
    };
    banking_engine_with(dir, cfg)
}

fn banking_engine_with(dir: &Path, cfg: EngineConfig) -> Engine {
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
            wal_dir: Some(dir.to_path_buf()),
            ..cfg
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
    // The log keeps each entity's lock order under four worker threads,
    // so replaying it reaches the live verdict over the same number of
    // events.
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

    // Simulate a crash mid-append, both shapes a tear can take: a
    // complete length prefix promising more payload than was written,
    // and a few stray bytes of a half-written prefix.
    let intact = std::fs::read(dir.join("log.wal")).unwrap();
    let promised = [&100u32.to_le_bytes()[..], &[1, 2, 3]].concat();
    for tail in [&promised[..], &[0xAB, 0xCD]] {
        std::fs::write(dir.join("log.wal"), [&intact[..], tail].concat()).unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.torn_tails, 1, "the torn tail is detected");
        assert_eq!(rec.committed, 20, "committed work untouched by the tear");
        assert_eq!(rec.store.snapshot(), live_snapshot);
        assert_eq!(rec.serializable, Some(true), "{:?}", rec.audit_error);
    }
}

#[test]
fn next_base_covers_gids_missing_from_the_decision_log() {
    let dir = wal_dir("inflight");
    let engine = banking_engine(&dir, 20);
    assert!(engine.run().all_committed());
    let live_snapshot = engine.store().snapshot();
    drop(engine);
    // Instances in flight at the crash: a data frame reached the log,
    // no decision (not even a Begin) did. They contribute nothing, but
    // id minting on resume must still start above them, or a resumed
    // run would reuse an id the log already holds records of.
    let attempt = 0;
    let in_flight = [
        WalRecord::Unlock {
            gid: 27,
            attempt,
            nodes: vec![NodeId(0), NodeId(2)],
            written: Some((EntityId(0), WriteOp::Add(-5))),
        },
        WalRecord::Unlock {
            gid: 31,
            attempt,
            nodes: vec![NodeId(0)],
            written: None,
        },
    ];
    let mut rec = recover(&dir).unwrap();
    assert_eq!(rec.next_base, 20);
    for (frame, next_base) in in_flight.iter().zip([28, 32]) {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("log.wal"))
            .unwrap();
        let mut framed = Vec::new();
        put_frame(&mut framed, |b| b.extend(frame.encode())).unwrap();
        f.write_all(&framed).unwrap();
        drop(f);
        rec = recover(&dir).unwrap();
        assert_eq!(rec.committed, 20, "undecided instances are not recovered");
        assert_eq!(rec.store.snapshot(), live_snapshot, "nor are their writes");
        assert_eq!(rec.next_base, next_base, "ids reserved above {frame:?}");
    }

    let resumed = Engine::from_recovered(
        rec,
        AdmissionOptions::default(),
        EngineConfig::default(),
        &dir,
    )
    .unwrap();
    assert!(resumed.run_mix(&[(TxnId(0), 3)]).all_committed());
    drop(resumed);
    let rec = recover(&dir).unwrap();
    assert_eq!(
        (rec.committed, rec.next_base),
        (23, 35),
        "{}",
        rec.summary()
    );
    assert_eq!(rec.serializable, Some(true), "{:?}", rec.audit_error);
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
        .open(dir.join("log.wal"))
        .unwrap();
    f.write_all(&u32::MAX.to_le_bytes()).unwrap();
    drop(f);

    match recover(&dir) {
        Err(WalError::Record(m)) => assert!(m.contains("corrupt frame length"), "{m}"),
        Err(other) => panic!("expected Record error, got {other}"),
        Ok(rec) => panic!("corruption must not recover cleanly: {}", rec.summary()),
    }
}

/// Op tag `0x02` wrote a byte string and is retired, and so is the
/// fixed-width `Write` record (tag `0x02`) that carried it: a log
/// holding a committed one is refused with a typed record error, never
/// replayed or skipped.
#[test]
fn a_write_with_the_retired_op_tag_is_refused() {
    let dir = wal_dir("retired-op");
    let engine = banking_engine(&dir, 4);
    assert!(engine.run().all_committed());
    drop(engine);
    let gid = 1_000u32;
    let mut write = vec![2u8];
    for word in [gid, 0, 0] {
        write.extend(word.to_le_bytes()); // gid, attempt, entity
    }
    write.push(2); // the retired op, then len:u32 and its bytes
    write.extend(1u32.to_le_bytes());
    write.push(9);
    let begin = WalRecord::Begin {
        gid,
        template: 0,
        attempt: 0,
    };
    let commit = WalRecord::Commit {
        gid,
        template: 0,
        attempt: 0,
        commit_ts: 1_000,
    };
    let mut log = Vec::new();
    for payload in [begin.encode(), write, commit.encode()] {
        put_frame(&mut log, |b| b.extend_from_slice(&payload)).unwrap();
    }
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("log.wal"))
        .unwrap();
    f.write_all(&log).unwrap();
    drop(f);

    match recover(&dir) {
        Err(WalError::Record(m)) => assert!(m.contains("did not decode"), "{m}"),
        Err(other) => panic!("expected a Record error, got {other}"),
        Ok(rec) => panic!("the retired op recovered: {}", rec.summary()),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `(frames, bytes)` of each record kind in `dir`'s log, the 4-byte
/// length prefix counted in each frame's bytes.
fn frames_by_kind(dir: &Path) -> BTreeMap<&'static str, (usize, usize)> {
    let log = std::fs::File::open(dir.join("log.wal")).unwrap();
    let mut file = std::io::BufReader::new(log);
    let (mut payload, mut kinds) = (Vec::new(), BTreeMap::new());
    while read_frame_into(&mut file, &mut payload).unwrap() {
        let kind = match WalRecord::decode(&payload).unwrap() {
            WalRecord::Begin { .. } => "Begin",
            WalRecord::Unlock { .. } => "Unlock",
            WalRecord::Commit { .. } => "Commit",
            WalRecord::Abort { .. } => "Abort",
        };
        let (frames, bytes) = kinds.entry(kind).or_insert((0, 0));
        *frames += 1;
        *bytes += 4 + payload.len();
    }
    kinds
}

/// The log's size is a cost every commit pays, counted exactly: a
/// count=1 run of a two-lock transfer (`L a, L b, U a, U b`, writing
/// both) logs one `Begin`, one `Unlock` per unlock — its release batch
/// and its write in one frame — and one `Commit`, 43 bytes in all.
/// (The fixed-width grammar it replaced logged the same run in 162
/// bytes: `Begin` 17, `Write` 2 × 26, `Event` 4 × 17, `Commit` 25.)
#[test]
fn a_count_one_transfer_logs_an_exact_number_of_bytes_per_kind() {
    let dir = wal_dir("bytes-per-kind");
    let db = Database::one_entity_per_site(2);
    let (a, b) = (EntityId(0), EntityId(1));
    let ops = [Op::lock(a), Op::lock(b), Op::unlock(a), Op::unlock(b)];
    let t = Transaction::from_total_order("transfer", &ops, &db).unwrap();
    let mut reg = TemplateRegistry::register(TransactionSystem::new(db, vec![t]).unwrap());
    reg.set_program(TxnId(0), Program::transfer(a, b, 5))
        .unwrap();
    let engine = Engine::with_registry(
        reg,
        EngineConfig {
            instances: 1,
            wal_dir: Some(dir.clone()),
            ..Default::default()
        },
    );
    assert!(engine.run().all_committed());
    drop(engine);
    let kinds = frames_by_kind(&dir);
    assert_eq!(
        kinds,
        BTreeMap::from([("Begin", (1, 8)), ("Unlock", (2, 26)), ("Commit", (1, 9))]),
    );
    let log_bytes = std::fs::metadata(dir.join("log.wal")).unwrap().len();
    assert_eq!(log_bytes, 43);
    assert_eq!(
        recover(&dir).unwrap().history_len,
        4,
        "every event is logged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `fixtures/banking_ordered.json` (8-node transfers writing 4
/// entities, k = 2) logs an exact number of bytes: zero aborts, so one
/// `Begin`, four `Unlock`s and one `Commit` per instance, with gids and
/// commit timestamps 0..N and 1..=N whatever the interleaving. The
/// fixed-width grammar logged 282 bytes per commit, 136 of them events.
#[test]
fn banking_ordered_logs_an_exact_number_of_bytes_per_commit() {
    let dir = wal_dir("bytes-banking-ordered");
    let json = include_str!("../fixtures/banking_ordered.json");
    let sys = serde_json::from_str::<SystemSpec>(json)
        .unwrap()
        .build()
        .unwrap();
    let instances = 1_000;
    let engine = Engine::try_with_admission(
        sys,
        AdmissionOptions {
            inflate: Inflation::Uniform(2),
            ..Default::default()
        },
        EngineConfig {
            threads: 2,
            instances,
            wal_dir: Some(dir.clone()),
            ..Default::default()
        },
    )
    .unwrap();
    let report = engine.run();
    assert!(
        report.all_committed() && report.aborted_attempts == 0,
        "{report:?}"
    );
    drop(engine);
    let kinds = frames_by_kind(&dir);
    let frames: Vec<_> = kinds.iter().map(|(k, &(n, _))| (*k, n)).collect();
    assert_eq!(
        frames,
        [
            ("Begin", instances),
            ("Commit", instances),
            ("Unlock", 4 * instances)
        ]
    );
    let log_bytes = std::fs::metadata(dir.join("log.wal")).unwrap().len();
    // 75.1 bytes per commit: Begin 8.9, Unlock 4 × 13.9, Commit 10.7.
    assert_eq!(log_bytes, 75_105, "{kinds:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Appends `payloads` as frames to `dir`'s log.
fn append_frames(dir: &Path, payloads: &[Vec<u8>]) {
    let mut log = Vec::new();
    for payload in payloads {
        put_frame(&mut log, |b| b.extend_from_slice(payload)).unwrap();
    }
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("log.wal"))
        .unwrap();
    f.write_all(&log).unwrap();
}

fn expect_undecodable(dir: &Path, what: &str) {
    match recover(dir) {
        Err(WalError::Record(m)) => assert!(m.contains("did not decode"), "{what}: {m}"),
        Err(other) => panic!("{what}: expected a Record error, got {other}"),
        Ok(rec) => panic!("{what} recovered: {}", rec.summary()),
    }
}

/// Every record of the fixed-width grammar is retired with its tag: a
/// log holding one — here the old `Begin` (`0x01`) and `Event` (`0x06`),
/// gid, template/attempt and node as u32 LE words — is refused with a
/// typed record error, never misread as a varint record.
#[test]
fn retired_fixed_width_frames_are_refused() {
    for tag in [0x01u8, 0x06] {
        let dir = wal_dir(&format!("retired-{tag}"));
        let engine = banking_engine(&dir, 4);
        assert!(engine.run().all_committed());
        drop(engine);
        let mut old = vec![tag];
        for word in [1_000u32, 0, 0] {
            old.extend(word.to_le_bytes());
        }
        append_frames(&dir, &[old]);
        expect_undecodable(&dir, &format!("tag {tag:#04x}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// An `Unlock` is decoded strictly: a node count that runs past the
/// frame's payload, or a whole record followed by trailing bytes, is
/// refused with a typed record error.
#[test]
fn an_unlock_with_a_bad_node_count_or_trailing_bytes_is_refused() {
    let unlock = WalRecord::Unlock {
        gid: 1_000,
        attempt: 0,
        nodes: vec![NodeId(0), NodeId(1)],
        written: Some((EntityId(0), WriteOp::Add(1))),
    }
    .encode();
    // Tag, the gid in two varint bytes, the attempt: the count is byte 4.
    assert_eq!(unlock[4], 2);
    let mut overrun = unlock.clone();
    overrun[4] = 9;
    let mut trailing = unlock;
    trailing.push(0);
    for (what, bad) in [
        ("node count overrun", overrun),
        ("trailing bytes", trailing),
    ] {
        let dir = wal_dir(&format!("bad-unlock-{}", what.len()));
        let engine = banking_engine(&dir, 4);
        assert!(engine.run().all_committed());
        drop(engine);
        append_frames(&dir, &[bad]);
        expect_undecodable(&dir, what);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn sync_mode_runs_clean_and_recovers_byte_identically() {
    // Power loss itself cannot be simulated in-process; this drives the
    // fsync path end to end: a sync-mode engine fsyncs the log after
    // each commit group's decision frame, must not poison the WAL, and
    // must recover exactly. One log, one fsync: `Phase::Fsync` has one
    // sample per `fdatasync`, and a group costs exactly one even though
    // its transfers write on two shards — with one worker (singleton
    // groups), one per commit.
    for threads in [1, 4] {
        let dir = wal_dir("sync");
        let telemetry = Telemetry::enabled();
        let engine = banking_engine_with(
            &dir,
            EngineConfig {
                threads,
                instances: 20,
                wal_sync: true,
                telemetry: telemetry.clone(),
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
        let fsyncs = telemetry.phase_snapshot().get(Phase::Fsync).count;
        assert_eq!(fsyncs, live.group_flushes);
        assert!(threads > 1 || live.group_flushes == 20, "{live:?}");
        let snapshot = engine.store().snapshot();
        drop(engine);
        assert_eq!(wal_files(&dir), ["log.wal", "meta.json"]);

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.committed, 20);
        assert_eq!(rec.store.snapshot(), snapshot);
        assert_eq!(rec.serializable, Some(true), "{:?}", rec.audit_error);
    }
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

/// A directory of the retired multi-file layout (`meta.json` +
/// `commit.wal`, no `log.wal`) is refused by name — by `recover` and by
/// `Wal::resume` — never read as an empty log.
#[test]
fn the_multi_file_layout_is_refused_not_misread() {
    let dir = wal_dir("oldlayout");
    drop(banking_engine(&dir, 0));
    std::fs::rename(dir.join("log.wal"), dir.join("commit.wal")).unwrap();
    let refusal = |m: String| {
        assert!(
            m.contains("multi-file") && m.contains(&*dir.to_string_lossy()),
            "{m}"
        )
    };
    match recover(&dir) {
        Err(WalError::Meta(m)) => refusal(m),
        Err(other) => panic!("expected a Meta error, got {other}"),
        Ok(rec) => panic!("old layout recovered: {}", rec.summary()),
    }
    let err = Wal::resume(&dir, WalOptions::default()).expect_err("resume must refuse");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    refusal(err.to_string());
    assert!(!dir.join("log.wal").exists(), "refusing creates nothing");
}

/// Rotation clears an older generation whatever layout wrote it: a
/// reused directory ends up holding exactly `meta.json` + `log.wal`.
#[test]
fn rotation_leaves_exactly_meta_and_the_log() {
    let dir = wal_dir("rotate");
    drop(banking_engine(&dir, 0));
    for old in ["commit.wal", "history.wal", "shard-0.wal", "shard-10.wal"] {
        std::fs::write(dir.join(old), b"stale").unwrap();
    }
    std::fs::write(dir.join("notes.wal"), b"not ours").unwrap();
    let engine = banking_engine(&dir, 4);
    assert!(engine.run().all_committed());
    drop(engine);
    // Only the WAL's own names, old and new, are rotated away.
    std::fs::remove_file(dir.join("notes.wal")).expect("an unrelated file is left alone");
    assert_eq!(wal_files(&dir), ["log.wal", "meta.json"]);
    assert_eq!(recover(&dir).unwrap().committed, 4);
}
