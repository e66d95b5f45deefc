//! Group commit is a durability *optimization*, not a semantics change:
//! every decision is one `Commit` frame, and under `wal_sync` its
//! committer also waits for an fsync that covers it. Whatever one fsync
//! covers, the recovered state must be exactly what the same run without
//! `wal_sync` recovers. Property-tested across admission batches and
//! thread counts — plus the crash contract: every cut of the log
//! recovers exactly the whole `Commit` frames before it.

use ddlf::engine::wal::LOG_BUFFER;
use ddlf::engine::{recover, Engine, EngineConfig, Program, TemplateRegistry, WalRecord, WriteOp};
use ddlf::model::TxnId;
use ddlf::workloads::bank_ordered_pair;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ddlf-wal-group-{}-{tag}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The standard certified banking pair: two transfer templates over two
/// sites, `Add` programs, so the final store state is deterministic
/// regardless of interleaving (commutative writes, fixed instance
/// split) — exactly what makes a sync and a non-sync run comparable.
fn banking_engine(dir: &Path, instances: usize, cfg: EngineConfig) -> Engine {
    let (bank, _) = bank_ordered_pair();
    let programs = [
        Program::transfer(bank.accounts[0][0], bank.accounts[1][0], 5),
        Program::transfer(bank.accounts[1][1], bank.accounts[0][1], 3),
    ];
    banking_engine_with(dir, instances, cfg, programs)
}

/// [`banking_engine`] with explicit programs for its two templates.
fn banking_engine_with(
    dir: &Path,
    instances: usize,
    cfg: EngineConfig,
    programs: [Program; 2],
) -> Engine {
    let (_, sys) = bank_ordered_pair();
    let mut reg = TemplateRegistry::register(sys);
    for (t, program) in programs.into_iter().enumerate() {
        reg.set_program(TxnId(t as u32), program).unwrap();
    }
    Engine::with_registry(
        reg,
        EngineConfig {
            instances,
            wal_dir: Some(dir.to_path_buf()),
            ..cfg
        },
    )
}

proptest! {
    // Each case runs two engines and two recoveries (debug builds also
    // cross-check the batch audit oracle, which is quadratic): keep the
    // case count and instance sizes modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Recovery equivalence: a `wal_sync` run — decisions sharing
    /// fsyncs, batched admission, buffered WAL — recovers to exactly the
    /// state the same inputs recover to without `wal_sync`, across
    /// admission batches and worker counts.
    #[test]
    fn sync_recovery_matches_non_sync(
        instances in 2usize..36,
        threads in 1usize..5,
        admission_batch in 1usize..7,
    ) {
        let dir_sync = wal_dir("sync");
        let dir_plain = wal_dir("plain");
        let cfg = |wal_sync| EngineConfig {
            threads,
            wal_sync,
            admission_batch,
            ..Default::default()
        };

        let synced = banking_engine(&dir_sync, instances, cfg(true));
        let live = synced.run();
        prop_assert!(live.all_committed(), "{live:?}");
        prop_assert_eq!(live.serializable, Some(true));
        prop_assert_eq!(live.group_commits, instances as u64, "every decision is covered by an fsync");
        prop_assert!((1..=live.group_commits).contains(&live.group_flushes));
        prop_assert!(!synced.wal().unwrap().poisoned());
        let live_snapshot = synced.store().snapshot();
        drop(synced);

        let plain = banking_engine(&dir_plain, instances, cfg(false));
        let report = plain.run();
        prop_assert!(report.all_committed());
        prop_assert_eq!(
            (report.group_flushes, report.group_commits),
            (instances as u64, instances as u64),
            "without sync every decision is a group of one"
        );
        drop(plain);

        let rec_sync = recover(&dir_sync).unwrap();
        let rec_plain = recover(&dir_plain).unwrap();
        prop_assert_eq!(rec_sync.committed, instances);
        prop_assert_eq!(rec_sync.committed, rec_plain.committed);
        prop_assert_eq!(rec_sync.torn_tails, 0);
        prop_assert_eq!(rec_sync.serializable, Some(true), "{:?}", rec_sync.audit_error);
        prop_assert_eq!(rec_plain.serializable, Some(true), "{:?}", rec_plain.audit_error);
        // The recovered *states* are identical — same values, same
        // version counts — and both equal the live synced store.
        prop_assert_eq!(rec_sync.store.snapshot(), rec_plain.store.snapshot());
        prop_assert_eq!(rec_sync.store.snapshot(), live_snapshot);
        prop_assert_eq!(rec_sync.store.total_int(), rec_plain.store.total_int());

        let _ = std::fs::remove_dir_all(&dir_sync);
        let _ = std::fs::remove_dir_all(&dir_plain);
    }
}

/// The crash-consistency contract of the one log, swept over a
/// `wal_sync` run: cut `log.wal` at every byte offset after its third-
/// to-last `Commit` frame. Every cut recovers; what it recovers is
/// exactly the whole `Commit` frames before the cut — never an instance
/// whose `Write`s are missing (each transfer writes twice) — the bytes
/// after the last whole decision change nothing in the store, and the
/// recovered history audits.
#[test]
fn every_cut_inside_the_last_two_groups_recovers_the_last_whole_decision() {
    let dir = wal_dir("sweep");
    let engine = banking_engine(
        &dir,
        20,
        EngineConfig {
            threads: 4,
            wal_sync: true,
            admission_batch: 4,
            ..Default::default()
        },
    );
    assert!(engine.run().all_committed());
    let live_snapshot = engine.store().snapshot();
    drop(engine);

    let log = dir.join("log.wal");
    let intact = std::fs::read(&log).unwrap();
    // Every frame's end offset, and for each `Commit` frame (plus the
    // empty prefix) `(end offset, instances decided up to it)`.
    let (mut ends, mut decisions) = (vec![0], vec![(0, 0)]);
    while let Some(&at) = ends.last().filter(|&&at| at < intact.len()) {
        let body = at + 4;
        let end = body + u32::from_le_bytes(intact[at..body].try_into().unwrap()) as usize;
        ends.push(end);
        if let WalRecord::Commit { .. } = WalRecord::decode(&intact[body..end]).unwrap() {
            decisions.push((end, decisions.last().unwrap().1 + 1));
        }
    }
    assert_eq!(decisions.last().unwrap().1, 20);

    let mut expected = Vec::new();
    for cut in decisions[decisions.len() - 3].0..=intact.len() {
        std::fs::write(&log, &intact[..cut]).unwrap();
        let rec = recover(&dir).unwrap();
        let &(whole, decided) = decisions.iter().rev().find(|d| d.0 <= cut).unwrap();
        assert_eq!(rec.committed, decided, "cut at byte {cut}");
        assert_eq!(
            rec.replayed_writes,
            2 * decided as u64,
            "cut at byte {cut}: a committed instance lost its Writes"
        );
        assert_eq!(
            rec.torn_tails,
            usize::from(ends.binary_search(&cut).is_err()),
            "cut at byte {cut}"
        );
        assert_eq!(rec.serializable, Some(true), "{:?}", rec.audit_error);
        if cut == whole {
            expected = rec.store.snapshot();
        }
        assert_eq!(rec.store.snapshot(), expected, "cut at byte {cut}");
    }
    assert_eq!(expected, live_snapshot, "the uncut log is the live store");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A sync committer fsyncs *outside* `wal.log`, so appends of other
/// workers and of a concurrent run land in the buffer while an fsync
/// (or two, one per fsync slot) is in flight. File order must still put every decision after the data it
/// decides over: under `wal_sync`, two concurrent 4-thread runs, every
/// `Commit` is preceded by all of its
/// attempt's `Event` frames (one per template node) and both transfer
/// `Write`s — and no data frame of a decided attempt follows it.
#[test]
fn concurrent_sync_runs_log_every_decision_after_its_data() {
    let dir = wal_dir("sync-order");
    let engine = banking_engine(
        &dir,
        24,
        EngineConfig {
            threads: 4,
            wal_sync: true,
            ..Default::default()
        },
    );
    std::thread::scope(|s| {
        let runs = [s.spawn(|| engine.run()), s.spawn(|| engine.run())];
        for run in runs {
            let report = run.join().unwrap();
            assert!(report.all_committed(), "{report:?}");
            assert_eq!(report.serializable, Some(true));
        }
    });
    assert!(!engine.wal().unwrap().poisoned());
    let sys = engine.registry().system().clone();
    drop(engine);

    let log = std::fs::read(dir.join("log.wal")).unwrap();
    // (events, writes) seen so far per (gid, attempt), and the decided.
    let mut data: HashMap<(u32, u32), (usize, usize)> = HashMap::new();
    let mut decided: HashSet<(u32, u32)> = HashSet::new();
    type Seen = HashMap<(u32, u32), (usize, usize)>;
    fn data_of<'a>(
        data: &'a mut Seen,
        decided: &HashSet<(u32, u32)>,
        key: (u32, u32),
    ) -> &'a mut (usize, usize) {
        assert!(
            !decided.contains(&key),
            "data of {key:?} after its decision"
        );
        data.entry(key).or_default()
    }
    let mut at = 0;
    while at < log.len() {
        let body = at + 4;
        let end = body + u32::from_le_bytes(log[at..body].try_into().unwrap()) as usize;
        match WalRecord::decode(&log[body..end]).unwrap() {
            WalRecord::Event { gid, attempt, .. } => {
                data_of(&mut data, &decided, (gid, attempt)).0 += 1;
            }
            WalRecord::Write { gid, attempt, .. } => {
                data_of(&mut data, &decided, (gid, attempt)).1 += 1;
            }
            WalRecord::Commit {
                gid,
                template,
                attempt,
                ..
            } => {
                let key = (gid, attempt);
                let nodes = sys.txn(TxnId(template)).node_count();
                assert_eq!(
                    *data_of(&mut data, &decided, key),
                    (nodes, 2),
                    "decision of {key:?} before all of its data"
                );
                decided.insert(key);
            }
            WalRecord::Begin { .. } | WalRecord::Abort { .. } => {}
        }
        at = end;
    }
    assert_eq!(decided.len(), 48, "every instance of both runs decided");
    let rec = recover(&dir).unwrap();
    assert_eq!(rec.committed, 48);
    assert_eq!(rec.serializable, Some(true), "{:?}", rec.audit_error);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Without `wal_sync` a commit costs no `write(2)` of its own: a
/// 512-instance run with no reader reaches the kernel only when the log
/// buffer fills and once at the run's end — at most
/// ⌈log bytes / `LOG_BUFFER`⌉ + 1 pushes — while every decision still
/// counts as a decision frame of one.
#[test]
fn a_non_sync_run_pushes_the_log_once_per_buffer_not_per_commit() {
    let dir = wal_dir("pushes");
    let engine = banking_engine(
        &dir,
        512,
        EngineConfig {
            threads: 4,
            admission_batch: 8,
            ..Default::default()
        },
    );
    let report = engine.run();
    assert!(report.all_committed(), "{report:?}");
    assert_eq!((report.group_flushes, report.group_commits), (512, 512));
    let pushes = engine.wal().unwrap().pushes();
    let bytes = std::fs::metadata(dir.join("log.wal")).unwrap().len();
    let bound = bytes.div_ceil(LOG_BUFFER as u64) + 1;
    assert!(
        pushes <= bound,
        "{pushes} pushes for {bytes} log bytes (bound {bound})"
    );
    drop(engine);
    assert_eq!(recover(&dir).unwrap().committed, 512);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under `wal_sync` the buffer still reaches the kernel once per commit
/// group — a sync committer's push before its fsync — plus the run's end.
#[test]
fn a_sync_run_pushes_the_log_once_per_group() {
    let dir = wal_dir("sync-pushes");
    let engine = banking_engine(
        &dir,
        64,
        EngineConfig {
            threads: 4,
            wal_sync: true,
            ..Default::default()
        },
    );
    let report = engine.run();
    assert!(report.all_committed(), "{report:?}");
    let pushes = engine.wal().unwrap().pushes();
    assert!(
        (report.group_flushes..=report.group_flushes + 1).contains(&pushes),
        "{pushes} pushes for {} groups",
        report.group_flushes
    );
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Torn-tail recovery × `wal_sync` × multiversion reads: a recovered
/// store must answer read-only snapshot reads **identically to the live
/// pre-crash store at the same commit timestamp** — every retained cut,
/// not just the final state. Commit timestamps ride the durable
/// decision records and are stamped onto chains rebuilt in log
/// (write) order, so decisions appended out of commit order change
/// nothing. Run twice: the commuting transfer programs, and an
/// **absolute-write** pair (`Put`s on both shared ledgers)
/// where every cut depends on the order the writes were applied in.
#[test]
fn recovered_store_answers_ro_snapshots_at_the_same_ts() {
    let (bank, _) = bank_ordered_pair();
    let (l0, l1) = (bank.ledgers[0], bank.ledgers[1]);
    let absolute = [
        Program::transfer(bank.accounts[0][0], bank.accounts[1][0], 5)
            .write(l0, WriteOp::Put(7))
            .write(l1, WriteOp::Put(13)),
        Program::transfer(bank.accounts[1][1], bank.accounts[0][1], 3)
            .write(l0, WriteOp::Put(9))
            .write(l1, WriteOp::Put(11)),
    ];
    recovered_cuts_match_live("ro-equality-abs", Some(absolute));
    recovered_cuts_match_live("ro-equality", None);
}

fn recovered_cuts_match_live(tag: &str, programs: Option<[Program; 2]>) {
    let dir = wal_dir(tag);
    let cfg = EngineConfig {
        threads: 4,
        wal_sync: true,
        admission_batch: 4,
        ..Default::default()
    };
    let engine = match programs {
        Some(programs) => banking_engine_with(&dir, 24, cfg, programs),
        None => banking_engine(&dir, 24, cfg),
    };
    assert!(engine.run().all_committed());

    // The live multiversion state: the closed clock and every cut.
    let live_closed = engine.store().commit_ts();
    assert_eq!(live_closed, 24, "every commit published");
    let live_cuts: Vec<_> = (0..=live_closed)
        .map(|ts| engine.store().snapshot_at(ts).expect("cut retained"))
        .collect();
    let entities: Vec<_> = engine.store().db().entities().collect();
    let live_ro = engine.store().read_only_snapshot(&entities);
    assert_eq!(live_ro.ts, live_closed);
    drop(engine);

    let rec = recover(&dir).unwrap();
    assert_eq!(rec.committed, 24);
    assert_eq!(
        rec.store.commit_ts(),
        live_closed,
        "the recovered clock resumes at the live closed ts"
    );
    for (ts, live_cut) in live_cuts.iter().enumerate() {
        assert_eq!(
            rec.store.snapshot_at(ts as u64).as_ref(),
            Some(live_cut),
            "cut at ts {ts} diverged after recovery"
        );
    }
    // And the read-only transaction path itself: same ts, same entries.
    assert_eq!(rec.store.read_only_snapshot(&entities), live_ro);

    let _ = std::fs::remove_dir_all(&dir);
}
