//! The executor's allocation contract, counted exactly: once an engine
//! has run a mix of some shape, a run of that shape allocates the same
//! number of times whether it commits 64 instances or 512. What a run
//! allocates is per run (the instance table, the report) or per job
//! (its reused scratch), never per chunk, attempt or commit — so a
//! conflict-free commit allocates nothing, in memory and with a WAL.
//! The per-run part is pinned too: a warm count=1 run (one Submit of one
//! instance) makes an exact number of allocations totalling under 4 KiB
//! — no phase-histogram snapshot, no per-template name string.
//!
//! The count comes from a counting global allocator installed for this
//! test binary only; it counts calls and bytes per thread, so the test
//! harness's own threads cannot disturb it. The runs are at
//! `threads: 1`, so the whole run is on the counting thread.
//!
//! Release builds only: a debug build also records every event for the
//! batch `D(S)` oracle, which allocates per event by design
//! (`cargo test --release -p ddlf-engine --test commit_allocs`).

use ddlf_engine::{Engine, EngineConfig};
use ddlf_model::{Database, EntityId, Op, Transaction, TransactionSystem};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

/// The system allocator, counting every allocation and reallocation
/// the calling thread makes, and the bytes each asks for.
struct Counting;

/// What the calling thread has allocated: calls, and bytes requested
/// (a reallocation counts its new size).
#[derive(Debug, Clone, Copy)]
struct Allocs {
    calls: u64,
    bytes: u64,
}

thread_local! {
    static ALLOCS: Cell<Allocs> = const { Cell::new(Allocs { calls: 0, bytes: 0 }) };
}

fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|a| {
        let mut n = a.get();
        n.calls += 1;
        n.bytes += bytes as u64;
        a.set(n);
    });
}

fn allocs() -> Allocs {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const TEMPLATES: u32 = 16;

/// The shape of the benchmark's `wide-bank`: 16 two-phase transfers
/// `L x_t, L x_{t+1}, U x_t, U x_{t+1}` over a path of 17 accounts.
fn wide_bank_path() -> TransactionSystem {
    let db = Database::one_entity_per_site(TEMPLATES as usize + 1);
    let txns = (0..TEMPLATES)
        .map(|t| {
            let (a, b) = (EntityId(t), EntityId(t + 1));
            let ops = [Op::lock(a), Op::lock(b), Op::unlock(a), Op::unlock(b)];
            Transaction::from_total_order(format!("transfer_{t:02}"), &ops, &db).unwrap()
        })
        .collect();
    TransactionSystem::new(db, txns).unwrap()
}

/// A one-thread engine at the benchmark's admission batch.
fn engine(wal_dir: Option<PathBuf>) -> Engine {
    Engine::new(
        wide_bank_path(),
        EngineConfig {
            threads: 1,
            admission_batch: 16,
            wal_dir,
            ..Default::default()
        },
    )
}

/// Allocations a warm run makes whatever its size: the instance table,
/// the report's vectors, the job's scratch and the run's bookkeeping.
const RUN_CALLS: u64 = 17;

/// Allocations a warm count=1 run makes.
const COUNT_ONE_CALLS: u64 = 15;

/// What a warm count=1 run may allocate in bytes: its report and
/// instance table, not a phase-histogram snapshot (~16 KB each).
const COUNT_ONE_BYTES: u64 = 4 << 10;

/// Allocations of one uniform run of `count` instances, which must
/// commit every instance and audit serializable.
fn run_allocs(engine: &Engine, count: usize) -> Allocs {
    let mix = engine.uniform_mix(count);
    let before = allocs();
    let report = engine.run_mix(&mix);
    let after = allocs();
    assert!(report.all_committed(), "{report:?}");
    assert_eq!(report.serializable, Some(true));
    Allocs {
        calls: after.calls - before.calls,
        bytes: after.bytes - before.bytes,
    }
}

/// Warms `engine` up with two 512-instance runs, then checks that a
/// 64-instance run and a 512-instance run allocate equally often, and
/// exactly [`RUN_CALLS`] times.
fn assert_commits_allocate_nothing(engine: &Engine) {
    for _ in 0..2 {
        run_allocs(engine, 512);
    }
    let small = run_allocs(engine, 64).calls;
    let large = run_allocs(engine, 512).calls;
    assert_eq!(
        small, large,
        "64 instances allocated {small} times, 512 allocated {large}: \
         something allocates per chunk, attempt or commit"
    );
    assert_eq!(large, RUN_CALLS, "a warm run's allocations moved");
}

/// Warms `engine` up with two count=1 runs, then checks what a third
/// allocates: exactly [`COUNT_ONE_CALLS`] times, under
/// [`COUNT_ONE_BYTES`] in all.
fn assert_count_one_pays_only_for_its_run(engine: &Engine) {
    for _ in 0..2 {
        run_allocs(engine, 1);
    }
    let one = run_allocs(engine, 1);
    assert_eq!(
        one.calls, COUNT_ONE_CALLS,
        "a warm count=1 run's allocations moved: {one:?}"
    );
    assert!(
        one.bytes < COUNT_ONE_BYTES,
        "a warm count=1 run allocated {} bytes: {one:?}",
        one.bytes
    );
}

/// A fresh WAL directory for one test, removed by the caller.
fn wal_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ddlf-commit-allocs-{name}-{}", std::process::id()))
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds run the batch oracle, which allocates per event"
)]
fn a_warm_in_memory_run_allocates_the_same_for_64_and_512_commits() {
    assert_commits_allocate_nothing(&engine(None));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds run the batch oracle, which allocates per event"
)]
fn a_warm_wal_run_allocates_the_same_for_64_and_512_commits() {
    let dir = wal_dir("batch");
    let engine = engine(Some(dir.clone()));
    assert_commits_allocate_nothing(&engine);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds run the batch oracle, which allocates per event"
)]
fn a_warm_count_one_run_allocates_only_for_its_run() {
    assert_count_one_pays_only_for_its_run(&engine(None));
    let dir = wal_dir("one");
    let engine = engine(Some(dir.clone()));
    assert_count_one_pays_only_for_its_run(&engine);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}
