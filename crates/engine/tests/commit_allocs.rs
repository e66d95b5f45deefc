//! The executor's allocation contract, counted exactly: once an engine
//! has run a mix of some shape, a run of that shape allocates the same
//! number of times whether it commits 64 instances or 512. What a run
//! allocates is per run (the instance table, the report) or per job
//! (its reused scratch), never per chunk, attempt or commit — so a
//! conflict-free commit allocates nothing, in memory and with a WAL.
//!
//! The count comes from a counting global allocator installed for this
//! test binary only; it counts per thread, so the test harness's own
//! threads cannot disturb it. The runs are at `threads: 1`, so the whole
//! run is on the counting thread.
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
/// the calling thread makes.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// Allocations of one uniform run of `count` instances, which must
/// commit every instance and audit serializable.
fn run_allocs(engine: &Engine, count: usize) -> u64 {
    let mix = engine.uniform_mix(count);
    let before = allocs();
    let report = engine.run_mix(&mix);
    let made = allocs() - before;
    assert!(report.all_committed(), "{report:?}");
    assert_eq!(report.serializable, Some(true));
    made
}

/// Warms `engine` up with two 512-instance runs, then checks that a
/// 64-instance run and a 512-instance run allocate equally often.
fn assert_commits_allocate_nothing(engine: &Engine) {
    for _ in 0..2 {
        run_allocs(engine, 512);
    }
    let small = run_allocs(engine, 64);
    let large = run_allocs(engine, 512);
    assert_eq!(
        small, large,
        "64 instances allocated {small} times, 512 allocated {large}: \
         something allocates per chunk, attempt or commit"
    );
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
    let dir = std::env::temp_dir().join(format!("ddlf-commit-allocs-{}", std::process::id()));
    let engine = engine(Some(dir.clone()));
    assert_commits_allocate_nothing(&engine);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}
