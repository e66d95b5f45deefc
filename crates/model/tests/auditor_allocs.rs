//! The streaming auditor's allocation contract, counted exactly: an
//! auditor that has audited one epoch keeps every table's storage
//! through `clear()`, so auditing a second epoch of the same shape — the
//! engine's steady state, one auditor for its lifetime — allocates
//! nothing at all.
//!
//! The count comes from a counting global allocator installed for this
//! test binary only; it counts per thread, so the test harness's own
//! threads cannot disturb it.

use ddlf_model::{
    Database, EntityId, NodeId, Op, StreamingAuditor, Transaction, TransactionSystem, TxnId,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
const EPOCH: u32 = 256;

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

/// Audits one epoch of `EPOCH` attempt-0 instances, gids from `base`,
/// in engine order: an instance's events stream in (buffered until its
/// decision), then it commits. Neighbours share an account and commit
/// in swapped order, so every second instance inserts mid-chain and its
/// arc lands backwards in the topological order.
fn audit_epoch(a: &mut StreamingAuditor, orders: &[Vec<NodeId>], base: u32) -> Option<bool> {
    for pair in (base..base + EPOCH).step_by(2) {
        let gids = [pair, pair + 1];
        for g in gids {
            a.admit(g, TxnId(g % TEMPLATES));
        }
        for g in gids {
            for &node in &orders[(g % TEMPLATES) as usize] {
                a.event(g, 0, node);
            }
        }
        a.commit(gids[1], 0);
        a.commit(gids[0], 0);
    }
    assert_eq!(a.committed(), EPOCH as usize);
    a.seal()
}

#[test]
fn a_cleared_auditor_audits_a_same_shape_epoch_without_allocating() {
    let sys = wide_bank_path();
    let orders: Vec<Vec<NodeId>> = sys.txns().iter().map(|t| t.any_total_order()).collect();
    let mut auditor = StreamingAuditor::new(&sys);

    let before = allocs();
    assert_eq!(audit_epoch(&mut auditor, &orders, 0), Some(true));
    let warming = allocs() - before;
    assert!(warming > 0, "the first epoch builds the tables");

    let before = allocs();
    auditor.clear();
    let verdict = audit_epoch(&mut auditor, &orders, EPOCH);
    let second = allocs() - before;
    assert_eq!(verdict, Some(true));
    assert_eq!(second, 0, "the second epoch allocated {second} times");
}
