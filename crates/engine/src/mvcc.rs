//! The one versioned value store: per-entity **write-order chains**,
//! the commit clock, and the registry of live snapshot cuts.
//!
//! The paper's transactions are non-two-phase — an entity is unlocked
//! long before its transaction ends — and `D(S)` orders conflicting
//! transactions by the *per-entity lock order*. That order is therefore
//! the only one in which an entity's versions mean anything, and it is
//! the order a `Chain` keeps: `base + [entry{gid, op, commit_ts}]`,
//! appended under the shard mutex at `write_and_release` time. The
//! chain is the only copy of the value:
//!
//! * the **live value** is the fold of every entry (cached as the tip);
//! * an **in-flight write** is simply an entry with no commit stamp;
//! * **commit** stamps the reserved timestamp on the writer's entries
//!   (after the decision is durable) and then closes that timestamp on
//!   the `Clock`, whose `closed` prefix only advances contiguously;
//! * a **wait-die rollback** removes the victim's entry and re-folds
//!   its successors, so the result is the committed-only replay that
//!   [`crate::wal::recover`] computes — by construction, not by case
//!   analysis, and every op applies to every `u64`, so the re-fold
//!   cannot fail;
//! * the **value at cut `s`** is the fold, in chain order, of the
//!   entries stamped `≤ s`;
//! * **GC** folds a decided prefix `≤` the low-watermark of registered
//!   cuts into `base`; the [`CHAIN_CAP`] bound folds a *decided* front
//!   entry in regardless of the watermark, so no reader can pin a chain.
//!   An undecided front entry is never folded — `base` would then carry
//!   a write no cut may contain — so a chain is bounded by the cap plus
//!   the writes that land behind its oldest in-flight writer before
//!   that writer commits or dies (an entry abandoned by an unwinding
//!   commit stays out of every cut and pins its chain).
//!
//! **Single-cut argument.** A reader's cut `s` is a `closed` sample. A
//! committer stamps every one of its entries *before* it closes its
//! timestamp, and `closed ≥ ts` implies `ts` and every earlier
//! timestamp were closed — so at `closed ≥ s` every entry of every
//! commit `≤ s` is already stamped, and any entry stamped later carries
//! a timestamp `> s`. The fold at `s` therefore reflects whole
//! committed transactions only, on every entity, while writers churn.
//! A cut that [`CHAIN_CAP`] trimmed past reads as `None`; the scan then
//! restarts at a fresh `closed` — always one cut, just a newer one.
//!
//! Lock discipline: chains live under their shard's `shard.state`
//! mutex; the clock and the cut registry share the leaf `store.clock`
//! mutex. Neither is ever held with the other or with a second shard.

use crate::store::VersionedValue;
use crate::template::WriteOp;
use ddlf_model::EntityId;
use parking_lot::Mutex;
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

/// Per-entity bound on retained versions (base included) whatever the
/// GC watermark; only an undecided front entry holds a chain above it.
pub const CHAIN_CAP: usize = 64;

/// Auto-GC cadence: one watermark pass per this many closed commits
/// (plus any explicit [`crate::Store::gc_versions`] call). Coarse, so
/// short test runs retain their full history for snapshot-at-ts
/// assertions.
const GC_EVERY: u64 = 256;

/// One entity in a read-only snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoEntry {
    /// The entity read.
    pub entity: EntityId,
    /// Newest commit timestamp `≤` the cut that wrote the entity
    /// (0 = the seeded initial value, never written).
    pub commit_ts: u64,
    /// The version counter of the observed value.
    pub version: u64,
    /// The value at the cut.
    pub value: u64,
}

/// A consistent read-only snapshot: every entry reflects the same
/// committed cut `ts` of the commit clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoSnapshot {
    /// The snapshot timestamp: all commits `≤ ts`, none after.
    pub ts: u64,
    /// One entry per requested entity, in request order.
    pub entries: Vec<RoEntry>,
}

impl RoSnapshot {
    /// Sum of the values observed (conservation checks).
    pub fn sum_int(&self) -> u128 {
        self.entries.iter().map(|e| u128::from(e.value)).sum()
    }

    /// The entry for `entity`, if it was scanned.
    pub fn get(&self, entity: EntityId) -> Option<&RoEntry> {
        self.entries.iter().find(|e| e.entity == entity)
    }
}

/// One write in a chain.
struct Entry {
    /// Global id of the writing instance.
    gid: u32,
    op: WriteOp,
    /// `None` while the writer is undecided.
    commit_ts: Option<u64>,
}

/// One entity's value: a folded `base` plus the retained writes in
/// write (lock) order. Guarded by the owning shard's mutex.
pub(crate) struct Chain {
    entity: EntityId,
    base: VersionedValue,
    /// Newest commit timestamp folded into `base`: cuts below it are no
    /// longer answerable.
    base_ts: u64,
    entries: VecDeque<Entry>,
    /// Cached fold of `base` and every entry — the live value.
    tip: VersionedValue,
}

impl Chain {
    pub(crate) fn new(entity: EntityId, seed: VersionedValue) -> Self {
        Chain {
            entity,
            tip: seed,
            base: seed,
            base_ts: 0,
            entries: VecDeque::new(),
        }
    }

    /// The entity this chain holds.
    pub(crate) fn entity(&self) -> EntityId {
        self.entity
    }

    /// The live value: every write applied, decided or not.
    pub(crate) fn tip(&self) -> VersionedValue {
        self.tip
    }

    /// Retained versions: the base plus one per entry.
    pub(crate) fn len(&self) -> usize {
        1 + self.entries.len()
    }

    /// Appends a write and applies it to the tip. Beyond [`CHAIN_CAP`]
    /// decided front entries fold into `base` whatever the watermark —
    /// bounded state beats a cut nobody can request — but never an
    /// undecided one: `base` is part of every cut it answers.
    pub(crate) fn push(&mut self, gid: u32, op: WriteOp, commit_ts: Option<u64>) {
        self.tip = self.tip.apply(op);
        self.entries.push_back(Entry { gid, op, commit_ts });
        while self.len() > CHAIN_CAP && self.entries[0].commit_ts.is_some() {
            self.fold_front();
        }
    }

    fn fold_front(&mut self) {
        let e = self.entries.pop_front().expect("caller checked non-empty");
        self.base = self.base.apply(e.op);
        self.base_ts = self
            .base_ts
            .max(e.commit_ts.expect("only decided entries fold"));
    }

    /// Commit: stamps `ts` on the undecided entry of `gid`, if any.
    pub(crate) fn stamp(&mut self, gid: u32, ts: u64) {
        if let Some(e) = self.undecided(gid) {
            self.entries[e].commit_ts = Some(ts);
        }
    }

    fn undecided(&self, gid: u32) -> Option<usize> {
        self.entries
            .iter()
            .rposition(|e| e.gid == gid && e.commit_ts.is_none())
    }

    /// Rollback: removes the undecided entry of `gid` and re-folds the
    /// tip over the survivors. Returns whether `gid` had such an entry.
    pub(crate) fn remove(&mut self, gid: u32) -> bool {
        let Some(at) = self.undecided(gid) else {
            return false;
        };
        self.entries.remove(at);
        self.tip = self.entries.iter().fold(self.base, |v, e| v.apply(e.op));
        true
    }

    /// The value at cut `s` and the newest commit timestamp in it: the
    /// fold, in chain order, of the entries stamped `≤ s`. `None` when
    /// `base` already holds a commit newer than `s`.
    pub(crate) fn at(&self, s: u64) -> Option<(u64, VersionedValue)> {
        if self.base_ts > s {
            return None;
        }
        let (mut ts, mut value) = (self.base_ts, self.base);
        for e in &self.entries {
            if let Some(t) = e.commit_ts.filter(|&t| t <= s) {
                value = value.apply(e.op);
                ts = ts.max(t);
            }
        }
        Some((ts, value))
    }

    /// GC: folds the decided prefix stamped `≤ watermark` into `base`.
    /// Returns the retained length.
    pub(crate) fn gc(&mut self, watermark: u64) -> usize {
        while self
            .entries
            .front()
            .is_some_and(|e| e.commit_ts.is_some_and(|t| t <= watermark))
        {
            self.fold_front();
        }
        self.len()
    }
}

/// State behind the `store.clock` leaf mutex.
#[derive(Default)]
struct ClockInner {
    /// Timestamps closed ahead of a predecessor still in its durability
    /// wait: buffered until the prefix is contiguous.
    pending: BTreeSet<u64>,
    /// The registered cuts, as a multiset.
    cuts: Vec<u64>,
    /// Commits closed since the last automatic GC pass.
    since_gc: u64,
}

/// The commit clock and the registry of live snapshot cuts.
pub(crate) struct Clock {
    /// Last allocated commit timestamp (monotone, never reused).
    alloc: AtomicU64,
    /// Highest timestamp such that it and every earlier one is closed.
    /// Written only under `inner`; loaded anywhere.
    closed: AtomicU64,
    inner: Mutex<ClockInner>,
}

impl Clock {
    /// A clock whose first `ts` timestamps are already closed (0 for a
    /// fresh store; the highest durable commit after recovery).
    pub(crate) fn starting_at(ts: u64) -> Self {
        Clock {
            alloc: AtomicU64::new(ts),
            closed: AtomicU64::new(ts),
            inner: Mutex::new_named("store.clock", ClockInner::default()),
        }
    }

    /// Allocates the next commit timestamp. Whoever allocates must
    /// eventually [`Clock::close`] it, or `closed` stalls behind it.
    pub(crate) fn alloc_ts(&self) -> u64 {
        self.alloc.fetch_add(1, SeqCst) + 1
    }

    /// The closed prefix of the clock.
    pub(crate) fn closed_ts(&self) -> u64 {
        self.closed.load(SeqCst)
    }

    /// Closes `ts` and advances `closed` over the contiguous prefix.
    /// Returns whether a GC pass is due (to exactly one caller per
    /// [`GC_EVERY`] closes).
    pub(crate) fn close(&self, ts: u64) -> bool {
        let mut inner = self.inner.lock();
        inner.pending.insert(ts);
        let mut closed = self.closed.load(SeqCst);
        while inner.pending.remove(&(closed + 1)) {
            closed += 1;
        }
        self.closed.store(closed, SeqCst);
        inner.since_gc = (inner.since_gc + 1) % GC_EVERY;
        inner.since_gc == 0
    }

    /// The GC low-watermark: the oldest registered cut, else `closed` —
    /// sampled under the registry mutex, so a cut registered later can
    /// only be newer.
    pub(crate) fn watermark(&self) -> u64 {
        let inner = self.inner.lock();
        let closed = self.closed.load(SeqCst);
        inner.cuts.iter().fold(closed, |w, &c| w.min(c))
    }

    /// Registers a cut at the current `closed`, sampled under the
    /// registry mutex. Never blocks on other readers; the guard
    /// unregisters on drop, so neither an early return nor a panicking
    /// scan can pin the watermark.
    pub(crate) fn register(&self) -> Cut<'_> {
        let mut inner = self.inner.lock();
        let ts = self.closed.load(SeqCst);
        inner.cuts.push(ts);
        Cut { clock: self, ts }
    }
}

/// A registered snapshot cut (see [`Clock::register`]).
pub(crate) struct Cut<'a> {
    clock: &'a Clock,
    ts: u64,
}

impl Cut<'_> {
    /// The cut's timestamp.
    pub(crate) fn ts(&self) -> u64 {
        self.ts
    }

    /// Moves the registration to the current `closed`.
    pub(crate) fn refresh(&mut self) {
        let mut inner = self.clock.inner.lock();
        let slot = inner.cuts.iter_mut().find(|c| **c == self.ts);
        self.ts = self.clock.closed.load(SeqCst);
        *slot.expect("a live cut is registered") = self.ts;
    }
}

impl Drop for Cut<'_> {
    fn drop(&mut self) {
        let mut inner = self.clock.inner.lock();
        if let Some(at) = inner.cuts.iter().position(|&c| c == self.ts) {
            inner.cuts.swap_remove(at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(value: u64) -> Chain {
        Chain::new(EntityId(0), VersionedValue { version: 0, value })
    }

    #[test]
    fn a_cut_folds_the_entries_stamped_at_or_below_it_in_write_order() {
        let mut c = chain(100);
        // Written in the order g1, g2, g3; committed as g2@1, g3@2, and
        // g1 still undecided.
        c.push(1, WriteOp::Add(5), None);
        c.push(2, WriteOp::Put(7), Some(1));
        c.push(3, WriteOp::Add(1), Some(2));
        assert_eq!(c.tip().value, 8);
        assert_eq!(c.at(0).unwrap().1.value, 100);
        let (ts, v) = c.at(1).unwrap();
        assert_eq!((ts, v.version, v.value), (1, 1, 7));
        let (ts, v) = c.at(9).unwrap();
        assert_eq!((ts, v.version, v.value), (2, 2, 8));
        // g1 commits last: it still folds *first*, under the Put.
        c.stamp(1, 3);
        let (ts, v) = c.at(3).unwrap();
        assert_eq!((ts, v.version, v.value), (3, 3, 8));
    }

    #[test]
    fn gc_folds_only_a_decided_prefix_and_keeps_later_cuts_exact() {
        let mut c = chain(0);
        c.push(1, WriteOp::Add(1), Some(1));
        c.push(2, WriteOp::Add(10), None);
        c.push(3, WriteOp::Add(100), Some(2));
        assert_eq!(c.gc(2), 3, "the undecided entry stops the fold");
        assert_eq!(c.at(0), None, "ts 1 is in the base now");
        assert_eq!(c.at(1).unwrap().1.value, 1);
        assert_eq!(c.at(2).unwrap().1.value, 101);
        c.stamp(2, 3);
        assert_eq!(c.gc(3), 1);
        assert_eq!(c.at(3).unwrap().1.value, 111);
        assert_eq!(c.tip().version, 3);
    }

    #[test]
    fn clock_closes_contiguously_and_tolerates_out_of_order_closes() {
        let k = Clock::starting_at(0);
        let (t1, t2, t3) = (k.alloc_ts(), k.alloc_ts(), k.alloc_ts());
        k.close(t2);
        k.close(t3);
        assert_eq!(k.closed_ts(), 0, "t2 and t3 wait for t1");
        k.close(t1);
        assert_eq!(k.closed_ts(), 3);
        assert_eq!(Clock::starting_at(41).alloc_ts(), 42);
    }

    /// The 65th-reader fix: registration is a multiset insert, so any
    /// number of simultaneously held cuts register without blocking;
    /// the watermark is their minimum and dropping them unpins it.
    #[test]
    fn a_hundred_held_cuts_register_without_blocking() {
        let k = Clock::starting_at(0);
        let mut held = Vec::new();
        for _ in 0..100 {
            held.push(k.register());
            k.close(k.alloc_ts());
        }
        assert_eq!(held[0].ts(), 0);
        assert_eq!(held[99].ts(), 99);
        assert_eq!(k.watermark(), 0, "the oldest held cut");
        held.drain(..50);
        assert_eq!(k.watermark(), 50);
        held[0].refresh();
        assert_eq!(k.watermark(), 51, "a refreshed cut re-registers");
        drop(held);
        assert_eq!(k.watermark(), 100, "no reader: the closed clock");
        assert!(k.inner.lock().cuts.is_empty());
    }
}
