//! The sharded versioned key-value store.
//!
//! Entities live in one shard per database site, mirroring the paper's
//! partition of entities into sites. Each shard owns its values *and*
//! its exclusive lock table behind a single mutex, so a lock grant and
//! the read it authorizes are one critical section — exactly the
//! "scheduler of the site" from §2 of Wolfson & Yannakakis, with data
//! attached.
//!
//! An entity's value is a `u64` and its version counter
//! ([`VersionedValue`]); every [`WriteOp`] applies to every value, so no
//! write, rollback, cut or replay can fail to fold. A value is held
//! exactly once: as the entity's write-order [`Chain`](crate::mvcc) in
//! its shard. The live value is the chain's
//! tip; an in-flight write is an unstamped entry; commit stamps it; a
//! wait-die victim that dies *after* an unlock exposed its write has
//! the entry removed again; a snapshot read folds the entries stamped
//! `≤` its cut. With a WAL attached, every unlock appends its `Unlock`
//! frame — its release batch of events and its write — to the log under
//! the same mutex, so file order is chain order and
//! [`crate::wal::recover`] rebuilds the same chains in one pass (a
//! rollback logs nothing — the removed entry's `Unlock` never gets a
//! `Commit`).
//!
//! An instance has one identity, its engine-lifetime `gid`: it is the
//! holder in the lock tables, the wait-die timestamp, and the key of
//! its chain entries and WAL records.

use crate::lockmgr::{Acquire, LockTable};
use crate::mvcc::{Chain, Clock, RoEntry, RoSnapshot};
use crate::template::WriteOp;
use crate::wal::Wal;
use ddlf_model::{Database, EntityId, IntBuild, NodeId, SiteId, TxnId};
use ddlf_telemetry::{Phase, Telemetry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

/// A versioned value: every write in its history bumps `version`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionedValue {
    /// Monotone write counter (0 = never written).
    pub version: u64,
    /// Current value.
    pub value: u64,
}

impl VersionedValue {
    /// `op` applied to this value, version bumped. The one fold step
    /// shared by the write path, rollback, snapshot reads and recovery.
    pub(crate) fn apply(self, op: WriteOp) -> Self {
        let value = match op {
            WriteOp::Add(delta) => self.value.wrapping_add_signed(delta),
            WriteOp::Put(v) => v,
        };
        VersionedValue {
            version: self.version + 1,
            value,
        }
    }
}

/// Identity of the attempt performing a write, threaded from the
/// executor down to the shard so every lock, chain entry and WAL record
/// is attributed to the one instance id.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WriteCtx {
    /// The instance's engine-lifetime id.
    pub gid: u32,
    /// Attempt number.
    pub attempt: u32,
}

impl WriteCtx {
    /// The instance as the lock tables name it.
    pub(crate) fn holder(&self) -> TxnId {
        TxnId(self.gid)
    }
}

/// Mutable state of one shard: the value chains plus the site's lock
/// table and the grant-delivery channels of queued requesters.
pub(crate) struct ShardState {
    /// Every resident entity's write-order chain — the only value store
    /// (indexed by [`Shard::slot`]).
    chains: Vec<Chain>,
    pub locks: LockTable,
    /// `(instance, entity)` → where to deliver the eventual grant, and
    /// when the requester queued (measures the true queue wait for the
    /// lock-wait histogram; stamping it is one clock read on the
    /// already-contended path).
    pub waiters: HashMap<(TxnId, EntityId), (Sender<EntityId>, Instant), IntBuild>,
    /// Optional log: appended to under this mutex, so file order is
    /// chain order.
    sink: Option<Arc<Wal>>,
    /// Observability handle: promotion records the measured queue wait
    /// into the lock-wait histogram (grants that never queued are
    /// recorded executor-side, so each acquisition yields one sample).
    telemetry: Telemetry,
}

/// One shard: the entities of one [`SiteId`] behind a mutex.
pub struct Shard {
    pub(crate) state: Mutex<ShardState>,
    site: SiteId,
    /// Each resident entity's index into `ShardState::chains`, by global
    /// entity index (immutable; `u32::MAX` = lives on another site).
    slots: Vec<u32>,
}

impl Shard {
    /// The site this shard serves.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Where `entity`'s chain lives. An entity of another site (or of
    /// no schema) yields an index that panics on use.
    fn slot(&self, entity: EntityId) -> usize {
        self.slots[entity.index()] as usize
    }

    /// The queueing request (certified discipline): takes the exclusive
    /// lock on `entity` for `instance` and returns `true`, or queues
    /// FIFO behind the holder and registers the sender `grant_tx` returns
    /// so the releasing thread can hand the lock over (and wake the
    /// requester) later. `grant_tx` is called only when the request
    /// queues, so a request granted at once builds no channel.
    pub(crate) fn request(
        &self,
        instance: TxnId,
        entity: EntityId,
        grant_tx: impl FnOnce() -> Sender<EntityId>,
    ) -> bool {
        let mut st = self.state.lock();
        let granted = st.locks.acquire(instance, entity) == Acquire::Granted;
        if !granted {
            st.waiters
                .insert((instance, entity), (grant_tx(), Instant::now()));
        }
        granted
    }

    /// The non-queueing acquire (wait-die and the replayer): takes the
    /// lock if it is free, else leaves no trace and names the holder.
    pub(crate) fn try_acquire(&self, instance: TxnId, entity: EntityId) -> Result<(), TxnId> {
        let mut st = self.state.lock();
        match st.locks.holder(entity) {
            Some(holder) if holder != instance => Err(holder),
            _ => {
                st.locks.acquire(instance, entity);
                Ok(())
            }
        }
    }

    /// Unlocks `entity`: logs the unlock's release batch `events` and
    /// its `write` (if any) as one `Unlock` frame, applies the write
    /// under the still-held lock, then releases `entity`, handing the
    /// lock to the next FIFO waiter.
    pub(crate) fn write_and_release(
        &self,
        ctx: &WriteCtx,
        entity: EntityId,
        write: Option<WriteOp>,
        events: &[NodeId],
    ) {
        let mut st = self.state.lock();
        st.apply_logged(ctx, self.slot(entity), write, events);
        st.release_and_promote(ctx.holder(), entity);
    }

    /// Releases `entity` without writing (abort path, plain unlock of a
    /// dying attempt's held locks).
    pub(crate) fn release(&self, instance: TxnId, entity: EntityId) {
        self.state.lock().release_and_promote(instance, entity);
    }

    /// Rolls back the write the attempt applied to `entity`, if it is
    /// still undecided: its chain entry is removed and the tip re-folded
    /// over the survivors (see [`Chain::remove`]). Returns whether there
    /// was such a write. Nothing is logged — recovery replays committed
    /// attempts only.
    pub(crate) fn undo_write(&self, ctx: &WriteCtx, entity: EntityId) -> bool {
        self.state.lock().chains[self.slot(entity)].remove(ctx.gid)
    }

    /// Reads the live value of `entity` without taking its lock
    /// (undecided writes included).
    pub(crate) fn peek(&self, entity: EntityId) -> VersionedValue {
        self.state.lock().chains[self.slot(entity)].tip()
    }
}

impl ShardState {
    /// Logs one unlock's `Unlock` frame (write-ahead), then applies its
    /// write, if any, as an undecided entry of the entity's chain.
    fn apply_logged(
        &mut self,
        ctx: &WriteCtx,
        slot: usize,
        write: Option<WriteOp>,
        events: &[NodeId],
    ) {
        let chain = &mut self.chains[slot];
        if let Some(wal) = &self.sink {
            let written = write.map(|op| (chain.entity(), op));
            wal.append_unlock(ctx.gid, ctx.attempt, events, written);
        }
        if let Some(op) = write {
            chain.push(ctx.gid, op, None);
        }
    }

    /// Releases and hands the lock to the next FIFO waiter, delivering
    /// the grant on the waiter's channel. A waiter whose channel is gone
    /// (its attempt aborted between queueing and promotion) is skipped
    /// and the lock freed onward.
    fn release_and_promote(&mut self, instance: TxnId, entity: EntityId) {
        let mut releasing = instance;
        while let Some(next) = self.locks.release(releasing, entity) {
            if let Some((tx, since)) = self.waiters.remove(&(next, entity)) {
                if tx.send(entity).is_ok() {
                    // The promoted waiter's queue wait, measured from the
                    // moment it queued to the hand-over — a parked
                    // requester's lock-wait sample.
                    self.telemetry.record(Phase::LockWait, since.elapsed());
                    return; // handed over
                }
            }
            // Waiter vanished: free the lock again on its behalf.
            releasing = next;
        }
    }
}

/// The sharded store: one [`Shard`] per database site, plus the commit
/// [`Clock`](crate::mvcc) that gives the shards' chains a common cut.
/// See [`crate::mvcc`] and the "Multiversion snapshot reads" section of
/// `ARCHITECTURE.md`.
pub struct Store {
    shards: Vec<Shard>,
    db: Database,
    clock: Clock,
    /// The log every shard appends to, kept here too so a snapshot read
    /// can push a decision it observed out of the log's user-space
    /// buffer before returning it.
    wal: Option<Arc<Wal>>,
    /// Gauge sink for the GC pass.
    telemetry: Telemetry,
}

impl Store {
    /// Builds a store for `db`, initializing every entity to `initial`
    /// at version 0.
    pub fn new(db: &Database, initial: u64) -> Self {
        let mut shards: Vec<Shard> = (0..db.site_count())
            .map(|s| Shard {
                state: Mutex::new_named(
                    "shard.state",
                    ShardState {
                        chains: Vec::new(),
                        locks: LockTable::new(),
                        waiters: HashMap::default(),
                        sink: None,
                        telemetry: Telemetry::disabled(),
                    },
                ),
                site: SiteId::from_index(s),
                slots: vec![u32::MAX; db.entity_count()],
            })
            .collect();
        for e in db.entities() {
            let seed = VersionedValue {
                version: 0,
                value: initial,
            };
            let shard = &mut shards[db.site_of(e).index()];
            let chains = &mut shard.state.get_mut().chains;
            shard.slots[e.index()] = chains.len() as u32;
            chains.push(Chain::new(e, seed));
        }
        Self {
            shards,
            db: db.clone(),
            clock: Clock::starting_at(0),
            wal: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Recovery: appends one committed write, already stamped, to its
    /// chain (no locks, no logging — recovery is single-threaded over a
    /// private store, fed in log file order).
    pub(crate) fn recover_write(
        &mut self,
        entity: EntityId,
        gid: u32,
        op: WriteOp,
        commit_ts: u64,
    ) {
        let shard = &mut self.shards[self.db.site_of(entity).index()];
        let slot = shard.slot(entity);
        shard.state.get_mut().chains[slot].push(gid, op, Some(commit_ts));
    }

    /// Recovery: resumes the clock past the highest durable commit.
    pub(crate) fn resume_clock(&mut self, commit_ts: u64) {
        self.clock = Clock::starting_at(commit_ts);
    }

    /// Attaches the log: every shard's writes are appended to `wal`
    /// (a fresh engine's new directory, or a resumed one's recovered).
    pub(crate) fn attach_wal(&mut self, wal: &Arc<Wal>) {
        for shard in &mut self.shards {
            shard.state.get_mut().sink = Some(Arc::clone(wal));
        }
        self.wal = Some(Arc::clone(wal));
    }

    /// Called by every committed read once it has read, holding no lock:
    /// a decision the read may show is pushed to the kernel before the
    /// read returns (see [`Wal::push_decisions`]).
    fn push_decisions(&self) {
        if let Some(wal) = &self.wal {
            wal.push_decisions();
        }
    }

    /// Hands every shard the engine's telemetry handle so lock
    /// promotions can record measured queue waits. Called once at
    /// engine construction, before any worker can touch a shard.
    pub(crate) fn set_telemetry(&mut self, telemetry: &Telemetry) {
        for shard in &mut self.shards {
            shard.state.get_mut().telemetry = telemetry.clone();
        }
        self.telemetry = telemetry.clone();
    }

    /// The shard owning `entity`.
    pub fn shard_of(&self, entity: EntityId) -> &Shard {
        &self.shards[self.db.site_of(entity).index()]
    }

    /// The schema the store was built for.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Every listed entity at cut `s` (a brief leaf `shard.state`
    /// acquisition each) as `view(entity, newest commit ts, value)`, or
    /// `None` if some chain was trimmed past `s`.
    fn read_at<T>(
        &self,
        entities: &[EntityId],
        s: u64,
        view: impl Fn(EntityId, u64, VersionedValue) -> T,
    ) -> Option<Vec<T>> {
        let mut out = Vec::with_capacity(entities.len());
        for &e in entities {
            let shard = self.shard_of(e);
            let (ts, value) = shard.state.lock().chains[shard.slot(e)].at(s)?;
            out.push(view(e, ts, value));
        }
        Some(out)
    }

    /// Reads `entities` at one registered cut of the closed clock. The
    /// registration pins the GC watermark; only the [`CHAIN_CAP`] trim
    /// can outrun it, and then the whole scan restarts at a fresh
    /// `closed` — the result is always a single cut, never a mixed one.
    /// With the cut released, every decision the cut may show is pushed
    /// to the kernel before the scan returns.
    ///
    /// [`CHAIN_CAP`]: crate::mvcc::CHAIN_CAP
    fn scan<T>(
        &self,
        entities: &[EntityId],
        view: impl Fn(EntityId, u64, VersionedValue) -> T,
    ) -> (u64, Vec<T>) {
        let read = {
            let mut cut = self.clock.register();
            loop {
                if let Some(values) = self.read_at(entities, cut.ts(), &view) {
                    break (cut.ts(), values);
                }
                std::thread::yield_now();
                cut.refresh();
            }
        };
        self.push_decisions();
        read
    }

    /// A true committed snapshot: every entity at the current closed
    /// commit timestamp, sorted by entity. Safe to call while writers
    /// churn: it reflects whole committed transactions only, and for
    /// each entity it is the fold of those transactions' writes in the
    /// order they were applied — so at quiescence it *is*
    /// [`Store::live_snapshot`].
    pub fn snapshot(&self) -> Vec<(EntityId, VersionedValue)> {
        let entities: Vec<EntityId> = self.db.entities().collect();
        self.scan(&entities, |e, _, value| (e, value)).1
    }

    /// The committed state at cut `ts`, sorted by entity. `None` when
    /// `ts` is ahead of the closed clock or behind what GC still
    /// retains for some entity. Like every committed read, it returns
    /// no decision the kernel has not seen.
    pub fn snapshot_at(&self, ts: u64) -> Option<Vec<(EntityId, VersionedValue)>> {
        if ts > self.clock.closed_ts() {
            return None;
        }
        let entities: Vec<EntityId> = self.db.entities().collect();
        let read = self.read_at(&entities, ts, |e, _, value| (e, value));
        self.push_decisions();
        read
    }

    /// The raw *live* values, undecided writes included — only
    /// consistent when quiescent (and then equal to
    /// [`Store::snapshot`]).
    pub fn live_snapshot(&self) -> Vec<(EntityId, VersionedValue)> {
        self.db
            .entities()
            .map(|e| (e, self.shard_of(e).peek(e)))
            .collect()
    }

    /// The read-only transaction: every entity in `entities` at one
    /// freshly claimed committed cut. No lock-table entry, no WAL
    /// record; the only locks are the leaf registry mutex and one brief
    /// leaf `shard.state` acquisition per entity — plus, on a non-sync
    /// WAL, `wal.log` taken alone after the scan when a decision the cut
    /// may show is still in the log's user-space buffer, so no snapshot
    /// returns a commit the kernel has not seen. See [`crate::mvcc`]
    /// for the single-cut argument.
    ///
    /// # Panics
    /// Panics when an entity is not in the schema (the cut registration
    /// is guard-scoped, so the unwind cannot pin the GC watermark).
    pub fn read_only_snapshot(&self, entities: &[EntityId]) -> RoSnapshot {
        let (ts, entries) = self.scan(entities, |entity, commit_ts, v| RoEntry {
            entity,
            commit_ts,
            version: v.version,
            value: v.value,
        });
        RoSnapshot { ts, entries }
    }

    /// The closed prefix of the commit clock — the ts a new read-only
    /// snapshot would observe.
    pub fn commit_ts(&self) -> u64 {
        self.clock.closed_ts()
    }

    /// Garbage-collects the chains against the low-watermark of live
    /// read-only snapshots, one shard at a time, and publishes the chain
    /// gauges (also runs automatically every few hundred commits).
    /// Returns `(retained versions, longest chain, watermark)`.
    pub fn gc_versions(&self) -> (u64, u64, u64) {
        let watermark = self.clock.watermark();
        let (mut total, mut longest) = (0u64, 0u64);
        for shard in &self.shards {
            for chain in shard.state.lock().chains.iter_mut() {
                let len = chain.gc(watermark) as u64;
                total += len;
                longest = longest.max(len);
            }
        }
        self.telemetry.set_chains(total, longest, watermark);
        (total, longest, watermark)
    }

    /// Reserves the next commit timestamp (commit path only). Dropping
    /// the reservation closes the timestamp, so a panic between
    /// allocation and [`Store::publish_commit`] (WAL I/O, say) cannot
    /// stall the closed clock — and with it every later commit's
    /// visibility — forever.
    pub(crate) fn reserve_commit_ts(&self) -> TsReservation<'_> {
        TsReservation {
            store: self,
            ts: self.clock.alloc_ts(),
        }
    }

    /// Commits instance `gid` at the reserved timestamp: stamps its
    /// entry on every entity in `written` (one shard at a time), then
    /// closes the timestamp. Call after the commit record is appended:
    /// under `sync` it is then durable; without, it may still sit in the
    /// log's buffer, and every snapshot that can show it pushes it to
    /// the kernel before returning.
    pub(crate) fn publish_commit(
        &self,
        ts: TsReservation<'_>,
        gid: u32,
        written: impl IntoIterator<Item = EntityId>,
    ) {
        for e in written {
            let shard = self.shard_of(e);
            shard.state.lock().chains[shard.slot(e)].stamp(gid, ts.ts);
        }
        drop(ts); // closes the timestamp
    }

    /// Sum of all committed values — conservation checks for transfer
    /// workloads. Widened to `u128`: the old `u64` wrapping sum could
    /// let a non-conserving run wrap back onto the expected total and
    /// pass its conservation check.
    pub fn total_int(&self) -> u128 {
        self.snapshot()
            .iter()
            .map(|(_, v)| u128::from(v.value))
            .sum()
    }

    /// Sum of all committed versions — total committed writes.
    pub fn total_versions(&self) -> u64 {
        self.snapshot().iter().map(|(_, v)| v.version).sum()
    }
}

/// An allocated commit timestamp awaiting its close. The closed clock
/// only advances over a *contiguous* prefix, so every allocated ts must
/// eventually close — a hole would stall every later commit's
/// visibility. Dropping the reservation closes it, stamped entries or
/// not: an unwind between allocation and stamping leaves a gap the
/// clock closes over, exactly like the gaps recovery tolerates for
/// timestamps that never became durable.
pub(crate) struct TsReservation<'a> {
    store: &'a Store,
    ts: u64,
}

impl TsReservation<'_> {
    /// The reserved commit timestamp (log it in the durable record).
    pub(crate) fn ts(&self) -> u64 {
        self.ts
    }
}

impl Drop for TsReservation<'_> {
    fn drop(&mut self) {
        if self.store.clock.close(self.ts) {
            self.store.gc_versions();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn store2() -> Store {
        store_n(2, 100)
    }

    fn ctx(instance: u32) -> WriteCtx {
        WriteCtx {
            gid: instance,
            attempt: 0,
        }
    }

    /// Commits `c`'s write on `e`: stamp at a fresh timestamp, close it.
    fn commit(s: &Store, c: &WriteCtx, e: EntityId) {
        s.publish_commit(s.reserve_commit_ts(), c.gid, [e]);
    }

    /// Applies `op` as `c`'s (still undecided) write, skipping the lock
    /// table — most tests below drive chains and clock directly.
    fn write(s: &Store, c: &WriteCtx, e: EntityId, op: WriteOp) {
        let shard = s.shard_of(e);
        shard
            .state
            .lock()
            .apply_logged(c, shard.slot(e), Some(op), &[]);
    }

    fn chain_len(s: &Store, e: EntityId) -> usize {
        let shard = s.shard_of(e);
        let len = shard.state.lock().chains[shard.slot(e)].len();
        len
    }

    /// One whole committed transfer of `amount` by instance `gid`.
    fn transfer(s: &Store, gid: u32, from: u32, to: u32, amount: i64) {
        let (from, to) = (EntityId(from), EntityId(to));
        write(s, &ctx(gid), from, WriteOp::Add(-amount));
        write(s, &ctx(gid), to, WriteOp::Add(amount));
        s.publish_commit(s.reserve_commit_ts(), gid, [from, to]);
    }

    fn store_n(n: usize, initial: u64) -> Store {
        Store::new(&Database::one_entity_per_site(n), initial)
    }

    fn ints(snap: &[(EntityId, VersionedValue)]) -> Vec<u64> {
        snap.iter().map(|(_, v)| v.value).collect()
    }

    #[test]
    fn initial_values_seeded() {
        let s = store2();
        assert_eq!(s.total_int(), 200);
        assert_eq!(s.total_versions(), 0);
        assert_eq!(s.shard_of(EntityId(0)).peek(EntityId(0)).value, 100);
    }

    #[test]
    fn grant_read_write_release_cycle() {
        let s = store2();
        let e = EntityId(0);
        let (tx, _rx) = channel();
        assert!(s.shard_of(e).request(TxnId(0), e, || tx.clone()));
        assert_eq!(s.shard_of(e).peek(e).value, 100);
        s.shard_of(e)
            .write_and_release(&ctx(0), e, Some(WriteOp::Add(-30)), &[]);
        let after = s.shard_of(e).peek(e);
        assert_eq!(after.value, 70);
        assert_eq!(after.version, 1);
    }

    #[test]
    fn queued_request_gets_grant_on_release() {
        let s = store2();
        let e = EntityId(0);
        let (tx0, _rx0) = channel();
        let (tx1, rx1) = channel();
        assert!(s.shard_of(e).request(TxnId(0), e, || tx0.clone()));
        assert!(!s.shard_of(e).request(TxnId(1), e, || tx1.clone()));
        s.shard_of(e).write_and_release(&ctx(0), e, None, &[]);
        assert_eq!(rx1.try_recv(), Ok(e));
        // T1 now holds it.
        assert_eq!(s.shard_of(e).state.lock().locks.holder(e), Some(TxnId(1)));
    }

    #[test]
    fn vanished_waiter_does_not_wedge_the_lock() {
        let s = store2();
        let e = EntityId(0);
        let (tx0, _rx0) = channel();
        assert!(s.shard_of(e).request(TxnId(0), e, || tx0.clone()));
        {
            let (tx1, rx1) = channel();
            assert!(!s.shard_of(e).request(TxnId(1), e, || tx1.clone()));
            drop(rx1); // T1's worker is gone
            drop(tx1);
        }
        let (tx2, rx2) = channel();
        assert!(!s.shard_of(e).request(TxnId(2), e, || tx2.clone()));
        s.shard_of(e).write_and_release(&ctx(0), e, None, &[]);
        // T1's grant bounced; T2 must receive it.
        assert_eq!(rx2.try_recv(), Ok(e));
    }

    #[test]
    fn a_refused_try_acquire_names_the_holder_and_leaves_no_queue_entry() {
        let s = store2();
        let e = EntityId(0);
        assert_eq!(s.shard_of(e).try_acquire(TxnId(0), e), Ok(()));
        assert_eq!(s.shard_of(e).try_acquire(TxnId(1), e), Err(TxnId(0)));
        assert!(s.shard_of(e).state.lock().locks.waiters(e).is_empty());
        s.shard_of(e).write_and_release(&ctx(0), e, None, &[]);
        assert_eq!(s.shard_of(e).state.lock().locks.holder(e), None);
        assert_eq!(s.shard_of(e).try_acquire(TxnId(1), e), Ok(()));
    }

    #[test]
    fn abort_restores_exact_pre_attempt_value_and_version() {
        let s = store2();
        let e = EntityId(0);
        // A committed write first, so the pre-attempt version is nonzero.
        write(&s, &ctx(0), e, WriteOp::Add(11));
        commit(&s, &ctx(0), e);
        let pre = s.shard_of(e).peek(e);
        assert_eq!((pre.version, pre.value), (1, 111));

        // The doomed attempt writes and unlocks (the dirty-abort shape),
        // then dies: the exact (datum, version) must come back.
        let c = ctx(1);
        write(&s, &c, e, WriteOp::Add(-40));
        assert_eq!(s.shard_of(e).peek(e).value, 71);
        assert!(s.shard_of(e).undo_write(&c, e));
        assert_eq!(s.shard_of(e).peek(e), pre);
        // Idempotent: the entry is consumed.
        assert!(!s.shard_of(e).undo_write(&c, e));
    }

    #[test]
    fn undo_compensates_add_when_a_later_writer_intervened() {
        let s = store2();
        let e = EntityId(0);
        // Doomed attempt 0 writes +50 and unlocks.
        let c0 = ctx(0);
        write(&s, &c0, e, WriteOp::Add(50));
        // Instance 1 sneaks in, writes +7, commits.
        write(&s, &ctx(1), e, WriteOp::Add(7));
        commit(&s, &ctx(1), e);
        // Undo of instance 0 must keep instance 1's committed +7.
        assert!(s.shard_of(e).undo_write(&c0, e));
        let v = s.shard_of(e).peek(e);
        assert_eq!(v.value, 107);
        assert_eq!(v.version, 1, "only the committed write remains counted");
    }

    #[test]
    fn undo_after_intervening_put_keeps_the_put_not_the_inverse_delta() {
        // The unsound-compensation regression: a committed Put after the
        // dead Add already erased the dead delta, so subtracting it
        // again would corrupt the committed value (200 → 150).
        let s = store2();
        let e = EntityId(0);
        let c0 = ctx(0);
        write(&s, &c0, e, WriteOp::Add(50));
        write(&s, &ctx(1), e, WriteOp::Put(200));
        commit(&s, &ctx(1), e);
        assert!(s.shard_of(e).undo_write(&c0, e));
        let v = s.shard_of(e).peek(e);
        assert_eq!(v.value, 200, "the absolute write stands");
        assert_eq!(v.version, 1, "only the committed write remains counted");
    }

    #[test]
    fn undo_of_overwritten_put_is_erased_and_keeps_the_overwrite() {
        let s = store2();
        let e = EntityId(0);
        let c0 = ctx(0);
        write(&s, &c0, e, WriteOp::Put(5));
        // A later Put destroyed every trace of the dead Put.
        write(&s, &ctx(1), e, WriteOp::Put(1));
        commit(&s, &ctx(1), e);
        assert!(s.shard_of(e).undo_write(&c0, e));
        let v = s.shard_of(e).peek(e);
        // The later committed write stays; the dead version bump is gone.
        assert_eq!(v.value, 1);
        assert_eq!(v.version, 1);
    }

    #[test]
    fn undo_of_dead_put_under_delta_interference_rebases_the_deltas() {
        // Dead Put(500) over Int(100), then a committed Add(+7) rode on
        // the 500. Removing the Put re-bases the +7 onto the before-
        // image: 107 — the generalized delta compensation.
        let s = store2();
        let e = EntityId(0);
        let c0 = ctx(0);
        write(&s, &c0, e, WriteOp::Put(500));
        write(&s, &ctx(1), e, WriteOp::Add(7));
        commit(&s, &ctx(1), e);
        assert!(s.shard_of(e).undo_write(&c0, e));
        let v = s.shard_of(e).peek(e);
        assert_eq!(v.value, 107);
        assert_eq!(v.version, 1);
    }

    #[test]
    fn overlapping_doomed_writers_cannot_resurrect_a_dead_delta() {
        // Two victims on one entity: A (Add +50) then B (Put 200), both
        // still in flight when A is undone. With before-images, B's
        // stale image embedded A's +50 and B's later undo resurrected
        // it; removing entries leaves nothing to resurrect from.
        let s = store2();
        let e = EntityId(0);
        let a = ctx(0);
        let b = ctx(1);
        write(&s, &a, e, WriteOp::Add(50));
        write(&s, &b, e, WriteOp::Put(200));
        assert!(s.shard_of(e).undo_write(&a, e));
        assert!(s.shard_of(e).undo_write(&b, e));
        let v = s.shard_of(e).peek(e);
        assert_eq!((v.version, v.value), (0, 100));
    }

    #[test]
    fn overlapping_doomed_writers_undo_in_reverse_order_too() {
        let s = store2();
        let e = EntityId(0);
        let a = ctx(0);
        let b = ctx(1);
        write(&s, &a, e, WriteOp::Add(50));
        write(&s, &b, e, WriteOp::Put(200));
        assert!(s.shard_of(e).undo_write(&b, e));
        assert!(s.shard_of(e).undo_write(&a, e));
        let v = s.shard_of(e).peek(e);
        assert_eq!((v.version, v.value), (0, 100));
    }

    #[test]
    fn undoing_an_absolute_write_retracts_the_witness() {
        // Victim W (Add +50) is in flight when victim A lands Put(999)
        // on top and is undone first; a committed +7 then intervenes.
        // W's undo must still take its own dead +50 out — the case the
        // old absolute-write witness got wrong when A's undo left it
        // raised.
        let s = store2();
        let e = EntityId(0);
        let w = ctx(0);
        write(&s, &w, e, WriteOp::Add(50));
        let a = ctx(1);
        write(&s, &a, e, WriteOp::Put(999));
        assert!(s.shard_of(e).undo_write(&a, e));
        write(&s, &ctx(2), e, WriteOp::Add(7));
        commit(&s, &ctx(2), e);
        assert!(s.shard_of(e).undo_write(&w, e));
        let v = s.shard_of(e).peek(e);
        assert_eq!((v.version, v.value), (1, 107));
    }

    #[test]
    fn three_interleaved_doomed_deltas_undo_middle_first() {
        let s = store2();
        let e = EntityId(0);
        let cs: Vec<WriteCtx> = (0..3).map(ctx).collect();
        for (c, d) in cs.iter().zip([10i64, 20, 30]) {
            write(&s, c, e, WriteOp::Add(d));
        }
        assert_eq!(s.shard_of(e).peek(e).value, 160);
        assert!(s.shard_of(e).undo_write(&cs[1], e));
        assert!(s.shard_of(e).undo_write(&cs[0], e));
        assert!(s.shard_of(e).undo_write(&cs[2], e));
        let v = s.shard_of(e).peek(e);
        assert_eq!((v.version, v.value), (0, 100));
    }

    #[test]
    fn commit_makes_writes_permanent() {
        let s = store2();
        let e = EntityId(1);
        let c = ctx(0);
        write(&s, &c, e, WriteOp::Add(1));
        commit(&s, &c, e);
        assert!(!s.shard_of(e).undo_write(&c, e));
        assert_eq!(s.shard_of(e).peek(e).value, 101);
    }

    #[test]
    fn widened_conservation_sum_cannot_wrap() {
        let db = Database::one_entity_per_site(2);
        let s = Store::new(&db, u64::MAX);
        // Two entities at u64::MAX used to wrap to 2^64 - 2 under the
        // old wrapping u64 sum.
        assert_eq!(s.total_int(), 2 * u128::from(u64::MAX));
    }

    /// The absolute-write hole, closed: `T1 Put(1)` then `T2 Put(2)` on
    /// one entity, committed in the *opposite* timestamp order. Every
    /// view must report the value the lock order produced (2). With
    /// chains applied in commit-ts order the committed views said 1
    /// forever while the live value said 2.
    #[test]
    fn inverted_commit_order_of_puts_leaves_one_answer() {
        let s = store_n(1, 100);
        let e = EntityId(0);
        write(&s, &ctx(1), e, WriteOp::Put(1));
        write(&s, &ctx(2), e, WriteOp::Put(2));
        let (ts1, ts2) = (s.reserve_commit_ts(), s.reserve_commit_ts());
        s.publish_commit(ts1, 2, [e]); // T2 commits at ts 1 …
        assert_eq!(s.commit_ts(), 1);
        assert_eq!(ints(&s.snapshot()), [2], "T2 alone, over the seed");
        s.publish_commit(ts2, 1, [e]); // … T1 at ts 2.
        assert_eq!(ints(&s.snapshot()), [2]);
        assert_eq!(ints(&s.snapshot_at(2).unwrap()), [2]);
        assert_eq!(ints(&s.live_snapshot()), [2]);
        assert_eq!(s.snapshot(), s.live_snapshot());
        let ro = s.read_only_snapshot(&[e]);
        assert_eq!((ro.ts, ro.entries[0].value), (2, 2));
        assert_eq!((ro.entries[0].commit_ts, ro.entries[0].version), (2, 2));
        assert_eq!(s.total_int(), 2);
    }

    #[test]
    fn snapshot_at_zero_is_the_seed() {
        let s = store_n(3, 7);
        let snap = s.snapshot_at(0).unwrap();
        assert_eq!(snap.len(), 3);
        assert!(snap.iter().all(|(_, v)| v.version == 0));
        assert_eq!(ints(&snap), [7, 7, 7]);
        assert_eq!(s.commit_ts(), 0);
        assert!(s.snapshot_at(1).is_none(), "nothing committed yet");
    }

    #[test]
    fn cuts_hold_whole_transactions_and_the_clock_closes_in_ts_order() {
        let s = store_n(2, 100);
        let (e0, e1) = (EntityId(0), EntityId(1));
        for (gid, amount) in [(1, 5), (2, 10)] {
            write(&s, &ctx(gid), e0, WriteOp::Add(-amount));
            write(&s, &ctx(gid), e1, WriteOp::Add(amount));
        }
        let (t1, t2) = (s.reserve_commit_ts(), s.reserve_commit_ts());
        // Out-of-order arrival: t2 stays invisible until t1 closes.
        s.publish_commit(t2, 2, [e0, e1]);
        assert_eq!(s.commit_ts(), 0, "t2 must wait for t1");
        assert_eq!(ints(&s.snapshot()), [100, 100]);
        s.publish_commit(t1, 1, [e0, e1]);
        assert_eq!(s.commit_ts(), 2);
        assert_eq!(ints(&s.snapshot_at(1).unwrap()), [95, 105]);
        let at2 = s.snapshot_at(2).unwrap();
        assert_eq!(ints(&at2), [85, 115]);
        assert_eq!(at2[0].1.version, 2);
    }

    #[test]
    fn read_only_observes_a_committed_cut() {
        let s = store_n(2, 50);
        let entities = [EntityId(0), EntityId(1)];
        let snap = s.read_only_snapshot(&entities);
        assert_eq!((snap.ts, snap.sum_int()), (0, 100));
        transfer(&s, 1, 0, 1, 20);
        // An undecided write is in the live value and in no cut.
        write(&s, &ctx(2), EntityId(0), WriteOp::Add(-1));
        let snap = s.read_only_snapshot(&entities);
        assert_eq!(snap.ts, 1);
        assert_eq!(snap.sum_int(), 100, "transfers conserve the sum");
        let e0 = snap.get(EntityId(0)).unwrap();
        assert_eq!((e0.value, e0.commit_ts, e0.version), (30, 1, 1));
        assert_eq!(s.shard_of(EntityId(0)).peek(EntityId(0)).value, 29);
    }

    #[test]
    fn gc_truncates_to_watermark_plus_latest() {
        let s = store_n(1, 0);
        let e = EntityId(0);
        let bump = |gid| {
            write(&s, &ctx(gid), e, WriteOp::Add(1));
            commit(&s, &ctx(gid), e);
        };
        (0..10).for_each(bump);
        // No live reader: watermark = closed, the chain folds to its base.
        assert_eq!(s.gc_versions(), (1, 1, 10));
        assert!(s.snapshot_at(10).is_some());
        assert!(s.snapshot_at(9).is_none(), "9 was folded away");
        // A registered cut pins the watermark.
        let cut = s.clock.register();
        assert_eq!(cut.ts(), 10);
        (10..15).for_each(bump);
        assert_eq!(s.gc_versions(), (6, 6, 10), "live cut pins the watermark");
        assert_eq!(ints(&s.snapshot_at(10).unwrap()), [10]);
        drop(cut);
        assert_eq!(s.gc_versions(), (1, 1, 15), "dropping the cut unpins GC");
    }

    #[test]
    fn chains_stay_bounded_without_gc() {
        use crate::mvcc::CHAIN_CAP;
        let s = store_n(1, 0);
        for gid in 0..(3 * CHAIN_CAP as u32) {
            transfer(&s, gid, 0, 0, 1);
            assert!(chain_len(&s, EntityId(0)) <= CHAIN_CAP);
        }
        assert_eq!(s.snapshot(), s.live_snapshot());
    }

    /// A cut trimmed away by `CHAIN_CAP` under a registered reader
    /// restarts the *whole* scan at a fresh `closed` — never a mix of
    /// the stale cut on one entity and a newer one on another.
    #[test]
    fn a_cut_trimmed_by_chain_cap_restarts_the_scan_at_a_fresh_closed() {
        use crate::mvcc::CHAIN_CAP;
        let s = store_n(2, 0);
        let both = [EntityId(0), EntityId(1)];
        let stale = s.clock.register();
        assert_eq!(stale.ts(), 0);
        let commits = 2 * CHAIN_CAP as u32;
        for gid in 0..commits {
            write(&s, &ctx(gid), EntityId(0), WriteOp::Add(1));
            commit(&s, &ctx(gid), EntityId(0));
        }
        assert!(chain_len(&s, both[0]) <= CHAIN_CAP);
        // Entity 1 still answers at ts 0, entity 0 no longer does: the
        // cut as a whole is gone, registered or not.
        assert!(s.read_at(&both[1..], stale.ts(), |_, _, _| ()).is_some());
        assert!(s.read_at(&both, stale.ts(), |_, _, _| ()).is_none());
        assert!(s.snapshot_at(0).is_none());
        let snap = s.read_only_snapshot(&both);
        assert_eq!(snap.ts, u64::from(commits));
        assert_eq!(snap.entries[0].value, u64::from(commits));
        assert_eq!(snap.entries[1].commit_ts, 0);
    }

    /// A `TsReservation` dropped on unwind closes the clock, but the
    /// instance's entries stay unstamped forever. Such an entry is in no
    /// cut, ever: the `CHAIN_CAP` trim never folds it into `base`, so it
    /// pins its chain instead of leaking into the committed view.
    #[test]
    fn dropped_reservation_closes_the_clock_over_the_gap() {
        use crate::mvcc::CHAIN_CAP;
        let s = store_n(1, 0);
        let e = EntityId(0);
        write(&s, &ctx(1_000), e, WriteOp::Add(1_000));
        let r1 = s.reserve_commit_ts();
        assert_eq!(r1.ts(), 1);
        // Simulated panic between allocation and stamping.
        drop(r1);
        assert_eq!(s.commit_ts(), 1, "the clock closes over the abandoned ts");
        write(&s, &ctx(0), e, WriteOp::Add(5));
        commit(&s, &ctx(0), e);
        assert_eq!(s.commit_ts(), 2);
        let snap = s.read_only_snapshot(&[e]);
        assert_eq!(snap.get(e).unwrap().value, 5, "undecided: in no cut");
        let more = 2 * CHAIN_CAP as u32;
        for gid in 1..=more {
            write(&s, &ctx(gid), e, WriteOp::Add(1));
            commit(&s, &ctx(gid), e);
        }
        // Later cuts still read, and still without the abandoned write.
        let snap = s.read_only_snapshot(&[e]);
        assert_eq!(snap.ts, 2 + u64::from(more));
        assert_eq!(snap.get(e).unwrap().value, 5 + u64::from(more));
        assert_eq!(s.shard_of(e).peek(e).value, 1_005 + u64::from(more));
        assert!(
            chain_len(&s, e) > CHAIN_CAP,
            "pinned by the undecided front"
        );
    }

    /// The torn cut behind the flaky `torn cut at N`: one in-flight
    /// `Add(-1)` at the front of a chain, then enough committed
    /// transfers to push the chain past `CHAIN_CAP`. The trim used to
    /// fold the undecided entry into `base`, and every later cut
    /// reported Σ = 1999 of 2000.
    #[test]
    fn chain_cap_never_folds_an_undecided_write_into_a_cut() {
        use crate::mvcc::CHAIN_CAP;
        let s = store_n(2, 1_000);
        let both = [EntityId(0), EntityId(1)];
        let in_flight = ctx(9_999);
        write(&s, &in_flight, both[0], WriteOp::Add(-1));
        for gid in 0..(CHAIN_CAP as u32 + 6) {
            transfer(&s, gid, 0, 1, 1);
            assert_eq!(s.read_only_snapshot(&both).sum_int(), 2_000, "after {gid}");
        }
        // The writer is still undoable, and once it is decided the cap
        // applies again.
        assert!(s.shard_of(both[0]).undo_write(&in_flight, both[0]));
        transfer(&s, 100, 0, 1, 1);
        assert!(chain_len(&s, both[0]) <= CHAIN_CAP);
        assert_eq!(s.read_only_snapshot(&both).sum_int(), 2_000);
        assert_eq!(s.snapshot(), s.live_snapshot());
    }

    #[test]
    fn dropped_reservation_releases_buffered_successors() {
        let s = store_n(1, 0);
        let e = EntityId(0);
        let r1 = s.reserve_commit_ts();
        write(&s, &ctx(2), e, WriteOp::Add(3));
        s.publish_commit(s.reserve_commit_ts(), 2, [e]);
        assert_eq!(s.commit_ts(), 0, "t2 waits behind the unclosed t1");
        drop(r1);
        assert_eq!(s.commit_ts(), 2, "dropping t1 unblocks t2");
        assert_eq!(s.read_only_snapshot(&[e]).sum_int(), 3);
    }

    #[test]
    fn unknown_entity_panics_without_leaking_a_registered_cut() {
        let s = store_n(1, 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.read_only_snapshot(&[EntityId(0), EntityId(7)])
        }));
        assert!(r.is_err(), "entity 7 is not in the schema");
        // The watermark is unpinned: GC folds freely.
        for gid in 0..4 {
            transfer(&s, gid, 0, 0, 1);
        }
        assert_eq!(s.gc_versions().2, 4, "no leaked cut pins the watermark");
    }

    /// A store on a non-sync WAL whose one commit is published while its
    /// decision still sits in the log buffer.
    fn store_with_buffered_decision(tag: &str) -> (Store, Arc<Wal>, std::path::PathBuf) {
        use crate::wal::WalOptions;
        use ddlf_model::{Op, Transaction, TransactionSystem};
        let dir =
            std::env::temp_dir().join(format!("ddlf-store-unit-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::one_entity_per_site(2);
        let ops = [Op::lock(EntityId(0)), Op::unlock(EntityId(0))];
        let t = Transaction::from_total_order("T", &ops, &db).unwrap();
        let sys = TransactionSystem::new(db.clone(), vec![t]).unwrap();
        let wal = Wal::create(&dir, &sys, 100, WalOptions::default()).unwrap();
        let mut s = Store::new(&db, 100);
        s.attach_wal(&wal);
        let (c, e) = (ctx(0), EntityId(0));
        write(&s, &c, e, WriteOp::Add(1));
        let ts = s.reserve_commit_ts();
        wal.log_commit(c.gid, TxnId(0), c.attempt, ts.ts());
        s.publish_commit(ts, c.gid, [e]);
        (s, wal, dir)
    }

    /// Every committed read pushes a decision it may show out of the log
    /// buffer before returning, and only once: the second read finds
    /// nothing pending.
    #[test]
    fn committed_reads_push_a_buffered_decision_first() {
        type Read = fn(&Store);
        let reads: [(&str, Read); 3] = [
            ("ro", |s| {
                assert_eq!(s.read_only_snapshot(&[EntityId(0)]).sum_int(), 101)
            }),
            ("snapshot", |s| assert_eq!(s.total_int(), 201)),
            ("at", |s| assert!(s.snapshot_at(1).is_some())),
        ];
        for (tag, read) in reads {
            let (s, wal, dir) = store_with_buffered_decision(tag);
            let log = dir.join("log.wal");
            assert_eq!(std::fs::metadata(&log).unwrap().len(), 0, "{tag}");
            read(&s);
            assert_eq!(wal.pushes(), 1, "{tag}");
            assert!(std::fs::metadata(&log).unwrap().len() > 0, "{tag}");
            read(&s);
            assert_eq!(wal.pushes(), 1, "{tag}: nothing was pending");
            drop((s, wal));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The push takes `wal.log` alone, after the scan: one acquisition
    /// beyond the read's `2 + entities`, and `store.clock` in no edge.
    #[cfg(feature = "lockdep")]
    #[test]
    fn a_read_that_pushes_the_log_takes_wal_log_alone() {
        let (s, wal, dir) = store_with_buffered_decision("lockdep");
        let both = [EntityId(0), EntityId(1)];
        let before = ddlf_lockdep::thread_acquire_count();
        s.read_only_snapshot(&both);
        assert_eq!(ddlf_lockdep::thread_acquire_count() - before, 2 + 2 + 1);
        assert_eq!(wal.pushes(), 1);
        let clock_edges: Vec<_> = ddlf_lockdep::edges()
            .into_iter()
            .filter(|(from, to)| from == "store.clock" || to == "store.clock")
            .collect();
        assert!(clock_edges.is_empty(), "{clock_edges:?}");
        drop((s, wal));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The tentpole property in miniature: concurrent writers commit
    /// conserving transfers (with GC churn) while readers scan; every
    /// scan and every `snapshot()` must observe the exact initial sum,
    /// and versions must be monotone between scans.
    #[test]
    fn concurrent_transfers_conserve_under_concurrent_scans() {
        const ENTITIES: u32 = 8;
        const INITIAL: u64 = 1_000;
        const WRITERS: u32 = 4;
        const COMMITS_PER_WRITER: u32 = 300;
        let s = store_n(ENTITIES as usize, INITIAL);
        let entities: Vec<EntityId> = (0..ENTITIES).map(EntityId).collect();
        let expected = u128::from(INITIAL) * u128::from(ENTITIES);
        let stop = std::sync::atomic::AtomicBool::new(false);
        let scans: u64 = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        let mut scans = 0u64;
                        let mut last = vec![(0u64, 0u64); ENTITIES as usize];
                        while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                            let snap = s.read_only_snapshot(&entities);
                            assert_eq!(snap.sum_int(), expected, "torn cut at {}", snap.ts);
                            for (e, seen) in snap.entries.iter().zip(&mut last) {
                                assert!(
                                    e.commit_ts >= seen.0 && e.version >= seen.1,
                                    "version went backwards on {:?}",
                                    e.entity
                                );
                                *seen = (e.commit_ts, e.version);
                            }
                            assert_eq!(s.total_int(), expected, "snapshot() split a transfer");
                            scans += 1;
                        }
                        scans
                    })
                })
                .collect();
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let s = &s;
                    scope.spawn(move || {
                        for i in 0..COMMITS_PER_WRITER {
                            let gid = w * COMMITS_PER_WRITER + i;
                            transfer(s, gid, (w + i) % ENTITIES, (w + i + 1) % ENTITIES, 1);
                            if i % 3 == 0 {
                                s.gc_versions();
                            }
                        }
                    })
                })
                .collect();
            writers.into_iter().for_each(|w| w.join().unwrap());
            stop.store(true, std::sync::atomic::Ordering::SeqCst);
            readers.into_iter().map(|r| r.join().unwrap()).sum()
        });
        assert!(scans > 0, "readers must have scanned at least once");
        assert_eq!(s.commit_ts(), u64::from(WRITERS * COMMITS_PER_WRITER));
        assert_eq!(s.read_only_snapshot(&entities).sum_int(), expected);
        assert_eq!(s.snapshot(), s.live_snapshot());
    }

    mod undo_properties {
        use super::*;
        use proptest::prelude::*;

        /// `(kind, payload)` → a concrete op.
        fn op_of((kind, n): (u8, i64)) -> WriteOp {
            match kind % 2 {
                0 => WriteOp::Add(n),
                _ => WriteOp::Put(n as u64),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Any sequence of writes by a doomed attempt, undone in
            /// full, restores the exact pre-attempt `(value, version)`
            /// for every touched entity — the tentpole invariant that
            /// makes wait-die aborts clean.
            #[test]
            fn full_undo_restores_exact_pre_attempt_state(
                initial in any::<u64>(),
                committed_prefix in prop::collection::vec((0u32..2, (any::<u8>(), any::<i64>())), 0..6),
                doomed in prop::collection::vec((0u32..2, (any::<u8>(), any::<i64>())), 1..8),
            ) {
                let s = store_n(2, initial);
                let (tx, _rx) = channel();
                // A committed history first, so versions are nonzero.
                for (i, (e, raw)) in committed_prefix.iter().enumerate() {
                    let e = EntityId(*e);
                    let c = ctx(i as u32);
                    s.shard_of(e).request(c.holder(), e, || tx.clone());
                    s.shard_of(e).write_and_release(&c, e, Some(op_of(*raw)), &[]);
                    commit(&s, &c, e);
                }
                let pre = s.live_snapshot();

                // The doomed attempt applies its writes (each entity at
                // most once, like a template program), then dies.
                let c = ctx(1_000);
                let mut touched = Vec::new();
                for (e, raw) in &doomed {
                    let e = EntityId(*e);
                    if touched.contains(&e) {
                        continue;
                    }
                    s.shard_of(e).request(c.holder(), e, || tx.clone());
                    s.shard_of(e).write_and_release(&c, e, Some(op_of(*raw)), &[]);
                    touched.push(e);
                }
                for e in touched.iter().rev() {
                    prop_assert!(s.shard_of(*e).undo_write(&c, *e), "{e:?}");
                }
                prop_assert_eq!(s.live_snapshot(), pre);
            }

            /// With arbitrary interfering committed writes between the
            /// doomed write and its undo, the rolled-back store equals
            /// the gold standard: the committed ops replayed on the
            /// pre-attempt state (exactly what `wal::recover` computes).
            #[test]
            fn undo_under_interference_matches_committed_only_replay(
                initial in 0u64..1_000_000,
                dead_raw in (any::<u8>(), -1_000i64..1_000),
                live_raws in prop::collection::vec((any::<u8>(), -1_000i64..1_000), 1..4),
            ) {
                let s = store_n(2, initial);
                let e = EntityId(0);
                let (tx, _rx) = channel();
                let doomed = ctx(0);
                write(&s, &doomed, e, op_of(dead_raw));
                // Interfering committed writes after the doomed unlock.
                let mut expected = VersionedValue {
                    version: 0,
                    value: initial,
                };
                for (i, raw) in live_raws.iter().enumerate() {
                    let c = ctx(1 + i as u32);
                    s.shard_of(e).request(c.holder(), e, || tx.clone());
                    s.shard_of(e).write_and_release(&c, e, Some(op_of(*raw)), &[]);
                    commit(&s, &c, e);
                    expected = expected.apply(op_of(*raw));
                }

                prop_assert!(s.shard_of(e).undo_write(&doomed, e));
                prop_assert_eq!(s.shard_of(e).peek(e), expected);
            }

            /// ≥2 doomed writers overlap on one entity, interleaved with
            /// committed writers, and are undone in an arbitrary order:
            /// every undo must roll back and the store must end at
            /// exactly the committed-only state (value *and* version) —
            /// the overlapping-victims regression class.
            #[test]
            fn interleaved_doomed_writers_fully_undo_in_any_order(
                initial in 0u64..1_000_000,
                writers in prop::collection::vec(
                    (any::<bool>(), any::<u8>(), -1_000i64..1_000),
                    2..7,
                ),
                order_keys in prop::collection::vec(any::<u32>(), 7..8),
            ) {
                let s = store_n(2, initial);
                let e = EntityId(0);
                let (tx, _rx) = channel();
                let mut expected = VersionedValue {
                    version: 0,
                    value: initial,
                };
                let mut doomed = Vec::new();
                for (i, (doom, kind, n)) in writers.iter().enumerate() {
                    let op = op_of((*kind, *n));
                    let c = ctx(i as u32);
                    s.shard_of(e).request(c.holder(), e, || tx.clone());
                    s.shard_of(e).write_and_release(&c, e, Some(op), &[]);
                    // The first two writers are always victims, so every
                    // case has overlapping doomed attempts.
                    if *doom || i < 2 {
                        doomed.push(c);
                    } else {
                        commit(&s, &c, e);
                        expected = expected.apply(op);
                    }
                }
                let mut order: Vec<usize> = (0..doomed.len()).collect();
                order.sort_by_key(|&i| order_keys[i]);
                for &i in &order {
                    prop_assert!(s.shard_of(e).undo_write(&doomed[i], e), "victim {i}");
                }
                prop_assert_eq!(s.shard_of(e).peek(e), expected);
            }

            /// Overlapping victims over the whole value range (wrapping
            /// deltas included), undone in every order: every undo rolls
            /// back and the entity ends at exactly its pre-attempt
            /// state.
            #[test]
            fn overlapping_victims_undo_to_the_exact_pre_state(
                initial in any::<u64>(),
                raws in prop::collection::vec((any::<u8>(), any::<i64>()), 2..6),
                order_keys in prop::collection::vec(any::<u32>(), 6..7),
            ) {
                let s = store_n(2, initial);
                let e = EntityId(0);
                let (tx, _rx) = channel();
                let pre = s.shard_of(e).peek(e);
                let mut doomed = Vec::new();
                for (i, raw) in raws.iter().enumerate() {
                    let c = ctx(i as u32);
                    s.shard_of(e).request(c.holder(), e, || tx.clone());
                    s.shard_of(e).write_and_release(&c, e, Some(op_of(*raw)), &[]);
                    doomed.push(c);
                }
                let mut order: Vec<usize> = (0..doomed.len()).collect();
                order.sort_by_key(|&i| order_keys[i]);
                for &i in &order {
                    prop_assert!(s.shard_of(e).undo_write(&doomed[i], e), "victim {i}");
                }
                prop_assert_eq!(s.shard_of(e).peek(e), pre);
            }
        }
    }
}
