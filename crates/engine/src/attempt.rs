//! One attempt of one transaction instance against the store — the only
//! place "advance an instance one step" is written.
//!
//! An [`Attempt`] belongs to one instance — named everywhere (lock
//! tables, wait-die, chains, audit, WAL) by the one `gid` in its
//! [`WriteCtx`] — and owns the read/write counters and, in
//! [`AttemptBufs`] a driver may reuse across attempts, the executed
//! [`Prefix`], the lock-grant events not yet handed to the audit and
//! the entities whose unlock exposed a write. It has exactly three
//! transitions — [`granted`](Attempt::granted),
//! [`unlock`](Attempt::unlock) and [`die`](Attempt::die), which rolls
//! back every write the attempt exposed (each is still an undecided
//! chain entry, so none can stay behind) — and is driven
//! by the threaded executor under both lock-wait disciplines and by both
//! phases of [`crate::replay::replay_schedule`]. What a driver chooses
//! is *how to ask* for a lock and what a refusal means: park on the
//! grant channel (certified), or put the refusal to [`wait_die`].
//!
//! **Deferred grant events.** A lock grant is buffered and handed to
//! the event sink together with the next unlock — and, with a WAL,
//! logged in that unlock's one `Unlock` frame — *before* that
//! unlock releases anything. Sound because the events' order against
//! other transactions is pinned by the locks themselves: no conflicting
//! grant can happen on a held entity until it is released, and
//! everything buffered is flushed before every release — so per-entity
//! event order at the sink and in the log is exactly the effective lock
//! order (the debug batch-oracle cross-check re-verifies this on every
//! run, recovery's audit on every log). Every
//! transaction ends in an unlock, so a complete attempt has nothing
//! buffered; a dying attempt's unflushed grants are dropped — they
//! belong to no committed projection.

use crate::store::{Store, WriteCtx};
use crate::template::Program;
use ddlf_model::{EntityId, NodeId, Prefix, Transaction, TxnId};

/// What a wait-die requester does about a refused lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refused {
    /// Older than the holder: ask again (a poll on threads, the next
    /// sweep in the replayer). The age check is repeated against
    /// whoever holds the lock *then*, so every sustained wait is
    /// older→younger and no waiting cycle can close.
    Retry,
    /// Not older: release everything, roll back, retry from scratch
    /// under the same timestamp.
    Die,
}

/// The wait-die rule. Gids double as timestamps (smaller = older), for
/// the engine's whole lifetime.
pub(crate) fn wait_die(me: TxnId, holder: TxnId) -> Refused {
    if me.0 < holder.0 {
        Refused::Retry
    } else {
        Refused::Die
    }
}

/// An attempt's working storage — the executed prefix, the deferred
/// grants and the exposed writes — handed from one [`Attempt`] to the
/// next ([`Attempt::new`] resets it, [`Attempt::into_bufs`] gives it
/// back), so a driver that reuses it allocates nothing per attempt once
/// it has held its largest transaction.
#[derive(Default)]
pub(crate) struct AttemptBufs {
    executed: Prefix,
    /// Granted lock nodes not yet handed to the event sink.
    pending: Vec<NodeId>,
    /// Entities whose unlock applied a write: what a death must undo
    /// and a commit must stamp.
    exposed: Vec<EntityId>,
}

/// See the module docs.
pub(crate) struct Attempt<'a> {
    store: &'a Store,
    txn: &'a Transaction,
    program: &'a Program,
    pub ctx: WriteCtx,
    bufs: AttemptBufs,
    /// History events handed to the sink so far.
    pub events: u64,
    pub reads: u64,
    pub writes: u64,
}

impl<'a> Attempt<'a> {
    /// A fresh attempt of `txn`, in `bufs` (emptied first).
    pub(crate) fn new(
        store: &'a Store,
        txn: &'a Transaction,
        program: &'a Program,
        ctx: WriteCtx,
        mut bufs: AttemptBufs,
    ) -> Self {
        bufs.executed.reset(txn);
        bufs.pending.clear();
        bufs.exposed.clear();
        Attempt {
            store,
            txn,
            program,
            ctx,
            bufs,
            events: 0,
            reads: 0,
            writes: 0,
        }
    }

    /// Ends the attempt, giving its storage back for the next one.
    pub(crate) fn into_bufs(self) -> AttemptBufs {
        self.bufs
    }

    /// The nodes whose predecessors have all executed, in node order.
    pub(crate) fn ready(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.bufs.executed.ready(self.txn)
    }

    /// Drains the entities whose unlock applied a write — what a commit
    /// stamps.
    pub(crate) fn take_exposed(&mut self) -> std::vec::Drain<'_, EntityId> {
        self.bufs.exposed.drain(..)
    }

    /// Nodes executed so far.
    pub(crate) fn steps(&self) -> usize {
        self.bufs.executed.len()
    }

    pub(crate) fn is_complete(&self) -> bool {
        self.bufs.executed.is_complete(self.txn)
    }

    /// The lock of node `n` is held (granted at once or handed over):
    /// the read it authorizes happens, the event is deferred.
    pub(crate) fn granted(&mut self, n: NodeId) {
        self.reads += u64::from(self.program.reads_entity(self.txn.op(n).entity));
        self.bufs.pending.push(n);
        self.bufs.executed.push(n);
    }

    /// Executes unlock node `n`: every deferred grant plus this unlock
    /// goes through one `sink` call, then the shard logs them with the
    /// entity's write (if any) as one `Unlock` frame, applies the write
    /// under the still-held lock and releases the lock.
    pub(crate) fn unlock(&mut self, n: NodeId, sink: impl FnOnce(&[NodeId])) {
        let entity = self.txn.op(n).entity;
        let bufs = &mut self.bufs;
        bufs.pending.push(n);
        sink(&bufs.pending);
        self.events += bufs.pending.len() as u64;
        bufs.executed.push(n);
        let write = self.program.write_for(entity).copied();
        self.store
            .shard_of(entity)
            .write_and_release(&self.ctx, entity, write, &bufs.pending);
        bufs.pending.clear();
        if write.is_some() {
            self.writes += 1;
            self.bufs.exposed.push(entity);
        }
    }

    /// Unwinds the attempt. Held locks are released (their writes were
    /// never applied — writes happen at unlock), then every exposed
    /// write is removed from its chain (non-two-phase templates can die
    /// after their first unlock; two-phase ones die before it and have
    /// nothing to undo). Each entity is written at most once per attempt
    /// and removal re-folds per entity, so no undo order is required.
    /// Returns the number of writes rolled back.
    pub(crate) fn die(&mut self) -> u32 {
        for e in self.bufs.executed.held_entities(self.txn) {
            self.store.shard_of(e).release(self.ctx.holder(), e);
        }
        let rolled_back = self.bufs.exposed.len() as u32;
        for e in self.bufs.exposed.drain(..) {
            let undone = self.store.shard_of(e).undo_write(&self.ctx, e);
            // An exposed write stays an undecided chain entry until its
            // attempt commits, and only a commit stamps it.
            debug_assert!(undone, "exposed write of {e} has no undecided entry");
        }
        self.bufs.pending.clear();
        self.bufs.executed.reset(self.txn);
        rolled_back
    }
}
