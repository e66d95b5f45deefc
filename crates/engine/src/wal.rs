//! The write-ahead log — one append-only file — and crash-recovery
//! replay through the `D(S)` audit.
//!
//! With a WAL attached, every unlock appends one `Unlock` frame — its
//! release batch of history events and its write, if any — under the
//! shard's mutex, *before* the in-memory chain mutates and while the
//! entity is still held, so file order is at once chain order and lock
//! order per entity, and a crashed process can be replayed (a rollback
//! logs nothing: the victim's `Unlock`s simply never get a `Commit`):
//! the committing attempts' operations re-enter fresh chains in file
//! order, stamped from their decisions, and the recovered lock/unlock
//! history is re-audited with the model's `D(S)` test — streamed
//! through the incremental [`StreamingAuditor`], so recovery stays
//! linear in log size. Commit is a **durable decision** (Gray &
//! Lamport, *Consensus on Transaction Commit*): an instance is
//! recovered if and only if its `Commit` record is in the log, never
//! because its data writes happen to be present.
//!
//! ## On-disk layout
//!
//! (The canonical copy of this grammar — alongside the shared
//! [`frame`] framing and [`codec`] conventions it builds on — lives in
//! `ARCHITECTURE.md` at the repository root; this rustdoc mirrors it for
//! in-code readers.)
//!
//! A WAL directory holds exactly two files:
//!
//! ```text
//!   wal/
//!     meta.json   the registered SystemSpec + initial entity value
//!     log.wal     every record, in append order
//! ```
//!
//! `meta.json` is `{"spec": <SystemSpec>, "initial_value": <u64>}`,
//! written compact (one line, no indentation) and read by hand through
//! `serde_json`'s `ToJson`/`FromJson` (both fields required, unknown
//! keys ignored, `spec` in [`SystemSpec`]'s own JSON form).
//!
//! `log.wal` is a sequence of length-prefixed frames in the [`frame`]
//! codec (u32 LE length + payload); each payload is one binary
//! [`WalRecord`]:
//!
//! ```text
//!  Begin   := 0x11 gid:var template:var attempt:var
//!  Unlock  := 0x12 gid:var attempt:var n:var node:var{n} Written
//!  Commit  := 0x14 gid:var template:var attempt:var commit_ts:var
//!  Abort   := 0x15 gid:var attempt:var
//!
//!  Written := 0x00  |  0x01 entity:var delta:zigzag  |  0x02 entity:var value:var
//!               (var: an LEB128 varint, zigzag: the varint of a zigzag-encoded
//!                i64; record tags 0x01-0x07 are retired)
//! ```
//!
//! The grammar holds exactly what [`recover`] reads — no value images,
//! no event times (file order *is* event order) — and decoding is
//! strict (an unknown tag, a varint cut short, longer than 10 bytes or
//! not minimal, a value too wide for its field, a node count that runs
//! past the payload, trailing bytes), so a directory written in an
//! older grammar — every fixed-width record of the tags `0x01`-`0x07`
//! included — is refused with [`WalError::Record`] rather than misread;
//! no reader for it is kept. An entity's value is a `u64`, so no op
//! can fail to apply and recovery replays every committed write. An
//! unlock is one frame, events and write together: a transfer over
//! two entities logs `Begin`, two `Unlock`s and its `Commit`. A
//! directory written in the older *multi-file* layout (`commit.wal` + `history.wal` +
//! `shard-<k>.wal`) is refused by name; no reader for it is kept.
//!
//! Every decision is one `Commit` frame of one instance, so a torn tail
//! drops at most the one decision it cuts.
//!
//! `gid` is the instance's one identity, **unique for the engine's
//! lifetime** (and, through [`Recovered::next_base`], for the WAL
//! directory's): the [`Engine`](crate::Engine) mints it, so histories
//! of successive runs concatenate without instance collisions and one
//! audit covers them all.
//!
//! ## Durability model
//!
//! Every record is framed in place — by [`frame::put_frame`], the one
//! framer the wire shares — into one user-space buffer (`LogWriter`,
//! one buffered write replacing one `write(2)` per record) behind one
//! mutex, `wal.log`, so the file is a single total order and **data
//! before decision is its prefix property, not a protocol**: an
//! attempt appends its `Unlock` records before it asks for its
//! decision, so a `Commit` frame in the file implies every record it
//! decides over is in the file before it. That holds
//! after process death (`SIGKILL` — the page cache survives), which is
//! what the CI crash-recovery smoke exercises, and under
//! [`WalOptions::sync`] after *power loss* too: the one `fdatasync` that
//! makes a decision durable covers the whole prefix.
//!
//! Every decision takes one path: one more buffered `Commit` frame,
//! appended under `wal.log` like any other record, with no `write(2)` of
//! its own. **Without `sync`** that is all; the frame reaches the kernel
//! before anyone can observe the commit — before its Submit replies
//! (every run ends with `Wal::flush`) and before a snapshot that shows
//! it returns (the store's scans end with `Wal::push_decisions`, which
//! pushes the buffer, holding no other lock, if a decision appended so
//! far has not been pushed yet) — or earlier, when the buffer fills. Live `Stats`
//! template counters may run ahead of the kernel by at most one buffer.
//!
//! **Under `sync`** the committer then waits for a **durable mark**:
//! an fsync covers the prefix it flushed, so a decision is durable once
//! the `synced` mark has reached its ordinal among decision frames. Up
//! to **two fsyncs run at once**, one per fsync slot, and each slot
//! `fdatasync`s its own descriptor of `log.wal`. A waiter that no
//! fsync in flight covers takes a free slot at once: it takes
//! `wal.log`, pushes the buffer and reads how many decisions it holds,
//! **releases `wal.log`**, records that count in its slot, issues
//! **one** `fdatasync`, then advances `synced` to at least that count
//! and wakes every waiter. A waiter waits only while a busy slot
//! already covers it or both slots are busy, so a decision appended
//! while one fsync is in flight starts the second instead of waiting
//! the first out. Overlapping fsyncs may finish in either order; the
//! mark only grows, because an `fdatasync` covers everything pushed
//! before it was called. Because the fsync runs outside `wal.log`,
//! other appenders — an unlock under `shard.state`, another run's
//! `Begin`s — keep filling the buffer meanwhile. A
//! synced decision is in the kernel and on disk before its commit is
//! published.

use crate::store::Store;
use crate::template::WriteOp;
use crate::wire::{codec, frame};
use ddlf_lockdep::{blocking_region, BlockingKind};
use ddlf_model::incremental::StreamingAuditor;
use ddlf_model::{EntityId, NodeId, SystemSpec, TransactionSystem, TxnId};
use ddlf_telemetry::{Phase, Telemetry};
use parking_lot::{Condvar, Mutex};
use serde_json::{Error as JsonError, FromJson, ToJson, Value};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One log record. See the module docs for the binary layout.
///
/// `N` holds an `Unlock`'s nodes: a `Vec` in a record the caller owns
/// ([`WalRecord::decode`]), a slice on the engine's own paths — the
/// unlocking attempt's release batch when appending, recovery's one
/// reused buffer when reading — so neither allocates per frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord<N = Vec<NodeId>> {
    /// An attempt of instance `gid` started executing.
    Begin {
        /// Global instance id.
        gid: u32,
        /// Template index within the registered system.
        template: u32,
        /// Attempt number (wait-die retries bump it).
        attempt: u32,
    },
    /// One unlock of an attempt: its release batch of lock/unlock
    /// history events (the `D(S)` audit's input) and the write it
    /// applied to the unlocked entity, if any — appended under the
    /// entity's shard mutex, *before* the in-memory apply and while the
    /// entity is still held.
    Unlock {
        /// Global instance id.
        gid: u32,
        /// Attempt that unlocked.
        attempt: u32,
        /// The batch's operation nodes within the template: every grant
        /// deferred since the attempt's previous unlock, then this
        /// unlock. File order is event order.
        nodes: N,
        /// The written entity and the operation — recovery replays the
        /// *operation*, never an image, so interleaved rolled-back
        /// writes of other instances cannot corrupt the replay.
        written: Option<(EntityId, WriteOp)>,
    },
    /// The durable commit decision for one instance.
    Commit {
        /// Global instance id.
        gid: u32,
        /// Template index within the registered system.
        template: u32,
        /// The committing attempt.
        attempt: u32,
        /// The commit timestamp allocated before durability: recovery
        /// stamps it on the instance's chain entries, so decision file
        /// order need not equal commit order.
        commit_ts: u64,
    },
    /// The attempt died (wait-die victim); its writes were undone.
    Abort {
        /// Global instance id.
        gid: u32,
        /// The dying attempt.
        attempt: u32,
    },
}

const TAG_BEGIN: u8 = 0x11;
const TAG_UNLOCK: u8 = 0x12;
const TAG_COMMIT: u8 = 0x14;
const TAG_ABORT: u8 = 0x15;

const WRITTEN_NONE: u8 = 0;
const WRITTEN_ADD: u8 = 1;
const WRITTEN_PUT: u8 = 2;

fn put_written(b: &mut Vec<u8>, written: Option<(EntityId, WriteOp)>) {
    match written {
        None => b.push(WRITTEN_NONE),
        Some((entity, WriteOp::Add(delta))) => {
            b.push(WRITTEN_ADD);
            codec::put_var(b, entity.0.into());
            codec::put_zigzag(b, delta);
        }
        Some((entity, WriteOp::Put(value))) => {
            b.push(WRITTEN_PUT);
            codec::put_var(b, entity.0.into());
            codec::put_var(b, value);
        }
    }
}

fn get_written(buf: &mut &[u8]) -> Option<Option<(EntityId, WriteOp)>> {
    let entity = |buf: &mut &[u8]| codec::get_var_u32(buf).map(EntityId);
    Some(match codec::get_u8(buf)? {
        WRITTEN_NONE => None,
        WRITTEN_ADD => Some((entity(buf)?, WriteOp::Add(codec::get_zigzag(buf)?))),
        WRITTEN_PUT => Some((entity(buf)?, WriteOp::Put(codec::get_var(buf)?))),
        _ => return None,
    })
}

impl WalRecord {
    /// Encodes to the binary record format (see module docs).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(32);
        self.encode_into(&mut b);
        b
    }

    /// Decodes one record; `None` on malformed input.
    pub fn decode(buf: &[u8]) -> Option<WalRecord> {
        let mut nodes = Vec::new();
        let rec = WalRecord::<&[NodeId]>::decode_into(buf, &mut nodes)?;
        Some(rec.map_nodes(<[NodeId]>::to_vec))
    }
}

impl<N: AsRef<[NodeId]>> WalRecord<N> {
    /// Appends the record's encoding to `b` — the one encoder behind
    /// [`WalRecord::encode`] and the log's in-place framing.
    fn encode_into(&self, b: &mut Vec<u8>) {
        match self {
            WalRecord::Begin {
                gid,
                template,
                attempt,
            } => {
                b.push(TAG_BEGIN);
                for v in [gid, template, attempt] {
                    codec::put_var(b, (*v).into());
                }
            }
            WalRecord::Unlock {
                gid,
                attempt,
                nodes,
                written,
            } => {
                let nodes = nodes.as_ref();
                b.push(TAG_UNLOCK);
                codec::put_var(b, (*gid).into());
                codec::put_var(b, (*attempt).into());
                codec::put_var(b, nodes.len() as u64);
                for n in nodes {
                    codec::put_var(b, n.0.into());
                }
                put_written(b, *written);
            }
            WalRecord::Commit {
                gid,
                template,
                attempt,
                commit_ts,
            } => {
                b.push(TAG_COMMIT);
                for v in [gid, template, attempt] {
                    codec::put_var(b, (*v).into());
                }
                codec::put_var(b, *commit_ts);
            }
            WalRecord::Abort { gid, attempt } => {
                b.push(TAG_ABORT);
                codec::put_var(b, (*gid).into());
                codec::put_var(b, (*attempt).into());
            }
        }
    }

    /// The same record with its `Unlock` nodes passed through `f`.
    fn map_nodes<M>(self, f: impl FnOnce(N) -> M) -> WalRecord<M> {
        match self {
            WalRecord::Begin {
                gid,
                template,
                attempt,
            } => WalRecord::Begin {
                gid,
                template,
                attempt,
            },
            WalRecord::Unlock {
                gid,
                attempt,
                nodes,
                written,
            } => WalRecord::Unlock {
                gid,
                attempt,
                nodes: f(nodes),
                written,
            },
            WalRecord::Commit {
                gid,
                template,
                attempt,
                commit_ts,
            } => WalRecord::Commit {
                gid,
                template,
                attempt,
                commit_ts,
            },
            WalRecord::Abort { gid, attempt } => WalRecord::Abort { gid, attempt },
        }
    }
}

impl<'n> WalRecord<&'n [NodeId]> {
    /// Decodes one record; `None` on malformed input. An `Unlock`'s
    /// nodes are decoded into `nodes` (cleared first), which the record
    /// then borrows, so a reader of many frames reuses one buffer.
    fn decode_into(mut buf: &[u8], nodes: &'n mut Vec<NodeId>) -> Option<Self> {
        let var = codec::get_var_u32;
        let rec = match codec::get_u8(&mut buf)? {
            TAG_BEGIN => WalRecord::Begin {
                gid: var(&mut buf)?,
                template: var(&mut buf)?,
                attempt: var(&mut buf)?,
            },
            TAG_UNLOCK => {
                let (gid, attempt) = (var(&mut buf)?, var(&mut buf)?);
                let n = codec::get_var(&mut buf)?;
                // Every node takes at least one byte: a count that runs
                // past the payload is refused before any node is read.
                if n > buf.len() as u64 {
                    return None;
                }
                nodes.clear();
                for _ in 0..n {
                    nodes.push(NodeId(var(&mut buf)?));
                }
                WalRecord::Unlock {
                    gid,
                    attempt,
                    nodes: nodes.as_slice(),
                    written: get_written(&mut buf)?,
                }
            }
            TAG_COMMIT => WalRecord::Commit {
                gid: var(&mut buf)?,
                template: var(&mut buf)?,
                attempt: var(&mut buf)?,
                commit_ts: codec::get_var(&mut buf)?,
            },
            TAG_ABORT => WalRecord::Abort {
                gid: var(&mut buf)?,
                attempt: var(&mut buf)?,
            },
            _ => return None,
        };
        codec::finished(buf, rec)
    }
}

/// WAL tuning.
#[derive(Debug, Clone, Default)]
pub struct WalOptions {
    /// Power-loss durability: a committer returns only once an
    /// `fdatasync` that started after its `Commit` frame was pushed has
    /// finished — one fsync, issued with `wal.log` released, covers every
    /// decision appended before it and, being a prefix of the same file,
    /// every record they decide over. Up to two such fsyncs run at once,
    /// so a decision the running fsync cannot cover starts its own
    /// instead of waiting that one out. Off by default: file order already
    /// survives process death, the crash model the tests exercise is
    /// `SIGKILL`, not power loss, and a non-sync decision is simply
    /// buffered until someone can observe it (see the module docs).
    pub sync: bool,
    /// Observability handle: appends record into the `wal_append`
    /// histogram and the WAL byte gauge, fsyncs into `fsync`, the
    /// decisions each fsync covers into the group-size histogram. The
    /// default disabled handle costs one branch per append.
    pub telemetry: Telemetry,
}

/// The metadata file a WAL directory starts with: enough to rebuild the
/// registered system and the store's initial state at recovery.
struct WalMeta {
    spec: SystemSpec,
    initial_value: u64,
}

impl ToJson for WalMeta {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("spec".into(), self.spec.to_json()),
            ("initial_value".into(), Value::U64(self.initial_value)),
        ])
    }
}

impl FromJson for WalMeta {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(WalMeta {
            spec: SystemSpec::from_json(v.field("spec")?)?,
            initial_value: v.field("initial_value")?.as_uint()?,
        })
    }
}

const META_FILE: &str = "meta.json";
const LOG_FILE: &str = "log.wal";
/// The fixed-name logs of the retired multi-file layout (beside one
/// `shard-<k>.wal` per site), decision log first: its presence without
/// [`LOG_FILE`] identifies a directory this code must refuse.
const OLD_LAYOUT_FILES: [&str; 2] = ["commit.wal", "history.wal"];

/// User-space buffer capacity of the log: frames accumulate and reach
/// the kernel in one `write(2)` when the buffer fills, when a `sync`
/// committer is about to fsync, when a snapshot read would otherwise
/// return a decision still in user space, or at the end of every run.
pub const LOG_BUFFER: usize = 64 << 10;

/// How far the log's decision frames have got, readable without
/// `wal.log`: only the [`LogWriter`], under that lock, moves the marks,
/// so `decided` counts decision frames in file order and `pushed` is
/// always a count of decisions already in the kernel.
#[derive(Default)]
struct LogMarks {
    /// `Commit` frames appended to the buffer.
    decided: AtomicU64,
    /// `decided` as of the last push, stored only after its `write_all`
    /// returned — never before, or a reader could return while the push
    /// it relies on is still in flight.
    pushed: AtomicU64,
    /// Buffer pushes performed (one `write_all` each).
    pushes: AtomicU64,
}

/// A buffered framed appender over the log file: each record is framed
/// straight into a user-space `Vec` by [`frame::put_frame`] (the u32 LE
/// length prefix, then the record's encoding — no per-record
/// allocation) and the buffer reaches the kernel in one `write(2)` when
/// it crosses [`LOG_BUFFER`] or on an explicit [`LogWriter::flush`]. One
/// buffer in front of one file cannot reorder: whatever prefix of the
/// appended frames has reached the kernel is a prefix of the file. It
/// never fsyncs: durability is [`Wal::log_commit`]'s, on a fsync
/// slot's own descriptor, outside the lock that guards this writer.
pub(crate) struct LogWriter {
    file: File,
    buf: Vec<u8>,
    marks: Arc<LogMarks>,
    /// Decisions a `sync` committer has pushed for its fsync
    /// ([`Wal::push_for_fsync`]): each is covered by an fsync that is
    /// in flight or done.
    fsync_pushed: u64,
}

impl LogWriter {
    fn new(file: File, marks: Arc<LogMarks>) -> Self {
        LogWriter {
            file,
            buf: Vec::with_capacity(LOG_BUFFER),
            marks,
            fsync_pushed: 0,
        }
    }

    /// Frames `rec` into the buffer through [`frame::put_frame`] and
    /// pushes the buffer once it is full. Returns the frame's size.
    fn append<N: AsRef<[NodeId]>>(&mut self, rec: &WalRecord<N>) -> io::Result<usize> {
        let framed = frame::put_frame(&mut self.buf, |b| rec.encode_into(b))?;
        if matches!(rec, WalRecord::Commit { .. }) {
            // Counted before a full-buffer push, so that push covers it.
            self.marks.decided.fetch_add(1, Ordering::Release);
        }
        if self.buf.len() >= LOG_BUFFER {
            self.flush()?;
        }
        Ok(framed)
    }

    /// Writes any buffered frames to the kernel, then advances the
    /// pushed mark past every decision they held.
    fn flush(&mut self) -> io::Result<()> {
        let decided = self.marks.decided.load(Ordering::Relaxed);
        if !self.buf.is_empty() {
            // Only Write-allowlisted lock classes may be held here
            // (lockdep blocking-section verifier).
            let _io = blocking_region(BlockingKind::Write);
            self.file.write_all(&self.buf)?;
            self.buf.clear();
            self.marks.pushes.fetch_add(1, Ordering::Relaxed);
        }
        self.marks.pushed.store(decided, Ordering::Release);
        Ok(())
    }
}

/// How many fsyncs a `sync` WAL runs at once: one per descriptor in
/// `Wal::fsync_files`.
const FSYNC_SLOTS: usize = 2;

/// The durable mark of a `sync` WAL and its fsync slots, behind
/// `wal.group_state` — a leaf held across no I/O. Two fsyncs may be in
/// flight at once and finish in either order: `synced` only grows.
#[derive(Default)]
struct Durable {
    /// Decision ordinals `≤ synced` are on disk (or abandoned to a
    /// poisoned WAL — either way their committer must not wait).
    synced: u64,
    /// One entry per fsync slot: `Some(upto)` while a committer holds
    /// it, whose fsync will cover every decision ordinal `≤ upto`
    /// (until its push, a lower bound: `decided` when it took the
    /// slot); `None` when free.
    slots: [Option<u64>; FSYNC_SLOTS],
}

/// The file-backed sink of one engine: the one log every record is
/// appended to. Append failures poison the WAL (reported once on
/// stderr, then dropped) rather than panicking the hot path.
pub struct Wal {
    dir: PathBuf,
    /// `log.wal` behind the one WAL mutex, `wal.log`: taken by shards
    /// (under `shard.state`) for `Unlock`s, by workers for
    /// `Begin`/`Abort` and their `Commit`, by a `sync` committer to push the buffer
    /// before its fsync, and by a snapshot reader, holding
    /// nothing else, to push a decision it may have observed — never
    /// across an fsync.
    log: Mutex<LogWriter>,
    /// The writer's decision marks, read here without `wal.log`.
    marks: Arc<LogMarks>,
    /// One descriptor of `log.wal` per fsync slot, which the slot's
    /// committer `fdatasync`s *after* releasing `wal.log` (`fdatasync`
    /// covers the file, whichever descriptor asks). Each is opened, not
    /// `try_clone`d: the kernel reports a writeback error once per open
    /// file description, so two overlapping fsyncs on one shared
    /// description could let one of them miss an `EIO` and call a
    /// range durable that is not.
    fsync_files: [File; FSYNC_SLOTS],
    sync: bool,
    /// The durable mark (`sync` only), `wal.group_state`.
    durable: Mutex<Durable>,
    /// Wakes committers waiting for the durable mark to pass theirs.
    synced: Condvar,
    /// Groups counted: one per fsync under `sync`, one per decision
    /// without it.
    group_flushes: AtomicU64,
    /// Commit decisions counted into those groups.
    group_records: AtomicU64,
    /// Test hook: fails the next decision fsync (see
    /// [`Wal::inject_fsync_failure`]).
    inject_fsync_fail: AtomicBool,
    failed: AtomicBool,
    telemetry: Telemetry,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("failed", &self.failed.load(Ordering::Relaxed))
            .finish()
    }
}

fn append_mode(path: &Path) -> io::Result<File> {
    OpenOptions::new().create(true).append(true).open(path)
}

/// Why `dir` cannot be read or resumed, if it was written by the
/// retired multi-file layout (there is no reader for it).
fn old_layout(dir: &Path) -> Option<String> {
    let [decisions, _] = OLD_LAYOUT_FILES;
    (dir.join(decisions).exists() && !dir.join(LOG_FILE).exists()).then(|| {
        format!(
            "{} was written by the multi-file WAL layout ({decisions} + history + shard logs, no {LOG_FILE}): not readable by this version",
            dir.display()
        )
    })
}

/// Builds the shared `Wal` state over an existing directory.
fn build_wal(dir: PathBuf, opts: WalOptions) -> io::Result<Arc<Wal>> {
    let path = dir.join(LOG_FILE);
    let file = append_mode(&path)?;
    let fsync_files = [append_mode(&path)?, append_mode(&path)?];
    let marks = Arc::new(LogMarks::default());
    Ok(Arc::new(Wal {
        log: Mutex::new_named("wal.log", LogWriter::new(file, Arc::clone(&marks))),
        marks,
        fsync_files,
        sync: opts.sync,
        durable: Mutex::new_named("wal.group_state", Durable::default()),
        synced: Condvar::new(),
        group_flushes: AtomicU64::new(0),
        group_records: AtomicU64::new(0),
        inject_fsync_fail: AtomicBool::new(false),
        failed: AtomicBool::new(false),
        telemetry: opts.telemetry,
        dir,
    }))
}

impl Wal {
    /// Creates (or **rotates**) a WAL directory for a fresh engine over
    /// `sys`: wipes any previous generation's files — `meta.json`,
    /// `log.wal` and the logs of the retired multi-file layout, nothing
    /// else — then writes `meta.json`. Refuses to touch a non-empty
    /// directory that does not look like a WAL directory (no
    /// `meta.json`), so a mistyped path cannot destroy unrelated data.
    pub fn create(
        dir: impl Into<PathBuf>,
        sys: &TransactionSystem,
        initial_value: u64,
        opts: WalOptions,
    ) -> io::Result<Arc<Wal>> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let occupied = std::fs::read_dir(&dir)?.next().is_some();
        if occupied && !dir.join(META_FILE).exists() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{} is non-empty and has no {META_FILE}: refusing to rotate a non-WAL directory",
                    dir.display()
                ),
            ));
        }
        // Rotate: a new registration means a new system and a new store,
        // so the previous generation's records are dead.
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name == META_FILE
                || name == LOG_FILE
                || OLD_LAYOUT_FILES.contains(&&*name)
                || (name.starts_with("shard-") && name.ends_with(".wal"))
            {
                std::fs::remove_file(entry.path())?;
            }
        }
        let meta = WalMeta {
            spec: SystemSpec::from_system(sys),
            initial_value,
        };
        let json = serde_json::to_string(&meta)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("meta: {e}")))?;
        std::fs::write(dir.join(META_FILE), json)?;
        build_wal(dir, opts)
    }

    /// Re-opens an existing WAL directory in append mode after a
    /// [`recover`] (the resuming engine mints ids from
    /// [`Recovered::next_base`]).
    pub fn resume(dir: impl Into<PathBuf>, opts: WalOptions) -> io::Result<Arc<Wal>> {
        let dir = dir.into();
        if !dir.join(META_FILE).exists() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} has no {META_FILE}", dir.display()),
            ));
        }
        if let Some(why) = old_layout(&dir) {
            return Err(io::Error::new(io::ErrorKind::InvalidData, why));
        }
        build_wal(dir, opts)
    }

    /// The directory this WAL writes to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether an append has failed (the WAL stopped recording).
    pub fn poisoned(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }

    /// Poisons the WAL (reported once on stderr, then silent).
    fn fail(&self, what: &str, e: &io::Error) {
        if !self.failed.swap(true, Ordering::Relaxed) {
            eprintln!(
                "ddlf-engine: WAL {what} in {} failed, log disabled: {e}",
                self.dir.display()
            );
        }
    }

    /// Appends one frame to the locked log (buffered), poisoning the WAL
    /// on I/O failure.
    fn append_record<N: AsRef<[NodeId]>>(&self, w: &mut LogWriter, rec: &WalRecord<N>) {
        if self.failed.load(Ordering::Relaxed) {
            return;
        }
        let t0 = self.telemetry.timer();
        match w.append(rec) {
            Ok(framed) => self.telemetry.add_wal_bytes(framed as u64),
            Err(e) => self.fail("append", &e),
        }
        self.telemetry.record_since(Phase::WalAppend, t0);
    }

    /// Test hook: the next decision-record fsync fails with an injected
    /// error, poisoning the WAL — used to exercise the durable mark's
    /// failure branch (every waiting committer must still wake).
    #[doc(hidden)]
    pub fn inject_fsync_failure(&self) {
        self.inject_fsync_fail.store(true, Ordering::SeqCst);
    }

    /// Appends `recs` — `Begin`s and `Abort`s — under one `wal.log`
    /// acquisition: an admission chunk's `Begin`s, a retry's `Begin`, an
    /// `Abort`.
    pub(crate) fn append(&self, recs: impl IntoIterator<Item = WalRecord>) {
        let mut f = self.log.lock();
        for rec in recs {
            self.append_record(&mut f, &rec);
        }
    }

    /// Appends one unlock's `Unlock` frame: its release batch `nodes` and
    /// its `written` entity and operation. The caller holds the
    /// entity's `shard.state` and, in its lock table, the entity itself
    /// and every entity `nodes` locks, so file order is at once chain
    /// order and each entity's lock order.
    pub(crate) fn append_unlock(
        &self,
        gid: u32,
        attempt: u32,
        nodes: &[NodeId],
        written: Option<(EntityId, WriteOp)>,
    ) {
        let rec = WalRecord::Unlock {
            gid,
            attempt,
            nodes,
            written,
        };
        self.append_record(&mut self.log.lock(), &rec);
    }

    /// Logs the commit decision of instance `gid`: one buffered `Commit`
    /// frame, appended under `wal.log`.
    ///
    /// Without `sync` that is all: the frame reaches the kernel with the
    /// buffer — before the run's Submit replies ([`Wal::flush`]) and
    /// before any snapshot showing it returns ([`Wal::push_decisions`])
    /// — and counts as a group of one.
    ///
    /// Under `sync` it returns once the durable mark covers the frame's
    /// decision ordinal. A waiter that no fsync in flight covers takes a
    /// free fsync slot at once and runs one fsync for everyone appended
    /// so far ([`Wal::push_for_fsync`], then [`Wal::fsync`]); it waits on
    /// the condvar only while both slots are busy or a busy slot covers
    /// it. A failed fsync poisons the WAL, and its committer still
    /// advances the mark and `notify_all`s, so every waiter wakes to
    /// observe the failure.
    pub(crate) fn log_commit(&self, gid: u32, template: TxnId, attempt: u32, commit_ts: u64) {
        let decision: WalRecord = WalRecord::Commit {
            gid,
            template: template.0,
            attempt,
            commit_ts,
        };
        let mine = {
            let mut f = self.log.lock();
            self.append_record(&mut f, &decision);
            self.marks.decided.load(Ordering::Relaxed)
        };
        if !self.sync {
            self.count_group(1);
            return;
        }
        let mut st = self.durable.lock();
        while st.synced < mine && !self.poisoned() {
            let covered = st.slots.iter().flatten().any(|&upto| upto >= mine);
            let free = st.slots.iter().position(Option::is_none);
            let Some(slot) = free.filter(|_| !covered) else {
                self.synced.wait(&mut st);
                continue;
            };
            // Its push comes later, so it covers everything decided now.
            st.slots[slot] = Some(self.marks.decided.load(Ordering::Acquire));
            drop(st);
            let pushed = self.push_for_fsync(mine);
            st = self.durable.lock();
            let Some(upto) = pushed else {
                // The other slot's push took `mine`: hand this slot back
                // and wait for that fsync, which wakes everyone.
                st.slots[slot] = None;
                self.synced.notify_all();
                if st.synced < mine && !self.poisoned() {
                    self.synced.wait(&mut st);
                }
                continue;
            };
            st.slots[slot] = Some(upto);
            drop(st);
            self.fsync(slot);
            st = self.durable.lock();
            // An fsync overtaken by the other slot's covers nothing new
            // and counts a group of 0.
            self.count_group(upto.saturating_sub(st.synced));
            st.synced = st.synced.max(upto);
            st.slots[slot] = None;
            // notify_all, never notify_one: one fsync served many
            // committers, a freed slot may serve another, and on a
            // poisoned WAL every waiter — served or not — must wake to
            // observe the failure.
            self.synced.notify_all();
        }
    }

    /// Pushes the buffer for a `sync` committer about to fsync and
    /// returns how many decisions that fsync will cover — or `None` if
    /// another slot's push already took decision `mine`, so that slot's
    /// fsync covers it. Every committer appended its `Unlock`
    /// records to this same log before its `Commit`, so the push puts
    /// all of them in the kernel before the fsync begins: a decision
    /// durable after power loss implies the records it decides over are
    /// too. Appenders that take `wal.log` after it only fill the buffer
    /// behind the pushed prefix.
    fn push_for_fsync(&self, mine: u64) -> Option<u64> {
        let mut f = self.log.lock();
        if f.fsync_pushed >= mine {
            return None;
        }
        self.flush_locked(&mut f);
        f.fsync_pushed = self.marks.decided.load(Ordering::Relaxed);
        Some(f.fsync_pushed)
    }

    /// Issues one `fdatasync` on fsync slot `slot`'s descriptor, holding
    /// no lock. A failed fsync poisons the WAL: otherwise the engine
    /// would report a durable commit that power loss can still take
    /// back.
    fn fsync(&self, slot: usize) {
        if self.poisoned() {
            return;
        }
        // One sample per `fdatasync` issued.
        let t0 = self.telemetry.timer();
        let synced = if self.inject_fsync_fail.swap(false, Ordering::SeqCst) {
            Err(io::Error::other("injected fsync failure"))
        } else {
            // Durability wait: no WAL lock is held across it.
            let _io = blocking_region(BlockingKind::Fsync);
            self.fsync_files[slot].sync_data()
        };
        if let Err(e) = synced {
            self.fail("fsync", &e);
        }
        self.telemetry.record_since(Phase::Fsync, t0);
    }

    /// Counts one group of `size` decisions: one fsync under `sync`, one
    /// decision without it.
    fn count_group(&self, size: u64) {
        self.group_flushes.fetch_add(1, Ordering::Relaxed);
        self.group_records.fetch_add(size, Ordering::Relaxed);
        self.telemetry.record_group_size(size);
    }

    /// `(groups, decisions written)` so far — one group per fsync under
    /// `sync`, so mean group size is `records / flushes`; without `sync`
    /// every decision is a group of one. Counted on the
    /// `Wal` itself (not the telemetry handle) so reports can measure
    /// amortization with telemetry disabled.
    pub(crate) fn group_counters(&self) -> (u64, u64) {
        (
            self.group_flushes.load(Ordering::Relaxed),
            self.group_records.load(Ordering::Relaxed),
        )
    }

    /// Pushes the buffer to the kernel. Called at the end of every
    /// engine run, before its Submit can reply (and on drop), so a clean
    /// shutdown leaves nothing in user space.
    pub(crate) fn flush(&self) {
        self.flush_locked(&mut self.log.lock());
    }

    /// Pushes the buffer if a decision frame appended so far has not
    /// reached the kernel yet. A snapshot read calls this after reading,
    /// holding no lock, so it never returns a commit the kernel has not
    /// seen: the committer appended its decision before publishing the
    /// commit, so a reader that saw the commit loads a `decided` that
    /// counts it. Under `sync` this returns at once: a committer
    /// publishes only after an fsync covered its decision, and that
    /// fsync's push put it in the kernel. When nothing is pending this is
    /// two atomic loads.
    pub(crate) fn push_decisions(&self) {
        if self.sync {
            return;
        }
        let decided = self.marks.decided.load(Ordering::Acquire);
        if self.marks.pushed.load(Ordering::Acquire) < decided {
            self.flush();
        }
    }

    /// Buffer pushes so far (each one `write_all` of the whole buffer).
    #[doc(hidden)]
    pub fn pushes(&self) -> u64 {
        self.marks.pushes.load(Ordering::Relaxed)
    }

    fn flush_locked(&self, w: &mut LogWriter) {
        if !self.poisoned() {
            if let Err(e) = w.flush() {
                self.fail("append", &e);
            }
        }
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Best-effort: a cleanly dropped engine leaves no frame stranded
        // in user space (runs also flush explicitly at their end).
        self.flush();
    }
}

/// Recovery failures.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem-level failure.
    Io(io::Error),
    /// `meta.json` missing or unusable.
    Meta(String),
    /// A fully framed record failed to decode or referenced an unknown
    /// template/entity — corruption beyond a torn tail.
    Record(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Meta(m) => write!(f, "wal meta error: {m}"),
            WalError::Record(m) => write!(f, "wal record error: {m}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// The outcome of replaying a WAL directory.
pub struct Recovered {
    /// The system spec the WAL was recorded under.
    pub spec: SystemSpec,
    /// The rebuilt system.
    pub system: TransactionSystem,
    /// Initial entity value the store was seeded with.
    pub initial_value: u64,
    /// A fresh store holding exactly the committed writes.
    pub store: Store,
    /// Committed instances replayed.
    pub committed: usize,
    /// Attempts that began (committed or not).
    pub begun: usize,
    /// Aborted attempts recorded.
    pub aborted_attempts: usize,
    /// Committed write operations re-applied.
    pub replayed_writes: u64,
    /// `D(S)` verdict over the recovered committed history; `None` when
    /// the recovered schedule failed validation (`audit_error` says why).
    pub serializable: Option<bool>,
    /// Why the audit could not run, if it could not.
    pub audit_error: Option<String>,
    /// Committed history events replayed into the audit.
    pub history_len: usize,
    /// Whether the log ended in a torn frame (the crash point): 0 or 1.
    pub torn_tails: usize,
    /// First unused global instance id (resume runs from here).
    pub next_base: u32,
}

impl Recovered {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "recovered {} committed / {} begun instances | {} writes replayed | history {} events | torn tails {} | serializable {:?}",
            self.committed,
            self.begun,
            self.replayed_writes,
            self.history_len,
            self.torn_tails,
            self.serializable,
        )
    }
}

/// Frames an attempt appends before its decision; pass 2 of
/// [`recover`] replays them.
const DATA_TAGS: [u8; 1] = [TAG_UNLOCK];
/// Frames pass 1 of [`recover`] reads: who began, died and committed.
const DECISION_TAGS: [u8; 3] = [TAG_BEGIN, TAG_COMMIT, TAG_ABORT];

/// Streams every complete frame of `path` (missing file = empty log)
/// through `visit`, one decoded record at a time, except frames whose
/// tag byte is in `skip` — the caller's other pass decodes those. The
/// payload and an `Unlock`'s nodes are decoded into two buffers reused
/// for the whole log, so the scan allocates nothing per frame.
/// Returns whether the log ends in a torn frame (`UnexpectedEof` — the
/// crash point); a corrupt length prefix (`InvalidData`) or a fully
/// framed record that does not decode is real corruption and errors — a
/// torn append is a *prefix* of a valid frame, so its length bytes are
/// either missing or intact, never garbage. (Caveat: a filesystem that
/// persists a file's extended length before its data can leave a garbage
/// tail after power loss; recovering such a log demands explicit
/// truncation rather than this code guessing where it really ends —
/// guessing is how committed mid-file records get silently dropped.)
fn scan_log(
    path: &Path,
    skip: &[u8],
    mut visit: impl FnMut(WalRecord<&[NodeId]>) -> Result<(), WalError>,
) -> Result<bool, WalError> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e.into()),
    };
    let mut r = io::BufReader::new(file);
    let (mut payload, mut nodes) = (Vec::new(), Vec::new());
    for n in 0usize.. {
        match frame::read_frame_into(&mut r, &mut payload) {
            Ok(false) => break,
            Ok(true) if payload.first().is_some_and(|t| skip.contains(t)) => {}
            Ok(true) => match WalRecord::decode_into(&payload, &mut nodes) {
                Some(rec) => visit(rec)?,
                None => {
                    return Err(WalError::Record(format!(
                        "{}: record {n} framed but did not decode",
                        path.display()
                    )))
                }
            },
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(true),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Corrupt length prefix: stopping silently here would
                // discard every later record — including committed
                // writes — while reporting a clean crash point.
                return Err(WalError::Record(format!(
                    "{}: corrupt frame length after record {n}: {e}",
                    path.display()
                )));
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(false)
}

/// Replays a WAL directory: rebuilds the registered system from
/// `meta.json`, re-applies every **committed** write operation to a
/// fresh [`Store`], and streams the committed lock/unlock history
/// through the incremental `D(S)` auditor. The log is read in two
/// streaming passes — decisions first, so every data record of a
/// committing attempt is replayed the moment the second pass meets it —
/// and no collection grows with the number of `Unlock` records:
/// recovery is linear in log size and holds only the committed map.
/// Uncommitted instances — in-flight at the crash, or wait-die victims —
/// contribute nothing: commit is decided solely by a decision frame.
pub fn recover(dir: impl AsRef<Path>) -> Result<Recovered, WalError> {
    let dir = dir.as_ref();
    let meta_json = std::fs::read_to_string(dir.join(META_FILE))
        .map_err(|e| WalError::Meta(format!("{}: {e}", dir.join(META_FILE).display())))?;
    if let Some(why) = old_layout(dir) {
        return Err(WalError::Meta(why));
    }
    let meta: WalMeta =
        serde_json::from_str(&meta_json).map_err(|e| WalError::Meta(format!("parse: {e}")))?;
    let system = meta
        .spec
        .build()
        .map_err(|e| WalError::Meta(format!("spec does not build: {e}")))?;
    let db = system.db();
    let log = dir.join(LOG_FILE);

    // Pass 1, decision frames only: which instances committed, with
    // what template, attempt, and commit timestamp.
    let mut committed: HashMap<u32, (TxnId, u32, u64)> = HashMap::new();
    let mut begun = 0usize;
    let mut aborted = 0usize;
    // First unused id: above every gid seen in any record of either pass.
    let mut next_base = 0u32;
    let mut saw = |gid: u32| next_base = next_base.max(gid.saturating_add(1));
    let torn = scan_log(&log, &DATA_TAGS, |rec| {
        match rec {
            WalRecord::Begin { gid, .. } => {
                begun += 1;
                saw(gid);
            }
            WalRecord::Abort { gid, .. } => {
                aborted += 1;
                saw(gid);
            }
            WalRecord::Commit {
                gid,
                template,
                attempt,
                commit_ts,
            } => {
                if template as usize >= system.len() {
                    return Err(WalError::Record(format!(
                        "commit of instance {gid} names template {template}, system has {}",
                        system.len()
                    )));
                }
                committed.insert(gid, (TxnId(template), attempt, commit_ts));
                saw(gid);
            }
            WalRecord::Unlock { .. } => unreachable!("skipped by tag"),
        }
        Ok(())
    })?;

    // Every decision is known, so the auditor hears them *first* and
    // each event of a committing attempt merges the moment pass 2 meets
    // it — file order is global time order. No per-instance audit system
    // is materialized at all; `seal` adds the Lemma 1 arcs for any
    // committed instance whose events never reached the log.
    let mut gids: Vec<u32> = committed.keys().copied().collect();
    gids.sort_unstable();
    let mut auditor = StreamingAuditor::new(&system);
    for g in &gids {
        let (template, attempt, _) = committed[g];
        auditor.admit(*g, template);
        auditor.commit(*g, attempt);
    }

    // Pass 2, `Unlock` frames only, in file order — which is chain
    // (lock) order per entity and audit order for events: each one feeds
    // its events to the auditor, then replays its write. Only the
    // *committing* attempt's records replay: an instance that died on an earlier
    // attempt and committed on a retry must not replay the rolled-back
    // write too. Every write re-enters its entity's chain
    // already stamped; gaps in the timestamps are expected (a ts
    // allocated by the crashed process whose decision never reached the
    // log) and the clock resumes past the highest durable one. Every
    // gid seen keeps `next_base` honest: an instance in flight at the
    // crash has data frames and no decision, and a resumed run must
    // never re-mint its id.
    let mut store = Store::new(db, meta.initial_value);
    let mut replayed = 0u64;
    let committing = |gid: u32, attempt: u32| {
        let &(_, a, commit_ts) = committed.get(&gid)?;
        (a == attempt).then_some(commit_ts)
    };
    scan_log(&log, &DECISION_TAGS, |rec| {
        let WalRecord::Unlock {
            gid,
            attempt,
            nodes,
            written,
        } = rec
        else {
            unreachable!("skipped by tag")
        };
        saw(gid);
        let Some(commit_ts) = committing(gid, attempt) else {
            return Ok(());
        };
        for &node in nodes {
            auditor.event(gid, attempt, node);
        }
        if let Some((entity, op)) = written {
            if entity.index() >= db.entity_count() {
                return Err(WalError::Record(format!(
                    "write to unknown entity {entity}"
                )));
            }
            store.recover_write(entity, gid, op, commit_ts);
            replayed += 1;
        }
        Ok(())
    })?;
    store.resume_clock(committed.values().map(|&(_, _, ts)| ts).max().unwrap_or(0));
    let serializable = auditor.seal();
    let audit_error = auditor
        .error()
        .map(|e| format!("recovered schedule invalid: {e}"));
    let history_len = usize::try_from(auditor.merged_events()).unwrap_or(usize::MAX);

    Ok(Recovered {
        spec: meta.spec,
        system,
        initial_value: meta.initial_value,
        store,
        committed: gids.len(),
        begun,
        aborted_attempts: aborted,
        replayed_writes: replayed,
        serializable,
        audit_error,
        history_len,
        torn_tails: usize::from(torn),
        next_base,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    fn roundtrip(rec: WalRecord) {
        assert_eq!(WalRecord::decode(&rec.encode()), Some(rec));
    }

    /// `payload` as one frame, through the one framer.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut b = Vec::new();
        frame::put_frame(&mut b, |b| b.extend_from_slice(payload)).unwrap();
        b
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The on-disk format, pinned: one fixed record per variant encodes
    /// to exactly these bytes (and decodes back). A diff here is a
    /// format change — old directories stop recovering.
    #[test]
    fn record_format_is_pinned() {
        let unlock = |nodes: &[u32], written| WalRecord::Unlock {
            gid: u32::MAX,
            attempt: 2,
            nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
            written,
        };
        let pins = [
            (
                WalRecord::Begin {
                    gid: 7,
                    template: 1,
                    attempt: 3,
                },
                "11070103",
            ),
            (
                unlock(&[0, 1, 300], Some((EntityId(5), WriteOp::Add(-42)))),
                "12ffffffff0f02030001ac02010553",
            ),
            (
                unlock(&[6], Some((EntityId(5), WriteOp::Put(258)))),
                "12ffffffff0f02010602058202",
            ),
            (unlock(&[6], None), "12ffffffff0f02010600"),
            (
                WalRecord::Commit {
                    gid: 1,
                    template: 0,
                    attempt: 1,
                    commit_ts: u64::MAX - 1,
                },
                "14010001feffffffffffffffff01",
            ),
            (WalRecord::Abort { gid: 2, attempt: 0 }, "150200"),
        ];
        for (rec, pinned) in pins {
            assert_eq!(hex(&rec.encode()), pinned, "{rec:?}");
            roundtrip(rec);
        }
    }

    /// A directory written in an older grammar (`Write` with its two
    /// value images, `Event` with its time, `Undo`, the tag-7 frame that
    /// held several decisions) is refused with a typed error naming the
    /// file and the record — there is no reader for it, and it must
    /// never be skipped or misread.
    #[test]
    fn old_format_frames_are_refused_with_a_typed_record_error() {
        use ddlf_model::{Database, Op, Transaction};
        let image = |version: u64, value: u64| {
            let mut b = version.to_le_bytes().to_vec();
            b.push(0); // the integer payload's tag
            b.extend(value.to_le_bytes());
            b
        };
        let mut old_write = vec![2u8];
        for word in [0u32, 0, 0] {
            old_write.extend(word.to_le_bytes()); // gid, attempt, entity
        }
        old_write.push(0); // WriteOp::Add
        old_write.extend(1i64.to_le_bytes());
        old_write.extend(image(0, 1000));
        old_write.extend(image(1, 1001));
        assert_eq!(old_write.len() + 4, 60, "the old 60-byte Write frame");
        let mut old_event = vec![6u8];
        old_event.extend(0u64.to_le_bytes()); // time
        for word in [0u32, 0, 0] {
            old_event.extend(word.to_le_bytes()); // gid, attempt, node
        }
        let mut old_undo = vec![3u8];
        old_undo.extend(0u32.to_le_bytes());
        old_undo.extend(0u32.to_le_bytes());
        old_undo.extend(image(0, 1000));
        // Tag 7, count 2, then two 20-byte commit entries.
        let mut old_group = vec![7u8];
        old_group.extend(2u32.to_le_bytes());
        for gid in [0u32, 1] {
            for word in [gid, 0, 0] {
                old_group.extend(word.to_le_bytes()); // gid, template, attempt
            }
            old_group.extend(u64::from(gid + 1).to_le_bytes()); // commit_ts
        }

        let db = Database::one_entity_per_site(1);
        let ops = [Op::lock(EntityId(0)), Op::unlock(EntityId(0))];
        let t = Transaction::from_total_order("T", &ops, &db).unwrap();
        let sys = TransactionSystem::new(db, vec![t]).unwrap();
        let current = WalRecord::Unlock {
            gid: 0,
            attempt: 0,
            nodes: vec![NodeId(0), NodeId(1)],
            written: Some((EntityId(0), WriteOp::Add(1))),
        };
        for (tag, old) in [
            ("old-write", old_write),
            ("old-undo", old_undo),
            ("old-event", old_event),
            ("old-commit-group", old_group),
        ] {
            let dir = unit_dir(tag);
            drop(Wal::create(&dir, &sys, 1000, WalOptions::default()).unwrap());
            let mut f = append_mode(&dir.join(LOG_FILE)).unwrap();
            f.write_all(&framed(&current.encode())).unwrap();
            f.write_all(&framed(&old)).unwrap();
            drop(f);
            match recover(&dir) {
                Err(WalError::Record(m)) => {
                    assert!(
                        m.contains(LOG_FILE) && m.contains("record 1 "),
                        "{tag}: {m}"
                    )
                }
                Err(other) => panic!("{tag}: expected a Record error, got {other}"),
                Ok(rec) => panic!("{tag}: old format recovered: {}", rec.summary()),
            }
        }
    }

    #[test]
    fn malformed_records_rejected() {
        assert_eq!(WalRecord::decode(&[]), None);
        assert_eq!(WalRecord::decode(&[99]), None);
        // Truncated Unlock.
        assert_eq!(WalRecord::decode(&[TAG_UNLOCK, 1]), None);
        // Trailing garbage after a valid Abort.
        let mut enc = WalRecord::Abort { gid: 2, attempt: 0 }.encode();
        enc.push(0xFF);
        assert_eq!(WalRecord::decode(&enc), None);
        // An Unlock of one node with no write: gid 1, attempt 0, n 1,
        // node 6, Written 0x00.
        let unlock = [TAG_UNLOCK, 1, 0, 1, 6, WRITTEN_NONE];
        assert!(WalRecord::decode(&unlock).is_some());
        // A node count past the payload, a huge one included.
        for n in [2, 0x7F] {
            let mut bad = unlock;
            bad[3] = n;
            assert_eq!(WalRecord::decode(&bad), None, "n = {n}");
        }
        // An unknown Written tag, a write with no operation after it.
        for tail in [&[3, 0, 0][..], &[WRITTEN_ADD, 0]] {
            let bad = [&unlock[..5], tail].concat();
            assert_eq!(WalRecord::decode(&bad), None, "{tail:?}");
        }
        // A u32 field (the gid) above u32::MAX.
        let mut wide = vec![TAG_ABORT];
        codec::put_var(&mut wide, u64::from(u32::MAX) + 1);
        wide.push(0);
        assert_eq!(WalRecord::decode(&wide), None);
    }

    /// Recovery decodes every `Unlock` into one reused node buffer: a
    /// buffer that has held the widest batch is never reallocated.
    #[test]
    fn unlock_nodes_decode_into_the_reused_buffer() {
        let unlock = |n: u32| WalRecord::Unlock {
            gid: n,
            attempt: 0,
            nodes: (0..n).map(NodeId).collect(),
            written: None,
        };
        let mut nodes = Vec::new();
        let wide = unlock(8).encode();
        WalRecord::decode_into(&wide, &mut nodes).unwrap();
        let (ptr, cap) = (nodes.as_ptr(), nodes.capacity());
        for n in (0..=8).rev() {
            let rec = WalRecord::decode_into(&unlock(n).encode(), &mut nodes);
            assert_eq!(
                rec.map(|r| r.map_nodes(<[NodeId]>::to_vec)),
                Some(unlock(n))
            );
            assert_eq!((nodes.as_ptr(), nodes.capacity()), (ptr, cap));
        }
    }

    fn unit_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ddlf-wal-unit-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn bare_wal_with(tag: &str, opts: WalOptions) -> Arc<Wal> {
        build_wal(unit_dir(tag), opts).unwrap()
    }

    /// Every record of `path` plus whether it ends torn: `scan_log`
    /// with nothing skipped, collected.
    fn read_log(path: &Path) -> Result<(Vec<WalRecord>, bool), WalError> {
        let mut out = Vec::new();
        let torn = scan_log(path, &[], |rec| {
            out.push(rec.map_nodes(<[NodeId]>::to_vec));
            Ok(())
        })?;
        Ok((out, torn))
    }

    /// A log of one whole `Abort` frame followed by the raw bytes `tail`.
    fn log_with_tail(tag: &str, tail: &[u8]) -> PathBuf {
        let path = unit_dir(tag).join("log.wal");
        let mut f = File::create(&path).unwrap();
        let first = WalRecord::Abort { gid: 0, attempt: 0 }.encode();
        f.write_all(&framed(&first)).unwrap();
        f.write_all(tail).unwrap();
        path
    }

    #[test]
    fn read_log_reports_corrupt_length_prefix_as_record_error() {
        // A length prefix above MAX_FRAME is never a torn append (a torn
        // append is a prefix of a valid frame): this is corruption.
        let path = log_with_tail("corrupt", &u32::MAX.to_le_bytes());
        match read_log(&path) {
            Err(WalError::Record(m)) => assert!(m.contains("corrupt frame length"), "{m}"),
            other => panic!("expected Record error, got {other:?}"),
        }
    }

    #[test]
    fn read_log_still_treats_a_partial_final_frame_as_the_crash_point() {
        // A 100-byte frame whose payload was cut short mid-append.
        let mut tail = 100u32.to_le_bytes().to_vec();
        tail.extend([1, 2, 3]);
        let (recs, torn) = read_log(&log_with_tail("torn", &tail)).unwrap();
        assert_eq!(recs.len(), 1, "the complete record survives");
        assert!(torn);
    }

    /// `initial_value` is a required field of `meta.json`: a file
    /// without it is a typed `Meta` error, not a store seeded with 0.
    #[test]
    fn meta_without_initial_value_is_a_meta_error() {
        let dir = unit_dir("meta-no-initial-value");
        let spec = r#"{"entities":[{"name":"x","site":0}],"transactions":[]}"#;
        std::fs::write(dir.join(META_FILE), format!(r#"{{"spec":{spec}}}"#)).unwrap();
        match recover(&dir) {
            Err(WalError::Meta(m)) => assert!(m.contains("initial_value"), "{m}"),
            Err(other) => panic!("expected a Meta error, got {other}"),
            Ok(_) => panic!("a meta.json without initial_value recovered"),
        }
        let meta = format!(r#"{{"spec":{spec},"initial_value":7}}"#);
        std::fs::write(dir.join(META_FILE), meta).unwrap();
        assert_eq!(recover(&dir).unwrap().initial_value, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn decisions_of(wal_dir: &Path) -> Vec<WalRecord> {
        let (recs, torn) = read_log(&wal_dir.join(LOG_FILE)).unwrap();
        assert!(!torn);
        recs
    }

    fn sync_wal(tag: &str) -> Arc<Wal> {
        bare_wal_with(
            tag,
            WalOptions {
                sync: true,
                ..WalOptions::default()
            },
        )
    }

    /// Frees fsync slot `slot`, as its committer does when its fsync
    /// returns, and wakes every waiter.
    fn free_slot(w: &Wal, slot: usize) {
        w.durable.lock().slots[slot] = None;
        w.synced.notify_all();
    }

    /// An fsync covers the prefix it pushed: eight committers that
    /// append while both fsync slots are busy all ride the next fsync —
    /// one group of eight, one push, eight `Commit` frames.
    #[test]
    fn one_fsync_covers_every_decision_appended_while_another_was_in_flight() {
        let w = sync_wal("durable-mark");
        w.durable.lock().slots = [Some(0); FSYNC_SLOTS];
        std::thread::scope(|s| {
            for gid in 0..8u32 {
                let w = &w;
                s.spawn(move || w.log_commit(gid, TxnId(0), 0, u64::from(gid) + 1));
            }
            while w.marks.decided.load(Ordering::Acquire) < 8 {
                std::thread::yield_now();
            }
            (0..FSYNC_SLOTS).for_each(|slot| free_slot(&w, slot));
        });
        assert!(!w.poisoned());
        assert_eq!(w.group_counters(), (1, 8));
        assert_eq!(w.pushes(), 1);
        let recs = decisions_of(w.dir());
        assert_eq!(recs.len(), 8);
        assert!(recs.iter().all(|r| matches!(r, WalRecord::Commit { .. })));
    }

    /// A committer that the fsync in flight cannot cover (its slot's
    /// `upto` is 0, below decision 1) starts its own fsync on the free
    /// slot instead of waiting that one out.
    #[test]
    fn a_committer_the_running_fsync_cannot_cover_starts_its_own() {
        let w = sync_wal("second-slot");
        w.durable.lock().slots[0] = Some(0);
        let (done, finished) = mpsc::channel();
        let committer = {
            let w = Arc::clone(&w);
            std::thread::spawn(move || {
                w.log_commit(0, TxnId(0), 0, 1);
                done.send(()).unwrap();
            })
        };
        let returned = finished.recv_timeout(Duration::from_secs(10));
        free_slot(&w, 0);
        committer.join().unwrap();
        assert!(
            returned.is_ok(),
            "log_commit waited out the fsync in flight (upto 0) instead of fsyncing decision 1 itself"
        );
        assert!(!w.poisoned());
        assert_eq!(w.group_counters(), (1, 1));
        assert_eq!(w.durable.lock().synced, 1);
    }

    #[test]
    fn a_decision_is_one_plain_commit_record() {
        let w = bare_wal_with("group-single", WalOptions::default());
        w.log_commit(3, TxnId(1), 2, 9);
        w.flush();
        assert_eq!(
            decisions_of(w.dir()),
            vec![WalRecord::Commit {
                gid: 3,
                template: 1,
                attempt: 2,
                commit_ts: 9,
            }]
        );
        assert_eq!(w.group_counters(), (1, 1));
    }

    #[test]
    fn injected_fsync_failure_wakes_every_parked_follower() {
        let w = bare_wal_with(
            "group-poison",
            WalOptions {
                sync: true,
                ..WalOptions::default()
            },
        );
        w.inject_fsync_failure();
        // Every committer must return — the failure branch advances the
        // durable mark and wakes every waiter; a lost wakeup here hangs
        // the test.
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let w = Arc::clone(&w);
                s.spawn(move || {
                    for i in 0..4 {
                        let gid = t * 4 + i;
                        w.log_commit(gid, TxnId(0), 0, u64::from(gid) + 1);
                    }
                });
            }
        });
        assert!(w.poisoned(), "a failed fsync must poison the WAL");
    }

    /// One of two overlapping fsyncs fails: slot 0 stands for an fsync
    /// in flight that covers none of the new decisions, and the
    /// committer that takes slot 1 gets the injected failure. Every
    /// committer must return while slot 0 is still busy, and the WAL
    /// reads poisoned.
    #[test]
    fn a_failure_in_one_of_two_overlapping_fsyncs_wakes_every_committer() {
        let w = sync_wal("two-slot-poison");
        w.durable.lock().slots[0] = Some(0);
        w.inject_fsync_failure();
        let (done, finished) = mpsc::channel();
        let committers: Vec<_> = (0..8u32)
            .map(|t| {
                let (w, done) = (Arc::clone(&w), done.clone());
                std::thread::spawn(move || {
                    for i in 0..4 {
                        let gid = t * 4 + i;
                        w.log_commit(gid, TxnId(0), 0, u64::from(gid) + 1);
                    }
                    done.send(()).unwrap();
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        let returned = (0..committers.len())
            .take_while(|_| {
                finished
                    .recv_timeout(deadline.saturating_duration_since(Instant::now()))
                    .is_ok()
            })
            .count();
        free_slot(&w, 0);
        committers.into_iter().for_each(|c| c.join().unwrap());
        assert_eq!(returned, 8, "a committer still waited with slot 0 busy");
        assert!(w.poisoned(), "a failed fsync must poison the WAL");
    }

    fn log_writer(tag: &str) -> (LogWriter, PathBuf) {
        let path = unit_dir(tag).join("log.wal");
        let file = append_mode(&path).unwrap();
        (LogWriter::new(file, Arc::default()), path)
    }

    #[test]
    fn buffered_writer_flushes_on_cap_and_on_demand() {
        let (mut w, path) = log_writer("bufcap");
        let rec = WalRecord::Abort { gid: 9, attempt: 1 };
        let framed = w.append(&rec).unwrap();
        assert_eq!(framed, rec.encode().len() + 4);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            0,
            "small frame stays buffered"
        );
        let to_cap = LOG_BUFFER / framed;
        for _ in 0..to_cap {
            w.append(&rec).unwrap();
        }
        assert!(
            std::fs::metadata(&path).unwrap().len() > 0,
            "crossing cap flushes"
        );
        assert_eq!(w.marks.pushes.load(Ordering::Relaxed), 1);
        w.flush().unwrap();
        let (recs, torn) = read_log(&path).unwrap();
        assert_eq!((recs.len(), torn), (to_cap + 1, false));
    }

    /// The in-place framing is the frame of `encode()`, byte for byte,
    /// for every record kind — one grammar, one encoder.
    #[test]
    fn log_writer_frames_every_record_kind_like_encode() {
        let commit = |gid| WalRecord::Commit {
            gid,
            template: 2,
            attempt: 1,
            commit_ts: u64::from(gid) << 33,
        };
        let unlock = |written| WalRecord::Unlock {
            gid: 4,
            attempt: 0,
            nodes: vec![NodeId(0), NodeId(11)],
            written,
        };
        let recs = [
            WalRecord::Begin {
                gid: 1,
                template: 0,
                attempt: 2,
            },
            unlock(Some((EntityId(3), WriteOp::Add(-7)))),
            unlock(Some((EntityId(3), WriteOp::Put(u64::MAX)))),
            unlock(None),
            commit(5),
            WalRecord::Abort { gid: 6, attempt: 3 },
        ];
        let (mut w, _) = log_writer("inplace");
        let mut want = Vec::new();
        for rec in &recs {
            want.extend(framed(&rec.encode()));
            let size = w.append(rec).unwrap();
            assert_eq!(w.buf, want, "{rec:?}");
            assert_eq!(size, rec.encode().len() + 4, "{rec:?}");
        }
        assert_eq!(
            w.marks.decided.load(Ordering::Relaxed),
            1,
            "decision frames"
        );
        assert_eq!(w.marks.pushed.load(Ordering::Relaxed), 0);
    }

    /// Without `sync` a decision is buffered like any record: no push
    /// until a reader needs it, and then exactly one.
    #[test]
    fn non_sync_decisions_wait_in_the_buffer_until_pushed() {
        let w = bare_wal_with("nosync-push", WalOptions::default());
        for gid in 0..16 {
            w.log_commit(gid, TxnId(0), 0, u64::from(gid) + 1);
        }
        assert_eq!(w.pushes(), 0, "a non-sync commit pushed the buffer");
        assert_eq!(std::fs::metadata(w.dir().join(LOG_FILE)).unwrap().len(), 0);
        assert_eq!(
            w.group_counters(),
            (16, 16),
            "one frame of one per decision"
        );
        w.push_decisions();
        assert_eq!(w.pushes(), 1);
        assert_eq!(decisions_of(w.dir()).len(), 16);
        w.push_decisions();
        w.append([WalRecord::Abort { gid: 0, attempt: 0 }]);
        w.push_decisions();
        assert_eq!(w.pushes(), 1, "nothing undecided is pushed for a reader");
    }

    /// Under `sync` the buffer reaches the kernel once per fsync, and a
    /// reader finds nothing to push.
    #[test]
    fn sync_decisions_push_once_per_fsync() {
        let w = bare_wal_with(
            "sync-push",
            WalOptions {
                sync: true,
                ..WalOptions::default()
            },
        );
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let w = Arc::clone(&w);
                s.spawn(move || {
                    for i in 0..8 {
                        let gid = t * 8 + i;
                        w.log_commit(gid, TxnId(0), 0, u64::from(gid) + 1);
                    }
                });
            }
        });
        let (flushes, records) = w.group_counters();
        assert_eq!(records, 32);
        assert_eq!(w.pushes(), flushes, "one push per fsync");
        w.push_decisions();
        assert_eq!(w.pushes(), flushes, "a synced decision is already pushed");
    }

    #[test]
    fn written_exhaustive_roundtrip() {
        for written in [
            None,
            Some((EntityId(u32::MAX), WriteOp::Add(i64::MIN))),
            Some((EntityId(0), WriteOp::Add(i64::MAX))),
            Some((EntityId(1), WriteOp::Put(u64::MAX))),
        ] {
            let mut b = Vec::new();
            put_written(&mut b, written);
            let mut r = b.as_slice();
            assert_eq!(get_written(&mut r), Some(written));
            assert!(r.is_empty());
        }
        // An unknown tag decodes to nothing, however long.
        assert_eq!(get_written(&mut [3u8, 0, 0, 0, 0].as_slice()), None);
    }
}
