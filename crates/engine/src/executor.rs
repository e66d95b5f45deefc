//! The worker-pool executor: drains a queue of transaction instances,
//! acquires locks across shards in partial-order-respecting order, and
//! applies the template's reads/writes.
//!
//! **One pool.** A run splits into at most [`EngineConfig::threads`]
//! jobs, and each job drains the run's chunks from one shared cursor.
//! The calling thread runs the first job itself; only the rest go to
//! the engine's persistent worker pool, so a one-chunk run never leaves
//! its caller's thread. The pool spawns a worker only when no idle one
//! is left to take a job, and the engine's drop joins them all.
//!
//! Every instance runs the same way: its chunk is admitted
//! (`execute_chunk`: one [`SlotGate`](crate::template::SlotGate)
//! acquisition per template, one batched `Begin` append), then each
//! attempt is one `Attempt` stepped by `drive` until it completes
//! or dies, and a completed attempt's decision is one `Commit` frame in
//! the WAL (under `wal_sync`, covered by an fsync before it returns).
//! The cached admission verdict selects only what a
//! *refused lock* does:
//!
//! * **Certified (`Nothing` policy)** — the request queues FIFO behind
//!   the holder and the worker parks on its grant channel; it *never*
//!   times out, aborts, or consults a detector. Safety and
//!   deadlock-freedom of the registered system's certified inflation
//!   (Theorems 3/4, or Theorem 5 for unbounded copies) make this
//!   correct; each template's counting gate keeps the in-flight mix a
//!   subsystem of the certified inflated system.
//! * **Fallback (wait-die)** — nothing queues: the refusal is put to
//!   the wait-die rule against the *current* holder on every poll
//!   (re-checking keeps every sustained wait older→younger, so no cycle
//!   can close); a requester that is not older dies, backs off, and
//!   retries with its original timestamp.
//!
//! **One id.** An instance is its `gid`, minted by the engine from one
//! monotone id space that lasts the engine's lifetime (seeded from
//! [`Recovered::next_base`] on resume): the holder in the lock tables,
//! the wait-die timestamp, the key of chain entries, audit vertices,
//! trace spans, [`Report::failed`] and every WAL record. Nothing is
//! run-local, with or without a WAL.
//!
//! **One event path.** Each release batch of effective lock/unlock
//! events takes the `engine.auditor` lock once and, inside that one
//! critical section, is appended to the log and fed to the
//! incremental [`StreamingAuditor`] — the same order in both — so the
//! engine keeps a *live* `D(S)` verdict instead of re-running the
//! quadratic batch audit per report. Commit/abort decisions flow to the
//! same auditor (aborted attempts contribute nothing to the committed
//! projection); the batch [`ddlf_sim::History::audit`] remains the
//! oracle: debug builds record a plain history under the same lock and
//! cross-check it when the auditor's epoch closes.
//!
//! **One audit epoch.** Runs may execute concurrently on one engine
//! (the wire server's Submits do), so the auditor belongs to an
//! *epoch*, not to a run: every admitted chunk in flight shares it.
//! The first run in opens the epoch; it closes — and is dropped —
//! when the last run in flight ends, or sooner at [`EPOCH_CAP`]: a
//! chunk joins after its gate slots, and one that finds the epoch full
//! waits for the chunks inside to finish, then closes it and opens the
//! next. Either way an epoch closes only at quiescence — no chunk
//! inside — so every conflict arc between two epochs points forward in
//! time and the concatenation of acyclic epochs is acyclic. A run's
//! verdict is the conjunction of the epoch verdicts its chunks observed
//! when they left. Verdicts are absorbing and a cycle closes while its
//! last instance's chunk is still inside, so every cycle reaches some
//! report. A run that overlaps no other (and stays under the cap) is
//! audited in one epoch of its own: exactly a per-run audit.

use crate::attempt::{wait_die, Attempt, Refused};
use crate::pool::Pool;
use crate::report::{conjoin, LatencyStats, Report, TemplateReport};
use crate::store::{Store, WriteCtx};
use crate::template::{AdmissionOptions, TemplateRegistry};
use crate::wal::{Recovered, Wal, WalOptions, WalRecord};
use crossbeam::channel::unbounded;
use ddlf_model::incremental::StreamingAuditor;
use ddlf_model::{EntityId, NodeId, Transaction, TransactionSystem, TxnId};
#[cfg(debug_assertions)]
use ddlf_sim::{History, HistoryEvent, SimTime};
use ddlf_telemetry::{Phase, SpanEvent, SpanKind, Telemetry, TemplateTable};
use parking_lot::{Condvar, Mutex};
use rand::prelude::*;
use rand::rngs::StdRng;
#[cfg(debug_assertions)]
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Instances one audit epoch admits before a joining chunk waits for it
/// to drain: the bound on the shared auditor's state (one conflict-graph
/// node per committed instance) while runs keep overlapping. An epoch
/// never holds more than this plus one chunk. It also bounds the
/// debug-build batch oracle, which re-audits each closed epoch from
/// scratch.
pub const EPOCH_CAP: usize = 256;

/// Attempt budget per instance. Only wait-die can use more than one:
/// the certified discipline never refuses for good.
const MAX_ATTEMPTS: u32 = 1000;

/// Base retry backoff after a wait-die death (jittered).
const BACKOFF: Duration = Duration::from_micros(300);

/// Sleep between two asks of an older wait-die requester.
const POLL: Duration = Duration::from_micros(50);

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// At most this many threads per run, the calling thread included
    /// (and never more than the run has chunks): the caller plus up to
    /// `threads − 1` workers drawn from the engine's persistent pool,
    /// which spawns a worker only when no idle one is left.
    pub threads: usize,
    /// Total transaction instances to run (assigned round-robin over the
    /// registered templates). [`Engine::run`] panics once the engine's
    /// lifetime total would pass `u32::MAX` (gids double as wait-die
    /// timestamps).
    pub instances: usize,
    /// Simulated per-lock work while holding the grant (widens contention
    /// windows; keep zero for raw throughput).
    pub work: Duration,
    /// RNG seed for jitter.
    pub seed: u64,
    /// Initial integer payload of every entity.
    pub initial_value: u64,
    /// Run wait-die even when the system certifies (for benchmarking the
    /// cost of not trusting the certificate).
    pub force_fallback: bool,
    /// Write-ahead log directory: every write, commit decision, and
    /// history event is appended to one log file (see
    /// [`crate::wal`]) so [`crate::wal::recover`] can replay the store
    /// after a crash. `None` = in-memory only (rollback still works).
    pub wal_dir: Option<PathBuf>,
    /// A commit decision is always one buffered `Commit` frame. With
    /// `wal_sync` its committer also waits for an `fsync` that covers it
    /// — one fsync per group of decisions appended before it started,
    /// covering their data too (see [`WalOptions::sync`]). Without it
    /// the frame reaches the kernel before anyone can observe the
    /// commit: before the run returns (and so before its Submit
    /// replies), and before a snapshot showing it returns.
    pub wal_sync: bool,
    /// Read by nothing: every decision takes the one path above, whose
    /// groups need no size. Kept only because the benchmark harness
    /// (`harness/`) still sets it; it goes when the harness is next
    /// revised.
    #[doc(hidden)]
    pub group_commit: Option<usize>,
    /// Admission batch size: workers claim instances from the run queue
    /// in chunks of up to this many, admitting each chunk under one
    /// gate acquisition per template and one log-lock acquisition for its
    /// `Begin` records — amortizing the per-instance admission critical
    /// sections. `1` (the default) makes every instance a chunk of one.
    /// Chunk instances execute sequentially on their worker, so
    /// certified slot accounting is unchanged.
    pub admission_batch: usize,
    /// Observability handle shared by the executor, the store's shards,
    /// and the WAL: phase-latency histograms, per-template counters,
    /// gauges, and the sampled lifecycle trace ring. The default
    /// [`Telemetry::disabled`] handle costs one branch per
    /// instrumentation point (see `ddlf_telemetry`); `ddlf-audit run`
    /// and `serve` enable histograms by default.
    pub telemetry: Telemetry,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            instances: 64,
            work: Duration::ZERO,
            seed: 0,
            initial_value: 1_000,
            force_fallback: false,
            wal_dir: None,
            wal_sync: false,
            group_commit: None,
            admission_batch: 1,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// The sharded execution engine: a certified-or-not template registry,
/// the versioned store, and a worker pool that lives as long as the
/// engine (dropping the engine joins its workers).
pub struct Engine {
    /// What a run's pool jobs execute against, shared with them.
    core: Arc<Core>,
    /// The one instance-id space, for the engine's whole lifetime.
    gids: GidSpace,
    /// Cumulative outcome of every run so far, maintained by
    /// [`Report::absorb`]; `None` until the first non-empty run. Behind a
    /// mutex so concurrent runs (e.g. wire submissions) merge safely.
    cumulative: Mutex<Option<Report>>,
    /// The engine's workers: dropping the engine closes the pool and
    /// joins every one of them (no run is in flight by then — a run
    /// borrows the engine).
    pool: Pool,
}

/// The engine state a pool job carries: everything an instance's
/// execution touches.
struct Core {
    registry: TemplateRegistry,
    /// Shared so the read-only snapshot path (wire `ReadOnly`
    /// requests, `run --readers` scanner threads) can read concurrently
    /// with a run without holding any engine reference.
    store: Arc<Store>,
    cfg: EngineConfig,
    /// The write-ahead log, when `cfg.wal_dir` asked for one.
    wal: Option<Arc<Wal>>,
    /// The audit epoch every chunk in flight shares.
    epochs: Epochs,
}

/// The monotone gid allocator: each run reserves a contiguous range
/// above every id minted (or recovered) so far.
struct GidSpace(AtomicU32);

impl GidSpace {
    /// Reserves `count` ids, returning the first. The range is claimed
    /// with a compare-exchange on `checked_add`, so exhaustion panics
    /// *before* a wrapped id is ever published — a concurrent
    /// reservation can never observe colliding ids.
    fn reserve(&self, count: u32) -> u32 {
        let claim = |first: u32| first.checked_add(count);
        self.0
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, claim)
            .expect("engine instance-id space exhausted (u32)")
    }
}

#[derive(Debug, Clone, Copy)]
struct Instance {
    /// The engine-lifetime instance id; doubles as the wait-die
    /// timestamp (smaller = older).
    gid: u32,
    template: TxnId,
}

/// Which audit epoch is open, behind `engine.epoch`: every run pins it
/// and every chunk joins and leaves it under this lock, and a chunk
/// admits its instances to the epoch's auditor inside it
/// (`engine.epoch` ▷ `engine.auditor`).
struct Epochs {
    slot: Mutex<EpochSlot>,
    /// Signalled when the open epoch runs out of chunks, for chunks
    /// waiting out the cap.
    drained: Condvar,
}

#[derive(Default)]
struct EpochSlot {
    /// The open epoch's audit; `None` between epochs.
    open: Option<Arc<Mutex<EpochAudit>>>,
    /// Runs in flight. They keep the epoch open across the gaps between
    /// their chunks, so a run that overlaps no other is audited in one
    /// epoch; they do not stop it from closing at the cap.
    runs: usize,
    /// Chunks executing inside the open epoch.
    chunks: usize,
    /// Instances admitted to the open epoch.
    admitted: usize,
    /// Chunks waiting out the cap; the last chunk out wakes them.
    waiting: usize,
    /// Closed epochs the batch oracle re-audited.
    #[cfg(debug_assertions)]
    cross_checked: usize,
}

/// What one epoch's `engine.auditor` mutex guards: the only record of
/// "what happened" — the live auditor and (debug builds) the plain
/// history the batch oracle re-audits when the epoch closes.
struct EpochAudit {
    auditor: StreamingAuditor,
    #[cfg(debug_assertions)]
    oracle: Oracle,
}

/// The debug-build batch oracle of one epoch.
#[cfg(debug_assertions)]
#[derive(Default)]
struct Oracle {
    history: History,
    /// Every admitted gid: its template and committed attempt.
    instances: HashMap<u32, (TxnId, Option<u32>)>,
}

impl EpochAudit {
    fn new(sys: &TransactionSystem) -> Self {
        EpochAudit {
            auditor: StreamingAuditor::new(sys),
            #[cfg(debug_assertions)]
            oracle: Oracle::default(),
        }
    }

    fn admit(&mut self, inst: Instance) {
        self.auditor.admit(inst.gid, inst.template);
        #[cfg(debug_assertions)]
        self.oracle
            .instances
            .insert(inst.gid, (inst.template, None));
    }

    /// The one event path: a release batch of `ctx`'s events enters
    /// the log and the auditor inside the caller's single critical
    /// section, so log order is audit order.
    fn record(&mut self, wal: Option<&Wal>, ctx: WriteCtx, nodes: &[NodeId]) {
        if let Some(w) = wal {
            let (gid, attempt) = (ctx.gid, ctx.attempt);
            w.append(
                nodes
                    .iter()
                    .map(|&node| WalRecord::Event { gid, attempt, node }),
            );
        }
        for &node in nodes {
            self.auditor.event(ctx.gid, ctx.attempt, node);
            #[cfg(debug_assertions)]
            self.oracle.history.record(HistoryEvent {
                time: SimTime(self.oracle.history.len() as u64),
                txn: TxnId(ctx.gid),
                attempt: ctx.attempt,
                node,
            });
        }
    }

    fn commit(&mut self, gid: u32, attempt: u32) {
        self.auditor.commit(gid, attempt);
        #[cfg(debug_assertions)]
        if let Some((_, committed)) = self.oracle.instances.get_mut(&gid) {
            *committed = Some(attempt);
        }
    }

    /// Debug builds, at close: the live verdict — what the last chunk
    /// out observed — is the sealed one (every committed instance ran
    /// to completion, so sealing adds no Lemma 1 arc), and both equal
    /// the batch oracle over the very same history. The whole engine
    /// test suite doubles as an equivalence proptest; [`EPOCH_CAP`]
    /// bounds what the quadratic oracle rebuilds.
    #[cfg(debug_assertions)]
    fn cross_check(&mut self, sys: &TransactionSystem) {
        let live = self.auditor.verdict();
        let sealed = self.auditor.seal();
        debug_assert_eq!(live, sealed, "sealing changed a complete epoch's verdict");
        debug_assert_eq!(
            sealed,
            self.oracle.audit(sys),
            "streaming audit diverged from the batch oracle"
        );
    }
}

#[cfg(debug_assertions)]
impl Oracle {
    /// The batch `D(S)` audit of the epoch's committed projection: one
    /// transaction per committed instance, indexed through an
    /// epoch-local table (gid order) — overlapping runs interleave
    /// their gid ranges, so gids are not contiguous here.
    fn audit(&self, sys: &TransactionSystem) -> Option<bool> {
        let mut members: Vec<(u32, TxnId, u32)> = self
            .instances
            .iter()
            .filter_map(|(&gid, &(t, committed))| Some((gid, t, committed?)))
            .collect();
        if members.is_empty() {
            return Some(true);
        }
        members.sort_unstable_by_key(|&(gid, ..)| gid);
        let local: HashMap<u32, u32> = (0..)
            .zip(&members)
            .map(|(i, &(gid, ..))| (gid, i))
            .collect();
        let txns: Vec<Transaction> = members
            .iter()
            .map(|&(gid, t, _)| {
                let t = sys.txn(t);
                t.clone().with_name(format!("{}#{gid}", t.name()))
            })
            .collect();
        let committed_attempt: Vec<Option<u32>> =
            members.iter().map(|&(.., attempt)| Some(attempt)).collect();
        let mut history = History::new();
        for e in self.history.events() {
            if let Some(&i) = local.get(&e.txn.0) {
                history.record(HistoryEvent {
                    txn: TxnId(i),
                    ..*e
                });
            }
        }
        TransactionSystem::new(sys.db().clone(), txns)
            .ok()
            .and_then(|audit_sys| history.audit(&audit_sys, &committed_attempt).ok())
    }
}

/// A run's pin on the audit epoch ([`Core::pin_epoch`]); dropping it
/// — on every path, unwinding included — closes the epoch if it was the
/// last run in flight.
struct RunPin<'e>(&'e Core);

impl Drop for RunPin<'_> {
    fn drop(&mut self) {
        let mut slot = self.0.epochs.slot.lock();
        slot.runs -= 1;
        if slot.runs == 0 {
            self.0.close_epoch(&mut slot);
        }
    }
}

/// A chunk's seat in the open audit epoch ([`Core::join_epoch`]);
/// dropping it — on every path, unwinding included, so a panic cannot
/// hold an epoch open for good — leaves the epoch.
struct EpochSeat<'e> {
    core: &'e Core,
    audit: Arc<Mutex<EpochAudit>>,
}

impl Drop for EpochSeat<'_> {
    fn drop(&mut self) {
        let epochs = &self.core.epochs;
        let mut slot = epochs.slot.lock();
        slot.chunks -= 1;
        if slot.chunks == 0 && slot.waiting > 0 {
            epochs.drained.notify_all();
        }
    }
}

/// Stamps the span events of one trace-sampled instance.
#[derive(Clone, Copy)]
struct Tracer<'a> {
    tel: &'a Telemetry,
    gid: u32,
    template: TxnId,
}

impl Tracer<'_> {
    fn emit(&self, attempt: u32, kind: SpanKind, entity: u32, dur_ns: u64, n: u64) {
        self.tel.trace(SpanEvent {
            ts_ns: self.tel.now_ns(),
            gid: u64::from(self.gid),
            template: self.template.0,
            attempt,
            kind,
            entity,
            dur_ns,
            n,
        });
    }
}

#[derive(Debug, Default, Clone)]
struct Outcome {
    committed_attempt: Option<u32>,
    aborts: u32,
    dirty_aborts: u32,
    rolled_back: u64,
    reads: u64,
    writes: u64,
    writes_skipped: u64,
    /// History events recorded, every attempt's.
    events: u64,
    latency_us: u64,
}

impl Engine {
    /// Builds an engine over `sys`: certifies it (cached in the
    /// registry) and initializes the sharded store.
    pub fn new(sys: TransactionSystem, cfg: EngineConfig) -> Self {
        Self::with_admission(sys, AdmissionOptions::default(), cfg)
    }

    /// Builds an engine over `sys` with an explicit admission request
    /// (inflation + certifier options).
    ///
    /// # Panics
    /// Panics when `cfg.wal_dir` is set and the log directory cannot be
    /// created (use [`Engine::try_with_admission`] for the fallible
    /// form).
    pub fn with_admission(
        sys: TransactionSystem,
        admission: AdmissionOptions,
        cfg: EngineConfig,
    ) -> Self {
        Self::try_with_admission(sys, admission, cfg).expect("WAL directory usable")
    }

    /// [`Engine::with_admission`], surfacing WAL I/O errors instead of
    /// panicking.
    pub fn try_with_admission(
        sys: TransactionSystem,
        admission: AdmissionOptions,
        cfg: EngineConfig,
    ) -> io::Result<Self> {
        let registry = TemplateRegistry::register_with(sys, admission);
        Self::try_with_registry(registry, cfg)
    }

    /// Builds an engine from an already-certified registry (custom
    /// programs installed).
    ///
    /// # Panics
    /// Panics when `cfg.wal_dir` is set and unusable (see
    /// [`Engine::try_with_registry`]).
    pub fn with_registry(registry: TemplateRegistry, cfg: EngineConfig) -> Self {
        Self::try_with_registry(registry, cfg).expect("WAL directory usable")
    }

    /// [`Engine::with_registry`], surfacing WAL I/O errors.
    pub fn try_with_registry(registry: TemplateRegistry, cfg: EngineConfig) -> io::Result<Self> {
        let sys = registry.system();
        let store = Store::new(sys.db(), cfg.initial_value);
        let wal = match &cfg.wal_dir {
            None => None,
            Some(dir) => {
                let opts = Self::wal_options(&cfg);
                Some(Wal::create(dir.clone(), sys, cfg.initial_value, opts)?)
            }
        };
        Ok(Self::assemble(registry, store, cfg, wal, 0))
    }

    /// The one place an engine is put together: `next_gid` seeds the id
    /// space (0 fresh, [`Recovered::next_base`] on resume).
    fn assemble(
        registry: TemplateRegistry,
        mut store: Store,
        cfg: EngineConfig,
        wal: Option<Arc<Wal>>,
        next_gid: u32,
    ) -> Self {
        store.set_telemetry(&cfg.telemetry);
        if let Some(w) = &wal {
            store.attach_wal(w);
        }
        Self::install_template_counters(&registry, &cfg.telemetry);
        Self {
            core: Arc::new(Core {
                registry,
                store: Arc::new(store),
                cfg,
                wal,
                epochs: Epochs {
                    slot: Mutex::new_named("engine.epoch", EpochSlot::default()),
                    drained: Condvar::new(),
                },
            }),
            gids: GidSpace(AtomicU32::new(next_gid)),
            cumulative: Mutex::new_named("engine.cumulative", None),
            pool: Pool::new(),
        }
    }

    /// Rebuilds an engine from a recovered WAL directory: the registry
    /// is re-certified from the recovered system, the store starts from
    /// the replayed committed state, the WAL resumes appending to the
    /// same directory, and the id space resumes above everything already
    /// logged ([`Recovered::next_base`]). `cfg.wal_dir`/`initial_value`
    /// are overridden by the recovery.
    pub fn from_recovered(
        rec: Recovered,
        admission: AdmissionOptions,
        mut cfg: EngineConfig,
        dir: impl Into<PathBuf>,
    ) -> io::Result<Self> {
        let dir = dir.into();
        let wal = Wal::resume(dir.clone(), Self::wal_options(&cfg))?;
        cfg.wal_dir = Some(dir);
        cfg.initial_value = rec.initial_value;
        let registry = TemplateRegistry::register_with(rec.system, admission);
        Ok(Self::assemble(
            registry,
            rec.store,
            cfg,
            Some(wal),
            rec.next_base,
        ))
    }

    fn wal_options(cfg: &EngineConfig) -> WalOptions {
        WalOptions {
            sync: cfg.wal_sync,
            telemetry: cfg.telemetry.clone(),
        }
    }

    /// (Re)installs the per-template outcome counter table for this
    /// engine's registered system, resetting any previous counts — a
    /// new registration means new template identities.
    fn install_template_counters(registry: &TemplateRegistry, telemetry: &Telemetry) {
        if telemetry.is_enabled() {
            let names: Vec<String> = registry
                .system()
                .iter()
                .map(|(_, t)| t.name().to_string())
                .collect();
            telemetry.install_templates(&names);
        }
    }

    /// The template registry (with its cached verdict).
    pub fn registry(&self) -> &TemplateRegistry {
        &self.core.registry
    }

    /// The sharded store (inspect after a run).
    pub fn store(&self) -> &Store {
        &self.core.store
    }

    /// A shared handle to the store, for concurrent read-only snapshot
    /// readers that must not hold (or wait on) any engine reference —
    /// e.g. the wire server's `ReadOnly` path reading while a `Submit`
    /// run holds the engine lock.
    pub fn store_handle(&self) -> Arc<Store> {
        Arc::clone(&self.core.store)
    }

    /// Runs one **read-only transaction**: claims a snapshot timestamp
    /// and reads every entity in `entities` at that single committed
    /// cut — no lock-table entry, no WAL record, leaf shard mutexes
    /// only (one brief acquisition per entity). Duration lands in the
    /// `snapshot_read` phase histogram. See
    /// [`Store::read_only_snapshot`] / [`crate::mvcc`].
    pub fn run_read_only(&self, entities: &[EntityId]) -> crate::mvcc::RoSnapshot {
        let tel = &self.core.cfg.telemetry;
        let started = Instant::now();
        let snap = self.core.store.read_only_snapshot(entities);
        tel.record(Phase::SnapshotRead, started.elapsed());
        snap
    }

    /// The attached write-ahead log, if `wal_dir` asked for one.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.core.wal.as_ref()
    }

    /// Runs `cfg.instances` instances (assigned round-robin over the
    /// registered templates) on up to `cfg.threads` threads, this one
    /// included, and reports.
    /// Reusable; the store accumulates writes across runs and the
    /// outcome folds into [`Engine::report_snapshot`].
    pub fn run(&self) -> Report {
        self.run_mix(&self.uniform_mix(self.core.cfg.instances))
    }

    /// `count` instances spread round-robin over every registered
    /// template: what [`Engine::run`] executes and what an untargeted
    /// wire `Submit` asks for.
    pub fn uniform_mix(&self, count: usize) -> Vec<(TxnId, usize)> {
        let n = self.core.registry.len();
        (0..n)
            .map(|i| (TxnId::from_index(i), count / n + usize::from(i < count % n)))
            .collect()
    }

    /// Runs an explicit per-template mix — `count` instances of each
    /// listed template, interleaved round-robin across the entries — on
    /// up to `cfg.threads` threads, this one included (ignoring
    /// `cfg.instances`). This is the submission path of the wire server,
    /// where clients pick templates by name instead of taking the
    /// uniform round-robin of [`Engine::run`]. The instances get the
    /// next `total` gids of the engine's id space, in interleave order.
    ///
    /// # Panics
    /// Panics with a descriptive message when a `TxnId` does not name a
    /// registered template or the engine's lifetime instance count
    /// would exceed `u32::MAX` (gids double as wait-die timestamps).
    pub fn run_mix(&self, mix: &[(TxnId, usize)]) -> Report {
        let registered = self.core.registry.len();
        for &(t, _) in mix {
            assert!(
                t.index() < registered,
                "run_mix: {t} is not a registered template ({registered} registered)"
            );
        }
        let total: usize = mix.iter().map(|&(_, n)| n).sum();
        if total == 0 {
            return self.core.build_report(&[], &[], Duration::ZERO, None);
        }
        let first = self
            .gids
            .reserve(u32::try_from(total).expect("instance count fits u32"));
        let mut remaining: Vec<(TxnId, usize)> = mix.to_vec();
        let mut instances = Vec::with_capacity(total);
        // Interleave entries so concurrent templates mix round-robin
        // rather than executing in submission blocks.
        while instances.len() < total {
            for (t, left) in &mut remaining {
                if *left > 0 {
                    *left -= 1;
                    instances.push(Instance {
                        gid: first + instances.len() as u32,
                        template: *t,
                    });
                }
            }
        }
        self.run_instances(instances.into())
    }

    /// The cumulative outcome of every run so far (sums of counters,
    /// conjunction of audit verdicts, high-water marks) without running
    /// anything — the `Report` RPC of the wire server reads this. Before
    /// the first run it reports the registered system with zero
    /// instances and `serializable: None`.
    pub fn report_snapshot(&self) -> Report {
        self.cumulative
            .lock()
            .clone()
            .unwrap_or_else(|| self.core.build_report(&[], &[], Duration::ZERO, None))
    }

    fn run_instances(&self, instances: Arc<[Instance]>) -> Report {
        let core = &self.core;
        // Per-run multiprogramming accounting starts fresh.
        for t in 0..core.registry.len() {
            core.registry
                .template(TxnId::from_index(t))
                .gate()
                .reset_peak();
        }

        // Phase and group-counter attribution: snapshot the cumulative
        // counters around the pool, then diff. Buckets are monotone, so
        // the difference is every sample taken meanwhile — this run's,
        // plus those of any run overlapping it on the same engine (the
        // wire server's concurrent Submits). Only a single-caller run
        // (the CLI's `run`) gets exactly its own.
        let phases_before = core.cfg.telemetry.phase_snapshot();
        let groups_before = match &core.wal {
            Some(w) => w.group_counters(),
            None => (0, 0),
        };
        let started = Instant::now();
        let pin = core.pin_epoch(instances.len());
        // Jobs claim instances in admission-batch chunks (of one, by
        // default) from one shared cursor: each chunk is admitted under
        // one gate acquisition per template and one log-lock acquisition
        // for its Begin records, and audited in the open epoch, which it
        // joins and leaves (see `execute_chunk`). By the time the last
        // job reports back, the verdict is already computed. No more
        // jobs than chunks: a job past the last chunk would only find
        // the cursor spent. This thread runs one job itself, so a
        // one-chunk run never touches the pool.
        let batch = core.cfg.admission_batch.max(1);
        let jobs = core.cfg.threads.max(1).min(instances.len().div_ceil(batch));
        let work = {
            let (core, instances) = (Arc::clone(core), Arc::clone(&instances));
            let cursor = AtomicUsize::new(0);
            // Workers bump per-template counters through this resolved
            // table: pure atomics, no per-instance locking.
            let ttable = core.cfg.telemetry.template_table();
            move || {
                let mut done = Vec::new();
                let mut seen = Some(true);
                loop {
                    // A plain ticket counter: the instances it indexes
                    // are immutable, so it publishes nothing.
                    let start = cursor.fetch_add(batch, Ordering::Relaxed);
                    let Some(rest) = instances.get(start..).filter(|r| !r.is_empty()) else {
                        break;
                    };
                    let chunk = &rest[..batch.min(rest.len())];
                    let observed = core.execute_chunk(chunk, &mut done, ttable.as_deref());
                    seen = conjoin(seen, observed);
                }
                (done, seen)
            }
        };
        let reports = self.pool.scatter(jobs, work);
        let wall = started.elapsed();
        drop(pin);
        // The log buffer may still hold frames — without `sync`, this
        // run's commit decisions among them; push them to the kernel
        // before the run reports, so a post-run crash loses nothing
        // this run claimed committed (under `sync` every decision was
        // already pushed and fsynced before its committer returned).
        if let Some(w) = &core.wal {
            w.flush();
        }

        let mut outcomes: Vec<Outcome> = vec![Outcome::default(); instances.len()];
        let mut seen = Some(true);
        for (done, observed) in reports {
            seen = conjoin(seen, observed);
            for (gid, out) in done {
                outcomes[(gid - instances[0].gid) as usize] = out;
            }
        }
        let mut report = core.build_report(&instances, &outcomes, wall, seen);
        report.phases = core.cfg.telemetry.phase_snapshot().delta(&phases_before);
        if let Some(w) = &core.wal {
            let (flushes, commits) = w.group_counters();
            let (f0, c0) = groups_before;
            report.group_flushes = flushes - f0;
            report.group_commits = commits - c0;
        }
        let mut cumulative = self.cumulative.lock();
        match cumulative.as_mut() {
            Some(acc) => acc.absorb(&report),
            None => *cumulative = Some(report.clone()),
        }
        report
    }
}

impl Core {
    /// Whether this engine executes the no-detector path.
    fn certified_path(&self) -> bool {
        self.registry.verdict().is_certified() && !self.cfg.force_fallback
    }

    fn begin(inst: Instance, attempt: u32) -> WalRecord {
        WalRecord::Begin {
            gid: inst.gid,
            template: inst.template.0,
            attempt,
        }
    }

    /// Runs one admission-batch chunk — the only admission path, a chunk
    /// of one included. The chunk is admitted as a unit (one gate
    /// acquisition per distinct template, one log-lock acquisition for
    /// every first-attempt `Begin`), then its instances execute
    /// sequentially on this worker. Sequential execution is what keeps
    /// batching sound: at most one of the chunk's instances is inside
    /// any template at a time, so one slot per template bounds the
    /// concurrent in-flight mix exactly. Gates are acquired before any
    /// data lock (so gate waits cannot entangle with lock waits) and in
    /// template-index order, so two workers holding chunks over
    /// overlapping template sets always contend in the same order and
    /// cannot deadlock. With its slots held the chunk joins the open
    /// audit epoch, and it leaves once its last instance is done,
    /// returning the verdict it observed then. Each instance's outcome
    /// lands in `done`, keyed by gid.
    fn execute_chunk(
        &self,
        chunk: &[Instance],
        done: &mut Vec<(u32, Outcome)>,
        ttable: Option<&TemplateTable>,
    ) -> Option<bool> {
        let tel = &self.cfg.telemetry;
        let mut counts: Vec<(TxnId, usize)> = Vec::new();
        for inst in chunk {
            match counts.iter_mut().find(|(t, _)| *t == inst.template) {
                Some((_, n)) => *n += 1,
                None => counts.push((inst.template, 1)),
            }
        }
        counts.sort_unstable_by_key(|&(t, _)| t.index());
        let asked = Instant::now();
        let _slots: Vec<_> = counts
            .iter()
            .map(|&(t, n)| self.registry.template(t).gate.acquire_many(n))
            .collect();
        let seat = self.join_epoch(chunk);
        let gate_wait = asked.elapsed();
        tel.record(Phase::GateWait, gate_wait);
        if let Some(w) = &self.wal {
            w.append(chunk.iter().map(|i| Self::begin(*i, 0)));
        }
        for inst in chunk {
            let out = self.execute_instance(*inst, &seat.audit, ttable, gate_wait);
            done.push((inst.gid, out));
        }
        let seen = seat.audit.lock().auditor.verdict();
        drop(seat);
        seen
    }

    /// Pins the audit epoch for a run of `instances`: the open epoch (or
    /// a new one) stays open between the run's chunks and closes when
    /// the last pinned run ends. The epoch's instance table is sized
    /// here, on the run's thread, so it does not regrow on the workers:
    /// each worker allocates from its own malloc arena, which keeps what
    /// a regrowth frees.
    fn pin_epoch(&self, instances: usize) -> RunPin<'_> {
        let mut slot = self.epochs.slot.lock();
        slot.runs += 1;
        let audit = self.open_epoch(&mut slot);
        audit.lock().auditor.reserve(instances.min(EPOCH_CAP));
        RunPin(self)
    }

    /// The open epoch's audit, opening an epoch if none is.
    fn open_epoch<'s>(&self, slot: &'s mut EpochSlot) -> &'s Arc<Mutex<EpochAudit>> {
        slot.open.get_or_insert_with(|| {
            let audit = EpochAudit::new(self.registry.system());
            Arc::new(Mutex::new_named("engine.auditor", audit))
        })
    }

    /// Seats `chunk` in the open audit epoch and admits its instances to
    /// the epoch's auditor. While the open epoch is at [`EPOCH_CAP`] the
    /// chunk waits for it to drain, then closes it and opens the next;
    /// it holds gate slots then but no lock class (the condvar releases
    /// `engine.epoch`), and every chunk inside already holds its own
    /// slots, so the drain never waits on the waiter.
    fn join_epoch(&self, chunk: &[Instance]) -> EpochSeat<'_> {
        let mut slot = self.epochs.slot.lock();
        while slot.admitted > 0 && slot.admitted + chunk.len() > EPOCH_CAP {
            if slot.chunks == 0 {
                self.close_epoch(&mut slot);
            } else {
                slot.waiting += 1;
                self.epochs.drained.wait(&mut slot);
                slot.waiting -= 1;
            }
        }
        let audit = Arc::clone(self.open_epoch(&mut slot));
        slot.chunks += 1;
        slot.admitted += chunk.len();
        let mut au = audit.lock();
        for inst in chunk {
            au.admit(*inst);
        }
        drop(au);
        EpochSeat { core: self, audit }
    }

    /// Closes the open epoch, which must be quiescent (no chunk inside,
    /// so every conflict arc to a later epoch points forward). Its
    /// verdict was observed by the chunks that left it; what remains is
    /// the gauge — the closed epoch's final size, until the next
    /// epoch's first commit — and the debug-build cross-check.
    fn close_epoch(&self, slot: &mut EpochSlot) {
        debug_assert_eq!(slot.chunks, 0, "an epoch closes only at quiescence");
        slot.admitted = 0;
        let Some(audit) = slot.open.take() else {
            return;
        };
        let (nodes, arcs) = {
            let au = &audit.lock().auditor;
            (au.node_count() as u64, au.arc_count() as u64)
        };
        self.cfg.telemetry.set_auditor(nodes, arcs);
        #[cfg(debug_assertions)]
        {
            audit.lock().cross_check(self.registry.system());
            slot.cross_checked += 1;
        }
    }

    /// Runs one admitted instance (its chunk holds the gate slot and an
    /// epoch seat, after `gate_wait`, and logged its first `Begin`) to
    /// commit: attempts until one completes, dying and backing off in
    /// between.
    fn execute_instance(
        &self,
        inst: Instance,
        audit: &Mutex<EpochAudit>,
        ttable: Option<&TemplateTable>,
        gate_wait: Duration,
    ) -> Outcome {
        let tel = &self.cfg.telemetry;
        let started = Instant::now();
        let tmpl = self.registry.template(inst.template);
        let t = self.registry.system().txn(inst.template);
        let gid = inst.gid;
        // Whole instances are trace-sampled by gid, so a captured
        // instance's span events are complete end to end and no two
        // instances of the engine's lifetime share a span id.
        let tracer = tel.sampled(u64::from(gid)).then_some(Tracer {
            tel,
            gid,
            template: inst.template,
        });
        tel.inflight_inc();
        if let Some(tr) = tracer {
            tr.emit(0, SpanKind::Admit, u32::MAX, gate_wait.as_nanos() as u64, 0);
        }
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ (u64::from(gid) << 20) ^ 0x00E9_97D1);
        let mut out = Outcome::default();

        // The certified discipline cannot refuse, so it always commits
        // on attempt 0; the budget only ever binds wait-die.
        for attempt in 0..MAX_ATTEMPTS {
            let ctx = WriteCtx { gid, attempt };
            // The chunk's batched append began attempt 0; a retry logs
            // its own.
            if attempt > 0 {
                if let Some(w) = &self.wal {
                    w.append([Self::begin(inst, attempt)]);
                }
            }
            let mut a = Attempt::new(&self.store, t, &tmpl.program, ctx);
            let t_exec = tel.timer();
            let death = (!self.drive(&mut a, t, audit, tracer)).then(|| {
                // One undo sample per dying attempt: lock release plus
                // every exposed-write rollback.
                let t_undo = tel.timer();
                let death = a.die();
                tel.record_since(Phase::Undo, t_undo);
                death
            });
            tel.record_since(Phase::Execute, t_exec);
            out.events += a.events;
            let Some(death) = death else {
                let t_commit = tel.timer();
                // Seal the attempt: the commit timestamp is reserved
                // *before* the decision is logged so the record carries
                // it (unwind-safe: if `log_commit` panics, the
                // reservation's drop closes the timestamp so the closed
                // clock skips the gap). The decision is appended after
                // every `Write`/`Event` record of the attempt, so a
                // recovered `Commit` implies a complete instance — and
                // the stamp happens only after `log_commit` returns.
                // Under `sync` the decision is then durable; without,
                // it may sit in the log buffer, and a snapshot that
                // shows this commit pushes it to the kernel before
                // returning, as the run's end does before it reports.
                let ts = self.store.reserve_commit_ts();
                if let Some(w) = &self.wal {
                    w.log_commit(gid, inst.template, attempt, ts.ts());
                }
                self.store.publish_commit(ts, gid, a.exposed.drain(..));
                // The decision reaches the auditor only after every
                // event of the attempt did (each release batch is fed
                // synchronously under this same lock), so the merge sees
                // the complete attempt.
                let (nodes, arcs) = {
                    let mut au = audit.lock();
                    au.commit(gid, attempt);
                    let au = &au.auditor;
                    (au.node_count() as u64, au.arc_count() as u64)
                };
                tel.set_auditor(nodes, arcs);
                tel.record_since(Phase::Commit, t_commit);
                if let Some(tt) = ttable {
                    tt.commit(inst.template.index());
                }
                if let Some(tr) = tracer {
                    let dur = t_commit.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
                    tr.emit(attempt, SpanKind::Commit, u32::MAX, dur, 0);
                    tr.emit(attempt, SpanKind::AuditArc, u32::MAX, 0, arcs);
                }
                out.committed_attempt = Some(attempt);
                out.reads += a.reads;
                out.writes += a.writes;
                out.writes_skipped += a.writes_skipped;
                break;
            };
            if let Some(w) = &self.wal {
                w.append([WalRecord::Abort { gid, attempt }]);
            }
            // The attempt's locks were released and its writes rolled
            // back: its buffered events leave the committed projection.
            audit.lock().auditor.abort(gid, attempt);
            if let Some(tt) = ttable {
                // Every engine-path abort is a wait-die death (the
                // requester self-aborted).
                tt.abort(inst.template.index());
                tt.die(inst.template.index());
            }
            if let Some(tr) = tracer {
                tr.emit(
                    attempt,
                    SpanKind::Abort,
                    u32::MAX,
                    0,
                    death.rolled_back.into(),
                );
            }
            out.aborts += 1;
            out.rolled_back += u64::from(death.rolled_back);
            // Only a write that could not be rolled back leaves the
            // abort dirty (and voids the run's audit).
            out.dirty_aborts += u32::from(death.unrecovered > 0);
            let jitter = rng.gen_range(0..=BACKOFF.as_micros() as u64);
            std::thread::sleep(
                BACKOFF + Duration::from_micros(jitter * (1 + u64::from(attempt % 4))),
            );
        }
        tel.inflight_dec();
        let latency = gate_wait + started.elapsed();
        out.latency_us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        out
    }

    /// Steps attempt `a` until it completes (`true`) or wait-die tells
    /// it to die (`false`; the caller unwinds it). Every round executes
    /// the ready unlocks and asks for the ready locks; the disciplines
    /// differ only in how they ask and what a refusal means:
    ///
    /// * **certified** — a queueing request; a refused lock is handed
    ///   over FIFO on the grant channel, where the worker parks once
    ///   nothing else is ready. Never times out, never dies.
    /// * **wait-die** — a non-queueing acquire; a refusal is put to
    ///   [`wait_die`] against the holder of that moment, and an older
    ///   requester sleeps [`POLL`] and asks again — for that lock first.
    fn drive(
        &self,
        a: &mut Attempt<'_>,
        t: &Transaction,
        audit: &Mutex<EpochAudit>,
        tracer: Option<Tracer<'_>>,
    ) -> bool {
        let tel = &self.cfg.telemetry;
        let park = self.certified_path();
        let (ctx, me, attempt) = (a.ctx, a.ctx.holder(), a.ctx.attempt);
        let (grant_tx, grant_rx) = unbounded::<EntityId>();
        // Lock nodes already queued at their shard (certified only).
        let mut queued = vec![false; if park { t.node_count() } else { 0 }];
        // Wait-die: when the acquisition being polled for was first
        // refused — one lock-wait sample covers all its rounds.
        let mut refused_at: Option<Instant> = None;
        // The lock of node `n` is ours after `waited`: the read, the
        // simulated work, the (deferred) event.
        let hold = |a: &mut Attempt<'_>, n: NodeId, waited: Duration| {
            if let Some(tr) = tracer {
                let e = t.op(n).entity.0;
                tr.emit(
                    attempt,
                    SpanKind::LockAcquire,
                    e,
                    waited.as_nanos() as u64,
                    0,
                );
            }
            if !self.cfg.work.is_zero() {
                std::thread::sleep(self.cfg.work);
            }
            a.granted(n);
        };
        loop {
            let mut progressed = false;
            // Unlocks never block: drain them before asking for locks.
            let mut ready = a.ready();
            ready.sort_by_key(|&n| t.op(n).is_lock());
            for n in ready {
                let op = t.op(n);
                if op.is_unlock() {
                    a.unlock(n, |nodes| {
                        audit.lock().record(self.wal.as_deref(), ctx, nodes)
                    });
                    if let Some(tr) = tracer {
                        tr.emit(attempt, SpanKind::Write, op.entity.0, 0, 0);
                    }
                    progressed = true;
                    continue;
                }
                let shard = self.store.shard_of(op.entity);
                let granted = if park {
                    let first_ask = !std::mem::replace(&mut queued[n.index()], true);
                    first_ask && shard.request(me, op.entity, &grant_tx)
                } else {
                    match shard.try_acquire(me, op.entity) {
                        Ok(()) => true,
                        Err(holder) => match wait_die(me, holder) {
                            // One wait at a time: poll for this lock
                            // before asking for any other.
                            Refused::Retry => {
                                refused_at.get_or_insert_with(Instant::now);
                                break;
                            }
                            Refused::Die => return false,
                        },
                    }
                };
                if granted {
                    // Exactly one lock-wait sample per acquisition: zero
                    // for an immediate grant, the polled time after a
                    // wait-die refusal; a parked requester's queue wait
                    // is measured store-side at the hand-over.
                    let waited = refused_at.take().map_or(Duration::ZERO, |t0| t0.elapsed());
                    tel.record(Phase::LockWait, waited);
                    hold(a, n, waited);
                    progressed = true;
                }
            }
            if a.is_complete() {
                return true;
            }
            if progressed {
                continue;
            }
            if park {
                // Every ready op is a queued lock: park until any grant
                // (the park is timed only for the sampled trace).
                let t_park = tracer.map(|_| Instant::now());
                let entity = grant_rx
                    .recv()
                    .expect("grant channel lives as long as this attempt");
                let n = t.lock_node_of(entity).expect("granted entity is accessed");
                hold(a, n, t_park.map_or(Duration::ZERO, |t0| t0.elapsed()));
            } else {
                std::thread::sleep(POLL);
            }
        }
    }

    fn build_report(
        &self,
        instances: &[Instance],
        outcomes: &[Outcome],
        wall: Duration,
        seen: Option<bool>,
    ) -> Report {
        let sys = self.registry.system();
        let failed: Vec<u32> = instances
            .iter()
            .zip(outcomes)
            .filter(|(_, o)| o.committed_attempt.is_none())
            .map(|(i, _)| i.gid)
            .collect();
        let dirty_aborts: usize = outcomes.iter().map(|o| o.dirty_aborts as usize).sum();

        // Audit: one transaction per instance, so `D(S)` sees each
        // instance as its own node set. The verdict was maintained
        // *during* the run by the epoch's streaming auditor — `seen` is
        // what the run's chunks observed leaving it — so nothing is
        // re-projected or rebuilt per report. Rolled-back aborts are
        // clean — their writes were undone, so dropping their buffered
        // events is sound — and wait-die runs audit like certified ones.
        // Only an *unrecovered* dirty abort (a write the rollback could
        // not take back) still voids the audit's premise, reporting
        // `None` rather than a verdict over the wrong schedule.
        let serializable = if failed.is_empty() && !instances.is_empty() && dirty_aborts == 0 {
            seen
        } else {
            None
        };

        let latency = LatencyStats::from_samples(
            outcomes
                .iter()
                .filter(|o| o.committed_attempt.is_some())
                .map(|o| o.latency_us)
                .collect(),
        );

        // Per-template achieved multiprogramming (the gate's high-water
        // mark this run) next to its certified slot count.
        let mut per_template: Vec<TemplateReport> = sys
            .iter()
            .map(|(t, txn)| TemplateReport {
                name: txn.name().to_string(),
                certified_slots: self.registry.plan().slots_of(t),
                peak_inflight: self.registry.template(t).gate().peak(),
                committed: 0,
                aborted_attempts: 0,
            })
            .collect();
        for (inst, out) in instances.iter().zip(outcomes) {
            let row = &mut per_template[inst.template.index()];
            row.committed += usize::from(out.committed_attempt.is_some());
            row.aborted_attempts += out.aborts as usize;
        }

        Report {
            verdict: self.registry.verdict().clone(),
            plan_floored: self.registry.plan().floored,
            forced_fallback: self.cfg.force_fallback,
            instances: instances.len(),
            committed: outcomes
                .iter()
                .filter(|o| o.committed_attempt.is_some())
                .count(),
            aborted_attempts: outcomes.iter().map(|o| o.aborts as usize).sum(),
            dirty_aborts,
            rolled_back: outcomes.iter().map(|o| o.rolled_back).sum(),
            failed,
            reads: outcomes.iter().map(|o| o.reads).sum(),
            writes: outcomes.iter().map(|o| o.writes).sum(),
            writes_skipped: outcomes.iter().map(|o| o.writes_skipped).sum(),
            wall,
            serializable,
            history_len: outcomes.iter().map(|o| o.events as usize).sum(),
            latency,
            // Filled with this run's per-phase delta by `run_instances`
            // (the empty-run report keeps the empty default), like the
            // WAL group counter deltas below it.
            phases: ddlf_telemetry::PhaseSnapshot::default(),
            group_flushes: 0,
            group_commits: 0,
            per_template,
        }
    }
}

/// Convenience: certify `sys`, run it, and report.
pub fn run_system(sys: &TransactionSystem, cfg: EngineConfig) -> Report {
    Engine::new(sys.clone(), cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddlf_model::{Database, Op};

    /// Two transfers locking x then y: certified.
    fn ordered_pair(threads: usize) -> Engine {
        let db = Database::one_entity_per_site(2);
        let (x, y) = (EntityId(0), EntityId(1));
        let ops = [Op::lock(x), Op::lock(y), Op::unlock(x), Op::unlock(y)];
        let txns = ["T1", "T2"]
            .map(|name| Transaction::from_total_order(name, &ops, &db).unwrap())
            .to_vec();
        let sys = TransactionSystem::new(db, txns).unwrap();
        Engine::new(
            sys,
            EngineConfig {
                threads,
                ..Default::default()
            },
        )
    }

    /// A one-chunk run executes on its caller's thread, so back-to-back
    /// count=1 runs spawn no worker at all. A two-chunk run at
    /// `threads = 2` is the caller plus exactly one worker.
    #[test]
    fn one_chunk_runs_spawn_no_worker() {
        let engine = ordered_pair(2);
        let one = engine.uniform_mix(1);
        for _ in 0..1_000 {
            let r = engine.run_mix(&one);
            assert_eq!(r.committed, 1);
            assert_eq!(r.serializable, Some(true));
        }
        assert_eq!(engine.pool.spawned(), 0, "a one-chunk run left its caller");
        let r = engine.run_mix(&engine.uniform_mix(2));
        assert!(r.all_committed(), "{r:?}");
        assert_eq!(engine.pool.spawned(), 1);
    }

    /// Dropping the engine closes its pool and joins every worker: the
    /// pool state, which each worker holds, is gone.
    #[test]
    fn dropping_the_engine_joins_every_worker() {
        let engine = ordered_pair(4);
        // Four concurrent callers, so the pool grows past one worker.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| engine.run_mix(&engine.uniform_mix(16)));
            }
        });
        assert!(engine.pool.spawned() > 1);
        let pool = engine.pool.downgrade();
        drop(engine);
        assert!(pool.upgrade().is_none(), "a worker outlived its engine");
    }

    /// A panicking job resumes its panic on the thread that submitted
    /// it, and the same pool keeps serving runs afterwards.
    #[test]
    fn a_panicking_job_reraises_on_the_submitter() {
        let engine = ordered_pair(2);
        let submitter = std::thread::current().id();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.pool.scatter(2, || -> u32 { panic!("job failed") })
        }));
        assert_eq!(std::thread::current().id(), submitter);
        let payload = caught.expect_err("the job's panic must reach the submitter");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job failed"));
        let r = engine.run();
        assert!(r.all_committed(), "{r:?}");
        assert_eq!(r.serializable, Some(true));
    }

    /// Epochs that share the registry's templates are still re-audited
    /// by the batch oracle at every close: one epoch per
    /// non-overlapping run.
    #[cfg(debug_assertions)]
    #[test]
    fn every_closed_epoch_is_cross_checked() {
        let engine = ordered_pair(2);
        for _ in 0..3 {
            assert_eq!(engine.run().serializable, Some(true));
        }
        assert_eq!(engine.core.epochs.slot.lock().cross_checked, 3);
    }

    #[test]
    fn gid_space_reserves_disjoint_ranges() {
        let g = GidSpace(AtomicU32::new(0));
        assert_eq!(g.reserve(10), 0);
        assert_eq!(g.reserve(5), 10);
        assert_eq!(g.reserve(1), 15);
    }

    #[test]
    fn gid_space_never_publishes_a_wrapped_id() {
        let g = GidSpace(AtomicU32::new(u32::MAX - 1));
        let wrapped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.reserve(5)));
        assert!(wrapped.is_err(), "a wrapping reservation must panic");
        // The failed reservation must not have wrapped the counter: the
        // remaining id space is intact and collision-free.
        assert_eq!(g.reserve(1), u32::MAX - 1);
    }
}
