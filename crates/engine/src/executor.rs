//! The worker-pool executor: drains a queue of transaction instances,
//! acquires locks across shards in partial-order-respecting order, and
//! applies the template's reads/writes.
//!
//! **One pool.** A run splits into at most [`EngineConfig::threads`]
//! jobs, and each job drains the run's chunks from one shared cursor.
//! No run has more jobs than chunks, nor more than its gates can admit
//! chunks at once: an admitted chunk holds one slot of each of its
//! templates until it ends, so when every chunk contains a template of
//! `k` slots, at most `k` chunks are ever inside and a job beyond the
//! `k`-th could only wait on that gate (the fewest such `k` is the
//! run's bound). The calling thread runs the first job itself; only the
//! rest go to the engine's persistent worker pool, so a one-chunk run —
//! or one whose every chunk holds a k = 1 template — never leaves its
//! caller's thread. The pool spawns a worker only when no idle one is
//! left to take a job, and the engine's drop joins them all. Each job
//! owns one `Scratch` for its whole life, so in steady state an
//! attempt that never queues allocates nothing.
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
//! * **Fallback (wait-die)** — each template runs as its two-phase
//!   closure (see [`crate::template`]), and nothing queues: the refusal
//!   is put to the wait-die rule against the *current* holder on every
//!   poll (re-checking keeps every sustained wait older→younger, so no
//!   cycle can close); a requester that is not older dies, backs off,
//!   and retries with its original timestamp. A death strikes only an
//!   attempt that has not unlocked yet, so it has exposed no write.
//!
//! **One id.** An instance is its `gid`, minted by the engine from one
//! monotone id space that lasts the engine's lifetime (seeded from
//! [`Recovered::next_base`] on resume): the holder in the lock tables,
//! the wait-die timestamp, the key of chain entries, audit vertices,
//! trace spans, [`Report::failed`] and every WAL record. Nothing is
//! run-local, with or without a WAL.
//!
//! **One event path, no run-time audit.** Every plan the engine runs is
//! serializable by a theorem, so nothing audits it while it runs. Each
//! release batch of effective lock/unlock events is appended to the log
//! from inside the attempt's unlock, while the unlocked entity is still
//! held, so the log orders each entity's events by its lock order:
//! everything [`crate::wal::recover`]'s whole-log `D(S)` audit, the
//! release build's referee, needs. Debug builds also stamp each event
//! there from one atomic counter and, after each run, audit that run's
//! committed projection in stamp order with the batch oracle
//! [`CommittedProjection::audit`](ddlf_model::CommittedProjection::audit),
//! so the whole engine test suite checks the theorem.

use crate::attempt::{wait_die, Attempt, AttemptBufs, Refused};
use crate::pool::Pool;
use crate::report::{LatencyStats, Report, TemplateReport};
use crate::store::{Store, WriteCtx};
use crate::template::{AdmissionOptions, SlotGuard, TemplateRegistry};
use crate::wal::{Recovered, Wal, WalOptions, WalRecord};
use ddlf_model::{EntityId, NodeId, Transaction, TransactionSystem, TxnId};
#[cfg(debug_assertions)]
use ddlf_model::{History, HistoryEvent};
use ddlf_telemetry::{Phase, SpanEvent, SpanKind, Telemetry, TemplateTable};
use parking_lot::Mutex;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::io;
use std::path::PathBuf;
#[cfg(debug_assertions)]
use std::sync::atomic::AtomicU64;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// At most this many threads per run, the calling thread included:
    /// the caller plus up to `threads − 1` workers drawn from the
    /// engine's persistent pool, which spawns a worker only when no idle
    /// one is left. A run never uses more threads than it has chunks,
    /// nor more than the fewest slots of a bounded template every one
    /// of its chunks contains — no more chunks than that can be
    /// admitted at once (see [`crate::template::SlotGate::acquire_many`]).
    pub threads: usize,
    /// Total transaction instances to run (assigned round-robin over the
    /// registered templates). [`Engine::run`] panics once the engine's
    /// lifetime total would pass `u32::MAX` (gids double as wait-die
    /// timestamps).
    pub instances: usize,
    /// Busy CPU time spent on the holding thread per granted lock: the
    /// thread spins (it does not sleep) until `work` has passed, so a
    /// grant holds its lock for this long. Widens contention windows;
    /// keep zero for raw throughput.
    pub work: Duration,
    /// RNG seed for jitter.
    pub seed: u64,
    /// Initial value of every entity.
    pub initial_value: u64,
    /// Run wait-die even when the system certifies (for benchmarking the
    /// cost of not trusting the certificate), over the registry's
    /// two-phase closure ([`TemplateRegistry::two_phase`]).
    pub force_fallback: bool,
    /// Write-ahead log directory: every write, commit decision, and
    /// history event is appended to one log file (see
    /// [`crate::wal`]) so [`crate::wal::recover`] can replay the store
    /// after a crash. `None` = in-memory only (rollback still works).
    pub wal_dir: Option<PathBuf>,
    /// A commit decision is always one buffered `Commit` frame. With
    /// `wal_sync` its committer also waits for an `fsync` that covers it
    /// — one fsync per group of decisions appended before it started,
    /// covering their data too, and up to two fsyncs in flight at once,
    /// so a decision the running fsync cannot cover starts the second
    /// (see [`WalOptions::sync`]). Without it
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
    /// and `serve` enable histograms by default. A [`Report`] carries no
    /// phase histograms: they are cumulative on this handle, so a caller
    /// that wants one run's reads `phase_snapshot()` after it (exactly
    /// that run's when it ran alone on a fresh handle, as in the CLI's
    /// `run`), and a server digests them into its `Stats` reply.
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
    /// [`Report::absorb`] from the empty report (its identity). Behind a
    /// mutex so concurrent runs (e.g. wire submissions) merge safely.
    cumulative: Mutex<Report>,
    /// The engine's workers: dropping the engine closes the pool and
    /// joins every one of them (no run is in flight by then — a run
    /// borrows the engine).
    pool: Pool,
}

/// The engine state a pool job carries: everything an instance's
/// execution touches.
struct Core {
    registry: TemplateRegistry,
    /// The system the instances execute: the registry's own on the
    /// certified path, its two-phase closure under wait-die.
    sys: Arc<TransactionSystem>,
    /// Shared so the read-only snapshot path (wire `ReadOnly`
    /// requests, `run --readers` scanner threads) can read concurrently
    /// with a run without holding any engine reference.
    store: Arc<Store>,
    cfg: EngineConfig,
    /// The write-ahead log, when `cfg.wal_dir` asked for one.
    wal: Option<Arc<Wal>>,
    /// Debug builds: the next event stamp. An event takes its stamp
    /// while its entity is held, so stamp order is each entity's lock
    /// order (one atomic's modification order follows happens-before).
    #[cfg(debug_assertions)]
    stamps: AtomicU64,
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

/// A pool job's working storage, made by the job and reused by every
/// chunk and attempt it runs: once it has held the run's largest chunk
/// and transaction, admitting a chunk and driving a conflict-free
/// attempt allocate nothing.
#[derive(Default)]
struct Scratch<'c> {
    /// The current attempt's prefix, deferred grants and exposed writes.
    attempt: AttemptBufs,
    /// One drive round's ready nodes, unlocks first.
    ready: Vec<NodeId>,
    /// Lock nodes already queued at their shard (certified only).
    queued: Vec<bool>,
    /// The chunk's instances per template, in template-index order.
    counts: Vec<(TxnId, usize)>,
    /// The chunk's gate slots, held until it ends.
    slots: Vec<SlotGuard<'c>>,
    /// Debug builds: the current attempt's events and their stamps.
    #[cfg(debug_assertions)]
    stamped: Vec<(u64, NodeId)>,
}

#[derive(Debug, Default, Clone)]
struct Outcome {
    committed_attempt: Option<u32>,
    aborts: u32,
    rolled_back: u64,
    reads: u64,
    writes: u64,
    /// History events recorded, every attempt's.
    events: u64,
    latency_us: u64,
    /// Debug builds: the committed attempt's events and their stamps.
    #[cfg(debug_assertions)]
    stamped: Vec<(u64, NodeId)>,
}

impl Engine {
    /// Builds an engine over `sys`: certifies it (cached in the
    /// registry) and initializes the sharded store.
    ///
    /// # Panics
    /// Panics when `cfg.wal_dir` is set and the log directory cannot be
    /// created (use [`Engine::try_with_admission`] for the fallible
    /// form).
    pub fn new(sys: TransactionSystem, cfg: EngineConfig) -> Self {
        Self::try_with_admission(sys, AdmissionOptions::default(), cfg)
            .expect("WAL directory usable")
    }

    /// Builds an engine over `sys` with an explicit admission request
    /// (inflation + certifier options), surfacing WAL I/O errors.
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
        let sys = Self::executed(&registry, &cfg);
        let store = Store::new(sys.db(), cfg.initial_value);
        // The log records the system the engine executes, so `recover`
        // audits against the partial order that ran.
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
        let core = Arc::new(Core {
            sys: Arc::clone(Self::executed(&registry, &cfg)),
            registry,
            store: Arc::new(store),
            cfg,
            wal,
            #[cfg(debug_assertions)]
            stamps: AtomicU64::new(0),
        });
        let empty = core.build_report(&[], &[], Duration::ZERO);
        Self {
            core,
            gids: GidSpace(AtomicU32::new(next_gid)),
            cumulative: Mutex::new_named("engine.cumulative", empty),
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

    /// The system an engine over `registry` executes under `cfg`.
    fn executed<'r>(
        registry: &'r TemplateRegistry,
        cfg: &EngineConfig,
    ) -> &'r Arc<TransactionSystem> {
        if cfg.force_fallback {
            registry.two_phase()
        } else {
            registry.system()
        }
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
    /// e.g. the wire server's `ReadOnly` path, which must answer even
    /// while a registration waits out in-flight Submits.
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
            return self.core.build_report(&[], &[], Duration::ZERO);
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
        self.cumulative.lock().clone()
    }

    fn run_instances(&self, instances: Arc<[Instance]>) -> Report {
        let core = &self.core;
        // Group-counter attribution: read the WAL's cumulative counters
        // around the pool, then diff. The difference is every group
        // counted meanwhile — this run's, plus those of any run
        // overlapping it on the same engine (the wire server's
        // concurrent Submits).
        let groups_before = match &core.wal {
            Some(w) => w.group_counters(),
            None => (0, 0),
        };
        let started = Instant::now();
        // Jobs claim instances in admission-batch chunks (of one, by
        // default) from one shared cursor: each chunk is admitted under
        // one gate acquisition per template and one log-lock acquisition
        // for its Begin records (see `execute_chunk`). No more jobs than
        // chunks: a job past the last chunk would only find the cursor
        // spent. Nor more jobs than the gates admit chunks at once: a job
        // past that could only wait on a gate while the run's log buffer
        // and chains move between cores. This thread runs one job
        // itself, so a one-chunk run never touches the pool.
        let batch = core.cfg.admission_batch.max(1);
        let mut jobs = core.cfg.threads.max(1).min(instances.len().div_ceil(batch));
        if jobs > 1 {
            jobs = jobs.min(core.admissible_chunks(&instances, batch));
        }
        let work = {
            let (core, instances) = (Arc::clone(core), Arc::clone(&instances));
            let cursor = AtomicUsize::new(0);
            // Workers bump per-template counters through this resolved
            // table: pure atomics, no per-instance locking.
            let ttable = core.cfg.telemetry.template_table();
            move || {
                // Sized for the whole run, so it never regrows.
                let mut done = Vec::with_capacity(instances.len());
                let mut scratch = Scratch::default();
                loop {
                    // A plain ticket counter: the instances it indexes
                    // are immutable, so it publishes nothing.
                    let start = cursor.fetch_add(batch, Ordering::Relaxed);
                    let Some(rest) = instances.get(start..).filter(|r| !r.is_empty()) else {
                        break;
                    };
                    let chunk = &rest[..batch.min(rest.len())];
                    core.execute_chunk(chunk, &mut done, ttable.as_deref(), &mut scratch);
                }
                done
            }
        };
        let reports = self.pool.scatter(jobs, work);
        let wall = started.elapsed();
        // The log buffer may still hold frames — without `sync`, this
        // run's commit decisions among them; push them to the kernel
        // before the run reports, so a post-run crash loses nothing
        // this run claimed committed (under `sync` every decision was
        // already pushed and fsynced before its committer returned).
        if let Some(w) = &core.wal {
            w.flush();
        }

        let mut outcomes: Vec<Outcome> = vec![Outcome::default(); instances.len()];
        for (gid, out) in reports.into_iter().flatten() {
            outcomes[(gid - instances[0].gid) as usize] = out;
        }
        let mut report = core.build_report(&instances, &outcomes, wall);
        if let Some(w) = &core.wal {
            let (flushes, commits) = w.group_counters();
            let (f0, c0) = groups_before;
            report.group_flushes = flushes - f0;
            report.group_commits = commits - c0;
        }
        self.cumulative.lock().absorb(&report);
        report
    }
}

impl Core {
    /// Whether this engine executes the no-detector path.
    fn certified_path(&self) -> bool {
        self.registry.verdict().is_certified() && !self.cfg.force_fallback
    }

    /// How many of the chunks `instances` splits into at `batch` the
    /// gates can ever hold at once: the fewest slots among the bounded
    /// templates every chunk contains (an admitted chunk holds one slot
    /// of each of its templates until it ends), or `usize::MAX` when no
    /// bounded template is in every chunk.
    fn admissible_chunks(&self, instances: &[Instance], batch: usize) -> usize {
        // Per template: the chunks that contain it, and the last chunk
        // counted.
        let mut seen = vec![(0, usize::MAX); self.registry.len()];
        for (c, chunk) in instances.chunks(batch).enumerate() {
            for inst in chunk {
                let (count, last) = &mut seen[inst.template.index()];
                if *last != c {
                    (*count, *last) = (*count + 1, c);
                }
            }
        }
        let chunks = instances.len().div_ceil(batch);
        seen.iter()
            .enumerate()
            .filter(|&(_, &(count, _))| count == chunks)
            .filter_map(|(t, _)| {
                let tmpl = self.registry.template(TxnId::from_index(t));
                tmpl.gate.slots().limit()
            })
            .min()
            .unwrap_or(usize::MAX)
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
    /// cannot deadlock. The chunk frees its slots once its last instance
    /// is done. Each instance's outcome lands in `done`, keyed by gid.
    fn execute_chunk<'c>(
        &'c self,
        chunk: &[Instance],
        done: &mut Vec<(u32, Outcome)>,
        ttable: Option<&TemplateTable>,
        scratch: &mut Scratch<'c>,
    ) {
        let tel = &self.cfg.telemetry;
        let counts = &mut scratch.counts;
        counts.clear();
        for inst in chunk {
            match counts.iter_mut().find(|(t, _)| *t == inst.template) {
                Some((_, n)) => *n += 1,
                None => counts.push((inst.template, 1)),
            }
        }
        counts.sort_unstable_by_key(|&(t, _)| t.index());
        let asked = Instant::now();
        let gates = counts
            .iter()
            .map(|&(t, n)| self.registry.template(t).gate.acquire_many(n));
        scratch.slots.extend(gates);
        let gate_wait = asked.elapsed();
        tel.record(Phase::GateWait, gate_wait);
        if let Some(w) = &self.wal {
            w.append(chunk.iter().map(|i| Self::begin(*i, 0)));
        }
        for inst in chunk {
            let out = self.execute_instance(*inst, ttable, gate_wait, scratch);
            done.push((inst.gid, out));
        }
        scratch.slots.clear();
    }

    /// Runs one admitted instance (its chunk holds the gate slot, after
    /// `gate_wait`, and logged its first `Begin`) to commit: attempts
    /// until one completes, dying and backing off in between.
    fn execute_instance(
        &self,
        inst: Instance,
        ttable: Option<&TemplateTable>,
        gate_wait: Duration,
        scratch: &mut Scratch<'_>,
    ) -> Outcome {
        let tel = &self.cfg.telemetry;
        let started = Instant::now();
        let tmpl = self.registry.template(inst.template);
        let t = self.sys.txn(inst.template);
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
        // Backoff jitter, seeded at the first death: only wait-die uses
        // it, and the seed is the instance's whatever the attempt.
        let mut rng: Option<StdRng> = None;
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
            let bufs = std::mem::take(&mut scratch.attempt);
            let mut a = Attempt::new(&self.store, t, &tmpl.program, ctx, bufs);
            #[cfg(debug_assertions)]
            scratch.stamped.clear();
            let t_exec = tel.timer();
            let rolled_back = (!self.drive(&mut a, t, tracer, scratch)).then(|| {
                // One undo sample per dying attempt: lock release plus
                // every exposed-write rollback.
                let t_undo = tel.timer();
                let rolled_back = a.die();
                tel.record_since(Phase::Undo, t_undo);
                // Wait-die runs two-phase closures, so a victim dies
                // before its first unlock: it exposed nothing to undo.
                debug_assert_eq!(rolled_back, 0, "a wait-die victim had unlocked");
                rolled_back
            });
            tel.record_since(Phase::Execute, t_exec);
            out.events += a.events;
            let Some(rolled_back) = rolled_back else {
                let t_commit = tel.timer();
                // Seal the attempt: the commit timestamp is reserved
                // *before* the decision is logged so the record carries
                // it (unwind-safe: if `log_commit` panics, the
                // reservation's drop closes the timestamp so the closed
                // clock skips the gap). The decision is appended after
                // every `Unlock` record of the attempt, so a
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
                self.store.publish_commit(ts, gid, a.take_exposed());
                tel.record_since(Phase::Commit, t_commit);
                if let Some(tt) = ttable {
                    tt.commit(inst.template.index());
                }
                if let Some(tr) = tracer {
                    let dur = t_commit.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
                    tr.emit(attempt, SpanKind::Commit, u32::MAX, dur, 0);
                }
                out.committed_attempt = Some(attempt);
                out.reads += a.reads;
                out.writes += a.writes;
                #[cfg(debug_assertions)]
                {
                    out.stamped = std::mem::take(&mut scratch.stamped);
                }
                scratch.attempt = a.into_bufs();
                break;
            };
            scratch.attempt = a.into_bufs();
            if let Some(w) = &self.wal {
                w.append([WalRecord::Abort { gid, attempt }]);
            }
            if let Some(tt) = ttable {
                // Every engine-path abort is a wait-die death (the
                // requester self-aborted).
                tt.abort(inst.template.index());
                tt.die(inst.template.index());
            }
            if let Some(tr) = tracer {
                tr.emit(attempt, SpanKind::Abort, u32::MAX, 0, rolled_back.into());
            }
            out.aborts += 1;
            out.rolled_back += u64::from(rolled_back);
            let rng = rng.get_or_insert_with(|| {
                StdRng::seed_from_u64(self.cfg.seed ^ (u64::from(gid) << 20) ^ 0x00E9_97D1)
            });
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
    ///   over FIFO on the attempt's grant channel, built when its first
    ///   request queues, where the worker parks once nothing else is
    ///   ready. Never times out, never dies.
    /// * **wait-die** — a non-queueing acquire; a refusal is put to
    ///   [`wait_die`] against the holder of that moment, and an older
    ///   requester sleeps [`POLL`] and asks again — for that lock first.
    ///
    /// Every unlock logs its release batch and its write as one `Unlock`
    /// frame under its shard's mutex, while the entity is still held.
    /// `scratch` holds the job's reused buffers.
    fn drive(
        &self,
        a: &mut Attempt<'_>,
        t: &Transaction,
        tracer: Option<Tracer<'_>>,
        scratch: &mut Scratch<'_>,
    ) -> bool {
        let Scratch {
            ready,
            queued,
            #[cfg(debug_assertions)]
            stamped,
            ..
        } = scratch;
        let tel = &self.cfg.telemetry;
        let park = self.certified_path();
        let (me, attempt) = (a.ctx.holder(), a.ctx.attempt);
        // Built only when a request queues: the releasing thread hands
        // the lock over on it. A queued attempt keeps its own, so a
        // grant sent to an attempt that is gone bounces onward.
        let mut grant: Option<(Sender<EntityId>, Receiver<EntityId>)> = None;
        queued.clear();
        if park {
            queued.resize(t.node_count(), false);
        }
        // Wait-die: when the acquisition being polled for was first
        // refused — one lock-wait sample covers all its rounds.
        let mut refused_at: Option<Instant> = None;
        // The lock of node `n` is ours after `waited`: the read, the
        // per-lock work (busy, on this thread), the (deferred) event.
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
                spin_for(self.cfg.work);
            }
            a.granted(n);
        };
        loop {
            let mut progressed = false;
            // Unlocks never block: drain them before asking for locks.
            ready.clear();
            ready.extend(a.ready());
            ready.sort_unstable_by_key(|&n| (t.op(n).is_lock(), n));
            for &n in ready.iter() {
                let op = t.op(n);
                if op.is_unlock() {
                    a.unlock(n, |_nodes| {
                        #[cfg(debug_assertions)]
                        {
                            let first = self
                                .stamps
                                .fetch_add(_nodes.len() as u64, Ordering::Relaxed);
                            stamped.extend((first..).zip(_nodes.iter().copied()));
                        }
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
                    first_ask
                        && shard.request(me, op.entity, || {
                            grant.get_or_insert_with(mpsc::channel).0.clone()
                        })
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
                let (_, grant_rx) = grant.as_ref().expect("a parked attempt has queued");
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

    fn build_report(&self, instances: &[Instance], outcomes: &[Outcome], wall: Duration) -> Report {
        let sys = self.registry.system();
        let failed: Vec<u32> = instances
            .iter()
            .zip(outcomes)
            .filter(|(_, o)| o.committed_attempt.is_none())
            .map(|(i, _)| i.gid)
            .collect();

        // A run that committed everything is serializable by the theorem
        // behind its plan (see `crate::template`). Release builds report
        // that; debug builds check it with the batch oracle.
        let serializable = if failed.is_empty() && !instances.is_empty() {
            #[cfg(debug_assertions)]
            let verdict = oracle(&self.sys, instances, outcomes);
            #[cfg(not(debug_assertions))]
            let verdict = Some(true);
            verdict
        } else {
            None
        };

        // Sized up front: one allocation whatever the run's size.
        let mut samples = Vec::with_capacity(outcomes.len());
        samples.extend(
            outcomes
                .iter()
                .filter(|o| o.committed_attempt.is_some())
                .map(|o| o.latency_us),
        );
        let latency = LatencyStats::from_samples(samples);

        // Per-template achieved multiprogramming (the gate's high-water
        // mark over the engine's lifetime) next to its certified slot
        // count.
        let mut per_template: Vec<TemplateReport> = sys
            .iter()
            .map(|(t, _)| {
                let tmpl = self.registry.template(t);
                TemplateReport {
                    name: Arc::clone(&tmpl.name),
                    certified_slots: self.registry.plan().slots_of(t),
                    peak_inflight: tmpl.gate().peak(),
                    committed: 0,
                    aborted_attempts: 0,
                }
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
            rolled_back: outcomes.iter().map(|o| o.rolled_back).sum(),
            failed,
            reads: outcomes.iter().map(|o| o.reads).sum(),
            writes: outcomes.iter().map(|o| o.writes).sum(),
            wall,
            serializable,
            history_len: outcomes.iter().map(|o| o.events as usize).sum(),
            latency,
            // Filled with this run's WAL counter deltas by
            // `run_instances` (the empty-run report keeps zeros).
            group_flushes: 0,
            group_commits: 0,
            per_template,
        }
    }
}

/// Per-lock work: spins on the holding thread until `work` has passed.
/// A sleep would hold the lock for the kernel timer's slack instead
/// (tens of µs whatever `work` says), so it would time the timer.
fn spin_for(work: Duration) {
    let deadline = Instant::now() + work;
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// Debug builds: the batch `D(S)` oracle over one run's committed
/// projection, one transaction per instance, its events in stamp order.
/// `None` when an instance did not commit or the events are no legal
/// schedule.
#[cfg(debug_assertions)]
fn oracle(sys: &TransactionSystem, instances: &[Instance], outcomes: &[Outcome]) -> Option<bool> {
    let mut events = Vec::new();
    let mut committed = Vec::with_capacity(instances.len());
    for (inst, out) in instances.iter().zip(outcomes) {
        let attempt = out.committed_attempt?;
        committed.push((inst.gid, inst.template, attempt));
        events.extend(out.stamped.iter().map(|&(stamp, node)| {
            let id = inst.gid;
            (stamp, HistoryEvent { id, attempt, node })
        }));
    }
    events.sort_unstable_by_key(|&(stamp, _)| stamp);
    let mut history = History::new();
    for (_, ev) in events {
        history.record(ev);
    }
    history.committed_projection(sys, committed).audit().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{Inflation, Slots};
    use ddlf_model::{Database, Op};

    /// Two transfers locking x then y: certified.
    fn ordered_pair(threads: usize) -> Engine {
        ordered_pair_with(EngineConfig {
            threads,
            ..Default::default()
        })
    }

    fn ordered_pair_with(cfg: EngineConfig) -> Engine {
        Engine::new(ordered_pair_system(), cfg)
    }

    fn ordered_pair_system() -> TransactionSystem {
        let db = Database::one_entity_per_site(2);
        let (x, y) = (EntityId(0), EntityId(1));
        let ops = [Op::lock(x), Op::lock(y), Op::unlock(x), Op::unlock(y)];
        let txns = ["T1", "T2"]
            .map(|name| Transaction::from_total_order(name, &ops, &db).unwrap())
            .to_vec();
        TransactionSystem::new(db, txns).unwrap()
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

    /// A chunk holds one slot of each of its templates until it ends.
    /// When every 16-instance chunk of a uniform mix holds both k = 1
    /// templates, the gates admit one chunk at a time, so the run stays
    /// on its caller's thread although `threads` allows two. At k = 2
    /// two chunks fit: the same mix is the caller plus exactly one
    /// worker.
    #[test]
    fn a_run_has_no_more_jobs_than_its_gates_admit_chunks() {
        let cfg = || EngineConfig {
            threads: 2,
            admission_batch: 16,
            ..Default::default()
        };
        let engine = ordered_pair_with(cfg());
        let r = engine.run_mix(&engine.uniform_mix(64));
        assert!(r.all_committed(), "{r:?}");
        assert_eq!(r.serializable, Some(true));
        assert_eq!(engine.pool.spawned(), 0, "a job waited on a k = 1 gate");

        let k2 = AdmissionOptions {
            inflate: Inflation::Uniform(2),
            ..Default::default()
        };
        let engine = Engine::try_with_admission(ordered_pair_system(), k2, cfg()).unwrap();
        let plan = engine.registry().plan();
        assert_eq!(plan.slots, [Slots::Bounded(2), Slots::Bounded(2)]);
        let r = engine.run_mix(&engine.uniform_mix(64));
        assert!(r.all_committed(), "{r:?}");
        assert_eq!(r.serializable, Some(true));
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

    /// The debug oracle audits a run in stamp order: two
    /// `L x U x L y U y` instances run one after the other serialize,
    /// and two that cross on x and y do not.
    #[cfg(debug_assertions)]
    #[test]
    fn the_debug_oracle_audits_a_run_in_stamp_order() {
        let db = Database::one_entity_per_site(2);
        let (x, y) = (EntityId(0), EntityId(1));
        let ops = [Op::lock(x), Op::unlock(x), Op::lock(y), Op::unlock(y)];
        let t = Transaction::from_total_order("T", &ops, &db).unwrap();
        let sys = TransactionSystem::new(db, vec![t]).unwrap();
        let template = TxnId(0);
        let instances = [0, 1].map(|gid| Instance { gid, template });
        let run = |stamps: [[u64; 4]; 2]| {
            let outcomes = stamps.map(|s| Outcome {
                committed_attempt: Some(0),
                stamped: s.into_iter().zip((0..4).map(NodeId)).collect(),
                ..Default::default()
            });
            oracle(&sys, &instances, &outcomes)
        };
        assert_eq!(run([[0, 1, 2, 3], [4, 5, 6, 7]]), Some(true));
        assert_eq!(run([[0, 1, 6, 7], [2, 3, 4, 5]]), Some(false));
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
