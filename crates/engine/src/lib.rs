//! # ddlf-engine — a sharded transactional key-value execution engine
//! with certify-then-run admission control
//!
//! Wolfson & Yannakakis (PODS 1985) prove that a *statically certified*
//! system of locked transactions needs **no deadlock detector at
//! runtime**: every schedule is serializable and every partial schedule
//! completable. `ddlf-core` computes those certificates and `ddlf-sim`
//! simulates lock traffic — this crate is where the payoff lands on a
//! real data path: an in-memory, multi-threaded, sharded key-value store
//! whose admission control *is* the paper's certifier.
//!
//! ## Architecture
//!
//! ```text
//!   TransactionSystem ──register_with(inflation)──▶ TemplateRegistry
//!                             │ certify_inflated / max_certified_inflation
//!                             │ (Thm 3/4 on the inflated system; Thm 5 ⇒ k = ∞;
//!                             │  exhaustive DF-only fallback; floor k = 1)
//!                             ▼
//!                      AdmissionPlan: k_t slots per template
//!                             │ sizes one SlotGate (counting
//!                             │ semaphore) per template
//!              ┌──────────────┴────────────────────┐
//!       Certified / CertifiedDeadlockFree     Fallback
//!        a refused lock queues FIFO,      a refused lock queues nowhere:
//!        the worker parks; no             wait-die vs the current holder
//!        detector, no timeout,            on every poll; the loser dies,
//!        zero aborts possible             its exposed writes leave their
//!              │                          value chains, it backs off
//!              └──────────────┬────────────────────┘
//!                        Executor — one path per instance
//!                             │ a run splits into ≤ threads jobs: the
//!                             │ caller runs one, the engine's persistent
//!                             │ pool the rest (a worker is spawned only
//!                             │ when none is idle); jobs drain its chunks
//!                             │ execute_chunk: SlotGate.acquire_many() per
//!                             │ template (chunk of one by default) ⇒ the
//!                             │ in-flight mix is a subsystem of the
//!                             │ certified inflated system; one batched
//!                             │ Begin append
//!                             │ Attempt: granted / unlock / die, stepped
//!                             │ in partial order until it completes
//!                             │ commit: reserve ts ▶ Commit frame
//!                             │ (sync: wait for an fsync to cover it) ▶
//!                             │ stamp chains ▶ close ts
//!                          Store: one Shard per SiteId
//!                          { value chains + LockTable } per mutex
//!                             │                  │
//!                             │   Wal (optional file sink, framed records)
//!                             │     log.wal   every record, append order:
//!                             │               Begin / Write / Event /
//!                             │               Commit / Abort
//!                             │     (every record keyed by the one gid)
//!                             │                  │
//!                             │        wal::recover(dir): replay committed
//!                             │        ops ▶ fresh Store ▶ re-run D(S)
//!                             ▼
//!                          events ──▶ streaming D(S) audit
//!                             │        (one engine.auditor section per
//!                             │         release batch: log + live verdict
//!                             │         of the audit epoch every run in
//!                             │         flight shares; batch audit is the
//!                             │         debug oracle)
//!                          Report: certified k vs achieved peak,
//!                          aborts (rolled back vs dirty), latency,
//!                          per-phase histograms, per template
//! ```
//!
//! Every stage above also emits into a shared [`Telemetry`] handle
//! carried by [`EngineConfig::telemetry`] (re-exported from
//! `ddlf-telemetry`): phase-latency histograms (gate wait, lock wait,
//! execute, undo, WAL append, fsync, commit), per-template outcome
//! counters, gauges, and a sampled instance-lifecycle trace ring. The
//! default handle is disabled and near-free; see the "Telemetry
//! dataflow" section of `ARCHITECTURE.md` for where each timer starts
//! and stops.
//!
//! The engine's *own* mutexes follow a fixed global hierarchy —
//! `server.engine` ▷ `template.slot_gate` / `shard.state` /
//! `engine.epoch` ▷ `engine.auditor` ▷ `wal.log` (`wal.group_state` and
//! `store.clock` are leaves never held with any of them, `engine.pool`
//! is a leaf never held while a job runs, no run holds `server.engine`,
//! and no fsync runs under any of them) — documented in the "Lock
//! discipline" section of `ARCHITECTURE.md` and registered class by
//! class at each `Mutex::new_named` site. Building with `--features
//! lockdep` arms the `ddlf-lockdep` validator inside the vendored
//! `parking_lot` shim: lock-order cycles, fsyncs under a non-allowlisted
//! lock, and undisciplined condvar waits are caught on the *first*
//! instrumented run to reach them (the `lockdep` CI job runs the whole
//! suite that way with `DDLF_LOCKDEP=fail`).
//!
//! * [`store`] — entities carry versioned `u64`/bytes payloads, sharded
//!   by [`ddlf_model::SiteId`]; each shard owns its values *and* its
//!   [`ddlf_sim::LockTable`] behind one `parking_lot` mutex, so a grant
//!   and the read it authorizes are a single critical section.
//! * [`mvcc`] — the one value representation: per-entity write-order
//!   chains (live value, in-flight writes, rollback and committed cuts
//!   are all views of the same chain), the commit clock, and the
//!   registry of live snapshot cuts behind read-only transactions.
//! * [`template`] — transaction shapes are registered once; the verdict
//!   of [`ddlf_core::certify_inflated`] (or the plain certifier when no
//!   inflation is requested) is cached as an [`AdmissionPlan`] of
//!   certified slots per template, enforced by counting [`SlotGate`]s.
//!   Certified inflations run under the `Nothing` policy; uncertified
//!   systems fall back to wait-die. Templates carry data [`Program`]s
//!   (reads on every lock; `Add`/`Put` writes applied at unlock under
//!   the lock).
//! * [`executor`] — the calling thread, joined on a wider run by
//!   workers from the engine's lifetime-long pool, drains each run's
//!   instances in chunks from one shared cursor (a one-chunk run never
//!   leaves its caller; no thread is spawned per run, and none before
//!   a queued job needs it),
//!   stepping each instance's attempts through its transaction's
//!   partial order (the
//!   same `Attempt` stepper and wait-die rule [`replay`] drives
//!   cooperatively). An instance is one `gid` from the engine's
//!   lifetime-long id space — lock holder, wait-die timestamp, chain,
//!   audit and WAL key alike — and its effective lock/unlock events take
//!   one path: each release batch is logged and fed live to an
//!   incremental
//!   [`StreamingAuditor`](ddlf_model::incremental::StreamingAuditor)
//!   under the `engine.auditor` lock, so the `D(S)` serializability
//!   verdict is already known when the run drains. Concurrent runs
//!   share that auditor through one *audit epoch*, closed only at
//!   quiescence (debug builds cross-check each closed epoch against the
//!   batch [`ddlf_sim::History`] oracle).
//! * [`report`] — throughput / latency / abort metrics following the
//!   `ddlf_sim::metrics` conventions.
//! * [`wal`] — the optional write-ahead file sink: one append-only
//!   log in which file order is chain order, audit order and
//!   data-before-decision at once; [`wal::recover`] rebuilds the
//!   committed chains from it and re-audits the recovered history
//!   after a crash.
//!
//! Concurrency is a *certified quantity*: each template's [`SlotGate`]
//! admits at most its certified `k_t` live instances (∞ under Theorem 5,
//! the conservative 1 when a requested inflation fails to certify), so
//! the in-flight mix is always (an execution of) a subsystem of a
//! *certified* system — exactly the situation the paper's theorems
//! quantify over.
//!
//! ## Example
//!
//! ```
//! use ddlf_engine::{Engine, EngineConfig};
//! use ddlf_model::{Database, Op, EntityId, Transaction, TransactionSystem};
//!
//! // Two transfers locking x, y in the same global order: certified.
//! let db = Database::one_entity_per_site(2);
//! let ops = [
//!     Op::lock(EntityId(0)), Op::lock(EntityId(1)),
//!     Op::unlock(EntityId(0)), Op::unlock(EntityId(1)),
//! ];
//! let t1 = Transaction::from_total_order("T1", &ops, &db).unwrap();
//! let t2 = Transaction::from_total_order("T2", &ops, &db).unwrap();
//! let sys = TransactionSystem::new(db, vec![t1, t2]).unwrap();
//!
//! let engine = Engine::new(sys, EngineConfig {
//!     threads: 2,
//!     instances: 8,
//!     ..Default::default()
//! });
//! assert!(engine.registry().verdict().is_certified());
//! let report = engine.run();
//! assert!(report.all_committed());
//! assert_eq!(report.aborted_attempts, 0);     // the paper's payoff
//! assert_eq!(report.serializable, Some(true)); // audited, not assumed
//! ```

#![warn(missing_docs)]

mod attempt;
pub mod executor;
pub mod mvcc;
mod pool;
pub mod replay;
pub mod report;
pub mod store;
pub mod template;
pub mod wal;

pub use executor::{run_system, Engine, EngineConfig, EPOCH_CAP};
pub use mvcc::{RoEntry, RoSnapshot};
pub use replay::{replay_schedule, ReplayError, ReplayReport};
pub use report::{summary_line, LatencyStats, Report, TemplateReport};
pub use store::{Datum, Shard, Store, VersionedValue, WriteError};
pub use template::{
    render_plan, AdmissionOptions, AdmissionPlan, AdmissionVerdict, Inflation, Program, SlotGate,
    SlotGuard, Slots, Template, TemplateRegistry, WriteOp,
};
pub use wal::{recover, GroupEntry, Recovered, Wal, WalError, WalOptions, WalRecord};

/// Read by nothing, like `EngineConfig::group_commit`: a `wal_sync`
/// commit group is every decision one fsync covers, so it has no size.
/// Kept only because the benchmark harness (`harness/`) still names it;
/// it goes when the harness is next revised.
#[doc(hidden)]
pub const DEFAULT_MAX_GROUP: usize = 64;

// The observability layer the engine emits into, re-exported so callers
// configuring [`EngineConfig::telemetry`] need not depend on the
// `ddlf-telemetry` crate directly.
pub use ddlf_telemetry::{
    Phase, PhaseSnapshot, SpanEvent, SpanKind, Telemetry, TelemetryConfig, TelemetrySnapshot,
    TemplateSnapshot,
};
