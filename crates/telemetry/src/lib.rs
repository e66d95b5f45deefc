//! # ddlf-telemetry — lock-free observability for the ddlf engine
//!
//! Latency histograms, lifecycle tracing, per-template counters, and
//! gauges for the distributed-locking engine. The crate sits below
//! every other workspace crate (no dependencies at all, not even
//! vendored ones) so the engine, WAL, store, server, and CLI can all
//! share one [`Telemetry`] handle.
//!
//! Three design rules, in priority order:
//!
//! 1. **Disabled means free.** [`Telemetry::disabled`] is an
//!    `Option::None` wrapper: every recording method is a branch on a
//!    niche-optimised `Option<Arc<_>>` and returns immediately —
//!    `Instant::now()` is never even called ([`Telemetry::timer`]
//!    returns `None`). Library users who don't opt in pay one
//!    predictable branch per instrumentation point.
//! 2. **Enabled hot path is lock-free.** Histogram recording, counter
//!    bumps, and gauge updates are relaxed atomic RMWs
//!    ([`Histogram::record`], [`TemplateTable`]). The only lock in the
//!    crate guards the *sampled* trace ring: unsampled instances never
//!    reach it, and the default sample rate is 0 (tracing off).
//! 3. **Aggregation is exact.** Snapshots merge by bucket addition and
//!    diff by bucket subtraction, so percentiles survive cross-worker,
//!    cross-run (`Report::absorb`), and cross-process aggregation
//!    without the "conservative worse-of" compromise the engine's old
//!    `LatencyStats` had to make.
//!
//! Where each phase timer starts and stops in the instance lifecycle,
//! how the trace sampler picks instances, and how the server's `Stats`
//! RPC reads all of this without pausing the engine is documented in
//! `ARCHITECTURE.md` (section "Telemetry dataflow") at the repo root.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod histogram;
mod trace;

pub use histogram::{
    bucket_ceil, bucket_floor, bucket_of, Histogram, HistogramSnapshot, BUCKET_COUNT,
};
pub use trace::{SpanEvent, SpanKind, TraceRing};

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
// Telemetry stays dependency-free (no parking_lot, so attaching it can
// never perturb the lock graph it helps diagnose); its two short
// critical sections leaf-lock by construction. lockdep: allow(std-sync)
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The instrumented phases of an instance's lifecycle, in the order
/// they occur. Each has its own [`Histogram`] of nanosecond timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Waiting on the admission gate's inflate slot.
    GateWait,
    /// Waiting for one entity lock (one sample per acquisition; 0 when
    /// granted immediately).
    LockWait,
    /// One full execution attempt, locks through last write.
    Execute,
    /// Rolling back one aborted attempt (wait-die undo).
    Undo,
    /// Appending one record to a WAL log file.
    WalAppend,
    /// An `fsync` (data sync) of WAL log files.
    Fsync,
    /// Commit: store publish + durable commit record + auditor merge.
    Commit,
    /// One read-only snapshot scan over the version chains (cut
    /// registration through last entity read; no lock-table entry, no
    /// WAL, leaf shard mutexes only).
    SnapshotRead,
}

impl Phase {
    /// All phases, in lifecycle order. Index with `as usize`.
    pub const ALL: [Phase; 8] = [
        Phase::GateWait,
        Phase::LockWait,
        Phase::Execute,
        Phase::Undo,
        Phase::WalAppend,
        Phase::Fsync,
        Phase::Commit,
        Phase::SnapshotRead,
    ];

    /// Stable snake_case name used in JSON, Prometheus exposition, and
    /// the wire protocol.
    pub fn name(self) -> &'static str {
        match self {
            Phase::GateWait => "gate_wait",
            Phase::LockWait => "lock_wait",
            Phase::Execute => "execute",
            Phase::Undo => "undo",
            Phase::WalAppend => "wal_append",
            Phase::Fsync => "fsync",
            Phase::Commit => "commit",
            Phase::SnapshotRead => "snapshot_read",
        }
    }
}

/// Per-run snapshot of all eight phase histograms. This is what the
/// engine's `Report` carries in its `phases` field.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseSnapshot {
    histograms: [HistogramSnapshot; 8],
}

impl PhaseSnapshot {
    /// The snapshot for one phase.
    pub fn get(&self, phase: Phase) -> &HistogramSnapshot {
        &self.histograms[phase as usize]
    }

    /// Folds `other` in, phase by phase (exact; see
    /// [`HistogramSnapshot::merge`]).
    pub fn merge(&mut self, other: &PhaseSnapshot) {
        for (a, b) in self.histograms.iter_mut().zip(&other.histograms) {
            a.merge(b);
        }
    }

    /// Phase-wise difference against an earlier snapshot.
    pub fn delta(&self, earlier: &PhaseSnapshot) -> PhaseSnapshot {
        let mut out = PhaseSnapshot::default();
        for (i, h) in out.histograms.iter_mut().enumerate() {
            *h = self.histograms[i].delta(&earlier.histograms[i]);
        }
        out
    }

    /// Total samples across all phases (0 means telemetry was off).
    pub fn total_count(&self) -> u64 {
        self.histograms.iter().map(|h| h.count).sum()
    }
}

/// Outcome counters for one template, bumped with relaxed atomics.
#[derive(Debug, Default)]
struct TemplateCounters {
    committed: AtomicU64,
    aborted: AtomicU64,
    dies: AtomicU64,
}

/// Per-template outcome counters, indexed by template position in the
/// registry. Installed by [`Telemetry::install_templates`]; workers
/// resolve the `Arc` once per run and bump pure atomics after.
#[derive(Debug, Default)]
pub struct TemplateTable {
    names: Vec<String>,
    counters: Vec<TemplateCounters>,
}

impl TemplateTable {
    fn new(names: &[String]) -> Self {
        Self {
            names: names.to_vec(),
            counters: names.iter().map(|_| TemplateCounters::default()).collect(),
        }
    }

    /// Records a commit for template `idx` (out of range is ignored).
    #[inline]
    pub fn commit(&self, idx: usize) {
        if let Some(c) = self.counters.get(idx) {
            c.committed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one aborted attempt for template `idx`.
    #[inline]
    pub fn abort(&self, idx: usize) {
        if let Some(c) = self.counters.get(idx) {
            c.aborted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a wait-die death (requester self-abort) for template
    /// `idx`.
    #[inline]
    pub fn die(&self, idx: usize) {
        if let Some(c) = self.counters.get(idx) {
            c.dies.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn rows(&self) -> Vec<TemplateSnapshot> {
        self.names
            .iter()
            .zip(&self.counters)
            .map(|(name, c)| TemplateSnapshot {
                name: name.clone(),
                committed: c.committed.load(Ordering::Relaxed),
                aborted: c.aborted.load(Ordering::Relaxed),
                dies: c.dies.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// Point-in-time counters for one template.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TemplateSnapshot {
    /// Template name as registered.
    pub name: String,
    /// Instances committed.
    pub committed: u64,
    /// Attempts aborted (each wait-die retry counts once).
    pub aborted: u64,
    /// Wait-die deaths.
    pub dies: u64,
}

/// Everything a scrape sees: uptime, gauges, phase histograms, and
/// per-template counters. Produced by [`Telemetry::snapshot`]; the
/// server's `Stats` RPC is a wire rendering of this struct.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Microseconds since the telemetry handle was created.
    pub uptime_us: u64,
    /// Instances currently admitted and executing.
    pub inflight: i64,
    /// Committed-transaction nodes in the streaming auditor's graph.
    pub auditor_nodes: u64,
    /// Conflict arcs in the streaming auditor's graph.
    pub auditor_arcs: u64,
    /// Bytes appended to WAL log files (payload + frame headers).
    pub wal_bytes: u64,
    /// Committed versions currently retained across all entity version
    /// chains (the multiversion store's memory footprint, in entries).
    pub chain_versions: u64,
    /// Length of the longest per-entity version chain.
    pub chain_max_len: u64,
    /// The snapshot low-watermark version-chain GC last truncated to
    /// (the min live read-only snapshot ts, or the commit clock when no
    /// reader was registered).
    pub chain_watermark: u64,
    /// Lifecycle events currently held in the trace ring.
    pub trace_captured: u64,
    /// Trace events evicted because the ring was full.
    pub trace_dropped: u64,
    /// Commit group sizes: one sample per WAL group — per fsync under
    /// `sync`, per decision without it — valued at the number of commit
    /// decisions it covers. `count` = groups, `sum` = decisions, so
    /// `sum / count` is the mean group size and fsync amortization is
    /// observable rather than inferred.
    pub group_size: HistogramSnapshot,
    /// All eight phase histograms (cumulative since handle creation).
    pub phases: PhaseSnapshot,
    /// Per-template outcome counters.
    pub templates: Vec<TemplateSnapshot>,
}

/// Knobs for [`Telemetry::new`].
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Record phase histograms, counters, and gauges.
    pub histograms: bool,
    /// Trace one instance in `trace_sample` (by global id); 0 disables
    /// tracing entirely.
    pub trace_sample: u32,
    /// Maximum lifecycle events held in the trace ring.
    pub trace_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            histograms: true,
            trace_sample: 0,
            trace_capacity: 65_536,
        }
    }
}

/// The plain `u64` gauges: one relaxed atomic each on the live handle,
/// copied into the same-named [`TelemetrySnapshot`] field by a scrape.
/// A new gauge is that snapshot field, its name in the list below, and
/// the setter that publishes it.
macro_rules! gauges {
    ($($g:ident),*) => {
        #[derive(Debug, Default)]
        struct Gauges {
            $($g: AtomicU64,)*
        }

        impl Gauges {
            fn load_into(&self, s: &mut TelemetrySnapshot) {
                $(s.$g = self.$g.load(Ordering::Relaxed);)*
            }
        }
    };
}

gauges!(
    auditor_nodes,
    auditor_arcs,
    wal_bytes,
    chain_versions,
    chain_max_len,
    chain_watermark
);

#[derive(Debug)]
struct Inner {
    cfg: TelemetryConfig,
    epoch: Instant,
    phases: [Histogram; 8],
    group_size: Histogram,
    templates: Mutex<Arc<TemplateTable>>,
    inflight: AtomicI64,
    gauges: Gauges,
    trace: TraceRing,
}

/// The shared observability handle threaded through `EngineConfig`,
/// the store's shards, and the WAL. Cloning is an `Arc` bump; a
/// disabled handle ([`Telemetry::disabled`], also `Default`) makes
/// every method a near-free early return.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// A no-op handle: records nothing, costs one branch per call.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A live handle with the given knobs. `histograms: false` with
    /// `trace_sample > 0` is allowed (trace-only).
    pub fn new(cfg: TelemetryConfig) -> Self {
        let trace_capacity = cfg.trace_capacity;
        Self {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                phases: std::array::from_fn(|_| Histogram::new()),
                group_size: Histogram::new(),
                templates: Mutex::new(Arc::new(TemplateTable::default())),
                inflight: AtomicI64::new(0),
                gauges: Gauges::default(),
                trace: TraceRing::new(trace_capacity),
                cfg,
            })),
        }
    }

    /// Live handle with default knobs (histograms on, tracing off).
    pub fn enabled() -> Self {
        Self::new(TelemetryConfig::default())
    }

    /// Whether any recording can happen at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn hist(&self) -> Option<&Inner> {
        match &self.inner {
            Some(i) if i.cfg.histograms => Some(i),
            _ => None,
        }
    }

    /// Starts a phase timer: `Some(now)` when histograms are on, else
    /// `None` — so the disabled path never calls `Instant::now()`.
    /// Pair with [`record_since`](Self::record_since).
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        self.hist().map(|_| Instant::now())
    }

    /// Records the elapsed time of a [`timer`](Self::timer) into
    /// `phase`. A `None` timer is a no-op.
    #[inline]
    pub fn record_since(&self, phase: Phase, start: Option<Instant>) {
        if let (Some(i), Some(t0)) = (self.hist(), start) {
            i.phases[phase as usize].record(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Records an externally measured duration into `phase`.
    #[inline]
    pub fn record(&self, phase: Phase, d: Duration) {
        if let Some(i) = self.hist() {
            i.phases[phase as usize].record(d.as_nanos() as u64);
        }
    }

    /// Installs (replaces) the per-template counter table for the
    /// currently registered system, resetting all counters.
    pub fn install_templates(&self, names: &[String]) {
        if let Some(i) = &self.inner {
            *i.templates.lock().expect("template table poisoned") =
                Arc::new(TemplateTable::new(names));
        }
    }

    /// The live counter table, resolved once per run so workers bump
    /// atomics without re-locking. `None` when disabled.
    pub fn template_table(&self) -> Option<Arc<TemplateTable>> {
        self.inner
            .as_ref()
            .map(|i| i.templates.lock().expect("template table poisoned").clone())
    }

    /// One more instance admitted.
    #[inline]
    pub fn inflight_inc(&self) {
        if let Some(i) = &self.inner {
            i.inflight.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One instance finished (committed or permanently failed).
    #[inline]
    pub fn inflight_dec(&self) {
        if let Some(i) = &self.inner {
            i.inflight.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Publishes the streaming auditor's current graph size.
    #[inline]
    pub fn set_auditor(&self, nodes: u64, arcs: u64) {
        if let Some(i) = &self.inner {
            i.gauges.auditor_nodes.store(nodes, Ordering::Relaxed);
            i.gauges.auditor_arcs.store(arcs, Ordering::Relaxed);
        }
    }

    /// Adds to the cumulative WAL byte counter.
    #[inline]
    pub fn add_wal_bytes(&self, n: u64) {
        if let Some(i) = &self.inner {
            i.gauges.wal_bytes.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Publishes the version-chain gauges: total retained committed
    /// versions, longest per-entity chain, and the low-watermark the
    /// last GC pass truncated against. Called by the store's commit
    /// publication / GC path.
    #[inline]
    pub fn set_chains(&self, versions: u64, max_len: u64, watermark: u64) {
        if let Some(i) = &self.inner {
            i.gauges.chain_versions.store(versions, Ordering::Relaxed);
            i.gauges.chain_max_len.store(max_len, Ordering::Relaxed);
            i.gauges.chain_watermark.store(watermark, Ordering::Relaxed);
        }
    }

    /// Records one WAL group of `n` commit decisions into the
    /// group-size histogram (see [`TelemetrySnapshot::group_size`]).
    #[inline]
    pub fn record_group_size(&self, n: u64) {
        if let Some(i) = self.hist() {
            i.group_size.record(n);
        }
    }

    /// Whether instance `gid` is trace-sampled. False when tracing is
    /// off; rate 1 samples everything. Callers cache this per instance.
    #[inline]
    pub fn sampled(&self, gid: u64) -> bool {
        match &self.inner {
            Some(i) => i.cfg.trace_sample != 0 && gid.is_multiple_of(u64::from(i.cfg.trace_sample)),
            None => false,
        }
    }

    /// Nanoseconds since this handle was created (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.epoch.elapsed().as_nanos() as u64)
            .unwrap_or(0)
    }

    /// Pushes one lifecycle event for a sampled instance. The caller
    /// checks [`sampled`](Self::sampled) first; this only guards
    /// against a disabled handle.
    #[inline]
    pub fn trace(&self, ev: SpanEvent) {
        if let Some(i) = &self.inner {
            i.trace.push(ev);
        }
    }

    /// The captured trace as JSON lines, oldest event first.
    pub fn dump_trace_jsonl(&self) -> String {
        self.inner
            .as_ref()
            .map(|i| i.trace.dump_jsonl())
            .unwrap_or_default()
    }

    /// The cumulative phase histograms. Cheap relaxed loads; used by
    /// the engine to compute per-run deltas.
    pub fn phase_snapshot(&self) -> PhaseSnapshot {
        let mut out = PhaseSnapshot::default();
        if let Some(i) = &self.inner {
            for (slot, h) in out.histograms.iter_mut().zip(&i.phases) {
                *slot = h.snapshot();
            }
        }
        out
    }

    /// A full scrape: gauges, phases, templates, trace stats. Reads
    /// only atomics plus two short mutexes (template table pointer,
    /// trace ring length) — never the engine lock, so a `Stats` RPC
    /// answers while a run is executing.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let Some(i) = &self.inner else {
            return TelemetrySnapshot::default();
        };
        let mut s = TelemetrySnapshot {
            uptime_us: i.epoch.elapsed().as_micros() as u64,
            inflight: i.inflight.load(Ordering::Relaxed),
            trace_captured: i.trace.len() as u64,
            trace_dropped: i.trace.dropped(),
            group_size: i.group_size.snapshot(),
            phases: self.phase_snapshot(),
            templates: self.template_table().map(|t| t.rows()).unwrap_or_default(),
            ..Default::default()
        };
        i.gauges.load_into(&mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert!(t.timer().is_none());
        t.record(Phase::Commit, Duration::from_micros(5));
        t.inflight_inc();
        t.add_wal_bytes(100);
        assert!(!t.sampled(0));
        let s = t.snapshot();
        assert_eq!(s, TelemetrySnapshot::default());
        assert_eq!(s.phases.total_count(), 0);
    }

    #[test]
    fn phases_record_and_delta() {
        let t = Telemetry::enabled();
        t.record(Phase::Commit, Duration::from_nanos(1000));
        let before = t.phase_snapshot();
        t.record(Phase::Commit, Duration::from_nanos(3000));
        t.record(Phase::LockWait, Duration::from_nanos(7));
        let run = t.phase_snapshot().delta(&before);
        assert_eq!(run.get(Phase::Commit).count, 1);
        assert_eq!(run.get(Phase::Commit).sum, 3000);
        assert_eq!(run.get(Phase::LockWait).count, 1);
        assert_eq!(run.get(Phase::LockWait).sum, 7);
        assert_eq!(run.get(Phase::Execute).count, 0);
        assert_eq!(run.total_count(), 2);
    }

    #[test]
    fn timer_pairs_with_record_since() {
        let t = Telemetry::enabled();
        let t0 = t.timer();
        assert!(t0.is_some());
        t.record_since(Phase::Execute, t0);
        assert_eq!(t.snapshot().phases.get(Phase::Execute).count, 1);
    }

    #[test]
    fn template_counters_round_trip() {
        let t = Telemetry::enabled();
        t.install_templates(&["transfer".into(), "audit".into()]);
        let table = t.template_table().unwrap();
        table.commit(0);
        table.commit(0);
        table.die(1);
        table.abort(1);
        table.commit(99); // out of range: ignored
        let rows = t.snapshot().templates;
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "transfer");
        assert_eq!(rows[0].committed, 2);
        assert_eq!(rows[1].dies, 1);
        assert_eq!(rows[1].aborted, 1);
        // Re-install resets.
        t.install_templates(&["transfer".into()]);
        assert_eq!(t.snapshot().templates[0].committed, 0);
    }

    #[test]
    fn sampling_rate_selects_every_nth_gid() {
        let t = Telemetry::new(TelemetryConfig {
            trace_sample: 4,
            ..Default::default()
        });
        let picked: Vec<u64> = (0..10).filter(|&g| t.sampled(g)).collect();
        assert_eq!(picked, vec![0, 4, 8]);
        let all = Telemetry::new(TelemetryConfig {
            trace_sample: 1,
            ..Default::default()
        });
        assert!((0..10).all(|g| all.sampled(g)));
    }

    #[test]
    fn gauges_show_up_in_snapshot() {
        let t = Telemetry::enabled();
        t.inflight_inc();
        t.inflight_inc();
        t.inflight_dec();
        t.set_auditor(12, 34);
        t.add_wal_bytes(100);
        t.add_wal_bytes(28);
        let s = t.snapshot();
        assert_eq!(s.inflight, 1);
        assert_eq!(s.auditor_nodes, 12);
        assert_eq!(s.auditor_arcs, 34);
        assert_eq!(s.wal_bytes, 128);
    }

    #[test]
    fn chain_gauges_show_up_in_snapshot() {
        let t = Telemetry::enabled();
        t.set_chains(40, 7, 33);
        let s = t.snapshot();
        assert_eq!(s.chain_versions, 40);
        assert_eq!(s.chain_max_len, 7);
        assert_eq!(s.chain_watermark, 33);
        // Gauges, not counters: a later publication overwrites.
        t.set_chains(12, 3, 38);
        assert_eq!(t.snapshot().chain_versions, 12);
        // Disabled handle records nothing.
        let off = Telemetry::disabled();
        off.set_chains(1, 1, 1);
        assert_eq!(off.snapshot().chain_versions, 0);
    }

    #[test]
    fn snapshot_read_phase_is_last_and_named() {
        assert_eq!(Phase::ALL.len(), 8);
        assert_eq!(Phase::ALL[7], Phase::SnapshotRead);
        assert_eq!(Phase::SnapshotRead.name(), "snapshot_read");
        let t = Telemetry::enabled();
        t.record(Phase::SnapshotRead, Duration::from_nanos(42));
        assert_eq!(t.snapshot().phases.get(Phase::SnapshotRead).count, 1);
    }

    #[test]
    fn group_size_histogram_counts_flushes_and_decisions() {
        let t = Telemetry::enabled();
        t.record_group_size(1);
        t.record_group_size(8);
        t.record_group_size(3);
        let g = t.snapshot().group_size;
        assert_eq!(g.count, 3, "one sample per flush");
        assert_eq!(g.sum, 12, "sum counts decisions");
        assert_eq!(g.max, 8);
        // Disabled handle records nothing.
        let off = Telemetry::disabled();
        off.record_group_size(5);
        assert_eq!(off.snapshot().group_size.count, 0);
    }

    #[test]
    fn histograms_off_trace_on_still_traces() {
        let t = Telemetry::new(TelemetryConfig {
            histograms: false,
            trace_sample: 1,
            trace_capacity: 16,
        });
        assert!(t.timer().is_none());
        t.record(Phase::Commit, Duration::from_nanos(5));
        assert_eq!(t.snapshot().phases.total_count(), 0);
        assert!(t.sampled(3));
        t.trace(SpanEvent {
            ts_ns: t.now_ns(),
            gid: 3,
            template: 0,
            attempt: 1,
            kind: SpanKind::Admit,
            entity: u32::MAX,
            dur_ns: 0,
            n: 0,
        });
        assert_eq!(t.snapshot().trace_captured, 1);
        assert!(t.dump_trace_jsonl().contains("\"gid\":3"));
    }
}
