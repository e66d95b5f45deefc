//! Run reports, following the `ddlf_sim::metrics` conventions
//! (`throughput_per_sec`, `all_committed`, a `serializable` audit slot)
//! but measured in wall-clock time on real threads.

use crate::template::{AdmissionVerdict, Slots};
use ddlf_telemetry::PhaseSnapshot;
use std::time::Duration;

/// Latency distribution over committed instances, in microseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyStats {
    /// Mean commit latency.
    pub mean_us: f64,
    /// Median commit latency.
    pub p50_us: u64,
    /// 99th percentile commit latency.
    pub p99_us: u64,
    /// Worst commit latency.
    pub max_us: u64,
}

impl LatencyStats {
    /// Computes stats from raw per-instance latencies (destructive sort).
    pub fn from_samples(mut samples: Vec<u64>) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_unstable();
        let n = samples.len();
        let pct = |p: f64| samples[(((n - 1) as f64) * p) as usize];
        Self {
            mean_us: samples.iter().sum::<u64>() as f64 / n as f64,
            p50_us: pct(0.50),
            p99_us: pct(0.99),
            max_us: samples[n - 1],
        }
    }
}

impl LatencyStats {
    /// Merges another distribution in, weighting the means by committed
    /// counts. Percentiles cannot be merged exactly without the raw
    /// samples, so `p50`/`p99`/`max` take the worse (larger) of the two —
    /// a conservative cumulative view.
    fn absorb(&mut self, other: &Self, self_weight: usize, other_weight: usize) {
        let total = self_weight + other_weight;
        if total == 0 {
            return;
        }
        self.mean_us = (self.mean_us * self_weight as f64 + other.mean_us * other_weight as f64)
            / total as f64;
        self.p50_us = self.p50_us.max(other.p50_us);
        self.p99_us = self.p99_us.max(other.p99_us);
        self.max_us = self.max_us.max(other.max_us);
    }
}

/// Per-template outcome of one run: the certified multiprogramming level
/// next to what the run actually achieved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateReport {
    /// The template's name in the registered system.
    pub name: String,
    /// Certified concurrent slots from the admission plan.
    pub certified_slots: Slots,
    /// High-water mark of concurrent in-flight instances this run — the
    /// achieved multiprogramming level.
    pub peak_inflight: usize,
    /// Instances of this template that committed.
    pub committed: usize,
    /// Aborted attempts charged to this template's instances.
    pub aborted_attempts: usize,
}

/// Counters and outcomes of one engine run.
#[derive(Debug, Clone)]
pub struct Report {
    /// The admission verdict the run executed under.
    pub verdict: AdmissionVerdict,
    /// Whether a requested inflation failed to certify and the admission
    /// plan fell back to the `k = 1` floor.
    pub plan_floored: bool,
    /// Whether the run was forced onto the wait-die path despite a
    /// certificate (for apples-to-apples comparisons).
    pub forced_fallback: bool,
    /// Total transaction instances submitted.
    pub instances: usize,
    /// Instances that ran to commit.
    pub committed: usize,
    /// Aborted attempts — every abort is a wait-die victim that retried;
    /// the certified path cannot abort, so this is always 0 there.
    pub aborted_attempts: usize,
    /// Aborts that exposed a write the rollback could **not** take back
    /// cleanly (a surviving op stopped typing without it, or the
    /// chain-length bound had already folded it). Exposed writes are
    /// normally rolled back (see [`Report::rolled_back`]); only this
    /// residue voids the serializability audit (`serializable` becomes
    /// `None`).
    pub dirty_aborts: usize,
    /// Exposed writes of dying attempts that were rolled back (their
    /// chain entries removed, successors re-folded) — what used to be
    /// unconditionally dirty.
    pub rolled_back: u64,
    /// Instance ids that exhausted their attempt budget.
    pub failed: Vec<u32>,
    /// Data reads performed under locks (lock-only ticket entities are
    /// not reads; see [`crate::Program::reads_entity`]).
    pub reads: u64,
    /// Writes committed to the store.
    pub writes: u64,
    /// Writes skipped with a typed error because the operation did not
    /// type against the entity's payload
    /// ([`crate::store::WriteError`]); the old behavior silently
    /// clobbered the payload instead.
    pub writes_skipped: u64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// `D(S)` audit of the committed schedule: the conjunction of the
    /// audit-epoch verdicts this run's chunks observed (an epoch shared
    /// with overlapping runs covers their instances too); `None` when
    /// not every instance committed.
    pub serializable: Option<bool>,
    /// Lock/unlock events this run's instances recorded, every
    /// attempt's.
    pub history_len: usize,
    /// Commit-latency distribution.
    pub latency: LatencyStats,
    /// Phase-latency histograms recorded while this run was in flight
    /// (gate wait, lock wait, execute, undo, WAL append, fsync, commit),
    /// when the run's [`EngineConfig`](crate::EngineConfig) carried an
    /// enabled telemetry handle; all-zero otherwise. They are a delta
    /// of the engine's cumulative histograms, so they include the
    /// samples of any run overlapping this one on the same engine —
    /// exactly this run's only when it ran alone (the CLI's `run`).
    /// Unlike [`LatencyStats`], these merge *exactly* under
    /// [`Report::absorb`].
    pub phases: PhaseSnapshot,
    /// Commit groups the WAL counted while this run was in flight — one
    /// per fsync under `wal_sync` (each covering every decision appended
    /// before it started), without it one per buffered `Commit` frame —
    /// overlapping runs' groups included, like [`Report::phases`]; 0 when
    /// no WAL is attached.
    pub group_flushes: u64,
    /// Commit decisions the WAL wrote while this run was in flight;
    /// `group_commits / group_flushes` is the mean achieved group size
    /// (1 without `wal_sync`).
    pub group_commits: u64,
    /// Per-template certified-vs-achieved multiprogramming and outcome
    /// counts, template order.
    pub per_template: Vec<TemplateReport>,
}

/// The outcome clause of a run's one-line summary, shared by
/// [`Report::summary`] and the wire client's `RunStats::summary` (which
/// carries no latency percentiles and passes `None`).
pub fn summary_line(
    committed: u64,
    instances: u64,
    aborts: u64,
    txn_per_sec: f64,
    latency: Option<&LatencyStats>,
    peak_inflight: u64,
    serializable: Option<bool>,
) -> String {
    let latency = latency
        .map(|l| format!("p50 {}µs p99 {}µs | ", l.p50_us, l.p99_us))
        .unwrap_or_default();
    format!(
        "committed {committed}/{instances} aborts {aborts} | {txn_per_sec:.0} txn/s | \
         {latency}peak k {peak_inflight} | serializable {serializable:?}"
    )
}

/// The three-valued conjunction of two audit verdicts: a confirmed
/// violation (`Some(false)`) absorbs everything, an unauditable `None`
/// absorbs `Some(true)`, and `Some(true)` is the identity.
pub(crate) fn conjoin(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

impl Report {
    /// Whether every submitted instance committed.
    pub fn all_committed(&self) -> bool {
        self.committed == self.instances && self.failed.is_empty()
    }

    /// Committed instances per wall-clock second.
    pub fn throughput_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.committed as f64 / secs
    }

    /// The highest multiprogramming level any template achieved this run.
    pub fn peak_inflight(&self) -> usize {
        self.per_template
            .iter()
            .map(|t| t.peak_inflight)
            .max()
            .unwrap_or(0)
    }

    /// The execution path this run took: `"no-detector"` when the
    /// system certified and the fallback was not forced, else
    /// `"wait-die"`.
    pub fn path(&self) -> &'static str {
        if self.verdict.is_certified() && !self.forced_fallback {
            "no-detector"
        } else {
            "wait-die"
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} | {}",
            self.path(),
            summary_line(
                self.committed as u64,
                self.instances as u64,
                self.aborted_attempts as u64,
                self.throughput_per_sec(),
                Some(&self.latency),
                self.peak_inflight() as u64,
                self.serializable,
            )
        )
    }

    /// Folds the outcome of one more run into this (cumulative) report:
    /// counters add, `wall` accumulates, `serializable` is the
    /// three-valued conjunction of run verdicts — a confirmed violation
    /// (`Some(false)`) is absorbing and is never masked by a later
    /// unauditable run; `Some(true)` degrades to `None` once any audited
    /// run could not produce a verdict — per-template peaks take the
    /// high-water mark, and latency percentiles merge conservatively
    /// (worse-of). The engine uses this to maintain the snapshot behind
    /// [`Engine::report_snapshot`](crate::Engine::report_snapshot);
    /// empty runs (`run.instances == 0`) are identity.
    pub fn absorb(&mut self, run: &Report) {
        if run.instances == 0 {
            return;
        }
        self.serializable = if self.instances == 0 {
            run.serializable
        } else {
            conjoin(self.serializable, run.serializable)
        };
        self.latency
            .absorb(&run.latency, self.committed, run.committed);
        self.phases.merge(&run.phases);
        self.instances += run.instances;
        self.committed += run.committed;
        self.aborted_attempts += run.aborted_attempts;
        self.dirty_aborts += run.dirty_aborts;
        self.rolled_back += run.rolled_back;
        self.failed.extend_from_slice(&run.failed);
        self.reads += run.reads;
        self.writes += run.writes;
        self.writes_skipped += run.writes_skipped;
        self.wall += run.wall;
        self.history_len += run.history_len;
        self.group_flushes += run.group_flushes;
        self.group_commits += run.group_commits;
        debug_assert_eq!(self.per_template.len(), run.per_template.len());
        for (acc, t) in self.per_template.iter_mut().zip(&run.per_template) {
            acc.peak_inflight = acc.peak_inflight.max(t.peak_inflight);
            acc.committed += t.committed;
            acc.aborted_attempts += t.aborted_attempts;
        }
    }

    /// A per-template table: certified k, achieved peak, commits, aborts.
    pub fn template_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for t in &self.per_template {
            let _ = writeln!(
                out,
                "  {:<24} certified k = {:<4} peak {} | committed {} aborts {}",
                t.name, t.certified_slots, t.peak_inflight, t.committed, t.aborted_attempts
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles() {
        let s = LatencyStats::from_samples((1..=100).collect());
        assert_eq!(s.p50_us, 50);
        assert_eq!(s.p99_us, 99);
        assert_eq!(s.max_us, 100);
        assert!((s.mean_us - 50.5).abs() < 1e-9);
        assert_eq!(LatencyStats::from_samples(vec![]), LatencyStats::default());
    }

    fn run_report(serializable: Option<bool>) -> Report {
        Report {
            verdict: AdmissionVerdict::Certified,
            plan_floored: false,
            forced_fallback: false,
            instances: 4,
            committed: 4,
            aborted_attempts: 0,
            dirty_aborts: 0,
            rolled_back: 0,
            failed: vec![],
            reads: 0,
            writes: 0,
            writes_skipped: 0,
            wall: Duration::from_millis(1),
            serializable,
            history_len: 0,
            latency: LatencyStats::default(),
            phases: PhaseSnapshot::default(),
            group_flushes: 3,
            group_commits: 4,
            per_template: vec![],
        }
    }

    #[test]
    fn absorb_serializable_is_a_three_valued_conjunction() {
        // A confirmed violation is absorbing — a later unauditable run
        // must not mask it back to None.
        let mut acc = run_report(Some(false));
        acc.absorb(&run_report(None));
        assert_eq!(acc.serializable, Some(false));
        acc.absorb(&run_report(Some(true)));
        assert_eq!(acc.serializable, Some(false));

        // Some(true) degrades to None under an unauditable run…
        let mut acc = run_report(Some(true));
        acc.absorb(&run_report(None));
        assert_eq!(acc.serializable, None);
        // …and None picks a violation back up.
        acc.absorb(&run_report(Some(false)));
        assert_eq!(acc.serializable, Some(false));

        // All-clear stays all-clear, and counters accumulate.
        let mut acc = run_report(Some(true));
        acc.absorb(&run_report(Some(true)));
        assert_eq!(acc.serializable, Some(true));
        assert_eq!(acc.instances, 8);
        assert_eq!((acc.group_flushes, acc.group_commits), (6, 8));
    }

    #[test]
    fn report_throughput() {
        let r = Report {
            verdict: AdmissionVerdict::Certified,
            plan_floored: false,
            forced_fallback: false,
            instances: 10,
            committed: 10,
            aborted_attempts: 0,
            dirty_aborts: 0,
            rolled_back: 0,
            failed: vec![],
            reads: 0,
            writes: 0,
            writes_skipped: 0,
            wall: Duration::from_secs(2),
            serializable: Some(true),
            history_len: 0,
            latency: LatencyStats::default(),
            phases: PhaseSnapshot::default(),
            group_flushes: 0,
            group_commits: 0,
            per_template: vec![TemplateReport {
                name: "T".into(),
                certified_slots: Slots::Bounded(4),
                peak_inflight: 3,
                committed: 10,
                aborted_attempts: 0,
            }],
        };
        assert!(r.all_committed());
        assert!((r.throughput_per_sec() - 5.0).abs() < 1e-9);
        assert!(r.summary().contains("no-detector"));
        assert_eq!(r.peak_inflight(), 3);
        let table = r.template_table();
        assert!(table.contains("certified k = 4"), "{table}");
        assert!(table.contains("peak 3"), "{table}");
    }
}
