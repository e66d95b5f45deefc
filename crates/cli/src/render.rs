//! One renderer per report. The wire records (`ddlf_server::Record`)
//! list their own fields, so the JSON and Prometheus renderings of a
//! stats digest are loops over that list: a gauge added to
//! `StatsSnapshot` shows up in both without an edit here. Only the human
//! table picks and words its columns by hand.

use ddlf_engine::{Phase, Report};
use ddlf_model::{GlobalNode, TransactionSystem};
use ddlf_server::{Metric, PhaseStat, Record, StatsSnapshot, Value as Wire};
use serde_json::Value;
use std::fmt::{Display, Write as _};

/// Builds a JSON object from key/value pairs (the vendored `serde_json`
/// has no `json!` macro; objects are ordered `Vec`s of entries).
pub(crate) fn jobj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub(crate) fn ju(n: u64) -> Value {
    Value::U64(n)
}

pub(crate) fn jf(x: f64) -> Value {
    Value::F64(x)
}

pub(crate) fn js(s: impl ToString) -> Value {
    Value::Str(s.to_string())
}

pub(crate) fn jarr(items: impl Iterator<Item = Value>) -> Value {
    Value::Arr(items.collect())
}

/// `some(v)`, or `null` for an absent value.
pub(crate) fn jopt<T>(v: Option<T>, some: impl FnOnce(T) -> Value) -> Value {
    v.map_or(Value::Null, some)
}

/// `v` as one line of stdout: scripts pipe it straight into a parser.
pub(crate) fn json_line(v: &Value) -> String {
    let json = serde_json::to_string(v).expect("a Value always serializes");
    json + "\n"
}

/// `num / den`, or 0 when nothing was counted yet.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One schedule step resolved to names — transaction, `L`/`U`, entity:
/// the `T.Lx` notation under `deadlock`, `explore` and the trace JSONL.
pub(crate) fn step<'a>(
    sys: &'a TransactionSystem,
    g: &GlobalNode,
) -> (&'a str, &'static str, &'a str) {
    let txn = sys.txn(g.txn);
    let op = txn.op(g.node);
    let kind = if op.is_lock() { "L" } else { "U" };
    (txn.name(), kind, sys.db().name_of(op.entity))
}

/// One explorer counterexample as a self-contained JSON object — the
/// line format of `explore --trace-out` (names resolved against the
/// explored system, so a trace is readable without the spec).
pub(crate) fn counterexample_json(
    sys: &TransactionSystem,
    ce: &ddlf_model::Counterexample,
    rep: Option<&ddlf_engine::ReplayReport>,
) -> Value {
    let tname = |t: ddlf_model::TxnId| js(sys.txn(t).name());
    let ename = |e: ddlf_model::EntityId| js(sys.db().name_of(e));
    let waits = ce.waits_for.iter().map(|w| {
        jobj(vec![
            ("waiter", tname(w.waiter)),
            ("entity", ename(w.entity)),
            ("holder", tname(w.holder)),
        ])
    });
    let steps = ce.steps.iter().map(|g| {
        let (name, op, entity) = step(sys, g);
        jobj(vec![
            ("txn", ju(u64::from(g.txn.0))),
            ("name", js(name)),
            ("op", js(op)),
            ("entity", js(entity)),
        ])
    });
    let replay = jopt(rep, |r| {
        jobj(vec![
            ("committed", ju(r.committed as u64)),
            ("instances", ju(r.instances as u64)),
            ("aborts", ju(u64::from(r.aborts))),
            ("rolled_back", ju(u64::from(r.rolled_back))),
            ("serializable", jopt(r.serializable, Value::Bool)),
        ])
    });
    jobj(vec![
        ("kind", js(ce.kind.name())),
        ("cycle", jarr(ce.cycle.iter().map(|&t| tname(t)))),
        (
            "cycle_entities",
            jarr(ce.cycle_entities.iter().map(|&e| ename(e))),
        ),
        ("stuck", jarr(ce.stuck.iter().map(|&t| tname(t)))),
        ("waits_for", jarr(waits)),
        ("steps", jarr(steps)),
        ("replay", replay),
    ])
}

/// A record's scalar fields as JSON object entries, field-list order
/// (lists and sub-records are the caller's to place).
pub(crate) fn record_json(record: &impl Record) -> Vec<(String, Value)> {
    let scalar = |v| match v {
        Wire::U64(n) => Some(ju(n)),
        Wire::I64(n) => Some(Value::I64(n)),
        Wire::Str(s) => Some(js(s)),
        Wire::OptU64(n) => Some(jopt(n, ju)),
        Wire::Other => None,
    };
    let fields = record.fields().into_iter();
    fields
        .filter_map(|f| Some((f.name.to_string(), scalar(f.value)?)))
        .collect()
}

/// Phase digests as a JSON object keyed by phase name
/// (`{"lock_wait": {"count": …, "p99_ns": …}, …}`), the derived mean
/// next to the sum it comes from — under `run --json` and `stats --json`.
pub(crate) fn phases_json(phases: &[PhaseStat]) -> Value {
    let digest = |p: &PhaseStat| {
        let mut entries = Vec::new();
        for (key, value) in record_json(p) {
            if key == "name" {
                continue;
            }
            let is_sum = key == "sum_ns";
            entries.push((key, value));
            if is_sum {
                entries.push(("mean_ns".to_string(), ju(p.mean_ns())));
            }
        }
        (p.name.clone(), Value::Obj(entries))
    };
    Value::Obj(phases.iter().map(digest).collect())
}

/// The full [`Report`] as one JSON object — the `--json` output of
/// `run`, stable enough for scripting (CI parses it).
pub fn report_json(report: &Report) -> Value {
    let fsyncs = report.phases.get(Phase::Fsync).count;
    let per_template = report.per_template.iter().map(|t| {
        jobj(vec![
            ("name", js(&t.name)),
            ("certified_slots", js(t.certified_slots)),
            ("peak_inflight", ju(t.peak_inflight as u64)),
            ("committed", ju(t.committed as u64)),
            ("aborted_attempts", ju(t.aborted_attempts as u64)),
        ])
    });
    jobj(vec![
        ("verdict", js(&report.verdict)),
        ("path", js(report.path())),
        ("plan_floored", Value::Bool(report.plan_floored)),
        ("forced_fallback", Value::Bool(report.forced_fallback)),
        ("instances", ju(report.instances as u64)),
        ("committed", ju(report.committed as u64)),
        ("aborted_attempts", ju(report.aborted_attempts as u64)),
        ("dirty_aborts", ju(report.dirty_aborts as u64)),
        ("rolled_back", ju(report.rolled_back)),
        (
            "failed",
            Value::Arr(report.failed.iter().map(|&id| ju(id.into())).collect()),
        ),
        ("reads", ju(report.reads)),
        ("writes", ju(report.writes)),
        ("writes_skipped", ju(report.writes_skipped)),
        (
            "wall_us",
            ju(u64::try_from(report.wall.as_micros()).unwrap_or(u64::MAX)),
        ),
        ("throughput_per_sec", jf(report.throughput_per_sec())),
        ("serializable", jopt(report.serializable, Value::Bool)),
        ("history_len", ju(report.history_len as u64)),
        ("peak_inflight", ju(report.peak_inflight() as u64)),
        ("group_flushes", ju(report.group_flushes)),
        ("group_commits", ju(report.group_commits)),
        (
            // Commit decisions per group (per fsync under --wal-sync) —
            // 1.0 means no decision ever found a companion; higher is
            // amortization.
            "mean_group_size",
            jf(ratio(report.group_commits, report.group_flushes)),
        ),
        (
            // The durability cost per commit: fsync calls over committed
            // instances. One fsync per decision pays 1.0; an fsync that
            // covers several amortizes it below 1.0. 0.0 when fsync
            // never ran.
            "fsyncs_per_commit",
            jf(ratio(fsyncs, report.committed as u64)),
        ),
        (
            "latency_us",
            jobj(vec![
                ("mean", jf(report.latency.mean_us)),
                ("p50", ju(report.latency.p50_us)),
                ("p99", ju(report.latency.p99_us)),
                ("max", ju(report.latency.max_us)),
            ]),
        ),
        ("phases", phases_json(&PhaseStat::digest(&report.phases))),
        ("per_template", jarr(per_template)),
    ])
}

/// Fsync calls per committed instance from a server digest — the
/// amortization the `stats` verb surfaces so an fsync's coverage is
/// observable, not inferred. `None` when nothing committed yet.
fn fsyncs_per_commit(s: &StatsSnapshot) -> Option<f64> {
    let fsyncs = s.phases.iter().find(|p| p.name == "fsync");
    (s.committed() > 0).then(|| ratio(fsyncs.map_or(0, |p| p.count), s.committed()))
}

/// The `stats --json` rendering of a server digest: every scalar of the
/// field list, the derived ratios, then the phase and template lists.
pub(crate) fn stats_json(s: &StatsSnapshot) -> Value {
    let templates = s.templates.iter().map(|t| Value::Obj(record_json(t)));
    let mut obj = record_json(s);
    obj.extend(
        [
            (
                "mean_group_size",
                jf(ratio(s.group_commits, s.group_flushes)),
            ),
            ("fsyncs_per_commit", jf(fsyncs_per_commit(s).unwrap_or(0.0))),
            ("committed", ju(s.committed())),
            ("phases", phases_json(&s.phases)),
            ("templates", jarr(templates)),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    );
    Value::Obj(obj)
}

/// Escapes a Prometheus label value (backslash, quote, newline).
fn prom_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// One unlabelled Prometheus series with its `# TYPE` line.
fn prom_series(out: &mut String, series: &str, kind: &str, value: impl Display) {
    let _ = writeln!(out, "# TYPE {series} {kind}\n{series} {value}");
}

/// The `stats --prom` rendering: Prometheus text exposition. Every
/// numeric field of the digest is a series named and typed by its
/// [`Metric`]; phase digests are summaries (quantile labels), template
/// counters `_total` series.
pub(crate) fn stats_prom(s: &StatsSnapshot) -> String {
    let mut out = String::new();
    for f in s.fields() {
        let value = match (f.metric, f.value) {
            (Metric::Micros, Wire::U64(us)) => (us as f64 / 1e6).to_string(),
            (_, Wire::U64(n)) => n.to_string(),
            (_, Wire::I64(n)) => n.to_string(),
            _ => continue,
        };
        let (series, kind) = match f.metric {
            Metric::Gauge => (format!("ddlf_{}", f.name), "gauge"),
            Metric::Counter => (format!("ddlf_{}_total", f.name), "counter"),
            Metric::Micros => {
                let stem = f.name.trim_end_matches("_us");
                (format!("ddlf_{stem}_seconds"), "gauge")
            }
        };
        prom_series(&mut out, &series, kind, value);
    }
    if s.group_flushes > 0 {
        let mean = ratio(s.group_commits, s.group_flushes);
        prom_series(&mut out, "ddlf_mean_group_size", "gauge", mean);
    }
    if let Some(fpc) = fsyncs_per_commit(s) {
        prom_series(&mut out, "ddlf_fsyncs_per_commit", "gauge", fpc);
    }
    if !s.phases.is_empty() {
        let _ = writeln!(out, "# TYPE ddlf_phase_latency_seconds summary");
    }
    for p in &s.phases {
        let phase = prom_escape(&p.name);
        for (q, ns) in [("0.5", p.p50_ns), ("0.95", p.p95_ns), ("0.99", p.p99_ns)] {
            let _ = writeln!(
                out,
                "ddlf_phase_latency_seconds{{phase=\"{phase}\",quantile=\"{q}\"}} {}",
                ns as f64 / 1e9
            );
        }
        let _ = writeln!(
            out,
            "ddlf_phase_latency_seconds_sum{{phase=\"{phase}\"}} {}\n\
             ddlf_phase_latency_seconds_count{{phase=\"{phase}\"}} {}",
            p.sum_ns as f64 / 1e9,
            p.count
        );
    }
    if s.templates.is_empty() {
        return out;
    }
    for column in ["committed", "aborted"] {
        let _ = writeln!(out, "# TYPE ddlf_template_{column}_total counter");
        for t in &s.templates {
            let template = prom_escape(&t.name);
            let count = if column == "committed" {
                t.committed
            } else {
                t.aborted
            };
            let _ = writeln!(
                out,
                "ddlf_template_{column}_total{{template=\"{template}\"}} {count}"
            );
        }
    }
    out
}

/// The default human rendering of `stats`.
pub(crate) fn stats_human(s: &StatsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "uptime {:.1}s | inflight {} | auditor {} nodes / {} arcs | wal {} B | trace {} captured (+{} dropped)",
        s.uptime_us as f64 / 1e6,
        s.inflight,
        s.auditor_nodes,
        s.auditor_arcs,
        s.wal_bytes,
        s.trace_captured,
        s.trace_dropped,
    );
    if s.group_flushes > 0 {
        let _ = writeln!(
            out,
            "group commit: {} decisions in {} flushes (mean group {:.1}{})",
            s.group_commits,
            s.group_flushes,
            ratio(s.group_commits, s.group_flushes),
            fsyncs_per_commit(s)
                .map(|f| format!(", {f:.2} fsyncs/commit"))
                .unwrap_or_default(),
        );
    }
    if s.chain_versions > 0 {
        let _ = writeln!(
            out,
            "mvcc: {} retained versions (longest chain {}, GC watermark ts {})",
            s.chain_versions, s.chain_max_len, s.chain_watermark,
        );
    }
    if s.phases.is_empty() {
        let _ = writeln!(
            out,
            "no phase histograms (telemetry disabled or nothing registered)"
        );
    } else {
        let _ = writeln!(
            out,
            "  {:<12} {:>10} {:>12} {:>12} {:>12} {:>12}",
            "phase", "count", "p50", "p95", "p99", "max"
        );
        let us = |ns: u64| format!("{:.1}µs", ns as f64 / 1e3);
        for p in &s.phases {
            let _ = writeln!(
                out,
                "  {:<12} {:>10} {:>12} {:>12} {:>12} {:>12}",
                p.name,
                p.count,
                us(p.p50_ns),
                us(p.p95_ns),
                us(p.p99_ns),
                us(p.max_ns)
            );
        }
    }
    for t in &s.templates {
        let _ = writeln!(
            out,
            "  {:<24} committed {} aborted {} dies {}",
            t.name, t.committed, t.aborted, t.dies
        );
    }
    out
}
