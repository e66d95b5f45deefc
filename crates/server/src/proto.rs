//! The wire protocol: request/response enums with a compact binary
//! encoding, following the `ddlf_sim::msg` conventions (1-byte tag,
//! little-endian fixed-width integers, length-prefixed UTF-8 strings).
//!
//! A protocol unit is one encoded message carried in one
//! [`ddlf_sim::msg::frame`] frame. Decoding is strict: unknown tags,
//! short buffers, invalid enum bytes, non-UTF-8 strings, and trailing
//! garbage all decode to `None`, so a malformed peer can never produce a
//! misread message — only a rejected one.
//!
//! Every message body is declared once, as a `record!` field list: the
//! list is the struct, its wire layout (fields in order, each coded by
//! its type's private `Wire` impl) and its [`Record::fields`] view, which
//! `ddlf-audit` renders as JSON and Prometheus text. Adding a `u64`
//! gauge to [`StatsSnapshot`] is one row there.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use ddlf_engine::{
    Phase, PhaseSnapshot, Report, Slots, Telemetry, TelemetrySnapshot, TemplateRegistry,
};
// The checked readers/writers (bounds-checked little-endian integers,
// length-prefixed strings) are shared with the engine's WAL record
// format — one hardened implementation for every msg-convention codec.
use ddlf_sim::msg::codec::{finished, get_bool, get_str, get_u32, get_u64, get_u8, put_str};
use std::fmt;

// ---- field coding ------------------------------------------------------

/// How one field type is laid out on the wire and shown to a renderer.
trait Wire: Sized {
    /// The fewest bytes one value occupies. A list decoder bounds the
    /// peer's claimed count by it before allocating, so a hostile count
    /// on a short buffer is rejected, not pre-allocated.
    const MIN: usize;
    fn put(&self, b: &mut BytesMut);
    fn get(b: &mut Bytes) -> Option<Self>;
    fn view(&self) -> Value<'_> {
        Value::Other
    }
}

/// A [`Record`] field's value as a renderer sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value<'a> {
    /// An unsigned counter or gauge.
    U64(u64),
    /// A signed gauge (a torn `inflight` read can dip below zero).
    I64(i64),
    /// A name.
    Str(&'a str),
    /// An integer that may be absent.
    OptU64(Option<u64>),
    /// A list, sub-record or flag: not rendered field-by-field.
    Other,
}

/// How a numeric [`StatsSnapshot`] field is exposed as a Prometheus
/// series (`ddlf-audit stats --prom`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// `ddlf_<field>`, type gauge — the default for a field list row.
    Gauge,
    /// `ddlf_<field>_total`, type counter.
    Counter,
    /// A microsecond gauge: `ddlf_<field minus _us>_seconds`.
    Micros,
}

/// One row of a [`Record`]'s field list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field<'a> {
    /// The field's name — its JSON key and Prometheus series stem.
    pub name: &'static str,
    /// Its Prometheus exposition.
    pub metric: Metric,
    /// Its current value.
    pub value: Value<'a>,
}

/// A wire message body that can list its own fields, in wire order.
pub trait Record {
    /// Every field of the record, in declaration (= wire) order.
    fn fields(&self) -> Vec<Field<'_>>;
}

impl Wire for u64 {
    const MIN: usize = 8;
    fn put(&self, b: &mut BytesMut) {
        b.put_u64_le(*self);
    }
    fn get(b: &mut Bytes) -> Option<Self> {
        get_u64(b)
    }
    fn view(&self) -> Value<'_> {
        Value::U64(*self)
    }
}

/// Two's-complement in a `u64` slot.
impl Wire for i64 {
    const MIN: usize = 8;
    fn put(&self, b: &mut BytesMut) {
        b.put_u64_le(*self as u64);
    }
    fn get(b: &mut Bytes) -> Option<Self> {
        Some(get_u64(b)? as i64)
    }
    fn view(&self) -> Value<'_> {
        Value::I64(*self)
    }
}

/// One byte, `0` or `1`; anything else is malformed.
impl Wire for bool {
    const MIN: usize = 1;
    fn put(&self, b: &mut BytesMut) {
        b.put_u8(u8::from(*self));
    }
    fn get(b: &mut Bytes) -> Option<Self> {
        get_bool(b)
    }
}

impl Wire for String {
    const MIN: usize = 4;
    fn put(&self, b: &mut BytesMut) {
        put_str(b, self);
    }
    fn get(b: &mut Bytes) -> Option<Self> {
        get_str(b)
    }
    fn view(&self) -> Value<'_> {
        Value::Str(self)
    }
}

/// One byte: `0` none ∣ `1` false ∣ `2` true.
impl Wire for Option<bool> {
    const MIN: usize = 1;
    fn put(&self, b: &mut BytesMut) {
        b.put_u8(match self {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
    }
    fn get(b: &mut Bytes) -> Option<Self> {
        match get_u8(b)? {
            0 => Some(None),
            1 => Some(Some(false)),
            2 => Some(Some(true)),
            _ => None,
        }
    }
}

/// A presence byte (`0` absent ∣ `1` present), then the value if present.
impl Wire for Option<u64> {
    const MIN: usize = 1;
    fn put(&self, b: &mut BytesMut) {
        match self {
            None => b.put_u8(0),
            Some(v) => {
                b.put_u8(1);
                b.put_u64_le(*v);
            }
        }
    }
    fn get(b: &mut Bytes) -> Option<Self> {
        match get_u8(b)? {
            0 => Some(None),
            1 => Some(Some(get_u64(b)?)),
            _ => None,
        }
    }
    fn view(&self) -> Value<'_> {
        Value::OptU64(*self)
    }
}

/// A `u32` count, then the items.
impl<T: Wire> Wire for Vec<T> {
    const MIN: usize = 4;
    fn put(&self, b: &mut BytesMut) {
        b.put_u32_le(u32::try_from(self.len()).expect("list fits a frame"));
        for item in self {
            item.put(b);
        }
    }
    fn get(b: &mut Bytes) -> Option<Self> {
        let n = get_u32(b)? as usize;
        if b.remaining() < n.checked_mul(T::MIN)? {
            return None;
        }
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(b)?);
        }
        Some(items)
    }
}

/// Declares a wire message body from its one field list: the struct
/// (every field public), its `Wire` layout (the fields in order) and its
/// [`Record`] view. `=> Counter`/`=> Micros` after a field's type picks
/// its [`Metric`]; the default is `Gauge`.
macro_rules! record {
    (
        $(#[$sm:meta])*
        pub struct $name:ident {
            $( $(#[$fm:meta])* $f:ident : $t:ty $(=> $m:ident)? ),* $(,)?
        }
    ) => {
        $(#[$sm])*
        pub struct $name {
            $( $(#[$fm])* pub $f: $t, )*
        }

        impl Wire for $name {
            const MIN: usize = 0 $(+ <$t as Wire>::MIN)*;
            fn put(&self, b: &mut BytesMut) {
                $( self.$f.put(b); )*
            }
            fn get(b: &mut Bytes) -> Option<Self> {
                Some($name { $( $f: Wire::get(b)?, )* })
            }
        }

        impl Record for $name {
            fn fields(&self) -> Vec<Field<'_>> {
                vec![ $( Field {
                    name: stringify!($f),
                    metric: record!(@metric $($m)?),
                    value: self.$f.view(),
                }, )* ]
            }
        }
    };
    (@metric) => { Metric::Gauge };
    (@metric $m:ident) => { Metric::$m };
}

// ---- requests ----------------------------------------------------------

/// The client's requested per-template concurrency, mirroring
/// `ddlf_engine::Inflation` (minus the per-template vector, which has no
/// spec-file syntax yet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InflateSpec {
    /// One instance per template.
    #[default]
    None,
    /// The same `k ≥ 1` for every template, certified up front.
    Uniform(u32),
    /// Search for the largest certified uniform `k ≤ cap`.
    Auto {
        /// Upper bound for the search.
        cap: u32,
    },
}

const INFLATE_NONE: u8 = 0;
const INFLATE_UNIFORM: u8 = 1;
const INFLATE_AUTO: u8 = 2;

impl Wire for InflateSpec {
    const MIN: usize = 1;
    fn put(&self, b: &mut BytesMut) {
        match *self {
            InflateSpec::None => b.put_u8(INFLATE_NONE),
            InflateSpec::Uniform(k) => {
                b.put_u8(INFLATE_UNIFORM);
                b.put_u32_le(k);
            }
            InflateSpec::Auto { cap } => {
                b.put_u8(INFLATE_AUTO);
                b.put_u32_le(cap);
            }
        }
    }

    fn get(b: &mut Bytes) -> Option<Self> {
        match get_u8(b)? {
            INFLATE_NONE => Some(InflateSpec::None),
            INFLATE_UNIFORM => Some(InflateSpec::Uniform(get_u32(b)?)),
            INFLATE_AUTO => Some(InflateSpec::Auto { cap: get_u32(b)? }),
            _ => None,
        }
    }
}

/// A client request. One request per frame; the server answers every
/// frame with exactly one [`Response`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Install a transaction system from a `ddlf_model::SystemSpec` JSON
    /// string and certify it at the requested inflation (an
    /// [`InflateSpec::None`] request adopts the server's default).
    /// Replaces any previously registered system.
    RegisterSystem {
        /// The spec JSON, exactly as `ddlf-audit` reads it from disk.
        spec_json: String,
        /// Requested per-template concurrency.
        inflate: InflateSpec,
    },
    /// Execute `count` instances of the template named `template`
    /// (`""` = round-robin over every registered template, like
    /// `ddlf-audit run`). Blocks until the run completes.
    Submit {
        /// Template name, or empty for all templates.
        template: String,
        /// Number of instances.
        count: u32,
    },
    /// Read the cumulative report of every submission so far
    /// ([`ddlf_engine::Engine::report_snapshot`]); runs nothing.
    Report,
    /// Stop accepting connections and exit the serve loop after
    /// replying.
    Shutdown,
    /// Read the server's live telemetry snapshot (phase-latency
    /// histograms, per-template outcome counters, gauges). Answered
    /// from the engine's lock-free telemetry handle **without taking
    /// the engine lock**, so it returns promptly even while a long
    /// `Submit` is running; runs nothing. Before any `RegisterSystem`
    /// the snapshot is legitimately all zeros (not an error).
    Stats,
    /// Run a **read-only transaction**: read every named entity (empty
    /// vector = the whole database) at one committed multiversion cut.
    /// Answered from the store's read-only snapshot path **without
    /// touching the engine lock**, so reads return promptly — and
    /// observe fresh committed cuts — even while a long `Submit` is
    /// running. Logs nothing to the WAL.
    ReadOnly {
        /// Entity names to read; empty reads every entity in schema
        /// order.
        entities: Vec<String>,
    },
}

const REQ_REGISTER: u8 = 1;
const REQ_SUBMIT: u8 = 2;
const REQ_REPORT: u8 = 3;
const REQ_SHUTDOWN: u8 = 4;
const REQ_STATS: u8 = 5;
const REQ_READ_ONLY: u8 = 6;

impl Request {
    /// Encodes to one protocol unit (to be carried in one frame).
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(16);
        match self {
            Request::RegisterSystem { spec_json, inflate } => {
                b.put_u8(REQ_REGISTER);
                inflate.put(&mut b);
                spec_json.put(&mut b);
            }
            Request::Submit { template, count } => {
                b.put_u8(REQ_SUBMIT);
                b.put_u32_le(*count);
                template.put(&mut b);
            }
            Request::Report => b.put_u8(REQ_REPORT),
            Request::Shutdown => b.put_u8(REQ_SHUTDOWN),
            Request::Stats => b.put_u8(REQ_STATS),
            Request::ReadOnly { entities } => {
                b.put_u8(REQ_READ_ONLY);
                entities.put(&mut b);
            }
        }
        b.freeze()
    }

    /// Decodes one protocol unit; `None` on any malformation (including
    /// trailing bytes).
    pub fn decode(mut buf: Bytes) -> Option<Request> {
        let b = &mut buf;
        let req = match get_u8(b)? {
            REQ_REGISTER => Request::RegisterSystem {
                inflate: Wire::get(b)?,
                spec_json: Wire::get(b)?,
            },
            REQ_SUBMIT => Request::Submit {
                count: get_u32(b)?,
                template: Wire::get(b)?,
            },
            REQ_REPORT => Request::Report,
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_STATS => Request::Stats,
            REQ_READ_ONLY => Request::ReadOnly {
                entities: Wire::get(b)?,
            },
            _ => return None,
        };
        finished(&buf, req)
    }
}

// ---- responses ---------------------------------------------------------

record! {
    /// One template's slot count in the certified admission plan.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PlanEntry {
        /// Template name.
        template: String,
        /// Certified concurrent slots; `None` = unbounded (Theorem 5).
        slots: Option<u64>,
    }
}

record! {
    /// The reply to a successful [`Request::RegisterSystem`]: the admission
    /// verdict and the certified plan, so the client knows up front which
    /// execution path (and concurrency ceiling) its submissions get.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Registered {
        /// Whether the no-detector path is admitted.
        certified: bool,
        /// Whether the certificate also guarantees serializability (not
        /// just deadlock-freedom).
        guarantees_safety: bool,
        /// Whether a requested inflation failed to certify and the plan was
        /// floored back to `k = 1`.
        floored: bool,
        /// Human rendering of the admission verdict.
        verdict: String,
        /// The certifier's rationale (certificate or rejection text).
        rationale: String,
        /// Per-template certified slots, template order.
        plan: Vec<PlanEntry>,
    }
}

impl Registered {
    /// Builds the reply from a freshly registered engine's registry.
    pub fn from_registry(reg: &TemplateRegistry) -> Self {
        let plan = reg
            .system()
            .iter()
            .map(|(t, txn)| PlanEntry {
                template: txn.name().to_string(),
                slots: reg.plan().slots_of(t).limit().map(|k| k as u64),
            })
            .collect();
        Registered {
            certified: reg.verdict().is_certified(),
            guarantees_safety: reg.verdict().guarantees_safety(),
            floored: reg.plan().floored,
            verdict: reg.verdict().to_string(),
            rationale: reg.plan().rationale.clone(),
            plan,
        }
    }

    /// A multi-line human rendering of the admission plan — the engine's
    /// own [`ddlf_engine::render_plan`], so `ddlf-audit run` and
    /// `ddlf-audit submit` print identical plans for the same system.
    pub fn render_plan(&self) -> String {
        let rows = self.plan.iter().map(|e| {
            let bounded = |k| Slots::Bounded(usize::try_from(k).unwrap_or(usize::MAX));
            (
                e.template.as_str(),
                e.slots.map_or(Slots::Unbounded, bounded),
            )
        });
        ddlf_engine::render_plan(self.floored, &self.rationale, rows)
    }
}

record! {
    /// Execution counters of one submission (or the cumulative snapshot),
    /// the wire projection of [`ddlf_engine::Report`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct RunStats {
        /// Instances submitted.
        instances: u64,
        /// Instances that ran to commit.
        committed: u64,
        /// Aborted (and retried) wait-die attempts; always 0 on the
        /// certified path.
        aborted_attempts: u64,
        /// Aborts that exposed a write (voids the audit).
        dirty_aborts: u64,
        /// Instances that exhausted their attempt budget.
        failed: u64,
        /// Reads performed under locks.
        reads: u64,
        /// Writes committed to the store.
        writes: u64,
        /// Wall-clock microseconds.
        wall_us: u64,
        /// Highest per-template multiprogramming level achieved.
        peak_inflight: u64,
        /// Lock/unlock events recorded.
        history_len: u64,
        /// The `D(S)` audit verdict (`None` = not auditable).
        serializable: Option<bool>,
    }
}

impl RunStats {
    /// Projects an engine report onto the wire.
    pub fn from_report(r: &Report) -> Self {
        RunStats {
            instances: r.instances as u64,
            committed: r.committed as u64,
            aborted_attempts: r.aborted_attempts as u64,
            dirty_aborts: r.dirty_aborts as u64,
            failed: r.failed.len() as u64,
            reads: r.reads,
            writes: r.writes,
            wall_us: u64::try_from(r.wall.as_micros()).unwrap_or(u64::MAX),
            peak_inflight: r.peak_inflight() as u64,
            history_len: r.history_len as u64,
            serializable: r.serializable,
        }
    }

    /// Whether every submitted instance committed.
    pub fn all_committed(&self) -> bool {
        self.committed == self.instances && self.failed == 0
    }

    /// One-line human summary: [`ddlf_engine::summary_line`], the clause
    /// `Report::summary` prints, minus the latency percentiles the wire
    /// does not carry.
    pub fn summary(&self) -> String {
        let txn_per_sec = if self.wall_us == 0 {
            0.0
        } else {
            self.committed as f64 / (self.wall_us as f64 / 1e6)
        };
        ddlf_engine::summary_line(
            self.committed,
            self.instances,
            self.aborted_attempts,
            txn_per_sec,
            None,
            self.peak_inflight,
            self.serializable,
        )
    }
}

record! {
    /// One phase-latency histogram digest in a [`StatsSnapshot`]: the
    /// counters a dashboard wants (count, mean via `sum/count`, tail
    /// percentiles) without shipping all 256 raw buckets over the wire.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct PhaseStat {
        /// Phase name (`ddlf_engine::Phase::name`, e.g. `"lock_wait"`).
        name: String,
        /// Samples recorded.
        count: u64,
        /// Sum of all samples, nanoseconds (exact; `sum / count` = mean).
        sum_ns: u64,
        /// Median latency, nanoseconds (bucket upper bound, ≤ 25% error).
        p50_ns: u64,
        /// 95th-percentile latency, nanoseconds.
        p95_ns: u64,
        /// 99th-percentile latency, nanoseconds.
        p99_ns: u64,
        /// Largest sample, nanoseconds (exact).
        max_ns: u64,
    }
}

impl PhaseStat {
    /// Digests a set of phase histograms: always all of them,
    /// [`Phase::ALL`] order, even at count 0.
    pub fn digest(phases: &PhaseSnapshot) -> Vec<PhaseStat> {
        Phase::ALL
            .iter()
            .map(|&p| {
                let h = phases.get(p);
                PhaseStat {
                    name: p.name().to_string(),
                    count: h.count,
                    sum_ns: h.sum,
                    p50_ns: h.p50(),
                    p95_ns: h.p95(),
                    p99_ns: h.p99(),
                    max_ns: h.max,
                }
            })
            .collect()
    }

    /// Mean sample in nanoseconds, or 0 when empty.
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

record! {
    /// One template's outcome counters in a [`StatsSnapshot`].
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct TemplateStat {
        /// Template name.
        name: String,
        /// Instances committed.
        committed: u64 => Counter,
        /// Attempts aborted (each wait-die retry counts once).
        aborted: u64 => Counter,
        /// Wait-die deaths.
        dies: u64 => Counter,
    }
}

record! {
    /// The reply to [`Request::Stats`]: the wire projection of
    /// `ddlf_telemetry::TelemetrySnapshot`, with each phase histogram
    /// digested to [`PhaseStat`] percentiles.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct StatsSnapshot {
        /// Microseconds since the server's telemetry handle was created.
        uptime_us: u64 => Micros,
        /// Instances currently admitted and executing.
        inflight: i64,
        /// Committed-transaction nodes in the streaming auditor's graph.
        auditor_nodes: u64,
        /// Conflict arcs in the streaming auditor's graph.
        auditor_arcs: u64,
        /// Bytes appended to WAL log files (payload + frame headers).
        wal_bytes: u64 => Counter,
        /// Lifecycle events currently held in the trace ring.
        trace_captured: u64,
        /// Trace events evicted because the ring was full.
        trace_dropped: u64 => Counter,
        /// Commit groups the WAL counted: one per fsync under
        /// `--wal-sync` (each covering every decision appended before it
        /// started), one per buffered `Commit` frame without it.
        group_flushes: u64 => Counter,
        /// Commit decisions the WAL wrote; `group_commits /
        /// group_flushes` is the mean group size (1 without sync).
        group_commits: u64 => Counter,
        /// Committed versions retained across all multiversion chains.
        chain_versions: u64,
        /// Longest per-entity version chain.
        chain_max_len: u64,
        /// The GC low-watermark of live read-only snapshots at the last
        /// truncation pass.
        chain_watermark: u64,
        /// Per-phase latency digests, [`ddlf_engine::Phase::ALL`] order
        /// (empty when the server runs with telemetry disabled).
        phases: Vec<PhaseStat>,
        /// Per-template outcome counters, template order (empty before the
        /// first `RegisterSystem`).
        templates: Vec<TemplateStat>,
    }
}

impl StatsSnapshot {
    /// Digests a live telemetry handle for the wire. A disabled handle
    /// digests to the all-zero default with no phase list, so clients
    /// can tell "telemetry off" from "telemetry on, nothing yet".
    pub fn from_telemetry(tel: &Telemetry) -> Self {
        if !tel.is_enabled() {
            return StatsSnapshot::default();
        }
        Self::from_snapshot(&tel.snapshot())
    }

    /// Digests an already-taken [`TelemetrySnapshot`]: the gauges as they
    /// are, every phase histogram as a [`PhaseStat::digest`] row.
    pub fn from_snapshot(s: &TelemetrySnapshot) -> Self {
        StatsSnapshot {
            uptime_us: s.uptime_us,
            inflight: s.inflight,
            auditor_nodes: s.auditor_nodes,
            auditor_arcs: s.auditor_arcs,
            wal_bytes: s.wal_bytes,
            trace_captured: s.trace_captured,
            trace_dropped: s.trace_dropped,
            group_flushes: s.group_size.count,
            group_commits: s.group_size.sum,
            chain_versions: s.chain_versions,
            chain_max_len: s.chain_max_len,
            chain_watermark: s.chain_watermark,
            phases: PhaseStat::digest(&s.phases),
            templates: s
                .templates
                .iter()
                .map(|t| TemplateStat {
                    name: t.name.clone(),
                    committed: t.committed,
                    aborted: t.aborted,
                    dies: t.dies,
                })
                .collect(),
        }
    }

    /// Total committed instances across all templates.
    pub fn committed(&self) -> u64 {
        self.templates.iter().map(|t| t.committed).sum()
    }
}

record! {
    /// One entity in a [`SnapshotReply`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SnapEntry {
        /// Entity name (spec order when the request read the whole
        /// database, request order otherwise).
        name: String,
        /// Commit timestamp of the version observed (0 = the initial
        /// seeded value).
        commit_ts: u64,
        /// Version counter of the observed value.
        version: u64,
        /// Integer payload; `None` when the committed payload is a byte
        /// string (the read-only path reports identity, not bytes).
        value: Option<u64>,
    }
}

record! {
    /// The reply to [`Request::ReadOnly`]: one committed multiversion cut.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SnapshotReply {
        /// The snapshot timestamp — every commit `≤ ts` is reflected, none
        /// after.
        ts: u64,
        /// One entry per entity read.
        entries: Vec<SnapEntry>,
    }
}

impl SnapshotReply {
    /// Sum of the integer payloads observed (conservation checks).
    pub fn sum_int(&self) -> u128 {
        self.entries
            .iter()
            .filter_map(|e| e.value)
            .map(u128::from)
            .sum()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "snapshot at ts {} | {} entities | Σint = {}",
            self.ts,
            self.entries.len(),
            self.sum_int()
        )
    }
}

/// Why the server rejected a request (typed, so clients can branch
/// without string matching). The discriminant is the wire byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorKind {
    /// The frame did not decode to a request.
    BadRequest = 1,
    /// Submit/Report before any `RegisterSystem`.
    NoSystem = 2,
    /// Submit named a template the registered system does not have.
    UnknownTemplate = 3,
    /// The spec JSON failed to parse or build.
    BadSpec = 4,
}

impl ErrorKind {
    fn from_tag(tag: u8) -> Option<Self> {
        use ErrorKind::*;
        [BadRequest, NoSystem, UnknownTemplate, BadSpec]
            .into_iter()
            .find(|&kind| kind as u8 == tag)
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ErrorKind::BadRequest => "bad request",
            ErrorKind::NoSystem => "no system registered",
            ErrorKind::UnknownTemplate => "unknown template",
            ErrorKind::BadSpec => "bad spec",
        })
    }
}

/// A server reply. Every request frame gets exactly one.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `RegisterSystem` succeeded: the verdict and admission plan.
    Registered(Registered),
    /// `Submit` ran to completion: that run's counters.
    Submitted(RunStats),
    /// `Report`: cumulative counters over every submission so far.
    Report(RunStats),
    /// `Shutdown` acknowledged; the server exits its accept loop.
    ShuttingDown,
    /// `Stats`: the live telemetry digest.
    Stats(StatsSnapshot),
    /// `ReadOnly`: one committed multiversion snapshot.
    Snapshot(SnapshotReply),
    /// The request was rejected.
    Error {
        /// Typed rejection cause.
        kind: ErrorKind,
        /// Human detail (e.g. the spec parse error).
        message: String,
    },
}

const RESP_REGISTERED: u8 = 1;
const RESP_SUBMITTED: u8 = 2;
const RESP_REPORT: u8 = 3;
const RESP_SHUTTING_DOWN: u8 = 4;
const RESP_ERROR: u8 = 5;
const RESP_STATS: u8 = 6;
const RESP_SNAPSHOT: u8 = 7;

fn tagged(b: &mut BytesMut, tag: u8, body: &impl Wire) {
    b.put_u8(tag);
    body.put(b);
}

impl Response {
    /// Encodes to one protocol unit (to be carried in one frame).
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(32);
        match self {
            Response::Registered(r) => tagged(&mut b, RESP_REGISTERED, r),
            Response::Submitted(stats) => tagged(&mut b, RESP_SUBMITTED, stats),
            Response::Report(stats) => tagged(&mut b, RESP_REPORT, stats),
            Response::ShuttingDown => b.put_u8(RESP_SHUTTING_DOWN),
            Response::Stats(stats) => tagged(&mut b, RESP_STATS, stats),
            Response::Snapshot(snap) => tagged(&mut b, RESP_SNAPSHOT, snap),
            Response::Error { kind, message } => {
                b.put_u8(RESP_ERROR);
                b.put_u8(*kind as u8);
                message.put(&mut b);
            }
        }
        b.freeze()
    }

    /// Decodes one protocol unit; `None` on any malformation (including
    /// trailing bytes).
    pub fn decode(mut buf: Bytes) -> Option<Response> {
        let b = &mut buf;
        let resp = match get_u8(b)? {
            RESP_REGISTERED => Response::Registered(Wire::get(b)?),
            RESP_SUBMITTED => Response::Submitted(Wire::get(b)?),
            RESP_REPORT => Response::Report(Wire::get(b)?),
            RESP_SHUTTING_DOWN => Response::ShuttingDown,
            RESP_STATS => Response::Stats(Wire::get(b)?),
            RESP_SNAPSHOT => Response::Snapshot(Wire::get(b)?),
            RESP_ERROR => Response::Error {
                kind: ErrorKind::from_tag(get_u8(b)?)?,
                message: Wire::get(b)?,
            },
            _ => return None,
        };
        finished(&buf, resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_requests_roundtrip() {
        for req in [Request::Report, Request::Shutdown, Request::Stats] {
            assert_eq!(Request::decode(req.encode()), Some(req));
        }
    }

    #[test]
    fn stats_roundtrip() {
        let stats = StatsSnapshot {
            uptime_us: 1_234_567,
            inflight: -1, // torn gauge read: decrement raced the snapshot
            auditor_nodes: 42,
            auditor_arcs: 99,
            wal_bytes: 1 << 30,
            trace_captured: 512,
            trace_dropped: 7,
            group_flushes: 125,
            group_commits: 4_000,
            chain_versions: 6_400,
            chain_max_len: 64,
            chain_watermark: 3_999,
            phases: vec![
                PhaseStat {
                    name: "lock_wait".into(),
                    count: 1000,
                    sum_ns: 5_000_000,
                    p50_ns: 4_000,
                    p95_ns: 20_000,
                    p99_ns: 80_000,
                    max_ns: 1_000_000,
                },
                PhaseStat::default(),
            ],
            templates: vec![TemplateStat {
                name: "transfer".into(),
                committed: 20_000,
                aborted: 3,
                dies: 3,
            }],
        };
        let resp = Response::Stats(stats);
        assert_eq!(Response::decode(resp.encode()), Some(resp));
    }

    #[test]
    fn empty_stats_roundtrip() {
        // The telemetry-disabled / pre-register shape.
        let resp = Response::Stats(StatsSnapshot::default());
        assert_eq!(Response::decode(resp.encode()), Some(resp));
    }

    #[test]
    fn stats_from_disabled_telemetry_is_default() {
        let got = StatsSnapshot::from_telemetry(&Telemetry::disabled());
        assert_eq!(got, StatsSnapshot::default());
    }

    #[test]
    fn stats_from_enabled_telemetry_names_all_phases() {
        let tel = Telemetry::new(ddlf_engine::TelemetryConfig::default());
        tel.record(Phase::Commit, std::time::Duration::from_micros(5));
        let got = StatsSnapshot::from_telemetry(&tel);
        assert_eq!(got.phases.len(), Phase::ALL.len());
        let commit = got.phases.iter().find(|p| p.name == "commit").unwrap();
        assert_eq!(commit.count, 1);
        assert!(commit.p99_ns >= 5_000);
        assert_eq!(commit.max_ns, 5_000);
    }

    #[test]
    fn hostile_stats_counts_rejected() {
        // A Stats reply claiming 4 billion phases on a short buffer.
        let mut b = BytesMut::new();
        b.put_u8(RESP_STATS);
        for _ in 0..12 {
            b.put_u64_le(0);
        }
        b.put_u32_le(u32::MAX);
        assert_eq!(Response::decode(b.freeze()), None);

        // Zero phases but a hostile template count.
        let mut b = BytesMut::new();
        b.put_u8(RESP_STATS);
        for _ in 0..12 {
            b.put_u64_le(0);
        }
        b.put_u32_le(0);
        b.put_u32_le(u32::MAX);
        assert_eq!(Response::decode(b.freeze()), None);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut enc: Vec<u8> = Request::Report.encode().as_ref().to_vec();
        enc.push(0);
        assert_eq!(Request::decode(Bytes::from(enc)), None);
    }

    #[test]
    fn unknown_tags_rejected() {
        assert_eq!(Request::decode(Bytes::from_static(&[0])), None);
        assert_eq!(Request::decode(Bytes::from_static(&[99])), None);
        assert_eq!(Response::decode(Bytes::from_static(&[0])), None);
        assert_eq!(Response::decode(Bytes::new()), None);
    }

    #[test]
    fn invalid_bool_byte_rejected() {
        // A Registered reply whose `certified` byte is 2.
        let mut b = BytesMut::new();
        b.put_u8(RESP_REGISTERED);
        b.put_u8(2);
        assert_eq!(Response::decode(b.freeze()), None);
    }

    #[test]
    fn hostile_plan_count_rejected() {
        let mut b = BytesMut::new();
        b.put_u8(RESP_REGISTERED);
        b.put_u8(1);
        b.put_u8(1);
        b.put_u8(0);
        put_str(&mut b, "verdict");
        put_str(&mut b, "rationale");
        b.put_u32_le(u32::MAX); // claims 4 billion plan entries
        assert_eq!(Response::decode(b.freeze()), None);
    }

    #[test]
    fn read_only_roundtrips() {
        for req in [
            Request::ReadOnly { entities: vec![] }, // empty = whole database
            Request::ReadOnly {
                entities: vec!["acct_b0_0".into(), "ledger_b1".into()],
            },
        ] {
            assert_eq!(Request::decode(req.encode()), Some(req));
        }
    }

    #[test]
    fn snapshot_roundtrips() {
        let resp = Response::Snapshot(SnapshotReply {
            ts: 42,
            entries: vec![
                SnapEntry {
                    name: "acct_b0_0".into(),
                    commit_ts: 42,
                    version: 7,
                    value: Some(295),
                },
                SnapEntry {
                    name: "blob".into(),
                    commit_ts: 3,
                    version: 1,
                    value: None, // bytes payload: opaque to the int view
                },
            ],
        });
        assert_eq!(Response::decode(resp.encode()), Some(resp));

        let empty = Response::Snapshot(SnapshotReply {
            ts: 0,
            entries: vec![],
        });
        assert_eq!(Response::decode(empty.encode()), Some(empty));
    }

    #[test]
    fn snapshot_sums_int_values() {
        let snap = SnapshotReply {
            ts: 9,
            entries: vec![
                SnapEntry {
                    name: "a".into(),
                    commit_ts: 9,
                    version: 2,
                    value: Some(u64::MAX),
                },
                SnapEntry {
                    name: "b".into(),
                    commit_ts: 1,
                    version: 1,
                    value: Some(1),
                },
                SnapEntry {
                    name: "c".into(),
                    commit_ts: 0,
                    version: 0,
                    value: None,
                },
            ],
        };
        // u128 accumulation: no wrap even at u64::MAX per entry.
        assert_eq!(snap.sum_int(), u128::from(u64::MAX) + 1);
    }

    #[test]
    fn hostile_read_only_count_rejected() {
        // A ReadOnly request claiming 4 billion entity names.
        let mut b = BytesMut::new();
        b.put_u8(REQ_READ_ONLY);
        b.put_u32_le(u32::MAX);
        assert_eq!(Request::decode(b.freeze()), None);
    }

    #[test]
    fn hostile_snapshot_rejected() {
        // A Snapshot reply claiming 4 billion entries on a short buffer.
        let mut b = BytesMut::new();
        b.put_u8(RESP_SNAPSHOT);
        b.put_u64_le(1);
        b.put_u32_le(u32::MAX);
        assert_eq!(Response::decode(b.freeze()), None);

        // A value tag outside {0, 1}.
        let mut b = BytesMut::new();
        b.put_u8(RESP_SNAPSHOT);
        b.put_u64_le(1);
        b.put_u32_le(1);
        put_str(&mut b, "acct");
        b.put_u64_le(1); // commit_ts
        b.put_u64_le(1); // version
        b.put_u8(2); // invalid value tag
        assert_eq!(Response::decode(b.freeze()), None);
    }
}
