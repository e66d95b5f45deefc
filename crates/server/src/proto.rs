//! The wire protocol: request/response enums with a compact binary
//! encoding, following the `ddlf_sim::msg` conventions (1-byte tag,
//! little-endian fixed-width integers, length-prefixed UTF-8 strings).
//!
//! A protocol unit is one encoded message carried in one
//! [`ddlf_sim::msg::frame`] frame. Decoding is strict: unknown tags,
//! short buffers, invalid enum bytes, non-UTF-8 strings, and trailing
//! garbage all decode to `None`, so a malformed peer can never produce a
//! misread message — only a rejected one.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use ddlf_engine::{Phase, Report, Telemetry, TelemetrySnapshot, TemplateRegistry};
// The checked readers/writers (bounds-checked little-endian integers,
// length-prefixed strings) are shared with the engine's WAL record
// format — one hardened implementation for every msg-convention codec.
use ddlf_sim::msg::codec::{finished, get_bool, get_str, get_u32, get_u64, get_u8, put_str};
use std::fmt;

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

impl InflateSpec {
    fn encode_into(self, b: &mut BytesMut) {
        match self {
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

    fn decode_from(b: &mut Bytes) -> Option<Self> {
        match get_u8(b)? {
            INFLATE_NONE => Some(InflateSpec::None),
            INFLATE_UNIFORM => Some(InflateSpec::Uniform(get_u32(b)?)),
            INFLATE_AUTO => Some(InflateSpec::Auto { cap: get_u32(b)? }),
            _ => None,
        }
    }
}

impl fmt::Display for InflateSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InflateSpec::None => write!(f, "none"),
            InflateSpec::Uniform(k) => write!(f, "k = {k}"),
            InflateSpec::Auto { cap } => write!(f, "auto (cap {cap})"),
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
                inflate.encode_into(&mut b);
                put_str(&mut b, spec_json);
            }
            Request::Submit { template, count } => {
                b.put_u8(REQ_SUBMIT);
                b.put_u32_le(*count);
                put_str(&mut b, template);
            }
            Request::Report => b.put_u8(REQ_REPORT),
            Request::Shutdown => b.put_u8(REQ_SHUTDOWN),
            Request::Stats => b.put_u8(REQ_STATS),
            Request::ReadOnly { entities } => {
                b.put_u8(REQ_READ_ONLY);
                b.put_u32_le(u32::try_from(entities.len()).expect("entity list fits a frame"));
                for name in entities {
                    put_str(&mut b, name);
                }
            }
        }
        b.freeze()
    }

    /// Decodes one protocol unit; `None` on any malformation (including
    /// trailing bytes).
    pub fn decode(mut buf: Bytes) -> Option<Request> {
        let tag = get_u8(&mut buf)?;
        let req = match tag {
            REQ_REGISTER => Request::RegisterSystem {
                inflate: InflateSpec::decode_from(&mut buf)?,
                spec_json: get_str(&mut buf)?,
            },
            REQ_SUBMIT => Request::Submit {
                count: get_u32(&mut buf)?,
                template: get_str(&mut buf)?,
            },
            REQ_REPORT => Request::Report,
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_STATS => Request::Stats,
            REQ_READ_ONLY => {
                let n = get_u32(&mut buf)? as usize;
                // Each name is ≥ 4 bytes (its length prefix); bounding
                // up front keeps a hostile count from pre-allocating
                // unboundedly.
                if buf.remaining() < n.checked_mul(4)? {
                    return None;
                }
                let mut entities = Vec::with_capacity(n);
                for _ in 0..n {
                    entities.push(get_str(&mut buf)?);
                }
                Request::ReadOnly { entities }
            }
            _ => return None,
        };
        finished(&buf, req)
    }
}

// ---- responses ---------------------------------------------------------

/// One template's slot count in the certified admission plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanEntry {
    /// Template name.
    pub template: String,
    /// Certified concurrent slots; `None` = unbounded (Theorem 5).
    pub slots: Option<u64>,
}

/// The reply to a successful [`Request::RegisterSystem`]: the admission
/// verdict and the certified plan, so the client knows up front which
/// execution path (and concurrency ceiling) its submissions get.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registered {
    /// Whether the no-detector path is admitted.
    pub certified: bool,
    /// Whether the certificate also guarantees serializability (not
    /// just deadlock-freedom).
    pub guarantees_safety: bool,
    /// Whether a requested inflation failed to certify and the plan was
    /// floored back to `k = 1`.
    pub floored: bool,
    /// Human rendering of the admission verdict.
    pub verdict: String,
    /// The certifier's rationale (certificate or rejection text).
    pub rationale: String,
    /// Per-template certified slots, template order.
    pub plan: Vec<PlanEntry>,
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

    /// A multi-line human rendering of the admission plan, matching
    /// `AdmissionPlan::render`'s server-side format so `ddlf-audit run`
    /// and `ddlf-audit submit` print identical plans for the same
    /// system.
    pub fn render_plan(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "admission plan{}: {}",
            if self.floored {
                " (floored to k=1)"
            } else {
                ""
            },
            self.rationale
        );
        for entry in &self.plan {
            let _ = match entry.slots {
                Some(k) => writeln!(out, "  {:<24} k = {k}", entry.template),
                None => writeln!(out, "  {:<24} k = ∞", entry.template),
            };
        }
        out
    }
}

/// Execution counters of one submission (or the cumulative snapshot),
/// the wire projection of [`ddlf_engine::Report`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Instances submitted.
    pub instances: u64,
    /// Instances that ran to commit.
    pub committed: u64,
    /// Aborted (and retried) wait-die attempts; always 0 on the
    /// certified path.
    pub aborted_attempts: u64,
    /// Aborts that exposed a write (voids the audit).
    pub dirty_aborts: u64,
    /// Instances that exhausted their attempt budget.
    pub failed: u64,
    /// Reads performed under locks.
    pub reads: u64,
    /// Writes committed to the store.
    pub writes: u64,
    /// Wall-clock microseconds.
    pub wall_us: u64,
    /// Highest per-template multiprogramming level achieved.
    pub peak_inflight: u64,
    /// Lock/unlock events recorded.
    pub history_len: u64,
    /// The `D(S)` audit verdict (`None` = not auditable).
    pub serializable: Option<bool>,
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

    /// One-line human summary (client-side mirror of
    /// `Report::summary`).
    pub fn summary(&self) -> String {
        format!(
            "committed {}/{} aborts {} | {:.0} txn/s | peak k {} | serializable {:?}",
            self.committed,
            self.instances,
            self.aborted_attempts,
            if self.wall_us == 0 {
                0.0
            } else {
                self.committed as f64 / (self.wall_us as f64 / 1e6)
            },
            self.peak_inflight,
            self.serializable,
        )
    }

    fn encode_into(&self, b: &mut BytesMut) {
        for v in [
            self.instances,
            self.committed,
            self.aborted_attempts,
            self.dirty_aborts,
            self.failed,
            self.reads,
            self.writes,
            self.wall_us,
            self.peak_inflight,
            self.history_len,
        ] {
            b.put_u64_le(v);
        }
        b.put_u8(match self.serializable {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
    }

    fn decode_from(b: &mut Bytes) -> Option<Self> {
        let mut s = RunStats {
            instances: get_u64(b)?,
            committed: get_u64(b)?,
            aborted_attempts: get_u64(b)?,
            dirty_aborts: get_u64(b)?,
            failed: get_u64(b)?,
            reads: get_u64(b)?,
            writes: get_u64(b)?,
            wall_us: get_u64(b)?,
            peak_inflight: get_u64(b)?,
            history_len: get_u64(b)?,
            serializable: None,
        };
        s.serializable = match get_u8(b)? {
            0 => None,
            1 => Some(false),
            2 => Some(true),
            _ => return None,
        };
        Some(s)
    }
}

/// One phase-latency histogram digest in a [`StatsSnapshot`]: the
/// counters a dashboard wants (count, mean via `sum/count`, tail
/// percentiles) without shipping all 256 raw buckets over the wire.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseStat {
    /// Phase name (`ddlf_engine::Phase::name`, e.g. `"lock_wait"`).
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, nanoseconds (exact; `sum / count` = mean).
    pub sum_ns: u64,
    /// Median latency, nanoseconds (bucket upper bound, ≤ 25% error).
    pub p50_ns: u64,
    /// 95th-percentile latency, nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile latency, nanoseconds.
    pub p99_ns: u64,
    /// Largest sample, nanoseconds (exact).
    pub max_ns: u64,
}

impl PhaseStat {
    fn encode_into(&self, b: &mut BytesMut) {
        put_str(b, &self.name);
        for v in [
            self.count,
            self.sum_ns,
            self.p50_ns,
            self.p95_ns,
            self.p99_ns,
            self.max_ns,
        ] {
            b.put_u64_le(v);
        }
    }

    fn decode_from(b: &mut Bytes) -> Option<Self> {
        Some(PhaseStat {
            name: get_str(b)?,
            count: get_u64(b)?,
            sum_ns: get_u64(b)?,
            p50_ns: get_u64(b)?,
            p95_ns: get_u64(b)?,
            p99_ns: get_u64(b)?,
            max_ns: get_u64(b)?,
        })
    }
}

/// One template's outcome counters in a [`StatsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TemplateStat {
    /// Template name.
    pub name: String,
    /// Instances committed.
    pub committed: u64,
    /// Attempts aborted (each wait-die retry counts once).
    pub aborted: u64,
    /// Wound-wait wounds (sim-only; 0 on the engine path).
    pub wounds: u64,
    /// Wait-die deaths.
    pub dies: u64,
}

impl TemplateStat {
    fn encode_into(&self, b: &mut BytesMut) {
        put_str(b, &self.name);
        for v in [self.committed, self.aborted, self.wounds, self.dies] {
            b.put_u64_le(v);
        }
    }

    fn decode_from(b: &mut Bytes) -> Option<Self> {
        Some(TemplateStat {
            name: get_str(b)?,
            committed: get_u64(b)?,
            aborted: get_u64(b)?,
            wounds: get_u64(b)?,
            dies: get_u64(b)?,
        })
    }
}

/// The reply to [`Request::Stats`]: the wire projection of
/// `ddlf_telemetry::TelemetrySnapshot`, with each phase histogram
/// digested to [`PhaseStat`] percentiles.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Microseconds since the server's telemetry handle was created.
    pub uptime_us: u64,
    /// Instances currently admitted and executing.
    pub inflight: i64,
    /// Committed-transaction nodes in the streaming auditor's graph.
    pub auditor_nodes: u64,
    /// Conflict arcs in the streaming auditor's graph.
    pub auditor_arcs: u64,
    /// Bytes appended to WAL log files (payload + frame headers).
    pub wal_bytes: u64,
    /// Lifecycle events currently held in the trace ring.
    pub trace_captured: u64,
    /// Trace events evicted because the ring was full.
    pub trace_dropped: u64,
    /// Decision-log flush groups written by the WAL's group committer
    /// (each is one data-log flush and at most one fsync).
    pub group_flushes: u64,
    /// Commit decisions written through the group committer;
    /// `group_commits / group_flushes` is the mean group size.
    pub group_commits: u64,
    /// Committed versions retained across all multiversion chains.
    pub chain_versions: u64,
    /// Longest per-entity version chain.
    pub chain_max_len: u64,
    /// The GC low-watermark of live read-only snapshots at the last
    /// truncation pass.
    pub chain_watermark: u64,
    /// Per-phase latency digests, [`ddlf_engine::Phase::ALL`] order
    /// (empty when the server runs with telemetry disabled).
    pub phases: Vec<PhaseStat>,
    /// Per-template outcome counters, template order (empty before the
    /// first `RegisterSystem`).
    pub templates: Vec<TemplateStat>,
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

    /// Digests an already-taken [`TelemetrySnapshot`]. Always emits all
    /// seven phase digests, [`Phase::ALL`] order, even at count 0.
    pub fn from_snapshot(s: &TelemetrySnapshot) -> Self {
        let phases = Phase::ALL
            .iter()
            .map(|&p| {
                let h = s.phases.get(p);
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
            .collect();
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
            phases,
            templates: s
                .templates
                .iter()
                .map(|t| TemplateStat {
                    name: t.name.clone(),
                    committed: t.committed,
                    aborted: t.aborted,
                    wounds: t.wounds,
                    dies: t.dies,
                })
                .collect(),
        }
    }

    /// Total committed instances across all templates.
    pub fn committed(&self) -> u64 {
        self.templates.iter().map(|t| t.committed).sum()
    }

    fn encode_into(&self, b: &mut BytesMut) {
        b.put_u64_le(self.uptime_us);
        b.put_u64_le(self.inflight as u64);
        for v in [
            self.auditor_nodes,
            self.auditor_arcs,
            self.wal_bytes,
            self.trace_captured,
            self.trace_dropped,
            self.group_flushes,
            self.group_commits,
            self.chain_versions,
            self.chain_max_len,
            self.chain_watermark,
        ] {
            b.put_u64_le(v);
        }
        b.put_u32_le(u32::try_from(self.phases.len()).expect("phase list fits a frame"));
        for p in &self.phases {
            p.encode_into(b);
        }
        b.put_u32_le(u32::try_from(self.templates.len()).expect("template list fits a frame"));
        for t in &self.templates {
            t.encode_into(b);
        }
    }

    fn decode_from(b: &mut Bytes) -> Option<Self> {
        let uptime_us = get_u64(b)?;
        let inflight = get_u64(b)? as i64;
        let auditor_nodes = get_u64(b)?;
        let auditor_arcs = get_u64(b)?;
        let wal_bytes = get_u64(b)?;
        let trace_captured = get_u64(b)?;
        let trace_dropped = get_u64(b)?;
        let group_flushes = get_u64(b)?;
        let group_commits = get_u64(b)?;
        let chain_versions = get_u64(b)?;
        let chain_max_len = get_u64(b)?;
        let chain_watermark = get_u64(b)?;
        let np = get_u32(b)? as usize;
        // A PhaseStat is ≥ 52 bytes (4-byte name length + six u64s);
        // bounding up front keeps a hostile count from pre-allocating
        // unboundedly. Same below for the ≥ 36-byte TemplateStat.
        if b.remaining() < np.checked_mul(52)? {
            return None;
        }
        let mut phases = Vec::with_capacity(np);
        for _ in 0..np {
            phases.push(PhaseStat::decode_from(b)?);
        }
        let nt = get_u32(b)? as usize;
        if b.remaining() < nt.checked_mul(36)? {
            return None;
        }
        let mut templates = Vec::with_capacity(nt);
        for _ in 0..nt {
            templates.push(TemplateStat::decode_from(b)?);
        }
        Some(StatsSnapshot {
            uptime_us,
            inflight,
            auditor_nodes,
            auditor_arcs,
            wal_bytes,
            trace_captured,
            trace_dropped,
            group_flushes,
            group_commits,
            chain_versions,
            chain_max_len,
            chain_watermark,
            phases,
            templates,
        })
    }
}

/// One entity in a [`SnapshotReply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapEntry {
    /// Entity name (spec order when the request read the whole
    /// database, request order otherwise).
    pub name: String,
    /// Commit timestamp of the version observed (0 = the initial
    /// seeded value).
    pub commit_ts: u64,
    /// Version counter of the observed value.
    pub version: u64,
    /// Integer payload; `None` when the committed payload is a byte
    /// string (the read-only path reports identity, not bytes).
    pub value: Option<u64>,
}

/// The reply to [`Request::ReadOnly`]: one committed multiversion cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotReply {
    /// The snapshot timestamp — every commit `≤ ts` is reflected, none
    /// after.
    pub ts: u64,
    /// One entry per entity read.
    pub entries: Vec<SnapEntry>,
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

    fn encode_into(&self, b: &mut BytesMut) {
        b.put_u64_le(self.ts);
        b.put_u32_le(u32::try_from(self.entries.len()).expect("entry list fits a frame"));
        for e in &self.entries {
            put_str(b, &e.name);
            b.put_u64_le(e.commit_ts);
            b.put_u64_le(e.version);
            match e.value {
                None => b.put_u8(0),
                Some(v) => {
                    b.put_u8(1);
                    b.put_u64_le(v);
                }
            }
        }
    }

    fn decode_from(b: &mut Bytes) -> Option<Self> {
        let ts = get_u64(b)?;
        let n = get_u32(b)? as usize;
        // Each entry is ≥ 21 bytes (4-byte name length, two u64s, one
        // value tag); bounding up front keeps a hostile count from
        // pre-allocating unboundedly.
        if b.remaining() < n.checked_mul(21)? {
            return None;
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let name = get_str(b)?;
            let commit_ts = get_u64(b)?;
            let version = get_u64(b)?;
            let value = match get_u8(b)? {
                0 => None,
                1 => Some(get_u64(b)?),
                _ => return None,
            };
            entries.push(SnapEntry {
                name,
                commit_ts,
                version,
                value,
            });
        }
        Some(SnapshotReply { ts, entries })
    }
}

/// Why the server rejected a request (typed, so clients can branch
/// without string matching).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The frame did not decode to a request.
    BadRequest,
    /// Submit/Report before any `RegisterSystem`.
    NoSystem,
    /// Submit named a template the registered system does not have.
    UnknownTemplate,
    /// The spec JSON failed to parse or build.
    BadSpec,
}

const ERR_BAD_REQUEST: u8 = 1;
const ERR_NO_SYSTEM: u8 = 2;
const ERR_UNKNOWN_TEMPLATE: u8 = 3;
const ERR_BAD_SPEC: u8 = 4;

impl ErrorKind {
    fn to_tag(self) -> u8 {
        match self {
            ErrorKind::BadRequest => ERR_BAD_REQUEST,
            ErrorKind::NoSystem => ERR_NO_SYSTEM,
            ErrorKind::UnknownTemplate => ERR_UNKNOWN_TEMPLATE,
            ErrorKind::BadSpec => ERR_BAD_SPEC,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            ERR_BAD_REQUEST => ErrorKind::BadRequest,
            ERR_NO_SYSTEM => ErrorKind::NoSystem,
            ERR_UNKNOWN_TEMPLATE => ErrorKind::UnknownTemplate,
            ERR_BAD_SPEC => ErrorKind::BadSpec,
            _ => return None,
        })
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

const SLOTS_UNBOUNDED: u8 = 0;
const SLOTS_BOUNDED: u8 = 1;

impl Response {
    /// Encodes to one protocol unit (to be carried in one frame).
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(32);
        match self {
            Response::Registered(r) => {
                b.put_u8(RESP_REGISTERED);
                b.put_u8(u8::from(r.certified));
                b.put_u8(u8::from(r.guarantees_safety));
                b.put_u8(u8::from(r.floored));
                put_str(&mut b, &r.verdict);
                put_str(&mut b, &r.rationale);
                b.put_u32_le(u32::try_from(r.plan.len()).expect("plan fits a frame"));
                for entry in &r.plan {
                    put_str(&mut b, &entry.template);
                    match entry.slots {
                        None => b.put_u8(SLOTS_UNBOUNDED),
                        Some(k) => {
                            b.put_u8(SLOTS_BOUNDED);
                            b.put_u64_le(k);
                        }
                    }
                }
            }
            Response::Submitted(stats) => {
                b.put_u8(RESP_SUBMITTED);
                stats.encode_into(&mut b);
            }
            Response::Report(stats) => {
                b.put_u8(RESP_REPORT);
                stats.encode_into(&mut b);
            }
            Response::ShuttingDown => b.put_u8(RESP_SHUTTING_DOWN),
            Response::Stats(stats) => {
                b.put_u8(RESP_STATS);
                stats.encode_into(&mut b);
            }
            Response::Snapshot(snap) => {
                b.put_u8(RESP_SNAPSHOT);
                snap.encode_into(&mut b);
            }
            Response::Error { kind, message } => {
                b.put_u8(RESP_ERROR);
                b.put_u8(kind.to_tag());
                put_str(&mut b, message);
            }
        }
        b.freeze()
    }

    /// Decodes one protocol unit; `None` on any malformation (including
    /// trailing bytes).
    pub fn decode(mut buf: Bytes) -> Option<Response> {
        let tag = get_u8(&mut buf)?;
        let resp = match tag {
            RESP_REGISTERED => {
                let certified = get_bool(&mut buf)?;
                let guarantees_safety = get_bool(&mut buf)?;
                let floored = get_bool(&mut buf)?;
                let verdict = get_str(&mut buf)?;
                let rationale = get_str(&mut buf)?;
                let n = get_u32(&mut buf)? as usize;
                // Each entry is ≥ 5 bytes; bounding up front keeps a
                // hostile count from pre-allocating unboundedly.
                if buf.remaining() < n.checked_mul(5)? {
                    return None;
                }
                let mut plan = Vec::with_capacity(n);
                for _ in 0..n {
                    let template = get_str(&mut buf)?;
                    let slots = match get_u8(&mut buf)? {
                        SLOTS_UNBOUNDED => None,
                        SLOTS_BOUNDED => Some(get_u64(&mut buf)?),
                        _ => return None,
                    };
                    plan.push(PlanEntry { template, slots });
                }
                Response::Registered(Registered {
                    certified,
                    guarantees_safety,
                    floored,
                    verdict,
                    rationale,
                    plan,
                })
            }
            RESP_SUBMITTED => Response::Submitted(RunStats::decode_from(&mut buf)?),
            RESP_REPORT => Response::Report(RunStats::decode_from(&mut buf)?),
            RESP_SHUTTING_DOWN => Response::ShuttingDown,
            RESP_STATS => Response::Stats(StatsSnapshot::decode_from(&mut buf)?),
            RESP_SNAPSHOT => Response::Snapshot(SnapshotReply::decode_from(&mut buf)?),
            RESP_ERROR => Response::Error {
                kind: ErrorKind::from_tag(get_u8(&mut buf)?)?,
                message: get_str(&mut buf)?,
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
                wounds: 0,
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
