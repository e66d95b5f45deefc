//! # ddlf-cli — audit locked transaction systems from the command line
//!
//! The `ddlf-audit` binary reads a [`ddlf_model::SystemSpec`] JSON file
//! and runs the paper's analyses on it (`certify`, `deadlock`,
//! `explore`, `simulate`, `dot`), executes it on the engine (`run`,
//! `recover`), or talks to a wire server (`serve`, `submit`, `stats`,
//! `read`). Running it with no arguments prints the usage — every verb
//! with every flag it takes, generated from the one flag table in
//! `flags.rs`; README's "Engine flags" table explains the set `run` and
//! `serve` share.
//!
//! `run` executes the system on the `ddlf-engine` key-value store:
//! certified systems take the no-detector path, uncertified ones fall
//! back to wait-die over their two-phase closure. `--inflate k` asks for
//! `k` concurrent instances per template (certified safe up front, else
//! floored to 1); `--inflate auto` searches for the largest uniform k
//! certified safe, up to the worker count. The admission plan is printed either way. The exit code is the
//! verdict: nonzero unless every instance committed **and** the committed
//! history is serializable (by the theorem behind the plan in release
//! builds, by the `D(S)` oracle in debug builds). `submit` holds a running `serve` to the same contract
//! over TCP, `recover` a crashed run's write-ahead log.
//!
//! `explore` systematically enumerates the interleavings of the spec
//! (optionally `--txns N` round-robin instances of it) with DFS +
//! sleep-set pruning, validates every complete schedule with the batch
//! `D(S)` audit, and replays each counterexample through the engine's
//! store and wait-die path to confirm it reproduces. Exit codes are the
//! CI contract: 0 = pruned space exhausted with no counterexample, 1 =
//! counterexample found (`--trace-out` writes it as JSON lines and the
//! path is printed), 2 = budget ran out or the replay disagreed.
//! `--expect-counterexample` flips 0/1 — the anomaly-fixture mode, where
//! *failing to find* the anomaly is the regression.
//!
//! `run` and `serve` record phase-latency histograms and per-template
//! outcome counters by default (`ddlf-telemetry`; `--no-telemetry`
//! turns them off, `--trace-sample N` additionally traces one instance
//! lifecycle in N); `stats` reads a running server's live digest.
//!
//! The command logic lives in this library crate so it is unit-testable:
//! [`invoke`] is the whole program but for reading `argv`, printing and
//! exiting, which is all `main.rs` does. Each verb's function documents
//! its own contract.

#![warn(missing_docs)]

mod flags;
mod render;

pub use flags::parse_args;
pub use render::report_json;

use ddlf_core::{certify_safe_and_deadlock_free, Certificate, CertifyOptions, Explorer};
use ddlf_engine::{EngineConfig, Telemetry, TelemetryConfig};
use ddlf_model::{SystemSpec, TransactionSystem};
use ddlf_server::{Client, InflateSpec, ServeConfig, Server};
use ddlf_sim::{DeadlockPolicy, SimConfig};
use render::{jarr, jf, jobj, jopt, js, json_line, ju};
use serde_json::Value;
use std::fmt::Write as _;
use std::time::Duration;

/// The engine flags `run` and `serve` share — the one set that builds
/// an [`EngineConfig`], for `run`, `serve` and `serve`'s recovered
/// engine alike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineFlags {
    /// Threads per run (per submission run, for `serve`), the thread
    /// that submits it included: it runs one job beside at most
    /// `threads − 1` pooled workers.
    pub threads: usize,
    /// Requested per-template concurrency, certified up front
    /// ([`InflateSpec::None`]: not given); for `serve`, the default
    /// applied when a registration requests none.
    pub inflate: InflateSpec,
    /// Busy CPU time per held lock in microseconds: the holding thread
    /// spins, not sleeps, for this long after each grant (widens
    /// contention windows so fallback runs really exercise aborts).
    pub work_us: u64,
    /// Write-ahead log directory (rotated at engine creation). `serve`
    /// first recovers a WAL it finds there and starts with the replayed
    /// engine.
    pub wal: Option<String>,
    /// Fsync the WAL before a commit is acknowledged — one fsync covers
    /// every decision appended before it started, and their data
    /// (durable against power loss; the `fsync` phase histogram has one
    /// sample per fsync).
    pub wal_sync: bool,
    /// Admit and timestamp instances in chunks of this size: one
    /// `SlotGate` acquisition per template per chunk and one shared
    /// critical section per chunk (1 = per-instance admission, `run`'s
    /// default; `serve` defaults to 16 to amortize the wire path's
    /// per-instance overhead).
    pub admission_batch: usize,
    /// Run with telemetry disabled (histograms are on by default: they
    /// feed `run --json`'s phases and the `stats` verb's live digest).
    pub no_telemetry: bool,
}

/// `--threads`' default for `run` and `serve`, and `certify --inflate
/// auto`'s search cap.
const DEFAULT_THREADS: usize = 4;

impl EngineFlags {
    /// The flags' defaults; `run` and `serve` differ in
    /// `admission_batch` only.
    pub fn new(admission_batch: usize) -> Self {
        EngineFlags {
            threads: DEFAULT_THREADS,
            inflate: InflateSpec::None,
            work_us: 0,
            wal: None,
            wal_sync: false,
            admission_batch,
            no_telemetry: false,
        }
    }

    /// The engine configuration these flags ask for, recording into
    /// `telemetry` — the one place `run`, `serve` and `serve`'s
    /// recovered engine get theirs.
    fn config(&self, telemetry: Telemetry) -> EngineConfig {
        EngineConfig {
            threads: self.threads.max(1),
            work: Duration::from_micros(self.work_us),
            wal_dir: self.wal.as_ref().map(std::path::PathBuf::from),
            wal_sync: self.wal_sync,
            admission_batch: self.admission_batch.max(1),
            telemetry,
            ..Default::default()
        }
    }

    /// The telemetry handle to record into: histograms on unless
    /// `--no-telemetry`, tracing at the requested sample rate.
    fn telemetry(&self, trace_sample: u32) -> Telemetry {
        if self.no_telemetry {
            return Telemetry::disabled();
        }
        Telemetry::new(TelemetryConfig { trace_sample })
    }
}

/// A parsed CLI invocation: one variant per verb, one field per
/// argument (the usage lists each verb's flags).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `certify <spec>`
    Certify {
        /// Path to the spec JSON.
        spec: String,
        /// Certify this per-template concurrency instead of the system
        /// as written, and print the admission plan it would be granted
        /// ([`InflateSpec::None`]: not given).
        inflate: InflateSpec,
        /// Emit the admission plan as one JSON object on stdout.
        json: bool,
    },
    /// `deadlock <spec>`
    Deadlock {
        /// Path to the spec JSON.
        spec: String,
    },
    /// `explore <spec>`
    Explore {
        /// Path to the spec JSON.
        spec: String,
        /// Explore this many instances (round-robin copies of the spec's
        /// transactions, renamed `name#i`). Default: the system exactly
        /// as written.
        txns: Option<usize>,
        /// Step budget for the search; exceeding it exits 2
        /// (inconclusive), never 0.
        budget: u64,
        /// Permutes the order sibling steps are tried (0 = canonical).
        /// The explored space is identical for every seed.
        seed: u64,
        /// Emit the outcome as one JSON object on stdout.
        json: bool,
        /// Invert the exit-code contract: succeed (0) iff a
        /// counterexample is found — the anomaly fixtures' CI mode.
        expect_counterexample: bool,
        /// Append each counterexample as one JSON line to this file
        /// (parent directories are created).
        trace_out: Option<String>,
        /// Disable sleep-set pruning: enumerate every interleaving.
        no_prune: bool,
        /// Skip replaying counterexamples through the engine store.
        no_replay: bool,
    },
    /// `simulate <spec>`
    Simulate {
        /// Path to the spec JSON.
        spec: String,
        /// Policy name.
        policy: String,
        /// Number of seeds to run.
        seeds: u64,
    },
    /// `run <spec>`
    Run {
        /// Path to the spec JSON.
        spec: String,
        /// Transaction instances to execute.
        txns: usize,
        /// The engine flags.
        engine: EngineFlags,
        /// Run wait-die even if the system certifies.
        force_fallback: bool,
        /// Emit the full report as one JSON object on stdout instead of
        /// the human rendering.
        json: bool,
        /// Trace one instance lifecycle in every N (0 = tracing off).
        trace_sample: u32,
        /// Write the captured trace as JSON lines to this file.
        trace_out: Option<String>,
        /// Concurrent read-only scanner threads: each loops full-store
        /// snapshot reads on the read-only multiversion path while the
        /// writers run, asserting the observed timestamps never run
        /// backwards. Reader throughput is reported alongside the run.
        readers: usize,
    },
    /// `recover <wal-dir>`
    Recover {
        /// The WAL directory to replay.
        dir: String,
        /// Fail unless the recovered store's Σint equals this
        /// (conservation check for transfer workloads).
        expect_total: Option<u128>,
        /// Emit the recovery report as one JSON object on stdout.
        json: bool,
    },
    /// `dot <spec>`
    Dot {
        /// Path to the spec JSON.
        spec: String,
    },
    /// `serve <addr>`
    Serve {
        /// Address to bind (e.g. `127.0.0.1:7471`, or port `0` for
        /// ephemeral).
        addr: String,
        /// The engine flags, applied to every registered engine.
        engine: EngineFlags,
    },
    /// `submit <addr> <spec>`
    Submit {
        /// Address of a running `ddlf-audit serve`.
        addr: String,
        /// Path to the spec JSON to register.
        spec: String,
        /// Transaction instances to execute over the wire.
        txns: usize,
        /// Submit only this template (default: round-robin over all).
        template: Option<String>,
        /// Requested per-template concurrency, certified by the server
        /// ([`InflateSpec::None`]: the server's default).
        inflate: InflateSpec,
        /// Fail the exit code if any attempt aborted (the certified
        /// path's zero-abort promise, asserted end to end).
        expect_zero_aborts: bool,
        /// Send `Shutdown` after reporting, stopping the server.
        shutdown: bool,
    },
    /// `lockgraph`
    Lockgraph {
        /// Emit the observed class-order DAG as Graphviz instead of the
        /// human report.
        dot: bool,
    },
    /// `stats <addr>`
    Stats {
        /// Address of a running `ddlf-audit serve`.
        addr: String,
        /// Emit the digest as one JSON object on stdout.
        json: bool,
        /// Emit Prometheus-style text exposition instead of the human
        /// rendering.
        prom: bool,
    },
    /// `read <addr> <all|e1,e2,...>`
    Read {
        /// Address of a running `ddlf-audit serve`.
        addr: String,
        /// Entity names to read (`all` = the whole database in schema
        /// order).
        entities: Vec<String>,
        /// Emit the snapshot as one JSON object on stdout.
        json: bool,
        /// Fail unless the snapshot's Σint equals this (conservation
        /// check for transfer workloads, over the wire).
        expect_total: Option<u128>,
        /// Fail unless `(Σint − B) % S == 0`: for workloads whose every
        /// commit adds a fixed quantum `S` on top of base `B` (e.g. the
        /// default counter program), *any* committed cut satisfies this
        /// — the mid-run form of the conservation check.
        conserve_step: Option<(u128, u128)>,
    },
}

/// The exit-code contract of `run` and `submit`: success requires that
/// every instance committed **and** the committed history is
/// serializable. A run without a verdict (`serializable == None` with
/// instances submitted) is a failure too.
pub fn audit_exit_failure(
    instances: usize,
    all_committed: bool,
    serializable: Option<bool>,
) -> bool {
    !all_committed || (instances > 0 && serializable != Some(true))
}

/// What a verb did: its stdout and exit code — or, as `Err`, why it
/// could not do its job at all (no server, no WAL, a replay the engine
/// disputes). [`dispatch`] prints that line and exits 2.
type Outcome = Result<(String, i32), String>;

/// Connects to a running server, retrying for five seconds (it may
/// still be binding).
fn connect(addr: &str) -> Result<Client, String> {
    Client::connect_retry(addr, Duration::from_secs(5))
        .map_err(|e| format!("cannot connect to {addr}: {e}"))
}

/// What a store holds, as `run` and `recover` report it.
fn store_line(store: &ddlf_engine::Store) -> String {
    format!(
        "store: {} entities, {} committed writes, Σint {}",
        store.db().entity_count(),
        store.total_versions(),
        store.total_int()
    )
}

/// The Σint conservation verdict under `read` and `recover`
/// (`--expect-total`): the line to print, and whether it is a violation.
fn conservation(sum: u128, expected: u128) -> (String, bool) {
    if sum == expected {
        (format!("conservation holds: Σint = {expected}"), false)
    } else {
        let line = format!("CONSERVATION VIOLATED: Σint {sum} ≠ expected {expected}");
        (line, true)
    }
}

/// `stats`: asks a running server for its live telemetry digest (the
/// lock-free `Stats` RPC — answers even mid-submission) and renders it
/// as human text, `--json`, or `--prom`. Connection failures exit 2.
fn run_stats(addr: &str, json: bool, prom: bool) -> Outcome {
    let stats = connect(addr)?.stats();
    let stats = stats.map_err(|e| format!("stats failed: {e}"))?;
    let out = if json {
        json_line(&render::stats_json(&stats))
    } else if prom {
        render::stats_prom(&stats)
    } else {
        render::stats_human(&stats)
    };
    Ok((out, 0))
}

/// `read`: runs one read-only transaction against a running server —
/// a committed multiversion cut served off the read-only snapshot path,
/// so it answers even while another connection's `Submit` holds the
/// engine. `--expect-total` asserts an exact Σint; `--conserve-step
/// B:S` asserts the step-quantum identity `(Σint − B) % S == 0`, which
/// *every* committed cut of a fixed-quantum workload satisfies — the
/// conservation check that works mid-run. Violations exit 1,
/// connection failures exit 2.
fn run_read(
    addr: &str,
    entities: &[String],
    json: bool,
    expect_total: Option<u128>,
    conserve_step: Option<(u128, u128)>,
) -> Outcome {
    let snap = connect(addr)?.read(entities);
    let snap = snap.map_err(|e| format!("read failed: {e}"))?;
    let sum = snap.sum_int();
    let mut verdicts: Vec<(String, bool)> = Vec::new();
    verdicts.extend(expect_total.map(|expected| conservation(sum, expected)));
    if let Some((base, step)) = conserve_step {
        verdicts.push(if sum >= base && (sum - base) % step == 0 {
            let line = format!("conservation holds: Σint − {base} is a multiple of {step}");
            (line, false)
        } else {
            let line = format!(
                "CONSERVATION VIOLATED: Σint {sum} is not {base} + k·{step} — \
                 the cut split a commit"
            );
            (line, true)
        });
    }
    let bad = verdicts.iter().any(|(_, violated)| *violated);
    if json {
        let entries = snap
            .entries
            .iter()
            .map(|e| Value::Obj(render::record_json(e)));
        let obj = jobj(vec![
            ("ts", ju(snap.ts)),
            ("entities", ju(snap.entries.len() as u64)),
            // u128 exceeds JSON's interoperable number range; ship it
            // as a string.
            ("sum_int", js(sum)),
            (
                "conservation_ok",
                if verdicts.is_empty() {
                    Value::Null
                } else {
                    Value::Bool(!bad)
                },
            ),
            ("entries", jarr(entries)),
        ]);
        return Ok((json_line(&obj), i32::from(bad)));
    }
    let mut out = String::new();
    let _ = writeln!(out, "{}", snap.summary());
    for e in &snap.entries {
        let _ = writeln!(
            out,
            "  {:<24} ts {:>6} v{:<5} {}",
            e.name,
            e.commit_ts,
            e.version,
            e.value.map_or_else(|| "-".to_string(), |v| v.to_string()),
        );
    }
    for (line, _) in verdicts {
        let _ = writeln!(out, "{line}");
    }
    Ok((out, i32::from(bad)))
}

/// `lockgraph`: drives a built-in workload across every locking
/// subsystem — an in-process engine run with WAL, shared fsyncs, and
/// batched admission, then a wire round-trip against an in-process
/// server — and prints the class-order DAG the `ddlf-lockdep` validator
/// observed: the executable form of ARCHITECTURE.md's "Lock discipline"
/// table. `--dot` emits Graphviz. Exits 1 if the validator recorded any
/// violation, 2 when built without `--features lockdep` (the stub
/// observes nothing).
fn run_lockgraph(dot: bool) -> Outcome {
    if !ddlf_lockdep::ENABLED {
        return Ok((format!("{}\n", ddlf_lockdep::report()), 2));
    }
    let spec_json = include_str!("../../../fixtures/banking_ordered.json");
    let sys = load_system(spec_json)
        .map_err(|e| format!("built-in lockgraph spec failed to load: {e}"))?;
    // Engine legs: slot_gate, shard.state, store.clock, engine.* and the
    // wal.* classes (fsync regions and the durable mark via `wal_sync`,
    // and an unlock's write-ahead append of its events and write —
    // shard.state over wal.log). Snapshot reads race both runs; in the
    // second, without `wal_sync`, a read that finds a decision still in
    // the log buffer pushes it, taking wal.log holding nothing.
    let wal_dir = std::env::temp_dir().join(format!("ddlf-lockgraph-{}", std::process::id()));
    let mut flags = EngineFlags {
        inflate: InflateSpec::Auto { cap: u32::MAX },
        wal: Some(wal_dir.to_string_lossy().into_owned()),
        ..EngineFlags::new(4)
    };
    for wal_sync in [true, false] {
        flags.wal_sync = wal_sync;
        let mut cfg = flags.config(Telemetry::disabled());
        cfg.instances = 256;
        let admission = flags.inflate.admission(flags.threads);
        let engine = ddlf_engine::Engine::try_with_admission(sys.clone(), admission, cfg)
            .map_err(|e| format!("cannot open the temporary WAL: {e}"))?;
        let entities: Vec<_> = engine.store().db().entities().collect();
        std::thread::scope(|s| {
            let run = s.spawn(|| engine.run());
            while !run.is_finished() {
                engine.run_read_only(&entities);
            }
        });
        drop(engine);
        let _ = std::fs::remove_dir_all(&wal_dir);
    }
    // Wire leg: server.engine / server.conns plus the accept-wait
    // blocking region, and two runs on one engine — the
    // `submit` verb registers, then two connections submit at once
    // against a WAL'd, fsyncing in-process server.
    let cfg = ServeConfig {
        threads: 2,
        engine: EngineConfig {
            wal_sync: true,
            ..EngineConfig::default()
        },
        wal_dir: Some(wal_dir.clone()),
        ..Default::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let writer = || {
        let mut client = connect(&addr)?;
        for _ in 0..8 {
            client.submit_all(16).map_err(|e| e.to_string())?;
        }
        Ok(())
    };
    let submitted =
        run_submit(&addr, spec_json, 16, None, flags.inflate, false, false).and_then(|_| {
            std::thread::scope(|s| {
                let writers = [s.spawn(writer), s.spawn(writer)];
                writers
                    .into_iter()
                    .try_for_each(|w| w.join().expect("writer thread panicked"))
            })
        });
    // Shut down whatever happened, or the join below waits forever.
    let stopped = connect(&addr).and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
    let _ = handle.join();
    let _ = std::fs::remove_dir_all(&wal_dir);
    submitted
        .and(stopped)
        .map_err(|e| format!("lockgraph wire leg failed: {e}"))?;
    let violations = ddlf_lockdep::violation_count();
    let out = if dot {
        ddlf_lockdep::dot()
    } else {
        ddlf_lockdep::report()
    };
    Ok((out, i32::from(violations > 0)))
}

/// `serve`: binds the wire server and blocks until a client sends
/// `Shutdown`. Prints the bound address first (port `0` resolves to an
/// ephemeral port) — straight to stdout, flushed, because a client is
/// waiting on that line long before this function returns. With `--wal
/// DIR`, registered engines log there; if the directory already holds a
/// WAL (a previous server died), it is replayed first and the server
/// starts with the recovered engine.
fn run_serve(addr: &str, flags: &EngineFlags) -> Result<(String, i32), String> {
    // One handle for the server's lifetime: every registered engine
    // records into it, and the `Stats` RPC digests it lock-free.
    let engine_cfg = flags.config(flags.telemetry(0));
    let mut recovered_engine = None;
    if let Some(dir) = flags.wal.as_deref() {
        if std::path::Path::new(dir).join("meta.json").exists() {
            let rec =
                ddlf_engine::recover(dir).map_err(|e| format!("cannot recover WAL {dir}: {e}"))?;
            println!("{}", rec.summary());
            let engine = ddlf_engine::Engine::from_recovered(
                rec,
                flags.inflate.admission(flags.threads),
                engine_cfg.clone(),
                dir,
            )
            .map_err(|e| format!("cannot resume WAL {dir}: {e}"))?;
            println!(
                "recovered engine: {} entities, Σint {}",
                engine.store().db().entity_count(),
                engine.store().total_int()
            );
            recovered_engine = Some(engine);
        }
    }
    let cfg = ServeConfig {
        threads: engine_cfg.threads,
        default_inflate: flags.inflate,
        wal_dir: engine_cfg.wal_dir.clone(),
        engine: engine_cfg,
    };
    let server = Server::bind_with(addr, cfg, recovered_engine)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!("ddlf-server listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run().map_err(|e| format!("serve error: {e}"))?;
    Ok((String::new(), 0))
}

/// `recover`: replays a WAL directory into a fresh store, re-runs the
/// `D(S)` audit over the recovered committed history, and reports.
/// Exit 0 requires the audit to say `Some(true)` and, when
/// `--expect-total` is given, the recovered Σint to match — the same
/// contract `run`/`submit` enforce for live histories, applied to a
/// crash's remains.
fn run_recover(dir: &str, expect_total: Option<u128>, json: bool) -> Outcome {
    let rec = ddlf_engine::recover(dir).map_err(|e| format!("recover {dir}: {e}"))?;
    let total = rec.store.total_int();
    let conservation = expect_total.map(|expected| conservation(total, expected));
    let violated = conservation.as_ref().map(|(_, violated)| *violated);
    let bad = rec.serializable != Some(true) || violated == Some(true);
    if json {
        let obj = jobj(vec![
            ("committed", ju(rec.committed as u64)),
            ("begun", ju(rec.begun as u64)),
            ("aborted_attempts", ju(rec.aborted_attempts as u64)),
            ("replayed_writes", ju(rec.replayed_writes)),
            ("serializable", jopt(rec.serializable, Value::Bool)),
            ("audit_error", jopt(rec.audit_error.clone(), Value::Str)),
            ("history_len", ju(rec.history_len as u64)),
            ("torn_tails", ju(rec.torn_tails as u64)),
            ("entities", ju(rec.store.db().entity_count() as u64)),
            // u128 exceeds JSON's interoperable number range; ship it
            // as a string.
            ("sum_int", js(total)),
            ("expected_total", jopt(expect_total, js)),
            ("conservation_ok", jopt(violated, |v| Value::Bool(!v))),
        ]);
        return Ok((json_line(&obj), i32::from(bad)));
    }
    let mut out = String::new();
    let _ = writeln!(out, "{}", rec.summary());
    if let Some(err) = &rec.audit_error {
        let _ = writeln!(out, "audit error: {err}");
    }
    let _ = writeln!(out, "{}", store_line(&rec.store));
    if let Some((line, _)) = conservation {
        let _ = writeln!(out, "{line}");
    }
    Ok((out, i32::from(bad)))
}

/// `submit`: registers `spec_json` with a running server, executes the
/// requested instances over the wire, and reports. Returns the report
/// text plus the exit code ([`audit_exit_failure`], strengthened by
/// `--expect-zero-aborts`). Connection/registration failures exit 2.
fn run_submit(
    addr: &str,
    spec_json: &str,
    txns: usize,
    template: Option<&str>,
    inflate: InflateSpec,
    expect_zero_aborts: bool,
    shutdown: bool,
) -> Outcome {
    let mut client = connect(addr)?;
    let reg = client.register(spec_json, inflate);
    let reg = reg.map_err(|e| format!("register failed: {e}"))?;
    let mut out = format!("admission: {}\n{}", reg.verdict, reg.render_plan());
    let count = u32::try_from(txns).expect("checked at parse time");
    let stats = match template {
        Some(name) => client.submit(name, count),
        None => client.submit_all(count),
    };
    // What was printed so far precedes a later failure's line.
    let stats = stats.map_err(|e| format!("{out}submit failed: {e}"))?;
    let _ = writeln!(out, "run: {}", stats.summary());
    let cumulative = client.report();
    let cumulative = cumulative.map_err(|e| format!("{out}report failed: {e}"))?;
    let _ = writeln!(out, "cumulative: {}", cumulative.summary());
    if shutdown {
        let stopped = client.shutdown();
        stopped.map_err(|e| format!("{out}shutdown failed: {e}"))?;
        let _ = writeln!(out, "server shutting down");
    }
    let bad = audit_exit_failure(
        stats.instances as usize,
        stats.all_committed(),
        stats.serializable,
    ) || (expect_zero_aborts && stats.aborted_attempts > 0);
    Ok((out, i32::from(bad)))
}

/// Loads a system from a spec JSON string.
pub fn load_system(json: &str) -> Result<TransactionSystem, String> {
    let spec: SystemSpec =
        serde_json::from_str(json).map_err(|e| format!("spec parse error: {e}"))?;
    spec.build().map_err(|e| format!("spec error: {e}"))
}

/// `certify`: Theorems 3/4 on the system as written. With `--inflate
/// k|auto` or `--json`, on the admission `run` would be granted: the
/// plan, Theorem 4's counters on the granted inflation, and what
/// admission cost — exit 0 iff the request was granted in full and the
/// verdict guarantees safety as well as deadlock-freedom.
fn certify(sys: &TransactionSystem, inflate: InflateSpec, json: bool) -> (String, i32) {
    if inflate == InflateSpec::None && !json {
        return match certify_safe_and_deadlock_free(sys, CertifyOptions::default()) {
            Ok(cert) => (
                format!(
                    "CERTIFIED: every schedule is serializable and every partial \
                     schedule completable.\ncertificate: {cert:?}\n"
                ),
                0,
            ),
            Err(v) => (format!("REJECTED: {v}\n"), 1),
        };
    }
    let started = std::time::Instant::now();
    let registry = ddlf_engine::TemplateRegistry::register_with(
        sys.clone(),
        inflate.admission(DEFAULT_THREADS),
    );
    let admission_ms = started.elapsed().as_secs_f64() * 1e3;
    let (verdict, plan) = (registry.verdict(), registry.plan());
    // Theorem 4's counters exist when every grant is a finite k and the
    // granted system (the two-phase closure, when admission closed it)
    // has ≥ 3 transactions that certify.
    let granted: Option<Vec<usize>> = plan.slots.iter().map(|s| s.limit()).collect();
    let counters = granted
        .and_then(|k| registry.system().inflate(&k).ok())
        .and_then(|g| {
            match certify_safe_and_deadlock_free(g.system(), CertifyOptions::default()) {
                Ok(Certificate::Many(c)) => Some(c),
                _ => None,
            }
        });
    let bad = !verdict.is_certified() || plan.floored;
    let mut out = String::new();
    if json {
        let slots = sys.iter().map(|(t, txn)| {
            jobj(vec![
                ("template", js(txn.name())),
                ("k", jopt(plan.slots_of(t).limit(), |k| ju(k as u64))),
            ])
        });
        let mut obj = vec![
            ("verdict", js(verdict)),
            ("granted", Value::Bool(!bad)),
            ("floored", Value::Bool(plan.floored)),
            ("rationale", js(&plan.rationale)),
            ("slots", jarr(slots)),
        ];
        if let Some(c) = &counters {
            obj.push(("pairs", ju(c.pairs_checked as u64)));
            obj.push(("cycles", ju(c.cycles_checked as u64)));
            obj.push(("orderings", ju(c.orderings_checked as u64)));
        }
        obj.push(("admission_ms", jf(admission_ms)));
        out = json_line(&jobj(obj));
    } else {
        let _ = writeln!(out, "admission: {verdict}");
        let _ = write!(out, "{}", plan.render(sys));
        if let Some(c) = &counters {
            let _ = writeln!(
                out,
                "theorem 4: pairs {} cycles {} orderings {}",
                c.pairs_checked, c.cycles_checked, c.orderings_checked
            );
        }
        let _ = writeln!(out, "admission took {admission_ms:.1} ms");
    }
    (out, i32::from(bad))
}

/// `deadlock`: the exhaustive Theorem 1 search, with a witness partial
/// schedule when a deadlock is reachable.
fn deadlock(sys: &TransactionSystem) -> (String, i32) {
    let (verdict, stats) = Explorer::new(sys, 20_000_000).find_deadlock();
    match verdict {
        ddlf_core::Verdict::Holds => (
            format!("DEADLOCK-FREE ({} states explored)\n", stats.states),
            0,
        ),
        ddlf_core::Verdict::CounterExample(sched) => {
            let mut out = format!(
                "DEADLOCK REACHABLE after {} steps; witness partial schedule:\n",
                sched.len()
            );
            for g in sched.steps() {
                let (name, op, entity) = render::step(sys, g);
                let _ = writeln!(out, "  {name} {op}{entity}");
            }
            (out, 1)
        }
        ddlf_core::Verdict::Inconclusive { states } => (
            format!("INCONCLUSIVE: state budget exhausted ({states} states)\n"),
            2,
        ),
    }
}

/// `explore`: enumerates the interleavings, replays every counterexample
/// through the engine, and reports; `cmd` is the [`Command::Explore`].
fn explore(sys: &TransactionSystem, cmd: &Command) -> Outcome {
    let Command::Explore {
        txns,
        budget,
        seed,
        json,
        expect_counterexample,
        trace_out,
        no_prune,
        no_replay,
        ..
    } = cmd
    else {
        unreachable!("dispatch passes explore its own command");
    };
    let instanced;
    let sys = match txns {
        Some(n) => {
            instanced =
                ddlf_model::instances_of(sys, *n).map_err(|e| format!("bad --txns: {e}"))?;
            &instanced
        }
        None => sys,
    };
    let cfg = ddlf_model::ExploreConfig {
        max_steps: *budget,
        seed: *seed,
        sleep_sets: !*no_prune,
        ..Default::default()
    };
    let found = ddlf_model::explore(sys, &cfg);

    // Replay each counterexample through the real store + streaming
    // audit before reporting it: a cycle witness must reproduce the
    // non-serializable verdict end to end, and a deadlock witness must
    // be unjammed by wait-die (aborts ≥ 1, everyone commits, history
    // serializable). The engine disagreeing with the model is the worst
    // possible outcome — exit 2, never a clean pass.
    let mut replays: Vec<Option<ddlf_engine::ReplayReport>> = Vec::new();
    for ce in &found.counterexamples {
        if *no_replay {
            replays.push(None);
            continue;
        }
        let rep = ddlf_engine::replay_schedule(sys, &ce.steps);
        let rep = rep.map_err(|e| format!("replay failed: {e}"))?;
        let reproduced = match ce.kind {
            ddlf_model::AnomalyKind::Deadlock => {
                rep.aborts >= 1 && rep.committed == rep.instances && rep.serializable == Some(true)
            }
            _ => rep.serializable == Some(false),
        };
        if !reproduced {
            return Err(format!(
                "replay mismatch: {} witness did not reproduce in the \
                 engine (committed {}/{}, aborts {}, serializable {:?})",
                ce.kind, rep.committed, rep.instances, rep.aborts, rep.serializable
            ));
        }
        replays.push(Some(rep));
    }
    let witnesses = || found.counterexamples.iter().zip(&replays);
    let witnesses_json =
        || witnesses().map(|(ce, rep)| render::counterexample_json(sys, ce, rep.as_ref()));

    // JSONL witness file: one self-contained line per counterexample,
    // replayable via `ddlf_engine::replay_schedule`.
    let has_ce = !found.counterexamples.is_empty();
    let mut trace_note = None;
    if let (Some(path), true) = (trace_out, has_ce) {
        let lines: String = witnesses_json().map(|w| json_line(&w)).collect();
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(parent);
            }
        }
        std::fs::write(path, lines).map_err(|e| format!("cannot write trace to {path}: {e}"))?;
        trace_note = Some(path.clone());
    }

    // 0 = what the caller hoped for, 1 = the opposite, 2 = the budget
    // ran out first. `--expect-counterexample` (the anomaly-fixture
    // mode) hopes for a counterexample; otherwise a clean exhaustion.
    let code = match (has_ce, found.exhausted) {
        (true, _) => i32::from(!*expect_counterexample),
        (false, true) => i32::from(*expect_counterexample),
        (false, false) => 2,
    };

    if *json {
        let obj = jobj(vec![
            ("transactions", ju(sys.len() as u64)),
            ("entities", ju(sys.db().entity_count() as u64)),
            ("pruning", Value::Bool(cfg.sleep_sets)),
            ("budget", ju(*budget)),
            ("seed", ju(*seed)),
            ("steps", ju(found.stats.steps)),
            ("complete_schedules", ju(found.stats.complete_schedules)),
            ("deadlocks", ju(found.stats.deadlocks)),
            ("cyclic_schedules", ju(found.stats.cyclic_schedules)),
            ("sleep_skips", ju(found.stats.sleep_skips)),
            ("exhausted", Value::Bool(found.exhausted)),
            ("counterexamples", jarr(witnesses_json())),
            ("trace_path", jopt(trace_note, Value::Str)),
            ("expect_counterexample", Value::Bool(*expect_counterexample)),
            ("ok", Value::Bool(code == 0)),
        ]);
        return Ok((json_line(&obj), code));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "explore: {} transactions, {} entities, pruning {}",
        sys.len(),
        sys.db().entity_count(),
        if cfg.sleep_sets { "on" } else { "off" }
    );
    let _ = writeln!(
        out,
        "explored: {} steps, {} complete schedules, {} deadlock states, \
         {} cyclic schedules, {} sleep-set skips",
        found.stats.steps,
        found.stats.complete_schedules,
        found.stats.deadlocks,
        found.stats.cyclic_schedules,
        found.stats.sleep_skips
    );
    for (i, (ce, rep)) in witnesses().enumerate() {
        let _ = writeln!(out, "counterexample {i}: {}", ce.kind);
        let _ = write!(out, "  schedule:");
        for g in &ce.steps {
            let (name, op, entity) = render::step(sys, g);
            let _ = write!(out, " {name}.{op}{entity}");
        }
        let _ = writeln!(out);
        if !ce.cycle.is_empty() {
            let txns: Vec<&str> = ce.cycle.iter().map(|&t| sys.txn(t).name()).collect();
            let entities = ce.cycle_entities.iter().map(|&e| sys.db().name_of(e));
            let _ = writeln!(
                out,
                "  D(S) cycle: {} via [{}]",
                txns.join(" → "),
                entities.collect::<Vec<_>>().join(", ")
            );
        }
        for w in &ce.waits_for {
            let _ = writeln!(
                out,
                "  wait: {} waits for {} held by {}",
                sys.txn(w.waiter).name(),
                sys.db().name_of(w.entity),
                sys.txn(w.holder).name()
            );
        }
        if let Some(r) = rep {
            let _ = writeln!(
                out,
                "  replay: committed {}/{}, aborts {}, rolled back {}, \
                 serializable {:?} — reproduced",
                r.committed, r.instances, r.aborts, r.rolled_back, r.serializable
            );
        }
    }
    let found_n = found.counterexamples.len();
    if let Some(p) = &trace_note {
        let _ = writeln!(out, "trace: {found_n} witness(es) written to {p}");
    }
    let verdict = match (code, *expect_counterexample) {
        (0, false) => {
            "CLEAN: pruned schedule space exhausted, no D(S) cycle or deadlock".to_string()
        }
        (0, true) => format!("ANOMALY CONFIRMED: {found_n} counterexample(s), as expected"),
        (1, false) => format!("COUNTEREXAMPLE: {found_n} witness(es) found"),
        (1, true) => {
            "UNEXPECTEDLY CLEAN: space exhausted without the expected counterexample".to_string()
        }
        _ => format!("INCONCLUSIVE: step budget ({budget}) exhausted"),
    };
    let _ = writeln!(out, "{verdict}");
    Ok((out, code))
}

/// `--policy`'s values, checked when the command line is parsed and
/// again by [`simulate`] (a `Command` can be built without parsing).
fn parse_policy(name: &str) -> Result<DeadlockPolicy, String> {
    match name {
        "nothing" => Ok(DeadlockPolicy::Nothing),
        "detect" => Ok(DeadlockPolicy::Detect { period_us: 5_000 }),
        "wound-wait" => Ok(DeadlockPolicy::WoundWait),
        "wait-die" => Ok(DeadlockPolicy::WaitDie),
        other => Err(format!("unknown policy {other:?}")),
    }
}

/// `simulate`: runs the discrete-event simulator under `policy`, one
/// line per seed.
fn simulate(sys: &TransactionSystem, policy: &str, seeds: u64) -> Outcome {
    let policy = parse_policy(policy)?;
    let mut out = String::new();
    let mut bad = false;
    for seed in 0..seeds {
        let r = ddlf_sim::run(
            sys,
            SimConfig {
                policy,
                seed,
                ..Default::default()
            },
        );
        let _ = writeln!(
            out,
            "seed {seed}: committed {}/{} aborts {} deadlocks {} time {} serializable {:?}",
            r.committed,
            sys.len(),
            r.aborted_attempts,
            r.deadlocks_detected,
            r.end_time,
            r.serializable
        );
        bad |= !r.stalled.is_empty() || r.serializable == Some(false);
    }
    Ok((out, i32::from(bad)))
}

/// `run`: executes the system on the engine and reports; `cmd` is the
/// [`Command::Run`].
fn run_engine(sys: &TransactionSystem, cmd: &Command) -> Outcome {
    let Command::Run {
        txns,
        engine: flags,
        force_fallback,
        json,
        trace_sample,
        trace_out,
        readers,
        ..
    } = cmd
    else {
        unreachable!("dispatch passes run its own command");
    };
    let telemetry = flags.telemetry(*trace_sample);
    let mut cfg = flags.config(telemetry.clone());
    cfg.instances = *txns;
    cfg.force_fallback = *force_fallback;
    let admission = flags.inflate.admission(flags.threads);
    let engine = ddlf_engine::Engine::try_with_admission(sys.clone(), admission, cfg)
        .map_err(|e| format!("cannot open WAL: {e}"))?;
    let mut out = String::new();
    if !*json {
        if let Some(dir) = &flags.wal {
            let _ = writeln!(out, "wal: logging to {dir}");
        }
        let _ = writeln!(out, "admission: {}", engine.registry().verdict());
        let _ = write!(out, "{}", engine.registry().plan().render(sys));
    }
    // `--readers R`: R scanner threads loop full-store read-only
    // transactions on the snapshot path while the writers run. Each
    // asserts its observed timestamps never run backwards; the joined
    // scan count reports reader throughput next to the write report.
    let all_entities: Vec<ddlf_model::EntityId> = sys.db().entities().collect();
    let stop_readers = std::sync::atomic::AtomicBool::new(false);
    let started = std::time::Instant::now();
    let (report, phases, ro_scans) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..*readers)
            .map(|_| {
                scope.spawn(|| {
                    let mut scans = 0u64;
                    let mut last_ts = 0u64;
                    while !stop_readers.load(std::sync::atomic::Ordering::Relaxed) {
                        let snap = engine.run_read_only(&all_entities);
                        assert!(
                            snap.ts >= last_ts,
                            "snapshot ts ran backwards: {} after {last_ts}",
                            snap.ts
                        );
                        last_ts = snap.ts;
                        scans += 1;
                    }
                    scans
                })
            })
            .collect();
        let report = engine.run();
        // The handle is this run's alone, so its cumulative phases are
        // the run's (and the snapshot reads it overlapped).
        let phases = telemetry.phase_snapshot();
        stop_readers.store(true, std::sync::atomic::Ordering::Relaxed);
        let scans: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        (report, phases, scans)
    });
    let scans_per_sec = ro_scans as f64 / started.elapsed().as_secs_f64().max(1e-9);
    if let Some(path) = trace_out {
        std::fs::write(path, telemetry.dump_trace_jsonl())
            .map_err(|e| format!("{out}cannot write trace to {path}: {e}"))?;
    }
    let store = engine.store();
    if *json {
        // One JSON object, nothing else on stdout — scripts pipe
        // this straight into a parser. Store totals ride along.
        let mut obj = report_json(&report, &phases);
        if let Value::Obj(entries) = &mut obj {
            entries.push((
                "store".to_string(),
                jobj(vec![
                    ("entities", ju(sys.db().entity_count() as u64)),
                    ("committed_writes", ju(store.total_versions())),
                    ("sum_int", js(store.total_int())),
                ]),
            ));
            if *readers > 0 {
                entries.push((
                    "readers".to_string(),
                    jobj(vec![
                        ("threads", ju(*readers as u64)),
                        ("scans", ju(ro_scans)),
                        ("scans_per_sec", jf(scans_per_sec)),
                    ]),
                ));
            }
        }
        out += &json_line(&obj);
    } else {
        let _ = writeln!(out, "{}", report.summary());
        let _ = write!(out, "{}", report.template_table());
        let _ = writeln!(out, "{}", store_line(store));
        if *readers > 0 {
            let _ = writeln!(
                out,
                "readers: {readers} threads, {ro_scans} snapshot scans ({scans_per_sec:.0} scans/s)"
            );
        }
    }
    let bad = audit_exit_failure(
        report.instances,
        report.all_committed(),
        report.serializable,
    );
    Ok((out, i32::from(bad)))
}

/// Runs a parsed command — the one dispatch every verb goes through —
/// and returns its stdout and exit code. `read_spec` fetches the text
/// behind a verb's spec-file argument (`main` reads the file; tests
/// hand over a string). `Err` is a file or spec that does not load, or
/// `serve` failing to start: stderr, exit 2.
pub fn dispatch(
    cmd: &Command,
    read_spec: &dyn Fn(&str) -> Result<String, String>,
) -> Result<(String, i32), String> {
    let load = |spec: &str| load_system(&read_spec(spec)?);
    let outcome = match cmd {
        Command::Certify {
            spec,
            inflate,
            json,
        } => Ok(certify(&load(spec)?, *inflate, *json)),
        Command::Deadlock { spec } => Ok(deadlock(&load(spec)?)),
        Command::Explore { spec, .. } => explore(&load(spec)?, cmd),
        Command::Simulate {
            spec,
            policy,
            seeds,
        } => simulate(&load(spec)?, policy, *seeds),
        Command::Run { spec, .. } => run_engine(&load(spec)?, cmd),
        Command::Dot { spec } => Ok((ddlf_model::dot::system_to_dot(&load(spec)?), 0)),
        Command::Recover {
            dir,
            expect_total,
            json,
        } => run_recover(dir, *expect_total, *json),
        Command::Serve { addr, engine } => return run_serve(addr, engine),
        // The server parses and certifies the spec; ship it verbatim.
        Command::Submit {
            addr,
            spec,
            txns,
            template,
            inflate,
            expect_zero_aborts,
            shutdown,
        } => run_submit(
            addr,
            &read_spec(spec)?,
            *txns,
            template.as_deref(),
            *inflate,
            *expect_zero_aborts,
            *shutdown,
        ),
        Command::Lockgraph { dot } => run_lockgraph(*dot),
        Command::Stats { addr, json, prom } => run_stats(addr, *json, *prom),
        Command::Read {
            addr,
            entities,
            json,
            expect_total,
            conserve_step,
        } => run_read(addr, entities, *json, *expect_total, *conserve_step),
    };
    Ok(outcome.unwrap_or_else(|failure| (failure + "\n", 2)))
}

/// The whole program for one `argv` (without the program name): parse,
/// read the spec file a verb names, dispatch.
pub fn invoke(args: &[String]) -> Result<(String, i32), String> {
    let read_file =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    dispatch(&parse_args(args)?, &read_file)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `cmd` with every spec-file argument reading as `spec`.
    fn execute(cmd: &Command, spec: &str) -> (String, i32) {
        dispatch(cmd, &|_| Ok(spec.to_string())).expect("the spec loads")
    }

    /// The `stats` verb against `addr`.
    fn stats(addr: &str, json: bool, prom: bool) -> (String, i32) {
        let addr = addr.to_string();
        execute(&Command::Stats { addr, json, prom }, "")
    }

    const SPEC: &str = r#"{
      "entities": [ {"name": "x", "site": 0}, {"name": "y", "site": 1} ],
      "transactions": [
        { "name": "T1", "ops": ["L x", "L y", "U y", "U x"] },
        { "name": "T2", "ops": ["L x", "L y", "U y", "U x"] }
      ]
    }"#;

    const DEADLOCKY: &str = r#"{
      "entities": [ {"name": "x", "site": 0}, {"name": "y", "site": 1} ],
      "transactions": [
        { "name": "T1", "ops": ["L x", "L y", "U x", "U y"] },
        { "name": "T2", "ops": ["L y", "L x", "U y", "U x"] }
      ]
    }"#;

    #[test]
    fn parse_commands() {
        let c = parse_args(&["certify".into(), "f.json".into()]).unwrap();
        assert_eq!(
            c,
            Command::Certify {
                spec: "f.json".into(),
                inflate: InflateSpec::None,
                json: false,
            }
        );
        let c = parse_args(&[
            "simulate".into(),
            "f.json".into(),
            "--policy".into(),
            "wait-die".into(),
            "--seeds".into(),
            "3".into(),
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Simulate {
                spec: "f.json".into(),
                policy: "wait-die".into(),
                seeds: 3
            }
        );
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&["bogus".into(), "f".into()]).is_err());
        assert!(parse_args(&["simulate".into(), "f".into(), "--what".into()]).is_err());
    }

    #[test]
    fn parse_explore() {
        let c = parse_args(&[
            "explore".into(),
            "f.json".into(),
            "--txns".into(),
            "4".into(),
            "--budget".into(),
            "5000".into(),
            "--seed".into(),
            "7".into(),
            "--expect-counterexample".into(),
            "--trace-out".into(),
            "t.jsonl".into(),
            "--no-prune".into(),
            "--no-replay".into(),
            "--json".into(),
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Explore {
                spec: "f.json".into(),
                txns: Some(4),
                budget: 5000,
                seed: 7,
                json: true,
                expect_counterexample: true,
                trace_out: Some("t.jsonl".into()),
                no_prune: true,
                no_replay: true,
            }
        );
        assert!(parse_args(&["explore".into(), "f".into(), "--txns".into(), "0".into()]).is_err());
        assert!(parse_args(&["explore".into(), "f".into(), "--bogus".into()]).is_err());
    }

    fn explore_cmd() -> Command {
        Command::Explore {
            spec: String::new(),
            txns: None,
            budget: 1_000_000,
            seed: 0,
            json: false,
            expect_counterexample: false,
            trace_out: None,
            no_prune: false,
            no_replay: false,
        }
    }

    #[test]
    fn explore_deadlocky_finds_and_replays_witnesses() {
        let sys = DEADLOCKY;
        let dir = std::env::temp_dir().join(format!("ddlf-explore-{}", std::process::id()));
        let path = dir.join("trace.jsonl").to_string_lossy().into_owned();
        let cmd = match explore_cmd() {
            Command::Explore {
                spec,
                txns,
                budget,
                seed,
                json,
                no_prune,
                no_replay,
                ..
            } => Command::Explore {
                spec,
                txns,
                budget,
                seed,
                json,
                no_prune,
                no_replay,
                expect_counterexample: true,
                trace_out: Some(path.clone()),
            },
            _ => unreachable!(),
        };
        let (out, code) = execute(&cmd, sys);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("ANOMALY CONFIRMED"), "{out}");
        assert!(out.contains("reproduced"), "{out}");
        let trace = std::fs::read_to_string(&path).unwrap();
        assert!(trace.lines().count() >= 1);
        assert!(trace.contains("\"kind\""), "{trace}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explore_clean_system_fails_expectation_with_exit_1() {
        let sys = SPEC;
        let cmd = match explore_cmd() {
            Command::Explore {
                spec,
                txns,
                budget,
                seed,
                json,
                trace_out,
                no_prune,
                no_replay,
                ..
            } => Command::Explore {
                spec,
                txns,
                budget,
                seed,
                json,
                trace_out,
                no_prune,
                no_replay,
                expect_counterexample: true,
            },
            _ => unreachable!(),
        };
        let (out, code) = execute(&cmd, sys);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("UNEXPECTEDLY CLEAN"), "{out}");
    }

    #[test]
    fn explore_budget_truncation_is_inconclusive() {
        let sys = SPEC;
        let cmd = match explore_cmd() {
            Command::Explore {
                spec,
                txns,
                seed,
                json,
                expect_counterexample,
                trace_out,
                no_prune,
                no_replay,
                ..
            } => Command::Explore {
                spec,
                txns,
                seed,
                json,
                expect_counterexample,
                trace_out,
                no_prune,
                no_replay,
                budget: 2,
            },
            _ => unreachable!(),
        };
        let (out, code) = execute(&cmd, sys);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("INCONCLUSIVE"), "{out}");
    }

    /// `certify`, `deadlock` and `dot` used to ignore everything after
    /// the spec path, so a typo printed the base verdict and exited 0.
    #[test]
    fn analysis_verbs_reject_unknown_trailing_flags() {
        let args = |v: &[&str]| v.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        for verb in ["certify", "deadlock", "dot"] {
            let err = parse_args(&args(&[verb, "f.json", "--inflat", "auto"])).unwrap_err();
            assert!(err.contains("unknown flag --inflat"), "{verb}: {err}");
        }
        assert!(parse_args(&args(&["deadlock", "f.json", "--json"])).is_err());
        assert!(parse_args(&args(&["certify", "f.json", "--inflate"])).is_err());
        assert!(parse_args(&args(&["certify", "f.json", "--inflate", "0"])).is_err());
        assert_eq!(
            parse_args(&args(&["certify", "f.json", "--inflate", "auto", "--json"])).unwrap(),
            Command::Certify {
                spec: "f.json".into(),
                inflate: InflateSpec::Auto { cap: u32::MAX },
                json: true,
            }
        );
    }

    #[test]
    fn certify_inflate_prints_the_plan_and_theorem4_counters() {
        let certify = |inflate, json| Command::Certify {
            spec: String::new(),
            inflate,
            json,
        };
        // Two templates at k = 2: four transactions on a complete
        // interaction graph, 6 pairs and K4's 7 cycles.
        let sys = SPEC;
        let (out, code) = execute(&certify(InflateSpec::Uniform(2), false), sys);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("admission: certified"), "{out}");
        assert!(out.contains("k = 2"), "{out}");
        assert!(
            out.contains("theorem 4: pairs 6 cycles 7 orderings 48"),
            "{out}"
        );
        assert!(out.contains("admission took"), "{out}");

        let (out, code) = execute(&certify(InflateSpec::Auto { cap: u32::MAX }, true), sys);
        assert_eq!(code, 0, "{out}");
        assert!(serde_json::parse_value(out.trim()).is_ok(), "{out}");
        assert!(out.contains(r#""granted":true"#), "{out}");
        assert!(out.contains(r#"{"template":"T2","k":4}"#), "{out}");
        assert!(out.contains(r#""pairs":28,"cycles":8018,"#), "{out}");

        // A request the certifier refuses is a failed analysis.
        let sys = DEADLOCKY;
        let (out, code) = execute(&certify(InflateSpec::Uniform(2), false), sys);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("fallback to wait-die"), "{out}");
        assert!(out.contains("floored to k=1"), "{out}");
    }

    #[test]
    fn simulate_policies() {
        let sys = DEADLOCKY;
        let cmd = Command::Simulate {
            spec: String::new(),
            policy: "wound-wait".into(),
            seeds: 3,
        };
        let (out, code) = execute(&cmd, sys);
        assert_eq!(code, 0, "{out}");
        assert_eq!(out.lines().count(), 3);
        let bad = Command::Simulate {
            spec: String::new(),
            policy: "martian".into(),
            seeds: 1,
        };
        assert_eq!(execute(&bad, sys).1, 2);
    }

    #[test]
    fn run_command_parses_with_flags() {
        let c = parse_args(&[
            "run".into(),
            "f.json".into(),
            "--txns".into(),
            "12".into(),
            "--threads".into(),
            "3".into(),
            "--force-fallback".into(),
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Run {
                spec: "f.json".into(),
                txns: 12,
                engine: EngineFlags {
                    threads: 3,
                    ..EngineFlags::new(1)
                },
                force_fallback: true,
                json: false,
                trace_sample: 0,
                trace_out: None,
                readers: 0,
            }
        );
        assert!(parse_args(&["run".into(), "f".into(), "--txns".into()]).is_err());
        assert!(parse_args(&["run".into(), "f".into(), "--bogus".into()]).is_err());
    }

    #[test]
    fn run_command_parses_inflate() {
        let c = parse_args(&[
            "run".into(),
            "f.json".into(),
            "--inflate".into(),
            "4".into(),
        ])
        .unwrap();
        let Command::Run { engine, .. } = c else {
            panic!("run command");
        };
        let inflate = engine.inflate;
        assert_eq!(inflate, InflateSpec::Uniform(4));

        let c = parse_args(&[
            "run".into(),
            "f.json".into(),
            "--inflate".into(),
            "auto".into(),
        ])
        .unwrap();
        let Command::Run { engine, .. } = c else {
            panic!("run command");
        };
        let inflate = engine.inflate;
        assert_eq!(inflate, InflateSpec::Auto { cap: u32::MAX });

        assert!(parse_args(&["run".into(), "f".into(), "--inflate".into()]).is_err());
        assert!(parse_args(&["run".into(), "f".into(), "--inflate".into(), "0".into()]).is_err());
        assert!(parse_args(&["run".into(), "f".into(), "--inflate".into(), "x".into()]).is_err());
    }

    #[test]
    fn parse_stats_command() {
        let c = parse_args(&["stats".into(), "127.0.0.1:7471".into(), "--json".into()]).unwrap();
        assert_eq!(
            c,
            Command::Stats {
                addr: "127.0.0.1:7471".into(),
                json: true,
                prom: false,
            }
        );
        let c = parse_args(&["stats".into(), "addr".into(), "--prom".into()]).unwrap();
        assert_eq!(
            c,
            Command::Stats {
                addr: "addr".into(),
                json: false,
                prom: true,
            }
        );
        assert!(parse_args(&["stats".into()]).is_err());
        assert!(parse_args(&["stats".into(), "a".into(), "--bogus".into()]).is_err());
    }

    #[test]
    fn run_command_parses_telemetry_flags() {
        let args = |v: &[&str]| v.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let c = parse_args(&args(&["run", "f.json", "--json", "--no-telemetry"])).unwrap();
        let Command::Run { json, engine, .. } = c else {
            panic!("run command");
        };
        assert!(json);
        assert!(engine.no_telemetry);
        let c = parse_args(&args(&[
            "run",
            "f.json",
            "--trace-sample",
            "64",
            "--trace-out",
            "trace.jsonl",
        ]))
        .unwrap();
        let Command::Run {
            trace_sample,
            trace_out,
            ..
        } = c
        else {
            panic!("run command");
        };
        assert_eq!(trace_sample, 64);
        assert_eq!(trace_out.as_deref(), Some("trace.jsonl"));
        assert!(parse_args(&args(&["run", "f", "--trace-sample"])).is_err());
    }

    /// A trace file is the sampled ring dumped: without sampling, or
    /// without a telemetry handle to sample into, `run` used to exit 0
    /// and leave a 0-byte file.
    #[test]
    fn run_trace_out_needs_sampling_and_telemetry() {
        let args = |v: &[&str]| v.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        for rest in [
            &["--trace-out", "t.jsonl"][..],
            &["--trace-out", "t.jsonl", "--trace-sample", "0"],
            &[
                "--trace-out",
                "t.jsonl",
                "--trace-sample",
                "1",
                "--no-telemetry",
            ],
        ] {
            let err = parse_args(&args(&[&["run", "f.json"], rest].concat())).unwrap_err();
            assert!(err.contains("--trace-out"), "{err}");
            assert!(err.contains("--trace-sample"), "{err}");
            assert!(err.contains("--no-telemetry"), "{err}");
        }
    }

    /// `--json` used to win silently — after five seconds of
    /// `connect_retry` against whatever address was given.
    #[test]
    fn stats_rejects_json_and_prom_together() {
        let args = ["stats", "a", "--json", "--prom"].map(String::from);
        let err = parse_args(&args).unwrap_err();
        assert!(err.contains("--json") && err.contains("--prom"), "{err}");
    }

    /// An unknown policy used to be reported only after the spec file
    /// had been read and built.
    #[test]
    fn simulate_rejects_an_unknown_policy_at_parse_time() {
        let args = ["simulate", "no-such-file.json", "--policy", "martian"].map(String::from);
        let err = parse_args(&args).unwrap_err();
        assert!(err.contains("--policy") && err.contains("martian"), "{err}");
    }

    /// `serve` takes the whole engine-flag set `run` does, `--work`
    /// included, and the generated usage lists it under both.
    #[test]
    fn serve_takes_the_engine_flags_run_takes() {
        let flags = [
            "--threads",
            "3",
            "--work",
            "5",
            "--wal",
            "/tmp/w",
            "--wal-sync",
        ];
        let parse = |verb: &str| {
            let args: Vec<String> = [verb, "x"]
                .iter()
                .chain(&flags)
                .map(|a| a.to_string())
                .collect();
            parse_args(&args).unwrap()
        };
        let (Command::Run { engine: run, .. }, Command::Serve { engine: serve, .. }) =
            (parse("run"), parse("serve"))
        else {
            panic!("run and serve commands");
        };
        assert_eq!(serve.work_us, 5);
        assert_eq!(
            run,
            EngineFlags {
                admission_batch: 1,
                ..serve
            }
        );
        let usage = flags::usage();
        let serve_line = usage
            .lines()
            .find(|l| l.contains("ddlf-audit serve"))
            .unwrap();
        assert!(serve_line.contains("[--work USEC]"), "{usage}");
        assert!(serve_line.contains("[--wal-sync]"), "{usage}");
    }

    #[test]
    fn run_executes_certified_system_clean() {
        let sys = SPEC;
        let cmd = Command::Run {
            spec: String::new(),
            txns: 8,
            engine: EngineFlags {
                threads: 2,
                ..EngineFlags::new(1)
            },
            force_fallback: false,
            json: false,
            trace_sample: 0,
            trace_out: None,
            readers: 0,
        };
        let (out, code) = execute(&cmd, sys);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("certified"), "{out}");
        assert!(out.contains("no-detector"), "{out}");
        assert!(out.contains("aborts 0"), "{out}");
        assert!(out.contains("admission plan"), "{out}");
    }

    #[test]
    fn run_with_readers_reports_lock_free_scans() {
        let sys = SPEC;
        let cmd = Command::Run {
            spec: String::new(),
            txns: 32,
            engine: EngineFlags {
                threads: 2,
                ..EngineFlags::new(1)
            },
            force_fallback: false,
            json: false,
            trace_sample: 0,
            trace_out: None,
            readers: 2,
        };
        let (out, code) = execute(&cmd, sys);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("readers: 2 threads"), "{out}");
        assert!(out.contains("snapshot scans"), "{out}");
    }

    #[test]
    fn read_command_parses() {
        let c = parse_args(&["read".into(), "127.0.0.1:7471".into(), "all".into()]).unwrap();
        assert_eq!(
            c,
            Command::Read {
                addr: "127.0.0.1:7471".into(),
                entities: vec![],
                json: false,
                expect_total: None,
                conserve_step: None,
            }
        );
        let c = parse_args(&[
            "read".into(),
            "addr".into(),
            "x,y".into(),
            "--json".into(),
            "--expect-total".into(),
            "3000".into(),
            "--conserve-step".into(),
            "600:4".into(),
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Read {
                addr: "addr".into(),
                entities: vec!["x".into(), "y".into()],
                json: true,
                expect_total: Some(3000),
                conserve_step: Some((600, 4)),
            }
        );
        // Missing entity list, malformed step specs, unknown flags.
        assert!(parse_args(&["read".into(), "addr".into()]).is_err());
        assert!(parse_args(&[
            "read".into(),
            "addr".into(),
            "all".into(),
            "--conserve-step".into(),
            "600".into(),
        ])
        .is_err());
        assert!(parse_args(&[
            "read".into(),
            "addr".into(),
            "all".into(),
            "--conserve-step".into(),
            "600:0".into(),
        ])
        .is_err());
        assert!(
            parse_args(&["read".into(), "addr".into(), "all".into(), "--bogus".into()]).is_err()
        );
    }

    #[test]
    fn run_command_parses_readers() {
        let c = parse_args(&[
            "run".into(),
            "f.json".into(),
            "--readers".into(),
            "4".into(),
        ])
        .unwrap();
        let Command::Run { readers, .. } = c else {
            panic!("run command");
        };
        assert_eq!(readers, 4);
        assert!(parse_args(&["run".into(), "f".into(), "--readers".into()]).is_err());
    }

    #[test]
    fn run_executes_uncertified_system_via_wait_die() {
        let sys = DEADLOCKY;
        let cmd = Command::Run {
            spec: String::new(),
            txns: 8,
            engine: EngineFlags {
                threads: 2,
                ..EngineFlags::new(1)
            },
            force_fallback: false,
            json: false,
            trace_sample: 0,
            trace_out: None,
            readers: 0,
        };
        let (out, code) = execute(&cmd, sys);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("fallback to wait-die"), "{out}");
    }

    #[test]
    fn run_with_inflation_prints_the_plan() {
        let sys = SPEC;
        let cmd = Command::Run {
            spec: String::new(),
            txns: 16,
            engine: EngineFlags {
                inflate: InflateSpec::Uniform(4),
                ..EngineFlags::new(1)
            },
            force_fallback: false,
            json: false,
            trace_sample: 0,
            trace_out: None,
            readers: 0,
        };
        let (out, code) = execute(&cmd, sys);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("k = 4"), "{out}");
        assert!(out.contains("aborts 0"), "{out}");
    }

    #[test]
    fn run_auto_inflation_on_uncertifiable_system_still_completes() {
        let sys = DEADLOCKY;
        let cmd = Command::Run {
            spec: String::new(),
            txns: 8,
            engine: EngineFlags {
                threads: 2,
                inflate: InflateSpec::Auto { cap: u32::MAX },
                ..EngineFlags::new(1)
            },
            force_fallback: false,
            json: false,
            trace_sample: 0,
            trace_out: None,
            readers: 0,
        };
        let (out, code) = execute(&cmd, sys);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("fallback to wait-die"), "{out}");
        assert!(out.contains("k = 1"), "{out}");
    }

    /// Looks a key up in a parsed JSON object (the vendored `Value` has
    /// no `Index` impl).
    fn jget<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
        v.field(key).unwrap_or_else(|e| panic!("{key}: {e}"))
    }

    /// `run --json` prints exactly one JSON object carrying the full
    /// report — committed counts, nonzero phase histograms (telemetry
    /// is on by default), store totals.
    #[test]
    fn run_json_emits_one_parseable_object() {
        let sys = SPEC;
        let cmd = Command::Run {
            spec: String::new(),
            txns: 8,
            engine: EngineFlags {
                threads: 2,
                ..EngineFlags::new(1)
            },
            force_fallback: false,
            json: true,
            trace_sample: 0,
            trace_out: None,
            readers: 0,
        };
        let (out, code) = execute(&cmd, sys);
        assert_eq!(code, 0, "{out}");
        use serde_json::Value;
        let v = serde_json::parse_value(out.trim()).expect("one JSON object");
        assert_eq!(jget(&v, "committed"), &Value::U64(8));
        assert_eq!(jget(&v, "serializable"), &Value::Bool(true));
        assert_eq!(jget(&v, "path"), &Value::Str("no-detector".to_string()));
        let phases = jget(&v, "phases");
        assert_eq!(jget(jget(phases, "commit"), "count"), &Value::U64(8));
        assert_eq!(jget(jget(phases, "execute"), "count"), &Value::U64(8));
        assert!(matches!(
            jget(jget(phases, "commit"), "p99_ns"),
            Value::U64(p) if *p > 0
        ));
        assert!(matches!(jget(jget(&v, "store"), "sum_int"), Value::Str(_)));
        assert_eq!(jget(&v, "per_template").as_arr().unwrap().len(), 2);
    }

    /// `--no-telemetry` zeroes the phase histograms but changes nothing
    /// else about the report.
    #[test]
    fn run_json_without_telemetry_has_empty_phases() {
        let sys = SPEC;
        let cmd = Command::Run {
            spec: String::new(),
            txns: 8,
            engine: EngineFlags {
                threads: 2,
                no_telemetry: true,
                ..EngineFlags::new(1)
            },
            force_fallback: false,
            json: true,
            trace_sample: 0,
            trace_out: None,
            readers: 0,
        };
        let (out, code) = execute(&cmd, sys);
        assert_eq!(code, 0, "{out}");
        use serde_json::Value;
        let v = serde_json::parse_value(out.trim()).unwrap();
        assert_eq!(jget(&v, "committed"), &Value::U64(8));
        assert_eq!(
            jget(jget(jget(&v, "phases"), "commit"), "count"),
            &Value::U64(0)
        );
    }

    /// `--wal --wal-sync` lights up the whole durability column: every
    /// phase the stats digest promises — lock_wait, wal_append, fsync,
    /// commit — records nonzero sample counts.
    #[test]
    fn run_wal_sync_records_fsync_histograms() {
        let dir = std::env::temp_dir().join(format!("ddlf-walsync-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let sys = SPEC;
        let cmd = Command::Run {
            spec: String::new(),
            txns: 8,
            engine: EngineFlags {
                threads: 2,
                wal: Some(dir.to_string_lossy().into_owned()),
                wal_sync: true,
                ..EngineFlags::new(1)
            },
            force_fallback: false,
            json: true,
            trace_sample: 0,
            trace_out: None,
            readers: 0,
        };
        let (out, code) = execute(&cmd, sys);
        assert_eq!(code, 0, "{out}");
        use serde_json::Value;
        let v = serde_json::parse_value(out.trim()).unwrap();
        let phases = jget(&v, "phases");
        for phase in ["lock_wait", "wal_append", "fsync", "commit"] {
            assert!(
                matches!(jget(jget(phases, phase), "count"), Value::U64(n) if *n > 0),
                "phase {phase} recorded no samples: {out}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_wal_sync_flag() {
        let args = vec![
            "run".to_string(),
            "s.json".to_string(),
            "--wal".to_string(),
            "/tmp/w".to_string(),
            "--wal-sync".to_string(),
        ];
        let Command::Run { engine, .. } = parse_args(&args).unwrap() else {
            panic!("not a run command");
        };
        assert_eq!(engine.wal.as_deref(), Some("/tmp/w"));
        assert!(engine.wal_sync);
    }

    #[test]
    fn parse_admission_batch() {
        let c = parse_args(&["run".into(), "f".into()]).unwrap();
        let Command::Run { engine, .. } = c else {
            panic!("run command");
        };
        assert_eq!(engine.admission_batch, 1);

        let c = parse_args(&[
            "run".into(),
            "f".into(),
            "--admission-batch".into(),
            "32".into(),
        ])
        .unwrap();
        let Command::Run { engine, .. } = c else {
            panic!("run command");
        };
        assert_eq!(engine.admission_batch, 32);

        assert!(parse_args(&[
            "run".into(),
            "f".into(),
            "--admission-batch".into(),
            "0".into()
        ])
        .is_err());
        assert!(parse_args(&["run".into(), "f".into(), "--admission-batch".into()]).is_err());

        // `serve` grows the same knobs plus `--wal-sync`.
        let c = parse_args(&[
            "serve".into(),
            "a".into(),
            "--wal-sync".into(),
            "--admission-batch".into(),
            "8".into(),
        ])
        .unwrap();
        let Command::Serve { engine, .. } = c else {
            panic!("serve command");
        };
        assert!(engine.wal_sync);
        assert_eq!(engine.admission_batch, 8);
    }

    /// A synced WAL: every decision is counted into some fsync's group,
    /// the report's amortization metrics are present, and the run still
    /// audits clean.
    #[test]
    fn run_wal_sync_json_exposes_amortization() {
        let dir = std::env::temp_dir().join(format!("ddlf-group-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let sys = SPEC;
        let cmd = Command::Run {
            spec: String::new(),
            txns: 16,
            engine: EngineFlags {
                wal: Some(dir.to_string_lossy().into_owned()),
                wal_sync: true,
                ..EngineFlags::new(4)
            },
            force_fallback: false,
            json: true,
            trace_sample: 0,
            trace_out: None,
            readers: 0,
        };
        let (out, code) = execute(&cmd, sys);
        assert_eq!(code, 0, "{out}");
        use serde_json::Value;
        let v = serde_json::parse_value(out.trim()).unwrap();
        assert_eq!(jget(&v, "committed"), &Value::U64(16));
        assert_eq!(jget(&v, "group_commits"), &Value::U64(16));
        assert!(
            matches!(jget(&v, "group_flushes"), Value::U64(n) if (1..=16).contains(n)),
            "{out}"
        );
        assert!(
            matches!(jget(&v, "mean_group_size"), Value::F64(m) if *m >= 1.0),
            "{out}"
        );
        assert!(
            matches!(jget(&v, "fsyncs_per_commit"), Value::F64(f) if *f > 0.0),
            "{out}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `--trace-sample 1 --trace-out` writes lifecycle JSON lines for
    /// every instance.
    #[test]
    fn run_trace_out_writes_jsonl() {
        let dir = std::env::temp_dir().join(format!("ddlf-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let sys = SPEC;
        let cmd = Command::Run {
            spec: String::new(),
            txns: 8,
            engine: EngineFlags {
                threads: 2,
                ..EngineFlags::new(1)
            },
            force_fallback: false,
            json: true,
            trace_sample: 1,
            trace_out: Some(path.to_string_lossy().into_owned()),
            readers: 0,
        };
        let (out, code) = execute(&cmd, sys);
        assert_eq!(code, 0, "{out}");
        let trace = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = trace.lines().collect();
        // Every instance is sampled at rate 1: at least admit + commit
        // per instance.
        assert!(lines.len() >= 16, "only {} trace lines", lines.len());
        for line in &lines {
            let ev = serde_json::parse_value(line).expect("valid JSON line");
            assert!(matches!(jget(&ev, "kind"), serde_json::Value::Str(_)));
            assert!(matches!(jget(&ev, "gid"), serde_json::Value::U64(_)));
        }
        assert!(trace.contains("\"commit\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `stats` against a telemetry-enabled in-process server: human and
    /// JSON renderings both reflect the submitted work.
    #[test]
    fn stats_round_trips_against_a_live_server() {
        let telemetry = Telemetry::new(TelemetryConfig::default());
        let server = ddlf_server::Server::bind(
            "127.0.0.1:0",
            ddlf_server::ServeConfig {
                engine: ddlf_engine::EngineConfig {
                    telemetry,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run());

        let mut client = Client::connect(&addr).unwrap();
        client.register(SPEC, InflateSpec::None).unwrap();
        client.submit_all(16).unwrap();

        let (out, code) = stats(&addr, false, false);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("commit"), "{out}");
        assert!(out.contains("T1"), "{out}");

        let (out, code) = stats(&addr, true, false);
        assert_eq!(code, 0, "{out}");
        use serde_json::Value;
        let v = serde_json::parse_value(out.trim()).unwrap();
        assert_eq!(jget(&v, "committed"), &Value::U64(16));
        assert_eq!(
            jget(jget(jget(&v, "phases"), "commit"), "count"),
            &Value::U64(16)
        );

        let (out, code) = stats(&addr, false, true);
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains("ddlf_phase_latency_seconds_count{phase=\"commit\"} 16"),
            "{out}"
        );
        assert!(
            out.contains("ddlf_template_committed_total{template=\"T1\"} 8"),
            "{out}"
        );

        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn stats_against_a_dead_address_fails_cleanly() {
        let (out, code) = stats("127.0.0.1:1", true, false);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("cannot connect"), "{out}");
    }

    #[test]
    fn audit_exit_contract() {
        // Clean certified run: every instance committed, audit said yes.
        assert!(!audit_exit_failure(8, true, Some(true)));
        // The audit finding a non-serializable history is a failure even
        // when everything committed.
        assert!(audit_exit_failure(8, true, Some(false)));
        // An unauditable run fails too — the pre-fix behavior exited 0
        // here.
        assert!(audit_exit_failure(8, true, None));
        assert!(audit_exit_failure(8, false, Some(true)));
        // A deliberately empty run has nothing to audit.
        assert!(!audit_exit_failure(0, true, None));
    }

    #[test]
    fn parse_serve_command() {
        let c = parse_args(&[
            "serve".into(),
            "127.0.0.1:7471".into(),
            "--threads".into(),
            "8".into(),
            "--inflate".into(),
            "auto".into(),
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Serve {
                addr: "127.0.0.1:7471".into(),
                engine: EngineFlags {
                    threads: 8,
                    inflate: InflateSpec::Auto { cap: u32::MAX },
                    ..EngineFlags::new(16)
                },
            }
        );
        assert!(parse_args(&["serve".into()]).is_err());
        assert!(parse_args(&["serve".into(), "a".into(), "--bogus".into()]).is_err());
    }

    #[test]
    fn parse_submit_command() {
        let c = parse_args(&[
            "submit".into(),
            "127.0.0.1:7471".into(),
            "f.json".into(),
            "--txns".into(),
            "32".into(),
            "--template".into(),
            "T1".into(),
            "--inflate".into(),
            "4".into(),
            "--expect-zero-aborts".into(),
            "--shutdown".into(),
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Submit {
                addr: "127.0.0.1:7471".into(),
                spec: "f.json".into(),
                txns: 32,
                template: Some("T1".into()),
                inflate: InflateSpec::Uniform(4),
                expect_zero_aborts: true,
                shutdown: true,
            }
        );
        assert!(
            parse_args(&["submit".into(), "addr".into()]).is_err(),
            "spec required"
        );
        assert!(parse_args(&["submit".into(), "a".into(), "f".into(), "--what".into()]).is_err());
    }

    /// End-to-end through the wire layer: an in-process server, the
    /// `submit` verb against it (certified spec, zero aborts,
    /// serializable), then `--shutdown` stops the serve loop.
    #[test]
    fn submit_round_trips_against_a_live_server() {
        let server =
            ddlf_server::Server::bind("127.0.0.1:0", ddlf_server::ServeConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run());

        let cmd = Command::Submit {
            addr: addr.clone(),
            spec: String::new(),
            txns: 16,
            template: None,
            inflate: InflateSpec::Uniform(2),
            expect_zero_aborts: true,
            shutdown: false,
        };
        let (out, code) = execute(&cmd, SPEC);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("certified"), "{out}");
        assert!(out.contains("k = 2"), "{out}");
        assert!(out.contains("committed 16/16"), "{out}");
        assert!(out.contains("cumulative:"), "{out}");

        // A second `submit` invocation re-registers, which *replaces*
        // the engine: fresh store, fresh cumulative counters.
        let cmd = Command::Submit {
            addr,
            spec: String::new(),
            txns: 16,
            template: None,
            inflate: InflateSpec::Uniform(2),
            expect_zero_aborts: true,
            shutdown: true,
        };
        let (out, code) = execute(&cmd, SPEC);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("cumulative: committed 16/16"), "{out}");
        assert!(out.contains("server shutting down"), "{out}");
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn submit_against_a_dead_address_fails_cleanly() {
        let cmd = Command::Submit {
            addr: "127.0.0.1:1".into(), // reserved port, nothing listens
            spec: String::new(),
            txns: 4,
            template: None,
            inflate: InflateSpec::None,
            expect_zero_aborts: false,
            shutdown: false,
        };
        let (out, code) = execute(&cmd, SPEC);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("cannot connect"), "{out}");
    }

    #[test]
    fn bad_spec_reported() {
        assert!(load_system("{").is_err());
        assert!(load_system(r#"{"entities": [], "transactions": []}"#).is_ok());
        let bad = r#"{
          "entities": [ {"name": "x", "site": 0} ],
          "transactions": [ { "name": "T", "ops": ["L x"] } ]
        }"#;
        assert!(load_system(bad).is_err(), "missing unlock must be rejected");
    }
}
