//! # ddlf-cli — audit locked transaction systems from the command line
//!
//! The binary reads a [`ddlf_model::SystemSpec`] JSON file and runs the
//! paper's analyses on it:
//!
//! ```text
//! ddlf-audit certify  system.json [--inflate k|auto] [--json]   # Theorems 3/4: safe + deadlock-free?
//! ddlf-audit deadlock system.json          # exhaustive deadlock search (small systems)
//! ddlf-audit explore  system.json [--txns N] [--budget S] [--seed K] [--json]
//!                     [--expect-counterexample] [--trace-out FILE] [--no-prune] [--no-replay]
//! ddlf-audit simulate system.json [--policy detect|wound-wait|wait-die|nothing] [--seeds N]
//! ddlf-audit run      system.json [--txns N] [--threads K] [--inflate k|auto] [--force-fallback]
//!                     [--wal DIR] [--wal-sync] [--group-commit[=MAX]] [--admission-batch N]
//!                     [--json] [--no-telemetry] [--trace-sample N] [--trace-out FILE]
//! ddlf-audit recover  <wal-dir> [--expect-total N] [--json]   # replay + re-audit a WAL
//! ddlf-audit dot      system.json          # Graphviz rendering
//! ddlf-audit serve    <addr> [--threads K] [--inflate k|auto] [--wal DIR] [--wal-sync]
//!                     [--group-commit[=MAX]] [--admission-batch N] [--no-telemetry]
//! ddlf-audit submit   <addr> system.json [--txns N] [--template NAME] [--inflate k|auto]
//!                     [--expect-zero-aborts] [--shutdown]
//! ddlf-audit stats    <addr> [--json|--prom]   # live telemetry digest, no pause
//! ```
//!
//! `run` executes the system on the `ddlf-engine` key-value store:
//! certified systems take the no-detector path, uncertified ones fall
//! back to wait-die. `--inflate k` asks for `k` concurrent instances per
//! template (certified up front, floored to 1 on rejection); `--inflate
//! auto` searches for the largest certified uniform k up to the worker
//! count. The admission plan is printed either way. The exit code is the
//! audit: nonzero unless every instance committed **and** the committed
//! history audited serializable (`D(S)` said yes, not merely "no abort
//! was seen").
//!
//! `certify --inflate k|auto` certifies the inflation `run` would be
//! granted (`auto` searches up to `run`'s default worker count) and
//! prints the admission plan, Theorem 4's `pairs/cycles/orderings`
//! counters on the granted system and the time admission took; it exits
//! 0 only if the request was granted in full with the safety guarantee.
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
//! `run --wal DIR` writes every store write, commit decision, and
//! history event to a write-ahead log; `recover` replays such a
//! directory — typically one left behind by a killed process — into a
//! fresh store, re-runs the `D(S)` audit over the recovered committed
//! history, and exits 0 only if the audit passes (plus the optional
//! `--expect-total` conservation check on the recovered Σint).
//!
//! `serve` exposes the same engine over TCP (`ddlf-server`'s framed
//! binary protocol) and blocks until a client sends `Shutdown`; `submit`
//! registers a spec with a running server, executes instances over the
//! wire, prints the server's audited report, and exits with the same
//! code contract as `run` (plus `--expect-zero-aborts`, which also fails
//! the exit code on any wait-die retry — the certified path's promise).
//!
//! `run` and `serve` record phase-latency histograms and per-template
//! outcome counters by default (`ddlf-telemetry`; `--no-telemetry`
//! turns them off, `--trace-sample N` additionally traces one instance
//! lifecycle in N). `stats` asks a running server for its live digest —
//! answered lock-free, so it works *during* a long submission — as
//! human text, `--json`, or `--prom` Prometheus-style exposition.
//! `run --json` / `recover --json` print the full report as a single
//! JSON object on stdout for scripting.
//!
//! The command logic lives in this library crate so it is unit-testable;
//! `main.rs` only parses arguments.

#![warn(missing_docs)]

use ddlf_core::{certify_safe_and_deadlock_free, Certificate, CertifyOptions, Explorer};
use ddlf_engine::{AdmissionOptions, Inflation, Phase, Report, Telemetry, TelemetryConfig};
use ddlf_model::{SystemSpec, TransactionSystem};
use ddlf_server::{Client, InflateSpec, ServeConfig, Server, StatsSnapshot};
use ddlf_sim::{run, DeadlockPolicy, SimConfig};
use std::fmt::Write as _;
use std::time::Duration;

/// The `--inflate` argument of `run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InflateArg {
    /// Search for the largest certified uniform k (capped at the worker
    /// count — extra slots beyond the workers cannot be exploited).
    Auto,
    /// A fixed uniform k per template.
    Uniform(usize),
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `certify <spec> [--inflate k|auto] [--json]`
    Certify {
        /// Path to the spec JSON.
        spec: String,
        /// Certify this per-template concurrency instead of the system
        /// as written, and print the admission plan it would be granted.
        inflate: Option<InflateArg>,
        /// Emit the admission plan as one JSON object on stdout.
        json: bool,
    },
    /// `deadlock <spec>`
    Deadlock {
        /// Path to the spec JSON.
        spec: String,
    },
    /// `explore <spec> [--txns N] [--budget S] [--seed K] [--json]
    /// [--expect-counterexample] [--trace-out FILE] [--no-prune] [--no-replay]`
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
    /// `simulate <spec> [--policy P] [--seeds N]`
    Simulate {
        /// Path to the spec JSON.
        spec: String,
        /// Policy name.
        policy: String,
        /// Number of seeds to run.
        seeds: u64,
    },
    /// `run <spec> [--txns N] [--threads K] [--inflate k|auto] [--force-fallback] [--wal DIR]
    /// [--wal-sync]`
    Run {
        /// Path to the spec JSON.
        spec: String,
        /// Transaction instances to execute.
        txns: usize,
        /// Worker threads.
        threads: usize,
        /// Requested per-template concurrency (certified up front).
        inflate: Option<InflateArg>,
        /// Run wait-die even if the system certifies.
        force_fallback: bool,
        /// Simulated per-lock work in microseconds (widens contention
        /// windows so fallback runs really exercise aborts).
        work_us: u64,
        /// Write-ahead log directory (rotated at engine creation).
        wal: Option<String>,
        /// Fsync WAL data logs + commit record on every commit (durable
        /// against power loss; the `fsync` phase histogram measures it).
        wal_sync: bool,
        /// Sizes the commit group: decisions are always queued and
        /// flushed by a leader in batches of up to this size — one
        /// buffered write and (under `--wal-sync`) one fsync per
        /// *group*. `None` = the engine's default size; `Some(1)` = one
        /// decision record per commit.
        group_commit: Option<usize>,
        /// Admit and timestamp instances in chunks of this size: one
        /// `SlotGate` acquisition per template per chunk and one shared
        /// critical section per chunk (1 = per-instance admission).
        admission_batch: usize,
        /// Emit the full report as one JSON object on stdout instead of
        /// the human rendering.
        json: bool,
        /// Run with telemetry disabled (histograms are on by default;
        /// this is the control arm of the overhead benchmark).
        no_telemetry: bool,
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
    /// `recover <wal-dir> [--expect-total N] [--json]`
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
    /// `serve <addr> [--threads K] [--inflate k|auto] [--wal DIR]`
    Serve {
        /// Address to bind (e.g. `127.0.0.1:7471`, or port `0` for
        /// ephemeral).
        addr: String,
        /// Worker threads per submission run.
        threads: usize,
        /// Server-side default inflation, applied when a registration
        /// does not request one.
        inflate: Option<InflateArg>,
        /// Write-ahead log directory; if it already holds a WAL, the
        /// server recovers it and starts with the replayed engine.
        wal: Option<String>,
        /// Fsync WAL data logs + commit record before acknowledging a
        /// commit (durable against power loss).
        wal_sync: bool,
        /// Commit-group size for registered engines (see `run`'s flag
        /// of the same name).
        group_commit: Option<usize>,
        /// Admission/timestamp chunk size for submissions (the server
        /// defaults to 16 to amortize the wire path's per-instance
        /// overhead; 1 = per-instance admission).
        admission_batch: usize,
        /// Serve with telemetry disabled (histograms are on by default,
        /// feeding the `stats` verb's live digest).
        no_telemetry: bool,
    },
    /// `submit <addr> <spec> [--txns N] [--template NAME] [--inflate k|auto]
    /// [--expect-zero-aborts] [--shutdown]`
    Submit {
        /// Address of a running `ddlf-audit serve`.
        addr: String,
        /// Path to the spec JSON to register.
        spec: String,
        /// Transaction instances to execute over the wire.
        txns: usize,
        /// Submit only this template (default: round-robin over all).
        template: Option<String>,
        /// Requested per-template concurrency, certified by the server.
        inflate: Option<InflateArg>,
        /// Fail the exit code if any attempt aborted (the certified
        /// path's zero-abort promise, asserted end to end).
        expect_zero_aborts: bool,
        /// Send `Shutdown` after reporting, stopping the server.
        shutdown: bool,
    },
    /// `lockgraph [--dot]`
    Lockgraph {
        /// Emit the observed class-order DAG as Graphviz instead of the
        /// human report.
        dot: bool,
    },
    /// `stats <addr> [--json|--prom]`
    Stats {
        /// Address of a running `ddlf-audit serve`.
        addr: String,
        /// Emit the digest as one JSON object on stdout.
        json: bool,
        /// Emit Prometheus-style text exposition instead of the human
        /// rendering.
        prom: bool,
    },
    /// `read <addr> <all|e1,e2,...> [--json] [--expect-total N]
    /// [--conserve-step B:S]`
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

/// Parses `--inflate`'s value (`auto` or a `k ≥ 1`).
fn parse_inflate(v: &str) -> Result<InflateArg, String> {
    if v == "auto" {
        return Ok(InflateArg::Auto);
    }
    let k: usize = v
        .parse()
        .map_err(|e| format!("bad --inflate: {e} (want a k ≥ 1 or `auto`)"))?;
    if k == 0 {
        return Err("bad --inflate: k must be ≥ 1".to_string());
    }
    Ok(InflateArg::Uniform(k))
}

/// Parses `--conserve-step`'s `B:S` value: base total and per-commit
/// step quantum (`S ≥ 1`).
fn parse_conserve_step(v: &str) -> Result<(u128, u128), String> {
    let (b, s) = v
        .split_once(':')
        .ok_or_else(|| format!("bad --conserve-step {v:?}: want BASE:STEP"))?;
    let base: u128 = b
        .parse()
        .map_err(|e| format!("bad --conserve-step base: {e}"))?;
    let step: u128 = s
        .parse()
        .map_err(|e| format!("bad --conserve-step step: {e}"))?;
    if step == 0 {
        return Err("bad --conserve-step: step must be ≥ 1".to_string());
    }
    Ok((base, step))
}

/// Parses `--group-commit[=MAX]`. Every decision goes through the group
/// committer, so the flag only sizes the group: bare (or absent) is the
/// engine's default, `=MAX` overrides it (`MAX ≥ 1`; 1 = unbatched).
fn parse_group_commit(arg: &str) -> Result<usize, String> {
    match arg.strip_prefix("--group-commit=") {
        None => Ok(ddlf_engine::DEFAULT_MAX_GROUP),
        Some(v) => {
            let max: usize = v
                .parse()
                .map_err(|e| format!("bad --group-commit: {e} (want a max group size ≥ 1)"))?;
            if max == 0 {
                return Err("bad --group-commit: max group size must be ≥ 1".to_string());
            }
            Ok(max)
        }
    }
}

/// Parses CLI arguments (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(usage)?;
    // `lockgraph` takes no spec — its workload is built in.
    if cmd == "lockgraph" {
        let mut dot = false;
        for a in it {
            match a.as_str() {
                "--dot" => dot = true,
                other => return Err(format!("unknown lockgraph flag {other}\n{}", usage())),
            }
        }
        return Ok(Command::Lockgraph { dot });
    }
    // Second positional: a spec path for the analysis commands, the
    // server address for the wire commands.
    let spec = it.next().ok_or_else(usage)?.clone();
    match cmd.as_str() {
        "certify" => {
            let mut inflate = None;
            let mut json = false;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--inflate" => {
                        inflate = Some(parse_inflate(take_value(&rest, &mut i, "--inflate")?)?);
                    }
                    "--json" => {
                        json = true;
                        i += 1;
                    }
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            Ok(Command::Certify {
                spec,
                inflate,
                json,
            })
        }
        "deadlock" | "dot" => match it.next() {
            Some(other) => Err(format!("unknown flag {other}")),
            None if cmd == "dot" => Ok(Command::Dot { spec }),
            None => Ok(Command::Deadlock { spec }),
        },
        "explore" => {
            let mut txns = None;
            let mut budget = 1_000_000u64;
            let mut seed = 0u64;
            let mut json = false;
            let mut expect_counterexample = false;
            let mut trace_out = None;
            let mut no_prune = false;
            let mut no_replay = false;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--txns" => {
                        let n: usize = parse_value(&rest, &mut i, "--txns")?;
                        if n == 0 {
                            return Err("bad --txns: must be ≥ 1".to_string());
                        }
                        txns = Some(n);
                    }
                    "--budget" => budget = parse_value(&rest, &mut i, "--budget")?,
                    "--seed" => seed = parse_value(&rest, &mut i, "--seed")?,
                    "--json" => {
                        json = true;
                        i += 1;
                    }
                    "--expect-counterexample" => {
                        expect_counterexample = true;
                        i += 1;
                    }
                    "--trace-out" => {
                        trace_out = Some(take_value(&rest, &mut i, "--trace-out")?.to_string());
                    }
                    "--no-prune" => {
                        no_prune = true;
                        i += 1;
                    }
                    "--no-replay" => {
                        no_replay = true;
                        i += 1;
                    }
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            Ok(Command::Explore {
                spec,
                txns,
                budget,
                seed,
                json,
                expect_counterexample,
                trace_out,
                no_prune,
                no_replay,
            })
        }
        "simulate" => {
            let mut policy = "detect".to_string();
            let mut seeds = 10u64;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--policy" => policy = take_value(&rest, &mut i, "--policy")?.to_string(),
                    "--seeds" => seeds = parse_value(&rest, &mut i, "--seeds")?,
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            Ok(Command::Simulate {
                spec,
                policy,
                seeds,
            })
        }
        "run" => {
            let mut txns = 64usize;
            let mut threads = DEFAULT_THREADS;
            let mut inflate = None;
            let mut force_fallback = false;
            let mut work_us = 0u64;
            let mut wal = None;
            let mut wal_sync = false;
            let mut group_commit = None;
            let mut admission_batch = 1usize;
            let mut json = false;
            let mut no_telemetry = false;
            let mut trace_sample = 0u32;
            let mut trace_out = None;
            let mut readers = 0usize;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--txns" => {
                        txns = parse_value(&rest, &mut i, "--txns")?;
                        if txns > u32::MAX as usize {
                            return Err(format!("bad --txns: {txns} exceeds {}", u32::MAX));
                        }
                    }
                    "--threads" => threads = parse_value(&rest, &mut i, "--threads")?,
                    "--inflate" => {
                        inflate = Some(parse_inflate(take_value(&rest, &mut i, "--inflate")?)?);
                    }
                    "--force-fallback" => {
                        force_fallback = true;
                        i += 1;
                    }
                    "--work" => work_us = parse_value(&rest, &mut i, "--work")?,
                    "--wal" => wal = Some(take_value(&rest, &mut i, "--wal")?.to_string()),
                    "--wal-sync" => {
                        wal_sync = true;
                        i += 1;
                    }
                    s if s == "--group-commit" || s.starts_with("--group-commit=") => {
                        group_commit = Some(parse_group_commit(s)?);
                        i += 1;
                    }
                    "--admission-batch" => {
                        admission_batch = parse_value(&rest, &mut i, "--admission-batch")?;
                        if admission_batch == 0 {
                            return Err("bad --admission-batch: must be ≥ 1".to_string());
                        }
                    }
                    "--json" => {
                        json = true;
                        i += 1;
                    }
                    "--no-telemetry" => {
                        no_telemetry = true;
                        i += 1;
                    }
                    "--trace-sample" => {
                        trace_sample = parse_value(&rest, &mut i, "--trace-sample")?;
                    }
                    "--trace-out" => {
                        trace_out = Some(take_value(&rest, &mut i, "--trace-out")?.to_string());
                    }
                    "--readers" => readers = parse_value(&rest, &mut i, "--readers")?,
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            Ok(Command::Run {
                spec,
                txns,
                threads,
                inflate,
                force_fallback,
                work_us,
                wal,
                wal_sync,
                group_commit,
                admission_batch,
                json,
                no_telemetry,
                trace_sample,
                trace_out,
                readers,
            })
        }
        "recover" => {
            let dir = spec;
            let mut expect_total = None;
            let mut json = false;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--expect-total" => {
                        expect_total = Some(parse_value(&rest, &mut i, "--expect-total")?);
                    }
                    "--json" => {
                        json = true;
                        i += 1;
                    }
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            Ok(Command::Recover {
                dir,
                expect_total,
                json,
            })
        }
        "serve" => {
            let addr = spec;
            let mut threads = DEFAULT_THREADS;
            let mut inflate = None;
            let mut wal = None;
            let mut wal_sync = false;
            let mut group_commit = None;
            // The server's batched-admission default: submissions arrive
            // over the wire one RPC at a time, so the per-instance
            // admission overhead is pure tax there.
            let mut admission_batch = 16usize;
            let mut no_telemetry = false;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--threads" => threads = parse_value(&rest, &mut i, "--threads")?,
                    "--inflate" => {
                        inflate = Some(parse_inflate(take_value(&rest, &mut i, "--inflate")?)?);
                    }
                    "--wal" => wal = Some(take_value(&rest, &mut i, "--wal")?.to_string()),
                    "--wal-sync" => {
                        wal_sync = true;
                        i += 1;
                    }
                    s if s == "--group-commit" || s.starts_with("--group-commit=") => {
                        group_commit = Some(parse_group_commit(s)?);
                        i += 1;
                    }
                    "--admission-batch" => {
                        admission_batch = parse_value(&rest, &mut i, "--admission-batch")?;
                        if admission_batch == 0 {
                            return Err("bad --admission-batch: must be ≥ 1".to_string());
                        }
                    }
                    "--no-telemetry" => {
                        no_telemetry = true;
                        i += 1;
                    }
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            Ok(Command::Serve {
                addr,
                threads,
                inflate,
                wal,
                wal_sync,
                group_commit,
                admission_batch,
                no_telemetry,
            })
        }
        "stats" => {
            let addr = spec;
            let mut json = false;
            let mut prom = false;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--json" => {
                        json = true;
                        i += 1;
                    }
                    "--prom" => {
                        prom = true;
                        i += 1;
                    }
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            Ok(Command::Stats { addr, json, prom })
        }
        "read" => {
            let addr = spec;
            let mut it2 = it;
            let which = it2
                .next()
                .ok_or_else(|| format!("read needs <addr> <all|e1,e2,...>\n{}", usage()))?;
            let entities: Vec<String> = if which == "all" {
                vec![]
            } else {
                which.split(',').map(str::to_string).collect()
            };
            let mut json = false;
            let mut expect_total = None;
            let mut conserve_step = None;
            let rest: Vec<&String> = it2.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--json" => {
                        json = true;
                        i += 1;
                    }
                    "--expect-total" => {
                        expect_total = Some(parse_value(&rest, &mut i, "--expect-total")?);
                    }
                    "--conserve-step" => {
                        conserve_step = Some(parse_conserve_step(take_value(
                            &rest,
                            &mut i,
                            "--conserve-step",
                        )?)?);
                    }
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            Ok(Command::Read {
                addr,
                entities,
                json,
                expect_total,
                conserve_step,
            })
        }
        "submit" => {
            let addr = spec;
            let mut it2 = it;
            let spec = it2
                .next()
                .ok_or_else(|| format!("submit needs <addr> <spec.json>\n{}", usage()))?
                .clone();
            let mut txns = 64usize;
            let mut template = None;
            let mut inflate = None;
            let mut expect_zero_aborts = false;
            let mut shutdown = false;
            let rest: Vec<&String> = it2.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--txns" => {
                        txns = parse_value(&rest, &mut i, "--txns")?;
                        if txns > u32::MAX as usize {
                            return Err(format!("bad --txns: {txns} exceeds {}", u32::MAX));
                        }
                    }
                    "--template" => {
                        template = Some(take_value(&rest, &mut i, "--template")?.to_string());
                    }
                    "--inflate" => {
                        inflate = Some(parse_inflate(take_value(&rest, &mut i, "--inflate")?)?);
                    }
                    "--expect-zero-aborts" => {
                        expect_zero_aborts = true;
                        i += 1;
                    }
                    "--shutdown" => {
                        shutdown = true;
                        i += 1;
                    }
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            Ok(Command::Submit {
                addr,
                spec,
                txns,
                template,
                inflate,
                expect_zero_aborts,
                shutdown,
            })
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

/// Consumes the value following the flag at `rest[*i]`.
fn take_value<'a>(rest: &[&'a String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    let v = rest
        .get(*i + 1)
        .ok_or_else(|| format!("missing value for {flag}"))?;
    *i += 2;
    Ok(v)
}

/// [`take_value`] plus `FromStr` parsing with a uniform error shape.
fn parse_value<T: std::str::FromStr>(
    rest: &[&String],
    i: &mut usize,
    flag: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    take_value(rest, i, flag)?
        .parse()
        .map_err(|e| format!("bad {flag}: {e}"))
}

fn usage() -> String {
    "usage: ddlf-audit <deadlock|dot> <system.json>\n\
     \x20      ddlf-audit certify <system.json> [--inflate k|auto] [--json]\n\
     \x20      ddlf-audit simulate <system.json> \
     [--policy nothing|detect|wound-wait|wait-die] [--seeds N]\n\
     \x20      ddlf-audit run <system.json> \
     [--txns N] [--threads K] [--inflate k|auto] [--force-fallback] [--work USEC] [--wal DIR] \
     [--wal-sync] [--group-commit[=MAX]] [--admission-batch N] [--json] [--no-telemetry] \
     [--trace-sample N] [--trace-out FILE] [--readers R]\n\
     \x20      ddlf-audit explore <system.json> [--txns N] [--budget S] [--seed K] [--json] \
     [--expect-counterexample] [--trace-out FILE] [--no-prune] [--no-replay]\n\
     \x20      ddlf-audit recover <wal-dir> [--expect-total N] [--json]\n\
     \x20      ddlf-audit serve <addr> [--threads K] [--inflate k|auto] [--wal DIR] \
     [--wal-sync] [--group-commit[=MAX]] [--admission-batch N] [--no-telemetry]\n\
     \x20      ddlf-audit submit <addr> <system.json> [--txns N] [--template NAME] \
     [--inflate k|auto] [--expect-zero-aborts] [--shutdown]\n\
     \x20      ddlf-audit stats <addr> [--json|--prom]\n\
     \x20      ddlf-audit read <addr> <all|e1,e2,...> [--json] [--expect-total N] \
     [--conserve-step B:S]\n\
     \x20      ddlf-audit lockgraph [--dot]   (build with --features lockdep)\n\
     \x20      (--group-commit[=MAX] only sizes the commit group every decision goes \
     through; 1 = one decision record per commit)"
        .to_string()
}

/// The exit-code contract of `run` and `submit`: success requires that
/// every instance committed **and** the committed history *audited*
/// serializable. An unauditable run (`serializable == None` with
/// instances submitted — a dirty abort voided the audit, or the audit
/// itself failed) is a failure too; previously it exited 0, which the
/// CI wire-smoke step cannot tolerate.
pub fn audit_exit_failure(
    instances: usize,
    all_committed: bool,
    dirty_aborts: usize,
    serializable: Option<bool>,
) -> bool {
    !all_committed || dirty_aborts > 0 || (instances > 0 && serializable != Some(true))
}

/// `--threads`' default for `run` and `serve`, and `certify --inflate
/// auto`'s search cap.
const DEFAULT_THREADS: usize = 4;

/// Maps the CLI `--inflate` argument onto an in-process admission
/// request; `auto` searches up to the worker count (slots beyond the
/// workers cannot be exploited).
fn admission_options(inflate: Option<InflateArg>, threads: usize) -> AdmissionOptions {
    AdmissionOptions {
        inflate: match inflate {
            None => Inflation::None,
            Some(InflateArg::Uniform(k)) => Inflation::Uniform(k),
            Some(InflateArg::Auto) => Inflation::Auto {
                cap: threads.max(1),
            },
        },
        ..Default::default()
    }
}

/// Maps the CLI `--inflate` argument onto the wire protocol's request.
/// `Auto` sends an uncapped search; the server clamps the cap to its
/// own worker count (slots beyond the workers cannot be exploited).
fn wire_inflate(inflate: Option<InflateArg>) -> InflateSpec {
    match inflate {
        None => InflateSpec::None,
        Some(InflateArg::Uniform(k)) => InflateSpec::Uniform(u32::try_from(k).unwrap_or(u32::MAX)),
        Some(InflateArg::Auto) => InflateSpec::Auto { cap: u32::MAX },
    }
}

/// Builds the telemetry handle `run` and `serve` record into:
/// histograms on unless `--no-telemetry`, tracing at the requested
/// sample rate.
fn make_telemetry(no_telemetry: bool, trace_sample: u32) -> Telemetry {
    if no_telemetry {
        Telemetry::disabled()
    } else {
        Telemetry::new(TelemetryConfig {
            trace_sample,
            ..Default::default()
        })
    }
}

/// Builds a JSON object from key/value pairs (the vendored `serde_json`
/// has no `json!` macro; objects are ordered `Vec`s of entries).
fn jobj(pairs: Vec<(&str, serde_json::Value)>) -> serde_json::Value {
    serde_json::Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn ju(n: u64) -> serde_json::Value {
    serde_json::Value::U64(n)
}

/// One explorer counterexample as a self-contained JSON object — the
/// line format of `explore --trace-out` (names resolved against the
/// explored system, so a trace is readable without the spec).
fn counterexample_json(
    sys: &TransactionSystem,
    ce: &ddlf_model::Counterexample,
    rep: Option<&ddlf_engine::ReplayReport>,
) -> serde_json::Value {
    use serde_json::Value;
    let tname = |t: ddlf_model::TxnId| Value::Str(sys.txn(t).name().to_string());
    let ename = |e: ddlf_model::EntityId| Value::Str(sys.db().name_of(e).to_string());
    jobj(vec![
        ("kind", Value::Str(ce.kind.name().to_string())),
        (
            "cycle",
            Value::Arr(ce.cycle.iter().map(|&t| tname(t)).collect()),
        ),
        (
            "cycle_entities",
            Value::Arr(ce.cycle_entities.iter().map(|&e| ename(e)).collect()),
        ),
        (
            "stuck",
            Value::Arr(ce.stuck.iter().map(|&t| tname(t)).collect()),
        ),
        (
            "waits_for",
            Value::Arr(
                ce.waits_for
                    .iter()
                    .map(|w| {
                        jobj(vec![
                            ("waiter", tname(w.waiter)),
                            ("entity", ename(w.entity)),
                            ("holder", tname(w.holder)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "steps",
            Value::Arr(
                ce.steps
                    .iter()
                    .map(|g| {
                        let t = sys.txn(g.txn);
                        let op = t.op(g.node);
                        jobj(vec![
                            ("txn", ju(u64::from(g.txn.0))),
                            ("name", Value::Str(t.name().to_string())),
                            (
                                "op",
                                Value::Str(if op.is_lock() { "L" } else { "U" }.to_string()),
                            ),
                            ("entity", ename(op.entity)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "replay",
            match rep {
                None => Value::Null,
                Some(r) => jobj(vec![
                    ("committed", ju(r.committed as u64)),
                    ("instances", ju(r.instances as u64)),
                    ("aborts", ju(u64::from(r.aborts))),
                    ("rolled_back", ju(u64::from(r.rolled_back))),
                    (
                        "serializable",
                        r.serializable.map_or(Value::Null, Value::Bool),
                    ),
                ]),
            },
        ),
    ])
}

/// Renders a run's per-phase histograms as a JSON object keyed by phase
/// name (`{"lock_wait": {"count": …, "p99_ns": …}, …}`).
fn phases_json(phases: &ddlf_engine::PhaseSnapshot) -> serde_json::Value {
    serde_json::Value::Obj(
        Phase::ALL
            .iter()
            .map(|&p| {
                let h = phases.get(p);
                (
                    p.name().to_string(),
                    jobj(vec![
                        ("count", ju(h.count)),
                        ("sum_ns", ju(h.sum)),
                        ("mean_ns", ju(h.mean())),
                        ("p50_ns", ju(h.p50())),
                        ("p95_ns", ju(h.p95())),
                        ("p99_ns", ju(h.p99())),
                        ("max_ns", ju(h.max)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The full [`Report`] as one JSON object — the `--json` output of
/// `run`, stable enough for scripting (CI parses it).
pub fn report_json(report: &Report) -> serde_json::Value {
    use serde_json::Value;
    jobj(vec![
        ("verdict", Value::Str(report.verdict.to_string())),
        (
            "path",
            Value::Str(
                if report.verdict.is_certified() && !report.forced_fallback {
                    "no-detector"
                } else {
                    "wait-die"
                }
                .to_string(),
            ),
        ),
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
        (
            "throughput_per_sec",
            Value::F64(report.throughput_per_sec()),
        ),
        (
            "serializable",
            report.serializable.map_or(Value::Null, Value::Bool),
        ),
        ("history_len", ju(report.history_len as u64)),
        ("peak_inflight", ju(report.peak_inflight() as u64)),
        ("group_flushes", ju(report.group_flushes)),
        ("group_commits", ju(report.group_commits)),
        (
            // Commit decisions per leader flush — 1.0 means no decision
            // ever found a companion; higher is amortization.
            "mean_group_size",
            Value::F64(if report.group_flushes == 0 {
                0.0
            } else {
                report.group_commits as f64 / report.group_flushes as f64
            }),
        ),
        (
            // The durability cost per commit: fsync calls over committed
            // instances. A group of one pays ≥ 1.0; larger groups
            // amortize it below 1.0. 0.0 when fsync never ran.
            "fsyncs_per_commit",
            Value::F64(if report.committed == 0 {
                0.0
            } else {
                report.phases.get(Phase::Fsync).count as f64 / report.committed as f64
            }),
        ),
        (
            "latency_us",
            jobj(vec![
                ("mean", Value::F64(report.latency.mean_us)),
                ("p50", ju(report.latency.p50_us)),
                ("p99", ju(report.latency.p99_us)),
                ("max", ju(report.latency.max_us)),
            ]),
        ),
        ("phases", phases_json(&report.phases)),
        (
            "per_template",
            Value::Arr(
                report
                    .per_template
                    .iter()
                    .map(|t| {
                        jobj(vec![
                            ("name", Value::Str(t.name.clone())),
                            ("certified_slots", Value::Str(t.certified_slots.to_string())),
                            ("peak_inflight", ju(t.peak_inflight as u64)),
                            ("committed", ju(t.committed as u64)),
                            ("aborted_attempts", ju(t.aborted_attempts as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Fsync calls per committed instance from a server digest — the
/// amortization the `stats` verb surfaces so group commit's effect is
/// observable, not inferred. `None` when nothing committed yet.
fn fsyncs_per_commit(s: &StatsSnapshot) -> Option<f64> {
    let committed = s.committed();
    if committed == 0 {
        return None;
    }
    let fsyncs = s
        .phases
        .iter()
        .find(|p| p.name == "fsync")
        .map_or(0, |p| p.count);
    Some(fsyncs as f64 / committed as f64)
}

/// The `stats --json` rendering of a server digest.
fn stats_json(s: &StatsSnapshot) -> serde_json::Value {
    use serde_json::Value;
    jobj(vec![
        ("uptime_us", ju(s.uptime_us)),
        ("inflight", Value::I64(s.inflight)),
        ("auditor_nodes", ju(s.auditor_nodes)),
        ("auditor_arcs", ju(s.auditor_arcs)),
        ("wal_bytes", ju(s.wal_bytes)),
        ("trace_captured", ju(s.trace_captured)),
        ("trace_dropped", ju(s.trace_dropped)),
        ("group_flushes", ju(s.group_flushes)),
        ("group_commits", ju(s.group_commits)),
        ("chain_versions", ju(s.chain_versions)),
        ("chain_max_len", ju(s.chain_max_len)),
        ("chain_watermark", ju(s.chain_watermark)),
        (
            "mean_group_size",
            Value::F64(if s.group_flushes == 0 {
                0.0
            } else {
                s.group_commits as f64 / s.group_flushes as f64
            }),
        ),
        (
            "fsyncs_per_commit",
            Value::F64(fsyncs_per_commit(s).unwrap_or(0.0)),
        ),
        ("committed", ju(s.committed())),
        (
            "phases",
            Value::Obj(
                s.phases
                    .iter()
                    .map(|p| {
                        (
                            p.name.clone(),
                            jobj(vec![
                                ("count", ju(p.count)),
                                ("sum_ns", ju(p.sum_ns)),
                                ("p50_ns", ju(p.p50_ns)),
                                ("p95_ns", ju(p.p95_ns)),
                                ("p99_ns", ju(p.p99_ns)),
                                ("max_ns", ju(p.max_ns)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "templates",
            Value::Arr(
                s.templates
                    .iter()
                    .map(|t| {
                        jobj(vec![
                            ("name", Value::Str(t.name.clone())),
                            ("committed", ju(t.committed)),
                            ("aborted", ju(t.aborted)),
                            ("wounds", ju(t.wounds)),
                            ("dies", ju(t.dies)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Escapes a Prometheus label value (backslash, quote, newline).
fn prom_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// The `stats --prom` rendering: Prometheus text exposition, phase
/// histogram digests as summaries (quantile labels), counters as
/// `_total` series.
fn stats_prom(s: &StatsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# TYPE ddlf_uptime_seconds gauge");
    let _ = writeln!(out, "ddlf_uptime_seconds {}", s.uptime_us as f64 / 1e6);
    let _ = writeln!(out, "# TYPE ddlf_inflight gauge");
    let _ = writeln!(out, "ddlf_inflight {}", s.inflight);
    let _ = writeln!(out, "# TYPE ddlf_auditor_nodes gauge");
    let _ = writeln!(out, "ddlf_auditor_nodes {}", s.auditor_nodes);
    let _ = writeln!(out, "# TYPE ddlf_auditor_arcs gauge");
    let _ = writeln!(out, "ddlf_auditor_arcs {}", s.auditor_arcs);
    let _ = writeln!(out, "# TYPE ddlf_wal_bytes_total counter");
    let _ = writeln!(out, "ddlf_wal_bytes_total {}", s.wal_bytes);
    let _ = writeln!(out, "# TYPE ddlf_trace_captured gauge");
    let _ = writeln!(out, "ddlf_trace_captured {}", s.trace_captured);
    let _ = writeln!(out, "# TYPE ddlf_trace_dropped_total counter");
    let _ = writeln!(out, "ddlf_trace_dropped_total {}", s.trace_dropped);
    let _ = writeln!(out, "# TYPE ddlf_group_flushes_total counter");
    let _ = writeln!(out, "ddlf_group_flushes_total {}", s.group_flushes);
    let _ = writeln!(out, "# TYPE ddlf_group_commits_total counter");
    let _ = writeln!(out, "ddlf_group_commits_total {}", s.group_commits);
    let _ = writeln!(out, "# TYPE ddlf_chain_versions gauge");
    let _ = writeln!(out, "ddlf_chain_versions {}", s.chain_versions);
    let _ = writeln!(out, "# TYPE ddlf_chain_max_len gauge");
    let _ = writeln!(out, "ddlf_chain_max_len {}", s.chain_max_len);
    let _ = writeln!(out, "# TYPE ddlf_chain_watermark gauge");
    let _ = writeln!(out, "ddlf_chain_watermark {}", s.chain_watermark);
    if s.group_flushes > 0 {
        let _ = writeln!(out, "# TYPE ddlf_mean_group_size gauge");
        let _ = writeln!(
            out,
            "ddlf_mean_group_size {}",
            s.group_commits as f64 / s.group_flushes as f64
        );
    }
    if let Some(fpc) = fsyncs_per_commit(s) {
        let _ = writeln!(out, "# TYPE ddlf_fsyncs_per_commit gauge");
        let _ = writeln!(out, "ddlf_fsyncs_per_commit {fpc}");
    }
    if !s.phases.is_empty() {
        let _ = writeln!(out, "# TYPE ddlf_phase_latency_seconds summary");
        for p in &s.phases {
            let phase = prom_escape(&p.name);
            for (q, v) in [("0.5", p.p50_ns), ("0.95", p.p95_ns), ("0.99", p.p99_ns)] {
                let _ = writeln!(
                    out,
                    "ddlf_phase_latency_seconds{{phase=\"{phase}\",quantile=\"{q}\"}} {}",
                    v as f64 / 1e9
                );
            }
            let _ = writeln!(
                out,
                "ddlf_phase_latency_seconds_sum{{phase=\"{phase}\"}} {}",
                p.sum_ns as f64 / 1e9
            );
            let _ = writeln!(
                out,
                "ddlf_phase_latency_seconds_count{{phase=\"{phase}\"}} {}",
                p.count
            );
        }
    }
    if !s.templates.is_empty() {
        let _ = writeln!(out, "# TYPE ddlf_template_committed_total counter");
        for t in &s.templates {
            let _ = writeln!(
                out,
                "ddlf_template_committed_total{{template=\"{}\"}} {}",
                prom_escape(&t.name),
                t.committed
            );
        }
        let _ = writeln!(out, "# TYPE ddlf_template_aborted_total counter");
        for t in &s.templates {
            let _ = writeln!(
                out,
                "ddlf_template_aborted_total{{template=\"{}\"}} {}",
                prom_escape(&t.name),
                t.aborted
            );
        }
    }
    out
}

/// The default human rendering of `stats`.
fn stats_human(s: &StatsSnapshot) -> String {
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
            s.group_commits as f64 / s.group_flushes as f64,
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

/// `stats`: asks a running server for its live telemetry digest (the
/// lock-free `Stats` RPC — answers even mid-submission) and renders it
/// as human text, `--json`, or `--prom`. Connection failures exit 2.
pub fn run_stats(addr: &str, json: bool, prom: bool) -> (String, i32) {
    let mut client = match Client::connect_retry(addr, Duration::from_secs(5)) {
        Ok(c) => c,
        Err(e) => return (format!("cannot connect to {addr}: {e}\n"), 2),
    };
    let stats = match client.stats() {
        Ok(s) => s,
        Err(e) => return (format!("stats failed: {e}\n"), 2),
    };
    if json {
        (
            format!("{}\n", serde_json::to_string(&stats_json(&stats)).unwrap()),
            0,
        )
    } else if prom {
        (stats_prom(&stats), 0)
    } else {
        (stats_human(&stats), 0)
    }
}

/// `read`: runs one read-only transaction against a running server —
/// a committed multiversion cut served off the read-only snapshot path,
/// so it answers even while another connection's `Submit` holds the
/// engine. `--expect-total` asserts an exact Σint; `--conserve-step
/// B:S` asserts the step-quantum identity `(Σint − B) % S == 0`, which
/// *every* committed cut of a fixed-quantum workload satisfies — the
/// conservation check that works mid-run. Violations exit 1,
/// connection failures exit 2.
pub fn run_read(cmd: &Command) -> (String, i32) {
    let Command::Read {
        addr,
        entities,
        json,
        expect_total,
        conserve_step,
    } = cmd
    else {
        return ("run_read requires a read command\n".to_string(), 2);
    };
    let mut client = match Client::connect_retry(addr.clone(), Duration::from_secs(5)) {
        Ok(c) => c,
        Err(e) => return (format!("cannot connect to {addr}: {e}\n"), 2),
    };
    let snap = match client.read(entities) {
        Ok(s) => s,
        Err(e) => return (format!("read failed: {e}\n"), 2),
    };
    let sum = snap.sum_int();
    let mut bad = false;
    let mut verdicts: Vec<String> = Vec::new();
    if let Some(expected) = expect_total {
        if sum == *expected {
            verdicts.push(format!("conservation holds: Σint = {expected}"));
        } else {
            verdicts.push(format!(
                "CONSERVATION VIOLATED: Σint {sum} ≠ expected {expected}"
            ));
            bad = true;
        }
    }
    if let Some((base, step)) = conserve_step {
        if sum >= *base && (sum - base) % step == 0 {
            verdicts.push(format!(
                "conservation holds: Σint − {base} is a multiple of {step}"
            ));
        } else {
            verdicts.push(format!(
                "CONSERVATION VIOLATED: Σint {sum} is not {base} + k·{step} — \
                 the cut split a commit"
            ));
            bad = true;
        }
    }
    if *json {
        use serde_json::Value;
        let obj = jobj(vec![
            ("ts", ju(snap.ts)),
            ("entities", ju(snap.entries.len() as u64)),
            // u128 exceeds JSON's interoperable number range; ship it
            // as a string.
            ("sum_int", Value::Str(sum.to_string())),
            (
                "conservation_ok",
                if expect_total.is_some() || conserve_step.is_some() {
                    Value::Bool(!bad)
                } else {
                    Value::Null
                },
            ),
            (
                "entries",
                Value::Arr(
                    snap.entries
                        .iter()
                        .map(|e| {
                            jobj(vec![
                                ("name", Value::Str(e.name.clone())),
                                ("commit_ts", ju(e.commit_ts)),
                                ("version", ju(e.version)),
                                ("value", e.value.map_or(Value::Null, ju)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        return (
            format!("{}\n", serde_json::to_string(&obj).unwrap()),
            i32::from(bad),
        );
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
            e.value
                .map_or_else(|| "<bytes>".to_string(), |v| v.to_string()),
        );
    }
    for v in verdicts {
        let _ = writeln!(out, "{v}");
    }
    (out, i32::from(bad))
}

/// `lockgraph`: drives a built-in workload across every locking
/// subsystem — an in-process engine run with WAL, per-group fsync, and
/// batched admission, then a wire round-trip against an in-process
/// server — and prints the class-order DAG the `ddlf-lockdep` validator
/// observed: the executable form of ARCHITECTURE.md's "Lock discipline"
/// table. `--dot` emits Graphviz. Exits 1 if the validator recorded any
/// violation, 2 when built without `--features lockdep` (the stub
/// observes nothing).
pub fn run_lockgraph(dot: bool) -> (String, i32) {
    if !ddlf_lockdep::ENABLED {
        return (format!("{}\n", ddlf_lockdep::report()), 2);
    }
    let spec_json = include_str!("../../../fixtures/banking_ordered.json");
    let sys = match load_system(spec_json) {
        Ok(s) => s,
        Err(e) => return (format!("built-in lockgraph spec failed to load: {e}\n"), 2),
    };
    // Engine leg: slot_gate, shard.state, store.clock, history.shared,
    // engine.* and the wal.* classes (fsync regions via `wal_sync`, the
    // group path via `group_commit`, the timestamp section via admission
    // batching).
    let wal_dir = std::env::temp_dir().join(format!("ddlf-lockgraph-{}", std::process::id()));
    let engine = match ddlf_engine::Engine::try_with_admission(
        sys.clone(),
        AdmissionOptions {
            inflate: Inflation::Auto { cap: 4 },
            ..Default::default()
        },
        ddlf_engine::EngineConfig {
            threads: 4,
            instances: 256,
            wal_dir: Some(wal_dir.clone()),
            wal_sync: true,
            group_commit: Some(8),
            admission_batch: 4,
            ..Default::default()
        },
    ) {
        Ok(e) => e,
        Err(e) => return (format!("cannot open scratch WAL: {e}\n"), 2),
    };
    let _ = engine.run();
    drop(engine);
    let _ = std::fs::remove_dir_all(&wal_dir);
    // Wire leg: server.engine / server.conns plus the accept-wait
    // blocking region.
    let served = (|| -> Result<(), String> {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                threads: 2,
                default_inflate: InflateSpec::None,
                wal_dir: None,
                engine: ddlf_engine::EngineConfig::default(),
            },
        )
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run());
        let mut client = Client::connect_retry(addr, Duration::from_secs(5))
            .map_err(|e| format!("connect: {e}"))?;
        client
            .register(spec_json, InflateSpec::Auto { cap: 2 })
            .map_err(|e| format!("register: {e}"))?;
        client.submit_all(16).map_err(|e| format!("submit: {e}"))?;
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let _ = handle.join();
        Ok(())
    })();
    if let Err(e) = served {
        return (format!("lockgraph wire leg failed: {e}\n"), 2);
    }
    let violations = ddlf_lockdep::violation_count();
    let out = if dot {
        ddlf_lockdep::dot()
    } else {
        ddlf_lockdep::report()
    };
    (out, i32::from(violations > 0))
}

/// `serve`: binds the wire server and blocks until a client sends
/// `Shutdown`. Prints the bound address first (port `0` resolves to an
/// ephemeral port). With `--wal DIR`, registered engines log there; if
/// the directory already holds a WAL (a previous server died), it is
/// replayed first and the server starts with the recovered engine.
#[allow(clippy::too_many_arguments)] // mirrors the flat `serve` flag surface
pub fn run_serve(
    addr: &str,
    threads: usize,
    inflate: Option<InflateArg>,
    wal: Option<&str>,
    wal_sync: bool,
    group_commit: Option<usize>,
    admission_batch: usize,
    no_telemetry: bool,
) -> Result<(), String> {
    // One handle for the server's lifetime: every registered engine
    // records into it, and the `Stats` RPC digests it lock-free.
    let telemetry = make_telemetry(no_telemetry, 0);
    let cfg = ServeConfig {
        threads: threads.max(1),
        default_inflate: wire_inflate(inflate),
        wal_dir: wal.map(std::path::PathBuf::from),
        engine: ddlf_engine::EngineConfig {
            telemetry: telemetry.clone(),
            wal_sync,
            group_commit,
            admission_batch: admission_batch.max(1),
            ..Default::default()
        },
    };
    let mut recovered_engine = None;
    if let Some(dir) = wal {
        if std::path::Path::new(dir).join("meta.json").exists() {
            let rec =
                ddlf_engine::recover(dir).map_err(|e| format!("cannot recover WAL {dir}: {e}"))?;
            println!("{}", rec.summary());
            let engine = ddlf_engine::Engine::from_recovered(
                rec,
                admission_options(inflate, threads),
                ddlf_engine::EngineConfig {
                    threads: threads.max(1),
                    telemetry: telemetry.clone(),
                    wal_sync,
                    group_commit,
                    admission_batch: admission_batch.max(1),
                    ..Default::default()
                },
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
    let server = Server::bind_with(addr, cfg, recovered_engine)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!("ddlf-server listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run().map_err(|e| format!("serve error: {e}"))
}

/// `recover`: replays a WAL directory into a fresh store, re-runs the
/// `D(S)` audit over the recovered committed history, and reports.
/// Exit 0 requires the audit to say `Some(true)` and, when
/// `--expect-total` is given, the recovered Σint to match — the same
/// contract `run`/`submit` enforce for live histories, applied to a
/// crash's remains.
pub fn run_recover(dir: &str, expect_total: Option<u128>, json: bool) -> (String, i32) {
    let mut out = String::new();
    let rec = match ddlf_engine::recover(dir) {
        Ok(r) => r,
        Err(e) => return (format!("recover {dir}: {e}\n"), 2),
    };
    if json {
        let total = rec.store.total_int();
        let conservation_ok = expect_total.map(|expected| total == expected);
        let bad = rec.serializable != Some(true) || conservation_ok == Some(false);
        use serde_json::Value;
        let obj = jobj(vec![
            ("committed", ju(rec.committed as u64)),
            ("begun", ju(rec.begun as u64)),
            ("aborted_attempts", ju(rec.aborted_attempts as u64)),
            ("replayed_writes", ju(rec.replayed_writes)),
            ("skipped_writes", ju(rec.skipped_writes)),
            (
                "serializable",
                rec.serializable.map_or(Value::Null, Value::Bool),
            ),
            (
                "audit_error",
                rec.audit_error.clone().map_or(Value::Null, Value::Str),
            ),
            ("history_len", ju(rec.history_len as u64)),
            ("torn_tails", ju(rec.torn_tails as u64)),
            ("entities", ju(rec.store.db().entity_count() as u64)),
            // u128 exceeds JSON's interoperable number range; ship it
            // as a string.
            ("sum_int", Value::Str(total.to_string())),
            (
                "expected_total",
                expect_total.map_or(Value::Null, |t| Value::Str(t.to_string())),
            ),
            (
                "conservation_ok",
                conservation_ok.map_or(Value::Null, Value::Bool),
            ),
        ]);
        return (
            format!("{}\n", serde_json::to_string(&obj).unwrap()),
            i32::from(bad),
        );
    }
    let _ = writeln!(out, "{}", rec.summary());
    if let Some(err) = &rec.audit_error {
        let _ = writeln!(out, "audit error: {err}");
    }
    if rec.skipped_writes > 0 {
        let _ = writeln!(
            out,
            "warning: {} committed writes skipped (mistyped)",
            rec.skipped_writes
        );
    }
    let total = rec.store.total_int();
    let _ = writeln!(
        out,
        "store: {} entities, {} committed writes, Σint {total}",
        rec.store.db().entity_count(),
        rec.store.total_versions(),
    );
    let mut bad = rec.serializable != Some(true);
    if let Some(expected) = expect_total {
        if total != expected {
            let _ = writeln!(
                out,
                "CONSERVATION VIOLATED: Σint {total} ≠ expected {expected}"
            );
            bad = true;
        } else {
            let _ = writeln!(out, "conservation holds: Σint = {expected}");
        }
    }
    (out, i32::from(bad))
}

/// `submit`: registers `spec_json` with a running server, executes the
/// requested instances over the wire, and reports. Returns the report
/// text plus the exit code ([`audit_exit_failure`], strengthened by
/// `--expect-zero-aborts`). Connection/registration failures exit 2.
pub fn run_submit(cmd: &Command, spec_json: &str) -> (String, i32) {
    let Command::Submit {
        addr,
        txns,
        template,
        inflate,
        expect_zero_aborts,
        shutdown,
        ..
    } = cmd
    else {
        return ("run_submit requires a submit command\n".to_string(), 2);
    };
    let mut out = String::new();
    let mut client = match Client::connect_retry(addr.clone(), Duration::from_secs(5)) {
        Ok(c) => c,
        Err(e) => return (format!("cannot connect to {addr}: {e}\n"), 2),
    };
    let reg = match client.register(spec_json, wire_inflate(*inflate)) {
        Ok(r) => r,
        Err(e) => return (format!("register failed: {e}\n"), 2),
    };
    let _ = writeln!(out, "admission: {}", reg.verdict);
    let _ = write!(out, "{}", reg.render_plan());
    let count = u32::try_from(*txns).expect("checked at parse time");
    let stats = match template {
        Some(name) => client.submit(name, count),
        None => client.submit_all(count),
    };
    let stats = match stats {
        Ok(s) => s,
        Err(e) => return (out + &format!("submit failed: {e}\n"), 2),
    };
    let _ = writeln!(out, "run: {}", stats.summary());
    match client.report() {
        Ok(cumulative) => {
            let _ = writeln!(out, "cumulative: {}", cumulative.summary());
        }
        Err(e) => return (out + &format!("report failed: {e}\n"), 2),
    }
    if *shutdown {
        match client.shutdown() {
            Ok(()) => {
                let _ = writeln!(out, "server shutting down");
            }
            Err(e) => return (out + &format!("shutdown failed: {e}\n"), 2),
        }
    }
    let bad = audit_exit_failure(
        stats.instances as usize,
        stats.all_committed(),
        stats.dirty_aborts as usize,
        stats.serializable,
    ) || (*expect_zero_aborts && stats.aborted_attempts > 0);
    (out, i32::from(bad))
}

/// Loads a system from a spec JSON string.
pub fn load_system(json: &str) -> Result<TransactionSystem, String> {
    let spec: SystemSpec =
        serde_json::from_str(json).map_err(|e| format!("spec parse error: {e}"))?;
    spec.build().map_err(|e| format!("spec error: {e}"))
}

/// `certify --inflate k|auto [--json]`: the admission plan `run` would
/// be granted, Theorem 4's counters on the granted inflation, and what
/// admission cost. Exit 0 iff the request was granted in full and the
/// verdict guarantees safety as well as deadlock-freedom.
fn certify_admission(
    sys: &TransactionSystem,
    inflate: Option<InflateArg>,
    json: bool,
) -> (String, i32) {
    let started = std::time::Instant::now();
    let registry = ddlf_engine::TemplateRegistry::register_with(
        sys.clone(),
        admission_options(inflate, DEFAULT_THREADS),
    );
    let admission_ms = started.elapsed().as_secs_f64() * 1e3;
    let (verdict, plan) = (registry.verdict(), registry.plan());
    // Theorem 4's counters exist when every grant is a finite k and the
    // granted system has ≥ 3 transactions that certify.
    let granted: Option<Vec<usize>> = plan.slots.iter().map(|s| s.limit()).collect();
    let counters =
        granted.and_then(|k| sys.inflate(&k).ok()).and_then(
            |g| match certify_safe_and_deadlock_free(g.system(), CertifyOptions::default()) {
                Ok(Certificate::Many(c)) => Some(c),
                _ => None,
            },
        );
    let bad = !verdict.guarantees_safety() || plan.floored;
    let mut out = String::new();
    if json {
        use serde_json::Value;
        let slots = sys.iter().map(|(t, txn)| {
            jobj(vec![
                ("template", Value::Str(txn.name().to_string())),
                (
                    "k",
                    plan.slots_of(t)
                        .limit()
                        .map_or(Value::Null, |k| ju(k as u64)),
                ),
            ])
        });
        let mut obj = vec![
            ("verdict", Value::Str(verdict.to_string())),
            ("granted", Value::Bool(!bad)),
            ("floored", Value::Bool(plan.floored)),
            ("rationale", Value::Str(plan.rationale.clone())),
            ("slots", Value::Arr(slots.collect())),
        ];
        if let Some(c) = &counters {
            obj.push(("pairs", ju(c.pairs_checked as u64)));
            obj.push(("cycles", ju(c.cycles_checked as u64)));
            obj.push(("orderings", ju(c.orderings_checked as u64)));
        }
        obj.push(("admission_ms", Value::F64(admission_ms)));
        let _ = writeln!(out, "{}", serde_json::to_string(&jobj(obj)).unwrap());
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

/// Executes a command against an already-loaded system, returning the
/// report text (exit code 0) or an analysis-failure text (exit code 1).
pub fn execute(cmd: &Command, sys: &TransactionSystem) -> (String, i32) {
    match cmd {
        Command::Certify {
            inflate: None,
            json: false,
            ..
        } => match certify_safe_and_deadlock_free(sys, CertifyOptions::default()) {
            Ok(cert) => (
                format!(
                    "CERTIFIED: every schedule is serializable and every partial \
                     schedule completable.\ncertificate: {cert:?}\n"
                ),
                0,
            ),
            Err(v) => (format!("REJECTED: {v}\n"), 1),
        },
        Command::Certify { inflate, json, .. } => certify_admission(sys, *inflate, *json),
        Command::Deadlock { .. } => {
            let ex = Explorer::new(sys, 20_000_000);
            let (verdict, stats) = ex.find_deadlock();
            match verdict {
                ddlf_core::Verdict::Holds => (
                    format!("DEADLOCK-FREE ({} states explored)\n", stats.states),
                    0,
                ),
                ddlf_core::Verdict::CounterExample(sched) => {
                    let mut out = String::new();
                    let _ = writeln!(
                        out,
                        "DEADLOCK REACHABLE after {} steps; witness partial schedule:",
                        sched.len()
                    );
                    for g in sched.steps() {
                        let t = sys.txn(g.txn);
                        let op = t.op(g.node);
                        let _ = writeln!(
                            out,
                            "  {} {}{}",
                            t.name(),
                            if op.is_lock() { "L" } else { "U" },
                            sys.db().name_of(op.entity)
                        );
                    }
                    (out, 1)
                }
                ddlf_core::Verdict::Inconclusive { states } => (
                    format!("INCONCLUSIVE: state budget exhausted ({states} states)\n"),
                    2,
                ),
            }
        }
        Command::Explore {
            txns,
            budget,
            seed,
            json,
            expect_counterexample,
            trace_out,
            no_prune,
            no_replay,
            ..
        } => {
            let instanced;
            let sys = match txns {
                Some(n) => match ddlf_model::instances_of(sys, *n) {
                    Ok(s) => {
                        instanced = s;
                        &instanced
                    }
                    Err(e) => return (format!("bad --txns: {e}\n"), 2),
                },
                None => sys,
            };
            let cfg = ddlf_model::ExploreConfig {
                max_steps: *budget,
                seed: *seed,
                sleep_sets: !*no_prune,
                ..Default::default()
            };
            let found = ddlf_model::explore(sys, &cfg);

            // Replay each counterexample through the real store +
            // streaming audit before reporting it: a cycle witness must
            // reproduce the non-serializable verdict end to end, and a
            // deadlock witness must be unjammed by wait-die (aborts ≥ 1,
            // everyone commits, history serializable). The engine
            // disagreeing with the model is the worst possible outcome —
            // exit 2, never a clean pass.
            let mut replays: Vec<Option<ddlf_engine::ReplayReport>> = Vec::new();
            for ce in &found.counterexamples {
                if *no_replay {
                    replays.push(None);
                    continue;
                }
                match ddlf_engine::replay_schedule(sys, &ce.steps) {
                    Ok(rep) => {
                        let reproduced = match ce.kind {
                            ddlf_model::AnomalyKind::Deadlock => {
                                rep.aborts >= 1
                                    && rep.committed == rep.instances
                                    && rep.serializable == Some(true)
                            }
                            _ => rep.serializable == Some(false),
                        };
                        if !reproduced {
                            return (
                                format!(
                                    "replay mismatch: {} witness did not reproduce in the \
                                     engine (committed {}/{}, aborts {}, serializable {:?})\n",
                                    ce.kind,
                                    rep.committed,
                                    rep.instances,
                                    rep.aborts,
                                    rep.serializable
                                ),
                                2,
                            );
                        }
                        replays.push(Some(rep));
                    }
                    Err(e) => return (format!("replay failed: {e}\n"), 2),
                }
            }

            // JSONL witness file: one self-contained line per
            // counterexample, replayable via `ddlf_engine::replay_schedule`.
            let mut trace_note = None;
            if let Some(path) = trace_out {
                if !found.counterexamples.is_empty() {
                    let lines: String = found
                        .counterexamples
                        .iter()
                        .zip(&replays)
                        .map(|(ce, rep)| {
                            let obj = counterexample_json(sys, ce, rep.as_ref());
                            format!("{}\n", serde_json::to_string(&obj).unwrap())
                        })
                        .collect();
                    if let Some(parent) = std::path::Path::new(path).parent() {
                        if !parent.as_os_str().is_empty() {
                            let _ = std::fs::create_dir_all(parent);
                        }
                    }
                    if let Err(e) = std::fs::write(path, lines) {
                        return (format!("cannot write trace to {path}: {e}\n"), 2);
                    }
                    trace_note = Some(path.clone());
                }
            }

            let has_ce = !found.counterexamples.is_empty();
            let code = if *expect_counterexample {
                // Anomaly-fixture mode: the counterexample is the point.
                if has_ce {
                    0
                } else if found.exhausted {
                    1
                } else {
                    2
                }
            } else if has_ce {
                1
            } else if found.exhausted {
                0
            } else {
                2
            };

            if *json {
                use serde_json::Value;
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
                    (
                        "counterexamples",
                        Value::Arr(
                            found
                                .counterexamples
                                .iter()
                                .zip(&replays)
                                .map(|(ce, rep)| counterexample_json(sys, ce, rep.as_ref()))
                                .collect(),
                        ),
                    ),
                    ("trace_path", trace_note.map_or(Value::Null, Value::Str)),
                    ("expect_counterexample", Value::Bool(*expect_counterexample)),
                    ("ok", Value::Bool(code == 0)),
                ]);
                return (format!("{}\n", serde_json::to_string(&obj).unwrap()), code);
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
            for (i, (ce, rep)) in found.counterexamples.iter().zip(&replays).enumerate() {
                let _ = writeln!(out, "counterexample {i}: {}", ce.kind);
                let _ = write!(out, "  schedule:");
                for g in &ce.steps {
                    let t = sys.txn(g.txn);
                    let op = t.op(g.node);
                    let _ = write!(
                        out,
                        " {}.{}{}",
                        t.name(),
                        if op.is_lock() { "L" } else { "U" },
                        sys.db().name_of(op.entity)
                    );
                }
                let _ = writeln!(out);
                if !ce.cycle.is_empty() {
                    let _ = writeln!(
                        out,
                        "  D(S) cycle: {} via [{}]",
                        ce.cycle
                            .iter()
                            .map(|&t| sys.txn(t).name().to_string())
                            .collect::<Vec<_>>()
                            .join(" → "),
                        ce.cycle_entities
                            .iter()
                            .map(|&e| sys.db().name_of(e).to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
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
            if let Some(p) = &trace_note {
                let _ = writeln!(
                    out,
                    "trace: {} witness(es) written to {p}",
                    found.counterexamples.len()
                );
            }
            let verdict = match (code, *expect_counterexample) {
                (0, false) => {
                    "CLEAN: pruned schedule space exhausted, no D(S) cycle or deadlock".to_string()
                }
                (0, true) => format!(
                    "ANOMALY CONFIRMED: {} counterexample(s), as expected",
                    found.counterexamples.len()
                ),
                (1, false) => format!(
                    "COUNTEREXAMPLE: {} witness(es) found",
                    found.counterexamples.len()
                ),
                (1, true) => {
                    "UNEXPECTEDLY CLEAN: space exhausted without the expected counterexample"
                        .to_string()
                }
                _ => format!("INCONCLUSIVE: step budget ({budget}) exhausted"),
            };
            let _ = writeln!(out, "{verdict}");
            (out, code)
        }
        Command::Simulate { policy, seeds, .. } => {
            let p = match policy.as_str() {
                "nothing" => DeadlockPolicy::Nothing,
                "detect" => DeadlockPolicy::Detect { period_us: 5_000 },
                "wound-wait" => DeadlockPolicy::WoundWait,
                "wait-die" => DeadlockPolicy::WaitDie,
                other => return (format!("unknown policy {other:?}\n"), 2),
            };
            let mut out = String::new();
            let mut bad = false;
            for seed in 0..*seeds {
                let r = run(
                    sys,
                    SimConfig {
                        policy: p,
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
            (out, i32::from(bad))
        }
        Command::Run {
            txns,
            threads,
            inflate,
            force_fallback,
            work_us,
            wal,
            wal_sync,
            group_commit,
            admission_batch,
            json,
            no_telemetry,
            trace_sample,
            trace_out,
            readers,
            ..
        } => {
            let admission = admission_options(*inflate, *threads);
            let telemetry = make_telemetry(*no_telemetry, *trace_sample);
            let engine = match ddlf_engine::Engine::try_with_admission(
                sys.clone(),
                admission,
                ddlf_engine::EngineConfig {
                    threads: *threads,
                    instances: *txns,
                    force_fallback: *force_fallback,
                    work: Duration::from_micros(*work_us),
                    wal_dir: wal.as_ref().map(std::path::PathBuf::from),
                    wal_sync: *wal_sync,
                    group_commit: *group_commit,
                    admission_batch: (*admission_batch).max(1),
                    telemetry: telemetry.clone(),
                    ..Default::default()
                },
            ) {
                Ok(e) => e,
                Err(e) => return (format!("cannot open WAL: {e}\n"), 2),
            };
            let mut out = String::new();
            if !*json {
                if let Some(dir) = wal {
                    let _ = writeln!(out, "wal: logging to {dir}");
                }
                let _ = writeln!(out, "admission: {}", engine.registry().verdict());
                let _ = write!(out, "{}", engine.registry().plan().render(sys));
            }
            // `--readers R`: R scanner threads loop full-store
            // read-only transactions on the snapshot path
            // while the writers run. Each asserts its observed
            // timestamps never run backwards; the joined scan count
            // reports reader throughput next to the write report.
            let all_entities: Vec<ddlf_model::EntityId> = sys.db().entities().collect();
            let stop_readers = std::sync::atomic::AtomicBool::new(false);
            let started = std::time::Instant::now();
            let (report, ro_scans) = std::thread::scope(|scope| {
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
                stop_readers.store(true, std::sync::atomic::Ordering::Relaxed);
                let scans: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
                (report, scans)
            });
            let ro_elapsed = started.elapsed();
            if let Some(path) = trace_out {
                if let Err(e) = std::fs::write(path, telemetry.dump_trace_jsonl()) {
                    return (out + &format!("cannot write trace to {path}: {e}\n"), 2);
                }
            }
            if *json {
                // One JSON object, nothing else on stdout — scripts pipe
                // this straight into a parser. Store totals ride along.
                let mut obj = report_json(&report);
                if let serde_json::Value::Obj(entries) = &mut obj {
                    entries.push((
                        "store".to_string(),
                        jobj(vec![
                            ("entities", ju(sys.db().entity_count() as u64)),
                            ("committed_writes", ju(engine.store().total_versions())),
                            (
                                "sum_int",
                                serde_json::Value::Str(engine.store().total_int().to_string()),
                            ),
                        ]),
                    ));
                    if *readers > 0 {
                        entries.push((
                            "readers".to_string(),
                            jobj(vec![
                                ("threads", ju(*readers as u64)),
                                ("scans", ju(ro_scans)),
                                (
                                    "scans_per_sec",
                                    serde_json::Value::F64(
                                        ro_scans as f64 / ro_elapsed.as_secs_f64().max(1e-9),
                                    ),
                                ),
                            ]),
                        ));
                    }
                }
                let _ = writeln!(out, "{}", serde_json::to_string(&obj).unwrap());
            } else {
                let _ = writeln!(out, "{}", report.summary());
                let _ = write!(out, "{}", report.template_table());
                let _ = writeln!(
                    out,
                    "store: {} entities, {} committed writes, Σint {}",
                    sys.db().entity_count(),
                    engine.store().total_versions(),
                    engine.store().total_int()
                );
                if *readers > 0 {
                    let _ = writeln!(
                        out,
                        "readers: {} threads, {} snapshot scans ({:.0} scans/s)",
                        readers,
                        ro_scans,
                        ro_scans as f64 / ro_elapsed.as_secs_f64().max(1e-9),
                    );
                }
            }
            let bad = audit_exit_failure(
                report.instances,
                report.all_committed(),
                report.dirty_aborts,
                report.serializable,
            );
            (out, i32::from(bad))
        }
        Command::Dot { .. } => (ddlf_model::dot::system_to_dot(sys), 0),
        // These commands do not load a spec file; `main` dispatches them
        // to `run_serve` / `run_submit` / `run_recover` / `run_stats`.
        Command::Serve { .. }
        | Command::Submit { .. }
        | Command::Recover { .. }
        | Command::Lockgraph { .. }
        | Command::Stats { .. }
        | Command::Read { .. } => (
            "internal error: specless commands are dispatched in main\n".to_string(),
            2,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                inflate: None,
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
    fn explore_certified_is_clean() {
        let sys = load_system(SPEC).unwrap();
        let (out, code) = execute(&explore_cmd(), &sys);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("CLEAN"), "{out}");
    }

    #[test]
    fn explore_deadlocky_finds_and_replays_witnesses() {
        let sys = load_system(DEADLOCKY).unwrap();
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
        let (out, code) = execute(&cmd, &sys);
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
        let sys = load_system(SPEC).unwrap();
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
        let (out, code) = execute(&cmd, &sys);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("UNEXPECTEDLY CLEAN"), "{out}");
    }

    #[test]
    fn explore_budget_truncation_is_inconclusive() {
        let sys = load_system(SPEC).unwrap();
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
        let (out, code) = execute(&cmd, &sys);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("INCONCLUSIVE"), "{out}");
    }

    #[test]
    fn certify_good_and_bad() {
        let sys = load_system(SPEC).unwrap();
        let (out, code) = execute(
            &Command::Certify {
                spec: String::new(),
                inflate: None,
                json: false,
            },
            &sys,
        );
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("CERTIFIED"));

        let sys = load_system(DEADLOCKY).unwrap();
        let (out, code) = execute(
            &Command::Certify {
                spec: String::new(),
                inflate: None,
                json: false,
            },
            &sys,
        );
        assert_eq!(code, 1);
        assert!(out.contains("REJECTED"));
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
                inflate: Some(InflateArg::Auto),
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
        let sys = load_system(SPEC).unwrap();
        let (out, code) = execute(&certify(Some(InflateArg::Uniform(2)), false), &sys);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("admission: certified"), "{out}");
        assert!(out.contains("k = 2"), "{out}");
        assert!(
            out.contains("theorem 4: pairs 6 cycles 7 orderings 48"),
            "{out}"
        );
        assert!(out.contains("admission took"), "{out}");

        let (out, code) = execute(&certify(Some(InflateArg::Auto), true), &sys);
        assert_eq!(code, 0, "{out}");
        assert!(serde_json::parse_value(out.trim()).is_ok(), "{out}");
        assert!(out.contains(r#""granted":true"#), "{out}");
        assert!(out.contains(r#"{"template":"T2","k":4}"#), "{out}");
        assert!(out.contains(r#""pairs":28,"cycles":8018,"#), "{out}");

        // A request the certifier refuses is a failed analysis.
        let sys = load_system(DEADLOCKY).unwrap();
        let (out, code) = execute(&certify(Some(InflateArg::Uniform(2)), false), &sys);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("fallback to wait-die"), "{out}");
        assert!(out.contains("floored to k=1"), "{out}");
    }

    #[test]
    fn deadlock_check_outputs_witness() {
        let sys = load_system(DEADLOCKY).unwrap();
        let (out, code) = execute(
            &Command::Deadlock {
                spec: String::new(),
            },
            &sys,
        );
        assert_eq!(code, 1);
        assert!(out.contains("DEADLOCK REACHABLE"));
        assert!(out.contains("T1 L"));

        let sys = load_system(SPEC).unwrap();
        let (out, code) = execute(
            &Command::Deadlock {
                spec: String::new(),
            },
            &sys,
        );
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("DEADLOCK-FREE"));
    }

    #[test]
    fn simulate_policies() {
        let sys = load_system(DEADLOCKY).unwrap();
        let cmd = Command::Simulate {
            spec: String::new(),
            policy: "wound-wait".into(),
            seeds: 3,
        };
        let (out, code) = execute(&cmd, &sys);
        assert_eq!(code, 0, "{out}");
        assert_eq!(out.lines().count(), 3);
        let bad = Command::Simulate {
            spec: String::new(),
            policy: "martian".into(),
            seeds: 1,
        };
        assert_eq!(execute(&bad, &sys).1, 2);
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
                threads: 3,
                inflate: None,
                force_fallback: true,
                work_us: 0,
                wal: None,
                wal_sync: false,
                group_commit: None,
                admission_batch: 1,
                json: false,
                no_telemetry: false,
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
        let Command::Run { inflate, .. } = c else {
            panic!("run command");
        };
        assert_eq!(inflate, Some(InflateArg::Uniform(4)));

        let c = parse_args(&[
            "run".into(),
            "f.json".into(),
            "--inflate".into(),
            "auto".into(),
        ])
        .unwrap();
        let Command::Run { inflate, .. } = c else {
            panic!("run command");
        };
        assert_eq!(inflate, Some(InflateArg::Auto));

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
        let c = parse_args(&[
            "run".into(),
            "f.json".into(),
            "--json".into(),
            "--no-telemetry".into(),
            "--trace-sample".into(),
            "64".into(),
            "--trace-out".into(),
            "trace.jsonl".into(),
        ])
        .unwrap();
        let Command::Run {
            json,
            no_telemetry,
            trace_sample,
            trace_out,
            ..
        } = c
        else {
            panic!("run command");
        };
        assert!(json);
        assert!(no_telemetry);
        assert_eq!(trace_sample, 64);
        assert_eq!(trace_out.as_deref(), Some("trace.jsonl"));
        assert!(parse_args(&["run".into(), "f".into(), "--trace-sample".into()]).is_err());
    }

    #[test]
    fn run_executes_certified_system_clean() {
        let sys = load_system(SPEC).unwrap();
        let cmd = Command::Run {
            spec: String::new(),
            txns: 8,
            threads: 2,
            inflate: None,
            force_fallback: false,
            work_us: 0,
            wal: None,
            wal_sync: false,
            group_commit: None,
            admission_batch: 1,
            json: false,
            no_telemetry: false,
            trace_sample: 0,
            trace_out: None,
            readers: 0,
        };
        let (out, code) = execute(&cmd, &sys);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("certified"), "{out}");
        assert!(out.contains("no-detector"), "{out}");
        assert!(out.contains("aborts 0"), "{out}");
        assert!(out.contains("admission plan"), "{out}");
    }

    #[test]
    fn run_with_readers_reports_lock_free_scans() {
        let sys = load_system(SPEC).unwrap();
        let cmd = Command::Run {
            spec: String::new(),
            txns: 32,
            threads: 2,
            inflate: None,
            force_fallback: false,
            work_us: 0,
            wal: None,
            wal_sync: false,
            group_commit: None,
            admission_batch: 1,
            json: false,
            no_telemetry: false,
            trace_sample: 0,
            trace_out: None,
            readers: 2,
        };
        let (out, code) = execute(&cmd, &sys);
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
        let sys = load_system(DEADLOCKY).unwrap();
        let cmd = Command::Run {
            spec: String::new(),
            txns: 8,
            threads: 2,
            inflate: None,
            force_fallback: false,
            work_us: 0,
            wal: None,
            wal_sync: false,
            group_commit: None,
            admission_batch: 1,
            json: false,
            no_telemetry: false,
            trace_sample: 0,
            trace_out: None,
            readers: 0,
        };
        let (out, code) = execute(&cmd, &sys);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("fallback to wait-die"), "{out}");
    }

    #[test]
    fn run_with_inflation_prints_the_plan() {
        let sys = load_system(SPEC).unwrap();
        let cmd = Command::Run {
            spec: String::new(),
            txns: 16,
            threads: 4,
            inflate: Some(InflateArg::Uniform(4)),
            force_fallback: false,
            work_us: 0,
            wal: None,
            wal_sync: false,
            group_commit: None,
            admission_batch: 1,
            json: false,
            no_telemetry: false,
            trace_sample: 0,
            trace_out: None,
            readers: 0,
        };
        let (out, code) = execute(&cmd, &sys);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("k = 4"), "{out}");
        assert!(out.contains("aborts 0"), "{out}");
    }

    #[test]
    fn run_auto_inflation_on_uncertifiable_system_still_completes() {
        let sys = load_system(DEADLOCKY).unwrap();
        let cmd = Command::Run {
            spec: String::new(),
            txns: 8,
            threads: 2,
            inflate: Some(InflateArg::Auto),
            force_fallback: false,
            work_us: 0,
            wal: None,
            wal_sync: false,
            group_commit: None,
            admission_batch: 1,
            json: false,
            no_telemetry: false,
            trace_sample: 0,
            trace_out: None,
            readers: 0,
        };
        let (out, code) = execute(&cmd, &sys);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("fallback to wait-die"), "{out}");
        assert!(out.contains("k = 1"), "{out}");
    }

    /// Looks a key up in a parsed JSON object (the vendored `Value` has
    /// no `Index` impl).
    fn jget<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
        v.as_obj()
            .expect("not a JSON object")
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}"))
    }

    /// `run --json` prints exactly one JSON object carrying the full
    /// report — committed counts, nonzero phase histograms (telemetry
    /// is on by default), store totals.
    #[test]
    fn run_json_emits_one_parseable_object() {
        let sys = load_system(SPEC).unwrap();
        let cmd = Command::Run {
            spec: String::new(),
            txns: 8,
            threads: 2,
            inflate: None,
            force_fallback: false,
            work_us: 0,
            wal: None,
            wal_sync: false,
            group_commit: None,
            admission_batch: 1,
            json: true,
            no_telemetry: false,
            trace_sample: 0,
            trace_out: None,
            readers: 0,
        };
        let (out, code) = execute(&cmd, &sys);
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
        let sys = load_system(SPEC).unwrap();
        let cmd = Command::Run {
            spec: String::new(),
            txns: 8,
            threads: 2,
            inflate: None,
            force_fallback: false,
            work_us: 0,
            wal: None,
            wal_sync: false,
            group_commit: None,
            admission_batch: 1,
            json: true,
            no_telemetry: true,
            trace_sample: 0,
            trace_out: None,
            readers: 0,
        };
        let (out, code) = execute(&cmd, &sys);
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
        let sys = load_system(SPEC).unwrap();
        let cmd = Command::Run {
            spec: String::new(),
            txns: 8,
            threads: 2,
            inflate: None,
            force_fallback: false,
            work_us: 0,
            wal: Some(dir.to_string_lossy().into_owned()),
            wal_sync: true,
            group_commit: None,
            admission_batch: 1,
            json: true,
            no_telemetry: false,
            trace_sample: 0,
            trace_out: None,
            readers: 0,
        };
        let (out, code) = execute(&cmd, &sys);
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
        let Command::Run { wal, wal_sync, .. } = parse_args(&args).unwrap() else {
            panic!("not a run command");
        };
        assert_eq!(wal.as_deref(), Some("/tmp/w"));
        assert!(wal_sync);
    }

    #[test]
    fn parse_group_commit_and_admission_batch() {
        // The bare flag picks the engine's default maximum group size.
        let c = parse_args(&["run".into(), "f".into(), "--group-commit".into()]).unwrap();
        let Command::Run {
            group_commit,
            admission_batch,
            ..
        } = c
        else {
            panic!("run command");
        };
        assert_eq!(group_commit, Some(ddlf_engine::DEFAULT_MAX_GROUP));
        assert_eq!(admission_batch, 1);

        let c = parse_args(&[
            "run".into(),
            "f".into(),
            "--group-commit=8".into(),
            "--admission-batch".into(),
            "32".into(),
        ])
        .unwrap();
        let Command::Run {
            group_commit,
            admission_batch,
            ..
        } = c
        else {
            panic!("run command");
        };
        assert_eq!(group_commit, Some(8));
        assert_eq!(admission_batch, 32);

        assert!(parse_args(&["run".into(), "f".into(), "--group-commit=0".into()]).is_err());
        assert!(parse_args(&["run".into(), "f".into(), "--group-commit=x".into()]).is_err());
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
            "--group-commit=4".into(),
            "--admission-batch".into(),
            "8".into(),
        ])
        .unwrap();
        let Command::Serve {
            wal_sync,
            group_commit,
            admission_batch,
            ..
        } = c
        else {
            panic!("serve command");
        };
        assert!(wal_sync);
        assert_eq!(group_commit, Some(4));
        assert_eq!(admission_batch, 8);
    }

    /// `--group-commit --admission-batch` with a synced WAL: every
    /// decision rides the group path, the report's amortization metrics
    /// are present, and the run still audits clean.
    #[test]
    fn run_group_commit_json_exposes_amortization() {
        let dir = std::env::temp_dir().join(format!("ddlf-group-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let sys = load_system(SPEC).unwrap();
        let cmd = Command::Run {
            spec: String::new(),
            txns: 16,
            threads: 4,
            inflate: None,
            force_fallback: false,
            work_us: 0,
            wal: Some(dir.to_string_lossy().into_owned()),
            wal_sync: true,
            group_commit: Some(8),
            admission_batch: 4,
            json: true,
            no_telemetry: false,
            trace_sample: 0,
            trace_out: None,
            readers: 0,
        };
        let (out, code) = execute(&cmd, &sys);
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
        let sys = load_system(SPEC).unwrap();
        let cmd = Command::Run {
            spec: String::new(),
            txns: 8,
            threads: 2,
            inflate: None,
            force_fallback: false,
            work_us: 0,
            wal: None,
            wal_sync: false,
            group_commit: None,
            admission_batch: 1,
            json: true,
            no_telemetry: false,
            trace_sample: 1,
            trace_out: Some(path.to_string_lossy().into_owned()),
            readers: 0,
        };
        let (out, code) = execute(&cmd, &sys);
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

        let (out, code) = run_stats(&addr, false, false);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("commit"), "{out}");
        assert!(out.contains("T1"), "{out}");

        let (out, code) = run_stats(&addr, true, false);
        assert_eq!(code, 0, "{out}");
        use serde_json::Value;
        let v = serde_json::parse_value(out.trim()).unwrap();
        assert_eq!(jget(&v, "committed"), &Value::U64(16));
        assert_eq!(
            jget(jget(jget(&v, "phases"), "commit"), "count"),
            &Value::U64(16)
        );

        let (out, code) = run_stats(&addr, false, true);
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
        let (out, code) = run_stats("127.0.0.1:1", true, false);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("cannot connect"), "{out}");
    }

    #[test]
    fn audit_exit_contract() {
        // Clean certified run: every instance committed, audit said yes.
        assert!(!audit_exit_failure(8, true, 0, Some(true)));
        // The audit finding a non-serializable history is a failure even
        // when everything committed.
        assert!(audit_exit_failure(8, true, 0, Some(false)));
        // An unauditable run (dirty abort voided the audit) fails too —
        // the pre-fix behavior exited 0 here.
        assert!(audit_exit_failure(8, true, 0, None));
        assert!(audit_exit_failure(8, true, 1, Some(true)));
        assert!(audit_exit_failure(8, false, 0, Some(true)));
        // A deliberately empty run has nothing to audit.
        assert!(!audit_exit_failure(0, true, 0, None));
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
                threads: 8,
                inflate: Some(InflateArg::Auto),
                wal: None,
                wal_sync: false,
                group_commit: None,
                admission_batch: 16,
                no_telemetry: false,
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
                inflate: Some(InflateArg::Uniform(4)),
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
            inflate: Some(InflateArg::Uniform(2)),
            expect_zero_aborts: true,
            shutdown: false,
        };
        let (out, code) = run_submit(&cmd, SPEC);
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
            inflate: Some(InflateArg::Uniform(2)),
            expect_zero_aborts: true,
            shutdown: true,
        };
        let (out, code) = run_submit(&cmd, SPEC);
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
            inflate: None,
            expect_zero_aborts: false,
            shutdown: false,
        };
        let (out, code) = run_submit(&cmd, SPEC);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("cannot connect"), "{out}");
    }

    #[test]
    fn dot_renders() {
        let sys = load_system(SPEC).unwrap();
        let (out, code) = execute(
            &Command::Dot {
                spec: String::new(),
            },
            &sys,
        );
        assert_eq!(code, 0);
        assert!(out.contains("digraph"));
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
