//! The `--trace 1` run: where the time of a workload goes, layer by
//! layer. Never gated; README.md says which end-to-end metric each of
//! these should move.
//!
//! Two parts. The *wire* part repeats the end-to-end rounds in three
//! variants — as measured, with client-side spans on, and against a
//! telemetry-on server — so the cost of both instruments is itself a
//! number, and reads the server's own phase digest. The *layer* part
//! times public calls into each crate on the inputs the server was
//! given, one engine per configuration, so differences between them
//! isolate the WAL append and the fsync.

use crate::run::{
    dir_bytes, over_rounds, prepare_out_dir, recover_checked, round, settle, Plan, Round, RunOpts,
    Session,
};
use crate::stats::{median, metric, micros, percentile, Metric, Outcome, Tally};
use crate::systems::Rng;
use crate::trace::{timed, SpanLog};
use crate::workloads::Workload;
use ddlf_core::{certify_safe_and_deadlock_free, Certificate, CertifyOptions};
use ddlf_engine::{
    AdmissionOptions, Engine, EngineConfig, Report, TemplateRegistry, DEFAULT_MAX_GROUP,
};
use ddlf_model::{EntityId, NodeId, StreamingAuditor, SystemSpec, TransactionSystem, TxnId};
use ddlf_server::{Request, Response, SnapEntry, SnapshotReply, StatsSnapshot};
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Span ids of the layer part: pseudo-round 0, connection 0.
const LAYERS: u32 = 0;

/// Times calls into the layers, one span per call.
struct Probe<'a> {
    log: &'a mut SpanLog,
    seq: u32,
}

impl Probe<'_> {
    fn once<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        self.seq += 1;
        timed(
            Some(self.log),
            name,
            [LAYERS, 0, self.seq],
            [LAYERS, 0, 0],
            f,
        )
    }

    /// Median microseconds of `reps` calls, and the last call's result.
    fn median_us<T>(
        &mut self,
        name: &'static str,
        reps: usize,
        mut f: impl FnMut() -> T,
    ) -> (T, f64) {
        let mut samples = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps.max(1) {
            let (out, took) = self.once(name, &mut f);
            samples.push(micros(took));
            last = Some(out);
        }
        (last.expect("at least one rep"), median(&samples))
    }
}

fn engine_cfg(
    w: &Workload,
    work_us: u64,
    wal_dir: Option<PathBuf>,
    wal_sync: bool,
) -> EngineConfig {
    EngineConfig {
        threads: w.server.threads,
        admission_batch: w.server.admission_batch,
        work: Duration::from_micros(work_us),
        wal_dir,
        wal_sync,
        group_commit: Some(DEFAULT_MAX_GROUP),
        ..EngineConfig::default()
    }
}

/// `count` instances round-robin over every template: what the server
/// makes of `Submit{template: "", count}`.
fn round_robin(sys: &TransactionSystem, count: usize) -> Vec<(TxnId, usize)> {
    let n = sys.len();
    (0..n)
        .map(|i| (TxnId::from_index(i), count / n + usize::from(i < count % n)))
        .collect()
}

/// Median wall per commit of `reps` runs of `mix`, the last report, and
/// the aborts and failures of all of them.
fn batch_us_per_commit(
    probe: &mut Probe,
    name: &'static str,
    engine: &Engine,
    mix: &[(TxnId, usize)],
    reps: usize,
    tally: &mut Tally,
) -> (f64, Report, u64) {
    let count: usize = mix.iter().map(|&(_, n)| n).sum();
    let mut aborts = 0;
    let (report, us) = probe.median_us(name, reps, || {
        let report = engine.run_mix(mix);
        aborts += report.aborted_attempts as u64;
        tally.check(
            report.all_committed() && report.serializable == Some(true),
            || format!("{name}: in-process batch did not commit and audit clean"),
        );
        report
    });
    (us / count as f64, report, aborts)
}

fn phase_p50_us(stats: &StatsSnapshot, phase: &str) -> f64 {
    stats
        .phases
        .iter()
        .find(|p| p.name == phase)
        .map_or(0.0, |p| p.p50_ns as f64 / 1e3)
}

/// The layer part: every metric that needs no server process.
fn measure_layers(
    opts: &RunOpts,
    plan: &Plan,
    dir: &Path,
    log: &mut SpanLog,
    tally: &mut Tally,
) -> io::Result<Vec<Metric>> {
    let w = opts.workload;
    let sys = &plan.system;
    let started = Instant::now();
    let mut probe = Probe { log, seq: 0 };
    let reps = |full| opts.reps(full);
    let mut out = Vec::new();

    // model: what RegisterSystem does before it certifies.
    let (_, spec_build_us) = probe.median_us("model.spec_build", reps(20), || {
        let spec: SystemSpec = serde_json::from_str(&plan.spec_json).expect("own spec parses");
        spec.build().expect("own spec builds")
    });
    out.push(metric("model.spec_build_us", "us", spec_build_us));

    // core: the certifier alone, with its exact work counts.
    let (verdict, certify_us) = probe.median_us("core.certify", reps(3), || {
        certify_safe_and_deadlock_free(sys, CertifyOptions::default())
    });
    let (cycles, orderings) = match &verdict {
        Ok(Certificate::Many(c)) => (c.cycles_checked, c.orderings_checked),
        _ => (0, 0),
    };
    tally.check(verdict.is_ok() == w.certified(), || {
        format!(
            "certifier said {verdict:?}, workload expects certified = {}",
            w.certified()
        )
    });
    out.push(metric("core.certify_ms", "ms", certify_us / 1e3));
    out.push(metric("core.cycles_checked", "count", cycles as f64));
    out.push(metric("core.orderings_checked", "count", orderings as f64));

    // model: the streaming auditor on a serial history of every template.
    let orders: Vec<Vec<NodeId>> = sys.txns().iter().map(|t| t.any_total_order()).collect();
    let audited: u32 = if opts.quick { 500 } else { 20_000 };
    let (sealed, audit_us) = probe.median_us("model.audit", reps(5), || {
        let mut auditor = StreamingAuditor::new(sys);
        for gid in 0..audited {
            let t = gid as usize % orders.len();
            auditor.admit(gid, TxnId::from_index(t));
            for &node in &orders[t] {
                auditor.event(gid, 0, node);
            }
            auditor.commit(gid, 0);
        }
        auditor.seal()
    });
    tally.check(sealed == Some(true), || {
        format!("serial history audited {sealed:?}")
    });
    out.push(metric(
        "model.audit_us_per_commit",
        "us",
        audit_us / f64::from(audited),
    ));

    // engine.template: certify + plan. Each timed registry becomes one
    // of the four engines below, so nothing is certified twice for it.
    let mut admission_us = Vec::new();
    let mut registries: Vec<TemplateRegistry> = (0..4)
        .map(|_| {
            let (registry, took) = probe.once("engine.template.admission", || {
                TemplateRegistry::register_with(sys.clone(), AdmissionOptions::default())
            });
            admission_us.push(micros(took));
            registry
        })
        .collect();
    out.push(metric(
        "engine.template.admission_ms",
        "ms",
        median(&admission_us) / 1e3,
    ));
    let wal_dir = dir.join("layers-wal");
    let sync_dir = dir.join("layers-sync-wal");
    let mut engine = |work_us: u64, wal: Option<&Path>, sync: bool| {
        let registry = registries.pop().expect("one registry per engine");
        let cfg = engine_cfg(w, work_us, wal.map(Path::to_path_buf), sync);
        Engine::try_with_registry(registry, cfg)
    };
    // `mem` is the workload's executor with no log. The other three do
    // no simulated work: the cost of the log is a difference between
    // them, and beside ~190 us of sleeping per hot commit a 2 us append
    // is lost in the noise of the two medians.
    let mem = engine(w.server.work_us, None, false)?;
    let bare = engine(0, None, false)?;
    let logged = engine(0, Some(&wal_dir), false)?;
    let synced = engine(0, Some(&sync_dir), true)?;

    // engine.executor: the fixed cost of a run, then the cost of one
    // more instance inside a run.
    let mut rng = Rng::new(opts.seed ^ 0xF1DE);
    let (_, run_fixed_us) = probe.median_us("engine.executor.run_fixed", reps(2000), || {
        mem.run_mix(&[(TxnId::from_index(rng.below(sys.len())), 1)])
    });
    out.push(metric("engine.executor.run_fixed_us", "us", run_fixed_us));
    let batch = if w.count > 1 { w.count as usize } else { 512 };
    let mix = round_robin(sys, batch);
    let (mem_us, report, aborts) = batch_us_per_commit(
        &mut probe,
        "engine.executor.batch",
        &mem,
        &mix,
        reps(20),
        tally,
    );
    let batch_commits = (reps(20) * batch) as f64;
    out.push(metric("engine.executor.us_per_commit", "us", mem_us));
    out.push(metric(
        "engine.executor.aborts_per_commit",
        "ratio",
        aborts as f64 / batch_commits,
    ));
    out.push(metric(
        "engine.executor.failed",
        "count",
        report.failed.len() as f64,
    ));
    tally.check((aborts == 0) == w.certified() || opts.quick, || {
        format!(
            "{aborts} in-process aborts, workload expects certified = {}",
            w.certified()
        )
    });

    // engine.wal: the same batches without and with the log, then the
    // workload's own Submit without and with fsync — one instance where
    // count = 1, because that is the run whose every commit syncs alone;
    // at most 64 otherwise, because every group syncs. Both differences
    // are clamped at 0.
    let (bare_us, _, _) = batch_us_per_commit(
        &mut probe,
        "engine.executor.batch",
        &bare,
        &mix,
        reps(20),
        tally,
    );
    let (logged_us, _, _) = batch_us_per_commit(
        &mut probe,
        "engine.wal.append",
        &logged,
        &mix,
        reps(20),
        tally,
    );
    out.push(metric(
        "engine.wal.append_us_per_commit",
        "us",
        (logged_us - bare_us).max(0.0),
    ));
    let (short, short_reps) = if w.count == 1 {
        (round_robin(sys, 1), reps(200))
    } else {
        (round_robin(sys, batch.min(64)), reps(20))
    };
    let (short_us, _, _) = batch_us_per_commit(
        &mut probe,
        "engine.wal.append",
        &logged,
        &short,
        short_reps,
        tally,
    );
    let (sync_us, sync_report, _) = batch_us_per_commit(
        &mut probe,
        "engine.wal.sync",
        &synced,
        &short,
        short_reps,
        tally,
    );
    out.push(metric(
        "engine.wal.sync_us_per_commit",
        "us",
        (sync_us - short_us).max(0.0),
    ));
    out.push(metric(
        "engine.wal.commits_per_flush",
        "count",
        sync_report.group_commits as f64 / sync_report.group_flushes.max(1) as f64,
    ));
    let logged_commits = logged.report_snapshot().committed as u64;
    let logged_sum = logged.store().total_int();
    drop(logged);
    drop(synced);
    out.push(metric(
        "engine.wal.bytes_per_commit",
        "B",
        dir_bytes(&wal_dir)? as f64 / logged_commits as f64,
    ));
    let (recover_us, _) = probe.once("engine.wal.recover", || {
        recover_checked(&wal_dir, logged_commits, logged_sum, reps(20), tally)
    });
    out.push(metric(
        "engine.wal.recover_us_per_commit",
        "us",
        recover_us?,
    ));
    std::fs::remove_dir_all(&wal_dir)?;
    std::fs::remove_dir_all(&sync_dir)?;

    // engine.mvcc / engine.store: the reader's scan, idle and beside a
    // writer, and the locked scan it replaced.
    let db = sys.db();
    let ids: Vec<EntityId> = if plan.read_set.is_empty() {
        db.entities().collect()
    } else {
        plan.read_set
            .iter()
            .map(|name| db.entity_by_name(name).expect("read set names entities"))
            .collect()
    };
    let store = mem.store_handle();
    let (_, quiet_us) = probe.median_us("engine.mvcc.scan", reps(2000), || {
        black_box(store.read_only_snapshot(&ids))
    });
    let (_, locked_us) = probe.median_us("engine.store.locked_scan", reps(400), || {
        black_box(store.snapshot())
    });
    let stop = AtomicBool::new(false);
    let churn_us = std::thread::scope(|s| {
        let churn = s.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                mem.run_mix(&mix);
            }
        });
        std::thread::sleep(Duration::from_millis(5));
        let (_, us) = probe.median_us("engine.mvcc.scan", reps(2000), || {
            black_box(store.read_only_snapshot(&ids))
        });
        stop.store(true, Ordering::SeqCst);
        churn.join().expect("churn thread panicked");
        us
    });
    out.push(metric("engine.mvcc.scan_us_quiet", "us", quiet_us));
    out.push(metric("engine.mvcc.scan_us_churn", "us", churn_us));
    out.push(metric("engine.store.locked_scan_us", "us", locked_us));
    out.push(metric(
        "engine.mvcc.chain_versions",
        "count",
        store.total_versions() as f64,
    ));

    // server.proto: a Submit frame, and a reply of the reader's size.
    const CODEC_BATCH: usize = 200;
    let submit = Request::Submit {
        template: plan.templates[0].clone(),
        count: w.count,
    };
    let (_, submit_codec_us) = probe.median_us("server.proto.submit_codec", reps(40), || {
        for _ in 0..CODEC_BATCH {
            black_box(Request::decode(black_box(&submit).encode()));
        }
    });
    let reply = Response::Snapshot(SnapshotReply {
        ts: 1,
        entries: ids
            .iter()
            .map(|&e| SnapEntry {
                name: db.name_of(e).to_string(),
                commit_ts: 1,
                version: 1,
                value: Some(1_000),
            })
            .collect(),
    });
    let (_, snapshot_codec_us) = probe.median_us("server.proto.snapshot_codec", reps(40), || {
        for _ in 0..CODEC_BATCH {
            black_box(Response::decode(black_box(&reply).encode()));
        }
    });
    let per_call = CODEC_BATCH as f64;
    out.push(metric(
        "server.proto.submit_codec_ns",
        "ns",
        submit_codec_us * 1e3 / per_call,
    ));
    out.push(metric(
        "server.proto.snapshot_codec_us",
        "us",
        snapshot_codec_us / per_call,
    ));

    probe
        .log
        .record("harness.layers", [LAYERS, 0, 0], [LAYERS, 0, 0], started);
    Ok(out)
}

/// How much slower `with` is than `without`, percent of `without`.
fn overhead_pct(without: f64, with: f64) -> f64 {
    100.0 * (without - with) / without
}

/// The `--trace 1` run: every per-layer metric of one workload, and
/// `trace.jsonl`.
pub fn traced(opts: &RunOpts) -> io::Result<Outcome> {
    let w = opts.workload;
    let dir = opts.out_dir();
    let owned = ["wal", "wal-telemetry", "layers-wal", "layers-sync-wal"];
    prepare_out_dir(&dir, &owned)?;
    let plan = Plan::new(w, opts.seed);
    let mut log = SpanLog::new(Instant::now());
    let mut tally = Tally::default();

    // Wire part. Variant 0 is the end-to-end run as measured, 1 adds
    // client spans, 2 swaps in the telemetry-on server.
    let mut plain = Session::start(w, false, dir.join("wal"))?;
    let mut instrumented = Session::start(w, true, dir.join("wal-telemetry"))?;
    settle(opts, &plan, &mut plain, &mut tally)?;
    let mut variants: [Vec<Round>; 3] = Default::default();
    let began = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds * 0.6);
    let mut index = 0;
    loop {
        for (v, rounds) in variants.iter_mut().enumerate() {
            let session = if v == 2 {
                &mut instrumented
            } else {
                &mut plain
            };
            let spans = (v == 1).then_some(&mut log);
            rounds.push(round(opts, &plan, session, index, spans)?);
            index += 1;
        }
        if opts.quick || (variants[0].len() >= 2 && began.elapsed() > budget) {
            break;
        }
    }
    let rtt_us = plain.rtt_us(if opts.quick { 50 } else { 1000 })?;
    let stats = instrumented.stats()?;
    plain.child.shutdown()?;
    instrumented.child.shutdown()?;
    std::fs::remove_dir_all(dir.join("wal"))?;
    std::fs::remove_dir_all(dir.join("wal-telemetry"))?;

    // Latencies come from the two telemetry-off variants together.
    for r in variants.iter().flatten() {
        tally.absorb(r.tally);
    }
    let throughput = variants
        .each_ref()
        .map(|v| over_rounds(v, Round::commits_per_s));
    let [as_measured, with_spans, _] = variants;
    let plain_rounds: Vec<Round> = as_measured.into_iter().chain(with_spans).collect();
    let typical =
        |of: fn(&Round) -> &Vec<f64>, p: f64| over_rounds(&plain_rounds, |r| percentile(of(r), p));
    let pooled = |of: fn(&Round) -> &Vec<f64>, p: f64| {
        let all: Vec<f64> = plain_rounds.iter().flat_map(|r| of(r).clone()).collect();
        percentile(&all, p)
    };
    let submit_p50_us = typical(|r| &r.submit_us, 50.0);

    let mut metrics = measure_layers(opts, &plan, &dir, &mut log, &mut tally)?;
    let layer = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };

    // The budget: what the layers predict a Submit costs, against what
    // the client saw.
    let mut per_commit =
        layer("engine.executor.us_per_commit") + layer("engine.wal.append_us_per_commit");
    if w.server.wal_sync {
        per_commit += layer("engine.wal.sync_us_per_commit");
    }
    let predicted_us =
        rtt_us + layer("engine.executor.run_fixed_us") + f64::from(w.count) * per_commit;
    let residue_pct = 100.0 * (submit_p50_us - predicted_us) / submit_p50_us;
    eprintln!(
        "ddlf-harness: {} budget: rtt {:.1} + run_fixed {:.1} + {} x {:.2} = {:.1} us predicted, {:.1} us measured submit p50, {:.1}% unattributed",
        w.name,
        rtt_us,
        layer("engine.executor.run_fixed_us"),
        w.count,
        per_commit,
        predicted_us,
        submit_p50_us,
        residue_pct,
    );

    metrics.extend([
        metric(
            "engine.executor.lock_wait_p50_us",
            "us",
            phase_p50_us(&stats, "lock_wait"),
        ),
        metric(
            "engine.executor.gate_wait_p50_us",
            "us",
            phase_p50_us(&stats, "gate_wait"),
        ),
        metric(
            "engine.wal.fsync_p50_us",
            "us",
            phase_p50_us(&stats, "fsync"),
        ),
        metric(
            "engine.wal.group_size_mean",
            "count",
            stats.group_commits as f64 / stats.group_flushes.max(1) as f64,
        ),
        metric(
            "register_ms",
            "ms",
            over_rounds(&plain_rounds, |r| r.register_ms),
        ),
        metric("server.rtt_us", "us", rtt_us),
        metric(
            "server.submit_overhead_us",
            "us",
            submit_p50_us - typical(|r| &r.server_us, 50.0),
        ),
        metric(
            "harness.trace_overhead_pct",
            "%",
            overhead_pct(throughput[0], throughput[1]),
        ),
        metric(
            "telemetry.overhead_pct",
            "%",
            overhead_pct(throughput[0], throughput[2]),
        ),
        metric("submit_p95_us", "us", typical(|r| &r.submit_us, 95.0)),
        metric("read_p50_us", "us", typical(|r| &r.read_us, 50.0)),
        metric("read_p95_us", "us", typical(|r| &r.read_us, 95.0)),
        metric("submit_p99_us", "us", pooled(|r| &r.submit_us, 99.0)),
        metric("read_p99_us", "us", pooled(|r| &r.read_us, 99.0)),
        metric("budget.predicted_submit_us", "us", predicted_us),
        metric("budget.residue_pct", "%", residue_pct),
    ]);
    log.write_jsonl(&dir.join("trace.jsonl"))?;
    Ok(Outcome { tally, metrics })
}
