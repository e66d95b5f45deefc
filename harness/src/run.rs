//! The wire run: spawn the server child, drive it over TCP in rounds of
//! fixed work, check every answer, and turn the samples into metrics.
//!
//! A round is `RegisterSystem` (fresh store, rotated WAL) → an untimed
//! warm-up → the workload's fixed list of RPCs, timed. Work per round
//! never varies, so counts repeat exactly; `--seconds` only decides how
//! many rounds there are, after [`SETTLE`] of rounds nobody times.
//! Throughput is the median over rounds; a latency percentile is the
//! median over rounds of each round's own percentile.

use crate::child::Child;
use crate::stats::{median, metric, micros, percentile, Metric, Outcome, Tally};
use crate::systems::Rng;
use crate::trace::{timed, SpanId, SpanLog};
use crate::workloads::{ReadSet, Workload};
use ddlf_engine::wal;
use ddlf_model::{SystemSpec, TransactionSystem};
use ddlf_server::{Client, ClientError, InflateSpec, RunStats, StatsSnapshot};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Initial integer payload of every entity (`EngineConfig::default`).
const INITIAL_VALUE: u128 = 1_000;
const THINK_TIME: Duration = Duration::from_millis(1);
const MIN_ROUNDS: usize = 4;
/// Load nobody times, before anything is measured. A host that has
/// been idle serves the first second or two of a wake-up-bound loop at
/// two to three times the speed it then settles to (measured here:
/// ~9 000 count=1 commits/s falling to ~4 000 and staying there), so a
/// run that began measuring at once would mostly measure how long the
/// host had been idle before it.
const SETTLE: Duration = Duration::from_millis(2500);
/// A crash epilogue whose writers stall is killed anyway, and then
/// fails its check, rather than hanging the run.
const CRASH_DEADLINE: Duration = Duration::from_secs(30);

pub struct RunOpts {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    /// One round of a twentieth of the work, one set-up, no repeats: the
    /// harness's own smoke test. Its numbers mean nothing.
    pub quick: bool,
}

impl RunOpts {
    pub fn out_dir(&self) -> PathBuf {
        Path::new("harness/out").join(self.workload.name)
    }

    fn submits(&self) -> usize {
        self.reps(self.workload.submits).max(2)
    }

    /// `full` repeats, or a twentieth of them (at least one) when quick.
    pub fn reps(&self, full: usize) -> usize {
        if self.quick {
            (full / 20).max(1)
        } else {
            full
        }
    }
}

/// Everything generated from the seed before the server sees anything.
pub struct Plan {
    pub spec_json: String,
    pub system: TransactionSystem,
    pub templates: Vec<String>,
    /// The `entities` argument of every read (`[]` = full scan).
    pub read_set: Vec<String>,
}

impl Plan {
    pub fn new(w: &Workload, seed: u64) -> Plan {
        let spec: SystemSpec = w.system.spec(seed);
        let system = spec.build().expect("generated specs are well-formed");
        let templates: Vec<String> = spec.transactions.iter().map(|t| t.name.clone()).collect();
        let read_set = match w.reads {
            ReadSet::FullScan => Vec::new(),
            ReadSet::Hot => vec!["hot".to_string()],
            ReadSet::FourAccounts => {
                let mut written: Vec<String> = spec
                    .transactions
                    .iter()
                    .flat_map(|t| t.ops.iter())
                    .filter_map(|op| op.strip_prefix("L "))
                    .map(str::to_string)
                    .collect();
                written.sort();
                written.dedup();
                let mut rng = Rng::new(seed ^ 0x4EAD);
                (0..4)
                    .map(|_| written.swap_remove(rng.below(written.len())))
                    .collect()
            }
        };
        Plan {
            spec_json: serde_json::to_string(&spec).expect("a spec always encodes"),
            system,
            templates,
            read_set,
        }
    }

    fn initial_sum(&self) -> u128 {
        self.system.db().entity_count() as u128 * INITIAL_VALUE
    }
}

fn wire(e: ClientError) -> io::Error {
    io::Error::other(e.to_string())
}

/// The server child and every connection the run keeps open to it:
/// one per client thread. Whatever happens between rounds (register,
/// report, the checking scan) goes over the first writer's connection.
pub struct Session {
    pub child: Child,
    writers: Vec<Client>,
    readers: Vec<Client>,
    pub wal_dir: PathBuf,
}

impl Session {
    pub fn start(w: &Workload, telemetry: bool, wal_dir: PathBuf) -> io::Result<Session> {
        let child = Child::spawn(w.server, telemetry, &wal_dir)?;
        let connect = |n| (0..n).map(|_| child.connect()).collect::<io::Result<_>>();
        Ok(Session {
            writers: connect(w.writers)?,
            readers: connect(w.readers)?,
            child,
            wal_dir,
        })
    }

    fn control(&mut self) -> &mut Client {
        &mut self.writers[0]
    }

    pub fn stats(&mut self) -> io::Result<StatsSnapshot> {
        self.control().stats().map_err(wire)
    }

    /// Median RTT of `Report`, the RPC with no engine work behind it.
    pub fn rtt_us(&mut self, calls: usize) -> io::Result<f64> {
        let mut samples = Vec::with_capacity(calls);
        for _ in 0..calls {
            let t = Instant::now();
            self.control().report().map_err(wire)?;
            samples.push(micros(t.elapsed()));
        }
        Ok(median(&samples))
    }
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub register_ms: f64,
    pub wall: Duration,
    pub committed: u64,
    pub aborted: u64,
    /// Commits acknowledged since this round's registration, warm-up
    /// included: what recovery of this round's WAL must return.
    pub acked: u64,
    pub scan_sum: u128,
    pub wal_bytes: u64,
    pub submit_us: Vec<f64>,
    /// `RunStats.wall_us` of each reply: the server's own view of a run.
    pub server_us: Vec<f64>,
    pub read_us: Vec<f64>,
    pub read_late_us: Vec<f64>,
    pub tally: Tally,
}

impl Round {
    pub fn commits_per_s(&self) -> f64 {
        self.committed as f64 / self.wall.as_secs_f64()
    }
}

/// Median over rounds of one number per round. Every gated timing is
/// one of these: `commits_per_s` of the round, or the round's own
/// percentile of a latency ("the latency of a typical round" — the
/// percentile of all rounds pooled is set by the few rounds a neighbour
/// disturbed, and does not repeat).
pub fn over_rounds(rounds: &[Round], of: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(of).collect::<Vec<_>>())
}

struct WriterOut {
    started: Instant,
    finished: Instant,
    submit_us: Vec<f64>,
    server_us: Vec<f64>,
    committed: u64,
    aborted: u64,
    tally: Tally,
    spans: Option<SpanLog>,
}

#[derive(Default)]
struct ReaderOut {
    read_us: Vec<f64>,
    late_us: Vec<f64>,
    tally: Tally,
    spans: Option<SpanLog>,
}

fn check_submit(w: &Workload, stats: &RunStats, want: u64, tally: &mut Tally) {
    tally.check(stats.all_committed() && stats.instances == want, || {
        format!(
            "Submit committed {}/{want}, failed {}",
            stats.committed, stats.failed
        )
    });
    tally.check(stats.serializable == Some(true), || {
        format!("Submit audited {:?}, not Some(true)", stats.serializable)
    });
    if w.certified() {
        tally.check(stats.aborted_attempts == 0, || {
            format!("{} aborts on a certified system", stats.aborted_attempts)
        });
    }
}

/// One `Submit` of the workload's shape: a named template when
/// `count = 1`, round-robin over all of them otherwise.
fn submit(w: &Workload, client: &mut Client, plan: &Plan, template: usize) -> io::Result<RunStats> {
    let name = if w.count == 1 {
        plan.templates[template].as_str()
    } else {
        ""
    };
    client.submit(name, w.count).map_err(wire)
}

fn writer_loop(
    w: &Workload,
    client: &mut Client,
    plan: &Plan,
    picks: &[usize],
    start: &Barrier,
    mut spans: Option<SpanLog>,
    (round, conn): (u32, u32),
) -> io::Result<WriterOut> {
    let mut submit_us = Vec::with_capacity(picks.len());
    let mut server_us = Vec::with_capacity(picks.len());
    let (mut committed, mut aborted, mut tally) = (0, 0, Tally::default());
    start.wait();
    let started = Instant::now();
    for (seq, &template) in picks.iter().enumerate() {
        let id: SpanId = [round, conn, seq as u32 + 1];
        let (stats, took) = timed(spans.as_mut(), "server.submit", id, [round, 0, 0], || {
            submit(w, client, plan, template)
        });
        let stats = stats?;
        submit_us.push(micros(took));
        server_us.push(stats.wall_us as f64);
        committed += stats.committed;
        aborted += stats.aborted_attempts;
        check_submit(w, &stats, u64::from(w.count), &mut tally);
    }
    Ok(WriterOut {
        started,
        finished: Instant::now(),
        submit_us,
        server_us,
        committed,
        aborted,
        tally,
        spans,
    })
}

fn reader_loop(
    client: &mut Client,
    plan: &Plan,
    start: &Barrier,
    done: &AtomicBool,
    mut spans: Option<SpanLog>,
    (round, conn): (u32, u32),
) -> io::Result<ReaderOut> {
    let mut out = ReaderOut::default();
    let want = if plan.read_set.is_empty() {
        plan.system.db().entity_count()
    } else {
        plan.read_set.len()
    };
    start.wait();
    while !done.load(Ordering::SeqCst) {
        let id: SpanId = [round, conn, out.read_us.len() as u32 + 1];
        let (snap, took) = timed(spans.as_mut(), "server.read", id, [round, 0, 0], || {
            client.read(&plan.read_set)
        });
        let snap = snap.map_err(wire)?;
        out.read_us.push(micros(took));
        out.tally.check(snap.entries.len() == want, || {
            format!(
                "read returned {} entries, wanted {want}",
                snap.entries.len()
            )
        });
        let slept = Instant::now();
        std::thread::sleep(THINK_TIME);
        out.late_us
            .push(micros(slept.elapsed().saturating_sub(THINK_TIME)));
    }
    out.spans = spans;
    Ok(out)
}

/// Runs one round on `session`. `spans` switches client-side tracing on
/// for the round and receives its spans.
pub fn round(
    opts: &RunOpts,
    plan: &Plan,
    session: &mut Session,
    index: usize,
    mut spans: Option<&mut SpanLog>,
) -> io::Result<Round> {
    let w = opts.workload;
    let round_no = index as u32 + 1;
    let round_start = Instant::now();
    let mut out = Round::default();

    let (reg, took) = timed(
        spans.as_deref_mut(),
        "server.register",
        [round_no, 1, 0],
        [round_no, 0, 0],
        || {
            session
                .control()
                .register(&plan.spec_json, InflateSpec::None)
        },
    );
    let reg = reg.map_err(wire)?;
    out.register_ms = took.as_secs_f64() * 1e3;
    out.tally.check(reg.certified == w.certified(), || {
        format!(
            "registered as {:?}, workload expects certified = {}",
            reg.verdict,
            w.certified()
        )
    });

    // Warm-up, untimed: one Submit of the round's batch size and a
    // couple of hundred reads, so the timed list starts on a server that
    // has already run this system once.
    let warm = submit(w, &mut session.writers[0], plan, 0)?;
    check_submit(w, &warm, u64::from(w.count), &mut out.tally);
    for reader in &mut session.readers {
        for _ in 0..opts.reps(200) {
            reader.read(&plan.read_set).map_err(wire)?;
        }
    }

    let mut rng = Rng::new(opts.seed ^ (u64::from(round_no) << 32));
    let picks: Vec<Vec<usize>> = (0..w.writers)
        .map(|_| {
            (0..opts.submits())
                .map(|_| rng.below(plan.templates.len()))
                .collect()
        })
        .collect();
    let start = Barrier::new(w.writers + w.readers);
    let done = AtomicBool::new(false);
    let (writer_outs, reader_outs) = std::thread::scope(|s| {
        let (start, done) = (&start, &done);
        let writers: Vec<_> = session
            .writers
            .iter_mut()
            .zip(&picks)
            .enumerate()
            .map(|(i, (client, picks))| {
                let log = spans.as_deref().map(SpanLog::fork);
                s.spawn(move || {
                    writer_loop(w, client, plan, picks, start, log, (round_no, i as u32 + 1))
                })
            })
            .collect();
        let readers: Vec<_> = session
            .readers
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let log = spans.as_deref().map(SpanLog::fork);
                let conn = (w.writers + i) as u32 + 1;
                s.spawn(move || reader_loop(client, plan, start, done, log, (round_no, conn)))
            })
            .collect();
        let writer_outs: Vec<_> = writers
            .into_iter()
            .map(|h| h.join().expect("writer thread panicked"))
            .collect();
        done.store(true, Ordering::SeqCst);
        let reader_outs: Vec<_> = readers
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        (writer_outs, reader_outs)
    });

    let writers = writer_outs.into_iter().collect::<io::Result<Vec<_>>>()?;
    let readers = reader_outs.into_iter().collect::<io::Result<Vec<_>>>()?;
    let started = writers.iter().map(|o| o.started).min();
    let finished = writers.iter().map(|o| o.finished).max();
    out.wall = finished.expect("at least one writer") - started.expect("at least one writer");
    for mut writer in writers {
        out.committed += writer.committed;
        out.aborted += writer.aborted;
        out.submit_us.append(&mut writer.submit_us);
        out.server_us.append(&mut writer.server_us);
        out.tally.absorb(writer.tally);
        if let (Some(all), Some(mine)) = (spans.as_deref_mut(), writer.spans) {
            all.spans.extend(mine.spans);
        }
    }
    for mut reader in readers {
        out.read_us.append(&mut reader.read_us);
        out.read_late_us.append(&mut reader.late_us);
        out.tally.absorb(reader.tally);
        if let (Some(all), Some(mine)) = (spans.as_deref_mut(), reader.spans) {
            all.spans.extend(mine.spans);
        }
    }

    // Quiescent now: the cumulative report, a full scan and the log
    // directory must tell the same story.
    let report = session.control().report().map_err(wire)?;
    let scan = session.control().read(&[]).map_err(wire)?;
    out.acked = out.committed + warm.committed;
    out.scan_sum = scan.sum_int();
    out.tally.check(report.committed == out.acked, || {
        format!(
            "report says {} commits, {} were acknowledged",
            report.committed, out.acked
        )
    });
    out.tally.check(
        out.scan_sum == plan.initial_sum() + u128::from(report.writes),
        || {
            format!(
                "scan sum {} != initial {} + {} writes",
                out.scan_sum,
                plan.initial_sum(),
                report.writes
            )
        },
    );
    out.wal_bytes = dir_bytes(&session.wal_dir)?;
    if let Some(all) = spans {
        all.record("harness.round", [round_no, 0, 0], [0, 0, 0], round_start);
    }
    Ok(out)
}

/// Makes the run's output directory and clears the scratch
/// subdirectories this mode owns, which a killed run may have left
/// behind. Whatever else is there — the traced run's `trace.jsonl` —
/// stays.
pub fn prepare_out_dir(dir: &Path, owned: &[&str]) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for name in owned {
        let _ = std::fs::remove_dir_all(dir.join(name));
    }
    Ok(())
}

pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// Replays `dir` `reps` times, checks the last replay against what the
/// server acknowledged, and returns the median microseconds per
/// recovered commit.
pub fn recover_checked(
    dir: &Path,
    acked: u64,
    scan_sum: u128,
    reps: usize,
    tally: &mut Tally,
) -> io::Result<f64> {
    let mut samples = Vec::new();
    let rec = loop {
        let t = Instant::now();
        let rec = wal::recover(dir).map_err(|e| io::Error::other(e.to_string()))?;
        samples.push(micros(t.elapsed()) / rec.committed.max(1) as f64);
        if samples.len() >= reps {
            break rec;
        }
    };
    tally.check(rec.committed as u64 == acked, || {
        format!(
            "recovered {} commits, {acked} were acknowledged",
            rec.committed
        )
    });
    tally.check(rec.serializable == Some(true), || {
        format!("recovered history audited {:?}", rec.serializable)
    });
    tally.check(rec.torn_tails == 0, || {
        format!("{} torn tails after a clean shutdown", rec.torn_tails)
    });
    tally.check(rec.store.total_int() == scan_sum, || {
        format!(
            "recovered sum {} != scanned sum {scan_sum}",
            rec.store.total_int()
        )
    });
    Ok(median(&samples))
}

/// `durable-commit`'s epilogue, untimed: SIGKILL the server between
/// replies and require every acknowledged commit back from the log.
/// SIGKILL leaves the page cache intact, so this is crash-of-process
/// durability, not power loss.
fn crash_epilogue(opts: &RunOpts, plan: &Plan, tally: &mut Tally) -> io::Result<()> {
    let w = opts.workload;
    let wal_dir = opts.out_dir().join("crash-wal");
    let mut session = Session::start(w, false, wal_dir.clone())?;
    session
        .control()
        .register(&plan.spec_json, InflateSpec::None)
        .map_err(wire)?;
    let kill_after = opts.submits().min(150) as u64;
    let acked = std::sync::atomic::AtomicU64::new(0);
    let Session { child, writers, .. } = session;
    std::thread::scope(|s| {
        for mut client in writers {
            let acked = &acked;
            s.spawn(move || {
                // Ends on the first lost reply: the server is gone.
                while let Ok(stats) = client.submit(&plan.templates[0], 1) {
                    acked.fetch_add(stats.committed, Ordering::SeqCst);
                }
            });
        }
        let began = Instant::now();
        while acked.load(Ordering::SeqCst) < kill_after && began.elapsed() < CRASH_DEADLINE {
            std::thread::sleep(Duration::from_millis(1));
        }
        child.kill()
    })?;
    let acked = acked.load(Ordering::SeqCst);
    let rec = wal::recover(&wal_dir).map_err(|e| io::Error::other(e.to_string()))?;
    // A commit can be durable with its reply still in flight: one per
    // writer at most.
    let recovered = rec.committed as u64;
    tally.check(
        (acked..=acked + w.writers as u64).contains(&recovered),
        || format!("after SIGKILL: {acked} acknowledged, {recovered} recovered"),
    );
    tally.check(rec.serializable == Some(true), || {
        format!(
            "after SIGKILL: recovered history audited {:?}",
            rec.serializable
        )
    });
    std::fs::remove_dir_all(&wal_dir)
}

/// One set-up as a user pays it: spawn the server, connect, register
/// for the first time, run the first warm-up. Returns the session and
/// the seconds it took.
fn set_up(
    opts: &RunOpts,
    plan: &Plan,
    wal_dir: &Path,
    tally: &mut Tally,
) -> io::Result<(Session, f64)> {
    let w = opts.workload;
    let t = Instant::now();
    let mut session = Session::start(w, false, wal_dir.to_path_buf())?;
    session
        .control()
        .register(&plan.spec_json, InflateSpec::None)
        .map_err(wire)?;
    let warm = submit(w, &mut session.writers[0], plan, 0)?;
    check_submit(w, &warm, u64::from(w.count), tally);
    Ok((session, t.elapsed().as_secs_f64()))
}

/// Runs rounds nobody times until the host has been under this load for
/// [`SETTLE`]. Their checks still count.
pub fn settle(
    opts: &RunOpts,
    plan: &Plan,
    session: &mut Session,
    tally: &mut Tally,
) -> io::Result<()> {
    let began = Instant::now();
    while !opts.quick && began.elapsed() < SETTLE {
        tally.absorb(round(opts, plan, session, 0, None)?.tally);
    }
    Ok(())
}

/// The `--trace 0` run: every end-to-end metric of one workload.
pub fn end_to_end(opts: &RunOpts) -> io::Result<Outcome> {
    let w = opts.workload;
    let dir = opts.out_dir();
    prepare_out_dir(&dir, &["wal", "setup-wal", "crash-wal"])?;
    let plan = Plan::new(w, opts.seed);
    let wal_dir = dir.join("wal");
    let mut tally = Tally::default();

    let (mut session, first_setup_s) = set_up(opts, &plan, &wal_dir, &mut tally)?;
    let mut setup_s = vec![first_setup_s];
    settle(opts, &plan, &mut session, &mut tally)?;

    let mut rounds: Vec<Round> = Vec::new();
    let began = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    loop {
        let t = Instant::now();
        rounds.push(round(opts, &plan, &mut session, rounds.len(), None)?);
        let next_ends = began.elapsed() + t.elapsed();
        let n = rounds.len();
        if opts.quick || (n >= MIN_ROUNDS && next_ends > budget) {
            break;
        }
    }
    let server_peak_rss_mb = session.child.peak_rss_mb()?;
    session.child.shutdown()?;

    // The other set-ups come after the rounds, on the settled host: at
    // least five in all, and a cheap one repeats up to fifteen times
    // within a second, because a 5 ms figure needs more samples than a
    // 0.4 s one.
    let setup_dir = dir.join("setup-wal");
    let began = Instant::now();
    while setup_s.len() < opts.reps(5)
        || (!opts.quick && setup_s.len() < 15 && began.elapsed() < Duration::from_secs(1))
    {
        let (extra, s) = set_up(opts, &plan, &setup_dir, &mut tally)?;
        extra.child.shutdown()?;
        setup_s.push(s);
    }
    let _ = std::fs::remove_dir_all(&setup_dir);

    // Recovery is checked here and timed in the traced run: replay is
    // one thread of this process, and its time follows the host's
    // clock speed too closely to gate on.
    let last = rounds.last().expect("at least one round");
    recover_checked(&wal_dir, last.acked, last.scan_sum, 1, &mut tally)?;
    if w.server.wal_sync {
        crash_epilogue(opts, &plan, &mut tally)?;
    }
    std::fs::remove_dir_all(&wal_dir)?;

    let aborted: u64 = rounds.iter().map(|r| r.aborted).sum();
    if !w.certified() {
        tally.check(aborted > 0, || {
            "wait-die ran without a single abort".to_string()
        });
    }
    for r in &rounds {
        tally.absorb(r.tally);
    }
    let by_round: Vec<String> = rounds
        .iter()
        .map(|r| format!("{:.0}", r.commits_per_s()))
        .collect();
    eprintln!("ddlf-harness: commits/s by round: {}", by_round.join(" "));
    let late_us: Vec<f64> = rounds.iter().flat_map(|r| r.read_late_us.clone()).collect();
    eprintln!(
        "ddlf-harness: {} seed {}: {} rounds, {} submit samples, {} read samples, reader late by {:.0} us (median), {} aborts",
        w.name,
        opts.seed,
        rounds.len(),
        rounds.iter().map(|r| r.submit_us.len()).sum::<usize>(),
        rounds.iter().map(|r| r.read_us.len()).sum::<usize>(),
        median(&late_us),
        aborted,
    );
    let metrics: Vec<Metric> = vec![
        metric("setup_s", "s", median(&setup_s)),
        metric(
            "commits_per_s",
            "1/s",
            over_rounds(&rounds, Round::commits_per_s),
        ),
        metric(
            "submit_p50_us",
            "us",
            over_rounds(&rounds, |r| percentile(&r.submit_us, 50.0)),
        ),
        metric(
            "wal_bytes_per_commit",
            "B",
            over_rounds(&rounds, |r| r.wal_bytes as f64 / r.acked as f64),
        ),
        metric("server_peak_rss_mb", "MB", server_peak_rss_mb),
    ];
    Ok(Outcome { tally, metrics })
}
