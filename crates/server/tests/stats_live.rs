//! End-to-end tests of the `Stats` RPC: the digest reflects a real run,
//! and — the property it exists for — it answers from a second
//! connection *while* another connection's `Submit` is in a long run.

use ddlf_engine::{EngineConfig, Telemetry, TelemetryConfig};
use ddlf_server::{Client, InflateSpec, ServeConfig, Server};
use std::time::Duration;

const SPEC: &str = r#"{
  "entities": [ {"name": "x", "site": 0}, {"name": "y", "site": 1} ],
  "transactions": [
    { "name": "T1", "ops": ["L x", "L y", "U y", "U x"] },
    { "name": "T2", "ops": ["L x", "L y", "U y", "U x"] }
  ]
}"#;

/// A server with telemetry on whose engines hold every lock grant for
/// `work` and admit instances in chunks of `admission_batch`.
fn telemetry_server(work: Duration, admission_batch: usize) -> (Server, Telemetry) {
    let telemetry = Telemetry::new(TelemetryConfig::default());
    let cfg = ServeConfig {
        engine: EngineConfig {
            telemetry: telemetry.clone(),
            work,
            admission_batch,
            ..Default::default()
        },
        ..Default::default()
    };
    (Server::bind("127.0.0.1:0", cfg).unwrap(), telemetry)
}

#[test]
fn stats_digest_a_completed_run() {
    // One 64-instance chunk.
    let (server, _tel) = telemetry_server(Duration::ZERO, 64);
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(&addr).unwrap();

    // Before any registration: an enabled handle answers zeros, but
    // with the full phase list (telemetry on, nothing recorded yet).
    let empty = client.stats().unwrap();
    assert_eq!(empty.committed(), 0);
    assert!(empty.phases.iter().all(|p| p.count == 0));

    client.register(SPEC, InflateSpec::None).unwrap();
    let run = client.submit_all(64).unwrap();
    assert_eq!(run.committed, 64);

    let stats = client.stats().unwrap();
    assert_eq!(stats.committed(), 64);
    assert_eq!(stats.templates.len(), 2);
    assert!(stats.templates.iter().all(|t| t.committed == 32));
    let phase = |name: &str| stats.phases.iter().find(|p| p.name == name).unwrap();
    // One commit and one execute sample per committed instance; at
    // least one lock-wait sample per lock acquisition.
    assert_eq!(phase("commit").count, 64);
    assert_eq!(phase("execute").count, 64);
    assert!(phase("lock_wait").count >= 64);
    assert!(phase("commit").sum_ns > 0);
    assert!(phase("commit").max_ns >= phase("commit").p50_ns);
    // Certified path: zero deaths, zero aborted attempts.
    assert!(stats
        .templates
        .iter()
        .all(|t| t.dies == 0 && t.aborted == 0));

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn stats_answer_mid_submit() {
    // 50 µs of work per lock grant makes the run last tens of
    // milliseconds in a release build too, where it would otherwise end
    // before the first poll.
    let (server, _tel) = telemetry_server(Duration::from_micros(50), 1);
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(&addr).unwrap();
    client.register(SPEC, InflateSpec::None).unwrap();

    // A run long enough that stats polls land mid-run (in a debug
    // build a few hundred fully-conflicting instances take well over
    // the poll interval — the debug-only batch-audit cross-check is
    // quadratic, so keep N modest). The polls land mid-run because the
    // Stats path reads the shared telemetry handle and never waits on
    // the engine.
    const N: u32 = 800;
    let submit_addr = addr.clone();
    let submitter = std::thread::spawn(move || {
        let mut c = Client::connect(&submit_addr).unwrap();
        c.submit_all(N).unwrap()
    });

    let mut saw_mid_run = false;
    while !submitter.is_finished() {
        let stats = client.stats().unwrap();
        if !submitter.is_finished() && stats.phases.iter().any(|p| p.count > 0) {
            saw_mid_run = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let run = submitter.join().unwrap();
    assert_eq!(run.committed, u64::from(N));
    assert!(
        saw_mid_run,
        "no stats poll observed the run in progress — either the run \
         finished implausibly fast or Stats blocked on the engine lock"
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
}
