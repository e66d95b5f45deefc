//! End-to-end tests of the `ReadOnly` RPC: a wire client observes a
//! committed multiversion cut — whole database or a named subset — and,
//! the property the path exists for, the read answers from a second
//! connection *while* another connection's `Submit` is in a long run.

use ddlf_server::{Client, ClientError, ErrorKind, InflateSpec, ServeConfig, Server};
use std::time::Duration;

const SPEC: &str = r#"{
  "entities": [ {"name": "x", "site": 0}, {"name": "y", "site": 1} ],
  "transactions": [
    { "name": "T1", "ops": ["L x", "L y", "U y", "U x"] },
    { "name": "T2", "ops": ["L x", "L y", "U y", "U x"] }
  ]
}"#;

/// A server whose engines hold every lock grant for `work`.
fn serve(work: Duration) -> (String, std::thread::JoinHandle<()>) {
    let mut config = ServeConfig::default();
    config.engine.work = work;
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().unwrap());
    (addr, handle)
}

#[test]
fn read_only_observes_the_committed_state() {
    let (addr, handle) = serve(Duration::ZERO);
    let mut client = Client::connect(&addr).unwrap();

    // Before any registration: typed NoSystem, not a hang or a panic.
    match client.read(&[]) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::NoSystem),
        other => panic!("expected NoSystem, got {other:?}"),
    }

    client.register(SPEC, InflateSpec::None).unwrap();

    // Registration seeds every entity at the initial value, version 0,
    // commit ts 0 — and the cut itself is ts 0.
    let seed = client.read(&[]).unwrap();
    assert_eq!(seed.ts, 0);
    let names: Vec<_> = seed.entries.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, ["x", "y"], "empty request = schema order");
    assert!(seed
        .entries
        .iter()
        .all(|e| e.commit_ts == 0 && e.version == 0 && e.value == Some(1_000)));

    // 64 default counter instances: each commit adds 1 to both
    // entities, so the final cut is exact, not merely conserved.
    let run = client.submit_all(64).unwrap();
    assert_eq!(run.committed, 64);
    let snap = client.read(&[]).unwrap();
    assert_eq!(snap.ts, 64, "every commit claimed one timestamp");
    assert!(snap.entries.iter().all(|e| e.value == Some(1_000 + 64)));
    assert_eq!(snap.sum_int(), 2 * (1_000 + 64));

    // A named subset comes back in request order, not schema order.
    let subset = client.read(&["y".to_string()]).unwrap();
    assert_eq!(subset.entries.len(), 1);
    assert_eq!(subset.entries[0].name, "y");
    assert_eq!(subset.entries[0].value, Some(1_000 + 64));

    // An unknown entity is a typed rejection.
    match client.read(&["nope".to_string()]) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn read_only_answers_mid_submit_and_conserves() {
    // 50 µs of work per lock grant makes the run last tens of
    // milliseconds in a release build too, where it would otherwise end
    // before the first read.
    let (addr, handle) = serve(Duration::from_micros(50));
    let mut client = Client::connect(&addr).unwrap();
    client.register(SPEC, InflateSpec::None).unwrap();

    // Long enough that reads land mid-run (the debug-only batch-audit
    // cross-check is quadratic, so keep N modest). These reads answer
    // promptly because the snapshot path reads the store directly and
    // never waits for the run.
    const N: u32 = 800;
    let submit_addr = addr.clone();
    let submitter = std::thread::spawn(move || {
        let mut c = Client::connect(&submit_addr).unwrap();
        c.submit_all(N).unwrap()
    });

    // Every mid-run cut must be internally consistent: both entities
    // show the same commit count (each commit writes both), and the
    // observed timestamps never run backwards across polls.
    let mut saw_mid_run = false;
    let mut last_ts = 0;
    while !submitter.is_finished() {
        let snap = client.read(&[]).unwrap();
        assert!(snap.ts >= last_ts, "snapshot ts ran backwards");
        last_ts = snap.ts;
        let x = snap.entries[0].value.unwrap();
        let y = snap.entries[1].value.unwrap();
        assert_eq!(x, y, "cut split a commit at ts {}", snap.ts);
        assert_eq!(x, 1_000 + snap.ts, "cut is exactly the ts-th state");
        if !submitter.is_finished() && snap.ts > 0 && snap.ts < u64::from(N) {
            saw_mid_run = true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let run = submitter.join().unwrap();
    assert_eq!(run.committed, u64::from(N));
    assert!(
        saw_mid_run,
        "no read observed the run in progress — either the run finished \
         implausibly fast or ReadOnly blocked on the engine lock"
    );

    let final_snap = client.read(&[]).unwrap();
    assert_eq!(final_snap.ts, u64::from(N));
    assert_eq!(final_snap.sum_int(), 2 * (1_000 + u128::from(N)));

    client.shutdown().unwrap();
    handle.join().unwrap();
}
