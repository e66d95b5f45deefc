//! The registration guarantee, end to end over TCP: a `RegisterSystem`
//! never swaps the engine (or rotates its WAL directory) under a
//! `Submit` still running, and a `Submit` that arrives while a
//! registration is pending runs on the engine that registration
//! installs.

use ddlf_engine::{recover, EngineConfig, Telemetry, TelemetryConfig};
use ddlf_model::SystemSpec;
use ddlf_server::{Client, InflateSpec, ServeConfig, Server};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// The system registered first: two transfers over x then y.
const OLD: &str = r#"{
  "entities": [ {"name": "x", "site": 0}, {"name": "y", "site": 1} ],
  "transactions": [
    { "name": "T1", "ops": ["L x", "L y", "U y", "U x"] },
    { "name": "T2", "ops": ["L x", "L y", "U y", "U x"] }
  ]
}"#;

/// The system that replaces it, with template names of its own.
const NEW: &str = r#"{
  "entities": [ {"name": "x", "site": 0}, {"name": "y", "site": 1}, {"name": "z", "site": 2} ],
  "transactions": [
    { "name": "U1", "ops": ["L y", "L z", "U z", "U y"] },
    { "name": "U2", "ops": ["L x", "L z", "U z", "U x"] }
  ]
}"#;

/// Instances of the long run on the old system. Every one of them holds
/// `x` across two locks' worth of work, so the run lasts at least
/// `2 × A_COUNT` ms however fast the host is.
const A_COUNT: u32 = 200;
/// Instances submitted while the registration is pending.
const C_COUNT: u32 = 8;

#[test]
fn a_registration_waits_out_runs_and_new_submits_wait_for_it() {
    let dir = std::env::temp_dir().join(format!("ddlf-register-waits-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        engine: EngineConfig {
            work: Duration::from_millis(1),
            telemetry: Telemetry::new(TelemetryConfig::default()),
            ..defaults.engine.clone()
        },
        wal_dir: Some(dir.clone()),
        ..defaults
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().to_string();
    let handle = thread::spawn(move || server.run().unwrap());

    let mut probe = Client::connect(&addr).unwrap();
    assert!(probe.register(OLD, InflateSpec::None).unwrap().certified);

    // Replies are recorded in arrival order.
    let (arrived, order) = mpsc::channel();

    // A: a WAL'd run on the old system, long enough to stay in flight.
    let a = {
        let (addr, arrived) = (addr.clone(), arrived.clone());
        thread::spawn(move || {
            let run = Client::connect(&addr).unwrap().submit_all(A_COUNT).unwrap();
            arrived.send("A").unwrap();
            run
        })
    };
    while probe.stats().unwrap().inflight == 0 {
        assert!(!a.is_finished(), "A ended before Stats saw it in flight");
        thread::sleep(Duration::from_millis(1));
    }

    // B: a registration of the new system while A is in flight.
    let b = {
        let addr = addr.clone();
        thread::spawn(move || {
            let reg = Client::connect(&addr)
                .unwrap()
                .register(NEW, InflateSpec::None)
                .unwrap();
            arrived.send("B").unwrap();
            reg
        })
    };
    // Time for B's request to reach the server and start waiting.
    thread::sleep(Duration::from_millis(50));
    assert!(!a.is_finished(), "A ended before C was sent");

    // C: a template only the new system has. Sent while B waits for A,
    // it must wait for B and run on the new engine, not on the old one
    // (which would answer `UnknownTemplate`).
    let c = Client::connect(&addr)
        .unwrap()
        .submit("U1", C_COUNT)
        .unwrap();
    assert_eq!(c.committed, u64::from(C_COUNT), "{c:?}");
    assert_eq!(c.serializable, Some(true), "{c:?}");

    let a = a.join().unwrap();
    assert_eq!(
        (a.instances, a.committed),
        (u64::from(A_COUNT), u64::from(A_COUNT))
    );
    assert_eq!(a.serializable, Some(true), "{a:?}");
    assert!(b.join().unwrap().certified);
    assert_eq!(
        order.iter().collect::<Vec<_>>(),
        ["A", "B"],
        "the registration replied before the run it had to wait for"
    );

    // The registered engine's cumulative report is C's run alone.
    let report = probe.report().unwrap();
    assert_eq!(report.committed, u64::from(C_COUNT), "{report:?}");
    probe.shutdown().unwrap();
    handle.join().unwrap();

    // The log holds the new system and exactly C's commits: A's run
    // ended before the rotation, and nothing of it leaked into the new
    // log.
    let rec = recover(&dir).unwrap();
    let new: SystemSpec = serde_json::from_str(NEW).unwrap();
    assert_eq!(rec.spec, SystemSpec::from_system(&new.build().unwrap()));
    assert_eq!(rec.committed, C_COUNT as usize);
    assert_eq!(rec.serializable, Some(true), "{:?}", rec.audit_error);
    let _ = std::fs::remove_dir_all(&dir);
}
