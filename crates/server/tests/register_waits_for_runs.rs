//! The registration guarantee, end to end over TCP: a `RegisterSystem`
//! never swaps the engine (or rotates its WAL directory) under a
//! `Submit` still running, and a `Submit` that arrives while a
//! registration is pending runs on the engine that registration
//! installs.

use ddlf_engine::wire::frame;
use ddlf_engine::{recover, EngineConfig, Telemetry, TelemetryConfig};
use ddlf_model::SystemSpec;
use ddlf_server::{Client, InflateSpec, Request, Response, ServeConfig, Server};
use std::io::{self, Write};
use std::net::TcpStream;
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

/// Whether the server's reply to the request sent on `stream` has
/// started to arrive, without waiting for it or consuming it.
fn replied(stream: &TcpStream) -> bool {
    stream.set_nonblocking(true).unwrap();
    let got = match stream.peek(&mut [0u8]) {
        Ok(n) => n > 0,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
        Err(e) => panic!("peek: {e}"),
    };
    stream.set_nonblocking(false).unwrap();
    got
}

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

    // A: a WAL'd run on the old system, long enough to stay in flight,
    // sent on a raw socket whose reply is read only at the end. The
    // server writes a Submit's reply before it unpins the engine, so
    // once a registration that waited for A has replied, A's reply is
    // already on this socket — whatever order the client threads run in.
    let mut a = TcpStream::connect(&addr).unwrap();
    let mut wbuf = Vec::new();
    let submit_a = Request::Submit {
        template: String::new(),
        count: A_COUNT,
    };
    frame::put_frame(&mut wbuf, |b| submit_a.encode_into(b)).unwrap();
    a.write_all(&wbuf).unwrap();
    while probe.stats().unwrap().inflight == 0 {
        assert!(!replied(&a), "A ended before Stats saw it in flight");
        thread::sleep(Duration::from_millis(1));
    }

    // B: a registration of the new system while A is in flight. The
    // moment its reply is back, A's must already be on A's socket.
    let b = {
        let (addr, a) = (addr.clone(), a.try_clone().unwrap());
        thread::spawn(move || {
            let reg = Client::connect(&addr)
                .unwrap()
                .register(NEW, InflateSpec::None)
                .unwrap();
            (reg, replied(&a))
        })
    };
    // Time for B's request to reach the server and start waiting.
    thread::sleep(Duration::from_millis(50));
    assert!(!replied(&a), "A ended before C was sent");

    // C: a template only the new system has. Sent while B waits for A,
    // it must wait for B and run on the new engine, not on the old one
    // (which would answer `UnknownTemplate`).
    let c = Client::connect(&addr)
        .unwrap()
        .submit("U1", C_COUNT)
        .unwrap();
    assert_eq!(c.committed, u64::from(C_COUNT), "{c:?}");
    assert_eq!(c.serializable, Some(true), "{c:?}");

    let (b, a_replied_first) = b.join().unwrap();
    assert!(b.certified);
    assert!(
        a_replied_first,
        "the registration replied before the run it had to wait for"
    );
    let mut rbuf = Vec::new();
    assert!(frame::read_frame_into(&mut a, &mut rbuf).unwrap());
    let Some(Response::Submitted(a)) = Response::decode(&rbuf) else {
        panic!("A's reply is not a Submitted: {rbuf:?}");
    };
    assert_eq!(
        (a.instances, a.committed),
        (u64::from(A_COUNT), u64::from(A_COUNT))
    );
    assert_eq!(a.serializable, Some(true), "{a:?}");

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
