//! Lockdep regression tests for the server's shutdown path. The two
//! hazards audited here: the accept loop must park in `accept(2)`
//! holding no lock (a stalled listener would otherwise wedge every
//! worker behind it), and the shutdown drain must not hold
//! `server.conns` across socket syscalls — worker teardown's
//! `Deregister` takes the same lock. `server.conns` must stay a leaf
//! class, unordered against `server.engine`, and nothing is ever
//! acquired under `server.engine`: a read-only request and a
//! re-registration take it only to clone or swap an `Arc`. Only
//! meaningful with `--features lockdep`.
#![cfg(feature = "lockdep")]

use ddlf_server::{Client, InflateSpec, ServeConfig, Server};

const SPEC: &str = r#"{
  "entities": [ {"name": "x", "site": 0}, {"name": "y", "site": 1} ],
  "transactions": [
    { "name": "T1", "ops": ["L x", "L y", "U y", "U x"] },
    { "name": "T2", "ops": ["L x", "L y", "U y", "U x"] }
  ]
}"#;

/// Shut down a server that still has *idle* parked connections — the
/// exact shape that used to hold `server.conns` across `shutdown(2)`
/// on every idle socket — after a submit, a read-only scan and a second
/// registration. After the run: zero server-class violations,
/// `server.conns` a leaf, no ordering in either direction between the
/// engine lock and the connection table, and no edge out of
/// `server.engine` at all.
#[test]
fn shutdown_with_idle_connections_keeps_conns_a_leaf() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().unwrap());

    // Two idle workers parked in read_frame_into: they sit in `conns` and
    // are unblocked only by the shutdown drain.
    let _idle_a = Client::connect(&addr).unwrap();
    let _idle_b = Client::connect(&addr).unwrap();

    let mut active = Client::connect(&addr).unwrap();
    active.register(SPEC, InflateSpec::None).unwrap();
    let run = active.submit_all(32).unwrap();
    assert_eq!(run.committed, 32);
    let snap = active.read(&[]).unwrap();
    assert_eq!(snap.entries.len(), 2);
    active.register(SPEC, InflateSpec::None).unwrap();
    assert_eq!(active.submit_all(8).unwrap().committed, 8);
    active.shutdown().unwrap();
    handle.join().unwrap();

    let classes = ddlf_lockdep::classes();
    assert!(
        classes.iter().any(|c| c == "server.conns"),
        "connection table must have been exercised; saw {classes:?}"
    );
    let edges = ddlf_lockdep::edges();
    let conn_edges: Vec<_> = edges
        .iter()
        .filter(|(from, to)| from == "server.conns" || to == "server.conns")
        .collect();
    assert!(
        conn_edges.is_empty(),
        "server.conns must stay unordered (leaf, never nested with \
         server.engine or anything else): {conn_edges:?}"
    );
    let under_engine: Vec<_> = edges
        .iter()
        .filter(|(from, _)| from == "server.engine")
        .collect();
    assert!(
        under_engine.is_empty(),
        "nothing may be acquired under server.engine: {under_engine:?}"
    );
    let bad: Vec<_> = ddlf_lockdep::violations()
        .into_iter()
        .filter(|v| v.classes.iter().any(|c| c.starts_with("server.")))
        .collect();
    assert!(bad.is_empty(), "server discipline violations: {bad:#?}");
}
