//! Loopback integration of the wire layer: a real `ddlf-server` on an
//! ephemeral TCP port, driven by the typed client.
//!
//! The headline assertion is the paper's Fig. 6 regime *observed over
//! TCP*: the Fig. 6 transaction admits exactly two concurrent copies
//! deadlock-free (exhaustively — never safe), and only one safely, so a
//! remote registration asking for auto inflation must come back floored
//! to the safe k = 1, naming the k = 2 certificate it refused, and
//! submissions must run abort-free under that ceiling.

use ddlf::model::SystemSpec;
use ddlf::server::{Client, ClientError, ErrorKind, InflateSpec, ServeConfig, Server};
use ddlf::workloads::{bank_ordered_pair, fig6};

fn spawn_server() -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    (addr, handle)
}

fn spec_json_of(sys: &ddlf::model::TransactionSystem) -> String {
    serde_json::to_string(&SystemSpec::from_system(sys)).expect("spec encodes")
}

#[test]
fn fig6_k2_admission_ceiling_observed_over_tcp() {
    let (addr, handle) = spawn_server();
    let mut client = Client::connect(&addr).expect("connect");

    let sys = fig6(1);
    let reg = client
        .register(&spec_json_of(&sys), InflateSpec::Auto { cap: 8 })
        .expect("register fig6");
    assert!(reg.certified, "{}", reg.verdict);
    assert!(reg.floored, "{reg:?}");
    assert!(
        reg.rationale.contains("inflation [2] deadlock-free"),
        "two copies are deadlock-free but not safe — the wire must say what it refused: {reg:?}"
    );
    assert_eq!(reg.plan.len(), 1);
    assert_eq!(
        reg.plan[0].slots,
        Some(1),
        "only one copy is safe — the wire must report the floored ceiling: {reg:?}"
    );

    // Under the certified ceiling the no-detector path holds: every
    // instance commits, nothing aborts, and the run serializes. (Submit
    // by the name the plan reported — the wire is the source of truth
    // here.)
    let name = reg.plan[0].template.clone();
    let stats = client.submit(&name, 30).expect("submit under the ceiling");
    assert!(stats.all_committed(), "{stats:?}");
    assert_eq!(stats.aborted_attempts, 0, "{stats:?}");
    assert_eq!(stats.serializable, Some(true), "{stats:?}");
    assert_eq!(stats.peak_inflight, 1, "gate must cap at k = 1: {stats:?}");

    client.shutdown().expect("shutdown");
    handle.join().unwrap();
}

#[test]
fn certified_banking_register_submit_report_over_tcp() {
    let (addr, handle) = spawn_server();
    let mut client = Client::connect(&addr).expect("connect");

    let (_, sys) = bank_ordered_pair();
    let reg = client
        .register(&spec_json_of(&sys), InflateSpec::Uniform(2))
        .expect("register banking");
    assert!(reg.certified, "{}", reg.verdict);
    assert!(!reg.floored);
    assert_eq!(reg.plan.len(), 2);
    assert!(reg.plan.iter().all(|p| p.slots == Some(2)), "{reg:?}");

    // Two submissions; the Report RPC accumulates without running.
    let first = client.submit_all(24).expect("submit");
    assert!(
        first.all_committed() && first.serializable == Some(true),
        "{first:?}"
    );
    let second = client
        .submit("transfer_0_to_1", 8)
        .expect("submit one template");
    assert!(second.all_committed(), "{second:?}");

    let cumulative = client.report().expect("report");
    assert_eq!(cumulative.instances, 32);
    assert_eq!(cumulative.committed, 32);
    assert_eq!(cumulative.aborted_attempts, 0);
    assert_eq!(cumulative.serializable, Some(true), "{cumulative:?}");

    client.shutdown().expect("shutdown");
    handle.join().unwrap();
}

#[test]
fn shutdown_drains_cleanly_with_an_idle_connection_open() {
    let (addr, handle) = spawn_server();
    // A second client sits idle (no request in flight). Shutdown must
    // still drain: the server unblocks the idle worker by closing its
    // read half, joins every worker, and `run` returns.
    let _idle = Client::connect(&addr).expect("idle connect");
    let mut client = Client::connect(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().unwrap();
}

#[test]
fn typed_errors_come_back_over_the_wire() {
    let (addr, handle) = spawn_server();
    let mut client = Client::connect(&addr).expect("connect");

    // Submitting before registering: NoSystem.
    match client.submit_all(4) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::NoSystem),
        other => panic!("expected NoSystem, got {other:?}"),
    }

    // A spec that parses but violates the model: BadSpec.
    let bad = r#"{
      "entities": [ {"name": "x", "site": 0} ],
      "transactions": [ { "name": "T", "ops": ["L x"] } ]
    }"#;
    match client.register(bad, InflateSpec::None) {
        Err(ClientError::Server { kind, message }) => {
            assert_eq!(kind, ErrorKind::BadSpec);
            assert!(!message.is_empty());
        }
        other => panic!("expected BadSpec, got {other:?}"),
    }

    // A zero-copy inflation is a peer bug the registry would panic on;
    // over the wire it must come back typed, and the connection must
    // stay usable afterwards.
    let (_, sys) = bank_ordered_pair();
    match client.register(&spec_json_of(&sys), InflateSpec::Uniform(0)) {
        Err(ClientError::Server { kind, message }) => {
            assert_eq!(kind, ErrorKind::BadRequest);
            assert!(message.contains("k must be ≥ 1"), "{message}");
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }

    // Unknown template after a good registration: UnknownTemplate.
    let (_, sys) = bank_ordered_pair();
    client
        .register(&spec_json_of(&sys), InflateSpec::None)
        .expect("register");
    match client.submit("no_such_template", 1) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::UnknownTemplate),
        other => panic!("expected UnknownTemplate, got {other:?}"),
    }

    client.shutdown().expect("shutdown");
    handle.join().unwrap();
}
