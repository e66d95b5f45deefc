//! Wire demo: the certified banking workload served over real TCP.
//!
//! Starts a `ddlf-server` on an ephemeral loopback port, connects the
//! typed client, registers the ordered-transfer banking system (the
//! same spec the CI wire-smoke step ships between two OS processes),
//! submits transfers, and verifies the paper's payoff end to end:
//! **zero aborts** and a **serializable** history, with the
//! certification decision made once, server-side, at registration.
//!
//! ```text
//! cargo run --release --example wire_demo
//! ```

use ddlf::model::SystemSpec;
use ddlf::server::{Client, InflateSpec, ServeConfig, Server};
use ddlf::workloads::{bank_ordered_pair, bank_uniform_transfer};

fn main() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind loopback");
    let addr = server.local_addr().to_string();
    println!("== server listening on {addr}");
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    let mut client = Client::connect(&addr).expect("connect");

    println!("== register certified ordered transfers (spec JSON over the wire)");
    let (_, sys) = bank_ordered_pair();
    let spec = serde_json::to_string(&SystemSpec::from_system(&sys)).expect("spec encodes");
    let reg = client.register(&spec, InflateSpec::None).expect("register");
    println!("   admission: {}", reg.verdict);
    assert!(reg.certified, "ordered transfers must certify");

    println!("== submit 100 transfers");
    let stats = client.submit_all(100).expect("submit");
    println!("   run: {}", stats.summary());
    assert!(stats.all_committed(), "{stats:?}");
    assert_eq!(
        stats.aborted_attempts, 0,
        "certified ⇒ zero aborts over TCP"
    );
    assert_eq!(stats.serializable, Some(true), "serializable by theorem");

    println!("== re-register with Theorem 5 inflation (pipelined single template)");
    let (_, sys) = bank_uniform_transfer();
    let spec = serde_json::to_string(&SystemSpec::from_system(&sys)).expect("spec encodes");
    let reg = client
        .register(&spec, InflateSpec::Auto { cap: 64 })
        .expect("register");
    println!("   admission: {}", reg.verdict);
    for entry in &reg.plan {
        match entry.slots {
            None => println!("   {} k = ∞ (Theorem 5)", entry.template),
            Some(k) => println!("   {} k = {k}", entry.template),
        }
    }

    let stats = client.submit("transfer", 200).expect("submit");
    println!("   run: {}", stats.summary());
    assert!(
        stats.all_committed() && stats.aborted_attempts == 0,
        "{stats:?}"
    );

    let cumulative = client.report().expect("report");
    println!(
        "== cumulative since re-registration: {}",
        cumulative.summary()
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    println!("== server exited cleanly");
}
