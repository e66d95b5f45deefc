//! Client reconnect policy: a dead connection under an idempotent
//! request is retried on a fresh connection; a dead connection under a
//! `Submit` surfaces as `ReplyLost` instead of silently re-running
//! transactions.

use ddlf_engine::wire::frame;
use ddlf_server::{Client, ClientError, Request, Response, RunStats};
use std::io::Write as _;
use std::net::TcpListener;

/// A hand-rolled one-shot peer: drops its first connection immediately
/// (simulating a server restart / idle disconnect), then serves real
/// replies on subsequent connections.
fn flaky_peer(replies: usize) -> (String, std::thread::JoinHandle<usize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        // First connection: accepted and dropped without a byte.
        drop(listener.accept().unwrap());
        let mut served = 0;
        let (mut stream, _) = listener.accept().unwrap();
        let (mut rbuf, mut wbuf) = (Vec::new(), Vec::new());
        while served < replies {
            let Ok(true) = frame::read_frame_into(&mut stream, &mut rbuf) else {
                break;
            };
            let resp = match Request::decode(&rbuf).unwrap() {
                Request::Report => Response::Report(RunStats::default()),
                Request::Submit { .. } => Response::Submitted(RunStats::default()),
                other => panic!("unexpected request {other:?}"),
            };
            wbuf.clear();
            frame::put_frame(&mut wbuf, |b| resp.encode_into(b)).unwrap();
            stream.write_all(&wbuf).unwrap();
            served += 1;
        }
        served
    });
    (addr, handle)
}

#[test]
fn idempotent_request_survives_a_dropped_connection() {
    let (addr, peer) = flaky_peer(1);
    let mut client = Client::connect(addr).unwrap();
    // The first connection is already dead; the Report must transparently
    // reconnect and succeed.
    let stats = client.report().expect("reconnect-on-EOF");
    assert_eq!(stats.instances, 0);
    assert_eq!(peer.join().unwrap(), 1);
}

#[test]
fn submit_on_a_dropped_connection_reports_reply_lost_not_retry() {
    let (addr, peer) = flaky_peer(1);
    let mut client = Client::connect(addr.clone()).unwrap();
    match client.submit("T", 5) {
        Err(ClientError::ReplyLost) => {}
        other => panic!("expected ReplyLost, got {other:?}"),
    }
    // The client is still usable: an explicit follow-up goes through on
    // a fresh connection.
    let stats = client.report().expect("explicit retry after ReplyLost");
    assert_eq!(stats.committed, 0);
    assert_eq!(peer.join().unwrap(), 1);
}
