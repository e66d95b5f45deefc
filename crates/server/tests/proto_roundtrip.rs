//! Property tests of the wire protocol: every request/response variant
//! round-trips (encode→decode identity), every proper prefix of a valid
//! encoding is rejected (truncated frames never misread), and garbage
//! headers/buffers are rejected without panicking. On a live socket,
//! frames decode however their bytes are split across segments.

use ddlf_engine::wire::frame;
use ddlf_server::{
    Client, ErrorKind, InflateSpec, PhaseStat, PlanEntry, Registered, Request, Response, RunStats,
    ServeConfig, Server, SnapEntry, SnapshotReply, StatsSnapshot, TemplateStat,
};
use proptest::prelude::*;
use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;

/// Draws a printable-ASCII string from raw bytes (the vendored proptest
/// has no String strategy).
fn ascii(bytes: Vec<u8>) -> String {
    bytes.into_iter().map(|b| (b % 94 + 32) as char).collect()
}

fn request_of(variant: usize, s: String, count: u32, inflate_kind: usize, k: u32) -> Request {
    let inflate = match inflate_kind {
        0 => InflateSpec::None,
        1 => InflateSpec::Uniform(k),
        _ => InflateSpec::Auto { cap: k },
    };
    match variant {
        0 => Request::RegisterSystem {
            spec_json: s,
            inflate,
        },
        1 => Request::Submit { template: s, count },
        2 => Request::Report,
        3 => Request::Shutdown,
        4 => Request::Stats,
        _ => Request::ReadOnly {
            // Empty draws exercise the whole-database request; non-empty
            // ones a comma-split name list (empty names are legal wire
            // strings and must round-trip too).
            entities: if s.is_empty() {
                vec![]
            } else {
                s.split(',').map(str::to_string).collect()
            },
        },
    }
}

fn stats_of(fields: Vec<u64>, serializable: usize) -> RunStats {
    RunStats {
        instances: fields[0],
        committed: fields[1],
        aborted_attempts: fields[2],
        failed: fields[3],
        reads: fields[4],
        writes: fields[5],
        wall_us: fields[6],
        peak_inflight: fields[7],
        history_len: fields[8],
        serializable: [None, Some(false), Some(true)][serializable % 3],
    }
}

fn stats_snapshot_of(fields: &[u64], rows: &[(Vec<u8>, u64, bool)]) -> StatsSnapshot {
    StatsSnapshot {
        uptime_us: fields[0],
        inflight: fields[1] as i64,
        wal_bytes: fields[4],
        trace_captured: fields[5],
        trace_dropped: fields[6],
        group_flushes: fields[7],
        group_commits: fields[8],
        chain_versions: fields[9],
        chain_max_len: fields[10],
        chain_watermark: fields[11],
        phases: rows
            .iter()
            .map(|(name, v, _)| PhaseStat {
                name: ascii(name.clone()),
                count: *v,
                sum_ns: v.wrapping_mul(3),
                p50_ns: *v,
                p95_ns: *v,
                p99_ns: *v,
                max_ns: *v,
            })
            .collect(),
        templates: rows
            .iter()
            .map(|(name, v, committed)| TemplateStat {
                name: ascii(name.clone()),
                committed: u64::from(*committed),
                aborted: *v,
                dies: *v,
            })
            .collect(),
    }
}

fn response_of(
    variant: usize,
    s: String,
    plan_raw: Vec<(Vec<u8>, u64, bool)>,
    stats_fields: Vec<u64>,
    serializable: usize,
    flags: (bool, bool),
    err_kind: usize,
) -> Response {
    match variant {
        0 => Response::Registered(Registered {
            certified: flags.0,
            floored: flags.1,
            verdict: s.clone(),
            rationale: s,
            plan: plan_raw
                .into_iter()
                .map(|(name, k, unbounded)| PlanEntry {
                    template: ascii(name),
                    slots: (!unbounded).then_some(k),
                })
                .collect(),
        }),
        1 => Response::Submitted(stats_of(stats_fields, serializable)),
        2 => Response::Report(stats_of(stats_fields, serializable)),
        3 => Response::ShuttingDown,
        4 => Response::Stats(stats_snapshot_of(&stats_fields, &plan_raw)),
        5 => Response::Snapshot(SnapshotReply {
            ts: stats_fields[0],
            entries: plan_raw
                .into_iter()
                .map(|(name, v, has_int)| SnapEntry {
                    name: ascii(name),
                    commit_ts: v,
                    version: v.wrapping_mul(7),
                    value: has_int.then_some(v),
                })
                .collect(),
        }),
        _ => Response::Error {
            kind: [
                ErrorKind::BadRequest,
                ErrorKind::NoSystem,
                ErrorKind::UnknownTemplate,
                ErrorKind::BadSpec,
            ][err_kind % 4],
            message: s,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode→decode identity for every request variant.
    #[test]
    fn request_roundtrip(
        variant in 0usize..6,
        raw in prop::collection::vec(any::<u8>(), 0..120),
        count in 0u32..=u32::MAX,
        inflate_kind in 0usize..3,
        k in 0u32..=u32::MAX,
    ) {
        let req = request_of(variant, ascii(raw), count, inflate_kind, k);
        prop_assert_eq!(Request::decode(req.encode()), Some(req));
    }

    /// encode→decode identity for every response variant.
    #[test]
    fn response_roundtrip(
        variant in 0usize..7,
        raw in prop::collection::vec(any::<u8>(), 0..120),
        plan_raw in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 0..24), any::<u64>(), any::<bool>()),
            0..6,
        ),
        stats_fields in prop::collection::vec(any::<u64>(), 12..13),
        serializable in 0usize..3,
        flags in (any::<bool>(), any::<bool>()),
        err_kind in 0usize..4,
    ) {
        let resp = response_of(variant, ascii(raw), plan_raw, stats_fields, serializable, flags, err_kind);
        prop_assert_eq!(Response::decode(resp.encode()), Some(resp));
    }

    /// A truncated frame never decodes — to the original *or* anything
    /// else. Every proper prefix of a valid encoding is rejected.
    #[test]
    fn truncated_frames_rejected(
        variant in 0usize..6,
        raw in prop::collection::vec(any::<u8>(), 0..60),
        count in 0u32..=u32::MAX,
        inflate_kind in 0usize..3,
        k in 0u32..=u32::MAX,
    ) {
        let req = request_of(variant, ascii(raw), count, inflate_kind, k);
        let enc = req.encode();
        for cut in 0..enc.len() {
            prop_assert_eq!(
                Request::decode(&enc[..cut]),
                None,
                "prefix of {} bytes out of {} decoded",
                cut,
                enc.len()
            );
        }
    }

    /// Response encodings reject truncation the same way.
    #[test]
    fn truncated_responses_rejected(
        stats_fields in prop::collection::vec(any::<u64>(), 10..11),
        serializable in 0usize..3,
    ) {
        let resp = Response::Submitted(stats_of(stats_fields, serializable));
        let enc = resp.encode();
        for cut in 0..enc.len() {
            prop_assert_eq!(Response::decode(&enc[..cut]), None);
        }
    }

    /// Garbage buffers neither panic nor decode when the header byte is
    /// not a valid opcode; with a valid first byte they may only decode
    /// to a value that re-encodes to the exact same bytes (canonicality).
    #[test]
    fn garbage_rejected_or_canonical(bytes in prop::collection::vec(any::<u8>(), 0..80)) {
        if let Some(req) = Request::decode(&bytes) {
            prop_assert_eq!(req.encode(), bytes.clone());
        }
        if let Some(resp) = Response::decode(&bytes) {
            prop_assert_eq!(resp.encode(), bytes.clone());
        }
        if !bytes.is_empty() && !(1..=6).contains(&bytes[0]) {
            prop_assert_eq!(Request::decode(&bytes), None);
        }
        if !bytes.is_empty() && !(1..=7).contains(&bytes[0]) {
            prop_assert_eq!(Response::decode(&bytes), None);
        }
    }

    /// Appending any byte to a valid encoding is rejected (strict
    /// full-consumption decoding).
    #[test]
    fn trailing_bytes_rejected(
        variant in 0usize..6,
        raw in prop::collection::vec(any::<u8>(), 0..40),
        count in 0u32..=u32::MAX,
        extra in any::<u8>(),
    ) {
        let req = request_of(variant, ascii(raw), count, 0, 1);
        let mut enc = req.encode();
        enc.push(extra);
        prop_assert_eq!(Request::decode(enc), None);
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s
        .bytes()
        .map(|c| (c as char).to_digit(16).unwrap() as u8)
        .collect();
    digits.chunks(2).map(|p| p[0] << 4 | p[1]).collect()
}

fn golden_run_stats(serializable: Option<bool>) -> RunStats {
    RunStats {
        instances: 512,
        committed: 511,
        aborted_attempts: 3,
        failed: 1,
        reads: 2048,
        writes: 1024,
        wall_us: 1_234_567,
        peak_inflight: 4,
        history_len: 4096,
        serializable,
    }
}

/// The wire format, pinned: one fixed value per `Request`/`Response`
/// variant encodes to these exact bytes and decodes back. A codec
/// refactor that reorders, widens or re-tags a field fails here even if
/// it still round-trips against itself.
#[test]
fn golden_wire_bytes() {
    let requests = [
        (
            Request::RegisterSystem {
                spec_json: "{}".into(),
                inflate: InflateSpec::Auto { cap: 4 },
            },
            "010204000000020000007b7d",
        ),
        (
            Request::Submit {
                template: "transfer".into(),
                count: 512,
            },
            "0200020000080000007472616e73666572",
        ),
        (Request::Report, "03"),
        (Request::Shutdown, "04"),
        (Request::Stats, "05"),
        (
            Request::ReadOnly {
                entities: vec!["acct_b0_0".into(), "ledger".into()],
            },
            "060200000009000000616363745f62305f30060000006c6564676572",
        ),
    ];
    for (req, want) in requests {
        assert_eq!(hex(&req.encode()), want, "{req:?}");
        assert_eq!(Request::decode(unhex(want)), Some(req));
    }

    let responses = [
        (
            Response::Registered(Registered {
                certified: true,
                floored: false,
                verdict: "certified".into(),
                rationale: "Thm 3/4".into(),
                plan: vec![
                    PlanEntry {
                        template: "transfer".into(),
                        slots: Some(5),
                    },
                    PlanEntry {
                        template: "audit".into(),
                        slots: None, // unbounded (Theorem 5)
                    },
                ],
            }),
            concat!(
                "010100090000006365727469666965640700000054686d20332f340200000008",
                "0000007472616e7366657201050000000000000005000000617564697400",
            ),
        ),
        (
            Response::Submitted(golden_run_stats(Some(true))),
            concat!(
                "020002000000000000ff01000000000000030000000000000001000000000000",
                "000008000000000000000400000000000087d612000000000004000000000000",
                "00001000000000000002",
            ),
        ),
        (
            Response::Report(golden_run_stats(Some(false))),
            concat!(
                "030002000000000000ff01000000000000030000000000000001000000000000",
                "000008000000000000000400000000000087d612000000000004000000000000",
                "00001000000000000001",
            ),
        ),
        (
            Response::Report(golden_run_stats(None)),
            concat!(
                "030002000000000000ff01000000000000030000000000000001000000000000",
                "000008000000000000000400000000000087d612000000000004000000000000",
                "00001000000000000000",
            ),
        ),
        (Response::ShuttingDown, "04"),
        (
            Response::Stats(StatsSnapshot {
                uptime_us: 1_234_567,
                inflight: -1,
                wal_bytes: 1 << 30,
                trace_captured: 512,
                trace_dropped: 7,
                group_flushes: 125,
                group_commits: 4_000,
                chain_versions: 6_400,
                chain_max_len: 64,
                chain_watermark: 3_999,
                phases: vec![PhaseStat {
                    name: "lock_wait".into(),
                    count: 1000,
                    sum_ns: 5_000_000,
                    p50_ns: 4_000,
                    p95_ns: 20_000,
                    p99_ns: 80_000,
                    max_ns: 1_000_000,
                }],
                templates: vec![TemplateStat {
                    name: "transfer".into(),
                    committed: 20_000,
                    aborted: 3,
                    dies: 3,
                }],
            }),
            concat!(
                "0687d6120000000000ffffffffffffffff000000400000000000020000000000",
                "0007000000000000007d00000000000000a00f00000000000000190000000000",
                "0040000000000000009f0f00000000000001000000090000006c6f636b5f7761",
                "6974e803000000000000404b4c0000000000a00f000000000000204e00000000",
                "0000803801000000000040420f000000000001000000080000007472616e7366",
                "6572204e00000000000003000000000000000300000000000000",
            ),
        ),
        (
            Response::Snapshot(SnapshotReply {
                ts: 42,
                entries: vec![
                    SnapEntry {
                        name: "acct".into(),
                        commit_ts: 42,
                        version: 7,
                        value: Some(295),
                    },
                    SnapEntry {
                        name: "blob".into(),
                        commit_ts: 3,
                        version: 1,
                        value: None, // bytes payload
                    },
                ],
            }),
            concat!(
                "072a000000000000000200000004000000616363742a00000000000000070000",
                "000000000001270100000000000004000000626c6f6203000000000000000100",
                "00000000000000",
            ),
        ),
        (
            Response::Error {
                kind: ErrorKind::UnknownTemplate,
                message: "no template \"x\"".into(),
            },
            "05030f0000006e6f2074656d706c61746520227822",
        ),
    ];
    for (resp, want) in responses {
        assert_eq!(hex(&resp.encode()), want, "{resp:?}");
        assert_eq!(Response::decode(unhex(want)), Some(resp));
    }
}

/// Two templates over two entities, locked in one order: certified.
const PAIR_SPEC: &str = r#"{
  "entities": [ {"name": "x", "site": 0}, {"name": "y", "site": 1} ],
  "transactions": [
    { "name": "T1", "ops": ["L x", "L y", "U y", "U x"] },
    { "name": "T2", "ops": ["L x", "L y", "U y", "U x"] }
  ]
}"#;

/// A loopback server with [`PAIR_SPEC`] registered, and a raw
/// connection to it that speaks frames by hand.
fn raw_connection() -> (String, std::thread::JoinHandle<()>, TcpStream) {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().unwrap());
    Client::connect(&addr)
        .unwrap()
        .register(PAIR_SPEC, InflateSpec::None)
        .unwrap();
    let stream = TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    (addr, handle, stream)
}

/// `req` as one frame.
fn framed(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    frame::put_frame(&mut buf, |b| req.encode_into(b)).unwrap();
    buf
}

/// The next reply frame on `stream`, decoded.
fn reply(stream: &mut TcpStream) -> Response {
    let mut payload = Vec::new();
    assert!(frame::read_frame_into(stream, &mut payload).unwrap());
    Response::decode(&payload).expect("a reply decodes")
}

fn stop(addr: &str, server: std::thread::JoinHandle<()>) {
    Client::connect(addr).unwrap().shutdown().unwrap();
    server.join().unwrap();
}

/// The server reads a connection through one buffer, so two requests
/// that arrive in one segment are both served, in order: the `Report`
/// sent behind a `Submit` already counts the `Submit`'s commits.
#[test]
fn two_frames_in_one_write_get_both_replies_in_order() {
    let (addr, server, mut stream) = raw_connection();
    let submit = Request::Submit {
        template: String::new(),
        count: 2,
    };
    let mut both = framed(&submit);
    both.extend_from_slice(&framed(&Request::Report));
    stream.write_all(&both).unwrap();
    match reply(&mut stream) {
        Response::Submitted(run) => assert_eq!(run.committed, 2),
        other => panic!("expected Submitted first, got {other:?}"),
    }
    match reply(&mut stream) {
        Response::Report(total) => assert_eq!(total.committed, 2),
        other => panic!("expected Report second, got {other:?}"),
    }
    drop(stream);
    stop(&addr, server);
}

/// A buffered read returns what has arrived: a frame whose prefix and
/// payload come in two writes, apart in time, still decodes.
#[test]
fn a_frame_split_between_prefix_and_payload_still_decodes() {
    let (addr, server, mut stream) = raw_connection();
    let bytes = framed(&Request::Submit {
        template: "T2".into(),
        count: 3,
    });
    let (prefix, payload) = bytes.split_at(4);
    stream.write_all(prefix).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    stream.write_all(payload).unwrap();
    match reply(&mut stream) {
        Response::Submitted(run) => assert_eq!(run.committed, 3),
        other => panic!("expected Submitted, got {other:?}"),
    }
    drop(stream);
    stop(&addr, server);
}
