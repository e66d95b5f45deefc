//! Property tests of the wire protocol: every request/response variant
//! round-trips (encode→decode identity), every proper prefix of a valid
//! encoding is rejected (truncated frames never misread), and garbage
//! headers/buffers are rejected without panicking.

use bytes::Bytes;
use ddlf_server::{
    ErrorKind, InflateSpec, PhaseStat, PlanEntry, Registered, Request, Response, RunStats,
    SnapEntry, SnapshotReply, StatsSnapshot, TemplateStat,
};
use proptest::prelude::*;

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
        dirty_aborts: fields[3],
        failed: fields[4],
        reads: fields[5],
        writes: fields[6],
        wall_us: fields[7],
        peak_inflight: fields[8],
        history_len: fields[9],
        serializable: [None, Some(false), Some(true)][serializable % 3],
    }
}

fn stats_snapshot_of(fields: &[u64], rows: &[(Vec<u8>, u64, bool)]) -> StatsSnapshot {
    StatsSnapshot {
        uptime_us: fields[0],
        inflight: fields[1] as i64,
        auditor_nodes: fields[2],
        auditor_arcs: fields[3],
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
    flags: (bool, bool, bool),
    err_kind: usize,
) -> Response {
    match variant {
        0 => Response::Registered(Registered {
            certified: flags.0,
            guarantees_safety: flags.1,
            floored: flags.2,
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
        flags in (any::<bool>(), any::<bool>(), any::<bool>()),
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
        let enc: Vec<u8> = req.encode().as_ref().to_vec();
        for cut in 0..enc.len() {
            prop_assert_eq!(
                Request::decode(Bytes::from(enc[..cut].to_vec())),
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
        let enc: Vec<u8> = resp.encode().as_ref().to_vec();
        for cut in 0..enc.len() {
            prop_assert_eq!(Response::decode(Bytes::from(enc[..cut].to_vec())), None);
        }
    }

    /// Garbage buffers neither panic nor decode when the header byte is
    /// not a valid opcode; with a valid first byte they may only decode
    /// to a value that re-encodes to the exact same bytes (canonicality).
    #[test]
    fn garbage_rejected_or_canonical(bytes in prop::collection::vec(any::<u8>(), 0..80)) {
        let buf = Bytes::from(bytes.clone());
        if let Some(req) = Request::decode(buf) {
            prop_assert_eq!(req.encode().as_ref(), &bytes[..]);
        }
        if let Some(resp) = Response::decode(Bytes::from(bytes.clone())) {
            prop_assert_eq!(resp.encode().as_ref(), &bytes[..]);
        }
        if !bytes.is_empty() && !(1..=6).contains(&bytes[0]) {
            prop_assert_eq!(Request::decode(Bytes::from(bytes.clone())), None);
        }
        if !bytes.is_empty() && !(1..=7).contains(&bytes[0]) {
            prop_assert_eq!(Response::decode(Bytes::from(bytes)), None);
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
        let mut enc: Vec<u8> = req.encode().as_ref().to_vec();
        enc.push(extra);
        prop_assert_eq!(Request::decode(Bytes::from(enc)), None);
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Bytes {
    let digits: Vec<u8> = s
        .bytes()
        .map(|c| (c as char).to_digit(16).unwrap() as u8)
        .collect();
    Bytes::from(
        digits
            .chunks(2)
            .map(|p| p[0] << 4 | p[1])
            .collect::<Vec<u8>>(),
    )
}

fn golden_run_stats(serializable: Option<bool>) -> RunStats {
    RunStats {
        instances: 512,
        committed: 511,
        aborted_attempts: 3,
        dirty_aborts: 0,
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
        assert_eq!(hex(req.encode().as_ref()), want, "{req:?}");
        assert_eq!(Request::decode(unhex(want)), Some(req));
    }

    let responses = [
        (
            Response::Registered(Registered {
                certified: true,
                guarantees_safety: true,
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
                "01010100090000006365727469666965640700000054686d20332f3402000000",
                "080000007472616e7366657201050000000000000005000000617564697400",
            ),
        ),
        (
            Response::Submitted(golden_run_stats(Some(true))),
            concat!(
                "020002000000000000ff01000000000000030000000000000000000000000000",
                "0001000000000000000008000000000000000400000000000087d61200000000",
                "000400000000000000001000000000000002",
            ),
        ),
        (
            Response::Report(golden_run_stats(Some(false))),
            concat!(
                "030002000000000000ff01000000000000030000000000000000000000000000",
                "0001000000000000000008000000000000000400000000000087d61200000000",
                "000400000000000000001000000000000001",
            ),
        ),
        (
            Response::Report(golden_run_stats(None)),
            concat!(
                "030002000000000000ff01000000000000030000000000000000000000000000",
                "0001000000000000000008000000000000000400000000000087d61200000000",
                "000400000000000000001000000000000000",
            ),
        ),
        (Response::ShuttingDown, "04"),
        (
            Response::Stats(StatsSnapshot {
                uptime_us: 1_234_567,
                inflight: -1,
                auditor_nodes: 42,
                auditor_arcs: 99,
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
                "0687d6120000000000ffffffffffffffff2a0000000000000063000000000000",
                "000000004000000000000200000000000007000000000000007d000000000000",
                "00a00f000000000000001900000000000040000000000000009f0f0000000000",
                "0001000000090000006c6f636b5f77616974e803000000000000404b4c000000",
                "0000a00f000000000000204e000000000000803801000000000040420f000000",
                "000001000000080000007472616e73666572204e000000000000030000000000",
                "00000300000000000000",
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
        assert_eq!(hex(resp.encode().as_ref()), want, "{resp:?}");
        assert_eq!(Response::decode(unhex(want)), Some(resp));
    }
}
