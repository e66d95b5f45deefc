//! # ddlf-server — a TCP wire-protocol front-end for the engine
//!
//! The paper's certify-then-run guarantee only pays off in a
//! *distributed* setting: a statically certified system can answer
//! external clients with **zero runtime coordination** — no deadlock
//! detector, no lock-wait timeouts, no aborts. This crate puts the
//! [`ddlf_engine::Engine`] behind a real socket so separate processes
//! can register transaction systems, submit instances, and read audited
//! reports.
//!
//! ## Architecture
//!
//! ```text
//!   Client (this crate / ddlf-audit submit / your process)
//!      │  Request  — 1 frame = u32 LE length + payload (wire::frame)
//!      ▼
//!   Server accept loop ── thread per connection ──▶ Shared state
//!      │                          Mutex<Slot { Option<Arc<Engine>>, runs, registering }>
//!      │ RegisterSystem: SystemSpec JSON ──▶ certify (inflation) ──▶ new Engine
//!      │           (holds new Submits off, waits for `runs` to drain,
//!      │           builds unlocked, then swaps the Arc)
//!      │ Submit:   name ──▶ TxnId mix ──▶ Engine::run_mix on this thread
//!      │           (pins the engine, holds no lock across the run, so
//!      │           other connections' Submits run beside it)
//!      │ Report:   Engine::report_snapshot (cumulative, runs nothing)
//!      │ Stats:    Telemetry::snapshot digest (lock-free — answers
//!      │           mid-Submit without touching the engine lock)
//!      │ Shutdown: flag + accept-loop wakeup
//!      ▼
//!   Response frame (typed; errors carry an ErrorKind, never a dropped
//!   connection)
//! ```
//!
//! ## Protocol
//!
//! One request per frame, one response frame per request, in order, over
//! [`ddlf_engine::wire::frame`]'s length-prefixed framing. Payload encoding
//! follows [`ddlf_engine::wire::codec`]: a 1-byte opcode, little-endian
//! fixed-width integers, `u32`-length-prefixed UTF-8 strings.
//!
//! | opcode | request          | payload                                   | reply                      |
//! |-------:|------------------|-------------------------------------------|----------------------------|
//! | `1`    | `RegisterSystem` | inflate (`0`∣`1 k:u32`∣`2 cap:u32`), spec JSON str | `Registered` (`1`) |
//! | `2`    | `Submit`         | count `u32`, template str (`""` = all)    | `Submitted` (`2`)          |
//! | `3`    | `Report`         | —                                         | `Report` (`3`)             |
//! | `4`    | `Shutdown`       | —                                         | `ShuttingDown` (`4`)       |
//! | `5`    | `Stats`          | —                                         | `Stats` (`6`)              |
//!
//! | opcode | response        | payload                                                        |
//! |-------:|-----------------|----------------------------------------------------------------|
//! | `1`    | `Registered`    | certified/floored bools, verdict str, rationale str, plan: `u32` count × (name str, `0` = ∞ ∣ `1 k:u64`) |
//! | `2`    | `Submitted`     | [`RunStats`]: 9 × `u64` counters, serializable byte (`0` none ∣ `1` false ∣ `2` true) |
//! | `3`    | `Report`        | same [`RunStats`] layout, cumulative over every submission     |
//! | `4`    | `ShuttingDown`  | —                                                              |
//! | `5`    | `Error`         | kind byte (`1` bad-request ∣ `2` no-system ∣ `3` unknown-template ∣ `4` bad-spec), message str |
//! | `6`    | `Stats`         | [`StatsSnapshot`]: 10 × 8-byte gauges and counters (uptime, inflight `i64`, WAL bytes, trace captured/dropped, group flushes/commits, chain versions/max length/watermark), phases: `u32` count × [`PhaseStat`] (name str, 6 × `u64`), templates: `u32` count × [`TemplateStat`] (name str, 4 × `u64`) |
//!
//! Any malformed request frame is answered with `Error(bad-request)`;
//! any malformed *response* decodes to `None` on the client and
//! surfaces as [`ClientError::Protocol`] — neither side ever acts on a
//! misread message.
//!
//! ## Example (in-process loopback)
//!
//! ```
//! use ddlf_server::{Client, InflateSpec, ServeConfig, Server};
//!
//! let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
//! let addr = server.local_addr().to_string();
//! let handle = std::thread::spawn(move || server.run().unwrap());
//!
//! let spec = r#"{
//!   "entities": [ {"name": "x", "site": 0}, {"name": "y", "site": 1} ],
//!   "transactions": [
//!     { "name": "T1", "ops": ["L x", "L y", "U y", "U x"] },
//!     { "name": "T2", "ops": ["L x", "L y", "U y", "U x"] }
//!   ]
//! }"#;
//! let mut client = Client::connect(&addr).unwrap();
//! let reg = client.register(spec, InflateSpec::None).unwrap();
//! assert!(reg.certified, "{}", reg.verdict);
//! let stats = client.submit_all(8).unwrap();
//! assert_eq!(stats.aborted_attempts, 0);     // the paper's payoff, over TCP
//! assert_eq!(stats.serializable, Some(true));
//! client.shutdown().unwrap();
//! handle.join().unwrap();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError};
pub use proto::{
    ErrorKind, Field, InflateSpec, Metric, PhaseStat, PlanEntry, Record, Registered, Request,
    Response, RunStats, SnapEntry, SnapshotReply, StatsSnapshot, TemplateStat, Value,
};
pub use server::{ServeConfig, Server};
