//! # ddlf-sim — the distributed-database runtime substrate
//!
//! Wolfson & Yannakakis analyze locked transactions *statically*; this
//! crate supplies the distributed database those transactions would run
//! on, so the paper's guarantees can be observed (and their absence
//! punished) at runtime:
//!
//! * [`des`] — a deterministic discrete-event simulator: sites with
//!   FIFO exclusive lock tables, message passing with seeded latency,
//!   coordinators walking transaction partial orders, and four deadlock
//!   policies (nothing / periodic detection / wound-wait / wait-die);
//! * [`history`] — every run records the effective lock/unlock order and
//!   replays its committed projection through the model's `D(S)`
//!   serializability audit;
//! * [`msg`] — the binary wire format messages travel in, plus the
//!   length-prefixed stream framing ([`msg::frame`]) that `ddlf-server`
//!   ships it over real TCP with;
//! * [`lockmgr`] — the per-site exclusive lock table.
//!
//! The headline property (the paper ledger's `payoff` row, validated by
//! integration tests):
//! a system certified by `ddlf_core::certify_safe_and_deadlock_free` runs
//! to commit under the **`Nothing`** policy — no detector, no timeouts,
//! no aborts — and every run is serializable; uncertified systems stall
//! or burn aborts.

#![warn(missing_docs)]

pub mod des;
pub mod history;
pub mod lockmgr;
pub mod metrics;
pub mod msg;
pub mod time;

pub use des::{run, DeadlockPolicy, SimConfig, Simulator};
pub use history::{History, HistoryEvent};
pub use lockmgr::{Acquire, LockTable};
pub use metrics::SimReport;
pub use msg::Message;
pub use time::{EventQueue, SimTime};
