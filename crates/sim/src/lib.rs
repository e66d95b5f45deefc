//! # ddlf-sim — the discrete-event simulator of a distributed database
//!
//! Wolfson & Yannakakis analyze locked transactions *statically*; this
//! crate simulates the distributed database those transactions would run
//! on, so the paper's guarantees can be observed (and their absence
//! punished) on a seeded message fabric:
//!
//! * [`des`] — a deterministic discrete-event simulator: sites with
//!   FIFO exclusive lock tables ([`ddlf_engine::lockmgr::LockTable`]),
//!   coordinators walking transaction partial orders, and four deadlock
//!   policies (nothing / periodic detection / wound-wait / wait-die);
//!   every run records a [`ddlf_model::History`] and audits its
//!   committed projection with the model's batch `D(S)` test;
//! * [`msg`] — the [`Message`]s coordinators and sites exchange, each
//!   delivered with seeded latency;
//! * [`time`] — simulated time and the event queue;
//! * [`metrics`] — the [`SimReport`] of one run.
//!
//! The headline property (the paper ledger's `payoff` row):
//! a system certified by `ddlf_core::certify_safe_and_deadlock_free` runs
//! to commit under the **`Nothing`** policy — no detector, no timeouts,
//! no aborts — and every run is serializable; uncertified systems stall
//! or burn aborts.

#![warn(missing_docs)]

pub mod des;
pub mod metrics;
pub mod msg;
pub mod time;

pub use des::{run, DeadlockPolicy, SimConfig, Simulator};
pub use metrics::SimReport;
pub use msg::Message;
pub use time::{EventQueue, SimTime};
