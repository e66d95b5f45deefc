//! # ddlf — Deadlock-Freedom (and Safety) of Transactions in a Distributed Database
//!
//! A Rust reproduction of Wolfson & Yannakakis (PODS 1985 / JCSS 1986):
//! static analysis of locked distributed transactions — deadlock
//! characterization via reduction graphs (Theorem 1), coNP-completeness
//! via the 3SAT′ gadget (Theorem 2), and polynomial safety-and-
//! deadlock-freedom tests (Theorems 3–5) — together with the distributed
//! database runtime the analyses govern.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`model`] — entities/sites, partial-order transactions, schedules,
//!   conflict graphs (§2);
//! * [`core`] — reduction graphs, exhaustive ground truth, the pairwise /
//!   many-transaction / copies certifiers, Tirri baseline, SAT gadget
//!   (§3–§5);
//! * [`sat`] — 3SAT′ formulas and a DPLL solver;
//! * [`sim`] — the discrete-event simulator with deadlock
//!   detection/prevention policies, built on the engine's lock table;
//! * [`engine`] — a sharded transactional key-value execution engine
//!   whose admission control is the certifier: certified systems run
//!   with **no detector and no timeouts** at their certified
//!   k-inflation (a counting `SlotGate` per template), uncertified
//!   ones fall back to wait-die — with per-entity write-order chains
//!   that roll dying attempts back (no dirty aborts) and an optional
//!   write-ahead log whose `wal::recover` replays a crashed store and
//!   re-audits its history;
//! * [`server`] — a TCP wire-protocol front-end for the engine
//!   (length-prefixed binary frames), plus the typed client that
//!   `ddlf-audit serve` / `submit` and external processes use;
//! * [`workloads`] — the paper's figures, random generators, scenarios.
//!
//! ## Crate map
//!
//! (`ARCHITECTURE.md` at the repository root is the canonical, expanded
//! version of this diagram, with the per-crate responsibility table, the
//! instance-lifecycle data flow, and the binary format grammars.)
//!
//! ```text
//!   ddlf (this facade) re-exports every crate below; an arrow is a
//!   dependency.
//!
//!   ddlf-cli (ddlf-audit): certify/deadlock/explore/simulate/run/recover/serve/submit
//!        │
//!        ├──────────────┬────────────────┬──────────────────┐
//!        ▼              ▼                ▼                  ▼
//!   ddlf-workloads   ddlf-sim         ddlf-server ── TCP frames ── clients
//!                    des: sites,      proto over wire::frame
//!                    4 policies          │
//!                       │                │
//!                       └──▶ ddlf-engine ◀┘
//!                            certify-then-run admission, lockmgr,
//!                            wire::{frame, codec}, wal ──▶ recover
//!                                 │
//!                                 ▼
//!                   ddlf-core ──▶ ddlf-model
//!                   Theorems 1–5  §2 model; History: the batch D(S) oracle
//!                      │          of the incremental D(S) auditor
//!                      ▼
//!                   ddlf-sat (3SAT′)
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use ddlf::model::{Database, Transaction, TransactionSystem};
//! use ddlf::core::{certify_safe_and_deadlock_free, CertifyOptions};
//!
//! // Two entities on two sites; both transactions lock x first (a shared
//! // "entry ticket"), hold it across y — certifiably safe & deadlock-free.
//! let mut b = Database::builder();
//! let s0 = b.add_site();
//! let s1 = b.add_site();
//! let x = b.add_entity("x", s0);
//! let y = b.add_entity("y", s1);
//! let db = b.build();
//!
//! let mut tb = Transaction::builder("T");
//! let lx = tb.lock(x);
//! let ly = tb.lock(y);
//! let uy = tb.unlock(y);
//! let ux = tb.unlock(x);
//! tb.chain(&[lx, ly, uy, ux]);
//! let t = tb.build(&db).unwrap();
//!
//! let sys = TransactionSystem::copies(db, &t, 2).unwrap();
//! assert!(certify_safe_and_deadlock_free(&sys, CertifyOptions::default()).is_ok());
//! ```

#![warn(missing_docs)]

pub use ddlf_core as core;
pub use ddlf_engine as engine;
pub use ddlf_model as model;
pub use ddlf_sat as sat;
pub use ddlf_server as server;
pub use ddlf_sim as sim;
pub use ddlf_workloads as workloads;
