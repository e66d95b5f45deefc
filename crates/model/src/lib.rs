//! # ddlf-model — the formal model of locked distributed transactions
//!
//! This crate implements §2 of Wolfson & Yannakakis, *"Deadlock-Freedom
//! (and Safety) of Transactions in a Distributed Database"* (PODS 1985 /
//! JCSS 1986):
//!
//! * a [`Database`] is a finite set of entities partitioned into sites;
//! * a [`Transaction`] is a partial order (DAG) of `Lock x` / `Unlock x`
//!   operations with exactly one Lock and one Unlock per accessed entity,
//!   `Lx ≺ Ux`, and same-site operations totally ordered;
//! * a [`TransactionSystem`] is a finite set of transactions, with its
//!   *interaction graph* (§5) and its k-[`inflate`](TransactionSystem::inflate)d
//!   copies (the [`InflatedSystem`] + [`CopyMap`] that certified
//!   multiprogramming is phrased in);
//! * a [`Schedule`] is a lock-respecting merge of linear extensions, with
//!   the conflict digraph `D(S)` serializability test and the partial-
//!   schedule variant used by Lemma 1;
//! * [`incremental`] maintains the same `D(S)` verdict **online**: a
//!   [`StreamingAuditor`] consumes committed-attempt events one at a
//!   time (per-entity lock chains + Pearce–Kelly incremental topological
//!   ordering) at amortized near-constant cost per event, with the batch
//!   audit kept as its oracle;
//! * a [`History`] records a runtime's lock/unlock events per instance
//!   and attempt; its [`CommittedProjection`] is that batch oracle — the
//!   one place a history becomes a schedule over one transaction per
//!   committed instance;
//! * [`Prefix`]/[`SystemPrefix`] are the downward-closed node sets that
//!   deadlock analysis (§3) is phrased in, including the maximal-prefix
//!   and minimal-prefix constructions of §5.
//!
//! The deadlock/safety *algorithms* live in the `ddlf-core` crate; this
//! crate is the vocabulary they are written in.
//!
//! ## Example
//!
//! ```
//! use ddlf_model::{Database, Transaction, TransactionSystem, Schedule, TxnId};
//!
//! // Two entities on two sites.
//! let mut b = Database::builder();
//! let s0 = b.add_site();
//! let s1 = b.add_site();
//! let x = b.add_entity("x", s0);
//! let y = b.add_entity("y", s1);
//! let db = b.build();
//!
//! // A two-phase transaction: Lx → Ly → Ux → Uy.
//! let mut tb = Transaction::builder("T1");
//! let lx = tb.lock(x);
//! let ly = tb.lock(y);
//! let ux = tb.unlock(x);
//! let uy = tb.unlock(y);
//! tb.chain(&[lx, ly, ux, uy]);
//! let t1 = tb.build(&db).unwrap();
//!
//! let sys = TransactionSystem::new(db, vec![t1.clone(), t1.with_name("T2")]).unwrap();
//! let serial = Schedule::serial(&sys, &[TxnId(0), TxnId(1)]);
//! assert!(serial.is_serializable(&sys).unwrap());
//! ```

#![warn(missing_docs)]

pub mod bitset;
pub mod database;
pub mod dot;
pub mod error;
pub mod explore;
pub mod graph;
pub mod history;
pub mod ids;
pub mod incremental;
pub mod inflate;
pub mod linext;
pub mod op;
pub mod prefix;
pub mod schedule;
pub mod search;
pub mod spec;
pub mod system;
pub mod txn;

pub use bitset::{BitMatrix, BitSet};
pub use database::{Database, DatabaseBuilder};
pub use error::ModelError;
pub use explore::{
    explore, instances_of, AnomalyKind, Counterexample, ExploreConfig, ExploreOutcome, ExploreSets,
    ExploreStats, WaitEdge,
};
pub use graph::{DiGraph, UnGraph};
pub use history::{CommittedProjection, History, HistoryEvent};
pub use ids::{EntityId, GlobalNode, NodeId, SiteId, TxnId};
pub use incremental::{IncrementalTopo, IntBuild, IntHasher, StreamingAuditor};
pub use inflate::{CopyMap, InflatedSystem};
pub use linext::{count_linear_extensions, for_each_linear_extension, linear_extensions};
pub use op::{Op, OpKind};
pub use prefix::{Prefix, SystemPrefix};
pub use schedule::{replay_prefix, ConflictGraph, Schedule, ValidSchedule};
pub use spec::{EntitySpec, SpecError, SystemSpec, TransactionSpec};
pub use system::TransactionSystem;
pub use txn::{Transaction, TransactionBuilder};
