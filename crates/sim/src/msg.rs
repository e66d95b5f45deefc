//! Network messages between transaction coordinators and sites.
//!
//! The simulator routes every cross-site interaction through these
//! messages, so the unit of concurrency is exactly what a distributed
//! database would ship over the network; each one costs a seeded
//! latency draw and counts in [`SimReport::messages`](crate::SimReport::messages).

use ddlf_model::{EntityId, TxnId};

/// A message on the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Message {
    /// Coordinator → site: request the exclusive lock on `entity`.
    LockReq {
        /// Requesting transaction.
        txn: TxnId,
        /// The transaction's attempt number (messages from aborted
        /// attempts are discarded by the receiver).
        attempt: u32,
        /// Requested entity.
        entity: EntityId,
    },
    /// Site → coordinator: the lock was granted.
    LockGrant {
        /// Transaction being granted.
        txn: TxnId,
        /// Attempt the grant belongs to.
        attempt: u32,
        /// Granted entity.
        entity: EntityId,
    },
    /// Coordinator → site: release a held lock, or cancel a queued
    /// request.
    Release {
        /// Releasing transaction.
        txn: TxnId,
        /// Released entity.
        entity: EntityId,
    },
    /// Site → coordinator: abort order produced by a prevention policy
    /// (wound-wait) or the detector.
    AbortOrder {
        /// The victim transaction.
        victim: TxnId,
    },
}
