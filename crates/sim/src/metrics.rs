//! Run metrics and reports.

use crate::time::SimTime;
use ddlf_model::TxnId;

/// Counters and outcomes of one simulated run.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Transactions that ran to commit.
    pub committed: usize,
    /// Aborted attempts (restarts) across all transactions.
    pub aborted_attempts: usize,
    /// Deadlock cycles resolved by the detector.
    pub deadlocks_detected: usize,
    /// Holders aborted by wound-wait.
    pub wounds: usize,
    /// Requesters aborted by wait-die.
    pub dies: usize,
    /// Network messages delivered, counted by the discrete-event
    /// simulator's message fabric (`des.rs`). The real engine has no
    /// message fabric — its shards are mutexes, not mailboxes — and
    /// never builds a `SimReport`: it reports in its own `Report`, and
    /// its observability lives in `ddlf-telemetry` (phase histograms,
    /// the `wal_bytes` gauge).
    pub messages: u64,
    /// Simulated completion (or quiescence) time.
    pub end_time: SimTime,
    /// Transactions still unfinished at quiescence — nonempty means the
    /// run deadlocked (under `Nothing`) or gave up (attempt limit).
    pub stalled: Vec<TxnId>,
    /// Post-hoc `D(S)` audit of the committed schedule; `None` when not
    /// all transactions committed.
    pub serializable: Option<bool>,
    /// Number of history events recorded.
    pub history_len: usize,
    /// Events popped off the simulator's event queue. The engine
    /// executes on real threads with no event loop; its equivalent
    /// counters are `Report::history_len` and the `ddlf-telemetry`
    /// phase histogram counts.
    pub events_processed: u64,
}

impl SimReport {
    /// Whether every transaction committed.
    pub fn all_committed(&self, total: usize) -> bool {
        self.committed == total && self.stalled.is_empty()
    }

    /// Committed transactions per simulated second.
    pub fn throughput_per_sec(&self) -> f64 {
        if self.end_time.micros() == 0 {
            return 0.0;
        }
        self.committed as f64 / (self.end_time.micros() as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_computation() {
        let r = SimReport {
            committed: 10,
            end_time: SimTime::from_micros(2_000_000),
            ..Default::default()
        };
        assert!((r.throughput_per_sec() - 5.0).abs() < 1e-9);
        assert!(r.all_committed(10));
        assert!(!r.all_committed(11));
    }

    #[test]
    fn zero_time_throughput_is_zero() {
        let r = SimReport::default();
        assert_eq!(r.throughput_per_sec(), 0.0);
    }
}
