//! Property tests for the log-bucketed histogram against a
//! sorted-vector oracle, plus merge-algebra and concurrency checks.

use ddlf_telemetry::{bucket_of, Histogram, HistogramSnapshot};
use proptest::prelude::*;

/// The oracle: exact order statistic at quantile `q` over a sorted
/// sample vector, with the same rank convention the histogram uses
/// (rank = ⌈q·n⌉, clamped to [1, n]).
fn oracle_percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    /// Every reported percentile is ≥ the true order statistic and in
    /// the same bucket — i.e. within one bucket's relative error
    /// (≤ 25%, exact below 16).
    #[test]
    fn percentile_matches_oracle_within_one_bucket(
        mut values in prop::collection::vec(0u64..=u64::MAX / 2, 1..400),
        qpct in 1u64..=100,
    ) {
        let q = qpct as f64 / 100.0;
        let snap = snapshot_of(&values);
        values.sort_unstable();
        let truth = oracle_percentile(&values, q);
        let got = snap.percentile(q);
        prop_assert!(got >= truth, "histogram {got} below oracle {truth}");
        prop_assert_eq!(
            bucket_of(got), bucket_of(truth),
            "histogram {} left oracle {}'s bucket", got, truth
        );
        // Same-bucket implies the ≤25% relative error bound:
        prop_assert!(got - truth <= truth / 4, "{got} vs {truth}");
    }

    /// count / sum / max / mean are exact, not approximations.
    #[test]
    fn totals_are_exact(values in prop::collection::vec(0u64..=1u64 << 40, 1..200)) {
        let snap = snapshot_of(&values);
        let sum: u64 = values.iter().sum();
        prop_assert_eq!(snap.count, values.len() as u64);
        prop_assert_eq!(snap.sum, sum);
        prop_assert_eq!(snap.max, *values.iter().max().unwrap());
        prop_assert_eq!(snap.mean(), sum / values.len() as u64);
    }

    /// Merge is associative and commutative, and (a ∪ b ∪ c) equals
    /// recording all three sample sets into a single histogram.
    #[test]
    fn merge_is_associative_and_lossless(
        a in prop::collection::vec(0u64..=1u64 << 48, 0..100),
        b in prop::collection::vec(0u64..=1u64 << 48, 0..100),
        c in prop::collection::vec(0u64..=1u64 << 48, 0..100),
    ) {
        let (sa, sb, sc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));

        // (a + b) + c
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        // a + (b + c)
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);

        // b + a  ==  a + b
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba);

        // Lossless versus one big histogram.
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(&left, &snapshot_of(&all));
    }
}

/// Concurrent recording from many threads loses no samples and agrees
/// with a single-threaded reference histogram over the same multiset.
#[test]
fn concurrent_recording_loses_nothing() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let shared = Histogram::new();
    let reference = Histogram::new();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let shared = &shared;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    // Deterministic spread across many buckets.
                    shared.record((t * PER_THREAD + i) * 37 % 1_000_003);
                }
            });
        }
    });
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            reference.record((t * PER_THREAD + i) * 37 % 1_000_003);
        }
    }

    assert_eq!(shared.snapshot(), reference.snapshot());
    assert_eq!(shared.count(), THREADS * PER_THREAD);
}
