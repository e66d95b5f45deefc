//! Log-bucketed latency histograms over atomic `u64` buckets.
//!
//! The bucket layout trades memory for bounded *relative* error:
//! values `0..=15` get one exact bucket each, and every larger value
//! lands in one of four sub-buckets per power of two — so a reported
//! percentile is never more than 25% above the true sample (and never
//! below it). 256 buckets cover the whole `u64` range in 2 KiB of
//! atomics, and recording is one `fetch_add` per counter: no locks, no
//! allocation, safe to call from every engine worker concurrently.
//!
//! Two types split the hot and cold paths: [`Histogram`] is the shared
//! atomic recorder, [`HistogramSnapshot`] is a plain-data copy that can
//! be merged (cross-worker or cross-run aggregation — this is what lets
//! `Report::absorb` combine percentiles *exactly* instead of taking the
//! conservative worse-of), diffed against an earlier snapshot, and
//! queried for percentiles.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: 16 exact singletons + 60 octaves × 4 sub-buckets.
pub const BUCKET_COUNT: usize = 256;

/// The bucket index of `v` (nanoseconds). Values `0..=15` map to
/// themselves; `v ≥ 16` maps to octave `o = floor(log2 v)` with four
/// sub-buckets, so each bucket spans at most a quarter of its floor.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v < 16 {
        return v as usize;
    }
    let o = 63 - v.leading_zeros() as usize; // ≥ 4
    let sub = ((v >> (o - 2)) & 3) as usize;
    16 + (o - 4) * 4 + sub
}

/// The smallest value mapping to bucket `i`.
#[inline]
pub fn bucket_floor(i: usize) -> u64 {
    if i < 16 {
        return i as u64;
    }
    let k = i - 16;
    let (o, sub) = (4 + k / 4, (k % 4) as u64);
    (4 + sub) << (o - 2)
}

/// The largest value mapping to bucket `i`.
#[inline]
pub fn bucket_ceil(i: usize) -> u64 {
    if i < 16 {
        return i as u64;
    }
    let k = i - 16;
    let (o, sub) = (4 + k / 4, (k % 4) as u64);
    if i == BUCKET_COUNT - 1 {
        return u64::MAX;
    }
    ((5 + sub) << (o - 2)) - 1
}

/// A concurrent log-bucketed histogram of `u64` samples (nanoseconds by
/// convention). All methods take `&self`; recording is lock-free.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample: three relaxed `fetch_add`s and a `fetch_max`.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A plain-data copy for querying, merging, and diffing. Buckets are
    /// read individually (relaxed), so a snapshot taken under concurrent
    /// recording is a consistent-enough view: every sample is in at most
    /// one bucket, never half-counted.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]: mergeable and queryable.
/// `Default` is the empty distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (mean = `sum / count`).
    pub sum: u64,
    /// Largest sample observed.
    pub max: u64,
    buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            max: 0,
            buckets: vec![0; BUCKET_COUNT],
        }
    }
}

impl HistogramSnapshot {
    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The `q`-quantile (`0 < q ≤ 1`): the ceiling of the bucket holding
    /// the rank-`⌈q·count⌉` sample, clamped to the observed max — so the
    /// result is `≥` the true order statistic and at most 25% above it
    /// (exact below 16). Returns 0 on an empty distribution.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_ceil(i).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Folds `other` in: buckets, counts, and sums add; max takes the
    /// larger. Exact (associative and commutative) — the reason the
    /// engine reports histograms instead of pre-reduced percentiles.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_partition_the_u64_range() {
        for i in 0..BUCKET_COUNT {
            let (lo, hi) = (bucket_floor(i), bucket_ceil(i));
            assert!(lo <= hi, "bucket {i}");
            assert_eq!(bucket_of(lo), i, "floor of {i}");
            assert_eq!(bucket_of(hi), i, "ceil of {i}");
            if i + 1 < BUCKET_COUNT {
                assert_eq!(hi + 1, bucket_floor(i + 1), "gap after bucket {i}");
            }
        }
        assert_eq!(bucket_of(u64::MAX), BUCKET_COUNT - 1);
    }

    #[test]
    fn relative_error_is_bounded_by_a_quarter() {
        for i in 16..BUCKET_COUNT - 1 {
            let (lo, hi) = (bucket_floor(i), bucket_ceil(i));
            assert!(hi - lo < lo / 4 + 1, "bucket {i}: [{lo}, {hi}]");
        }
    }

    #[test]
    fn exact_percentiles_for_small_values() {
        let h = Histogram::new();
        for v in 1..=10u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), 5);
        assert_eq!(s.percentile(1.0), 10);
        assert_eq!(s.max, 10);
        assert_eq!(s.mean(), 5); // 55 / 10, integer division
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0);
        assert_eq!(s, HistogramSnapshot::default());
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let (a, b, both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [3u64, 70, 900, 12_345] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 70, 1_000_000] {
            b.record(v);
            both.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }
}
