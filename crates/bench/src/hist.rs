//! Log-bucketed latency histograms (HDR-style).
//!
//! Per-thread workers record nanosecond latencies into a private
//! [`LatencyHistogram`] — a fixed array of counters, so the hot path is one
//! index computation and one increment, with **no allocation** after
//! construction — and the driver merges the per-thread histograms once the
//! run finishes ([`LatencyHistogram::merge`]).
//!
//! Bucketing: values below [`SUBS`] (32 ns) are recorded exactly; above
//! that, each power-of-two octave is subdivided into [`SUBS`] linear
//! sub-buckets, giving a worst-case relative error of `1/32` (~3%) across
//! the full `u64` range — the standard high-dynamic-range layout.

/// log2 of the number of linear sub-buckets per octave.
const SUB_BITS: u32 = 5;
/// Linear sub-buckets per power-of-two octave (values `< SUBS` are exact).
const SUBS: usize = 1 << SUB_BITS;
/// Total buckets: the exact region plus 59 subdivided octaves (2^5..2^63).
const BUCKETS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// A log-bucketed histogram of nanosecond latencies.
///
/// # Example
///
/// ```
/// use cds_bench::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for ns in [90u64, 100, 110, 10_000] {
///     h.record(ns);
/// }
/// assert_eq!(h.count(), 4);
/// let p50 = h.percentile(50.0);
/// assert!((90..=115).contains(&p50));
/// ```
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

impl LatencyHistogram {
    /// Creates an empty histogram (the only allocation it ever performs).
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Box::new([0u64; BUCKETS]),
            total: 0,
        }
    }

    /// Bucket index for a nanosecond value; total order, monotone in `ns`.
    #[inline]
    fn index(ns: u64) -> usize {
        if ns < SUBS as u64 {
            ns as usize
        } else {
            // Highest set bit is >= SUB_BITS; the sub-bucket is the next
            // SUB_BITS bits below it.
            let octave = 63 - ns.leading_zeros();
            let sub = ((ns >> (octave - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
            SUBS + ((octave - SUB_BITS) as usize) * SUBS + sub
        }
    }

    /// Midpoint (representative value) of bucket `idx`.
    fn bucket_mid(idx: usize) -> u64 {
        if idx < SUBS {
            idx as u64
        } else {
            let octave = SUB_BITS + ((idx - SUBS) / SUBS) as u32;
            let sub = ((idx - SUBS) % SUBS) as u64;
            let width = 1u64 << (octave - SUB_BITS);
            let low = (1u64 << octave) + sub * width;
            low + width / 2
        }
    }

    /// Records one latency observation. Allocation-free.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds every bucket of `other` into `self` (post-run merge of
    /// per-thread histograms).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
    }

    /// Value at percentile `p` (e.g. `50.0`, `99.9`), as the midpoint of
    /// the bucket containing that rank. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return Self::bucket_mid(idx);
            }
        }
        Self::bucket_mid(BUCKETS - 1)
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.total)
            .field("p50_ns", &self.percentile(50.0))
            .field("p99_ns", &self.percentile(99.0))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        // Every value below SUBS occupies its own bucket.
        for v in 0..32u64 {
            assert_eq!(LatencyHistogram::index(v), v as usize);
        }
    }

    #[test]
    fn index_is_monotone_and_bounded() {
        let mut prev = 0usize;
        for shift in 0..64u32 {
            let v = 1u64 << shift;
            for probe in [v, v + v / 3, v + v / 2, (v - 1).max(1)] {
                let idx = LatencyHistogram::index(probe);
                assert!(idx < BUCKETS, "index {idx} out of range for {probe}");
                if probe >= 1u64 << shift {
                    assert!(idx >= prev);
                }
            }
            prev = LatencyHistogram::index(v);
        }
        assert_eq!(LatencyHistogram::index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_mid_lands_in_its_own_bucket() {
        for shift in 0..63u32 {
            let v = (1u64 << shift) + (1u64 << shift) / 3;
            let idx = LatencyHistogram::index(v);
            let mid = LatencyHistogram::bucket_mid(idx);
            assert_eq!(LatencyHistogram::index(mid), idx, "value {v}");
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for &v in &[100u64, 1_000, 10_000, 123_456, 9_999_999] {
            let mid = LatencyHistogram::bucket_mid(LatencyHistogram::index(v));
            let err = (mid as f64 - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / 16.0, "value {v}: midpoint {mid}, err {err}");
        }
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        let mut rng = cds_atomic::stress::SplitMix64::new(1);
        for _ in 0..10_000 {
            h.record(rng.below(1_000_000));
        }
        let p50 = h.percentile(50.0);
        let p90 = h.percentile(90.0);
        let p99 = h.percentile(99.0);
        let p999 = h.percentile(99.9);
        assert!(p50 <= p90 && p90 <= p99 && p99 <= p999);
    }
}
