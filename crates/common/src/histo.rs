//! Fixed-bucket log-linear latency histogram (HDR-style).
//!
//! [`LatencyHisto`] records per-attempt transaction latencies on the worker
//! hot path and answers p50/p90/p99/p999 queries after the run. Like
//! [`crate::stats::PhaseBreakdown`] it is unit-free: the real engine records
//! nanoseconds, the simulator records cycles (1 cycle ≈ 1 ns at the modeled
//! 1 GHz clock), and per-worker histograms merge with `+=`.
//!
//! Bucketing follows the HDR histogram scheme: each power-of-two octave is
//! split into `2^SUB_BITS` linear sub-buckets, so a bucket's width is at
//! most `1/2^SUB_BITS` of its lower bound. With `SUB_BITS = 3` that bounds
//! the relative quantile error at 12.5% across the full `u64` range using a
//! fixed 496-slot table — no allocation, no dynamic resizing, and `record`
//! is a handful of bit operations.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Linear sub-buckets per power-of-two octave, as a bit count.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave (8): bounds the relative error at 1/8 = 12.5%.
const SUB: usize = 1 << SUB_BITS;
/// Total buckets covering `0..=u64::MAX`: values below `SUB` get exact
/// singleton buckets, every octave above contributes `SUB` more.
const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Bucket index for a recorded value.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_BITS
    let mantissa = (v >> (exp - SUB_BITS)) as usize & (SUB - 1);
    (((exp - SUB_BITS + 1) as usize) << SUB_BITS) | mantissa
}

/// Smallest value mapping to bucket `idx` (the quantile representative).
#[inline]
fn bucket_lower_bound(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let exp = (idx >> SUB_BITS) as u32 + SUB_BITS - 1;
    let mantissa = (idx & (SUB - 1)) as u64;
    (1u64 << exp) | (mantissa << (exp - SUB_BITS))
}

/// A log-linear latency histogram with ≤12.5% relative quantile error.
///
/// Quantiles return the *lower bound* of the bucket holding the requested
/// rank, so reported percentiles never exceed any sample in that bucket and
/// `p50 ≤ p90 ≤ p99 ≤ p999 ≤ max` holds by construction. The maximum is
/// tracked exactly.
#[derive(Clone)]
pub struct LatencyHisto {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
    saturated: bool,
}

impl Default for LatencyHisto {
    fn default() -> Self {
        Self {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
            saturated: false,
        }
    }
}

impl LatencyHisto {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        match self.sum.checked_add(v) {
            Some(s) => self.sum = s,
            None => {
                self.sum = u64::MAX;
                self.saturated = true;
            }
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample recorded (exact, not bucketed). 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all recorded samples (saturating). The Prometheus exporter
    /// emits this as the histogram's `_sum` series, unless
    /// [`sum_saturated`](Self::sum_saturated) is set.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// True once the `u64` sum has overflowed and pinned at `u64::MAX`.
    /// Buckets, count, and max stay exact; only `sum` (and therefore
    /// `mean`) is unreliable. Exporters must mark or omit a saturated
    /// `_sum` instead of emitting the clamped value.
    pub fn sum_saturated(&self) -> bool {
        self.saturated
    }

    /// Mean sample value. 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The `q`-quantile (`q` in `[0, 1]`), as the lower bound of the bucket
    /// containing the sample of rank `ceil(q · count)`. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_lower_bound(idx);
            }
        }
        // Unreachable while counts are consistent; max is a safe answer.
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Non-empty buckets as `(lower_bound, count)`, ascending — the compact
    /// form the bench binaries export.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n != 0)
            .map(|(idx, &n)| (bucket_lower_bound(idx), n))
    }

    /// Non-empty buckets as `(inclusive_upper_bound, cumulative_count)`,
    /// ascending — exactly the Prometheus `_bucket{le="..."}` series (every
    /// sample in a bucket is ≤ that bucket's upper bound, and the counts
    /// accumulate).
    pub fn iter_cumulative(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut cum = 0u64;
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n != 0)
            .map(move |(idx, &n)| {
                cum += n;
                let upper = if idx + 1 < NUM_BUCKETS {
                    bucket_lower_bound(idx + 1) - 1
                } else {
                    u64::MAX
                };
                (upper, cum)
            })
    }
}

impl AddAssign<&LatencyHisto> for LatencyHisto {
    fn add_assign(&mut self, rhs: &LatencyHisto) {
        for (a, b) in self.buckets.iter_mut().zip(rhs.buckets.iter()) {
            *a += b;
        }
        self.count += rhs.count;
        match self.sum.checked_add(rhs.sum) {
            Some(s) => self.sum = s,
            None => {
                self.sum = u64::MAX;
                self.saturated = true;
            }
        }
        self.saturated |= rhs.saturated;
        self.max = self.max.max(rhs.max);
    }
}

impl AddAssign for LatencyHisto {
    fn add_assign(&mut self, rhs: LatencyHisto) {
        *self += &rhs;
    }
}

impl Add for LatencyHisto {
    type Output = Self;

    fn add(mut self, rhs: Self) -> Self {
        self += &rhs;
        self
    }
}

impl fmt::Debug for LatencyHisto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyHisto")
            .field("count", &self.count)
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .field("p999", &self.p999())
            .field("max", &self.max)
            .finish()
    }
}

impl PartialEq for LatencyHisto {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.sum == other.sum
            && self.max == other.max
            && self.buckets == other.buckets
    }
}

impl Eq for LatencyHisto {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn bucket_bounds_are_consistent() {
        // Every bucket's lower bound maps back to that bucket, and bounds
        // are strictly increasing.
        let mut prev = None;
        for idx in 0..NUM_BUCKETS {
            let lb = bucket_lower_bound(idx);
            assert_eq!(bucket_of(lb), idx, "lower bound of bucket {idx}");
            if let Some(p) = prev {
                assert!(lb > p, "bounds must be strictly increasing at {idx}");
            }
            prev = Some(lb);
        }
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHisto::new();
        for v in 0..SUB as u64 {
            h.record(v);
        }
        for v in 0..SUB as u64 {
            let q = (v + 1) as f64 / SUB as f64;
            assert_eq!(h.quantile(q), v);
        }
    }

    #[test]
    fn empty_histogram() {
        let h = LatencyHisto::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
    }

    #[test]
    fn one_sample() {
        let mut h = LatencyHisto::new();
        h.record(1234);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 1234);
        assert_eq!(h.mean(), 1234);
        // All quantiles land in the single occupied bucket.
        let lb = bucket_lower_bound(bucket_of(1234));
        assert_eq!(h.p50(), lb);
        assert_eq!(h.p999(), lb);
        assert!(h.p999() <= h.max());
    }

    /// Quantiles vs. a sorted-vector oracle under randomized inputs: the
    /// reported quantile must be within one bucket width (≤12.5% relative
    /// error) of the true order statistic, and never above it.
    #[test]
    fn quantiles_match_sorted_oracle() {
        let mut rng = SplitMix64::new(0xC0FF_EE00);
        for trial in 0..20 {
            let n = 100 + (rng.next_u64() % 5000) as usize;
            let mut h = LatencyHisto::new();
            let mut samples = Vec::with_capacity(n);
            for _ in 0..n {
                // Mixed magnitudes: exercise several octaves.
                let shift = 24 + rng.next_u64() % 40;
                let v = rng.next_u64() >> shift;
                h.record(v);
                samples.push(v);
            }
            samples.sort_unstable();
            for &q in &[0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0] {
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                let oracle = samples[rank - 1];
                let got = h.quantile(q);
                // The histogram answers with the lower bound of the
                // oracle's bucket: never above the true value, and within
                // one sub-bucket width of it.
                assert!(
                    got <= oracle,
                    "trial {trial} q={q}: got {got} > oracle {oracle}"
                );
                let width = oracle / SUB as u64 + 1;
                assert!(
                    got + width > oracle,
                    "trial {trial} q={q}: got {got}, oracle {oracle}, width {width}"
                );
            }
            assert_eq!(h.max(), *samples.last().unwrap());
            assert!(h.p50() <= h.p90());
            assert!(h.p90() <= h.p99());
            assert!(h.p99() <= h.p999());
            assert!(h.p999() <= h.max());
        }
    }

    #[test]
    fn merge_is_associative_and_matches_bulk_record() {
        let mut rng = SplitMix64::new(0xDEAD_10CC);
        let mut parts = [
            LatencyHisto::new(),
            LatencyHisto::new(),
            LatencyHisto::new(),
        ];
        let mut all = LatencyHisto::new();
        for i in 0..3000 {
            let v = rng.next_u64() % 1_000_000;
            parts[i % 3].record(v);
            all.record(v);
        }
        // (a + b) + c == a + (b + c) == bulk-recorded.
        let left = (parts[0].clone() + parts[1].clone()) + parts[2].clone();
        let right = parts[0].clone() + (parts[1].clone() + parts[2].clone());
        assert_eq!(left, right);
        assert_eq!(left, all);
        assert_eq!(left.count(), 3000);
    }

    #[test]
    fn sum_saturation_is_flagged_and_sticky() {
        let mut h = LatencyHisto::new();
        h.record(u64::MAX);
        assert!(!h.sum_saturated(), "a single max sample fits exactly");
        assert_eq!(h.sum(), u64::MAX);
        h.record(1);
        assert!(h.sum_saturated(), "overflow must set the flag");
        assert_eq!(h.sum(), u64::MAX, "sum pins at MAX once saturated");
        // Buckets/count/max stay exact past saturation.
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        // Saturation survives merges in both directions.
        let mut clean = LatencyHisto::new();
        clean.record(7);
        let merged = clean.clone() + h.clone();
        assert!(merged.sum_saturated());
        let merged = h.clone() + clean.clone();
        assert!(merged.sum_saturated());
        // Two large-but-unsaturated parts can saturate only at merge time.
        let mut a = LatencyHisto::new();
        let mut b = LatencyHisto::new();
        a.record(u64::MAX - 1);
        b.record(u64::MAX - 1);
        assert!(!a.sum_saturated() && !b.sum_saturated());
        let merged = a + b;
        assert!(merged.sum_saturated());
        assert_eq!(merged.sum(), u64::MAX);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut h = LatencyHisto::new();
        h.record(42);
        let merged = h.clone() + LatencyHisto::new();
        assert_eq!(merged, h);
    }

    #[test]
    fn iter_cumulative_is_a_valid_le_series() {
        let mut h = LatencyHisto::new();
        let samples = [1u64, 1, 7, 100, 100_000, u64::MAX];
        for v in samples {
            h.record(v);
        }
        let series: Vec<(u64, u64)> = h.iter_cumulative().collect();
        // Monotone in both coordinates, final cumulative = count.
        assert!(series
            .windows(2)
            .all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
        assert_eq!(series.last().unwrap().1, h.count());
        // Every upper bound really bounds its bucket's samples: the
        // cumulative count at `le` matches the sorted-oracle rank.
        for &(le, cum) in &series {
            let oracle = samples.iter().filter(|&&v| v <= le).count() as u64;
            assert_eq!(cum, oracle, "le={le}");
        }
    }

    #[test]
    fn iter_nonzero_roundtrips_count() {
        let mut h = LatencyHisto::new();
        for v in [1u64, 1, 7, 100, 100_000, u64::MAX] {
            h.record(v);
        }
        let total: u64 = h.iter_nonzero().map(|(_, n)| n).sum();
        assert_eq!(total, h.count());
        let bounds: Vec<u64> = h.iter_nonzero().map(|(lb, _)| lb).collect();
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    }
}
