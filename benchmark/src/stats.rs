//! Small statistics helpers shared by every workload: medians, the
//! quartile rule the acceptance check uses, geometric mean, and the
//! percentile-selection rule for latency tails.

/// Median of `v` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one round.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) computes them — the rule the driver
/// applies to ten runs, reused here for the rounds inside one run.
/// `None` below two samples.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let n = v.len();
    if n < 2 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |i: usize| {
        // cut point i of 4 sits at position i*(n+1)/4 (1-based), clamped
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median; 0 below two samples.
pub fn spread(v: &[f64]) -> f64 {
    match quartiles(v) {
        Some((q1, q3)) => (q3 - q1) / median(v),
        None => 0.0,
    }
}

/// Geometric mean; every value must be positive.
pub fn geomean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "geomean of no samples");
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// The tail percentiles a latency report may quote, lowest first, as
/// `(one sample in this many lies beyond, label)`.
const LADDER: [(usize, &str); 5] = [
    (10, "p90"),
    (100, "p99"),
    (1_000, "p99.9"),
    (10_000, "p99.99"),
    (100_000, "p99.999"),
];

/// The highest ladder percentile that still has at least ten samples
/// beyond it among `n` samples, as `(quantile, label)`; `None` when even
/// p90 does not.
pub fn tail_percentile(n: usize) -> Option<(f64, &'static str)> {
    LADDER
        .iter()
        .rfind(|(one_in, _)| n / one_in >= 10)
        .map(|&(one_in, label)| (1.0 - 1.0 / one_in as f64, label))
}

/// Value at quantile `q` of an ascending-sorted sample (nearest rank).
pub fn quantile_sorted(sorted: &[u32], q: f64) -> u32 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`quantile_sorted`] of a nanosecond sample, in microseconds.
pub fn quantile_us(sorted_ns: &[u32], q: f64) -> f64 {
    f64::from(quantile_sorted(sorted_ns, q)) / 1e3
}

/// The latency line a report quotes: the median and the highest
/// percentile that still has ten samples beyond it, with the count.
pub fn latency_line(what: &str, sorted_ns: &[u32]) -> String {
    let n = sorted_ns.len();
    let p50 = quantile_us(sorted_ns, 0.5);
    match tail_percentile(n) {
        Some((q, label)) => format!(
            "{what}: p50 {p50:.2} us, {label} {:.2} us over {n} samples",
            quantile_us(sorted_ns, q)
        ),
        None => format!("{what}: p50 {p50:.2} us over {n} samples (too few for a tail)"),
    }
}

/// Nanoseconds after the start edge at which request `i` of an open loop
/// at `rate_per_s` is due. Integer arithmetic on the request index, so the
/// schedule never drifts: request `rate_per_s` is due at exactly one
/// second whatever rounding the period would have suffered.
pub fn due_ns(i: u64, rate_per_s: u64) -> u64 {
    (i as u128 * 1_000_000_000 / rate_per_s as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[8.0, 8.0, 8.0]) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let label = |n| tail_percentile(n).map(|(_, l)| l);
        assert_eq!(label(99), None);
        assert_eq!(label(100), Some("p90"));
        assert_eq!(label(999), Some("p90"));
        assert_eq!(label(1_000), Some("p99"));
        assert_eq!(label(9_999), Some("p99"));
        assert_eq!(label(10_000), Some("p99.9"));
        assert_eq!(label(160_000), Some("p99.99"));
        assert_eq!(label(50_000_000), Some("p99.999"));
        assert_eq!(tail_percentile(1_000).map(|(q, _)| q), Some(0.99));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&[7], 0.5), 7);
    }

    #[test]
    fn due_times_do_not_drift() {
        assert_eq!(due_ns(0, 80_000), 0);
        assert_eq!(due_ns(1, 80_000), 12_500);
        assert_eq!(due_ns(80_000, 80_000), 1_000_000_000);
        // a rate whose period is not a whole number of nanoseconds
        assert_eq!(due_ns(30_000, 30_000), 1_000_000_000);
        assert_eq!(due_ns(3, 30_000), 100_000);
        let mut prev = 0;
        for i in 1..1000 {
            let d = due_ns(i, 30_000);
            assert!(d > prev);
            prev = d;
        }
    }
}
