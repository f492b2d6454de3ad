//! Sample statistics: exact percentiles where the benchmark holds the
//! samples, the tail-percentile rule, and the quartile spread `check`
//! prints.

/// The tail percentiles the rule chooses from, highest first.
const TAILS: [(&str, f64); 3] = [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.90)];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: f64 = 10.0;

/// The highest of p90/p99/p99.9 that leaves at least ten of `n` samples
/// beyond it, or `None` when even p90 does not (n < 100).
pub fn tail_for(n: usize) -> Option<(&'static str, f64)> {
    TAILS
        .into_iter()
        .find(|(_, q)| n as f64 * (1.0 - q) >= MIN_BEYOND - 1e-9)
}

/// Percentile `q` of sorted samples (nearest rank, exact sort).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and rule-chosen tail of one sample set.
#[derive(Clone, Debug, PartialEq)]
pub struct Dist {
    /// Median.
    pub p50: u64,
    /// The tail percentile the rule chose and its value; the median
    /// itself stands in (labelled `p50`) when no tail qualifies.
    pub tail: (&'static str, u64),
}

impl Dist {
    /// Summarise `samples` (any order).
    pub fn of(samples: &[u64]) -> Dist {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let p50 = percentile(&sorted, 0.5);
        let tail =
            tail_for(sorted.len()).map_or(("p50", p50), |(l, q)| (l, percentile(&sorted, q)));
        Dist { p50, tail }
    }
}

/// Median of float samples (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method) — the spread the builder's
/// contract bounds. Needs at least two samples.
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (quartile(3) - quartile(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_for(99), None);
        assert_eq!(tail_for(100).map(|t| t.0), Some("p90"));
        assert_eq!(tail_for(104).map(|t| t.0), Some("p90"));
        assert_eq!(tail_for(999).map(|t| t.0), Some("p90"));
        assert_eq!(tail_for(1000).map(|t| t.0), Some("p99"));
        assert_eq!(tail_for(3000).map(|t| t.0), Some("p99"));
        assert_eq!(tail_for(9999).map(|t| t.0), Some("p99"));
        assert_eq!(tail_for(10_000).map(|t| t.0), Some("p99.9"));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.5), 50);
        assert_eq!(percentile(&sorted, 0.9), 90);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&[7], 0.999), 7);
        // Exactly ten samples lie beyond the reported tail.
        let d = Dist::of(&sorted);
        assert_eq!((d.p50, d.tail), (50, ("p90", 90)));
        assert_eq!(sorted.iter().filter(|v| **v > d.tail.1).count(), 10);
        // Too few samples: the median stands in and says so.
        assert_eq!(Dist::of(&[3, 1, 2]).tail, ("p50", 2));
    }

    #[test]
    fn median_and_spread_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((quartile_spread(&[4.0, 1.0, 2.0]) - 1.5).abs() < 1e-12);
    }
}
