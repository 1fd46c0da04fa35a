//! Order statistics over latency samples.

/// Sorts a sample ascending (NaN-free by construction: every sample is a
/// measured duration).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples
}

/// 1-based nearest rank of percentile `p` in `[0, 100]` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps a product that is an integer on paper (99.9 % of
    // 10 000) from being rounded up by its binary representation.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending sample; 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of an ascending sample (nearest rank, like every other
/// percentile here).
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50.0)
}

/// Median of an unsorted sample.
pub fn median_of(samples: Vec<f64>) -> f64 {
    median(&sorted(samples))
}

/// Tail percentiles a report may quote, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile of [`TAILS`] that still has at least ten samples
/// beyond it — a tail quoted from fewer is one outlier, not a percentile.
/// `None` when even p75 is not supported.
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAILS.into_iter().find(|&p| n - rank(n, p) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&s, 50.0), 2.0);
        assert_eq!(percentile(&s, 75.0), 3.0);
        assert_eq!(percentile(&s, 76.0), 4.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 95.0), 95.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(median(&hundred), 50.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 is rank 990: exactly ten beyond. One sample fewer
        // and p99 is no longer supported.
        assert_eq!(highest_supported_tail(1000), Some(99.0));
        assert_eq!(highest_supported_tail(999), Some(95.0));
        assert_eq!(highest_supported_tail(10_000), Some(99.9));
        // p95 of 200 is rank 190: ten beyond; of 199, rank 190: nine.
        assert_eq!(highest_supported_tail(200), Some(95.0));
        assert_eq!(highest_supported_tail(199), Some(90.0));
        // 120 samples (the compute workload): p90 is rank 108, twelve beyond.
        assert_eq!(highest_supported_tail(120), Some(90.0));
        assert_eq!(highest_supported_tail(40), Some(75.0));
        assert_eq!(highest_supported_tail(39), None);
        assert_eq!(highest_supported_tail(0), None);
    }
}
