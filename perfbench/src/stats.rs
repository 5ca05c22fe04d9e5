//! Order statistics over timing samples.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value with
/// at least `q` of the sample at or below it.  `q` is clamped to `[0, 1]`; an
/// empty sample yields `None`.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Whether a sample of `n` values leaves at least ten values strictly above the
/// `q` percentile, so that the percentile is backed by a tail and not by the
/// single largest value.
pub fn tail_supported(q: f64, n: usize) -> bool {
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    n >= 1 && n.saturating_sub(rank.max(1)) >= 10
}

/// Sorts a copy of `values` (total order, so NaN cannot panic the sort).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Median (nearest-rank p50) of an unsorted sample.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 0.5), Some(50.0));
        assert_eq!(percentile(&sample, 0.99), Some(99.0));
        assert_eq!(percentile(&sample, 1.0), Some(100.0));
        assert_eq!(percentile(&sample, 0.0), Some(1.0));
        assert_eq!(percentile(&sample, 0.001), Some(1.0));
    }

    #[test]
    fn nearest_rank_rounds_up_between_ranks() {
        // n = 10: p50 is rank 5, p55 is rank ceil(5.5) = 6, p99 is rank 10.
        let sample: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sample, 0.5), Some(5.0));
        assert_eq!(percentile(&sample, 0.55), Some(6.0));
        assert_eq!(percentile(&sample, 0.99), Some(10.0));
        // A single value is every percentile.
        assert_eq!(percentile(&[7.0], 0.01), Some(7.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_unsorted_even_sample_is_the_lower_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_support_needs_ten_samples_beyond_the_percentile() {
        // p99 of 1000 values is rank 990: exactly ten above it.
        assert!(tail_supported(0.99, 1000));
        assert!(!tail_supported(0.99, 999));
        // p50 of 20 values is rank 10: ten above it.
        assert!(tail_supported(0.5, 20));
        assert!(!tail_supported(0.5, 19));
        assert!(!tail_supported(0.99, 0));
    }
}
