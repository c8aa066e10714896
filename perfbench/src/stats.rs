//! Summary statistics for timings: medians, nearest-rank percentiles
//! and the tail rule (report the highest percentile that still has at
//! least [`MIN_BEYOND`] samples beyond it).

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the tail rule chooses from, highest first.
pub const LADDER: &[f64] = &[99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Median of `xs`: the middle value, or the mean of the middle two for
/// an even count. 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The 1-based nearest rank of percentile `p` among `n` samples:
/// `ceil(p/100 · n)`, at least 1. (The small slack keeps decimal
/// percentiles such as 99.9 from rounding up a whole rank.)
pub fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest rank of percentile `p`.
pub fn beyond(p: f64, n: usize) -> usize {
    n - rank(p, n)
}

/// Nearest-rank percentile `p` of `xs`. 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(p, v.len()) - 1]
}

/// The highest percentile of [`LADDER`] with at least `min_beyond`
/// samples beyond it among `n`, or `None` when even the median has
/// too few.
pub fn tail_percentile(n: usize, min_beyond: usize) -> Option<f64> {
    LADDER.iter().copied().find(|&p| beyond(p, n) >= min_beyond)
}

/// Samples needed before percentile `p` has `min_beyond` samples
/// beyond it.
pub fn samples_for(p: f64, min_beyond: usize) -> usize {
    (1..).find(|&n| beyond(p, n) >= min_beyond).expect("finite")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 99.9), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p95 of 200 samples is rank 190: exactly 10 beyond.
        assert_eq!(beyond(95.0, 200), 10);
        assert_eq!(tail_percentile(200, MIN_BEYOND), Some(95.0));
        // One fewer and only p90 qualifies.
        assert_eq!(tail_percentile(199, MIN_BEYOND), Some(90.0));
        assert_eq!(tail_percentile(1000, MIN_BEYOND), Some(99.0));
        assert_eq!(tail_percentile(10_000, MIN_BEYOND), Some(99.9));
        assert_eq!(tail_percentile(15, MIN_BEYOND), None);
        assert_eq!(tail_percentile(20, MIN_BEYOND), Some(50.0));
        assert_eq!(samples_for(95.0, MIN_BEYOND), 200);
        assert_eq!(samples_for(50.0, MIN_BEYOND), 20);
    }
}
