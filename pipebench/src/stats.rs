//! Order statistics for timings: medians, nearest-rank percentiles and the
//! tail rule (report a percentile only when at least ten samples lie
//! beyond it).

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` in `(0, 1]` of `values` (sorted or not):
/// the smallest sample with at least `q·n` samples at or below it.
/// Returns `None` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank percentile `q` of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// Whether percentile `q` of `n` samples has enough samples beyond it to be
/// reported as a tail.
pub fn tail_is_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= TAIL_MIN_BEYOND
}

/// The highest percentile of `ladder` that [`tail_is_supported`] for `n`
/// samples, or `None` when not even the lowest one is.
pub fn highest_supported_tail(n: usize, ladder: &[f64]) -> Option<f64> {
    ladder
        .iter()
        .copied()
        .filter(|&q| tail_is_supported(n, q))
        .reduce(f64::max)
}

/// Median (mean of the middle pair for an even count); `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// `num / den`, or `0.0` when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), Some(5.0));
        assert_eq!(percentile(&values, 0.9), Some(9.0));
        assert_eq!(percentile(&values, 1.0), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 100 samples: p90 is the 90th, leaving exactly 10 beyond it.
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(tail_is_supported(100, 0.9));
        // 99 samples: p90 is the 90th (ceil 89.1), leaving only 9.
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert!(!tail_is_supported(99, 0.9));
        // p99 needs a thousand samples.
        assert!(!tail_is_supported(999, 0.99));
        assert!(tail_is_supported(1000, 0.99));

        let ladder = [0.5, 0.9, 0.99];
        assert_eq!(highest_supported_tail(9, &ladder), None);
        assert_eq!(highest_supported_tail(20, &ladder), Some(0.5));
        assert_eq!(highest_supported_tail(120, &ladder), Some(0.9));
        assert_eq!(highest_supported_tail(1000, &ladder), Some(0.99));
    }
}
