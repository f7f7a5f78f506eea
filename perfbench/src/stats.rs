//! Order statistics the benchmark reports, and the rule that decides
//! which tail percentile a sample supports.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the "tail" is one or two unlucky samples.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending) at quantile `q` in
/// `(0, 1]`: the smallest sample with at least `q·n` samples at or
/// below it.
///
/// # Panics
/// On an empty sample.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile at `q`.
#[must_use]
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Whether `n` samples support reporting the percentile at `q`.
#[must_use]
pub fn supports(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_BEYOND
}

/// Median of an unsorted sample (mean of the two middle values for an
/// even count).
///
/// # Panics
/// On an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sorts latency samples and returns `(p50, p99, n)`; `p99` is `None`
/// when the sample is too small for it.
#[must_use]
pub fn latency_summary(samples: &mut [f64]) -> Option<(f64, Option<f64>, usize)> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let n = samples.len();
    let p99 = supports(n, 0.99).then(|| percentile(samples, 0.99));
    Some((percentile(samples, 0.5), p99, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // 0.5 of 3 samples is rank ceil(1.5) = 2.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, ten beyond — the smallest sample
        // that supports p99.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert!(!supports(999, 0.99));
        // The median is supported from 20 samples on.
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn latency_summary_withholds_an_unsupported_tail() {
        let mut small: Vec<f64> = (0..500).map(f64::from).collect();
        let (p50, p99, n) = latency_summary(&mut small).expect("non-empty");
        assert_eq!((p50, p99, n), (249.0, None, 500));
        let mut big: Vec<f64> = (0..2000).rev().map(f64::from).collect();
        let (p50, p99, n) = latency_summary(&mut big).expect("non-empty");
        assert_eq!((p50, p99, n), (999.0, Some(1979.0), 2000));
        assert!(latency_summary(&mut []).is_none());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
