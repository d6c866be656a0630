//! The estimators every reported number goes through: median over
//! repetitions, geometric mean over indexes, percentiles of raw samples and of
//! an [`obs::Hist`].

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// If `xs` is empty or holds a NaN — both are bugs in the caller.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Geometric mean of strictly positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of no values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of raw samples; sorts in place.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Quantile of a histogram, interpolated linearly by rank inside the bucket
/// that holds it. [`obs::Hist::quantile`] returns the bucket's representative
/// value, which moves in 3% steps; a median of such values would read exactly
/// the same on most runs and jump a whole step on the others.
pub fn hist_quantile(h: &obs::Hist, q: f64) -> f64 {
    let target = q * h.count() as f64;
    let mut seen = 0.0;
    for (i, c) in h.nonzero_buckets() {
        let c = c as f64;
        if seen + c >= target {
            let lo = obs::hist::bucket_lower(i as usize) as f64;
            let hi = obs::hist::bucket_lower(i as usize + 1) as f64;
            let v = lo + (hi - lo) * ((target - seen) / c);
            return v.clamp(h.min() as f64, h.max() as f64);
        }
        seen += c;
    }
    h.max() as f64
}

/// Interquartile range over the median — the spread the acceptance rule uses.
/// Quartiles follow Python's `statistics.quantiles(values, n=4)` (exclusive
/// method), so a spread printed here matches one computed from the ledgers.
pub fn iqr_over_median(xs: &[f64]) -> f64 {
    assert!(xs.len() >= 2, "spread needs two values");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let quartile = |k: usize| {
        let pos = k as f64 * (v.len() + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (quartile(3) - quartile(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_geomean_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut s, 0.5), 50);
        assert_eq!(percentile(&mut s, 0.99), 99);
        assert_eq!(percentile(&mut s, 1.0), 100);
        assert_eq!(percentile(&mut [7], 0.99), 7);
    }

    #[test]
    fn hist_quantile_interpolates_inside_the_bucket() {
        let mut h = obs::Hist::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, truth) in [(0.5, 50_000.0), (0.99, 99_000.0)] {
            let got = hist_quantile(&h, q);
            assert!((got - truth).abs() / truth < 0.002, "q={q}: {got}");
        }
        // Two nearby distributions land in one bucket but not on one value.
        let mut a = obs::Hist::new();
        let mut b = obs::Hist::new();
        for v in 0..1000u64 {
            a.record(1000 + v % 20);
            b.record(1000 + v % 20 + u64::from(v % 3 == 0));
        }
        assert_eq!(a.quantile(0.5), b.quantile(0.5));
        assert_ne!(hist_quantile(&a, 0.9), hist_quantile(&b, 0.9));
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }
}
