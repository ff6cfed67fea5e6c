//! Order statistics and means the harness reports with.

pub const MIB: f64 = (1u64 << 20) as f64;
pub const GIB: f64 = (1u64 << 30) as f64;

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values: a 2x gain on one of four commands
/// moves it 19 %, where a time-weighted mean would hide a gain on a fast
/// command.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of no samples");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The highest order statistic that still has at least ten samples beyond
/// it, never below the median: `(percentile, value)`. With fewer than 22
/// samples no percentile above the median qualifies and the median is
/// returned as percentile 50.
pub fn percentile_with_ten_beyond(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 22 {
        return (50.0, median(&v));
    }
    let idx = n - 11;
    (100.0 * idx as f64 / (n - 1) as f64, v[idx])
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the exclusive method), so a spread computed here equals the
/// one the acceptance check computes.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median; 0 for fewer
/// than two samples.
pub fn spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn geomean_weights_commands_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        // A 2x gain on one of four commands moves the mean by 2^(1/4).
        let base = geomean(&[10.0, 20.0, 30.0, 40.0]);
        let gain = geomean(&[20.0, 20.0, 30.0, 40.0]);
        assert!((gain / base - 2f64.powf(0.25)).abs() < 1e-9);
    }

    #[test]
    fn percentile_keeps_ten_samples_beyond() {
        let few: Vec<f64> = (0..21).map(f64::from).collect();
        assert_eq!(percentile_with_ten_beyond(&few), (50.0, 10.0));
        let many: Vec<f64> = (0..101).map(f64::from).collect();
        let (pct, v) = percentile_with_ten_beyond(&many);
        assert_eq!(v, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(many.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]);
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
    }
}
