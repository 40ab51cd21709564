//! Order statistics used by the reports: medians, quartiles, the
//! "highest percentile with at least ten samples beyond it" rule, and
//! geometric means.

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads reported here match the ones a Python check computes.
///
/// # Panics
///
/// Panics on a sample with fewer than two values.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two values");
    let v = sorted(xs);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The highest whole percentile, capped at 90, that leaves at least ten
/// of `n` samples strictly beyond its nearest-rank position; 50 when
/// even the median has fewer than ten samples beyond it. With 100 or
/// more samples this is always 90.
pub fn tail_percentile(n: usize) -> u32 {
    (50..=90)
        .rev()
        .find(|&p| n.saturating_sub(rank(n, p)) >= 10)
        .unwrap_or(50)
}

/// The nearest-rank `p`-th percentile of `xs`.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    let v = sorted(xs);
    v[rank(v.len(), p).max(1) - 1]
}

/// One-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (p as usize * n).div_ceil(100)
}

/// The geometric mean of positive values.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of an empty sample");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "statistic of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn tail_percentile_keeps_ten_beyond() {
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(1000), 90);
        assert_eq!(tail_percentile(40), 75);
        assert_eq!(tail_percentile(20), 50);
        assert_eq!(tail_percentile(5), 50);
        for n in 20..200 {
            let p = tail_percentile(n);
            assert!(n - rank(n, p) >= 10, "n={n} p={p}");
            if p < 90 {
                assert!(n - rank(n, p + 1) < 10, "n={n}: p={p} is not the highest");
            }
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90), 90.0);
        assert_eq!(percentile(&xs, 50), 50.0);
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 50), 3.0);
        assert_eq!(percentile(&[4.0], 0), 4.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[0.25, 0.25, 0.25]) - 0.25).abs() < 1e-12);
    }
}
