//! Order statistics for the report: medians, the quartiles the driver's
//! spread rule uses, and tail percentiles that are only reported when the
//! sample supports them.

/// Ascending copy of `values` (NaNs sort last and never occur in practice).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of an unsorted sample; the mean of the two middle values when the
/// count is even. `None` on an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive" method),
/// because that is the rule the acceptance spread is computed with. Needs
/// at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median — the run-to-run spread.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The `p`-th percentile (nearest rank), reported only when at least ten
/// samples lie beyond it: p95 needs 200 samples, p90 needs 100. A tail
/// read off fewer samples is one or two outliers, not a percentile.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    let beyond = (n as f64 * (1.0 - p) + 1e-9).floor() as usize;
    if beyond < 10 {
        return None;
    }
    let v = sorted(values);
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            Some([15.0, 40.0, 120.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_spread(&v), Some(1.0));
        assert_eq!(relative_spread(&[7.0, 7.0, 7.0, 7.0]), Some(0.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.95), None, "199 samples: 9 beyond");
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.95), Some(190.0));
        assert_eq!(tail_percentile(&v, 0.99), None, "p99 needs 1000 samples");
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.90), Some(90.0));
        assert_eq!(tail_percentile(&v, 0.95), None);
    }
}
