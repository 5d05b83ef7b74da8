//! `Percentiles` answers quantiles by selection and `cdf_at` by counting;
//! both must give, bit for bit, what the sort-based definitions give, on
//! samples full of ties and whatever quantiles were read before.

use des::Percentiles;
use proptest::prelude::*;

/// The quantiles the scenarios read, plus both ends.
const QS: [f64; 5] = [0.0, 0.5, 0.95, 0.99, 1.0];

/// A sample from one of four pools: three of them few-valued (heavy ties),
/// one nearly tie-free.
fn sample(pool: u8, x: u32) -> f64 {
    match pool {
        0 => f64::from(x % 3),
        1 => f64::from(x % 17) * 0.5,
        2 => f64::from(x % 1000) / 7.0,
        _ => 1e6 + f64::from(x) * 1e-3,
    }
}

/// Quantile `q` of ascending `sorted`, by the closest-rank interpolation.
fn reference_quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn selection_matches_sorting(
        drawn in prop::collection::vec((0u8..4, any::<u32>()), 1..300),
        extra_q in 0.0f64..1.0,
        order in 0usize..5,
    ) {
        let xs: Vec<f64> = drawn.iter().map(|&(pool, x)| sample(pool, x)).collect();
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);

        let mut p = Percentiles::new();
        for &x in &xs {
            p.push(x);
        }
        // Each query runs on whatever order the previous ones left.
        let qs: Vec<f64> = QS.iter().cycle().skip(order).take(QS.len()).copied()
            .chain([extra_q]).collect();
        for &q in &qs {
            let want = reference_quantile(&sorted, q);
            prop_assert_eq!(p.quantile(q).to_bits(), want.to_bits(), "q = {}", q);
        }
        for &x in xs.iter().chain(&[-1.0, 0.25, 2e6]) {
            let want = sorted.partition_point(|&s| s <= x) as f64 / xs.len() as f64;
            prop_assert_eq!(p.cdf_at(x).to_bits(), want.to_bits(), "cdf at {}", x);
        }

        // `mean` sums in ascending order; quantiles then read the sorted samples.
        let want = sorted.iter().sum::<f64>() / xs.len() as f64;
        prop_assert_eq!(p.mean().to_bits(), want.to_bits());
        for &q in &qs {
            let want = reference_quantile(&sorted, q);
            prop_assert_eq!(p.quantile(q).to_bits(), want.to_bits(), "sorted, q = {}", q);
        }
        for &x in &xs {
            let want = sorted.partition_point(|&s| s <= x) as f64 / xs.len() as f64;
            prop_assert_eq!(p.cdf_at(x).to_bits(), want.to_bits(), "sorted, cdf at {}", x);
        }
    }
}
