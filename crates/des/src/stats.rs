//! Online statistics used by the measurement harnesses: Welford mean/variance
//! and exact percentiles over retained samples.

/// Welford's online mean/variance accumulator.
#[derive(Debug, Clone)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }
    /// Sample variance (n-1 denominator).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
    pub fn min(&self) -> f64 {
        self.min
    }
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Retains all samples for exact quantiles. The experiment scales here are
/// small enough (≤ millions of samples) that exactness beats sketching.
///
/// A quantile is answered by selection and the CDF by counting; only
/// [`mean`](Self::mean) sorts. Each answer is what a full sort would give,
/// bit for bit, whatever order earlier reads left the samples in.
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
}

impl From<Vec<f64>> for Percentiles {
    fn from(samples: Vec<f64>) -> Self {
        Percentiles { samples }
    }
}

/// The total order quantiles rank by; a NaN sample has no rank. Without
/// `#[inline]` the sort calls it out of line and takes about four times as
/// long on 100 000 samples.
#[inline]
fn by_value(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.partial_cmp(b).expect("NaN sample")
}

impl Percentiles {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The samples at ranks `lo` and `hi` (`lo` or `lo + 1`) of the
    /// ascending order: `lo` by selection, `hi` as the minimum of the part
    /// selection left above it.
    fn ranks(&mut self, lo: usize, hi: usize) -> (f64, f64) {
        let (_, &mut at_lo, above) = self.samples.select_nth_unstable_by(lo, by_value);
        let at_hi = if hi == lo {
            at_lo
        } else {
            above
                .iter()
                .copied()
                .min_by(by_value)
                .expect("rank hi exists")
        };
        (at_lo, at_hi)
    }

    /// Quantile `q` in `[0,1]` by linear interpolation between closest ranks.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples.is_empty() {
            return f64::NAN;
        }
        let n = self.samples.len();
        if n == 1 {
            return self.samples[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        let (at_lo, at_hi) = self.ranks(lo, hi);
        at_lo * (1.0 - frac) + at_hi * frac
    }

    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }
    pub fn p95(&mut self) -> f64 {
        self.quantile(0.95)
    }
    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }

    /// Mean of the samples, summed in ascending order (this sorts them), so
    /// it does not depend on push order or on which quantiles came first.
    pub fn mean(&mut self) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        self.samples.sort_unstable_by(by_value);
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Fraction of samples `<= x` (empirical CDF).
    pub fn cdf_at(&self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        let count = self
            .samples
            .iter()
            .filter(|&&s| {
                assert!(!s.is_nan(), "NaN sample");
                s <= x
            })
            .count();
        count as f64 / self.samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.138089935299395).abs() < 1e-9);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn default_is_the_empty_accumulator() {
        let mut s = OnlineStats::default();
        s.push(3.0);
        s.push(5.0);
        assert_eq!(s.min(), 3.0);
        assert_eq!(s.max(), 5.0);
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn percentiles_exact() {
        let mut p = Percentiles::new();
        for i in 1..=100 {
            p.push(i as f64);
        }
        assert!((p.median() - 50.5).abs() < 1e-9);
        assert!((p.quantile(0.0) - 1.0).abs() < 1e-9);
        assert!((p.quantile(1.0) - 100.0).abs() < 1e-9);
        assert!((p.p95() - 95.05).abs() < 1e-9);
        assert!((p.cdf_at(10.0) - 0.10).abs() < 1e-9);
    }

    #[test]
    fn percentiles_single_sample() {
        let mut p = Percentiles::new();
        p.push(3.0);
        assert_eq!(p.median(), 3.0);
        assert_eq!(p.p99(), 3.0);
    }

    /// Selection takes the minimum and maximum ranks by another path than
    /// the inner ones, and the CDF counts without comparing samples; on
    /// each, a NaN anywhere must still refuse an answer.
    #[test]
    fn a_nan_sample_has_no_rank() {
        type Read = fn(&mut Percentiles) -> f64;
        let reads: [(&str, Read); 5] = [
            ("q = 0", |p| p.quantile(0.0)),
            ("q = 0.5", |p| p.quantile(0.5)),
            ("q = 1", |p| p.quantile(1.0)),
            ("mean", |p| p.mean()),
            ("cdf_at", |p| p.cdf_at(2.0)),
        ];
        for at in 0..5 {
            for (what, read) in reads {
                let mut p = Percentiles::new();
                for i in 0..5 {
                    p.push(if i == at { f64::NAN } else { i as f64 });
                }
                let err = std::panic::catch_unwind(move || read(&mut p))
                    .expect_err("a NaN sample must panic");
                let msg = err
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| err.downcast_ref::<&str>().copied())
                    .unwrap_or("");
                assert!(msg.contains("NaN sample"), "NaN at {at}, {what}: {msg:?}");
            }
        }
    }
}
