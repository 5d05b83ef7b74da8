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

    /// Merge another accumulator (Chan et al. parallel combination).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Retains all samples for exact quantiles. The experiment scales here are
/// small enough (≤ millions of samples) that exactness beats sketching.
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    pub fn new() -> Self {
        Percentiles {
            samples: Vec::new(),
            sorted: true,
        }
    }

    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
    }

    /// Quantile `q` in `[0,1]` by linear interpolation between closest ranks.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples.is_empty() {
            return f64::NAN;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        if n == 1 {
            return self.samples[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac
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
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            f64::NAN
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Fraction of samples `<= x` (empirical CDF).
    pub fn cdf_at(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        self.ensure_sorted();
        let count = self.samples.partition_point(|&s| s <= x);
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
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.count(), all.count());
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
}
