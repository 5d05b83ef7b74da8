//! Online statistics used by the measurement harnesses: Welford mean/variance,
//! exact percentiles over retained samples, fixed-bin histograms, and
//! time-weighted averages for utilisation metrics.

use crate::time::SimTime;

/// Welford's online mean/variance accumulator.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
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

/// Fixed-width-bin histogram over `[lo, hi)` with overflow/underflow bins.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(hi > lo && nbins > 0);
        Histogram {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }
    pub fn underflow(&self) -> u64 {
        self.underflow
    }
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Midpoint of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + w * (i as f64 + 0.5)
    }

    /// Fraction of all pushed samples with value `< x` (includes underflow,
    /// treats bin contents as concentrated at the bin's lower edge).
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let mut below = self.underflow;
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        for (i, b) in self.bins.iter().enumerate() {
            let edge = self.lo + w * i as f64;
            if edge + w <= x {
                below += b;
            }
        }
        below as f64 / self.count as f64
    }
}

/// Time-weighted average of a step function (e.g. "idle cores over time").
/// Push `(time, new_value)` transitions; query the average over the observed
/// window.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_t: Option<SimTime>,
    last_v: f64,
    weighted_sum: f64,
    total: f64,
    start: Option<SimTime>,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    pub fn new() -> Self {
        TimeWeighted {
            last_t: None,
            last_v: 0.0,
            weighted_sum: 0.0,
            total: 0.0,
            start: None,
        }
    }

    /// Record that the tracked value becomes `v` at time `t`.
    pub fn set(&mut self, t: SimTime, v: f64) {
        if let Some(prev) = self.last_t {
            assert!(t >= prev, "TimeWeighted updates must be monotone");
            let dt = (t - prev).as_secs_f64();
            self.weighted_sum += self.last_v * dt;
            self.total += dt;
        } else {
            self.start = Some(t);
        }
        self.last_t = Some(t);
        self.last_v = v;
    }

    /// Close the window at `t` and return the time-weighted mean.
    pub fn mean_until(&mut self, t: SimTime) -> f64 {
        let v = self.last_v;
        self.set(t, v);
        if self.total == 0.0 {
            f64::NAN
        } else {
            self.weighted_sum / self.total
        }
    }

    pub fn current(&self) -> f64 {
        self.last_v
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

    #[test]
    fn histogram_bins_and_cdf() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        h.push(-1.0);
        h.push(42.0);
        assert_eq!(h.count(), 12);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert!(h.bins().iter().all(|&b| b == 1));
        // 5 full bins below 5.0 plus the underflow = 6/12.
        assert!((h.fraction_below(5.0) - 0.5).abs() < 1e-9);
        assert!((h.bin_center(0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_step_function() {
        let mut tw = TimeWeighted::new();
        tw.set(SimTime::from_secs(0), 1.0);
        tw.set(SimTime::from_secs(10), 3.0); // 1.0 held for 10s
        let m = tw.mean_until(SimTime::from_secs(20)); // 3.0 held for 10s
        assert!((m - 2.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_empty_is_nan() {
        let mut tw = TimeWeighted::new();
        assert!(tw.mean_until(SimTime::from_secs(1)).is_nan());
    }
}
