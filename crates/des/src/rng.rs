//! Deterministic, named RNG streams.
//!
//! Components derive independent streams from `(root_seed, name)` via a
//! SplitMix64-based hash, so adding a new random component never perturbs the
//! draw sequence of existing ones — essential for reproducible experiments
//! whose components evolve over time.

use rand::distributions::uniform::{SampleRange, SampleUniform};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// SplitMix64 step — used only for seed derivation, not for sampling.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn derive_seed(root: u64, name: &str) -> u64 {
    let mut h = splitmix64(root);
    for b in name.as_bytes() {
        h = splitmix64(h ^ u64::from(*b));
    }
    h
}

/// A seedable random stream with convenience samplers for the distributions
/// the simulation substrates need (uniform, exponential, log-normal, normal,
/// Zipf-like discrete weights).
#[derive(Debug, Clone)]
pub struct RngStream {
    rng: ChaCha8Rng,
}

impl RngStream {
    /// Derive the stream for `(root_seed, name)`.
    pub fn derive(root: u64, name: &str) -> Self {
        RngStream {
            rng: ChaCha8Rng::seed_from_u64(derive_seed(root, name)),
        }
    }

    /// Raw stream from an explicit seed.
    pub fn from_seed(seed: u64) -> Self {
        RngStream {
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    #[inline]
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform sample from a range (integer or float).
    #[inline]
    pub fn range<T: SampleUniform, R: SampleRange<T>>(&mut self, r: R) -> T {
        self.rng.gen_range(r)
    }

    #[inline]
    pub fn u64_range(&mut self, r: std::ops::Range<u64>) -> u64 {
        self.rng.gen_range(r)
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Bernoulli trial.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p.clamp(0.0, 1.0))
    }

    /// Exponential with the given mean (inter-arrival times).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Log-normal parameterised by the mean/std of the *underlying* normal.
    /// Job durations and sizes in HPC traces are classically log-normal.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Sample an index according to (unnormalised) weights. The weights
    /// are read twice, summed and then walked, in the same order both
    /// times, so any iterator over the same values draws the same index.
    /// Rounding that walks past the last weight picks the last index.
    /// Panics if there are no weights.
    pub fn weighted_index<I>(&mut self, weights: I) -> usize
    where
        I: IntoIterator<Item = f64>,
        I::IntoIter: Clone,
    {
        let weights = weights.into_iter();
        assert!(
            weights.clone().next().is_some(),
            "weighted_index needs at least one weight"
        );
        let total: f64 = weights.clone().sum();
        let mut x = self.f64() * total;
        let mut last = 0;
        for (i, w) in weights.enumerate() {
            if x < w {
                return i;
            }
            x -= w;
            last = i;
        }
        last
    }

    /// Multiplicative jitter: `1 + normal(0, rel_std)`, clamped to stay
    /// positive. Used to model run-to-run measurement noise.
    pub fn jitter(&mut self, rel_std: f64) -> f64 {
        (1.0 + self.normal(0.0, rel_std)).max(0.05)
    }

    /// A noisy measurement of `base`: multiplicative [`jitter`](Self::jitter)
    /// plus, with probability `straggler_p`, an [`exponential`](Self::exponential)
    /// straggler of mean `0.8·base` (a preempted or descheduled run that
    /// fattens the tail). Draws two words for the jitter, one for the
    /// chance and one more only on a straggler.
    pub fn noisy(&mut self, base: f64, rel_std: f64, straggler_p: f64) -> f64 {
        let mut t = base * self.jitter(rel_std);
        if self.chance(straggler_p) {
            t += self.exponential(base * 0.8);
        }
        t
    }

    /// Advance the stream exactly as [`noisy`](Self::noisy) with the same
    /// `straggler_p` would, without computing the sample: the same words
    /// are drawn, no `ln`/`sqrt`/`cos` is evaluated. A change to how many
    /// words `normal`, `exponential` or `chance` draw must change this too.
    pub fn skip_noisy(&mut self, straggler_p: f64) {
        self.u64();
        self.u64();
        if self.chance(straggler_p) {
            self.u64();
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_stream() {
        let mut a = RngStream::derive(7, "fabric");
        let mut b = RngStream::derive(7, "fabric");
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn different_names_diverge() {
        let mut a = RngStream::derive(7, "fabric");
        let mut b = RngStream::derive(7, "cluster");
        let same = (0..100).filter(|_| a.u64() == b.u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn different_roots_diverge() {
        let mut a = RngStream::derive(7, "fabric");
        let mut b = RngStream::derive(8, "fabric");
        assert_ne!(a.u64(), b.u64());
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = RngStream::derive(1, "exp");
        let n = 20_000;
        let mean = (0..n).map(|_| r.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean={mean}");
    }

    #[test]
    fn normal_moments_converge() {
        let mut r = RngStream::derive(1, "norm");
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.2, "var={var}");
    }

    #[test]
    fn weighted_index_prefers_heavy() {
        let mut r = RngStream::derive(1, "w");
        let weights = [1.0, 0.0, 9.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[r.weighted_index(weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > 8 * counts[0] / 2, "counts={counts:?}");
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn weighted_index_rejects_an_empty_weight_list() {
        RngStream::derive(1, "w").weighted_index(std::iter::empty());
    }

    #[test]
    fn jitter_stays_positive() {
        let mut r = RngStream::derive(1, "j");
        for _ in 0..10_000 {
            let j = r.jitter(0.5);
            assert!(j > 0.0);
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = RngStream::derive(1, "s");
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
