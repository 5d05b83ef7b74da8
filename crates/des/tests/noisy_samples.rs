//! `RngStream::noisy_samples`: its straggler count follows the Bernoulli
//! law it replaces, its jitter has the requested moments, and the first `k`
//! samples of an `n`-sample draw are the `k`-sample draw.

use des::{Percentiles, RngStream};
use proptest::prelude::*;
use std::f64::consts::PI;

/// Stragglers in `draw` when `rel_std = 0`: every other sample is exactly
/// `base`, and a straggler adds a positive exponential to it.
fn stragglers(draw: &Percentiles, base: f64) -> usize {
    let at_base = (draw.cdf_at(base) * draw.len() as f64).round() as usize;
    draw.len() - at_base
}

#[test]
fn straggler_count_follows_the_bernoulli_law() {
    let n = 200_000;
    for (seed, p) in [(1, 0.01), (2, 0.06), (3, 0.5)] {
        let draw = RngStream::from_seed(seed).noisy_samples(3.0, 0.0, p, n);
        let expected = n as f64 * p;
        let sigma = (expected * (1.0 - p)).sqrt();
        let count = stragglers(&draw, 3.0) as f64;
        assert!(
            (count - expected).abs() <= 4.0 * sigma,
            "p = {p}: {count} stragglers, expected {expected} ± 4·{sigma:.1}"
        );
    }
}

#[test]
fn straggler_probability_zero_and_one_are_exact() {
    let n = 10_001;
    for p in [0.0, -0.5] {
        let draw = RngStream::from_seed(4).noisy_samples(3.0, 0.0, p, n);
        assert_eq!(stragglers(&draw, 3.0), 0, "p = {p}");
    }
    for p in [1.0, 1.5] {
        let draw = RngStream::from_seed(5).noisy_samples(3.0, 0.0, p, n);
        assert_eq!(stragglers(&draw, 3.0), n, "p = {p}");
    }
}

#[test]
#[should_panic(expected = "got NaN")]
fn a_nan_straggler_probability_panics() {
    RngStream::from_seed(1).noisy_samples(1.0, 0.1, f64::NAN, 4);
}

#[test]
fn jitter_has_the_requested_moments() {
    let n = 200_000;
    for (seed, rel_std) in [(6, 0.03), (7, 0.1)] {
        let mut draw = RngStream::from_seed(seed).noisy_samples(1.0, rel_std, 0.0, n);
        let mean = draw.mean();
        // The normal's ±1σ quantiles, so the clamp at 0.05 (more than 9σ
        // away here) cannot bias the estimate.
        let std = (draw.quantile(0.841_344_746) - draw.quantile(0.158_655_254)) / 2.0;
        let se = rel_std / (n as f64).sqrt();
        assert!(
            (mean - 1.0).abs() < 4.0 * se,
            "rel_std {rel_std}: mean {mean}"
        );
        assert!(
            (std / rel_std - 1.0).abs() < 0.02,
            "rel_std {rel_std}: std {std}"
        );
    }
}

#[test]
fn an_empty_draw_is_empty_and_draws_nothing() {
    let mut rng = RngStream::from_seed(8);
    let mut fresh = rng.clone();
    let mut draw = rng.noisy_samples(1.0, 0.1, 0.5, 0);
    assert!(draw.is_empty());
    assert!(draw.median().is_nan());
    assert_eq!(rng.u64(), fresh.u64());
}

/// The draw as `noisy_samples` documents it, one sample at a time from
/// `RngStream`'s public samplers. An iterator cannot know how many samples
/// will follow, so its first `k` are the same whatever `n` is taken.
struct Reference {
    rng: RngStream,
    base: f64,
    rel_std: f64,
    p: f64,
    i: usize,
    next_straggler: usize,
    z: [f64; 2],
}

impl Reference {
    fn new(rng: RngStream, base: f64, rel_std: f64, p: f64) -> Self {
        Reference {
            rng,
            base,
            rel_std,
            p,
            i: 0,
            next_straggler: 0,
            z: [0.0; 2],
        }
    }

    fn gap(&mut self) -> usize {
        if self.p <= 0.0 {
            usize::MAX
        } else if self.p >= 1.0 {
            0
        } else {
            let u = self.rng.range(f64::MIN_POSITIVE..1.0);
            (u.ln() / (1.0 - self.p).ln()).floor() as usize
        }
    }
}

impl Iterator for Reference {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        if self.i == 0 {
            self.next_straggler = self.gap();
        }
        let half = self.i % 2;
        if half == 0 {
            let u1 = self.rng.range(f64::MIN_POSITIVE..1.0);
            let u2 = self.rng.f64();
            let r = (-2.0 * u1.ln()).sqrt();
            let angle = 2.0 * PI * u2;
            self.z = [r * angle.cos(), r * angle.sin()];
        }
        let mut t = self.base * (1.0 + self.rel_std * self.z[half]).max(0.05);
        if self.i == self.next_straggler {
            t += self.rng.exponential(self.base * 0.8);
            self.next_straggler = (self.i + 1).saturating_add(self.gap());
        }
        self.i += 1;
        Some(t)
    }
}

/// Quantiles at every rank `i / (len − 1)`, which pin each order statistic
/// of the samples.
fn rank_quantiles(mut p: Percentiles) -> Vec<u64> {
    let n = p.len();
    match n {
        0 => Vec::new(),
        1 => vec![p.median().to_bits()],
        _ => (0..n)
            .map(|i| p.quantile(i as f64 / (n - 1) as f64).to_bits())
            .collect(),
    }
}

const STRAGGLER_PS: [f64; 6] = [0.0, 0.01, 0.06, 0.3, 0.9, 1.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Draws of `k` (even and odd) and `n` samples each equal that many
    /// samples of the one reference sequence, so each is a prefix of the
    /// longer draws.
    #[test]
    fn a_shorter_draw_is_a_prefix_of_a_longer_one(
        seed in any::<u64>(),
        n in 0usize..160,
        k in 0usize..160,
        p_at in 0usize..6,
        rel_std in 0.0f64..0.6,
        base in 0.5f64..50.0,
    ) {
        let p = STRAGGLER_PS[p_at];
        let k = k.min(n);
        for m in [k & !1, (k | 1).min(n), n] {
            let draw = RngStream::from_seed(seed).noisy_samples(base, rel_std, p, m);
            prop_assert_eq!(draw.len(), m);
            let reference = Reference::new(RngStream::from_seed(seed), base, rel_std, p);
            let want = Percentiles::from(reference.take(m).collect::<Vec<_>>());
            prop_assert_eq!(rank_quantiles(draw), rank_quantiles(want), "m = {}, p = {}", m, p);
        }
    }
}
