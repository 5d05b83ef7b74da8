//! Deterministic, named RNG streams.
//!
//! Components derive independent streams from `(root_seed, name)` via a
//! SplitMix64-based hash, so adding a new random component never perturbs the
//! draw sequence of existing ones — essential for reproducible experiments
//! whose components evolve over time.
//!
//! The generator is ChaCha with 8 rounds, keyed from the stream's seed by
//! SplitMix64. Every golden artifact and the result cache's salt pin the
//! exact words it draws and the exact arithmetic each sampler applies to
//! them, so both live here rather than behind a swappable dependency: a
//! change to either moves the goldens (see `known_answer_vector` and
//! `known_answers_for_every_sampler` below).

use crate::stats::Percentiles;
use std::ops::Range;

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 step — used only for seeding, not for sampling.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN_GAMMA);
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

const WORDS_PER_BLOCK: usize = 16;

/// ChaCha with 8 rounds over a 64-bit block counter, read one 32-bit word
/// at a time.
#[derive(Debug, Clone)]
struct ChaCha8 {
    key: [u32; 8],
    counter: u64,
    buf: [u32; WORDS_PER_BLOCK],
    /// Next unread word in `buf`; `WORDS_PER_BLOCK` means exhausted.
    idx: usize,
}

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha8 {
    /// Key word pair `i` is the `i`-th SplitMix64 word after `seed`
    /// (`splitmix64(seed + i·γ)`), low half first.
    fn from_seed(seed: u64) -> Self {
        let mut key = [0u32; 8];
        for (i, pair) in key.chunks_exact_mut(2).enumerate() {
            let w = splitmix64(seed.wrapping_add((i as u64).wrapping_mul(GOLDEN_GAMMA)));
            pair[0] = w as u32;
            pair[1] = (w >> 32) as u32;
        }
        ChaCha8 {
            key,
            counter: 0,
            buf: [0; WORDS_PER_BLOCK],
            idx: WORDS_PER_BLOCK,
        }
    }

    fn refill(&mut self) {
        let mut state: [u32; 16] = [
            // "expand 32-byte k"
            0x6170_7865,
            0x3320_646e,
            0x7962_2d32,
            0x6b20_6574,
            self.key[0],
            self.key[1],
            self.key[2],
            self.key[3],
            self.key[4],
            self.key[5],
            self.key[6],
            self.key[7],
            self.counter as u32,
            (self.counter >> 32) as u32,
            0,
            0,
        ];
        let input = state;
        // ChaCha8: 8 rounds = 4 double rounds (column + diagonal).
        for _ in 0..4 {
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (out, (s, i)) in self.buf.iter_mut().zip(state.iter().zip(input.iter())) {
            *out = s.wrapping_add(*i);
        }
        self.counter = self.counter.wrapping_add(1);
        self.idx = 0;
    }

    fn next_u32(&mut self) -> u32 {
        if self.idx >= WORDS_PER_BLOCK {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }

    /// The next two words, low first. With both in the current block this
    /// is one bounds check; across a block boundary, two `next_u32`s.
    fn next_u64(&mut self) -> u64 {
        if let Some(&[lo, hi]) = self.buf.get(self.idx..self.idx + 2) {
            self.idx += 2;
            return lo as u64 | (hi as u64) << 32;
        }
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }
}

/// A seedable random stream with convenience samplers for the distributions
/// the simulation substrates need (uniform, exponential, log-normal, normal,
/// Zipf-like discrete weights).
#[derive(Debug, Clone)]
pub struct RngStream {
    rng: ChaCha8,
}

impl RngStream {
    /// Derive the stream for `(root_seed, name)`.
    pub fn derive(root: u64, name: &str) -> Self {
        Self::from_seed(derive_seed(root, name))
    }

    /// Raw stream from an explicit seed.
    pub fn from_seed(seed: u64) -> Self {
        RngStream {
            rng: ChaCha8::from_seed(seed),
        }
    }

    #[inline]
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform in `[0, 1)`: the top 53 bits of one word.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[start, end)` from one word. A sum that rounds up to
    /// `end` (possible only for tiny spans) returns `start` instead.
    /// Panics on an empty or NaN range.
    #[inline]
    pub fn range(&mut self, r: Range<f64>) -> f64 {
        assert!(!r.is_empty(), "cannot sample empty range");
        let v = r.start + (r.end - r.start) * self.f64();
        if v >= r.end {
            r.start
        } else {
            v
        }
    }

    /// Uniform in `[start, end)` from one word: the high word of
    /// `draw · span` (bias below 2^-64). Panics on an empty range.
    #[inline]
    pub fn u64_range(&mut self, r: Range<u64>) -> u64 {
        assert!(!r.is_empty(), "cannot sample empty range");
        let span = r.end - r.start;
        r.start + ((self.u64() as u128 * span as u128) >> 64) as u64
    }

    /// Bernoulli trial from one word. `p` outside `[0, 1]` acts as the
    /// nearer bound (never below 0, always above 1); a NaN `p` panics.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        assert!(!p.is_nan(), "chance needs a probability, got NaN");
        self.f64() < p
    }

    /// Exponential with the given mean (inter-arrival times).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = self.range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = self.range(f64::MIN_POSITIVE..1.0);
        let u2 = self.f64();
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

    /// `n` noisy measurements of `base`: each is `base` times the
    /// multiplicative [`jitter`](Self::jitter) `(1 + rel_std·z).max(0.05)`,
    /// plus, with probability `straggler_p`, an
    /// [`exponential`](Self::exponential) straggler of mean `0.8·base` (a
    /// preempted or descheduled run that fattens the tail).
    ///
    /// One Box–Muller pair `(u1, u2)` gives the normals `z` of two
    /// consecutive samples, `r·cos` then `r·sin`. Stragglers are placed by
    /// Geometric(`straggler_p`) gaps, `⌊ln U / ln(1 − p)⌋` non-stragglers
    /// apart, which is the law of independent per-sample coins: one word
    /// per gap and one per straggler's exponential. `p ≤ 0` draws no gap and
    /// `p ≥ 1` makes every sample a straggler, also without a gap word; a
    /// NaN `p` panics. The words are drawn in sample order (the first gap,
    /// then each pair before its two samples, and each straggler's
    /// exponential and next gap after its jitter), so the first `k` samples
    /// of an `n`-sample draw are the `k`-sample draw.
    pub fn noisy_samples(
        &mut self,
        base: f64,
        rel_std: f64,
        straggler_p: f64,
        n: usize,
    ) -> Percentiles {
        assert!(
            !straggler_p.is_nan(),
            "noisy_samples needs a straggler probability, got NaN"
        );
        let mut samples = Vec::with_capacity(n);
        if n == 0 {
            return Percentiles::from(samples);
        }
        let mut next_straggler = self.straggler_gap(straggler_p);
        let mut z = [0.0; 2];
        for i in 0..n {
            let half = i % 2;
            if half == 0 {
                z = self.normal_pair();
            }
            let mut t = base * (1.0 + rel_std * z[half]).max(0.05);
            if i == next_straggler {
                t += self.exponential(base * 0.8);
                next_straggler = (i + 1).saturating_add(self.straggler_gap(straggler_p));
            }
            samples.push(t);
        }
        Percentiles::from(samples)
    }

    /// Both standard normals of one Box–Muller pair; the first is the one
    /// [`normal`](Self::normal) would return from the same two words.
    fn normal_pair(&mut self) -> [f64; 2] {
        let u1 = self.range(f64::MIN_POSITIVE..1.0);
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let (sin, cos) = (2.0 * std::f64::consts::PI * u2).sin_cos();
        [r * cos, r * sin]
    }

    /// Non-stragglers before the next straggler, Geometric(`p`), from one
    /// word (none for `p ≤ 0`, which never straggles, or `p ≥ 1`, which
    /// always does).
    fn straggler_gap(&mut self, p: f64) -> usize {
        if p <= 0.0 {
            usize::MAX
        } else if p >= 1.0 {
            0
        } else {
            (self.range(f64::MIN_POSITIVE..1.0).ln() / (-p).ln_1p()) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_vector() {
        // Every golden artifact depends on these exact words.
        let mut rng = RngStream::from_seed(42);
        let first: Vec<u64> = (0..8).map(|_| rng.u64()).collect();
        assert_eq!(
            first,
            [
                0x31159ef987c91afc,
                0x17559844b4169001,
                0xf7d0afbf9ad9a69f,
                0xb9207ad5fd37495a,
                0x072db0db61329c11,
                0x4051bc3beca26593,
                0xbfaab970cc4703b6,
                0xaff5425d8f89d223,
            ]
        );
    }

    #[test]
    fn known_answers_for_every_sampler() {
        // The first draws of each sampler on one named stream: the words
        // above are not enough, the goldens also pin each formula.
        let mut r = RngStream::derive(42, "kat");
        assert_eq!(
            [r.f64(), r.f64(), r.f64()],
            [0.45555834572131715, 0.8459843401311199, 0.3889071391690888]
        );
        assert_eq!(
            [
                r.range(-2.0..3.0),
                r.range(1e-9..2e-9),
                r.range(f64::MIN_POSITIVE..1.0)
            ],
            [1.155642432780808, 1.8803864739300407e-9, 0.6139394734101231]
        );
        assert_eq!(
            [
                r.u64_range(10..1000),
                r.u64_range(0..u64::MAX),
                r.u64_range(7..8)
            ],
            [576, 7345428091822258061, 7]
        );
        let coins: Vec<bool> = (0..8).map(|_| r.chance(0.3)).collect();
        assert_eq!(
            coins,
            [true, false, false, false, false, false, false, false]
        );
        assert_eq!(
            [r.exponential(5.0), r.exponential(0.25)],
            [2.416069656710281, 0.1908455587126811]
        );
        assert_eq!(
            [r.normal(10.0, 2.0), r.normal(0.0, 1.0)],
            [8.825269231155351, 2.6154544957706554]
        );
        // Five samples (three pairs, the last half used), one of them a
        // straggler; these quantiles are the draw in ascending order.
        let mut noisy = r.noisy_samples(10.0, 0.1, 0.3, 5);
        assert_eq!(
            [0.0, 0.25, 0.5, 0.75, 1.0].map(|q| noisy.quantile(q)),
            [
                8.433456349082766,
                9.405059795741181,
                10.40266877438021,
                11.533157327533383,
                22.508868774786777
            ]
        );
    }

    #[test]
    fn next_u64_is_two_next_u32s_from_every_word_offset() {
        // Start at each of the 16 word offsets (and 16, 17: one block in),
        // then draw 64 u64s — 128 words, so at least 7 block boundaries,
        // each crossed in phase and out of phase with the u64 pairs.
        for offset in 0..=17 {
            let mut rng = ChaCha8::from_seed(7);
            for _ in 0..offset {
                rng.next_u32();
            }
            let mut words = rng.clone();
            for i in 0..64 {
                let lo = words.next_u32() as u64;
                let hi = words.next_u32() as u64;
                assert_eq!(rng.next_u64(), lo | hi << 32, "offset {offset}, draw {i}");
            }
        }
    }

    #[test]
    fn clone_preserves_stream_position() {
        let mut a = ChaCha8::from_seed(9);
        for _ in 0..37 {
            a.next_u32();
        }
        let mut b = a.clone();
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn output_is_well_distributed() {
        // Crude equidistribution check: mean of 64k unit floats near 0.5.
        let mut rng = RngStream::from_seed(1234);
        let n = 1 << 16;
        let mean = (0..n).map(|_| rng.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = RngStream::from_seed(1);
        assert!(!(0..1000).any(|_| r.chance(0.0)));
        assert!((0..1000).all(|_| r.chance(1.0)));
    }

    #[test]
    #[should_panic(expected = "got NaN")]
    fn chance_rejects_nan() {
        RngStream::from_seed(1).chance(f64::NAN);
    }

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
}
