//! Offline stand-in for the `rand` crate.
//!
//! Provides the trait stack and uniform-sampling machinery the workspace
//! uses: [`RngCore`], [`SeedableRng`], the extension trait [`Rng`] with
//! `gen`/`gen_range`/`gen_bool`, and `distributions::uniform::{SampleUniform,
//! SampleRange}` for integer and `f64` ranges. Sampling uses widening
//! multiplication for integers (bias < 2^-64, irrelevant for simulation) and
//! 53-bit mantissa scaling for floats, matching the real crate's guarantees
//! of half-open `[low, high)` ranges.

/// Core random number generation: a source of raw bits.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
}

/// SplitMix64 — used to expand a `u64` seed into a full seed buffer.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An RNG constructible from a fixed-size seed.
pub trait SeedableRng: Sized {
    type Seed: Sized + Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// Expand a `u64` into a full seed via SplitMix64 (same scheme as the
    /// real crate: little-endian words of successive SplitMix64 outputs).
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut s = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            let w = splitmix64(&mut s).to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&w[..n]);
        }
        Self::from_seed(seed)
    }
}

pub mod distributions {
    pub mod uniform {
        use super::super::RngCore;
        use std::ops::{Range, RangeInclusive};

        /// Types that can be sampled uniformly from a range.
        pub trait SampleUniform: Sized + Copy + PartialOrd {
            /// Uniform sample from `[low, high)` (`high` included when
            /// `inclusive`). Callers guarantee the range is non-empty.
            fn sample_uniform<R: RngCore + ?Sized>(
                rng: &mut R,
                low: Self,
                high: Self,
                inclusive: bool,
            ) -> Self;
        }

        macro_rules! impl_uniform_int {
            ($($ty:ty => $unsigned:ty),* $(,)?) => {$(
                impl SampleUniform for $ty {
                    fn sample_uniform<R: RngCore + ?Sized>(
                        rng: &mut R,
                        low: Self,
                        high: Self,
                        inclusive: bool,
                    ) -> Self {
                        // Span as the unsigned twin; 0 encodes "full range"
                        // for `low..=MAX` style inclusive ranges.
                        let span = (high as $unsigned).wrapping_sub(low as $unsigned) as u64;
                        let span = if inclusive { span.wrapping_add(1) } else { span };
                        let draw = rng.next_u64();
                        let offset = if span == 0 {
                            draw // full 64-bit (or wrapped) range
                        } else {
                            ((draw as u128 * span as u128) >> 64) as u64
                        };
                        low.wrapping_add(offset as $ty)
                    }
                }
            )*};
        }

        impl_uniform_int!(
            u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
            i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize,
        );

        impl SampleUniform for f64 {
            fn sample_uniform<R: RngCore + ?Sized>(
                rng: &mut R,
                low: Self,
                high: Self,
                _inclusive: bool,
            ) -> Self {
                // 53-bit mantissa scaling: unit uniform in [0, 1).
                let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                let v = low + (high - low) * unit;
                // Guard against rounding up to `high` for tiny spans.
                if v >= high {
                    low
                } else {
                    v
                }
            }
        }

        /// Range types usable with `Rng::gen_range`.
        pub trait SampleRange<T> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
        }

        // `is_empty` below is std's: incomparable (NaN) endpoints count as
        // empty.
        impl<T: SampleUniform> SampleRange<T> for Range<T> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
                assert!(!self.is_empty(), "cannot sample empty range");
                T::sample_uniform(rng, self.start, self.end, false)
            }
        }

        impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
                assert!(!self.is_empty(), "cannot sample empty range");
                T::sample_uniform(rng, *self.start(), *self.end(), true)
            }
        }
    }
}

use distributions::uniform::{SampleRange, SampleUniform};

/// Values generable from raw random bits (the real crate's `Standard`
/// distribution, folded into a trait for the handful of types used here).
pub trait StandardSample: Sized {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for bool {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardSample for f64 {
    /// Uniform in `[0, 1)`.
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Extension methods over any [`RngCore`].
pub trait Rng: RngCore {
    fn gen<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::standard_sample(self)
    }

    fn gen_range<T: SampleUniform, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "p={p} out of range");
        f64::standard_sample(self) < p
    }
}

impl<R: RngCore> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);
    impl RngCore for Counter {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            let mut s = self.0;
            self.0 = self.0.wrapping_add(1);
            splitmix64(&mut s)
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = Counter(0);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let f = rng.gen_range(-2.0f64..3.0);
            assert!((-2.0..3.0).contains(&f));
            let i = rng.gen_range(-50i64..=50);
            assert!((-50..=50).contains(&i));
            let u = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn single_value_inclusive_range() {
        let mut rng = Counter(7);
        for _ in 0..100 {
            assert_eq!(rng.gen_range(5usize..=5), 5);
            assert_eq!(rng.gen_range(3u64..4), 3);
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Counter(1);
        assert!(!(0..1000).any(|_| rng.gen_bool(0.0)));
        assert!((0..1000).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn full_range_i64_does_not_panic() {
        let mut rng = Counter(2);
        let mut seen_neg = false;
        for _ in 0..1000 {
            if rng.gen_range(i64::MIN..=i64::MAX) < 0 {
                seen_neg = true;
            }
        }
        assert!(seen_neg);
    }
}
