//! Offline stand-in for the `proptest` crate.
//!
//! Re-implements the subset this workspace's property tests use: the
//! [`proptest!`] macro, range/tuple/`vec`/`any` strategies, `prop_map`, and
//! `prop_assert!`/`prop_assert_eq!`. Inputs are drawn from a
//! [`des::RngStream`] seeded from the test's name, so runs are fully
//! deterministic (no persistence files; `PROPTEST_CASES` is the one
//! environment override). Shrinking is not implemented — a failure reports
//! the case number and, since the seed is fixed, replays identically under a
//! debugger.

pub mod test_runner {
    use des::RngStream;

    /// Runner configuration. Only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic input source for one property test.
    #[derive(Debug, Clone)]
    pub struct TestRng(pub(crate) RngStream);

    impl TestRng {
        /// Seed from the test's name so every test owns an independent,
        /// stable stream.
        pub fn deterministic(test_name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng(RngStream::from_seed(h))
        }
    }

    /// A failed property assertion (carries the formatted message).
    #[derive(Debug, Clone)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Drive one property: sample inputs, run the check, panic on failure.
    ///
    /// Taking both closures as arguments of one generic call lets the check
    /// closure's parameter types flow in from the sampler's return type —
    /// a stored `let check = |args| ...;` closure would demand annotations.
    pub fn run_cases<A, S, F>(config: &ProptestConfig, name: &str, mut sample: S, mut check: F)
    where
        S: FnMut(&mut TestRng) -> A,
        F: FnMut(A) -> Result<(), TestCaseError>,
    {
        // Like upstream proptest, a PROPTEST_CASES environment variable
        // overrides the configured case count, e.g. to run the properties
        // deeper than their defaults.
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(config.cases);
        let mut rng = TestRng::deterministic(name);
        for case in 0..cases {
            let args = sample(&mut rng);
            if let Err(e) = check(args) {
                panic!("property `{name}` failed at case {}/{cases}: {e}", case + 1);
            }
        }
    }
}

pub mod strategy {
    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        type Value;

        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `low` plus a uniform offset below `span` (`1..=2^64`) from one
    /// word: the draw itself for a 2^64 span, otherwise the high word of
    /// `draw · span`.
    fn int_in(rng: &mut TestRng, low: i128, span: i128) -> i128 {
        let draw = rng.0.u64();
        let offset = if span == 1 << 64 {
            draw
        } else {
            ((draw as u128 * span as u128) >> 64) as u64
        };
        low + offset as i128
    }

    macro_rules! impl_int_range_strategy {
        ($($ty:ty),*) => {$(
            impl Strategy for Range<$ty> {
                type Value = $ty;
                fn sample(&self, rng: &mut TestRng) -> $ty {
                    assert!(!self.is_empty(), "cannot sample empty range");
                    let low = self.start as i128;
                    int_in(rng, low, self.end as i128 - low) as $ty
                }
            }
            impl Strategy for RangeInclusive<$ty> {
                type Value = $ty;
                fn sample(&self, rng: &mut TestRng) -> $ty {
                    assert!(!self.is_empty(), "cannot sample empty range");
                    let low = *self.start() as i128;
                    int_in(rng, low, *self.end() as i128 - low + 1) as $ty
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            rng.0.range(self.clone())
        }
    }

    /// Same draw as the half-open range; `x..=x` spends its word and
    /// yields `x`.
    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(!self.is_empty(), "cannot sample empty range");
            let (low, high) = (*self.start(), *self.end());
            if low < high {
                rng.0.range(low..high)
            } else {
                rng.0.u64();
                low
            }
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+))*) => {$(
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
        (A, B, C, D, E, F, G)
        (A, B, C, D, E, F, G, H)
    }
}

pub mod arbitrary {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($ty:ty),*) => {$(
            impl Arbitrary for $ty {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    (<$ty>::MIN..=<$ty>::MAX).sample(rng)
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.0.u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        /// Finite values only (uniform in a wide range), matching how the
        /// workspace's tests use `any::<f64>()`-style inputs arithmetically.
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.0.range(-1e12..1e12)
        }
    }

    /// Strategy for the full domain of `T`.
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// `any::<T>()` — the canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::Range;

    /// Acceptable length specifications for [`vec`].
    pub trait SizeRange {
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            self.sample(rng)
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            self.sample(rng)
        }
    }

    /// Strategy generating `Vec`s whose length is drawn from `size`.
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.sample_len(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `prop::collection::vec(element, size)`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// Namespace alias matching `proptest::prelude::prop::*`.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Fail the current test case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Fail the current test case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} == {:?}: {}", l, r, format!($($fmt)*));
    }};
}

/// Fail the current test case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} != {:?}", l, r);
    }};
}

/// Declare property tests. Each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `body` over `config.cases` sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident ( $($arg:pat in $strat:expr),* $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                // Strategies are rebuilt per case: they are cheap pure
                // constructors, and this keeps non-`Clone` strategies
                // (e.g. `prop_map` closures) usable without named bindings.
                $crate::test_runner::run_cases(
                    &config,
                    concat!(module_path!(), "::", stringify!($name)),
                    |__proptest_rng| (
                        $( $crate::strategy::Strategy::sample(&($strat), __proptest_rng) ,)*
                    ),
                    |( $($arg,)* )| {
                        $body
                        ::std::result::Result::Ok(())
                    },
                );
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::test_runner::TestRng;

    fn take<S: Strategy>(rng: &mut TestRng, strategy: S, n: usize) -> Vec<S::Value> {
        (0..n).map(|_| strategy.sample(rng)).collect()
    }

    #[test]
    fn known_answers_for_every_strategy_kind() {
        // The first samples of each strategy kind: every property test's
        // cases are drawn this way, so a change here changes what they see.
        let mut rng = TestRng::deterministic("kat");
        assert_eq!(take(&mut rng, 0u8..200, 4), [55, 125, 175, 122]);
        assert_eq!(take(&mut rng, 10u8..=255, 4), [105, 247, 96, 108]);
        assert_eq!(take(&mut rng, -5i64..5, 4), [-5, 1, -5, -2]);
        assert_eq!(
            take(&mut rng, i64::MIN..=i64::MAX, 4),
            [
                4508996620198497800,
                8629123233625586450,
                -4976937768307976404,
                8842297279159078392
            ]
        );
        assert_eq!(
            take(&mut rng, any::<u64>(), 3),
            [
                11296511301368766638,
                4729517308067377810,
                6118932027762938532
            ]
        );
        assert_eq!(
            take(&mut rng, any::<i64>(), 3),
            [
                -917410536315222663,
                -4177138094465535864,
                2399631492217625700
            ]
        );
        assert_eq!(take(&mut rng, any::<i8>(), 4), [-126, -27, -94, 72]);
        assert_eq!(
            take(&mut rng, any::<bool>(), 8),
            [false, false, true, false, false, false, true, false]
        );
        assert_eq!(
            take(&mut rng, any::<f64>(), 2),
            [629081792384.4612, 580419103950.4375]
        );
        assert_eq!(
            take(&mut rng, 0.0f64..=1.0, 2),
            [0.5859122660564003, 0.72748007638581]
        );
        assert_eq!(
            take(&mut rng, -2.0f64..3.0, 2),
            [0.48524478928510373, -1.824627975348403]
        );
        let vecs = take(&mut rng, prop::collection::vec(any::<u8>(), 0..10), 4);
        let lens: Vec<usize> = vecs.iter().map(Vec::len).collect();
        assert_eq!(lens, [1, 7, 7, 2]);
        assert_eq!(take(&mut rng, 3usize..=3, 2), [3, 3]);
        assert_eq!(take(&mut rng, 1.5f64..=1.5, 2), [1.5, 1.5]);
    }

    #[test]
    fn seeds_diverge() {
        // A test's name is its seed: two names, two unrelated streams.
        let a = take(&mut TestRng::deterministic("x"), any::<u64>(), 1000);
        let b = take(&mut TestRng::deterministic("y"), any::<u64>(), 1000);
        assert_eq!(a.iter().zip(&b).filter(|(x, y)| x == y).count(), 0);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::deterministic("bounds");
        for _ in 0..10_000 {
            let v = (10u64..20).sample(&mut rng);
            assert!((10..20).contains(&v));
            let f = (-2.0f64..3.0).sample(&mut rng);
            assert!((-2.0..3.0).contains(&f));
            let i = (-50i64..=50).sample(&mut rng);
            assert!((-50..=50).contains(&i));
            let u = (0.0f64..=1.0).sample(&mut rng);
            assert!((0.0..=1.0).contains(&u));
        }
    }

    #[test]
    fn single_value_inclusive_range() {
        let mut rng = TestRng::deterministic("single");
        for _ in 0..100 {
            assert_eq!((5usize..=5).sample(&mut rng), 5);
            assert_eq!((3u64..4).sample(&mut rng), 3);
            assert_eq!((-1.5f64..=-1.5).sample(&mut rng), -1.5);
        }
    }

    #[test]
    fn full_range_i64_does_not_panic() {
        let mut rng = TestRng::deterministic("full");
        let draws = take(&mut rng, i64::MIN..=i64::MAX, 1000);
        assert!(draws.iter().any(|&v| v < 0));
        assert!(draws.iter().any(|&v| v > 0));
    }
}
