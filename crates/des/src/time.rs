//! Virtual time: a nanosecond-resolution instant/duration used across the
//! simulation. `SimTime` is deliberately a single type for both instants and
//! durations (like a numeric timestamp), which keeps event arithmetic simple.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) virtual time, in nanoseconds.
///
/// Backed by `u64`: covers ~584 years of simulated time at nanosecond
/// resolution, far beyond the one-month traces used in the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);
    pub const MAX: SimTime = SimTime(u64::MAX);

    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }
    #[inline]
    pub const fn from_mins(m: u64) -> Self {
        SimTime(m * 60 * 1_000_000_000)
    }
    #[inline]
    pub const fn from_hours(h: u64) -> Self {
        SimTime(h * 3_600 * 1_000_000_000)
    }
    #[inline]
    pub const fn from_days(d: u64) -> Self {
        SimTime(d * 24 * 3_600 * 1_000_000_000)
    }

    /// Construct from fractional seconds. Saturates at the representable range
    /// and clamps negative values to zero (cost models occasionally produce
    /// tiny negative jitter).
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return SimTime::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime(ns as u64)
        }
    }

    /// Construct from fractional microseconds (common for network models).
    pub fn from_micros_f64(us: f64) -> Self {
        Self::from_secs_f64(us * 1e-6)
    }

    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: useful for "time remaining" computations.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// Panics on underflow in debug builds; production code that may underflow
    /// should use [`SimTime::saturating_sub`].
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "SimTime underflow: {self:?} - {rhs:?}");
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.saturating_mul(rhs))
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: f64) -> SimTime {
        SimTime::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_mins(2), SimTime::from_secs(120));
        assert_eq!(SimTime::from_hours(1), SimTime::from_mins(60));
        assert_eq!(SimTime::from_days(1), SimTime::from_hours(24));
    }

    #[test]
    fn float_roundtrip() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t, SimTime::from_millis(1_500));
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        let u = SimTime::from_micros_f64(2.5);
        assert_eq!(u, SimTime::from_nanos(2_500));
    }

    #[test]
    fn negative_and_nan_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::INFINITY), SimTime::MAX);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(3);
        let b = SimTime::from_secs(1);
        assert_eq!(a + b, SimTime::from_secs(4));
        assert_eq!(a - b, SimTime::from_secs(2));
        assert_eq!(a * 2, SimTime::from_secs(6));
        assert_eq!(a / 3, SimTime::from_secs(1));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a * 0.5, SimTime::from_millis(1_500));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_nanos(5)), "5ns");
        assert_eq!(format!("{}", SimTime::from_micros(5)), "5.000us");
        assert_eq!(format!("{}", SimTime::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(5)), "5.000s");
    }

    #[test]
    fn sum_iterator() {
        let total: SimTime = (1..=4).map(SimTime::from_secs).sum();
        assert_eq!(total, SimTime::from_secs(10));
    }
}
