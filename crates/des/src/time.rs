//! Simulated time.
//!
//! [`SimTime`] is a nanosecond counter. The same type is used for instants
//! and durations — a deliberate simplification that keeps the arithmetic in
//! the resource models terse. All constructors saturate rather than wrap so
//! that `SimTime::MAX` can be used as an "infinitely far away" sentinel.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time (or a span of it), in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// A sentinel representing "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us.saturating_mul(1_000))
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms.saturating_mul(1_000_000))
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s.saturating_mul(1_000_000_000))
    }

    /// Construct from fractional seconds. Negative inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimTime::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime(ns as u64)
        }
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// As fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// As fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// As fractional microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating subtraction; `a.saturating_sub(b)` is zero when `b > a`.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Scale a duration by a dimensionless factor (clamped at zero).
    #[inline]
    pub fn scaled(self, factor: f64) -> SimTime {
        SimTime::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Duration taken to move `bytes` at `bytes_per_sec`.
    #[inline]
    pub fn for_bytes(bytes: u64, bytes_per_sec: f64) -> SimTime {
        if bytes_per_sec <= 0.0 {
            return SimTime::MAX;
        }
        SimTime::from_secs_f64(bytes as f64 / bytes_per_sec)
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
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// Panics in debug builds on underflow; use [`SimTime::saturating_sub`]
    /// when the ordering is not statically known.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.saturating_mul(rhs))
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
        iter.fold(SimTime::ZERO, |a, b| a + b)
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
            write!(f, "{}ns", ns)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3_000));
        assert_eq!(SimTime::from_micros(5), SimTime::from_nanos(5_000));
        assert_eq!(SimTime::from_secs_f64(1.5), SimTime::from_millis(1_500));
    }

    #[test]
    fn from_secs_f64_clamps() {
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::INFINITY), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(1e300), SimTime::MAX);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_millis(250);
        assert_eq!((a + b).as_millis_f64(), 1250.0);
        assert_eq!((a - b).as_millis_f64(), 750.0);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!((b * 4).as_secs_f64(), 1.0);
        assert_eq!((a / 4).as_millis_f64(), 250.0);
    }

    #[test]
    fn saturating_add_at_max() {
        assert_eq!(SimTime::MAX + SimTime::from_secs(1), SimTime::MAX);
    }

    #[test]
    fn for_bytes_transfer_time() {
        // 1 MiB at 1 MiB/s takes one second.
        let t = SimTime::for_bytes(1 << 20, (1 << 20) as f64);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
        assert_eq!(SimTime::for_bytes(1, 0.0), SimTime::MAX);
    }

    #[test]
    fn min_max_and_scale() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.scaled(2.0), b);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimTime::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimTime::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(12)), "12.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimTime = (1..=4).map(SimTime::from_secs).sum();
        assert_eq!(total, SimTime::from_secs(10));
    }
}
