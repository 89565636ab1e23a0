//! Virtual time: nanosecond-resolution durations and instants that never
//! touch the wall clock.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span of simulated time, stored as integer nanoseconds for exact,
/// platform-independent arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VDuration(u64);

impl VDuration {
    /// Zero-length duration.
    pub const ZERO: VDuration = VDuration(0);

    /// From integer nanoseconds.
    pub const fn from_nanos(n: u64) -> Self {
        VDuration(n)
    }

    /// From integer milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        VDuration(ms * 1_000_000)
    }

    /// From integer seconds.
    pub const fn from_secs(s: u64) -> Self {
        VDuration(s * 1_000_000_000)
    }

    /// From fractional seconds; negative and non-finite inputs clamp to 0.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return VDuration::ZERO;
        }
        VDuration((s * 1e9).round() as u64)
    }

    /// Nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: VDuration) -> VDuration {
        VDuration(self.0.saturating_sub(other.0))
    }

    /// Larger of the two.
    pub fn max(self, other: VDuration) -> VDuration {
        VDuration(self.0.max(other.0))
    }
}

impl fmt::Display for VDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 1.0 {
            write!(f, "{s:.2}s")
        } else if s >= 1e-3 {
            write!(f, "{:.2}ms", s * 1e3)
        } else {
            write!(f, "{:.0}µs", s * 1e6)
        }
    }
}

impl Add for VDuration {
    type Output = VDuration;
    fn add(self, rhs: VDuration) -> VDuration {
        VDuration(self.0 + rhs.0)
    }
}

impl AddAssign for VDuration {
    fn add_assign(&mut self, rhs: VDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for VDuration {
    type Output = VDuration;
    fn sub(self, rhs: VDuration) -> VDuration {
        VDuration(self.0.checked_sub(rhs.0).expect("negative VDuration"))
    }
}

impl Mul<u64> for VDuration {
    type Output = VDuration;
    fn mul(self, rhs: u64) -> VDuration {
        VDuration(self.0 * rhs)
    }
}

impl Mul<f64> for VDuration {
    type Output = VDuration;
    fn mul(self, rhs: f64) -> VDuration {
        VDuration::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for VDuration {
    type Output = VDuration;
    fn div(self, rhs: u64) -> VDuration {
        VDuration(self.0 / rhs)
    }
}

impl Sum for VDuration {
    fn sum<I: Iterator<Item = VDuration>>(iter: I) -> VDuration {
        iter.fold(VDuration::ZERO, Add::add)
    }
}

/// A point on the virtual timeline (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VInstant(u64);

impl VInstant {
    /// Simulation start.
    pub const EPOCH: VInstant = VInstant(0);

    /// From nanoseconds since simulation start.
    pub const fn from_nanos(n: u64) -> Self {
        VInstant(n)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration since an earlier instant. Panics if `earlier` is later.
    pub fn since(self, earlier: VInstant) -> VDuration {
        VDuration(self.0.checked_sub(earlier.0).expect("instant ordering"))
    }
}

impl Add<VDuration> for VInstant {
    type Output = VInstant;
    fn add(self, rhs: VDuration) -> VInstant {
        VInstant(self.0 + rhs.as_nanos())
    }
}

impl Sub<VInstant> for VInstant {
    type Output = VDuration;
    fn sub(self, rhs: VInstant) -> VDuration {
        self.since(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(VDuration::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(VDuration::from_millis(1500).as_secs_f64(), 1.5);
        assert_eq!(VDuration::from_secs_f64(4.29).as_secs_f64(), 4.29);
        assert_eq!(VDuration::from_secs_f64(-1.0), VDuration::ZERO);
        assert_eq!(VDuration::from_secs_f64(f64::NAN), VDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = VDuration::from_secs(3);
        let b = VDuration::from_secs(1);
        assert_eq!(a + b, VDuration::from_secs(4));
        assert_eq!(a - b, VDuration::from_secs(2));
        assert_eq!(a * 2, VDuration::from_secs(6));
        assert_eq!(a / 3, VDuration::from_secs(1));
        assert_eq!(b.saturating_sub(a), VDuration::ZERO);
        assert_eq!(a.max(b), a);
        let total: VDuration = [a, b, b].into_iter().sum();
        assert_eq!(total, VDuration::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn underflow_panics() {
        let _ = VDuration::from_secs(1) - VDuration::from_secs(2);
    }

    #[test]
    fn instants() {
        let t0 = VInstant::EPOCH;
        let t1 = t0 + VDuration::from_secs(60);
        assert_eq!(t1.since(t0), VDuration::from_secs(60));
        assert_eq!(t1 - t0, VDuration::from_secs(60));
        assert!(t1 > t0);
        assert_eq!(t1.as_secs_f64(), 60.0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(VDuration::from_secs_f64(4.29).to_string(), "4.29s");
        assert_eq!(VDuration::from_millis(12).to_string(), "12.00ms");
        assert_eq!(VDuration::from_nanos(7_000).to_string(), "7µs");
    }

    #[test]
    fn float_scaling() {
        let d = VDuration::from_secs(10) * 1.65;
        assert!((d.as_secs_f64() - 16.5).abs() < 1e-9);
    }
}
