//! Virtual time: a nanosecond-resolution instant/duration newtype.
//!
//! The simulation uses a single [`Nanos`] type for both instants (time since
//! simulation start) and durations. This keeps arithmetic simple and matches
//! how the paper reports all costs (nanoseconds and microseconds).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A virtual time value in nanoseconds.
///
/// `Nanos` is used both as an instant (offset from simulation start) and as
/// a duration. It is `Copy` and supports saturating subtraction via
/// [`Nanos::saturating_sub`].
///
/// ```rust
/// use bypassd_sim::time::Nanos;
/// let t = Nanos::from_micros(4) + Nanos(20);
/// assert_eq!(t.as_nanos(), 4020);
/// assert_eq!(format!("{t}"), "4.020us");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// The zero instant / empty duration.
    pub const ZERO: Nanos = Nanos(0);
    /// Largest representable time.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a value from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a value from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a value from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a value from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Creates a value from fractional seconds.
    ///
    /// # Panics
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid seconds value: {s}");
        Nanos((s * 1e9).round() as u64)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in microseconds (fractional).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Value in milliseconds (fractional).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Value in seconds (fractional).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Subtraction clamped at zero.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Addition clamped at [`Nanos::MAX`], where `MAX` means
    /// "unbounded".
    pub fn saturating_add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }

    /// The larger of two times.
    pub fn max(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.max(rhs.0))
    }

    /// The smaller of two times.
    pub fn min(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.min(rhs.0))
    }

    /// True if this is the zero value.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl From<u64> for Nanos {
    fn from(ns: u64) -> Self {
        Nanos(ns)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{}.{:03}us", ns / 1_000, ns % 1_000)
        } else if ns < 1_000_000_000 {
            write!(f, "{}.{:03}ms", ns / 1_000_000, (ns / 1_000) % 1_000)
        } else {
            write!(f, "{}.{:03}s", ns / 1_000_000_000, (ns / 1_000_000) % 1_000)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(Nanos::from_nanos(7).as_nanos(), 7);
        assert_eq!(Nanos::from_micros(3).as_nanos(), 3_000);
        assert_eq!(Nanos::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(Nanos::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(Nanos::from_secs_f64(0.5).as_nanos(), 500_000_000);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos(100);
        let b = Nanos(40);
        assert_eq!((a + b).0, 140);
        assert_eq!((a - b).0, 60);
        assert_eq!((a * 3).0, 300);
        assert_eq!((a / 4).0, 25);
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn conversions_to_float() {
        let t = Nanos::from_micros(1500);
        assert!((t.as_micros_f64() - 1500.0).abs() < 1e-9);
        assert!((t.as_millis_f64() - 1.5).abs() < 1e-9);
        assert!((t.as_secs_f64() - 0.0015).abs() < 1e-12);
    }

    #[test]
    fn display_picks_human_unit() {
        assert_eq!(format!("{}", Nanos(999)), "999ns");
        assert_eq!(format!("{}", Nanos(4_020)), "4.020us");
        assert_eq!(format!("{}", Nanos(7_850_000)), "7.850ms");
        assert_eq!(format!("{}", Nanos(2_500_000_000)), "2.500s");
    }

    #[test]
    fn sum_of_iterator() {
        let total: Nanos = [Nanos(1), Nanos(2), Nanos(3)].into_iter().sum();
        assert_eq!(total, Nanos(6));
    }

    #[test]
    #[should_panic(expected = "invalid seconds")]
    fn from_secs_f64_rejects_negative() {
        let _ = Nanos::from_secs_f64(-1.0);
    }
}
