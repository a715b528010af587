//! Virtual time: integer nanoseconds since simulation start.
//!
//! All timing in the simulated Grid environment is expressed with these two
//! newtypes.  Integer nanoseconds keep event ordering exact (no float
//! comparison hazards) and give a ~584-year range in a `u64`, far beyond any
//! experiment in the paper.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant in virtual time (nanoseconds since t=0).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of virtual time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl Time {
    /// The simulation epoch, t = 0.
    pub const ZERO: Time = Time(0);
    /// The maximum representable instant; used as an "infinitely far" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }

    /// Nanoseconds since t=0.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since t=0 as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since t=0 as a float (for reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span from `earlier` to `self`; zero if `earlier` is later.
    pub fn saturating_since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: Time) -> Time {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: Time) -> Time {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Dur {
    /// Zero-length span.
    pub const ZERO: Dur = Dur(0);

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Dur(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Dur(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Dur(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Dur(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "duration must be finite and non-negative: {s}");
        Dur((s * 1e9).round() as u64)
    }

    /// Nanoseconds in this span.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span in float seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This span in float milliseconds (for reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }

    /// Checked scalar multiply.
    pub fn checked_mul(self, k: u64) -> Option<Dur> {
        self.0.checked_mul(k).map(Dur)
    }

    /// The larger of two spans.
    pub fn max(self, other: Dur) -> Dur {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two spans.
    pub fn min(self, other: Dur) -> Dur {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Convert to a `std::time::Duration` (for the threaded engine).
    pub fn to_std(self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.0)
    }

    /// Convert from a `std::time::Duration`, saturating at `u64::MAX` ns.
    pub fn from_std(d: std::time::Duration) -> Dur {
        Dur(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, rhs: Dur) -> Time {
        Time(self.0.checked_add(rhs.0).expect("virtual time overflow"))
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0.checked_sub(rhs.0).expect("virtual time underflow"))
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    fn sub(self, rhs: Time) -> Dur {
        Dur(self.0.checked_sub(rhs.0).expect("negative duration between instants"))
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl SubAssign for Dur {
    fn sub_assign(&mut self, rhs: Dur) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_ns(self.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

/// Render a nanosecond count with a human-friendly unit.
fn format_ns(ns: u64) -> String {
    if ns == 0 {
        "0ns".to_string()
    } else if ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(Dur::from_micros(3).as_nanos(), 3_000);
        assert_eq!(Dur::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(Dur::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(Dur::from_secs_f64(0.5).as_nanos(), 500_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = Time::ZERO + Dur::from_millis(5);
        assert_eq!(t.as_nanos(), 5_000_000);
        assert_eq!((t - Time::ZERO).as_millis_f64(), 5.0);
        assert_eq!(t - Dur::from_millis(5), Time::ZERO);
        assert_eq!(Dur::from_millis(2) * 3, Dur::from_millis(6));
        assert_eq!(Dur::from_millis(6) / 3, Dur::from_millis(2));
        let total: Dur = [Dur::from_secs(1), Dur::from_millis(500)].into_iter().sum();
        assert_eq!(total.as_millis_f64(), 1500.0);
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn negative_duration_panics() {
        let _ = Time::ZERO - Time::from_nanos(1);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(Time::ZERO.saturating_since(Time::from_nanos(5)), Dur::ZERO);
        assert_eq!(Dur::from_nanos(3).saturating_sub(Dur::from_nanos(10)), Dur::ZERO);
    }

    #[test]
    fn display_units() {
        assert_eq!(Dur::ZERO.to_string(), "0ns");
        assert_eq!(Dur::from_nanos(17).to_string(), "17ns");
        assert_eq!(Dur::from_micros(2).to_string(), "2.000us");
        assert_eq!(Dur::from_millis(2).to_string(), "2.000ms");
        assert_eq!(Dur::from_secs(2).to_string(), "2s");
    }

    #[test]
    fn std_conversion() {
        let d = Dur::from_millis(12);
        assert_eq!(Dur::from_std(d.to_std()), d);
    }

    #[test]
    fn min_max() {
        let a = Time::from_nanos(1);
        let b = Time::from_nanos(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(Dur::from_nanos(1).max(Dur::from_nanos(2)), Dur::from_nanos(2));
        assert_eq!(Dur::from_nanos(1).min(Dur::from_nanos(2)), Dur::from_nanos(1));
    }
}
