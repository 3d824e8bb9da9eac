//! Virtual time for the discrete-event engine.
//!
//! [`SimTime`] is an absolute instant measured in nanoseconds from the start
//! of a simulation; [`SimDuration`] is a span between instants. Both are thin
//! newtypes over `u64` (C-NEWTYPE) so that instants and spans cannot be mixed
//! up, and both saturate rather than wrap on overflow — a simulation that
//! runs past `u64::MAX` nanoseconds (584 years) is a bug we prefer to make
//! visible via saturation rather than wrap-around time travel.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// An absolute instant of virtual time, in nanoseconds since simulation start.
///
/// # Example
///
/// ```
/// use sim_core::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_micros(250);
/// assert_eq!(t.as_nanos(), 250_000);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
///
/// # Example
///
/// ```
/// use sim_core::SimDuration;
///
/// let d = SimDuration::from_millis(3) + SimDuration::from_micros(500);
/// assert_eq!(d.as_micros(), 3_500);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This instant expressed in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// This instant expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Span since an earlier instant, saturating to zero if `earlier` is
    /// actually later.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a span from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a span from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        SimDuration((secs * 1e9).round() as u64)
    }

    /// Creates a span from fractional milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    pub fn from_millis_f64(ms: f64) -> Self {
        assert!(ms.is_finite() && ms >= 0.0, "invalid duration: {ms}");
        SimDuration((ms * 1e6).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if this span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction of two spans.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The longer of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The shorter of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics on division by zero.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_millis(7).as_nanos(), 7_000_000);
        assert_eq!(SimDuration::from_secs(7).as_nanos(), 7_000_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_millis(), 500);
        assert_eq!(SimDuration::from_millis_f64(1.5).as_micros(), 1500);
    }

    #[test]
    fn instant_duration_arithmetic() {
        let t0 = SimTime::from_nanos(100);
        let t1 = t0 + SimDuration::from_nanos(50);
        assert_eq!(t1.as_nanos(), 150);
        assert_eq!((t1 - t0).as_nanos(), 50);
        assert_eq!(t1.duration_since(t0).as_nanos(), 50);
        // Saturating: earlier-since-later is zero, not underflow.
        assert_eq!(t0.duration_since(t1), SimDuration::ZERO);
        assert_eq!((t0 - SimDuration::from_nanos(500)).as_nanos(), 0);
    }

    #[test]
    fn duration_arithmetic_saturates() {
        let big = SimDuration::from_nanos(u64::MAX);
        assert_eq!(big + SimDuration::from_nanos(1), big);
        assert_eq!(
            SimDuration::from_nanos(3).saturating_sub(SimDuration::from_nanos(5)),
            SimDuration::ZERO
        );
        assert_eq!(big * 2, big);
    }

    #[test]
    fn mul_div() {
        let d = SimDuration::from_micros(10);
        assert_eq!((d * 3).as_micros(), 30);
        assert_eq!((d / 2).as_micros(), 5);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total.as_millis(), 10);
    }

    #[test]
    fn min_max() {
        let a = SimDuration::from_millis(1);
        let b = SimDuration::from_millis(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let ta = SimTime::from_nanos(1);
        let tb = SimTime::from_nanos(2);
        assert_eq!(ta.max(tb), tb);
        assert_eq!(ta.min(tb), ta);
    }

    #[test]
    fn display_uses_readable_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(15)), "15ns");
        assert_eq!(format!("{}", SimDuration::from_micros(15)), "15.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(15)), "15.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(15)), "15.000s");
        assert_eq!(format!("{}", SimTime::from_nanos(2_000_000)), "t=2.000ms");
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn float_views() {
        let d = SimDuration::from_micros(1500);
        assert!((d.as_millis_f64() - 1.5).abs() < 1e-12);
        assert!((d.as_micros_f64() - 1500.0).abs() < 1e-9);
        assert!((d.as_secs_f64() - 0.0015).abs() < 1e-12);
        let t = SimTime::from_nanos(2_500_000);
        assert!((t.as_millis_f64() - 2.5).abs() < 1e-12);
        assert!((t.as_micros_f64() - 2500.0).abs() < 1e-9);
        assert!((t.as_secs_f64() - 0.0025).abs() < 1e-12);
    }
}
