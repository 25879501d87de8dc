//! Virtual time. The simulation clock counts whole **microseconds** from
//! the start of a run — metadata service times are in the hundreds of µs,
//! while the paper's macro constants (10 s heartbeats, minute-scale runs)
//! still fit in a u64 with room to spare.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in microseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero — the start of every run.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from a float microsecond count (cost-model arithmetic),
    /// rounding to the nearest tick.
    #[inline]
    pub fn from_micros_f64(us: f64) -> Self {
        SimTime(us.max(0.0).round() as u64)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Construct from whole minutes.
    #[inline]
    pub const fn from_mins(m: u64) -> Self {
        SimTime(m * 60_000_000)
    }

    /// Raw microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds, as a float (latency reporting).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds, as a float (for rate computations and display).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Minutes, as a float (the unit the paper's figures use on the x axis).
    #[inline]
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60_000_000.0
    }

    /// Saturating difference between two times.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_ms = self.as_millis();
        let mins = total_ms / 60_000;
        let secs = (total_ms % 60_000) / 1_000;
        let ms = total_ms % 1_000;
        write!(f, "{mins:02}:{secs:02}.{ms:03}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(3), SimTime::from_millis(3_000));
        assert_eq!(SimTime::from_mins(2), SimTime::from_secs(120));
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(1_500);
        let b = SimTime::from_millis(500);
        assert_eq!(a + b, SimTime::from_millis(2_000));
        assert_eq!(a - b, SimTime::from_millis(1_000));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_millis(2_000));
    }

    #[test]
    fn float_views() {
        let t = SimTime::from_millis(90_000);
        assert!((t.as_secs_f64() - 90.0).abs() < 1e-9);
        assert!((t.as_mins_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn display_is_mm_ss() {
        assert_eq!(SimTime::from_millis(61_250).to_string(), "01:01.250");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert_eq!(SimTime::ZERO, SimTime::default());
    }

    #[test]
    fn microsecond_resolution() {
        let t = SimTime::from_micros(1_500);
        assert_eq!(t.as_micros(), 1_500);
        assert_eq!(t.as_millis(), 1, "truncating");
        assert!((t.as_millis_f64() - 1.5).abs() < 1e-12);
        assert_eq!(SimTime::from_millis(2), SimTime::from_micros(2_000));
    }

    #[test]
    fn float_constructor_rounds_and_clamps() {
        assert_eq!(SimTime::from_micros_f64(10.4), SimTime::from_micros(10));
        assert_eq!(SimTime::from_micros_f64(10.6), SimTime::from_micros(11));
        assert_eq!(SimTime::from_micros_f64(-5.0), SimTime::ZERO);
    }
}
