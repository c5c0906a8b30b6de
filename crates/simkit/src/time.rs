//! Simulation time.
//!
//! [`SimTime`] counts whole seconds since the scenario start; [`Duration`]
//! is a span in seconds. Second resolution is exact for every process in the
//! workspace (job arrivals/completions, hourly environment ticks), which
//! keeps the discrete-event engine free of floating-point ordering bugs.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Seconds in one minute.
pub const MINUTE: u64 = 60;
/// Seconds in one hour.
pub const HOUR: u64 = 3_600;
/// Seconds in one hour (alias used by telemetry code).
pub const SECONDS_PER_HOUR: u64 = HOUR;
/// Seconds in one civil day.
pub const SECONDS_PER_DAY: u64 = 24 * HOUR;

/// A point in simulation time: whole seconds since scenario start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulation time in whole seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl SimTime {
    /// The scenario origin.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from a whole number of hours since start.
    #[inline]
    pub fn from_hours(h: u64) -> SimTime {
        SimTime(h * HOUR)
    }

    /// Construct from a whole number of days since start.
    #[inline]
    pub fn from_days(d: u64) -> SimTime {
        SimTime(d * SECONDS_PER_DAY)
    }

    /// Seconds since scenario start.
    #[inline]
    pub fn secs(self) -> u64 {
        self.0
    }

    /// Completed hours since scenario start (floor).
    #[inline]
    pub fn hour_index(self) -> u64 {
        self.0 / HOUR
    }

    /// Completed days since scenario start (floor).
    #[inline]
    pub fn day_index(self) -> u64 {
        self.0 / SECONDS_PER_DAY
    }

    /// Seconds elapsed within the current hour.
    #[inline]
    pub fn secs_into_hour(self) -> u64 {
        self.0 % HOUR
    }

    /// Fractional hours since scenario start.
    #[inline]
    pub fn hours_f64(self) -> f64 {
        self.0 as f64 / HOUR as f64
    }

    /// Time elapsed since `earlier`. Saturates at zero if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);

    /// Construct from whole seconds.
    #[inline]
    pub fn from_secs(s: u64) -> Duration {
        Duration(s)
    }

    /// Construct from whole minutes.
    #[inline]
    pub fn from_mins(m: u64) -> Duration {
        Duration(m * MINUTE)
    }

    /// Construct from whole hours.
    #[inline]
    pub fn from_hours(h: u64) -> Duration {
        Duration(h * HOUR)
    }

    /// Construct from fractional hours, rounding to the nearest second.
    #[inline]
    pub fn from_hours_f64(h: f64) -> Duration {
        Duration((h * HOUR as f64).round().max(0.0) as u64)
    }

    /// Construct from whole days.
    #[inline]
    pub fn from_days(d: u64) -> Duration {
        Duration(d * SECONDS_PER_DAY)
    }

    /// Whole seconds in the span.
    #[inline]
    pub fn secs(self) -> u64 {
        self.0
    }

    /// Span expressed in fractional hours.
    #[inline]
    pub fn hours_f64(self) -> f64 {
        self.0 as f64 / HOUR as f64
    }

    /// Span expressed in seconds as f64 (for power integration).
    #[inline]
    pub fn secs_f64(self) -> f64 {
        self.0 as f64
    }

    /// Scale the span by a positive factor, rounding to whole seconds.
    ///
    /// Used when a power cap slows a job down: remaining work takes
    /// `duration / speed_fraction`.
    #[inline]
    pub fn scale(self, factor: f64) -> Duration {
        debug_assert!(factor.is_finite() && factor >= 0.0);
        Duration((self.0 as f64 * factor).round() as u64)
    }

    /// Elementwise maximum.
    #[inline]
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// Elementwise minimum.
    #[inline]
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.0 / SECONDS_PER_DAY;
        let h = (self.0 % SECONDS_PER_DAY) / HOUR;
        let m = (self.0 % HOUR) / MINUTE;
        let s = self.0 % MINUTE;
        write!(f, "d{d}+{h:02}:{m:02}:{s:02}")
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= SECONDS_PER_DAY {
            write!(f, "{:.1}d", self.0 as f64 / SECONDS_PER_DAY as f64)
        } else if self.0 >= HOUR {
            write!(f, "{:.1}h", self.hours_f64())
        } else {
            write!(f, "{}s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hour_and_day_indexing() {
        let t = SimTime::from_hours(25) + Duration::from_secs(10);
        assert_eq!(t.hour_index(), 25);
        assert_eq!(t.day_index(), 1);
        assert_eq!(t.secs_into_hour(), 10);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_days(1);
        let t2 = t + Duration::from_hours(2);
        assert_eq!(t2.secs(), 26 * HOUR);
        assert_eq!((t2 - t).secs(), 2 * HOUR);
        // Saturating subtraction never panics.
        assert_eq!((t - t2).secs(), 0);
        assert_eq!(t2.since(t).secs(), 2 * HOUR);
    }

    #[test]
    fn duration_scaling() {
        let d = Duration::from_hours(10);
        // Half speed -> twice the duration.
        assert_eq!(d.scale(2.0).secs(), 20 * HOUR);
        assert_eq!(d.scale(0.5).secs(), 5 * HOUR);
        assert_eq!(Duration::from_hours_f64(1.5).secs(), 5400);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_hours(26)), "d1+02:00:00");
        assert_eq!(format!("{}", Duration::from_secs(30)), "30s");
        assert_eq!(format!("{}", Duration::from_hours(3)), "3.0h");
        assert_eq!(format!("{}", Duration::from_days(2)), "2.0d");
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![SimTime(5), SimTime(1), SimTime(3)];
        v.sort();
        assert_eq!(v, vec![SimTime(1), SimTime(3), SimTime(5)]);
    }
}
