//! Unit-safe time and rate quantities.
//!
//! The paper mixes units freely: SEU rates in errors/bit/**day**, scrub
//! periods in **seconds**, storage horizons in **hours** (Figs. 5–7) and
//! **months** (Figs. 8–10). Everything in this workspace is normalized to
//! **days** internally; these newtypes make conversions explicit at the
//! API boundary ([C-NEWTYPE]).
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;

/// Hours per day.
const HOURS_PER_DAY: f64 = 24.0;
/// Seconds per day.
const SECONDS_PER_DAY: f64 = 86_400.0;
/// Days per month (mean Gregorian month, 365.25/12).
const DAYS_PER_MONTH: f64 = 365.25 / 12.0;

/// A point in (or span of) time, stored in days.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Time {
    days: f64,
}

impl Time {
    /// Zero time.
    pub fn zero() -> Self {
        Time { days: 0.0 }
    }

    /// From days.
    pub fn from_days(days: f64) -> Self {
        Time { days }
    }

    /// From hours.
    pub fn from_hours(hours: f64) -> Self {
        Time {
            days: hours / HOURS_PER_DAY,
        }
    }

    /// From seconds.
    pub fn from_seconds(seconds: f64) -> Self {
        Time {
            days: seconds / SECONDS_PER_DAY,
        }
    }

    /// From mean months (365.25/12 days).
    pub fn from_months(months: f64) -> Self {
        Time {
            days: months * DAYS_PER_MONTH,
        }
    }

    /// The value in days.
    pub fn as_days(self) -> f64 {
        self.days
    }

    /// The value in hours.
    pub fn as_hours(self) -> f64 {
        self.days * HOURS_PER_DAY
    }

    /// The value in seconds.
    pub fn as_seconds(self) -> f64 {
        self.days * SECONDS_PER_DAY
    }

    /// The value in mean months.
    pub fn as_months(self) -> f64 {
        self.days / DAYS_PER_MONTH
    }

    /// True for a finite, non-negative time.
    pub(crate) fn is_valid(self) -> bool {
        self.days.is_finite() && self.days >= 0.0
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.days >= DAYS_PER_MONTH {
            write!(f, "{:.2} months", self.as_months())
        } else if self.days >= 1.0 {
            write!(f, "{:.2} days", self.days)
        } else if self.days >= 1.0 / HOURS_PER_DAY {
            write!(f, "{:.2} h", self.as_hours())
        } else {
            write!(f, "{:.1} s", self.as_seconds())
        }
    }
}

/// An evenly spaced grid of time points, e.g. the x-axis of a BER figure.
///
/// # Examples
///
/// ```
/// use rsmem_models::units::{Time, TimeGrid};
/// let grid = TimeGrid::linspace(Time::zero(), Time::from_hours(48.0), 25);
/// assert_eq!(grid.points().len(), 25);
/// assert_eq!(grid.points()[24].as_hours(), 48.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeGrid {
    points: Vec<Time>,
}

impl TimeGrid {
    /// `count` points linearly spaced from `start` to `end` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `count < 2` or `end < start`.
    pub fn linspace(start: Time, end: Time, count: usize) -> Self {
        assert!(count >= 2, "need at least two grid points");
        assert!(end.as_days() >= start.as_days(), "end before start");
        let step = (end.as_days() - start.as_days()) / (count - 1) as f64;
        let points = (0..count)
            .map(|i| Time::from_days(start.as_days() + step * i as f64))
            .collect();
        TimeGrid { points }
    }

    /// The grid points.
    pub fn points(&self) -> &[Time] {
        &self.points
    }

    /// The points converted to raw days (solver input).
    pub fn as_days(&self) -> Vec<f64> {
        self.points.iter().map(|t| t.as_days()).collect()
    }
}

/// SEU (transient fault) rate, stored per bit per day — the unit the
/// paper's Section 6 sweeps use (`7.3e-7 … 1.7e-5 errors/bit/day`).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SeuRate {
    per_bit_day: f64,
}

impl SeuRate {
    /// From errors per bit per day.
    pub fn per_bit_day(rate: f64) -> Self {
        SeuRate { per_bit_day: rate }
    }

    /// The value per bit per day.
    pub fn as_per_bit_day(self) -> f64 {
        self.per_bit_day
    }

    /// True for a finite, non-negative rate.
    pub(crate) fn is_valid(self) -> bool {
        self.per_bit_day.is_finite() && self.per_bit_day >= 0.0
    }
}

/// Permanent-fault (erasure) exposure rate, stored per symbol per day.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct ErasureRate {
    per_symbol_day: f64,
}

impl ErasureRate {
    /// From faults per symbol per day.
    pub fn per_symbol_day(rate: f64) -> Self {
        ErasureRate {
            per_symbol_day: rate,
        }
    }

    /// The value per symbol per day.
    pub fn as_per_symbol_day(self) -> f64 {
        self.per_symbol_day
    }

    /// True for a finite, non-negative rate.
    pub(crate) fn is_valid(self) -> bool {
        self.per_symbol_day.is_finite() && self.per_symbol_day >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_conversions_roundtrip() {
        let t = Time::from_hours(48.0);
        assert!((t.as_days() - 2.0).abs() < 1e-12);
        assert!((t.as_seconds() - 172_800.0).abs() < 1e-6);
        let m = Time::from_months(24.0);
        assert!((m.as_days() - 730.5).abs() < 1e-9);
        assert!((Time::from_seconds(900.0).as_days() - 900.0 / 86_400.0).abs() < 1e-15);
    }

    #[test]
    fn time_display_picks_natural_unit() {
        assert_eq!(Time::from_seconds(900.0).to_string(), "900.0 s");
        assert_eq!(Time::from_hours(5.0).to_string(), "5.00 h");
        assert_eq!(Time::from_days(2.0).to_string(), "2.00 days");
        assert!(Time::from_months(3.0).to_string().contains("months"));
    }

    #[test]
    fn linspace_endpoints_and_spacing() {
        let g = TimeGrid::linspace(Time::zero(), Time::from_days(10.0), 11);
        let days = g.as_days();
        assert_eq!(days.len(), 11);
        assert_eq!(days[0], 0.0);
        assert_eq!(days[10], 10.0);
        assert!((days[5] - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn linspace_needs_two_points() {
        let _ = TimeGrid::linspace(Time::zero(), Time::from_days(1.0), 1);
    }

    #[test]
    fn rate_conversions() {
        assert!(SeuRate::per_bit_day(1.7e-5).is_valid());
        assert!(!SeuRate::per_bit_day(f64::NAN).is_valid());
        assert!(!SeuRate::per_bit_day(-1.0).is_valid());
        assert!(ErasureRate::per_symbol_day(1e-6).is_valid());
    }

    #[test]
    fn defaults_are_zero() {
        assert_eq!(SeuRate::default().as_per_bit_day(), 0.0);
        assert_eq!(ErasureRate::default().as_per_symbol_day(), 0.0);
        assert_eq!(Time::default().as_days(), 0.0);
    }
}
