//! A leap-year-aware civil calendar.
//!
//! The paper's figures are monthly series over calendar years 2020–2021
//! (2020 is a leap year), so simulation hours must map exactly onto civil
//! dates. [`CalDate`] provides that mapping together with [`YearMonth`]
//! buckets used by the monthly aggregations in [`crate::series`].

use crate::time::{SimTime, HOUR, SECONDS_PER_DAY};
use std::fmt;

/// Month of the year (1-based like civil usage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Month {
    /// January
    Jan = 1,
    /// February
    Feb = 2,
    /// March
    Mar = 3,
    /// April
    Apr = 4,
    /// May
    May = 5,
    /// June
    Jun = 6,
    /// July
    Jul = 7,
    /// August
    Aug = 8,
    /// September
    Sep = 9,
    /// October
    Oct = 10,
    /// November
    Nov = 11,
    /// December
    Dec = 12,
}

impl Month {
    /// All months in order.
    pub const ALL: [Month; 12] = [
        Month::Jan,
        Month::Feb,
        Month::Mar,
        Month::Apr,
        Month::May,
        Month::Jun,
        Month::Jul,
        Month::Aug,
        Month::Sep,
        Month::Oct,
        Month::Nov,
        Month::Dec,
    ];

    /// 1-based month number.
    #[inline]
    pub fn number(self) -> u32 {
        self as u32
    }

    /// Construct from a 1-based month number. Panics if out of 1..=12.
    pub fn from_number(n: u32) -> Month {
        Month::ALL[(n - 1) as usize]
    }

    /// Three-letter English abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            Month::Jan => "Jan",
            Month::Feb => "Feb",
            Month::Mar => "Mar",
            Month::Apr => "Apr",
            Month::May => "May",
            Month::Jun => "Jun",
            Month::Jul => "Jul",
            Month::Aug => "Aug",
            Month::Sep => "Sep",
            Month::Oct => "Oct",
            Month::Nov => "Nov",
            Month::Dec => "Dec",
        }
    }
}

impl fmt::Display for Month {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// True if `year` is a Gregorian leap year.
#[inline]
pub fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Number of days in the given month.
pub fn days_in_month(year: i32, month: Month) -> u32 {
    match month {
        Month::Jan
        | Month::Mar
        | Month::May
        | Month::Jul
        | Month::Aug
        | Month::Oct
        | Month::Dec => 31,
        Month::Apr | Month::Jun | Month::Sep | Month::Nov => 30,
        Month::Feb => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
    }
}

/// Number of days in the given year.
pub fn days_in_year(year: i32) -> u32 {
    if is_leap_year(year) {
        366
    } else {
        365
    }
}

/// A civil calendar date.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CalDate {
    /// Civil year (e.g. 2020).
    pub year: i32,
    /// Month of year.
    pub month: Month,
    /// Day of month (1-based).
    pub day: u32,
}

impl CalDate {
    /// Construct a date, validating the day against the month length.
    pub fn new(year: i32, month: u32, day: u32) -> CalDate {
        let m = Month::from_number(month);
        assert!(
            day >= 1 && day <= days_in_month(year, m),
            "invalid day {day} for {year}-{month:02}"
        );
        CalDate {
            year,
            month: m,
            day,
        }
    }

    /// Zero-based day-of-year for this date.
    pub fn day_of_year(self) -> u32 {
        let mut days = 0;
        for m in Month::ALL {
            if m == self.month {
                break;
            }
            days += days_in_month(self.year, m);
        }
        days + (self.day - 1)
    }

    /// Serial day number (days since 1970-01-01), computed in O(1) with
    /// Howard Hinnant's `days_from_civil` algorithm. This sits under every
    /// per-candidate / per-hour calendar lookup in world generation, so it
    /// must not walk years.
    pub fn serial_day(self) -> i64 {
        let y = self.year as i64 - i64::from(self.month.number() <= 2);
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400; // [0, 399]
        let m = self.month.number() as i64;
        let mp = if m > 2 { m - 3 } else { m + 9 }; // March-based month
        let doy = (153 * mp + 2) / 5 + self.day as i64 - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        era * 146_097 + doe - 719_468
    }

    /// The date for a serial day number (inverse of [`CalDate::serial_day`],
    /// Hinnant's `civil_from_days`, O(1)).
    pub fn from_serial_day(z: i64) -> CalDate {
        let z = z + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097; // [0, 146096]
        let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let day = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
        let year = (y + i64::from(m <= 2)) as i32;
        CalDate {
            year,
            month: Month::from_number(m),
            day,
        }
    }

    /// Days elapsed from `self` to `other` (may be negative).
    pub fn days_until(self, other: CalDate) -> i64 {
        other.serial_day() - self.serial_day()
    }

    /// The date `days` after this one (days may be large).
    pub fn plus_days(self, days: i64) -> CalDate {
        CalDate::from_serial_day(self.serial_day() + days)
    }

    /// The year-month bucket containing this date.
    #[inline]
    pub fn year_month(self) -> YearMonth {
        YearMonth {
            year: self.year,
            month: self.month,
        }
    }
}

impl fmt::Display for CalDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:04}-{:02}-{:02}",
            self.year,
            self.month.number(),
            self.day
        )
    }
}

/// A (year, month) bucket used for monthly aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct YearMonth {
    /// Civil year.
    pub year: i32,
    /// Month of year.
    pub month: Month,
}

impl YearMonth {
    /// Construct from year and 1-based month number.
    pub fn new(year: i32, month: u32) -> YearMonth {
        YearMonth {
            year,
            month: Month::from_number(month),
        }
    }

    /// The next month (wrapping year-end).
    pub fn next(self) -> YearMonth {
        if self.month == Month::Dec {
            YearMonth {
                year: self.year + 1,
                month: Month::Jan,
            }
        } else {
            YearMonth {
                year: self.year,
                month: Month::from_number(self.month.number() + 1),
            }
        }
    }
}

impl fmt::Display for YearMonth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.month.abbrev(), self.year)
    }
}

/// Maps simulation time onto the civil calendar.
///
/// A `Calendar` is anchored at a start date (hour 0 of the simulation is
/// midnight local time of `start`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Calendar {
    /// Civil date of simulation hour 0.
    pub start: CalDate,
}

impl Calendar {
    /// Calendar anchored at `start`.
    pub fn new(start: CalDate) -> Calendar {
        Calendar { start }
    }

    /// Civil date containing the given simulation time.
    pub fn date_at(&self, t: SimTime) -> CalDate {
        self.start.plus_days(t.day_index() as i64)
    }

    /// Hour of day (0–23) at the given simulation time.
    #[inline]
    pub fn hour_of_day(&self, t: SimTime) -> u32 {
        ((t.secs() % SECONDS_PER_DAY) / HOUR) as u32
    }

    /// Day of week (0 = Monday … 6 = Sunday), assuming the anchor is known.
    ///
    /// 2020-01-01 was a Wednesday; we compute from a fixed reference.
    pub fn day_of_week(&self, t: SimTime) -> u32 {
        let reference = CalDate::new(2020, 1, 1); // Wednesday = 2
        let days = reference.days_until(self.date_at(t));
        (((days % 7) + 7) as u32 + 2) % 7
    }

    /// True if the given time falls on Saturday or Sunday.
    pub fn is_weekend(&self, t: SimTime) -> bool {
        self.day_of_week(t) >= 5
    }

    /// Year-month bucket for the given simulation time.
    pub fn year_month_at(&self, t: SimTime) -> YearMonth {
        self.date_at(t).year_month()
    }

    /// Fraction of the year elapsed at time `t` (0.0 = Jan 1, ~1.0 = Dec 31).
    pub fn year_fraction(&self, t: SimTime) -> f64 {
        self.day_at(t).year_fraction(self.hour_of_day(t))
    }

    /// Every calendar field of the civil day containing `t`, resolved.
    pub fn day_at(&self, t: SimTime) -> Day {
        let date = self.date_at(t);
        Day {
            date,
            weekend: self.is_weekend(t),
            day_of_year: date.day_of_year(),
            days_in_year: days_in_year(date.year),
        }
    }
}

/// One civil day with its calendar fields resolved: what the hourly
/// world-gen loops need from a [`Calendar`], computed once per day
/// instead of once per hour or per query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Day {
    /// The civil date.
    pub date: CalDate,
    /// True on Saturday and Sunday ([`Calendar::is_weekend`]).
    pub weekend: bool,
    /// Zero-based day of the year ([`CalDate::day_of_year`]).
    pub day_of_year: u32,
    /// Days in the date's year ([`days_in_year`]).
    pub days_in_year: u32,
}

impl Day {
    /// Fraction of the year elapsed at `hour_of_day` on this day: the one
    /// formula behind [`Calendar::year_fraction`].
    #[inline]
    pub fn year_fraction(&self, hour_of_day: u32) -> f64 {
        let doy = self.day_of_year as f64 + hour_of_day as f64 / 24.0;
        doy / self.days_in_year as f64
    }
}

/// The [`Day`]s covering an `hours`-long horizon from a calendar's start,
/// built once per generator so hourly loops index a day instead of
/// turning each hour back into a civil date.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DayTable {
    days: Vec<Day>,
}

impl DayTable {
    /// The days covering hours `0..hours` (a partial last day included).
    pub fn new(calendar: &Calendar, hours: usize) -> DayTable {
        DayTable {
            days: (0..hours.div_ceil(24) as u64)
                .map(|d| calendar.day_at(SimTime::from_days(d)))
                .collect(),
        }
    }

    /// All days in order.
    pub fn days(&self) -> &[Day] {
        &self.days
    }

    /// The day containing simulation hour `hour`.
    #[inline]
    pub fn at_hour(&self, hour: usize) -> &Day {
        &self.days[hour / 24]
    }
}

/// Hour of day (0–23) of simulation hour `hour`: [`Calendar::hour_of_day`]
/// on a whole-hour index.
#[inline]
pub fn hour_of_day(hour: usize) -> u32 {
    (hour % 24) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn leap_years() {
        assert!(is_leap_year(2020));
        assert!(!is_leap_year(2021));
        assert!(!is_leap_year(1900));
        assert!(is_leap_year(2000));
        assert_eq!(days_in_month(2020, Month::Feb), 29);
        assert_eq!(days_in_month(2021, Month::Feb), 28);
    }

    #[test]
    fn day_of_year() {
        assert_eq!(CalDate::new(2020, 1, 1).day_of_year(), 0);
        assert_eq!(CalDate::new(2020, 3, 1).day_of_year(), 60); // leap Feb
        assert_eq!(CalDate::new(2021, 3, 1).day_of_year(), 59);
        assert_eq!(CalDate::new(2020, 12, 31).day_of_year(), 365);
    }

    #[test]
    fn serial_day_roundtrip_and_epoch() {
        // 1970-01-01 is serial day 0 by construction.
        assert_eq!(CalDate::new(1970, 1, 1).serial_day(), 0);
        assert_eq!(CalDate::from_serial_day(0), CalDate::new(1970, 1, 1));
        // Round-trip across leap boundaries, century rules and the sim era.
        for (y, m, d) in [
            (1969, 12, 31),
            (2000, 2, 29),
            (1900, 3, 1),
            (2020, 1, 1),
            (2020, 2, 29),
            (2021, 12, 31),
            (2400, 2, 29),
        ] {
            let date = CalDate::new(y, m, d);
            assert_eq!(CalDate::from_serial_day(date.serial_day()), date, "{date}");
        }
        // Serial days are consecutive across an entire leap year.
        let mut s = CalDate::new(2020, 1, 1).serial_day();
        for day in 1..=366 {
            let next = CalDate::new(2020, 1, 1).plus_days(day).serial_day();
            assert_eq!(next, s + 1, "day {day}");
            s = next;
        }
    }

    #[test]
    fn plus_days_roundtrip() {
        let d = CalDate::new(2020, 1, 15);
        assert_eq!(d.plus_days(31), CalDate::new(2020, 2, 15));
        assert_eq!(d.plus_days(366), CalDate::new(2021, 1, 15)); // 2020 leap
        assert_eq!(d.plus_days(-15), CalDate::new(2019, 12, 31));
        for delta in [-500i64, -1, 0, 1, 59, 366, 730] {
            let e = d.plus_days(delta);
            assert_eq!(d.days_until(e), delta);
        }
    }

    #[test]
    fn calendar_dates_and_months() {
        let cal = Calendar::new(CalDate::new(2020, 1, 1));
        assert_eq!(cal.date_at(SimTime::ZERO), CalDate::new(2020, 1, 1));
        assert_eq!(
            cal.date_at(SimTime::from_days(59)),
            CalDate::new(2020, 2, 29)
        );
        assert_eq!(
            cal.year_month_at(SimTime::from_days(60)),
            YearMonth::new(2020, 3)
        );
        // 2020 has 366 days so day 366 is Jan 1 2021.
        assert_eq!(
            cal.date_at(SimTime::from_days(366)),
            CalDate::new(2021, 1, 1)
        );
    }

    #[test]
    fn day_of_week_and_weekends() {
        let cal = Calendar::new(CalDate::new(2020, 1, 1)); // Wednesday
        assert_eq!(cal.day_of_week(SimTime::ZERO), 2);
        // 2020-01-04 was a Saturday.
        assert!(cal.is_weekend(SimTime::from_days(3)));
        assert!(cal.is_weekend(SimTime::from_days(4)));
        assert!(!cal.is_weekend(SimTime::from_days(5)));
    }

    #[test]
    fn hour_of_day_from_start() {
        let cal = Calendar::new(CalDate::new(2020, 6, 1));
        let t = SimTime::from_days(2) + Duration::from_hours(13);
        assert_eq!(cal.hour_of_day(t), 13);
    }

    #[test]
    fn year_month_next_wraps_years() {
        assert_eq!(YearMonth::new(2020, 11).next(), YearMonth::new(2020, 12));
        assert_eq!(YearMonth::new(2020, 12).next(), YearMonth::new(2021, 1));
    }

    /// The per-day table against the per-hour [`Calendar`] queries, hour
    /// by hour: date, weekend flag, hour of day and the year-fraction
    /// bits. Also checks that the table has exactly the days the horizon
    /// touches.
    fn assert_day_table_agrees(start: CalDate, hours: usize) {
        let cal = Calendar::new(start);
        let table = DayTable::new(&cal, hours);
        assert_eq!(table.days().len(), hours.div_ceil(24), "{start} {hours}h");
        for h in 0..hours {
            let t = SimTime::from_hours(h as u64);
            let day = table.at_hour(h);
            let hod = hour_of_day(h);
            assert_eq!(day.date, cal.date_at(t), "{start} hour {h}");
            assert_eq!(day.weekend, cal.is_weekend(t), "{start} hour {h}");
            assert_eq!(hod, cal.hour_of_day(t), "{start} hour {h}");
            assert_eq!(
                day.year_fraction(hod).to_bits(),
                cal.year_fraction(t).to_bits(),
                "{start} hour {h}"
            );
        }
    }

    #[test]
    fn day_table_agrees_with_calendar_across_leap_and_year_boundaries() {
        // A leap day, a year end, and 2100-02-28: 2100 is a century year
        // that is not a leap year.
        for (y, m, d) in [(2020, 2, 28), (2020, 12, 31), (2100, 2, 28)] {
            // Empty, under a day, and neither whole days nor whole weeks.
            for hours in [0, 1, 23, 24, 25, 169, 24 * 400 + 7] {
                assert_day_table_agrees(CalDate::new(y, m, d), hours);
            }
        }
    }

    #[test]
    fn year_fraction_monotone_within_year() {
        let cal = Calendar::new(CalDate::new(2021, 1, 1));
        let mut prev = -1.0;
        for d in 0..365 {
            let f = cal.year_fraction(SimTime::from_days(d));
            assert!(f > prev);
            assert!((0.0..1.0).contains(&f));
            prev = f;
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The per-day table agrees with [`Calendar`] from any start
            /// date over any horizon up to ~2.5 years.
            #[test]
            fn day_table_agrees_with_calendar_from_random_starts(
                start_serial in -40_000i64..60_000,
                hours in 0usize..22_000,
            ) {
                assert_day_table_agrees(CalDate::from_serial_day(start_serial), hours);
            }
        }
    }
}
