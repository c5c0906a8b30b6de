//! Hourly time series and monthly aggregation.
//!
//! Every figure in the paper is a *monthly* series (power, price, green
//! share, temperature, deadline counts). The simulation records hourly
//! values in an [`HourlySeries`] anchored on a [`Calendar`], then reduces to
//! [`MonthlyRow`]s for the experiment tables.

use crate::calendar::{Calendar, YearMonth};
use crate::time::SimTime;

/// Monthly aggregation statistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonthlyAgg {
    /// Arithmetic mean of hourly values.
    Mean,
    /// Sum of hourly values.
    Sum,
    /// Maximum hourly value.
    Max,
    /// Minimum hourly value.
    Min,
}

/// One aggregated month.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonthlyRow {
    /// Which month.
    pub ym: YearMonth,
    /// Aggregated value.
    pub value: f64,
    /// Number of hourly samples in the month.
    pub samples: usize,
}

/// A fixed-resolution (hourly) time series anchored on a calendar.
#[derive(Debug, Clone)]
pub struct HourlySeries {
    calendar: Calendar,
    values: Vec<f64>,
}

impl HourlySeries {
    /// An empty series anchored at `calendar`.
    pub fn new(calendar: Calendar) -> HourlySeries {
        HourlySeries {
            calendar,
            values: Vec::new(),
        }
    }

    /// A series pre-filled from a closure over hour indices.
    pub fn from_fn(calendar: Calendar, hours: usize, f: impl FnMut(usize) -> f64) -> HourlySeries {
        HourlySeries {
            calendar,
            values: (0..hours).map(f).collect(),
        }
    }

    /// A series wrapping existing hourly values.
    pub fn from_values(calendar: Calendar, values: Vec<f64>) -> HourlySeries {
        HourlySeries { calendar, values }
    }

    /// The anchoring calendar.
    pub fn calendar(&self) -> &Calendar {
        &self.calendar
    }

    /// Number of hourly samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Raw hourly values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Append the value for the next hour.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Value at an hour index (panics out of range).
    pub fn at(&self, hour: usize) -> f64 {
        self.values[hour]
    }

    /// Value at an hour index, clamped to the series bounds.
    ///
    /// Useful for forecast features that peek slightly past the horizon.
    pub fn at_clamped(&self, hour: isize) -> f64 {
        let idx = hour.clamp(0, self.values.len() as isize - 1) as usize;
        self.values[idx]
    }

    /// Mean over the whole series (NaN when empty).
    pub fn mean(&self) -> f64 {
        crate::stats::mean(&self.values)
    }

    /// Reduce to monthly rows with the given statistic.
    ///
    /// Partial trailing months are included with however many samples they
    /// have (the experiment harness runs whole months so this only matters
    /// in tests).
    pub fn monthly(&self, agg: MonthlyAgg) -> Vec<MonthlyRow> {
        let mut rows: Vec<MonthlyRow> = Vec::new();
        let mut current: Option<(YearMonth, Vec<f64>)> = None;
        for (h, &v) in self.values.iter().enumerate() {
            let ym = self.calendar.year_month_at(SimTime::from_hours(h as u64));
            match &mut current {
                Some((cur, buf)) if *cur == ym => buf.push(v),
                Some((cur, buf)) => {
                    rows.push(Self::reduce(*cur, buf, agg));
                    *cur = ym;
                    buf.clear();
                    buf.push(v);
                }
                None => current = Some((ym, vec![v])),
            }
        }
        if let Some((cur, buf)) = current {
            rows.push(Self::reduce(cur, &buf, agg));
        }
        rows
    }

    fn reduce(ym: YearMonth, buf: &[f64], agg: MonthlyAgg) -> MonthlyRow {
        let value = match agg {
            MonthlyAgg::Mean => crate::stats::mean(buf),
            MonthlyAgg::Sum => buf.iter().sum(),
            MonthlyAgg::Max => buf.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            MonthlyAgg::Min => buf.iter().cloned().fold(f64::INFINITY, f64::min),
        };
        MonthlyRow {
            ym,
            value,
            samples: buf.len(),
        }
    }
}

/// Align two monthly tables on their common months, returning paired values.
pub fn align_monthly(a: &[MonthlyRow], b: &[MonthlyRow]) -> Vec<(YearMonth, f64, f64)> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    for ra in a {
        if let Some(rb) = b.iter().find(|r| r.ym == ra.ym) {
            out.push((ra.ym, ra.value, rb.value));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::CalDate;

    fn cal() -> Calendar {
        Calendar::new(CalDate::new(2020, 1, 1))
    }

    #[test]
    fn monthly_mean_has_correct_buckets() {
        // 2020: Jan has 31*24 = 744 hours, Feb (leap) has 29*24 = 696.
        let hours = (31 + 29) * 24;
        let s = HourlySeries::from_fn(cal(), hours, |h| if h < 744 { 1.0 } else { 3.0 });
        let rows = s.monthly(MonthlyAgg::Mean);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].ym, YearMonth::new(2020, 1));
        assert_eq!(rows[0].samples, 744);
        assert!((rows[0].value - 1.0).abs() < 1e-12);
        assert_eq!(rows[1].ym, YearMonth::new(2020, 2));
        assert_eq!(rows[1].samples, 696);
        assert!((rows[1].value - 3.0).abs() < 1e-12);
    }

    #[test]
    fn monthly_sum_max_min() {
        let s = HourlySeries::from_fn(cal(), 48, |h| h as f64);
        let sum = s.monthly(MonthlyAgg::Sum);
        assert!((sum[0].value - (0..48).sum::<usize>() as f64).abs() < 1e-9);
        assert_eq!(s.monthly(MonthlyAgg::Max)[0].value, 47.0);
        assert_eq!(s.monthly(MonthlyAgg::Min)[0].value, 0.0);
    }

    #[test]
    fn two_year_series_has_24_months() {
        let hours = (366 + 365) * 24;
        let s = HourlySeries::from_fn(cal(), hours, |_| 1.0);
        let rows = s.monthly(MonthlyAgg::Mean);
        assert_eq!(rows.len(), 24);
        assert_eq!(rows[0].ym, YearMonth::new(2020, 1));
        assert_eq!(rows[23].ym, YearMonth::new(2021, 12));
        let total: usize = rows.iter().map(|r| r.samples).sum();
        assert_eq!(total, hours);
    }

    #[test]
    fn align_matches_common_months() {
        let a = HourlySeries::from_fn(cal(), 31 * 24, |_| 2.0).monthly(MonthlyAgg::Mean);
        let b = HourlySeries::from_fn(cal(), (31 + 29) * 24, |_| 5.0).monthly(MonthlyAgg::Mean);
        let pairs = align_monthly(&a, &b);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0, YearMonth::new(2020, 1));
        assert_eq!((pairs[0].1, pairs[0].2), (2.0, 5.0));
    }

    #[test]
    fn push_and_clamped_access() {
        let mut s = HourlySeries::new(cal());
        assert!(s.is_empty());
        s.push(1.0);
        s.push(2.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.at(1), 2.0);
        assert_eq!(s.at_clamped(-5), 1.0);
        assert_eq!(s.at_clamped(99), 2.0);
        assert!((s.mean() - 1.5).abs() < 1e-12);
    }
}
