//! Deadline-restructuring options.
//!
//! Section III asks: "can we structure deadlines to spread out energy
//! utilization and compute demand to benefit energy efficiency?" and offers
//! three options, all implemented here as transformations of the Table I
//! calendar:
//!
//! 1. **Uniform spread** — deadlines distributed evenly through the year.
//! 2. **Winter/spring concentration** — deadlines placed in Mar–May so the
//!    ramp-up months (Jan–Apr) are cold (cheap cooling) and green (high
//!    solar+wind share).
//! 3. **Rolling submissions** — no deadline structure at all; demand is
//!    levelled to the same annual total (see
//!    [`DemandConfig::rolling`](crate::demand::DemandConfig)).

use greener_simkit::calendar::{days_in_month, CalDate, Month};

use crate::calendar::ConferenceCalendar;

/// The paper's §III options (1)–(3), plus the status quo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeadlinePolicy {
    /// Keep the historical Table I calendar.
    StatusQuo,
    /// Option (1): spread deadlines uniformly through the year.
    UniformSpread,
    /// Option (2): concentrate deadlines in spring (Mar–May) so the
    /// preceding ramp months are colder / greener.
    WinterSpring,
    /// Option (3): abolish fixed deadlines for rolling submissions.
    Rolling,
}

impl DeadlinePolicy {
    /// All policies, in the order the paper lists them.
    pub const ALL: [DeadlinePolicy; 4] = [
        DeadlinePolicy::StatusQuo,
        DeadlinePolicy::UniformSpread,
        DeadlinePolicy::WinterSpring,
        DeadlinePolicy::Rolling,
    ];

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            DeadlinePolicy::StatusQuo => "status-quo",
            DeadlinePolicy::UniformSpread => "uniform-spread",
            DeadlinePolicy::WinterSpring => "winter-spring",
            DeadlinePolicy::Rolling => "rolling",
        }
    }

    /// Whether demand should be levelled (rolling submissions).
    pub fn is_rolling(self) -> bool {
        matches!(self, DeadlinePolicy::Rolling)
    }

    /// Transform the calendar. Deadline *counts per conference and per
    /// year* are preserved for the reshuffling policies, so total annual
    /// compute stays comparable; `Rolling` keeps dates but the demand model
    /// ignores them.
    pub fn apply(self, calendar: &ConferenceCalendar) -> ConferenceCalendar {
        match self {
            DeadlinePolicy::StatusQuo | DeadlinePolicy::Rolling => calendar.clone(),
            DeadlinePolicy::UniformSpread => reshuffle(calendar, &Month::ALL),
            DeadlinePolicy::WinterSpring => {
                reshuffle(calendar, &[Month::Mar, Month::Apr, Month::May])
            }
        }
    }
}

/// Redistribute every deadline into the target months, round-robin, keeping
/// each deadline's original year and spacing days evenly inside each month.
fn reshuffle(calendar: &ConferenceCalendar, months: &[Month]) -> ConferenceCalendar {
    // Stable global counter so deadlines land evenly across target months.
    let mut counter = 0usize;
    let new_deadlines: Vec<Vec<CalDate>> = calendar
        .conferences()
        .iter()
        .map(|conf| {
            conf.deadlines
                .iter()
                .map(|old| {
                    let month = months[counter % months.len()];
                    // Stride days so same-month deadlines don't pile on one day.
                    let dim = days_in_month(old.year, month);
                    let day = 1 + ((counter / months.len()) as u32 * 7) % dim;
                    counter += 1;
                    CalDate::new(old.year, month.number(), day)
                })
                .collect()
        })
        .collect();
    calendar.with_deadlines(new_deadlines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use greener_simkit::calendar::YearMonth;

    #[test]
    fn status_quo_is_identity() {
        let cal = ConferenceCalendar::table_i();
        let same = DeadlinePolicy::StatusQuo.apply(&cal);
        assert_eq!(cal, same);
    }

    #[test]
    fn policies_preserve_deadline_count() {
        let cal = ConferenceCalendar::table_i();
        for p in DeadlinePolicy::ALL {
            let out = p.apply(&cal);
            assert_eq!(
                out.total_deadlines(),
                cal.total_deadlines(),
                "{} changed deadline count",
                p.label()
            );
        }
    }

    #[test]
    fn uniform_spread_flattens_monthly_histogram() {
        let cal = ConferenceCalendar::table_i();
        let spread = DeadlinePolicy::UniformSpread.apply(&cal);
        let counts: Vec<f64> = spread
            .monthly_counts(YearMonth::new(2020, 1), 24)
            .iter()
            .map(|(_, c)| *c as f64)
            .collect();
        let orig: Vec<f64> = cal
            .monthly_counts(YearMonth::new(2020, 1), 24)
            .iter()
            .map(|(_, c)| *c as f64)
            .collect();
        assert!(
            greener_simkit::stats::std_dev(&counts) < greener_simkit::stats::std_dev(&orig),
            "uniform spread should flatten the histogram"
        );
    }

    #[test]
    fn winter_spring_lands_in_march_to_may() {
        let cal = ConferenceCalendar::table_i();
        let ws = DeadlinePolicy::WinterSpring.apply(&cal);
        for d in ws.all_deadlines() {
            assert!(
                matches!(d.month, Month::Mar | Month::Apr | Month::May),
                "deadline {d} not in spring"
            );
        }
    }

    #[test]
    fn years_preserved() {
        let cal = ConferenceCalendar::table_i();
        for p in [DeadlinePolicy::UniformSpread, DeadlinePolicy::WinterSpring] {
            let out = p.apply(&cal);
            let mut orig_years: Vec<i32> = cal.all_deadlines().iter().map(|d| d.year).collect();
            let mut new_years: Vec<i32> = out.all_deadlines().iter().map(|d| d.year).collect();
            orig_years.sort();
            new_years.sort();
            assert_eq!(orig_years, new_years, "{}", p.label());
        }
    }

    #[test]
    fn rolling_flag() {
        assert!(DeadlinePolicy::Rolling.is_rolling());
        assert!(!DeadlinePolicy::StatusQuo.is_rolling());
    }

    #[test]
    fn labels_unique() {
        let mut labels: Vec<&str> = DeadlinePolicy::ALL.iter().map(|p| p.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn reshuffled_days_are_valid_dates() {
        // CalDate::new panics on invalid dates, so constructing the whole
        // reshuffled calendar is itself the assertion.
        let cal = ConferenceCalendar::table_i();
        let out = DeadlinePolicy::UniformSpread.apply(&cal);
        assert!(out.total_deadlines() > 0);
    }
}
