//! The non-homogeneous compute-demand model.
//!
//! Aggregate job-arrival intensity is
//!
//! ```text
//! λ(t) = base · diurnal(t) · weekly(t) · (1 + Σ_d ramp_d(t)) · surge
//! ```
//!
//! where each conference deadline `d` contributes an *anticipatory ramp*:
//! "as deadlines approach, users are accelerating their workloads,
//! finishing or repeating experiments" (§III). The ramp grows quadratically
//! over the final `ramp_days` before a deadline and collapses right after
//! it — which is what produces Fig. 5's energy pickup one to two months
//! ahead of deadline concentrations, including the sharper Jan/Feb-2021
//! rise in front of the spring-2021 cluster.

use greener_simkit::calendar::{hour_of_day, CalDate, Calendar, DayTable};
use greener_simkit::series::HourlySeries;
use greener_simkit::time::{SimTime, HOUR};

use crate::calendar::ConferenceCalendar;

/// Demand-model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandConfig {
    /// Baseline arrival rate, jobs per hour.
    pub base_rate_per_hour: f64,
    /// Diurnal swing (fraction of base; peak mid-afternoon).
    pub diurnal_fraction: f64,
    /// Weekend multiplier.
    pub weekend_mult: f64,
    /// Days over which a deadline's ramp builds.
    pub ramp_days: f64,
    /// Peak contribution of a single deadline to the rate multiplier.
    pub per_deadline_boost: f64,
    /// Days after the deadline during which demand is depressed
    /// (post-submission lull).
    pub lull_days: f64,
    /// Depth of the post-deadline lull per deadline.
    pub per_deadline_lull: f64,
    /// Month-of-year activity multipliers (Jan..Dec): the holiday lull in
    /// Dec/Jan and the summer research push the paper's §II-C "data on
    /// compute demand and usage (e.g. holidays, research deadlines)" refers
    /// to.
    pub monthly_activity: [f64; 12],
    /// Global surge multiplier (stress scenarios).
    pub surge_mult: f64,
    /// If true, ignore deadline structure entirely and use the equivalent
    /// *mean* rate — the paper's "rolling submissions" option (3).
    pub rolling: bool,
}

impl Default for DemandConfig {
    fn default() -> Self {
        DemandConfig {
            base_rate_per_hour: 16.0,
            diurnal_fraction: 0.45,
            weekend_mult: 0.60,
            ramp_days: 70.0,
            per_deadline_boost: 0.13,
            lull_days: 10.0,
            per_deadline_lull: 0.04,
            monthly_activity: [
                0.85, 0.95, 1.0, 1.0, 1.02, 1.05, 1.05, 1.05, 1.0, 0.98, 0.93, 0.82,
            ],
            surge_mult: 1.0,
            rolling: false,
        }
    }
}

/// The demand model: deadline calendar + parameters, pre-resolved against a
/// simulation calendar.
#[derive(Debug, Clone)]
pub struct DemandModel {
    config: DemandConfig,
    /// Deadline instants as fractional hours from simulation start
    /// (negative = before the window; they still cast lulls into it).
    deadline_hours: Vec<f64>,
    /// Mean deadline multiplier over the window `[0, last deadline + lull]`,
    /// precomputed: what "rolling submissions" levels the rate to,
    /// conserving total annual compute (the paper's premise "if the same
    /// amount of compute is to be spent throughout a representative year
    /// regardless").
    mean_mult: f64,
}

impl DemandModel {
    /// Build from a conference calendar anchored on `calendar`.
    pub fn new(
        config: DemandConfig,
        conferences: &ConferenceCalendar,
        calendar: &Calendar,
    ) -> DemandModel {
        let mut deadline_hours: Vec<f64> = conferences
            .all_deadlines()
            .into_iter()
            .map(|d| calendar.start.days_until(d) as f64 * 24.0)
            .collect();
        deadline_hours.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut model = DemandModel {
            config,
            deadline_hours,
            mean_mult: 1.0,
        };
        model.mean_mult = model.compute_mean_multiplier();
        model
    }

    /// Parameters.
    pub fn config(&self) -> &DemandConfig {
        &self.config
    }

    /// The deadline factor of the rate at `hour`: the mean multiplier
    /// under rolling submissions, otherwise the deadline multiplier.
    fn deadline_factor(&self, hour: f64, cursor: &mut DeadlineCursor) -> f64 {
        if self.config.rolling {
            return self.mean_mult;
        }
        self.raw_deadline_multiplier(hour, cursor)
    }

    /// The multiplier ignoring the rolling flag (used to level rolling
    /// demand to the same total).
    fn raw_deadline_multiplier(&self, hour: f64, cursor: &mut DeadlineCursor) -> f64 {
        let ramp_h = self.config.ramp_days * 24.0;
        let lull_h = self.config.lull_days * 24.0;
        // Only deadlines in `(hour - lull_h, hour + ramp_h)` can contribute.
        // The list is sorted and the window only moves forward with
        // `hour`, so the cursor walks it instead of scanning every
        // deadline per call. The loop keeps the full branch conditions,
        // so the sum is bit-identical to a full scan.
        let dl = &self.deadline_hours;
        while cursor.start < dl.len() && dl[cursor.start] <= hour - lull_h {
            cursor.start += 1;
        }
        cursor.end = cursor.end.max(cursor.start);
        while cursor.end < dl.len() && dl[cursor.end] < hour + ramp_h {
            cursor.end += 1;
        }
        let mut m = 1.0;
        for &dh in &dl[cursor.start..cursor.end] {
            let dt = dh - hour; // hours until the deadline
            if dt > 0.0 && dt < ramp_h {
                // Quadratic build-up toward the deadline.
                let x = 1.0 - dt / ramp_h;
                m += self.config.per_deadline_boost * x * x;
            } else if dt <= 0.0 && -dt < lull_h {
                // Post-deadline lull, decaying linearly.
                let x = 1.0 + dt / lull_h;
                m -= self.config.per_deadline_lull * x;
            }
        }
        m.max(0.05)
    }

    /// `base · diurnal · weekly`: the rate's factors fixed by the hour of
    /// day and the weekend flag.
    fn base_diurnal_weekly(&self, hour_of_day: u32, weekend: bool) -> f64 {
        let c = &self.config;
        let phase = (hour_of_day as f64 - 14.0) / 24.0 * std::f64::consts::TAU;
        let diurnal = 1.0 + c.diurnal_fraction * phase.cos();
        let weekly = if weekend { c.weekend_mult } else { 1.0 };
        c.base_rate_per_hour * diurnal * weekly
    }

    /// The month-of-year activity factor on `date`.
    fn seasonal(&self, date: CalDate) -> f64 {
        self.config.monthly_activity[date.month.number() as usize - 1]
    }

    /// The one rate formula, on resolved factors:
    /// `((base·diurnal·weekly)·deadline)·seasonal·surge`, multiplied in
    /// that order so every caller gets the same bits.
    #[inline]
    fn rate_on(&self, base_diurnal_weekly: f64, seasonal: f64, deadline: f64) -> f64 {
        base_diurnal_weekly * deadline * seasonal * self.config.surge_mult
    }

    /// Arrival rate (jobs/hour) at simulation time `t`.
    ///
    /// A single query resolves the civil date and walks the deadline list
    /// from its start. Trace thinning needs a rate per candidate, so it
    /// goes through [`HourlyRates::rate`] instead: one table read for the
    /// calendar factors plus the few deadline terms a monotone cursor
    /// keeps in view, to the same bits.
    pub fn rate_at(&self, calendar: &Calendar, t: SimTime) -> f64 {
        self.rate_on(
            self.base_diurnal_weekly(calendar.hour_of_day(t), calendar.is_weekend(t)),
            self.seasonal(calendar.date_at(t)),
            self.deadline_factor(t.hours_f64(), &mut DeadlineCursor::default()),
        )
    }

    /// The calendar factors of [`Self::rate_at`] for every hour of an
    /// `hours`-long horizon, resolved once per civil day.
    pub fn hourly_rates(&self, calendar: &Calendar, hours: usize) -> HourlyRates<'_> {
        let days = DayTable::new(calendar, hours);
        let factors = (0..hours)
            .map(|h| {
                let day = days.at_hour(h);
                (
                    self.base_diurnal_weekly(hour_of_day(h), day.weekend),
                    self.seasonal(day.date),
                )
            })
            .collect();
        HourlyRates {
            model: self,
            factors,
        }
    }

    fn compute_mean_multiplier(&self) -> f64 {
        let Some(&last) = self.deadline_hours.last() else {
            return 1.0;
        };
        let lo = 0.0;
        let hi = (last + self.config.lull_days * 24.0).max(lo + 24.0);
        let steps = 4_000;
        let dt = (hi - lo) / steps as f64;
        let mut cursor = DeadlineCursor::default();
        let sum: f64 = (0..steps)
            .map(|i| self.raw_deadline_multiplier(lo + (i as f64 + 0.5) * dt, &mut cursor))
            .sum();
        sum / steps as f64
    }

    /// An upper bound on the rate over the horizon (for NHPP thinning).
    pub fn rate_upper_bound(&self, calendar: &Calendar, hours: usize) -> f64 {
        self.hourly_rates(calendar, hours).upper_bound()
    }

    /// Hourly rate series (used by Fig. 5 diagnostics and forecasting).
    pub fn rate_series(&self, calendar: &Calendar, hours: usize) -> HourlySeries {
        let rates = self.hourly_rates(calendar, hours);
        let mut cursor = DeadlineCursor::default();
        HourlySeries::from_fn(*calendar, hours, |h| {
            rates.rate(&mut cursor, SimTime::from_hours(h as u64))
        })
    }
}

/// A position in a [`DemandModel`]'s sorted deadline list for queries at
/// non-decreasing times: the active deadline window only moves forward,
/// so one walk over the list serves them all. Start a fresh cursor
/// wherever time steps back.
#[derive(Debug, Clone, Default)]
pub struct DeadlineCursor {
    start: usize,
    end: usize,
}

/// A demand model's calendar factors resolved for every hour of a
/// horizon: per hour, `(base·diurnal·weekly, seasonal)`. Only the deadline
/// factor is left to compute per query.
#[derive(Debug, Clone)]
pub struct HourlyRates<'m> {
    model: &'m DemandModel,
    factors: Vec<(f64, f64)>,
}

impl HourlyRates<'_> {
    /// [`DemandModel::rate_at`] at `t`, bit for bit. Successive calls on
    /// one `cursor` must come at non-decreasing `t`, within the horizon.
    #[inline]
    pub fn rate(&self, cursor: &mut DeadlineCursor, t: SimTime) -> f64 {
        let (base_diurnal_weekly, seasonal) = self.factors[(t.secs() / HOUR) as usize];
        let deadline = self.model.deadline_factor(t.hours_f64(), cursor);
        self.model.rate_on(base_diurnal_weekly, seasonal, deadline)
    }

    /// The largest rate over the whole hours of the horizon, plus 1%: the
    /// bounding rate thinning draws candidates at.
    pub fn upper_bound(&self) -> f64 {
        let mut cursor = DeadlineCursor::default();
        let mut max = 0.0f64;
        for h in 0..self.factors.len() {
            max = max.max(self.rate(&mut cursor, SimTime::from_hours(h as u64)));
        }
        max * 1.01
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::ConferenceCalendar;
    use greener_simkit::calendar::CalDate;
    use greener_simkit::series::MonthlyAgg;

    fn cal() -> Calendar {
        Calendar::new(CalDate::new(2020, 1, 1))
    }

    fn model() -> DemandModel {
        DemandModel::new(
            DemandConfig::default(),
            &ConferenceCalendar::table_i(),
            &cal(),
        )
    }

    #[test]
    fn rate_positive_everywhere() {
        let m = model();
        for h in (0..24 * 731).step_by(97) {
            let r = m.rate_at(&cal(), SimTime::from_hours(h as u64));
            assert!(r > 0.0, "rate at hour {h} is {r}");
        }
    }

    #[test]
    fn diurnal_peak_afternoon() {
        let m = model();
        // Compare 14:00 vs 02:00 on a Tuesday (Jan 7 2020).
        let t14 = m.rate_at(&cal(), SimTime::from_hours(6 * 24 + 14));
        let t02 = m.rate_at(&cal(), SimTime::from_hours(6 * 24 + 2));
        assert!(t14 > t02 * 1.5);
    }

    #[test]
    fn weekends_quieter() {
        let m = model();
        // Sat Jan 4 2020 vs Mon Jan 6 2020, same hour.
        let sat = m.rate_at(&cal(), SimTime::from_hours(3 * 24 + 14));
        let mon = m.rate_at(&cal(), SimTime::from_hours(5 * 24 + 14));
        assert!(sat < mon);
    }

    #[test]
    fn deadline_ramp_builds_and_lulls() {
        let m = model();
        // NeurIPS 2020 deadline: Jun 5 2020 = day 156.
        let dl_hour = 156.0 * 24.0;
        let at = |hour: f64| m.deadline_factor(hour, &mut DeadlineCursor::default());
        let before_far = at(dl_hour - 69.0 * 24.0);
        let before_near = at(dl_hour - 2.0 * 24.0);
        let after = at(dl_hour + 24.0);
        assert!(
            before_near > before_far,
            "near {before_near:.3} vs far {before_far:.3}"
        );
        assert!(
            after < before_near,
            "lull {after:.3} vs peak {before_near:.3}"
        );
    }

    #[test]
    fn early_2021_pickup_exceeds_early_2020() {
        // The Fig. 5 observation: sharper pickup Jan/Feb 2021 than the same
        // period in 2020, because spring 2021 holds a deadline cluster.
        let m = model();
        let series = m.rate_series(&cal(), 731 * 24);
        let rows = series.monthly(MonthlyAgg::Mean);
        let feb20 = rows[1].value;
        let feb21 = rows[13].value;
        assert!(
            feb21 > feb20 * 1.04,
            "Feb 2021 {feb21:.2} vs Feb 2020 {feb20:.2}"
        );
    }

    #[test]
    fn rolling_flattens_but_conserves_mean() {
        // Neutralize the month-of-year activity factor so the test isolates
        // the deadline-driven component that rolling removes.
        let flat_months = DemandConfig {
            monthly_activity: [1.0; 12],
            ..DemandConfig::default()
        };
        let peaky = DemandModel::new(flat_months.clone(), &ConferenceCalendar::table_i(), &cal());
        let rolling = DemandModel::new(
            DemandConfig {
                rolling: true,
                ..flat_months
            },
            &ConferenceCalendar::table_i(),
            &cal(),
        );
        let hours = 731 * 24;
        let peaky_rates = peaky.rate_series(&cal(), hours);
        let rolling_rates = rolling.rate_series(&cal(), hours);
        // Totals agree within a few percent (the mean multiplier is
        // integrated over the deadline span, not the exact window).
        let ratio =
            rolling_rates.values().iter().sum::<f64>() / peaky_rates.values().iter().sum::<f64>();
        assert!((0.9..1.1).contains(&ratio), "total ratio {ratio:.3}");
        // And the rolling monthly profile is flatter.
        let peaky_monthly: Vec<f64> = peaky_rates
            .monthly(MonthlyAgg::Mean)
            .iter()
            .map(|r| r.value)
            .collect();
        let rolling_monthly: Vec<f64> = rolling_rates
            .monthly(MonthlyAgg::Mean)
            .iter()
            .map(|r| r.value)
            .collect();
        assert!(
            greener_simkit::stats::std_dev(&rolling_monthly)
                < greener_simkit::stats::std_dev(&peaky_monthly) * 0.6
        );
    }

    #[test]
    fn surge_scales_rate() {
        let base = model();
        let surged = DemandModel::new(
            DemandConfig {
                surge_mult: 1.5,
                ..DemandConfig::default()
            },
            &ConferenceCalendar::table_i(),
            &cal(),
        );
        let t = SimTime::from_hours(100 * 24 + 12);
        let ratio = surged.rate_at(&cal(), t) / base.rate_at(&cal(), t);
        assert!((ratio - 1.5).abs() < 1e-9);
    }

    #[test]
    fn upper_bound_dominates() {
        let m = model();
        let hours = 150 * 24;
        let ub = m.rate_upper_bound(&cal(), hours);
        for h in (0..hours).step_by(53) {
            assert!(m.rate_at(&cal(), SimTime::from_hours(h as u64)) <= ub);
        }
    }
}
