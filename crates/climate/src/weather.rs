//! Hourly weather generation.
//!
//! The generator produces a [`WeatherPath`] — hourly outdoor dry-bulb
//! temperature (°F), wind speed (m/s) and cloud-cover fraction — for an
//! arbitrary horizon anchored on a [`Calendar`].
//!
//! The defaults are calibrated to the Boston area (where the MIT SuperCloud
//! lives) so that monthly mean temperatures match the shape in Fig. 4 of the
//! paper (≈30 °F in January up to ≈74 °F in July), and so the downstream
//! grid model sees ISO-NE-like seasonality: windy winters/springs, calm
//! summers, cloudier winters.

use greener_simkit::calendar::{hour_of_day, CalDate, Calendar, DayTable};
use greener_simkit::rng::RngHub;
use greener_simkit::series::HourlySeries;
use greener_simkit::time::SimTime;
use rand::Rng;
use rand_distr::{Distribution, Normal};

use crate::events::ExtremeEvent;

/// Monthly mean temperature normals for the Boston area, °F (Jan..Dec).
pub const BOSTON_TEMP_NORMALS_F: [f64; 12] = [
    29.9, 32.3, 38.8, 48.8, 58.5, 68.0, 73.9, 72.6, 65.4, 54.7, 44.9, 35.4,
];

/// Monthly mean wind-speed normals, m/s (Jan..Dec). New England onshore wind
/// is strongest in winter/early spring and weakest in mid-summer, which is
/// what makes the ISO-NE green share *low* exactly when cooling demand is
/// high (the Fig. 2 mismatch).
pub const WIND_NORMALS_MS: [f64; 12] = [7.1, 8.3, 8.5, 8.2, 7.4, 5.6, 5.2, 5.3, 5.9, 6.7, 7.2, 6.9];

/// Monthly mean cloud-cover normals in \[0,1\] (Jan..Dec).
pub const CLOUD_NORMALS: [f64; 12] = [
    0.62, 0.60, 0.58, 0.56, 0.54, 0.48, 0.44, 0.46, 0.50, 0.54, 0.60, 0.63,
];

/// Diurnal temperature half-amplitude by month, °F.
pub const DIURNAL_AMPLITUDE_F: [f64; 12] =
    [5.0, 5.5, 6.5, 7.5, 8.0, 8.5, 8.5, 8.0, 7.5, 7.0, 5.5, 5.0];

/// Configuration of the weather generator.
#[derive(Debug, Clone, PartialEq)]
pub struct WeatherConfig {
    /// Monthly mean temperature normals, °F (Jan..Dec).
    pub temp_normals_f: [f64; 12],
    /// Monthly mean wind speed, m/s.
    pub wind_normals_ms: [f64; 12],
    /// Monthly mean cloud cover in \[0,1\].
    pub cloud_normals: [f64; 12],
    /// Diurnal half-amplitude, °F, by month.
    pub diurnal_amplitude_f: [f64; 12],
    /// AR(1) coefficient of the hourly temperature anomaly process.
    pub temp_ar1: f64,
    /// Innovation standard deviation of the temperature anomaly, °F.
    pub temp_sigma_f: f64,
    /// AR(1) coefficient of the wind anomaly process.
    pub wind_ar1: f64,
    /// Innovation standard deviation of the wind anomaly, m/s.
    pub wind_sigma_ms: f64,
    /// AR(1) coefficient of the cloud anomaly process.
    pub cloud_ar1: f64,
    /// Innovation standard deviation of cloud anomaly.
    pub cloud_sigma: f64,
    /// Uniform warming applied to every hour, °C (climate-trend scenarios).
    pub warming_offset_c: f64,
    /// Expected number of summer heat waves per year.
    pub heatwaves_per_year: f64,
    /// Heat-wave peak anomaly, °F.
    pub heatwave_amplitude_f: f64,
    /// Heat-wave duration, days.
    pub heatwave_duration_days: u32,
    /// Expected number of winter cold snaps per year.
    pub coldsnaps_per_year: f64,
    /// Cold-snap peak anomaly, °F (positive number; applied as a drop).
    pub coldsnap_amplitude_f: f64,
    /// Cold-snap duration, days.
    pub coldsnap_duration_days: u32,
}

impl Default for WeatherConfig {
    fn default() -> Self {
        WeatherConfig {
            temp_normals_f: BOSTON_TEMP_NORMALS_F,
            wind_normals_ms: WIND_NORMALS_MS,
            cloud_normals: CLOUD_NORMALS,
            diurnal_amplitude_f: DIURNAL_AMPLITUDE_F,
            temp_ar1: 0.92,
            temp_sigma_f: 1.1,
            wind_ar1: 0.85,
            wind_sigma_ms: 0.9,
            cloud_ar1: 0.90,
            cloud_sigma: 0.06,
            warming_offset_c: 0.0,
            heatwaves_per_year: 1.5,
            heatwave_amplitude_f: 10.0,
            heatwave_duration_days: 4,
            coldsnaps_per_year: 1.0,
            coldsnap_amplitude_f: 12.0,
            coldsnap_duration_days: 3,
        }
    }
}

impl WeatherConfig {
    /// Apply a uniform warming trend in °C (used by +2 °C / +4 °C stress
    /// scenarios).
    pub fn with_warming_c(mut self, c: f64) -> Self {
        self.warming_offset_c = c;
        self
    }

    /// Seasonal normal temperature at a given hour (smooth interpolation of
    /// mid-month anchors) plus the diurnal cycle, before noise.
    pub fn deterministic_temp_f(&self, calendar: &Calendar, hour: u64) -> f64 {
        let t = SimTime::from_hours(hour);
        let date = calendar.date_at(t);
        self.deterministic_temp_f_on(
            interp_monthly_on(&self.temp_normals_f, date),
            interp_monthly_on(&self.diurnal_amplitude_f, date),
            calendar.hour_of_day(t),
        )
    }

    /// [`Self::deterministic_temp_f`] on resolved fields: the day's
    /// interpolated normal and diurnal amplitude, and the hour of day.
    #[inline]
    pub fn deterministic_temp_f_on(
        &self,
        normal_f: f64,
        amplitude_f: f64,
        hour_of_day: u32,
    ) -> f64 {
        // Warmest around 15:00, coldest around 05:00.
        let phase = (hour_of_day as f64 - 15.0) / 24.0 * std::f64::consts::TAU;
        normal_f + amplitude_f * phase.cos() + self.warming_offset_c * 9.0 / 5.0
    }
}

/// A generated hourly weather path.
#[derive(Debug, Clone)]
pub struct WeatherPath {
    calendar: Calendar,
    /// Hourly outdoor dry-bulb temperature, °F.
    pub temp_f: Vec<f64>,
    /// Hourly wind speed, m/s.
    pub wind_ms: Vec<f64>,
    /// Hourly cloud-cover fraction in \[0,1\].
    pub cloud: Vec<f64>,
    /// The extreme events injected into the path.
    pub events: Vec<ExtremeEvent>,
}

impl WeatherPath {
    /// Generate `hours` of weather from the configuration and RNG hub.
    ///
    /// The path is a deterministic function of `(config, calendar, hub)`.
    /// It decomposes into four channel passes, each consuming its own
    /// named RNG stream (`climate.events/temp/wind/cloud`), so they run
    /// concurrently without changing a single draw: events + temperature on
    /// one side of the fork (temperature adds each hour's episodic anomaly,
    /// so it consumes the sampled events), wind ∥ cloud on the other. The
    /// path is bit-identical at every worker count; `RAYON_NUM_THREADS=1`
    /// runs the passes in order on the calling thread (pinned by the
    /// per-hour oracle test below and by the driver's golden determinism
    /// test).
    pub fn generate(
        config: &WeatherConfig,
        calendar: Calendar,
        hours: usize,
        hub: &RngHub,
    ) -> WeatherPath {
        let days = DayTable::new(&calendar, hours);
        let ((temp_f, events), wind_ms, cloud) = greener_simkit::par::join3(
            || {
                let mut event_rng = hub.stream("climate.events");
                let events = ExtremeEvent::sample_episodes(config, calendar, hours, &mut event_rng);
                let mut temp_rng = hub.stream("climate.temp");
                let temp_noise = Normal::new(0.0, config.temp_sigma_f).expect("temp sigma");
                let normal = interp_monthly_daily(&config.temp_normals_f, &days);
                let amplitude = interp_monthly_daily(&config.diurnal_amplitude_f, &days);
                let mut temp_f = Vec::with_capacity(hours);
                let mut ta = 0.0f64;
                for h in 0..hours {
                    ta = config.temp_ar1 * ta + temp_noise.sample(&mut temp_rng);
                    let episodic: f64 = events.iter().map(|e| e.anomaly_f(h as u64)).sum();
                    let det = config.deterministic_temp_f_on(
                        normal[h / 24],
                        amplitude[h / 24],
                        hour_of_day(h),
                    );
                    temp_f.push(det + ta + episodic);
                }
                (temp_f, events)
            },
            || {
                let mut wind_rng = hub.stream("climate.wind");
                let wind_noise = Normal::new(0.0, config.wind_sigma_ms).expect("wind sigma");
                let normal = interp_monthly_daily(&config.wind_normals_ms, &days);
                let mut wind_ms = Vec::with_capacity(hours);
                let mut wa = 0.0f64;
                for h in 0..hours {
                    wa = config.wind_ar1 * wa + wind_noise.sample(&mut wind_rng);
                    wind_ms.push((normal[h / 24] + wa).max(0.0));
                }
                wind_ms
            },
            || {
                let mut cloud_rng = hub.stream("climate.cloud");
                let cloud_noise = Normal::new(0.0, config.cloud_sigma).expect("cloud sigma");
                let normal = interp_monthly_daily(&config.cloud_normals, &days);
                let mut cloud = Vec::with_capacity(hours);
                let mut ca = 0.0f64;
                for h in 0..hours {
                    ca = config.cloud_ar1 * ca + cloud_noise.sample(&mut cloud_rng);
                    cloud.push((normal[h / 24] + ca).clamp(0.0, 1.0));
                }
                cloud
            },
        );
        WeatherPath {
            calendar,
            temp_f,
            wind_ms,
            cloud,
            events,
        }
    }

    /// The anchoring calendar.
    pub fn calendar(&self) -> &Calendar {
        &self.calendar
    }

    /// Number of hours in the path.
    pub fn hours(&self) -> usize {
        self.temp_f.len()
    }

    /// Temperature as an [`HourlySeries`].
    pub fn temp_series(&self) -> HourlySeries {
        HourlySeries::from_values(self.calendar, self.temp_f.clone())
    }

    /// Solar capacity factor proxy for a given hour: the product of solar
    /// elevation (day-of-year and hour-of-day dependent) and clear-sky
    /// fraction. Dimensionless in \[0,1\]; the grid model scales by installed
    /// capacity.
    pub fn solar_factor(&self, hour: usize) -> f64 {
        let t = SimTime::from_hours(hour as u64);
        self.solar_factor_on(
            hour,
            self.calendar.hour_of_day(t),
            self.calendar.year_fraction(t),
        )
    }

    /// [`Self::solar_factor`] at `hour` on resolved fields: its hour of
    /// day and year fraction.
    #[inline]
    pub fn solar_factor_on(&self, hour: usize, hour_of_day: u32, year_fraction: f64) -> f64 {
        let hod = hour_of_day as f64;
        // Solar elevation proxy: positive between ~6h and ~18h, peaking at
        // noon, with seasonal amplitude (longer/stronger days in summer).
        // Day length factor peaks late June (year fraction ~0.48).
        let season_phase = std::f64::consts::TAU * (year_fraction - 0.23);
        let seasonal = 0.62 + 0.38 * season_phase.sin().max(-1.0);
        let daylight = ((hod - 12.0) / 6.5 * std::f64::consts::FRAC_PI_2).cos();
        if daylight <= 0.0 {
            return 0.0;
        }
        let clear = 1.0 - 0.75 * self.cloud[hour];
        (daylight * seasonal * clear).clamp(0.0, 1.0)
    }

    /// Wind turbine capacity factor at a given hour, from a simplified
    /// power curve: cut-in 3 m/s, rated 12 m/s, cut-out 25 m/s.
    pub fn wind_factor(&self, hour: usize) -> f64 {
        wind_capacity_factor(self.wind_ms[hour])
    }
}

/// Simplified wind-turbine power curve → capacity factor in \[0,1\].
pub fn wind_capacity_factor(wind_ms: f64) -> f64 {
    const CUT_IN: f64 = 3.0;
    const RATED: f64 = 12.0;
    const CUT_OUT: f64 = 25.0;
    if !(CUT_IN..=CUT_OUT).contains(&wind_ms) {
        0.0
    } else if wind_ms >= RATED {
        1.0
    } else {
        // Cubic region between cut-in and rated.
        let x = (wind_ms.powi(3) - CUT_IN.powi(3)) / (RATED.powi(3) - CUT_IN.powi(3));
        x.clamp(0.0, 1.0)
    }
}

/// Smoothly interpolate a 12-entry mid-month anchor table at time `t`.
pub fn interp_monthly(table: &[f64; 12], calendar: &Calendar, t: SimTime) -> f64 {
    interp_monthly_on(table, calendar.date_at(t))
}

/// [`interp_monthly`] on a resolved civil date (the value is constant
/// within a day).
pub fn interp_monthly_on(table: &[f64; 12], date: CalDate) -> f64 {
    let dim = greener_simkit::calendar::days_in_month(date.year, date.month) as f64;
    // Position within the month in [0,1), measured from mid-month.
    let pos = (date.day as f64 - 0.5) / dim - 0.5;
    let m = date.month.number() as usize - 1;
    if pos >= 0.0 {
        let next = (m + 1) % 12;
        table[m] * (1.0 - pos) + table[next] * pos
    } else {
        let prev = (m + 11) % 12;
        table[m] * (1.0 + pos) + table[prev] * (-pos)
    }
}

/// [`interp_monthly`] resolved once for every day of `days`: index the
/// result with `hour / 24`.
pub fn interp_monthly_daily(table: &[f64; 12], days: &DayTable) -> Vec<f64> {
    days.days()
        .iter()
        .map(|d| interp_monthly_on(table, d.date))
        .collect()
}

/// Sample a Poisson count with small mean via inversion (used for
/// per-season episode counts; means are ≤ ~10 so this is exact and fast).
pub fn poisson_knuth<R: Rng>(rng: &mut R, mean: f64) -> u32 {
    if mean <= 0.0 {
        return 0;
    }
    let l = (-mean).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 1_000 {
            return k; // numeric guard; unreachable for sane means
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greener_simkit::calendar::CalDate;
    use greener_simkit::series::MonthlyAgg;

    fn cal2020() -> Calendar {
        Calendar::new(CalDate::new(2020, 1, 1))
    }

    fn year_path(seed: u64) -> WeatherPath {
        WeatherPath::generate(
            &WeatherConfig::default(),
            cal2020(),
            366 * 24,
            &RngHub::new(seed),
        )
    }

    #[test]
    fn generation_is_deterministic() {
        let a = year_path(1);
        let b = year_path(1);
        assert_eq!(a.temp_f, b.temp_f);
        assert_eq!(a.wind_ms, b.wind_ms);
        let c = year_path(2);
        assert_ne!(a.temp_f, c.temp_f);
    }

    /// The per-hour reference: every channel loop resolving the calendar
    /// each hour through [`WeatherConfig::deterministic_temp_f`] and
    /// [`interp_monthly`], sequentially, with no day table.
    fn reference_path(
        config: &WeatherConfig,
        calendar: Calendar,
        hours: usize,
        hub: &RngHub,
    ) -> WeatherPath {
        let mut event_rng = hub.stream("climate.events");
        let events = ExtremeEvent::sample_episodes(config, calendar, hours, &mut event_rng);
        let (mut temp_rng, mut wind_rng, mut cloud_rng) = (
            hub.stream("climate.temp"),
            hub.stream("climate.wind"),
            hub.stream("climate.cloud"),
        );
        let temp_noise = Normal::new(0.0, config.temp_sigma_f).unwrap();
        let wind_noise = Normal::new(0.0, config.wind_sigma_ms).unwrap();
        let cloud_noise = Normal::new(0.0, config.cloud_sigma).unwrap();
        let (mut temp_f, mut wind_ms, mut cloud) = (vec![], vec![], vec![]);
        let (mut ta, mut wa, mut ca) = (0.0f64, 0.0f64, 0.0f64);
        for h in 0..hours {
            let t = SimTime::from_hours(h as u64);
            ta = config.temp_ar1 * ta + temp_noise.sample(&mut temp_rng);
            let episodic: f64 = events.iter().map(|e| e.anomaly_f(h as u64)).sum();
            temp_f.push(config.deterministic_temp_f(&calendar, h as u64) + ta + episodic);
            wa = config.wind_ar1 * wa + wind_noise.sample(&mut wind_rng);
            wind_ms.push((interp_monthly(&config.wind_normals_ms, &calendar, t) + wa).max(0.0));
            ca = config.cloud_ar1 * ca + cloud_noise.sample(&mut cloud_rng);
            cloud.push((interp_monthly(&config.cloud_normals, &calendar, t) + ca).clamp(0.0, 1.0));
        }
        WeatherPath {
            calendar,
            temp_f,
            wind_ms,
            cloud,
            events,
        }
    }

    /// The day-resolved generator equals the per-hour reference bit for
    /// bit across a leap day and a year end, over a horizon ending
    /// mid-day; and `solar_factor_on` with day-resolved fields equals the
    /// per-hour `solar_factor`.
    #[test]
    fn day_resolved_generation_equals_per_hour_reference() {
        let config = WeatherConfig::default().with_warming_c(1.5);
        for start in [CalDate::new(2020, 2, 28), CalDate::new(2020, 12, 31)] {
            let cal = Calendar::new(start);
            let hours = 40 * 24 + 5;
            let hub = RngHub::new(29);
            let reference = reference_path(&config, cal, hours, &hub);
            let path = WeatherPath::generate(&config, cal, hours, &hub);
            assert_eq!(path.temp_f, reference.temp_f, "{start}");
            assert_eq!(path.wind_ms, reference.wind_ms, "{start}");
            assert_eq!(path.cloud, reference.cloud, "{start}");
            assert_eq!(path.events, reference.events, "{start}");
            let days = DayTable::new(&cal, hours);
            for h in 0..hours {
                let fraction = days.at_hour(h).year_fraction(hour_of_day(h));
                assert_eq!(
                    reference
                        .solar_factor_on(h, hour_of_day(h), fraction)
                        .to_bits(),
                    reference.solar_factor(h).to_bits(),
                    "{start} hour {h}"
                );
            }
        }
    }

    #[test]
    fn monthly_means_match_normals_shape() {
        let path = year_path(7);
        let rows = path.temp_series().monthly(MonthlyAgg::Mean);
        assert_eq!(rows.len(), 12);
        for (i, row) in rows.iter().enumerate() {
            let normal = BOSTON_TEMP_NORMALS_F[i];
            assert!(
                (row.value - normal).abs() < 6.0,
                "month {} mean {:.1} vs normal {:.1}",
                i + 1,
                row.value,
                normal
            );
        }
        // July warmer than January by a wide margin.
        assert!(rows[6].value - rows[0].value > 30.0);
    }

    #[test]
    fn diurnal_cycle_present() {
        let path = year_path(3);
        // Mid-June afternoon vs pre-dawn on the same day.
        let day = 165usize;
        let t15 = path.temp_f[day * 24 + 15];
        let t05 = path.temp_f[day * 24 + 5];
        assert!(
            t15 > t05,
            "afternoon {t15:.1}°F should exceed pre-dawn {t05:.1}°F"
        );
    }

    #[test]
    fn warming_offset_shifts_everything() {
        let base = year_path(5);
        let warm = WeatherPath::generate(
            &WeatherConfig::default().with_warming_c(2.0),
            cal2020(),
            366 * 24,
            &RngHub::new(5),
        );
        let dmean =
            greener_simkit::stats::mean(&warm.temp_f) - greener_simkit::stats::mean(&base.temp_f);
        // +2°C == +3.6°F.
        assert!((dmean - 3.6).abs() < 0.2, "mean shift {dmean:.2}");
    }

    #[test]
    fn wind_is_seasonal_and_nonnegative() {
        let path = year_path(11);
        assert!(path.wind_ms.iter().all(|&w| w >= 0.0));
        let rows =
            HourlySeries::from_values(cal2020(), path.wind_ms.clone()).monthly(MonthlyAgg::Mean);
        // Winter (Jan) windier than mid-summer (Jul).
        assert!(
            rows[0].value > rows[6].value + 1.0,
            "Jan {:.2} vs Jul {:.2}",
            rows[0].value,
            rows[6].value
        );
    }

    #[test]
    fn cloud_cover_bounded() {
        let path = year_path(13);
        assert!(path.cloud.iter().all(|&c| (0.0..=1.0).contains(&c)));
    }

    #[test]
    fn solar_factor_zero_at_night_peaks_midday() {
        let path = year_path(17);
        let day = 170usize; // mid June
        assert_eq!(path.solar_factor(day * 24 + 1), 0.0);
        let noon = path.solar_factor(day * 24 + 12);
        assert!(noon > 0.2, "noon solar factor {noon:.2}");
        // Summer noon beats winter noon on average over ten days.
        let summer: f64 = (165..175).map(|d| path.solar_factor(d * 24 + 12)).sum();
        let winter: f64 = (5..15).map(|d| path.solar_factor(d * 24 + 12)).sum();
        assert!(summer > winter);
    }

    #[test]
    fn wind_power_curve_regions() {
        assert_eq!(wind_capacity_factor(1.0), 0.0); // below cut-in
        assert_eq!(wind_capacity_factor(30.0), 0.0); // above cut-out
        assert_eq!(wind_capacity_factor(15.0), 1.0); // rated
        let mid = wind_capacity_factor(7.0);
        assert!(mid > 0.0 && mid < 1.0);
        // Monotone in the cubic region.
        assert!(wind_capacity_factor(9.0) > wind_capacity_factor(6.0));
    }

    #[test]
    fn interp_monthly_hits_midmonth_anchor() {
        let cal = cal2020();
        // Mid-January (day 16 of 31) should be ≈ the January anchor.
        let t = SimTime::from_days(15);
        let v = interp_monthly(&BOSTON_TEMP_NORMALS_F, &cal, t);
        assert!((v - BOSTON_TEMP_NORMALS_F[0]).abs() < 0.6);
    }

    #[test]
    fn poisson_mean_roughly_right() {
        let mut rng = RngHub::new(4).stream("p");
        let n = 4000;
        let total: u32 = (0..n).map(|_| poisson_knuth(&mut rng, 2.5)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 2.5).abs() < 0.15, "poisson mean {mean:.3}");
        assert_eq!(poisson_knuth(&mut rng, 0.0), 0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn temperature_path_is_physical(seed in 0u64..500) {
                let path = WeatherPath::generate(
                    &WeatherConfig::default(),
                    cal2020(),
                    60 * 24,
                    &RngHub::new(seed),
                );
                for &t in &path.temp_f {
                    // Winter Boston hourly temps stay within a sane band.
                    prop_assert!((-40.0..=120.0).contains(&t), "temp {t}");
                }
            }

            #[test]
            fn wind_factor_bounded(w in 0.0f64..40.0) {
                let f = wind_capacity_factor(w);
                prop_assert!((0.0..=1.0).contains(&f));
            }
        }
    }
}
