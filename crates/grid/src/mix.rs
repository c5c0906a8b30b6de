//! Regional demand and fuel-mix dispatch.
//!
//! The model dispatches six fuel categories against an hourly regional load:
//! wind and solar are weather-driven (must-take), nuclear is baseload with
//! spring/fall refueling derates, hydro follows spring melt, "other"
//! (refuse/wood/oil) is flat, and **gas is the residual marginal fuel** —
//! exactly the ISO-NE structure that produces the paper's seasonal green
//! share: windy springs push solar+wind above 8 % while calm, high-load
//! summers drop it toward 5 % (Fig. 2/3's x-axis).

use greener_climate::weather::interp_monthly_daily;
use greener_climate::WeatherPath;
use greener_simkit::calendar::{hour_of_day, Calendar, DayTable};
use greener_simkit::rng::RngHub;
use greener_simkit::series::HourlySeries;
use greener_simkit::time::SimTime;
use rand::Rng;

use crate::carbon;
use crate::price::{self, PriceConfig};

/// Fuel categories in the regional mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuelSource {
    /// Natural gas (marginal fuel).
    Gas,
    /// Nuclear baseload.
    Nuclear,
    /// Hydroelectric (including imports).
    Hydro,
    /// Onshore/offshore wind.
    Wind,
    /// Utility-scale solar.
    Solar,
    /// Everything else: refuse, wood, oil peakers.
    Other,
}

impl FuelSource {
    /// All categories, dispatch order irrelevant.
    pub const ALL: [FuelSource; 6] = [
        FuelSource::Gas,
        FuelSource::Nuclear,
        FuelSource::Hydro,
        FuelSource::Wind,
        FuelSource::Solar,
        FuelSource::Other,
    ];

    /// True for the paper's "sustainable fuel" definition (solar + wind).
    pub fn is_green(self) -> bool {
        matches!(self, FuelSource::Wind | FuelSource::Solar)
    }
}

/// Grid model configuration.
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Mean regional demand, MW.
    pub base_demand_mw: f64,
    /// Cooling-demand slope: extra MW per °F above 65 °F.
    pub cooling_mw_per_degf: f64,
    /// Heating-demand slope: extra MW per °F below 50 °F.
    pub heating_mw_per_degf: f64,
    /// Diurnal demand swing as a fraction of base (peak ≈ 18:00).
    pub diurnal_fraction: f64,
    /// Weekend demand reduction fraction.
    pub weekend_reduction: f64,
    /// Installed wind capacity, MW.
    pub wind_capacity_mw: f64,
    /// Installed solar capacity, MW.
    pub solar_capacity_mw: f64,
    /// Nuclear baseload, MW.
    pub nuclear_mw: f64,
    /// Mean hydro output, MW (scaled seasonally).
    pub hydro_mean_mw: f64,
    /// Flat "other" output, MW.
    pub other_mw: f64,
    /// Std-dev of multiplicative demand noise.
    pub demand_noise: f64,
    /// Price model parameters.
    pub price: PriceConfig,
    /// Multiplier on fossil emission factors (stress scenarios).
    pub fossil_emission_mult: f64,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            base_demand_mw: 13_000.0,
            cooling_mw_per_degf: 260.0,
            heating_mw_per_degf: 110.0,
            diurnal_fraction: 0.14,
            weekend_reduction: 0.07,
            wind_capacity_mw: 2_500.0,
            solar_capacity_mw: 2_000.0,
            nuclear_mw: 3_350.0,
            hydro_mean_mw: 900.0,
            other_mw: 800.0,
            demand_noise: 0.015,
            price: PriceConfig::default(),
            fossil_emission_mult: 1.0,
        }
    }
}

impl GridConfig {
    /// Hourly regional demand before noise, MW.
    pub fn deterministic_demand_mw(&self, calendar: &Calendar, hour: u64, temp_f: f64) -> f64 {
        let t = SimTime::from_hours(hour);
        self.deterministic_demand_mw_on(calendar.hour_of_day(t), calendar.is_weekend(t), temp_f)
    }

    /// [`Self::deterministic_demand_mw`] on resolved fields: the hour of
    /// day and the weekend flag.
    #[inline]
    pub fn deterministic_demand_mw_on(&self, hour_of_day: u32, weekend: bool, temp_f: f64) -> f64 {
        let mut d = self.base_demand_mw;
        d += self.cooling_mw_per_degf * (temp_f - 65.0).max(0.0);
        d += self.heating_mw_per_degf * (50.0 - temp_f).max(0.0);
        let phase = (hour_of_day as f64 - 18.0) / 24.0 * std::f64::consts::TAU;
        d *= 1.0 + self.diurnal_fraction * phase.cos();
        if weekend {
            d *= 1.0 - self.weekend_reduction;
        }
        d
    }

    /// Seasonal hydro availability multiplier (spring melt peak).
    pub fn hydro_seasonal(&self, calendar: &Calendar, hour: u64) -> f64 {
        self.hydro_seasonal_on(calendar.year_fraction(SimTime::from_hours(hour)))
    }

    /// [`Self::hydro_seasonal`] at a resolved year fraction `f`.
    #[inline]
    pub fn hydro_seasonal_on(&self, f: f64) -> f64 {
        // Peaks late April (f ≈ 0.31), trough early autumn.
        1.0 + 0.35 * (std::f64::consts::TAU * (f - 0.06)).sin()
    }

    /// Nuclear derate factor (refueling outages in shoulder seasons).
    pub fn nuclear_seasonal(&self, calendar: &Calendar, hour: u64) -> f64 {
        self.nuclear_seasonal_on(calendar.year_fraction(SimTime::from_hours(hour)))
    }

    /// [`Self::nuclear_seasonal`] at a resolved year fraction `f`.
    #[inline]
    pub fn nuclear_seasonal_on(&self, f: f64) -> f64 {
        // Mild derates around April and October refuelings.
        let spring = (-((f - 0.28) / 0.04).powi(2)).exp();
        let fall = (-((f - 0.79) / 0.04).powi(2)).exp();
        1.0 - 0.18 * spring - 0.12 * fall
    }
}

/// A generated hourly grid path.
#[derive(Debug, Clone)]
pub struct GridPath {
    calendar: Calendar,
    /// Regional demand, MW.
    pub demand_mw: Vec<f64>,
    /// Wind generation, MW.
    pub wind_mw: Vec<f64>,
    /// Solar generation, MW.
    pub solar_mw: Vec<f64>,
    /// Nuclear generation, MW.
    pub nuclear_mw: Vec<f64>,
    /// Hydro generation, MW.
    pub hydro_mw: Vec<f64>,
    /// Other generation, MW.
    pub other_mw: Vec<f64>,
    /// Gas generation (residual), MW.
    pub gas_mw: Vec<f64>,
    /// Locational marginal price, $/MWh.
    pub lmp_usd_mwh: Vec<f64>,
    /// Grid carbon intensity, kg CO₂ per MWh.
    pub ci_kg_mwh: Vec<f64>,
    /// Share of total generation from solar + wind, in \[0,1\].
    pub green_share: Vec<f64>,
}

/// One shard's worth of dispatched columns (a `GridPath` block without the
/// calendar).
struct GridBlock {
    demand_mw: Vec<f64>,
    wind_mw: Vec<f64>,
    solar_mw: Vec<f64>,
    nuclear_mw: Vec<f64>,
    hydro_mw: Vec<f64>,
    other_mw: Vec<f64>,
    gas_mw: Vec<f64>,
    lmp_usd_mwh: Vec<f64>,
    ci_kg_mwh: Vec<f64>,
    green_share: Vec<f64>,
}

impl GridBlock {
    fn with_capacity(n: usize) -> GridBlock {
        GridBlock {
            demand_mw: Vec::with_capacity(n),
            wind_mw: Vec::with_capacity(n),
            solar_mw: Vec::with_capacity(n),
            nuclear_mw: Vec::with_capacity(n),
            hydro_mw: Vec::with_capacity(n),
            other_mw: Vec::with_capacity(n),
            gas_mw: Vec::with_capacity(n),
            lmp_usd_mwh: Vec::with_capacity(n),
            ci_kg_mwh: Vec::with_capacity(n),
            green_share: Vec::with_capacity(n),
        }
    }
}

/// Hours per grid dispatch shard (one week, matching the trace shard
/// granularity). Unlike the trace shards this is *not* part of the path's
/// identity: shard edges only partition a pure per-hour computation, so any
/// shard size produces the identical path.
const GRID_SHARD_HOURS: usize = 7 * 24;

impl GridPath {
    /// Generate the grid path for the same horizon as `weather`
    /// (sequential reference schedule; see [`Self::generate_mode`]).
    pub fn generate(config: &GridConfig, weather: &WeatherPath, hub: &RngHub) -> GridPath {
        Self::generate_mode(config, weather, hub, false)
    }

    /// Generate the grid path, optionally dispatching week-blocks of hours
    /// in parallel.
    ///
    /// The only stochastic input is the hourly demand-noise stream, which
    /// is drawn up front in hour order (cheap); everything downstream is a
    /// pure function of `(config, weather, noise[h], h)`, so the hour
    /// blocks can be computed in any order — or concurrently — and
    /// concatenated in index order for a bit-identical path.
    pub fn generate_mode(
        config: &GridConfig,
        weather: &WeatherPath,
        hub: &RngHub,
        parallel: bool,
    ) -> GridPath {
        let calendar = *weather.calendar();
        let hours = weather.hours();
        let mut noise_rng = hub.stream("grid.demand-noise");
        let noise_u: Vec<f64> = (0..hours)
            .map(|_| noise_rng.gen_range(-1.0..1.0f64))
            .collect();

        let days = DayTable::new(&calendar, hours);
        let gas_usd_mmbtu = interp_monthly_daily(&config.price.gas_price_usd_mmbtu, &days);
        let shards = hours.div_ceil(GRID_SHARD_HOURS);
        let blocks = greener_simkit::par::sharded_map(parallel, shards, |s| {
            let lo = s * GRID_SHARD_HOURS;
            let hi = (lo + GRID_SHARD_HOURS).min(hours);
            Self::dispatch_hours(config, weather, &days, &gas_usd_mmbtu, &noise_u, lo, hi)
        });

        let mut path = GridPath {
            calendar,
            demand_mw: Vec::with_capacity(hours),
            wind_mw: Vec::with_capacity(hours),
            solar_mw: Vec::with_capacity(hours),
            nuclear_mw: Vec::with_capacity(hours),
            hydro_mw: Vec::with_capacity(hours),
            other_mw: Vec::with_capacity(hours),
            gas_mw: Vec::with_capacity(hours),
            lmp_usd_mwh: Vec::with_capacity(hours),
            ci_kg_mwh: Vec::with_capacity(hours),
            green_share: Vec::with_capacity(hours),
        };
        for b in blocks {
            path.demand_mw.extend_from_slice(&b.demand_mw);
            path.wind_mw.extend_from_slice(&b.wind_mw);
            path.solar_mw.extend_from_slice(&b.solar_mw);
            path.nuclear_mw.extend_from_slice(&b.nuclear_mw);
            path.hydro_mw.extend_from_slice(&b.hydro_mw);
            path.other_mw.extend_from_slice(&b.other_mw);
            path.gas_mw.extend_from_slice(&b.gas_mw);
            path.lmp_usd_mwh.extend_from_slice(&b.lmp_usd_mwh);
            path.ci_kg_mwh.extend_from_slice(&b.ci_kg_mwh);
            path.green_share.extend_from_slice(&b.green_share);
        }
        path
    }

    /// Dispatch hours `lo..hi` into a column block (pure; shard-safe).
    /// `days` covers the horizon and `gas_usd_mmbtu` holds each day's
    /// interpolated gas price.
    fn dispatch_hours(
        config: &GridConfig,
        weather: &WeatherPath,
        days: &DayTable,
        gas_usd_mmbtu: &[f64],
        noise_u: &[f64],
        lo: usize,
        hi: usize,
    ) -> GridBlock {
        let mut b = GridBlock::with_capacity(hi - lo);
        // `h` indexes four hour-aligned inputs and feeds the calendar math;
        // an iterator chain over one of them would only obscure that.
        #[allow(clippy::needless_range_loop)]
        for h in lo..hi {
            let day = days.at_hour(h);
            let hod = hour_of_day(h);
            let year_fraction = day.year_fraction(hod);
            let temp_f = weather.temp_f[h];
            let noise = 1.0 + config.demand_noise * noise_u[h];
            let demand = config.deterministic_demand_mw_on(hod, day.weekend, temp_f) * noise;

            let wind = config.wind_capacity_mw * weather.wind_factor(h);
            let solar = config.solar_capacity_mw * weather.solar_factor_on(h, hod, year_fraction);
            let nuclear = config.nuclear_mw * config.nuclear_seasonal_on(year_fraction);
            let hydro = config.hydro_mean_mw * config.hydro_seasonal_on(year_fraction);
            let other = config.other_mw;

            // Gas serves the residual; never negative (surplus is exported
            // at zero marginal gas).
            let non_gas = wind + solar + nuclear + hydro + other;
            let gas = (demand - non_gas).max(0.0);
            let total = non_gas + gas;

            let green = (wind + solar) / total;
            let utilization = demand / (config.base_demand_mw * 1.8);
            let lmp = price::lmp_usd_mwh_on(&config.price, gas_usd_mmbtu[h / 24], utilization);
            let ci = carbon::grid_intensity_kg_mwh(
                &[
                    (FuelSource::Gas, gas),
                    (FuelSource::Nuclear, nuclear),
                    (FuelSource::Hydro, hydro),
                    (FuelSource::Wind, wind),
                    (FuelSource::Solar, solar),
                    (FuelSource::Other, other),
                ],
                config.fossil_emission_mult,
            );

            b.demand_mw.push(demand);
            b.wind_mw.push(wind);
            b.solar_mw.push(solar);
            b.nuclear_mw.push(nuclear);
            b.hydro_mw.push(hydro);
            b.other_mw.push(other);
            b.gas_mw.push(gas);
            b.lmp_usd_mwh.push(lmp);
            b.ci_kg_mwh.push(ci);
            b.green_share.push(green);
        }
        b
    }

    /// The anchoring calendar.
    pub fn calendar(&self) -> &Calendar {
        &self.calendar
    }

    /// Number of hours.
    pub fn hours(&self) -> usize {
        self.demand_mw.len()
    }

    /// Mean carbon intensity (kg/MWh) over the forecast window
    /// `[from, from + window)`, clamped to the path's horizon. A routing
    /// tier reads this as a site's near-term carbon outlook: left-to-right
    /// summation over a fixed window, so the value is a pure function of
    /// `(path, from, window)` — deterministic at any thread count.
    ///
    /// # Panics
    /// If `window` is zero or `from` is past the horizon.
    pub fn window_mean_ci(&self, from: usize, window: usize) -> f64 {
        Self::window_mean(&self.ci_kg_mwh, from, window)
    }

    /// Mean locational marginal price ($/MWh) over the forecast window
    /// `[from, from + window)`, clamped to the horizon — the price
    /// counterpart of [`GridPath::window_mean_ci`].
    ///
    /// # Panics
    /// If `window` is zero or `from` is past the horizon.
    pub fn window_mean_price(&self, from: usize, window: usize) -> f64 {
        Self::window_mean(&self.lmp_usd_mwh, from, window)
    }

    fn window_mean(series: &[f64], from: usize, window: usize) -> f64 {
        assert!(window > 0, "forecast window must be at least one hour");
        assert!(
            from < series.len(),
            "window start {from} past horizon {}",
            series.len()
        );
        let end = (from + window).min(series.len());
        let slice = &series[from..end];
        slice.iter().sum::<f64>() / slice.len() as f64
    }

    /// Green share as a percentage series (Fig. 2/3 y₂-axis).
    pub fn green_share_pct_series(&self) -> HourlySeries {
        HourlySeries::from_values(
            self.calendar,
            self.green_share.iter().map(|g| g * 100.0).collect(),
        )
    }

    /// LMP as an [`HourlySeries`] (Fig. 3 y₁-axis).
    pub fn lmp_series(&self) -> HourlySeries {
        HourlySeries::from_values(self.calendar, self.lmp_usd_mwh.clone())
    }

    /// Carbon intensity as an [`HourlySeries`].
    pub fn ci_series(&self) -> HourlySeries {
        HourlySeries::from_values(self.calendar, self.ci_kg_mwh.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greener_climate::WeatherConfig;
    use greener_simkit::calendar::CalDate;
    use greener_simkit::series::MonthlyAgg;

    fn year_grid(seed: u64) -> GridPath {
        let cal = Calendar::new(CalDate::new(2020, 1, 1));
        let hub = RngHub::new(seed);
        let weather = WeatherPath::generate(&WeatherConfig::default(), cal, 366 * 24, &hub);
        GridPath::generate(&GridConfig::default(), &weather, &hub)
    }

    #[test]
    fn generation_balances_demand_when_gas_positive() {
        let g = year_grid(1);
        for h in (0..g.hours()).step_by(173) {
            let total = g.wind_mw[h]
                + g.solar_mw[h]
                + g.nuclear_mw[h]
                + g.hydro_mw[h]
                + g.other_mw[h]
                + g.gas_mw[h];
            if g.gas_mw[h] > 0.0 {
                assert!(
                    (total - g.demand_mw[h]).abs() < 1e-6,
                    "hour {h}: total {total} vs demand {}",
                    g.demand_mw[h]
                );
            } else {
                assert!(total >= g.demand_mw[h] - 1e-6);
            }
        }
    }

    #[test]
    fn green_share_spring_exceeds_summer() {
        let g = year_grid(2);
        let rows = g.green_share_pct_series().monthly(MonthlyAgg::Mean);
        let spring: f64 = (2..5).map(|i| rows[i].value).sum::<f64>() / 3.0; // Mar-May
        let summer: f64 = (5..8).map(|i| rows[i].value).sum::<f64>() / 3.0; // Jun-Aug
        assert!(
            spring > summer + 1.5,
            "spring {spring:.2}% vs summer {summer:.2}%"
        );
        // Bands loosely matching Fig. 2's 4.5–8.5% axis.
        assert!(spring > 6.0 && spring < 12.0, "spring {spring:.2}%");
        assert!(summer > 3.0 && summer < 7.0, "summer {summer:.2}%");
    }

    #[test]
    fn summer_demand_exceeds_spring() {
        let g = year_grid(3);
        let rows =
            HourlySeries::from_values(*g.calendar(), g.demand_mw.clone()).monthly(MonthlyAgg::Mean);
        let apr = rows[3].value;
        let jul = rows[6].value;
        assert!(jul > apr * 1.1, "Jul {jul:.0} MW vs Apr {apr:.0} MW");
    }

    #[test]
    fn price_spring_is_cheapest_season() {
        let g = year_grid(4);
        let rows = g.lmp_series().monthly(MonthlyAgg::Mean);
        let spring = (rows[2].value + rows[3].value + rows[4].value) / 3.0;
        let winter = (rows[0].value + rows[1].value + rows[11].value) / 3.0;
        let summer = (rows[5].value + rows[6].value + rows[7].value) / 3.0;
        assert!(spring < winter, "spring {spring:.1} vs winter {winter:.1}");
        assert!(spring < summer, "spring {spring:.1} vs summer {summer:.1}");
        // Fig. 3 bands: spring $20–25, winter up to ~$45–50.
        assert!(spring > 15.0 && spring < 30.0, "spring {spring:.1}");
        assert!(winter > 30.0 && winter < 60.0, "winter {winter:.1}");
    }

    #[test]
    fn price_anticorrelates_with_green_share_monthly() {
        let g = year_grid(5);
        let lmp: Vec<f64> = g
            .lmp_series()
            .monthly(MonthlyAgg::Mean)
            .iter()
            .map(|r| r.value)
            .collect();
        let green: Vec<f64> = g
            .green_share_pct_series()
            .monthly(MonthlyAgg::Mean)
            .iter()
            .map(|r| r.value)
            .collect();
        let r = greener_simkit::stats::pearson(&lmp, &green);
        assert!(r < -0.3, "expected inverse price↔green, r = {r:.2}");
    }

    #[test]
    fn carbon_intensity_within_iso_ne_band() {
        let g = year_grid(6);
        let mean_ci = greener_simkit::stats::mean(&g.ci_kg_mwh);
        assert!(
            (150.0..450.0).contains(&mean_ci),
            "mean grid CI {mean_ci:.0} kg/MWh"
        );
    }

    #[test]
    fn fossil_mult_raises_ci() {
        let cal = Calendar::new(CalDate::new(2020, 1, 1));
        let hub = RngHub::new(9);
        let weather = WeatherPath::generate(&WeatherConfig::default(), cal, 90 * 24, &hub);
        let base = GridPath::generate(&GridConfig::default(), &weather, &hub);
        let shocked = GridPath::generate(
            &GridConfig {
                fossil_emission_mult: 1.5,
                ..GridConfig::default()
            },
            &weather,
            &hub,
        );
        assert!(
            greener_simkit::stats::mean(&shocked.ci_kg_mwh)
                > greener_simkit::stats::mean(&base.ci_kg_mwh) * 1.2
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = year_grid(7);
        let b = year_grid(7);
        assert_eq!(a.lmp_usd_mwh, b.lmp_usd_mwh);
        assert_eq!(a.green_share, b.green_share);
    }

    #[test]
    fn parallel_generation_is_bit_identical() {
        let cal = Calendar::new(CalDate::new(2020, 1, 1));
        for seed in [3u64, 20220106] {
            let hub = RngHub::new(seed);
            // 100 days: full weeks plus a partial final shard.
            let weather = WeatherPath::generate(&WeatherConfig::default(), cal, 100 * 24, &hub);
            let seq = GridPath::generate_mode(&GridConfig::default(), &weather, &hub, false);
            let par = GridPath::generate_mode(&GridConfig::default(), &weather, &hub, true);
            assert_eq!(seq.demand_mw, par.demand_mw);
            assert_eq!(seq.gas_mw, par.gas_mw);
            assert_eq!(seq.lmp_usd_mwh, par.lmp_usd_mwh);
            assert_eq!(seq.ci_kg_mwh, par.ci_kg_mwh);
            assert_eq!(seq.green_share, par.green_share);
        }
    }

    /// The day-resolved dispatch equals a per-hour reference built from
    /// the public per-hour functions (`deterministic_demand_mw`,
    /// `solar_factor`, `nuclear_seasonal`, `hydro_seasonal`,
    /// `lmp_usd_mwh`), bit for bit, across a leap day and a year end.
    #[test]
    fn day_resolved_dispatch_equals_per_hour_reference() {
        let config = GridConfig::default();
        for start in [CalDate::new(2020, 2, 28), CalDate::new(2020, 12, 31)] {
            let cal = Calendar::new(start);
            let hub = RngHub::new(41);
            let weather = WeatherPath::generate(&WeatherConfig::default(), cal, 40 * 24 + 5, &hub);
            let path = GridPath::generate(&config, &weather, &hub);
            let mut noise_rng = hub.stream("grid.demand-noise");
            for h in 0..weather.hours() {
                let noise = 1.0 + config.demand_noise * noise_rng.gen_range(-1.0..1.0f64);
                let demand =
                    config.deterministic_demand_mw(&cal, h as u64, weather.temp_f[h]) * noise;
                let solar = config.solar_capacity_mw * weather.solar_factor(h);
                let nuclear = config.nuclear_mw * config.nuclear_seasonal(&cal, h as u64);
                let hydro = config.hydro_mean_mw * config.hydro_seasonal(&cal, h as u64);
                let utilization = demand / (config.base_demand_mw * 1.8);
                let lmp = price::lmp_usd_mwh(&config.price, &cal, h as u64, utilization);
                let bits = |v: f64| v.to_bits();
                assert_eq!(bits(path.demand_mw[h]), bits(demand), "{start} hour {h}");
                assert_eq!(bits(path.solar_mw[h]), bits(solar), "{start} hour {h}");
                assert_eq!(bits(path.nuclear_mw[h]), bits(nuclear), "{start} hour {h}");
                assert_eq!(bits(path.hydro_mw[h]), bits(hydro), "{start} hour {h}");
                assert_eq!(bits(path.lmp_usd_mwh[h]), bits(lmp), "{start} hour {h}");
            }
        }
    }

    #[test]
    fn fuel_source_green_flags() {
        assert!(FuelSource::Wind.is_green());
        assert!(FuelSource::Solar.is_green());
        assert!(!FuelSource::Gas.is_green());
        assert!(!FuelSource::Nuclear.is_green());
        assert_eq!(FuelSource::ALL.len(), 6);
    }
}
