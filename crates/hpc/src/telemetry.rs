//! Hourly telemetry.
//!
//! Section IV-B argues facilities should provide "the central
//! infrastructure, user interfaces, and analytical tools / instrumentation /
//! logging" for energy reporting. [`TelemetryLog`] is that instrumentation
//! for the simulated cluster: one frame per hour with power, environment,
//! grid and scheduler observables, plus the series/monthly views every
//! figure is built from.
//!
//! [`TelemetryFrame`] assembly lives behind [`TelemetryProbe`]: the driver
//! emits one [`HourObservation`] per simulated hour (plain scalars it has
//! already computed for its aggregate accounting), and only a run that
//! actually watches hourly telemetry pays for turning those scalars into
//! frames and growing the log.

use greener_simkit::calendar::Calendar;
use greener_simkit::obs::Probe;
use greener_simkit::series::{HourlySeries, MonthlyAgg, MonthlyRow};
use greener_simkit::time::HOUR;
use greener_simkit::units::Energy;

/// One hour of observations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TelemetryFrame {
    /// Hour index since simulation start.
    pub hour: u64,
    /// Outdoor temperature, °F.
    pub temp_f: f64,
    /// Mean IT power over the hour, watts.
    pub it_power_w: f64,
    /// Mean cooling power over the hour, watts.
    pub cooling_power_w: f64,
    /// Mean total facility power, watts.
    pub total_power_w: f64,
    /// Energy purchased this hour, kWh.
    pub energy_kwh: f64,
    /// Grid green share in \[0,1\].
    pub green_share: f64,
    /// Locational marginal price, $/MWh.
    pub lmp_usd_mwh: f64,
    /// Grid carbon intensity, kg/MWh.
    pub ci_kg_mwh: f64,
    /// Carbon emitted this hour, kg.
    pub carbon_kg: f64,
    /// Energy cost this hour, $.
    pub cost_usd: f64,
    /// Cooling water used this hour, litres.
    pub water_l: f64,
    /// Jobs waiting in queue at the top of the hour.
    pub queue_len: u32,
    /// GPUs allocated at the top of the hour.
    pub running_gpus: u32,
    /// GPU-count utilization in \[0,1\].
    pub gpu_utilization: f64,
    /// Facility PUE this hour.
    pub pue: f64,
    /// True if the cooling plant was saturated at any point this hour.
    pub cooling_saturated: bool,
}

/// One simulated hour as the driver's event loop observed it — the
/// *hourly frame context* observation point.
///
/// Everything here is a scalar the driver computes anyway for its running
/// aggregates; the expensive part of hourly telemetry (assembling
/// [`TelemetryFrame`]s and growing the log vector) happens only inside
/// [`TelemetryProbe`], so runs that do not watch telemetry skip it
/// entirely. Power fields are carried as *energies over the hour*; the
/// probe derives mean watts and PUE exactly the way the driver's inline
/// frame assembly used to, keeping the recorded bits identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HourObservation {
    /// Hour index since simulation start (this observation closes it).
    pub hour: u64,
    /// Outdoor temperature over the hour, °F.
    pub temp_f: f64,
    /// IT energy consumed this hour.
    pub it_energy: Energy,
    /// Cooling energy consumed this hour.
    pub cooling_energy: Energy,
    /// Energy purchased from the grid this hour (after any storage
    /// strategy).
    pub purchased: Energy,
    /// Grid green share in \[0,1\].
    pub green_share: f64,
    /// Locational marginal price, $/MWh.
    pub lmp_usd_mwh: f64,
    /// Grid carbon intensity, kg/MWh.
    pub ci_kg_mwh: f64,
    /// Carbon emitted this hour, kg.
    pub carbon_kg: f64,
    /// Energy cost this hour, $.
    pub cost_usd: f64,
    /// Cooling water used this hour, litres.
    pub water_l: f64,
    /// Jobs waiting in queue at the top of the hour.
    pub queue_len: u32,
    /// GPUs allocated at the top of the hour.
    pub running_gpus: u32,
    /// GPU-count utilization in \[0,1\].
    pub gpu_utilization: f64,
    /// True if the cooling plant was saturated at any point this hour.
    pub cooling_saturated: bool,
}

impl HourObservation {
    /// Mean IT power over the hour, watts.
    pub fn it_power_w(&self) -> f64 {
        self.it_energy.value() / HOUR as f64
    }

    /// Mean cooling power over the hour, watts.
    pub fn cooling_power_w(&self) -> f64 {
        self.cooling_energy.value() / HOUR as f64
    }

    /// Facility PUE this hour (NaN for an idle hour). Every consumer of
    /// hourly PUE — frame assembly and the aggregate accumulators — must
    /// go through this one definition so their numbers stay bit-identical.
    pub fn pue(&self) -> f64 {
        let it_w = self.it_power_w();
        if it_w > 0.0 {
            (it_w + self.cooling_power_w()) / it_w
        } else {
            f64::NAN
        }
    }
}

/// The probe that materializes hourly telemetry: assembles one
/// [`TelemetryFrame`] per observed [`HourObservation`] and appends it to a
/// [`TelemetryLog`].
#[derive(Debug, Clone)]
pub struct TelemetryProbe {
    log: TelemetryLog,
}

impl TelemetryProbe {
    /// An empty probe anchored on `calendar`.
    pub fn new(calendar: Calendar) -> TelemetryProbe {
        TelemetryProbe {
            log: TelemetryLog::new(calendar),
        }
    }

    /// Pre-size the frame vector for a known horizon.
    pub fn with_capacity(calendar: Calendar, hours: usize) -> TelemetryProbe {
        let mut probe = TelemetryProbe::new(calendar);
        probe.log.frames.reserve_exact(hours);
        probe
    }

    /// Consume the probe and return the assembled log.
    pub fn into_log(self) -> TelemetryLog {
        self.log
    }
}

impl Probe<HourObservation> for TelemetryProbe {
    fn observe(&mut self, o: &HourObservation) {
        let it_w = o.it_power_w();
        let cool_w = o.cooling_power_w();
        self.log.push(TelemetryFrame {
            hour: o.hour,
            temp_f: o.temp_f,
            it_power_w: it_w,
            cooling_power_w: cool_w,
            total_power_w: it_w + cool_w,
            energy_kwh: o.purchased.kwh(),
            green_share: o.green_share,
            lmp_usd_mwh: o.lmp_usd_mwh,
            ci_kg_mwh: o.ci_kg_mwh,
            carbon_kg: o.carbon_kg,
            cost_usd: o.cost_usd,
            water_l: o.water_l,
            queue_len: o.queue_len,
            running_gpus: o.running_gpus,
            gpu_utilization: o.gpu_utilization,
            pue: o.pue(),
            cooling_saturated: o.cooling_saturated,
        });
    }
}

/// Append-only telemetry store.
#[derive(Debug, Clone)]
pub struct TelemetryLog {
    calendar: Calendar,
    frames: Vec<TelemetryFrame>,
}

impl TelemetryLog {
    /// An empty log anchored on `calendar`.
    pub fn new(calendar: Calendar) -> TelemetryLog {
        TelemetryLog {
            calendar,
            frames: Vec::new(),
        }
    }

    /// Append one frame (hours must arrive in order).
    pub fn push(&mut self, frame: TelemetryFrame) {
        debug_assert!(
            self.frames.last().is_none_or(|f| f.hour < frame.hour),
            "telemetry hours must be strictly increasing"
        );
        self.frames.push(frame);
    }

    /// All frames.
    pub fn frames(&self) -> &[TelemetryFrame] {
        &self.frames
    }

    /// Number of recorded hours.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The anchoring calendar.
    pub fn calendar(&self) -> &Calendar {
        &self.calendar
    }

    /// Extract any field as an hourly series.
    pub fn series_of(&self, f: impl Fn(&TelemetryFrame) -> f64) -> HourlySeries {
        HourlySeries::from_values(self.calendar, self.frames.iter().map(f).collect())
    }

    /// Monthly mean total power in kW (Fig. 2/4/5 y-axis).
    pub fn monthly_power_kw(&self) -> Vec<MonthlyRow> {
        self.series_of(|f| f.total_power_w / 1_000.0)
            .monthly(MonthlyAgg::Mean)
    }

    /// Monthly mean green share, percent (Fig. 2/3 y₂-axis).
    pub fn monthly_green_pct(&self) -> Vec<MonthlyRow> {
        self.series_of(|f| f.green_share * 100.0)
            .monthly(MonthlyAgg::Mean)
    }

    /// Monthly mean LMP, $/MWh (Fig. 3 y₁-axis).
    pub fn monthly_lmp(&self) -> Vec<MonthlyRow> {
        self.series_of(|f| f.lmp_usd_mwh).monthly(MonthlyAgg::Mean)
    }

    /// Monthly mean temperature, °F (Fig. 4 x-axis).
    pub fn monthly_temp_f(&self) -> Vec<MonthlyRow> {
        self.series_of(|f| f.temp_f).monthly(MonthlyAgg::Mean)
    }

    /// Total energy, kWh.
    pub fn total_energy_kwh(&self) -> f64 {
        self.frames.iter().map(|f| f.energy_kwh).sum()
    }

    /// Total carbon, kg.
    pub fn total_carbon_kg(&self) -> f64 {
        self.frames.iter().map(|f| f.carbon_kg).sum()
    }

    /// Total cost, $.
    pub fn total_cost_usd(&self) -> f64 {
        self.frames.iter().map(|f| f.cost_usd).sum()
    }

    /// Total water, litres.
    pub fn total_water_l(&self) -> f64 {
        self.frames.iter().map(|f| f.water_l).sum()
    }

    /// Fraction of hours with saturated cooling (shared definition:
    /// [`crate::cooling::saturation_fraction`]).
    pub fn cooling_saturation_fraction(&self) -> f64 {
        crate::cooling::saturation_fraction(
            self.frames.iter().filter(|f| f.cooling_saturated).count(),
            self.frames.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greener_simkit::calendar::CalDate;

    fn log_with(hours: usize) -> TelemetryLog {
        let cal = Calendar::new(CalDate::new(2020, 1, 1));
        let mut log = TelemetryLog::new(cal);
        for h in 0..hours {
            log.push(TelemetryFrame {
                hour: h as u64,
                temp_f: 30.0 + h as f64 * 0.01,
                it_power_w: 200_000.0,
                cooling_power_w: 50_000.0,
                total_power_w: 250_000.0,
                energy_kwh: 250.0,
                green_share: 0.06,
                lmp_usd_mwh: 30.0,
                ci_kg_mwh: 300.0,
                carbon_kg: 75.0,
                cost_usd: 7.5,
                water_l: 300.0,
                queue_len: 3,
                running_gpus: 400,
                gpu_utilization: 0.625,
                pue: 1.25,
                cooling_saturated: h % 10 == 0,
            });
        }
        log
    }

    #[test]
    fn totals_accumulate() {
        let log = log_with(100);
        assert_eq!(log.len(), 100);
        assert!((log.total_energy_kwh() - 25_000.0).abs() < 1e-9);
        assert!((log.total_carbon_kg() - 7_500.0).abs() < 1e-9);
        assert!((log.total_cost_usd() - 750.0).abs() < 1e-9);
        assert!((log.total_water_l() - 30_000.0).abs() < 1e-9);
    }

    #[test]
    fn monthly_views_have_right_units() {
        let log = log_with(31 * 24);
        let p = log.monthly_power_kw();
        assert_eq!(p.len(), 1);
        assert!((p[0].value - 250.0).abs() < 1e-9, "kW conversion");
        let g = log.monthly_green_pct();
        assert!((g[0].value - 6.0).abs() < 1e-9, "percent conversion");
    }

    #[test]
    fn saturation_fraction() {
        let log = log_with(100);
        assert!((log.cooling_saturation_fraction() - 0.1).abs() < 1e-9);
        assert_eq!(
            TelemetryLog::new(*log.calendar()).cooling_saturation_fraction(),
            0.0
        );
    }

    #[test]
    fn series_extraction() {
        let log = log_with(48);
        let temps = log.series_of(|f| f.temp_f);
        assert_eq!(temps.len(), 48);
        assert!(temps.at(47) > temps.at(0));
    }

    #[test]
    fn probe_assembles_frames_like_inline_code() {
        let cal = Calendar::new(CalDate::new(2020, 1, 1));
        let mut probe = TelemetryProbe::with_capacity(cal, 2);
        let base = HourObservation {
            hour: 0,
            temp_f: 41.0,
            it_energy: Energy(200_000.0 * 3_600.0),
            cooling_energy: Energy(50_000.0 * 3_600.0),
            purchased: Energy::from_kwh(250.0),
            green_share: 0.06,
            lmp_usd_mwh: 30.0,
            ci_kg_mwh: 300.0,
            carbon_kg: 75.0,
            cost_usd: 7.5,
            water_l: 300.0,
            queue_len: 3,
            running_gpus: 400,
            gpu_utilization: 0.625,
            cooling_saturated: false,
        };
        probe.observe(&base);
        probe.observe(&HourObservation { hour: 1, ..base });
        let log = probe.into_log();
        assert_eq!(log.len(), 2);
        let f = &log.frames()[0];
        assert!((f.it_power_w - 200_000.0).abs() < 1e-9);
        assert!((f.cooling_power_w - 50_000.0).abs() < 1e-9);
        assert!((f.total_power_w - 250_000.0).abs() < 1e-9);
        assert!((f.pue - 1.25).abs() < 1e-12);
        assert!((f.energy_kwh - 250.0).abs() < 1e-9);
        assert_eq!(f.queue_len, 3);
    }

    #[test]
    fn probe_pue_is_nan_for_idle_hour() {
        let cal = Calendar::new(CalDate::new(2020, 1, 1));
        let mut probe = TelemetryProbe::new(cal);
        probe.observe(&HourObservation {
            hour: 0,
            temp_f: 41.0,
            it_energy: Energy::ZERO,
            cooling_energy: Energy::ZERO,
            purchased: Energy::ZERO,
            green_share: 0.06,
            lmp_usd_mwh: 30.0,
            ci_kg_mwh: 300.0,
            carbon_kg: 0.0,
            cost_usd: 0.0,
            water_l: 0.0,
            queue_len: 0,
            running_gpus: 0,
            gpu_utilization: 0.0,
            cooling_saturated: false,
        });
        assert!(probe.into_log().frames()[0].pue.is_nan());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    #[cfg(debug_assertions)]
    fn out_of_order_hours_panic() {
        let cal = Calendar::new(CalDate::new(2020, 1, 1));
        let mut log = TelemetryLog::new(cal);
        log.push(TelemetryFrame {
            hour: 5,
            ..TelemetryFrame::default()
        });
        log.push(TelemetryFrame {
            hour: 5,
            ..TelemetryFrame::default()
        });
    }
}
