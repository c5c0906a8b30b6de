//! The run-observation layer: probes, the [`Observe`] spec and the
//! [`RunOutput`] report surface.
//!
//! The paper's experiments each consume a *different slice* of a run —
//! the figures need hourly telemetry series, the policy comparisons need
//! job statistics and carbon totals, the battery/purchasing studies need
//! the purchase ledger — so the driver's replay loop does not hard-code
//! any of that assembly. Instead it emits three kinds of typed
//! observation points to a statically-composed probe set
//! (see [`greener_simkit::obs`]):
//!
//! * [`HourObservation`] — the hourly frame context, one per simulated
//!   hour (re-exported from `greener_hpc`, which owns frame assembly);
//! * [`JobPoint`] — job submit / start / finish;
//! * [`PurchasePoint`] — one energy purchase settled through the
//!   purchasing strategy.
//!
//! Callers pick what they observe with an [`Observe`] spec, and
//! `SimDriver::run_observed` returns one [`RunOutput`] whose optional
//! parts mirror the spec. Aggregate totals ([`RunAggregates`]) are always
//! produced, at O(1) memory: runs that need only totals (ablation and
//! stress sweeps, grid searches, the golden bit-pins, perf smoke) skip
//! per-frame vector growth and job-record retention entirely.
//!
//! # Probes are decision-invisible
//!
//! This is the rule that makes the whole layer sound: probes *observe*
//! borrowed points and have no channel back into the replay loop, so the
//! dispatch decisions and RNG draws cannot depend on what is watched.
//! Every probe composition therefore observes bit-identical numbers —
//! the driver's golden determinism test pins the full set against the
//! aggregates-only fast path, and a property test repeats the comparison
//! across random scenarios. When adding a probe, keep it that way: take
//! everything you need from the observation point, never reach into
//! scheduler state.

use greener_grid::ledger::{PurchaseLedger, PurchaseRecord};
use greener_sched::DepthStats;
use greener_simkit::obs::Probe;
use greener_simkit::time::SimTime;
use greener_simkit::units::Energy;
use greener_workload::{Job, JobId};

use crate::driver::{JobRecord, JobStats};
use crate::strategy::HourSettlement;

pub use greener_hpc::telemetry::{HourObservation, TelemetryProbe};
pub use greener_hpc::TelemetryLog;

/// A job-lifecycle observation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobPoint {
    /// A job entered the waiting queue.
    Submitted {
        /// The submitted job.
        job: Job,
        /// Submission time.
        time: SimTime,
        /// Queue depth right after the push.
        queue_len: u32,
    },
    /// A queued job was allocated and started running.
    Started {
        /// Job id.
        id: JobId,
        /// Start time.
        time: SimTime,
    },
    /// A running job completed; the full accounting record is final.
    Finished(JobRecord),
}

/// One hour of energy purchase settled through the purchasing strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PurchasePoint {
    /// The ledger record (energy, price, carbon intensity, green share).
    pub record: PurchaseRecord,
    /// How the strategy split the hour between grid and battery.
    pub settle: HourSettlement,
}

/// The bound the driver's replay loop places on a probe set: one observer
/// for each point type the loop emits. Satisfied by every built-in probe
/// and by any tuple/`Option` composition of them (each built-in probe
/// implements a no-op observer for the point types it ignores).
pub trait RunProbes: Probe<HourObservation> + Probe<JobPoint> + Probe<PurchasePoint> {}

impl<T> RunProbes for T where T: Probe<HourObservation> + Probe<JobPoint> + Probe<PurchasePoint> {}

// `TelemetryProbe` lives in `greener-hpc` next to the frames it assembles;
// it only watches hours.
impl Probe<JobPoint> for TelemetryProbe {
    #[inline(always)]
    fn observe(&mut self, _point: &JobPoint) {}
}

impl Probe<PurchasePoint> for TelemetryProbe {
    #[inline(always)]
    fn observe(&mut self, _point: &PurchasePoint) {}
}

/// Probe that retains the hour-by-hour purchase ledger.
#[derive(Debug, Clone, Default)]
pub struct LedgerProbe {
    ledger: PurchaseLedger,
}

impl LedgerProbe {
    /// An empty ledger probe.
    pub fn new() -> LedgerProbe {
        LedgerProbe::default()
    }

    /// Consume the probe and return the assembled ledger.
    pub fn into_ledger(self) -> PurchaseLedger {
        self.ledger
    }
}

impl Probe<PurchasePoint> for LedgerProbe {
    fn observe(&mut self, point: &PurchasePoint) {
        self.ledger.record(point.record);
    }
}

impl Probe<HourObservation> for LedgerProbe {
    #[inline(always)]
    fn observe(&mut self, _point: &HourObservation) {}
}

impl Probe<JobPoint> for LedgerProbe {
    #[inline(always)]
    fn observe(&mut self, _point: &JobPoint) {}
}

/// Probe that accumulates job statistics, optionally retaining the full
/// per-job records.
///
/// In stats-only mode it keeps one wait and one slowdown sample per
/// completed job (16 bytes) instead of the whole [`JobRecord`], and the
/// resulting [`JobStats`] are bit-identical to summarizing retained
/// records: the samples are computed from the same record, in the same
/// completion order, by the same arithmetic.
#[derive(Debug, Clone)]
pub struct JobsProbe {
    waits: Vec<f64>,
    slowdowns: Vec<f64>,
    gpu_hours: f64,
    records: Option<Vec<JobRecord>>,
}

impl JobsProbe {
    /// Aggregate statistics only — no job-record retention.
    pub fn stats_only() -> JobsProbe {
        JobsProbe {
            waits: Vec::new(),
            slowdowns: Vec::new(),
            gpu_hours: 0.0,
            records: None,
        }
    }

    /// Retain full per-job records too, pre-sized for `capacity` jobs.
    pub fn with_records(capacity: usize) -> JobsProbe {
        JobsProbe {
            records: Some(Vec::with_capacity(capacity)),
            ..JobsProbe::stats_only()
        }
    }

    /// Finalize into [`JobStats`] (plus the retained records, if any).
    ///
    /// `submitted` and `unfinished` come from the driver (they describe
    /// jobs that never finished, which this probe never observed), and
    /// `slo_wait_hours` is the scenario's violation threshold.
    pub fn finish(
        self,
        submitted: usize,
        unfinished: usize,
        slo_wait_hours: f64,
    ) -> (JobStats, Option<Vec<JobRecord>>) {
        if self.waits.is_empty() {
            return (
                JobStats {
                    submitted,
                    unfinished,
                    ..JobStats::default()
                },
                self.records,
            );
        }
        let violations = self.waits.iter().filter(|&&w| w > slo_wait_hours).count();
        let stats = JobStats {
            submitted,
            completed: self.waits.len(),
            unfinished,
            mean_wait_hours: greener_simkit::stats::mean(&self.waits),
            p95_wait_hours: greener_simkit::stats::quantile(&self.waits, 0.95),
            mean_slowdown: greener_simkit::stats::mean(&self.slowdowns),
            slo_violations: violations,
            slo_violation_fraction: violations as f64 / self.waits.len() as f64,
            gpu_hours_completed: self.gpu_hours,
        };
        (stats, self.records)
    }
}

impl Probe<JobPoint> for JobsProbe {
    fn observe(&mut self, point: &JobPoint) {
        if let JobPoint::Finished(rec) = point {
            self.waits.push(rec.wait_hours());
            self.slowdowns.push(rec.slowdown());
            self.gpu_hours += rec.work_gpu_hours;
            if let Some(records) = &mut self.records {
                records.push(*rec);
            }
        }
    }
}

impl Probe<HourObservation> for JobsProbe {
    #[inline(always)]
    fn observe(&mut self, _point: &HourObservation) {}
}

impl Probe<PurchasePoint> for JobsProbe {
    #[inline(always)]
    fn observe(&mut self, _point: &PurchasePoint) {}
}

/// Probe sampling waiting-queue depth at the top of every hour, on the
/// scheduler-side [`DepthStats`] hook (this is what perfjson's queue-depth
/// columns are measured with).
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueDepthProbe {
    stats: DepthStats,
}

impl QueueDepthProbe {
    /// A fresh probe.
    pub fn new() -> QueueDepthProbe {
        QueueDepthProbe::default()
    }

    /// Consume the probe and return the depth statistics.
    pub fn into_stats(self) -> DepthStats {
        self.stats
    }
}

impl Probe<HourObservation> for QueueDepthProbe {
    fn observe(&mut self, point: &HourObservation) {
        self.stats.record(point.queue_len);
    }
}

impl Probe<JobPoint> for QueueDepthProbe {
    #[inline(always)]
    fn observe(&mut self, _point: &JobPoint) {}
}

impl Probe<PurchasePoint> for QueueDepthProbe {
    #[inline(always)]
    fn observe(&mut self, _point: &PurchasePoint) {}
}

/// Aggregate run totals, accumulated at O(1) memory.
///
/// Every figure here reproduces the corresponding post-hoc query over a
/// fully-instrumented run **bit-for-bit**: the accumulators perform the
/// same floating-point operations in the same (hour) order as summing the
/// retained telemetry/ledger vectors would. The driver's tests pin this.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunAggregates {
    /// Hours observed.
    pub hours: usize,
    /// Total energy purchased, kWh (= `TelemetryLog::total_energy_kwh`).
    pub energy_kwh: f64,
    /// Total carbon, kg (= `TelemetryLog::total_carbon_kg`).
    pub carbon_kg: f64,
    /// Total energy cost, $ (= `TelemetryLog::total_cost_usd`).
    pub cost_usd: f64,
    /// Total cooling water, litres (= `TelemetryLog::total_water_l`).
    pub water_l: f64,
    /// Total IT energy, kWh (= summing `it_power_w / 1000` over frames).
    pub it_energy_kwh: f64,
    /// Peak hourly facility power, kW (−∞ before the first hour).
    pub peak_power_kw: f64,
    /// Hours with a saturated cooling plant.
    pub cooling_saturated_hours: usize,
    /// Total energy purchased, as a typed quantity (for weighting).
    pub purchased: Energy,
    /// Σ green_share · purchased kWh (numerator of the weighted share).
    pub green_weighted_kwh: f64,
    /// Σ finite hourly PUE values.
    pub pue_sum: f64,
    /// Hours with a finite PUE.
    pub pue_hours: usize,
}

impl RunAggregates {
    /// Fraction of hours with saturated cooling
    /// (= `TelemetryLog::cooling_saturation_fraction`; both surfaces go
    /// through [`greener_hpc::cooling::saturation_fraction`], so they
    /// cannot drift apart).
    pub fn cooling_saturation_fraction(&self) -> f64 {
        greener_hpc::cooling::saturation_fraction(self.cooling_saturated_hours, self.hours)
    }

    /// Mean facility PUE over hours with nonzero IT load (NaN if none).
    pub fn mean_pue(&self) -> f64 {
        if self.pue_hours == 0 {
            return f64::NAN;
        }
        self.pue_sum / self.pue_hours as f64
    }

    /// Energy-weighted green share of purchases
    /// (= `PurchaseLedger::energy_weighted_green_share`).
    pub fn energy_weighted_green_share(&self) -> f64 {
        let total = self.purchased.kwh();
        if total <= 0.0 {
            return f64::NAN;
        }
        self.green_weighted_kwh / total
    }

    /// Energy-weighted average price, $/MWh
    /// (= `PurchaseLedger::energy_weighted_price`).
    pub fn energy_weighted_price(&self) -> f64 {
        let total = self.purchased.mwh();
        if total <= 0.0 {
            return f64::NAN;
        }
        self.cost_usd / total
    }

    /// Energy-weighted average carbon intensity, kg/MWh
    /// (= `PurchaseLedger::energy_weighted_ci`).
    pub fn energy_weighted_ci(&self) -> f64 {
        let total = self.purchased.mwh();
        if total <= 0.0 {
            return f64::NAN;
        }
        self.carbon_kg / total
    }
}

/// Probe accumulating [`RunAggregates`].
#[derive(Debug, Clone, Copy)]
pub struct AggregatesProbe {
    agg: RunAggregates,
}

impl AggregatesProbe {
    /// A fresh accumulator.
    pub fn new() -> AggregatesProbe {
        AggregatesProbe {
            agg: RunAggregates {
                hours: 0,
                energy_kwh: 0.0,
                carbon_kg: 0.0,
                cost_usd: 0.0,
                water_l: 0.0,
                it_energy_kwh: 0.0,
                // Matches `fold(f64::NEG_INFINITY, f64::max)` over frames.
                peak_power_kw: f64::NEG_INFINITY,
                cooling_saturated_hours: 0,
                purchased: Energy::ZERO,
                green_weighted_kwh: 0.0,
                pue_sum: 0.0,
                pue_hours: 0,
            },
        }
    }

    /// Consume the probe and return the totals.
    pub fn into_aggregates(self) -> RunAggregates {
        self.agg
    }
}

impl Default for AggregatesProbe {
    fn default() -> AggregatesProbe {
        AggregatesProbe::new()
    }
}

impl Probe<HourObservation> for AggregatesProbe {
    fn observe(&mut self, o: &HourObservation) {
        let a = &mut self.agg;
        a.hours += 1;
        a.energy_kwh += o.purchased.kwh();
        a.carbon_kg += o.carbon_kg;
        a.cost_usd += o.cost_usd;
        a.water_l += o.water_l;
        let it_w = o.it_power_w();
        let cool_w = o.cooling_power_w();
        a.it_energy_kwh += it_w / 1_000.0;
        a.peak_power_kw = a.peak_power_kw.max((it_w + cool_w) / 1_000.0);
        a.cooling_saturated_hours += o.cooling_saturated as usize;
        a.purchased += o.purchased;
        a.green_weighted_kwh += o.green_share * o.purchased.kwh();
        let pue = o.pue();
        if pue.is_finite() {
            a.pue_sum += pue;
            a.pue_hours += 1;
        }
    }
}

impl Probe<JobPoint> for AggregatesProbe {
    #[inline(always)]
    fn observe(&mut self, _point: &JobPoint) {}
}

impl Probe<PurchasePoint> for AggregatesProbe {
    #[inline(always)]
    fn observe(&mut self, _point: &PurchasePoint) {}
}

/// What a run should observe — the call-side spec for
/// `SimDriver::run_observed`.
///
/// Aggregate totals and [`JobStats`] are always produced; each flag adds
/// one optional output. [`Observe::aggregates`] (everything off) is the
/// fast path: the replay loop monomorphizes to a probe set with no
/// per-frame vector growth and no job-record retention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observe {
    /// Retain the hourly [`TelemetryLog`].
    pub telemetry: bool,
    /// Retain the hour-by-hour [`PurchaseLedger`].
    pub ledger: bool,
    /// Retain per-job [`JobRecord`]s.
    pub job_records: bool,
    /// Sample hourly waiting-queue depth ([`DepthStats`]).
    pub queue_depth: bool,
}

impl Observe {
    /// Aggregate totals and job statistics only — the sweep fast path.
    ///
    /// ```
    /// use greener_core::driver::{SimDriver, World};
    /// use greener_core::probe::Observe;
    /// use greener_core::scenario::Scenario;
    ///
    /// let scenario = Scenario::quick(3, 7);
    /// let world = World::build(&scenario);
    /// let out = SimDriver::run_observed(&scenario, &world, Observe::aggregates());
    /// // Totals and job stats always materialize; nothing optional does.
    /// assert!(out.aggregates.energy_kwh > 0.0);
    /// assert_eq!(out.jobs.submitted, out.jobs.completed + out.jobs.unfinished);
    /// assert!(out.telemetry.is_none() && out.ledger.is_none());
    /// assert!(out.job_records.is_none() && out.queue_depth.is_none());
    /// ```
    pub fn aggregates() -> Observe {
        Observe {
            telemetry: false,
            ledger: false,
            job_records: false,
            queue_depth: false,
        }
    }

    /// Every output on (what `SimDriver::run` retains, plus queue depth).
    pub fn everything() -> Observe {
        Observe {
            telemetry: true,
            ledger: true,
            job_records: true,
            queue_depth: true,
        }
    }

    /// Builder-style: retain hourly telemetry.
    #[must_use]
    pub fn with_telemetry(mut self) -> Observe {
        self.telemetry = true;
        self
    }

    /// Builder-style: retain the purchase ledger.
    #[must_use]
    pub fn with_ledger(mut self) -> Observe {
        self.ledger = true;
        self
    }

    /// Builder-style: retain per-job records.
    #[must_use]
    pub fn with_job_records(mut self) -> Observe {
        self.job_records = true;
        self
    }

    /// Builder-style: sample hourly queue depth.
    #[must_use]
    pub fn with_queue_depth(mut self) -> Observe {
        self.queue_depth = true;
        self
    }
}

/// Everything a `run_observed` call produces — the one report surface.
///
/// The always-present parts ([`RunAggregates`], [`JobStats`], battery
/// wear) answer every totals-level question; each optional part is
/// `Some` exactly when the corresponding [`Observe`] flag was set.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Scenario name.
    pub scenario_name: String,
    /// Aggregate totals (always produced).
    pub aggregates: RunAggregates,
    /// Aggregate job statistics (always produced).
    pub jobs: JobStats,
    /// Battery wear if a storage strategy ran (always produced).
    pub battery_cycles: f64,
    /// Hourly telemetry, if observed.
    pub telemetry: Option<TelemetryLog>,
    /// Hour-by-hour purchase ledger, if observed.
    pub ledger: Option<PurchaseLedger>,
    /// Per-job records for completed jobs, if observed.
    pub job_records: Option<Vec<JobRecord>>,
    /// Hourly waiting-queue depth statistics, if observed.
    pub queue_depth: Option<DepthStats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_builders_compose() {
        let o = Observe::aggregates().with_telemetry().with_queue_depth();
        assert!(o.telemetry && o.queue_depth);
        assert!(!o.ledger && !o.job_records);
        assert_eq!(
            Observe::aggregates()
                .with_telemetry()
                .with_ledger()
                .with_job_records()
                .with_queue_depth(),
            Observe::everything()
        );
    }

    #[test]
    fn aggregates_probe_matches_hand_sums() {
        let mut p = AggregatesProbe::new();
        let hours = [
            (200_000.0f64, 50_000.0f64, 250.0f64, 0.08f64, false),
            (100_000.0, 25_000.0, 125.0, 0.04, true),
        ];
        for (h, &(it_w, cool_w, kwh, green, sat)) in hours.iter().enumerate() {
            p.observe(&HourObservation {
                hour: h as u64,
                temp_f: 60.0,
                it_energy: Energy(it_w * 3_600.0),
                cooling_energy: Energy(cool_w * 3_600.0),
                purchased: Energy::from_kwh(kwh),
                green_share: green,
                lmp_usd_mwh: 30.0,
                ci_kg_mwh: 300.0,
                carbon_kg: kwh * 0.3,
                cost_usd: kwh * 0.03,
                water_l: 10.0,
                queue_len: 2,
                running_gpus: 16,
                gpu_utilization: 0.5,
                cooling_saturated: sat,
            });
        }
        let a = p.into_aggregates();
        assert_eq!(a.hours, 2);
        assert!((a.energy_kwh - 375.0).abs() < 1e-9);
        assert!((a.it_energy_kwh - 300.0).abs() < 1e-9);
        assert!((a.peak_power_kw - 250.0).abs() < 1e-9);
        assert_eq!(a.cooling_saturated_hours, 1);
        assert!((a.cooling_saturation_fraction() - 0.5).abs() < 1e-12);
        assert!((a.mean_pue() - 1.25).abs() < 1e-12);
        // (0.08·250 + 0.04·125) / 375.
        assert!((a.energy_weighted_green_share() - 25.0 / 375.0).abs() < 1e-12);
        assert!((a.energy_weighted_price() - 30.0).abs() < 1e-9);
        assert!((a.energy_weighted_ci() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn empty_aggregates_are_safe() {
        let a = AggregatesProbe::new().into_aggregates();
        assert_eq!(a.cooling_saturation_fraction(), 0.0);
        assert!(a.mean_pue().is_nan());
        assert!(a.energy_weighted_green_share().is_nan());
        assert_eq!(a.peak_power_kw, f64::NEG_INFINITY);
    }

    #[test]
    fn jobs_probe_stats_only_has_no_records() {
        let (stats, records) = JobsProbe::stats_only().finish(5, 5, 24.0);
        assert!(records.is_none());
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.unfinished, 5);
    }
}
