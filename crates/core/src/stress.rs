//! The Dodd-Frank-style stress-test harness (§II-B).
//!
//! "A useful exercise can be a regularly conducted stress-test akin to the
//! Dodd-Frank stress tests … simulated stress scenarios that test the
//! resiliency … helping identify areas in need of remediation."
//!
//! [`run_suite`] applies each [`StressScenario`]'s shocks to a base
//! [`Scenario`], re-runs the simulation (in parallel across scenarios) and
//! scores resilience: the fraction of hours with saturated cooling plus the
//! fraction of jobs violating the wait SLO, against the scenario's pass
//! threshold.

use greener_climate::{StressKind, StressScenario};

use crate::driver::{SimDriver, World};
use crate::probe::Observe;
use crate::scenario::Scenario;

/// One stress-test outcome row.
#[derive(Debug, Clone)]
pub struct StressReport {
    /// Scenario name.
    pub scenario: String,
    /// Fraction of hours with saturated cooling plant.
    pub cooling_saturation: f64,
    /// Fraction of completed jobs violating the wait SLO.
    pub slo_violation: f64,
    /// Combined violation score (max of the two fractions — the binding
    /// constraint is whichever subsystem fails first).
    pub violation_score: f64,
    /// Pass threshold (α analogue).
    pub threshold: f64,
    /// Whether the facility passed the scenario.
    pub pass: bool,
    /// Total energy, kWh.
    pub energy_kwh: f64,
    /// Total carbon, kg.
    pub carbon_kg: f64,
    /// Total cost, $.
    pub cost_usd: f64,
    /// Peak hourly facility power, kW.
    pub peak_power_kw: f64,
    /// Mean facility PUE.
    pub mean_pue: f64,
}

/// Apply a stress scenario's shocks to a base scenario.
pub fn apply_shocks(base: &Scenario, stress: &StressScenario) -> Scenario {
    let mut s = base.clone();
    s.name = format!("{}+{}", base.name, stress.name);
    for shock in &stress.shocks {
        match *shock {
            StressKind::UniformWarming { celsius } => {
                s.weather.warming_offset_c += celsius;
            }
            StressKind::HeatWaveIntensification {
                frequency_mult,
                amplitude_mult,
            } => {
                s.weather.heatwaves_per_year *= frequency_mult;
                s.weather.heatwave_amplitude_f *= amplitude_mult;
            }
            StressKind::CoolingDegradation { cop_mult } => {
                s.cooling.degradation_mult *= cop_mult;
            }
            StressKind::PriceSpike { price_mult } => {
                s.grid.price.price_mult *= price_mult;
            }
            StressKind::CarbonIntensityShock { fossil_mult } => {
                s.grid.fossil_emission_mult *= fossil_mult;
            }
            StressKind::DemandSurge { arrival_mult } => {
                s.trace.demand.surge_mult *= arrival_mult;
            }
            StressKind::WaterStress { water_mult } => {
                s.cooling.water_availability *= water_mult;
            }
        }
    }
    s
}

/// Run one stress scenario.
///
/// Stress scoring needs only totals (saturation and violation fractions,
/// energy/carbon/cost, peak power, mean PUE), so the run is
/// aggregates-only: no hourly frames, ledger rows or job records are
/// retained anywhere in a suite sweep. (Shocks feed world generation, so
/// each shocked scenario builds its own world.)
pub fn run_one(base: &Scenario, stress: &StressScenario) -> StressReport {
    let scenario = apply_shocks(base, stress);
    let world = World::build(&scenario);
    let out = SimDriver::run_observed(&scenario, &world, Observe::aggregates());
    let cooling_saturation = out.aggregates.cooling_saturation_fraction();
    let slo_violation = out.jobs.slo_violation_fraction;
    let violation_score = cooling_saturation.max(slo_violation);
    StressReport {
        scenario: stress.name.clone(),
        cooling_saturation,
        slo_violation,
        violation_score,
        threshold: stress.max_violation_fraction,
        pass: violation_score <= stress.max_violation_fraction,
        energy_kwh: out.aggregates.energy_kwh,
        carbon_kg: out.aggregates.carbon_kg,
        cost_usd: out.aggregates.cost_usd,
        peak_power_kw: out.aggregates.peak_power_kw,
        mean_pue: out.aggregates.mean_pue(),
    }
}

/// Run a whole suite in parallel, preserving suite order.
///
/// Goes through `sweep::run` — the outer level of the two-level threading
/// model (see `greener_simkit::sweep`): scenarios fan out across threads
/// while each run's world generation forks again internally. Every cell
/// replays the base scenario's seed, so shocked worlds stay paired with
/// the baseline world.
pub fn run_suite(base: &Scenario, suite: &[StressScenario]) -> Vec<StressReport> {
    greener_simkit::sweep::run(suite, |s| run_one(base, s))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Scenario {
        // One summer month so heat shocks bind: July 2020 at 1/10 scale.
        let mut s = Scenario::two_year_small(41).with_horizon_days(31);
        s.start = greener_simkit::calendar::CalDate::new(2020, 7, 1);
        s
    }

    #[test]
    fn baseline_passes() {
        let suite = StressScenario::standard_suite();
        let report = run_one(&base(), &suite[0]);
        assert!(report.pass, "baseline must pass: {report:?}");
        assert!(report.cooling_saturation < 0.05);
    }

    #[test]
    fn warming_raises_energy_and_saturation() {
        let suite = StressScenario::standard_suite();
        let baseline = run_one(&base(), &suite[0]);
        let severe = suite
            .iter()
            .find(|s| s.name == "severely-adverse-warming")
            .unwrap();
        let stressed = run_one(&base(), severe);
        assert!(
            stressed.energy_kwh > baseline.energy_kwh,
            "warming must cost energy: {} vs {}",
            stressed.energy_kwh,
            baseline.energy_kwh
        );
        assert!(stressed.cooling_saturation >= baseline.cooling_saturation);
        assert!(stressed.mean_pue > baseline.mean_pue);
    }

    #[test]
    fn price_shock_raises_cost_not_energy() {
        let suite = StressScenario::standard_suite();
        let baseline = run_one(&base(), &suite[0]);
        let shock = suite
            .iter()
            .find(|s| s.name == "winter-price-shock")
            .unwrap();
        let stressed = run_one(&base(), shock);
        assert!(stressed.cost_usd > baseline.cost_usd * 2.0);
        // Energy is unchanged (same workload, same weather).
        assert!((stressed.energy_kwh / baseline.energy_kwh - 1.0).abs() < 0.01);
        // Carbon rises via the fossil shock.
        assert!(stressed.carbon_kg > baseline.carbon_kg);
    }

    #[test]
    fn demand_surge_raises_load() {
        let suite = StressScenario::standard_suite();
        let baseline = run_one(&base(), &suite[0]);
        let surge = suite.iter().find(|s| s.name == "deadline-pileup").unwrap();
        let stressed = run_one(&base(), surge);
        assert!(stressed.energy_kwh > baseline.energy_kwh);
    }

    #[test]
    fn suite_runs_in_order() {
        let suite: Vec<StressScenario> = StressScenario::standard_suite()
            .into_iter()
            .take(3)
            .collect();
        let reports = run_suite(&base(), &suite);
        assert_eq!(reports.len(), 3);
        for (r, s) in reports.iter().zip(&suite) {
            assert_eq!(r.scenario, s.name);
        }
    }

    #[test]
    fn shocks_compose_multiplicatively() {
        let base = base();
        let double = StressScenario::new(
            "double-price",
            "",
            vec![
                greener_climate::StressKind::PriceSpike { price_mult: 2.0 },
                greener_climate::StressKind::PriceSpike { price_mult: 1.5 },
            ],
            1.0,
        );
        let s = apply_shocks(&base, &double);
        assert!((s.grid.price.price_mult - 3.0).abs() < 1e-12);
    }
}
