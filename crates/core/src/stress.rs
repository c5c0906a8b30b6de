//! The Dodd-Frank-style stress-test harness (§II-B).
//!
//! "A useful exercise can be a regularly conducted stress-test akin to the
//! Dodd-Frank stress tests … simulated stress scenarios that test the
//! resiliency … helping identify areas in need of remediation."
//!
//! [`run_suite`] applies each [`StressScenario`]'s shocks to a base
//! [`Scenario`] ([`apply_shocks`]), runs the shocked scenarios as one
//! campaign of explicit cells and scores resilience: the fraction of hours
//! with saturated cooling plus the fraction of jobs violating the wait
//! SLO, against the scenario's pass threshold.

use greener_climate::{StressKind, StressScenario};

use crate::campaign::{run_campaign, CampaignPlan, InProcessBackend, ManifestError};
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

/// The suite as a campaign plan named `stress`: one cell per stress
/// scenario, labelled with its name, in suite order.
fn suite_plan(base: &Scenario, suite: &[StressScenario]) -> Result<CampaignPlan, ManifestError> {
    let cells = suite
        .iter()
        .map(|stress| (stress.name.clone(), apply_shocks(base, stress)))
        .collect();
    CampaignPlan::from_cells("stress", cells)
}

/// Run a whole suite, preserving suite order: one campaign of explicit
/// cells, one in-process shard per scenario. Every cell replays the base
/// scenario's seed, so shocked worlds stay paired with the baseline, and
/// the pass caches build each distinct world and environment once.
/// Scenario names are the cell labels, so an empty, spaced or repeated
/// name is a [`ManifestError`].
pub fn run_suite(
    base: &Scenario,
    suite: &[StressScenario],
) -> Result<Vec<StressReport>, ManifestError> {
    let plan = suite_plan(base, suite)?;
    let report = run_campaign(&plan, &InProcessBackend, plan.len())
        .unwrap_or_else(|e| panic!("in-process stress shards must merge: {e}"));
    Ok(suite
        .iter()
        .zip(report.cells)
        .map(|(stress, cell)| {
            let cooling_saturation = cell.aggregates.cooling_saturation_fraction();
            let slo_violation = cell.jobs.slo_violation_fraction;
            let violation_score = cooling_saturation.max(slo_violation);
            StressReport {
                scenario: stress.name.clone(),
                cooling_saturation,
                slo_violation,
                violation_score,
                threshold: stress.max_violation_fraction,
                pass: violation_score <= stress.max_violation_fraction,
                energy_kwh: cell.aggregates.energy_kwh,
                carbon_kg: cell.aggregates.carbon_kg,
                cost_usd: cell.aggregates.cost_usd,
                peak_power_kw: cell.aggregates.peak_power_kw,
                mean_pue: cell.aggregates.mean_pue(),
            }
        })
        .collect())
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

    /// The standard suite's baseline and the scenario named `name`, run
    /// as a suite of two: `(baseline, stressed)`.
    fn against_baseline(name: &str) -> (StressReport, StressReport) {
        let suite = StressScenario::standard_suite();
        let shock = suite.iter().find(|s| s.name == name).unwrap().clone();
        let mut reports = run_suite(&base(), &[suite[0].clone(), shock]).unwrap();
        let stressed = reports.pop().unwrap();
        (reports.pop().unwrap(), stressed)
    }

    #[test]
    fn baseline_passes() {
        let suite = StressScenario::standard_suite();
        let report = &run_suite(&base(), &suite[..1]).unwrap()[0];
        assert!(report.pass, "baseline must pass: {report:?}");
        assert!(report.cooling_saturation < 0.05);
    }

    #[test]
    fn warming_raises_energy_and_saturation() {
        let (baseline, stressed) = against_baseline("severely-adverse-warming");
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
        let (baseline, stressed) = against_baseline("winter-price-shock");
        assert!(stressed.cost_usd > baseline.cost_usd * 2.0);
        // Energy is unchanged (same workload, same weather).
        assert!((stressed.energy_kwh / baseline.energy_kwh - 1.0).abs() < 0.01);
        // Carbon rises via the fossil shock.
        assert!(stressed.carbon_kg > baseline.carbon_kg);
    }

    #[test]
    fn demand_surge_raises_load() {
        let (baseline, stressed) = against_baseline("deadline-pileup");
        assert!(stressed.energy_kwh > baseline.energy_kwh);
    }

    #[test]
    fn suite_runs_in_order() {
        let suite: Vec<StressScenario> = StressScenario::standard_suite()
            .into_iter()
            .take(3)
            .collect();
        let reports = run_suite(&base(), &suite).unwrap();
        assert_eq!(reports.len(), 3);
        for (r, s) in reports.iter().zip(&suite) {
            assert_eq!(r.scenario, s.name);
        }
    }

    #[test]
    fn repeated_scenario_names_are_rejected() {
        let baseline = StressScenario::standard_suite().swap_remove(0);
        let e = run_suite(&base(), &[baseline.clone(), baseline]).unwrap_err();
        assert!(e.msg.contains("duplicate cell id `stress/baseline`"), "{e}");
    }

    /// World sharing follows from the fields each shock edits. Cooling
    /// degradation and water stress are replay inputs only, the demand
    /// surge edits only the trace, and the weather and grid shocks each
    /// make their own environment: 7 cells replay 6 worlds over 5
    /// environments.
    #[test]
    fn stress_suite_plan_shares_worlds_by_key() {
        let plan = suite_plan(&base(), &StressScenario::standard_suite()).unwrap();
        assert_eq!(plan.len(), 7);
        assert_eq!(plan.cells[5].id, "stress/drought");
        assert_eq!(plan.distinct_worlds(), 6);
        assert_eq!(plan.distinct_environments(), 5);
        assert_eq!(plan.distinct_replays(), 7);
    }

    /// The suite's merged records equal each cell's straight run on a
    /// fresh world, byte for byte, at every shard count.
    #[test]
    fn stress_suite_plan_holds_the_campaign_equivalence_axis() {
        let plan = suite_plan(
            &base().with_horizon_days(3),
            &StressScenario::standard_suite(),
        )
        .unwrap();
        crate::equivalence::assert_campaign_equivalent(
            "stress suite",
            &plan,
            &InProcessBackend,
            &[1, 3, 7],
        );
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
