//! Energy, carbon, cost, water and opportunity-cost accounting.
//!
//! §II-A: "The economic costs of a choice accounts not only for its direct
//! fiscal or monetary costs, but also its opportunity costs — the cost of
//! the best alternatives foregone." [`AccountingReport`] summarizes a run
//! and quantifies both opportunity costs (fiscal and environmental) against
//! the ledger's best-feasible-retiming counterfactual.
//!
//! §IV-B's estimate-variance analysis is also here: the *same* training
//! job, accounted under different hardware/PUE/grid assumptions, yields
//! footprint estimates spanning orders of magnitude — the paper's "5x the
//! average lifetime emissions of a car \[down\] to 10⁻⁵ times that amount".

use greener_simkit::units::{Energy, KgCo2};

use crate::driver::RunResult;

/// Summary of a run's footprint and opportunity costs.
#[derive(Debug, Clone)]
pub struct AccountingReport {
    /// Scenario name.
    pub scenario: String,
    /// Total energy purchased, kWh.
    pub energy_kwh: f64,
    /// Total carbon, kg CO₂.
    pub carbon_kg: f64,
    /// Total cost, $.
    pub cost_usd: f64,
    /// Total cooling water, litres.
    pub water_l: f64,
    /// Energy-weighted green share of purchases.
    pub green_share: f64,
    /// Mean facility PUE.
    pub mean_pue: f64,
    /// Carbon that the same energy, freely re-timed (2× hourly headroom),
    /// would have emitted.
    pub counterfactual_carbon_kg: f64,
    /// Environmental opportunity cost: actual − counterfactual carbon.
    pub carbon_opportunity_kg: f64,
    /// Fiscal opportunity cost: actual − counterfactual cost.
    pub cost_opportunity_usd: f64,
    /// Carbon intensity of *completed work*: kg CO₂ per GPU-hour.
    pub kg_per_gpu_hour: f64,
}

impl AccountingReport {
    /// Build the report from a run.
    pub fn from_run(run: &RunResult) -> AccountingReport {
        let t = &run.telemetry;
        let pues: Vec<f64> = t
            .frames()
            .iter()
            .map(|f| f.pue)
            .filter(|p| p.is_finite())
            .collect();
        let cf_carbon = run.ledger.counterfactual_min_carbon(2.0);
        let cf_cost = run.ledger.counterfactual_min_cost(2.0);
        let carbon = t.total_carbon_kg();
        let cost = t.total_cost_usd();
        AccountingReport {
            scenario: run.scenario_name.clone(),
            energy_kwh: t.total_energy_kwh(),
            carbon_kg: carbon,
            cost_usd: cost,
            water_l: t.total_water_l(),
            green_share: run.ledger.energy_weighted_green_share(),
            mean_pue: greener_simkit::stats::mean(&pues),
            counterfactual_carbon_kg: cf_carbon.value(),
            carbon_opportunity_kg: carbon - cf_carbon.value(),
            cost_opportunity_usd: cost - cf_cost.value(),
            kg_per_gpu_hour: if run.jobs.gpu_hours_completed > 0.0 {
                carbon / run.jobs.gpu_hours_completed
            } else {
                f64::NAN
            },
        }
    }
}

/// One assumption set for estimating a model's training footprint (§IV-B).
///
/// "These estimates are inherently variable and difficult — not only due to
/// differences in aspects like hardware (e.g. GPU vs. TPU) — in both the
/// approach taken to quantify these costs and their resulting accuracy."
#[derive(Debug, Clone)]
pub struct FootprintAssumptions {
    /// Label for the assumption set.
    pub label: String,
    /// Accelerator board power under training load, watts.
    pub accelerator_power_w: f64,
    /// Accelerator effective throughput relative to the reference GPU
    /// (hardware efficiency: TPU-class ≫ old GPU).
    pub relative_speed: f64,
    /// Facility PUE assumed.
    pub pue: f64,
    /// Grid carbon intensity assumed, kg/MWh.
    pub grid_ci_kg_mwh: f64,
    /// Whether the estimate includes hyper-parameter search overhead
    /// (multiplier on the single training run).
    pub search_multiplier: f64,
}

impl FootprintAssumptions {
    /// The pessimistic end: old GPUs, coal-heavy grid, poor PUE, full
    /// neural-architecture-search accounting (Strubell-style, ref \[24\]).
    pub fn pessimistic() -> FootprintAssumptions {
        FootprintAssumptions {
            label: "worst-case: old GPUs, coal grid, NAS included".into(),
            accelerator_power_w: 300.0,
            relative_speed: 0.25,
            pue: 1.8,
            grid_ci_kg_mwh: 820.0,
            search_multiplier: 1_000.0, // full architecture search
        }
    }

    /// The optimistic end: TPU-class hardware in a hyperscale DC on a clean
    /// grid, single run (Patterson-style, ref \[23\]).
    pub fn optimistic() -> FootprintAssumptions {
        FootprintAssumptions {
            label: "best-case: TPUs, clean grid, single run".into(),
            accelerator_power_w: 200.0,
            relative_speed: 8.0,
            pue: 1.1,
            grid_ci_kg_mwh: 30.0,
            search_multiplier: 1.0,
        }
    }

    /// A representative middle (V100 cluster on ISO-NE-like grid).
    pub fn representative() -> FootprintAssumptions {
        FootprintAssumptions {
            label: "representative: V100 cluster, ISO-NE grid".into(),
            accelerator_power_w: 250.0,
            relative_speed: 1.0,
            pue: 1.35,
            grid_ci_kg_mwh: 290.0,
            search_multiplier: 10.0, // modest hyper-parameter sweep
        }
    }

    /// Estimated carbon to train a model needing `reference_gpu_hours` on
    /// the reference GPU, under these assumptions.
    pub fn estimate_carbon(&self, reference_gpu_hours: f64) -> KgCo2 {
        let device_hours = reference_gpu_hours / self.relative_speed;
        let energy = Energy::from_kwh(device_hours * self.accelerator_power_w / 1_000.0 * self.pue);
        energy.carbon_at(self.grid_ci_kg_mwh) * self.search_multiplier
    }
}

/// Average lifetime emissions of a (US) car incl. fuel, kg CO₂ (Strubell
/// et al.'s reference point).
pub const CAR_LIFETIME_KG: f64 = 57_000.0;

/// The §IV-B variance analysis: estimate the same training job under a set
/// of assumption sets and report the spread.
#[derive(Debug, Clone)]
pub struct VarianceAnalysis {
    /// Reference workload, GPU-hours on the reference GPU.
    pub reference_gpu_hours: f64,
    /// Per-assumption estimates: (label, kg CO₂, multiples of a car).
    pub estimates: Vec<(String, f64, f64)>,
    /// max / min estimate ratio.
    pub spread: f64,
}

impl VarianceAnalysis {
    /// Run the standard three-assumption analysis on a large-transformer
    /// scale workload.
    pub fn standard(reference_gpu_hours: f64) -> VarianceAnalysis {
        let sets = [
            FootprintAssumptions::pessimistic(),
            FootprintAssumptions::representative(),
            FootprintAssumptions::optimistic(),
        ];
        let estimates: Vec<(String, f64, f64)> = sets
            .iter()
            .map(|s| {
                let kg = s.estimate_carbon(reference_gpu_hours).value();
                (s.label.clone(), kg, kg / CAR_LIFETIME_KG)
            })
            .collect();
        let max = estimates
            .iter()
            .map(|e| e.1)
            .fold(f64::NEG_INFINITY, f64::max);
        let min = estimates.iter().map(|e| e.1).fold(f64::INFINITY, f64::min);
        VarianceAnalysis {
            reference_gpu_hours,
            estimates,
            spread: max / min,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::SimDriver;
    use crate::scenario::Scenario;

    #[test]
    fn report_totals_match_telemetry() {
        let run = SimDriver::run(&Scenario::quick(7, 21));
        let rep = AccountingReport::from_run(&run);
        assert!((rep.energy_kwh - run.telemetry.total_energy_kwh()).abs() < 1e-9);
        assert!(rep.carbon_kg > 0.0);
        assert!(rep.mean_pue > 1.0 && rep.mean_pue < 2.0);
        assert!(rep.kg_per_gpu_hour > 0.0);
    }

    #[test]
    fn opportunity_costs_nonnegative() {
        let run = SimDriver::run(&Scenario::quick(14, 22));
        let rep = AccountingReport::from_run(&run);
        assert!(
            rep.carbon_opportunity_kg >= -1e-6,
            "retiming can only help: {}",
            rep.carbon_opportunity_kg
        );
        assert!(rep.cost_opportunity_usd >= -1e-6);
        // And is strictly positive in a world with varying CI.
        assert!(rep.carbon_opportunity_kg > 0.0);
    }

    #[test]
    fn variance_spans_orders_of_magnitude() {
        // GPT-3-scale: ~3.1M reference GPU-hours is the published number;
        // we use 1M to stay hardware-agnostic.
        let v = VarianceAnalysis::standard(1.0e6);
        assert_eq!(v.estimates.len(), 3);
        // Paper: estimates range "from as high as 5x the average lifetime
        // emissions of a car to as low as 10⁻⁵ times that amount" — a
        // many-orders-of-magnitude spread.
        assert!(v.spread > 1e4, "assumption spread only {:.1}x", v.spread);
        // Pessimistic estimate is car-scale or worse.
        assert!(
            v.estimates[0].2 > 5.0,
            "worst case {}x car",
            v.estimates[0].2
        );
        // Optimistic estimate is a tiny fraction of a car.
        assert!(v.estimates[2].2 < 0.1);
    }

    #[test]
    fn estimates_scale_linearly_with_work() {
        let s = FootprintAssumptions::representative();
        let one = s.estimate_carbon(1_000.0).value();
        let ten = s.estimate_carbon(10_000.0).value();
        assert!((ten / one - 10.0).abs() < 1e-9);
    }
}
