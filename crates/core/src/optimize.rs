//! The paper's optimization framework: Eq. 1 and Eq. 2.
//!
//! **Eq. 1** — `min E(q_d, q_s, p, c, ε)  s.t.  A(·) ≥ α`: choose supplied
//! resources `q_s`, the scheduling rule `p` and control mechanisms `c` to
//! minimize an energy objective subject to an activity floor.
//! [`Eq1Problem::grid_search`] evaluates a decision grid in parallel
//! (Rayon) with paired traces and returns the feasible argmin.
//!
//! **Eq. 2** — the per-user decomposition `min_i e_i s.t. a_i ≥ α_i` with
//! `Σ e_i = E, Σ a_i = A`: [`Eq2Decomposition`] attributes a run's energy
//! and activity to individual users (plus a facility-overhead bucket) and
//! verifies the aggregation identities.

use greener_sched::PolicyKind;
use greener_workload::UserId;
use std::collections::HashMap;

use crate::campaign::{run_campaign, AxisValue, CampaignManifest, InProcessBackend, Knob};
use crate::driver::{JobStats, RunResult, SimDriver, World};
use crate::probe::{Observe, RunAggregates};
use crate::scenario::Scenario;

/// The energy objective `E(·)` of Eq. 1 — "any number of quantities
/// correlated with energy expenditure".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnergyObjective {
    /// Kilowatt-hours purchased.
    EnergyKwh,
    /// Kilograms of CO₂ emitted.
    CarbonKg,
    /// Dollars spent on energy.
    CostUsd,
    /// Litres of cooling water.
    WaterL,
}

impl EnergyObjective {
    /// Evaluate on a run's aggregate totals (grid cells run
    /// aggregates-only, so the sweep never materializes telemetry).
    pub fn of(&self, agg: &RunAggregates) -> f64 {
        match self {
            EnergyObjective::EnergyKwh => agg.energy_kwh,
            EnergyObjective::CarbonKg => agg.carbon_kg,
            EnergyObjective::CostUsd => agg.cost_usd,
            EnergyObjective::WaterL => agg.water_l,
        }
    }
}

/// The activity measure `A(·)` of Eq. 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActivityMeasure {
    /// Completed nominal GPU-hours.
    GpuHours,
    /// Completed job count.
    JobsCompleted,
    /// Negative mean wait (higher = better service).
    NegMeanWaitHours,
}

impl ActivityMeasure {
    /// Evaluate on a run's job statistics.
    pub fn of(&self, jobs: &JobStats) -> f64 {
        match self {
            ActivityMeasure::GpuHours => jobs.gpu_hours_completed,
            ActivityMeasure::JobsCompleted => jobs.completed as f64,
            ActivityMeasure::NegMeanWaitHours => -jobs.mean_wait_hours,
        }
    }
}

/// One point on the Eq. 1 decision grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionPoint {
    /// Cluster-size multiplier on the baseline node count (`q_s`).
    pub qs_mult: f64,
    /// Scheduling policy (`p` and scheduler-side `c`).
    pub policy: PolicyKind,
}

/// One evaluated grid cell.
#[derive(Debug, Clone)]
pub struct EvaluatedPoint {
    /// The decisions.
    pub point: DecisionPoint,
    /// Objective value.
    pub energy: f64,
    /// Activity value.
    pub activity: f64,
    /// Whether the activity floor was met.
    pub feasible: bool,
}

/// The Eq. 1 problem instance.
#[derive(Debug, Clone)]
pub struct Eq1Problem {
    /// Base scenario (workload and environment are held fixed).
    pub base: Scenario,
    /// Objective to minimize.
    pub objective: EnergyObjective,
    /// Activity measure.
    pub activity: ActivityMeasure,
    /// Activity floor α.
    pub alpha: f64,
}

impl Eq1Problem {
    /// Evaluate one decision point (paired trace: the seed is shared).
    ///
    /// Grid cells are aggregates-only observations: a sweep over dozens
    /// of `(q_s, p)` cells needs totals and job statistics, never hourly
    /// frames or per-job records. (The world is still rebuilt per cell —
    /// `q_s` changes the cluster size, which gang-caps the trace.)
    pub fn evaluate(&self, point: DecisionPoint) -> EvaluatedPoint {
        let mut scenario = self.base.clone().with_policy(point.policy);
        Knob::QsMult.apply(&mut scenario, &self.base, &AxisValue::Real(point.qs_mult));
        let world = World::build(&scenario);
        let out = SimDriver::run_observed(&scenario, &world, Observe::aggregates());
        let energy = self.objective.of(&out.aggregates);
        let activity = self.activity.of(&out.jobs);
        EvaluatedPoint {
            point,
            energy,
            activity,
            feasible: activity >= self.alpha,
        }
    }

    /// Evaluate a decision grid in parallel and return all cells plus the
    /// feasible argmin (None if no cell meets the α floor).
    ///
    /// The grid is a campaign ([`CampaignManifest`], `qs_mult` axis outer,
    /// `policy` inner, row-major) run one cell per shard; a unit test pins
    /// it against [`Eq1Problem::evaluate`] bit for bit. Axis values must
    /// be distinct: repeated values would collide on cell ids.
    pub fn grid_search(
        &self,
        qs_mults: &[f64],
        policies: &[PolicyKind],
    ) -> (Vec<EvaluatedPoint>, Option<EvaluatedPoint>) {
        if qs_mults.is_empty() || policies.is_empty() {
            return (Vec::new(), None);
        }
        let manifest = CampaignManifest::new("eq1-grid", self.base.clone())
            .with_axis(
                Knob::QsMult,
                qs_mults.iter().map(|&m| AxisValue::Real(m)).collect(),
            )
            .with_axis(
                Knob::Policy,
                policies.iter().map(|&p| AxisValue::Policy(p)).collect(),
            );
        let plan = manifest
            .expand()
            .unwrap_or_else(|e| panic!("Eq. 1 grid must expand cleanly: {e}"));
        let report = run_campaign(&plan, &InProcessBackend, plan.len())
            .unwrap_or_else(|e| panic!("in-process shards must merge: {e}"));
        let cells: Vec<EvaluatedPoint> = report
            .cells
            .iter()
            .zip(greener_simkit::sweep::gridn_indices(&[
                qs_mults.len(),
                policies.len(),
            ]))
            .map(|(cell, ix)| {
                let (qs_mult, policy) = (qs_mults[ix[0]], policies[ix[1]]);
                let activity = self.activity.of(&cell.jobs);
                EvaluatedPoint {
                    point: DecisionPoint { qs_mult, policy },
                    energy: self.objective.of(&cell.aggregates),
                    activity,
                    feasible: activity >= self.alpha,
                }
            })
            .collect();
        let best = cells
            .iter()
            .filter(|c| c.feasible)
            .min_by(|a, b| a.energy.partial_cmp(&b.energy).expect("finite"))
            .cloned();
        (cells, best)
    }
}

/// Per-user share of a run (Eq. 2's `e_i` and `a_i`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserShare {
    /// User (None = the facility-overhead bucket: idle draw, cooling,
    /// fixed infrastructure).
    pub user: Option<UserId>,
    /// Attributed energy, kWh.
    pub energy_kwh: f64,
    /// Attributed activity, GPU-hours.
    pub activity_gpu_hours: f64,
}

/// Eq. 2: the per-user decomposition of a run.
#[derive(Debug, Clone)]
pub struct Eq2Decomposition {
    /// Per-user shares, descending by energy, with the overhead bucket last.
    pub shares: Vec<UserShare>,
    /// Facility total energy, kWh (the `E` the shares must sum to).
    pub total_energy_kwh: f64,
    /// Total activity, GPU-hours (the `A` the shares must sum to).
    pub total_activity: f64,
}

impl Eq2Decomposition {
    /// Decompose a run: each completed job's GPU energy goes to its user;
    /// everything else (idle GPUs, host overhead, cooling, fixed infra,
    /// battery losses) goes to the overhead bucket.
    pub fn from_run(run: &RunResult) -> Eq2Decomposition {
        let total_energy = run.telemetry.total_energy_kwh();
        let mut per_user: HashMap<UserId, (f64, f64)> = HashMap::new();
        for rec in &run.job_records {
            let e = per_user.entry(rec.user).or_insert((0.0, 0.0));
            e.0 += rec.energy.kwh();
            e.1 += rec.work_gpu_hours;
        }
        let user_energy: f64 = per_user.values().map(|v| v.0).sum();
        let total_activity: f64 = per_user.values().map(|v| v.1).sum();
        let mut shares: Vec<UserShare> = per_user
            .into_iter()
            .map(|(user, (e, a))| UserShare {
                user: Some(user),
                energy_kwh: e,
                activity_gpu_hours: a,
            })
            .collect();
        shares.sort_by(|a, b| b.energy_kwh.partial_cmp(&a.energy_kwh).expect("finite"));
        shares.push(UserShare {
            user: None,
            energy_kwh: total_energy - user_energy,
            activity_gpu_hours: 0.0,
        });
        Eq2Decomposition {
            shares,
            total_energy_kwh: total_energy,
            total_activity,
        }
    }

    /// Verify `Σ eᵢ = E` and `Σ aᵢ = A` within tolerance.
    pub fn check_identities(&self) -> Result<(), String> {
        let e_sum: f64 = self.shares.iter().map(|s| s.energy_kwh).sum();
        if (e_sum - self.total_energy_kwh).abs() > 1e-6 * self.total_energy_kwh.max(1.0) {
            return Err(format!("Σe_i = {e_sum} but E = {}", self.total_energy_kwh));
        }
        let a_sum: f64 = self.shares.iter().map(|s| s.activity_gpu_hours).sum();
        if (a_sum - self.total_activity).abs() > 1e-6 * self.total_activity.max(1.0) {
            return Err(format!("Σa_i = {a_sum} but A = {}", self.total_activity));
        }
        Ok(())
    }

    /// The overhead bucket's share of total energy — what hardware-side
    /// mechanisms (`c`) can attack without touching any user.
    pub fn overhead_fraction(&self) -> f64 {
        self.shares
            .iter()
            .find(|s| s.user.is_none())
            .map(|s| s.energy_kwh / self.total_energy_kwh)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_problem() -> Eq1Problem {
        Eq1Problem {
            base: Scenario::quick(5, 31),
            objective: EnergyObjective::EnergyKwh,
            activity: ActivityMeasure::GpuHours,
            alpha: 0.0,
        }
    }

    #[test]
    fn grid_search_finds_feasible_min() {
        let problem = quick_problem();
        let (cells, best) = problem.grid_search(
            &[0.75, 1.0],
            &[
                PolicyKind::EasyBackfill,
                PolicyKind::StaticCap { cap_w: 150.0 },
            ],
        );
        assert_eq!(cells.len(), 4);
        let best = best.expect("α=0 means everything is feasible");
        for c in &cells {
            assert!(best.energy <= c.energy + 1e-9);
        }
        // A capped, smaller cluster uses less energy than the nominal one.
        let nominal = cells
            .iter()
            .find(|c| c.point.qs_mult == 1.0 && c.point.policy == PolicyKind::EasyBackfill)
            .unwrap();
        assert!(best.energy < nominal.energy);
    }

    /// The campaign-planner migration must be invisible: grid cells come
    /// back in the historical `grid2` order with bit-identical
    /// energy/activity to a straight [`Eq1Problem::evaluate`] loop.
    #[test]
    fn grid_search_matches_direct_evaluation_bitwise() {
        let problem = quick_problem();
        let qs_mults = [0.75, 1.0];
        let policies = [
            PolicyKind::EasyBackfill,
            PolicyKind::StaticCap { cap_w: 150.0 },
            PolicyKind::Fcfs,
        ];
        let (cells, _) = problem.grid_search(&qs_mults, &policies);
        let direct: Vec<EvaluatedPoint> =
            greener_simkit::sweep::gridn_indices(&[qs_mults.len(), policies.len()])
                .into_iter()
                .map(|ix| {
                    problem.evaluate(DecisionPoint {
                        qs_mult: qs_mults[ix[0]],
                        policy: policies[ix[1]],
                    })
                })
                .collect();
        assert_eq!(cells.len(), direct.len());
        for (c, d) in cells.iter().zip(&direct) {
            assert_eq!(c.point, d.point);
            assert_eq!(c.energy.to_bits(), d.energy.to_bits(), "{:?}", c.point);
            assert_eq!(c.activity.to_bits(), d.activity.to_bits(), "{:?}", c.point);
            assert_eq!(c.feasible, d.feasible);
        }
    }

    #[test]
    fn grid_search_on_empty_axes_is_empty() {
        let problem = quick_problem();
        let (cells, best) = problem.grid_search(&[], &[PolicyKind::Fcfs]);
        assert!(cells.is_empty() && best.is_none());
        let (cells, best) = problem.grid_search(&[1.0], &[]);
        assert!(cells.is_empty() && best.is_none());
    }

    #[test]
    fn infeasible_alpha_returns_none() {
        let mut problem = quick_problem();
        problem.alpha = f64::INFINITY;
        let (_, best) = problem.grid_search(&[1.0], &[PolicyKind::Fcfs]);
        assert!(best.is_none());
    }

    #[test]
    fn activity_floor_excludes_starved_cells() {
        // Demand a decent activity floor: the tiny 0.25x cluster should
        // complete less work than the 1.0x one. The default quick workload
        // is light enough for even the small cluster to finish everything
        // (making the comparison float noise), so saturate it: at 4 jobs/h
        // the 8-GPU cell starves while the 32-GPU cell keeps up.
        let mut problem = quick_problem();
        problem.base.trace.demand.base_rate_per_hour = 4.0;
        let small = problem.evaluate(DecisionPoint {
            qs_mult: 0.25,
            policy: PolicyKind::EasyBackfill,
        });
        let large = problem.evaluate(DecisionPoint {
            qs_mult: 1.0,
            policy: PolicyKind::EasyBackfill,
        });
        assert!(large.activity >= small.activity);
    }

    #[test]
    fn eq2_identities_hold() {
        let run = SimDriver::run(&Scenario::quick(7, 33));
        let dec = Eq2Decomposition::from_run(&run);
        dec.check_identities().unwrap();
        assert!(dec.shares.len() > 2);
        // Overhead is a meaningful but not dominant share.
        let ov = dec.overhead_fraction();
        assert!(ov > 0.1 && ov < 0.98, "overhead fraction {ov:.3}");
        // Shares sorted descending (ignoring the overhead tail entry).
        let user_shares: Vec<f64> = dec
            .shares
            .iter()
            .filter(|s| s.user.is_some())
            .map(|s| s.energy_kwh)
            .collect();
        assert!(user_shares.windows(2).all(|w| w[0] >= w[1]));
    }

    /// `obj` on a fully-instrumented run's telemetry: the oracle
    /// [`EnergyObjective::of`] must agree with bit for bit.
    fn of_run(obj: EnergyObjective, run: &RunResult) -> f64 {
        match obj {
            EnergyObjective::EnergyKwh => run.telemetry.total_energy_kwh(),
            EnergyObjective::CarbonKg => run.telemetry.total_carbon_kg(),
            EnergyObjective::CostUsd => run.telemetry.total_cost_usd(),
            EnergyObjective::WaterL => run.telemetry.total_water_l(),
        }
    }

    #[test]
    fn objectives_and_activities_evaluate() {
        let s = Scenario::quick(5, 35);
        let world = World::build(&s);
        let out = SimDriver::run_observed(&s, &world, Observe::aggregates());
        let run = SimDriver::run(&s);
        for obj in [
            EnergyObjective::EnergyKwh,
            EnergyObjective::CarbonKg,
            EnergyObjective::CostUsd,
            EnergyObjective::WaterL,
        ] {
            assert!(obj.of(&out.aggregates) > 0.0, "{obj:?}");
            // Aggregates and full instrumentation agree exactly.
            assert_eq!(
                obj.of(&out.aggregates).to_bits(),
                of_run(obj, &run).to_bits()
            );
        }
        assert!(ActivityMeasure::GpuHours.of(&out.jobs) > 0.0);
        assert!(ActivityMeasure::JobsCompleted.of(&out.jobs) > 0.0);
        assert!(ActivityMeasure::NegMeanWaitHours.of(&out.jobs) <= 0.0);
    }
}
