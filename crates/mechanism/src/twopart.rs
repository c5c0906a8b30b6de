//! The two-part mechanism: base cap + caps-for-GPUs menu.
//!
//! §II-C: "maintain a two-part mechanism: a fixed component that guarantees
//! a specified minimum amount of energy efficiency and a variable component
//! that allows for user choice … if an user accepts increasingly stringent
//! power caps on his/her allocated GPUs, the user can then, in exchange,
//! choose to have more GPUs allocated to his/her tasks."
//!
//! The fixed component is a fleet-wide base cap at the energy-optimal
//! point; the variable component is a menu of `(stricter cap, GPU
//! multiplier)` tiers. Users pick the tier maximizing private utility
//! (completion time vs. green preference); the mechanism reports energy,
//! completion-time and welfare outcomes against two baselines, and checks
//! individual rationality and incentive compatibility by enumeration.

use greener_hpc::GpuModel;
use greener_simkit::rng::RngHub;
use greener_workload::users::{PopulationConfig, UserPopulation, UserProfile};

/// One menu tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MenuTier {
    /// Power cap for this tier, watts.
    pub cap_w: f64,
    /// GPU multiplier granted in exchange.
    pub gpu_mult: f64,
}

/// Mechanism definition.
#[derive(Debug, Clone)]
pub struct TwoPartMechanism {
    /// The fixed component: everyone runs at most at this cap.
    pub base_cap_w: f64,
    /// The variable component: optional stricter tiers (tier 0 = stay at
    /// the base cap with multiplier 1).
    pub tiers: Vec<MenuTier>,
}

impl TwoPartMechanism {
    /// The default menu built around a GPU's energy-optimal cap: the base
    /// cap sits at the EDP optimum; stricter tiers trade throughput-per-GPU
    /// for more GPUs, sized so gang throughput does not decrease.
    pub fn standard(gpu: &GpuModel) -> TwoPartMechanism {
        let base = gpu.edp_optimal_cap();
        let mk = |cap: f64| {
            // Grant extra GPUs that *partially* compensate the stricter
            // cap (sub-linear sweetener): stricter tiers stay slightly
            // slower, so only users who value energy savings take them.
            let s_base = gpu.speed_at_cap(base);
            MenuTier {
                cap_w: cap,
                gpu_mult: (s_base / gpu.speed_at_cap(cap)).powf(0.7).max(1.0),
            }
        };
        TwoPartMechanism {
            base_cap_w: base,
            tiers: vec![
                MenuTier {
                    cap_w: base,
                    gpu_mult: 1.0,
                },
                mk(150.0),
                mk(125.0),
                mk(100.0),
            ],
        }
    }

    /// Energy per unit work for a tier: `gpus × power(cap) / (gpus ×
    /// speed(cap))` — more GPUs don't change energy/work, the cap does.
    pub fn tier_energy_per_work(&self, gpu: &GpuModel, tier: &MenuTier) -> f64 {
        gpu.energy_per_gpu_hour(tier.cap_w)
    }

    /// Completion-time factor of a tier relative to an uncapped single
    /// allocation: `1 / (speed(cap) × gpu_mult)`.
    pub fn tier_time_factor(&self, gpu: &GpuModel, tier: &MenuTier) -> f64 {
        1.0 / (gpu.speed_at_cap(tier.cap_w) * tier.gpu_mult)
    }

    /// A user's utility for a tier: urgency values speed, green preference
    /// values energy saved relative to nominal.
    pub fn utility(&self, gpu: &GpuModel, user: &UserProfile, tier: &MenuTier) -> f64 {
        let time = self.tier_time_factor(gpu, tier);
        let nominal_energy = gpu.energy_per_gpu_hour(gpu.nominal_power_w);
        let saving = 1.0 - self.tier_energy_per_work(gpu, tier) / nominal_energy;
        -(0.5 + 2.0 * user.urgency) * time + 3.0 * user.green_preference * saving
    }

    /// The tier index a user picks.
    pub fn choice(&self, gpu: &GpuModel, user: &UserProfile) -> usize {
        (0..self.tiers.len())
            .max_by(|&a, &b| {
                self.utility(gpu, user, &self.tiers[a])
                    .partial_cmp(&self.utility(gpu, user, &self.tiers[b]))
                    .expect("finite utility")
            })
            .expect("non-empty menu")
    }

    /// Solve for a population.
    pub fn solve(&self, gpu: &GpuModel, population: &UserPopulation) -> TwoPartOutcome {
        let nominal_energy = gpu.energy_per_gpu_hour(gpu.nominal_power_w);
        let mut tier_counts = vec![0usize; self.tiers.len()];
        let mut energy_index = 0.0;
        let mut time_factor = 0.0;
        let mut utility = 0.0;
        for u in population.users() {
            let k = self.choice(gpu, u);
            tier_counts[k] += 1;
            let tier = &self.tiers[k];
            energy_index += self.tier_energy_per_work(gpu, tier) / nominal_energy;
            time_factor += self.tier_time_factor(gpu, tier);
            utility += self.utility(gpu, u, tier);
        }
        let n = population.len() as f64;
        TwoPartOutcome {
            tier_counts,
            mean_energy_index: energy_index / n,
            mean_time_factor: time_factor / n,
            mean_utility: utility / n,
            participation: 1.0 - tier_counts_first(&self.tiers, population, gpu, self) / n,
        }
    }

    /// Individual rationality vs. a caps-only regime: every user weakly
    /// prefers their menu choice to being forced to the base cap with no
    /// compensation. Returns violating user count (0 = IR holds).
    pub fn check_individual_rationality(
        &self,
        gpu: &GpuModel,
        population: &UserPopulation,
    ) -> usize {
        let base = MenuTier {
            cap_w: self.base_cap_w,
            gpu_mult: 1.0,
        };
        population
            .users()
            .iter()
            .filter(|u| {
                let k = self.choice(gpu, u);
                self.utility(gpu, u, &self.tiers[k]) < self.utility(gpu, u, &base) - 1e-12
            })
            .count()
    }

    /// Incentive compatibility by enumeration: reporting a different type
    /// cannot improve a user's outcome, because the menu is posted and the
    /// user picks directly (a menu mechanism is trivially IC — this checks
    /// the implementation: the chosen tier maximizes the user's utility).
    pub fn check_incentive_compatibility(
        &self,
        gpu: &GpuModel,
        population: &UserPopulation,
    ) -> usize {
        population
            .users()
            .iter()
            .filter(|u| {
                let k = self.choice(gpu, u);
                let best = self.utility(gpu, u, &self.tiers[k]);
                self.tiers
                    .iter()
                    .any(|t| self.utility(gpu, u, t) > best + 1e-12)
            })
            .count()
    }
}

fn tier_counts_first(
    tiers: &[MenuTier],
    population: &UserPopulation,
    gpu: &GpuModel,
    m: &TwoPartMechanism,
) -> f64 {
    let _ = tiers;
    population
        .users()
        .iter()
        .filter(|u| m.choice(gpu, u) == 0)
        .count() as f64
}

/// Aggregate mechanism outcome.
#[derive(Debug, Clone)]
pub struct TwoPartOutcome {
    /// Users per tier.
    pub tier_counts: Vec<usize>,
    /// Mean energy-per-work relative to uncapped nominal (1.0 = no saving).
    pub mean_energy_index: f64,
    /// Mean completion-time factor relative to uncapped single allocation.
    pub mean_time_factor: f64,
    /// Mean realized utility.
    pub mean_utility: f64,
    /// Fraction of users accepting a stricter-than-base tier.
    pub participation: f64,
}

/// The three §II-C regimes compared by experiment E8.
#[derive(Debug, Clone)]
pub struct RegimeComparison {
    /// Laissez-faire: nominal caps, single allocation.
    pub laissez_faire: TwoPartOutcome,
    /// Caps-only: everyone forced to the base cap, no compensation.
    pub caps_only: TwoPartOutcome,
    /// The two-part mechanism.
    pub two_part: TwoPartOutcome,
}

/// Run the standard three-regime comparison.
pub fn compare_regimes(seed: u64) -> RegimeComparison {
    let gpu = GpuModel::default();
    let population = UserPopulation::sample(&PopulationConfig::default(), &RngHub::new(seed));
    let mechanism = TwoPartMechanism::standard(&gpu);

    let forced = |cap: f64| {
        let tier = MenuTier {
            cap_w: cap,
            gpu_mult: 1.0,
        };
        let m = TwoPartMechanism {
            base_cap_w: cap,
            tiers: vec![tier],
        };
        m.solve(&gpu, &population)
    };

    RegimeComparison {
        laissez_faire: forced(gpu.nominal_power_w),
        caps_only: forced(mechanism.base_cap_w),
        two_part: mechanism.solve(&gpu, &population),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (GpuModel, UserPopulation, TwoPartMechanism) {
        let gpu = GpuModel::default();
        let pop = UserPopulation::sample(&PopulationConfig::default(), &RngHub::new(3));
        let mech = TwoPartMechanism::standard(&gpu);
        (gpu, pop, mech)
    }

    #[test]
    fn menu_is_well_formed() {
        let (gpu, _, mech) = setup();
        assert!(mech.tiers.len() >= 3);
        assert_eq!(mech.tiers[0].gpu_mult, 1.0);
        for w in mech.tiers.windows(2) {
            assert!(w[1].cap_w < w[0].cap_w, "tiers get stricter");
            assert!(w[1].gpu_mult > w[0].gpu_mult, "compensation grows");
        }
        // Stricter tiers save energy per work.
        let e0 = mech.tier_energy_per_work(&gpu, &mech.tiers[0]);
        let e_last = mech.tier_energy_per_work(&gpu, mech.tiers.last().unwrap());
        assert!(e_last <= e0 * 1.05);
    }

    #[test]
    fn ic_and_ir_hold() {
        let (gpu, pop, mech) = setup();
        assert_eq!(mech.check_incentive_compatibility(&gpu, &pop), 0);
        assert_eq!(mech.check_individual_rationality(&gpu, &pop), 0);
    }

    #[test]
    fn some_users_take_stricter_tiers() {
        let (gpu, pop, mech) = setup();
        let out = mech.solve(&gpu, &pop);
        assert!(
            out.participation > 0.05,
            "participation {:.3}",
            out.participation
        );
        assert_eq!(out.tier_counts.iter().sum::<usize>(), pop.len());
    }

    #[test]
    fn regimes_order_as_the_paper_argues() {
        let cmp = compare_regimes(5);
        // Energy: two-part ≤ laissez-faire (strictly, with capped tiers).
        assert!(
            cmp.two_part.mean_energy_index < cmp.laissez_faire.mean_energy_index,
            "two-part must save energy: {:.3} vs {:.3}",
            cmp.two_part.mean_energy_index,
            cmp.laissez_faire.mean_energy_index
        );
        // Welfare: two-part beats caps-only (choice beats coercion).
        assert!(
            cmp.two_part.mean_utility >= cmp.caps_only.mean_utility,
            "choice must not hurt welfare: {:.3} vs {:.3}",
            cmp.two_part.mean_utility,
            cmp.caps_only.mean_utility
        );
        // Energy: stricter tiers mean the two-part regime is at least as
        // green as caps-only.
        assert!(cmp.two_part.mean_energy_index <= cmp.caps_only.mean_energy_index + 1e-9);
        // Time: "minimal impact on training speed" — the sweetener keeps
        // two-part completion times within ~30% of laissez-faire.
        assert!(
            cmp.two_part.mean_time_factor <= cmp.laissez_faire.mean_time_factor * 1.30,
            "time factor {:.3} vs laissez-faire {:.3}",
            cmp.two_part.mean_time_factor,
            cmp.laissez_faire.mean_time_factor
        );
    }

    #[test]
    fn urgency_prefers_faster_tiers() {
        let (gpu, _, mech) = setup();
        let mut urgent = UserProfile {
            id: greener_workload::UserId(0),
            area: greener_workload::Area::GeneralMl,
            urgency: 1.0,
            green_preference: 0.0,
            activity_mult: 1.0,
        };
        let k_urgent = mech.choice(&gpu, &urgent);
        urgent.urgency = 0.0;
        urgent.green_preference = 1.0;
        let k_green = mech.choice(&gpu, &urgent);
        // The green-minded user picks a tier at least as strict.
        assert!(
            mech.tiers[k_green].cap_w <= mech.tiers[k_urgent].cap_w,
            "green user cap {} vs urgent cap {}",
            mech.tiers[k_green].cap_w,
            mech.tiers[k_urgent].cap_w
        );
    }

    #[test]
    fn outcome_deterministic() {
        let a = compare_regimes(9);
        let b = compare_regimes(9);
        assert_eq!(a.two_part.tier_counts, b.two_part.tier_counts);
    }
}
