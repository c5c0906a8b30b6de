//! Redundancy and reproducibility waste (§IV-A).
//!
//! "Many experiments usually begin with training known and proven models …
//! Doing so may require some hyper-parameter search, if not full-blown
//! optimization, resulting in multiple training runs and inevitably
//! redundant runs, wasted compute, and additional energy costs. …
//! (multiple) attempts at replication also waste resources and energy."
//!
//! Two analytic models quantify those claims:
//!
//! * [`SweepCampaign`] — a hyper-parameter search run naively (every
//!   configuration to completion) vs. with successive-halving early
//!   stopping; the difference is the §IV-A redundancy.
//! * [`ReplicationModel`] — a community replicating a published result
//!   whose reporting quality determines the per-attempt success
//!   probability; poor reporting multiplies the expected compute burned
//!   before the first success.

/// A hyper-parameter sweep campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepCampaign {
    /// Number of configurations explored.
    pub n_configs: u32,
    /// Cost of one full training run, GPU-hours.
    pub full_run_gpu_hours: f64,
    /// Successive-halving reduction factor η (keep `1/η` per rung).
    pub eta: u32,
}

impl SweepCampaign {
    /// A representative campaign: 81 configs, 100 GPU-hour runs, η = 3.
    pub fn representative() -> SweepCampaign {
        SweepCampaign {
            n_configs: 81,
            full_run_gpu_hours: 100.0,
            eta: 3,
        }
    }

    /// GPU-hours of the naive strategy: every configuration trains fully.
    pub fn naive_gpu_hours(&self) -> f64 {
        self.n_configs as f64 * self.full_run_gpu_hours
    }

    /// GPU-hours under successive halving: rung `r` trains `n/η^r` configs
    /// for `η^r / η^R` of the full budget, where `R = ⌈log_η n⌉` rungs
    /// bring the final survivors to a complete run.
    pub fn halving_gpu_hours(&self) -> f64 {
        assert!(self.eta >= 2, "halving needs η ≥ 2");
        let n = self.n_configs as f64;
        let eta = self.eta as f64;
        let rungs = (n.ln() / eta.ln()).ceil().max(1.0) as u32;
        let mut total = 0.0;
        let mut alive = n;
        for r in 0..=rungs {
            // Budget per config at this rung (fraction of a full run).
            let frac = eta.powi(r as i32) / eta.powi(rungs as i32);
            total += alive * frac * self.full_run_gpu_hours;
            alive = (alive / eta).ceil();
            if alive < 1.0 {
                break;
            }
        }
        total
    }

    /// The §IV-A redundancy: fraction of the naive budget that early
    /// stopping would have avoided.
    pub fn redundancy_fraction(&self) -> f64 {
        1.0 - self.halving_gpu_hours() / self.naive_gpu_hours()
    }
}

/// A community attempting to replicate a published result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationModel {
    /// Probability one attempt succeeds, in (0, 1]. Driven by reporting
    /// quality: full hyper-parameters + seeds + code ≈ 0.9; "see paper" ≈
    /// 0.3 (the inconsistent-reporting regime ref \[21\] documents).
    pub attempt_success_prob: f64,
    /// Cost of one replication attempt, GPU-hours.
    pub attempt_gpu_hours: f64,
    /// Number of independent labs replicating the result.
    pub n_labs: u32,
}

impl ReplicationModel {
    /// Expected attempts until first success for one lab (geometric mean).
    pub fn expected_attempts(&self) -> f64 {
        assert!(
            self.attempt_success_prob > 0.0 && self.attempt_success_prob <= 1.0,
            "success probability in (0,1]"
        );
        1.0 / self.attempt_success_prob
    }

    /// Expected community compute, GPU-hours (every lab replicates
    /// independently — the duplicated effort §IV-A laments).
    pub fn expected_community_gpu_hours(&self) -> f64 {
        self.n_labs as f64 * self.expected_attempts() * self.attempt_gpu_hours
    }

    /// Waste relative to the well-reported regime: extra GPU-hours burned
    /// because reporting quality is `self` instead of `well_reported`.
    pub fn waste_vs(&self, well_reported: &ReplicationModel) -> f64 {
        self.expected_community_gpu_hours() - well_reported.expected_community_gpu_hours()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_budget_is_linear() {
        let c = SweepCampaign {
            n_configs: 10,
            full_run_gpu_hours: 5.0,
            eta: 2,
        };
        assert!((c.naive_gpu_hours() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn halving_saves_most_of_the_budget() {
        let c = SweepCampaign::representative();
        let naive = c.naive_gpu_hours();
        let halving = c.halving_gpu_hours();
        assert!(halving < naive * 0.4, "halving {halving} vs naive {naive}");
        let red = c.redundancy_fraction();
        assert!((0.6..1.0).contains(&red), "redundancy {red:.2}");
    }

    #[test]
    fn halving_never_exceeds_naive() {
        for n in [2u32, 5, 27, 81, 200] {
            for eta in [2u32, 3, 4] {
                let c = SweepCampaign {
                    n_configs: n,
                    full_run_gpu_hours: 10.0,
                    eta,
                };
                assert!(
                    c.halving_gpu_hours() <= c.naive_gpu_hours() + 1e-9,
                    "n={n} eta={eta}"
                );
                assert!(c.halving_gpu_hours() > 0.0);
            }
        }
    }

    #[test]
    fn single_config_has_no_redundancy() {
        let c = SweepCampaign {
            n_configs: 1,
            full_run_gpu_hours: 10.0,
            eta: 3,
        };
        // One config still needs one full run.
        assert!(c.halving_gpu_hours() >= 10.0 - 1e-9);
    }

    #[test]
    fn poor_reporting_multiplies_attempts() {
        let good = ReplicationModel {
            attempt_success_prob: 0.9,
            attempt_gpu_hours: 100.0,
            n_labs: 10,
        };
        let poor = ReplicationModel {
            attempt_success_prob: 0.3,
            ..good
        };
        assert!((good.expected_attempts() - 1.111).abs() < 1e-3);
        assert!((poor.expected_attempts() - 3.333).abs() < 1e-3);
        let waste = poor.waste_vs(&good);
        assert!(waste > 2_000.0, "waste {waste} GPU-hours");
        // Poor reporting triples community compute.
        assert!(poor.expected_community_gpu_hours() / good.expected_community_gpu_hours() > 2.9);
    }

    #[test]
    #[should_panic(expected = "success probability")]
    fn zero_success_prob_rejected() {
        ReplicationModel {
            attempt_success_prob: 0.0,
            attempt_gpu_hours: 1.0,
            n_labs: 1,
        }
        .expected_attempts();
    }
}
