//! The user population.
//!
//! Section II-C frames the "demand side" `q_d(i)` around individual users
//! with private types: how urgent their work is and how much they value
//! energy efficiency. Those types drive queue self-selection (and adverse
//! selection) in `greener-mechanism`, and per-user activity multipliers
//! drive heterogeneous demand.

use greener_simkit::rng::RngHub;
use rand::Rng;
use rand_distr::{Distribution, LogNormal};

use crate::calendar::Area;

/// Unique user identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub u32);

/// One user's (private) type and activity profile.
#[derive(Debug, Clone, PartialEq)]
pub struct UserProfile {
    /// Identifier.
    pub id: UserId,
    /// Research area (links demand to that area's deadlines).
    pub area: Area,
    /// Urgency θᵤ ∈ \[0,1\]: weight on queue wait time.
    pub urgency: f64,
    /// Green preference θ_g ∈ \[0,1\]: weight on energy efficiency.
    pub green_preference: f64,
    /// Multiplier on the population arrival rate (heavy-tailed: a few
    /// power users dominate cluster usage).
    pub activity_mult: f64,
}

/// Population-level sampling parameters.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Number of users.
    pub n_users: u32,
    /// Beta-like shape for urgency: fraction of high-urgency users.
    pub high_urgency_fraction: f64,
    /// Mean green preference.
    pub mean_green_preference: f64,
    /// Log-sigma of the activity multiplier (heavy tail).
    pub activity_log_sigma: f64,
    /// (area, weight) mix of research areas.
    pub area_mix: Vec<(Area, f64)>,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            n_users: 200,
            high_urgency_fraction: 0.3,
            mean_green_preference: 0.35,
            activity_log_sigma: 0.8,
            area_mix: vec![
                (Area::GeneralMl, 0.35),
                (Area::NlpSpeech, 0.20),
                (Area::ComputerVision, 0.20),
                (Area::Robotics, 0.10),
                (Area::DataMining, 0.15),
            ],
        }
    }
}

/// A sampled population.
#[derive(Debug, Clone, PartialEq)]
pub struct UserPopulation {
    users: Vec<UserProfile>,
    /// Σ `activity_mult` over `users` in order: the weight total
    /// [`Self::sample_submitter`] draws against, summed once here.
    total_activity: f64,
}

impl UserPopulation {
    /// Sample a population deterministically from the hub.
    pub fn sample(config: &PopulationConfig, hub: &RngHub) -> UserPopulation {
        let mut rng = hub.stream("users.population");
        let act = LogNormal::new(0.0, config.activity_log_sigma).expect("lognormal");
        let mut users = Vec::with_capacity(config.n_users as usize);
        for i in 0..config.n_users {
            let urgency = if rng.gen::<f64>() < config.high_urgency_fraction {
                rng.gen_range(0.6..1.0)
            } else {
                rng.gen_range(0.0..0.6)
            };
            let green =
                (config.mean_green_preference + rng.gen_range(-0.35..0.35f64)).clamp(0.0, 1.0);
            let area = sample_area(&config.area_mix, &mut rng);
            users.push(UserProfile {
                id: UserId(i),
                area,
                urgency,
                green_preference: green,
                activity_mult: act.sample(&mut rng),
            });
        }
        // Normalize activity so the population mean multiplier is 1: the
        // aggregate arrival rate then stays calibrated regardless of tail
        // draws.
        let mean: f64 =
            users.iter().map(|u| u.activity_mult).sum::<f64>() / users.len().max(1) as f64;
        for u in &mut users {
            u.activity_mult /= mean;
        }
        let total_activity = users.iter().map(|u| u.activity_mult).sum();
        UserPopulation {
            users,
            total_activity,
        }
    }

    /// All users.
    pub fn users(&self) -> &[UserProfile] {
        &self.users
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True if the population is empty.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Look up a user.
    pub fn get(&self, id: UserId) -> Option<&UserProfile> {
        self.users.get(id.0 as usize)
    }

    /// Sample a submitting user weighted by activity multiplier.
    pub fn sample_submitter<R: Rng>(&self, rng: &mut R) -> &UserProfile {
        let mut x = rng.gen::<f64>() * self.total_activity;
        for u in &self.users {
            if x < u.activity_mult {
                return u;
            }
            x -= u.activity_mult;
        }
        self.users.last().expect("non-empty population")
    }
}

fn sample_area<R: Rng>(mix: &[(Area, f64)], rng: &mut R) -> Area {
    let total: f64 = mix.iter().map(|(_, w)| w).sum();
    let mut x = rng.gen::<f64>() * total;
    for &(a, w) in mix {
        if x < w {
            return a;
        }
        x -= w;
    }
    mix.last().expect("non-empty mix").0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop(seed: u64) -> UserPopulation {
        UserPopulation::sample(&PopulationConfig::default(), &RngHub::new(seed))
    }

    #[test]
    fn population_size_and_ids() {
        let p = pop(1);
        assert_eq!(p.len(), 200);
        for (i, u) in p.users().iter().enumerate() {
            assert_eq!(u.id, UserId(i as u32));
        }
        assert_eq!(p.get(UserId(5)).unwrap().id, UserId(5));
        assert!(p.get(UserId(9999)).is_none());
    }

    #[test]
    fn types_within_bounds() {
        let p = pop(2);
        for u in p.users() {
            assert!((0.0..=1.0).contains(&u.urgency));
            assert!((0.0..=1.0).contains(&u.green_preference));
            assert!(u.activity_mult > 0.0);
        }
    }

    #[test]
    fn activity_normalized_to_unit_mean() {
        let p = pop(3);
        let mean: f64 = p.users().iter().map(|u| u.activity_mult).sum::<f64>() / p.len() as f64;
        assert!((mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_is_deterministic() {
        assert_eq!(pop(4), pop(4));
        assert_ne!(pop(4), pop(5));
    }

    #[test]
    fn heavy_tail_exists() {
        let p = pop(6);
        let max = p
            .users()
            .iter()
            .map(|u| u.activity_mult)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(max > 3.0, "expected power users, max mult {max:.2}");
    }

    #[test]
    fn submitter_sampling_prefers_active_users() {
        let p = pop(7);
        let mut rng = RngHub::new(8).stream("submit");
        let mut counts = vec![0u32; p.len()];
        for _ in 0..20_000 {
            counts[p.sample_submitter(&mut rng).id.0 as usize] += 1;
        }
        // The most active user should be sampled far more often than the
        // least active.
        let (mut hi_mult, mut hi_count, mut lo_mult, mut lo_count) = (0.0, 0, f64::MAX, u32::MAX);
        for (i, u) in p.users().iter().enumerate() {
            if u.activity_mult > hi_mult {
                hi_mult = u.activity_mult;
                hi_count = counts[i];
            }
            if u.activity_mult < lo_mult {
                lo_mult = u.activity_mult;
                lo_count = counts[i];
            }
        }
        assert!(hi_count > lo_count, "{hi_count} vs {lo_count}");
    }

    #[test]
    fn urgency_mix_matches_config() {
        let p = pop(9);
        let high = p.users().iter().filter(|u| u.urgency >= 0.6).count() as f64 / p.len() as f64;
        assert!((high - 0.3).abs() < 0.1, "high-urgency fraction {high:.2}");
    }
}
