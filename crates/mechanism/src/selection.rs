//! Queue self-selection and adverse selection.
//!
//! §II-C: queues segmented on user-provided information improve scheduling,
//! but "this mechanism runs the risk of adverse selection — users
//! mis-characterize their preferences and select themselves into queues
//! where resources are fastest, most plentiful, or the most available,
//! leaving select queues clogged and overtaxed and others largely, if not
//! entirely, idle."
//!
//! [`QueueGame`] solves the congestion game: given posted queue attributes,
//! users best-respond; realized waits follow an M/M/1-style delay curve in
//! each queue's load; iterate to a fixed point. Comparing *truthful*
//! assignment (by true type) against *strategic* choice exhibits exactly
//! the clogging the paper predicts.

use greener_simkit::rng::RngHub;
use greener_workload::users::{PopulationConfig, UserPopulation, UserProfile};
use greener_workload::QueueClass;

/// A posted queue offering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueSpec {
    /// Queue identity.
    pub class: QueueClass,
    /// Power cap applied in this queue, watts (nominal = 250).
    pub power_cap_w: f64,
    /// Share of cluster capacity reserved for the queue, in (0,1].
    pub capacity_share: f64,
    /// Green credit: the warm-glow/reporting benefit green-minded users
    /// get from this queue, in utility units.
    pub green_credit: f64,
    /// Base service time at zero congestion, hours.
    pub base_service_hours: f64,
}

/// The standard three-queue offering.
pub fn standard_queues() -> Vec<QueueSpec> {
    vec![
        QueueSpec {
            class: QueueClass::Urgent,
            power_cap_w: 250.0,
            capacity_share: 0.35,
            green_credit: 0.0,
            base_service_hours: 1.5,
        },
        QueueSpec {
            class: QueueClass::Standard,
            power_cap_w: 250.0,
            capacity_share: 0.50,
            green_credit: 0.0,
            base_service_hours: 3.5,
        },
        QueueSpec {
            class: QueueClass::Green,
            power_cap_w: 160.0,
            capacity_share: 0.15,
            green_credit: 1.0,
            base_service_hours: 8.0,
        },
    ]
}

/// How users pick queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChoiceModel {
    /// Assignment by true type: urgent types → urgent queue, green types →
    /// green queue, everyone else standard (what an informed operator
    /// would do with honest declarations).
    Truthful,
    /// Every user best-responds to posted attributes with their *private*
    /// utility — free to mis-represent their type.
    Strategic,
}

/// The solved game.
#[derive(Debug, Clone)]
pub struct AdverseSelectionOutcome {
    /// Choice model used.
    pub model: ChoiceModel,
    /// Fraction of users in each queue (same order as the spec list).
    pub queue_shares: Vec<f64>,
    /// Equilibrium expected wait per queue, hours.
    pub queue_waits: Vec<f64>,
    /// Mean realized utility across users.
    pub mean_utility: f64,
    /// Utilization (load/capacity) per queue.
    pub queue_loads: Vec<f64>,
    /// Fixed-point iterations used.
    pub iterations: usize,
}

impl AdverseSelectionOutcome {
    /// The clogging statistic: max queue load / min queue load. Balanced
    /// systems sit near 1; adverse selection drives it up.
    pub fn imbalance(&self) -> f64 {
        let max = self
            .queue_loads
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let min = self
            .queue_loads
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
            .max(1e-9);
        max / min
    }
}

/// The queue-selection congestion game.
#[derive(Debug, Clone)]
pub struct QueueGame {
    /// Posted queues.
    pub queues: Vec<QueueSpec>,
    /// The user population.
    pub population: UserPopulation,
    /// Urgency threshold for truthful urgent assignment.
    pub urgent_threshold: f64,
    /// Green-preference threshold for truthful green assignment.
    pub green_threshold: f64,
}

impl QueueGame {
    /// Build the game with the standard queues and a sampled population.
    pub fn standard(seed: u64) -> QueueGame {
        QueueGame {
            queues: standard_queues(),
            population: UserPopulation::sample(&PopulationConfig::default(), &RngHub::new(seed)),
            urgent_threshold: 0.6,
            green_threshold: 0.55,
        }
    }

    /// Delay curve: expected wait in a queue at load ρ (relative to its
    /// capacity share), M/M/1-style with a hard cutoff.
    fn wait_hours(spec: &QueueSpec, load_share: f64) -> f64 {
        let rho = load_share / spec.capacity_share;
        spec.base_service_hours / (1.0 - 0.8 * rho).max(0.08)
    }

    /// A user's utility for a queue at the current posted waits.
    ///
    /// Urgent types hate waiting; green types enjoy the green credit; the
    /// cap's slowdown hurts everyone a little (nominal 250 W reference).
    fn utility(&self, user: &UserProfile, spec: &QueueSpec, wait_h: f64) -> f64 {
        let wait_cost = (0.2 + user.urgency) * wait_h;
        let green_gain = user.green_preference * spec.green_credit * 1.5;
        let slowdown_cost = (250.0 - spec.power_cap_w).max(0.0) / 250.0 * 3.0;
        -wait_cost + green_gain - slowdown_cost
    }

    /// Solve under a choice model.
    pub fn solve(&self, model: ChoiceModel) -> AdverseSelectionOutcome {
        let n = self.population.len() as f64;
        let q = self.queues.len();
        match model {
            ChoiceModel::Truthful => {
                let mut counts = vec![0.0; q];
                for u in self.population.users() {
                    let idx = if u.urgency >= self.urgent_threshold {
                        self.index_of(QueueClass::Urgent)
                    } else if u.green_preference >= self.green_threshold {
                        self.index_of(QueueClass::Green)
                    } else {
                        self.index_of(QueueClass::Standard)
                    };
                    counts[idx] += 1.0;
                }
                let shares: Vec<f64> = counts.iter().map(|c| c / n).collect();
                let waits: Vec<f64> = self
                    .queues
                    .iter()
                    .zip(&shares)
                    .map(|(s, &sh)| Self::wait_hours(s, sh))
                    .collect();
                let utility = self.mean_utility_for(&shares, &waits, model);
                self.outcome(model, shares, waits, utility, 1)
            }
            ChoiceModel::Strategic => {
                // Fixed point: start uniform, best-respond, damp, repeat.
                let mut shares = vec![1.0 / q as f64; q];
                let mut waits: Vec<f64> = self
                    .queues
                    .iter()
                    .zip(&shares)
                    .map(|(s, &sh)| Self::wait_hours(s, sh))
                    .collect();
                let mut iterations = 0;
                for it in 0..500 {
                    iterations = it + 1;
                    let mut counts = vec![0.0; q];
                    for u in self.population.users() {
                        let best = (0..q)
                            .max_by(|&a, &b| {
                                self.utility(u, &self.queues[a], waits[a])
                                    .partial_cmp(&self.utility(u, &self.queues[b], waits[b]))
                                    .expect("finite utility")
                            })
                            .expect("non-empty queues");
                        counts[best] += 1.0;
                    }
                    let new_shares: Vec<f64> = counts.iter().map(|c| c / n).collect();
                    // Robbins-Monro-style decaying step keeps the discrete
                    // best-response dynamics from cycling.
                    let step = 0.5 / (1.0 + it as f64 / 15.0);
                    let mut moved = 0.0;
                    for i in 0..q {
                        let next = (1.0 - step) * shares[i] + step * new_shares[i];
                        moved += (next - shares[i]).abs();
                        shares[i] = next;
                    }
                    waits = self
                        .queues
                        .iter()
                        .zip(&shares)
                        .map(|(s, &sh)| Self::wait_hours(s, sh))
                        .collect();
                    if moved < 2e-3 {
                        break;
                    }
                }
                let utility = self.mean_utility_for(&shares, &waits, model);
                self.outcome(model, shares, waits, utility, iterations)
            }
        }
    }

    fn index_of(&self, class: QueueClass) -> usize {
        self.queues
            .iter()
            .position(|s| s.class == class)
            .expect("queue class present")
    }

    fn mean_utility_for(&self, shares: &[f64], waits: &[f64], model: ChoiceModel) -> f64 {
        let mut total = 0.0;
        for u in self.population.users() {
            let idx = match model {
                ChoiceModel::Truthful => {
                    if u.urgency >= self.urgent_threshold {
                        self.index_of(QueueClass::Urgent)
                    } else if u.green_preference >= self.green_threshold {
                        self.index_of(QueueClass::Green)
                    } else {
                        self.index_of(QueueClass::Standard)
                    }
                }
                ChoiceModel::Strategic => (0..self.queues.len())
                    .max_by(|&a, &b| {
                        self.utility(u, &self.queues[a], waits[a])
                            .partial_cmp(&self.utility(u, &self.queues[b], waits[b]))
                            .expect("finite")
                    })
                    .expect("non-empty"),
            };
            total += self.utility(u, &self.queues[idx], waits[idx]);
        }
        let _ = shares;
        total / self.population.len() as f64
    }

    fn outcome(
        &self,
        model: ChoiceModel,
        shares: Vec<f64>,
        waits: Vec<f64>,
        mean_utility: f64,
        iterations: usize,
    ) -> AdverseSelectionOutcome {
        let loads: Vec<f64> = self
            .queues
            .iter()
            .zip(&shares)
            .map(|(s, &sh)| sh / s.capacity_share)
            .collect();
        AdverseSelectionOutcome {
            model,
            queue_shares: shares,
            queue_waits: waits,
            mean_utility,
            queue_loads: loads,
            iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_are_distributions() {
        let game = QueueGame::standard(7);
        for model in [ChoiceModel::Truthful, ChoiceModel::Strategic] {
            let out = game.solve(model);
            let sum: f64 = out.queue_shares.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{model:?} shares sum {sum}");
            assert!(out.queue_shares.iter().all(|&s| (0.0..=1.0).contains(&s)));
            assert!(out.queue_waits.iter().all(|&w| w.is_finite() && w > 0.0));
        }
    }

    #[test]
    fn strategic_users_clog_fast_queues() {
        // The paper's adverse-selection prediction: strategic users
        // "select themselves into queues where resources are fastest",
        // leaving the fast queue "clogged and overtaxed" and the green
        // queue "largely, if not entirely, idle".
        let game = QueueGame::standard(11);
        let truthful = game.solve(ChoiceModel::Truthful);
        let strategic = game.solve(ChoiceModel::Strategic);
        let (urgent, green) = (0, 2);
        assert!(
            strategic.queue_shares[urgent] > truthful.queue_shares[urgent] + 0.05,
            "urgent queue should clog: {:.3} vs {:.3}",
            strategic.queue_shares[urgent],
            truthful.queue_shares[urgent]
        );
        assert!(
            strategic.queue_waits[urgent] > truthful.queue_waits[urgent],
            "clogging must show up in waits"
        );
        assert!(
            strategic.queue_shares[green] < truthful.queue_shares[green],
            "green queue should empty out: {:.3} vs {:.3}",
            strategic.queue_shares[green],
            truthful.queue_shares[green]
        );
    }

    #[test]
    fn strategic_fixed_point_converges() {
        let game = QueueGame::standard(13);
        let out = game.solve(ChoiceModel::Strategic);
        assert!(out.iterations <= 500);
        // The damped dynamics must end on a valid, finite state whether or
        // not the discrete best responses settled exactly.
        assert!(out.queue_waits.iter().all(|w| w.is_finite()));
    }

    #[test]
    fn truthful_single_pass() {
        let game = QueueGame::standard(17);
        assert_eq!(game.solve(ChoiceModel::Truthful).iterations, 1);
    }

    #[test]
    fn congestion_raises_waits() {
        let spec = standard_queues()[0];
        let light = QueueGame::wait_hours(&spec, 0.05);
        let heavy = QueueGame::wait_hours(&spec, 0.30);
        assert!(heavy > light * 2.0, "{heavy} vs {light}");
    }

    #[test]
    fn outcome_is_deterministic_in_seed() {
        let a = QueueGame::standard(23).solve(ChoiceModel::Strategic);
        let b = QueueGame::standard(23).solve(ChoiceModel::Strategic);
        assert_eq!(a.queue_shares, b.queue_shares);
    }
}
