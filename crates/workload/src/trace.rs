//! Deterministic job-trace generation.
//!
//! Arrivals follow the non-homogeneous Poisson process defined by
//! [`DemandModel`], sampled exactly by *thinning* (Lewis & Shedler): draw
//! candidate arrivals from a homogeneous process at the rate upper bound,
//! accept each with probability `λ(t)/λ_max`. Job attributes are sampled
//! from [`SizeDistribution`] and the submitting user from the population.
//!
//! Thinning evaluates `λ(t)` once per candidate, roughly two candidates
//! per accepted job. [`DemandModel::hourly_rates`] resolves the calendar
//! factors of `λ` (diurnal, weekly, seasonal) once per civil day into an
//! hourly table before any shard runs, and each shard walks the sorted
//! deadline list with a [`DeadlineCursor`], since its candidates only move
//! forward in time. A candidate then costs one table read plus the few
//! deadline terms active at its instant, where a [`DemandModel::rate_at`]
//! call would resolve its civil date and walk the deadline list from the
//! start. The rate is bit-identical to `rate_at`: a property test below
//! pins the trace against a per-candidate `rate_at` reference.
//!
//! A trace is a pure function of `(config, calendar, seed)`, so policy
//! comparisons in `greener-core` replay the *same* trace — the paired-
//! comparison design that makes small policy effects measurable.
//!
//! # Sharded synthesis
//!
//! The horizon is cut into fixed day blocks of [`TRACE_SHARD_DAYS`]; shard
//! `s` draws its candidate arrivals and its job attributes from the indexed
//! streams `trace.arrivals[s]` / `trace.attributes[s]` and thins them
//! against `λ(t)` inside its own time window only. Because the homogeneous
//! candidate process is memoryless, restarting the exponential clock at
//! each window boundary still samples a homogeneous Poisson(λ_max) process
//! over the whole horizon, so the thinning construction stays exact. Shards
//! touch disjoint streams and disjoint windows, so they can run in any
//! order — or concurrently — and concatenating them in index order yields
//! the same byte-for-byte job sequence as running them sequentially (job
//! ids are assigned densely after concatenation). The property test
//! below pins the sharded trace against a per-candidate reference for
//! random seeds and configs; CI runs it at one worker and the host's count.

use greener_simkit::calendar::Calendar;
use greener_simkit::rng::RngHub;
use greener_simkit::time::SimTime;
use rand::Rng;

use crate::calendar::ConferenceCalendar;
use crate::demand::{DeadlineCursor, DemandConfig, DemandModel};
use crate::job::{Job, JobId, QueueClass, SizeDistribution};
use crate::users::{PopulationConfig, UserPopulation};

/// Everything needed to generate a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Demand-model parameters.
    pub demand: DemandConfig,
    /// Job-size distributions.
    pub sizes: SizeDistribution,
    /// User-population parameters.
    pub population: PopulationConfig,
    /// Urgency threshold above which users submit to the urgent queue.
    pub urgent_threshold: f64,
    /// Green-preference threshold above which deferrable jobs go green.
    pub green_threshold: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            demand: DemandConfig::default(),
            sizes: SizeDistribution::default(),
            population: PopulationConfig::default(),
            urgent_threshold: 0.75,
            green_threshold: 0.60,
        }
    }
}

/// Days per trace shard: one week balances shard count (a two-year horizon
/// yields ~105 shards — plenty of parallelism) against per-shard stream
/// setup cost, and aligns shard edges with the weekly demand cycle. The
/// value is part of the trace's identity: changing it changes which indexed
/// streams sample which window, i.e. the realization.
pub const TRACE_SHARD_DAYS: usize = 7;

/// Generates job traces.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    config: TraceConfig,
    demand: DemandModel,
    population: UserPopulation,
    calendar: Calendar,
}

impl TraceGenerator {
    /// Build a generator for the given conference calendar and sim calendar.
    pub fn new(
        config: TraceConfig,
        conferences: &ConferenceCalendar,
        calendar: Calendar,
        hub: &RngHub,
    ) -> TraceGenerator {
        let demand = DemandModel::new(config.demand.clone(), conferences, &calendar);
        let population = UserPopulation::sample(&config.population, hub);
        TraceGenerator {
            config,
            demand,
            population,
            calendar,
        }
    }

    /// The demand model in use.
    pub fn demand(&self) -> &DemandModel {
        &self.demand
    }

    /// The sampled user population.
    pub fn population(&self) -> &UserPopulation {
        &self.population
    }

    /// Generate the job trace for `hours` of simulated time, synthesizing
    /// the day-block shards across the worker pool. The trace is identical
    /// at every worker count (see the module docs for the sharding
    /// construction).
    pub fn generate(&self, hours: usize, hub: &RngHub) -> Vec<Job> {
        let horizon_secs = hours as f64 * 3_600.0;
        // The calendar factors of λ(t), resolved once per day for the
        // whole horizon; the bound and every shard's thinning read them.
        let rates = self.demand.hourly_rates(&self.calendar, hours);
        // One bound for every shard: λ_max is a pure function of
        // (config, calendar, hours), so the thinning acceptance ratio is
        // shard-independent.
        let lambda_max = rates.upper_bound() / 3_600.0; // per second
        if lambda_max <= 0.0 || hours == 0 {
            return Vec::new();
        }
        let shard_secs = (TRACE_SHARD_DAYS * 24) as f64 * 3_600.0;
        let shards = hours.div_ceil(TRACE_SHARD_DAYS * 24);
        let shard_jobs = greener_simkit::par::sharded_map(shards, |s| {
            let mut arr_rng = hub.stream_indexed("trace.arrivals", s as u64);
            let mut attr_rng = hub.stream_indexed("trace.attributes", s as u64);
            let window_start = s as f64 * shard_secs;
            let window_end = (window_start + shard_secs).min(horizon_secs);
            // Candidates only move forward in time within a shard.
            let mut cursor = DeadlineCursor::default();
            let mut jobs = Vec::new();
            let mut t = window_start;
            loop {
                // Exponential gap at the bounding rate; restarting the
                // clock at the window edge is exact by memorylessness.
                let u: f64 = arr_rng.gen::<f64>().max(1e-300);
                t += -u.ln() / lambda_max;
                if t >= window_end {
                    break;
                }
                let st = SimTime(t as u64);
                let rate = rates.rate(&mut cursor, st) / 3_600.0;
                if arr_rng.gen::<f64>() * lambda_max > rate {
                    continue; // thinned out
                }
                // Provisional id; reassigned densely after concatenation.
                jobs.push(self.sample_job(JobId(0), st, &mut attr_rng));
            }
            jobs
        });
        // Shards cover disjoint, increasing windows: concatenating in index
        // order keeps submit times sorted, and the dense id assignment
        // matches the order the driver replays.
        let mut jobs: Vec<Job> = shard_jobs.concat();
        for (i, job) in jobs.iter_mut().enumerate() {
            job.id = JobId(i as u64);
        }
        jobs
    }

    /// Sample one job's attributes at a submission instant.
    fn sample_job<R: Rng>(&self, id: JobId, submit: SimTime, rng: &mut R) -> Job {
        let sizes = &self.config.sizes;
        let user = self.population.sample_submitter(rng);
        let gpus = sizes.sample_gpus(rng);
        let per_gpu_hours = sizes.sample_runtime_hours(rng);
        let (deferrable, start_deadline) = sizes.sample_deferral(rng, submit);
        // Urgent users never defer.
        let deferrable = deferrable && user.urgency < self.config.urgent_threshold;
        let queue = if user.urgency >= self.config.urgent_threshold {
            QueueClass::Urgent
        } else if deferrable && user.green_preference >= self.config.green_threshold {
            QueueClass::Green
        } else {
            QueueClass::Standard
        };
        Job {
            id,
            user: user.id,
            kind: sizes.sample_kind(rng),
            gpus,
            work_gpu_hours: per_gpu_hours * gpus as f64,
            submit,
            deferrable,
            start_deadline: if deferrable { start_deadline } else { None },
            queue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greener_simkit::calendar::CalDate;

    fn generator(seed: u64) -> (TraceGenerator, RngHub) {
        let hub = RngHub::new(seed);
        let cal = Calendar::new(CalDate::new(2020, 1, 1));
        (
            TraceGenerator::new(
                TraceConfig::default(),
                &ConferenceCalendar::table_i(),
                cal,
                &hub,
            ),
            hub,
        )
    }

    #[test]
    fn trace_is_deterministic() {
        let (g1, h1) = generator(11);
        let (g2, h2) = generator(11);
        let a = g1.generate(30 * 24, &h1);
        let b = g2.generate(30 * 24, &h2);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn arrivals_sorted_and_within_horizon() {
        let (g, hub) = generator(12);
        let hours = 60 * 24;
        let jobs = g.generate(hours, &hub);
        assert!(jobs.windows(2).all(|w| w[0].submit <= w[1].submit));
        assert!(jobs.iter().all(|j| j.submit.secs() < hours as u64 * 3_600));
        // Ids are sequential.
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, JobId(i as u64));
        }
    }

    #[test]
    fn volume_tracks_expected_rate() {
        let (g, hub) = generator(13);
        let hours = 90 * 24;
        let jobs = g.generate(hours, &hub);
        let expected: f64 = g
            .demand()
            .rate_series(g.population_calendar(), hours)
            .values()
            .iter()
            .sum();
        let n = jobs.len() as f64;
        assert!(
            (n / expected - 1.0).abs() < 0.05,
            "got {n} jobs, expected ≈{expected:.0}"
        );
    }

    #[test]
    fn urgent_users_fill_urgent_queue() {
        let (g, hub) = generator(14);
        let jobs = g.generate(45 * 24, &hub);
        let urgent: Vec<&Job> = jobs
            .iter()
            .filter(|j| j.queue == QueueClass::Urgent)
            .collect();
        assert!(!urgent.is_empty());
        for j in &urgent {
            let u = g.population().get(j.user).unwrap();
            assert!(u.urgency >= 0.75);
            assert!(!j.deferrable, "urgent jobs must not defer");
        }
    }

    #[test]
    fn green_queue_jobs_are_deferrable() {
        let (g, hub) = generator(15);
        let jobs = g.generate(45 * 24, &hub);
        let green: Vec<&Job> = jobs
            .iter()
            .filter(|j| j.queue == QueueClass::Green)
            .collect();
        assert!(!green.is_empty(), "expected some green-queue jobs");
        for j in &green {
            assert!(j.deferrable);
            assert!(j.start_deadline.is_some());
        }
    }

    #[test]
    fn work_is_positive_and_finite() {
        let (g, hub) = generator(16);
        for j in g.generate(30 * 24, &hub) {
            assert!(j.work_gpu_hours > 0.0 && j.work_gpu_hours.is_finite());
            assert!(j.gpus >= 1);
        }
    }

    impl TraceGenerator {
        /// Test helper exposing the calendar.
        fn population_calendar(&self) -> &Calendar {
            &self.calendar
        }
    }

    #[test]
    fn partial_final_shard_stays_within_horizon() {
        // 10 days = one full 7-day shard plus a 3-day remainder window.
        let (g, hub) = generator(21);
        let hours = 10 * 24;
        let jobs = g.generate(hours, &hub);
        assert!(!jobs.is_empty());
        assert!(jobs.iter().all(|j| j.submit.secs() < hours as u64 * 3_600));
        // Both shards contribute.
        let edge = (TRACE_SHARD_DAYS * 24 * 3_600) as u64;
        assert!(jobs.iter().any(|j| j.submit.secs() < edge));
        assert!(jobs.iter().any(|j| j.submit.secs() >= edge));
    }

    #[test]
    fn zero_hours_is_empty() {
        let (g, hub) = generator(22);
        assert!(g.generate(0, &hub).is_empty());
    }

    /// The per-hour reference bound: [`DemandModel::rate_at`] at every
    /// whole hour, resolving the calendar on each call.
    fn reference_upper_bound(model: &DemandModel, calendar: &Calendar, hours: usize) -> f64 {
        let mut max = 0.0f64;
        for h in 0..hours {
            max = max.max(model.rate_at(calendar, SimTime::from_hours(h as u64)));
        }
        max * 1.01
    }

    /// The per-candidate reference trace: the sequential thinning loop
    /// with a [`DemandModel::rate_at`] call per candidate, no hourly table
    /// and no deadline cursor.
    fn reference_trace(g: &TraceGenerator, hours: usize, hub: &RngHub) -> Vec<Job> {
        let lambda_max = reference_upper_bound(&g.demand, &g.calendar, hours) / 3_600.0;
        if lambda_max <= 0.0 || hours == 0 {
            return Vec::new();
        }
        let horizon_secs = hours as f64 * 3_600.0;
        let shard_secs = (TRACE_SHARD_DAYS * 24) as f64 * 3_600.0;
        let mut jobs = Vec::new();
        for s in 0..hours.div_ceil(TRACE_SHARD_DAYS * 24) {
            let mut arr_rng = hub.stream_indexed("trace.arrivals", s as u64);
            let mut attr_rng = hub.stream_indexed("trace.attributes", s as u64);
            let window_end = ((s + 1) as f64 * shard_secs).min(horizon_secs);
            let mut t = s as f64 * shard_secs;
            loop {
                let u: f64 = arr_rng.gen::<f64>().max(1e-300);
                t += -u.ln() / lambda_max;
                if t >= window_end {
                    break;
                }
                let st = SimTime(t as u64);
                let rate = g.demand.rate_at(&g.calendar, st) / 3_600.0;
                if arr_rng.gen::<f64>() * lambda_max > rate {
                    continue;
                }
                let id = JobId(jobs.len() as u64);
                jobs.push(g.sample_job(id, st, &mut attr_rng));
            }
        }
        jobs
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]
            /// The table-driven bound, rate series and thinned trace equal
            /// the straight per-hour and per-candidate `rate_at` loops, bit
            /// for bit, from random start dates (leap days, year ends and
            /// deadline ramps included), over horizons that end mid-day
            /// and mid-shard, with and without rolling submissions.
            #[test]
            fn table_driven_trace_equals_rate_at_reference(
                seed in 0u64..1_000_000,
                start_serial in 17_800i64..19_000,
                hours in 0usize..(45 * 24),
                base_rate in 0.3f64..8.0,
                rolling in 0u8..2,
            ) {
                let hub = RngHub::new(seed);
                let cal = Calendar::new(CalDate::from_serial_day(start_serial));
                let mut config = TraceConfig::default();
                config.demand.base_rate_per_hour = base_rate;
                config.demand.rolling = rolling == 1;
                let g = TraceGenerator::new(config, &ConferenceCalendar::table_i(), cal, &hub);
                prop_assert_eq!(
                    g.demand().rate_upper_bound(&cal, hours).to_bits(),
                    reference_upper_bound(g.demand(), &cal, hours).to_bits()
                );
                let series = g.demand().rate_series(&cal, hours);
                for (h, r) in series.values().iter().enumerate() {
                    let reference = g.demand().rate_at(&cal, SimTime::from_hours(h as u64));
                    prop_assert_eq!((h, r.to_bits()), (h, reference.to_bits()));
                }
                prop_assert_eq!(g.generate(hours, &hub), reference_trace(&g, hours, &hub));
            }
        }
    }
}
