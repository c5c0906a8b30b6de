//! Jobs and job-size distributions.
//!
//! A [`Job`] is the unit the scheduler places: it requests a number of GPUs
//! and carries an amount of *work* expressed in GPU-hours at nominal clock.
//! Power caps slow a job down via the GPU throughput curve in `greener-hpc`;
//! the work stays constant. Inference is modelled separately (§IV-B): a
//! long-lived low-utilization service rather than a batch job.

use greener_simkit::time::{Duration, SimTime};
use rand::Rng;
use rand_distr::{Distribution, LogNormal};

use crate::users::UserId;

/// Unique job identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// What the job computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Single model-training run.
    Training,
    /// Hyper-parameter sweep member (the redundancy §IV-A worries about).
    HyperparamSweep,
    /// Batch inference / evaluation pass.
    InferenceBatch,
    /// Generic batch analytics.
    Batch,
}

impl JobKind {
    /// All kinds.
    pub const ALL: [JobKind; 4] = [
        JobKind::Training,
        JobKind::HyperparamSweep,
        JobKind::InferenceBatch,
        JobKind::Batch,
    ];
}

/// Queue class a job was submitted to (the §II-C segmentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueClass {
    /// Default queue: nominal power, standard priority.
    #[default]
    Standard,
    /// Urgent queue: highest priority, nominal power.
    Urgent,
    /// Green queue: deferrable, runs under stricter power caps and
    /// carbon-aware gating in exchange for priority when green.
    Green,
}

impl QueueClass {
    /// All classes.
    pub const ALL: [QueueClass; 3] = [QueueClass::Standard, QueueClass::Urgent, QueueClass::Green];
}

/// One schedulable job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Unique id.
    pub id: JobId,
    /// Submitting user.
    pub user: UserId,
    /// Job kind.
    pub kind: JobKind,
    /// GPUs requested (fixed-size gang).
    pub gpus: u32,
    /// Work in GPU-hours at nominal speed and full allocation.
    pub work_gpu_hours: f64,
    /// Submission time.
    pub submit: SimTime,
    /// True if the job may be delayed by carbon-aware gating.
    pub deferrable: bool,
    /// Latest acceptable start (only meaningful when `deferrable`).
    pub start_deadline: Option<SimTime>,
    /// Queue the job was submitted to.
    pub queue: QueueClass,
}

impl Job {
    /// Nominal runtime at full speed: work divided across the gang.
    pub fn nominal_duration(&self) -> Duration {
        Duration::from_hours_f64(self.work_gpu_hours / self.gpus as f64)
    }

    /// Runtime at a given speed fraction (from a power cap), `0 < s ≤ 1`.
    pub fn duration_at_speed(&self, speed_fraction: f64) -> Duration {
        assert!(
            speed_fraction > 0.0 && speed_fraction <= 1.0 + 1e-9,
            "speed fraction {speed_fraction} out of (0,1]"
        );
        self.nominal_duration().scale(1.0 / speed_fraction)
    }

    /// Latest start this job tolerates (unbounded for non-deferrable jobs
    /// means "start ASAP" — the scheduler treats them as urgent work).
    pub fn start_by(&self) -> Option<SimTime> {
        if self.deferrable {
            self.start_deadline
        } else {
            Some(self.submit)
        }
    }
}

/// Distributions from which job attributes are sampled.
#[derive(Debug, Clone)]
pub struct SizeDistribution {
    /// (gpu-count, probability) menu; probabilities sum to 1.
    pub gpu_menu: Vec<(u32, f64)>,
    /// Log-mean of per-GPU runtime hours.
    pub runtime_log_mean: f64,
    /// Log-sigma of per-GPU runtime hours.
    pub runtime_log_sigma: f64,
    /// Hard cap on sampled per-GPU runtime, hours.
    pub runtime_cap_hours: f64,
    /// (kind, probability) menu.
    pub kind_menu: Vec<(JobKind, f64)>,
    /// Probability a job is deferrable.
    pub deferrable_prob: f64,
    /// Deferral window bounds, hours (uniform).
    pub deferral_window_hours: (f64, f64),
}

impl Default for SizeDistribution {
    fn default() -> Self {
        SizeDistribution {
            gpu_menu: vec![
                (1, 0.35),
                (2, 0.20),
                (4, 0.20),
                (8, 0.15),
                (16, 0.08),
                (32, 0.02),
            ],
            // Median ≈ 2.5 h per-GPU runtime, heavy right tail.
            runtime_log_mean: 2.5f64.ln(),
            runtime_log_sigma: 1.1,
            runtime_cap_hours: 72.0,
            kind_menu: vec![
                (JobKind::Training, 0.55),
                (JobKind::HyperparamSweep, 0.25),
                (JobKind::InferenceBatch, 0.10),
                (JobKind::Batch, 0.10),
            ],
            deferrable_prob: 0.35,
            deferral_window_hours: (12.0, 96.0),
        }
    }
}

impl SizeDistribution {
    /// Sample a GPU count from the menu.
    pub fn sample_gpus<R: Rng>(&self, rng: &mut R) -> u32 {
        sample_menu(&self.gpu_menu, rng)
    }

    /// Sample a job kind from the menu.
    pub fn sample_kind<R: Rng>(&self, rng: &mut R) -> JobKind {
        sample_menu(&self.kind_menu, rng)
    }

    /// Sample per-GPU runtime hours (log-normal, capped).
    pub fn sample_runtime_hours<R: Rng>(&self, rng: &mut R) -> f64 {
        let dist = LogNormal::new(self.runtime_log_mean, self.runtime_log_sigma)
            .expect("valid log-normal");
        dist.sample(rng).min(self.runtime_cap_hours).max(0.05)
    }

    /// Sample deferrability and window.
    pub fn sample_deferral<R: Rng>(&self, rng: &mut R, submit: SimTime) -> (bool, Option<SimTime>) {
        if rng.gen::<f64>() < self.deferrable_prob {
            let (lo, hi) = self.deferral_window_hours;
            let w = rng.gen_range(lo..hi);
            (true, Some(submit + Duration::from_hours_f64(w)))
        } else {
            (false, None)
        }
    }

    /// Expected GPU count (for capacity planning in tests).
    pub fn mean_gpus(&self) -> f64 {
        self.gpu_menu.iter().map(|(g, p)| *g as f64 * p).sum()
    }
}

/// Sample from a (value, probability) menu.
fn sample_menu<T: Copy, R: Rng>(menu: &[(T, f64)], rng: &mut R) -> T {
    let total: f64 = menu.iter().map(|(_, p)| p).sum();
    let mut x = rng.gen::<f64>() * total;
    for &(v, p) in menu {
        if x < p {
            return v;
        }
        x -= p;
    }
    menu.last().expect("non-empty menu").0
}

/// A long-lived inference service (§IV-B): low utilization, diurnal queries.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceService {
    /// Service name.
    pub name: String,
    /// GPUs pinned to the service.
    pub gpus: u32,
    /// Mean GPU utilization in \[0,1\] (AWS reports 10–30%).
    pub mean_utilization: f64,
    /// Diurnal swing of utilization (fraction of the mean).
    pub diurnal_swing: f64,
}

impl InferenceService {
    /// Utilization at a given hour of day (peaks at 14:00 local).
    pub fn utilization_at(&self, hour_of_day: u32) -> f64 {
        let phase = (hour_of_day as f64 - 14.0) / 24.0 * std::f64::consts::TAU;
        (self.mean_utilization * (1.0 + self.diurnal_swing * phase.cos())).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greener_simkit::rng::RngHub;

    fn job(gpus: u32, work: f64) -> Job {
        Job {
            id: JobId(1),
            user: UserId(0),
            kind: JobKind::Training,
            gpus,
            work_gpu_hours: work,
            submit: SimTime::ZERO,
            deferrable: false,
            start_deadline: None,
            queue: QueueClass::Standard,
        }
    }

    #[test]
    fn nominal_duration_divides_work_across_gang() {
        let j = job(4, 8.0);
        assert_eq!(j.nominal_duration().hours_f64(), 2.0);
    }

    #[test]
    fn power_cap_slows_job() {
        let j = job(2, 4.0);
        let full = j.duration_at_speed(1.0);
        let half = j.duration_at_speed(0.5);
        assert_eq!(half.secs(), full.secs() * 2);
    }

    #[test]
    #[should_panic(expected = "speed fraction")]
    fn zero_speed_rejected() {
        job(1, 1.0).duration_at_speed(0.0);
    }

    #[test]
    fn start_by_semantics() {
        let mut j = job(1, 1.0);
        assert_eq!(j.start_by(), Some(SimTime::ZERO));
        j.deferrable = true;
        j.start_deadline = Some(SimTime::from_hours(48));
        assert_eq!(j.start_by(), Some(SimTime::from_hours(48)));
    }

    #[test]
    fn gpu_menu_distribution_roughly_matches() {
        let dist = SizeDistribution::default();
        let mut rng = RngHub::new(3).stream("gpus");
        let n = 20_000;
        let ones = (0..n).filter(|_| dist.sample_gpus(&mut rng) == 1).count() as f64 / n as f64;
        assert!((ones - 0.35).abs() < 0.02, "P(gpus=1) ≈ {ones:.3}");
    }

    #[test]
    fn runtime_samples_bounded_and_positive() {
        let dist = SizeDistribution::default();
        let mut rng = RngHub::new(4).stream("rt");
        for _ in 0..5_000 {
            let h = dist.sample_runtime_hours(&mut rng);
            assert!(h > 0.0 && h <= 72.0, "runtime {h}");
        }
    }

    #[test]
    fn deferral_window_is_future() {
        let dist = SizeDistribution {
            deferrable_prob: 1.0,
            ..SizeDistribution::default()
        };
        let mut rng = RngHub::new(5).stream("def");
        let submit = SimTime::from_hours(10);
        for _ in 0..100 {
            let (def, by) = dist.sample_deferral(&mut rng, submit);
            assert!(def);
            let by = by.unwrap();
            assert!(by > submit);
            assert!(by <= submit + Duration::from_hours(96));
        }
    }

    #[test]
    fn mean_gpus_sane() {
        let m = SizeDistribution::default().mean_gpus();
        assert!((3.0..6.0).contains(&m), "mean gpus {m:.2}");
    }

    #[test]
    fn inference_utilization_diurnal() {
        let svc = InferenceService {
            name: "ranker".into(),
            gpus: 16,
            mean_utilization: 0.2,
            diurnal_swing: 0.5,
        };
        let peak = svc.utilization_at(14);
        let trough = svc.utilization_at(2);
        assert!(peak > trough);
        assert!((0.0..=1.0).contains(&peak));
        // Mean preserved approximately over the day.
        let day: f64 = (0..24).map(|h| svc.utilization_at(h)).sum::<f64>() / 24.0;
        assert!((day - 0.2).abs() < 0.02);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn duration_scales_inversely_with_speed(
                gpus in 1u32..64,
                work in 0.1f64..500.0,
                speed in 0.1f64..1.0,
            ) {
                let j = job(gpus, work);
                let slow = j.duration_at_speed(speed).secs_f64();
                let fast = j.nominal_duration().secs_f64();
                // slow ≈ fast / speed within rounding.
                prop_assert!((slow - fast / speed).abs() <= 1.0 + 1e-6);
            }
        }
    }
}
