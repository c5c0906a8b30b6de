//! Carbon-aware temporal shifting and green-queue segmentation.
//!
//! §II-A: shift consumption toward hours when "sustainable energy takes up a
//! larger share of the fuel mix"; ref \[16\] (Google's carbon-aware computing)
//! does exactly this with day-ahead carbon forecasts. [`CarbonAwarePolicy`]
//! defers *deferrable* jobs while the grid is dirty and a greener hour is
//! forecast inside the job's slack window. [`GreenQueuePolicy`] adds the
//! §II-C queue segmentation: urgent / standard / green queues with different
//! priorities and caps.

use greener_hpc::Cluster;
use greener_simkit::time::SimTime;
use greener_workload::QueueClass;

use crate::policy::{Decision, LoneDispatch, QueuedJob, SchedPolicy, SchedSignals};
use crate::waitq::WaitQueue;

/// Carbon-aware gating around a base policy.
pub struct CarbonAwarePolicy {
    base: Box<dyn SchedPolicy>,
    /// Defer when current green share is below this threshold…
    pub green_threshold: f64,
    /// …and a forecast hour inside the slack window beats the current
    /// share by at least this margin.
    pub improvement_margin: f64,
    /// Hours of forecast to consult.
    pub lookahead_h: usize,
    /// Reusable queue holding the non-deferred view shown to the base
    /// policy (jobs are plain data, so refilling it allocates nothing once
    /// capacity has grown to the high-water mark).
    visible: WaitQueue,
}

impl CarbonAwarePolicy {
    /// Default gate: defer below 6 % green share if ≥ 1 pp improvement is
    /// forecast within 24 h.
    pub fn new(base: Box<dyn SchedPolicy>) -> CarbonAwarePolicy {
        CarbonAwarePolicy {
            base,
            green_threshold: 0.06,
            improvement_margin: 0.01,
            lookahead_h: 24,
            visible: WaitQueue::new(),
        }
    }

    /// Should this queued job be held back right now?
    pub fn should_defer(&self, q: &QueuedJob, signals: &SchedSignals<'_>) -> bool {
        if !q.job.deferrable {
            return false;
        }
        // Slack exhausted → must run.
        if let Some(by) = q.job.start_deadline {
            if signals.now >= by {
                return false;
            }
        }
        if signals.green_share >= self.green_threshold {
            return false;
        }
        // How many forecast hours are actually usable given the slack?
        let slack_h = q
            .job
            .start_deadline
            .map(|by| ((by.secs().saturating_sub(signals.now.secs())) / 3_600) as usize)
            .unwrap_or(self.lookahead_h);
        let window = slack_h
            .min(self.lookahead_h)
            .min(signals.forecast_green.len());
        let best = signals.forecast_green[..window]
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        best.is_finite() && best >= signals.green_share + self.improvement_margin
    }
}

impl SchedPolicy for CarbonAwarePolicy {
    fn name(&self) -> &'static str {
        "carbon-aware"
    }

    fn dispatch(
        &mut self,
        queue: &WaitQueue,
        cluster: &Cluster,
        signals: &SchedSignals<'_>,
        out: &mut Vec<Decision>,
    ) {
        // Present the base policy with the non-deferred subset, staged in
        // the reusable `visible` queue (taken out of `self` so the filter
        // can borrow `self` immutably while pushing).
        let mut visible = std::mem::take(&mut self.visible);
        visible.clear();
        for q in queue.iter() {
            if !self.should_defer(q, signals) {
                visible.push(*q);
            }
        }
        self.base.dispatch(&visible, cluster, signals, out);
        self.visible = visible;
    }

    // A deferred lone job leaves the base policy an empty visible queue
    // (provably no decisions); a non-deferred one is handed to the base
    // exactly as dispatch would.
    fn lone_dispatch(
        &mut self,
        q: &QueuedJob,
        cluster: &Cluster,
        signals: &SchedSignals<'_>,
    ) -> LoneDispatch {
        if self.should_defer(q, signals) {
            LoneDispatch::Hold
        } else {
            self.base.lone_dispatch(q, cluster, signals)
        }
    }

    fn backfill_visits(&self) -> u64 {
        self.base.backfill_visits()
    }
}

/// Queue segmentation: urgent first at nominal power, then standard, then
/// green jobs — green jobs run under a strict cap and (optionally) only in
/// green hours, but never past their slack deadline.
pub struct GreenQueuePolicy {
    /// Cap for green-queue jobs, watts.
    pub green_cap_w: f64,
    /// Green-share threshold above which green jobs flow freely.
    pub green_threshold: f64,
}

impl Default for GreenQueuePolicy {
    fn default() -> Self {
        GreenQueuePolicy {
            green_cap_w: 160.0,
            green_threshold: 0.06,
        }
    }
}

impl GreenQueuePolicy {
    /// Whether a green-queue job may start now.
    fn green_may_start(&self, q: &QueuedJob, signals: &SchedSignals<'_>) -> bool {
        if signals.green_share >= self.green_threshold {
            return true;
        }
        // Slack expiring → run regardless (the fixed component of the
        // two-part mechanism guarantees eventual service).
        match q.job.start_deadline {
            Some(by) => signals.now >= by,
            None => false,
        }
    }
}

impl SchedPolicy for GreenQueuePolicy {
    fn name(&self) -> &'static str {
        "green-queues"
    }

    fn dispatch(
        &mut self,
        queue: &WaitQueue,
        cluster: &Cluster,
        signals: &SchedSignals<'_>,
        out: &mut Vec<Decision>,
    ) {
        let nominal = cluster.spec().gpu.nominal_power_w;
        let mut free = cluster.free_gpus();
        // Priority tiers: urgent, standard, green.
        let tiers: [(QueueClass, f64); 3] = [
            (QueueClass::Urgent, nominal),
            (QueueClass::Standard, nominal),
            (QueueClass::Green, self.green_cap_w),
        ];
        for (class, cap) in tiers {
            for q in queue.iter().filter(|q| q.job.queue == class) {
                if class == QueueClass::Green && !self.green_may_start(q, signals) {
                    continue;
                }
                if q.job.gpus <= free {
                    free -= q.job.gpus;
                    out.push(Decision {
                        job_id: q.job.id,
                        power_cap_w: cap,
                    });
                }
            }
        }
    }

    // One job, one tier: green jobs wait out dirty hours (unless their
    // slack expired) and run capped; urgent/standard run at nominal.
    fn lone_dispatch(
        &mut self,
        q: &QueuedJob,
        cluster: &Cluster,
        signals: &SchedSignals<'_>,
    ) -> LoneDispatch {
        if q.job.queue == QueueClass::Green {
            if self.green_may_start(q, signals) {
                LoneDispatch::Start {
                    power_cap_w: self.green_cap_w,
                }
            } else {
                LoneDispatch::Hold
            }
        } else {
            LoneDispatch::Start {
                power_cap_w: cluster.spec().gpu.nominal_power_w,
            }
        }
    }
}

/// Expected start time of a deferred job under a green-share forecast: the
/// first forecast hour at/above the threshold, or the slack deadline.
/// Exposed for tests and the E11 value-of-forecast experiment.
pub fn expected_green_start(
    now: SimTime,
    start_deadline: Option<SimTime>,
    forecast_green: &[f64],
    threshold: f64,
) -> SimTime {
    for (h, &g) in forecast_green.iter().enumerate() {
        let t = SimTime(now.secs() + (h as u64 + 1) * 3_600);
        if let Some(by) = start_deadline {
            if t >= by {
                return by;
            }
        }
        if g >= threshold {
            return t;
        }
    }
    start_deadline.unwrap_or(SimTime(now.secs() + forecast_green.len() as u64 * 3_600))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::{cluster, deferrable, qjob, wq};
    use crate::policy::FcfsPolicy;
    use greener_workload::JobId;

    fn dirty_signals(forecast: &[f64]) -> SchedSignals<'_> {
        SchedSignals {
            now: SimTime::ZERO,
            green_share: 0.04, // dirty hour
            forecast_green: forecast,
            ..SchedSignals::default()
        }
    }

    #[test]
    fn defers_deferrable_when_green_is_coming() {
        let mut p = CarbonAwarePolicy::new(Box::new(FcfsPolicy::default()));
        let c = cluster();
        let queue = wq([deferrable(qjob(1, 2, 1.0), 48), qjob(2, 2, 1.0)]);
        let signals = dirty_signals(&[0.05, 0.08, 0.09]);
        let d = p.dispatch_collect(&queue, &c, &signals);
        let ids: Vec<JobId> = d.iter().map(|x| x.job_id).collect();
        assert!(!ids.contains(&JobId(1)), "deferrable job should wait");
        assert!(ids.contains(&JobId(2)), "non-deferrable job must run");
    }

    #[test]
    fn runs_when_no_improvement_forecast() {
        let p = CarbonAwarePolicy::new(Box::new(FcfsPolicy::default()));
        let q = deferrable(qjob(1, 2, 1.0), 48);
        let signals = dirty_signals(&[0.04, 0.045, 0.04]);
        assert!(!p.should_defer(&q, &signals), "no better hour forecast");
    }

    #[test]
    fn runs_when_green_now() {
        let p = CarbonAwarePolicy::new(Box::new(FcfsPolicy::default()));
        let q = deferrable(qjob(1, 2, 1.0), 48);
        let signals = SchedSignals {
            green_share: 0.09,
            forecast_green: &[0.10; 24],
            ..SchedSignals::default()
        };
        assert!(!p.should_defer(&q, &signals));
    }

    #[test]
    fn slack_expiry_forces_start() {
        let p = CarbonAwarePolicy::new(Box::new(FcfsPolicy::default()));
        let mut q = deferrable(qjob(1, 2, 1.0), 10);
        q.job.start_deadline = Some(SimTime::ZERO); // already due
        let signals = dirty_signals(&[0.2; 24]);
        assert!(!p.should_defer(&q, &signals), "expired slack must run");
    }

    #[test]
    fn forecast_window_clipped_to_slack() {
        let p = CarbonAwarePolicy::new(Box::new(FcfsPolicy::default()));
        // Green hour forecast at +20h but slack only 4h → cannot wait.
        let q = deferrable(qjob(1, 2, 1.0), 4);
        let mut forecast = [0.04; 24];
        forecast[20] = 0.15;
        let signals = dirty_signals(&forecast);
        assert!(!p.should_defer(&q, &signals));
    }

    #[test]
    fn green_queue_priority_and_caps() {
        let mut p = GreenQueuePolicy::default();
        let c = cluster(); // 16 GPUs
        let mut urgent = qjob(1, 4, 1.0);
        urgent.job.queue = greener_workload::QueueClass::Urgent;
        let standard = qjob(2, 4, 1.0);
        let green = deferrable(qjob(3, 4, 1.0), 48);
        let queue = wq([green, standard, urgent]);
        // Green hour: everything runs; urgent first; green job capped.
        let signals = SchedSignals {
            green_share: 0.10,
            ..SchedSignals::default()
        };
        let d = p.dispatch_collect(&queue, &c, &signals);
        assert_eq!(d[0].job_id, JobId(1));
        let green_dec = d.iter().find(|x| x.job_id == JobId(3)).unwrap();
        assert_eq!(green_dec.power_cap_w, 160.0);
        let std_dec = d.iter().find(|x| x.job_id == JobId(2)).unwrap();
        assert_eq!(std_dec.power_cap_w, 250.0);
    }

    #[test]
    fn green_queue_waits_in_dirty_hours() {
        let mut p = GreenQueuePolicy::default();
        let c = cluster();
        let green = deferrable(qjob(3, 4, 1.0), 48);
        let queue = wq([green]);
        let signals = SchedSignals {
            green_share: 0.03,
            ..SchedSignals::default()
        };
        let d = p.dispatch_collect(&queue, &c, &signals);
        assert!(d.is_empty(), "green job should wait for a green hour");
    }

    #[test]
    fn expected_green_start_finds_first_green_hour() {
        let forecast = vec![0.04, 0.05, 0.09, 0.10];
        let t = expected_green_start(SimTime::ZERO, None, &forecast, 0.08);
        assert_eq!(t, SimTime::from_hours(3));
        // Deadline binds first.
        let t2 = expected_green_start(SimTime::ZERO, Some(SimTime::from_hours(2)), &forecast, 0.08);
        assert_eq!(t2, SimTime::from_hours(2));
    }
}
