//! The scheduling interface and baseline policies.
//!
//! A policy sees the waiting queue (a fit-indexed [`WaitQueue`]), the
//! cluster state and an environment snapshot ([`SchedSignals`]) and appends
//! the jobs to start *now* — each with a power cap — to a caller-owned
//! decision buffer. The driver in `greener-core` validates and applies the
//! decisions; policies never mutate the cluster directly.
//!
//! The dispatch path is allocation-free in steady state by design:
//! [`SchedSignals`] *borrows* its forecast and completion data from the
//! driver (no per-call `Vec` clones), decisions go into a reused out
//! buffer, and policies keep whatever scratch they need (SJF's sort
//! permutation, the carbon gate's visible-queue buffer) as reusable
//! members. Year-scale simulations dispatch hundreds of thousands of
//! times, so per-call heap traffic dominates everything else.
//!
//! EASY backfill additionally exploits the queue's gang-size index
//! ([`WaitQueue::backfill_candidates`]) so a dispatch against a deep saturated queue
//! only visits candidates that actually fit the free GPUs.

use greener_hpc::Cluster;
use greener_simkit::time::SimTime;
use greener_workload::{Job, JobId};

use crate::waitq::WaitQueue;

/// A queue entry. Plain `Copy` data by design: the driver copies entries
/// out of the [`WaitQueue`] when applying decisions, and policy scratch
/// buffers (the carbon gate's filtered view) refill without touching the
/// heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedJob {
    /// The job.
    pub job: Job,
    /// When it entered the queue.
    pub enqueued: SimTime,
}

/// Environment snapshot at dispatch time: exactly what the built-in
/// policies read. The grid's carbon intensity and price are not in it,
/// because the carbon gate decides on the green share.
///
/// All slice fields are *borrowed* from driver-owned buffers that persist
/// across events; building a `SchedSignals` performs no heap allocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedSignals<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// Grid green (solar+wind) share in \[0,1\].
    pub green_share: f64,
    /// Outdoor temperature, °F.
    pub temp_f: f64,
    /// Forecast green share for the next hours (index 0 = next hour).
    /// The driver fills it only for policies that read it
    /// ([`PolicyKind::reads_forecast`](crate::PolicyKind::reads_forecast));
    /// every other policy sees it empty.
    pub forecast_green: &'a [f64],
    /// `(completion time, gpus released)` of running jobs, **sorted
    /// soonest-first** — the driver maintains this incrementally on
    /// allocate/release, so policies may rely on the ordering without
    /// re-sorting (EASY backfill reserves against it directly).
    pub running_completions: &'a [(SimTime, u32)],
}

/// One dispatch decision: start this job under this cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Job to start.
    pub job_id: JobId,
    /// Power cap for every GPU of the gang, watts.
    pub power_cap_w: f64,
}

/// What a policy decides for a *lone* arrival — one job arriving, with its
/// gang fitting the free GPUs, to a waiting queue that is empty or that
/// the policy holds (see [`SchedPolicy::lone_dispatch`] and
/// [`SchedPolicy::holds_queue`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoneDispatch {
    /// Start the job now under this power cap — exactly the single
    /// decision [`SchedPolicy::dispatch`] would emit for the one-job
    /// queue.
    Start {
        /// Power cap for every GPU of the gang, watts.
        power_cap_w: f64,
    },
    /// Keep the job queued — [`SchedPolicy::dispatch`] on the one-job
    /// queue would provably emit no decision (e.g. a carbon gate
    /// deferring it).
    Hold,
    /// No fast-path answer: the caller must run the reference path (queue
    /// the job and invoke [`SchedPolicy::dispatch`]). This is the default,
    /// so implementing the fast path is always opt-in and never changes a
    /// policy that has not analyzed its own lone-arrival behavior.
    Unsupported,
}

/// A scheduling policy.
pub trait SchedPolicy: Send {
    /// Choose jobs to start now, appending to `out` (which the caller has
    /// cleared). Decisions must reference queued jobs and must collectively
    /// fit in `cluster.free_gpus()` (the driver asserts).
    fn dispatch(
        &mut self,
        queue: &WaitQueue,
        cluster: &Cluster,
        signals: &SchedSignals<'_>,
        out: &mut Vec<Decision>,
    );

    /// Fast-path dispatch for the hot-loop common case: `q` just arrived,
    /// `q.job.gpus <= cluster.free_gpus()`, and the waiting queue is
    /// either empty or one [`SchedPolicy::holds_queue`] answered `true`
    /// for. The driver uses the answer to start (or hold) the job without
    /// a full dispatch over the fit-indexed queue.
    ///
    /// # Contract
    ///
    /// For a fitting `q`, the answer must reproduce what
    /// [`SchedPolicy::dispatch`] would do for the one-job queue `[q]`:
    /// [`LoneDispatch::Start`] iff it would emit the single decision
    /// `(q.job.id, power_cap_w)`, [`LoneDispatch::Hold`] iff it would emit
    /// no decision. `holds_queue` is what extends this answer to a
    /// non-empty queue. Anything short of that certainty must return
    /// [`LoneDispatch::Unsupported`] (the default), which routes the
    /// arrival through the reference path. The driver's golden determinism
    /// test and a property test pin fast == reference decision streams for
    /// every built-in policy.
    fn lone_dispatch(
        &mut self,
        q: &QueuedJob,
        cluster: &Cluster,
        signals: &SchedSignals<'_>,
    ) -> LoneDispatch {
        let _ = (q, cluster, signals);
        LoneDispatch::Unsupported
    }

    /// Whether every job in `queue` is invisible to [`SchedPolicy::dispatch`]
    /// at this instant, so a fitting arrival may take the
    /// [`SchedPolicy::lone_dispatch`] fast path past them.
    ///
    /// # Contract
    ///
    /// Return `true` only if, for every job `q` with `q.job.gpus <=
    /// cluster.free_gpus()`, `dispatch(queue ++ [q])` emits exactly what
    /// `dispatch([q])` emits under the same `signals`. Anything short of
    /// that certainty must return `false` (the default), which sends the
    /// arrival through the full dispatch. A `config` unit test and a
    /// property test pin the contract for every built-in policy.
    fn holds_queue(&mut self, queue: &WaitQueue, signals: &SchedSignals<'_>) -> bool {
        let _ = (queue, signals);
        false
    }

    /// Total backfill candidates examined by this policy so far (0 for
    /// policies without a backfill scan). Wrappers delegate to their base
    /// policy; the driver's profiling mode reads this once per run, so the
    /// counter costs one add per candidate on the scan itself.
    ///
    /// Accessor contract (pinned by a unit test on the built-in wrapper
    /// chains): this is a *read-only view of one underlying counter*. A
    /// wrapper must forward to its base, never add its own count on top —
    /// querying a wrapper and its base must yield the same number, and
    /// querying twice must not double it.
    fn backfill_visits(&self) -> u64 {
        0
    }

    /// Convenience wrapper returning a fresh decision vector. Tests and
    /// one-shot callers use this; the driver's hot loop calls
    /// [`SchedPolicy::dispatch`] with a reused buffer instead.
    fn dispatch_collect(
        &mut self,
        queue: &WaitQueue,
        cluster: &Cluster,
        signals: &SchedSignals<'_>,
    ) -> Vec<Decision> {
        let mut out = Vec::new();
        self.dispatch(queue, cluster, signals, &mut out);
        out
    }
}

/// Strict first-come-first-served: start jobs in arrival order until the
/// head no longer fits (head-of-line blocking preserved — that is the
/// textbook FCFS baseline the backfill policy improves on).
#[derive(Debug, Default, Clone)]
pub struct FcfsPolicy {
    /// Cap applied to every started job (None = nominal TDP).
    pub cap_w: Option<f64>,
}

impl SchedPolicy for FcfsPolicy {
    fn dispatch(
        &mut self,
        queue: &WaitQueue,
        cluster: &Cluster,
        _signals: &SchedSignals<'_>,
        out: &mut Vec<Decision>,
    ) {
        let cap = self.cap_w.unwrap_or(cluster.spec().gpu.nominal_power_w);
        let mut free = cluster.free_gpus();
        for q in queue.iter() {
            if q.job.gpus <= free {
                free -= q.job.gpus;
                out.push(Decision {
                    job_id: q.job.id,
                    power_cap_w: cap,
                });
            } else {
                break; // head-of-line blocking
            }
        }
    }

    // A lone fitting arrival is an unblocked head: FCFS starts it.
    fn lone_dispatch(
        &mut self,
        _q: &QueuedJob,
        cluster: &Cluster,
        _signals: &SchedSignals<'_>,
    ) -> LoneDispatch {
        LoneDispatch::Start {
            power_cap_w: self.cap_w.unwrap_or(cluster.spec().gpu.nominal_power_w),
        }
    }
}

/// Shortest-job-first (by nominal duration), greedy packing.
#[derive(Debug, Default, Clone)]
pub struct SjfPolicy {
    /// Reusable sort permutation (indices into the queue slice).
    order: Vec<u32>,
}

impl SchedPolicy for SjfPolicy {
    fn dispatch(
        &mut self,
        queue: &WaitQueue,
        cluster: &Cluster,
        _signals: &SchedSignals<'_>,
        out: &mut Vec<Decision>,
    ) {
        let cap = cluster.spec().gpu.nominal_power_w;
        self.order.clear();
        self.order.extend(queue.live_positions().map(|(p, _)| p));
        // Unstable sort to avoid the stable sort's per-call merge-buffer
        // allocation; the position tiebreak (positions are arrival-ordered
        // and unique) reproduces stable order exactly, so decisions are
        // deterministic.
        self.order.sort_unstable_by(|&a, &b| {
            let (qa, qb) = (queue.at(a), queue.at(b));
            qa.job
                .nominal_duration()
                .cmp(&qb.job.nominal_duration())
                .then(qa.enqueued.cmp(&qb.enqueued))
                .then(a.cmp(&b))
        });
        let mut free = cluster.free_gpus();
        for &i in &self.order {
            let q = queue.at(i);
            if q.job.gpus <= free {
                free -= q.job.gpus;
                out.push(Decision {
                    job_id: q.job.id,
                    power_cap_w: cap,
                });
            }
        }
    }

    // Sorting a one-element queue is the identity: SJF starts the job.
    fn lone_dispatch(
        &mut self,
        _q: &QueuedJob,
        cluster: &Cluster,
        _signals: &SchedSignals<'_>,
    ) -> LoneDispatch {
        LoneDispatch::Start {
            power_cap_w: cluster.spec().gpu.nominal_power_w,
        }
    }
}

/// EASY backfill: FCFS with a reservation for the head job; later jobs may
/// jump the queue only if they fit now *and* finish before the head job's
/// reservation (so the head is never delayed).
///
/// The candidate search runs over the queue's gang-size fit index
/// ([`WaitQueue::backfill_candidates`]): instead of scanning thousands of queued jobs
/// that cannot fit the free GPUs, it merges only the size classes that do —
/// yielding exactly the accepts the classic full-queue scan would make, in
/// the same order. Every candidate behind the blocked head is considered
/// (no depth budget): this is the classic semantics that paired policy
/// comparisons rely on, and the driver's golden determinism test pins the
/// decisions bit-for-bit.
#[derive(Debug, Default, Clone)]
pub struct EasyBackfillPolicy {
    /// Backfill candidates examined over this policy's lifetime (for the
    /// driver's profiling mode; see [`SchedPolicy::backfill_visits`]).
    visits: u64,
}

impl EasyBackfillPolicy {
    /// Earliest time `gpus` become available given current free GPUs and
    /// the running-completion profile (sorted soonest-first).
    fn reservation_time(
        free_now: u32,
        gpus: u32,
        completions: &[(SimTime, u32)],
        now: SimTime,
    ) -> SimTime {
        let mut free = free_now;
        if gpus <= free {
            return now;
        }
        for &(t, released) in completions {
            free += released;
            if gpus <= free {
                return t;
            }
        }
        // Should not happen for feasible jobs; treat as far future.
        SimTime(u64::MAX / 2)
    }
}

impl SchedPolicy for EasyBackfillPolicy {
    fn dispatch(
        &mut self,
        queue: &WaitQueue,
        cluster: &Cluster,
        signals: &SchedSignals<'_>,
        out: &mut Vec<Decision>,
    ) {
        let cap = cluster.spec().gpu.nominal_power_w;
        let mut free = cluster.free_gpus();
        // Start the FCFS prefix that fits; remember the blocked head.
        let mut blocked = None;
        for (pos, q) in queue.live_positions() {
            if q.job.gpus <= free {
                free -= q.job.gpus;
                out.push(Decision {
                    job_id: q.job.id,
                    power_cap_w: cap,
                });
            } else {
                blocked = Some((pos, q.job.gpus));
                break;
            }
        }
        let Some((head_pos, head_needs)) = blocked else {
            return; // everything fit
        };
        // Head job blocked: compute its reservation against the (already
        // sorted) completion profile.
        let completions = signals.running_completions;
        let shadow = Self::reservation_time(free, head_needs, completions, signals.now);
        // Backfill: any later job that fits now and finishes before shadow,
        // or that leaves enough GPUs for the head at shadow time. The fit
        // index yields exactly the candidates a full arrival-order scan
        // with a shrinking `free` would have evaluated.
        let mut spare_at_shadow = {
            // GPUs free at shadow time if we start nothing else.
            let mut f = free;
            for &(t, released) in completions {
                if t <= shadow {
                    f += released;
                }
            }
            f
        };
        // The candidate iterator prunes provable rejects: a candidate is
        // accepted iff it finishes inside the shadow window (duration ≤
        // d_max) or its gang fits the spare budget, so classes failing both
        // are dropped wholesale and boundary-class rejects member-wise.
        // The authoritative per-candidate test stays below.
        let d_max = shadow.0.saturating_sub(signals.now.0);
        let spare_budget = spare_at_shadow.saturating_sub(head_needs);
        let mut candidates = queue.backfill_candidates(head_pos, free, d_max, spare_budget);
        while let Some(q) = candidates.next(free, spare_at_shadow.saturating_sub(head_needs)) {
            self.visits += 1;
            let finish = signals.now + q.job.nominal_duration();
            let ok = finish <= shadow || spare_at_shadow.saturating_sub(q.job.gpus) >= head_needs;
            if ok {
                free -= q.job.gpus;
                if finish > shadow {
                    spare_at_shadow -= q.job.gpus;
                }
                out.push(Decision {
                    job_id: q.job.id,
                    power_cap_w: cap,
                });
            }
        }
    }

    // A lone fitting arrival is the whole FCFS prefix: it starts, nothing
    // is blocked, and no backfill scan happens.
    fn lone_dispatch(
        &mut self,
        _q: &QueuedJob,
        cluster: &Cluster,
        _signals: &SchedSignals<'_>,
    ) -> LoneDispatch {
        LoneDispatch::Start {
            power_cap_w: cluster.spec().gpu.nominal_power_w,
        }
    }

    fn backfill_visits(&self) -> u64 {
        self.visits
    }
}

/// Validate a decision batch against a queue and cluster: every decision
/// references a distinct queued job and the total fits. Used by the driver
/// (debug builds only) and by policy tests.
pub fn validate_decisions(
    decisions: &[Decision],
    queue: &WaitQueue,
    cluster: &Cluster,
) -> Result<(), String> {
    let mut total = 0u32;
    let mut seen = std::collections::HashSet::new();
    for d in decisions {
        let Some(q) = queue.get(d.job_id) else {
            return Err(format!("decision for unqueued job {:?}", d.job_id));
        };
        if !seen.insert(d.job_id) {
            return Err(format!("duplicate decision for {:?}", d.job_id));
        }
        total += q.job.gpus;
    }
    if total > cluster.free_gpus() {
        return Err(format!(
            "decisions need {total} GPUs, only {} free",
            cluster.free_gpus()
        ));
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use greener_hpc::ClusterSpec;
    use greener_workload::{JobKind, QueueClass, UserId};

    /// A 16-GPU test cluster.
    pub fn cluster() -> Cluster {
        Cluster::new(ClusterSpec {
            nodes: 4,
            gpus_per_node: 4,
            ..ClusterSpec::default()
        })
    }

    /// A queued job with given id/gpus/hours.
    pub fn qjob(id: u64, gpus: u32, hours: f64) -> QueuedJob {
        qjob_at(id, gpus, hours, SimTime::ZERO)
    }

    /// A queued job with explicit enqueue time.
    pub fn qjob_at(id: u64, gpus: u32, hours: f64, t: SimTime) -> QueuedJob {
        QueuedJob {
            job: Job {
                id: JobId(id),
                user: UserId(0),
                kind: JobKind::Training,
                gpus,
                work_gpu_hours: hours * gpus as f64,
                submit: t,
                deferrable: false,
                start_deadline: None,
                queue: QueueClass::Standard,
            },
            enqueued: t,
        }
    }

    /// Mark a queued job deferrable with a start deadline.
    pub fn deferrable(mut q: QueuedJob, by_hours: u64) -> QueuedJob {
        q.job.deferrable = true;
        q.job.queue = QueueClass::Green;
        q.job.start_deadline =
            Some(q.job.submit + greener_simkit::time::Duration::from_hours(by_hours));
        q
    }

    /// Build a [`WaitQueue`] from jobs in arrival order.
    pub fn wq(jobs: impl IntoIterator<Item = QueuedJob>) -> WaitQueue {
        jobs.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    #[test]
    fn fcfs_respects_arrival_order_and_blocks() {
        let cluster = cluster(); // 16 GPUs
        let queue = wq([qjob(1, 8, 1.0), qjob(2, 12, 1.0), qjob(3, 2, 1.0)]);
        let mut p = FcfsPolicy::default();
        let d = p.dispatch_collect(&queue, &cluster, &SchedSignals::default());
        // Job 1 fits (8), job 2 (12) doesn't fit in the remaining 8 → block;
        // job 3 must NOT jump ahead under strict FCFS.
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].job_id, JobId(1));
        validate_decisions(&d, &queue, &cluster).unwrap();
    }

    #[test]
    fn sjf_prefers_short_jobs() {
        let cluster = cluster();
        let queue = wq([qjob(1, 8, 10.0), qjob(2, 8, 1.0), qjob(3, 8, 5.0)]);
        let mut p = SjfPolicy::default();
        let d = p.dispatch_collect(&queue, &cluster, &SchedSignals::default());
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].job_id, JobId(2)); // shortest first
        assert_eq!(d[1].job_id, JobId(3));
        validate_decisions(&d, &queue, &cluster).unwrap();
    }

    #[test]
    fn sjf_scratch_is_reused_across_calls() {
        let cluster = cluster();
        let queue = wq([qjob(1, 4, 2.0), qjob(2, 4, 1.0)]);
        let mut p = SjfPolicy::default();
        let sig = SchedSignals::default();
        let d1 = p.dispatch_collect(&queue, &cluster, &sig);
        let d2 = p.dispatch_collect(&queue, &cluster, &sig);
        assert_eq!(d1, d2, "scratch reuse must not change decisions");
    }

    #[test]
    fn backfill_jumps_only_when_harmless() {
        let mut cluster = cluster(); // 16 GPUs
                                     // 12 GPUs busy until t=10h.
        cluster.allocate(JobId(100), 12, 250.0, 1.0).unwrap();
        let completions = [(SimTime::from_hours(10), 12u32)];
        let signals = SchedSignals {
            now: SimTime::ZERO,
            running_completions: &completions,
            ..SchedSignals::default()
        };
        // Head wants the whole machine (blocked until t=10, when all 16
        // GPUs are free). A 2h×4GPU job can backfill (finishes before the
        // shadow); a 20h×4GPU job cannot — at the shadow it would leave
        // only 12 GPUs for the 16-GPU head.
        let queue = wq([qjob(1, 16, 1.0), qjob(2, 4, 20.0), qjob(3, 4, 2.0)]);
        let mut p = EasyBackfillPolicy::default();
        let d = p.dispatch_collect(&queue, &cluster, &signals);
        let ids: Vec<JobId> = d.iter().map(|x| x.job_id).collect();
        assert!(ids.contains(&JobId(3)), "short job should backfill");
        assert!(!ids.contains(&JobId(2)), "long job would delay the head");
        assert!(!ids.contains(&JobId(1)), "head does not fit yet");
        validate_decisions(&d, &queue, &cluster).unwrap();
    }

    #[test]
    fn backfill_behaves_like_fcfs_when_everything_fits() {
        let cluster = cluster();
        let queue = wq([qjob(1, 4, 1.0), qjob(2, 4, 2.0), qjob(3, 4, 3.0)]);
        let mut bf = EasyBackfillPolicy::default();
        let mut fc = FcfsPolicy::default();
        let sig = SchedSignals::default();
        let d1 = bf.dispatch_collect(&queue, &cluster, &sig);
        let d2 = fc.dispatch_collect(&queue, &cluster, &sig);
        assert_eq!(
            d1.iter().map(|d| d.job_id).collect::<Vec<_>>(),
            d2.iter().map(|d| d.job_id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn reservation_time_accumulates_releases() {
        let t = EasyBackfillPolicy::reservation_time(
            2,
            8,
            &[
                (SimTime::from_hours(1), 2),
                (SimTime::from_hours(5), 4),
                (SimTime::from_hours(9), 6),
            ],
            SimTime::ZERO,
        );
        assert_eq!(t, SimTime::from_hours(5)); // 2+2+4 = 8 at t=5
    }

    #[test]
    fn validate_catches_violations() {
        let cluster = cluster();
        let queue = wq([qjob(1, 8, 1.0)]);
        let bad = vec![Decision {
            job_id: JobId(99),
            power_cap_w: 250.0,
        }];
        assert!(validate_decisions(&bad, &queue, &cluster).is_err());
        let dup = vec![
            Decision {
                job_id: JobId(1),
                power_cap_w: 250.0,
            };
            2
        ];
        assert!(validate_decisions(&dup, &queue, &cluster).is_err());
        let over = vec![Decision {
            job_id: JobId(1),
            power_cap_w: 250.0,
        }];
        let mut small = cluster;
        small.allocate(JobId(50), 10, 250.0, 1.0).unwrap();
        assert!(validate_decisions(&over, &queue, &small).is_err());
    }

    #[test]
    fn fcfs_cap_override() {
        let cluster = cluster();
        let queue = wq([qjob(1, 2, 1.0)]);
        let mut p = FcfsPolicy { cap_w: Some(150.0) };
        let d = p.dispatch_collect(&queue, &cluster, &SchedSignals::default());
        assert_eq!(d[0].power_cap_w, 150.0);
    }

    #[test]
    fn dispatch_appends_without_clearing() {
        // The contract is "append to a caller-cleared buffer": a policy must
        // not clear pre-existing entries (the driver relies on clearing once
        // per dispatch, wrappers rely on appending).
        let cluster = cluster();
        let queue = wq([qjob(7, 2, 1.0)]);
        let sentinel = Decision {
            job_id: JobId(999),
            power_cap_w: 1.0,
        };
        let mut out = vec![sentinel];
        FcfsPolicy::default().dispatch(&queue, &cluster, &SchedSignals::default(), &mut out);
        assert_eq!(out[0], sentinel);
        assert_eq!(out.len(), 2);
    }

    /// Satellite audit: `backfill_visits` is a read-only view of the
    /// *base* scan's counter. Querying a wrapper,
    /// its base, or either twice must all report the same number — no
    /// wrapper may add its own count on top.
    #[test]
    fn wrapper_chains_report_base_visits_once() {
        use crate::carbon::CarbonAwarePolicy;
        use crate::energy::TempAwarePolicy;
        let mut cl = cluster(); // 16 GPUs
        cl.allocate(JobId(100), 12, 250.0, 1.0).unwrap();
        let completions = [(SimTime::from_hours(10), 12u32)];
        let signals = SchedSignals {
            now: SimTime::ZERO,
            running_completions: &completions,
            ..SchedSignals::default()
        };
        let queue = wq([qjob(1, 16, 1.0), qjob(2, 4, 12.0), qjob(3, 4, 2.0)]);
        // Bare scan for the expected count.
        let mut bare = EasyBackfillPolicy::default();
        bare.dispatch_collect(&queue, &cl, &signals);
        let expected = bare.backfill_visits();
        assert!(expected > 0);
        // Two-level wrapper chain around the same scan.
        let mut chain = CarbonAwarePolicy::new(Box::new(TempAwarePolicy::new(Box::new(
            EasyBackfillPolicy::default(),
        ))));
        chain.dispatch_collect(&queue, &cl, &signals);
        assert_eq!(chain.backfill_visits(), expected);
        assert_eq!(
            chain.backfill_visits(),
            expected,
            "querying twice must not double-count"
        );
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// The classic EASY backfill as a straight-line full scan (the
        /// pre-index implementation, kept verbatim as the semantics
        /// reference for the property tests below).
        fn reference_easy_backfill(
            queue: &WaitQueue,
            cluster: &Cluster,
            signals: &SchedSignals<'_>,
        ) -> Vec<Decision> {
            let cap = cluster.spec().gpu.nominal_power_w;
            let jobs: Vec<QueuedJob> = queue.iter().copied().collect();
            let mut out = Vec::new();
            let mut free = cluster.free_gpus();
            let mut idx = 0;
            while idx < jobs.len() && jobs[idx].job.gpus <= free {
                free -= jobs[idx].job.gpus;
                out.push(Decision {
                    job_id: jobs[idx].job.id,
                    power_cap_w: cap,
                });
                idx += 1;
            }
            if idx >= jobs.len() {
                return out;
            }
            let head = &jobs[idx].job;
            let completions = signals.running_completions;
            let shadow =
                EasyBackfillPolicy::reservation_time(free, head.gpus, completions, signals.now);
            let head_needs = head.gpus;
            let mut spare_at_shadow = {
                let mut f = free;
                for &(t, released) in completions {
                    if t <= shadow {
                        f += released;
                    }
                }
                f
            };
            for q in &jobs[idx + 1..] {
                if q.job.gpus > free {
                    continue;
                }
                let finish = signals.now + q.job.nominal_duration();
                let ok =
                    finish <= shadow || spare_at_shadow.saturating_sub(q.job.gpus) >= head_needs;
                if ok {
                    free -= q.job.gpus;
                    if finish > shadow {
                        spare_at_shadow -= q.job.gpus;
                    }
                    out.push(Decision {
                        job_id: q.job.id,
                        power_cap_w: cap,
                    });
                }
            }
            out
        }

        proptest! {
            /// The fit-indexed exhaustive backfill is decision-for-decision
            /// identical to the classic full-queue scan, for arbitrary
            /// queues (sizes *and* durations spanning the index's bucket
            /// range), busy-GPU counts and completion profiles.
            #[test]
            fn indexed_exhaustive_matches_reference_scan(
                jobs in prop::collection::vec((1u32..17, 1u64..2_000_000), 1..50),
                busy in 0u32..17,
                release_hours in prop::collection::vec(1u64..40, 0..4),
            ) {
                let mut cl = cluster(); // 16 GPUs
                let busy = busy.min(16);
                if busy > 0 {
                    cl.allocate(JobId(1_000), busy, 250.0, 1.0).unwrap();
                }
                let mut completions: Vec<(SimTime, u32)> = Vec::new();
                if busy > 0 {
                    let mut hours = release_hours.clone();
                    hours.sort_unstable();
                    if hours.is_empty() {
                        hours.push(50);
                    }
                    let per = (busy / hours.len() as u32).max(1);
                    let mut left = busy;
                    for (i, h) in hours.iter().enumerate() {
                        let g = if i + 1 == hours.len() { left } else { per.min(left) };
                        if g == 0 { break; }
                        completions.push((SimTime::from_hours(*h), g));
                        left -= g;
                    }
                }
                let signals = SchedSignals {
                    now: SimTime::ZERO,
                    running_completions: &completions,
                    ..SchedSignals::default()
                };
                let queue: WaitQueue = jobs
                    .iter()
                    .enumerate()
                    .map(|(i, &(g, d_secs))| {
                        qjob_at(i as u64, g, d_secs as f64 / 3_600.0, SimTime::ZERO)
                    })
                    .collect();
                let indexed = EasyBackfillPolicy::default()
                    .dispatch_collect(&queue, &cl, &signals);
                let reference = reference_easy_backfill(&queue, &cl, &signals);
                prop_assert_eq!(indexed, reference);
            }

            /// Dispatch sequences against an *evolving* queue/cluster
            /// (arrivals, completions, starts, a monotone clock — the
            /// driver's event shapes) match the classic full-queue scan
            /// decision for decision. Starts remove jobs from the middle
            /// of the queue, so this also covers the fit index over a
            /// queue with holes; the generator skews toward pushes so
            /// saturated stretches grow deep.
            #[test]
            fn evolving_dispatch_sequence_matches_reference_scan(
                ops in prop::collection::vec((0u8..8, 1u32..17, 1u64..30), 1..60),
            ) {
                let mut cl = cluster(); // 16 GPUs
                let mut queue = WaitQueue::default();
                // (completion time, job, gpus) soonest-first, like the
                // driver's incremental profile.
                let mut running: Vec<(SimTime, JobId, u32)> = Vec::new();
                let mut now = SimTime::ZERO;
                let mut next_id = 0u64;
                let mut policy = EasyBackfillPolicy::default();
                for &(op, gpus, hours) in &ops {
                    match op {
                        // Skew toward arrivals: saturated queues grow deep.
                        0..=4 => {
                            queue.push(qjob_at(next_id, gpus, hours as f64, now));
                            next_id += 1;
                        }
                        5 => {
                            // Advance the clock; release finished jobs.
                            now += greener_simkit::time::Duration::from_hours(hours);
                            while running.first().is_some_and(|&(t, _, _)| t <= now) {
                                let (_, id, _) = running.remove(0);
                                cl.release(id);
                            }
                        }
                        _ => {}
                    }
                    // Dispatch after every op, like the driver does on each
                    // arrival/completion event.
                    let completions: Vec<(SimTime, u32)> =
                        running.iter().map(|&(t, _, g)| (t, g)).collect();
                    let signals = SchedSignals {
                        now,
                        running_completions: &completions,
                        ..SchedSignals::default()
                    };
                    let decisions = policy.dispatch_collect(&queue, &cl, &signals);
                    prop_assert_eq!(&decisions, &reference_easy_backfill(&queue, &cl, &signals));
                    validate_decisions(&decisions, &queue, &cl).unwrap();
                    // Apply the decisions the way the driver would.
                    for d in &decisions {
                        let q = queue.remove(d.job_id).unwrap();
                        cl.allocate(d.job_id, q.job.gpus, d.power_cap_w, 1.0).unwrap();
                        let finish = now + q.job.nominal_duration();
                        let at = running.partition_point(|&(t, _, _)| t <= finish);
                        running.insert(at, (finish, d.job_id, q.job.gpus));
                    }
                }
            }
        }
    }
}
