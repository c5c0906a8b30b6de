//! Serializable policy descriptors.
//!
//! Experiments sweep over policies; [`PolicyKind`] is the plain-data form a
//! sweep cell can carry across threads and into JSON reports, with
//! [`PolicyKind::build`] producing the live policy object.

use crate::carbon::{CarbonAwarePolicy, GreenQueuePolicy};
use crate::energy::{PowerCapPolicy, TempAwarePolicy};
use crate::policy::{EasyBackfillPolicy, FcfsPolicy, SchedPolicy, SjfPolicy};

/// A policy configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// Strict first-come-first-served at nominal power.
    Fcfs,
    /// Shortest-job-first at nominal power.
    Sjf,
    /// EASY backfill at nominal power (exhaustive candidate search — the
    /// classic semantics every paired comparison in the experiments uses).
    EasyBackfill,
    /// FCFS with a static fleet-wide power cap.
    StaticCap {
        /// Cap in watts.
        cap_w: f64,
    },
    /// Backfill with temperature-aware capping.
    TempAware,
    /// Backfill behind a carbon-aware deferral gate.
    CarbonAware {
        /// Green-share threshold below which deferrable work waits.
        green_threshold: f64,
    },
    /// Urgent/standard/green queue segmentation.
    GreenQueues {
        /// Cap applied to green-queue jobs, watts.
        green_cap_w: f64,
    },
    /// Carbon-aware gate over temperature-aware capping (the full §II
    /// stack).
    CarbonAndTempAware,
}

impl PolicyKind {
    /// Reference list used by policy-comparison experiments.
    pub const COMPARISON_SET: [PolicyKind; 6] = [
        PolicyKind::Fcfs,
        PolicyKind::EasyBackfill,
        PolicyKind::StaticCap { cap_w: 175.0 },
        PolicyKind::TempAware,
        PolicyKind::CarbonAware {
            green_threshold: 0.06,
        },
        PolicyKind::CarbonAndTempAware,
    ];

    /// Stable label for reports.
    pub fn label(&self) -> String {
        match self {
            PolicyKind::Fcfs => "fcfs".into(),
            PolicyKind::Sjf => "sjf".into(),
            PolicyKind::EasyBackfill => "easy-backfill".into(),
            PolicyKind::StaticCap { cap_w } => format!("static-cap-{cap_w:.0}W"),
            PolicyKind::TempAware => "temp-aware".into(),
            PolicyKind::CarbonAware { green_threshold } => {
                format!("carbon-aware-{:.0}pct", green_threshold * 100.0)
            }
            PolicyKind::GreenQueues { green_cap_w } => {
                format!("green-queues-{green_cap_w:.0}W")
            }
            PolicyKind::CarbonAndTempAware => "carbon+temp-aware".into(),
        }
    }

    /// Whether the built policy reads [`SchedSignals::forecast_green`]:
    /// true only for the carbon gate's kinds. The driver refreshes the
    /// forecast only for these, so every other kind sees it empty.
    ///
    /// [`SchedSignals::forecast_green`]: crate::policy::SchedSignals::forecast_green
    pub fn reads_forecast(&self) -> bool {
        match self {
            PolicyKind::CarbonAware { .. } | PolicyKind::CarbonAndTempAware => true,
            PolicyKind::Fcfs
            | PolicyKind::Sjf
            | PolicyKind::EasyBackfill
            | PolicyKind::StaticCap { .. }
            | PolicyKind::TempAware
            | PolicyKind::GreenQueues { .. } => false,
        }
    }

    /// Instantiate the live policy.
    pub fn build(&self) -> Box<dyn SchedPolicy> {
        match *self {
            PolicyKind::Fcfs => Box::new(FcfsPolicy::default()),
            PolicyKind::Sjf => Box::new(SjfPolicy::default()),
            PolicyKind::EasyBackfill => Box::new(EasyBackfillPolicy::default()),
            PolicyKind::StaticCap { cap_w } => Box::new(PowerCapPolicy::new(
                Box::new(EasyBackfillPolicy::default()),
                cap_w,
            )),
            PolicyKind::TempAware => Box::new(TempAwarePolicy::new(Box::new(
                EasyBackfillPolicy::default(),
            ))),
            PolicyKind::CarbonAware { green_threshold } => {
                let mut p = CarbonAwarePolicy::new(Box::new(EasyBackfillPolicy::default()));
                p.green_threshold = green_threshold;
                Box::new(p)
            }
            PolicyKind::GreenQueues { green_cap_w } => Box::new(GreenQueuePolicy {
                green_cap_w,
                ..GreenQueuePolicy::default()
            }),
            PolicyKind::CarbonAndTempAware => {
                let inner = TempAwarePolicy::new(Box::new(EasyBackfillPolicy::default()));
                Box::new(CarbonAwarePolicy::new(Box::new(inner)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::{cluster, qjob, wq};
    use crate::policy::SchedSignals;

    #[test]
    fn every_kind_builds_and_dispatches() {
        let kinds = [
            PolicyKind::Fcfs,
            PolicyKind::Sjf,
            PolicyKind::EasyBackfill,
            PolicyKind::StaticCap { cap_w: 150.0 },
            PolicyKind::TempAware,
            PolicyKind::CarbonAware {
                green_threshold: 0.06,
            },
            PolicyKind::GreenQueues { green_cap_w: 160.0 },
            PolicyKind::CarbonAndTempAware,
        ];
        let c = cluster();
        let queue = wq([qjob(1, 2, 1.0)]);
        for k in kinds {
            let mut p = k.build();
            let d = p.dispatch_collect(&queue, &c, &SchedSignals::default());
            crate::policy::validate_decisions(&d, &queue, &c)
                .unwrap_or_else(|e| panic!("{}: {e}", k.label()));
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<String> = PolicyKind::COMPARISON_SET
            .iter()
            .map(|k| k.label())
            .collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), PolicyKind::COMPARISON_SET.len());
    }

    /// The lone-arrival fast path must reproduce the full dispatch for a
    /// one-job queue with free capacity, for **every** policy kind and a
    /// spread of job shapes and environment signals — this is the
    /// policy-level half of the driver's default-engine == reference-engine
    /// guarantee. None of the built-in kinds may fall back to
    /// `Unsupported` (that would silently disable the fast path).
    #[test]
    fn lone_dispatch_matches_single_job_dispatch_for_every_kind() {
        use crate::carbon::CarbonAwarePolicy;
        use crate::policy::testutil::deferrable;
        use crate::policy::LoneDispatch;

        let c = cluster(); // 16 GPUs, all free
        let forecast = [0.02, 0.09, 0.12, 0.04];
        let signal_grid = [
            // (green_share, temp_f): green+cold, dirty+cold, dirty+hot.
            (0.10, 20.0),
            (0.03, 20.0),
            (0.03, 95.0),
        ];
        let jobs = [
            qjob(1, 2, 1.0),
            qjob(2, 16, 40.0),
            deferrable(qjob(3, 4, 2.0), 48),
        ];
        for k in all_kinds() {
            for &(green_share, temp_f) in &signal_grid {
                let signals = crate::policy::SchedSignals {
                    green_share,
                    temp_f,
                    forecast_green: &forecast,
                    ..Default::default()
                };
                for q in jobs {
                    let mut reference = k.build();
                    let queue = wq([q]);
                    let full = reference.dispatch_collect(&queue, &c, &signals);
                    let mut fast = k.build();
                    match fast.lone_dispatch(&q, &c, &signals) {
                        LoneDispatch::Start { power_cap_w } => {
                            assert_eq!(
                                full.len(),
                                1,
                                "{}: fast started, reference did not",
                                k.label()
                            );
                            assert_eq!(full[0].job_id, q.job.id);
                            assert_eq!(
                                full[0].power_cap_w.to_bits(),
                                power_cap_w.to_bits(),
                                "{}: cap mismatch",
                                k.label()
                            );
                        }
                        LoneDispatch::Hold => {
                            assert!(
                                full.is_empty(),
                                "{}: fast held, reference dispatched {full:?}",
                                k.label()
                            );
                        }
                        LoneDispatch::Unsupported => {
                            panic!("{}: built-in policy left the fast path off", k.label())
                        }
                    }
                }
            }
        }
        // The default gate knobs are also reachable directly (not through
        // PolicyKind): a deferrable job in a dirty hour with greener hours
        // forecast inside its slack must Hold.
        let mut gate = CarbonAwarePolicy::new(Box::new(crate::policy::FcfsPolicy::default()));
        let dirty = crate::policy::SchedSignals {
            green_share: 0.03,
            forecast_green: &forecast,
            ..Default::default()
        };
        let q = deferrable(qjob(9, 2, 1.0), 48);
        assert_eq!(gate.lone_dispatch(&q, &c, &dirty), LoneDispatch::Hold);
    }

    /// Every kind, in declaration order. The `match` stops compiling when
    /// a variant is added, until it gets an ordinal and a place here.
    fn all_kinds() -> [PolicyKind; 8] {
        let kinds = [
            PolicyKind::Fcfs,
            PolicyKind::Sjf,
            PolicyKind::EasyBackfill,
            PolicyKind::StaticCap { cap_w: 150.0 },
            PolicyKind::TempAware,
            PolicyKind::CarbonAware {
                green_threshold: 0.06,
            },
            PolicyKind::GreenQueues { green_cap_w: 160.0 },
            PolicyKind::CarbonAndTempAware,
        ];
        for (i, k) in kinds.iter().enumerate() {
            let ordinal = match k {
                PolicyKind::Fcfs => 0,
                PolicyKind::Sjf => 1,
                PolicyKind::EasyBackfill => 2,
                PolicyKind::StaticCap { .. } => 3,
                PolicyKind::TempAware => 4,
                PolicyKind::CarbonAware { .. } => 5,
                PolicyKind::GreenQueues { .. } => 6,
                PolicyKind::CarbonAndTempAware => 7,
            };
            assert_eq!(ordinal, i, "{} is out of place", k.label());
        }
        kinds
    }

    /// `reads_forecast` is true exactly for the kinds whose decisions
    /// depend on the forecast: a deferrable job in a dirty hour is held
    /// under a green forecast and started under an empty one by those
    /// kinds, and decided alike by every other kind. The driver leaves
    /// the forecast empty for the latter, so a wrong `false` would
    /// silently change their decisions.
    #[test]
    fn reads_forecast_matches_forecast_sensitive_dispatch() {
        use crate::policy::testutil::deferrable;

        let c = cluster();
        let queue = wq([deferrable(qjob(1, 2, 1.0), 48)]);
        let green = [0.10; 24];
        let decide = |k: PolicyKind, forecast: &[f64]| {
            let signals = SchedSignals {
                green_share: 0.03,
                forecast_green: forecast,
                ..Default::default()
            };
            k.build().dispatch_collect(&queue, &c, &signals)
        };
        for k in all_kinds() {
            let with_forecast = decide(k, &green);
            let without = decide(k, &[]);
            assert_eq!(
                with_forecast != without,
                k.reads_forecast(),
                "{}: green forecast {with_forecast:?}, empty forecast {without:?}",
                k.label()
            );
        }
    }

    /// Ask a fresh `kind` whether it holds `queue`; if it does, check the
    /// held-queue contract for the fitting arrival `q`: `dispatch(queue ++
    /// [q])` emits exactly what `dispatch([q])` emits. Returns the answer.
    fn check_held_queue(
        kind: PolicyKind,
        queue: &crate::waitq::WaitQueue,
        q: crate::policy::QueuedJob,
        cluster: &greener_hpc::Cluster,
        signals: &SchedSignals<'_>,
    ) -> Result<bool, String> {
        assert!(
            q.job.gpus <= cluster.free_gpus(),
            "the contract covers fitting arrivals"
        );
        if !kind.build().holds_queue(queue, signals) {
            return Ok(false);
        }
        let mut joined: crate::waitq::WaitQueue = queue.iter().copied().collect();
        joined.push(q);
        let with_queue = kind.build().dispatch_collect(&joined, cluster, signals);
        let alone = kind.build().dispatch_collect(&wq([q]), cluster, signals);
        if with_queue == alone {
            Ok(true)
        } else {
            Err(format!(
                "{} held a queue of {} yet dispatched {with_queue:?} with it and {alone:?} without",
                kind.label(),
                queue.len()
            ))
        }
    }

    /// The held-queue contract, policy-side, over queues of deferrable,
    /// non-deferrable and green jobs, dirty and green hours, and slack
    /// deadlines both past and ahead. The gate and the green queues must
    /// also say they hold the queues they provably hold, or the driver's
    /// fast path past a held queue would silently go dead.
    #[test]
    fn held_queue_hides_from_dispatch_for_every_kind() {
        use crate::policy::testutil::deferrable;
        use greener_simkit::time::SimTime;
        use greener_workload::QueueClass;

        let c = cluster(); // 16 GPUs, all free
        let now = SimTime::from_hours(10);
        let forecast = [0.02, 0.09, 0.12, 0.04];
        // Deadlines are relative to submission at t = 0: 6 h is past at
        // `now`, 48 h is ahead.
        let waiting = deferrable(qjob(1, 4, 2.0), 48);
        let expired = deferrable(qjob(2, 4, 2.0), 6);
        let plain = qjob(3, 2, 1.0);
        let mut urgent = qjob(4, 2, 1.0);
        urgent.job.queue = QueueClass::Urgent;
        let mut gated_standard = deferrable(qjob(5, 8, 3.0), 48);
        gated_standard.job.queue = QueueClass::Standard;
        let queues = [
            wq([waiting, deferrable(qjob(6, 8, 5.0), 30)]),
            wq([waiting, expired]),
            wq([waiting, plain]),
            wq([gated_standard, waiting]),
            wq([urgent]),
            wq([expired]),
        ];
        let mut arrival_urgent = qjob(12, 1, 1.0);
        arrival_urgent.job.queue = QueueClass::Urgent;
        let arrivals = [
            qjob(10, 2, 1.0),
            qjob(11, 16, 40.0),
            arrival_urgent,
            deferrable(qjob(13, 4, 2.0), 48),
        ]
        .map(|mut q| {
            q.enqueued = now;
            q.job.submit = now;
            q.job.start_deadline = q.job.start_deadline.map(|by| by + (now - SimTime::ZERO));
            q
        });
        let mut held = Vec::new();
        for kind in all_kinds() {
            for green_share in [0.10, 0.03] {
                let signals = SchedSignals {
                    now,
                    green_share,
                    forecast_green: &forecast,
                    ..SchedSignals::default()
                };
                for (qi, queue) in queues.iter().enumerate() {
                    for q in arrivals {
                        if check_held_queue(kind, queue, q, &c, &signals).unwrap() {
                            held.push((kind.label(), green_share, qi));
                        }
                    }
                }
            }
        }
        let holds = |label: &str, green_share: f64, qi: usize| {
            held.contains(&(label.to_string(), green_share, qi))
        };
        // Dirty hour, every queued job deferred (a Standard-class one
        // included): both gate kinds hold.
        for label in ["carbon-aware-6pct", "carbon+temp-aware"] {
            assert!(
                holds(label, 0.03, 0),
                "{label} must hold an all-deferred queue"
            );
            assert!(
                holds(label, 0.03, 3),
                "{label} gates on deferrability, not class"
            );
            assert!(!holds(label, 0.03, 1), "{label}: expired slack must run");
            assert!(
                !holds(label, 0.10, 0),
                "{label}: nothing defers in a green hour"
            );
        }
        // Dirty hour, only green jobs whose slack is ahead: green queues
        // hold; an expired one, a Standard or Urgent one, or a green hour
        // breaks the hold.
        let green = "green-queues-160W";
        assert!(holds(green, 0.03, 0));
        for qi in [1, 2, 3, 4, 5] {
            assert!(!holds(green, 0.03, qi), "{green} held queue {qi}");
        }
        assert!(!holds(green, 0.10, 0));
        // Kinds without a gate keep the default.
        assert!(held
            .iter()
            .all(|(label, _, _)| label.contains("carbon") || label.contains("green")));
    }

    #[test]
    fn static_cap_applies() {
        let mut p = PolicyKind::StaticCap { cap_w: 140.0 }.build();
        let c = cluster();
        let queue = wq([qjob(1, 2, 1.0)]);
        let d = p.dispatch_collect(&queue, &c, &SchedSignals::default());
        assert_eq!(d[0].power_cap_w, 140.0);
    }

    mod props {
        use super::*;
        use crate::policy::testutil::qjob_at;
        use crate::policy::QueuedJob;
        use greener_simkit::time::{Duration, SimTime};
        use greener_workload::{JobId, QueueClass};
        use proptest::prelude::*;

        /// A job from `(gpus, shape, deadline hours, duration hours)`,
        /// submitted at `t`: shape 0 is a plain Standard job, 1 a
        /// deferrable green job with a deadline, 2 a deferrable green job
        /// without one, 3 an Urgent job and 4 a deferrable Standard job
        /// with a deadline.
        fn shaped(
            id: u64,
            (gpus, shape, by_h, hours): (u32, u8, u64, u64),
            t: SimTime,
        ) -> QueuedJob {
            let mut q = qjob_at(id, gpus, hours as f64, t);
            let deadline = Some(t + Duration::from_hours(by_h));
            match shape {
                1 => {
                    q.job.deferrable = true;
                    q.job.queue = QueueClass::Green;
                    q.job.start_deadline = deadline;
                }
                2 => {
                    q.job.deferrable = true;
                    q.job.queue = QueueClass::Green;
                }
                3 => q.job.queue = QueueClass::Urgent,
                4 => {
                    q.job.deferrable = true;
                    q.job.start_deadline = deadline;
                }
                _ => {}
            }
            q
        }

        proptest! {
            /// Whenever any kind says it holds a random queue (jobs
            /// queued at t = 0, checked `now_h` hours later, so deadlines
            /// fall on both sides of now), a fitting arrival dispatches
            /// exactly as it would alone, on a partly busy cluster and
            /// under a random forecast.
            #[test]
            fn held_queue_contract_holds_for_random_queues(
                kind_idx in 0usize..all_kinds().len(),
                jobs in prop::collection::vec((1u32..9, 0u8..5, 0u64..40, 1u64..20), 1..12),
                arrival in (1u32..17, 0u8..5, 0u64..40, 1u64..20),
                dirty in 0u8..4,
                now_h in 0u64..30,
                busy in 0u32..16,
                forecast in prop::collection::vec(0.0f64..0.2, 0..30),
            ) {
                let kind = all_kinds()[kind_idx];
                let mut c = cluster(); // 16 GPUs
                let completions = [(SimTime::from_hours(now_h + 5), busy)];
                if busy > 0 {
                    c.allocate(JobId(1_000), busy, 250.0, 1.0).unwrap();
                }
                let now = SimTime::from_hours(now_h);
                let queue: crate::waitq::WaitQueue = jobs
                    .iter()
                    .enumerate()
                    .map(|(i, &shape)| shaped(i as u64, shape, SimTime::ZERO))
                    .collect();
                let q = shaped(100, arrival, now);
                if q.job.gpus > c.free_gpus() {
                    return Ok(());
                }
                let signals = SchedSignals {
                    now,
                    // Three dirty draws in four: holds mostly happen then.
                    green_share: if dirty == 0 { 0.09 } else { 0.03 },
                    forecast_green: &forecast,
                    running_completions: if busy > 0 { &completions } else { &[] },
                    ..SchedSignals::default()
                };
                check_held_queue(kind, &queue, q, &c, &signals)?;
            }
        }
    }
}
