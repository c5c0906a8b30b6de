//! Serializable policy descriptors.
//!
//! Experiments sweep over policies; [`PolicyKind`] is the plain-data form a
//! sweep cell can carry across threads and into JSON reports, with
//! [`PolicyKind::build`] producing the live policy object.

use serde::{Deserialize, Serialize};

use crate::carbon::{CarbonAwarePolicy, GreenQueuePolicy};
use crate::energy::{PowerCapPolicy, TempAwarePolicy};
use crate::policy::{EasyBackfillPolicy, FcfsPolicy, SchedPolicy, SjfPolicy};

/// A policy configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Strict first-come-first-served at nominal power.
    Fcfs,
    /// Shortest-job-first at nominal power.
    Sjf,
    /// EASY backfill at nominal power (exhaustive candidate search — the
    /// classic semantics every paired comparison in the experiments uses).
    EasyBackfill,
    /// EASY backfill with a bounded candidate search: at most `depth`
    /// fit-feasible jobs are examined per dispatch, the way production
    /// schedulers cap backfill work. Decisions are always a prefix of
    /// [`PolicyKind::EasyBackfill`]'s (see
    /// [`crate::policy::BackfillLimit`] for the semantics contract), so
    /// results are *not* directly comparable with exhaustive-backfill
    /// cells — treat the depth as part of the policy identity.
    EasyBackfillLimited {
        /// Max fit-feasible candidates examined per dispatch.
        depth: u32,
    },
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
            PolicyKind::EasyBackfillLimited { depth } => format!("easy-backfill-d{depth}"),
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

    /// Instantiate the live policy.
    pub fn build(&self) -> Box<dyn SchedPolicy> {
        match *self {
            PolicyKind::Fcfs => Box::new(FcfsPolicy::default()),
            PolicyKind::Sjf => Box::new(SjfPolicy::default()),
            PolicyKind::EasyBackfill => Box::new(EasyBackfillPolicy::default()),
            PolicyKind::EasyBackfillLimited { depth } => {
                Box::new(EasyBackfillPolicy::with_depth(depth))
            }
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
            PolicyKind::EasyBackfillLimited { depth: 16 },
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
            assert!(!p.name().is_empty());
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

    #[test]
    fn descriptor_roundtrip() {
        // Serialization plumbing is exercised once a real serializer is
        // available (the vendored serde stand-in has none); until then pin
        // the plain-data contract: descriptors are Copy + PartialEq and
        // rebuild into policies with matching names.
        for k in PolicyKind::COMPARISON_SET {
            let copy = k;
            assert_eq!(k, copy);
            assert_eq!(k.build().name(), copy.build().name());
        }
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

        let kinds = [
            PolicyKind::Fcfs,
            PolicyKind::Sjf,
            PolicyKind::EasyBackfill,
            PolicyKind::EasyBackfillLimited { depth: 0 },
            PolicyKind::EasyBackfillLimited { depth: 3 },
            PolicyKind::StaticCap { cap_w: 150.0 },
            PolicyKind::TempAware,
            PolicyKind::CarbonAware {
                green_threshold: 0.06,
            },
            PolicyKind::GreenQueues { green_cap_w: 160.0 },
            PolicyKind::CarbonAndTempAware,
        ];
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
        for k in kinds {
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

    #[test]
    fn static_cap_applies() {
        let mut p = PolicyKind::StaticCap { cap_w: 140.0 }.build();
        let c = cluster();
        let queue = wq([qjob(1, 2, 1.0)]);
        let d = p.dispatch_collect(&queue, &c, &SchedSignals::default());
        assert_eq!(d[0].power_cap_w, 140.0);
    }
}
