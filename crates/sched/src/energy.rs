//! Power-capping policies.
//!
//! §II-C: "optimal GPU power-caps provide an effective way to control energy
//! consumption with minimal impact on training speed" (ref \[15\]).
//! [`PowerCapPolicy`] applies a static fleet-wide cap; [`TempAwarePolicy`]
//! tightens caps as outdoor temperature rises — shaving IT watts exactly
//! when each IT watt costs the most cooling watts (§II-B weatherization).

use greener_hpc::Cluster;

use crate::policy::{Decision, LoneDispatch, QueuedJob, SchedPolicy, SchedSignals};
use crate::waitq::WaitQueue;

/// Wrap a base policy and override every decision's cap with a fixed value.
pub struct PowerCapPolicy {
    base: Box<dyn SchedPolicy>,
    cap_w: f64,
}

impl PowerCapPolicy {
    /// Cap every dispatched job at `cap_w` (clamped to the GPU's range at
    /// allocation time).
    pub fn new(base: Box<dyn SchedPolicy>, cap_w: f64) -> PowerCapPolicy {
        PowerCapPolicy { base, cap_w }
    }

    /// The configured cap.
    pub fn cap_w(&self) -> f64 {
        self.cap_w
    }
}

impl SchedPolicy for PowerCapPolicy {
    fn dispatch(
        &mut self,
        queue: &WaitQueue,
        cluster: &Cluster,
        signals: &SchedSignals<'_>,
        out: &mut Vec<Decision>,
    ) {
        let start = out.len();
        self.base.dispatch(queue, cluster, signals, out);
        for d in &mut out[start..] {
            d.power_cap_w = self.cap_w;
        }
    }

    // The wrapper only rewrites caps: the base's lone answer stands, with
    // the cap overridden exactly like the dispatch path overrides it.
    fn lone_dispatch(
        &mut self,
        q: &QueuedJob,
        cluster: &Cluster,
        signals: &SchedSignals<'_>,
    ) -> LoneDispatch {
        match self.base.lone_dispatch(q, cluster, signals) {
            LoneDispatch::Start { .. } => LoneDispatch::Start {
                power_cap_w: self.cap_w,
            },
            other => other,
        }
    }

    fn backfill_visits(&self) -> u64 {
        self.base.backfill_visits()
    }
}

/// Temperature-aware capping: nominal cap below `t_low_f`, tightening
/// linearly to `cap_min_w` at `t_high_f`.
pub struct TempAwarePolicy {
    base: Box<dyn SchedPolicy>,
    /// Below this temperature caps stay nominal, °F.
    pub t_low_f: f64,
    /// At/above this temperature the cap reaches its floor, °F.
    pub t_high_f: f64,
    /// Cap floor, watts.
    pub cap_min_w: f64,
}

impl TempAwarePolicy {
    /// Default thresholds: start tightening at 60 °F, floor of 150 W at 90 °F.
    pub fn new(base: Box<dyn SchedPolicy>) -> TempAwarePolicy {
        TempAwarePolicy {
            base,
            t_low_f: 60.0,
            t_high_f: 90.0,
            cap_min_w: 150.0,
        }
    }

    /// The cap this policy would apply at a given temperature.
    pub fn cap_at_temp(&self, temp_f: f64, nominal_w: f64) -> f64 {
        if temp_f <= self.t_low_f {
            return nominal_w;
        }
        if temp_f >= self.t_high_f {
            return self.cap_min_w;
        }
        let frac = (temp_f - self.t_low_f) / (self.t_high_f - self.t_low_f);
        nominal_w - frac * (nominal_w - self.cap_min_w)
    }
}

impl SchedPolicy for TempAwarePolicy {
    fn dispatch(
        &mut self,
        queue: &WaitQueue,
        cluster: &Cluster,
        signals: &SchedSignals<'_>,
        out: &mut Vec<Decision>,
    ) {
        let nominal = cluster.spec().gpu.nominal_power_w;
        let cap = self.cap_at_temp(signals.temp_f, nominal);
        let start = out.len();
        self.base.dispatch(queue, cluster, signals, out);
        for d in &mut out[start..] {
            d.power_cap_w = cap;
        }
    }

    // Cap rewrite only, at the signal temperature — same as dispatch.
    fn lone_dispatch(
        &mut self,
        q: &QueuedJob,
        cluster: &Cluster,
        signals: &SchedSignals<'_>,
    ) -> LoneDispatch {
        match self.base.lone_dispatch(q, cluster, signals) {
            LoneDispatch::Start { .. } => LoneDispatch::Start {
                power_cap_w: self.cap_at_temp(signals.temp_f, cluster.spec().gpu.nominal_power_w),
            },
            other => other,
        }
    }

    fn backfill_visits(&self) -> u64 {
        self.base.backfill_visits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::{cluster, qjob, wq};
    use crate::policy::FcfsPolicy;

    #[test]
    fn power_cap_overrides_base() {
        let mut p = PowerCapPolicy::new(Box::new(FcfsPolicy::default()), 175.0);
        let c = cluster();
        let queue = wq([qjob(1, 2, 1.0), qjob(2, 2, 1.0)]);
        let d = p.dispatch_collect(&queue, &c, &SchedSignals::default());
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|x| x.power_cap_w == 175.0));
        assert_eq!(p.cap_w(), 175.0);
    }

    #[test]
    fn temp_cap_nominal_when_cold() {
        let p = TempAwarePolicy::new(Box::new(FcfsPolicy::default()));
        assert_eq!(p.cap_at_temp(30.0, 250.0), 250.0);
        assert_eq!(p.cap_at_temp(60.0, 250.0), 250.0);
    }

    #[test]
    fn temp_cap_floor_when_hot() {
        let p = TempAwarePolicy::new(Box::new(FcfsPolicy::default()));
        assert_eq!(p.cap_at_temp(90.0, 250.0), 150.0);
        assert_eq!(p.cap_at_temp(110.0, 250.0), 150.0);
    }

    #[test]
    fn temp_cap_interpolates() {
        let p = TempAwarePolicy::new(Box::new(FcfsPolicy::default()));
        let mid = p.cap_at_temp(75.0, 250.0);
        assert!((mid - 200.0).abs() < 1e-9, "midpoint cap {mid}");
        // Monotone decreasing in temperature.
        assert!(p.cap_at_temp(70.0, 250.0) > p.cap_at_temp(80.0, 250.0));
    }

    #[test]
    fn temp_policy_applies_signal_temperature() {
        let mut p = TempAwarePolicy::new(Box::new(FcfsPolicy::default()));
        let c = cluster();
        let queue = wq([qjob(1, 2, 1.0)]);
        let hot = SchedSignals {
            temp_f: 95.0,
            ..SchedSignals::default()
        };
        let d = p.dispatch_collect(&queue, &c, &hot);
        assert_eq!(d[0].power_cap_w, 150.0);
        let cold = SchedSignals {
            temp_f: 20.0,
            ..SchedSignals::default()
        };
        let d = p.dispatch_collect(&queue, &c, &cold);
        assert_eq!(d[0].power_cap_w, 250.0);
    }
}
