//! GPU power-cap model.
//!
//! Calibrated to the published V100 behaviour the paper cites (Frey et al.,
//! "Benchmarking resource usage for efficient distributed deep learning",
//! ref \[15\]): capping a 250 W V100 to ~60 % of TDP costs only ~15 % of
//! training throughput, so *energy per unit work* has an interior minimum
//! well below TDP. That asymmetry powers the paper's two-part mechanism
//! (accept stricter caps ⇄ receive more GPUs).

use greener_simkit::units::Power;
use greener_workload::JobKind;

/// A GPU model: power limits and the cap → throughput curve.
#[derive(Debug, Clone)]
pub struct GpuModel {
    /// Nominal TDP, watts.
    pub nominal_power_w: f64,
    /// Lowest supported power cap, watts.
    pub min_cap_w: f64,
    /// Idle draw, watts.
    pub idle_power_w: f64,
    /// `(cap_w, relative_throughput)` calibration anchors, ascending caps.
    pub throughput_curve: Vec<(f64, f64)>,
}

impl Default for GpuModel {
    /// A V100-like 250 W part with the ref \[15\] throughput shape.
    fn default() -> Self {
        GpuModel {
            nominal_power_w: 250.0,
            min_cap_w: 100.0,
            idle_power_w: 45.0,
            throughput_curve: vec![
                (100.0, 0.52),
                (125.0, 0.66),
                (150.0, 0.77),
                (175.0, 0.86),
                (200.0, 0.93),
                (225.0, 0.975),
                (250.0, 1.0),
            ],
        }
    }
}

impl GpuModel {
    /// Relative throughput (speed fraction in (0,1]) at a power cap,
    /// linearly interpolating the calibration anchors and clamping outside.
    pub fn speed_at_cap(&self, cap_w: f64) -> f64 {
        let curve = &self.throughput_curve;
        debug_assert!(curve.len() >= 2, "need at least two anchors");
        if cap_w <= curve[0].0 {
            return curve[0].1;
        }
        if cap_w >= curve[curve.len() - 1].0 {
            return curve[curve.len() - 1].1;
        }
        for w in curve.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if cap_w >= x0 && cap_w <= x1 {
                let f = (cap_w - x0) / (x1 - x0);
                return y0 + f * (y1 - y0);
            }
        }
        unreachable!("cap within curve bounds")
    }

    /// Effective cap after clamping to the supported range.
    pub fn clamp_cap(&self, cap_w: f64) -> f64 {
        cap_w.clamp(self.min_cap_w, self.nominal_power_w)
    }

    /// Electrical power of one GPU running at `utilization` under `cap_w`.
    ///
    /// A power-capped GPU under load sits at its cap; partial utilization
    /// interpolates between idle and the cap.
    pub fn power_at(&self, cap_w: f64, utilization: f64) -> Power {
        let cap = self.clamp_cap(cap_w);
        let u = utilization.clamp(0.0, 1.0);
        Power(self.idle_power_w + (cap - self.idle_power_w) * u)
    }

    /// Energy (joules) to complete one GPU-hour of *nominal* work at a cap,
    /// at full utilization: runtime stretches by `1/speed`, power sits at
    /// the cap.
    pub fn energy_per_gpu_hour(&self, cap_w: f64) -> f64 {
        let cap = self.clamp_cap(cap_w);
        let speed = self.speed_at_cap(cap);
        self.power_at(cap, 1.0).value() * 3_600.0 / speed
    }

    /// Energy-delay product per GPU-hour of work (J·s): the metric whose
    /// argmin ref \[15\] calls the *optimal power cap*.
    pub fn edp_per_gpu_hour(&self, cap_w: f64) -> f64 {
        let speed = self.speed_at_cap(self.clamp_cap(cap_w));
        let delay = 3_600.0 / speed;
        self.energy_per_gpu_hour(cap_w) * delay
    }

    /// The cap (searched on a 1 W lattice) minimizing energy per work.
    pub fn energy_optimal_cap(&self) -> f64 {
        self.argmin_cap(|c| self.energy_per_gpu_hour(c))
    }

    /// The cap minimizing the energy-delay product.
    pub fn edp_optimal_cap(&self) -> f64 {
        self.argmin_cap(|c| self.edp_per_gpu_hour(c))
    }

    fn argmin_cap(&self, f: impl Fn(f64) -> f64) -> f64 {
        let mut best = (self.nominal_power_w, f(self.nominal_power_w));
        let mut c = self.min_cap_w;
        while c <= self.nominal_power_w {
            let v = f(c);
            if v < best.1 {
                best = (c, v);
            }
            c += 1.0;
        }
        best.0
    }
}

/// Mean GPU utilization by job kind: training saturates GPUs, batch
/// inference does not ("inference queries are unable to realize the
/// parallelism that offline mini-batch training enjoys", §IV-B).
pub fn kind_utilization(kind: JobKind) -> f64 {
    match kind {
        JobKind::Training => 0.95,
        JobKind::HyperparamSweep => 0.90,
        JobKind::InferenceBatch => 0.45,
        JobKind::Batch => 0.70,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_endpoints() {
        let g = GpuModel::default();
        assert!((g.speed_at_cap(250.0) - 1.0).abs() < 1e-12);
        assert!((g.speed_at_cap(100.0) - 0.52).abs() < 1e-12);
        // Clamping outside the range.
        assert_eq!(g.speed_at_cap(50.0), g.speed_at_cap(100.0));
        assert_eq!(g.speed_at_cap(400.0), 1.0);
    }

    #[test]
    fn curve_interpolates_monotonically() {
        let g = GpuModel::default();
        let mut prev = 0.0;
        for c in (100..=250).step_by(5) {
            let s = g.speed_at_cap(c as f64);
            assert!(s >= prev, "non-monotone at {c} W");
            prev = s;
        }
        // Ref [15] headline: ~60% power keeps ≥ ~75% throughput.
        assert!(g.speed_at_cap(150.0) >= 0.75);
    }

    #[test]
    fn power_tracks_cap_and_utilization() {
        let g = GpuModel::default();
        assert!((g.power_at(250.0, 1.0).value() - 250.0).abs() < 1e-9);
        assert!((g.power_at(250.0, 0.0).value() - 45.0).abs() < 1e-9);
        let half = g.power_at(200.0, 0.5).value();
        assert!(half > 45.0 && half < 200.0);
        // Caps clamp.
        assert!((g.power_at(9999.0, 1.0).value() - 250.0).abs() < 1e-9);
        assert!((g.power_at(10.0, 1.0).value() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn energy_has_interior_minimum() {
        let g = GpuModel::default();
        let e_opt_cap = g.energy_optimal_cap();
        assert!(
            e_opt_cap > g.min_cap_w && e_opt_cap < g.nominal_power_w,
            "energy-optimal cap {e_opt_cap} not interior"
        );
        // Energy at the optimum beats both extremes.
        let e_opt = g.energy_per_gpu_hour(e_opt_cap);
        assert!(e_opt < g.energy_per_gpu_hour(250.0));
        assert!(e_opt < g.energy_per_gpu_hour(100.0));
        // Savings vs. TDP are meaningful (paper: "effective way to control
        // energy consumption with minimal impact on training speed").
        let saving = 1.0 - e_opt / g.energy_per_gpu_hour(250.0);
        assert!(saving > 0.05, "cap saving only {:.1}%", saving * 100.0);
    }

    #[test]
    fn edp_optimal_above_energy_optimal() {
        // EDP weights delay more, so its optimum sits at a higher cap.
        let g = GpuModel::default();
        assert!(g.edp_optimal_cap() >= g.energy_optimal_cap());
        assert!(g.edp_optimal_cap() <= g.nominal_power_w);
    }

    #[test]
    fn utilization_by_kind_ordering() {
        assert!(kind_utilization(JobKind::Training) > kind_utilization(JobKind::Batch));
        assert!(kind_utilization(JobKind::Batch) > kind_utilization(JobKind::InferenceBatch));
        for k in JobKind::ALL {
            assert!((0.0..=1.0).contains(&kind_utilization(k)));
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn speed_bounded_and_power_bounded(cap in 0.0f64..500.0, util in 0.0f64..1.0) {
                let g = GpuModel::default();
                let s = g.speed_at_cap(cap);
                prop_assert!(s > 0.0 && s <= 1.0);
                let p = g.power_at(cap, util).value();
                prop_assert!(p >= g.idle_power_w - 1e-9);
                prop_assert!(p <= g.nominal_power_w + 1e-9);
            }

            #[test]
            fn energy_curve_finite(cap in 50.0f64..400.0) {
                let g = GpuModel::default();
                let e = g.energy_per_gpu_hour(cap);
                prop_assert!(e.is_finite() && e > 0.0);
            }
        }
    }
}
