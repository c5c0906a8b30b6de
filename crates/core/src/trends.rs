//! Fig. 1: "Modern AI's Computational Demands".
//!
//! The paper's Fig. 1 (sourced from OpenAI's *AI and Compute* / The
//! Economist) plots the training compute of landmark AI systems on a log
//! scale over six decades, with a dramatic kink around 2012: before it,
//! compute doubled roughly with Moore's law (~2 years); after it, every
//! ~3.4 months. We embed the public landmark-system dataset and fit both
//! eras with segmented log-linear regression.

use greener_simkit::stats::{segmented_doubling_fit, SegmentedDoubling};

/// One landmark system: name, (fractional) year, training compute in
/// petaflop/s-days.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LandmarkSystem {
    /// System name.
    pub name: &'static str,
    /// Publication year (fractional).
    pub year: f64,
    /// Training compute, petaflop/s-days.
    pub pfs_days: f64,
}

/// The breakpoint between the "first era" and the "modern era" (AlexNet).
pub const ERA_BREAK_YEAR: f64 = 2012.0;

/// Landmark systems, following OpenAI's *AI and Compute* dataset (values
/// are the published estimates, petaflop/s-days; pre-2012 entries are the
/// small classical systems that define the Moore's-law era).
pub const LANDMARK_SYSTEMS: [LandmarkSystem; 26] = [
    LandmarkSystem {
        name: "Perceptron",
        year: 1958.0,
        pfs_days: 1.0e-13,
    },
    LandmarkSystem {
        name: "ADALINE",
        year: 1960.0,
        pfs_days: 2.5e-13,
    },
    LandmarkSystem {
        name: "Neocognitron",
        year: 1980.0,
        pfs_days: 6.0e-11,
    },
    LandmarkSystem {
        name: "NetTalk",
        year: 1987.0,
        pfs_days: 1.0e-9,
    },
    LandmarkSystem {
        name: "ALVINN",
        year: 1989.0,
        pfs_days: 2.0e-9,
    },
    LandmarkSystem {
        name: "TD-Gammon",
        year: 1992.0,
        pfs_days: 7.0e-9,
    },
    LandmarkSystem {
        name: "LeNet-5",
        year: 1998.0,
        pfs_days: 8.0e-8,
    },
    LandmarkSystem {
        name: "Deep Belief Nets",
        year: 2006.0,
        pfs_days: 3.0e-6,
    },
    LandmarkSystem {
        name: "RNN for speech",
        year: 2009.0,
        pfs_days: 6.0e-5,
    },
    LandmarkSystem {
        name: "Feedforward NN (2010)",
        year: 2010.5,
        pfs_days: 2.0e-4,
    },
    LandmarkSystem {
        name: "KSH (pre-AlexNet)",
        year: 2011.5,
        pfs_days: 2.0e-3,
    },
    LandmarkSystem {
        name: "AlexNet",
        year: 2012.4,
        pfs_days: 4.7e-3,
    },
    LandmarkSystem {
        name: "Dropout",
        year: 2012.8,
        pfs_days: 2.0e-3,
    },
    LandmarkSystem {
        name: "Visualizing CNNs",
        year: 2013.2,
        pfs_days: 6.0e-3,
    },
    LandmarkSystem {
        name: "DQN",
        year: 2013.9,
        pfs_days: 4.0e-3,
    },
    LandmarkSystem {
        name: "GoogLeNet",
        year: 2014.7,
        pfs_days: 1.6e-2,
    },
    LandmarkSystem {
        name: "VGG",
        year: 2014.7,
        pfs_days: 9.0e-2,
    },
    LandmarkSystem {
        name: "Seq2Seq",
        year: 2014.9,
        pfs_days: 7.0e-2,
    },
    LandmarkSystem {
        name: "ResNet-152",
        year: 2015.9,
        pfs_days: 2.2e-1,
    },
    LandmarkSystem {
        name: "DeepSpeech2",
        year: 2015.9,
        pfs_days: 2.5e-1,
    },
    LandmarkSystem {
        name: "Xception",
        year: 2016.8,
        pfs_days: 4.5e-1,
    },
    LandmarkSystem {
        name: "Neural Machine Translation",
        year: 2016.7,
        pfs_days: 9.0e-1,
    },
    LandmarkSystem {
        name: "Neural Architecture Search",
        year: 2017.4,
        pfs_days: 2.0e2,
    },
    LandmarkSystem {
        name: "AlphaGo Zero",
        year: 2017.8,
        pfs_days: 1.9e3,
    },
    LandmarkSystem {
        name: "AlphaZero",
        year: 2017.95,
        pfs_days: 3.6e2,
    },
    LandmarkSystem {
        name: "GPT-3",
        year: 2020.4,
        pfs_days: 3.6e3,
    },
];

/// Fig. 1 reproduction: the dataset plus fitted doubling times per era.
#[derive(Debug, Clone)]
pub struct ComputeTrend {
    /// The systems used.
    pub systems: Vec<LandmarkSystem>,
    /// Segmented fit (doubling times in *years*).
    pub fit: SegmentedDoubling,
}

impl ComputeTrend {
    /// Fit the two-era trend on the embedded dataset.
    pub fn fit() -> ComputeTrend {
        Self::fit_on(&LANDMARK_SYSTEMS)
    }

    /// Fit on an arbitrary dataset (used by tests).
    pub fn fit_on(systems: &[LandmarkSystem]) -> ComputeTrend {
        let xs: Vec<f64> = systems.iter().map(|s| s.year).collect();
        let ys: Vec<f64> = systems.iter().map(|s| s.pfs_days).collect();
        let fit = segmented_doubling_fit(&xs, &ys, ERA_BREAK_YEAR)
            .expect("landmark dataset is well-formed");
        ComputeTrend {
            systems: systems.to_vec(),
            fit,
        }
    }

    /// First-era doubling time in months.
    pub fn doubling_before_months(&self) -> f64 {
        self.fit.doubling_before * 12.0
    }

    /// Modern-era doubling time in months.
    pub fn doubling_after_months(&self) -> f64 {
        self.fit.doubling_after * 12.0
    }

    /// Total growth factor across the modern era (2012 → last point).
    pub fn modern_era_growth(&self) -> f64 {
        let first = self
            .systems
            .iter()
            .filter(|s| s.year >= ERA_BREAK_YEAR)
            .map(|s| s.pfs_days)
            .fold(f64::INFINITY, f64::min);
        let last = self
            .systems
            .iter()
            .map(|s| s.pfs_days)
            .fold(f64::NEG_INFINITY, f64::max);
        last / first
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_is_chronological_enough() {
        // Not strictly sorted (same-year systems), but spans 1958–2020.
        let years: Vec<f64> = LANDMARK_SYSTEMS.iter().map(|s| s.year).collect();
        assert!(years.iter().cloned().fold(f64::INFINITY, f64::min) < 1960.0);
        assert!(years.iter().cloned().fold(f64::NEG_INFINITY, f64::max) > 2019.0);
        assert!(LANDMARK_SYSTEMS.iter().all(|s| s.pfs_days > 0.0));
    }

    #[test]
    fn two_eras_have_the_published_shape() {
        let trend = ComputeTrend::fit();
        // First era: Moore's-law-like doubling, ~18–36 months.
        let before = trend.doubling_before_months();
        assert!(
            (15.0..36.0).contains(&before),
            "first-era doubling {before:.1} months"
        );
        // Modern era: a few months (OpenAI reports 3.4; estimates vary with
        // the exact point set — anything well under a year shows the kink).
        let after = trend.doubling_after_months();
        assert!(
            (1.5..9.0).contains(&after),
            "modern-era doubling {after:.1} months"
        );
        // The kink: modern era at least 4x faster.
        assert!(before / after > 4.0);
    }

    #[test]
    fn modern_growth_spans_many_orders_of_magnitude() {
        let trend = ComputeTrend::fit();
        // Paper: "Note the steep increase in just the past decade".
        assert!(trend.modern_era_growth() > 1e5);
    }

    #[test]
    fn fits_have_good_r2() {
        let trend = ComputeTrend::fit();
        assert!(trend.fit.fit_before.r2 > 0.8, "{}", trend.fit.fit_before.r2);
        assert!(trend.fit.fit_after.r2 > 0.5, "{}", trend.fit.fit_after.r2);
    }

    #[test]
    fn fit_on_synthetic_recovers_doubling() {
        let systems: Vec<LandmarkSystem> = (0..40)
            .map(|i| {
                let year = 1990.0 + i as f64;
                LandmarkSystem {
                    name: "synthetic",
                    year,
                    pfs_days: if year < 2012.0 {
                        2f64.powf((year - 1990.0) / 2.0)
                    } else {
                        2f64.powf(22.0 / 2.0) * 2f64.powf((year - 2012.0) / 0.25)
                    },
                }
            })
            .collect();
        let trend = ComputeTrend::fit_on(&systems);
        assert!((trend.fit.doubling_before - 2.0).abs() < 0.01);
        assert!((trend.fit.doubling_after - 0.25).abs() < 0.01);
    }
}
