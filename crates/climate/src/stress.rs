//! Stress-scenario descriptors.
//!
//! Section II-B proposes "a regularly conducted stress-test akin to the
//! Dodd-Frank stress tests … simulated stress scenarios that test the
//! resiliency" of datacenter/HPC operations under climate and other
//! less-traditional risks. A [`StressScenario`] is a *named bundle of
//! shocks*; the harness in `greener-core` applies each shock to the relevant
//! subsystem configuration and re-runs the scenario.
//!
//! Descriptors are plain data so every crate can consume them without
//! circular dependencies.

/// One shock applied to a subsystem configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StressKind {
    /// Uniform warming of the weather path, °C (e.g. +2 °C, +4 °C).
    UniformWarming {
        /// Warming in degrees Celsius.
        celsius: f64,
    },
    /// Scale heat-wave frequency and amplitude.
    HeatWaveIntensification {
        /// Multiplier on expected heat waves per year.
        frequency_mult: f64,
        /// Multiplier on peak anomaly.
        amplitude_mult: f64,
    },
    /// Cooling plant degradation: achieved COP is scaled down (fouling,
    /// equipment stress outside its design envelope).
    CoolingDegradation {
        /// Multiplier (< 1) on achieved coefficient of performance.
        cop_mult: f64,
    },
    /// Wholesale energy price spike (e.g. winter gas shock).
    PriceSpike {
        /// Multiplier on locational marginal prices.
        price_mult: f64,
    },
    /// Grid carbon-intensity shock (loss of clean baseload / imports).
    CarbonIntensityShock {
        /// Multiplier on fossil share of the fuel mix.
        fossil_mult: f64,
    },
    /// Compute demand surge (e.g. deadline pile-up, viral workload).
    DemandSurge {
        /// Multiplier on the job-arrival rate.
        arrival_mult: f64,
    },
    /// Water stress: reduced cooling-water availability forces a lower
    /// evaporative-cooling fraction.
    WaterStress {
        /// Multiplier (< 1) on available cooling water.
        water_mult: f64,
    },
}

/// A named scenario bundling one or more shocks, with pass thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct StressScenario {
    /// Scenario identifier (e.g. `"severely-adverse-heat"`).
    pub name: String,
    /// Human-readable description.
    pub description: String,
    /// Shocks applied together.
    pub shocks: Vec<StressKind>,
    /// Maximum acceptable fraction of hours with unmet cooling or SLO
    /// violations for the scenario to "pass" (the α of Eq. 1).
    pub max_violation_fraction: f64,
}

impl StressScenario {
    /// Build a scenario.
    pub fn new(
        name: impl Into<String>,
        description: impl Into<String>,
        shocks: Vec<StressKind>,
        max_violation_fraction: f64,
    ) -> StressScenario {
        StressScenario {
            name: name.into(),
            description: description.into(),
            shocks,
            max_violation_fraction,
        }
    }

    /// The standard suite, mirroring Dodd-Frank's baseline / adverse /
    /// severely-adverse ladder plus targeted single-factor scenarios.
    pub fn standard_suite() -> Vec<StressScenario> {
        vec![
            StressScenario::new(
                "baseline",
                "No shocks; reference operating conditions.",
                vec![],
                0.01,
            ),
            StressScenario::new(
                "adverse-warming",
                "+2 °C uniform warming with mildly intensified heat waves.",
                vec![
                    StressKind::UniformWarming { celsius: 2.0 },
                    StressKind::HeatWaveIntensification {
                        frequency_mult: 1.5,
                        amplitude_mult: 1.2,
                    },
                ],
                0.02,
            ),
            StressScenario::new(
                "severely-adverse-warming",
                "+4 °C warming, doubled heat waves, degraded cooling plant.",
                vec![
                    StressKind::UniformWarming { celsius: 4.0 },
                    StressKind::HeatWaveIntensification {
                        frequency_mult: 2.0,
                        amplitude_mult: 1.5,
                    },
                    StressKind::CoolingDegradation { cop_mult: 0.8 },
                ],
                0.05,
            ),
            StressScenario::new(
                "winter-price-shock",
                "Gas-driven 3x wholesale price spike with a cold-season carbon shock.",
                vec![
                    StressKind::PriceSpike { price_mult: 3.0 },
                    StressKind::CarbonIntensityShock { fossil_mult: 1.3 },
                ],
                0.02,
            ),
            StressScenario::new(
                "deadline-pileup",
                "50% arrival surge emulating a conference deadline pile-up.",
                vec![StressKind::DemandSurge { arrival_mult: 1.5 }],
                0.05,
            ),
            StressScenario::new(
                "drought",
                "Water-stressed watershed: 40% less cooling water.",
                vec![StressKind::WaterStress { water_mult: 0.6 }],
                0.03,
            ),
            StressScenario::new(
                "compound-summer",
                "Heat wave + demand surge + price spike landing together.",
                vec![
                    StressKind::HeatWaveIntensification {
                        frequency_mult: 2.0,
                        amplitude_mult: 1.4,
                    },
                    StressKind::DemandSurge { arrival_mult: 1.3 },
                    StressKind::PriceSpike { price_mult: 2.0 },
                ],
                0.05,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_suite_has_baseline_first() {
        let suite = StressScenario::standard_suite();
        assert!(suite.len() >= 6);
        assert_eq!(suite[0].name, "baseline");
        assert!(suite[0].shocks.is_empty());
    }

    #[test]
    fn scenario_names_unique() {
        let suite = StressScenario::standard_suite();
        let mut names: Vec<&str> = suite.iter().map(|s| s.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), suite.len());
    }

    #[test]
    fn thresholds_are_fractions() {
        for s in StressScenario::standard_suite() {
            assert!(
                (0.0..=1.0).contains(&s.max_violation_fraction),
                "{} threshold out of range",
                s.name
            );
        }
    }

    #[test]
    fn severely_adverse_is_stricter_than_baseline_in_shock_count() {
        let suite = StressScenario::standard_suite();
        let severe = suite
            .iter()
            .find(|s| s.name == "severely-adverse-warming")
            .unwrap();
        assert!(severe.shocks.len() >= 3);
    }

    #[test]
    fn clone_roundtrip() {
        // The plain-data contract: scenarios are Clone + PartialEq.
        let s = StressScenario::standard_suite();
        let back = s.clone();
        assert_eq!(s, back);
    }
}
