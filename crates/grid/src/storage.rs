//! Battery storage.
//!
//! Section II-A's second strategy: "store that energy to help offset energy
//! consumption during times where the fuel mix is less sustainably sourced."
//! [`Battery`] models a grid-tied battery with power limits, round-trip
//! losses and self-discharge; the purchasing strategies in `greener-core`
//! charge it in green/cheap hours and discharge in dirty/expensive ones.

use greener_simkit::units::Energy;

/// Battery parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryConfig {
    /// Usable capacity, kWh.
    pub capacity_kwh: f64,
    /// Maximum charging power, kW.
    pub max_charge_kw: f64,
    /// Maximum discharging power, kW.
    pub max_discharge_kw: f64,
    /// Round-trip efficiency in (0, 1]; split evenly between legs.
    pub round_trip_efficiency: f64,
    /// Self-discharge per hour as a fraction of state of charge.
    pub self_discharge_per_hour: f64,
}

impl Default for BatteryConfig {
    fn default() -> Self {
        BatteryConfig {
            capacity_kwh: 2_000.0,
            max_charge_kw: 500.0,
            max_discharge_kw: 500.0,
            round_trip_efficiency: 0.88,
            self_discharge_per_hour: 1e-4,
        }
    }
}

/// A stateful battery.
#[derive(Debug, Clone)]
pub struct Battery {
    config: BatteryConfig,
    soc_kwh: f64,
    /// Total energy drawn from the grid while charging (includes losses).
    pub total_charged: Energy,
    /// Total energy delivered to the load while discharging.
    pub total_discharged: Energy,
    /// Number of full-equivalent cycles so far.
    pub equivalent_cycles: f64,
}

impl Battery {
    /// A new battery at zero state of charge.
    pub fn new(config: BatteryConfig) -> Battery {
        assert!(config.capacity_kwh > 0.0, "capacity must be positive");
        assert!(
            config.round_trip_efficiency > 0.0 && config.round_trip_efficiency <= 1.0,
            "round-trip efficiency must be in (0,1]"
        );
        Battery {
            config,
            soc_kwh: 0.0,
            total_charged: Energy::ZERO,
            total_discharged: Energy::ZERO,
            equivalent_cycles: 0.0,
        }
    }

    /// Parameters.
    pub fn config(&self) -> &BatteryConfig {
        &self.config
    }

    /// Current state of charge, kWh.
    pub fn soc_kwh(&self) -> f64 {
        self.soc_kwh
    }

    /// State of charge as a fraction of capacity.
    pub fn soc_fraction(&self) -> f64 {
        self.soc_kwh / self.config.capacity_kwh
    }

    /// Remaining headroom, kWh.
    pub fn headroom_kwh(&self) -> f64 {
        (self.config.capacity_kwh - self.soc_kwh).max(0.0)
    }

    /// One-leg efficiency (square root of the round trip).
    fn leg_efficiency(&self) -> f64 {
        self.config.round_trip_efficiency.sqrt()
    }

    /// Charge for `hours` at up to `power_kw`. Returns the energy *drawn
    /// from the grid* (before losses), respecting power and capacity limits.
    pub fn charge(&mut self, power_kw: f64, hours: f64) -> Energy {
        debug_assert!(power_kw >= 0.0 && hours >= 0.0);
        let p = power_kw.min(self.config.max_charge_kw);
        let eff = self.leg_efficiency();
        // Energy that would land in the cell.
        let stored_wanted = p * hours * eff;
        let stored = stored_wanted.min(self.headroom_kwh());
        if stored <= 0.0 {
            return Energy::ZERO;
        }
        self.soc_kwh += stored;
        let drawn = Energy::from_kwh(stored / eff);
        self.total_charged += drawn;
        self.equivalent_cycles += stored / self.config.capacity_kwh / 2.0;
        drawn
    }

    /// Discharge for `hours` at up to `power_kw`. Returns the energy
    /// *delivered to the load* (after losses), respecting limits.
    pub fn discharge(&mut self, power_kw: f64, hours: f64) -> Energy {
        debug_assert!(power_kw >= 0.0 && hours >= 0.0);
        let p = power_kw.min(self.config.max_discharge_kw);
        let eff = self.leg_efficiency();
        // Delivering E requires E/eff from the cell.
        let delivered_wanted = p * hours;
        let delivered = delivered_wanted.min(self.soc_kwh * eff);
        if delivered <= 0.0 {
            return Energy::ZERO;
        }
        self.soc_kwh -= delivered / eff;
        let out = Energy::from_kwh(delivered);
        self.total_discharged += out;
        self.equivalent_cycles += (delivered / eff) / self.config.capacity_kwh / 2.0;
        out
    }

    /// Apply self-discharge for `hours`.
    pub fn tick(&mut self, hours: f64) {
        let keep = (1.0 - self.config.self_discharge_per_hour).powf(hours);
        self.soc_kwh *= keep;
    }

    /// Realized round-trip efficiency so far (NaN before first discharge).
    pub fn realized_efficiency(&self) -> f64 {
        self.total_discharged.kwh() / self.total_charged.kwh()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batt() -> Battery {
        Battery::new(BatteryConfig::default())
    }

    #[test]
    fn charge_respects_power_and_capacity() {
        let mut b = batt();
        // Ask for 10x the power limit for 1h.
        let drawn = b.charge(5_000.0, 1.0);
        // Only 500 kW accepted; stored = 500·√0.88.
        let eff = 0.88f64.sqrt();
        assert!((drawn.kwh() - 500.0).abs() < 1e-9);
        assert!((b.soc_kwh() - 500.0 * eff).abs() < 1e-9);
        // Fill to capacity: SOC never exceeds it.
        for _ in 0..20 {
            b.charge(500.0, 1.0);
        }
        assert!(b.soc_kwh() <= b.config().capacity_kwh + 1e-9);
        assert!((b.soc_fraction() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn discharge_bounded_by_soc() {
        let mut b = batt();
        b.charge(500.0, 2.0); // ~938 kWh stored
        let soc = b.soc_kwh();
        let out = b.discharge(500.0, 10.0); // ask for far more than stored
        let eff = 0.88f64.sqrt();
        assert!((out.kwh() - soc * eff).abs() < 1e-6);
        assert!(b.soc_kwh() < 1e-9);
    }

    #[test]
    fn round_trip_efficiency_realized() {
        let mut b = batt();
        b.charge(500.0, 2.0);
        while b.soc_kwh() > 1e-9 {
            if b.discharge(500.0, 1.0).kwh() <= 0.0 {
                break;
            }
        }
        let rte = b.realized_efficiency();
        assert!((rte - 0.88).abs() < 1e-6, "realized RTE {rte}");
    }

    #[test]
    fn self_discharge_decays() {
        let mut b = batt();
        b.charge(500.0, 1.0);
        let before = b.soc_kwh();
        b.tick(100.0);
        let after = b.soc_kwh();
        assert!(after < before);
        assert!(after > before * 0.98);
    }

    #[test]
    fn zero_requests_are_noops() {
        let mut b = batt();
        assert_eq!(b.charge(0.0, 1.0).kwh(), 0.0);
        assert_eq!(b.discharge(0.0, 1.0).kwh(), 0.0);
        assert_eq!(b.discharge(500.0, 1.0).kwh(), 0.0); // empty battery
        assert_eq!(b.soc_kwh(), 0.0);
    }

    #[test]
    fn cycles_accumulate() {
        let mut b = batt();
        b.charge(500.0, 4.0);
        b.discharge(500.0, 4.0);
        assert!(b.equivalent_cycles > 0.5 && b.equivalent_cycles < 2.0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// SOC stays within [0, capacity] under arbitrary operation
            /// sequences, and delivered energy never exceeds drawn energy.
            #[test]
            fn soc_invariant(ops in prop::collection::vec((0u8..3, 0.0f64..1_000.0, 0.0f64..4.0), 1..60)) {
                let mut b = batt();
                for (op, power, hours) in ops {
                    match op {
                        0 => { b.charge(power, hours); }
                        1 => { b.discharge(power, hours); }
                        _ => { b.tick(hours); }
                    }
                    prop_assert!(b.soc_kwh() >= -1e-9);
                    prop_assert!(b.soc_kwh() <= b.config().capacity_kwh + 1e-9);
                }
                prop_assert!(b.total_discharged.kwh() <= b.total_charged.kwh() + 1e-6);
            }
        }
    }
}
