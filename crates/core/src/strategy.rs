//! Energy-purchasing strategies (§II-A).
//!
//! The paper proposes exploiting the seasonal mismatch between consumption
//! and green generation by either (1) encouraging utilization when the fuel
//! mix is green — that is the carbon-aware scheduler's job — or (2)
//! *storing* green energy to offset dirty hours. [`PurchaseStrategy`]
//! configures option (2): a battery charged from the grid in
//! green/cheap hours and discharged to serve facility load in dirty hours.

use greener_grid::storage::{Battery, BatteryConfig};
use greener_simkit::units::Energy;

/// Purchasing strategy configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PurchaseStrategy {
    /// Buy every kWh when consumed, no storage.
    None,
    /// Grid-tied battery arbitraging the green share.
    Battery {
        /// Battery parameters.
        config: BatteryConfig,
        /// Charge when the grid green share is at/above this level.
        charge_green_share: f64,
        /// Discharge when the grid green share is at/below this level.
        discharge_green_share: f64,
    },
}

impl PurchaseStrategy {
    /// Instantiate runtime state.
    pub fn build(&self) -> StrategyState {
        match *self {
            PurchaseStrategy::None => StrategyState::None,
            PurchaseStrategy::Battery {
                config,
                charge_green_share,
                discharge_green_share,
            } => StrategyState::Battery {
                battery: Battery::new(config),
                charge_green_share,
                discharge_green_share,
            },
        }
    }
}

/// Runtime strategy state carried by the driver.
#[derive(Debug, Clone)]
pub enum StrategyState {
    /// Pass-through.
    None,
    /// Battery with hysteresis thresholds.
    Battery {
        /// The battery.
        battery: Battery,
        /// Charge threshold on green share.
        charge_green_share: f64,
        /// Discharge threshold on green share.
        discharge_green_share: f64,
    },
}

/// The outcome of settling one hour of facility load through the strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HourSettlement {
    /// Energy actually purchased from the grid this hour (load ± battery).
    pub purchased: Energy,
    /// Energy the battery delivered toward the load.
    pub battery_discharged: Energy,
    /// Extra energy bought to charge the battery.
    pub battery_charged: Energy,
}

impl StrategyState {
    /// Settle one hour: facility consumed `load`, the grid's green share was
    /// `green_share`. Returns what was actually purchased.
    pub fn settle_hour(&mut self, load: Energy, green_share: f64) -> HourSettlement {
        match self {
            StrategyState::None => HourSettlement {
                purchased: load,
                battery_discharged: Energy::ZERO,
                battery_charged: Energy::ZERO,
            },
            StrategyState::Battery {
                battery,
                charge_green_share,
                discharge_green_share,
            } => {
                battery.tick(1.0);
                if green_share >= *charge_green_share {
                    // Green hour: buy extra to charge.
                    let drawn = battery.charge(battery.config().max_charge_kw, 1.0);
                    HourSettlement {
                        purchased: load + drawn,
                        battery_discharged: Energy::ZERO,
                        battery_charged: drawn,
                    }
                } else if green_share <= *discharge_green_share {
                    // Dirty hour: serve as much load as possible from the cell.
                    let want_kw = load.kwh(); // one hour → kWh == kW
                    let delivered = battery.discharge(want_kw, 1.0);
                    HourSettlement {
                        purchased: (load - delivered).max(Energy::ZERO),
                        battery_discharged: delivered,
                        battery_charged: Energy::ZERO,
                    }
                } else {
                    HourSettlement {
                        purchased: load,
                        battery_discharged: Energy::ZERO,
                        battery_charged: Energy::ZERO,
                    }
                }
            }
        }
    }

    /// Battery state of charge if a battery is present.
    pub fn soc_kwh(&self) -> f64 {
        match self {
            StrategyState::None => 0.0,
            StrategyState::Battery { battery, .. } => battery.soc_kwh(),
        }
    }

    /// Total full-equivalent cycles (battery wear metric).
    pub fn equivalent_cycles(&self) -> f64 {
        match self {
            StrategyState::None => 0.0,
            StrategyState::Battery { battery, .. } => battery.equivalent_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn battery_strategy() -> StrategyState {
        PurchaseStrategy::Battery {
            config: BatteryConfig::default(),
            charge_green_share: 0.07,
            discharge_green_share: 0.05,
        }
        .build()
    }

    #[test]
    fn none_is_passthrough() {
        let mut s = PurchaseStrategy::None.build();
        let out = s.settle_hour(Energy::from_kwh(250.0), 0.04);
        assert_eq!(out.purchased.kwh(), 250.0);
        assert_eq!(out.battery_discharged.kwh(), 0.0);
        assert_eq!(s.soc_kwh(), 0.0);
    }

    #[test]
    fn charges_in_green_hours() {
        let mut s = battery_strategy();
        let out = s.settle_hour(Energy::from_kwh(250.0), 0.09);
        assert!(out.purchased.kwh() > 250.0, "buys extra while green");
        assert!(out.battery_charged.kwh() > 0.0);
        assert!(s.soc_kwh() > 0.0);
    }

    #[test]
    fn discharges_in_dirty_hours() {
        let mut s = battery_strategy();
        // Fill first (several green hours).
        for _ in 0..6 {
            s.settle_hour(Energy::from_kwh(250.0), 0.10);
        }
        let soc_before = s.soc_kwh();
        let out = s.settle_hour(Energy::from_kwh(250.0), 0.03);
        assert!(out.purchased.kwh() < 250.0, "battery offsets the purchase");
        assert!(out.battery_discharged.kwh() > 0.0);
        assert!(s.soc_kwh() < soc_before);
    }

    #[test]
    fn neutral_band_is_passthrough() {
        let mut s = battery_strategy();
        let out = s.settle_hour(Energy::from_kwh(100.0), 0.06);
        assert_eq!(out.purchased.kwh(), 100.0);
        assert_eq!(out.battery_charged.kwh(), 0.0);
        assert_eq!(out.battery_discharged.kwh(), 0.0);
    }

    #[test]
    fn purchase_never_negative() {
        let mut s = battery_strategy();
        for _ in 0..10 {
            s.settle_hour(Energy::from_kwh(1000.0), 0.10);
        }
        // Tiny load in a dirty hour: battery covers all of it.
        let out = s.settle_hour(Energy::from_kwh(10.0), 0.01);
        assert!(out.purchased.kwh() >= 0.0);
        assert!(out.battery_discharged.kwh() <= 10.0 + 1e-9);
    }

    #[test]
    fn cycles_accumulate_with_use() {
        let mut s = battery_strategy();
        for i in 0..20 {
            let g = if i % 2 == 0 { 0.10 } else { 0.01 };
            s.settle_hour(Energy::from_kwh(400.0), g);
        }
        assert!(s.equivalent_cycles() > 0.0);
    }
}
