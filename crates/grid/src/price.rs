//! Locational marginal price (LMP) model.
//!
//! ISO-NE prices are set by the marginal unit, which is almost always
//! natural gas. The model therefore prices energy as
//! `LMP = gas_price × heat_rate(utilization) + adders`, with a seasonal gas
//! price (winter pipeline constraints spike it) and a convex heat-rate curve
//! (high system utilization dispatches less efficient units). This yields
//! Fig. 3's shape: the cheapest power of the year lands in Feb–May
//! ($20–25/MWh) exactly when the green share peaks, and the most expensive
//! in deep winter.

use greener_simkit::calendar::Calendar;
use greener_simkit::time::SimTime;

/// Price-model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PriceConfig {
    /// Mid-month natural gas price anchors, $/MMBtu (Jan..Dec).
    pub gas_price_usd_mmbtu: [f64; 12],
    /// Base (no-congestion) heat rate, MMBtu/MWh.
    pub heat_rate_base: f64,
    /// Convex heat-rate growth with utilization.
    pub heat_rate_slope: f64,
    /// Flat transmission/uplift adder, $/MWh.
    pub adder_usd_mwh: f64,
    /// Multiplier applied to the whole price (stress scenarios).
    pub price_mult: f64,
}

impl Default for PriceConfig {
    fn default() -> Self {
        PriceConfig {
            // Winter pipeline scarcity (Dec–Feb) vs. cheap shoulder gas.
            gas_price_usd_mmbtu: [6.2, 3.6, 2.5, 2.3, 2.2, 2.5, 2.9, 2.9, 2.6, 2.8, 3.6, 5.2],
            heat_rate_base: 7.0,
            heat_rate_slope: 5.0,
            adder_usd_mwh: 2.0,
            price_mult: 1.0,
        }
    }
}

/// Hourly LMP in $/MWh.
///
/// `utilization` is regional demand relative to dispatchable capacity
/// (≈ demand / 1.8·base); values above ~0.8 climb steeply.
pub fn lmp_usd_mwh(config: &PriceConfig, calendar: &Calendar, hour: u64, utilization: f64) -> f64 {
    let gas = greener_climate::weather::interp_monthly(
        &config.gas_price_usd_mmbtu,
        calendar,
        SimTime::from_hours(hour),
    );
    lmp_usd_mwh_on(config, gas, utilization)
}

/// [`lmp_usd_mwh`] on a resolved gas price (the day's interpolated
/// `gas_price_usd_mmbtu`, $/MMBtu).
#[inline]
pub fn lmp_usd_mwh_on(config: &PriceConfig, gas_usd_mmbtu: f64, utilization: f64) -> f64 {
    let u = utilization.clamp(0.0, 1.5);
    let heat_rate = config.heat_rate_base + config.heat_rate_slope * u * u;
    (gas_usd_mmbtu * heat_rate + config.adder_usd_mwh) * config.price_mult
}

#[cfg(test)]
mod tests {
    use super::*;
    use greener_simkit::calendar::CalDate;

    fn cal() -> Calendar {
        Calendar::new(CalDate::new(2020, 1, 1))
    }

    #[test]
    fn winter_beats_spring() {
        let c = PriceConfig::default();
        // Mid January (hour of day 12 of day 15) vs mid April.
        let jan = lmp_usd_mwh(&c, &cal(), 15 * 24 + 12, 0.6);
        let apr = lmp_usd_mwh(&c, &cal(), 105 * 24 + 12, 0.5);
        assert!(jan > apr * 1.6, "jan {jan:.1} vs apr {apr:.1}");
        // Fig. 3 magnitudes.
        assert!((35.0..65.0).contains(&jan), "jan {jan:.1}");
        assert!((15.0..30.0).contains(&apr), "apr {apr:.1}");
    }

    #[test]
    fn utilization_raises_price_convexly() {
        let c = PriceConfig::default();
        let p3 = lmp_usd_mwh(&c, &cal(), 200 * 24, 0.3);
        let p6 = lmp_usd_mwh(&c, &cal(), 200 * 24, 0.6);
        let p9 = lmp_usd_mwh(&c, &cal(), 200 * 24, 0.9);
        assert!(p6 > p3);
        assert!(p9 - p6 > p6 - p3, "convexity violated");
    }

    #[test]
    fn price_mult_scales_linearly() {
        let mut c = PriceConfig::default();
        let base = lmp_usd_mwh(&c, &cal(), 1000, 0.5);
        c.price_mult = 3.0;
        let shocked = lmp_usd_mwh(&c, &cal(), 1000, 0.5);
        assert!((shocked / base - 3.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_clamped() {
        let c = PriceConfig::default();
        let hi = lmp_usd_mwh(&c, &cal(), 0, 99.0);
        let clamp = lmp_usd_mwh(&c, &cal(), 0, 1.5);
        assert!((hi - clamp).abs() < 1e-9);
        let neg = lmp_usd_mwh(&c, &cal(), 0, -5.0);
        let zero = lmp_usd_mwh(&c, &cal(), 0, 0.0);
        assert!((neg - zero).abs() < 1e-9);
    }
}
