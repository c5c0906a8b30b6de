//! Cooling: chiller efficiency vs. outdoor temperature, PUE, water.
//!
//! This module is the physical mechanism behind Fig. 4: "it takes more power
//! to cool the facilities" as temperature rises, producing a near
//! one-to-one monthly power↔temperature relationship. The chiller's
//! coefficient of performance (COP) falls with outdoor temperature —
//! economizer ("free cooling") hours in winter push it high, hot condenser
//! air in summer drags it down — so cooling power is
//! `P_cool = P_IT / COP(T) + fans`.

use greener_simkit::units::{Energy, Fahrenheit, Liters, Power};

/// Cooling-plant parameters.
#[derive(Debug, Clone)]
pub struct CoolingModel {
    /// COP at the reference outdoor temperature.
    pub cop_at_ref: f64,
    /// Reference outdoor temperature, °F.
    pub ref_temp_f: f64,
    /// COP lost per °F above the reference.
    pub cop_slope_per_degf: f64,
    /// Floor COP (struggling plant on the hottest days).
    pub cop_min: f64,
    /// Ceiling COP (economizer-dominated cold days).
    pub cop_max: f64,
    /// Fixed fan/pump power, watts.
    pub fan_power_w: f64,
    /// Degradation multiplier on achieved COP (stress scenarios; 1 = none).
    pub degradation_mult: f64,
    /// Water-use effectiveness at the reference temperature, litres/kWh of
    /// IT energy (evaporative towers).
    pub wue_at_ref_l_per_kwh: f64,
    /// Extra WUE per °F above reference.
    pub wue_slope_per_degf: f64,
    /// Multiplier on available cooling water (drought stress; 1 = normal).
    pub water_availability: f64,
    /// Design outdoor temperature, °F: beyond it the plant cannot hold
    /// setpoints (counted as cooling-risk hours by the stress harness).
    pub design_temp_f: f64,
}

impl Default for CoolingModel {
    fn default() -> Self {
        CoolingModel {
            cop_at_ref: 7.5,
            ref_temp_f: 40.0,
            cop_slope_per_degf: 0.16,
            cop_min: 1.6,
            cop_max: 10.0,
            fan_power_w: 6_000.0,
            degradation_mult: 1.0,
            wue_at_ref_l_per_kwh: 0.9,
            wue_slope_per_degf: 0.02,
            water_availability: 1.0,
            design_temp_f: 92.0,
        }
    }
}

impl CoolingModel {
    /// Evaluate the plant once at an outdoor temperature: COP, water-use
    /// effectiveness and the saturation flag all depend only on `outdoor`
    /// for a fixed model, so callers that need more than one of them per
    /// hour (the driver's tick handler asks for all three) should evaluate
    /// a [`CoolingPoint`] once and query it. Every scalar query on the
    /// model ([`CoolingModel::cop`] and friends) goes through this one
    /// evaluation, so a point's answers are bit-identical to the model's.
    pub fn at(&self, outdoor: Fahrenheit) -> CoolingPoint {
        let raw = self.cop_at_ref - self.cop_slope_per_degf * (outdoor.value() - self.ref_temp_f);
        let wue = (self.wue_at_ref_l_per_kwh
            + self.wue_slope_per_degf * (outdoor.value() - self.ref_temp_f).max(0.0))
        .max(0.0);
        let effective_design = self.design_temp_f - (1.0 - self.degradation_mult).max(0.0) * 40.0;
        CoolingPoint {
            cop: (raw * self.degradation_mult).clamp(self.cop_min, self.cop_max),
            wue_l_per_kwh: wue,
            water_availability: self.water_availability.min(1.0),
            fan_power_w: self.fan_power_w,
            saturated: outdoor.value() >= effective_design,
        }
    }

    /// Achieved COP at an outdoor temperature.
    pub fn cop(&self, outdoor: Fahrenheit) -> f64 {
        self.at(outdoor).cop
    }

    /// Cooling power for a given IT load at an outdoor temperature.
    pub fn cooling_power(&self, it_power: Power, outdoor: Fahrenheit) -> Power {
        self.at(outdoor).cooling_power(it_power)
    }

    /// Facility power-usage effectiveness at this operating point.
    pub fn pue(&self, it_power: Power, outdoor: Fahrenheit) -> f64 {
        if it_power.value() <= 0.0 {
            return f64::NAN;
        }
        (it_power + self.cooling_power(it_power, outdoor)).value() / it_power.value()
    }

    /// Water evaporated to reject `it_energy` of heat at `outdoor`
    /// temperature: WUE grows with temperature, and drought stress scales
    /// availability (unavailable water shows up as unmet cooling elsewhere).
    pub fn water_use(&self, it_energy: Energy, outdoor: Fahrenheit) -> Liters {
        self.at(outdoor).water_use(it_energy)
    }

    /// True when the plant is beyond its design point — the stress harness
    /// counts these as cooling-risk hours. Degradation lowers the
    /// effective design temperature.
    pub fn is_saturated(&self, outdoor: Fahrenheit) -> bool {
        self.at(outdoor).saturated
    }
}

/// One outdoor-temperature operating point of a [`CoolingModel`],
/// evaluated once and queried many times.
///
/// The driver's hourly tick needs the COP (for cooling energy), the water
/// draw and the saturation flag of the same hour; evaluating them through
/// one point shares the temperature-dependent arithmetic instead of
/// repeating it per query. Queries reproduce the corresponding
/// [`CoolingModel`] methods bit-for-bit: the model methods are themselves
/// implemented over `at()`, so there is exactly one definition of each
/// formula.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoolingPoint {
    /// Achieved COP at this temperature.
    pub cop: f64,
    /// Water-use effectiveness at this temperature, L/kWh of IT energy
    /// (before availability scaling).
    wue_l_per_kwh: f64,
    /// Usable fraction of cooling water (`water_availability` capped at 1).
    water_availability: f64,
    /// Fixed fan/pump power, watts.
    fan_power_w: f64,
    /// True when the plant is beyond its (degradation-adjusted) design
    /// point at this temperature.
    pub saturated: bool,
}

impl CoolingPoint {
    /// Cooling power for a given IT load (= `P_IT / COP + fans`).
    pub fn cooling_power(&self, it_power: Power) -> Power {
        Power(it_power.value() / self.cop + self.fan_power_w)
    }

    /// Water evaporated to reject `it_energy` of heat at this temperature.
    pub fn water_use(&self, it_energy: Energy) -> Liters {
        Liters(it_energy.kwh() * self.wue_l_per_kwh * self.water_availability)
    }
}

/// Fraction of observed hours with a saturated cooling plant (0 for an
/// empty observation window).
///
/// This is the one shared definition behind
/// `TelemetryLog::cooling_saturation_fraction` (post-hoc over retained
/// frames) and `RunAggregates::cooling_saturation_fraction` (accumulated
/// during the run) — the two surfaces must agree bit-for-bit on the same
/// run, which the workspace's integration tests pin.
pub fn saturation_fraction(saturated_hours: usize, hours: usize) -> f64 {
    if hours == 0 {
        return 0.0;
    }
    saturated_hours as f64 / hours as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cop_falls_with_temperature() {
        let m = CoolingModel::default();
        let cold = m.cop(Fahrenheit(20.0));
        let mild = m.cop(Fahrenheit(55.0));
        let hot = m.cop(Fahrenheit(95.0));
        assert!(cold > mild && mild > hot, "{cold} > {mild} > {hot}");
        assert!(hot >= m.cop_min);
        assert!(cold <= m.cop_max);
    }

    #[test]
    fn cooling_power_monotone_in_temperature() {
        let m = CoolingModel::default();
        let it = Power::from_kw(200.0);
        let mut prev = 0.0;
        for t in (0..110).step_by(10) {
            let p = m.cooling_power(it, Fahrenheit(t as f64)).value();
            assert!(p >= prev, "cooling power fell at {t}°F");
            prev = p;
        }
    }

    #[test]
    fn pue_in_realistic_band() {
        let m = CoolingModel::default();
        let it = Power::from_kw(200.0);
        let winter = m.pue(it, Fahrenheit(25.0));
        let summer = m.pue(it, Fahrenheit(90.0));
        assert!(winter > 1.0 && winter < 1.35, "winter PUE {winter:.3}");
        assert!(summer > winter && summer < 1.8, "summer PUE {summer:.3}");
    }

    #[test]
    fn degradation_lowers_cop() {
        let base = CoolingModel::default();
        let degraded = CoolingModel {
            degradation_mult: 0.8,
            ..CoolingModel::default()
        };
        let t = Fahrenheit(70.0);
        assert!(degraded.cop(t) < base.cop(t));
        assert!(
            degraded.cooling_power(Power::from_kw(200.0), t).value()
                > base.cooling_power(Power::from_kw(200.0), t).value()
        );
    }

    #[test]
    fn water_grows_with_heat() {
        let m = CoolingModel::default();
        let e = Energy::from_kwh(1_000.0);
        let cool = m.water_use(e, Fahrenheit(40.0)).value();
        let hot = m.water_use(e, Fahrenheit(90.0)).value();
        assert!(hot > cool);
        // Order of magnitude: ~1–2 L/kWh.
        assert!(cool > 500.0 && hot < 4_000.0, "cool {cool}, hot {hot}");
    }

    #[test]
    fn drought_reduces_water_draw() {
        let m = CoolingModel {
            water_availability: 0.6,
            ..CoolingModel::default()
        };
        let full = CoolingModel::default();
        let e = Energy::from_kwh(100.0);
        assert!(
            m.water_use(e, Fahrenheit(70.0)).value() < full.water_use(e, Fahrenheit(70.0)).value()
        );
    }

    #[test]
    fn saturation_flag() {
        let m = CoolingModel::default();
        assert!(!m.is_saturated(Fahrenheit(40.0)));
        assert!(!m.is_saturated(Fahrenheit(85.0)));
        assert!(m.is_saturated(Fahrenheit(120.0)));
        // Degradation lowers the effective design point.
        let degraded = CoolingModel {
            degradation_mult: 0.8,
            ..CoolingModel::default()
        };
        assert!(degraded.is_saturated(Fahrenheit(85.0)));
    }

    #[test]
    fn point_reproduces_model_queries_bitwise() {
        let m = CoolingModel {
            degradation_mult: 0.85,
            water_availability: 0.7,
            ..CoolingModel::default()
        };
        let it = Power::from_kw(180.0);
        let e = Energy::from_kwh(180.0);
        for t in [-10.0, 20.0, 40.0, 63.5, 88.1, 95.0, 120.0] {
            let temp = Fahrenheit(t);
            let p = m.at(temp);
            assert_eq!(p.cop.to_bits(), m.cop(temp).to_bits());
            assert_eq!(
                p.cooling_power(it).value().to_bits(),
                m.cooling_power(it, temp).value().to_bits()
            );
            assert_eq!(
                p.water_use(e).value().to_bits(),
                m.water_use(e, temp).value().to_bits()
            );
            assert_eq!(p.saturated, m.is_saturated(temp));
        }
    }

    #[test]
    fn saturation_fraction_shared_definition() {
        assert_eq!(saturation_fraction(0, 0), 0.0);
        assert_eq!(saturation_fraction(0, 10), 0.0);
        assert_eq!(saturation_fraction(10, 10), 1.0);
        assert!((saturation_fraction(1, 8) - 0.125).abs() < 1e-15);
    }

    #[test]
    fn zero_it_power_pue_is_nan() {
        let m = CoolingModel::default();
        assert!(m.pue(Power::ZERO, Fahrenheit(50.0)).is_nan());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn cop_always_within_bounds(t in -40.0f64..130.0, degr in 0.5f64..1.0) {
                let m = CoolingModel { degradation_mult: degr, ..CoolingModel::default() };
                let cop = m.cop(Fahrenheit(t));
                prop_assert!(cop >= m.cop_min && cop <= m.cop_max);
            }

            #[test]
            fn water_nonnegative(t in -40.0f64..130.0, kwh in 0.0f64..1e6) {
                let m = CoolingModel::default();
                prop_assert!(m.water_use(Energy::from_kwh(kwh), Fahrenheit(t)).value() >= 0.0);
            }
        }
    }
}
