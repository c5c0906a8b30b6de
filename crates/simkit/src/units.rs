//! Strongly-typed physical quantities.
//!
//! The paper's framework (Eq. 1) minimizes an energy objective `E(·)` that
//! "can represent any number of quantities correlated with energy
//! expenditure: kilowatt-hours, PUE, pounds of CO₂ emitted, amount of water
//! used in cooling" and fiscal/opportunity cost. Each of those quantities
//! gets its own newtype here so accounting code cannot mix them up.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Implements the common arithmetic surface for a scalar newtype.
macro_rules! scalar_newtype {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// Zero value.
            pub const ZERO: $name = $name(0.0);

            /// Raw scalar value.
            #[inline]
            pub fn value(self) -> f64 {
                self.0
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> $name {
                $name(self.0.abs())
            }

            /// Elementwise maximum.
            #[inline]
            pub fn max(self, other: $name) -> $name {
                $name(self.0.max(other.0))
            }

            /// Elementwise minimum.
            #[inline]
            pub fn min(self, other: $name) -> $name {
                $name(self.0.min(other.0))
            }

            /// True if the value is finite (not NaN/∞).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|v| v.0).sum())
            }
        }
    };
}

scalar_newtype! {
    /// Instantaneous electrical power in watts.
    Power
}

scalar_newtype! {
    /// Energy in joules. Convert with [`Energy::kwh`] / [`Energy::from_kwh`].
    Energy
}

scalar_newtype! {
    /// Money in U.S. dollars.
    Dollars
}

scalar_newtype! {
    /// Mass of CO₂-equivalent emissions in kilograms.
    KgCo2
}

scalar_newtype! {
    /// Water volume in litres (cooling water footprint).
    Liters
}

impl Power {
    /// Construct from kilowatts.
    #[inline]
    pub fn from_kw(kw: f64) -> Power {
        Power(kw * 1_000.0)
    }

    /// Power expressed in kilowatts.
    #[inline]
    pub fn kw(self) -> f64 {
        self.0 / 1_000.0
    }

    /// Power expressed in megawatts.
    #[inline]
    pub fn mw(self) -> f64 {
        self.0 / 1_000_000.0
    }
}

impl Energy {
    /// Joules per kilowatt-hour.
    pub const J_PER_KWH: f64 = 3.6e6;

    /// Construct from kilowatt-hours.
    #[inline]
    pub fn from_kwh(kwh: f64) -> Energy {
        Energy(kwh * Self::J_PER_KWH)
    }

    /// Energy expressed in kilowatt-hours.
    #[inline]
    pub fn kwh(self) -> f64 {
        self.0 / Self::J_PER_KWH
    }

    /// Energy expressed in megawatt-hours.
    #[inline]
    pub fn mwh(self) -> f64 {
        self.kwh() / 1_000.0
    }

    /// Carbon emitted at a given grid carbon intensity (kg CO₂ per MWh).
    #[inline]
    pub fn carbon_at(self, kg_per_mwh: f64) -> KgCo2 {
        KgCo2(self.mwh() * kg_per_mwh)
    }

    /// Cost at a given price in $ per MWh (a locational marginal price).
    #[inline]
    pub fn cost_at(self, usd_per_mwh: f64) -> Dollars {
        Dollars(self.mwh() * usd_per_mwh)
    }
}

/// Temperature in degrees Fahrenheit (the paper's Fig. 4 uses °F).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Fahrenheit(pub f64);

/// Temperature in degrees Celsius.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Celsius(pub f64);

impl Fahrenheit {
    /// Raw value in °F.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Convert to Celsius.
    #[inline]
    pub fn to_celsius(self) -> Celsius {
        Celsius((self.0 - 32.0) * 5.0 / 9.0)
    }
}

impl Celsius {
    /// Raw value in °C.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Convert to Fahrenheit.
    #[inline]
    pub fn to_fahrenheit(self) -> Fahrenheit {
        Fahrenheit(self.0 * 9.0 / 5.0 + 32.0)
    }
}

impl From<Celsius> for Fahrenheit {
    fn from(c: Celsius) -> Fahrenheit {
        c.to_fahrenheit()
    }
}

impl From<Fahrenheit> for Celsius {
    fn from(f: Fahrenheit) -> Celsius {
        f.to_celsius()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_kw_roundtrip() {
        let p = Power::from_kw(250.0);
        assert!((p.kw() - 250.0).abs() < 1e-12);
    }

    #[test]
    fn energy_kwh_mwh() {
        let e = Energy::from_kwh(1500.0);
        assert!((e.kwh() - 1500.0).abs() < 1e-9);
        assert!((e.mwh() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn carbon_and_cost() {
        let e = Energy::from_kwh(2_000.0);
        let c = e.carbon_at(300.0);
        assert!((c.value() - 600.0).abs() < 1e-9);
        let usd = e.cost_at(25.0);
        assert!((usd.value() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_surface() {
        let a = Dollars(10.0);
        let b = Dollars(4.0);
        assert_eq!((a + b).value(), 14.0);
        assert_eq!((a - b).value(), 6.0);
        assert_eq!((a * 2.0).value(), 20.0);
        assert_eq!((a / 2.0).value(), 5.0);
        assert!((a / b - 2.5).abs() < 1e-12);
        assert_eq!((-a).value(), -10.0);
        let total: Dollars = [a, b, Dollars(1.0)].into_iter().sum();
        assert_eq!(total.value(), 15.0);
    }

    #[test]
    fn temperature_conversions() {
        let f = Fahrenheit(32.0);
        assert!(f.to_celsius().value().abs() < 1e-12);
        let c = Celsius(100.0);
        assert!((c.to_fahrenheit().value() - 212.0).abs() < 1e-12);
        let round: Celsius = Fahrenheit(72.5).to_celsius();
        assert!((round.to_fahrenheit().value() - 72.5).abs() < 1e-12);
    }

    #[test]
    fn min_max_abs() {
        assert_eq!(Power(3.0).max(Power(5.0)).value(), 5.0);
        assert_eq!(Power(3.0).min(Power(5.0)).value(), 3.0);
        assert_eq!(Power(-3.0).abs().value(), 3.0);
        assert!(Power(1.0).is_finite());
        assert!(!Power(f64::NAN).is_finite());
    }
}
