//! Per-fuel emission factors and grid carbon intensity.
//!
//! Lifecycle emission factors (kg CO₂-eq per MWh) follow IPCC AR5 median
//! values for the clean fuels and ISO-NE-typical stack emissions for the
//! fossil ones. The hourly grid carbon intensity is the generation-weighted
//! average — the quantity a carbon-aware scheduler (§II-A, ref \[16\]) keys on.

use crate::mix::FuelSource;

/// (fuel, kg CO₂-eq per MWh) lifecycle emission factors.
pub const EMISSION_FACTORS_KG_PER_MWH: [(FuelSource, f64); 6] = [
    (FuelSource::Gas, 410.0),
    (FuelSource::Nuclear, 12.0),
    (FuelSource::Hydro, 24.0),
    (FuelSource::Wind, 11.0),
    (FuelSource::Solar, 41.0),
    (FuelSource::Other, 560.0), // refuse/wood/oil peaker blend
];

/// Emission factor for one fuel, kg CO₂ per MWh.
pub fn emission_factor(fuel: FuelSource) -> f64 {
    EMISSION_FACTORS_KG_PER_MWH
        .iter()
        .find(|(f, _)| *f == fuel)
        .map(|(_, e)| *e)
        .expect("all fuels have factors")
}

/// Generation-weighted carbon intensity, kg CO₂ per MWh.
///
/// `fossil_mult` scales fossil factors (carbon-intensity stress shock);
/// returns 0 for an all-zero generation vector.
pub fn grid_intensity_kg_mwh(generation_mw: &[(FuelSource, f64)], fossil_mult: f64) -> f64 {
    let mut total = 0.0;
    let mut weighted = 0.0;
    for &(fuel, mw) in generation_mw {
        let mut ef = emission_factor(fuel);
        if matches!(fuel, FuelSource::Gas | FuelSource::Other) {
            ef *= fossil_mult;
        }
        total += mw;
        weighted += mw * ef;
    }
    if total <= 0.0 {
        0.0
    } else {
        weighted / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_cover_all_fuels() {
        for fuel in FuelSource::ALL {
            assert!(emission_factor(fuel) >= 0.0);
        }
    }

    #[test]
    fn green_fuels_are_cleanest() {
        assert!(emission_factor(FuelSource::Wind) < emission_factor(FuelSource::Gas) / 10.0);
        assert!(emission_factor(FuelSource::Solar) < emission_factor(FuelSource::Gas) / 5.0);
    }

    #[test]
    fn intensity_is_weighted_average() {
        // 50/50 gas and wind.
        let ci = grid_intensity_kg_mwh(&[(FuelSource::Gas, 100.0), (FuelSource::Wind, 100.0)], 1.0);
        assert!((ci - (410.0 + 11.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn all_gas_equals_gas_factor() {
        let ci = grid_intensity_kg_mwh(&[(FuelSource::Gas, 50.0)], 1.0);
        assert!((ci - 410.0).abs() < 1e-9);
    }

    #[test]
    fn fossil_mult_only_scales_fossil() {
        let clean = grid_intensity_kg_mwh(&[(FuelSource::Wind, 100.0)], 2.0);
        assert!((clean - 11.0).abs() < 1e-9);
        let dirty = grid_intensity_kg_mwh(&[(FuelSource::Gas, 100.0)], 2.0);
        assert!((dirty - 820.0).abs() < 1e-9);
    }

    #[test]
    fn zero_generation_is_zero_intensity() {
        assert_eq!(grid_intensity_kg_mwh(&[], 1.0), 0.0);
        assert_eq!(grid_intensity_kg_mwh(&[(FuelSource::Gas, 0.0)], 1.0), 0.0);
    }
}
