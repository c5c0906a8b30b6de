//! Episodic weather extremes: heat waves and cold snaps.
//!
//! The paper warns that "changes in climate resulting in rising temperatures
//! and more extreme weather patterns are likely to stress cooling and
//! already strained resources". Events here add temperature anomalies on
//! top of the seasonal/diurnal baseline; the stress harness in
//! `greener-core` scales their frequency and amplitude.

use greener_simkit::calendar::{Calendar, Month};
use greener_simkit::time::SimTime;
use rand::Rng;

use crate::weather::{poisson_knuth, WeatherConfig};

/// The kind of episodic extreme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpisodeKind {
    /// Sustained positive temperature anomaly (summer).
    HeatWave,
    /// Sustained negative temperature anomaly (winter).
    ColdSnap,
}

/// One episodic extreme event with a triangular anomaly profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtremeEvent {
    /// Event kind.
    pub kind: EpisodeKind,
    /// First hour (simulation hour index) affected.
    pub start_hour: u64,
    /// Duration in hours.
    pub duration_hours: u64,
    /// Peak anomaly, °F (positive for heat waves, negative for cold snaps).
    pub peak_anomaly_f: f64,
}

impl ExtremeEvent {
    /// Anomaly contributed by this event at `hour` (0 outside the event).
    ///
    /// The profile is triangular: ramps linearly to the peak at the event
    /// midpoint and back down.
    pub fn anomaly_f(&self, hour: u64) -> f64 {
        if hour < self.start_hour || hour >= self.start_hour + self.duration_hours {
            return 0.0;
        }
        let pos = (hour - self.start_hour) as f64 / self.duration_hours as f64;
        let tri = 1.0 - (2.0 * pos - 1.0).abs();
        self.peak_anomaly_f * tri
    }

    /// Sample the episode set for a horizon: heat waves land in Jun–Aug,
    /// cold snaps in Dec–Feb, with Poisson counts per year.
    pub fn sample_episodes<R: Rng>(
        config: &WeatherConfig,
        calendar: Calendar,
        hours: usize,
        rng: &mut R,
    ) -> Vec<ExtremeEvent> {
        let mut events = Vec::new();
        let years = (hours as f64 / (365.25 * 24.0)).ceil() as usize;
        for year_idx in 0..years {
            // Heat waves.
            let n_hw = poisson_knuth(rng, config.heatwaves_per_year);
            for _ in 0..n_hw {
                if let Some(start) = sample_start_in_months(
                    calendar,
                    hours,
                    year_idx,
                    &[Month::Jun, Month::Jul, Month::Aug],
                    rng,
                ) {
                    events.push(ExtremeEvent {
                        kind: EpisodeKind::HeatWave,
                        start_hour: start,
                        duration_hours: config.heatwave_duration_days as u64 * 24,
                        peak_anomaly_f: config.heatwave_amplitude_f * rng.gen_range(0.7..1.3),
                    });
                }
            }
            // Cold snaps.
            let n_cs = poisson_knuth(rng, config.coldsnaps_per_year);
            for _ in 0..n_cs {
                if let Some(start) = sample_start_in_months(
                    calendar,
                    hours,
                    year_idx,
                    &[Month::Dec, Month::Jan, Month::Feb],
                    rng,
                ) {
                    events.push(ExtremeEvent {
                        kind: EpisodeKind::ColdSnap,
                        start_hour: start,
                        duration_hours: config.coldsnap_duration_days as u64 * 24,
                        peak_anomaly_f: -config.coldsnap_amplitude_f * rng.gen_range(0.7..1.3),
                    });
                }
            }
        }
        events.sort_by_key(|e| e.start_hour);
        events
    }
}

/// Sample a start hour uniformly within the given months of simulation-year
/// `year_idx`, returning `None` if none of those hours fit in the horizon.
fn sample_start_in_months<R: Rng>(
    calendar: Calendar,
    hours: usize,
    year_idx: usize,
    months: &[Month],
    rng: &mut R,
) -> Option<u64> {
    let year_start = (year_idx as f64 * 365.25 * 24.0) as u64;
    let year_end = ((year_idx + 1) as f64 * 365.25 * 24.0) as u64;
    let candidates: Vec<u64> = (year_start..year_end.min(hours as u64))
        .step_by(24)
        .filter(|&h| {
            let m = calendar.date_at(SimTime::from_hours(h)).month;
            months.contains(&m)
        })
        .collect();
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[rng.gen_range(0..candidates.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greener_simkit::calendar::CalDate;
    use greener_simkit::rng::RngHub;

    fn cal() -> Calendar {
        Calendar::new(CalDate::new(2020, 1, 1))
    }

    #[test]
    fn anomaly_profile_is_triangular() {
        let e = ExtremeEvent {
            kind: EpisodeKind::HeatWave,
            start_hour: 100,
            duration_hours: 96,
            peak_anomaly_f: 10.0,
        };
        assert_eq!(e.anomaly_f(99), 0.0);
        assert_eq!(e.anomaly_f(196), 0.0);
        let mid = e.anomaly_f(100 + 48);
        assert!(mid > 9.5, "midpoint anomaly {mid}");
        // Symmetric-ish ramp.
        assert!(e.anomaly_f(100 + 24) > e.anomaly_f(100 + 4));
        assert!(e.anomaly_f(100 + 24) < mid);
    }

    #[test]
    fn cold_snap_anomaly_is_negative() {
        let e = ExtremeEvent {
            kind: EpisodeKind::ColdSnap,
            start_hour: 0,
            duration_hours: 48,
            peak_anomaly_f: -12.0,
        };
        assert!(e.anomaly_f(24) < -11.0);
    }

    #[test]
    fn heat_waves_land_in_summer() {
        let config = WeatherConfig {
            heatwaves_per_year: 5.0,
            coldsnaps_per_year: 5.0,
            ..WeatherConfig::default()
        };
        let mut rng = RngHub::new(31).stream("events");
        let events = ExtremeEvent::sample_episodes(&config, cal(), 366 * 24, &mut rng);
        assert!(!events.is_empty());
        for e in &events {
            let m = cal().date_at(SimTime::from_hours(e.start_hour)).month;
            match e.kind {
                EpisodeKind::HeatWave => {
                    assert!(
                        matches!(m, Month::Jun | Month::Jul | Month::Aug),
                        "heat wave started in {m}"
                    );
                    assert!(e.peak_anomaly_f > 0.0);
                }
                EpisodeKind::ColdSnap => {
                    assert!(
                        matches!(m, Month::Dec | Month::Jan | Month::Feb),
                        "cold snap started in {m}"
                    );
                    assert!(e.peak_anomaly_f < 0.0);
                }
            }
        }
    }

    #[test]
    fn episodes_sorted_by_start() {
        let config = WeatherConfig {
            heatwaves_per_year: 4.0,
            ..WeatherConfig::default()
        };
        let mut rng = RngHub::new(5).stream("events");
        let events = ExtremeEvent::sample_episodes(&config, cal(), 2 * 366 * 24, &mut rng);
        assert!(events
            .windows(2)
            .all(|w| w[0].start_hour <= w[1].start_hour));
    }

    #[test]
    fn zero_rate_produces_no_events() {
        let config = WeatherConfig {
            heatwaves_per_year: 0.0,
            coldsnaps_per_year: 0.0,
            ..WeatherConfig::default()
        };
        let mut rng = RngHub::new(1).stream("events");
        let events = ExtremeEvent::sample_episodes(&config, cal(), 366 * 24, &mut rng);
        assert!(events.is_empty());
    }
}
