//! Integration tests for the observation surface and the engine's
//! equivalence axes, driven from outside the core crate the way
//! downstream consumers use them: `run_observed` + probes on the
//! canonical benchmark scenarios, the shared equivalence harness, and the
//! two cooling-saturation reporting surfaces.

use greener_world::core::driver::{SimDriver, World};
use greener_world::core::equivalence::{self, Fingerprint};
use greener_world::core::probe::Observe;
use greener_world::core::scenario::Scenario;
use greener_world::hpc::CoolingModel;
use greener_world::simkit::stats;

use greener_bench::scenarios::dispatch_burst_7d;

/// The queue-depth probe on the bursty benchmark scenario: its O(1)
/// accumulator must agree with what the fully-instrumented run's hourly
/// telemetry derives post hoc (same sampling cadence — the top of every
/// hour), and the depth distribution must look like the burst scenario
/// it samples (violent spikes: p99 between the mean and the max).
#[test]
fn queue_depth_probe_agrees_with_full_telemetry_on_dispatch_burst() {
    let s = dispatch_burst_7d(greener_bench::seeds::WORLD);
    let full = SimDriver::run(&s);
    let world = World::build(&s);
    let out = SimDriver::run_observed(&s, &world, Observe::aggregates().with_queue_depth());
    let depth = out.queue_depth.expect("queue depth observed");

    // Agreement with the full RunResult telemetry.
    let hourly: Vec<f64> = full
        .telemetry
        .frames()
        .iter()
        .map(|f| f.queue_len as f64)
        .collect();
    assert_eq!(depth.samples, hourly.len(), "one sample per simulated hour");
    let max = full
        .telemetry
        .frames()
        .iter()
        .map(|f| f.queue_len)
        .max()
        .unwrap();
    assert_eq!(depth.max, max);
    let mean = hourly.iter().sum::<f64>() / hourly.len() as f64;
    assert!((depth.mean() - mean).abs() < 1e-12);

    // Shape of the burst: a deep spike the scheduler drains. The p99 of
    // hourly depth sits between the mean and the max (the spikes are
    // rare), and the queue actually gets deep.
    let p99 = stats::quantile(&hourly, 0.99);
    assert!(depth.max > 1_000, "burst scenario must flood the queue");
    assert!(p99 <= depth.max as f64, "p99 {p99} above max {}", depth.max);
    assert!(
        depth.mean() < p99,
        "p99 {p99} should exceed the mean {} on a spiky distribution",
        depth.mean()
    );
    // And the always-on aggregates must match the full run bit for bit.
    assert_eq!(
        out.aggregates.energy_kwh.to_bits(),
        full.telemetry.total_energy_kwh().to_bits()
    );
    assert_eq!(out.jobs.completed, full.jobs.completed);
}

/// The default engine against the reference engine
/// (`SimDriver::run_reference`), exercised through the shared equivalence
/// harness from outside the crate — on the bursty benchmark scenario
/// (deep queues, so the lone-arrival dispatch fast path must correctly
/// stand aside) *and* the default quick matrix (empty queues, so it must
/// correctly engage).
#[test]
fn dispatch_axis_equivalent_on_burst_and_quick_matrix() {
    let mut matrix = equivalence::quick_matrix();
    matrix.push(dispatch_burst_7d(greener_bench::seeds::WORLD));
    equivalence::assert_matches_reference("engine (integration)", &matrix);
}

/// The two cooling-saturation surfaces — `RunAggregates` (accumulated
/// during the replay) and `TelemetryLog` (post-hoc over retained frames)
/// — share one definition and must agree bit-for-bit on a golden run
/// that actually saturates (a July start pushes afternoons past the
/// derated design point).
#[test]
fn cooling_saturation_fraction_surfaces_agree_on_golden_run() {
    let mut s = Scenario::quick(14, 11)
        .with_cooling(CoolingModel {
            design_temp_f: 78.0,
            ..CoolingModel::default()
        })
        .named("july-heat 14d seed 11");
    s.start = greener_world::simkit::calendar::CalDate::new(2020, 7, 1);
    let full = SimDriver::run(&s);
    let world = World::build(&s);
    let out = SimDriver::run_observed(&s, &world, Observe::aggregates());
    let telemetry_fraction = full.telemetry.cooling_saturation_fraction();
    let aggregate_fraction = out.aggregates.cooling_saturation_fraction();
    assert!(
        aggregate_fraction > 0.0,
        "July run must hit saturated hours (got {aggregate_fraction})"
    );
    assert!(aggregate_fraction < 1.0);
    assert_eq!(telemetry_fraction.to_bits(), aggregate_fraction.to_bits());
    // Both reduce through the one shared implementation.
    assert_eq!(
        greener_world::hpc::cooling::saturation_fraction(
            out.aggregates.cooling_saturated_hours,
            out.aggregates.hours
        )
        .to_bits(),
        aggregate_fraction.to_bits()
    );
}

/// A custom fingerprint runner through the harness's generalized form:
/// the full `RunResult` surface against `run_observed` with records, on
/// the bursty scenario — the integration-level restatement of "one
/// report surface, bit-identical numbers".
#[test]
fn report_surfaces_equivalent_on_dispatch_burst() {
    let matrix = [dispatch_burst_7d(greener_bench::seeds::WORLD)];
    equivalence::assert_runners_equivalent(
        "report surface (integration)",
        &matrix,
        |s| {
            let r = SimDriver::run(s);
            Fingerprint {
                energy_bits: r.telemetry.total_energy_kwh().to_bits(),
                carbon_bits: r.telemetry.total_carbon_kg().to_bits(),
                completed: r.jobs.completed,
                records: Some(r.job_records),
            }
        },
        equivalence::fingerprint,
    );
}
