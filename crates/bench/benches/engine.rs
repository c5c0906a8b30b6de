//! Engine benchmarks: DES throughput, world generation, the year-scale
//! driver, parallel sweep scaling and forecaster fits — the hpc-parallel
//! performance surface of the workspace.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use greener_core::driver::SimDriver;
use greener_core::scenario::Scenario;
use greener_forecast::ForecasterKind;
use greener_simkit::calq::CalendarQueue;
use greener_simkit::des::{EventQueue, EventScheduler};
use greener_simkit::rng::RngHub;
use greener_simkit::time::SimTime;
use std::hint::black_box;

/// Schedule/pop churn through any scheduler core: pseudo-random times via
/// splitmix so the structure actually works for its ordering.
fn churn<Q: EventScheduler<u64>>(n: u64) -> u64 {
    let mut q = Q::with_hints(n as usize, 1_000_000);
    for i in 0..n {
        let t = greener_simkit::rng::splitmix64(i) % 1_000_000;
        q.schedule(SimTime(t), i);
    }
    let mut acc = 0u64;
    while let Some((_, e)) = q.pop() {
        acc = acc.wrapping_add(e);
    }
    acc
}

fn bench_des(c: &mut Criterion) {
    let mut g = c.benchmark_group("des");
    for &n in &[10_000u64, 100_000] {
        g.throughput(Throughput::Elements(n));
        g.bench_with_input(BenchmarkId::new("schedule_pop_heap", n), &n, |b, &n| {
            b.iter(|| black_box(churn::<EventQueue<u64>>(n)))
        });
        g.bench_with_input(BenchmarkId::new("schedule_pop_calendar", n), &n, |b, &n| {
            b.iter(|| black_box(churn::<CalendarQueue<u64>>(n)))
        });
    }
    g.finish();
}

fn bench_world(c: &mut Criterion) {
    let mut g = c.benchmark_group("world");
    g.sample_size(10);
    g.bench_function("weather_2y", |b| {
        let cal = greener_simkit::calendar::Calendar::new(greener_simkit::calendar::CalDate::new(
            2020, 1, 1,
        ));
        let hub = RngHub::new(1);
        b.iter(|| {
            black_box(greener_climate::WeatherPath::generate(
                &greener_climate::WeatherConfig::default(),
                cal,
                731 * 24,
                &hub,
            ))
        })
    });
    // World-generation lane, beside weather alone above. It runs on the
    // rayon pool; `RAYON_NUM_THREADS=1` times the sequential schedule.
    g.bench_function("worldgen_2y_parallel", |b| {
        let s = Scenario::two_year_small(greener_bench::seeds::WORLD);
        b.iter(|| black_box(greener_core::driver::World::build(&s)))
    });
    g.bench_function("driver_quick_30d", |b| {
        let s = Scenario::quick(30, 3);
        b.iter(|| black_box(SimDriver::run(&s)))
    });
    g.bench_function("driver_small_2y", |b| {
        let s = Scenario::two_year_small(greener_bench::seeds::WORLD);
        b.iter(|| black_box(SimDriver::run(&s)))
    });
    // Replay-only lanes over a shared pre-built world: the full probe set
    // (what `SimDriver::run` retains) against the aggregates-only fast
    // path (what a sweep cell retains). The delta is the cost of hourly
    // frame assembly + ledger growth + job-record retention.
    g.bench_function("replay_small_2y_full", |b| {
        let s = Scenario::two_year_small(greener_bench::seeds::WORLD);
        let world = greener_core::driver::World::build(&s);
        b.iter(|| black_box(SimDriver::run_with_world(&s, &world)))
    });
    g.bench_function("replay_small_2y_aggregates", |b| {
        let s = Scenario::two_year_small(greener_bench::seeds::WORLD);
        let world = greener_core::driver::World::build(&s);
        b.iter(|| {
            black_box(SimDriver::run_observed(
                &s,
                &world,
                greener_core::probe::Observe::aggregates(),
            ))
        })
    });
    // The same aggregates-only replay on the reference engine (heap
    // queue, no lone-arrival fast path, array-of-structs slab): the delta
    // to the lane above is what the default engine's fast paths buy
    // together. A single fast path's worth is measured by timing the
    // parent commit against the change.
    g.bench_function("replay_small_2y_reference", |b| {
        let s = Scenario::two_year_small(greener_bench::seeds::WORLD);
        let world = greener_core::driver::World::build(&s);
        b.iter(|| {
            black_box(SimDriver::run_reference(
                &s,
                &world,
                greener_core::probe::Observe::aggregates(),
            ))
        })
    });
    // Saturated queue: thousands of waiting jobs, so every dispatch
    // stresses signal building and queue application end to end.
    g.bench_function("dispatch_heavy_90d", |b| {
        let s = greener_bench::scenarios::dispatch_heavy_90d(greener_bench::seeds::WORLD);
        b.iter(|| black_box(SimDriver::run(&s)))
    });
    // Bursty arrivals: deep queues that flood in spikes and drain against
    // completions — the worst case for backfill's candidate search.
    g.bench_function("dispatch_burst_7d", |b| {
        let s = greener_bench::scenarios::dispatch_burst_7d(greener_bench::seeds::WORLD);
        b.iter(|| black_box(SimDriver::run(&s)))
    });
    g.finish();
}

fn bench_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep");
    g.sample_size(10);
    // Parallel Monte-Carlo replication scaling (Rayon).
    for &n in &[4usize, 16] {
        g.bench_with_input(BenchmarkId::new("replicate_7d", n), &n, |b, &n| {
            b.iter(|| {
                black_box(greener_simkit::sweep::replicate(n, 5, |_, hub| {
                    let s = Scenario::quick(7, hub.root());
                    SimDriver::run(&s).jobs.completed
                }))
            })
        });
    }
    g.finish();
}

fn bench_forecast(c: &mut Criterion) {
    let series: Vec<f64> = (0..24 * 30)
        .map(|i| {
            0.06 + 0.02 * (i as f64 / 24.0 * std::f64::consts::TAU).sin()
                + 0.005 * ((i * 7919) % 17) as f64 / 17.0
        })
        .collect();
    let mut g = c.benchmark_group("forecast");
    for kind in [
        ForecasterKind::SeasonalNaive,
        ForecasterKind::HoltWinters,
        ForecasterKind::Ar,
    ] {
        g.bench_function(format!("{kind:?}_fit_forecast"), |b| {
            b.iter(|| {
                let mut m = kind.build(24);
                m.fit(black_box(&series));
                black_box(m.forecast(24))
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = engine;
    config = Criterion::default();
    targets = bench_des, bench_world, bench_sweep, bench_forecast
}
criterion_main!(engine);
