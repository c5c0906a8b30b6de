//! Emit a machine-readable engine-performance snapshot (`BENCH_engine.json`).
//!
//! ```sh
//! cargo run --release -p greener-bench --bin perfjson             # writes BENCH_engine.json
//! cargo run --release -p greener-bench --bin perfjson -- -        # prints to stdout only
//! cargo run --release -p greener-bench --bin perfjson -- --smoke - # 1 timed run/scenario (CI)
//! ```
//!
//! Times the canonical engine scenarios — `driver_quick_30d`,
//! `driver_small_2y`, the saturated-queue `dispatch_heavy_90d`, the bursty
//! `dispatch_burst_7d` and the world-generation-only `worldgen_2y` lane —
//! and records runs/sec, per-run wall time, the **world-gen vs replay
//! split** (world generation is timed separately via `World::build`, so
//! the trajectory shows which half of a run future PRs are moving), the
//! **aggregates-only replay lane** (`Observe::aggregates()` over a shared
//! pre-built world, so the snapshot tracks the sweep fast path against the
//! full-probe replay number) and waiting-queue depth stats (max and mean
//! at hourly sampling, collected by the driver's `QueueDepthProbe`).
//! Every replay lane also carries a `"counters"` object: the driver's
//! exact loop counters from the warm-up run (`SimDriver::run_profiled`),
//! including the fast-path proofs `fast_dispatches` and
//! `fast_apply_events` that CI greps (see the `greener_bench` crate docs
//! for the fields). JSON is hand-formatted.
//!
//! A `"campaign"` section reports the `campaign_small` lane: the
//! policy-only campaign manifest (see `greener_bench::scenarios`) run
//! through `greener_core::campaign`'s shard-and-merge executor, with its
//! distinct world and environment counts, cells/sec under world-reuse
//! caching vs per-cell world rebuilds and a merged-report byte-identity
//! check across shard counts 1 and 2 (the CI campaign smoke greps for it).
//!
//! A `"fleet"` section reports the `fleet_small` lane: the three-site
//! fleet (one shared trace, regionally-varied grids) run through
//! `greener_core::fleet`'s route-then-replay driver under the static and
//! greedy-carbon routing policies. Per policy it records runs/sec, the
//! fleet carbon total (value and `f64::to_bits` hex — the byte CI
//! compares across process invocations at different `RAYON_NUM_THREADS`)
//! and an in-process report byte-identity check across thread counts 1
//! and 4; a top-level `carbon_totals_differ` flag proves routing actually
//! moves carbon on the spread grids (the CI fleet smoke greps for both).
//!
//! Flags are parsed strictly by [`greener_bench::cli`]: an unknown flag
//! (e.g. a `--smok` typo) aborts with the usage text instead of
//! silently running the wrong benchmark shape.
//!
//! `--smoke` runs each scenario once after warm-up: CI uses it to keep the
//! bench binary from rotting without paying for stable timings.

use greener_bench::cli;
use greener_bench::scenarios::{
    campaign_small, dispatch_burst_7d, dispatch_heavy_90d, fleet_small,
};
use greener_core::campaign::process::{
    artifact_file_name, marker_file_name, FaultMode, FaultPlan, ProcessBackend, SupervisorConfig,
    WorkerCommand,
};
use greener_core::campaign::{
    partition, run_campaign, CampaignError, CampaignManifest, InProcessBackend, Plan, ShardBackend,
};
use greener_core::driver::{SimDriver, World};
use greener_core::fleet::{FleetDriver, FleetManifest, FleetWorld, RoutingPolicyKind};
use greener_core::probe::Observe;
use greener_core::profile::{ProfileCounter, ReplayProfile};
use greener_core::scenario::Scenario;
use greener_simkit::proc::write_atomic;
use std::path::Path;
use std::time::{Duration, Instant};

struct Measurement {
    name: &'static str,
    runs: usize,
    secs_per_run: f64,
    /// World-generation share of a run (timed via `World::build`).
    worldgen_secs_per_run: f64,
    /// Replay share: total minus world-gen (0 for world-gen-only lanes).
    /// Derived by subtraction across independent loops, so it carries
    /// that noise — compare the probe layer via the two directly-timed
    /// replay lanes below instead.
    replay_secs_per_run: f64,
    /// Full-probe replay (`run_with_world`) over a shared pre-built
    /// world, directly timed (0 for world-gen-only lanes).
    replay_full_secs_per_run: f64,
    /// Aggregates-only replay over the same shared world (the sweep fast
    /// path), directly timed — the delta to the full lane is the cost of
    /// frame assembly + ledger growth + job-record retention (0 for
    /// world-gen-only lanes).
    replay_agg_secs_per_run: f64,
    completed_jobs: usize,
    max_queue_depth: u32,
    mean_queue_depth: f64,
    /// The warm-up replay's loop counters (replay lanes only).
    counters: Option<ReplayProfile>,
}

/// Hand-format a [`ReplayProfile`] as the `"counters"` JSON object.
fn counters_json(p: &ReplayProfile) -> String {
    let parts: Vec<String> = ProfileCounter::ALL
        .iter()
        .map(|&c| format!("\"{}\": {}", c.name(), p.counter(c)))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

/// Time `f` for at least `min_runs` and until `budget_secs` elapses.
fn time_loop<F: FnMut()>(min_runs: usize, budget_secs: f64, mut f: F) -> (usize, f64) {
    let started = Instant::now();
    let mut runs = 0usize;
    while runs < min_runs || (started.elapsed().as_secs_f64() < budget_secs && runs < 50) {
        f();
        runs += 1;
    }
    (runs, started.elapsed().as_secs_f64() / runs as f64)
}

fn time_scenario(
    name: &'static str,
    s: &Scenario,
    min_runs: usize,
    budget_secs: f64,
) -> Measurement {
    // Warm-up run; the queue-depth columns come straight off the
    // driver's `QueueDepthProbe` (aggregates-only otherwise — the
    // warm-up retains nothing per frame or per job), and the loop
    // counters, which no probe can change, come back with it.
    let world = World::build(s);
    let (warm, counters) =
        SimDriver::run_profiled(s, &world, Observe::aggregates().with_queue_depth());
    let completed = warm.jobs.completed;
    let depth = warm.queue_depth.expect("queue depth observed");
    let (runs, secs_per_run) = time_loop(min_runs, budget_secs, || {
        std::hint::black_box(SimDriver::run(s));
    });
    // World-gen share, timed on its own (half the budget: it is a strict
    // subset of the work, so it stabilizes faster).
    let (_, worldgen_secs) = time_loop(min_runs, budget_secs / 2.0, || {
        std::hint::black_box(World::build(s));
    });
    let worldgen_secs = worldgen_secs.min(secs_per_run);
    let replay_secs = secs_per_run - worldgen_secs;
    // The two replay lanes share one pre-built world and one protocol
    // (directly timed), so their delta isolates the probe layer: full
    // probe set vs the aggregates-only fast path every sweep cell pays.
    let (_, replay_full_secs) = time_loop(min_runs, budget_secs / 2.0, || {
        std::hint::black_box(SimDriver::run_with_world(s, &world));
    });
    let (_, replay_agg_secs) = time_loop(min_runs, budget_secs / 2.0, || {
        std::hint::black_box(SimDriver::run_observed(s, &world, Observe::aggregates()));
    });
    eprintln!(
        "[perfjson] {name}: {secs_per_run:.3} s/run ({runs} runs, worldgen {worldgen_secs:.3} + \
         replay {replay_secs:.3}; direct replay full {replay_full_secs:.3} vs aggregates-only \
         {replay_agg_secs:.3}, {completed} jobs, queue depth max {} / mean {:.1})",
        depth.max,
        depth.mean()
    );
    Measurement {
        name,
        runs,
        secs_per_run,
        worldgen_secs_per_run: worldgen_secs,
        replay_secs_per_run: replay_secs,
        replay_full_secs_per_run: replay_full_secs,
        replay_agg_secs_per_run: replay_agg_secs,
        completed_jobs: completed,
        max_queue_depth: depth.max,
        mean_queue_depth: depth.mean(),
        counters: Some(counters),
    }
}

/// World-generation-only lane: times `World::build` for the flagship
/// two-year small world (the half of `driver_small_2y` this PR
/// parallelized). `completed_jobs` records the synthesized trace length.
fn time_worldgen(
    name: &'static str,
    s: &Scenario,
    min_runs: usize,
    budget_secs: f64,
) -> Measurement {
    let warm = World::build(s);
    let trace_len = warm.trace.len();
    let (runs, secs_per_run) = time_loop(min_runs, budget_secs, || {
        std::hint::black_box(World::build(s));
    });
    eprintln!("[perfjson] {name}: {secs_per_run:.3} s/run ({runs} runs, {trace_len} trace jobs)");
    Measurement {
        name,
        runs,
        secs_per_run,
        worldgen_secs_per_run: secs_per_run,
        replay_secs_per_run: 0.0,
        replay_full_secs_per_run: 0.0,
        replay_agg_secs_per_run: 0.0,
        completed_jobs: trace_len,
        max_queue_depth: 0,
        mean_queue_depth: 0.0,
        counters: None,
    }
}

/// The campaign lane's snapshot row: runs/sec through the shard-and-merge
/// executor with and without world-reuse caching, plus the merge
/// byte-identity check the CI campaign smoke greps for.
struct CampaignMeasurement {
    cells: usize,
    distinct_worlds: usize,
    distinct_environments: usize,
    reuse_secs_per_cell: f64,
    rebuild_secs_per_cell: f64,
    /// Merged report text byte-identical at shard counts 1 and 2.
    merged_identical_shards_1_2: bool,
}

/// Time the `campaign_small` manifest through the campaign executor.
///
/// Both timed passes run **one shard, sequentially**, so the ratio
/// isolates world reuse: the rebuild pass builds all `cells` worlds, the
/// reuse pass builds `distinct_worlds` (= 1 here — every axis is
/// replay-side) and replays the rest over the cache.
///
/// Caveat, as for every lane in this binary: the container's timer noise
/// is ±30% on short runs, so the recorded speedup is indicative, not a
/// gate. The structural expectation is `(worldgen + replay) / replay` of
/// the underlying scenario. Since world-gen resolves the calendar once per
/// day, world-gen is a smaller share of a cell, and the committed
/// snapshots read 1.5–1.8×.
fn time_campaign(min_runs: usize, budget_secs: f64) -> CampaignMeasurement {
    let plan = campaign_small(greener_bench::seeds::WORLD)
        .expand()
        .expect("campaign_small expands");
    let reuse = InProcessBackend { world_reuse: true };
    let rebuild = InProcessBackend { world_reuse: false };
    // Merge determinism across shard counts, on top of the equivalence
    // axis pinning it in-tree: the canonical report text must be
    // byte-identical however the plan is sharded.
    let one = run_campaign(&plan, &reuse, 1).expect("merge").to_text();
    let two = run_campaign(&plan, &reuse, 2).expect("merge").to_text();
    let merged_identical = one == two;
    let (reuse_runs, reuse_secs) = time_loop(min_runs, budget_secs, || {
        std::hint::black_box(run_campaign(&plan, &reuse, 1).expect("merge"));
    });
    let (_, rebuild_secs) = time_loop(min_runs, budget_secs, || {
        std::hint::black_box(run_campaign(&plan, &rebuild, 1).expect("merge"));
    });
    eprintln!(
        "[perfjson] campaign_small: {} cells over {} world(s) and {} environment(s), {:.3} \
         s/campaign with reuse ({reuse_runs} passes) vs {:.3} s/campaign rebuilding ({:.2}x), \
         merged identical at shards 1 vs 2: {merged_identical}",
        plan.len(),
        plan.distinct_worlds(),
        plan.distinct_environments(),
        reuse_secs,
        rebuild_secs,
        rebuild_secs / reuse_secs,
    );
    CampaignMeasurement {
        cells: plan.len(),
        distinct_worlds: plan.distinct_worlds(),
        distinct_environments: plan.distinct_environments(),
        reuse_secs_per_cell: reuse_secs / plan.len() as f64,
        rebuild_secs_per_cell: rebuild_secs / plan.len() as f64,
        merged_identical_shards_1_2: merged_identical,
    }
}

/// One routing policy's row in the fleet lane.
struct FleetPolicyMeasurement {
    routing: &'static str,
    secs_per_run: f64,
    carbon_kg: f64,
    /// `f64::to_bits` hex of the fleet carbon total — the deterministic
    /// byte CI compares across process invocations at different
    /// `RAYON_NUM_THREADS`.
    carbon_bits: String,
    completed_jobs: usize,
    /// Full fleet report text byte-identical with `RAYON_NUM_THREADS`
    /// set to 1 and 4 in-process (routing + replay determinism).
    identical_threads_1_4: bool,
}

/// The fleet lane's snapshot row.
struct FleetMeasurement {
    sites: usize,
    routed_jobs: usize,
    /// The two policies' fleet carbon totals have different bit patterns
    /// (routing must matter on the spread grids).
    carbon_totals_differ: bool,
    policies: Vec<FleetPolicyMeasurement>,
}

/// Time the `fleet_small` fleet under the static and greedy-carbon
/// routing policies. The two policies share the spread fleet (and so the
/// shared trace); per policy the report is produced once under
/// `RAYON_NUM_THREADS` 1 and 4 and byte-compared, then the timed loop
/// runs over a shared pre-built fleet world.
fn time_fleet(min_runs: usize, budget_secs: f64) -> FleetMeasurement {
    let fleet = fleet_small(greener_bench::seeds::WORLD);
    let kinds = [RoutingPolicyKind::Static, RoutingPolicyKind::GreedyCarbon];
    let prior = std::env::var("RAYON_NUM_THREADS").ok();
    let mut policies = Vec::new();
    let mut routed_jobs = 0;
    for kind in kinds {
        let f = fleet.clone().with_routing(kind);
        let mut texts = Vec::new();
        for threads in ["1", "4"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let world = FleetWorld::build(&f);
            texts.push(FleetDriver::run_observed(&f, &world, Observe::aggregates()).to_text());
        }
        let identical = texts[0] == texts[1];
        let world = FleetWorld::build(&f);
        let warm = FleetDriver::run_observed(&f, &world, Observe::aggregates());
        routed_jobs = warm.routes.len();
        let (runs, secs_per_run) = time_loop(min_runs, budget_secs, || {
            std::hint::black_box(FleetDriver::run_observed(&f, &world, Observe::aggregates()));
        });
        eprintln!(
            "[perfjson] fleet_small/{}: {secs_per_run:.3} s/run ({runs} runs, {} routed, \
             {} completed, carbon {:.1} kg, identical at threads 1 vs 4: {identical})",
            kind.label(),
            warm.routes.len(),
            warm.jobs.completed,
            warm.totals.carbon_kg,
        );
        policies.push(FleetPolicyMeasurement {
            routing: kind.label(),
            secs_per_run,
            carbon_kg: warm.totals.carbon_kg,
            carbon_bits: format!("{:016x}", warm.totals.carbon_kg.to_bits()),
            completed_jobs: warm.jobs.completed,
            identical_threads_1_4: identical,
        });
    }
    match prior {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    FleetMeasurement {
        sites: fleet.sites.len(),
        routed_jobs,
        carbon_totals_differ: policies[0].carbon_bits != policies[1].carbon_bits,
        policies,
    }
}

/// The worker body shared by `campaign-worker` and
/// `fleet-campaign-worker` — the process spawned per shard by
/// [`ProcessBackend`]. Re-expands the manifest through `expand` (the
/// only plan-kind-specific step), runs its shard in-process, and
/// publishes artifact then marker (both atomically). Honors
/// `GREENER_FAULT` + `GREENER_WORKER_ATTEMPT` for deterministic fault
/// injection: `crash`/`hang` fire *before* the manifest is read
/// (simulating a worker that dies before any useful work),
/// `corrupt`/`truncate` damage the artifact text just before publication
/// — with the marker still written, so only validation can catch them.
fn run_worker_impl<P: Plan>(
    mode: &str,
    args: &cli::WorkerArgs,
    expand: impl FnOnce(&str) -> Result<P, String>,
) {
    let die = |msg: String| -> ! {
        eprintln!("{mode}: {msg}");
        std::process::exit(2);
    };
    // Unset means a direct invocation outside a supervisor: attempt 0,
    // so a hand-run worker behaves like a first attempt. Anything set
    // but unparsable dies instead of defaulting — a mangled ordinal
    // would silently re-fire first-attempt faults on every retry and
    // the supervised campaign would burn its attempt budget on a
    // spawn-environment bug.
    let attempt: u32 = match std::env::var("GREENER_WORKER_ATTEMPT") {
        Err(std::env::VarError::NotPresent) => 0,
        Err(e) => die(format!("bad GREENER_WORKER_ATTEMPT: {e}")),
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| die(format!("bad GREENER_WORKER_ATTEMPT `{v}`"))),
    };
    let faults = FaultPlan::from_env().unwrap_or_else(|e| die(e));
    let fault = faults.fault_for(args.shard, attempt);
    match fault {
        Some(FaultMode::Crash) => {
            eprintln!(
                "{mode}: injected crash (shard {}, attempt {attempt})",
                args.shard
            );
            std::process::exit(3);
        }
        Some(FaultMode::Hang) => loop {
            std::thread::sleep(Duration::from_millis(100));
        },
        _ => {}
    }
    let manifest_text = std::fs::read_to_string(&args.manifest)
        .unwrap_or_else(|e| die(format!("read manifest `{}`: {e}", args.manifest)));
    let plan = expand(&manifest_text).unwrap_or_else(|e| die(e));
    if args.shard >= args.of {
        die(format!("shard {} out of range 0..{}", args.shard, args.of));
    }
    let spec = partition(plan.len(), args.of)[args.shard];
    let artifact = InProcessBackend::default().run_shard(&plan, &spec);
    let mut text = artifact.text;
    if let Some(mode_) = fault {
        mode_.mangle(&mut text);
        eprintln!(
            "{mode}: injected {mode_:?} (shard {}, attempt {attempt})",
            args.shard
        );
    }
    let dir = Path::new(&args.dir);
    write_atomic(
        &dir.join(artifact_file_name(args.shard, args.of)),
        text.as_bytes(),
    )
    .unwrap_or_else(|e| die(format!("publish artifact: {e}")));
    write_atomic(&dir.join(marker_file_name(args.shard, args.of)), b"ok\n")
        .unwrap_or_else(|e| die(format!("publish marker: {e}")));
}

/// `perfjson campaign-worker`: one **campaign** shard.
fn run_worker(args: &cli::WorkerArgs) {
    run_worker_impl("campaign-worker", args, |text| {
        CampaignManifest::parse(text)
            .map_err(|e| e.to_string())?
            .expand()
            .map_err(|e| e.to_string())
    });
}

/// `perfjson fleet-campaign-worker`: one **fleet** shard. Identical
/// contract; the manifest is a [`FleetManifest`].
fn run_fleet_worker(args: &cli::WorkerArgs) {
    run_worker_impl("fleet-campaign-worker", args, |text| {
        FleetManifest::parse(text)
            .map_err(|e| e.to_string())?
            .expand()
            .map_err(|e| e.to_string())
    });
}

/// The supervised driver body shared by `campaign` and `fleet-campaign`.
/// Spawns this same binary in `worker_mode` per shard, prints the
/// byte-stable merged report followed by the diagnostic run report, and
/// with `--check` compares the merged text against a clean in-process
/// run (exit 1 on divergence). A `GREENER_FAULT` spec in the driver's
/// environment is forwarded to workers through the supervisor config.
fn run_campaign_impl<P: Plan>(
    mode: &str,
    worker_mode: &str,
    args: &cli::CampaignArgs,
    build: impl FnOnce(
        &str,
        WorkerCommand,
        &str,
        SupervisorConfig,
    ) -> Result<ProcessBackend<P>, CampaignError>,
) {
    let die = |msg: String| -> ! {
        eprintln!("{mode}: {msg}");
        std::process::exit(2);
    };
    let manifest_text = std::fs::read_to_string(&args.manifest)
        .unwrap_or_else(|e| die(format!("read manifest `{}`: {e}", args.manifest)));
    let program = std::env::current_exe().unwrap_or_else(|e| die(format!("current_exe: {e}")));
    let worker = WorkerCommand {
        program,
        args: vec![worker_mode.into()],
    };
    let config = SupervisorConfig {
        timeout: Duration::from_millis(args.timeout_ms),
        max_attempts: args.max_attempts.max(1),
        resume: args.resume,
        fault: std::env::var("GREENER_FAULT")
            .ok()
            .filter(|s| !s.is_empty()),
        ..SupervisorConfig::default()
    };
    let backend =
        build(&manifest_text, worker, &args.dir, config).unwrap_or_else(|e| die(e.to_string()));
    let (report, run) = backend
        .run_supervised(args.shards)
        .unwrap_or_else(|e| die(e.to_string()));
    print!("{}", report.to_text());
    print!("{}", run.to_text());
    if args.check {
        let reference = run_campaign(backend.plan(), &InProcessBackend::default(), 1)
            .unwrap_or_else(|e| die(e.to_string()))
            .to_text();
        let identical = reference == report.to_text();
        println!("process_report_identical_in_process {identical}");
        if !identical {
            std::process::exit(1);
        }
    }
}

/// `perfjson campaign`: supervise a **campaign** manifest.
fn run_campaign_cmd(args: &cli::CampaignArgs) {
    run_campaign_impl(
        "campaign",
        "campaign-worker",
        args,
        |text, worker, dir, config| ProcessBackend::new(text, worker, dir, config),
    );
}

/// `perfjson fleet-campaign`: supervise a **fleet** manifest through the
/// identical supervision stack (timeouts, retries, resume, validation).
fn run_fleet_campaign_cmd(args: &cli::CampaignArgs) {
    run_campaign_impl(
        "fleet-campaign",
        "fleet-campaign-worker",
        args,
        |text, worker, dir, config| ProcessBackend::new_fleet(text, worker, dir, config),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match cli::parse_command(&args) {
        Ok(Some(cli::Command::Perf(parsed))) => parsed,
        Ok(Some(cli::Command::Worker(w))) => return run_worker(&w),
        Ok(Some(cli::Command::Campaign(c))) => return run_campaign_cmd(&c),
        Ok(Some(cli::Command::FleetWorker(w))) => return run_fleet_worker(&w),
        Ok(Some(cli::Command::FleetCampaign(c))) => return run_fleet_campaign_cmd(&c),
        Ok(None) => {
            print!(
                "{}",
                match args.first().map(String::as_str) {
                    Some("campaign-worker") => cli::WORKER_USAGE,
                    Some("campaign") => cli::CAMPAIGN_USAGE,
                    Some("fleet-campaign-worker") => cli::FLEET_WORKER_USAGE,
                    Some("fleet-campaign") => cli::FLEET_CAMPAIGN_USAGE,
                    _ => cli::USAGE,
                }
            );
            return;
        }
        Err(err) => {
            eprintln!("perfjson: {err}");
            std::process::exit(2);
        }
    };
    let smoke = parsed.smoke;
    // Smoke mode: one timed run per scenario (plus the warm-up), so CI can
    // prove the bench binary still runs without waiting for stable timings.
    // Single-run timings are noise, so smoke mode never overwrites the
    // curated BENCH_engine.json trajectory — it always prints to stdout
    // (`cli::parse` forces `to_stdout` under `--smoke`).
    let to_stdout = parsed.to_stdout;
    let (min_runs, short_budget, long_budget) = if smoke { (1, 0.0, 0.0) } else { (3, 3.0, 10.0) };

    let measurements = [
        time_scenario(
            "driver_quick_30d",
            &Scenario::quick(30, 3),
            min_runs,
            short_budget,
        ),
        time_scenario(
            "driver_small_2y",
            &Scenario::two_year_small(greener_bench::seeds::WORLD),
            min_runs,
            long_budget,
        ),
        time_worldgen(
            "worldgen_2y",
            &Scenario::two_year_small(greener_bench::seeds::WORLD),
            min_runs,
            long_budget,
        ),
        time_scenario(
            "dispatch_heavy_90d",
            &dispatch_heavy_90d(greener_bench::seeds::WORLD),
            min_runs,
            long_budget,
        ),
        time_scenario(
            "dispatch_burst_7d",
            &dispatch_burst_7d(greener_bench::seeds::WORLD),
            min_runs,
            short_budget,
        ),
    ];

    let campaign = time_campaign(min_runs, long_budget);
    let fleet = time_fleet(min_runs, short_budget);

    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        // `unwrap_or_default()` is the point here, not a swallowed error:
        // `counters` is `None` on the world-gen-only lane, and the empty
        // string simply omits the optional JSON field.
        let counters_field = m
            .counters
            .as_ref()
            .map(|p| format!(", \"counters\": {}", counters_json(p)))
            .unwrap_or_default();
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"secs_per_run\": {:.6}, \"runs_per_sec\": {:.6}, \"worldgen_secs_per_run\": {:.6}, \"replay_secs_per_run\": {:.6}, \"replay_full_probes_secs_per_run\": {:.6}, \"replay_aggregates_only_secs_per_run\": {:.6}, \"runs\": {}, \"completed_jobs\": {}, \"max_queue_depth\": {}, \"mean_queue_depth\": {:.1}{}}}{}\n",
            m.name,
            m.secs_per_run,
            1.0 / m.secs_per_run,
            m.worldgen_secs_per_run,
            m.replay_secs_per_run,
            m.replay_full_secs_per_run,
            m.replay_agg_secs_per_run,
            m.runs,
            m.completed_jobs,
            m.max_queue_depth,
            m.mean_queue_depth,
            counters_field,
            if i + 1 < measurements.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"campaign\": {{\"name\": \"campaign_small\", \"cells\": {}, \"distinct_worlds\": {}, \
         \"distinct_environments\": {}, \"cells_per_sec_world_reuse\": {:.6}, \"cells_per_sec_rebuild\": {:.6}, \
         \"world_reuse_speedup\": {:.3}, \"merged_identical_shards_1_2\": {}}},\n",
        campaign.cells,
        campaign.distinct_worlds,
        campaign.distinct_environments,
        1.0 / campaign.reuse_secs_per_cell,
        1.0 / campaign.rebuild_secs_per_cell,
        campaign.rebuild_secs_per_cell / campaign.reuse_secs_per_cell,
        campaign.merged_identical_shards_1_2,
    ));
    json.push_str(&format!(
        "  \"fleet\": {{\"name\": \"fleet_small\", \"sites\": {}, \"routed_jobs\": {}, \
         \"carbon_totals_differ\": {}, \"policies\": [\n",
        fleet.sites, fleet.routed_jobs, fleet.carbon_totals_differ,
    ));
    for (i, p) in fleet.policies.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"routing\": \"{}\", \"secs_per_run\": {:.6}, \"runs_per_sec\": {:.6}, \
             \"carbon_kg\": {:.6}, \"carbon_kg_bits\": \"{}\", \"completed_jobs\": {}, \
             \"identical_threads_1_4\": {}}}{}\n",
            p.routing,
            p.secs_per_run,
            1.0 / p.secs_per_run,
            p.carbon_kg,
            p.carbon_bits,
            p.completed_jobs,
            p.identical_threads_1_4,
            if i + 1 < fleet.policies.len() {
                ","
            } else {
                ""
            }
        ));
    }
    json.push_str("  ]}\n");
    json.push_str("}\n");

    if to_stdout {
        print!("{json}");
    } else {
        std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
        print!("{json}");
        eprintln!("[perfjson] wrote BENCH_engine.json");
    }
}
