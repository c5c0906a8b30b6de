//! `sweepbench`: end-to-end and per-layer benchmark of campaign and fleet
//! sweeps. README.md explains the workloads, the metrics and how to read
//! them.
//!
//! ```text
//! sweepbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! sweepbench digests <from> <to>   # reference digests for seeds from..=to
//! sweepbench worker …              # spawned per shard by the supervised workload
//! ```
//!
//! The last line of a run's standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.

mod layers;
mod probe;
mod worker;
mod workload;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use greener_core::campaign::{
    run_campaign, CampaignPlan, InProcessBackend, ProcessBackend, SupervisorConfig, WorkerCommand,
};
use greener_core::fleet::FleetPlan;
use greener_simkit::rng::fnv1a;

use layers::{count_pass, supervised_traced_pass, traced_pass, BenchPlan, Merged, Spans, Traced};
use workload::{Kind, Workload, SHARDS, WORKLOADS};

const USAGE: &str =
    "usage: sweepbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]\n\
                     \x20      sweepbench digests <from> <to>\n\
                     workloads: sweep_shared_world, sweep_worlds_process, fleet_routing";

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("sweep_per_probe", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload does
/// not exercise reads 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("campaign.expand_s", "s"),
    ("worldgen.environment_s", "s"),
    ("worldgen.trace_s", "s"),
    ("worldgen.worlds_built", "count"),
    ("worldgen.cells_per_world", "ratio"),
    ("driver.replay_s", "s"),
    ("driver.replay_s.fcfs", "s"),
    ("driver.replay_s.easy-backfill", "s"),
    ("driver.replay_s.static-cap-160W", "s"),
    ("driver.replay_s.carbon-aware-6pct", "s"),
    ("driver.replay_s.green-queues-160W", "s"),
    ("driver.replay_s.carbon_temp-aware", "s"),
    ("driver.events", "count"),
    ("driver.ns_per_event", "ns"),
    ("driver.max_queue_depth", "count"),
    ("sched.dispatch_calls", "count"),
    ("sched.backfill_visits", "count"),
    ("sched.fast_dispatch_ratio", "ratio"),
    ("campaign.shard_s.max", "s"),
    ("campaign.shard_imbalance", "ratio"),
    ("campaign.compose_s", "s"),
    ("campaign.merge_s", "s"),
    ("campaign.artifact_bytes", "bytes"),
    ("process.supervised_s", "s"),
    ("process.worker_s", "s"),
    ("process.overhead_s", "s"),
    ("process.worker_expand_s", "s"),
    ("process.publish_s", "s"),
    ("process.attempts", "count"),
    ("process.retries", "count"),
    ("process.timeouts", "count"),
    ("fleet.world_s", "s"),
    ("fleet.route_s", "s"),
    ("fleet.site_replay_s", "s"),
    ("fleet.record_s", "s"),
    ("fleet.routed_jobs", "count"),
    ("fleet.truncated_jobs", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("threads.peak", "count"),
];

/// Seed and measuring window when the flags are omitted.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 25.0;
/// Set-ups after the reference and after every timed pass, so that the
/// set-up samples span the same stretch of the run as the passes;
/// `setup_s` is the median of all of them.
const SETUPS_PER_PASS: usize = 16;
/// Fewest timed passes of each kind per run.
const MIN_PASSES: usize = 3;
/// No pass starts after this many seconds of a run, whatever `--seconds`
/// asks, so a run on a slow host still ends well within three minutes.
const RUN_CAP_S: f64 = 120.0;
/// Reference-report digests pinned per workload and seed.
const PINNED: &str = include_str!("../digests.txt");

/// `--flag value` pairs, each flag at most once.
pub struct Flags {
    values: HashMap<String, String>,
}

impl Flags {
    /// Parse `args`, accepting only the `known` flags.
    pub fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut values = HashMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !known.contains(&flag.as_str()) {
                return Err(format!("unknown argument `{flag}`"));
            }
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            if values.insert(flag.clone(), value.clone()).is_some() {
                return Err(format!("`{flag}` given twice"));
            }
        }
        Ok(Flags { values })
    }

    /// A flag's value.
    pub fn required(&self, flag: &str) -> Result<&str, String> {
        self.values
            .get(flag)
            .map(String::as_str)
            .ok_or_else(|| format!("missing `{flag}`"))
    }

    /// A flag's value, parsed.
    pub fn number<T: FromStr>(&self, flag: &str) -> Result<T, String> {
        let raw = self.required(flag)?;
        raw.parse()
            .map_err(|_| format!("bad `{flag}` value `{raw}`"))
    }

    /// A flag's value, parsed, or `default` when the flag is absent.
    pub fn number_or<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.values.contains_key(flag) {
            true => self.number(flag),
            false => Ok(default),
        }
    }

    /// `--trace 0|1` (default 0).
    pub fn trace(&self) -> Result<bool, String> {
        match self.values.get("--trace").map(String::as_str) {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(other) => Err(format!("`--trace` takes 0 or 1, got `{other}`")),
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("worker") => worker::run(&argv[1..]),
        Some("digests") => print_digests(&argv[1..]),
        _ => bench(&argv),
    };
    if let Err(e) = result {
        eprintln!("sweepbench: {e}");
        std::process::exit(1);
    }
}

/// A benchmark run's arguments.
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn bench(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(argv, &["--workload", "--seed", "--seconds", "--trace"])
        .map_err(|e| format!("{e}\n{USAGE}"))?;
    let name = flags.required("--workload")?;
    let args = Args {
        workload: Workload::by_name(name)
            .ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))?,
        seed: flags.number_or("--seed", DEFAULT_SEED)?,
        seconds: flags.number_or("--seconds", DEFAULT_SECONDS)?,
        trace: flags.trace()?,
    };
    if !(args.seconds > 0.0 && args.seconds <= RUN_CAP_S) {
        return Err(format!("`--seconds` must lie in (0, {RUN_CAP_S}]"));
    }
    // Thread discipline: the shard count is pinned, and the vendored rayon
    // reads RAYON_NUM_THREADS on every call, so world-gen and fleet site
    // fan-out inside each shard thread use nproc threads each.
    let nproc = thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("RAYON_NUM_THREADS", nproc.to_string());
    // The supervisor scrubs it from workers too (`SupervisorConfig::fault`).
    std::env::remove_var("GREENER_FAULT");
    println!(
        "sweepbench workload={} seed={} seconds={} trace={}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "threads: shards={SHARDS} RAYON_NUM_THREADS={nproc} nproc={nproc}; world-gen and fleet \
         site fan-out inside each shard thread spawn up to {nproc} more threads per call, so \
         runnable threads can exceed nproc (see threads.peak in the traced run)"
    );
    let work = work_root()?;
    let outcome = match args.workload.kind {
        Kind::Campaign | Kind::Process => Run::<CampaignPlan>::new(&args, &work)?.execute(&args),
        Kind::Fleet => Run::<FleetPlan>::new(&args, &work)?.execute(&args),
    };
    if let Err(e) = std::fs::remove_dir_all(&work) {
        eprintln!("sweepbench: remove `{}`: {e}", work.display());
    }
    outcome?.print(args.trace);
    Ok(())
}

/// Scratch space for the supervised workload's artifact directories:
/// `<target dir>/sweepbench-work/<pid>`, beside the benchmark binary.
fn work_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe
        .parent()
        .and_then(|release| release.parent())
        .ok_or_else(|| format!("no target directory above `{}`", exe.display()))?;
    let root = target
        .join("sweepbench-work")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&root).map_err(|e| format!("create `{}`: {e}", root.display()))?;
    Ok(root)
}

/// One timed pass's merged report and wall time.
struct Pass<R> {
    report: Merged<R>,
    wall: f64,
}

/// One benchmark run of one workload.
struct Run<P: BenchPlan> {
    workload: &'static Workload,
    text: String,
    plan: P,
    /// Worker program and artifact-directory root (supervised workload).
    process: Option<(PathBuf, PathBuf)>,
    dirs: usize,
    setup_s: Vec<f64>,
    expand_s: Vec<f64>,
    /// The digest every pass's merged report must have.
    expected: Option<u64>,
    attempted: usize,
    failed: usize,
}

impl<P: BenchPlan> Run<P> {
    fn new(args: &Args, work: &std::path::Path) -> Result<Run<P>, String> {
        let w = args.workload;
        let text = w.manifest(args.seed)?;
        let plan = P::expand_text(&text)?;
        if plan.len() != w.cells || plan.distinct_worlds() != w.worlds {
            return Err(format!(
                "{} expands to {} cells over {} worlds, expected {} over {}",
                w.name,
                plan.len(),
                plan.distinct_worlds(),
                w.cells,
                w.worlds
            ));
        }
        println!(
            "plan: {} cells over {} distinct worlds (as stated)",
            w.cells, w.worlds
        );
        let process = if w.kind == Kind::Process {
            let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            Some((exe, work.to_path_buf()))
        } else {
            None
        };
        Ok(Run {
            workload: w,
            text,
            plan,
            process,
            dirs: 0,
            setup_s: Vec::new(),
            expand_s: Vec::new(),
            expected: None,
            attempted: 0,
            failed: 0,
        })
    }

    /// One set-up: parse and expand the manifest, plus, for the supervised
    /// workload, `ProcessBackend::new` over a fresh artifact directory.
    fn setup(
        &mut self,
        traced_workers: bool,
    ) -> Result<Option<(ProcessBackend<P>, PathBuf)>, String> {
        let started = Instant::now();
        let plan = black_box(P::expand_text(&self.text)?);
        self.expand_s.push(started.elapsed().as_secs_f64());
        let backend = match &self.process {
            None => None,
            Some((program, root)) => {
                let dir = root.join(format!("pass-{}", self.dirs));
                self.dirs += 1;
                let worker = WorkerCommand {
                    program: program.clone(),
                    args: vec![
                        "worker".into(),
                        "--trace".into(),
                        if traced_workers { "1" } else { "0" }.into(),
                    ],
                };
                // A clean pass takes well under a second: the timeout never
                // fires unless a worker hangs.
                let config = SupervisorConfig {
                    timeout: Duration::from_secs(60),
                    fault: None,
                    ..SupervisorConfig::default()
                };
                let backend = P::process_backend(&self.text, worker, &dir, config)
                    .map_err(|e| e.to_string())?;
                Some((backend, dir))
            }
        };
        self.setup_s.push(started.elapsed().as_secs_f64());
        drop(plan);
        Ok(backend)
    }

    /// [`SETUPS_PER_PASS`] set-ups between timed passes: the `setup_s` samples.
    fn setups(&mut self) -> Result<(), String> {
        for _ in 0..SETUPS_PER_PASS {
            if let Some((_, dir)) = self.setup(false)? {
                remove_pass_dir(&dir);
            }
        }
        Ok(())
    }

    /// An untraced pass, timed from plan in hand to merged report.
    fn untraced_pass(&mut self) -> Result<Pass<P::Record>, String> {
        let backend = self.setup_if_process(false)?;
        let started = Instant::now();
        let report = match &backend {
            None => run_campaign(&self.plan, &InProcessBackend::default(), SHARDS),
            Some((backend, _)) => backend.run_supervised(SHARDS).map(|(report, _)| report),
        };
        let wall = started.elapsed().as_secs_f64();
        if let Some((_, dir)) = backend {
            remove_pass_dir(&dir);
        }
        Ok(Pass { report, wall })
    }

    /// A traced pass (in-process walk, or supervised with traced workers).
    fn traced_pass(&mut self) -> Result<Traced<P::Record>, String> {
        match self.setup_if_process(true)? {
            None => Ok(traced_pass(&self.plan)),
            Some((backend, dir)) => {
                let traced = supervised_traced_pass(&backend, &dir);
                remove_pass_dir(&dir);
                Ok(traced)
            }
        }
    }

    /// [`Run::setup`] for the supervised workload; in-process passes reuse
    /// the plan and need none.
    fn setup_if_process(
        &mut self,
        traced_workers: bool,
    ) -> Result<Option<(ProcessBackend<P>, PathBuf)>, String> {
        if self.process.is_none() {
            return Ok(None);
        }
        self.setup(traced_workers)
    }

    /// Count a pass's cells as attempted, and as failed if its report is
    /// missing or differs from the expected digest.
    fn check(&mut self, what: &str, report: &Merged<P::Record>) {
        let cells = self.plan.len();
        self.attempted += cells;
        let digest = report.as_ref().map(|r| fnv1a(r.to_text().as_bytes()));
        match (digest, self.expected) {
            (Ok(d), Some(e)) if d == e => {}
            (Ok(d), _) => {
                self.failed += cells;
                eprintln!("sweepbench: {what} report digest {d:016x} differs from the reference");
            }
            (Err(e), _) => {
                self.failed += cells;
                eprintln!("sweepbench: {what} failed: {e}");
            }
        }
    }

    fn execute(mut self, args: &Args) -> Result<Outcome, String> {
        let run_started = Instant::now();
        // The 1-shard in-process reference, outside every timed region.
        let reference = run_campaign(&self.plan, &InProcessBackend::default(), 1);
        let reference_digest = reference
            .as_ref()
            .ok()
            .map(|r| fnv1a(r.to_text().as_bytes()));
        let pinned = pinned_digest(self.workload.name, args.seed)?;
        let hex = |d: Option<u64>| d.map_or("none".to_string(), |d| format!("{d:016x}"));
        println!(
            "digest: reference={} pinned={}",
            hex(reference_digest),
            hex(pinned)
        );
        let reference_ok =
            reference_digest.is_some() && pinned.is_none_or(|p| Some(p) == reference_digest);
        if !reference_ok {
            eprintln!("sweepbench: the reference report does not match the pinned digest");
        }
        self.expected = pinned.or(reference_digest);
        self.setups()?;
        let completed: usize = reference
            .as_ref()
            .map_or(0, |r| r.cells.iter().map(P::completed_jobs).sum());

        // Start another pass while it is expected to end inside the window.
        let window = Instant::now();
        let more = |done: usize, next_pass_s: f64| {
            done == 0
                || (run_started.elapsed().as_secs_f64() < RUN_CAP_S
                    && (done < MIN_PASSES
                        || window.elapsed().as_secs_f64() + next_pass_s <= args.seconds))
        };
        let mut walls = Vec::new();
        let mut metrics = BTreeMap::new();
        if !args.trace {
            let mut probes = Vec::new();
            while more(walls.len(), median(&walls) + median(&probes)) {
                probes.push(probe::probe());
                let pass = self.untraced_pass()?;
                self.check("pass", &pass.report);
                walls.push(pass.wall);
                self.setups()?;
            }
            let (sweep_s, probe_s) = (median(&walls), median(&probes));
            println!(
                "probe_s over {} probes: median {probe_s:.6} s, quartiles {:.6} .. {:.6} s",
                probes.len(),
                quantile(&probes, 0.25),
                quantile(&probes, 0.75)
            );
            let listed: Vec<String> = probes.iter().map(|p| format!("{p:.4}")).collect();
            println!("probes: {}", listed.join(" "));
            println!(
                "sim_jobs_per_s {} 1/s (wall time, moves with the host)",
                completed as f64 / sweep_s
            );
            metrics.insert("setup_s".to_string(), median(&self.setup_s));
            metrics.insert("sweep_per_probe".to_string(), sweep_s / probe_s);
            metrics.insert(
                "peak_rss_mb".to_string(),
                proc_status("VmHWM:").unwrap_or(0.0) / 1024.0,
            );
        } else {
            let sampler = ThreadSampler::start();
            let mut traced: Vec<Traced<P::Record>> = Vec::new();
            loop {
                let traced_walls: Vec<f64> = traced.iter().map(|t| t.wall).collect();
                if !more(traced.len(), median(&walls) + median(&traced_walls)) {
                    break;
                }
                let pass = self.untraced_pass()?;
                self.check("pass", &pass.report);
                walls.push(pass.wall);
                let pass = self.traced_pass()?;
                self.check("traced pass", &pass.report);
                traced.push(pass);
                self.setups()?;
            }
            let threads_peak = sampler.finish();
            let counts = count_pass(&self.plan).map(|(spans, report)| {
                self.check("counting pass", &report);
                spans
            });
            metrics = per_layer(&traced, &walls, counts.as_ref(), self.plan.len());
            metrics.insert("campaign.expand_s".to_string(), median(&self.expand_s));
            metrics.insert("threads.peak".to_string(), threads_peak);
        }
        println!(
            "sweep_s over {} untraced passes: median {:.6} s, quartiles {:.6} .. {:.6} s",
            walls.len(),
            median(&walls),
            quantile(&walls, 0.25),
            quantile(&walls, 0.75)
        );
        let passes: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
        println!("passes: {}", passes.join(" "));
        println!(
            "setup_s over {} set-ups: median {:.6} s",
            self.setup_s.len(),
            median(&self.setup_s)
        );
        Ok(Outcome {
            correct: reference_ok && self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        })
    }
}

/// Delete a pass's artifact directory (outside the timed region).
fn remove_pass_dir(dir: &std::path::Path) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        eprintln!("sweepbench: remove `{}`: {e}", dir.display());
    }
}

/// Per-layer metrics: medians over the traced passes, counters from the
/// counting pass, and the ratios derived from both.
fn per_layer<R>(
    traced: &[Traced<R>],
    untraced_walls: &[f64],
    counts: Option<&Spans>,
    cells: usize,
) -> BTreeMap<String, f64> {
    let per_pass: Vec<BTreeMap<String, f64>> = traced
        .iter()
        .map(|t| {
            let mut m: BTreeMap<String, f64> =
                t.spans.entries().map(|(k, v)| (k.clone(), *v)).collect();
            let replay: f64 = m
                .iter()
                .filter(|(k, _)| k.starts_with("driver.replay_s."))
                .map(|(_, v)| v)
                .sum();
            let shard_mean = t.spans.get("campaign.shard_s.total") / SHARDS as f64;
            let site_replay = t.spans.get("fleet.run_observed_s") - t.spans.get("fleet.route_s");
            m.insert("driver.replay_s".into(), replay);
            m.insert(
                "campaign.shard_imbalance".into(),
                t.spans.get("campaign.shard_s.max") / shard_mean,
            );
            m.insert("fleet.site_replay_s".into(), site_replay);
            m.insert("trace.coverage".into(), t.coverage);
            m.insert("trace.wall_s".into(), t.wall);
            m
        })
        .collect();
    let keys: HashSet<&String> = per_pass.iter().flat_map(|m| m.keys()).collect();
    let mut out: BTreeMap<String, f64> = keys
        .into_iter()
        .map(|k| {
            let values: Vec<f64> = per_pass
                .iter()
                .map(|m| m.get(k).copied().unwrap_or(0.0))
                .collect();
            (k.clone(), median(&values))
        })
        .collect();
    let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let worlds = get(&out, "worldgen.worlds_built");
    if worlds > 0.0 {
        out.insert("worldgen.cells_per_world".into(), cells as f64 / worlds);
    }
    out.insert(
        "trace.overhead".into(),
        get(&out, "trace.wall_s") / median(untraced_walls),
    );
    if let Some(c) = counts {
        for k in [
            "driver.events",
            "sched.dispatch_calls",
            "sched.backfill_visits",
            "driver.max_queue_depth",
        ] {
            out.insert(k.into(), c.get(k));
        }
        let events = c.get("driver.events");
        if events > 0.0 {
            out.insert(
                "driver.ns_per_event".into(),
                get(&out, "driver.replay_s") * 1e9 / events,
            );
        }
        let arrivals = c.get("sched.arrivals");
        if arrivals > 0.0 {
            out.insert(
                "sched.fast_dispatch_ratio".into(),
                c.get("sched.fast_dispatches") / arrivals,
            );
        }
    }
    out
}

/// A finished run, ready to print.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Print every metric by name and unit, then the JSON result line.
    fn print(&self, trace: bool) {
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "error_rate {error_rate} ({} of {} cells failed)",
            self.failed, self.attempted
        );
        let mut json = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            println!("{name} {value} {unit}");
            json.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
    }
}

/// The pinned digest for `workload` at `seed`, if `digests.txt` has one.
/// Also checks the table itself: within a workload every seed's digest is
/// distinct, which is what shows that the seed argument reaches the
/// simulated result.
fn pinned_digest(workload: &str, seed: u64) -> Result<Option<u64>, String> {
    let mut seen: HashMap<&str, HashSet<u64>> = HashMap::new();
    let mut found = None;
    for line in PINNED.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("digests.txt: malformed line `{line}`");
        let t: Vec<&str> = line.split_whitespace().collect();
        let [w, s, d] = t.as_slice() else {
            return Err(bad());
        };
        let s: u64 = s.parse().map_err(|_| bad())?;
        let d = u64::from_str_radix(d, 16).map_err(|_| bad())?;
        if !seen.entry(w).or_default().insert(d) {
            return Err(format!(
                "digests.txt: two seeds of {w} share digest {d:016x}"
            ));
        }
        if *w == workload && s == seed {
            found = Some(d);
        }
    }
    Ok(found)
}

/// `sweepbench digests <from> <to>`: the 1-shard reference digest of every
/// workload for seeds `from..=to`, in `digests.txt` form.
fn print_digests(args: &[String]) -> Result<(), String> {
    let [from, to] = args else {
        return Err(USAGE.into());
    };
    let parse = |s: &String| s.parse::<u64>().map_err(|_| format!("bad seed `{s}`"));
    for seed in parse(from)?..=parse(to)? {
        for w in &WORKLOADS {
            let text = w.manifest(seed)?;
            let digest = match w.kind {
                Kind::Campaign | Kind::Process => reference_digest::<CampaignPlan>(&text)?,
                Kind::Fleet => reference_digest::<FleetPlan>(&text)?,
            };
            println!("{} {seed} {digest:016x}", w.name);
        }
    }
    Ok(())
}

fn reference_digest<P: BenchPlan>(text: &str) -> Result<u64, String> {
    let plan = P::expand_text(text)?;
    let report = run_campaign(&plan, &InProcessBackend::default(), 1).map_err(|e| e.to_string())?;
    Ok(fnv1a(report.to_text().as_bytes()))
}

/// Samples the process's thread count every millisecond until finished.
struct ThreadSampler {
    stop: Arc<AtomicBool>,
    handle: thread::JoinHandle<f64>,
}

impl ThreadSampler {
    fn start() -> ThreadSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            let mut peak: f64 = 0.0;
            while !flag.load(Ordering::SeqCst) {
                peak = peak.max(proc_status("Threads:").unwrap_or(0.0));
                thread::sleep(Duration::from_millis(1));
            }
            peak
        });
        ThreadSampler { stop, handle }
    }

    /// The peak thread count seen, not counting the sampler itself.
    fn finish(self) -> f64 {
        self.stop.store(true, Ordering::SeqCst);
        let peak = self.handle.join().expect("thread sampler panicked");
        (peak - 1.0).max(0.0)
    }
}

/// A numeric field of `/proc/self/status` (`VmHWM:` in kB, `Threads:`).
fn proc_status(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values` (NaN when empty).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
