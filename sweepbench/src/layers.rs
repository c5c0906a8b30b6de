//! The traced walk: a plan run one layer at a time, with every call into a
//! layer's public entry point timed from outside, plus the counting pass
//! behind the replay counters.
//!
//! The walk reproduces `Plan::run_cells` with world reuse call for call,
//! so its artifacts, and the merged report, are byte-identical to an
//! untraced pass. The benchmark checks that on every traced pass.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::thread;
use std::time::Instant;

use greener_core::campaign::process::artifact_file_name;
use greener_core::campaign::{
    merge_artifacts, partition, plan_fingerprint, CampaignCell, CampaignError, CampaignManifest,
    CampaignPlan, CampaignReport, CellResult, Plan, ProcessBackend, ShardArtifact, ShardSpec,
    SupervisorConfig, WorkerCommand,
};
use greener_core::driver::{SimDriver, World};
use greener_core::fleet::{FleetCellResult, FleetDriver, FleetManifest, FleetPlan, FleetWorld};
use greener_core::probe::{Observe, RunOutput};
use greener_core::profile::ProfileCounter;

use crate::worker::spans_file_name;
use crate::workload::SHARDS;

/// Per-layer tallies of one shard or one pass: summed values (busy
/// seconds, counts), maxima, and the seconds covered by timed calls.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    sums: BTreeMap<String, f64>,
    maxima: BTreeMap<String, f64>,
    covered: f64,
}

impl Spans {
    /// Time one call into a layer and add its duration to `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        let secs = started.elapsed().as_secs_f64();
        self.add(name, secs);
        self.covered += secs;
        out
    }

    /// Add `value` to the sum `name`.
    pub fn add(&mut self, name: &str, value: f64) {
        *self.sums.entry(name.to_string()).or_default() += value;
    }

    /// Raise the maximum `name` to at least `value`.
    pub fn raise(&mut self, name: &str, value: f64) {
        let slot = self.maxima.entry(name.to_string()).or_insert(value);
        *slot = slot.max(value);
    }

    /// A sum or maximum by name (0 if never recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.sums
            .get(name)
            .or_else(|| self.maxima.get(name))
            .copied()
            .unwrap_or(0.0)
    }

    /// Seconds covered by [`Spans::time`] calls.
    pub fn covered(&self) -> f64 {
        self.covered
    }

    /// Every recorded name and value.
    pub fn entries(&self) -> impl Iterator<Item = (&String, &f64)> {
        self.sums.iter().chain(&self.maxima)
    }

    /// Fold another shard's tallies in: sums add, maxima take the larger.
    /// Coverage is per shard and stays as it was.
    pub fn absorb(&mut self, other: &Spans) {
        for (k, v) in &other.sums {
            self.add(k, *v);
        }
        for (k, v) in &other.maxima {
            self.raise(k, *v);
        }
    }

    /// Serialize as `sum|max|covered` lines (a worker's sidecar file).
    pub fn to_text(&self) -> String {
        let mut out = format!("covered {}\n", self.covered);
        for (k, v) in &self.sums {
            out.push_str(&format!("sum {k} {v}\n"));
        }
        for (k, v) in &self.maxima {
            out.push_str(&format!("max {k} {v}\n"));
        }
        out
    }

    /// Inverse of [`Spans::to_text`].
    pub fn parse(text: &str) -> Result<Spans, String> {
        let mut spans = Spans::default();
        for line in text.lines() {
            let t: Vec<&str> = line.split_whitespace().collect();
            let num = |tok: &str| {
                tok.parse::<f64>()
                    .map_err(|_| format!("bad number in spans line `{line}`"))
            };
            match t.as_slice() {
                ["covered", v] => spans.covered = num(v)?,
                ["sum", k, v] => spans.add(k, num(v)?),
                ["max", k, v] => spans.raise(k, num(v)?),
                _ => return Err(format!("malformed spans line `{line}`")),
            }
        }
        Ok(spans)
    }
}

/// A plan kind the benchmark can expand, walk layer by layer, and count.
pub trait BenchPlan: Plan + Sized {
    /// Parse and expand manifest text.
    fn expand_text(text: &str) -> Result<Self, String>;

    /// Distinct worlds the plan needs (what world reuse builds per plan).
    fn distinct_worlds(&self) -> usize;

    /// Simulated jobs a record completed.
    fn completed_jobs(record: &Self::Record) -> usize;

    /// The supervised backend for this plan kind.
    fn process_backend(
        text: &str,
        worker: WorkerCommand,
        dir: &Path,
        config: SupervisorConfig,
    ) -> Result<ProcessBackend<Self>, CampaignError>;

    /// Run cells `start..end` like `Plan::run_cells` with world reuse,
    /// timing each call into a layer.
    fn walk(&self, start: usize, end: usize, spans: &mut Spans) -> Vec<Self::Record>;

    /// Replay cells `start..end` through `SimDriver::run_profiled` with the
    /// queue-depth probe and tally the replay counters; `None` if the plan
    /// kind has no per-cell replay to count.
    fn count(&self, start: usize, end: usize, spans: &mut Spans) -> Option<Vec<Self::Record>>;
}

/// A policy label as a metric-name suffix (`carbon+temp-aware` →
/// `carbon_temp-aware`).
pub fn metric_label(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// A campaign cell's artifact record, as `InProcessBackend` builds it.
fn cell_result(cell: &CampaignCell, out: RunOutput) -> CellResult {
    CellResult {
        index: cell.index,
        id: cell.id.clone(),
        aggregates: out.aggregates,
        jobs: out.jobs,
        battery_cycles: out.battery_cycles,
    }
}

impl BenchPlan for CampaignPlan {
    fn expand_text(text: &str) -> Result<CampaignPlan, String> {
        CampaignManifest::parse(text)
            .and_then(|m| m.expand())
            .map_err(|e| e.to_string())
    }

    fn distinct_worlds(&self) -> usize {
        CampaignPlan::distinct_worlds(self)
    }

    fn completed_jobs(record: &CellResult) -> usize {
        record.jobs.completed
    }

    fn process_backend(
        text: &str,
        worker: WorkerCommand,
        dir: &Path,
        config: SupervisorConfig,
    ) -> Result<ProcessBackend<CampaignPlan>, CampaignError> {
        ProcessBackend::new(text, worker, dir, config)
    }

    fn walk(&self, start: usize, end: usize, spans: &mut Spans) -> Vec<CellResult> {
        let mut worlds: HashMap<String, World> = HashMap::new();
        let mut records = Vec::with_capacity(end - start);
        for cell in &self.cells[start..end] {
            let s = &cell.scenario;
            let world = worlds.entry(s.world_inputs_key()).or_insert_with(|| {
                let (weather, grid) =
                    spans.time("worldgen.environment_s", || World::environment(s));
                let trace = spans.time("worldgen.trace_s", || World::build_trace(s));
                spans.add("worldgen.worlds_built", 1.0);
                World {
                    seed: s.seed,
                    gpu_cap: s.cluster.total_gpus(),
                    weather,
                    grid,
                    trace,
                }
            });
            let span = format!("driver.replay_s.{}", metric_label(&s.policy.label()));
            let out = spans.time(&span, || {
                SimDriver::run_observed(s, world, Observe::aggregates())
            });
            records.push(cell_result(cell, out));
        }
        records
    }

    fn count(&self, start: usize, end: usize, spans: &mut Spans) -> Option<Vec<CellResult>> {
        let mut worlds: HashMap<String, World> = HashMap::new();
        let mut records = Vec::with_capacity(end - start);
        for cell in &self.cells[start..end] {
            let s = &cell.scenario;
            let world = worlds
                .entry(s.world_inputs_key())
                .or_insert_with(|| World::build(s));
            let (out, profile) =
                SimDriver::run_profiled(s, world, Observe::aggregates().with_queue_depth());
            for (name, counter) in [
                ("driver.events", ProfileCounter::Events),
                ("sched.dispatch_calls", ProfileCounter::DispatchCalls),
                ("sched.backfill_visits", ProfileCounter::BackfillVisits),
                ("sched.fast_dispatches", ProfileCounter::FastDispatches),
                ("sched.arrivals", ProfileCounter::Arrivals),
            ] {
                spans.add(name, profile.counter(counter) as f64);
            }
            let depth = out.queue_depth.map_or(0, |d| d.max);
            spans.raise("driver.max_queue_depth", f64::from(depth));
            records.push(cell_result(cell, out));
        }
        Some(records)
    }
}

impl BenchPlan for FleetPlan {
    fn expand_text(text: &str) -> Result<FleetPlan, String> {
        FleetManifest::parse(text)
            .and_then(|m| m.expand())
            .map_err(|e| e.to_string())
    }

    fn distinct_worlds(&self) -> usize {
        let keys: std::collections::HashSet<String> = self
            .cells
            .iter()
            .map(|c| c.fleet.world_inputs_key())
            .collect();
        keys.len()
    }

    fn completed_jobs(record: &FleetCellResult) -> usize {
        record.jobs.completed
    }

    fn process_backend(
        text: &str,
        worker: WorkerCommand,
        dir: &Path,
        config: SupervisorConfig,
    ) -> Result<ProcessBackend<FleetPlan>, CampaignError> {
        ProcessBackend::new_fleet(text, worker, dir, config)
    }

    fn walk(&self, start: usize, end: usize, spans: &mut Spans) -> Vec<FleetCellResult> {
        let mut worlds: HashMap<String, FleetWorld> = HashMap::new();
        let mut records = Vec::with_capacity(end - start);
        for cell in &self.cells[start..end] {
            let fleet = &cell.fleet;
            let world = worlds.entry(fleet.world_inputs_key()).or_insert_with(|| {
                spans.add("worldgen.worlds_built", 1.0);
                spans.time("fleet.world_s", || FleetWorld::build(fleet))
            });
            // `run_observed` routes again internally: timing the route pass
            // on its own is what splits routing from per-site replay.
            let routes = spans.time("fleet.route_s", || FleetDriver::route(fleet, world));
            spans.add("fleet.routed_jobs", routes.len() as f64);
            let out = spans.time("fleet.run_observed_s", || {
                FleetDriver::run_observed(fleet, world, Observe::aggregates())
            });
            spans.add("fleet.truncated_jobs", out.truncated_jobs as f64);
            records.push(spans.time("fleet.record_s", || {
                FleetCellResult::from_output(cell.index, &cell.id, &out)
            }));
        }
        records
    }

    fn count(
        &self,
        _start: usize,
        _end: usize,
        _spans: &mut Spans,
    ) -> Option<Vec<FleetCellResult>> {
        None
    }
}

/// Walk one shard and compose its artifact the way
/// `InProcessBackend::run_shard` does, recording the shard's wall time.
pub fn walk_shard<P: BenchPlan>(plan: &P, spec: &ShardSpec, spans: &mut Spans) -> ShardArtifact {
    let started = Instant::now();
    let records = plan.walk(spec.start, spec.end, spans);
    let artifact = spans.time("campaign.compose_s", || {
        ShardArtifact::compose(plan_fingerprint(plan), spec, &records)
    });
    let secs = started.elapsed().as_secs_f64();
    spans.raise("campaign.shard_s.max", secs);
    spans.add("campaign.shard_s.total", secs);
    artifact
}

/// A pass's merged report, or why there is none.
pub type Merged<R> = Result<CampaignReport<R>, CampaignError>;

/// One traced pass: its merged report, per-layer tallies, wall time, and
/// the share of that wall time the timed calls on the critical path cover.
pub struct Traced<R> {
    pub report: Merged<R>,
    pub spans: Spans,
    pub wall: f64,
    pub coverage: f64,
}

/// Run each shard of `f` on its own thread, the way `run_campaign` fans
/// shards out, and return the per-shard results in shard order.
fn per_shard<P: Plan, T: Send>(plan: &P, f: impl Fn(&ShardSpec) -> T + Sync) -> Vec<T> {
    let specs = partition(plan.len(), SHARDS);
    let f = &f;
    thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .map(|spec| scope.spawn(move || f(spec)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    })
}

/// The in-process traced pass: shards walked on their own threads, then
/// merged. The critical path is the slowest shard plus the merge.
pub fn traced_pass<P: BenchPlan>(plan: &P) -> Traced<P::Record> {
    let started = Instant::now();
    let shards = per_shard(plan, |spec| {
        let mut spans = Spans::default();
        let artifact = walk_shard(plan, spec, &mut spans);
        (artifact, spans)
    });
    let (artifacts, shard_spans): (Vec<ShardArtifact>, Vec<Spans>) = shards.into_iter().unzip();
    let mut spans = Spans::default();
    let report = spans.time("campaign.merge_s", || merge_artifacts(plan, &artifacts));
    let wall = started.elapsed().as_secs_f64();
    let slowest = shard_spans
        .iter()
        .max_by(|a, b| {
            a.get("campaign.shard_s.max")
                .total_cmp(&b.get("campaign.shard_s.max"))
        })
        .expect("at least one shard");
    let coverage = (slowest.covered() + spans.covered()) / wall;
    for s in &shard_spans {
        spans.absorb(s);
    }
    let bytes: usize = artifacts.iter().map(|a| a.text.len()).sum();
    spans.add("campaign.artifact_bytes", bytes as f64);
    Traced {
        report,
        spans,
        wall,
        coverage,
    }
}

/// The counting pass (untimed): every cell replayed with the profiler and
/// queue-depth probe on, shards on their own threads. Its merged report
/// must equal the untraced one, since profiling is observation-only.
/// `None` for plan kinds without per-cell replay counters.
pub fn count_pass<P: BenchPlan>(plan: &P) -> Option<(Spans, Merged<P::Record>)> {
    let fingerprint = plan_fingerprint(plan);
    let shards = per_shard(plan, |spec| {
        let mut spans = Spans::default();
        let records = plan.count(spec.start, spec.end, &mut spans)?;
        Some((ShardArtifact::compose(fingerprint, spec, &records), spans))
    });
    let shards: Vec<(ShardArtifact, Spans)> = shards.into_iter().collect::<Option<_>>()?;
    let mut spans = Spans::default();
    for (_, s) in &shards {
        spans.absorb(s);
    }
    let artifacts: Vec<ShardArtifact> = shards.into_iter().map(|(a, _)| a).collect();
    Some((spans, merge_artifacts(plan, &artifacts)))
}

/// The supervised traced pass: `run_supervised` with workers in traced
/// mode, their tallies read back from the artifact directory, and the
/// merge timed again from outside on the published artifacts. The
/// supervision layer's self time, `process.overhead_s`, is the supervised
/// wall time minus the slowest worker; the critical path is that worker's
/// timed calls plus the overhead.
pub fn supervised_traced_pass<P: BenchPlan>(
    backend: &ProcessBackend<P>,
    dir: &Path,
) -> Traced<P::Record> {
    let started = Instant::now();
    let outcome = backend.run_supervised(SHARDS);
    let wall = started.elapsed().as_secs_f64();
    let mut spans = Spans::default();
    // (process.worker_s, covered seconds) of the slowest worker.
    let mut slowest = (0.0, 0.0);
    let report = outcome.and_then(|(report, run)| {
        spans.add("process.supervised_s", wall);
        spans.add("process.attempts", f64::from(run.attempts));
        spans.add("process.retries", f64::from(run.retries));
        spans.add("process.timeouts", f64::from(run.timeouts));
        let read = |name: String| {
            std::fs::read_to_string(dir.join(&name)).map_err(|e| CampaignError {
                msg: format!("read `{name}`: {e}"),
            })
        };
        let mut artifacts = Vec::with_capacity(SHARDS);
        for spec in partition(backend.plan().len(), SHARDS) {
            let worker = Spans::parse(&read(spans_file_name(spec.shard, spec.of))?)
                .map_err(|msg| CampaignError { msg })?;
            let worker_s = worker.get("process.worker_s");
            if worker_s >= slowest.0 {
                slowest = (worker_s, worker.covered());
            }
            spans.absorb(&worker);
            artifacts.push(ShardArtifact {
                text: read(artifact_file_name(spec.shard, spec.of))?,
            });
        }
        let remerged = spans.time("campaign.merge_s", || {
            merge_artifacts(backend.plan(), &artifacts)
        })?;
        if remerged != report {
            return Err(CampaignError {
                msg: "published artifacts merge to a different report".into(),
            });
        }
        let bytes: usize = artifacts.iter().map(|a| a.text.len()).sum();
        spans.add("campaign.artifact_bytes", bytes as f64);
        Ok(report)
    });
    let overhead = wall - slowest.0;
    spans.add("process.overhead_s", overhead);
    Traced {
        coverage: (slowest.1 + overhead) / wall,
        report,
        spans,
        wall,
    }
}
