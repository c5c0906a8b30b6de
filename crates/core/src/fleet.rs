//! The multi-site fleet layer: per-site worlds, a routing tier, and
//! geo-temporal carbon arbitrage policies.
//!
//! Everything below `core::fleet` simulates *one* cluster on *one*
//! regional grid. The paper's question — when and **where** to run AI/HPC
//! jobs to cut carbon — only gets its production-scale answer across a
//! fleet: N datacenters in different grid regions with different carbon
//! intensity, price, weather and cooling. A [`FleetScenario`] holds an
//! ordered set of [`Site`]s (each with its own cluster spec, cooling
//! model, weather and regional grid), **one shared arrival trace** drawn
//! from the fleet's base scenario, and a [`RoutingPolicyKind`] that assigns
//! each arriving job to a site before the site's local scheduling policy
//! takes over.
//!
//! # Route-then-replay
//!
//! A fleet run has two strictly-separated stages:
//!
//! 1. **Routing** ([`FleetDriver::route`]): a single sequential pass over
//!    the shared trace in submit order. For every arrival the router
//!    reads per-site signals — the site's forecast-window mean carbon
//!    intensity and price (read off the pre-built [`GridPath`]s via
//!    [`GridPath::window_mean_ci`] once per arrival hour, since they
//!    depend on nothing else) plus a router-side *queue-pressure
//!    estimate* (routed-but-undrained GPU-hours per site, drained at
//!    full-machine rate between arrivals) — and lets the fleet's
//!    [`RoutingPolicyKind`] pick a feasible site. Routing is hierarchical
//!    scheduling with router-level state: the router never looks inside a
//!    site's event loop, so its pressure signal is an estimate, not the
//!    site queue's ground truth. That is deliberate — it keeps stage 1 a
//!    pure sequential function of `(fleet, world)`, byte-identical at any
//!    thread count.
//! 2. **Replay**: the shared trace splits into per-site sub-traces
//!    (submit order preserved, ids renumbered densely per site — the
//!    engine's fast apply path indexes per-job state by id; the
//!    [`RouteRecord`] stream keeps the global id ↔ site mapping), and each
//!    site replays independently on the engine behind
//!    [`SimDriver::run_observed`], over a view that borrows its
//!    environment from the fleet world and its sub-trace (no copies),
//!    fanned out via `par::sharded_map`. Sites share
//!    nothing but the immutable trace, so cross-site event interleaving
//!    cannot exist by construction.
//!
//! Paired-comparison semantics survive: two fleets differing only in
//! [`RoutingPolicyKind`] see byte-identical traces, weather and grid
//! paths, so routing is the only difference — the same property the
//! single-site layer pins for scheduling policies. The degenerate 1-site
//! fleet under static routing reproduces today's single-site run
//! bit-for-bit, pinned as an equivalence axis through
//! [`crate::equivalence::assert_runners_equivalent`] (see
//! [`fingerprint`]).
//!
//! # Feasibility and workload fidelity
//!
//! Paired comparisons must not silently mutate the workload, so the
//! routing tier's capacity edge cases are explicit:
//!
//! * **Zero-capacity sites are invalid.** [`FleetScenario::validate`]
//!   rejects any site whose cluster has zero GPUs — such a site can
//!   never drain routed work, and its queue-pressure estimate (backlog
//!   GPU-hours over machine size) has no finite value. Defense in depth:
//!   the router's pressure helper saturates at `f64::INFINITY` rather
//!   than emitting NaN, and zero-cap sites are excluded from every
//!   feasible set a routing policy picks from, so a NaN can never reach
//!   a policy score or the byte-stable route log.
//! * **Oversized gangs are clamped, and the clamp is counted.** When no
//!   site fits a gang whole, the router offers every powered site and
//!   clamps the gang to the pick's machine size. Each clamp is recorded:
//!   [`FleetRunOutput::truncated_jobs`] counts them and the report's
//!   totals line surfaces `truncated_jobs=N`, so a run whose replayed
//!   workload diverged from the shared trace is visibly different — a
//!   fleet comparison is only paired when the count is zero on both
//!   sides.
//!
//! # Per-site worlds
//!
//! [`FleetWorld::build`] generates the shared trace from the **base**
//! scenario and one environment (weather + grid) per site from the site's
//! own scenario, via the existing parallel world-gen: every generator
//! draws from named RNG streams ([`World::build_trace`] /
//! [`World::environment`] consume disjoint families), so fleet world
//! generation is bit-identical at every thread count.
//! Programmatically-derived fleets ([`FleetScenario::spread`]) give site
//! `i > 0` the indexed seed `RngHub::seed_for_indexed("fleet.site", i)`;
//! site 0 keeps the base seed, which is what makes the 1-site fleet
//! degenerate-exact.
//!
//! # Fleet manifests
//!
//! Fleet sweeps expand like any other axis set: a [`FleetManifest`] is a
//! line-oriented text manifest (same `key = value` grammar as
//! [`crate::campaign`]) whose `routing` axis × seed axis expands through
//! [`greener_simkit::sweep::gridn_indices`] — row-major, seeds innermost —
//! into a [`FleetPlan`] of cells with stable, whitespace-free ids:
//!
//! ```text
//! name = demo            # plan name, prefixes every cell id
//! base = quick:2@7       # campaign base grammar: quick:<days>@<seed>,
//!                        # small_2y, baseline_2y, one_year
//! sites = 2              # derive this many sites from the base
//!                        # (FleetScenario::spread)
//! axis routing = static, greedy-carbon   # RoutingPolicyKind labels
//! seeds = 7..9           # half-open range or comma list, innermost axis
//! ```
//!
//! ```
//! use greener_core::fleet::FleetManifest;
//!
//! let plan = FleetManifest::parse(
//!     "name = demo\n\
//!      base = quick:2@7\n\
//!      sites = 2\n\
//!      axis routing = static, greedy-carbon\n\
//!      seeds = 7..9\n",
//! )
//! .unwrap()
//! .expand()
//! .unwrap();
//! assert_eq!(plan.cells.len(), 4);
//! assert_eq!(plan.cells[0].id, "demo/routing=static/seed=7");
//! assert_eq!(plan.cells[3].id, "demo/routing=greedy-carbon/seed=8");
//! // Seeds are innermost, like every campaign expansion.
//! assert_eq!(plan.cells[1].id, "demo/routing=static/seed=8");
//! ```
//!
//! # Fleet sweeps through the campaign stack
//!
//! [`FleetPlan`] implements the campaign layer's
//! [`Plan`] seam, so fleet sweeps run through the
//! **same** executors as campaigns — [`crate::campaign::run_campaign`]
//! in-process, or the supervised
//! [`crate::campaign::process::ProcessBackend`] (built with
//! [`new_fleet`](crate::campaign::process::ProcessBackend::new_fleet);
//! `perfjson campaign` on a `.fleet` manifest is the CLI driver) with
//! per-shard timeouts, seeded-backoff retries, `GREENER_FAULT` injection
//! and artifact-based resume. Each cell serializes as one
//! [`FleetCellResult`] `fleet-cell` line inside the standard versioned,
//! checksummed, plan-fingerprinted v1 [`crate::campaign::ShardArtifact`];
//! the cell's full
//! [`FleetRunOutput::to_text`] report is pinned bit-for-bit by an FNV-1a
//! digest carried on the line. The digest is streamed over the exact
//! `to_text` bytes as [`FleetRunOutput::write_report`] writes them
//! ([`FleetRunOutput::report_digest`]), route lines as the one byte
//! encoder writes them, so no cell materializes its report text. A
//! supervised fleet sweep's artifact
//! directory is the campaign layout with the fleet manifest name:
//!
//! ```text
//! <dir>/manifest.fleet        # fleet manifest text workers re-expand
//! <dir>/shard-<i>-of-<k>.art  # one validated ShardArtifact per shard
//! <dir>/shard-<i>-of-<k>.ok   # completion marker
//! ```
//!
//! Merge determinism carries over verbatim — for a fixed fleet manifest
//! the merged report is byte-identical at every shard count, thread
//! count, and across resume boundaries:
//!
//! ```
//! use greener_core::campaign::{run_campaign, InProcessBackend};
//! use greener_core::fleet::FleetManifest;
//!
//! let plan = FleetManifest::parse(
//!     "name = demo\n\
//!      base = quick:2@7\n\
//!      sites = 2\n\
//!      axis routing = static, greedy-carbon\n",
//! )
//! .unwrap()
//! .expand()
//! .unwrap();
//! let backend = InProcessBackend;
//! let merged = run_campaign(&plan, &backend, 2).unwrap();
//! assert_eq!(
//!     merged.to_text(),
//!     run_campaign(&plan, &backend, 1).unwrap().to_text(),
//! );
//! // Fleet rollups ride the merged report: routing stays visible.
//! assert_eq!(merged.get("demo/routing=static/seed=7").unwrap().routed_jobs,
//!            merged.get("demo/routing=greedy-carbon/seed=7").unwrap().routed_jobs);
//! ```

use greener_climate::WeatherPath;
use greener_grid::mix::GridPath;
use std::fmt;
use std::ops::Range;
use std::thread;

use greener_simkit::par;
use greener_simkit::rng::{Fnv1a, RngHub};
use greener_simkit::sweep::gridn_indices;
use greener_simkit::time::SimTime;
use greener_simkit::units::Energy;
use greener_workload::{Job, JobId};

use crate::campaign::exec::{
    parse_totals, parse_usize, per_range, span, write_totals, LastUseCache,
};
use crate::campaign::manifest::{
    err, for_each_entry, parse_axis_values, parse_base, parse_seeds, ManifestError,
};
use crate::campaign::plan::check_cell_ids;
use crate::campaign::{CampaignError, CellRecord, Plan};
use crate::driver::{JobStats, SimDriver, World, WorldRef};
use crate::equivalence::Fingerprint;
use crate::probe::{Observe, RunAggregates, RunOutput};
use crate::scenario::Scenario;

/// Forecast window routing signals average over, hours (mirrors the
/// scheduler-side forecast horizon).
pub const ROUTE_FORECAST_HOURS: usize = 24;

/// One datacenter in the fleet: a full per-site scenario (cluster spec,
/// cooling model, weather, regional grid, local scheduling policy and
/// strategy) under a stable name.
///
/// The site's trace configuration is ignored — arrivals come from the
/// fleet's shared trace — and its `start`/`horizon_hours` must equal the
/// fleet base's (validated by [`FleetScenario::validate`]).
#[derive(Debug, Clone)]
pub struct Site {
    /// Site name (unique within the fleet, whitespace-free — it appears
    /// in report lines).
    pub name: String,
    /// The site's full scenario.
    pub scenario: Scenario,
}

/// A fleet: ordered sites, one shared arrival trace (described by the
/// base scenario), and a routing policy.
#[derive(Debug, Clone)]
pub struct FleetScenario {
    /// Fleet name (whitespace-free — it prefixes report lines and plan
    /// cell ids).
    pub name: String,
    /// The scenario the **shared trace** is drawn from: its seed, start,
    /// horizon, trace config, deadline policy and cluster gang cap define
    /// the arrival stream every site competes for.
    pub base: Scenario,
    /// The sites, in declaration order (routing feasibility ties break
    /// toward lower indices).
    pub sites: Vec<Site>,
    /// How arriving jobs are assigned to sites.
    pub routing: RoutingPolicyKind,
}

/// Per-site variation cycles used by [`FleetScenario::spread`]: index
/// `i % 4` keeps site 0 exactly on the base configuration.
const SPREAD_WIND_MULT: [f64; 4] = [1.0, 1.8, 0.45, 1.3];
const SPREAD_SOLAR_MULT: [f64; 4] = [1.0, 0.55, 1.7, 1.25];
const SPREAD_FOSSIL_MULT: [f64; 4] = [1.0, 0.85, 1.2, 0.95];
const SPREAD_WARMING_C: [f64; 4] = [0.0, 1.5, -1.0, 0.75];

impl FleetScenario {
    /// The degenerate fleet: one site that *is* `scenario`, static
    /// routing. Under this construction the fleet run reproduces
    /// [`SimDriver`] on `scenario` bit-for-bit (the pinned equivalence
    /// axis — see [`fingerprint`]).
    pub fn single(scenario: Scenario) -> FleetScenario {
        FleetScenario {
            name: format!("{}-fleet", sanitize(&scenario.name)),
            base: scenario.clone(),
            sites: vec![Site {
                name: "site-0".into(),
                scenario,
            }],
            routing: RoutingPolicyKind::Static,
        }
    }

    /// Derive an `n_sites`-site fleet from one base scenario: site 0 is
    /// the base verbatim; site `i > 0` gets the indexed seed
    /// `RngHub::seed_for_indexed("fleet.site", i)` and a regionally-varied
    /// grid (wind/solar capacity, fossil emission factors) and climate
    /// (warming offset), cycling through four region archetypes. The
    /// shared trace always comes from the base, so every spread fleet is a
    /// paired comparison across its own sites.
    ///
    /// # Panics
    /// If `n_sites` is zero.
    pub fn spread(base: Scenario, n_sites: usize) -> FleetScenario {
        assert!(n_sites > 0, "a fleet needs at least one site");
        let hub = RngHub::new(base.seed);
        let sites = (0..n_sites)
            .map(|i| {
                let mut s = base.clone();
                let k = i % 4;
                s.seed = if i == 0 {
                    base.seed
                } else {
                    hub.seed_for_indexed("fleet.site", i as u64)
                };
                s.grid.wind_capacity_mw *= SPREAD_WIND_MULT[k];
                s.grid.solar_capacity_mw *= SPREAD_SOLAR_MULT[k];
                s.grid.fossil_emission_mult *= SPREAD_FOSSIL_MULT[k];
                s.weather.warming_offset_c += SPREAD_WARMING_C[k];
                s.name = format!("site-{i}");
                Site {
                    name: format!("site-{i}"),
                    scenario: s,
                }
            })
            .collect();
        FleetScenario {
            name: format!("{}-fleet", sanitize(&base.name)),
            base,
            sites,
            routing: RoutingPolicyKind::Static,
        }
    }

    /// Builder-style: replace the routing policy.
    #[must_use]
    pub fn with_routing(mut self, routing: RoutingPolicyKind) -> FleetScenario {
        self.routing = routing;
        self
    }

    /// Builder-style: reseed the fleet. The base is reseeded directly;
    /// site seeds are re-derived by the spread rule (site 0 = the new
    /// seed, site `i > 0` = `seed_for_indexed("fleet.site", i)`), so a
    /// seed axis sweeps the whole fleet coherently.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> FleetScenario {
        self.base.seed = seed;
        let hub = RngHub::new(seed);
        for (i, site) in self.sites.iter_mut().enumerate() {
            site.scenario.seed = if i == 0 {
                seed
            } else {
                hub.seed_for_indexed("fleet.site", i as u64)
            };
        }
        self
    }

    /// A key over every input that determines the generated
    /// [`FleetWorld`]: the base scenario's
    /// [`Scenario::world_inputs_key`] (the shared trace) concatenated
    /// with every site's (the per-site environments), in site order.
    /// Routing never reaches world generation, so the key is
    /// routing-invariant — which is exactly what lets the campaign
    /// layer's world cache share one [`FleetWorld`] across the paired
    /// routing cells of a [`FleetPlan`] pass.
    pub fn world_inputs_key(&self) -> String {
        let mut key = self.base.world_inputs_key();
        for site in &self.sites {
            key.push('\u{1e}');
            key.push_str(&site.scenario.world_inputs_key());
        }
        key
    }

    /// Validate the fleet's structural invariants: at least one site,
    /// whitespace-free unique names, a horizon of at least one hour, and
    /// every site sharing the base's start date and horizon (sites replay
    /// the same simulated window the shared trace spans).
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() || self.name.contains(char::is_whitespace) {
            return Err(format!(
                "fleet name `{}` must be non-empty and whitespace-free",
                self.name
            ));
        }
        if self.sites.is_empty() {
            return Err("a fleet needs at least one site".into());
        }
        if self.base.horizon_hours == 0 {
            return Err(format!(
                "fleet `{}` spans 0 h (every site replays the base horizon, so it needs at \
                 least one hour)",
                self.name
            ));
        }
        let mut seen = std::collections::HashSet::new();
        for site in &self.sites {
            if site.name.is_empty() || site.name.contains(char::is_whitespace) {
                return Err(format!(
                    "site name `{}` must be non-empty and whitespace-free",
                    site.name
                ));
            }
            if !seen.insert(site.name.as_str()) {
                return Err(format!("duplicate site name `{}`", site.name));
            }
            if site.scenario.start != self.base.start {
                return Err(format!(
                    "site `{}` starts {:?}, fleet base starts {:?}",
                    site.name, site.scenario.start, self.base.start
                ));
            }
            if site.scenario.horizon_hours != self.base.horizon_hours {
                return Err(format!(
                    "site `{}` spans {} h, fleet base spans {} h",
                    site.name, site.scenario.horizon_hours, self.base.horizon_hours
                ));
            }
            if site.scenario.cluster.total_gpus() == 0 {
                return Err(format!(
                    "site `{}` has a zero-GPU cluster (a zero-capacity site can never \
                     drain routed work, so every site needs at least one GPU)",
                    site.name
                ));
            }
        }
        Ok(())
    }

    fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("invalid fleet `{}`: {e}", self.name);
        }
    }
}

/// Collapse whitespace runs to single dashes (fleet and site names must
/// be whitespace-free; scenario names like `quick-14d seed 11` are not).
fn sanitize(name: &str) -> String {
    name.split_whitespace().collect::<Vec<_>>().join("-")
}

/// One site's generated environment: the weather path and the grid path
/// that consumes it (built by [`World::environment`]).
#[derive(Debug, Clone)]
pub struct SiteWorld {
    /// Hourly weather path.
    pub weather: WeatherPath,
    /// Hourly grid path.
    pub grid: GridPath,
}

/// The generated fleet world: the shared arrival trace plus one
/// environment per site. Policy- and routing-invariant, so paired routing
/// comparisons share one `FleetWorld`.
#[derive(Debug, Clone)]
pub struct FleetWorld {
    /// The shared trace (dense ids in submit order, gang sizes capped at
    /// the base cluster).
    pub trace: Vec<Job>,
    /// Per-site environments, in site order.
    pub sites: Vec<SiteWorld>,
}

impl FleetWorld {
    /// Generate the fleet world: the shared trace forks against the
    /// per-site environments, and the environments fan out one
    /// [`par::sharded_map`] slot per site. All draws come from named (or
    /// site-indexed) RNG streams, so the result is bit-identical at every
    /// thread count.
    ///
    /// # Panics
    /// If the fleet fails [`FleetScenario::validate`].
    pub fn build(fleet: &FleetScenario) -> FleetWorld {
        fleet.assert_valid();
        let (trace, sites) = par::join(
            || World::build_trace(&fleet.base),
            || {
                par::sharded_map(fleet.sites.len(), |i| {
                    let (weather, grid) = World::environment(&fleet.sites[i].scenario);
                    SiteWorld { weather, grid }
                })
            },
        );
        FleetWorld { trace, sites }
    }
}

/// What the router reads about one site at one arrival.
#[derive(Debug, Clone, Copy)]
struct SiteSignals {
    /// The site's machine size, GPUs.
    gpu_cap: u32,
    /// Router-side queue-pressure estimate: routed-but-undrained work in
    /// machine-hours (backlog GPU-hours / machine size). An estimate by
    /// design — see the module docs.
    queue_pressure_hours: f64,
    /// Mean forecast carbon intensity over the next
    /// [`ROUTE_FORECAST_HOURS`], kg/MWh.
    forecast_ci_kg_mwh: f64,
    /// Mean forecast energy price over the next
    /// [`ROUTE_FORECAST_HOURS`], $/MWh.
    forecast_price_usd_mwh: f64,
}

/// [`RoutingPolicyKind::CostBased`]'s weight on normalized forecast
/// carbon intensity.
const COST_CARBON_WEIGHT: f64 = 1.0;
/// [`RoutingPolicyKind::CostBased`]'s weight on normalized forecast price.
const COST_PRICE_WEIGHT: f64 = 0.5;
/// [`RoutingPolicyKind::CostBased`]'s weight on normalized queue pressure.
const COST_PRESSURE_WEIGHT: f64 = 1.0;

/// [`RoutingPolicyKind::CostBased`]'s pick: score every feasible site on
/// a weighted sum of its carbon, price and queue-pressure signals — each
/// normalized by the feasible maximum, so the weights compare
/// like-for-like — and take the minimum (ties toward the lower index).
fn cost_based(signals: &[SiteSignals], feasible: &[usize]) -> usize {
    let max_of =
        |f: fn(&SiteSignals) -> f64| feasible.iter().map(|&i| f(&signals[i])).fold(0.0, f64::max);
    let ci_max = max_of(|s| s.forecast_ci_kg_mwh);
    let price_max = max_of(|s| s.forecast_price_usd_mwh);
    let pressure_max = max_of(|s| s.queue_pressure_hours);
    let rel = |x: f64, max: f64| if max > 0.0 { x / max } else { 0.0 };
    argmin_by(feasible, |i| {
        let s = &signals[i];
        COST_CARBON_WEIGHT * rel(s.forecast_ci_kg_mwh, ci_max)
            + COST_PRICE_WEIGHT * rel(s.forecast_price_usd_mwh, price_max)
            + COST_PRESSURE_WEIGHT * rel(s.queue_pressure_hours, pressure_max)
    })
}

/// Router-side queue-pressure estimate for one site: backlog GPU-hours
/// over machine size, in machine-hours. A zero-GPU site can never drain
/// work, so its pressure saturates at `f64::INFINITY` — never the NaN
/// that `x / 0` would otherwise smuggle into cost-based scores and the
/// byte-stable route log. [`FleetScenario::validate`] rejects zero-cap
/// sites outright and the routing pass never offers one to a policy, so
/// the saturated value is defense in depth, not a reachable signal.
fn site_pressure(backlog_gpu_hours: f64, gpu_cap: u32) -> f64 {
    if gpu_cap == 0 {
        f64::INFINITY
    } else {
        backlog_gpu_hours / gpu_cap as f64
    }
}

/// First index in `feasible` minimizing `score` (strict-less scan, so
/// ties break toward the lower site index — deterministic).
fn argmin_by(feasible: &[usize], score: impl Fn(usize) -> f64) -> usize {
    let mut best = feasible[0];
    let mut best_score = score(best);
    for &i in &feasible[1..] {
        let s = score(i);
        if s < best_score {
            best = i;
            best_score = s;
        }
    }
    best
}

/// The routing-policy families (the routing analogue of `PolicyKind`).
/// [`FleetDriver::route`] applies them, once per arriving job in submit
/// order, to the feasible sites; every pick depends only on the fleet, its
/// world and the jobs routed before, so route records are byte-comparable
/// across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicyKind {
    /// Everything to the first feasible site (site 0 whenever it fits the
    /// gang). The routing analogue of FCFS: the reference every arbitrage
    /// policy is compared against, and the policy under which a 1-site
    /// fleet reproduces the single-site run bit-for-bit.
    Static,
    /// Round-robin over the feasible sites: the `k`-th routed job goes to
    /// `feasible[k mod |feasible|]`. A capacity-spreading reference with
    /// no carbon awareness.
    RoundRobin,
    /// Greedy geo-temporal carbon arbitrage: the feasible site with the
    /// lowest forecast-window mean carbon intensity (ties toward the lower
    /// site index). Ignores price and queue pressure — the upper bound on
    /// how much carbon pure placement can chase.
    GreedyCarbon,
    /// The minimum of a weighted carbon + price + queue-pressure score,
    /// each signal normalized by its feasible maximum (weights 1, 0.5
    /// and 1).
    CostBased,
}

impl RoutingPolicyKind {
    /// Every routing family, for comparison sweeps.
    pub const COMPARISON_SET: [RoutingPolicyKind; 4] = [
        RoutingPolicyKind::Static,
        RoutingPolicyKind::RoundRobin,
        RoutingPolicyKind::GreedyCarbon,
        RoutingPolicyKind::CostBased,
    ];

    /// Stable label (used in manifests, cell ids and report lines).
    pub fn label(&self) -> &'static str {
        match self {
            RoutingPolicyKind::Static => "static",
            RoutingPolicyKind::RoundRobin => "round-robin",
            RoutingPolicyKind::GreedyCarbon => "greedy-carbon",
            RoutingPolicyKind::CostBased => "cost-based",
        }
    }

    /// Inverse of [`RoutingPolicyKind::label`].
    pub fn by_label(label: &str) -> Option<RoutingPolicyKind> {
        RoutingPolicyKind::COMPARISON_SET
            .into_iter()
            .find(|k| k.label() == label)
    }
}

/// One routing decision: which site got trace position `index`, and the
/// chosen site's signals at decision time. [`RouteRecord::to_line`]
/// renders the bit-exact token form fleet reports embed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteRecord {
    /// Position in the shared trace (also the engine's arrival index on
    /// the originating trace).
    pub index: usize,
    /// The job's **global** id in the shared trace (per-site sub-traces
    /// renumber densely; this field keeps the mapping).
    pub job: JobId,
    /// Chosen site index.
    pub site: u32,
    /// Submission time.
    pub submit: SimTime,
    /// Gang size after clamping to the chosen site's machine size.
    pub gpus: u32,
    /// Nominal work, GPU-hours.
    pub work_gpu_hours: f64,
    /// The chosen site's queue-pressure estimate at decision time,
    /// machine-hours.
    pub queue_pressure_hours: f64,
    /// The chosen site's forecast-window mean carbon intensity at
    /// decision time, kg/MWh.
    pub forecast_ci_kg_mwh: f64,
}

impl RouteRecord {
    /// Longest line [`RouteRecord::encode`] writes, plus one spare byte
    /// for a caller's newline: the tag, then, each after a space, three
    /// 64-bit decimals (up to 20 digits), two 32-bit ones (up to 10) and
    /// three 16-digit hex words.
    const LINE_CAP: usize = "route".len() + 3 * 21 + 2 * 11 + 3 * 17 + 1;

    /// Render as one whitespace-separated line: integers in decimal,
    /// floats as bit-exact hex (the campaign artifact idiom), so two
    /// routing runs compare byte-for-byte.
    pub fn to_line(&self) -> String {
        let mut buf = [0; RouteRecord::LINE_CAP];
        let len = self.encode(&mut buf);
        ascii(&buf[..len]).to_owned()
    }

    /// Encode the [`RouteRecord::to_line`] form into `buf` (no trailing
    /// newline) and return its length; `buf[len]` is free for one. The
    /// one route-line writer: the report text and its digest both take
    /// these bytes.
    fn encode(&self, buf: &mut [u8; RouteRecord::LINE_CAP]) -> usize {
        buf[..5].copy_from_slice(b"route");
        let mut at = 5;
        for v in [
            self.index as u64,
            self.job.0,
            self.site.into(),
            self.submit.0,
            self.gpus.into(),
        ] {
            buf[at] = b' ';
            at = put_decimal(buf, at + 1, v);
        }
        for f in [
            self.work_gpu_hours,
            self.queue_pressure_hours,
            self.forecast_ci_kg_mwh,
        ] {
            buf[at] = b' ';
            at = put_hex16(buf, at + 1, f.to_bits());
        }
        at
    }
}

/// `PAIRS[i]`: the two ASCII digits of `i` in base `radix`, for every
/// `i < radix²`, so an encoder writes two digits per lookup.
const fn digit_pairs<const N: usize>(radix: usize) -> [[u8; 2]; N] {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut pairs = [[0; 2]; N];
    let mut i = 0;
    while i < N {
        pairs[i] = [DIGITS[i / radix], DIGITS[i % radix]];
        i += 1;
    }
    pairs
}

/// Write `v` in decimal at `buf[at..]`; returns the end position.
fn put_decimal(buf: &mut [u8], at: usize, mut v: u64) -> usize {
    const PAIRS: [[u8; 2]; 100] = digit_pairs(10);
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    while v >= 100 {
        start -= 2;
        digits[start..start + 2].copy_from_slice(&PAIRS[(v % 100) as usize]);
        v /= 100;
    }
    if v >= 10 {
        start -= 2;
        digits[start..start + 2].copy_from_slice(&PAIRS[v as usize]);
    } else {
        start -= 1;
        digits[start] = b'0' + v as u8;
    }
    let end = at + digits.len() - start;
    buf[at..end].copy_from_slice(&digits[start..]);
    end
}

/// Write `v` as 16 lower-case hex digits at `buf[at..]`; returns the end
/// position.
fn put_hex16(buf: &mut [u8], at: usize, v: u64) -> usize {
    const PAIRS: [[u8; 2]; 256] = digit_pairs(16);
    for (out, byte) in buf[at..at + 16].chunks_exact_mut(2).zip(v.to_be_bytes()) {
        out.copy_from_slice(&PAIRS[byte as usize]);
    }
    at + 16
}

/// The encoder's bytes as text: they are ASCII by construction.
fn ascii(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("route lines are ASCII")
}

/// Everything a fleet run produces: per-site [`RunOutput`]s, the routing
/// decision stream, and fleet-level rollups.
#[derive(Debug, Clone)]
pub struct FleetRunOutput {
    /// Fleet name.
    pub fleet_name: String,
    /// The routing policy that ran.
    pub routing: RoutingPolicyKind,
    /// Per-site reports, in site order.
    pub sites: Vec<RunOutput>,
    /// The routing decision records, in submit order.
    pub routes: Vec<RouteRecord>,
    /// How many routed jobs had their gang clamped to the chosen site's
    /// machine size (`RouteRecord::gpus` < the trace's gang). A non-zero
    /// count means the replayed workload no longer matches the shared
    /// trace — paired comparisons must not silently mutate the workload,
    /// so the count is surfaced on the report's totals line instead of
    /// being absorbed. Zero for every fleet whose sites all fit the
    /// base-capped trace (any `spread` fleet with site clusters ≥ the
    /// base cluster).
    pub truncated_jobs: usize,
    /// Fleet-level aggregate rollup: additive totals summed in site
    /// order, `hours`/`peak_power_kw` as maxima (site peaks need not
    /// align in time, so the fleet peak is the largest single-site peak).
    pub totals: RunAggregates,
    /// Fleet-level job-statistic rollup: counts and GPU-hours summed,
    /// means weighted by per-site completions, `p95_wait_hours` as the
    /// max over sites (a conservative bound — exact fleet quantiles need
    /// per-job records).
    pub jobs: JobStats,
}

impl FleetRunOutput {
    /// Write the byte-stable fleet report: a header, one line per site,
    /// every routing record, and the totals line, floats as `to_bits`
    /// hex. Deterministic at any thread count (perf tooling compares the
    /// bytes across `RAYON_NUM_THREADS` values).
    /// [`FleetRunOutput::to_text`] collects it into a `String` and
    /// [`FleetRunOutput::report_digest`] hashes the same bytes.
    pub fn write_report<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        self.emit(out, |out, line| out.write_str(ascii(line)))
    }

    /// The report, with every route line (newline included) handed to
    /// `route_line` as [`RouteRecord::encode`] bytes and the few other
    /// lines formatted into `out`.
    fn emit<W: fmt::Write>(
        &self,
        out: &mut W,
        mut route_line: impl FnMut(&mut W, &[u8]) -> fmt::Result,
    ) -> fmt::Result {
        writeln!(
            out,
            "fleet {} routing={} sites={} routed={}",
            self.fleet_name,
            self.routing.label(),
            self.sites.len(),
            self.routes.len(),
        )?;
        for (i, site) in self.sites.iter().enumerate() {
            writeln!(
                out,
                "site {} {} routed={} completed={} energy_kwh={:016x} carbon_kg={:016x} \
                 cost_usd={:016x}",
                i,
                site.scenario_name,
                site.jobs.submitted,
                site.jobs.completed,
                site.aggregates.energy_kwh.to_bits(),
                site.aggregates.carbon_kg.to_bits(),
                site.aggregates.cost_usd.to_bits(),
            )?;
        }
        let mut buf = [0; RouteRecord::LINE_CAP];
        for r in &self.routes {
            let len = r.encode(&mut buf);
            buf[len] = b'\n';
            route_line(out, &buf[..=len])?;
        }
        writeln!(
            out,
            "total completed={} energy_kwh={:016x} carbon_kg={:016x} cost_usd={:016x} \
             truncated_jobs={}",
            self.jobs.completed,
            self.totals.energy_kwh.to_bits(),
            self.totals.carbon_kg.to_bits(),
            self.totals.cost_usd.to_bits(),
            self.truncated_jobs,
        )
    }

    /// The [`FleetRunOutput::write_report`] report as a `String`.
    pub fn to_text(&self) -> String {
        let mut text = String::new();
        self.write_report(&mut text)
            .expect("writing to a String cannot fail");
        text
    }

    /// FNV-1a digest of the exact [`FleetRunOutput::to_text`] bytes,
    /// streamed through [`Fnv1a`] as the report is written: route lines
    /// go in as encoded bytes, and nothing is materialized.
    pub fn report_digest(&self) -> u64 {
        let mut hasher = Fnv1a::new();
        self.emit(&mut hasher, |hasher, line| {
            hasher.write_bytes(line);
            Ok(())
        })
        .expect("writing to a hasher cannot fail");
        hasher.finish()
    }
}

/// The fleet simulation driver (the multi-site counterpart of
/// [`SimDriver`]).
pub struct FleetDriver;

impl FleetDriver {
    /// Build the fleet world and run it, aggregates-only observation.
    pub fn run(fleet: &FleetScenario) -> FleetRunOutput {
        let world = FleetWorld::build(fleet);
        Self::run_observed(fleet, &world, Observe::aggregates())
    }

    /// Stage 1 only: walk the shared trace in submit order and assign
    /// every job a site. Pure sequential function of `(fleet, world)` —
    /// byte-identical records at any thread count (the routing
    /// determinism property tests pin this).
    ///
    /// Feasibility: sites whose machine fits the gang whole. If no site
    /// does, every *powered* (non-zero-cap) site is offered and the gang
    /// is clamped to the chosen site's machine (mirroring the single-site
    /// world builder's gang cap) — each such clamp is counted in
    /// [`FleetRunOutput::truncated_jobs`], because a clamped gang means
    /// the replayed workload no longer matches the shared trace.
    pub fn route(fleet: &FleetScenario, world: &FleetWorld) -> Vec<RouteRecord> {
        fleet.assert_valid();
        assert_eq!(
            world.sites.len(),
            fleet.sites.len(),
            "fleet world was built for a different site count"
        );
        let n = fleet.sites.len();
        let caps: Vec<u32> = fleet
            .sites
            .iter()
            .map(|s| s.scenario.cluster.total_gpus())
            .collect();
        let horizon = fleet.base.horizon_hours;
        // Router-side backlog estimate, GPU-hours per site; drained at
        // full-machine rate between consecutive arrivals.
        let mut backlog = vec![0.0f64; n];
        let mut last = SimTime::ZERO;
        // Forecast signals depend only on the arrival hour, so they are
        // recomputed when the hour changes; queue pressure moves per job.
        let mut signals: Vec<SiteSignals> = caps
            .iter()
            .map(|&gpu_cap| SiteSignals {
                gpu_cap,
                queue_pressure_hours: 0.0,
                forecast_ci_kg_mwh: f64::NAN,
                forecast_price_usd_mwh: f64::NAN,
            })
            .collect();
        let mut signal_hour = None;
        let mut feasible = Vec::with_capacity(n);
        let mut records = Vec::with_capacity(world.trace.len());
        for (index, job) in world.trace.iter().enumerate() {
            let dt = (job.submit - last).hours_f64();
            last = job.submit;
            for (s, b) in signals.iter_mut().zip(&mut backlog) {
                *b = (*b - dt * s.gpu_cap as f64).max(0.0);
                s.queue_pressure_hours = site_pressure(*b, s.gpu_cap);
            }
            let h = (job.submit.hours_f64() as usize).min(horizon.saturating_sub(1));
            if signal_hour != Some(h) {
                signal_hour = Some(h);
                for (s, sw) in signals.iter_mut().zip(&world.sites) {
                    s.forecast_ci_kg_mwh = sw.grid.window_mean_ci(h, ROUTE_FORECAST_HOURS);
                    s.forecast_price_usd_mwh = sw.grid.window_mean_price(h, ROUTE_FORECAST_HOURS);
                }
            }
            feasible.clear();
            feasible.extend((0..n).filter(|&i| caps[i] >= job.gpus));
            if feasible.is_empty() {
                // No site fits the gang whole: offer every *powered* site
                // and clamp the gang to the pick (recorded — see
                // `FleetRunOutput::truncated_jobs`). Zero-cap sites stay
                // excluded even here, so `site_pressure`'s saturated
                // (infinite) estimate never reaches a policy's score.
                feasible.extend((0..n).filter(|&i| caps[i] > 0));
            }
            let site = match fleet.routing {
                RoutingPolicyKind::Static => feasible[0],
                // Every job is routed once, in order: `index` counts the
                // jobs routed before this one.
                RoutingPolicyKind::RoundRobin => feasible[index % feasible.len()],
                RoutingPolicyKind::GreedyCarbon => {
                    argmin_by(&feasible, |i| signals[i].forecast_ci_kg_mwh)
                }
                RoutingPolicyKind::CostBased => cost_based(&signals, &feasible),
            };
            assert!(
                feasible.contains(&site),
                "routing policy `{}` picked infeasible site {site}",
                fleet.routing.label()
            );
            let gpus = job.gpus.min(caps[site]);
            backlog[site] += job.work_gpu_hours;
            records.push(RouteRecord {
                index,
                job: job.id,
                site: site as u32,
                submit: job.submit,
                gpus,
                work_gpu_hours: job.work_gpu_hours,
                queue_pressure_hours: signals[site].queue_pressure_hours,
                forecast_ci_kg_mwh: signals[site].forecast_ci_kg_mwh,
            });
        }
        records
    }

    /// Route, then replay every site independently (one
    /// [`par::sharded_map`] slot per site) and roll the reports up.
    ///
    /// Per-site sub-traces preserve submit order and renumber job ids
    /// densely (the engine's fast apply path indexes per-job state by
    /// id); [`FleetRunOutput::routes`] keeps the global mapping. For the
    /// 1-site fleet the renumbering is the identity, which is what makes
    /// the degenerate case bit-exact.
    pub fn run_observed(
        fleet: &FleetScenario,
        world: &FleetWorld,
        observe: Observe,
    ) -> FleetRunOutput {
        let routes = Self::route(fleet, world);
        let truncated_jobs = routes
            .iter()
            .filter(|r| r.gpus < world.trace[r.index].gpus)
            .count();
        let n = fleet.sites.len();
        // Count each site's routes first, so no sub-trace ever re-grows.
        let mut counts = vec![0usize; n];
        for r in &routes {
            counts[r.site as usize] += 1;
        }
        let mut subtraces: Vec<Vec<Job>> = counts.into_iter().map(Vec::with_capacity).collect();
        for r in &routes {
            let sub = &mut subtraces[r.site as usize];
            let mut job = world.trace[r.index];
            job.id = JobId(sub.len() as u64);
            job.gpus = r.gpus;
            sub.push(job);
        }
        // Each site replays a view that borrows its environment from the
        // fleet world and its sub-trace from here: nothing is copied.
        let sites = par::sharded_map(n, |i| {
            let (scenario, env) = (&fleet.sites[i].scenario, &world.sites[i]);
            let view = WorldRef {
                seed: scenario.seed,
                gpu_cap: scenario.cluster.total_gpus(),
                weather: &env.weather,
                grid: &env.grid,
                trace: &subtraces[i],
            };
            SimDriver::observed(scenario, view, observe, false).0
        });
        let totals = rollup_aggregates(&sites);
        let jobs = rollup_jobs(&sites);
        FleetRunOutput {
            fleet_name: fleet.name.clone(),
            routing: fleet.routing,
            sites,
            routes,
            truncated_jobs,
            totals,
            jobs,
        }
    }
}

/// Sum per-site aggregates in site order (`hours` and `peak_power_kw` as
/// maxima — see [`FleetRunOutput::totals`]). For a 1-site fleet the
/// rollup reproduces the site's aggregates bit-for-bit (`0.0 + x == x`
/// for the positive totals involved).
fn rollup_aggregates(sites: &[RunOutput]) -> RunAggregates {
    let mut t = RunAggregates {
        hours: 0,
        energy_kwh: 0.0,
        carbon_kg: 0.0,
        cost_usd: 0.0,
        water_l: 0.0,
        it_energy_kwh: 0.0,
        peak_power_kw: f64::NEG_INFINITY,
        cooling_saturated_hours: 0,
        purchased: Energy::ZERO,
        green_weighted_kwh: 0.0,
        pue_sum: 0.0,
        pue_hours: 0,
    };
    for o in sites {
        let a = &o.aggregates;
        t.hours = t.hours.max(a.hours);
        t.energy_kwh += a.energy_kwh;
        t.carbon_kg += a.carbon_kg;
        t.cost_usd += a.cost_usd;
        t.water_l += a.water_l;
        t.it_energy_kwh += a.it_energy_kwh;
        t.peak_power_kw = t.peak_power_kw.max(a.peak_power_kw);
        t.cooling_saturated_hours += a.cooling_saturated_hours;
        t.purchased += a.purchased;
        t.green_weighted_kwh += a.green_weighted_kwh;
        t.pue_sum += a.pue_sum;
        t.pue_hours += a.pue_hours;
    }
    t
}

/// Roll per-site [`JobStats`] up: counts and GPU-hours summed, means
/// weighted by completions, `p95_wait_hours` as the max over sites.
fn rollup_jobs(sites: &[RunOutput]) -> JobStats {
    let mut s = JobStats::default();
    let mut wait_weighted = 0.0;
    let mut slowdown_weighted = 0.0;
    for o in sites {
        let j = &o.jobs;
        s.submitted += j.submitted;
        s.completed += j.completed;
        s.unfinished += j.unfinished;
        s.slo_violations += j.slo_violations;
        s.gpu_hours_completed += j.gpu_hours_completed;
        s.p95_wait_hours = s.p95_wait_hours.max(j.p95_wait_hours);
        wait_weighted += j.mean_wait_hours * j.completed as f64;
        slowdown_weighted += j.mean_slowdown * j.completed as f64;
    }
    if s.completed > 0 {
        s.mean_wait_hours = wait_weighted / s.completed as f64;
        s.mean_slowdown = slowdown_weighted / s.completed as f64;
        s.slo_violation_fraction = s.slo_violations as f64 / s.completed as f64;
    }
    s
}

/// Fingerprint a fleet end to end for the equivalence harness: fleet
/// totals' energy/carbon bits and the completion count; for 1-site fleets
/// the site's per-job records ride along, so the degenerate pin compares
/// the full decision stream (multi-site record streams are per-site and
/// carry no cross-site order, so they are omitted — the harness skips
/// one-sided record comparison).
pub fn fingerprint(fleet: &FleetScenario) -> Fingerprint {
    let world = FleetWorld::build(fleet);
    let out = FleetDriver::run_observed(fleet, &world, Observe::aggregates().with_job_records());
    let records = if out.sites.len() == 1 {
        out.sites[0].job_records.clone()
    } else {
        None
    };
    Fingerprint::of_totals(&out.totals, &out.jobs, records)
}

/// One fully-resolved fleet run of a [`FleetPlan`].
#[derive(Debug, Clone)]
pub struct FleetCell {
    /// Position in plan order.
    pub index: usize,
    /// Stable id: `<plan>/routing=<label>/seed=<s>` — unique,
    /// whitespace-free.
    pub id: String,
    /// The concrete fleet (base + sites reseeded, routing applied; the
    /// cell's seed is `fleet.base.seed`).
    pub fleet: FleetScenario,
}

/// An expanded fleet manifest: ordered cells, routing axis outer, seeds
/// innermost — the same row-major contract as [`crate::campaign`].
#[derive(Debug, Clone)]
pub struct FleetPlan {
    /// Plan name.
    pub name: String,
    /// The cells; `cells[i].index == i`.
    pub cells: Vec<FleetCell>,
}

/// One fleet cell's results as carried by shard artifacts and merged
/// fleet-campaign reports: the fleet-level rollups
/// ([`FleetRunOutput::totals`] / [`FleetRunOutput::jobs`]), the routing
/// workload counters, and an FNV-1a digest of the cell's full byte-stable
/// [`FleetRunOutput::to_text`] report. The full report (per-site lines
/// and the routing record stream) is too large to ship one-per-line
/// through artifacts, but its digest pins it bit-for-bit: two merged
/// fleet-campaign reports agree iff every cell's full report agreed. The
/// digest is streamed over the report as it is written
/// ([`FleetRunOutput::report_digest`]), so the report text itself is
/// never materialized.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCellResult {
    /// The cell's plan index (merge position).
    pub index: usize,
    /// The cell's stable id.
    pub id: String,
    /// The routing policy the cell ran.
    pub routing: RoutingPolicyKind,
    /// How many jobs the router assigned (the shared trace's length).
    pub routed_jobs: usize,
    /// How many routed jobs had their gang clamped
    /// ([`FleetRunOutput::truncated_jobs`] — non-zero means the replayed
    /// workload diverged from the shared trace).
    pub truncated_jobs: usize,
    /// FNV-1a digest of the exact bytes of the cell's full
    /// [`FleetRunOutput::to_text`] report, streamed by
    /// [`FleetRunOutput::report_digest`] without building the text.
    pub report_digest: u64,
    /// Fleet-level aggregate rollup.
    pub totals: RunAggregates,
    /// Fleet-level job-statistic rollup.
    pub jobs: JobStats,
}

impl FleetCellResult {
    /// Condense one fleet run into the artifact record for plan position
    /// `index`. The report digest is streamed
    /// ([`FleetRunOutput::report_digest`]): the per-cell report, one line
    /// per routed job, is hashed as it is written and never materialized.
    pub fn from_output(
        index: usize,
        id: impl Into<String>,
        out: &FleetRunOutput,
    ) -> FleetCellResult {
        FleetCellResult {
            index,
            id: id.into(),
            routing: out.routing,
            routed_jobs: out.routes.len(),
            truncated_jobs: out.truncated_jobs,
            report_digest: out.report_digest(),
            totals: out.totals,
            jobs: out.jobs.clone(),
        }
    }

    /// Serialize to one artifact line: 28 whitespace-separated tokens,
    /// floats as `to_bits` hex (the campaign artifact idiom), so a parse
    /// round-trip is bit-exact.
    pub fn to_line(&self) -> String {
        let mut line = format!(
            "fleet-cell {} {} {} {} {} {:016x}",
            self.index,
            self.id,
            self.routing.label(),
            self.routed_jobs,
            self.truncated_jobs,
            self.report_digest,
        );
        write_totals(&mut line, &self.totals, &self.jobs);
        line
    }

    /// Parse one artifact line (inverse of [`FleetCellResult::to_line`]).
    pub fn parse_line(line: &str) -> Result<FleetCellResult, CampaignError> {
        let t: Vec<&str> = line.split_whitespace().collect();
        if t.len() != 28 || t[0] != "fleet-cell" {
            return Err(CampaignError {
                msg: format!(
                    "malformed fleet-cell line (expected 28 tokens starting `fleet-cell`, \
                     got {}): `{line}`",
                    t.len()
                ),
            });
        }
        let routing = RoutingPolicyKind::by_label(t[3]).ok_or_else(|| CampaignError {
            msg: format!("unknown routing label `{}` in fleet-cell line", t[3]),
        })?;
        let report_digest = u64::from_str_radix(t[6], 16).map_err(|_| CampaignError {
            msg: format!("bad report digest token `{}`", t[6]),
        })?;
        let (totals, jobs) = parse_totals(&t[7..])?;
        Ok(FleetCellResult {
            index: parse_usize(t[1])?,
            id: t[2].to_string(),
            routing,
            routed_jobs: parse_usize(t[4])?,
            truncated_jobs: parse_usize(t[5])?,
            report_digest,
            totals,
            jobs,
        })
    }
}

impl CellRecord for FleetCellResult {
    fn index(&self) -> usize {
        self.index
    }

    fn id(&self) -> &str {
        &self.id
    }

    fn to_line(&self) -> String {
        FleetCellResult::to_line(self)
    }

    fn parse_line(line: &str) -> Result<FleetCellResult, CampaignError> {
        FleetCellResult::parse_line(line)
    }
}

impl FleetPlan {
    /// Run cell `i` over its world.
    fn run_cell(&self, i: usize, world: &FleetWorld) -> FleetCellResult {
        let cell = &self.cells[i];
        let out = FleetDriver::run_observed(&cell.fleet, world, Observe::aggregates());
        FleetCellResult::from_output(cell.index, &cell.id, &out)
    }

    /// The world cache for one pass over `ranges`. It keys on
    /// [`FleetScenario::world_inputs_key`], which is routing-invariant: a
    /// routing axis over one base fleet builds each seed's `FleetWorld`
    /// once per in-process pass, or once per worker's shard, replays every
    /// routing cell over it and drops it after the last, the fleet
    /// analogue of the campaign layer's policy-axis reuse. Sites differ in
    /// their environment configs, so there is no environment to share.
    fn world_cache(&self, ranges: &[Range<usize>]) -> LastUseCache<FleetWorld> {
        LastUseCache::new(
            self.cells[span(ranges)]
                .iter()
                .map(|c| c.fleet.world_inputs_key()),
        )
    }

    /// [`Plan::run_ranges`] over `worlds`.
    fn run_reusing(
        &self,
        ranges: &[Range<usize>],
        worlds: &LastUseCache<FleetWorld>,
    ) -> Vec<thread::Result<Vec<FleetCellResult>>> {
        let base = span(ranges).start;
        per_range(ranges, |range| {
            range
                .map(|i| {
                    let build = || FleetWorld::build(&self.cells[i].fleet);
                    worlds.with(i - base, build, |world| self.run_cell(i, world))
                })
                .collect()
        })
    }
}

impl Plan for FleetPlan {
    type Record = FleetCellResult;

    const MANIFEST_FILE: &'static str = "manifest.fleet";

    fn name(&self) -> &str {
        &self.name
    }

    fn len(&self) -> usize {
        self.cells.len()
    }

    fn cell_id(&self, index: usize) -> &str {
        &self.cells[index].id
    }

    fn cell_config(&self, index: usize) -> String {
        format!("{:?}", self.cells[index].fleet)
    }

    fn run_ranges(&self, ranges: &[Range<usize>]) -> Vec<thread::Result<Vec<FleetCellResult>>> {
        self.run_reusing(ranges, &self.world_cache(ranges))
    }

    fn reference_record(&self, index: usize) -> FleetCellResult {
        self.run_cell(index, &FleetWorld::build(&self.cells[index].fleet))
    }
}

/// A parsed (or programmatically built) fleet manifest. See the module
/// docs for the text format.
#[derive(Debug, Clone)]
pub struct FleetManifest {
    /// Plan name (whitespace-free — it prefixes every cell id).
    pub name: String,
    /// The fleet every cell starts from.
    pub fleet: FleetScenario,
    /// Routing axis (outer), in declaration order.
    pub routings: Vec<RoutingPolicyKind>,
    /// Seed axis (innermost).
    pub seeds: Vec<u64>,
}

impl FleetManifest {
    /// A programmatic manifest: the fleet's own routing and base seed as
    /// the single-value axes.
    pub fn new(name: impl Into<String>, fleet: FleetScenario) -> FleetManifest {
        FleetManifest {
            name: name.into(),
            routings: vec![fleet.routing],
            seeds: vec![fleet.base.seed],
            fleet,
        }
    }

    /// Builder-style: replace the routing axis.
    ///
    /// # Panics
    /// If `routings` is empty.
    #[must_use]
    pub fn with_routings(mut self, routings: Vec<RoutingPolicyKind>) -> FleetManifest {
        assert!(!routings.is_empty(), "the routing axis needs a value");
        self.routings = routings;
        self
    }

    /// Builder-style: replace the seed axis.
    ///
    /// # Panics
    /// If `seeds` is empty.
    #[must_use]
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> FleetManifest {
        assert!(!seeds.is_empty(), "a fleet plan needs at least one seed");
        self.seeds = seeds;
        self
    }

    /// Parse a text manifest (format in the module docs). Reuses the
    /// campaign manifest's line loop (comments, duplicate keys) and its
    /// grammar for `base` and `seeds`; `sites = N` derives the fleet via
    /// [`FleetScenario::spread`].
    pub fn parse(text: &str) -> Result<FleetManifest, ManifestError> {
        let mut name: Option<String> = None;
        let mut base: Option<Scenario> = None;
        let mut sites: usize = 1;
        let mut routings: Option<Vec<RoutingPolicyKind>> = None;
        let mut seeds: Option<Vec<u64>> = None;
        for_each_entry(text, |line_no, key, value| {
            match key {
                "name" => {
                    if value.contains(char::is_whitespace) {
                        return err(
                            line_no,
                            format!("plan name `{value}` must be whitespace-free"),
                        );
                    }
                    name = Some(value.to_string());
                }
                "base" => base = Some(parse_base(value, line_no)?),
                "sites" => match value.parse::<usize>() {
                    Ok(n) if n > 0 => sites = n,
                    _ => {
                        return err(
                            line_no,
                            format!("`sites` needs a positive site count, got `{value}`"),
                        )
                    }
                },
                "seeds" => seeds = Some(parse_seeds(value, line_no)?),
                "axis routing" => {
                    let parse_one = |label: &str| match RoutingPolicyKind::by_label(label) {
                        Some(k) => Ok(k),
                        None => err(
                            line_no,
                            format!(
                                "unknown routing `{label}` (expected one of: {})",
                                RoutingPolicyKind::COMPARISON_SET
                                    .map(|k| k.label())
                                    .join(", ")
                            ),
                        ),
                    };
                    routings = Some(parse_axis_values("routing", value, line_no, parse_one)?);
                }
                _ if key.starts_with("axis ") => {
                    return err(
                        line_no,
                        format!(
                            "fleet manifests sweep only the `routing` axis, got `{key}` \
                             (per-scenario knobs sweep through the campaign layer)"
                        ),
                    );
                }
                _ => return err(line_no, format!("unknown key `{key}`")),
            }
            Ok(())
        })?;
        let Some(name) = name else {
            return err(0, "manifest is missing `name`");
        };
        let Some(base) = base else {
            return err(0, "manifest is missing `base`");
        };
        let seeds = seeds.unwrap_or_else(|| vec![base.seed]);
        let fleet = FleetScenario::spread(base, sites);
        Ok(FleetManifest {
            name,
            routings: routings.unwrap_or_else(|| vec![fleet.routing]),
            seeds,
            fleet,
        })
    }

    /// Expand into the ordered cell list — routing axis outer, seeds
    /// innermost, via the same [`gridn_indices`] odometer every campaign
    /// expansion walks. Fails on an invalid fleet, or on ids that fail the
    /// plan id check (an empty or spaced name, a repeated routing value).
    pub fn expand(&self) -> Result<FleetPlan, ManifestError> {
        if let Err(e) = self.fleet.validate() {
            return Err(ManifestError { line: 0, msg: e });
        }
        let dims = [self.routings.len(), self.seeds.len()];
        let mut cells = Vec::with_capacity(dims.iter().product());
        for (index, ix) in gridn_indices(&dims).into_iter().enumerate() {
            let routing = self.routings[ix[0]];
            let seed = self.seeds[ix[1]];
            let id = format!("{}/routing={}/seed={seed}", self.name, routing.label());
            let mut fleet = self.fleet.clone().with_routing(routing).with_seed(seed);
            fleet.name = id.clone();
            cells.push(FleetCell { index, id, fleet });
        }
        check_cell_ids(cells.iter().map(|c| c.id.as_str()))?;
        Ok(FleetPlan {
            name: self.name.clone(),
            cells,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::{self, assert_runners_equivalent, quick_matrix};
    use greener_simkit::rng::fnv1a;
    use std::collections::HashMap;

    /// The fleet equivalence axis: a 1-site fleet under static routing is
    /// the identity wrapper — it must reproduce the single-site
    /// [`SimDriver`] run bit-for-bit (energy/carbon bits, completions,
    /// and the full per-job decision stream) on the same matrix every
    /// other engine axis pins against.
    #[test]
    fn fleet_axis_single_site_static_reproduces_sim_driver() {
        assert_runners_equivalent(
            "fleet 1-site static",
            &quick_matrix(),
            equivalence::fingerprint,
            |s| fingerprint(&FleetScenario::single(s.clone())),
        );
    }

    fn quick_fleet(days: usize, seed: u64, sites: usize) -> FleetScenario {
        FleetScenario::spread(Scenario::quick(days, seed), sites)
    }

    #[test]
    fn spread_keeps_site0_on_base_and_varies_the_rest() {
        let base = Scenario::quick(5, 11);
        let fleet = FleetScenario::spread(base.clone(), 3);
        fleet.validate().unwrap();
        assert_eq!(fleet.sites[0].scenario.seed, base.seed);
        assert_eq!(
            fleet.sites[0].scenario.grid.wind_capacity_mw,
            base.grid.wind_capacity_mw
        );
        assert_ne!(fleet.sites[1].scenario.seed, base.seed);
        assert_ne!(
            fleet.sites[1].scenario.grid.wind_capacity_mw,
            base.grid.wind_capacity_mw
        );
        // Reseeding re-derives every site seed coherently.
        let reseeded = fleet.clone().with_seed(99);
        assert_eq!(reseeded.sites[0].scenario.seed, 99);
        assert_eq!(
            reseeded.sites[1].scenario.seed,
            RngHub::new(99).seed_for_indexed("fleet.site", 1)
        );
    }

    #[test]
    fn static_routes_everything_to_site0_and_round_robin_spreads() {
        let fleet = quick_fleet(7, 11, 3);
        let world = FleetWorld::build(&fleet);
        assert!(!world.trace.is_empty());

        let routes = FleetDriver::route(&fleet, &world);
        assert_eq!(routes.len(), world.trace.len());
        assert!(
            routes.iter().all(|r| r.site == 0),
            "static must pick site 0"
        );

        let rr = FleetDriver::route(
            &fleet.clone().with_routing(RoutingPolicyKind::RoundRobin),
            &world,
        );
        let mut used = std::collections::HashSet::new();
        for r in &rr {
            used.insert(r.site);
        }
        assert_eq!(used.len(), 3, "round-robin must cycle all feasible sites");
    }

    #[test]
    fn arbitrage_policies_change_carbon_but_not_the_workload() {
        let fleet = quick_fleet(10, 11, 3);
        let world = FleetWorld::build(&fleet);
        let outs: Vec<FleetRunOutput> = RoutingPolicyKind::COMPARISON_SET
            .iter()
            .map(|&k| {
                FleetDriver::run_observed(
                    &fleet.clone().with_routing(k),
                    &world,
                    Observe::aggregates(),
                )
            })
            .collect();
        // Same shared trace lands everywhere: routed-job totals agree.
        for o in &outs {
            assert_eq!(o.routes.len(), world.trace.len());
            assert_eq!(o.jobs.submitted, world.trace.len());
        }
        // Greedy carbon arbitrage actually moves the fleet carbon total
        // relative to the static reference on the spread (regionally
        // varied) grids.
        let static_carbon = outs[0].totals.carbon_kg.to_bits();
        let greedy_carbon = outs[2].totals.carbon_kg.to_bits();
        assert_ne!(
            static_carbon, greedy_carbon,
            "routing must matter on spread grids"
        );
    }

    #[test]
    fn single_site_rollup_is_bitwise_identity() {
        let fleet = FleetScenario::single(Scenario::quick(7, 42));
        let out = FleetDriver::run(&fleet);
        assert_eq!(out.sites.len(), 1);
        let site = &out.sites[0].aggregates;
        assert_eq!(out.totals.energy_kwh.to_bits(), site.energy_kwh.to_bits());
        assert_eq!(out.totals.carbon_kg.to_bits(), site.carbon_kg.to_bits());
        assert_eq!(out.totals.cost_usd.to_bits(), site.cost_usd.to_bits());
        assert_eq!(
            out.totals.peak_power_kw.to_bits(),
            site.peak_power_kw.to_bits()
        );
        assert_eq!(out.jobs, out.sites[0].jobs);
    }

    #[test]
    fn multi_site_rollup_sums_sites_in_order() {
        let fleet = quick_fleet(7, 11, 2).with_routing(RoutingPolicyKind::RoundRobin);
        let out = FleetDriver::run(&fleet);
        let sum: f64 = out
            .sites
            .iter()
            .fold(0.0, |acc, o| acc + o.aggregates.energy_kwh);
        assert_eq!(out.totals.energy_kwh.to_bits(), sum.to_bits());
        assert_eq!(
            out.jobs.completed,
            out.sites.iter().map(|o| o.jobs.completed).sum::<usize>()
        );
        assert!(out.totals.peak_power_kw >= out.sites[0].aggregates.peak_power_kw);
    }

    #[test]
    fn fleet_report_bytes_invariant_across_thread_counts() {
        let fleet = quick_fleet(7, 11, 3);
        let prior = std::env::var("RAYON_NUM_THREADS").ok();
        // Per routing: (text, digest) for every thread count.
        let mut reports = vec![Vec::new(); RoutingPolicyKind::COMPARISON_SET.len()];
        for threads in ["1", "4"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let world = FleetWorld::build(&fleet);
            for (k, &routing) in RoutingPolicyKind::COMPARISON_SET.iter().enumerate() {
                let out = FleetDriver::run_observed(
                    &fleet.clone().with_routing(routing),
                    &world,
                    Observe::aggregates(),
                );
                reports[k].push((out.to_text(), out.report_digest()));
            }
        }
        match prior {
            Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
        for (routing, runs) in RoutingPolicyKind::COMPARISON_SET.iter().zip(&reports) {
            for r in &runs[1..] {
                assert_eq!(
                    r,
                    &runs[0],
                    "{} fleet report must be byte-identical across thread counts",
                    routing.label()
                );
            }
        }
    }

    /// Report digests of `quick_fleet(7, 11, 3)` under every routing, in
    /// `COMPARISON_SET` order: any drift in the report bytes, the route
    /// pass or the replay shows here.
    const GOLDEN_FLEET_DIGESTS: [u64; 4] = [
        0xf337_ac7a_11ae_a114,
        0x68cd_d5b5_0f37_6bda,
        0xc145_25d9_6035_fac7,
        0x7368_4e83_171f_aa9b,
    ];

    /// Report digest of `quick_fleet(7, 11, 4)` under cost-based routing.
    /// On the 3-site fleet the price term never changes a pick; on this
    /// one, each of the three cost-based weights set to 0 moves the digest.
    const GOLDEN_COST_BASED_4_SITES: u64 = 0x6c42_60ca_6db6_11a8;

    #[test]
    fn golden_fleet_report_digests() {
        let fleet = quick_fleet(7, 11, 3);
        let world = FleetWorld::build(&fleet);
        // Several arrivals share an hour, so the route pass reuses its
        // hourly forecast signals across jobs.
        let mut per_hour = HashMap::new();
        for job in &world.trace {
            *per_hour.entry(job.submit.hours_f64() as usize).or_insert(0) += 1;
        }
        assert!(
            per_hour.values().any(|&n| n > 1),
            "no hour has two arrivals"
        );
        for (&routing, &golden) in RoutingPolicyKind::COMPARISON_SET
            .iter()
            .zip(&GOLDEN_FLEET_DIGESTS)
        {
            let out = FleetDriver::run_observed(
                &fleet.clone().with_routing(routing),
                &world,
                Observe::aggregates(),
            );
            let digest = out.report_digest();
            assert_eq!(digest, golden, "{}: digest {digest:#018x}", routing.label());
            assert_eq!(
                digest,
                fnv1a(out.to_text().as_bytes()),
                "{}",
                routing.label()
            );
        }
        let fleet = quick_fleet(7, 11, 4).with_routing(RoutingPolicyKind::CostBased);
        let out =
            FleetDriver::run_observed(&fleet, &FleetWorld::build(&fleet), Observe::aggregates());
        let digest = out.report_digest();
        assert_eq!(
            digest, GOLDEN_COST_BASED_4_SITES,
            "4-site cost-based: digest {digest:#018x}"
        );
    }

    #[test]
    fn golden_route_line() {
        let r = RouteRecord {
            index: 3,
            job: JobId(17),
            site: 2,
            submit: SimTime(5400),
            gpus: 8,
            work_gpu_hours: f64::NAN,
            queue_pressure_hours: -0.0,
            forecast_ci_kg_mwh: f64::INFINITY,
        };
        assert_eq!(
            r.to_line(),
            "route 3 17 2 5400 8 7ff8000000000000 8000000000000000 7ff0000000000000"
        );
    }

    /// The `write!` route-line writer [`RouteRecord::encode`] replaced,
    /// kept as the encoder's oracle.
    fn route_line_oracle(r: &RouteRecord) -> String {
        format!(
            "route {} {} {} {} {} {:016x} {:016x} {:016x}",
            r.index,
            r.job.0,
            r.site,
            r.submit.0,
            r.gpus,
            r.work_gpu_hours.to_bits(),
            r.queue_pressure_hours.to_bits(),
            r.forecast_ci_kg_mwh.to_bits(),
        )
    }

    /// Every integer at its maximum makes the longest line, which fills
    /// the encoder's buffer up to the newline's byte.
    #[test]
    fn longest_route_line_fits_the_encoder_buffer() {
        let r = RouteRecord {
            index: usize::MAX,
            job: JobId(u64::MAX),
            site: u32::MAX,
            submit: SimTime(u64::MAX),
            gpus: u32::MAX,
            work_gpu_hours: f64::NAN,
            queue_pressure_hours: f64::MIN,
            forecast_ci_kg_mwh: f64::MAX,
        };
        assert_eq!(r.to_line(), route_line_oracle(&r));
        assert_eq!(r.to_line().len(), RouteRecord::LINE_CAP - 1);
    }

    #[test]
    fn sub_traces_renumber_densely_and_routes_keep_global_ids() {
        let fleet = quick_fleet(7, 11, 3).with_routing(RoutingPolicyKind::RoundRobin);
        let world = FleetWorld::build(&fleet);
        let routes = FleetDriver::route(&fleet, &world);
        // Global ids in the records are the trace's dense ids.
        for r in &routes {
            assert_eq!(r.job, world.trace[r.index].id);
        }
        // Per-site arrival counts partition the trace.
        let mut per_site = vec![0usize; fleet.sites.len()];
        for r in &routes {
            per_site[r.site as usize] += 1;
        }
        assert_eq!(per_site.iter().sum::<usize>(), world.trace.len());
        let out = FleetDriver::run_observed(&fleet, &world, Observe::aggregates());
        for (i, site) in out.sites.iter().enumerate() {
            assert_eq!(site.jobs.submitted, per_site[i]);
        }
    }

    #[test]
    fn multi_site_fleet_replays_on_borrowed_environments_match_owned_worlds() {
        let base = quick_fleet(7, 11, 3);
        let world = FleetWorld::build(&base);
        let observe = Observe::aggregates()
            .with_telemetry()
            .with_ledger()
            .with_job_records()
            .with_queue_depth();
        // Round-robin renumbers every site's sub-trace; greedy-carbon sends
        // this trace to one site and leaves the other two empty.
        for routing in [
            RoutingPolicyKind::RoundRobin,
            RoutingPolicyKind::GreedyCarbon,
        ] {
            let fleet = base.clone().with_routing(routing);
            let out = FleetDriver::run_observed(&fleet, &world, observe);
            assert_eq!(out.sites.len(), 3);
            for (i, (site, env)) in fleet.sites.iter().zip(&world.sites).enumerate() {
                // An owned world per site, its sub-trace rebuilt from the
                // route records alone.
                let subtrace: Vec<Job> = out
                    .routes
                    .iter()
                    .filter(|r| r.site as usize == i)
                    .enumerate()
                    .map(|(k, r)| Job {
                        id: JobId(k as u64),
                        gpus: r.gpus,
                        ..world.trace[r.index]
                    })
                    .collect();
                let owned = World::from_parts(
                    site.scenario.seed,
                    site.scenario.cluster.total_gpus(),
                    env.weather.clone(),
                    env.grid.clone(),
                    subtrace,
                );
                let straight = SimDriver::run_observed(&site.scenario, &owned, observe);
                // `Debug` prints every f64 in its shortest round-trip form,
                // so equal text is equal bits.
                assert_eq!(
                    format!("{:?}", out.sites[i]),
                    format!("{straight:?}"),
                    "{routing:?} site {i}"
                );
            }
        }
    }

    #[test]
    fn validate_rejects_malformed_fleets() {
        let base = Scenario::quick(3, 7);
        let mut f = FleetScenario::single(base.clone());
        f.name = "has space".into();
        assert!(f.validate().unwrap_err().contains("whitespace-free"));

        let mut f = FleetScenario::spread(base.clone(), 2);
        f.sites[1].name = "site-0".into();
        assert!(f.validate().unwrap_err().contains("duplicate site name"));

        let mut f = FleetScenario::spread(base.clone(), 2);
        f.sites[1].scenario.horizon_hours += 24;
        assert!(f.validate().unwrap_err().contains("spans"));

        // A zero-hour fleet has no hour for per-site replay to index.
        let mut f = FleetScenario::spread(base, 2);
        f.base.horizon_hours = 0;
        for site in &mut f.sites {
            site.scenario.horizon_hours = 0;
        }
        let e = f.validate().unwrap_err();
        assert!(e.contains(&format!("fleet `{}`", f.name)), "{e}");
        assert!(e.contains("0 h"), "{e}");
    }

    #[test]
    fn validate_rejects_zero_gpu_sites() {
        let mut f = FleetScenario::spread(Scenario::quick(3, 7), 2);
        f.sites[1].scenario.cluster.nodes = 0;
        let e = f.validate().unwrap_err();
        assert!(e.contains("site-1"), "{e}");
        assert!(e.contains("zero-GPU"), "{e}");
    }

    #[test]
    fn site_pressure_saturates_instead_of_nan_on_zero_cap() {
        // The satellite bug: `backlog / cap as f64` with cap == 0 yields
        // NaN (0/0) or ±inf with a sign picked by the backlog — either
        // way a poisoned, non-comparable signal. The guard saturates.
        assert_eq!(site_pressure(0.0, 0), f64::INFINITY);
        assert_eq!(site_pressure(12.5, 0), f64::INFINITY);
        assert!(!site_pressure(0.0, 0).is_nan());
        // Powered sites keep the exact division.
        assert_eq!(site_pressure(12.0, 4), 3.0);
        assert_eq!(site_pressure(0.0, 8), 0.0);
    }

    #[test]
    fn oversized_gangs_are_clamped_and_counted() {
        // Shrink every site's machine below the base cluster that capped
        // the shared trace: some gangs can no longer fit anywhere, so the
        // router must clamp them — visibly.
        let mut fleet = quick_fleet(5, 11, 2).with_routing(RoutingPolicyKind::RoundRobin);
        for site in &mut fleet.sites {
            site.scenario.cluster.nodes = 1;
        }
        fleet.validate().unwrap();
        let world = FleetWorld::build(&fleet);
        let cap = fleet.sites[0].scenario.cluster.total_gpus();
        let oversized = world.trace.iter().filter(|j| j.gpus > cap).count();
        assert!(oversized > 0, "trace must contain gangs over the site cap");
        let out = FleetDriver::run_observed(&fleet, &world, Observe::aggregates());
        assert_eq!(out.truncated_jobs, oversized);
        for r in &out.routes {
            assert!(r.gpus <= cap, "clamped gang exceeds the machine");
        }
        assert!(
            out.to_text()
                .contains(&format!(" truncated_jobs={oversized}\n")),
            "the totals line must surface the truncation count"
        );
        // A fleet whose sites all fit the trace reports zero.
        let clean = quick_fleet(5, 11, 2);
        assert_eq!(FleetDriver::run(&clean).truncated_jobs, 0);
        assert!(FleetDriver::run(&clean)
            .to_text()
            .contains(" truncated_jobs=0\n"));
    }

    #[test]
    fn routing_labels_round_trip() {
        for k in RoutingPolicyKind::COMPARISON_SET {
            assert_eq!(RoutingPolicyKind::by_label(k.label()), Some(k));
        }
        assert_eq!(RoutingPolicyKind::by_label("nope"), None);
    }

    #[test]
    fn manifest_rejects_malformed_input() {
        let err = |text: &str| FleetManifest::parse(text).unwrap_err();
        assert!(err("name = a b\nbase = quick:2@7\n")
            .msg
            .contains("whitespace-free"));
        assert!(err("name = p\n").msg.contains("missing `base`"));
        assert!(err("base = quick:2@7\n").msg.contains("missing `name`"));
        assert!(err("name = p\nbase = quick:2@7\nsites = 0\n")
            .msg
            .contains("positive site count"));
        assert!(err("name = p\nbase = quick:2@7\naxis routing = warp\n")
            .msg
            .contains("unknown routing"));
        assert!(err("name = p\nbase = quick:2@7\naxis policy = easy\n")
            .msg
            .contains("only the `routing` axis"));
        assert!(err("name = p\nbase = quick:2@7\nbogus = 1\n")
            .msg
            .contains("unknown key"));
        let e = err("name = p\nbase = quick:2@7\nname = q\n");
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("duplicate `name`"));
        let e = err("name = p\nbase = quick:2@7\nsites = 2\nsites = 3\n");
        assert_eq!(e.line, 4);
        assert!(e.msg.contains("duplicate `sites`"), "{e}");
        let e = err("name = p\nbase = quick:2@7\naxis routing = static, static\n");
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("repeats value `static`"), "{e}");
    }

    #[test]
    fn expand_rejects_repeated_routing_values() {
        let manifest = FleetManifest::new("p", FleetScenario::single(Scenario::quick(2, 7)))
            .with_routings(vec![RoutingPolicyKind::Static, RoutingPolicyKind::Static]);
        let err = manifest.expand().unwrap_err();
        assert!(err.msg.contains("duplicate cell id"), "{}", err.msg);
    }

    #[test]
    fn expand_rejects_empty_or_spaced_plan_names() {
        for name in ["", "two words"] {
            let manifest = FleetManifest::new(name, FleetScenario::single(Scenario::quick(2, 7)));
            let err = manifest.expand().unwrap_err();
            assert!(err.msg.contains("cell id"), "{}", err.msg);
        }
    }

    #[test]
    fn expanded_cells_apply_routing_and_seed() {
        let plan = FleetManifest::parse(
            "name = p\n\
             base = quick:2@7\n\
             sites = 2\n\
             axis routing = greedy-carbon, cost-based\n\
             seeds = 5..7\n",
        )
        .unwrap()
        .expand()
        .unwrap();
        assert_eq!(plan.cells.len(), 4);
        let c = &plan.cells[2];
        assert_eq!(c.id, "p/routing=cost-based/seed=5");
        assert_eq!(c.fleet.routing, RoutingPolicyKind::CostBased);
        assert_eq!(c.fleet.base.seed, 5);
        assert_eq!(c.fleet.sites[0].scenario.seed, 5);
        c.fleet.validate().unwrap();
    }

    /// A tiny 2-routing × 2-seed fleet plan shared by the record and
    /// artifact tests below.
    fn tiny_fleet_plan() -> FleetPlan {
        FleetManifest::parse(
            "name = tiny\n\
             base = quick:2@13\n\
             sites = 2\n\
             axis routing = static, greedy-carbon\n\
             seeds = 13..15\n",
        )
        .unwrap()
        .expand()
        .unwrap()
    }

    #[test]
    fn fleet_cell_line_round_trips_bit_exactly() {
        let plan = tiny_fleet_plan();
        let cells: Vec<FleetCellResult> =
            (0..plan.len()).map(|i| plan.reference_record(i)).collect();
        assert_eq!(cells.len(), 4);
        for c in &cells {
            let parsed = FleetCellResult::parse_line(&c.to_line()).unwrap();
            assert_eq!(&parsed, c);
        }
        // Adversarial float payloads survive too: the `to_bits` hex
        // encoding must round-trip NaN, signed zero and infinities —
        // values a `{}`/`parse` pair would garble or collapse.
        let mut c = cells[0].clone();
        c.totals.carbon_kg = f64::NAN;
        c.totals.energy_kwh = -0.0;
        c.jobs.mean_wait_hours = f64::NEG_INFINITY;
        let parsed = FleetCellResult::parse_line(&c.to_line()).unwrap();
        assert_eq!(
            parsed.totals.carbon_kg.to_bits(),
            c.totals.carbon_kg.to_bits()
        );
        assert_eq!(
            parsed.totals.energy_kwh.to_bits(),
            c.totals.energy_kwh.to_bits()
        );
        assert_eq!(
            parsed.jobs.mean_wait_hours.to_bits(),
            c.jobs.mean_wait_hours.to_bits()
        );
    }

    #[test]
    fn fleet_cell_parse_rejects_malformed_lines() {
        let plan = tiny_fleet_plan();
        let line = plan.reference_record(0).to_line();
        // Wrong token count and wrong leading token.
        let e = FleetCellResult::parse_line("fleet-cell 0 tiny").unwrap_err();
        assert!(e.msg.contains("28 tokens"), "{}", e.msg);
        assert!(FleetCellResult::parse_line(&line.replacen("fleet-cell", "cell", 1)).is_err());
        // Unknown routing label (token 3).
        let mut t: Vec<String> = line.split_whitespace().map(String::from).collect();
        t[3] = "warp".into();
        let e = FleetCellResult::parse_line(&t.join(" ")).unwrap_err();
        assert!(e.msg.contains("unknown routing label"), "{}", e.msg);
        // Non-hex report digest (token 6).
        let mut t: Vec<String> = line.split_whitespace().map(String::from).collect();
        t[6] = "not-hex-at-all!".into();
        let e = FleetCellResult::parse_line(&t.join(" ")).unwrap_err();
        assert!(e.msg.contains("bad report digest"), "{}", e.msg);
    }

    #[test]
    fn fleet_pass_shares_worlds_across_in_process_shards() {
        use crate::campaign::{
            merge_artifacts, partition, plan_fingerprint, run_campaign, CampaignReport,
            InProcessBackend, ShardArtifact,
        };
        // Routing outer, seeds inner: both shards need all three worlds,
        // and the routing-invariant world key lets every routing cell of a
        // seed share one.
        let plan = FleetManifest::parse(
            "name = pass\n\
             base = quick:2@21\n\
             sites = 2\n\
             axis routing = static, round-robin, greedy-carbon, cost-based\n\
             seeds = 21..24\n",
        )
        .unwrap()
        .expand()
        .unwrap();
        assert_eq!(plan.cells.len(), 12);
        let specs = partition(plan.len(), 2);
        let ranges: Vec<Range<usize>> = specs.iter().map(|s| s.start..s.end).collect();
        let worlds = plan.world_cache(&ranges);
        let outcomes = plan.run_reusing(&ranges, &worlds);
        assert_eq!(
            worlds.builds(),
            3,
            "one build per distinct world, not per shard"
        );
        let fp = plan_fingerprint(&plan);
        let artifacts: Vec<ShardArtifact> = outcomes
            .into_iter()
            .zip(&specs)
            .map(|(records, spec)| ShardArtifact::compose(fp, spec, &records.unwrap()))
            .collect();
        let shared = merge_artifacts(&plan, &artifacts).unwrap().to_text();
        let reference = CampaignReport {
            name: plan.name.clone(),
            cells: (0..plan.len()).map(|i| plan.reference_record(i)).collect(),
        }
        .to_text();
        assert_eq!(shared, reference);
        let merged = run_campaign(&plan, &InProcessBackend, 2).unwrap();
        assert_eq!(merged.to_text(), reference);
    }

    mod props {
        use super::*;
        use crate::campaign::{
            merge_artifacts, partition, plan_fingerprint, run_campaign, CampaignReport,
            InProcessBackend, ShardArtifact, ShardBackend,
        };
        use proptest::prelude::*;

        /// Float edges: both NaN signs, both infinities, negative zero and
        /// the subnormal extremes.
        const FLOAT_EDGES: [f64; 8] = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            -f64::from_bits(1),
        ];

        /// `0` or `max` for picks 0 and 1, else `raw` folded below `max`.
        fn edge_int(pick: u8, raw: u64, max: u64) -> u64 {
            match pick {
                0 => 0,
                1 => max,
                _ => raw % max,
            }
        }

        /// A [`FLOAT_EDGES`] value for pick 0, else arbitrary bits.
        fn edge_float(pick: u8, raw: u64) -> f64 {
            match pick {
                0 => FLOAT_EDGES[raw as usize % FLOAT_EDGES.len()],
                _ => f64::from_bits(raw),
            }
        }

        proptest! {
            /// For arbitrary records, integers at 0 and their maxima and
            /// floats at their edges included, the byte encoder writes
            /// exactly the `write!` oracle's line, and the report holds it
            /// followed by a newline.
            #[test]
            fn route_line_encoder_matches_write_oracle(
                picks in prop::collection::vec(0u8..3, 8),
                raw in prop::collection::vec(0u64..u64::MAX, 8),
            ) {
                let r = RouteRecord {
                    index: edge_int(picks[0], raw[0], usize::MAX as u64) as usize,
                    job: JobId(edge_int(picks[1], raw[1], u64::MAX)),
                    site: edge_int(picks[2], raw[2], u32::MAX.into()) as u32,
                    submit: SimTime(edge_int(picks[3], raw[3], u64::MAX)),
                    gpus: edge_int(picks[4], raw[4], u32::MAX.into()) as u32,
                    work_gpu_hours: edge_float(picks[5], raw[5]),
                    queue_pressure_hours: edge_float(picks[6], raw[6]),
                    forecast_ci_kg_mwh: edge_float(picks[7], raw[7]),
                };
                let oracle = route_line_oracle(&r);
                prop_assert_eq!(r.to_line(), oracle.clone());
                let out = FleetRunOutput {
                    fleet_name: "f".into(),
                    routing: RoutingPolicyKind::Static,
                    sites: Vec::new(),
                    routes: vec![r],
                    truncated_jobs: 0,
                    totals: rollup_aggregates(&[]),
                    jobs: JobStats::default(),
                };
                let text = out.to_text();
                prop_assert!(text.contains(&format!("\n{oracle}\n")), "{text}");
                prop_assert_eq!(out.report_digest(), fnv1a(text.as_bytes()));
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(
                crate::equivalence::proptest_cases(4)
            ))]

            /// Random small scenarios: the 1-site static fleet fingerprint
            /// equals the single-site driver fingerprint, decision stream
            /// included.
            #[test]
            fn single_site_static_fleet_matches_sim_driver(
                days in 3usize..6,
                seed in 0u64..1_000,
            ) {
                let s = Scenario::quick(days, seed);
                equivalence::fingerprint(&s)
                    .assert_same(&fingerprint(&FleetScenario::single(s.clone())), "prop 1-site fleet");
            }

            /// Routing determinism: identical fleet + trace + policy produce
            /// byte-identical routing decision records across thread
            /// counts.
            #[test]
            fn routing_records_thread_invariant(
                days in 3usize..6,
                seed in 0u64..1_000,
                sites in 2usize..4,
                kind_ix in 0usize..4,
            ) {
                let kind = RoutingPolicyKind::COMPARISON_SET[kind_ix];
                let fleet = FleetScenario::spread(Scenario::quick(days, seed), sites)
                    .with_routing(kind);
                let prior = std::env::var("RAYON_NUM_THREADS").ok();
                let mut streams = Vec::new();
                for threads in ["1", "4"] {
                    std::env::set_var("RAYON_NUM_THREADS", threads);
                    let world = FleetWorld::build(&fleet);
                    let lines: Vec<String> = FleetDriver::route(&fleet, &world)
                        .iter()
                        .map(RouteRecord::to_line)
                        .collect();
                    streams.push(lines.join("\n"));
                }
                match prior {
                    Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
                    None => std::env::remove_var("RAYON_NUM_THREADS"),
                }
                for s in &streams[1..] {
                    prop_assert_eq!(s, &streams[0]);
                }
            }

            /// Fleet sweeps through the campaign stack: for random small
            /// fleet manifests the merged fleet-campaign report equals the
            /// straight run of every cell byte for byte, across shard
            /// counts {1, 2, 7, cells} and `RAYON_NUM_THREADS` {1, 4} —
            /// the same merge-determinism invariant the campaign plan
            /// kind pins, now over [`FleetPlan`] records.
            #[test]
            fn fleet_campaign_merge_is_shard_and_thread_invariant(
                days in 2usize..4,
                seed in 0u64..500,
                sites in 1usize..3,
                routing_mask in 1usize..8,
                two_seeds in 0u8..2,
            ) {
                let all = [
                    RoutingPolicyKind::Static,
                    RoutingPolicyKind::GreedyCarbon,
                    RoutingPolicyKind::CostBased,
                ];
                let routings: Vec<RoutingPolicyKind> = all
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| routing_mask & (1 << i) != 0)
                    .map(|(_, &k)| k)
                    .collect();
                let plan = FleetManifest::new(
                    "prop",
                    FleetScenario::spread(Scenario::quick(days, seed), sites),
                )
                .with_routings(routings)
                .with_seeds(if two_seeds == 1 {
                    vec![seed, seed + 1]
                } else {
                    vec![seed]
                })
                .expand()
                .unwrap();
                let reference = CampaignReport {
                    name: plan.name.clone(),
                    cells: (0..plan.len()).map(|i| plan.reference_record(i)).collect(),
                }
                .to_text();
                let prior = std::env::var("RAYON_NUM_THREADS").ok();
                for threads in ["1", "4"] {
                    std::env::set_var("RAYON_NUM_THREADS", threads);
                    for k in [1, 2, 7, plan.cells.len()] {
                        let merged = run_campaign(&plan, &InProcessBackend, k).unwrap().to_text();
                        prop_assert!(
                            merged == reference,
                            "diverged at shards={k} threads={threads}"
                        );
                    }
                }
                match prior {
                    Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
                    None => std::env::remove_var("RAYON_NUM_THREADS"),
                }
            }
        }

        /// One valid fleet artifact, built once and shared across all
        /// proptest cases (cheap mutations of expensive-to-produce text —
        /// the same shape as the campaign-side corruption property).
        fn golden_fleet() -> &'static (FleetPlan, u64, ShardArtifact) {
            static GOLDEN: std::sync::OnceLock<(FleetPlan, u64, ShardArtifact)> =
                std::sync::OnceLock::new();
            GOLDEN.get_or_init(|| {
                let plan = super::tiny_fleet_plan();
                let fp = plan_fingerprint(&plan);
                let artifact =
                    InProcessBackend.run_shard(&plan, &partition(plan.cells.len(), 1)[0]);
                (plan, fp, artifact)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(
                crate::equivalence::proptest_cases(16)
            ))]
            /// Random damage to a valid **fleet** artifact is always
            /// detected: truncation at any byte offset, and a single-bit
            /// flip of any byte, must fail validation and be refused by
            /// the merge — the v1 checksum trailer covers `fleet-cell`
            /// lines exactly as it covers campaign `cell` lines.
            #[test]
            fn fleet_artifact_corruption_is_always_detected(
                cut in 0usize..1_000_000,
                flip_pos in 0usize..1_000_000,
                flip_bit in 0u8..8,
            ) {
                let (plan, fp, artifact) = golden_fleet();
                let n = artifact.text.len();

                let truncated = ShardArtifact {
                    text: artifact.text[..cut % n].to_string(),
                };
                prop_assert!(truncated.validate(plan, *fp, None).is_err());
                prop_assert!(merge_artifacts(plan, &[truncated]).is_err());

                let mut bytes = artifact.text.clone().into_bytes();
                bytes[flip_pos % n] ^= 1 << flip_bit;
                if let Ok(text) = String::from_utf8(bytes) {
                    let flipped = ShardArtifact { text };
                    prop_assert!(flipped.validate(plan, *fp, None).is_err());
                    prop_assert!(merge_artifacts(plan, &[flipped]).is_err());
                }
            }
        }
    }
}
