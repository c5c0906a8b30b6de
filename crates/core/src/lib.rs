//! # greener-core
//!
//! The core of the `greener` workspace: the paper's optimization framework
//! (Eq. 1 / Eq. 2), the year-scale datacenter simulation that ties every
//! substrate together, and the experiment harness that regenerates each
//! figure and table of *"A Green(er) World for A.I."* (IPDPSW 2022).
//!
//! ## Quick start
//!
//! ```
//! use greener_core::scenario::Scenario;
//! use greener_core::driver::SimDriver;
//!
//! // A small scenario: 14 simulated days starting Jan 1 2020.
//! let scenario = Scenario::quick(14, 42);
//! let result = SimDriver::run(&scenario);
//! println!(
//!     "energy {:.1} kWh, carbon {:.1} kg, {} jobs done",
//!     result.telemetry.total_energy_kwh(),
//!     result.telemetry.total_carbon_kg(),
//!     result.jobs.completed,
//! );
//! assert!(result.telemetry.total_energy_kwh() > 0.0);
//! ```
//!
//! When a caller needs only a slice of a run, it says so: the driver's
//! replay loop emits typed observation points to a composable probe set
//! (see [`probe`]), and [`driver::SimDriver::run_observed`] takes an
//! [`Observe`] spec selecting the outputs. Aggregates-only observation
//! (`Observe::aggregates()`) is the fast path sweeps run on:
//!
//! ```
//! use greener_core::driver::{SimDriver, World};
//! use greener_core::probe::Observe;
//! use greener_core::scenario::Scenario;
//!
//! let scenario = Scenario::quick(7, 42);
//! let world = World::build(&scenario);
//! let out = SimDriver::run_observed(&scenario, &world, Observe::aggregates());
//! // Totals and job stats are always produced; nothing else was retained.
//! assert!(out.aggregates.energy_kwh > 0.0);
//! assert!(out.telemetry.is_none() && out.job_records.is_none());
//! ```
//!
//! ## Module map
//!
//! * [`scenario`] — the full configuration bundle (cluster, grid, climate,
//!   workload, policy, strategy) with presets.
//! * [`driver`] — the discrete-event simulation loop.
//! * [`probe`] — the run-observation layer: built-in probes, the
//!   [`Observe`] spec and the [`RunOutput`] report surface.
//! * [`profile`] — the replay loop's exact, always-on counters, returned
//!   by [`driver::SimDriver::run_profiled`].
//! * [`equivalence`] — the reference-vs-optimized test harness: run a
//!   scenario matrix across two engine configurations and assert
//!   bit-identical results (every fast path in the workspace is pinned
//!   through it).
//! * [`accounting`] — energy/carbon/cost/water accounting, opportunity
//!   costs (§II-A) and the footprint-estimate-variance analysis (§IV-B).
//! * [`strategy`] — energy-purchasing strategies: green-window utilization
//!   shifting and battery storage (§II-A).
//! * [`campaign`] — the experiment-campaign layer: declarative manifests
//!   expanding into ordered plans, shard-and-merge execution behind a
//!   serialization boundary, and world-reuse caching across cells that
//!   share world inputs.
//! * [`fleet`] — the multi-site layer: per-site worlds over one shared
//!   trace, a routing tier with geo-temporal carbon arbitrage policies,
//!   and fleet manifests that expand like any other axis set.
//! * [`optimize`] — Eq. 1 (facility-level) and Eq. 2 (per-user) problems
//!   with a parallel grid-search optimizer (its grid search expands
//!   through the campaign planner).
//! * [`stress`] — the Dodd-Frank-style stress-test harness (§II-B).
//! * [`trends`] — the Fig. 1 compute-trend dataset and doubling-time fits.
//! * [`experiments`] — figure/table regeneration (F1–F5, T1).
//! * [`ablations`] — the quantified §II–§IV claims (E6–E15).

pub mod ablations;
pub mod accounting;
pub mod campaign;
pub mod driver;
pub mod equivalence;
pub mod experiments;
pub mod fleet;
pub mod optimize;
pub mod probe;
pub mod profile;
pub mod scenario;
pub mod strategy;
pub mod stress;
pub mod trends;

pub use campaign::{CampaignManifest, CampaignPlan, CampaignReport};
pub use driver::{JobStats, RunResult, SimDriver};
pub use fleet::{FleetDriver, FleetManifest, FleetRunOutput, FleetScenario, RoutingPolicyKind};
pub use probe::{Observe, RunAggregates, RunOutput};
pub use profile::ReplayProfile;
pub use scenario::{ForecastMode, Scenario};
