//! The experiment-campaign layer: manifest → plan → shards → merge.
//!
//! Single runs are cheap now (sub-ms/simulated-month on the small world),
//! so throughput lives *across* runs. This module turns a declarative
//! campaign description into an ordered plan of cells, executes the plan
//! in shards, and merges per-shard serialized artifacts into one report —
//! deterministically: for a fixed manifest the merged report is
//! **bit-identical for every shard count and every `RAYON_NUM_THREADS`**
//! (the merge-determinism standing invariant, pinned by the
//! [`crate::equivalence::assert_campaign_equivalent`] axis).
//!
//! Four cooperating pieces:
//!
//! * **[`CampaignManifest`]** ([`manifest`]) — base preset + named axes ×
//!   values + seed range, parsed from a small hand-rolled `key = value`
//!   text format or built programmatically.
//! * **[`CampaignPlan`]** ([`plan`]) — the deterministic row-major
//!   expansion (first axis outermost, seeds innermost, via
//!   [`greener_simkit::sweep::gridn_indices`]) into cells with stable ids.
//! * **[`ShardBackend`] / [`run_campaign`]** ([`exec`]) — contiguous shard
//!   partition, per-shard execution behind a serialization boundary, a
//!   shard-local world cache, and the index-ordered merge. World identity
//!   comes from the two specs the world builders read
//!   ([`Scenario::world_inputs_key`] is their text); a shard shares one
//!   environment among the worlds that need it and drops each world after
//!   its last cell. Artifacts are **versioned and checksummed**
//!   ([`ShardArtifact`]): a v1 header carries the producing plan's
//!   fingerprint ([`exec::plan_fingerprint`]) and shard range, an FNV-1a
//!   trailer seals the content, and [`merge_artifacts`] validates every
//!   artifact before accepting a single cell — truncated, corrupt, or
//!   stale files are rejected with a precise error.
//! * **[`process::ProcessBackend`]** ([`process`]) — the fault-tolerant
//!   process-per-shard backend: one worker process per shard (`perfjson
//!   campaign-worker`), per-shard wall-clock timeouts that kill hung
//!   workers, capped exponential backoff with deterministic seeded jitter
//!   (no `SystemTime` in decision paths), artifact validation before
//!   acceptance, and resume (shards with valid artifacts on disk are
//!   skipped). Its merged report is byte-identical to
//!   [`InProcessBackend`]'s — any shard count, with faults injected and
//!   retried, across resume boundaries.
//!
//! # Artifact directory layout & resume
//!
//! A supervised campaign keeps its durable state in one directory:
//!
//! ```text
//! <dir>/manifest.campaign     # manifest text workers re-expand
//! <dir>/shard-<i>-of-<k>.art  # one validated ShardArtifact per shard
//! <dir>/shard-<i>-of-<k>.ok   # completion marker (written after the artifact)
//! ```
//!
//! On re-run, a shard whose artifact + marker exist and validate (version,
//! checksum, plan fingerprint, range, cell coverage) is **resumed** —
//! satisfied from disk without spawning a worker. Editing the manifest
//! changes the plan fingerprint, so stale artifacts are rejected and
//! re-run rather than silently merged. Damaged leftovers are deleted and
//! their shards re-executed.
//!
//! # Fault injection
//!
//! Workers honor `GREENER_FAULT` — a comma-separated list of
//! `mode:shard[@attempts]` entries with modes `crash`, `hang`, `corrupt`,
//! `truncate` (see [`process::FaultPlan`] for a runnable example). Faults
//! fire only while the 0-based `GREENER_WORKER_ATTEMPT` ordinal is below
//! the entry's attempt count (default 1), so retries run clean and
//! supervised campaigns complete despite every injected failure — the CI
//! `campaign-faults` smoke runs exactly that matrix.
//!
//! # Plan kinds: campaign and fleet sweeps
//!
//! The execution stack is generic over the **[`Plan`] seam** (plan +
//! [`CellRecord`], see [`exec`]): everything from [`partition`] through
//! [`ShardArtifact`] validation, [`merge_artifacts`], [`run_campaign`]
//! and the supervised [`process::ProcessBackend`] works identically for
//! two plan kinds —
//!
//! * **[`CampaignPlan`]** (`cell` records, manifest published as
//!   `manifest.campaign`, built by [`process::ProcessBackend::new`]),
//! * **[`crate::fleet::FleetPlan`]** (`fleet-cell` records, manifest
//!   published as `manifest.fleet`, built by
//!   [`process::ProcessBackend::new_fleet`]; workers run in `perfjson
//!   fleet-campaign-worker` mode).
//!
//! A fleet sweep therefore inherits the whole fault-tolerance story —
//! timeouts, seeded-backoff retries, fault injection, artifact
//! validation, resume — with zero bespoke code paths, and its merged
//! report obeys the same merge-determinism invariant:
//!
//! ```
//! use greener_core::campaign::{run_campaign, InProcessBackend};
//! use greener_core::fleet::FleetManifest;
//!
//! let plan = FleetManifest::parse(
//!     "name = demo
//!      base = quick:2@7
//!      sites = 2
//!      axis routing = static, greedy-carbon",
//! )
//! .unwrap()
//! .expand()
//! .unwrap();
//! let backend = InProcessBackend::default();
//! let one = run_campaign(&plan, &backend, 1).unwrap().to_text();
//! let three = run_campaign(&plan, &backend, 3).unwrap().to_text();
//! assert_eq!(one, three);
//! assert!(one.lines().nth(1).unwrap().starts_with("fleet-cell"));
//! ```
//!
//! # Manifest format
//!
//! Line-oriented; `#` starts a comment; blank lines ignored. Each key may
//! appear once and each axis value once per axis; a repeat is an error at
//! its line. Fleet manifests share this line grammar.
//!
//! ```text
//! name  = <token>                  # required; prefixes every cell id
//! base  = <preset>[@<seed>]        # required; quick:<days> | small_2y
//!                                  #   | baseline_2y | one_year
//! seeds = <lo>..<hi> | s1, s2, …   # optional; default = base seed
//! axis <knob> = v1, v2, …          # 0+ axes, outermost first
//! ```
//!
//! Knobs and value syntax: `policy` (`fcfs | sjf | easy | easy_depth:<k> |
//! cap:<watts> | temp | carbon:<green-share> | green_queues:<watts> |
//! carbon_temp`), `horizon_days` / `nodes` (positive integers),
//! `arrival_rate` / `surge_mult` / `qs_mult` / `slo_wait_hours` (positive
//! reals), `forecast` (`oracle | naive | model`), `deadline`
//! (`status_quo | uniform_spread | winter_spring | rolling`).
//!
//! Cells expand row-major in axis declaration order with the seed axis
//! innermost; each cell's id is
//! `<name>/<knob>=<label>/…/seed=<seed>` and doubles as its scenario
//! name.
//!
//! # Example
//!
//! ```
//! use greener_core::campaign::{CampaignManifest, InProcessBackend, run_campaign};
//!
//! let manifest = CampaignManifest::parse(
//!     "name  = demo
//!      base  = quick:3@7          # 3-day world, default seed 7
//!      seeds = 1..3               # half-open: seeds 1 and 2
//!      axis policy = fcfs, easy   # outermost axis
//!      axis slo_wait_hours = 12, 24",
//! )
//! .unwrap();
//! let plan = manifest.expand().unwrap();
//! assert_eq!(plan.len(), 2 * 2 * 2);
//! // Policy and SLO are replay-side knobs: one world per seed.
//! assert_eq!(plan.distinct_worlds(), 2);
//! assert_eq!(plan.cells[0].id, "demo/policy=fcfs/slo_wait_hours=12.0/seed=1");
//!
//! // Merged output is bit-identical for any shard count.
//! let backend = InProcessBackend::default();
//! let two = run_campaign(&plan, &backend, 2).unwrap();
//! let eight = run_campaign(&plan, &backend, 8).unwrap();
//! assert_eq!(two.to_text(), eight.to_text());
//! assert!(two.get(&plan.cells[0].id).unwrap().aggregates.energy_kwh > 0.0);
//! ```
//!
//! [`Scenario::world_inputs_key`]: crate::scenario::Scenario::world_inputs_key

pub mod exec;
pub mod manifest;
pub mod plan;
pub mod process;

pub use exec::{
    merge_artifacts, partition, plan_fingerprint, run_campaign, ArtifactIssue, CampaignError,
    CampaignReport, CellRecord, CellResult, InProcessBackend, Plan, ShardArtifact, ShardBackend,
    ShardError, ShardSpec,
};
pub use manifest::{Axis, AxisValue, CampaignManifest, Knob, ManifestError};
pub use plan::{CampaignCell, CampaignPlan};
pub use process::{
    CampaignRunReport, FaultMode, FaultPlan, ProcessBackend, ShardRunStats, SupervisorConfig,
    WorkerCommand,
};
