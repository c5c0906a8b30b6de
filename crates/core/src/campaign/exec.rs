//! Shard-and-merge campaign execution over pass-wide world and replay
//! caches.
//!
//! A plan is partitioned into K contiguous shards; each shard runs
//! independently through a [`ShardBackend`] and returns a **serialized**
//! aggregate artifact; the artifacts are merged back in cell-index order
//! into one [`CampaignReport`]. The serialization boundary is deliberate:
//! a backend that ships shards to worker processes (or machines) and
//! returns their stdout is a drop-in — the merge only ever sees artifact
//! text.
//!
//! # The merge-determinism invariant
//!
//! For a fixed plan, the merged report is **bit-identical for every shard
//! count K and every `RAYON_NUM_THREADS`**: each cell's result is a pure
//! function of its scenario (the engine's determinism invariants), shards
//! partition the plan, and the merge places results by cell index — never
//! by completion order. Floats cross the artifact boundary as
//! `f64::to_bits` hex, so serialization cannot round. The
//! `assert_campaign_equivalent` axis in [`crate::equivalence`] pins every
//! merged record's artifact line, byte for byte, against the straight run
//! of its cell ([`Plan::reference_record`]).
//!
//! # The plan seam
//!
//! Everything here is generic over [`Plan`]: an ordered cell list with
//! stable ids, a runner for contiguous cell ranges, a per-cell reference
//! run, and a per-cell [`CellRecord`] that serializes to one artifact
//! line. [`CampaignPlan`] (scenario sweeps) and
//! [`crate::fleet::FleetPlan`] (fleet routing sweeps) both implement it,
//! so fleet manifests shard, supervise, resume and merge through the
//! **same** backends — partitioning, artifact validation, merging and the
//! equivalence axis have zero plan-kind-specific code paths. A backend
//! has one entry point, [`ShardBackend::run_shards`], which runs the
//! shards of one pass.
//!
//! # The world and replay caches
//!
//! [`InProcessBackend`] asks the plan to run all shards' cell ranges, one
//! thread per range, over caches shared by the threads of that call (a
//! worker process runs one shard, so its caches cover just that shard's
//! range). Identity comes from the inputs, not from a hand-kept field
//! list:
//!
//! * the world builders read only [`EnvSpec`](crate::driver::EnvSpec) and
//!   [`TraceSpec`], and
//!   [`Scenario::world_inputs_key`] is their text;
//! * a replay reads the whole scenario except its report-time fields (the
//!   name and the SLO threshold, read only when the replay is finished),
//!   and [`Scenario::replay_inputs_key`] is the text of
//!   [`Scenario::replay_inputs`], the scenario with those two reset. A
//!   field added later is a replay input until it is reset there.
//!
//! Before running, [`CampaignPlan`] keys every cell of the ranges by its
//! replay, every replay by its world and every world by its environment,
//! and walks the cells through one last-use cache per kind
//! (`LastUseCache`), chained in that order:
//!
//! * a replay is run by the first cell to need it, in whichever shard,
//!   over the aggregates-only observation fast path
//!   ([`SimDriver::replay_aggregates`]), finished under each matching
//!   cell's SLO, and dropped after its last cell, so cells that differ only
//!   in report-time fields replay once;
//! * a world is built by the first replay to need it, replayed by every
//!   matching replay, and dropped after the last one is built; a cell whose
//!   replay is cached never touches a world;
//! * an environment is built once per in-process pass, or once per
//!   worker's shard, and shared by every world that needs it: a world
//!   whose environment an earlier world built generates only its trace
//!   and holds the environment through an `Arc`, so no world copies one.
//!
//! On a policy-only campaign this turns O(cells) world builds into
//! O(distinct seeds) per pass; an SLO axis adds no replays; on a
//! trace-knob sweep (arrival rate, deadline policy, nodes) it turns
//! O(cells) environment builds into O(distinct seeds), and a pass never
//! holds a world or a replay no later cell needs. The fleet plan caches
//! whole fleet worlds, keyed per site, the same way; its sites differ in
//! environment config, so it shares no environments, and every axis it
//! sweeps reaches decisions, so it caches no replays. Building a fresh
//! world and replaying the full scenario for every cell survives only as
//! the reference, [`Plan::reference_record`]: a reset field that reached
//! a decision would make the cached record differ from it.
//!
//! [`Scenario::world_inputs_key`]: crate::scenario::Scenario::world_inputs_key
//! [`Scenario::replay_inputs_key`]: crate::scenario::Scenario::replay_inputs_key
//! [`Scenario::replay_inputs`]: crate::scenario::Scenario::replay_inputs
//!
//! A shard that panics ends as a [`ShardError::Panic`] that names it. A
//! shard waiting for a build that panicked in another shard fails the
//! same way instead of waiting forever.

use std::any::Any;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::Hash;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;

use greener_simkit::par;
use greener_simkit::rng::fnv1a;
use greener_simkit::sweep;
use greener_simkit::units::Energy;

use greener_climate::WeatherPath;
use greener_grid::mix::GridPath;
use greener_workload::Job;

use crate::driver::{AggregatesReplay, JobStats, SimDriver, TraceSpec, World, WorldRef};
use crate::probe::RunAggregates;
use crate::scenario::Scenario;

use super::plan::{env_key, CampaignPlan};

/// An error while parsing or merging shard artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignError {
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "campaign: {}", self.msg)
    }
}

impl std::error::Error for CampaignError {}

fn cerr<T>(msg: impl Into<String>) -> Result<T, CampaignError> {
    Err(CampaignError { msg: msg.into() })
}

/// Why an artifact was rejected, split by layer: [`ArtifactIssue::Parse`]
/// means the text is not structurally a versioned artifact at all,
/// [`ArtifactIssue::Validation`] means it is well-formed but wrong —
/// stale (plan fingerprint mismatch), corrupt/truncated (checksum
/// mismatch), or covering the wrong cells. Supervisors map the two onto
/// [`ShardError::Parse`] / [`ShardError::Validation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactIssue {
    /// The text does not have the v1 artifact shape (bad header, missing
    /// checksum trailer, unparseable cell line).
    Parse(String),
    /// Structurally sound but semantically rejected (stale, corrupt,
    /// truncated, mis-ranged, or mismatching the plan).
    Validation(String),
}

impl ArtifactIssue {
    /// The human-readable rejection reason.
    pub fn msg(&self) -> &str {
        match self {
            ArtifactIssue::Parse(m) | ArtifactIssue::Validation(m) => m,
        }
    }
}

impl std::fmt::Display for ArtifactIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactIssue::Parse(m) => write!(f, "artifact parse: {m}"),
            ArtifactIssue::Validation(m) => write!(f, "artifact validation: {m}"),
        }
    }
}

impl std::error::Error for ArtifactIssue {}

/// Why a shard failed to produce an accepted artifact. This is the error
/// surface of the backend seam ([`ShardBackend::run_shards`] returns one
/// outcome per shard): the in-process backend reports a panicking shard,
/// and process-per-shard supervisors classify every failure mode so retry
/// policy and run reports can tell a hung worker from a corrupt artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The worker process could not be spawned at all.
    Spawn {
        /// Shard ordinal.
        shard: usize,
        /// The OS error.
        msg: String,
    },
    /// The worker exited with a failure status.
    Exit {
        /// Shard ordinal.
        shard: usize,
        /// Exit code, if the process was not signal-killed.
        code: Option<i32>,
    },
    /// The worker outlived the per-attempt wall-clock budget and was
    /// killed.
    Timeout {
        /// Shard ordinal.
        shard: usize,
        /// The budget that expired, in milliseconds.
        timeout_ms: u64,
    },
    /// The artifact text was structurally malformed.
    Parse {
        /// Shard ordinal.
        shard: usize,
        /// The parse failure.
        msg: String,
    },
    /// The artifact parsed but failed validation (stale plan fingerprint,
    /// checksum mismatch, wrong shard range, coverage holes).
    Validation {
        /// Shard ordinal.
        shard: usize,
        /// The validation failure.
        msg: String,
    },
    /// The shard panicked while running in this process, or waited for a
    /// world build that panicked in another shard.
    Panic {
        /// Shard ordinal.
        shard: usize,
        /// The panic message.
        msg: String,
    },
}

impl ShardError {
    /// The shard this error belongs to.
    pub fn shard(&self) -> usize {
        match self {
            ShardError::Spawn { shard, .. }
            | ShardError::Exit { shard, .. }
            | ShardError::Timeout { shard, .. }
            | ShardError::Parse { shard, .. }
            | ShardError::Validation { shard, .. }
            | ShardError::Panic { shard, .. } => *shard,
        }
    }

    /// Wrap an [`ArtifactIssue`] for `shard`.
    pub fn from_issue(shard: usize, issue: ArtifactIssue) -> ShardError {
        match issue {
            ArtifactIssue::Parse(msg) => ShardError::Parse { shard, msg },
            ArtifactIssue::Validation(msg) => ShardError::Validation { shard, msg },
        }
    }
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Spawn { shard, msg } => write!(f, "shard {shard}: spawn failed: {msg}"),
            ShardError::Exit { shard, code } => match code {
                Some(c) => write!(f, "shard {shard}: worker exited with status {c}"),
                None => write!(f, "shard {shard}: worker killed by signal"),
            },
            ShardError::Timeout { shard, timeout_ms } => {
                write!(f, "shard {shard}: worker timed out after {timeout_ms} ms")
            }
            ShardError::Parse { shard, msg } => write!(f, "shard {shard}: {msg}"),
            ShardError::Validation { shard, msg } => write!(f, "shard {shard}: {msg}"),
            ShardError::Panic { shard, msg } => write!(f, "shard {shard}: panicked: {msg}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// One shard of a plan: the contiguous cell range `start..end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Shard ordinal, `0..of`.
    pub shard: usize,
    /// Total shard count.
    pub of: usize,
    /// First cell index (inclusive).
    pub start: usize,
    /// One past the last cell index.
    pub end: usize,
}

/// Partition `n_cells` into `k` contiguous, balanced shards (sizes differ
/// by at most one; earlier shards take the remainder). Shards with an
/// empty range are kept so `partition(n, k).len() == k` always holds —
/// they produce empty artifacts and merge away.
pub fn partition(n_cells: usize, k: usize) -> Vec<ShardSpec> {
    assert!(k > 0, "shard count must be positive");
    let base = n_cells / k;
    let extra = n_cells % k;
    let mut specs = Vec::with_capacity(k);
    let mut start = 0;
    for shard in 0..k {
        let len = base + usize::from(shard < extra);
        specs.push(ShardSpec {
            shard,
            of: k,
            start,
            end: start + len,
        });
        start += len;
    }
    specs
}

/// The per-cell result record a plan serializes into shard artifacts: one
/// whitespace-separated line per cell (first token a stable tag, floats
/// as `to_bits` hex), with `parse_line ∘ to_line` the identity.
/// [`CellResult`] (campaign cells) and
/// [`crate::fleet::FleetCellResult`] (fleet cells) implement it; the
/// artifact composer, validator, merge and report are generic over it.
pub trait CellRecord: Clone + Send + PartialEq + std::fmt::Debug {
    /// The cell's plan index (merge position).
    fn index(&self) -> usize;

    /// The cell's stable id.
    fn id(&self) -> &str;

    /// Serialize to one artifact line (bit-exact roundtrip through
    /// [`CellRecord::parse_line`]).
    fn to_line(&self) -> String;

    /// Parse one artifact line (inverse of [`CellRecord::to_line`]).
    fn parse_line(line: &str) -> Result<Self, CampaignError>;
}

/// A plan the campaign execution stack can shard, run, serialize and
/// merge: an ordered cell list with stable whitespace-free ids, a runner
/// for contiguous cell ranges, and a per-cell straight-run reference for
/// the equivalence axis. [`CampaignPlan`] and [`crate::fleet::FleetPlan`]
/// implement it — that shared seam is what routes fleet sweeps through
/// [`InProcessBackend`] and the supervised process backend with zero
/// bespoke code paths.
pub trait Plan: Sync {
    /// The record type this plan's cells produce.
    type Record: CellRecord;

    /// File name the process backend publishes the manifest under in its
    /// artifact directory (`manifest.campaign` / `manifest.fleet`), so
    /// the directory is self-describing about which worker mode
    /// re-expands it.
    const MANIFEST_FILE: &'static str;

    /// Plan name (prefixes every cell id).
    fn name(&self) -> &str;

    /// Number of cells.
    fn len(&self) -> usize;

    /// Whether the plan has no cells.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cell `index`'s stable id (unique within the plan,
    /// whitespace-free).
    fn cell_id(&self, index: usize) -> &str;

    /// Cell `index`'s debug-formatted full configuration, as sealed into
    /// [`plan_fingerprint`]. f64 fields render shortest-roundtrip in
    /// `Debug` (injective over finite values), so any configuration edit
    /// re-fingerprints the plan even when cell ids stay put.
    fn cell_config(&self, index: usize) -> String;

    /// Run `ranges` across threads (one per range, up to
    /// `RAYON_NUM_THREADS`) and return each range's records in plan
    /// order, or the payload of the panic that ended it.
    /// The ranges must follow one another in plan order, as [`partition`]
    /// makes them. Each distinct world is built once per call: the ranges
    /// share one cache, in which the first cell to need a world builds
    /// it, any other cell that needs it meanwhile waits for that build,
    /// and the world is dropped once its last cell in any range has
    /// finished. [`CampaignPlan`] caches replays the same way, one per
    /// distinct set of replay inputs.
    fn run_ranges(&self, ranges: &[Range<usize>]) -> Vec<thread::Result<Vec<Self::Record>>>;

    /// The straight run of cell `index`: a fresh world, no cache, no
    /// shard. Every record [`Plan::run_ranges`] returns must serialize to
    /// the same artifact line as this one, which
    /// [`crate::equivalence::assert_campaign_equivalent`] checks byte for
    /// byte.
    fn reference_record(&self, index: usize) -> Self::Record;
}

/// One cell's aggregate results, as carried by artifacts and reports.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The cell's plan index (merge position).
    pub index: usize,
    /// The cell's stable id.
    pub id: String,
    /// Aggregate run totals.
    pub aggregates: RunAggregates,
    /// Aggregate job statistics.
    pub jobs: JobStats,
    /// Battery wear, cycles.
    pub battery_cycles: f64,
}

/// Fingerprint of a fully-expanded plan: FNV-1a over the plan name, cell
/// count, and every cell's id **and** debug-formatted configuration
/// ([`Plan::cell_config`]). Two plans agree iff their expansions are
/// observably identical, so an artifact stamped with this fingerprint can
/// be rejected as *stale* when the manifest changed in any way —
/// including base-scenario edits that cell ids alone would not reveal.
pub fn plan_fingerprint<P: Plan>(plan: &P) -> u64 {
    let mut text = String::new();
    let _ = write!(text, "{}\u{1e}{}", plan.name(), plan.len());
    for i in 0..plan.len() {
        let _ = write!(
            text,
            "\u{1e}{}\u{1f}{}",
            plan.cell_id(i),
            plan.cell_config(i)
        );
    }
    fnv1a(text.as_bytes())
}

/// A shard's serialized output, in the **versioned v1 artifact format**:
///
/// ```text
/// artifact v1 plan <fp> shard <i> of <k> range <start> <end>
/// cell …                                    # one line per cell, in plan order
/// checksum <sum>
/// ```
///
/// where `<fp>` is the 16-hex-digit [`plan_fingerprint`] of the producing
/// plan and `<sum>` is the 16-hex-digit FNV-1a of every byte before the
/// checksum line. The trailer makes damage detectable: truncation at any
/// byte removes or mutilates the checksum line, and any single-byte
/// change in the covered region changes the digest (each FNV-1a step
/// `h ← (h ⊕ b)·p` is a bijection on `u64` for fixed `b`, so a one-byte
/// difference can never cancel out). [`ShardArtifact::validate`] is the
/// single gatekeeper; produced by a [`ShardBackend`], consumed by
/// [`merge_artifacts`] and the process supervisor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardArtifact {
    /// The artifact text.
    pub text: String,
}

/// `f64` → bit-exact hex token.
fn fbits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Bit-exact hex token → `f64`.
fn parse_fbits(tok: &str) -> Result<f64, CampaignError> {
    match u64::from_str_radix(tok, 16) {
        Ok(bits) => Ok(f64::from_bits(bits)),
        Err(_) => cerr(format!("bad f64 bits token `{tok}`")),
    }
}

pub(crate) fn parse_usize(tok: &str) -> Result<usize, CampaignError> {
    tok.parse::<usize>().map_err(|_| CampaignError {
        msg: format!("bad integer token `{tok}`"),
    })
}

/// Append a run's totals to an artifact line as 21 space-led tokens: the
/// [`RunAggregates`] fields, then the [`JobStats`] fields, floats as
/// `to_bits` hex. Shared by campaign and fleet cell lines.
pub(crate) fn write_totals(line: &mut String, a: &RunAggregates, j: &JobStats) {
    let _ = write!(
        line,
        " {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
        a.hours,
        fbits(a.energy_kwh),
        fbits(a.carbon_kg),
        fbits(a.cost_usd),
        fbits(a.water_l),
        fbits(a.it_energy_kwh),
        fbits(a.peak_power_kw),
        a.cooling_saturated_hours,
        fbits(a.purchased.0),
        fbits(a.green_weighted_kwh),
        fbits(a.pue_sum),
        a.pue_hours,
        j.submitted,
        j.completed,
        j.unfinished,
        fbits(j.mean_wait_hours),
        fbits(j.p95_wait_hours),
        fbits(j.mean_slowdown),
        j.slo_violations,
        fbits(j.slo_violation_fraction),
        fbits(j.gpu_hours_completed),
    );
}

/// Parse the first 21 tokens of `t` as written by [`write_totals`]. The
/// caller checks the line's token count.
pub(crate) fn parse_totals(t: &[&str]) -> Result<(RunAggregates, JobStats), CampaignError> {
    let aggregates = RunAggregates {
        hours: parse_usize(t[0])?,
        energy_kwh: parse_fbits(t[1])?,
        carbon_kg: parse_fbits(t[2])?,
        cost_usd: parse_fbits(t[3])?,
        water_l: parse_fbits(t[4])?,
        it_energy_kwh: parse_fbits(t[5])?,
        peak_power_kw: parse_fbits(t[6])?,
        cooling_saturated_hours: parse_usize(t[7])?,
        purchased: Energy(parse_fbits(t[8])?),
        green_weighted_kwh: parse_fbits(t[9])?,
        pue_sum: parse_fbits(t[10])?,
        pue_hours: parse_usize(t[11])?,
    };
    let jobs = JobStats {
        submitted: parse_usize(t[12])?,
        completed: parse_usize(t[13])?,
        unfinished: parse_usize(t[14])?,
        mean_wait_hours: parse_fbits(t[15])?,
        p95_wait_hours: parse_fbits(t[16])?,
        mean_slowdown: parse_fbits(t[17])?,
        slo_violations: parse_usize(t[18])?,
        slo_violation_fraction: parse_fbits(t[19])?,
        gpu_hours_completed: parse_fbits(t[20])?,
    };
    Ok((aggregates, jobs))
}

impl CellResult {
    /// Serialize to one artifact line. Floats are emitted as `to_bits`
    /// hex, so a parse round-trip is bit-exact; the id is whitespace-free
    /// by plan construction, so the line splits back into fixed fields.
    pub fn to_line(&self) -> String {
        let mut line = format!("cell {} {}", self.index, self.id);
        write_totals(&mut line, &self.aggregates, &self.jobs);
        let _ = write!(line, " {}", fbits(self.battery_cycles));
        line
    }

    /// Parse one artifact line (inverse of [`CellResult::to_line`]).
    pub fn parse_line(line: &str) -> Result<CellResult, CampaignError> {
        let t: Vec<&str> = line.split_whitespace().collect();
        if t.len() != 25 || t[0] != "cell" {
            return cerr(format!(
                "malformed cell line (expected 25 tokens starting `cell`, got {}): `{line}`",
                t.len()
            ));
        }
        let (aggregates, jobs) = parse_totals(&t[3..])?;
        Ok(CellResult {
            index: parse_usize(t[1])?,
            id: t[2].to_string(),
            aggregates,
            jobs,
            battery_cycles: parse_fbits(t[24])?,
        })
    }
}

impl ShardArtifact {
    /// Serialize `cells` (the records for `shard`'s range, in plan order)
    /// into the versioned artifact format, stamping the producing plan's
    /// fingerprint and sealing the text with its checksum trailer.
    pub fn compose<C: CellRecord>(plan_fp: u64, shard: &ShardSpec, cells: &[C]) -> ShardArtifact {
        let mut text = format!(
            "artifact v1 plan {plan_fp:016x} shard {} of {} range {} {}\n",
            shard.shard, shard.of, shard.start, shard.end
        );
        for cell in cells {
            text.push_str(&cell.to_line());
            text.push('\n');
        }
        let sum = fnv1a(text.as_bytes());
        let _ = writeln!(text, "checksum {sum:016x}");
        ShardArtifact { text }
    }

    /// Validate this artifact against `plan` (whose fingerprint is
    /// `plan_fp`, precomputed so merges validate K artifacts with one
    /// fingerprint pass) and return its parsed cells.
    ///
    /// Checks, in order: structural v1 shape (header + checksum trailer +
    /// trailing newline), content checksum (corruption/truncation),
    /// plan-fingerprint freshness (staleness), shard-range sanity — and
    /// equality with `expect` when the caller knows which shard it asked
    /// for — then per-cell parse, index coverage (exactly
    /// `range.start..range.end`, in order) and id agreement with the
    /// plan. Checksum precedes freshness so a damaged fingerprint field
    /// reads as corruption, not staleness.
    pub fn validate<P: Plan>(
        &self,
        plan: &P,
        plan_fp: u64,
        expect: Option<&ShardSpec>,
    ) -> Result<Vec<P::Record>, ArtifactIssue> {
        let parse = ArtifactIssue::Parse;
        let invalid = ArtifactIssue::Validation;
        let text = &self.text;
        if text.is_empty() {
            return Err(parse("artifact is empty".into()));
        }
        if !text.ends_with('\n') {
            return Err(parse("artifact is truncated (no trailing newline)".into()));
        }
        let lines: Vec<&str> = text.lines().collect();
        if lines.len() < 2 {
            return Err(parse("artifact is truncated (no checksum trailer)".into()));
        }

        // Header: `artifact v1 plan <fp> shard <i> of <k> range <a> <b>`.
        let h: Vec<&str> = lines[0].split_whitespace().collect();
        if h.len() != 11 || h[0] != "artifact" || h[2] != "plan" || h[4] != "shard" {
            return Err(parse(format!("malformed artifact header `{}`", lines[0])));
        }
        if h[1] != "v1" {
            return Err(invalid(format!(
                "unsupported artifact version `{}` (this reader understands v1)",
                h[1]
            )));
        }
        let stamped_fp = u64::from_str_radix(h[3], 16)
            .map_err(|_| parse(format!("bad plan fingerprint token `{}`", h[3])))?;
        let header_usize = |tok: &str, what: &str| {
            tok.parse::<usize>()
                .map_err(|_| parse(format!("bad {what} token `{tok}` in artifact header")))
        };
        let (shard, of) = (header_usize(h[5], "shard")?, header_usize(h[7], "of")?);
        let (start, end) = (header_usize(h[9], "range")?, header_usize(h[10], "range")?);

        // Checksum trailer: last line, sealing every byte before it. The
        // trailer is the one line outside its own coverage, so its
        // encoding must be canonical — exactly 16 *lowercase* hex digits
        // — or a case-flipped digit (`a` → `A`) would re-parse to the
        // same value and make that byte change undetectable.
        let trailer = lines[lines.len() - 1];
        let t: Vec<&str> = trailer.split_whitespace().collect();
        if t.len() != 2
            || t[0] != "checksum"
            || t[1].len() != 16
            || !t[1].bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
        {
            return Err(parse(format!(
                "artifact is truncated or missing its checksum trailer (last line `{trailer}`)"
            )));
        }
        let declared = u64::from_str_radix(t[1], 16)
            .map_err(|_| parse(format!("bad checksum token `{}`", t[1])))?;
        let sealed_len = text.len() - (trailer.len() + 1);
        let computed = fnv1a(&text.as_bytes()[..sealed_len]);
        if computed != declared {
            return Err(invalid(format!(
                "checksum mismatch (declared {declared:016x}, computed {computed:016x}): \
                 artifact is corrupt or truncated"
            )));
        }

        if stamped_fp != plan_fp {
            return Err(invalid(format!(
                "stale artifact: plan fingerprint {stamped_fp:016x} does not match the \
                 current plan ({plan_fp:016x}) — the manifest changed since it was written"
            )));
        }
        if start > end || end > plan.len() || of == 0 || shard >= of {
            return Err(invalid(format!(
                "artifact shard {shard}/{of} range {start}..{end} is out of bounds for a \
                 plan of {} cells",
                plan.len()
            )));
        }
        if let Some(spec) = expect {
            if (shard, of, start, end) != (spec.shard, spec.of, spec.start, spec.end) {
                return Err(invalid(format!(
                    "artifact is for shard {shard}/{of} range {start}..{end}, expected \
                     shard {}/{} range {}..{}",
                    spec.shard, spec.of, spec.start, spec.end
                )));
            }
        }

        // Body: exactly the cells `start..end`, in plan order.
        let body = &lines[1..lines.len() - 1];
        if body.len() != end - start {
            return Err(invalid(format!(
                "artifact carries {} cell line(s) but declares range {start}..{end}",
                body.len()
            )));
        }
        let mut cells = Vec::with_capacity(body.len());
        for (offset, line) in body.iter().enumerate() {
            let cell = P::Record::parse_line(line).map_err(|e| parse(e.msg))?;
            let expected_index = start + offset;
            if cell.index() != expected_index {
                return Err(invalid(format!(
                    "cell at artifact position {offset} has index {} (expected \
                     {expected_index}: cells must cover the range in plan order)",
                    cell.index()
                )));
            }
            if plan.cell_id(cell.index()) != cell.id() {
                return Err(invalid(format!(
                    "cell index {} id mismatch: plan says `{}`, artifact says `{}`",
                    cell.index(),
                    plan.cell_id(cell.index()),
                    cell.id()
                )));
            }
            cells.push(cell);
        }
        Ok(cells)
    }
}

/// How the shards of a plan get executed, generic over the plan kind.
/// [`InProcessBackend`] runs any [`Plan`] on threads of this process, and
/// [`crate::campaign::process::ProcessBackend`] runs each shard in a
/// supervised worker process; a distributed backend (serialize the shard
/// spec out, collect artifact text back) drops in the same way without
/// touching the expander or the merge.
pub trait ShardBackend<P: Plan>: Sync {
    /// Run every shard of one pass (one thread per shard, up to
    /// `RAYON_NUM_THREADS`) and return the outcomes in shard order: each
    /// shard's serialized artifact, cells in plan order, or the
    /// [`ShardError`] that ended it once the backend's own recovery
    /// (retries, resume) ran out.
    fn run_shards(&self, plan: &P, shards: &[ShardSpec]) -> Vec<Result<ShardArtifact, ShardError>>;

    /// Run one shard as a pass of its own: what a worker process that
    /// publishes one artifact calls.
    ///
    /// # Panics
    /// If the shard fails, with the [`ShardError`]'s message.
    fn run_shard(&self, plan: &P, shard: &ShardSpec) -> ShardArtifact {
        let mut out = self.run_shards(plan, std::slice::from_ref(shard));
        let outcome = out.pop().expect("one outcome per shard");
        outcome.unwrap_or_else(|e| panic!("{e}"))
    }
}

/// In-process shard runner: the shards of one pass run on threads of this
/// process over one set of pass caches ([`Plan::run_ranges`]), each
/// replay going through the aggregates-only observation fast path, and a
/// panicking shard becomes that shard's [`ShardError::Panic`].
#[derive(Debug, Clone, Copy, Default)]
pub struct InProcessBackend;

impl<P: Plan> ShardBackend<P> for InProcessBackend {
    fn run_shards(&self, plan: &P, shards: &[ShardSpec]) -> Vec<Result<ShardArtifact, ShardError>> {
        let ranges: Vec<Range<usize>> = shards.iter().map(|s| s.start..s.end).collect();
        let plan_fp = plan_fingerprint(plan);
        let outcomes = plan.run_ranges(&ranges);
        outcomes
            .into_iter()
            .zip(shards)
            .map(|(outcome, spec)| match outcome {
                Ok(records) => Ok(ShardArtifact::compose(plan_fp, spec, &records)),
                Err(payload) => Err(ShardError::Panic {
                    shard: spec.shard,
                    msg: panic_message(payload.as_ref()),
                }),
            })
            .collect()
    }
}

/// The text of a panic payload (`panic!` with a literal or a format).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    match (
        payload.downcast_ref::<&str>(),
        payload.downcast_ref::<String>(),
    ) {
        (Some(msg), _) => msg.to_string(),
        (_, Some(msg)) => msg.clone(),
        _ => "non-text panic payload".to_string(),
    }
}

/// Run `f` over each of `ranges` through [`sweep::run`], catching a panic
/// in one range as that range's `Err`; outcomes come back in range order.
pub(crate) fn per_range<R: Send>(
    ranges: &[Range<usize>],
    f: impl Fn(Range<usize>) -> Vec<R> + Sync,
) -> Vec<thread::Result<Vec<R>>> {
    sweep::run(ranges, |range| {
        panic::catch_unwind(AssertUnwindSafe(|| f(range.clone())))
    })
}

/// The cells `ranges` cover, which must follow one another in plan order.
pub(crate) fn span(ranges: &[Range<usize>]) -> Range<usize> {
    assert!(
        ranges.windows(2).all(|w| w[0].end == w[1].start),
        "cell ranges must follow one another in plan order"
    );
    let start = ranges.first().map_or(0, |r| r.start);
    start..ranges.last().map_or(start, |r| r.end)
}

impl CellRecord for CellResult {
    fn index(&self) -> usize {
        self.index
    }

    fn id(&self) -> &str {
        &self.id
    }

    fn to_line(&self) -> String {
        CellResult::to_line(self)
    }

    fn parse_line(line: &str) -> Result<CellResult, CampaignError> {
        CellResult::parse_line(line)
    }
}

/// A cache over a sequence of uses known up front, shared by the threads
/// of one pass. Each use names a key, and each distinct key has one slot.
/// The first use to reach a slot builds its value while holding the
/// slot's lock, so any other use of that key waits for that build and
/// nothing else; a use runs on the value after the lock is released. Each
/// slot counts its unfinished uses and drops its value when the count
/// reaches zero, so a pass holds only what its remaining cells still
/// need. Every use of a key sees the one value it built, and none copies
/// it.
///
/// A build that panics poisons its slot's lock, and every later use of
/// that key panics too rather than waiting for a value that never comes.
/// Both plan kinds keep their worlds in one. [`CampaignPlan`] chains
/// three: replays, one use per cell; worlds, one use per replay slot; and
/// environments, one use per world slot. A world is only used while a
/// replay is being built, and an environment only shared while a world is
/// being built, so locks nest replay, then world, then environment, and
/// never the other way round.
pub(crate) struct LastUseCache<V> {
    /// Each use's slot, in use order.
    uses: Vec<usize>,
    /// Each slot's first use.
    first: Vec<usize>,
    /// Each slot's unfinished uses and live value.
    slots: Vec<Mutex<Slot<V>>>,
    /// Values built so far.
    built: AtomicUsize,
}

/// One key's state in a [`LastUseCache`].
struct Slot<V> {
    /// Uses not yet finished.
    pending: usize,
    /// The value, from its build until its last use finishes.
    value: Option<Arc<V>>,
}

impl<V> LastUseCache<V> {
    /// A cache for the uses `keys`, in order.
    pub(crate) fn new<K: Eq + Hash>(keys: impl IntoIterator<Item = K>) -> LastUseCache<V> {
        let mut ids = HashMap::new();
        let (mut uses, mut first, mut pending) = (Vec::new(), Vec::new(), Vec::new());
        for (i, key) in keys.into_iter().enumerate() {
            let fresh = first.len();
            let slot = *ids.entry(key).or_insert(fresh);
            if slot == fresh {
                first.push(i);
                pending.push(0);
            }
            pending[slot] += 1;
            uses.push(slot);
        }
        let slots = pending
            .into_iter()
            .map(|pending| {
                Mutex::new(Slot {
                    pending,
                    value: None,
                })
            })
            .collect();
        LastUseCache {
            uses,
            first,
            slots,
            built: AtomicUsize::new(0),
        }
    }

    /// Use `i`'s slot. Slots are numbered in order of their first use.
    pub(crate) fn slot(&self, i: usize) -> usize {
        self.uses[i]
    }

    /// Whether use `i` is the first of its key in use order.
    pub(crate) fn is_first_use(&self, i: usize) -> bool {
        self.first[self.uses[i]] == i
    }

    /// How many values this cache has built.
    #[cfg(test)]
    pub(crate) fn builds(&self) -> usize {
        self.built.load(Ordering::Relaxed)
    }

    /// Lock use `i`'s slot.
    fn lock(&self, i: usize) -> MutexGuard<'_, Slot<V>> {
        self.slots[self.uses[i]]
            .lock()
            .expect("the build of this cache key panicked on another thread")
    }

    /// Lock use `i`'s slot, building its value if no use has yet.
    fn get(&self, i: usize, build: impl FnOnce() -> V) -> MutexGuard<'_, Slot<V>> {
        let mut slot = self.lock(i);
        if slot.value.is_none() {
            slot.value = Some(Arc::new(build()));
            self.built.fetch_add(1, Ordering::Relaxed);
        }
        slot
    }

    /// Use `i` by reference: build the value if no use of its key has
    /// yet, pass it to `f` outside the lock, and drop it if `i` was the
    /// key's last unfinished use.
    pub(crate) fn with<R>(
        &self,
        i: usize,
        build: impl FnOnce() -> V,
        f: impl FnOnce(&V) -> R,
    ) -> R {
        let value = self.get(i, build).value.clone().expect("built above");
        let out = f(&value);
        drop(value);
        let last = {
            let mut slot = self.lock(i);
            slot.pending -= 1;
            if slot.pending == 0 {
                slot.value.take()
            } else {
                None
            }
        };
        drop(last);
        out
    }

    /// Use `i` as a share: build the value if no use of its key has yet,
    /// and hand out the cached `Arc` itself, which the slot lets go of at
    /// the key's last use. The value is never copied.
    pub(crate) fn share(&self, i: usize, build: impl FnOnce() -> V) -> Arc<V> {
        let mut slot = self.get(i, build);
        slot.pending -= 1;
        let value = if slot.pending == 0 {
            slot.value.take()
        } else {
            slot.value.clone()
        };
        value.expect("built above")
    }
}

/// A world in a [`CampaignPlan`] pass: its own trace over an environment
/// it shares with every other world of that environment's key.
struct SharedWorld {
    seed: u64,
    gpu_cap: u32,
    env: Arc<(WeatherPath, GridPath)>,
    trace: Vec<Job>,
}

impl SharedWorld {
    /// Build the trace `spec` describes, forked against `env`, which
    /// supplies the environment, exactly as [`World::build`] forks the
    /// two halves.
    fn build(
        spec: &TraceSpec,
        env: impl FnOnce() -> Arc<(WeatherPath, GridPath)> + Send,
    ) -> SharedWorld {
        let (env, trace) = par::join(env, || spec.build());
        SharedWorld {
            seed: spec.seed,
            gpu_cap: spec.gpu_cap,
            env,
            trace,
        }
    }

    /// The view the engine replays.
    fn view(&self) -> WorldRef<'_> {
        WorldRef {
            seed: self.seed,
            gpu_cap: self.gpu_cap,
            weather: &self.env.0,
            grid: &self.env.1,
            trace: &self.trace,
        }
    }
}

/// The caches of one [`CampaignPlan`] pass, chained: replays are keyed per
/// cell, worlds per replay slot (only a replay build touches a world) and
/// environments per world slot (only a world build shares one). Locks
/// nest in that order, and a cell whose replay is cached never pins a
/// world.
struct PassCaches {
    replays: LastUseCache<AggregatesReplay>,
    worlds: LastUseCache<SharedWorld>,
    envs: LastUseCache<(WeatherPath, GridPath)>,
}

impl CampaignPlan {
    /// Cell `i`'s record from a replay of its scenario, or of its
    /// [`Scenario::replay_inputs`](crate::scenario::Scenario::replay_inputs),
    /// finished under the cell's own SLO.
    fn record(&self, i: usize, replay: &AggregatesReplay) -> CellResult {
        let cell = &self.cells[i];
        CellResult {
            index: cell.index,
            id: cell.id.clone(),
            aggregates: replay.aggregates,
            jobs: replay.finish(cell.scenario.slo_wait_hours),
            battery_cycles: replay.battery_cycles,
        }
    }

    /// The caches for one pass over `ranges`.
    fn pass_caches(&self, ranges: &[Range<usize>]) -> PassCaches {
        let cells = &self.cells[span(ranges)];
        let replays = LastUseCache::new(cells.iter().map(|c| c.scenario.replay_inputs_key()));
        // The first cell of each replay slot, in slot order. The replay
        // key holds every world input, so it stands for its whole slot.
        let firsts: Vec<&Scenario> = (0..cells.len())
            .filter(|&u| replays.is_first_use(u))
            .map(|u| &cells[u].scenario)
            .collect();
        let worlds = LastUseCache::new(firsts.iter().map(|s| s.world_inputs_key()));
        let envs = LastUseCache::new(
            (0..firsts.len())
                .filter(|&r| worlds.is_first_use(r))
                .map(|r| env_key(firsts[r])),
        );
        PassCaches {
            replays,
            worlds,
            envs,
        }
    }

    /// [`Plan::run_ranges`] over `caches`.
    fn run_reusing(
        &self,
        ranges: &[Range<usize>],
        caches: &PassCaches,
    ) -> Vec<thread::Result<Vec<CellResult>>> {
        let base = span(ranges).start;
        let PassCaches {
            replays,
            worlds,
            envs,
        } = caches;
        per_range(ranges, |range| {
            range
                .map(|i| {
                    let (u, s) = (i - base, &self.cells[i].scenario);
                    let r = replays.slot(u);
                    let build_world = || {
                        SharedWorld::build(&s.trace_spec(), || {
                            envs.share(worlds.slot(r), || World::environment(s))
                        })
                    };
                    let build_replay = || {
                        let inputs = s.replay_inputs();
                        worlds.with(r, build_world, |world| {
                            SimDriver::aggregates_of(&inputs, world.view())
                        })
                    };
                    replays.with(u, build_replay, |replay| self.record(i, replay))
                })
                .collect()
        })
    }
}

impl Plan for CampaignPlan {
    type Record = CellResult;

    const MANIFEST_FILE: &'static str = "manifest.campaign";

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
        format!("{:?}", self.cells[index].scenario)
    }

    fn run_ranges(&self, ranges: &[Range<usize>]) -> Vec<thread::Result<Vec<CellResult>>> {
        self.run_reusing(ranges, &self.pass_caches(ranges))
    }

    fn reference_record(&self, index: usize) -> CellResult {
        let scenario = &self.cells[index].scenario;
        let world = World::build(scenario);
        self.record(index, &SimDriver::replay_aggregates(scenario, &world))
    }
}

/// The merged output of a campaign: every cell's record, in plan order.
/// Generic over the record kind (defaulting to campaign cells, so
/// existing `CampaignReport` annotations keep meaning what they did);
/// fleet campaigns merge into a `CampaignReport<FleetCellResult>`.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport<C = CellResult> {
    /// Plan name.
    pub name: String,
    /// Per-cell records; `cells[i].index == i`.
    pub cells: Vec<C>,
}

impl<C: CellRecord> CampaignReport<C> {
    /// Look a cell up by id (the id doubles as the scenario/fleet name,
    /// so equivalence runners and migrated call sites key on it).
    pub fn get(&self, id: &str) -> Option<&C> {
        self.cells.iter().find(|c| c.id() == id)
    }

    /// The canonical serialized report: one line per cell, in plan order,
    /// preceded by a header. Byte-identical across shard counts and
    /// thread counts — this is the text the CI campaign smoke jobs
    /// compare.
    pub fn to_text(&self) -> String {
        let mut out = format!("campaign {} cells {}\n", self.name, self.cells.len());
        for c in &self.cells {
            out.push_str(&c.to_line());
            out.push('\n');
        }
        out
    }
}

/// Merge shard artifacts back into one report. Every artifact is put
/// through [`ShardArtifact::validate`] first (version, checksum, plan
/// fingerprint, range, per-cell ids — with the plan fingerprint computed
/// once here, not per artifact), then each cell is placed by plan index
/// with coverage validation: every plan cell exactly once.
pub fn merge_artifacts<P: Plan>(
    plan: &P,
    artifacts: &[ShardArtifact],
) -> Result<CampaignReport<P::Record>, CampaignError> {
    let plan_fp = plan_fingerprint(plan);
    let mut slots: Vec<Option<P::Record>> = vec![None; plan.len()];
    for (nth, artifact) in artifacts.iter().enumerate() {
        let cells = artifact
            .validate(plan, plan_fp, None)
            .map_err(|e| CampaignError {
                msg: format!("artifact {nth}: {e}"),
            })?;
        for cell in cells {
            // validate() bounds-checked the range against the plan.
            let slot = &mut slots[cell.index()];
            if slot.is_some() {
                return cerr(format!("cell {} delivered twice", cell.id()));
            }
            *slot = Some(cell);
        }
    }
    let mut cells = Vec::with_capacity(plan.len());
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(c) => cells.push(c),
            None => {
                return cerr(format!(
                    "cell `{}` missing from every artifact",
                    plan.cell_id(i)
                ))
            }
        }
    }
    Ok(CampaignReport {
        name: plan.name().to_string(),
        cells,
    })
}

/// Run a whole campaign: partition into `shards` shards, run them all
/// through [`ShardBackend::run_shards`] (one thread per shard, the outer
/// sweep level), merge. The merged report is bit-identical for any
/// `shards ≥ 1` and any `RAYON_NUM_THREADS`.
///
/// Shards run through the fallible seam; if any shard fails after the
/// backend's own recovery (retries, resume) is exhausted, the error for
/// the **lowest-indexed** failing shard is reported — deterministic no
/// matter which shard's thread finished first.
pub fn run_campaign<P: Plan>(
    plan: &P,
    backend: &impl ShardBackend<P>,
    shards: usize,
) -> Result<CampaignReport<P::Record>, CampaignError> {
    let specs = partition(plan.len(), shards);
    let outcomes = backend.run_shards(plan, &specs);
    let mut artifacts = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        // Outcomes come back in spec order, so the first error seen is
        // the lowest shard ordinal.
        artifacts.push(outcome.map_err(|e| CampaignError { msg: e.to_string() })?);
    }
    merge_artifacts(plan, &artifacts)
}

#[cfg(test)]
mod tests {
    use super::super::manifest::CampaignManifest;
    use super::*;

    fn tiny_plan() -> CampaignPlan {
        CampaignManifest::parse(
            "name = t\n\
             base = quick:3@5\n\
             seeds = 1..3\n\
             axis policy = fcfs, easy\n",
        )
        .unwrap()
        .expand()
        .unwrap()
    }

    #[test]
    fn partition_is_balanced_and_covers() {
        for (n, k) in [(8, 1), (8, 2), (8, 3), (8, 8), (8, 11), (0, 3), (1, 4)] {
            let specs = partition(n, k);
            assert_eq!(specs.len(), k);
            assert_eq!(specs[0].start, 0);
            assert_eq!(specs[k - 1].end, n);
            for w in specs.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous");
            }
            let sizes: Vec<usize> = specs.iter().map(|s| s.end - s.start).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "balanced: {sizes:?}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn partition_rejects_zero_shards() {
        partition(4, 0);
    }

    #[test]
    fn cell_line_roundtrip_is_bit_exact() {
        let plan = tiny_plan();
        let artifact = InProcessBackend.run_shard(&plan, &partition(plan.len(), 1)[0]);
        // Body lines sit between the v1 header and the checksum trailer.
        let body: Vec<&str> = artifact
            .text
            .lines()
            .filter(|l| l.starts_with("cell "))
            .collect();
        for line in &body {
            let cell = CellResult::parse_line(line).unwrap();
            assert_eq!(&cell.to_line(), line, "roundtrip must be the identity");
        }
        assert_eq!(body.len(), plan.len());
        // Adversarial values survive too (NaN, −∞, −0.0).
        let mut doctored = CellResult::parse_line(body[0]).unwrap();
        doctored.aggregates.peak_power_kw = f64::NEG_INFINITY;
        doctored.aggregates.pue_sum = f64::NAN;
        doctored.battery_cycles = -0.0;
        let re = CellResult::parse_line(&doctored.to_line()).unwrap();
        assert_eq!(re.to_line(), doctored.to_line());
        assert!(re.aggregates.pue_sum.is_nan());
        assert_eq!(re.battery_cycles.to_bits(), (-0.0f64).to_bits());
    }

    /// Re-seal arbitrary artifact body text with a fresh, *correct*
    /// checksum trailer, so tests can forge semantically-wrong artifacts
    /// that still pass the corruption check and exercise the deeper
    /// validation layers.
    fn reseal(body: &str) -> ShardArtifact {
        let sum = fnv1a(body.as_bytes());
        ShardArtifact {
            text: format!("{body}checksum {sum:016x}\n"),
        }
    }

    /// Strip the checksum trailer, returning the body `reseal` accepts.
    fn unsealed(artifact: &ShardArtifact) -> String {
        let trailer_start = artifact.text.rfind("checksum ").unwrap();
        artifact.text[..trailer_start].to_string()
    }

    #[test]
    fn merge_rejects_missing_duplicate_and_mismatched_cells() {
        let plan = tiny_plan();
        let backend = InProcessBackend;
        let specs = partition(plan.len(), 3);
        let shards: Vec<ShardArtifact> =
            specs.iter().map(|s| backend.run_shard(&plan, s)).collect();

        // Missing: deliver only two of the three shards.
        let e = merge_artifacts(&plan, &shards[..2]).unwrap_err();
        assert!(e.msg.contains("missing"), "{e}");

        // Duplicate: deliver shard 0 twice alongside full coverage.
        let with_dup = [
            shards[0].clone(),
            shards[1].clone(),
            shards[2].clone(),
            shards[0].clone(),
        ];
        let e = merge_artifacts(&plan, &with_dup).unwrap_err();
        assert!(e.msg.contains("twice"), "{e}");

        // Mismatched id: forge one cell's id and re-seal the checksum, so
        // the forgery survives the corruption check and must be caught by
        // id validation.
        let forged_body =
            unsealed(&shards[2]).replacen(&plan.cells[specs[2].start].id, "t/forged", 1);
        let forged = reseal(&forged_body);
        let e =
            merge_artifacts(&plan, &[shards[0].clone(), shards[1].clone(), forged]).unwrap_err();
        assert!(e.msg.contains("id mismatch"), "{e}");
    }

    #[test]
    fn validate_rejects_each_damage_class_precisely() {
        let plan = tiny_plan();
        let fp = plan_fingerprint(&plan);
        let spec = partition(plan.len(), 2)[0];
        let good = InProcessBackend.run_shard(&plan, &spec);
        good.validate(&plan, fp, Some(&spec)).unwrap();

        let expect_reject = |artifact: &ShardArtifact, needle: &str| {
            let issue = artifact.validate(&plan, fp, Some(&spec)).unwrap_err();
            assert!(
                issue.msg().contains(needle),
                "expected `{needle}` in `{issue}`"
            );
            // Merging must reject it for the same underlying reason.
            let e = merge_artifacts(&plan, std::slice::from_ref(artifact)).unwrap_err();
            assert!(e.msg.contains(needle), "merge accepted it: {e}");
        };

        // Unsupported format version.
        let v2 = reseal(&unsealed(&good).replacen("artifact v1", "artifact v2", 1));
        expect_reject(&v2, "unsupported artifact version");

        // Stale plan fingerprint: a plan whose only difference is a
        // base-scenario edit (same cell ids, different scenario).
        let other_plan = CampaignManifest::parse(
            "name = t\n\
             base = quick:4@5\n\
             seeds = 1..3\n\
             axis policy = fcfs, easy\n",
        )
        .unwrap()
        .expand()
        .unwrap();
        assert_eq!(other_plan.cells[0].id, plan.cells[0].id, "ids must agree");
        let stale = InProcessBackend.run_shard(&other_plan, &spec);
        expect_reject(&stale, "stale artifact");

        // Truncation: any prefix cut loses or damages the trailer.
        let cut = ShardArtifact {
            text: good.text[..good.text.len() - 2].to_string(),
        };
        assert!(cut.validate(&plan, fp, Some(&spec)).is_err());

        // Single-byte corruption in the covered region.
        let mut bytes = good.text.clone().into_bytes();
        bytes[good.text.len() / 2] ^= 0x01;
        if let Ok(text) = String::from_utf8(bytes) {
            expect_reject(&ShardArtifact { text }, "checksum mismatch");
        }

        // Wrong shard range vs. what the supervisor asked for.
        let other_spec = partition(plan.len(), 2)[1];
        let wrong = InProcessBackend.run_shard(&plan, &other_spec);
        let issue = wrong.validate(&plan, fp, Some(&spec)).unwrap_err();
        assert!(issue.msg().contains("expected"), "{issue}");
        // …but with no expectation (merge path) it is fine.
        wrong.validate(&plan, fp, None).unwrap();

        // Range out of bounds for the plan.
        let oob = reseal(&format!(
            "artifact v1 plan {fp:016x} shard 0 of 1 range 0 {}\n",
            plan.len() + 1
        ));
        expect_reject(&oob, "out of bounds");

        // Cell count disagreeing with the declared range.
        let mut lines: Vec<&str> = good.text.lines().collect();
        lines.remove(1); // drop the first cell line, keep header
        lines.pop(); // drop the stale trailer
        let mut body = lines.join("\n");
        body.push('\n');
        expect_reject(&reseal(&body), "cell line(s)");

        // Malformed header.
        let issue = reseal("garbage header\n")
            .validate(&plan, fp, None)
            .unwrap_err();
        assert!(matches!(issue, ArtifactIssue::Parse(_)), "{issue}");
    }

    #[test]
    fn partition_and_run_handle_single_cell_plans() {
        let plan = CampaignManifest::parse("name = solo\nbase = quick:2@9\nseeds = 9\n")
            .unwrap()
            .expand()
            .unwrap();
        assert_eq!(plan.len(), 1);
        // k > n: every extra shard is an empty range that merges away.
        for k in [1, 2, 5] {
            let specs = partition(plan.len(), k);
            assert_eq!(specs.len(), k);
            assert!(specs[1..].iter().all(|s| s.start == s.end));
            let report = run_campaign(&plan, &InProcessBackend, k).unwrap();
            assert_eq!(report.cells.len(), 1);
            assert_eq!(
                report.to_text(),
                run_campaign(&plan, &InProcessBackend, 1).unwrap().to_text()
            );
        }
        // An empty shard's artifact still validates (zero cells).
        let fp = plan_fingerprint(&plan);
        let empty_spec = partition(plan.len(), 3)[2];
        let empty = InProcessBackend.run_shard(&plan, &empty_spec);
        assert!(empty
            .validate(&plan, fp, Some(&empty_spec))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn merged_report_is_shard_count_invariant() {
        let plan = tiny_plan();
        let backend = InProcessBackend;
        let reference = run_campaign(&plan, &backend, 1).unwrap().to_text();
        for k in [2, 3, plan.len(), plan.len() + 3] {
            let merged = run_campaign(&plan, &backend, k).unwrap().to_text();
            assert_eq!(merged, reference, "shard count {k} changed the report");
        }
    }

    #[test]
    fn last_use_cache_builds_each_key_once_and_holds_nothing_past_its_last_use() {
        use std::rc::{Rc, Weak};
        let keys = ["a", "b", "a", "c", "b"];
        let cache = LastUseCache::new(keys);
        let mut built = Vec::new();
        let mut handles: HashMap<&str, Weak<&str>> = HashMap::new();
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(cache.is_first_use(i), !built.contains(&key), "use {i}");
            let build = || {
                built.push(key);
                Rc::new(key)
            };
            let seen = cache.with(i, build, |value| {
                handles.insert(key, Rc::downgrade(value));
                **value
            });
            assert_eq!(seen, key);
            // A value is live after use `i` exactly when a later use needs it.
            for (k, handle) in &handles {
                let used_later = keys[i + 1..].contains(k);
                assert_eq!(
                    handle.upgrade().is_some(),
                    used_later,
                    "`{k}` after use {i}"
                );
            }
        }
        assert_eq!(built, ["a", "b", "c"]);
    }

    #[test]
    fn last_use_cache_shares_one_allocation_with_every_use_of_a_key() {
        use std::cell::Cell;
        use std::rc::Rc;
        /// A value that counts its clones.
        struct Tally(Rc<Cell<usize>>);
        impl Clone for Tally {
            fn clone(&self) -> Tally {
                self.0.set(self.0.get() + 1);
                Tally(Rc::clone(&self.0))
            }
        }
        let keys = ["a", "b", "a", "c", "b"];
        let cache = LastUseCache::new(keys);
        let clones = Rc::new(Cell::new(0));
        let mut builds = 0;
        let shared: Vec<Arc<Tally>> = (0..keys.len())
            .map(|i| {
                cache.share(i, || {
                    builds += 1;
                    Tally(Rc::clone(&clones))
                })
            })
            .collect();
        assert_eq!(builds, 3);
        assert_eq!(clones.get(), 0, "no use copies the value");
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                assert_eq!(
                    Arc::ptr_eq(&shared[i], &shared[j]),
                    a == b,
                    "uses {i} and {j}"
                );
            }
        }
        // The last use of each key took the slot's own handle, so the
        // uses' handles are all that is left.
        assert!(cache
            .slots
            .iter()
            .all(|slot| slot.lock().unwrap().value.is_none()));
        assert_eq!(
            Arc::strong_count(&shared[0]),
            2,
            "held by uses 0 and 2 only"
        );
    }

    #[test]
    fn last_use_cache_shared_by_threads_builds_each_key_once_and_drops_every_value() {
        use std::sync::{Barrier, Weak};
        // Interleaved keys: every thread's contiguous range needs every
        // key, so threads race for each build.
        let keys: Vec<usize> = (0..24).map(|i| i % 3).collect();
        for threads in 2..=4 {
            let cache = LastUseCache::new(keys.iter().copied());
            let builds: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
            let handles: Mutex<Vec<Weak<usize>>> = Mutex::new(Vec::new());
            let start = Barrier::new(threads);
            thread::scope(|scope| {
                for spec in partition(keys.len(), threads) {
                    let (cache, builds, handles, keys) = (&cache, &builds, &handles, &keys);
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        for (i, &key) in keys.iter().enumerate().take(spec.end).skip(spec.start) {
                            let build = || {
                                builds[key].fetch_add(1, Ordering::Relaxed);
                                let value = Arc::new(key);
                                handles.lock().unwrap().push(Arc::downgrade(&value));
                                value
                            };
                            assert_eq!(cache.with(i, build, |value| **value), key);
                        }
                    });
                }
            });
            let per_key: Vec<usize> = builds.iter().map(|b| b.load(Ordering::Relaxed)).collect();
            assert_eq!(per_key, [1, 1, 1], "{threads} threads");
            assert_eq!(cache.builds(), 3);
            let handles = handles.into_inner().unwrap();
            assert_eq!(handles.len(), 3);
            assert!(
                handles.iter().all(|h| h.upgrade().is_none()),
                "a value outlived its last use ({threads} threads)"
            );
        }
    }

    #[test]
    fn last_use_cache_build_panic_fails_the_thread_waiting_on_its_key() {
        use std::sync::mpsc;
        let cache: LastUseCache<u32> = LastUseCache::new(["k", "k"]);
        let (building, a_building) = mpsc::channel();
        let (waiting, b_waiting) = mpsc::channel();
        thread::scope(|scope| {
            let cache = &cache;
            // A holds the key's lock while it builds, and fails only once
            // B is on its way to the same lock.
            let a = scope.spawn(move || {
                let build = || -> u32 {
                    building.send(()).unwrap();
                    b_waiting.recv().unwrap();
                    panic!("build failed")
                };
                cache.with(0, build, |value| *value)
            });
            a_building.recv().unwrap();
            let b = scope.spawn(move || {
                waiting.send(()).unwrap();
                cache.with(1, || 7, |value| *value)
            });
            let a = a.join().unwrap_err();
            let b = b.join().unwrap_err();
            assert_eq!(panic_message(a.as_ref()), "build failed");
            let msg = panic_message(b.as_ref());
            assert!(msg.contains("panicked on another thread"), "{msg}");
        });
    }

    #[test]
    fn a_panicking_shard_becomes_that_shards_error() {
        let mut plan = tiny_plan();
        let last = plan.len() - 1;
        // A cluster without GPUs makes the replay panic.
        plan.cells[last].scenario.cluster.nodes = 0;
        let spec = partition(plan.len(), 2)[1];
        let e = run_campaign(&plan, &InProcessBackend, 2).unwrap_err();
        assert!(e.msg.starts_with("shard 1: panicked"), "{e}");
        assert!(e.msg.contains("no GPUs"), "{e}");
        match InProcessBackend.run_shards(&plan, &[spec]).pop() {
            Some(Err(ShardError::Panic { shard: 1, msg })) => assert!(msg.contains("no GPUs")),
            other => panic!("expected shard 1's panic, got {other:?}"),
        }
        // A worker's one-shard pass panics with the shard's error.
        let payload = panic::catch_unwind(|| InProcessBackend.run_shard(&plan, &spec)).unwrap_err();
        let msg = panic_message(payload.as_ref());
        assert!(msg.starts_with("shard 1: panicked"), "{msg}");
        // With two failing shards, the lower one is reported.
        plan.cells[0].scenario.cluster.nodes = 0;
        let e = run_campaign(&plan, &InProcessBackend, 2).unwrap_err();
        assert!(e.msg.starts_with("shard 0: panicked"), "{e}");
    }

    #[test]
    fn campaign_pass_shares_replays_across_in_process_shards() {
        // Policy outer, SLO inner: the middle policy's cells straddle the
        // two shards, and every cell of a policy shares one replay.
        let plan = CampaignManifest::parse(
            "name = replays\n\
             base = quick:3@13\n\
             axis policy = fcfs, easy, carbon:0.06\n\
             axis slo_wait_hours = 1, 12, 24\n",
        )
        .unwrap()
        .expand()
        .unwrap();
        assert_eq!(plan.len(), 9);
        let specs = partition(plan.len(), 2);
        let ranges: Vec<Range<usize>> = specs.iter().map(|s| s.start..s.end).collect();
        let caches = plan.pass_caches(&ranges);
        let outcomes = plan.run_reusing(&ranges, &caches);
        let builds = [
            caches.replays.builds(),
            caches.worlds.builds(),
            caches.envs.builds(),
        ];
        assert_eq!(builds, [3, 1, 1], "replays, worlds, environments");
        let records: Vec<CellResult> = outcomes.into_iter().flat_map(Result::unwrap).collect();
        for (i, record) in records.iter().enumerate() {
            assert_eq!(record.to_line(), plan.reference_record(i).to_line());
        }
        // The SLO axis moves what it should, so the check above has teeth.
        let violations: Vec<usize> = records[..3].iter().map(|r| r.jobs.slo_violations).collect();
        assert!(violations[0] > violations[2], "{violations:?}");
    }

    #[test]
    fn report_lookup_by_id() {
        let plan = tiny_plan();
        let report = run_campaign(&plan, &InProcessBackend, 2).unwrap();
        let id = &plan.cells[3].id;
        assert_eq!(report.get(id).unwrap().index, 3);
        assert!(report.get("t/absent").is_none());
    }

    mod props {
        use super::super::super::manifest::{AxisValue, CampaignManifest, Knob};
        use super::*;
        use crate::scenario::Scenario;
        use greener_sched::PolicyKind;
        use proptest::prelude::*;

        /// Build the straight-run reference text: every cell's
        /// [`Plan::reference_record`] (a fresh world each, no cache, no
        /// shard) through the plain `sweep::run` fan-out, in the merged
        /// report's format. Bit-exact float encoding makes text equality
        /// exactly aggregate bit equality.
        fn straight_text(plan: &CampaignPlan) -> String {
            let indices: Vec<usize> = (0..plan.len()).collect();
            let cells = sweep::run(&indices, |&i| plan.reference_record(i));
            CampaignReport {
                name: plan.name.clone(),
                cells,
            }
            .to_text()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(
                crate::equivalence::proptest_cases(4)
            ))]
            /// Shard-and-merge bit-equality over random small manifests:
            /// for every shard count in {1, 2, 7, cells} and
            /// `RAYON_NUM_THREADS` in {1, 4}, the merged report text
            /// equals the straight-run reference byte for byte. (The
            /// vendored rayon reads the variable per call and every engine
            /// axis is thread-count-invariant, so toggling it in-process
            /// is safe.)
            #[test]
            fn sharded_merge_equals_straight_run(
                days in 2usize..4,
                world_seed in 0u64..500,
                two_seeds in 0u8..2,
                policy_mask in 1u8..8,
                slo_axis in 0u8..2,
            ) {
                let (two_seeds, slo_axis) = (two_seeds == 1, slo_axis == 1);
                let all = [
                    PolicyKind::Fcfs,
                    PolicyKind::EasyBackfill,
                    PolicyKind::CarbonAware { green_threshold: 0.06 },
                ];
                let policies: Vec<AxisValue> = all
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| policy_mask & (1 << i) != 0)
                    .map(|(_, &p)| AxisValue::Policy(p))
                    .collect();
                let mut manifest =
                    CampaignManifest::new("prop", Scenario::quick(days, world_seed))
                        .with_axis(Knob::Policy, policies)
                        .with_seeds(if two_seeds {
                            vec![world_seed, world_seed + 1]
                        } else {
                            vec![world_seed]
                        });
                if slo_axis {
                    manifest = manifest.with_axis(
                        Knob::SloWaitHours,
                        vec![AxisValue::Real(12.0), AxisValue::Real(24.0)],
                    );
                }
                let plan = manifest.expand().unwrap();
                let reference = straight_text(&plan);
                let prior = std::env::var("RAYON_NUM_THREADS").ok();
                for threads in ["1", "4"] {
                    std::env::set_var("RAYON_NUM_THREADS", threads);
                    for k in [1, 2, 7, plan.len()] {
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

        /// One valid artifact, built once and shared across all proptest
        /// cases (the corruption property needs many cheap mutations of
        /// the same expensive-to-produce text).
        fn golden() -> &'static (CampaignPlan, u64, ShardArtifact) {
            static GOLDEN: std::sync::OnceLock<(CampaignPlan, u64, ShardArtifact)> =
                std::sync::OnceLock::new();
            GOLDEN.get_or_init(|| {
                let plan = super::tiny_plan();
                let fp = plan_fingerprint(&plan);
                let artifact = InProcessBackend.run_shard(&plan, &partition(plan.len(), 1)[0]);
                (plan, fp, artifact)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(
                crate::equivalence::proptest_cases(16)
            ))]
            /// Random damage to a valid artifact is **always** detected:
            /// truncation at any byte offset, and a single-bit flip of
            /// any byte, must both fail validation and be refused by the
            /// merge. (A flip that breaks UTF-8 counts as detected — the
            /// damaged bytes cannot even become an artifact string.)
            #[test]
            fn corruption_is_always_detected(
                cut in 0usize..1_000_000,
                flip_pos in 0usize..1_000_000,
                flip_bit in 0u8..8,
            ) {
                let (plan, fp, artifact) = golden();
                let n = artifact.text.len();

                // Truncation at any byte (artifact text is ASCII, so
                // every byte offset is a char boundary).
                let truncated = ShardArtifact {
                    text: artifact.text[..cut % n].to_string(),
                };
                prop_assert!(truncated.validate(plan, *fp, None).is_err());
                prop_assert!(merge_artifacts(plan, &[truncated]).is_err());

                // Single-bit flip of any byte.
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
