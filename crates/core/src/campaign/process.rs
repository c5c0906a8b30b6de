//! Process-per-shard campaign backend with worker supervision.
//!
//! [`ProcessBackend`] runs each shard of a campaign in a **separate
//! worker process** (by default the `perfjson campaign-worker` mode in
//! the bench crate, which runs campaign and fleet shards alike),
//! supervising every attempt: per-shard wall-clock timeouts kill hung
//! workers, failed shards are retried with capped
//! exponential backoff (deterministic, seeded jitter — the real clock is
//! only an *enforcement* input, never a decision input), and every
//! artifact is validated before acceptance ([`ShardArtifact::validate`]:
//! version, checksum, plan fingerprint, range, cell coverage). Because a
//! shard's artifact is a durable file, campaigns **resume**: a re-run
//! skips any shard whose valid artifact already sits in the artifact
//! directory.
//!
//! # Artifact directory layout
//!
//! ```text
//! <dir>/manifest.campaign     # the manifest text workers re-expand
//!                             # (manifest.fleet for fleet plans)
//! <dir>/shard-<i>-of-<k>.art  # one validated ShardArtifact per shard
//! <dir>/shard-<i>-of-<k>.ok   # completion marker, written after the artifact
//! ```
//!
//! Workers publish both files via atomic rename
//! ([`greener_simkit::proc::write_atomic`]), artifact **before** marker,
//! so a marker's existence implies the artifact was fully written by a
//! worker that ran to completion. The supervisor still validates — files
//! can be damaged after publication — and deletes invalid leftovers
//! before re-running their shard.
//!
//! # The invariant
//!
//! The merged [`CampaignReport`] from this backend
//! is **byte-identical** to [`InProcessBackend`](super::InProcessBackend)'s
//! for the same plan —
//! any shard count, with faults injected and retried, across resume
//! boundaries. Workers re-expand the same manifest text and run the same
//! in-process engine; the supervisor only ever accepts artifacts that
//! validate against the plan, so retries and resume cannot change a
//! single bit of the output.
//!
//! # Deterministic fault injection
//!
//! Workers honor the `GREENER_FAULT` environment variable so every
//! failure mode is exercised in tests rather than hoped about. The value
//! is a comma-separated list of `mode:shard[@attempts]` entries; see
//! [`FaultPlan`] for the grammar. Supervisors forward a configured fault
//! spec to their children ([`SupervisorConfig::fault`]) instead of
//! mutating their own environment, so parallel tests cannot race.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::Duration;

use greener_simkit::proc::{wait_with_timeout, write_atomic, WaitOutcome};
use greener_simkit::rng::splitmix64;
use greener_simkit::sweep;

use super::exec::{
    plan_fingerprint, CampaignError, CampaignReport, Plan, ShardArtifact, ShardBackend, ShardError,
    ShardSpec,
};
use super::manifest::CampaignManifest;
use super::plan::CampaignPlan;
use crate::fleet::{FleetManifest, FleetPlan};

/// A failure mode a worker can be told to exhibit, for tests and smoke
/// runs. `Crash`/`Hang` fire before the worker reads its manifest;
/// `Corrupt`/`Truncate` damage the artifact text just before it is
/// published (the marker is still written, so only artifact validation
/// can catch them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Exit with a non-zero status immediately.
    Crash,
    /// Loop forever (until the supervisor's timeout kills the worker).
    Hang,
    /// Flip one byte in the middle of the artifact text.
    Corrupt,
    /// Publish only a prefix of the artifact text.
    Truncate,
}

impl FaultMode {
    /// Parse one mode keyword.
    fn parse(tok: &str) -> Option<FaultMode> {
        match tok {
            "crash" => Some(FaultMode::Crash),
            "hang" => Some(FaultMode::Hang),
            "corrupt" => Some(FaultMode::Corrupt),
            "truncate" => Some(FaultMode::Truncate),
            _ => None,
        }
    }

    /// Apply artifact damage for `Corrupt`/`Truncate` (no-op for the
    /// process-level modes). Deterministic: same text in, same damage
    /// out.
    pub fn mangle(&self, text: &mut String) {
        match self {
            FaultMode::Corrupt => {
                let mut bytes = std::mem::take(text).into_bytes();
                let pos = bytes.len() / 3;
                if pos < bytes.len() {
                    bytes[pos] ^= 0x01;
                }
                // The artifact alphabet is ASCII; a low-bit flip stays ASCII.
                *text = String::from_utf8(bytes).expect("ascii stays utf8");
            }
            FaultMode::Truncate => {
                let keep = text.len() * 3 / 5;
                text.truncate(keep);
            }
            FaultMode::Crash | FaultMode::Hang => {}
        }
    }
}

/// One injected fault: `mode` fires on shard `shard` for the first
/// `attempts` attempts (so retries beyond that run clean and the shard
/// eventually succeeds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEntry {
    /// What goes wrong.
    pub mode: FaultMode,
    /// Which shard ordinal it targets.
    pub shard: usize,
    /// How many leading attempts it poisons (default 1).
    pub attempts: u32,
}

/// A deterministic fault-injection plan, parsed from the `GREENER_FAULT`
/// environment variable. The grammar is a comma-separated list of
/// `mode:shard[@attempts]` entries, where `mode` is one of `crash`,
/// `hang`, `corrupt`, `truncate`:
///
/// ```
/// use greener_core::campaign::process::{FaultMode, FaultPlan};
///
/// let plan = FaultPlan::parse("crash:0,hang:2@2").unwrap();
/// assert_eq!(plan.fault_for(0, 0), Some(FaultMode::Crash));
/// assert_eq!(plan.fault_for(0, 1), None); // retry runs clean
/// assert_eq!(plan.fault_for(2, 1), Some(FaultMode::Hang)); // @2 poisons two attempts
/// assert_eq!(plan.fault_for(2, 2), None);
/// assert_eq!(plan.fault_for(1, 0), None); // untargeted shard
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The injected faults, in spec order.
    pub entries: Vec<FaultEntry>,
}

impl FaultPlan {
    /// Parse a fault spec. Empty input yields the empty (fault-free)
    /// plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut entries = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (mode_tok, rest) = part
                .split_once(':')
                .ok_or_else(|| format!("fault entry `{part}` is not mode:shard[@attempts]"))?;
            let mode = FaultMode::parse(mode_tok)
                .ok_or_else(|| format!("unknown fault mode `{mode_tok}` in `{part}`"))?;
            let (shard_tok, attempts_tok) = match rest.split_once('@') {
                Some((s, a)) => (s, Some(a)),
                None => (rest, None),
            };
            let shard = shard_tok
                .parse::<usize>()
                .map_err(|_| format!("bad shard ordinal `{shard_tok}` in `{part}`"))?;
            let attempts = match attempts_tok {
                Some(a) => a
                    .parse::<u32>()
                    .map_err(|_| format!("bad attempt count `{a}` in `{part}`"))?,
                None => 1,
            };
            entries.push(FaultEntry {
                mode,
                shard,
                attempts,
            });
        }
        Ok(FaultPlan { entries })
    }

    /// Read the plan from `GREENER_FAULT` (unset or empty → fault-free).
    /// A malformed spec, or a value that is not UTF-8, is an error —
    /// workers must refuse to guess, otherwise a typo in a test silently
    /// tests nothing.
    pub fn from_env() -> Result<FaultPlan, String> {
        match std::env::var("GREENER_FAULT") {
            Ok(spec) => FaultPlan::parse(&spec).map_err(|e| format!("bad GREENER_FAULT: {e}")),
            Err(std::env::VarError::NotPresent) => Ok(FaultPlan::default()),
            Err(e) => Err(format!("bad GREENER_FAULT: {e}")),
        }
    }

    /// The fault `shard` should exhibit on its `attempt`-th run
    /// (0-based), or `None` to run clean. The first matching entry wins.
    pub fn fault_for(&self, shard: usize, attempt: u32) -> Option<FaultMode> {
        self.entries
            .iter()
            .find(|e| e.shard == shard && attempt < e.attempts)
            .map(|e| e.mode)
    }
}

/// How to launch a worker: a program plus fixed leading arguments. The
/// supervisor appends `--manifest`, `--shard`, `--of` and `--dir`
/// values for each attempt, and sets `GREENER_WORKER_ATTEMPT` to the
/// 0-based attempt ordinal (which [`FaultPlan::fault_for`] consults so
/// injected faults clear on retry).
#[derive(Debug, Clone)]
pub struct WorkerCommand {
    /// Executable to spawn.
    pub program: PathBuf,
    /// Leading arguments (e.g. `["campaign-worker"]`).
    pub args: Vec<String>,
}

/// Seed for the deterministic backoff jitter (same shard, same attempt →
/// same delay).
const JITTER_SEED: u64 = 0x6772_6565_6e65_7221;

/// Backoff before retry r (1-based) is `BACKOFF_BASE · 2^(r−1)` plus
/// jitter below `BACKOFF_BASE`, the exponential part capped at
/// [`BACKOFF_CAP`].
const BACKOFF_BASE: Duration = Duration::from_millis(50);
/// Upper bound on the exponential component of the backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// The deterministic backoff before retry `attempt` (1-based: the delay
/// taken *before* that attempt; attempt 0 never waits).
fn backoff_delay(shard: usize, attempt: u32) -> Duration {
    if attempt == 0 {
        return Duration::ZERO;
    }
    let exp = BACKOFF_BASE
        .saturating_mul(1u32 << (attempt - 1).min(16))
        .min(BACKOFF_CAP);
    let base_ms = BACKOFF_BASE.as_millis() as u64;
    let jitter_ms = splitmix64(JITTER_SEED ^ ((shard as u64) << 32) ^ u64::from(attempt)) % base_ms;
    exp + Duration::from_millis(jitter_ms)
}

/// Supervision policy: timeouts, retry budget, resume, and fault
/// forwarding; retries wait a deterministic, capped exponential backoff
/// (50 ms base, 2 s cap). The only wall-clock reads are the
/// timeout enforcement and the backoff sleeps themselves — *which* shards
/// retry, and with what delays, is a pure function of configuration.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Per-attempt wall-clock budget; a worker still running at expiry is
    /// killed and the attempt counts as a timeout.
    pub timeout: Duration,
    /// Maximum attempts per shard (≥ 1).
    pub max_attempts: u32,
    /// Skip shards whose valid artifact + marker already exist.
    pub resume: bool,
    /// Fault spec to forward to workers via `GREENER_FAULT`. `None`
    /// scrubs the variable from the child environment, so a fault spec in
    /// the *supervisor's* environment never leaks into workers that were
    /// not configured for it.
    pub fault: Option<String>,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            timeout: Duration::from_secs(120),
            max_attempts: 3,
            resume: true,
            fault: None,
        }
    }
}

/// Per-shard supervision counters, as recorded by one
/// [`ProcessBackend::run_supervised`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRunStats {
    /// Shard ordinal.
    pub shard: usize,
    /// Total shard count.
    pub of: usize,
    /// The shard was satisfied by a pre-existing valid artifact.
    pub resumed: bool,
    /// Worker attempts actually launched (0 if resumed).
    pub attempts: u32,
    /// Attempts killed at the wall-clock budget.
    pub timeouts: u32,
    /// Attempts that exited with a failure status.
    pub exit_failures: u32,
    /// Attempts whose worker could not be spawned.
    pub spawn_failures: u32,
    /// Attempts whose artifact was structurally malformed.
    pub parse_failures: u32,
    /// Attempts whose artifact failed validation (also counts stale or
    /// damaged leftovers rejected during resume).
    pub validation_failures: u32,
    /// The shard ended with an accepted artifact.
    pub succeeded: bool,
}

impl ShardRunStats {
    fn new(shard: usize, of: usize) -> ShardRunStats {
        ShardRunStats {
            shard,
            of,
            resumed: false,
            attempts: 0,
            timeouts: 0,
            exit_failures: 0,
            spawn_failures: 0,
            parse_failures: 0,
            validation_failures: 0,
            succeeded: false,
        }
    }

    /// The shard needed more than one attempt but still got there.
    pub fn degraded(&self) -> bool {
        self.succeeded && self.attempts > 1
    }

    /// One report line.
    fn to_line(self) -> String {
        format!(
            "shard {} of {} attempts {} timeouts {} exits {} spawns {} parses {} \
             validations {} resumed {} ok {}",
            self.shard,
            self.of,
            self.attempts,
            self.timeouts,
            self.exit_failures,
            self.spawn_failures,
            self.parse_failures,
            self.validation_failures,
            u8::from(self.resumed),
            u8::from(self.succeeded),
        )
    }
}

/// Summary of one supervised campaign run: how the shards got done, as
/// opposed to *what* they computed (that is the byte-stable
/// [`CampaignReport`]). This text is diagnostic —
/// it legitimately varies with faults, machine load, and resume state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignRunReport {
    /// Shards in the run.
    pub shards: usize,
    /// Shards satisfied from pre-existing artifacts.
    pub resumed: usize,
    /// Shards that launched at least one worker.
    pub executed: usize,
    /// Total worker attempts.
    pub attempts: u32,
    /// Total retries (attempts beyond each shard's first).
    pub retries: u32,
    /// Total attempts killed at the timeout.
    pub timeouts: u32,
    /// Shards that succeeded only after retrying.
    pub degraded: usize,
    /// Per-shard counters, sorted by (of, shard).
    pub per_shard: Vec<ShardRunStats>,
}

impl CampaignRunReport {
    fn from_stats(mut per_shard: Vec<ShardRunStats>) -> CampaignRunReport {
        per_shard.sort_by_key(|s| (s.of, s.shard));
        let resumed = per_shard.iter().filter(|s| s.resumed).count();
        CampaignRunReport {
            shards: per_shard.len(),
            resumed,
            executed: per_shard.len() - resumed,
            attempts: per_shard.iter().map(|s| s.attempts).sum(),
            retries: per_shard.iter().map(|s| s.attempts.saturating_sub(1)).sum(),
            timeouts: per_shard.iter().map(|s| s.timeouts).sum(),
            degraded: per_shard.iter().filter(|s| s.degraded()).count(),
            per_shard,
        }
    }

    /// Serialized run summary: one header line with the campaign-wide
    /// counters (the line CI smoke greps), then one line per shard.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "campaign-run shards {} resumed {} executed {} attempts {} retries {} \
             timeouts {} degraded {}\n",
            self.shards,
            self.resumed,
            self.executed,
            self.attempts,
            self.retries,
            self.timeouts,
            self.degraded,
        );
        for s in &self.per_shard {
            out.push_str(&s.to_line());
            out.push('\n');
        }
        out
    }
}

/// The artifact file name for shard `shard` of `of` (shared with the
/// worker, which must publish to exactly this name).
pub fn artifact_file_name(shard: usize, of: usize) -> String {
    format!("shard-{shard}-of-{of}.art")
}

/// The completion-marker file name for shard `shard` of `of`.
pub fn marker_file_name(shard: usize, of: usize) -> String {
    format!("shard-{shard}-of-{of}.ok")
}

/// Process-per-shard [`ShardBackend`]: spawns one supervised worker per
/// shard, retries with deterministic backoff, validates artifacts, and
/// resumes from the artifact directory. See the [module docs](self) for
/// the directory layout and invariants.
///
/// Generic over the plan kind: [`ProcessBackend::new`] supervises
/// campaign manifests and [`ProcessBackend::new_fleet`] fleet manifests.
/// Every supervision mechanism — resume, retry, backoff, validation,
/// fault forwarding — is shared; the plan kind only decides how the
/// manifest text expands and which file name ([`Plan::MANIFEST_FILE`]) it
/// is published under. That name's extension tells a worker which kind to
/// re-expand, so one worker command (`perfjson campaign-worker`) serves
/// both.
#[derive(Debug)]
pub struct ProcessBackend<P: Plan = CampaignPlan> {
    plan: P,
    plan_fp: u64,
    dir: PathBuf,
    manifest_path: PathBuf,
    worker: WorkerCommand,
    config: SupervisorConfig,
    stats: Mutex<Vec<ShardRunStats>>,
}

impl ProcessBackend<CampaignPlan> {
    /// Build a backend for a **campaign** manifest: parse + expand it
    /// (workers will re-expand the identical text), create the artifact
    /// directory, and publish `<dir>/manifest.campaign` atomically.
    pub fn new(
        manifest_text: &str,
        worker: WorkerCommand,
        dir: impl Into<PathBuf>,
        config: SupervisorConfig,
    ) -> Result<ProcessBackend<CampaignPlan>, CampaignError> {
        let manifest_err = |e: super::manifest::ManifestError| CampaignError { msg: e.to_string() };
        let plan = CampaignManifest::parse(manifest_text)
            .map_err(manifest_err)?
            .expand()
            .map_err(manifest_err)?;
        ProcessBackend::with_plan(plan, manifest_text, worker, dir, config)
    }
}

impl ProcessBackend<FleetPlan> {
    /// Build a backend for a **fleet** manifest: parse + expand it
    /// through [`FleetManifest`], create the artifact directory, and
    /// publish `<dir>/manifest.fleet` atomically (workers re-expand it as
    /// a fleet manifest).
    pub fn new_fleet(
        manifest_text: &str,
        worker: WorkerCommand,
        dir: impl Into<PathBuf>,
        config: SupervisorConfig,
    ) -> Result<ProcessBackend<FleetPlan>, CampaignError> {
        let manifest_err = |e: super::manifest::ManifestError| CampaignError { msg: e.to_string() };
        let plan = FleetManifest::parse(manifest_text)
            .map_err(manifest_err)?
            .expand()
            .map_err(manifest_err)?;
        ProcessBackend::with_plan(plan, manifest_text, worker, dir, config)
    }
}

impl<P: Plan> ProcessBackend<P> {
    /// Shared constructor tail: fingerprint the expanded plan, create the
    /// artifact directory, and publish the manifest text under the plan
    /// kind's [`Plan::MANIFEST_FILE`] name.
    fn with_plan(
        plan: P,
        manifest_text: &str,
        worker: WorkerCommand,
        dir: impl Into<PathBuf>,
        config: SupervisorConfig,
    ) -> Result<ProcessBackend<P>, CampaignError> {
        let dir = dir.into();
        let plan_fp = plan_fingerprint(&plan);
        let io = |what: &str, e: std::io::Error| CampaignError {
            msg: format!("{what} `{}`: {e}", dir.display()),
        };
        std::fs::create_dir_all(&dir).map_err(|e| io("create artifact dir", e))?;
        let manifest_path = dir.join(P::MANIFEST_FILE);
        write_atomic(&manifest_path, manifest_text.as_bytes())
            .map_err(|e| io("write manifest into", e))?;
        Ok(ProcessBackend {
            plan,
            plan_fp,
            dir,
            manifest_path,
            worker,
            config,
            stats: Mutex::new(Vec::new()),
        })
    }

    /// The plan this backend executes (expanded from its manifest).
    pub fn plan(&self) -> &P {
        &self.plan
    }

    /// The artifact path for `spec` inside this backend's directory.
    pub fn artifact_path(&self, spec: &ShardSpec) -> PathBuf {
        self.dir.join(artifact_file_name(spec.shard, spec.of))
    }

    /// The completion-marker path for `spec`.
    pub fn marker_path(&self, spec: &ShardSpec) -> PathBuf {
        self.dir.join(marker_file_name(spec.shard, spec.of))
    }

    /// Run the whole campaign supervised: partition into `shards`,
    /// supervise every shard (resume, retry, validate), merge, and
    /// return both the byte-stable merged report and the diagnostic
    /// [`CampaignRunReport`].
    pub fn run_supervised(
        &self,
        shards: usize,
    ) -> Result<(CampaignReport<P::Record>, CampaignRunReport), CampaignError> {
        self.stats.lock().unwrap().clear();
        let report = super::exec::run_campaign(&self.plan, self, shards)?;
        let stats = std::mem::take(&mut *self.stats.lock().unwrap());
        Ok((report, CampaignRunReport::from_stats(stats)))
    }

    /// Try to satisfy `spec` from a pre-existing artifact. Returns the
    /// artifact if it exists (marker too) and validates; deletes invalid
    /// leftovers so the shard re-runs cleanly, bumping the stats counter.
    fn try_resume(
        &self,
        plan: &P,
        spec: &ShardSpec,
        stats: &mut ShardRunStats,
    ) -> Option<ShardArtifact> {
        let artifact_path = self.artifact_path(spec);
        let marker_path = self.marker_path(spec);
        if !artifact_path.exists() || !marker_path.exists() {
            return None;
        }
        if let Ok(text) = std::fs::read_to_string(&artifact_path) {
            let artifact = ShardArtifact { text };
            if artifact.validate(plan, self.plan_fp, Some(spec)).is_ok() {
                return Some(artifact);
            }
        }
        // Damaged or stale leftover: count it, clear it, re-run.
        stats.validation_failures += 1;
        let _ = std::fs::remove_file(&artifact_path);
        let _ = std::fs::remove_file(&marker_path);
        None
    }

    /// Launch one worker attempt for `spec` and collect its artifact.
    fn run_attempt(
        &self,
        plan: &P,
        spec: &ShardSpec,
        attempt: u32,
    ) -> Result<ShardArtifact, ShardError> {
        let artifact_path = self.artifact_path(spec);
        let marker_path = self.marker_path(spec);
        // Clear stale outputs so this attempt's marker can only mean
        // this attempt's artifact.
        let _ = std::fs::remove_file(&artifact_path);
        let _ = std::fs::remove_file(&marker_path);

        let mut cmd = Command::new(&self.worker.program);
        cmd.args(&self.worker.args)
            .arg("--manifest")
            .arg(&self.manifest_path)
            .arg("--shard")
            .arg(spec.shard.to_string())
            .arg("--of")
            .arg(spec.of.to_string())
            .arg("--dir")
            .arg(&self.dir)
            .env("GREENER_WORKER_ATTEMPT", attempt.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        match &self.config.fault {
            Some(fault_spec) => cmd.env("GREENER_FAULT", fault_spec),
            None => cmd.env_remove("GREENER_FAULT"),
        };

        let spawn_err = |e: std::io::Error| ShardError::Spawn {
            shard: spec.shard,
            msg: e.to_string(),
        };
        let mut child = cmd.spawn().map_err(spawn_err)?;
        match wait_with_timeout(&mut child, self.config.timeout).map_err(spawn_err)? {
            WaitOutcome::TimedOut => {
                return Err(ShardError::Timeout {
                    shard: spec.shard,
                    timeout_ms: self.config.timeout.as_millis() as u64,
                })
            }
            WaitOutcome::Exited(status) if !status.success() => {
                return Err(ShardError::Exit {
                    shard: spec.shard,
                    code: status.code(),
                })
            }
            WaitOutcome::Exited(_) => {}
        }

        if !marker_path.exists() {
            return Err(ShardError::Validation {
                shard: spec.shard,
                msg: "worker exited cleanly but left no completion marker".into(),
            });
        }
        let text = std::fs::read_to_string(&artifact_path).map_err(|e| ShardError::Parse {
            shard: spec.shard,
            msg: format!("read artifact `{}`: {e}", artifact_path.display()),
        })?;
        let artifact = ShardArtifact { text };
        artifact
            .validate(plan, self.plan_fp, Some(spec))
            .map_err(|issue| ShardError::from_issue(spec.shard, issue))?;
        Ok(artifact)
    }

    /// Supervise one shard end to end: resume, then attempt/retry with
    /// deterministic backoff until success or the retry budget runs out.
    fn supervise(&self, plan: &P, spec: &ShardSpec) -> Result<ShardArtifact, ShardError> {
        let mut stats = ShardRunStats::new(spec.shard, spec.of);
        let outcome = self.supervise_inner(plan, spec, &mut stats);
        stats.succeeded = outcome.is_ok();
        stats.resumed = stats.succeeded && stats.attempts == 0;
        self.stats.lock().unwrap().push(stats);
        outcome
    }

    fn supervise_inner(
        &self,
        plan: &P,
        spec: &ShardSpec,
        stats: &mut ShardRunStats,
    ) -> Result<ShardArtifact, ShardError> {
        if self.config.resume {
            if let Some(artifact) = self.try_resume(plan, spec, stats) {
                return Ok(artifact);
            }
        }
        let mut last_err = None;
        for attempt in 0..self.config.max_attempts.max(1) {
            std::thread::sleep(backoff_delay(spec.shard, attempt));
            stats.attempts += 1;
            match self.run_attempt(plan, spec, attempt) {
                Ok(artifact) => return Ok(artifact),
                Err(e) => {
                    match &e {
                        ShardError::Timeout { .. } => stats.timeouts += 1,
                        ShardError::Exit { .. } | ShardError::Panic { .. } => {
                            stats.exit_failures += 1
                        }
                        ShardError::Spawn { .. } => stats.spawn_failures += 1,
                        ShardError::Parse { .. } => stats.parse_failures += 1,
                        ShardError::Validation { .. } => stats.validation_failures += 1,
                    }
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.expect("max_attempts ≥ 1 ran at least one attempt"))
    }
}

impl<P: Plan> ShardBackend<P> for ProcessBackend<P> {
    fn run_shards(&self, plan: &P, shards: &[ShardSpec]) -> Vec<Result<ShardArtifact, ShardError>> {
        // Guard the seam once per pass: the plan handed in must be the one
        // this backend's manifest expands to, or workers (which re-expand
        // the manifest) would compute different cells than the merge
        // expects. No worker starts for a mismatched plan.
        if plan_fingerprint(plan) != self.plan_fp {
            return shards
                .iter()
                .map(|spec| {
                    Err(ShardError::Validation {
                        shard: spec.shard,
                        msg: "plan does not match this backend's manifest (fingerprint mismatch)"
                            .into(),
                    })
                })
                .collect();
        }
        sweep::run(shards, |spec| self.supervise(plan, spec))
    }
}

#[cfg(test)]
mod tests {
    use super::super::exec::{merge_artifacts, partition, run_campaign, InProcessBackend};
    use super::*;
    use std::path::Path;

    const MANIFEST: &str = "name = pb\n\
                            base = quick:2@9\n\
                            seeds = 9, 10\n\
                            axis policy = fcfs, easy\n";

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("greener-process-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A fake worker implemented as an `sh` script. With
    /// `sh -c <script> campaign-worker <appended…>`, the supervisor's
    /// appended args land as `$1`=--manifest `$2`=<path> `$3`=--shard
    /// `$4`=<i> `$5`=--of `$6`=<k> `$7`=--dir `$8`=<dir>.
    fn sh_worker(script: &str) -> WorkerCommand {
        WorkerCommand {
            program: PathBuf::from("sh"),
            args: vec!["-c".into(), script.into(), "campaign-worker".into()],
        }
    }

    /// Stage golden per-shard artifacts (produced in-process) next to the
    /// artifact dir, so scripts can `cp` them into place. Returns the
    /// staging dir.
    fn stage_golden(plan: &CampaignPlan, shards: usize, dir: &Path) -> PathBuf {
        let staging = dir.join("golden");
        std::fs::create_dir_all(&staging).unwrap();
        let backend = InProcessBackend;
        for spec in partition(plan.len(), shards) {
            let artifact = backend.run_shard(plan, &spec);
            std::fs::write(
                staging.join(format!("golden-{}", spec.shard)),
                artifact.text,
            )
            .unwrap();
        }
        staging
    }

    /// Script fragment that publishes the staged golden artifact for the
    /// requested shard, then its marker.
    fn publish_golden() -> String {
        "cp \"$8/golden/golden-$4\" \"$8/shard-$4-of-$6.art\" && : > \"$8/shard-$4-of-$6.ok\""
            .to_string()
    }

    fn quick_config() -> SupervisorConfig {
        SupervisorConfig {
            timeout: Duration::from_secs(30),
            ..SupervisorConfig::default()
        }
    }

    fn expected_report(text: &str) -> String {
        let plan = CampaignManifest::parse(MANIFEST).unwrap().expand().unwrap();
        assert_eq!(text.lines().count(), plan.len() + 1);
        run_campaign(&plan, &InProcessBackend, 1).unwrap().to_text()
    }

    #[test]
    fn healthy_workers_match_in_process_byte_for_byte() {
        let dir = temp_dir("healthy");
        let backend =
            ProcessBackend::new(MANIFEST, sh_worker(&publish_golden()), &dir, quick_config())
                .unwrap();
        stage_golden(backend.plan(), 2, &dir);
        let (report, run) = backend.run_supervised(2).unwrap();
        assert_eq!(report.to_text(), expected_report(&report.to_text()));
        assert_eq!((run.shards, run.resumed, run.executed), (2, 0, 2));
        assert_eq!((run.attempts, run.retries, run.degraded), (2, 0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_then_clean_retry_succeeds_and_counts() {
        let dir = temp_dir("crash");
        let script = format!(
            "if [ \"$GREENER_WORKER_ATTEMPT\" = \"0\" ]; then exit 7; fi\n{}",
            publish_golden()
        );
        let backend =
            ProcessBackend::new(MANIFEST, sh_worker(&script), &dir, quick_config()).unwrap();
        stage_golden(backend.plan(), 2, &dir);
        let (report, run) = backend.run_supervised(2).unwrap();
        assert_eq!(report.to_text(), expected_report(&report.to_text()));
        assert_eq!(run.retries, 2, "both shards crashed once");
        assert_eq!(run.degraded, 2);
        assert!(run.per_shard.iter().all(|s| s.exit_failures == 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hung_worker_is_killed_and_retried() {
        let dir = temp_dir("hang");
        let script = format!(
            "if [ \"$GREENER_WORKER_ATTEMPT\" = \"0\" ]; then sleep 60; fi\n{}",
            publish_golden()
        );
        let config = SupervisorConfig {
            timeout: Duration::from_millis(300),
            ..quick_config()
        };
        let backend = ProcessBackend::new(MANIFEST, sh_worker(&script), &dir, config).unwrap();
        stage_golden(backend.plan(), 1, &dir);
        let (report, run) = backend.run_supervised(1).unwrap();
        assert_eq!(report.to_text(), expected_report(&report.to_text()));
        assert_eq!(run.timeouts, 1);
        assert_eq!(run.retries, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_artifact_is_rejected_then_retried() {
        let dir = temp_dir("corrupt");
        // Attempt 0 publishes garbage (with a marker!); retries publish
        // the real artifact. Only validation can catch this.
        let script = format!(
            "if [ \"$GREENER_WORKER_ATTEMPT\" = \"0\" ]; then \
               echo garbage > \"$8/shard-$4-of-$6.art\" && : > \"$8/shard-$4-of-$6.ok\"; \
             else {}; fi",
            publish_golden()
        );
        let backend =
            ProcessBackend::new(MANIFEST, sh_worker(&script), &dir, quick_config()).unwrap();
        stage_golden(backend.plan(), 1, &dir);
        let (report, run) = backend.run_supervised(1).unwrap();
        assert_eq!(report.to_text(), expected_report(&report.to_text()));
        assert_eq!(run.per_shard[0].parse_failures, 1, "{run:?}");
        assert_eq!(run.retries, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_marker_means_failed_attempt() {
        let dir = temp_dir("nomarker");
        let script = format!(
            "if [ \"$GREENER_WORKER_ATTEMPT\" = \"0\" ]; then \
               cp \"$8/golden/golden-$4\" \"$8/shard-$4-of-$6.art\"; \
             else {}; fi",
            publish_golden()
        );
        let backend =
            ProcessBackend::new(MANIFEST, sh_worker(&script), &dir, quick_config()).unwrap();
        stage_golden(backend.plan(), 1, &dir);
        let (_, run) = backend.run_supervised(1).unwrap();
        assert_eq!(run.per_shard[0].validation_failures, 1);
        assert_eq!(run.retries, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_failure_exhausts_retries_with_classified_error() {
        let dir = temp_dir("fatal");
        let backend = ProcessBackend::new(
            MANIFEST,
            sh_worker("exit 5"),
            &dir,
            SupervisorConfig {
                max_attempts: 2,
                ..quick_config()
            },
        )
        .unwrap();
        let err = backend.run_supervised(1).unwrap_err();
        assert!(err.msg.contains("exited with status 5"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_skips_shards_with_valid_artifacts() {
        let dir = temp_dir("resume");
        // Pre-populate every shard's artifact + marker; the worker would
        // fail if it ever ran.
        let backend =
            ProcessBackend::new(MANIFEST, sh_worker("exit 1"), &dir, quick_config()).unwrap();
        let plan = backend.plan().clone();
        let in_process = InProcessBackend;
        for spec in partition(plan.len(), 2) {
            let artifact = in_process.run_shard(&plan, &spec);
            write_atomic(&backend.artifact_path(&spec), artifact.text.as_bytes()).unwrap();
            write_atomic(&backend.marker_path(&spec), b"ok\n").unwrap();
        }
        let (report, run) = backend.run_supervised(2).unwrap();
        assert_eq!(report.to_text(), expected_report(&report.to_text()));
        assert_eq!((run.resumed, run.executed, run.attempts), (2, 0, 0));

        // A damaged leftover is detected, cleared, and re-run — which
        // fails here because the worker always fails, proving the stale
        // file was *not* silently accepted.
        std::fs::write(
            backend.artifact_path(&partition(plan.len(), 2)[0]),
            "artifact v1 damaged\n",
        )
        .unwrap();
        let err = backend.run_supervised(2).unwrap_err();
        assert!(err.msg.contains("exited with status 1"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_plan_other_than_the_manifests_is_refused_before_any_worker_starts() {
        let dir = temp_dir("mismatch");
        let sentinel = dir.join("worker-started");
        let script = format!(": > \"{}\"", sentinel.display());
        let backend =
            ProcessBackend::new(MANIFEST, sh_worker(&script), &dir, quick_config()).unwrap();
        let other = CampaignManifest::parse(&MANIFEST.replace("quick:2@9", "quick:3@9"))
            .unwrap()
            .expand()
            .unwrap();
        assert_eq!(other.len(), backend.plan().len());
        let specs = partition(other.len(), 3);
        let outcomes = backend.run_shards(&other, &specs);
        assert_eq!(outcomes.len(), specs.len());
        for (outcome, spec) in outcomes.iter().zip(&specs) {
            match outcome {
                Err(ShardError::Validation { shard, msg }) => {
                    assert_eq!(*shard, spec.shard);
                    assert!(msg.contains("fingerprint mismatch"), "{msg}");
                }
                other => panic!("shard {} ran: {other:?}", spec.shard),
            }
        }
        assert!(!sentinel.exists(), "a worker started for a mismatched plan");
        // Control: the manifest's own plan does start a worker.
        let _ = backend.run_shards(backend.plan(), &specs[..1]);
        assert!(sentinel.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        for shard in 0..4 {
            assert_eq!(backoff_delay(shard, 0), Duration::ZERO);
            for attempt in 1..8 {
                let a = backoff_delay(shard, attempt);
                let b = backoff_delay(shard, attempt);
                assert_eq!(a, b, "same inputs, same delay");
                assert!(a <= BACKOFF_CAP + BACKOFF_BASE);
            }
        }
        // Different shards jitter differently (with overwhelming odds).
        assert_ne!(
            backoff_delay(0, 1),
            backoff_delay(1, 1),
            "jitter should split shards"
        );
    }

    #[test]
    fn fault_plan_parses_and_gates_on_attempt() {
        let plan = FaultPlan::parse("crash:0, corrupt:3@2 ,truncate:1").unwrap();
        assert_eq!(plan.entries.len(), 3);
        assert_eq!(plan.fault_for(3, 0), Some(FaultMode::Corrupt));
        assert_eq!(plan.fault_for(3, 1), Some(FaultMode::Corrupt));
        assert_eq!(plan.fault_for(3, 2), None);
        assert_eq!(plan.fault_for(1, 0), Some(FaultMode::Truncate));
        assert!(FaultPlan::parse("explode:1").is_err());
        assert!(FaultPlan::parse("crash").is_err());
        assert!(FaultPlan::parse("crash:x").is_err());
        assert!(FaultPlan::parse("crash:1@x").is_err());
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn mangle_damage_is_always_caught_by_validation() {
        let plan = CampaignManifest::parse(MANIFEST).unwrap().expand().unwrap();
        let fp = plan_fingerprint(&plan);
        let spec = partition(plan.len(), 1)[0];
        let good = InProcessBackend.run_shard(&plan, &spec);
        for mode in [FaultMode::Corrupt, FaultMode::Truncate] {
            let mut text = good.text.clone();
            mode.mangle(&mut text);
            assert_ne!(text, good.text, "{mode:?} must change the text");
            let damaged = ShardArtifact { text };
            assert!(damaged.validate(&plan, fp, Some(&spec)).is_err());
            assert!(merge_artifacts(&plan, &[damaged]).is_err());
        }
    }
}
