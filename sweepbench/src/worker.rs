//! Worker mode: the process `ProcessBackend` spawns for each shard.
//!
//! ```text
//! sweepbench worker --trace <0|1> --manifest <path> --shard <i> --of <k> --dir <dir>
//! ```
//!
//! The supervisor appends `--manifest`, `--shard`, `--of` and `--dir`. The
//! worker re-expands the manifest (campaign or fleet, by its file name),
//! runs its shard, and publishes the artifact and then the completion
//! marker, both atomically. With `--trace 1` it walks the shard layer by
//! layer instead and also publishes its tallies as
//! `shard-<i>-of-<k>.spans` before the marker, including `process.worker_s`,
//! its own time from entry to publication.

use std::path::Path;
use std::time::Instant;

use greener_core::campaign::process::{artifact_file_name, marker_file_name};
use greener_core::campaign::{partition, CampaignPlan, InProcessBackend, Plan, ShardBackend};
use greener_core::fleet::FleetPlan;
use greener_simkit::proc::write_atomic;

use crate::layers::{walk_shard, BenchPlan, Spans};
use crate::Flags;

/// The sidecar file a traced worker publishes its tallies to.
pub fn spans_file_name(shard: usize, of: usize) -> String {
    format!("shard-{shard}-of-{of}.spans")
}

/// Run worker mode over `args` (everything after `worker`).
pub fn run(args: &[String]) -> Result<(), String> {
    let started = Instant::now();
    let flags = Flags::parse(args, &["--trace", "--manifest", "--shard", "--of", "--dir"])?;
    let trace = flags.trace()?;
    let manifest = Path::new(flags.required("--manifest")?);
    let shard = flags.number::<usize>("--shard")?;
    let of = flags.number::<usize>("--of")?;
    let dir = Path::new(flags.required("--dir")?);
    if shard >= of {
        return Err(format!("shard {shard} out of range 0..{of}"));
    }
    let job = Job {
        manifest,
        shard,
        of,
        dir,
        trace,
        started,
    };
    if manifest.file_name() == Some(FleetPlan::MANIFEST_FILE.as_ref()) {
        run_shard::<FleetPlan>(&job)
    } else {
        run_shard::<CampaignPlan>(&job)
    }
}

/// One worker invocation's arguments.
#[derive(Clone, Copy)]
struct Job<'a> {
    manifest: &'a Path,
    shard: usize,
    of: usize,
    dir: &'a Path,
    trace: bool,
    started: Instant,
}

fn run_shard<P: BenchPlan>(job: &Job) -> Result<(), String> {
    let Job {
        manifest,
        shard,
        of,
        dir,
        trace,
        started,
    } = *job;
    let mut spans = Spans::default();
    let plan = spans.time("process.worker_expand_s", || {
        let text = std::fs::read_to_string(manifest)
            .map_err(|e| format!("read manifest `{}`: {e}", manifest.display()))?;
        P::expand_text(&text)
    })?;
    let spec = partition(plan.len(), of)[shard];
    let artifact = if trace {
        walk_shard(&plan, &spec, &mut spans)
    } else {
        InProcessBackend::default().run_shard(&plan, &spec)
    };
    let publish = |name: String, bytes: &[u8]| {
        write_atomic(&dir.join(&name), bytes).map_err(|e| format!("publish `{name}`: {e}"))
    };
    spans.time("process.publish_s", || {
        publish(artifact_file_name(shard, of), artifact.text.as_bytes())
    })?;
    if trace {
        spans.raise("process.worker_s", started.elapsed().as_secs_f64());
        publish(spans_file_name(shard, of), spans.to_text().as_bytes())?;
    }
    publish(marker_file_name(shard, of), b"ok\n")
}
