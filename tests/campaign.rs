//! Integration tests for the campaign layer, driven from outside the core
//! crate the way batch call sites use it: text manifest → plan →
//! shard-and-merge execution → merged report. The byte-identity test here
//! is the CI campaign smoke: a tiny manifest (2 axes × 2 values × 2
//! seeds) through the shard runner at two shard counts, merged artifacts
//! compared byte for byte.

mod common;

use common::perfjson_bin;
use greener_world::core::campaign::process::{ProcessBackend, SupervisorConfig, WorkerCommand};
use greener_world::core::campaign::{
    merge_artifacts, partition, run_campaign, CampaignManifest, InProcessBackend, ShardBackend,
};
use greener_world::core::equivalence;
use std::path::PathBuf;
use std::time::Duration;

/// The CI smoke manifest: 2 axes × 2 values × 2 seeds = 8 cells on a
/// 3-day quick world.
const SMOKE_MANIFEST: &str = "\
# Campaign smoke: policy × SLO over two seeds.
name  = smoke
base  = quick:3@17
seeds = 17, 18
axis policy = easy, carbon:0.06
axis slo_wait_hours = 12, 24
";

#[test]
fn smoke_manifest_merges_byte_identical_across_shard_counts() {
    let plan = CampaignManifest::parse(SMOKE_MANIFEST)
        .expect("smoke manifest parses")
        .expand()
        .expect("smoke manifest expands");
    assert_eq!(plan.len(), 8);
    // Policy and SLO are replay knobs; only the seed axis splits worlds.
    assert_eq!(plan.distinct_worlds(), 2);

    let backend = InProcessBackend;
    let two = run_campaign(&plan, &backend, 2).expect("2 shards merge");
    let five = run_campaign(&plan, &backend, 5).expect("5 shards merge");
    assert_eq!(
        two.to_text(),
        five.to_text(),
        "merged campaign artifacts must be byte-identical across shard counts"
    );

    // The merged report surfaces real aggregates for every cell.
    for cell in &two.cells {
        assert!(cell.aggregates.energy_kwh > 0.0, "{}", cell.id);
        assert!(cell.jobs.completed > 0, "{}", cell.id);
    }
}

/// Artifacts really are the serialization boundary: running shards by
/// hand, shipping only their text, and merging reproduces `run_campaign`
/// byte for byte — the drop-in seam a process-per-shard backend will use.
#[test]
fn hand_carried_artifacts_reproduce_run_campaign() {
    let plan = CampaignManifest::parse(SMOKE_MANIFEST)
        .unwrap()
        .expand()
        .unwrap();
    let backend = InProcessBackend;
    let artifacts: Vec<_> = partition(plan.len(), 3)
        .iter()
        .map(|spec| backend.run_shard(&plan, spec))
        .collect();
    let merged = merge_artifacts(&plan, &artifacts).expect("hand-carried artifacts merge");
    let direct = run_campaign(&plan, &backend, 3).expect("direct run merges");
    assert_eq!(merged.to_text(), direct.to_text());
}

/// The campaign equivalence axis, exercised from outside the crate: every
/// merged record matches its cell's straight run byte for byte at several
/// shard counts.
#[test]
fn campaign_axis_holds_from_downstream() {
    let plan = CampaignManifest::parse(SMOKE_MANIFEST)
        .unwrap()
        .expand()
        .unwrap();
    equivalence::assert_campaign_equivalent(
        "downstream campaign",
        &plan,
        &InProcessBackend,
        &[1, 3, 8],
    );
}

/// Two seeds × two arrival rates × two deadline policies: every cell is
/// its own world, but the environment depends on the seed alone, so a
/// pass shares one environment per seed across the trace variants and
/// drops every world after its cell. Three shards split a seed's
/// environment group across a shard boundary.
const SHARED_ENV_MANIFEST: &str = "\
name  = shared-env
base  = quick:3@17
seeds = 17, 18
axis arrival_rate = 0.6, 0.9
axis deadline = status_quo, rolling
";

#[test]
fn shared_environment_manifest_merges_byte_identical_across_shards_and_reuse() {
    let plan = CampaignManifest::parse(SHARED_ENV_MANIFEST)
        .unwrap()
        .expand()
        .unwrap();
    assert_eq!(plan.len(), 8);
    assert_eq!(plan.distinct_worlds(), 8);
    assert_eq!(plan.distinct_environments(), 2);

    // Every merged record equals its cell's straight run (a fresh world
    // and environment) byte for byte, so the merged reports agree too.
    equivalence::assert_campaign_equivalent(
        "shared environments",
        &plan,
        &InProcessBackend,
        &[1, 2, 3],
    );
}

fn worker_command() -> WorkerCommand {
    WorkerCommand {
        program: perfjson_bin(),
        args: vec!["campaign-worker".into()],
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("greener-campaign-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn process_config() -> SupervisorConfig {
    SupervisorConfig {
        timeout: Duration::from_secs(60),
        ..SupervisorConfig::default()
    }
}

/// The tentpole invariant, pinned through the standing equivalence axis:
/// the process-per-shard backend's merged report matches straight
/// per-cell runs at shard counts {1, 2, 8}, and is byte-identical to the
/// in-process backend's text.
#[test]
fn process_backend_holds_the_campaign_equivalence_axis() {
    let plan = CampaignManifest::parse(SMOKE_MANIFEST)
        .unwrap()
        .expand()
        .unwrap();
    let dir = temp_dir("axis");
    let backend =
        ProcessBackend::new(SMOKE_MANIFEST, worker_command(), &dir, process_config()).unwrap();
    equivalence::assert_campaign_equivalent("process backend", &plan, &backend, &[1, 2, 8]);

    // Byte-identity against the in-process backend at yet another count.
    let process_text = run_campaign(&plan, &backend, 3).unwrap().to_text();
    let in_process_text = run_campaign(&plan, &InProcessBackend, 3).unwrap().to_text();
    assert_eq!(process_text, in_process_text);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fault matrix: one crash, one hang (killed at a short timeout),
/// one corrupt artifact and one truncated artifact — every shard retried
/// to success, the run report says so, and the merged report is still
/// byte-identical to a clean in-process run.
#[test]
fn injected_faults_are_retried_to_a_byte_identical_report() {
    let plan = CampaignManifest::parse(SMOKE_MANIFEST)
        .unwrap()
        .expand()
        .unwrap();
    let dir = temp_dir("faults");
    let config = SupervisorConfig {
        timeout: Duration::from_secs(6),
        fault: Some("crash:0,hang:1,corrupt:2,truncate:3".into()),
        ..process_config()
    };
    let backend = ProcessBackend::new(SMOKE_MANIFEST, worker_command(), &dir, config).unwrap();
    let (report, run) = backend.run_supervised(4).unwrap();

    let clean = run_campaign(&plan, &InProcessBackend, 1).unwrap().to_text();
    assert_eq!(report.to_text(), clean, "faults must not change a byte");
    assert_eq!(run.shards, 4);
    assert!(run.retries >= 4, "every shard retried once: {run:?}");
    assert!(run.timeouts >= 1, "the hang was killed: {run:?}");
    assert_eq!(run.degraded, 4, "every shard needed a retry: {run:?}");
    assert!(run.per_shard.iter().all(|s| s.succeeded), "{run:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resume: after a full run, delete one artifact and run again — the
/// other shards are satisfied from disk, only the deleted one
/// re-executes, and the merged report does not change by a byte.
#[test]
fn resume_skips_shards_with_existing_artifacts() {
    let dir = temp_dir("resume");
    let backend =
        ProcessBackend::new(SMOKE_MANIFEST, worker_command(), &dir, process_config()).unwrap();
    let (first, run) = backend.run_supervised(4).unwrap();
    assert_eq!((run.resumed, run.executed), (0, 4));

    let deleted = partition(backend.plan().len(), 4)[2];
    std::fs::remove_file(backend.artifact_path(&deleted)).unwrap();
    let (second, rerun) = backend.run_supervised(4).unwrap();
    assert_eq!((rerun.resumed, rerun.executed), (3, 1), "{rerun:?}");
    assert_eq!(rerun.attempts, 1);
    assert_eq!(
        first.to_text(),
        second.to_text(),
        "resume must not change a byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `GREENER_FAULT` that is not UTF-8 cannot be read as a fault plan,
/// and a malformed UTF-8 one names no plan, so the worker and the
/// supervised driver both refuse either (exit 2, the error prefixed once)
/// instead of running fault-free or spawning workers that refuse it.
#[cfg(unix)]
#[test]
fn non_utf8_fault_spec_is_refused() {
    use std::ffi::OsStr;
    use std::os::unix::ffi::OsStrExt;

    let dir = temp_dir("non-utf8-fault");
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("m.campaign");
    std::fs::write(&manifest, SMOKE_MANIFEST).unwrap();
    let art = dir.join("art");
    let runs: [&[&OsStr]; 2] = [
        &[
            "campaign-worker".as_ref(),
            "--manifest".as_ref(),
            manifest.as_os_str(),
            "--shard".as_ref(),
            "0".as_ref(),
            "--of".as_ref(),
            "1".as_ref(),
            "--dir".as_ref(),
            art.as_os_str(),
        ],
        &[
            "campaign".as_ref(),
            "--manifest".as_ref(),
            manifest.as_os_str(),
            "--shards".as_ref(),
            "1".as_ref(),
            "--dir".as_ref(),
            art.as_os_str(),
        ],
    ];
    let specs: [&[u8]; 2] = [b"crash:0\xff", b"crash:0x"];
    for (args, spec) in runs.iter().flat_map(|a| specs.map(|s| (a, s))) {
        let out = std::process::Command::new(perfjson_bin())
            .args(*args)
            .env("GREENER_FAULT", OsStr::from_bytes(spec))
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("{args:?} with {}", spec.escape_ascii());
        assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
        assert!(stderr.contains("GREENER_FAULT"), "{what}: {stderr}");
        assert!(!stderr.contains("campaign: campaign:"), "{what}: {stderr}");
        // No artifact directory means no backend was built, so no worker
        // was spawned, and no artifact or marker was published.
        assert!(!art.exists(), "{what} created {}", art.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
