//! Integration tests for fleet sweeps through the campaign execution
//! stack, driven from outside the core crate the way batch call sites use
//! it: fleet manifest text → [`FleetPlan`] → shard-and-merge execution →
//! merged report — through both the in-process backend and the supervised
//! process-per-shard backend, with zero fleet-specific code paths. The
//! byte-identity and fault tests here are the CI `fleet-campaign-faults`
//! smoke in library form.

mod common;

use common::perfjson_bin;
use greener_world::core::campaign::process::{ProcessBackend, SupervisorConfig, WorkerCommand};
use greener_world::core::campaign::{
    merge_artifacts, partition, run_campaign, InProcessBackend, ShardBackend,
};
use greener_world::core::equivalence;
use greener_world::core::fleet::{FleetManifest, FleetPlan};
use std::path::PathBuf;
use std::time::Duration;

/// The CI fleet smoke manifest: all four routing policies × 2 seeds =
/// 8 cells, each a 2-site fleet on a 3-day quick world.
const SMOKE_MANIFEST: &str = "\
# Fleet smoke: every routing policy over two seeds on a 2-site spread.
name  = fleet-smoke
base  = quick:3@17
sites = 2
seeds = 17, 18
axis routing = static, round-robin, greedy-carbon, cost-based
";

fn smoke_plan() -> FleetPlan {
    FleetManifest::parse(SMOKE_MANIFEST)
        .expect("fleet smoke manifest parses")
        .expand()
        .expect("fleet smoke manifest expands")
}

#[test]
fn smoke_manifest_merges_byte_identical_across_shard_counts() {
    let plan = smoke_plan();
    assert_eq!(plan.cells.len(), 8);

    let backend = InProcessBackend;
    let two = run_campaign(&plan, &backend, 2).expect("2 shards merge");
    let five = run_campaign(&plan, &backend, 5).expect("5 shards merge");
    assert_eq!(
        two.to_text(),
        five.to_text(),
        "merged fleet artifacts must be byte-identical across shard counts"
    );

    // The merged report surfaces real fleet rollups for every cell, and
    // the workload-fidelity counters are visible: the shared trace routes
    // everywhere and no gang was clamped on this small world.
    for cell in &two.cells {
        assert!(cell.totals.energy_kwh > 0.0, "{}", cell.id);
        assert!(cell.jobs.completed > 0, "{}", cell.id);
        assert!(cell.routed_jobs > 0, "{}", cell.id);
        assert_eq!(cell.truncated_jobs, 0, "{}", cell.id);
    }
    // Routing matters: static and greedy-carbon cells on the same seed
    // disagree on carbon bits (the spread grids differ regionally).
    let static_cell = two.get("fleet-smoke/routing=static/seed=17").unwrap();
    let greedy = two
        .get("fleet-smoke/routing=greedy-carbon/seed=17")
        .unwrap();
    assert_ne!(
        static_cell.totals.carbon_kg.to_bits(),
        greedy.totals.carbon_kg.to_bits(),
        "routing must move carbon on spread grids"
    );
}

/// Artifacts are the serialization boundary for fleet plans too: shards
/// run by hand, shipped as text, merge back into `run_campaign`'s bytes.
#[test]
fn hand_carried_fleet_artifacts_reproduce_run_campaign() {
    let plan = smoke_plan();
    let backend = InProcessBackend;
    let artifacts: Vec<_> = partition(plan.cells.len(), 3)
        .iter()
        .map(|spec| backend.run_shard(&plan, spec))
        .collect();
    let merged = merge_artifacts(&plan, &artifacts).expect("hand-carried artifacts merge");
    let direct = run_campaign(&plan, &backend, 3).expect("direct run merges");
    assert_eq!(merged.to_text(), direct.to_text());
}

/// The fleet-campaign equivalence axis through the shared
/// `assert_campaign_equivalent` harness (no bespoke comparison loop):
/// merged cells match straight fleet runs byte for byte at several shard
/// counts, across thread counts.
#[test]
fn fleet_campaign_axis_holds_from_downstream() {
    let plan = smoke_plan();
    let prior = std::env::var("RAYON_NUM_THREADS").ok();
    for threads in ["1", "4"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        equivalence::assert_campaign_equivalent(
            &format!("downstream fleet campaign (threads={threads})"),
            &plan,
            &InProcessBackend,
            &[1, 2, 8],
        );
    }
    match prior {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
}

/// Workers run in `campaign-worker` mode, like campaign workers: they
/// read the plan kind off the published manifest's `.fleet` extension.
fn worker_command() -> WorkerCommand {
    WorkerCommand {
        program: perfjson_bin(),
        args: vec!["campaign-worker".into()],
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("greener-fleet-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn process_config() -> SupervisorConfig {
    SupervisorConfig {
        timeout: Duration::from_secs(60),
        ..SupervisorConfig::default()
    }
}

/// The tentpole invariant: the process-per-shard backend runs fleet
/// shards in worker processes, and its merged report holds the same
/// equivalence axis and is byte-identical to the in-process backend's.
#[test]
fn process_backend_holds_the_fleet_campaign_equivalence_axis() {
    let plan = smoke_plan();
    let dir = temp_dir("axis");
    let backend =
        ProcessBackend::new_fleet(SMOKE_MANIFEST, worker_command(), &dir, process_config())
            .unwrap();
    equivalence::assert_campaign_equivalent("fleet process backend", &plan, &backend, &[1, 2, 8]);

    // Byte-identity against the in-process backend at yet another count.
    let process_text = run_campaign(&plan, &backend, 3).unwrap().to_text();
    let in_process_text = run_campaign(&plan, &InProcessBackend, 3).unwrap().to_text();
    assert_eq!(process_text, in_process_text);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fault matrix over fleet shards: one crash, one hang (killed at a
/// short timeout), one corrupt artifact and one truncated artifact — all
/// retried to success, and the merged fleet report does not change a
/// byte relative to a clean in-process run.
#[test]
fn injected_faults_are_retried_to_a_byte_identical_fleet_report() {
    let plan = smoke_plan();
    let dir = temp_dir("faults");
    let config = SupervisorConfig {
        timeout: Duration::from_secs(6),
        fault: Some("crash:0,hang:1,corrupt:2,truncate:3".into()),
        ..process_config()
    };
    let backend =
        ProcessBackend::new_fleet(SMOKE_MANIFEST, worker_command(), &dir, config).unwrap();
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

/// Resume over fleet artifacts: delete one shard's artifact after a full
/// run — only that shard re-executes and the merged bytes are unchanged.
#[test]
fn resume_skips_fleet_shards_with_existing_artifacts() {
    let dir = temp_dir("resume");
    let backend =
        ProcessBackend::new_fleet(SMOKE_MANIFEST, worker_command(), &dir, process_config())
            .unwrap();
    let (first, run) = backend.run_supervised(4).unwrap();
    assert_eq!((run.resumed, run.executed), (0, 4));

    let deleted = partition(backend.plan().cells.len(), 4)[2];
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
