//! The equivalence-test harness: pin the optimized engine against its
//! reference, bit for bit.
//!
//! Every fast path in the replay engine ships with a reference that *is*
//! the semantics, and the optimized engine must reproduce it exactly. The
//! references live together in one entry point,
//! [`SimDriver::run_reference`]: the binary-heap event queue, every
//! arrival through the full dispatch, and the array-of-structs running-job
//! slab. World generation's reference is the single-threaded schedule
//! (`RAYON_NUM_THREADS=1`), and observation's is the full probe set. This
//! module is the shared infrastructure those pins run on, so a new fast
//! path rides an existing comparison instead of hand-rolling another loop:
//!
//! 1. [`Fingerprint`] condenses a run into what equivalence means here:
//!    total energy and carbon **bits**, the completion count, and (when
//!    retained) the full per-job record stream — job → start time, power
//!    cap, finish, energy — i.e. the *decision stream*, not just the
//!    aggregate outcome. Two configurations that agree on every job record
//!    made the same scheduling decisions in the same order.
//! 2. [`assert_matches_reference`] replays a scenario matrix on the
//!    default and the reference engine over one shared world and asserts
//!    fingerprint equality; [`assert_runners_equivalent`] is the
//!    generalization for axes that change the *entry point* (full probes
//!    vs aggregates-only, a 1-site fleet vs [`SimDriver`]).
//! 3. [`quick_matrix`] is the default matrix: every golden policy family ×
//!    two seeds on the quick world, the same grid the driver's golden
//!    determinism test pins to captured constants.
//!
//! The driver's unit tests route the default-vs-reference engine,
//! world-gen thread-count and full-vs-aggregates axes through these
//! helpers, the fleet layer pins its degenerate case the same way (a
//! 1-site [`crate::fleet::FleetScenario`] under static routing must
//! reproduce the single-site run bit-for-bit — see
//! [`crate::fleet::fingerprint`]), and `tests/observe.rs` exercises the
//! harness from outside the crate. Property tests randomize the matrix;
//! [`proptest_cases`] lets CI boost their case count via `PROPTEST_CASES`
//! without slowing the default test run.

use greener_sched::PolicyKind;

use crate::campaign::{run_campaign, CellRecord, Plan, ShardBackend};
use crate::driver::{JobRecord, JobStats, SimDriver, World};
use crate::probe::{Observe, RunAggregates, RunOutput};
use crate::scenario::Scenario;

/// What two equivalent engine configurations must agree on.
///
/// Energy and carbon are compared as **bit patterns** (two f64 streams
/// that merely round alike do not count), completions as exact counts,
/// and — when both sides retained them — the per-job records as full
/// structural equality, which pins the decision stream: assignment order,
/// start times, power caps and per-job energy attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// `f64::to_bits` of total purchased energy (kWh).
    pub energy_bits: u64,
    /// `f64::to_bits` of total carbon (kg).
    pub carbon_bits: u64,
    /// Completed jobs.
    pub completed: usize,
    /// Per-job records in completion order, if the producing entry point
    /// retained them (`None` for aggregates-only runs; record comparison
    /// is skipped unless both sides carry them).
    pub records: Option<Vec<JobRecord>>,
}

impl Fingerprint {
    /// The fingerprint of one replay's output (`records` is whatever the
    /// run retained).
    fn of(out: RunOutput) -> Fingerprint {
        Fingerprint::of_totals(&out.aggregates, &out.jobs, out.job_records)
    }

    /// The fingerprint of a run's totals, carrying `records` if the
    /// producer retained them (shared by replays, fleet runs and the
    /// aggregates-only campaign and fleet cell records).
    pub(crate) fn of_totals(
        aggregates: &RunAggregates,
        jobs: &JobStats,
        records: Option<Vec<JobRecord>>,
    ) -> Fingerprint {
        Fingerprint {
            energy_bits: aggregates.energy_kwh.to_bits(),
            carbon_bits: aggregates.carbon_kg.to_bits(),
            completed: jobs.completed,
            records,
        }
    }

    /// Assert equality against another fingerprint with a labelled,
    /// field-by-field failure message.
    ///
    /// # Panics
    /// On any mismatch, naming the first differing field and `label`.
    pub fn assert_same(&self, other: &Fingerprint, label: &str) {
        assert_eq!(
            self.energy_bits,
            other.energy_bits,
            "{label}: energy bits diverged ({} vs {})",
            f64::from_bits(self.energy_bits),
            f64::from_bits(other.energy_bits),
        );
        assert_eq!(
            self.carbon_bits,
            other.carbon_bits,
            "{label}: carbon bits diverged ({} vs {})",
            f64::from_bits(self.carbon_bits),
            f64::from_bits(other.carbon_bits),
        );
        assert_eq!(
            self.completed, other.completed,
            "{label}: completions diverged"
        );
        if let (Some(a), Some(b)) = (&self.records, &other.records) {
            assert_eq!(a.len(), b.len(), "{label}: record counts diverged");
            for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
                assert_eq!(
                    ra, rb,
                    "{label}: decision stream diverged at completion #{i}"
                );
            }
        }
    }
}

/// Fingerprint a scenario end to end (world generation + replay),
/// retaining the per-job record stream.
pub fn fingerprint(scenario: &Scenario) -> Fingerprint {
    let world = World::build(scenario);
    fingerprint_with_world(scenario, &world)
}

/// Fingerprint a default-engine replay over a pre-built world (share one
/// world across replays — the world is policy- and replay-invariant).
pub fn fingerprint_with_world(scenario: &Scenario, world: &World) -> Fingerprint {
    Fingerprint::of(SimDriver::run_observed(
        scenario,
        world,
        Observe::aggregates().with_job_records(),
    ))
}

/// Fingerprint a reference-engine replay over a pre-built world (see
/// [`SimDriver::run_reference`]).
fn reference_engine_fingerprint(scenario: &Scenario, world: &World) -> Fingerprint {
    Fingerprint::of(SimDriver::run_reference(
        scenario,
        world,
        Observe::aggregates().with_job_records(),
    ))
}

/// Replay every scenario in `matrix` on the reference engine and on the
/// default engine, over one world per scenario, and assert bit-identical
/// fingerprints, per-job decision records included.
///
/// # Panics
/// On the first scenario whose fingerprints differ.
pub fn assert_matches_reference(label: &str, matrix: &[Scenario]) {
    for scenario in matrix {
        assert_world_matches_reference(label, scenario, &World::build(scenario));
    }
}

/// [`assert_matches_reference`] for one scenario over a given world, for
/// worlds built by hand (event-time ties no generated trace is sure to
/// contain).
///
/// # Panics
/// If the fingerprints differ.
pub fn assert_world_matches_reference(label: &str, scenario: &Scenario, world: &World) {
    reference_engine_fingerprint(scenario, world).assert_same(
        &fingerprint_with_world(scenario, world),
        &format!("{label} (reference vs default) [{}]", scenario.name),
    );
}

/// Pin two ways of performing or observing a run against each other: each
/// runner turns a scenario into a [`Fingerprint`] however it likes
/// (different entry point, shared world, different probe set).
///
/// # Panics
/// On the first scenario whose fingerprints differ.
pub fn assert_runners_equivalent(
    label: &str,
    matrix: &[Scenario],
    reference: impl Fn(&Scenario) -> Fingerprint,
    optimized: impl Fn(&Scenario) -> Fingerprint,
) {
    for scenario in matrix {
        let a = reference(scenario);
        let b = optimized(scenario);
        a.assert_same(&b, &format!("{label} [{}]", scenario.name));
    }
}

/// The campaign axis: pin sharded/merged execution of any
/// [`Plan`] — scenario campaigns and fleet plans alike — against straight
/// per-cell runs, at every shard count in `shard_counts`.
///
/// Each cell's straight-run reference ([`Plan::reference_record`]: fresh
/// world, no cache, no shard) is computed once. Then, for each shard
/// count, the plan is executed through `backend` and merged, every cell
/// is looked up in the merged report by id, and its record's artifact
/// line ([`CellRecord::to_line`]) must equal the reference's byte for
/// byte. The line carries every aggregate and job-statistic total as
/// `f64::to_bits` hex (and, for fleet cells, the digest of the full fleet
/// report), so this pins the merge-determinism standing invariant: shard
/// count, thread count and the world cache are unobservable in campaign
/// output.
///
/// `backend` is any [`ShardBackend`] — the in-process runner and the
/// process-per-shard [`crate::campaign::process::ProcessBackend`] (with
/// its retries, fault injection and resume) ride the same axis, for
/// campaign and fleet plans alike, which is what makes "the supervised
/// backend changes no byte" a pinned invariant rather than a bespoke
/// comparison loop.
///
/// # Panics
/// On the first cell whose merged record diverges from its straight run,
/// naming the shard count and cell id.
pub fn assert_campaign_equivalent<P: Plan>(
    label: &str,
    plan: &P,
    backend: &impl ShardBackend<P>,
    shard_counts: &[usize],
) {
    let references: Vec<String> = (0..plan.len())
        .map(|i| plan.reference_record(i).to_line())
        .collect();
    for &shards in shard_counts {
        let report = run_campaign(plan, backend, shards)
            .unwrap_or_else(|e| panic!("{label} shards={shards}: {e}"));
        for (i, reference) in references.iter().enumerate() {
            let id = plan.cell_id(i);
            let cell = report
                .get(id)
                .unwrap_or_else(|| panic!("{label}: cell `{id}` missing from report"));
            assert_eq!(
                &cell.to_line(),
                reference,
                "{label} shards={shards} [{id}]: merged record differs from the straight run"
            );
        }
    }
}

/// The default equivalence matrix: the golden policy families × two seeds
/// on the 14-day quick world (the grid the driver's golden determinism
/// test pins to captured constants), named per cell for failure messages.
pub fn quick_matrix() -> Vec<Scenario> {
    let policies = [
        PolicyKind::Fcfs,
        PolicyKind::EasyBackfill,
        PolicyKind::StaticCap { cap_w: 160.0 },
        PolicyKind::CarbonAware {
            green_threshold: 0.06,
        },
    ];
    let mut matrix = Vec::new();
    for seed in [11u64, 42] {
        for policy in policies {
            let name = format!("quick-14d seed {seed} {}", policy.label());
            matrix.push(Scenario::quick(14, seed).with_policy(policy).named(name));
        }
    }
    matrix
}

/// Property-test case count: `PROPTEST_CASES` when set (the CI boost job
/// sets it), `default` otherwise. Mirrors how real proptest treats the
/// variable, for configs that pick an explicit low default to keep debug
/// runs fast.
pub fn proptest_cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_deterministic_and_discriminating() {
        let a = Scenario::quick(5, 3);
        let fa = fingerprint(&a);
        let fa2 = fingerprint(&a);
        assert_eq!(fa, fa2);
        fa.assert_same(&fa2, "self");
        assert!(fa.records.as_ref().is_some_and(|r| !r.is_empty()));
        let fb = fingerprint(&Scenario::quick(5, 4));
        assert_ne!(fa, fb, "different seeds must not collide");
    }

    #[test]
    #[should_panic(expected = "energy bits diverged")]
    fn assert_same_reports_divergence() {
        let f = fingerprint(&Scenario::quick(3, 7));
        let mut g = f.clone();
        g.energy_bits ^= 1;
        f.assert_same(&g, "doctored");
    }

    #[test]
    fn runners_generalization_accepts_shared_worlds() {
        // A fresh-world runner against a shared-world reference-engine
        // runner.
        let matrix = [Scenario::quick(6, 13)];
        assert_runners_equivalent("shared-world engine axis", &matrix, fingerprint, |s| {
            let world = World::build(s);
            reference_engine_fingerprint(s, &world)
        });
    }

    /// The acceptance pin for the campaign layer: for a fixed manifest the
    /// merged output matches straight per-cell runs bit-for-bit across
    /// shard counts {1, 2, 8} and `RAYON_NUM_THREADS` {1, 4}. The vendored
    /// rayon reads the variable per call, and results are pinned
    /// thread-count-invariant by every engine axis, so toggling it
    /// in-process is safe.
    #[test]
    fn campaign_axis_across_shard_and_thread_counts() {
        use crate::campaign::{CampaignManifest, InProcessBackend};
        let plan = CampaignManifest::parse(
            "name = eqv\n\
             base = quick:4@3\n\
             seeds = 3..5\n\
             axis policy = easy, carbon:0.06\n\
             axis slo_wait_hours = 12, 24\n",
        )
        .unwrap()
        .expand()
        .unwrap();
        let prior = std::env::var("RAYON_NUM_THREADS").ok();
        for threads in ["1", "4"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            assert_campaign_equivalent(
                &format!("campaign threads={threads}"),
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

    #[test]
    fn quick_matrix_names_are_unique() {
        let mut names: Vec<String> = quick_matrix().into_iter().map(|s| s.name).collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
        assert_eq!(total, 8);
    }

    #[test]
    fn proptest_cases_prefers_default_without_env() {
        // CI sets PROPTEST_CASES only in the boost job; the unit-test
        // environment must fall through to the explicit default.
        if std::env::var("PROPTEST_CASES").is_err() {
            assert_eq!(proptest_cases(6), 6);
        }
    }
}
