//! Scenario configuration.
//!
//! A [`Scenario`] bundles every subsystem's configuration plus the decision
//! variables of Eq. 1 — supplied resources `q_s` (cluster size), the
//! scheduling rule `p` (policy) and control mechanisms `c` (caps, battery,
//! purchasing strategy) — into one reproducible unit: a scenario plus a
//! seed fully determines a simulation run.

use greener_climate::WeatherConfig;
use greener_forecast::ForecasterKind;
use greener_grid::mix::GridConfig;
use greener_grid::storage::BatteryConfig;
use greener_hpc::{ClusterSpec, CoolingModel};
use greener_sched::PolicyKind;
use greener_simkit::calendar::CalDate;
use greener_workload::{ConferenceCalendar, DeadlinePolicy, TraceConfig};
use serde::{Deserialize, Serialize};

use crate::strategy::PurchaseStrategy;

/// How the carbon-aware scheduler obtains its green-share forecast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ForecastMode {
    /// Perfect foresight: read the actual future grid path. Upper bound on
    /// achievable carbon-aware savings.
    Oracle,
    /// Fit a forecasting model on the observed history (refit daily).
    Model(ForecasterKind),
    /// Persistence: assume the next 24 h repeat the current hour.
    Naive,
}

/// Full simulation configuration.
///
/// Serialization note: the struct derives both `Serialize` and
/// `Deserialize` so a scenario can round-trip through config files once
/// real serde is wired in. The vendored `serde` stand-in (see
/// `vendor/README.md`) has no serializer/deserializer at all — its traits
/// are blanket-implemented markers — so a roundtrip smoke test cannot run
/// offline. The planned std-only spec text codec (ROADMAP item 3, which
/// replaces the old "real serde + registry" plan) is where a roundtrip
/// test belongs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable scenario name (appears in reports).
    pub name: String,
    /// Civil date of simulation hour 0.
    pub start: CalDate,
    /// Horizon in whole hours.
    pub horizon_hours: usize,
    /// Root seed: one seed = one reproducible world.
    pub seed: u64,
    /// Weather model.
    pub weather: WeatherConfig,
    /// Grid model.
    pub grid: GridConfig,
    /// Cluster shape and GPU model.
    pub cluster: ClusterSpec,
    /// Cooling plant.
    pub cooling: CoolingModel,
    /// Workload trace configuration.
    pub trace: TraceConfig,
    /// Deadline-restructuring policy applied to the Table I calendar.
    pub deadline_policy: DeadlinePolicy,
    /// Scheduling policy (`p` and scheduler-side `c` of Eq. 1).
    pub policy: PolicyKind,
    /// Forecast source for carbon-aware policies.
    pub forecast: ForecastMode,
    /// Optional battery and purchasing strategy (§II-A).
    pub strategy: PurchaseStrategy,
    /// Wait-time threshold counted as an SLO violation, hours.
    pub slo_wait_hours: f64,
}

impl Scenario {
    /// The flagship configuration: the paper's Jan 2020 – Dec 2021 window
    /// (731 days) with the Table I calendar, EASY backfill and no
    /// energy-aware interventions — the *baseline world* Figs. 2–5 observe.
    pub fn two_year_baseline(seed: u64) -> Scenario {
        Scenario {
            name: "two-year-baseline".into(),
            start: CalDate::new(2020, 1, 1),
            horizon_hours: 731 * 24,
            seed,
            weather: WeatherConfig::default(),
            grid: GridConfig::default(),
            cluster: ClusterSpec::default(),
            cooling: CoolingModel::default(),
            trace: TraceConfig::default(),
            deadline_policy: DeadlinePolicy::StatusQuo,
            policy: PolicyKind::EasyBackfill,
            forecast: ForecastMode::Oracle,
            strategy: PurchaseStrategy::None,
            slo_wait_hours: 24.0,
        }
    }

    /// One calendar year (2020), otherwise the baseline world.
    pub fn one_year_baseline(seed: u64) -> Scenario {
        Scenario {
            name: "one-year-baseline".into(),
            horizon_hours: 366 * 24,
            ..Scenario::two_year_baseline(seed)
        }
    }

    /// The baseline world at 1/10 scale (64 GPUs, proportional demand):
    /// same weather, grid and calendar, affordable inside debug-mode tests.
    pub fn two_year_small(seed: u64) -> Scenario {
        let mut s = Scenario::two_year_baseline(seed);
        s.name = "two-year-small".into();
        s.cluster = ClusterSpec {
            nodes: 32,
            gpus_per_node: 2,
            fixed_infra_w: 2_200.0,
            ..ClusterSpec::default()
        };
        s.trace.demand.base_rate_per_hour = 1.6;
        s.trace.population.n_users = 60;
        // Smaller cluster, smaller jobs: cap the heavy tail so monthly
        // aggregates are not dominated by single whale jobs (the full-scale
        // scenario keeps the heavy tail — there one job is <1% of a month).
        s.trace.sizes.gpu_menu = vec![(1, 0.40), (2, 0.25), (4, 0.20), (8, 0.15)];
        s.trace.sizes.runtime_cap_hours = 24.0;
        s
    }

    /// A small scenario for tests and docs: `days` of simulation on a
    /// 16-node cluster with a proportionally lighter workload.
    pub fn quick(days: usize, seed: u64) -> Scenario {
        let mut s = Scenario::two_year_baseline(seed);
        s.name = format!("quick-{days}d");
        s.horizon_hours = days * 24;
        s.cluster = ClusterSpec {
            nodes: 16,
            gpus_per_node: 2,
            ..ClusterSpec::default()
        };
        // Scale demand to the smaller cluster (640 → 32 GPUs).
        s.trace.demand.base_rate_per_hour = 0.8;
        s
    }

    /// The Table I calendar after applying this scenario's deadline policy.
    pub fn effective_calendar(&self) -> ConferenceCalendar {
        self.deadline_policy.apply(&ConferenceCalendar::table_i())
    }

    /// Stable key over everything that feeds `World::build`: the seed,
    /// start date, horizon, the weather/grid/trace configurations, the
    /// deadline policy (it reshapes the calendar the trace generator
    /// samples) and the cluster's total GPU count (gang sizes are capped
    /// at it, baked into the trace). The name, policy, forecast, strategy,
    /// cooling and SLO fields are deliberately excluded — they cannot
    /// change a world bit. Neither can the world-gen thread count, which is not a
    /// scenario field at all (`RAYON_NUM_THREADS`; the equivalence
    /// harness pins 1 vs N threads bit-identical).
    ///
    /// Two scenarios with equal keys build **bit-identical** worlds, so a
    /// campaign shard may build the world once and replay every matching
    /// cell over it (the world-reuse cache in `crate::campaign`). The key
    /// is the `Debug` rendering of the world-input fields, which is
    /// injective for this purpose: `f64`'s `Debug` is the
    /// shortest-roundtrip form, so distinct finite values never collide.
    pub fn world_inputs_key(&self) -> String {
        format!(
            "seed={} start={:?} hours={} gpus={} weather={:?} grid={:?} trace={:?} deadline={:?}",
            self.seed,
            self.start,
            self.horizon_hours,
            self.cluster.total_gpus(),
            self.weather,
            self.grid,
            self.trace,
            self.deadline_policy,
        )
    }

    /// 64-bit digest of [`Scenario::world_inputs_key`] for compact
    /// display/grouping. Cache lookups compare the full key, never this
    /// digest, so hash collisions cannot alias two different worlds.
    pub fn world_fingerprint(&self) -> u64 {
        greener_simkit::rng::fnv1a(self.world_inputs_key().as_bytes())
    }

    /// Builder-style: replace the scheduling policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> Scenario {
        self.policy = policy;
        self
    }

    /// Builder-style: replace the purchasing strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: PurchaseStrategy) -> Scenario {
        self.strategy = strategy;
        self
    }

    /// Builder-style: replace the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Builder-style: replace the forecast source carbon-aware policies
    /// see.
    #[must_use]
    pub fn with_forecast(mut self, forecast: ForecastMode) -> Scenario {
        self.forecast = forecast;
        self
    }

    /// Builder-style: replace the deadline-restructuring policy.
    #[must_use]
    pub fn with_deadline_policy(mut self, deadline_policy: DeadlinePolicy) -> Scenario {
        self.deadline_policy = deadline_policy;
        self
    }

    /// Builder-style: replace the horizon with `days` whole days.
    #[must_use]
    pub fn with_horizon_days(mut self, days: usize) -> Scenario {
        self.horizon_hours = days * 24;
        self
    }

    /// Builder-style: replace the cooling plant model.
    #[must_use]
    pub fn with_cooling(mut self, cooling: CoolingModel) -> Scenario {
        self.cooling = cooling;
        self
    }

    /// Builder-style: rename.
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Scenario {
        self.name = name.into();
        self
    }

    /// Builder-style: attach a default battery with the shift-and-store
    /// strategy (used by E6).
    #[must_use]
    pub fn with_battery(mut self) -> Scenario {
        self.strategy = PurchaseStrategy::Battery {
            config: BatteryConfig::default(),
            charge_green_share: 0.07,
            discharge_green_share: 0.05,
        };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_year_baseline_spans_2020_2021() {
        let s = Scenario::two_year_baseline(1);
        assert_eq!(s.start, CalDate::new(2020, 1, 1));
        assert_eq!(s.horizon_hours, 731 * 24); // 366 + 365 days
        assert_eq!(s.policy, PolicyKind::EasyBackfill);
    }

    #[test]
    fn quick_scenario_is_small() {
        let s = Scenario::quick(7, 9);
        assert_eq!(s.horizon_hours, 7 * 24);
        assert_eq!(s.cluster.total_gpus(), 32);
        assert!(s.trace.demand.base_rate_per_hour < 2.0);
    }

    #[test]
    fn builders_compose() {
        let s = Scenario::quick(3, 1)
            .with_policy(PolicyKind::Fcfs)
            .with_seed(77)
            .named("custom")
            .with_battery()
            .with_forecast(ForecastMode::Naive)
            .with_deadline_policy(DeadlinePolicy::Rolling)
            .with_horizon_days(5)
            .with_cooling(CoolingModel::default());
        assert_eq!(s.policy, PolicyKind::Fcfs);
        assert_eq!(s.seed, 77);
        assert_eq!(s.name, "custom");
        assert!(!matches!(s.strategy, PurchaseStrategy::None));
        assert_eq!(s.forecast, ForecastMode::Naive);
        assert_eq!(s.deadline_policy, DeadlinePolicy::Rolling);
        assert_eq!(s.horizon_hours, 5 * 24);
    }

    /// Compile-level smoke test: `Scenario` satisfies both serde bounds
    /// (the vendored stand-in cannot roundtrip values — see the struct
    /// docs — so this pins the derives, not a serializer).
    #[test]
    fn scenario_satisfies_serde_bounds() {
        fn assert_serde<T: Serialize + for<'de> Deserialize<'de>>() {}
        assert_serde::<Scenario>();
    }

    #[test]
    fn world_key_separates_world_inputs_from_policy_knobs() {
        let base = Scenario::quick(5, 9);
        // Replay-side knobs must not perturb the key: same world, many
        // policies — this is what makes a policy-only campaign share one
        // world per seed.
        let policy_only = base
            .clone()
            .with_policy(PolicyKind::Fcfs)
            .with_forecast(ForecastMode::Naive)
            .named("renamed");
        assert_eq!(base.world_inputs_key(), policy_only.world_inputs_key());
        assert_eq!(base.world_fingerprint(), policy_only.world_fingerprint());
        // World-side inputs must perturb it.
        assert_ne!(
            base.world_inputs_key(),
            base.clone().with_seed(10).world_inputs_key()
        );
        assert_ne!(
            base.world_inputs_key(),
            base.clone().with_horizon_days(6).world_inputs_key()
        );
        assert_ne!(
            base.world_inputs_key(),
            base.clone()
                .with_deadline_policy(DeadlinePolicy::Rolling)
                .world_inputs_key()
        );
        let mut bigger = base.clone();
        bigger.cluster.nodes += 1;
        assert_ne!(base.world_inputs_key(), bigger.world_inputs_key());
    }

    #[test]
    fn effective_calendar_honours_deadline_policy() {
        let mut s = Scenario::quick(3, 1);
        s.deadline_policy = DeadlinePolicy::WinterSpring;
        let cal = s.effective_calendar();
        for d in cal.all_deadlines() {
            assert!((3..=5).contains(&d.month.number()));
        }
    }
}
