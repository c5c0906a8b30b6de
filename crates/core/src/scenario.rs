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
use greener_workload::{DeadlinePolicy, TraceConfig};

use crate::driver::{EnvSpec, TraceSpec};
use crate::strategy::PurchaseStrategy;

/// How the carbon-aware scheduler obtains its green-share forecast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone)]
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

    /// The inputs of the world's environment half: seed, start date,
    /// horizon, weather and grid.
    pub fn env_spec(&self) -> EnvSpec {
        EnvSpec {
            seed: self.seed,
            start: self.start,
            horizon_hours: self.horizon_hours,
            weather: self.weather.clone(),
            grid: self.grid.clone(),
        }
    }

    /// The inputs of the world's trace half: seed, start date, horizon,
    /// trace configuration, deadline policy (it reshapes the calendar the
    /// trace generator samples) and the cluster's total GPU count (gang
    /// sizes are capped at it, baked into the trace).
    pub fn trace_spec(&self) -> TraceSpec {
        TraceSpec {
            seed: self.seed,
            start: self.start,
            horizon_hours: self.horizon_hours,
            trace: self.trace.clone(),
            deadline_policy: self.deadline_policy,
            gpu_cap: self.cluster.total_gpus(),
        }
    }

    /// Stable key over everything that feeds `World::build`: the `Debug`
    /// text of [`Scenario::env_spec`] and [`Scenario::trace_spec`]. The
    /// world builders read nothing but those two specs, so no
    /// world-affecting field can be missing from the key, and every field
    /// outside them (name, policy, forecast, strategy, cooling, SLO, the
    /// cluster shape beyond its GPU count) leaves it alone. Neither can
    /// the world-gen thread count, which is not a scenario field at all
    /// (`RAYON_NUM_THREADS`; the equivalence harness pins 1 vs N threads
    /// bit-identical).
    ///
    /// Two scenarios with equal keys build **bit-identical** worlds, so a
    /// campaign shard may build the world once and replay every matching
    /// cell over it (the world cache in `crate::campaign`). `Debug` is
    /// injective here: `f64`'s `Debug` is the shortest-roundtrip form, so
    /// distinct finite values never collide.
    pub fn world_inputs_key(&self) -> String {
        format!("{:?}", (self.env_spec(), self.trace_spec()))
    }

    /// The scenario a replay needs: a clone with the report-time fields
    /// reset to fixed values. Those are `name` (a campaign cell's name is
    /// its id) and `slo_wait_hours` (read only after replay, by
    /// [`AggregatesReplay::finish`](crate::driver::AggregatesReplay::finish)).
    /// Every other field is kept, so a field added later counts as a
    /// replay input until it is reset here.
    pub fn replay_inputs(&self) -> Scenario {
        Scenario {
            name: String::new(),
            slo_wait_hours: 0.0,
            ..self.clone()
        }
    }

    /// Stable key over everything that feeds a replay: the `Debug` text of
    /// [`Scenario::replay_inputs`], as [`Scenario::world_inputs_key`] is
    /// the text of the world specs. Two scenarios with equal keys replay
    /// the same decisions over the same world, so a campaign pass replays
    /// each key once and finishes it under every matching cell's SLO.
    pub fn replay_inputs_key(&self) -> String {
        format!("{:?}", self.replay_inputs())
    }

    /// Builder-style: replace the scheduling policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> Scenario {
        self.policy = policy;
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
    fn specs_split_world_inputs_into_environment_and_trace() {
        let base = Scenario::quick(5, 9);
        // Trace-side inputs leave the environment alone: this is what
        // lets a shard share one environment across them.
        let mut busier = base.clone();
        busier.trace.demand.base_rate_per_hour *= 1.5;
        let mut bigger = base.clone();
        bigger.cluster.nodes += 1;
        let rolling = base.clone().with_deadline_policy(DeadlinePolicy::Rolling);
        for trace_side in [&busier, &bigger, &rolling] {
            assert_eq!(base.env_spec(), trace_side.env_spec());
            assert_ne!(base.trace_spec(), trace_side.trace_spec());
        }
        // Environment-side inputs leave the trace alone.
        let mut warmer = base.clone();
        warmer.weather.warming_offset_c += 1.0;
        let mut windier = base.clone();
        windier.grid.wind_capacity_mw *= 2.0;
        for env_side in [&warmer, &windier] {
            assert_eq!(base.trace_spec(), env_side.trace_spec());
            assert_ne!(base.env_spec(), env_side.env_spec());
        }
        // Seed, start and horizon feed both halves.
        let mut later = base.clone();
        later.start = CalDate::new(2020, 2, 1);
        for both in [
            &base.clone().with_seed(10),
            &later,
            &base.clone().with_horizon_days(6),
        ] {
            assert_ne!(base.env_spec(), both.env_spec());
            assert_ne!(base.trace_spec(), both.trace_spec());
        }
        // Equal keys exactly when both specs are equal.
        let replay_side = base
            .clone()
            .with_policy(PolicyKind::Fcfs)
            .with_cooling(CoolingModel::default());
        for other in [
            &replay_side,
            &busier,
            &bigger,
            &rolling,
            &warmer,
            &windier,
            &later,
        ] {
            let specs_equal =
                base.env_spec() == other.env_spec() && base.trace_spec() == other.trace_spec();
            assert_eq!(
                base.world_inputs_key() == other.world_inputs_key(),
                specs_equal
            );
        }
        assert_eq!(base.world_inputs_key(), replay_side.world_inputs_key());
    }

    #[test]
    fn replay_key_ignores_only_report_time_fields() {
        use crate::campaign::{AxisValue, Knob};
        use greener_forecast::ForecasterKind;
        let base = Scenario::quick(5, 9);
        // Two distinct values per knob. The match is exhaustive, so a new
        // knob needs a pair here before this test builds.
        let pair = |knob: Knob| -> [AxisValue; 2] {
            match knob {
                Knob::Policy => [
                    AxisValue::Policy(PolicyKind::Fcfs),
                    AxisValue::Policy(PolicyKind::EasyBackfill),
                ],
                Knob::HorizonDays => [AxisValue::Count(3), AxisValue::Count(4)],
                Knob::Nodes => [AxisValue::Count(8), AxisValue::Count(12)],
                Knob::ArrivalRate | Knob::SurgeMult | Knob::QsMult | Knob::SloWaitHours => {
                    [AxisValue::Real(0.5), AxisValue::Real(2.0)]
                }
                Knob::Forecast => [
                    AxisValue::Forecast(ForecastMode::Naive),
                    AxisValue::Forecast(ForecastMode::Model(ForecasterKind::SeasonalNaive)),
                ],
                Knob::Deadline => [
                    AxisValue::Deadline(DeadlinePolicy::UniformSpread),
                    AxisValue::Deadline(DeadlinePolicy::Rolling),
                ],
            }
        };
        for knob in Knob::ALL {
            let [a, b] = pair(knob).map(|value| {
                let mut s = base.clone();
                knob.apply(&mut s, &base, &value);
                s
            });
            let report_only = knob == Knob::SloWaitHours;
            assert_eq!(
                a.replay_inputs_key() == b.replay_inputs_key(),
                report_only,
                "knob `{}`",
                knob.name()
            );
        }
        let renamed = base.clone().named("another-cell");
        assert_eq!(base.replay_inputs_key(), renamed.replay_inputs_key());
    }

    #[test]
    fn trace_calendar_honours_deadline_policy() {
        let mut s = Scenario::quick(3, 1);
        s.deadline_policy = DeadlinePolicy::WinterSpring;
        let cal = s.trace_spec().calendar();
        for d in cal.all_deadlines() {
            assert!((3..=5).contains(&d.month.number()));
        }
    }
}
