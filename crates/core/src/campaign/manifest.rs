//! The campaign manifest: a declarative description of an experiment
//! batch — base scenario preset + named axes × values + a seed range —
//! and its hand-rolled parser.
//!
//! The text format is a small line-oriented `key = value` dialect (the
//! vendored serde stand-in has no serializer, so the format is owned
//! here; see the module docs in [`crate::campaign`] for the full spec and
//! a runnable example). Manifests can also be built programmatically with
//! [`CampaignManifest::new`] + [`CampaignManifest::with_axis`] — that is
//! how `Eq1Problem::grid_search` rides the expander.

use greener_forecast::ForecasterKind;
use greener_sched::PolicyKind;
use greener_workload::DeadlinePolicy;

use crate::scenario::{ForecastMode, Scenario};

/// A manifest parse/validation error, carrying the 1-based line number
/// for text manifests (line 0 = whole-manifest validation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError {
    /// 1-based source line (0 when the error is not tied to one line).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "manifest: {}", self.msg)
        } else {
            write!(f, "manifest line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for ManifestError {}

/// `Err` of a [`ManifestError`] at `line`.
pub(crate) fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, ManifestError> {
    Err(ManifestError {
        line,
        msg: msg.into(),
    })
}

/// One value on a campaign axis. The variant set mirrors what the knobs
/// accept; [`AxisValue::label`] is the stable rendering cell ids are built
/// from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AxisValue {
    /// A scheduling policy descriptor.
    Policy(PolicyKind),
    /// A forecast source.
    Forecast(ForecastMode),
    /// A deadline-restructuring policy.
    Deadline(DeadlinePolicy),
    /// An unsigned integer (horizons, node counts).
    Count(u64),
    /// A real number (rates, multipliers, thresholds).
    Real(f64),
}

impl AxisValue {
    /// Stable display form (feeds cell ids, so it must not change
    /// gratuitously). `Real` uses the shortest-roundtrip rendering, which
    /// is injective over finite values.
    pub fn label(&self) -> String {
        match self {
            AxisValue::Policy(p) => p.label(),
            AxisValue::Forecast(ForecastMode::Oracle) => "oracle".into(),
            AxisValue::Forecast(ForecastMode::Naive) => "naive".into(),
            AxisValue::Forecast(ForecastMode::Model(k)) => format!("model-{k:?}"),
            AxisValue::Deadline(d) => d.label().into(),
            AxisValue::Count(n) => n.to_string(),
            AxisValue::Real(x) => format!("{x:?}"),
        }
    }
}

/// The closed set of scenario knobs an axis can sweep. Each knob knows how
/// to parse its values from manifest text and how to apply one to a
/// scenario; whether a knob is world-affecting is *not* encoded here — the
/// world-reuse cache derives that from
/// [`Scenario::world_inputs_key`] after application, so a knob can never
/// claim to be replay-only incorrectly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    /// Scheduling policy (`policy`): `fcfs | sjf | easy | easy_depth:<k> |
    /// cap:<watts> | temp | carbon:<green-share> | green_queues:<watts> |
    /// carbon_temp`.
    Policy,
    /// Horizon in whole days (`horizon_days`): unsigned integer.
    HorizonDays,
    /// Base arrival rate, jobs/hour (`arrival_rate`): real.
    ArrivalRate,
    /// Demand surge multiplier (`surge_mult`): real.
    SurgeMult,
    /// Cluster node count (`nodes`): unsigned integer.
    Nodes,
    /// Cluster-size multiplier on the base node count (`qs_mult`): real —
    /// Eq. 1's `q_s` axis.
    QsMult,
    /// SLO wait threshold in hours (`slo_wait_hours`): real.
    SloWaitHours,
    /// Forecast source (`forecast`): `oracle | naive`.
    Forecast,
    /// Deadline-restructuring policy (`deadline`): `status_quo |
    /// uniform_spread | winter_spring | rolling`.
    Deadline,
}

impl Knob {
    /// Every knob, for docs and error messages.
    pub const ALL: [Knob; 9] = [
        Knob::Policy,
        Knob::HorizonDays,
        Knob::ArrivalRate,
        Knob::SurgeMult,
        Knob::Nodes,
        Knob::QsMult,
        Knob::SloWaitHours,
        Knob::Forecast,
        Knob::Deadline,
    ];

    /// The manifest keyword for this knob.
    pub fn name(&self) -> &'static str {
        match self {
            Knob::Policy => "policy",
            Knob::HorizonDays => "horizon_days",
            Knob::ArrivalRate => "arrival_rate",
            Knob::SurgeMult => "surge_mult",
            Knob::Nodes => "nodes",
            Knob::QsMult => "qs_mult",
            Knob::SloWaitHours => "slo_wait_hours",
            Knob::Forecast => "forecast",
            Knob::Deadline => "deadline",
        }
    }

    /// Look a knob up by manifest keyword.
    pub fn by_name(name: &str) -> Option<Knob> {
        Knob::ALL.iter().copied().find(|k| k.name() == name)
    }

    /// Parse one manifest value for this knob.
    pub fn parse_value(&self, raw: &str, line: usize) -> Result<AxisValue, ManifestError> {
        let raw = raw.trim();
        match self {
            Knob::Policy => parse_policy(raw, line).map(AxisValue::Policy),
            Knob::HorizonDays | Knob::Nodes => match raw.parse::<u64>() {
                Ok(n) if self.count_fits(n) => Ok(AxisValue::Count(n)),
                Ok(n) if n > 0 => err(
                    line,
                    format!(
                        "`{}` = {n} is out of range (at most {})",
                        self.name(),
                        self.max_count()
                    ),
                ),
                _ => err(
                    line,
                    format!("`{}` needs a positive integer, got `{raw}`", self.name()),
                ),
            },
            Knob::ArrivalRate | Knob::SurgeMult | Knob::QsMult | Knob::SloWaitHours => {
                match raw.parse::<f64>() {
                    Ok(x) if x.is_finite() && x > 0.0 => Ok(AxisValue::Real(x)),
                    _ => err(
                        line,
                        format!("`{}` needs a positive real, got `{raw}`", self.name()),
                    ),
                }
            }
            Knob::Forecast => match raw {
                "oracle" => Ok(AxisValue::Forecast(ForecastMode::Oracle)),
                "naive" => Ok(AxisValue::Forecast(ForecastMode::Naive)),
                "model" => Ok(AxisValue::Forecast(ForecastMode::Model(
                    ForecasterKind::SeasonalNaive,
                ))),
                _ => err(
                    line,
                    format!("unknown forecast `{raw}` (oracle | naive | model)"),
                ),
            },
            Knob::Deadline => match raw {
                "status_quo" => Ok(AxisValue::Deadline(DeadlinePolicy::StatusQuo)),
                "uniform_spread" => Ok(AxisValue::Deadline(DeadlinePolicy::UniformSpread)),
                "winter_spring" => Ok(AxisValue::Deadline(DeadlinePolicy::WinterSpring)),
                "rolling" => Ok(AxisValue::Deadline(DeadlinePolicy::Rolling)),
                _ => err(
                    line,
                    format!(
                        "unknown deadline policy `{raw}` (status_quo | uniform_spread | \
                         winter_spring | rolling)"
                    ),
                ),
            },
        }
    }

    /// Largest value a count knob can apply without truncation: `nodes`
    /// is stored as `u32`, and `horizon_days` becomes `days * 24` hours in
    /// a `usize`.
    fn max_count(&self) -> u64 {
        match self {
            Knob::Nodes => u64::from(u32::MAX),
            _ => u64::try_from(usize::MAX / 24).unwrap_or(u64::MAX),
        }
    }

    /// Whether `n` is a value this count knob can apply: positive and at
    /// most [`Knob::max_count`].
    fn count_fits(&self, n: u64) -> bool {
        (1..=self.max_count()).contains(&n)
    }

    /// Check that `value`'s variant is one this knob produces, and that a
    /// count is in range (guards the programmatic construction path,
    /// which skips [`Knob::parse_value`]).
    fn accepts(&self, value: &AxisValue) -> bool {
        match (self, value) {
            (Knob::HorizonDays | Knob::Nodes, AxisValue::Count(n)) => self.count_fits(*n),
            (Knob::Policy, AxisValue::Policy(_))
            | (
                Knob::ArrivalRate | Knob::SurgeMult | Knob::QsMult | Knob::SloWaitHours,
                AxisValue::Real(_),
            )
            | (Knob::Forecast, AxisValue::Forecast(_))
            | (Knob::Deadline, AxisValue::Deadline(_)) => true,
            _ => false,
        }
    }

    /// Apply one axis value to a scenario. `base` is the unmodified
    /// manifest base (for relative knobs like `qs_mult`).
    pub fn apply(&self, scenario: &mut Scenario, base: &Scenario, value: &AxisValue) {
        match (self, value) {
            (Knob::Policy, AxisValue::Policy(p)) => scenario.policy = *p,
            (Knob::HorizonDays, AxisValue::Count(d)) => {
                // Range-checked: `d * 24` fits `usize`.
                scenario.horizon_hours = *d as usize * 24;
            }
            (Knob::ArrivalRate, AxisValue::Real(r)) => {
                scenario.trace.demand.base_rate_per_hour = *r;
            }
            (Knob::SurgeMult, AxisValue::Real(m)) => scenario.trace.demand.surge_mult = *m,
            (Knob::Nodes, AxisValue::Count(n)) => {
                scenario.cluster.nodes = u32::try_from(*n).expect("`nodes` range-checked")
            }
            (Knob::QsMult, AxisValue::Real(m)) => {
                // Matches `Eq1Problem::evaluate`'s historical rounding so
                // the migrated grid search stays bit-identical.
                scenario.cluster.nodes = (base.cluster.nodes as f64 * m).round().max(1.0) as u32;
            }
            (Knob::SloWaitHours, AxisValue::Real(h)) => scenario.slo_wait_hours = *h,
            (Knob::Forecast, AxisValue::Forecast(f)) => scenario.forecast = *f,
            (Knob::Deadline, AxisValue::Deadline(d)) => scenario.deadline_policy = *d,
            (knob, value) => unreachable!("axis value {value:?} on knob {knob:?}"),
        }
    }
}

/// `fcfs | sjf | easy | easy_depth:<k> | cap:<w> | temp | carbon:<g> |
/// green_queues:<w> | carbon_temp`.
fn parse_policy(raw: &str, line: usize) -> Result<PolicyKind, ManifestError> {
    let (head, arg) = match raw.split_once(':') {
        Some((h, a)) => (h, Some(a)),
        None => (raw, None),
    };
    let need_real = |arg: Option<&str>| -> Result<f64, ManifestError> {
        match arg.and_then(|a| a.parse::<f64>().ok()) {
            Some(x) if x.is_finite() && x > 0.0 => Ok(x),
            _ => err(
                line,
                format!("policy `{head}` needs a positive real argument"),
            ),
        }
    };
    match head {
        "fcfs" => Ok(PolicyKind::Fcfs),
        "sjf" => Ok(PolicyKind::Sjf),
        "easy" => Ok(PolicyKind::EasyBackfill),
        "easy_depth" => match arg.and_then(|a| a.parse::<u32>().ok()) {
            Some(depth) => Ok(PolicyKind::EasyBackfillLimited { depth }),
            None => err(line, "policy `easy_depth` needs an integer depth"),
        },
        "cap" => Ok(PolicyKind::StaticCap {
            cap_w: need_real(arg)?,
        }),
        "temp" => Ok(PolicyKind::TempAware),
        "carbon" => Ok(PolicyKind::CarbonAware {
            green_threshold: need_real(arg)?,
        }),
        "green_queues" => Ok(PolicyKind::GreenQueues {
            green_cap_w: need_real(arg)?,
        }),
        "carbon_temp" => Ok(PolicyKind::CarbonAndTempAware),
        _ => err(line, format!("unknown policy `{raw}`")),
    }
}

/// One declared axis: a knob and its swept values, in declaration order.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Which scenario knob this axis sweeps.
    pub knob: Knob,
    /// The values, in sweep order (this axis's row-major position follows
    /// its declaration order in the manifest).
    pub values: Vec<AxisValue>,
}

/// A parsed (or programmatically built) campaign manifest.
///
/// `expand()` (see [`crate::campaign::CampaignPlan`]) turns it into the
/// ordered cell list everything downstream consumes.
#[derive(Debug, Clone)]
pub struct CampaignManifest {
    /// Campaign name (no whitespace — it prefixes every cell id).
    pub name: String,
    /// The base scenario every cell starts from.
    pub base: Scenario,
    /// Seed axis (innermost); defaults to the base scenario's seed.
    pub seeds: Vec<u64>,
    /// Swept axes, outermost first.
    pub axes: Vec<Axis>,
}

impl CampaignManifest {
    /// A programmatic manifest: `base`'s seed as the only seed, no axes
    /// yet.
    pub fn new(name: impl Into<String>, base: Scenario) -> CampaignManifest {
        let seeds = vec![base.seed];
        CampaignManifest {
            name: name.into(),
            base,
            seeds,
            axes: Vec::new(),
        }
    }

    /// Builder-style: append one axis (outermost first).
    ///
    /// # Panics
    /// If any value's variant does not belong to `knob`, a count is out
    /// of the knob's range, or the axis is empty — programmatic manifests
    /// fail fast like text ones fail [`CampaignManifest::parse`].
    #[must_use]
    pub fn with_axis(mut self, knob: Knob, values: Vec<AxisValue>) -> CampaignManifest {
        assert!(!values.is_empty(), "axis `{}` has no values", knob.name());
        for v in &values {
            assert!(
                knob.accepts(v),
                "axis `{}` cannot carry value {v:?}",
                knob.name()
            );
        }
        self.axes.push(Axis { knob, values });
        self
    }

    /// Builder-style: replace the seed axis.
    ///
    /// # Panics
    /// If `seeds` is empty.
    #[must_use]
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> CampaignManifest {
        assert!(!seeds.is_empty(), "a campaign needs at least one seed");
        self.seeds = seeds;
        self
    }

    /// Number of cells the manifest expands to.
    pub fn cell_count(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product::<usize>() * self.seeds.len()
    }

    /// Parse a text manifest. See [`crate::campaign`] for the format.
    pub fn parse(text: &str) -> Result<CampaignManifest, ManifestError> {
        let mut name: Option<String> = None;
        let mut base: Option<Scenario> = None;
        let mut seeds: Option<Vec<u64>> = None;
        let mut axes: Vec<Axis> = Vec::new();

        for_each_entry(text, |line_no, key, value| {
            match key {
                "name" => {
                    if value.split_whitespace().count() != 1 {
                        return err(
                            line_no,
                            "`name` must be a single token (it prefixes cell ids)",
                        );
                    }
                    name = Some(value.to_string());
                }
                "base" => base = Some(parse_base(value, line_no)?),
                "seeds" => seeds = Some(parse_seeds(value, line_no)?),
                _ => match key.strip_prefix("axis ").map(str::trim) {
                    Some(knob_name) => {
                        let knob = match Knob::by_name(knob_name) {
                            Some(k) => k,
                            None => {
                                return err(
                                    line_no,
                                    format!(
                                        "unknown axis knob `{knob_name}` (one of: {})",
                                        Knob::ALL.map(|k| k.name()).join(", ")
                                    ),
                                )
                            }
                        };
                        // `for_each_entry` compares raw keys, so it misses
                        // `axis  policy` after `axis policy`.
                        if axes.iter().any(|a| a.knob == knob) {
                            return err(line_no, format!("duplicate axis `{knob_name}`"));
                        }
                        let values = parse_axis_values(knob_name, value, line_no, |v| {
                            knob.parse_value(v, line_no)
                        })?;
                        axes.push(Axis { knob, values });
                    }
                    None => return err(line_no, format!("unknown key `{key}`")),
                },
            }
            Ok(())
        })?;

        let name = match name {
            Some(n) => n,
            None => return err(0, "missing `name`"),
        };
        let base = match base {
            Some(b) => b,
            None => return err(0, "missing `base`"),
        };
        let seeds = seeds.unwrap_or_else(|| vec![base.seed]);
        Ok(CampaignManifest {
            name,
            base,
            seeds,
            axes,
        })
    }
}

/// Walk a manifest's `key = value` entries — the line loop both the
/// campaign and the fleet manifest parsers share. `#` starts a comment,
/// blank lines are skipped, and keys and values are trimmed. A line
/// without `=`, an empty value, or a key seen before is an error at its
/// 1-based line; every other entry goes to `entry(line, key, value)`.
pub(crate) fn for_each_entry(
    text: &str,
    mut entry: impl FnMut(usize, &str, &str) -> Result<(), ManifestError>,
) -> Result<(), ManifestError> {
    let mut seen: Vec<&str> = Vec::new();
    for (i, raw_line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw_line
            .split_once('#')
            .map_or(raw_line, |(before, _)| before)
            .trim();
        if line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return err(line_no, format!("expected `key = value`, got `{line}`"));
        };
        let (key, value) = (key.trim(), value.trim());
        if value.is_empty() {
            return err(line_no, format!("`{key}` has no value"));
        }
        if seen.contains(&key) {
            return err(line_no, format!("duplicate `{key}`"));
        }
        seen.push(key);
        entry(line_no, key, value)?;
    }
    Ok(())
}

/// Parse an axis's comma-separated values with `parse_one`, rejecting a
/// repeated value at `line` (its cells would collide on ids).
pub(crate) fn parse_axis_values<T: PartialEq>(
    axis: &str,
    raw: &str,
    line: usize,
    parse_one: impl Fn(&str) -> Result<T, ManifestError>,
) -> Result<Vec<T>, ManifestError> {
    let mut values = Vec::new();
    for v in raw.split(',') {
        let v = v.trim();
        let parsed = parse_one(v)?;
        if values.contains(&parsed) {
            return err(line, format!("axis `{axis}` repeats value `{v}`"));
        }
        values.push(parsed);
    }
    Ok(values)
}

/// `quick:<days> | small_2y | baseline_2y | one_year`, optionally with a
/// default seed suffix `@<seed>` (the `seeds` axis overrides it per cell).
pub(crate) fn parse_base(raw: &str, line: usize) -> Result<Scenario, ManifestError> {
    let (preset, seed) = match raw.split_once('@') {
        Some((p, s)) => match s.trim().parse::<u64>() {
            Ok(seed) => (p.trim(), seed),
            Err(_) => return err(line, format!("bad base seed `{s}`")),
        },
        None => (raw, 0),
    };
    match preset.split_once(':') {
        Some(("quick", days)) => match days.trim().parse::<usize>() {
            // The horizon is `d * 24` hours, which must fit `usize`.
            Ok(d) if d > 0 && d <= usize::MAX / 24 => Ok(Scenario::quick(d, seed)),
            _ => err(
                line,
                format!(
                    "`quick:<days>` needs a positive day count of at most {}, got `{days}`",
                    usize::MAX / 24
                ),
            ),
        },
        None if preset == "small_2y" => Ok(Scenario::two_year_small(seed)),
        None if preset == "baseline_2y" => Ok(Scenario::two_year_baseline(seed)),
        None if preset == "one_year" => Ok(Scenario::one_year_baseline(seed)),
        _ => err(
            line,
            format!(
                "unknown base preset `{preset}` (quick:<days> | small_2y | baseline_2y | one_year)"
            ),
        ),
    }
}

/// `lo..hi` (half-open, like Rust ranges) or a comma list `1, 2, 7`.
pub(crate) fn parse_seeds(raw: &str, line: usize) -> Result<Vec<u64>, ManifestError> {
    if let Some((lo, hi)) = raw.split_once("..") {
        let (lo, hi) = match (lo.trim().parse::<u64>(), hi.trim().parse::<u64>()) {
            (Ok(lo), Ok(hi)) => (lo, hi),
            _ => return err(line, format!("bad seed range `{raw}`")),
        };
        if hi <= lo {
            return err(
                line,
                format!("empty seed range `{raw}` (use `lo..hi` with hi > lo)"),
            );
        }
        if hi - lo > 1_000_000 {
            return err(
                line,
                format!("seed range `{raw}` is over a million cells wide"),
            );
        }
        return Ok((lo..hi).collect());
    }
    let mut seeds = Vec::new();
    for s in raw.split(',') {
        match s.trim().parse::<u64>() {
            Ok(seed) => {
                if seeds.contains(&seed) {
                    return err(line, format!("duplicate seed `{seed}`"));
                }
                seeds.push(seed);
            }
            Err(_) => return err(line, format!("bad seed `{}`", s.trim())),
        }
    }
    if seeds.is_empty() {
        return err(line, "empty `seeds`");
    }
    Ok(seeds)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = "\
# A policy × horizon sweep over three seeds.
name = demo            # trailing comments are stripped
base = quick:5@11
seeds = 1..4
axis policy = fcfs, easy, cap:160, carbon:0.06
axis horizon_days = 4, 5
";

    #[test]
    fn example_manifest_parses() {
        let m = CampaignManifest::parse(EXAMPLE).unwrap();
        assert_eq!(m.name, "demo");
        assert_eq!(m.base.horizon_hours, 5 * 24);
        assert_eq!(m.base.seed, 11);
        assert_eq!(m.seeds, vec![1, 2, 3]);
        assert_eq!(m.axes.len(), 2);
        assert_eq!(m.axes[0].knob, Knob::Policy);
        assert_eq!(m.axes[0].values.len(), 4);
        assert_eq!(
            m.axes[0].values[2],
            AxisValue::Policy(PolicyKind::StaticCap { cap_w: 160.0 })
        );
        assert_eq!(
            m.axes[1].values,
            vec![AxisValue::Count(4), AxisValue::Count(5)]
        );
        assert_eq!(m.cell_count(), 4 * 2 * 3);
    }

    #[test]
    fn seeds_default_to_base_seed_and_lists_parse() {
        let m = CampaignManifest::parse("name = d\nbase = quick:3@7\n").unwrap();
        assert_eq!(m.seeds, vec![7]);
        assert_eq!(m.cell_count(), 1);
        let m = CampaignManifest::parse("name = d\nbase = quick:3\nseeds = 5, 9, 2\n").unwrap();
        assert_eq!(m.seeds, vec![5, 9, 2]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        // One day past the largest horizon whose hour count fits `usize`.
        let horizon_overflow = format!(
            "name = d\nbase = quick:3\naxis horizon_days = {}\n",
            usize::MAX / 24 + 1
        );
        let base_overflow = format!("name = d\nbase = quick:{}\n", usize::MAX / 24 + 1);
        let cases: &[(&str, usize, &str)] = &[
            (
                "name = d\nbase = quick:3\naxis poliyc = fcfs\n",
                3,
                "unknown axis knob",
            ),
            ("name = d\nbase = tiny\n", 2, "unknown base preset"),
            (
                "name = d\nbase = quick:3\naxis policy = fastest\n",
                3,
                "unknown policy",
            ),
            (
                "name = d\nbase = quick:3\nseeds = 9..9\n",
                3,
                "empty seed range",
            ),
            (
                "name = d\nbase = quick:3\nseeds = 1,1\n",
                3,
                "duplicate seed",
            ),
            (
                "name = d\nbase = quick:3\naxis policy = fcfs, fcfs\n",
                3,
                "repeats value",
            ),
            (
                "name = d\nbase = quick:3\nbase = quick:4\n",
                3,
                "duplicate `base`",
            ),
            (
                "name = d\nbase = quick:3\naxis horizon_days = 0\n",
                3,
                "positive integer",
            ),
            // `nodes` is stored as `u32`: 2^32 used to wrap to 0 nodes and
            // 2^32 + 1 to one node, under an id that named the raw value.
            (
                "name = d\nbase = quick:3\naxis nodes = 4294967296\n",
                3,
                "`nodes` = 4294967296 is out of range",
            ),
            (
                "name = d\nbase = quick:3\naxis nodes = 1, 4294967297\n",
                3,
                "out of range",
            ),
            (&horizon_overflow, 3, "`horizon_days`"),
            (&base_overflow, 2, "positive day count"),
            ("name = two words\nbase = quick:3\n", 1, "single token"),
            ("base = quick:3\n", 0, "missing `name`"),
            ("name = d\n", 0, "missing `base`"),
            (
                "name = d\nbase = quick:3\nwat\n",
                3,
                "expected `key = value`",
            ),
        ];
        for (text, line, needle) in cases {
            let e = CampaignManifest::parse(text).unwrap_err();
            assert_eq!(e.line, *line, "{text:?}: {e}");
            assert!(e.msg.contains(needle), "{text:?}: {e}");
        }
    }

    #[test]
    fn every_knob_parses_and_applies() {
        let base = Scenario::quick(4, 3);
        let cases: &[(Knob, &str)] = &[
            (Knob::Policy, "easy_depth:8"),
            (Knob::Policy, "green_queues:150"),
            (Knob::Policy, "temp"),
            (Knob::Policy, "carbon_temp"),
            (Knob::Policy, "sjf"),
            (Knob::HorizonDays, "6"),
            (Knob::ArrivalRate, "2.5"),
            (Knob::SurgeMult, "1.5"),
            (Knob::Nodes, "8"),
            (Knob::QsMult, "0.75"),
            (Knob::SloWaitHours, "12"),
            (Knob::Forecast, "naive"),
            (Knob::Deadline, "rolling"),
        ];
        for (knob, raw) in cases {
            let v = knob.parse_value(raw, 1).unwrap_or_else(|e| panic!("{e}"));
            let mut s = base.clone();
            knob.apply(&mut s, &base, &v);
            assert!(!v.label().is_empty());
        }
        // Spot-check the applications that compute rather than assign.
        let mut s = base.clone();
        Knob::QsMult.apply(&mut s, &base, &AxisValue::Real(0.25));
        assert_eq!(
            s.cluster.nodes,
            (base.cluster.nodes as f64 * 0.25).round() as u32
        );
        let mut s = base.clone();
        Knob::HorizonDays.apply(&mut s, &base, &AxisValue::Count(6));
        assert_eq!(s.horizon_hours, 6 * 24);
    }

    #[test]
    #[should_panic(expected = "cannot carry value")]
    fn programmatic_axis_rejects_mismatched_variant() {
        let _ = CampaignManifest::new("x", Scenario::quick(3, 1))
            .with_axis(Knob::Policy, vec![AxisValue::Count(3)]);
    }
}
