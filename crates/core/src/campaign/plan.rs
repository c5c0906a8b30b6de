//! Manifest → plan expansion.
//!
//! A [`CampaignPlan`] is the fully-expanded, ordered list of cells a
//! manifest describes. The order is the contract everything downstream
//! leans on: axes expand **row-major in declaration order** (first axis
//! outermost) with the seed axis innermost, via
//! [`greener_simkit::sweep::gridn_indices`] — the same odometer that
//! drives `grid2`/`grid3`, so migrated call sites keep their historical
//! iteration order bit-for-bit. Shard partitioning and artifact merging
//! both index into this order, which is what makes the merged report
//! independent of the shard count. [`CampaignPlan::from_cells`] builds a
//! plan from an explicit cell list instead; both run one id check.

use greener_simkit::sweep::gridn_indices;

use crate::scenario::Scenario;

use super::manifest::{err, AxisValue, CampaignManifest, ManifestError};

/// One fully-resolved run of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignCell {
    /// Position in plan order (also the merge position).
    pub index: usize,
    /// Stable human-readable id `<campaign>/<label>` (an expanded
    /// manifest's label is `<knob>=<label>/…/seed=<s>`) — unique within
    /// the plan, whitespace-free, independent of shard and thread count.
    pub id: String,
    /// The concrete scenario (base + this cell's axis values + seed, or
    /// the explicit cell's scenario); its `name` is the cell id and its
    /// `seed` the root seed the cell runs under.
    pub scenario: Scenario,
}

/// An expanded campaign: the manifest plus its ordered cells.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// Campaign name (from the manifest).
    pub name: String,
    /// The cells, in row-major plan order; `cells[i].index == i`.
    pub cells: Vec<CampaignCell>,
}

impl CampaignManifest {
    /// Expand the manifest into its ordered cell list. Deterministic:
    /// depends only on the manifest, never on thread count or timing.
    /// Fails if two axes sweep one knob (programmatic
    /// [`CampaignManifest::with_axis`] chains can), or if the ids fail the
    /// plan id check [`CampaignPlan::from_cells`] also runs: an empty or
    /// spaced name, or two cells sharing an id, as when value labels round
    /// alike (`cap:160.2, cap:160.4` both label `static-cap-160W`).
    pub fn expand(&self) -> Result<CampaignPlan, ManifestError> {
        let mut seen_axes = std::collections::HashSet::with_capacity(self.axes.len());
        if let Some(axis) = self.axes.iter().find(|a| !seen_axes.insert(a.knob.name())) {
            return err(0, format!("duplicate axis `{}`", axis.knob.name()));
        }
        // Each axis value's id segment, and each seed's (innermost),
        // rendered once rather than per cell.
        let mut segments: Vec<Vec<String>> = self
            .axes
            .iter()
            .map(|a| {
                let segment = |v: &AxisValue| format!("/{}={}", a.knob.name(), v.label());
                a.values.iter().map(segment).collect()
            })
            .collect();
        segments.push(self.seeds.iter().map(|s| format!("/seed={s}")).collect());
        let dims: Vec<usize> = segments.iter().map(Vec::len).collect();
        let cells = gridn_indices(&dims).into_iter().map(|ix| {
            let seed = self.seeds[*ix.last().expect("dims has the seed axis")];
            let mut scenario = self.base.clone().with_seed(seed);
            for (axis, &vi) in self.axes.iter().zip(&ix) {
                axis.knob.apply(&mut scenario, &self.base, &axis.values[vi]);
            }
            let id = segments
                .iter()
                .zip(&ix)
                .fold(self.name.clone(), |id, (s, &vi)| id + &s[vi]);
            (id, scenario)
        });
        CampaignPlan::checked(self.name.clone(), cells)
    }
}

/// The plan id check every expansion runs: each `/`-separated segment of
/// an id non-empty and whitespace-free (ids are merge keys and
/// whitespace-separated artifact tokens), and no id repeated. ASCII
/// whitespace and control bytes all sort at or below `b' '`.
pub(crate) fn check_cell_ids<'a>(
    ids: impl ExactSizeIterator<Item = &'a str>,
) -> Result<(), ManifestError> {
    let mut seen = std::collections::HashSet::with_capacity(ids.len());
    for id in ids {
        if id.split('/').any(str::is_empty) {
            return err(0, format!("cell id `{id}` has an empty segment"));
        } else if id.bytes().any(|b| b <= b' ')
            || !id.is_ascii() && id.contains(char::is_whitespace)
        {
            return err(0, format!("cell id `{id}` contains whitespace"));
        } else if !seen.insert(id) {
            return err(0, format!("duplicate cell id `{id}`"));
        }
    }
    Ok(())
}

impl CampaignPlan {
    /// A plan of explicit cells, one per `(label, scenario)` in the given
    /// order: cell `i`'s id is `<name>/<label>` and doubles as its scenario
    /// name, and the scenario keeps its own seed. An empty label,
    /// whitespace or a repeated label is a [`ManifestError`] naming the id.
    /// Worlds, environments and replays are shared by their scenario keys,
    /// as in any plan. Worker processes re-expand manifest text, so a
    /// hand-made cell list runs in-process only: a
    /// [`ProcessBackend`](super::ProcessBackend) refuses its shards on the
    /// plan fingerprint check.
    pub fn from_cells(
        name: impl Into<String>,
        cells: Vec<(String, Scenario)>,
    ) -> Result<CampaignPlan, ManifestError> {
        let name = name.into();
        let cells = cells
            .into_iter()
            .map(|(label, s)| (format!("{name}/{label}"), s));
        CampaignPlan::checked(name.clone(), cells)
    }

    /// The plan whose cells are `cells`' `(id, scenario)` pairs in order,
    /// each scenario named by its id, once the ids pass `check_cell_ids`.
    fn checked(
        name: String,
        cells: impl Iterator<Item = (String, Scenario)>,
    ) -> Result<CampaignPlan, ManifestError> {
        let cells: Vec<CampaignCell> = cells
            .enumerate()
            .map(|(index, (id, mut scenario))| {
                scenario.name = id.clone();
                CampaignCell {
                    index,
                    id,
                    scenario,
                }
            })
            .collect();
        check_cell_ids(cells.iter().map(|c| c.id.as_str()))?;
        Ok(CampaignPlan { name, cells })
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the plan is empty (an axis with zero values).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Number of *distinct worlds* the plan needs: cells grouped by
    /// [`Scenario::world_inputs_key`], the text of the two specs the
    /// world builders read. A shard builds each of its distinct worlds
    /// once and drops it after its last cell.
    pub fn distinct_worlds(&self) -> usize {
        self.count_distinct(Scenario::world_inputs_key)
    }

    /// Number of *distinct environments* the plan needs: cells grouped by
    /// [`Scenario::env_spec`]. Worlds that differ only in their trace
    /// share one environment, which a shard builds once.
    pub fn distinct_environments(&self) -> usize {
        self.count_distinct(env_key)
    }

    /// Number of *distinct replays* the plan needs: cells grouped by
    /// [`Scenario::replay_inputs_key`]. Cells that differ only in their
    /// name and SLO threshold share one replay, which a pass runs once.
    pub fn distinct_replays(&self) -> usize {
        self.count_distinct(Scenario::replay_inputs_key)
    }

    fn count_distinct(&self, key: impl Fn(&Scenario) -> String) -> usize {
        self.cells
            .iter()
            .map(|c| key(&c.scenario))
            .collect::<std::collections::HashSet<_>>()
            .len()
    }
}

/// The environment-cache key: the `Debug` text of [`Scenario::env_spec`],
/// the environment half of [`Scenario::world_inputs_key`].
pub(super) fn env_key(scenario: &Scenario) -> String {
    format!("{:?}", scenario.env_spec())
}

#[cfg(test)]
mod tests {
    use super::super::manifest::{AxisValue, Knob};
    use super::*;
    use greener_sched::PolicyKind;

    fn demo_manifest() -> CampaignManifest {
        CampaignManifest::parse(
            "name = demo\n\
             base = quick:4@11\n\
             seeds = 1..3\n\
             axis policy = fcfs, easy\n\
             axis slo_wait_hours = 12, 24\n",
        )
        .unwrap()
    }

    #[test]
    fn expansion_is_row_major_with_seeds_innermost() {
        let plan = demo_manifest().expand().unwrap();
        assert_eq!(plan.len(), 2 * 2 * 2);
        let ids: Vec<&str> = plan.cells.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(
            ids,
            vec![
                "demo/policy=fcfs/slo_wait_hours=12.0/seed=1",
                "demo/policy=fcfs/slo_wait_hours=12.0/seed=2",
                "demo/policy=fcfs/slo_wait_hours=24.0/seed=1",
                "demo/policy=fcfs/slo_wait_hours=24.0/seed=2",
                "demo/policy=easy-backfill/slo_wait_hours=12.0/seed=1",
                "demo/policy=easy-backfill/slo_wait_hours=12.0/seed=2",
                "demo/policy=easy-backfill/slo_wait_hours=24.0/seed=1",
                "demo/policy=easy-backfill/slo_wait_hours=24.0/seed=2",
            ]
        );
        for (i, c) in plan.cells.iter().enumerate() {
            assert_eq!(c.index, i);
            assert_eq!(c.scenario.name, c.id);
            assert!(c.id.ends_with(&format!("/seed={}", c.scenario.seed)));
            assert!(!c.id.contains(char::is_whitespace));
        }
        // Policy/SLO are replay knobs: one world per seed, and the SLO is
        // read only after replay: one replay per policy and seed.
        assert_eq!(plan.distinct_worlds(), 2);
        assert_eq!(plan.distinct_replays(), 4);
    }

    #[test]
    fn axis_values_are_applied() {
        let plan = demo_manifest().expand().unwrap();
        assert_eq!(plan.cells[0].scenario.policy, PolicyKind::Fcfs);
        assert_eq!(plan.cells[0].scenario.slo_wait_hours, 12.0);
        assert_eq!(plan.cells[7].scenario.policy, PolicyKind::EasyBackfill);
        assert_eq!(plan.cells[7].scenario.slo_wait_hours, 24.0);
        // Base fields not on an axis are untouched.
        assert_eq!(plan.cells[0].scenario.horizon_hours, 4 * 24);
    }

    #[test]
    fn colliding_labels_are_rejected() {
        let m = CampaignManifest::new("c", Scenario::quick(3, 1)).with_axis(
            Knob::Policy,
            vec![
                AxisValue::Policy(PolicyKind::StaticCap { cap_w: 160.2 }),
                AxisValue::Policy(PolicyKind::StaticCap { cap_w: 160.4 }),
            ],
        );
        let e = m.expand().unwrap_err();
        assert!(e.msg.contains("duplicate cell id"), "{e}");
    }

    #[test]
    fn duplicate_axis_names_are_rejected_at_expansion() {
        // The text parser rejects a repeated `axis policy = …` line, but a
        // programmatic with_axis chain can sweep the same knob twice —
        // expansion must catch it with a precise error.
        let m = CampaignManifest::new("dup", Scenario::quick(3, 1))
            .with_axis(Knob::Policy, vec![AxisValue::Policy(PolicyKind::Fcfs)])
            .with_axis(
                Knob::Policy,
                vec![AxisValue::Policy(PolicyKind::EasyBackfill)],
            );
        let e = m.expand().unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.msg.contains("duplicate axis `policy`"), "{e}");
    }

    #[test]
    fn explicit_cells_keep_their_order_seed_and_label() {
        let plan = CampaignPlan::from_cells(
            "x",
            vec![
                ("b".into(), Scenario::quick(3, 5)),
                (
                    "a".into(),
                    Scenario::quick(3, 9).with_policy(PolicyKind::Fcfs),
                ),
            ],
        )
        .unwrap();
        assert_eq!(plan.name, "x");
        let ids: Vec<&str> = plan.cells.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids, ["x/b", "x/a"]);
        for (i, c) in plan.cells.iter().enumerate() {
            assert_eq!(c.index, i);
            assert_eq!(c.scenario.name, c.id);
        }
        assert_eq!(plan.cells[1].scenario.seed, 9);
        assert_eq!(plan.cells[1].scenario.policy, PolicyKind::Fcfs);
        assert_eq!(plan.distinct_worlds(), 2);
    }

    #[test]
    fn programmatic_names_go_through_the_id_check() {
        for name in ["", "two words"] {
            let e = CampaignManifest::new(name, Scenario::quick(3, 1))
                .expand()
                .unwrap_err();
            assert!(e.msg.contains("cell id"), "{e}");
        }
    }

    #[test]
    fn explicit_cells_reject_bad_labels_naming_the_id() {
        let s = Scenario::quick(3, 1);
        let reject = |labels: &[&str]| {
            let cells = labels.iter().map(|l| (l.to_string(), s.clone())).collect();
            CampaignPlan::from_cells("x", cells).unwrap_err()
        };
        let e = reject(&["ok", ""]);
        assert_eq!(e.line, 0);
        assert!(
            e.msg.contains("`x/`") && e.msg.contains("empty segment"),
            "{e}"
        );
        let e = reject(&["two words"]);
        assert!(
            e.msg.contains("`x/two words`") && e.msg.contains("whitespace"),
            "{e}"
        );
        let e = reject(&["same", "other", "same"]);
        assert!(e.msg.contains("duplicate cell id `x/same`"), "{e}");
    }

    #[test]
    fn world_affecting_axis_grows_distinct_worlds() {
        let m = CampaignManifest::new("w", Scenario::quick(3, 1))
            .with_axis(
                Knob::HorizonDays,
                vec![AxisValue::Count(3), AxisValue::Count(4)],
            )
            .with_axis(
                Knob::Policy,
                vec![
                    AxisValue::Policy(PolicyKind::Fcfs),
                    AxisValue::Policy(PolicyKind::Sjf),
                ],
            );
        let plan = m.expand().unwrap();
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.distinct_worlds(), 2); // horizon is a world input
    }
}
