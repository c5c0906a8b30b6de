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
//! independent of the shard count.

use greener_simkit::sweep::gridn_indices;

use crate::scenario::Scenario;

use super::manifest::{CampaignManifest, ManifestError};

/// One fully-resolved run of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignCell {
    /// Position in plan order (also the merge position).
    pub index: usize,
    /// Stable human-readable id:
    /// `<campaign>/<knob>=<label>/…/seed=<s>` — unique within the plan,
    /// whitespace-free, independent of shard count and thread count.
    pub id: String,
    /// The root seed this cell runs under (already applied to
    /// [`CampaignCell::scenario`]).
    pub seed: u64,
    /// The concrete scenario (base + this cell's axis values + seed); its
    /// `name` is the cell id.
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
    /// Expand the manifest into its ordered cell list.
    ///
    /// Deterministic: depends only on the manifest, never on thread count
    /// or timing. Fails if the axis *names* are not unique and
    /// whitespace-free (the text parser rejects duplicates, but
    /// programmatic [`CampaignManifest::with_axis`] chains can repeat a
    /// knob, and axis names are embedded verbatim in cell ids), or if two
    /// cells would share an id — possible when an axis sweeps values whose
    /// labels round to the same rendering (e.g. `cap:160.2, cap:160.4`
    /// both label `static-cap-160W`) — because downstream lookup
    /// (equivalence, migrated call sites) is by id.
    pub fn expand(&self) -> Result<CampaignPlan, ManifestError> {
        let mut seen_axes = std::collections::HashSet::with_capacity(self.axes.len());
        for axis in &self.axes {
            let name = axis.knob.name();
            if name.is_empty() || name.contains(char::is_whitespace) {
                return Err(ManifestError {
                    line: 0,
                    msg: format!(
                        "axis name `{name}` must be non-empty and whitespace-free \
                         (axis names are embedded in cell ids)"
                    ),
                });
            }
            if !seen_axes.insert(name) {
                return Err(ManifestError {
                    line: 0,
                    msg: format!(
                        "duplicate axis `{name}` (each knob may be swept by at most one axis)"
                    ),
                });
            }
        }
        let mut dims: Vec<usize> = self.axes.iter().map(|a| a.values.len()).collect();
        dims.push(self.seeds.len()); // seed axis, innermost
        let mut cells = Vec::with_capacity(self.cell_count());
        for (index, ix) in gridn_indices(&dims).into_iter().enumerate() {
            let (&seed_ix, axis_ix) = ix.split_last().expect("dims has the seed axis");
            let seed = self.seeds[seed_ix];
            let mut scenario = self.base.clone().with_seed(seed);
            let mut id = self.name.clone();
            for (axis, &vi) in self.axes.iter().zip(axis_ix) {
                let value = &axis.values[vi];
                axis.knob.apply(&mut scenario, &self.base, value);
                id.push('/');
                id.push_str(axis.knob.name());
                id.push('=');
                id.push_str(&value.label());
            }
            id.push_str(&format!("/seed={seed}"));
            scenario.name = id.clone();
            cells.push(CampaignCell {
                index,
                id,
                seed,
                scenario,
            });
        }
        let mut seen = std::collections::HashSet::with_capacity(cells.len());
        for c in &cells {
            if !seen.insert(c.id.as_str()) {
                return Err(ManifestError {
                    line: 0,
                    msg: format!("duplicate cell id `{}` (axis value labels collide)", c.id),
                });
            }
        }
        Ok(CampaignPlan {
            name: self.name.clone(),
            cells,
        })
    }
}

impl CampaignPlan {
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
            assert_eq!(c.scenario.seed, c.seed);
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
