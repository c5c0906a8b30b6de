//! Cluster state: nodes, gang allocation and IT power.
//!
//! The cluster is the supply side `q_s` of Eq. 1. Jobs request GPU gangs;
//! allocation is first-fit-descending over nodes (pack), gangs may span
//! nodes (SuperCloud-style), and a node burns its CPU/host overhead only
//! while it hosts at least one allocated GPU.

use greener_simkit::units::Power;
use greener_workload::JobId;

use crate::gpu::GpuModel;

/// Static cluster shape.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of nodes.
    pub nodes: u32,
    /// GPUs per node.
    pub gpus_per_node: u32,
    /// Host (CPU/memory/NIC) overhead while a node is active, watts.
    pub node_active_overhead_w: f64,
    /// Node draw while fully idle, watts.
    pub node_idle_w: f64,
    /// Fixed infrastructure (storage, network fabric, head nodes), watts.
    pub fixed_infra_w: f64,
    /// GPU model installed throughout.
    pub gpu: GpuModel,
}

impl Default for ClusterSpec {
    /// A ~200 kW-IT cluster: 320 dual-GPU nodes (640 V100-like GPUs).
    fn default() -> Self {
        ClusterSpec {
            nodes: 320,
            gpus_per_node: 2,
            node_active_overhead_w: 240.0,
            node_idle_w: 95.0,
            fixed_infra_w: 22_000.0,
            gpu: GpuModel::default(),
        }
    }
}

impl ClusterSpec {
    /// Total GPUs in the cluster.
    pub fn total_gpus(&self) -> u32 {
        self.nodes * self.gpus_per_node
    }
}

/// One job's placement.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// `(node index, gpus on that node)` pieces of the gang.
    pub pieces: Vec<(u32, u32)>,
    /// Power cap applied to every GPU of the gang, watts.
    pub power_cap_w: f64,
    /// Mean utilization of the gang's GPUs.
    pub utilization: f64,
}

impl Allocation {
    /// Total GPUs in the gang.
    pub fn gpus(&self) -> u32 {
        self.pieces.iter().map(|(_, g)| g).sum()
    }
}

/// One slab slot: the allocation plus its cached power contribution.
///
/// `power_w` is this gang's term of the incremental `alloc_power_w` sum,
/// computed once at allocate/recap time. `power_at` is a pure function of
/// `(cap, utilization)`, so reusing the cached value at release subtracts
/// the exact bits a recomputation would — it just skips the curve
/// interpolation on the hot path.
#[derive(Debug, Clone)]
struct Slot {
    alloc: Allocation,
    power_w: f64,
}

/// Allocation failure reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// Not enough free GPUs cluster-wide.
    InsufficientGpus,
    /// The job id already holds an allocation.
    DuplicateJob,
    /// Zero-GPU requests are invalid.
    EmptyRequest,
}

/// Mutable cluster state.
///
/// IT power is maintained *incrementally*: [`Cluster::it_power`] is O(1),
/// assembled from an allocated-gang power sum and an active-node count that
/// are updated on every allocate/release/recap instead of re-summed over
/// all allocations per query (the simulation driver queries power on every
/// event, so the re-sum was a per-event O(running jobs) cost).
///
/// Note the floating-point consequence: a running `+=`/`-=` sum visits
/// gangs in allocation order, not `HashMap` iteration order, so the low
/// bits of `it_power()` differ from the old fresh re-sum. The sequence is
/// still fully deterministic (same events → same adds/subtracts → same
/// bits), and the sum snaps back to exactly `0.0` whenever the cluster
/// drains, which bounds cancellation drift between idle periods.
#[derive(Debug, Clone)]
pub struct Cluster {
    spec: ClusterSpec,
    free_per_node: Vec<u32>,
    /// Dense allocation slab indexed by `JobId` (the workspace's job ids
    /// are dense trace indices, so a direct-index slot beats any hash
    /// lookup on the start/finish hot path).
    allocations: Vec<Option<Slot>>,
    /// Live jobs in the slab (maintained; the slab itself keeps vacant
    /// slots around).
    active_jobs: usize,
    free_total: u32,
    /// Σ over allocations of `gpus × power_at(cap, util)`, watts.
    alloc_power_w: f64,
    /// Nodes hosting ≥ 1 allocated GPU.
    active_nodes: u32,
    /// Free-level index: `level_nodes[f-1]` holds the nodes with exactly
    /// `f` free GPUs, each list sorted by node index and maintained
    /// incrementally on allocate/release. Walking levels ascending, nodes
    /// ascending within each, reproduces the comparison sort by
    /// `(free, n)` the packing is specified as — without rescanning every
    /// node per `allocate` (the driver allocates on every job start, so
    /// this is hot; a property test pins the walk against the sorted
    /// reference).
    level_nodes: Vec<Vec<u32>>,
    /// Recycled `pieces` buffers: `release` returns each allocation's
    /// piece list here so the next `allocate` starts from a warm buffer.
    pieces_pool: Vec<Vec<(u32, u32)>>,
}

impl Cluster {
    /// An empty cluster.
    pub fn new(spec: ClusterSpec) -> Cluster {
        let free_per_node = vec![spec.gpus_per_node; spec.nodes as usize];
        let free_total = spec.total_gpus();
        let mut level_nodes = vec![Vec::new(); spec.gpus_per_node as usize];
        if spec.gpus_per_node > 0 {
            // Every node starts fully free.
            level_nodes[spec.gpus_per_node as usize - 1] = (0..spec.nodes).collect();
        }
        Cluster {
            spec,
            free_per_node,
            allocations: Vec::new(),
            active_jobs: 0,
            free_total,
            alloc_power_w: 0.0,
            active_nodes: 0,
            level_nodes,
            pieces_pool: Vec::new(),
        }
    }

    /// One gang's contribution to the allocated-power sum, watts.
    fn gang_power_w(&self, alloc: &Allocation) -> f64 {
        alloc.gpus() as f64
            * self
                .spec
                .gpu
                .power_at(alloc.power_cap_w, alloc.utilization)
                .value()
    }

    /// Move node `n` from free level `from` to free level `to` (0 = not
    /// listed). Lists stay sorted by node index via binary search.
    #[inline]
    fn relevel(&mut self, n: u32, from: u32, to: u32) {
        if from > 0 {
            let list = &mut self.level_nodes[from as usize - 1];
            let i = list.binary_search(&n).expect("level index holds the node");
            list.remove(i);
        }
        if to > 0 {
            let list = &mut self.level_nodes[to as usize - 1];
            let i = list
                .binary_search(&n)
                .expect_err("node already at target level");
            list.insert(i, n);
        }
    }

    /// The slab slot for `job`, if live.
    #[inline]
    fn slot(&self, job: JobId) -> Option<&Slot> {
        self.allocations
            .get(job.0 as usize)
            .and_then(Option::as_ref)
    }

    /// The static spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Total GPUs.
    pub fn total_gpus(&self) -> u32 {
        self.spec.total_gpus()
    }

    /// Currently free GPUs.
    pub fn free_gpus(&self) -> u32 {
        self.free_total
    }

    /// Currently allocated GPUs.
    pub fn running_gpus(&self) -> u32 {
        self.total_gpus() - self.free_total
    }

    /// GPU-count utilization in \[0,1\].
    pub fn gpu_utilization(&self) -> f64 {
        self.running_gpus() as f64 / self.total_gpus() as f64
    }

    /// Number of active jobs.
    pub fn active_jobs(&self) -> usize {
        self.active_jobs
    }

    /// Look up a job's allocation.
    pub fn allocation(&self, job: JobId) -> Option<&Allocation> {
        self.slot(job).map(|s| &s.alloc)
    }

    /// Allocate a gang, packing into the fullest partially-free nodes first
    /// (first-fit-descending keeps whole nodes idle so host overhead stays
    /// low — an energy-aware placement in itself).
    pub fn allocate(
        &mut self,
        job: JobId,
        gpus: u32,
        power_cap_w: f64,
        utilization: f64,
    ) -> Result<(), AllocError> {
        if gpus == 0 {
            return Err(AllocError::EmptyRequest);
        }
        if self.slot(job).is_some() {
            return Err(AllocError::DuplicateJob);
        }
        if gpus > self.free_total {
            return Err(AllocError::InsufficientGpus);
        }
        // Plan over the free-level index: ascending level, ascending node
        // within each list — exactly the `(free, n)` comparison-sort order
        // over candidate nodes (free > 0), so we fill partially-used nodes
        // before waking idle ones. The plan walk never mutates the index,
        // so it sees the same pre-allocation snapshot a rebuilt candidate
        // list would.
        let mut remaining = gpus;
        let mut pieces = self.pieces_pool.pop().unwrap_or_default();
        debug_assert!(pieces.is_empty(), "pooled piece buffers come back clean");
        'fill: for (level, nodes) in self.level_nodes.iter().enumerate() {
            let free = level as u32 + 1;
            for &n in nodes {
                debug_assert_eq!(self.free_per_node[n as usize], free);
                let take = remaining.min(free);
                pieces.push((n, take));
                remaining -= take;
                if remaining == 0 {
                    break 'fill;
                }
            }
        }
        debug_assert_eq!(remaining, 0, "free_total said it fits");
        // Apply: update free counts and re-level the touched nodes (each
        // node appears in at most one piece).
        for &(n, take) in &pieces {
            let free = self.free_per_node[n as usize];
            if free == self.spec.gpus_per_node {
                self.active_nodes += 1; // idle node wakes up
            }
            self.free_per_node[n as usize] = free - take;
            self.relevel(n, free, free - take);
        }
        self.free_total -= gpus;
        let cap = self.spec.gpu.clamp_cap(power_cap_w);
        let alloc = Allocation {
            pieces,
            power_cap_w: cap,
            utilization: utilization.clamp(0.0, 1.0),
        };
        let power_w = self.gang_power_w(&alloc);
        self.alloc_power_w += power_w;
        let idx = job.0 as usize;
        if self.allocations.len() <= idx {
            self.allocations.resize_with(idx + 1, || None);
        }
        self.allocations[idx] = Some(Slot { alloc, power_w });
        self.active_jobs += 1;
        Ok(())
    }

    /// Release a job's gang. Returns false if the job held nothing.
    pub fn release(&mut self, job: JobId) -> bool {
        let Some(Slot { alloc, power_w }) = self
            .allocations
            .get_mut(job.0 as usize)
            .and_then(Option::take)
        else {
            return false;
        };
        for &(n, g) in &alloc.pieces {
            let free = self.free_per_node[n as usize];
            let now_free = free + g;
            debug_assert!(now_free <= self.spec.gpus_per_node);
            self.free_per_node[n as usize] = now_free;
            if now_free == self.spec.gpus_per_node {
                self.active_nodes -= 1; // node fully drained
            }
            self.relevel(n, free, now_free);
        }
        self.free_total += alloc.gpus();
        self.active_jobs -= 1;
        if self.active_jobs == 0 {
            // Drained cluster: snap the running sum back to exactly zero so
            // add/subtract cancellation error cannot accumulate across
            // busy periods.
            self.alloc_power_w = 0.0;
        } else {
            // The cached term is bit-identical to recomputing
            // `gang_power_w` (pure function of the stored cap/util).
            self.alloc_power_w -= power_w;
        }
        // Recycle the piece buffer for the next allocate.
        let mut pieces = alloc.pieces;
        pieces.clear();
        self.pieces_pool.push(pieces);
        true
    }

    /// Change the power cap of a running job (DVFS-style adjustment).
    pub fn recap(&mut self, job: JobId, power_cap_w: f64) -> bool {
        let cap = self.spec.gpu.clamp_cap(power_cap_w);
        let Some(mut slot) = self
            .allocations
            .get_mut(job.0 as usize)
            .and_then(Option::take)
        else {
            return false;
        };
        self.alloc_power_w -= slot.power_w;
        slot.alloc.power_cap_w = cap;
        slot.power_w = self.gang_power_w(&slot.alloc);
        self.alloc_power_w += slot.power_w;
        self.allocations[job.0 as usize] = Some(slot);
        true
    }

    /// Number of nodes hosting at least one allocated GPU (maintained
    /// incrementally; O(1)).
    pub fn active_nodes(&self) -> u32 {
        self.active_nodes
    }

    /// Instantaneous IT power: allocated GPUs at their caps/utilizations,
    /// idle GPUs at idle draw, node overheads, fixed infrastructure.
    ///
    /// O(1): the allocated-gang sum and active-node count are maintained on
    /// allocate/release/recap (see the type-level docs for the float
    /// summation-order caveat).
    pub fn it_power(&self) -> Power {
        let gpu = &self.spec.gpu;
        let mut total = self.spec.fixed_infra_w;
        // Node overhead / idle baseline.
        let active_nodes = self.active_nodes;
        total += active_nodes as f64 * self.spec.node_active_overhead_w;
        total += (self.spec.nodes - active_nodes) as f64 * self.spec.node_idle_w;
        // Idle GPUs on any node draw idle power.
        let idle_gpus = self.free_total;
        total += idle_gpus as f64 * gpu.idle_power_w;
        // Allocated gangs (incremental running sum).
        total += self.alloc_power_w;
        Power(total)
    }

    /// Verify internal consistency (used by property tests).
    pub fn check_invariants(&self) -> Result<(), String> {
        let live = self.allocations.iter().flatten().count();
        if live != self.active_jobs {
            return Err(format!(
                "active-job count drifted: cached {} vs scan {live}",
                self.active_jobs
            ));
        }
        for slot in self.allocations.iter().flatten() {
            if slot.power_w.to_bits() != self.gang_power_w(&slot.alloc).to_bits() {
                return Err(format!(
                    "cached gang power {} diverged from recomputation {}",
                    slot.power_w,
                    self.gang_power_w(&slot.alloc)
                ));
            }
        }
        for (level, nodes) in self.level_nodes.iter().enumerate() {
            let free = level as u32 + 1;
            if !nodes.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("level {free} list not sorted/unique: {nodes:?}"));
            }
            for &n in nodes {
                if self.free_per_node[n as usize] != free {
                    return Err(format!(
                        "node {n} listed at free level {free} but has {} free",
                        self.free_per_node[n as usize]
                    ));
                }
            }
        }
        let listed: usize = self.level_nodes.iter().map(Vec::len).sum();
        let candidates = self.free_per_node.iter().filter(|&&f| f > 0).count();
        if listed != candidates {
            return Err(format!(
                "level index lists {listed} nodes but {candidates} have free GPUs"
            ));
        }
        let alloc_sum: u32 = self
            .allocations
            .iter()
            .flatten()
            .map(|s| s.alloc.gpus())
            .sum();
        let free_sum: u32 = self.free_per_node.iter().sum();
        if free_sum != self.free_total {
            return Err(format!("free mismatch: {free_sum} vs {}", self.free_total));
        }
        if alloc_sum + free_sum != self.total_gpus() {
            return Err(format!(
                "GPU conservation violated: {alloc_sum} + {free_sum} != {}",
                self.total_gpus()
            ));
        }
        for (n, &free) in self.free_per_node.iter().enumerate() {
            if free > self.spec.gpus_per_node {
                return Err(format!("node {n} free {free} exceeds capacity"));
            }
        }
        let active_scan = self
            .free_per_node
            .iter()
            .filter(|&&free| free < self.spec.gpus_per_node)
            .count() as u32;
        if active_scan != self.active_nodes {
            return Err(format!(
                "active-node count drifted: cached {} vs scan {active_scan}",
                self.active_nodes
            ));
        }
        let power_scan: f64 = self
            .allocations
            .iter()
            .flatten()
            .map(|s| self.gang_power_w(&s.alloc))
            .sum();
        // The incremental sum may differ from a fresh re-sum in the low
        // bits (different operation order); anything beyond tiny relative
        // error is a bookkeeping bug.
        if (power_scan - self.alloc_power_w).abs() > 1e-6 * power_scan.abs().max(1.0) {
            return Err(format!(
                "alloc power drifted: cached {} vs scan {power_scan}",
                self.alloc_power_w
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cluster {
        Cluster::new(ClusterSpec {
            nodes: 4,
            gpus_per_node: 2,
            ..ClusterSpec::default()
        })
    }

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut c = small();
        assert_eq!(c.total_gpus(), 8);
        c.allocate(JobId(1), 3, 250.0, 1.0).unwrap();
        assert_eq!(c.free_gpus(), 5);
        assert_eq!(c.running_gpus(), 3);
        assert!(c.release(JobId(1)));
        assert_eq!(c.free_gpus(), 8);
        assert!(!c.release(JobId(1)), "double release");
        c.check_invariants().unwrap();
    }

    #[test]
    fn rejects_bad_requests() {
        let mut c = small();
        assert_eq!(
            c.allocate(JobId(1), 0, 250.0, 1.0),
            Err(AllocError::EmptyRequest)
        );
        assert_eq!(
            c.allocate(JobId(1), 9, 250.0, 1.0),
            Err(AllocError::InsufficientGpus)
        );
        c.allocate(JobId(1), 2, 250.0, 1.0).unwrap();
        assert_eq!(
            c.allocate(JobId(1), 1, 250.0, 1.0),
            Err(AllocError::DuplicateJob)
        );
    }

    #[test]
    fn packing_fills_busy_nodes_first() {
        let mut c = small();
        c.allocate(JobId(1), 1, 250.0, 1.0).unwrap();
        // Second 1-GPU job should land on the same node (leaving 3 idle).
        c.allocate(JobId(2), 1, 250.0, 1.0).unwrap();
        assert_eq!(c.active_nodes(), 1, "packing should co-locate small jobs");
    }

    #[test]
    fn gangs_span_nodes() {
        let mut c = small();
        c.allocate(JobId(1), 5, 250.0, 1.0).unwrap();
        let a = c.allocation(JobId(1)).unwrap();
        assert_eq!(a.gpus(), 5);
        assert!(a.pieces.len() >= 3, "5 GPUs across 2-GPU nodes spans ≥3");
        c.check_invariants().unwrap();
    }

    #[test]
    fn it_power_grows_with_load() {
        let mut c = Cluster::new(ClusterSpec::default());
        let idle = c.it_power().kw();
        c.allocate(JobId(1), 64, 250.0, 0.95).unwrap();
        let loaded = c.it_power().kw();
        assert!(
            loaded > idle + 10.0,
            "idle {idle:.1} kW, loaded {loaded:.1} kW"
        );
        // Idle cluster draws something (fixed infra + idle nodes).
        assert!(idle > 20.0);
    }

    #[test]
    fn power_cap_reduces_power() {
        let mut a = Cluster::new(ClusterSpec::default());
        let mut b = Cluster::new(ClusterSpec::default());
        a.allocate(JobId(1), 128, 250.0, 1.0).unwrap();
        b.allocate(JobId(1), 128, 150.0, 1.0).unwrap();
        assert!(b.it_power().value() < a.it_power().value() - 128.0 * 50.0);
    }

    #[test]
    fn recap_applies_and_clamps() {
        let mut c = small();
        c.allocate(JobId(1), 2, 250.0, 1.0).unwrap();
        assert!(c.recap(JobId(1), 60.0));
        assert_eq!(c.allocation(JobId(1)).unwrap().power_cap_w, 100.0); // clamped
        assert!(!c.recap(JobId(99), 150.0));
    }

    #[test]
    fn utilization_fraction() {
        let mut c = small();
        assert_eq!(c.gpu_utilization(), 0.0);
        c.allocate(JobId(1), 4, 250.0, 1.0).unwrap();
        assert!((c.gpu_utilization() - 0.5).abs() < 1e-12);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Random allocate/release interleavings conserve GPUs and keep
            /// per-node bounds.
            #[test]
            fn conservation_under_churn(ops in prop::collection::vec((0u8..2, 1u64..30, 1u32..12), 1..120)) {
                let mut c = Cluster::new(ClusterSpec {
                    nodes: 8,
                    gpus_per_node: 4,
                    ..ClusterSpec::default()
                });
                for (op, id, gpus) in ops {
                    match op {
                        0 => { let _ = c.allocate(JobId(id), gpus, 200.0, 0.9); }
                        _ => { c.release(JobId(id)); }
                    }
                    prop_assert!(c.check_invariants().is_ok(), "{:?}", c.check_invariants());
                }
            }

            /// The bucketed candidate walk in `allocate` packs exactly like
            /// the comparison sort by `(free, n)` it replaced: after random
            /// churn puts nodes in mixed fill states, one more allocation's
            /// pieces match the reference packing computed from the sorted
            /// candidate list.
            #[test]
            fn packing_matches_comparison_sort_reference(
                ops in prop::collection::vec((0u8..2, 1u64..30, 1u32..12), 0..60),
                gpus in 1u32..13,
            ) {
                let mut c = Cluster::new(ClusterSpec {
                    nodes: 8,
                    gpus_per_node: 4,
                    ..ClusterSpec::default()
                });
                for (op, id, g) in ops {
                    match op {
                        0 => { let _ = c.allocate(JobId(id), g, 200.0, 0.9); }
                        _ => { c.release(JobId(id)); }
                    }
                }
                let gpus = gpus.min(c.free_gpus());
                if gpus == 0 {
                    return Ok(());
                }
                let mut cands: Vec<u32> = (0..c.spec.nodes)
                    .filter(|&n| c.free_per_node[n as usize] > 0)
                    .collect();
                cands.sort_by_key(|&n| (c.free_per_node[n as usize], n));
                let mut remaining = gpus;
                let mut expected = Vec::new();
                for n in cands {
                    if remaining == 0 {
                        break;
                    }
                    let take = remaining.min(c.free_per_node[n as usize]);
                    if take > 0 {
                        expected.push((n, take));
                        remaining -= take;
                    }
                }
                c.allocate(JobId(999), gpus, 200.0, 0.9).unwrap();
                prop_assert_eq!(&c.allocation(JobId(999)).unwrap().pieces, &expected);
            }

            /// IT power is monotone in allocated load and always at least the
            /// idle floor.
            #[test]
            fn power_monotone(gangs in prop::collection::vec(1u32..16, 0..12)) {
                let mut c = Cluster::new(ClusterSpec::default());
                let mut last = c.it_power().value();
                for (i, g) in gangs.iter().enumerate() {
                    if c.allocate(JobId(i as u64), *g, 250.0, 1.0).is_ok() {
                        let now = c.it_power().value();
                        prop_assert!(now >= last - 1e-9);
                        last = now;
                    }
                }
            }
        }
    }
}
