//! The three sweep workloads: each one's manifest, derived from the seed
//! argument, and the plan shape it must expand to.

/// Shards every workload runs at: shard threads for the in-process
/// backend, worker processes for the supervised one.
pub const SHARDS: usize = 2;

/// How a workload's plan is built and executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A campaign manifest run through `InProcessBackend`.
    Campaign,
    /// A campaign manifest run through the supervised `ProcessBackend`.
    Process,
    /// A fleet manifest run through `InProcessBackend`.
    Fleet,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Plan kind and backend.
    pub kind: Kind,
    /// Cells the plan must expand to.
    pub cells: usize,
    /// Distinct worlds the plan must need.
    pub worlds: usize,
    /// Length of the seed axis: `seeds = <seed>..<seed + seeds>`.
    seeds: u64,
    /// Manifest text; `{seed}` and `{end}` come from the seed argument.
    template: &'static str,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "sweep_shared_world",
        kind: Kind::Campaign,
        cells: 12,
        worlds: 1,
        seeds: 1,
        template: "name = shared\n\
                   base = small_2y@{seed}\n\
                   seeds = {seed}..{end}\n\
                   axis policy = fcfs, easy, cap:160, carbon:0.06, green_queues:160, carbon_temp\n\
                   axis slo_wait_hours = 12, 48\n",
    },
    Workload {
        name: "sweep_worlds_process",
        kind: Kind::Process,
        cells: 24,
        worlds: 24,
        seeds: 4,
        template: "name = worlds\n\
                   base = small_2y@{seed}\n\
                   seeds = {seed}..{end}\n\
                   axis arrival_rate = 1.2, 1.6, 2.0\n\
                   axis deadline = status_quo, rolling\n",
    },
    Workload {
        name: "fleet_routing",
        kind: Kind::Fleet,
        cells: 12,
        worlds: 3,
        seeds: 3,
        template: "name = fleet\n\
                   base = small_2y@{seed}\n\
                   sites = 4\n\
                   seeds = {seed}..{end}\n\
                   axis routing = static, round-robin, greedy-carbon, cost-based\n",
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The manifest text for `seed`: the base seed and the first value of
    /// the seed axis are both `seed`.
    pub fn manifest(&self, seed: u64) -> Result<String, String> {
        let end = seed
            .checked_add(self.seeds)
            .ok_or_else(|| format!("seed {seed} leaves no room for {} seeds", self.seeds))?;
        Ok(self
            .template
            .replace("{seed}", &seed.to_string())
            .replace("{end}", &end.to_string()))
    }
}
