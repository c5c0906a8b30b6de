//! The year-scale discrete-event simulation driver.
//!
//! One run wires every substrate together:
//!
//! 1. generate the weather path, the grid path and the job trace from the
//!    scenario's seed (all deterministic);
//! 2. replay the trace through the scheduling policy against the cluster,
//!    at exact event times (arrivals, completions) with hourly environment
//!    ticks;
//! 3. integrate IT power piecewise-constant between events, apply cooling
//!    (COP at the hour's outdoor temperature), settle the hour's energy
//!    through the purchasing strategy, and emit typed observation points
//!    (hourly frame context, job submit/start/finish, purchase/settle) to
//!    the caller's probe set (see [`crate::probe`]).
//!
//! Because traces are a pure function of the seed, two scenarios differing
//! only in policy see identical workloads — every policy comparison in the
//! experiments is paired.
//!
//! # Hot-path architecture
//!
//! A year-scale run pops hundreds of thousands of events, and sweeps
//! (`greener_simkit::sweep::run`) multiply whole runs across cores. Threading is two-level (see `greener_simkit::sweep`'s docs):
//! sweeps fan out *across* runs, and *within* a run [`World::build`] forks
//! the independent world-generation phases (weather channels ∥ sharded
//! trace synthesis, grid pipelined behind weather) across rayon's pool —
//! bit-identical at every thread count, so `RAYON_NUM_THREADS=1` is the
//! sequential reference. The replay half stays single-threaded and lean:
//! the event loop is allocation-free in steady state and algorithmically
//! incremental:
//!
//! * **Three-stream merge, no event queue** — the default engine draws
//!   each event from one of three streams it already holds: a cursor over
//!   the trace (arrivals, already in submit order), the hour cursor (the
//!   next hourly tick) and the head of the completion profile (the
//!   earliest finish). Events that share a timestamp go arrivals first,
//!   then ticks, then completions. That is exactly the `(time, seq)` pop
//!   order of the reference engine ([`SimDriver::run_reference`]), whose
//!   [`EventQueue`] schedules every arrival and then every tick before its
//!   first pop and each completion as its job starts: arrivals hold the
//!   lowest sequence numbers, ticks the next, and completions, FIFO among
//!   themselves like profile ties, all the rest. So the default engine
//!   copies nothing into a queue up front and heaps no completion.
//! * **Borrowed scheduler signals** — [`SchedSignals`] borrows the forecast
//!   and completion slices from engine-owned buffers; building the
//!   per-dispatch snapshot costs zero heap traffic (it used to `to_vec()`
//!   the 24-hour forecast on every dispatch).
//! * **Dense running-job slab, cold columns only** — `JobId`s are assigned
//!   densely by the trace generator, so running jobs live in id-indexed
//!   arrays instead of a `HashMap` (no hashing, no rehash growth). On the
//!   default engine the slab keeps only cold record columns (start, cap,
//!   energy), written once at start and read once when the [`JobRecord`]
//!   is reconstructed; the finish time is the completion profile's head,
//!   and the rest is the trace row. Those are the very f64 values the
//!   reference engine's array-of-structs slab stores, so the record
//!   stream is bit-identical.
//! * **Incremental completion profile** — the `(finish, gpus)` list EASY
//!   backfill reserves against is kept sorted by binary-search insert as
//!   jobs start (ties after equals, so in start order), instead of being
//!   rebuilt and re-sorted from the running set on every dispatch; each
//!   entry's `JobId` sits in a parallel column. The head is always the
//!   next completion on both engines, so retiring a job is a head bump.
//! * **Fit-indexed waiting queue** — the queue is a
//!   [`greener_sched::WaitQueue`]: EASY backfill only visits candidates
//!   whose gang fits the free GPUs (instead of scanning thousands of
//!   non-fitting jobs per dispatch on saturated scenarios), and applying a
//!   decision is an O(1) removal by job id.
//! * **Incremental cluster power** — `Cluster::it_power()` is O(1),
//!   maintained on allocate/release instead of re-summed over every
//!   running allocation at every event.
//! * **Reusable forecast buffers** — the hourly forecast refresh writes
//!   into one buffer via [`Forecaster::forecast_into`], and `Model` mode
//!   keeps a single forecaster instance alive across the run.
//! * **Probe-based observation** — the loop is also generic over a
//!   [`RunProbes`] set: what a run *records* is declared by the caller
//!   ([`SimDriver::run_observed`] with an [`Observe`] spec), and the
//!   aggregates-only composition skips hourly-frame assembly, ledger
//!   growth and job-record retention entirely. Probes are
//!   decision-invisible (read-only observers), so every composition
//!   observes bit-identical numbers.
//! * **Lone-arrival fast path** — on the default engine a job arriving
//!   with free capacity to an empty waiting queue, or to a queue the
//!   policy holds ([`SchedPolicy::holds_queue`]: every queued job is
//!   invisible to dispatch at this instant, like the jobs a carbon gate
//!   defers through a dirty hour), is resolved through
//!   [`SchedPolicy::lone_dispatch`]: no queue push, no fit-index
//!   maintenance, no full policy dispatch, no removal by id. Queue depth
//!   ≈ 0 is the dominant arrival regime on the year-scale scenarios, and
//!   a held queue is the dominant one under the carbon-aware policies;
//!   every built-in policy's lone decision is provably the reference
//!   decision (pinned by golden + property tests over the full per-job
//!   record stream).
//! * **One cooling evaluation per hour** — the tick handler evaluates the
//!   cooling plant once for the hour's temperature
//!   ([`greener_hpc::CoolingModel::at`]); COP, water use and the
//!   saturation flag read that single [`CoolingPoint`] instead of
//!   re-deriving the temperature response three times.
//! * **Always-on loop counters** — every replay counts its events,
//!   dispatches, decisions and fast-path hits in one plain array
//!   ([`crate::profile`]); the counts are exact and cost nothing
//!   measurable, and [`SimDriver::run_profiled`] hands them back.
//!
//! The golden determinism test below pins total energy/carbon/completions
//! bit-for-bit for fixed seeds across all policy families, on both the
//! default and the reference engine *and* across probe compositions (full
//! set vs aggregates-only); CI repeats it with `RAYON_NUM_THREADS=1`.
//! Every fast path keeps a bit-identical reference, checked through
//! [`crate::equivalence`].
//!
//! [`CoolingPoint`]: greener_hpc::CoolingPoint
//! [`SchedPolicy::lone_dispatch`]: greener_sched::SchedPolicy::lone_dispatch
//! [`SchedPolicy::holds_queue`]: greener_sched::SchedPolicy::holds_queue

use greener_climate::{WeatherConfig, WeatherPath};

use greener_forecast::Forecaster;
use greener_grid::ledger::{PurchaseLedger, PurchaseRecord};
use greener_grid::mix::{GridConfig, GridPath};
use greener_hpc::gpu::kind_utilization;
use greener_hpc::{Cluster, HourObservation, TelemetryLog, TelemetryProbe};
use greener_sched::{Decision, LoneDispatch, QueuedJob, SchedPolicy, SchedSignals, WaitQueue};
use greener_simkit::calendar::{CalDate, Calendar};
use greener_simkit::des::EventQueue;
use greener_simkit::time::{SimTime, HOUR};
use greener_simkit::units::{Energy, Fahrenheit};
use greener_workload::{
    ConferenceCalendar, DeadlinePolicy, Job, JobId, JobKind, TraceConfig, TraceGenerator, UserId,
};

use crate::probe::{
    AggregatesProbe, JobPoint, JobsProbe, LedgerProbe, Observe, PurchasePoint, QueueDepthProbe,
    RunAggregates, RunOutput, RunProbes,
};
use crate::profile::{ProfileCounter, ReplayProfile};
use crate::scenario::{ForecastMode, Scenario};

/// One completed job's accounting record (feeds Eq. 2's per-user `e_i`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRecord {
    /// Job id.
    pub id: JobId,
    /// Submitting user.
    pub user: UserId,
    /// Job kind.
    pub kind: JobKind,
    /// Gang size.
    pub gpus: u32,
    /// Work at nominal speed, GPU-hours.
    pub work_gpu_hours: f64,
    /// Submission time.
    pub submit: SimTime,
    /// Start time.
    pub start: SimTime,
    /// Completion time.
    pub finish: SimTime,
    /// Power cap the gang ran under, watts.
    pub power_cap_w: f64,
    /// GPU energy attributed to the job.
    pub energy: Energy,
}

impl JobRecord {
    /// Queue wait in hours.
    pub fn wait_hours(&self) -> f64 {
        (self.start - self.submit).hours_f64()
    }

    /// Bounded slowdown: (wait + run) / max(run, 1h).
    pub fn slowdown(&self) -> f64 {
        let run = (self.finish - self.start).hours_f64();
        let wait = self.wait_hours();
        (wait + run) / run.max(1.0)
    }
}

/// Aggregate job-level statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobStats {
    /// Jobs submitted within the horizon.
    pub submitted: usize,
    /// Jobs completed within the horizon.
    pub completed: usize,
    /// Jobs still queued or running at the end.
    pub unfinished: usize,
    /// Mean queue wait, hours.
    pub mean_wait_hours: f64,
    /// 95th-percentile queue wait, hours.
    pub p95_wait_hours: f64,
    /// Mean bounded slowdown.
    pub mean_slowdown: f64,
    /// Completed jobs whose wait exceeded the SLO threshold.
    pub slo_violations: usize,
    /// Violations / completed.
    pub slo_violation_fraction: f64,
    /// Nominal GPU-hours of completed work (the activity `A` of Eq. 1).
    pub gpu_hours_completed: f64,
}

/// An aggregates-only replay before its report-time step: what
/// [`SimDriver::replay_aggregates`] returns. Nothing here depends on the
/// scenario's SLO threshold, so one replay serves every scenario that
/// differs from it only in report-time fields; [`AggregatesReplay::finish`]
/// applies the threshold.
#[derive(Debug, Clone)]
pub struct AggregatesReplay {
    /// Aggregate run totals.
    pub aggregates: RunAggregates,
    /// Battery wear if a storage strategy ran.
    pub battery_cycles: f64,
    /// The job-statistics probe: one wait and one slowdown sample per
    /// completed job, no records.
    jobs: JobsProbe,
    /// Jobs submitted within the horizon.
    submitted: usize,
    /// Jobs still queued or running at the end.
    unfinished: usize,
}

impl AggregatesReplay {
    /// The run's [`JobStats`] under the SLO wait threshold
    /// `slo_wait_hours` ([`JobsProbe::stats`], which refuses a threshold
    /// that is not a finite non-negative number).
    pub fn finish(&self, slo_wait_hours: f64) -> JobStats {
        self.jobs
            .stats(self.submitted, self.unfinished, slo_wait_hours)
    }
}

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Scenario name.
    pub scenario_name: String,
    /// Hourly telemetry.
    pub telemetry: TelemetryLog,
    /// Hour-by-hour purchase ledger.
    pub ledger: PurchaseLedger,
    /// Aggregate job statistics.
    pub jobs: JobStats,
    /// Per-job records for completed jobs.
    pub job_records: Vec<JobRecord>,
    /// Battery wear if a storage strategy ran.
    pub battery_cycles: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Arrival(u32),
    Completion(JobId),
    Tick,
}

/// Far past any reachable simulation time: the time of an exhausted
/// stream in the default engine's merge.
const NEVER: SimTime = SimTime(u64::MAX);

/// What one replay hands back: the probe set (now holding everything that
/// was observed) and the loop counters, plus the loop-side tallies probes
/// cannot see.
struct ReplayOutcome<O> {
    probes: O,
    counts: ReplayProfile,
    /// Jobs submitted within the horizon (= trace length).
    submitted: usize,
    /// Jobs still queued or running at the end.
    unfinished: usize,
    /// Battery wear if a storage strategy ran.
    battery_cycles: f64,
}

/// Forecast horizon shown to carbon-aware policies, hours.
const FORECAST_HORIZON: usize = 24;

/// Seasonal period (hours per day) for `ForecastMode::Model` fits.
const FORECAST_PERIOD: usize = 24;

/// Mutable event-loop state. Every buffer in here persists across events;
/// after warm-up the loop performs no heap allocation beyond what the
/// attached probes retain (see the module docs for the architecture).
struct Engine<'s, O: RunProbes> {
    scenario: &'s Scenario,
    grid: &'s GridPath,
    weather: &'s WeatherPath,
    hours: usize,
    policy: Box<dyn SchedPolicy>,
    cluster: Cluster,
    /// The reference engine ([`SimDriver::run_reference`]): events pop
    /// from `queue`, every arrival takes the full dispatch, and running
    /// jobs live in the array-of-structs `running` slab. The default
    /// engine merges its three streams in place ([`Engine::next_event`]),
    /// resolves lone arrivals directly and keeps the `cold_*` columns.
    reference: bool,
    /// The reference engine's event queue: every arrival and tick
    /// scheduled before the first pop, each completion as its job starts.
    /// Empty (and unallocated) on the default engine.
    queue: EventQueue<Event>,
    /// Default engine: trace index of the next arrival.
    next_arrival: usize,
    /// Fit-indexed waiting queue shared with the policies.
    waiting: WaitQueue,
    /// Running jobs on the reference engine: the classic dense
    /// array-of-structs slab of records indexed by `JobId` (ids are
    /// assigned densely by the trace generator). Empty on the default
    /// engine.
    running: Vec<Option<JobRecord>>,
    /// Default-engine cold columns: written once at start, read once at
    /// completion to reconstruct the [`JobRecord`] together with the trace
    /// row and the profile head's finish time (same stored f64 values →
    /// bit-identical records). Empty on the reference engine.
    cold_start: Vec<SimTime>,
    cold_cap_w: Vec<f64>,
    cold_energy_j: Vec<f64>,
    /// The immutable job trace (for default-engine record
    /// reconstruction: trace rows carry every submit-time field).
    trace: &'s [Job],
    running_count: usize,
    /// `(finish, gpus)` of running jobs, sorted soonest-first, ties in
    /// start order. Inserted into as jobs start; the live region
    /// `completions[completions_head..]` is borrowed by every
    /// `SchedSignals`.
    completions: Vec<(SimTime, u32)>,
    /// The `JobId` of each `completions` entry, at the same index.
    completion_ids: Vec<JobId>,
    /// Start of the live completion entries. The next completion is always
    /// the earliest finish, ties in start order, which is the head: it is
    /// retired by advancing this index, and the dead prefix is compacted
    /// away once it dominates the buffer.
    completions_head: usize,
    /// The caller's statically-composed probe set; receives every typed
    /// observation point the loop emits (and nothing else — probes are
    /// decision-invisible).
    probes: O,
    /// Reused decision out-buffer for `SchedPolicy::dispatch`.
    decisions: Vec<Decision>,
    /// Current 24 h green-share forecast (reused; refreshed hourly, and
    /// empty unless the policy reads it).
    forecast_green: Vec<f64>,
    /// Persistent forecaster for `ForecastMode::Model` (built once, for a
    /// policy that reads the forecast).
    forecast_model: Option<Box<dyn Forecaster + Send>>,
    /// Loop counters, always kept (see [`crate::profile`]).
    counts: ReplayProfile,
    hour_cursor: usize,
}

impl<O: RunProbes> Engine<'_, O> {
    /// The default engine's next event: the earliest of the next arrival,
    /// the next hourly tick and the profile head, ties in that order
    /// (arrivals, ticks, completions), which is the reference queue's
    /// `(time, seq)` order. `None` once all three streams are spent.
    fn next_event(&mut self) -> Option<(SimTime, Event)> {
        let arrival = self
            .trace
            .get(self.next_arrival)
            .map_or(NEVER, |j| j.submit);
        // Tick `h + 1` ends hour `h`, and the tick handler advances the
        // hour cursor, so the cursor counts the ticks popped.
        let tick = if self.hour_cursor < self.hours {
            SimTime::from_hours(self.hour_cursor as u64 + 1)
        } else {
            NEVER
        };
        let head = self.completions_head;
        let completion = self.completions.get(head).map_or(NEVER, |c| c.0);
        if arrival <= tick && arrival <= completion {
            if arrival == NEVER {
                return None;
            }
            let idx = self.next_arrival as u32;
            self.next_arrival += 1;
            Some((arrival, Event::Arrival(idx)))
        } else if tick <= completion {
            Some((tick, Event::Tick))
        } else {
            Some((completion, Event::Completion(self.completion_ids[head])))
        }
    }

    /// Refresh `forecast_green` for the top of `hour_cursor`. Only a
    /// policy that reads the forecast ([`PolicyKind::reads_forecast`])
    /// gets one: for every other policy it stays empty, on both engines.
    ///
    /// [`PolicyKind::reads_forecast`]: greener_sched::PolicyKind::reads_forecast
    fn refresh_forecast(&mut self) {
        if !self.scenario.policy.reads_forecast() {
            return;
        }
        forecast_at(
            self.scenario,
            self.grid,
            self.hour_cursor,
            self.hours,
            &mut self.forecast_model,
            &mut self.forecast_green,
        );
    }

    /// Build the dispatch signals, run the policy and apply its decisions.
    fn dispatch(&mut self, now: SimTime) {
        if self.waiting.is_empty() || self.cluster.free_gpus() == 0 {
            return;
        }
        self.counts.bump(ProfileCounter::DispatchCalls, 1);
        let h = self.hour_cursor.min(self.hours - 1);
        let signals = build_signals(
            self.grid,
            self.weather,
            h,
            &self.forecast_green,
            &self.completions[self.completions_head..],
            now,
        );
        self.decisions.clear();
        self.policy
            .dispatch(&self.waiting, &self.cluster, &signals, &mut self.decisions);
        debug_assert!(
            greener_sched::policy::validate_decisions(
                &self.decisions,
                &self.waiting,
                &self.cluster
            )
            .is_ok(),
            "policy produced invalid decisions"
        );
        // Apply decisions in policy order (allocation order determines node
        // packing, so this must match the decision sequence exactly). The
        // fit-indexed queue removes each started job by id in O(1) — no
        // position scan, no compaction pass.
        let mut applied = 0u64;
        for di in 0..self.decisions.len() {
            let d = self.decisions[di];
            // Jobs are plain `Copy` data: no heap traffic here.
            let Some(q) = self.waiting.get(d.job_id).copied() else {
                continue;
            };
            if self.try_start(&q.job, d, now) {
                self.waiting.remove(d.job_id);
                applied += 1;
            }
            // On allocation failure (cannot happen for validated decisions)
            // the job simply stays queued at its position.
        }
        self.counts.bump(ProfileCounter::Decisions, applied);
    }

    /// The lone-arrival fast path (default engine only): resolve a job
    /// arriving with free capacity through [`SchedPolicy::lone_dispatch`],
    /// skipping the fit-indexed queue round-trip (push, full dispatch,
    /// remove by id), when the waiting queue is empty or the policy holds
    /// it ([`SchedPolicy::holds_queue`]). Returns `false` if the queue is
    /// not held or the policy declined ([`LoneDispatch::Unsupported`]) —
    /// the caller then runs the reference path.
    ///
    /// The observation stream is kept identical to the reference path:
    /// `Submitted` is emitted with the queue depth the reference sees right
    /// after its push (`waiting.len() + 1`) before any `Started`, and
    /// `try_start` is the shared start bookkeeping, so a fast start
    /// performs the exact f64 operations of a reference start.
    ///
    /// Caller-checked preconditions: the default engine and `job.gpus <=
    /// cluster.free_gpus()`. Together with an empty or held queue, that is
    /// the setting `lone_dispatch` is specified under.
    ///
    /// [`SchedPolicy::holds_queue`]: greener_sched::SchedPolicy::holds_queue
    fn lone_arrival(&mut self, job: Job, now: SimTime) -> bool {
        debug_assert!(job.gpus <= self.cluster.free_gpus());
        let h = self.hour_cursor.min(self.hours - 1);
        let signals = build_signals(
            self.grid,
            self.weather,
            h,
            &self.forecast_green,
            &self.completions[self.completions_head..],
            now,
        );
        if !self.waiting.is_empty() && !self.policy.holds_queue(&self.waiting, &signals) {
            return false;
        }
        let q = QueuedJob { job, enqueued: now };
        let lone = self.policy.lone_dispatch(&q, &self.cluster, &signals);
        let submitted = JobPoint::Submitted {
            job,
            time: now,
            queue_len: self.waiting.len() as u32 + 1,
        };
        match lone {
            LoneDispatch::Start { power_cap_w } => {
                self.probes.observe(&submitted);
                let started = self.try_start(
                    &job,
                    Decision {
                        job_id: job.id,
                        power_cap_w,
                    },
                    now,
                );
                self.counts.bump(ProfileCounter::FastDispatches, 1);
                self.counts.bump(ProfileCounter::Decisions, 1);
                debug_assert!(started, "a fitting lone job must allocate");
                if !started {
                    // Defensive fallback (unreachable for a fitting gang):
                    // leave the job queued, exactly like a failed reference
                    // decision would.
                    self.waiting.push(q);
                }
                true
            }
            LoneDispatch::Hold => {
                // The policy holds the job. Queue it; the reference path's
                // follow-up dispatch provably emits no decision (that is
                // `Hold`'s contract, extended past the held queue by
                // `holds_queue`'s), so skipping it is decision-invisible.
                self.waiting.push(q);
                self.probes.observe(&submitted);
                self.counts.bump(ProfileCounter::FastDispatches, 1);
                true
            }
            LoneDispatch::Unsupported => false,
        }
    }

    /// Allocate and schedule one decided job. Returns false if the cluster
    /// rejects the allocation.
    fn try_start(&mut self, job: &Job, d: Decision, now: SimTime) -> bool {
        let util = kind_utilization(job.kind);
        // One borrow of the GPU model for the whole derivation. Speed and
        // power are pure functions of `(cap, util)`, so computing them
        // before the allocation (instead of between allocate and schedule)
        // yields the same bits; `clamp_cap` is idempotent, so allocate's
        // internal re-clamp leaves the pre-clamped cap unchanged.
        let gpu = &self.cluster.spec().gpu;
        let cap = gpu.clamp_cap(d.power_cap_w);
        let speed = gpu.speed_at_cap(cap);
        let gpu_power = gpu.power_at(cap, util).value();
        if self.cluster.allocate(job.id, job.gpus, cap, util).is_err() {
            return false;
        }
        let duration = job.duration_at_speed(speed);
        let finish = now + duration;
        let energy = Energy(gpu_power * job.gpus as f64 * duration.secs_f64());
        // Keep the completion profile sorted: binary-search the insertion
        // point (ties insert after equals, so they stay in start order).
        let head = self.completions_head;
        let pos = head + self.completions[head..].partition_point(|&(t, _)| t <= finish);
        self.completions.insert(pos, (finish, job.gpus));
        self.completion_ids.insert(pos, job.id);
        let idx = job.id.0 as usize;
        if self.reference {
            self.queue.schedule(finish, Event::Completion(job.id));
            debug_assert!(self.running[idx].is_none(), "job started twice");
            self.running[idx] = Some(JobRecord {
                id: job.id,
                user: job.user,
                kind: job.kind,
                gpus: job.gpus,
                work_gpu_hours: job.work_gpu_hours,
                submit: job.submit,
                start: now,
                finish,
                power_cap_w: cap,
                energy,
            });
        } else {
            self.cold_start[idx] = now;
            self.cold_cap_w[idx] = cap;
            self.cold_energy_j[idx] = energy.value();
            self.counts.bump(ProfileCounter::FastApplyEvents, 1);
        }
        self.running_count += 1;
        self.probes.observe(&JobPoint::Started {
            id: job.id,
            time: now,
        });
        true
    }

    /// Retire a completed job, the profile head, from the slab and the
    /// completion profile.
    fn finish_job(&mut self, id: JobId) {
        let idx = id.0 as usize;
        // Completions pop in `(finish, start order)`, the profile's own
        // order, so the finishing job is the head.
        let head = self.completions_head;
        debug_assert_eq!(
            self.completion_ids[head], id,
            "a completion retires the profile head"
        );
        let record = if self.reference {
            self.running[idx]
                .take()
                .expect("completion of a job that is not running")
        } else {
            // Reconstruct the record from the trace row, the profile
            // head's finish time and the cold columns: the exact values
            // the reference slab stores at start, reloaded verbatim, so
            // the record stream is bit-identical across engines.
            let finish = self.completions[head].0;
            let job = &self.trace[idx];
            debug_assert_eq!(job.id, id, "trace ids are dense submit-order indices");
            let record = JobRecord {
                id,
                user: job.user,
                kind: job.kind,
                gpus: job.gpus,
                work_gpu_hours: job.work_gpu_hours,
                submit: job.submit,
                start: self.cold_start[idx],
                finish,
                power_cap_w: self.cold_cap_w[idx],
                energy: Energy(self.cold_energy_j[idx]),
            };
            self.counts.bump(ProfileCounter::FastApplyEvents, 1);
            record
        };
        self.running_count -= 1;
        self.cluster.release(id);
        self.completions_head = head + 1;
        // Compact the dead prefix once it outweighs the live entries, so
        // the buffer stays bounded by the concurrency level (amortized
        // O(1) per retirement).
        if self.completions_head >= 64 && self.completions_head * 2 >= self.completions.len() {
            self.completions.drain(..self.completions_head);
            self.completion_ids.drain(..self.completions_head);
            self.completions_head = 0;
        }
        self.probes.observe(&JobPoint::Finished(record));
    }
}

/// The generated world a run replays: everything that is a pure function
/// of `(scenario, seed)` and independent of the scheduling policy.
///
/// Splitting the world from the replay lets benchmarks time the two halves
/// separately, lets paired experiments share one world across policy
/// variants, and gives world generation its own fork/join schedule: the
/// weather channel passes fork against trace-shard synthesis (the two
/// consume disjoint stream families), with grid generation pipelined behind
/// weather on the same side of the fork (it reads the weather path, but its
/// own `grid.*` streams are untouched by the other side). The fork runs on
/// rayon's pool, and every thread count — one worker is the sequential
/// reference — builds a bit-identical world; the driver's tests pin this
/// field by field at 1 and 4 threads.
pub struct World {
    /// Root seed the world was generated from (checked against the
    /// scenario on replay).
    pub seed: u64,
    /// Cluster size the trace's gang sizes were capped at (checked against
    /// the scenario on replay — the cap is baked into the trace).
    pub gpu_cap: u32,
    /// Hourly weather path.
    pub weather: WeatherPath,
    /// Hourly grid path (consumes the weather path).
    pub grid: GridPath,
    /// The job trace, dense ids in submit order, gang sizes capped at the
    /// machine size.
    pub trace: Vec<Job>,
}

impl World {
    /// Generate the world for a scenario.
    ///
    /// The fork's two sides consume disjoint stream families
    /// (`climate.*`/`grid.*` vs `users.*` and the indexed `trace.*`
    /// shards), and each side reads only its own spec
    /// ([`EnvSpec`], [`TraceSpec`]), so the environment and the trace can
    /// also be built separately — in any order, even from different hubs
    /// seeded alike — and reproduce exactly the pieces built here. The
    /// fleet layer ([`crate::fleet`]) leans on that (one shared trace from
    /// the base scenario, one environment per site), and so does the
    /// campaign world cache (one environment per seed, shared by every
    /// trace variant of that seed).
    pub fn build(scenario: &Scenario) -> World {
        let (env, spec) = (scenario.env_spec(), scenario.trace_spec());
        let ((weather, grid), trace) = greener_simkit::par::join(|| env.build(), || spec.build());
        World::from_parts(spec.seed, spec.gpu_cap, weather, grid, trace)
    }

    /// Assemble a world from parts already in hand: the root seed and GPU
    /// cap it was generated for, its environment and its trace (dense ids
    /// in submit order, gang sizes at most `gpu_cap`). Replay checks the
    /// seed, the horizon, the cap and the trace order against the
    /// scenario; the rest is the caller's word.
    pub fn from_parts(
        seed: u64,
        gpu_cap: u32,
        weather: WeatherPath,
        grid: GridPath,
        trace: Vec<Job>,
    ) -> World {
        World {
            seed,
            gpu_cap,
            weather,
            grid,
            trace,
        }
    }

    /// Borrow this world as the view the engine replays.
    pub(crate) fn view(&self) -> WorldRef<'_> {
        WorldRef {
            seed: self.seed,
            gpu_cap: self.gpu_cap,
            weather: &self.weather,
            grid: &self.grid,
            trace: &self.trace,
        }
    }

    /// Generate only the scenario's environment: [`EnvSpec::build`] of
    /// [`Scenario::env_spec`].
    pub fn environment(scenario: &Scenario) -> (WeatherPath, GridPath) {
        scenario.env_spec().build()
    }

    /// Generate only the scenario's job trace: [`TraceSpec::build`] of
    /// [`Scenario::trace_spec`].
    pub fn build_trace(scenario: &Scenario) -> Vec<Job> {
        scenario.trace_spec().build()
    }
}

/// A borrowed world: what the engine replays. [`World::view`] lends one
/// over an owned world; a fleet site lends one over its environment and
/// its routed sub-trace, and the campaign world cache over a shared
/// environment and its own trace, so neither copies an environment to
/// replay it. Replay checks it against the scenario exactly as it checks
/// a [`World`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorldRef<'w> {
    /// Root seed the world was generated from.
    pub(crate) seed: u64,
    /// Cluster size the trace's gang sizes were capped at.
    pub(crate) gpu_cap: u32,
    /// Hourly weather path.
    pub(crate) weather: &'w WeatherPath,
    /// Hourly grid path.
    pub(crate) grid: &'w GridPath,
    /// The job trace, dense ids in submit order.
    pub(crate) trace: &'w [Job],
}

/// Everything the environment half of a world is a function of: the
/// weather path and the grid path that consumes it. Built by
/// [`EnvSpec::build`], which reads nothing else, so two scenarios with
/// equal environment specs share a bit-identical environment whatever
/// their trace, cluster or policy.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvSpec {
    /// Root seed.
    pub seed: u64,
    /// Civil date of simulation hour 0.
    pub start: CalDate,
    /// Horizon in whole hours.
    pub horizon_hours: usize,
    /// Weather model.
    pub weather: WeatherConfig,
    /// Grid model.
    pub grid: GridConfig,
}

impl EnvSpec {
    /// Generate the hourly weather path and the grid path that consumes
    /// it. Draws exactly the `climate.*`/`grid.*` streams [`World::build`]
    /// draws on its environment side, so the result is bit-identical to
    /// the corresponding fields of a full build.
    pub fn build(&self) -> (WeatherPath, GridPath) {
        let hub = greener_simkit::rng::RngHub::new(self.seed);
        let calendar = Calendar::new(self.start);
        let weather = WeatherPath::generate(&self.weather, calendar, self.horizon_hours, &hub);
        let grid = GridPath::generate(&self.grid, &weather, &hub);
        (weather, grid)
    }
}

/// Everything the trace half of a world is a function of. The deadline
/// policy reshapes the calendar the generator samples, and gang sizes are
/// capped at the cluster's GPU count, so both belong here; the cluster
/// shape beyond that count does not. Built by [`TraceSpec::build`], which
/// reads nothing else.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Root seed.
    pub seed: u64,
    /// Civil date of simulation hour 0.
    pub start: CalDate,
    /// Horizon in whole hours.
    pub horizon_hours: usize,
    /// Workload trace configuration.
    pub trace: TraceConfig,
    /// Deadline-restructuring policy applied to the Table I calendar.
    pub deadline_policy: DeadlinePolicy,
    /// Cluster size gang sizes are capped at, GPUs.
    pub gpu_cap: u32,
}

impl TraceSpec {
    /// The Table I calendar after applying the deadline policy.
    pub fn calendar(&self) -> ConferenceCalendar {
        self.deadline_policy.apply(&ConferenceCalendar::table_i())
    }

    /// Generate the job trace: dense ids in submit order, gang sizes
    /// capped at the machine size. Draws exactly the `users.*` and indexed
    /// `trace.*` streams [`World::build`] draws on its trace side, so the
    /// result is bit-identical to the trace of a full build.
    pub fn build(&self) -> Vec<Job> {
        let hub = greener_simkit::rng::RngHub::new(self.seed);
        let calendar = Calendar::new(self.start);
        // The trace generator construction samples the user population
        // (stream `users.population`) before generation proper.
        let conferences = self.calendar();
        let mut trace_cfg = self.trace.clone();
        trace_cfg.demand.rolling = self.deadline_policy.is_rolling();
        let generator = TraceGenerator::new(trace_cfg, &conferences, calendar, &hub);
        generator
            .generate(self.horizon_hours, &hub)
            .into_iter()
            .map(|mut j| {
                // Cap gang sizes at the machine size so every job is
                // feasible.
                j.gpus = j.gpus.min(self.gpu_cap);
                j
            })
            .collect()
    }
}

/// The simulation driver.
pub struct SimDriver;

impl SimDriver {
    /// Generate the scenario's world and replay it to completion.
    pub fn run(scenario: &Scenario) -> RunResult {
        let world = World::build(scenario);
        Self::run_with_world(scenario, &world)
    }

    /// Replay a pre-built world through the scenario's policy, recording
    /// everything [`RunResult`] holds: [`SimDriver::run_observed`] with
    /// telemetry, ledger and job records on. The world must have been
    /// built for this scenario (same seed, horizon and cluster);
    /// benchmarks use this to time replay separately from world
    /// generation, and experiments can share one world across paired
    /// policy variants.
    pub fn run_with_world(scenario: &Scenario, world: &World) -> RunResult {
        let observe = Observe::aggregates()
            .with_telemetry()
            .with_ledger()
            .with_job_records();
        let out = Self::run_observed(scenario, world, observe);
        RunResult {
            scenario_name: out.scenario_name,
            telemetry: out.telemetry.expect("telemetry observed"),
            ledger: out.ledger.expect("ledger observed"),
            jobs: out.jobs,
            job_records: out.job_records.expect("job records observed"),
            battery_cycles: out.battery_cycles,
        }
    }

    /// Replay a pre-built world, recording only what `observe` asks for.
    ///
    /// This is the declarative entry point behind every sweep: aggregate
    /// totals and [`JobStats`] are always produced, optional outputs
    /// mirror the [`Observe`] flags, and the all-off spec
    /// ([`Observe::aggregates`]) monomorphizes to a replay loop with no
    /// per-frame vector growth and no job-record retention. Probes are
    /// decision-invisible, so every spec observes bit-identical numbers
    /// (the golden determinism test and a property test pin this).
    pub fn run_observed(scenario: &Scenario, world: &World, observe: Observe) -> RunOutput {
        Self::observed(scenario, world.view(), observe, false).0
    }

    /// Replay a pre-built world on the **reference engine**: the
    /// binary-heap event queue, every arrival through the waiting queue
    /// and the full policy dispatch (no lone-arrival fast path), and the
    /// array-of-structs running-job slab. Its results *are* the
    /// semantics: the default engine behind [`SimDriver::run_observed`]
    /// must reproduce them bit for bit, per-job decision records
    /// included, which [`crate::equivalence::assert_matches_reference`]
    /// checks. Slower, and meant for tests and benchmarks only.
    pub fn run_reference(scenario: &Scenario, world: &World, observe: Observe) -> RunOutput {
        Self::observed(scenario, world.view(), observe, true).0
    }

    /// Replay a pre-built world like [`SimDriver::run_observed`], and also
    /// return the replay's loop counters: events, dispatches, decisions,
    /// fast-path hits and backfill visits (see [`crate::profile`]). Every
    /// replay keeps these counts, so this is the same replay at the same
    /// speed; it only hands them back. They do not depend on `observe`.
    pub fn run_profiled(
        scenario: &Scenario,
        world: &World,
        observe: Observe,
    ) -> (RunOutput, ReplayProfile) {
        Self::observed(scenario, world.view(), observe, false)
    }

    /// Replay a pre-built world on the default engine, observing only
    /// aggregates, and stop before the report-time step: the returned
    /// [`AggregatesReplay`] applies an SLO threshold in
    /// [`AggregatesReplay::finish`]. `run_observed(.., Observe::aggregates())`
    /// is this replay plus that step, so the two agree bit for bit. A
    /// campaign replays [`Scenario::replay_inputs`] once and finishes it
    /// under every cell's threshold.
    pub fn replay_aggregates(scenario: &Scenario, world: &World) -> AggregatesReplay {
        Self::aggregates_of(scenario, world.view())
    }

    /// [`SimDriver::replay_aggregates`] over a borrowed world.
    pub(crate) fn aggregates_of(scenario: &Scenario, world: WorldRef<'_>) -> AggregatesReplay {
        Self::check_world(scenario, world);
        Self::aggregates_only(scenario, world, false).0
    }

    /// Check that `scenario` can be replayed and that `world` was
    /// generated for it. A few integer comparisons and one pass over the
    /// trace per run, so release builds check too: a zero horizon would
    /// index an empty forecast, a zero-GPU cluster would run to the end
    /// completing nothing, a mismatched world would silently report
    /// numbers for the wrong one, and a trace out of submit order would
    /// run the default engine's clock backwards.
    fn check_world(scenario: &Scenario, world: WorldRef<'_>) {
        assert!(scenario.horizon_hours > 0, "scenario horizon is zero hours");
        assert!(
            scenario.cluster.total_gpus() > 0,
            "scenario cluster has no GPUs"
        );
        assert_eq!(
            world.seed, scenario.seed,
            "world was built from a different seed than the scenario replays"
        );
        assert_eq!(
            world.weather.hours(),
            scenario.horizon_hours,
            "world horizon does not match the scenario"
        );
        assert_eq!(
            world.gpu_cap,
            scenario.cluster.total_gpus(),
            "world trace was gang-capped for a different cluster size"
        );
        // The default engine reads arrivals off the trace in place.
        assert!(
            world.trace.windows(2).all(|w| w[0].submit <= w[1].submit),
            "world trace is not in submit order"
        );
    }

    /// Every public replay entry point but [`SimDriver::replay_aggregates`]
    /// comes through here, and so does every fleet site: check the world,
    /// then dispatch `observe` to a statically-composed probe set.
    /// `reference` picks the reference engine's queue, dispatch and apply
    /// paths in `SimDriver::replay`.
    pub(crate) fn observed(
        scenario: &Scenario,
        world: WorldRef<'_>,
        observe: Observe,
        reference: bool,
    ) -> (RunOutput, ReplayProfile) {
        Self::check_world(scenario, world);
        if observe == Observe::aggregates() {
            let (replay, counts) = Self::aggregates_only(scenario, world, reference);
            return (
                RunOutput {
                    scenario_name: scenario.name.clone(),
                    aggregates: replay.aggregates,
                    jobs: replay.finish(scenario.slo_wait_hours),
                    battery_cycles: replay.battery_cycles,
                    telemetry: None,
                    ledger: None,
                    job_records: None,
                    queue_depth: None,
                },
                counts,
            );
        }
        let calendar = Calendar::new(scenario.start);
        let jobs_probe = if observe.job_records {
            JobsProbe::with_records(world.trace.len())
        } else {
            JobsProbe::stats_only()
        };
        let probes = (
            (AggregatesProbe::new(), jobs_probe),
            (
                (
                    observe
                        .telemetry
                        .then(|| TelemetryProbe::with_capacity(calendar, scenario.horizon_hours)),
                    observe.ledger.then(LedgerProbe::new),
                ),
                observe.queue_depth.then(QueueDepthProbe::new),
            ),
        );
        let outcome = Self::replay(scenario, world, probes, reference);
        let ((agg, jobs_probe), ((telemetry, ledger), queue_depth)) = outcome.probes;
        let (jobs, records) = jobs_probe.finish(
            outcome.submitted,
            outcome.unfinished,
            scenario.slo_wait_hours,
        );
        (
            RunOutput {
                scenario_name: scenario.name.clone(),
                aggregates: agg.into_aggregates(),
                jobs,
                battery_cycles: outcome.battery_cycles,
                telemetry: telemetry.map(TelemetryProbe::into_log),
                ledger: ledger.map(LedgerProbe::into_ledger),
                job_records: records,
                queue_depth: queue_depth.map(QueueDepthProbe::into_stats),
            },
            outcome.counts,
        )
    }

    /// The aggregates-only replay, with its loop counters. The fast path
    /// gets its own monomorphization: no `Option` probes, nothing retained
    /// per frame, one wait and one slowdown sample per job.
    fn aggregates_only(
        scenario: &Scenario,
        world: WorldRef<'_>,
        reference: bool,
    ) -> (AggregatesReplay, ReplayProfile) {
        let probes = (AggregatesProbe::new(), JobsProbe::stats_only());
        let outcome = Self::replay(scenario, world, probes, reference);
        let (aggregates, jobs) = outcome.probes;
        let replay = AggregatesReplay {
            aggregates: aggregates.into_aggregates(),
            jobs,
            submitted: outcome.submitted,
            unfinished: outcome.unfinished,
            battery_cycles: outcome.battery_cycles,
        };
        (replay, outcome.counts)
    }

    /// The event loop, generic over the probe set. `reference` replaces
    /// the three-stream merge with the event queue, turns off the
    /// lone-arrival fast path and keeps running jobs in the
    /// array-of-structs slab.
    fn replay<O: RunProbes>(
        scenario: &Scenario,
        world: WorldRef<'_>,
        probes: O,
        reference: bool,
    ) -> ReplayOutcome<O> {
        let hours = scenario.horizon_hours;
        let WorldRef {
            weather,
            grid,
            trace,
            ..
        } = world;

        let mut strategy = scenario.strategy.build();

        // The reference engine's event queue: all arrivals (in submit
        // order), then all hourly ticks (ascending), up front. Completions
        // are scheduled as jobs start; since a completion only exists after
        // its arrival popped, the queue never holds more than this
        // capacity. The default engine reads the same three streams in
        // place (`Engine::next_event`).
        let mut queue = EventQueue::new();
        if reference {
            queue = EventQueue::with_capacity(trace.len() + hours + 8);
            for (i, job) in trace.iter().enumerate() {
                queue.schedule(job.submit, Event::Arrival(i as u32));
            }
            for h in 1..=hours {
                queue.schedule(SimTime::from_hours(h as u64), Event::Tick);
            }
        }

        let mut cluster = Cluster::new(scenario.cluster.clone());
        cluster.reserve_jobs(trace.len());
        // At most `total_gpus` jobs run concurrently (every gang is ≥1 GPU),
        // which bounds the completion profile.
        let max_concurrent = cluster.total_gpus() as usize + 1;
        // Only the slab variant the engine uses is materialized.
        let mut running = Vec::new();
        let mut cold_start = Vec::new();
        let mut cold_cap_w = Vec::new();
        let mut cold_energy_j = Vec::new();
        if reference {
            running.resize_with(trace.len(), || None);
        } else {
            cold_start = vec![SimTime::ZERO; trace.len()];
            cold_cap_w = vec![0.0; trace.len()];
            cold_energy_j = vec![0.0; trace.len()];
        }
        let mut engine = Engine {
            scenario,
            grid,
            weather,
            hours,
            policy: scenario.policy.build(),
            cluster,
            reference,
            queue,
            next_arrival: 0,
            waiting: WaitQueue::new(),
            running,
            cold_start,
            cold_cap_w,
            cold_energy_j,
            trace,
            running_count: 0,
            completions: Vec::with_capacity(max_concurrent),
            completion_ids: Vec::with_capacity(max_concurrent),
            completions_head: 0,
            probes,
            decisions: Vec::with_capacity(64),
            forecast_green: Vec::with_capacity(FORECAST_HORIZON),
            forecast_model: match scenario.forecast {
                ForecastMode::Model(kind) if scenario.policy.reads_forecast() => {
                    Some(kind.build(FORECAST_PERIOD))
                }
                _ => None,
            },
            counts: ReplayProfile::default(),
            hour_cursor: 0,
        };
        engine.refresh_forecast();

        // Piecewise-constant IT power integration.
        let mut last_t = SimTime::ZERO;
        let mut acc_it_j = 0.0f64;

        loop {
            let next = if reference {
                engine.queue.pop()
            } else {
                engine.next_event()
            };
            let Some((t, ev)) = next else {
                break;
            };
            debug_assert!(t >= last_t, "event clock went backwards");
            engine.counts.bump(ProfileCounter::Events, 1);
            // Integrate IT power since the last event.
            let dt = (t - last_t).secs_f64();
            if dt > 0.0 {
                acc_it_j += engine.cluster.it_power().value() * dt;
                last_t = t;
            }

            match ev {
                Event::Arrival(idx) => {
                    engine.counts.bump(ProfileCounter::Arrivals, 1);
                    let job = trace[idx as usize];
                    // Lone-arrival fast path: an arrival with free
                    // capacity to an empty or held queue resolves without
                    // the fit-indexed queue round-trip (see
                    // `Engine::lone_arrival`). Any other arrival — any
                    // arrival on the reference engine, and any policy that
                    // opts out — takes the full path below.
                    let resolved = !reference
                        && job.gpus <= engine.cluster.free_gpus()
                        && engine.lone_arrival(job, t);
                    if !resolved {
                        engine.waiting.push(QueuedJob { job, enqueued: t });
                        let submitted = JobPoint::Submitted {
                            job,
                            time: t,
                            queue_len: engine.waiting.len() as u32,
                        };
                        engine.probes.observe(&submitted);
                        engine.dispatch(t);
                    }
                }
                Event::Completion(id) => {
                    engine.counts.bump(ProfileCounter::Completions, 1);
                    engine.finish_job(id);
                    engine.dispatch(t);
                }
                Event::Tick => {
                    engine.counts.bump(ProfileCounter::Ticks, 1);
                    // Finalize the hour that just ended. The cooling plant
                    // is evaluated once for the hour's temperature; COP,
                    // water and saturation all read that one point.
                    let h = engine.hour_cursor;
                    let it_energy = Energy(acc_it_j);
                    acc_it_j = 0.0;
                    let temp = Fahrenheit(weather.temp_f[h]);
                    let cooling = scenario.cooling.at(temp);
                    let cooling_j = it_energy.value() / cooling.cop
                        + scenario.cooling.fan_power_w * HOUR as f64;
                    let cooling_energy = Energy(cooling_j);
                    let facility = it_energy + cooling_energy;

                    // Settlement runs exactly once per hourly tick — the
                    // hour's energy is already batched by the
                    // piecewise-constant integration above, so there is one
                    // strategy call and one purchase point per hour.
                    let settle = strategy.settle_hour(facility, grid.green_share[h]);
                    let purchased = settle.purchased;
                    let rec = PurchaseRecord {
                        hour: h as u64,
                        energy: purchased,
                        lmp_usd_mwh: grid.lmp_usd_mwh[h],
                        ci_kg_mwh: grid.ci_kg_mwh[h],
                        green_share: grid.green_share[h],
                    };
                    engine.probes.observe(&PurchasePoint {
                        record: rec,
                        settle,
                    });

                    // The hourly frame context: plain scalars the loop has
                    // in hand anyway. What gets *retained* about the hour
                    // (frames, ledger rows, aggregate sums) is entirely up
                    // to the attached probes.
                    let hour_obs = HourObservation {
                        hour: h as u64,
                        temp_f: temp.value(),
                        it_energy,
                        cooling_energy,
                        purchased,
                        green_share: grid.green_share[h],
                        lmp_usd_mwh: grid.lmp_usd_mwh[h],
                        ci_kg_mwh: grid.ci_kg_mwh[h],
                        carbon_kg: rec.carbon().value(),
                        cost_usd: rec.cost().value(),
                        water_l: cooling.water_use(it_energy).value(),
                        queue_len: engine.waiting.len() as u32,
                        running_gpus: engine.cluster.running_gpus(),
                        gpu_utilization: engine.cluster.gpu_utilization(),
                        cooling_saturated: cooling.saturated,
                    };
                    engine.probes.observe(&hour_obs);

                    engine.hour_cursor += 1;
                    if engine.hour_cursor < hours {
                        // Refresh forecasts once per hour.
                        engine.refresh_forecast();
                        engine.dispatch(t);
                    }
                }
            }
        }
        engine.counts.bump(
            ProfileCounter::BackfillVisits,
            engine.policy.backfill_visits(),
        );

        // Debug stats: a correct driver never schedules into the past (only
        // the reference engine schedules at all). Debug builds panic inside
        // `schedule` at the offending call site;
        // release builds clamp-and-count instead, so the silent FIFO-order
        // hazard surfaces here rather than vanishing.
        let clamped = engine.queue.clamped();
        debug_assert_eq!(clamped, 0, "driver scheduled events in the past");
        if clamped > 0 {
            eprintln!(
                "[driver] WARNING: {clamped} event(s) scheduled in the past were \
                 clamped to `now` (scenario {:?}); FIFO order may be perturbed",
                scenario.name
            );
        }

        ReplayOutcome {
            probes: engine.probes,
            counts: engine.counts,
            submitted: trace.len(),
            unfinished: engine.waiting.len() + engine.running_count,
            battery_cycles: strategy.equivalent_cycles(),
        }
    }
}

/// The environment snapshot policies dispatch against at hour `h` — the
/// **single** construction site for both the full dispatch and the
/// lone-arrival fast path, so the two paths can never feed a policy
/// different signals (free function over the engine's disjoint fields,
/// because a `&self` method would lock the policy's `&mut` borrow).
fn build_signals<'a>(
    grid: &'a GridPath,
    weather: &'a WeatherPath,
    h: usize,
    forecast_green: &'a [f64],
    completions: &'a [(SimTime, u32)],
    now: SimTime,
) -> SchedSignals<'a> {
    SchedSignals {
        now,
        green_share: grid.green_share[h],
        temp_f: weather.temp_f[h],
        forecast_green,
        running_completions: completions,
    }
}

/// Write the forecast the carbon-aware policy sees at the top of hour `h`
/// into `out` (cleared first).
///
/// `Model` mode guards against degenerate short histories: below one
/// seasonal period of observations a seasonal/AR fit is meaningless (the
/// old code fit Holt-Winters on a 1-element slice at `h = 0`), so it falls
/// back to naive persistence of the current hour's green share.
fn forecast_at(
    scenario: &Scenario,
    grid: &GridPath,
    h: usize,
    hours: usize,
    model: &mut Option<Box<dyn Forecaster + Send>>,
    out: &mut Vec<f64>,
) {
    out.clear();
    match scenario.forecast {
        ForecastMode::Oracle => {
            out.extend((1..=FORECAST_HORIZON).map(|k| {
                let idx = (h + k).min(hours - 1);
                grid.green_share[idx]
            }));
        }
        ForecastMode::Naive => {
            out.resize(FORECAST_HORIZON, grid.green_share[h.min(hours - 1)]);
        }
        ForecastMode::Model(_) => {
            let lookback = 14 * 24;
            let lo = h.saturating_sub(lookback);
            let history = &grid.green_share[lo..h.max(1)];
            if history.len() < FORECAST_PERIOD {
                // Degenerate history: naive persistence.
                out.resize(FORECAST_HORIZON, grid.green_share[h.min(hours - 1)]);
                return;
            }
            let model = model
                .as_mut()
                .expect("Model mode keeps a persistent forecaster");
            model.fit(history);
            model.forecast_into(FORECAST_HORIZON, out);
            for v in out.iter_mut() {
                *v = v.clamp(0.0, 1.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use greener_sched::PolicyKind;

    fn quick_run(days: usize, seed: u64) -> RunResult {
        SimDriver::run(&Scenario::quick(days, seed))
    }

    #[test]
    fn runs_and_produces_hourly_frames() {
        let r = quick_run(7, 1);
        assert_eq!(r.telemetry.len(), 7 * 24);
        assert_eq!(r.ledger.len(), 7 * 24);
        assert!(r.jobs.submitted > 0);
        assert!(r.jobs.completed > 0);
        assert!(r.telemetry.total_energy_kwh() > 0.0);
        assert!(r.telemetry.total_carbon_kg() > 0.0);
        assert!(r.telemetry.total_cost_usd() > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick_run(5, 3);
        let b = quick_run(5, 3);
        assert_eq!(
            a.telemetry.total_energy_kwh(),
            b.telemetry.total_energy_kwh()
        );
        assert_eq!(a.jobs.completed, b.jobs.completed);
        assert_eq!(a.job_records, b.job_records);
        let c = quick_run(5, 4);
        assert_ne!(a.jobs.completed, c.jobs.completed);
    }

    #[test]
    fn job_accounting_consistent() {
        let r = quick_run(10, 5);
        assert_eq!(
            r.jobs.submitted,
            r.jobs.completed + r.jobs.unfinished,
            "every job is completed or unfinished"
        );
        for rec in &r.job_records {
            assert!(rec.start >= rec.submit, "start before submit");
            assert!(rec.finish > rec.start, "finish before start");
            assert!(rec.energy.value() > 0.0);
        }
    }

    #[test]
    fn job_energy_below_it_energy() {
        let r = quick_run(10, 6);
        let job_kwh: f64 = r.job_records.iter().map(|j| j.energy.kwh()).sum();
        let it_kwh: f64 = r
            .telemetry
            .frames()
            .iter()
            .map(|f| f.it_power_w / 1_000.0)
            .sum();
        // GPU-attributed energy is a subset of IT energy (host overhead,
        // idle GPUs, fixed infra make up the rest).
        assert!(
            job_kwh < it_kwh,
            "job energy {job_kwh:.1} must be below IT {it_kwh:.1}"
        );
        assert!(job_kwh > 0.0);
    }

    #[test]
    fn purchased_energy_equals_it_plus_cooling_without_battery() {
        let r = quick_run(5, 7);
        let purchased = r.telemetry.total_energy_kwh();
        let it_plus_cool: f64 = r
            .telemetry
            .frames()
            .iter()
            .map(|f| f.total_power_w / 1_000.0)
            .sum();
        assert!(
            (purchased - it_plus_cool).abs() / it_plus_cool < 1e-9,
            "{purchased:.3} vs {it_plus_cool:.3}"
        );
    }

    #[test]
    fn static_cap_cuts_energy_but_slows_jobs() {
        let base = SimDriver::run(&Scenario::quick(14, 8));
        let capped = SimDriver::run(
            &Scenario::quick(14, 8).with_policy(PolicyKind::StaticCap { cap_w: 150.0 }),
        );
        // Same trace (same seed) → paired comparison.
        assert_eq!(base.jobs.submitted, capped.jobs.submitted);
        let base_it: f64 = base.telemetry.frames().iter().map(|f| f.it_power_w).sum();
        let cap_it: f64 = capped.telemetry.frames().iter().map(|f| f.it_power_w).sum();
        assert!(
            cap_it < base_it,
            "capping must reduce IT energy: {cap_it:.0} vs {base_it:.0}"
        );
        // Jobs run slower under the cap.
        let mean_run = |r: &RunResult| {
            let runs: Vec<f64> = r
                .job_records
                .iter()
                .map(|j| (j.finish - j.start).hours_f64() / j.work_gpu_hours * j.gpus as f64)
                .collect();
            greener_simkit::stats::mean(&runs)
        };
        assert!(mean_run(&capped) > mean_run(&base));
    }

    #[test]
    fn battery_strategy_changes_purchase_profile() {
        let plain = SimDriver::run(&Scenario::quick(21, 9));
        let stored = SimDriver::run(&Scenario::quick(21, 9).with_battery());
        assert!(stored.battery_cycles > 0.0, "battery should cycle");
        // The battery shifts purchases toward greener hours: the
        // energy-weighted green share of purchases improves.
        let g_plain = plain.ledger.energy_weighted_green_share();
        let g_stored = stored.ledger.energy_weighted_green_share();
        assert!(
            g_stored > g_plain,
            "battery should green the purchases: {g_stored:.4} vs {g_plain:.4}"
        );
    }

    /// Golden determinism regression: fixed seeds × the four policy
    /// families must produce *bit-identical* totals across refactors —
    /// on both the default and the reference engine, and through both the
    /// full probe set and the aggregates-only composition.
    ///
    /// The original constants were captured from the pre-refactor driver
    /// (HashMap running set, per-dispatch completion rebuild, owned
    /// `SchedSignals`) right after the build system was restored and
    /// survived two structural rewrites (fit-indexed `WaitQueue` +
    /// calendar-queue core; incremental `it_power()` — see PR 2's notes on
    /// why the power sum is order-independent-exact) unchanged, and the
    /// later swaps of the calendar queue for sorted runs and of sorted runs
    /// for the three-stream merge too. The table
    /// below was recaptured once, when trace synthesis moved to sharded
    /// indexed RNG streams (`trace.arrivals[s]`/`trace.attributes[s]` per
    /// 7-day block): that change replaces which stream samples which
    /// window, i.e. it is an *intentional* workload-realization change —
    /// statistically the same non-homogeneous Poisson trace, different
    /// sample path. Weather and grid generation were left bit-identical by
    /// the same refactor (their channel split preserves every draw), which
    /// the climate crate pins separately.
    ///
    /// World generation flows through `ln`/`sin`/`cos`, whose last bit is
    /// platform- and toolchain-dependent, so the f64 bit comparison only
    /// runs on the platform the constants were captured on; completion
    /// counts and cross-engine equality are asserted everywhere. CI
    /// additionally repeats this test with `RAYON_NUM_THREADS=1`, proving
    /// the bits do not depend on thread count. To re-capture after an
    /// intentional behavior change, run the ignored `print_golden_table`
    /// test below and replace the table.
    #[test]
    fn golden_determinism_across_policies_and_engines() {
        let check_bits = cfg!(all(target_arch = "x86_64", target_os = "linux"));
        let policies = [
            PolicyKind::Fcfs,
            PolicyKind::EasyBackfill,
            PolicyKind::StaticCap { cap_w: 160.0 },
            PolicyKind::CarbonAware {
                green_threshold: 0.06,
            },
        ];
        // (seed, policy index, energy kWh bits, carbon kg bits, completed)
        let golden: [(u64, usize, u64, u64, usize); 8] = [
            (11, 0, 0x40c922ccafa87f03, 0x40ad00e248abd7b3, 321),
            (11, 1, 0x40c97d43b5f9dad8, 0x40ad6494efb8a584, 321),
            (11, 2, 0x40c8e65f69aa2d43, 0x40acb5962d6ffa92, 321),
            (11, 3, 0x40c97a5e07d1aa56, 0x40ad59dbd43780bb, 321),
            (42, 0, 0x40c95cee1ab15c8c, 0x40ad525d82962835, 355),
            (42, 1, 0x40c9599519f112ba, 0x40ad4fde80368340, 355),
            (42, 2, 0x40c8dc184035554d, 0x40acbc4003a4424b, 355),
            (42, 3, 0x40c9546aff58b809, 0x40ad454aca124726, 355),
        ];
        let full = Observe::everything();
        for (seed, pi, energy_bits, carbon_bits, completed) in golden {
            let s = Scenario::quick(14, seed).with_policy(policies[pi]);
            // One world shared by both engines (the world is
            // replay-invariant).
            let world = World::build(&s);
            for reference in [false, true] {
                let run = |observe| {
                    if reference {
                        SimDriver::run_reference(&s, &world, observe)
                    } else {
                        SimDriver::run_observed(&s, &world, observe)
                    }
                };
                let cell = format!(
                    "seed {seed}, policy {:?}, reference engine {reference}",
                    policies[pi]
                );
                let r = run(full);
                let telemetry = r.telemetry.expect("telemetry observed");
                // Probe-composition axis: the aggregates-only composition
                // must observe the exact same bits as the full probe set
                // (probes are decision-invisible).
                let agg = run(Observe::aggregates());
                assert_eq!(
                    agg.aggregates.energy_kwh.to_bits(),
                    telemetry.total_energy_kwh().to_bits(),
                    "probe composition changed energy: {cell}"
                );
                assert_eq!(
                    agg.aggregates.carbon_kg.to_bits(),
                    telemetry.total_carbon_kg().to_bits(),
                    "probe composition changed carbon: {cell}"
                );
                assert_eq!(agg.jobs.completed, r.jobs.completed);
                if check_bits {
                    assert_eq!(
                        telemetry.total_energy_kwh().to_bits(),
                        energy_bits,
                        "energy drifted: {cell}"
                    );
                    assert_eq!(
                        telemetry.total_carbon_kg().to_bits(),
                        carbon_bits,
                        "carbon drifted: {cell}"
                    );
                }
                assert_eq!(r.jobs.completed, completed, "completions drifted: {cell}");
            }
        }
    }

    /// Recapture helper for the golden table above — run with
    /// `cargo test -p greener-core print_golden_table -- --ignored --nocapture`
    /// after an *intentional* behavior change and paste the output.
    #[test]
    #[ignore = "golden recapture helper, run with --ignored --nocapture"]
    fn print_golden_table() {
        let policies = [
            PolicyKind::Fcfs,
            PolicyKind::EasyBackfill,
            PolicyKind::StaticCap { cap_w: 160.0 },
            PolicyKind::CarbonAware {
                green_threshold: 0.06,
            },
        ];
        for seed in [11u64, 42] {
            for (pi, p) in policies.iter().enumerate() {
                let r = SimDriver::run(&Scenario::quick(14, seed).with_policy(*p));
                println!(
                    "            ({seed}, {pi}, {:#018x}, {:#018x}, {}),",
                    r.telemetry.total_energy_kwh().to_bits(),
                    r.telemetry.total_carbon_kg().to_bits(),
                    r.jobs.completed
                );
            }
        }
    }

    /// The default engine must agree with the reference engine on
    /// *everything*, not just totals: energy/carbon bits *and* the full
    /// per-job decision stream (same job→start assignments, start times,
    /// power caps and per-job energy), over the golden matrix — where the
    /// lone-arrival fast path engages — plus a scenario that exercises
    /// backfill against a deep queue.
    #[test]
    fn reference_engine_matches_default_on_golden_matrix() {
        let mut matrix = crate::equivalence::quick_matrix();
        matrix.push(Scenario::quick(10, 17).named("deep-queue 10d seed 17"));
        crate::equivalence::assert_matches_reference("engine", &matrix);
    }

    /// Event-time ties the generated traces are not sure to contain: a
    /// hand-built trace with three arrivals per half hour (so every other
    /// arrival instant is a tick instant) and whole- or half-hour runtimes
    /// (so jobs finish exactly on the hour, exactly at other jobs' arrival
    /// instants, and together with jobs of other gang sizes). The default
    /// engine's three-stream merge must take every such tie in the
    /// reference heap's `(time, seq)` order, and retire each of two jobs
    /// finishing together as the profile head, which the decision streams
    /// of every policy family pin.
    #[test]
    fn arrivals_ticks_and_completions_tied_in_time_match_reference() {
        use greener_workload::QueueClass;
        let base = Scenario::quick(3, 29);
        let (weather, grid) = World::environment(&base);
        let gangs = [1u32, 2, 4, 1, 8, 2];
        let trace: Vec<Job> = (0..120u64)
            .map(|i| {
                let gpus = if i % 29 == 0 {
                    32
                } else {
                    gangs[i as usize % 6]
                };
                let submit = SimTime(i / 3 * HOUR / 2);
                Job {
                    id: JobId(i),
                    user: UserId(i as u32 % 7),
                    kind: JobKind::Training,
                    gpus,
                    work_gpu_hours: gpus as f64 * 0.5 * (i % 5 + 1) as f64,
                    submit,
                    deferrable: i % 2 == 0,
                    start_deadline: (i % 2 == 0).then(|| SimTime(submit.secs() + 6 * HOUR)),
                    queue: if i % 4 == 0 {
                        QueueClass::Green
                    } else {
                        QueueClass::Standard
                    },
                }
            })
            .collect();
        let arrivals: std::collections::HashSet<SimTime> = trace.iter().map(|j| j.submit).collect();
        let world = World::from_parts(base.seed, base.cluster.total_gpus(), weather, grid, trace);

        let fcfs = SimDriver::run_observed(
            &base.clone().with_policy(PolicyKind::Fcfs),
            &world,
            Observe::aggregates().with_job_records(),
        );
        let records = fcfs.job_records.expect("records observed");
        let tied = |on_hour: bool| {
            records
                .iter()
                .any(|r| arrivals.contains(&r.finish) && (r.finish.secs() % HOUR == 0) == on_hour)
        };
        assert!(
            tied(true),
            "no job finished on a tick and an arrival instant"
        );
        assert!(tied(false), "no job finished on a mid-hour arrival instant");
        assert!(
            records.iter().any(|a| records
                .iter()
                .any(|b| a.finish == b.finish && a.gpus != b.gpus)),
            "no two jobs of different gang sizes finished at one instant"
        );

        let matrix = [
            PolicyKind::Fcfs,
            PolicyKind::Sjf,
            PolicyKind::EasyBackfill,
            PolicyKind::StaticCap { cap_w: 160.0 },
            PolicyKind::TempAware,
            PolicyKind::CarbonAware {
                green_threshold: 0.06,
            },
            PolicyKind::GreenQueues { green_cap_w: 160.0 },
            PolicyKind::CarbonAndTempAware,
        ];
        for policy in matrix {
            let s = base.clone().with_policy(policy).named(policy.label());
            crate::equivalence::assert_world_matches_reference("hand-built ties", &s, &world);
        }
    }

    /// A hold the generated traces are not sure to time exactly: a green
    /// job held through dirty hours whose slack deadline passes mid-hour,
    /// then a fitting arrival before the next tick. The reference dispatch
    /// on that arrival starts the expired green job too, so the queue is no
    /// longer held and the default engine must not take the fast path past
    /// it; earlier fitting arrivals meet a held queue and do. Hours 0–5 are
    /// dirty and later ones green, so the carbon gate holds the far-slack
    /// job over the same stretch.
    #[test]
    fn green_job_released_mid_hour_by_its_deadline_matches_reference() {
        use crate::scenario::ForecastMode;
        use greener_workload::QueueClass;
        let green_queues = PolicyKind::GreenQueues { green_cap_w: 160.0 };
        let mut base = Scenario::quick(3, 31).with_policy(green_queues);
        base.forecast = ForecastMode::Oracle;
        let (weather, mut grid) = World::environment(&base);
        for (h, g) in grid.green_share.iter_mut().enumerate() {
            *g = if h < 6 { 0.03 } else { 0.10 };
        }
        let minute = |m: u64| SimTime(m * 60);
        let job = |id: u64, submit_min: u64, queue: QueueClass, deadline_min: Option<u64>| Job {
            id: JobId(id),
            user: UserId(0),
            kind: JobKind::Training,
            gpus: 2,
            work_gpu_hours: 2.0,
            submit: minute(submit_min),
            deferrable: deadline_min.is_some(),
            start_deadline: deadline_min.map(minute),
            queue,
        };
        let trace = vec![
            // Held from 0:30; its slack ends at 2:30.
            job(0, 30, QueueClass::Green, Some(150)),
            // 1:15, fits: meets a held queue and takes the fast path.
            job(1, 75, QueueClass::Standard, None),
            // 1:20: held as well, with slack far past the dirty stretch.
            job(2, 80, QueueClass::Green, Some(3_000)),
            // 2:45: after job 0's deadline, before the 3:00 tick.
            job(3, 165, QueueClass::Standard, None),
        ];
        let world = World::from_parts(base.seed, base.cluster.total_gpus(), weather, grid, trace);

        for policy in [
            green_queues,
            PolicyKind::CarbonAware {
                green_threshold: 0.06,
            },
            PolicyKind::CarbonAndTempAware,
        ] {
            let s = base.clone().with_policy(policy).named(policy.label());
            crate::equivalence::assert_world_matches_reference("green deadline", &s, &world);
        }

        let observe = Observe::aggregates().with_job_records();
        let (out, counts) = SimDriver::run_profiled(&base, &world, observe);
        let records = out.job_records.expect("records observed");
        let start_of = |id: u64| records.iter().find(|r| r.id == JobId(id)).unwrap().start;
        assert_eq!(start_of(1), minute(75));
        assert_eq!(
            start_of(0),
            minute(165),
            "the expired green job starts with the arrival, not at the next tick"
        );
        assert_eq!(
            start_of(2),
            SimTime::from_hours(6),
            "held until the green hours"
        );
        assert_eq!(
            counts.counter(ProfileCounter::FastDispatches),
            3,
            "jobs 0, 1 and 2 take the fast path, job 3 the full dispatch"
        );
    }

    /// A zero-hour horizon is refused before the engine is built, in
    /// release too, instead of indexing an empty forecast.
    #[test]
    #[should_panic(expected = "scenario horizon is zero hours")]
    fn zero_horizon_is_refused() {
        let mut s = Scenario::quick(3, 1);
        s.horizon_hours = 0;
        let world = World::build(&s);
        SimDriver::run_observed(&s, &world, Observe::aggregates());
    }

    /// A trace out of submit order is refused before the engine is built,
    /// in release too: the default engine reads arrivals off it in place.
    #[test]
    #[should_panic(expected = "world trace is not in submit order")]
    fn trace_out_of_submit_order_is_refused() {
        let s = Scenario::quick(3, 1);
        let (weather, grid) = World::environment(&s);
        let mut trace = World::build_trace(&s);
        trace.swap(0, 1);
        let world = World::from_parts(s.seed, s.cluster.total_gpus(), weather, grid, trace);
        SimDriver::run_observed(&s, &world, Observe::aggregates());
    }

    /// A cluster with no GPUs is refused before the engine is built,
    /// instead of running to the end with nothing completed.
    #[test]
    #[should_panic(expected = "scenario cluster has no GPUs")]
    fn zero_gpu_cluster_is_refused() {
        let mut s = Scenario::quick(3, 1);
        s.cluster.nodes = 0;
        let world = World::build(&s);
        SimDriver::run_observed(&s, &world, Observe::aggregates());
    }

    /// World generation must not depend on the thread count: the world is
    /// built with `RAYON_NUM_THREADS` set in-process to 1 (the sequential
    /// reference schedule) and then 4, compared field by field, and the
    /// two replays are pinned through the equivalence fingerprint
    /// (energy/carbon bits + full per-job records). The vendored rayon
    /// reads the variable per call, and every other test's results are
    /// thread-count-invariant, so toggling it in-process is safe.
    #[test]
    fn worldgen_thread_counts_agree_on_world_and_job_records() {
        use crate::equivalence::fingerprint_with_world;
        let s = Scenario::quick(16, 23);
        let prior = std::env::var("RAYON_NUM_THREADS").ok();
        let worlds: Vec<World> = ["1", "4"]
            .into_iter()
            .map(|threads| {
                std::env::set_var("RAYON_NUM_THREADS", threads);
                World::build(&s)
            })
            .collect();
        match prior {
            Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
        let (one, four) = (&worlds[0], &worlds[1]);
        assert_eq!(one.weather.temp_f, four.weather.temp_f);
        assert_eq!(one.weather.wind_ms, four.weather.wind_ms);
        assert_eq!(one.weather.cloud, four.weather.cloud);
        assert_eq!(one.weather.events, four.weather.events);
        assert_eq!(one.grid.green_share, four.grid.green_share);
        assert_eq!(one.grid.lmp_usd_mwh, four.grid.lmp_usd_mwh);
        assert_eq!(one.grid.ci_kg_mwh, four.grid.ci_kg_mwh);
        assert_eq!(one.grid.demand_mw, four.grid.demand_mw);
        assert_eq!(one.grid.gas_mw, four.grid.gas_mw);
        assert_eq!(one.trace, four.trace);
        fingerprint_with_world(&s, one).assert_same(
            &fingerprint_with_world(&s, four),
            "world generation (1 vs 4 threads)",
        );
    }

    /// The full-probe surface and the aggregates-only fast path are the
    /// observation axis of the equivalence harness: `SimDriver::run` (the
    /// reference, records retained) against `run_observed` with records
    /// (the optimized report surface) — totals *and* decision streams.
    #[test]
    fn probe_surfaces_agree_through_equivalence_harness() {
        use crate::equivalence::{assert_runners_equivalent, Fingerprint};
        let matrix = [
            Scenario::quick(10, 19).named("plain 10d seed 19"),
            Scenario::quick(12, 29)
                .with_battery()
                .named("battery 12d seed 29"),
        ];
        assert_runners_equivalent(
            "observation surface (RunResult reference vs RunOutput)",
            &matrix,
            |s| {
                let r = SimDriver::run(s);
                Fingerprint {
                    energy_bits: r.telemetry.total_energy_kwh().to_bits(),
                    carbon_bits: r.telemetry.total_carbon_kg().to_bits(),
                    completed: r.jobs.completed,
                    records: Some(r.job_records),
                }
            },
            |s| {
                let world = World::build(s);
                crate::equivalence::fingerprint_with_world(s, &world)
            },
        );
    }

    /// `run_with_world` with a shared pre-built world reproduces `run`
    /// exactly (the paired-experiment / benchmark-split entry point).
    #[test]
    fn run_with_shared_world_matches_run() {
        let a = Scenario::quick(10, 31);
        let b = a.clone().with_policy(PolicyKind::Fcfs);
        let world = World::build(&a);
        let ra = SimDriver::run_with_world(&a, &world);
        let rb = SimDriver::run_with_world(&b, &world);
        assert_eq!(ra.job_records, SimDriver::run(&a).job_records);
        assert_eq!(rb.job_records, SimDriver::run(&b).job_records);
        // Paired: same submitted workload, different policies.
        assert_eq!(ra.jobs.submitted, rb.jobs.submitted);
    }

    /// Replaying a world built for another seed is refused in every build
    /// profile, not just debug: the world check is a release `assert`.
    #[test]
    #[should_panic(expected = "world was built from a different seed")]
    fn replaying_a_world_from_another_seed_panics() {
        let world = World::build(&Scenario::quick(3, 1));
        SimDriver::run_observed(&Scenario::quick(3, 2), &world, Observe::aggregates());
    }

    /// A caller-defined probe sees the full point stream: one `Submitted`
    /// and (for every completed job) one `Started` per job, settle
    /// outcomes consistent with the purchase records, and attaching it
    /// changes nothing about the run (decision invisibility from the
    /// extension side).
    #[test]
    fn custom_probe_observes_full_point_stream() {
        use crate::probe::PurchasePoint;
        use greener_simkit::obs::Probe;

        #[derive(Default)]
        struct Audit {
            submitted: usize,
            started: usize,
            finished: usize,
            max_submit_depth: u32,
            battery_flows_kwh: f64,
            purchase_mismatch: bool,
        }
        impl Probe<JobPoint> for Audit {
            fn observe(&mut self, p: &JobPoint) {
                match p {
                    JobPoint::Submitted { queue_len, .. } => {
                        self.submitted += 1;
                        self.max_submit_depth = self.max_submit_depth.max(*queue_len);
                    }
                    JobPoint::Started { .. } => self.started += 1,
                    JobPoint::Finished(_) => self.finished += 1,
                }
            }
        }
        impl Probe<PurchasePoint> for Audit {
            fn observe(&mut self, p: &PurchasePoint) {
                // settle.purchased is what the ledger records.
                self.purchase_mismatch |= p.settle.purchased.value() != p.record.energy.value();
                self.battery_flows_kwh +=
                    p.settle.battery_charged.kwh() + p.settle.battery_discharged.kwh();
            }
        }
        impl Probe<HourObservation> for Audit {
            fn observe(&mut self, _: &HourObservation) {}
        }

        let s = Scenario::quick(10, 19).with_battery();
        let world = World::build(&s);
        let outcome = SimDriver::replay(&s, world.view(), Audit::default(), false);
        let audit = outcome.probes;
        let reference = SimDriver::run(&s);
        assert_eq!(audit.submitted, reference.jobs.submitted);
        assert_eq!(audit.finished, reference.jobs.completed);
        // Every completion was started; unfinished jobs may or may not
        // have started (still-running vs still-queued).
        assert!(audit.started >= audit.finished);
        assert!(audit.started <= reference.jobs.submitted);
        assert!(audit.max_submit_depth >= 1);
        assert!(!audit.purchase_mismatch, "settle/record purchase disagree");
        assert!(
            audit.battery_flows_kwh > 0.0,
            "battery strategy must move energy through the settle points"
        );
        // Attaching the audit probe changed nothing (decision
        // invisibility): the loop-side tallies match the reference run.
        assert_eq!(outcome.submitted, reference.jobs.submitted);
        assert_eq!(outcome.unfinished, reference.jobs.unfinished);
        assert_eq!(outcome.battery_cycles, reference.battery_cycles);
    }

    /// `run_observed` with every output on reproduces `run` exactly —
    /// same frames, same ledger, same records — and the queue-depth probe
    /// matches the stats derivable from hourly telemetry.
    #[test]
    fn observed_everything_matches_run() {
        let s = Scenario::quick(10, 19);
        let full = SimDriver::run(&s);
        let world = World::build(&s);
        let out = SimDriver::run_observed(&s, &world, Observe::everything());
        let telemetry = out.telemetry.expect("telemetry observed");
        assert_eq!(telemetry.frames(), full.telemetry.frames());
        assert_eq!(
            out.ledger.expect("ledger observed").records(),
            full.ledger.records()
        );
        assert_eq!(out.job_records.expect("records observed"), full.job_records);
        assert_eq!(out.jobs.completed, full.jobs.completed);
        assert_eq!(out.battery_cycles, full.battery_cycles);
        // Queue-depth probe == post-hoc telemetry query.
        let depth = out.queue_depth.expect("queue depth observed");
        let max = telemetry
            .frames()
            .iter()
            .map(|f| f.queue_len)
            .max()
            .unwrap();
        let mean = telemetry
            .frames()
            .iter()
            .map(|f| f.queue_len as f64)
            .sum::<f64>()
            / telemetry.len() as f64;
        assert_eq!(depth.max, max);
        assert!((depth.mean() - mean).abs() < 1e-12);
    }

    /// Selective observation: only the requested outputs materialize, and
    /// the always-on aggregates reproduce the full run's totals for every
    /// derived statistic the sweeps consume.
    #[test]
    fn aggregates_reproduce_all_derived_totals() {
        let s = Scenario::quick(12, 29).with_battery();
        let full = SimDriver::run(&s);
        let world = World::build(&s);
        let out = SimDriver::run_observed(&s, &world, Observe::aggregates());
        assert!(out.telemetry.is_none());
        assert!(out.ledger.is_none());
        assert!(out.job_records.is_none());
        assert!(out.queue_depth.is_none());
        let a = &out.aggregates;
        assert_eq!(
            a.energy_kwh.to_bits(),
            full.telemetry.total_energy_kwh().to_bits()
        );
        assert_eq!(
            a.carbon_kg.to_bits(),
            full.telemetry.total_carbon_kg().to_bits()
        );
        assert_eq!(
            a.cost_usd.to_bits(),
            full.telemetry.total_cost_usd().to_bits()
        );
        assert_eq!(
            a.water_l.to_bits(),
            full.telemetry.total_water_l().to_bits()
        );
        assert_eq!(
            a.cooling_saturation_fraction().to_bits(),
            full.telemetry.cooling_saturation_fraction().to_bits()
        );
        assert_eq!(
            a.energy_weighted_green_share().to_bits(),
            full.ledger.energy_weighted_green_share().to_bits()
        );
        assert_eq!(
            a.energy_weighted_price().to_bits(),
            full.ledger.energy_weighted_price().to_bits()
        );
        assert_eq!(
            a.energy_weighted_ci().to_bits(),
            full.ledger.energy_weighted_ci().to_bits()
        );
        let it_kwh: f64 = full
            .telemetry
            .frames()
            .iter()
            .map(|f| f.it_power_w / 1_000.0)
            .sum();
        assert_eq!(a.it_energy_kwh.to_bits(), it_kwh.to_bits());
        let peak: f64 = full
            .telemetry
            .frames()
            .iter()
            .map(|f| f.total_power_w / 1_000.0)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(a.peak_power_kw.to_bits(), peak.to_bits());
        let pues: Vec<f64> = full
            .telemetry
            .frames()
            .iter()
            .map(|f| f.pue)
            .filter(|p| p.is_finite())
            .collect();
        assert_eq!(
            a.mean_pue().to_bits(),
            greener_simkit::stats::mean(&pues).to_bits()
        );
        assert_eq!(out.battery_cycles, full.battery_cycles);
    }

    /// Handing the counters back changes no bit of the run, and they
    /// describe the replay they came from (every event attributed, arrivals
    /// resolved fast on the default path) whatever the probes record.
    #[test]
    fn profiled_run_matches_unprofiled_and_counts_consistently() {
        use crate::profile::ProfileCounter;
        let s = Scenario::quick(10, 21);
        let world = World::build(&s);
        let plain = SimDriver::run_observed(&s, &world, Observe::aggregates());
        let (out, profile) = SimDriver::run_profiled(&s, &world, Observe::aggregates());
        assert_eq!(
            out.aggregates.energy_kwh.to_bits(),
            plain.aggregates.energy_kwh.to_bits()
        );
        assert_eq!(
            out.aggregates.carbon_kg.to_bits(),
            plain.aggregates.carbon_kg.to_bits()
        );
        assert_eq!(out.jobs.completed, plain.jobs.completed);
        let c = |k| profile.counter(k);
        assert_eq!(
            c(ProfileCounter::Events),
            c(ProfileCounter::Arrivals) + c(ProfileCounter::Completions) + c(ProfileCounter::Ticks),
            "every popped event is one of the three kinds"
        );
        assert_eq!(c(ProfileCounter::Arrivals) as usize, plain.jobs.submitted);
        assert_eq!(c(ProfileCounter::Ticks), 10 * 24);
        assert!(
            c(ProfileCounter::Decisions) as usize >= plain.jobs.completed,
            "every completed job was a decision"
        );
        assert!(
            c(ProfileCounter::FastDispatches) > 0,
            "quick scenarios mostly arrive at an empty queue"
        );
        // The fast apply slab handles every start and every completed
        // job's retirement (the default apply path).
        assert_eq!(
            c(ProfileCounter::FastApplyEvents),
            c(ProfileCounter::Decisions) + plain.jobs.completed as u64,
            "one fast-apply event per start plus one per finish"
        );
        // Probes are decision-invisible, so full observation counts exactly
        // what aggregates-only observation counts (`perfjson` takes its
        // counters from a queue-depth run).
        let everything = Observe::aggregates()
            .with_telemetry()
            .with_ledger()
            .with_job_records()
            .with_queue_depth();
        let (_, full_profile) = SimDriver::run_profiled(&s, &world, everything);
        assert_eq!(full_profile, profile);
        // The reference engine must take no fast path at all: otherwise
        // every reference-vs-default equivalence test would be vacuous.
        let (_, ref_profile) = SimDriver::observed(&s, world.view(), Observe::aggregates(), true);
        assert_eq!(ref_profile.counter(ProfileCounter::FastDispatches), 0);
        assert_eq!(ref_profile.counter(ProfileCounter::FastApplyEvents), 0);
        assert!(
            ref_profile.counter(ProfileCounter::DispatchCalls)
                > profile.counter(ProfileCounter::DispatchCalls),
            "reference routes every arrival through the full dispatch"
        );
    }

    #[test]
    fn no_gpu_oversubscription_ever() {
        let r = quick_run(10, 11);
        let total = 32.0;
        for f in r.telemetry.frames() {
            assert!(f.running_gpus as f64 <= total);
            assert!((0.0..=1.0).contains(&f.gpu_utilization));
        }
    }

    #[test]
    fn waits_nonnegative_and_slo_fraction_bounded() {
        let r = quick_run(14, 12);
        assert!(r.jobs.mean_wait_hours >= 0.0);
        assert!(r.jobs.p95_wait_hours >= r.jobs.mean_wait_hours * 0.2);
        assert!((0.0..=1.0).contains(&r.jobs.slo_violation_fraction));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            /// Cross-cutting run invariants hold for arbitrary seeds and
            /// policies: purchased energy = IT + cooling (no battery),
            /// carbon is ledger-consistent, GPU counts stay bounded, and
            /// jobs conserve (submitted = completed + unfinished).
            #[test]
            fn run_invariants(seed in 0u64..1_000, policy_idx in 0usize..4) {
                let policies = [
                    PolicyKind::Fcfs,
                    PolicyKind::EasyBackfill,
                    PolicyKind::StaticCap { cap_w: 160.0 },
                    PolicyKind::CarbonAware { green_threshold: 0.06 },
                ];
                let s = Scenario::quick(4, seed).with_policy(policies[policy_idx]);
                let r = SimDriver::run(&s);
                // Job conservation.
                prop_assert_eq!(r.jobs.submitted, r.jobs.completed + r.jobs.unfinished);
                // Energy identity (no storage strategy in quick scenarios).
                let purchased = r.telemetry.total_energy_kwh();
                let facility: f64 = r
                    .telemetry
                    .frames()
                    .iter()
                    .map(|f| f.total_power_w / 1_000.0)
                    .sum();
                prop_assert!((purchased - facility).abs() < 1e-6 * facility.max(1.0));
                // Ledger consistency: telemetry carbon equals ledger carbon.
                prop_assert!(
                    (r.telemetry.total_carbon_kg() - r.ledger.total_carbon().value()).abs()
                        < 1e-6 * r.telemetry.total_carbon_kg().max(1.0)
                );
                // Physical bounds.
                let total_gpus = s.cluster.total_gpus();
                for f in r.telemetry.frames() {
                    prop_assert!(f.running_gpus <= total_gpus);
                    prop_assert!(f.it_power_w > 0.0);
                    prop_assert!(f.cooling_power_w >= 0.0);
                }
            }

            /// Probe compositions are decision-invisible: an
            /// aggregates-only run reproduces the full-probe run's
            /// energy/carbon totals and complete `JobStats` *bit for bit*
            /// across random quick scenarios and policies.
            #[test]
            fn aggregates_only_matches_full_probes_bitwise(
                seed in 0u64..1_000,
                policy_idx in 0usize..4,
                days in 3usize..9,
            ) {
                let policies = [
                    PolicyKind::Fcfs,
                    PolicyKind::EasyBackfill,
                    PolicyKind::StaticCap { cap_w: 160.0 },
                    PolicyKind::CarbonAware { green_threshold: 0.06 },
                ];
                let s = Scenario::quick(days, seed).with_policy(policies[policy_idx]);
                let full = SimDriver::run(&s);
                let world = World::build(&s);
                let agg = SimDriver::run_observed(&s, &world, Observe::aggregates());
                prop_assert_eq!(
                    agg.aggregates.energy_kwh.to_bits(),
                    full.telemetry.total_energy_kwh().to_bits()
                );
                prop_assert_eq!(
                    agg.aggregates.carbon_kg.to_bits(),
                    full.telemetry.total_carbon_kg().to_bits()
                );
                let (a, b) = (&agg.jobs, &full.jobs);
                prop_assert_eq!(a.submitted, b.submitted);
                prop_assert_eq!(a.completed, b.completed);
                prop_assert_eq!(a.unfinished, b.unfinished);
                prop_assert_eq!(a.mean_wait_hours.to_bits(), b.mean_wait_hours.to_bits());
                prop_assert_eq!(a.p95_wait_hours.to_bits(), b.p95_wait_hours.to_bits());
                prop_assert_eq!(a.mean_slowdown.to_bits(), b.mean_slowdown.to_bits());
                prop_assert_eq!(a.slo_violations, b.slo_violations);
                prop_assert_eq!(
                    a.slo_violation_fraction.to_bits(),
                    b.slo_violation_fraction.to_bits()
                );
                prop_assert_eq!(
                    a.gpu_hours_completed.to_bits(),
                    b.gpu_hours_completed.to_bits()
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(
                crate::equivalence::proptest_cases(12)
            ))]
            /// The default engine reproduces the reference engine's
            /// **decision stream** — the complete per-job record sequence
            /// (assignment order, start times, power caps, per-job
            /// energy), not just aggregate bits — for random scenarios
            /// over every policy family with a lone-dispatch answer,
            /// including the gated/capped wrappers and queue
            /// segmentation. Both engines replay one shared world, so any
            /// divergence is the engine's own. CI boosts the case count
            /// via `PROPTEST_CASES`.
            #[test]
            fn default_engine_matches_reference_decision_stream(
                seed in 0u64..1_000,
                policy_idx in 0usize..8,
                days in 3usize..9,
            ) {
                let policies = [
                    PolicyKind::Fcfs,
                    PolicyKind::Sjf,
                    PolicyKind::EasyBackfill,
                    PolicyKind::StaticCap { cap_w: 160.0 },
                    PolicyKind::TempAware,
                    PolicyKind::CarbonAware { green_threshold: 0.06 },
                    PolicyKind::GreenQueues { green_cap_w: 160.0 },
                    PolicyKind::CarbonAndTempAware,
                ];
                let s = Scenario::quick(days, seed).with_policy(policies[policy_idx]);
                let world = World::build(&s);
                let observe = Observe::aggregates().with_job_records();
                let fast = SimDriver::run_observed(&s, &world, observe);
                let reference = SimDriver::run_reference(&s, &world, observe);
                prop_assert_eq!(
                    fast.job_records.as_ref().unwrap(),
                    reference.job_records.as_ref().unwrap()
                );
                prop_assert_eq!(
                    fast.aggregates.energy_kwh.to_bits(),
                    reference.aggregates.energy_kwh.to_bits()
                );
                prop_assert_eq!(
                    fast.aggregates.carbon_kg.to_bits(),
                    reference.aggregates.carbon_kg.to_bits()
                );
                prop_assert_eq!(fast.jobs.unfinished, reference.jobs.unfinished);
            }
        }
    }
}
