//! Replay self-profiling: per-phase wall time and event counters for the
//! driver's hot loop.
//!
//! ROADMAP's replay-remainder work is profile-led: before picking a fast
//! path, measure where the ~ns/event actually go. This module gives the
//! replay loop a zero-cost instrumentation seam: the loop is generic over
//! a [`ReplayProfiler`], with two implementations —
//!
//! * [`NoProfiler`] — the default on every normal entry point. Its mark
//!   type is `()` and every method is an inlined no-op, so the compiler
//!   deletes the instrumentation entirely: profiling support costs the
//!   un-profiled replay nothing.
//! * [`WallProfiler`] — used by [`SimDriver::run_profiled`]: `Instant`
//!   marks around each phase, accumulated into a [`ReplayProfile`].
//!   Reading the clock around every phase and sub-phase costs real time:
//!   an aggregates-only replay of the `two_year_small` world (the
//!   `driver_small_2y` lane) measured 2.7–3.0× its un-profiled time
//!   (medians of 21 interleaved reps, three runs, on a 2-vCPU Intel Xeon
//!   VM). So profiled numbers are for *attribution* (which phase
//!   dominates), not for end-to-end deltas — compare totals with the
//!   un-profiled perfjson lanes instead.
//!
//! The phases follow the loop's structure: `SignalBuild` (the hourly
//! forecast refresh feeding [`SchedSignals`]), `PolicyDispatch` (the
//! policy's decision computation, including its backfill scan — the scan
//! is additionally counted via [`ProfileCounter::BackfillVisits`]),
//! `DecisionApply` (allocating and scheduling decided jobs) and
//! `TickCooling` (the hourly cooling/settlement/ledger section).
//! Everything not covered (event-queue pops, queue pushes, IT-power
//! integration) shows up as [`ReplayProfile::unattributed`].
//!
//! # Sub-phases
//!
//! The four top-level phases answer *which section* of the loop is hot;
//! [`ProfileSubPhase`] answers *what inside it*. Sub-phases time the
//! individual operations of job start/finish bookkeeping (cluster
//! allocate/release, slab insert/remove, completion-profile maintenance,
//! probe emission, event-queue push/pop) and the tick's settlement slice.
//! They deliberately do **not** nest cleanly inside the top-level split:
//! `ApplyAlloc`/`ApplySlab`/`ApplyCompletions`/`ApplyProbes`/
//! `ApplySchedule` accumulate both from `try_start` (inside
//! `DecisionApply`) and from `finish_job` (previously all unattributed),
//! `EventPop` attributes the loop-head pop (unattributed), and
//! `TickSettle` is a slice of `TickCooling`. So `Σ sub-phases` overlaps
//! the phase totals rather than partitioning them, and
//! [`ReplayProfile::unattributed`] keeps its meaning (total − top-level
//! phases). Sub-phase windows are short (tens of ns), so the two clock
//! reads per window dominate the measured value more than for the
//! top-level phases — read sub-phase numbers as *relative shares* of
//! their parent, not absolute costs.
//!
//! `perfjson --profile` (in `greener-bench`) runs the canonical scenarios
//! through this mode and records the phase split in `BENCH_engine.json`.
//!
//! [`SchedSignals`]: greener_sched::SchedSignals
//! [`SimDriver::run_profiled`]: crate::driver::SimDriver::run_profiled

use std::time::{Duration, Instant};

/// A timed phase of the replay loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfilePhase {
    /// Hourly forecast refresh (the expensive part of signal building).
    SignalBuild,
    /// `SchedPolicy::dispatch` / `lone_dispatch` calls.
    PolicyDispatch,
    /// Applying decisions: allocation, completion scheduling, start
    /// bookkeeping.
    DecisionApply,
    /// The hourly tick's cooling/settlement/ledger section (up to and
    /// including the hour observation emit).
    TickCooling,
}

impl ProfilePhase {
    /// Every phase, in display order.
    pub const ALL: [ProfilePhase; 4] = [
        ProfilePhase::SignalBuild,
        ProfilePhase::PolicyDispatch,
        ProfilePhase::DecisionApply,
        ProfilePhase::TickCooling,
    ];

    /// Stable snake_case name (used as the JSON key in `BENCH_engine.json`).
    pub fn name(self) -> &'static str {
        match self {
            ProfilePhase::SignalBuild => "signal_build",
            ProfilePhase::PolicyDispatch => "policy_dispatch",
            ProfilePhase::DecisionApply => "decision_apply",
            ProfilePhase::TickCooling => "tick_cooling",
        }
    }

    fn index(self) -> usize {
        match self {
            ProfilePhase::SignalBuild => 0,
            ProfilePhase::PolicyDispatch => 1,
            ProfilePhase::DecisionApply => 2,
            ProfilePhase::TickCooling => 3,
        }
    }
}

/// A timed sub-operation of the replay loop (see the module docs:
/// sub-phases overlap the top-level phases instead of partitioning them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileSubPhase {
    /// Event-queue pop at the loop head (top-level: unattributed).
    EventPop,
    /// `Cluster::allocate`/`release` plus the cap/speed/energy math around
    /// them (top-level: `DecisionApply` for starts, unattributed for
    /// finishes).
    ApplyAlloc,
    /// Running-job slab insert (start) / remove (finish).
    ApplySlab,
    /// Completion-profile (`running_completions`) sorted insert/remove.
    ApplyCompletions,
    /// Job-point probe emission (`Submitted`/`Started`/`Finished`).
    ApplyProbes,
    /// Event-queue `schedule` push of the completion event.
    ApplySchedule,
    /// The tick's settlement slice: `settle_hour` + purchase-point probe
    /// emission (top-level: inside `TickCooling`).
    TickSettle,
}

impl ProfileSubPhase {
    /// Every sub-phase, in display order.
    pub const ALL: [ProfileSubPhase; 7] = [
        ProfileSubPhase::EventPop,
        ProfileSubPhase::ApplyAlloc,
        ProfileSubPhase::ApplySlab,
        ProfileSubPhase::ApplyCompletions,
        ProfileSubPhase::ApplyProbes,
        ProfileSubPhase::ApplySchedule,
        ProfileSubPhase::TickSettle,
    ];

    /// Stable snake_case name (used as the JSON key in `BENCH_engine.json`).
    pub fn name(self) -> &'static str {
        match self {
            ProfileSubPhase::EventPop => "event_pop",
            ProfileSubPhase::ApplyAlloc => "apply_alloc",
            ProfileSubPhase::ApplySlab => "apply_slab",
            ProfileSubPhase::ApplyCompletions => "apply_completions",
            ProfileSubPhase::ApplyProbes => "apply_probes",
            ProfileSubPhase::ApplySchedule => "apply_schedule",
            ProfileSubPhase::TickSettle => "tick_settle",
        }
    }

    fn index(self) -> usize {
        match self {
            ProfileSubPhase::EventPop => 0,
            ProfileSubPhase::ApplyAlloc => 1,
            ProfileSubPhase::ApplySlab => 2,
            ProfileSubPhase::ApplyCompletions => 3,
            ProfileSubPhase::ApplyProbes => 4,
            ProfileSubPhase::ApplySchedule => 5,
            ProfileSubPhase::TickSettle => 6,
        }
    }
}

/// A counted quantity of the replay loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileCounter {
    /// Events popped (arrivals + completions + ticks).
    Events,
    /// Arrival events.
    Arrivals,
    /// Completion events (including stale ones).
    Completions,
    /// Hourly tick events.
    Ticks,
    /// Full `SchedPolicy::dispatch` invocations that reached the policy.
    DispatchCalls,
    /// Arrivals resolved on the lone-arrival fast path (started or held
    /// without touching the waiting-queue machinery).
    FastDispatches,
    /// Decisions applied (jobs started).
    Decisions,
    /// Backfill candidates examined by the policy (from
    /// `SchedPolicy::backfill_visits`, read once at the end of the run).
    BackfillVisits,
    /// Job starts/finishes handled by the default engine's SoA slab (0 on
    /// the reference engine, `SimDriver::run_reference`).
    FastApplyEvents,
}

impl ProfileCounter {
    /// Every counter, in display order.
    pub const ALL: [ProfileCounter; 9] = [
        ProfileCounter::Events,
        ProfileCounter::Arrivals,
        ProfileCounter::Completions,
        ProfileCounter::Ticks,
        ProfileCounter::DispatchCalls,
        ProfileCounter::FastDispatches,
        ProfileCounter::Decisions,
        ProfileCounter::BackfillVisits,
        ProfileCounter::FastApplyEvents,
    ];

    /// Stable snake_case name (used as the JSON key in `BENCH_engine.json`).
    pub fn name(self) -> &'static str {
        match self {
            ProfileCounter::Events => "events",
            ProfileCounter::Arrivals => "arrivals",
            ProfileCounter::Completions => "completions",
            ProfileCounter::Ticks => "ticks",
            ProfileCounter::DispatchCalls => "dispatch_calls",
            ProfileCounter::FastDispatches => "fast_dispatches",
            ProfileCounter::Decisions => "decisions",
            ProfileCounter::BackfillVisits => "backfill_visits",
            ProfileCounter::FastApplyEvents => "fast_apply_events",
        }
    }

    fn index(self) -> usize {
        match self {
            ProfileCounter::Events => 0,
            ProfileCounter::Arrivals => 1,
            ProfileCounter::Completions => 2,
            ProfileCounter::Ticks => 3,
            ProfileCounter::DispatchCalls => 4,
            ProfileCounter::FastDispatches => 5,
            ProfileCounter::Decisions => 6,
            ProfileCounter::BackfillVisits => 7,
            ProfileCounter::FastApplyEvents => 8,
        }
    }
}

/// The replay loop's instrumentation seam. See the module docs; the only
/// implementations are [`NoProfiler`] (free) and [`WallProfiler`]
/// (attributing). Profiling is observation-only by the same rule probes
/// follow: a profiler has no channel back into the loop, so attaching one
/// cannot change any simulated number.
pub trait ReplayProfiler {
    /// A point-in-time marker (`()` when profiling is off, so marks cost
    /// nothing to take or carry).
    type Mark: Copy;

    /// Take a marker at the start of a phase.
    fn mark(&self) -> Self::Mark;

    /// Attribute the time since `mark` to `phase`.
    fn record(&mut self, phase: ProfilePhase, mark: Self::Mark);

    /// Attribute the time since `mark` to a sub-phase. Defaults to a no-op
    /// so sub-phase instrumentation costs nothing unless a profiler opts
    /// in.
    #[inline(always)]
    fn record_sub(&mut self, sub: ProfileSubPhase, mark: Self::Mark) {
        let _ = (sub, mark);
    }

    /// Add `by` to a counter.
    fn bump(&mut self, counter: ProfileCounter, by: u64);
}

/// The free profiler: all no-ops, compiled out of the replay loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProfiler;

impl ReplayProfiler for NoProfiler {
    type Mark = ();

    #[inline(always)]
    fn mark(&self) {}

    #[inline(always)]
    fn record(&mut self, _phase: ProfilePhase, _mark: ()) {}

    #[inline(always)]
    fn bump(&mut self, _counter: ProfileCounter, _by: u64) {}
}

/// Wall-clock profiler backing [`SimDriver::run_profiled`].
///
/// [`SimDriver::run_profiled`]: crate::driver::SimDriver::run_profiled
#[derive(Debug, Clone)]
pub struct WallProfiler {
    started: Instant,
    phases: [Duration; ProfilePhase::ALL.len()],
    subs: [Duration; ProfileSubPhase::ALL.len()],
    counters: [u64; ProfileCounter::ALL.len()],
}

impl WallProfiler {
    /// Start profiling now.
    pub fn new() -> WallProfiler {
        WallProfiler {
            started: Instant::now(),
            phases: [Duration::ZERO; ProfilePhase::ALL.len()],
            subs: [Duration::ZERO; ProfileSubPhase::ALL.len()],
            counters: [0; ProfileCounter::ALL.len()],
        }
    }

    /// Close the profile (total = time since construction).
    pub fn finish(self) -> ReplayProfile {
        ReplayProfile {
            total: self.started.elapsed(),
            phases: self.phases,
            subs: self.subs,
            counters: self.counters,
        }
    }
}

impl Default for WallProfiler {
    fn default() -> WallProfiler {
        WallProfiler::new()
    }
}

impl ReplayProfiler for WallProfiler {
    type Mark = Instant;

    #[inline]
    fn mark(&self) -> Instant {
        Instant::now()
    }

    #[inline]
    fn record(&mut self, phase: ProfilePhase, mark: Instant) {
        self.phases[phase.index()] += mark.elapsed();
    }

    #[inline]
    fn record_sub(&mut self, sub: ProfileSubPhase, mark: Instant) {
        self.subs[sub.index()] += mark.elapsed();
    }

    #[inline]
    fn bump(&mut self, counter: ProfileCounter, by: u64) {
        self.counters[counter.index()] += by;
    }
}

/// One profiled replay's phase split and counters.
#[derive(Debug, Clone)]
pub struct ReplayProfile {
    /// Wall time of the whole replay (including instrumentation overhead).
    pub total: Duration,
    phases: [Duration; ProfilePhase::ALL.len()],
    subs: [Duration; ProfileSubPhase::ALL.len()],
    counters: [u64; ProfileCounter::ALL.len()],
}

impl ReplayProfile {
    /// Time attributed to a phase.
    pub fn phase(&self, phase: ProfilePhase) -> Duration {
        self.phases[phase.index()]
    }

    /// Time attributed to a sub-phase (overlaps the phase totals — see the
    /// module docs).
    pub fn sub(&self, sub: ProfileSubPhase) -> Duration {
        self.subs[sub.index()]
    }

    /// A counter's value.
    pub fn counter(&self, counter: ProfileCounter) -> u64 {
        self.counters[counter.index()]
    }

    /// Time not attributed to any phase (event-queue pops, queue pushes,
    /// IT-power integration, instrumentation overhead).
    pub fn unattributed(&self) -> Duration {
        self.total
            .saturating_sub(self.phases.iter().sum::<Duration>())
    }

    /// Nanoseconds per popped event, over the whole replay (NaN before
    /// the first event).
    pub fn ns_per_event(&self) -> f64 {
        let events = self.counter(ProfileCounter::Events);
        if events == 0 {
            return f64::NAN;
        }
        self.total.as_nanos() as f64 / events as f64
    }

    /// One-line human summary for logs.
    pub fn summary(&self) -> String {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        format!(
            "total {:.2} ms ({:.0} ns/event over {} events): {} + unattributed {:.2} ms; \
             subs {}; arrivals {} (fast {}), dispatch calls {}, decisions {}, \
             backfill visits {}, fast-apply events {}",
            ms(self.total),
            self.ns_per_event(),
            self.counter(ProfileCounter::Events),
            ProfilePhase::ALL
                .iter()
                .map(|&p| format!("{} {:.2} ms", p.name(), ms(self.phase(p))))
                .collect::<Vec<_>>()
                .join(" + "),
            ms(self.unattributed()),
            ProfileSubPhase::ALL
                .iter()
                .map(|&s| format!("{} {:.2} ms", s.name(), ms(self.sub(s))))
                .collect::<Vec<_>>()
                .join(" / "),
            self.counter(ProfileCounter::Arrivals),
            self.counter(ProfileCounter::FastDispatches),
            self.counter(ProfileCounter::DispatchCalls),
            self.counter(ProfileCounter::Decisions),
            self.counter(ProfileCounter::BackfillVisits),
            self.counter(ProfileCounter::FastApplyEvents),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_indices_bijective() {
        let mut phase_names: Vec<&str> = ProfilePhase::ALL.iter().map(|p| p.name()).collect();
        phase_names.sort_unstable();
        phase_names.dedup();
        assert_eq!(phase_names.len(), ProfilePhase::ALL.len());
        for (i, p) in ProfilePhase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        let mut counter_names: Vec<&str> = ProfileCounter::ALL.iter().map(|c| c.name()).collect();
        counter_names.sort_unstable();
        counter_names.dedup();
        assert_eq!(counter_names.len(), ProfileCounter::ALL.len());
        for (i, c) in ProfileCounter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        let mut sub_names: Vec<&str> = ProfileSubPhase::ALL.iter().map(|s| s.name()).collect();
        sub_names.sort_unstable();
        sub_names.dedup();
        assert_eq!(sub_names.len(), ProfileSubPhase::ALL.len());
        for (i, s) in ProfileSubPhase::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        // Sub-phase names must not collide with phase or counter keys: all
        // three families land as `*_ns`/plain keys in the same JSON object.
        for s in ProfileSubPhase::ALL {
            assert!(!phase_names.contains(&s.name()));
            assert!(!counter_names.contains(&s.name()));
        }
    }

    #[test]
    fn wall_profiler_accumulates() {
        let mut p = WallProfiler::new();
        let m = p.mark();
        std::thread::sleep(Duration::from_millis(2));
        p.record(ProfilePhase::TickCooling, m);
        p.record_sub(ProfileSubPhase::TickSettle, m);
        p.bump(ProfileCounter::Events, 3);
        p.bump(ProfileCounter::Events, 2);
        let profile = p.finish();
        assert!(profile.phase(ProfilePhase::TickCooling) >= Duration::from_millis(2));
        assert!(profile.sub(ProfileSubPhase::TickSettle) >= Duration::from_millis(2));
        assert_eq!(profile.sub(ProfileSubPhase::EventPop), Duration::ZERO);
        assert_eq!(profile.phase(ProfilePhase::SignalBuild), Duration::ZERO);
        assert_eq!(profile.counter(ProfileCounter::Events), 5);
        assert!(profile.total >= profile.phase(ProfilePhase::TickCooling));
        assert!(profile.unattributed() <= profile.total);
        assert!(profile.ns_per_event() > 0.0);
        assert!(profile.summary().contains("tick_cooling"));
    }
}
