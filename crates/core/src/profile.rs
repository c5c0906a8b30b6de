//! Replay loop counters: exact counts of what the driver's hot loop did.
//!
//! Every replay counts, on every entry point: events popped (split into
//! arrivals, completions and hourly ticks), full policy dispatches,
//! lone-arrival fast dispatches, decisions applied, backfill candidates
//! visited and default-engine slab touches. [`SimDriver::run_profiled`]
//! hands the counts back as a [`ReplayProfile`]; the other entry points
//! drop them. The counts are exact (integer increments, no sampling) and
//! decision-invisible: the engine only writes them, so the same replay
//! counts the same whichever probes are attached.
//!
//! They are also free. Over an aggregates-only replay of the
//! `two_year_small(1)` world (41 interleaved reps, two runs, on a 2-vCPU
//! Intel Xeon VM), a loop with
//! every counter compiled out took a median 22.96 ms (IQR 22.43–23.21)
//! and the always-counting loop 22.97 ms (IQR 22.55–23.26).
//!
//! There are no timers. An earlier wall-clock profiler read the clock
//! around every loop phase and sub-phase: the same replay took 70.79 ms
//! under it, about 3× its real time, and 53% of that time was attributed
//! to no phase. It measured itself more than the loop, so it was deleted.
//! Layer times come from timing whole replays from outside: `perfjson`'s
//! replay lanes and the sweep benchmark's `driver.replay_s.*` layers.
//!
//! [`SimDriver::run_profiled`]: crate::driver::SimDriver::run_profiled

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
    /// Every counter, in display order (`counter as usize` is its
    /// position here).
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
}

/// One replay's loop counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayProfile {
    counters: [u64; ProfileCounter::ALL.len()],
}

impl ReplayProfile {
    /// Add `by` to a counter.
    #[inline]
    pub(crate) fn bump(&mut self, counter: ProfileCounter, by: u64) {
        self.counters[counter as usize] += by;
    }

    /// A counter's value.
    pub fn counter(&self, counter: ProfileCounter) -> u64 {
        self.counters[counter as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_indices_bijective() {
        let mut names: Vec<&str> = ProfileCounter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ProfileCounter::ALL.len());
        for (i, c) in ProfileCounter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }
}
