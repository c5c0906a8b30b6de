//! A sorted-runs event queue: pre-sorted streams merge, the rest heaps.
//!
//! A year-scale replay schedules two long streams before its first pop:
//! every arrival in submit order, then every hourly tick in ascending
//! order. Both are already sorted, so there is nothing to sort. Only the
//! completions, scheduled while the loop runs, arrive out of order, and
//! at most one per busy GPU is pending at a time.
//!
//! [`RunsQueue`] stores each pre-sorted stream as an append-only run and
//! everything else in a small [`BinaryHeap`]:
//!
//! * before the first pop, an event at or after the newest run's tail is
//!   appended to that run, and an event that goes backwards opens a new
//!   run; past `MAX_RUNS` runs it goes to the heap;
//! * after pops begin, an event extends the newest run only if it keeps
//!   that run in order, and goes to the heap otherwise;
//! * `pop` takes the least `(time, seq)` among the run heads and the heap
//!   top.
//!
//! Scheduling a stream is a push onto a `VecDeque`, popping from it is a
//! `pop_front`, and the heap only ever holds the out-of-order remainder.
//! The pop order is exactly that of the reference [`EventQueue`]: the
//! property tests at the bottom of this module drive both with the same
//! scripts (FIFO ties and the replay's own pattern included) and assert
//! identical streams.
//!
//! [`EventQueue`]: crate::des::EventQueue

use crate::des::{EventScheduler, ScheduledEvent};
use crate::time::SimTime;
use std::collections::{BinaryHeap, VecDeque};

/// Most runs a queue keeps. The replay needs two (arrivals, then ticks);
/// a few more cost one head comparison each per pop.
const MAX_RUNS: usize = 4;

/// The sorted-runs [`EventScheduler`]. See the module docs for the design
/// and [`EventScheduler`] for the behavioural contract it shares with
/// [`crate::des::EventQueue`].
#[derive(Debug)]
pub struct RunsQueue<E> {
    /// Append-only runs, each sorted ascending by `(at, seq)`. The last
    /// one is the newest.
    runs: Vec<VecDeque<ScheduledEvent<E>>>,
    /// Events that fit no run.
    heap: BinaryHeap<ScheduledEvent<E>>,
    /// The `with_capacity` hint: total schedules expected.
    expected: usize,
    now: SimTime,
    next_seq: u64,
    processed: u64,
    clamped: u64,
}

impl<E> EventScheduler<E> for RunsQueue<E> {
    /// A run opens sized for every expected schedule not yet made, so a
    /// stream scheduled whole fills one buffer instead of regrowing it
    /// (each regrowth frees a buffer half the new size, which the
    /// allocator keeps around). The heap grows as it is pushed to.
    fn with_capacity(events: usize) -> Self {
        RunsQueue {
            runs: Vec::with_capacity(MAX_RUNS),
            heap: BinaryHeap::new(),
            expected: events,
            now: SimTime::ZERO,
            next_seq: 0,
            processed: 0,
            clamped: 0,
        }
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn len(&self) -> usize {
        self.heap.len() + self.runs.iter().map(VecDeque::len).sum::<usize>()
    }

    fn processed(&self) -> u64 {
        self.processed
    }

    fn clamped(&self) -> u64 {
        self.clamped
    }

    fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: at={at}, now={}",
            self.now
        );
        if at < self.now {
            self.clamped += 1;
        }
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = ScheduledEvent { at, seq, event };
        // `seq` only grows, so an event no earlier than the newest run's
        // tail keeps that run sorted by `(at, seq)`.
        let opens_run = self.processed == 0 && self.runs.len() < MAX_RUNS;
        match self.runs.last_mut() {
            Some(run) if run.back().is_none_or(|tail| tail.at <= at) => run.push_back(ev),
            _ if opens_run => {
                let left = self.expected.saturating_sub(seq as usize);
                let mut run = VecDeque::with_capacity(left.max(1));
                run.push_back(ev);
                self.runs.push(run);
            }
            _ => self.heap.push(ev),
        }
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        // The least head wins; `runs.len()` stands for the heap.
        let mut best: Option<(usize, SimTime, u64)> = None;
        for (i, run) in self.runs.iter().enumerate() {
            if let Some(e) = run.front() {
                if best.is_none_or(|(_, at, seq)| (e.at, e.seq) < (at, seq)) {
                    best = Some((i, e.at, e.seq));
                }
            }
        }
        if let Some(e) = self.heap.peek() {
            if best.is_none_or(|(_, at, seq)| (e.at, e.seq) < (at, seq)) {
                best = Some((self.runs.len(), e.at, e.seq));
            }
        }
        let (i, ..) = best?;
        let ev = match self.runs.get_mut(i) {
            Some(run) => run.pop_front(),
            None => self.heap.pop(),
        }
        .expect("the chosen head is pending");
        debug_assert!(ev.at >= self.now, "runs queue clock went backwards");
        self.now = ev.at;
        self.processed += 1;
        Some((ev.at, ev.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::EventQueue;
    use crate::time::HOUR;

    #[test]
    fn sorted_streams_fill_runs_and_the_rest_heaps() {
        let mut q = RunsQueue::with_capacity(0);
        for i in 0..5u64 {
            q.schedule(SimTime(i * 1_000), i);
        }
        for h in 1..=3u64 {
            q.schedule(SimTime(h * HOUR), 100 + h);
        }
        assert_eq!(q.runs.len(), 2, "arrivals, then ticks");
        assert_eq!(q.pop(), Some((SimTime(0), 0)));
        // Backwards after the first pop: heaped, not a new run.
        q.schedule(SimTime(500), 50);
        assert_eq!(q.runs.len(), 2);
        assert_eq!(q.len(), 8);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![50, 1, 2, 3, 101, 4, 102, 103]);
        assert_eq!(q.processed(), 9);
        assert_eq!(q.clamped(), 0);
    }

    #[test]
    fn a_hinted_queue_opens_each_run_at_full_size() {
        let mut q = RunsQueue::with_capacity(8);
        q.schedule(SimTime(0), 0u64);
        let arrivals = q.runs[0].capacity();
        assert!(arrivals >= 8, "the first run holds every expected schedule");
        for i in 1..5u64 {
            q.schedule(SimTime(i * 1_000), i);
        }
        q.schedule(SimTime(HOUR), 101);
        let ticks = q.runs[1].capacity();
        assert!(ticks >= 3, "the second run holds the three schedules left");
        for h in 2..=3u64 {
            q.schedule(SimTime(h * HOUR), 100 + h);
        }
        assert_eq!(q.runs[0].capacity(), arrivals, "arrivals never regrew");
        assert_eq!(q.runs[1].capacity(), ticks, "ticks never regrew");
    }

    #[test]
    fn runs_are_capped_before_the_first_pop() {
        let mut q = RunsQueue::with_capacity(0);
        for t in (0..10u64).rev() {
            q.schedule(SimTime(t), t);
        }
        assert_eq!(q.runs.len(), MAX_RUNS);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    #[cfg(debug_assertions)]
    fn scheduling_in_past_panics_in_debug() {
        let mut q = RunsQueue::with_capacity(0);
        q.schedule(SimTime(2 * HOUR), ());
        q.pop();
        q.schedule(SimTime(5), ());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn clamped_counts_past_schedules_in_release() {
        let mut q = RunsQueue::with_capacity(0);
        q.schedule(SimTime(2 * HOUR), ());
        q.schedule(SimTime(3 * HOUR), ());
        q.pop();
        q.schedule(SimTime(5), ());
        assert_eq!(q.clamped(), 1);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime(2 * HOUR), "clamped event fires at now");
        assert_eq!(q.pop().map(|(t, _)| t), Some(SimTime(3 * HOUR)));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Drive both queues with one script and assert identical
        /// `(time, payload)` streams, then drain both.
        ///
        /// `ops` are `(kind, dt)`: `kind % 4 == 0` pops, anything else
        /// schedules at `now + dt`, so schedules interleave with pops.
        fn replay_and_compare(
            heap: &mut EventQueue<u64>,
            runs: &mut RunsQueue<u64>,
            ops: &[(u8, u64)],
        ) {
            let mut payload = heap.len() as u64;
            for &(kind, dt) in ops {
                if kind % 4 == 0 {
                    assert_eq!(heap.pop(), runs.pop());
                } else {
                    let at = SimTime(heap.now().secs() + dt);
                    heap.schedule(at, payload);
                    runs.schedule(at, payload);
                    payload += 1;
                }
                assert_eq!(heap.len(), EventScheduler::len(runs));
            }
            loop {
                let (h, r) = (heap.pop(), runs.pop());
                assert_eq!(h, r);
                if h.is_none() {
                    break;
                }
            }
            assert_eq!(heap.processed(), runs.processed());
        }

        /// Coarse offsets, so distinct ops often collide on one timestamp.
        fn quantized(ops: &[(u8, u32)]) -> Vec<(u8, u64)> {
            ops.iter()
                .map(|&(kind, dt)| (kind, (dt as u64 % 50) * 900))
                .collect()
        }

        /// The replay's pattern: `streams` monotone runs scheduled up front
        /// (each may start anywhere, so they overlap), then pops
        /// interleaved with out-of-order schedules.
        fn prescheduled(
            streams: &[Vec<u32>],
            ops: &[(u8, u32)],
        ) -> (EventQueue<u64>, RunsQueue<u64>, Vec<(u8, u64)>) {
            let mut heap = EventQueue::new();
            let mut runs = RunsQueue::with_capacity(streams.iter().map(Vec::len).sum());
            let mut payload = 0u64;
            for steps in streams {
                let mut at = 0u64;
                for (k, &step) in steps.iter().enumerate() {
                    // Step 0 repeats a timestamp: ties inside a run.
                    at = if k == 0 {
                        step as u64 * 600
                    } else {
                        at + (step as u64 % 4) * 600
                    };
                    heap.schedule(SimTime(at), payload);
                    runs.schedule(SimTime(at), payload);
                    payload += 1;
                }
            }
            (heap, runs, quantized(ops))
        }

        proptest! {
            /// The runs queue and the binary-heap reference pop identical
            /// `(time, seq)` sequences for arbitrary schedules, including
            /// same-timestamp FIFO ties.
            #[test]
            fn runs_match_heap(ops in prop::collection::vec((0u8..8, 0u32..10_000), 1..300)) {
                replay_and_compare(&mut EventQueue::new(), &mut RunsQueue::with_capacity(0), &quantized(&ops));
            }

            /// Two or three overlapping monotone runs scheduled before the
            /// first pop, then pops interleaved with out-of-order
            /// schedules, as the driver does with arrivals, ticks and
            /// completions.
            #[test]
            fn runs_match_heap_on_prescheduled_streams(
                streams in prop::collection::vec(prop::collection::vec(0u32..40, 1..80), 2..4),
                ops in prop::collection::vec((0u8..8, 0u32..10_000), 1..300),
            ) {
                let (mut heap, mut runs, ops) = prescheduled(&streams, &ops);
                prop_assert!(runs.runs.len() <= streams.len());
                replay_and_compare(&mut heap, &mut runs, &ops);
            }
        }

        #[test]
        fn runs_match_heap_on_tie_storm() {
            // Degenerate deterministic case: everything lands on one
            // timestamp, interleaved with pops.
            let mut ops = vec![(1u8, 0u64); 64];
            ops.extend([(0, 0); 16]);
            ops.extend([(1, 0); 32]);
            replay_and_compare(
                &mut EventQueue::new(),
                &mut RunsQueue::with_capacity(0),
                &ops,
            );
        }
    }
}
