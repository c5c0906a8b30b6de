//! A minimal, stable-ordered discrete-event engine.
//!
//! [`EventQueue`] is a priority queue of `(SimTime, E)` pairs. Events at the
//! same timestamp pop in insertion order (FIFO), which removes a whole class
//! of nondeterminism bugs from heap-based simulators. The clock is enforced
//! monotone: scheduling in the past panics in debug builds and is clamped to
//! "now" in release builds; either way the clamp is counted and exposed via
//! [`EventQueue::clamped`], so release-mode drivers can assert the count is
//! zero instead of silently reordering events.
//!
//! The replay driver's reference engine runs on this queue, and its pop
//! order is the replay semantics: the default engine merges its three
//! pre-sorted streams (arrivals, hourly ticks, completions) in exactly the
//! `(time, seq)` order this queue pops them in.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled at a time, with a sequence number for FIFO tie-breaks.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Insertion sequence (unique per queue).
    pub seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first,
        // then lowest sequence number (FIFO) among ties.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Discrete-event queue with a monotone clock.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    now: SimTime,
    next_seq: u64,
    processed: u64,
    clamped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> EventQueue<E> {
        EventQueue::with_capacity(0)
    }

    /// An empty queue sized for roughly `events` total schedules.
    pub fn with_capacity(events: usize) -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::with_capacity(events),
            now: SimTime::ZERO,
            next_seq: 0,
            processed: 0,
            clamped: 0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of `schedule` calls whose timestamp lay in the past and was
    /// clamped to `now`. A correct driver never clamps; this counter exists
    /// so release builds can detect the (debug-panicking) FIFO-order hazard
    /// instead of silently absorbing it.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Schedule `event` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
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
        self.heap.push(ScheduledEvent { at, seq, event });
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ev = self.heap.pop()?;
        debug_assert!(ev.at >= self.now, "event queue clock went backwards");
        self.now = ev.at;
        self.processed += 1;
        Some((ev.at, ev.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), ());
        q.schedule(SimTime(50), ());
        let (t1, _) = q.pop().unwrap();
        let (t2, _) = q.pop().unwrap();
        assert!(t1 <= t2);
        assert_eq!(q.now(), SimTime(100));
    }

    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    #[cfg(debug_assertions)]
    fn scheduling_in_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), ());
        q.pop();
        q.schedule(SimTime(5), ());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn clamped_counts_past_schedules_in_release() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), ());
        q.pop();
        assert_eq!(q.clamped(), 0);
        q.schedule(SimTime(5), ()); // in the past: clamped to now=10
        assert_eq!(q.clamped(), 1);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime(10), "clamped event fires at now");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Whatever the schedule order, events always pop time-sorted and
            /// same-time events preserve insertion order.
            #[test]
            fn pop_order_is_sorted_and_stable(times in prop::collection::vec(0u64..1_000, 1..200)) {
                let mut q = EventQueue::new();
                for (i, &t) in times.iter().enumerate() {
                    q.schedule(SimTime(t), i);
                }
                let mut last: Option<(SimTime, usize)> = None;
                while let Some((t, idx)) = q.pop() {
                    if let Some((lt, lidx)) = last {
                        prop_assert!(t >= lt);
                        if t == lt {
                            prop_assert!(idx > lidx, "FIFO violated at t={t}");
                        }
                    }
                    last = Some((t, idx));
                }
            }
        }
    }
}
