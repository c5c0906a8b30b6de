//! The fit-indexed waiting queue.
//!
//! EASY backfill's inner loop asks one question millions of times per run:
//! *which queued jobs, in arrival order, could start right now without
//! delaying the blocked head job?* A flat `Vec` answers it by scanning the
//! whole queue per dispatch — on saturated scenarios that scan was ~50 % of
//! total wall time, and almost every visited job was rejected: either its
//! gang didn't fit the free GPUs, or it fit but failed the shadow-time test
//! (too long to finish before the head's reservation, too big for the spare
//! GPUs at the shadow).
//!
//! [`WaitQueue`] stores the queue once in arrival order and additionally
//! indexes live entries by **(gang size, ⌊log₂ duration⌋)** class. Backfill
//! iterates a position-ordered merge over only the classes that could still
//! produce an accept ([`WaitQueue::backfill_candidates`]):
//!
//! * classes whose gang exceeds the free GPUs are dropped (and re-dropped
//!   as `free` shrinks mid-dispatch);
//! * classes whose *entire duration range* exceeds the shadow window are
//!   dropped once the spare-GPU budget can no longer admit their size —
//!   every member would fail both accept conditions, so skipping them is
//!   decision-invisible;
//! * the single *boundary* class straddling the shadow window is examined
//!   item-by-item (its members need the exact duration test): the class
//!   lists store each entry's exact duration, so the iterator applies
//!   that test itself and skips the provable rejects without yielding
//!   them — every candidate yielded is an accept.
//!
//! Rejected candidates never mutate scheduler state, so pruning provable
//! rejects class-wise yields exactly the accepts of the classic full scan,
//! in exactly the same order — the driver's golden determinism test pins
//! this bit-for-bit, while visits collapse from *O(queue depth)* to
//! *O(accepts)* per dispatch (~13 M → ~60 K class-pruned, then
//! to the accepts alone once the boundary class was filtered member-wise
//! on the saturated 90-day benchmark).
//!
//! Structure:
//!
//! * `slots` — arrival-ordered entries in a ring, `slots[0]` at logical
//!   position `base`; a removed entry leaves a tombstone until the front
//!   of the queue compacts past it, and compaction pops the consumed
//!   slots off the ring and advances `base`. Positions are therefore
//!   stable for the lifetime of an entry, which is what keeps the
//!   per-class index lists sorted by construction, while the ring holds
//!   only the span from the oldest live entry to the newest.
//! * `classes[size · NB + bucket]` — ascending positions of live entries in
//!   that (gang size, duration bucket) class. Pushes append (positions
//!   increase monotonically); removals binary-search.
//! * `pos_of` — job id → position, for O(1) removal when the driver applies
//!   a dispatch decision.

use greener_simkit::fastmap::FastMap;
use greener_workload::JobId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::policy::QueuedJob;

/// Smallest duration exponent given its own bucket (2⁴ = 16 s); shorter
/// durations share bucket 0.
const MIN_EXP: u32 = 4;
/// Largest duration exponent given its own bucket (2²⁴ s ≈ 194 days);
/// longer durations share the top bucket.
const MAX_EXP: u32 = 24;
/// Number of duration buckets per gang size.
const NB: u32 = MAX_EXP - MIN_EXP + 1;

/// Bucket index for a nominal duration in seconds.
#[inline]
fn dur_bucket(d_secs: u64) -> u32 {
    let exp = 63 - (d_secs | 1).leading_zeros();
    exp.clamp(MIN_EXP, MAX_EXP) - MIN_EXP
}

/// Smallest duration a member of `bucket` can have.
#[inline]
fn bucket_lower(bucket: u32) -> u64 {
    if bucket == 0 {
        0
    } else {
        1u64 << (bucket + MIN_EXP)
    }
}

/// Largest duration a member of `bucket` can have.
#[cfg(test)]
fn bucket_upper(bucket: u32) -> u64 {
    if bucket == NB - 1 {
        u64::MAX
    } else {
        (1u64 << (bucket + MIN_EXP + 1)) - 1
    }
}

/// An arrival-ordered waiting queue with a (gang size × duration) fit
/// index.
///
/// See the module docs for the design. The driver owns one per run;
/// wrapper policies that present a filtered view (the carbon-aware gate)
/// keep a second one as reusable scratch.
#[derive(Debug, Default)]
pub struct WaitQueue {
    /// Arrival-ordered entries from the oldest live one on; `None` marks a
    /// removed entry (tombstone). The front is live whenever the queue is
    /// not empty.
    slots: VecDeque<Option<QueuedJob>>,
    /// Logical position of `slots[0]`; everything before it is consumed.
    base: usize,
    /// Number of live entries.
    live: usize,
    /// `classes[size · NB + bucket]` = `(position, duration secs)` of live
    /// entries of that (gang size, duration bucket) class, ascending by
    /// position. The exact duration rides along so the boundary duration
    /// class can be filtered member-wise without touching `slots`.
    classes: Vec<Vec<(u32, u64)>>,
    /// Class indices holding entries since the last `clear` (so `clear`
    /// touches only used classes, not the whole sparse table — the
    /// carbon-gate scratch queue clears once per dispatch).
    touched: Vec<u32>,
    /// Membership flags for `touched`, so repeated empty→non-empty
    /// transitions of a class (remove-then-push churn on long-lived
    /// queues) cannot grow `touched` beyond one entry per class.
    touched_flag: Vec<bool>,
    /// Job id → slot position of live entries.
    pos_of: FastMap<JobId, u32>,
}

impl WaitQueue {
    /// An empty queue.
    pub fn new() -> WaitQueue {
        WaitQueue::default()
    }

    /// An empty queue with room for `cap` entries.
    pub fn with_capacity(cap: usize) -> WaitQueue {
        WaitQueue {
            slots: VecDeque::with_capacity(cap),
            ..WaitQueue::default()
        }
    }

    /// Number of waiting jobs.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no jobs are waiting.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The index class of a job.
    #[inline]
    fn class_of(q: &QueuedJob) -> u32 {
        q.job.gpus * NB + dur_bucket(q.job.nominal_duration().0)
    }

    /// Append a job at the back of the queue.
    pub fn push(&mut self, q: QueuedJob) {
        let pos = (self.base + self.slots.len()) as u32;
        let class = Self::class_of(&q) as usize;
        if class >= self.classes.len() {
            self.classes.resize_with(class + 1, Vec::new);
            self.touched_flag.resize(class + 1, false);
        }
        if !self.touched_flag[class] {
            self.touched_flag[class] = true;
            self.touched.push(class as u32);
        }
        // Positions grow monotonically, so appending keeps the list sorted.
        self.classes[class].push((pos, q.job.nominal_duration().0));
        self.pos_of.insert(q.job.id, pos);
        self.slots.push_back(Some(q));
        self.live += 1;
    }

    /// The live entry at a position previously yielded by
    /// [`WaitQueue::live_positions`].
    ///
    /// # Panics
    /// If the position was consumed since it was yielded.
    pub fn at(&self, pos: u32) -> &QueuedJob {
        self.slot(pos).expect("position refers to a live entry")
    }

    /// The entry at a logical position not yet consumed.
    #[inline]
    fn slot(&self, pos: u32) -> Option<&QueuedJob> {
        self.slots[pos as usize - self.base].as_ref()
    }

    /// Look up a waiting job by id.
    pub fn get(&self, id: JobId) -> Option<&QueuedJob> {
        let &pos = self.pos_of.get(&id)?;
        self.slot(pos)
    }

    /// Remove a job by id, returning it. The front of the queue compacts
    /// past any tombstones this leaves behind.
    pub fn remove(&mut self, id: JobId) -> Option<QueuedJob> {
        let pos = self.pos_of.remove(&id)?;
        let q = self.slots[pos as usize - self.base]
            .take()
            .expect("pos_of points at live slots");
        let list = &mut self.classes[Self::class_of(&q) as usize];
        let i = list
            .binary_search_by_key(&pos, |&(p, _)| p)
            .expect("live entry is in its class list");
        list.remove(i);
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(q)
    }

    /// Drop everything (retaining allocated capacity for refills).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.base = 0;
        self.live = 0;
        self.pos_of.clear();
        for &class in &self.touched {
            self.classes[class as usize].clear();
            self.touched_flag[class as usize] = false;
        }
        self.touched.clear();
    }

    /// Iterate live jobs in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &QueuedJob> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }

    /// Iterate `(position, job)` pairs of live jobs in arrival order.
    /// Positions are stable identifiers usable with
    /// [`WaitQueue::backfill_candidates`].
    pub fn live_positions(&self) -> impl Iterator<Item = (u32, &QueuedJob)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| s.as_ref().map(|q| ((self.base + i) as u32, q)))
    }

    /// A fit-indexed iterator over live jobs at positions strictly after
    /// `after`, in arrival order, pruned to candidates that could still be
    /// accepted by EASY backfill given:
    ///
    /// * `free` — GPUs free right now (classes with bigger gangs drop);
    /// * `d_max` — the shadow window in seconds: candidates finishing
    ///   within it are accepted unconditionally, so duration classes
    ///   entirely within `d_max` always qualify;
    /// * `spare` — the spare-GPU budget at the shadow: duration classes
    ///   entirely *beyond* `d_max` qualify only while their gang fits it.
    ///
    /// `free` and `spare` are re-passed (non-increasing) on every
    /// [`FitIter::next`] call so classes drop as the budgets shrink —
    /// mirroring exactly which jobs a full arrival-order scan with the same
    /// shrinking budgets could accept. The iterator additionally applies
    /// the per-member duration test inside the boundary duration class, so
    /// *every* candidate yielded satisfies one of the two accept conditions
    /// under the budgets passed to that `next` call (the caller keeps the
    /// authoritative test; it just stops seeing the provable rejects).
    ///
    /// Pass `d_max = u64::MAX` for a pure size-fit iteration (every
    /// duration class qualifies unconditionally).
    pub fn backfill_candidates(
        &self,
        after: u32,
        free: u32,
        d_max: u64,
        spare: u32,
    ) -> FitIter<'_> {
        let max_size = (self.classes.len() as u32).div_ceil(NB).saturating_sub(1);
        let mut heap = BinaryHeap::with_capacity(32);
        for size in 1..=max_size.min(free) {
            for bucket in 0..NB {
                let class = size * NB + bucket;
                let Some(list) = self.classes.get(class as usize) else {
                    continue;
                };
                if list.is_empty() {
                    continue;
                }
                // A "long" class (every member outlives the shadow window)
                // only qualifies while its gang fits the spare budget.
                if bucket_lower(bucket) > d_max && size > spare {
                    continue;
                }
                // First candidate strictly after `after`.
                let cur = list.partition_point(|&(p, _)| p <= after);
                if cur < list.len() {
                    heap.push(Reverse((list[cur].0, class, cur as u32)));
                }
            }
        }
        FitIter {
            q: self,
            d_max,
            heap,
        }
    }
}

impl FromIterator<QueuedJob> for WaitQueue {
    fn from_iter<T: IntoIterator<Item = QueuedJob>>(iter: T) -> WaitQueue {
        let mut q = WaitQueue::new();
        for j in iter {
            q.push(j);
        }
        q
    }
}

/// Position-ordered merge over the qualifying (size, duration) classes of
/// a [`WaitQueue`]. Produced by [`WaitQueue::backfill_candidates`].
#[derive(Debug)]
pub struct FitIter<'a> {
    q: &'a WaitQueue,
    /// Shadow window (seconds) fixed at creation.
    d_max: u64,
    /// Min-heap of `(next position, class, cursor index)` — one entry per
    /// active class, keyed by that class's earliest unvisited position.
    heap: BinaryHeap<Reverse<(u32, u32, u32)>>,
}

impl<'a> FitIter<'a> {
    /// The next candidate in arrival order that could still be accepted
    /// under the current budgets.
    ///
    /// `free` and `spare` must be ≤ every value passed previously (backfill
    /// only consumes GPUs); classes they disqualify are discarded
    /// permanently, exactly like a full scan with shrinking budgets would
    /// skip their members. Skipped boundary-class rejects are likewise discarded permanently — sound for the same reason: the
    /// duration test is fixed at creation and the spare budget only
    /// shrinks, so a provable reject can never become an accept later.
    pub fn next(&mut self, free: u32, spare: u32) -> Option<&'a QueuedJob> {
        while let Some(Reverse((pos, class, cur))) = self.heap.pop() {
            let size = class / NB;
            let bucket = class % NB;
            // Budgets only shrink, so a class that no longer qualifies
            // never re-qualifies: drop it wholesale (don't re-push).
            if size > free {
                continue;
            }
            if bucket_lower(bucket) > self.d_max && size > spare {
                continue;
            }
            let list = &self.q.classes[class as usize];
            let mut cur = cur as usize;
            debug_assert_eq!(list[cur].0, pos);
            if size > spare && list[cur].1 > self.d_max {
                // Boundary-class provable reject (outlives the shadow
                // window, gang exceeds the spare budget): walk past the
                // contiguous run of rejects and re-queue the first member
                // that could still be accepted, so the position-ordered
                // merge stays intact without yielding the rejects.
                loop {
                    cur += 1;
                    if cur >= list.len() {
                        break;
                    }
                    if list[cur].1 <= self.d_max {
                        self.heap.push(Reverse((list[cur].0, class, cur as u32)));
                        break;
                    }
                }
                continue;
            }
            if cur + 1 < list.len() {
                self.heap
                    .push(Reverse((list[cur + 1].0, class, cur as u32 + 1)));
            }
            return Some(self.q.slot(pos).expect("fit index holds live positions"));
        }
        None
    }
}

/// Running waiting-queue depth statistics — the scheduler-side hook for
/// queue-depth observation.
///
/// The driver's `QueueDepthProbe` (and anything else that samples queue
/// depth, e.g. the perfjson benchmark snapshot) feeds one depth sample per
/// observation into this accumulator instead of retaining a depth series:
/// max and mean are exact over the samples, and memory stays O(1)
/// regardless of horizon. Samples are whatever cadence the caller picks —
/// the driver samples at the top of every simulated hour, matching the
/// queue-depth column hourly telemetry used to carry.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DepthStats {
    /// Deepest observed queue.
    pub max: u32,
    /// Sum of observed depths (for the mean).
    pub sum: f64,
    /// Number of samples observed.
    pub samples: usize,
}

impl DepthStats {
    /// A fresh accumulator.
    pub fn new() -> DepthStats {
        DepthStats::default()
    }

    /// Record one queue-depth sample.
    pub fn record(&mut self, depth: u32) {
        self.max = self.max.max(depth);
        self.sum += depth as f64;
        self.samples += 1;
    }

    /// Mean observed depth (0 before any sample).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum / self.samples as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::qjob;

    fn ids(q: &WaitQueue) -> Vec<u64> {
        q.iter().map(|j| j.job.id.0).collect()
    }

    /// Drain a size-only fit iteration (`d_max = MAX`).
    fn drain_fit(q: &WaitQueue, after: u32, budget: u32) -> Vec<u64> {
        let mut it = q.backfill_candidates(after, budget, u64::MAX, 0);
        let mut seen = Vec::new();
        while let Some(j) = it.next(budget, 0) {
            seen.push(j.job.id.0);
        }
        seen
    }

    #[test]
    fn depth_stats_track_max_and_mean() {
        let mut d = DepthStats::new();
        assert_eq!(d.mean(), 0.0);
        for depth in [3u32, 0, 5, 2] {
            d.record(depth);
        }
        assert_eq!(d.max, 5);
        assert_eq!(d.samples, 4);
        assert!((d.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn push_iter_preserves_arrival_order() {
        let q: WaitQueue = [qjob(3, 2, 1.0), qjob(1, 4, 1.0), qjob(2, 2, 1.0)]
            .into_iter()
            .collect();
        assert_eq!(ids(&q), vec![3, 1, 2]);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn remove_by_id_and_compaction() {
        let mut q: WaitQueue = (0..5).map(|i| qjob(i, 1, 1.0)).collect();
        assert!(q.remove(JobId(2)).is_some());
        assert_eq!(ids(&q), vec![0, 1, 3, 4]);
        // Removing the front compacts head past the earlier tombstone.
        assert!(q.remove(JobId(0)).is_some());
        assert!(q.remove(JobId(1)).is_some());
        assert_eq!(ids(&q), vec![3, 4]);
        assert!(q.remove(JobId(2)).is_none(), "double remove");
        assert_eq!(q.len(), 2);
        assert!(q.get(JobId(3)).is_some());
        assert!(q.get(JobId(1)).is_none());
    }

    #[test]
    fn consumed_slots_are_released_and_positions_stay_stable() {
        let mut q = WaitQueue::new();
        for i in 0..1_000 {
            q.push(qjob(i, 1, 1.0));
            if i % 2 == 1 {
                q.remove(JobId(i - 1));
                q.remove(JobId(i));
            }
        }
        assert!(q.is_empty());
        assert!(q.slots.is_empty(), "consumed slots are popped off the ring");
        // Positions keep counting from where the ring left off, so a later
        // entry's position still orders after every earlier one.
        q.push(qjob(7_000, 2, 1.0));
        q.push(qjob(7_001, 4, 1.0));
        let positions: Vec<u32> = q.live_positions().map(|(p, _)| p).collect();
        assert_eq!(positions, vec![1_000, 1_001]);
        assert_eq!(q.at(1_001).job.id, JobId(7_001));
        assert_eq!(drain_fit(&q, 1_000, 8), vec![7_001]);
        q.remove(JobId(7_000));
        assert_eq!(q.slots.len(), 1);
        assert_eq!(q.get(JobId(7_001)).unwrap().job.gpus, 4);
    }

    #[test]
    fn fit_iter_visits_fitting_jobs_in_arrival_order() {
        // Sizes: 8, 2, 16, 4, 2 at positions 0..5, mixed durations so the
        // merge crosses duration buckets too.
        let q: WaitQueue = [
            qjob(10, 8, 1.0),
            qjob(11, 2, 9.0),
            qjob(12, 16, 1.0),
            qjob(13, 4, 0.5),
            qjob(14, 2, 30.0),
        ]
        .into_iter()
        .collect();
        // After position 0 with budget 4: jobs 11 (2), 13 (4), 14 (2).
        assert_eq!(drain_fit(&q, 0, 4), vec![11, 13, 14]);
    }

    #[test]
    fn fit_iter_drops_classes_as_budget_shrinks() {
        let q: WaitQueue = [
            qjob(1, 4, 1.0),
            qjob(2, 2, 1.0),
            qjob(3, 4, 1.0),
            qjob(4, 1, 1.0),
        ]
        .into_iter()
        .collect();
        let mut it = q.backfill_candidates(0, 4, u64::MAX, 0);
        // Budget 4 admits job 2 (pos 1) first…
        assert_eq!(it.next(4, 0).unwrap().job.id.0, 2);
        // …then the budget shrinks to 1: the size-4 class (job 3) is
        // dropped and job 4 is the only remaining candidate.
        assert_eq!(it.next(1, 0).unwrap().job.id.0, 4);
        assert!(it.next(1, 0).is_none());
    }

    #[test]
    fn fit_iter_skips_removed_entries() {
        let mut q: WaitQueue = (0..6).map(|i| qjob(i, 2, 1.0)).collect();
        q.remove(JobId(2));
        q.remove(JobId(4));
        assert_eq!(drain_fit(&q, 0, 8), vec![1, 3, 5]);
    }

    #[test]
    fn long_classes_drop_without_spare_budget() {
        // A blocked head at position 0, then one short job (30 min, fits
        // the 1 h window) among long jobs (100 h, far beyond it). With no
        // spare budget, the long classes are pruned wholesale; the short
        // job still comes through.
        let q: WaitQueue = [
            qjob(9, 16, 1.0), // blocked head (candidates start after it)
            qjob(1, 2, 100.0),
            qjob(2, 2, 0.5),
            qjob(3, 2, 100.0),
            qjob(4, 4, 100.0),
        ]
        .into_iter()
        .collect();
        let d_max = 3_600; // 1 h shadow window
        let mut it = q.backfill_candidates(0, 8, d_max, 0);
        assert_eq!(it.next(8, 0).unwrap().job.id.0, 2);
        assert!(it.next(8, 0).is_none(), "long jobs are provable rejects");
        // With spare budget 2, the size-2 long jobs qualify again (in
        // arrival order), the size-4 one stays pruned.
        let mut it = q.backfill_candidates(0, 8, d_max, 2);
        let mut seen = Vec::new();
        while let Some(j) = it.next(8, 2) {
            seen.push(j.job.id.0);
        }
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn boundary_class_filters_provable_rejects() {
        // d_max falls inside a bucket: job 1 (1.2 h) fits the window, job 2
        // (1.8 h) outlives it with no spare budget — a provable reject,
        // filtered member-wise. Position 0 is the blocked head.
        let q: WaitQueue = [qjob(9, 16, 1.0), qjob(1, 2, 1.2), qjob(2, 2, 1.8)]
            .into_iter()
            .collect();
        let d_max = (1.5 * 3_600.0) as u64;
        let mut it = q.backfill_candidates(0, 8, d_max, 0);
        let mut seen = Vec::new();
        while let Some(j) = it.next(8, 0) {
            seen.push(j.job.id.0);
        }
        assert_eq!(seen, vec![1], "the boundary reject is filtered");
        // With spare budget for the gang, job 2 is yielded too (the
        // spare-GPU accept condition holds).
        let mut it = q.backfill_candidates(0, 8, d_max, 2);
        let mut seen = Vec::new();
        while let Some(j) = it.next(8, 2) {
            seen.push(j.job.id.0);
        }
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn clear_retains_reusability() {
        let mut q: WaitQueue = (0..4).map(|i| qjob(i, 2, 1.0)).collect();
        q.clear();
        assert!(q.is_empty());
        q.push(qjob(9, 2, 1.0));
        assert_eq!(ids(&q), vec![9]);
        // Position 0 is the only entry; `after = 0` excludes it.
        assert!(drain_fit(&q, 0, 8).is_empty());
    }

    #[test]
    fn duration_buckets_are_contiguous_and_exhaustive() {
        // Every duration maps to exactly one bucket whose bounds contain
        // it, and bucket ranges tile [0, u64::MAX].
        let mut prev_upper: Option<u64> = None;
        for b in 0..NB {
            let (lo, hi) = (bucket_lower(b), bucket_upper(b));
            assert!(lo <= hi);
            if let Some(p) = prev_upper {
                assert_eq!(lo, p + 1, "gap before bucket {b}");
            }
            prev_upper = Some(hi);
        }
        assert_eq!(prev_upper, Some(u64::MAX));
        for d in [0u64, 1, 15, 16, 31, 32, 3_600, 86_400, 1 << 23, 1 << 30] {
            let b = dur_bucket(d);
            assert!(
                bucket_lower(b) <= d && d <= bucket_upper(b),
                "duration {d} outside bucket {b}"
            );
        }
    }

    mod props {
        use super::*;
        use crate::policy::testutil::qjob_at;
        use greener_simkit::time::SimTime;
        use proptest::prelude::*;

        proptest! {
            /// The fit iterator yields exactly what a full arrival-order
            /// scan with the same (non-increasing) size budget yields when
            /// no duration pruning applies.
            #[test]
            fn fit_iter_matches_full_scan(
                sizes in prop::collection::vec(1u32..9, 1..60),
                removals in prop::collection::vec(0usize..60, 0..20),
                budget0 in 1u32..12,
            ) {
                let mut q = WaitQueue::new();
                for (i, &g) in sizes.iter().enumerate() {
                    q.push(qjob(i as u64, g, 1.0));
                }
                for &r in &removals {
                    if r < sizes.len() {
                        q.remove(JobId(r as u64));
                    }
                }
                // Reference: full scan over live entries after position 0,
                // shrinking the budget by each accepted job's size.
                let mut budget = budget0;
                let mut want = Vec::new();
                for (pos, j) in q.live_positions() {
                    if pos == 0 { continue; }
                    if j.job.gpus <= budget {
                        want.push(j.job.id.0);
                        budget -= j.job.gpus;
                    }
                }
                let mut budget = budget0;
                let mut got = Vec::new();
                let mut it = q.backfill_candidates(0, budget, u64::MAX, 0);
                while let Some(j) = it.next(budget, 0) {
                    got.push(j.job.id.0);
                    budget -= j.job.gpus;
                }
                prop_assert_eq!(got, want);
            }

            /// Duration pruning is sound: with arbitrary (fixed) budgets,
            /// the iterator yields *exactly* the jobs a full arrival-order
            /// scan would accept (the member-wise boundary filter removes
            /// every provable reject and nothing else), in arrival order.
            #[test]
            fn pruning_never_hides_an_accept(
                jobs in prop::collection::vec((1u32..9, 1u64..200_000), 1..50),
                free in 1u32..12,
                spare in 0u32..12,
                d_max in 0u64..300_000,
            ) {
                let mut q = WaitQueue::new();
                for (i, &(g, d_secs)) in jobs.iter().enumerate() {
                    q.push(qjob_at(i as u64, g, d_secs as f64 / 3_600.0, SimTime::ZERO));
                }
                // Reference accepts under *fixed* budgets.
                let mut accepts = Vec::new();
                for (pos, j) in q.live_positions() {
                    if pos == 0 { continue; }
                    let g = j.job.gpus;
                    let d = j.job.nominal_duration().0;
                    if g <= free && (d <= d_max || g <= spare) {
                        accepts.push(j.job.id.0);
                    }
                }
                // after=0 semantics: skip position 0 like the scan above.
                let mut it = q.backfill_candidates(0, free, d_max, spare);
                let mut yielded = Vec::new();
                while let Some(j) = it.next(free, spare) {
                    yielded.push(j.job.id.0);
                }
                // Yielded == reference accepts, in order.
                prop_assert_eq!(&yielded, &accepts);
            }
        }
    }
}
