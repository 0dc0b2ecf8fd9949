//! Deterministic future-event queue.
//!
//! Events are keyed by `(Time, sequence)`. The sequence number is
//! assigned at scheduling time and breaks ties between simultaneous events,
//! so the pop order is a pure function of the schedule calls — independent
//! of queue internals, hash seeds, or platform. Two runs that schedule the
//! same events in the same order pop them in the same order, which is the
//! foundation of the byte-identical-trace guarantee.
//!
//! Two backends implement that contract behind [`EventQueue`]:
//!
//! * [`QueueBackend::BinaryHeap`] — a binary min-heap, `O(log n)` per
//!   operation, the original PR 4 structure and still the default;
//! * [`QueueBackend::Calendar`] — a calendar queue (Brown 1988): events
//!   hash into time-ordered buckets of width `w`, so at steady state a
//!   schedule is a short sorted insert into one bucket and a pop scans
//!   forward from a cursor, both amortized `O(1)`. At campaign scale
//!   (10⁶+ pending events) this trades the heap's deep cache-missing
//!   sift chains for short, contiguous bucket touches.
//!
//! Backend choice affects throughput only — `tests/queue_backends.rs`
//! property-checks that both produce identical `(Time, seq)` pop
//! sequences on arbitrary interleaved schedules.

use crate::clock::Time;
use crate::event::Event;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// An event stamped with its firing time and scheduling sequence number.
#[derive(Debug, Clone, Copy)]
pub struct Scheduled {
    /// Instant at which the event fires.
    pub at: Time,
    /// Monotone sequence number assigned when the event was scheduled.
    /// Simultaneous events fire in ascending `seq` order.
    pub seq: u64,
    /// The event payload.
    pub event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

/// Which pending-event structure backs an [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueBackend {
    /// Binary min-heap: `O(log n)` per operation. The default.
    #[default]
    BinaryHeap,
    /// Calendar queue: time-bucketed, amortized `O(1)` per operation at
    /// steady state; built for campaign-scale pending sets.
    Calendar,
}

impl QueueBackend {
    /// Both backends, for head-to-head benchmarks.
    pub const ALL: [QueueBackend; 2] = [QueueBackend::BinaryHeap, QueueBackend::Calendar];

    /// Stable label used in benchmark JSON and trend lines.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            QueueBackend::BinaryHeap => "binary-heap",
            QueueBackend::Calendar => "calendar",
        }
    }
}

/// Calendar-queue sizing bounds: buckets stay within `[4, 2^22]` so a
/// degenerate schedule can neither thrash resizes nor exhaust memory on
/// bucket headers alone.
const MIN_BUCKETS: usize = 4;
const MAX_BUCKETS: usize = 1 << 22;

/// Events per bucket the resize policy aims for. Near-empty buckets
/// (the textbook ~1) make every probe a cache miss across a huge
/// header array; a short sorted run per bucket keeps the header array
/// hot and the intra-bucket insert a single-cache-line memmove.
const TARGET_OCCUPANCY: usize = 8;

/// A calendar queue: `nbuckets` (a power of two) "days" of `width`
/// seconds each; an event at time `t` lives in virtual bucket
/// `floor(t / width)`, physically at `vb mod nbuckets`. Buckets keep
/// their events sorted *descending* by `(at, seq)` so the bucket minimum
/// pops from the `Vec` tail in `O(1)`.
///
/// A pop scans at most one "year" (all buckets) forward from a cursor
/// parked at the last known minimum; a schedule earlier than the cursor
/// pulls the cursor back, so the scan invariant — no pending event lives
/// before the cursor's virtual bucket — always holds. When a year scan
/// finds nothing (events sparser than `nbuckets * width`), a direct
/// min-scan across bucket tails resolves the pop and re-parks the
/// cursor. Resizes re-target [`TARGET_OCCUPANCY`] events per bucket as
/// the population drifts past 2× / below ¼ of that target and
/// re-estimate the width from the pending span, amortizing to `O(1)`
/// per operation.
#[derive(Debug)]
struct CalendarQueue {
    buckets: Vec<Vec<Scheduled>>,
    /// Reciprocal of the seconds spanned by one bucket; multiplying is
    /// cheaper than dividing in the per-operation hash.
    inv_width: f64,
    /// Virtual bucket the pop cursor is parked at.
    cur_vb: i64,
    len: usize,
}

impl CalendarQueue {
    fn new() -> Self {
        CalendarQueue {
            buckets: vec![Vec::new(); MIN_BUCKETS],
            inv_width: 1.0,
            cur_vb: 0,
            len: 0,
        }
    }

    /// Virtual (un-wrapped) bucket index of `t`, saturated to i64 range.
    /// Any positive factor keeps this monotone in `t`, which is all
    /// correctness needs; the factor only tunes occupancy.
    fn vb_of(&self, t: Time) -> i64 {
        let raw = (t.seconds().get() * self.inv_width).floor();
        #[allow(clippy::cast_possible_truncation)] // clamped to i64-representable range below
        {
            raw.clamp(-9.0e18, 9.0e18) as i64 // cast-ok: clamped bucket index to integer
        }
    }

    /// Physical bucket index of virtual bucket `vb`.
    fn idx_of(&self, vb: i64) -> usize {
        let n = self.buckets.len() as i64; // cast-ok: bucket count bounded by MAX_BUCKETS
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        // rem_euclid is in [0, n)
        {
            vb.rem_euclid(n) as usize // cast-ok: non-negative remainder to index
        }
    }

    fn push(&mut self, s: Scheduled) {
        if self.len + 1 > self.buckets.len() * TARGET_OCCUPANCY * 2
            && self.buckets.len() < MAX_BUCKETS
        {
            self.rebuild(self.len + 1);
        }
        let vb = self.vb_of(s.at);
        if self.len == 0 || vb < self.cur_vb {
            self.cur_vb = vb;
        }
        let idx = self.idx_of(vb);
        let bucket = &mut self.buckets[idx];
        let pos = bucket.partition_point(|x| x.cmp(&s) == Ordering::Greater);
        bucket.insert(pos, s);
        self.len += 1;
    }

    fn pop(&mut self) -> Option<Scheduled> {
        if self.len == 0 {
            return None;
        }
        let n = self.buckets.len() as i64; // cast-ok: bucket count bounded by MAX_BUCKETS
                                           // Scan one year forward from the cursor: the first bucket tail
                                           // that belongs to its virtual bucket is the global minimum. The
                                           // bucket count is always a power of two, so the physical index
                                           // advances by mask-wrap instead of a division per step.
        let mask = self.buckets.len() - 1;
        let mut idx = self.idx_of(self.cur_vb);
        for step in 0..n {
            let vb = self.cur_vb + step;
            if let Some(last) = self.buckets[idx].last() {
                if self.vb_of(last.at) == vb {
                    self.cur_vb = vb;
                    let s = self.buckets[idx].pop();
                    self.len -= 1;
                    self.maybe_shrink();
                    return s;
                }
            }
            idx = (idx + 1) & mask;
        }
        // Events are sparser than one year: direct min-scan of the
        // bucket tails, then re-park the cursor at the found minimum.
        let mut best_idx = 0usize;
        let mut best_key: Option<(Time, u64)> = None;
        for (i, b) in self.buckets.iter().enumerate() {
            if let Some(last) = b.last() {
                let key = (last.at, last.seq);
                if best_key.is_none_or(|bk| key < bk) {
                    best_key = Some(key);
                    best_idx = i;
                }
            }
        }
        let s = self.buckets[best_idx].pop();
        if let Some(sch) = s {
            self.cur_vb = self.vb_of(sch.at);
            self.len -= 1;
            self.maybe_shrink();
        }
        s
    }

    fn maybe_shrink(&mut self) {
        if self.len < self.buckets.len() * TARGET_OCCUPANCY / 4 && self.buckets.len() > MIN_BUCKETS
        {
            self.rebuild(self.len.max(1));
        }
    }

    /// Re-sizes to `target / TARGET_OCCUPANCY` buckets (rounded up to a
    /// power of two) and re-estimates the width from the pending span,
    /// then redistributes every event.
    fn rebuild(&mut self, target: usize) {
        let mut items: Vec<Scheduled> = self.buckets.iter_mut().flat_map(std::mem::take).collect();
        // Descending global sort: each bucket then receives its events
        // already in descending order, so plain pushes keep the
        // sorted-bucket invariant.
        items.sort_unstable_by(|a, b| b.cmp(a));
        let nbuckets = (target / TARGET_OCCUPANCY)
            .max(1)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        self.inv_width = 1.0 / estimate_width(&items, nbuckets);
        self.buckets = vec![Vec::new(); nbuckets];
        self.len = items.len();
        self.cur_vb = items.last().map_or(0, |min| self.vb_of(min.at));
        for s in items {
            let idx = self.idx_of(self.vb_of(s.at));
            self.buckets[idx].push(s);
        }
    }
}

/// Bucket width sizing one year (`nbuckets * width`) at 1.25× the
/// pending span, so pops cover the whole span without wrapping while
/// each spanned bucket holds close to [`TARGET_OCCUPANCY`] events.
/// `items` must be sorted descending. Degenerate spans (empty, single
/// instant) fall back to 1 s.
fn estimate_width(items: &[Scheduled], nbuckets: usize) -> f64 {
    if items.len() < 2 {
        return 1.0;
    }
    let max = items[0].at.seconds().get();
    let min = items[items.len() - 1].at.seconds().get();
    let span = max - min;
    if span <= 0.0 || !span.is_finite() {
        return 1.0;
    }
    (1.25 * span / nbuckets as f64).max(1.0e-9) // cast-ok: bucket count to divisor
}

#[derive(Debug)]
enum Inner {
    Heap(BinaryHeap<Reverse<Scheduled>>),
    Calendar(CalendarQueue),
}

/// The future-event list.
#[derive(Debug)]
pub struct EventQueue {
    inner: Inner,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty binary-heap-backed queue.
    #[must_use]
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::BinaryHeap)
    }

    /// An empty queue on the chosen backend.
    #[must_use]
    pub fn with_backend(backend: QueueBackend) -> Self {
        let inner = match backend {
            QueueBackend::BinaryHeap => Inner::Heap(BinaryHeap::new()),
            QueueBackend::Calendar => Inner::Calendar(CalendarQueue::new()),
        };
        EventQueue { inner, next_seq: 0 }
    }

    /// Which backend this queue runs on.
    #[must_use]
    pub fn backend(&self) -> QueueBackend {
        match self.inner {
            Inner::Heap(_) => QueueBackend::BinaryHeap,
            Inner::Calendar(_) => QueueBackend::Calendar,
        }
    }

    /// Schedule `event` to fire at `at`; returns the assigned sequence
    /// number. Events at equal times fire in scheduling order.
    pub fn schedule(&mut self, at: Time, event: Event) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        match &mut self.inner {
            Inner::Heap(heap) => heap.push(Reverse(Scheduled { at, seq, event })),
            Inner::Calendar(cal) => cal.push(Scheduled { at, seq, event }),
        }
        seq
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<Scheduled> {
        match &mut self.inner {
            Inner::Heap(heap) => heap.pop().map(|Reverse(s)| s),
            Inner::Calendar(cal) => cal.pop(),
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Heap(heap) => heap.len(),
            Inner::Calendar(cal) => cal.len,
        }
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled on this queue.
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::seconds;

    #[test]
    fn pops_in_time_order() {
        for backend in QueueBackend::ALL {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(Time::at(seconds(5.0)), Event::Dispatch);
            q.schedule(Time::at(seconds(1.0)), Event::Returned { charger: 0 });
            q.schedule(Time::at(seconds(3.0)), Event::Dispatch);
            let order: Vec<f64> = std::iter::from_fn(|| q.pop())
                .map(|s| s.at.seconds().get())
                .collect();
            assert_eq!(order, vec![1.0, 3.0, 5.0], "{}", backend.label());
        }
    }

    #[test]
    fn simultaneous_events_fire_in_scheduling_order() {
        for backend in QueueBackend::ALL {
            let mut q = EventQueue::with_backend(backend);
            let t = Time::at(seconds(2.0));
            let a = q.schedule(t, Event::Returned { charger: 7 });
            let b = q.schedule(t, Event::Dispatch);
            assert!(a < b);
            let first = q.pop().unwrap();
            let second = q.pop().unwrap();
            assert_eq!(first.event, Event::Returned { charger: 7 });
            assert_eq!(second.event, Event::Dispatch);
            assert_eq!((first.seq, second.seq), (a, b));
        }
    }

    #[test]
    fn backends_agree_through_resizes_and_interleaving() {
        // Enough events to force the calendar through several grow and
        // shrink rebuilds, with a deterministic pseudo-random schedule
        // and interleaved pops (reinsert-after-pop, as invalidation-heavy
        // engine runs produce).
        let mut heap = EventQueue::new();
        let mut cal = EventQueue::with_backend(QueueBackend::Calendar);
        assert_eq!(heap.backend(), QueueBackend::BinaryHeap);
        assert_eq!(cal.backend(), QueueBackend::Calendar);
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut pending = 0usize;
        let mut popped = Vec::new();
        for round in 0..2000 {
            let t = Time::at(seconds((rand() % 100_000) as f64 / 8.0)); // cast-ok: bounded random tick to seconds
            heap.schedule(t, Event::Dispatch);
            cal.schedule(t, Event::Dispatch);
            pending += 1;
            // Pop in bursts so the population swings widely.
            let burst = if round % 5 == 0 { 3 } else { 0 };
            for _ in 0..burst.min(pending) {
                let a = heap.pop().unwrap();
                let b = cal.pop().unwrap();
                assert_eq!((a.at, a.seq), (b.at, b.seq));
                popped.push((a.at, a.seq));
                pending -= 1;
            }
        }
        while let Some(a) = heap.pop() {
            let b = cal.pop().unwrap();
            assert_eq!((a.at, a.seq), (b.at, b.seq));
            popped.push((a.at, a.seq));
        }
        assert!(cal.is_empty());
        let mut sorted = popped.clone();
        sorted.sort();
        // Within each drain burst order is globally sorted; across
        // bursts it need not be, but both backends agreed pairwise on
        // every pop, and every event came out exactly once.
        assert_eq!(popped.len(), 2000);
        assert_eq!(
            sorted
                .iter()
                .map(|p| p.1)
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            2000
        );
    }

    #[test]
    fn calendar_handles_sparse_far_apart_events() {
        // Events much sparser than one calendar year exercise the
        // fallback min-scan and cursor re-parking.
        let mut q = EventQueue::with_backend(QueueBackend::Calendar);
        for i in 0..8u32 {
            q.schedule(Time::at(seconds(f64::from(i) * 1.0e6)), Event::Dispatch);
        }
        let mut last = None;
        while let Some(s) = q.pop() {
            if let Some(prev) = last {
                assert!(s.at > prev);
            }
            last = Some(s.at);
        }
        assert_eq!(last, Some(Time::at(seconds(7.0e6))));
    }

    #[test]
    fn counters_track_scheduling() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Time::ZERO, Event::Dispatch);
        q.schedule(Time::ZERO, Event::Dispatch);
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }
}
