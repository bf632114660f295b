//! A deterministic discrete-event queue.
//!
//! [`EventQueue`] orders events by `(time, sequence)`: events scheduled for
//! the same instant pop in the order they were scheduled, which keeps runs
//! bit-for-bit reproducible regardless of queue internals.
//!
//! Events can be cancelled via the [`EventHandle`] returned at scheduling
//! time; a cancelled event leaves the queue at once.
//!
//! # Implementation: a calendar queue
//!
//! Internally this is a calendar queue (Brown 1988): a ring of `NSLOTS`
//! time buckets of `BUCKET_WIDTH_SECS` each, plus an overflow heap for
//! events beyond the ring's horizon.
//!
//! * An event at absolute time `t` belongs to epoch `⌊t / width⌋` and
//!   lives in slot `epoch mod NSLOTS`. The `cursor` is the epoch of the
//!   most recently popped event. Ring events have epochs in
//!   `[cursor, cursor + NSLOTS)`; overflow events lie at or past that
//!   horizon and move into the ring whenever a pop advances the cursor.
//!   A slot therefore holds one epoch at a time, so bucket order plus
//!   epoch order is exactly the global `(time, seq)` order.
//! * `schedule` appends to its bucket unsorted. A bucket is sorted once,
//!   descending, when the forward scan of a pop or peek first reaches it,
//!   so its earliest event comes off the back with `Vec::pop`. While it
//!   drains, events scheduled into it are binary-inserted.
//! * `cancel` finds the entry in the bucket named by the epoch in its
//!   handle, or in the overflow heap, and removes it. The queue holds
//!   live events only, so `len` is a count and pop checks no liveness.
//!
//! * When the scan moves past a drained bucket that holds more than
//!   twice its share of capacity (twice the mean bucket occupancy, at
//!   least 8 entries), the bucket shrinks to its share. The ring's
//!   capacity then follows the pending count instead of the largest
//!   bucket each slot ever held. The factor of two spares a bucket
//!   that refills to about its share on every pass the reallocation;
//!   the release runs on the scan's bucket-change path, out of line, so
//!   `pop` and `schedule` pay nothing per event; and the bucket gets a
//!   fresh buffer rather than `shrink_to`, whose in-place shrink of a
//!   large buffer made the allocator unmap its tail at every drain.
//!
//! Costs: `schedule` is O(1) (O(bucket) into the bucket being drained,
//! O(log n) into the overflow). `pop` is O(1) plus its share of one
//! O(k log k) sort per bucket of k events and of a forward scan whose
//! total over a run is simulated time / bucket width. `cancel` is a
//! linear search of one bucket, or of the overflow for a far-future event.
//! Memory is the pending events plus bounded slack: a bucket being filled
//! holds at most twice its events (`Vec` doubling), and a drained one at
//! most twice its share, `max(8, 2·⌈pending / NSLOTS⌉)` entries. The
//! overflow heap keeps its largest size, and a bucket emptied by `cancel`
//! keeps its buffer until it next drains by `pop`.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Seconds covered by one calendar bucket. Chosen so typical gaps
/// between consecutive events (tens of milliseconds to a few seconds in
/// the paper's workloads) skip at most a handful of buckets.
const BUCKET_WIDTH_SECS: f64 = 0.25;

/// Buckets in the ring (must be a power of two). With the width above,
/// the ring spans 1024 simulated seconds; rarer far-future events
/// (peer deaths drawn from heavy-tailed lifetimes) sit in the overflow
/// heap until the window reaches them.
const NSLOTS: usize = 4096;
const SLOT_MASK: u64 = NSLOTS as u64 - 1;

/// The least share of the ring's capacity a drained bucket keeps, so a
/// sparse queue does not allocate on every event.
const MIN_SHARE: usize = 8;

/// The calendar epoch (bucket index before wrapping) of an instant.
#[inline]
fn epoch(at: SimTime) -> u64 {
    // f64→u64 casts saturate, so absurdly far times stay monotone.
    (at.as_secs() / BUCKET_WIDTH_SECS) as u64
}

/// An opaque handle identifying a scheduled event, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventHandle {
    seq: u64,
    /// The event's calendar epoch, which tells `cancel` where it waits.
    epoch: u64,
}

#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Scheduled<E> {
    /// The queue's total order, earliest first.
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other.key().cmp(&self.key())
    }
}

/// A time-ordered queue of simulation events.
///
/// # Examples
///
/// ```
/// use simkit::event::EventQueue;
/// use simkit::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2.0), "later");
/// q.schedule(SimTime::from_secs(1.0), "sooner");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t.as_secs(), e), (1.0, "sooner"));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The calendar ring. Buckets hold their events in append order,
    /// except the bucket of epoch `sorted`.
    ring: Vec<Vec<Scheduled<E>>>,
    /// Events in the ring. Zero means every pending event is in
    /// `overflow`.
    ring_count: usize,
    /// Epoch of the most recently popped event; the ring window is
    /// `[cursor, cursor + NSLOTS)`.
    cursor: u64,
    /// The epoch whose bucket is sorted descending by `(at, seq)`, so its
    /// earliest event pops off the back: the bucket the last scan reached.
    sorted: u64,
    /// Events at or beyond the ring horizon, earliest on top.
    overflow: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            ring: (0..NSLOTS).map(|_| Vec::new()).collect(),
            ring_count: 0,
            cursor: 0,
            // An empty bucket is sorted.
            sorted: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// The current simulation instant: the timestamp of the most recently
    /// popped event, never earlier than any previously popped event.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Number of live (non-cancelled) events still pending.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring_count + self.overflow.len()
    }

    /// Returns true if no live events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `event` at absolute time `at` and returns a cancellation
    /// handle.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock — scheduling into
    /// the past would silently reorder causality.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventHandle {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let epoch = epoch(at);
        let entry = Scheduled { at, seq, event };
        if epoch < self.horizon() {
            self.ring_insert(epoch, entry);
        } else {
            self.overflow.push(entry);
        }
        EventHandle { seq, epoch }
    }

    /// The first epoch past the ring window. Saturating: epochs of
    /// instants beyond ~4.6e18 s all saturate to `u64::MAX` and wait in
    /// the overflow heap, which orders them exactly.
    fn horizon(&self) -> u64 {
        self.cursor.saturating_add(NSLOTS as u64)
    }

    /// Adds an entry of `epoch` to its ring bucket: appended, or
    /// binary-inserted if that bucket is the sorted one.
    fn ring_insert(&mut self, epoch: u64, entry: Scheduled<E>) {
        let bucket = &mut self.ring[(epoch & SLOT_MASK) as usize];
        if epoch == self.sorted {
            let idx = bucket.partition_point(|s| s.key() > entry.key());
            bucket.insert(idx, entry);
        } else {
            bucket.push(entry);
        }
        self.ring_count += 1;
    }

    /// Moves overflow events whose epoch has entered the ring window into
    /// the ring.
    fn migrate(&mut self) {
        let horizon = self.horizon();
        while let Some(top) = self.overflow.peek() {
            let epoch = epoch(top.at);
            if epoch >= horizon {
                break;
            }
            let entry = self.overflow.pop().expect("peeked entry exists");
            self.ring_insert(epoch, entry);
        }
    }

    /// Scans the ring window from the cursor for the first non-empty
    /// bucket, sorts it if the scan has not reached it before, and returns
    /// its slot. `None` if the ring is empty.
    fn head_slot(&mut self) -> Option<usize> {
        if self.ring_count == 0 {
            return None;
        }
        let epoch = (self.cursor..self.horizon())
            .find(|&e| !self.ring[(e & SLOT_MASK) as usize].is_empty())
            .expect("ring events lie inside the window");
        let slot = (epoch & SLOT_MASK) as usize;
        if epoch != self.sorted {
            // The scan has moved on, so the previously sorted bucket has
            // usually drained.
            let old = (self.sorted & SLOT_MASK) as usize;
            if self.ring[old].capacity() > 2 * MIN_SHARE {
                self.release(old);
            }
            self.ring[slot].sort_unstable_by_key(|s| Reverse(s.key()));
            self.sorted = epoch;
        }
        Some(slot)
    }

    /// Shrinks the bucket of `slot` to its share, twice the mean bucket
    /// occupancy (at least [`MIN_SHARE`]), if it is empty and holds more
    /// than twice that. Without this a slot keeps the largest buffer it
    /// ever held, and after one ring wrap the ring costs `NSLOTS` × the
    /// peak bucket rather than the pending count. The factor of two spares
    /// a bucket that fills to about its share on every pass from
    /// reallocating on every pass. Out of line: it runs once per drained
    /// bucket, not per pop.
    ///
    /// The bucket gets a fresh buffer rather than `shrink_to`. With glibc
    /// 2.36, shrinking a large buffer in place returned its pages to the
    /// system at every drained bucket, and a hold with a million pending
    /// read about 2 ns slower (2-core Xeon VM); a freed buffer's memory is
    /// reused by the buckets that grow next.
    #[cold]
    #[inline(never)]
    fn release(&mut self, slot: usize) {
        let share = (2 * self.len().div_ceil(NSLOTS)).max(MIN_SHARE);
        let bucket = &mut self.ring[slot];
        if bucket.is_empty() && bucket.capacity() > 2 * share {
            *bucket = Vec::with_capacity(share);
        }
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the handle referred to an event that had not yet
    /// fired or been cancelled; a handle for an event that already fired
    /// is rejected (`false`) and leaves the queue untouched. The event is
    /// removed at once, found by a linear search of its bucket or, if it
    /// still waits beyond the ring horizon, of the overflow heap.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        let EventHandle { seq, epoch } = handle;
        if epoch >= self.horizon() {
            let before = self.overflow.len();
            self.overflow.retain(|s| s.seq != seq);
            return self.overflow.len() < before;
        }
        let bucket = &mut self.ring[(epoch & SLOT_MASK) as usize];
        let Some(i) = bucket.iter().position(|s| s.seq == seq) else {
            return false;
        };
        if epoch == self.sorted {
            bucket.remove(i);
        } else {
            bucket.swap_remove(i);
        }
        self.ring_count -= 1;
        true
    }

    /// Pops the earliest live event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = match self.head_slot() {
            Some(slot) => {
                self.ring_count -= 1;
                self.ring[slot].pop().expect("head bucket is non-empty")
            }
            // The ring is empty, so the overflow's top is the global minimum.
            None => self.overflow.pop()?,
        };
        self.now = s.at;
        self.cursor = epoch(s.at);
        self.popped += 1;
        self.migrate();
        Some((s.at, s.event))
    }

    /// Peeks at the timestamp of the next live event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match self.head_slot() {
            Some(slot) => self.ring[slot].last().map(|s| s.at),
            None => self.overflow.peek().map(|s| s.at),
        }
    }

    /// Entries the ring's buckets can hold without reallocating.
    #[cfg(test)]
    fn ring_capacity(&self) -> usize {
        self.ring.iter().map(Vec::capacity).sum()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), 'c');
        q.schedule(t(1.0), 'a');
        q.schedule(t(2.0), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_pop_in_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), ());
        q.schedule(t(4.0), ());
        q.pop();
        assert_eq!(q.now(), t(1.0));
        q.pop();
        assert_eq!(q.now(), t(4.0));
        assert_eq!(q.events_processed(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(10.0), ());
        q.pop();
        q.schedule(t(5.0), ());
    }

    #[test]
    fn cancel_skips_event() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(t(1.0), 1);
        let _h2 = q.schedule(t(2.0), 2);
        assert!(q.cancel(h1));
        assert!(!q.cancel(h1), "double cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_unknown_handle_is_noop() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventHandle { seq: 42, epoch: 0 }));
    }

    #[test]
    fn cancel_of_already_fired_event_is_rejected() {
        // Regression: the old implementation put the fired seq into the
        // cancelled set forever, permanently skewing `len()` and letting
        // `heap.len() - cancelled.len()` underflow.
        let mut q = EventQueue::new();
        let h1 = q.schedule(t(1.0), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        assert!(!q.cancel(h1), "a fired event cannot be cancelled");
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        // Accounting stays exact for later events.
        let h2 = q.schedule(t(2.0), 2);
        assert_eq!(q.len(), 1);
        assert!(!q.cancel(h1), "still rejected after more scheduling");
        assert!(q.cancel(h2));
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_of_fired_event_never_underflows_len() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1.0), ());
        q.pop();
        q.cancel(h); // must not poison the accounting
        q.cancel(h);
        assert_eq!(q.len(), 0, "len() would have underflowed before the fix");
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1.0), 1);
        q.schedule(t(2.0), 2);
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(t(2.0)));
    }

    #[test]
    fn empty_reporting() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        let h = q.schedule(t(1.0), 0);
        assert!(!q.is_empty());
        q.cancel(h);
        assert!(q.is_empty());
    }

    // ------------------------------------------------------------------
    // Calendar-queue internals: overflow migration and window wrap.
    // ------------------------------------------------------------------

    /// The ring spans `NSLOTS * BUCKET_WIDTH_SECS` seconds.
    fn horizon_secs() -> f64 {
        NSLOTS as f64 * BUCKET_WIDTH_SECS
    }

    #[test]
    fn far_future_events_pop_in_order() {
        // Events far beyond the ring horizon start in the overflow heap
        // and must still pop in exact (time, seq) order.
        let mut q = EventQueue::new();
        let far = horizon_secs() * 3.0;
        q.schedule(t(far + 1.0), 'd');
        q.schedule(t(0.5), 'a');
        q.schedule(t(far), 'c');
        q.schedule(t(1.0), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn overflow_ties_keep_schedule_order() {
        let mut q = EventQueue::new();
        let far = horizon_secs() * 2.0;
        for i in 0..50 {
            q.schedule(t(far), i);
        }
        // Drain: all events migrate from overflow into the ring together.
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn cancelled_overflow_events_are_skipped() {
        let mut q = EventQueue::new();
        let far = horizon_secs() * 2.0;
        let h = q.schedule(t(far), 1);
        q.schedule(t(far + 1.0), 2);
        assert!(q.cancel(h));
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn window_slides_as_time_advances() {
        // March time forward over several full ring wraps, scheduling a
        // short-gap event after each pop; order and clock must stay exact.
        let mut q = EventQueue::new();
        q.schedule(t(0.0), 0u64);
        let mut hops = 0u64;
        let gap = horizon_secs() / 3.0 + 0.1; // forces regular slot reuse
        while let Some((now, k)) = q.pop() {
            assert_eq!(k, hops);
            assert_eq!(q.now(), now);
            hops += 1;
            if hops < 20 {
                q.schedule(now + crate::time::SimDuration::from_secs(gap), hops);
            }
        }
        assert_eq!(hops, 20);
        assert_eq!(q.events_processed(), 20);
    }

    #[test]
    fn slot_reuse_across_epochs_keeps_order() {
        // Two events exactly one ring-span apart share a slot; the
        // near one must pop first, then the far one (initially overflow).
        let mut q = EventQueue::new();
        q.schedule(t(1.0), 'n');
        q.schedule(t(1.0 + horizon_secs()), 'f');
        assert_eq!(q.pop().map(|(_, e)| e), Some('n'));
        assert_eq!(q.pop().map(|(_, e)| e), Some('f'));
    }

    #[test]
    fn peek_time_sees_overflow_only_queues() {
        let mut q = EventQueue::new();
        let far = horizon_secs() * 2.0;
        q.schedule(t(far), ());
        assert_eq!(q.peek_time(), Some(t(far)));
        assert_eq!(q.pop().map(|(at, ())| at), Some(t(far)));
    }

    #[test]
    fn instants_past_the_saturated_epoch_pop_in_order() {
        // Epochs saturate at u64::MAX beyond ~4.6e18 s; once such an
        // event has popped, the ring horizon must not overflow.
        let mut q = EventQueue::new();
        q.schedule(t(1e30), 1);
        q.schedule(t(2e30), 3);
        assert_eq!(q.pop(), Some((t(1e30), 1)));
        q.schedule(t(1.5e30), 2);
        assert_eq!(q.peek_time(), Some(t(1.5e30)));
        assert_eq!(q.pop(), Some((t(1.5e30), 2)));
        assert_eq!(q.pop(), Some((t(2e30), 3)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ring_capacity_follows_pending_events() {
        // A ping-like load: every event fires again one 30 s period
        // later, so the events crowd into the 120 buckets of the coming
        // period while the other slots sit drained. Without the release,
        // each slot keeps its largest buffer, and after one ring wrap the
        // ring holds about NSLOTS × the peak bucket.
        const PENDING: usize = 50_000;
        const PERIOD: f64 = 30.0;
        let mut rng = crate::rng::RngStream::from_seed(7, "ring-capacity");
        let mut q = EventQueue::new();
        for i in 0..PENDING {
            q.schedule(t(rng.f64() * PERIOD), i);
        }
        let bound = 4 * PENDING + 8 * NSLOTS;
        let end = 3.5 * horizon_secs();
        let mut next_check = 0.0;
        let mut worst = 0;
        while let Some((now, i)) = q.pop() {
            if now.as_secs() >= end {
                break;
            }
            q.schedule(now + crate::time::SimDuration::from_secs(PERIOD), i);
            if now.as_secs() >= next_check {
                worst = worst.max(q.ring_capacity());
                next_check += 10.0;
            }
        }
        assert_eq!(q.len(), PENDING - 1);
        println!("ring capacity: worst {worst} entries for {PENDING} pending (bound {bound})");
        assert!(
            worst <= bound,
            "ring capacity reached {worst} entries for {PENDING} pending; the bound is {bound}"
        );
    }

    // ------------------------------------------------------------------
    // Property test: the calendar queue agrees with a reference
    // BinaryHeap implementation on randomized schedules, including
    // cancels, duplicate times, and cancel-after-fire.
    // ------------------------------------------------------------------

    /// The old heap-based queue, reimplemented minimally as the oracle.
    struct RefQueue {
        heap: BinaryHeap<Scheduled<u64>>,
        pending: std::collections::HashSet<u64>,
        next_seq: u64,
        now: SimTime,
    }

    impl RefQueue {
        fn new() -> Self {
            RefQueue {
                heap: BinaryHeap::new(),
                pending: std::collections::HashSet::new(),
                next_seq: 0,
                now: SimTime::ZERO,
            }
        }

        fn schedule(&mut self, at: SimTime) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pending.insert(seq);
            self.heap.push(Scheduled {
                at,
                seq,
                event: seq,
            });
            seq
        }

        fn cancel(&mut self, seq: u64) -> bool {
            self.pending.remove(&seq)
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            while let Some(s) = self.heap.pop() {
                if !self.pending.remove(&s.seq) {
                    continue;
                }
                self.now = s.at;
                return Some((s.at, s.event));
            }
            None
        }

        fn peek_time(&mut self) -> Option<SimTime> {
            while let Some(s) = self.heap.peek() {
                if self.pending.contains(&s.seq) {
                    return Some(s.at);
                }
                self.heap.pop();
            }
            None
        }
    }

    #[test]
    fn randomized_schedules_match_the_heap_oracle() {
        use crate::rng::RngStream;
        use crate::time::SimDuration;

        for trial in 0..20u64 {
            let mut rng = RngStream::from_seed(0xCA1E + trial, "calendar-prop");
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut oracle = RefQueue::new();
            // Handles by payload (the oracle's seq == payload by design;
            // the real queue's handles are tracked side by side).
            let mut handles: Vec<(u64, EventHandle)> = Vec::new();

            for _ in 0..2000 {
                match rng.below(10) {
                    // Schedule, biased toward near times, with duplicate
                    // instants and occasional far-future (overflow) times.
                    0..=5 => {
                        let gap = match rng.below(4) {
                            0 => 0.0, // duplicate of `now`
                            1 => rng.f64() * 1.0,
                            2 => rng.f64() * 50.0,
                            _ => rng.f64() * horizon_secs() * 2.5,
                        };
                        let at = oracle.now + SimDuration::from_secs(gap);
                        let seq = oracle.schedule(at);
                        let h = q.schedule(at, seq);
                        handles.push((seq, h));
                    }
                    // Cancel a random known handle: maybe live, maybe
                    // already fired (cancel-after-fire), maybe cancelled.
                    6..=7 => {
                        if !handles.is_empty() {
                            let (seq, h) = handles[rng.below(handles.len())];
                            assert_eq!(q.cancel(h), oracle.cancel(seq), "cancel({seq})");
                        }
                    }
                    // Pop.
                    _ => {
                        let got = q.pop();
                        let want = oracle.pop();
                        assert_eq!(got, want, "pop mismatch (trial {trial})");
                        if let Some((at, _)) = got {
                            assert_eq!(q.now(), at);
                        }
                    }
                }
                assert_eq!(q.len(), oracle.pending.len(), "len drift (trial {trial})");
            }
            // Drain both completely; tails must agree too.
            loop {
                let got = q.pop();
                let want = oracle.pop();
                assert_eq!(got, want, "drain mismatch (trial {trial})");
                if got.is_none() {
                    break;
                }
            }
            assert!(q.is_empty());
        }
    }

    // ------------------------------------------------------------------
    // The same oracle at thousands of events per bucket and with the
    // access patterns the kernels use, checking `len()` after every step.
    // ------------------------------------------------------------------

    /// The queue and the oracle driven in lockstep: every call asserts
    /// that both agree, `len()` included. Payloads are the oracle's seqs,
    /// which index `handles`.
    struct Twin {
        q: EventQueue<u64>,
        oracle: RefQueue,
        handles: Vec<EventHandle>,
    }

    impl Twin {
        fn new() -> Self {
            Twin {
                q: EventQueue::new(),
                oracle: RefQueue::new(),
                handles: Vec::new(),
            }
        }

        /// Schedules an event `gap` seconds after the clock.
        fn schedule(&mut self, gap: f64) -> u64 {
            let at = self.oracle.now + crate::time::SimDuration::from_secs(gap);
            let seq = self.oracle.schedule(at);
            self.handles.push(self.q.schedule(at, seq));
            self.check_len();
            seq
        }

        fn cancel(&mut self, seq: u64) -> bool {
            let got = self.q.cancel(self.handles[seq as usize]);
            assert_eq!(got, self.oracle.cancel(seq), "cancel({seq})");
            self.check_len();
            got
        }

        /// Cancels an event drawn from every handle ever issued: live,
        /// fired or already cancelled.
        fn cancel_any(&mut self, rng: &mut crate::rng::RngStream) -> bool {
            let seq = rng.below(self.handles.len()) as u64;
            self.cancel(seq)
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let got = self.q.pop();
            assert_eq!(got, self.oracle.pop(), "pop");
            if let Some((at, _)) = got {
                assert_eq!(self.q.now(), at);
            }
            self.check_len();
            got
        }

        fn peek(&mut self) -> Option<SimTime> {
            let got = self.q.peek_time();
            assert_eq!(got, self.oracle.peek_time(), "peek_time");
            self.check_len();
            got
        }

        fn check_len(&self) {
            assert_eq!(self.q.len(), self.oracle.pending.len(), "len");
        }

        fn drain(&mut self) {
            while self.pop().is_some() {}
            assert!(self.q.is_empty());
        }
    }

    #[test]
    fn thousands_per_bucket_match_the_heap_oracle() {
        let mut rng = crate::rng::RngStream::from_seed(0xDE5E, "calendar-dense");
        let mut twin = Twin::new();
        // 40 000 events over 20 buckets: ~2 000 per bucket.
        for _ in 0..40_000 {
            twin.schedule(rng.f64() * 5.0);
        }
        for _ in 0..60_000 {
            match rng.below(10) {
                0..=4 => {
                    twin.schedule(rng.f64() * 5.0);
                }
                5 => {
                    twin.cancel_any(&mut rng);
                }
                _ => {
                    twin.pop();
                }
            }
        }
        twin.drain();
    }

    #[test]
    fn schedules_into_the_draining_bucket_match_the_heap_oracle() {
        let mut rng = crate::rng::RngStream::from_seed(0xD7A1, "calendar-drain");
        let mut twin = Twin::new();
        for _ in 0..5_000 {
            twin.schedule(rng.f64() * 2.0);
        }
        for _ in 0..40_000 {
            match rng.below(10) {
                // Gap 0 lands at the clock; a gap under one bucket width
                // lands in the bucket being drained or the next one.
                0 | 1 => {
                    twin.schedule(0.0);
                }
                2..=4 => {
                    twin.schedule(rng.f64() * BUCKET_WIDTH_SECS);
                }
                5 => {
                    twin.schedule(rng.f64() * 2.0);
                }
                6 => {
                    twin.cancel_any(&mut rng);
                }
                _ => {
                    twin.pop();
                }
            }
        }
        twin.drain();
    }

    #[test]
    fn peek_then_pop_windows_match_the_heap_oracle() {
        // The lane kernel's loop: peek, stop at the window edge, else pop
        // and let the handler schedule follow-ups; deliveries from other
        // lanes arrive between windows.
        let mut rng = crate::rng::RngStream::from_seed(0x9EE4, "calendar-peek");
        let mut twin = Twin::new();
        for _ in 0..10_000 {
            twin.schedule(rng.f64() * 10.0);
        }
        let mut edge = 0.0;
        for _ in 0..400 {
            edge += rng.f64() * 2.0 * BUCKET_WIDTH_SECS;
            while let Some(at) = twin.peek() {
                if at.as_secs() >= edge {
                    break;
                }
                twin.pop();
                for _ in 0..rng.below(3) {
                    let gap = match rng.below(3) {
                        0 => 0.0,
                        1 => rng.f64() * BUCKET_WIDTH_SECS,
                        _ => rng.f64() * 10.0,
                    };
                    twin.schedule(gap);
                }
                if rng.below(10) == 0 {
                    twin.cancel_any(&mut rng);
                }
            }
            // Lands ahead of, inside or behind the bucket the peek reached.
            twin.schedule(rng.f64());
        }
        twin.drain();
    }

    #[test]
    fn overflow_cancels_before_and_after_migration_match_the_heap_oracle() {
        let span = horizon_secs();
        let mut twin = Twin::new();
        // Past the horizon at scheduling time, so both groups start in the
        // overflow heap; `near` enters the ring window once the clock
        // passes 0.5 spans, `far` stays out until the clock passes 2.
        let near: Vec<u64> = (0..3_000)
            .map(|i| twin.schedule(span * 1.5 + f64::from(i) * 0.01))
            .collect();
        let far: Vec<u64> = (0..3_000)
            .map(|i| twin.schedule(span * 3.0 + f64::from(i) * 0.01))
            .collect();
        for &seq in near.iter().chain(&far).step_by(3) {
            assert!(twin.cancel(seq), "cancel before migration");
        }
        // March the clock to 0.75 spans.
        while twin.oracle.now.as_secs() < span * 0.75 {
            twin.schedule(10.0);
            twin.pop();
        }
        for &seq in near.iter().chain(&far).skip(1).step_by(3) {
            assert!(twin.cancel(seq), "cancel after migration");
        }
        for &seq in near.iter().chain(&far).step_by(3) {
            assert!(!twin.cancel(seq), "second cancel");
        }
        twin.drain();
    }

    #[test]
    fn cancel_after_fire_and_double_cancel_match_the_heap_oracle() {
        let mut rng = crate::rng::RngStream::from_seed(0xF12E, "calendar-cancel");
        let mut twin = Twin::new();
        for _ in 0..20_000 {
            match rng.below(6) {
                0 | 1 => {
                    let gap = match rng.below(4) {
                        0 => 0.0,
                        1 => rng.f64() * BUCKET_WIDTH_SECS,
                        2 => rng.f64() * 50.0,
                        _ => rng.f64() * horizon_secs() * 2.5,
                    };
                    twin.schedule(gap);
                }
                2 if !twin.handles.is_empty() => {
                    let seq = rng.below(twin.handles.len()) as u64;
                    if twin.cancel(seq) {
                        assert!(!twin.cancel(seq), "double cancel of {seq}");
                    }
                }
                3 => {
                    if let Some((_, seq)) = twin.pop() {
                        assert!(!twin.cancel(seq), "cancel after fire of {seq}");
                    }
                }
                _ => {
                    twin.pop();
                }
            }
        }
        twin.drain();
    }
}
