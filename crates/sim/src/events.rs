//! A deterministic event queue.
//!
//! Events fire in `(time, insertion order)` order, so two events scheduled
//! for the same instant always pop in the order they were pushed. This is
//! what makes whole-cluster runs bit-for-bit reproducible for a given seed.
//!
//! The backing store is a `BinaryHeap` ordered on `(time, seq)`: O(log n)
//! per operation with a small constant factor. Cluster runs keep only
//! hundreds to low thousands of events pending, so the queue is a small
//! share of a run's time.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// The event-queue backend. There is one: the binary heap.
///
/// Kept only because the repository benchmark (`perfbench/`) prints the
/// resolved default as `scheduler=heap`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// Binary heap: O(log n) push/pop.
    #[default]
    Heap,
}

impl SchedulerKind {
    /// Short lowercase name (`"heap"`), for reports.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Heap => "heap",
        }
    }
}

/// An event plus its firing time, as stored in the queue.
#[derive(Debug, Clone)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Tie-break sequence number (insertion order).
    seq: u64,
    /// The payload.
    pub event: E,
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
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Priority queue of timestamped events with stable FIFO tie-breaking.
///
/// The queue owns the virtual clock: [`pop`](EventQueue::pop) advances
/// [`now`](EventQueue::now) to the popped event's firing time, and
/// scheduling in the past clamps to `now` (asserting in debug builds).
///
/// ```
/// use mantle_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule_at(SimTime::from_millis(2), "late");
/// q.schedule_at(SimTime::from_millis(1), "early");
/// q.schedule_at(SimTime::from_millis(1), "early-but-second");
///
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "early-but-second")));
/// assert_eq!(q.now(), SimTime::from_millis(1));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(2), "late")));
/// assert!(q.is_empty());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current virtual time: the firing time of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller; the kernel
    /// clamps it to `now` so time never goes backwards, and debug builds
    /// assert.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "scheduled event in the past");
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Schedule `event` after a relative delay from `now`.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedule `event` at `at` under an explicit tie-break key instead of
    /// the queue's insertion counter.
    ///
    /// Same-instant events pop in ascending key order. The cluster engine
    /// stamps every event with a key that encodes the simulated entity
    /// that produced it, so tie-breaking depends on who generated an event
    /// rather than on when it was pushed. Keys must be unique per instant;
    /// don't mix keyed and auto-seq scheduling in one queue unless the key
    /// spaces are disjoint.
    pub fn schedule_at_key(&mut self, at: SimTime, key: u64, event: E) {
        debug_assert!(at >= self.now, "scheduled event in the past");
        let at = at.max(self.now);
        self.heap.push(Scheduled {
            at,
            seq: key,
            event,
        });
    }

    /// Pop the next event, advancing the clock to its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let popped = self.heap.pop().map(|s| (s.at, s.event));
        popped.inspect(|&(at, _)| self.now = at)
    }

    /// Pop the next event only if it fires strictly before `limit`,
    /// returning its key. Declined pops leave the queue (and the clock)
    /// untouched — the windowed cluster engine drains its data plane with
    /// this.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, u64, E)> {
        if self.heap.peek().is_none_or(|s| s.at >= limit) {
            return None;
        }
        let popped = self.heap.pop().map(|s| (s.at, s.seq, s.event));
        popped.inspect(|&(at, ..)| self.now = at)
    }

    /// Firing time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(30), "c");
        q.schedule_at(SimTime::from_millis(10), "a");
        q.schedule_at(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_in(SimTime::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(7));
        // Relative scheduling now uses the advanced clock.
        q.schedule_in(SimTime::from_millis(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(10)));
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_in(SimTime::ZERO, 1);
        q.schedule_in(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn default_is_heap() {
        let q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(SchedulerKind::default(), SchedulerKind::Heap);
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "debug_assert only fires in debug builds"
    )]
    #[should_panic(expected = "scheduled event in the past")]
    fn scheduling_in_the_past_asserts_in_debug() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), ());
        q.pop();
        q.schedule_at(SimTime::from_millis(5), ());
    }

    #[test]
    fn explicit_keys_order_same_instant_events() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        q.schedule_at_key(t, 30, "c");
        q.schedule_at_key(t, 10, "a");
        q.schedule_at_key(t, 20, "b");
        let limit = t + SimTime::from_micros(1);
        assert_eq!(q.pop_before(limit), Some((t, 10, "a")));
        assert_eq!(q.pop_before(limit), Some((t, 20, "b")));
        assert_eq!(q.pop_before(limit), Some((t, 30, "c")));
    }

    #[test]
    fn pop_before_is_exclusive_and_non_destructive() {
        let mut q = EventQueue::new();
        q.schedule_at_key(SimTime::from_micros(100), 1, "x");
        q.schedule_at_key(SimTime::from_micros(300), 2, "y");
        assert_eq!(q.pop_before(SimTime::from_micros(100)), None);
        assert_eq!(q.len(), 2);
        assert_eq!(
            q.pop_before(SimTime::from_micros(101)),
            Some((SimTime::from_micros(100), 1, "x"))
        );
        assert_eq!(q.pop_before(SimTime::from_micros(200)), None);
        assert_eq!(
            q.now(),
            SimTime::from_micros(100),
            "declined pop holds the clock"
        );
        assert_eq!(
            q.pop_before(SimTime::from_micros(301)),
            Some((SimTime::from_micros(300), 2, "y"))
        );
    }

    /// Arbitrary interleavings of scheduling and popping, including
    /// same-instant bursts and far-future events, pop exactly like a
    /// stable sort on `(time, insertion order)`.
    #[test]
    fn matches_a_sorted_reference_on_mixed_interleaving() {
        let mut q = EventQueue::new();
        let mut reference: Vec<(SimTime, u64)> = Vec::new();
        let mut rng = crate::SimRng::new(0xD1FF).stream("events-mixed");
        let mut next_id = 0u64;
        let pop_both = |q: &mut EventQueue<u64>, reference: &mut Vec<(SimTime, u64)>| {
            let expected = (!reference.is_empty()).then(|| reference.remove(0));
            assert_eq!(q.pop(), expected);
            expected.is_some()
        };
        for round in 0..2_000 {
            let burst = 1 + (rng.next_u64() % 4) as usize;
            for _ in 0..burst {
                let delay = match rng.next_u64() % 10 {
                    0..=5 => rng.next_u64() % 1_000,             // sub-ms
                    6..=7 => rng.next_u64() % 20_000_000,        // ≤ 20 s
                    8 => 0,                                      // same instant
                    _ => (1 << 37) + rng.next_u64() % (1 << 20), // far future
                };
                let at = q.now() + SimTime::from_micros(delay);
                q.schedule_at(at, next_id);
                // Ids grow with insertion, so sorting on (time, id) is
                // the stable order the queue promises.
                let pos = reference.partition_point(|&e| e <= (at, next_id));
                reference.insert(pos, (at, next_id));
                next_id += 1;
            }
            if round % 3 != 0 {
                pop_both(&mut q, &mut reference);
            }
        }
        while pop_both(&mut q, &mut reference) {}
    }
}
