//! The pending-event store: a calendar queue tuned for simulation workloads.
//!
//! The engine dispatches events in `(time, insertion-sequence)` order. The
//! original implementation was a `BinaryHeap<Queued>` — O(log n) per
//! operation and cache-hostile once hundreds of thousands of events are
//! pending. This module replaces it with a **calendar queue** (Brown 1988,
//! as refined by ladder queues): pushes append to a coarse time bucket in
//! O(1), and ordering work is deferred until a bucket becomes *current*,
//! when its handful of events is sorted once.
//!
//! ## Structure
//!
//! Events live in one of four tiers, ordered by proximity to the clock:
//!
//! 1. `now_fifo` — events scheduled *at the instant currently dispatching*.
//!    Sequence numbers are globally monotonic, so a plain FIFO is exact
//!    `(at, seq)` order for them; same-instant sends cost a `VecDeque`
//!    push/pop and no comparisons.
//! 2. `cur` — the sorted run of the bucket being drained. Future-but-soon
//!    pushes that land inside the already-activated window binary-search
//!    into it.
//! 3. `buckets` — a wheel of `N_BUCKETS` equal-width time windows. Pushes
//!    below the horizon append to their window unsorted.
//! 4. `overflow` — everything at or beyond the horizon, unsorted. When the
//!    wheel drains, the queue *re-anchors*: a fresh epoch and an adaptive
//!    bucket width are derived from the overflow's time span and the events
//!    are redistributed (each event moves tiers at most O(1) times per
//!    epoch, keeping the amortized cost constant).
//!
//! ## Determinism
//!
//! The only externally observable behaviour is the pop order, and every
//! tier preserves exact `(at, seq)` order: `now_fifo` by the monotonic-seq
//! argument, `cur` by sortedness, and the wheel/overflow because events
//! only leave them through `cur`. The `#[cfg(test)]` [`BinaryHeapQueue`] is
//! the retained reference oracle; property tests drive both queues with
//! identical randomized push/pop streams and assert identical dispatch
//! order (see the tests at the bottom of this file).

use std::collections::VecDeque;

use crate::actor::ActorId;
use crate::time::SimTime;

/// Number of wheel buckets. Large enough that a re-anchor spreads pending
/// events thinly (sorts stay short), small enough that sweeping empty
/// buckets between sparse events is cheap.
const N_BUCKETS: usize = 1024;

/// What a queued event will deliver.
pub(crate) enum Payload {
    /// [`crate::Event::Start`] for a freshly spawned actor.
    Start,
    /// A timer firing; `slot`/`gen` identify the arming (see `sim.rs` —
    /// a stale `gen` means the timer was cancelled or rescheduled).
    Timer { slot: u32, gen: u32, tag: u64 },
    /// A boxed message.
    Msg {
        from: ActorId,
        msg: Box<dyn crate::actor::Msg>,
    },
}

/// One pending event. Dispatch order is ascending `(at, seq)`.
pub(crate) struct Queued {
    pub at: SimTime,
    pub seq: u64,
    pub target: ActorId,
    pub payload: Payload,
}

/// The calendar queue. See the module docs for the tier layout.
pub(crate) struct CalendarQueue {
    /// Events at exactly `self.now` (the instant currently dispatching).
    now_fifo: VecDeque<Queued>,
    /// Sorted run of the activated bucket; consumed from the front.
    cur: VecDeque<Queued>,
    /// Exclusive end of the window `cur` was filled from. Pushes with
    /// `at < cur_end` binary-search into `cur`.
    cur_end: SimTime,
    /// The wheel: bucket `i` covers `[epoch + i*width, epoch + (i+1)*width)`.
    buckets: Vec<Vec<Queued>>,
    /// Next wheel bucket to activate.
    cursor: usize,
    /// Start instant of bucket 0 for the current epoch.
    epoch: SimTime,
    /// Bucket width in nanoseconds (re-derived at each re-anchor).
    width: u64,
    /// Events at or beyond the horizon, unsorted.
    overflow: Vec<Queued>,
    /// Scratch for re-anchoring (retains its allocation between epochs).
    spill: Vec<Queued>,
    /// Instant of the most recently popped event.
    now: SimTime,
    /// Total pending events across all tiers.
    len: usize,
}

impl CalendarQueue {
    pub fn new() -> Self {
        CalendarQueue {
            now_fifo: VecDeque::new(),
            cur: VecDeque::new(),
            cur_end: SimTime::ZERO,
            buckets: (0..N_BUCKETS).map(|_| Vec::new()).collect(),
            // Cursor at the end forces the first non-immediate pop to
            // re-anchor, which derives the initial epoch and width from
            // the actual workload instead of a guess.
            cursor: N_BUCKETS,
            epoch: SimTime::ZERO,
            width: 1,
            overflow: Vec::new(),
            spill: Vec::new(),
            now: SimTime::ZERO,
            len: 0,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// First instant beyond the wheel for the current epoch.
    #[inline]
    fn horizon(&self) -> SimTime {
        SimTime::from_nanos(
            self.epoch
                .as_nanos()
                .saturating_add(self.width.saturating_mul(N_BUCKETS as u64)),
        )
    }

    pub fn push(&mut self, q: Queued) {
        self.len += 1;
        if q.at == self.now {
            // Same-instant send while that instant dispatches: seq is
            // globally monotonic, so FIFO order *is* (at, seq) order.
            self.now_fifo.push_back(q);
        } else if q.at < self.cur_end {
            // Lands inside the window already promoted to `cur` (this also
            // absorbs the theoretical at < now case after a harness moved
            // the clock backwards with a past deadline: the event sorts to
            // the front and pops next).
            let idx = self.cur.partition_point(|e| e.at <= q.at);
            if idx == self.cur.len() {
                self.cur.push_back(q);
            } else {
                self.cur.insert(idx, q);
            }
        } else if self.cursor < N_BUCKETS && q.at < self.horizon() {
            // A fully swept wheel (cursor at the end, including the initial
            // state) routes everything to overflow; the next re-anchor
            // redistributes.
            let idx = ((q.at.as_nanos() - self.epoch.as_nanos()) / self.width) as usize;
            debug_assert!(idx >= self.cursor);
            self.buckets[idx].push(q);
        } else {
            self.overflow.push(q);
        }
    }

    /// Instant of the next event to pop, or `None` when empty. Advances
    /// internal cursors (never the pop order).
    pub fn next_at(&mut self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        self.settle();
        match (self.now_fifo.front(), self.cur.front()) {
            (Some(nf), Some(c)) => Some(nf.at.min(c.at)),
            (Some(nf), None) => Some(nf.at),
            (None, Some(c)) => Some(c.at),
            (None, None) => unreachable!("settle found no front in a non-empty queue"),
        }
    }

    pub fn pop(&mut self) -> Option<Queued> {
        if self.len == 0 {
            return None;
        }
        self.settle();
        // `now_fifo` entries sit at `self.now`; nothing pending is earlier.
        // A `cur` entry at the same instant was pushed before anything in
        // the FIFO (monotonic seq), so it wins ties.
        let from_cur = match (self.now_fifo.front(), self.cur.front()) {
            (Some(nf), Some(c)) => c.at <= nf.at,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (None, None) => unreachable!("settle found no front in a non-empty queue"),
        };
        let q = if from_cur {
            self.cur.pop_front()
        } else {
            self.now_fifo.pop_front()
        }
        .expect("front checked above");
        self.len -= 1;
        self.now = q.at;
        Some(q)
    }

    /// Ensures the next event (if any) is at the front of `now_fifo` or
    /// `cur`, activating wheel buckets and re-anchoring as needed.
    fn settle(&mut self) {
        debug_assert!(self.len > 0);
        while self.now_fifo.is_empty() && self.cur.is_empty() {
            if self.cursor < N_BUCKETS {
                let bucket = &mut self.buckets[self.cursor];
                self.cursor += 1;
                self.cur_end = SimTime::from_nanos(
                    self.epoch
                        .as_nanos()
                        .saturating_add(self.width.saturating_mul(self.cursor as u64)),
                );
                if !bucket.is_empty() {
                    bucket.sort_unstable_by_key(|q| (q.at, q.seq));
                    // `drain` keeps the bucket's allocation for reuse next
                    // epoch — event nodes are recycled, never freed.
                    self.cur.extend(bucket.drain(..));
                }
            } else {
                self.reanchor();
            }
        }
    }

    /// Starts a new epoch: derives `epoch`/`width` from the overflow's time
    /// span and redistributes it across the wheel.
    fn reanchor(&mut self) {
        debug_assert!(
            !self.overflow.is_empty(),
            "re-anchor with empty overflow in a non-empty queue"
        );
        let mut min = u64::MAX;
        let mut max = 0u64;
        for q in &self.overflow {
            min = min.min(q.at.as_nanos());
            max = max.max(q.at.as_nanos());
        }
        self.epoch = SimTime::from_nanos(min);
        // Width covering twice the span: every overflow event lands in the
        // wheel (the spill below only matters at u64 saturation), and the
        // next epoch starts with events spread over at most half the wheel.
        self.width = ((max - min) / (N_BUCKETS as u64 / 2)).max(1);
        self.cursor = 0;
        self.cur_end = self.epoch;
        let horizon = self.horizon();
        debug_assert!(self.spill.is_empty());
        for q in self.overflow.drain(..) {
            if q.at < horizon {
                let idx = ((q.at.as_nanos() - min) / self.width) as usize;
                self.buckets[idx].push(q);
            } else {
                self.spill.push(q);
            }
        }
        std::mem::swap(&mut self.overflow, &mut self.spill);
    }
}

/// The original `BinaryHeap` event store, retained as the reference oracle
/// for queue-equivalence property tests (same role as `net`'s test-only
/// `ReferenceFabric` for the fluid engine).
#[cfg(test)]
pub(crate) struct BinaryHeapQueue {
    heap: std::collections::BinaryHeap<HeapEntry>,
}

#[cfg(test)]
struct HeapEntry(Queued);

#[cfg(test)]
impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}

#[cfg(test)]
impl Eq for HeapEntry {}

#[cfg(test)]
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
impl Ord for HeapEntry {
    // Reversed so the std max-heap pops the *earliest* event first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .0
            .at
            .cmp(&self.0.at)
            .then_with(|| other.0.seq.cmp(&self.0.seq))
    }
}

#[cfg(test)]
impl BinaryHeapQueue {
    pub fn new() -> Self {
        BinaryHeapQueue {
            heap: std::collections::BinaryHeap::new(),
        }
    }

    pub fn push(&mut self, q: Queued) {
        self.heap.push(HeapEntry(q));
    }

    pub fn pop(&mut self) -> Option<Queued> {
        self.heap.pop().map(|e| e.0)
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;
    use crate::time::SimDuration;

    fn ev(at: SimTime, seq: u64) -> Queued {
        Queued {
            at,
            seq,
            target: ActorId(0),
            payload: Payload::Start,
        }
    }

    /// Drives the calendar queue and the BinaryHeap oracle with an
    /// identical randomized operation stream and asserts the pop sequences
    /// match exactly. Pushes happen both "from the future" (while draining,
    /// like actor sends) and at the current instant (same-instant FIFO).
    fn equivalence_run(seed: u64, ops: usize, max_ahead_ns: u64) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut cal = CalendarQueue::new();
        let mut oracle = BinaryHeapQueue::new();
        let mut seq = 0u64;
        let mut now = SimTime::ZERO;
        let mut pending = 0usize;

        for _ in 0..ops {
            let roll = rng.next_u64() % 100;
            // Bias towards pushes early so the queue fills, then drain.
            if pending == 0 || roll < 55 {
                let ahead = match rng.next_u64() % 4 {
                    0 => 0, // same-instant send
                    1 => rng.next_u64() % 64,
                    2 => rng.next_u64() % max_ahead_ns.max(1),
                    _ => rng.next_u64() % (max_ahead_ns.saturating_mul(50).max(1)),
                };
                let at = now + SimDuration::from_nanos(ahead);
                cal.push(ev(at, seq));
                oracle.push(ev(at, seq));
                seq += 1;
                pending += 1;
            } else {
                let a = cal.pop().expect("calendar pop");
                let b = oracle.pop().expect("oracle pop");
                assert_eq!((a.at, a.seq), (b.at, b.seq), "divergence at seed {seed}");
                now = a.at;
                pending -= 1;
            }
        }
        // Drain the rest.
        loop {
            match (cal.pop(), oracle.pop()) {
                (Some(a), Some(b)) => {
                    assert_eq!(
                        (a.at, a.seq),
                        (b.at, b.seq),
                        "drain divergence, seed {seed}"
                    );
                }
                (None, None) => break,
                (a, b) => panic!(
                    "length divergence: calendar={:?} oracle={:?}",
                    a.map(|q| (q.at, q.seq)),
                    b.map(|q| (q.at, q.seq))
                ),
            }
        }
        assert!(cal.is_empty() && oracle.is_empty());
    }

    #[test]
    fn matches_binary_heap_dense_near_future() {
        for seed in 0..8 {
            equivalence_run(seed, 4_000, 1_000);
        }
    }

    #[test]
    fn matches_binary_heap_sparse_far_future() {
        for seed in 100..106 {
            // Spans force many re-anchors with wide adaptive widths.
            equivalence_run(seed, 3_000, 5_000_000_000);
        }
    }

    #[test]
    fn matches_binary_heap_same_instant_bursts() {
        for seed in 200..206 {
            // max_ahead 1 ns: almost everything is a same-instant burst.
            equivalence_run(seed, 4_000, 1);
        }
    }

    #[test]
    fn same_instant_pushes_pop_in_seq_order() {
        let mut q = CalendarQueue::new();
        let t = SimTime::from_nanos(0);
        for seq in 0..100 {
            q.push(ev(t, seq));
        }
        for expect in 0..100 {
            assert_eq!(q.pop().unwrap().seq, expect);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn next_at_reports_earliest_without_consuming() {
        let mut q = CalendarQueue::new();
        q.push(ev(SimTime::from_nanos(500), 0));
        q.push(ev(SimTime::from_nanos(20), 1));
        assert_eq!(q.next_at(), Some(SimTime::from_nanos(20)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.next_at(), Some(SimTime::from_nanos(500)));
        assert_eq!(q.pop().unwrap().seq, 0);
        assert_eq!(q.next_at(), None);
    }

    #[test]
    fn interleaved_future_pushes_land_in_active_run() {
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        // Seed a spread of events, pop a few to activate a bucket, then
        // push into the already-activated window.
        for i in 0..50u64 {
            q.push(ev(SimTime::from_nanos(i * 10), seq));
            seq += 1;
        }
        let first = q.pop().unwrap();
        assert_eq!(first.at, SimTime::ZERO);
        // 5 ns is inside the activated window, ahead of the 10 ns event.
        q.push(ev(SimTime::from_nanos(5), seq));
        assert_eq!(q.pop().unwrap().at, SimTime::from_nanos(5));
        assert_eq!(q.pop().unwrap().at, SimTime::from_nanos(10));
    }
}
