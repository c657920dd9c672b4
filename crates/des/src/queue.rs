//! The pending-event store: a ladder of calendar wheels tuned for
//! simulation workloads.
//!
//! The engine dispatches events in `(time, insertion-sequence)` order. The
//! original implementation was a `BinaryHeap<Queued>` — O(log n) per
//! operation and cache-hostile once hundreds of thousands of events are
//! pending. This module replaces it with a **ladder queue** (a calendar
//! queue, Brown 1988, whose crowded buckets get a finer calendar of their
//! own): pushes append to a time bucket in O(1), and ordering work is
//! deferred until a bucket becomes *current*, when its handful of events
//! is sorted once.
//!
//! ## Structure
//!
//! Events live in one of four tiers, ordered by proximity to the clock:
//!
//! 1. `now_fifo` — events scheduled *at the instant currently dispatching*.
//!    Sequence numbers are globally monotonic, so a plain FIFO is exact
//!    `(at, seq)` order for them; same-instant sends cost a `VecDeque`
//!    push/pop and no comparisons.
//! 2. `cur` — the sorted run of the one bucket being drained. It only ever
//!    starts from a bucket of at most `SPLIT` events (or of one single
//!    instant); a push at or before `cur_last` binary-searches into it.
//! 3. `rungs` — a stack of wheels of `N_BUCKETS` equal-width windows each.
//!    Rung 0 spans the epoch; a bucket that comes due holding more than
//!    `SPLIT` events at more than one instant is not sorted but spread over
//!    a child rung that runs from the bucket's earliest event to its end in
//!    `N_BUCKETS` finer buckets. A push walks the active rungs deepest
//!    (finest) first and appends, unsorted, to the first one that covers
//!    it; settling skips empty buckets in a tight loop. One far-out cluster of
//!    timers therefore cannot widen the buckets the near-future traffic
//!    lands in: measured on the 1000-worker Pi job (2,000 timers 10^4 s out
//!    beside 1 s heartbeats) the single wheel sorted 13.4M of 20M pushes
//!    into a `cur` of ~1,900 events; the ladder splits that bucket instead.
//!    An exhausted rung pops back to its parent; rungs are allocated on the
//!    first split at their depth and reused. Depth is bounded by
//!    `log_1024` of the top width (7 for the whole `u64` range).
//! 4. `overflow` — everything beyond rung 0, unsorted. When every rung is
//!    exhausted the queue *re-anchors*: rung 0's start and width are
//!    derived from the overflow's time span and the events redistributed
//!    (each event moves down a tier at most once per rung depth, keeping
//!    the amortized cost constant).
//!
//! ## Determinism
//!
//! The only externally observable behaviour is the pop order, and every
//! tier preserves exact `(at, seq)` order: `now_fifo` by the monotonic-seq
//! argument, `cur` by sortedness, and rungs/overflow because events only
//! leave them through `cur`, a whole bucket at a time, and `cur_last` is
//! always the last instant of the deepest rung's most recently activated
//! bucket — nothing at or before it is left in any rung. The `#[cfg(test)]`
//! [`BinaryHeapQueue`] is the retained reference oracle; property tests
//! drive both queues with identical randomized push/pop streams and assert
//! identical dispatch order (see the tests at the bottom of this file).

use std::collections::VecDeque;

use crate::actor::ActorId;
use crate::stats::QueueStats;
use crate::time::SimTime;

/// Buckets per rung. Large enough that a re-anchor or a split spreads
/// pending events thinly (sorts stay short), small enough that sweeping
/// empty buckets between sparse events is cheap.
const N_BUCKETS: usize = 1024;

/// Largest bucket that is sorted into `cur` rather than split into a child
/// rung (unless all of it shares one instant, which a finer rung could not
/// separate).
const SPLIT: usize = 128;

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

/// One wheel of the ladder: bucket `i` covers the `width` nanoseconds from
/// `start + i*width`, cut off after `last`. All bounds are inclusive so a
/// rung can cover `SimTime::MAX` without an unrepresentable end.
struct Rung {
    buckets: Vec<Vec<Queued>>,
    /// Next bucket to activate; everything below it has moved to `cur`.
    cursor: usize,
    start: u64,
    width: u64,
    /// Last instant this rung covers: its parent bucket's last instant, or
    /// for rung 0 the (saturating) end of the wheel.
    last: u64,
}

impl Rung {
    fn new() -> Self {
        Rung {
            buckets: (0..N_BUCKETS).map(|_| Vec::new()).collect(),
            cursor: 0,
            start: 0,
            width: 1,
            last: 0,
        }
    }
}

/// The ladder queue. See the module docs for the tier layout.
pub(crate) struct CalendarQueue {
    /// Events at exactly `self.now` (the instant currently dispatching).
    now_fifo: VecDeque<Queued>,
    /// Sorted run of the activated bucket; consumed from the front.
    cur: VecDeque<Queued>,
    /// Last instant of the window `cur` was filled from. Pushes with
    /// `at <= cur_last` binary-search into `cur`.
    cur_last: SimTime,
    /// The ladder; `rungs[..depth]` are active, the rest are spare
    /// allocations from earlier splits.
    rungs: Vec<Rung>,
    /// Active rungs. Zero (including the initial state) routes every
    /// future push to `overflow`; the next settle re-anchors, deriving rung
    /// 0 from the actual workload instead of a guess.
    depth: usize,
    /// Events beyond rung 0, unsorted.
    overflow: Vec<Queued>,
    /// Instant of the most recently popped event.
    now: SimTime,
    /// Total pending events across all tiers.
    len: usize,
    /// Child rungs spawned / longest `cur` since the last
    /// [`report`](Self::report).
    rungs_spawned: u64,
    peak_cur_len: usize,
}

/// Earliest and latest instant in `events` (non-empty), in nanoseconds.
fn span(events: &[Queued]) -> (u64, u64) {
    events.iter().fold((u64::MAX, 0), |(min, max), q| {
        (min.min(q.at.as_nanos()), max.max(q.at.as_nanos()))
    })
}

impl CalendarQueue {
    pub fn new() -> Self {
        CalendarQueue {
            now_fifo: VecDeque::new(),
            cur: VecDeque::new(),
            cur_last: SimTime::ZERO,
            rungs: vec![Rung::new()],
            depth: 0,
            overflow: Vec::new(),
            now: SimTime::ZERO,
            len: 0,
            rungs_spawned: 0,
            peak_cur_len: 0,
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

    /// Moves the ladder's health counters into `qs` and restarts them.
    pub fn report(&mut self, qs: &mut QueueStats) {
        qs.rungs_spawned += std::mem::take(&mut self.rungs_spawned);
        let peak = std::mem::replace(&mut self.peak_cur_len, self.cur.len());
        qs.peak_cur_len = qs.peak_cur_len.max(peak as u64);
    }

    pub fn push(&mut self, q: Queued) {
        self.len += 1;
        if q.at == self.now {
            // Same-instant send while that instant dispatches: seq is
            // globally monotonic, so FIFO order *is* (at, seq) order.
            self.now_fifo.push_back(q);
        } else if q.at <= self.cur_last {
            // Lands inside the window already promoted to `cur` (this also
            // absorbs a push below the deepest rung's start — a harness
            // posting at a `run_until` deadline short of the next event —
            // and the theoretical at < now case after a harness moved the
            // clock backwards: the event sorts to the front and pops next).
            let idx = self.cur.partition_point(|e| e.at <= q.at);
            self.cur.insert(idx, q);
            self.peak_cur_len = self.peak_cur_len.max(self.cur.len());
        } else {
            // Beyond `cur_last`, so at or past the cursor of whichever
            // rung covers it; finest first.
            let at = q.at.as_nanos();
            match self.rungs[..self.depth]
                .iter_mut()
                .rev()
                .find(|r| at <= r.last)
            {
                Some(r) => r.buckets[((at - r.start) / r.width) as usize].push(q),
                None => self.overflow.push(q),
            }
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
    /// `cur`: activates the deepest rung's next bucket — sorting it into
    /// `cur`, or splitting it into a child rung — pops exhausted rungs and
    /// re-anchors rung 0 as needed.
    fn settle(&mut self) {
        debug_assert!(self.len > 0);
        while self.now_fifo.is_empty() && self.cur.is_empty() {
            let Some(rung) = self.rungs[..self.depth].last_mut() else {
                // Depth 0: start a new epoch at the overflow's earliest
                // event, twice its span wide, so every overflow event lands
                // in rung 0 and none further than half-way up.
                debug_assert!(
                    !self.overflow.is_empty(),
                    "non-empty queue, nothing to anchor"
                );
                let mut events = std::mem::take(&mut self.overflow);
                let (min, max) = span(&events);
                let width = ((max - min) / (N_BUCKETS as u64 / 2)).max(1);
                let last = min.saturating_add(width.saturating_mul(N_BUCKETS as u64) - 1);
                self.descend(min, width, last, &mut events);
                self.overflow = events;
                continue;
            };
            // Buckets past `rung.last` are empty too, so running off the
            // end is the only way a rung is exhausted.
            while rung.cursor < N_BUCKETS && rung.buckets[rung.cursor].is_empty() {
                rung.cursor += 1;
            }
            let cursor = rung.cursor;
            if cursor == N_BUCKETS {
                self.depth -= 1;
                continue;
            }
            rung.cursor += 1;
            let first = rung.start + rung.width * cursor as u64;
            let last = first.saturating_add(rung.width - 1).min(rung.last);
            self.cur_last = SimTime::from_nanos(last);
            let bucket = &mut rung.buckets[cursor];
            if bucket.len() > SPLIT {
                let (min, max) = span(bucket);
                if min != max {
                    // The child starts at the earliest event (so its first
                    // bucket is never empty) and ends with this bucket.
                    let mut events = std::mem::take(bucket);
                    let width = (last - min) / N_BUCKETS as u64 + 1;
                    self.descend(min, width, last, &mut events);
                    self.rungs[self.depth - 2].buckets[cursor] = events;
                    self.rungs_spawned += 1;
                    continue;
                }
            }
            bucket.sort_unstable_by_key(|q| (q.at, q.seq));
            // `drain` keeps the bucket's allocation for reuse next epoch —
            // event nodes are recycled, never freed.
            self.cur.extend(bucket.drain(..));
            self.peak_cur_len = self.peak_cur_len.max(self.cur.len());
        }
    }

    /// Activates the next rung down over `[start, last]` and spreads
    /// `events`, all of which lie in that range, across it.
    fn descend(&mut self, start: u64, width: u64, last: u64, events: &mut Vec<Queued>) {
        if self.depth == self.rungs.len() {
            self.rungs.push(Rung::new());
        }
        let rung = &mut self.rungs[self.depth];
        (rung.cursor, rung.start, rung.width, rung.last) = (0, start, width, last);
        for q in events.drain(..) {
            rung.buckets[((q.at.as_nanos() - start) / width) as usize].push(q);
        }
        self.depth += 1;
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

    /// Both queues fed the same pushes; `pop` asserts they agree.
    struct Pair {
        cal: CalendarQueue,
        oracle: BinaryHeapQueue,
        seq: u64,
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                cal: CalendarQueue::new(),
                oracle: BinaryHeapQueue::new(),
                seq: 0,
            }
        }

        /// Pushes one event at `at_ns`; returns its sequence number.
        fn push(&mut self, at_ns: u64) -> u64 {
            let at = SimTime::from_nanos(at_ns);
            self.cal.push(ev(at, self.seq));
            self.oracle.push(ev(at, self.seq));
            self.seq += 1;
            self.seq - 1
        }

        fn pop(&mut self) -> Option<(u64, u64)> {
            let a = self.cal.pop().map(|q| (q.at.as_nanos(), q.seq));
            let b = self.oracle.pop().map(|q| (q.at.as_nanos(), q.seq));
            assert_eq!(a, b, "ladder and heap disagree");
            a
        }

        fn drain(&mut self) {
            while self.pop().is_some() {}
            assert!(self.cal.is_empty() && self.oracle.is_empty());
            assert!(self.cal.rungs.len() <= 8, "depth is bounded by log_1024");
        }
    }

    /// The long-kernel shape: thousands of heartbeats re-armed 1 s / 3 s
    /// ahead, each sending an RPC 0.1 ms ahead, beside a handful of timers
    /// 10^4 s out that set rung 0's width to many heartbeat periods.
    #[test]
    fn matches_binary_heap_heartbeat_shape() {
        const SEND: u64 = 0;
        let mut rng = Xoshiro256::seed_from_u64(42);
        let mut p = Pair::new();
        // Re-arm period by sequence number; `SEND` marks a one-way message.
        let mut period = Vec::new();
        for i in 0..3_000u64 {
            p.push(rng.next_u64() % 1_000_000_000);
            period.push(if i % 2 == 0 {
                1_000_000_000
            } else {
                3_000_000_000
            });
        }
        for i in 0..8 {
            p.push(10_000_000_000_000 + i * 1_000_003);
            period.push(SEND);
        }
        for _ in 0..200_000 {
            let (at, seq) = p.pop().expect("heartbeats never run dry");
            let every = period[seq as usize];
            if every != SEND {
                p.push(at + every);
                period.push(every);
                p.push(at + 100_000);
                period.push(SEND);
            }
        }
        // 200k pops at ~8k events per simulated second run past rung 0's
        // first 19.5 s bucket: each of the two was split, not sorted.
        assert!(p.cal.rungs_spawned >= 2, "the crowded buckets never split");
        assert!(
            p.cal.peak_cur_len <= 2 * SPLIT,
            "cur grew to {}",
            p.cal.peak_cur_len
        );
        p.drain();
    }

    #[test]
    fn same_instant_flood_sorts_and_mixed_flood_splits() {
        // A flood at one instant cannot be separated by a finer rung: it is
        // sorted by seq, however large. (The far event keeps it in a bucket.)
        let mut p = Pair::new();
        for _ in 0..4 * SPLIT {
            p.push(5_000);
        }
        p.push(1_000_000_000);
        p.drain();
        assert_eq!(p.cal.rungs_spawned, 0);

        // One neighbour a nanosecond later makes the bucket splittable;
        // the ladder descends until the flood has a bucket to itself.
        let mut p = Pair::new();
        for i in 0..4 * SPLIT as u64 {
            p.push(5_000);
            if i == 7 {
                p.push(5_001);
            }
        }
        p.push(1_000_000_000);
        // Pushes at the flood's instant while it drains go to `now_fifo`.
        for _ in 0..10 {
            p.pop();
            p.push(5_000);
        }
        p.drain();
        assert!(p.cal.rungs_spawned >= 1);
    }

    #[test]
    fn events_at_the_saturating_horizon_pop_in_order() {
        let max = u64::MAX;
        let mut rng = Xoshiro256::seed_from_u64(7);
        let mut p = Pair::new();
        // Only `SimTime::MAX` pending: the epoch starts at the last
        // representable instant and must still cover it.
        for _ in 0..3 {
            p.push(max);
        }
        assert_eq!(p.pop(), Some((max, 0)));
        p.drain();
        // A crowded bucket whose end saturates: it splits, the child's
        // range ends at `MAX`, and later pushes at `MAX` still find it.
        let mut p = Pair::new();
        p.push(1); // not 0: that is `now`, and would not anchor the epoch
        for _ in 0..3 * SPLIT {
            p.push(max - rng.next_u64() % 1_000);
            p.push(max);
        }
        for _ in 0..2 * SPLIT {
            p.pop();
            p.push(max);
            p.push(max - 1);
        }
        assert!(p.cal.rungs_spawned >= 1);
        p.drain();
    }

    #[test]
    fn push_below_the_deepest_rung_after_next_at_settled() {
        let mut p = Pair::new();
        p.push(0);
        // Rung 0 is 10^12 / 512 ns wide: the cluster sits a second into
        // bucket 1 and is big enough to split.
        p.push(1_000_000_000_000);
        for i in 0..2 * SPLIT as u64 {
            p.push(3_000_000_000 + i * 1_000);
        }
        assert_eq!(p.pop(), Some((0, 0)));
        // Settling activates bucket 1 and spawns the child at the cluster's
        // first event ...
        assert_eq!(p.cal.next_at(), Some(SimTime::from_nanos(3_000_000_000)));
        assert!(p.cal.rungs_spawned >= 1);
        // ... so a harness post after `run_until(2 s)` is inside bucket 1
        // but below every child bucket. It must still pop first.
        let posted = p.push(2_000_000_000);
        assert_eq!(p.pop(), Some((2_000_000_000, posted)));
        p.drain();
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
