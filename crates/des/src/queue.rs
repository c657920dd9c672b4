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
//! The queue is generic: [`Ladder`] orders any [`Timed`] item by its
//! `key()`, a total order whose first component is the item's instant
//! `at()`. The engine's events key on `(at, seq)` with a globally monotonic
//! `seq`; the network fabric's projected completions key on `(finish, flow
//! id, generation)`, which is **not** monotone in push order.
//!
//! ## Structure
//!
//! Items live in one of four tiers, ordered by proximity to the clock:
//!
//! 1. `now_fifo` — items pushed *at the instant last popped* (`now`), in
//!    key order. A push takes this O(1) path only when it is at `now` **and**
//!    its key is at least the FIFO's back, so the FIFO is sorted by
//!    construction. For the engine that is every same-instant send (its
//!    `seq` only grows); for a user whose keys are not monotone, or who
//!    pops ahead of its own clock and then pushes behind the last popped
//!    instant (the fabric drops stale completions that way), everything
//!    else takes the sorted path below.
//! 2. `cur` — the sorted run of the one bucket being drained. It only ever
//!    starts from a bucket of at most `SPLIT` items (or of one single
//!    instant); a push at or before `cur_last` binary-searches into it by
//!    key. A wide activated window (rung 0 anchored over a few far-out
//!    items), or a user who pops ahead of its clock and pushes behind it,
//!    can send most pushes there; once `cur` holds more than `2 * SPLIT`
//!    items it is *split* like a crowded bucket: everything after its
//!    earliest instant `lo` moves to a new deepest rung over `(lo,
//!    cur_last]` and `cur_last` drops to `lo`. Without that `cur` is a
//!    sorted array — on the fabric's 0.05x-bandwidth fault cell it grew
//!    to 566,064 completions and every push shifted it.
//! 3. `rungs` — a stack of wheels of `N_BUCKETS` equal-width windows each.
//!    Rung 0 spans the epoch; a bucket that comes due holding more than
//!    `SPLIT` items at more than one instant is not sorted but spread over
//!    a child rung that runs from the bucket's earliest item to its end in
//!    `N_BUCKETS` finer buckets. A push walks the active rungs deepest
//!    (finest) first and appends, unsorted, to the first one that covers
//!    it; settling skips empty buckets in a tight loop. One far-out cluster of
//!    timers therefore cannot widen the buckets the near-future traffic
//!    lands in: measured on the 1000-worker Pi job (2,000 timers 10^4 s out
//!    beside 1 s heartbeats) the single wheel sorted 13.4M of 20M pushes
//!    into a `cur` of ~1,900 events; the ladder splits that bucket instead.
//!    An exhausted rung pops back to its parent; rungs are allocated on the
//!    first anchor or split at their depth and reused, so an empty ladder
//!    owns no heap memory (see *Storage* for the buckets' item storage).
//!    Bucket splits alone nest at most `log_1024` of
//!    the top width deep (7 for the whole `u64` range); `cur` splits can
//!    stack further, so past `MAX_DEPTH` rungs both kinds fall back to
//!    sorting into `cur`.
//! 4. `overflow` — everything beyond rung 0, unsorted. When every rung is
//!    exhausted the queue *re-anchors*: rung 0's start and width are
//!    derived from the overflow's time span and the items redistributed
//!    (each item moves down a tier at most once per rung depth, keeping
//!    the amortized cost constant).
//!
//! ## Storage
//!
//! Every bucket, and the overflow, keeps its items in fixed-size chunks of
//! `CHUNK` slots: a short list of full chunks and the last one, which a
//! push appends to. A bucket that comes due is drained one chunk at a time
//! — into `cur`, which is then sorted in place, or into a child rung — and
//! each emptied chunk goes back to the ladder's one spare list before the
//! next is read; a push that fills its bucket's last chunk takes the next
//! from that list before it allocates. So no bucket carries doubling
//! slack, and a split never holds its items twice: with a doubling `Vec`
//! per bucket, the 1000-node churn run's crowded completion bucket
//! (~527k entries) was copied into the child rung's `Vec`s while its
//! emptied 524,288-slot source was still held, 1,299,436 slots for
//! 527,528 pending; in chunks the run peaks at 564,488. The published
//! ladder queue (Tang, Goh & Thng 2005) links single items; a chunk pays
//! one allocation and one link per `CHUNK` items. The spare list holds at
//! most as many slots as there are pending items, and a chunk returned
//! past that is freed, so the storage held follows the pending items, not
//! the largest bucket the ladder ever drained. The slots held — chunks in
//! buckets and on the spare list, `cur` and `now_fifo` — are counted as
//! they are allocated and freed, and reported as
//! [`QueueStats::peak_slots`]; an empty ladder holds none, and a non-empty
//! bucket at least `CHUNK`.
//!
//! ## Determinism
//!
//! The only externally observable behaviour is the pop order, and it is
//! exact key order: `now_fifo` and `cur` are each sorted and `pop` takes
//! the smaller front, and rungs/overflow hold only items after `cur_last`
//! (never below `now`), leaving them through `cur` a whole bucket at a
//! time. `cur_last` is the last instant of the deepest rung's most recently
//! activated bucket, or the `lo` of a `cur` split (whose new rung starts
//! right after it) — nothing at or before it is left in any rung. The
//! `#[cfg(test)]` `BinaryHeapQueue` is the retained reference oracle;
//! property tests drive both queues with identical randomized
//! push/pop/peek streams — monotone and random tiebreaks, the fabric's
//! pop-ahead-then-push-behind pattern, a wide window crowding `cur` — and
//! assert identical key order (see the tests at the bottom of this file).

use std::collections::VecDeque;

use crate::actor::ActorId;
use crate::stats::QueueStats;
use crate::time::SimTime;

/// Buckets per rung. Large enough that a re-anchor or a split spreads
/// pending items thinly (sorts stay short), small enough that sweeping
/// empty buckets between sparse items is cheap.
const N_BUCKETS: usize = 1024;

/// Largest bucket that is sorted into `cur` rather than split into a child
/// rung (unless all of it shares one instant, which a finer rung could not
/// separate).
const SPLIT: usize = 128;

/// Most rungs active at once; a split that would go deeper sorts instead.
const MAX_DEPTH: usize = 16;

/// An item a [`Ladder`] can order.
pub trait Timed {
    /// The pop order: a total order whose first component is [`Timed::at`],
    /// so that `a.at() < b.at()` implies `a.key() < b.key()`. Items with
    /// equal keys pop in an unspecified order.
    type Key: Ord + Copy;

    /// The instant the item is due.
    fn at(&self) -> SimTime;

    /// The item's position in the pop order.
    fn key(&self) -> Self::Key;
}

/// What a queued event will deliver.
pub(crate) enum Payload {
    /// [`crate::Event::Start`] for a freshly spawned actor.
    Start,
    /// A timer firing; `slot`/`gen` identify the arming (see `sim.rs` —
    /// a stale `gen` means the timer was cancelled or rescheduled).
    Timer { slot: u32, gen: u32, tag: u64 },
    /// A boxed message.
    Msg { msg: Box<dyn crate::actor::Msg> },
}

/// One pending event. Dispatch order is ascending `(at, seq)`.
pub(crate) struct Queued {
    pub at: SimTime,
    pub seq: u64,
    pub target: ActorId,
    pub payload: Payload,
}

impl Timed for Queued {
    type Key = (SimTime, u64);

    #[inline]
    fn at(&self) -> SimTime {
        self.at
    }

    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Items per chunk of bucket storage. Every non-empty bucket holds at
/// least one chunk, so a child rung over a few thousand pending events,
/// hundreds of its buckets non-empty, holds a few slots per event: 3.3 in
/// `perf des_core`'s `skewed_horizon` at 32, 5.3 at 64. Smaller chunks
/// cost more per item in allocator headers and chunk-list entries: on
/// `churn_terasort_1k` with glibc's mmap threshold pinned, 16 read 3.3 MiB
/// more peak RSS than 32.
const CHUNK: usize = 32;

/// A bucket's items: its full chunks in push order, then the chunk pushes
/// append to. `tail` is empty only when the whole bucket is.
struct Bucket<T> {
    full: Vec<Vec<T>>,
    tail: Vec<T>,
}

impl<T> Default for Bucket<T> {
    fn default() -> Self {
        Bucket {
            full: Vec::new(),
            tail: Vec::new(),
        }
    }
}

impl<T> Bucket<T> {
    #[inline]
    fn is_empty(&self) -> bool {
        self.tail.is_empty()
    }

    fn len(&self) -> usize {
        self.full.len() * CHUNK + self.tail.len()
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.full.iter().flatten().chain(&self.tail)
    }
}

/// The ladder's one spare list of chunks and its slot count (see
/// *Storage* in the module doc).
struct Store<T> {
    /// Empty chunks of `CHUNK` slots each.
    spare: Vec<Vec<T>>,
    /// Item slots allocated across every tier and the spare list, kept on
    /// growth and release (never by a walk) / its high-water mark since
    /// the last [`Ladder::report`].
    slots: usize,
    peak_slots: usize,
}

impl<T> Store<T> {
    /// Appends `item` to `bucket`, starting a chunk if its last is full.
    #[inline]
    fn append(&mut self, bucket: &mut Bucket<T>, item: T) {
        if bucket.tail.len() == bucket.tail.capacity() {
            self.new_tail(bucket);
        }
        bucket.tail.push(item);
    }

    /// Gives `bucket` an empty last chunk, a spare one if there is any.
    #[cold]
    fn new_tail(&mut self, bucket: &mut Bucket<T>) {
        let chunk = self.spare.pop().unwrap_or_else(|| {
            self.slots += CHUNK;
            self.peak_slots = self.peak_slots.max(self.slots);
            Vec::with_capacity(CHUNK)
        });
        let full = std::mem::replace(&mut bucket.tail, chunk);
        if full.capacity() != 0 {
            bucket.full.push(full);
        }
    }

    /// Empties the non-empty `bucket` one chunk at a time: `empty` takes
    /// every item out of the chunk, which then goes back before the next
    /// one is read — onto the spare list if that keeps the list at most
    /// `pending` slots, else freed.
    fn drain(
        &mut self,
        bucket: Bucket<T>,
        pending: usize,
        mut empty: impl FnMut(&mut Self, &mut Vec<T>),
    ) {
        let Bucket { full, tail } = bucket;
        for mut chunk in full.into_iter().chain([tail]) {
            debug_assert_eq!(chunk.capacity(), CHUNK);
            empty(self, &mut chunk);
            debug_assert!(chunk.is_empty());
            if (self.spare.len() + 1) * CHUNK <= pending {
                self.spare.push(chunk);
            } else {
                self.slots -= CHUNK;
            }
        }
    }

    /// Runs `op` on the container `c` and counts the slots it grew by.
    #[inline]
    fn counted<C>(&mut self, c: &mut C, capacity: fn(&C) -> usize, op: impl FnOnce(&mut C)) {
        let before = capacity(c);
        op(c);
        let after = capacity(c);
        if after != before {
            self.slots += after - before;
            self.peak_slots = self.peak_slots.max(self.slots);
        }
    }
}

/// One wheel of the ladder: bucket `i` covers the `width` nanoseconds from
/// `start + i*width`, cut off after `last`. All bounds are inclusive so a
/// rung can cover `SimTime::MAX` without an unrepresentable end.
struct Rung<T> {
    buckets: Vec<Bucket<T>>,
    /// Next bucket to activate; everything below it has moved to `cur`.
    cursor: usize,
    start: u64,
    width: u64,
    /// Last instant this rung covers: its parent bucket's last instant, or
    /// for rung 0 the (saturating) end of the wheel.
    last: u64,
}

impl<T: Timed> Rung<T> {
    fn new() -> Self {
        Rung {
            buckets: (0..N_BUCKETS).map(|_| Bucket::default()).collect(),
            cursor: 0,
            start: 0,
            width: 1,
            last: 0,
        }
    }

    /// Appends `item`, which lies in this rung's range, to its bucket.
    #[inline]
    fn put(&mut self, store: &mut Store<T>, item: T) {
        let i = ((item.at().as_nanos() - self.start) / self.width) as usize;
        store.append(&mut self.buckets[i], item);
    }
}

/// A ladder queue: pops [`Timed`] items in ascending key order, with O(1)
/// amortized push and pop on simulation workloads. See the module docs for
/// the tier layout.
pub struct Ladder<T: Timed> {
    /// Items pushed at `self.now` (the instant last popped), in key order.
    now_fifo: VecDeque<T>,
    /// Sorted run of the activated bucket; consumed from the front.
    cur: VecDeque<T>,
    /// Last instant of the window `cur` was filled from, or the `lo` of a
    /// later `cur` split. Pushes with `at <= cur_last` binary-search into
    /// `cur`.
    cur_last: SimTime,
    /// The ladder; `rungs[..depth]` are active, the rest are spare
    /// allocations from earlier anchors and splits.
    rungs: Vec<Rung<T>>,
    /// Active rungs. Zero (including the initial state) routes every
    /// future push to `overflow`; the next settle re-anchors, deriving rung
    /// 0 from the actual workload instead of a guess.
    depth: usize,
    /// Items beyond rung 0, unsorted.
    overflow: Bucket<T>,
    /// Spare bucket storage and the slot count of every tier.
    store: Store<T>,
    /// Instant of the most recently popped item — or the `lo` of a later
    /// `cur` split, if earlier. Everything in `now_fifo` is at it.
    now: SimTime,
    /// Total pending items across all tiers.
    len: usize,
    /// Child rungs spawned (for a crowded bucket or a crowded `cur`) /
    /// longest `cur` since the last [`report`](Self::report).
    rungs_spawned: u64,
    peak_cur_len: usize,
}

/// Earliest and latest instant in `items` (non-empty), in nanoseconds.
fn span<T: Timed>(items: &Bucket<T>) -> (u64, u64) {
    items.iter().fold((u64::MAX, 0), |(min, max), q| {
        let at = q.at().as_nanos();
        (min.min(at), max.max(at))
    })
}

impl<T: Timed> Default for Ladder<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Timed> Ladder<T> {
    /// An empty ladder. Allocates nothing until the first item is pushed.
    pub fn new() -> Self {
        Ladder {
            now_fifo: VecDeque::new(),
            cur: VecDeque::new(),
            cur_last: SimTime::ZERO,
            rungs: Vec::new(),
            depth: 0,
            overflow: Bucket::default(),
            store: Store {
                spare: Vec::new(),
                slots: 0,
                peak_slots: 0,
            },
            now: SimTime::ZERO,
            len: 0,
            rungs_spawned: 0,
            peak_cur_len: 0,
        }
    }

    /// Pending items.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Moves the ladder's health counters (child rungs spawned, longest
    /// sorted run, most item slots held) into `qs` and restarts them. O(1):
    /// the engine reports after every [`step`](crate::Sim::step).
    pub fn report(&mut self, qs: &mut QueueStats) {
        qs.rungs_spawned += std::mem::take(&mut self.rungs_spawned);
        let peak = std::mem::replace(&mut self.peak_cur_len, self.cur.len());
        qs.peak_cur_len = qs.peak_cur_len.max(peak as u64);
        let peak = std::mem::replace(&mut self.store.peak_slots, self.store.slots);
        qs.peak_slots = qs.peak_slots.max(peak as u64);
    }

    /// Adds `item`. Any instant is accepted, including one before the last
    /// popped item's: it pops before everything with a larger key.
    pub fn push(&mut self, item: T) {
        self.len += 1;
        let at = item.at();
        if at == self.now && self.now_fifo.back().is_none_or(|b| b.key() <= item.key()) {
            // At the last popped instant and not below the FIFO's back: the
            // FIFO stays sorted. (The engine's same-instant sends always get
            // here — its seq only grows.)
            self.store
                .counted(&mut self.now_fifo, VecDeque::capacity, |f| {
                    f.push_back(item)
                });
        } else if at <= self.cur_last {
            // Lands inside the window already promoted to `cur` (this also
            // absorbs a push below the deepest rung's start — a harness
            // posting at a `run_until` deadline short of the next event —
            // a push at `now` keyed below the FIFO's back, and a push
            // before `now`: it sorts to its place and pops in key order).
            let key = item.key();
            let idx = self.cur.partition_point(|e| e.key() <= key);
            self.store
                .counted(&mut self.cur, VecDeque::capacity, |c| c.insert(idx, item));
            if self.cur.len() > 2 * SPLIT {
                self.split_cur();
            }
            self.peak_cur_len = self.peak_cur_len.max(self.cur.len());
        } else {
            // Beyond `cur_last`, so at or past the cursor of whichever
            // rung covers it; finest first.
            let at = at.as_nanos();
            match self.rungs[..self.depth]
                .iter_mut()
                .rev()
                .find(|r| at <= r.last)
            {
                Some(r) => r.put(&mut self.store, item),
                None => self.store.append(&mut self.overflow, item),
            }
        }
    }

    /// The item [`pop`](Self::pop) would return next, or `None` when empty.
    /// Advances internal cursors (never the pop order).
    pub fn peek(&mut self) -> Option<&T> {
        if self.settle_front()? {
            self.cur.front()
        } else {
            self.now_fifo.front()
        }
    }

    /// Removes and returns the item with the smallest key.
    pub fn pop(&mut self) -> Option<T> {
        let item = if self.settle_front()? {
            self.cur.pop_front()
        } else {
            self.now_fifo.pop_front()
        }
        .expect("settle_front found this front");
        self.len -= 1;
        self.now = item.at();
        Some(item)
    }

    /// Settles, then says which tier's front is the minimum: `cur` (true)
    /// or `now_fifo`; `None` when empty.
    #[inline]
    fn settle_front(&mut self) -> Option<bool> {
        if self.len == 0 {
            return None;
        }
        self.settle();
        Some(match (self.now_fifo.front(), self.cur.front()) {
            (Some(nf), Some(c)) => c.key() <= nf.key(),
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (None, None) => unreachable!("settle found no front in a non-empty queue"),
        })
    }

    /// Ensures the next item (if any) is at the front of `now_fifo` or
    /// `cur`: activates the deepest rung's next bucket — sorting it into
    /// `cur`, or splitting it into a child rung — pops exhausted rungs and
    /// re-anchors rung 0 as needed.
    fn settle(&mut self) {
        debug_assert!(self.len > 0);
        while self.now_fifo.is_empty() && self.cur.is_empty() {
            let Some(rung) = self.rungs[..self.depth].last_mut() else {
                // Depth 0: start a new epoch at the overflow's earliest
                // item, twice its span wide, so every overflow item lands
                // in rung 0 and none further than half-way up.
                debug_assert!(
                    !self.overflow.is_empty(),
                    "non-empty queue, nothing to anchor"
                );
                let items = std::mem::take(&mut self.overflow);
                let (min, max) = span(&items);
                let width = ((max - min) / (N_BUCKETS as u64 / 2)).max(1);
                let last = min.saturating_add(width.saturating_mul(N_BUCKETS as u64) - 1);
                self.descend(min, width, last, items);
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
            // The bucket is not filled again before its rung is re-anchored
            // or re-descended: its chunks go where the next push needs them.
            let bucket = std::mem::take(&mut rung.buckets[cursor]);
            if bucket.len() > SPLIT && self.depth < MAX_DEPTH {
                let (min, max) = span(&bucket);
                if min != max {
                    // The child starts at the earliest item (so its first
                    // bucket is never empty) and ends with this bucket.
                    let width = (last - min) / N_BUCKETS as u64 + 1;
                    self.descend(min, width, last, bucket);
                    self.rungs_spawned += 1;
                    continue;
                }
            }
            // Empty already; `clear` moves its head back to the start, so
            // the chunks land contiguous and `make_contiguous` moves nothing.
            self.cur.clear();
            let cur = &mut self.cur;
            self.store.drain(bucket, self.len, |store, chunk| {
                store.counted(cur, VecDeque::capacity, |c| c.extend(chunk.drain(..)))
            });
            self.cur.make_contiguous().sort_unstable_by_key(|q| q.key());
            self.peak_cur_len = self.peak_cur_len.max(self.cur.len());
        }
    }

    /// Moves everything in the crowded `cur` after its earliest instant
    /// `lo` — and `now_fifo`, if that is after `lo` — to a new deepest rung
    /// over `(lo, cur_last]`, then lowers `cur_last` to `lo`. Pushes in that
    /// span append to the rung from now on instead of shifting `cur`. Not
    /// done when what would move is at most `SPLIT` items (`cur` is mostly
    /// one instant, which no rung separates) or the ladder is full depth.
    fn split_cur(&mut self) {
        let lo = self.cur.front().expect("cur is crowded").at();
        let keep = self.cur.partition_point(|e| e.at() == lo);
        if self.cur.len() - keep <= SPLIT || self.depth == MAX_DEPTH {
            return;
        }
        // A FIFO after `lo` moves along and restarts, empty, at `lo`.
        let fifo_from = if self.now > lo {
            0
        } else {
            self.now_fifo.len()
        };
        let (start, last) = (lo.as_nanos() + 1, self.cur_last.as_nanos());
        let rung = self.activate(start, (last - start) / N_BUCKETS as u64 + 1, last);
        let rung = &mut self.rungs[rung];
        let fifo = self.now_fifo.drain(fifo_from..);
        for q in self.cur.drain(keep..).chain(fifo) {
            rung.put(&mut self.store, q);
        }
        self.now = self.now.min(lo);
        self.cur_last = lo;
        self.rungs_spawned += 1;
    }

    /// Activates the next rung down over `[start, last]`, `width`
    /// nanoseconds a bucket, and returns its index.
    fn activate(&mut self, start: u64, width: u64, last: u64) -> usize {
        if self.depth == self.rungs.len() {
            self.rungs.push(Rung::new());
        }
        let rung = &mut self.rungs[self.depth];
        (rung.cursor, rung.start, rung.width, rung.last) = (0, start, width, last);
        self.depth += 1;
        self.depth - 1
    }

    /// Activates the next rung down over `[start, last]` and spreads
    /// `items`, all of which lie in that range, across it a chunk at a
    /// time, so no second copy of them is ever held.
    fn descend(&mut self, start: u64, width: u64, last: u64, items: Bucket<T>) {
        let rung = self.activate(start, width, last);
        let rung = &mut self.rungs[rung];
        self.store.drain(items, self.len, |store, chunk| {
            for q in chunk.drain(..) {
                rung.put(store, q);
            }
        });
    }
}

/// The original `BinaryHeap` event store, generic over [`Timed`], retained
/// as the reference oracle for queue-equivalence property tests (same role
/// as `net`'s test-only `ReferenceFabric` for the fluid engine).
#[cfg(test)]
pub(crate) struct BinaryHeapQueue<T: Timed> {
    heap: std::collections::BinaryHeap<HeapEntry<T>>,
}

#[cfg(test)]
struct HeapEntry<T: Timed>(T);

#[cfg(test)]
impl<T: Timed> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}

#[cfg(test)]
impl<T: Timed> Eq for HeapEntry<T> {}

#[cfg(test)]
impl<T: Timed> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
impl<T: Timed> Ord for HeapEntry<T> {
    // Reversed so the std max-heap pops the *smallest* key first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.key().cmp(&self.0.key())
    }
}

#[cfg(test)]
impl<T: Timed> BinaryHeapQueue<T> {
    pub fn new() -> Self {
        BinaryHeapQueue {
            heap: std::collections::BinaryHeap::new(),
        }
    }

    pub fn push(&mut self, q: T) {
        self.heap.push(HeapEntry(q));
    }

    pub fn peek(&self) -> Option<&T> {
        self.heap.peek().map(|e| &e.0)
    }

    pub fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|e| e.0)
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use std::fmt::Debug;

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

    /// Drives the ladder and the BinaryHeap oracle with an identical
    /// randomized operation stream and asserts the pop sequences match
    /// key for key. Pushes happen both "from the future" (while draining,
    /// like actor sends) and at the current instant (same-instant FIFO).
    /// `make(at, tie)` builds an item; `tie` is a push counter, or with
    /// `random_tie` a random word, so keys are then not monotone in push
    /// order. Every few operations a `peek` must agree with the oracle's.
    fn equivalence_run<T: Timed>(
        seed: u64,
        ops: usize,
        max_ahead_ns: u64,
        random_tie: bool,
        make: impl Fn(SimTime, u64) -> T,
    ) where
        T::Key: Debug,
    {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut cal = Ladder::new();
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
                let tie = if random_tie { rng.next_u64() } else { seq };
                cal.push(make(at, tie));
                oracle.push(make(at, tie));
                seq += 1;
                pending += 1;
            } else if roll < 65 {
                let a = cal.peek().map(|q| q.key());
                let b = oracle.peek().map(|q| q.key());
                assert_eq!(a, b, "peek divergence at seed {seed}");
            } else {
                let a = cal.pop().expect("ladder pop");
                let b = oracle.pop().expect("oracle pop");
                assert_eq!(a.key(), b.key(), "divergence at seed {seed}");
                now = a.at();
                pending -= 1;
            }
        }
        // Drain the rest.
        loop {
            match (cal.pop(), oracle.pop()) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.key(), b.key(), "drain divergence, seed {seed}");
                }
                (None, None) => break,
                (a, b) => panic!(
                    "length divergence: ladder={:?} oracle={:?}",
                    a.map(|q| q.key()),
                    b.map(|q| q.key())
                ),
            }
        }
        assert!(cal.is_empty() && oracle.is_empty());
    }

    #[test]
    fn matches_binary_heap_dense_near_future() {
        for seed in 0..8 {
            equivalence_run(seed, 4_000, 1_000, false, ev);
        }
    }

    #[test]
    fn matches_binary_heap_sparse_far_future() {
        for seed in 100..106 {
            // Spans force many re-anchors with wide adaptive widths.
            equivalence_run(seed, 3_000, 5_000_000_000, false, ev);
        }
    }

    #[test]
    fn matches_binary_heap_same_instant_bursts() {
        for seed in 200..206 {
            // max_ahead 1 ns: almost everything is a same-instant burst.
            equivalence_run(seed, 4_000, 1, false, ev);
        }
    }

    #[test]
    fn matches_binary_heap_with_random_tiebreaks() {
        // Same-instant pushes whose keys are not monotone: about half of
        // them land below the FIFO's back and must take the sorted path.
        for seed in 300..306 {
            equivalence_run(seed, 4_000, 1, true, ev);
            equivalence_run(seed, 4_000, 1_000, true, ev);
        }
    }

    /// Both queues fed the same pushes; `pop` asserts they agree.
    struct Pair {
        cal: Ladder<Queued>,
        oracle: BinaryHeapQueue<Queued>,
        seq: u64,
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                cal: Ladder::new(),
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
            assert!(self.cal.rungs.len() <= MAX_DEPTH);
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
        let next = p.cal.peek().map(|q| q.at);
        assert_eq!(next, Some(SimTime::from_nanos(3_000_000_000)));
        assert!(p.cal.rungs_spawned >= 1);
        // ... so a harness post after `run_until(2 s)` is inside bucket 1
        // but below every child bucket. It must still pop first.
        let posted = p.push(2_000_000_000);
        assert_eq!(p.pop(), Some((2_000_000_000, posted)));
        p.drain();
    }

    /// One far item anchors rung 0 two seconds a bucket, and the one near
    /// item activates bucket 0: every later push inside those two seconds
    /// lands in `cur`. Pushes ahead, at the last popped instant (the FIFO)
    /// and behind it, with pops between: `cur` must split rather than grow,
    /// and a split below the FIFO's instant must take the FIFO along.
    #[test]
    fn crowded_cur_splits_instead_of_growing() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let mut p = Pair::new();
        p.push(5);
        p.push(1_000_000_000_000);
        assert_eq!(p.pop(), Some((5, 0)));
        let mut now = 5;
        for _ in 0..60 {
            for _ in 0..100 {
                p.push(now + 1 + rng.next_u64() % 1_000_000_000);
            }
            for _ in 0..30 {
                now = p.pop().expect("pending").0;
            }
            for _ in 0..5 {
                p.push(now);
            }
            for _ in 0..40 {
                p.push(now - rng.next_u64() % (now - 4));
            }
        }
        assert!(
            p.cal.peak_cur_len <= 2 * SPLIT,
            "cur grew to {}",
            p.cal.peak_cur_len
        );
        assert!(p.cal.rungs_spawned >= 2, "{}", p.cal.rungs_spawned);
        p.drain();
    }

    #[test]
    fn same_instant_pushes_pop_in_seq_order() {
        let mut q = Ladder::new();
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
        let mut q = Ladder::new();
        q.push(ev(SimTime::from_nanos(500), 0));
        q.push(ev(SimTime::from_nanos(20), 1));
        assert_eq!(q.peek().map(|e| e.seq), Some(1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.peek().map(|e| e.at), Some(SimTime::from_nanos(500)));
        assert_eq!(q.pop().unwrap().seq, 0);
        assert!(q.peek().is_none());
    }

    #[test]
    fn interleaved_future_pushes_land_in_active_run() {
        let mut q = Ladder::new();
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

    #[test]
    fn an_empty_ladder_owns_no_rungs() {
        let mut q = Ladder::new();
        assert!(q.rungs.is_empty());
        q.push(ev(SimTime::from_nanos(7), 0));
        assert!(q.rungs.is_empty(), "a push alone anchors nothing");
        assert_eq!(q.pop().map(|e| e.seq), Some(0));
        assert_eq!(q.rungs.len(), 1, "the first settle anchors rung 0");
    }

    /// Item slots `q` holds, counted by walking every tier: what the
    /// running `store.slots` must equal.
    fn walked_slots<T: Timed>(q: &Ladder<T>) -> usize {
        let buckets = q.rungs.iter().flat_map(|r| &r.buckets);
        let chunks = buckets
            .chain([&q.overflow])
            .flat_map(|b| b.full.iter().chain([&b.tail]));
        chunks
            .chain(&q.store.spare)
            .map(Vec::capacity)
            .sum::<usize>()
            + q.cur.capacity()
            + q.now_fifo.capacity()
    }

    /// The Pi shape over many rung-0 buckets: heartbeats re-armed 1 s and
    /// 3 s ahead (each with an RPC 0.1 ms out) beside one-shots 10^4 s out,
    /// so rung 0's buckets are ~20 s wide and each one is split when it
    /// comes due. Pops must follow the oracle, and the storage the ladder
    /// holds must follow the pending events: kept per bucket, it would
    /// grow by a crowded bucket's worth every rung-0 bucket.
    #[test]
    fn periodic_rearms_beside_far_one_shots_hold_bounded_storage() {
        const SEND: u64 = 0;
        /// Slots held per pending event, at most (7-8 measured here).
        const K: usize = 16;
        let mut rng = Xoshiro256::seed_from_u64(45);
        let mut p = Pair::new();
        let mut period = Vec::new();
        for i in 0..400u64 {
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
        let (mut pending, mut peak) = (p.cal.len(), p.cal.len());
        let (mut at, mut pops) = (0, 0u64);
        // 1,100 simulated seconds: past 55 rung-0 buckets.
        while at < 1_100_000_000_000 {
            let seq;
            (at, seq) = p.pop().expect("heartbeats never run dry");
            pending -= 1;
            let every = period[seq as usize];
            if every != SEND {
                p.push(at + every);
                period.push(every);
                p.push(at + 100_000);
                period.push(SEND);
                pending += 2;
            }
            peak = peak.max(pending);
            pops += 1;
            if pops % 4_096 == 0 {
                assert_eq!(p.cal.store.slots, walked_slots(&p.cal));
                assert!(
                    p.cal.store.slots <= K * peak,
                    "{} slots held for at most {peak} pending, after {} s",
                    p.cal.store.slots,
                    at / 1_000_000_000
                );
            }
        }
        let mut qs = QueueStats::default();
        p.cal.report(&mut qs);
        assert!(qs.rungs_spawned >= 55, "{} splits", qs.rungs_spawned);
        assert!(qs.peak_slots as usize <= K * peak, "{qs:?}, peak {peak}");
        p.drain();
        assert_eq!(p.cal.store.slots, walked_slots(&p.cal));
    }

    /// The churn shape: one far item anchors rung 0 two seconds a bucket,
    /// and 120k items at distinct instants pile into its second bucket.
    /// That bucket comes due and splits while every pop pushes a
    /// replacement up to two seconds on. Pops must follow the oracle, and
    /// the slots held must stay near the pending items: a split that holds
    /// the emptied source beside its doubling copy, or buckets that carry
    /// doubling slack, hold about 2.5 slots per pending item here.
    #[test]
    fn a_crowded_bucket_splits_without_a_second_copy() {
        const PILE: u64 = 120_000;
        let mut rng = Xoshiro256::seed_from_u64(50);
        let mut p = Pair::new();
        p.push(1);
        p.push(1_000_000_000_000);
        assert_eq!(p.pop(), Some((1, 0)));
        for _ in 0..PILE {
            p.push(2_000_000_000 + rng.next_u64() % 1_900_000_000);
        }
        let mut peak = p.cal.len();
        for _ in 0..2 * PILE {
            let (at, _) = p.pop().expect("pending");
            p.push(at + 1 + rng.next_u64() % 2_000_000_000);
            peak = peak.max(p.cal.len());
        }
        let mut qs = QueueStats::default();
        p.cal.report(&mut qs);
        assert!(qs.rungs_spawned >= 1, "the crowded bucket never split");
        assert!(
            2 * qs.peak_slots as usize <= 3 * peak,
            "{} slots held for at most {peak} pending",
            qs.peak_slots
        );
        p.drain();
        assert_eq!(p.cal.store.slots, walked_slots(&p.cal));
    }

    /// A projected completion as the network fabric queues it: keyed on
    /// `(finish, flow id, generation)`, with `id` drawn at random, so keys
    /// are not monotone in push order.
    #[derive(Clone, Copy, Debug)]
    struct Finish {
        at: SimTime,
        id: u64,
        gen: u32,
    }

    impl Timed for Finish {
        type Key = (SimTime, u64, u32);

        fn at(&self) -> SimTime {
            self.at
        }

        fn key(&self) -> Self::Key {
            (self.at, self.id, self.gen)
        }
    }

    /// Pushes below the FIFO's back at the last popped instant: the FIFO
    /// fast path would pop `(10, 7)` before `(10, 3)`.
    #[test]
    fn same_instant_push_below_the_fifo_back_sorts() {
        let fin = |at, id| Finish {
            at: SimTime::from_nanos(at),
            id,
            gen: 0,
        };
        let mut q = Ladder::new();
        q.push(fin(10, 5));
        assert_eq!(q.pop().map(|f| f.id), Some(5));
        q.push(fin(10, 7));
        q.push(fin(10, 3));
        assert_eq!(q.peek().map(|f| f.id), Some(3));
        q.push(fin(10, 1));
        q.push(fin(9, 9)); // below the last popped instant
        let order: Vec<_> =
            std::iter::from_fn(|| q.pop().map(|f| (f.at.as_nanos(), f.id))).collect();
        assert_eq!(order, [(9, 9), (10, 1), (10, 3), (10, 7)]);
    }

    /// The fabric's pattern: at each wakeup `now` it pops everything due,
    /// and drops stale entries (superseded generations) *wherever* they
    /// sit — peeking and popping ahead of `now`, so the ladder's clock runs
    /// ahead of the caller's. Then it re-projects flows from `now`, pushing
    /// behind, at, and past the last popped instant, and sleeps until the
    /// first live entry.
    #[test]
    fn matches_binary_heap_popping_stale_entries_ahead_of_the_clock() {
        for seed in 400..408 {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let mut cal = Ladder::new();
            let mut oracle = BinaryHeapQueue::new();
            // Current generation per flow id; an entry is live iff it
            // carries its flow's current generation.
            let mut gens = vec![0u32; 64];
            let mut now = SimTime::ZERO;
            let mut ahead_pops = 0;
            for _ in 0..3_000 {
                // Re-price a few random flows: bump generations (their old
                // entries go stale) and project fresh finishes from `now`,
                // a few at exactly `now` or a nanosecond out.
                for _ in 0..1 + rng.next_u64() % 6 {
                    let id = rng.next_u64() % gens.len() as u64;
                    gens[id as usize] = gens[id as usize].wrapping_add(1);
                    let delay = match rng.next_u64() % 4 {
                        0 => rng.next_u64() % 2,
                        1 => rng.next_u64() % 1_000,
                        _ => rng.next_u64() % 1_000_000,
                    };
                    let f = Finish {
                        at: now + SimDuration::from_nanos(delay),
                        id,
                        gen: gens[id as usize],
                    };
                    cal.push(f);
                    oracle.push(f);
                }
                // Settle: pop what is due; pop stale entries even ahead of
                // `now`; stop at the first live entry in the future.
                loop {
                    let a = cal.peek().copied();
                    let b = oracle.peek().copied();
                    assert_eq!(a.map(|f| f.key()), b.map(|f| f.key()), "seed {seed}");
                    let Some(f) = a else { break };
                    let stale = gens[f.id as usize] != f.gen;
                    if !stale && f.at > now {
                        break;
                    }
                    ahead_pops += usize::from(f.at > now);
                    let (a, b) = (cal.pop(), oracle.pop());
                    assert_eq!(a.map(|f| f.key()), b.map(|f| f.key()), "seed {seed}");
                    if !stale {
                        // Completed: this flow's next transfer starts now.
                        gens[f.id as usize] = gens[f.id as usize].wrapping_add(1);
                    }
                }
                // Sleep until the first live entry (or a little, if none).
                now = match cal.peek() {
                    Some(f) => f.at.max(now),
                    None => now + SimDuration::from_nanos(1 + rng.next_u64() % 1_000),
                };
            }
            assert!(
                ahead_pops > 0,
                "seed {seed}: no stale entry was popped ahead of the clock"
            );
            while let Some(a) = cal.pop() {
                assert_eq!(Some(a.key()), oracle.pop().map(|f| f.key()));
            }
            assert!(oracle.is_empty());
        }
    }
}
