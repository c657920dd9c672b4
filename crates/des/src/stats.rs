//! Lightweight metric collection for simulations.
//!
//! Counters accumulate totals (bytes moved, tasks launched), keyed by
//! `&'static str` to keep the hot path allocation-free.

use crate::fxmap::FxHashMap;

/// Event-core health counters, maintained inline by the engine (plain
/// fields, not hash-map counters, so the dispatch hot path stays free of
/// hashing). Read them via [`Stats::queue`]; the bench sections surface them in
/// their JSON sections so queue regressions show up in the trajectory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever enqueued (dispatched or dropped).
    pub pushes: u64,
    /// High-water mark of pending events.
    pub peak_depth: u64,
    /// Timer firings dropped because the arming was cancelled or
    /// rescheduled before the queue entry surfaced.
    pub cancelled_drops: u64,
    /// Events dropped because their target actor was killed first.
    pub dead_actor_drops: u64,
    /// Timer armings that reused the slot of the timer being handled or
    /// rescheduled (the in-place path — no cancel + re-insert).
    pub timer_rearms: u64,
    /// Distinct timer slots ever allocated (live armings never exceed
    /// this; periodic timers hold one slot forever).
    pub timer_slots: u64,
    /// Crowded buckets the queue split into a finer child rung rather than
    /// sorting (see `queue.rs`; as of the last `run_until` / `step`).
    pub rungs_spawned: u64,
    /// Longest the queue's sorted current run ever was — pushes into it
    /// are the only ones that cost a search and a shift.
    pub peak_cur_len: u64,
}

/// Per-actor-class event cost, collected only when profiling is enabled
/// ([`Sim::enable_profiling`](crate::Sim::enable_profiling)). The class is
/// the actor name up to the first `@` — `"mr.tasktracker@17"` and
/// `"mr.tasktracker@9000"` share one row — so the table stays a handful of
/// rows at any cluster size. `nanos` is host wall time spent inside
/// `Actor::handle`; it measures the *simulator's* cost per event (the
/// control-plane scalability number the bench sections pin), never simulated
/// time, and never feeds back into the simulation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ActorCost {
    /// Actor-class label (name up to the first `@`).
    pub class: String,
    /// Events dispatched to actors of this class.
    pub events: u64,
    /// Host nanoseconds spent handling those events.
    pub nanos: u64,
}

/// Entries in the counter memo (direct-mapped on the name's address).
const MEMO: usize = 256;

/// `(address, length, slot)` of the counter name last seen at each index.
/// A `&'static str` with the same address and length is the same bytes for
/// the life of the program; the zeroed entry matches none (no `str` lives
/// at address 0).
#[derive(Debug)]
struct CounterMemo([(usize, usize, usize); MEMO]);

impl Default for CounterMemo {
    fn default() -> Self {
        CounterMemo([(0, 0, 0); MEMO])
    }
}

/// Metric sink owned by the engine and shared with all actors via `Ctx`.
#[derive(Debug, Default)]
pub struct Stats {
    /// Counters in first-touch order; `counter_slots` finds a name's slot
    /// by content, `counter_memo` by address without hashing the string
    /// (call sites pass literals, so a hot counter hits it every time).
    counters: Vec<(&'static str, u64)>,
    counter_slots: FxHashMap<&'static str, usize>,
    counter_memo: CounterMemo,
    queue: QueueStats,
    /// Indexed by the class id interned at spawn; rows are append-only so
    /// ids stay stable across [`reset`](Stats::reset) (which zeroes the
    /// counts but keeps the interning).
    actor_costs: Vec<ActorCost>,
    /// Rows charged by [`Ctx::lap`](crate::Ctx::lap), in first-charge
    /// order: `class` is the lap's name, `events` the laps taken.
    lap_costs: Vec<ActorCost>,
}

impl Stats {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name` (creating it at zero).
    #[inline]
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.slot(name) += delta;
    }

    /// Raises counter `name` to `value` if it is lower: a high-water mark.
    #[inline]
    pub fn raise(&mut self, name: &'static str, value: u64) {
        let c = self.slot(name);
        *c = (*c).max(value);
    }

    /// Counter `name`'s value, created at zero on first touch.
    #[inline]
    fn slot(&mut self, name: &'static str) -> &mut u64 {
        let (addr, len) = (name.as_ptr() as usize, name.len());
        let memo = &mut self.counter_memo.0[addr % MEMO];
        if (memo.0, memo.1) != (addr, len) {
            // Another name (or none) holds this entry: resolve by content,
            // so equal strings at two addresses still share one counter.
            let next = self.counters.len();
            let slot = *self.counter_slots.entry(name).or_insert(next);
            if slot == next {
                self.counters.push((name, 0));
            }
            *memo = (addr, len, slot);
        }
        &mut self.counters[memo.2].1
    }

    /// Increments counter `name` by one.
    #[inline]
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Reads counter `name` (0 when absent).
    pub fn counter(&self, name: &'static str) -> u64 {
        self.counter_slots
            .get(name)
            .map_or(0, |&slot| self.counters[slot].1)
    }

    /// Iterates counters in sorted-name order (for stable reports).
    pub fn counters_sorted(&self) -> Vec<(&'static str, u64)> {
        let mut v = self.counters.clone();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }

    /// Event-core health counters (queue depth, drops, timer reuse).
    #[inline]
    pub fn queue(&self) -> QueueStats {
        self.queue
    }

    /// Engine-internal mutable access to the event-core counters.
    #[inline]
    pub(crate) fn queue_mut(&mut self) -> &mut QueueStats {
        &mut self.queue
    }

    /// Per-actor-class event costs, in class-name order. Empty unless
    /// profiling was enabled
    /// ([`Sim::enable_profiling`](crate::Sim::enable_profiling)) — classes
    /// are interned at spawn regardless, but rows with zero events are
    /// filtered out here so an unprofiled run reports nothing.
    pub fn actor_costs(&self) -> Vec<ActorCost> {
        let mut v: Vec<ActorCost> = self
            .actor_costs
            .iter()
            .filter(|c| c.events > 0)
            .cloned()
            .collect();
        v.sort_unstable_by(|a, b| a.class.cmp(&b.class));
        v
    }

    /// Interns an actor class, returning its stable row id. Linear scan:
    /// class counts are small (one per actor *type*, not per actor) and
    /// this only runs at spawn.
    pub(crate) fn intern_actor_class(&mut self, class: &str) -> u32 {
        if let Some(i) = self.actor_costs.iter().position(|c| c.class == class) {
            return i as u32;
        }
        self.actor_costs.push(ActorCost {
            class: class.to_string(),
            events: 0,
            nanos: 0,
        });
        (self.actor_costs.len() - 1) as u32
    }

    /// Engine-internal: charges one event of `nanos` host time to `class`.
    #[inline]
    pub(crate) fn charge_actor_cost(&mut self, class: u32, nanos: u64) {
        let row = &mut self.actor_costs[class as usize];
        row.events += 1;
        row.nanos += nanos;
    }

    /// Host time handlers charged to named phases with
    /// [`Ctx::lap`](crate::Ctx::lap), in name order: one row per lap name
    /// (`class`), with the number of laps taken (`events`) and their summed
    /// host nanoseconds. A finer cut of the same measurement as
    /// [`Stats::actor_costs`] — a lap's time is also inside its actor's
    /// row — and, like it, empty unless profiling was enabled.
    pub fn lap_costs(&self) -> Vec<ActorCost> {
        let mut v = self.lap_costs.clone();
        v.sort_unstable_by(|a, b| a.class.cmp(&b.class));
        v
    }

    /// Engine-internal: charges one lap of `nanos` host time to `name`.
    /// Linear scan: a profiled run has a handful of lap names.
    pub(crate) fn charge_lap(&mut self, name: &'static str, nanos: u64) {
        let row = match self.lap_costs.iter().position(|c| c.class == name) {
            Some(i) => &mut self.lap_costs[i],
            None => {
                self.lap_costs.push(ActorCost {
                    class: name.to_string(),
                    ..ActorCost::default()
                });
                self.lap_costs.last_mut().expect("just pushed")
            }
        };
        row.events += 1;
        row.nanos += nanos;
    }

    /// Clears all metrics. Actor-class interning survives (ids handed out
    /// at spawn stay valid); the per-class counts are zeroed.
    pub fn reset(&mut self) {
        self.counters.clear();
        self.counter_slots.clear();
        self.counter_memo = CounterMemo::default();
        self.queue = QueueStats::default();
        for c in &mut self.actor_costs {
            c.events = 0;
            c.nanos = 0;
        }
        self.lap_costs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.add("bytes", 10);
        s.add("bytes", 5);
        s.incr("tasks");
        s.raise("peak", 7);
        s.raise("peak", 3);
        assert_eq!(s.counter("bytes"), 15);
        assert_eq!(s.counter("tasks"), 1);
        assert_eq!(s.counter("peak"), 7);
        assert_eq!(s.counter("missing"), 0);
    }

    #[test]
    fn sorted_counters_and_reset() {
        let mut s = Stats::new();
        s.add("z", 1);
        s.add("a", 2);
        s.charge_lap("phase", 40);
        assert_eq!(s.counters_sorted(), vec![("a", 2), ("z", 1)]);
        assert_eq!(s.lap_costs()[0].nanos, 40);
        s.reset();
        assert!(s.counters_sorted().is_empty());
        assert!(s.lap_costs().is_empty());
    }

    fn leak(s: String) -> &'static str {
        Box::leak(s.into_boxed_str())
    }

    #[test]
    fn equal_names_at_two_addresses_share_one_counter() {
        let (a, b) = ("dup.name", leak(String::from("dup.name")));
        assert_ne!(a.as_ptr(), b.as_ptr());
        let mut s = Stats::new();
        for _ in 0..3 {
            s.add(a, 1);
            s.add(b, 10);
        }
        assert_eq!(s.counter("dup.name"), 33);
        assert_eq!(s.counters_sorted(), vec![("dup.name", 33)]);
    }

    #[test]
    fn reset_forgets_memoised_slots() {
        let mut s = Stats::new();
        s.add("x", 1);
        s.add("y", 2);
        s.reset();
        // A stale memo entry would send "y" to slot 1 of an empty table.
        s.add("y", 5);
        assert_eq!(s.counters_sorted(), vec![("y", 5)]);
        assert_eq!(s.counter("x"), 0);
    }

    #[test]
    fn memo_collisions_fall_back_to_the_map() {
        // Slices of one buffer: `near` and `far` sit exactly MEMO bytes
        // apart (same memo entry, different content); `longer` shares
        // `near`'s address but not its length.
        let buf = leak(("abcdefgh".repeat(MEMO / 8)) + "ABCDEFGH");
        let (near, longer, far) = (&buf[..4], &buf[..5], &buf[MEMO..MEMO + 4]);
        // And three times more hot names than the memo has entries.
        let names: Vec<&'static str> = (0..3 * MEMO).map(|i| leak(format!("n{i}"))).collect();
        let mut s = Stats::new();
        for round in 1..=4u64 {
            s.add(near, 1);
            s.add(far, 100);
            s.add(longer, 10_000);
            for (i, name) in names.iter().enumerate() {
                s.add(name, round * i as u64);
            }
        }
        assert_eq!(s.counter("abcd"), 4);
        assert_eq!(s.counter("ABCD"), 400);
        assert_eq!(s.counter("abcde"), 40_000);
        for (i, name) in names.iter().enumerate() {
            assert_eq!(s.counter(name), 10 * i as u64, "{name}");
        }
        assert_eq!(s.counters_sorted().len(), 3 + names.len());
    }
}
