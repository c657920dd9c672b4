//! Lazily-invalidated expiry heap for heartbeat-style liveness tracking.
//!
//! The classic liveness sweep walks *every* tracked peer each tick and
//! compares `now - last_heartbeat` against a silence window — O(cluster)
//! per tick even when nothing changed. [`ExpiryHeap`] makes the sweep cost
//! proportional to what actually approached its deadline: a min-heap of
//! `(deadline, key)` entries where the deadline recorded in the heap is
//! allowed to go stale (heartbeats move the *authoritative* deadline, kept
//! by the caller, without touching the heap — the same lazy-invalidation
//! idiom the engine's generation-tagged timers use). At sweep time, entries
//! whose recorded deadline has passed are popped and checked against the
//! authoritative deadline: genuinely expired keys are returned, refreshed
//! ones are re-pushed at their current deadline, and keys the caller no
//! longer tracks are dropped.
//!
//! Each live key has exactly one heap entry in the steady state (pushed
//! once at registration, moved only at pop time), so a sweep's amortized
//! cost is the number of keys whose *old* deadline elapsed since the last
//! sweep — each key surfaces about once per silence window, not once per
//! tick. Re-registration after an expiry (a node rejoining) pushes a fresh
//! entry; the superseded one, if still queued, is dropped at pop time by
//! the authoritative check, so duplicates are bounded by the number of
//! resurrections, not heartbeats.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Min-heap of `(recorded deadline, key)` with lazy invalidation; see the
/// module docs. `K` is the caller's peer key (e.g. a node id).
#[derive(Clone, Debug, Default)]
pub struct ExpiryHeap<K: Ord + Copy> {
    heap: BinaryHeap<Reverse<(SimTime, K)>>,
}

impl<K: Ord + Copy> ExpiryHeap<K> {
    /// An empty heap.
    pub fn new() -> Self {
        ExpiryHeap {
            heap: BinaryHeap::new(),
        }
    }

    /// Records that `key`'s deadline is `at` (registration or
    /// resurrection). Do **not** call this per heartbeat — heartbeats only
    /// update the caller's authoritative deadline; the heap learns about
    /// the extension when the stale entry surfaces at sweep time.
    pub fn schedule(&mut self, at: SimTime, key: K) {
        self.heap.push(Reverse((at, key)));
    }

    /// Pops every entry whose recorded deadline is strictly before `now`
    /// and classifies it with `deadline_of`, the caller's authoritative
    /// view: `None` means the key is no longer tracked (dead, removed) —
    /// the entry is dropped; `Some(d)` with `d < now` means genuinely
    /// expired — the key is returned; otherwise the entry is re-pushed at
    /// `d`. The strict `<` matches the usual `now - last > window` rule: a
    /// key whose deadline is exactly `now` survives this sweep.
    ///
    /// The returned keys are in ascending key order, each once (stale
    /// entries of a resurrected key can surface together): a
    /// deterministic processing order that does not depend on when each
    /// deadline was recorded.
    pub fn expired<F>(&mut self, now: SimTime, mut deadline_of: F) -> Vec<K>
    where
        F: FnMut(K) -> Option<SimTime>,
    {
        let mut out = Vec::new();
        while let Some(&Reverse((at, key))) = self.heap.peek() {
            if at >= now {
                break;
            }
            self.heap.pop();
            match deadline_of(key) {
                None => {}
                Some(d) if d < now => out.push(key),
                // Heartbeats extended the deadline past this sweep:
                // re-queue at the authoritative instant (`d >= now`, so
                // this cannot loop).
                Some(d) => self.heap.push(Reverse((d, key))),
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of queued entries (live keys plus superseded stragglers).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn expires_only_past_strict_deadlines() {
        let mut h = ExpiryHeap::new();
        h.schedule(t(10), 1u32);
        h.schedule(t(20), 2u32);
        // Deadline exactly at `now` survives (strict `<`).
        assert!(h.expired(t(10), |_| Some(t(10))).is_empty());
        // Past deadline with a matching authoritative view expires.
        assert_eq!(h.expired(t(11), |_| Some(t(10))), vec![1]);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn refreshed_entries_are_repushed_not_expired() {
        let mut h = ExpiryHeap::new();
        h.schedule(t(10), 7u32);
        // A heartbeat moved the authoritative deadline to t=30: the stale
        // entry is re-queued there instead of expiring.
        assert!(h.expired(t(15), |_| Some(t(30))).is_empty());
        assert_eq!(h.len(), 1);
        // Not yet: recorded deadline is now the authoritative one.
        assert!(h.expired(t(25), |_| Some(t(30))).is_empty());
        assert_eq!(h.expired(t(31), |_| Some(t(30))), vec![7]);
        assert!(h.is_empty());
    }

    #[test]
    fn untracked_keys_are_dropped() {
        let mut h = ExpiryHeap::new();
        h.schedule(t(5), 1u32);
        h.schedule(t(6), 2u32);
        let got = h.expired(t(10), |k| if k == 1 { None } else { Some(t(6)) });
        assert_eq!(got, vec![2]);
        assert!(h.is_empty());
    }

    #[test]
    fn resurrection_duplicates_are_bounded_and_harmless() {
        let mut h = ExpiryHeap::new();
        h.schedule(t(10), 3u32);
        // Expire once.
        assert_eq!(h.expired(t(11), |_| Some(t(10))), vec![3]);
        // Rejoin: fresh entry at a later deadline.
        h.schedule(t(40), 3u32);
        assert!(h.expired(t(20), |_| Some(t(40))).is_empty());
        assert_eq!(h.expired(t(41), |_| Some(t(40))), vec![3]);
        assert!(h.is_empty());
        // A superseded entry surfacing beside the fresh one, behind a key
        // with a later deadline and a smaller id: sorted, each key once.
        h.schedule(t(50), 3u32);
        h.schedule(t(52), 3u32);
        h.schedule(t(55), 1u32);
        assert_eq!(h.expired(t(60), |_| Some(t(55))), vec![1, 3]);
        assert!(h.is_empty());
    }
}
