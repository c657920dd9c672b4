//! Optional event tracing.
//!
//! When enabled, the engine records `(time, actor, event-label)` for every
//! dispatched event. Traces serve two purposes: debugging protocol issues,
//! and *determinism testing* — two runs with the same seed must produce the
//! same fingerprint, which the integration suite asserts. When two
//! fingerprints differ, [`Trace::first_divergence`] says where the stored
//! streams part.

use std::collections::BTreeMap;
use std::hash::Hasher;

use crate::actor::ActorId;
use crate::fxmap::FxHasher;
use crate::time::SimTime;

/// One dispatched event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// When the event was delivered.
    pub at: SimTime,
    /// Receiving actor.
    pub target: ActorId,
    /// Event label (message type name, `Start`, or `Timer`).
    pub label: &'static str,
}

/// Ring-buffer-free bounded trace: recording stops at `capacity` entries but
/// the fingerprint keeps folding every event, so determinism checks cover
/// entire runs even when the stored trace is truncated.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    capacity: usize,
    hasher: FxHasher,
    recorded: u64,
    enabled: bool,
}

impl Trace {
    /// Enables tracing, storing at most `capacity` entries.
    pub fn enable(&mut self, capacity: usize) {
        self.enabled = true;
        self.capacity = capacity;
        self.entries.reserve(capacity.min(1 << 20));
    }

    /// `true` when recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one dispatch (no-op unless enabled).
    #[inline]
    pub fn record(&mut self, at: SimTime, target: ActorId, label: &'static str) {
        if !self.enabled {
            return;
        }
        self.recorded += 1;
        self.hasher.write_u64(at.as_nanos());
        self.hasher.write_u32(target.0);
        self.hasher.write(label.as_bytes());
        if self.entries.len() < self.capacity {
            self.entries.push(TraceEntry { at, target, label });
        }
    }

    /// Stored entries (possibly fewer than [`Trace::recorded`]).
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Total events folded into the fingerprint.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Order-sensitive digest of every recorded event.
    pub fn fingerprint(&self) -> u64 {
        let mut h = self.hasher.clone();
        h.write_u64(self.recorded);
        h.finish()
    }

    /// The first stored index at which this trace and `other` hold
    /// different entries, or at which one of them ends; `None` when the
    /// stored entries are identical (fingerprints can still differ past
    /// the storage cap: compare [`Trace::recorded`]).
    pub fn first_divergence(&self, other: &Trace) -> Option<Divergence> {
        let (ours, theirs) = (&self.entries, &other.entries);
        let index = ours
            .iter()
            .zip(theirs)
            .position(|(a, b)| a != b)
            .unwrap_or(ours.len().min(theirs.len()));
        if index == ours.len() && index == theirs.len() {
            return None;
        }
        let mut counts: BTreeMap<&'static str, i64> = BTreeMap::new();
        for e in ours {
            *counts.entry(e.label).or_default() -= 1;
        }
        for e in theirs {
            *counts.entry(e.label).or_default() += 1;
        }
        Some(Divergence {
            index,
            ours: ours.get(index).cloned(),
            theirs: theirs.get(index).cloned(),
            label_deltas: counts.into_iter().filter(|&(_, d)| d != 0).collect(),
        })
    }
}

/// Where two traces part ([`Trace::first_divergence`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Index into both traces' stored entries.
    pub index: usize,
    /// The receiving trace's entry there; `None` where it ended.
    pub ours: Option<TraceEntry>,
    /// The other trace's entry there; `None` where it ended.
    pub theirs: Option<TraceEntry>,
    /// Per event label, the other trace's stored count minus this one's,
    /// for every label whose counts differ, in label order.
    pub label_deltas: Vec<(&'static str, i64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::default();
        t.record(SimTime::ZERO, ActorId(0), "X");
        assert_eq!(t.recorded(), 0);
        assert!(t.entries().is_empty());
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let mut a = Trace::default();
        a.enable(16);
        let mut b = Trace::default();
        b.enable(16);
        a.record(SimTime::from_nanos(1), ActorId(0), "X");
        a.record(SimTime::from_nanos(2), ActorId(1), "Y");
        b.record(SimTime::from_nanos(2), ActorId(1), "Y");
        b.record(SimTime::from_nanos(1), ActorId(0), "X");
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn capacity_truncates_storage_but_not_fingerprint() {
        let mut a = Trace::default();
        a.enable(2);
        for i in 0..5 {
            a.record(SimTime::from_nanos(i), ActorId(0), "E");
        }
        assert_eq!(a.entries().len(), 2);
        assert_eq!(a.recorded(), 5);

        let mut b = Trace::default();
        b.enable(2);
        for i in 0..4 {
            b.record(SimTime::from_nanos(i), ActorId(0), "E");
        }
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    fn traced(events: &[(u64, u32, &'static str)]) -> Trace {
        let mut t = Trace::default();
        t.enable(8);
        for &(at, target, label) in events {
            t.record(SimTime::from_nanos(at), ActorId(target), label);
        }
        t
    }

    #[test]
    fn equal_traces_do_not_diverge() {
        let a = traced(&[(1, 0, "X"), (2, 1, "Y")]);
        assert_eq!(a.first_divergence(&a.clone()), None);
        assert_eq!(Trace::default().first_divergence(&Trace::default()), None);
    }

    #[test]
    fn divergence_names_the_first_differing_entry() {
        let a = traced(&[(1, 0, "X"), (2, 1, "Y"), (3, 0, "X"), (4, 0, "X")]);
        let b = traced(&[(1, 0, "X"), (2, 1, "Y"), (3, 1, "Z"), (4, 0, "X")]);
        let entry = |at, target, label| TraceEntry {
            at: SimTime::from_nanos(at),
            target: ActorId(target),
            label,
        };
        let d = a.first_divergence(&b).expect("traces differ");
        assert_eq!(d.index, 2);
        assert_eq!(d.ours, Some(entry(3, 0, "X")));
        assert_eq!(d.theirs, Some(entry(3, 1, "Z")));
        assert_eq!(d.label_deltas, [("X", -1), ("Z", 1)]);
        // A different target alone is a divergence, with no label delta.
        let c = traced(&[(1, 0, "X"), (2, 2, "Y")]);
        let d = traced(&[(1, 0, "X"), (2, 1, "Y")]).first_divergence(&c);
        assert_eq!(d.map(|d| (d.index, d.label_deltas)), Some((1, vec![])));
    }

    #[test]
    fn a_truncated_trace_diverges_where_it_ends() {
        let long = traced(&[(1, 0, "X"), (2, 1, "Y"), (3, 1, "Y")]);
        let short = traced(&[(1, 0, "X")]);
        let d = short.first_divergence(&long).expect("lengths differ");
        assert_eq!((d.index, d.ours), (1, None));
        assert_eq!(d.theirs.map(|e| e.label), Some("Y"));
        assert_eq!(d.label_deltas, [("Y", 2)]);
        let back = long.first_divergence(&short).expect("lengths differ");
        assert_eq!((back.index, back.theirs), (1, None));
        assert_eq!(back.label_deltas, [("Y", -2)]);
    }

    #[test]
    fn identical_streams_match() {
        let mk = || {
            let mut t = Trace::default();
            t.enable(8);
            t.record(SimTime::from_nanos(3), ActorId(2), "A");
            t.record(SimTime::from_nanos(9), ActorId(5), "B");
            t.fingerprint()
        };
        assert_eq!(mk(), mk());
    }
}
