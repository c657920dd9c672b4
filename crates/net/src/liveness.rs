//! Heartbeat-silence liveness: who is alive, by when each node last spoke.
//!
//! The NameNode (DataNodes) and the JobTracker (TaskTrackers) both declare
//! a node dead once it has been silent for longer than a window. A full
//! sweep would walk every node each tick; [`Liveness`] instead keeps a
//! min-heap of `(deadline, node)` entries, exactly one per live node,
//! whose recorded deadline may go stale. A heartbeat moves only the node's
//! clock, never the heap; a stale entry is re-pushed at the node's current
//! deadline when it surfaces in a [`sweep`](Liveness::sweep). Each live
//! node surfaces about once per window, so an all-quiet tick costs O(1)
//! whatever the cluster size.
//!
//! Node ids are dense and never recycled, so the per-node state is a
//! table indexed by [`NodeId`], not a map.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use accelmr_des::{SimDuration, SimTime};

use crate::config::NodeId;

/// What a [`Liveness`] tracker knows about a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeState {
    /// Never admitted.
    Unknown,
    /// Admitted and not declared dead since.
    Live,
    /// Declared dead by a sweep and not admitted again since.
    Dead,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    last_heard: SimTime,
    state: NodeState,
}

/// Heartbeat-silence tracker over a dense node table; see the module docs.
#[derive(Debug)]
pub struct Liveness {
    window: SimDuration,
    nodes: Vec<Entry>,
    /// `(recorded deadline, node)`: one entry per live node, recorded at
    /// or before its current deadline.
    expiry: BinaryHeap<Reverse<(SimTime, NodeId)>>,
    /// Live nodes, ascending.
    live: Vec<NodeId>,
}

impl Liveness {
    /// An empty tracker declaring a node dead once it has been silent for
    /// longer than `window`.
    pub fn new(window: SimDuration) -> Self {
        Liveness {
            window,
            nodes: Vec::new(),
            expiry: BinaryHeap::new(),
            live: Vec::new(),
        }
    }

    /// Registers, joins or resurrects `node`: it is live and last heard
    /// at `now`, so it gets a full window before a sweep can declare it
    /// dead. Whether a dead node may come back is the caller's policy.
    pub fn admit(&mut self, node: NodeId, now: SimTime) {
        let i = node.index();
        if i >= self.nodes.len() {
            let unknown = Entry {
                last_heard: SimTime::ZERO,
                state: NodeState::Unknown,
            };
            self.nodes.resize(i + 1, unknown);
        }
        let entry = &mut self.nodes[i];
        entry.last_heard = now;
        if entry.state == NodeState::Live {
            // Already queued, at or before the new deadline.
            return;
        }
        entry.state = NodeState::Live;
        self.expiry.push(Reverse((now + self.window, node)));
        if let Err(pos) = self.live.binary_search(&node) {
            self.live.insert(pos, node);
        }
    }

    /// A heartbeat from `node` at `now`: moves a live node's clock (never
    /// the heap) and returns what the tracker knew before it.
    pub fn heard(&mut self, node: NodeId, now: SimTime) -> NodeState {
        match self.nodes.get_mut(node.index()) {
            Some(entry) => {
                if entry.state == NodeState::Live {
                    entry.last_heard = now;
                }
                entry.state
            }
            None => NodeState::Unknown,
        }
    }

    /// Declares dead every live node silent for longer than the window:
    /// last heard at `l` with `l + window < now`. The strict `<` is the
    /// `now - l > window` rule, so a node whose window ends exactly at
    /// `now` survives this sweep. The newly dead come back in ascending
    /// node order, each once, however their entries were ordered in the
    /// heap — the order callers process deaths in.
    pub fn sweep(&mut self, now: SimTime) -> Vec<NodeId> {
        let mut dead = Vec::new();
        while let Some(&Reverse((at, node))) = self.expiry.peek() {
            if at >= now {
                break;
            }
            self.expiry.pop();
            let entry = &mut self.nodes[node.index()];
            debug_assert_eq!(entry.state, NodeState::Live, "queued entry of a dead node");
            let deadline = entry.last_heard + self.window;
            if deadline < now {
                entry.state = NodeState::Dead;
                if let Ok(pos) = self.live.binary_search(&node) {
                    self.live.remove(pos);
                }
                dead.push(node);
            } else {
                // Heard since the entry was pushed: `deadline >= now`, so
                // this cannot loop.
                self.expiry.push(Reverse((deadline, node)));
            }
        }
        dead.sort_unstable();
        dead
    }

    /// Whether a sweep declared `node` dead (and it was not admitted
    /// since). `false` for a node never admitted.
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.nodes
            .get(node.index())
            .is_some_and(|e| e.state == NodeState::Dead)
    }

    /// Live nodes, ascending.
    pub fn live(&self) -> &[NodeId] {
        &self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn tracker() -> Liveness {
        Liveness::new(SimDuration::from_secs(10))
    }

    #[test]
    fn expires_only_past_strict_deadlines() {
        let mut l = tracker();
        l.admit(NodeId(1), t(0));
        l.admit(NodeId(2), t(10));
        // Deadline exactly at `now` survives (strict `<`).
        assert!(l.sweep(t(10)).is_empty());
        assert_eq!(l.sweep(t(11)), vec![NodeId(1)]);
        assert!(l.is_dead(NodeId(1)) && !l.is_dead(NodeId(2)));
        assert_eq!(l.expiry.len(), 1);
    }

    #[test]
    fn refreshed_entries_are_repushed_not_expired() {
        let mut l = tracker();
        l.admit(NodeId(7), t(0));
        // A heartbeat moved the deadline to t=30: the stale entry is
        // re-queued there instead of expiring.
        assert_eq!(l.heard(NodeId(7), t(20)), NodeState::Live);
        assert!(l.sweep(t(25)).is_empty());
        assert_eq!(l.expiry.len(), 1);
        assert!(l.sweep(t(30)).is_empty());
        assert_eq!(l.sweep(t(31)), vec![NodeId(7)]);
        assert!(l.expiry.is_empty());
    }

    #[test]
    fn dead_nodes_stay_dead_and_leave_the_heap() {
        let mut l = tracker();
        l.admit(NodeId(1), t(0));
        l.admit(NodeId(2), t(0));
        assert_eq!(l.sweep(t(11)), vec![NodeId(1), NodeId(2)]);
        // A heartbeat from a dead node is reported, not acted on.
        assert_eq!(l.heard(NodeId(1), t(12)), NodeState::Dead);
        assert!(l.is_dead(NodeId(1)));
        assert!(l.expiry.is_empty());
        assert!(l.sweep(t(100)).is_empty());
    }

    #[test]
    fn resurrection_keeps_one_entry_per_live_node() {
        let mut l = tracker();
        l.admit(NodeId(3), t(0));
        assert_eq!(l.sweep(t(11)), vec![NodeId(3)]);
        // Rejoin: one fresh entry at the later deadline.
        l.admit(NodeId(3), t(30));
        assert!(l.sweep(t(20)).is_empty());
        assert_eq!(l.sweep(t(41)), vec![NodeId(3)]);
        // Resurrected behind a node with a smaller id and a later
        // deadline: sorted, each node once.
        l.admit(NodeId(3), t(45));
        l.heard(NodeId(3), t(47));
        l.admit(NodeId(1), t(49));
        assert_eq!(l.expiry.len(), 2);
        assert_eq!(l.sweep(t(60)), vec![NodeId(1), NodeId(3)]);
        assert!(l.expiry.is_empty());
    }

    #[test]
    fn unknown_nodes_are_reported_and_never_swept() {
        let mut l = tracker();
        assert_eq!(l.heard(NodeId(5), t(1)), NodeState::Unknown);
        l.admit(NodeId(2), t(0));
        assert_eq!(l.heard(NodeId(1), t(1)), NodeState::Unknown);
        assert!(!l.is_dead(NodeId(5)));
        assert_eq!(l.sweep(t(100)), vec![NodeId(2)]);
        assert_eq!(l.heard(NodeId(5), t(101)), NodeState::Unknown);
        assert!(l.live().is_empty());
    }

    #[test]
    fn readmit_supersedes_a_stale_entry() {
        let mut l = tracker();
        l.admit(NodeId(4), t(0));
        // Re-admitted while live: the clock moves, the queued entry (t=10)
        // goes stale and is superseded by the deadline t=18.
        l.admit(NodeId(4), t(8));
        assert_eq!(l.expiry.len(), 1);
        assert!(l.sweep(t(11)).is_empty());
        assert!(l.sweep(t(18)).is_empty());
        assert_eq!(l.sweep(t(19)), vec![NodeId(4)]);
    }

    #[test]
    fn live_stays_sorted_through_death_and_resurrection() {
        let mut l = tracker();
        for n in [5, 1, 4, 2, 3] {
            l.admit(NodeId(n), t(0));
        }
        assert_eq!(l.live(), [1, 2, 3, 4, 5].map(NodeId));
        for n in [1, 3, 5] {
            l.heard(NodeId(n), t(8));
        }
        assert_eq!(l.sweep(t(11)), vec![NodeId(2), NodeId(4)]);
        assert_eq!(l.live(), [1, 3, 5].map(NodeId));
        l.admit(NodeId(4), t(12));
        l.admit(NodeId(2), t(12));
        assert_eq!(l.live(), [1, 2, 3, 4, 5].map(NodeId));
        l.admit(NodeId(2), t(13));
        assert_eq!(l.live(), [1, 2, 3, 4, 5].map(NodeId));
    }
}
