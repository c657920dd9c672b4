//! Shared, mutable node → actor registry for dynamic membership.
//!
//! A [`NodeRegistry`] is a cheap-to-clone mapping that every clone
//! observes live: joins and departures are visible immediately, so a
//! TaskTracker routing a read to a replica on a freshly-joined node (or
//! failing fast off a departed one) always sees the current cluster. The
//! simulation is single-threaded, so the interior mutex is uncontended;
//! entries are kept sorted by node id so every iteration order is
//! deterministic.
//!
//! A departed node's entry stays behind as a tombstone stamped with the
//! number of departures so far. [`get`](NodeRegistry::get) and
//! [`snapshot`](NodeRegistry::snapshot) skip tombstones; a member that
//! resolves its peers through a [`PeerView`] taken when it was wired still
//! sees a node that left after that moment, and never one that had
//! already left.

use std::sync::{Arc, Mutex, MutexGuard};

use accelmr_des::ActorId;

use crate::config::NodeId;

/// Live `NodeId → ActorId` mapping shared by every handle clone.
#[derive(Clone, Debug, Default)]
pub struct NodeRegistry {
    inner: Arc<Mutex<Members>>,
}

#[derive(Debug, Default)]
struct Members {
    /// Every node ever registered, ascending by node id, with the
    /// departure count that took it out, while it is out.
    entries: Vec<(NodeId, ActorId, Option<u64>)>,
    /// Departures so far.
    departures: u64,
}

impl NodeRegistry {
    fn members(&self) -> MutexGuard<'_, Members> {
        self.inner.lock().expect("registry lock poisoned")
    }

    /// The actor registered for `node`, if it is registered now: what a
    /// view taken after every departure resolves.
    pub fn get(&self, node: NodeId) -> Option<ActorId> {
        self.resolve(node, u64::MAX)
    }

    /// The registry as a member wired now resolves it from now on.
    pub fn view(&self) -> PeerView {
        let wired_at = self.members().departures;
        PeerView {
            registry: self.clone(),
            wired_at,
        }
    }

    /// The actor for `node` as a view taken after `wired_at` departures
    /// sees it: the registered one, or the last one if `node` left later.
    fn resolve(&self, node: NodeId, wired_at: u64) -> Option<ActorId> {
        let m = self.members();
        let i = m.entries.binary_search_by_key(&node, |e| e.0).ok()?;
        let (_, actor, left) = m.entries[i];
        left.is_none_or(|left| left > wired_at).then_some(actor)
    }

    /// Registers (or replaces) the actor for `node`.
    pub fn insert(&self, node: NodeId, actor: ActorId) {
        let mut m = self.members();
        match m.entries.binary_search_by_key(&node, |e| e.0) {
            Ok(i) => m.entries[i] = (node, actor, None),
            Err(i) => m.entries.insert(i, (node, actor, None)),
        }
    }

    /// Registers `entries`, none of them registered yet, under one lock:
    /// how a deployment registers its first members.
    pub fn extend(&self, entries: &[(NodeId, ActorId)]) {
        let mut m = self.members();
        let added = entries.iter().map(|&(node, actor)| (node, actor, None));
        m.entries.extend(added);
        m.entries.sort_unstable_by_key(|e| e.0);
        debug_assert!(
            m.entries.windows(2).all(|w| w[0].0 < w[1].0),
            "registered twice"
        );
    }

    /// Deregisters `node`, leaving its tombstone, and returns its actor if
    /// it was registered.
    pub fn remove(&self, node: NodeId) -> Option<ActorId> {
        let m = &mut *self.members();
        let i = m.entries.binary_search_by_key(&node, |e| e.0).ok()?;
        let (_, actor, left) = &mut m.entries[i];
        if left.is_some() {
            return None;
        }
        m.departures += 1;
        *left = Some(m.departures);
        Some(*actor)
    }

    /// Registered entries, ascending by node id.
    pub fn snapshot(&self) -> Vec<(NodeId, ActorId)> {
        let m = self.members();
        let registered = m.entries.iter().filter(|e| e.2.is_none());
        registered.map(|&(node, actor, _)| (node, actor)).collect()
    }
}

/// What one member resolves through a [`NodeRegistry`] from the moment it
/// was wired ([`NodeRegistry::view`]): every node ever registered, except
/// one that had already left then.
#[derive(Clone, Debug)]
pub struct PeerView {
    registry: NodeRegistry,
    /// Departures the registry had seen when the view was taken.
    wired_at: u64,
}

impl PeerView {
    /// The actor for `node`: the registered one, or the last one if `node`
    /// left after this view was taken.
    pub fn resolve(&self, node: NodeId) -> Option<ActorId> {
        self.registry.resolve(node, self.wired_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelmr_des::prelude::*;

    struct Noop;
    impl Actor for Noop {
        fn handle(&mut self, _: &mut Ctx<'_>, _: Event) {}
    }

    fn actors(n: usize) -> Vec<ActorId> {
        let mut sim = Sim::new(0);
        (0..n).map(|_| sim.spawn(Box::new(Noop))).collect()
    }

    #[test]
    fn registry_is_shared_and_sorted() {
        let ids = actors(4);
        let r = NodeRegistry::default();
        r.extend(&[(NodeId(3), ids[3]), (NodeId(1), ids[1])]);
        let clone = r.clone();
        assert_eq!(r.snapshot(), vec![(NodeId(1), ids[1]), (NodeId(3), ids[3])]);
        clone.insert(NodeId(2), ids[2]);
        assert_eq!(r.get(NodeId(2)), Some(ids[2]));
        assert_eq!(
            r.snapshot(),
            vec![
                (NodeId(1), ids[1]),
                (NodeId(2), ids[2]),
                (NodeId(3), ids[3])
            ]
        );
        assert_eq!(r.remove(NodeId(1)), Some(ids[1]));
        assert_eq!(clone.get(NodeId(1)), None);
        assert_eq!(clone.get(NodeId(3)), Some(ids[3]));
        // Replacement keeps one entry per node.
        r.insert(NodeId(2), ids[0]);
        assert_eq!(r.snapshot(), vec![(NodeId(2), ids[0]), (NodeId(3), ids[3])]);
    }

    /// A departed node is a tombstone: gone for `get` and `snapshot`,
    /// still resolved by a view taken before it left, never by one taken
    /// after, and live again for every view once it re-registers.
    #[test]
    fn tombstones_resolve_only_for_views_taken_before_the_departure() {
        let ids = actors(3);
        let r = NodeRegistry::default();
        let early = r.view();
        r.extend(&[(NodeId(1), ids[1]), (NodeId(2), ids[2])]);
        assert_eq!(early.resolve(NodeId(2)), Some(ids[2]));
        assert_eq!(r.remove(NodeId(2)), Some(ids[2]));
        assert_eq!(r.remove(NodeId(2)), None, "left twice");
        assert_eq!(r.remove(NodeId(9)), None, "never registered");
        let late = r.view();
        assert_eq!(r.get(NodeId(2)), None);
        assert_eq!(r.snapshot(), vec![(NodeId(1), ids[1])]);
        assert_eq!(early.resolve(NodeId(2)), Some(ids[2]));
        assert_eq!(late.resolve(NodeId(2)), None);
        assert_eq!(late.resolve(NodeId(1)), Some(ids[1]));
        assert_eq!(early.resolve(NodeId(9)), None, "never registered");
        r.insert(NodeId(2), ids[0]);
        assert_eq!(r.get(NodeId(2)), Some(ids[0]));
        assert_eq!(late.resolve(NodeId(2)), Some(ids[0]));
    }
}
