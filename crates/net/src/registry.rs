//! Shared, mutable node → actor registry for dynamic membership.
//!
//! Deployment handles (`DfsHandle`, `MrHandle`) used to carry a frozen
//! `Arc<Vec<(NodeId, ActorId)>>` snapshot of the worker set — correct only
//! while membership is fixed at deploy. A [`NodeRegistry`] is the same
//! cheap-to-clone mapping, but *live*: every clone observes joins and
//! departures immediately, so a TaskTracker routing a read to a replica on
//! a freshly-joined node (or failing fast off a departed one) always sees
//! the current cluster. The simulation is single-threaded, so the interior
//! mutex is uncontended; entries are kept sorted by node id so every
//! iteration order is deterministic.

use std::sync::{Arc, Mutex};

use accelmr_des::ActorId;

use crate::config::NodeId;

/// Live `NodeId → ActorId` mapping shared by every handle clone.
#[derive(Clone, Debug, Default)]
pub struct NodeRegistry {
    inner: Arc<Mutex<Vec<(NodeId, ActorId)>>>,
}

impl NodeRegistry {
    /// Builds a registry from initial entries (sorted internally).
    pub fn new(mut entries: Vec<(NodeId, ActorId)>) -> Self {
        entries.sort_unstable_by_key(|&(n, _)| n);
        NodeRegistry {
            inner: Arc::new(Mutex::new(entries)),
        }
    }

    /// The actor registered for `node`, if any.
    pub fn get(&self, node: NodeId) -> Option<ActorId> {
        let v = self.inner.lock().unwrap();
        v.binary_search_by_key(&node, |&(n, _)| n)
            .ok()
            .map(|i| v[i].1)
    }

    /// Registers (or replaces) the actor for `node`.
    pub fn insert(&self, node: NodeId, actor: ActorId) {
        let mut v = self.inner.lock().unwrap();
        match v.binary_search_by_key(&node, |&(n, _)| n) {
            Ok(i) => v[i].1 = actor,
            Err(i) => v.insert(i, (node, actor)),
        }
    }

    /// Removes `node`, returning its actor if it was registered.
    pub fn remove(&self, node: NodeId) -> Option<ActorId> {
        let mut v = self.inner.lock().unwrap();
        v.binary_search_by_key(&node, |&(n, _)| n)
            .ok()
            .map(|i| v.remove(i).1)
    }

    /// Current entries, ascending by node id.
    pub fn snapshot(&self) -> Vec<(NodeId, ActorId)> {
        self.inner.lock().unwrap().clone()
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

    #[test]
    fn registry_is_shared_and_sorted() {
        let mut sim = Sim::new(0);
        let ids: Vec<ActorId> = (0..4).map(|_| sim.spawn(Box::new(Noop))).collect();
        let r = NodeRegistry::new(vec![(NodeId(3), ids[3]), (NodeId(1), ids[1])]);
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
}
