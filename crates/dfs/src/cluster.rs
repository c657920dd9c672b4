//! Cluster assembly and the client-side handle.

use std::sync::Arc;

use accelmr_des::prelude::*;
use accelmr_des::FxHashMap;
use accelmr_net::{NetHandle, NodeId, NodeRegistry};

use crate::config::{BlockId, DfsConfig};
use crate::datanode::{send_next_hop, DataNode, Shutdown};
use crate::msgs::*;
use crate::namenode::NameNode;

/// Cheap clonable handle to a deployed DFS, used by every client actor.
#[derive(Clone)]
pub struct DfsHandle {
    /// The NameNode actor.
    pub namenode: ActorId,
    /// The head node the NameNode runs on.
    pub head_node: NodeId,
    /// Live `node → DataNode actor` registry. Shared (not a snapshot):
    /// joins and departures are visible to every handle clone immediately,
    /// so reads fail fast off departed nodes instead of hanging.
    pub datanodes: NodeRegistry,
    /// The network fabric.
    pub net: NetHandle,
    /// Whether DataNodes serve real bytes. Fixed at deploy; DataNodes
    /// added later inherit it.
    materialized: bool,
}

impl DfsHandle {
    /// DataNode actor serving `node`, if one exists.
    pub fn datanode_on(&self, node: NodeId) -> Option<ActorId> {
        self.datanodes.get(node)
    }

    /// Joins a DataNode on `node` mid-run and returns its actor. Within
    /// the instant, in order: the DataNode spawns wired to the NameNode
    /// and the current peers, every registered peer learns it through
    /// [`AddPeer`] in registry order, the registry routes to it, and
    /// [`AddDataNode`] admits it to the NameNode's placement rotation. The
    /// fabric must already carry `node` ([`NetHandle::ensure_node`]).
    pub fn add_datanode(&self, ctx: &mut Ctx<'_>, node: NodeId) -> ActorId {
        let registered = self.datanodes.snapshot();
        let mut dn = DataNode::new(self.net, node, self.head_node, self.materialized);
        dn.rewire(
            self.namenode,
            Arc::new(registered.iter().copied().collect()),
        );
        let actor = ctx.spawn(Box::new(dn));
        for &(_, peer) in &registered {
            ctx.send(peer, AddPeer { node, actor });
        }
        self.datanodes.insert(node, actor);
        ctx.send(self.namenode, AddDataNode { node, actor });
        actor
    }

    /// Crashes the DataNode on `node`: the registry stops routing to it
    /// and it receives [`Shutdown`]. The NameNode learns of the loss by
    /// heartbeat silence. Returns whether `node` had a DataNode to crash.
    pub fn remove_datanode(&self, ctx: &mut Ctx<'_>, node: NodeId) -> bool {
        let dn = self.datanodes.remove(node);
        if let Some(dn) = dn {
            ctx.send(dn, Shutdown);
        }
        dn.is_some()
    }

    /// Sends a [`GetLocations`] request from `my_node`; the reply arrives
    /// at the calling actor as [`LocationsReply`] with `tag`.
    pub fn get_locations(&self, ctx: &mut Ctx<'_>, my_node: NodeId, path: &str, tag: u64) {
        let req = GetLocations {
            path: path.to_string(),
            reply: ctx.self_id(),
            reply_node: my_node,
            tag,
        };
        self.net
            .unicast(ctx, my_node, self.head_node, self.namenode, 256, req);
    }

    /// Reads `[offset_in_block, offset_in_block + len)` of `block` from the
    /// DataNode on `dn_node`; the calling actor receives [`RangeData`] (or
    /// [`ReadError`] / [`accelmr_net::FlowAborted`]) with `tag`.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per field of the ReadRange request plus the flow's cap and tag"
    )]
    pub fn read_range(
        &self,
        ctx: &mut Ctx<'_>,
        my_node: NodeId,
        dn_node: NodeId,
        block: BlockId,
        offset_in_block: u64,
        len: u64,
        cap_bytes_per_sec: Option<f64>,
        tag: u64,
    ) -> bool {
        let Some(dn) = self.datanode_on(dn_node) else {
            return false;
        };
        let req = ReadRange {
            block,
            offset_in_block,
            len,
            reader_node: my_node,
            reader: ctx.self_id(),
            cap_bytes_per_sec,
            tag,
        };
        self.net.unicast(ctx, my_node, dn_node, dn, 256, req);
        true
    }

    /// Creates an empty file; the caller receives [`CreateAck`] with `tag`.
    pub fn create_file(
        &self,
        ctx: &mut Ctx<'_>,
        my_node: NodeId,
        path: &str,
        replication: Option<usize>,
        tag: u64,
    ) {
        let req = CreateFile {
            path: path.to_string(),
            replication,
            reply: ctx.self_id(),
            reply_node: my_node,
            tag,
        };
        self.net
            .unicast(ctx, my_node, self.head_node, self.namenode, 256, req);
    }

    /// Allocates the next block of `path`; the caller receives
    /// [`BlockAllocated`] with `tag`.
    pub fn alloc_block(&self, ctx: &mut Ctx<'_>, my_node: NodeId, path: &str, len: u64, tag: u64) {
        let req = AllocBlock {
            path: path.to_string(),
            len,
            writer_node: my_node,
            reply: ctx.self_id(),
            reply_node: my_node,
            tag,
        };
        self.net
            .unicast(ctx, my_node, self.head_node, self.namenode, 256, req);
    }

    /// Streams an allocated block into its pipeline; the caller receives
    /// [`WriteAck`] with `tag` when the last replica lands. Returns
    /// `false`, sending nothing, when the pipeline is empty or its first
    /// node has no DataNode in the registry.
    pub fn write_block(
        &self,
        ctx: &mut Ctx<'_>,
        my_node: NodeId,
        block: BlockId,
        content: BlockContent,
        pipeline: &[NodeId],
        tag: u64,
    ) -> bool {
        let ack = (ctx.self_id(), my_node, tag);
        send_next_hop(
            ctx,
            (self.net, my_node, 256),
            |n| self.datanode_on(n),
            block,
            content,
            pipeline,
            ack,
        )
    }
}

/// Spawns a NameNode on `head_node` plus one DataNode per worker node and
/// wires them together. `materialized` makes DataNodes serve real bytes.
/// Panics on a `cfg` that [`DfsConfig::validate`] rejects.
///
/// Actor ids form a cycle (DataNodes need the NameNode id, the NameNode
/// needs the DataNode registry), so DataNodes spawn first and receive
/// their wiring as the first posted message — which the engine's
/// FIFO-at-equal-time ordering guarantees arrives before any protocol
/// traffic or armed timer.
pub fn deploy_dfs(
    sim: &mut Sim,
    net: NetHandle,
    cfg: &DfsConfig,
    head_node: NodeId,
    workers: &[NodeId],
    materialized: bool,
) -> DfsHandle {
    if let Err(e) = cfg.validate() {
        panic!("invalid DfsConfig: {e}");
    }
    let mut spawn_dn = |w| sim.spawn(Box::new(DataNode::new(net, w, head_node, materialized)));
    let dns: Vec<(NodeId, ActorId)> = workers.iter().map(|&w| (w, spawn_dn(w))).collect();
    let namenode = sim.spawn(Box::new(NameNode::new(
        cfg.clone(),
        net,
        head_node,
        dns.clone(),
    )));
    let peers: Arc<FxHashMap<NodeId, ActorId>> = Arc::new(dns.iter().copied().collect());
    for &(_, dn) in &dns {
        let peers = Arc::clone(&peers);
        sim.post(dn, Box::new(WireDataNode { namenode, peers }));
    }
    DfsHandle {
        namenode,
        head_node,
        datanodes: NodeRegistry::new(dns),
        net,
        materialized,
    }
}

/// Wiring message delivered once to each DataNode at deployment. Declared
/// here, beside its sender: its trace label is its type path.
#[derive(Debug)]
pub(crate) struct WireDataNode {
    pub(crate) namenode: ActorId,
    pub(crate) peers: Arc<FxHashMap<NodeId, ActorId>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelmr_net::{Fabric, NetConfig};

    fn deploy(sim: &mut Sim, workers: u32, materialized: bool) -> DfsHandle {
        let nodes: Vec<NodeId> = (1..=workers).map(NodeId).collect();
        let fabric = Fabric::new(NetConfig::default(), workers as usize + 1);
        let net = NetHandle {
            fabric: sim.spawn(Box::new(fabric)),
        };
        let cfg = DfsConfig::default();
        deploy_dfs(sim, net, &cfg, NodeId::HEAD, &nodes, materialized)
    }

    /// Asks the NameNode to preload `path`; the caller receives
    /// [`PreloadDone`].
    fn preload(
        ctx: &mut Ctx<'_>,
        dfs: &DfsHandle,
        path: &str,
        len: u64,
        block_size: Option<u64>,
        replication: Option<usize>,
        seed: u64,
    ) {
        let reply = ctx.self_id();
        let req = PreloadFile {
            path: path.into(),
            len,
            block_size,
            replication,
            seed,
            reply,
        };
        ctx.send(dfs.namenode, req);
    }

    /// Test client actor driving a scripted interaction.
    struct Client<F: FnMut(&mut Ctx<'_>, Event, &DfsHandle, &mut u32) + Send + 'static> {
        dfs: DfsHandle,
        state: u32,
        script: F,
    }

    impl<F: FnMut(&mut Ctx<'_>, Event, &DfsHandle, &mut u32) + Send + 'static> Actor for Client<F> {
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            (self.script)(ctx, ev, &self.dfs, &mut self.state);
        }
    }

    /// Runs `script` as a client to the end of the simulation, and checks
    /// that it reached its verdict exactly once ([`verified`]).
    fn run_client(
        sim: &mut Sim,
        dfs: DfsHandle,
        script: impl FnMut(&mut Ctx<'_>, Event, &DfsHandle, &mut u32) + Send + 'static,
    ) {
        sim.spawn(Box::new(Client {
            dfs,
            state: 0,
            script,
        }));
        sim.run();
        assert_eq!(sim.stats().counter("verified"), 1);
    }

    /// The script's checks passed: count it and end the run.
    fn verified(ctx: &mut Ctx<'_>) {
        ctx.stats().incr("verified");
        ctx.stop();
    }

    #[test]
    fn preload_places_balanced_replicas() {
        let mut sim = Sim::new(1);
        let dfs = deploy(&mut sim, 4, false);
        run_client(&mut sim, dfs, |ctx, ev, dfs, _| match ev {
            Event::Start => {
                preload(ctx, dfs, "/input", 8 * (64 << 20), None, None, 7);
            }
            Event::Msg { msg, .. } => {
                if let Some(done) = msg.peek::<PreloadDone>() {
                    assert_eq!(done.view.blocks.len(), 8);
                    assert_eq!(done.view.len, 8 * (64 << 20));
                    // Round-robin over 4 nodes: each holds 2 blocks.
                    let mut counts = std::collections::BTreeMap::new();
                    for b in &done.view.blocks {
                        assert_eq!(b.replicas.len(), 1);
                        *counts.entry(b.replicas[0]).or_insert(0u32) += 1;
                    }
                    assert!(counts.values().all(|&c| c == 2), "{counts:?}");
                    verified(ctx);
                }
            }
            _ => {}
        });
    }

    #[test]
    fn read_returns_canonical_bytes() {
        let mut sim = Sim::new(2);
        let dfs = deploy(&mut sim, 2, true);
        run_client(&mut sim, dfs, |ctx, ev, dfs, _state| match ev {
            Event::Start => {
                preload(ctx, dfs, "/data", 1 << 20, Some(256 << 10), None, 42);
            }
            Event::Msg { msg, .. } => {
                if let Some(done) = msg.peek::<PreloadDone>() {
                    // Read 1000 bytes at offset 100 of block 1.
                    let b = &done.view.blocks[1];
                    dfs.read_range(ctx, NodeId(1), b.replicas[0], b.id, 100, 1000, None, 77);
                } else if let Some(data) = msg.peek::<RangeData>() {
                    assert_eq!(data.tag, 77);
                    assert_eq!(data.len, 1000);
                    let got = data.bytes.as_ref().expect("materialized");
                    let mut expect = vec![0u8; 1000];
                    accelmr_kernels::fill_deterministic(42, (256 << 10) + 100, &mut expect);
                    assert_eq!(got, &expect);
                    verified(ctx);
                }
            }
            _ => {}
        });
    }

    #[test]
    fn capped_read_takes_protocol_limited_time() {
        let mut sim = Sim::new(3);
        let dfs = deploy(&mut sim, 1, false);
        run_client(&mut sim, dfs, |ctx, ev, dfs, _| match ev {
            Event::Start => {
                preload(ctx, dfs, "/big", 64 << 20, None, None, 0);
            }
            Event::Msg { msg, .. } => {
                if let Some(done) = msg.peek::<PreloadDone>() {
                    let b = &done.view.blocks[0];
                    // Local (loopback) read of a full 64 MB block capped
                    // at 8.5 MB/s: the paper's "several seconds per
                    // record" observation.
                    dfs.read_range(
                        ctx,
                        NodeId(1),
                        b.replicas[0],
                        b.id,
                        0,
                        b.len,
                        Some(8.5e6),
                        1,
                    );
                } else if msg.peek::<RangeData>().is_some() {
                    let secs = ctx.now().as_secs_f64();
                    let expect = (64 << 20) as f64 / 8.5e6;
                    assert!((secs - expect).abs() < 0.1, "took {secs}, expect ~{expect}");
                    verified(ctx);
                }
            }
            _ => {}
        });
    }

    #[test]
    fn write_pipeline_replicates_and_acks() {
        let mut sim = Sim::new(4);
        let dfs = deploy(&mut sim, 3, false);
        run_client(&mut sim, dfs, |ctx, ev, dfs, state| match ev {
            Event::Start => {
                dfs.create_file(ctx, NodeId(2), "/out", Some(2), 4);
            }
            Event::Msg { msg, .. } => {
                if let Some(ack) = msg.peek::<CreateAck>() {
                    assert_eq!(ack.tag, 4);
                    assert!(ack.ok);
                    dfs.alloc_block(ctx, NodeId(2), "/out", 32 << 20, 5);
                } else if let Some(alloc) = msg.peek::<BlockAllocated>() {
                    assert_eq!(alloc.tag, 5);
                    assert_eq!(alloc.pipeline.len(), 2);
                    // Writer-local first replica preferred.
                    assert_eq!(alloc.pipeline[0], NodeId(2));
                    let content = BlockContent {
                        len: 32 << 20,
                        seed: 9,
                        base_offset: 0,
                    };
                    let block = alloc.block;
                    assert!(dfs.write_block(ctx, NodeId(2), block, content, &alloc.pipeline, 5));
                    *state = 1;
                } else if let Some(ack) = msg.peek::<WriteAck>() {
                    assert_eq!(ack.tag, 5);
                    assert_eq!(*state, 1);
                    // Re-locate: both replicas visible.
                    dfs.get_locations(ctx, NodeId(2), "/out", 6);
                    *state = 2;
                } else if let Some(loc) = msg.peek::<LocationsReply>() {
                    let view = loc.view.as_ref().expect("file exists");
                    assert_eq!(view.blocks.len(), 1);
                    assert_eq!(view.blocks[0].replicas.len(), 2);
                    verified(ctx);
                }
            }
            _ => {}
        });
    }

    #[test]
    fn missing_file_and_missing_block() {
        let mut sim = Sim::new(5);
        let dfs = deploy(&mut sim, 1, false);
        run_client(&mut sim, dfs, |ctx, ev, dfs, state| match ev {
            Event::Start => {
                dfs.get_locations(ctx, NodeId(1), "/nope", 1);
            }
            Event::Msg { msg, .. } => {
                if let Some(rep) = msg.peek::<LocationsReply>() {
                    assert!(rep.view.is_none());
                    *state = 1;
                    dfs.read_range(ctx, NodeId(1), NodeId(1), BlockId(999), 0, 10, None, 2);
                } else if let Some(err) = msg.peek::<ReadError>() {
                    assert_eq!(err.tag, 2);
                    assert_eq!(*state, 1);
                    verified(ctx);
                }
            }
            _ => {}
        });
    }

    /// Killing a replica holder must repair every affected block back to
    /// its target replication, sourced from surviving replicas.
    #[test]
    fn dead_datanode_triggers_rereplication_to_target() {
        let mut sim = Sim::new(9);
        let dfs = deploy(&mut sim, 3, false);
        let dn1 = dfs.datanode_on(NodeId(1)).unwrap();
        let namenode = dfs.namenode;
        run_client(&mut sim, dfs, move |ctx, ev, dfs, _state| match ev {
            Event::Start => {
                preload(ctx, dfs, "/r2", 4 * (64 << 20), None, Some(2), 1);
            }
            Event::Msg { msg, .. } => {
                if msg.peek::<PreloadDone>().is_some() {
                    ctx.send(dn1, crate::datanode::Shutdown);
                    // Past dead_after (30 s) + time for the repair
                    // pipelines to stream.
                    ctx.after(SimDuration::from_secs(60), 1);
                } else if let Some(rep) = msg.peek::<LocationsReply>() {
                    let view = rep.view.as_ref().unwrap();
                    for b in &view.blocks {
                        assert_eq!(b.replicas.len(), 2, "block {} under target", b.id);
                        assert!(!b.replicas.contains(&NodeId(1)));
                    }
                    verified(ctx);
                }
            }
            Event::Timer { .. } => {
                dfs.get_locations(ctx, NodeId(2), "/r2", 3);
            }
        });
        assert!(sim.stats().counter("dfs.replications_started") >= 1);
        assert!(sim.stats().counter("dfs.blocks_replicated") >= 1);
        let nn = sim
            .actor_ref::<crate::namenode::NameNode>(namenode)
            .expect("namenode alive");
        assert_eq!(nn.under_replicated_blocks(), 0);
        assert_eq!(nn.replica_counts("/r2"), Some(vec![2, 2, 2, 2]));
    }

    /// A joined DataNode enters the placement rotation and can absorb
    /// repairs that previously had nowhere to go.
    #[test]
    fn joined_datanode_hosts_repairs_without_prior_capacity() {
        let mut sim = Sim::new(10);
        // Two nodes, replication 2: after one dies there is no third node
        // to repair onto — until one joins.
        let dfs = deploy(&mut sim, 2, false);
        let dn1 = dfs.datanode_on(NodeId(1)).unwrap();
        let namenode = dfs.namenode;
        run_client(&mut sim, dfs, move |ctx, ev, dfs, state| match ev {
            Event::Start => {
                preload(ctx, dfs, "/f", 2 * (64 << 20), None, Some(2), 2);
            }
            Event::Msg { msg, .. } => {
                if msg.peek::<PreloadDone>().is_some() {
                    ctx.send(dn1, crate::datanode::Shutdown);
                    ctx.after(SimDuration::from_secs(45), 1);
                } else if let Some(rep) = msg.peek::<LocationsReply>() {
                    let view = rep.view.as_ref().unwrap();
                    for b in &view.blocks {
                        assert_eq!(b.replicas.len(), 2);
                        assert!(b.replicas.contains(&NodeId(3)), "join not used: {b:?}");
                    }
                    verified(ctx);
                }
            }
            Event::Timer { tag: 1, .. } => {
                // Node 1 is dead and every block sits at 1/2 replicas
                // with no capacity. Join node 3 the way the runtime
                // does: grow the fabric, then add the DataNode.
                *state = 1;
                dfs.net.ensure_node(ctx, NodeId(3));
                dfs.add_datanode(ctx, NodeId(3));
                ctx.after(SimDuration::from_secs(30), 2);
            }
            Event::Timer { .. } => {
                dfs.get_locations(ctx, NodeId(2), "/f", 7);
            }
        });
        assert_eq!(sim.stats().counter("dfs.datanodes_joined"), 1);
        let nn = sim
            .actor_ref::<crate::namenode::NameNode>(namenode)
            .expect("namenode alive");
        assert_eq!(nn.under_replicated_blocks(), 0);
        assert_eq!(nn.live_datanode_count(), 2);
    }

    /// Every DataNode is a plain `DataNode` actor, whether deployed or
    /// added mid-run.
    #[test]
    fn datanodes_resolve_as_datanode_actors() {
        let mut sim = Sim::new(11);
        let dfs = deploy(&mut sim, 2, false);
        let deployed = dfs.datanode_on(NodeId(1)).unwrap();
        let registry = dfs.datanodes.clone();
        run_client(&mut sim, dfs, |ctx, ev, dfs, _| {
            if let Event::Start = ev {
                dfs.net.ensure_node(ctx, NodeId(3));
                dfs.add_datanode(ctx, NodeId(3));
                verified(ctx);
            }
        });
        assert!(sim.actor_ref::<DataNode>(deployed).is_some());
        let added = registry.get(NodeId(3)).expect("registered");
        assert!(sim.actor_ref::<DataNode>(added).is_some());
    }

    /// An added DataNode is reachable in both pipeline directions: as a
    /// downstream hop (its deployed peers learned it) and as the first
    /// hop forwarding to a deployed peer (it was wired before spawning).
    #[test]
    fn added_datanode_carries_two_replica_writes() {
        let mut sim = Sim::new(12);
        let dfs = deploy(&mut sim, 1, false);
        run_client(&mut sim, dfs, |ctx, ev, dfs, acks| match ev {
            Event::Start => {
                dfs.net.ensure_node(ctx, NodeId(2));
                dfs.add_datanode(ctx, NodeId(2));
                dfs.create_file(ctx, NodeId(1), "/two", Some(2), 0);
            }
            Event::Msg { msg, .. } => {
                if msg.peek::<CreateAck>().is_some() {
                    dfs.alloc_block(ctx, NodeId(1), "/two", 1 << 20, 1);
                    dfs.alloc_block(ctx, NodeId(2), "/two", 1 << 20, 2);
                } else if let Some(alloc) = msg.peek::<BlockAllocated>() {
                    let writer = NodeId(alloc.tag as u32);
                    let other = NodeId(3 - alloc.tag as u32);
                    assert_eq!(alloc.pipeline, vec![writer, other]);
                    let content = BlockContent {
                        len: 1 << 20,
                        seed: 0,
                        base_offset: 0,
                    };
                    let (block, tag) = (alloc.block, alloc.tag);
                    assert!(dfs.write_block(ctx, writer, block, content, &alloc.pipeline, tag));
                } else if msg.peek::<WriteAck>().is_some() {
                    *acks += 1;
                    if *acks == 2 {
                        verified(ctx);
                    }
                }
            }
            _ => {}
        });
        assert_eq!(sim.stats().counter("dfs.bytes_written"), 4 << 20);
    }

    /// Node 2 leaves, then node 3 joins: node 3's DataNode was wired from
    /// a registry snapshot without node 2, so its peer map lacks it.
    fn join_after_leave(ctx: &mut Ctx<'_>, dfs: &DfsHandle) -> ActorId {
        assert!(dfs.remove_datanode(ctx, NodeId(2)));
        dfs.net.ensure_node(ctx, NodeId(3));
        dfs.add_datanode(ctx, NodeId(3))
    }

    const MB_CONTENT: BlockContent = BlockContent {
        len: 1 << 20,
        seed: 0,
        base_offset: 0,
    };

    /// A repair whose first hop is missing from the source's peer map is
    /// answered with `ReplicationFailed`, naming the block.
    #[test]
    fn replicate_to_a_peer_the_source_never_learned_is_rejected() {
        let mut sim = Sim::new(13);
        let dfs = deploy(&mut sim, 2, false);
        run_client(&mut sim, dfs, |ctx, ev, dfs, _| match ev {
            Event::Start => {
                let dn3 = join_after_leave(ctx, dfs);
                let block = BlockId(7);
                let content = MB_CONTENT;
                ctx.send(dn3, AddBlockMeta { block, content });
                let replicate = ReplicateBlock {
                    block,
                    pipeline: vec![NodeId(2)],
                    ack_to: ctx.self_id(),
                    ack_node: NodeId(1),
                    tag: 9,
                };
                ctx.send(dn3, replicate);
                // DataNodes heartbeat forever: bound the wait.
                ctx.after(SimDuration::from_secs(10), 1);
            }
            Event::Msg { msg, .. } => {
                if let Some(failed) = msg.peek::<ReplicationFailed>() {
                    assert_eq!((failed.block, failed.tag), (BlockId(7), 9));
                    verified(ctx);
                }
            }
            Event::Timer { .. } => ctx.stop(),
        });
        assert_eq!(sim.stats().counter("dfs.replication_rejects"), 1);
        assert_eq!(sim.stats().counter("dfs.replications_forwarded"), 0);
    }

    /// A write whose next hop is missing from the landing DataNode's peer
    /// map lands there and goes no further: nothing is sent to the next
    /// hop and the writer never gets a `WriteAck`.
    #[test]
    fn write_forward_to_a_peer_the_datanode_never_learned_stalls() {
        let mut sim = Sim::new(14);
        let dfs = deploy(&mut sim, 2, false);
        run_client(&mut sim, dfs, |ctx, ev, dfs, drops| match ev {
            Event::Start => {
                join_after_leave(ctx, dfs);
                // Past node 2's last heartbeat timer, the one event its
                // dead actor drops unprompted.
                ctx.after(SimDuration::from_secs(5), 1);
            }
            Event::Timer { tag: 1, .. } => {
                *drops = ctx.stats().queue().dead_actor_drops as u32;
                let pipeline = [NodeId(3), NodeId(2)];
                assert!(dfs.write_block(ctx, NodeId(1), BlockId(7), MB_CONTENT, &pipeline, 5));
                ctx.after(SimDuration::from_secs(30), 2);
            }
            Event::Timer { .. } => {
                assert_eq!(ctx.stats().counter("dfs.bytes_written"), 1 << 20);
                // A forward to node 2 would be one more drop.
                let drops_now = ctx.stats().queue().dead_actor_drops;
                assert_eq!(drops_now, u64::from(*drops), "a forward reached node 2");
                verified(ctx);
            }
            Event::Msg { msg, .. } => {
                assert!(
                    msg.peek::<WriteAck>().is_none(),
                    "a stalled write was acked"
                );
            }
        });
    }

    #[test]
    fn dead_datanode_excluded_from_locations() {
        let mut sim = Sim::new(6);
        let dfs = deploy(&mut sim, 2, false);
        let dn1 = dfs.datanode_on(NodeId(1)).unwrap();
        run_client(&mut sim, dfs, move |ctx, ev, dfs, state| match ev {
            Event::Start => {
                preload(ctx, dfs, "/f", 2 * (64 << 20), None, None, 0);
            }
            Event::Msg { msg, .. } => {
                if msg.peek::<PreloadDone>().is_some() {
                    // Kill DataNode on node 1, then wait past dead_after.
                    ctx.send(dn1, crate::datanode::Shutdown);
                    ctx.after(SimDuration::from_secs(40), 1);
                } else if let Some(rep) = msg.peek::<LocationsReply>() {
                    let view = rep.view.as_ref().unwrap();
                    for b in &view.blocks {
                        assert!(!b.replicas.contains(&NodeId(1)));
                    }
                    verified(ctx);
                }
            }
            Event::Timer { .. } => {
                *state += 1;
                dfs.get_locations(ctx, NodeId(2), "/f", 3);
            }
        });
        assert_eq!(sim.stats().counter("dfs.datanodes_declared_dead"), 1);
    }
}
