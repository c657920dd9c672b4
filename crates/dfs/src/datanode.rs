//! The DataNode: block storage and streaming.

use std::sync::Arc;

use accelmr_des::prelude::*;
use accelmr_des::FxHashMap;
use accelmr_net::{NetHandle, NodeId};

use crate::cluster::WireDataNode;
use crate::config::{BlockId, HEARTBEAT_INTERVAL};
use crate::msgs::*;

#[derive(Clone, Copy, Debug)]
struct BlockMeta {
    seed: u64,
    base_offset: u64,
    len: u64,
}

/// Asks a DataNode to shut down cleanly-but-abruptly (crash injection):
/// it stops heartbeating, drops its blocks, and kills its actor. In-flight
/// flows must be aborted separately via [`accelmr_net::AbortNode`].
#[derive(Debug, Clone, Copy)]
pub struct Shutdown;

/// Internal completion note for an inbound pipeline write.
#[derive(Debug)]
struct WriteLanded {
    block: BlockId,
    len: u64,
    seed: u64,
    base_offset: u64,
    rest: Vec<NodeId>,
    ack_to: ActorId,
    ack_node: NodeId,
    tag: u64,
}

/// One storage server, co-resident with a TaskTracker on every worker node.
pub struct DataNode {
    net: NetHandle,
    node: NodeId,
    namenode: ActorId,
    head_node: NodeId,
    /// Peer DataNode actors for pipeline forwarding, indexed by node. One
    /// map shared by every DataNode wired from it, copied on the first
    /// [`AddPeer`] that finds it shared.
    peers: Arc<FxHashMap<NodeId, ActorId>>,
    blocks: FxHashMap<BlockId, BlockMeta>,
    materialized: bool,
}

impl DataNode {
    /// Builds a DataNode on `node`, not yet wired to the NameNode or its
    /// peers: `deploy_dfs` wires it by message, `DfsHandle::add_datanode`
    /// before spawning it.
    pub fn new(net: NetHandle, node: NodeId, head_node: NodeId, materialized: bool) -> Self {
        DataNode {
            net,
            node,
            namenode: ActorId::ENGINE,
            head_node,
            peers: Arc::default(),
            blocks: FxHashMap::default(),
            materialized,
        }
    }

    /// Installs the NameNode id and peer DataNode registry.
    pub(crate) fn rewire(&mut self, namenode: ActorId, peers: Arc<FxHashMap<NodeId, ActorId>>) {
        self.namenode = namenode;
        self.peers = peers;
    }

    fn materialize(&self, meta: BlockMeta, offset_in_block: u64, len: u64) -> Option<Vec<u8>> {
        if !self.materialized {
            return None;
        }
        let mut buf = vec![0u8; len as usize];
        accelmr_kernels::fill_deterministic(
            meta.seed,
            meta.base_offset + offset_in_block,
            &mut buf,
        );
        Some(buf)
    }
}

impl Actor for DataNode {
    fn name(&self) -> String {
        format!("dfs.datanode@{}", self.node)
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Start => {
                // Stagger first heartbeat deterministically to avoid a
                // thundering herd at the NameNode.
                let jitter =
                    SimDuration::from_nanos(ctx.rng().next_below(HEARTBEAT_INTERVAL.as_nanos()));
                ctx.after(jitter, TIMER_HEARTBEAT);
            }
            Event::Timer {
                tag: TIMER_HEARTBEAT,
                ..
            } => {
                let hb = DnHeartbeat { node: self.node };
                let (net, node, head, nn) = (self.net, self.node, self.head_node, self.namenode);
                net.unicast(ctx, node, head, nn, 128, hb);
                // In-place rearm: the heartbeat chain holds one timer slot
                // for the actor's whole lifetime.
                ctx.rearm_after(HEARTBEAT_INTERVAL, TIMER_HEARTBEAT);
            }
            Event::Timer { .. } => {}
            Event::Msg { msg, .. } => {
                if let Some(peer) = msg.peek::<AddPeer>() {
                    // A node joined: learn its DataNode so write and
                    // re-replication pipelines can forward through it.
                    Arc::make_mut(&mut self.peers).insert(peer.node, peer.actor);
                } else if msg.is::<ReplicateBlock>() {
                    let req = msg.downcast::<ReplicateBlock>().expect("checked");
                    let meta = self.blocks.get(&req.block).copied();
                    let first = req
                        .pipeline
                        .split_first()
                        .and_then(|(&f, rest)| self.peers.get(&f).map(|&a| (f, a, rest.to_vec())));
                    let (net, node) = (self.net, self.node);
                    match (meta, first) {
                        (Some(meta), Some((first_node, first_actor, rest))) => {
                            ctx.stats().incr("dfs.replications_forwarded");
                            net.unicast(
                                ctx,
                                node,
                                first_node,
                                first_actor,
                                128,
                                WriteBlock {
                                    block: req.block,
                                    len: meta.len,
                                    seed: meta.seed,
                                    base_offset: meta.base_offset,
                                    from_node: node,
                                    rest,
                                    ack_to: req.ack_to,
                                    ack_node: req.ack_node,
                                    tag: req.tag,
                                },
                            );
                        }
                        _ => {
                            // Unknown block or unreachable first hop: tell
                            // the NameNode so it can repair elsewhere.
                            ctx.stats().incr("dfs.replication_rejects");
                            net.unicast(
                                ctx,
                                node,
                                req.ack_node,
                                req.ack_to,
                                64,
                                ReplicationFailed { tag: req.tag },
                            );
                        }
                    }
                } else if let Some(add) = msg.peek::<AddBlockMeta>() {
                    self.blocks.insert(
                        add.block,
                        BlockMeta {
                            seed: add.seed,
                            base_offset: add.base_offset,
                            len: add.len,
                        },
                    );
                } else if let Some(req) = msg.peek::<ReadRange>() {
                    let Some(&meta) = self.blocks.get(&req.block) else {
                        let (net, node) = (self.net, self.node);
                        net.unicast(
                            ctx,
                            node,
                            req.reader_node,
                            req.reader,
                            64,
                            ReadError { tag: req.tag },
                        );
                        ctx.stats().incr("dfs.read_errors");
                        return;
                    };
                    debug_assert!(
                        req.offset_in_block + req.len <= meta.len,
                        "read past block end"
                    );
                    let bytes = self.materialize(meta, req.offset_in_block, req.len);
                    ctx.stats().add("dfs.bytes_served", req.len);
                    ctx.stats().incr("dfs.reads");
                    let payload = RangeData {
                        tag: req.tag,
                        len: req.len,
                        bytes,
                    };
                    // Readers fan out their segment requests in one
                    // instant and RPC latency is uniform, so the flows of
                    // one read wave start at the same simulated instant —
                    // the fabric coalesces them into a single re-solve.
                    let (net, node) = (self.net, self.node);
                    net.start_flow_with(
                        ctx,
                        node,
                        req.reader_node,
                        req.len,
                        req.cap_bytes_per_sec,
                        req.reader,
                        req.tag,
                        payload,
                    );
                } else if msg.is::<WriteBlock>() {
                    let req = msg.downcast::<WriteBlock>().expect("checked");
                    // Stream the bytes in from the previous pipeline stage,
                    // then commit and forward.
                    let landed = WriteLanded {
                        block: req.block,
                        len: req.len,
                        seed: req.seed,
                        base_offset: req.base_offset,
                        rest: req.rest,
                        ack_to: req.ack_to,
                        ack_node: req.ack_node,
                        tag: req.tag,
                    };
                    let me = ctx.self_id();
                    let (net, node) = (self.net, self.node);
                    net.start_flow_with(
                        ctx,
                        req.from_node,
                        node,
                        req.len,
                        None,
                        me,
                        req.tag,
                        landed,
                    );
                } else if msg.is::<WriteLanded>() {
                    let w = msg.downcast::<WriteLanded>().expect("checked");
                    self.blocks.insert(
                        w.block,
                        BlockMeta {
                            seed: w.seed,
                            base_offset: w.base_offset,
                            len: w.len,
                        },
                    );
                    ctx.stats().add("dfs.bytes_written", w.len);
                    let (net, node) = (self.net, self.node);
                    if let Some((&next, rest)) = w.rest.split_first() {
                        if let Some(&next_actor) = self.peers.get(&next) {
                            net.unicast(
                                ctx,
                                node,
                                next,
                                next_actor,
                                128,
                                WriteBlock {
                                    block: w.block,
                                    len: w.len,
                                    seed: w.seed,
                                    base_offset: w.base_offset,
                                    from_node: node,
                                    rest: rest.to_vec(),
                                    ack_to: w.ack_to,
                                    ack_node: w.ack_node,
                                    tag: w.tag,
                                },
                            );
                        }
                    } else {
                        net.unicast(
                            ctx,
                            node,
                            w.ack_node,
                            w.ack_to,
                            64,
                            WriteAck {
                                tag: w.tag,
                                block: w.block,
                            },
                        );
                    }
                } else if msg.is::<Shutdown>() {
                    ctx.stats().incr("dfs.datanodes_shutdown");
                    let me = ctx.self_id();
                    ctx.kill(me);
                } else if let Some(w) = msg.peek::<WireDataNode>() {
                    self.rewire(w.namenode, Arc::clone(&w.peers));
                }
            }
        }
    }
}

const TIMER_HEARTBEAT: u64 = 1;
