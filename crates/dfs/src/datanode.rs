//! The DataNode: block storage and streaming.

use std::sync::Arc;

use accelmr_des::prelude::*;
use accelmr_des::FxHashMap;
use accelmr_net::{FlowAborted, NetHandle, NodeId};

use crate::cluster::WireDataNode;
use crate::config::{BlockId, HEARTBEAT_INTERVAL};
use crate::msgs::*;

/// Asks a DataNode to shut down cleanly-but-abruptly (crash injection):
/// it stops heartbeating, drops its blocks, and kills its actor. In-flight
/// flows must be aborted separately via [`accelmr_net::AbortNode`].
#[derive(Debug, Clone, Copy)]
pub struct Shutdown;

/// Internal completion note: the inbound [`WriteBlock`] it wraps has
/// streamed in.
#[derive(Debug)]
struct WriteLanded(WriteBlock);

/// Sends the next hop of a pipeline write: a [`WriteBlock`] of `block`,
/// unicast over `net` from `from_node` in an RPC of `rpc_bytes` to the
/// head of `pipeline`, whose DataNode `resolve` finds. The write carries
/// the rest of the pipeline and `(ack_to, ack_node, tag)`, the address of
/// the final [`WriteAck`]. Returns `false`, sending nothing, when the
/// pipeline is empty or its head does not resolve.
///
/// The one place a `WriteBlock` is built. Its callers differ only in what
/// they pass: a client's first hop ([`DfsHandle::write_block`]) resolves
/// through the live registry in a 256-byte RPC; a repair source's first
/// hop and every DataNode-to-DataNode forward resolve through the
/// DataNode's peer map in 128 bytes.
///
/// [`DfsHandle::write_block`]: crate::DfsHandle::write_block
pub(crate) fn send_next_hop(
    ctx: &mut Ctx<'_>,
    (net, from_node, rpc_bytes): (NetHandle, NodeId, u64),
    resolve: impl FnOnce(NodeId) -> Option<ActorId>,
    block: BlockId,
    content: BlockContent,
    pipeline: &[NodeId],
    (ack_to, ack_node, tag): (ActorId, NodeId, u64),
) -> bool {
    let Some((&next, rest)) = pipeline.split_first() else {
        return false;
    };
    let Some(next_actor) = resolve(next) else {
        return false;
    };
    let write = WriteBlock {
        block,
        content,
        from_node,
        rest: rest.to_vec(),
        ack_to,
        ack_node,
        tag,
    };
    net.unicast(ctx, from_node, next, next_actor, rpc_bytes, write);
    true
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
    blocks: FxHashMap<BlockId, BlockContent>,
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

    fn materialize(
        &self,
        content: BlockContent,
        offset_in_block: u64,
        len: u64,
    ) -> Option<Vec<u8>> {
        if !self.materialized {
            return None;
        }
        // The fill writes every byte of the pooled image.
        let mut buf = accelmr_kernels::pool::take(len as usize);
        accelmr_kernels::fill_deterministic(
            content.seed,
            content.base_offset + offset_in_block,
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
            Event::Timer { .. } => {
                let hb = DnHeartbeat { node: self.node };
                let (net, node, head, nn) = (self.net, self.node, self.head_node, self.namenode);
                net.unicast(ctx, node, head, nn, 128, hb);
                // In-place rearm: the heartbeat chain holds one timer slot
                // for the actor's whole lifetime.
                ctx.rearm_after(HEARTBEAT_INTERVAL, TIMER_HEARTBEAT);
            }
            Event::Msg { msg } => match Inbox::decode(msg) {
                Inbox::AddPeer(peer) => {
                    // A node joined: learn its DataNode so write and
                    // re-replication pipelines can forward through it.
                    Arc::make_mut(&mut self.peers).insert(peer.node, peer.actor);
                }
                Inbox::ReplicateBlock(req) => {
                    let (net, node, peers) = (self.net, self.node, &self.peers);
                    let sent = self.blocks.get(&req.block).is_some_and(|&content| {
                        send_next_hop(
                            ctx,
                            (net, node, 128),
                            |n| peers.get(&n).copied(),
                            req.block,
                            content,
                            &req.pipeline,
                            (req.ack_to, req.ack_node, req.tag),
                        )
                    });
                    if sent {
                        ctx.stats().incr("dfs.replications_forwarded");
                    } else {
                        // Unknown block or unreachable first hop: tell the
                        // NameNode so it can repair elsewhere.
                        ctx.stats().incr("dfs.replication_rejects");
                        let failed = ReplicationFailed {
                            block: req.block,
                            tag: req.tag,
                        };
                        net.unicast(ctx, node, req.ack_node, req.ack_to, 64, failed);
                    }
                }
                Inbox::AddBlockMeta(add) => {
                    self.blocks.insert(add.block, add.content);
                }
                Inbox::ReadRange(req) => {
                    let Some(&content) = self.blocks.get(&req.block) else {
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
                        req.offset_in_block + req.len <= content.len,
                        "read past block end"
                    );
                    let bytes = self.materialize(content, req.offset_in_block, req.len);
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
                }
                Inbox::WriteBlock(req) => {
                    // Stream the bytes in from the previous pipeline stage,
                    // then commit and forward.
                    let req = *req;
                    let (from, len, tag) = (req.from_node, req.content.len, req.tag);
                    let me = ctx.self_id();
                    let (net, node) = (self.net, self.node);
                    net.start_flow_with(ctx, from, node, len, None, me, tag, WriteLanded(req));
                }
                Inbox::WriteLanded(landed) => {
                    let WriteLanded(w) = *landed;
                    self.blocks.insert(w.block, w.content);
                    ctx.stats().add("dfs.bytes_written", w.content.len);
                    let (net, node, peers) = (self.net, self.node, &self.peers);
                    if w.rest.is_empty() {
                        let ack = WriteAck {
                            tag: w.tag,
                            block: w.block,
                        };
                        net.unicast(ctx, node, w.ack_node, w.ack_to, 64, ack);
                    } else {
                        // A next hop missing from the peer map is sent
                        // nothing: the write stalls, never acknowledged.
                        send_next_hop(
                            ctx,
                            (net, node, 128),
                            |n| peers.get(&n).copied(),
                            w.block,
                            w.content,
                            &w.rest,
                            (w.ack_to, w.ack_node, w.tag),
                        );
                    }
                }
                Inbox::Shutdown(_shutdown) => {
                    ctx.stats().incr("dfs.datanodes_shutdown");
                    let me = ctx.self_id();
                    ctx.kill(me);
                }
                Inbox::WireDataNode(w) => self.rewire(w.namenode, w.peers),
                // The source of an inbound pipeline write left mid-stream:
                // the block never lands and the write stalls unacknowledged.
                Inbox::FlowAborted(_aborted) => {}
            },
        }
    }
}

accelmr_des::inbox! {
    enum Inbox {
        AddPeer, ReplicateBlock, AddBlockMeta, ReadRange, WriteBlock, WriteLanded, Shutdown,
        WireDataNode, FlowAborted,
    }
}

const TIMER_HEARTBEAT: u64 = 1;
