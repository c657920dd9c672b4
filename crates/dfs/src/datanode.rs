//! The DataNode: block storage and streaming.

use accelmr_des::prelude::*;
use accelmr_des::FxHashMap;
use accelmr_net::{FlowAborted, NetHandle, NodeId, PeerView};

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
/// unicast over `net` in an RPC of `rpc_bytes` to the head of `pipeline`,
/// whose DataNode `resolve` finds; its bytes stream from `from_node`. The
/// write carries the rest of the pipeline and `(ack_to, tag)`, the address
/// of the final [`WriteAck`]. Returns `false`, sending nothing, when the
/// pipeline is empty or its head does not resolve.
///
/// The one place a `WriteBlock` is built. Its callers differ only in what
/// they pass: a client's first hop ([`DfsHandle::write_block`]) resolves
/// the registered DataNodes in a 256-byte RPC; a repair source's first hop
/// and every DataNode-to-DataNode forward resolve, in 128 bytes, the peers
/// the sending DataNode knows: every node registered with the DFS except
/// one that had already left when the sender was wired ([`PeerView`]).
///
/// [`DfsHandle::write_block`]: crate::DfsHandle::write_block
pub(crate) fn send_next_hop(
    ctx: &mut Ctx<'_>,
    (net, from_node, rpc_bytes): (NetHandle, NodeId, u64),
    resolve: impl FnOnce(NodeId) -> Option<ActorId>,
    block: BlockId,
    content: BlockContent,
    pipeline: &[NodeId],
    (ack_to, tag): (ActorId, u64),
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
        tag,
    };
    net.unicast(ctx, next_actor, rpc_bytes, write);
    true
}

/// One storage server, co-resident with a TaskTracker on every worker node.
pub struct DataNode {
    net: NetHandle,
    node: NodeId,
    namenode: ActorId,
    /// The DFS's DataNode registry as of this DataNode's wiring: what its
    /// pipeline hops resolve through.
    peers: PeerView,
    blocks: FxHashMap<BlockId, BlockContent>,
    materialized: bool,
}

impl DataNode {
    /// Builds a DataNode on `node` that resolves its peers through
    /// `peers`. It is not yet wired to the NameNode: `deploy_dfs` wires it
    /// by message, `DfsHandle::add_datanode` before spawning it.
    pub fn new(net: NetHandle, node: NodeId, materialized: bool, peers: PeerView) -> Self {
        DataNode {
            net,
            node,
            namenode: ActorId::ENGINE,
            peers,
            blocks: FxHashMap::default(),
            materialized,
        }
    }

    /// Installs the NameNode id.
    pub(crate) fn rewire(&mut self, namenode: ActorId) {
        self.namenode = namenode;
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
                self.net.unicast(ctx, self.namenode, 128, hb);
                // In-place rearm: the heartbeat chain holds one timer slot
                // for the actor's whole lifetime.
                ctx.rearm_after(HEARTBEAT_INTERVAL, TIMER_HEARTBEAT);
            }
            Event::Msg { msg } => match Inbox::decode(msg) {
                // A node joined. The registry already resolves it: the
                // NameNode names a joiner in a pipeline only after
                // `AddDataNode`, which the join sends after every `AddPeer`.
                Inbox::AddPeer(_peer) => {}
                Inbox::ReplicateBlock(req) => {
                    let (net, node, peers) = (self.net, self.node, &self.peers);
                    let sent = self.blocks.get(&req.block).is_some_and(|&content| {
                        send_next_hop(
                            ctx,
                            (net, node, 128),
                            |n| peers.resolve(n),
                            req.block,
                            content,
                            &req.pipeline,
                            (req.ack_to, req.tag),
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
                        net.unicast(ctx, req.ack_to, 64, failed);
                    }
                }
                Inbox::AddBlockMeta(add) => {
                    self.blocks.insert(add.block, add.content);
                }
                Inbox::ReadRange(req) => {
                    let Some(&content) = self.blocks.get(&req.block) else {
                        let error = ReadError { tag: req.tag };
                        self.net.unicast(ctx, req.reader, 64, error);
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
                        net.unicast(ctx, w.ack_to, 64, ack);
                    } else {
                        // A next hop this DataNode does not know is sent
                        // nothing: the write stalls, never acknowledged.
                        send_next_hop(
                            ctx,
                            (net, node, 128),
                            |n| peers.resolve(n),
                            w.block,
                            w.content,
                            &w.rest,
                            (w.ack_to, w.tag),
                        );
                    }
                }
                Inbox::Shutdown(_shutdown) => {
                    ctx.stats().incr("dfs.datanodes_shutdown");
                    let me = ctx.self_id();
                    ctx.kill(me);
                }
                Inbox::WireDataNode(w) => self.rewire(w.namenode),
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
