//! The NameNode: namespace, block map, placement, liveness, replication
//! repair, dynamic membership.
//!
//! Membership is no longer fixed at deploy: [`AddDataNode`] admits a
//! joined node into the placement rotation mid-run, and a DataNode falling
//! silent is declared dead, its replicas dropped from the block map, and
//! every block left under its target replication is repaired by streaming
//! a surviving replica through a [`ReplicateBlock`] pipeline.

use accelmr_des::prelude::*;
use accelmr_des::{FxHashMap, FxHashSet};
use accelmr_net::{Liveness, NetHandle, NodeId};

use crate::config::{BlockId, DfsConfig, BLOCK_SIZE, HEARTBEAT_INTERVAL};
use crate::msgs::*;

/// Default replication factor (paper: "one single copy of each block was
/// present in the cluster").
const REPLICATION: usize = 1;
/// Metadata operation service time (namespace lock + lookup).
const NAMENODE_OP_TIME: SimDuration = SimDuration::from_micros(300);

struct FileMeta {
    len: u64,
    block_size: u64,
    seed: u64,
    replication: usize,
    /// `(id, offset, len)` per block, in file order.
    blocks: Vec<(BlockId, u64, u64)>,
}

/// One block's placement state.
struct BlockInfo {
    /// Nodes believed to hold a replica (dead nodes are pruned on death).
    replicas: Vec<NodeId>,
    /// Replication target (the owning file's replication factor).
    target: usize,
}

/// An in-flight re-replication: `source` streaming `block` to `targets`.
struct PendingRepl {
    block: BlockId,
    source: NodeId,
    targets: Vec<NodeId>,
}

/// The metadata master. Runs on the head node (node 0 in the paper's
/// deployment, a Power6 JS22 blade).
pub struct NameNode {
    net: NetHandle,
    my_node: NodeId,
    /// Registered DataNodes: `(node, actor)`, ascending by node.
    datanodes: Vec<(NodeId, ActorId)>,
    files: FxHashMap<String, FileMeta>,
    block_map: FxHashMap<BlockId, BlockInfo>,
    next_block: u64,
    placement_cursor: usize,
    /// DataNode heartbeat silence past `DfsConfig::dead_after`. A dead
    /// node stays dead until it joins again ([`AddDataNode`]).
    liveness: Liveness,
    /// In-flight re-replications by tag.
    pending_repl: FxHashMap<u64, PendingRepl>,
    /// Blocks with a re-replication in flight (no duplicate repairs).
    repl_in_flight: FxHashSet<BlockId>,
    next_repl_tag: u64,
    /// Repairs may be needed (a loss, failure, or capacity change since
    /// the last scan left blocks under target). Lets the periodic
    /// liveness tick skip the full block-map scan at steady state.
    repair_pending: bool,
}

impl NameNode {
    /// Builds a NameNode for an initial DataNode registry (more may join
    /// later via [`AddDataNode`]).
    pub fn new(
        cfg: DfsConfig,
        net: NetHandle,
        my_node: NodeId,
        mut datanodes: Vec<(NodeId, ActorId)>,
    ) -> Self {
        // Membership updates binary-search this list; callers may pass
        // workers in any order.
        datanodes.sort_unstable_by_key(|&(n, _)| n);
        NameNode {
            net,
            my_node,
            datanodes,
            files: FxHashMap::default(),
            block_map: FxHashMap::default(),
            next_block: 0,
            placement_cursor: 0,
            liveness: Liveness::new(cfg.dead_after),
            pending_repl: FxHashMap::default(),
            repl_in_flight: FxHashSet::default(),
            next_repl_tag: 1,
            repair_pending: false,
        }
    }

    fn is_live(&self, node: NodeId) -> bool {
        !self.liveness.is_dead(node)
    }

    fn datanode_actor(&self, node: NodeId) -> Option<ActorId> {
        // The registry stays sorted by node (see `new` / `AddDataNode`).
        self.datanodes
            .binary_search_by_key(&node, |&(n, _)| n)
            .ok()
            .map(|i| self.datanodes[i].1)
    }

    /// Chooses `replication` distinct live nodes outside `exclude`,
    /// preferring `prefer` first (HDFS writes the first replica locally
    /// when possible), then round-robin for balance.
    fn place_excluding(
        &mut self,
        replication: usize,
        prefer: Option<NodeId>,
        exclude: &[NodeId],
    ) -> Vec<NodeId> {
        let mut chosen = Vec::with_capacity(replication);
        if let Some(p) = prefer {
            if self.is_live(p) && !exclude.contains(&p) && self.datanode_actor(p).is_some() {
                chosen.push(p);
            }
        }
        let n = self.datanodes.len();
        if n == 0 {
            return chosen;
        }
        let mut scanned = 0;
        while chosen.len() < replication && scanned < 2 * n {
            let (node, _) = self.datanodes[self.placement_cursor % n];
            self.placement_cursor += 1;
            scanned += 1;
            if self.is_live(node) && !chosen.contains(&node) && !exclude.contains(&node) {
                chosen.push(node);
            }
        }
        chosen
    }

    fn place(&mut self, replication: usize, prefer: Option<NodeId>) -> Vec<NodeId> {
        self.place_excluding(replication, prefer, &[])
    }

    fn view_of(&self, path: &str) -> Option<FileView> {
        let meta = self.files.get(path)?;
        let blocks = meta
            .blocks
            .iter()
            .map(|&(id, offset, len)| BlockLoc {
                id,
                offset,
                len,
                replicas: self
                    .block_map
                    .get(&id)
                    .map(|info| {
                        info.replicas
                            .iter()
                            .copied()
                            .filter(|&n| self.is_live(n))
                            .collect()
                    })
                    .unwrap_or_default(),
            })
            .collect();
        Some(FileView {
            path: path.to_string(),
            len: meta.len,
            block_size: meta.block_size,
            seed: meta.seed,
            blocks,
        })
    }

    fn alloc_id(&mut self) -> BlockId {
        let id = BlockId(self.next_block);
        self.next_block += 1;
        id
    }

    // ---------------- replication repair ----------------

    /// Number of blocks currently below their replication target
    /// (introspection for tests, benches, and examples).
    pub fn under_replicated_blocks(&self) -> usize {
        self.block_map
            .values()
            .filter(|info| info.replicas.len() < info.target)
            .count()
    }

    /// Live replica count per block of `path`, in file order
    /// (introspection; `None` when the path does not exist).
    pub fn replica_counts(&self, path: &str) -> Option<Vec<usize>> {
        let meta = self.files.get(path)?;
        Some(
            meta.blocks
                .iter()
                .map(|(id, _, _)| {
                    self.block_map
                        .get(id)
                        .map(|info| info.replicas.iter().filter(|&&n| self.is_live(n)).count())
                        .unwrap_or(0)
                })
                .collect(),
        )
    }

    /// Number of DataNodes currently considered live (introspection).
    pub fn live_datanode_count(&self) -> usize {
        self.liveness.live().len()
    }

    /// A node left (declared dead): prune its replicas and cancel repairs
    /// it participated in, so the scan re-issues them off live nodes.
    fn on_node_lost(&mut self, node: NodeId) {
        self.repair_pending = true;
        // audit:allow(map-order): per-block replica prune is an independent mutation per entry; no events issue here
        for info in self.block_map.values_mut() {
            info.replicas.retain(|&n| n != node);
        }
        let mut cancelled: Vec<u64> = self
            .pending_repl
            .iter()
            .filter(|(_, p)| p.source == node || p.targets.contains(&node))
            .map(|(&tag, _)| tag)
            .collect();
        cancelled.sort_unstable();
        for tag in cancelled {
            let p = self.pending_repl.remove(&tag).expect("pending present");
            self.repl_in_flight.remove(&p.block);
        }
    }

    /// Scans for under-replicated blocks and starts one pipeline per block
    /// that has a live source, capacity to host a new replica, and no
    /// repair already in flight. Leaves `repair_pending` set iff some
    /// repairable block could not start (no capacity / rejected source),
    /// so the periodic tick keeps retrying it — and skips the scan
    /// entirely once everything startable is in flight or at target.
    fn replication_scan(&mut self, ctx: &mut Ctx<'_>) {
        let mut under: Vec<BlockId> = self
            .block_map
            .iter()
            .filter(|(id, info)| {
                info.replicas.len() < info.target
                    && !info.replicas.is_empty()
                    && !self.repl_in_flight.contains(id)
            })
            .map(|(&id, _)| id)
            .collect();
        // FxHashMap iteration order is seed-stable but insertion-history
        // dependent; sort so repair order is obviously deterministic.
        under.sort_unstable();
        let mut unstarted = 0usize;
        for block in under {
            if !self.start_replication(ctx, block) {
                unstarted += 1;
            }
        }
        self.repair_pending = unstarted > 0;
    }

    /// Returns whether a repair pipeline was actually issued.
    fn start_replication(&mut self, ctx: &mut Ctx<'_>, block: BlockId) -> bool {
        let (needed, source, exclude) = {
            let Some(info) = self.block_map.get(&block) else {
                return true; // gone: nothing left to retry
            };
            let Some(&source) = info.replicas.first() else {
                return true; // no surviving replica: unrepairable
            };
            (
                info.target - info.replicas.len(),
                source,
                info.replicas.clone(),
            )
        };
        let Some(src_actor) = self.datanode_actor(source) else {
            return false;
        };
        let targets = self.place_excluding(needed, None, &exclude);
        if targets.is_empty() {
            // No live node can host another replica yet; the next join or
            // periodic tick retries.
            return false;
        }
        let tag = self.next_repl_tag;
        self.next_repl_tag += 1;
        self.repl_in_flight.insert(block);
        self.pending_repl.insert(
            tag,
            PendingRepl {
                block,
                source,
                targets: targets.clone(),
            },
        );
        ctx.stats().incr("dfs.replications_started");
        let me = ctx.self_id();
        let (net, my) = (self.net, self.my_node);
        net.unicast(
            ctx,
            my,
            source,
            src_actor,
            128,
            ReplicateBlock {
                block,
                pipeline: targets,
                ack_to: me,
                ack_node: my,
                tag,
            },
        );
        true
    }

    /// A re-replication pipeline finished: commit the new replicas (those
    /// still live) and re-check the block.
    fn replication_done(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let Some(p) = self.pending_repl.remove(&tag) else {
            return; // cancelled (participant died) — a fresh repair owns the block
        };
        self.repl_in_flight.remove(&p.block);
        if let Some(info) = self.block_map.get_mut(&p.block) {
            for t in p.targets {
                if !self.liveness.is_dead(t) && !info.replicas.contains(&t) {
                    info.replicas.push(t);
                }
            }
        }
        ctx.stats().incr("dfs.blocks_replicated");
        // Re-check only this block (a target may have died mid-copy, or
        // several replicas were lost at once): O(1) per ack instead of a
        // full-map rescan during mass repair. Damage elsewhere re-arms
        // the periodic scan through its own loss/failure events.
        let still_under = self
            .block_map
            .get(&p.block)
            .map(|info| info.replicas.len() < info.target && !info.replicas.is_empty())
            .unwrap_or(false);
        if still_under && !self.start_replication(ctx, p.block) {
            self.repair_pending = true;
        }
    }
}

impl Actor for NameNode {
    fn name(&self) -> String {
        "dfs.namenode".into()
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Start => {
                for &(node, _) in &self.datanodes {
                    self.liveness.admit(node, ctx.now());
                }
                ctx.after(HEARTBEAT_INTERVAL, TIMER_LIVENESS);
            }
            Event::Timer {
                tag: TIMER_LIVENESS,
                ..
            } => {
                for node in self.liveness.sweep(ctx.now()) {
                    ctx.stats().incr("dfs.datanodes_declared_dead");
                    self.on_node_lost(node);
                }
                // Periodic repair scan (not just on deaths): re-issues
                // repairs whose source rejected them or whose pipeline was
                // cancelled by a follow-on death. The dirty flag keeps the
                // steady-state tick O(1) — no block-map walk when nothing
                // has been lost, failed, or starved since the last scan.
                if self.repair_pending {
                    self.replication_scan(ctx);
                }
                ctx.rearm_after(HEARTBEAT_INTERVAL, TIMER_LIVENESS);
            }
            Event::Timer { .. } => {}
            Event::Msg { msg, .. } => {
                if msg.is::<PreloadFile>() {
                    let req = msg.downcast::<PreloadFile>().expect("checked");
                    let block_size = req.block_size.unwrap_or(BLOCK_SIZE);
                    let replication = req.replication.unwrap_or(REPLICATION);
                    let mut blocks = Vec::new();
                    let mut offset = 0u64;
                    while offset < req.len {
                        let len = (req.len - offset).min(block_size);
                        let id = self.alloc_id();
                        let nodes = self.place(replication, None);
                        // Install metadata on every replica holder.
                        for &node in &nodes {
                            if let Some(dn) = self.datanode_actor(node) {
                                ctx.send(
                                    dn,
                                    AddBlockMeta {
                                        block: id,
                                        seed: req.seed,
                                        base_offset: offset,
                                        len,
                                    },
                                );
                            }
                        }
                        self.block_map.insert(
                            id,
                            BlockInfo {
                                replicas: nodes,
                                target: replication,
                            },
                        );
                        blocks.push((id, offset, len));
                        offset += len;
                    }
                    self.files.insert(
                        req.path.clone(),
                        FileMeta {
                            len: req.len,
                            block_size,
                            seed: req.seed,
                            replication,
                            blocks,
                        },
                    );
                    ctx.stats().incr("dfs.files_preloaded");
                    let view = self.view_of(&req.path).expect("just inserted");
                    ctx.send_after(req.reply, PreloadDone { view }, NAMENODE_OP_TIME);
                } else if let Some(req) = msg.peek::<GetLocations>() {
                    let view = self.view_of(&req.path);
                    ctx.stats().incr("dfs.get_locations");
                    let reply = LocationsReply { tag: req.tag, view };
                    let (net, my) = (self.net, self.my_node);
                    net.unicast(ctx, my, req.reply_node, req.reply, 256, reply);
                } else if let Some(req) = msg.peek::<CreateFile>() {
                    let ok = !self.files.contains_key(&req.path);
                    if ok {
                        let replication = req.replication.unwrap_or(REPLICATION);
                        self.files.insert(
                            req.path.clone(),
                            FileMeta {
                                len: 0,
                                block_size: BLOCK_SIZE,
                                seed: 0,
                                replication,
                                blocks: Vec::new(),
                            },
                        );
                        ctx.stats().incr("dfs.files_created");
                    }
                    let (net, my) = (self.net, self.my_node);
                    net.unicast(ctx, my, req.reply_node, req.reply, 64, CreateAck { ok });
                } else if let Some(req) = msg.peek::<AllocBlock>() {
                    let path = req.path.clone();
                    let (len, writer_node, reply, reply_node, tag) =
                        (req.len, req.writer_node, req.reply, req.reply_node, req.tag);
                    let id = self.alloc_id();
                    let replication = self
                        .files
                        .get(&path)
                        .map(|f| f.replication)
                        .unwrap_or(REPLICATION);
                    let pipeline = self.place(replication, Some(writer_node));
                    if let Some(meta) = self.files.get_mut(&path) {
                        let offset = meta.len;
                        meta.blocks.push((id, offset, len));
                        meta.len += len;
                    }
                    self.block_map.insert(
                        id,
                        BlockInfo {
                            replicas: pipeline.clone(),
                            target: replication,
                        },
                    );
                    ctx.stats().incr("dfs.blocks_allocated");
                    let (net, my) = (self.net, self.my_node);
                    net.unicast(
                        ctx,
                        my,
                        reply_node,
                        reply,
                        128,
                        BlockAllocated {
                            tag,
                            block: id,
                            pipeline,
                        },
                    );
                } else if let Some(hb) = msg.peek::<DnHeartbeat>() {
                    self.liveness.heard(hb.node, ctx.now());
                    ctx.stats().incr("dfs.heartbeats");
                } else if let Some(add) = msg.peek::<AddDataNode>() {
                    let (node, actor) = (add.node, add.actor);
                    match self.datanodes.binary_search_by_key(&node, |&(n, _)| n) {
                        Ok(i) => self.datanodes[i].1 = actor,
                        Err(i) => self.datanodes.insert(i, (node, actor)),
                    }
                    // A join (or re-join under a recycled id) starts with a
                    // clean bill of health and a full window before its
                    // first heartbeat is due.
                    self.liveness.admit(node, ctx.now());
                    ctx.stats().incr("dfs.datanodes_joined");
                    // The new capacity may unblock repairs that had nowhere
                    // to place a replica.
                    self.replication_scan(ctx);
                } else if let Some(ack) = msg.peek::<WriteAck>() {
                    // Final hop of a re-replication pipeline.
                    let tag = ack.tag;
                    self.replication_done(ctx, tag);
                } else if let Some(fail) = msg.peek::<ReplicationFailed>() {
                    let tag = fail.tag;
                    if let Some(p) = self.pending_repl.remove(&tag) {
                        self.repl_in_flight.remove(&p.block);
                        ctx.stats().incr("dfs.replications_failed");
                        // The source may hold only allocation-time
                        // metadata (its client write still in flight):
                        // rotate it to the back so the next attempt
                        // streams from a different replica, and let the
                        // liveness tick's periodic scan re-issue rather
                        // than retrying in a tight RPC loop.
                        if let Some(info) = self.block_map.get_mut(&p.block) {
                            if info.replicas.first() == Some(&p.source) && info.replicas.len() > 1 {
                                info.replicas.rotate_left(1);
                            }
                        }
                        self.repair_pending = true;
                    }
                }
            }
        }
    }
}

const TIMER_LIVENESS: u64 = 1;
