//! The NameNode: namespace, block map, placement, liveness, replication
//! repair, dynamic membership.
//!
//! Membership is no longer fixed at deploy: [`AddDataNode`] admits a
//! joined node into the placement rotation mid-run, and a DataNode falling
//! silent is declared dead, its replicas dropped from the block map, and
//! every block left under its target replication is repaired by streaming
//! a surviving replica through a [`ReplicateBlock`] pipeline.

use accelmr_des::prelude::*;
use accelmr_des::{sorted_keys_where, FxHashMap};
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

impl BlockInfo {
    /// Below target, with a surviving replica to copy from.
    fn repairable(&self) -> bool {
        self.replicas.len() < self.target && !self.replicas.is_empty()
    }
}

/// An in-flight re-replication of one block: `source` streaming it to
/// `targets`. Only the [`WriteAck`] or [`ReplicationFailed`] carrying
/// `tag` settles it; one from a cancelled earlier repair is stale.
struct Repair {
    tag: u64,
    source: NodeId,
    targets: Vec<NodeId>,
}

/// The metadata master. Runs on the head node (node 0 in the paper's
/// deployment, a Power6 JS22 blade).
pub struct NameNode {
    net: NetHandle,
    /// Registered DataNodes: `(node, actor)`, ascending by node.
    datanodes: Vec<(NodeId, ActorId)>,
    files: FxHashMap<String, FileMeta>,
    block_map: FxHashMap<BlockId, BlockInfo>,
    next_block: u64,
    placement_cursor: usize,
    /// DataNode heartbeat silence past `DfsConfig::dead_after`. A dead
    /// node stays dead until it joins again ([`AddDataNode`]).
    liveness: Liveness,
    /// In-flight re-replications, at most one per block.
    repairs: FxHashMap<BlockId, Repair>,
    next_repl_tag: u64,
    /// Repairs may be needed (a loss, failure, or capacity change since
    /// the last scan left blocks under target). Lets the periodic
    /// liveness tick skip the full block-map scan at steady state.
    repair_pending: bool,
}

impl NameNode {
    /// Builds a NameNode for an initial DataNode registry (more may join
    /// later via [`AddDataNode`]).
    pub fn new(cfg: DfsConfig, net: NetHandle, mut datanodes: Vec<(NodeId, ActorId)>) -> Self {
        // Membership updates binary-search this list; callers may pass
        // workers in any order.
        datanodes.sort_unstable_by_key(|&(n, _)| n);
        NameNode {
            net,
            datanodes,
            files: FxHashMap::default(),
            block_map: FxHashMap::default(),
            next_block: 0,
            placement_cursor: 0,
            liveness: Liveness::new(cfg.dead_after),
            repairs: FxHashMap::default(),
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
    fn place(
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

    /// Enters `path` as an empty file, replacing any file already there.
    fn register_file(&mut self, path: &str, block_size: u64, seed: u64, replication: usize) {
        let meta = FileMeta {
            len: 0,
            block_size,
            seed,
            replication,
            blocks: Vec::new(),
        };
        self.files.insert(path.to_string(), meta);
    }

    /// Allocates a block of `len` bytes, appends it to `path` (when that
    /// file exists) and places it at the file's replication, preferring
    /// `prefer` for the first replica. Returns the block and its replica
    /// nodes, in pipeline order.
    fn register_block(
        &mut self,
        path: &str,
        len: u64,
        prefer: Option<NodeId>,
    ) -> (BlockId, Vec<NodeId>) {
        let id = BlockId(self.next_block);
        self.next_block += 1;
        let replication = self.files.get(path).map_or(REPLICATION, |f| f.replication);
        let replicas = self.place(replication, prefer, &[]);
        if let Some(meta) = self.files.get_mut(path) {
            meta.blocks.push((id, meta.len, len));
            meta.len += len;
        }
        let info = BlockInfo {
            replicas: replicas.clone(),
            target: replication,
        };
        self.block_map.insert(id, info);
        (id, replicas)
    }

    // ---------------- replication repair ----------------

    /// Number of blocks currently below their replication target
    /// (introspection for tests, benches, and examples).
    #[expect(clippy::disallowed_methods, reason = "a count is order-free")]
    pub fn under_replicated_blocks(&self) -> usize {
        self.block_map
            .values()
            .filter(|info| info.replicas.len() < info.target)
            .count()
    }

    /// Live replica count per block of `path`, in file order
    /// (introspection; `None` when the path does not exist).
    pub fn replica_counts(&self, path: &str) -> Option<Vec<usize>> {
        let view = self.view_of(path)?;
        Some(view.blocks.iter().map(|b| b.replicas.len()).collect())
    }

    /// Number of DataNodes currently considered live (introspection).
    pub fn live_datanode_count(&self) -> usize {
        self.liveness.live().len()
    }

    /// A node left (declared dead): prune its replicas and cancel repairs
    /// it participated in, so the scan re-issues them off live nodes.
    fn on_node_lost(&mut self, node: NodeId) {
        self.repair_pending = true;
        #[expect(
            clippy::iter_over_hash_type,
            clippy::disallowed_methods,
            reason = "each entry's replica prune is independent of the others; no events issue here"
        )]
        for info in self.block_map.values_mut() {
            info.replicas.retain(|&n| n != node);
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "each repair's keep-or-drop is independent of the others; no events issue here"
        )]
        self.repairs
            .retain(|_, r| r.source != node && !r.targets.contains(&node));
    }

    /// Takes out the repair of `block` if `tag` names it; `None` for a
    /// reply to a repair already cancelled or settled.
    fn take_repair(&mut self, block: BlockId, tag: u64) -> Option<Repair> {
        match self.repairs.get(&block) {
            Some(r) if r.tag == tag => self.repairs.remove(&block),
            _ => None,
        }
    }

    /// Scans for under-replicated blocks and starts one pipeline per block
    /// that has a live source, capacity to host a new replica, and no
    /// repair already in flight. Leaves `repair_pending` set iff some
    /// repairable block could not start (no capacity / rejected source),
    /// so the periodic tick keeps retrying it — and skips the scan
    /// entirely once everything startable is in flight or at target.
    fn replication_scan(&mut self, ctx: &mut Ctx<'_>) {
        let under = sorted_keys_where(&self.block_map, |id, info| {
            info.repairable() && !self.repairs.contains_key(id)
        });
        let mut unstarted = false;
        for block in under {
            unstarted |= !self.start_replication(ctx, block);
        }
        self.repair_pending = unstarted;
    }

    /// Returns whether a repair pipeline was actually issued.
    fn start_replication(&mut self, ctx: &mut Ctx<'_>, block: BlockId) -> bool {
        let Some(info) = self.block_map.get(&block) else {
            return true; // gone: nothing left to retry
        };
        let Some(&source) = info.replicas.first() else {
            return true; // no surviving replica: unrepairable
        };
        let needed = info.target - info.replicas.len();
        let exclude = info.replicas.clone();
        let Some(src_actor) = self.datanode_actor(source) else {
            return false;
        };
        let targets = self.place(needed, None, &exclude);
        if targets.is_empty() {
            // No live node can host another replica yet; the next join or
            // periodic tick retries.
            return false;
        }
        let tag = self.next_repl_tag;
        self.next_repl_tag += 1;
        let repair = Repair {
            tag,
            source,
            targets: targets.clone(),
        };
        let displaced = self.repairs.insert(block, repair);
        debug_assert!(displaced.is_none(), "two repairs of {block}");
        ctx.stats().incr("dfs.replications_started");
        let req = ReplicateBlock {
            block,
            pipeline: targets,
            ack_to: ctx.self_id(),
            tag,
        };
        self.net.unicast(ctx, src_actor, 128, req);
        true
    }

    /// A re-replication pipeline finished: commit the new replicas (those
    /// still live) and re-check the block.
    fn replication_done(&mut self, ctx: &mut Ctx<'_>, block: BlockId, tag: u64) {
        let Some(repair) = self.take_repair(block, tag) else {
            return; // cancelled (participant died) — a fresh repair owns the block
        };
        if let Some(info) = self.block_map.get_mut(&block) {
            for t in repair.targets {
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
            .get(&block)
            .is_some_and(BlockInfo::repairable);
        if still_under && !self.start_replication(ctx, block) {
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
            Event::Timer { .. } => {
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
            Event::Msg { msg } => match Inbox::decode(msg) {
                Inbox::PreloadFile(req) => {
                    let block_size = req.block_size.unwrap_or(BLOCK_SIZE);
                    assert!(block_size > 0, "preload of {}: block size 0", req.path);
                    let replication = req.replication.unwrap_or(REPLICATION);
                    self.register_file(&req.path, block_size, req.seed, replication);
                    let mut base_offset = 0u64;
                    while base_offset < req.len {
                        let len = (req.len - base_offset).min(block_size);
                        let (block, replicas) = self.register_block(&req.path, len, None);
                        // Install the content on every replica holder.
                        let content = BlockContent {
                            len,
                            seed: req.seed,
                            base_offset,
                        };
                        for node in replicas {
                            if let Some(dn) = self.datanode_actor(node) {
                                ctx.send(dn, AddBlockMeta { block, content });
                            }
                        }
                        base_offset += len;
                    }
                    ctx.stats().incr("dfs.files_preloaded");
                    let view = self.view_of(&req.path).expect("just inserted");
                    ctx.send_after(req.reply, PreloadDone { view }, NAMENODE_OP_TIME);
                }
                Inbox::GetLocations(req) => {
                    let view = self.view_of(&req.path);
                    ctx.stats().incr("dfs.get_locations");
                    let reply = LocationsReply { tag: req.tag, view };
                    self.net.unicast(ctx, req.reply, 256, reply);
                }
                Inbox::CreateFile(req) => {
                    let ok = !self.files.contains_key(&req.path);
                    if ok {
                        let replication = req.replication.unwrap_or(REPLICATION);
                        self.register_file(&req.path, BLOCK_SIZE, 0, replication);
                        ctx.stats().incr("dfs.files_created");
                    }
                    let ack = CreateAck { tag: req.tag, ok };
                    self.net.unicast(ctx, req.reply, 64, ack);
                }
                Inbox::AllocBlock(req) => {
                    let (block, pipeline) =
                        self.register_block(&req.path, req.len, Some(req.writer_node));
                    ctx.stats().incr("dfs.blocks_allocated");
                    let reply = BlockAllocated {
                        tag: req.tag,
                        block,
                        pipeline,
                    };
                    self.net.unicast(ctx, req.reply, 128, reply);
                }
                Inbox::DnHeartbeat(hb) => {
                    self.liveness.heard(hb.node, ctx.now());
                    ctx.stats().incr("dfs.heartbeats");
                }
                Inbox::AddDataNode(add) => {
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
                }
                Inbox::WriteAck(ack) => {
                    // Final hop of a re-replication pipeline.
                    self.replication_done(ctx, ack.block, ack.tag);
                }
                Inbox::ReplicationFailed(fail) => {
                    let block = fail.block;
                    if let Some(repair) = self.take_repair(block, fail.tag) {
                        ctx.stats().incr("dfs.replications_failed");
                        // The source may hold only allocation-time
                        // metadata (its client write still in flight):
                        // rotate it to the back so the next attempt
                        // streams from a different replica, and let the
                        // liveness tick's periodic scan re-issue rather
                        // than retrying in a tight RPC loop.
                        if let Some(info) = self.block_map.get_mut(&block) {
                            if info.replicas.first() == Some(&repair.source)
                                && info.replicas.len() > 1
                            {
                                info.replicas.rotate_left(1);
                            }
                        }
                        self.repair_pending = true;
                    }
                }
            },
        }
    }
}

accelmr_des::inbox! {
    enum Inbox {
        PreloadFile, GetLocations, CreateFile, AllocBlock, DnHeartbeat, AddDataNode, WriteAck,
        ReplicationFailed,
    }
}

const TIMER_LIVENESS: u64 = 1;
