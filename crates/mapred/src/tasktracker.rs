//! The TaskTracker: per-node task execution.
//!
//! One TaskTracker runs on every worker node, owning `map_slots_per_node`
//! slots (2 in the paper). For data tasks it drives the RecordReader
//! pipeline: records stream from the (usually local) DataNode through the
//! per-stream-capped feed path, with read-ahead of one record overlapping
//! the map computation — the overlap that lets the feed ceiling hide the
//! accelerator speedup in the paper's Figures 4 and 5. The map computation
//! itself is delegated to the job's
//! [`TaskKernel`](crate::kernel::TaskKernel), which may offload to
//! node-resident accelerator state ([`NodeEnv`]).
//!
//! Correctness around asynchrony relies on per-slot *generations*: every
//! task occupying a slot gets a fresh generation, every timer and
//! outstanding I/O is tagged with it, and stale events (from killed,
//! failed, or finished attempts) are dropped on arrival.

use std::collections::VecDeque;

use accelmr_des::prelude::*;
use accelmr_des::FxHashMap;
use accelmr_dfs::msgs::{BlockAllocated, BlockLoc, CreateAck, RangeData, ReadError, WriteAck};
use accelmr_dfs::DfsHandle;
use accelmr_kernels::UnorderedDigest;
use accelmr_net::{FlowAborted, FlowDone, NetHandle, NodeId};

use crate::config::{JobId, MrConfig, TaskId};
use crate::job::{OutputSink, TaskDescriptor, TaskMetrics, TaskWork};
use crate::kernel::{NodeEnv, RecordCtx};
use crate::msgs::{
    AssignTask, CrashTaskTracker, InjectGray, KillTask, SetHeartbeatLoss, TaskReport, TtHeartbeat,
};

const TIMER_HEARTBEAT: u64 = 0;
const KIND_START: u64 = 1;
const KIND_COMPUTE: u64 = 2;
const KIND_CLEANUP: u64 = 3;
const KIND_MERGE: u64 = 4;
// I/O watchdog timers carry the outstanding I/O tag (next_tag counter, far
// below 2^56) in the low bits instead of a slot/gen pair: staleness is
// decided by whether the tag is still in `reads`/`fetches`, not by slot
// liveness, so a timeout whose I/O already completed is a silent no-op.
const KIND_FETCH_TIMEOUT: u64 = 5;
const KIND_READ_TIMEOUT: u64 = 6;
const IO_TAG_MASK: u64 = (1 << 56) - 1;

#[inline]
fn slot_timer_tag(kind: u64, slot: usize, gen: u32) -> u64 {
    (kind << 56) | ((slot as u64) << 40) | gen as u64
}

#[inline]
fn unpack_timer_tag(tag: u64) -> (u64, usize, u32) {
    (tag >> 56, ((tag >> 40) & 0xffff) as usize, tag as u32)
}

#[inline]
fn io_timer_tag(kind: u64, io_tag: u64) -> u64 {
    debug_assert!(io_tag <= IO_TAG_MASK);
    (kind << 56) | io_tag
}

/// `base * factor^n`, the exponential-backoff schedule for I/O watchdogs.
#[inline]
fn backoff(base: SimDuration, factor: f64, n: u32) -> SimDuration {
    if n == 0 {
        return base;
    }
    SimDuration::from_nanos((base.as_nanos() as f64 * factor.powi(n as i32)) as u64)
}

/// Stretches a compute duration by the node's gray-failure factor. The
/// `factor == 1.0` path must return `d` untouched (no f64 round trip) so
/// fault-free runs arm bit-identical timers and golden traces hold.
#[inline]
fn degrade(d: SimDuration, factor: f64) -> SimDuration {
    if factor >= 1.0 {
        return d;
    }
    SimDuration::from_nanos((d.as_nanos() as f64 / factor) as u64)
}

/// One read segment in flight (a record may span DFS blocks).
#[derive(Debug)]
struct ReadCtx {
    slot: usize,
    gen: u32,
    record: u64,
    offset_in_record: u64,
    seg: usize,
    replica_tried: usize,
}

#[derive(Debug, Clone)]
struct Segment {
    block: accelmr_dfs::BlockId,
    offset_in_block: u64,
    len: u64,
    offset_in_record: u64,
    replicas: Vec<NodeId>,
}

struct ReadyRecord {
    record: u64,
    bytes: Option<Vec<u8>>,
}

/// One shuffle fetch in flight, with enough context to re-issue it after a
/// timeout (the map-output source and size survive retries; `retries`
/// drives the exponential backoff and the give-up threshold).
#[derive(Debug, Clone, Copy)]
struct FetchCtx {
    slot: usize,
    gen: u32,
    from: NodeId,
    bytes: u64,
    retries: u32,
}

struct TaskRun {
    desc: TaskDescriptor,
    gen: u32,
    started: SimTime,
    setup_charged: bool,
    // Data-task state.
    n_records: u64,
    next_record: u64,
    /// `(record, segments outstanding, assembly buffer)`.
    inflight: Option<(u64, usize, Option<Vec<u8>>)>,
    ready: Option<ReadyRecord>,
    computing: bool,
    records_done: u64,
    waiting_since: Option<SimTime>,
    // Output-write state.
    out_created: bool,
    out_create_requested: bool,
    out_queue: VecDeque<u64>,
    outstanding_writes: u32,
    next_out_offset: u64,
    // Reduce state.
    fetches_left: usize,
    merge_started: bool,
    merge_done: bool,
    // Accounting.
    metrics: TaskMetrics,
    kv: Vec<(u64, u64)>,
    digest: UnorderedDigest,
    finished: bool,
}

impl TaskRun {
    fn out_path(&self) -> String {
        match &self.desc.output {
            OutputSink::Dfs { path, .. } => format!("{}/part-{:05}", path, self.desc.task.0),
            _ => String::new(),
        }
    }

    fn writes_dfs(&self) -> bool {
        matches!(self.desc.output, OutputSink::Dfs { .. })
    }
}

enum Slot {
    Idle,
    Busy(Box<TaskRun>),
}

/// Per-node execution daemon.
pub struct TaskTracker {
    cfg: MrConfig,
    net: NetHandle,
    dfs: DfsHandle,
    node: NodeId,
    head_node: NodeId,
    jobtracker: ActorId,
    slots: Vec<Slot>,
    gen_counter: u32,
    env: Box<dyn NodeEnv>,
    kernels_setup: Vec<&'static str>,
    pending_reports: Vec<TaskReport>,
    reads: FxHashMap<u64, ReadCtx>,
    /// write tag → `(slot, gen, block length)`.
    writes: FxHashMap<u64, (usize, u32, u64)>,
    fetches: FxHashMap<u64, FetchCtx>,
    create_waiters: VecDeque<usize>,
    next_tag: u64,
    /// Gray-failure throughput multiplier; `1.0` = healthy.
    gray_factor: f64,
    /// Chaos-injected heartbeat loss: while set, heartbeats are dropped
    /// (reports accumulate) but tasks keep running.
    hb_suppressed: bool,
}

impl TaskTracker {
    /// Builds a TaskTracker on `node` reporting to `jobtracker`.
    pub fn new(
        cfg: MrConfig,
        net: NetHandle,
        dfs: DfsHandle,
        node: NodeId,
        head_node: NodeId,
        jobtracker: ActorId,
        env: Box<dyn NodeEnv>,
    ) -> Self {
        let slots = (0..cfg.map_slots_per_node).map(|_| Slot::Idle).collect();
        TaskTracker {
            cfg,
            net,
            dfs,
            node,
            head_node,
            jobtracker,
            slots,
            gen_counter: 0,
            env,
            kernels_setup: Vec::new(),
            pending_reports: Vec::new(),
            reads: FxHashMap::default(),
            writes: FxHashMap::default(),
            fetches: FxHashMap::default(),
            create_waiters: VecDeque::new(),
            next_tag: 1,
            gray_factor: 1.0,
            hb_suppressed: false,
        }
    }

    fn free_slots(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, Slot::Idle))
            .count()
    }

    fn tag(&mut self) -> u64 {
        let t = self.next_tag;
        self.next_tag += 1;
        t
    }

    fn slot_live(&self, slot: usize, gen: u32) -> bool {
        matches!(self.slots.get(slot), Some(Slot::Busy(run)) if run.gen == gen && !run.finished)
    }

    fn send_heartbeat(&mut self, ctx: &mut Ctx<'_>) {
        if self.hb_suppressed {
            // Heartbeat-loss window: the message is dropped, not deferred.
            // Completed-task reports stay queued and ride the first
            // heartbeat after the window — the JobTracker must fence them.
            ctx.stats().incr("mr.heartbeats_suppressed");
            return;
        }
        let hb = TtHeartbeat {
            node: self.node,
            free_slots: self.free_slots(),
            completed: std::mem::take(&mut self.pending_reports),
        };
        let bytes = 256 + 512 * hb.completed.len() as u64;
        let (net, node, head, jt) = (self.net, self.node, self.head_node, self.jobtracker);
        net.unicast(ctx, node, head, jt, bytes, hb);
    }

    fn segments_of(blocks: &[BlockLoc], rec_start: u64, rec_len: u64) -> Vec<Segment> {
        let rec_end = rec_start + rec_len;
        let mut segs = Vec::new();
        for b in blocks {
            let lo = rec_start.max(b.offset);
            let hi = rec_end.min(b.offset + b.len);
            if lo < hi {
                segs.push(Segment {
                    block: b.id,
                    offset_in_block: lo - b.offset,
                    len: hi - lo,
                    offset_in_record: lo - rec_start,
                    replicas: b.replicas.clone(),
                });
            }
        }
        segs
    }

    fn record_bounds(work: &TaskWork, rec: u64) -> (u64, u64) {
        match work {
            TaskWork::MapRange {
                start,
                end,
                record_bytes,
                ..
            } => {
                let rs = start + rec * record_bytes;
                let rl = (*end - rs).min(*record_bytes);
                (rs, rl)
            }
            _ => (0, 0),
        }
    }

    /// Issues all segment reads of the next record of `slot`, if any.
    fn issue_record_read(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let (gen, rec, segs) = {
            let Slot::Busy(run) = &mut self.slots[slot] else {
                return;
            };
            if !matches!(run.desc.work, TaskWork::MapRange { .. }) {
                return;
            }
            if run.next_record >= run.n_records || run.inflight.is_some() {
                return;
            }
            let rec = run.next_record;
            run.next_record += 1;
            let (rs, rl) = Self::record_bounds(&run.desc.work, rec);
            let TaskWork::MapRange { blocks, .. } = &run.desc.work else {
                unreachable!()
            };
            let segs = Self::segments_of(blocks, rs, rl);
            debug_assert_eq!(
                segs.iter().map(|s| s.len).sum::<u64>(),
                rl,
                "split blocks must cover every record byte"
            );
            run.inflight = Some((rec, segs.len(), None));
            (run.gen, rec, segs)
        };
        // A record spanning several blocks fans out all its segment reads
        // in one instant; the resulting DataNode flows start together and
        // are coalesced into one fabric re-solve.
        for (i, seg) in segs.iter().enumerate() {
            self.issue_segment(ctx, slot, gen, rec, seg, i, 0);
        }
    }

    fn replica_order(&self, replicas: &[NodeId]) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(replicas.len());
        if replicas.contains(&self.node) {
            order.push(self.node);
        }
        for &r in replicas {
            if r != self.node {
                order.push(r);
            }
        }
        order
    }

    #[allow(clippy::too_many_arguments)]
    fn issue_segment(
        &mut self,
        ctx: &mut Ctx<'_>,
        slot: usize,
        gen: u32,
        record: u64,
        seg: &Segment,
        seg_idx: usize,
        replica_tried: usize,
    ) {
        let order = self.replica_order(&seg.replicas);
        if replica_tried >= order.len() {
            self.fail_task(ctx, slot, gen);
            return;
        }
        let dn_node = order[replica_tried];
        let tag = self.tag();
        self.reads.insert(
            tag,
            ReadCtx {
                slot,
                gen,
                record,
                offset_in_record: seg.offset_in_record,
                seg: seg_idx,
                replica_tried,
            },
        );
        let ok = self.dfs.read_range(
            ctx,
            self.node,
            dn_node,
            seg.block,
            seg.offset_in_block,
            seg.len,
            self.cfg.record_feed_cap,
            tag,
        );
        if !ok {
            // The replica's DataNode has left the cluster (dynamic
            // membership removes it from the registry): fall through to
            // the next replica instead of failing the attempt outright.
            self.reads.remove(&tag);
            ctx.stats().incr("mr.read_reroutes");
            self.issue_segment(ctx, slot, gen, record, seg, seg_idx, replica_tried + 1);
            return;
        }
        if let Slot::Busy(run) = &mut self.slots[slot] {
            if dn_node == self.node {
                run.metrics.local_reads += 1;
            } else {
                run.metrics.remote_reads += 1;
            }
        }
        if let Some(t) = self.cfg.read_timeout {
            // Each replica attempt waits longer than the last, so a
            // congested-but-alive source is not hammered in a tight loop.
            let t = backoff(t, self.cfg.io_retry_backoff, replica_tried as u32);
            ctx.after(t, io_timer_tag(KIND_READ_TIMEOUT, tag));
        }
    }

    /// A read watchdog fired. If the segment is still outstanding the
    /// source is stalled (partitioned or gray): abandon the tag — the
    /// late [`RangeData`], if it ever lands, is dropped by the tag lookup
    /// — and fail over to the next replica via [`Self::retry_read`].
    fn read_timed_out(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if !self.reads.contains_key(&tag) {
            return; // completed (or already rerouted) before the deadline
        }
        ctx.stats().incr("dfs.read_retries");
        self.retry_read(ctx, tag);
    }

    /// A shuffle-fetch watchdog fired while the flow was still in flight:
    /// re-issue the fetch from the same source under a fresh tag with
    /// exponentially backed-off patience, up to `io_max_retries`. The
    /// stalled flow is left to drain; its eventual [`FlowDone`] misses the
    /// tag lookup and is ignored.
    fn fetch_timed_out(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let Some(f) = self.fetches.remove(&tag) else {
            return; // fetch completed before the deadline
        };
        if !self.slot_live(f.slot, f.gen) {
            return;
        }
        if f.retries >= self.cfg.io_max_retries {
            ctx.stats().incr("mr.fetch_failures");
            self.fail_task(ctx, f.slot, f.gen);
            return;
        }
        ctx.stats().incr("mr.attempt_retries");
        let retries = f.retries + 1;
        let new_tag = self.tag();
        self.fetches.insert(new_tag, FetchCtx { retries, ..f });
        let (net, node) = (self.net, self.node);
        net.start_flow(
            ctx,
            f.from,
            node,
            f.bytes,
            self.cfg.shuffle_stream_cap,
            new_tag,
        );
        if let Some(t) = self.cfg.shuffle_fetch_timeout {
            let t = backoff(t, self.cfg.io_retry_backoff, retries);
            ctx.after(t, io_timer_tag(KIND_FETCH_TIMEOUT, new_tag));
        }
    }

    /// A read segment failed: retry on the next replica.
    fn retry_read(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let Some(rctx) = self.reads.remove(&tag) else {
            return;
        };
        if !self.slot_live(rctx.slot, rctx.gen) {
            return;
        }
        ctx.stats().incr("mr.read_retries");
        let seg = {
            let Slot::Busy(run) = &self.slots[rctx.slot] else {
                return;
            };
            let (rs, rl) = Self::record_bounds(&run.desc.work, rctx.record);
            let TaskWork::MapRange { blocks, .. } = &run.desc.work else {
                return;
            };
            Self::segments_of(blocks, rs, rl).get(rctx.seg).cloned()
        };
        let Some(seg) = seg else {
            self.fail_task(ctx, rctx.slot, rctx.gen);
            return;
        };
        self.issue_segment(
            ctx,
            rctx.slot,
            rctx.gen,
            rctx.record,
            &seg,
            rctx.seg,
            rctx.replica_tried + 1,
        );
    }

    fn record_arrived(&mut self, ctx: &mut Ctx<'_>, slot: usize, rec: u64, bytes: Option<Vec<u8>>) {
        let start_compute = {
            let Slot::Busy(run) = &mut self.slots[slot] else {
                return;
            };
            run.inflight = None;
            run.ready = Some(ReadyRecord { record: rec, bytes });
            !run.computing
        };
        if start_compute {
            self.start_compute(ctx, slot);
        }
        if self.cfg.pipelined_reads {
            self.issue_record_read(ctx, slot);
        }
    }

    fn start_compute(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let now = ctx.now();
        let gray = self.gray_factor;
        let (compute, gen) = {
            let Slot::Busy(run) = &mut self.slots[slot] else {
                return;
            };
            let Some(ready) = run.ready.take() else {
                return;
            };
            if let Some(since) = run.waiting_since.take() {
                run.metrics.feed_stall += now - since;
            }
            let (rs, rl) = Self::record_bounds(&run.desc.work, ready.record);
            let file_seed = match &run.desc.work {
                TaskWork::MapRange { file_seed, .. } => *file_seed,
                _ => 0,
            };
            let rec_ctx = RecordCtx {
                abs_offset: rs,
                len: rl,
                bytes: ready.bytes.as_deref(),
                file_seed,
            };
            let outcome = run.desc.kernel.map_record(self.env.as_mut(), &rec_ctx);
            run.computing = true;
            // A gray node computes slower; metrics record the observed
            // (degraded) time so elapsed and compute stay consistent.
            let compute = degrade(outcome.compute, gray);
            run.metrics.compute += compute;
            run.metrics.bytes_read += rl;
            run.metrics.records += 1;
            if outcome.digest != 0 {
                run.digest.add(outcome.digest);
            }
            run.kv.extend(outcome.kv);
            if outcome.output_bytes > 0 {
                run.metrics.bytes_output += outcome.output_bytes;
                if run.writes_dfs() {
                    run.out_queue.push_back(outcome.output_bytes);
                }
            }
            (compute, run.gen)
        };
        self.ensure_output_file(ctx, slot);
        self.drain_output_queue(ctx, slot);
        ctx.after(compute, slot_timer_tag(KIND_COMPUTE, slot, gen));
    }

    fn ensure_output_file(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let req = {
            let Slot::Busy(run) = &mut self.slots[slot] else {
                return;
            };
            if run.out_create_requested || !run.writes_dfs() || run.out_queue.is_empty() {
                None
            } else {
                run.out_create_requested = true;
                let OutputSink::Dfs { replication, .. } = run.desc.output else {
                    unreachable!()
                };
                Some((run.out_path(), replication))
            }
        };
        if let Some((path, replication)) = req {
            self.dfs.create_file(ctx, self.node, &path, replication);
            self.create_waiters.push_back(slot);
        }
    }

    fn drain_output_queue(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let reqs = {
            let Slot::Busy(run) = &mut self.slots[slot] else {
                return;
            };
            if !run.out_created {
                return;
            }
            let path = run.out_path();
            let mut reqs = Vec::new();
            while let Some(len) = run.out_queue.pop_front() {
                run.outstanding_writes += 1;
                reqs.push((path.clone(), len, run.gen));
            }
            reqs
        };
        for (path, len, gen) in reqs {
            let tag = self.tag();
            self.writes.insert(tag, (slot, gen, len));
            self.dfs.alloc_block(ctx, self.node, &path, len, tag);
        }
    }

    fn compute_done(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let now = ctx.now();
        {
            let Slot::Busy(run) = &mut self.slots[slot] else {
                return;
            };
            run.computing = false;
            run.records_done += 1;
            let still_to_come = match run.desc.work {
                TaskWork::MapRange { .. } => run.records_done < run.n_records,
                _ => false,
            };
            if run.ready.is_none() && still_to_come {
                run.waiting_since = Some(now);
            }
        }
        if !self.cfg.pipelined_reads {
            self.issue_record_read(ctx, slot);
        }
        self.start_compute(ctx, slot);
        self.maybe_finish(ctx, slot);
    }

    fn maybe_finish(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let finish = {
            let Slot::Busy(run) = &mut self.slots[slot] else {
                return;
            };
            if run.finished {
                return;
            }
            let done = match &run.desc.work {
                TaskWork::MapRange { .. } => {
                    run.records_done == run.n_records
                        && !run.computing
                        && run.outstanding_writes == 0
                        && run.out_queue.is_empty()
                }
                TaskWork::MapUnits { .. } => !run.computing && run.records_done > 0,
                TaskWork::Reduce { .. } => {
                    run.fetches_left == 0
                        && run.merge_done
                        && run.outstanding_writes == 0
                        && run.out_queue.is_empty()
                }
            };
            if done {
                run.finished = true;
                Some(run.gen)
            } else {
                None
            }
        };
        if let Some(gen) = finish {
            ctx.after(
                self.cfg.task_cleanup_overhead,
                slot_timer_tag(KIND_CLEANUP, slot, gen),
            );
        }
    }

    fn finish_task(&mut self, ctx: &mut Ctx<'_>, slot: usize, ok: bool) {
        let now = ctx.now();
        let run = match std::mem::replace(&mut self.slots[slot], Slot::Idle) {
            Slot::Busy(run) => run,
            Slot::Idle => return,
        };
        let mut metrics = run.metrics;
        metrics.elapsed = now - run.started;
        self.pending_reports.push(TaskReport {
            job: run.desc.job,
            task: run.desc.task,
            attempt: run.desc.attempt,
            ok,
            metrics,
            kv: run.kv,
            digest: run.digest.finish(),
            node: self.node,
        });
        ctx.stats()
            .incr(if ok { "mr.tasks_ok" } else { "mr.tasks_failed" });
    }

    fn fail_task(&mut self, ctx: &mut Ctx<'_>, slot: usize, gen: u32) {
        if !self.slot_live(slot, gen) {
            return;
        }
        if let Slot::Busy(run) = &mut self.slots[slot] {
            run.gen = run.gen.wrapping_add(0x1000_0000); // invalidate stale events
        }
        self.finish_task(ctx, slot, false);
    }

    fn start_task(&mut self, ctx: &mut Ctx<'_>, descriptor: TaskDescriptor) {
        let Some(slot) = self.slots.iter().position(|s| matches!(s, Slot::Idle)) else {
            self.pending_reports.push(TaskReport {
                job: descriptor.job,
                task: descriptor.task,
                attempt: descriptor.attempt,
                ok: false,
                metrics: TaskMetrics::default(),
                kv: Vec::new(),
                digest: (0, 0),
                node: self.node,
            });
            return;
        };
        self.gen_counter = self.gen_counter.wrapping_add(1);
        let gen = self.gen_counter;
        let n_records = match &descriptor.work {
            TaskWork::MapRange {
                start,
                end,
                record_bytes,
                ..
            } => (end - start).div_ceil(*record_bytes),
            _ => 0,
        };
        let run = TaskRun {
            desc: descriptor,
            gen,
            started: ctx.now(),
            setup_charged: false,
            n_records,
            next_record: 0,
            inflight: None,
            ready: None,
            computing: false,
            records_done: 0,
            waiting_since: None,
            out_created: false,
            out_create_requested: false,
            out_queue: VecDeque::new(),
            outstanding_writes: 0,
            next_out_offset: 0,
            fetches_left: 0,
            merge_started: false,
            merge_done: false,
            metrics: TaskMetrics::default(),
            kv: Vec::new(),
            digest: UnorderedDigest::new(),
            finished: false,
        };
        self.slots[slot] = Slot::Busy(Box::new(run));
        ctx.stats().incr("mr.tasks_started");
        ctx.after(
            self.cfg.task_start_overhead,
            slot_timer_tag(KIND_START, slot, gen),
        );
    }

    fn begin_work(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        // One-time per-node kernel setup (e.g. SPU context creation via the
        // JNI bridge): charged as an extension of the first task's start.
        let setup = {
            let Slot::Busy(run) = &mut self.slots[slot] else {
                return;
            };
            let name = run.desc.kernel.name();
            if run.setup_charged || self.kernels_setup.contains(&name) {
                SimDuration::ZERO
            } else {
                run.setup_charged = true;
                self.kernels_setup.push(name);
                run.desc.kernel.node_setup(self.env.as_mut())
            }
        };
        if setup > SimDuration::ZERO {
            let gen = match &self.slots[slot] {
                Slot::Busy(run) => run.gen,
                Slot::Idle => return,
            };
            ctx.after(setup, slot_timer_tag(KIND_START, slot, gen));
            return;
        }
        let work = {
            let Slot::Busy(run) = &self.slots[slot] else {
                return;
            };
            run.desc.work.clone()
        };
        match work {
            TaskWork::MapRange { .. } => {
                if let Slot::Busy(run) = &mut self.slots[slot] {
                    run.waiting_since = Some(ctx.now());
                }
                self.issue_record_read(ctx, slot);
                // Zero-record splits complete immediately.
                if let Slot::Busy(run) = &self.slots[slot] {
                    if run.n_records == 0 {
                        self.maybe_finish(ctx, slot);
                    }
                }
            }
            TaskWork::MapUnits { units, index } => {
                let gray = self.gray_factor;
                let (compute, gen) = {
                    let Slot::Busy(run) = &mut self.slots[slot] else {
                        return;
                    };
                    let outcome = run.desc.kernel.map_units(self.env.as_mut(), units, index);
                    run.kv.extend(outcome.kv);
                    let compute = degrade(outcome.compute, gray);
                    run.metrics.compute += compute;
                    run.computing = true;
                    (compute, run.gen)
                };
                ctx.after(compute, slot_timer_tag(KIND_COMPUTE, slot, gen));
            }
            TaskWork::Reduce { fetches, .. } => {
                let gen = match &mut self.slots[slot] {
                    Slot::Busy(run) => {
                        run.fetches_left = fetches.iter().filter(|&&(_, b)| b > 0).count();
                        run.gen
                    }
                    Slot::Idle => return,
                };
                // All fetches issue at this one instant: the fabric
                // coalesces the whole shuffle wave into a single max-min
                // re-solve (see `accelmr_net::fabric`), so keep this a
                // straight burst — do not stagger or serialize starts.
                let mut any = false;
                for &(from, bytes) in &fetches {
                    if bytes == 0 {
                        continue;
                    }
                    any = true;
                    let tag = self.tag();
                    self.fetches.insert(
                        tag,
                        FetchCtx {
                            slot,
                            gen,
                            from,
                            bytes,
                            retries: 0,
                        },
                    );
                    if let Slot::Busy(run) = &mut self.slots[slot] {
                        run.metrics.bytes_read += bytes;
                    }
                    let (net, node) = (self.net, self.node);
                    net.start_flow(ctx, from, node, bytes, self.cfg.shuffle_stream_cap, tag);
                    if let Some(t) = self.cfg.shuffle_fetch_timeout {
                        ctx.after(t, io_timer_tag(KIND_FETCH_TIMEOUT, tag));
                    }
                }
                if !any {
                    self.start_merge(ctx, slot);
                }
            }
        }
    }

    fn start_merge(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let gray = self.gray_factor;
        let (merge_time, gen) = {
            let Slot::Busy(run) = &mut self.slots[slot] else {
                return;
            };
            if run.merge_started {
                return;
            }
            run.merge_started = true;
            let merge_time = degrade(
                run.desc
                    .reduce_merge_time
                    .unwrap_or(SimDuration::from_millis(1)),
                gray,
            );
            run.metrics.compute += merge_time;
            let out_bytes = run.metrics.bytes_read;
            if run.writes_dfs() && out_bytes > 0 {
                run.metrics.bytes_output += out_bytes;
                run.out_queue.push_back(out_bytes);
            }
            (merge_time, run.gen)
        };
        self.ensure_output_file(ctx, slot);
        self.drain_output_queue(ctx, slot);
        ctx.after(merge_time, slot_timer_tag(KIND_MERGE, slot, gen));
    }

    fn kill_attempt(&mut self, job: JobId, task: TaskId, attempt: u32) {
        for slot in &mut self.slots {
            if let Slot::Busy(run) = slot {
                if run.desc.job == job && run.desc.task == task && run.desc.attempt == attempt {
                    *slot = Slot::Idle;
                    return;
                }
            }
        }
    }
}

impl Actor for TaskTracker {
    fn name(&self) -> String {
        format!("mr.tasktracker@{}", self.node)
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Start => {
                let interval = self.cfg.heartbeat_interval.as_nanos();
                let jitter = SimDuration::from_nanos(ctx.rng().next_below(interval.max(1)));
                ctx.after(jitter, TIMER_HEARTBEAT);
            }
            Event::Timer {
                tag: TIMER_HEARTBEAT,
                ..
            } => {
                self.send_heartbeat(ctx);
                // In-place rearm: one timer slot per tracker, forever.
                ctx.rearm_after(self.cfg.heartbeat_interval, TIMER_HEARTBEAT);
            }
            Event::Timer { tag, .. } => {
                // I/O watchdogs carry an I/O tag, not a slot/gen pair:
                // route them before the slot-liveness check.
                match tag >> 56 {
                    KIND_FETCH_TIMEOUT => {
                        self.fetch_timed_out(ctx, tag & IO_TAG_MASK);
                        return;
                    }
                    KIND_READ_TIMEOUT => {
                        self.read_timed_out(ctx, tag & IO_TAG_MASK);
                        return;
                    }
                    _ => {}
                }
                let (kind, slot, gen) = unpack_timer_tag(tag);
                let live = matches!(
                    self.slots.get(slot),
                    Some(Slot::Busy(run)) if run.gen == gen
                );
                if !live {
                    return;
                }
                match kind {
                    KIND_START => self.begin_work(ctx, slot),
                    KIND_COMPUTE => self.compute_done(ctx, slot),
                    KIND_MERGE => {
                        if let Slot::Busy(run) = &mut self.slots[slot] {
                            run.merge_done = true;
                        }
                        self.maybe_finish(ctx, slot);
                    }
                    KIND_CLEANUP => self.finish_task(ctx, slot, true),
                    _ => {}
                }
            }
            Event::Msg { msg, .. } => {
                if msg.is::<AssignTask>() {
                    let assign = msg.downcast::<AssignTask>().expect("checked");
                    self.start_task(ctx, assign.descriptor);
                } else if let Some(kill) = msg.peek::<KillTask>() {
                    self.kill_attempt(kill.job, kill.task, kill.attempt);
                } else if msg.is::<CrashTaskTracker>() {
                    ctx.stats().incr("mr.tasktrackers_crashed");
                    let me = ctx.self_id();
                    ctx.kill(me);
                } else if let Some(gray) = msg.peek::<InjectGray>() {
                    let f = gray.factor;
                    // Clamp to (0, 1]: zero/negative would freeze compute
                    // forever, which is a stall, not a gray failure.
                    self.gray_factor = if f > 0.0 { f.min(1.0) } else { 1.0e-9 };
                    ctx.stats().incr(if self.gray_factor < 1.0 {
                        "mr.gray_injected"
                    } else {
                        "mr.gray_healed"
                    });
                } else if let Some(loss) = msg.peek::<SetHeartbeatLoss>() {
                    self.hb_suppressed = loss.suppress;
                } else if msg.is::<RangeData>() {
                    let data = msg.downcast::<RangeData>().expect("checked");
                    let Some(rctx) = self.reads.remove(&data.tag) else {
                        return;
                    };
                    if !self.slot_live(rctx.slot, rctx.gen) {
                        return;
                    }
                    let finished_record = {
                        let Slot::Busy(run) = &mut self.slots[rctx.slot] else {
                            return;
                        };
                        let Some((rec, segs_left, buf)) = &mut run.inflight else {
                            return;
                        };
                        debug_assert_eq!(*rec, rctx.record);
                        if let Some(seg_bytes) = data.bytes {
                            let (_, rl) = Self::record_bounds(&run.desc.work, *rec);
                            let buf = buf.get_or_insert_with(|| vec![0u8; rl as usize]);
                            let at = rctx.offset_in_record as usize;
                            buf[at..at + seg_bytes.len()].copy_from_slice(&seg_bytes);
                        }
                        *segs_left -= 1;
                        *segs_left == 0
                    };
                    if finished_record {
                        let (rec, bytes) = {
                            let Slot::Busy(run) = &mut self.slots[rctx.slot] else {
                                return;
                            };
                            let (rec, _, buf) = run.inflight.take().expect("inflight present");
                            (rec, buf)
                        };
                        self.record_arrived(ctx, rctx.slot, rec, bytes);
                    }
                } else if let Some(err) = msg.peek::<ReadError>() {
                    let tag = err.tag;
                    self.retry_read(ctx, tag);
                } else if let Some(ab) = msg.peek::<FlowAborted>() {
                    let tag = ab.tag;
                    if self.reads.contains_key(&tag) {
                        self.retry_read(ctx, tag);
                    } else if let Some(f) = self.fetches.remove(&tag) {
                        // An aborted fetch means the source node crashed,
                        // taking its map output with it: re-fetching is
                        // futile, fail fast so the maps get re-executed.
                        self.fail_task(ctx, f.slot, f.gen);
                    }
                } else if let Some(done) = msg.peek::<FlowDone>() {
                    if let Some(f) = self.fetches.remove(&done.tag) {
                        if !self.slot_live(f.slot, f.gen) {
                            return;
                        }
                        let all_in = {
                            let Slot::Busy(run) = &mut self.slots[f.slot] else {
                                return;
                            };
                            run.fetches_left -= 1;
                            run.fetches_left == 0
                        };
                        if all_in {
                            self.start_merge(ctx, f.slot);
                        }
                    }
                } else if msg.is::<CreateAck>() {
                    if let Some(slot) = self.create_waiters.pop_front() {
                        if let Slot::Busy(run) = &mut self.slots[slot] {
                            run.out_created = true;
                        }
                        self.drain_output_queue(ctx, slot);
                    }
                } else if msg.is::<BlockAllocated>() {
                    let alloc = msg.downcast::<BlockAllocated>().expect("checked");
                    let Some(&(slot, gen, len)) = self.writes.get(&alloc.tag) else {
                        return;
                    };
                    if !self.slot_live(slot, gen) {
                        self.writes.remove(&alloc.tag);
                        return;
                    }
                    let base_offset = {
                        let Slot::Busy(run) = &mut self.slots[slot] else {
                            return;
                        };
                        let off = run.next_out_offset;
                        run.next_out_offset += len;
                        off
                    };
                    // Output content is not synthetic-derived; seed 0. The
                    // verification path uses map-side digests instead.
                    let ok = self.dfs.write_block(
                        ctx,
                        self.node,
                        alloc.block,
                        len,
                        0,
                        base_offset,
                        &alloc.pipeline,
                        alloc.tag,
                    );
                    if !ok {
                        self.writes.remove(&alloc.tag);
                        self.fail_task(ctx, slot, gen);
                    }
                } else if let Some(ack) = msg.peek::<WriteAck>() {
                    if let Some((slot, gen, _len)) = self.writes.remove(&ack.tag) {
                        if !self.slot_live(slot, gen) {
                            return;
                        }
                        if let Slot::Busy(run) = &mut self.slots[slot] {
                            run.outstanding_writes -= 1;
                        }
                        self.maybe_finish(ctx, slot);
                    }
                }
            }
        }
    }
}
