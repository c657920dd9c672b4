//! The map side of an attempt: the RecordReader feed (segment reads with
//! replica failover, read-ahead) and the kernel calls it overlaps with —
//! the pipeline whose feed ceiling hides the accelerator in the paper's
//! Figures 4 and 5.

use accelmr_des::prelude::*;
use accelmr_dfs::msgs::BlockLoc;
use accelmr_dfs::BlockId;
use accelmr_kernels::pool;
use accelmr_net::NodeId;

use super::io::{backoff, degrade, IoKind, Read, Step, Tick};
use super::{Node, Stage, TaskRun};
use crate::job::TaskWork;
use crate::kernel::RecordCtx;

/// Feed and compute state of a map attempt.
#[derive(Default)]
pub(super) struct Feed {
    pub n_records: u64,
    next_record: u64,
    /// `(record, segments outstanding, assembly buffer)`.
    pub inflight: Option<(u64, usize, Option<Vec<u8>>)>,
    /// The record read ahead of the kernel: `(record, bytes)`.
    ready: Option<(u64, Option<Vec<u8>>)>,
    /// A record that landed while `ready` still waited. With pipelined
    /// reads the next read goes out as soon as a record lands, so a kernel
    /// slower than the feed finds two; no read is issued while this is
    /// full.
    parked: Option<(u64, Option<Vec<u8>>)>,
    pub computing: bool,
    pub records_done: u64,
}

impl Feed {
    pub fn new(work: &TaskWork) -> Self {
        let n_records = match work {
            TaskWork::MapRange {
                start,
                end,
                record_bytes,
                ..
            } => (end - start).div_ceil(*record_bytes),
            _ => 0,
        };
        Feed {
            n_records,
            ..Feed::default()
        }
    }
}

/// The part of one record that lies in one DFS block.
struct Segment<'a> {
    block: BlockId,
    offset_in_block: u64,
    len: u64,
    offset_in_record: u64,
    replicas: &'a [NodeId],
}

/// `(absolute start, length)` of record `rec` of a split.
fn record_bounds(work: &TaskWork, rec: u64) -> (u64, u64) {
    match work {
        TaskWork::MapRange {
            start,
            end,
            record_bytes,
            ..
        } => {
            let rs = start + rec * record_bytes;
            (rs, (*end - rs).min(*record_bytes))
        }
        _ => (0, 0),
    }
}

/// The segments of record `rec`, in file order (a record may span blocks).
fn segments(work: &TaskWork, rec: u64) -> impl Iterator<Item = Segment<'_>> {
    let (rec_start, rec_len) = record_bounds(work, rec);
    let blocks: &[BlockLoc] = match work {
        TaskWork::MapRange { blocks, .. } => blocks,
        _ => &[],
    };
    blocks.iter().filter_map(move |b| {
        let lo = rec_start.max(b.offset);
        let hi = (rec_start + rec_len).min(b.offset + b.len);
        (lo < hi).then(|| Segment {
            block: b.id,
            offset_in_block: lo - b.offset,
            len: hi - lo,
            offset_in_record: lo - rec_start,
            replicas: &b.replicas,
        })
    })
}

/// The `k`-th replica a reader on `me` tries: its own node's copy first,
/// then the others in the NameNode's order.
fn nth_replica(replicas: &[NodeId], me: NodeId, k: usize) -> Option<NodeId> {
    let local = replicas.contains(&me);
    if local && k == 0 {
        return Some(me);
    }
    let mut others = replicas.iter().copied().filter(|&r| r != me);
    others.nth(k - local as usize)
}

impl TaskRun {
    /// Starts the feed of a `MapRange` attempt.
    pub(super) fn start_reading(&mut self, node: &mut Node, ctx: &mut Ctx<'_>) {
        self.issue_record_read(node, ctx);
        // Zero-record splits complete immediately.
        if self.feed.n_records == 0 {
            self.maybe_finish(ctx);
        }
    }

    /// Runs a `MapUnits` attempt's whole batch as one kernel call.
    pub(super) fn run_units(&mut self, node: &mut Node, ctx: &mut Ctx<'_>, units: u64, index: u64) {
        let outcome = self.desc.kernel.map_units(node.env.as_mut(), units, index);
        self.kv.extend(outcome.kv);
        let compute = degrade(outcome.compute, node.gray_factor);
        self.feed.computing = true;
        ctx.after(compute, self.tick(Step::Compute));
    }

    /// Issues all segment reads of the next record, if there is one, none
    /// is in flight and fewer than two wait for the kernel.
    fn issue_record_read(&mut self, node: &mut Node, ctx: &mut Ctx<'_>) {
        if self.feed.next_record >= self.feed.n_records
            || self.feed.inflight.is_some()
            || self.feed.parked.is_some()
        {
            return;
        }
        let rec = self.feed.next_record;
        self.feed.next_record += 1;
        let n_segs = segments(&self.desc.work, rec).count();
        debug_assert_eq!(
            segments(&self.desc.work, rec).map(|s| s.len).sum::<u64>(),
            record_bounds(&self.desc.work, rec).1,
            "split blocks must cover every record byte"
        );
        self.feed.inflight = Some((rec, n_segs, None));
        // A record spanning several blocks fans out all its segment reads
        // in one instant; the resulting DataNode flows start together and
        // are coalesced into one fabric re-solve. A segment that runs out
        // of replicas fails the attempt but does not stop the fan-out: the
        // remaining reads are still sent (and their replies dropped), which
        // is part of the pinned event stream.
        for seg in 0..n_segs as u32 {
            let first_try = Read {
                record: rec,
                seg,
                replica_tried: 0,
            };
            self.issue_segment(node, ctx, first_try);
        }
    }

    /// Asks the `replica_tried`-th replica for one segment, falling
    /// through replicas whose DataNode has left; out of replicas, the
    /// attempt fails.
    fn issue_segment(&mut self, node: &mut Node, ctx: &mut Ctx<'_>, mut read: Read) {
        loop {
            let target = segments(&self.desc.work, read.record)
                .nth(read.seg as usize)
                .and_then(|s| {
                    let dn = nth_replica(s.replicas, node.id, read.replica_tried as usize)?;
                    Some((dn, s.block, s.offset_in_block, s.len))
                });
            let Some((dn_node, block, offset_in_block, len)) = target else {
                self.fail();
                return;
            };
            let tag = node.track(self, IoKind::Read(read));
            let cap = Some(node.cfg.record_feed_cap);
            let ok =
                node.dfs
                    .read_range(ctx, node.id, dn_node, block, offset_in_block, len, cap, tag);
            if !ok {
                // The replica's DataNode has left the cluster (dynamic
                // membership removes it from the registry): fall through to
                // the next replica instead of failing the attempt outright.
                node.io.remove(tag);
                ctx.stats().incr("mr.read_reroutes");
                read.replica_tried += 1;
                continue;
            }
            // Reads sent after the attempt failed are not its metrics.
            if self.stage != Stage::Failed {
                if dn_node == node.id {
                    self.metrics.local_reads += 1;
                } else {
                    self.metrics.remote_reads += 1;
                }
            }
            if let Some(t) = node.cfg.read_timeout {
                // Each replica attempt waits longer than the last, so a
                // congested-but-alive source is not hammered in a tight loop.
                let t = backoff(t, read.replica_tried);
                ctx.after(t, Tick::Watchdog(tag).pack());
            }
            return;
        }
    }

    /// A segment read failed, was aborted, or outlived its watchdog (the
    /// source is stalled: the late `RangeData`, if it ever lands, misses
    /// the table): fail over to the next replica.
    pub(super) fn retry_read(&mut self, node: &mut Node, ctx: &mut Ctx<'_>, mut read: Read) {
        ctx.stats().incr("mr.read_retries");
        read.replica_tried += 1;
        self.issue_segment(node, ctx, read);
    }

    /// One segment's data landed; the last one completes the record.
    pub(super) fn segment_arrived(
        &mut self,
        node: &mut Node,
        ctx: &mut Ctx<'_>,
        read: Read,
        bytes: Option<Vec<u8>>,
    ) {
        let Some((rec, segs_left, buf)) = &mut self.feed.inflight else {
            return;
        };
        debug_assert_eq!(*rec, read.record);
        if let Some(seg_bytes) = bytes {
            let (_, rl) = record_bounds(&self.desc.work, read.record);
            if seg_bytes.len() as u64 == rl {
                // The record lies in one block: the segment is its image.
                *buf = Some(seg_bytes);
            } else {
                let at = segments(&self.desc.work, read.record)
                    .nth(read.seg as usize)
                    .map_or(0, |s| s.offset_in_record as usize);
                // The record's segments cover every byte of the pooled
                // image.
                let buf = buf.get_or_insert_with(|| pool::take(rl as usize));
                buf[at..at + seg_bytes.len()].copy_from_slice(&seg_bytes);
                pool::give(seg_bytes);
            }
        }
        *segs_left -= 1;
        if *segs_left > 0 {
            return;
        }
        let (rec, _, bytes) = self.feed.inflight.take().expect("inflight present");
        let landed = Some((rec, bytes));
        if self.feed.ready.is_none() {
            self.feed.ready = landed;
        } else {
            self.feed.parked = landed;
        }
        if !self.feed.computing {
            self.start_compute(node, ctx);
        }
        if node.cfg.pipelined_reads {
            self.issue_record_read(node, ctx);
        }
    }

    /// Hands the ready record to the kernel and arms the compute timer.
    fn start_compute(&mut self, node: &mut Node, ctx: &mut Ctx<'_>) {
        let Some((record, bytes)) = self.feed.ready.take() else {
            return;
        };
        self.feed.ready = self.feed.parked.take();
        let (rs, rl) = record_bounds(&self.desc.work, record);
        let file_seed = match &self.desc.work {
            TaskWork::MapRange { file_seed, .. } => *file_seed,
            _ => 0,
        };
        let rec_ctx = RecordCtx {
            abs_offset: rs,
            len: rl,
            bytes: bytes.as_deref(),
            file_seed,
        };
        let outcome = self.desc.kernel.map_record(node.env.as_mut(), &rec_ctx);
        self.feed.computing = true;
        let compute = degrade(outcome.compute, node.gray_factor);
        self.metrics.bytes_read += rl;
        // Every materialized record is digested: its output image if the
        // kernel made one, else its input. An input the digest does not
        // take goes back to the pool.
        let image = match outcome.output {
            Some(output) => {
                if let Some(input) = bytes {
                    pool::give(input);
                }
                Some(output)
            }
            None => bytes,
        };
        if let Some(image) = image {
            self.digest.add(image);
        }
        self.kv.extend(outcome.kv);
        // A map accounts its kernel's output whatever the sink; only a DFS
        // sink also writes it.
        if outcome.output_bytes > 0 {
            self.metrics.bytes_output += outcome.output_bytes;
            if self.writes_dfs() {
                self.out.queue.push_back(outcome.output_bytes);
            }
        }
        self.flush_output(node, ctx);
        ctx.after(compute, self.tick(Step::Compute));
    }

    /// The compute timer fired: next record (or batch done).
    pub(super) fn compute_done(&mut self, node: &mut Node, ctx: &mut Ctx<'_>) {
        self.feed.computing = false;
        self.feed.records_done += 1;
        self.start_compute(node, ctx);
        // Unpipelined, the next read starts here; pipelined, only one held
        // back by a full read-ahead does.
        self.issue_record_read(node, ctx);
        self.maybe_finish(ctx);
    }
}
