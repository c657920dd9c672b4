//! A job from submission to result: split planning and task construction,
//! phase transitions, shuffle start, finalization.

use accelmr_des::prelude::*;
use accelmr_dfs::msgs::{BlockLoc, FileView, LocationsReply};
use accelmr_net::NodeId;

use crate::config::{JobId, TaskId};
use crate::job::{JobError, JobInput, JobResult, OutputSink, ReduceSpec, TaskWork};
use crate::msgs::JobComplete;
use crate::sched::SplitRequest;

use super::{job_timer_tag, JobTracker, Phase, JOB_FINALIZE_TIME, KIND_FINALIZE, KIND_REDUCE_RPC};

/// One `MapRange` task per non-empty entry of `counts` (records per task,
/// in file order), each with its replica holders as locality hints.
fn map_range_tasks(
    view: &FileView,
    record_bytes: u64,
    counts: &[u64],
) -> Vec<(TaskWork, Vec<NodeId>)> {
    let mut next_record = 0u64;
    let mut tasks = Vec::new();
    for &records in counts.iter().filter(|&&n| n > 0) {
        let start = next_record * record_bytes;
        let end = ((next_record + records) * record_bytes).min(view.len);
        next_record += records;
        let blocks = blocks_overlapping(&view.blocks, start, end).to_vec();
        let mut hints: Vec<NodeId> = Vec::new();
        for b in &blocks {
            for &r in &b.replicas {
                if !hints.contains(&r) {
                    hints.push(r);
                }
            }
        }
        let work = TaskWork::MapRange {
            path: view.path.clone(),
            file_seed: view.seed,
            start,
            end,
            record_bytes,
            blocks,
        };
        tasks.push((work, hints));
    }
    tasks
}

/// The blocks overlapping bytes `[start, end)`. `blocks` is in file order
/// and tiles the file, so they are one run, found by binary search: a
/// plan of T tasks over B blocks costs O(T log B + B), not O(T x B).
fn blocks_overlapping(blocks: &[BlockLoc], start: u64, end: u64) -> &[BlockLoc] {
    let first = blocks.partition_point(|b| b.offset + b.len <= start);
    let n = blocks[first..]
        .iter()
        .take_while(|b| b.offset < end)
        .count();
    &blocks[first..first + n]
}

impl JobTracker {
    /// The job's init delay elapsed: plan it, or first ask the NameNode
    /// where its input lives.
    pub(super) fn init_job(&mut self, ctx: &mut Ctx<'_>, job_id: JobId) {
        let Some(job) = self.jobs.get_mut(&job_id.0) else {
            return;
        };
        match job.spec.input.clone() {
            JobInput::File { path, .. } => {
                job.phase = Phase::WaitingLocations;
                let (dfs, node) = (self.dfs.clone(), self.node);
                dfs.get_locations(ctx, node, &path, job_id.0 as u64);
            }
            JobInput::Synthetic { total_units } => {
                self.build_synthetic_tasks(job_id, total_units);
            }
        }
    }

    pub(super) fn handle_locations(&mut self, ctx: &mut Ctx<'_>, reply: LocationsReply) {
        let job_id = JobId(reply.tag as u32);
        match reply.view {
            Some(view) => self.build_file_tasks(job_id, &view),
            None => {
                if let Some(job) = self.jobs.get_mut(&job_id.0) {
                    let path = match &job.spec.input {
                        JobInput::File { path, .. } => path.clone(),
                        JobInput::Synthetic { .. } => {
                            unreachable!("only file jobs ask for block locations")
                        }
                    };
                    job.error = Some(JobError::InputMissing { path });
                }
                self.finalize(ctx, job_id);
            }
        }
    }

    /// Asks the scheduler how to split `total` work items into map tasks.
    /// (`split = FileSize/NumMappers` under the default uniform plan;
    /// adaptive policies may oversplit or weight by node speed.)
    fn plan_splits(&mut self, job_id: JobId, total: u64) -> Option<Vec<u64>> {
        let job = self.jobs.get(&job_id.0)?;
        let req = SplitRequest {
            kernel: job.spec.kernel.name(),
            requested_tasks: job.spec.num_map_tasks,
            default_tasks: self.total_slots().max(1),
            live_nodes: self.liveness.live(),
            slots_per_node: self.cfg.map_slots_per_node,
        };
        Some(self.scheduler.plan_splits(&req).split(total))
    }

    /// Builds map tasks for a file job once locations are known.
    fn build_file_tasks(&mut self, job_id: JobId, view: &FileView) {
        let record_bytes = self
            .jobs
            .get(&job_id.0)
            .map(|j| j.record_bytes().max(1))
            .unwrap_or(1);
        let total_records = view.len.div_ceil(record_bytes);
        // Balanced division of whole records across tasks (the paper's
        // split = FileSize/NumMappers with 64 MB records, under the
        // default plan).
        let Some(counts) = self.plan_splits(job_id, total_records) else {
            return;
        };
        let Some(job) = self.jobs.get_mut(&job_id.0) else {
            return;
        };
        for (work, hints) in map_range_tasks(view, record_bytes, &counts) {
            job.ledger.push_task(work, hints, false);
        }
        job.phase = Phase::MapRunning;
    }

    pub(super) fn build_synthetic_tasks(&mut self, job_id: JobId, total_units: u64) {
        let Some(counts) = self.plan_splits(job_id, total_units) else {
            return;
        };
        let Some(job) = self.jobs.get_mut(&job_id.0) else {
            return;
        };
        for (index, &units) in counts.iter().enumerate() {
            let work = TaskWork::MapUnits {
                units,
                index: index as u64,
            };
            job.ledger.push_task(work, Vec::new(), false);
        }
        job.phase = Phase::MapRunning;
    }

    pub(super) fn check_phase(&mut self, ctx: &mut Ctx<'_>, job_id: JobId) {
        let Some(job) = self.jobs.get_mut(&job_id.0) else {
            return;
        };
        let (maps, reduces) = (job.ledger.tally().maps(), job.ledger.tally().reduces());
        let maps_done = maps.completed == maps.tasks;
        let reduces_done = reduces.tasks > 0 && reduces.completed == reduces.tasks;
        match job.phase {
            Phase::MapRunning if maps_done => match &job.spec.reduce {
                ReduceSpec::None => self.finalize(ctx, job_id),
                ReduceSpec::RpcAggregate { reducer } => {
                    // Lightweight reducer at the JobTracker.
                    let pairs = job.ledger.tally().totals.kv.len() as u64;
                    let dur = reducer.reduce_time(16 * pairs, pairs);
                    job.phase = Phase::ReduceRpc;
                    ctx.after(dur, job_timer_tag(KIND_REDUCE_RPC, job_id));
                }
                ReduceSpec::Shuffle { .. } => self.start_shuffle(ctx, job_id),
            },
            // `maps_done` too: a node death during the reduce phase may
            // have invalidated a completed map (contributions subtracted,
            // re-execution pending). Finalizing on reduce completion alone
            // would ship a "succeeded" result missing that map's kv and
            // digest; the re-executed map's own report re-triggers this
            // check.
            Phase::ReduceRunning if reduces_done && maps_done => {
                self.finalize(ctx, job_id);
            }
            _ => {}
        }
    }

    fn start_shuffle(&mut self, ctx: &mut Ctx<'_>, job_id: JobId) {
        let Some(job) = self.jobs.get_mut(&job_id.0) else {
            return;
        };
        let ReduceSpec::Shuffle {
            reducers,
            write_output,
            ..
        } = job.spec.reduce
        else {
            return;
        };
        let output_path = match &job.spec.output {
            OutputSink::Dfs { path, .. } => format!("{path}-reduced"),
            _ => format!("/{}-reduced", job.spec.name),
        };
        let maps = job.ledger.tally().maps().tasks;
        for _ in 0..reducers {
            let work = TaskWork::Reduce {
                fetches: Vec::new(),
                pairs: 0,
                write_output,
                output_path: output_path.clone(),
            };
            job.ledger.push_task(work, Vec::new(), true);
        }
        // Partition every map output evenly across reducers.
        job.ledger
            .partition((maps..maps + reducers as u32).map(TaskId));
        job.phase = Phase::ReduceRunning;
        ctx.stats().incr("mr.shuffles_started");
    }

    pub(super) fn finalize(&mut self, ctx: &mut Ctx<'_>, job_id: JobId) {
        if let Some(job) = self.jobs.get_mut(&job_id.0) {
            if job.phase == Phase::Finalizing || job.phase == Phase::Done {
                return;
            }
            job.phase = Phase::Finalizing;
        }
        ctx.after(JOB_FINALIZE_TIME, job_timer_tag(KIND_FINALIZE, job_id));
    }

    pub(super) fn complete(&mut self, ctx: &mut Ctx<'_>, job_id: JobId) {
        let Some(job) = self.jobs.get_mut(&job_id.0) else {
            return;
        };
        job.phase = Phase::Done;
        let now = ctx.now();
        // Flush the slot-seconds integral to the completion instant.
        job.ledger.settle(now);
        let tally = job.ledger.tally();
        let totals = &tally.totals;
        // Final aggregate for RpcAggregate jobs.
        let kv = match &job.spec.reduce {
            ReduceSpec::RpcAggregate { reducer } | ReduceSpec::Shuffle { reducer, .. } => {
                reducer.aggregate(&totals.kv)
            }
            ReduceSpec::None => totals.kv.clone(),
        };
        let result = JobResult {
            job: job_id,
            name: job.spec.name.clone(),
            succeeded: job.error.is_none(),
            error: job.error.clone(),
            elapsed: now - job.submitted,
            tenant: job.spec.tenant.clone(),
            weight: job.spec.weight,
            deadline: job.spec.deadline,
            deadline_met: job.spec.deadline.map(|d| now <= d),
            slot_seconds: tally.slot_seconds,
            share_timeline: tally.share_timeline.clone(),
            preempted_attempts: tally.preempted_attempts,
            wasted_slot_seconds: tally.wasted_slot_seconds,
            map_tasks: tally.maps().tasks,
            reduce_tasks: tally.reduces().tasks,
            attempts: tally.dispatch_log.len() as u32,
            failed_attempts: tally.failed_attempts,
            speculative_attempts: tally.speculative_attempts,
            bytes_read: totals.bytes_read,
            bytes_output: totals.bytes_output,
            local_reads: totals.local_reads,
            remote_reads: totals.remote_reads,
            kv,
            digest: (totals.digest_acc, totals.digest_count),
            task_times: tally.task_times.clone(),
            scheduler: self.scheduler.name(),
            dispatch_log: tally.dispatch_log.clone(),
            node_throughput: self.scheduler.throughput_estimates(job.spec.kernel.name()),
        };
        let client = job.client;
        ctx.stats().incr("mr.jobs_completed");
        let (net, my) = (self.net, self.node);
        net.unicast(ctx, my, client.1, client.0, 2048, JobComplete { result });
    }
}

#[cfg(test)]
mod tests {
    use accelmr_dfs::BlockId;

    use super::*;

    /// 10 blocks of 1000 bytes and a 337-byte tail, two or three replicas
    /// each from a rotation of seven nodes (so hints overlap).
    fn view() -> FileView {
        let blocks: Vec<BlockLoc> = (0..11u64)
            .map(|i| BlockLoc {
                id: BlockId(100 + i),
                offset: i * 1000,
                len: if i == 10 { 337 } else { 1000 },
                replicas: (0..2 + i % 2)
                    .map(|k| NodeId(((i + 3 * k) % 7) as u32))
                    .collect(),
            })
            .collect();
        FileView {
            path: "/in".into(),
            len: 10_337,
            block_size: 1000,
            seed: 9,
            blocks,
        }
    }

    /// Split planning by binary search picks exactly the blocks, in the
    /// same order, and so the same hints, as testing every block against
    /// every task's range.
    #[test]
    fn split_blocks_equal_a_full_filter() {
        let view = view();
        // 400-byte records: five straddle a block boundary, five end
        // exactly on one, and the last ends past the file (its range is
        // clipped to `len`).
        let record_bytes = 400;
        let total = view.len.div_ceil(record_bytes);
        assert_eq!(total, 26);
        let plans: [&[u64]; 5] = [
            &[total],
            &[1; 26],
            &[5, 0, 5, 5, 0, 0, 5, 6],
            &[0, 5, 0, 0, 3, 9, 0, 1, 7, 1, 0],
            &[2, 0, 13, 11, 0],
        ];
        for counts in plans {
            assert_eq!(counts.iter().sum::<u64>(), total);
            let tasks = map_range_tasks(&view, record_bytes, counts);
            assert_eq!(tasks.len(), counts.iter().filter(|&&n| n > 0).count());
            for (work, hints) in &tasks {
                let TaskWork::MapRange {
                    start, end, blocks, ..
                } = work
                else {
                    panic!("a file split is a MapRange");
                };
                let full: Vec<BlockLoc> = view
                    .blocks
                    .iter()
                    .filter(|b| b.offset < *end && b.offset + b.len > *start)
                    .cloned()
                    .collect();
                assert_eq!(blocks, &full, "blocks of [{start}, {end})");
                let mut expect: Vec<NodeId> = Vec::new();
                for r in full.iter().flat_map(|b| &b.replicas) {
                    if !expect.contains(r) {
                        expect.push(*r);
                    }
                }
                assert_eq!(hints, &expect, "hints of [{start}, {end})");
            }
            let last = tasks.last().map(|(w, _)| match w {
                TaskWork::MapRange { end, blocks, .. } => (*end, blocks.last().map(|b| b.len)),
                _ => unreachable!(),
            });
            assert_eq!(
                last,
                Some((view.len, Some(337))),
                "the short tail block is covered"
            );
        }
    }
}
