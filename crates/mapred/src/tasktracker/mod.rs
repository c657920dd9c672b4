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
//! The actor is two halves. `Node` is what every attempt on this machine
//! shares: configuration, the network and DFS handles, the kernel
//! environment, the gray-failure factor, and the **one** table of
//! outstanding I/O. `TaskRun` is one attempt's state machine, written as
//! steps taking `(&mut self, &mut Node, &mut Ctx)` and grouped by phase:
//!
//! * this file — the actor: slots, heartbeats, task start and report, the
//!   routing `match`, and the two resolvers;
//! * `io` — the table's entry type, the typed timer tag, backoff and
//!   gray-failure stretch;
//! * `map` — segment reads, replica failover, read-ahead, kernel calls;
//! * `reduce` — fetch burst, fetch re-issue, merge;
//! * `output` — DFS part-file create, block allocation, write drain;
//! * `digest` — the record digest, computed on one worker thread and
//!   joined when the attempt reports.
//!
//! Correctness around asynchrony relies on per-slot *generations*: every
//! attempt occupying a slot gets a fresh generation, and every timer and
//! outstanding I/O names its attempt by `(slot, generation)`. Nothing is
//! ever cancelled; an event that outlives its attempt (killed, failed or
//! finished) is dropped on arrival, and that is decided in exactly two
//! places. `with_run` resolves a `(slot, generation)` step timer: stale
//! means the slot is empty or holds another generation. `with_io` resolves
//! a tagged reply or watchdog: stale means the tag is no longer in the
//! table (the I/O completed, or a retry superseded it), or its attempt is
//! stale by the first rule — in which case the entry is dropped on this
//! first touch. A step that cannot go on marks its attempt failed; the
//! resolver reports it when the step returns.

mod digest;
mod io;
mod map;
mod output;
mod reduce;
#[cfg(test)]
mod tests;

use accelmr_des::prelude::*;
use accelmr_dfs::msgs::{BlockAllocated, CreateAck, RangeData, ReadError, WriteAck};
use accelmr_dfs::DfsHandle;
use accelmr_net::{FlowAborted, FlowDone, NetHandle, NodeId};

use crate::config::{JobId, MrConfig, TaskId};
use crate::job::{TaskDescriptor, TaskMetrics, TaskWork};
use crate::kernel::NodeEnv;
use crate::msgs::{
    AssignTask, CrashTaskTracker, InjectGray, KillTask, SetHeartbeatLoss, TaskReport, TtHeartbeat,
};

use io::{Io, IoKind, IoTable, Step, Tick};

/// Task launch overhead (task JVM start on the TaskTracker).
pub(crate) const TASK_START_OVERHEAD: SimDuration = SimDuration::from_millis(1_800);
/// Task teardown overhead.
pub(crate) const TASK_CLEANUP_OVERHEAD: SimDuration = SimDuration::from_millis(400);

/// What the attempts running on one machine share.
struct Node {
    cfg: MrConfig,
    net: NetHandle,
    dfs: DfsHandle,
    id: NodeId,
    env: Box<dyn NodeEnv>,
    kernels_setup: Vec<&'static str>,
    /// Gray-failure throughput multiplier; `1.0` = healthy.
    gray_factor: f64,
    /// Every outstanding read segment, shuffle fetch, part-file create and
    /// output block, by the tag its reply carries.
    io: IoTable,
    next_tag: u64,
}

impl Node {
    /// Enters one I/O of `run` into the table under a fresh tag.
    fn track(&mut self, run: &TaskRun, kind: IoKind) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.retrack(tag, run, kind);
        tag
    }

    /// Puts back the entry of an I/O that `with_io` took out and that is
    /// not over yet.
    fn retrack(&mut self, tag: u64, run: &TaskRun, kind: IoKind) {
        let (slot, gen) = (run.slot, run.gen);
        self.io.insert(tag, Io { slot, gen, kind });
    }
}

/// Where an attempt is in its life. `with_run` acts on the last two.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    Running,
    /// All work done and acknowledged; the cleanup timer is armed.
    Finished,
    /// Cleaned up: leave the slot and report success.
    Done,
    /// A step could not go on: leave the slot and report failure.
    Failed,
}

/// One attempt occupying a slot.
struct TaskRun {
    desc: TaskDescriptor,
    slot: u32,
    gen: u32,
    started: SimTime,
    stage: Stage,
    feed: map::Feed,
    shuffle: reduce::Shuffle,
    out: output::Output,
    metrics: TaskMetrics,
    kv: Vec<(u64, u64)>,
    digest: digest::Digests,
}

impl TaskRun {
    fn tick(&self, step: Step) -> u64 {
        Tick::Step(step, self.slot, self.gen).pack()
    }

    fn fail(&mut self) {
        self.stage = Stage::Failed;
    }

    /// Launch overhead is over: start the work, after the one-time
    /// per-node kernel setup (e.g. SPU context creation via the JNI
    /// bridge) if this is the node's first task of its kernel — charged as
    /// an extension of that task's start.
    fn begin_work(&mut self, node: &mut Node, ctx: &mut Ctx<'_>) {
        let name = self.desc.kernel.name();
        if !node.kernels_setup.contains(&name) {
            node.kernels_setup.push(name);
            let setup = self.desc.kernel.node_setup(node.env.as_mut());
            if setup > SimDuration::ZERO {
                ctx.after(setup, self.tick(Step::Start));
                return;
            }
        }
        match self.desc.work {
            TaskWork::MapRange { .. } => self.start_reading(node, ctx),
            TaskWork::MapUnits { units, index } => self.run_units(node, ctx, units, index),
            TaskWork::Reduce { .. } => self.start_fetches(node, ctx),
        }
    }

    /// Arms the cleanup timer once nothing is left to do or to wait for.
    fn maybe_finish(&mut self, ctx: &mut Ctx<'_>) {
        if self.stage != Stage::Running {
            return;
        }
        let written = self.out.outstanding == 0 && self.out.queue.is_empty();
        let done = match &self.desc.work {
            TaskWork::MapRange { .. } => {
                self.feed.records_done == self.feed.n_records && !self.feed.computing && written
            }
            TaskWork::MapUnits { .. } => !self.feed.computing && self.feed.records_done > 0,
            TaskWork::Reduce { .. } => {
                self.shuffle.fetches_left == 0 && self.shuffle.merge_done && written
            }
        };
        if done {
            self.stage = Stage::Finished;
            ctx.after(TASK_CLEANUP_OVERHEAD, self.tick(Step::Cleanup));
        }
    }
}

/// Per-node execution daemon.
pub struct TaskTracker {
    node: Node,
    jobtracker: ActorId,
    slots: Vec<Option<Box<TaskRun>>>,
    gen_counter: u32,
    pending_reports: Vec<TaskReport>,
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
        jobtracker: ActorId,
        env: Box<dyn NodeEnv>,
    ) -> Self {
        let slots = (0..cfg.map_slots_per_node).map(|_| None).collect();
        TaskTracker {
            node: Node {
                cfg,
                net,
                dfs,
                id: node,
                env,
                kernels_setup: Vec::new(),
                gray_factor: 1.0,
                io: IoTable::default(),
                next_tag: 1,
            },
            jobtracker,
            slots,
            gen_counter: 0,
            pending_reports: Vec::new(),
            hb_suppressed: false,
        }
    }

    /// Resolves a step timer (or anything else naming `(slot, gen)`) to
    /// its attempt and runs `step` on it; a no-op if the attempt is gone.
    /// Reports the attempt if the step ended it.
    fn with_run(
        &mut self,
        ctx: &mut Ctx<'_>,
        slot: u32,
        gen: u32,
        step: impl FnOnce(&mut TaskRun, &mut Node, &mut Ctx<'_>),
    ) {
        let Some(Some(run)) = self.slots.get_mut(slot as usize) else {
            return;
        };
        if run.gen != gen {
            return;
        }
        step(run, &mut self.node, ctx);
        match run.stage {
            Stage::Done => self.finish_task(ctx, slot as usize, true),
            Stage::Failed => self.finish_task(ctx, slot as usize, false),
            Stage::Running | Stage::Finished => {}
        }
    }

    /// Resolves a tagged reply or watchdog to its table entry and attempt.
    /// The entry leaves the table here: a step that is not done with it
    /// puts it back, and one whose attempt is gone is thereby dropped.
    fn with_io(
        &mut self,
        ctx: &mut Ctx<'_>,
        tag: u64,
        step: impl FnOnce(&mut TaskRun, &mut Node, &mut Ctx<'_>, IoKind),
    ) {
        let Some(io) = self.node.io.remove(tag) else {
            return;
        };
        self.with_run(ctx, io.slot, io.gen, |run, node, ctx| {
            step(run, node, ctx, io.kind)
        });
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
            node: self.node.id,
            free_slots: self.slots.iter().filter(|s| s.is_none()).count(),
            completed: std::mem::take(&mut self.pending_reports),
        };
        let bytes = 256 + 512 * hb.completed.len() as u64;
        self.node.net.unicast(ctx, self.jobtracker, bytes, hb);
    }

    fn start_task(&mut self, ctx: &mut Ctx<'_>, desc: TaskDescriptor) {
        let Some(slot) = self.slots.iter().position(|s| s.is_none()) else {
            self.pending_reports.push(TaskReport {
                job: desc.job,
                task: desc.task,
                attempt: desc.attempt,
                ok: false,
                metrics: TaskMetrics::default(),
                kv: Vec::new(),
                digest: (0, 0),
                node: self.node.id,
            });
            return;
        };
        self.gen_counter = self.gen_counter.wrapping_add(1);
        let run = TaskRun {
            feed: map::Feed::new(&desc.work),
            desc,
            slot: slot as u32,
            gen: self.gen_counter,
            started: ctx.now(),
            stage: Stage::Running,
            shuffle: reduce::Shuffle::default(),
            out: output::Output::default(),
            metrics: TaskMetrics::default(),
            kv: Vec::new(),
            digest: digest::Digests::default(),
        };
        ctx.stats().incr("mr.tasks_started");
        ctx.after(TASK_START_OVERHEAD, run.tick(Step::Start));
        self.slots[slot] = Some(Box::new(run));
    }

    /// Empties `slot` and queues its attempt's report for the next
    /// heartbeat, once the digest worker has answered for every record the
    /// attempt materialized.
    fn finish_task(&mut self, ctx: &mut Ctx<'_>, slot: usize, ok: bool) {
        let Some(run) = self.slots[slot].take() else {
            return;
        };
        // A successful attempt has landed every fetch, segment, create and
        // block it asked for, so an entry still naming it is a leaked tag.
        debug_assert!(
            !ok || self.io_entries(&run).next().is_none(),
            "attempt finished ok with I/O outstanding"
        );
        let mut metrics = run.metrics;
        metrics.elapsed = ctx.now() - run.started;
        self.pending_reports.push(TaskReport {
            job: run.desc.job,
            task: run.desc.task,
            attempt: run.desc.attempt,
            ok,
            metrics,
            kv: run.kv,
            digest: run.digest.finish(),
            node: self.node.id,
        });
        ctx.stats()
            .incr(if ok { "mr.tasks_ok" } else { "mr.tasks_failed" });
    }

    /// The table entries that belong to `run` (debug checks and tests).
    fn io_entries<'a>(&'a self, run: &'a TaskRun) -> impl Iterator<Item = &'a Io> {
        let owner = (run.slot, run.gen);
        self.node
            .io
            .values()
            .filter(move |io| (io.slot, io.gen) == owner)
    }

    fn kill_attempt(&mut self, job: JobId, task: TaskId, attempt: u32) {
        let victim = self.slots.iter_mut().find(|s| {
            s.as_ref().is_some_and(|run| {
                run.desc.job == job && run.desc.task == task && run.desc.attempt == attempt
            })
        });
        if let Some(slot) = victim {
            // Drops the attempt's pending digests unread.
            *slot = None;
        }
    }
}

impl Actor for TaskTracker {
    fn name(&self) -> String {
        format!("mr.tasktracker@{}", self.node.id)
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Start => {
                let interval = self.node.cfg.heartbeat_interval.as_nanos();
                let jitter = SimDuration::from_nanos(ctx.rng().next_below(interval.max(1)));
                ctx.after(jitter, Tick::Heartbeat.pack());
            }
            Event::Timer { tag, .. } => match Tick::unpack(tag) {
                Tick::Heartbeat => {
                    self.send_heartbeat(ctx);
                    // In-place rearm: one timer slot per tracker, forever.
                    ctx.rearm_after(self.node.cfg.heartbeat_interval, Tick::Heartbeat.pack());
                }
                Tick::Step(step, slot, gen) => {
                    self.with_run(ctx, slot, gen, |run, node, ctx| match step {
                        Step::Start => run.begin_work(node, ctx),
                        Step::Compute => run.compute_done(node, ctx),
                        Step::Merge => run.merge_done(ctx),
                        Step::Cleanup => run.stage = Stage::Done,
                    })
                }
                Tick::Watchdog(io_tag) => {
                    self.with_io(ctx, io_tag, |run, node, ctx, kind| match kind {
                        IoKind::Read(read) => {
                            ctx.stats().incr("dfs.read_retries");
                            run.retry_read(node, ctx, read)
                        }
                        IoKind::Fetch(fetch) => run.fetch_timed_out(node, ctx, fetch),
                        IoKind::Create | IoKind::Write { .. } => unreachable!("no watchdog"),
                    });
                }
            },
            Event::Msg { msg } => match Inbox::decode(msg) {
                Inbox::AssignTask(assign) => self.start_task(ctx, assign.descriptor),
                Inbox::KillTask(kill) => self.kill_attempt(kill.job, kill.task, kill.attempt),
                Inbox::CrashTaskTracker(_crash) => {
                    ctx.stats().incr("mr.tasktrackers_crashed");
                    let me = ctx.self_id();
                    ctx.kill(me);
                }
                Inbox::InjectGray(gray) => {
                    let f = gray.factor;
                    // Clamp to (0, 1]: zero/negative would freeze compute
                    // forever, which is a stall, not a gray failure.
                    self.node.gray_factor = if f > 0.0 { f.min(1.0) } else { 1.0e-9 };
                    ctx.stats().incr(if self.node.gray_factor < 1.0 {
                        "mr.gray_injected"
                    } else {
                        "mr.gray_healed"
                    });
                }
                Inbox::SetHeartbeatLoss(loss) => self.hb_suppressed = loss.suppress,
                Inbox::RangeData(data) => {
                    self.with_io(ctx, data.tag, |run, node, ctx, kind| {
                        if let IoKind::Read(read) = kind {
                            run.segment_arrived(node, ctx, read, data.bytes)
                        }
                    });
                }
                Inbox::ReadError(err) => {
                    self.with_io(ctx, err.tag, |run, node, ctx, kind| {
                        if let IoKind::Read(read) = kind {
                            run.retry_read(node, ctx, read)
                        }
                    });
                }
                Inbox::FlowAborted(ab) => {
                    self.with_io(ctx, ab.tag, |run, node, ctx, kind| match kind {
                        IoKind::Read(read) => run.retry_read(node, ctx, read),
                        // An aborted fetch means the source node crashed,
                        // taking its map output with it: re-fetching is
                        // futile, fail fast so the maps get re-executed.
                        IoKind::Fetch(_) => run.fail(),
                        // A create is an RPC; write flows notify the DataNode.
                        IoKind::Create | IoKind::Write { .. } => unreachable!("not a flow"),
                    });
                }
                Inbox::FlowDone(done) => {
                    self.with_io(ctx, done.tag, |run, node, ctx, _| run.fetch_done(node, ctx));
                }
                Inbox::CreateAck(ack) => {
                    self.with_io(ctx, ack.tag, |run, node, ctx, _| {
                        run.create_acked(node, ctx)
                    });
                }
                Inbox::BlockAllocated(alloc) => {
                    self.with_io(ctx, alloc.tag, |run, node, ctx, kind| {
                        if let IoKind::Write { len } = kind {
                            run.block_allocated(node, ctx, len, &alloc)
                        }
                    });
                }
                Inbox::WriteAck(ack) => {
                    self.with_io(ctx, ack.tag, |run, _, ctx, _| run.write_acked(ctx));
                }
            },
        }
    }
}

accelmr_des::inbox! {
    enum Inbox {
        AssignTask, KillTask, CrashTaskTracker, InjectGray, SetHeartbeatLoss, RangeData, ReadError,
        FlowAborted, FlowDone, CreateAck, BlockAllocated, WriteAck,
    }
}
