//! The JobTracker: job lifecycle, split computation, scheduling, recovery.
//!
//! Faithful to Hadoop 0.19 as the paper ran it: the JobTracker learns about
//! TaskTrackers from their heartbeats, computes splits
//! (`split = FileSize / NumMappers`, records of one DFS block — Figure 3),
//! dispatches tasks *on heartbeats*, detects dead TaskTrackers by
//! heartbeat silence and re-executes their tasks, and optionally launches
//! speculative duplicates of stragglers.
//!
//! Scheduling *decisions* live behind the [`Scheduler`] trait
//! ([`crate::sched`]), and the tracker has exactly one scheduler, built
//! from [`MrConfig::scheduler`]: it feeds it observations (heartbeats, task
//! completions with durations and work sizes, node joins and deaths) and
//! asks it for split plans, dispatch picks, speculative placements and
//! preemption victims. Dispatch is *two-level*: every free
//! heartbeat slot first asks which job deserves it
//! ([`Scheduler::pick_job`] — multi-tenant fair-share and deadline
//! policies decide here), then which of that job's tasks to run
//! ([`Scheduler::pick_task`]).
//!
//! The actor is split by responsibility:
//!
//! * this file — the actor itself: per-job state, message and timer
//!   handling, task-report folding;
//! * `lifecycle` — split planning and task construction, phase
//!   transitions, shuffle start, finalization and the job result;
//! * `dispatch` — the heartbeat dispatch loop: job, task and straggler
//!   picks over the one `JobState` → [`SchedView`] constructor,
//!   assignment, preemption kills;
//! * `ledger` — the task table, pending queue and every count derived
//!   from them behind one owner, plus the fold/unfold pair for map-output
//!   contributions;
//! * `liveness` — TaskTracker registration, joins and re-planning,
//!   heartbeat-silence detection, the progressive blacklist and the job
//!   stall watchdog.

mod dispatch;
pub(crate) mod ledger;
mod lifecycle;
mod liveness;

use accelmr_des::prelude::*;
use accelmr_des::{FxHashMap, FxHashSet};
use accelmr_dfs::msgs::LocationsReply;
use accelmr_dfs::{DfsHandle, BLOCK_SIZE};
use accelmr_net::{Liveness, NetHandle, NodeId};

use crate::config::{JobId, MrConfig, TaskId};
use crate::job::{JobError, JobInput, JobSpec, ReduceSpec, TaskWork};
use crate::msgs::{SubmitJob, TaskReport, TtHeartbeat};
use crate::sched::{build_scheduler, SchedView, Scheduler, TaskCompletion};

use ledger::{MapOutput, SlotLedger, Totals};
use liveness::TtInfo;

/// Job initialization (staging, split computation, queue population).
pub(crate) const JOB_INIT_TIME: SimDuration = SimDuration::from_secs(8);
/// Job finalization (output commit, client notification path).
pub(crate) const JOB_FINALIZE_TIME: SimDuration = SimDuration::from_secs(2);

const TIMER_LIVENESS: u64 = 0;
const KIND_INIT: u64 = 1;
const KIND_REDUCE_RPC: u64 = 2;
const KIND_FINALIZE: u64 = 3;

#[inline]
fn job_timer_tag(kind: u64, job: JobId) -> u64 {
    (kind << 32) | job.0 as u64
}

#[inline]
fn unpack_job_timer(tag: u64) -> (u64, JobId) {
    (tag >> 32, JobId(tag as u32))
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Initializing,
    WaitingLocations,
    MapRunning,
    ReduceRpc,
    ReduceRunning,
    Finalizing,
    Done,
}

struct JobState {
    id: JobId,
    spec: JobSpec,
    client: (ActorId, NodeId),
    submitted: SimTime,
    phase: Phase,
    /// Task table, pending queue, running-attempt counts and the
    /// slot-seconds integral.
    ledger: SlotLedger,
    map_count: u32,
    reduce_count: u32,
    maps_completed: u32,
    reduces_completed: u32,
    // Aggregation.
    failed_attempts: u32,
    speculative_attempts: u32,
    totals: Totals,
    task_times: Vec<SimDuration>,
    /// Every dispatch, in order: `(task, node)` — one entry per attempt.
    dispatch_log: Vec<(TaskId, NodeId)>,
    /// Completed map outputs (and their folded contributions) for the
    /// shuffle.
    map_outputs: FxHashMap<TaskId, MapOutput>,
    /// Typed cause of failure, for [`JobResult::error`](crate::JobResult::error);
    /// the job succeeded exactly when this stays `None`.
    error: Option<JobError>,
    /// Last instant the job dispatched or completed an attempt (or was
    /// submitted): the watchdog input. Maintained unconditionally; only
    /// *checked* when [`MrConfig::job_stall_timeout`] is set.
    last_progress: SimTime,
    /// Attempts of *this* job killed by preemptive reclamation.
    preempted_attempts: u32,
    /// Victim runtime discarded on this job's behalf (it was the
    /// beneficiary of the kills), already charged to its slot-seconds —
    /// preemption bills the killing tenant for the work it wasted.
    wasted_slot_seconds: f64,
}

impl JobState {
    fn new(id: JobId, spec: JobSpec, client: (ActorId, NodeId), now: SimTime) -> Self {
        JobState {
            id,
            spec,
            client,
            submitted: now,
            phase: Phase::Initializing,
            ledger: SlotLedger::new(id, now),
            map_count: 0,
            reduce_count: 0,
            maps_completed: 0,
            reduces_completed: 0,
            failed_attempts: 0,
            speculative_attempts: 0,
            totals: Totals::default(),
            task_times: Vec::new(),
            dispatch_log: Vec::new(),
            map_outputs: FxHashMap::default(),
            error: None,
            last_progress: now,
            preempted_attempts: 0,
            wasted_slot_seconds: 0.0,
        }
    }

    fn record_bytes(&self) -> u64 {
        match &self.spec.input {
            JobInput::File { record_bytes, .. } => record_bytes.unwrap_or(BLOCK_SIZE),
            JobInput::Synthetic { .. } => 0,
        }
    }

    /// Whether every map output a shuffle needs is currently available.
    /// Reduce dispatch is held while this is false (a map output was lost
    /// to a node death and its task is re-executing); rebuilt fetches are
    /// only correct against a complete output set. Trivially true for
    /// non-shuffle jobs.
    fn shuffle_ready(&self) -> bool {
        match &self.spec.reduce {
            ReduceSpec::Shuffle { .. } => {
                self.map_count > 0 && self.map_outputs.len() as u32 == self.map_count
            }
            _ => true,
        }
    }

    /// Whether pending reduce entries are currently withheld from dispatch
    /// (the churn-transient "shuffle with lost outputs" state: a reduce
    /// task exists but the output set it would fetch from is incomplete).
    fn withholds_reduces(&self) -> bool {
        !self.shuffle_ready() && self.ledger.tasks().len() != self.map_count as usize
    }

    /// The pending entries the job currently offers to dispatch, as an
    /// owned snapshot — or `None` when that is the whole queue, which is
    /// always except while reduces are withheld. Every decision that shows
    /// schedulers this job's queue goes through here, so task-level and
    /// job-level views cannot disagree about what is runnable.
    fn pending_filter(&self) -> Option<Vec<TaskId>> {
        self.withholds_reduces().then(|| {
            self.ledger
                .pending()
                .iter()
                .copied()
                .filter(|&task| !self.ledger.task(task).is_reduce)
                .collect()
        })
    }

    /// The job as schedulers see it, offering `pending`.
    fn view<'a>(
        &'a self,
        pending: &'a [TaskId],
        eligible: bool,
        cluster_slots: usize,
        slots_per_node: usize,
    ) -> SchedView<'a> {
        SchedView {
            job: self.id,
            kernel: self.spec.kernel.name(),
            tenant: &self.spec.tenant,
            weight: self.spec.weight,
            deadline: self.spec.deadline,
            eligible,
            cluster_slots,
            pending,
            tasks: &self.ledger,
            running_slots: self.ledger.running_now() as usize,
            running_incomplete: self.ledger.running_tasks() as usize,
            completed_task_times: &self.task_times,
            slots_per_node,
        }
    }
}

/// The cluster-wide scheduler, running on the head node next to the
/// NameNode (the paper's Power6 JS22 blade).
pub struct JobTracker {
    cfg: MrConfig,
    net: NetHandle,
    dfs: DfsHandle,
    node: NodeId,
    tts: FxHashMap<NodeId, TtInfo>,
    jobs: FxHashMap<u32, JobState>,
    next_job: u32,
    /// The one scheduler ([`MrConfig::scheduler`]): every decision and
    /// every observation goes to it. Long-lived, so adaptive policies
    /// learn across jobs within a session.
    scheduler: Box<dyn Scheduler>,
    /// Epoch-fenced attempts `(job, task, attempt)`: attempts that were
    /// requeued when their node was declared dead. A fenced attempt's
    /// eventual report — from a falsely-declared-dead tracker that kept
    /// running, or one that heartbeats again after a partition heal — is
    /// rejected wholesale, keeping kv/digest accounting exactly-once (the
    /// re-execution's report is the one that counts).
    fenced: FxHashSet<(u32, u32, u32)>,
    /// Next instant the probation sweep halves every blacklist score.
    blacklist_decay_at: SimTime,
    /// TaskTracker heartbeat silence past `MrConfig::tt_dead_after`, and
    /// the live workers, ascending.
    liveness: Liveness,
}

impl JobTracker {
    /// Builds a JobTracker on `node` (normally the head node).
    pub fn new(cfg: MrConfig, net: NetHandle, dfs: DfsHandle, node: NodeId) -> Self {
        let scheduler = build_scheduler(cfg.scheduler, &cfg);
        let liveness = Liveness::new(cfg.tt_dead_after);
        JobTracker {
            cfg,
            net,
            dfs,
            node,
            tts: FxHashMap::default(),
            jobs: FxHashMap::default(),
            next_job: 0,
            scheduler,
            fenced: FxHashSet::default(),
            blacklist_decay_at: SimTime::ZERO,
            liveness,
        }
    }

    /// Total live map slots.
    fn total_slots(&self) -> usize {
        self.liveness.live().len() * self.cfg.map_slots_per_node
    }

    fn handle_submit(&mut self, ctx: &mut Ctx<'_>, submit: SubmitJob) {
        let id = JobId(self.next_job);
        self.next_job += 1;
        let client = (submit.reply, submit.reply_node);
        self.jobs
            .insert(id.0, JobState::new(id, submit.spec, client, ctx.now()));
        ctx.stats().incr("mr.jobs_submitted");
        ctx.after(JOB_INIT_TIME, job_timer_tag(KIND_INIT, id));
    }

    fn handle_heartbeat(&mut self, ctx: &mut Ctx<'_>, hb: TtHeartbeat) {
        ctx.stats().incr("mr.heartbeats");
        let now = ctx.now();
        self.note_heartbeat(ctx, hb.node, now);
        for report in hb.completed {
            self.handle_report(ctx, report);
        }
        self.schedule_on(ctx, hb.node, hb.free_slots);
    }

    fn handle_report(&mut self, ctx: &mut Ctx<'_>, report: TaskReport) {
        let job_id = report.job.0;
        // Epoch fence: the attempt was requeued when its node was declared
        // dead, so this report is from a zombie execution. Reject it
        // before it can touch running lists, pending queues, or kv/digest
        // folds — the re-executed attempt's report is the real one.
        if self.fenced.remove(&(job_id, report.task.0, report.attempt)) {
            ctx.stats().incr("mr.fenced_reports");
            return;
        }
        if !report.ok {
            self.note_node_failure(ctx, report.node);
        }
        let Some(job) = self.jobs.get_mut(&job_id) else {
            return;
        };
        let Some(ts) = job.ledger.tasks().get(report.task.0 as usize) else {
            return;
        };
        let already_completed = ts.completed;
        let now = ctx.now();
        let is_reporter =
            |attempt: u32, node: NodeId| attempt == report.attempt && node == report.node;

        if !report.ok {
            // The ledger requeues the task if this was its last attempt.
            job.ledger.remove_attempts(report.task, now, is_reporter);
            job.failed_attempts += 1;
            ctx.stats().incr("mr.attempt_failures");
            let attempts = job.ledger.task(report.task).attempts;
            if !already_completed && attempts >= self.cfg.max_attempts {
                job.error = Some(JobError::TaskFailed {
                    task: report.task,
                    attempts,
                });
                self.finalize(ctx, JobId(job_id));
            }
            return;
        }
        if already_completed {
            // Speculative loser or zombie after recovery: drop the result.
            job.ledger.remove_attempts(report.task, now, is_reporter);
            ctx.stats().incr("mr.stale_reports");
            return;
        }

        // First winner. Other in-flight attempts of the same task leave
        // the ledger with it and are killed below.
        let mut others = job.ledger.complete(report.task, report.node, now);
        others.retain(|&(attempt, node, _)| !is_reporter(attempt, node));
        let ts = job.ledger.task(report.task);
        let is_reduce = ts.is_reduce;
        let kernel = job.spec.kernel.name();
        // The work the attempt performed, for throughput learning: samples
        // for synthetic tasks, actual bytes read otherwise.
        let work = match &ts.work {
            TaskWork::MapUnits { units, .. } => *units,
            _ => report.metrics.bytes_read,
        };
        job.last_progress = now;
        job.task_times.push(report.metrics.elapsed);
        // Only shuffles consume map outputs — and only shuffles can lose
        // one to a node death and need the folded contribution back out;
        // other reduce shapes skip the retention entirely.
        let kept = !is_reduce && matches!(job.spec.reduce, ReduceSpec::Shuffle { .. });
        let output = MapOutput::of(&report, kept);
        output.fold(&report.kv, &mut job.totals);
        if kept {
            job.map_outputs.insert(report.task, output);
        }
        if is_reduce {
            job.reduces_completed += 1;
        } else {
            job.maps_completed += 1;
        }

        self.scheduler.on_task_completed(&TaskCompletion {
            node: report.node,
            kernel,
            is_reduce,
            elapsed: report.metrics.elapsed,
            work,
        });

        for (attempt, node, _) in others {
            self.send_kill(ctx, node, report.job, report.task, attempt);
        }

        self.check_phase(ctx, JobId(job_id));
    }
}

/// Registers the TaskTracker actor for a node — delivered right after
/// spawning it (at deploy, and by [`crate::MrHandle::add_tasktracker`]),
/// because heartbeats alone cannot carry `ActorId`s through the typed
/// fabric.
#[derive(Debug, Clone, Copy)]
pub struct RegisterTaskTracker {
    /// Worker node.
    pub node: NodeId,
    /// Its TaskTracker actor.
    pub actor: ActorId,
}

impl Actor for JobTracker {
    fn name(&self) -> String {
        "mr.jobtracker".into()
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Start => {
                ctx.after(self.cfg.heartbeat_interval, TIMER_LIVENESS);
            }
            Event::Timer {
                tag: TIMER_LIVENESS,
                ..
            } => {
                self.check_liveness(ctx);
                ctx.rearm_after(self.cfg.heartbeat_interval, TIMER_LIVENESS);
            }
            Event::Timer { tag, .. } => {
                let (kind, job_id) = unpack_job_timer(tag);
                match kind {
                    KIND_INIT => self.init_job(ctx, job_id),
                    KIND_REDUCE_RPC => {
                        if let Some(job) = self.jobs.get_mut(&job_id.0) {
                            job.reduce_count = 1;
                            job.reduces_completed = 1;
                        }
                        self.finalize(ctx, job_id);
                    }
                    KIND_FINALIZE => self.complete(ctx, job_id),
                    _ => unreachable!("job timer of unknown kind {kind}"),
                }
            }
            Event::Msg { msg } => match Inbox::decode(msg) {
                Inbox::SubmitJob(submit) => self.handle_submit(ctx, *submit),
                Inbox::LocationsReply(reply) => self.handle_locations(ctx, *reply),
                Inbox::TtHeartbeat(hb) => self.handle_heartbeat(ctx, *hb),
                Inbox::RegisterTaskTracker(reg) => self.handle_register(ctx, *reg),
            },
        }
    }
}

accelmr_des::inbox! {
    enum Inbox { SubmitJob, LocationsReply, TtHeartbeat, RegisterTaskTracker }
}
