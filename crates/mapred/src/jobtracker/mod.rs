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
//! * this file — the actor itself: per-job state (spec, phase, error and
//!   the ledger), message and timer handling, task reports;
//! * `lifecycle` — split planning and task construction, phase
//!   transitions, shuffle start, finalization and the job result;
//! * `dispatch` — the heartbeat dispatch loop: job, task and straggler
//!   picks over the one `JobState` → [`SchedView`] constructor,
//!   assignment, preemption kills;
//! * `ledger` — the job's books behind one owner: the task table, pending
//!   queue and every count derived from them, the attempt history, the
//!   folded output and the epoch fences;
//! * `liveness` — TaskTracker registration, joins and re-planning,
//!   heartbeat-silence detection, the progressive blacklist and the job
//!   stall watchdog.

mod dispatch;
pub(crate) mod ledger;
mod lifecycle;
mod liveness;

use accelmr_des::prelude::*;
use accelmr_des::FxHashMap;
use accelmr_dfs::msgs::LocationsReply;
use accelmr_dfs::{DfsHandle, BLOCK_SIZE};
use accelmr_net::{Liveness, NetHandle, NodeId};

use crate::config::{JobId, MrConfig, TaskId};
use crate::job::{JobError, JobInput, JobSpec, ReduceSpec, TaskWork};
use crate::msgs::{SubmitJob, TaskReport, TtHeartbeat};
use crate::sched::{build_scheduler, SchedView, Scheduler, TaskCompletion};

use ledger::SlotLedger;
use liveness::TtInfo;

/// Job initialization (staging, split computation, queue population).
pub(crate) const JOB_INIT_TIME: SimDuration = SimDuration::from_secs(8);
/// Job finalization (output commit, client notification path).
pub(crate) const JOB_FINALIZE_TIME: SimDuration = SimDuration::from_secs(2);

const TIMER_LIVENESS: u64 = 0;
const KIND_INIT: u64 = 1;
const KIND_REDUCE_RPC: u64 = 2;
const KIND_FINALIZE: u64 = 3;

fn job_timer_tag(kind: u64, job: JobId) -> u64 {
    (kind << 32) | job.0 as u64
}

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
    /// The job's books: tasks, attempts, completions, contributions and
    /// fences.
    ledger: SlotLedger,
    /// Typed cause of failure, for [`JobResult::error`](crate::JobResult::error);
    /// the job succeeded exactly when this stays `None`.
    error: Option<JobError>,
}

impl JobState {
    fn record_bytes(&self) -> u64 {
        match &self.spec.input {
            JobInput::File { record_bytes, .. } => record_bytes.unwrap_or(BLOCK_SIZE),
            JobInput::Synthetic { .. } => 0,
        }
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
            running_slots: self.ledger.tally().running_now as usize,
            running_incomplete: self.ledger.tally().running_tasks as usize,
            completed_task_times: &self.ledger.tally().task_times,
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
        let shuffle = matches!(submit.spec.reduce, ReduceSpec::Shuffle { .. });
        let job = JobState {
            id,
            spec: submit.spec,
            client: (submit.reply, submit.reply_node),
            submitted: ctx.now(),
            phase: Phase::Initializing,
            ledger: SlotLedger::new(id, shuffle, ctx.now()),
            error: None,
        };
        self.jobs.insert(id.0, job);
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
        // Epoch fence: the attempt was removed when its node was declared
        // dead (or by preemption), so this report is from a zombie
        // execution. Reject it before it can touch running lists, pending
        // queues, or kv/digest folds — the re-executed attempt's report is
        // the real one.
        let job = self.jobs.get_mut(&job_id);
        if job.is_some_and(|job| job.ledger.unfence(report.task, report.attempt)) {
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

        if !report.ok {
            // The ledger requeues the task if this was its last attempt.
            let attempts = job.ledger.fail(&report, now);
            ctx.stats().incr("mr.attempt_failures");
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
            let reporter = (report.attempt, report.node);
            job.ledger
                .remove_attempts(report.task, now, false, |a, n| (a, n) == reporter);
            ctx.stats().incr("mr.stale_reports");
            return;
        }

        // First winner. Other in-flight attempts of the same task leave
        // the ledger with it and are killed below.
        let others = job.ledger.complete(&report, now);
        let ts = job.ledger.task(report.task);
        // The work the attempt performed, for throughput learning: samples
        // for synthetic tasks, actual bytes read otherwise.
        let work = match &ts.work {
            TaskWork::MapUnits { units, .. } => *units,
            _ => report.metrics.bytes_read,
        };
        self.scheduler.on_task_completed(&TaskCompletion {
            node: report.node,
            kernel: job.spec.kernel.name(),
            is_reduce: ts.is_reduce,
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
                            job.ledger.push_rpc_reduce(ctx.now());
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
