//! Heartbeat dispatch: which job, which task, which straggler, which victim.
//!
//! Every decision here shows the scheduler the same picture of a job —
//! [`JobState::view`] over the pending queue
//! [`SlotLedger::offered`](super::ledger::SlotLedger::offered) names — so
//! the task-level and job-level halves of the two-level pick cannot
//! disagree about what is runnable.

use accelmr_des::prelude::*;
use accelmr_des::sorted_keys_where;
use accelmr_net::NodeId;

use crate::config::{JobId, TaskId};
use crate::job::{OutputSink, ReduceSpec, TaskDescriptor, TaskWork};
use crate::msgs::{AssignTask, KillTask};
use crate::sched::{ReclaimVictim, SchedView, Scheduler};

use super::{JobState, JobTracker, Phase};

impl JobTracker {
    /// Heartbeat-driven scheduling for one TaskTracker: every free slot
    /// first asks the scheduler *which job* deserves it
    /// ([`Scheduler::pick_job`] — the job-level half of the two-level
    /// decision), then which of that job's tasks. A job that declines a
    /// regular dispatch (queue dry, or adaptive admission control) is
    /// offered a speculative straggler copy before being retired from this
    /// heartbeat's candidates. Under the default lowest-id job picker this
    /// reproduces the historical "drain each job regular-then-speculative
    /// in ascending id order" loop event for event — proven by the golden
    /// multi-job traces (`job_level_dispatch_is_trace_equivalent`).
    pub(super) fn schedule_on(&mut self, ctx: &mut Ctx<'_>, node: NodeId, mut free: usize) {
        // A blacklisted tracker stays registered and keeps heartbeating
        // (its slots still count toward the cluster total) but is handed
        // no work — regular or speculative — until probation decays its
        // failure score back under the threshold.
        if self.is_blacklisted(node) {
            ctx.stats().incr("mr.blacklist_skips");
            return;
        }
        // Jobs retired for this heartbeat (nothing left to offer), and
        // jobs whose regular queue declined (skip straight to speculation
        // on their next pick — `pick_task` cannot start returning `Some`
        // again within one heartbeat, since dispatch only shrinks queues).
        let mut exhausted: Vec<u32> = Vec::new();
        let mut regular_declined: Vec<u32> = Vec::new();
        let now = ctx.now();
        while free > 0 {
            let Some(job_id) = self.pick_job_for(node, now, &exhausted) else {
                break;
            };
            if !regular_declined.contains(&job_id) {
                if let Some(task) = self.pick_task(job_id, node) {
                    self.assign(ctx, job_id, task, node, false);
                    free -= 1;
                    continue;
                }
                regular_declined.push(job_id);
            }
            // Speculative duplicates once the job's queue is dry (or held
            // back).
            if self.cfg.speculative {
                if let Some(task) = self.pick_straggler(now, job_id, node) {
                    ctx.stats().incr("mr.speculative_launches");
                    self.assign(ctx, job_id, task, node, true);
                    free -= 1;
                    continue;
                }
            }
            exhausted.push(job_id);
        }
        // Preemptive slot reclamation: only once the node is out of free
        // slots may a policy name a running attempt to kill and requeue —
        // the slot frees (and re-dispatches) at this node's next heartbeat.
        // Inert unless `MrConfig::preemption` enables it, which keeps every
        // historical trace byte-identical (pinned by the goldens).
        if free == 0 && self.cfg.preemption.enabled() {
            if let Some(victim) = self.pick_victim(node, now) {
                self.preempt(ctx, victim, node);
            }
        }
    }

    /// Builds one [`SchedView`] per active job, ascending by id, and puts
    /// the slice to the scheduler through `ask`. `eligible(job, offered)`
    /// marks the jobs the decision may name, `offered` being how many
    /// pending entries the job currently offers; the others stay in the
    /// slice so tenant shares account every running attempt. Returns
    /// `None` without building a view when no job is eligible — the common
    /// idle heartbeat, and every `schedule_on`'s terminating call.
    fn ask_over_jobs<R>(
        &mut self,
        eligible: impl Fn(&JobState, usize) -> bool,
        ask: impl FnOnce(&mut dyn Scheduler, &[SchedView<'_>]) -> R,
    ) -> Option<R> {
        let cluster_slots = self.total_slots();
        let slots_per_node = self.cfg.map_slots_per_node;
        let ids = sorted_keys_where(&self.jobs, |_, j| {
            matches!(j.phase, Phase::MapRunning | Phase::ReduceRunning)
        });
        // Make every pending queue contiguous first (needs `&mut`); the
        // immutable view pass below can then slice it.
        for id in &ids {
            if let Some(job) = self.jobs.get_mut(id) {
                job.ledger.make_contiguous();
            }
        }
        let eligible: Vec<bool> = ids
            .iter()
            .map(|id| {
                let job = &self.jobs[id];
                eligible(job, job.ledger.offered().len())
            })
            .collect();
        if !eligible.contains(&true) {
            return None;
        }
        let views: Vec<SchedView<'_>> = ids
            .iter()
            .zip(eligible)
            .map(|(id, eligible)| {
                let job = &self.jobs[id];
                let offered = job.ledger.offered();
                job.view(offered, eligible, cluster_slots, slots_per_node)
            })
            .collect();
        Some(ask(self.scheduler.as_mut(), &views))
    }

    /// Asks the scheduler which active job the next free slot on `node`
    /// should serve, and validates the pick against the eligibility the
    /// views advertise. `exhausted` jobs were retired for this heartbeat.
    fn pick_job_for(&mut self, node: NodeId, now: SimTime, exhausted: &[u32]) -> Option<u32> {
        let speculative = self.cfg.speculative;
        self.ask_over_jobs(
            |job, offered| {
                (offered > 0 || (speculative && job.ledger.tally().running_tasks > 0))
                    && !exhausted.contains(&job.id.0)
            },
            |scheduler, views| {
                let pick = scheduler.pick_job(views, node, now)?;
                let valid = views.iter().any(|v| v.job == pick && v.eligible);
                debug_assert!(valid, "scheduler picked ineligible job {pick}");
                valid.then_some(pick.0)
            },
        )?
    }

    /// Asks the scheduler to [`reclaim`](Scheduler::reclaim) a slot on the
    /// saturated `node`. A beneficiary must have pending work (withheld
    /// reduces excluded) — speculation never justifies a kill, so
    /// `pick_job_for`'s speculative arm is deliberately absent here.
    fn pick_victim(&mut self, node: NodeId, now: SimTime) -> Option<ReclaimVictim> {
        self.ask_over_jobs(
            |_, offered| offered > 0,
            |scheduler, views| scheduler.reclaim(views, node, now),
        )?
    }

    /// Picks the next pending task of `job_id` for `node` by asking the
    /// scheduler. `None` when the job offers nothing — or when the
    /// scheduler holds the node back (adaptive admission control).
    ///
    /// The scheduler sees one of the job's two pending queues, the one
    /// [`SlotLedger::offered_kind`](super::ledger::SlotLedger::offered_kind)
    /// names: reduces wait while a map is pending or a node death left the
    /// shuffle's map outputs incomplete.
    fn pick_task(&mut self, job_id: u32, node: NodeId) -> Option<TaskId> {
        let cluster_slots = self.total_slots();
        let slots_per_node = self.cfg.map_slots_per_node;
        let job = self.jobs.get_mut(&job_id)?;
        job.ledger.make_contiguous();
        let kind = job.ledger.offered_kind();
        let pending = job.ledger.pending(kind);
        if pending.is_empty() {
            return None;
        }
        let view = job.view(pending, true, cluster_slots, slots_per_node);
        let idx = self.scheduler.pick_task(&view, node)?;
        job.ledger.take_pending(kind, idx)
    }

    /// Asks the scheduler for a straggler of `job_id` to speculatively
    /// duplicate on `node`.
    fn pick_straggler(&mut self, now: SimTime, job_id: u32, node: NodeId) -> Option<TaskId> {
        let cluster_slots = self.total_slots();
        let slots_per_node = self.cfg.map_slots_per_node;
        let job = self.jobs.get_mut(&job_id)?;
        job.ledger.make_contiguous();
        let view = job.view(job.ledger.offered(), true, cluster_slots, slots_per_node);
        let pick = self.scheduler.pick_straggler(&view, node, now)?;
        // No speculative reduce copies while the shuffle's map outputs are
        // incomplete: a duplicate dispatched now would be rebuilt against
        // a partial output set (see `assign`).
        if job.ledger.task(pick).is_reduce && !job.ledger.shuffle_ready() {
            return None;
        }
        Some(pick)
    }

    fn assign(
        &mut self,
        ctx: &mut Ctx<'_>,
        job_id: u32,
        task: TaskId,
        node: NodeId,
        speculative: bool,
    ) {
        let Some(tt) = self.tts.get(&node) else {
            return;
        };
        let tt_actor = tt.actor;
        let Some(job) = self.jobs.get_mut(&job_id) else {
            return;
        };
        let now = ctx.now();
        // Reduce fetch lists are rebuilt from the *current* map outputs at
        // every dispatch. Dispatch is gated on `shuffle_ready`, so the set
        // is complete.
        if job.ledger.task(task).is_reduce && job.ledger.shuffle_ready() {
            job.ledger.partition([task]);
        }
        let attempt = job.ledger.add_attempt(task, node, now, speculative);
        let ts = job.ledger.task(task);
        let (reduce_merge_time, output) = match &ts.work {
            TaskWork::Reduce {
                fetches,
                pairs,
                write_output,
                output_path,
            } => (
                match &job.spec.reduce {
                    ReduceSpec::Shuffle { reducer, .. } => {
                        Some(reducer.reduce_time(fetches.iter().map(|&(_, b)| b).sum(), *pairs))
                    }
                    _ => None,
                },
                if *write_output {
                    OutputSink::Dfs {
                        path: output_path.clone(),
                        replication: None,
                    }
                } else {
                    OutputSink::Discard
                },
            ),
            _ => (None, job.spec.output.clone()),
        };
        let descriptor = TaskDescriptor {
            job: JobId(job_id),
            task,
            attempt,
            work: ts.work.clone(),
            kernel: job.spec.kernel.clone(),
            output,
            reduce_merge_time,
        };
        ctx.stats().incr("mr.assignments");
        self.net
            .unicast(ctx, tt_actor, 1024, AssignTask { descriptor });
    }

    /// Executes one preemption kill: the victim job's ledger removes and
    /// fences the attempt (the zombie path of node deaths, reused
    /// verbatim), its discarded slot-seconds move to the beneficiary, and
    /// the TaskTracker is told to kill it. The freed slot surfaces in the
    /// node's next heartbeat.
    ///
    /// Exactly-once needs no kv/digest surgery here: a *running* map
    /// attempt has folded nothing into the job (folding happens only on a
    /// successful report), and the fence guarantees at most one of
    /// {preemption kill, natural completion} takes effect.
    fn preempt(&mut self, ctx: &mut Ctx<'_>, v: ReclaimVictim, node: NodeId) {
        let now = ctx.now();
        if !self.tts.contains_key(&node) {
            return;
        }
        let Some(job) = self.jobs.get_mut(&v.job.0) else {
            debug_assert!(false, "reclaim named unknown job {}", v.job);
            return;
        };
        let Some(elapsed) = job.ledger.preempt(v.task, v.attempt, node, now) else {
            debug_assert!(
                false,
                "reclaim named no running map attempt {v:?} on {node}"
            );
            return;
        };
        // Charge the killing tenant: the victim's discarded runtime is
        // reported as the beneficiary's wasted work.
        if let Some(b) = self.jobs.get_mut(&v.beneficiary.0) {
            b.ledger.bill_waste(elapsed);
        }
        ctx.stats().incr("mr.preemptions");
        self.send_kill(ctx, node, v.job, v.task, v.attempt);
    }

    /// Tells `node`'s TaskTracker to kill one attempt.
    pub(super) fn send_kill(
        &self,
        ctx: &mut Ctx<'_>,
        node: NodeId,
        job: JobId,
        task: TaskId,
        attempt: u32,
    ) {
        if let Some(tt) = self.tts.get(&node) {
            let kill = KillTask { job, task, attempt };
            self.net.unicast(ctx, tt.actor, 128, kill);
        }
    }
}
