//! Who is in the cluster and who is trusted with work: TaskTracker
//! registration and joins (with re-planning of undispatched jobs),
//! heartbeat-silence detection and the recovery it triggers, the
//! progressive blacklist, and the job stall watchdog.

use accelmr_des::prelude::*;
use accelmr_des::sorted_keys_where;
use accelmr_net::{NodeId, NodeState};

use crate::config::{JobId, TaskId};
use crate::job::{JobError, ReduceSpec};

use super::{JobTracker, Phase, RegisterTaskTracker};

/// Probation half-life of the blacklist failure score: every such window,
/// a node's accumulated score halves, so a gray node that recovers
/// re-enters the dispatch rotation.
const BLACKLIST_PROBATION: SimDuration = SimDuration::from_secs(60);

pub(super) struct TtInfo {
    pub(super) actor: ActorId,
    /// Progressive-blacklist failure score: bumped per failed attempt,
    /// halved every [`BLACKLIST_PROBATION`]. The node is
    /// blacklisted (skipped by dispatch) while the score is at or above
    /// `MrConfig::blacklist_threshold`.
    fail_score: u32,
}

impl TtInfo {
    fn new(actor: ActorId) -> Self {
        TtInfo {
            actor,
            fail_score: 0,
        }
    }
}

impl JobTracker {
    /// Installs the TaskTracker actor for `node`. A node registering for
    /// the first time joins with a full silence window from now, so it
    /// cannot be declared dead before its first heartbeat.
    pub(super) fn handle_register(&mut self, ctx: &mut Ctx<'_>, reg: RegisterTaskTracker) {
        if let Some(tt) = self.tts.get_mut(&reg.node) {
            tt.actor = reg.actor;
            return;
        }
        self.tts.insert(reg.node, TtInfo::new(reg.actor));
        self.liveness.admit(reg.node, ctx.now());
        self.handle_node_join(ctx, reg.node);
    }

    /// Moves `node`'s liveness clock to `now`, discovering or resurrecting
    /// the tracker as needed.
    ///
    /// A heartbeat from a tracker we declared dead means the declaration
    /// was a false positive (heartbeat loss, or a healed partition):
    /// resurrect it. Its pre-death attempts were requeued and fenced at
    /// declaration time, so any stale reports this heartbeat carries are
    /// rejected in `handle_report` — the node rejoins with a clean slate.
    /// Genuinely crashed trackers never heartbeat again, so this path is
    /// unreachable outside chaos runs.
    pub(super) fn note_heartbeat(&mut self, ctx: &mut Ctx<'_>, node: NodeId, now: SimTime) {
        match self.liveness.heard(node, now) {
            NodeState::Live => {}
            NodeState::Dead => {
                self.liveness.admit(node, now);
                ctx.stats().incr("mr.tt_resurrections");
                self.scheduler.on_node_join(node);
            }
            NodeState::Unknown => {
                // Discovery by heartbeat alone (no registration observed):
                // still a join for the scheduler.
                self.tts.insert(node, TtInfo::new(ActorId::ENGINE));
                self.liveness.admit(node, now);
                self.handle_node_join(ctx, node);
            }
        }
    }

    /// Whether `node` is currently held out of dispatch by the progressive
    /// blacklist. Always `false` with the knob unset (the default).
    pub(super) fn is_blacklisted(&self, node: NodeId) -> bool {
        match (self.cfg.blacklist_threshold, self.tts.get(&node)) {
            (Some(th), Some(tt)) => tt.fail_score >= th,
            _ => false,
        }
    }

    /// Scores a failed attempt against its node and enters the node into
    /// the blacklist at the threshold. Inert with the knob unset.
    pub(super) fn note_node_failure(&mut self, ctx: &mut Ctx<'_>, node: NodeId) {
        let Some(th) = self.cfg.blacklist_threshold else {
            return;
        };
        if let Some(tt) = self.tts.get_mut(&node) {
            tt.fail_score += 1;
            if tt.fail_score == th {
                ctx.stats().incr("mr.blacklist_entries");
            }
        }
    }

    /// Probation decay: every [`BLACKLIST_PROBATION`], halve all
    /// failure scores, so a blacklisted node that stops failing drifts
    /// back into service instead of being banned forever. Runs on the
    /// liveness tick; inert with blacklisting unset.
    fn decay_blacklist(&mut self, now: SimTime) {
        if self.cfg.blacklist_threshold.is_none() {
            return;
        }
        if self.blacklist_decay_at == SimTime::ZERO {
            self.blacklist_decay_at = now + BLACKLIST_PROBATION;
            return;
        }
        if now < self.blacklist_decay_at {
            return;
        }
        // Catch up arithmetically: k elapsed probation periods halve every
        // score k times, which is one shift — the old per-period loop
        // walked the whole tracker map once per missed period (quadratic
        // after a long idle gap on a big cluster). A u32 score is zero
        // after 32 halvings, so the shift saturates there.
        let k = now.since(self.blacklist_decay_at).as_nanos() / BLACKLIST_PROBATION.as_nanos() + 1;
        let shift = k.min(32) as u32;
        #[expect(
            clippy::iter_over_hash_type,
            clippy::disallowed_methods,
            reason = "each node's score halving is independent of the others; no events issue here"
        )]
        for tt in self.tts.values_mut() {
            tt.fail_score >>= shift;
        }
        self.blacklist_decay_at += BLACKLIST_PROBATION * k;
    }

    /// A node joined (registration of a previously-unknown TaskTracker):
    /// tell the scheduler and re-plan any job whose splits were computed
    /// against the old worker set but has not dispatched anything yet.
    fn handle_node_join(&mut self, ctx: &mut Ctx<'_>, node: NodeId) {
        ctx.stats().incr("mr.node_joins");
        self.scheduler.on_node_join(node);
        self.replan_unassigned(ctx);
    }

    /// Re-plans the splits of every job that is running its map phase but
    /// has dispatched nothing — its plan predates the current worker set,
    /// so rebuilding it lets the join participate from the first wave.
    /// Jobs with attempts in flight are left alone: their pending queue is
    /// simply drained onto the new node by heartbeat dispatch.
    fn replan_unassigned(&mut self, ctx: &mut Ctx<'_>) {
        let job_ids = sorted_keys_where(&self.jobs, |_, j| {
            j.phase == Phase::MapRunning && j.dispatch_log.is_empty()
        });
        for job_id in job_ids {
            if let Some(job) = self.jobs.get_mut(&job_id) {
                job.ledger.clear();
                job.map_count = 0;
            }
            ctx.stats().incr("mr.jobs_replanned");
            // Plan again from scratch; a file job re-fetches locations,
            // and the fresh view also reflects any re-replication since
            // the original plan.
            self.init_job(ctx, JobId(job_id));
        }
    }

    /// Declares TaskTrackers silent past `MrConfig::tt_dead_after` dead
    /// and re-queues their work.
    pub(super) fn check_liveness(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.decay_blacklist(now);
        for node in self.liveness.sweep(now) {
            ctx.stats().incr("mr.tasktrackers_declared_dead");
            self.scheduler.on_node_dead(node);
            for job_id in sorted_keys_where(&self.jobs, |_, _| true) {
                self.recover_from_death(job_id, node, now);
            }
        }
        self.check_watchdog(ctx, now);
    }

    /// Takes the dead `node` out of one job's books, task by task in id
    /// order (the order requeued tasks enter the pending queue).
    fn recover_from_death(&mut self, job_id: u32, node: NodeId, now: SimTime) {
        let Some(job) = self.jobs.get_mut(&job_id) else {
            return;
        };
        if matches!(job.phase, Phase::Done | Phase::Finalizing) {
            return;
        }
        // Completed map outputs on the dead node are lost for unfinished
        // shuffles: re-execute those maps — during the reduce phase too
        // (reduce dispatch is then held until the re-executed outputs
        // land; in-flight fetches off the dead node abort and requeue).
        let loses_outputs = matches!(job.spec.reduce, ReduceSpec::Shuffle { .. })
            && matches!(job.phase, Phase::MapRunning | Phase::ReduceRunning);
        for i in 0..job.ledger.tasks().len() as u32 {
            let task = TaskId(i);
            // Running attempts on the dead node vanish (the ledger
            // requeues a task left with none) — and are *fenced*: should
            // the node turn out to be alive (heartbeat loss, partition),
            // the zombie executions' eventual reports must not fold a
            // second copy of the work into the job.
            for (attempt, _, _) in job.ledger.remove_attempts(task, now, |_, n| n == node) {
                self.fenced.insert((job_id, i, attempt));
            }
            let ts = job.ledger.task(task);
            if loses_outputs && ts.completed && ts.ran_on == Some(node) && !ts.is_reduce {
                // The lost attempt's folded contribution comes back out,
                // so re-execution keeps exactly-once accounting.
                job.ledger.uncomplete(task, now);
                job.maps_completed -= 1;
                if let Some(lost) = job.map_outputs.remove(&task) {
                    lost.unfold(&mut job.totals);
                }
            }
        }
    }

    /// Job-level liveness watchdog: a job with *nothing running* and no
    /// dispatch or completion for `MrConfig::job_stall_timeout` cannot make
    /// progress (unservable input, every candidate node dead or
    /// blacklisted) and is terminated with a typed
    /// [`JobError::Stalled`] instead of hanging the session. Jobs with
    /// attempts in flight are never declared stalled — slow tasks are the
    /// I/O watchdogs' and speculation's problem, not this one's.
    fn check_watchdog(&mut self, ctx: &mut Ctx<'_>, now: SimTime) {
        let Some(timeout) = self.cfg.job_stall_timeout else {
            return;
        };
        let stalled = sorted_keys_where(&self.jobs, |_, j| {
            !matches!(j.phase, Phase::Done | Phase::Finalizing)
                && j.ledger.running_now() == 0
                && now.since(j.last_progress) > timeout
        });
        for id in stalled {
            if let Some(job) = self.jobs.get_mut(&id) {
                job.error = Some(JobError::Stalled {
                    idle_for: now.since(job.last_progress),
                });
            }
            ctx.stats().incr("mr.jobs_stalled");
            self.finalize(ctx, JobId(id));
        }
    }
}
