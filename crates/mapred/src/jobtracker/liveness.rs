//! Who is in the cluster and who is trusted with work: TaskTracker
//! registration and joins (with re-planning of undispatched jobs),
//! heartbeat-silence detection and the recovery it triggers, the
//! progressive blacklist, and the job stall watchdog.

use accelmr_des::prelude::*;
use accelmr_net::NodeId;

use crate::config::{JobId, TaskId};
use crate::job::{JobError, ReduceSpec};

use super::{JobTracker, Phase, RegisterTaskTracker};

/// Probation half-life of the blacklist failure score: every such window,
/// a node's accumulated score halves, so a gray node that recovers
/// re-enters the dispatch rotation.
const BLACKLIST_PROBATION: SimDuration = SimDuration::from_secs(60);

pub(super) struct TtInfo {
    pub(super) actor: ActorId,
    last_heartbeat: SimTime,
    pub(super) dead: bool,
    /// Progressive-blacklist failure score: bumped per failed attempt,
    /// halved every [`BLACKLIST_PROBATION`]. The node is
    /// blacklisted (skipped by dispatch) while the score is at or above
    /// `MrConfig::blacklist_threshold`.
    fail_score: u32,
}

impl TtInfo {
    fn new(actor: ActorId, now: SimTime) -> Self {
        TtInfo {
            actor,
            last_heartbeat: now,
            dead: false,
            fail_score: 0,
        }
    }
}

impl JobTracker {
    /// Installs the TaskTracker actor for `node`. `now` seeds the liveness
    /// clock: a node registering mid-session must not be declared dead
    /// before its first heartbeat (at deploy `now` is zero, matching the
    /// historical behavior exactly).
    pub(crate) fn register_tt_at(&mut self, node: NodeId, actor: ActorId, now: SimTime) {
        if let Some(t) = self.tts.get_mut(&node) {
            t.actor = actor;
            return;
        }
        self.tts.insert(node, TtInfo::new(actor, now));
        // Enter liveness tracking with a full silence window from `now` —
        // a tracker registering one tick before the sweep fires must not
        // be declared dead before it ever had a chance to heartbeat.
        self.expiry.schedule(now + self.cfg.tt_dead_after, node);
        self.note_tt_live(node);
    }

    pub(super) fn handle_register(&mut self, ctx: &mut Ctx<'_>, reg: RegisterTaskTracker) {
        let is_new = !self.tts.contains_key(&reg.node);
        self.register_tt_at(reg.node, reg.actor, ctx.now());
        if is_new {
            self.handle_node_join(ctx, reg.node);
        }
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
        let is_new = !self.tts.contains_key(&node);
        let entry = self
            .tts
            .entry(node)
            .or_insert(TtInfo::new(ActorId::ENGINE, now));
        entry.last_heartbeat = now;
        let resurrected = std::mem::replace(&mut entry.dead, false);
        if is_new || resurrected {
            // (Re-)entering liveness tracking: one fresh heap entry at the
            // current deadline; any superseded entry from a previous
            // incarnation is dropped at pop time. Heartbeats from an
            // already-live tracker never touch the heap.
            self.expiry.schedule(now + self.cfg.tt_dead_after, node);
            self.note_tt_live(node);
        }
        if resurrected {
            ctx.stats().incr("mr.tt_resurrections");
            self.scheduler.on_node_join(node);
        }
        if is_new {
            // Discovery by heartbeat alone (no registration observed):
            // still a join for the scheduler.
            self.handle_node_join(ctx, node);
        }
    }

    /// Marks `node` live: inserts into the sorted live list (no-op when
    /// already present, e.g. a registration racing a first heartbeat).
    fn note_tt_live(&mut self, node: NodeId) {
        if let Err(pos) = self.live.binary_search(&node) {
            self.live.insert(pos, node);
        }
    }

    /// Removes `node` from the sorted live list.
    fn note_tt_dead(&mut self, node: NodeId) {
        if let Ok(pos) = self.live.binary_search(&node) {
            self.live.remove(pos);
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
        // audit:allow(map-order): per-node score halving is independent per entry; order is unobservable and no events issue here
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
        let mut job_ids: Vec<u32> = self
            .jobs
            .iter()
            .filter(|(_, j)| j.phase == Phase::MapRunning && j.dispatch_log.is_empty())
            .map(|(&id, _)| id)
            .collect();
        job_ids.sort_unstable();
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

    /// Declares silent TaskTrackers dead and re-queues their work. The
    /// sweep drains the expiry heap instead of walking every tracker: only
    /// trackers whose recorded deadline elapsed surface, so an all-quiet
    /// tick costs O(1) regardless of cluster size. The old full scan
    /// visited ascending node ids; the heap hands the drained set back
    /// sorted (and deduped — resurrections can leave superseded entries) so
    /// the newly-dead are processed in exactly the historical order,
    /// keeping traces byte-identical.
    pub(super) fn check_liveness(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.decay_blacklist(now);
        let tts = &self.tts;
        let window = self.cfg.tt_dead_after;
        // Expired ⇔ the authoritative deadline passed: `last + window <
        // now` is the old `now - last > window` rule verbatim, so a
        // tracker whose grace ends exactly at `now` survives this tick.
        let newly_dead = self.expiry.expired(now, |node| {
            let tt = tts.get(&node)?;
            if tt.dead {
                return None;
            }
            Some(tt.last_heartbeat + window)
        });
        for &node in &newly_dead {
            self.tts
                .get_mut(&node)
                .expect("expired keys are tracked")
                .dead = true;
            self.note_tt_dead(node);
        }
        for node in newly_dead {
            ctx.stats().incr("mr.tasktrackers_declared_dead");
            self.scheduler.on_node_dead(node);
            let mut job_ids: Vec<u32> = self.jobs.keys().copied().collect();
            job_ids.sort_unstable();
            for job_id in job_ids {
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
        let mut stalled: Vec<u32> = self
            .jobs
            .iter()
            .filter(|(_, j)| !matches!(j.phase, Phase::Done | Phase::Finalizing))
            .filter(|(_, j)| j.ledger.running_now() == 0 && now.since(j.last_progress) > timeout)
            .map(|(&id, _)| id)
            .collect();
        stalled.sort_unstable();
        for id in stalled {
            if let Some(job) = self.jobs.get_mut(&id) {
                job.succeeded = false;
                job.error = Some(JobError::Stalled {
                    idle_for: now.since(job.last_progress),
                });
            }
            ctx.stats().incr("mr.jobs_stalled");
            self.finalize(ctx, JobId(id));
        }
    }
}
