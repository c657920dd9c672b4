//! Deadline-aware job-level scheduling (earliest slack first).
//!
//! [`DeadlineSlack`] orders deadline-carrying jobs by *slack*: the time
//! left until the deadline minus an estimate of the time still needed to
//! finish. The estimate comes from the observation feed the scheduler
//! already receives — the running mean of completed map-attempt durations
//! per kernel family — multiplied by the number of dispatch waves the
//! remaining tasks represent (`ceil(remaining / cluster slots)`). Before
//! anything is learned the estimate is zero and the order degrades to
//! plain EDF (earliest deadline first), which is the right cold-start
//! behavior: with no duration model, deadline order is the best available
//! urgency signal.
//!
//! Deadline-less jobs never block a deadline job: whenever any eligible
//! job carries a deadline it wins the slot; deadline-less jobs share the
//! remaining slots through the weighted fair-share pick
//! ([`FairShare`](super::FairShare)'s rule).
//!
//! Dispatch alone cannot help a deadline job that arrives while running
//! attempts hold every slot — it waits a full task length for the first
//! natural completion. With preemption enabled
//! ([`PreemptionTuning`](crate::PreemptionTuning)), the
//! [`reclaim`](Scheduler::reclaim) hook closes that gap: once the most
//! urgent job's slack falls under the configured margin, the youngest
//! attempts of non-urgent jobs are killed and requeued so the slot frees
//! within one heartbeat instead.

use accelmr_des::{FxHashMap, SimTime};
use accelmr_net::NodeId;

use crate::config::{JobId, MrConfig, TaskId};

use super::fair::fair_share_pick;
use super::{
    default_straggler, locality_pick, min_score_view, reclaim_candidates, PreemptionBudget,
    ReclaimVictim, SchedView, Scheduler,
};

/// Mean completed-attempt duration for one kernel family, folded online.
#[derive(Clone, Copy, Debug, Default)]
struct DurStat {
    sum_secs: f64,
    samples: u64,
}

/// Earliest-slack-first dispatch for deadline jobs, fair-share for the
/// rest. Construct via
/// [`SchedulerPolicy::DeadlineSlack`](crate::SchedulerPolicy::DeadlineSlack).
#[derive(Debug)]
pub struct DeadlineSlack {
    /// The latest instant observed from the heartbeat feed — `pick_job`
    /// has no clock parameter, so slack is computed against the last
    /// heartbeat (dispatch only ever happens on heartbeats, so this is the
    /// current instant whenever the decision runs).
    now: SimTime,
    /// kernel family → mean completed map-attempt duration.
    durs: FxHashMap<String, DurStat>,
    /// Wasted-work budget for [`reclaim`](Scheduler::reclaim). Disabled by
    /// default config, making the hook a no-op.
    budget: PreemptionBudget,
}

impl DeadlineSlack {
    /// Builds the policy from the runtime config (preemption budget).
    pub fn new(cfg: &MrConfig) -> Self {
        DeadlineSlack {
            now: SimTime::ZERO,
            durs: FxHashMap::default(),
            budget: PreemptionBudget::new(cfg.preemption),
        }
    }

    /// Learned mean task duration for `kernel`, seconds; 0 when unlearned
    /// (slack then reduces to time-to-deadline — plain EDF).
    fn mean_dur_secs(&self, kernel: &str) -> f64 {
        self.durs
            .get(kernel)
            .filter(|s| s.samples > 0)
            .map(|s| s.sum_secs / s.samples as f64)
            .unwrap_or(0.0)
    }

    /// Slack of a deadline-carrying job, in seconds (negative = projected
    /// late). Remaining work = pending tasks plus in-flight incomplete
    /// tasks, executed in waves of `cluster_slots`.
    fn slack_secs(&self, view: &SchedView<'_>) -> f64 {
        self.slack_secs_at(view, self.now)
    }

    /// [`slack_secs`](Self::slack_secs) against an explicit instant —
    /// [`reclaim`](Scheduler::reclaim) carries its own clock.
    fn slack_secs_at(&self, view: &SchedView<'_>, now: SimTime) -> f64 {
        let deadline = view
            .deadline
            .expect("slack is only computed for deadline jobs");
        let remaining = view.pending.len() + view.running_incomplete;
        let waves = remaining.div_ceil(view.cluster_slots.max(1));
        let left = deadline.as_secs_f64() - now.as_secs_f64();
        left - waves as f64 * self.mean_dur_secs(view.kernel)
    }
}

impl Scheduler for DeadlineSlack {
    fn name(&self) -> &'static str {
        "deadline-slack"
    }

    fn pick_job(&mut self, views: &[SchedView<'_>], _node: NodeId) -> Option<JobId> {
        let urgent = min_score_view(views, |v| {
            (v.eligible && v.deadline.is_some()).then(|| self.slack_secs(v))
        });
        match urgent {
            Some(v) => Some(v.job),
            // No deadline job runnable: the rest share fair.
            None => fair_share_pick(views),
        }
    }

    fn pick_task(&mut self, view: &SchedView<'_>, node: NodeId) -> Option<usize> {
        locality_pick(view, node)
    }

    fn pick_straggler(
        &mut self,
        view: &SchedView<'_>,
        node: NodeId,
        now: SimTime,
    ) -> Option<TaskId> {
        default_straggler(view, node, now, |_| true)
    }

    /// Reclaims slots for the most urgent deadline job once its slack
    /// falls under [`slack_margin`](crate::PreemptionTuning::slack_margin)
    /// (a kill only frees the slot at the victim node's *next* heartbeat,
    /// so waiting for slack zero reclaims too late). Victims come from
    /// deadline-less jobs or deadline jobs with at least twice the margin
    /// of slack to spare — never from a job that is itself urgent —
    /// youngest attempt first, under the [`PreemptionTuning`](crate::PreemptionTuning) budget, at most one
    /// kill per ask (one per node per heartbeat): natural completions
    /// usually serve the rest of the pending queue, so reclaim paces
    /// itself instead of pre-purchasing every slot with discarded runtime.
    fn reclaim(
        &mut self,
        views: &[SchedView<'_>],
        node: NodeId,
        now: SimTime,
    ) -> Vec<ReclaimVictim> {
        if !self.budget.tuning.enabled() {
            return Vec::new();
        }
        let margin = self.budget.tuning.slack_margin.as_secs_f64();
        // Beneficiary: the minimum-slack eligible deadline job with
        // pending work that is projected to run out of margin.
        let Some(bview) = min_score_view(views, |v| {
            if !v.eligible || v.deadline.is_none() || v.pending.is_empty() {
                return None;
            }
            Some(self.slack_secs_at(v, now)).filter(|&s| s < margin)
        }) else {
            return Vec::new();
        };
        let beneficiary = bview.job;
        let need = bview.pending.len().min(1);
        let raidable: Vec<JobId> = views
            .iter()
            .filter(|v| {
                v.job != beneficiary
                    && match v.deadline {
                        // Deadline-less jobs have no urgency to protect.
                        None => true,
                        // A deadline job may be raided only with slack to
                        // spare.
                        Some(_) => self.slack_secs_at(v, now) >= 2.0 * margin,
                    }
            })
            .map(|v| v.job)
            .collect();
        let mut victims = Vec::new();
        for (elapsed, mut cand) in
            reclaim_candidates(views, node, now, self.budget.tuning.min_attempt_age)
        {
            if victims.len() >= need {
                break;
            }
            if !raidable.contains(&cand.job) || !self.budget.allows(cand.job, cand.task, now) {
                continue;
            }
            // An attempt that has already run the learned mean duration for
            // its kernel is expected to finish imminently — it frees the
            // slot naturally about as fast as a kill-and-requeue round trip
            // would, while carrying the maximum discarded runtime. Skip it
            // and let the deadline job take the natural completion instead
            // (only once a mean is learned; before that every victim is
            // fair game, matching the cold-start EDF posture above).
            if let Some(vview) = views.iter().find(|v| v.job == cand.job) {
                let mean = self.mean_dur_secs(vview.kernel);
                if mean > 0.0 && elapsed.as_secs_f64() >= mean {
                    continue;
                }
            }
            self.budget.note_kill(cand.job, cand.task, now);
            cand.beneficiary = beneficiary;
            victims.push(cand);
        }
        victims
    }

    fn on_heartbeat(&mut self, _node: NodeId, _free_slots: usize, now: SimTime) {
        self.now = now;
    }

    fn on_task_completed(&mut self, completion: &super::TaskCompletion<'_>) {
        // Reduce attempts are fetch-bound and sized differently; the map
        // duration model stays map-only, like adaptive throughput learning.
        if completion.is_reduce {
            return;
        }
        let stat = self.durs.entry(completion.kernel.to_string()).or_default();
        stat.sum_secs += completion.elapsed.as_secs_f64();
        stat.samples += 1;
    }
}
