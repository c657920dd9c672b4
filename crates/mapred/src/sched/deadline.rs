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

use crate::config::{JobId, MrConfig};

use super::fair::fair_share_pick;
use super::{
    min_score_view, PreemptionBudget, ReclaimVictim, SchedView, Scheduler, TaskCompletion,
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

    /// Slack of a deadline-carrying job at `now`, in seconds (negative =
    /// projected late). Remaining work = pending tasks plus in-flight
    /// incomplete tasks, executed in waves of `cluster_slots`.
    fn slack_secs(&self, view: &SchedView<'_>, now: SimTime) -> f64 {
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

    fn pick_job(&mut self, views: &[SchedView<'_>], _node: NodeId, now: SimTime) -> Option<JobId> {
        let urgent = min_score_view(views, |v| {
            (v.eligible && v.deadline.is_some()).then(|| self.slack_secs(v, now))
        });
        match urgent {
            Some(v) => Some(v.job),
            // No deadline job runnable: the rest share fair.
            None => fair_share_pick(views),
        }
    }

    /// Reclaims a slot for the most urgent deadline job once its slack
    /// falls under [`slack_margin`](crate::PreemptionTuning::slack_margin)
    /// (a kill only frees the slot at the victim node's *next* heartbeat,
    /// so waiting for slack zero reclaims too late). The victim comes from
    /// a deadline-less job or a deadline job with at least twice the margin
    /// of slack to spare — never from a job that is itself urgent.
    fn reclaim(
        &mut self,
        views: &[SchedView<'_>],
        node: NodeId,
        now: SimTime,
    ) -> Option<ReclaimVictim> {
        let margin = self.budget.tuning.slack_margin.as_secs_f64();
        // Beneficiary: the minimum-slack eligible deadline job with
        // pending work that is projected to run out of margin.
        let beneficiary = min_score_view(views, |v| {
            if !v.eligible || v.deadline.is_none() || v.pending.is_empty() {
                return None;
            }
            Some(self.slack_secs(v, now)).filter(|&s| s < margin)
        })?
        .job;
        // The raidable jobs, each with its kernel's learned mean duration.
        let raidable: Vec<(JobId, f64)> = views
            .iter()
            .filter(|v| {
                v.job != beneficiary
                    && match v.deadline {
                        // Deadline-less jobs have no urgency to protect.
                        None => true,
                        // A deadline job may be raided only with slack to
                        // spare.
                        Some(_) => self.slack_secs(v, now) >= 2.0 * margin,
                    }
            })
            .map(|v| (v.job, self.mean_dur_secs(v.kernel)))
            .collect();
        self.budget
            .take_victim(views, node, now, beneficiary, |v, elapsed| {
                // An attempt that has already run the learned mean duration
                // for its kernel is expected to finish imminently — it
                // frees the slot naturally about as fast as a
                // kill-and-requeue round trip would, while carrying the
                // maximum discarded runtime. Skip it and let the deadline
                // job take the natural completion instead (only once a mean
                // is learned; before that every victim is fair game,
                // matching the cold-start EDF posture above).
                raidable.iter().any(|&(job, mean)| {
                    job == v.job && !(mean > 0.0 && elapsed.as_secs_f64() >= mean)
                })
            })
    }

    fn on_task_completed(&mut self, completion: &TaskCompletion<'_>) {
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

#[cfg(test)]
mod tests {
    use accelmr_des::SimDuration;

    use super::*;
    use crate::config::{PreemptionTuning, TaskId};
    use crate::sched::{view_counts, TaskLookup, TaskView};

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    /// A preempting `DeadlineSlack` that has seen one completed map attempt
    /// of kernel `k` per entry of `learned` (seconds).
    fn sched(learned: &[u64]) -> DeadlineSlack {
        let mut s = DeadlineSlack::new(&MrConfig {
            preemption: PreemptionTuning::balanced(),
            ..MrConfig::default()
        });
        for &secs in learned {
            s.on_task_completed(&TaskCompletion {
                node: NodeId(1),
                kernel: "k",
                is_reduce: false,
                elapsed: SimDuration::from_secs(secs),
                work: 1,
            });
        }
        s
    }

    /// A reclaim view, eligible exactly when it has pending work (as the
    /// JobTracker builds them).
    fn view<'a>(
        job: u32,
        deadline: Option<SimTime>,
        pending: &'a [TaskId],
        tasks: &'a dyn TaskLookup,
    ) -> SchedView<'a> {
        let (running_slots, running_incomplete) = view_counts(tasks);
        SchedView {
            job: JobId(job),
            kernel: "k",
            tenant: "default",
            weight: 1.0,
            deadline,
            eligible: !pending.is_empty(),
            cluster_slots: 2,
            pending,
            tasks,
            running_slots,
            running_incomplete,
            completed_task_times: &[],
            slots_per_node: 2,
        }
    }

    /// The victim rule that needs a learned duration: an attempt that has
    /// already run the kernel's mean duration is passed over, even when it
    /// is the only candidate; unlearned, the same attempt is named.
    #[test]
    fn reclaim_skips_victims_past_the_learned_mean() {
        let running = [(1, NodeId(1), SimTime::ZERO)];
        let busy = [TaskView {
            hints: &[],
            is_reduce: false,
            completed: false,
            running: &running,
            size: 1,
        }];
        let idle = [TaskView {
            running: &[],
            ..busy[0]
        }];
        let pending = [TaskId(0)];
        // Job 0 (no deadline) holds the node's one candidate, started at
        // t=0; job 1 is due at t=60 s with one task waiting, well inside
        // the 90 s margin either way.
        let views = [
            view(0, None, &[], &busy),
            view(1, Some(at(60)), &pending, &idle),
        ];
        let named = Some(ReclaimVictim {
            job: JobId(0),
            task: TaskId(0),
            attempt: 1,
            beneficiary: JobId(1),
        });
        // Learned mean 40 s: the 45 s-old attempt is about to finish.
        assert_eq!(sched(&[40]).reclaim(&views, NodeId(1), at(45)), None);
        // Nothing learned: the same attempt is fair game.
        assert_eq!(sched(&[]).reclaim(&views, NodeId(1), at(45)), named);
        // Learned, but only 30 s old: still named.
        assert_eq!(sched(&[40]).reclaim(&views, NodeId(1), at(30)), named);
    }
}
