//! The pluggable scheduling subsystem.
//!
//! Scheduling used to be a two-arm `match` inlined in the JobTracker;
//! this module extracts it behind the [`Scheduler`] trait so policies are
//! first-class and extensible. The JobTracker *feeds* the scheduler
//! observations — completions (with durations and work sizes), node joins
//! and deaths — and *asks* it for decisions: job choice
//! ([`Scheduler::pick_job`]), split planning ([`Scheduler::plan_splits`]),
//! dispatch ([`Scheduler::pick_task`]), speculative-copy placement
//! ([`Scheduler::pick_straggler`]) and preemptive slot reclamation
//! ([`Scheduler::reclaim`]). Every decision has a default — Hadoop's rule
//! — so a policy implements only what it decides differently. Policies
//! never mutate runtime state and never emit simulation events, so swapping
//! a policy cannot perturb anything but the decisions themselves — the
//! property the trace-equivalence tests pin down for the ported
//! [`Fifo`] and [`LocalityFirst`] implementations.
//!
//! Shipped implementations:
//!
//! * [`Fifo`] — dispatch in submission order, placement-blind (the
//!   ablation baseline);
//! * [`LocalityFirst`] — every default: prefer tasks with an input replica
//!   on the requesting node (Hadoop's default, as the paper ran it);
//! * [`AdaptiveHetero`] — heterogeneity-aware dispatch for mixed
//!   accelerated/plain clusters (the paper's §V open issue): per-node,
//!   per-kernel throughput learned online, demand-weighted splits, and a
//!   tail guard keeping the last tasks off slow nodes;
//! * [`FairShare`] — weighted max-min fair sharing of slots across
//!   tenants (job-level), reclaiming slots for a tenant below its share;
//! * [`DeadlineSlack`] — earliest-slack-first for deadline jobs,
//!   fair-share for the rest, reclaiming slots for a job about to miss.

mod adaptive;
mod deadline;
mod fair;
mod fifo;
mod locality;
#[cfg(test)]
mod props;

pub use adaptive::AdaptiveHetero;
pub use deadline::DeadlineSlack;
pub use fair::FairShare;
pub use fifo::Fifo;
pub use locality::LocalityFirst;

use accelmr_des::{FxHashMap, SimDuration, SimTime};
use accelmr_net::NodeId;

use crate::config::{JobId, MrConfig, PreemptionTuning, SchedulerPolicy, TaskId};
use crate::job::TaskWork;

/// Immutable snapshot of one task, handed to scheduling decisions.
#[derive(Clone, Copy, Debug)]
pub struct TaskView<'a> {
    /// Nodes holding input replicas (locality hint; empty for synthetic
    /// and reduce tasks).
    pub hints: &'a [NodeId],
    /// `true` for reduce tasks.
    pub is_reduce: bool,
    /// `true` once an attempt has succeeded.
    pub completed: bool,
    /// Running attempts: `(attempt, node, started)`.
    pub running: &'a [(u32, NodeId, SimTime)],
    /// Work size: input bytes (file tasks), units (synthetic tasks), or
    /// fetch bytes (reduce tasks).
    pub size: u64,
}

/// On-demand task access for scheduling decisions. The JobTracker hands
/// views out through this trait instead of materializing a `Vec<TaskView>`
/// per decision: most decisions touch a handful of tasks (or none — the
/// job-level pick mostly reads the precomputed aggregates), so building
/// O(tasks) snapshots per free heartbeat slot was the dominant per-event
/// cost at 10k nodes. Test harnesses keep constructing plain
/// `Vec<TaskView>` / `[TaskView]` values — both implement the trait.
pub trait TaskLookup: std::fmt::Debug {
    /// Number of tasks (views are indexed by [`TaskId`]).
    fn len(&self) -> usize;

    /// `true` when the job has no tasks.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The snapshot of task `idx`. Panics when out of bounds.
    fn get(&self, idx: usize) -> TaskView<'_>;
}

impl<'a> TaskLookup for Vec<TaskView<'a>> {
    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn get(&self, idx: usize) -> TaskView<'_> {
        self[idx]
    }
}

impl<'a, const N: usize> TaskLookup for [TaskView<'a>; N] {
    fn len(&self) -> usize {
        N
    }

    fn get(&self, idx: usize) -> TaskView<'_> {
        self[idx]
    }
}

/// Everything a scheduler may inspect when deciding for one job on one
/// heartbeat. Built by the JobTracker per decision; borrows its state.
/// Task-level decisions ([`Scheduler::pick_task`] /
/// [`Scheduler::pick_straggler`]) receive one view; the job-level decision
/// ([`Scheduler::pick_job`]) receives a slice covering every active job.
#[derive(Debug)]
pub struct SchedView<'a> {
    /// The job being scheduled.
    pub job: JobId,
    /// The job's map-kernel name (the per-kernel-family key adaptive
    /// throughput learning uses).
    pub kernel: &'a str,
    /// The job's tenant (multi-tenant fairness accounting; `"default"`
    /// when unset).
    pub tenant: &'a str,
    /// The job's fair-share weight (> 0).
    pub weight: f64,
    /// The job's completion deadline, if any.
    pub deadline: Option<SimTime>,
    /// Whether this job may take another dispatch this heartbeat. In
    /// [`Scheduler::pick_job`] slices, ineligible views are present for
    /// cross-job accounting (tenant running-slot shares) only — policies
    /// must never return them. Always `true` in task-level decisions.
    pub eligible: bool,
    /// Total live map slots across the cluster (remaining-work and wave
    /// estimates).
    pub cluster_slots: usize,
    /// Pending (not yet dispatched) task ids, in queue order. Re-queued
    /// tasks (failures, node deaths) sit at the tail; the queue is never
    /// reordered by the runtime, so index 0 is the oldest entry.
    pub pending: &'a [TaskId],
    /// All tasks of the job, indexed by [`TaskId`].
    pub tasks: &'a dyn TaskLookup,
    /// Attempts of this job currently occupying slots (running attempts
    /// summed over all tasks) — the usage metric weighted fair sharing
    /// bills to the job's tenant. Precomputed by the view builder (the
    /// JobTracker maintains it incrementally) so job-level picks never
    /// scan the task table.
    pub running_slots: usize,
    /// Tasks not yet completed that have at least one running attempt —
    /// the in-flight work counted by remaining-time estimates (and the
    /// speculation candidates). Precomputed like
    /// [`running_slots`](SchedView::running_slots).
    pub running_incomplete: usize,
    /// Durations of completed attempts (straggler thresholding).
    pub completed_task_times: &'a [SimDuration],
    /// Configured map slots per TaskTracker.
    pub slots_per_node: usize,
}

/// The aggregate counts a [`SchedView`] carries precomputed
/// ([`running_slots`](SchedView::running_slots),
/// [`running_incomplete`](SchedView::running_incomplete)), derived from a
/// task slice — for view builders that don't maintain the counts
/// incrementally (test harnesses, property drivers).
#[cfg(test)]
pub(crate) fn view_counts(tasks: &dyn TaskLookup) -> (usize, usize) {
    let mut running_slots = 0;
    let mut running_incomplete = 0;
    for i in 0..tasks.len() {
        let t = tasks.get(i);
        running_slots += t.running.len();
        if !t.completed && !t.running.is_empty() {
            running_incomplete += 1;
        }
    }
    (running_slots, running_incomplete)
}

/// Split-planning request: how should a job's input be carved into map
/// tasks?
#[derive(Debug)]
pub struct SplitRequest<'a> {
    /// The job's map-kernel name.
    pub kernel: &'a str,
    /// The user's explicit task count, if any (`JobBuilder::map_tasks`).
    pub requested_tasks: Option<usize>,
    /// Default task count: one per live map slot (the paper's
    /// `NumMappers`).
    pub default_tasks: usize,
    /// Live worker nodes, ascending.
    pub live_nodes: &'a [NodeId],
    /// Configured map slots per TaskTracker.
    pub slots_per_node: usize,
}

/// A split plan: how many map tasks, and how the work divides among them.
#[derive(Clone, Debug, PartialEq)]
pub enum SplitPlan {
    /// `tasks` equal splits (remainder spread one-per-task from the
    /// front) — the paper's `split = FileSize / NumMappers`.
    Uniform {
        /// Number of map tasks.
        tasks: usize,
    },
    /// One split per weight, sized proportionally — heterogeneous split
    /// sizing for clusters where nodes differ in throughput.
    Weighted {
        /// Relative split sizes; must be non-empty, entries > 0.
        weights: Vec<f64>,
    },
}

impl SplitPlan {
    /// Divides `total` work items across the planned tasks. Uniform plans
    /// reproduce the historical `base + (i < extra)` arithmetic exactly;
    /// weighted plans use largest-remainder apportionment.
    pub fn split(&self, total: u64) -> Vec<u64> {
        match self {
            SplitPlan::Uniform { tasks } => {
                let tasks = (*tasks).max(1);
                let base = total / tasks as u64;
                let extra = (total % tasks as u64) as usize;
                (0..tasks).map(|i| base + u64::from(i < extra)).collect()
            }
            SplitPlan::Weighted { weights } => {
                assert!(!weights.is_empty(), "weighted plan needs weights");
                let sum: f64 = weights.iter().sum();
                assert!(sum > 0.0, "weighted plan needs positive weights");
                let mut counts: Vec<u64> = Vec::with_capacity(weights.len());
                let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(weights.len());
                let mut assigned = 0u64;
                for (i, w) in weights.iter().enumerate() {
                    let exact = total as f64 * w / sum;
                    let floor = exact.floor() as u64;
                    counts.push(floor);
                    assigned += floor;
                    remainders.push((i, exact - floor as f64));
                }
                // Hand the remainder out by largest fractional part,
                // ties broken by task index (deterministic).
                remainders.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                });
                let mut left = total - assigned;
                for &(i, _) in &remainders {
                    if left == 0 {
                        break;
                    }
                    counts[i] += 1;
                    left -= 1;
                }
                counts
            }
        }
    }
}

/// One completed (successful, first-winner) task attempt, observed by the
/// scheduler.
#[derive(Debug)]
pub struct TaskCompletion<'a> {
    /// Node the winning attempt ran on.
    pub node: NodeId,
    /// The job's map-kernel name.
    pub kernel: &'a str,
    /// `true` for reduce tasks.
    pub is_reduce: bool,
    /// Wall time of the attempt.
    pub elapsed: SimDuration,
    /// Work performed: bytes read (file/reduce tasks) or units (synthetic).
    pub work: u64,
}

/// A per-node throughput estimate, as learned by an adaptive scheduler
/// (work units per second for one kernel family).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeThroughput {
    /// The node.
    pub node: NodeId,
    /// Estimated throughput, work units (bytes or samples) per second.
    pub throughput: f64,
    /// Completed attempts folded into the estimate.
    pub samples: u64,
}

/// One attempt a policy asks the JobTracker to preempt: the named attempt
/// is killed on its node, the task re-enters the victim job's pending
/// queue, and the freed slot goes (at the node's next heartbeat) to the
/// named beneficiary — whose tenant is charged the victim's discarded
/// slot-seconds, so reclaiming is never free for the job that forces it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReclaimVictim {
    /// Job owning the victim attempt.
    pub job: JobId,
    /// Task whose attempt is killed (requeued unless another attempt of
    /// the same task is still running).
    pub task: TaskId,
    /// The attempt number to kill — fenced so a late completion report
    /// from it is rejected.
    pub attempt: u32,
    /// The job on whose behalf the slot is reclaimed. Its `slot_seconds`
    /// absorb the victim's discarded runtime (reported as
    /// [`JobResult::wasted_slot_seconds`](crate::JobResult::wasted_slot_seconds)).
    pub beneficiary: JobId,
}

/// Wasted-work bookkeeping backing [`Scheduler::reclaim`] implementations:
/// enforces the [`PreemptionTuning`] budget (per-job kill cap, minimum
/// victim age, per-task re-kill cooldown) across the scheduler's lifetime.
/// A zero kill cap refuses every kill, so a disabled budget needs no check
/// of its own (and the JobTracker does not ask then).
#[derive(Debug)]
pub(crate) struct PreemptionBudget {
    /// The configured budget knobs.
    pub(crate) tuning: PreemptionTuning,
    /// Preemption kills suffered per victim job (lifetime).
    kills_by_job: FxHashMap<u32, u32>,
    /// Last preemption instant per `(job, task)` — the cooldown key.
    last_kill: FxHashMap<(u32, u32), SimTime>,
}

impl PreemptionBudget {
    pub(crate) fn new(tuning: PreemptionTuning) -> Self {
        PreemptionBudget {
            tuning,
            kills_by_job: FxHashMap::default(),
            last_kill: FxHashMap::default(),
        }
    }

    /// Whether the budget permits killing an attempt of `(job, task)` now:
    /// the kill cap and the per-task cooldown.
    fn allows(&self, job: JobId, task: TaskId, now: SimTime) -> bool {
        if self.kills_by_job.get(&job.0).copied().unwrap_or(0) >= self.tuning.max_kills_per_job {
            return false;
        }
        match self.last_kill.get(&(job.0, task.0)) {
            Some(&last) => now.since(last) >= self.tuning.cooldown,
            None => true,
        }
    }

    /// The one victim a reclaim ask grants on `node`, for `beneficiary`:
    /// the youngest preemptible attempt that the budget allows and
    /// `raidable(view, elapsed)` accepts — `view` being the attempt's job,
    /// `elapsed` how long it has run — charged to the budget. [`FairShare`]
    /// and [`DeadlineSlack`] differ only in `raidable` (*which jobs* may be
    /// raided), not in how victims rank; the elapsed time lets a policy
    /// with a duration model also skip nearly-finished victims.
    ///
    /// A task is preemptible only when it is an incomplete **map** with
    /// exactly one running attempt, that attempt runs on `node`, and it has
    /// been running at least `min_attempt_age`. Reduces are never preempted
    /// (their fetch state is not idempotently requeueable the way map
    /// attempts are), and killing one copy of a speculative pair frees a
    /// slot without freeing any task to requeue — the surviving copy still
    /// owns the task. Youngest-first (latest `started` wins, ties to the
    /// lowest `(job, task)`) minimizes the discarded work per reclaimed
    /// slot.
    pub(crate) fn take_victim(
        &mut self,
        views: &[SchedView<'_>],
        node: NodeId,
        now: SimTime,
        beneficiary: JobId,
        raidable: impl Fn(&SchedView<'_>, SimDuration) -> bool,
    ) -> Option<ReclaimVictim> {
        let mut candidates: Vec<(SimTime, &SchedView<'_>, ReclaimVictim)> = Vec::new();
        for v in views {
            for i in 0..v.tasks.len() {
                let t = v.tasks.get(i);
                if t.is_reduce || t.completed || t.running.len() != 1 {
                    continue;
                }
                let (attempt, run_node, started) = t.running[0];
                if run_node != node || now.since(started) < self.tuning.min_attempt_age {
                    continue;
                }
                let victim = ReclaimVictim {
                    job: v.job,
                    task: TaskId(i as u32),
                    attempt,
                    beneficiary,
                };
                candidates.push((started, v, victim));
            }
        }
        candidates.sort_by(|a, b| {
            b.0.cmp(&a.0)
                .then(a.2.job.cmp(&b.2.job))
                .then(a.2.task.cmp(&b.2.task))
        });
        let (_, _, victim) = candidates.into_iter().find(|(started, view, v)| {
            raidable(view, now.since(*started)) && self.allows(v.job, v.task, now)
        })?;
        *self.kills_by_job.entry(victim.job.0).or_insert(0) += 1;
        self.last_kill.insert((victim.job.0, victim.task.0), now);
        Some(victim)
    }
}

/// A task-scheduling policy. The JobTracker feeds it observations and asks
/// it for decisions; implementations are pure decision-makers — they hold
/// whatever learning state they like but never touch runtime state. Every
/// decision defaults to Hadoop's rule, so a policy states only what it
/// decides differently.
pub trait Scheduler: Send {
    /// Policy name (results, traces, benches).
    fn name(&self) -> &'static str;

    /// Picks the job whose task should take the next free slot on `node`
    /// at `now` (a heartbeat instant) — the *job-level* half of the
    /// two-level (job → task) dispatch decision. `views` covers every
    /// active job; entries with [`SchedView::eligible`] `false` are present
    /// for cross-job accounting only and must not be returned. `None`
    /// leaves the slot empty this heartbeat.
    ///
    /// The default picks the lowest eligible job id — exactly Hadoop's
    /// FIFO job order, proven event-for-event equivalent to the
    /// pre-`pick_job` dispatch loop by the golden multi-job traces
    /// (`job_level_dispatch_is_trace_equivalent`).
    fn pick_job(&mut self, views: &[SchedView<'_>], node: NodeId, now: SimTime) -> Option<JobId> {
        let _ = (node, now);
        views.iter().filter(|v| v.eligible).map(|v| v.job).min()
    }

    /// Plans how a job's input splits into map tasks. The default honors
    /// the user's task count (or one task per live slot) with uniform
    /// sizes — the historical behavior.
    fn plan_splits(&mut self, req: &SplitRequest<'_>) -> SplitPlan {
        SplitPlan::Uniform {
            tasks: req.requested_tasks.unwrap_or(req.default_tasks).max(1),
        }
    }

    /// Picks the pending task (an index into `view.pending`) to dispatch
    /// on `node`, or `None` to leave the node's slot empty this heartbeat
    /// (admission control: an adaptive policy may hold the queue tail back
    /// from slow nodes).
    ///
    /// The default is Hadoop's locality pick ("it tries to minimize the
    /// number of remote blocks accesses"): the oldest pending task with an
    /// input replica on `node`, falling back to the queue front.
    fn pick_task(&mut self, view: &SchedView<'_>, node: NodeId) -> Option<usize> {
        if view.pending.is_empty() {
            return None;
        }
        Some(
            view.pending
                .iter()
                .position(|t| view.tasks.get(t.0 as usize).hints.contains(&node))
                .unwrap_or(0),
        )
    }

    /// Picks a running task to speculatively duplicate on `node` (the
    /// JobTracker only asks when speculation is enabled and the node has
    /// free slots after regular dispatch). The default is the historical
    /// straggler rule: the worst single-attempt task running past 1.5× the
    /// mean completed-attempt time, not already on `node`.
    fn pick_straggler(
        &mut self,
        view: &SchedView<'_>,
        node: NodeId,
        now: SimTime,
    ) -> Option<TaskId> {
        default_straggler(view, node, now, |_| true)
    }

    /// Names a running attempt on `node` to kill and requeue so its slot
    /// can be re-dispatched — asked only when preemption is enabled
    /// ([`PreemptionTuning::enabled`]) and `node` reported zero free slots
    /// after regular dispatch. The victim must be an incomplete
    /// sole-attempt map task running on `node` (see [`ReclaimVictim`]);
    /// the JobTracker kills it, fences the attempt, requeues the task, and
    /// bills the discarded slot-seconds to the named beneficiary. At most
    /// one victim per ask (one per node per heartbeat): natural completions
    /// usually cover the rest, so reclaim paces itself instead of
    /// pre-purchasing every missing slot with discarded runtime.
    ///
    /// The default reclaims nothing, so non-preemptive policies are
    /// byte-identical to the pre-hook runtime (pinned by the golden
    /// traces).
    fn reclaim(
        &mut self,
        views: &[SchedView<'_>],
        node: NodeId,
        now: SimTime,
    ) -> Option<ReclaimVictim> {
        let _ = (views, node, now);
        None
    }

    /// A task completed successfully (first winner only; speculative
    /// losers and zombies are not reported).
    fn on_task_completed(&mut self, completion: &TaskCompletion<'_>) {
        let _ = completion;
    }

    /// A TaskTracker was declared dead (heartbeat silence).
    fn on_node_dead(&mut self, node: NodeId) {
        let _ = node;
    }

    /// A node joined the cluster (first registration, including at deploy,
    /// and mid-session joins under dynamic membership). Policies that
    /// learn per-node state must treat the node as fresh: a recycled node
    /// id must not inherit estimates from a previous incarnation.
    fn on_node_join(&mut self, node: NodeId) {
        let _ = node;
    }

    /// Per-node throughput estimates for `kernel`, if this policy learns
    /// them (sorted by node; empty otherwise). Reported in
    /// [`JobResult::node_throughput`](crate::JobResult::node_throughput).
    fn throughput_estimates(&self, kernel: &str) -> Vec<NodeThroughput> {
        let _ = kernel;
        Vec::new()
    }
}

/// Instantiates the [`Scheduler`] for a policy.
pub fn build_scheduler(policy: SchedulerPolicy, cfg: &MrConfig) -> Box<dyn Scheduler> {
    match policy {
        SchedulerPolicy::Fifo => Box::new(Fifo),
        SchedulerPolicy::LocalityFirst => Box::new(LocalityFirst),
        SchedulerPolicy::Adaptive => Box::new(AdaptiveHetero::default()),
        SchedulerPolicy::FairShare => Box::new(FairShare::new(cfg)),
        SchedulerPolicy::DeadlineSlack => Box::new(DeadlineSlack::new(cfg)),
    }
}

/// The job-level argmin shared by [`FairShare`] and [`DeadlineSlack`]: the
/// view with the smallest `score` (`None` rules a view out), ties to the
/// lowest job id.
pub(crate) fn min_score_view<'v, 'a>(
    views: &'v [SchedView<'a>],
    mut score: impl FnMut(&SchedView<'a>) -> Option<f64>,
) -> Option<&'v SchedView<'a>> {
    let mut best: Option<(f64, &'v SchedView<'a>)> = None;
    for v in views {
        let Some(s) = score(v) else {
            continue;
        };
        if best.is_none_or(|(bs, bv)| s < bs || (s == bs && v.job < bv.job)) {
            best = Some((s, v));
        }
    }
    best.map(|(_, v)| v)
}

/// Work size of a task (bytes for file/reduce tasks, units for synthetic).
pub(crate) fn task_work_size(work: &TaskWork) -> u64 {
    match work {
        TaskWork::MapRange { start, end, .. } => end - start,
        TaskWork::MapUnits { units, .. } => *units,
        TaskWork::Reduce { fetches, .. } => fetches.iter().map(|&(_, b)| b).sum(),
    }
}

/// A running task is a straggler candidate once its elapsed time exceeds
/// this multiple of the mean completed-task time.
const SPECULATIVE_SLOWDOWN: f64 = 1.5;

/// The historical straggler rule, shared by every policy: a single-attempt
/// running task whose elapsed time exceeds [`SPECULATIVE_SLOWDOWN`] × the
/// mean completed-attempt time, not already running on the requesting node
/// and on a node `placeable(runner)` accepts; the worst offender (largest
/// elapsed) wins.
pub(crate) fn default_straggler(
    view: &SchedView<'_>,
    node: NodeId,
    now: SimTime,
    placeable: impl Fn(NodeId) -> bool,
) -> Option<TaskId> {
    if view.completed_task_times.is_empty() {
        return None;
    }
    let mean_ns: f64 = view
        .completed_task_times
        .iter()
        .map(|d| d.as_nanos() as f64)
        .sum::<f64>()
        / view.completed_task_times.len() as f64;
    let threshold = mean_ns * SPECULATIVE_SLOWDOWN;
    let mut best: Option<(TaskId, u64)> = None;
    for i in 0..view.tasks.len() {
        let ts = view.tasks.get(i);
        if ts.completed || ts.running.len() != 1 {
            continue;
        }
        let (_, run_node, started) = ts.running[0];
        if run_node == node || !placeable(run_node) {
            continue;
        }
        let elapsed = now.since(started).as_nanos();
        if (elapsed as f64) > threshold && best.map(|(_, e)| elapsed > e).unwrap_or(true) {
            best = Some((TaskId(i as u32), elapsed));
        }
    }
    best.map(|(t, _)| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_split_matches_historical_arithmetic() {
        // 10 items over 4 tasks: base 2, extra 2 → [3, 3, 2, 2].
        assert_eq!(SplitPlan::Uniform { tasks: 4 }.split(10), vec![3, 3, 2, 2]);
        // Fewer items than tasks: leading tasks get one each.
        assert_eq!(
            SplitPlan::Uniform { tasks: 5 }.split(2),
            vec![1, 1, 0, 0, 0]
        );
        assert_eq!(SplitPlan::Uniform { tasks: 1 }.split(7), vec![7]);
    }

    #[test]
    fn weighted_split_apportions_exactly() {
        let plan = SplitPlan::Weighted {
            weights: vec![3.0, 1.0],
        };
        assert_eq!(plan.split(100), vec![75, 25]);
        // Totals always preserved, even with awkward weights.
        let plan = SplitPlan::Weighted {
            weights: vec![1.0, 1.0, 1.0],
        };
        let counts = plan.split(10);
        assert_eq!(counts.iter().sum::<u64>(), 10);
        assert_eq!(counts, vec![4, 3, 3]);
    }

    #[test]
    fn task_sizes_by_work_kind() {
        assert_eq!(
            task_work_size(&TaskWork::MapUnits {
                units: 42,
                index: 0
            }),
            42
        );
        assert_eq!(
            task_work_size(&TaskWork::Reduce {
                fetches: vec![(NodeId(1), 10), (NodeId(2), 5)],
                pairs: 0,
                write_output: false,
                output_path: String::new(),
            }),
            15
        );
    }
}
