//! Heterogeneity-aware adaptive dispatch.
//!
//! The paper's mixed-cluster finding (§V, reproduced by
//! `core::hetero::stragglers_on_plain_nodes_dominate_cpu_bound_jobs`): with
//! placement-blind scheduling, the *slowest class of nodes sets the
//! CPU-bound job time*, so partial accelerator coverage buys far less than
//! its share. [`AdaptiveHetero`] is the remedy. It learns per-node,
//! per-kernel-family throughput online — an EWMA of work/second over
//! completed attempts — and uses the estimates three ways:
//!
//! 1. **Split sizing** ([`Scheduler::plan_splits`]): before anything is
//!    learned, inputs are *oversplit* (`OVERSPLIT × slots` tasks) so
//!    demand-driven dispatch lets fast nodes pull proportionally more
//!    work; once the cluster's speed spread is known, splits are sized
//!    proportionally to slot throughput (the paper's per-node-slots knob
//!    generalized to continuous weights).
//! 2. **Dispatch** ([`Scheduler::pick_task`]): fast nodes take the largest
//!    pending split, slow nodes the smallest (locality still preferred
//!    among candidates), and a *tail guard* holds the last tasks back from
//!    nodes slower than `TAIL_FRACTION ×` the best — the final splits are
//!    exactly the ones that become stragglers.
//! 3. **Speculation** ([`Scheduler::pick_straggler`]): speculative copies
//!    are only placed on nodes at least as fast as the one running the
//!    straggler, so duplicates actually overtake.

use accelmr_des::FxHashMap;
use accelmr_des::SimTime;
use accelmr_net::NodeId;

use crate::config::TaskId;

use super::{
    default_straggler, NodeThroughput, SchedView, Scheduler, SplitPlan, SplitRequest,
    TaskCompletion,
};

/// EWMA smoothing factor for per-node throughput observations
/// (`rate ← alpha·obs + (1-alpha)·rate`).
const EWMA_ALPHA: f64 = 0.4;
/// Before any throughput is learned, synthetic/file inputs are split into
/// `OVERSPLIT × total slots` tasks (instead of one per slot), so
/// demand-driven dispatch lets fast nodes pull proportionally more work —
/// the paper's per-node-slots knob generalized.
const OVERSPLIT: f64 = 3.0;
/// A node whose learned throughput is below `TAIL_FRACTION × best` is held
/// back from the queue tail (it would turn the last tasks into
/// stragglers); the guard engages once the pending queue fits into the
/// fast nodes' slots.
const TAIL_FRACTION: f64 = 0.5;
/// Minimum max/min learned-throughput ratio before split sizing switches
/// from uniform to throughput-weighted.
const SPREAD_THRESHOLD: f64 = 1.5;

#[derive(Clone, Copy, Debug)]
struct NodeStat {
    rate: f64,
    samples: u64,
}

/// The heterogeneity-aware scheduler. See the module docs for the
/// mechanism; construct via
/// [`SchedulerPolicy::Adaptive`](crate::SchedulerPolicy::Adaptive).
#[derive(Debug, Default)]
pub struct AdaptiveHetero {
    /// kernel family → node → learned throughput.
    rates: FxHashMap<String, FxHashMap<NodeId, NodeStat>>,
}

impl AdaptiveHetero {
    fn family(&self, kernel: &str) -> Option<&FxHashMap<NodeId, NodeStat>> {
        self.rates.get(kernel)
    }

    fn rate_of(&self, kernel: &str, node: NodeId) -> Option<f64> {
        self.family(kernel)
            .and_then(|m| m.get(&node))
            .map(|s| s.rate)
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "max is order-free over the finite rates the EWMA produces"
    )]
    fn best_rate(&self, kernel: &str) -> f64 {
        self.family(kernel)
            .map(|m| m.values().map(|s| s.rate).fold(0.0, f64::max))
            .unwrap_or(0.0)
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "NOT order-free: f64 addition is not associative, so the sum's low bits depend on bucket order, i.e. on insertion history; it is reproducible run to run only because the hasher's seed is fixed"
    )]
    fn mean_rate(&self, kernel: &str) -> Option<f64> {
        let m = self.family(kernel)?;
        if m.is_empty() {
            return None;
        }
        Some(m.values().map(|s| s.rate).sum::<f64>() / m.len() as f64)
    }

    /// Slots on nodes fast enough to take the queue tail.
    #[expect(clippy::disallowed_methods, reason = "a count is order-free")]
    fn fast_slots(&self, kernel: &str, slots_per_node: usize) -> usize {
        let best = self.best_rate(kernel);
        if best <= 0.0 {
            return 0;
        }
        let floor = TAIL_FRACTION * best;
        self.family(kernel)
            .map(|m| m.values().filter(|s| s.rate >= floor).count())
            .unwrap_or(0)
            * slots_per_node
    }

    /// Drops `node`'s estimates from every kernel family.
    fn forget(&mut self, node: NodeId) {
        #[expect(
            clippy::iter_over_hash_type,
            clippy::disallowed_methods,
            reason = "each family's removal is independent of the others; visit order cannot be observed"
        )]
        for family in self.rates.values_mut() {
            family.remove(&node);
        }
    }
}

impl Scheduler for AdaptiveHetero {
    fn name(&self) -> &'static str {
        "adaptive-hetero"
    }

    fn plan_splits(&mut self, req: &SplitRequest<'_>) -> SplitPlan {
        // Learned weights only apply when every live node has an estimate
        // for this kernel family and the spread is worth acting on.
        let known: Vec<f64> = req
            .live_nodes
            .iter()
            .filter_map(|&n| self.rate_of(req.kernel, n))
            .collect();
        let fully_known = !req.live_nodes.is_empty() && known.len() == req.live_nodes.len();
        let spread_worth_it = fully_known && {
            let max = known.iter().copied().fold(f64::MIN, f64::max);
            let min = known.iter().copied().fold(f64::MAX, f64::min);
            min > 0.0 && max / min >= SPREAD_THRESHOLD
        };
        let tasks = match req.requested_tasks {
            Some(n) => n.max(1),
            // Learned (weighted or near-uniform): one split per slot —
            // oversplitting would only pay per-task overhead. In
            // particular, a family whose learned spread is small (e.g.
            // feed-bound data jobs) goes back to the classic plan.
            None if fully_known => req.default_tasks.max(1),
            // Unlearned: oversplit so demand-driven dispatch can shift
            // work toward whoever turns out to be fast.
            None => ((OVERSPLIT * req.default_tasks as f64).ceil() as usize).max(1),
        };
        if spread_worth_it {
            // Weight task i by the throughput of the slot it round-robins
            // onto: fast nodes' splits are proportionally larger.
            let mut slot_rates: Vec<f64> = Vec::new();
            for &n in req.live_nodes {
                let r = self.rate_of(req.kernel, n).unwrap_or(1.0);
                slot_rates.extend(std::iter::repeat_n(r, req.slots_per_node.max(1)));
            }
            if slot_rates.is_empty() {
                return SplitPlan::Uniform { tasks };
            }
            SplitPlan::Weighted {
                weights: (0..tasks)
                    .map(|i| slot_rates[i % slot_rates.len()])
                    .collect(),
            }
        } else {
            SplitPlan::Uniform { tasks }
        }
    }

    fn pick_task(&mut self, view: &SchedView<'_>, node: NodeId) -> Option<usize> {
        if view.pending.is_empty() {
            return None;
        }
        let my_rate = self.rate_of(view.kernel, node);

        // Tail guard: once the queue fits into the fast nodes' slots, a
        // known-slow node stops taking work — whatever it would grab now
        // would finish last and set the job time.
        if let Some(my) = my_rate {
            let best = self.best_rate(view.kernel);
            if best > 0.0 && my < TAIL_FRACTION * best {
                let fast = self.fast_slots(view.kernel, view.slots_per_node);
                if fast > 0 && view.pending.len() <= fast {
                    return None;
                }
            }
        }

        // Locality still wins among candidates (data tasks).
        let local: Vec<usize> = (0..view.pending.len())
            .filter(|&i| {
                let t = view.tasks.get(view.pending[i].0 as usize);
                t.hints.contains(&node)
            })
            .collect();
        let pool: Vec<usize> = if local.is_empty() {
            (0..view.pending.len()).collect()
        } else {
            local
        };

        let size = |i: usize| view.tasks.get(view.pending[i].0 as usize).size;
        match my_rate {
            // Unknown node: take the queue front (and start learning).
            None => pool.first().copied(),
            Some(my) => {
                let mean = self.mean_rate(view.kernel).unwrap_or(my);
                let mut best_i = pool[0];
                for &i in &pool[1..] {
                    let better = if my >= mean {
                        // Fast node: largest split (it can afford it).
                        size(i) > size(best_i)
                    } else {
                        // Slow node: smallest split (bound its straggle).
                        size(i) < size(best_i)
                    };
                    if better {
                        best_i = i;
                    }
                }
                Some(best_i)
            }
        }
    }

    fn pick_straggler(
        &mut self,
        view: &SchedView<'_>,
        node: NodeId,
        now: SimTime,
    ) -> Option<TaskId> {
        // Placement filter: only duplicate onto a node at least as fast as
        // the current runner (unknown speeds are allowed — the copy
        // doubles as a probe).
        let my_rate = self.rate_of(view.kernel, node);
        default_straggler(view, node, now, |runner| {
            match (my_rate, self.rate_of(view.kernel, runner)) {
                (Some(my), Some(theirs)) => my >= theirs,
                _ => true,
            }
        })
    }

    fn on_task_completed(&mut self, completion: &TaskCompletion<'_>) {
        // Reduce attempts are fetch-bound, not kernel-bound: excluded from
        // the throughput model.
        if completion.is_reduce || completion.work == 0 {
            return;
        }
        let secs = completion.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return;
        }
        let obs = completion.work as f64 / secs;
        let stat = self
            .rates
            .entry(completion.kernel.to_string())
            .or_default()
            .entry(completion.node)
            .or_insert(NodeStat {
                rate: obs,
                samples: 0,
            });
        if stat.samples > 0 {
            stat.rate = EWMA_ALPHA * obs + (1.0 - EWMA_ALPHA) * stat.rate;
        } else {
            stat.rate = obs;
        }
        stat.samples += 1;
    }

    fn on_node_dead(&mut self, node: NodeId) {
        // Forget the dead node's estimates: best/mean/fast-slot
        // computations must only ever see nodes that can still take work.
        self.forget(node);
    }

    fn on_node_join(&mut self, node: NodeId) {
        // A (re)joining node is seeded as unlearned: it takes queue-front
        // work as a probe (see `pick_task`), and split planning keeps it
        // out of weighted sizing until it has estimates. Stale rates from
        // a previous incarnation of the same id must not steer dispatch.
        self.forget(node);
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "sorted by node below, and node keys are unique"
    )]
    fn throughput_estimates(&self, kernel: &str) -> Vec<NodeThroughput> {
        let mut out: Vec<NodeThroughput> = self
            .family(kernel)
            .map(|m| {
                m.iter()
                    .map(|(&node, s)| NodeThroughput {
                        node,
                        throughput: s.rate,
                        samples: s.samples,
                    })
                    .collect()
            })
            .unwrap_or_default();
        out.sort_by_key(|e| e.node);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JobId;
    use crate::sched::{TaskLookup, TaskView};
    use accelmr_des::SimDuration;

    fn sched() -> AdaptiveHetero {
        AdaptiveHetero::default()
    }

    fn complete(s: &mut AdaptiveHetero, node: NodeId, work: u64, secs: f64) {
        s.on_task_completed(&TaskCompletion {
            job: JobId(0),
            task: TaskId(0),
            node,
            kernel: "k",
            is_reduce: false,
            elapsed: SimDuration::from_secs_f64(secs),
            work,
        });
    }

    #[test]
    fn ewma_learns_per_node_rates() {
        let mut s = sched();
        complete(&mut s, NodeId(1), 1000, 1.0); // 1000/s
        complete(&mut s, NodeId(2), 100, 1.0); // 100/s
        assert_eq!(s.rate_of("k", NodeId(1)), Some(1000.0));
        assert_eq!(s.rate_of("k", NodeId(2)), Some(100.0));
        // Second observation folds in with alpha = 0.4.
        complete(&mut s, NodeId(1), 500, 1.0);
        let r = s.rate_of("k", NodeId(1)).unwrap();
        assert!((r - (0.4 * 500.0 + 0.6 * 1000.0)).abs() < 1e-9, "{r}");
        // Families are independent.
        assert_eq!(s.rate_of("other", NodeId(1)), None);
        // Reduce attempts don't pollute the model.
        s.on_task_completed(&TaskCompletion {
            job: JobId(0),
            task: TaskId(9),
            node: NodeId(3),
            kernel: "k",
            is_reduce: true,
            elapsed: SimDuration::from_secs(1),
            work: 1_000_000,
        });
        assert_eq!(s.rate_of("k", NodeId(3)), None);
    }

    fn view<'a>(
        pending: &'a [TaskId],
        tasks: &'a dyn TaskLookup,
        times: &'a [SimDuration],
    ) -> SchedView<'a> {
        let (running_slots, running_incomplete) = crate::sched::view_counts(tasks);
        SchedView {
            job: JobId(0),
            kernel: "k",
            tenant: "default",
            weight: 1.0,
            deadline: None,
            submitted: SimTime::ZERO,
            eligible: true,
            cluster_slots: 4,
            pending,
            tasks,
            running_slots,
            running_incomplete,
            completed_task_times: times,
            slots_per_node: 2,
        }
    }

    fn map_task(size: u64) -> TaskView<'static> {
        TaskView {
            hints: &[],
            is_reduce: false,
            completed: false,
            running: &[],
            size,
        }
    }

    #[test]
    fn fast_nodes_take_largest_splits_slow_nodes_smallest() {
        let mut s = sched();
        complete(&mut s, NodeId(1), 1000, 1.0);
        complete(&mut s, NodeId(2), 100, 1.0);
        let tasks = [map_task(10), map_task(50), map_task(30)];
        let pending = [TaskId(0), TaskId(1), TaskId(2)];
        // Plenty pending: no tail guard. Fast node grabs the 50, slow the 10.
        let v = view(&pending, &tasks, &[]);
        assert_eq!(s.pick_task(&v, NodeId(1)), Some(1));
        assert_eq!(s.pick_task(&v, NodeId(2)), Some(0));
        // Unknown node: queue front.
        assert_eq!(s.pick_task(&v, NodeId(3)), Some(0));
    }

    #[test]
    fn tail_guard_holds_queue_tail_back_from_slow_nodes() {
        let mut s = sched();
        complete(&mut s, NodeId(1), 1000, 1.0);
        complete(&mut s, NodeId(2), 100, 1.0); // 10x slower than best
        let tasks = [map_task(10), map_task(20)];
        let pending = [TaskId(0), TaskId(1)];
        let v = view(&pending, &tasks, &[]);
        // 2 pending ≤ 2 fast slots (1 fast node × 2 slots): slow node held.
        assert_eq!(s.pick_task(&v, NodeId(2)), None);
        // The fast node still dispatches.
        assert!(s.pick_task(&v, NodeId(1)).is_some());
        // A long queue disables the guard (slow nodes must help).
        let tasks5 = [
            map_task(1),
            map_task(2),
            map_task(3),
            map_task(4),
            map_task(5),
        ];
        let pending5: Vec<TaskId> = (0..5).map(TaskId).collect();
        let v5 = view(&pending5, &tasks5, &[]);
        assert!(s.pick_task(&v5, NodeId(2)).is_some());
    }

    #[test]
    fn speculative_copies_only_land_on_not_slower_nodes() {
        let mut s = sched();
        complete(&mut s, NodeId(1), 1000, 1.0);
        complete(&mut s, NodeId(2), 100, 1.0);
        let started = SimTime::ZERO;
        let running_slow: [(u32, NodeId, SimTime); 1] = [(1, NodeId(2), started)];
        let tasks = [TaskView {
            hints: &[],
            is_reduce: false,
            completed: false,
            running: &running_slow,
            size: 100,
        }];
        let times = [SimDuration::from_secs(1)];
        let now = SimTime::ZERO + SimDuration::from_secs(100);
        let v = view(&[], &tasks, &times);
        // Fast node duplicates the slow node's straggler…
        assert_eq!(s.pick_straggler(&v, NodeId(1), now), Some(TaskId(0)));
        // …but another slow node does not volunteer for a fast runner.
        let running_fast: [(u32, NodeId, SimTime); 1] = [(1, NodeId(1), started)];
        let tasks_fast = [TaskView {
            hints: &[],
            is_reduce: false,
            completed: false,
            running: &running_fast,
            size: 100,
        }];
        let v2 = view(&[], &tasks_fast, &times);
        assert_eq!(s.pick_straggler(&v2, NodeId(2), now), None);
    }

    #[test]
    fn plan_oversplits_until_learned_then_weights_by_rate() {
        let mut s = sched();
        let live = [NodeId(1), NodeId(2)];
        let req = SplitRequest {
            job: JobId(0),
            kernel: "k",
            total: 1000,
            requested_tasks: None,
            default_tasks: 4,
            live_nodes: &live,
            slots_per_node: 2,
        };
        // Nothing learned: oversplit 3× the slot count.
        assert_eq!(s.plan_splits(&req), SplitPlan::Uniform { tasks: 12 });
        // Learned 3x spread: one split per slot, weighted by rate.
        complete(&mut s, NodeId(1), 300, 1.0);
        complete(&mut s, NodeId(2), 100, 1.0);
        match s.plan_splits(&req) {
            SplitPlan::Weighted { weights } => {
                assert_eq!(weights, vec![300.0, 300.0, 100.0, 100.0]);
            }
            other => panic!("expected weighted plan, got {other:?}"),
        }
        // An explicit task count is always honored.
        let req_fixed = SplitRequest {
            requested_tasks: Some(3),
            ..req
        };
        match s.plan_splits(&req_fixed) {
            SplitPlan::Weighted { weights } => assert_eq!(weights.len(), 3),
            other => panic!("expected weighted plan, got {other:?}"),
        }
        // Node death forgets its estimates and unlocks re-probing.
        s.on_node_dead(NodeId(1));
        assert_eq!(s.rate_of("k", NodeId(1)), None);
        assert_eq!(s.throughput_estimates("k").len(), 1);
    }

    #[test]
    fn rejoining_node_is_seeded_unlearned() {
        let mut s = sched();
        complete(&mut s, NodeId(1), 1000, 1.0);
        complete(&mut s, NodeId(2), 100, 1.0);
        // Node 2 leaves and a new machine joins under the recycled id: its
        // old (slow) estimate must not survive the join.
        s.on_node_dead(NodeId(2));
        s.on_node_join(NodeId(2));
        assert_eq!(s.rate_of("k", NodeId(2)), None);
        // Unlearned: takes the queue front as a probe instead of being
        // tail-guarded off the work.
        let tasks = [map_task(10), map_task(50)];
        let pending = [TaskId(0), TaskId(1)];
        let v = view(&pending, &tasks, &[]);
        assert_eq!(s.pick_task(&v, NodeId(2)), Some(0));
    }
}
