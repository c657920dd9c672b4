//! Job-level scheduling properties, driven by the workspace's own
//! deterministic RNG (no external property-testing dependency): every run
//! explores the same fixed set of random cases, so failures reproduce
//! exactly.
//!
//! A miniature slot simulator stands in for the JobTracker's heartbeat
//! loop: jobs hold tasks that are pending, running, or completed; each
//! step either offers a free slot to `pick_job` (dispatch) or completes a
//! pseudo-random running attempt (the completion order the policies must
//! not rely on). Views follow `pick_job_for`'s shape with speculation
//! *disabled* — one per active job, `eligible` ⇔ pending non-empty — so
//! "runnable" here means a job with pending tasks. (With speculation on,
//! the runtime also marks jobs eligible that only have running incomplete
//! tasks; that regular-dispatch-free path is exercised by the golden
//! multi-job traces, not this harness.)

use accelmr_des::{SimTime, Xoshiro256};
use accelmr_net::NodeId;

use crate::config::{JobId, MrConfig, SchedulerPolicy, TaskId};

use super::{build_scheduler, SchedView, Scheduler, TaskView};

struct MiniTask {
    completed: bool,
    is_reduce: bool,
    running: Vec<(u32, NodeId, SimTime)>,
}

impl MiniTask {
    fn fresh() -> Self {
        MiniTask {
            completed: false,
            is_reduce: false,
            running: Vec::new(),
        }
    }
}

struct MiniJob {
    id: u32,
    tenant: usize,
    weight: f64,
    deadline: Option<SimTime>,
}

struct MiniCluster {
    jobs: Vec<MiniJob>,
    /// Tasks per job, indexed like `jobs`.
    tasks: Vec<Vec<MiniTask>>,
    tenant_names: Vec<String>,
}

impl MiniCluster {
    fn pending(&self, j: usize) -> Vec<TaskId> {
        self.tasks[j]
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.completed && t.running.is_empty())
            .map(|(i, _)| TaskId(i as u32))
            .collect()
    }

    fn running_slots(&self) -> usize {
        self.tasks.iter().flatten().map(|t| t.running.len()).sum()
    }

    /// One `pick_job` decision, views built the way the JobTracker builds
    /// them. Returns the picked job index after asserting the core
    /// property: the pick is always an eligible view with runnable tasks.
    fn pick(&self, sched: &mut dyn Scheduler, node: NodeId) -> Option<usize> {
        let pendings: Vec<Vec<TaskId>> = (0..self.jobs.len()).map(|j| self.pending(j)).collect();
        let task_views: Vec<Vec<TaskView<'_>>> = self
            .tasks
            .iter()
            .map(|tasks| {
                tasks
                    .iter()
                    .map(|t| TaskView {
                        hints: &[],
                        is_reduce: t.is_reduce,
                        completed: t.completed,
                        running: &t.running,
                        size: 1,
                    })
                    .collect()
            })
            .collect();
        let views: Vec<SchedView<'_>> = self
            .jobs
            .iter()
            .zip(&task_views)
            .zip(&pendings)
            .map(|((job, tasks), pending)| {
                let (running_slots, running_incomplete) = super::view_counts(tasks);
                SchedView {
                    job: JobId(job.id),
                    kernel: "k",
                    tenant: &self.tenant_names[job.tenant],
                    weight: job.weight,
                    deadline: job.deadline,
                    eligible: !pending.is_empty(),
                    cluster_slots: 8,
                    pending,
                    tasks,
                    running_slots,
                    running_incomplete,
                    completed_task_times: &[],
                    slots_per_node: 2,
                }
            })
            .collect();
        let pick = sched.pick_job(&views, node, SimTime::ZERO);
        let any_eligible = views.iter().any(|v| v.eligible);
        match pick {
            None => {
                // Policies may decline, but with eligible work the shipped
                // ones never do.
                assert!(
                    !any_eligible,
                    "{} left eligible work unpicked",
                    sched.name()
                );
                None
            }
            Some(job) => {
                let v = views
                    .iter()
                    .find(|v| v.job == job)
                    .unwrap_or_else(|| panic!("{} picked unknown {job}", sched.name()));
                assert!(v.eligible, "{} picked ineligible {job}", sched.name());
                assert!(
                    !v.pending.is_empty(),
                    "{} picked {job} with no runnable tasks",
                    sched.name()
                );
                Some(self.jobs.iter().position(|j| j.id == job.0).expect("known"))
            }
        }
    }

    /// One [`Scheduler::reclaim`] ask, views built exactly like
    /// [`pick`](MiniCluster::pick)'s (eligible ⇔ pending non-empty).
    fn reclaim(
        &self,
        sched: &mut dyn Scheduler,
        node: NodeId,
        now: SimTime,
    ) -> Option<super::ReclaimVictim> {
        let pendings: Vec<Vec<TaskId>> = (0..self.jobs.len()).map(|j| self.pending(j)).collect();
        let task_views: Vec<Vec<TaskView<'_>>> = self
            .tasks
            .iter()
            .map(|tasks| {
                tasks
                    .iter()
                    .map(|t| TaskView {
                        hints: &[],
                        is_reduce: t.is_reduce,
                        completed: t.completed,
                        running: &t.running,
                        size: 1,
                    })
                    .collect()
            })
            .collect();
        let views: Vec<SchedView<'_>> = self
            .jobs
            .iter()
            .zip(&task_views)
            .zip(&pendings)
            .map(|((job, tasks), pending)| {
                let (running_slots, running_incomplete) = super::view_counts(tasks);
                SchedView {
                    job: JobId(job.id),
                    kernel: "k",
                    tenant: &self.tenant_names[job.tenant],
                    weight: job.weight,
                    deadline: job.deadline,
                    eligible: !pending.is_empty(),
                    cluster_slots: 8,
                    pending,
                    tasks,
                    running_slots,
                    running_incomplete,
                    completed_task_times: &[],
                    slots_per_node: 2,
                }
            })
            .collect();
        sched.reclaim(&views, node, now)
    }

    fn dispatch(&mut self, j: usize) {
        let t = self.pending(j)[0].0 as usize;
        self.tasks[j][t].running.push((1, NodeId(1), SimTime::ZERO));
    }

    /// Completes the `k`-th running attempt (in job/task order).
    fn complete_nth(&mut self, k: usize) {
        let mut left = k;
        for tasks in &mut self.tasks {
            for t in tasks.iter_mut() {
                if !t.running.is_empty() {
                    if left == 0 {
                        t.running.clear();
                        t.completed = true;
                        return;
                    }
                    left -= 1;
                }
            }
        }
        panic!("no {k}-th running attempt");
    }

    fn all_done(&self) -> bool {
        self.tasks.iter().flatten().all(|t| t.completed)
    }
}

fn random_cluster(
    rng: &mut Xoshiro256,
    tasks_per_job: std::ops::RangeInclusive<u64>,
) -> MiniCluster {
    let n_tenants = rng.range_inclusive(2, 4) as usize;
    let tenant_names: Vec<String> = (0..n_tenants).map(|t| format!("tenant-{t}")).collect();
    let mut jobs = Vec::new();
    let mut tasks = Vec::new();
    let mut id = 0;
    for tenant in 0..n_tenants {
        let weight = rng.range_inclusive(1, 8) as f64;
        for _ in 0..rng.range_inclusive(1, 2) {
            jobs.push(MiniJob {
                id,
                tenant,
                weight,
                deadline: None,
            });
            id += 1;
            let n = rng.range_inclusive(*tasks_per_job.start(), *tasks_per_job.end()) as usize;
            tasks.push((0..n).map(|_| MiniTask::fresh()).collect());
        }
    }
    MiniCluster {
        jobs,
        tasks,
        tenant_names,
    }
}

fn all_policies() -> Vec<Box<dyn Scheduler>> {
    let cfg = MrConfig::default();
    [
        SchedulerPolicy::Fifo,
        SchedulerPolicy::LocalityFirst,
        SchedulerPolicy::Adaptive,
        SchedulerPolicy::FairShare,
        SchedulerPolicy::DeadlineSlack,
    ]
    .into_iter()
    .map(|p| build_scheduler(p, &cfg))
    .collect()
}

/// Every shipped policy's `pick_job` — including the trait default the
/// task-level policies inherit — only ever returns eligible jobs with
/// runnable tasks, across random mixes of busy, drained, and completed
/// jobs (and declines only when nothing is eligible). Asserted inside
/// [`MiniCluster::pick`] on every decision.
#[test]
fn pick_job_never_returns_unrunnable_jobs() {
    let mut rng = Xoshiro256::seed_from_u64(0x71C);
    for _ in 0..64 {
        let mut c = random_cluster(&mut rng, 1..=6);
        // Randomly pre-drain some jobs: all tasks completed, or all
        // running (pending empty either way).
        for j in 0..c.jobs.len() {
            match rng.next_below(3) {
                0 => {
                    for t in c.tasks[j].iter_mut() {
                        t.completed = true;
                    }
                }
                1 => {
                    for t in c.tasks[j].iter_mut() {
                        t.running.push((1, NodeId(2), SimTime::ZERO));
                    }
                }
                _ => {}
            }
        }
        for sched in &mut all_policies() {
            // Drive a short random dispatch/complete sequence; `pick`
            // asserts the property at every step.
            for _ in 0..24 {
                let free = c.running_slots() < 8;
                if free {
                    if let Some(j) = c.pick(sched.as_mut(), NodeId(1)) {
                        c.dispatch(j);
                        continue;
                    }
                }
                let running = c.running_slots();
                if running == 0 {
                    break;
                }
                c.complete_nth(rng.next_below(running as u64) as usize);
            }
        }
    }
}

/// Weighted shares converge: on random tenant/weight mixes with deep
/// backlogs (every tenant stays busy throughout), the per-tenant integral
/// of occupied slots approaches the weight proportions.
#[test]
fn fair_share_weighted_shares_converge() {
    let mut rng = Xoshiro256::seed_from_u64(0xFA1);
    for case in 0..24 {
        let mut c = random_cluster(&mut rng, 2_000..=2_000);
        let mut sched = build_scheduler(SchedulerPolicy::FairShare, &MrConfig::default());
        let slots = 12;
        let n_tenants = c.tenant_names.len();
        let mut usage = vec![0u64; n_tenants]; // slot-steps per tenant
        let mut steps = 0u64;
        while steps < 3_000 {
            if c.running_slots() < slots {
                if let Some(j) = c.pick(sched.as_mut(), NodeId(1)) {
                    c.dispatch(j);
                }
            } else {
                let running = c.running_slots();
                c.complete_nth(rng.next_below(running as u64) as usize);
            }
            // Integrate occupied slots per tenant (unit time step).
            for (j, job) in c.jobs.iter().enumerate() {
                usage[job.tenant] +=
                    c.tasks[j].iter().map(|t| t.running.len()).sum::<usize>() as u64;
            }
            steps += 1;
        }
        // Backlogs must still be deep (the convergence claim only holds
        // while every tenant has work).
        for j in 0..c.jobs.len() {
            assert!(!c.pending(j).is_empty(), "case {case}: backlog drained");
        }
        let weight_of = |t: usize| c.jobs.iter().find(|j| j.tenant == t).unwrap().weight;
        let total_w: f64 = (0..n_tenants).map(weight_of).sum();
        let total_u: u64 = usage.iter().sum();
        for t in 0..n_tenants {
            let got = usage[t] as f64 / total_u as f64;
            let want = weight_of(t) / total_w;
            assert!(
                (got - want).abs() < 0.15,
                "case {case}: tenant {t} share {got:.3} vs weight share {want:.3} \
                 (weights: {:?}, usage: {usage:?})",
                (0..n_tenants).map(weight_of).collect::<Vec<_>>(),
            );
        }
    }
}

/// No tenant starves: across 1000 random dispatch sequences, every tenant
/// is first served within a handful of dispatches (a zero-share tenant
/// only ever loses ties against other zero-share tenants), every
/// backlogged tenant's inter-dispatch gap stays bounded, and every job
/// eventually completes.
#[test]
fn fair_share_never_starves_a_tenant() {
    let mut rng = Xoshiro256::seed_from_u64(0x57A);
    for case in 0..1000 {
        let mut c = random_cluster(&mut rng, 2..=10);
        let mut sched = build_scheduler(SchedulerPolicy::FairShare, &MrConfig::default());
        let slots = rng.range_inclusive(2, 6) as usize;
        let n_tenants = c.tenant_names.len();
        let mut first: Vec<Option<u64>> = vec![None; n_tenants];
        let mut last: Vec<u64> = vec![0; n_tenants];
        let mut dispatches = 0u64;
        for _ in 0..4_000 {
            if c.all_done() {
                break;
            }
            let can_dispatch =
                c.running_slots() < slots && (0..c.jobs.len()).any(|j| !c.pending(j).is_empty());
            if can_dispatch {
                let j = c.pick(sched.as_mut(), NodeId(1)).expect("eligible work");
                let t = c.jobs[j].tenant;
                dispatches += 1;
                first[t].get_or_insert(dispatches);
                // Gap bound: a backlogged tenant is served at least once
                // every `slots × Σweights/min-weight` dispatches (weighted
                // round length), with slack for slot churn.
                let gap = dispatches - last[t];
                assert!(
                    gap <= 16 * slots as u64 * 8,
                    "case {case}: tenant {t} waited {gap} dispatches"
                );
                last[t] = dispatches;
                c.dispatch(j);
            } else {
                let running = c.running_slots();
                assert!(running > 0, "case {case}: deadlock");
                c.complete_nth(rng.next_below(running as u64) as usize);
            }
        }
        assert!(c.all_done(), "case {case}: jobs never finished");
        // Every tenant is served early: a zero-share tenant only loses
        // ties to other zero-share tenants (lower job id), so its first
        // dispatch lands within a few churn rounds of the opening.
        for (t, served) in first.iter().enumerate() {
            let f = served.expect("tenant dispatched");
            assert!(
                f <= 64,
                "case {case}: tenant {t} first served at dispatch {f}"
            );
        }
    }
}

/// DeadlineSlack: deadline jobs win over deadline-less ones, urgency
/// orders by slack (EDF when unlearned), and learned durations shift the
/// order when remaining work differs.
#[test]
fn deadline_slack_orders_by_urgency() {
    let cfg = MrConfig::default();
    let mut sched = build_scheduler(SchedulerPolicy::DeadlineSlack, &cfg);
    let mut c = MiniCluster {
        jobs: vec![
            MiniJob {
                id: 0,
                tenant: 0,
                weight: 1.0,
                deadline: None,
            },
            MiniJob {
                id: 1,
                tenant: 0,
                weight: 1.0,
                deadline: Some(SimTime::from_nanos(300_000_000_000)), // t=300s
            },
            MiniJob {
                id: 2,
                tenant: 0,
                weight: 1.0,
                deadline: Some(SimTime::from_nanos(100_000_000_000)), // t=100s
            },
        ],
        tasks: (0..3)
            .map(|_| (0..4).map(|_| MiniTask::fresh()).collect())
            .collect(),
        tenant_names: vec!["t".into()],
    };
    // Unlearned = plain EDF: the t=100s deadline wins over t=300s and over
    // the deadline-less job 0, despite job 0's lower id.
    assert_eq!(c.pick(sched.as_mut(), NodeId(1)), Some(2));
    // Learned durations + unequal remaining work flip the order: give job
    // 1 a deep backlog so its projected finish overruns t=300s while job
    // 2 (4 tasks, 8 slots, one wave) keeps plenty of slack before t=100s.
    sched.on_task_completed(&super::TaskCompletion {
        node: NodeId(1),
        kernel: "k",
        is_reduce: false,
        elapsed: accelmr_des::SimDuration::from_secs(40),
        work: 1,
    });
    c.tasks[1] = (0..60).map(|_| MiniTask::fresh()).collect();
    // Job 1: 60 tasks / 8 slots = 8 waves × 40 s = 320 s > 300 s → slack
    // -20 s. Job 2: 1 wave × 40 s against 100 s → slack +60 s.
    assert_eq!(c.pick(sched.as_mut(), NodeId(1)), Some(1));
    // With every deadline job drained, the rest are served fair-share.
    for j in [1, 2] {
        for t in c.tasks[j].iter_mut() {
            t.completed = true;
        }
    }
    assert_eq!(c.pick(sched.as_mut(), NodeId(1)), Some(0));
}

/// FairShare unit behavior: zero-usage tenants win, weights scale usage,
/// ineligible jobs still bill their tenant, ties fall back to job order.
#[test]
fn fair_share_pick_accounting() {
    let cfg = MrConfig::default();
    let mut sched = build_scheduler(SchedulerPolicy::FairShare, &cfg);
    let mut c = MiniCluster {
        jobs: vec![
            MiniJob {
                id: 0,
                tenant: 0,
                weight: 1.0,
                deadline: None,
            },
            MiniJob {
                id: 1,
                tenant: 1,
                weight: 1.0,
                deadline: None,
            },
        ],
        tasks: (0..2)
            .map(|_| (0..6).map(|_| MiniTask::fresh()).collect())
            .collect(),
        tenant_names: vec!["a".into(), "b".into()],
    };
    // Tie at zero usage: lowest job id (FIFO degeneration).
    assert_eq!(c.pick(sched.as_mut(), NodeId(1)), Some(0));
    c.dispatch(0);
    // Tenant a now runs 1 slot; zero-usage tenant b wins.
    assert_eq!(c.pick(sched.as_mut(), NodeId(1)), Some(1));
    c.dispatch(1);
    // 1 vs 1: tie again → job 0.
    assert_eq!(c.pick(sched.as_mut(), NodeId(1)), Some(0));
    // Double tenant b's weight: 1/1 vs 1/2 → b wins until 2/2.
    c.jobs[1].weight = 2.0;
    assert_eq!(c.pick(sched.as_mut(), NodeId(1)), Some(1));
    c.dispatch(1);
    assert_eq!(c.pick(sched.as_mut(), NodeId(1)), Some(0));
}

/// The preemption battery's core safety property, across 1000 random
/// cluster states per policy (FairShare and DeadlineSlack, the two
/// reclaiming policies): `reclaim` never names a reduce attempt, a
/// completed task, an attempt younger than `min_attempt_age`, or an
/// attempt not running alone on the asked node; a victim job never
/// suffers more than `max_kills_per_job` kills over the scheduler's
/// lifetime; a task is never re-victimized within `cooldown`; every
/// victim names a beneficiary with pending work; and a zero-budget
/// scheduler facing the *same* views reclaims nothing, ever.
#[test]
fn reclaim_respects_budget_and_victim_rules() {
    use accelmr_des::{FxHashMap, SimDuration};

    use crate::config::PreemptionTuning;

    let tuning = PreemptionTuning {
        max_kills_per_job: 3,
        min_attempt_age: SimDuration::from_secs(5),
        cooldown: SimDuration::from_secs(10),
        slack_margin: SimDuration::from_secs(30),
    };
    let zero = PreemptionTuning {
        max_kills_per_job: 0,
        ..tuning
    };
    let mut rng = Xoshiro256::seed_from_u64(0xBEEF);
    let mut total_kills = 0u64;
    for case in 0..1000 {
        for policy in [SchedulerPolicy::FairShare, SchedulerPolicy::DeadlineSlack] {
            let cfg = MrConfig {
                scheduler: policy,
                preemption: tuning,
                ..MrConfig::default()
            };
            let mut sched = build_scheduler(policy, &cfg);
            let mut zero_sched = build_scheduler(
                policy,
                &MrConfig {
                    preemption: zero,
                    ..cfg.clone()
                },
            );
            let mut c = random_cluster(&mut rng, 2..=8);
            // Sprinkle deadlines (some urgent, some comfortable) and
            // reduce tasks — the latter must never be named.
            for j in 0..c.jobs.len() {
                if rng.next_below(2) == 0 {
                    c.jobs[j].deadline =
                        Some(SimTime::ZERO + SimDuration::from_secs(rng.range_inclusive(30, 400)));
                }
                for t in c.tasks[j].iter_mut() {
                    if rng.next_below(5) == 0 {
                        t.is_reduce = true;
                    }
                }
            }
            let mut kills: FxHashMap<u32, u32> = FxHashMap::default();
            let mut last_kill: FxHashMap<(u32, u32), SimTime> = FxHashMap::default();
            let mut next_attempt = 1u32;
            for step in 0u64..16 {
                let now_secs = 30 + step * 7;
                let now = SimTime::ZERO + SimDuration::from_secs(now_secs);
                // Random churn: start attempts (random node, random age,
                // reduces included) and retire some running tasks.
                for j in 0..c.jobs.len() {
                    for ti in 0..c.tasks[j].len() {
                        let t = &mut c.tasks[j][ti];
                        if !t.completed && t.running.is_empty() && rng.next_below(3) == 0 {
                            let age = rng.range_inclusive(0, 20);
                            let started = SimTime::ZERO + SimDuration::from_secs(now_secs - age);
                            let node = NodeId(rng.range_inclusive(1, 3) as u32);
                            t.running.push((next_attempt, node, started));
                            next_attempt += 1;
                        } else if !t.completed && !t.running.is_empty() && rng.next_below(6) == 0 {
                            t.running.clear();
                            t.completed = true;
                        }
                    }
                }
                let node = NodeId(rng.range_inclusive(1, 3) as u32);
                assert!(
                    c.reclaim(zero_sched.as_mut(), node, now).is_none(),
                    "case {case}: zero-budget {} reclaimed",
                    zero_sched.name()
                );
                if let Some(v) = c.reclaim(sched.as_mut(), node, now) {
                    total_kills += 1;
                    let j = c
                        .jobs
                        .iter()
                        .position(|j| j.id == v.job.0)
                        .unwrap_or_else(|| panic!("case {case}: unknown victim job {}", v.job));
                    let t = &c.tasks[j][v.task.0 as usize];
                    assert!(!t.is_reduce, "case {case}: reclaim named a reduce attempt");
                    assert!(!t.completed, "case {case}: reclaim named a completed task");
                    assert_eq!(
                        t.running.len(),
                        1,
                        "case {case}: victim is not a sole running attempt"
                    );
                    let (attempt, run_node, started) = t.running[0];
                    assert_eq!(
                        (attempt, run_node),
                        (v.attempt, node),
                        "case {case}: victim attempt not running on the asked node"
                    );
                    assert!(
                        now.since(started) >= tuning.min_attempt_age,
                        "case {case}: victim younger than min_attempt_age"
                    );
                    let b = c
                        .jobs
                        .iter()
                        .position(|j| j.id == v.beneficiary.0)
                        .unwrap_or_else(|| {
                            panic!("case {case}: unknown beneficiary {}", v.beneficiary)
                        });
                    assert!(
                        !c.pending(b).is_empty(),
                        "case {case}: beneficiary has nothing to dispatch"
                    );
                    // Budget: lifetime per-job kill cap, per-task cooldown.
                    let k = kills.entry(v.job.0).or_insert(0);
                    *k += 1;
                    assert!(
                        *k <= tuning.max_kills_per_job,
                        "case {case}: job {} exceeded the kill budget",
                        v.job
                    );
                    if let Some(&prev) = last_kill.get(&(v.job.0, v.task.0)) {
                        assert!(
                            now.since(prev) >= tuning.cooldown,
                            "case {case}: task re-victimized within cooldown"
                        );
                    }
                    last_kill.insert((v.job.0, v.task.0), now);
                    // Execute the kill: the attempt dies, the task requeues.
                    c.tasks[j][v.task.0 as usize].running.clear();
                }
            }
        }
    }
    // The harness must actually exercise kills, or everything above is
    // vacuously true.
    assert!(
        total_kills > 100,
        "only {total_kills} kills across all cases"
    );
}

/// A zero-budget preemption config (`max_kills_per_job == 0`, every other
/// knob maximally aggressive) is event-for-event identical to the default
/// disabled config on a real two-tenant cluster: the reclaim hook must
/// not perturb dispatch at all without a kill budget. Compared by
/// whole-run event-trace fingerprint, as the golden scheduler traces are.
#[test]
fn zero_budget_preemption_is_trace_identical() {
    use accelmr_des::SimDuration;

    use crate::builder::{ClusterBuilder, JobBuilder};
    use crate::config::PreemptionTuning;
    use crate::kernel::{FixedCostKernel, SumReducer};

    let run = |preemption: PreemptionTuning| -> (u64, u64) {
        let mut c = ClusterBuilder::new()
            .seed(77)
            .workers(4)
            .mr(MrConfig {
                scheduler: SchedulerPolicy::FairShare,
                preemption,
                ..MrConfig::default()
            })
            .deploy();
        c.sim.enable_trace(16);
        let job = |name: &str, tenant: &str, tasks: usize, units_per_task: u64| {
            JobBuilder::new(name)
                .synthetic(units_per_task * tasks as u64)
                .map_tasks(tasks)
                .kernel(FixedCostKernel::default())
                .tenant(tenant)
                .rpc_aggregate(SumReducer {
                    cycles_per_byte: 1.0,
                })
        };
        let mut session = c.session();
        session.submit(job("bulk", "batch", 16, 60_000_000));
        session.submit_after(
            SimDuration::from_secs(15),
            job("light", "interactive", 4, 20_000_000),
        );
        let rs = session.run_until_complete();
        assert!(rs.iter().all(|r| r.succeeded));
        assert!(rs
            .iter()
            .all(|r| r.preempted_attempts == 0 && r.wasted_slot_seconds == 0.0));
        (c.sim.trace().fingerprint(), c.sim.trace().recorded())
    };
    let disabled = run(PreemptionTuning::default());
    let zero_budget = run(PreemptionTuning {
        max_kills_per_job: 0,
        min_attempt_age: SimDuration::ZERO,
        cooldown: SimDuration::ZERO,
        slack_margin: SimDuration::from_secs(10_000),
    });
    assert_eq!(
        disabled, zero_budget,
        "zero-budget preemption perturbed the event stream"
    );
}

/// The JobTracker's [`SlotLedger`](crate::jobtracker::ledger::SlotLedger)
/// against an independent model, through seeded random interleavings of
/// everything that changes a shuffle job's books: dispatch, speculative
/// launch, successful report (folding its contribution, killing siblings),
/// a late report of a killed or fenced attempt, failed report, preemption
/// kill, and node death (vanished and fenced attempts, lost map outputs).
/// After every step the derived counts, the attempt log and tallies, the
/// folded totals, the slot-seconds integral and the pending queue must
/// agree with the model; a fenced attempt's report is caught exactly once;
/// and a map output lost right after it completed leaves the totals as
/// they were.
#[test]
fn slot_ledger_agrees_with_a_model_under_random_interleavings() {
    use super::TaskLookup;
    use crate::job::{TaskMetrics, TaskWork};
    use crate::jobtracker::ledger::{Count, SlotLedger, Totals};
    use crate::msgs::TaskReport;
    use accelmr_des::SimDuration;

    /// Tasks `0..MAPS` are maps, the rest reduces.
    const MAPS: usize = 5;
    const TASKS: usize = 7;
    const NODES: u64 = 4;

    #[derive(Default, Clone)]
    struct ModelTask {
        running: Vec<(u32, NodeId, SimTime)>,
        attempts: u32,
        /// The winning report, while the task is complete.
        won: Option<TaskReport>,
    }

    /// A report with a random contribution; keys and values come from a
    /// small range, so tasks share pairs and unfolding one is a true
    /// multiset subtraction.
    fn report(rng: &mut Xoshiro256, task: usize, attempt: u32, node: NodeId) -> TaskReport {
        TaskReport {
            job: JobId(0),
            task: TaskId(task as u32),
            attempt,
            ok: true,
            metrics: TaskMetrics {
                elapsed: SimDuration::from_millis(rng.range_inclusive(1, 5000)),
                bytes_read: rng.next_below(1 << 20),
                bytes_output: rng.next_below(1 << 20),
                local_reads: rng.next_below(4),
                remote_reads: rng.next_below(4),
            },
            kv: (0..rng.next_below(4))
                .map(|_| (rng.next_below(3), rng.next_below(3)))
                .collect(),
            digest: (rng.next_u64(), rng.next_below(3)),
            node,
        }
    }

    /// `totals` with its pairs sorted: folding is order-independent.
    fn sorted(totals: &Totals) -> Totals {
        let mut totals = totals.clone();
        totals.kv.sort_unstable();
        totals
    }

    for seed in 0..24 {
        let mut rng = Xoshiro256::seed_from_u64(0x1ED6E2 ^ seed);
        let mut now = SimTime::ZERO + SimDuration::from_secs(1);
        let mut ledger = SlotLedger::new(JobId(seed as u32), true, now);
        for index in 0..TASKS as u64 {
            let work = TaskWork::MapUnits { units: 1, index };
            ledger.push_task(work, Vec::new(), index >= MAPS as u64);
        }
        let mut model = vec![ModelTask::default(); TASKS];
        let mut log: Vec<(TaskId, NodeId)> = Vec::new();
        let (mut failures, mut speculative, mut preemptions) = (0u32, 0u32, 0u32);
        let mut task_times: Vec<SimDuration> = Vec::new();
        let mut last_progress = now;
        let mut fenced: Vec<(TaskId, u32)> = Vec::new();
        // Slot-seconds moved outside the timeline by preemption re-billing,
        // and the part billed back as wasted work.
        let (mut charged, mut wasted) = (0.0f64, 0.0f64);
        // Attempts killed as speculative losers, by preemption or by a
        // node death, whose reports may still arrive.
        let mut zombies: Vec<(TaskId, u32, NodeId)> = Vec::new();

        for step in 0..400 {
            let ctx = format!("seed {seed} step {step}");
            now += SimDuration::from_millis(rng.range_inclusive(0, 900));
            // A running attempt picked at random, if any: (task, attempt, node).
            let running: Vec<(usize, u32, NodeId)> = model
                .iter()
                .enumerate()
                .flat_map(|(t, m)| m.running.iter().map(move |&(a, n, _)| (t, a, n)))
                .collect();
            let victim = rng.choose_index(running.len()).map(|i| running[i]);
            let node = NodeId(rng.range_inclusive(1, NODES) as u32);
            match rng.next_below(9) {
                // Dispatch a pending task (twice as likely as the rest), or
                // a speculative copy of a running incomplete one.
                op @ 0..=2 => {
                    let task = if op < 2 {
                        ledger.make_contiguous();
                        let maps = ledger.pending(false).len();
                        rng.choose_index(maps + ledger.pending(true).len())
                            .map(|idx| {
                                let (kind, idx) = if idx < maps {
                                    (false, idx)
                                } else {
                                    (true, idx - maps)
                                };
                                ledger.take_pending(kind, idx).expect("index in range")
                            })
                    } else {
                        victim.map(|(t, _, _)| TaskId(t as u32))
                    };
                    if let Some(task) = task {
                        let attempt = ledger.add_attempt(task, node, now, op == 2);
                        let m = &mut model[task.0 as usize];
                        m.attempts += 1;
                        assert_eq!(attempt, m.attempts, "{ctx}");
                        m.running.push((attempt, node, now));
                        log.push((task, node));
                        speculative += u32::from(op == 2);
                        last_progress = now;
                    }
                }
                // Successful report: the task completes and folds its
                // contribution, siblings die. Sometimes the map's node dies
                // at once and the output is lost again.
                3 => {
                    if let Some((t, a, n)) = victim {
                        let r = report(&mut rng, t, a, n);
                        let prior = sorted(&ledger.tally().totals);
                        let others = ledger.complete(&r, now);
                        let expect: Vec<_> = model[t]
                            .running
                            .iter()
                            .filter(|s| (s.0, s.1) != (a, n))
                            .copied()
                            .collect();
                        assert_eq!(others, expect, "{ctx}");
                        zombies
                            .extend(others.iter().map(|&(sa, sn, _)| (TaskId(t as u32), sa, sn)));
                        model[t].running.clear();
                        task_times.push(r.metrics.elapsed);
                        last_progress = now;
                        if t < MAPS && rng.next_below(4) == 0 {
                            ledger.lose_output(TaskId(t as u32), now);
                            assert_eq!(sorted(&ledger.tally().totals), prior, "{ctx}: round trip");
                        } else {
                            model[t].won = Some(r);
                        }
                    }
                }
                // A killed attempt's report arrives after all: a fenced
                // one is caught exactly once; otherwise there is nothing to
                // remove and nothing changes.
                4 => {
                    if let Some((task, a, n)) = zombies.pop() {
                        let was_fenced = fenced.iter().position(|&f| f == (task, a));
                        assert_eq!(ledger.unfence(task, a), was_fenced.is_some(), "{ctx}");
                        assert!(!ledger.unfence(task, a), "{ctx}: fence lifted twice");
                        if let Some(i) = was_fenced {
                            fenced.swap_remove(i);
                        }
                        let removed =
                            ledger.remove_attempts(task, now, false, |x, y| x == a && y == n);
                        assert!(removed.is_empty(), "{ctx}");
                    }
                }
                // Failed report: the one attempt leaves.
                5 => {
                    if let Some((t, a, n)) = victim {
                        let r = TaskReport {
                            ok: false,
                            ..report(&mut rng, t, a, n)
                        };
                        assert_eq!(ledger.fail(&r, now), model[t].attempts, "{ctx}");
                        failures += 1;
                        model[t].running.retain(|&s| (s.0, s.1) != (a, n));
                    }
                }
                // Preemption kill of a map attempt: it leaves, fenced, and
                // its runtime is re-billed (here, half the time, back to the
                // same job as its wasted work). A reduce is never a victim.
                6 => match victim {
                    Some((t, a, n)) if t >= MAPS => {
                        assert_eq!(ledger.preempt(TaskId(t as u32), a, n, now), None, "{ctx}");
                    }
                    Some((t, a, n)) => {
                        let task = TaskId(t as u32);
                        let elapsed = ledger.preempt(task, a, n, now).expect("attempt runs");
                        let started = model[t].running.iter().find(|s| (s.0, s.1) == (a, n));
                        let elapsed_model = now.since(started.expect("in the model").2);
                        assert_eq!(elapsed, elapsed_model.as_secs_f64(), "{ctx}");
                        charged -= elapsed;
                        preemptions += 1;
                        if rng.next_below(2) == 0 {
                            ledger.bill_waste(elapsed);
                            charged += elapsed;
                            wasted += elapsed;
                        }
                        model[t].running.retain(|&s| (s.0, s.1) != (a, n));
                        fenced.push((task, a));
                        zombies.push((task, a, n));
                    }
                    None => {}
                },
                // Node death: its attempts vanish, fenced, and its
                // completed map outputs are lost.
                _ => {
                    for (t, m) in model.iter_mut().enumerate() {
                        let task = TaskId(t as u32);
                        let removed = ledger.remove_attempts(task, now, true, |_, n| n == node);
                        let before = m.running.len();
                        m.running.retain(|&(_, n, _)| n != node);
                        assert_eq!(removed.len(), before - m.running.len(), "{ctx}");
                        for &(a, n, _) in &removed {
                            fenced.push((task, a));
                            zombies.push((task, a, n));
                        }
                        let ran_on = m.won.as_ref().map(|r| r.node);
                        assert_eq!(ledger.task(task).ran_on, ran_on, "{ctx}");
                        if t < MAPS && ran_on == Some(node) {
                            ledger.lose_output(task, now);
                            m.won = None;
                        }
                    }
                }
            }

            // The task table itself.
            for (t, m) in model.iter().enumerate() {
                let view = ledger.get(t);
                let running: Vec<(u32, NodeId, SimTime)> = view.running.to_vec();
                assert_eq!(running, m.running, "{ctx}: running list of task {t}");
                assert_eq!(view.completed, m.won.is_some(), "{ctx}");
                assert_eq!(ledger.task(TaskId(t as u32)).attempts, m.attempts, "{ctx}");
            }
            // Completed maps and reduces, booked and recounted.
            let count = |tasks: &[ModelTask]| Count {
                tasks: tasks.len() as u32,
                completed: tasks.iter().filter(|m| m.won.is_some()).count() as u32,
            };
            let tally = ledger.tally();
            assert_eq!(tally.maps(), count(&model[..MAPS]), "{ctx}");
            assert_eq!(tally.reduces(), count(&model[MAPS..]), "{ctx}");
            let maps_done = tally.maps().completed == tally.maps().tasks;
            assert_eq!(ledger.shuffle_ready(), maps_done, "{ctx}");
            // The attempt log, the tallies and the folded totals.
            assert_eq!(tally.dispatch_log, log, "{ctx}");
            assert_eq!(
                (
                    tally.failed_attempts,
                    tally.speculative_attempts,
                    tally.preempted_attempts
                ),
                (failures, speculative, preemptions),
                "{ctx}"
            );
            assert_eq!(tally.wasted_slot_seconds, wasted, "{ctx}");
            assert_eq!(tally.task_times, task_times, "{ctx}");
            assert_eq!(tally.last_progress, last_progress, "{ctx}");
            let mut totals = Totals::default();
            for r in model.iter().filter_map(|m| m.won.as_ref()) {
                totals.bytes_read += r.metrics.bytes_read;
                totals.bytes_output += r.metrics.bytes_output;
                totals.local_reads += r.metrics.local_reads;
                totals.remote_reads += r.metrics.remote_reads;
                totals.digest_acc = totals.digest_acc.wrapping_add(r.digest.0);
                totals.digest_count += r.digest.1;
                totals.kv.extend_from_slice(&r.kv);
            }
            assert_eq!(sorted(&tally.totals), sorted(&totals), "{ctx}: totals");
            // running_now = Σ running; running_tasks = #{incomplete ∧ running}.
            let running_now: usize = model.iter().map(|m| m.running.len()).sum();
            assert_eq!(tally.running_now as usize, running_now, "{ctx}");
            let running_tasks = model
                .iter()
                .filter(|m| m.won.is_none() && !m.running.is_empty())
                .count();
            assert_eq!(tally.running_tasks as usize, running_tasks, "{ctx}");
            // The timeline ends at the current level, and its integral (up
            // to its last step, where the ledger last integrated) plus the
            // re-billed seconds is the slot-seconds figure.
            let timeline = &tally.share_timeline;
            assert_eq!(
                timeline.last().map_or(0, |&(_, level)| level as usize),
                running_now,
                "{ctx}"
            );
            let integral: f64 = timeline
                .windows(2)
                .map(|w| w[0].1 as f64 * w[1].0.since(w[0].0).as_secs_f64())
                .sum();
            assert!(
                (tally.slot_seconds - (integral + charged)).abs() < 1e-9,
                "{ctx}: slot_seconds {} vs timeline {} + charged {}",
                tally.slot_seconds,
                integral,
                charged
            );
            // Pending holds exactly the idle incomplete tasks, each once,
            // each in its kind's queue.
            ledger.make_contiguous();
            for kind in [false, true] {
                let queue = ledger.pending(kind);
                assert!(
                    queue.iter().all(|&t| ledger.task(t).is_reduce == kind),
                    "{ctx}"
                );
            }
            let mut queued: Vec<u32> = [false, true]
                .into_iter()
                .flat_map(|kind| ledger.pending(kind))
                .map(|t| t.0)
                .collect();
            queued.sort_unstable();
            let idle: Vec<u32> = (0..TASKS as u32)
                .filter(|&t| {
                    let m = &model[t as usize];
                    m.won.is_none() && m.running.is_empty()
                })
                .collect();
            assert_eq!(queued, idle, "{ctx}: pending queue");
        }
    }
}
