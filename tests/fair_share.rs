//! Multi-tenant fairness and deadline scheduling, end to end: weighted
//! share splits, head-of-line-blocking immunity, deadline hits FIFO
//! misses, and digest identity across every job-level policy.

use accelmr::mapred::{FixedCostKernel, SchedulerPolicy, SumReducer};
use accelmr::prelude::*;

const MB: u64 = 1 << 20;

/// A synthetic job shaped for slot accounting: `tasks` map tasks of
/// `task_secs` seconds each (FixedCostKernel at 100 ns/unit).
fn slot_job(name: &str, tenant: &str, tasks: usize, task_secs: u64) -> JobBuilder {
    let units_per_task = task_secs * 10_000_000; // 100 ns/unit → secs
    JobBuilder::new(name)
        .synthetic(units_per_task * tasks as u64)
        .map_tasks(tasks)
        .kernel(FixedCostKernel::default())
        .tenant(tenant)
        .rpc_aggregate(SumReducer {
            cycles_per_byte: 1.0,
        })
}

fn cluster(workers: usize, seed: u64, policy: SchedulerPolicy) -> accelmr::mapred::MrCluster {
    ClusterBuilder::new()
        .seed(seed)
        .workers(workers)
        .scheduler(policy)
        .deploy()
}

/// Integral of a job's occupied slots over `[from, to]`, in slot-seconds,
/// reconstructed from its share timeline.
fn share_integral(r: &JobResult, from: SimTime, to: SimTime) -> f64 {
    let mut total = 0.0;
    let mut level = 0u32;
    let mut at = SimTime::ZERO;
    for &(t, next) in &r.share_timeline {
        let lo = at.max(from);
        let hi = t.min(to);
        if hi > lo {
            total += level as f64 * (hi - lo).as_secs_f64();
        }
        level = next;
        at = t;
    }
    let lo = at.max(from);
    if to > lo {
        total += level as f64 * (to - lo).as_secs_f64();
    }
    total
}

/// Three tenants with weights 1:2:3 run identical concurrent batches: the
/// occupied-slot integrals over the window where all three are busy land
/// on the weight proportions, and `slot_seconds` accounts each job's full
/// occupancy.
#[test]
fn three_tenant_batch_reaches_weighted_share_split() {
    let mut c = cluster(6, 201, SchedulerPolicy::FairShare);
    let mut session = c.session();
    let a = session.submit(slot_job("a", "tenant-a", 60, 6).weight(1.0));
    let b = session.submit(slot_job("b", "tenant-b", 60, 6).weight(2.0));
    let cc = session.submit(slot_job("c", "tenant-c", 60, 6).weight(3.0));
    let results = session.run_until_complete();
    assert!(results.iter().all(|r| r.succeeded));
    for r in &results {
        assert_eq!(r.scheduler, "fair-share");
        // The timeline integral over the whole run equals slot_seconds.
        let full = share_integral(r, SimTime::ZERO, SimTime::ZERO + r.elapsed);
        assert!(
            (full - r.slot_seconds).abs() < 1e-6,
            "timeline integral {full} vs slot_seconds {}",
            r.slot_seconds
        );
        assert!(r.deadline_met.is_none());
    }
    // Window where all tenants are busy: ramp-up to the earliest
    // completion (all submitted at t=0).
    let busy_until = results.iter().map(|r| r.elapsed).min().unwrap();
    let from = SimTime::ZERO + SimDuration::from_secs(20);
    let to = SimTime::ZERO + busy_until;
    assert!(to > from, "window collapsed: {busy_until}");
    let ia = share_integral(&a.result(), from, to);
    let ib = share_integral(&b.result(), from, to);
    let ic = share_integral(&cc.result(), from, to);
    let rel = |got: f64, want: f64| (got - want).abs() / want;
    assert!(
        rel(ib / ia, 2.0) < 0.3,
        "b/a share ratio {:.2}, want ~2 (a={ia:.0}, b={ib:.0}, c={ic:.0})",
        ib / ia
    );
    assert!(
        rel(ic / ia, 3.0) < 0.3,
        "c/a share ratio {:.2}, want ~3 (a={ia:.0}, b={ib:.0}, c={ic:.0})",
        ic / ia
    );
    // Tenant metadata round-trips.
    assert_eq!(a.result().tenant, "tenant-a");
    assert_eq!(cc.result().weight, 3.0);
}

/// A heavy tenant's big job submitted *before* a light tenant's later
/// small jobs cannot head-of-line-block them: under FIFO the light jobs
/// queue behind the heavy job's whole map phase; under fair-share the
/// light tenant keeps its share and its latency collapses.
#[test]
fn heavy_job_cannot_head_of_line_block_light_tenant() {
    let run = |policy: SchedulerPolicy| -> (Vec<SimDuration>, SimDuration) {
        let mut c = cluster(4, 202, policy);
        let mut session = c.session();
        let heavy = session.submit(slot_job("heavy", "heavy", 160, 8));
        let l1 = session.submit_after(
            SimDuration::from_secs(30),
            slot_job("light-1", "light", 8, 4),
        );
        let l2 = session.submit_after(
            SimDuration::from_secs(60),
            slot_job("light-2", "light", 8, 4),
        );
        let results = session.run_until_complete();
        assert!(results.iter().all(|r| r.succeeded));
        (
            vec![l1.result().elapsed, l2.result().elapsed],
            heavy.result().elapsed,
        )
    };
    let (fifo_light, fifo_heavy) = run(SchedulerPolicy::Fifo);
    let (fair_light, fair_heavy) = run(SchedulerPolicy::FairShare);
    for (fair, fifo) in fair_light.iter().zip(&fifo_light) {
        assert!(
            fair.as_secs_f64() * 2.0 < fifo.as_secs_f64(),
            "light job latency: fair-share {fair} vs fifo {fifo}"
        );
    }
    // The heavy job pays only its fair price, not a collapse.
    assert!(
        fair_heavy.as_secs_f64() < fifo_heavy.as_secs_f64() * 1.5,
        "heavy job: fair-share {fair_heavy} vs fifo {fifo_heavy}"
    );
}

/// DeadlineSlack meets a feasible deadline that FIFO misses, observed
/// through `JobResult::deadline_met`.
#[test]
fn deadline_slack_meets_deadline_fifo_misses() {
    let run = |policy: SchedulerPolicy| -> (Option<bool>, Option<bool>, bool) {
        let mut c = cluster(4, 203, policy);
        let mut session = c.session();
        let bulk = session.submit(slot_job("bulk", "batch", 80, 8));
        let urgent = session.submit_after(
            SimDuration::from_secs(20),
            slot_job("urgent", "interactive", 8, 4)
                .deadline_at(SimTime::ZERO + SimDuration::from_secs(75)),
        );
        let results = session.run_until_complete();
        let ok = results.iter().all(|r| r.succeeded);
        (bulk.result().deadline_met, urgent.result().deadline_met, ok)
    };
    let (bulk_fifo, urgent_fifo, ok_fifo) = run(SchedulerPolicy::Fifo);
    let (bulk_dl, urgent_dl, ok_dl) = run(SchedulerPolicy::DeadlineSlack);
    assert!(ok_fifo && ok_dl);
    // Deadline-less jobs report no verdict under either policy.
    assert_eq!(bulk_fifo, None);
    assert_eq!(bulk_dl, None);
    // The same feasible deadline: missed behind FIFO's head-of-line bulk
    // job, met under slack-ordered dispatch.
    assert_eq!(
        urgent_fifo,
        Some(false),
        "FIFO unexpectedly met the deadline"
    );
    assert_eq!(
        urgent_dl,
        Some(true),
        "DeadlineSlack missed a feasible deadline"
    );
}

/// A single job's output digest is identical under every job-level policy:
/// job-level scheduling reorders *which slot serves which job*, never what
/// a job computes.
#[test]
fn single_job_digest_identical_across_job_level_policies() {
    let run = |policy: SchedulerPolicy| -> JobResult {
        let mut c = ClusterBuilder::new()
            .seed(204)
            .workers(3)
            .scheduler(policy)
            .materialized(true)
            .deploy();
        let mut session = c.session();
        session.submit(
            JobBuilder::new("digest")
                .input_file("/d")
                .record_bytes(2 * MB)
                .kernel(FixedCostKernel {
                    per_record: SimDuration::from_millis(20),
                    ..FixedCostKernel::default()
                })
                .map_tasks(6)
                .digest_output()
                .preload(PreloadSpec::new("/d", 12 * MB, 31).block_size(2 * MB)),
        );
        session.run()
    };
    let baseline = run(SchedulerPolicy::Fifo);
    assert!(baseline.succeeded);
    assert_eq!(baseline.digest.1, 6);
    for policy in [
        SchedulerPolicy::LocalityFirst,
        SchedulerPolicy::Adaptive,
        SchedulerPolicy::FairShare,
        SchedulerPolicy::DeadlineSlack,
    ] {
        let r = run(policy);
        assert!(r.succeeded);
        assert_eq!(
            r.digest, baseline.digest,
            "digest drifted under {}",
            r.scheduler
        );
    }
}

/// Build-time validation: a zero fair-share weight is rejected before the
/// job ever reaches a cluster.
#[test]
#[should_panic(expected = "weight must be positive")]
fn zero_weight_is_rejected_at_build_time() {
    let _ = slot_job("w0", "t", 1, 1).weight(0.0).build();
}

/// Submit-time validation: a deadline at or before the submission instant
/// is rejected with the typed error's message.
#[test]
#[should_panic(expected = "deadline_at")]
fn past_deadline_is_rejected_at_submit_time() {
    let mut c = cluster(2, 205, SchedulerPolicy::DeadlineSlack);
    let mut session = c.session();
    // Submission lands at t=10s; the deadline sits at t=5s.
    session.submit_after(
        SimDuration::from_secs(10),
        slot_job("late", "t", 1, 1).deadline_at(SimTime::ZERO + SimDuration::from_secs(5)),
    );
}

/// Speculative duplicates are charged to tenant shares: after a
/// `pick_job` share snapshot, a tenant sitting above the minimum weighted
/// share is refused the straggler copy that the minimum-share tenant is
/// granted for an identical straggling task. Without this gate an
/// over-share tenant could grab extra slots through speculation that
/// regular dispatch would deny it.
#[test]
fn speculation_is_charged_to_tenant_share() {
    use accelmr::mapred::{FairShare, JobId, SchedView, Scheduler, TaskLookup, TaskView};

    let asker = NodeId(9); // the node requesting work
    let runner = NodeId(2); // where the straggling attempts run
    let started = SimTime::ZERO;
    let now = SimTime::ZERO + SimDuration::from_secs(100);
    // One completed 10 s attempt per job: with the default 1.5× slowdown
    // threshold, an attempt running for 100 s is a clear straggler.
    let times = [SimDuration::from_secs(10)];
    let running = [(0u32, runner, started)];
    let task = || TaskView {
        hints: &[],
        is_reduce: false,
        completed: false,
        running: &running,
        size: 1,
    };
    // `rich` occupies 4 slots, `poor` occupies 1, equal weights: `poor`
    // holds the minimum weighted share.
    let rich_tasks = [task(), task(), task(), task()];
    let poor_tasks = [task()];
    fn view<'a>(
        job: u32,
        tenant: &'a str,
        tasks: &'a dyn TaskLookup,
        times: &'a [SimDuration],
    ) -> SchedView<'a> {
        let mut running_slots = 0;
        let mut running_incomplete = 0;
        for i in 0..tasks.len() {
            let t = tasks.get(i);
            running_slots += t.running.len();
            if !t.completed && !t.running.is_empty() {
                running_incomplete += 1;
            }
        }
        SchedView {
            job: JobId(job),
            kernel: "k",
            tenant,
            weight: 1.0,
            deadline: None,
            eligible: true,
            cluster_slots: 8,
            pending: &[],
            tasks,
            running_slots,
            running_incomplete,
            completed_task_times: times,
            slots_per_node: 2,
        }
    }
    let views = [
        view(0, "rich", &rich_tasks, &times),
        view(1, "poor", &poor_tasks, &times),
    ];

    let mut sched = FairShare::new(&MrConfig::default());
    // The dispatch loop always snapshots shares via pick_job before any
    // straggler offer; `poor` (share 1) wins over `rich` (share 4).
    assert_eq!(sched.pick_job(&views, asker, now), Some(JobId(1)));
    // `rich` is above the minimum share: no speculative copy.
    assert_eq!(sched.pick_straggler(&views[0], asker, now), None);
    // `poor` is at the minimum share: the straggler is granted.
    assert!(sched.pick_straggler(&views[1], asker, now).is_some());
}
