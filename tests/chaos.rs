//! The chaos plane, end to end: deterministic fault injection through
//! [`FaultPlan`], gray-failure and partition hardening, epoch fencing
//! under false-positive death, and the job-level liveness watchdog.
//!
//! The invariants pinned here are the PR's acceptance bar:
//!
//! * faulted runs either complete digest-exact or terminate with a typed
//!   [`JobError`] — they never hang;
//! * kv/digest accounting stays exactly-once under healed partitions and
//!   heartbeat loss (zombie reports are fenced, not double-folded);
//! * the same seed with the same plan reproduces byte-identical results;
//! * churn and faults compose: both queue onto the session's one timeline
//!   and apply in the same run;
//! * an *empty* plan or churn schedule is free: no schedule driver spawns,
//!   and the event trace is byte-identical to a run that never touched
//!   either API;
//! * [`FaultPlan::op_at`] rejects a degrade or gray factor outside
//!   `(0, 1]`.

use accelmr::mapred::FixedCostKernel;
use accelmr::prelude::*;

const MB: u64 = 1 << 20;
const RECORD: u64 = 2 * MB;
const SEED: u64 = 512;

/// A cluster with the hardened runtime profile (I/O timeouts, failover,
/// blacklisting, watchdog) and fast churn detection for test latency.
fn hardened_cluster(seed: u64) -> accelmr::mapred::MrCluster {
    ClusterBuilder::new()
        .seed(seed)
        .workers(4)
        .mr(MrConfig {
            tt_dead_after: SimDuration::from_secs(12),
            shuffle_fetch_timeout: Some(SimDuration::from_secs(8)),
            read_timeout: Some(SimDuration::from_secs(5)),
            job_stall_timeout: Some(SimDuration::from_secs(30)),
            ..MrConfig::hardened()
        })
        .dfs(DfsConfig {
            dead_after: SimDuration::from_secs(12),
        })
        .deploy()
}

/// A terasort-shaped shuffle job: file input (exercising DFS reads) into
/// a full map→shuffle→reduce pipeline whose reduce aggregate equals the
/// input size iff every record was counted exactly once.
fn sort_job(len: u64, tasks: usize) -> JobBuilder {
    presets::terasort_replicated("/chaos", len, 3, 2)
        .name("chaos-sort")
        .record_bytes(RECORD)
        .map_tasks(tasks)
}

/// A pure-compute job (no DFS reads): `tasks` map tasks of `task_secs`
/// seconds each, aggregated over RPC.
fn compute_job(tasks: usize, task_secs: u64) -> JobBuilder {
    JobBuilder::new("chaos-compute")
        .synthetic(task_secs * 10_000_000 * tasks as u64)
        .map_tasks(tasks)
        .kernel(FixedCostKernel::default())
        .rpc_aggregate(SumReducer {
            cycles_per_byte: 1.0,
        })
}

/// Runs one sort job under `plan` and returns its result surface.
fn run_sorted(seed: u64, plan: FaultPlan) -> (JobResult, u64, u64) {
    let mut cluster = hardened_cluster(seed);
    let mut session = cluster.session();
    session.faults(plan);
    session.submit(sort_job(24 * RECORD, 24));
    let result = session.run();
    let healed = cluster.sim.stats().counter("net.partitions_healed");
    let retries = cluster.sim.stats().counter("dfs.read_retries")
        + cluster.sim.stats().counter("mr.attempt_retries");
    (result, healed, retries)
}

/// A partition injected mid-run and healed later: the job completes with
/// exactly-once accounting (stalled transfers resume or fail over — no
/// record is lost or double-counted), and the same seed with the same
/// plan reproduces the identical result surface.
#[test]
fn healed_partition_is_exactly_once_and_deterministic() {
    // The fault-free run takes ~27 s with the shuffle in its tail; a 30 s
    // partition from t=12 s covers the whole shuffle, so fetches against
    // the partitioned node's map outputs must ride the timeout/backoff
    // retry path (8 s fetch timeout ≪ window) until the heal lets one
    // through.
    let plan = || {
        FaultPlan::new().op_at(
            SimDuration::from_secs(12),
            FaultOp::Partition {
                node: NodeId(2),
                window: SimDuration::from_secs(30),
            },
        )
    };
    let (first, healed, retries) = run_sorted(SEED, plan());
    assert!(first.succeeded, "faulted run failed: {:?}", first.error);
    let total: u64 = first.kv.iter().map(|&(_, v)| v).sum();
    assert_eq!(total, 24 * RECORD, "exactly-once violated under partition");
    assert_eq!(healed, 1, "partition did not heal");
    assert!(retries >= 1, "partition exercised no retry path");

    let (second, _, _) = run_sorted(SEED, plan());
    assert_eq!(first.digest, second.digest, "same-seed digest diverged");
    assert_eq!(first.kv, second.kv, "same-seed kv diverged");
    assert_eq!(first.elapsed, second.elapsed, "same-seed timing diverged");
}

/// Heartbeat loss long enough to trip death detection: the JobTracker
/// falsely declares the node dead, requeues and fences its attempts, and
/// rejects the zombie completion reports that ride the first post-window
/// heartbeat — the output matches the fault-free baseline exactly, and
/// the node rejoins service (resurrection) instead of being lost.
#[test]
fn heartbeat_loss_fences_zombie_reports_exactly_once() {
    let run = |plan: FaultPlan| {
        let mut cluster = hardened_cluster(SEED + 1);
        let mut session = cluster.session();
        session.faults(plan);
        session.submit(compute_job(8, 40));
        let result = session.run();
        let stats = |n| cluster.sim.stats().counter(n);
        (
            result,
            stats("mr.fenced_reports"),
            stats("mr.tt_resurrections"),
            stats("mr.heartbeats_suppressed"),
        )
    };
    let (baseline, f0, r0, s0) = run(FaultPlan::new());
    assert!(baseline.succeeded);
    assert_eq!((f0, r0, s0), (0, 0, 0), "fault-free run saw chaos effects");

    let plan = FaultPlan::new().op_at(
        SimDuration::from_secs(12),
        FaultOp::HeartbeatLoss {
            node: NodeId(2),
            window: SimDuration::from_secs(25),
        },
    );
    let (faulted, fenced, resurrections, suppressed) = run(plan);
    assert!(faulted.succeeded, "faulted run failed: {:?}", faulted.error);
    assert!(suppressed >= 1, "no heartbeat was suppressed");
    assert_eq!(resurrections, 1, "false-positive death did not resurrect");
    assert!(fenced >= 1, "no zombie report was fenced");
    assert_eq!(
        faulted.kv, baseline.kv,
        "exactly-once violated: zombie fold leaked into the aggregate"
    );
    assert_eq!(faulted.digest, baseline.digest, "digest drifted");
}

/// Gray failure: a node silently computes at quarter speed for a window.
/// Nothing crashes and no heartbeat is missed, so only the data plane can
/// notice — the job still completes digest-exact, slower than fault-free.
#[test]
fn gray_failure_completes_exact_but_slower() {
    let run = |plan: FaultPlan| {
        let mut cluster = hardened_cluster(SEED + 2);
        let mut session = cluster.session();
        session.faults(plan);
        session.submit(compute_job(16, 10));
        let result = session.run();
        let gray = cluster.sim.stats().counter("mr.gray_injected");
        (result, gray)
    };
    let (baseline, g0) = run(FaultPlan::new());
    assert!(baseline.succeeded);
    assert_eq!(g0, 0);

    let plan = FaultPlan::new().op_at(
        SimDuration::from_secs(10),
        FaultOp::Gray {
            node: NodeId(1),
            factor: 0.25,
            window: SimDuration::from_secs(30),
        },
    );
    let (faulted, gray) = run(plan);
    assert!(faulted.succeeded, "faulted run failed: {:?}", faulted.error);
    assert_eq!(gray, 1, "gray fault was not injected");
    assert_eq!(faulted.kv, baseline.kv, "gray failure corrupted output");
    assert!(
        faulted.elapsed > baseline.elapsed,
        "a quarter-speed node should inflate the makespan ({} vs {})",
        faulted.elapsed,
        baseline.elapsed
    );
}

/// The job-level liveness watchdog: when every worker is gone and the job
/// can make no further progress, it terminates with a typed
/// [`JobError::Stalled`] instead of hanging the simulation.
#[test]
fn watchdog_terminates_unservable_job_with_typed_error() {
    let mut cluster = hardened_cluster(SEED + 3);
    let mut session = cluster.session();
    // Every worker crashes mid-map; nothing is left to dispatch to.
    for node in 1..=4 {
        session.remove_node_at(SimDuration::from_secs(12), NodeId(node));
    }
    session.submit(compute_job(16, 20));
    let result = session.run();
    assert!(!result.succeeded);
    assert!(
        matches!(result.error, Some(JobError::Stalled { .. })),
        "expected a typed stall, got {:?}",
        result.error
    );
    assert_eq!(cluster.sim.stats().counter("mr.jobs_stalled"), 1);
}

/// An empty `FaultPlan` and an empty `ChurnSchedule` queued through the
/// session are completely free: no schedule driver spawns, and the
/// event-trace fingerprint is byte-identical to a run that never touched
/// either API. This is the no-op half of the determinism contract — chaos
/// and churn are strictly opt-in.
#[test]
fn empty_fault_plan_leaves_traces_byte_identical() {
    let run = |with_api: bool| {
        let mut cluster = ClusterBuilder::new().seed(SEED + 4).workers(3).deploy();
        cluster.sim.enable_trace(1 << 14);
        let mut session = cluster.session();
        if with_api {
            session.faults(FaultPlan::new());
            assert!(session.churn(ChurnSchedule::new()).is_empty());
        }
        session.submit(compute_job(6, 5));
        let result = session.run();
        (result.digest, cluster.sim.trace().fingerprint())
    };
    let (d_plain, f_plain) = run(false);
    let (d_api, f_api) = run(true);
    assert_eq!(d_plain, d_api, "empty plan changed the digest");
    assert_eq!(f_plain, f_api, "empty plan changed the event trace");
}

/// Churn and faults compose on one session: a join and a leave from a
/// `ChurnSchedule` and a partition and a gray fault from a `FaultPlan`
/// all apply during the same job, and the same seed replays the same
/// event trace.
#[test]
fn churn_and_faults_compose_in_one_session() {
    let sec = SimDuration::from_secs;
    let run = || {
        let mut cluster = hardened_cluster(SEED + 6);
        cluster.sim.enable_trace(1 << 14);
        let mut session = cluster.session();
        // Node 5 joins at t=5 s and node 4 leaves at t=10 s.
        let joined = session.churn(ChurnSchedule::wave(1, &[NodeId(4)], sec(5), sec(5)));
        assert_eq!(joined, [NodeId(5)]);
        // Node 2 computes at quarter speed from t=6 s and is partitioned
        // from t=8 s, both for 10 s.
        let (node, window) = (NodeId(2), sec(10));
        let gray = FaultOp::Gray {
            node,
            factor: 0.25,
            window,
        };
        let plan = FaultPlan::new().op_at(sec(8), FaultOp::Partition { node, window });
        session.faults(plan.op_at(sec(6), gray));
        session.submit(compute_job(16, 20));
        let result = session.run();
        assert!(result.succeeded, "composed run failed: {:?}", result.error);
        let stats = |n| cluster.sim.stats().counter(n);
        let applied = [
            stats("cluster.nodes_joined"),
            stats("cluster.nodes_left"),
            stats("chaos.actions_applied"),
            stats("net.partitions_healed"),
        ];
        (result.kv, applied, cluster.sim.trace().fingerprint())
    };
    let first = run();
    // Each fault is one apply and one heal.
    assert_eq!(first.1, [1, 1, 4, 1], "joined, left, fault actions, heals");
    assert_eq!(first, run(), "same-seed kv or trace diverged");
}

/// Only actions that take effect are counted: a second leave of one node,
/// a leave of a node the cluster never had, and a gray fault on a departed
/// node change nothing, so neither `cluster.nodes_left` nor
/// `chaos.actions_applied` counts them.
#[test]
fn schedule_counts_only_actions_that_take_effect() {
    let sec = SimDuration::from_secs;
    let mut cluster = hardened_cluster(SEED + 7);
    let mut session = cluster.session();
    session.remove_node_at(sec(1), NodeId(2));
    session.remove_node_at(sec(2), NodeId(2));
    session.remove_node_at(sec(3), NodeId(99));
    let gray = FaultOp::Gray {
        node: NodeId(2),
        factor: 0.5,
        window: sec(1),
    };
    session.faults(FaultPlan::new().op_at(sec(4), gray));
    assert!(session.run_until_complete().is_empty());
    let stats = |n| cluster.sim.stats().counter(n);
    assert_eq!(
        [stats("cluster.nodes_left"), stats("chaos.actions_applied")],
        [1, 0],
        "left, fault actions"
    );
}

/// A NaN gray factor would clamp to a near-freeze in the TaskTracker: a
/// silent hang, not a gray failure.
#[test]
#[should_panic(expected = "invalid fault op")]
fn nan_gray_factor_is_rejected() {
    FaultPlan::new().op_at(
        SimDuration::ZERO,
        FaultOp::Gray {
            node: NodeId(1),
            factor: f64::NAN,
            window: SimDuration::from_secs(1),
        },
    );
}

/// A negative degrade factor would silently become a full partition.
#[test]
#[should_panic(expected = "invalid fault op")]
fn negative_degrade_factor_is_rejected() {
    FaultPlan::new().op_at(
        SimDuration::ZERO,
        FaultOp::Degrade {
            node: NodeId(1),
            factor: -0.5,
            window: SimDuration::from_secs(1),
        },
    );
}

/// Preemption kills racing chaos-plane node death: fair-share reclaims
/// attempts on a node whose heartbeats are about to be suppressed long
/// enough to trip false-positive death detection. The same attempts can
/// be preemption-killed, death-fenced, requeued, and reported by the
/// zombie tracker in any interleaving — contributions must still fold
/// exactly once, matching a fault-free non-preemptive baseline byte for
/// byte.
#[test]
fn preemption_kill_racing_node_death_is_exactly_once() {
    let run = |preemption: PreemptionTuning, plan: FaultPlan| {
        let mut cluster = ClusterBuilder::new()
            .seed(SEED + 5)
            .workers(4)
            .mr(MrConfig {
                tt_dead_after: SimDuration::from_secs(12),
                shuffle_fetch_timeout: Some(SimDuration::from_secs(8)),
                read_timeout: Some(SimDuration::from_secs(5)),
                job_stall_timeout: Some(SimDuration::from_secs(30)),
                scheduler: SchedulerPolicy::FairShare,
                preemption,
                ..MrConfig::hardened()
            })
            .dfs(DfsConfig {
                dead_after: SimDuration::from_secs(12),
            })
            .deploy();
        let mut session = cluster.session();
        session.faults(plan);
        let greedy = session.submit(compute_job(8, 60).name("greedy").tenant("batch"));
        let nimble = session.submit_after(
            SimDuration::from_secs(2),
            compute_job(8, 20).name("nimble").tenant("interactive"),
        );
        let results = session.run_until_complete();
        assert!(
            results.iter().all(|r| r.succeeded),
            "a job failed: {:?}",
            results.iter().find(|r| !r.succeeded).map(|r| &r.error)
        );
        let out = (greedy.result(), nimble.result());
        drop(session);
        let stats = |n| cluster.sim.stats().counter(n);
        (
            out,
            stats("mr.preemptions"),
            stats("mr.fenced_reports"),
            stats("mr.tt_resurrections"),
        )
    };

    let ((greedy_base, nimble_base), k0, f0, r0) =
        run(PreemptionTuning::default(), FaultPlan::new());
    assert_eq!((k0, f0, r0), (0, 0, 0), "baseline saw chaos effects");

    // Greedy saturates all 8 slots by ~t=11 s; nimble becomes eligible at
    // ~t=10 s and fair-share starts reclaiming on saturated heartbeats —
    // including node 2's, which kills its own greedy attempts, reports
    // the freed slots, and picks up nimble's work just before its
    // heartbeats vanish at t=17 s for long enough to trip the 12 s death
    // window. Kill, death fence, requeue, and zombie completion reports
    // all land on overlapping attempts.
    let tuning = PreemptionTuning {
        max_kills_per_job: 8,
        min_attempt_age: SimDuration::from_secs(1),
        cooldown: SimDuration::from_secs(1),
        slack_margin: SimDuration::from_secs(30),
    };
    let plan = FaultPlan::new().op_at(
        SimDuration::from_secs(17),
        FaultOp::HeartbeatLoss {
            node: NodeId(2),
            window: SimDuration::from_secs(25),
        },
    );
    let ((greedy_chaos, nimble_chaos), kills, fenced, resurrections) = run(tuning, plan);
    assert!(kills >= 1, "no preemption fired before the death window");
    assert_eq!(resurrections, 1, "false-positive death did not resurrect");
    assert!(fenced >= 1, "no report was fenced across the race");
    assert_eq!(
        greedy_chaos.kv, greedy_base.kv,
        "exactly-once violated for the preempted job"
    );
    assert_eq!(
        nimble_chaos.kv, nimble_base.kv,
        "exactly-once violated for the beneficiary job"
    );
    assert_eq!(greedy_chaos.digest, greedy_base.digest);
    assert_eq!(nimble_chaos.digest, nimble_base.digest);
}

/// The seeded storm generator is a pure function of its seed: identical
/// seeds produce identical plans, different seeds different ones.
#[test]
fn seeded_storm_is_deterministic() {
    let nodes: Vec<NodeId> = (1..=8).map(NodeId).collect();
    let storm = |seed| {
        FaultPlan::storm(
            seed,
            &nodes,
            10,
            SimDuration::from_secs(5),
            SimDuration::from_secs(60),
            SimDuration::from_secs(10),
        )
    };
    assert_eq!(storm(7).events(), storm(7).events());
    assert_ne!(storm(7).events(), storm(8).events());
    assert_eq!(storm(7).events().len(), 10);
}
