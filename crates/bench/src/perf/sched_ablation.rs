//! Scheduler-policy ablation on the half-accelerated clusters from
//! `core::hetero` — the mixed-cluster scenario the paper's §V anticipated.
//!
//! Compares `Fifo`, `LocalityFirst` and `AdaptiveHetero` on:
//!
//! * **pi-mixed** — the CPU-bound Pi workload, where placement-blind
//!   scheduling lets the plain nodes set the job time;
//! * **aes-mixed** — the data-bound AES workload, where the record feed
//!   path bounds everything and policies should be near-equal (the
//!   control: adaptivity must not *hurt* feed-bound jobs).
//!
//! The **fairness** section drives an N-tenant mixed pi/terasort batch
//! through the *job-level* policies: a batch tenant's two big terasorts
//! against an interactive tenant's stream of small deadline-carrying pi
//! jobs. FIFO head-of-line blocking shows up as the light tenant's p99
//! job latency and missed deadlines; `FairShare` collapses the p99 and
//! `DeadlineSlack` restores the deadline hit-rate. The job-level policies
//! run with the balanced preemption budget
//! ([`PreemptionTuning::balanced`]): kill-and-requeue closes the deadline
//! gap dispatch alone cannot (a full hit-rate is the acceptance bar,
//! asserted here) while the wasted requeued runtime stays under 10% of the
//! batch's total slot-seconds.
//!
//! Returns the whole of `BENCH_sched.json`.

use accelmr_des::{SimDuration, SimTime};
use accelmr_dfs::BLOCK_SIZE;
use accelmr_hybrid::hetero::{AdaptiveAesKernel, AdaptivePiKernel, MixedEnvFactory};
use accelmr_hybrid::presets;
use accelmr_mapred::{
    ClusterBuilder, JobBuilder, JobResult, MrConfig, PreemptionTuning, PreloadSpec,
    SchedulerPolicy, SumReducer,
};

use crate::{float, obj, Json};

fn mixed_cluster(seed: u64, policy: SchedulerPolicy) -> accelmr_mapred::MrCluster {
    ClusterBuilder::new()
        .seed(seed)
        .workers(4)
        .env(MixedEnvFactory::half())
        .scheduler(policy)
        .deploy()
}

/// Runs the job twice on one cluster (cold, then warm): adaptive policies
/// pay a probe cost on the first job and schedule the second from the
/// learned model; static policies repeat themselves.
fn run_pi(policy: SchedulerPolicy, samples: u64, seed: u64) -> (JobResult, JobResult) {
    let mut c = mixed_cluster(seed, policy);
    let job = || {
        JobBuilder::new("pi-mixed")
            .synthetic(samples)
            .kernel(AdaptivePiKernel::new(3))
            .rpc_aggregate(SumReducer {
                cycles_per_byte: 1.0,
            })
    };
    let mut session = c.session();
    session.submit(job());
    let cold = session.run();
    let mut session = c.session();
    session.submit(job());
    (cold, session.run())
}

fn run_aes(policy: SchedulerPolicy, bytes: u64, seed: u64) -> (JobResult, JobResult) {
    let mut c = mixed_cluster(seed, policy);
    let job = |path: &str, preload: bool| {
        let b = JobBuilder::new("aes-mixed")
            .input_file(path)
            .record_bytes(BLOCK_SIZE)
            .kernel(AdaptiveAesKernel::new())
            .digest_output();
        if preload {
            b.preload(
                PreloadSpec::new(path, bytes, 7)
                    .block_size(BLOCK_SIZE)
                    .replication(1),
            )
        } else {
            b
        }
    };
    let mut session = c.session();
    session.submit(job("/input", true));
    let cold = session.run();
    let mut session = c.session();
    session.submit(job("/input", false));
    (cold, session.run())
}

/// Runs one workload under every task-level policy. Returns its entry (a
/// row per policy, and what adaptivity bought over locality-first) and the
/// cold job times of locality-first and adaptive.
fn workload(run: &dyn Fn(SchedulerPolicy) -> (JobResult, JobResult)) -> (Json, f64, f64) {
    let policies = [
        ("fifo", SchedulerPolicy::Fifo),
        ("locality-first", SchedulerPolicy::LocalityFirst),
        ("adaptive", SchedulerPolicy::Adaptive),
    ];
    let mut times = Vec::new();
    let mut entry = Json::object(policies.map(|(name, policy)| {
        let (cold, warm) = run(policy);
        let (cold_s, warm_s) = (cold.elapsed.as_secs_f64(), warm.elapsed.as_secs_f64());
        times.push((name, cold_s, warm_s));
        let reads = (warm.local_reads + warm.remote_reads).max(1);
        let tp = || warm.node_throughput.iter().map(|e| e.throughput);
        let row = obj! {
            "cold_s" => float(cold_s, 3),
            "warm_s" => float(warm_s, 3),
            "local_read_frac" => float(warm.local_reads as f64 / reads as f64, 2),
            "attempts" => cold.attempts,
            // max / min over the nodes. A policy that learns no per-node
            // throughput folds nothing: -inf / inf is NaN, written `null`.
            "throughput_spread" => float(
                tp().fold(f64::NEG_INFINITY, f64::max) / tp().fold(f64::INFINITY, f64::min),
                1,
            ),
        };
        (name, row)
    }));
    let of = |policy: &str| *times.iter().find(|t| t.0 == policy).expect("in policies");
    let ((_, l_cold, l_warm), (_, a_cold, a_warm)) = (of("locality-first"), of("adaptive"));
    entry.extend(obj! { "adaptive_speedup_vs_locality" => obj! {
        "cold" => float(l_cold / a_cold, 3),
        "warm" => float(l_warm / a_warm, 3),
    } });
    (entry, l_cold, a_cold)
}

/// Per-policy outcome of the fairness batch.
struct FairnessRow {
    policy: &'static str,
    light_p50_s: f64,
    light_p99_s: f64,
    heavy_makespan_s: f64,
    deadline_hits: usize,
    /// Attempts killed-and-requeued by the policy's reclaim hook.
    preempted: u32,
    /// Runtime discarded by those kills, billed to the beneficiaries.
    wasted_slot_s: f64,
    /// Total billed occupancy across the whole batch.
    slot_s: f64,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// The N-tenant mixed batch: tenant "batch" submits two terasorts at t=0;
/// tenant "interactive" submits `n_light` small pi jobs staggered
/// 20 s apart, each with a deadline 100 s past its
/// submission. Same workload under every policy; only job-level dispatch
/// differs. All rows run with the balanced preemption budget — inert for
/// FIFO (no reclaim hook), live for the reclaiming policies.
fn run_fairness(
    policy: SchedulerPolicy,
    name: &'static str,
    heavy_bytes: u64,
    n_light: usize,
) -> FairnessRow {
    let mut c = ClusterBuilder::new()
        .seed(17)
        .workers(4)
        .env(MixedEnvFactory::half())
        .mr(MrConfig {
            scheduler: policy,
            preemption: PreemptionTuning::balanced(),
            ..MrConfig::default()
        })
        .deploy();
    let mut session = c.session();
    // 16 reducers per terasort: reduce waves churn slots in the batch's
    // tail, where reduces (rightly) cannot be preempted — a monolithic
    // reduce phase would wall off the last deadline jobs no matter what
    // the kill budget allows.
    let heavy: Vec<_> = (0..2)
        .map(|i| {
            session.submit(
                presets::terasort(&format!("/sort-{i}"), heavy_bytes, 16)
                    .name(format!("terasort-{i}"))
                    .tenant("batch"),
            )
        })
        .collect();
    let light: Vec<_> = (0..n_light)
        .map(|i| {
            let at = SimDuration::from_secs(20 * i as u64);
            session.submit_after(
                at,
                JobBuilder::new(format!("pi-{i}"))
                    .synthetic(200_000_000)
                    .kernel(AdaptivePiKernel::new(i as u64))
                    .rpc_aggregate(SumReducer {
                        cycles_per_byte: 1.0,
                    })
                    .tenant("interactive")
                    .deadline_at(SimTime::ZERO + at + SimDuration::from_secs(100)),
            )
        })
        .collect();
    let results = session.run_until_complete();
    assert!(results.iter().all(|r| r.succeeded), "{name}: job failed");
    let mut latencies: Vec<f64> = light
        .iter()
        .map(|h| h.result().elapsed.as_secs_f64())
        .collect();
    latencies.sort_by(f64::total_cmp);
    let hits = light
        .iter()
        .filter(|h| h.result().deadline_met == Some(true))
        .count();
    let heavy_makespan_s = heavy
        .iter()
        .map(|h| h.result().elapsed.as_secs_f64())
        .fold(0.0, f64::max);
    FairnessRow {
        policy: name,
        light_p50_s: percentile(&latencies, 0.50),
        light_p99_s: percentile(&latencies, 0.99),
        heavy_makespan_s,
        deadline_hits: hits,
        preempted: results.iter().map(|r| r.preempted_attempts).sum(),
        wasted_slot_s: results.iter().map(|r| r.wasted_slot_seconds).sum(),
        slot_s: results.iter().map(|r| r.slot_seconds).sum(),
    }
}

/// The two placement workloads under three task-level policies, then the
/// fairness batch under three job-level ones.
pub fn run(quick: bool) -> Json {
    let (samples, bytes) = if quick {
        (200_000_000u64, 1u64 << 30)
    } else {
        (4_000_000_000u64, 8u64 << 30)
    };

    // CPU-bound: adaptivity pays, and must never lose — the acceptance bar
    // the hetero test also enforces.
    let (pi_mixed, locality_cold_s, adaptive_cold_s) =
        workload(&|policy| run_pi(policy, samples, 11));
    assert!(
        adaptive_cold_s < locality_cold_s,
        "adaptive regressed on the CPU-bound mixed cluster"
    );
    // Feed-bound: adaptive pays a one-job probe cost, then matches.
    let (aes_mixed, ..) = workload(&|policy| run_aes(policy, bytes, 12));

    // Fairness: the 2-tenant mixed pi/terasort batch (2x terasort for
    // "batch" against staggered deadlined pi jobs for "interactive") under
    // the job-level policies.
    let (heavy_bytes, n_light) = if quick {
        (8u64 << 30, 4usize)
    } else {
        (16u64 << 30, 8usize)
    };
    let fairness: Vec<FairnessRow> = [
        ("fifo", SchedulerPolicy::Fifo),
        ("fair-share", SchedulerPolicy::FairShare),
        ("deadline-slack", SchedulerPolicy::DeadlineSlack),
    ]
    .into_iter()
    .map(|(name, policy)| run_fairness(policy, name, heavy_bytes, n_light))
    .collect();
    let frow = |p: &str| fairness.iter().find(|r| r.policy == p).unwrap();
    // Acceptance bars: fair-share beats FIFO's head-of-line p99 for the
    // light tenant; deadline-slack's reclaim closes the whole deadline gap
    // (a full hit-rate, not just better than FIFO) without discarding more
    // than 10% of the batch's slot-seconds as preempted runtime.
    assert!(
        frow("fair-share").light_p99_s < frow("fifo").light_p99_s,
        "fair-share lost the light-tenant p99 to FIFO"
    );
    // With this assert `deadline_hits_full` below can only be written as
    // `true`: the value CI used to grep for is checked where it is made.
    let dl = frow("deadline-slack");
    assert_eq!(
        dl.deadline_hits, n_light,
        "deadline-slack with preemption missed a deadline"
    );
    for r in &fairness {
        assert!(
            r.wasted_slot_s <= 0.10 * r.slot_s,
            "{}: wasted {:.1} slot-s exceeds 10% of total {:.1}",
            r.policy,
            r.wasted_slot_s,
            r.slot_s
        );
    }
    let mut fairness_json = Json::object(fairness.iter().map(|r| {
        let row = obj! {
            "light_p50_s" => float(r.light_p50_s, 3),
            "light_p99_s" => float(r.light_p99_s, 3),
            "heavy_makespan_s" => float(r.heavy_makespan_s, 3),
            "deadline_hits" => r.deadline_hits,
            "deadline_total" => n_light,
            "preempted" => r.preempted,
            "wasted_slot_s" => float(r.wasted_slot_s, 3),
            "total_slot_s" => float(r.slot_s, 3),
        };
        (r.policy, row)
    }));
    fairness_json.extend(obj! {
        "fair_share_light_p99_speedup_vs_fifo" => float(frow("fifo").light_p99_s / frow("fair-share").light_p99_s, 3),
        "deadline_hits_full" => dl.deadline_hits == n_light,
        "wasted_work_frac" => float(dl.wasted_slot_s / dl.slot_s.max(1e-9), 4),
    });

    obj! {
        "bench" => "sched_ablation",
        "cluster" => "4 workers, half Cell-accelerated",
        "quick" => quick,
        "pi_mixed" => pi_mixed,
        "aes_mixed" => aes_mixed,
        "fairness" => fairness_json,
    }
}
