//! Heterogeneous cluster demo (the paper's §V outlook, implemented): only
//! a fraction of nodes carry Cell accelerators; adaptive kernels offload
//! where possible and fall back to the scalar engine elsewhere. Shows the
//! straggler effect the paper anticipated for mixed clusters, the
//! heterogeneity-aware scheduler that fixes it.
//!
//!     cargo run --release --example heterogeneous

use accelmr::hybrid::{AdaptivePiKernel, MixedEnvFactory};
use accelmr::mapred::SchedulerPolicy;
use accelmr::prelude::*;

fn run_mixed(accel: usize, out_of: usize, samples: u64) -> f64 {
    run_mixed_policy(accel, out_of, samples, SchedulerPolicy::LocalityFirst)
}

fn run_mixed_policy(accel: usize, out_of: usize, samples: u64, policy: SchedulerPolicy) -> f64 {
    let mut cluster = ClusterBuilder::new()
        .seed(11)
        .workers(8)
        .env(MixedEnvFactory {
            accelerated_of: (accel, out_of),
        })
        .scheduler(policy)
        .deploy();
    let mut session = cluster.session();
    session.submit(
        JobBuilder::new("mixed-pi")
            .synthetic(samples)
            .kernel(AdaptivePiKernel::new(3))
            .rpc_aggregate(SumReducer {
                cycles_per_byte: 1.0,
            }),
    );
    session.run().elapsed.as_secs_f64()
}

fn main() {
    println!("== mixed-cluster Pi (8 nodes, 1e10 samples, adaptive kernel) ==");
    println!("{:>22} {:>12}", "accelerated nodes", "time (s)");
    for (accel, out_of, label) in [
        (1usize, 1usize, "8/8"),
        (1, 2, "4/8"),
        (1, 4, "2/8"),
        (0, 1, "0/8"),
    ] {
        let t = run_mixed(accel, out_of, 10_000_000_000);
        println!("{label:>22} {t:>12.1}");
    }
    println!();
    println!("Partial coverage buys little: placement-blind task assignment puts");
    println!("equal shares on plain nodes, whose scalar kernels dominate the job");
    println!("— the scheduling problem the paper's §V flags for future work.");

    println!();
    println!("== the remedy: heterogeneity-aware scheduling (4/8 accelerated) ==");
    println!("{:>22} {:>12}", "scheduler", "time (s)");
    for (label, policy) in [
        ("locality-first", SchedulerPolicy::LocalityFirst),
        ("adaptive-hetero", SchedulerPolicy::Adaptive),
    ] {
        let t = run_mixed_policy(1, 2, 10_000_000_000, policy);
        println!("{label:>22} {t:>12.1}");
    }
    println!();
    println!("The adaptive scheduler oversplits while unlearned, learns per-node");
    println!("throughput from completed attempts, and steers work (and the queue");
    println!("tail) toward the Cell nodes. See the `sched_ablation` bench bin.");
}
