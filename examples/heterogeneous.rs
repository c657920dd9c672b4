//! Heterogeneous cluster demo (the paper's §V outlook, implemented): only
//! a fraction of nodes carry Cell accelerators; adaptive kernels offload
//! where possible and fall back to the scalar engine elsewhere. Shows the
//! straggler effect the paper anticipated for mixed clusters, the
//! heterogeneity-aware scheduler that fixes it, plus the energy view of a
//! feed-bound job.
//!
//!     cargo run --release --example heterogeneous

use accelmr::hybrid::experiments::dist::run_encrypt_job;
use accelmr::hybrid::{job_energy, AdaptivePiKernel, EnergyModel, EngineClass, MixedEnvFactory};
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

    println!();
    println!("== energy view of a feed-bound encryption job (4 nodes, 8 GB) ==");
    let model = EnergyModel::default();
    let java = run_encrypt_job(1, 4, 8 << 30, AesMapper::Java, &MrConfig::default());
    let cell = run_encrypt_job(2, 4, 8 << 30, AesMapper::Cell, &MrConfig::default());
    let java_busy = SimDuration::from_secs_f64((8u64 << 30) as f64 / 20.0e6);
    let cell_busy = SimDuration::from_secs_f64((8u64 << 30) as f64 / 700.0e6);
    let e_java = job_energy(&model, &java, EngineClass::PpeScalar, 4, java_busy);
    let e_cell = job_energy(&model, &cell, EngineClass::CellSpe, 4, cell_busy);
    println!(
        "{:>6}: {:>7.1} s, kernel {:>9.0} J, total {:>9.0} J",
        "java",
        java.elapsed.as_secs_f64(),
        e_java.kernel_joules,
        e_java.total_joules
    );
    println!(
        "{:>6}: {:>7.1} s, kernel {:>9.0} J, total {:>9.0} J",
        "cell",
        cell.elapsed.as_secs_f64(),
        e_cell.kernel_joules,
        e_cell.total_joules
    );
    println!();
    println!("Same job time (feed-bound), >10x less kernel energy — the paper's");
    println!("§V conjecture about accelerators and data-intensive workloads.");
}
