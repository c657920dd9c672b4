//! Chaos-plane demo: a 16-worker terasort survives a deterministic fault
//! storm — a healed network partition, a gray (silently slow) node, and
//! a heartbeat-loss window that falsely kills a live tracker — with
//! exactly-once output accounting:
//!
//! * the partitioned node's transfers *stall at rate zero* and resume at
//!   heal (or ride the fetch-timeout retry path onto fresh flows);
//! * the gray node keeps heartbeating while computing at quarter speed,
//!   so only speculation and the data plane can notice it;
//! * the falsely-dead node's requeued attempts are *epoch-fenced*: its
//!   zombie completion reports, riding the first post-window heartbeat,
//!   are rejected so nothing is double-counted — and the node rejoins
//!   service (resurrection) instead of being stranded.
//!
//! The run asserts the digest matches a fault-free run of the same seed
//! and that the reduce aggregate equals the input size exactly.
//!
//!     cargo run --release --example chaos_terasort

use accelmr::prelude::*;

const WORKERS: usize = 16;
const BLOCKS: u64 = 64; // 64 MB each, 4 GiB total, replication 2

fn run(plan: FaultPlan) -> (JobResult, Vec<(&'static str, u64)>) {
    let mut cluster = ClusterBuilder::new()
        .seed(2009)
        .workers(WORKERS)
        .mr(MrConfig {
            tt_dead_after: SimDuration::from_secs(12),
            speculative: true,
            ..MrConfig::hardened() // I/O timeouts, blacklisting, watchdog
        })
        .dfs(DfsConfig {
            dead_after: SimDuration::from_secs(12),
        })
        .deploy();
    let mut session = cluster.session();
    session.faults(plan);
    session.submit(
        presets::terasort_replicated("/chaos", BLOCKS * (64 << 20), 8, 2)
            .map_tasks(BLOCKS as usize),
    );
    let result = session.run();
    let counters = [
        "net.partitions_healed",
        "mr.gray_injected",
        "mr.heartbeats_suppressed",
        "mr.fenced_reports",
        "mr.tt_resurrections",
        "mr.attempt_retries",
        "dfs.read_retries",
        "mr.speculative_launches",
    ]
    .iter()
    .map(|&name| (name, cluster.sim.stats().counter(name)))
    .collect();
    (result, counters)
}

fn main() {
    let sec = SimDuration::from_secs;
    let plan = FaultPlan::new()
        // NIC down for 30 s mid-map: flows stall (not abort), then resume.
        .op_at(
            sec(12),
            FaultOp::Partition {
                node: NodeId(2),
                window: sec(30),
            },
        )
        // Quarter-speed compute for 40 s; heartbeats keep flowing.
        .op_at(
            sec(15),
            FaultOp::Gray {
                node: NodeId(5),
                factor: 0.25,
                window: sec(40),
            },
        )
        // No heartbeats for 25 s: long enough to trip death detection.
        .op_at(
            sec(20),
            FaultOp::HeartbeatLoss {
                node: NodeId(9),
                window: sec(25),
            },
        );

    let (baseline, _) = run(FaultPlan::new());
    let (faulted, counters) = run(plan);

    assert!(baseline.succeeded && faulted.succeeded);
    assert_eq!(
        faulted.digest, baseline.digest,
        "chaos changed the output digest"
    );
    let total: u64 = faulted.kv.iter().map(|&(_, v)| v).sum();
    assert_eq!(total, BLOCKS * (64 << 20), "exactly-once violated");

    println!("chaos terasort: {WORKERS} workers, {BLOCKS} x 64 MB blocks");
    println!(
        "  fault-free makespan {:.1} s, faulted {:.1} s ({:.2}x)",
        baseline.elapsed.as_secs_f64(),
        faulted.elapsed.as_secs_f64(),
        faulted.elapsed.as_secs_f64() / baseline.elapsed.as_secs_f64()
    );
    for (name, v) in counters {
        println!("  {name:<26} {v}");
    }
    println!("  digest exact under partition + gray + false death");
}
