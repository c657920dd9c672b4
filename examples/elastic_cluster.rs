//! Elastic-cluster demo: the paper's "dynamically variable number of
//! nodes" end to end. A 32-worker terasort runs while nodes join *and*
//! leave mid-job:
//!
//! * joins grow the fabric, spawn a DataNode + TaskTracker, enter the
//!   NameNode's placement rotation, and start pulling map tasks on their
//!   first heartbeats;
//! * leaves are crashes — in-flight transfers abort, lost attempts and
//!   lost map outputs re-execute (with exactly-once accounting), reads
//!   reroute to surviving replicas, and the NameNode re-replicates every
//!   block back to its target.
//!
//!     cargo run --release --example elastic_cluster

use accelmr::dfs::NameNode;
use accelmr::prelude::*;

fn main() {
    const WORKERS: usize = 32;
    const BLOCKS: u64 = 128; // 64 MB each, 8 GiB total, replication 2

    let mut cluster = ClusterBuilder::new()
        .seed(7)
        .workers(WORKERS)
        .mr(MrConfig {
            tt_dead_after: SimDuration::from_secs(12),
            max_attempts: 12,
            ..MrConfig::default()
        })
        .dfs(DfsConfig {
            dead_after: SimDuration::from_secs(12),
        })
        .deploy();

    let mut session = cluster.session();
    // 4 joins and 3 departures interleaved across t = 12 s .. 42 s.
    let leavers = [NodeId(3), NodeId(11), NodeId(19)];
    let joined = session.churn(ChurnSchedule::wave(
        4,
        &leavers,
        SimDuration::from_secs(12),
        SimDuration::from_secs(30),
    ));
    session.submit(
        presets::terasort_replicated("/gray", BLOCKS * (64 << 20), 8, 2).map_tasks(BLOCKS as usize),
    );
    let result = session.run();

    // Let the last death-detection window elapse so replication repair
    // finishes, then audit the NameNode.
    let resume = cluster.sim.now();
    cluster.sim.run_until(resume + SimDuration::from_secs(60));

    assert!(result.succeeded, "terasort failed under churn");
    let counts = result.dispatch_counts();
    let on_joined: u32 = joined
        .iter()
        .map(|&n| {
            counts
                .iter()
                .find(|&&(node, _)| node == n)
                .map(|&(_, c)| c)
                .unwrap_or(0)
        })
        .sum();
    let stats = cluster.sim.stats();
    println!(
        "32-worker terasort under churn ({} GiB):",
        (BLOCKS * 64) >> 10
    );
    println!(
        "  simulated makespan   {:>8.1} s",
        result.elapsed.as_secs_f64()
    );
    println!(
        "  joins / leaves       {:>8} / {}",
        stats.counter("cluster.nodes_joined"),
        stats.counter("cluster.nodes_left"),
    );
    println!(
        "  joined nodes {:?} took {} task dispatches",
        joined.iter().map(|n| n.0).collect::<Vec<_>>(),
        on_joined
    );
    println!(
        "  attempts             {:>8} ({} map tasks; re-execution visible)",
        result.attempts, result.map_tasks
    );
    println!(
        "  blocks re-replicated {:>8}",
        stats.counter("dfs.blocks_replicated")
    );
    let nn = cluster
        .sim
        .actor_ref::<NameNode>(cluster.dfs.namenode)
        .expect("namenode alive");
    assert_eq!(nn.under_replicated_blocks(), 0);
    println!(
        "  under-replicated     {:>8} (every block back at target)",
        0
    );
    assert!(on_joined > 0, "joined nodes took no work");
}
