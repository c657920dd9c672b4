//! Large-cluster demo: a 128-worker terasort, an order of magnitude past
//! the paper's testbed and the scale the related work simulates (30-node
//! GPU-storage sweeps, shuffle-bound Xeon-Phi workloads).
//!
//! This is the scenario the incremental fluid-rate fabric exists for: a
//! cluster-wide shuffle puts thousands of concurrent flows on the wire,
//! and the engine coalesces each same-instant wave into one max-min solve
//! instead of re-solving per flow (run `net_scale` for the engine
//! comparison — the pre-optimization solver is >10x slower wall-clock at
//! this scale). The example prints both simulated makespan and the wall
//! clock spent producing it.
//!
//!     cargo run --release --example large_cluster

use accelmr::prelude::*;

fn main() {
    const WORKERS: usize = 128;
    const DATA: u64 = 16 << 30; // 16 GiB across the cluster

    #[expect(
        clippy::disallowed_types,
        reason = "measures the run's real wall time, printed only; nothing from the host clock feeds the simulation"
    )]
    let started = std::time::Instant::now();
    let mut cluster = ClusterBuilder::new()
        .seed(2009)
        .workers(WORKERS)
        .env(CellEnvFactory::default())
        .deploy();

    let mut session = cluster.session();
    session.submit(presets::terasort("/gray", DATA, WORKERS));
    let result = session.run();
    let wall = started.elapsed().as_secs_f64();

    assert!(result.succeeded, "terasort failed");
    println!("128-worker terasort, {} GiB:", DATA >> 30);
    println!(
        "  simulated makespan  {:>10.1} s",
        result.elapsed.as_secs_f64()
    );
    println!(
        "  map / reduce tasks  {:>7} / {}",
        result.map_tasks, result.reduce_tasks
    );
    println!(
        "  shuffle volume      {:>10.1} GiB",
        result.bytes_read as f64 / (1u64 << 30) as f64
    );
    let stats = cluster.sim.stats();
    println!(
        "  fluid flows         {:>10} ({} max-min solves)",
        stats.counter("net.flows_done"),
        stats.counter("net.solver_calls"),
    );
    println!("  wall clock          {:>10.2} s", wall);
    println!();
    println!("A cluster this size was wall-clock infeasible under the per-event");
    println!("reference solver; the component-incremental engine makes the");
    println!("ROADMAP's next step — dynamic membership at 1000 nodes — cheap.");
}
