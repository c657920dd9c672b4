//! Fault tolerance demo: crash a TaskTracker mid-job and watch the
//! JobTracker detect the silence, re-execute lost tasks, and finish with
//! byte-exact output accounting.
//!
//!     cargo run --release --example fault_tolerance

use accelmr::prelude::*;

fn main() {
    let mut cluster = ClusterBuilder::new()
        .seed(7)
        .workers(4)
        .env(CellEnvFactory { materialized: true })
        .materialized(true) // DataNodes serve real bytes
        .deploy();

    // Crash node 2's TaskTracker 10 simulated seconds in — mid-job, while
    // its map slots still hold unfinished tasks.
    let victim = cluster.mr.tasktracker_on(NodeId(2)).unwrap();
    cluster.sim.post_after(
        victim,
        Box::new(accelmr::mapred::CrashTaskTracker),
        SimDuration::from_secs(10),
    );

    // Small materialized input, replication 2 so a node death loses no data.
    let mut session = cluster.session();
    session.submit(
        JobBuilder::new("encrypt-with-crash")
            .input_file("/in")
            .record_bytes(4 << 20)
            .kernel(CellAesKernel::new())
            .map_tasks(12)
            .digest_output()
            .preload(
                PreloadSpec::new("/in", 48 << 20, 5)
                    .block_size(4 << 20)
                    .replication(2),
            ),
    );
    let result = session.run();

    // Independent exactly-once verification: recompute the expected
    // order-independent digest of all encrypted records.
    let key = accelmr::hybrid::job_key();
    let mut expect = accelmr::kernels::UnorderedDigest::new();
    for r in 0..12u64 {
        let mut buf = vec![0u8; 4 << 20];
        accelmr::kernels::fill_deterministic(5, r * (4 << 20), &mut buf);
        accelmr::kernels::aes::modes::ctr_xor(
            &key,
            AesImpl::TTable,
            accelmr::hybrid::JOB_NONCE,
            r * (4 << 20) / 16,
            &mut buf,
        );
        expect.add(accelmr::kernels::checksum(&buf));
    }

    println!("job finished: success = {}", result.succeeded);
    println!("  simulated time     : {}", result.elapsed);
    println!("  map tasks          : {}", result.map_tasks);
    println!(
        "  attempts launched  : {} (re-execution visible)",
        result.attempts
    );
    println!(
        "  tasktrackers dead  : {}",
        cluster.sim.stats().counter("mr.tasktrackers_declared_dead")
    );
    println!(
        "  ciphertext digest  : {:#018x} over {} records",
        result.digest.0, result.digest.1
    );
    let (exp_acc, exp_n) = expect.finish();
    assert_eq!(result.digest, (exp_acc, exp_n), "exactly-once violated!");
    println!("  verification       : digest matches serial reference — every");
    println!("                       record encrypted exactly once despite the crash");
}
