//! End-to-end dynamic membership: nodes joining and leaving mid-job
//! through the `Session` churn API, with functional (digest-exact)
//! verification and DFS re-replication convergence.

use accelmr::dfs::NameNode;
use accelmr::hybrid::{job_key, JOB_NONCE};
use accelmr::kernels::aes::modes::ctr_xor;
use accelmr::kernels::{checksum, fill_deterministic, UnorderedDigest};
use accelmr::prelude::*;

const MB: u64 = 1 << 20;
const RECORD: u64 = 2 * MB;
const SEED: u64 = 77;

/// Serial reference digest of the encrypted input: what the job's
/// order-independent output digest must equal if and only if every record
/// was mapped exactly once.
fn reference_digest(file_len: u64) -> (u64, u64) {
    let key = job_key();
    let mut digest = UnorderedDigest::new();
    for r in 0..(file_len / RECORD) {
        let mut buf = vec![0u8; RECORD as usize];
        fill_deterministic(SEED, r * RECORD, &mut buf);
        ctr_xor(&key, AesImpl::TTable, JOB_NONCE, r * RECORD / 16, &mut buf);
        digest.add(checksum(&buf));
    }
    digest.finish()
}

fn elastic_cluster(seed: u64) -> accelmr::mapred::MrCluster {
    ClusterBuilder::new()
        .seed(seed)
        .workers(4)
        .env(CellEnvFactory { materialized: true })
        .materialized(true)
        .mr(MrConfig {
            tt_dead_after: SimDuration::from_secs(12),
            ..MrConfig::default()
        })
        .dfs(DfsConfig {
            dead_after: SimDuration::from_secs(12),
        })
        .deploy()
}

fn encrypt_job(len: u64, tasks: usize) -> JobBuilder {
    JobBuilder::new("churn-encrypt")
        .input_file("/plain")
        .record_bytes(RECORD)
        .kernel(accelmr::hybrid::CellAesKernel::new())
        .map_tasks(tasks)
        .digest_output()
        .preload(
            PreloadSpec::new("/plain", len, SEED)
                .block_size(RECORD)
                .replication(2),
        )
}

/// A node joined mid-job takes real work and the job's output stays
/// byte-exact (every record mapped exactly once).
#[test]
fn joined_node_takes_work_with_exact_output() {
    let len = 48 * MB; // 24 records over 4 workers (8 slots): 3 waves
    let mut cluster = elastic_cluster(41);
    let mut session = cluster.session();
    // Join two nodes while the map queue is still deep.
    let a = session.add_node_at(SimDuration::from_secs(10));
    let b = session.add_node_at(SimDuration::from_secs(13));
    assert_eq!((a, b), (NodeId(5), NodeId(6)));
    session.submit(encrypt_job(len, 24));
    let result = session.run();

    assert!(result.succeeded);
    assert_eq!(
        result.digest,
        reference_digest(len),
        "exactly-once violated"
    );
    let on_joined: u32 = result
        .dispatch_counts()
        .iter()
        .filter(|&&(n, _)| n == a || n == b)
        .map(|&(_, c)| c)
        .sum();
    assert!(on_joined > 0, "joined nodes took no work: {result:?}");
    assert_eq!(cluster.sim.stats().counter("cluster.nodes_joined"), 2);
}

/// Satellite: kill a DataNode('s whole node) mid-job. The job completes
/// with correct output (reads reroute to surviving replicas, lost
/// attempts re-execute) and every block returns to target replication.
#[test]
fn departed_replica_holder_is_repaired_and_output_exact() {
    let len = 48 * MB;
    let mut cluster = elastic_cluster(42);
    let namenode = cluster.dfs.namenode;
    let mut session = cluster.session();
    session.remove_node_at(SimDuration::from_secs(15), NodeId(2));
    session.submit(encrypt_job(len, 24));
    let result = session.run();

    assert!(result.succeeded);
    assert_eq!(
        result.digest,
        reference_digest(len),
        "exactly-once violated"
    );
    assert_eq!(cluster.sim.stats().counter("cluster.nodes_left"), 1);

    // Drain past the detection window + repair pipelines, then audit.
    let resume = cluster.sim.now();
    cluster.sim.run_until(resume + SimDuration::from_secs(60));
    assert!(cluster.sim.stats().counter("dfs.replications_started") >= 1);
    let nn = cluster
        .sim
        .actor_ref::<NameNode>(namenode)
        .expect("namenode alive");
    assert_eq!(nn.under_replicated_blocks(), 0, "repair did not converge");
    let counts = nn.replica_counts("/plain").expect("file exists");
    assert!(
        counts.iter().all(|&c| c == 2),
        "blocks not back at target replication: {counts:?}"
    );
}

/// Joins and leaves together, driven by the `ChurnSchedule` helper, on a
/// shuffle job: map outputs lost to departures re-execute with their
/// contributions subtracted, so the final aggregate is still exact.
#[test]
fn churn_wave_preserves_shuffle_accounting() {
    let mut cluster = elastic_cluster(43);
    let mut session = cluster.session();
    // All three events land while the map queue is still deep (the job
    // runs ~30 s of simulated time).
    let joined = session.churn(ChurnSchedule::wave(
        2,
        &[NodeId(1)],
        SimDuration::from_secs(10),
        SimDuration::from_secs(8),
    ));
    assert_eq!(joined, vec![NodeId(5), NodeId(6)]);
    // 48 records, one pair per record through the shuffle.
    session.submit(
        presets::terasort_replicated("/gray", 48 * RECORD, 3, 2)
            .name("churn-sort")
            .record_bytes(RECORD)
            .map_tasks(48),
    );
    let result = session.run();
    assert!(result.succeeded);
    // MergeReduceKernel aggregates to the total bytes sorted: exactly the
    // input size iff no record was lost or double-counted under churn.
    let total: u64 = result.kv.iter().map(|&(_, v)| v).sum();
    assert_eq!(total, 48 * RECORD, "shuffle accounting drifted: {result:?}");
    assert_eq!(cluster.sim.stats().counter("cluster.nodes_joined"), 2);
    assert_eq!(cluster.sim.stats().counter("cluster.nodes_left"), 1);
}

/// Joins observed while a job initializes are part of the worker set its
/// splits are planned against (the plan is computed after init, against
/// the live node set).
#[test]
fn join_during_init_grows_the_split_plan() {
    let mut cluster = elastic_cluster(44);
    let mut session = cluster.session();
    // Job initialization takes 8 s; these joins land inside it.
    session.add_node_at(SimDuration::from_secs(2));
    session.add_node_at(SimDuration::from_secs(3));
    session.submit(
        JobBuilder::new("grown-pi")
            .synthetic(60_000_000)
            .kernel(accelmr::hybrid::CellPiKernel::new(5))
            .rpc_aggregate(SumReducer {
                cycles_per_byte: 1.0,
            }),
    );
    let result = session.run();
    assert!(result.succeeded);
    // 4 deploy workers + 2 joins, 2 slots each.
    assert_eq!(result.map_tasks, 12, "plan ignored the joined nodes");
}

/// A join that lands *after* split planning but before the first dispatch
/// re-plans the job wholesale (counted by `mr.jobs_replanned`).
#[test]
fn join_before_dispatch_replans_splits() {
    let mut cluster = elastic_cluster(45);
    let mut session = cluster.session();
    // Tasks are built when init ends at t = 8 s; this join lands right
    // after, before the next dispatch heartbeat (deterministic for the
    // pinned seed).
    let joined = session.add_node_at(SimDuration::from_millis(8_020));
    session.submit(
        JobBuilder::new("replanned-pi")
            .synthetic(60_000_000)
            .kernel(accelmr::hybrid::CellPiKernel::new(5))
            .rpc_aggregate(SumReducer {
                cycles_per_byte: 1.0,
            }),
    );
    let result = session.run();
    assert!(result.succeeded);
    assert!(
        cluster.sim.stats().counter("mr.jobs_replanned") >= 1,
        "join between planning and dispatch did not re-plan"
    );
    // 4 deploy workers + 1 join, 2 slots each.
    assert_eq!(result.map_tasks, 10, "re-plan ignored the joined node");
    let _ = joined;
}

/// A batch with churn but no jobs still applies the membership changes
/// (the simulation is driven just past the last scheduled change).
#[test]
fn jobless_batch_applies_churn() {
    let mut cluster = elastic_cluster(46);
    let mut session = cluster.session();
    let n = session.add_node_at(SimDuration::from_secs(5));
    let results = session.run_until_complete();
    assert!(results.is_empty());
    assert_eq!(cluster.sim.stats().counter("cluster.nodes_joined"), 1);
    assert!(cluster.mr.tasktracker_on(n).is_some());
    assert!(cluster.dfs.datanode_on(n).is_some());
}
