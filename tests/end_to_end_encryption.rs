//! End-to-end functional verification: ciphertext produced through the
//! *entire* simulated stack — HDFS blocks → record feed over the loopback →
//! JNI bridge → SPE local stores and DMA → map output — must equal a
//! locally computed serial AES-CTR reference, for every mapper engine.

use std::sync::Arc;

use accelmr::hybrid::{job_key, JOB_NONCE};
use accelmr::kernels::aes::modes::ctr_xor;
use accelmr::kernels::{checksum, fill_deterministic, UnorderedDigest};
use accelmr::mapred::CrashTaskTracker;
use accelmr::prelude::*;

const MB: u64 = 1 << 20;
const FILE_LEN: u64 = 24 * MB;
const RECORD: u64 = 2 * MB;
const SEED: u64 = 1234;

/// Serial reference digest: encrypt `file_len` bytes on one core, digest
/// each record's ciphertext.
fn reference_digest_for(file_len: u64) -> (u64, u64) {
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

fn reference_digest() -> (u64, u64) {
    reference_digest_for(FILE_LEN)
}

fn materialized_cluster(seed: u64) -> accelmr::mapred::MrCluster {
    ClusterBuilder::new()
        .seed(seed)
        .workers(3)
        .env(CellEnvFactory { materialized: true })
        .materialized(true)
        .deploy()
}

fn encrypt_job(kernel: Arc<dyn accelmr::mapred::TaskKernel>, len: u64) -> JobBuilder {
    JobBuilder::new("e2e-encrypt")
        .input_file("/plain")
        .record_bytes(RECORD)
        .kernel_arc(kernel)
        .map_tasks(6)
        .digest_output()
        .preload(
            PreloadSpec::new("/plain", len, SEED)
                .block_size(4 * MB)
                .replication(2),
        )
}

fn run_encryption(kernel: Arc<dyn accelmr::mapred::TaskKernel>, seed: u64) -> JobResult {
    let mut cluster = materialized_cluster(seed);
    let mut session = cluster.session();
    session.submit(encrypt_job(kernel, FILE_LEN));
    session.run()
}

#[test]
fn java_mapper_ciphertext_matches_serial_reference() {
    let result = run_encryption(Arc::new(JavaAesKernel::new()), 1);
    assert!(result.succeeded);
    assert_eq!(result.digest, reference_digest());
}

#[test]
fn cell_mapper_ciphertext_matches_serial_reference() {
    let result = run_encryption(Arc::new(CellAesKernel::new()), 2);
    assert!(result.succeeded);
    assert_eq!(result.digest, reference_digest());
}

#[test]
fn cellmr_mapper_ciphertext_matches_serial_reference() {
    let result = run_encryption(Arc::new(CellMrAesKernel::new()), 3);
    assert!(result.succeeded);
    assert_eq!(result.digest, reference_digest());
}

#[test]
fn all_engines_agree_with_each_other() {
    let a = run_encryption(Arc::new(JavaAesKernel::new()), 4);
    let b = run_encryption(Arc::new(CellAesKernel::new()), 5);
    let c = run_encryption(Arc::new(CellMrAesKernel::new()), 6);
    assert_eq!(a.digest, b.digest);
    assert_eq!(b.digest, c.digest);
    // ...while their simulated times differ (different engines).
    assert_ne!(a.elapsed, b.elapsed);
}

#[test]
fn crash_during_job_preserves_exactly_once_output() {
    // Larger file so tasks (4 records x ~1.2 s feed each) are guaranteed to
    // straddle the crash instant: work begins no later than
    // init(8) + heartbeat(3) + task start(1.8) = 12.8 s and each task needs
    // >4 s more, so a crash at t=14 s always hits node 1 mid-task.
    let crash_len = 48 * MB;
    let mut cluster = materialized_cluster(7);
    let victim = cluster.mr.tasktracker_on(NodeId(1)).unwrap();
    let mut session = cluster.session();
    session.sim_mut().post_after(
        victim,
        Box::new(CrashTaskTracker),
        SimDuration::from_secs(14),
    );
    session.submit(encrypt_job(Arc::new(JavaAesKernel::new()), crash_len).name("e2e-crash"));
    let result = session.run();
    assert!(result.succeeded);
    assert!(
        result.attempts > result.map_tasks,
        "no re-execution happened"
    );
    assert_eq!(result.digest, reference_digest_for(crash_len));
}
