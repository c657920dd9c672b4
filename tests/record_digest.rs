//! The record digest rule, held at the TaskTracker: every materialized
//! record is folded into the job digest exactly once — the FNV-1a
//! `checksum` of the kernel's output image, or of the record's input when
//! the kernel returns none — whatever the kernel, and whatever happens to
//! the attempts that carried it.

use std::sync::Arc;

use accelmr::hybrid::presets::SortMapKernel;
use accelmr::hybrid::{job_key, JOB_NONCE};
use accelmr::kernels::aes::modes::ctr_xor;
use accelmr::kernels::{checksum, fill_deterministic, UnorderedDigest};
use accelmr::mapred::{FixedCostKernel, MrConfig, SchedulerPolicy, SumReducer, TaskKernel};
use accelmr::prelude::*;

const KB: u64 = 1 << 10;
const RECORD: u64 = 256 * KB;
const RECORDS: u64 = 8;
const SEED: u64 = 4242;

/// Serial fold over the input's records, each digested as its plaintext or
/// (`encrypted`) as its AES-CTR ciphertext.
fn serial_digest(seed: u64, record: u64, records: u64, encrypted: bool) -> (u64, u64) {
    let mut digest = UnorderedDigest::new();
    for r in 0..records {
        let mut buf = vec![0u8; record as usize];
        fill_deterministic(seed, r * record, &mut buf);
        if encrypted {
            ctr_xor(
                &job_key(),
                AesImpl::TTable,
                JOB_NONCE,
                r * record / 16,
                &mut buf,
            );
        }
        digest.add(checksum(&buf));
    }
    digest.finish()
}

fn run_materialized(kernel: Arc<dyn TaskKernel>) -> JobResult {
    let mut cluster = ClusterBuilder::new()
        .seed(17)
        .workers(3)
        .env(CellEnvFactory { materialized: true })
        .materialized(true)
        .deploy();
    let mut session = cluster.session();
    session.submit(
        JobBuilder::new("digest-rule")
            .input_file("/in")
            .record_bytes(RECORD)
            .kernel_arc(kernel)
            .map_tasks(4)
            .digest_output()
            // 384 KiB blocks: every other record spans two blocks.
            .preload(PreloadSpec::new("/in", RECORDS * RECORD, SEED).block_size(384 * KB)),
    );
    session.run()
}

/// Kernels with an output image are digested on it; kernels without one
/// on their input. Every record counts once.
#[test]
fn every_kernel_digests_each_materialized_record_once() {
    let plain = serial_digest(SEED, RECORD, RECORDS, false);
    let cipher = serial_digest(SEED, RECORD, RECORDS, true);
    let cases: [(Arc<dyn TaskKernel>, (u64, u64)); 6] = [
        (Arc::new(EmptyKernel), plain),
        (Arc::new(SortMapKernel), plain),
        (Arc::new(FixedCostKernel::default()), plain),
        (Arc::new(JavaAesKernel::new()), cipher),
        (Arc::new(CellAesKernel::new()), cipher),
        (Arc::new(CellMrAesKernel::new()), cipher),
    ];
    for (kernel, expected) in cases {
        let name = kernel.name();
        let result = run_materialized(kernel);
        assert!(result.succeeded, "{name}: {:?}", result.error);
        assert_eq!(result.digest.1, RECORDS, "{name}: record count");
        assert_eq!(result.digest, expected, "{name}: digest");
    }
    assert_ne!(plain, cipher);
}

/// Records that straddle blocks are assembled from segment images, and
/// every image comes from the record-image pool with whatever bytes it
/// last held. The job runs twice in one process, so the second run draws
/// images the first handed back; neither digest may differ from the
/// serial one.
#[test]
fn recycled_images_leave_no_stale_bytes_in_straddling_records() {
    const MIB: u64 = 1 << 20;
    // 3 MiB records over 4 MiB blocks: records 1, 2 and 5 span two blocks.
    const BIG_RECORD: u64 = 3 * MIB;
    const BIG_RECORDS: u64 = 6;
    let expected = serial_digest(SEED, BIG_RECORD, BIG_RECORDS, true);
    for run in ["first", "second"] {
        let mut cluster = ClusterBuilder::new()
            .seed(17)
            .workers(3)
            .env(CellEnvFactory { materialized: true })
            .materialized(true)
            .deploy();
        let mut session = cluster.session();
        session.submit(
            JobBuilder::new("straddle")
                .input_file("/in")
                .record_bytes(BIG_RECORD)
                .kernel(CellAesKernel::new())
                .map_tasks(3)
                .digest_output()
                .preload(
                    PreloadSpec::new("/in", BIG_RECORDS * BIG_RECORD, SEED).block_size(4 * MIB),
                ),
        );
        let result = session.run();
        assert!(result.succeeded, "{run} run: {:?}", result.error);
        assert_eq!(result.digest, expected, "{run} run: digest");
    }
}

/// A job on a timing-only cluster materializes nothing and digests nothing.
#[test]
fn a_virtual_run_digests_nothing() {
    let mut cluster = ClusterBuilder::new().seed(17).workers(3).deploy();
    let mut session = cluster.session();
    session.submit(
        JobBuilder::new("virtual")
            .input_file("/in")
            .record_bytes(RECORD)
            .kernel(FixedCostKernel::default())
            .map_tasks(4)
            .digest_output()
            .preload(PreloadSpec::new("/in", RECORDS * RECORD, SEED).block_size(384 * KB)),
    );
    let result = session.run();
    assert!(result.succeeded);
    assert_eq!(result.digest, (0, 0));
}

/// Preemption kills bulk attempts part-way through their records: the
/// digests those attempts already handed off are dropped unread, and the
/// re-executed attempts fold every record exactly once.
#[test]
fn killed_attempts_leave_no_trace_in_the_job_digest() {
    const BULK_RECORD: u64 = 64 * KB;
    const BULK_RECORDS: u64 = 32;
    let mut cluster = ClusterBuilder::new()
        .seed(301)
        .workers(4)
        .mr(MrConfig {
            scheduler: SchedulerPolicy::DeadlineSlack,
            preemption: PreemptionTuning {
                max_kills_per_job: 8,
                min_attempt_age: SimDuration::from_secs(5),
                cooldown: SimDuration::from_secs(5),
                slack_margin: SimDuration::from_secs(60),
            },
            ..MrConfig::default()
        })
        .materialized(true)
        .deploy();
    let mut session = cluster.session();
    // Eight 120 s tasks of four 30 s records saturate all eight slots.
    let bulk = session.submit(
        JobBuilder::new("bulk")
            .tenant("batch")
            .input_file("/bulk")
            .record_bytes(BULK_RECORD)
            .kernel(FixedCostKernel {
                per_record: SimDuration::from_secs(30),
                ..FixedCostKernel::default()
            })
            .map_tasks(8)
            .digest_output()
            .preload(
                PreloadSpec::new("/bulk", BULK_RECORDS * BULK_RECORD, SEED).block_size(BULK_RECORD),
            ),
    );
    let urgent = session.submit_after(
        SimDuration::from_secs(30),
        JobBuilder::new("urgent")
            .tenant("interactive")
            .synthetic(4 * 40_000_000)
            .map_tasks(4)
            .kernel(FixedCostKernel::default())
            .rpc_aggregate(SumReducer {
                cycles_per_byte: 1.0,
            })
            .deadline_at(SimTime::ZERO + SimDuration::from_secs(80)),
    );
    let results = session.run_until_complete();
    assert!(results.iter().all(|r| r.succeeded));
    let (bulk, urgent) = (bulk.result(), urgent.result());
    drop(session);
    assert!(bulk.preempted_attempts >= 1, "no bulk attempt was killed");
    assert_eq!(
        cluster.sim.stats().counter("mr.preemptions"),
        bulk.preempted_attempts as u64
    );
    assert_eq!(
        bulk.digest,
        serial_digest(SEED, BULK_RECORD, BULK_RECORDS, false)
    );
    assert_eq!(urgent.digest, (0, 0));
}
