//! Job presets for the paper's workloads.
//!
//! Each preset returns a ready-to-submit [`JobBuilder`] wired with the
//! paper's kernel, input shape, and reduce phase — Pi estimation
//! (CPU-intensive), AES-CTR encryption (data-intensive), and the
//! Terasort-style sort (shuffle-heavy). Builders stay open for further
//! tweaking before submission:
//!
//! ```
//! use accelmr_hybrid::{presets, CellEnvFactory};
//! use accelmr_hybrid::presets::PiMapper;
//! use accelmr_mapred::ClusterBuilder;
//!
//! let mut cluster = ClusterBuilder::new()
//!     .seed(42)
//!     .workers(4)
//!     .env(CellEnvFactory::default())
//!     .deploy();
//! let mut session = cluster.session();
//! let job = session.submit(presets::pi(PiMapper::Cell, 7, 10_000_000));
//! session.run_until_complete();
//! let pi = presets::pi_estimate(&job.result()).unwrap();
//! assert!((pi - std::f64::consts::PI).abs() < 0.01);
//! ```
//!
//! Because presets return open builders, multi-tenant batches compose by
//! chaining the fairness setters — tenant, weight, deadline — before
//! submission (consumed by the job-level `FairShare` / `DeadlineSlack`
//! policies):
//!
//! ```
//! use accelmr_des::{SimDuration, SimTime};
//! use accelmr_hybrid::presets::{self, PiMapper};
//!
//! let urgent = presets::pi(PiMapper::Cell, 7, 10_000_000)
//!     .tenant("interactive")
//!     .weight(2.0)
//!     .deadline_at(SimTime::ZERO + SimDuration::from_secs(90));
//! let bulk = presets::terasort("/gray", 1 << 30, 8).tenant("batch");
//! # let _ = (urgent, bulk);
//! ```

use std::sync::Arc;

use accelmr_des::SimDuration;
use accelmr_dfs::BLOCK_SIZE;
use accelmr_kernels::cost::{self, Engine};
use accelmr_mapred::{
    JobBuilder, JobResult, NodeEnv, OutputSink, PreloadSpec, RecordCtx, RecordOutcome,
    ReduceKernel, SumReducer, TaskKernel,
};

use crate::kernels::{CellAesKernel, CellPiKernel, EmptyKernel, JavaAesKernel, JavaPiKernel};

/// Which mapper configuration runs an encryption job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AesMapper {
    /// Pure-Java mapper on the PPE.
    Java,
    /// Cell-accelerated mapper through the direct SPE library.
    Cell,
    /// EmptyMapper: reads data, computes and emits nothing.
    Empty,
}

impl AesMapper {
    /// The map kernel this configuration runs.
    pub fn kernel(self) -> Arc<dyn TaskKernel> {
        match self {
            AesMapper::Java => Arc::new(JavaAesKernel::new()),
            AesMapper::Cell => Arc::new(CellAesKernel::new()),
            AesMapper::Empty => Arc::new(EmptyKernel),
        }
    }

    /// Legend label, matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            AesMapper::Java => "Java Mapper",
            AesMapper::Cell => "Cell BE Mapper",
            AesMapper::Empty => "Empty Mapper",
        }
    }

    /// Where this configuration routes map output (EmptyMapper discards).
    pub fn output(self) -> OutputSink {
        match self {
            AesMapper::Empty => OutputSink::Discard,
            _ => OutputSink::Dfs {
                path: "/out".into(),
                replication: Some(1),
            },
        }
    }
}

/// Which mapper configuration runs a Pi job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PiMapper {
    /// Pure-Java PiEstimator port.
    Java,
    /// Cell-accelerated sampler.
    Cell,
}

impl PiMapper {
    /// The map kernel this configuration runs, sampling from `seed`.
    pub fn kernel(self, seed: u64) -> Arc<dyn TaskKernel> {
        match self {
            PiMapper::Java => Arc::new(JavaPiKernel::new(seed)),
            PiMapper::Cell => Arc::new(CellPiKernel::new(seed)),
        }
    }

    /// Legend label, matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            PiMapper::Java => "Java Mapper",
            PiMapper::Cell => "Cell BE Mapper",
        }
    }
}

/// Monte Carlo Pi estimation (the paper's CPU-intensive workload):
/// `samples` synthetic units, RPC-aggregated `(inside, total)` counts.
/// Defaults to one map task per slot; override with
/// [`JobBuilder::map_tasks`].
pub fn pi(mapper: PiMapper, kernel_seed: u64, samples: u64) -> JobBuilder {
    JobBuilder::new(format!("pi-{}", mapper.label()))
        .synthetic(samples)
        .kernel_arc(mapper.kernel(kernel_seed))
        .rpc_aggregate(SumReducer {
            cycles_per_byte: 1.0,
        })
}

/// Extracts the Pi estimate from a [`pi`] job's aggregated counters:
/// key 0 = samples inside the quarter circle, key 1 = total samples.
pub fn pi_estimate(result: &JobResult) -> Option<f64> {
    let inside = result.value(0)?;
    let total = result.value(1)?;
    (total > 0).then(|| 4.0 * inside as f64 / total as f64)
}

/// Distributed AES-CTR encryption (the paper's data-intensive workload):
/// preloads `total_bytes` of input at `input_path` (64 MB blocks,
/// replication 1, as the paper's HDFS deployment), maps it in 64 MB
/// records, and writes ciphertext back unless the mapper is
/// [`AesMapper::Empty`].
pub fn encrypt(mapper: AesMapper, input_path: &str, total_bytes: u64) -> JobBuilder {
    encrypt_seeded(mapper, input_path, total_bytes, 7)
}

/// [`encrypt`] with an explicit input-content seed.
pub fn encrypt_seeded(
    mapper: AesMapper,
    input_path: &str,
    total_bytes: u64,
    content_seed: u64,
) -> JobBuilder {
    JobBuilder::new(format!("encrypt-{}", mapper.label()))
        .input_file(input_path)
        .record_bytes(BLOCK_SIZE)
        .kernel_arc(mapper.kernel())
        .output(mapper.output())
        .preload(
            PreloadSpec::new(input_path, total_bytes, content_seed)
                .block_size(BLOCK_SIZE)
                .replication(1),
        )
}

/// Map-side sort kernel: radix-sorts each record into a run (modeled on the
/// task-JVM engine; the paper's Terasort observation is engine-independent).
#[derive(Clone, Copy, Debug)]
pub struct SortMapKernel;

impl TaskKernel for SortMapKernel {
    fn name(&self) -> &'static str {
        "terasort-map"
    }

    fn map_record(&self, _env: &mut dyn NodeEnv, rec: &RecordCtx<'_>) -> RecordOutcome {
        RecordOutcome {
            compute: cost::sort_time(Engine::JavaPpeTask, rec.len),
            output_bytes: rec.len,
            output: None,
            kv: vec![(0, rec.len)],
        }
    }
}

/// Reduce-side merge kernel.
#[derive(Clone, Copy, Debug)]
pub struct MergeReduceKernel;

impl ReduceKernel for MergeReduceKernel {
    fn name(&self) -> &'static str {
        "terasort-merge"
    }

    fn reduce_time(&self, bytes: u64, _pairs: u64) -> SimDuration {
        // k-way merge touches each byte once.
        cost::sort_time(Engine::JavaPpeTask, bytes / 2)
    }

    fn aggregate(&self, pairs: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let total: u64 = pairs.iter().map(|&(_, v)| v).sum();
        vec![(0, total)]
    }
}

/// Terasort-style sort (identity map + full shuffle + merging reducers):
/// preloads `total_bytes` at `input_path`, sorts it through `reducers`
/// reduce tasks, and writes the merged partitions back to the DFS.
pub fn terasort(input_path: &str, total_bytes: u64, reducers: usize) -> JobBuilder {
    terasort_replicated(input_path, total_bytes, reducers, 1)
}

/// [`terasort`] with an explicit input replication factor. The paper ran
/// replication 1; elastic clusters want ≥ 2 so departing nodes lose no
/// input — surviving replicas serve reads immediately and the NameNode
/// re-replicates the shortfall in the background.
pub fn terasort_replicated(
    input_path: &str,
    total_bytes: u64,
    reducers: usize,
    replication: usize,
) -> JobBuilder {
    JobBuilder::new("terasort")
        .input_file(input_path)
        .record_bytes(BLOCK_SIZE)
        .kernel(SortMapKernel)
        .digest_output()
        .shuffle(reducers, MergeReduceKernel, true)
        .preload(
            PreloadSpec::new(input_path, total_bytes, 13)
                .block_size(BLOCK_SIZE)
                .replication(replication),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelmr_mapred::{JobInput, ReduceSpec};

    #[test]
    fn pi_preset_shape() {
        let req = pi(PiMapper::Cell, 3, 1000).map_tasks(4).request();
        assert_eq!(req.spec.name, "pi-Cell BE Mapper");
        assert!(matches!(
            req.spec.input,
            JobInput::Synthetic { total_units: 1000 }
        ));
        assert!(matches!(req.spec.reduce, ReduceSpec::RpcAggregate { .. }));
        assert!(req.preloads.is_empty());
    }

    #[test]
    fn encrypt_preset_carries_preload() {
        let req = encrypt(AesMapper::Java, "/input", 1 << 30).request();
        assert_eq!(req.preloads.len(), 1);
        assert_eq!(req.preloads[0].path, "/input");
        assert_eq!(req.preloads[0].len, 1 << 30);
        assert_eq!(req.preloads[0].block_size, Some(BLOCK_SIZE));
        match &req.spec.output {
            OutputSink::Dfs { path, .. } => assert_eq!(path, "/out"),
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn empty_mapper_discards() {
        let req = encrypt(AesMapper::Empty, "/input", 1 << 20).request();
        assert_eq!(req.spec.output, OutputSink::Discard);
    }

    #[test]
    fn terasort_preset_shuffles() {
        let req = terasort("/tera-in", 1 << 30, 4).request();
        assert!(matches!(
            req.spec.reduce,
            ReduceSpec::Shuffle {
                reducers: 4,
                write_output: true,
                ..
            }
        ));
        assert_eq!(req.preloads[0].replication, Some(1));
    }

    #[test]
    fn terasort_replicated_sets_input_replication() {
        let req = terasort_replicated("/tera-in", 1 << 30, 4, 3).request();
        assert_eq!(req.preloads[0].replication, Some(3));
    }
}
