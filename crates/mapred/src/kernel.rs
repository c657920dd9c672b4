//! Kernel interfaces: what a map task executes.
//!
//! The paper's key architectural move is that the Hadoop-level `map()`
//! invokes a *native* node-level runtime (Figure 1). We mirror that with
//! [`TaskKernel`]: the MapReduce runtime drives records/units through it
//! without knowing whether the kernel runs a scalar loop or offloads to a
//! simulated Cell BE. Node-resident accelerator state (SPU contexts stay
//! warm across tasks on the same node) lives in a per-node [`NodeEnv`] the
//! TaskTracker owns; kernels downcast it to their concrete type.

use std::any::Any;

use accelmr_des::SimDuration;

/// Node-resident execution environment (accelerator state). One per
/// TaskTracker, shared by every task that runs on the node. Kernels
/// upcast `&mut dyn NodeEnv` to `&mut dyn Any` and downcast from there.
pub trait NodeEnv: Any + Send {}

/// A [`NodeEnv`] for kernels with no node state (pure scalar kernels).
#[derive(Debug, Default)]
pub struct NullEnv;

impl NodeEnv for NullEnv {}

/// Builds the per-node environment at TaskTracker construction.
pub trait NodeEnvFactory: Send + Sync {
    /// Creates the environment for one node.
    fn build(&self, node_index: usize) -> Box<dyn NodeEnv>;

    /// `true` when the environments can hand back the real bytes a
    /// materialized job gives them. A cluster deployed with
    /// [`ClusterBuilder::materialized`](crate::ClusterBuilder::materialized)
    /// requires it. Environments without accelerator state have nothing
    /// timing-only about them, hence the default.
    fn materialized(&self) -> bool {
        true
    }
}

/// Factory producing [`NullEnv`]s.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullEnvFactory;

impl NodeEnvFactory for NullEnvFactory {
    fn build(&self, _node_index: usize) -> Box<dyn NodeEnv> {
        Box::new(NullEnv)
    }
}

/// One record handed to a map kernel.
#[derive(Debug)]
pub struct RecordCtx<'a> {
    /// Absolute byte offset of the record in the input file.
    pub abs_offset: u64,
    /// Record length, bytes.
    pub len: u64,
    /// Materialized content (functional runs only).
    pub bytes: Option<&'a [u8]>,
    /// The input file's content seed.
    pub file_seed: u64,
}

/// Result of mapping one record.
#[derive(Debug, Default)]
pub struct RecordOutcome {
    /// Simulated compute time charged for the record.
    pub compute: SimDuration,
    /// Bytes of output produced (drives output-write traffic).
    pub output_bytes: u64,
    /// Materialized output (functional runs; verified end to end). The
    /// TaskTracker digests it, or the record's input if this is `None`.
    pub output: Option<Vec<u8>>,
    /// Key/value pairs emitted toward the reduce phase.
    pub kv: Vec<(u64, u64)>,
}

/// Result of mapping a synthetic unit batch (CPU-intensive tasks).
#[derive(Debug, Default)]
pub struct UnitsOutcome {
    /// Simulated compute time.
    pub compute: SimDuration,
    /// Key/value pairs emitted toward the reduce phase.
    pub kv: Vec<(u64, u64)>,
}

/// The map-side kernel a job executes. Implementations live in the hybrid
/// crate (Java scalar, Cell-accelerated, empty); simple test kernels live
/// here.
pub trait TaskKernel: Send + Sync {
    /// Kernel name (metrics, traces, per-node setup dedup).
    fn name(&self) -> &'static str;

    /// One-time per-node initialization cost, paid the first time this
    /// kernel runs on a node (e.g. SPU context creation through JNI).
    fn node_setup(&self, env: &mut dyn NodeEnv) -> SimDuration {
        let _ = env;
        SimDuration::ZERO
    }

    /// Maps one record of a data-intensive job.
    fn map_record(&self, env: &mut dyn NodeEnv, rec: &RecordCtx<'_>) -> RecordOutcome;

    /// Maps `units` synthetic units of a CPU-intensive job. `stream`
    /// decorrelates RNG streams across tasks.
    fn map_units(&self, env: &mut dyn NodeEnv, units: u64, stream: u64) -> UnitsOutcome {
        let _ = (env, units, stream);
        UnitsOutcome::default()
    }
}

/// Reduce-side kernel.
pub trait ReduceKernel: Send + Sync {
    /// Kernel name.
    fn name(&self) -> &'static str;

    /// Simulated time to reduce `bytes` of fetched map output containing
    /// `pairs` pairs.
    fn reduce_time(&self, bytes: u64, pairs: u64) -> SimDuration;

    /// Folds all map-side pairs into the final pairs.
    fn aggregate(&self, pairs: &[(u64, u64)]) -> Vec<(u64, u64)>;
}

/// Sums values per key — the classic counting reducer (and exactly what the
/// Pi estimator's single reduce does with its `(inside, total)` pairs).
#[derive(Debug, Default, Clone, Copy)]
pub struct SumReducer {
    /// Cycles charged per reduced byte at 3.2 GHz-equivalent.
    pub cycles_per_byte: f64,
}

impl ReduceKernel for SumReducer {
    fn name(&self) -> &'static str {
        "sum"
    }

    fn reduce_time(&self, bytes: u64, pairs: u64) -> SimDuration {
        let cycles = self.cycles_per_byte * bytes as f64 + 50.0 * pairs as f64;
        SimDuration::from_secs_f64(cycles / 3.2e9)
    }

    fn aggregate(&self, pairs: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let mut map = std::collections::BTreeMap::new();
        for &(k, v) in pairs {
            *map.entry(k).or_insert(0u64) += v;
        }
        map.into_iter().collect()
    }
}

/// Test kernel: charges a fixed duration per record/unit batch and returns
/// no output image, so a materialized record's input is what gets
/// digested. Lets the runtime be tested without the hybrid layer.
#[derive(Debug, Clone, Copy)]
pub struct FixedCostKernel {
    /// Time per record.
    pub per_record: SimDuration,
    /// Time per unit.
    pub per_unit_ns: u64,
    /// Output bytes per input byte (0 = no output).
    pub output_ratio_percent: u32,
    /// Per-node setup cost.
    pub setup: SimDuration,
}

impl Default for FixedCostKernel {
    fn default() -> Self {
        FixedCostKernel {
            per_record: SimDuration::from_millis(10),
            per_unit_ns: 100,
            output_ratio_percent: 0,
            setup: SimDuration::ZERO,
        }
    }
}

impl TaskKernel for FixedCostKernel {
    fn name(&self) -> &'static str {
        "fixed-cost"
    }

    fn node_setup(&self, _env: &mut dyn NodeEnv) -> SimDuration {
        self.setup
    }

    fn map_record(&self, _env: &mut dyn NodeEnv, rec: &RecordCtx<'_>) -> RecordOutcome {
        let output_bytes = rec.len * self.output_ratio_percent as u64 / 100;
        RecordOutcome {
            compute: self.per_record,
            output_bytes,
            output: None,
            kv: vec![(rec.abs_offset / rec.len.max(1), 1)],
        }
    }

    fn map_units(&self, _env: &mut dyn NodeEnv, units: u64, stream: u64) -> UnitsOutcome {
        UnitsOutcome {
            compute: SimDuration::from_nanos(self.per_unit_ns * units),
            kv: vec![(stream, units)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_env_downcasts() {
        let mut env: Box<dyn NodeEnv> = NullEnvFactory.build(0);
        assert!((&mut *env as &mut dyn Any).is::<NullEnv>());
    }

    #[test]
    fn fixed_kernel_charges_time_and_keys_by_record() {
        let k = FixedCostKernel::default();
        let mut env = NullEnv;
        let data = vec![7u8; 64];
        let out = k.map_record(
            &mut env,
            &RecordCtx {
                abs_offset: 128,
                len: 64,
                bytes: Some(&data),
                file_seed: 0,
            },
        );
        assert_eq!(out.compute, SimDuration::from_millis(10));
        assert!(out.output.is_none());
        assert_eq!(out.kv, vec![(2, 1)]);

        let units = k.map_units(&mut env, 1000, 5);
        assert_eq!(units.compute, SimDuration::from_micros(100));
    }

    #[test]
    fn sum_reducer_aggregates_per_key() {
        let r = SumReducer {
            cycles_per_byte: 1.0,
        };
        let out = r.aggregate(&[(1, 2), (2, 5), (1, 3)]);
        assert_eq!(out, vec![(1, 5), (2, 5)]);
        assert!(r.reduce_time(1 << 20, 100) > SimDuration::ZERO);
    }
}
