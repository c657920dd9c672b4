//! The paper's map kernels, one per evaluated configuration.
//!
//! | Paper configuration  | Kernel                | Engine                |
//! |----------------------|-----------------------|-----------------------|
//! | Java Mapper          | [`JavaAesKernel`]     | PPE task JVM (scalar) |
//! | Cell BE Mapper       | [`CellAesKernel`]     | SPUs via direct lib   |
//! | MapReduce Cell       | [`CellMrAesKernel`]   | SPUs via framework    |
//! | Empty Mapper         | [`EmptyKernel`]       | none (feed only)      |
//! | Java Pi              | [`JavaPiKernel`]      | PPE task JVM (scalar) |
//! | Cell Pi              | [`CellPiKernel`]      | SPUs via direct lib   |
//!
//! Every kernel really computes when records are materialized (real AES
//! ciphertext through the simulated local stores, real Monte Carlo
//! sampling); in virtual mode the same calibrated constants produce timing
//! only, and a property test pins the two paths to identical durations.

use std::any::Any;
use std::sync::Arc;

use accelmr_cellbe::{estimate, AesCtrSpeKernel, DataInput, DataKernel, PiSpeKernel, SPU_BLOCK};
use accelmr_des::SimDuration;
use accelmr_kernels::aes::modes::ctr_xor;
use accelmr_kernels::cost::{self, Engine};
use accelmr_kernels::{Aes128, AesImpl};
use accelmr_mapred::{NodeEnv, RecordCtx, RecordOutcome, TaskKernel, UnitsOutcome};

use crate::bridge::JniBridge;
use crate::env::CellNodeEnv;

/// Key used by every encryption kernel (fixed 128-bit key, as the paper's
/// single-key working-set encryption does).
pub fn job_key() -> Arc<Aes128> {
    Arc::new(Aes128::new(b"accelmr-job-key!"))
}

/// CTR nonce shared by all encryption kernels of a job, so outputs are
/// byte-comparable across engines and against a serial reference.
pub const JOB_NONCE: u64 = 0xACCE1;

fn cell_env(env: &mut dyn NodeEnv) -> &mut CellNodeEnv {
    (env as &mut dyn Any)
        .downcast_mut::<CellNodeEnv>()
        .expect("accelerated kernels need a CellNodeEnv (use CellEnvFactory)")
}

/// What an encryption mapper returns for `rec`: `compute` of simulated
/// time, and the ciphertext when the record was materialized.
fn encrypted(rec: &RecordCtx<'_>, compute: SimDuration, output: Option<Vec<u8>>) -> RecordOutcome {
    RecordOutcome {
        compute,
        output_bytes: rec.len,
        output,
        kv: Vec::new(),
    }
}

// ---------------------------------------------------------------- Java AES

/// The pure-Java encryption mapper: scalar AES on the PPE inside the task
/// JVM ([`Engine::JavaPpeTask`]). No node setup, no bridge.
#[derive(Clone)]
pub struct JavaAesKernel {
    key: Arc<Aes128>,
}

impl JavaAesKernel {
    /// Builds the kernel with the default job key.
    pub fn new() -> Self {
        JavaAesKernel { key: job_key() }
    }
}

impl Default for JavaAesKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl TaskKernel for JavaAesKernel {
    fn name(&self) -> &'static str {
        "aes-java"
    }

    fn map_record(&self, _env: &mut dyn NodeEnv, rec: &RecordCtx<'_>) -> RecordOutcome {
        // Functionally identical to the scalar cipher (property tested);
        // the hardware path keeps functional runs fast. Timing comes from
        // the cost model either way.
        let output = rec.bytes.map(|bytes| {
            let mut out = bytes.to_vec();
            ctr_xor(
                &self.key,
                AesImpl::Hardware,
                JOB_NONCE,
                rec.abs_offset / 16,
                &mut out,
            );
            out
        });
        encrypted(rec, cost::aes_time(Engine::JavaPpeTask, rec.len), output)
    }
}

// ---------------------------------------------------------------- Cell AES

/// The Cell-accelerated encryption mapper: the Hadoop `map()` calls through
/// the JNI bridge into the direct SPE offload library ([`SPU_BLOCK`] blocks
/// striped over 8 SPUs, double-buffered DMA).
#[derive(Clone)]
pub struct CellAesKernel {
    spu: AesCtrSpeKernel,
    bridge: JniBridge,
}

impl CellAesKernel {
    /// Builds the kernel with the default job key.
    pub fn new() -> Self {
        CellAesKernel {
            spu: AesCtrSpeKernel::new(job_key(), JOB_NONCE),
            bridge: JniBridge::default(),
        }
    }
}

impl Default for CellAesKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl TaskKernel for CellAesKernel {
    fn name(&self) -> &'static str {
        "aes-cell"
    }

    fn node_setup(&self, env: &mut dyn NodeEnv) -> SimDuration {
        // SPU context creation the first time the library loads on a node.
        cell_env(env).machine().warm_up()
    }

    fn map_record(&self, env: &mut dyn NodeEnv, rec: &RecordCtx<'_>) -> RecordOutcome {
        let machine = cell_env(env).machine();
        let bridge_cost = self.bridge.call_cost(rec.len);
        match rec.bytes {
            Some(bytes) => {
                // Functional: the record truly rides through the local
                // stores and comes back encrypted.
                let report = machine
                    .run_data_at(DataInput::Real(bytes), &self.spu, SPU_BLOCK, rec.abs_offset)
                    .expect("valid block size");
                let out = report.output.expect("materialized run yields output");
                encrypted(rec, bridge_cost + report.elapsed, Some(out))
            }
            None => {
                // Virtual: closed-form estimator over the same constants
                // (property-tested against the event model).
                let session = machine.start_session();
                let body = estimate::data_run_body(
                    machine.config(),
                    rec.len,
                    self.spu.cycles_per_byte(),
                    SPU_BLOCK,
                );
                encrypted(rec, bridge_cost + session + body, None)
            }
        }
    }
}

// ------------------------------------------------------------- CellMR AES

/// Encryption through the MapReduce-for-Cell framework (the paper's second
/// native library): adds the PPE staging copy and per-record bookkeeping.
#[derive(Clone)]
pub struct CellMrAesKernel {
    spu: AesCtrSpeKernel,
    bridge: JniBridge,
}

impl CellMrAesKernel {
    /// Builds the kernel with the default job key.
    pub fn new() -> Self {
        CellMrAesKernel {
            spu: AesCtrSpeKernel::new(job_key(), JOB_NONCE),
            bridge: JniBridge::default(),
        }
    }
}

impl Default for CellMrAesKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl TaskKernel for CellMrAesKernel {
    fn name(&self) -> &'static str {
        "aes-cellmr"
    }

    fn node_setup(&self, env: &mut dyn NodeEnv) -> SimDuration {
        cell_env(env).framework().machine_mut().warm_up()
    }

    fn map_record(&self, env: &mut dyn NodeEnv, rec: &RecordCtx<'_>) -> RecordOutcome {
        let input = match rec.bytes {
            Some(bytes) => DataInput::Real(bytes),
            None => DataInput::Virtual(rec.len),
        };
        let (machine_report, fw_report) = cell_env(env)
            .framework()
            .run_map_at(input, &self.spu, rec.abs_offset)
            .expect("valid framework run");
        let output = rec
            .bytes
            .map(|_| machine_report.output.expect("materialized"));
        encrypted(
            rec,
            self.bridge.call_cost(rec.len) + fw_report.total,
            output,
        )
    }
}

// ------------------------------------------------------------------ Empty

/// The paper's EmptyMapper: reads records, computes nothing, emits nothing
/// — isolates the Hadoop runtime + feed path overhead.
#[derive(Clone, Copy, Debug, Default)]
pub struct EmptyKernel;

impl TaskKernel for EmptyKernel {
    fn name(&self) -> &'static str {
        "empty"
    }

    fn map_record(&self, _env: &mut dyn NodeEnv, _rec: &RecordCtx<'_>) -> RecordOutcome {
        RecordOutcome {
            // A record-boundary bookkeeping sliver, nothing more.
            compute: SimDuration::from_micros(200),
            output_bytes: 0,
            output: None,
            kv: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------- Java Pi

/// The Hadoop-sample PiEstimator mapper, scalar on the PPE task JVM
/// ([`Engine::JavaPpeTask`]).
#[derive(Clone, Copy, Debug)]
pub struct JavaPiKernel {
    /// RNG seed namespace for the job.
    pub seed: u64,
}

impl JavaPiKernel {
    /// Builds the kernel.
    pub fn new(seed: u64) -> Self {
        JavaPiKernel { seed }
    }
}

impl TaskKernel for JavaPiKernel {
    fn name(&self) -> &'static str {
        "pi-java"
    }

    fn map_record(&self, _env: &mut dyn NodeEnv, _rec: &RecordCtx<'_>) -> RecordOutcome {
        RecordOutcome::default()
    }

    fn map_units(&self, _env: &mut dyn NodeEnv, units: u64, stream: u64) -> UnitsOutcome {
        let inside = accelmr_kernels::pi::count_inside_auto(self.seed, stream, units);
        UnitsOutcome {
            compute: cost::pi_time(Engine::JavaPpeTask, units),
            kv: vec![(0, inside), (1, units)],
        }
    }
}

// ---------------------------------------------------------------- Cell Pi

/// The Cell-accelerated Pi mapper: samples split across the 8 SPUs via the
/// direct offload library.
#[derive(Clone, Copy, Debug)]
pub struct CellPiKernel {
    /// RNG seed namespace for the job.
    pub seed: u64,
    bridge: JniBridge,
}

impl CellPiKernel {
    /// Builds the kernel.
    pub fn new(seed: u64) -> Self {
        CellPiKernel {
            seed,
            bridge: JniBridge::default(),
        }
    }
}

impl TaskKernel for CellPiKernel {
    fn name(&self) -> &'static str {
        "pi-cell"
    }

    fn node_setup(&self, env: &mut dyn NodeEnv) -> SimDuration {
        cell_env(env).machine().warm_up()
    }

    fn map_record(&self, _env: &mut dyn NodeEnv, _rec: &RecordCtx<'_>) -> RecordOutcome {
        RecordOutcome::default()
    }

    fn map_units(&self, env: &mut dyn NodeEnv, units: u64, stream: u64) -> UnitsOutcome {
        // Per-task stream namespace: each task gets an 8-wide SPE stream
        // block so SPE sub-streams never collide across tasks.
        let spu_kernel = PiSpeKernel::new(self.seed, stream * 8);
        let report = cell_env(env).machine().run_compute(units, &spu_kernel);
        let inside: u64 = report.unit_results.iter().sum();
        UnitsOutcome {
            compute: self.bridge.call_cost(64) + report.elapsed,
            kv: vec![(0, inside), (1, units)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::CellEnvFactory;
    use accelmr_kernels::fill_deterministic;
    use accelmr_mapred::NodeEnvFactory;

    fn materialized_env() -> Box<dyn NodeEnv> {
        CellEnvFactory { materialized: true }.build(0)
    }

    fn record(len: usize, offset: u64) -> (Vec<u8>, RecordCtx<'static>) {
        let mut buf = vec![0u8; len];
        fill_deterministic(3, offset, &mut buf);
        let leaked: &'static [u8] = Box::leak(buf.clone().into_boxed_slice());
        (
            buf,
            RecordCtx {
                abs_offset: offset,
                len: len as u64,
                bytes: Some(leaked),
                file_seed: 3,
            },
        )
    }

    #[test]
    fn all_aes_engines_produce_identical_ciphertext() {
        let (plain, rec) = record(128 * 1024, 256 * 1024);
        let mut env = materialized_env();

        let java = JavaAesKernel::new().map_record(env.as_mut(), &rec);
        let cell = CellAesKernel::new().map_record(env.as_mut(), &rec);
        let cellmr = CellMrAesKernel::new().map_record(env.as_mut(), &rec);

        let mut reference = plain.clone();
        ctr_xor(
            &job_key(),
            AesImpl::TTable,
            JOB_NONCE,
            rec.abs_offset / 16,
            &mut reference,
        );

        assert_eq!(java.output.as_deref(), Some(reference.as_slice()));
        assert_eq!(cell.output.as_deref(), Some(reference.as_slice()));
        assert_eq!(cellmr.output.as_deref(), Some(reference.as_slice()));
    }

    #[test]
    fn engine_speed_ordering_matches_figure_2() {
        let (_, rec) = record(1 << 20, 0);
        let mut env = materialized_env();
        // Warm all machines so start-up doesn't blur the ordering.
        let cell_kernel = CellAesKernel::new();
        cell_kernel.node_setup(env.as_mut());
        let cellmr_kernel = CellMrAesKernel::new();
        cellmr_kernel.node_setup(env.as_mut());

        let java = JavaAesKernel::new().map_record(env.as_mut(), &rec).compute;
        let cell = cell_kernel.map_record(env.as_mut(), &rec).compute;
        let cellmr = cellmr_kernel.map_record(env.as_mut(), &rec).compute;

        assert!(cell < cellmr, "direct {cell} vs framework {cellmr}");
        assert!(cellmr < java, "framework {cellmr} vs java {java}");
    }

    #[test]
    fn virtual_and_materialized_cell_timing_agree_approximately() {
        let (_, rec) = record(4 << 20, 0);
        let kernel = CellAesKernel::new();

        let mut env_m = materialized_env();
        kernel.node_setup(env_m.as_mut());
        let t_mat = kernel.map_record(env_m.as_mut(), &rec).compute;

        let mut env_v = CellEnvFactory::default().build(0);
        kernel.node_setup(env_v.as_mut());
        let virt_rec = RecordCtx {
            bytes: None,
            ..RecordCtx {
                abs_offset: rec.abs_offset,
                len: rec.len,
                bytes: None,
                file_seed: 3,
            }
        };
        let t_virt = kernel.map_record(env_v.as_mut(), &virt_rec).compute;
        let rel = (t_mat.as_secs_f64() - t_virt.as_secs_f64()).abs() / t_mat.as_secs_f64();
        assert!(rel < 0.05, "materialized {t_mat} vs virtual {t_virt}");
    }

    #[test]
    fn pi_kernels_agree_statistically_and_cell_is_faster() {
        let n = 1_000_000u64;
        let mut env = materialized_env();
        let java = JavaPiKernel::new(5).map_units(env.as_mut(), n, 0);
        let cell_kernel = CellPiKernel::new(5);
        cell_kernel.node_setup(env.as_mut());
        let cell = cell_kernel.map_units(env.as_mut(), n, 0);

        for out in [&java, &cell] {
            assert_eq!(out.kv[1], (1, n));
            let est = 4.0 * out.kv[0].1 as f64 / n as f64;
            assert!((est - std::f64::consts::PI).abs() < 0.01, "{est}");
        }
        // Fig. 6: the warmed Cell kernel is orders of magnitude faster.
        let ratio = java.compute.as_secs_f64() / cell.compute.as_secs_f64();
        assert!(ratio > 10.0, "ratio {ratio}");
    }

    #[test]
    fn empty_kernel_costs_almost_nothing() {
        let (_, rec) = record(1 << 20, 0);
        let mut env = materialized_env();
        let out = EmptyKernel.map_record(env.as_mut(), &rec);
        assert_eq!(out.output_bytes, 0);
        assert!(out.compute < accelmr_des::SimDuration::from_millis(1));
    }
}
