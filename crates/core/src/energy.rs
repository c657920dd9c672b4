//! Energy accounting — the paper's §V second open issue, implemented.
//!
//! The paper conjectures that although data-intensive jobs gain *no time*
//! from accelerators (the feed path hides them), they should still gain
//! *energy*: the same kernel work finishes in far less busy time on
//! silicon that is more efficient per byte, and "doing that work in shorter
//! time, more efficiently and with specially designed hardware can save
//! energy, very specially in distributed environments composed of
//! thousands of nodes."
//!
//! The model is deliberately simple and era-appropriate: every worker burns
//! a baseline (chassis, DRAM, NIC, disks), and the engine running a map
//! kernel adds an active-power increment for exactly its busy time. Numbers
//! follow published QS22/JS22 figures (a QS22 blade idles near 200 W and
//! peaks near 330 W; one busy Cell accounts for ~90 W of the difference,
//! a busy PPE thread pair for ~35 W).

use accelmr_des::SimDuration;
use accelmr_mapred::JobResult;

/// Active-power increments and baseline of one worker blade.
#[derive(Clone, Copy, Debug)]
pub struct EnergyModel {
    /// Blade baseline draw (everything powered, engines idle), watts.
    pub node_baseline_w: f64,
    /// Extra draw while the PPE runs a scalar map kernel, watts.
    pub ppe_busy_w: f64,
    /// Extra draw while the Cell's SPE array runs an offloaded kernel,
    /// watts.
    pub cell_busy_w: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            node_baseline_w: 200.0,
            ppe_busy_w: 35.0,
            cell_busy_w: 90.0,
        }
    }
}

/// Which engine's active power applies to a job's compute time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineClass {
    /// Scalar kernel on the PPE (Java mapper).
    PpeScalar,
    /// SPE-offloaded kernel (Cell mapper).
    CellSpe,
    /// No kernel (EmptyMapper).
    None,
}

/// Energy breakdown of one job across the cluster.
#[derive(Clone, Copy, Debug)]
pub struct EnergyReport {
    /// Joules attributable to the map kernels (active increments).
    pub kernel_joules: f64,
    /// Joules of node baseline over the job's wall time.
    pub baseline_joules: f64,
    /// Total.
    pub total_joules: f64,
    /// Job wall time used for the baseline integral.
    pub elapsed: SimDuration,
}

impl EnergyReport {
    /// Kilowatt-hours, for readability at cluster scale.
    pub fn total_kwh(&self) -> f64 {
        self.total_joules / 3.6e6
    }
}

/// Computes the energy of a completed job from its result and the
/// kernel-busy time `kernel_busy` the caller measured for it.
pub fn job_energy(
    model: &EnergyModel,
    result: &JobResult,
    engine: EngineClass,
    nodes: usize,
    kernel_busy: SimDuration,
) -> EnergyReport {
    let active_w = match engine {
        EngineClass::PpeScalar => model.ppe_busy_w,
        EngineClass::CellSpe => model.cell_busy_w,
        EngineClass::None => 0.0,
    };
    let kernel_joules = active_w * kernel_busy.as_secs_f64();
    let baseline_joules = model.node_baseline_w * nodes as f64 * result.elapsed.as_secs_f64();
    EnergyReport {
        kernel_joules,
        baseline_joules,
        total_joules: kernel_joules + baseline_joules,
        elapsed: result.elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::dist::{run_encrypt_job, AesMapper};
    use accelmr_kernels::cost::{self, Engine};
    use accelmr_mapred::MrConfig;

    /// The paper's §V conjecture, realized: same job time, less kernel
    /// energy with the accelerator.
    #[test]
    fn data_intensive_jobs_save_kernel_energy_not_time() {
        let mr = MrConfig::default();
        let nodes = 4;
        let bytes = 8u64 << 30;
        let model = EnergyModel::default();

        let java = run_encrypt_job(1, nodes, bytes, AesMapper::Java, &mr);
        let cell = run_encrypt_job(2, nodes, bytes, AesMapper::Cell, &mr);

        // Times coincide (feed-bound — Figures 4/5).
        let time_ratio = java.elapsed.as_secs_f64() / cell.elapsed.as_secs_f64();
        assert!((0.85..1.2).contains(&time_ratio), "{time_ratio}");

        // Kernel busy time: bytes / engine bandwidth.
        let java_busy =
            SimDuration::from_secs_f64(bytes as f64 / cost::aes_bandwidth(Engine::JavaPpeTask));
        let cell_busy =
            SimDuration::from_secs_f64(bytes as f64 / (8.0 * cost::aes_bandwidth(Engine::SpeSimd)));

        let e_java = job_energy(&model, &java, EngineClass::PpeScalar, nodes, java_busy);
        let e_cell = job_energy(&model, &cell, EngineClass::CellSpe, nodes, cell_busy);

        // The accelerated kernel burns an order of magnitude less energy
        // on the compute itself...
        assert!(
            e_java.kernel_joules > 10.0 * e_cell.kernel_joules,
            "java {} J vs cell {} J",
            e_java.kernel_joules,
            e_cell.kernel_joules
        );
        // ...though at 2009 baselines the blade draw dominates the total —
        // exactly why the paper points at energy proportionality as the
        // lever for "thousands of nodes".
        assert!(e_java.baseline_joules > e_java.kernel_joules);
        assert!(e_cell.total_joules < e_java.total_joules);
    }

    #[test]
    fn empty_engine_has_no_kernel_energy() {
        let mr = MrConfig::default();
        let empty = run_encrypt_job(3, 2, 1 << 30, AesMapper::Empty, &mr);
        let e = job_energy(
            &EnergyModel::default(),
            &empty,
            EngineClass::None,
            2,
            SimDuration::from_secs(100),
        );
        assert_eq!(e.kernel_joules, 0.0);
        assert!(e.total_joules > 0.0);
        assert!((e.total_kwh() - e.total_joules / 3.6e6).abs() < 1e-12);
    }
}
