//! Single-node raw-performance experiments (no Hadoop involved):
//! Figure 2 (encryption bandwidth) and Figure 6 (Pi sampling rate).

use accelmr_cellbe::{AesCtrSpeKernel, CellConfig, CellMachine, DataInput, PiSpeKernel, SPU_BLOCK};
use accelmr_cellmr::{CellMrConfig, CellMrRuntime};
use accelmr_kernels::cost::{self, Engine};

use super::Figure;
use crate::kernels::{job_key, JOB_NONCE};

/// RNG seed for the functional Pi kernels of Figure 6.
const FIG6_SEED: u64 = 42;

/// Figure 2 — "Raw node encryption performance": encryption bandwidth
/// (MB/s) vs working-set size for the four engine configurations, at each
/// of `sizes_mb` (paper: 1..1024 MB, powers of two). The working set is
/// memory-resident and machines are warmed first, matching the paper's
/// averaged repeated executions.
pub fn fig2(sizes_mb: &[u64]) -> Figure {
    let spu_kernel = AesCtrSpeKernel::new(job_key(), JOB_NONCE);
    let Ok(mut machine) = CellMachine::new(CellConfig::default(), false);
    machine.warm_up();
    let Ok(mut framework) =
        CellMrRuntime::new(CellConfig::default(), CellMrConfig::default(), false);
    framework.machine_mut().warm_up();

    Figure::sweep(
        "fig2",
        "Raw node encryption performance",
        "Size(MB)",
        "Bandwidth (MB/s)",
        ["Cell BE", "MapReduce Cell", "PPC", "Power 6"],
        sizes_mb.iter().map(|&mb| {
            let bytes = mb << 20;
            let to_mbps = |secs: f64| (bytes as f64 / 1e6) / secs;
            let report = machine
                .run_data(DataInput::Virtual(bytes), &spu_kernel, SPU_BLOCK)
                .expect("valid run");
            let (_, fw_report) = framework
                .run_map(DataInput::Virtual(bytes), &spu_kernel)
                .expect("valid run");
            (
                mb as f64,
                [
                    to_mbps(report.elapsed.as_secs_f64()),
                    to_mbps(fw_report.total.as_secs_f64()),
                    to_mbps(cost::aes_time(Engine::JavaPpe, bytes).as_secs_f64()),
                    to_mbps(cost::aes_time(Engine::JavaPower6, bytes).as_secs_f64()),
                ],
            )
        }),
    )
}

/// Figure 6 — "Raw node Pi estimation performance": samples/second vs
/// problem size, at each of `samples` (paper: 1e3..1e9, decades). Unlike
/// Figure 2 the Cell configuration starts *cold* every run (a fresh process
/// per measurement), which is what buries small runs under SPU context
/// creation and produces the crossover the paper shows.
pub fn fig6(samples: &[u64]) -> Figure {
    Figure::sweep(
        "fig6",
        "Raw node Pi estimation performance",
        "Samples",
        "Samples/sec",
        ["Cell BE", "PPC", "Power 6"],
        samples.iter().map(|&n| {
            let rate = |secs: f64| n as f64 / secs;
            // Cold machine per measurement.
            let Ok(mut machine) = CellMachine::new(CellConfig::default(), false);
            let report = machine.run_compute(n, &PiSpeKernel::new(FIG6_SEED, 0));
            (
                n as f64,
                [
                    rate(report.elapsed.as_secs_f64()),
                    rate(cost::pi_time(Engine::JavaPpe, n).as_secs_f64()),
                    rate(cost::pi_time(Engine::JavaPower6, n).as_secs_f64()),
                ],
            )
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_reproduces_paper_shape() {
        let fig = fig2(&[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]);
        let at = |label: &str, mb: f64| -> f64 {
            fig.series(label)
                .unwrap()
                .points
                .iter()
                .find(|&&(x, _)| x == mb)
                .unwrap()
                .1
        };
        // Asymptotic ordering and magnitudes (paper: ~700 / ~45 / ~11 MB/s).
        let cell = at("Cell BE", 1024.0);
        let cellmr = at("MapReduce Cell", 1024.0);
        let p6 = at("Power 6", 1024.0);
        let ppc = at("PPC", 1024.0);
        assert!((650.0..730.0).contains(&cell), "cell {cell}");
        assert!(cellmr < cell && cellmr > p6, "cellmr {cellmr}");
        assert!((40.0..50.0).contains(&p6), "p6 {p6}");
        assert!((9.0..13.0).contains(&ppc), "ppc {ppc}");
        // Small sizes ramp for the SPE configs (session start-up).
        let cell_small = at("Cell BE", 1.0);
        assert!(cell_small < 0.6 * cell, "no ramp: {cell_small} vs {cell}");
    }

    #[test]
    fn fig6_reproduces_crossover() {
        let fig = fig6(&[
            1_000,
            10_000,
            100_000,
            1_000_000,
            10_000_000,
            100_000_000,
            1_000_000_000,
        ]);
        let at = |label: &str, n: f64| -> f64 {
            fig.series(label)
                .unwrap()
                .points
                .iter()
                .find(|&&(x, _)| x == n)
                .unwrap()
                .1
        };
        // Small N: cold SPU start-up makes the Cell slowest (paper: the
        // offload "is only worth when the work ... is above the overhead").
        assert!(at("Cell BE", 1e3) < at("PPC", 1e3));
        assert!(at("Cell BE", 1e3) < at("Power 6", 1e3));
        // Large N: Cell well above both scalar engines (≥ one order vs
        // Power 6 per the paper).
        assert!(at("Cell BE", 1e9) > 10.0 * at("Power 6", 1e9));
        assert!(at("Power 6", 1e9) > at("PPC", 1e9));
    }
}
