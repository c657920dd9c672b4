//! Single-node raw-performance experiments (no Hadoop involved):
//! Figure 2 (encryption bandwidth) and Figure 6 (Pi sampling rate).

use accelmr_cellbe::{AesCtrSpeKernel, CellConfig, CellMachine, DataInput, PiSpeKernel, SPU_BLOCK};
use accelmr_cellmr::{CellMrConfig, CellMrRuntime};
use accelmr_kernels::cost::{self, Engine};

use super::{Figure, Series};
use crate::kernels::{job_key, JOB_NONCE};

/// RNG seed for the functional Pi kernels of Figure 6.
const FIG6_SEED: u64 = 42;

/// Parameters of the Figure 2 sweep.
#[derive(Clone, Debug)]
pub struct Fig2Params {
    /// Working-set sizes in MB (paper: 1..1024, powers of two).
    pub sizes_mb: Vec<u64>,
}

impl Default for Fig2Params {
    fn default() -> Self {
        Fig2Params {
            sizes_mb: (0..=10).map(|i| 1u64 << i).collect(),
        }
    }
}

/// Figure 2 — "Raw node encryption performance": encryption bandwidth
/// (MB/s) vs working-set size for the four engine configurations. The
/// working set is memory-resident and machines are warmed first, matching
/// the paper's averaged repeated executions.
pub fn fig2(params: &Fig2Params) -> Figure {
    let key = job_key();
    let spu_kernel = AesCtrSpeKernel::new(key, JOB_NONCE);

    let mut cell = Series {
        label: "Cell BE".into(),
        points: Vec::new(),
    };
    let mut cellmr = Series {
        label: "MapReduce Cell".into(),
        points: Vec::new(),
    };
    let mut ppc = Series {
        label: "PPC".into(),
        points: Vec::new(),
    };
    let mut p6 = Series {
        label: "Power 6".into(),
        points: Vec::new(),
    };

    let mut machine = CellMachine::new(CellConfig::default(), false).expect("valid config");
    machine.warm_up();
    let mut framework = CellMrRuntime::new(CellConfig::default(), CellMrConfig::default(), false)
        .expect("valid config");
    framework.machine_mut().warm_up();

    for &mb in &params.sizes_mb {
        let bytes = mb << 20;
        let x = mb as f64;
        let to_mbps = |secs: f64| (bytes as f64 / 1e6) / secs;

        let report = machine
            .run_data(DataInput::Virtual(bytes), &spu_kernel, SPU_BLOCK)
            .expect("valid run");
        cell.points.push((x, to_mbps(report.elapsed.as_secs_f64())));

        let (_, fw_report) = framework
            .run_map(DataInput::Virtual(bytes), &spu_kernel)
            .expect("valid run");
        cellmr
            .points
            .push((x, to_mbps(fw_report.total.as_secs_f64())));

        ppc.points.push((
            x,
            to_mbps(cost::aes_time(Engine::JavaPpe, bytes).as_secs_f64()),
        ));
        p6.points.push((
            x,
            to_mbps(cost::aes_time(Engine::JavaPower6, bytes).as_secs_f64()),
        ));
    }

    Figure {
        id: "fig2",
        title: "Raw node encryption performance".into(),
        x_label: "Size(MB)".into(),
        y_label: "Bandwidth (MB/s)".into(),
        series: vec![cell, cellmr, ppc, p6],
    }
}

/// Parameters of the Figure 6 sweep.
#[derive(Clone, Debug)]
pub struct Fig6Params {
    /// Total sample counts (paper: 1e3..1e9, decades).
    pub samples: Vec<u64>,
}

impl Default for Fig6Params {
    fn default() -> Self {
        Fig6Params {
            samples: (3..=9).map(|e| 10u64.pow(e)).collect(),
        }
    }
}

/// Figure 6 — "Raw node Pi estimation performance": samples/second vs
/// problem size. Unlike Figure 2 the Cell configuration starts *cold* every
/// run (a fresh process per measurement), which is what buries small runs
/// under SPU context creation and produces the crossover the paper shows.
pub fn fig6(params: &Fig6Params) -> Figure {
    let mut cell = Series {
        label: "Cell BE".into(),
        points: Vec::new(),
    };
    let mut ppc = Series {
        label: "PPC".into(),
        points: Vec::new(),
    };
    let mut p6 = Series {
        label: "Power 6".into(),
        points: Vec::new(),
    };

    for &n in &params.samples {
        let x = n as f64;
        // Cold machine per measurement.
        let mut machine = CellMachine::new(CellConfig::default(), false).expect("valid config");
        let spu_kernel = PiSpeKernel::new(FIG6_SEED, 0);
        let report = machine.run_compute(n, &spu_kernel);
        cell.points
            .push((x, n as f64 / report.elapsed.as_secs_f64()));

        ppc.points.push((
            x,
            n as f64 / cost::pi_time(Engine::JavaPpe, n).as_secs_f64(),
        ));
        p6.points.push((
            x,
            n as f64 / cost::pi_time(Engine::JavaPower6, n).as_secs_f64(),
        ));
    }

    Figure {
        id: "fig6",
        title: "Raw node Pi estimation performance".into(),
        x_label: "Samples".into(),
        y_label: "Samples/sec".into(),
        series: vec![cell, ppc, p6],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_reproduces_paper_shape() {
        let fig = fig2(&Fig2Params::default());
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
        let fig = fig6(&Fig6Params::default());
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
