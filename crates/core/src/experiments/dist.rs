//! Distributed experiments — Figures 4, 5 (encryption) and 7, 8 (Pi).
//!
//! Every data point deploys a fresh simulated cluster (fabric + DFS +
//! MapReduce + per-node Cell environments), preloads input where needed,
//! runs the job and reports its wall time. Data is virtual (timing-only) at
//! these scales; functional equivalence is covered by the materialized
//! integration tests.

use accelmr_mapred::{ClusterBuilder, JobResult, MrConfig};

use super::{Figure, Series};
use crate::env::CellEnvFactory;
use crate::presets::{self, pi_estimate};

pub use crate::presets::{AesMapper, PiMapper};

const GB: u64 = 1 << 30;
/// Fig. 4: input GB per mapper (the paper's proportional data set).
const GB_PER_MAPPER: u64 = 1;

/// Runs one distributed encryption job and returns its result.
pub fn run_encrypt_job(
    seed: u64,
    nodes: usize,
    total_bytes: u64,
    mapper: AesMapper,
    mr_cfg: &MrConfig,
) -> JobResult {
    let mut c = ClusterBuilder::new()
        .seed(seed)
        .workers(nodes)
        .mr(mr_cfg.clone())
        .env(CellEnvFactory::default())
        .deploy();
    let job = presets::encrypt(mapper, "/input", total_bytes)
        .map_tasks(nodes * mr_cfg.map_slots_per_node);
    let mut session = c.session();
    session.submit(job);
    session.run()
}

/// Parameters of the Figure 4 sweep (proportional data set).
#[derive(Clone, Debug)]
pub struct DistEncryptParams {
    /// Cluster sizes (paper Fig. 4: 12..60; Fig. 5: 4..64).
    pub nodes: Vec<usize>,
    /// Fig. 5: fixed total input GB.
    pub total_gb: u64,
}

impl Default for DistEncryptParams {
    fn default() -> Self {
        DistEncryptParams {
            nodes: vec![12, 24, 36, 48, 60],
            total_gb: 120,
        }
    }
}

/// Figure 4 — "Distributed encryption performance: proportional data set":
/// input grows with the cluster (1 GB per mapper, 2 mappers per node);
/// Java vs Cell mappers. The paper's observation: the two coincide because
/// the record feed path, not the kernel, is the bottleneck.
pub fn fig4(params: &DistEncryptParams) -> Figure {
    let mut series: Vec<Series> = [AesMapper::Java, AesMapper::Cell]
        .iter()
        .map(|m| Series {
            label: m.label().into(),
            points: Vec::new(),
        })
        .collect();
    let cfg = MrConfig::default();
    for &n in &params.nodes {
        let mappers = n as u64 * cfg.map_slots_per_node as u64;
        let bytes = mappers * GB_PER_MAPPER * GB;
        for (i, &mapper) in [AesMapper::Java, AesMapper::Cell].iter().enumerate() {
            let result = run_encrypt_job(1000 + n as u64, n, bytes, mapper, &cfg);
            assert!(result.succeeded, "fig4 job failed at {n} nodes");
            series[i]
                .points
                .push((n as f64, result.elapsed.as_secs_f64()));
        }
    }
    Figure {
        id: "fig4",
        title: "Distributed encryption performance: proportional data set".into(),
        x_label: "Nodes".into(),
        y_label: "Time(s)".into(),
        series,
    }
}

/// Figure 5 — "Distributed encryption performance: 120GB data set": fixed
/// input, growing cluster; Empty vs Java vs Cell mappers, log-log.
pub fn fig5(params: &DistEncryptParams) -> Figure {
    let mappers = [AesMapper::Empty, AesMapper::Java, AesMapper::Cell];
    let mut series: Vec<Series> = mappers
        .iter()
        .map(|m| Series {
            label: m.label().into(),
            points: Vec::new(),
        })
        .collect();
    let bytes = params.total_gb * GB;
    for &n in &params.nodes {
        for (i, &mapper) in mappers.iter().enumerate() {
            let result = run_encrypt_job(2000 + n as u64, n, bytes, mapper, &MrConfig::default());
            assert!(result.succeeded, "fig5 job failed at {n} nodes");
            series[i]
                .points
                .push((n as f64, result.elapsed.as_secs_f64()));
        }
    }
    Figure {
        id: "fig5",
        title: "Distributed encryption performance: 120GB data set".into(),
        x_label: "Nodes".into(),
        y_label: "Time(s)".into(),
        series,
    }
}

/// Runs one distributed Pi job and returns `(result, pi estimate)`.
pub fn run_pi_job(
    seed: u64,
    nodes: usize,
    samples: u64,
    mapper: PiMapper,
    mr_cfg: &MrConfig,
) -> (JobResult, f64) {
    let mut c = ClusterBuilder::new()
        .seed(seed)
        .workers(nodes)
        .mr(mr_cfg.clone())
        .env(CellEnvFactory::default())
        .deploy();
    let job = presets::pi(mapper, seed, samples).map_tasks(nodes * mr_cfg.map_slots_per_node);
    let mut session = c.session();
    session.submit(job);
    let result = session.run();
    let pi = pi_estimate(&result).unwrap_or(f64::NAN);
    (result, pi)
}

/// Parameters of the Figure 7/8 sweeps.
#[derive(Clone, Debug)]
pub struct DistPiParams {
    /// Fig. 7: fixed cluster size.
    pub fig7_nodes: usize,
    /// Fig. 7: sample counts swept.
    pub fig7_samples: Vec<u64>,
    /// Fig. 8: cluster sizes swept.
    pub fig8_nodes: Vec<usize>,
    /// Fig. 8: base sample count.
    pub fig8_samples: u64,
    /// Fig. 8: the "10x samples" Cell rerun.
    pub fig8_tenx: u64,
}

impl Default for DistPiParams {
    fn default() -> Self {
        DistPiParams {
            fig7_nodes: 50,
            fig7_samples: (3..=12).map(|e| 3 * 10u64.pow(e)).collect(),
            fig8_nodes: vec![4, 8, 16, 32, 64],
            fig8_samples: 100_000_000_000,
            fig8_tenx: 1_000_000_000_000,
        }
    }
}

/// Figure 7 — "Distributed Pi estimation performance: 50 nodes": job time
/// vs sample count. Both mappers share the Hadoop floor at small N; the
/// Java mapper leaves the floor ~2 decades of N before the Cell mapper.
pub fn fig7(params: &DistPiParams) -> Figure {
    let mut series: Vec<Series> = [PiMapper::Java, PiMapper::Cell]
        .iter()
        .map(|m| Series {
            label: m.label().into(),
            points: Vec::new(),
        })
        .collect();
    for &samples in &params.fig7_samples {
        for (i, &mapper) in [PiMapper::Java, PiMapper::Cell].iter().enumerate() {
            let (result, _) = run_pi_job(
                3000 + samples % 997,
                params.fig7_nodes,
                samples,
                mapper,
                &MrConfig::default(),
            );
            assert!(result.succeeded);
            series[i]
                .points
                .push((samples as f64, result.elapsed.as_secs_f64()));
        }
    }
    Figure {
        id: "fig7",
        title: format!(
            "Distributed Pi estimation performance: {} nodes",
            params.fig7_nodes
        ),
        x_label: "Samples".into(),
        y_label: "Time(s)".into(),
        series,
    }
}

/// Figure 8 — "Distributed Pi estimation performance: 1e11 samples": job
/// time vs cluster size for Java, Cell, and Cell with 10× the samples.
pub fn fig8(params: &DistPiParams) -> Figure {
    let mut java = Series {
        label: "Java Mapper".into(),
        points: Vec::new(),
    };
    let mut cell = Series {
        label: "Cell BE Mapper".into(),
        points: Vec::new(),
    };
    let mut cell10 = Series {
        label: "Cell BE Mapper (10x samples)".into(),
        points: Vec::new(),
    };
    let cfg = MrConfig::default();
    for &n in &params.fig8_nodes {
        let (r_java, _) = run_pi_job(
            4000 + n as u64,
            n,
            params.fig8_samples,
            PiMapper::Java,
            &cfg,
        );
        let (r_cell, _) = run_pi_job(
            5000 + n as u64,
            n,
            params.fig8_samples,
            PiMapper::Cell,
            &cfg,
        );
        let (r_10x, _) = run_pi_job(6000 + n as u64, n, params.fig8_tenx, PiMapper::Cell, &cfg);
        java.points.push((n as f64, r_java.elapsed.as_secs_f64()));
        cell.points.push((n as f64, r_cell.elapsed.as_secs_f64()));
        cell10.points.push((n as f64, r_10x.elapsed.as_secs_f64()));
    }
    Figure {
        id: "fig8",
        title: "Distributed Pi estimation performance: 1e11 samples".into(),
        x_label: "Nodes".into(),
        y_label: "Time(s)".into(),
        series: vec![cell, java, cell10],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_mr() -> MrConfig {
        MrConfig::default()
    }

    #[test]
    fn encryption_feed_bound_java_equals_cell() {
        // Scaled-down Fig. 4 point: 4 nodes, 256 MB per mapper.
        let mr = small_mr();
        let bytes = 8 * 256 * (1u64 << 20);
        let java = run_encrypt_job(1, 4, bytes, AesMapper::Java, &mr);
        let cell = run_encrypt_job(2, 4, bytes, AesMapper::Cell, &mr);
        let ratio = java.elapsed.as_secs_f64() / cell.elapsed.as_secs_f64();
        assert!(
            (0.85..1.25).contains(&ratio),
            "Java {} vs Cell {} (ratio {ratio:.2})",
            java.elapsed,
            cell.elapsed
        );
    }

    #[test]
    fn empty_mapper_close_to_real_mappers() {
        let mr = small_mr();
        let bytes = 8 * 256 * (1u64 << 20);
        let empty = run_encrypt_job(3, 4, bytes, AesMapper::Empty, &mr);
        let java = run_encrypt_job(4, 4, bytes, AesMapper::Java, &mr);
        // "the difference ... is really small"
        let gap = java.elapsed.as_secs_f64() / empty.elapsed.as_secs_f64();
        assert!((0.9..1.3).contains(&gap), "gap {gap:.2}");
    }

    #[test]
    fn pi_cell_crushes_java_at_scale() {
        let mr = small_mr();
        let samples = 2_000_000_000u64; // enough to dwarf the floor
        let (java, pi_j) = run_pi_job(5, 4, samples, PiMapper::Java, &mr);
        let (cell, pi_c) = run_pi_job(6, 4, samples, PiMapper::Cell, &mr);
        let speedup = java.elapsed.as_secs_f64() / cell.elapsed.as_secs_f64();
        assert!(speedup > 10.0, "speedup {speedup:.1}");
        for pi in [pi_j, pi_c] {
            assert!((pi - std::f64::consts::PI).abs() < 1e-3, "pi {pi}");
        }
    }

    #[test]
    fn pi_small_jobs_sit_on_the_floor() {
        let mr = small_mr();
        let (java, _) = run_pi_job(7, 4, 10_000, PiMapper::Java, &mr);
        let (cell, _) = run_pi_job(8, 4, 10_000, PiMapper::Cell, &mr);
        // Both runtime-bound; Cell pays SPU context creation, so it is the
        // slower of the two at tiny N (Fig. 7's left edge).
        let ratio = cell.elapsed.as_secs_f64() / java.elapsed.as_secs_f64();
        assert!((0.95..1.5).contains(&ratio), "ratio {ratio:.2}");
        assert!(java.elapsed.as_secs_f64() < 60.0);
    }
}
