//! Distributed experiments — Figures 4, 5 (encryption) and 7, 8 (Pi).
//!
//! Every data point deploys a fresh simulated cluster (fabric + DFS +
//! MapReduce + per-node Cell environments), preloads input where needed,
//! runs the job and reports its wall time. Data is virtual (timing-only) at
//! these scales; functional equivalence is covered by the materialized
//! integration tests.

use accelmr_mapred::{JobResult, MrConfig};

use super::{run_job, Figure};
use crate::presets::{self, pi_estimate};

pub use crate::presets::{AesMapper, PiMapper};

const GB: u64 = 1 << 30;
/// Fig. 4: input GB per mapper (the paper's proportional data set).
const GB_PER_MAPPER: u64 = 1;

/// Runs one distributed encryption job and returns its result; panics if
/// the job failed.
pub fn run_encrypt_job(
    seed: u64,
    nodes: usize,
    total_bytes: u64,
    mapper: AesMapper,
    mr_cfg: &MrConfig,
) -> JobResult {
    run_job(
        seed,
        nodes,
        mr_cfg,
        presets::encrypt(mapper, "/input", total_bytes),
    )
}

/// Runs one distributed Pi job and returns `(result, pi estimate)`; panics
/// if the job failed.
pub fn run_pi_job(
    seed: u64,
    nodes: usize,
    samples: u64,
    mapper: PiMapper,
    mr_cfg: &MrConfig,
) -> (JobResult, f64) {
    let result = run_job(seed, nodes, mr_cfg, presets::pi(mapper, seed, samples));
    let pi = pi_estimate(&result).unwrap_or(f64::NAN);
    (result, pi)
}

/// Elapsed seconds of one encryption job on the default configuration.
fn encrypt_secs(seed: u64, nodes: usize, total_bytes: u64, mapper: AesMapper) -> f64 {
    run_encrypt_job(seed, nodes, total_bytes, mapper, &MrConfig::default())
        .elapsed
        .as_secs_f64()
}

/// Elapsed seconds of one Pi job on the default configuration.
fn pi_secs(seed: u64, nodes: usize, samples: u64, mapper: PiMapper) -> f64 {
    run_pi_job(seed, nodes, samples, mapper, &MrConfig::default())
        .0
        .elapsed
        .as_secs_f64()
}

/// Figure 4 — "Distributed encryption performance: proportional data set":
/// at each cluster size of `nodes` (paper: 12..60), input grows with the
/// cluster (1 GB per mapper, 2 mappers per node); Java vs Cell mappers.
/// The paper's observation: the two coincide because the record feed path,
/// not the kernel, is the bottleneck.
pub fn fig4(nodes: &[usize]) -> Figure {
    let slots = MrConfig::default().map_slots_per_node;
    Figure::sweep(
        "fig4",
        "Distributed encryption performance: proportional data set",
        "Nodes",
        "Time(s)",
        [AesMapper::Java.label(), AesMapper::Cell.label()],
        nodes.iter().map(|&n| {
            let bytes = (n * slots) as u64 * GB_PER_MAPPER * GB;
            let seed = 1000 + n as u64;
            (
                n as f64,
                [AesMapper::Java, AesMapper::Cell].map(|m| encrypt_secs(seed, n, bytes, m)),
            )
        }),
    )
}

/// Figure 5 — "Distributed encryption performance: 120GB data set": a
/// fixed `total_gb` of input (paper: 120; the caption names it) over each
/// cluster size of `nodes` (paper: 4..64); Empty vs Java vs Cell mappers,
/// log-log.
pub fn fig5(nodes: &[usize], total_gb: u64) -> Figure {
    let mappers = [AesMapper::Empty, AesMapper::Java, AesMapper::Cell];
    Figure::sweep(
        "fig5",
        format!("Distributed encryption performance: {total_gb}GB data set"),
        "Nodes",
        "Time(s)",
        mappers.map(AesMapper::label),
        nodes.iter().map(|&n| {
            let secs = mappers.map(|m| encrypt_secs(2000 + n as u64, n, total_gb * GB, m));
            (n as f64, secs)
        }),
    )
}

/// Figure 7 — "Distributed Pi estimation performance: 50 nodes": job time
/// on a fixed cluster of `nodes` (paper: 50) vs each count of `samples`
/// (paper: 3e3..3e12, decades). Both mappers share the Hadoop floor at
/// small N; the Java mapper leaves the floor ~2 decades of N before the
/// Cell mapper.
pub fn fig7(nodes: usize, samples: &[u64]) -> Figure {
    Figure::sweep(
        "fig7",
        format!("Distributed Pi estimation performance: {nodes} nodes"),
        "Samples",
        "Time(s)",
        [PiMapper::Java.label(), PiMapper::Cell.label()],
        samples.iter().map(|&s| {
            let secs =
                [PiMapper::Java, PiMapper::Cell].map(|m| pi_secs(3000 + s % 997, nodes, s, m));
            (s as f64, secs)
        }),
    )
}

/// Figure 8 — "Distributed Pi estimation performance: 1e11 samples": job
/// time at `samples` (paper: 1e11) vs each cluster size of `nodes` (paper:
/// 4..64), for Java, Cell, and Cell with 10× the samples.
pub fn fig8(nodes: &[usize], samples: u64) -> Figure {
    Figure::sweep(
        "fig8",
        format!(
            "Distributed Pi estimation performance: {:e} samples",
            samples as f64
        ),
        "Nodes",
        "Time(s)",
        [
            "Cell BE Mapper",
            "Java Mapper",
            "Cell BE Mapper (10x samples)",
        ],
        nodes.iter().map(|&n| {
            let n64 = n as u64;
            let java = pi_secs(4000 + n64, n, samples, PiMapper::Java);
            let cell = pi_secs(5000 + n64, n, samples, PiMapper::Cell);
            let cell10 = pi_secs(6000 + n64, n, 10 * samples, PiMapper::Cell);
            (n as f64, [cell, java, cell10])
        }),
    )
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
