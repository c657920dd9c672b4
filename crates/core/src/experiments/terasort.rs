//! The Terasort-style feed-rate experiment.
//!
//! The paper closes §IV-A by observing that even the winning Terabyte Sort
//! entry moved only ~5.5 MB/s per node (0.6 MB/s per core), concluding the
//! mapper feed path limits all data-intensive MapReduce jobs, not just
//! encryption. This experiment reproduces that observation on our stack: a
//! full sort job (map: sort runs locally; shuffle; reduce: merge + write)
//! whose per-node throughput lands in single-digit MB/s regardless of the
//! sort kernel's speed.

use accelmr_mapred::{ClusterBuilder, MrConfig};

use super::{Figure, Series};
use crate::env::CellEnvFactory;
use crate::presets;

pub use crate::presets::{MergeReduceKernel, SortMapKernel};

/// Input GB per node (keeps per-node work constant across the sweep).
const GB_PER_NODE: u64 = 1;

/// Parameters of the Terasort experiment.
#[derive(Clone, Debug)]
pub struct TerasortParams {
    /// Cluster sizes swept.
    pub nodes: Vec<usize>,
}

impl Default for TerasortParams {
    fn default() -> Self {
        TerasortParams {
            nodes: vec![4, 8, 16],
        }
    }
}

/// Runs the sweep and reports per-node sorting rate (MB/s/node) — the
/// paper's metric for the Terabyte Sort discussion.
pub fn terasort_feed_rate(params: &TerasortParams) -> Figure {
    let mut rate = Series {
        label: "per-node sort rate".into(),
        points: Vec::new(),
    };
    let slots = MrConfig::default().map_slots_per_node;
    for &n in &params.nodes {
        let bytes = n as u64 * GB_PER_NODE * (1 << 30);
        let mut c = ClusterBuilder::new()
            .seed(9000 + n as u64)
            .workers(n)
            .env(CellEnvFactory::default())
            .deploy();
        let mut session = c.session();
        session.submit(presets::terasort("/tera-in", bytes, n).map_tasks(n * slots));
        let result = session.run();
        assert!(result.succeeded, "terasort failed at {n} nodes");
        let mbps_per_node = bytes as f64 / 1e6 / result.elapsed.as_secs_f64() / n as f64;
        rate.points.push((n as f64, mbps_per_node));
    }
    Figure {
        id: "terasort",
        title: "Terasort-style per-node sorting rate".into(),
        x_label: "Nodes".into(),
        y_label: "MB/s per node".into(),
        series: vec![rate],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_node_rate_is_single_digit_mbps() {
        let fig = terasort_feed_rate(&TerasortParams { nodes: vec![4] });
        let (_, rate) = fig.series[0].points[0];
        // The paper's observation: ~5.5 MB/s/node, far below what the sort
        // kernel could do; accept a generous band around it.
        assert!((2.0..14.0).contains(&rate), "rate {rate}");
    }
}
