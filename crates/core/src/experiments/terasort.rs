//! The Terasort-style feed-rate experiment.
//!
//! The paper closes §IV-A by observing that even the winning Terabyte Sort
//! entry moved only ~5.5 MB/s per node (0.6 MB/s per core), concluding the
//! mapper feed path limits all data-intensive MapReduce jobs, not just
//! encryption. This experiment reproduces that observation on our stack: a
//! full sort job (map: sort runs locally; shuffle; reduce: merge + write)
//! whose per-node throughput lands in single-digit MB/s regardless of the
//! sort kernel's speed.

use accelmr_mapred::MrConfig;

use super::{run_job, Figure};
use crate::presets;

pub use crate::presets::{MergeReduceKernel, SortMapKernel};

/// Input GB per node (keeps per-node work constant across the sweep).
const GB_PER_NODE: u64 = 1;

/// Runs the sort job on each cluster size of `nodes` and reports its
/// per-node sorting rate (MB/s/node) — the paper's metric for the Terabyte
/// Sort discussion.
pub fn terasort_feed_rate(nodes: &[usize]) -> Figure {
    Figure::sweep(
        "terasort",
        "Terasort-style per-node sorting rate",
        "Nodes",
        "MB/s per node",
        ["per-node sort rate"],
        nodes.iter().map(|&n| {
            let bytes = n as u64 * GB_PER_NODE * (1 << 30);
            let job = presets::terasort("/tera-in", bytes, n);
            let result = run_job(9000 + n as u64, n, &MrConfig::default(), job);
            let secs = result.elapsed.as_secs_f64();
            (n as f64, [bytes as f64 / 1e6 / secs / n as f64])
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_node_rate_is_single_digit_mbps() {
        let fig = terasort_feed_rate(&[4]);
        let (_, rate) = fig.series[0].points[0];
        // The paper's observation: ~5.5 MB/s/node, far below what the sort
        // kernel could do; accept a generous band around it.
        assert!((2.0..14.0).contains(&rate), "rate {rate}");
    }
}
