//! Experiment runners — one per figure of the paper's evaluation.
//!
//! Each runner takes exactly the values its figure sweeps (the paper's
//! axis, or a shorter one for fast tests), executes the corresponding
//! simulation(s), and returns a [`Figure`] holding the same series the
//! paper plots. The paper's sweeps, and the scaled-down ones `--quick`
//! runs, are written once, in `accelmr-bench`'s `figures` table, whose
//! binary prints them as aligned tables.

use accelmr_mapred::{ClusterBuilder, JobBuilder, JobResult, MrConfig};

use crate::env::CellEnvFactory;

pub mod dist;
pub mod single_node;
pub mod terasort;

pub use dist::{fig4, fig5, fig7, fig8};
pub use single_node::{fig2, fig6};
pub use terasort::terasort_feed_rate;

/// Deploys a fresh cluster of `nodes` Cell-equipped workers, runs `job` on
/// one map task per slot, and returns its result. Every distributed figure
/// point comes through here, so a failed job can never become one.
fn run_job(seed: u64, nodes: usize, mr_cfg: &MrConfig, job: JobBuilder) -> JobResult {
    let mut c = ClusterBuilder::new()
        .seed(seed)
        .workers(nodes)
        .mr(mr_cfg.clone())
        .env(CellEnvFactory::default())
        .deploy();
    let mut session = c.session();
    session.submit(job.map_tasks(nodes * mr_cfg.map_slots_per_node));
    let result = session.run();
    assert!(
        result.succeeded,
        "{} failed at {nodes} nodes: {:?}",
        result.name, result.error
    );
    result
}

/// One plotted series: `(x, y)` points under a legend label.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label, matching the paper's.
    pub label: String,
    /// Data points in x order.
    pub points: Vec<(f64, f64)>,
}

/// A regenerated figure.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Paper figure id, e.g. `"fig2"`.
    pub id: &'static str,
    /// Title (the paper's caption).
    pub title: String,
    /// X axis label.
    pub x_label: String,
    /// Y axis label.
    pub y_label: String,
    /// All series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Builds a figure from its sweep: each row is one x and the y of every
    /// series at it, in `labels` order. Rows are drawn x-major, so the
    /// simulations behind them run in sweep order.
    fn sweep<const N: usize>(
        id: &'static str,
        title: impl Into<String>,
        x_label: &str,
        y_label: &str,
        labels: [&str; N],
        rows: impl IntoIterator<Item = (f64, [f64; N])>,
    ) -> Figure {
        let mut series = labels.map(|label| Series {
            label: label.into(),
            points: Vec::new(),
        });
        for (x, ys) in rows {
            for (s, y) in series.iter_mut().zip(ys) {
                s.points.push((x, y));
            }
        }
        Figure {
            id,
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: series.into(),
        }
    }

    /// Renders the figure as an aligned text table (x column + one column
    /// per series), the format the bench binaries print.
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        let _ = writeln!(out, "# y: {}", self.y_label);
        let mut header = format!("{:>16}", self.x_label);
        for s in &self.series {
            header.push_str(&format!(" {:>22}", s.label));
        }
        let _ = writeln!(out, "{header}");
        let xs: Vec<f64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|&(x, _)| x).collect())
            .unwrap_or_default();
        for (i, x) in xs.iter().enumerate() {
            let mut row = format!("{x:>16.4e}");
            for s in &self.series {
                match s.points.get(i) {
                    Some(&(_, y)) => row.push_str(&format!(" {y:>22.4}")),
                    None => row.push_str(&format!(" {:>22}", "-")),
                }
            }
            let _ = writeln!(out, "{row}");
        }
        out
    }

    /// Looks up a series by label (tests).
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_all_series() {
        let fig = Figure {
            id: "figX",
            title: "test".into(),
            x_label: "nodes".into(),
            y_label: "time (s)".into(),
            series: vec![
                Series {
                    label: "a".into(),
                    points: vec![(1.0, 2.0), (2.0, 3.0)],
                },
                Series {
                    label: "b".into(),
                    points: vec![(1.0, 5.0)],
                },
            ],
        };
        let t = fig.to_table();
        assert!(t.contains("figX"));
        assert!(t.contains('a'));
        assert!(t.lines().count() >= 5);
        assert!(fig.series("a").is_some());
        assert!(fig.series("zzz").is_none());
    }
}
