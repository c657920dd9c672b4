//! The sections of the `perf` binary: wall-clock benches of the simulator
//! and robustness sweeps of the runtime. Each `run(quick)` asserts its own
//! bars and pinned values and returns the top-level entries it owns in its
//! output file as one [`Json`] object.
//!
//! A bar on host speed is never a raw number of seconds or events/s. The
//! paper judges each mapper beside an EmptyMapper run on the same cluster;
//! a section judges its events/s beside the [`calibration`] measured in the
//! same process, or beside another run of its own.

pub mod churn_scale;
pub mod des_core;
pub mod fault_matrix;
pub mod kernels_host;
pub mod net_scale;
pub mod sched_ablation;

use std::sync::OnceLock;

use crate::{obj, Json};
use accelmr_des::{Ledger, QueueStats};

/// One named scenario of the `perf` binary: `(name, stem of the file its
/// entries are written to, runner)`. The runner scales down when its
/// argument (`--quick`) is set.
pub type Section = (&'static str, &'static str, fn(bool) -> Json);

/// Every section, in the order a full run takes them. `kernels_host` goes
/// last: its bars are host-time ratios that a busy host can fail, and a
/// failed bar ends the process, so every deterministic pin runs before it.
pub const SECTIONS: [Section; 6] = [
    ("des_core", "BENCH_perf", des_core::run),
    ("net_scale", "BENCH_perf", net_scale::run),
    ("churn_scale", "BENCH_perf", churn_scale::run),
    ("fault_matrix", "BENCH_perf", fault_matrix::run),
    ("sched_ablation", "BENCH_sched", sched_ablation::run),
    ("kernels_host", "BENCH_perf", kernels_host::run),
];

/// The host's pace, measured once per process: the median events/s of
/// three full-size `des_core` `timer_wheel` runs (8,192 actors x 200
/// firings, `--quick` included). The first call measures it, which the
/// `perf` binary makes before any section runs.
pub fn calibration() -> f64 {
    static CALIBRATION: OnceLock<f64> = OnceLock::new();
    *CALIBRATION.get_or_init(des_core::calibrate)
}

/// The golden ledger, `crates/bench/goldens.txt`, that `net_scale` and
/// `churn_scale` hold their simulated outcomes to.
fn goldens() -> Ledger {
    Ledger::parse(include_str!("../../goldens.txt")).expect("the golden ledger parses")
}

/// The engine's event-core counters, so queue-health regressions (depth
/// blow-ups, lost rearm batching) show in the `BENCH_perf.json` trajectory.
fn queue_json(q: &QueueStats) -> Json {
    obj! {
        "pushes" => q.pushes,
        "peak_depth" => q.peak_depth,
        "cancelled_drops" => q.cancelled_drops,
        "dead_actor_drops" => q.dead_actor_drops,
        "timer_rearms" => q.timer_rearms,
        "timer_slots" => q.timer_slots,
        "rungs_spawned" => q.rungs_spawned,
        "peak_cur_len" => q.peak_cur_len,
        "peak_slots" => q.peak_slots,
    }
}
