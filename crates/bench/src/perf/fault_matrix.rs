//! fault_matrix — robustness sweep of the chaos plane: fault class ×
//! intensity on the 256-node terasort.
//!
//! Each cell injects one fault class through a deterministic
//! [`FaultPlan`] — network partitions that
//! stall and heal, NIC degradation, gray compute failures, heartbeat
//! loss (false-positive death), transient stalls, and a mixed seeded
//! storm — against the hardened runtime profile (I/O timeouts with
//! exponential backoff and failover, progressive blacklisting, epoch
//! fencing, the job-level liveness watchdog). The acceptance bar per
//! cell:
//!
//! * **termination** — the run completes or fails with a typed
//!   `JobError`; it never hangs (the drained
//!   simulation returning at all proves it);
//! * **exactly-once** — the output digest equals the fault-free
//!   baseline's and the reduce aggregate equals the input size: no
//!   record lost to a stalled transfer, none double-counted through a
//!   fenced zombie report;
//! * **bounded inflation** — the makespan stays within a constant factor
//!   of the fault-free baseline (faults cost time, not correctness);
//! * **bounded host cost** — the fabric's completion queue keeps a short
//!   sorted run (counted, so it holds under `--quick` too), and a
//!   full-size cell takes at most a few times the baseline's host time.
//!
//! Returns the `fault_matrix` section of `BENCH_perf.json`, including the
//! robustness counters (`COUNTERS`: retries, blacklisting, healed
//! partitions, fencing/resurrection/watchdog activity) per cell.

use std::time::Instant;

use accelmr_des::SimDuration;
use accelmr_dfs::DfsConfig;
use accelmr_hybrid::presets;
use accelmr_mapred::{ClusterBuilder, FaultOp, FaultPlan, MrConfig};
use accelmr_net::NodeId;

use crate::{float, obj, Json};

/// One fault class of the sweep.
#[derive(Clone, Copy, Debug)]
enum Class {
    Partition,
    Degrade,
    Gray,
    HeartbeatLoss,
    Stall,
    /// Mixed storm from the seeded generator.
    Storm,
}

/// Input blocks (64 MB each, replication 3) for a cluster of `workers`;
/// there is one reducer per eight workers.
fn blocks(workers: usize) -> u64 {
    4 * workers as u64
}

/// `(name, class, victims, window in seconds)`.
type Cell = (&'static str, Class, usize, u64);

/// Workers, and the cells swept over them.
const FULL: (usize, &[Cell]) = (
    256,
    &[
        ("partition/lo", Class::Partition, 1, 30),
        ("partition/hi", Class::Partition, 12, 45),
        ("degrade/lo", Class::Degrade, 1, 30),
        ("degrade/hi", Class::Degrade, 12, 45),
        ("gray/lo", Class::Gray, 1, 30),
        ("gray/hi", Class::Gray, 12, 45),
        ("hb_loss/lo", Class::HeartbeatLoss, 1, 25),
        ("hb_loss/hi", Class::HeartbeatLoss, 12, 25),
        ("stall/lo", Class::Stall, 1, 30),
        ("stall/hi", Class::Stall, 12, 30),
        ("storm", Class::Storm, 25, 30),
    ],
);
const QUICK: (usize, &[Cell]) = (
    64,
    &[
        ("partition/hi", Class::Partition, 4, 45),
        ("degrade/hi", Class::Degrade, 4, 45),
        ("gray/hi", Class::Gray, 4, 45),
        ("hb_loss/hi", Class::HeartbeatLoss, 4, 30),
        ("stall/hi", Class::Stall, 4, 30),
        ("storm", Class::Storm, 10, 30),
    ],
);

/// Most host time a full-size cell may take, over the fault-free
/// baseline's from the same run (so host speed cancels). `degrade/hi`, the
/// costliest cell, reads 3.5–4.5; 6.1–7.7 with the fabric's completions in a
/// binary heap, ~180 with the ladder's sorted run left to grow. Not held
/// under `--quick`, whose cells take milliseconds.
const WALL_OVER_BASELINE_BAR: f64 = 6.0;

/// Longest sorted run the fabric's completion queue may hold, per worker.
/// Only completions at one instant stay in it (at most ~35 per worker
/// here); a run that is never split holds every completion near the clock
/// (566,064 on full-size `degrade/hi`, 10,856 on the quick one).
const PEAK_CUR_PER_WORKER_BAR: u64 = 64;

/// The robustness counters reported per cell.
const COUNTERS: [&str; 8] = [
    "mr.attempt_retries",
    "dfs.read_retries",
    "mr.blacklist_entries",
    "net.partitions_healed",
    "mr.fenced_reports",
    "mr.tt_resurrections",
    "mr.speculative_launches",
    "mr.jobs_stalled",
];

struct Outcome {
    succeeded: bool,
    typed_error: Option<String>,
    makespan_s: f64,
    digest: (u64, u64),
    kv_total: u64,
    wall_s: f64,
    events: u64,
    /// One value per name in [`COUNTERS`].
    counters: [u64; 8],
    /// Longest sorted run the fabric's completion queue held: the count
    /// that says whether its pushes stayed O(1).
    completion_peak_cur_len: u64,
}

/// Victim nodes for a cell: a fixed stride through the worker id space
/// (deterministic, head node excluded, no dependence on map iteration).
fn victims(workers: usize, count: usize) -> Vec<NodeId> {
    let stride = (workers / count.max(1)).max(1);
    (0..count)
        .map(|i| NodeId(1 + ((i * stride) % workers) as u32))
        .collect()
}

/// Builds the plan for one cell: faults staggered 3 s apart from t=20 s
/// (mid-map for every scenario size), each healing after the cell's
/// window.
fn plan_for(workers: usize, &(_, class, n_victims, window_s): &Cell) -> FaultPlan {
    let window = SimDuration::from_secs(window_s);
    let start = SimDuration::from_secs(20);
    if matches!(class, Class::Storm) {
        let nodes: Vec<NodeId> = (1..=workers as u32).map(NodeId).collect();
        return FaultPlan::storm(
            2009,
            &nodes,
            n_victims,
            start,
            SimDuration::from_secs(40),
            window,
        );
    }
    let mut plan = FaultPlan::new();
    for (i, &node) in victims(workers, n_victims).iter().enumerate() {
        let at = start + SimDuration::from_secs(3 * i as u64);
        let op = match class {
            Class::Partition => FaultOp::Partition { node, window },
            Class::Degrade => FaultOp::Degrade {
                node,
                factor: 0.05,
                window,
            },
            Class::Gray => FaultOp::Gray {
                node,
                factor: 0.2,
                window,
            },
            Class::HeartbeatLoss => FaultOp::HeartbeatLoss { node, window },
            Class::Stall => FaultOp::Stall { node, window },
            Class::Storm => unreachable!(),
        };
        plan = plan.op_at(at, op);
    }
    plan
}

fn simulate(workers: usize, plan: FaultPlan) -> Outcome {
    // The hardened profile is the point of the sweep: fetch/read timeouts
    // with backoff and failover, blacklisting with probation decay, the
    // stall watchdog — plus speculation, so gray nodes get raced.
    let mr = MrConfig {
        tt_dead_after: SimDuration::from_secs(12),
        max_attempts: 30,
        speculative: true,
        // Stock hardened I/O timeouts: generous enough that
        // contention-slowed but healthy transfers never thrash the retry
        // path, so nonzero retry counters below always mean real faults.
        ..MrConfig::hardened()
    };
    let dfs = DfsConfig {
        dead_after: SimDuration::from_secs(12),
    };
    let mut cluster = ClusterBuilder::new()
        .seed(2009)
        .workers(workers)
        .mr(mr)
        .dfs(dfs)
        .deploy();

    let started = Instant::now();
    let mut session = cluster.session();
    session.faults(plan);
    session.submit(
        presets::terasort_replicated("/gray", blocks(workers) * (64 << 20), workers / 8, 3)
            .map_tasks(blocks(workers) as usize),
    );
    let result = session.run();
    let wall_s = started.elapsed().as_secs_f64();

    // A zero-length drain returns the cumulative event count.
    let now = cluster.sim.now();
    let events = cluster.sim.run_until(now).events;
    let stats = cluster.sim.stats();
    Outcome {
        succeeded: result.succeeded,
        typed_error: result.error.map(|e| e.to_string()),
        makespan_s: result.elapsed.as_secs_f64(),
        digest: result.digest,
        kv_total: result.kv.iter().map(|&(_, v)| v).sum(),
        wall_s,
        events,
        counters: COUNTERS.map(|name| stats.counter(name)),
        completion_peak_cur_len: stats.counter("net.completion_peak_cur_len"),
    }
}

/// Runs the fault-free baseline and every cell, holding each to the three
/// acceptance bars in the module doc.
pub fn run(quick: bool) -> Json {
    let (workers, cells) = if quick { QUICK } else { FULL };
    let baseline = simulate(workers, FaultPlan::new());
    assert!(baseline.succeeded, "fault-free baseline failed");
    assert_eq!(
        baseline.kv_total,
        blocks(workers) * (64 << 20),
        "baseline aggregate is not the input size"
    );

    let mut rows = Vec::new();
    for cell in cells {
        let &(name, _, victims, window_s) = cell;
        let o = simulate(workers, plan_for(workers, cell));
        let inflation = o.makespan_s / baseline.makespan_s.max(1e-9);
        // Termination with a typed outcome: success, or a typed JobError.
        assert!(
            o.succeeded || o.typed_error.is_some(),
            "{name}: failed without a typed JobError"
        );
        // Exactly-once: every completing cell reproduces the baseline
        // digest and the input-size aggregate.
        if o.succeeded {
            assert_eq!(
                o.digest, baseline.digest,
                "{name}: digest drifted under faults"
            );
            assert_eq!(
                o.kv_total, baseline.kv_total,
                "{name}: reduce aggregate drifted (lost or double-counted records)"
            );
        }
        // Bounded makespan inflation: faults cost time, not unbounded time.
        assert!(
            inflation < 4.0,
            "{name}: makespan inflated {inflation:.2}x (> 4x baseline)"
        );
        // Host cost: the completion queue's pushes stay O(1).
        let peak_bar = PEAK_CUR_PER_WORKER_BAR * workers as u64;
        assert!(
            o.completion_peak_cur_len <= peak_bar,
            "{name}: the fabric's completion queue held a sorted run of {}, bar {peak_bar}",
            o.completion_peak_cur_len
        );
        let wall_ratio = o.wall_s / baseline.wall_s;
        assert!(
            quick || wall_ratio <= WALL_OVER_BASELINE_BAR,
            "{name}: took {wall_ratio:.1}x the baseline's host time, bar {WALL_OVER_BASELINE_BAR}"
        );
        rows.push(obj! {
            "cell" => name,
            "victims" => victims,
            "window_s" => window_s,
            "succeeded" => o.succeeded,
            "error" => o.typed_error,
            "makespan_s" => float(o.makespan_s, 3),
            "makespan_inflation" => float(inflation, 3),
            "digest_exact" => o.digest == baseline.digest && o.kv_total == baseline.kv_total,
            "wall_s" => float(o.wall_s, 4),
            "wall_over_baseline" => float(wall_ratio, 2),
            "events" => o.events,
            "completion_peak_cur_len" => o.completion_peak_cur_len,
            "counters" => Json::object(COUNTERS.iter().zip(o.counters)),
        });
    }

    obj! { "fault_matrix" => obj! {
        "scenario" => format!(
            "terasort, 64 MB blocks x{}, replication 3, {} reducers, {} workers, hardened profile + speculation",
            blocks(workers),
            workers / 8,
            workers
        ),
        "quick" => quick,
        "wall_over_baseline_bar" => float(WALL_OVER_BASELINE_BAR, 1),
        "peak_cur_per_worker_bar" => PEAK_CUR_PER_WORKER_BAR,
        "baseline" => obj! {
            "makespan_s" => float(baseline.makespan_s, 3),
            "wall_s" => float(baseline.wall_s, 4),
            "events" => baseline.events,
        },
        "cells" => rows,
    } }
}
