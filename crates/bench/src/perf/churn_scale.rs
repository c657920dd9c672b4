//! churn_scale — **wall-clock** benchmark of dynamic membership at
//! 1000-node scale.
//!
//! The paper's headline deployment property is a "dynamically variable
//! number of nodes"; this section drives it three orders of magnitude past
//! the paper's testbed: a terasort over a 1000-worker cluster with ≥ 10%
//! of the nodes joining or leaving *mid-job*. Every layer's churn path is
//! on the clock at once:
//!
//! * fabric — links grow for joins, a crash aborts flows via the
//!   link→classes index (O(node degree), not O(all flows)), and a shuffle's
//!   many fetches over one route at one cap are priced as one solver entry
//!   (flows re-priced per entry fed is asserted: `Scenario::flows_per_class_floor`);
//! * DFS — departures are detected by heartbeat silence, replicas are
//!   pruned, and every under-replicated block is repaired by streaming a
//!   surviving replica through a pipeline (joins add repair capacity and
//!   enter the placement rotation);
//! * MapReduce — joined TaskTrackers register and pull work on their
//!   heartbeats, lost attempts *and lost map outputs* re-execute
//!   (exactly-once accounting preserved by contribution subtraction), and
//!   reduce fetch lists are rebuilt against the current output locations.
//!
//! Leaves are crash-shaped; detection takes a heartbeat-silence window, so
//! transfers begun in that window may still complete against the departed
//! node — the same approximation every heartbeat-based system lives with.
//!
//! Each run must finish with a successful job, zero under-replicated
//! blocks, and work dispatched onto joined nodes, with its simulated
//! outcome pinned exactly by its golden-ledger row (`<section>.full` or
//! `<section>.quick` in `crates/bench/goldens.txt`). Host speed is held to
//! floors on events/s over the process's calibration.
//! Returns the `churn_scale` and `terasort_10k` sections of
//! `BENCH_perf.json`: the second pins the 10,000-node run, or under
//! `--quick` a 1000-worker stand-in of the same shape.

use std::time::Instant;

use accelmr_des::golden::Row;
use accelmr_des::{ActorCost, SimDuration};
use accelmr_dfs::{DfsConfig, NameNode};
use accelmr_hybrid::presets;
use accelmr_mapred::{ChurnSchedule, ClusterBuilder, MrConfig};
use accelmr_net::NodeId;

use crate::{float, obj, Json};

#[derive(Clone, Copy)]
struct Scenario {
    workers: usize,
    /// Input blocks (64 MB each, replication 3).
    blocks: u64,
    reducers: usize,
    joins: usize,
    /// Every `leave_stride`-th worker departs — strides > replica-set
    /// width guarantee at most one of a block's initial replicas leaves.
    leave_stride: usize,
    churn_start_s: u64,
    churn_window_s: u64,
    /// Floor on `net.comp_flow_visits / net.comp_class_visits`: how many
    /// flows a solver entry stands for, averaged over the run's solves. A
    /// shuffle is mostly one route at one cap many times over (maps per
    /// node x reducers per node), and pricing those as one entry is where
    /// the fabric's wall went; a fabric that feeds flows one by one again
    /// reads exactly 1 here. The ratio is simulated, so it repeats exactly;
    /// each floor sits about a third under its scenario's measured value.
    flows_per_class_floor: f64,
    /// The scenario's host-speed bar, if it has one.
    floor: Option<Floor>,
}

/// The calibration ([`super::calibration`]) on the host that restated the
/// raw events/s bars below as [`Floor`]s: the median of 42 `perf`
/// processes on a 2-core VM, which read 7.77M-12.04M events/s.
const RESTATED_AT_CALIBRATION: f64 = 8_757_762.0;

/// A host-speed bar in calibrated units: a floor on `events_per_sec /
/// calibration`. It is a raw events/s bar divided by
/// [`RESTATED_AT_CALIBRATION`], so on the host that restated it, it fails
/// exactly the runs the raw bar failed; on a host k times as fast, the
/// events/s it asks for is k times as high.
#[derive(Clone, Copy)]
struct Floor(f64);

impl Floor {
    /// The raw bar "at least `events_per_sec`", restated.
    const fn restating(events_per_sec: f64) -> Floor {
        Floor(events_per_sec / RESTATED_AT_CALIBRATION)
    }

    /// Whether a run at `events_per_sec` falls under the floor on a host
    /// whose calibration reads `calibration`.
    fn fails(self, events_per_sec: f64, calibration: f64) -> bool {
        events_per_sec / calibration < self.0
    }
}

/// The parent commit's host numbers for a full-scale scenario, measured on
/// the machine that regenerated the section, alternated with this commit's
/// runs: the "before" row beside its "after" (the run's `wall_s`, the
/// `net.fabric` row of `actor_costs` and `net.fabric.phase.solve` of
/// `fabric_phases`).
fn before(wall_s: f64, fabric_ns_per_event: f64, solve_busy_s: f64) -> Json {
    obj! { "before" => obj! {
        "commit" => "a80bb2e",
        "wall_s" => float(wall_s, 4),
        "net_fabric_nanos_per_event" => float(fabric_ns_per_event, 0),
        "solve_busy_s" => float(solve_busy_s, 4),
    } }
}

/// What the caller pins, within and across scenarios.
struct Sample {
    /// The simulated outcome as a golden-ledger row. (A solve that walks
    /// every entry every round again reads 2.1-2.3x the `--quick` rows'
    /// `solver_entry_visits`.)
    pins: Row,
    events_per_sec: f64,
    /// Per-actor-class dispatch costs (events + host nanos), collected
    /// with engine profiling on. The 1k→10k per-event cost ratio is
    /// pinned from these, so heartbeat-path O(cluster) regressions fail
    /// the bench instead of silently re-inflating the 10k run.
    actor_costs: Vec<ActorCost>,
    /// The fabric's settle phase (popping due and stale completions and
    /// settling the due flows) over the fabric's whole host time, both
    /// from this one run, so host speed cancels.
    settle_share: f64,
}

/// The largest share of the fabric's host time its settle phase may take
/// on the `terasort_10k` scenario and its `--quick` stand-in. With the
/// projected completions (~260k pending at 1k nodes) in a binary heap the
/// stand-in read 0.45; on the ladder queue it reads 0.21, and the 10k run
/// 0.17. A completion store whose pops walk cache-missing levels again
/// crosses the bar.
const SETTLE_SHARE_BAR: f64 = 0.3;

/// Bar on the fabric's completion ladder: the item slots it held at most,
/// per live flow at most (`net.completion_peak_slots /
/// net.peak_live_flows`). With its buckets in fixed-size chunks it reads
/// 1.47 (`churn_scale.full`), 2.07 (`terasort_10k.full`), 2.54
/// (`churn_scale.quick`) and 3.10 (`terasort_10k.quick`); most of what
/// stands above 1 is stale entries (the quick stand-in holds ~2.9 pending
/// per live flow), which the bar does not target. With a doubling `Vec`
/// per bucket, whose crowded bucket was split into a second set of `Vec`s
/// while the emptied source was still held, it read 3.39, 5.17, 3.59 and
/// 7.05. A count, so it repeats exactly.
const COMPLETION_SLOTS_PER_LIVE_FLOW_BAR: f64 = 3.2;

fn assert_settle_share(s: &Sample, section: &str) {
    assert!(
        s.settle_share <= SETTLE_SHARE_BAR,
        "{section}: the fabric's settle phase took {:.2} of its host time, bar {SETTLE_SHARE_BAR} — completion pops are expensive again",
        s.settle_share
    );
}

/// Mean profiled host-nanoseconds per dispatched event across the given
/// actor classes — the scalar the 1k→10k ratio bars compare.
fn nanos_per_event<'a>(costs: impl IntoIterator<Item = &'a ActorCost>) -> f64 {
    let (events, nanos) = costs
        .into_iter()
        .fold((0, 0), |(e, n), c| (e + c.events, n + c.nanos));
    nanos as f64 / events.max(1) as f64
}

/// `big`'s mean per-event cost over `base`'s, across the actor classes
/// `keep` selects.
fn growth(base: &Sample, big: &Sample, keep: impl Fn(&str) -> bool) -> f64 {
    let pick = |s: &Sample| nanos_per_event(s.actor_costs.iter().filter(|c| keep(&c.class)));
    pick(big) / pick(base)
}

/// Holds the runs' simulated outcomes to the golden ledger in one report,
/// then each run to its host-speed floor.
fn hold(runs: [(&Scenario, &Sample); 2]) {
    super::goldens().check(&runs.map(|(_, s)| s.pins.clone()));
    let calibration = super::calibration();
    for (Scenario { floor, .. }, s) in runs {
        let speed = s.events_per_sec / calibration;
        assert!(
            !floor.is_some_and(|f| f.fails(s.events_per_sec, calibration)),
            "{}: {:.0} events/s is {speed:.4} of the calibration, floor {:.4}",
            s.pins.0,
            s.events_per_sec,
            floor.map_or(0.0, |f| f.0)
        );
    }
}

/// Runs one scenario and returns its sample (so the caller can hold it to
/// its pins and bars) and its section of the bench file.
fn measure(sc: &Scenario, section: &str, quick: bool) -> (Sample, Json) {
    // Elastic-deployment tuning: a 12 s silence window keeps repair and
    // re-execution latency proportionate to churn, and generous attempt
    // budgets absorb fetch aborts from mid-shuffle departures.
    let mr = MrConfig {
        tt_dead_after: SimDuration::from_secs(12),
        max_attempts: 30,
        ..MrConfig::default()
    };
    let dfs = DfsConfig {
        dead_after: SimDuration::from_secs(12),
    };
    let mut cluster = ClusterBuilder::new()
        .seed(2009)
        .workers(sc.workers)
        .mr(mr)
        .dfs(dfs)
        .deploy();
    // Per-actor cost profiling: one clock read per dispatch, no effect on
    // event order or trace fingerprints.
    cluster.sim.enable_profiling();

    let leaves: Vec<NodeId> = (1..=sc.workers as u32)
        .step_by(sc.leave_stride)
        .map(NodeId)
        .collect();
    let n_leaves = leaves.len();

    let started = Instant::now();
    let mut session = cluster.session();
    let joined = session.churn(ChurnSchedule::wave(
        sc.joins,
        &leaves,
        SimDuration::from_secs(sc.churn_start_s),
        SimDuration::from_secs(sc.churn_window_s),
    ));
    assert_eq!(joined.len(), sc.joins);
    session.submit(
        presets::terasort_replicated("/gray", sc.blocks * (64 << 20), sc.reducers, 3)
            // One 64 MB record per map task: more dispatch waves than
            // slots, so late joiners find a non-empty queue.
            .map_tasks(sc.blocks as usize),
    );
    let result = session.run();

    // Drain past the last death-detection window so replication repair
    // finishes, then audit the NameNode. The returned summary carries the
    // cumulative event count of the whole simulation.
    let resume = cluster.sim.now();
    let summary = cluster.sim.run_until(resume + SimDuration::from_secs(180));
    let wall_s = started.elapsed().as_secs_f64();

    assert!(result.succeeded, "churn terasort failed");
    // One split per slot (the paper's NumMappers plan): the 3-waves-of-
    // blocks input makes the pending queue outlive the churn window.
    assert!(result.map_tasks as usize >= sc.workers);
    let joined_dispatches = result
        .dispatch_log
        .iter()
        .filter(|&&(_, n)| joined.contains(&n))
        .count();
    assert!(
        joined_dispatches > 0,
        "no work was dispatched onto joined nodes"
    );
    let stats = cluster.sim.stats();
    assert_eq!(stats.counter("cluster.nodes_joined"), sc.joins as u64);
    assert_eq!(stats.counter("cluster.nodes_left"), n_leaves as u64);
    assert!(stats.counter("dfs.replications_started") > 0);
    let nn = cluster
        .sim
        .actor_ref::<NameNode>(cluster.dfs.namenode)
        .expect("namenode alive");
    assert_eq!(
        nn.under_replicated_blocks(),
        0,
        "blocks did not re-reach target replication"
    );

    let pins = vec![
        ("events", summary.events),
        ("attempts", u64::from(result.attempts)),
        ("rereplications", stats.counter("dfs.blocks_replicated")),
        ("solver_calls", stats.counter("net.solver_calls")),
        ("solver_rounds", stats.counter("net.solver_rounds")),
        (
            "solver_entry_visits",
            stats.counter("net.solver_entry_visits"),
        ),
        ("makespan_ns", result.elapsed.as_nanos()),
    ];
    let events_per_sec = summary.events as f64 / wall_s.max(1e-9);
    let comp_visits = stats.counter("net.comp_flow_visits");
    let class_visits = stats.counter("net.comp_class_visits");
    let flows_per_class = comp_visits as f64 / class_visits.max(1) as f64;
    let actor_costs = stats.actor_costs();
    let laps = stats.lap_costs();
    let nanos_of = |costs: &[ActorCost], class: &str| {
        costs
            .iter()
            .find(|c| c.class == class)
            .map_or(0, |c| c.nanos)
    };
    let settle_share = nanos_of(&laps, "net.fabric.phase.settle") as f64
        / nanos_of(&actor_costs, "net.fabric").max(1) as f64;
    let per_event = |c: &ActorCost| float(c.nanos as f64 / c.events.max(1) as f64, 0);
    let peak_slots = stats.counter("net.completion_peak_slots");
    let peak_live_flows = stats.counter("net.peak_live_flows");
    let slots_per_live_flow = peak_slots as f64 / peak_live_flows.max(1) as f64;
    let mut row = obj! {
        "workers" => sc.workers,
        "joins" => sc.joins,
        "leaves" => n_leaves,
        "churn_pct" => float(100.0 * (sc.joins + n_leaves) as f64 / sc.workers as f64, 1),
        "flows" => stats.counter("net.flows_done"),
    };
    row.extend(Json::object(pins.iter().copied()));
    row.extend(obj! {
        "events_per_sec" => float(events_per_sec, 0),
        "events_per_sec_over_calibration" => float(events_per_sec / super::calibration(), 4),
        "wall_s" => float(wall_s, 4),
        "makespan_s" => float(result.elapsed.as_secs_f64(), 3),
        "abort_flows_scanned" => stats.counter("net.abort_flows_scanned"),
        "joined_node_dispatches" => joined_dispatches,
        "comp_flow_visits" => comp_visits,
        "comp_class_visits" => class_visits,
        "flows_per_class" => float(flows_per_class, 2),
        "queue" => super::queue_json(&stats.queue()),
        // The fabric's completion queue (a second ladder): rungs spawned,
        // its longest sorted run and the most item slots it held, beside
        // the most flows live at once.
        "completion_queue" => obj! {
            "rungs_spawned" => stats.counter("net.completion_rungs_spawned"),
            "peak_cur_len" => stats.counter("net.completion_peak_cur_len"),
            "peak_slots" => peak_slots,
            "peak_live_flows" => peak_live_flows,
            "slots_per_live_flow" => float(slots_per_live_flow, 2),
        },
        // The fabric's two largest structures at their peaks, in bytes:
        // the completion ladder's slots and the flow slab's capacity.
        "held_bytes" => obj! {
            "completion_peak" => stats.counter("net.completion_peak_bytes"),
            "flow_slab_peak" => stats.counter("net.flow_slab_peak_bytes"),
        },
        // Chaos-plane robustness counters (zero in fault-free churn runs
        // unless hardening knobs are enabled; surfaced so regressions in
        // the counter plumbing are visible here too).
        "robustness" => Json::object(
            ["mr.attempt_retries", "dfs.read_retries", "mr.blacklist_entries", "net.partitions_healed"]
                .map(|name| (name, stats.counter(name))),
        ),
        "nanos_per_event" => float(nanos_per_event(&actor_costs), 0),
        "actor_costs" => actor_costs
            .iter()
            .map(|c| obj! { "class" => &*c.class, "events" => c.events, "nanos_per_event" => per_event(c) })
            .collect::<Vec<_>>(),
        // The fabric's own split of its `actor_costs` row
        // (`net.fabric.phase.*` laps: settle / walk / solve / write_back /
        // rearm per advance, `start` per `StartFlow`).
        "fabric_phases" => Json::object(laps.iter().map(|c| {
            let busy_s = float(c.nanos as f64 / 1e9, 4);
            (&c.class, obj! { "laps" => c.events, "busy_s" => busy_s })
        })),
        "settle_share_of_fabric" => float(settle_share, 3),
    });
    assert!(
        slots_per_live_flow <= COMPLETION_SLOTS_PER_LIVE_FLOW_BAR,
        "{section}: the completion queue held {peak_slots} slots for at most {peak_live_flows} live flows ({slots_per_live_flow:.2} each, bar {COMPLETION_SLOTS_PER_LIVE_FLOW_BAR}) — its buckets carry slack or a split holds a second copy again"
    );
    // Flows re-priced per solver entry fed.
    assert!(
        flows_per_class >= sc.flows_per_class_floor,
        "{section}: {flows_per_class:.2} flows re-priced per solver entry, floor {} — same-route fetches are being priced one by one",
        sc.flows_per_class_floor
    );
    let mut body = obj! {
        "scenario" => format!(
            "terasort, 64 MB blocks x{}, replication 3, {} reducers, churn wave {}j+{}l over [{}s, {}s]",
            sc.blocks,
            sc.reducers,
            sc.joins,
            n_leaves,
            sc.churn_start_s,
            sc.churn_start_s + sc.churn_window_s
        ),
        "quick" => quick,
    };
    if let Some(floor) = sc.floor {
        body.extend(obj! { "floor_over_calibration" => float(floor.0, 4) });
    }
    body.extend(obj! { "runs" => vec![row] });
    let sample = Sample {
        pins: (
            format!("{section}.{}", if quick { "quick" } else { "full" }),
            pins,
        ),
        events_per_sec,
        actor_costs,
        settle_share,
    };
    (sample, body)
}

/// The 1k run, then the 10k run and the 1k→10k per-event ratio bars; under
/// `--quick`, a 128-worker run and the 1000-worker stand-in.
pub fn run(quick: bool) -> Json {
    let full_1k = Scenario {
        workers: 1000,
        blocks: 6 * 1000,
        reducers: 64,
        joins: 60,
        leave_stride: 19,
        churn_start_s: 12,
        churn_window_s: 40,
        // Measured 12.1: 6 maps per node x 2 reducers per reducer node.
        flows_per_class_floor: 8.0,
        // The raw bar was a 10 s wall for the run's 1,729,614 events.
        floor: Some(Floor::restating(172_961.4)),
    };
    let sc = if quick {
        Scenario {
            workers: 128,
            // ~3 map dispatch waves (one record per task, 2 slots per
            // node): the pending queue outlives the churn window, so
            // joined nodes demonstrably pull work.
            blocks: 6 * 128,
            reducers: 16,
            joins: 12,
            leave_stride: 13,
            churn_window_s: 30,
            // Measured 10.2.
            flows_per_class_floor: 6.5,
            floor: None,
            ..full_1k
        }
    } else {
        full_1k
    };
    let (base, mut base_json) = measure(&sc, "churn_scale", quick);

    if quick {
        // CI smoke of the 10k scenario's *shape* at a scaled-down worker
        // count: same 3-blocks-per-worker input, reducer count, and ~6%
        // churn profile as the full 10k run, so a heartbeat-path
        // O(cluster) regression shows up as a collapsed events/s here
        // instead of waiting for the next full 10k regeneration.
        let smoke = Scenario {
            blocks: 3 * 1000,
            // Measured 6.2, as the full 10k run it stands in for.
            flows_per_class_floor: 4.0,
            // The raw bar was 150,000 events/s.
            floor: Some(Floor::restating(150_000.0)),
            ..full_1k
        };
        let (s, smoke_json) = measure(&smoke, "terasort_10k", quick);
        hold([(&sc, &base), (&smoke, &s)]);
        assert_settle_share(&s, "terasort_10k");
        return obj! { "churn_scale" => base_json, "terasort_10k" => smoke_json };
    }

    {
        // The ROADMAP's next-order-of-magnitude scenario: a 10k-node
        // terasort with the same ~11% churn profile. Shuffle work scales
        // as reducers x maps, so the reducer count is held at 64 and the
        // input at 3 blocks/worker (1.5 map waves — late joiners still
        // find a non-empty queue) to keep the fetch fan-out from
        // quadratically swamping the 10x node-count point. The
        // `fabric_phases` rows say where the host time goes: the per-flow
        // settles of completions, the write-back that re-prices every
        // member of a walked class whether or not its rate moved, and
        // `StartFlow`. Only the full bench regeneration pays for this run;
        // the --quick path stops above.
        let sc10k = Scenario {
            workers: 10_000,
            blocks: 3 * 10_000,
            joins: 600,
            // Measured 6.2: 3 maps per node, same reducer placement.
            flows_per_class_floor: 4.0,
            // The raw bar was a 47 s wall for the run's 29,708,157 events.
            floor: Some(Floor::restating(632_088.446_808_510_7)),
            ..full_1k
        };
        let (big, mut big_json) = measure(&sc10k, "terasort_10k", quick);
        hold([(&sc, &base), (&sc10k, &big)]);
        assert_settle_share(&big, "terasort_10k");

        // The heartbeat-path scalability pin: per-event host cost must
        // not grow with the cluster the way an O(cluster) scan per
        // heartbeat makes it grow (before the expiry-heap and
        // incremental-slot rewrite the NameNode and JobTracker rows grew
        // several-fold from 1k to 10k nodes). Three ratios, because one
        // hid the others: the single overall bar this replaces (10k
        // ns/event / 1k ns/event < 1.6) had the fabric in both terms at
        // ~40% weight and a 1k cost *above* its 10k cost, so it read 1.07x
        // while every other class had doubled — and pricing same-route
        // flows as one solver entry, which cut the fabric's 1k term more
        // than its 10k term (12 flows per class against 6), moved that
        // reading to 1.3-1.6x without touching one line of the heartbeat
        // path. A fabric speed-up must not be able to fail a heartbeat
        // guard, so:
        //
        // * every class but the fabric: measured 1.98-2.52x over six runs
        //   here, 2.0-2.2x at the parent commit on two machines. This is
        //   memory hierarchy, not an O(cluster) term: 10x the per-node
        //   actors no longer fit in cache (TaskTracker and DataNode rows
        //   grow 2.1-2.9x, the JobTracker's 1.2-1.6x). Bar 3.2.
        // * the control plane (NameNode + JobTracker), the rows an
        //   O(cluster) scan would multiply: measured 1.46-2.15x over
        //   twelve runs of this commit and its parent — code neither
        //   changes; the 1k term is 0.2 s of host time and swings by a
        //   third — where a scan per heartbeat reads 5x or more. Bar 2.8
        //   (was 1.5, which ten of those twelve runs crossed).
        // * the fabric alone: measured 1.07-1.39x (0.84-0.93x at the
        //   parent, whose per-flow walk was slower still at 1k). Bar 1.8:
        //   what is expected to grow is flows per class halving and the
        //   class table leaving L2, not a per-node term.
        let rest = growth(&base, &big, |class| class != "net.fabric");
        let control = growth(&base, &big, |class| {
            class == "dfs.namenode" || class == "mr.jobtracker"
        });
        let fabric = growth(&base, &big, |class| class == "net.fabric");
        assert!(
            rest < 3.2,
            "non-fabric per-event cost grew {rest:.2}x from 1k to 10k nodes — an O(cluster) term is back"
        );
        assert!(
            control < 2.8,
            "NameNode/JobTracker per-event cost grew {control:.2}x from 1k to 10k nodes — a heartbeat-path O(cluster) scan is back"
        );
        assert!(
            fabric < 1.8,
            "net.fabric per-event cost grew {fabric:.2}x from 1k to 10k nodes — the fabric picked up a per-node term"
        );
        big_json.extend(obj! { "per_event_cost_1k_to_10k" => obj! {
            "all_but_fabric" => float(rest, 2),
            "control_plane" => float(control, 2),
            "fabric" => float(fabric, 2),
        } });
        // Median of three parent runs, alternated with this commit's on
        // the same 2-core VM. 1k: 1.20-1.55 s, fabric 903-1186 ns/event,
        // solve 0.062-0.074 s (this commit 1.10-1.26 s, 811-952,
        // 0.050-0.054). 10k: 27.0-31.4 s, 734-809 ns/event, solve
        // 0.82-0.94 s (26.2-28.9 s, 646-724, 0.45-0.51).
        base_json.extend(before(1.4343, 1067.0, 0.0697));
        big_json.extend(before(27.4966, 738.0, 0.8819));
        obj! { "churn_scale" => base_json, "terasort_10k" => big_json }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(costs: &[(&str, u64, u64)]) -> Sample {
        let cost = |&(class, events, nanos): &(&str, u64, u64)| ActorCost {
            class: class.to_string(),
            events,
            nanos,
        };
        let actor_costs = costs.iter().map(cost).collect();
        Sample {
            pins: Default::default(),
            events_per_sec: 0.0,
            actor_costs,
            settle_share: 0.0,
        }
    }

    #[test]
    fn nanos_per_event_weights_classes_by_their_events() {
        // 1 event at 1000 ns and 9 at 100 ns: 190 ns per event, not the
        // classes' mean of 550.
        let s = sample(&[("a", 1, 1_000), ("b", 9, 900)]);
        assert_eq!(nanos_per_event(&s.actor_costs), 190.0);
        assert_eq!(nanos_per_event(&[]), 0.0);
    }

    #[test]
    fn growth_reads_only_the_classes_it_keeps() {
        let base = sample(&[("net.fabric", 10, 1_000), ("dfs.namenode", 10, 100)]);
        let big = sample(&[("net.fabric", 10, 50_000), ("dfs.namenode", 20, 400)]);
        assert_eq!(growth(&base, &big, |c| c != "net.fabric"), 2.0);
        assert_eq!(growth(&base, &big, |c| c == "net.fabric"), 50.0);
    }

    #[test]
    fn a_floor_fails_exactly_the_runs_its_raw_bar_fails() {
        // The three raw bars: 10 s and 47 s walls on the full runs' event
        // counts, and the --quick stand-in's 150,000 events/s.
        for raw in [172_961.4, 632_088.446_808_510_7, 150_000.0] {
            let floor = Floor::restating(raw);
            for scale in [0.2, 0.9, 0.999, 1.001, 1.1, 5.0] {
                let rate = raw * scale;
                // On the host that restated the bar...
                assert_eq!(floor.fails(rate, RESTATED_AT_CALIBRATION), rate < raw);
                // ...and on one three times as fast, which must run three
                // times as many events per second.
                let fast = 3.0 * RESTATED_AT_CALIBRATION;
                assert_eq!(floor.fails(rate, fast), rate < 3.0 * raw);
            }
        }
    }
}
