//! net_scale — **wall-clock** benchmark of the fabric's fluid engine.
//!
//! Every other BENCH file in this repo tracks *simulated* makespans; this
//! one tracks how fast the simulator itself runs, so engine-speed
//! regressions are visible. It drives a terasort-style shuffle — waves of
//! all-at-once fetches, every reducer pulling from `k` mapper nodes with
//! per-stream caps and per-reducer size skew — at 16/64/256/1024 nodes.
//!
//! The simulated side of every row is pinned: each size's makespan (to the
//! nanosecond) and `net.solver_calls` must equal its golden-ledger row
//! (`net_scale.full.<nodes>` or `net_scale.quick.<nodes>` in
//! `crates/bench/goldens.txt`). Same-instant starts coalesce into one
//! solve and re-solves stay component-local, so a whole wave costs a
//! handful of solves however many flows it carries; a fabric change that
//! prices per flow, or moves a completion, fails here. (The per-flow-event global
//! solver this engine replaced is kept as a test-only oracle in
//! `accelmr-net`: 12,333 solves and 183x the wall at 256 nodes when last
//! measured, at 5e8d4b6.)
//!
//! The shuffle rows are also the **bypass side** of the fabric's route
//! classes (flows sharing links and cap are one solver entry): every
//! (source, destination) pair here is distinct, so every class has exactly
//! one member, the class index buys nothing and its upkeep is pure cost.
//! Each row asserts `net.comp_flow_visits / net.comp_class_visits` is
//! exactly 1 so it stays that side, and the `before` object holds the
//! parent commit's 1024-node rate measured beside this commit's, so the
//! cost is on the record. The incast rows are the other side: 1,024 senders,
//! so 16 and then 32 flows per class, asserted likewise.
//!
//! A second scenario, `incast`, guards the per-flow bookkeeping: N and then
//! 2N equal flows (N = 16,384) into one receiver, all finishing at one
//! instant — a reducer's fetch wave. Everything the fabric does for it is
//! O(flows) (one solve at the start, one settle at the end), so the 2N/N
//! wall ratio sits near 2; a linear scan per unlink makes it 4. The bench
//! asserts the ratio stays under 3: a ratio holds across machines where a
//! wall bar would not.
//!
//! Returns the `net_scale` section of `BENCH_perf.json`.

use std::time::Instant;

use accelmr_des::golden::Row;
use accelmr_des::prelude::*;
use accelmr_des::Stats;
use accelmr_net::{Fabric, FlowDone, NetConfig, NetHandle, NodeId};

use crate::{float, obj, Json};

/// Drives `waves` shuffle waves: each wave starts every fetch at one
/// instant and the next wave begins when the last flow of the previous
/// one completes.
struct ShuffleDriver {
    net: NetHandle,
    nodes: u32,
    fanin: u32,
    bytes_base: u64,
    waves: u32,
    wave: u32,
    inflight: u64,
    completed: u64,
    next_tag: u64,
}

impl ShuffleDriver {
    fn start_wave(&mut self, ctx: &mut Ctx<'_>) {
        self.wave += 1;
        // Per-reducer size skew: flows into one reducer share a size (so
        // its incast completes together) while reducers differ, giving
        // ~nodes distinct completion instants per wave — the staggered
        // completion pattern a real sorted-run shuffle produces.
        for r in 0..self.nodes {
            let bytes = self.bytes_base + u64::from(r % 16) * (self.bytes_base / 32);
            for i in 0..self.fanin {
                let s = (r + 1 + i * 3) % self.nodes;
                let tag = self.next_tag;
                self.next_tag += 1;
                self.net.start_flow(
                    ctx,
                    NodeId(s),
                    NodeId(r),
                    bytes,
                    Some(20.0e6), // the runtime's per-stream shuffle cap
                    tag,
                );
                self.inflight += 1;
            }
        }
    }
}

impl Actor for ShuffleDriver {
    fn name(&self) -> String {
        "bench.shuffle_driver".into()
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Start => self.start_wave(ctx),
            Event::Timer { .. } => unreachable!("the shuffle driver arms no timer"),
            Event::Msg { msg } => match Inbox::decode(msg) {
                Inbox::FlowDone(_done) => {
                    self.inflight -= 1;
                    self.completed += 1;
                    if self.inflight == 0 {
                        if self.wave < self.waves {
                            self.start_wave(ctx);
                        } else {
                            ctx.stop();
                        }
                    }
                }
            },
        }
    }
}

accelmr_des::inbox! {
    /// Both drivers start flows that no node departure aborts.
    enum Inbox { FlowDone }
}

/// Sender pool of the incast scenario (the receiver is node 0).
const INCAST_SENDERS: u32 = 1024;
/// Bar on the incast's 2N/N wall ratio: linear is 2, a scan per unlink 4.
const INCAST_RATIO_BAR: f64 = 3.0;

/// Starts `flows` equal uncapped transfers into node 0 from the sender
/// pool at t=0 and stops when the last one lands. The receiver's downlink
/// is the only bottleneck, so every flow gets the same rate and they all
/// complete in one `settle_due` sweep.
struct IncastDriver {
    net: NetHandle,
    flows: u64,
    completed: u64,
}

impl Actor for IncastDriver {
    fn name(&self) -> String {
        "bench.incast_driver".into()
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Start => {
                for i in 0..self.flows {
                    let s = 1 + (i % u64::from(INCAST_SENDERS)) as u32;
                    self.net
                        .start_flow(ctx, NodeId(s), NodeId(0), 1 << 20, None, i);
                }
            }
            Event::Timer { .. } => unreachable!("the incast driver arms no timer"),
            Event::Msg { msg } => match Inbox::decode(msg) {
                Inbox::FlowDone(_done) => {
                    self.completed += 1;
                    if self.completed == self.flows {
                        ctx.stop();
                    }
                }
            },
        }
    }
}

/// `net.comp_flow_visits / net.comp_class_visits`: flows re-priced per
/// solver entry fed, over the whole run.
fn flows_per_class(stats: &Stats) -> f64 {
    stats.counter("net.comp_flow_visits") as f64 / stats.counter("net.comp_class_visits") as f64
}

/// Best-of-`REPS` wall seconds and the (identical every time) simulated
/// makespan of one incast of `flows` flows.
fn run_incast(flows: u64) -> (f64, f64) {
    const REPS: usize = 7;
    let mut best = f64::INFINITY;
    let mut makespan_s = 0.0;
    for _ in 0..REPS {
        let mut sim = Sim::new(7);
        let fabric = sim.spawn(Box::new(Fabric::new(
            NetConfig::default(),
            INCAST_SENDERS as usize + 1,
        )));
        let driver = sim.spawn(Box::new(IncastDriver {
            net: NetHandle { fabric },
            flows,
            completed: 0,
        }));
        let started = Instant::now();
        let summary = sim.run();
        best = best.min(started.elapsed().as_secs_f64());
        makespan_s = summary.end_time.as_secs_f64();
        let d = sim.actor_ref::<IncastDriver>(driver).expect("driver");
        assert_eq!(d.completed, flows);
        assert!(
            sim.stats().counter("net.solver_calls") <= 2,
            "incast must price once and finish at one instant"
        );
        assert_eq!(
            flows_per_class(sim.stats()),
            (flows / u64::from(INCAST_SENDERS)) as f64,
            "incast: every sender's flows are one class"
        );
    }
    (best, makespan_s)
}

/// The parent commit (per-flow link lists and solver entries) beside this
/// one on the machine that regenerated the section: the 1024-node shuffle
/// row's events/s, best and median of 16 runs each in two alternating
/// series of 8 (the series read 1.00 and 0.77 by best, 0.95 and 0.86 by
/// median: the host swings by more than the gap). Route classes cost the
/// one-member-per-class shuffle about a tenth at this size — cache
/// footprint, at par at 256 nodes — where they take 40-60% off the runs
/// that share routes (`churn_scale`).
fn before() -> Json {
    obj! {
        "commit" => "24a026b", "nodes" => 1024u32, "runs_each" => 16u32,
        "events_per_sec_best" => 2_384_006u64, "events_per_sec_median" => 1_691_674u64,
        "this_commit_events_per_sec_best" => 2_118_090u64,
        "this_commit_events_per_sec_median" => 1_533_037u64,
        "best_over_before" => float(0.89, 2), "median_over_before" => float(0.91, 2),
    }
}

/// Likewise for the incast: medians of the same 16 runs each (every run
/// the best of its 7 repetitions). This commit read 0.00655 / 0.01635 s.
fn incast_before() -> Json {
    obj! {
        "commit" => "24a026b", "wall_n_s" => float(0.00725, 5), "wall_2n_s" => float(0.01700, 5),
        "wall_ratio_2n_over_n" => float(2.34, 2),
    }
}

/// One shuffle size: its row, and its simulated outcome as a ledger row
/// named `net_scale.<mode>.<nodes>`.
fn run_scenario(nodes: u32, waves: u32, mode: &str) -> (Json, Row) {
    let fanin = nodes.saturating_sub(1).min(16);
    let mut sim = Sim::new(7);
    let fabric = sim.spawn(Box::new(Fabric::new(NetConfig::default(), nodes as usize)));
    let driver = sim.spawn(Box::new(ShuffleDriver {
        net: NetHandle { fabric },
        nodes,
        fanin,
        bytes_base: 8 << 20,
        waves,
        wave: 0,
        inflight: 0,
        completed: 0,
        next_tag: 0,
    }));
    let started = Instant::now();
    let summary = sim.run();
    let wall_s = started.elapsed().as_secs_f64();
    let flows = sim
        .actor_ref::<ShuffleDriver>(driver)
        .expect("driver")
        .completed;
    assert_eq!(
        flows,
        u64::from(nodes) * u64::from(fanin) * u64::from(waves)
    );
    assert_eq!(
        flows_per_class(sim.stats()),
        1.0,
        "{nodes} nodes: the shuffle rows are the one-member-per-class side"
    );
    let solver_calls = sim.stats().counter("net.solver_calls");
    let pins = vec![
        ("solver_calls", solver_calls),
        ("makespan_ns", summary.end_time.as_nanos()),
    ];
    let row = obj! {
        "nodes" => nodes,
        "flows" => flows,
        "wall_s" => float(wall_s, 4),
        "events" => summary.events,
        "events_per_sec" => float(summary.events as f64 / wall_s.max(1e-9), 0),
        "solver_calls" => solver_calls,
        "comp_class_visits" => sim.stats().counter("net.comp_class_visits"),
        // Asserted exactly above.
        "flows_per_class" => 1u32,
        "makespan_s" => float(summary.end_time.as_secs_f64(), 6),
        "queue" => super::queue_json(&sim.stats().queue()),
    };
    (row, (format!("net_scale.{mode}.{nodes}"), pins))
}

/// Runs the shuffle at every size (three waves; two under `--quick`) and
/// holds them to the golden ledger, then the two incasts.
pub fn run(quick: bool) -> Json {
    let (waves, mode, sizes): (u32, &str, &[u32]) = if quick {
        (2, "quick", &[16, 64])
    } else {
        (3, "full", &[16, 64, 256, 1024])
    };
    let (rows, pins): (Vec<Json>, Vec<Row>) = sizes
        .iter()
        .map(|&nodes| run_scenario(nodes, waves, mode))
        .unzip();
    super::goldens().check(&pins);

    // Incast: the linear-unlink bar. Same size under `--quick`: the whole
    // row costs ~0.1 s, and at 2k flows the scan it guards against is
    // still cheap enough to slip under the bar (measured 2.6 on the
    // pre-index fabric, against 3.5 at 16k).
    let incast_n: u64 = 16 << 10;
    let incast_2n = 2 * incast_n;
    let (wall_n, makespan_n) = run_incast(incast_n);
    let (wall_2n, makespan_2n) = run_incast(incast_2n);
    let incast_ratio = wall_2n / wall_n.max(1e-9);
    assert!(
        incast_ratio < INCAST_RATIO_BAR,
        "incast wall grew {incast_ratio:.2}x for 2x the flows — a per-flow linear scan is back on the completion path"
    );

    obj! { "net_scale" => obj! {
        "scenario" => format!("terasort-style shuffle, {waves} waves, fan-in min(nodes-1,16), 20 MB/s stream cap"),
        "quick" => quick,
        "before" => before(),
        "incast" => obj! {
            "flows_n" => incast_n,
            "wall_n_s" => float(wall_n, 5),
            "makespan_n_s" => float(makespan_n, 6),
            "flows_2n" => incast_2n,
            "wall_2n_s" => float(wall_2n, 5),
            "makespan_2n_s" => float(makespan_2n, 6),
            "wall_ratio_2n_over_n" => float(incast_ratio, 2),
            "ratio_bar" => float(INCAST_RATIO_BAR, 1),
            // 16 and 32: `run_incast` asserts each against the class
            // counters, which is the check CI used to grep for.
            "flows_per_class_n" => incast_n / u64::from(INCAST_SENDERS),
            "flows_per_class_2n" => incast_2n / u64::from(INCAST_SENDERS),
            "before" => incast_before(),
        },
        "runs" => rows,
    } }
}
