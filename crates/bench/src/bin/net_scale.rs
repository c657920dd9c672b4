//! net_scale — **wall-clock** benchmark of the fabric's fluid engine.
//!
//! Every other BENCH file in this repo tracks *simulated* makespans; this
//! one tracks how fast the simulator itself runs, so engine-speed
//! regressions are visible. It drives a terasort-style shuffle — waves of
//! all-at-once fetches, every reducer pulling from `k` mapper nodes with
//! per-stream caps and per-reducer size skew — at 16/64/256/1024 nodes.
//!
//! The simulated side of every row is pinned: each size's makespan (to the
//! nanosecond) and `net.solver_calls` must equal the constants in
//! [`FULL`] / [`QUICK`]. Same-instant starts coalesce into one solve and
//! re-solves stay component-local, so a whole wave costs a handful of
//! solves however many flows it carries; a fabric change that prices
//! per flow, or moves a completion, fails here. (The per-flow-event global
//! solver this engine replaced is kept as a test-only oracle in
//! `accelmr-net`; its last measured figures are the `before` object.)
//!
//! A second scenario, `incast`, guards the per-flow bookkeeping: N and then
//! 2N equal flows (N = 16,384) into one receiver, all finishing at one
//! instant — a reducer's fetch wave. Everything the fabric does for it is
//! O(flows) (one solve at the start, one settle at the end), so the 2N/N
//! wall ratio sits near 2; a linear scan per unlink makes it 4. The bench
//! asserts the ratio stays under 3: a ratio holds across machines where a
//! wall bar would not.
//!
//! Writes `BENCH_perf.json` (or `BENCH_perf.quick.json` under `--quick`,
//! which CI smoke-runs).

use std::time::Instant;

use accelmr_des::prelude::*;
use accelmr_des::QueueStats;
use accelmr_net::{Fabric, FlowDone, NetConfig, NetHandle, NodeId};

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
            Event::Msg { msg, .. } if msg.peek::<FlowDone>().is_some() => {
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
            _ => {}
        }
    }
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
            Event::Msg { msg, .. } if msg.peek::<FlowDone>().is_some() => {
                self.completed += 1;
                if self.completed == self.flows {
                    ctx.stop();
                }
            }
            _ => {}
        }
    }
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
    }
    (best, makespan_s)
}

/// Pinned simulated outcome per size: (nodes, `net.solver_calls`,
/// makespan in nanoseconds). Three waves in full mode, two under `--quick`.
const FULL: (u32, &[(u32, u64, u64)]) = (
    3,
    &[
        (16, 48, 4_139_778_048),
        (64, 48, 4_731_174_912),
        (256, 48, 4_731_174_912),
        (1024, 48, 4_731_174_912),
    ],
);
const QUICK: (u32, &[(u32, u64, u64)]) = (2, &[(16, 32, 2_759_852_032), (64, 32, 3_154_116_608)]);

struct Sample {
    nodes: u32,
    flows: u64,
    wall_s: f64,
    events: u64,
    events_per_sec: f64,
    solver_calls: u64,
    makespan: SimTime,
    queue: QueueStats,
}

fn run_scenario(nodes: u32, waves: u32) -> Sample {
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
    Sample {
        nodes,
        flows,
        wall_s,
        events: summary.events,
        events_per_sec: summary.events as f64 / wall_s.max(1e-9),
        solver_calls: sim.stats().counter("net.solver_calls"),
        makespan: summary.end_time,
        queue: sim.stats().queue(),
    }
}

fn main() {
    let quick = accelmr_bench::quick_mode();
    let (waves, pinned) = if quick { QUICK } else { FULL };

    println!("# net_scale — terasort-style shuffle waves, wall-clock");
    println!(
        "{:>6} {:>8} {:>10} {:>9} {:>13} {:>12} {:>11}",
        "nodes", "flows", "wall(s)", "events", "events/s", "solver calls", "makespan(s)"
    );

    let mut samples: Vec<Sample> = Vec::new();
    for &(n, solver_calls, makespan_ns) in pinned {
        let s = run_scenario(n, waves);
        println!(
            "{:>6} {:>8} {:>10.3} {:>9} {:>13.0} {:>12} {:>11.3}",
            s.nodes,
            s.flows,
            s.wall_s,
            s.events,
            s.events_per_sec,
            s.solver_calls,
            s.makespan.as_secs_f64()
        );
        assert_eq!(
            (s.solver_calls, s.makespan.as_nanos()),
            (solver_calls, makespan_ns),
            "{n} nodes: (solver calls, makespan ns) moved off the pinned values"
        );
        samples.push(s);
    }

    // Incast: the linear-unlink bar. Same size under `--quick`: the whole
    // row costs ~0.1 s, and at 2k flows the scan it guards against is
    // still cheap enough to slip under the bar (measured 2.6 on the
    // pre-index fabric, against 3.5 at 16k).
    let incast_n: u64 = 16 << 10;
    let incast_2n = 2 * incast_n;
    let (wall_n, makespan_n) = run_incast(incast_n);
    let (wall_2n, makespan_2n) = run_incast(incast_2n);
    let incast_ratio = wall_2n / wall_n.max(1e-9);
    println!(
        "\nincast into one receiver: {incast_n} flows {wall_n:.4} s, {incast_2n} flows {wall_2n:.4} s wall -> 2N/N ratio {incast_ratio:.2} (linear 2, bar {INCAST_RATIO_BAR})"
    );
    assert!(
        incast_ratio < INCAST_RATIO_BAR,
        "incast wall grew {incast_ratio:.2}x for 2x the flows — a per-flow linear scan is back on the completion path"
    );

    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "    {{ \"nodes\": {}, \"flows\": {}, \"wall_s\": {:.4}, \"events\": {}, \"events_per_sec\": {:.0}, \"solver_calls\": {}, \"makespan_s\": {:.6}, \"queue\": {} }}",
                s.nodes, s.flows, s.wall_s, s.events, s.events_per_sec, s.solver_calls, s.makespan.as_secs_f64(), accelmr_bench::queue_stats_json(&s.queue)
            )
        })
        .collect();
    // `before`: the per-flow-event global solver (the fabric's former
    // `Reference` mode), last measured at 5e8d4b6 on the 256-node row.
    let section = format!(
        "{{\n    \"scenario\": \"terasort-style shuffle, {waves} waves, fan-in min(nodes-1,16), 20 MB/s stream cap\",\n    \"quick\": {quick},\n    \"before\": {{ \"commit\": \"5e8d4b6\", \"engine\": \"reference\", \"nodes\": 256, \"wall_s\": 1.5853, \"solver_calls\": 12333, \"speedup_at_256_nodes\": 183.26 }},\n    \"incast\": {{ \"flows_n\": {incast_n}, \"wall_n_s\": {wall_n:.5}, \"makespan_n_s\": {makespan_n:.6}, \"flows_2n\": {incast_2n}, \"wall_2n_s\": {wall_2n:.5}, \"makespan_2n_s\": {makespan_2n:.6}, \"wall_ratio_2n_over_n\": {incast_ratio:.2}, \"ratio_bar\": {INCAST_RATIO_BAR:.1}, \"before\": {{ \"commit\": \"06c2e5f\", \"wall_n_s\": 0.0325, \"wall_2n_s\": 0.1141, \"wall_ratio_2n_over_n\": 3.51 }} }},\n    \"runs\": [\n{}\n    ]\n  }}",
        rows.join(",\n")
    );
    // Quick runs write next to the baseline, never over it: the committed
    // BENCH_perf.json always holds full-scale numbers. Each bench bin owns
    // one section of the file (churn_scale writes the other).
    let out = if quick {
        "BENCH_perf.quick.json"
    } else {
        "BENCH_perf.json"
    };
    accelmr_bench::update_bench_section(out, "net_scale", &section)
        .unwrap_or_else(|e| panic!("write {out}: {e}"));
    eprintln!("\nwrote {out} (net_scale section)");
}
