//! Probes: the library layers' public functions timed directly, on the
//! record shapes the workloads feed them. They answer "did this layer get
//! faster or slower on its own" when a workload's end-to-end number moves.
//!
//! Every probe reports the median of three timings of a fixed amount of
//! work. The simulated figures of the `cellbe` / `cellmr` probes carry no
//! error against the paper: the repo holds no machine-readable reference,
//! so the model is unvalidated here.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use accelmr_cellbe::{AesCtrSpeKernel, CellConfig, CellMachine, DataInput, PiSpeKernel};
use accelmr_cellmr::{CellMrConfig, CellMrRuntime};
use accelmr_des::prelude::*;
use accelmr_hybrid::{job_key, JOB_NONCE};
use accelmr_kernels::aes::modes::ctr_xor;
use accelmr_kernels::pi::{count_inside_auto, AUTO_EXACT_LIMIT};
use accelmr_kernels::sort::{generate_records, radix_sort};
use accelmr_kernels::{checksum, fill_deterministic, AesImpl, SortRecord};
use accelmr_net::{Fabric, FlowDone, NetConfig, NetHandle, NodeId};

use crate::ledger::Ledger;

/// Record shape of `encrypt_functional`: 2 MiB records, 4 KB SPU blocks.
const RECORD: usize = 2 << 20;
const SPU_BLOCK: usize = 4096;

/// Median host seconds of three calls, with the last call's result.
fn time3<T>(mut work: impl FnMut() -> T) -> (f64, T) {
    let mut times = [0.0; 3];
    let mut last = None;
    for t in &mut times {
        let started = Instant::now();
        last = Some(black_box(work()));
        *t = started.elapsed().as_secs_f64();
    }
    times.sort_by(f64::total_cmp);
    (times[1], last.expect("three calls were made"))
}

/// Runs every probe. `seed` feeds the record contents and RNG streams.
pub fn run(seed: u64) -> Ledger {
    let mut l = Ledger::default();
    des_probes(&mut l);
    net_probe(&mut l);
    cell_probes(&mut l, seed);
    kernel_probes(&mut l, seed);
    l
}

// ------------------------------------------------------------------ des

const TAG_TICK: u64 = 1;
const TAG_RETRY: u64 = 2;

/// Heartbeat shape: one periodic timer re-armed in place.
struct TimerLoop {
    interval: SimDuration,
    remaining: u64,
}

impl Actor for TimerLoop {
    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Start => {
                ctx.after(self.interval, TAG_TICK);
            }
            Event::Timer { tag: TAG_TICK, .. } => {
                self.remaining -= 1;
                if self.remaining > 0 {
                    ctx.rearm_after(self.interval, TAG_TICK);
                }
            }
            _ => {}
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Token {
    hops: u32,
}

/// Shuffle shape: boxed messages forwarded to random peers, three of four
/// at the same instant.
struct BurstNode {
    peers: Vec<ActorId>,
    fanout: u32,
}

impl Actor for BurstNode {
    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Start => {
                for _ in 0..self.fanout {
                    let to = self.peers[(ctx.rng().next_u64() as usize) % self.peers.len()];
                    ctx.send(to, Token { hops: 40 });
                }
            }
            Event::Msg { msg, .. } => {
                let Some(tok) = msg.peek::<Token>() else {
                    return;
                };
                if tok.hops == 0 {
                    return;
                }
                let next = Token { hops: tok.hops - 1 };
                let to = self.peers[(ctx.rng().next_u64() as usize) % self.peers.len()];
                if ctx.rng().next_u64().is_multiple_of(4) {
                    let ahead = SimDuration::from_nanos(1 + ctx.rng().next_u64() % 4_000);
                    ctx.send_after(to, next, ahead);
                } else {
                    ctx.send(to, next);
                }
            }
            _ => {}
        }
    }
}

/// Timeout shape: every tick pushes a long retry deadline further out, so
/// one stale arming is dropped per tick.
struct CancelChurn {
    interval: SimDuration,
    remaining: u64,
    retry: Option<TimerHandle>,
}

impl Actor for CancelChurn {
    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Start => {
                ctx.after(self.interval, TAG_TICK);
            }
            Event::Timer { tag: TAG_TICK, .. } => {
                self.remaining -= 1;
                let deadline = ctx.now() + self.interval * 8;
                self.retry = Some(match self.retry {
                    Some(h) => ctx.reschedule_at(h, deadline, TAG_RETRY),
                    None => ctx.after_at(deadline, TAG_RETRY),
                });
                if self.remaining > 0 {
                    ctx.rearm_after(self.interval, TAG_TICK);
                }
            }
            Event::Timer { tag: TAG_RETRY, .. } => self.retry = None,
            _ => {}
        }
    }
}

/// The three `des_core` shapes at half its actor count: engine only.
fn des_probes(l: &mut Ledger) {
    const ACTORS: usize = 4096;
    let events_per_sec = |build: &dyn Fn() -> Sim| {
        let (secs, events) = time3(|| build().run().events);
        events as f64 / secs
    };
    l.set(
        "des.probe.timer_events_per_sec",
        events_per_sec(&|| {
            let mut sim = Sim::new(1);
            for i in 0..ACTORS {
                sim.spawn(Box::new(TimerLoop {
                    interval: SimDuration::from_nanos(1_000_000 + (i as u64 % 97) * 1_013),
                    remaining: 200,
                }));
            }
            sim
        }),
    );
    l.set(
        "des.probe.msg_events_per_sec",
        events_per_sec(&|| {
            let mut sim = Sim::new(2);
            let ids: Vec<ActorId> = (0..ACTORS)
                .map(|_| {
                    sim.spawn(Box::new(BurstNode {
                        peers: Vec::new(),
                        fanout: 4,
                    }))
                })
                .collect();
            for &id in &ids {
                sim.actor_mut::<BurstNode>(id).expect("spawned").peers = ids.clone();
            }
            sim
        }),
    );
    l.set(
        "des.probe.cancel_events_per_sec",
        events_per_sec(&|| {
            let mut sim = Sim::new(3);
            for i in 0..ACTORS / 2 {
                sim.spawn(Box::new(CancelChurn {
                    interval: SimDuration::from_nanos(500_000 + (i as u64 % 61) * 997),
                    remaining: 200,
                    retry: None,
                }));
            }
            sim
        }),
    );
}

// ------------------------------------------------------------------ net

/// The `net_scale` driver: waves of all-at-once fetches, every reducer
/// pulling from 16 mapper nodes with a per-stream cap and size skew.
struct ShuffleDriver {
    net: NetHandle,
    nodes: u32,
    waves_left: u32,
    inflight: u64,
    next_tag: u64,
}

impl ShuffleDriver {
    fn start_wave(&mut self, ctx: &mut Ctx<'_>) {
        self.waves_left -= 1;
        const BASE: u64 = 8 << 20;
        for r in 0..self.nodes {
            let bytes = BASE + u64::from(r % 16) * (BASE / 32);
            for i in 0..16 {
                let s = (r + 1 + i * 3) % self.nodes;
                self.net.start_flow(
                    ctx,
                    NodeId(s),
                    NodeId(r),
                    bytes,
                    Some(20.0e6),
                    self.next_tag,
                );
                self.next_tag += 1;
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
                if self.inflight == 0 {
                    if self.waves_left > 0 {
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

/// Three shuffle waves over 1024 nodes on the production fluid engine.
fn net_probe(l: &mut Ledger) {
    const NODES: u32 = 1024;
    let (secs, (events, solver_calls, makespan_s)) = time3(|| {
        let mut sim = Sim::new(7);
        let fabric = sim.spawn(Box::new(Fabric::new(NetConfig::default(), NODES as usize)));
        sim.spawn(Box::new(ShuffleDriver {
            net: NetHandle { fabric },
            nodes: NODES,
            waves_left: 3,
            inflight: 0,
            next_tag: 0,
        }));
        let summary = sim.run();
        (
            summary.events,
            sim.stats().counter("net.solver_calls"),
            summary.end_time.as_secs_f64(),
        )
    });
    l.set("net.probe.shuffle_events_per_sec", events as f64 / secs);
    l.set("net.probe.shuffle_solver_calls", solver_calls as f64);
    l.set("net.probe.shuffle_makespan_s", makespan_s);
}

// ------------------------------------------------------- cellbe / cellmr

fn cell_probes(l: &mut Ledger, seed: u64) {
    let mut record = vec![0u8; RECORD];
    fill_deterministic(seed, 0, &mut record);
    let kernel = AesCtrSpeKernel::new(job_key(), JOB_NONCE);
    let mb = RECORD as f64 / 1e6;

    let mut machine = CellMachine::new(CellConfig::default(), true).expect("default config");
    machine.warm_up();
    let (secs, report) = time3(|| {
        machine
            .run_data(DataInput::Real(&record), &kernel, SPU_BLOCK)
            .expect("4 KB blocks are valid")
    });
    l.set("cellbe.run_data.host_mb_per_s", mb / secs);
    l.set(
        "cellbe.run_data.sim_mb_per_s",
        report.throughput_bps() / 1e6,
    );
    l.set("cellbe.run_data.dma_requests", report.dma_requests as f64);
    l.set(
        "cellbe.run_data.spe_utilization",
        report.mean_spe_utilization(),
    );

    // At the limit each SPE draws real samples: this times the sampling
    // path the workloads are sized to stay out of.
    let samples = 8 * AUTO_EXACT_LIMIT / 4;
    let pi = PiSpeKernel::new(seed, 0);
    let (secs, _) = time3(|| machine.run_compute(samples, &pi));
    l.set(
        "cellbe.run_compute.host_msamples_per_s",
        samples as f64 / 1e6 / secs,
    );

    let mut framework = CellMrRuntime::new(CellConfig::default(), CellMrConfig::default(), true)
        .expect("default config");
    framework.machine_mut().warm_up();
    let (secs, (_, report)) = time3(|| {
        framework
            .run_map(DataInput::Real(&record), &kernel)
            .expect("default framework config is valid")
    });
    l.set("cellmr.run_map.host_mb_per_s", mb / secs);
    l.set(
        "cellmr.run_map.sim_mb_per_s",
        report.throughput_bps(RECORD as u64) / 1e6,
    );
}

// -------------------------------------------------------------- kernels

fn kernel_probes(l: &mut Ledger, seed: u64) {
    const LEN: usize = 4 * RECORD;
    let mb = LEN as f64 / 1e6;
    let mut buf = vec![0u8; LEN];

    let (secs, ()) = time3(|| fill_deterministic(seed, 0, &mut buf));
    l.set("kernels.fill.host_mb_per_s", mb / secs);
    let (secs, _) = time3(|| checksum(&buf));
    l.set("kernels.checksum.host_mb_per_s", mb / secs);
    let key: Arc<_> = job_key();
    let (secs, ()) = time3(|| ctr_xor(&key, AesImpl::TTable, JOB_NONCE, 0, &mut buf));
    l.set("kernels.aes_ctr.host_mb_per_s", mb / secs);

    let records = generate_records(seed, 0, LEN / SortRecord::BYTES);
    let (secs, ()) = time3(|| radix_sort(&mut records.clone()));
    l.set("kernels.sort.host_mb_per_s", mb / secs);

    let samples = AUTO_EXACT_LIMIT;
    let (secs, _) = time3(|| count_inside_auto(seed, 0, samples));
    l.set(
        "kernels.pi.host_msamples_per_s",
        samples as f64 / 1e6 / secs,
    );
}
