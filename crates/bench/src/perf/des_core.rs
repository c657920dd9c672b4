//! des_core — **wall-clock** microbenchmark of the event engine itself.
//!
//! The macro benches (`net_scale`, `churn_scale`) measure the simulator
//! with the full fabric/DFS/MapReduce stack on top; this one isolates the
//! `accelmr-des` core so queue regressions are attributable. Four
//! workloads, one per hot path of the event queue:
//!
//! * `timer_wheel` — thousands of staggered periodic timers rearming in
//!   place (the heartbeat shape: `Payload::Timer` is inline, the rearm
//!   path reuses the arming's slot, and the wheel absorbs the spread of
//!   deadlines).
//! * `msg_bursts` — actors fanning boxed messages out in same-instant
//!   bursts with short random hops (the shuffle shape: the `now_fifo`
//!   tier must make same-instant delivery comparison-free).
//! * `cancel_churn` — timers armed and immediately re-armed before firing
//!   (the retry/timeout shape: a cancel is one generation bump, and the
//!   stale queue entry is dropped on pop without a hash lookup).
//! * `skewed_horizon` — heartbeats at two periods (1 ms and 3 ms) beside
//!   as many one-shot timers 10^4 periods out (the long-kernel shape: a Pi
//!   map on the accelerator while the cluster heartbeats). A wheel whose
//!   bucket width follows the pending *span* puts every heartbeat inside
//!   one bucket and sorts each rearm into the middle of it; the ladder
//!   splits that bucket. Asserted as a ratio to `timer_wheel` on the same
//!   run.
//!
//! Returns the `des_core` section of `BENCH_perf.json`.

use std::time::Instant;

use accelmr_des::prelude::*;
use accelmr_des::QueueStats;

use crate::{float, obj, Json};

const TAG_TICK: u64 = 1;
const TAG_RETRY: u64 = 2;

/// Heartbeat actors in `skewed_horizon`, `--quick` included: the cost being
/// guarded is a sorted insert into a run as long as the actor count, which
/// a few hundred actors do not show.
const SKEWED_ACTORS: usize = 8_192;

/// Floor on `skewed_horizon` / `timer_wheel` events/s within one run. The
/// ladder queue measures 0.83-1.05 (full) and 0.76-0.96 (`--quick`); the
/// single span-wide wheel before it ([`before`]) 0.04-0.06 and 0.05-0.08.
const SKEWED_RATIO_BAR: f64 = 0.4;

/// The parent commit's queue under this section (median of five full runs
/// on the machine that regenerated it, events/s).
fn before() -> Json {
    obj! {
        "commit" => "5f6cbaf", "timer_wheel" => 14_967_892u64, "msg_bursts" => 3_019_367u64,
        "cancel_churn" => 7_356_188u64, "skewed_horizon" => 679_714u64,
        "skewed_over_timer_wheel" => float(0.05, 2),
    }
}

/// A heartbeat-shaped actor: one periodic timer, re-armed in place for a
/// fixed number of firings. Intervals are staggered per actor so firings
/// spread across wheel buckets instead of synchronizing.
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

/// A token forwarded around the ring; `hops` counts down to extinction.
#[derive(Debug, Clone, Copy)]
struct Token {
    hops: u32,
}

/// A shuffle-shaped actor: each received token is forwarded to a pseudo-
/// random peer, usually at the *same instant* (exercising the FIFO tier),
/// sometimes a short hop ahead (exercising near-future bucket pushes).
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
                if let Some(tok) = msg.peek::<Token>() {
                    if tok.hops == 0 {
                        return;
                    }
                    let next = Token { hops: tok.hops - 1 };
                    let to = self.peers[(ctx.rng().next_u64() as usize) % self.peers.len()];
                    // 3 of 4 hops stay at the current instant; the rest
                    // jump a few microseconds out.
                    match ctx.rng().next_u64() % 4 {
                        0 => {
                            let ahead = SimDuration::from_nanos(1 + ctx.rng().next_u64() % 4_000);
                            ctx.send_after(to, next, ahead);
                        }
                        _ => ctx.send(to, next),
                    }
                }
            }
            _ => {}
        }
    }
}

/// A timeout-shaped actor: every tick pushes a long "retry" deadline
/// further out. The reschedule bumps the slot's generation, so the
/// previously queued arming goes stale and the pop path must drop it —
/// one cancelled entry per tick, no hash lookups.
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
            Event::Timer { tag: TAG_RETRY, .. } => {
                self.retry = None;
            }
            _ => {}
        }
    }
}

/// One far-out deadline, armed at start and never touched again.
struct OneShot {
    delay: SimDuration,
}

impl Actor for OneShot {
    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        if let Event::Start = ev {
            ctx.after(self.delay, TAG_RETRY);
        }
    }
}

struct Sample {
    events_per_sec: f64,
    queue: QueueStats,
    row: Json,
}

fn finish(workload: &'static str, actors: usize, mut sim: Sim, started: Instant) -> Sample {
    let events = sim.run().events;
    let wall_s = started.elapsed().as_secs_f64();
    let events_per_sec = events as f64 / wall_s.max(1e-9);
    let queue = sim.stats().queue();
    let mut row = obj! {
        "workload" => workload,
        "actors" => actors,
        "events" => events,
        "wall_s" => float(wall_s, 4),
        "events_per_sec" => float(events_per_sec, 0),
    };
    row.extend(super::queue_json(&queue));
    Sample {
        events_per_sec,
        queue,
        row,
    }
}

fn timer_wheel(actors: usize, firings: u64) -> Sample {
    let mut sim = Sim::new(1);
    for i in 0..actors {
        sim.spawn(Box::new(TimerLoop {
            // 1 ms base with a per-actor prime-stride stagger.
            interval: SimDuration::from_nanos(1_000_000 + (i as u64 % 97) * 1_013),
            remaining: firings,
        }));
    }
    finish("timer_wheel", actors, sim, Instant::now())
}

fn skewed_horizon(actors: usize, firings: u64) -> Sample {
    let mut sim = Sim::new(4);
    for i in 0..actors as u64 {
        sim.spawn(Box::new(TimerLoop {
            // Two heartbeat periods, 1 ms and 3 ms (the DataNode / TaskTracker
            // pair), so a rearm lands among pending firings, not after them.
            interval: SimDuration::from_nanos((1 + i % 2 * 2) * 1_000_000 + (i % 97) * 1_013),
            remaining: firings,
        }));
        sim.spawn(Box::new(OneShot {
            delay: SimDuration::from_secs(10) + SimDuration::from_nanos(i * 7_919),
        }));
    }
    finish("skewed_horizon", 2 * actors, sim, Instant::now())
}

fn msg_bursts(actors: usize, fanout: u32) -> Sample {
    let mut sim = Sim::new(2);
    let ids: Vec<ActorId> = (0..actors)
        .map(|_| {
            sim.spawn(Box::new(BurstNode {
                peers: Vec::new(),
                fanout,
            }))
        })
        .collect();
    // Peer tables are installed before `run`, so every `Start` burst sees
    // the full ring.
    for &id in &ids {
        sim.actor_mut::<BurstNode>(id).expect("spawned").peers = ids.clone();
    }
    finish("msg_bursts", actors, sim, Instant::now())
}

fn cancel_churn(actors: usize, ticks: u64) -> Sample {
    let mut sim = Sim::new(3);
    for i in 0..actors {
        sim.spawn(Box::new(CancelChurn {
            interval: SimDuration::from_nanos(500_000 + (i as u64 % 61) * 997),
            remaining: ticks,
            retry: None,
        }));
    }
    finish("cancel_churn", actors, sim, Instant::now())
}

/// Runs the four workloads and holds `skewed_horizon` to its ratio bar.
pub fn run(quick: bool) -> Json {
    let (n, firings, fanout, ticks) = if quick {
        (512usize, 40u64, 4u32, 40u64)
    } else {
        (8_192usize, 200u64, 8u32, 200u64)
    };
    let samples = [
        timer_wheel(n, firings),
        msg_bursts(n, fanout),
        cancel_churn(n / 2, ticks),
        skewed_horizon(SKEWED_ACTORS, firings),
    ];
    // Workload-shape sanity: the rearm path and the cancel path must have
    // actually been exercised, or the numbers measure nothing.
    assert!(
        samples[0].queue.timer_rearms > 0,
        "timer_wheel never re-armed"
    );
    assert!(
        samples[2].queue.cancelled_drops > 0,
        "cancel_churn never dropped a stale arming"
    );

    // The far-out one-shots must not slow the heartbeats beside them: a
    // queue that sorts every rearm into one span-wide bucket fails here.
    let skewed_ratio = samples[3].events_per_sec / samples[0].events_per_sec;
    assert!(
        skewed_ratio >= SKEWED_RATIO_BAR,
        "skewed_horizon runs at {skewed_ratio:.2} of timer_wheel (bar {SKEWED_RATIO_BAR})"
    );

    obj! { "des_core" => obj! {
        "scenario" => "engine-only: staggered periodic timers, same-instant message bursts, cancel-heavy retries, heartbeats beside far-out one-shots",
        "quick" => quick,
        "skewed_over_timer_wheel" => float(skewed_ratio, 2),
        "ratio_bar" => float(SKEWED_RATIO_BAR, 1),
        "before" => before(),
        "runs" => samples.map(|s| s.row).to_vec(),
    } }
}
