//! des_core — **wall-clock** microbenchmark of the event engine itself.
//!
//! The macro benches (`net_scale`, `churn_scale`) measure the simulator
//! with the full fabric/DFS/MapReduce stack on top; this one isolates the
//! `accelmr-des` core so queue regressions are attributable. Two
//! workloads, both timer-driven (the benchmark package's
//! `des.probe.msg_events_per_sec` and `des.probe.cancel_events_per_sec`
//! time the same-instant message and cancel-heavy shapes on every run):
//!
//! * `timer_wheel` — thousands of staggered periodic timers rearming in
//!   place (the heartbeat shape: `Payload::Timer` is inline, the rearm
//!   path reuses the arming's slot, and the wheel absorbs the spread of
//!   deadlines).
//! * `skewed_horizon` — heartbeats at two periods (1 ms and 3 ms) beside
//!   as many one-shot timers 10^4 periods out (the long-kernel shape: a Pi
//!   map on the accelerator while the cluster heartbeats). A wheel whose
//!   bucket width follows the pending *span* puts every heartbeat inside
//!   one bucket and sorts each rearm into the middle of it; the ladder
//!   splits that bucket. Asserted as a ratio to `timer_wheel` on the same
//!   run, and on the item slots its ladder held per pending event (a
//!   count, so the same on every host).
//!
//! `timer_wheel` at full size is also the `perf` binary's calibration
//! (read through [`super::calibration`]): the unit every
//! host-speed bar is stated in.
//!
//! Returns the `des_core` section of `BENCH_perf.json`.

use std::time::Instant;

use accelmr_des::prelude::*;
use accelmr_des::QueueStats;

use crate::{float, obj, Json};

const TAG_TICK: u64 = 1;
const TAG_ONE_SHOT: u64 = 2;

/// Actors and firings of a full-size run. The calibration is full-size
/// under `--quick` too, and `skewed_horizon` keeps the full actor count:
/// the cost it guards is a sorted insert into a run as long as the actor
/// count, which a few hundred actors do not show.
const FULL: (usize, u64) = (8_192, 200);

/// Floor on `skewed_horizon` / `timer_wheel` events/s within one run. The
/// ladder queue measures 0.83-1.05 (full) and 0.76-0.96 (`--quick`); the
/// single span-wide wheel before it ([`before`]) 0.04-0.06 and 0.05-0.08.
const SKEWED_RATIO_BAR: f64 = 0.4;

/// Bar on `skewed_horizon`'s `peak_slots / peak_depth`: the item slots the
/// queue held per pending event, at most. With its buckets in chunks the
/// ladder reads 3.3 (full and `--quick`); each non-empty bucket holds at
/// least one chunk of 32 slots. With a `Vec` per bucket it read 5.6 and
/// 5.1 when emptied storage went to a spare list, and 35.7 and 19.8 when
/// every bucket kept its storage ([`slots_before`]), growing with every
/// rung-0 bucket the run passes.
const SLOTS_PER_PENDING_BAR: u64 = 8;

/// `skewed_horizon`'s `peak_slots` before the spare list, when every bucket
/// kept the storage it once grew to: commit `ed25fd3`'s ladder with only
/// the slot counter added (a count, host-independent).
fn slots_before(quick: bool) -> Json {
    let (peak_slots, over) = if quick {
        (324_656u64, 19.82)
    } else {
        (584_816, 35.69)
    };
    obj! {
        "commit" => "ed25fd3", "skewed_horizon_peak_slots" => peak_slots,
        "slots_over_peak_depth" => float(over, 2),
    }
}

/// The parent commit's queue under this section (median of five full runs
/// on the machine that regenerated it, events/s).
fn before() -> Json {
    obj! {
        "commit" => "5f6cbaf", "timer_wheel" => 14_967_892u64, "skewed_horizon" => 679_714u64,
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

/// One far-out deadline, armed at start and never touched again.
struct OneShot {
    delay: SimDuration,
}

impl Actor for OneShot {
    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        if let Event::Start = ev {
            ctx.after(self.delay, TAG_ONE_SHOT);
        }
    }
}

struct Sample {
    events_per_sec: f64,
    queue: QueueStats,
    row: Json,
}

fn finish(workload: &'static str, actors: usize, mut sim: Sim) -> Sample {
    let started = Instant::now();
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
    finish("timer_wheel", actors, sim)
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
    finish("skewed_horizon", 2 * actors, sim)
}

/// The median events/s of three full-size `timer_wheel` runs: the host's
/// pace on the engine's cheapest event ([`super::calibration`]).
pub(super) fn calibrate() -> f64 {
    let mut rates = [(); 3].map(|_| timer_wheel(FULL.0, FULL.1).events_per_sec);
    rates.sort_by(f64::total_cmp);
    rates[1]
}

/// Runs the two workloads and holds `skewed_horizon` to its ratio and slot
/// bars.
pub fn run(quick: bool) -> Json {
    let (n, firings) = if quick { (512, 40) } else { FULL };
    let samples = [timer_wheel(n, firings), skewed_horizon(FULL.0, firings)];
    // Workload-shape sanity: the rearm path must have actually been
    // exercised, or the numbers measure nothing.
    assert!(
        samples[0].queue.timer_rearms > 0,
        "timer_wheel never re-armed"
    );

    // The far-out one-shots must not slow the heartbeats beside them: a
    // queue that sorts every rearm into one span-wide bucket fails here.
    let skewed_ratio = samples[1].events_per_sec / samples[0].events_per_sec;
    assert!(
        skewed_ratio >= SKEWED_RATIO_BAR,
        "skewed_horizon runs at {skewed_ratio:.2} of timer_wheel (bar {SKEWED_RATIO_BAR})"
    );
    // Queue storage follows the pending events: a ladder whose buckets keep
    // their peak storage epoch after epoch fails here.
    let q = &samples[1].queue;
    assert!(
        q.peak_slots <= SLOTS_PER_PENDING_BAR * q.peak_depth,
        "skewed_horizon's queue held {} slots for {} pending events (bar {SLOTS_PER_PENDING_BAR}x)",
        q.peak_slots,
        q.peak_depth
    );
    let slots_ratio = q.peak_slots as f64 / q.peak_depth as f64;

    obj! { "des_core" => obj! {
        "scenario" => "engine-only: staggered periodic timers, heartbeats beside far-out one-shots",
        "quick" => quick,
        "skewed_over_timer_wheel" => float(skewed_ratio, 2),
        "ratio_bar" => float(SKEWED_RATIO_BAR, 1),
        "skewed_slots_over_peak_depth" => float(slots_ratio, 2),
        "slots_bar" => SLOTS_PER_PENDING_BAR,
        "before" => before(),
        "slots_before" => slots_before(quick),
        "runs" => samples.map(|s| s.row).to_vec(),
    } }
}
