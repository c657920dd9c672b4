//! The discrete-event engine.
//!
//! [`Sim`] owns a priority queue of pending events and a registry of actors.
//! Execution is strictly sequential and deterministic: events fire in
//! `(time, insertion-sequence)` order, so two runs from the same seed replay
//! identically — a property the test suite asserts via trace fingerprints.

use crate::actor::{Actor, ActorId, Event, Msg, TimerHandle};
use crate::queue::{Ladder, Payload, Queued};
use crate::rng::Xoshiro256;
use crate::stats::Stats;
use crate::time::{SimDuration, SimTime};
use crate::trace::Trace;

struct Slot {
    actor: Option<Box<dyn Actor>>,
    /// Actor-class row id in [`Stats`] (interned at spawn from the name up
    /// to the first `@`), charged per event when profiling is enabled.
    class: u32,
}

pub(crate) struct SimCore {
    now: SimTime,
    seq: u64,
    queue: Ladder<Queued>,
    /// Current generation of each timer slot. A queued firing carries the
    /// generation it was armed with; a mismatch at pop time means the
    /// timer was cancelled or rescheduled — the entry is dropped without a
    /// hash lookup (the old design kept a tombstone hash set).
    timer_gens: Vec<u32>,
    /// Slots whose timers fired or were cancelled, ready for reuse.
    timer_free: Vec<u32>,
    /// While a timer event dispatches: its slot, until the handler rearms
    /// it in place ([`Ctx::rearm_after`]) or the dispatcher frees it.
    fired_slot: Option<u32>,
    rng: Xoshiro256,
    stats: Stats,
    stop_requested: bool,
    trace: Trace,
    events_processed: u64,
    event_limit: u64,
    /// When set, [`Sim`] times every `Actor::handle` call and charges it to
    /// the actor's class row in [`Stats::actor_costs`]. Off by default: the
    /// measurement is host wall time, read-only for the simulation, and the
    /// flag keeps the branch out of unprofiled dispatch.
    profiling: bool,
    /// Under profiling: the host instant the running handler's current
    /// lap began at ([`Ctx::lap`]). Never written, so always `None`, when
    /// profiling is off.
    lap_from: Option<std::time::Instant>, // audit:allow(wall-clock): profiling state, written only beside the two clock reads below
}

impl SimCore {
    fn push(&mut self, at: SimTime, target: ActorId, payload: Payload) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Queued {
            at,
            seq,
            target,
            payload,
        });
        let qs = self.stats.queue_mut();
        qs.pushes += 1;
        qs.peak_depth = qs.peak_depth.max(self.queue.len() as u64);
    }

    /// Registers `actor` in `actors` under the class its name names and
    /// queues its [`Event::Start`] at the current instant.
    fn spawn(&mut self, actors: &mut Vec<Slot>, actor: Box<dyn Actor>) -> ActorId {
        let id = ActorId(u32::try_from(actors.len()).expect("too many actors"));
        let class = self.stats.intern_actor_class(actor_class_of(&actor.name()));
        actors.push(Slot {
            actor: Some(actor),
            class,
        });
        self.push(self.now, id, Payload::Start);
        id
    }

    /// Grabs a free timer slot (or mints a new one) at its current
    /// generation.
    fn alloc_timer(&mut self) -> (u32, u32) {
        match self.timer_free.pop() {
            Some(slot) => (slot, self.timer_gens[slot as usize]),
            None => {
                let slot = u32::try_from(self.timer_gens.len()).expect("too many timers");
                self.timer_gens.push(0);
                self.stats.queue_mut().timer_slots = self.timer_gens.len() as u64;
                (slot, 0)
            }
        }
    }

    fn arm_timer(&mut self, at: SimTime, target: ActorId, tag: u64) -> TimerHandle {
        let (slot, gen) = self.alloc_timer();
        self.push(at, target, Payload::Timer { slot, gen, tag });
        TimerHandle::pack(slot, gen)
    }

    /// The profiled half of [`Ctx::lap`], kept out of line so an
    /// unprofiled call site is a test and a skipped call.
    #[cold]
    fn end_lap(&mut self, name: &'static str) {
        let now = std::time::Instant::now(); // audit:allow(wall-clock): opt-in per-phase cost profiling; read-only for the simulation
        if let Some(from) = self.lap_from.replace(now) {
            let nanos = u64::try_from((now - from).as_nanos()).unwrap_or(u64::MAX);
            self.stats.charge_lap(name, nanos);
        }
    }
}

impl TimerHandle {
    #[inline]
    pub(crate) fn pack(slot: u32, gen: u32) -> Self {
        TimerHandle((u64::from(gen) << 32) | u64::from(slot))
    }

    #[inline]
    pub(crate) fn unpack(self) -> (u32, u32) {
        (self.0 as u32, (self.0 >> 32) as u32)
    }
}

/// Summary returned by [`Sim::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunSummary {
    /// Simulated instant at which the run stopped.
    pub end_time: SimTime,
    /// Number of events dispatched to actors.
    pub events: u64,
}

/// The simulation world: actor registry + event queue + clock.
pub struct Sim {
    core: SimCore,
    actors: Vec<Slot>,
}

impl Sim {
    /// Creates an empty simulation seeded for deterministic randomness.
    pub fn new(seed: u64) -> Self {
        Sim {
            core: SimCore {
                now: SimTime::ZERO,
                seq: 0,
                queue: Ladder::new(),
                timer_gens: Vec::new(),
                timer_free: Vec::new(),
                fired_slot: None,
                rng: Xoshiro256::seed_from_u64(seed),
                stats: Stats::new(),
                stop_requested: false,
                trace: Trace::default(),
                events_processed: 0,
                event_limit: u64::MAX,
                profiling: false,
                lap_from: None,
            },
            actors: Vec::new(),
        }
    }

    /// Registers an actor; it receives [`Event::Start`] at the current time.
    pub fn spawn(&mut self, actor: Box<dyn Actor>) -> ActorId {
        self.core.spawn(&mut self.actors, actor)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Injects a message from the harness.
    pub fn post(&mut self, to: ActorId, msg: Box<dyn Msg>) {
        self.post_after(to, msg, SimDuration::ZERO);
    }

    /// Injects a message that arrives after `delay`.
    pub fn post_after(&mut self, to: ActorId, msg: Box<dyn Msg>, delay: SimDuration) {
        self.core
            .push(self.core.now + delay, to, Payload::Msg { msg });
    }

    /// Read access to collected metrics.
    pub fn stats(&self) -> &Stats {
        &self.core.stats
    }

    /// Borrows the concrete state of the actor registered under `id`.
    ///
    /// Returns `None` when the actor is dead (killed) or is not a `T`.
    /// This is the supported way for harnesses and tests to read an
    /// actor's fields after (or between) [`Sim::run`] calls — no shared
    /// cells or wrapper actors needed.
    pub fn actor_ref<T: Actor>(&self, id: ActorId) -> Option<&T> {
        let actor = self.actors.get(id.index())?.actor.as_deref()?;
        (actor as &dyn core::any::Any).downcast_ref::<T>()
    }

    /// Mutably borrows the concrete state of the actor registered under
    /// `id`; see [`Sim::actor_ref`].
    pub fn actor_mut<T: Actor>(&mut self, id: ActorId) -> Option<&mut T> {
        let actor = self.actors.get_mut(id.index())?.actor.as_deref_mut()?;
        (actor as &mut dyn core::any::Any).downcast_mut::<T>()
    }

    /// Enables per-actor-class event-cost profiling: every subsequent
    /// `Actor::handle` call is timed (host wall clock) and charged to the
    /// actor's class row, readable via [`Stats::actor_costs`]. The
    /// measurement never feeds back into the simulation — event order,
    /// simulated time, and trace fingerprints are identical with or
    /// without it; only dispatch pays one clock read per event.
    pub fn enable_profiling(&mut self) {
        self.core.profiling = true;
    }

    /// Enables event tracing with bounded storage.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.core.trace.enable(capacity);
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.core.trace
    }

    /// Caps the number of dispatched events; [`Sim::run`] stops once reached.
    /// Guards tests against accidental event storms.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.core.event_limit = limit;
    }

    /// Runs until the queue empties, an actor calls `Ctx::stop`, or the
    /// event limit is hit.
    pub fn run(&mut self) -> RunSummary {
        self.run_until(SimTime::MAX)
    }

    /// Runs until `deadline` (events at exactly `deadline` still fire).
    /// The clock is left at `min(deadline, time of last event)`.
    ///
    /// A `Ctx::stop` requested during a previous run only ended that run;
    /// each call starts afresh, so a simulation can be resumed (e.g. to
    /// submit more jobs after a driver stopped the world).
    pub fn run_until(&mut self, deadline: SimTime) -> RunSummary {
        self.core.stop_requested = false;
        while !self.core.stop_requested && self.core.events_processed < self.core.event_limit {
            match self.core.queue.peek() {
                None => break,
                Some(q) if q.at > deadline => {
                    self.core.now = deadline;
                    break;
                }
                Some(_) => {}
            }
            self.dispatch_one();
        }
        self.core.queue.report(self.core.stats.queue_mut());
        RunSummary {
            end_time: self.core.now,
            events: self.core.events_processed,
        }
    }

    /// Dispatches exactly one event; returns `false` when the queue is empty
    /// or the simulation was stopped.
    pub fn step(&mut self) -> bool {
        if self.core.stop_requested || self.core.queue.is_empty() {
            return false;
        }
        self.dispatch_one();
        self.core.queue.report(self.core.stats.queue_mut());
        true
    }

    fn dispatch_one(&mut self) {
        let Some(q) = self.core.queue.pop() else {
            return;
        };
        debug_assert!(q.at >= self.core.now, "event scheduled in the past");
        self.core.now = q.at;

        // Drop cancelled timers and events for dead actors without charging
        // them against the event budget. A stale generation means the
        // arming was cancelled or rescheduled after this entry was queued.
        let mut timer_slot = None;
        if let Payload::Timer { slot, gen, .. } = q.payload {
            if self.core.timer_gens.get(slot as usize) != Some(&gen) {
                self.core.stats.queue_mut().cancelled_drops += 1;
                return;
            }
            timer_slot = Some(slot);
        }
        let retire_timer = |core: &mut SimCore| {
            // The arming is spent: bump the generation (invalidating the
            // handle) and recycle the slot.
            if let Some(slot) = timer_slot {
                core.timer_gens[slot as usize] = core.timer_gens[slot as usize].wrapping_add(1);
                core.timer_free.push(slot);
            }
        };
        let Some(slot) = self.actors.get_mut(q.target.index()) else {
            self.core.stats.queue_mut().dead_actor_drops += 1;
            retire_timer(&mut self.core);
            return;
        };
        let Some(mut actor) = slot.actor.take() else {
            self.core.stats.queue_mut().dead_actor_drops += 1;
            retire_timer(&mut self.core);
            return;
        };
        let actor_class = slot.class;

        let ev = match q.payload {
            Payload::Start => Event::Start,
            Payload::Timer { slot, gen, tag } => Event::Timer {
                handle: TimerHandle::pack(slot, gen),
                tag,
            },
            Payload::Msg { msg } => Event::Msg { msg },
        };
        // `label()` is a virtual call per message: only pay it when traced.
        if self.core.trace.is_enabled() {
            self.core.trace.record(q.at, q.target, ev.label());
        }
        self.core.events_processed += 1;

        // Advance the firing timer's generation *before* the handler runs:
        // the in-flight handle is now stale (cancelling it is a no-op) and
        // the slot is ready for an in-place rearm.
        if let Some(slot) = timer_slot {
            self.core.timer_gens[slot as usize] =
                self.core.timer_gens[slot as usize].wrapping_add(1);
            self.core.fired_slot = Some(slot);
        }

        // Host-clock read for opt-in profiling only: the measurement is
        // write-only into `Stats` and never influences event order or
        // simulated time.
        let handle_started = if self.core.profiling {
            self.core.lap_from = Some(std::time::Instant::now()); // audit:allow(wall-clock): opt-in per-actor cost profiling; read-only for the simulation
            self.core.lap_from
        } else {
            None
        };
        let mut ctx = Ctx {
            core: &mut self.core,
            actors: &mut self.actors,
            self_id: q.target,
            kill_self: false,
        };
        actor.handle(&mut ctx, ev);
        let killed = ctx.kill_self;
        if let Some(t0) = handle_started {
            let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.core.stats.charge_actor_cost(actor_class, nanos);
        }

        // Slot not consumed by a rearm: recycle it.
        if let Some(slot) = self.core.fired_slot.take() {
            self.core.timer_free.push(slot);
        }
        if !killed {
            // The slot may have moved if `actors` reallocated during spawn,
            // but the index is stable.
            self.actors[q.target.index()].actor = Some(actor);
        }
    }
}

/// The profiling class of an actor name: everything before the first `@`,
/// so per-node actors (`"mr.tasktracker@17"`) collapse into one class.
fn actor_class_of(name: &str) -> &str {
    name.split('@').next().unwrap_or(name)
}

/// Capability handle passed to [`Actor::handle`]: everything an actor may do
/// to the world (send, arm timers, spawn, stop, randomness, metrics).
pub struct Ctx<'a> {
    core: &'a mut SimCore,
    actors: &'a mut Vec<Slot>,
    self_id: ActorId,
    kill_self: bool,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The id of the actor handling this event.
    #[inline]
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Sends `msg` to `to`, delivered at the current instant (after all
    /// events already queued for this instant — FIFO among equal times).
    pub fn send(&mut self, to: ActorId, msg: impl Msg) {
        self.send_after(to, msg, SimDuration::ZERO);
    }

    /// Sends `msg` to `to` with an explicit delivery delay.
    pub fn send_after(&mut self, to: ActorId, msg: impl Msg, delay: SimDuration) {
        self.send_boxed(to, Box::new(msg), delay);
    }

    /// Sends a pre-boxed message (avoids re-boxing when forwarding).
    pub fn send_boxed(&mut self, to: ActorId, msg: Box<dyn Msg>, delay: SimDuration) {
        self.core
            .push(self.core.now + delay, to, Payload::Msg { msg });
    }

    /// Arms a one-shot timer for this actor. The firing event carries `tag`.
    pub fn after(&mut self, delay: SimDuration, tag: u64) -> TimerHandle {
        let at = self.core.now + delay;
        self.core.arm_timer(at, self.self_id, tag)
    }

    /// Arms a one-shot timer that fires at the absolute instant `at`
    /// (clamped to the current instant if `at` is in the past). Useful for
    /// schedulers that track deadlines rather than delays — re-arming at an
    /// unchanged deadline can then be skipped entirely (timer reuse) instead
    /// of paying a cancel + re-insert per event ([`Ctx::reschedule_at`] is
    /// the moving-deadline counterpart).
    pub fn after_at(&mut self, at: SimTime, tag: u64) -> TimerHandle {
        let at = at.max(self.core.now);
        self.core.arm_timer(at, self.self_id, tag)
    }

    /// Rearms the timer whose firing is *currently being handled*, reusing
    /// its slot in place — the periodic-timer fast path (heartbeats,
    /// liveness sweeps): no slot churn, no cancel + re-insert. Dispatch
    /// order is identical to calling [`Ctx::after`] at the same point in
    /// the handler (the queue entry gets the same sequence number); only
    /// the slot bookkeeping differs. Falls back to a fresh arming when the
    /// current event is not a timer firing.
    pub fn rearm_after(&mut self, delay: SimDuration, tag: u64) -> TimerHandle {
        let at = self.core.now + delay;
        match self.core.fired_slot.take() {
            Some(slot) => {
                self.core.stats.queue_mut().timer_rearms += 1;
                let gen = self.core.timer_gens[slot as usize];
                self.core
                    .push(at, self.self_id, Payload::Timer { slot, gen, tag });
                TimerHandle::pack(slot, gen)
            }
            None => self.core.arm_timer(at, self.self_id, tag),
        }
    }

    /// Moves a pending timer to the absolute instant `at` (clamped to the
    /// current instant), reusing its slot: equivalent to — and dispatch-
    /// order-identical with — `cancel_timer` + [`Ctx::after_at`], without
    /// the tombstone bookkeeping. If `handle` already fired or was
    /// cancelled, this is just a fresh arming.
    pub fn reschedule_at(&mut self, handle: TimerHandle, at: SimTime, tag: u64) -> TimerHandle {
        let at = at.max(self.core.now);
        let (slot, gen) = handle.unpack();
        if self.core.timer_gens.get(slot as usize) == Some(&gen) {
            // Invalidate the pending entry (it will surface as a
            // cancelled drop) and re-arm the same slot one generation up.
            let gen = gen.wrapping_add(1);
            self.core.timer_gens[slot as usize] = gen;
            self.core.stats.queue_mut().timer_rearms += 1;
            self.core
                .push(at, self.self_id, Payload::Timer { slot, gen, tag });
            TimerHandle::pack(slot, gen)
        } else {
            self.core.arm_timer(at, self.self_id, tag)
        }
    }

    /// Arms a zero-delay timer: the firing is queued *behind* every event
    /// already scheduled for the current instant, so the actor wakes up
    /// after its same-instant inbox has drained. This is the deferred-wakeup
    /// primitive batch-processing actors (e.g. the network fabric) use to
    /// coalesce a burst of same-instant requests into one unit of work.
    pub fn defer(&mut self, tag: u64) -> TimerHandle {
        self.after(SimDuration::ZERO, tag)
    }

    /// Cancels a timer armed with [`Ctx::after`]; harmless if already fired.
    pub fn cancel_timer(&mut self, handle: TimerHandle) {
        let (slot, gen) = handle.unpack();
        if self.core.timer_gens.get(slot as usize) == Some(&gen) {
            // Invalidate the pending queue entry (dropped at pop, no hash
            // tombstone) and recycle the slot immediately.
            self.core.timer_gens[slot as usize] = gen.wrapping_add(1);
            self.core.timer_free.push(slot);
        }
    }

    /// Spawns a new actor mid-run; it receives [`Event::Start`] at the
    /// current instant.
    pub fn spawn(&mut self, actor: Box<dyn Actor>) -> ActorId {
        self.core.spawn(self.actors, actor)
    }

    /// Permanently removes an actor. Pending events addressed to it are
    /// silently dropped. An actor may kill itself.
    pub fn kill(&mut self, id: ActorId) {
        if id == self.self_id {
            self.kill_self = true;
        } else if let Some(slot) = self.actors.get_mut(id.index()) {
            slot.actor = None;
        }
    }

    /// Requests a graceful stop; the engine returns after this handler.
    pub fn stop(&mut self) {
        self.core.stop_requested = true;
    }

    /// Deterministic RNG shared by the simulation.
    #[inline]
    pub fn rng(&mut self) -> &mut Xoshiro256 {
        &mut self.core.rng
    }

    /// Metric sink.
    #[inline]
    pub fn stats(&mut self) -> &mut Stats {
        &mut self.core.stats
    }

    /// Ends a phase of the current handler: under
    /// [`Sim::enable_profiling`], charges the host nanoseconds since the
    /// handler began — or since its previous lap — to row `name` of
    /// [`Stats::lap_costs`]. With profiling off it is one predictable
    /// branch. Like the per-actor cost it refines, the measurement is
    /// write-only: it cannot reach event order or simulated time.
    #[inline]
    pub fn lap(&mut self, name: &'static str) {
        if self.core.lap_from.is_some() {
            self.core.end_lap(name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Kick;

    /// A rally count and the player to return the ball to.
    #[derive(Debug)]
    struct Ball(u32, ActorId);

    /// Bounces a ball back and forth `limit` times, then stops the world.
    struct Player {
        peer: Option<ActorId>,
        limit: u32,
        serve: bool,
    }

    impl Actor for Player {
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            match ev {
                Event::Start => {
                    if self.serve {
                        if let Some(peer) = self.peer {
                            let me = ctx.self_id();
                            ctx.send_after(peer, Ball(0, me), SimDuration::from_millis(1));
                        }
                    }
                }
                Event::Msg { msg } => {
                    if let Ok(ball) = msg.downcast::<Ball>() {
                        ctx.stats().incr("bounces");
                        if ball.0 >= self.limit {
                            ctx.stop();
                        } else {
                            let back = Ball(ball.0 + 1, ctx.self_id());
                            ctx.send_after(ball.1, back, SimDuration::from_millis(1));
                        }
                    }
                }
                Event::Timer { .. } => {}
            }
        }

        fn name(&self) -> String {
            "player".into()
        }
    }

    fn ping_pong(limit: u32) -> (Sim, RunSummary) {
        let mut sim = Sim::new(1);
        let a = sim.spawn(Box::new(Player {
            peer: None,
            limit,
            serve: false,
        }));
        let b = sim.spawn(Box::new(Player {
            peer: Some(a),
            limit,
            serve: true,
        }));
        let _ = b;
        let summary = sim.run();
        (sim, summary)
    }

    #[test]
    fn ping_pong_advances_time_and_counts() {
        let (sim, summary) = ping_pong(9);
        // 10 ball deliveries at 1ms spacing.
        assert_eq!(sim.stats().counter("bounces"), 10);
        assert_eq!(summary.end_time, SimTime::from_nanos(10_000_000));
    }

    #[test]
    fn same_time_events_fire_in_send_order() {
        struct Recorder {
            seen: Vec<u32>,
        }
        #[derive(Debug)]
        struct Tag(u32);
        impl Actor for Recorder {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                if let Event::Msg { msg, .. } = ev {
                    if let Some(t) = msg.peek::<Tag>() {
                        self.seen.push(t.0);
                        if self.seen.len() == 3 {
                            assert_eq!(self.seen, vec![1, 2, 3]);
                            ctx.stats().incr("done");
                        }
                    }
                }
            }
        }
        let mut sim = Sim::new(0);
        let r = sim.spawn(Box::new(Recorder { seen: vec![] }));
        sim.post(r, Box::new(Tag(1)));
        sim.post(r, Box::new(Tag(2)));
        sim.post(r, Box::new(Tag(3)));
        sim.run();
        assert_eq!(sim.stats().counter("done"), 1);
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        struct T {
            armed: Option<TimerHandle>,
        }
        impl Actor for T {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                match ev {
                    Event::Start => {
                        let h = ctx.after(SimDuration::from_secs(1), 7);
                        self.armed = Some(h);
                        ctx.after(SimDuration::from_millis(1), 1);
                    }
                    Event::Timer { tag: 1, .. } => {
                        ctx.cancel_timer(self.armed.take().unwrap());
                    }
                    Event::Timer { tag: 7, .. } => {
                        ctx.stats().incr("must_not_fire");
                    }
                    _ => {}
                }
            }
        }
        let mut sim = Sim::new(0);
        sim.spawn(Box::new(T { armed: None }));
        let summary = sim.run();
        assert_eq!(sim.stats().counter("must_not_fire"), 0);
        // Clock still advanced to the cancelled timer's slot? No: cancelled
        // events are popped (advancing now) but not dispatched.
        assert_eq!(summary.end_time, SimTime::from_nanos(1_000_000_000));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        struct Tick;
        impl Actor for Tick {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                match ev {
                    Event::Start | Event::Timer { .. } => {
                        ctx.stats().incr("ticks");
                        ctx.after(SimDuration::from_secs(1), 0);
                    }
                    _ => {}
                }
            }
        }
        let mut sim = Sim::new(0);
        sim.spawn(Box::new(Tick));
        sim.run_until(SimTime::from_nanos(3_500_000_000));
        // Ticks at t=0,1,2,3 inclusive.
        assert_eq!(sim.stats().counter("ticks"), 4);
        assert_eq!(sim.now(), SimTime::from_nanos(3_500_000_000));
        // Resuming continues from the queue.
        sim.run_until(SimTime::from_nanos(5_500_000_000));
        assert_eq!(sim.stats().counter("ticks"), 6);
    }

    #[test]
    fn killed_actors_drop_pending_events() {
        struct Victim;
        impl Actor for Victim {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                if matches!(ev, Event::Msg { .. }) {
                    ctx.stats().incr("victim_got_msg");
                }
            }
        }
        struct Killer {
            victim: ActorId,
        }
        impl Actor for Killer {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                if matches!(ev, Event::Start) {
                    ctx.send_after(self.victim, Kick, SimDuration::from_secs(2));
                    ctx.after(SimDuration::from_secs(1), 0);
                } else if matches!(ev, Event::Timer { .. }) {
                    ctx.kill(self.victim);
                }
            }
        }
        let mut sim = Sim::new(0);
        let v = sim.spawn(Box::new(Victim));
        sim.spawn(Box::new(Killer { victim: v }));
        sim.run();
        assert_eq!(sim.stats().counter("victim_got_msg"), 0);
        assert!(sim.actor_ref::<Victim>(v).is_none());
    }

    #[test]
    fn self_kill_removes_actor() {
        struct Quitter;
        impl Actor for Quitter {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                if matches!(ev, Event::Start) {
                    let me = ctx.self_id();
                    ctx.kill(me);
                }
            }
        }
        let mut sim = Sim::new(0);
        let q = sim.spawn(Box::new(Quitter));
        sim.run();
        assert!(sim.actor_ref::<Quitter>(q).is_none());
    }

    #[test]
    fn spawn_during_run_receives_start() {
        struct Parent;
        struct Child;
        impl Actor for Child {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                if matches!(ev, Event::Start) {
                    ctx.stats().incr("child_started");
                }
            }
        }
        impl Actor for Parent {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                if matches!(ev, Event::Start) {
                    ctx.spawn(Box::new(Child));
                }
            }
        }
        let mut sim = Sim::new(0);
        sim.spawn(Box::new(Parent));
        sim.run();
        assert_eq!(sim.stats().counter("child_started"), 1);
    }

    #[test]
    fn event_limit_halts_runaway() {
        struct Storm;
        impl Actor for Storm {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                match ev {
                    Event::Start | Event::Timer { .. } => {
                        ctx.after(SimDuration::ZERO, 0);
                    }
                    _ => {}
                }
            }
        }
        let mut sim = Sim::new(0);
        sim.set_event_limit(1000);
        sim.spawn(Box::new(Storm));
        let summary = sim.run();
        assert_eq!(summary.events, 1000);
    }

    #[test]
    fn deterministic_fingerprints() {
        let fp = |seed| {
            let mut sim = Sim::new(seed);
            sim.enable_trace(1 << 14);
            let a = sim.spawn(Box::new(Player {
                peer: None,
                limit: 20,
                serve: false,
            }));
            sim.spawn(Box::new(Player {
                peer: Some(a),
                limit: 20,
                serve: true,
            }));
            sim.run();
            sim.trace().fingerprint()
        };
        assert_eq!(fp(5), fp(5));
    }

    #[test]
    fn post_after_delays_delivery() {
        struct Sink;
        impl Actor for Sink {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                if matches!(ev, Event::Msg { .. }) {
                    let now = ctx.now();
                    assert_eq!(now, SimTime::from_nanos(5_000_000));
                    ctx.stats().incr("delivered");
                }
            }
        }
        let mut sim = Sim::new(0);
        let s = sim.spawn(Box::new(Sink));
        sim.post_after(s, Box::new(Kick), SimDuration::from_millis(5));
        sim.run();
        assert_eq!(sim.stats().counter("delivered"), 1);
    }

    #[test]
    fn actor_state_is_readable_after_run() {
        struct Counter {
            seen: u32,
        }
        impl Actor for Counter {
            fn handle(&mut self, _: &mut Ctx<'_>, ev: Event) {
                if matches!(ev, Event::Msg { .. }) {
                    self.seen += 1;
                }
            }
        }
        let mut sim = Sim::new(0);
        let c = sim.spawn(Box::new(Counter { seen: 0 }));
        sim.post(c, Box::new(Kick));
        sim.post(c, Box::new(Kick));
        sim.run();
        assert_eq!(sim.actor_ref::<Counter>(c).unwrap().seen, 2);
        sim.actor_mut::<Counter>(c).unwrap().seen = 0;
        assert_eq!(sim.actor_ref::<Counter>(c).unwrap().seen, 0);
        // Wrong type and dead actors both come back None.
        struct Other;
        impl Actor for Other {
            fn handle(&mut self, _: &mut Ctx<'_>, _: Event) {}
        }
        assert!(sim.actor_ref::<Other>(c).is_none());
    }

    #[test]
    fn defer_fires_after_same_instant_inbox() {
        /// Counts messages seen before the deferred wakeup fires.
        struct Batcher {
            batched: u32,
            wakeups: u32,
        }
        impl Actor for Batcher {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                match ev {
                    Event::Msg { .. } => {
                        if self.batched == 0 {
                            ctx.defer(0);
                        }
                        self.batched += 1;
                    }
                    Event::Timer { .. } => {
                        self.wakeups += 1;
                        assert_eq!(self.batched, 3, "wakeup fired mid-burst");
                    }
                    _ => {}
                }
            }
        }
        let mut sim = Sim::new(0);
        let b = sim.spawn(Box::new(Batcher {
            batched: 0,
            wakeups: 0,
        }));
        for _ in 0..3 {
            sim.post(b, Box::new(Kick));
        }
        sim.run();
        let state = sim.actor_ref::<Batcher>(b).unwrap();
        assert_eq!((state.batched, state.wakeups), (3, 1));
    }

    #[test]
    fn after_at_fires_at_absolute_instant_and_clamps_past() {
        struct T;
        impl Actor for T {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                match ev {
                    Event::Start => {
                        ctx.after_at(SimTime::from_nanos(5_000), 1);
                        // An instant in the past fires "now", not never.
                        ctx.after_at(SimTime::ZERO, 2);
                    }
                    Event::Timer { tag: 1, .. } => {
                        assert_eq!(ctx.now(), SimTime::from_nanos(5_000));
                        ctx.stats().incr("late");
                    }
                    Event::Timer { tag: 2, .. } => {
                        assert_eq!(ctx.now(), SimTime::ZERO);
                        ctx.stats().incr("clamped");
                    }
                    _ => {}
                }
            }
        }
        let mut sim = Sim::new(0);
        sim.spawn(Box::new(T));
        sim.run();
        assert_eq!(sim.stats().counter("late"), 1);
        assert_eq!(sim.stats().counter("clamped"), 1);
    }

    #[test]
    fn rearm_after_reuses_slot_and_keeps_order() {
        struct Beat {
            beats: u32,
        }
        impl Actor for Beat {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                match ev {
                    Event::Start => {
                        ctx.after(SimDuration::from_secs(1), 0);
                    }
                    Event::Timer { .. } => {
                        self.beats += 1;
                        if self.beats < 5 {
                            ctx.rearm_after(SimDuration::from_secs(1), 0);
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut sim = Sim::new(0);
        sim.spawn(Box::new(Beat { beats: 0 }));
        let summary = sim.run();
        assert_eq!(summary.end_time, SimTime::from_nanos(5_000_000_000));
        let qs = sim.stats().queue();
        // One slot serves the whole periodic chain.
        assert_eq!(qs.timer_slots, 1);
        assert_eq!(qs.timer_rearms, 4);
        assert_eq!(qs.cancelled_drops, 0);
    }

    #[test]
    fn reschedule_at_moves_deadline_without_double_fire() {
        struct T {
            armed: Option<TimerHandle>,
            fired_at: Option<SimTime>,
        }
        impl Actor for T {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                match ev {
                    Event::Start => {
                        self.armed = Some(ctx.after(SimDuration::from_secs(5), 7));
                        ctx.after(SimDuration::from_secs(1), 1);
                    }
                    Event::Timer { tag: 1, .. } => {
                        // Pull the deadline in from t=5s to t=2s.
                        let h = self.armed.take().unwrap();
                        self.armed = Some(ctx.reschedule_at(h, SimTime::from_nanos(2e9 as u64), 7));
                    }
                    Event::Timer { tag: 7, .. } => {
                        assert!(self.fired_at.is_none(), "deadline timer fired twice");
                        self.fired_at = Some(ctx.now());
                    }
                    _ => {}
                }
            }
        }
        let mut sim = Sim::new(0);
        let a = sim.spawn(Box::new(T {
            armed: None,
            fired_at: None,
        }));
        sim.run();
        let t = sim.actor_ref::<T>(a).unwrap();
        assert_eq!(t.fired_at, Some(SimTime::from_nanos(2_000_000_000)));
        let qs = sim.stats().queue();
        // The superseded t=5s entry surfaces once and is dropped.
        assert_eq!(qs.cancelled_drops, 1);
        assert_eq!(qs.timer_rearms, 1);
    }

    #[test]
    fn cancelled_handles_are_inert_after_slot_reuse() {
        struct T {
            old: Option<TimerHandle>,
        }
        impl Actor for T {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                match ev {
                    Event::Start => {
                        let h = ctx.after(SimDuration::from_secs(9), 1);
                        ctx.cancel_timer(h);
                        self.old = Some(h);
                        // Reuses the freed slot at a newer generation.
                        ctx.after(SimDuration::from_secs(1), 2);
                    }
                    Event::Timer { tag: 2, .. } => {
                        // Cancelling the stale handle must not kill the
                        // slot's current occupant...
                        ctx.cancel_timer(self.old.unwrap());
                        ctx.after(SimDuration::from_secs(1), 3);
                    }
                    Event::Timer { tag: 3, .. } => {
                        ctx.stats().incr("third_fire");
                    }
                    Event::Timer { tag: 1, .. } => {
                        ctx.stats().incr("must_not_fire");
                    }
                    _ => {}
                }
            }
        }
        let mut sim = Sim::new(0);
        sim.spawn(Box::new(T { old: None }));
        sim.run();
        assert_eq!(sim.stats().counter("must_not_fire"), 0);
        assert_eq!(sim.stats().counter("third_fire"), 1);
    }

    #[test]
    fn queue_stats_track_depth_and_drops() {
        let (sim, _) = ping_pong(9);
        let qs = sim.stats().queue();
        // 2 Starts + 10 ball messages.
        assert_eq!(qs.pushes, 12);
        assert!(qs.peak_depth >= 2);
        assert_eq!(qs.dead_actor_drops, 0);

        // Dead-actor drops: the killed victim's pending message.
        struct Victim;
        impl Actor for Victim {
            fn handle(&mut self, _: &mut Ctx<'_>, _: Event) {}
        }
        struct Killer {
            victim: ActorId,
        }
        impl Actor for Killer {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                if matches!(ev, Event::Start) {
                    ctx.send_after(self.victim, Kick, SimDuration::from_secs(2));
                    ctx.after(SimDuration::from_secs(1), 0);
                } else if matches!(ev, Event::Timer { .. }) {
                    ctx.kill(self.victim);
                }
            }
        }
        let mut sim = Sim::new(0);
        let v = sim.spawn(Box::new(Victim));
        sim.spawn(Box::new(Killer { victim: v }));
        sim.run();
        assert_eq!(sim.stats().queue().dead_actor_drops, 1);
    }

    #[test]
    fn laps_charge_named_rows_only_under_profiling() {
        struct Phased;
        impl Actor for Phased {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                if matches!(ev, Event::Msg { .. }) {
                    ctx.lap("phase.a");
                    ctx.lap("phase.b");
                    ctx.lap("phase.a");
                }
            }
            fn name(&self) -> String {
                "phased@7".into()
            }
        }
        let run = |profiled: bool| {
            let mut sim = Sim::new(0);
            if profiled {
                sim.enable_profiling();
            }
            let a = sim.spawn(Box::new(Phased));
            sim.post(a, Box::new(Kick));
            sim.post(a, Box::new(Kick));
            sim.run();
            (sim.stats().lap_costs(), sim.stats().actor_costs())
        };
        let (laps, actors) = run(false);
        assert!(laps.is_empty() && actors.is_empty());
        let (laps, actors) = run(true);
        // Rows come back in name order; `events` counts laps, and a lap
        // is not an event: the actor's row still counts Start + 2 messages.
        let rows: Vec<(&str, u64)> = laps.iter().map(|c| (c.class.as_str(), c.events)).collect();
        assert_eq!(rows, [("phase.a", 4), ("phase.b", 2)]);
        assert_eq!((actors[0].class.as_str(), actors[0].events), ("phased", 3));
        // Laps partition the handler's time from its start to its last
        // lap, so they cannot add up to more than the handlers took.
        let lap_nanos: u64 = laps.iter().map(|c| c.nanos).sum();
        assert!(
            lap_nanos <= actors[0].nanos,
            "{lap_nanos} > {}",
            actors[0].nanos
        );
    }

    /// An actor's name registers its profiling class: everything before
    /// the first `@`, so per-node actors share one row.
    #[test]
    fn actor_names_are_registered() {
        struct N(&'static str);
        impl Actor for N {
            fn handle(&mut self, _: &mut Ctx<'_>, _: Event) {}
            fn name(&self) -> String {
                self.0.into()
            }
        }
        let mut sim = Sim::new(0);
        sim.enable_profiling();
        for name in ["datanode@1", "namenode", "datanode@2"] {
            sim.spawn(Box::new(N(name)));
        }
        sim.run();
        let rows: Vec<(String, u64)> = sim
            .stats()
            .actor_costs()
            .into_iter()
            .map(|c| (c.class, c.events))
            .collect();
        assert_eq!(rows, [("datanode".into(), 2), ("namenode".into(), 1)]);
    }
}
