//! The fabric actor: message delivery and fluid bulk transfers.
//!
//! One [`Fabric`] actor represents the cluster interconnect: every node's
//! full-duplex NIC (tx/rx links), its loopback device, and a non-blocking
//! switch between them. Protocol actors (DFS, MapReduce) talk to it with
//! two primitives:
//!
//! * [`Unicast`] — control RPCs: fixed latency + serialization time of
//!   their size, naming only the receiving actor (no node, no link).
//! * [`StartFlow`] — bulk data: a fluid flow sharing link bandwidth
//!   max-min-fairly with every other active flow, optionally capped by a
//!   per-stream protocol ceiling (the paper's loopback feed behavior).
//!   Completion is announced to the requester with [`FlowDone`].
//!
//! Node failures abort in-flight transfers via [`AbortNode`], announcing
//! [`FlowAborted`] so blocked readers can recover — the mechanism the
//! fault-tolerance tests drive.
//!
//! ## Rate engine
//!
//! The engine is built so a shuffle wave of F concurrent flows costs
//! O(component) solver work *once*, not O(F) full re-solves:
//!
//! 1. **Same-instant coalescing** — a burst of [`StartFlow`]s at one
//!    simulated instant arms a single deferred wakeup ([`Ctx::defer`]);
//!    rates are re-solved once after the burst's inbox drains.
//! 2. **Component-incremental solving** — the fabric keeps a persistent
//!    link→classes index and re-solves only the connected component of the
//!    link/flow sharing graph reachable from the links a change touched.
//!    Flows between disjoint node pairs never pay for each other. The
//!    solve itself runs on the allocation-free
//!    [`crate::flow::MaxMinSolver`] with inline [`Route`]s.
//! 3. **Completion queue** — projected finish times live on the engine's
//!    ladder queue ([`accelmr_des::Ladder`]), lazily invalidated when a
//!    flow's rate changes (a generation counter per flow), replacing the
//!    O(flows) completion scan per event. A binary heap held them until it
//!    was the fabric's largest cost: ~260k pending on the 1000-node churn
//!    run, ~18 levels of cache misses per pop; the ladder's push and pop
//!    are O(1) and its pop order is the heap's, key for key. The armed
//!    completion timer is *reused* when the projected next completion
//!    instant is unchanged, instead of paying a cancel + re-insert per
//!    event.
//! 4. **Slab flow storage, route classes** — active flows live in a
//!    slot-indexed slab split into a hot array (remaining bytes, rate —
//!    what the settle and write-back loops touch) and a cold array
//!    (notification endpoints, payloads), with freed slots recycled. The
//!    walk and the solver do not see flows at all: every live flow belongs
//!    to the **route class** of its `(route, cap)`, found through one map
//!    keyed by the two link indices and the cap, and a class is what the
//!    link index lists, what the component walk marks and what the solver
//!    takes as one entry with a multiplicity. A shuffle is mostly the same
//!    route at the same cap (every reducer on a node pulls a partition
//!    from every map on a node: multiplicity 12 on the 1000-node churn
//!    run), and flows sharing links and cap are indistinguishable to
//!    progressive filling, so the grouping is exact to the bit (argued at
//!    [`MaxMinSolver::solve`]). A class of one is the general case, not a
//!    special path. Each class records its position in every link list it
//!    sits on and each flow its index in its class's member list, so
//!    unlinking either is an indexed `swap_remove`: F flows finishing on
//!    one rx link at one instant cost O(F), not O(F²). Events, settles,
//!    generations and completions stay per flow: the write-back gives
//!    every member of a walked class exactly the treatment it got when
//!    flows were walked one by one. The one order-sensitive sweep — abort
//!    notifications — sorts by the flow's monotonic id. The component
//!    solve and the rate write-back provably need no order and run in
//!    walk order, unsorted: rates are bit-identical under any `add_flow` /
//!    `add_link` order and any grouping of equal flows (argued at
//!    [`MaxMinSolver::solve`], property-tested beside it), and the
//!    completion keys `(finish, id, gen)` are unique, so pops ignore push
//!    order.
//!
//! The engine this one replaced — one global `max_min_rates` solve over
//! all flows per flow event — survives as the test-only
//! `ReferenceFabric` actor (`reference.rs`, compiled under `cfg(test)`
//! only): the tests below run their scripts on both and require flow
//! completion *times* equal within float epsilon.

use std::collections::hash_map::Entry;

use accelmr_des::prelude::*;
use accelmr_des::{FxHashMap, Ladder, QueueStats, Timed};

use crate::config::{rpc_delay, NetConfig, NodeId, LINK_BYTES_PER_SEC, LOOPBACK_BYTES_PER_SEC};
use crate::flow::{LinkId, LinkTable, MaxMinSolver, Route};

/// Control RPC to actor `to`. It names no node: its delay is
/// [`rpc_delay`] of its size alone, off the fluid links, so neither
/// bandwidth nor a partition can see it.
pub struct Unicast {
    /// Destination actor.
    pub to: ActorId,
    /// Payload size for serialization delay.
    pub bytes: u64,
    /// The protocol message delivered to `to`.
    pub payload: Box<dyn Msg>,
}

impl std::fmt::Debug for Unicast {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let label = self.payload.as_ref().label();
        write!(f, "Unicast({} B, {label})", self.bytes)
    }
}

/// Starts a bulk transfer.
#[derive(Debug)]
pub struct StartFlow {
    /// Source node.
    pub src: NodeId,
    /// Destination node (may equal `src`: loopback).
    pub dst: NodeId,
    /// Transfer size.
    pub bytes: u64,
    /// Optional per-stream rate ceiling, bytes/second.
    pub cap_bytes_per_sec: Option<f64>,
    /// Actor to notify on completion/abort.
    pub notify: ActorId,
    /// Caller-chosen correlation tag echoed in the notification.
    pub tag: u64,
    /// Optional payload delivered to `notify` *instead of* [`FlowDone`]
    /// when the flow completes (aborts still deliver [`FlowAborted`]).
    /// This is how data-bearing transfers (DFS block reads) hand the
    /// materialized bytes to the receiver at the moment the last byte
    /// arrives.
    pub on_done: Option<Box<dyn Msg>>,
}

/// Aborts all flows touching a node (its crash).
#[derive(Debug)]
pub struct AbortNode {
    /// The failed node.
    pub node: NodeId,
}

/// Grows the fabric so `node` has links (dynamic membership). Idempotent:
/// nodes the fabric already serves are untouched, and growth never
/// perturbs existing flows or rates. Send *before* any traffic involving
/// the new node — same-instant FIFO ordering guarantees the links exist by
/// the time a later-queued [`StartFlow`] references them.
#[derive(Debug, Clone, Copy)]
pub struct EnsureNode {
    /// Node that must be routable after this message is processed.
    pub node: NodeId,
}

/// Sets the bandwidth factor of a node's NIC (tx + rx) links — the chaos
/// plane's partition/degraded-link state. `factor` scales the configured
/// link rate: `1.0` restores full health, values in `(0, 1)` model a gray
/// link, and `0.0` (or anything below [`PARTITION_FACTOR`]) is a full
/// partition — flows crossing the node **stall at rate 0** (no abort, no
/// completion) until a later message restores capacity, at which point
/// they resume from their remaining byte count. The loopback device is
/// untouched: a partition is a NIC-level event, local disk traffic
/// survives it. Restoring a fully-partitioned node counts
/// `net.partitions_healed`.
#[derive(Debug, Clone, Copy)]
pub struct SetNodeBandwidth {
    /// The node whose links are re-priced.
    pub node: NodeId,
    /// Bandwidth factor in `[0, 1]` (clamped).
    pub factor: f64,
}

/// Bandwidth factors below this are treated as a full partition (capacity
/// exactly 0): a near-zero rate would project completions astronomically
/// far out instead of stalling the flow, which is the semantics partitions
/// need.
pub const PARTITION_FACTOR: f64 = 1e-6;

/// A flow completed; delivered to the flow's `notify` actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowDone {
    /// The caller's correlation tag.
    pub tag: u64,
    /// Bytes moved.
    pub bytes: u64,
}

/// A flow was aborted by a node failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowAborted {
    /// The caller's correlation tag.
    pub tag: u64,
}

/// Hot per-flow state, slot-indexed and densely packed: exactly the
/// fields the rate write-back and the settle loop touch. Route, cap and
/// walk stamp live once per [`RouteClass`], so a record is 48 bytes and a
/// write-back sweep streams through a compact array.
#[derive(Clone, Copy)]
struct FlowHot {
    /// Monotonic flow id: the sort key of the abort sweep and the
    /// completion-queue tiebreaker. Slab *slots* are recycled; ids never
    /// are. `u64::MAX` marks a free slot (no live flow can carry it — ids
    /// count up from zero).
    id: u64,
    /// Bytes left as of `updated_at` (settled whenever the flow's
    /// component is re-priced, not on every fabric event).
    remaining: f64,
    rate: f64,
    updated_at: SimTime,
    /// Bumped (wrapping) on every rate change; completion entries carrying
    /// an older generation are stale and dropped on pop. No flow sees 2^32
    /// rate changes, so a wrapped generation never aliases a live entry.
    gen: u32,
    /// The flow's [`RouteClass`] (index into `Fabric::classes`) and its
    /// index in that class's member list (`join_class` / `leave_class`
    /// keep both current).
    class: u32,
    idx: u32,
}

/// All live flows sharing one `(route, cap)`: the unit the link index, the
/// component walk and the solver work in. Members are indistinguishable
/// to progressive filling, so one solver entry with their count as its
/// multiplicity prices them all. Half a cache line: what the class index
/// adds to a flow that shares its route with nobody is this record and a
/// map entry, and on a shuffle of distinct pairs that footprint is the
/// index's whole cost.
#[derive(Clone, Copy)]
struct RouteClass {
    /// The route's link indices, also the first two words of this class's
    /// `class_ids` key: a loopback class repeats its one link, a two-link
    /// route's links are distinct.
    links: [u32; 2],
    /// `pos[k]` is this class's index in `link_classes[links()[k]]`
    /// (loopback leaves `pos[1]` unused).
    pos: [u32; 2],
    /// The cap's interned id (index into `Fabric::caps`): the key's third
    /// word.
    cap_id: u32,
    /// Component-walk visit stamp (see `resolve_dirty`).
    mark: u32,
    /// Member flows by slab slot, in no meaningful order: the first
    /// inline — most classes outside a shuffle have one member, and the
    /// walk then hands the write-back that flow without a second
    /// dependent load — and the other `members - 1` in `Fabric::spill`.
    /// `members == 0` marks a free class slot.
    first: u32,
    members: u32,
}

impl RouteClass {
    /// The links the class's flows cross: one (loopback) or two.
    fn links(&self) -> impl Iterator<Item = LinkId> {
        let n = 1 + usize::from(self.links[0] != self.links[1]);
        self.links.into_iter().take(n).map(|l| LinkId(l as usize))
    }

    /// Which of the class's links `l` is: index into `links` / `pos`.
    fn nth(&self, l: LinkId) -> usize {
        usize::from(self.links[0] as usize != l.0)
    }

    /// This class's `class_ids` key.
    fn key(&self) -> (u32, u32, u32) {
        (self.links[0], self.links[1], self.cap_id)
    }
}

/// Cold per-flow bookkeeping, read only when the flow completes or
/// aborts: who to tell, and what to hand them.
struct FlowCold {
    notify: ActorId,
    tag: u64,
    total: u64,
    on_done: Option<Box<dyn Msg>>,
}

impl FlowCold {
    /// A free slot's record (its hot record's `id` says it is free).
    const VACANT: FlowCold = FlowCold {
        notify: ActorId::ENGINE,
        tag: 0,
        total: 0,
        on_done: None,
    };
}

/// A projected completion: flow `id` (in slab `slot`) finishes at `at`
/// if its rate is still the one of generation `gen`. Keyed on `(at, id,
/// gen)`, unique among entries, so the pop order is the key order whatever
/// the push order. The slot rides along for O(1) access and never decides
/// order. 24 bytes: ~260k are pending at an average pop on the
/// 1000-node churn run.
#[derive(Clone, Copy)]
struct Done {
    at: SimTime,
    id: u64,
    gen: u32,
    slot: u32,
}

impl Timed for Done {
    type Key = (SimTime, u64, u32);

    #[inline]
    fn at(&self) -> SimTime {
        self.at
    }

    #[inline]
    fn key(&self) -> Self::Key {
        (self.at, self.id, self.gen)
    }
}

/// Completion-timer tag.
const TAG_COMPLETE: u64 = 0;
/// Deferred-resolve wakeup tag.
const TAG_RESOLVE: u64 = 1;

const EPS_BYTES: f64 = 1e-3;

/// No flow slot.
const NONE: u32 = u32::MAX;

/// The interconnect actor.
pub struct Fabric {
    links: LinkTable,
    tx: Vec<LinkId>,
    rx: Vec<LinkId>,
    loopback: Vec<LinkId>,
    /// Per-node NIC bandwidth factor (1.0 = healthy, 0.0 = partitioned);
    /// see [`SetNodeBandwidth`].
    degrade: Vec<f64>,
    /// Active flows in a slot-indexed hot/cold slab: `hot[s]` holds the
    /// per-flow fluid state ([`FlowHot`]; `id == u64::MAX` = free slot),
    /// `cold[s]` the completion bookkeeping ([`FlowCold::VACANT`] in a
    /// free slot). Direct Vec indexing on the
    /// hot path — the write-back visits every flow of a component per
    /// resolve, and map descents dominated the 1000-node churn profile.
    /// Slots recycle through `free_slots`; the monotonic flow *id* lives
    /// in [`FlowHot`], and the one sweep whose order reaches the event
    /// stream (abort notifications) sorts by it.
    hot: Vec<FlowHot>,
    cold: Vec<FlowCold>,
    free_slots: Vec<u32>,
    /// Flows in the slab; its high-water mark is `net.peak_live_flows`,
    /// and the slab's bytes at its largest `net.flow_slab_peak_bytes`.
    live_flows: usize,
    next_flow_id: u64,
    /// Route classes in a recycled slab (`free_classes`), and the map that
    /// finds the live class of a `(route, cap)`, keyed by the class's two
    /// `links` words and its `cap_id`. The map is only ever probed by key,
    /// never iterated. Its key is three `u32` words hashed one by one,
    /// never packed into one: the workspace hasher's `finish` is a bare
    /// multiply, so a packed key's low bits — the destination link, of
    /// which a shuffle has a few dozen — would alone pick the bucket (see
    /// `accelmr_des::fxmap`).
    classes: Vec<RouteClass>,
    free_classes: Vec<u32>,
    class_ids: FxHashMap<(u32, u32, u32), u32>,
    /// `spill[c]` holds class `c`'s members after its first: beside the
    /// class records, not in them, so a class of one never touches it
    /// (and an emptied list keeps its allocation for the slot's next
    /// tenant).
    spill: Vec<Vec<u32>>,
    /// Interned caps (`cap_id` = index), compared as bits. A fabric sees a
    /// handful of distinct caps — the runtime's per-stream ceilings and
    /// "none" — so interning is a linear scan and ids are never retired.
    caps: Vec<f64>,
    /// Armed completion timer and the absolute instant it fires at; the
    /// instant lets `rearm` skip the cancel + re-arm when the projected
    /// next completion is unchanged.
    timer: Option<(TimerHandle, SimTime)>,
    /// Whether a deferred resolve wakeup is already queued for this instant.
    resolve_pending: bool,
    /// Persistent link → live classes index, each entry's index mirrored
    /// in its class's `pos`. List order (insertion/`swap_remove`) reaches
    /// nothing observable: solve and write-back are order-free, the abort
    /// sweep sorts by id.
    link_classes: Vec<Vec<u32>>,
    /// Links whose flow set changed since the last resolve.
    dirty_links: Vec<LinkId>,
    link_dirty: Vec<bool>,
    /// Component-walk epoch + per-link visit stamp / dense solver slot.
    epoch: u32,
    link_mark: Vec<u32>,
    link_slot: Vec<u32>,
    /// Scratch: the current component's classes in solver `add_flow`
    /// order, each with its member if it has just one ([`NONE`] if more)
    /// — the write-back then reaches a lone member's flow record without
    /// going back through its class's — / link BFS frontier.
    comp_classes: Vec<(u32, u32)>,
    bfs_links: Vec<LinkId>,
    solver: MaxMinSolver,
    /// Projected completions, stale ones included, popped in `(finish,
    /// flow id, generation)` order. A rate change pushes a fresh entry and
    /// leaves the old one to be dropped when it surfaces. `settle_due` and
    /// `rearm` drop stale entries wherever they sit, ahead of the clock
    /// too, so a later push can land behind the ladder's last popped
    /// instant — which the ladder accepts (see [`Ladder::push`]). Its
    /// counters go to `net.completion_rungs_spawned`,
    /// `net.completion_peak_cur_len`, `net.completion_peak_slots` and the
    /// slots' size, `net.completion_peak_bytes`, after every advance.
    completions: Ladder<Done>,
}

impl Fabric {
    /// Builds a fabric for `nodes` machines.
    pub fn new(_: NetConfig, nodes: usize) -> Self {
        let mut links = LinkTable::new();
        let tx: Vec<LinkId> = (0..nodes).map(|_| links.add(LINK_BYTES_PER_SEC)).collect();
        let rx: Vec<LinkId> = (0..nodes).map(|_| links.add(LINK_BYTES_PER_SEC)).collect();
        let loopback: Vec<LinkId> = (0..nodes)
            .map(|_| links.add(LOOPBACK_BYTES_PER_SEC))
            .collect();
        let n_links = links.len();
        Fabric {
            links,
            tx,
            rx,
            loopback,
            degrade: vec![1.0; nodes],
            hot: Vec::new(),
            cold: Vec::new(),
            free_slots: Vec::new(),
            live_flows: 0,
            next_flow_id: 0,
            classes: Vec::new(),
            free_classes: Vec::new(),
            class_ids: FxHashMap::default(),
            spill: Vec::new(),
            caps: Vec::new(),
            timer: None,
            resolve_pending: false,
            link_classes: vec![Vec::new(); n_links],
            dirty_links: Vec::new(),
            link_dirty: vec![false; n_links],
            epoch: 0,
            link_mark: vec![0; n_links],
            link_slot: vec![0; n_links],
            comp_classes: Vec::new(),
            bfs_links: Vec::new(),
            solver: MaxMinSolver::new(),
            completions: Ladder::new(),
        }
    }

    /// Number of nodes the fabric serves.
    pub fn nodes(&self) -> usize {
        self.tx.len()
    }

    /// Adds nodes (each with fresh tx/rx/loopback links) until `node` is
    /// routable, returning how many were added. New links carry no flows,
    /// so no re-solve is needed.
    fn ensure_node(&mut self, node: NodeId) -> usize {
        let before = self.tx.len();
        while self.tx.len() <= node.index() {
            self.tx.push(self.links.add(LINK_BYTES_PER_SEC));
            self.rx.push(self.links.add(LINK_BYTES_PER_SEC));
            self.loopback.push(self.links.add(LOOPBACK_BYTES_PER_SEC));
        }
        let n_links = self.links.len();
        self.link_classes.resize_with(n_links, Vec::new);
        self.link_dirty.resize(n_links, false);
        self.link_mark.resize(n_links, 0);
        self.link_slot.resize(n_links, 0);
        self.degrade.resize(self.tx.len(), 1.0);
        self.tx.len() - before
    }

    /// Applies [`SetNodeBandwidth`]: re-prices the node's tx/rx links and
    /// requests a component re-solve, so the new capacity binds from this
    /// instant. A factor equal to the current one is a no-op (no spurious
    /// solve, no trace perturbation).
    fn set_node_bandwidth(&mut self, ctx: &mut Ctx<'_>, node: NodeId, factor: f64) {
        self.ensure_node(node);
        let factor = if factor < PARTITION_FACTOR {
            0.0
        } else {
            factor.min(1.0)
        };
        let old = self.degrade[node.index()];
        if factor == old {
            return;
        }
        if old == 0.0 {
            ctx.stats().incr("net.partitions_healed");
        }
        if factor == 0.0 {
            ctx.stats().incr("net.partitions_started");
        }
        self.degrade[node.index()] = factor;
        let cap = LINK_BYTES_PER_SEC * factor;
        let (tx, rx) = (self.tx[node.index()], self.rx[node.index()]);
        self.links.set_capacity(tx, cap);
        self.links.set_capacity(rx, cap);
        ctx.stats().incr("net.bandwidth_changes");
        // Both links join the dirty set; the deferred resolve settles and
        // re-prices exactly the touched component.
        self.mark_dirty(tx);
        self.mark_dirty(rx);
        self.request_resolve(ctx);
    }

    /// Admits a non-empty [`StartFlow`] at rate 0 into a recycled (or
    /// fresh) slab slot and into the class of its route and cap; the next
    /// resolve prices it.
    fn insert_flow(&mut self, ctx: &mut Ctx<'_>, now: SimTime, req: StartFlow) {
        let slot = self
            .free_slots
            .pop()
            .unwrap_or_else(|| u32::try_from(self.hot.len()).expect("flow slot fits u32"));
        let route = self.route(req.src, req.dst);
        let cap = req.cap_bytes_per_sec.unwrap_or(f64::INFINITY);
        let (class, idx) = self.join_class(route, cap, slot);
        let h = FlowHot {
            id: self.next_flow_id,
            remaining: req.bytes as f64,
            rate: 0.0,
            updated_at: now,
            gen: 0,
            class,
            idx,
        };
        let c = FlowCold {
            notify: req.notify,
            tag: req.tag,
            total: req.bytes,
            on_done: req.on_done,
        };
        self.next_flow_id += 1;
        self.live_flows += 1;
        ctx.stats().incr("net.flows_started");
        ctx.stats()
            .raise("net.peak_live_flows", self.live_flows as u64);
        match self.hot.get_mut(slot as usize) {
            Some(vacant) => {
                debug_assert_eq!(vacant.id, u64::MAX);
                *vacant = h;
                self.cold[slot as usize] = c;
            }
            None => {
                self.hot.push(h);
                self.cold.push(c);
            }
        }
    }

    /// Frees a slab slot and the flow's place in its class, returning the
    /// flow's final hot state and its completion bookkeeping.
    fn remove_flow(&mut self, slot: u32) -> (FlowHot, FlowCold) {
        self.live_flows -= 1;
        self.free_slots.push(slot);
        let h = self.hot[slot as usize];
        assert_ne!(h.id, u64::MAX, "flow present");
        self.hot[slot as usize].id = u64::MAX;
        self.leave_class(&h, slot);
        let c = std::mem::replace(&mut self.cold[slot as usize], FlowCold::VACANT);
        (h, c)
    }

    fn route(&self, src: NodeId, dst: NodeId) -> Route {
        if src == dst {
            Route::single(self.loopback[src.index()])
        } else {
            Route::pair(self.tx[src.index()], self.rx[dst.index()])
        }
    }

    fn deliver_done(
        ctx: &mut Ctx<'_>,
        notify: ActorId,
        tag: u64,
        bytes: u64,
        on_done: Option<Box<dyn Msg>>,
    ) {
        match on_done {
            Some(payload) => ctx.send_boxed(notify, payload, SimDuration::ZERO),
            None => ctx.send(notify, FlowDone { tag, bytes }),
        }
    }

    /// Queues one deferred resolve for the current instant (coalescing:
    /// every further change this instant rides the same wakeup).
    fn request_resolve(&mut self, ctx: &mut Ctx<'_>) {
        if !self.resolve_pending {
            self.resolve_pending = true;
            ctx.defer(TAG_RESOLVE);
        }
    }

    /// Marks a link dirty for the next component resolve.
    fn mark_dirty(&mut self, l: LinkId) {
        if !self.link_dirty[l.0] {
            self.link_dirty[l.0] = true;
            self.dirty_links.push(l);
        }
    }

    /// Adds the flow in `slot` to the class of `(route, cap)` — created,
    /// and indexed on the route's links, if no live flow has that route and
    /// cap — and returns the class and the flow's index among its members.
    /// The route's links become dirty.
    fn join_class(&mut self, route: Route, cap: f64, slot: u32) -> (u32, u32) {
        for &l in route.links() {
            self.mark_dirty(l);
        }
        let word = |l: LinkId| u32::try_from(l.0).expect("link index fits u32");
        let links = route.links();
        let links = [word(links[0]), word(links[links.len() - 1])];
        let same = |c: &f64| c.to_bits() == cap.to_bits();
        let cap_id = self.caps.iter().position(same).unwrap_or_else(|| {
            self.caps.push(cap);
            self.caps.len() - 1
        }) as u32;
        let born = RouteClass {
            links,
            pos: [0; 2],
            cap_id,
            mark: 0,
            first: slot,
            members: 1,
        };
        match self.class_ids.entry(born.key()) {
            Entry::Occupied(e) => {
                let c = *e.get();
                self.spill[c as usize].push(slot);
                let cl = &mut self.classes[c as usize];
                cl.members += 1;
                (c, cl.members - 1)
            }
            Entry::Vacant(e) => {
                let c = *e.insert(self.free_classes.pop().unwrap_or_else(|| {
                    self.classes.push(born);
                    self.spill.push(Vec::new());
                    u32::try_from(self.classes.len() - 1).expect("class slot fits u32")
                }));
                let cl = &mut self.classes[c as usize];
                *cl = born;
                for (k, l) in born.links().enumerate() {
                    cl.pos[k] = self.link_classes[l.0].len() as u32;
                    self.link_classes[l.0].push(c);
                }
                (c, 0)
            }
        }
    }

    /// Member flows' slab slots.
    fn members(&self, c: u32) -> impl Iterator<Item = u32> + '_ {
        let rest = self.spill[c as usize].iter().copied();
        std::iter::once(self.classes[c as usize].first).chain(rest)
    }

    /// Takes the flow formerly in `slot` (final hot state `h`) off its
    /// class's member list — an indexed `swap_remove`, re-pointing the
    /// member that moved into the hole — and, if it was the last member,
    /// retires the class: off its links' lists (same `swap_remove`), out
    /// of the map, slot to the free list. The route's links become dirty.
    fn leave_class(&mut self, h: &FlowHot, slot: u32) {
        let c = h.class;
        let cl = &mut self.classes[c as usize];
        cl.members -= 1;
        if cl.members == 0 {
            debug_assert_eq!((cl.first, h.idx), (slot, 0), "sole member");
            let cl = *cl;
            for (p, l) in cl.pos.into_iter().zip(cl.links()) {
                let v = &mut self.link_classes[l.0];
                debug_assert_eq!(v[p as usize], c, "class at its recorded position");
                v.swap_remove(p as usize);
                if let Some(&moved) = v.get(p as usize) {
                    let m = &mut self.classes[moved as usize];
                    m.pos[m.nth(l)] = p;
                }
            }
            let mapped = self.class_ids.remove(&cl.key());
            debug_assert_eq!(mapped, Some(c), "live class is in the map");
            self.free_classes.push(c);
        } else {
            let rest = &mut self.spill[c as usize];
            let last = rest.pop().expect("members after the first are spilled");
            if last != slot {
                let hole = match h.idx {
                    0 => &mut cl.first,
                    i => &mut rest[i as usize - 1],
                };
                debug_assert_eq!(*hole, slot, "flow at its recorded index");
                *hole = last;
                self.hot[last as usize].idx = h.idx;
            }
        }
        let links = self.classes[c as usize].links();
        links.for_each(|l| self.mark_dirty(l));
    }

    /// Pops every due completion off the queue, settling and completing the
    /// flows whose projected finish has arrived. Stale entries (older
    /// generation than the flow, or flow already gone) are discarded.
    fn settle_due(&mut self, ctx: &mut Ctx<'_>, now: SimTime) {
        while let Some(&Done { at, id, gen, slot }) = self.completions.peek() {
            // Slots recycle, ids don't: an id mismatch means this entry's
            // flow is gone and another now owns the slot.
            let h = &mut self.hot[slot as usize];
            if h.id != id || h.gen != gen {
                self.completions.pop();
                continue;
            }
            if at > now {
                break;
            }
            self.completions.pop();
            let dt = (now - h.updated_at).as_secs_f64();
            if dt > 0.0 {
                h.remaining -= h.rate * dt;
                h.updated_at = now;
            }
            if h.remaining <= EPS_BYTES {
                let (_, c) = self.remove_flow(slot);
                ctx.stats().add("net.flow_bytes_done", c.total);
                ctx.stats().incr("net.flows_done");
                Self::deliver_done(ctx, c.notify, c.tag, c.total, c.on_done);
            } else {
                // Nanosecond rounding left a sliver; try again shortly.
                let delay = SimDuration::from_secs_f64(h.remaining / h.rate)
                    .max(SimDuration::from_nanos(1));
                let at = now + delay;
                self.completions.push(Done { at, id, gen, slot });
            }
        }
    }

    /// Re-solves max-min rates over the connected component(s) of the
    /// link/flow sharing graph reachable from the dirty links. Flows
    /// outside the walked component keep their rates and their queued
    /// entries untouched — disjoint traffic is free.
    fn resolve_dirty(&mut self, ctx: &mut Ctx<'_>, now: SimTime) {
        if self.dirty_links.is_empty() {
            return;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale marks from exactly 2^32 resolves ago would
            // alias the fresh epoch, silently excluding classes/links from
            // the walk. Reset every stamp and restart above the 0 that
            // newly-created classes carry.
            for m in &mut self.link_mark {
                *m = 0;
            }
            for cl in &mut self.classes {
                cl.mark = 0;
            }
            self.epoch = 1;
        }
        let epoch = self.epoch;
        self.comp_classes.clear();
        self.bfs_links.clear();
        self.solver.begin();
        // Seed the walk with the dirty links.
        while let Some(l) = self.dirty_links.pop() {
            self.link_dirty[l.0] = false;
            if self.link_mark[l.0] != epoch {
                self.link_mark[l.0] = epoch;
                self.link_slot[l.0] = self.solver.add_link(self.links.capacity(l));
                self.bfs_links.push(l);
            }
        }
        // Grow to the full component: links sharing a class share a fate.
        let mut flows = 0u64;
        while let Some(l) = self.bfs_links.pop() {
            for i in 0..self.link_classes[l.0].len() {
                let c = self.link_classes[l.0][i];
                let cl = &mut self.classes[c as usize];
                debug_assert_ne!(cl.members, 0, "indexed class live");
                if cl.mark == epoch {
                    continue;
                }
                cl.mark = epoch;
                let lone = if cl.members == 1 { cl.first } else { NONE };
                let (mut slots, mut n) = ([0u32; 2], 0);
                for l2 in cl.links() {
                    if self.link_mark[l2.0] != epoch {
                        self.link_mark[l2.0] = epoch;
                        self.link_slot[l2.0] = self.solver.add_link(self.links.capacity(l2));
                        self.bfs_links.push(l2);
                    }
                    slots[n] = self.link_slot[l2.0];
                    n += 1;
                }
                // Walk order, unsorted: the solve is order-independent.
                let cap = self.caps[cl.cap_id as usize];
                self.solver.add_flow(&slots[..n], cap, cl.members);
                self.comp_classes.push((c, lone));
                flows += u64::from(cl.members);
            }
        }
        ctx.lap("net.fabric.phase.walk");
        if self.comp_classes.is_empty() {
            // Dirty links with no remaining flows (e.g. last flow on a
            // node pair finished): nothing to solve.
            return;
        }
        let (rounds_before, visits_before) = (self.solver.rounds(), self.solver.entry_visits());
        let rates = self.solver.solve();
        ctx.stats().incr("net.solver_calls");
        ctx.stats().add("net.comp_flow_visits", flows);
        ctx.stats()
            .add("net.comp_class_visits", self.comp_classes.len() as u64);
        ctx.lap("net.fabric.phase.solve");
        // Per member, exactly what a per-flow walk did: settle to `now`
        // even at an unchanged rate (two partial settles round differently
        // from one), re-project only on a change.
        for (&(c, lone), &new_rate) in self.comp_classes.iter().zip(rates) {
            let mut reprice = |slot: u32| {
                let h = &mut self.hot[slot as usize];
                let dt = (now - h.updated_at).as_secs_f64();
                if dt > 0.0 {
                    h.remaining -= h.rate * dt;
                }
                h.updated_at = now;
                if new_rate != h.rate {
                    h.rate = new_rate;
                    h.gen = h.gen.wrapping_add(1);
                    if new_rate > 0.0 {
                        let delay = SimDuration::from_secs_f64(h.remaining / new_rate)
                            .max(SimDuration::from_nanos(1));
                        let (at, id, gen) = (now + delay, h.id, h.gen);
                        self.completions.push(Done { at, id, gen, slot });
                    }
                }
            };
            if lone != NONE {
                reprice(lone);
            } else {
                let cl = &self.classes[c as usize];
                reprice(cl.first);
                let rest = &self.spill[c as usize];
                rest.iter().for_each(|&slot| reprice(slot));
            }
        }
        ctx.stats()
            .add("net.solver_rounds", self.solver.rounds() - rounds_before);
        ctx.stats().add(
            "net.solver_entry_visits",
            self.solver.entry_visits() - visits_before,
        );
        ctx.lap("net.fabric.phase.write_back");
    }

    /// Re-arms the completion timer at the earliest valid projected finish,
    /// *reusing* the armed timer when that instant is unchanged.
    fn rearm(&mut self, ctx: &mut Ctx<'_>) {
        let next = loop {
            match self.completions.peek() {
                None => break None,
                Some(&Done { at, id, gen, slot }) => {
                    let h = &self.hot[slot as usize];
                    if h.id == id && h.gen == gen {
                        break Some(at);
                    }
                    self.completions.pop();
                }
            }
        };
        match next {
            None => {
                if let Some((t, _)) = self.timer.take() {
                    ctx.cancel_timer(t);
                }
            }
            Some(at) => {
                let t = match self.timer {
                    Some((_, armed_at)) if armed_at == at => {
                        return; // timer reuse: nothing to move, nothing to queue
                    }
                    // Deadline moved: reschedule in place (order-identical
                    // to cancel + re-arm, no slot churn).
                    Some((t, _)) => ctx.reschedule_at(t, at, TAG_COMPLETE),
                    None => ctx.after_at(at, TAG_COMPLETE),
                };
                self.timer = Some((t, at));
            }
        }
    }

    /// Completes what is due, re-prices what got dirty, re-arms the timer.
    fn advance(&mut self, ctx: &mut Ctx<'_>, now: SimTime) {
        self.settle_due(ctx, now);
        ctx.lap("net.fabric.phase.settle");
        self.resolve_dirty(ctx, now);
        self.rearm(ctx);
        ctx.lap("net.fabric.phase.rearm");
        let mut qs = QueueStats::default();
        self.completions.report(&mut qs);
        ctx.stats()
            .add("net.completion_rungs_spawned", qs.rungs_spawned);
        ctx.stats()
            .raise("net.completion_peak_cur_len", qs.peak_cur_len);
        ctx.stats()
            .raise("net.completion_peak_slots", qs.peak_slots);
        ctx.stats().raise(
            "net.completion_peak_bytes",
            qs.peak_slots * size_of::<Done>() as u64,
        );
        // The slab never shrinks: its capacities now are its peak.
        ctx.stats().raise(
            "net.flow_slab_peak_bytes",
            (self.hot.capacity() * size_of::<FlowHot>()
                + self.cold.capacity() * size_of::<FlowCold>()) as u64,
        );
        #[cfg(debug_assertions)]
        self.debug_check_link_index();
    }

    /// Link-index invariant: every `link_classes` entry points at a live
    /// class recording that position for that link; every member of a live
    /// class is a live flow recording that class and index; members add up
    /// to the live flows; and the map and the free list between them
    /// account for every class slot — so every live flow is reachable from
    /// each link it crosses, exactly once.
    #[cfg(debug_assertions)]
    fn debug_check_link_index(&self) {
        let mut entries = 0;
        for (l, v) in self.link_classes.iter().enumerate() {
            for (p, &c) in v.iter().enumerate() {
                let cl = &self.classes[c as usize];
                let k = cl.nth(LinkId(l));
                assert!(
                    cl.members != 0
                        && cl.links().nth(k) == Some(LinkId(l))
                        && cl.pos[k] as usize == p,
                    "link {l} entry {p} -> class {c}: not a live class recording that position"
                );
            }
            entries += v.len();
        }
        let (mut members, mut routed, mut vacant) = (0, 0, 0);
        for (c, cl) in self.classes.iter().enumerate() {
            assert_eq!(
                self.spill[c].len(),
                cl.members.saturating_sub(1) as usize,
                "class {c}: spill holds every member but the first"
            );
            if cl.members == 0 {
                vacant += 1;
                continue;
            }
            assert_eq!(self.class_ids.get(&cl.key()), Some(&(c as u32)));
            for (i, slot) in self.members(c as u32).enumerate() {
                let h = &self.hot[slot as usize];
                assert!(
                    h.id != u64::MAX && (h.class as usize, h.idx as usize) == (c, i),
                    "class {c} member {i} -> slot {slot}: not a live flow recording that place"
                );
            }
            members += cl.members as usize;
            routed += cl.links().count();
        }
        assert_eq!(routed, entries);
        assert_eq!(vacant, self.free_classes.len());
        assert_eq!(self.classes.len() - vacant, self.class_ids.len());
        assert_eq!(members, self.live_flows);
        let live = self.hot.iter().filter(|h| h.id != u64::MAX).count();
        assert_eq!(live, self.live_flows);
        assert_eq!(self.hot.len() - self.free_slots.len(), self.live_flows);
    }

    /// Applies [`AbortNode`]: every flow touching `node` ends now, with
    /// [`FlowAborted`] unless it has effectively landed.
    fn abort_node(&mut self, ctx: &mut Ctx<'_>, now: SimTime, node: NodeId) {
        // Flows finishing exactly now complete rather than abort.
        self.settle_due(ctx, now);
        // A flow touches `node` iff its class is indexed on one of the
        // node's three links (loopback for src == dst, otherwise tx at
        // the source and rx at the destination — so each victim appears
        // on exactly one of them). Consulting the persistent
        // link→classes index makes a crash O(degree of the node), not
        // O(all flows): under 1000-node churn a crash must not scan the
        // whole wire.
        let mut dead: Vec<(u64, u32)> = Vec::new();
        if node.index() < self.tx.len() {
            for l in [
                self.tx[node.index()],
                self.rx[node.index()],
                self.loopback[node.index()],
            ] {
                for &c in &self.link_classes[l.0] {
                    let members = self.members(c);
                    dead.extend(members.map(|slot| (self.hot[slot as usize].id, slot)));
                }
            }
        }
        ctx.stats()
            .add("net.abort_flows_scanned", dead.len() as u64);
        // Link and member lists are insertion/swap_remove ordered; sort so
        // the abort notifications fire in flow-id order (determinism).
        dead.sort_unstable();
        for (_, slot) in dead {
            let (mut h, c) = self.remove_flow(slot);
            // A flow settled to within EPS of done may still hold a completion
            // entry a nanosecond out (timer quantization): deliver
            // FlowDone rather than abort a transfer that has effectively
            // landed (the oracle's elapse-before-abort does the same).
            let dt = (now - h.updated_at).as_secs_f64();
            if dt > 0.0 {
                h.remaining -= h.rate * dt;
            }
            if h.remaining <= EPS_BYTES {
                ctx.stats().add("net.flow_bytes_done", c.total);
                ctx.stats().incr("net.flows_done");
                Self::deliver_done(ctx, c.notify, c.tag, c.total, c.on_done);
            } else {
                ctx.stats().incr("net.flows_aborted");
                ctx.send(c.notify, FlowAborted { tag: c.tag });
            }
        }
        #[cfg(debug_assertions)]
        self.debug_check_link_index();
        self.request_resolve(ctx);
    }
}

impl Actor for Fabric {
    fn name(&self) -> String {
        "net.fabric".into()
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let now = ctx.now();
        match ev {
            Event::Start => {}
            Event::Timer {
                tag: TAG_RESOLVE, ..
            } => {
                self.resolve_pending = false;
                self.advance(ctx, now);
            }
            Event::Timer { .. } => {
                self.timer = None;
                self.advance(ctx, now);
            }
            Event::Msg { msg } => match FabricInbox::decode(msg) {
                FabricInbox::Unicast(u) => {
                    ctx.stats().incr("net.rpcs");
                    ctx.stats().add("net.rpc_bytes", u.bytes);
                    let delay = rpc_delay(u.bytes);
                    ctx.send_boxed(u.to, u.payload, delay);
                }
                FabricInbox::EnsureNode(grow) => {
                    // Links are appended, nothing is re-priced.
                    let added = self.ensure_node(grow.node);
                    ctx.stats().add("net.nodes_added", added as u64);
                }
                FabricInbox::SetNodeBandwidth(set) => {
                    self.set_node_bandwidth(ctx, set.node, set.factor);
                }
                FabricInbox::StartFlow(req) => {
                    if req.bytes == 0 {
                        Self::deliver_done(ctx, req.notify, req.tag, 0, req.on_done);
                    } else {
                        self.insert_flow(ctx, now, *req);
                        self.request_resolve(ctx);
                        ctx.lap("net.fabric.phase.start");
                    }
                }
                FabricInbox::AbortNode(abort) => self.abort_node(ctx, now, abort.node),
            },
        }
    }
}

accelmr_des::inbox! {
    /// What the fabric receives, in the order `decode` tries it; the
    /// test-only oracle receives the same.
    pub(crate) enum FabricInbox { Unicast, EnsureNode, SetNodeBandwidth, StartFlow, AbortNode }
}

/// Cheap copyable handle other actors use to talk to the fabric.
#[derive(Clone, Copy, Debug)]
pub struct NetHandle {
    /// The fabric actor.
    pub fabric: ActorId,
}

impl NetHandle {
    /// Sends a control RPC of `bytes` to actor `to`, delivered
    /// [`rpc_delay`]`(bytes)` after the fabric receives it.
    pub fn unicast(self, ctx: &mut Ctx<'_>, to: ActorId, bytes: u64, payload: impl Msg) {
        let payload = Box::new(payload);
        ctx.send(self.fabric, Unicast { to, bytes, payload });
    }

    /// Starts a bulk flow; the *calling* actor receives [`FlowDone`] /
    /// [`FlowAborted`] tagged with `tag`.
    pub fn start_flow(
        self,
        ctx: &mut Ctx<'_>,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        cap_bytes_per_sec: Option<f64>,
        tag: u64,
    ) {
        let notify = ctx.self_id();
        ctx.send(
            self.fabric,
            StartFlow {
                src,
                dst,
                bytes,
                cap_bytes_per_sec,
                notify,
                tag,
                on_done: None,
            },
        );
    }

    /// Starts a bulk flow that delivers `payload` to `notify` on
    /// completion (aborts still deliver [`FlowAborted`] with `tag`).
    #[expect(
        clippy::too_many_arguments,
        reason = "mirrors the StartFlow message field for field"
    )]
    pub fn start_flow_with(
        self,
        ctx: &mut Ctx<'_>,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        cap_bytes_per_sec: Option<f64>,
        notify: ActorId,
        tag: u64,
        payload: impl Msg,
    ) {
        ctx.send(
            self.fabric,
            StartFlow {
                src,
                dst,
                bytes,
                cap_bytes_per_sec,
                notify,
                tag,
                on_done: Some(Box::new(payload)),
            },
        );
    }

    /// Aborts every flow touching `node`.
    pub fn abort_node(self, ctx: &mut Ctx<'_>, node: NodeId) {
        ctx.send(self.fabric, AbortNode { node });
    }

    /// Grows the fabric so `node` is routable (dynamic membership); a
    /// no-op for nodes already served.
    pub fn ensure_node(self, ctx: &mut Ctx<'_>, node: NodeId) {
        ctx.send(self.fabric, EnsureNode { node });
    }

    /// Scales `node`'s NIC bandwidth by `factor` (see [`SetNodeBandwidth`]):
    /// `1.0` heals, `(0, 1)` degrades, `0.0` partitions — flows stall at
    /// rate 0 and resume when a later call restores capacity.
    pub fn set_node_bandwidth(self, ctx: &mut Ctx<'_>, node: NodeId, factor: f64) {
        ctx.send(self.fabric, SetNodeBandwidth { node, factor });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Engine;

    /// Drives a scripted set of flows and records completion times.
    struct Driver {
        net: NetHandle,
        flows: Vec<(u32, u32, u64, Option<f64>)>,
        done: Vec<(u64, f64)>,
        expected: usize,
    }

    impl Actor for Driver {
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            match ev {
                Event::Start => {
                    for (i, &(s, d, b, cap)) in self.flows.iter().enumerate() {
                        self.net
                            .start_flow(ctx, NodeId(s), NodeId(d), b, cap, i as u64);
                    }
                }
                Event::Msg { msg, .. } => {
                    if let Some(done) = msg.peek::<FlowDone>() {
                        self.done.push((done.tag, ctx.now().as_secs_f64()));
                        if self.done.len() == self.expected {
                            ctx.stop();
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Starts `flows` described as (src, dst, bytes, cap) at t=0 and records
    /// each completion time (tag → seconds). State is read back through
    /// `Sim::actor_mut` — no shared-cell smuggling.
    fn run_flows_on(engine: Engine, flows: Vec<(u32, u32, u64, Option<f64>)>) -> Vec<(u64, f64)> {
        let mut sim = Sim::new(0);
        let net = engine.spawn(&mut sim, 8);
        let expected = flows.len();
        let driver = sim.spawn(Box::new(Driver {
            net,
            flows,
            done: Vec::new(),
            expected,
        }));
        sim.run();
        std::mem::take(&mut sim.actor_mut::<Driver>(driver).expect("driver alive").done)
    }

    /// Runs the scenario on the fabric and on the oracle, asserts their
    /// completion times agree to the nanosecond-ish, and returns the
    /// fabric's result.
    fn run_flows(flows: Vec<(u32, u32, u64, Option<f64>)>) -> Vec<(u64, f64)> {
        let fabric = run_flows_on(Engine::Production, flows.clone());
        let reference = run_flows_on(Engine::Reference, flows);
        assert_eq!(fabric.len(), reference.len());
        for (tag, t) in &fabric {
            let (_, rt) = reference
                .iter()
                .find(|(rtag, _)| rtag == tag)
                .expect("tag completed on both engines");
            assert!(
                (t - rt).abs() < 1e-6,
                "tag {tag}: fabric={t} reference={rt}"
            );
        }
        fabric
    }

    #[test]
    fn single_flow_runs_at_link_rate() {
        let done = run_flows(vec![(1, 2, 125_000_000, None)]);
        assert_eq!(done.len(), 1);
        assert!((done[0].1 - 1.0).abs() < 1e-6, "t={}", done[0].1);
    }

    #[test]
    fn two_flows_share_source_uplink() {
        let done = run_flows(vec![(1, 2, 125_000_000, None), (1, 3, 125_000_000, None)]);
        assert_eq!(done.len(), 2);
        for (_, t) in &done {
            assert!((*t - 2.0).abs() < 1e-6, "t={t}");
        }
    }

    #[test]
    fn early_finisher_frees_bandwidth() {
        // Flow A: 125 MB, flow B: 62.5 MB on the same uplink. B finishes at
        // t=1 (62.5 MB at half rate), then A runs at full rate and finishes
        // at 1.5 s.
        let done = run_flows(vec![(1, 2, 125_000_000, None), (1, 3, 62_500_000, None)]);
        let a = done.iter().find(|(tag, _)| *tag == 0).unwrap().1;
        let b = done.iter().find(|(tag, _)| *tag == 1).unwrap().1;
        assert!((b - 1.0).abs() < 1e-6, "b={b}");
        assert!((a - 1.5).abs() < 1e-6, "a={a}");
    }

    #[test]
    fn per_stream_cap_binds_loopback() {
        // 85 MB over loopback capped at 8.5 MB/s: 10 s, far below the
        // device capacity — the paper's observed DataNode→TaskTracker path.
        let done = run_flows(vec![(4, 4, 85_000_000, Some(8.5e6))]);
        assert!((done[0].1 - 10.0).abs() < 1e-6, "t={}", done[0].1);
    }

    #[test]
    fn loopback_does_not_consume_nic_links() {
        // A capped loopback stream and a remote flow from the same node do
        // not interact.
        let done = run_flows(vec![
            (2, 2, 17_000_000, Some(8.5e6)),
            (2, 3, 125_000_000, None),
        ]);
        let lo = done.iter().find(|(tag, _)| *tag == 0).unwrap().1;
        let remote = done.iter().find(|(tag, _)| *tag == 1).unwrap().1;
        assert!((lo - 2.0).abs() < 1e-6);
        assert!((remote - 1.0).abs() < 1e-6);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let done = run_flows(vec![(1, 2, 0, None)]);
        assert_eq!(done.len(), 1);
        assert!(done[0].1 < 1e-9);
    }

    #[test]
    fn incast_shares_receiver_downlink() {
        // 4 senders to one receiver: each gets 1/4 of the rx link.
        let flows = (1..=4).map(|s| (s, 5, 125_000_000u64, None)).collect();
        let done = run_flows(flows);
        assert_eq!(done.len(), 4);
        for (_, t) in &done {
            assert!((*t - 4.0).abs() < 1e-6, "t={t}");
        }
    }

    #[test]
    fn coalescing_solves_a_burst_once() {
        // 16 flows started in one handler at t=0: the fabric runs ONE solve
        // for the burst; the oracle runs one per start. (Both also solve
        // per completion.)
        let solver_calls = |engine: Engine| {
            let mut sim = Sim::new(0);
            let net = engine.spawn(&mut sim, 8);
            let flows = (0..4)
                .flat_map(|s| (4..8).map(move |d| (s, d, 10_000_000u64, None)))
                .collect();
            sim.spawn(Box::new(Driver {
                net,
                flows,
                done: Vec::new(),
                expected: 16,
            }));
            sim.run();
            sim.stats().counter("net.solver_calls")
        };
        let fabric = solver_calls(Engine::Production);
        let reference = solver_calls(Engine::Reference);
        // All 16 flows are symmetric and finish at the same instant: one
        // solve for the start burst + one resolve per completion batch.
        assert!(
            fabric < reference / 2,
            "fabric={fabric} reference={reference}"
        );
        assert!(fabric <= 3, "burst not coalesced: {fabric} solves");
    }

    #[test]
    fn disjoint_components_do_not_reprice_each_other() {
        // A long flow on nodes (1,2) and staggered traffic on (3,4): the
        // (1,2) flow's rate never changes, so the fabric must
        // not touch it — observable via its completion staying exact while
        // solver work stays component-local.
        let done = run_flows(vec![
            (1, 2, 250_000_000, None), // 2 s alone on its pair
            (3, 4, 125_000_000, None), // 1 s on a disjoint pair
        ]);
        let a = done.iter().find(|(tag, _)| *tag == 0).unwrap().1;
        let b = done.iter().find(|(tag, _)| *tag == 1).unwrap().1;
        assert!((a - 2.0).abs() < 1e-6, "a={a}");
        assert!((b - 1.0).abs() < 1e-6, "b={b}");
    }

    #[test]
    fn unicast_delivers_after_rpc_delay() {
        #[derive(Debug)]
        struct Hello(u32);

        struct Receiver;
        impl Actor for Receiver {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                if let Event::Msg { msg, .. } = ev {
                    if let Some(h) = msg.peek::<Hello>() {
                        assert_eq!(h.0, 7);
                        let t = ctx.now();
                        assert_eq!(t, SimTime::ZERO + rpc_delay(1000));
                        ctx.stats().incr("got_hello");
                    }
                }
            }
        }
        struct Sender {
            net: NetHandle,
            to: ActorId,
        }
        impl Actor for Sender {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                if matches!(ev, Event::Start) {
                    self.net.unicast(ctx, self.to, 1000, Hello(7));
                }
            }
        }

        for engine in Engine::BOTH {
            let mut sim = Sim::new(0);
            let net = engine.spawn(&mut sim, 4);
            let to = sim.spawn(Box::new(Receiver));
            sim.spawn(Box::new(Sender { net, to }));
            sim.run();
            let stats = sim.stats();
            assert_eq!(stats.counter("got_hello"), 1, "{engine:?}");
            assert_eq!(stats.counter("net.rpcs"), 1, "{engine:?}");
            assert_eq!(stats.counter("net.rpc_bytes"), 1000, "{engine:?}");
        }
    }

    #[test]
    fn abort_node_kills_touching_flows() {
        struct AbortDriver {
            net: NetHandle,
            aborted: u32,
        }
        impl Actor for AbortDriver {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                match ev {
                    Event::Start => {
                        self.net
                            .start_flow(ctx, NodeId(1), NodeId(2), 125_000_000, None, 0);
                        self.net
                            .start_flow(ctx, NodeId(3), NodeId(1), 125_000_000, None, 1);
                        self.net
                            .start_flow(ctx, NodeId(3), NodeId(4), 125_000_000, None, 2);
                        ctx.after(SimDuration::from_millis(100), 9);
                    }
                    Event::Timer { tag: 9, .. } => {
                        self.net.abort_node(ctx, NodeId(1));
                    }
                    Event::Msg { msg, .. } => {
                        if msg.peek::<FlowAborted>().is_some() {
                            self.aborted += 1;
                            ctx.stats().incr("aborted");
                        } else if let Some(d) = msg.peek::<FlowDone>() {
                            assert_eq!(d.tag, 2);
                            ctx.stats().incr("survived");
                        }
                    }
                    _ => {}
                }
            }
        }
        for engine in Engine::BOTH {
            let mut sim = Sim::new(0);
            let net = engine.spawn(&mut sim, 6);
            sim.spawn(Box::new(AbortDriver { net, aborted: 0 }));
            sim.run();
            assert_eq!(sim.stats().counter("aborted"), 2, "{engine:?}");
            assert_eq!(sim.stats().counter("survived"), 1, "{engine:?}");
        }
    }

    /// Satellite regression: a node crash consults the link→classes index,
    /// not the whole flow table. 256-node shuffle-style burst, one crash:
    /// the fabric scans only the victim's flows while the oracle scans
    /// all of them — and both abort the same set.
    #[test]
    fn abort_scan_is_link_indexed() {
        const NODES: u32 = 256;
        const FANIN: u32 = 16;
        struct CrashDriver {
            net: NetHandle,
            aborted: u64,
            done: u64,
        }
        impl Actor for CrashDriver {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                match ev {
                    Event::Start => {
                        // Every reducer pulls from FANIN mapper nodes at
                        // one instant — the shuffle-wave shape.
                        let mut tag = 0;
                        for r in 0..NODES {
                            for i in 0..FANIN {
                                let s = (r + 1 + i * 3) % NODES;
                                self.net.start_flow(
                                    ctx,
                                    NodeId(s),
                                    NodeId(r),
                                    64 << 20,
                                    Some(20.0e6),
                                    tag,
                                );
                                tag += 1;
                            }
                        }
                        ctx.after(SimDuration::from_millis(50), 9);
                    }
                    Event::Timer { tag: 9, .. } => self.net.abort_node(ctx, NodeId(1)),
                    Event::Msg { msg, .. } => {
                        if msg.peek::<FlowAborted>().is_some() {
                            self.aborted += 1;
                        } else if msg.peek::<FlowDone>().is_some() {
                            self.done += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
        let run = |engine: Engine| {
            let mut sim = Sim::new(11);
            let net = engine.spawn(&mut sim, NODES as usize);
            let d = sim.spawn(Box::new(CrashDriver {
                net,
                aborted: 0,
                done: 0,
            }));
            sim.run();
            let driver = sim.actor_ref::<CrashDriver>(d).expect("driver");
            (
                driver.aborted,
                driver.done,
                sim.stats().counter("net.abort_flows_scanned"),
            )
        };
        let (incr_aborted, incr_done, incr_scanned) = run(Engine::Production);
        let (ref_aborted, ref_done, ref_scanned) = run(Engine::Reference);
        let total = u64::from(NODES * FANIN);
        // Same victims on both engines; everything else completes.
        assert_eq!(incr_aborted, ref_aborted);
        assert_eq!(incr_done, ref_done);
        assert_eq!(incr_aborted + incr_done, total);
        // Node 1 touches FANIN inbound flows plus its outbound fan — far
        // fewer than the 4096-flow wave.
        assert_eq!(incr_scanned, incr_aborted, "index walk visits victims only");
        assert_eq!(ref_scanned, total, "reference scans every active flow");
        assert!(
            incr_scanned * 10 < ref_scanned,
            "abort not index-driven: scanned {incr_scanned} of {ref_scanned}"
        );
    }

    /// Dynamic membership at the fabric level: a node added mid-run is
    /// routable, shares links fairly, and both engines agree on timings.
    #[test]
    fn grown_node_carries_flows() {
        struct GrowDriver {
            net: NetHandle,
            done: Vec<(u64, f64)>,
        }
        impl Actor for GrowDriver {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                match ev {
                    Event::Start => {
                        self.net
                            .start_flow(ctx, NodeId(0), NodeId(1), 125_000_000, None, 0);
                        ctx.after(SimDuration::from_millis(500), 1);
                    }
                    Event::Timer { tag: 1, .. } => {
                        // Join node 4 (fabric was built for 2), then pull
                        // from it into the busy receiver: the two flows
                        // share node 1's downlink from t=0.5 s.
                        self.net.ensure_node(ctx, NodeId(4));
                        self.net
                            .start_flow(ctx, NodeId(4), NodeId(1), 125_000_000, None, 1);
                    }
                    Event::Msg { msg, .. } => {
                        if let Some(done) = msg.peek::<FlowDone>() {
                            self.done.push((done.tag, ctx.now().as_secs_f64()));
                            if self.done.len() == 2 {
                                ctx.stop();
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        for engine in Engine::BOTH {
            let mut sim = Sim::new(5);
            let net = engine.spawn(&mut sim, 2);
            let d = sim.spawn(Box::new(GrowDriver {
                net,
                done: Vec::new(),
            }));
            sim.run();
            assert_eq!(sim.stats().counter("net.nodes_added"), 3, "{engine:?}");
            let done = &sim.actor_ref::<GrowDriver>(d).expect("driver").done;
            // Flow 0: 0.5 s alone + 1 s shared (62.5 MB left at half rate)
            // → finishes at 1.5 s; flow 1 then runs alone, finishing its
            // remaining 62.5 MB at full rate: 1.5 + 0.5 = 2.0 s.
            let t0 = done.iter().find(|(t, _)| *t == 0).unwrap().1;
            let t1 = done.iter().find(|(t, _)| *t == 1).unwrap().1;
            assert!((t0 - 1.5).abs() < 1e-6, "{engine:?} t0={t0}");
            assert!((t1 - 2.0).abs() < 1e-6, "{engine:?} t1={t1}");
        }
    }

    /// Chaos-plane primitive: a partition stalls flows (no abort, no
    /// completion) and a heal lets them finish with the stalled window
    /// added to their transfer time — identically on both engines.
    #[test]
    fn partition_stalls_and_heal_resumes() {
        struct PartitionDriver {
            net: NetHandle,
            done: Vec<(u64, f64)>,
            aborted: u32,
        }
        impl Actor for PartitionDriver {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                match ev {
                    Event::Start => {
                        // 1 s transfer through node 2; a disjoint 1 s
                        // control flow shows the partition is node-local.
                        self.net
                            .start_flow(ctx, NodeId(1), NodeId(2), 125_000_000, None, 0);
                        self.net
                            .start_flow(ctx, NodeId(3), NodeId(4), 125_000_000, None, 1);
                        ctx.after(SimDuration::from_millis(500), 1);
                    }
                    Event::Timer { tag: 1, .. } => {
                        self.net.set_node_bandwidth(ctx, NodeId(2), 0.0);
                        ctx.after(SimDuration::from_secs(2), 2);
                    }
                    Event::Timer { tag: 2, .. } => self.net.set_node_bandwidth(ctx, NodeId(2), 1.0),
                    Event::Msg { msg, .. } => {
                        if let Some(done) = msg.peek::<FlowDone>() {
                            self.done.push((done.tag, ctx.now().as_secs_f64()));
                        } else if msg.peek::<FlowAborted>().is_some() {
                            self.aborted += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
        for engine in Engine::BOTH {
            let mut sim = Sim::new(0);
            let net = engine.spawn(&mut sim, 6);
            let d = sim.spawn(Box::new(PartitionDriver {
                net,
                done: Vec::new(),
                aborted: 0,
            }));
            sim.run();
            let driver = sim.actor_ref::<PartitionDriver>(d).expect("driver");
            assert_eq!(driver.aborted, 0, "{engine:?}: partitions must not abort");
            let t0 = driver.done.iter().find(|(t, _)| *t == 0).unwrap().1;
            let t1 = driver.done.iter().find(|(t, _)| *t == 1).unwrap().1;
            // Flow 1 never crosses node 2: unaffected, finishes at 1 s.
            assert!((t1 - 1.0).abs() < 1e-6, "{engine:?} t1={t1}");
            // Flow 0: 0.5 s of progress, 2 s stalled, 0.5 s to finish.
            assert!((t0 - 3.0).abs() < 1e-6, "{engine:?} t0={t0}");
            assert_eq!(sim.stats().counter("net.partitions_healed"), 1);
            assert_eq!(sim.stats().counter("net.partitions_started"), 1);
        }
    }

    /// Degraded (gray) links re-price on both engines: halving a
    /// receiver's bandwidth mid-transfer stretches exactly the remaining
    /// bytes, and a redundant factor write is a no-op.
    #[test]
    fn degraded_bandwidth_reprices_flows() {
        struct DegradeDriver {
            net: NetHandle,
            done: Vec<(u64, f64)>,
        }
        impl Actor for DegradeDriver {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                match ev {
                    Event::Start => {
                        self.net
                            .start_flow(ctx, NodeId(1), NodeId(2), 125_000_000, None, 0);
                        ctx.after(SimDuration::from_millis(500), 1);
                    }
                    Event::Timer { tag: 1, .. } => {
                        self.net.set_node_bandwidth(ctx, NodeId(2), 0.5);
                        // Same factor again: must not perturb anything.
                        self.net.set_node_bandwidth(ctx, NodeId(2), 0.5);
                    }
                    Event::Msg { msg, .. } => {
                        if let Some(done) = msg.peek::<FlowDone>() {
                            self.done.push((done.tag, ctx.now().as_secs_f64()));
                            ctx.stop();
                        }
                    }
                    _ => {}
                }
            }
        }
        for engine in Engine::BOTH {
            let mut sim = Sim::new(0);
            let net = engine.spawn(&mut sim, 4);
            let d = sim.spawn(Box::new(DegradeDriver {
                net,
                done: Vec::new(),
            }));
            sim.run();
            let driver = sim.actor_ref::<DegradeDriver>(d).expect("driver");
            // 0.5 s at full rate, then 62.5 MB at half rate = 1 s more.
            let t0 = driver.done[0].1;
            assert!((t0 - 1.5).abs() < 1e-6, "{engine:?} t0={t0}");
            assert_eq!(sim.stats().counter("net.partitions_healed"), 0);
        }
    }

    /// Same seed, same event stream — and profiling (the per-actor clock
    /// and the fabric's `net.fabric.phase.*` laps) is write-only: it fills
    /// its rows and moves no event.
    #[test]
    fn deterministic_under_seed() {
        let fp = |engine: Engine, profiled: bool| {
            let mut sim = Sim::new(3);
            sim.enable_trace(1 << 12);
            if profiled {
                sim.enable_profiling();
            }
            let net = engine.spawn(&mut sim, 8);
            struct D {
                net: NetHandle,
            }
            impl Actor for D {
                fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                    if matches!(ev, Event::Start) {
                        for i in 0..20u64 {
                            let s = NodeId((i % 7) as u32);
                            let d = NodeId(((i * 3 + 1) % 8) as u32);
                            self.net.start_flow(ctx, s, d, 1_000_000 * (i + 1), None, i);
                        }
                    }
                }
            }
            sim.spawn(Box::new(D { net }));
            sim.run();
            let laps: Vec<(String, u64)> = sim
                .stats()
                .lap_costs()
                .into_iter()
                .map(|c| (c.class, c.events))
                .collect();
            (sim.trace().fingerprint(), laps)
        };
        for engine in Engine::BOTH {
            let (plain, no_laps) = fp(engine, false);
            assert_eq!(plain, fp(engine, false).0, "{engine:?}");
            assert_eq!(
                plain,
                fp(engine, true).0,
                "{engine:?}: profiling moved an event"
            );
            assert!(no_laps.is_empty(), "{engine:?}: laps charged unprofiled");
        }
        // One `start` lap per flow, settle / rearm per advance, walk /
        // solve / write_back per advance that had something to re-price.
        let laps = fp(Engine::Production, true).1;
        let names: Vec<&str> = laps.iter().map(|(n, _)| n.as_str()).collect();
        let phases = ["rearm", "settle", "solve", "start", "walk", "write_back"];
        assert_eq!(names, phases.map(|p| format!("net.fabric.phase.{p}")));
        let count = |phase: &str| laps.iter().find(|(n, _)| n.ends_with(phase)).unwrap().1;
        assert_eq!(count("start"), 20);
        assert_eq!(count("settle"), count("rearm"));
        assert_eq!(count("solve"), count("write_back"));
        assert!(count("solve") <= count("walk") && count("walk") <= count("settle"));
    }

    /// The record sizes the layout argument rests on: a flow's hot state
    /// without route, cap, link positions or walk stamp, a class in half a
    /// cache line, and a queued completion in 24 bytes (a run holds
    /// hundreds of thousands).
    #[test]
    fn hot_records_stay_compact() {
        assert!(std::mem::size_of::<FlowHot>() <= 56);
        assert_eq!(std::mem::size_of::<RouteClass>(), 32);
        assert_eq!(std::mem::size_of::<Done>(), 24);
        assert_eq!(std::mem::size_of::<FlowCold>(), 40);
    }

    /// Directed class-membership case: three flows over one route at one
    /// cap are one class; the middle member completes first (the last
    /// member moves into its place), then the source node crashes and the
    /// two survivors abort in flow-id order. Same outcome on the oracle.
    #[test]
    fn class_of_three_loses_its_middle_member_then_its_node_aborts() {
        #[derive(Default)]
        struct Outcome {
            done: Vec<(u64, u64)>,
            aborted: Vec<(u64, u64)>,
        }
        struct D {
            net: NetHandle,
            seen: Outcome,
        }
        impl Actor for D {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                let now = ctx.now().as_nanos();
                match ev {
                    Event::Start => {
                        for (tag, mb) in [(0, 100), (1, 10), (2, 100)] {
                            self.net.start_flow(
                                ctx,
                                NodeId(1),
                                NodeId(2),
                                mb * 1_000_000,
                                None,
                                tag,
                            );
                        }
                        ctx.after(SimDuration::from_millis(500), 9);
                    }
                    Event::Timer { .. } => self.net.abort_node(ctx, NodeId(1)),
                    Event::Msg { msg, .. } => {
                        if let Some(d) = msg.peek::<FlowDone>() {
                            self.seen.done.push((d.tag, now));
                        } else if let Some(a) = msg.peek::<FlowAborted>() {
                            self.seen.aborted.push((a.tag, now));
                        }
                    }
                }
            }
        }
        for engine in Engine::BOTH {
            let mut sim = Sim::new(0);
            let net = engine.spawn(&mut sim, 4);
            let d = sim.spawn(Box::new(D {
                net,
                seen: Outcome::default(),
            }));
            // Three equal shares of 125 MB/s: the 10 MB flow lands at 0.24 s.
            sim.run_until(SimTime::from_nanos(300_000_000));
            if let Some(f) = sim.actor_ref::<Fabric>(net.fabric) {
                assert_eq!(f.class_ids.len(), 1);
                // Slots 0, 1, 2 in start order; 2 took 1's place.
                assert_eq!(f.members(0).collect::<Vec<_>>(), [0, 2]);
                assert_eq!((f.hot[2].class, f.hot[2].idx), (0, 1));
                assert_eq!(f.hot[1].id, u64::MAX);
            }
            sim.run();
            let seen = &sim.actor_ref::<D>(d).expect("driver").seen;
            assert_eq!(seen.done, [(1, 240_000_000)], "{engine:?}");
            assert_eq!(
                seen.aborted,
                [(0, 500_000_000), (2, 500_000_000)],
                "{engine:?}"
            );
            if let Some(f) = sim.actor_ref::<Fabric>(net.fabric) {
                assert!(f.class_ids.is_empty() && f.live_flows == 0);
                assert_eq!(f.free_classes, [0]);
            }
        }
    }

    /// The walk's epoch counter wraps after 2^32 resolves; the reset that
    /// follows must clear class stamps, or a class last visited at epoch 1
    /// looks already-visited at the new epoch 1 and keeps a stale rate.
    #[test]
    fn epoch_wrap_clears_class_marks() {
        let mut sim = Sim::new(0);
        let fabric = sim.spawn(Box::new(Fabric::new(NetConfig::default(), 4)));
        let driver = sim.spawn(Box::new(WaveDriver {
            net: NetHandle { fabric },
            script: vec![(0, 1, 2, 125_000_000, None), (500, 1, 3, 125_000_000, None)],
            issued: 0,
            done: Vec::new(),
            expected: 2,
        }));
        sim.run_until(SimTime::from_nanos(250_000_000));
        let f = sim.actor_mut::<Fabric>(fabric).expect("fabric");
        assert_eq!((f.epoch, f.classes[0].mark), (1, 1));
        f.epoch = u32::MAX;
        sim.run();
        let f = sim.actor_ref::<Fabric>(fabric).expect("fabric");
        assert!(f.epoch < 8, "epoch restarted: {}", f.epoch);
        // The second flow halves the first's share of node 1's uplink from
        // 0.5 s: 1.5 s and 2.0 s. With the stale stamp the first flow is
        // left out of that solve and lands at 1.0 s.
        let done = &sim.actor_ref::<WaveDriver>(driver).expect("driver").done;
        assert_eq!(done, &[(0, 1_500_000_000), (1, 2_000_000_000)]);
    }

    /// Burst driver for the randomized equivalence test: starts waves of
    /// flows at scripted instants, then records every completion.
    struct WaveDriver {
        net: NetHandle,
        /// (start_ms, src, dst, bytes, cap)
        script: Vec<(u64, u32, u32, u64, Option<f64>)>,
        issued: usize,
        done: Vec<(u64, u64)>, // (tag, completion ns)
        expected: usize,
    }

    impl WaveDriver {
        fn issue_due(&mut self, ctx: &mut Ctx<'_>) {
            let now_ms = ctx.now().as_nanos() / 1_000_000;
            while self.issued < self.script.len() && self.script[self.issued].0 <= now_ms {
                let (_, s, d, b, cap) = self.script[self.issued];
                self.net
                    .start_flow(ctx, NodeId(s), NodeId(d), b, cap, self.issued as u64);
                self.issued += 1;
            }
            if self.issued < self.script.len() {
                let next = SimTime::from_nanos(self.script[self.issued].0 * 1_000_000);
                ctx.after_at(next, 100);
            }
        }
    }

    impl Actor for WaveDriver {
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            match ev {
                Event::Start | Event::Timer { .. } => self.issue_due(ctx),
                Event::Msg { msg, .. } => {
                    if let Some(done) = msg.peek::<FlowDone>() {
                        self.done.push((done.tag, ctx.now().as_nanos()));
                        if self.done.len() == self.expected {
                            ctx.stop();
                        }
                    }
                }
            }
        }
    }

    /// A random `WaveDriver` script over 12 nodes — bursty starts (usually
    /// the same instant, sometimes a gap), mixed sizes, a quarter capped.
    fn random_bursts(
        rng: &mut Xoshiro256,
        n_flows: usize,
    ) -> Vec<(u64, u32, u32, u64, Option<f64>)> {
        let mut t_ms = 0u64;
        (0..n_flows)
            .map(|_| {
                if rng.next_below(3) == 0 {
                    t_ms += rng.next_below(400);
                }
                let s = rng.next_below(12) as u32;
                let d = rng.next_below(12) as u32;
                let bytes = 1_000_000 + rng.next_below(200_000_000);
                let capped = rng.next_below(4) == 0;
                let cap = capped.then(|| 4.0e6 * (1 + rng.next_below(10)) as f64);
                (t_ms, s, d, bytes, cap)
            })
            .collect()
    }

    /// Two terasort-style shuffle waves as a `WaveDriver` script: every
    /// reducer pulls from `min(nodes - 1, 16)` mapper nodes at one instant
    /// under the runtime's 20 MB/s stream cap, sizes skewed per reducer so
    /// each wave drains over ~`nodes` distinct instants, the second wave
    /// landing while the tail of the first is still draining.
    fn shuffle_waves(nodes: u32) -> Vec<(u64, u32, u32, u64, Option<f64>)> {
        const BASE: u64 = 8 << 20;
        let fanin = (nodes - 1).min(16);
        let mut script = Vec::new();
        for start_ms in [0, 1_000] {
            for r in 0..nodes {
                let bytes = BASE + u64::from(r % 16) * (BASE / 32);
                for i in 0..fanin {
                    let s = (r + 1 + i * 3) % nodes;
                    script.push((start_ms, s, r, bytes, Some(20.0e6)));
                }
            }
        }
        script
    }

    /// Property test at the fabric level: randomized bursts on a 12-node
    /// fabric, then shuffle waves at 16 and 64 nodes; the fabric's
    /// completion times must match the oracle's within 1e-6 s on every
    /// flow.
    #[test]
    fn engines_complete_identically_on_random_bursts() {
        let mut scripts: Vec<(usize, Vec<_>)> = (0..8u64)
            .map(|seed| {
                let mut rng = Xoshiro256::seed_from_u64(0xbeef ^ seed);
                let n_flows = 40 + rng.next_below(40) as usize;
                (12, random_bursts(&mut rng, n_flows))
            })
            .collect();
        scripts.extend([16, 64].map(|n| (n as usize, shuffle_waves(n))));
        for (case, (nodes, script)) in scripts.into_iter().enumerate() {
            let n_flows = script.len();
            let run = |engine: Engine| {
                let mut sim = Sim::new(case as u64);
                let net = engine.spawn(&mut sim, nodes);
                let driver = sim.spawn(Box::new(WaveDriver {
                    net,
                    script: script.clone(),
                    issued: 0,
                    done: Vec::new(),
                    expected: n_flows,
                }));
                sim.run();
                let mut done =
                    std::mem::take(&mut sim.actor_mut::<WaveDriver>(driver).unwrap().done);
                assert_eq!(done.len(), n_flows, "{engine:?} case {case}: flows lost");
                done.sort_unstable();
                done
            };
            let fabric = run(Engine::Production);
            let reference = run(Engine::Reference);
            for ((tag_a, t_a), (tag_b, t_b)) in fabric.iter().zip(reference.iter()) {
                assert_eq!(tag_a, tag_b);
                let da = *t_a as f64 / 1e9;
                let db = *t_b as f64 / 1e9;
                assert!(
                    (da - db).abs() < 1e-6,
                    "case {case} tag {tag_a}: fabric={da}s reference={db}s"
                );
            }
        }
    }

    /// The fabric-level face of the solver's order independence: the same
    /// flows started in a different order *within* each instant get
    /// different flow ids, link-list positions and component walk orders,
    /// yet every tag completes at the identical nanosecond.
    #[test]
    fn same_instant_start_order_does_not_move_completions() {
        for seed in 0..8u64 {
            let mut rng = Xoshiro256::seed_from_u64(0x5a4e ^ seed);
            let n_flows = 60 + rng.next_below(60) as usize;
            let script = random_bursts(&mut rng, n_flows);
            // `order[i]` is the script index issued i-th: a shuffle within
            // each same-instant group (the sort is stable on the instant).
            let mut order: Vec<usize> = (0..n_flows).collect();
            rng.shuffle(&mut order);
            order.sort_by_key(|&i| script[i].0);
            let run = |order: &[usize]| {
                let mut sim = Sim::new(seed);
                let fabric = sim.spawn(Box::new(Fabric::new(NetConfig::default(), 12)));
                let driver = sim.spawn(Box::new(WaveDriver {
                    net: NetHandle { fabric },
                    script: order.iter().map(|&i| script[i]).collect(),
                    issued: 0,
                    done: Vec::new(),
                    expected: n_flows,
                }));
                sim.run();
                // WaveDriver tags a flow with its issue index; map back.
                let mut done: Vec<(usize, u64)> = sim
                    .actor_ref::<WaveDriver>(driver)
                    .expect("driver")
                    .done
                    .iter()
                    .map(|&(tag, at)| (order[tag as usize], at))
                    .collect();
                assert_eq!(done.len(), n_flows, "seed {seed}: flows lost");
                done.sort_unstable();
                done
            };
            let in_order: Vec<usize> = (0..n_flows).collect();
            assert_ne!(order, in_order, "seed {seed}: shuffle was the identity");
            assert_eq!(run(&order), run(&in_order), "seed {seed}");
        }
    }

    /// One scripted action of the link-index churn test.
    #[derive(Clone, Copy)]
    enum Op {
        Start(u32, u32, u64, Option<f64>),
        Abort(u32),
        Bandwidth(u32, f64),
        Ensure(u32),
    }

    struct ChurnDriver {
        net: NetHandle,
        script: Vec<(u64, Op)>,
        next: usize,
        finished: u64,
    }

    impl Actor for ChurnDriver {
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            match ev {
                Event::Start | Event::Timer { .. } => {
                    let now_ms = ctx.now().as_nanos() / 1_000_000;
                    while let Some(&(at, op)) = self.script.get(self.next) {
                        if at > now_ms {
                            ctx.after_at(SimTime::from_nanos(at * 1_000_000), 100);
                            break;
                        }
                        self.next += 1;
                        match op {
                            Op::Start(s, d, bytes, cap) => {
                                self.net
                                    .start_flow(ctx, NodeId(s), NodeId(d), bytes, cap, 0)
                            }
                            Op::Abort(n) => self.net.abort_node(ctx, NodeId(n)),
                            Op::Bandwidth(n, f) => self.net.set_node_bandwidth(ctx, NodeId(n), f),
                            Op::Ensure(n) => self.net.ensure_node(ctx, NodeId(n)),
                        }
                    }
                }
                Event::Msg { msg, .. } => {
                    if msg.peek::<FlowDone>().is_some() || msg.peek::<FlowAborted>().is_some() {
                        self.finished += 1;
                    }
                }
            }
        }
    }

    /// Drives the class and link-index bookkeeping through everything that
    /// touches it — bursts, staggered completions, crashes, partitions and
    /// heals, growth, loopback routes, recycled flow and class slots — with
    /// `debug_check_link_index` run by the fabric after every advance and
    /// abort (debug builds), and a drained index at the end. Endpoints
    /// mostly come from a pool of four nodes and caps from two values, with
    /// the capped flows slow enough to overlap, so classes gain and lose
    /// members mid-life, empty, and are re-created. The oracle runs each
    /// script too: aborts, partitions, heals and growth under random
    /// interleaving must leave both with the same outcome.
    #[test]
    fn link_index_survives_random_churn() {
        for seed in 0..6u64 {
            let mut rng = Xoshiro256::seed_from_u64(0x11d3 ^ seed);
            let mut nodes = 6u32;
            let mut script = Vec::new();
            let mut started = 0u64;
            let mut t_ms = 0u64;
            for _ in 0..400 {
                if rng.next_below(4) == 0 {
                    t_ms += rng.next_below(40);
                }
                let node = rng.next_below(u64::from(nodes)) as u32;
                let op = match rng.next_below(20) {
                    0 => Op::Abort(node),
                    1 => Op::Bandwidth(node, [0.0, 0.3, 1.0][rng.next_below(3) as usize]),
                    2 => {
                        nodes += 1;
                        Op::Ensure(nodes - 1)
                    }
                    k => {
                        started += 1;
                        // One start in six is a loopback (single-link)
                        // route, one in six leaves the pool at one end.
                        let src = rng.next_below(4) as u32;
                        let dst = match k % 6 {
                            3 => src,
                            4 => node,
                            _ => rng.next_below(4) as u32,
                        };
                        let cap = (rng.next_below(2) == 0).then_some(2.0e6);
                        Op::Start(src, dst, 100_000 + rng.next_below(4_000_000), cap)
                    }
                };
                script.push((t_ms, op));
            }
            // Heal everything so stalled flows drain.
            script.extend((0..nodes).map(|n| (t_ms + 1, Op::Bandwidth(n, 1.0))));

            let run = |engine: Engine| {
                let mut sim = Sim::new(seed);
                let net = engine.spawn(&mut sim, 6);
                let driver = sim.spawn(Box::new(ChurnDriver {
                    net,
                    script: script.clone(),
                    next: 0,
                    finished: 0,
                }));
                let end = sim.run().end_time;
                let finished = sim
                    .actor_ref::<ChurnDriver>(driver)
                    .expect("driver")
                    .finished;
                assert_eq!(
                    finished, started,
                    "{engine:?} seed {seed}: every flow ends once"
                );
                let outcome = (
                    sim.stats().counter("net.flows_done"),
                    sim.stats().counter("net.flows_aborted"),
                    sim.stats().counter("net.flow_bytes_done"),
                    end,
                );
                (sim, net.fabric, outcome)
            };
            let (sim, fabric, outcome) = run(Engine::Production);
            let f = sim.actor_ref::<Fabric>(fabric).expect("fabric");
            #[cfg(debug_assertions)]
            f.debug_check_link_index();
            assert_eq!(f.live_flows, 0, "seed {seed}");
            assert!(f.link_classes.iter().all(Vec::is_empty), "seed {seed}");
            assert!(
                f.class_ids.is_empty(),
                "seed {seed}: a class outlived its flows"
            );
            assert_eq!(f.free_classes.len(), f.classes.len(), "seed {seed}");
            assert_eq!(f.free_slots.len(), f.hot.len(), "seed {seed}");
            assert!(
                (f.hot.len() as u64) < started,
                "seed {seed}: slots were never recycled ({} slots, {started} flows)",
                f.hot.len()
            );
            // Classes were shared (1.8-2.2 flows re-priced per solver
            // entry fed) and their slots recycled (fewer slots than
            // distinct (route, cap)s started).
            let visits = |name| sim.stats().counter(name);
            assert!(
                2 * visits("net.comp_flow_visits") > 3 * visits("net.comp_class_visits"),
                "seed {seed}: classes were hardly shared"
            );
            let keys: std::collections::BTreeSet<(u32, u32, bool)> = script
                .iter()
                .filter_map(|&(_, op)| match op {
                    Op::Start(s, d, _, cap) => Some((s, d, cap.is_some())),
                    _ => None,
                })
                .collect();
            assert!(
                f.classes.len() < keys.len(),
                "seed {seed}: class slots were never recycled ({} slots, {} keys)",
                f.classes.len(),
                keys.len()
            );
            // The oracle ends the same flows the same way at the same
            // nanosecond: (done, aborted, bytes done, end time) — and so
            // did the fabric before it had classes (one solver entry and
            // one link-list entry per flow), which recorded these.
            assert_eq!(run(Engine::Reference).2, outcome, "seed {seed}");
            const PER_FLOW_FABRIC: [(u64, u64, u64, u64); 6] = [
                (158, 175, 296_749_839, 3_986_785_000),
                (228, 110, 452_153_040, 3_810_679_500),
                (246, 82, 494_080_202, 4_416_109_000),
                (239, 94, 486_600_886, 3_909_147_000),
                (242, 95, 490_425_454, 4_181_430_500),
                (190, 154, 384_325_697, 3_703_230_500),
            ];
            let (done, aborted, bytes, end) = outcome;
            assert_eq!(
                (done, aborted, bytes, end.as_nanos()),
                PER_FLOW_FABRIC[seed as usize],
                "seed {seed}"
            );
        }
    }

    /// The invariant check is not vacuous: a class position that is off by
    /// one (what a `leave_class` that forgot to re-point the moved class
    /// leaves behind) trips it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not a live class recording that position")]
    fn link_index_check_catches_a_stale_position() {
        let mut sim = Sim::new(0);
        let fabric = sim.spawn(Box::new(Fabric::new(NetConfig::default(), 4)));
        sim.spawn(Box::new(Driver {
            net: NetHandle { fabric },
            flows: vec![(1, 2, 125_000_000, None), (1, 3, 125_000_000, None)],
            done: Vec::new(),
            expected: 2,
        }));
        sim.run_until(SimTime::from_nanos(1_000_000));
        let f = sim.actor_mut::<Fabric>(fabric).expect("fabric");
        f.debug_check_link_index();
        f.classes[1].pos[0] = 0;
        f.debug_check_link_index();
    }
}
