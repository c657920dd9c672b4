//! Test-only oracle for [`Fabric`]: the original fluid engine as a
//! standalone actor.
//!
//! [`ReferenceFabric`] answers the same messages (it decodes the fabric's
//! [`FabricInbox`]) and bumps the same `net.*` counters as the production
//! fabric, but does the work the obvious way: a `BTreeMap` flow table
//! swept in flow-id order, every flow's progress advanced on every event,
//! and one global [`max_min_rates`] solve over *all* active flows per flow
//! start, finish, abort or bandwidth change. It shares the link table and
//! the message types with [`Fabric`] and nothing else — no slab, no link
//! index, no completion heap, no coalescing — so a bug in any of those
//! cannot hide in the oracle too. Flow completion *times* agree with
//! [`Fabric`] within float epsilon; the event stream inside an instant does
//! not (the fabric defers its resolve, this actor solves per message).

use std::collections::BTreeMap;

use accelmr_des::prelude::*;

use crate::config::{rpc_delay, NetConfig, NodeId, LINK_BYTES_PER_SEC, LOOPBACK_BYTES_PER_SEC};
use crate::fabric::{
    Fabric, FabricInbox, FlowAborted, FlowDone, NetHandle, StartFlow, PARTITION_FACTOR,
};
use crate::flow::{max_min_rates, FlowDemand, LinkId, LinkTable};

/// Which implementation a both-engines test runs on.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Engine {
    Production,
    Reference,
}

impl Engine {
    pub(crate) const BOTH: [Engine; 2] = [Engine::Production, Engine::Reference];

    /// Spawns this engine's fabric actor for `nodes` machines.
    pub(crate) fn spawn(self, sim: &mut Sim, nodes: usize) -> NetHandle {
        let fabric = match self {
            Engine::Production => sim.spawn(Box::new(Fabric::new(NetConfig::default(), nodes))),
            Engine::Reference => sim.spawn(Box::new(ReferenceFabric::new(nodes))),
        };
        NetHandle { fabric }
    }
}

struct RefFlow {
    remaining: f64,
    rate: f64,
    demand: FlowDemand,
    src: NodeId,
    dst: NodeId,
    notify: ActorId,
    tag: u64,
    total: u64,
    on_done: Option<Box<dyn Msg>>,
}

const EPS_BYTES: f64 = 1e-3;

/// The oracle interconnect actor (see the module docs).
pub(crate) struct ReferenceFabric {
    links: LinkTable,
    tx: Vec<LinkId>,
    rx: Vec<LinkId>,
    loopback: Vec<LinkId>,
    /// Per-node NIC bandwidth factor (1.0 = healthy, 0.0 = partitioned).
    degrade: Vec<f64>,
    /// Active flows by monotonic id; every sweep walks ascending ids.
    flows: BTreeMap<u64, RefFlow>,
    next_flow_id: u64,
    timer: Option<TimerHandle>,
    /// Instant flow progress was last advanced to.
    last_update: SimTime,
}

impl ReferenceFabric {
    pub(crate) fn new(nodes: usize) -> Self {
        // Same link numbering as `Fabric::new` / `Fabric::ensure_node`, so
        // the global solve sees links in the order the fabric's would.
        let mut links = LinkTable::new();
        let mut per_node =
            |rate: f64| -> Vec<LinkId> { (0..nodes).map(|_| links.add(rate)).collect() };
        let tx = per_node(LINK_BYTES_PER_SEC);
        let rx = per_node(LINK_BYTES_PER_SEC);
        let loopback = per_node(LOOPBACK_BYTES_PER_SEC);
        ReferenceFabric {
            links,
            tx,
            rx,
            loopback,
            degrade: vec![1.0; nodes],
            flows: BTreeMap::new(),
            next_flow_id: 0,
            timer: None,
            last_update: SimTime::ZERO,
        }
    }

    fn ensure_node(&mut self, node: NodeId) -> usize {
        let before = self.tx.len();
        while self.tx.len() <= node.index() {
            self.tx.push(self.links.add(LINK_BYTES_PER_SEC));
            self.rx.push(self.links.add(LINK_BYTES_PER_SEC));
            self.loopback.push(self.links.add(LOOPBACK_BYTES_PER_SEC));
        }
        self.degrade.resize(self.tx.len(), 1.0);
        self.tx.len() - before
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

    /// Advances every flow to `now`, completing the finished ones in
    /// flow-id order.
    fn elapse(&mut self, ctx: &mut Ctx<'_>, now: SimTime) {
        let dt = (now - self.last_update).as_secs_f64();
        self.last_update = now;
        if dt > 0.0 {
            for f in self.flows.values_mut() {
                f.remaining -= f.rate * dt;
            }
        }
        let done: Vec<u64> = self
            .flows
            .iter()
            .filter(|(_, f)| f.remaining <= EPS_BYTES)
            .map(|(&id, _)| id)
            .collect();
        for id in done {
            let f = self.flows.remove(&id).expect("flow present");
            ctx.stats().add("net.flow_bytes_done", f.total);
            ctx.stats().incr("net.flows_done");
            Self::deliver_done(ctx, f.notify, f.tag, f.total, f.on_done);
        }
    }

    /// Re-solves rates over *all* flows and re-arms the completion timer
    /// at the earliest projected finish.
    fn reschedule(&mut self, ctx: &mut Ctx<'_>) {
        let old_timer = self.timer.take();
        if self.flows.is_empty() {
            if let Some(t) = old_timer {
                ctx.cancel_timer(t);
            }
            return;
        }
        let demands: Vec<FlowDemand> = self.flows.values().map(|f| f.demand.clone()).collect();
        let rates = max_min_rates(&self.links, &demands);
        ctx.stats().incr("net.solver_calls");
        let mut next = f64::INFINITY;
        for (f, rate) in self.flows.values_mut().zip(rates) {
            f.rate = rate;
            if rate > 0.0 {
                next = next.min(f.remaining / rate);
            }
        }
        if next.is_finite() {
            let delay = SimDuration::from_secs_f64(next).max(SimDuration::from_nanos(1));
            let at = ctx.now() + delay;
            self.timer = Some(match old_timer {
                Some(t) => ctx.reschedule_at(t, at, 0),
                None => ctx.after_at(at, 0),
            });
        } else if let Some(t) = old_timer {
            ctx.cancel_timer(t);
        }
    }

    fn start_flow(&mut self, ctx: &mut Ctx<'_>, req: StartFlow) {
        if req.bytes == 0 {
            Self::deliver_done(ctx, req.notify, req.tag, 0, req.on_done);
            return;
        }
        let links = if req.src == req.dst {
            vec![self.loopback[req.src.index()]]
        } else {
            vec![self.tx[req.src.index()], self.rx[req.dst.index()]]
        };
        self.flows.insert(
            self.next_flow_id,
            RefFlow {
                remaining: req.bytes as f64,
                rate: 0.0,
                demand: FlowDemand {
                    links,
                    cap: req.cap_bytes_per_sec.unwrap_or(f64::INFINITY),
                },
                src: req.src,
                dst: req.dst,
                notify: req.notify,
                tag: req.tag,
                total: req.bytes,
                on_done: req.on_done,
            },
        );
        self.next_flow_id += 1;
        ctx.stats().incr("net.flows_started");
    }

    /// Scans every active flow — O(F) per crash, where the fabric walks
    /// only the node's own links; `net.abort_flows_scanned` shows both.
    fn abort_node(&mut self, ctx: &mut Ctx<'_>, node: NodeId) {
        ctx.stats()
            .add("net.abort_flows_scanned", self.flows.len() as u64);
        let dead: Vec<u64> = self
            .flows
            .iter()
            .filter(|(_, f)| f.src == node || f.dst == node)
            .map(|(&id, _)| id)
            .collect();
        for id in dead {
            let f = self.flows.remove(&id).expect("flow present");
            ctx.stats().incr("net.flows_aborted");
            ctx.send(f.notify, FlowAborted { tag: f.tag });
        }
    }

    /// Returns whether the node's capacity changed (and a re-solve is due).
    fn set_node_bandwidth(&mut self, ctx: &mut Ctx<'_>, node: NodeId, factor: f64) -> bool {
        self.ensure_node(node);
        let factor = if factor < PARTITION_FACTOR {
            0.0
        } else {
            factor.min(1.0)
        };
        let old = self.degrade[node.index()];
        if factor == old {
            return false;
        }
        if old == 0.0 {
            ctx.stats().incr("net.partitions_healed");
        }
        if factor == 0.0 {
            ctx.stats().incr("net.partitions_started");
        }
        self.degrade[node.index()] = factor;
        let cap = LINK_BYTES_PER_SEC * factor;
        self.links.set_capacity(self.tx[node.index()], cap);
        self.links.set_capacity(self.rx[node.index()], cap);
        ctx.stats().incr("net.bandwidth_changes");
        true
    }
}

impl Actor for ReferenceFabric {
    fn name(&self) -> String {
        "net.fabric".into()
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let now = ctx.now();
        match ev {
            Event::Start => self.last_update = now,
            Event::Timer { .. } => {
                self.timer = None;
                self.elapse(ctx, now);
                self.reschedule(ctx);
            }
            Event::Msg { msg } => match FabricInbox::decode(msg) {
                FabricInbox::Unicast(u) => {
                    ctx.stats().incr("net.rpcs");
                    ctx.stats().add("net.rpc_bytes", u.bytes);
                    let delay = rpc_delay(u.bytes);
                    ctx.send_boxed(u.to, u.payload, delay);
                }
                FabricInbox::EnsureNode(grow) => {
                    let added = self.ensure_node(grow.node);
                    ctx.stats().add("net.nodes_added", added as u64);
                }
                FabricInbox::SetNodeBandwidth(set) => {
                    if self.set_node_bandwidth(ctx, set.node, set.factor) {
                        // Settle progress at the old rates (flows still
                        // carry them), then price every flow at the new
                        // capacity.
                        self.elapse(ctx, now);
                        self.reschedule(ctx);
                    }
                }
                FabricInbox::StartFlow(req) => {
                    self.elapse(ctx, now);
                    self.start_flow(ctx, *req);
                    self.reschedule(ctx);
                }
                FabricInbox::AbortNode(abort) => {
                    // Flows finishing exactly now complete, not abort.
                    self.elapse(ctx, now);
                    self.abort_node(ctx, abort.node);
                    self.reschedule(ctx);
                }
            },
        }
    }
}
