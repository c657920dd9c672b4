//! Multi-job session driver.
//!
//! A [`Session`] generalizes the old single-job driver actor: any number of
//! jobs can be queued — immediately or after a simulated delay — and the
//! whole batch is driven to completion with deterministic discrete-event
//! interleaving. Concurrent jobs share the cluster's slots exactly as they
//! would under Hadoop's FIFO scheduler.
//!
//! Membership changes ([`Session::add_node_at`], [`ChurnSchedule`]) and
//! fault injection ([`FaultPlan`]) queue onto one timeline of primitive
//! actions, applied mid-run by one schedule driver actor that is spawned
//! only when something is scheduled.
//!
//! ```
//! use accelmr_mapred::{ClusterBuilder, JobBuilder, FixedCostKernel, SumReducer};
//! use accelmr_des::SimDuration;
//!
//! let mut cluster = ClusterBuilder::new().workers(2).seed(3).deploy();
//! let mut session = cluster.session();
//! let a = session.submit(
//!     JobBuilder::new("a").synthetic(100_000).kernel(FixedCostKernel::default())
//!         .rpc_aggregate(SumReducer { cycles_per_byte: 1.0 }),
//! );
//! let b = session.submit_after(
//!     SimDuration::from_secs(5),
//!     JobBuilder::new("b").synthetic(100_000).kernel(FixedCostKernel::default())
//!         .rpc_aggregate(SumReducer { cycles_per_byte: 1.0 }),
//! );
//! let results = session.run_until_complete();
//! assert_eq!(results.len(), 2);
//! assert!(a.result().succeeded && b.result().succeeded);
//! ```

use std::sync::{Arc, Mutex};

use accelmr_des::prelude::*;
use accelmr_dfs::msgs::{PreloadDone, PreloadFile};
use accelmr_dfs::DfsHandle;
use accelmr_net::NodeId;

use crate::builder::JobBuilder;
use crate::cluster::{MrCluster, MrHandle, PreloadSpec};
use crate::job::{JobResult, JobSpec, JobSpecError};
use crate::msgs::{InjectGray, JobComplete, SetHeartbeatLoss};

/// A job plus the driver-side work it needs before submission (DFS
/// preloads). What [`Session::submit`] accepts; [`JobSpec`] and
/// [`JobBuilder`] both convert into it.
#[derive(Clone, Debug)]
pub struct JobRequest {
    /// The job description handed to the JobTracker.
    pub spec: JobSpec,
    /// Files preloaded into the DFS before the job is submitted.
    pub preloads: Vec<PreloadSpec>,
}

impl JobRequest {
    /// [`JobSpec::validate`], then every preload: a block size or
    /// replication of zero is rejected. Called by
    /// [`Session::submit_after`] and, with `submit_at = 0`, by
    /// [`JobBuilder::request`].
    pub fn validate(&self, submit_at: SimTime) -> Result<(), JobSpecError> {
        self.spec.validate(submit_at)?;
        for p in &self.preloads {
            let path = || p.path.clone();
            if p.block_size == Some(0) {
                return Err(JobSpecError::ZeroPreloadBlockSize { path: path() });
            }
            if p.replication == Some(0) {
                return Err(JobSpecError::ZeroPreloadReplication { path: path() });
            }
        }
        Ok(())
    }
}

impl From<JobSpec> for JobRequest {
    fn from(spec: JobSpec) -> Self {
        JobRequest {
            spec,
            preloads: Vec::new(),
        }
    }
}

impl From<JobBuilder> for JobRequest {
    fn from(builder: JobBuilder) -> Self {
        builder.request()
    }
}

/// Shared slot a job's result lands in when its `JobComplete` arrives.
type ResultSlot = Arc<Mutex<Option<JobResult>>>;

/// Handle to a job submitted through a [`Session`]. Cheap to clone; the
/// result becomes observable after
/// [`run_until_complete`](Session::run_until_complete).
#[derive(Clone)]
pub struct JobHandle {
    index: usize,
    name: String,
    slot: ResultSlot,
}

impl JobHandle {
    /// Position of this job within its batch's submission order — its
    /// index into the result vector of the
    /// [`run_until_complete`](Session::run_until_complete) call that
    /// drives it. Resets for each new batch on a reused session.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The job's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the job has completed.
    pub fn is_complete(&self) -> bool {
        self.slot.lock().unwrap().is_some()
    }

    /// The result, if the job has completed.
    pub fn try_result(&self) -> Option<JobResult> {
        self.slot.lock().unwrap().clone()
    }

    /// The result. Panics when the job has not completed yet (call
    /// [`Session::run_until_complete`] first).
    pub fn result(&self) -> JobResult {
        self.try_result()
            .unwrap_or_else(|| panic!("job '{}' has not completed yet", self.name))
    }
}

struct PendingJob {
    delay: SimDuration,
    request: JobRequest,
    slot: ResultSlot,
}

/// One scheduled state change: a membership change queued through
/// [`Session::add_node_at`] / [`Session::remove_node_at`], or one of the
/// primitives a [`FaultOp`] expands into (one at fault start, one at heal).
#[derive(Clone, Copy, Debug)]
enum Action {
    /// A fresh node joins under this id.
    Join(NodeId),
    /// The node leaves with crash semantics.
    Leave(NodeId),
    /// Set the node's NIC bandwidth factor (`0.0` = partition, `1.0` = heal).
    NicFactor(NodeId, f64),
    /// Set the node's compute-throughput factor (`1.0` = heal).
    Gray(NodeId, f64),
    /// Set heartbeat suppression on or off.
    HbLoss(NodeId, bool),
}

/// A membership operation inside a [`ChurnSchedule`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnOp {
    /// A fresh node joins (the session assigns its id).
    Join,
    /// The given worker leaves (crash semantics: TaskTracker and DataNode
    /// die, in-flight transfers abort).
    Leave(NodeId),
}

/// A declarative churn plan: membership operations at simulated offsets,
/// applied with [`Session::churn`]. Offsets are relative to the start of
/// the next [`Session::run_until_complete`] call, like
/// [`Session::submit_after`] delays.
#[derive(Clone, Debug, Default)]
pub struct ChurnSchedule {
    events: Vec<(SimDuration, ChurnOp)>,
}

impl ChurnSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a join at `at`.
    pub fn join_at(mut self, at: SimDuration) -> Self {
        self.events.push((at, ChurnOp::Join));
        self
    }

    /// A churn wave: `joins` fresh nodes and the listed `leaves`,
    /// interleaved (join, leave, join, …) and spread evenly across
    /// `[start, start + window]` — the "≥ N% of the cluster in motion
    /// mid-job" shape the elasticity benchmarks drive.
    pub fn wave(joins: usize, leaves: &[NodeId], start: SimDuration, window: SimDuration) -> Self {
        let mut ops = Vec::with_capacity(joins + leaves.len());
        let mut j = 0;
        let mut l = 0;
        while j < joins || l < leaves.len() {
            if j < joins {
                ops.push(ChurnOp::Join);
                j += 1;
            }
            if l < leaves.len() {
                ops.push(ChurnOp::Leave(leaves[l]));
                l += 1;
            }
        }
        let n = ops.len();
        let events = ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| {
                let frac = if n > 1 {
                    i as f64 / (n - 1) as f64
                } else {
                    0.0
                };
                (
                    start + SimDuration::from_secs_f64(window.as_secs_f64() * frac),
                    op,
                )
            })
            .collect();
        ChurnSchedule { events }
    }

    /// The scheduled operations, in insertion order.
    pub fn events(&self) -> &[(SimDuration, ChurnOp)] {
        &self.events
    }
}

/// One fault class inside a [`FaultPlan`]. Every op names its victim and
/// a window after which the fault heals — chaos here is always transient;
/// permanent crash-shaped departures are [`ChurnSchedule`]'s job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultOp {
    /// Full network partition of `node`'s NIC for `window`: bulk flows
    /// (shuffle fetches, DFS streams) through it stall at rate zero — they
    /// do *not* abort — and resume where they left off at heal. Control
    /// RPCs (heartbeats, assignments) are modeled off the fluid fabric and
    /// keep flowing: this is a pure data-plane fault, detectable only by
    /// I/O watchdogs, never by heartbeat silence.
    Partition {
        /// The partitioned node.
        node: NodeId,
        /// Time until the partition heals.
        window: SimDuration,
    },
    /// `node`'s NIC bandwidth silently drops to `factor` of nominal for
    /// `window` (a flapping link, a saturated ToR port).
    Degrade {
        /// The degraded node.
        node: NodeId,
        /// Bandwidth multiplier in `(0, 1]`; [`FaultPlan::op_at`] panics
        /// on any other value.
        factor: f64,
        /// Time until full bandwidth returns.
        window: SimDuration,
    },
    /// Gray failure: `node`'s *compute* throughput silently drops to
    /// `factor` of nominal for `window`. The node heartbeats normally the
    /// whole time — only straggler speculation and blacklisting can see it.
    Gray {
        /// The gray node.
        node: NodeId,
        /// Compute-throughput multiplier in `(0, 1]`; [`FaultPlan::op_at`]
        /// panics on any other value.
        factor: f64,
        /// Time until nominal speed returns.
        window: SimDuration,
    },
    /// `node` sends no heartbeats for `window` while its tasks keep
    /// running: the JobTracker falsely declares it dead, requeues its
    /// work, and must *fence* the zombie attempts' late reports when the
    /// node comes back.
    HeartbeatLoss {
        /// The silenced node.
        node: NodeId,
        /// Duration of the loss window.
        window: SimDuration,
    },
    /// Transient stall — a process-freeze approximation: for `window` the
    /// node goes heartbeat-silent *and* computes at 1/16 speed (a true
    /// freeze would pin in-flight compute timers astronomically far out;
    /// a severe slowdown exercises the same recovery paths — false death,
    /// fencing, re-execution — while keeping every timer bounded).
    Stall {
        /// The stalled node.
        node: NodeId,
        /// Duration of the stall.
        window: SimDuration,
    },
}

/// Compute-slowdown factor for [`FaultOp::Stall`].
const STALL_GRAY_FACTOR: f64 = 1.0 / 16.0;

impl FaultOp {
    /// Appends the op's primitive apply and heal actions to `out`, applies
    /// first.
    fn push_actions(self, at: SimDuration, out: &mut Vec<(SimDuration, Action)>) {
        match self {
            FaultOp::Partition { node, window } => {
                out.push((at, Action::NicFactor(node, 0.0)));
                out.push((at + window, Action::NicFactor(node, 1.0)));
            }
            FaultOp::Degrade {
                node,
                factor,
                window,
            } => {
                out.push((at, Action::NicFactor(node, factor)));
                out.push((at + window, Action::NicFactor(node, 1.0)));
            }
            FaultOp::Gray {
                node,
                factor,
                window,
            } => {
                out.push((at, Action::Gray(node, factor)));
                out.push((at + window, Action::Gray(node, 1.0)));
            }
            FaultOp::HeartbeatLoss { node, window } => {
                out.push((at, Action::HbLoss(node, true)));
                out.push((at + window, Action::HbLoss(node, false)));
            }
            FaultOp::Stall { node, window } => {
                out.push((at, Action::Gray(node, STALL_GRAY_FACTOR)));
                out.push((at, Action::HbLoss(node, true)));
                out.push((at + window, Action::Gray(node, 1.0)));
                out.push((at + window, Action::HbLoss(node, false)));
            }
        }
    }
}

/// A declarative fault-injection plan: fault classes at simulated offsets,
/// applied with [`Session::faults`]. Offsets are anchored like
/// [`ChurnSchedule`]'s (relative to the start of the next
/// [`Session::run_until_complete`] call) and both land on the session's
/// one timeline, but every fault heals after its window instead of
/// removing the node.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<(SimDuration, FaultOp)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault op at `at`. Panics when a [`FaultOp::Degrade`] or
    /// [`FaultOp::Gray`] factor is not in `(0, 1]`, NaN included: a zero
    /// or negative factor would turn the fault into a partition or a
    /// freeze, and a NaN one would never inject it.
    pub fn op_at(mut self, at: SimDuration, op: FaultOp) -> Self {
        if let FaultOp::Degrade { factor, .. } | FaultOp::Gray { factor, .. } = op {
            assert!(
                factor > 0.0 && factor <= 1.0,
                "invalid fault op {op:?}: factor must be in (0, 1]"
            );
        }
        self.events.push((at, op));
        self
    }

    /// A seeded fault storm: `count` faults drawn with the in-tree RNG —
    /// victims uniform over `nodes`, classes round-robin over the full
    /// fault taxonomy, start offsets uniform over `[start, start + spread]`
    /// — each healing after `window`. The deterministic bulk generator the
    /// `fault_matrix` bench sweeps intensity with: same seed, same storm.
    pub fn storm(
        seed: u64,
        nodes: &[NodeId],
        count: usize,
        start: SimDuration,
        spread: SimDuration,
        window: SimDuration,
    ) -> Self {
        assert!(!nodes.is_empty(), "fault storm needs victim candidates");
        let mut rng = accelmr_des::Xoshiro256::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        for i in 0..count {
            let node = nodes[rng.next_below(nodes.len() as u64) as usize];
            let at = start + SimDuration::from_nanos(rng.next_below(spread.as_nanos().max(1)));
            let op = match i % 5 {
                0 => FaultOp::Partition { node, window },
                1 => FaultOp::Degrade {
                    node,
                    factor: 0.1,
                    window,
                },
                2 => FaultOp::Gray {
                    node,
                    factor: 0.25,
                    window,
                },
                3 => FaultOp::HeartbeatLoss { node, window },
                _ => FaultOp::Stall { node, window },
            };
            plan = plan.op_at(at, op);
        }
        plan
    }

    /// The scheduled ops, in insertion order.
    pub fn events(&self) -> &[(SimDuration, FaultOp)] {
        &self.events
    }
}

/// Drives N jobs through one deployed cluster. Jobs queued with
/// [`submit`](Session::submit) /
/// [`submit_after`](Session::submit_after) all run concurrently (subject to
/// the JobTracker's scheduling) once
/// [`run_until_complete`](Session::run_until_complete) is called; the
/// session can then queue and run further batches against the same,
/// still-warm cluster.
pub struct Session<'a> {
    sim: &'a mut Sim,
    mr: MrHandle,
    dfs: DfsHandle,
    pending: Vec<PendingJob>,
    /// Membership changes and fault actions queued for the next run, in
    /// the order they were queued.
    schedule: Vec<(SimDuration, Action)>,
    /// The cluster's fresh-node-id counter.
    next_node: &'a mut u32,
}

impl<'a> Session<'a> {
    /// The underlying simulation (e.g. to inject faults before running).
    pub fn sim_mut(&mut self) -> &mut Sim {
        self.sim
    }

    /// Queues a job for submission at the current simulated instant.
    pub fn submit(&mut self, request: impl Into<JobRequest>) -> JobHandle {
        self.submit_after(SimDuration::ZERO, request)
    }

    /// Queues a job whose submission is staggered by `delay` relative to
    /// the start of the next [`run_until_complete`](Session::run_until_complete)
    /// call (preloads run after the delay, immediately before submission).
    ///
    /// Panics on an invalid request ([`JobRequest::validate`]): a
    /// non-positive fair-share weight, a deadline at or before the
    /// submission instant (`now + delay`), or a preload with a zero block
    /// size or replication.
    pub fn submit_after(
        &mut self,
        delay: SimDuration,
        request: impl Into<JobRequest>,
    ) -> JobHandle {
        let request = request.into();
        let submit_at = self.sim.now() + delay;
        if let Err(e) = request.validate(submit_at) {
            panic!("invalid JobSpec '{}': {e}", request.spec.name);
        }
        let slot: ResultSlot = Arc::new(Mutex::new(None));
        let handle = JobHandle {
            index: self.pending.len(),
            name: request.spec.name.clone(),
            slot: slot.clone(),
        };
        self.pending.push(PendingJob {
            delay,
            request,
            slot,
        });
        handle
    }

    /// Schedules a fresh worker node to join the cluster `at` after the
    /// start of the next [`run_until_complete`](Session::run_until_complete)
    /// call, returning the id it will join under. The join is end-to-end:
    /// the fabric grows links, a DataNode spawns and enters the NameNode's
    /// placement rotation (absorbing pending replication repairs), and a
    /// TaskTracker spawns, registers, and starts pulling work on its
    /// heartbeats — schedulers observe the join via
    /// [`Scheduler::on_node_join`](crate::sched::Scheduler::on_node_join).
    pub fn add_node_at(&mut self, at: SimDuration) -> NodeId {
        let node = NodeId(*self.next_node);
        *self.next_node += 1;
        self.schedule.push((at, Action::Join(node)));
        node
    }

    /// Schedules `node` to leave the cluster `at` after the start of the
    /// next [`run_until_complete`](Session::run_until_complete) call, with
    /// crash semantics: its TaskTracker and DataNode die, in-flight
    /// transfers abort, and the runtime recovers through its existing
    /// fault paths (replica-retrying reads, task re-execution, DFS
    /// re-replication once heartbeat silence is detected).
    pub fn remove_node_at(&mut self, at: SimDuration, node: NodeId) {
        assert_ne!(node, NodeId::HEAD, "cannot remove the head node");
        self.schedule.push((at, Action::Leave(node)));
    }

    /// Applies a whole [`ChurnSchedule`], returning the ids assigned to
    /// its joins in schedule order.
    pub fn churn(&mut self, schedule: ChurnSchedule) -> Vec<NodeId> {
        let mut joined = Vec::new();
        for &(at, op) in schedule.events() {
            match op {
                ChurnOp::Join => joined.push(self.add_node_at(at)),
                ChurnOp::Leave(node) => self.remove_node_at(at, node),
            }
        }
        joined
    }

    /// Queues a whole [`FaultPlan`] for the next
    /// [`run_until_complete`](Session::run_until_complete) call. Offsets are
    /// anchored at the start of that call, exactly like churn. An empty
    /// plan queues nothing, so a run that schedules nothing else spawns no
    /// schedule driver and keeps its historical actor layout and event
    /// trace.
    pub fn faults(&mut self, plan: FaultPlan) {
        for &(at, op) in plan.events() {
            op.push_actions(at, &mut self.schedule);
        }
    }

    /// Runs the simulation until every queued job has completed, and
    /// returns their results in submission order. Queued membership
    /// changes ([`add_node_at`](Session::add_node_at) /
    /// [`remove_node_at`](Session::remove_node_at)) and fault actions are
    /// applied while the batch runs; those scheduled past the last job
    /// completion carry over into the next batch. With no jobs queued, an
    /// empty vector is returned — after driving the simulation just far
    /// enough to apply every queued action. Panics if the simulation drains
    /// without completing every job (a runtime bug, not a job failure —
    /// failed jobs complete with `succeeded == false`).
    pub fn run_until_complete(&mut self) -> Vec<JobResult> {
        let schedule = std::mem::take(&mut self.schedule);
        let last_action_at = schedule.iter().map(|&(at, _)| at).max();
        if !schedule.is_empty() {
            self.sim.spawn(Box::new(ScheduleDriver {
                mr: self.mr.clone(),
                dfs: self.dfs.clone(),
                timeline: Timeline::new(schedule),
            }));
        }
        if self.pending.is_empty() {
            // A job-less batch still applies its queued actions: drive the
            // simulation just past the last one (it would otherwise be
            // silently deferred — and re-anchored — to the next batch's
            // start).
            if let Some(at) = last_action_at {
                let deadline = self.sim.now() + at;
                self.sim.run_until(deadline);
            }
            return Vec::new();
        }
        let outstanding = Arc::new(Mutex::new(self.pending.len()));
        let batch: Vec<(String, ResultSlot)> = self
            .pending
            .iter()
            .map(|p| (p.request.spec.name.clone(), p.slot.clone()))
            .collect();
        for job in self.pending.drain(..) {
            self.sim.spawn(Box::new(JobDriver {
                mr: self.mr.clone(),
                dfs: self.dfs.clone(),
                delay: job.delay,
                preloads: job.request.preloads,
                preloads_left: 0,
                spec: Some(job.request.spec),
                slot: job.slot,
                outstanding: outstanding.clone(),
            }));
        }
        self.sim.run();
        batch
            .into_iter()
            .map(|(name, slot)| {
                let result = slot.lock().unwrap().clone();
                result.unwrap_or_else(|| {
                    panic!("job '{name}' did not complete — simulation drained without its JobComplete")
                })
            })
            .collect()
    }

    /// Convenience for the single-job case: queues nothing new, drives the
    /// batch, and returns the one result. Panics unless exactly one job is
    /// queued.
    pub fn run(&mut self) -> JobResult {
        assert_eq!(
            self.pending.len(),
            1,
            "Session::run expects exactly one queued job; use run_until_complete"
        );
        self.run_until_complete().pop().expect("one result")
    }
}

impl MrCluster {
    /// Opens a [`Session`] over this cluster.
    pub fn session(&mut self) -> Session<'_> {
        Session {
            sim: &mut self.sim,
            mr: self.mr.clone(),
            dfs: self.dfs.clone(),
            pending: Vec::new(),
            schedule: Vec::new(),
            next_node: &mut self.next_node,
        }
    }
}

const SUBMIT_TIMER_TAG: u64 = 1;

/// The schedule the driver works through: actions sorted by offset
/// (stable, so same-instant actions keep the order they were queued in and
/// a fault's applies precede its own heals even at window zero), anchored
/// at the driver's `Start` instant and drained front to back, with one
/// timer armed for the next action once the due ones are out.
struct Timeline {
    actions: Vec<(SimDuration, Action)>,
    next: usize,
    start: SimTime,
}

impl Timeline {
    fn new(mut actions: Vec<(SimDuration, Action)>) -> Self {
        actions.sort_by_key(|&(at, _)| at);
        Timeline {
            actions,
            next: 0,
            start: SimTime::ZERO,
        }
    }

    /// Pops the next action if it is due now; otherwise arms a timer for
    /// its instant.
    fn pop_due(&mut self, ctx: &mut Ctx<'_>) -> Option<Action> {
        let &(at, action) = self.actions.get(self.next)?;
        if self.start + at > ctx.now() {
            ctx.after_at(self.start + at, 0);
            return None;
        }
        self.next += 1;
        Some(action)
    }
}

/// Applies the session's [`Timeline`] from inside the simulation. Spawned
/// by [`Session::run_until_complete`] only when something is scheduled, so
/// static, fault-free deployments keep their historical actor layout and
/// event traces. NIC factors go through the fabric's node-bandwidth
/// control; gray and heartbeat-loss actions are routed to the victim's
/// TaskTracker and silently dropped once the node has left the cluster —
/// chaos composes with churn.
struct ScheduleDriver {
    mr: MrHandle,
    dfs: DfsHandle,
    timeline: Timeline,
}

impl ScheduleDriver {
    fn apply(&mut self, ctx: &mut Ctx<'_>, action: Action) {
        // Only what took effect is counted: a leave of a node with no
        // daemons, or a gray or heartbeat-loss fault on one, changes nothing.
        let counter = match action {
            Action::Join(node) => {
                // The fabric grows first (same-instant FIFO guarantees links
                // exist before any traffic), then the DataNode and the
                // TaskTracker join.
                self.mr.net.ensure_node(ctx, node);
                self.dfs.add_datanode(ctx, node);
                self.mr.add_tasktracker(ctx, node, &self.dfs);
                Some("cluster.nodes_joined")
            }
            Action::Leave(node) => {
                // Both daemons die, the registries stop routing to the node
                // (reads fail fast onto other replicas), and its in-flight
                // transfers abort. Heartbeat silence then drives task
                // re-execution and DFS re-replication.
                let tt = self.mr.remove_tasktracker(ctx, node);
                let dn = self.dfs.remove_datanode(ctx, node);
                self.mr.net.abort_node(ctx, node);
                (tt || dn).then_some("cluster.nodes_left")
            }
            Action::NicFactor(node, factor) => {
                self.mr.net.set_node_bandwidth(ctx, node, factor);
                Some("chaos.actions_applied")
            }
            Action::Gray(node, factor) => self.mr.tasktrackers.get(node).map(|tt| {
                ctx.send(tt, InjectGray { factor });
                "chaos.actions_applied"
            }),
            Action::HbLoss(node, suppress) => self.mr.tasktrackers.get(node).map(|tt| {
                ctx.send(tt, SetHeartbeatLoss { suppress });
                "chaos.actions_applied"
            }),
        };
        if let Some(counter) = counter {
            ctx.stats().incr(counter);
        }
    }
}

impl Actor for ScheduleDriver {
    fn name(&self) -> String {
        "mr.session.schedule".into()
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Start => self.timeline.start = ctx.now(),
            Event::Timer { .. } => {}
            Event::Msg { msg } => ScheduleInbox::decode(msg),
        }
        while let Some(action) = self.timeline.pop_due(ctx) {
            self.apply(ctx, action);
        }
    }
}

/// Per-job driver actor: waits out the submission delay, preloads input
/// files, submits the job, captures the result, and stops the world once
/// the whole batch is done.
struct JobDriver {
    mr: MrHandle,
    dfs: DfsHandle,
    delay: SimDuration,
    preloads: Vec<PreloadSpec>,
    preloads_left: usize,
    spec: Option<JobSpec>,
    slot: ResultSlot,
    outstanding: Arc<Mutex<usize>>,
}

impl JobDriver {
    fn begin(&mut self, ctx: &mut Ctx<'_>) {
        if self.preloads.is_empty() {
            self.submit(ctx);
        } else {
            self.preloads_left = self.preloads.len();
            let me = ctx.self_id();
            for p in self.preloads.drain(..) {
                ctx.send(
                    self.dfs.namenode,
                    PreloadFile {
                        path: p.path,
                        len: p.len,
                        block_size: p.block_size,
                        replication: p.replication,
                        seed: p.seed,
                        reply: me,
                    },
                );
            }
        }
    }

    fn submit(&mut self, ctx: &mut Ctx<'_>) {
        let spec = self.spec.take().expect("spec present");
        self.mr.submit(ctx, spec);
    }
}

impl Actor for JobDriver {
    fn name(&self) -> String {
        "mr.session.job".into()
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Start => {
                if self.delay == SimDuration::ZERO {
                    self.begin(ctx);
                } else {
                    ctx.after(self.delay, SUBMIT_TIMER_TAG);
                }
            }
            Event::Timer { .. } => self.begin(ctx),
            Event::Msg { msg } => match JobInbox::decode(msg) {
                JobInbox::PreloadDone(_done) => {
                    self.preloads_left -= 1;
                    if self.preloads_left == 0 {
                        self.submit(ctx);
                    }
                }
                JobInbox::JobComplete(done) => {
                    *self.slot.lock().unwrap() = Some(done.result);
                    let mut left = self.outstanding.lock().unwrap();
                    *left -= 1;
                    if *left == 0 {
                        ctx.stop();
                    }
                }
            },
        }
    }
}

accelmr_des::inbox! {
    /// The schedule driver runs on its own timers and receives nothing.
    enum ScheduleInbox {}
}

accelmr_des::inbox! {
    enum JobInbox { PreloadDone, JobComplete }
}
