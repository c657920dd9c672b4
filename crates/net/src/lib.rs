//! # accelmr-net — simulated cluster interconnect
//!
//! The network substrate under the distributed file system and MapReduce
//! runtime: per-node full-duplex Gigabit NICs behind a non-blocking switch,
//! per-node loopback devices, control RPCs with latency + serialization
//! cost, and bulk transfers as **max-min fair fluid flows**. Rates are
//! kept max-min fair incrementally: same-instant flow bursts coalesce into
//! one solve and only the affected connected component of the link/flow
//! sharing graph is re-priced ([`flow::MaxMinSolver`]; the per-event
//! global reference solver survives as [`flow::max_min_rates`], and the
//! engine built on it as a test-only oracle actor in `reference.rs`).
//!
//! Two modeling choices matter for reproducing the paper:
//!
//! 1. Flows accept a per-stream rate cap, which is how the measured
//!    DataNode→TaskTracker loopback ceiling (a few MB/s per stream despite a
//!    fast virtual device) enters the model.
//! 2. Node failures abort in-flight flows with an explicit notification, so
//!    the MapReduce fault-tolerance machinery above can be exercised end to
//!    end.
//!
//! ## Invariants callers rely on
//!
//! * **Burst-friendly flow starts.** All [`fabric::StartFlow`]s issued
//!   within one simulated instant are priced by a *single* max-min solve
//!   (deferred-wakeup coalescing). Protocol layers deliberately fan whole
//!   request waves out in one instant — do not stagger or serialize starts
//!   "to be gentle"; that defeats the coalescing and multiplies solver
//!   work.
//! * **Equal flows are priced as one.** Flows sharing links and cap are
//!   one solver entry with a multiplicity (a *route class*, see
//!   [`fabric`]), bit-identical to pricing each alone; callers need not
//!   batch, merge or otherwise arrange their transfers to get it — start
//!   one flow per logical transfer.
//! * **Times, not intra-instant order.** A change inside the fabric may
//!   reorder the events of one simulated instant (and so move a golden
//!   event-stream fingerprint) but must not move a completion time: the
//!   fabric tests hold every flow's completion to the oracle's within
//!   1e-6 s, and the `mapred` golden tables pin each scenario's makespan
//!   to the nanosecond beside its fingerprint.
//! * **Dynamic membership.** The node set is no longer fixed at
//!   construction: [`fabric::EnsureNode`] grows the link tables mid-run
//!   (never re-pricing existing flows), [`fabric::AbortNode`] tears a
//!   departing node's flows down by consulting the persistent link→classes
//!   index (O(node degree), not O(all flows)), [`NodeRegistry`] gives
//!   every handle clone a live view of who serves each node, and
//!   [`Liveness`] is the one heartbeat-silence tracker behind the NameNode
//!   and the JobTracker.

pub mod config;
pub mod fabric;
pub mod flow;
pub mod liveness;
#[cfg(test)]
mod reference;
pub mod registry;

pub use config::{NetConfig, NodeId};
pub use fabric::{
    AbortNode, EnsureNode, Fabric, FlowAborted, FlowDone, NetHandle, SetNodeBandwidth, StartFlow,
    Unicast, PARTITION_FACTOR,
};
pub use flow::{max_min_rates, FlowDemand, LinkId, LinkTable, MaxMinSolver, Route};
pub use liveness::{Liveness, NodeState};
pub use registry::NodeRegistry;
