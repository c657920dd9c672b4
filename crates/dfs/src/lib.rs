//! # accelmr-dfs — HDFS-like distributed file system simulation
//!
//! The data substrate of the paper's deployment: a NameNode managing the
//! namespace and block map on the head node, and a DataNode per worker
//! serving 64 MB blocks. Matches the mechanisms the paper leans on:
//!
//! * block placement balanced across nodes (what makes splits local),
//! * replication pipelines on write,
//! * heartbeat-based liveness with dead-node exclusion,
//! * streaming reads as fluid flows with an optional per-stream cap — the
//!   loopback DataNode→TaskTracker feed ceiling the paper identifies as the
//!   limiting factor for data-intensive jobs.
//!
//! Content is synthetic and deterministic (`(seed, offset)` pure function),
//! so DataNodes can *materialize* any range for functional runs, and
//! readers can independently verify every byte.
//!
//! ## Invariants callers rely on
//!
//! * **Dynamic membership.** The DataNode set is no longer fixed at
//!   deploy: [`DfsHandle::add_datanode`] joins a node mid-run (the
//!   NameNode admits it to placement via [`msgs::AddDataNode`]) and
//!   [`DfsHandle::remove_datanode`] crashes one. [`DfsHandle::datanodes`]
//!   is a live [`accelmr_net::NodeRegistry`], not a snapshot — a read
//!   routed to a departed node fails fast instead of hanging — and the one
//!   record DataNodes resolve their pipeline hops through.
//! * **Replication repair.** When a DataNode dies (heartbeat silence) or
//!   capacity joins, the NameNode re-replicates every block below its
//!   target by streaming a surviving replica through a
//!   [`msgs::ReplicateBlock`] pipeline; blocks converge back to target
//!   replication as long as one live replica survives. Replication-1
//!   files (the paper's configuration) have nothing to repair from — data
//!   on a dead node is simply gone, as in the paper's deployment.
//! * **One write path.** Every pipeline hop (a client's first hop via
//!   [`DfsHandle::write_block`], a repair's, each forward) is a
//!   [`msgs::WriteBlock`] built by one routine; callers differ only in
//!   how they resolve the hop (the registered nodes for a client, the
//!   peers a DataNode knew when it was wired otherwise), the RPC size and
//!   what a miss does.
//!   [`msgs::BlockContent`] is the one record a DataNode stores per block.
//! * **Burst-friendly reads.** A reader fans all segment requests of a
//!   record out in one simulated instant; the resulting DataNode flows
//!   start together and are priced by a single fabric re-solve. Keep new
//!   call sites burst-shaped (see `accelmr_net`).

pub mod cluster;
pub mod config;
pub mod datanode;
pub mod msgs;
pub mod namenode;

pub use cluster::{deploy_dfs, DfsHandle};
pub use config::{BlockId, DfsConfig, DfsConfigError, BLOCK_SIZE, HEARTBEAT_INTERVAL};
pub use datanode::{DataNode, Shutdown};
pub use msgs::*;
pub use namenode::NameNode;
