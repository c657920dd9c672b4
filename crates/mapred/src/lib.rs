//! # accelmr-mapred — Hadoop-like distributed MapReduce runtime
//!
//! The cluster-level half of the paper's two-level architecture: a
//! JobTracker on the head node scheduling map/reduce tasks onto per-node
//! TaskTrackers (two map slots each), over the HDFS-like DFS and the
//! simulated interconnect. Mechanisms modeled explicitly because the
//! paper's results depend on them:
//!
//! * **split/record data distribution** (Figure 3): split =
//!   FileSize/NumMappers, records of one 64 MB DFS block;
//! * **the RecordReader feed path**: per-stream-capped streaming from the
//!   (usually local) DataNode, read-ahead overlapping map compute — the
//!   bottleneck that hides acceleration in Figures 4/5;
//! * **heartbeat-paced scheduling** with locality preference — part of the
//!   runtime floor visible in Figures 7/8;
//! * **fault tolerance**: heartbeat-silence detection, task re-execution,
//!   replica-retrying reads, lost-output map re-execution for shuffles;
//! * **speculative execution** of stragglers (off by default, as in the
//!   paper's configuration).
//!
//! Map kernels are pluggable ([`TaskKernel`]); the hybrid crate provides
//! the paper's Java/Cell kernels on top of the Cell BE simulator.
//!
//! The user-facing surface is [`ClusterBuilder`] (fluent deployment),
//! [`JobBuilder`] (fluent job description), and [`Session`] (N concurrent
//! jobs with staggered arrivals, driven to completion deterministically).
//!
//! ## Modules
//!
//! The two actors are directory modules split by responsibility:
//! [`jobtracker`] (`lifecycle`, `dispatch`, `ledger`, `liveness`) and
//! [`tasktracker`] (`io`, `map`, `reduce`, `output` — one attempt's state
//! machine by phase, around one table of outstanding I/O). [`sched`] holds
//! the pluggable policies, [`session`] the multi-job driver with its churn
//! and fault plans, [`builder`] / [`cluster`] deployment, [`job`] /
//! [`msgs`] / [`kernel`] / [`config`] the vocabulary.
//!
//! ## Invariants callers rely on
//!
//! * **Dynamic membership.** The fixed-worker-set assumption is lifted:
//!   [`Session::add_node_at`] / [`Session::remove_node_at`] (and the
//!   [`ChurnSchedule`] helper) change membership mid-run. Joins register
//!   end to end — fabric links, DataNode placement admission, TaskTracker
//!   heartbeat dispatch — and the JobTracker re-plans jobs that have not
//!   dispatched yet; departures recover through heartbeat-silence
//!   detection, task re-execution, replica-retrying reads, and DFS
//!   re-replication. Schedulers observe both via
//!   [`sched::Scheduler::on_node_join`] / `on_node_dead`.
//! * **Burst-friendly I/O.** TaskTrackers fan a record's segment reads
//!   and a reducer's whole fetch wave out in one simulated instant; the
//!   fabric coalesces each wave into one rate solve. Keep new I/O call
//!   sites burst-shaped.
//! * **Trace pinning.** The golden tables in `tests.rs` pin thirteen
//!   scenarios' whole-run event-stream fingerprints *and* their makespans
//!   to the nanosecond (four of them under faults, for the TaskTracker's
//!   time-out, failover, abort and kill paths). A fabric change that
//!   reorders events within an instant moves a fingerprint and must leave
//!   every makespan alone; re-record the fingerprint then, never the
//!   makespan.

pub mod builder;
pub mod cluster;
pub mod config;
pub mod job;
pub mod jobtracker;
pub mod kernel;
pub mod msgs;
pub mod sched;
pub mod session;
pub mod tasktracker;

pub use builder::{ClusterBuilder, JobBuilder};
pub use cluster::{MrCluster, MrHandle, PreloadSpec};
pub use config::{JobId, MrConfig, MrConfigError, PreemptionTuning, SchedulerPolicy, TaskId};
pub use job::{
    JobError, JobInput, JobResult, JobSpec, JobSpecError, OutputSink, ReduceSpec, TaskDescriptor,
    TaskMetrics, TaskWork,
};
pub use jobtracker::JobTracker;
pub use kernel::{
    FixedCostKernel, NodeEnv, NodeEnvFactory, NullEnv, NullEnvFactory, RecordCtx, RecordOutcome,
    ReduceKernel, SumReducer, TaskKernel, UnitsOutcome,
};
pub use msgs::{CrashTaskTracker, InjectGray, JobComplete, SetHeartbeatLoss, SubmitJob};
pub use sched::{
    build_scheduler, AdaptiveHetero, DeadlineSlack, FairShare, Fifo, LocalityFirst, NodeThroughput,
    ReclaimVictim, SchedView, Scheduler, SplitPlan, SplitRequest, TaskCompletion, TaskLookup,
    TaskView,
};
pub use session::{ChurnOp, ChurnSchedule, FaultOp, FaultPlan, JobHandle, JobRequest, Session};
pub use tasktracker::TaskTracker;

#[cfg(test)]
mod tests;
