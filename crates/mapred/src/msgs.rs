//! JobTracker ↔ TaskTracker ↔ client protocol.

use accelmr_des::ActorId;
use accelmr_net::NodeId;

use crate::config::{JobId, TaskId};
use crate::job::{JobResult, JobSpec, TaskDescriptor, TaskMetrics};

/// Client → JobTracker: run a job.
#[derive(Debug)]
pub struct SubmitJob {
    /// The job.
    pub spec: JobSpec,
    /// Actor receiving [`JobComplete`].
    pub reply: ActorId,
}

/// JobTracker → client: the job finished.
#[derive(Debug, Clone)]
pub struct JobComplete {
    /// Outcome and metrics.
    pub result: JobResult,
}

/// TaskTracker → JobTracker: periodic liveness + status + slot report.
/// Completed-task reports ride the heartbeat, as in Hadoop 0.19 — this is
/// part of the scheduling pacing the paper's runtime floor comes from.
#[derive(Debug)]
pub struct TtHeartbeat {
    /// Reporting TaskTracker's node.
    pub node: NodeId,
    /// Free map slots right now.
    pub free_slots: usize,
    /// Tasks finished since the last heartbeat.
    pub completed: Vec<TaskReport>,
}

/// One finished task attempt.
#[derive(Debug, Clone)]
pub struct TaskReport {
    /// Owning job.
    pub job: JobId,
    /// Task id.
    pub task: TaskId,
    /// Attempt number.
    pub attempt: u32,
    /// Success flag (`false` = attempt failed; JobTracker may retry).
    pub ok: bool,
    /// Execution metrics.
    pub metrics: TaskMetrics,
    /// Key/value pairs the task emitted (map partials or reduce output).
    pub kv: Vec<(u64, u64)>,
    /// Order-independent digest `(acc, count)` over record output checksums.
    pub digest: (u64, u64),
    /// Node the attempt ran on.
    pub node: NodeId,
}

/// JobTracker → TaskTracker: run this task.
#[derive(Debug)]
pub struct AssignTask {
    /// The assignment.
    pub descriptor: TaskDescriptor,
}

/// JobTracker → TaskTracker: abandon an attempt (speculative loser or
/// zombie after re-execution).
#[derive(Debug, Clone, Copy)]
pub struct KillTask {
    /// Owning job.
    pub job: JobId,
    /// Task to kill.
    pub task: TaskId,
    /// Attempt to kill (other attempts unaffected).
    pub attempt: u32,
}

/// Crash injection: the TaskTracker process dies immediately (no more
/// heartbeats; running tasks vanish). Pair with
/// [`accelmr_net::AbortNode`] to kill in-flight transfers.
#[derive(Debug, Clone, Copy)]
pub struct CrashTaskTracker;

/// Gray-failure injection: the TaskTracker's *compute* throughput silently
/// degrades to `factor` of nominal (`0.25` = four times slower) until a
/// follow-up message with `factor == 1.0` heals it. Only timers armed
/// after injection are affected; already-running computations finish at
/// their original speed, like a machine that starts thermal-throttling
/// mid-task. The node never stops heartbeating — that is the point: gray
/// failures are invisible to crash detection and must be caught by
/// straggler speculation and blacklisting instead.
#[derive(Debug, Clone, Copy)]
pub struct InjectGray {
    /// Throughput multiplier in `(0, 1]`; `1.0` restores nominal speed.
    pub factor: f64,
}

/// Heartbeat-loss injection: while `suppress` is set the TaskTracker
/// keeps running tasks but sends no heartbeats, so the JobTracker's
/// liveness sweep will falsely declare it dead. Completed-task reports
/// accumulate locally and all ride the first heartbeat after the loss
/// window ends — exactly the stale-report burst the epoch fencing in the
/// JobTracker exists to reject.
#[derive(Debug, Clone, Copy)]
pub struct SetHeartbeatLoss {
    /// `true` drops every outgoing heartbeat; `false` resumes them.
    pub suppress: bool,
}
