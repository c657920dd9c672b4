//! Job descriptions, task descriptors and results.

use std::sync::Arc;

use accelmr_des::{SimDuration, SimTime};
use accelmr_dfs::msgs::BlockLoc;
use accelmr_net::NodeId;

use crate::config::{JobId, TaskId};
use crate::kernel::{ReduceKernel, TaskKernel};
use crate::sched::NodeThroughput;

/// What a job consumes.
#[derive(Clone, Debug)]
pub enum JobInput {
    /// A DFS file, split into `FileSize / NumMappers` byte ranges processed
    /// as `record_bytes` records (the paper's Figure 3 data distribution).
    File {
        /// DFS path (must be preloaded or written beforehand).
        path: String,
        /// Record granularity; `None` = one DFS block (64 MB, per paper).
        record_bytes: Option<u64>,
    },
    /// A CPU-intensive job with no input data: `total_units` split evenly
    /// across map tasks (the Pi estimator's samples).
    Synthetic {
        /// Total work units (samples).
        total_units: u64,
    },
}

/// Where map output goes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OutputSink {
    /// No write-back. Materialized output is still counted and digested
    /// whatever the sink; the paper's EmptyMapper simply produces none.
    Discard,
    /// Output written to a DFS file (one per task: `<path>/part-NNNNN`).
    Dfs {
        /// Output directory path.
        path: String,
        /// Replication of output blocks (`None` = DFS default).
        replication: Option<usize>,
    },
}

/// The reduce phase shape.
#[derive(Clone)]
pub enum ReduceSpec {
    /// Map-only job.
    None,
    /// Tiny per-task results aggregated at the JobTracker (the shape of
    /// Hadoop's PiEstimator with a single lightweight reducer).
    RpcAggregate {
        /// The fold applied to collected pairs.
        reducer: Arc<dyn ReduceKernel>,
    },
    /// Full shuffle: every map task's output is partitioned across
    /// `reducers` reduce tasks which fetch, merge, and (optionally) write.
    Shuffle {
        /// Number of reduce tasks.
        reducers: usize,
        /// The merge kernel.
        reducer: Arc<dyn ReduceKernel>,
        /// Whether reducers write their merged partition to DFS.
        write_output: bool,
    },
}

impl std::fmt::Debug for ReduceSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReduceSpec::None => write!(f, "ReduceSpec::None"),
            ReduceSpec::RpcAggregate { reducer } => {
                write!(f, "ReduceSpec::RpcAggregate({})", reducer.name())
            }
            ReduceSpec::Shuffle {
                reducers,
                reducer,
                write_output,
            } => write!(
                f,
                "ReduceSpec::Shuffle({} x {}, write={})",
                reducers,
                reducer.name(),
                write_output
            ),
        }
    }
}

/// A complete job description.
#[derive(Clone)]
pub struct JobSpec {
    /// Human-readable name.
    pub name: String,
    /// Input description.
    pub input: JobInput,
    /// The map kernel.
    pub kernel: Arc<dyn TaskKernel>,
    /// Number of map tasks; `None` = one per configured map slot
    /// (the paper's `NumMappers`).
    pub num_map_tasks: Option<usize>,
    /// Map output routing.
    pub output: OutputSink,
    /// Reduce phase.
    pub reduce: ReduceSpec,
    /// The tenant this job bills its slot usage to (multi-tenant fairness
    /// accounting; `"default"` when unset).
    pub tenant: String,
    /// Fair-share weight (> 0, default 1.0): a tenant's entitled share is
    /// proportional to its weight under
    /// [`FairShare`](crate::sched::FairShare) scheduling.
    pub weight: f64,
    /// Completion deadline (absolute simulated instant). Consumed by
    /// deadline-aware policies ([`DeadlineSlack`](crate::sched::DeadlineSlack))
    /// and reported back via [`JobResult::deadline_met`].
    pub deadline: Option<SimTime>,
}

/// A rejected [`JobSpec`] or preload, detected at build/submit time
/// ([`JobSpec::validate`], [`JobRequest::validate`](crate::JobRequest::validate)).
/// Same deploy-time-typed-error style as
/// [`MrConfigError`](crate::MrConfigError).
#[derive(Clone, PartialEq, Debug)]
pub enum JobSpecError {
    /// `weight` is zero, negative, or not finite: the job's tenant would be
    /// entitled to no share under weighted fair scheduling and could
    /// starve forever.
    NonPositiveWeight {
        /// The rejected weight.
        weight: f64,
    },
    /// `deadline_at` is not after the submission instant: the deadline is
    /// already missed when the job enters the queue.
    DeadlineInPast {
        /// The rejected deadline.
        deadline: SimTime,
        /// The instant the job would be submitted.
        submit: SimTime,
    },
    /// A preload's block size is zero: the NameNode's block loop would
    /// never advance, allocating blocks forever.
    ZeroPreloadBlockSize {
        /// The preload's path.
        path: String,
    },
    /// A preload's replication is zero: its blocks would have no replica.
    ZeroPreloadReplication {
        /// The preload's path.
        path: String,
    },
}

impl std::fmt::Display for JobSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobSpecError::NonPositiveWeight { weight } => {
                write!(f, "weight must be positive and finite, got {weight}")
            }
            JobSpecError::DeadlineInPast { deadline, submit } => write!(
                f,
                "deadline_at ({deadline}) must lie after the submission \
                 instant ({submit}); the job would be born overdue"
            ),
            JobSpecError::ZeroPreloadBlockSize { path } => {
                write!(f, "preload {path}: block size must be positive, got 0")
            }
            JobSpecError::ZeroPreloadReplication { path } => {
                write!(f, "preload {path}: replication must be positive, got 0")
            }
        }
    }
}

impl std::error::Error for JobSpecError {}

impl JobSpec {
    /// Validates fairness/deadline invariants against the instant the job
    /// will be submitted. Called by
    /// [`Session::submit`](crate::Session::submit) (and, with
    /// `submit_at = 0`, by [`JobBuilder::build`](crate::JobBuilder::build));
    /// call it directly to surface the typed error instead of a panic.
    pub fn validate(&self, submit_at: SimTime) -> Result<(), JobSpecError> {
        if !(self.weight.is_finite() && self.weight > 0.0) {
            return Err(JobSpecError::NonPositiveWeight {
                weight: self.weight,
            });
        }
        if let Some(deadline) = self.deadline {
            if deadline <= submit_at {
                return Err(JobSpecError::DeadlineInPast {
                    deadline,
                    submit: submit_at,
                });
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JobSpec({}, kernel={}, maps={:?})",
            self.name,
            self.kernel.name(),
            self.num_map_tasks
        )
    }
}

/// Concrete work shipped to a TaskTracker.
#[derive(Clone, Debug)]
pub enum TaskWork {
    /// Map a byte range of a file.
    MapRange {
        /// Input file path.
        path: String,
        /// Content seed of the file.
        file_seed: u64,
        /// Split start offset (inclusive).
        start: u64,
        /// Split end offset (exclusive).
        end: u64,
        /// Record granularity.
        record_bytes: u64,
        /// Blocks overlapping the split, with live replica locations
        /// (computed by the JobTracker at submission, like Hadoop's
        /// client-side split metadata).
        blocks: Vec<BlockLoc>,
    },
    /// Map a synthetic unit batch.
    MapUnits {
        /// Units in this task.
        units: u64,
        /// Task index (RNG stream derivation).
        index: u64,
    },
    /// Reduce: fetch partition fragments from map nodes, merge, maybe write.
    Reduce {
        /// `(node, bytes)` fragments to fetch.
        fetches: Vec<(NodeId, u64)>,
        /// Pairs expected (for the reduce kernel's time model).
        pairs: u64,
        /// Write the merged output to DFS.
        write_output: bool,
        /// Output path for written reduces.
        output_path: String,
    },
}

/// A task assignment (work + attempt bookkeeping + execution plumbing).
#[derive(Clone)]
pub struct TaskDescriptor {
    /// Owning job.
    pub job: JobId,
    /// Task id within the job.
    pub task: TaskId,
    /// Attempt number (re-executions and speculative copies increment it).
    pub attempt: u32,
    /// The work itself.
    pub work: TaskWork,
    /// The kernel to execute (shared, stateless; node state lives in the
    /// TaskTracker's `NodeEnv`).
    pub kernel: Arc<dyn TaskKernel>,
    /// Where map output goes.
    pub output: OutputSink,
    /// Precomputed merge duration for reduce tasks (the JobTracker owns the
    /// reduce kernel and evaluates its time model at task-build time).
    pub reduce_merge_time: Option<SimDuration>,
}

impl std::fmt::Debug for TaskDescriptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TaskDescriptor({} {} attempt {}, kernel={})",
            self.job,
            self.task,
            self.attempt,
            self.kernel.name()
        )
    }
}

/// Per-task execution metrics reported back to the JobTracker.
#[derive(Clone, Debug, Default)]
pub struct TaskMetrics {
    /// Wall time from assignment to completion.
    pub elapsed: SimDuration,
    /// Bytes read from the DFS.
    pub bytes_read: u64,
    /// Bytes of map output produced.
    pub bytes_output: u64,
    /// Records read from a replica on the task's own node.
    pub local_reads: u64,
    /// Records read over the network.
    pub remote_reads: u64,
}

/// Why a job terminated without success. Typed so chaos harnesses (and
/// callers generally) can distinguish "a task ran out of attempts" from
/// "the job-level watchdog declared it unservable" — the latter replaces
/// the historical failure mode of hanging the session forever when, e.g.,
/// every replica of an input block is gone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// A task failed `attempts` times, reaching
    /// [`MrConfig::max_attempts`](crate::MrConfig::max_attempts).
    TaskFailed {
        /// The task that exhausted its attempts.
        task: TaskId,
        /// How many attempts it burned.
        attempts: u32,
    },
    /// The liveness watchdog ([`job_stall_timeout`](crate::MrConfig::job_stall_timeout))
    /// saw no dispatch or completed attempt for `idle_for`: the job cannot
    /// make progress (unservable input, every eligible node blacklisted, ...).
    Stalled {
        /// Time since the job last dispatched or completed an attempt.
        idle_for: SimDuration,
    },
    /// The job's input file does not exist in the DFS.
    InputMissing {
        /// The DFS path the job asked for.
        path: String,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::TaskFailed { task, attempts } => {
                write!(f, "{task} failed after {attempts} attempts")
            }
            JobError::Stalled { idle_for } => {
                write!(f, "no progress for {idle_for}; job is unservable")
            }
            JobError::InputMissing { path } => write!(f, "input file {path} does not exist"),
        }
    }
}

impl std::error::Error for JobError {}

/// Final job outcome delivered to the submitting client.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Job id.
    pub job: JobId,
    /// Job name.
    pub name: String,
    /// `true` when every task eventually succeeded.
    pub succeeded: bool,
    /// Why the job failed: `Some` exactly when `succeeded` is false.
    pub error: Option<JobError>,
    /// Submission-to-completion wall time.
    pub elapsed: SimDuration,
    /// Map tasks executed.
    pub map_tasks: u32,
    /// Reduce tasks executed.
    pub reduce_tasks: u32,
    /// Total attempts (≥ map+reduce when failures/speculation occurred).
    pub attempts: u32,
    /// Attempts that failed.
    pub failed_attempts: u32,
    /// Speculative duplicate attempts launched.
    pub speculative_attempts: u32,
    /// Bytes read from DFS by all tasks.
    pub bytes_read: u64,
    /// Map output bytes.
    pub bytes_output: u64,
    /// Record reads served node-locally.
    pub local_reads: u64,
    /// Record reads served remotely.
    pub remote_reads: u64,
    /// Aggregated key/value result (reduce output, or raw map pairs for
    /// map-only jobs).
    pub kv: Vec<(u64, u64)>,
    /// Order-independent digest over per-record output checksums
    /// `(digest, record count)` — exactly-once verification.
    pub digest: (u64, u64),
    /// Completed map task durations (speculation / distribution analysis).
    pub task_times: Vec<SimDuration>,
    /// The tenant the job billed its slot usage to.
    pub tenant: String,
    /// The job's fair-share weight.
    pub weight: f64,
    /// The job's deadline, if one was set.
    pub deadline: Option<SimTime>,
    /// Whether the job completed by its deadline (`None` when no deadline
    /// was set).
    pub deadline_met: Option<bool>,
    /// Total slot-time the job occupied: the integral of its concurrently
    /// running attempts over time, in slot-seconds (fairness accounting —
    /// tenants' `slot_seconds` ratios approach their weight ratios under
    /// fair-share scheduling while both stay busy).
    pub slot_seconds: f64,
    /// The job's share timeline: `(instant, running attempts)` at every
    /// change of its occupied-slot count, from first dispatch to
    /// completion.
    pub share_timeline: Vec<(SimTime, u32)>,
    /// Attempts of *this* job killed by preemptive slot reclamation
    /// ([`Scheduler::reclaim`](crate::sched::Scheduler::reclaim)); each
    /// one re-entered the pending queue and re-executed. Always 0 with
    /// preemption disabled (the default).
    pub preempted_attempts: u32,
    /// Victim runtime discarded on this job's behalf, in slot-seconds:
    /// the job was the beneficiary of preemption kills and
    /// [`slot_seconds`](JobResult::slot_seconds) was charged the victims'
    /// partial runtime — the wasted-work price of the slots it reclaimed.
    pub wasted_slot_seconds: f64,
    /// Name of the scheduling policy that drove this job.
    pub scheduler: &'static str,
    /// Every dispatch the scheduler made, in order: `(task, node)`.
    /// Includes re-executions and speculative duplicates.
    pub dispatch_log: Vec<(TaskId, NodeId)>,
    /// Per-node throughput estimates for this job's kernel family, when
    /// the scheduler learns them (adaptive policies; empty otherwise).
    pub node_throughput: Vec<NodeThroughput>,
}

impl JobResult {
    /// The aggregated value under `key`, if the job emitted one.
    pub fn value(&self, key: u64) -> Option<u64> {
        self.kv.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Dispatches per node, ascending by node id (derived from
    /// [`dispatch_log`](JobResult::dispatch_log)).
    pub fn dispatch_counts(&self) -> Vec<(NodeId, u32)> {
        let mut counts: std::collections::BTreeMap<NodeId, u32> = std::collections::BTreeMap::new();
        for &(_, node) in &self.dispatch_log {
            *counts.entry(node).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{FixedCostKernel, SumReducer};

    #[test]
    fn spec_debug_formats() {
        let spec = JobSpec {
            name: "t".into(),
            input: JobInput::Synthetic { total_units: 10 },
            kernel: Arc::new(FixedCostKernel::default()),
            num_map_tasks: Some(4),
            output: OutputSink::Discard,
            reduce: ReduceSpec::RpcAggregate {
                reducer: Arc::new(SumReducer {
                    cycles_per_byte: 0.0,
                }),
            },
            tenant: "default".into(),
            weight: 1.0,
            deadline: None,
        };
        let s = format!("{spec:?}");
        assert!(s.contains("fixed-cost"));
        let r = format!("{:?}", spec.reduce);
        assert!(r.contains("RpcAggregate"));
    }

    #[test]
    fn validate_rejects_non_positive_weight() {
        let mut spec = JobSpec {
            name: "w".into(),
            input: JobInput::Synthetic { total_units: 1 },
            kernel: Arc::new(FixedCostKernel::default()),
            num_map_tasks: None,
            output: OutputSink::Discard,
            reduce: ReduceSpec::None,
            tenant: "t".into(),
            weight: 0.0,
            deadline: None,
        };
        assert_eq!(
            spec.validate(SimTime::ZERO),
            Err(JobSpecError::NonPositiveWeight { weight: 0.0 })
        );
        spec.weight = -1.0;
        assert!(matches!(
            spec.validate(SimTime::ZERO),
            Err(JobSpecError::NonPositiveWeight { .. })
        ));
        spec.weight = f64::NAN;
        assert!(matches!(
            spec.validate(SimTime::ZERO),
            Err(JobSpecError::NonPositiveWeight { .. })
        ));
        spec.weight = 2.5;
        assert_eq!(spec.validate(SimTime::ZERO), Ok(()));
    }

    #[test]
    fn validate_rejects_deadline_at_or_before_submission() {
        let spec = |deadline| JobSpec {
            name: "d".into(),
            input: JobInput::Synthetic { total_units: 1 },
            kernel: Arc::new(FixedCostKernel::default()),
            num_map_tasks: None,
            output: OutputSink::Discard,
            reduce: ReduceSpec::None,
            tenant: "t".into(),
            weight: 1.0,
            deadline: Some(deadline),
        };
        let submit = SimTime::from_nanos(5_000_000_000);
        // Strictly before, and exactly at, the submission instant: both
        // born overdue.
        for late in [SimTime::from_nanos(1_000_000_000), submit] {
            assert_eq!(
                spec(late).validate(submit),
                Err(JobSpecError::DeadlineInPast {
                    deadline: late,
                    submit,
                })
            );
        }
        let future = SimTime::from_nanos(6_000_000_000);
        assert_eq!(spec(future).validate(submit), Ok(()));
        // The error message names both instants.
        let msg = spec(submit).validate(submit).unwrap_err().to_string();
        assert!(msg.contains("deadline_at"), "{msg}");
    }
}
