//! Fluent builders for cluster deployment and job description.
//!
//! [`ClusterBuilder`] deploys a cluster through named setters over sane
//! defaults, and [`JobBuilder`] replaces hand-rolled [`JobSpec`] struct
//! literals:
//!
//! ```
//! use accelmr_mapred::{ClusterBuilder, JobBuilder, SumReducer};
//! use accelmr_mapred::FixedCostKernel;
//!
//! let mut cluster = ClusterBuilder::new().workers(2).seed(7).deploy();
//! let mut session = cluster.session();
//! session.submit(
//!     JobBuilder::new("count")
//!         .synthetic(10_000)
//!         .kernel(FixedCostKernel::default())
//!         .rpc_aggregate(SumReducer { cycles_per_byte: 1.0 }),
//! );
//! let result = session.run();
//! assert!(result.succeeded);
//! ```

use std::sync::Arc;

use accelmr_des::Sim;
use accelmr_dfs::DfsConfig;
use accelmr_net::{Fabric, NetConfig, NetHandle, NodeId};

use crate::cluster::{deploy_mr, MrCluster, PreloadSpec};
use crate::config::{MrConfig, SchedulerPolicy};
use crate::job::{JobInput, JobSpec, OutputSink, ReduceSpec};
use crate::kernel::{NodeEnvFactory, NullEnvFactory, ReduceKernel, TaskKernel};
use crate::session::JobRequest;

/// Fluent deployment of a simulated cluster: fabric + DFS + MapReduce
/// runtime over `workers` nodes, with named setters and defaults matching
/// the paper's configuration (`DfsConfig`/`MrConfig` defaults, timing-only
/// simulation, no accelerators) on the paper's Gigabit Ethernet network.
pub struct ClusterBuilder {
    seed: u64,
    workers: usize,
    dfs: DfsConfig,
    mr: MrConfig,
    /// Arc (not Box) so the deployed cluster can retain the factory and
    /// build environments for nodes joining mid-session.
    env: Arc<dyn NodeEnvFactory>,
    materialized: bool,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterBuilder {
    /// Starts from the defaults: seed 42, 4 workers, default DFS/MR
    /// configs, no per-node accelerator state, timing-only data. The
    /// network is always the paper's: its rates are constants of
    /// `accelmr_net::config`.
    pub fn new() -> Self {
        ClusterBuilder {
            seed: 42,
            workers: 4,
            dfs: DfsConfig::default(),
            mr: MrConfig::default(),
            env: Arc::new(NullEnvFactory),
            materialized: false,
        }
    }

    /// Seed of the deterministic simulation RNG.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of worker nodes (the JobTracker's head node is extra).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// DFS configuration.
    pub fn dfs(mut self, dfs: DfsConfig) -> Self {
        self.dfs = dfs;
        self
    }

    /// MapReduce runtime configuration.
    pub fn mr(mut self, mr: MrConfig) -> Self {
        self.mr = mr;
        self
    }

    /// The cluster's scheduling policy (shorthand for setting
    /// [`MrConfig::scheduler`]).
    pub fn scheduler(mut self, policy: SchedulerPolicy) -> Self {
        self.mr.scheduler = policy;
        self
    }

    /// Per-node accelerator environment factory (the hybrid crate's
    /// `CellEnvFactory` plugs in here). Nodes joining mid-session via
    /// [`Session::add_node_at`](crate::Session::add_node_at) get their
    /// environments from the same factory.
    pub fn env(mut self, env: impl NodeEnvFactory + 'static) -> Self {
        self.env = Arc::new(env);
        self
    }

    /// Materialized mode: DataNodes store and serve real bytes so kernels
    /// run functionally (end-to-end verification). Default is timing-only.
    pub fn materialized(mut self, materialized: bool) -> Self {
        self.materialized = materialized;
        self
    }

    /// Deploys the cluster: spawns the fabric, NameNode/DataNodes, and
    /// JobTracker/TaskTrackers into a fresh simulation. The deployed
    /// cluster retains the configs and environment factory, so sessions
    /// over it support dynamic membership
    /// ([`Session::add_node_at`](crate::Session::add_node_at) /
    /// [`Session::remove_node_at`](crate::Session::remove_node_at)).
    pub fn deploy(self) -> MrCluster {
        // A workerless cluster can never complete a job: the JobTracker
        // would wait forever for TaskTrackers that don't exist.
        assert!(self.workers > 0, "cluster needs at least one worker node");
        // Reject configs that would hang or mis-detect dead trackers (zero
        // slots, zero heartbeat, dead-timeout within one heartbeat). Call
        // `MrConfig::validate` directly for the typed error; `deploy_dfs`
        // does the same for the `DfsConfig`.
        if let Err(e) = self.mr.validate() {
            panic!("invalid MrConfig: {e}");
        }
        // A timing-only accelerator handed real record bytes has no output
        // to return, and the job would die mid-run.
        assert!(
            !self.materialized || self.env.materialized(),
            "materialized(true) needs a materialized env factory (e.g. \
             CellEnvFactory {{ materialized: true }}); this env factory is timing-only"
        );
        let mut sim = Sim::new(self.seed);
        let workers: Vec<NodeId> = (1..=self.workers as u32).map(NodeId).collect();
        let fabric = sim.spawn(Box::new(Fabric::new(
            NetConfig::default(),
            self.workers + 1,
        )));
        let net = NetHandle { fabric };
        let dfs = accelmr_dfs::deploy_dfs(&mut sim, net, &self.dfs, &workers, self.materialized);
        let mr = deploy_mr(&mut sim, net, &dfs, self.mr, &workers, self.env);
        MrCluster {
            sim,
            net,
            dfs,
            mr,
            workers,
            // Worker ids are 1..=workers; the next join gets the next id.
            next_node: self.workers as u32 + 1,
        }
    }
}

/// Fluent construction of a [`JobSpec`], optionally bundling the DFS
/// preloads the job's input depends on (carried to the
/// [`Session`](crate::Session) by [`JobRequest`]).
///
/// Required before [`build`](JobBuilder::build): an input
/// ([`input_file`](JobBuilder::input_file) or
/// [`synthetic`](JobBuilder::synthetic)) and a kernel
/// ([`kernel`](JobBuilder::kernel)). Everything else defaults to a
/// map-only job discarding its output.
#[derive(Clone)]
pub struct JobBuilder {
    name: String,
    input: Option<JobInput>,
    kernel: Option<Arc<dyn TaskKernel>>,
    num_map_tasks: Option<usize>,
    output: OutputSink,
    reduce: ReduceSpec,
    tenant: String,
    weight: f64,
    deadline: Option<accelmr_des::SimTime>,
    preloads: Vec<PreloadSpec>,
}

impl JobBuilder {
    /// Starts a job description under `name`.
    pub fn new(name: impl Into<String>) -> Self {
        JobBuilder {
            name: name.into(),
            input: None,
            kernel: None,
            num_map_tasks: None,
            output: OutputSink::Discard,
            reduce: ReduceSpec::None,
            tenant: "default".into(),
            weight: 1.0,
            deadline: None,
            preloads: Vec::new(),
        }
    }

    /// Renames the job.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Data-intensive input: a DFS file split across map tasks. Record
    /// granularity defaults to one DFS block (64 MB, per the paper);
    /// override with [`record_bytes`](JobBuilder::record_bytes).
    pub fn input_file(mut self, path: impl Into<String>) -> Self {
        self.input = Some(JobInput::File {
            path: path.into(),
            record_bytes: None,
        });
        self
    }

    /// Record granularity of a file input. Panics if called before
    /// [`input_file`](JobBuilder::input_file).
    pub fn record_bytes(mut self, bytes: u64) -> Self {
        match &mut self.input {
            Some(JobInput::File { record_bytes, .. }) => *record_bytes = Some(bytes),
            _ => panic!("record_bytes requires input_file to be set first"),
        }
        self
    }

    /// CPU-intensive input: `total_units` synthetic work units split evenly
    /// across map tasks (the Pi estimator's samples).
    pub fn synthetic(mut self, total_units: u64) -> Self {
        self.input = Some(JobInput::Synthetic { total_units });
        self
    }

    /// The map kernel.
    pub fn kernel(mut self, kernel: impl TaskKernel + 'static) -> Self {
        self.kernel = Some(Arc::new(kernel));
        self
    }

    /// The map kernel, pre-wrapped (shared or type-erased kernels).
    pub fn kernel_arc(mut self, kernel: Arc<dyn TaskKernel>) -> Self {
        self.kernel = Some(kernel);
        self
    }

    /// Number of map tasks. Default: one per configured map slot (the
    /// paper's `NumMappers`).
    pub fn map_tasks(mut self, tasks: usize) -> Self {
        self.num_map_tasks = Some(tasks);
        self
    }

    /// An explicit [`OutputSink`].
    pub fn output(mut self, output: OutputSink) -> Self {
        self.output = output;
        self
    }

    /// No DFS write-back ([`OutputSink::Discard`]): kernel-level
    /// verification without write traffic. Map output is still counted and
    /// digested, as under every sink.
    pub fn digest_output(mut self) -> Self {
        self.output = OutputSink::Discard;
        self
    }

    /// Write map output to a DFS directory (`<path>/part-NNNNN` per task).
    pub fn write_output(mut self, path: impl Into<String>, replication: Option<usize>) -> Self {
        self.output = OutputSink::Dfs {
            path: path.into(),
            replication,
        };
        self
    }

    /// Tiny per-task results aggregated at the JobTracker (the shape of
    /// Hadoop's PiEstimator).
    pub fn rpc_aggregate(mut self, reducer: impl ReduceKernel + 'static) -> Self {
        self.reduce = ReduceSpec::RpcAggregate {
            reducer: Arc::new(reducer),
        };
        self
    }

    /// Full shuffle into `reducers` reduce tasks.
    pub fn shuffle(
        mut self,
        reducers: usize,
        reducer: impl ReduceKernel + 'static,
        write_output: bool,
    ) -> Self {
        self.reduce = ReduceSpec::Shuffle {
            reducers,
            reducer: Arc::new(reducer),
            write_output,
        };
        self
    }

    /// The tenant this job bills its slot usage to. Tenants are the unit
    /// of fair sharing: under
    /// [`SchedulerPolicy::FairShare`](crate::SchedulerPolicy)
    /// every free slot goes to the tenant with the smallest weighted
    /// running-slot share. Default: `"default"` (all jobs one tenant —
    /// fair-share then degenerates to FIFO between them).
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Fair-share weight (> 0, default 1.0): the tenant's entitled slot
    /// share is proportional to its weight. Zero, negative, or non-finite
    /// weights are rejected at build time
    /// ([`JobSpecError::NonPositiveWeight`](crate::JobSpecError)).
    pub fn weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Completion deadline, as an absolute simulated instant. Consumed by
    /// [`SchedulerPolicy::DeadlineSlack`](crate::SchedulerPolicy)
    /// (earliest-slack-first dispatch) and reported back through
    /// [`JobResult::deadline_met`](crate::JobResult::deadline_met). A
    /// deadline at or before the submission instant is rejected
    /// ([`JobSpecError::DeadlineInPast`](crate::JobSpecError)).
    pub fn deadline_at(mut self, deadline: accelmr_des::SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a DFS preload this job's input depends on; the session
    /// driver runs all preloads before submitting the job.
    pub fn preload(mut self, preload: PreloadSpec) -> Self {
        self.preloads.push(preload);
        self
    }

    /// Finishes the spec. Panics when no input or no kernel was set — both
    /// are required for a runnable job.
    pub fn build(self) -> JobSpec {
        self.request().spec
    }

    /// Finishes the spec together with its preloads, ready for
    /// [`Session::submit`](crate::Session::submit).
    pub fn request(self) -> JobRequest {
        let input = self.input.unwrap_or_else(|| {
            panic!(
                "JobBuilder '{}': no input set (input_file/synthetic)",
                self.name
            )
        });
        let kernel = self
            .kernel
            .unwrap_or_else(|| panic!("JobBuilder: no kernel set (kernel/kernel_arc)"));
        let spec = JobSpec {
            name: self.name,
            input,
            kernel,
            num_map_tasks: self.num_map_tasks,
            output: self.output,
            reduce: self.reduce,
            tenant: self.tenant,
            weight: self.weight,
            deadline: self.deadline,
        };
        let request = JobRequest {
            spec,
            preloads: self.preloads,
        };
        // Build-time validation catches what needs no submission instant
        // (non-positive weights, a deadline at t=0, zero preload block
        // sizes or replication); `Session::submit` re-validates deadlines
        // against the real submission time.
        if let Err(e) = request.validate(accelmr_des::SimTime::ZERO) {
            panic!("JobBuilder '{}': invalid JobSpec: {e}", request.spec.name);
        }
        request
    }
}

impl PreloadSpec {
    /// A preload of `len` bytes at `path`, content derived from `seed`,
    /// with default block size and replication.
    pub fn new(path: impl Into<String>, len: u64, seed: u64) -> Self {
        PreloadSpec {
            path: path.into(),
            len,
            block_size: None,
            replication: None,
            seed,
        }
    }

    /// Overrides the DFS block size.
    pub fn block_size(mut self, bytes: u64) -> Self {
        self.block_size = Some(bytes);
        self
    }

    /// Overrides the replication factor.
    pub fn replication(mut self, replicas: usize) -> Self {
        self.replication = Some(replicas);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{FixedCostKernel, SumReducer};

    #[test]
    fn job_builder_fills_spec() {
        let req = JobBuilder::new("j")
            .input_file("/f")
            .record_bytes(1 << 20)
            .kernel(FixedCostKernel::default())
            .map_tasks(3)
            .digest_output()
            .rpc_aggregate(SumReducer {
                cycles_per_byte: 1.0,
            })
            .preload(
                PreloadSpec::new("/f", 4 << 20, 9)
                    .block_size(1 << 20)
                    .replication(2),
            )
            .request();
        assert_eq!(req.spec.name, "j");
        assert_eq!(req.spec.num_map_tasks, Some(3));
        assert_eq!(req.spec.output, OutputSink::Discard);
        assert_eq!(req.preloads.len(), 1);
        assert_eq!(req.preloads[0].block_size, Some(1 << 20));
        assert_eq!(req.preloads[0].replication, Some(2));
        match &req.spec.input {
            JobInput::File { path, record_bytes } => {
                assert_eq!(path, "/f");
                assert_eq!(*record_bytes, Some(1 << 20));
            }
            other => panic!("unexpected input {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "no input")]
    fn job_builder_requires_input() {
        let _ = JobBuilder::new("x")
            .kernel(FixedCostKernel::default())
            .build();
    }

    #[test]
    #[should_panic(expected = "no kernel")]
    fn job_builder_requires_kernel() {
        let _ = JobBuilder::new("x").synthetic(1).build();
    }

    #[test]
    #[should_panic(expected = "record_bytes requires input_file")]
    fn record_bytes_requires_file_input() {
        let _ = JobBuilder::new("x").record_bytes(1);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn cluster_builder_rejects_zero_workers() {
        let _ = ClusterBuilder::new().workers(0).deploy();
    }

    #[test]
    #[should_panic(expected = "invalid MrConfig")]
    fn cluster_builder_rejects_invalid_mr_config() {
        let bad = MrConfig {
            map_slots_per_node: 0,
            ..MrConfig::default()
        };
        let _ = ClusterBuilder::new().workers(2).mr(bad).deploy();
    }

    #[test]
    #[should_panic(expected = "tt_dead_after")]
    fn cluster_builder_rejects_dead_timeout_within_heartbeat() {
        let bad = MrConfig {
            tt_dead_after: accelmr_des::SimDuration::from_secs(2),
            heartbeat_interval: accelmr_des::SimDuration::from_secs(3),
            ..MrConfig::default()
        };
        let _ = ClusterBuilder::new().workers(2).mr(bad).deploy();
    }

    #[test]
    #[should_panic(expected = "invalid DfsConfig")]
    fn cluster_builder_rejects_dfs_dead_timeout_within_heartbeat() {
        let bad = DfsConfig {
            dead_after: accelmr_des::SimDuration::from_secs(2),
        };
        let _ = ClusterBuilder::new().workers(2).dfs(bad).deploy();
    }

    /// Runs `job` alone on a two-worker cluster.
    fn run_alone(job: impl Into<JobRequest>) {
        let mut cluster = ClusterBuilder::new().workers(2).deploy();
        let mut session = cluster.session();
        session.submit(job);
        session.run_until_complete();
    }

    fn file_job() -> JobBuilder {
        JobBuilder::new("x")
            .input_file("/f")
            .kernel(FixedCostKernel::default())
    }

    /// Unchecked, a zero block size hung the NameNode's preload loop.
    #[test]
    #[should_panic(expected = "preload /f: block size must be positive")]
    fn preload_with_zero_block_size_is_rejected() {
        run_alone(file_job().preload(PreloadSpec::new("/f", 4 << 20, 1).block_size(0)));
    }

    /// Submitted past the builder, a replication-0 preload is rejected by
    /// the session before it installs blocks with no replica.
    #[test]
    #[should_panic(expected = "preload /f: replication must be positive")]
    fn preload_with_zero_replication_is_rejected() {
        let preloads = vec![PreloadSpec::new("/f", 4 << 20, 1).replication(0)];
        run_alone(JobRequest {
            spec: file_job().build(),
            preloads,
        });
    }

    #[test]
    fn cluster_builder_deploys_workers() {
        let c = ClusterBuilder::new().workers(3).seed(9).deploy();
        assert_eq!(c.workers.len(), 3);
        assert_eq!(c.mr.tasktrackers.snapshot().len(), 3);
    }
}
