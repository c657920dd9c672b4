//! The four workloads. Each is a closed loop: one session over a freshly
//! deployed cluster, every job submitted up front or on a fixed simulated
//! schedule, run to completion. The benchmark's `--seed` generates the
//! inputs (file contents, kernel sample streams); each run additionally
//! takes the *cluster seed* of the trajectory it simulates (heartbeat
//! phases, placement), so one benchmark run can pool several trajectories
//! over the same inputs. The simulator only ever sees generated inputs.
//! Every run checks its own outputs and records what failed in
//! [`Outcome::failures`] instead of panicking, so a broken change reports
//! `correct: false` with a reason.

use std::sync::Arc;
use std::time::Instant;

use accelmr_des::{ActorCost, QueueStats, SimDuration, SimTime};
use accelmr_dfs::{DfsConfig, NameNode};
use accelmr_hybrid::presets::{self, PiMapper};
use accelmr_hybrid::{
    job_key, AdaptivePiKernel, CellAesKernel, CellEnvFactory, CellMrAesKernel, EmptyKernel,
    MixedEnvFactory, JOB_NONCE,
};
use accelmr_kernels::aes::modes::ctr_xor;
use accelmr_kernels::pi::{standard_error, AUTO_EXACT_LIMIT};
use accelmr_kernels::{checksum, fill_deterministic, AesImpl, UnorderedDigest};
use accelmr_mapred::{
    ChurnSchedule, ClusterBuilder, JobBuilder, JobRequest, JobResult, MrCluster, MrConfig,
    PreemptionTuning, PreloadSpec, SchedulerPolicy, SumReducer, TaskKernel,
};
use accelmr_net::NodeId;

use crate::timed_kernel::{KernelTally, TimedKernel};

const MIB: u64 = 1 << 20;
const GIB: u64 = 1 << 30;

/// SPEs a Cell machine splits one `map_units` call over.
const SPES: u64 = 8;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 1000-worker terasort under a join/leave wave (fluid fabric hot).
    ChurnTerasort1k,
    /// 1000-worker Pi job: timers, heartbeats and RPCs only.
    PiHeartbeat1k,
    /// 4-worker functional AES over real bytes (kernel call hot).
    EncryptFunctional,
    /// 64-worker two-tenant batch under fair-share with preemption.
    MultiTenantHetero,
}

/// Mapper of the `encrypt_functional` runs: the workload itself and the
/// two control rows of its traced output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EncryptMapper {
    /// `CellAesKernel`, the direct SPE library (the workload).
    Cell,
    /// `CellMrAesKernel`, through the MapReduce-for-Cell framework.
    CellMr,
    /// `EmptyKernel`: the paper's EmptyMapper floor.
    Empty,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ChurnTerasort1k,
        Workload::PiHeartbeat1k,
        Workload::EncryptFunctional,
        Workload::MultiTenantHetero,
    ];

    /// Name as written in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChurnTerasort1k => "churn_terasort_1k",
            Workload::PiHeartbeat1k => "pi_heartbeat_1k",
            Workload::EncryptFunctional => "encrypt_functional",
            Workload::MultiTenantHetero => "multi_tenant_hetero",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Host seconds one trajectory (deploy + run) takes on the 2-core box
    /// the benchmark was sized on. `--seconds` is turned into a *count* of
    /// trajectories with this, not into a deadline on the clock, so the
    /// pooled simulated metrics are a function of `--seed` and `--seconds`
    /// alone and repeat exactly.
    pub fn nominal_run_s(self, quick: bool) -> f64 {
        match (self, quick) {
            (Workload::ChurnTerasort1k, false) => 2.4,
            (Workload::PiHeartbeat1k, false) => 2.6,
            (Workload::EncryptFunctional, false) => 2.5,
            (Workload::MultiTenantHetero, false) => 0.2,
            (Workload::ChurnTerasort1k, true) => 0.25,
            (Workload::PiHeartbeat1k, true) => 0.13,
            (Workload::EncryptFunctional, true) => 0.35,
            (Workload::MultiTenantHetero, true) => 0.05,
        }
    }
}

/// Everything one run of a workload produced. Host times are wall-clock;
/// everything else is simulated and repeats exactly for a given seed.
pub struct Outcome {
    /// Host seconds to deploy the cluster and build schedule and job specs.
    pub setup_s: f64,
    /// Host seconds from the first `submit` to the last result (plus the
    /// repair drain on `churn_terasort_1k`).
    pub wall_s: f64,
    /// Simulated seconds from the first submit to the last completion.
    pub makespan_s: f64,
    /// Events the engine dispatched over the whole run.
    pub events: u64,
    /// Every job's result, in submission order.
    pub results: Vec<JobResult>,
    /// Every counter the actors kept, by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Event-queue health counters.
    pub queue: QueueStats,
    /// Host cost per actor class (traced runs; empty otherwise).
    pub actor_costs: Vec<ActorCost>,
    /// Map-kernel tally (traced runs).
    pub kernel: Option<Arc<KernelTally>>,
    /// Blocks still below their replication target at the end.
    pub under_replicated_end: u64,
    /// Correctness gates that failed, as sentences. Empty means correct.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Counter `name`, 0 when the run never touched it.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Jobs that did not succeed.
    pub fn jobs_failed(&self) -> usize {
        self.results.iter().filter(|r| !r.succeeded).count()
    }

    /// Tasks that needed an attempt: distinct tasks in the dispatch logs.
    /// (`map_tasks + reduce_tasks` would overcount: the single reduce of
    /// an RPC-aggregated job runs inside the JobTracker, not in a slot.)
    pub fn tasks(&self) -> u64 {
        self.results
            .iter()
            .map(|r| {
                let mut tasks: Vec<_> = r.dispatch_log.iter().map(|&(task, _)| task).collect();
                tasks.sort_unstable();
                tasks.dedup();
                tasks.len() as u64
            })
            .sum()
    }

    /// Attempts it took to run them.
    pub fn attempts(&self) -> u64 {
        self.results.iter().map(|r| u64::from(r.attempts)).sum()
    }

    /// Jobs that carried a deadline, and how many met it.
    pub fn deadlines(&self) -> (usize, usize) {
        let jobs = self.results.iter().filter(|r| r.deadline.is_some()).count();
        let hits = self
            .results
            .iter()
            .filter(|r| r.deadline_met == Some(true))
            .count();
        (jobs, hits)
    }

    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// A workload bound to its input seed and scale, with whatever it
/// prepares once per process (the serial reference digest of
/// `encrypt_functional`).
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated inputs: file contents and kernel streams.
    pub seed: u64,
    /// Scaled-down smoke sizes.
    pub quick: bool,
    reference_digest: Option<(u64, u64)>,
}

/// What a run of a workload is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Bare kernels, no profiling: the end-to-end numbers.
    EndToEnd,
    /// Engine profiling on and the job kernels wrapped in `TimedKernel`.
    Traced,
    /// Deploy the cluster and build schedule and job specs, then stop: one
    /// more sample of `setup_s` (which takes milliseconds of mostly page
    /// faults, so its median needs many).
    SetupOnly,
}

/// The set-up phase of one run: a deployed cluster, the clock that times
/// the phase, and the kernel wrapping (bare for end-to-end runs, timed
/// for the traced one).
struct Stage {
    cluster: MrCluster,
    started: Instant,
    mode: Mode,
    tally: Option<Arc<KernelTally>>,
}

impl Stage {
    fn deploy(builder: ClusterBuilder, mode: Mode) -> Stage {
        let started = Instant::now();
        let mut cluster = builder.deploy();
        let traced = mode == Mode::Traced;
        if traced {
            // One clock read per dispatch; event order and simulated time
            // are unchanged (asserted by the unit tests).
            cluster.sim.enable_profiling();
        }
        Stage {
            cluster,
            started,
            mode,
            tally: traced.then(Arc::default),
        }
    }

    fn job(&self, job: JobBuilder) -> JobRequest {
        let mut request = job.request();
        if let Some(tally) = &self.tally {
            request.spec.kernel = TimedKernel::wrap(request.spec.kernel.clone(), tally.clone());
        }
        request
    }

    /// Ends the set-up phase and times `drive` (submit everything, run to
    /// the last result) plus `drain` more simulated seconds, then reads
    /// the run's statistics out of the cluster. In [`Mode::SetupOnly`]
    /// nothing is driven and the outcome holds no results.
    fn run(
        mut self,
        drain: SimDuration,
        drive: impl FnOnce(&mut MrCluster) -> Vec<JobResult>,
    ) -> Outcome {
        let setup_s = self.started.elapsed().as_secs_f64();
        let started = Instant::now();
        let submitted_at = self.cluster.sim.now();
        let results = if self.mode == Mode::SetupOnly {
            Vec::new()
        } else {
            drive(&mut self.cluster)
        };
        let completed_at = self.cluster.sim.now();
        if drain > SimDuration::ZERO && !results.is_empty() {
            self.cluster.sim.run_until(completed_at + drain);
        }
        let wall_s = started.elapsed().as_secs_f64();

        let sim = &mut self.cluster.sim;
        // A run that may dispatch nothing still returns the cumulative
        // event count; the simulation is finished with, so the limit is
        // never lifted again.
        sim.set_event_limit(0);
        let events = sim.run().events;
        let under_replicated_end = sim
            .actor_ref::<NameNode>(self.cluster.dfs.namenode)
            .map_or(u64::MAX, |nn| nn.under_replicated_blocks() as u64);
        let stats = sim.stats();
        let failures = results
            .iter()
            .filter(|r| !r.succeeded)
            .map(|r| format!("job '{}' failed: {:?}", r.name, r.error))
            .collect();
        Outcome {
            setup_s,
            wall_s,
            makespan_s: (completed_at - submitted_at).as_secs_f64(),
            events,
            results,
            counters: stats.counters_sorted(),
            queue: stats.queue(),
            actor_costs: stats.actor_costs(),
            kernel: self.tally,
            under_replicated_end,
            failures,
        }
    }
}

impl Bench {
    /// Binds a workload to a seed and scale and prepares its references.
    pub fn new(workload: Workload, seed: u64, quick: bool) -> Bench {
        let mut bench = Bench {
            workload,
            seed,
            quick,
            reference_digest: None,
        };
        if workload == Workload::EncryptFunctional {
            bench.reference_digest = Some(bench.encrypt_reference());
        }
        bench
    }

    /// Cluster seed of trajectory `i`: the input seed itself for the
    /// first (so `--seed 2009` reproduces the numbers `BENCH_perf.json`
    /// pins), a SplitMix64 scramble of `(seed, i)` for the rest.
    pub fn cluster_seed(&self, i: u64) -> u64 {
        if i == 0 {
            return self.seed;
        }
        let mut z = self
            .seed
            .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Runs the workload once on the trajectory `cluster_seed` selects.
    pub fn run(&self, cluster_seed: u64, mode: Mode) -> Outcome {
        match self.workload {
            Workload::ChurnTerasort1k => self.churn_terasort(cluster_seed, mode),
            Workload::PiHeartbeat1k => self.pi_heartbeat(cluster_seed, mode),
            Workload::EncryptFunctional => self.encrypt(EncryptMapper::Cell, cluster_seed, mode),
            Workload::MultiTenantHetero => {
                self.multi_tenant(SchedulerPolicy::FairShare, cluster_seed, mode)
            }
        }
    }

    // ------------------------------------------------------ churn_terasort_1k

    /// Exactly the `churn_scale` scenario (`BENCH_perf.json`): a terasort
    /// over 1000 workers, 6000 x 64 MB blocks at replication 3, 64
    /// reducers, while 60 nodes join and 53 leave over [12 s, 52 s]. The
    /// fluid fabric does most of the host work, with DFS repair writes
    /// beside shuffle reads and JobTracker re-execution; data is virtual.
    fn churn_terasort(&self, cluster_seed: u64, mode: Mode) -> Outcome {
        let (workers, reducers, joins) = if self.quick {
            (256usize, 16usize, 15usize)
        } else {
            (1000, 64, 60)
        };
        // One 64 MB record per map task and six blocks per worker: more
        // dispatch waves than slots, so late joiners find a non-empty queue.
        let blocks = 6 * workers as u64;
        // A 12 s silence window keeps repair and re-execution latency
        // proportionate to churn; generous attempt budgets absorb fetch
        // aborts from mid-shuffle departures.
        let mr = MrConfig {
            tt_dead_after: SimDuration::from_secs(12),
            max_attempts: 30,
            ..MrConfig::default()
        };
        let dfs = DfsConfig {
            dead_after: SimDuration::from_secs(12),
            ..DfsConfig::default()
        };
        let stage = Stage::deploy(
            ClusterBuilder::new()
                .seed(cluster_seed)
                .workers(workers)
                .mr(mr)
                .dfs(dfs),
            mode,
        );
        // Every 19th worker leaves: a stride wider than the replica set,
        // so at most one of a block's initial replicas departs.
        let leaves: Vec<NodeId> = (1..=workers as u32).step_by(19).map(NodeId).collect();
        let schedule = ChurnSchedule::wave(
            joins,
            &leaves,
            SimDuration::from_secs(12),
            SimDuration::from_secs(40),
        );
        let job = stage.job(
            presets::terasort_replicated("/gray", blocks * 64 * MIB, reducers, 3)
                .map_tasks(blocks as usize),
        );

        let mut joined = Vec::new();
        // The drain runs past the last death-detection window, so that
        // replication repair finishes before the NameNode is audited.
        let mut out = stage.run(SimDuration::from_secs(180), |cluster| {
            let mut session = cluster.session();
            joined = session.churn(schedule);
            session.submit(job);
            vec![session.run()]
        });

        let Some(result) = out.results.first() else {
            return out;
        };
        let map_tasks = result.map_tasks as usize;
        let joined_dispatches = result
            .dispatch_log
            .iter()
            .filter(|(_, node)| joined.contains(node))
            .count();
        out.require(map_tasks >= workers, || {
            format!("{map_tasks} map tasks on {workers} workers: the queue cannot outlive the churn window")
        });
        out.require(joined_dispatches > 0, || {
            "no work was dispatched onto joined nodes".into()
        });
        let (nodes_joined, nodes_left) = (
            out.counter("cluster.nodes_joined"),
            out.counter("cluster.nodes_left"),
        );
        out.require(
            nodes_joined == joins as u64 && nodes_left == leaves.len() as u64,
            || {
                format!(
                    "churn applied {nodes_joined} joins / {nodes_left} leaves, scheduled {joins} / {}",
                    leaves.len()
                )
            },
        );
        let under = out.under_replicated_end;
        out.require(
            out.counter("dfs.blocks_replicated") > 0 && under == 0,
            || format!("{under} blocks did not re-reach their replication target"),
        );
        out
    }

    // -------------------------------------------------------- pi_heartbeat_1k

    /// A CPU-bound Pi job on 1000 plain workers: no data and no flows, so
    /// the ~20M events are all timers, heartbeats and RPCs. The event
    /// engine and the control plane do the work; the fabric only carries
    /// RPCs, so a fluid-path gain predicts no change here.
    ///
    /// Sizing guard: `count_inside_auto` draws *real* samples at or below
    /// `AUTO_EXACT_LIMIT` per call, so a smaller job would silently turn
    /// this control-plane workload into minutes of Monte Carlo. The per-
    /// task sample count is asserted against the limit before the run.
    fn pi_heartbeat(&self, cluster_seed: u64, mode: Mode) -> Outcome {
        let (workers, samples) = if self.quick {
            (256usize, 1_000_000_000_000u64)
        } else {
            (1000, 20_000_000_000_000)
        };
        let stage = Stage::deploy(
            ClusterBuilder::new().seed(cluster_seed).workers(workers),
            mode,
        );
        let job = stage.job(presets::pi(PiMapper::Java, self.seed, samples));
        let slots = (workers * MrConfig::default().map_slots_per_node) as u64;
        assert_units_per_call(samples / slots);
        let mut out = stage.run(SimDuration::ZERO, |cluster| {
            let mut session = cluster.session();
            session.submit(job);
            vec![session.run()]
        });

        let Some(result) = out.results.first() else {
            return out;
        };
        let estimate = presets::pi_estimate(result);
        let total = result.value(1).unwrap_or(0);
        out.require(total == samples, || {
            format!("pi job counted {total} samples, submitted {samples}")
        });
        let error = estimate.map_or(f64::INFINITY, |e| (e - std::f64::consts::PI).abs());
        out.require(error <= 4.0 * standard_error(samples), || {
            format!(
                "pi estimate {estimate:?} is {error:e} from pi, over 4 standard errors ({:e})",
                standard_error(samples)
            )
        });
        out
    }

    // ----------------------------------------------------- encrypt_functional

    fn encrypt_len(&self) -> u64 {
        if self.quick {
            16 * MIB
        } else {
            128 * MIB
        }
    }

    /// Serial reference: fill and encrypt every 2 MiB record on one core
    /// and digest the ciphertext, exactly what the job must reproduce
    /// through DFS blocks, record feed, bridge, local stores and DMA.
    fn encrypt_reference(&self) -> (u64, u64) {
        let key = job_key();
        let mut digest = UnorderedDigest::new();
        let mut buf = vec![0u8; ENCRYPT_RECORD as usize];
        for r in 0..self.encrypt_len() / ENCRYPT_RECORD {
            fill_deterministic(self.seed, r * ENCRYPT_RECORD, &mut buf);
            ctr_xor(
                &key,
                AesImpl::TTable,
                JOB_NONCE,
                r * ENCRYPT_RECORD / 16,
                &mut buf,
            );
            digest.add(checksum(&buf));
        }
        digest.finish()
    }

    /// Functional AES-CTR over real bytes on 4 materialized workers: the
    /// event count is tiny and host time sits inside the kernel call
    /// (`hybrid` -> `cellbe` -> `kernels`), so `des` / `net` are idle. The
    /// only workload whose output is checked byte for byte.
    pub fn encrypt(&self, mapper: EncryptMapper, cluster_seed: u64, mode: Mode) -> Outcome {
        let len = self.encrypt_len();
        let stage = Stage::deploy(
            ClusterBuilder::new()
                .seed(cluster_seed)
                .workers(4)
                .env(CellEnvFactory {
                    materialized: true,
                    ..CellEnvFactory::default()
                })
                .materialized(true),
            mode,
        );
        let kernel: Arc<dyn TaskKernel> = match mapper {
            EncryptMapper::Cell => Arc::new(CellAesKernel::new()),
            EncryptMapper::CellMr => Arc::new(CellMrAesKernel::new()),
            EncryptMapper::Empty => Arc::new(EmptyKernel),
        };
        let job = stage.job(
            JobBuilder::new("encrypt-functional")
                .input_file("/plain")
                .record_bytes(ENCRYPT_RECORD)
                .kernel_arc(kernel)
                .map_tasks(8)
                .digest_output()
                .preload(
                    PreloadSpec::new("/plain", len, self.seed)
                        .block_size(4 * MIB)
                        .replication(2),
                ),
        );
        let mut out = stage.run(SimDuration::ZERO, |cluster| {
            let mut session = cluster.session();
            session.submit(job);
            vec![session.run()]
        });

        let Some(digest) = out.results.first().map(|r| r.digest) else {
            return out;
        };
        let records = len / ENCRYPT_RECORD;
        out.require(digest.1 == records, || {
            format!("digest folded {} records, input has {records}", digest.1)
        });
        // The EmptyMapper control digests plaintext, not ciphertext.
        if mapper != EncryptMapper::Empty {
            let reference = self.reference_digest.expect("prepared by Bench::new");
            out.require(digest == reference, || {
                format!("ciphertext digest {digest:x?} differs from the serial reference {reference:x?}")
            });
        }
        out
    }

    // ---------------------------------------------------- multi_tenant_hetero

    /// The same `mapred` layer used differently: many jobs, `pick_job` /
    /// `reclaim` on every heartbeat, kill-and-requeue, tenant billing.
    /// Tenant `batch` sorts twice at t=0; tenant `interactive` submits 16
    /// small deadlined Pi jobs 10 s apart on a half-accelerated cluster.
    /// Its value is the *simulated* outcome (deadlines met, work wasted),
    /// which is seed-dependent and deliberately not saturated.
    ///
    /// Sizing guard: an accelerated node splits a task's samples over 8
    /// SPEs and each SPE call draws real samples at or below
    /// `AUTO_EXACT_LIMIT`; one step smaller and this 0.2 s run becomes
    /// minutes of Monte Carlo. Asserted before the run.
    pub fn multi_tenant(&self, policy: SchedulerPolicy, cluster_seed: u64, mode: Mode) -> Outcome {
        let (workers, heavy_bytes, reducers, light_jobs) = if self.quick {
            (16usize, 32 * GIB, 8usize, 8usize)
        } else {
            (64, 128 * GIB, 32, 16)
        };
        const LIGHT_SAMPLES: u64 = 320_000_000;
        const LIGHT_TASKS: usize = 8;
        let stagger = SimDuration::from_secs(10);
        let deadline_after = SimDuration::from_secs(100);

        let stage = Stage::deploy(
            ClusterBuilder::new()
                .seed(cluster_seed)
                .workers(workers)
                .env(MixedEnvFactory::half())
                .mr(MrConfig {
                    scheduler: policy,
                    preemption: PreemptionTuning::balanced(),
                    ..MrConfig::default()
                }),
            mode,
        );
        let heavy: Vec<JobRequest> = (0..2)
            .map(|i| {
                stage.job(
                    presets::terasort(&format!("/sort-{i}"), heavy_bytes, reducers)
                        .name(format!("terasort-{i}"))
                        .tenant("batch"),
                )
            })
            .collect();
        let light: Vec<(SimDuration, JobRequest)> = (0..light_jobs as u64)
            .map(|i| {
                let at = stagger.saturating_mul(i);
                let job = JobBuilder::new(format!("pi-{i}"))
                    .synthetic(LIGHT_SAMPLES)
                    .kernel(AdaptivePiKernel::new(self.seed.wrapping_add(i)))
                    .map_tasks(LIGHT_TASKS)
                    .rpc_aggregate(SumReducer {
                        cycles_per_byte: 1.0,
                    })
                    .tenant("interactive")
                    .deadline_at(SimTime::ZERO + at + deadline_after);
                (at, stage.job(job))
            })
            .collect();
        assert_units_per_call(LIGHT_SAMPLES / LIGHT_TASKS as u64 / SPES);
        let mut out = stage.run(SimDuration::ZERO, |cluster| {
            let mut session = cluster.session();
            for job in heavy {
                session.submit(job);
            }
            for (at, job) in light {
                session.submit_after(at, job);
            }
            session.run_until_complete()
        });

        // Slot-second conservation: what the tenants were billed equals
        // the integral of their share timelines (each preemption transfer
        // nets to zero), every kill is attributed to exactly one victim,
        // and nobody was billed for more slots than the cluster has.
        let billed: f64 = out.results.iter().map(|r| r.slot_seconds).sum();
        let integrated: f64 = out.results.iter().map(share_integral).sum();
        out.require(
            (billed - integrated).abs() <= 1e-6 * billed.max(1.0),
            || format!("slot ledger imbalance: billed {billed} vs timeline integral {integrated}"),
        );
        let slots = (workers * MrConfig::default().map_slots_per_node) as f64;
        let capacity = slots * out.makespan_s;
        out.require(billed <= capacity * (1.0 + 1e-9), || {
            format!("billed {billed} slot-seconds on a cluster that offered {capacity}")
        });
        let kills = out.counter("mr.preemptions");
        let preempted: u64 = out
            .results
            .iter()
            .map(|r| u64::from(r.preempted_attempts))
            .sum();
        out.require(kills == preempted, || {
            format!("{kills} preemption kills but {preempted} preempted attempts billed to jobs")
        });
        out
    }
}

/// Record size of `encrypt_functional` (2 MiB, two per 4 MiB block).
const ENCRYPT_RECORD: u64 = 2 * MIB;

/// The sizing guard of the two Pi-carrying workloads: `units` is the
/// smallest sample count one `count_inside_auto` call receives. A trip
/// means the benchmark's own constants were edited into the real-sampling
/// regime, so it stops before the run rather than after minutes of it.
fn assert_units_per_call(units: u64) {
    assert!(
        units > AUTO_EXACT_LIMIT,
        "{units} samples per kernel call is at or below AUTO_EXACT_LIMIT ({AUTO_EXACT_LIMIT}): \
         the run would draw real Monte Carlo samples"
    );
}

/// Integral of a job's occupied slots over its whole share timeline, in
/// slot-seconds (the level is back to zero at the last entry).
fn share_integral(r: &JobResult) -> f64 {
    let mut total = 0.0;
    let mut level = 0u32;
    let mut at = SimTime::ZERO;
    for &(t, next) in &r.share_timeline {
        total += f64::from(level) * (t - at).as_secs_f64();
        level = next;
        at = t;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A wrong ciphertext must fail the run, not pass silently.
    #[test]
    fn digest_gate_rejects_a_wrong_reference() {
        let mut bench = Bench::new(Workload::EncryptFunctional, 3, true);
        assert!(bench.run(3, Mode::EndToEnd).failures.is_empty());
        bench.reference_digest = Some((1, 8));
        let failures = bench.run(3, Mode::EndToEnd).failures;
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("differs from the serial reference"));
    }

    #[test]
    fn trajectory_zero_is_the_input_seed_and_the_rest_differ() {
        let bench = Bench::new(Workload::PiHeartbeat1k, 2009, true);
        assert_eq!(bench.cluster_seed(0), 2009);
        let mut seeds: Vec<u64> = (0..64).map(|i| bench.cluster_seed(i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 64);
    }

    #[test]
    #[should_panic(expected = "AUTO_EXACT_LIMIT")]
    fn sizing_guard_trips_at_the_limit() {
        assert_units_per_call(AUTO_EXACT_LIMIT);
    }
}
