//! Runtime-level scenario tests: scheduling, feed pipeline, fault
//! tolerance, speculation, shuffle — all without the hybrid/Cell layer
//! (kernels here are simple fixed-cost stand-ins).

use std::sync::Arc;

use accelmr_des::{SimDuration, SimTime};
use accelmr_dfs::DfsConfig;

use crate::builder::{ClusterBuilder, JobBuilder};
use crate::cluster::{MrCluster, PreloadSpec};
use crate::config::{MrConfig, SchedulerPolicy};
use crate::job::{JobError, JobResult, JobSpec};
use crate::jobtracker::{JOB_FINALIZE_TIME, JOB_INIT_TIME};
use crate::kernel::{FixedCostKernel, NodeEnv, SumReducer, TaskKernel, UnitsOutcome};
use crate::msgs::CrashTaskTracker;
use crate::session::JobRequest;
use crate::tasktracker::{TASK_CLEANUP_OVERHEAD, TASK_START_OVERHEAD};

const MB: u64 = 1 << 20;

fn cluster(seed: u64, workers: usize, mr_cfg: MrConfig, materialized: bool) -> MrCluster {
    ClusterBuilder::new()
        .seed(seed)
        .workers(workers)
        .mr(mr_cfg)
        .materialized(materialized)
        .deploy()
}

fn synthetic_spec(kernel: Arc<dyn TaskKernel>, units: u64, maps: Option<usize>) -> JobSpec {
    let builder = JobBuilder::new("synthetic")
        .synthetic(units)
        .kernel_arc(kernel)
        .rpc_aggregate(SumReducer {
            cycles_per_byte: 1.0,
        });
    match maps {
        Some(n) => builder.map_tasks(n),
        None => builder,
    }
    .build()
}

/// Drives one job (plus its preloads) through a fresh [`Session`].
fn run_one(c: &mut MrCluster, preloads: Vec<PreloadSpec>, spec: JobSpec) -> JobResult {
    let mut session = c.session();
    session.submit(JobRequest { spec, preloads });
    session.run()
}

#[test]
fn synthetic_job_completes_and_aggregates() {
    let mut c = cluster(1, 4, MrConfig::default(), false);
    let kernel = Arc::new(FixedCostKernel::default());
    let result = run_one(&mut c, vec![], synthetic_spec(kernel, 1_000_000, None));
    assert!(result.succeeded);
    // Default task count = 2 slots × 4 nodes.
    assert_eq!(result.map_tasks, 8);
    assert_eq!(result.attempts, 8);
    assert_eq!(result.failed_attempts, 0);
    // Sum of per-task unit counts equals the total.
    let total: u64 = result.kv.iter().map(|&(_, v)| v).sum();
    assert_eq!(total, 1_000_000);
    // The job floor: init + heartbeat dispatch + task start + finalize.
    let floor = JOB_INIT_TIME + JOB_FINALIZE_TIME;
    assert!(result.elapsed > floor);
    assert!(
        result.elapsed < SimDuration::from_secs(60),
        "{}",
        result.elapsed
    );
}

#[test]
fn file_job_processes_every_record_exactly_once() {
    let mut c = cluster(2, 3, MrConfig::default(), true);
    // 18 MB file, 1 MB records, 2 MB blocks.
    let preload = PreloadSpec {
        path: "/in".into(),
        len: 18 * MB,
        block_size: Some(2 * MB),
        replication: None,
        seed: 77,
    };
    let spec = JobBuilder::new("scan")
        .input_file("/in")
        .record_bytes(MB)
        .kernel(FixedCostKernel {
            per_record: SimDuration::from_millis(1),
            ..FixedCostKernel::default()
        })
        .map_tasks(6)
        .digest_output()
        .build();
    let result = run_one(&mut c, vec![preload], spec);
    assert!(result.succeeded);
    assert_eq!(result.map_tasks, 6);
    assert_eq!(result.bytes_read, 18 * MB);

    // Exactly-once record accounting via the order-independent digest:
    // reproduce the expected digest locally.
    let mut expect = accelmr_kernels::UnorderedDigest::new();
    for r in 0..18u64 {
        let mut buf = vec![0u8; MB as usize];
        accelmr_kernels::fill_deterministic(77, r * MB, &mut buf);
        expect.add(accelmr_kernels::checksum(&buf));
    }
    assert_eq!(result.digest, expect.finish());
    assert_eq!(result.digest.1, 18);
}

#[test]
fn feed_cap_dominates_data_job_time() {
    // One node, one mapper slot, no pipelining interference: 4 records of
    // 8 MB at 8.5 MB/s ≈ 3.76 s of pure feed.
    let mr_cfg = MrConfig {
        map_slots_per_node: 1,
        ..MrConfig::default()
    };
    let mut c = cluster(3, 1, mr_cfg, false);
    let preload = PreloadSpec {
        path: "/d".into(),
        len: 32 * MB,
        block_size: Some(8 * MB),
        replication: None,
        seed: 1,
    };
    let spec = JobBuilder::new("feed")
        .input_file("/d")
        .record_bytes(8 * MB)
        .kernel(FixedCostKernel {
            per_record: SimDuration::from_micros(1), // compute ≈ free
            ..FixedCostKernel::default()
        })
        .map_tasks(1)
        .build();
    let result = run_one(&mut c, vec![preload], spec);
    let feed_secs = (32 * MB) as f64 / 8.5e6;
    let total = result.elapsed.as_secs_f64();
    assert!(
        total > feed_secs,
        "job ({total:.2}s) cannot beat the feed path ({feed_secs:.2}s)"
    );
    // All overheads together stay bounded: floor < 25 s on top of feed.
    assert!(total < feed_secs + 25.0, "{total}");
    // Single node: every read local.
    assert_eq!(result.remote_reads, 0);
    assert!(result.local_reads > 0);
}

#[test]
fn pipelined_reads_overlap_compute() {
    let run = |pipelined: bool| -> JobResult {
        let mr_cfg = MrConfig {
            pipelined_reads: pipelined,
            map_slots_per_node: 1,
            ..MrConfig::default()
        };
        let mut c = cluster(4, 1, mr_cfg, false);
        let preload = PreloadSpec {
            path: "/p".into(),
            len: 192 * MB,
            block_size: Some(8 * MB),
            replication: None,
            seed: 2,
        };
        // Compute ≈ feed time per record: overlap halves the total.
        let spec = JobBuilder::new("pipe")
            .input_file("/p")
            .record_bytes(8 * MB)
            .kernel(FixedCostKernel {
                per_record: SimDuration::from_secs_f64(8.0 * MB as f64 / 8.5e6),
                ..FixedCostKernel::default()
            })
            .map_tasks(1)
            .build();
        run_one(&mut c, vec![preload], spec)
    };
    let with = run(true);
    let without = run(false);
    let speedup = without.elapsed.as_secs_f64() / with.elapsed.as_secs_f64();
    assert!(
        speedup > 1.5,
        "pipelining speedup {speedup:.2} (with={}, without={})",
        with.elapsed,
        without.elapsed
    );
    // Overlap shows up as vanishing feed stall relative to stop-and-wait:
    // every record wait beyond the first is hidden behind compute.
    assert!(with.elapsed + SimDuration::from_secs(15) < without.elapsed);
}

/// A kernel slower than the feed: with pipelined reads two records land
/// ahead of it, and each is computed exactly once. Were the second to
/// overwrite the first, the attempt would wait forever for the lost one.
#[test]
fn a_kernel_slower_than_the_feed_computes_every_record() {
    let mr_cfg = MrConfig {
        map_slots_per_node: 1,
        ..MrConfig::default()
    };
    let mut c = cluster(3, 1, mr_cfg, false);
    // A stalled attempt heartbeats forever: make it drain instead.
    c.sim.set_event_limit(100_000);
    let preload = PreloadSpec {
        path: "/slow".into(),
        len: 8 * MB,
        block_size: Some(MB),
        replication: None,
        seed: 5,
    };
    let spec = JobBuilder::new("slow-kernel")
        .input_file("/slow")
        .record_bytes(MB)
        .kernel(FixedCostKernel {
            per_record: SimDuration::from_secs(5),
            ..FixedCostKernel::default()
        })
        .map_tasks(1)
        .build();
    let result = run_one(&mut c, vec![preload], spec);
    assert!(result.succeeded);
    let mut records: Vec<u64> = result.kv.iter().map(|&(k, _)| k).collect();
    records.sort_unstable();
    assert_eq!(records, (0..8).collect::<Vec<_>>());
    // Compute-bound: eight 5 s records back to back.
    assert!(
        result.elapsed > SimDuration::from_secs(40),
        "{}",
        result.elapsed
    );
}

#[test]
fn locality_scheduler_beats_fifo() {
    let run = |policy: SchedulerPolicy| -> JobResult {
        let mr_cfg = MrConfig {
            scheduler: policy,
            ..MrConfig::default()
        };
        let mut c = cluster(5, 4, mr_cfg, false);
        // One block per task so a local assignment means a local read.
        let preload = PreloadSpec {
            path: "/l".into(),
            len: 64 * MB,
            block_size: Some(4 * MB),
            replication: None,
            seed: 3,
        };
        let spec = JobBuilder::new("loc")
            .input_file("/l")
            .record_bytes(4 * MB)
            .kernel(FixedCostKernel {
                per_record: SimDuration::from_millis(5),
                ..FixedCostKernel::default()
            })
            .map_tasks(16)
            .build();
        run_one(&mut c, vec![preload], spec)
    };
    let local = run(SchedulerPolicy::LocalityFirst);
    let fifo = run(SchedulerPolicy::Fifo);
    let frac = |r: &JobResult| r.local_reads as f64 / (r.local_reads + r.remote_reads) as f64;
    assert!(
        frac(&local) > frac(&fifo),
        "locality {:.2} vs fifo {:.2}",
        frac(&local),
        frac(&fifo)
    );
    assert!(frac(&local) > 0.6, "{:.2}", frac(&local));
}

#[test]
fn tasktracker_crash_recovers_with_reexecution() {
    let mut c = cluster(6, 3, MrConfig::default(), true);
    // Replication 2 so the dead node's blocks stay readable.
    let preload = PreloadSpec {
        path: "/ft".into(),
        len: 24 * MB,
        block_size: Some(2 * MB),
        replication: Some(2),
        seed: 9,
    };
    let spec = JobBuilder::new("ft")
        .input_file("/ft")
        .record_bytes(2 * MB)
        .kernel(FixedCostKernel {
            per_record: SimDuration::from_secs(4),
            ..FixedCostKernel::default()
        })
        .map_tasks(6)
        .digest_output()
        .build();
    // Crash node 1's TaskTracker 20 s in (mid-map), and abort its flows.
    let victim_tt = c.mr.tasktracker_on(accelmr_net::NodeId(1)).unwrap();
    c.sim.post_after(
        victim_tt,
        Box::new(CrashTaskTracker),
        SimDuration::from_secs(20),
    );

    let result = run_one(&mut c, vec![preload], spec);
    assert!(result.succeeded);
    assert_eq!(result.map_tasks, 6);
    // Work was re-executed.
    assert!(
        result.attempts > result.map_tasks,
        "attempts {} should exceed tasks {}",
        result.attempts,
        result.map_tasks
    );
    // Exactly-once digest: re-executed tasks re-produce, losers discarded.
    let mut expect = accelmr_kernels::UnorderedDigest::new();
    for r in 0..12u64 {
        let mut buf = vec![0u8; 2 * MB as usize];
        accelmr_kernels::fill_deterministic(9, r * 2 * MB, &mut buf);
        expect.add(accelmr_kernels::checksum(&buf));
    }
    assert_eq!(result.digest, expect.finish());
    assert_eq!(c.sim.stats().counter("mr.tasktrackers_declared_dead"), 1);
}

/// Kernel whose task 0 is pathologically slow — a straggler generator.
#[derive(Debug)]
struct SkewKernel;

impl TaskKernel for SkewKernel {
    fn name(&self) -> &'static str {
        "skew"
    }

    fn map_record(
        &self,
        _env: &mut dyn NodeEnv,
        _rec: &crate::kernel::RecordCtx<'_>,
    ) -> crate::kernel::RecordOutcome {
        unreachable!("synthetic-only kernel")
    }

    fn map_units(&self, _env: &mut dyn NodeEnv, units: u64, stream: u64) -> UnitsOutcome {
        let slowdown = if stream == 0 { 400 } else { 1 };
        UnitsOutcome {
            compute: SimDuration::from_nanos(100 * units * slowdown),
            kv: vec![(stream, units)],
        }
    }
}

#[test]
fn speculative_execution_duplicates_stragglers() {
    let mr_cfg = MrConfig {
        speculative: true,
        ..MrConfig::default()
    };
    let mut c = cluster(7, 4, mr_cfg, false);
    let result = run_one(
        &mut c,
        vec![],
        synthetic_spec(Arc::new(SkewKernel), 800_000, Some(8)),
    );
    assert!(result.succeeded);
    assert!(
        result.speculative_attempts >= 1,
        "expected speculation, got {}",
        result.speculative_attempts
    );
    // First completion wins; the duplicate's report is dropped, so each
    // task contributes its units exactly once.
    let total: u64 = result.kv.iter().map(|&(_, v)| v).sum();
    assert_eq!(total, 800_000);
}

#[test]
fn shuffle_reduce_runs_and_writes() {
    let mut c = cluster(8, 3, MrConfig::default(), false);
    let preload = PreloadSpec {
        path: "/sh".into(),
        len: 24 * MB,
        block_size: Some(4 * MB),
        replication: None,
        seed: 4,
    };
    // Map output = input (sorted runs), kept node-local for shuffle.
    let spec = JobBuilder::new("sortish")
        .input_file("/sh")
        .record_bytes(4 * MB)
        .kernel(FixedCostKernel {
            per_record: SimDuration::from_millis(50),
            output_ratio_percent: 100,
            ..FixedCostKernel::default()
        })
        .map_tasks(6)
        .digest_output()
        .shuffle(
            3,
            SumReducer {
                cycles_per_byte: 2.0,
            },
            true,
        )
        .build();
    let result = run_one(&mut c, vec![preload], spec);
    assert!(result.succeeded);
    assert_eq!(result.map_tasks, 6);
    assert_eq!(result.reduce_tasks, 3);
    // Reducers fetched (roughly) all map output and wrote it back.
    assert!(result.bytes_output >= 24 * MB, "{}", result.bytes_output);
    assert!(c.sim.stats().counter("dfs.blocks_allocated") > 0);
    assert!(c.sim.stats().counter("mr.shuffles_started") == 1);
}

/// One golden-trace scenario's outcome: name, whole-run event-trace
/// fingerprint, events recorded, makespan.
type TraceOutcome = (&'static str, u64, u64, SimDuration);

/// Holds scenario outcomes to a golden table of (name, fingerprint,
/// events, makespan in nanoseconds). The fingerprint covers every message,
/// timer and delivery time of the run, so any drift in dispatch,
/// speculation, split arithmetic, recovery or fabric event order moves it.
/// The makespan column separates the two ways it can move: a fabric change
/// that only reorders events *inside* an instant moves the fingerprint and
/// must leave the makespan alone; a change that moves the makespan moved
/// simulated time.
fn assert_golden(got: &[TraceOutcome], golden: &[(&str, u64, u64, u64)]) {
    assert_eq!(got.len(), golden.len());
    for (&(name, fp, events, makespan), &(gname, gfp, gevents, gmakespan)) in got.iter().zip(golden)
    {
        assert_eq!(name, gname);
        assert_eq!(
            makespan.as_nanos(),
            gmakespan,
            "scenario '{name}': simulated makespan moved"
        );
        assert_eq!(
            (fp, events),
            (gfp, gevents),
            "scenario '{name}' diverged from the golden event stream \
             (makespan unchanged: events moved, times did not)"
        );
    }
}

/// Scenarios exercising every task-level scheduling code path (FIFO pick,
/// locality pick, straggler speculation, liveness re-queue, reduce
/// dispatch), pinned by `ported_schedulers_are_trace_equivalent`.
fn sched_trace_scenarios() -> Vec<TraceOutcome> {
    let mut out = Vec::new();

    // FIFO + speculation: exercises Fifo::pick_task and pick_straggler.
    {
        let cfg = MrConfig {
            scheduler: SchedulerPolicy::Fifo,
            speculative: true,
            ..MrConfig::default()
        };
        let mut c = cluster(21, 4, cfg, false);
        c.sim.enable_trace(16);
        let r = run_one(
            &mut c,
            vec![],
            synthetic_spec(Arc::new(SkewKernel), 800_000, Some(8)),
        );
        assert!(r.succeeded);
        out.push((
            "fifo+speculative",
            c.sim.trace().fingerprint(),
            c.sim.trace().recorded(),
            r.elapsed,
        ));
    }

    // LocalityFirst over a block-per-task file job: exercises the
    // locality-preferring pick.
    {
        let cfg = MrConfig {
            scheduler: SchedulerPolicy::LocalityFirst,
            ..MrConfig::default()
        };
        let mut c = cluster(22, 4, cfg, false);
        c.sim.enable_trace(16);
        let preload = PreloadSpec {
            path: "/l".into(),
            len: 64 * MB,
            block_size: Some(4 * MB),
            replication: None,
            seed: 3,
        };
        let spec = JobBuilder::new("loc")
            .input_file("/l")
            .record_bytes(4 * MB)
            .kernel(FixedCostKernel {
                per_record: SimDuration::from_millis(5),
                ..FixedCostKernel::default()
            })
            .map_tasks(16)
            .build();
        let r = run_one(&mut c, vec![preload], spec);
        assert!(r.succeeded);
        out.push((
            "locality-file",
            c.sim.trace().fingerprint(),
            c.sim.trace().recorded(),
            r.elapsed,
        ));
    }

    // LocalityFirst + TaskTracker crash + shuffle: exercises the liveness
    // re-queue path and reduce-task dispatch.
    {
        let mut c = cluster(23, 3, MrConfig::default(), false);
        c.sim.enable_trace(16);
        let victim_tt = c.mr.tasktracker_on(accelmr_net::NodeId(1)).unwrap();
        c.sim.post_after(
            victim_tt,
            Box::new(CrashTaskTracker),
            SimDuration::from_secs(20),
        );
        let preload = PreloadSpec {
            path: "/sh".into(),
            len: 24 * MB,
            block_size: Some(4 * MB),
            replication: Some(2),
            seed: 4,
        };
        let spec = JobBuilder::new("crash-shuffle")
            .input_file("/sh")
            .record_bytes(4 * MB)
            .kernel(FixedCostKernel {
                per_record: SimDuration::from_secs(4),
                output_ratio_percent: 100,
                ..FixedCostKernel::default()
            })
            .map_tasks(6)
            .shuffle(
                3,
                SumReducer {
                    cycles_per_byte: 2.0,
                },
                true,
            )
            .build();
        let r = run_one(&mut c, vec![preload], spec);
        assert!(r.succeeded);
        out.push((
            "crash-shuffle",
            c.sim.trace().fingerprint(),
            c.sim.trace().recorded(),
            r.elapsed,
        ));
    }

    out
}

/// Multi-job scenarios exercising the *job-level* dispatch order of the
/// heartbeat loop: several concurrent jobs (staggered arrivals, different
/// task policies, speculation, and a churn wave over the elastic paths)
/// whose event streams pin down which job each free slot went to; pinned
/// by `job_level_dispatch_is_trace_equivalent`.
fn job_level_trace_scenarios() -> Vec<TraceOutcome> {
    let mut out = Vec::new();

    // Three staggered FIFO jobs with speculation: pins the regular-then-
    // speculative interleaving *across* jobs (job 0's duplicates dispatch
    // before job 1's queue is touched).
    {
        let cfg = MrConfig {
            scheduler: SchedulerPolicy::Fifo,
            speculative: true,
            ..MrConfig::default()
        };
        let mut c = cluster(61, 4, cfg, false);
        c.sim.enable_trace(16);
        let mut session = c.session();
        session.submit(synthetic_spec(Arc::new(SkewKernel), 600_000, Some(8)));
        session.submit_after(
            SimDuration::from_secs(4),
            JobRequest {
                spec: synthetic_spec(Arc::new(FixedCostKernel::default()), 400_000, Some(6)),
                preloads: vec![],
            },
        );
        session.submit_after(
            SimDuration::from_secs(9),
            JobRequest {
                spec: synthetic_spec(Arc::new(SkewKernel), 300_000, Some(4)),
                preloads: vec![],
            },
        );
        let rs = session.run_until_complete();
        assert!(rs.iter().all(|r| r.succeeded));
        let makespan = rs.iter().map(|r| r.elapsed).max().unwrap();
        out.push((
            "fifo-multi",
            c.sim.trace().fingerprint(),
            c.sim.trace().recorded(),
            makespan,
        ));
    }

    // Two concurrent LocalityFirst file jobs over distinct files: slots
    // alternate between jobs as queues drain, with locality picks inside
    // each job.
    {
        let cfg = MrConfig {
            scheduler: SchedulerPolicy::LocalityFirst,
            ..MrConfig::default()
        };
        let mut c = cluster(62, 4, cfg, false);
        c.sim.enable_trace(16);
        let file_job = |name: &str, path: &str, seed: u64| JobRequest {
            spec: JobBuilder::new(name)
                .input_file(path)
                .record_bytes(4 * MB)
                .kernel(FixedCostKernel {
                    per_record: SimDuration::from_millis(5),
                    ..FixedCostKernel::default()
                })
                .map_tasks(8)
                .build(),
            preloads: vec![PreloadSpec {
                path: path.into(),
                len: 32 * MB,
                block_size: Some(4 * MB),
                replication: None,
                seed,
            }],
        };
        let mut session = c.session();
        session.submit(file_job("loc-a", "/a", 13));
        session.submit(file_job("loc-b", "/b", 14));
        let rs = session.run_until_complete();
        assert!(rs.iter().all(|r| r.succeeded));
        let makespan = rs.iter().map(|r| r.elapsed).max().unwrap();
        out.push((
            "locality-multi",
            c.sim.trace().fingerprint(),
            c.sim.trace().recorded(),
            makespan,
        ));
    }

    // Two concurrent adaptive jobs on a half-turbo cluster: the learned
    // model (oversplit, tail guard, weighted dispatch) decides within each
    // job while job order interleaves across heartbeats.
    {
        let cfg = MrConfig {
            scheduler: SchedulerPolicy::Adaptive,
            ..MrConfig::default()
        };
        let mut c = ClusterBuilder::new()
            .seed(63)
            .workers(4)
            .mr(cfg)
            .env(HalfTurboFactory)
            .deploy();
        c.sim.enable_trace(16);
        let job = |units: u64| JobRequest {
            spec: JobBuilder::new("hetero")
                .synthetic(units)
                .kernel(HeteroKernel)
                .rpc_aggregate(SumReducer {
                    cycles_per_byte: 1.0,
                })
                .build(),
            preloads: vec![],
        };
        let mut session = c.session();
        session.submit(job(600_000_000));
        session.submit_after(SimDuration::from_secs(6), job(300_000_000));
        let rs = session.run_until_complete();
        assert!(rs.iter().all(|r| r.succeeded));
        let makespan = rs.iter().map(|r| r.elapsed).max().unwrap();
        out.push((
            "adaptive-multi",
            c.sim.trace().fingerprint(),
            c.sim.trace().recorded(),
            makespan,
        ));
    }

    // A churn wave (join + leave mid-map) under two concurrent jobs: the
    // PR 4 elastic paths (join replan, heartbeat discovery, death requeue)
    // composed with multi-job dispatch.
    {
        let cfg = MrConfig {
            tt_dead_after: SimDuration::from_secs(12),
            ..MrConfig::default()
        };
        let mut c = ClusterBuilder::new()
            .seed(64)
            .workers(4)
            .mr(cfg)
            .dfs(DfsConfig {
                dead_after: SimDuration::from_secs(12),
            })
            .deploy();
        c.sim.enable_trace(16);
        let mut session = c.session();
        session.churn(crate::session::ChurnSchedule::wave(
            1,
            &[accelmr_net::NodeId(2)],
            SimDuration::from_secs(12),
            SimDuration::from_secs(6),
        ));
        session.submit(JobRequest {
            spec: JobBuilder::new("churn-file")
                .input_file("/cf")
                .record_bytes(2 * MB)
                .kernel(FixedCostKernel {
                    per_record: SimDuration::from_secs(2),
                    ..FixedCostKernel::default()
                })
                .map_tasks(12)
                .digest_output()
                .build(),
            preloads: vec![PreloadSpec {
                path: "/cf".into(),
                len: 24 * MB,
                block_size: Some(2 * MB),
                replication: Some(2),
                seed: 15,
            }],
        });
        session.submit_after(
            SimDuration::from_secs(5),
            JobRequest {
                spec: synthetic_spec(Arc::new(FixedCostKernel::default()), 2_000_000, Some(8)),
                preloads: vec![],
            },
        );
        let rs = session.run_until_complete();
        assert!(rs.iter().all(|r| r.succeeded));
        let makespan = rs.iter().map(|r| r.elapsed).max().unwrap();
        out.push((
            "churn-multi",
            c.sim.trace().fingerprint(),
            c.sim.trace().recorded(),
            makespan,
        ));
    }

    out
}

/// Liveness-heavy scenarios exercising the heartbeat-scalability paths:
/// death detection (`check_liveness` over [`accelmr_net::Liveness`]),
/// incremental slot accounting
/// (`total_slots` / per-job running counters feeding `running_slots` and
/// `running_incomplete`), and blacklist decay. Both policies that *consume*
/// the incremental counters are on the clock: FairShare (weighted shares
/// from running slots) under a join+leave churn wave, and DeadlineSlack
/// (slack from running incomplete tasks) across a mid-map node death.
fn liveness_trace_scenarios() -> Vec<TraceOutcome> {
    let mut out = Vec::new();

    // FairShare, two tenants, churn wave with a join and a leave: shares
    // are computed from running-slot counts on every free slot while the
    // cluster's live-tracker set changes under it.
    {
        let cfg = MrConfig {
            scheduler: SchedulerPolicy::FairShare,
            tt_dead_after: SimDuration::from_secs(12),
            ..MrConfig::default()
        };
        let mut c = ClusterBuilder::new()
            .seed(71)
            .workers(4)
            .mr(cfg)
            .dfs(DfsConfig {
                dead_after: SimDuration::from_secs(12),
            })
            .deploy();
        c.sim.enable_trace(16);
        let mut session = c.session();
        session.churn(crate::session::ChurnSchedule::wave(
            1,
            &[accelmr_net::NodeId(3)],
            SimDuration::from_secs(10),
            SimDuration::from_secs(8),
        ));
        let tenant_job = |tenant: &str, units: u64| JobRequest {
            spec: JobBuilder::new("fair")
                .synthetic(units)
                .kernel(FixedCostKernel {
                    per_record: SimDuration::from_micros(40),
                    ..FixedCostKernel::default()
                })
                .rpc_aggregate(SumReducer {
                    cycles_per_byte: 1.0,
                })
                .map_tasks(8)
                .tenant(tenant)
                .build(),
            preloads: vec![],
        };
        session.submit(tenant_job("alpha", 800_000));
        session.submit(tenant_job("beta", 600_000));
        let rs = session.run_until_complete();
        assert!(rs.iter().all(|r| r.succeeded));
        let makespan = rs.iter().map(|r| r.elapsed).max().unwrap();
        out.push((
            "fair-churn",
            c.sim.trace().fingerprint(),
            c.sim.trace().recorded(),
            makespan,
        ));
    }

    // DeadlineSlack, one deadline job and one deadline-less, with a
    // TaskTracker crash mid-map: slack estimates consume the in-flight
    // incomplete-task count right through the death re-queue.
    {
        let cfg = MrConfig {
            scheduler: SchedulerPolicy::DeadlineSlack,
            tt_dead_after: SimDuration::from_secs(12),
            ..MrConfig::default()
        };
        let mut c = ClusterBuilder::new()
            .seed(72)
            .workers(3)
            .mr(cfg)
            .dfs(DfsConfig {
                dead_after: SimDuration::from_secs(12),
            })
            .deploy();
        c.sim.enable_trace(16);
        let victim_tt = c.mr.tasktracker_on(accelmr_net::NodeId(2)).unwrap();
        c.sim.post_after(
            victim_tt,
            Box::new(CrashTaskTracker),
            SimDuration::from_secs(15),
        );
        let mut session = c.session();
        session.submit(JobRequest {
            spec: JobBuilder::new("urgent")
                .synthetic(900_000)
                .kernel(FixedCostKernel {
                    per_record: SimDuration::from_micros(60),
                    ..FixedCostKernel::default()
                })
                .rpc_aggregate(SumReducer {
                    cycles_per_byte: 1.0,
                })
                .map_tasks(9)
                .deadline_at(accelmr_des::SimTime::ZERO + SimDuration::from_secs(120))
                .build(),
            preloads: vec![],
        });
        session.submit_after(
            SimDuration::from_secs(4),
            JobRequest {
                spec: synthetic_spec(Arc::new(FixedCostKernel::default()), 500_000, Some(6)),
                preloads: vec![],
            },
        );
        let rs = session.run_until_complete();
        assert!(rs.iter().all(|r| r.succeeded));
        let makespan = rs.iter().map(|r| r.elapsed).max().unwrap();
        out.push((
            "deadline-crash",
            c.sim.trace().fingerprint(),
            c.sim.trace().recorded(),
            makespan,
        ));
    }

    out
}

/// Scenarios for the TaskTracker's hardened I/O paths, which run hot only
/// under faults: watchdog time-outs with backed-off re-issue, replica
/// failover, aborted transfers from a departed node under a DFS-writing
/// job, and a preemption kill that strands reads in flight. Each asserts
/// the counter that proves its path ran; pinned by
/// `hardened_io_paths_are_trace_pinned`.
fn hardened_io_trace_scenarios() -> Vec<TraceOutcome> {
    use crate::config::PreemptionTuning;
    use crate::session::{FaultOp, FaultPlan};
    use accelmr_net::NodeId;

    let mut out = Vec::new();
    let hardened = || MrConfig {
        tt_dead_after: SimDuration::from_secs(12),
        shuffle_fetch_timeout: Some(SimDuration::from_secs(8)),
        read_timeout: Some(SimDuration::from_secs(5)),
        job_stall_timeout: Some(SimDuration::from_secs(30)),
        ..MrConfig::hardened()
    };
    let deploy = |seed: u64, workers: usize, cfg: MrConfig| {
        let mut c = ClusterBuilder::new()
            .seed(seed)
            .workers(workers)
            .mr(cfg)
            .dfs(DfsConfig {
                dead_after: SimDuration::from_secs(12),
            })
            .deploy();
        c.sim.enable_trace(16);
        c
    };
    let file_job = |name: &str, path: &str, records: u64, record: u64, per_record_ms: u64| {
        JobBuilder::new(name)
            .input_file(path)
            .record_bytes(record)
            .kernel(FixedCostKernel {
                per_record: SimDuration::from_millis(per_record_ms),
                output_ratio_percent: 100,
                ..FixedCostKernel::default()
            })
            .preload(
                PreloadSpec::new(path, records * record, 13)
                    .block_size(record)
                    .replication(2),
            )
    };

    // A partition spanning the whole shuffle: fetches against node 2's map
    // outputs time out, re-issue under backed-off patience, and get through
    // once the partition heals.
    {
        let mut c = deploy(91, 4, hardened());
        let mut session = c.session();
        session.faults(FaultPlan::new().op_at(
            SimDuration::from_secs(12),
            FaultOp::Partition {
                node: NodeId(2),
                window: SimDuration::from_secs(30),
            },
        ));
        session.submit(
            file_job("part-shuffle", "/ps", 24, 2 * MB, 50)
                .map_tasks(24)
                .digest_output()
                .shuffle(
                    3,
                    SumReducer {
                        cycles_per_byte: 2.0,
                    },
                    true,
                ),
        );
        let r = session.run();
        assert!(r.succeeded, "{:?}", r.error);
        assert!(c.sim.stats().counter("mr.attempt_retries") >= 1);
        assert_eq!(c.sim.stats().counter("net.partitions_healed"), 1);
        out.push((
            "partition-shuffle",
            c.sim.trace().fingerprint(),
            c.sim.trace().recorded(),
            r.elapsed,
        ));
    }

    // A partition during the map phase on a replication-2 input: reads
    // served by node 2 stall, their watchdogs fire, and each segment fails
    // over to its other replica. FIFO placement keeps most reads remote.
    {
        let cfg = MrConfig {
            scheduler: SchedulerPolicy::Fifo,
            ..hardened()
        };
        let mut c = deploy(92, 4, cfg);
        let mut session = c.session();
        session.faults(FaultPlan::new().op_at(
            SimDuration::from_secs(11),
            FaultOp::Partition {
                node: NodeId(2),
                window: SimDuration::from_secs(20),
            },
        ));
        session.submit(
            file_job("part-read", "/pr", 24, 8 * MB, 200)
                .map_tasks(12)
                .digest_output(),
        );
        let r = session.run();
        assert!(r.succeeded, "{:?}", r.error);
        assert!(c.sim.stats().counter("dfs.read_retries") >= 1);
        out.push((
            "partition-read",
            c.sim.trace().fingerprint(),
            c.sim.trace().recorded(),
            r.elapsed,
        ));
    }

    // Two nodes leave under a DFS-writing shuffle job, one mid-map and one
    // mid-shuffle: remote reads off the first abort and retry elsewhere,
    // fetches off the second abort and fail their reducers fast.
    {
        let cfg = MrConfig {
            scheduler: SchedulerPolicy::Fifo,
            ..hardened()
        };
        let mut c = deploy(93, 5, cfg);
        let mut session = c.session();
        session.remove_node_at(SimDuration::from_secs(13), NodeId(2));
        session.remove_node_at(SimDuration::from_secs(38), NodeId(4));
        session.submit(
            file_job("crash-write", "/cw", 40, 8 * MB, 500)
                .map_tasks(10)
                .digest_output()
                .shuffle(
                    3,
                    SumReducer {
                        cycles_per_byte: 2.0,
                    },
                    true,
                ),
        );
        let r = session.run();
        assert!(r.succeeded, "{:?}", r.error);
        assert!(c.sim.stats().counter("mr.read_retries") >= 1);
        assert!(c.sim.stats().counter("mr.tasks_failed") >= 1);
        assert!(c.sim.stats().counter("dfs.blocks_allocated") >= 1);
        out.push((
            "crash-dfs-write",
            c.sim.trace().fingerprint(),
            c.sim.trace().recorded(),
            r.elapsed,
        ));
    }

    // Fair-share preemption of file maps: the batch tenant's attempts
    // always have a record read (or its read-ahead) in flight when the
    // kill lands, so late replies must find no attempt to act on.
    {
        let cfg = MrConfig {
            scheduler: SchedulerPolicy::FairShare,
            preemption: PreemptionTuning {
                max_kills_per_job: 8,
                min_attempt_age: SimDuration::from_secs(1),
                cooldown: SimDuration::from_secs(1),
                slack_margin: SimDuration::from_secs(30),
            },
            ..MrConfig::default()
        };
        let mut c = deploy(94, 3, cfg);
        let mut session = c.session();
        session.submit(
            file_job("batch", "/pb", 48, 8 * MB, 100)
                .map_tasks(6)
                .tenant("batch"),
        );
        session.submit_after(
            SimDuration::from_secs(6),
            file_job("nimble", "/pn", 6, 8 * MB, 100)
                .map_tasks(6)
                .tenant("interactive"),
        );
        let rs = session.run_until_complete();
        assert!(rs.iter().all(|r| r.succeeded));
        assert!(c.sim.stats().counter("mr.preemptions") >= 1);
        let makespan = rs.iter().map(|r| r.elapsed).max().unwrap();
        out.push((
            "preempt-reads",
            c.sim.trace().fingerprint(),
            c.sim.trace().recorded(),
            makespan,
        ));
    }

    out
}

/// Golden table for [`hardened_io_trace_scenarios`], recorded against the
/// single-file TaskTracker before it became `tasktracker/`: the time-out,
/// failover, abort and kill paths keep their event streams bit for bit.
#[test]
fn hardened_io_paths_are_trace_pinned() {
    assert_golden(
        &hardened_io_trace_scenarios(),
        &[
            (
                "partition-shuffle",
                0xf5eea0646a686829,
                1091,
                46_211_680_380,
            ),
            ("partition-read", 0x9facedf2819646b4, 661, 36_293_157_977),
            ("crash-dfs-write", 0xb2331c81f76eddbe, 1244, 47_147_860_197),
            ("preempt-reads", 0x3774e9f9fe1d6463, 898, 35_559_310_631),
        ],
    );
}

/// Golden table for [`liveness_trace_scenarios`]: death detection through
/// the liveness tracker and the incremental slot counters must keep producing
/// these event streams bit for bit.
#[test]
fn liveness_rewrite_is_trace_equivalent() {
    assert_golden(
        &liveness_trace_scenarios(),
        &[
            ("fair-churn", 0x3d5d2624d131fd37, 305, 18_047_987_214),
            ("deadline-crash", 0xf1ebcfa67f4c34f8, 317, 33_943_479_037),
        ],
    );
}

/// A node that joins one tick before the liveness sweep fires must not be
/// declared dead before it ever had a chance to heartbeat. Registration
/// admits the node to both trackers' liveness with its clock at `now`;
/// losing that would let the sweep see a full silence window and kill the
/// joiner on arrival. The windows here
/// are tight — sweeps every 3 s, death after 4 s of silence, the join
/// 0.1 s before a sweep — and the first real heartbeat is jittered up to
/// a full interval after spawn, so the 9 s sweep runs while the joiner is
/// still silent.
#[test]
fn joiner_survives_liveness_tick_before_first_heartbeat() {
    let cfg = MrConfig {
        tt_dead_after: SimDuration::from_secs(4),
        ..MrConfig::default()
    };
    let mut c = ClusterBuilder::new()
        .seed(81)
        .workers(3)
        .mr(cfg)
        .dfs(DfsConfig {
            dead_after: SimDuration::from_secs(4),
        })
        .deploy();
    let mut session = c.session();
    // Sweeps fire at t = 3, 6, 9, 12 s; the join lands at 8.9 s.
    let joined = session
        .churn(crate::session::ChurnSchedule::new().join_at(SimDuration::from_millis(8_900)));
    assert_eq!(joined.len(), 1);
    session.submit(JobRequest {
        spec: JobBuilder::new("join-race")
            .synthetic(1_500_000)
            .kernel(FixedCostKernel {
                per_record: SimDuration::from_micros(40),
                ..FixedCostKernel::default()
            })
            .rpc_aggregate(SumReducer {
                cycles_per_byte: 1.0,
            })
            .map_tasks(12)
            .build(),
        preloads: vec![],
    });
    let rs = session.run_until_complete();
    assert!(rs.iter().all(|r| r.succeeded));
    // `mr.node_joins` counts every first registration, deploy workers
    // included: 3 at deploy plus the churn joiner.
    assert_eq!(c.sim.stats().counter("mr.node_joins"), 4);
    assert_eq!(c.sim.stats().counter("dfs.datanodes_joined"), 1);
    // The joiner stayed alive through every sweep: no false deaths on
    // either control plane, and no resurrection papering one over.
    assert_eq!(c.sim.stats().counter("mr.tasktrackers_declared_dead"), 0);
    assert_eq!(c.sim.stats().counter("dfs.datanodes_declared_dead"), 0);
    assert_eq!(c.sim.stats().counter("mr.tt_resurrections"), 0);
}

/// Golden table for [`job_level_trace_scenarios`]: under the default job
/// picker the two-level dispatch loop visits jobs in ascending id order,
/// each drained regular-then-speculative — FIFO equivalence is pinned, not
/// assumed.
#[test]
fn job_level_dispatch_is_trace_equivalent() {
    assert_golden(
        &job_level_trace_scenarios(),
        &[
            ("fifo-multi", 0x9a1ca458ab8578f6, 363, 16_667_679_096),
            ("locality-multi", 0x3d475247621e61bb, 377, 17_416_353_871),
            ("adaptive-multi", 0x3af9198a1d79f86a, 721, 45_219_413_246),
            ("churn-multi", 0x554c41d8e740e1a5, 617, 30_460_001_894),
        ],
    );
}

/// Golden table for [`sched_trace_scenarios`]: `sched::Fifo` and
/// `sched::LocalityFirst` dispatch, speculate, split and recover exactly
/// as pinned. In `crash-shuffle` a map output lost to a node death during
/// the *reduce* phase is re-executed with its folded contributions
/// subtracted, and reducers fetch from current output locations.
#[test]
fn ported_schedulers_are_trace_equivalent() {
    assert_golden(
        &sched_trace_scenarios(),
        &[
            ("fifo+speculative", 0xc55290eb28bae88a, 238, 19_292_936_422),
            ("locality-file", 0x36c3e9e9894cf184, 387, 18_587_960_800),
            ("crash-shuffle", 0xe6d8b887f92de415, 623, 65_230_775_421),
        ],
    );
}

#[test]
fn deterministic_runs_from_same_seed() {
    let run_fp = || {
        let mut c = cluster(42, 3, MrConfig::default(), false);
        c.sim.enable_trace(1 << 12);
        let preload = PreloadSpec {
            path: "/det".into(),
            len: 16 * MB,
            block_size: Some(4 * MB),
            replication: None,
            seed: 5,
        };
        let spec = JobBuilder::new("det")
            .input_file("/det")
            .record_bytes(4 * MB)
            .kernel(FixedCostKernel::default())
            .map_tasks(4)
            .build();
        let result = run_one(&mut c, vec![preload], spec);
        (result.elapsed, c.sim.trace().fingerprint())
    };
    let (e1, f1) = run_fp();
    let (e2, f2) = run_fp();
    assert_eq!(e1, e2);
    assert_eq!(f1, f2);
}

#[test]
fn missing_input_fails_gracefully() {
    let mut c = cluster(10, 2, MrConfig::default(), false);
    let spec = JobBuilder::new("missing")
        .input_file("/does-not-exist")
        .kernel(FixedCostKernel::default())
        .build();
    let result = run_one(&mut c, vec![], spec);
    assert!(!result.succeeded);
    assert_eq!(
        result.error,
        Some(JobError::InputMissing {
            path: "/does-not-exist".into()
        })
    );
    assert_eq!(result.map_tasks, 0);
}

/// FIFO regression: dispatch order equals submission order, and stays
/// stable across a kill/re-queue. The pending queue is only ever popped at
/// the scheduler's pick and *appended* on re-queue, so first dispatches
/// come out in `TaskId` order and a re-executed task re-dispatches after
/// everything that was already waiting — exactly what `Fifo::pick_task`'s
/// unconditional index `0` relies on.
#[test]
fn fifo_dispatch_order_is_submission_order_across_requeue() {
    let cfg = MrConfig {
        scheduler: SchedulerPolicy::Fifo,
        ..MrConfig::default()
    };
    let mut c = cluster(31, 3, cfg, false);
    let preload = PreloadSpec {
        path: "/fifo".into(),
        len: 24 * MB,
        block_size: Some(2 * MB),
        replication: Some(2),
        seed: 6,
    };
    let spec = JobBuilder::new("fifo-order")
        .input_file("/fifo")
        .record_bytes(2 * MB)
        .kernel(FixedCostKernel {
            per_record: SimDuration::from_secs(4),
            ..FixedCostKernel::default()
        })
        .map_tasks(6)
        .build();
    // Crash a TaskTracker mid-map so its running tasks get re-queued.
    let victim_tt = c.mr.tasktracker_on(accelmr_net::NodeId(1)).unwrap();
    c.sim.post_after(
        victim_tt,
        Box::new(CrashTaskTracker),
        SimDuration::from_secs(20),
    );
    let result = run_one(&mut c, vec![preload], spec);
    assert!(result.succeeded);
    assert_eq!(result.scheduler, "fifo");
    // The crash actually forced re-execution…
    assert!(result.attempts > result.map_tasks);
    assert_eq!(result.dispatch_log.len() as u32, result.attempts);
    // …yet first dispatches still came out in submission order.
    let mut first_order = Vec::new();
    for &(t, _) in &result.dispatch_log {
        if !first_order.contains(&t) {
            first_order.push(t);
        }
    }
    let expected: Vec<crate::config::TaskId> =
        (0..result.map_tasks).map(crate::config::TaskId).collect();
    assert_eq!(
        first_order, expected,
        "FIFO must dispatch in submission order"
    );
    // And a re-queued task was re-dispatched strictly after its first try.
    let reexecuted: Vec<_> = expected
        .iter()
        .filter(|t| {
            result
                .dispatch_log
                .iter()
                .filter(|&&(x, _)| x == **t)
                .count()
                > 1
        })
        .collect();
    assert!(
        !reexecuted.is_empty(),
        "expected at least one re-queued task"
    );
}

/// Fault tolerance during the *reduce* phase: a TaskTracker dying while
/// its reduce attempt runs must lead to re-execution on a surviving node
/// and a correct final aggregate (existing fault tests only killed during
/// map).
#[test]
fn tasktracker_death_during_reduce_reexecutes_reduce() {
    let mut c = cluster(32, 3, MrConfig::default(), false);
    let preload = PreloadSpec {
        path: "/rd".into(),
        len: 16 * MB,
        block_size: Some(4 * MB),
        replication: Some(2),
        seed: 8,
    };
    // Fast maps, long reduce merges (~66 s each): a crash at t=45 s lands
    // squarely inside the reduce phase.
    let spec = JobBuilder::new("reduce-death")
        .input_file("/rd")
        .record_bytes(4 * MB)
        .kernel(FixedCostKernel {
            per_record: SimDuration::from_millis(1),
            output_ratio_percent: 100,
            ..FixedCostKernel::default()
        })
        .map_tasks(4)
        .shuffle(
            3,
            SumReducer {
                cycles_per_byte: 4.0e4,
            },
            false,
        )
        .build();
    let victim_tt = c.mr.tasktracker_on(accelmr_net::NodeId(1)).unwrap();
    c.sim.post_after(
        victim_tt,
        Box::new(CrashTaskTracker),
        SimDuration::from_secs(45),
    );
    let result = run_one(&mut c, vec![preload], spec);
    assert!(result.succeeded);
    assert_eq!(result.map_tasks, 4);
    assert_eq!(result.reduce_tasks, 3);
    assert_eq!(c.sim.stats().counter("mr.tasktrackers_declared_dead"), 1);
    // A reduce task (ids after the maps) was dispatched more than once:
    // the dead tracker's attempt vanished and was re-executed.
    let reduce_redispatched = (result.map_tasks..result.map_tasks + result.reduce_tasks)
        .map(crate::config::TaskId)
        .any(|t| result.dispatch_log.iter().filter(|&&(x, _)| x == t).count() > 1);
    assert!(
        reduce_redispatched,
        "expected a reduce re-execution; dispatch_log: {:?}",
        result.dispatch_log
    );
    assert!(result.attempts > result.map_tasks + result.reduce_tasks);
    // The aggregate is still exactly right: one pair per record mapped.
    let total: u64 = result.kv.iter().map(|&(_, v)| v).sum();
    assert_eq!(total, 4, "SumReducer must see each record exactly once");
}

/// Dispatch accounting on the job result, for two concurrent jobs: the one
/// policy that drove both is named, there is one log entry per attempt,
/// per-node counts add up, and a non-adaptive policy reports no throughput
/// model.
#[test]
fn job_results_report_policy_and_dispatch_accounting() {
    let cfg = MrConfig {
        scheduler: SchedulerPolicy::LocalityFirst,
        ..MrConfig::default()
    };
    let mut c = cluster(33, 2, cfg, false);
    let kernel = Arc::new(FixedCostKernel::default());
    let mut session = c.session();
    let jobs = ["first", "second"].map(|name| {
        session.submit(
            JobBuilder::new(name)
                .synthetic(10_000)
                .kernel_arc(kernel.clone())
                .rpc_aggregate(SumReducer {
                    cycles_per_byte: 1.0,
                }),
        )
    });
    session.run_until_complete();
    for job in jobs {
        let r = job.result();
        assert_eq!(r.scheduler, "locality-first");
        assert_eq!(r.dispatch_log.len() as u32, r.attempts);
        let counted: u32 = r.dispatch_counts().iter().map(|&(_, n)| n).sum();
        assert_eq!(counted, r.attempts);
        assert!(r.node_throughput.is_empty());
    }
}

/// Environment marker for the mapred-level heterogeneous tests: nodes
/// carrying it are "accelerated".
#[derive(Debug, Default)]
struct TurboEnv;

impl NodeEnv for TurboEnv {}

/// Every other node gets a [`TurboEnv`] (node indices 0, 2, …).
#[derive(Clone, Copy)]
struct HalfTurboFactory;

impl crate::kernel::NodeEnvFactory for HalfTurboFactory {
    fn build(&self, node_index: usize) -> Box<dyn NodeEnv> {
        if node_index.is_multiple_of(2) {
            Box::new(TurboEnv)
        } else {
            Box::new(crate::kernel::NullEnv)
        }
    }
}

/// Synthetic kernel 10x faster on [`TurboEnv`] nodes — the mapred-level
/// stand-in for the hybrid crate's adaptive Cell kernels.
#[derive(Debug, Clone, Copy)]
struct HeteroKernel;

impl TaskKernel for HeteroKernel {
    fn name(&self) -> &'static str {
        "hetero-units"
    }

    fn map_record(
        &self,
        _env: &mut dyn NodeEnv,
        _rec: &crate::kernel::RecordCtx<'_>,
    ) -> crate::kernel::RecordOutcome {
        unreachable!("synthetic-only kernel")
    }

    fn map_units(&self, env: &mut dyn NodeEnv, units: u64, stream: u64) -> UnitsOutcome {
        let per_unit_ns = if (env as &mut dyn std::any::Any).is::<TurboEnv>() {
            40
        } else {
            400
        };
        UnitsOutcome {
            compute: SimDuration::from_nanos(per_unit_ns * units),
            kv: vec![(stream, units)],
        }
    }
}

fn run_hetero_units(policy: SchedulerPolicy, seed: u64) -> JobResult {
    let cfg = MrConfig {
        scheduler: policy,
        ..MrConfig::default()
    };
    let mut c = ClusterBuilder::new()
        .seed(seed)
        .workers(4)
        .mr(cfg)
        .env(HalfTurboFactory)
        .deploy();
    let mut session = c.session();
    session.submit(
        JobBuilder::new("hetero")
            .synthetic(2_000_000_000)
            .kernel(HeteroKernel)
            .rpc_aggregate(SumReducer {
                cycles_per_byte: 1.0,
            }),
    );
    session.run()
}

/// The tentpole's end-to-end claim at the runtime level: on a cluster
/// where half the nodes are 10x faster, [`AdaptiveHetero`]'s oversplit +
/// throughput-weighted dispatch beats placement-blind scheduling, and the
/// result exposes the learned per-node model.
#[test]
fn adaptive_beats_locality_on_heterogeneous_synthetic_cluster() {
    let base = run_hetero_units(SchedulerPolicy::LocalityFirst, 34);
    let adaptive = run_hetero_units(SchedulerPolicy::Adaptive, 34);
    assert!(base.succeeded && adaptive.succeeded);
    // Work conservation under oversplit/weighted plans.
    let total = |r: &JobResult| r.kv.iter().map(|&(_, v)| v).sum::<u64>();
    assert_eq!(total(&base), 2_000_000_000);
    assert_eq!(total(&adaptive), 2_000_000_000);
    assert_eq!(adaptive.scheduler, "adaptive-hetero");
    // Strictly faster end to end.
    assert!(
        adaptive.elapsed < base.elapsed,
        "adaptive {} vs locality {}",
        adaptive.elapsed,
        base.elapsed
    );
    // The learned model separates the two node classes.
    let tp = &adaptive.node_throughput;
    assert_eq!(tp.len(), 4, "{tp:?}");
    let max = tp.iter().map(|e| e.throughput).fold(f64::MIN, f64::max);
    let min = tp.iter().map(|e| e.throughput).fold(f64::MAX, f64::min);
    assert!(max / min > 3.0, "learned spread {max}/{min}");
    // Fast nodes were handed more attempts than slow ones.
    let counts = adaptive.dispatch_counts();
    let fast: u32 = counts
        .iter()
        .filter(|&&(n, _)| n.0 % 2 == 1) // node index 0,2 → NodeId 1,3
        .map(|&(_, c)| c)
        .sum();
    let slow: u32 = counts
        .iter()
        .filter(|&&(n, _)| n.0 % 2 == 0)
        .map(|&(_, c)| c)
        .sum();
    assert!(fast > slow, "fast {fast} vs slow {slow} ({counts:?})");
}

/// Cross-job learning through the cluster-wide adaptive scheduler: the
/// first job of a session runs on the unlearned oversplit plan; the second
/// job of the same kernel family gets throughput-weighted splits (one per
/// slot) because the model already knows the cluster's speed spread.
#[test]
fn adaptive_learns_across_jobs_in_a_session() {
    let cfg = MrConfig {
        scheduler: SchedulerPolicy::Adaptive,
        ..MrConfig::default()
    };
    let mut c = ClusterBuilder::new()
        .seed(35)
        .workers(4)
        .mr(cfg)
        .env(HalfTurboFactory)
        .deploy();
    let job = || {
        JobBuilder::new("learn")
            .synthetic(400_000_000)
            .kernel(HeteroKernel)
            .rpc_aggregate(SumReducer {
                cycles_per_byte: 1.0,
            })
    };
    let mut session = c.session();
    let first = session.submit(job());
    session.run();
    let mut session = c.session();
    let second = session.submit(job());
    session.run();
    // 4 workers × 2 slots = 8 slots; oversplit 3x → 24 tasks unlearned.
    assert_eq!(first.result().map_tasks, 24);
    // Learned: one split per slot, weighted by node speed.
    assert_eq!(second.result().map_tasks, 8);
    assert!(!second.result().node_throughput.is_empty());
}

#[test]
fn heartbeat_pacing_sets_minimum_job_time() {
    // A trivial job cannot beat the init + dispatch + finalize floor.
    let mut c = cluster(11, 2, MrConfig::default(), false);
    let kernel = Arc::new(FixedCostKernel {
        per_unit_ns: 0,
        ..FixedCostKernel::default()
    });
    let result = run_one(&mut c, vec![], synthetic_spec(kernel, 1, Some(1)));
    let hard_floor =
        JOB_INIT_TIME + TASK_START_OVERHEAD + TASK_CLEANUP_OVERHEAD + JOB_FINALIZE_TIME;
    assert!(
        result.elapsed > hard_floor,
        "elapsed {} vs floor {}",
        result.elapsed,
        hard_floor
    );
    // And the sim clock actually advanced past t=0.
    assert!(c.sim.now() > SimTime::ZERO);
}
