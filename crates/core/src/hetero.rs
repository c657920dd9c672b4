//! Heterogeneous clusters — the paper's §V third open issue, implemented.
//!
//! "We also plan to carry on research on clusters with an increasing level
//! of heterogeneity, involving a dynamically variable number of both nodes
//! enabled with hardware accelerators and general purpose nodes."
//!
//! This module provides exactly that: a [`MixedEnvFactory`] that equips
//! only a fraction of the workers with Cell accelerators, and an
//! [`AdaptiveKernel`] ([`AdaptiveAesKernel`], [`AdaptivePiKernel`]) that
//! probes the node environment at run time — offloading where an
//! accelerator exists and falling back to the scalar engine elsewhere. The
//! accompanying tests demonstrate the phenomenon the paper anticipated:
//! with placement-blind scheduling, the *slowest class of nodes sets the
//! CPU-bound job time*, so partial accelerator coverage buys far less than
//! its proportional share.

use std::any::Any;

use accelmr_des::SimDuration;
use accelmr_mapred::{NodeEnv, NodeEnvFactory, RecordCtx, RecordOutcome, TaskKernel, UnitsOutcome};

use crate::env::{CellEnvFactory, CellNodeEnv};
use crate::kernels::{CellAesKernel, CellPiKernel, JavaAesKernel, JavaPiKernel};

/// Equips the first `accelerated_of.0` of every `accelerated_of.1` nodes
/// with (timing-only) Cell environments; the rest get plain (scalar-only)
/// environments.
#[derive(Clone)]
pub struct MixedEnvFactory {
    /// `(accelerated, out_of)`: e.g. `(1, 2)` = every other node.
    pub accelerated_of: (usize, usize),
}

impl MixedEnvFactory {
    /// Half the nodes accelerated.
    pub fn half() -> Self {
        MixedEnvFactory {
            accelerated_of: (1, 2),
        }
    }

    /// `true` when node `index` carries an accelerator.
    pub fn is_accelerated(&self, index: usize) -> bool {
        let (num, den) = self.accelerated_of;
        den == 0 || (index % den) < num
    }
}

impl NodeEnvFactory for MixedEnvFactory {
    fn build(&self, node_index: usize) -> Box<dyn NodeEnv> {
        if self.is_accelerated(node_index) {
            CellEnvFactory::default().build(node_index)
        } else {
            Box::new(accelmr_mapred::NullEnv)
        }
    }

    fn materialized(&self) -> bool {
        false
    }
}

/// A mapper that offloads on accelerated nodes and runs the Java engine
/// elsewhere: every call probes the node environment for a Cell and hands
/// the work to `cell` or `java` (what the JNI library's capability probe
/// would do). The name is the adaptive kernel's own, so throughput
/// learning and per-node setup see one kernel across both node classes.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveKernel<C, J> {
    name: &'static str,
    cell: C,
    java: J,
}

/// Encryption that offloads on accelerated nodes and runs the scalar
/// engine elsewhere.
pub type AdaptiveAesKernel = AdaptiveKernel<CellAesKernel, JavaAesKernel>;

/// Pi that offloads on accelerated nodes and samples on the PPE elsewhere.
pub type AdaptivePiKernel = AdaptiveKernel<CellPiKernel, JavaPiKernel>;

impl AdaptiveAesKernel {
    /// Builds the adaptive kernel with the default job key.
    pub fn new() -> Self {
        AdaptiveKernel {
            name: "aes-adaptive",
            cell: CellAesKernel::new(),
            java: JavaAesKernel::new(),
        }
    }
}

impl Default for AdaptiveAesKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl AdaptivePiKernel {
    /// Builds the adaptive kernel for a seed.
    pub fn new(seed: u64) -> Self {
        AdaptiveKernel {
            name: "pi-adaptive",
            cell: CellPiKernel::new(seed),
            java: JavaPiKernel::new(seed),
        }
    }
}

impl<C: TaskKernel, J: TaskKernel> AdaptiveKernel<C, J> {
    /// The kernel that runs on the node owning `env`.
    fn pick(&self, env: &mut dyn NodeEnv) -> &dyn TaskKernel {
        if (env as &mut dyn Any).is::<CellNodeEnv>() {
            &self.cell
        } else {
            &self.java
        }
    }
}

impl<C: TaskKernel, J: TaskKernel> TaskKernel for AdaptiveKernel<C, J> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn node_setup(&self, env: &mut dyn NodeEnv) -> SimDuration {
        self.pick(env).node_setup(env)
    }

    fn map_record(&self, env: &mut dyn NodeEnv, rec: &RecordCtx<'_>) -> RecordOutcome {
        self.pick(env).map_record(env, rec)
    }

    fn map_units(&self, env: &mut dyn NodeEnv, units: u64, stream: u64) -> UnitsOutcome {
        self.pick(env).map_units(env, units, stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelmr_mapred::{
        ClusterBuilder, JobBuilder, JobResult, PreloadSpec, SchedulerPolicy, SumReducer,
    };

    fn run_mixed_pi(factory: &MixedEnvFactory, samples: u64, seed: u64) -> JobResult {
        let mut c = ClusterBuilder::new()
            .seed(seed)
            .workers(4)
            .env(factory.clone())
            .deploy();
        let mut session = c.session();
        session.submit(
            JobBuilder::new("mixed-pi")
                .synthetic(samples)
                .kernel(AdaptivePiKernel::new(3))
                .map_tasks(8)
                .rpc_aggregate(SumReducer {
                    cycles_per_byte: 1.0,
                }),
        );
        session.run()
    }

    /// The adaptive kernels keep their own names (they key throughput
    /// learning and per-node setup) and, per node, do exactly what the
    /// engine they pick does.
    #[test]
    fn adaptive_kernels_run_the_engine_they_pick() {
        assert_eq!(AdaptiveAesKernel::new().name(), "aes-adaptive");
        assert_eq!(AdaptivePiKernel::new(3).name(), "pi-adaptive");
        let factory = MixedEnvFactory::half();
        let rec = RecordCtx {
            abs_offset: 0,
            len: 1 << 20,
            bytes: None,
            file_seed: 1,
        };
        for node in 0..2 {
            let accelerated = factory.is_accelerated(node);
            let mut env = factory.build(node);
            let mut twin = factory.build(node);
            let (env, twin) = (env.as_mut(), twin.as_mut());
            let aes = AdaptiveAesKernel::new();
            let pi = AdaptivePiKernel::new(3);
            let (setup, aes_time, pi_out) = (
                aes.node_setup(env),
                aes.map_record(env, &rec).compute,
                pi.map_units(env, 1000, 2),
            );
            let (twin_setup, twin_aes, twin_pi) = if accelerated {
                (
                    CellAesKernel::new().node_setup(twin),
                    CellAesKernel::new().map_record(twin, &rec).compute,
                    CellPiKernel::new(3).map_units(twin, 1000, 2),
                )
            } else {
                (
                    JavaAesKernel::new().node_setup(twin),
                    JavaAesKernel::new().map_record(twin, &rec).compute,
                    JavaPiKernel::new(3).map_units(twin, 1000, 2),
                )
            };
            assert_eq!(setup, twin_setup, "node {node}");
            assert_eq!(aes_time, twin_aes, "node {node}");
            assert_eq!(
                (pi_out.compute, pi_out.kv),
                (twin_pi.compute, twin_pi.kv),
                "node {node}"
            );
            assert_eq!(setup > SimDuration::ZERO, accelerated, "node {node}");
        }
    }

    #[test]
    fn mixed_fraction_accounting() {
        let half = MixedEnvFactory::half();
        let flags: Vec<bool> = (0..6).map(|i| half.is_accelerated(i)).collect();
        assert_eq!(flags, vec![true, false, true, false, true, false]);
        let full = MixedEnvFactory {
            accelerated_of: (1, 1),
        };
        assert!((0..4).all(|i| full.is_accelerated(i)));
    }

    /// The paper's anticipated effect: with placement-blind scheduling,
    /// CPU-bound job time follows the *slowest* node class, so halving the
    /// accelerated fraction costs far more than 2x.
    #[test]
    fn stragglers_on_plain_nodes_dominate_cpu_bound_jobs() {
        let samples = 4_000_000_000u64;
        let all = run_mixed_pi(
            &MixedEnvFactory {
                accelerated_of: (1, 1),
            },
            samples,
            1,
        );
        let half = run_mixed_pi(&MixedEnvFactory::half(), samples, 2);
        let none = run_mixed_pi(
            &MixedEnvFactory {
                accelerated_of: (0, 1),
            },
            samples,
            3,
        );
        assert!(all.succeeded && half.succeeded && none.succeeded);

        let (t_all, t_half, t_none) = (
            all.elapsed.as_secs_f64(),
            half.elapsed.as_secs_f64(),
            none.elapsed.as_secs_f64(),
        );
        // Fully accelerated is far faster than unaccelerated.
        assert!(t_none > 10.0 * t_all, "none {t_none} vs all {t_all}");
        // Half-accelerated is nowhere near halfway (log-scale): the plain
        // nodes' tasks dominate; it lands within ~2x of fully-plain.
        assert!(
            t_half > 0.4 * t_none,
            "half {t_half} should be straggler-bound (none: {t_none})"
        );
        assert!(t_half > 5.0 * t_all);
    }

    /// Runs the CPU-bound Pi workload on the half-accelerated cluster
    /// under `policy`, letting the scheduler plan the splits (no explicit
    /// `map_tasks`).
    fn run_mixed_pi_policy(policy: SchedulerPolicy, samples: u64, seed: u64) -> JobResult {
        let mut c = ClusterBuilder::new()
            .seed(seed)
            .workers(4)
            .env(MixedEnvFactory::half())
            .scheduler(policy)
            .deploy();
        let mut session = c.session();
        session.submit(
            JobBuilder::new("mixed-pi-sched")
                .synthetic(samples)
                .kernel(AdaptivePiKernel::new(3))
                .rpc_aggregate(SumReducer {
                    cycles_per_byte: 1.0,
                }),
        );
        session.run()
    }

    /// The refactor's payoff, on the exact scenario the straggler test
    /// reproduces: the adaptive scheduler's oversplit + learned dispatch
    /// beats placement-blind LocalityFirst end to end on the
    /// half-accelerated CPU-bound cluster. The same comparison lands in
    /// `BENCH_sched.json` via `perf`'s `sched_ablation` section.
    #[test]
    fn adaptive_scheduler_beats_locality_on_mixed_cluster() {
        let samples = 4_000_000_000u64;
        let locality = run_mixed_pi_policy(SchedulerPolicy::LocalityFirst, samples, 11);
        let adaptive = run_mixed_pi_policy(SchedulerPolicy::Adaptive, samples, 11);
        assert!(locality.succeeded && adaptive.succeeded);
        // Same work performed under both plans.
        let total = |r: &JobResult| r.kv.iter().find(|&&(k, _)| k == 1).unwrap().1;
        assert_eq!(total(&locality), samples);
        assert_eq!(total(&adaptive), samples);
        let (t_loc, t_ad) = (
            locality.elapsed.as_secs_f64(),
            adaptive.elapsed.as_secs_f64(),
        );
        // Strictly better — and by a real margin, not noise.
        assert!(
            t_ad < 0.75 * t_loc,
            "adaptive {t_ad:.1}s vs locality {t_loc:.1}s"
        );
        // The learned model separates Cell nodes from plain nodes.
        let tp = &adaptive.node_throughput;
        assert!(tp.len() >= 2, "{tp:?}");
        let max = tp.iter().map(|e| e.throughput).fold(f64::MIN, f64::max);
        let min = tp.iter().map(|e| e.throughput).fold(f64::MAX, f64::min);
        assert!(max / min > 2.0, "learned spread {max:.0}/{min:.0}");
    }

    /// Half of these nodes have no accelerator state at all, and the other
    /// half a timing-only Cell: a materialized cluster over them is refused
    /// at deploy.
    #[test]
    #[should_panic(expected = "materialized(true) needs a materialized env factory")]
    fn materialized_cluster_rejects_mixed_envs() {
        let mut c = ClusterBuilder::new()
            .workers(4)
            .materialized(true)
            .env(MixedEnvFactory::half())
            .deploy();
        let mut session = c.session();
        session.submit(
            JobBuilder::new("enc")
                .input_file("/in")
                .kernel(AdaptiveAesKernel::new())
                .preload(PreloadSpec::new("/in", 8 << 20, 7)),
        );
        session.run();
    }

    /// Results stay correct regardless of which engine sampled.
    #[test]
    fn mixed_cluster_estimates_remain_accurate() {
        let samples = 100_000_000u64;
        let r = run_mixed_pi(&MixedEnvFactory::half(), samples, 4);
        let inside = r.kv.iter().find(|&&(k, _)| k == 0).unwrap().1;
        let total = r.kv.iter().find(|&&(k, _)| k == 1).unwrap().1;
        assert_eq!(total, samples);
        let pi = 4.0 * inside as f64 / total as f64;
        assert!((pi - std::f64::consts::PI).abs() < 1e-3, "{pi}");
    }
}
