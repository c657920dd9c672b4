//! `TimedKernel`: the benchmark's span around the library layers.
//!
//! The actor layers (`des`, `net`, `dfs`, `mapred`) are timed by the
//! engine's own per-actor profiling. The map kernel is not an actor: it is
//! a plain call made *inside* a TaskTracker's handler, and on functional
//! runs it is where nearly all host time goes (`hybrid` → `cellmr` →
//! `cellbe` → `kernels`). This decorator wraps a job's kernel from the
//! outside — same name, same results, every call delegated — and tallies
//! calls, bytes, host nanoseconds and the simulated compute the
//! kernel returned. Traced runs only; the end-to-end runs use the bare
//! kernel.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use accelmr_des::SimDuration;
use accelmr_mapred::{NodeEnv, RecordCtx, RecordOutcome, TaskKernel, UnitsOutcome};

/// Totals over every call one or more [`TimedKernel`]s made. Plain
/// statistics, so `Relaxed` atomics (the simulator is single-threaded; the
/// atomics only satisfy `TaskKernel: Sync`).
#[derive(Debug, Default)]
pub struct KernelTally {
    calls: AtomicU64,
    bytes: AtomicU64,
    host_ns: AtomicU64,
    sim_ns: AtomicU64,
    setup_sim_ns: AtomicU64,
}

impl KernelTally {
    /// `map_record` + `map_units` calls.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Real (materialized) record bytes handed to `map_record`; virtual
    /// records move no bytes on the host and are not counted.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Relaxed)
    }

    /// Host seconds spent inside the wrapped kernel.
    pub fn host_s(&self) -> f64 {
        self.host_ns.load(Relaxed) as f64 / 1e9
    }

    /// Simulated compute seconds the kernel charged.
    pub fn sim_s(&self) -> f64 {
        self.sim_ns.load(Relaxed) as f64 / 1e9
    }

    /// Simulated seconds of per-node set-up (`node_setup`).
    pub fn setup_sim_s(&self) -> f64 {
        self.setup_sim_ns.load(Relaxed) as f64 / 1e9
    }
}

/// A [`TaskKernel`] that times another one.
pub struct TimedKernel {
    inner: Arc<dyn TaskKernel>,
    tally: Arc<KernelTally>,
}

impl TimedKernel {
    /// Wraps `inner`, adding to `tally`.
    pub fn wrap(inner: Arc<dyn TaskKernel>, tally: Arc<KernelTally>) -> Arc<dyn TaskKernel> {
        Arc::new(TimedKernel { inner, tally })
    }

    fn charge(&self, started: Instant, compute: SimDuration) {
        self.tally
            .host_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Relaxed);
        self.tally.sim_ns.fetch_add(compute.as_nanos(), Relaxed);
        self.tally.calls.fetch_add(1, Relaxed);
    }
}

impl TaskKernel for TimedKernel {
    // The TaskTracker dedups per-node set-up by kernel name, so the
    // wrapper must be indistinguishable from the kernel it wraps.
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn node_setup(&self, env: &mut dyn NodeEnv) -> SimDuration {
        let setup = self.inner.node_setup(env);
        self.tally.setup_sim_ns.fetch_add(setup.as_nanos(), Relaxed);
        setup
    }

    fn map_record(&self, env: &mut dyn NodeEnv, rec: &RecordCtx<'_>) -> RecordOutcome {
        let started = Instant::now();
        let outcome = self.inner.map_record(env, rec);
        self.charge(started, outcome.compute);
        if rec.bytes.is_some() {
            self.tally.bytes.fetch_add(rec.len, Relaxed);
        }
        outcome
    }

    fn map_units(&self, env: &mut dyn NodeEnv, units: u64, stream: u64) -> UnitsOutcome {
        let started = Instant::now();
        let outcome = self.inner.map_units(env, units, stream);
        self.charge(started, outcome.compute);
        outcome
    }
}
