//! The calibrated engine cost model — single source of truth.
//!
//! Every timing decision in the workspace that depends on "how fast does
//! engine E run kernel K" reads this table. The constants are calibrated to
//! the paper's own figures (each row's comment names the figure it comes
//! from):
//!
//! * Figure 2: one Cell ≈ 700 MB/s AES, one Power6 core ≈ 45 MB/s, the Cell
//!   PPE Java kernel ≈ 11 MB/s.
//! * Figure 6: the SPU Pi kernel sits ~1 order above Java-on-Power6 once
//!   start-up amortizes, and more above Java-on-PPE.
//! * Figures 7/8: distributed task JVMs run warmer than the single-shot
//!   harness of Figure 6 (both PPE SMT threads + settled JIT); the paper's
//!   absolute rates are not mutually consistent between those experiments,
//!   so the task-JVM engine is calibrated separately
//!   ([`Engine::JavaPpeTask`]).

use accelmr_des::SimDuration;

/// Clock of the QS22's Cell BE, Hz: the PPE and the SPEs share it.
pub const CELL_CLOCK_HZ: f64 = 3.2e9;

/// An execution engine the paper evaluates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    /// One SPU running the SIMD kernel (per-SPE rate; a Cell has 8).
    SpeSimd,
    /// Single-threaded Java kernel on the Cell PPE (Figure 2/6 harness).
    JavaPpe,
    /// Java map task on the PPE inside a distributed task JVM (both SMT
    /// threads, warmed JIT) — Figures 4/5/7/8.
    JavaPpeTask,
    /// Single-threaded Java kernel on one 4.0 GHz Power6 core.
    JavaPower6,
}

/// Per-engine unit costs. All rates are *per execution context* (one SPU,
/// one JVM thread-set); chip-level aggregation is the caller's job.
#[derive(Clone, Copy, Debug)]
pub struct EngineCost {
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// AES-128 encryption cost, cycles per byte.
    pub aes_cycles_per_byte: f64,
    /// Monte Carlo Pi cost, cycles per sample.
    pub pi_cycles_per_sample: f64,
    /// Sort kernel cost, cycles per record byte (radix pass amortized).
    pub sort_cycles_per_byte: f64,
}

const SPE_SIMD: EngineCost = EngineCost {
    clock_hz: CELL_CLOCK_HZ,
    aes_cycles_per_byte: 36.6,   // 8 SPEs => ~700 MB/s per Cell (Fig. 2)
    pi_cycles_per_sample: 256.0, // 8 SPEs => ~1e8 samples/s per Cell
    sort_cycles_per_byte: 8.0,
};

const JAVA_PPE: EngineCost = EngineCost {
    clock_hz: CELL_CLOCK_HZ,
    aes_cycles_per_byte: 290.0,     // ~11 MB/s (Fig. 2 "PPC")
    pi_cycles_per_sample: 16_000.0, // ~2e5 samples/s (Fig. 6 "PPC")
    sort_cycles_per_byte: 60.0,
};

const JAVA_PPE_TASK: EngineCost = EngineCost {
    clock_hz: CELL_CLOCK_HZ,
    aes_cycles_per_byte: 160.0,    // ~20 MB/s with both SMT threads
    pi_cycles_per_sample: 3_200.0, // ~1e6 samples/s (Figs. 7/8 Java mapper)
    sort_cycles_per_byte: 40.0,
};

const JAVA_POWER6: EngineCost = EngineCost {
    clock_hz: 4.0e9,
    aes_cycles_per_byte: 89.0,     // ~45 MB/s (Fig. 2 "Power 6")
    pi_cycles_per_sample: 4_000.0, // ~1e6 samples/s (Fig. 6 "Power 6")
    sort_cycles_per_byte: 30.0,
};

/// Looks up the cost table for an engine.
pub const fn cost(engine: Engine) -> &'static EngineCost {
    match engine {
        Engine::SpeSimd => &SPE_SIMD,
        Engine::JavaPpe => &JAVA_PPE,
        Engine::JavaPpeTask => &JAVA_PPE_TASK,
        Engine::JavaPower6 => &JAVA_POWER6,
    }
}

/// Converts a cycle count on `engine` to simulated time.
#[inline]
pub fn cycles_to_duration(engine: Engine, cycles: f64) -> SimDuration {
    SimDuration::from_secs_f64(cycles / cost(engine).clock_hz)
}

/// Time for `engine` to AES-encrypt `bytes` (one execution context).
pub fn aes_time(engine: Engine, bytes: u64) -> SimDuration {
    cycles_to_duration(engine, cost(engine).aes_cycles_per_byte * bytes as f64)
}

/// Time for `engine` to draw `samples` Monte Carlo samples.
pub fn pi_time(engine: Engine, samples: u64) -> SimDuration {
    cycles_to_duration(engine, cost(engine).pi_cycles_per_sample * samples as f64)
}

/// Time for `engine` to sort `bytes` worth of records.
pub fn sort_time(engine: Engine, bytes: u64) -> SimDuration {
    cycles_to_duration(engine, cost(engine).sort_cycles_per_byte * bytes as f64)
}

/// Steady-state AES bandwidth of one context, bytes/second.
pub fn aes_bandwidth(engine: Engine) -> f64 {
    let c = cost(engine);
    c.clock_hz / c.aes_cycles_per_byte
}

/// Steady-state Pi sampling rate of one context, samples/second.
pub fn pi_rate(engine: Engine) -> f64 {
    let c = cost(engine);
    c.clock_hz / c.pi_cycles_per_sample
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: f64 = 1e6;

    #[test]
    fn cell_aes_bandwidth_matches_figure_2() {
        // 8 SPUs per Cell; the paper reads ~700 MB/s per Cell processor.
        let per_cell = 8.0 * aes_bandwidth(Engine::SpeSimd);
        assert!((650.0 * MB..750.0 * MB).contains(&per_cell), "{per_cell}");
    }

    #[test]
    fn power6_aes_bandwidth_matches_figure_2() {
        let bw = aes_bandwidth(Engine::JavaPower6);
        assert!((40.0 * MB..50.0 * MB).contains(&bw), "{bw}");
    }

    #[test]
    fn ppe_is_slowest_aes_engine() {
        let ppe = aes_bandwidth(Engine::JavaPpe);
        assert!(ppe < aes_bandwidth(Engine::JavaPower6));
        assert!(ppe < aes_bandwidth(Engine::JavaPpeTask));
        assert!((9.0 * MB..13.0 * MB).contains(&ppe), "{ppe}");
    }

    #[test]
    fn pi_rate_orderings_match_figure_6() {
        // Cell (8 SPUs) >> Power6 > PPE, with Cell at least one order above
        // Power6 as the paper states for N >= 1e7.
        let cell = 8.0 * pi_rate(Engine::SpeSimd);
        let p6 = pi_rate(Engine::JavaPower6);
        let ppe = pi_rate(Engine::JavaPpe);
        assert!(cell / p6 >= 10.0, "cell/p6 = {}", cell / p6);
        assert!(p6 > ppe);
    }

    #[test]
    fn durations_scale_linearly() {
        let t1 = aes_time(Engine::SpeSimd, 1 << 20);
        let t2 = aes_time(Engine::SpeSimd, 1 << 21);
        let ratio = t2.as_secs_f64() / t1.as_secs_f64();
        assert!((ratio - 2.0).abs() < 1e-9);
        assert_eq!(aes_time(Engine::JavaPpe, 0), SimDuration::ZERO);
    }

    #[test]
    fn task_jvm_is_faster_than_single_shot_harness() {
        assert!(pi_rate(Engine::JavaPpeTask) > pi_rate(Engine::JavaPpe));
        assert!(aes_bandwidth(Engine::JavaPpeTask) > aes_bandwidth(Engine::JavaPpe));
    }
}
