//! Closed-form estimator for offload sessions.
//!
//! Distributed experiments simulate thousands of offload sessions; replaying
//! the block-level event loop for each would dominate harness wall time. The
//! estimator computes session duration analytically from the *same*
//! [`crate::config`] constants, and a property test pins it to the detailed
//! event model within a small tolerance — so the fast path can never drift
//! from the mechanism it summarizes.

use accelmr_des::SimDuration;
use accelmr_kernels::cost::CELL_CLOCK_HZ;

use crate::config::{BUS_BYTES_PER_SEC, DISPATCH_OVERHEAD, DMA_LATENCY, N_SPES};

/// Estimated duration of a data-parallel offload session (excluding
/// context-creation/session start-up, which the caller owns).
pub fn data_run_body(bytes: u64, cycles_per_byte: f64, block_size: usize) -> SimDuration {
    if bytes == 0 {
        return SimDuration::ZERO;
    }
    let n_blocks = bytes.div_ceil(block_size as u64) as f64;
    // Aggregate steady-state rates.
    let compute_rate = N_SPES as f64 * CELL_CLOCK_HZ / cycles_per_byte.max(1e-12);
    // Every byte crosses the memory interface twice (get + put).
    let bus_rate = BUS_BYTES_PER_SEC / 2.0;
    let steady = bytes as f64 / compute_rate.min(bus_rate);
    // Pipeline fill (first block's fetch) and drain (last block's put),
    // plus per-block dispatch amortized over SPEs.
    let fill = block_size as f64 / BUS_BYTES_PER_SEC
        + DMA_LATENCY.as_secs_f64()
        + DISPATCH_OVERHEAD.as_secs_f64();
    let drain =
        block_size.min(bytes as usize) as f64 / BUS_BYTES_PER_SEC + DMA_LATENCY.as_secs_f64();
    let dispatch = n_blocks * DISPATCH_OVERHEAD.as_secs_f64() / N_SPES as f64;
    SimDuration::from_secs_f64(steady + fill + drain + dispatch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CellConfig;
    use crate::kernel::{DataKernel, IdentityKernel};
    use crate::machine::{CellMachine, DataInput};

    struct FixedCost(f64);
    impl DataKernel for FixedCost {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn cycles_per_byte(&self) -> f64 {
            self.0
        }
        fn exec(&self, _: u64, _: &mut [u8]) {}
    }

    fn relative_error(a: f64, b: f64) -> f64 {
        (a - b).abs() / b.max(1e-12)
    }

    #[test]
    fn data_estimate_tracks_detailed_model_compute_bound() {
        for bytes in [1u64 << 20, 16 << 20, 64 << 20] {
            let mut m = CellMachine::new(CellConfig::default(), false).unwrap();
            m.warm_up();
            let kernel = FixedCost(36.6);
            let detailed = m
                .run_data(DataInput::Virtual(bytes), &kernel, 4096)
                .unwrap();
            let body = detailed.elapsed - detailed.startup;
            let est = data_run_body(bytes, 36.6, 4096);
            assert!(
                relative_error(est.as_secs_f64(), body.as_secs_f64()) < 0.05,
                "bytes={bytes} est={est} detailed={body}"
            );
        }
    }

    #[test]
    fn data_estimate_tracks_detailed_model_bus_bound() {
        let mut m = CellMachine::new(CellConfig::default(), false).unwrap();
        m.warm_up();
        let kernel = IdentityKernel::new(0.25); // DMA-dominated
        let bytes = 32u64 << 20;
        let detailed = m
            .run_data(DataInput::Virtual(bytes), &kernel, 16 * 1024)
            .unwrap();
        let body = detailed.elapsed - detailed.startup;
        let est = data_run_body(bytes, 0.25, 16 * 1024);
        assert!(
            relative_error(est.as_secs_f64(), body.as_secs_f64()) < 0.10,
            "est={est} detailed={body}"
        );
    }

    #[test]
    fn zero_work_estimates_are_zero() {
        assert_eq!(data_run_body(0, 36.6, 4096), SimDuration::ZERO);
    }
}
