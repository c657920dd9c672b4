//! Kernel interfaces for SPU offload, plus the concrete kernels the paper
//! runs (AES encryption and Monte Carlo Pi).
//!
//! Two shapes exist, matching the two workload classes of the evaluation:
//!
//! * [`DataKernel`] — a streaming transform over bytes DMA'd through the
//!   local store (data-intensive: AES).
//! * [`ComputeKernel`] — pure computation parameterized by a unit count
//!   with negligible data movement (CPU-intensive: Pi sampling).

use std::sync::Arc;

use accelmr_kernels::aes::modes::ctr_xor;
use accelmr_kernels::cost::{self, Engine};
use accelmr_kernels::{Aes128, AesImpl};

/// A byte-streaming SPU kernel: transforms local-store blocks in place.
pub trait DataKernel: Send + Sync {
    /// Kernel name (reports, traces).
    fn name(&self) -> &'static str;
    /// SPU cost, cycles per input byte.
    fn cycles_per_byte(&self) -> f64;
    /// Transforms one block in place. `abs_offset` is the block's absolute
    /// byte offset within the logical stream (CTR kernels derive counters
    /// from it so split execution stays byte-compatible with serial).
    fn exec(&self, abs_offset: u64, data: &mut [u8]);
}

/// A unit-counted SPU kernel with no streaming input.
pub trait ComputeKernel: Send + Sync {
    /// Kernel name (reports, traces).
    fn name(&self) -> &'static str;
    /// SPU cost, cycles per unit.
    fn cycles_per_unit(&self) -> f64;
    /// Executes `units` units on SPE `spe`, returning an accumulable result
    /// (for Pi: the inside-circle count).
    fn exec(&self, spe: usize, units: u64) -> u64;
}

/// AES-128/CTR on the SPU SIMD engine — the paper's Cell-accelerated
/// encryption kernel. CTR (rather than ECB) keeps split-level parallelism
/// byte-identical to a serial pass, which the integration tests verify.
/// The bytes come from [`AesImpl::Hardware`], the simulated time from the
/// SPU row of the cost table.
#[derive(Clone)]
pub struct AesCtrSpeKernel {
    key: Arc<Aes128>,
    nonce: u64,
}

impl AesCtrSpeKernel {
    /// Builds the kernel for a key and stream nonce.
    pub fn new(key: Arc<Aes128>, nonce: u64) -> Self {
        AesCtrSpeKernel { key, nonce }
    }
}

impl DataKernel for AesCtrSpeKernel {
    fn name(&self) -> &'static str {
        "aes128-ctr-spu"
    }

    fn cycles_per_byte(&self) -> f64 {
        cost::cost(Engine::SpeSimd).aes_cycles_per_byte
    }

    fn exec(&self, abs_offset: u64, data: &mut [u8]) {
        debug_assert_eq!(abs_offset % 16, 0, "blocks must be 16-byte aligned");
        ctr_xor(
            &self.key,
            AesImpl::Hardware,
            self.nonce,
            abs_offset / 16,
            data,
        );
    }
}

/// Pass-through kernel with a configurable cycle cost; used by DMA-focused
/// ablation benches and as the "empty" SPU program.
#[derive(Clone, Copy, Debug)]
pub struct IdentityKernel {
    cycles_per_byte: f64,
}

impl IdentityKernel {
    /// An identity transform charging `cycles_per_byte` per byte.
    pub fn new(cycles_per_byte: f64) -> Self {
        IdentityKernel { cycles_per_byte }
    }
}

impl DataKernel for IdentityKernel {
    fn name(&self) -> &'static str {
        "identity"
    }

    fn cycles_per_byte(&self) -> f64 {
        self.cycles_per_byte
    }

    fn exec(&self, _abs_offset: u64, _data: &mut [u8]) {}
}

/// Monte Carlo Pi on the SPU SIMD engine. Per-SPE RNG streams are forked
/// from `(seed, stream_base + spe)` so any distribution of units across
/// SPEs stays reproducible.
#[derive(Clone, Copy, Debug)]
pub struct PiSpeKernel {
    seed: u64,
    stream_base: u64,
}

impl PiSpeKernel {
    /// Builds the kernel for a seed and a per-mapper stream namespace.
    pub fn new(seed: u64, stream_base: u64) -> Self {
        PiSpeKernel { seed, stream_base }
    }
}

impl ComputeKernel for PiSpeKernel {
    fn name(&self) -> &'static str {
        "pi-montecarlo-spu"
    }

    fn cycles_per_unit(&self) -> f64 {
        cost::cost(Engine::SpeSimd).pi_cycles_per_sample
    }

    fn exec(&self, spe: usize, units: u64) -> u64 {
        accelmr_kernels::pi::count_inside_auto(self.seed, self.stream_base + spe as u64, units)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelmr_kernels::fill_deterministic;

    #[test]
    fn aes_kernel_blocks_compose_to_serial_stream() {
        let key = Arc::new(Aes128::new(b"spu-kernel-key!!"));
        let kernel = AesCtrSpeKernel::new(key.clone(), 99);

        let mut serial = vec![0u8; 256];
        fill_deterministic(1, 0, &mut serial);
        let mut split = serial.clone();

        ctr_xor(&key, AesImpl::Scalar, 99, 0, &mut serial);

        // Kernel executed block-by-block out of order.
        kernel.exec(128, &mut split[128..]);
        kernel.exec(0, &mut split[..128]);
        assert_eq!(serial, split);
    }

    #[test]
    fn aes_kernel_cost_comes_from_calibration_table() {
        let key = Arc::new(Aes128::new(&[0u8; 16]));
        let kernel = AesCtrSpeKernel::new(key, 0);
        assert!((kernel.cycles_per_byte() - 36.6).abs() < 1e-9);
    }

    #[test]
    fn identity_kernel_is_noop() {
        let k = IdentityKernel::new(0.5);
        let mut data = vec![1u8, 2, 3];
        k.exec(0, &mut data);
        assert_eq!(data, vec![1, 2, 3]);
        assert_eq!(k.cycles_per_byte(), 0.5);
    }

    #[test]
    fn pi_kernel_streams_differ_by_spe() {
        let k = PiSpeKernel::new(7, 100);
        let a = k.exec(0, 10_000);
        let b = k.exec(1, 10_000);
        assert_ne!(a, b);
        // Reproducible.
        assert_eq!(a, k.exec(0, 10_000));
        // Sane fraction (~pi/4).
        let frac = a as f64 / 10_000.0;
        assert!((0.75..0.82).contains(&frac), "{frac}");
    }
}
