//! # accelmr-cellbe — Cell Broadband Engine simulator
//!
//! A functional + timing model of the Cell BE processor the paper's QS22
//! blades carry: one PPE and eight SPEs with 256 KB private local stores,
//! per-SPE MFC DMA queues (16 commands deep, ≤16 KB per transfer), and a
//! shared memory interface moving 8 bytes/cycle each way at 3.2 GHz.
//!
//! The crate ships the paper's "direct" SPE offload library: a
//! double-buffered runtime ([`CellMachine::run_data`]) that stripes aligned
//! blocks across SPEs, overlapping DMA with compute, plus a compute-parallel
//! path ([`CellMachine::run_compute`]) for workloads like Monte Carlo Pi.
//! In materialized mode kernels really execute on bytes that traveled
//! through the simulated local stores, so end-to-end tests can verify real
//! ciphertext; in virtual mode the identical event path computes timing
//! only. A closed-form [`estimate`] module mirrors the event model for the
//! distributed experiments' fast path and is property-tested against it.

pub mod config;
pub mod estimate;
pub mod kernel;
pub mod localstore;
pub mod machine;

pub use config::{CellConfig, CellConfigError, SPU_BLOCK};
pub use kernel::{AesCtrSpeKernel, ComputeKernel, DataKernel, IdentityKernel, PiSpeKernel};
pub use localstore::{LocalStore, LsBuffer};
pub use machine::{CellMachine, DataInput, OffloadReport};
