//! # accelmr-kernels — real compute kernels + the calibrated cost model
//!
//! The paper evaluates two workloads (AES-128 bulk encryption and Monte
//! Carlo Pi) on four engines (Cell SPUs, the Cell-MapReduce framework, Java
//! on the Cell PPE, Java on a Power6). This crate provides:
//!
//! * **Real, executable kernels** — AES-128 three ways ([`aes`]: the
//!   scalar reference, the T-table software cipher the functional bytes
//!   are checked against, and the host's AES instructions that compute
//!   them, falling back to the T-table cipher where the CPU has none; all
//!   verified against FIPS-197 and NIST SP 800-38A vectors), Monte Carlo
//!   Pi ([`pi`]), and a
//!   GraySort-style sort kernel ([`sort`]). Functional simulation runs these
//!   for real, so end-to-end tests verify actual ciphertext through the
//!   whole simulated stack.
//! * **The calibration table** ([`cost`]) — cycles/byte and cycles/sample
//!   per engine, the single source of truth for every timing model above.
//! * **Deterministic synthetic data** ([`data`]) — content as a pure
//!   function of `(seed, offset)` plus order-independent digests, so any
//!   component can materialize and verify any byte range independently.
//! * **The record-image pool** ([`pool`]) — the byte images a functional
//!   run moves its records in, handed back and reused, never zeroed.

pub mod aes;
pub mod cost;
pub mod data;
pub mod pi;
pub mod pool;
pub mod sort;

pub use aes::{Aes128, AesImpl};
pub use cost::Engine;
pub use data::{checksum, fill_deterministic, ChecksumLanes, UnorderedDigest, CHUNK, LANES};
pub use sort::SortRecord;
