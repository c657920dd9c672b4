//! # accelmr-cellmr — MapReduce framework for the Cell BE
//!
//! A reproduction of the intra-node MapReduce runtime (de Kruijf &
//! Sankaralingam, UW-Madison TR1625) that the paper wraps behind its second
//! JNI library. The framework's defining overhead — the PPE copying input
//! into framework-managed buffers before SPEs see any data — is modeled
//! explicitly and is what separates the "MapReduce Cell" curve from the
//! direct "Cell BE" curve in the paper's Figure 2.
//!
//! The paper runs the framework map-only, and so does this crate:
//! [`CellMrRuntime::run_map`] stages a byte range, transforms it record by
//! record on the SPEs (AES encryption), and reports the staging, map and
//! start-up phases. It serves Figure 2's "MapReduce Cell" curve and the
//! distributed framework mapper (`accelmr-hybrid`'s `CellMrAesKernel`).

pub mod config;
pub mod runtime;

pub use config::CellMrConfig;
pub use runtime::{CellMrReport, CellMrRuntime};
