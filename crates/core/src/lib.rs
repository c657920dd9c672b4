//! # accelmr-hybrid — the paper's two-level MapReduce execution environment
//!
//! This crate is the reproduction of the paper's contribution (its
//! Figure 1): a Hadoop-like distributed runtime whose `map()` invocations
//! call through a JNI-like native bridge into node-level Cell BE runtimes,
//! exploiting both cluster-level and intra-node parallelism transparently.
//!
//! Layers glued together here:
//!
//! * [`mod@env`] — per-node accelerator state ([`CellNodeEnv`]): Cell machines
//!   whose SPU contexts stay warm across map tasks, plus the
//!   MapReduce-for-Cell framework instance [`CellMrAesKernel`] runs its
//!   map-only records through;
//! * [`bridge`] — the JNI call cost, [`bridge::call_cost`];
//! * [`kernels`] — one map kernel per paper configuration (Java scalar /
//!   direct Cell / Cell framework / Empty, for both AES and Pi workloads);
//! * [`experiments`] — a runner per paper figure (2, 4, 5, 6, 7, 8) plus
//!   the Terasort-style feed-rate experiment, each regenerating the
//!   corresponding series;
//! * [`presets`] — ready-to-submit `JobBuilder`s for the paper's Pi,
//!   AES-encrypt, and Terasort workloads;
//! * [`hetero`] — one of the paper's §V open issues, implemented: mixed
//!   clusters where only a fraction of nodes carry accelerators (adaptive
//!   kernels + the straggler effect the paper anticipated).

pub mod bridge;
pub mod env;
pub mod experiments;
pub mod hetero;
pub mod kernels;
pub mod presets;

pub use env::{CellEnvFactory, CellNodeEnv};
pub use hetero::{AdaptiveAesKernel, AdaptiveKernel, AdaptivePiKernel, MixedEnvFactory};
pub use kernels::{
    job_key, CellAesKernel, CellMrAesKernel, CellPiKernel, EmptyKernel, JavaAesKernel,
    JavaPiKernel, JOB_NONCE,
};
pub use presets::{AesMapper, PiMapper};
