//! # accelmr — two-level MapReduce for accelerator-equipped clusters
//!
//! A full-system reproduction of *"Speeding Up Distributed MapReduce
//! Applications Using Hardware Accelerators"* (Becerra et al., ICPP 2009):
//! a Hadoop-like distributed MapReduce runtime whose map tasks offload
//! their kernels to simulated Cell BE accelerators through a JNI-like
//! native bridge, exploiting cluster-level and intra-node parallelism at
//! once.
//!
//! This facade crate re-exports every layer:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`des`] | `accelmr-des` | deterministic discrete-event engine |
//! | [`net`] | `accelmr-net` | links, switch, max-min fair flows, loopback |
//! | [`dfs`] | `accelmr-dfs` | HDFS-like NameNode/DataNodes |
//! | [`mapred`] | `accelmr-mapred` | JobTracker/TaskTrackers, splits, shuffle |
//! | [`cellbe`] | `accelmr-cellbe` | Cell BE machine (SPEs, local stores, DMA) |
//! | [`cellmr`] | `accelmr-cellmr` | MapReduce-for-Cell framework |
//! | [`kernels`] | `accelmr-kernels` | real AES-128 / Monte Carlo Pi / sort + cost model |
//! | [`hybrid`] | `accelmr-hybrid` | the paper's two-level runtime + experiments |
//!
//! ## Quickstart
//!
//! Deploy a cluster with [`ClusterBuilder`](prelude::ClusterBuilder), open a
//! [`Session`](prelude::Session), and submit jobs — hand-rolled or from the
//! [`presets`](hybrid::presets) for the paper's workloads:
//!
//! ```
//! use accelmr::prelude::*;
//!
//! // Deploy a 4-node cluster with Cell-equipped workers.
//! let mut cluster = ClusterBuilder::new()
//!     .seed(42)
//!     .workers(4)
//!     .env(CellEnvFactory::default())
//!     .deploy();
//!
//! // Estimate Pi with accelerated mappers.
//! let mut session = cluster.session();
//! let job = session.submit(presets::pi(PiMapper::Cell, 7, 10_000_000));
//! session.run_until_complete();
//!
//! let result = job.result();
//! assert!(result.succeeded);
//! let pi = presets::pi_estimate(&result).unwrap();
//! assert!((pi - std::f64::consts::PI).abs() < 0.01);
//! ```
//!
//! Sessions drive any number of jobs concurrently with deterministic
//! discrete-event interleaving — including staggered arrivals:
//!
//! ```
//! use accelmr::prelude::*;
//!
//! let mut cluster = ClusterBuilder::new()
//!     .workers(4)
//!     .env(CellEnvFactory::default())
//!     .deploy();
//! let mut session = cluster.session();
//! let a = session.submit(presets::pi(PiMapper::Cell, 1, 50_000_000));
//! let b = session.submit(presets::pi(PiMapper::Java, 2, 50_000_000));
//! let late = session.submit_after(
//!     SimDuration::from_secs(30),
//!     presets::pi(PiMapper::Cell, 3, 50_000_000),
//! );
//! let results = session.run_until_complete();
//! assert_eq!(results.len(), 3);
//! assert!(a.result().succeeded && b.result().succeeded && late.result().succeeded);
//! ```

pub use accelmr_cellbe as cellbe;
pub use accelmr_cellmr as cellmr;
pub use accelmr_des as des;
pub use accelmr_dfs as dfs;
pub use accelmr_hybrid as hybrid;
pub use accelmr_kernels as kernels;
pub use accelmr_mapred as mapred;
pub use accelmr_net as net;

/// The most commonly used items across all layers.
pub mod prelude {
    pub use accelmr_des::{Sim, SimDuration, SimTime};
    pub use accelmr_dfs::{DfsConfig, DfsHandle};
    pub use accelmr_hybrid::presets;
    pub use accelmr_hybrid::{
        AesMapper, CellAesKernel, CellEnvFactory, CellMrAesKernel, CellPiKernel, EmptyKernel,
        JavaAesKernel, JavaPiKernel, PiMapper,
    };
    pub use accelmr_kernels::{Aes128, AesImpl, Engine};
    pub use accelmr_mapred::{
        ChurnOp, ChurnSchedule, ClusterBuilder, FaultOp, FaultPlan, JobBuilder, JobError,
        JobHandle, JobInput, JobRequest, JobResult, JobSpec, JobSpecError, MrConfig, OutputSink,
        PreemptionTuning, PreloadSpec, ReduceSpec, SchedulerPolicy, Session, SumReducer,
    };
    pub use accelmr_net::{NetConfig, NodeId};
}
