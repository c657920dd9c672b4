//! # accelmr-des — deterministic discrete-event simulation engine
//!
//! The foundation of the accelmr workspace: a single-threaded,
//! strictly deterministic discrete-event engine with an actor programming
//! model. Every other substrate (network fabric, HDFS-like file system,
//! Hadoop-like MapReduce runtime) is built as actors on this engine. The
//! engine's event queue, the [`Ladder`], is public: the fabric keeps its
//! projected flow completions on one. (The Cell BE chip simulator's
//! intra-chip loop holds a few dozen pending events per run and keeps a
//! plain binary heap, which is faster at that size.)
//!
//! ## Model
//!
//! * Time is integer nanoseconds ([`SimTime`], [`SimDuration`]).
//! * Components are [`Actor`]s reacting to [`Event`]s; all interaction is
//!   asynchronous message passing (no synchronous cross-actor calls), which
//!   mirrors the distributed system being modeled.
//! * Events fire in `(time, insertion order)`; the engine is reproducible
//!   bit-for-bit from a seed, checked by trace fingerprints ([`Trace`]).
//!
//! ## Example
//!
//! ```
//! use accelmr_des::prelude::*;
//!
//! struct Greeter;
//! impl Actor for Greeter {
//!     fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
//!         match ev {
//!             Event::Start => { ctx.after(SimDuration::from_secs(1), 0); }
//!             Event::Timer { .. } => { ctx.stats().incr("greeted"); ctx.stop(); }
//!             _ => {}
//!         }
//!     }
//! }
//!
//! let mut sim = Sim::new(42);
//! sim.spawn(Box::new(Greeter));
//! let summary = sim.run();
//! assert_eq!(summary.end_time.as_secs_f64(), 1.0);
//! assert_eq!(sim.stats().counter("greeted"), 1);
//! ```

pub mod actor;
pub mod fxmap;
mod queue;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod time;
pub mod trace;

pub use actor::{Actor, ActorId, Event, Msg, TimerHandle};
pub use fxmap::{sorted_keys_where, FxHashMap, FxHashSet, FxHasher};
pub use queue::{Ladder, Timed};
pub use rng::{splitmix64, Xoshiro256};
pub use sim::{Ctx, RunSummary, Sim};
pub use stats::{ActorCost, QueueStats, Stats};
pub use time::{SimDuration, SimTime};
pub use trace::{Divergence, Trace, TraceEntry};

/// Everything most actor implementations need.
pub mod prelude {
    pub use crate::actor::{Actor, ActorId, Event, Msg, TimerHandle};
    pub use crate::rng::Xoshiro256;
    pub use crate::sim::{Ctx, RunSummary, Sim};
    pub use crate::time::{SimDuration, SimTime};
}
