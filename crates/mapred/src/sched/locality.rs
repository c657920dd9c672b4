//! Locality-preferring dispatch (Hadoop's default, as the paper ran it).

use super::Scheduler;

/// Prefers the oldest pending task with an input replica on the
/// requesting node ("it tries to minimize the number of remote blocks
/// accesses"); falls back to the queue front when nothing is local. Every
/// decision is the [`Scheduler`] default.
#[derive(Debug)]
pub struct LocalityFirst;

impl Scheduler for LocalityFirst {
    fn name(&self) -> &'static str {
        "locality-first"
    }
}
