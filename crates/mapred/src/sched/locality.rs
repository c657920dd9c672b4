//! Locality-preferring dispatch (Hadoop's default, as the paper ran it).

use accelmr_des::SimTime;
use accelmr_net::NodeId;

use crate::config::TaskId;

use super::{default_straggler, locality_pick, SchedView, Scheduler};

/// Prefers the oldest pending task with an input replica on the
/// requesting node ("it tries to minimize the number of remote blocks
/// accesses"); falls back to the queue front when nothing is local.
#[derive(Debug)]
pub struct LocalityFirst;

impl Scheduler for LocalityFirst {
    fn name(&self) -> &'static str {
        "locality-first"
    }

    fn pick_task(&mut self, view: &SchedView<'_>, node: NodeId) -> Option<usize> {
        locality_pick(view, node)
    }

    fn pick_straggler(
        &mut self,
        view: &SchedView<'_>,
        node: NodeId,
        now: SimTime,
    ) -> Option<TaskId> {
        default_straggler(view, node, now, |_| true)
    }
}
