//! Plain FIFO dispatch (the ablation baseline).

use accelmr_net::NodeId;

use super::{SchedView, Scheduler};

/// Dispatches strictly in queue order, ignoring placement.
///
/// `pick_task` always returns index `0` — the *front* of the pending
/// queue, not an arbitrary element. This is correct because the runtime's
/// pending queue is order-stable: tasks enter in submission order
/// (`TaskId` ascending), the runtime only ever pops the index this
/// scheduler picks and *appends* re-queued work (failed attempts,
/// speculative re-queues, tasks orphaned by node death) at the back.
/// Dispatch order therefore equals submission order, with re-executed
/// tasks re-dispatched after everything that was already waiting — the
/// invariant `fifo_dispatch_order_is_submission_order_across_requeue`
/// pins down.
#[derive(Debug)]
pub struct Fifo;

impl Scheduler for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn pick_task(&mut self, view: &SchedView<'_>, _node: NodeId) -> Option<usize> {
        (!view.pending.is_empty()).then_some(0)
    }
}
