//! The reduce side of an attempt: the shuffle fetch burst, watchdog-driven
//! re-issue with backoff, and the merge.

use accelmr_des::prelude::*;

use super::io::{backoff, degrade, Fetch, IoKind, Step, Tick};
use super::{Node, TaskRun};
use crate::job::TaskWork;

/// Per-stream ceiling of shuffle fetches, bytes/second.
const SHUFFLE_STREAM_CAP: f64 = 20.0e6;

/// Shuffle and merge state of a reduce attempt.
#[derive(Default)]
pub(super) struct Shuffle {
    /// Fetches not yet landed (a re-issued fetch still counts once).
    pub fetches_left: usize,
    merge_started: bool,
    pub merge_done: bool,
}

impl Node {
    /// Starts one fetch under a fresh tag — the first try or a re-issue —
    /// with a watchdog whose patience grows with `retries`.
    fn fetch(&mut self, ctx: &mut Ctx<'_>, run: &TaskRun, fetch: Fetch) {
        let tag = self.track(run, IoKind::Fetch(fetch));
        let (net, me, cap) = (self.net, self.id, Some(SHUFFLE_STREAM_CAP));
        net.start_flow(ctx, fetch.from, me, fetch.bytes, cap, tag);
        if let Some(t) = self.cfg.shuffle_fetch_timeout {
            let t = backoff(t, fetch.retries);
            ctx.after(t, Tick::Watchdog(tag).pack());
        }
    }
}

impl TaskRun {
    /// Issues every non-empty fetch of a `Reduce` attempt at this one
    /// instant: the fabric coalesces the whole shuffle wave into a single
    /// max-min re-solve (see `accelmr_net::fabric`), so keep this a
    /// straight burst — do not stagger or serialize starts.
    ///
    /// The fetch list leaves the descriptor here and is freed when the
    /// burst is out: from then on the table holds what a re-issue needs,
    /// and a second copy per reducer is memory the shuffle peak pays for.
    pub(super) fn start_fetches(&mut self, node: &mut Node, ctx: &mut Ctx<'_>) {
        let TaskWork::Reduce { fetches, .. } = &mut self.desc.work else {
            return;
        };
        let fetches = std::mem::take(fetches);
        for &(from, bytes) in fetches.iter().filter(|&&(_, bytes)| bytes > 0) {
            self.shuffle.fetches_left += 1;
            self.metrics.bytes_read += bytes;
            let first_try = Fetch {
                from,
                bytes,
                retries: 0,
            };
            node.fetch(ctx, self, first_try);
        }
        if self.shuffle.fetches_left == 0 {
            self.start_merge(node, ctx);
        }
    }

    /// A fetch landed; the last one starts the merge.
    pub(super) fn fetch_done(&mut self, node: &mut Node, ctx: &mut Ctx<'_>) {
        self.shuffle.fetches_left -= 1;
        if self.shuffle.fetches_left == 0 {
            self.start_merge(node, ctx);
        }
    }

    /// A fetch watchdog fired while the flow was still in flight: re-issue
    /// the fetch from the same source with backed-off patience, up to
    /// `io_max_retries`. The stalled flow is left to drain; its eventual
    /// `FlowDone` misses the table and is ignored.
    pub(super) fn fetch_timed_out(&mut self, node: &mut Node, ctx: &mut Ctx<'_>, mut fetch: Fetch) {
        if fetch.retries >= node.cfg.io_max_retries {
            ctx.stats().incr("mr.fetch_failures");
            self.fail();
            return;
        }
        ctx.stats().incr("mr.attempt_retries");
        fetch.retries += 1;
        node.fetch(ctx, self, fetch);
    }

    fn start_merge(&mut self, node: &mut Node, ctx: &mut Ctx<'_>) {
        if self.shuffle.merge_started {
            return;
        }
        self.shuffle.merge_started = true;
        let nominal = self.desc.reduce_merge_time;
        let merge_time = degrade(
            nominal.unwrap_or(SimDuration::from_millis(1)),
            node.gray_factor,
        );
        // Unlike a map, a reduce accounts output only when it writes it.
        let out_bytes = self.metrics.bytes_read;
        if self.writes_dfs() && out_bytes > 0 {
            self.metrics.bytes_output += out_bytes;
            self.out.queue.push_back(out_bytes);
        }
        self.flush_output(node, ctx);
        ctx.after(merge_time, self.tick(Step::Merge));
    }

    /// The merge timer fired.
    pub(super) fn merge_done(&mut self, ctx: &mut Ctx<'_>) {
        self.shuffle.merge_done = true;
        self.maybe_finish(ctx);
    }
}
