//! Writing an attempt's output to the DFS: create the part file on first
//! output, allocate a block per queued chunk once the create is
//! acknowledged, stream each block, count the acks.

use std::collections::VecDeque;

use accelmr_des::prelude::*;
use accelmr_dfs::msgs::BlockAllocated;

use super::io::IoKind;
use super::{Node, TaskRun};
use crate::job::OutputSink;

/// Output-write state of an attempt whose sink is the DFS.
#[derive(Default)]
pub(super) struct Output {
    create_requested: bool,
    created: bool,
    /// Chunk lengths waiting for the create ack.
    pub queue: VecDeque<u64>,
    /// Blocks allocated (or being allocated) and not yet acknowledged.
    pub outstanding: u32,
    next_offset: u64,
}

impl TaskRun {
    pub(super) fn writes_dfs(&self) -> bool {
        matches!(self.desc.output, OutputSink::Dfs { .. })
    }

    /// `<dir>/part-NNNNN` and its replication, when the sink is the DFS.
    fn part_file(&self) -> Option<(String, Option<usize>)> {
        match &self.desc.output {
            OutputSink::Dfs { path, replication } => Some((
                format!("{}/part-{:05}", path, self.desc.task.0),
                *replication,
            )),
            _ => None,
        }
    }

    /// Moves queued output along: requests the part file on the first
    /// output, then allocates blocks if the file is there.
    pub(super) fn flush_output(&mut self, node: &mut Node, ctx: &mut Ctx<'_>) {
        if !self.out.create_requested && !self.out.queue.is_empty() {
            let Some((path, replication)) = self.part_file() else {
                return;
            };
            self.out.create_requested = true;
            node.dfs.create_file(ctx, node.id, &path, replication);
            node.create_waiters.push_back((self.slot, self.gen));
        }
        self.drain_output(node, ctx);
    }

    /// The NameNode acknowledged this attempt's create.
    pub(super) fn create_acked(&mut self, node: &mut Node, ctx: &mut Ctx<'_>) {
        self.out.created = true;
        self.drain_output(node, ctx);
    }

    fn drain_output(&mut self, node: &mut Node, ctx: &mut Ctx<'_>) {
        if !self.out.created || self.out.queue.is_empty() {
            return;
        }
        let Some((path, _)) = self.part_file() else {
            return;
        };
        while let Some(len) = self.out.queue.pop_front() {
            self.out.outstanding += 1;
            let tag = node.track(self, IoKind::Write { len });
            node.dfs.alloc_block(ctx, node.id, &path, len, tag);
        }
    }

    /// A block of `len` bytes was allocated: stream it into its pipeline.
    /// The entry goes back into the table until the `WriteAck`.
    pub(super) fn block_allocated(
        &mut self,
        node: &mut Node,
        ctx: &mut Ctx<'_>,
        len: u64,
        alloc: &BlockAllocated,
    ) {
        let base_offset = self.out.next_offset;
        self.out.next_offset += len;
        // Output content is not synthetic-derived; seed 0. The
        // verification path uses map-side digests instead.
        let ok = node.dfs.write_block(
            ctx,
            node.id,
            alloc.block,
            len,
            0,
            base_offset,
            &alloc.pipeline,
            alloc.tag,
        );
        if ok {
            node.retrack(alloc.tag, self, IoKind::Write { len });
        } else {
            self.fail();
        }
    }

    /// A block's last replica landed.
    pub(super) fn write_acked(&mut self, ctx: &mut Ctx<'_>) {
        self.out.outstanding -= 1;
        self.maybe_finish(ctx);
    }
}
