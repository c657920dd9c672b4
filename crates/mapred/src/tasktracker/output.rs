//! Writing an attempt's output to the DFS: create the part file on first
//! output, allocate a block per queued chunk once the create is
//! acknowledged, stream each block, count the acks.

use std::collections::VecDeque;

use accelmr_des::prelude::*;
use accelmr_dfs::msgs::{BlockAllocated, BlockContent};

use super::io::IoKind;
use super::{Node, TaskRun};
use crate::job::OutputSink;

/// Output-write state of an attempt whose sink is the DFS.
#[derive(Default)]
pub(super) struct Output {
    pub create_requested: bool,
    pub created: bool,
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
    /// output, and allocates a block per queued chunk once it exists.
    pub(super) fn flush_output(&mut self, node: &mut Node, ctx: &mut Ctx<'_>) {
        let awaiting_create = self.out.create_requested && !self.out.created;
        if self.out.queue.is_empty() || awaiting_create {
            return;
        }
        let Some((path, replication)) = self.part_file() else {
            return;
        };
        if !self.out.create_requested {
            self.out.create_requested = true;
            let tag = node.track(self, IoKind::Create);
            node.dfs.create_file(ctx, node.id, &path, replication, tag);
            return;
        }
        while let Some(len) = self.out.queue.pop_front() {
            self.out.outstanding += 1;
            let tag = node.track(self, IoKind::Write { len });
            node.dfs.alloc_block(ctx, node.id, &path, len, tag);
        }
    }

    /// The NameNode acknowledged this attempt's create.
    pub(super) fn create_acked(&mut self, node: &mut Node, ctx: &mut Ctx<'_>) {
        self.out.created = true;
        self.flush_output(node, ctx);
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
        // Output content is not synthetic-derived; seed 0. The
        // verification path uses map-side digests instead.
        let content = BlockContent {
            len,
            seed: 0,
            base_offset: self.out.next_offset,
        };
        self.out.next_offset += len;
        let ok = node.dfs.write_block(
            ctx,
            node.id,
            alloc.block,
            content,
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
