//! The slot ledger: one job's task table and pending queue, and every
//! count derived from them, behind a single owner.
//!
//! The JobTracker reads these counts on every free heartbeat slot
//! ([`SchedView::running_slots`](crate::sched::SchedView::running_slots),
//! `running_incomplete`, the fair-share slot-seconds integral), so they are
//! maintained incrementally rather than recounted. They have exactly one
//! writer: every change to a task's running attempts or completion goes
//! through [`SlotLedger::update`], which derives the counter deltas from the
//! task's state before and after — dispatch, reports, sibling kills,
//! preemption and node deaths cannot drift apart because none of them
//! touches a counter. Debug builds recount the whole table after every
//! mutation.
//!
//! The second half of the file is the same idea for the job's output
//! aggregates: [`MapOutput`] is what one successful attempt folds into
//! [`Totals`], kept so a map output lost to a node death can be taken back
//! out exactly.

use std::collections::VecDeque;

use accelmr_des::prelude::*;
use accelmr_des::FxHashMap;
use accelmr_net::NodeId;

use crate::config::{JobId, TaskId};
use crate::job::TaskWork;
use crate::msgs::TaskReport;
use crate::sched::{task_work_size, TaskLookup, TaskView};

/// One running attempt: `(attempt, node, started)`.
pub(crate) type Attempt = (u32, NodeId, SimTime);

/// One task of a job. Fields are readable crate-wide, but the ledger never
/// hands out a `&mut TaskState`, so only this module writes them.
#[derive(Debug)]
pub(crate) struct TaskState {
    pub(crate) work: TaskWork,
    /// Nodes holding input replicas (locality scheduling hint).
    pub(crate) hints: Vec<NodeId>,
    pub(crate) is_reduce: bool,
    /// Attempts dispatched so far.
    pub(crate) attempts: u32,
    pub(crate) completed: bool,
    pub(crate) running: Vec<Attempt>,
    /// Node where the successful attempt ran (shuffle source).
    pub(crate) ran_on: Option<NodeId>,
}

impl TaskState {
    /// Incomplete with at least one attempt in flight.
    fn active(&self) -> bool {
        !self.completed && !self.running.is_empty()
    }
}

#[derive(Debug)]
pub(crate) struct SlotLedger {
    /// Owning job, for diagnostics.
    job: JobId,
    tasks: Vec<TaskState>,
    /// Tasks awaiting dispatch, in queue order. Entered at creation, when
    /// an incomplete task loses its last running attempt, and when a
    /// completed map's output is lost; left only by dispatch.
    pending: VecDeque<TaskId>,
    /// Running attempts summed over all tasks.
    running_now: u32,
    /// Incomplete tasks with at least one running attempt.
    running_tasks: u32,
    // Fairness accounting: the integral of `running_now` over time
    // (slot-seconds) and its step timeline.
    share_last_change: SimTime,
    slot_seconds: f64,
    share_timeline: Vec<(SimTime, u32)>,
}

impl SlotLedger {
    pub(crate) fn new(job: JobId, now: SimTime) -> Self {
        SlotLedger {
            job,
            tasks: Vec::new(),
            pending: VecDeque::new(),
            running_now: 0,
            running_tasks: 0,
            share_last_change: now,
            slot_seconds: 0.0,
            share_timeline: Vec::new(),
        }
    }

    /// Appends a task to the table and queues it for dispatch.
    pub(crate) fn push_task(&mut self, work: TaskWork, hints: Vec<NodeId>, is_reduce: bool) {
        self.pending.push_back(TaskId(self.tasks.len() as u32));
        self.tasks.push(TaskState {
            work,
            hints,
            is_reduce,
            attempts: 0,
            completed: false,
            running: Vec::new(),
            ran_on: None,
        });
    }

    /// Empties the task table for a re-plan. Only legal while nothing has
    /// been dispatched, so every derived count is already zero.
    pub(crate) fn clear(&mut self) {
        debug_assert_eq!(
            self.running_now, 0,
            "{}: re-plan with attempts out",
            self.job
        );
        self.tasks.clear();
        self.pending.clear();
        self.debug_check();
    }

    pub(crate) fn tasks(&self) -> &[TaskState] {
        &self.tasks
    }

    pub(crate) fn task(&self, task: TaskId) -> &TaskState {
        &self.tasks[task.0 as usize]
    }

    /// The task's work description, for the reduce fetch rebuild at
    /// dispatch.
    pub(crate) fn work_mut(&mut self, task: TaskId) -> &mut TaskWork {
        &mut self.tasks[task.0 as usize].work
    }

    pub(crate) fn running_now(&self) -> u32 {
        self.running_now
    }

    pub(crate) fn running_tasks(&self) -> u32 {
        self.running_tasks
    }

    pub(crate) fn slot_seconds(&self) -> f64 {
        self.slot_seconds
    }

    pub(crate) fn share_timeline(&self) -> &[(SimTime, u32)] {
        &self.share_timeline
    }

    /// Rotates the queue's storage so [`pending`](Self::pending) can slice
    /// it.
    pub(crate) fn make_contiguous(&mut self) {
        self.pending.make_contiguous();
    }

    /// The pending queue as one slice — whole only after
    /// [`make_contiguous`](Self::make_contiguous).
    pub(crate) fn pending(&self) -> &[TaskId] {
        let (queue, wrapped) = self.pending.as_slices();
        debug_assert!(
            wrapped.is_empty(),
            "{}: pending queue not contiguous",
            self.job
        );
        queue
    }

    /// Dispatch takes the entry at `idx` out of the queue.
    pub(crate) fn take_pending(&mut self, idx: usize) -> Option<TaskId> {
        self.pending.remove(idx)
    }

    /// Records a new attempt of `task` on `node`; returns its number.
    pub(crate) fn add_attempt(&mut self, task: TaskId, node: NodeId, now: SimTime) -> u32 {
        self.update(task, now, |ts| {
            ts.attempts += 1;
            ts.running.push((ts.attempts, node, now));
            ts.attempts
        })
    }

    /// Removes the running attempts of `task` that `gone(attempt, node)`
    /// selects and returns them. An incomplete task left with nothing
    /// running re-enters the pending queue.
    pub(crate) fn remove_attempts(
        &mut self,
        task: TaskId,
        now: SimTime,
        mut gone: impl FnMut(u32, NodeId) -> bool,
    ) -> Vec<Attempt> {
        self.update(task, now, |ts| {
            let mut removed = Vec::new();
            ts.running.retain(|&attempt| {
                let gone = gone(attempt.0, attempt.1);
                if gone {
                    removed.push(attempt);
                }
                !gone
            });
            removed
        })
    }

    /// Marks `task` completed by its attempt on `node` and removes every
    /// running attempt — the winner's and any speculative siblings', which
    /// stop occupying (and billing) slots now: a killed attempt never
    /// reports back, and a natural-completion race arrives as a stale
    /// report that finds nothing left to remove.
    pub(crate) fn complete(&mut self, task: TaskId, node: NodeId, now: SimTime) -> Vec<Attempt> {
        self.update(task, now, |ts| {
            ts.completed = true;
            ts.ran_on = Some(node);
            std::mem::take(&mut ts.running)
        })
    }

    /// A completed task's output was lost: it is incomplete again and
    /// re-enters the pending queue.
    pub(crate) fn uncomplete(&mut self, task: TaskId, now: SimTime) {
        self.update(task, now, |ts| {
            ts.completed = false;
            ts.ran_on = None;
        });
        self.pending.push_back(task);
    }

    /// Re-bills `seconds` of slot time to (or, negative, away from) this
    /// job outside the timeline: preemption moves a victim's discarded
    /// runtime onto the job that forced the kill.
    pub(crate) fn charge(&mut self, seconds: f64) {
        self.slot_seconds += seconds;
    }

    /// Integrates the current occupancy into `slot_seconds` up to `now`.
    pub(crate) fn settle(&mut self, now: SimTime) {
        self.slot_seconds +=
            self.running_now as f64 * now.since(self.share_last_change).as_secs_f64();
        self.share_last_change = now;
    }

    /// The single writer of the derived counts: applies `change` to `task`
    /// and books the difference between the task's state before and after.
    fn update<R>(
        &mut self,
        task: TaskId,
        now: SimTime,
        change: impl FnOnce(&mut TaskState) -> R,
    ) -> R {
        let ts = &mut self.tasks[task.0 as usize];
        let (was_active, was_running) = (ts.active(), ts.running.len());
        let out = change(ts);
        let (is_active, is_running) = (ts.active(), ts.running.len());
        match (was_active, is_active) {
            (false, true) => self.running_tasks += 1,
            (true, false) => self.running_tasks -= 1,
            _ => {}
        }
        if is_running < was_running && !ts.completed && is_running == 0 {
            self.pending.push_back(task);
        }
        self.note_share(now, is_running as i64 - was_running as i64);
        if (was_active, was_running) != (is_active, is_running) {
            self.debug_check();
        }
        out
    }

    /// Records a change of `delta` attempts in the job's occupied-slot
    /// count at `now`: integrates the previous level into `slot_seconds`
    /// and appends to the share timeline (coalescing same-instant steps).
    fn note_share(&mut self, now: SimTime, delta: i64) {
        if delta == 0 {
            return;
        }
        self.settle(now);
        let level = self.running_now as i64 + delta;
        debug_assert!(level >= 0, "{}: occupied-slot count underflow", self.job);
        self.running_now = level.max(0) as u32;
        match self.share_timeline.last_mut() {
            Some((t, level)) if *t == now => *level = self.running_now,
            _ => self.share_timeline.push((now, self.running_now)),
        }
    }

    /// Debug-build recount of the derived counts against the task table,
    /// run after every mutation. Compiles to nothing in release builds.
    fn debug_check(&self) {
        debug_assert_eq!(
            self.running_now as usize,
            self.tasks.iter().map(|t| t.running.len()).sum::<usize>(),
            "{}: running_now diverged from the task table",
            self.job
        );
        debug_assert_eq!(
            self.running_tasks as usize,
            self.tasks.iter().filter(|t| t.active()).count(),
            "{}: running_tasks diverged from the task table",
            self.job
        );
    }
}

/// Lazy [`TaskLookup`] over the task table: snapshots are built per probe
/// instead of materializing an O(tasks) `Vec<TaskView>` for every scheduler
/// decision (most decisions touch a handful of tasks or none at all).
impl TaskLookup for SlotLedger {
    fn len(&self) -> usize {
        self.tasks.len()
    }

    fn get(&self, idx: usize) -> TaskView<'_> {
        let ts = &self.tasks[idx];
        TaskView {
            hints: &ts.hints,
            is_reduce: ts.is_reduce,
            completed: ts.completed,
            running: &ts.running,
            size: task_work_size(&ts.work),
        }
    }
}

/// The aggregates a job folds its successful attempts into.
#[derive(Default)]
pub(crate) struct Totals {
    pub(crate) bytes_read: u64,
    pub(crate) bytes_output: u64,
    pub(crate) local_reads: u64,
    pub(crate) remote_reads: u64,
    pub(crate) kv: Vec<(u64, u64)>,
    pub(crate) digest_acc: u64,
    pub(crate) digest_count: u64,
}

/// One successful attempt's contribution to its job's [`Totals`]. Shuffle
/// jobs keep the record of every completed map: it is the shuffle's
/// partitioning input, and when the output's node dies and the map must
/// re-execute, [`unfold`](MapOutput::unfold) takes out exactly what
/// [`fold`](MapOutput::fold) put in (otherwise re-execution would
/// double-count kv pairs, digests and byte totals — exactly-once
/// accounting under churn depends on this).
pub(crate) struct MapOutput {
    pub(crate) node: NodeId,
    pub(crate) pairs: u64,
    /// Output size: shuffle partitioning input *and* the amount to take
    /// out of `Totals::bytes_output` on loss.
    pub(crate) bytes_output: u64,
    /// The attempt's kv pairs as a multiset (pair → count): subtraction-
    /// ready, and never larger than the pair list it summarizes.
    kv_counts: FxHashMap<(u64, u64), u64>,
    digest: (u64, u64),
    bytes_read: u64,
    local_reads: u64,
    remote_reads: u64,
}

impl MapOutput {
    /// The contribution `report` carries. Only a record that will be
    /// `kept` (a shuffle's map output, the one kind that can be lost) pays
    /// for the kv multiset.
    pub(crate) fn of(report: &TaskReport, kept: bool) -> Self {
        let mut kv_counts: FxHashMap<(u64, u64), u64> = FxHashMap::default();
        if kept {
            for &pair in &report.kv {
                *kv_counts.entry(pair).or_default() += 1;
            }
        }
        MapOutput {
            node: report.node,
            pairs: report.kv.len() as u64,
            bytes_output: report.metrics.bytes_output,
            kv_counts,
            digest: report.digest,
            bytes_read: report.metrics.bytes_read,
            local_reads: report.metrics.local_reads,
            remote_reads: report.metrics.remote_reads,
        }
    }

    /// Adds this contribution, whose pairs are `kv`, to `totals`.
    pub(crate) fn fold(&self, kv: &[(u64, u64)], totals: &mut Totals) {
        totals.bytes_read += self.bytes_read;
        totals.bytes_output += self.bytes_output;
        totals.local_reads += self.local_reads;
        totals.remote_reads += self.remote_reads;
        totals.digest_acc = totals.digest_acc.wrapping_add(self.digest.0);
        totals.digest_count += self.digest.1;
        totals.kv.extend_from_slice(kv);
    }

    /// Takes this contribution back out of `totals`.
    pub(crate) fn unfold(mut self, totals: &mut Totals) {
        totals.bytes_read -= self.bytes_read;
        totals.bytes_output -= self.bytes_output;
        totals.local_reads -= self.local_reads;
        totals.remote_reads -= self.remote_reads;
        totals.digest_acc = totals.digest_acc.wrapping_sub(self.digest.0);
        totals.digest_count -= self.digest.1;
        // Multiset subtraction in one pass (shuffle aggregates are
        // order-independent, so retain is safe; per-pair scans would be
        // quadratic).
        totals.kv.retain(|p| match self.kv_counts.get_mut(p) {
            Some(c) if *c > 0 => {
                *c -= 1;
                false
            }
            _ => true,
        });
    }
}
