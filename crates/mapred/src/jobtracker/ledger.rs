//! The slot ledger: one job's books behind a single owner — its task table
//! and pending queues, every count derived from them, its attempt history,
//! its folded output and its epoch fences.
//!
//! The JobTracker reads the counts on every free heartbeat slot
//! ([`SchedView::running_slots`](crate::sched::SchedView::running_slots),
//! `running_incomplete`, the fair-share slot-seconds integral), so they are
//! maintained incrementally rather than recounted. Everything has exactly
//! one writer, the mutators below, which together are the job's complete
//! state-change log. Every change to a task's running attempts or
//! completion goes through [`SlotLedger::update`], which derives the
//! counter deltas from the task's state before and after — dispatch,
//! reports, sibling kills, preemption and node deaths cannot drift apart
//! because none of them touches a counter. Debug builds recount the whole
//! table after every mutation.
//!
//! Exactly-once accounting is the same idea for the job's output: a
//! winning attempt's [`MapOutput`] is folded into [`Totals`] and taken back
//! out exactly if a node death loses it, and the attempts a node death or a
//! preemption removes are fenced, so their late reports are rejected.

use std::collections::VecDeque;

use accelmr_des::prelude::*;
use accelmr_des::{FxHashMap, FxHashSet};
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

/// Tasks of one kind in the table, and how many of them are complete.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Count {
    pub(crate) tasks: u32,
    pub(crate) completed: u32,
}

/// What the ledger counts and records. Readable crate-wide, but the ledger
/// never hands out a `&mut Tally`, so only its mutators write it.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Map and reduce tasks, indexed by `is_reduce`.
    pub(crate) counts: [Count; 2],
    /// Running attempts summed over all tasks.
    pub(crate) running_now: u32,
    /// Incomplete tasks with at least one running attempt.
    pub(crate) running_tasks: u32,
    /// The integral of `running_now` over time, plus preemption
    /// re-billing, and its step timeline (fairness accounting).
    pub(crate) slot_seconds: f64,
    pub(crate) share_timeline: Vec<(SimTime, u32)>,
    /// Every dispatch, in order: `(task, node)`, one entry per attempt.
    pub(crate) dispatch_log: Vec<(TaskId, NodeId)>,
    /// Winning attempts' runtimes, in completion order.
    pub(crate) task_times: Vec<SimDuration>,
    pub(crate) failed_attempts: u32,
    pub(crate) speculative_attempts: u32,
    /// Attempts of this job killed by preemptive reclamation.
    pub(crate) preempted_attempts: u32,
    /// Victim runtime discarded on this job's behalf (it was the
    /// beneficiary of the kills), already charged to its slot-seconds.
    pub(crate) wasted_slot_seconds: f64,
    pub(crate) totals: Totals,
    /// Last instant the job dispatched or completed an attempt (or was
    /// submitted): the stall watchdog's input.
    pub(crate) last_progress: SimTime,
}

impl Tally {
    pub(crate) fn maps(&self) -> Count {
        self.counts[0]
    }

    pub(crate) fn reduces(&self) -> Count {
        self.counts[1]
    }
}

#[derive(Debug)]
pub(crate) struct SlotLedger {
    /// Owning job, for diagnostics.
    job: JobId,
    /// A shuffle keeps each completed map's output: it is the reduces'
    /// partitioning input, and a node death can lose it.
    shuffle: bool,
    tasks: Vec<TaskState>,
    /// Tasks awaiting dispatch, in queue order, one queue per kind indexed
    /// by `is_reduce`. Entered at creation, when an incomplete task loses
    /// its last running attempt, and when a completed map's output is
    /// lost; left only by dispatch.
    pending: [VecDeque<TaskId>; 2],
    tally: Tally,
    share_last_change: SimTime,
    map_outputs: FxHashMap<TaskId, MapOutput>,
    /// Attempts `(task, attempt)` removed by a node death or a preemption,
    /// whose eventual reports — from a falsely-declared-dead tracker that
    /// kept running, or one back after a partition heal — are rejected
    /// wholesale: the re-execution's report is the one that counts.
    fenced: FxHashSet<(TaskId, u32)>,
}

impl SlotLedger {
    pub(crate) fn new(job: JobId, shuffle: bool, now: SimTime) -> Self {
        SlotLedger {
            job,
            shuffle,
            tasks: Vec::new(),
            pending: Default::default(),
            tally: Tally {
                last_progress: now,
                ..Tally::default()
            },
            share_last_change: now,
            map_outputs: FxHashMap::default(),
            fenced: FxHashSet::default(),
        }
    }

    /// Appends a task to the table and queues it for dispatch.
    pub(crate) fn push_task(&mut self, work: TaskWork, hints: Vec<NodeId>, is_reduce: bool) {
        self.pending[usize::from(is_reduce)].push_back(TaskId(self.tasks.len() as u32));
        self.tally.counts[usize::from(is_reduce)].tasks += 1;
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

    /// Books the RPC reducer, which runs inside the JobTracker rather than
    /// in a slot, as one reduce task that completes unqueued at `now`.
    pub(crate) fn push_rpc_reduce(&mut self, now: SimTime) {
        let work = TaskWork::Reduce {
            fetches: Vec::new(),
            pairs: 0,
            write_output: false,
            output_path: String::new(),
        };
        self.push_task(work, Vec::new(), true);
        let task = self.pending[1].pop_back().expect("just queued");
        self.update(task, now, |ts| ts.completed = true);
    }

    /// Empties the task table for a re-plan. Only legal while nothing has
    /// been dispatched, so every other book is still empty.
    pub(crate) fn clear(&mut self) {
        debug_assert!(self.tally.dispatch_log.is_empty(), "re-plan after dispatch");
        self.tasks.clear();
        self.pending = Default::default();
        self.tally.counts = Default::default();
    }

    pub(crate) fn tasks(&self) -> &[TaskState] {
        &self.tasks
    }

    pub(crate) fn task(&self, task: TaskId) -> &TaskState {
        &self.tasks[task.0 as usize]
    }

    pub(crate) fn tally(&self) -> &Tally {
        &self.tally
    }

    /// Whether every map output a shuffle needs is currently available.
    /// Reduce dispatch is held while this is false (a map output was lost
    /// to a node death and its task is re-executing); rebuilt fetches are
    /// only correct against a complete output set. Trivially true for
    /// non-shuffle jobs.
    pub(crate) fn shuffle_ready(&self) -> bool {
        let maps = self.tally.maps().tasks;
        !self.shuffle || (maps > 0 && self.map_outputs.len() as u32 == maps)
    }

    /// Points each reduce in `reduces` at an even share of every current
    /// map output: at shuffle start, and again at every dispatch, because
    /// after churn a re-executed map's output lives on a different node
    /// than when the reduce was planned. Only correct while
    /// [`shuffle_ready`](Self::shuffle_ready).
    #[expect(
        clippy::disallowed_methods,
        reason = "sorted below by the whole tuple, so equal elements are indistinguishable"
    )]
    pub(crate) fn partition(&mut self, reduces: impl IntoIterator<Item = TaskId>) {
        let mut outputs: Vec<(NodeId, u64, u64)> = self
            .map_outputs
            .values()
            .map(|mo| (mo.node, mo.bytes_output, mo.pairs))
            .collect();
        outputs.sort_unstable_by_key(|&(n, b, p)| (n, b, p));
        let total_pairs: u64 = outputs.iter().map(|&(_, _, p)| p).sum();
        let first = self.tally.maps().tasks;
        let reducers = u64::from(self.tally.reduces().tasks);
        for task in reduces {
            let r = u64::from(task.0 - first);
            let share = |bytes: u64| bytes / reducers + u64::from(bytes % reducers > r);
            if let TaskWork::Reduce { fetches, pairs, .. } = &mut self.tasks[task.0 as usize].work {
                *fetches = outputs
                    .iter()
                    .map(|&(node, bytes, _)| (node, share(bytes)))
                    .collect();
                *pairs = total_pairs / reducers;
            }
        }
    }

    /// Rotates the queues' storage so [`pending`](Self::pending) can slice
    /// them.
    pub(crate) fn make_contiguous(&mut self) {
        for queue in &mut self.pending {
            queue.make_contiguous();
        }
    }

    /// The pending queue of one kind as one slice — whole only after
    /// [`make_contiguous`](Self::make_contiguous).
    pub(crate) fn pending(&self, is_reduce: bool) -> &[TaskId] {
        let (queue, wrapped) = self.pending[usize::from(is_reduce)].as_slices();
        debug_assert!(wrapped.is_empty(), "pending queue not contiguous");
        queue
    }

    /// The kind of task (`is_reduce`) the job offers to dispatch: its maps
    /// while any is pending or the shuffle's outputs are incomplete (a
    /// reduce's fetch list is only correct against a complete output set),
    /// else its reduces. Reduces are queued only at shuffle start, once
    /// every map has completed, so the queue not offered never holds a
    /// runnable task. Every decision that shows schedulers this job's
    /// queue goes through here, so task-level and job-level views cannot
    /// disagree about what is runnable.
    pub(crate) fn offered_kind(&self) -> bool {
        self.pending[0].is_empty() && self.shuffle_ready()
    }

    /// The pending queue of the [`offered_kind`](Self::offered_kind).
    pub(crate) fn offered(&self) -> &[TaskId] {
        self.pending(self.offered_kind())
    }

    /// Dispatch takes the entry at `idx` out of the `is_reduce` queue.
    pub(crate) fn take_pending(&mut self, is_reduce: bool, idx: usize) -> Option<TaskId> {
        self.pending[usize::from(is_reduce)].remove(idx)
    }

    /// Records a new attempt of `task` on `node` — `speculative` if it
    /// duplicates a straggler — and returns its number.
    pub(crate) fn add_attempt(
        &mut self,
        task: TaskId,
        node: NodeId,
        now: SimTime,
        speculative: bool,
    ) -> u32 {
        self.tally.dispatch_log.push((task, node));
        self.tally.speculative_attempts += u32::from(speculative);
        self.tally.last_progress = now;
        self.update(task, now, |ts| {
            ts.attempts += 1;
            ts.running.push((ts.attempts, node, now));
            ts.attempts
        })
    }

    /// Removes the running attempts of `task` that `gone(attempt, node)`
    /// selects and returns them, fenced if `fence`. An incomplete task
    /// left with nothing running re-enters the pending queue.
    pub(crate) fn remove_attempts(
        &mut self,
        task: TaskId,
        now: SimTime,
        fence: bool,
        mut gone: impl FnMut(u32, NodeId) -> bool,
    ) -> Vec<Attempt> {
        let removed = self.update(task, now, |ts| {
            let mut removed = Vec::new();
            ts.running.retain(|&attempt| {
                let gone = gone(attempt.0, attempt.1);
                if gone {
                    removed.push(attempt);
                }
                !gone
            });
            removed
        });
        if fence {
            self.fenced
                .extend(removed.iter().map(|&(attempt, _, _)| (task, attempt)));
        }
        removed
    }

    /// Lifts the fence on `attempt` of `task`, if any: whether its report
    /// is a zombie's, to be dropped.
    pub(crate) fn unfence(&mut self, task: TaskId, attempt: u32) -> bool {
        self.fenced.remove(&(task, attempt))
    }

    /// The reporter's attempt failed and leaves. Returns the task's
    /// attempts so far.
    pub(crate) fn fail(&mut self, report: &TaskReport, now: SimTime) -> u32 {
        let reporter = (report.attempt, report.node);
        self.remove_attempts(report.task, now, false, |a, n| (a, n) == reporter);
        self.tally.failed_attempts += 1;
        self.task(report.task).attempts
    }

    /// Marks the reporter's task completed, folds the report's
    /// contribution (a shuffle keeps it as the map's output) and removes
    /// every running attempt. Returns the speculative siblings, for the
    /// caller to kill: they stop occupying (and billing) slots now, and a
    /// natural-completion race arrives as a stale report.
    pub(crate) fn complete(&mut self, report: &TaskReport, now: SimTime) -> Vec<Attempt> {
        let mut others = self.update(report.task, now, |ts| {
            ts.completed = true;
            ts.ran_on = Some(report.node);
            std::mem::take(&mut ts.running)
        });
        others.retain(|&(attempt, node, _)| (attempt, node) != (report.attempt, report.node));
        self.tally.last_progress = now;
        self.tally.task_times.push(report.metrics.elapsed);
        let kept = self.shuffle && !self.task(report.task).is_reduce;
        let output = MapOutput::of(report, kept);
        output.fold(&report.kv, &mut self.tally.totals);
        if kept {
            self.map_outputs.insert(report.task, output);
        }
        others
    }

    /// A completed map's output was lost with its node: the task is
    /// incomplete again and re-enters the pending queue, and its folded
    /// contribution comes back out, so re-execution keeps exactly-once
    /// accounting.
    pub(crate) fn lose_output(&mut self, task: TaskId, now: SimTime) {
        self.update(task, now, |ts| {
            ts.completed = false;
            ts.ran_on = None;
        });
        self.pending[0].push_back(task);
        if let Some(lost) = self.map_outputs.remove(&task) {
            lost.unfold(&mut self.tally.totals);
        }
    }

    /// Preemptive reclamation kills `attempt` of the incomplete map `task`
    /// on `node`: it leaves, fenced, and its runtime so far comes off this
    /// job's slot-seconds. Returns that runtime, for the beneficiary's
    /// [`bill_waste`](Self::bill_waste), or `None` if no such attempt runs.
    pub(crate) fn preempt(
        &mut self,
        task: TaskId,
        attempt: u32,
        node: NodeId,
        now: SimTime,
    ) -> Option<f64> {
        let ts = self.tasks.get(task.0 as usize)?;
        if ts.is_reduce || ts.completed {
            return None;
        }
        let killed = self.remove_attempts(task, now, true, |a, n| (a, n) == (attempt, node));
        let elapsed = now.since(killed.first()?.2).as_secs_f64();
        self.tally.slot_seconds -= elapsed;
        self.tally.preempted_attempts += 1;
        Some(elapsed)
    }

    /// Bills `seconds` of a preempted victim's discarded runtime to this
    /// job, which forced the kill: as slot-seconds, outside the timeline,
    /// and as wasted work.
    pub(crate) fn bill_waste(&mut self, seconds: f64) {
        self.tally.slot_seconds += seconds;
        self.tally.wasted_slot_seconds += seconds;
    }

    /// Integrates the current occupancy into `slot_seconds` up to `now`.
    pub(crate) fn settle(&mut self, now: SimTime) {
        let level = f64::from(self.tally.running_now);
        self.tally.slot_seconds += level * now.since(self.share_last_change).as_secs_f64();
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
        let before = (ts.active(), ts.running.len(), ts.completed);
        let out = change(ts);
        let after = (ts.active(), ts.running.len(), ts.completed);
        let tally = &mut self.tally;
        tally.running_tasks = tally.running_tasks + u32::from(after.0) - u32::from(before.0);
        let count = &mut tally.counts[usize::from(ts.is_reduce)];
        count.completed = count.completed + u32::from(after.2) - u32::from(before.2);
        if after.1 < before.1 && after.1 == 0 && !after.2 {
            self.pending[usize::from(ts.is_reduce)].push_back(task);
        }
        self.note_share(now, after.1 as i64 - before.1 as i64);
        if before != after {
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
        let tally = &mut self.tally;
        let level = tally.running_now as i64 + delta;
        debug_assert!(level >= 0, "{}: occupied-slot count underflow", self.job);
        tally.running_now = level.max(0) as u32;
        match tally.share_timeline.last_mut() {
            Some((t, level)) if *t == now => *level = tally.running_now,
            _ => tally.share_timeline.push((now, tally.running_now)),
        }
    }

    /// Debug-build recount of the derived counts against the task table,
    /// run after every mutation. Compiles to nothing in release builds.
    fn debug_check(&self) {
        let recount = || {
            let (mut running, mut active, mut counts) = (0, 0, [Count::default(); 2]);
            for t in &self.tasks {
                running += t.running.len() as u32;
                active += u32::from(t.active());
                let count = &mut counts[usize::from(t.is_reduce)];
                count.tasks += 1;
                count.completed += u32::from(t.completed);
            }
            (running, active, counts)
        };
        let tally = &self.tally;
        debug_assert_eq!(
            (tally.running_now, tally.running_tasks, tally.counts),
            recount(),
            "{}: (running_now, running_tasks, counts) diverged from the task table",
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
#[derive(Clone, Debug, Default, PartialEq)]
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
#[derive(Debug)]
struct MapOutput {
    node: NodeId,
    pairs: u64,
    /// Output size: shuffle partitioning input *and* the amount to take
    /// out of `Totals::bytes_output` on loss.
    bytes_output: u64,
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
    fn of(report: &TaskReport, kept: bool) -> Self {
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
    fn fold(&self, kv: &[(u64, u64)], totals: &mut Totals) {
        totals.bytes_read += self.bytes_read;
        totals.bytes_output += self.bytes_output;
        totals.local_reads += self.local_reads;
        totals.remote_reads += self.remote_reads;
        totals.digest_acc = totals.digest_acc.wrapping_add(self.digest.0);
        totals.digest_count += self.digest.1;
        totals.kv.extend_from_slice(kv);
    }

    /// Takes this contribution back out of `totals`.
    fn unfold(mut self, totals: &mut Totals) {
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
