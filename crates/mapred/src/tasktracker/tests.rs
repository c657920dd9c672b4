//! One TaskTracker under the microscope: a real fabric and DFS around it,
//! a sink where the JobTracker would be, and the test posting assignments,
//! kills and faults between [`Sim::step`]s while it reads the tracker's
//! state through [`Sim::actor_ref`].

use std::sync::Arc;

use accelmr_des::Xoshiro256;
use accelmr_dfs::msgs::{FileView, PreloadDone, PreloadFile};
use accelmr_dfs::{deploy_dfs, DfsConfig};
use accelmr_net::{AbortNode, Fabric, NetConfig, SetNodeBandwidth};

use super::*;
use crate::job::OutputSink;
use crate::kernel::{FixedCostKernel, NullEnv};

const MB: u64 = 1 << 20;
const WORKERS: u32 = 3;

/// Preloads the input file, keeps its block map, and swallows everything
/// the TaskTracker sends its JobTracker.
struct Sink {
    namenode: ActorId,
    view: Option<FileView>,
}

impl Actor for Sink {
    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Start => {
                let reply = ctx.self_id();
                ctx.send(
                    self.namenode,
                    PreloadFile {
                        path: "/in".into(),
                        len: 12 * MB,
                        block_size: Some(MB),
                        replication: Some(2),
                        seed: 5,
                        reply,
                    },
                );
            }
            Event::Msg { msg, .. } => {
                if let Some(done) = msg.peek::<PreloadDone>() {
                    self.view = Some(done.view.clone());
                }
            }
            Event::Timer { .. } => {}
        }
    }
}

struct World {
    sim: Sim,
    fabric: ActorId,
    tt: ActorId,
    view: FileView,
}

/// Head node plus [`WORKERS`] DataNodes, and one TaskTracker on node 1.
fn world(seed: u64, cfg: MrConfig) -> World {
    let mut sim = Sim::new(seed);
    let fabric = sim.spawn(Box::new(Fabric::new(
        NetConfig::default(),
        WORKERS as usize + 1,
    )));
    let net = NetHandle { fabric };
    let workers: Vec<NodeId> = (1..=WORKERS).map(NodeId).collect();
    let dfs = deploy_dfs(
        &mut sim,
        net,
        &DfsConfig::default(),
        NodeId::HEAD,
        &workers,
        false,
    );
    let sink = sim.spawn(Box::new(Sink {
        namenode: dfs.namenode,
        view: None,
    }));
    let tracker = TaskTracker::new(
        cfg,
        net,
        dfs,
        NodeId(1),
        NodeId::HEAD,
        sink,
        Box::new(NullEnv),
    );
    let tt = sim.spawn(Box::new(tracker));
    let view = loop {
        assert!(sim.step(), "preload never completed");
        if let Some(view) = &sim.actor_ref::<Sink>(sink).expect("sink").view {
            break view.clone();
        }
    };
    World {
        sim,
        fabric,
        tt,
        view,
    }
}

impl World {
    fn tracker(&self) -> &TaskTracker {
        self.sim.actor_ref::<TaskTracker>(self.tt).expect("tracker")
    }

    fn assign(&mut self, task: u32, work: TaskWork, output: OutputSink) {
        let descriptor = TaskDescriptor {
            job: JobId(0),
            task: TaskId(task),
            attempt: 0,
            work,
            kernel: Arc::new(FixedCostKernel {
                per_record: SimDuration::from_millis(20),
                output_ratio_percent: 100,
                ..FixedCostKernel::default()
            }),
            output,
            reduce_merge_time: Some(SimDuration::from_millis(10)),
        };
        self.sim.post(self.tt, Box::new(AssignTask { descriptor }));
    }

    fn kill(&mut self, task: u32) {
        let kill = KillTask {
            job: JobId(0),
            task: TaskId(task),
            attempt: 0,
        };
        self.sim.post(self.tt, Box::new(kill));
    }

    /// Steps until `done` holds of the tracker.
    fn step_until(&mut self, what: &str, done: impl Fn(&TaskTracker) -> bool) {
        while !done(self.tracker()) {
            assert!(self.sim.step(), "ran dry before {what}");
        }
    }

    /// Every live attempt's own counts of what it waits for equal a
    /// recount of the table entries that name it.
    fn check_table(&self) {
        let tt = self.tracker();
        for run in tt.slots.iter().flatten() {
            let count =
                |pick: fn(&IoKind) -> bool| tt.io_entries(run).filter(|io| pick(&io.kind)).count();
            let segments = run.feed.inflight.as_ref().map_or(0, |&(_, left, _)| left);
            assert_eq!(
                segments,
                count(|k| matches!(k, IoKind::Read(_))),
                "segments in flight"
            );
            assert_eq!(
                run.shuffle.fetches_left,
                count(|k| matches!(k, IoKind::Fetch(_))),
                "fetches left"
            );
            assert_eq!(
                run.out.outstanding as usize,
                count(|k| matches!(k, IoKind::Write { .. })),
                "writes outstanding"
            );
            assert_eq!(
                (run.out.create_requested && !run.out.created) as usize,
                count(|k| matches!(k, IoKind::Create)),
                "create outstanding"
            );
        }
    }
}

fn dfs_sink() -> OutputSink {
    OutputSink::Dfs {
        path: "/out".into(),
        replication: None,
    }
}

fn reduce_of(fetches: Vec<(NodeId, u64)>) -> TaskWork {
    TaskWork::Reduce {
        fetches,
        pairs: 0,
        write_output: true,
        output_path: "/out".into(),
    }
}

#[test]
fn io_entry_stays_compact() {
    // A reducer holds thousands of entries; see `Io`.
    assert!(std::mem::size_of::<Io>() <= 32);
    assert!(std::mem::size_of::<Option<Io>>() <= 32, "a table slot");
}

fn write_io(len: u64) -> Io {
    Io {
        slot: 0,
        gen: 1,
        kind: IoKind::Write { len },
    }
}

fn len_of(io: Option<&Io>) -> Option<u64> {
    match io?.kind {
        IoKind::Write { len } => Some(len),
        _ => None,
    }
}

#[test]
fn io_table_finds_an_entry_that_outlives_many_later_tags() {
    let mut t = IoTable::default();
    t.insert(1, write_io(1));
    for tag in 2..10_002 {
        t.insert(tag, write_io(tag));
        assert_eq!(len_of(t.remove(tag).as_ref()), Some(tag));
    }
    assert_eq!(t.values().count(), 1);
    assert_eq!(len_of(t.remove(1).as_ref()), Some(1));
    assert!(t.is_empty(), "removing the oldest entry trims the window");
}

#[test]
fn io_table_takes_back_a_tag_the_window_was_trimmed_past() {
    // `with_io` takes tag 5 out (the oldest: the window empties), the step
    // tracks a new I/O under tag 9, then `retrack`s 5 below the window.
    let mut t = IoTable::default();
    t.insert(5, write_io(5));
    t.insert(6, write_io(6));
    let io = t.remove(5).expect("outstanding");
    assert_eq!(len_of(t.remove(6).as_ref()), Some(6));
    assert!(t.is_empty());
    t.insert(9, write_io(9));
    t.insert(5, io);
    let order: Vec<_> = t.values().map(|io| len_of(Some(io))).collect();
    assert_eq!(order, [Some(5), Some(9)]);
    // Removed, superseded, never minted, or below the window: all miss.
    assert_eq!(len_of(t.remove(5).as_ref()), Some(5));
    for tag in [5, 6, 7, 10, 0, u64::MAX] {
        assert!(t.remove(tag).is_none(), "tag {tag}");
    }
    assert_eq!(len_of(t.remove(9).as_ref()), Some(9));
    assert!(t.is_empty(), "drained");
}

#[test]
fn ticks_round_trip_through_their_packed_form() {
    let ticks = [
        Tick::Heartbeat,
        Tick::Step(Step::Start, 0, 1),
        Tick::Step(Step::Compute, 0xffff, u32::MAX),
        Tick::Step(Step::Cleanup, 7, 0x1000_0003),
        Tick::Step(Step::Merge, 1, 0),
        Tick::Watchdog(1),
        Tick::Watchdog((1 << 56) - 1),
    ];
    for tick in ticks {
        assert_eq!(Tick::unpack(tick.pack()), tick);
    }
}

/// An attempt killed inside its create RPC's round trip, whose slot is
/// re-assigned before the ack lands: the ack names the killed attempt's
/// tag, so it is dropped, and the newcomer waits for the ack of its own
/// create before it allocates blocks.
#[test]
fn create_ack_of_a_killed_attempt_is_not_handed_to_its_successor() {
    let cfg = MrConfig {
        map_slots_per_node: 1,
        ..MrConfig::default()
    };
    let mut w = world(7, cfg);
    let creating = |tt: &TaskTracker| {
        tt.node
            .io
            .values()
            .any(|io| matches!(io.kind, IoKind::Create))
    };
    let fetch = vec![(NodeId(2), 4 * MB)];
    w.assign(1, reduce_of(fetch.clone()), dfs_sink());
    w.step_until("first create request", creating);
    let first_gen = w.tracker().slots[0].as_ref().expect("first attempt").gen;

    // Kill and re-assign while the create is on the wire.
    w.kill(1);
    w.assign(2, reduce_of(fetch), dfs_sink());
    w.step_until("first ack", |tt| !creating(tt));
    let second = w.tracker().slots[0].as_ref().expect("second attempt");
    assert_ne!(second.gen, first_gen);
    assert_eq!(second.desc.task, TaskId(2));
    assert!(!second.out.created, "the killed attempt's ack was credited");
    assert_eq!(w.sim.stats().counter("dfs.files_created"), 1);

    // The successor asks for its own file, and allocates no block before
    // that ack is in.
    w.step_until("second create request", creating);
    while creating(w.tracker()) {
        let second = w.tracker().slots[0].as_ref().expect("second attempt");
        assert_eq!(second.out.outstanding, 0, "allocated before its own ack");
        assert!(w.sim.step());
    }
    w.step_until("second attempt done", |tt| tt.slots[0].is_none());
    assert_eq!(w.sim.stats().counter("dfs.blocks_allocated"), 1);
    assert_eq!(w.sim.stats().counter("mr.tasks_ok"), 1);
}

/// `write_block` on a pipeline whose first DataNode is gone fails the
/// attempt on the spot and takes the block's entry out of the table.
#[test]
fn vanished_write_pipeline_fails_the_attempt() {
    let mut w = world(8, MrConfig::default());
    w.assign(1, reduce_of(vec![(NodeId(2), MB)]), dfs_sink());
    w.step_until("block allocation request", |tt| {
        tt.slots[0].as_ref().is_some_and(|r| r.out.outstanding == 1)
    });
    // The whole cluster leaves the registry before the allocation lands.
    for n in 1..=WORKERS {
        w.tracker().node.dfs.datanodes.remove(NodeId(n));
    }
    w.step_until("attempt gone", |tt| tt.slots[0].is_none());
    assert_eq!(w.sim.stats().counter("mr.tasks_failed"), 1);
    assert!(w.tracker().node.io.is_empty());
}

/// Random assign / kill / abort / partition sequences at one hardened
/// TaskTracker: after every event the table agrees with every live
/// attempt (`check_table`), and every attempt that finishes `ok` does so
/// with no entry left (the debug assertion in `finish_task`).
#[test]
fn io_table_agrees_with_live_attempts_under_random_interleavings() {
    let mut ok = 0;
    let mut failed = 0;
    let mut watchdogs = 0;
    for seed in 0..12u64 {
        let cfg = MrConfig {
            map_slots_per_node: 3,
            read_timeout: Some(SimDuration::from_millis(400)),
            shuffle_fetch_timeout: Some(SimDuration::from_millis(400)),
            io_max_retries: 2,
            ..MrConfig::hardened()
        };
        let mut w = world(100 + seed, cfg);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut next_task = 0u32;
        let mut partitioned: Option<NodeId> = None;
        for _ in 0..400 {
            let other = NodeId(2 + rng.next_below(WORKERS as u64 - 1) as u32);
            match rng.next_below(10) {
                0..=2 => {
                    next_task += 1;
                    let output = if rng.next_below(2) == 0 {
                        dfs_sink()
                    } else {
                        OutputSink::Discard
                    };
                    let work = match rng.next_below(3) {
                        0 => TaskWork::MapUnits {
                            units: 1 + rng.next_below(1_000_000),
                            index: next_task as u64,
                        },
                        1 => {
                            // Records of 1.5 blocks: most span two.
                            let start = rng.next_below(8) * MB;
                            TaskWork::MapRange {
                                path: "/in".into(),
                                file_seed: 5,
                                start,
                                end: start + (1 + rng.next_below(4)) * MB,
                                record_bytes: 3 * MB / 2,
                                blocks: w.view.blocks.clone(),
                            }
                        }
                        _ => reduce_of(
                            (1..=WORKERS)
                                .map(|n| (NodeId(n), rng.next_below(3) * MB))
                                .collect(),
                        ),
                    };
                    w.assign(next_task, work, output);
                }
                3 => w.kill(1 + rng.next_below(next_task.max(1) as u64) as u32),
                4 => w.sim.post(w.fabric, Box::new(AbortNode { node: other })),
                5 => {
                    // Partition one node, or heal the partitioned one.
                    let (node, factor) = match partitioned.take() {
                        Some(node) => (node, 1.0),
                        None => {
                            partitioned = Some(other);
                            (other, 0.0)
                        }
                    };
                    let change = SetNodeBandwidth { node, factor };
                    w.sim.post(w.fabric, Box::new(change));
                }
                _ => {}
            }
            for _ in 0..1 + rng.next_below(40) {
                assert!(w.sim.step());
                w.check_table();
            }
        }
        ok += w.sim.stats().counter("mr.tasks_ok");
        failed += w.sim.stats().counter("mr.tasks_failed");
        watchdogs +=
            w.sim.stats().counter("mr.attempt_retries") + w.sim.stats().counter("dfs.read_retries");
    }
    // The walk reached every way an attempt can end, and the watchdogs.
    assert!(
        ok > 50 && failed > 5 && watchdogs > 5,
        "{ok} ok, {failed} failed, {watchdogs} watchdogs"
    );
}

/// A read watchdog that fires after its attempt was killed finds no
/// attempt to fail over for, so it counts no DFS read retry.
#[test]
fn watchdog_of_a_killed_attempts_read_counts_no_retry() {
    // Far shorter than any segment read: the watchdog fires first.
    let timeout = SimDuration::from_micros(1);
    let cfg = MrConfig {
        read_timeout: Some(timeout),
        ..MrConfig::hardened()
    };
    let mut w = world(9, cfg);
    let work = TaskWork::MapRange {
        path: "/in".into(),
        file_seed: 5,
        start: 0,
        end: MB,
        record_bytes: MB,
        blocks: w.view.blocks.clone(),
    };
    w.assign(1, work, OutputSink::Discard);
    // A map without write-back: its first table entry is its segment read.
    w.step_until("segment read issued", |tt| !tt.node.io.is_empty());
    w.kill(1);
    let past_watchdog = w.sim.now() + timeout;
    while w.sim.now() <= past_watchdog {
        assert!(w.sim.step());
    }
    assert!(w.tracker().node.io.is_empty(), "the watchdog ran");
    assert_eq!(w.sim.stats().counter("dfs.read_retries"), 0);
    assert_eq!(w.sim.stats().counter("mr.read_retries"), 0);
}
