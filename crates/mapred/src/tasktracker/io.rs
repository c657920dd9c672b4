//! The vocabulary the attempt phases share: the one outstanding-I/O table
//! and its entry type, the typed timer tag, and the two duration rules
//! (watchdog backoff, gray-failure stretch).

use std::collections::VecDeque;

use accelmr_des::SimDuration;
use accelmr_net::NodeId;

/// The outstanding-I/O table: every read segment, shuffle fetch, part-file
/// create and output block of this node, found by the tag its reply
/// carries.
///
/// Tags come from one per-TaskTracker counter, so the table is a window of
/// slots indexed by `tag - base`, where `base` is the oldest outstanding
/// tag: insert, remove and get are an index, never a hash. Removing the
/// oldest entry trims the window up to the next outstanding one.
///
/// Memory is the span of tags from the oldest outstanding entry to the
/// newest, not the live count: one entry that is never answered holds
/// every later slot. On the 1000-node churn terasort and the two-tenant
/// 64-node run the widest window any TaskTracker opens equals the most
/// entries any holds at once (12,000 and 256).
#[derive(Default)]
pub(super) struct IoTable {
    /// Tag of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<Io>>,
}

impl IoTable {
    /// Enters `io` under `tag`. The tag may lie below the window: `retrack`
    /// puts an entry back after the window was trimmed past it.
    pub fn insert(&mut self, tag: u64, io: Io) {
        if self.slots.is_empty() {
            self.base = tag;
        }
        while tag < self.base {
            self.slots.push_front(None);
            self.base -= 1;
        }
        let i = (tag - self.base) as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        let displaced = self.slots[i].replace(io);
        debug_assert!(displaced.is_none(), "tag {tag} entered twice");
    }

    /// Takes the entry of `tag` out, if it is outstanding.
    pub fn remove(&mut self, tag: u64) -> Option<Io> {
        let i = usize::try_from(tag.checked_sub(self.base)?).ok()?;
        let io = self.slots.get_mut(i)?.take()?;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(io)
    }

    /// `true` when no I/O is outstanding.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Every outstanding entry, oldest tag first.
    pub fn values(&self) -> impl Iterator<Item = &Io> {
        self.slots.iter().flatten()
    }
}

/// One outstanding I/O, keyed in the table by the tag its reply (and its
/// watchdog, when hardened) will carry. `(slot, gen)` name the attempt it
/// belongs to; the entry outlives a killed attempt until its reply or
/// watchdog touches it.
///
/// A reducer holds one entry per fetch (thousands), so the size is an
/// end-to-end memory figure: keep it at 32 bytes (an empty table slot,
/// `None`, costs the same).
#[derive(Clone, Copy, Debug)]
pub(super) struct Io {
    pub slot: u32,
    pub gen: u32,
    pub kind: IoKind,
}

#[derive(Clone, Copy, Debug)]
pub(super) enum IoKind {
    Read(Read),
    Fetch(Fetch),
    /// The part file's create, from `CreateFile` to `CreateAck`.
    Create,
    /// An output block, from `AllocBlock` to `WriteAck`.
    Write {
        len: u64,
    },
}

/// Segment `seg` of `record`, asked of the `replica_tried`-th replica in
/// the reader's preference order. The segment's geometry is re-derived
/// from `(record, seg)` when needed.
#[derive(Clone, Copy, Debug)]
pub(super) struct Read {
    pub record: u64,
    pub seg: u32,
    pub replica_tried: u32,
}

/// A shuffle fetch, with what a re-issue needs: the source and size
/// survive retries, `retries` drives the backoff and the give-up bar.
#[derive(Clone, Copy, Debug)]
pub(super) struct Fetch {
    pub from: NodeId,
    pub bytes: u64,
    pub retries: u32,
}

/// The attempt steps that are paced by a timer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Step {
    /// Task launch (or per-node kernel setup) is over: begin the work.
    Start = 1,
    /// A record's (or unit batch's) map computation is over.
    Compute = 2,
    /// Teardown is over: report success.
    Cleanup = 3,
    /// The reduce merge is over.
    Merge = 4,
}

/// A TaskTracker timer, carried through the engine as one `u64`: kind in
/// the top byte, then either a slot (16 bits) and generation (low 32), or
/// an I/O tag (the `next_tag` counter, far below 2^56).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Tick {
    Heartbeat,
    Step(Step, u32, u32),
    /// An I/O watchdog: no timer is ever cancelled, so whether it still
    /// matters is decided by whether its tag is still in the table.
    Watchdog(u64),
}

const KIND_WATCHDOG: u64 = 5;
const IO_TAG_MASK: u64 = (1 << 56) - 1;

impl Tick {
    #[inline]
    pub fn pack(self) -> u64 {
        match self {
            Tick::Heartbeat => 0,
            Tick::Step(step, slot, gen) => {
                debug_assert!(slot <= 0xffff);
                ((step as u64) << 56) | ((slot as u64) << 40) | gen as u64
            }
            Tick::Watchdog(io_tag) => {
                debug_assert!(io_tag <= IO_TAG_MASK);
                (KIND_WATCHDOG << 56) | io_tag
            }
        }
    }

    #[inline]
    pub fn unpack(tag: u64) -> Tick {
        let step = match tag >> 56 {
            0 => return Tick::Heartbeat,
            1 => Step::Start,
            2 => Step::Compute,
            3 => Step::Cleanup,
            4 => Step::Merge,
            _ => return Tick::Watchdog(tag & IO_TAG_MASK),
        };
        Tick::Step(step, ((tag >> 40) & 0xffff) as u32, tag as u32)
    }
}

/// Timeout multiplier applied per retry of the same fetch/read.
const IO_RETRY_BACKOFF: f64 = 2.0;

/// `base * IO_RETRY_BACKOFF^n`, the exponential-backoff schedule for I/O
/// watchdogs.
#[inline]
pub(super) fn backoff(base: SimDuration, n: u32) -> SimDuration {
    if n == 0 {
        return base;
    }
    SimDuration::from_nanos((base.as_nanos() as f64 * IO_RETRY_BACKOFF.powi(n as i32)) as u64)
}

/// Stretches a compute duration by the node's gray-failure factor. The
/// `factor == 1.0` path must return `d` untouched (no f64 round trip) so
/// fault-free runs arm bit-identical timers and golden traces hold.
#[inline]
pub(super) fn degrade(d: SimDuration, factor: f64) -> SimDuration {
    if factor >= 1.0 {
        return d;
    }
    SimDuration::from_nanos((d.as_nanos() as f64 / factor) as u64)
}
