//! The Cell BE machine: an event-driven model of SPU offload execution.
//!
//! One [`CellMachine`] is one Cell processor. Its `run_data` method executes
//! the paper's "direct" native library. The PPE splits an input buffer into
//! aligned blocks (4 KB in the paper) and stripes them over the SPEs; each
//! block is then staged (PPE dispatch), transferred (MFC DMA-get into one of
//! the SPE's two local-store buffers), computed in place, and transferred
//! back (DMA-put). Each SPE double-buffers: it fetches block *i+1* and puts
//! block *i−1* while computing block *i*. DMA requests contend for the
//! shared memory interface, which a single-server fluid queue models, and
//! the MFC queue depth is enforced per SPE. The local-store budget is
//! [`check_block_size`], checked once before a run.
//!
//! In **materialized** mode the kernel really executes on bytes that
//! traveled through the local-store buffers; in **virtual** mode only
//! timing is computed. Both modes take the identical event path, so timing
//! can never diverge between them (a unit test pins this).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::convert::Infallible;
use std::ops::Range;

use accelmr_des::{SimDuration, SimTime};

use crate::config::{
    check_block_size, cycles, CellConfig, CellConfigError, BUS_BYTES_PER_SEC, CONTEXT_CREATE,
    DISPATCH_OVERHEAD, DMA_LATENCY, DMA_MAX_TRANSFER, MFC_QUEUE_DEPTH, N_SPES, SESSION_START,
    USABLE_LS_BYTES,
};
use crate::kernel::{ComputeKernel, DataKernel};

/// Input to a data-parallel offload run.
pub enum DataInput<'a> {
    /// Timing-only run over `len` virtual bytes.
    Virtual(u64),
    /// Real bytes: on a materialized machine the run is functional and
    /// the kernel transforms a copy of them; otherwise timing-only.
    Real(&'a [u8]),
}

impl DataInput<'_> {
    /// Input length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            DataInput::Virtual(n) => *n,
            DataInput::Real(b) => b.len() as u64,
        }
    }

    /// `true` for zero-length inputs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What one offload session did and how long it took.
#[derive(Clone, Debug)]
pub struct OffloadReport {
    /// Wall time of the session, including start-up costs.
    pub elapsed: SimDuration,
    /// Start-up portion (context creation if cold + session start).
    pub startup: SimDuration,
    /// Number of SPU work blocks processed.
    pub blocks: u64,
    /// Bytes DMA'd into local stores.
    pub bytes_in: u64,
    /// Bytes DMA'd back to main memory.
    pub bytes_out: u64,
    /// MFC transfer commands issued (blocks may split into ≤16 KB chunks).
    pub dma_requests: u64,
    /// Peak in-flight MFC commands observed on any single SPE.
    pub peak_mfc_queue: usize,
    /// Per-SPE compute-busy time.
    pub spe_busy: Vec<SimDuration>,
    /// Total time the memory interface was transferring.
    pub bus_busy: SimDuration,
    /// Transformed bytes (functional runs only: a materialized machine
    /// given [`DataInput::Real`]).
    pub output: Option<Vec<u8>>,
    /// Per-SPE results of a compute run (e.g. Pi inside-counts).
    pub unit_results: Vec<u64>,
}

impl OffloadReport {
    /// A session that has paid `startup` and done nothing else yet. Every
    /// report starts here; the runs add what they do.
    fn started(startup: SimDuration) -> Self {
        OffloadReport {
            elapsed: startup,
            startup,
            blocks: 0,
            bytes_in: 0,
            bytes_out: 0,
            dma_requests: 0,
            peak_mfc_queue: 0,
            spe_busy: vec![SimDuration::ZERO; N_SPES],
            bus_busy: SimDuration::ZERO,
            output: None,
            unit_results: Vec::new(),
        }
    }

    /// Effective throughput in bytes/second over input bytes.
    pub fn throughput_bps(&self) -> f64 {
        if self.elapsed == SimDuration::ZERO {
            return 0.0;
        }
        self.bytes_in as f64 / self.elapsed.as_secs_f64()
    }

    /// Mean SPE utilization over the session (0..=1).
    pub fn mean_spe_utilization(&self) -> f64 {
        if self.spe_busy.is_empty() || self.elapsed == SimDuration::ZERO {
            return 0.0;
        }
        let total: f64 = self.spe_busy.iter().map(|d| d.as_secs_f64()).sum();
        total / (self.spe_busy.len() as f64 * self.elapsed.as_secs_f64())
    }
}

/// One simulated Cell processor. Contexts stay warm across sessions, so the
/// first offload pays [`CONTEXT_CREATE`] and later ones only
/// [`SESSION_START`] — exactly the effect behind the small-N shape of the
/// paper's Figure 6.
pub struct CellMachine {
    /// Each SPE's two local-store data buffers, each holding the block
    /// last DMA'd into it, with room for the largest block
    /// [`check_block_size`] accepts. Only a materialized machine has them.
    local_stores: Vec<[Vec<u8>; 2]>,
    warm: bool,
}

impl CellMachine {
    /// Builds a machine. `materialized` selects functional simulation.
    pub fn new(_: CellConfig, materialized: bool) -> Result<Self, Infallible> {
        let spes = if materialized { N_SPES } else { 0 };
        let buffer = || Vec::with_capacity(USABLE_LS_BYTES / 4);
        Ok(CellMachine {
            local_stores: (0..spes).map(|_| [buffer(), buffer()]).collect(),
            warm: false,
        })
    }

    /// Pays the context-creation cost up front (the single-node bandwidth
    /// harness does this; the paper's Figure 2 numbers average warmed runs).
    pub fn warm_up(&mut self) -> SimDuration {
        if self.warm {
            SimDuration::ZERO
        } else {
            self.warm = true;
            CONTEXT_CREATE
        }
    }

    /// Starts one offload session and returns its start-up cost: context
    /// creation if the machine is cold, plus the session start. Every run
    /// pays this; a caller that models a session's body in closed form
    /// calls it directly.
    pub fn start_session(&mut self) -> SimDuration {
        self.warm_up() + SESSION_START
    }

    /// Runs a data-parallel kernel over `input` in `block_size`-byte blocks.
    pub fn run_data(
        &mut self,
        input: DataInput<'_>,
        kernel: &dyn DataKernel,
        block_size: usize,
    ) -> Result<OffloadReport, CellConfigError> {
        self.run_data_at(input, kernel, block_size, 0)
    }

    /// Like [`CellMachine::run_data`], but kernel `exec` calls receive
    /// absolute offsets shifted by `base_offset` — required when the input
    /// is one record of a larger logical stream (CTR counter derivation).
    pub fn run_data_at(
        &mut self,
        input: DataInput<'_>,
        kernel: &dyn DataKernel,
        block_size: usize,
        base_offset: u64,
    ) -> Result<OffloadReport, CellConfigError> {
        check_block_size(block_size)?;
        let startup = self.start_session();
        let len = input.len();
        // Functional or timing-only is decided here, once: a functional run
        // needs real bytes and local stores to hold them. Both then take the
        // identical event path.
        let bytes = match input {
            DataInput::Real(src) if !self.local_stores.is_empty() => Some(Bytes {
                src,
                // The DMA-puts cover every block (`run` asserts that all
                // complete), so the pooled image's old bytes never show.
                out: accelmr_kernels::pool::take(src.len()),
                local_stores: &mut self.local_stores,
                base_offset,
            }),
            _ => None,
        };
        let block_size = block_size as u64;
        let run = Pipeline {
            kernel,
            len,
            block_size,
            n_blocks: len.div_ceil(block_size),
            // Stripe assignment: block i -> SPE i % N_SPES (the paper's
            // round-robin "sent to the SPUs" distribution).
            spes: (0..N_SPES as u64)
                .map(|spe| SpeRun {
                    next_block: spe,
                    ready: VecDeque::new(),
                    computing: false,
                    free_buffers: vec![0, 1],
                    inflight_mfc: 0,
                })
                .collect(),
            bus_free_at: SimTime::ZERO + startup,
            queue: BinaryHeap::new(),
            seq: 0,
            report: OffloadReport::started(startup),
            bytes,
        };
        Ok(run.run(SimTime::ZERO + startup))
    }

    /// Runs a compute-parallel kernel: `units` split evenly across SPEs.
    pub fn run_compute(&mut self, units: u64, kernel: &dyn ComputeKernel) -> OffloadReport {
        let startup = self.start_session();
        let mut report = OffloadReport::started(startup);
        let n = N_SPES as u64;
        let mut max_busy = SimDuration::ZERO;
        for (s, busy) in report.spe_busy.iter_mut().enumerate() {
            let my_units = units / n + u64::from((s as u64) < units % n);
            let mut inside = 0;
            if my_units > 0 {
                *busy = DISPATCH_OVERHEAD + cycles(kernel.cycles_per_unit() * my_units as f64);
                inside = kernel.exec(s, my_units);
            }
            max_busy = max_busy.max(*busy);
            report.unit_results.push(inside);
        }
        report.elapsed = startup + max_busy;
        report
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[expect(
    clippy::enum_variant_names,
    reason = "each variant names the pipeline stage that is done"
)]
enum Ev {
    FetchDone { spe: usize, block: u64, buf: usize },
    ComputeDone { spe: usize, block: u64, buf: usize },
    PutDone { spe: usize, buf: usize },
}

/// One SPE's side of the pipeline.
struct SpeRun {
    /// Next block of this SPE's stripe (`spe + k·N_SPES`) to fetch.
    next_block: u64,
    /// Fetched blocks awaiting compute, with the buffer each landed in.
    ready: VecDeque<(u64, usize)>,
    computing: bool,
    free_buffers: Vec<usize>,
    inflight_mfc: usize,
}

/// The bytes of a functional run: the input image, the output image, and
/// the SPEs' local-store buffers every block crosses on its way.
struct Bytes<'a> {
    src: &'a [u8],
    out: Vec<u8>,
    local_stores: &'a mut [[Vec<u8>; 2]],
    base_offset: u64,
}

/// The state of one `run_data` session: the SPE table, the memory
/// interface, the completion queue and the report its counters
/// accumulate in.
struct Pipeline<'a> {
    kernel: &'a dyn DataKernel,
    len: u64,
    block_size: u64,
    n_blocks: u64,
    spes: Vec<SpeRun>,
    /// When the shared memory interface next falls idle.
    bus_free_at: SimTime,
    /// Pending completions; `(at, seq)` decides the pop order, so the
    /// order of pushes is part of the model.
    queue: BinaryHeap<Reverse<(SimTime, u64, Ev)>>,
    seq: u64,
    /// `blocks` counts completed puts; `elapsed` is the last event's time.
    report: OffloadReport,
    bytes: Option<Bytes<'a>>,
}

impl Pipeline<'_> {
    /// Issues every SPE's first fetches at `t0`, then handles completions
    /// until none are pending, and returns the session's report.
    fn run(mut self, t0: SimTime) -> OffloadReport {
        for spe in 0..self.spes.len() {
            self.fetch(spe, t0);
        }
        while let Some(Reverse((now, _, ev))) = self.queue.pop() {
            self.report.elapsed = now - SimTime::ZERO;
            self.handle(now, ev);
        }
        // A stalled pipeline would hand back `output` with stale bytes.
        assert_eq!(
            self.report.blocks, self.n_blocks,
            "pipeline stalled: not all blocks completed"
        );
        self.report.output = self.bytes.map(|b| b.out);
        self.report
    }

    /// Handles one completion at `now`.
    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::FetchDone { spe, block, buf } => {
                self.spes[spe].inflight_mfc -= 1;
                // Functional: the bytes land in the local store now.
                let range = self.block_range(block);
                if let Some(b) = &mut self.bytes {
                    let ls = &mut b.local_stores[spe][buf];
                    ls.clear();
                    ls.extend_from_slice(&b.src[range]);
                }
                self.spes[spe].ready.push_back((block, buf));
                self.compute(spe, now);
            }
            Ev::ComputeDone { spe, block, buf } => {
                self.spes[spe].computing = false;
                // Functional: execute in the local store, then copy the
                // result out into the output image (the DMA put below).
                let range = self.block_range(block);
                let len = range.len() as u64;
                if let Some(b) = &mut self.bytes {
                    let data = &mut b.local_stores[spe][buf];
                    self.kernel.exec(b.base_offset + range.start as u64, data);
                    b.out[range].copy_from_slice(data);
                }
                let done = self.dma(spe, now, len);
                self.report.bytes_out += len;
                self.push(done, Ev::PutDone { spe, buf });
                self.compute(spe, now);
            }
            Ev::PutDone { spe, buf } => {
                let s = &mut self.spes[spe];
                s.inflight_mfc -= 1;
                s.free_buffers.push(buf);
                self.report.blocks += 1;
                self.fetch(spe, now);
            }
        }
    }

    /// Byte range of block `b` in the input (the last block may be short).
    fn block_range(&self, b: u64) -> Range<usize> {
        let start = b * self.block_size;
        start as usize..(start + self.block_size).min(self.len) as usize
    }

    fn push(&mut self, at: SimTime, ev: Ev) {
        self.seq += 1;
        self.queue.push(Reverse((at, self.seq, ev)));
    }

    /// Queues one DMA of `len` bytes on `spe`'s MFC at `at`, as ≤16 KB
    /// commands. The shared memory interface serves transfers one at a
    /// time in arrival order; the fixed request latency does not occupy
    /// it. Returns the completion instant.
    fn dma(&mut self, spe: usize, at: SimTime, len: u64) -> SimTime {
        let s = &mut self.spes[spe];
        s.inflight_mfc += 1;
        self.report.peak_mfc_queue = self.report.peak_mfc_queue.max(s.inflight_mfc);
        self.report.dma_requests += len.div_ceil(DMA_MAX_TRANSFER as u64);
        let occupancy = SimDuration::from_secs_f64(len as f64 / BUS_BYTES_PER_SEC);
        self.bus_free_at = at.max(self.bus_free_at) + occupancy;
        self.report.bus_busy += occupancy;
        self.bus_free_at + DMA_LATENCY
    }

    /// Fetches `spe`'s next stripe blocks while it has a free buffer and
    /// MFC queue room.
    fn fetch(&mut self, spe: usize, now: SimTime) {
        loop {
            let s = &mut self.spes[spe];
            if s.next_block >= self.n_blocks
                || s.free_buffers.is_empty()
                || s.inflight_mfc >= MFC_QUEUE_DEPTH
            {
                return;
            }
            let block = s.next_block;
            s.next_block += N_SPES as u64;
            let buf = s.free_buffers.pop().expect("checked non-empty");
            let len = self.block_range(block).len() as u64;
            self.report.bytes_in += len;
            let done = self.dma(spe, now + DISPATCH_OVERHEAD, len);
            self.push(done, Ev::FetchDone { spe, block, buf });
        }
    }

    /// Starts computing `spe`'s oldest fetched block if the SPU is idle.
    fn compute(&mut self, spe: usize, now: SimTime) {
        let s = &mut self.spes[spe];
        if s.computing {
            return;
        }
        let Some((block, buf)) = s.ready.pop_front() else {
            return;
        };
        s.computing = true;
        let len = self.block_range(block).len();
        let dur = cycles(self.kernel.cycles_per_byte() * len as f64);
        self.report.spe_busy[spe] += dur;
        self.push(now + dur, Ev::ComputeDone { spe, block, buf });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{AesCtrSpeKernel, IdentityKernel, PiSpeKernel};
    use accelmr_kernels::aes::modes::ctr_xor;
    use accelmr_kernels::{fill_deterministic, Aes128, AesImpl};
    use std::sync::Arc;

    fn machine(materialized: bool) -> CellMachine {
        CellMachine::new(CellConfig::default(), materialized).unwrap()
    }

    #[test]
    fn functional_run_produces_correct_ciphertext() {
        let mut m = machine(true);
        let key = Arc::new(Aes128::new(b"machine-test-key"));
        let kernel = AesCtrSpeKernel::new(key.clone(), 5);

        let mut input = vec![0u8; 300_000]; // spans many 4K blocks + tail
        fill_deterministic(9, 0, &mut input);
        let report = m.run_data(DataInput::Real(&input), &kernel, 4096).unwrap();

        let mut expect = input.clone();
        ctr_xor(&key, AesImpl::Scalar, 5, 0, &mut expect);
        assert_eq!(report.output.as_deref(), Some(expect.as_slice()));
        assert_eq!(report.blocks, 300_000u64.div_ceil(4096));
        assert_eq!(report.bytes_in, 300_000);
        assert_eq!(report.bytes_out, 300_000);
    }

    #[test]
    fn functional_output_is_the_kernels_not_the_input() {
        // Plaintext coming back from an encrypting run is the silent
        // failure: the output must be exactly what the kernel made of it.
        let mut m = machine(true);
        let mut input = vec![0u8; 70_000]; // 4 KB blocks + a tail
        fill_deterministic(21, 0, &mut input);
        let run = |m: &mut CellMachine, kernel: &dyn DataKernel| {
            m.run_data(DataInput::Real(&input), kernel, 4096)
                .unwrap()
                .output
                .expect("functional run")
        };
        assert_eq!(run(&mut m, &IdentityKernel::new(1.0)), input);
        let aes = AesCtrSpeKernel::new(Arc::new(Aes128::new(&[2u8; 16])), 1);
        let out = run(&mut m, &aes);
        for (i, (o, p)) in out.chunks(4096).zip(input.chunks(4096)).enumerate() {
            assert_ne!(o, p, "block {i} came back as plaintext");
        }
        // No real bytes in, none out: virtual input is timing-only.
        let r = m.run_data(DataInput::Virtual(8192), &aes, 4096).unwrap();
        assert!(r.output.is_none());
    }

    #[test]
    fn virtual_and_materialized_timing_agree() {
        let key = Arc::new(Aes128::new(&[1u8; 16]));
        let kernel = AesCtrSpeKernel::new(key, 0);
        let mut input = vec![0u8; 128 * 1024];
        fill_deterministic(3, 0, &mut input);

        let mut mv = machine(false);
        let rv = mv
            .run_data(DataInput::Virtual(input.len() as u64), &kernel, 4096)
            .unwrap();
        let mut mm = machine(true);
        let rm = mm.run_data(DataInput::Real(&input), &kernel, 4096).unwrap();
        assert_eq!(rv.elapsed, rm.elapsed);
        assert_eq!(rv.dma_requests, rm.dma_requests);
        assert_eq!(rv.bus_busy, rm.bus_busy);
    }

    #[test]
    fn cold_then_warm_sessions() {
        let mut m = machine(false);
        let kernel = IdentityKernel::new(1.0);
        let r1 = m.run_data(DataInput::Virtual(4096), &kernel, 4096).unwrap();
        let r2 = m.run_data(DataInput::Virtual(4096), &kernel, 4096).unwrap();
        assert_eq!(r1.startup, CONTEXT_CREATE + SESSION_START);
        assert_eq!(r2.startup, SESSION_START);
        assert!(r1.elapsed > r2.elapsed);
    }

    #[test]
    fn warm_up_pays_context_once() {
        let mut m = machine(false);
        assert_eq!(m.warm_up(), CONTEXT_CREATE);
        assert_eq!(m.warm_up(), SimDuration::ZERO);
    }

    #[test]
    fn start_session_pays_context_only_when_cold() {
        let mut m = machine(false);
        assert_eq!(m.start_session(), CONTEXT_CREATE + SESSION_START);
        assert_eq!(m.start_session(), SESSION_START);
        // Warming up first leaves only the session start to pay.
        let mut m = machine(false);
        m.warm_up();
        assert_eq!(m.start_session(), SESSION_START);
    }

    #[test]
    fn virtual_machine_holds_no_local_store_bytes() {
        let mut input = vec![0u8; 20_000];
        fill_deterministic(4, 0, &mut input);
        let kernel = IdentityKernel::new(1.0);
        let mut m = machine(false);
        let r = m.run_data(DataInput::Real(&input), &kernel, 4096).unwrap();
        assert!(r.output.is_none());
        assert!(m.local_stores.iter().flatten().all(Vec::is_empty));
        // A materialized machine's two buffers per SPE reserve exactly the
        // largest block the local-store budget accepts, and a run in such
        // blocks fills them without growing them.
        let mut m = machine(true);
        let largest = 48 * 1024;
        check_block_size(largest).unwrap();
        assert_eq!(m.local_stores.len(), 8);
        let buffers = |m: &CellMachine| {
            m.local_stores
                .iter()
                .flatten()
                .map(Vec::capacity)
                .collect::<Vec<_>>()
        };
        assert!(m.local_stores.iter().flatten().all(Vec::is_empty));
        assert_eq!(buffers(&m), [largest; 16]);
        let mut input = vec![0u8; 40 * largest];
        fill_deterministic(4, 0, &mut input);
        let r = m
            .run_data(DataInput::Real(&input), &kernel, largest)
            .unwrap();
        assert!(r.output.as_deref() == Some(input.as_slice()));
        assert!(m.local_stores.iter().flatten().all(|b| b.len() == largest));
        assert_eq!(buffers(&m), [largest; 16]);
    }

    #[test]
    fn local_store_buffers_carry_every_run_whatever_its_block_size() {
        // One machine, shrinking and growing blocks: each run's bytes cross
        // the same two buffers per SPE.
        let key = Arc::new(Aes128::new(b"local-store-test"));
        let kernel = AesCtrSpeKernel::new(key.clone(), 8);
        let mut input = vec![0u8; 200_003];
        fill_deterministic(12, 0, &mut input);
        let mut expect = input.clone();
        ctr_xor(&key, AesImpl::Scalar, 8, 0, &mut expect);
        let mut m = machine(true);
        for block in [48 * 1024, 16, 4096, 32 * 1024] {
            let r = m.run_data(DataInput::Real(&input), &kernel, block).unwrap();
            assert_eq!(r.output.as_deref(), Some(expect.as_slice()), "{block}");
        }
    }

    #[test]
    fn outputs_drawn_over_stale_pooled_images_match_the_reference() {
        // The record lengths, blocks and offsets of the pipeline golden
        // table plus the 200,003-byte tail above. Before each run the pool
        // gets stale images shorter than, as long as and longer than the
        // output; whichever one the run draws, every byte must be
        // overwritten.
        let key = Arc::new(Aes128::new(b"stale-pool-test!"));
        let kernel = AesCtrSpeKernel::new(key.clone(), 3);
        let shapes: [(usize, usize, u64); 8] = [
            (300_000, 4096, 0),
            (2_008, 16, 0),
            ((1 << 20) + 5_000, 48 * 1024, 0),
            (70_000, 4096, 256 * 1024),
            (0, 4096, 0),
            (2 << 20, 16 * 1024, 0),
            (40_960, 4096, 0),
            (200_003, 32 * 1024, 0),
        ];
        let mut m = machine(true);
        for (len, block, base_offset) in shapes {
            let mut input = vec![0u8; len];
            fill_deterministic(17, base_offset, &mut input);
            let mut expect = input.clone();
            ctr_xor(&key, AesImpl::TTable, 3, base_offset / 16, &mut expect);
            for stale in [len / 2, len, len + 4_099] {
                accelmr_kernels::pool::give(vec![0xA5; stale]);
                let r = m
                    .run_data_at(DataInput::Real(&input), &kernel, block, base_offset)
                    .unwrap();
                assert!(
                    r.output.as_deref() == Some(expect.as_slice()),
                    "{len} bytes in {block}-byte blocks over a {stale}-byte stale image"
                );
            }
        }
    }

    #[test]
    fn steady_state_throughput_matches_calibration() {
        // 64 MB warm run: compute-bound at ~700 MB/s per Cell.
        let mut m = machine(false);
        m.warm_up();
        let key = Arc::new(Aes128::new(&[0u8; 16]));
        let kernel = AesCtrSpeKernel::new(key, 0);
        let r = m
            .run_data(DataInput::Virtual(64 << 20), &kernel, 4096)
            .unwrap();
        let mbps = r.throughput_bps() / 1e6;
        assert!((620.0..720.0).contains(&mbps), "throughput {mbps} MB/s");
        // SPEs nearly fully busy.
        assert!(
            r.mean_spe_utilization() > 0.9,
            "{}",
            r.mean_spe_utilization()
        );
    }

    #[test]
    fn empty_input_costs_only_startup() {
        let mut m = machine(true);
        let kernel = IdentityKernel::new(1.0);
        let r = m.run_data(DataInput::Virtual(0), &kernel, 4096).unwrap();
        assert_eq!(r.elapsed, r.startup);
        assert_eq!(r.blocks, 0);
    }

    #[test]
    fn mfc_queue_depth_never_exceeded() {
        let mut m = machine(false);
        let kernel = IdentityKernel::new(0.1); // DMA-bound: stresses the bus
        let r = m
            .run_data(DataInput::Virtual(8 << 20), &kernel, 16 * 1024)
            .unwrap();
        assert!(r.peak_mfc_queue <= MFC_QUEUE_DEPTH);
        assert!(r.peak_mfc_queue >= 1);
    }

    #[test]
    fn dma_requests_account_for_chunking() {
        let mut m = machine(false);
        let kernel = IdentityKernel::new(1.0);
        // 32 KB blocks split into two 16 KB MFC commands each direction.
        let r = m
            .run_data(DataInput::Virtual(1 << 20), &kernel, 32 * 1024)
            .unwrap();
        let blocks = (1u64 << 20) / (32 * 1024);
        assert_eq!(r.dma_requests, blocks * 2 * 2);
    }

    #[test]
    fn compute_run_splits_units_and_sums_results() {
        let mut m = machine(false);
        let kernel = PiSpeKernel::new(11, 0);
        let r = m.run_compute(100_000, &kernel);
        assert_eq!(r.unit_results.len(), 8);
        let total: u64 = r.unit_results.iter().sum();
        let est = 4.0 * total as f64 / 100_000.0;
        assert!((est - std::f64::consts::PI).abs() < 0.05, "{est}");
        // Elapsed ≈ startup + per-SPE compute of 12500 samples.
        let expect =
            CONTEXT_CREATE.as_secs_f64() + SESSION_START.as_secs_f64() + 12_500.0 * 256.0 / 3.2e9;
        assert!((r.elapsed.as_secs_f64() - expect).abs() / expect < 0.01);
    }

    #[test]
    fn compute_run_with_fewer_units_than_spes() {
        let mut m = machine(false);
        let kernel = PiSpeKernel::new(1, 0);
        let r = m.run_compute(3, &kernel);
        let worked = r
            .spe_busy
            .iter()
            .filter(|d| **d > SimDuration::ZERO)
            .count();
        assert_eq!(worked, 3);
        assert!(r.unit_results.iter().sum::<u64>() <= 3);
    }

    #[test]
    fn rejects_oversized_blocks() {
        let mut m = machine(false);
        let kernel = IdentityKernel::new(1.0);
        assert!(m
            .run_data(DataInput::Virtual(1 << 20), &kernel, 128 * 1024)
            .is_err());
    }
}
