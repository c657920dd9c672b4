//! The Cell BE machine: an event-driven model of SPU offload execution.
//!
//! One [`CellMachine`] is one Cell processor. Its `run_data` method executes
//! the paper's "direct" native library: the PPE splits an input buffer into
//! aligned blocks (4 KB in the paper), stripes them across SPEs, and each
//! SPE runs a double-buffered pipeline — DMA-get block *i+1* and DMA-put
//! block *i−1* while computing block *i*. DMA requests contend for the
//! shared memory interface, which a single-server fluid queue models; MFC
//! queue depth and local-store capacity are enforced, not assumed.
//!
//! In **materialized** mode the kernel really executes on bytes that
//! traveled through the simulated local store; in **virtual** mode only
//! timing is computed. Both modes take the identical event path, so timing
//! can never diverge between them (a unit test pins this).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use accelmr_des::{SimDuration, SimTime};

use crate::config::{CellConfig, CellConfigError};
use crate::kernel::{ComputeKernel, DataKernel};
use crate::localstore::{LocalStore, LsBuffer};

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

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[allow(clippy::enum_variant_names)]
enum Ev {
    FetchDone { spe: usize, block: u64, buf: usize },
    ComputeDone { spe: usize, block: u64, buf: usize },
    PutDone { spe: usize, buf: usize },
}

struct SpeRun {
    /// Blocks assigned to this SPE (stripe), next index to fetch.
    assigned: Vec<u64>,
    next_fetch: usize,
    /// Fetched blocks awaiting compute.
    ready: VecDeque<(u64, usize)>,
    computing: bool,
    free_buffers: Vec<usize>,
    inflight_mfc: usize,
    busy: SimDuration,
}

/// Shared memory-interface arbiter: a deterministic single-server queue.
struct Bus {
    free_at: SimTime,
    busy: SimDuration,
    bytes_per_sec: f64,
    latency: SimDuration,
}

impl Bus {
    /// Serves `bytes` starting no earlier than `now`; returns the completion
    /// instant (including the fixed request latency, which does not occupy
    /// the bus).
    fn transfer(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = if now > self.free_at {
            now
        } else {
            self.free_at
        };
        let occupancy = SimDuration::from_secs_f64(bytes as f64 / self.bytes_per_sec);
        self.free_at = start + occupancy;
        self.busy += occupancy;
        self.free_at + self.latency
    }
}

/// One simulated Cell processor. Contexts stay warm across sessions, so the
/// first offload pays [`CellConfig::context_create`] and later ones only
/// [`CellConfig::session_start`] — exactly the effect behind the small-N
/// shape of the paper's Figure 6.
pub struct CellMachine {
    cfg: CellConfig,
    stores: Vec<LocalStore>,
    materialized: bool,
    warm: bool,
}

impl CellMachine {
    /// Builds a machine. `materialized` selects functional simulation.
    pub fn new(cfg: CellConfig, materialized: bool) -> Result<Self, CellConfigError> {
        cfg.validate()?;
        let stores = (0..cfg.n_spes)
            .map(|_| LocalStore::new(cfg.local_store_bytes, cfg.code_stack_bytes, materialized))
            .collect();
        Ok(CellMachine {
            cfg,
            stores,
            materialized,
            warm: false,
        })
    }

    /// The machine's configuration.
    pub fn config(&self) -> &CellConfig {
        &self.cfg
    }

    /// `true` once SPU contexts exist (after any run or [`Self::warm_up`]).
    pub fn is_warm(&self) -> bool {
        self.warm
    }

    /// Pays the context-creation cost up front (the single-node bandwidth
    /// harness does this; the paper's Figure 2 numbers average warmed runs).
    pub fn warm_up(&mut self) -> SimDuration {
        if self.warm {
            SimDuration::ZERO
        } else {
            self.warm = true;
            self.cfg.context_create
        }
    }

    fn take_startup(&mut self) -> SimDuration {
        let cold = if self.warm {
            SimDuration::ZERO
        } else {
            self.warm = true;
            self.cfg.context_create
        };
        cold + self.cfg.session_start
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
        self.cfg.check_block_size(block_size)?;
        let len = input.len();
        let startup = self.take_startup();
        // Functional or timing-only is decided here, once: a functional run
        // needs real bytes and stores that hold them. Both then take the
        // identical event path.
        let src = match input {
            DataInput::Real(src) if self.materialized => Some(src),
            _ => None,
        };
        let mut output = src.map(|src| vec![0u8; src.len()]);
        if len == 0 {
            return Ok(OffloadReport {
                elapsed: startup,
                startup,
                blocks: 0,
                bytes_in: 0,
                bytes_out: 0,
                dma_requests: 0,
                peak_mfc_queue: 0,
                spe_busy: vec![SimDuration::ZERO; self.cfg.n_spes],
                bus_busy: SimDuration::ZERO,
                output,
                unit_results: Vec::new(),
            });
        }

        let n_spes = self.cfg.n_spes;
        let n_blocks = len.div_ceil(block_size as u64);
        let block_len = |b: u64| -> u64 {
            let start = b * block_size as u64;
            (len - start).min(block_size as u64)
        };
        let block_bytes = |b: u64| {
            let start = (b * block_size as u64) as usize;
            start..start + block_len(b) as usize
        };

        // Per-SPE LS buffers (2 each, used in place for input and output).
        let mut ls_buffers: Vec<Vec<LsBuffer>> = Vec::with_capacity(n_spes);
        for store in &mut self.stores {
            store.reset();
            let bufs = (0..2)
                .map(|_| store.alloc(block_size, self.cfg.alignment))
                .collect::<Result<Vec<_>, _>>()?;
            ls_buffers.push(bufs);
        }

        // Stripe assignment: block i -> SPE i % n_spes (the paper's
        // round-robin "sent to the SPUs" distribution).
        let mut spes: Vec<SpeRun> = (0..n_spes)
            .map(|s| SpeRun {
                assigned: (0..n_blocks)
                    .filter(|b| (b % n_spes as u64) == s as u64)
                    .collect(),
                next_fetch: 0,
                ready: VecDeque::new(),
                computing: false,
                free_buffers: vec![0, 1],
                inflight_mfc: 0,
                busy: SimDuration::ZERO,
            })
            .collect();

        let mut bus = Bus {
            free_at: SimTime::ZERO + startup,
            busy: SimDuration::ZERO,
            bytes_per_sec: self.cfg.bus_bytes_per_sec,
            latency: self.cfg.dma_latency,
        };

        let mut queue: BinaryHeap<Reverse<(SimTime, u64, Ev)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push = |q: &mut BinaryHeap<Reverse<(SimTime, u64, Ev)>>, at: SimTime, ev: Ev| {
            seq += 1;
            q.push(Reverse((at, seq, ev)));
        };

        let mut dma_requests = 0u64;
        let mut peak_mfc = 0usize;
        let mut bytes_in = 0u64;
        let mut bytes_out = 0u64;
        let mut puts_done = 0u64;
        let t0 = SimTime::ZERO + startup;
        let mut last_event = t0;

        // Issue initial fetches.
        for s in 0..n_spes {
            issue_fetches(
                &self.cfg,
                &mut spes,
                s,
                t0,
                &mut bus,
                &mut queue,
                &mut push,
                &mut dma_requests,
                &mut peak_mfc,
                &mut bytes_in,
                block_len,
            );
        }

        // Event loop.
        while let Some(Reverse((now, _, ev))) = queue.pop() {
            last_event = now;
            match ev {
                Ev::FetchDone { spe, block, buf } => {
                    spes[spe].inflight_mfc -= 1;
                    // Functional: the bytes land in the local store now.
                    if let Some(src) = src {
                        let src = &src[block_bytes(block)];
                        self.stores[spe]
                            .slice_mut(ls_buffers[spe][buf], 0, src.len())
                            .expect("a materialized machine's stores hold bytes")
                            .copy_from_slice(src);
                    }
                    spes[spe].ready.push_back((block, buf));
                    maybe_start_compute(
                        &self.cfg, &mut spes, spe, now, kernel, &mut queue, &mut push, block_len,
                    );
                }
                Ev::ComputeDone { spe, block, buf } => {
                    spes[spe].computing = false;
                    let blen = block_len(block) as usize;
                    // Functional: execute in the local store, then copy the
                    // result out into the output image (the DMA put below).
                    if let Some(out) = &mut output {
                        let data = self.stores[spe]
                            .slice_mut(ls_buffers[spe][buf], 0, blen)
                            .expect("a materialized machine's stores hold bytes");
                        kernel.exec(base_offset + block * block_size as u64, data);
                        out[block_bytes(block)].copy_from_slice(data);
                    }
                    // DMA-put the result.
                    let done = bus.transfer(now, blen as u64);
                    bytes_out += blen as u64;
                    dma_requests += (blen as u64).div_ceil(self.cfg.dma_max_transfer as u64);
                    spes[spe].inflight_mfc += 1;
                    peak_mfc = peak_mfc.max(spes[spe].inflight_mfc);
                    push(&mut queue, done, Ev::PutDone { spe, buf });
                    maybe_start_compute(
                        &self.cfg, &mut spes, spe, now, kernel, &mut queue, &mut push, block_len,
                    );
                }
                Ev::PutDone { spe, buf } => {
                    spes[spe].inflight_mfc -= 1;
                    spes[spe].free_buffers.push(buf);
                    puts_done += 1;
                    issue_fetches(
                        &self.cfg,
                        &mut spes,
                        spe,
                        now,
                        &mut bus,
                        &mut queue,
                        &mut push,
                        &mut dma_requests,
                        &mut peak_mfc,
                        &mut bytes_in,
                        block_len,
                    );
                }
            }
        }
        // A stalled pipeline would hand back a partly zero `output`.
        assert_eq!(
            puts_done, n_blocks,
            "pipeline stalled: not all blocks completed"
        );

        Ok(OffloadReport {
            elapsed: last_event - SimTime::ZERO,
            startup,
            blocks: n_blocks,
            bytes_in,
            bytes_out,
            dma_requests,
            peak_mfc_queue: peak_mfc,
            spe_busy: spes.into_iter().map(|s| s.busy).collect(),
            bus_busy: bus.busy,
            output,
            unit_results: Vec::new(),
        })
    }

    /// Runs a compute-parallel kernel: `units` split evenly across SPEs.
    pub fn run_compute(&mut self, units: u64, kernel: &dyn ComputeKernel) -> OffloadReport {
        let startup = self.take_startup();
        let n = self.cfg.n_spes as u64;
        let base = units / n;
        let rem = units % n;
        let mut spe_busy = Vec::with_capacity(self.cfg.n_spes);
        let mut unit_results = Vec::with_capacity(self.cfg.n_spes);
        let mut max_busy = SimDuration::ZERO;
        for s in 0..self.cfg.n_spes {
            let my_units = base + u64::from((s as u64) < rem);
            let busy = if my_units == 0 {
                SimDuration::ZERO
            } else {
                self.cfg.dispatch_overhead
                    + self.cfg.cycles(kernel.cycles_per_unit() * my_units as f64)
            };
            max_busy = max_busy.max(busy);
            spe_busy.push(busy);
            unit_results.push(if my_units == 0 {
                0
            } else {
                kernel.exec(s, my_units)
            });
        }
        OffloadReport {
            elapsed: startup + max_busy,
            startup,
            blocks: 0,
            bytes_in: 0,
            bytes_out: 0,
            dma_requests: 0,
            peak_mfc_queue: 0,
            spe_busy,
            bus_busy: SimDuration::ZERO,
            output: None,
            unit_results,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn issue_fetches(
    cfg: &CellConfig,
    spes: &mut [SpeRun],
    spe: usize,
    now: SimTime,
    bus: &mut Bus,
    queue: &mut BinaryHeap<Reverse<(SimTime, u64, Ev)>>,
    push: &mut impl FnMut(&mut BinaryHeap<Reverse<(SimTime, u64, Ev)>>, SimTime, Ev),
    dma_requests: &mut u64,
    peak_mfc: &mut usize,
    bytes_in: &mut u64,
    block_len: impl Fn(u64) -> u64,
) {
    loop {
        let s = &mut spes[spe];
        if s.next_fetch >= s.assigned.len()
            || s.free_buffers.is_empty()
            || s.inflight_mfc >= cfg.mfc_queue_depth
        {
            return;
        }
        let block = s.assigned[s.next_fetch];
        s.next_fetch += 1;
        let buf = s.free_buffers.pop().expect("checked non-empty");
        let blen = block_len(block);
        s.inflight_mfc += 1;
        *peak_mfc = (*peak_mfc).max(s.inflight_mfc);
        *bytes_in += blen;
        *dma_requests += blen.div_ceil(cfg.dma_max_transfer as u64);
        let done = bus.transfer(now + cfg.dispatch_overhead, blen);
        push(queue, done, Ev::FetchDone { spe, block, buf });
    }
}

#[allow(clippy::too_many_arguments)]
fn maybe_start_compute(
    cfg: &CellConfig,
    spes: &mut [SpeRun],
    spe: usize,
    now: SimTime,
    kernel: &dyn DataKernel,
    queue: &mut BinaryHeap<Reverse<(SimTime, u64, Ev)>>,
    push: &mut impl FnMut(&mut BinaryHeap<Reverse<(SimTime, u64, Ev)>>, SimTime, Ev),
    block_len: impl Fn(u64) -> u64,
) {
    let s = &mut spes[spe];
    if s.computing {
        return;
    }
    let Some((block, buf)) = s.ready.pop_front() else {
        return;
    };
    s.computing = true;
    let cycles = kernel.cycles_per_byte() * block_len(block) as f64;
    let dur = cfg.cycles(cycles);
    s.busy += dur;
    push(queue, now + dur, Ev::ComputeDone { spe, block, buf });
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
        let ctx = CellConfig::default().context_create;
        assert_eq!(r1.startup, ctx + CellConfig::default().session_start);
        assert_eq!(r2.startup, CellConfig::default().session_start);
        assert!(r1.elapsed > r2.elapsed);
    }

    #[test]
    fn warm_up_pays_context_once() {
        let mut m = machine(false);
        assert_eq!(m.warm_up(), CellConfig::default().context_create);
        assert_eq!(m.warm_up(), SimDuration::ZERO);
        assert!(m.is_warm());
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
        assert!(r.peak_mfc_queue <= CellConfig::default().mfc_queue_depth);
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
        let expect = CellConfig::default().context_create.as_secs_f64()
            + CellConfig::default().session_start.as_secs_f64()
            + 12_500.0 * 256.0 / 3.2e9;
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
