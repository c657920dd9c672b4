//! Golden table of the double-buffered SPE pipeline.
//!
//! Every simulated number `CellMachine::run_data_at` reports — elapsed and
//! start-up time, block and DMA counts, MFC queue peak, per-SPE busy time,
//! bus busy time — is pinned here for a set of shapes that exercise the
//! pipeline's edges: a ragged tail, the smallest (16 B) and largest (48 KB)
//! accepted blocks, a record inside a larger stream (`base_offset > 0`),
//! empty input, a DMA-bound kernel, and a cold machine followed by a warm
//! one. Each shape runs on a virtual and on a materialized machine; both
//! must reproduce the same row, and every materialized output is checked
//! byte for byte against a serial CTR pass (or the input, for the identity
//! kernel).

use std::sync::Arc;

use accelmr_cellbe::{
    AesCtrSpeKernel, CellConfig, CellMachine, DataInput, DataKernel, IdentityKernel, OffloadReport,
    PiSpeKernel,
};
use accelmr_kernels::aes::modes::ctr_xor;
use accelmr_kernels::{fill_deterministic, Aes128, AesImpl};

const NONCE: u64 = 0x5EED;

fn key() -> Arc<Aes128> {
    Arc::new(Aes128::new(b"pipeline-golden!"))
}

/// The pinned fields of one report, times in nanoseconds.
#[derive(Debug, PartialEq, Eq)]
struct Row {
    elapsed: u64,
    startup: u64,
    blocks: u64,
    bytes_in: u64,
    bytes_out: u64,
    dma_requests: u64,
    peak_mfc_queue: usize,
    spe_busy: Vec<u64>,
    bus_busy: u64,
}

impl Row {
    fn of(r: &OffloadReport) -> Row {
        Row {
            elapsed: r.elapsed.as_nanos(),
            startup: r.startup.as_nanos(),
            blocks: r.blocks,
            bytes_in: r.bytes_in,
            bytes_out: r.bytes_out,
            dma_requests: r.dma_requests,
            peak_mfc_queue: r.peak_mfc_queue,
            spe_busy: r.spe_busy.iter().map(|d| d.as_nanos()).collect(),
            bus_busy: r.bus_busy.as_nanos(),
        }
    }
}

#[derive(Clone, Copy)]
enum Kernel {
    Aes,
    /// Identity at 0.1 cycles/byte: DMA-bound, so the bus and the MFC
    /// queues are the bottleneck.
    DmaBound,
}

struct Shape {
    name: &'static str,
    len: usize,
    block: usize,
    base_offset: u64,
    kernel: Kernel,
    /// Pay context creation before the run.
    warm: bool,
}

const SHAPES: &[Shape] = &[
    Shape {
        name: "ragged tail, 4 KB blocks, cold",
        len: 300_000,
        block: 4096,
        base_offset: 0,
        kernel: Kernel::Aes,
        warm: false,
    },
    Shape {
        name: "16 B blocks, ragged tail, warm",
        len: 2_008,
        block: 16,
        base_offset: 0,
        kernel: Kernel::Aes,
        warm: true,
    },
    Shape {
        name: "48 KB blocks, ragged tail, warm",
        len: (1 << 20) + 5_000,
        block: 48 * 1024,
        base_offset: 0,
        kernel: Kernel::Aes,
        warm: true,
    },
    Shape {
        name: "record at base_offset 256 KiB, warm",
        len: 70_000,
        block: 4096,
        base_offset: 256 * 1024,
        kernel: Kernel::Aes,
        warm: true,
    },
    Shape {
        name: "empty input, cold",
        len: 0,
        block: 4096,
        base_offset: 0,
        kernel: Kernel::Aes,
        warm: false,
    },
    Shape {
        name: "DMA-bound 16 KB blocks, warm",
        len: 2 << 20,
        block: 16 * 1024,
        base_offset: 0,
        kernel: Kernel::DmaBound,
        warm: true,
    },
];

fn run(
    m: &mut CellMachine,
    input: &[u8],
    materialized: bool,
    kernel: &dyn DataKernel,
    block: usize,
    base_offset: u64,
) -> OffloadReport {
    let data = if materialized {
        DataInput::Real(input)
    } else {
        DataInput::Virtual(input.len() as u64)
    };
    m.run_data_at(data, kernel, block, base_offset)
        .expect("valid block size")
}

/// Checks a materialized run's bytes against a serial reference.
fn check_output(r: &OffloadReport, input: &[u8], kernel: Kernel, base_offset: u64, what: &str) {
    let mut expect = input.to_vec();
    if let Kernel::Aes = kernel {
        ctr_xor(
            &key(),
            AesImpl::Scalar,
            NONCE,
            base_offset / 16,
            &mut expect,
        );
    }
    assert_eq!(
        r.output.as_deref(),
        Some(expect.as_slice()),
        "{what}: output bytes"
    );
}

/// One row per shape, then two rows for the cold-then-warm sequence on one
/// machine.
fn observed(materialized: bool) -> Vec<Row> {
    let aes = AesCtrSpeKernel::new(key(), NONCE);
    let dma_bound = IdentityKernel::new(0.1);
    let mut rows = Vec::new();
    for s in SHAPES {
        let mut input = vec![0u8; s.len];
        fill_deterministic(17, s.base_offset, &mut input);
        let kernel: &dyn DataKernel = match s.kernel {
            Kernel::Aes => &aes,
            Kernel::DmaBound => &dma_bound,
        };
        let mut m = CellMachine::new(CellConfig::default(), materialized).unwrap();
        if s.warm {
            m.warm_up();
        }
        let r = run(&mut m, &input, materialized, kernel, s.block, s.base_offset);
        if materialized {
            check_output(&r, &input, s.kernel, s.base_offset, s.name);
        } else {
            assert!(r.output.is_none(), "{}: virtual run made bytes", s.name);
        }
        rows.push(Row::of(&r));
    }
    // Cold then warm on the same machine, same 40 KB input.
    let mut input = vec![0u8; 40_960];
    fill_deterministic(23, 0, &mut input);
    let mut m = CellMachine::new(CellConfig::default(), materialized).unwrap();
    for what in ["cold", "warm"] {
        let r = run(&mut m, &input, materialized, &aes, 4096, 0);
        if materialized {
            check_output(&r, &input, Kernel::Aes, 0, what);
        }
        rows.push(Row::of(&r));
    }
    rows
}

/// `(elapsed_ns, startup_ns, blocks, bytes in = bytes out, dma_requests,
/// peak_mfc_queue, spe_busy_ns, bus_busy_ns)`, in the order
/// [`observed`] produces rows.
type Golden = (u64, u64, u64, u64, u64, usize, [u64; 8], u64);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    // ragged tail, 4 KB blocks, cold
    (453469440, 453000000, 74, 300000, 148, 2, [468480, 432978, 421632, 421632, 421632, 421632, 421632, 421632], 23438),
    // 16 B blocks, ragged tail, warm
    (3008538, 3000000, 126, 2008, 252, 2, [2928, 2928, 2928, 2928, 2928, 2837, 2745, 2745], 250),
    // 48 KB blocks, ragged tail, warm
    (4706368, 3000000, 22, 1053576, 130, 2, [1686528, 1686528, 1686528, 1686528, 1686528, 1368931, 1124352, 1124352], 82310),
    // record at base_offset 256 KiB, warm
    (3141504, 3000000, 18, 70000, 36, 2, [140544, 97905, 93696, 93696, 93696, 93696, 93696, 93696], 5468),
    // empty input, cold
    (453000000, 453000000, 0, 0, 0, 0, [0, 0, 0, 0, 0, 0, 0, 0], 0),
    // DMA-bound 16 KB blocks, warm
    (3164360, 3000000, 128, 2097152, 256, 2, [8192, 8192, 8192, 8192, 8192, 8192, 8192, 8192], 163840),
    // 40 KB on a cold machine, then again on the same (now warm) machine
    (453094976, 453000000, 10, 40960, 20, 2, [93696, 93696, 46848, 46848, 46848, 46848, 46848, 46848], 3200),
    (3094976, 3000000, 10, 40960, 20, 2, [93696, 93696, 46848, 46848, 46848, 46848, 46848, 46848], 3200),
];

#[test]
fn pipeline_reports_match_the_golden_table() {
    let virt = observed(false);
    let mat = observed(true);
    assert_eq!(virt.len(), GOLDEN.len());
    for (i, (v, m)) in virt.iter().zip(&mat).enumerate() {
        assert_eq!(v, m, "row {i}: virtual and materialized runs differ");
    }
    for (i, (got, g)) in virt.iter().zip(GOLDEN).enumerate() {
        let want = Row {
            elapsed: g.0,
            startup: g.1,
            blocks: g.2,
            bytes_in: g.3,
            bytes_out: g.3,
            dma_requests: g.4,
            peak_mfc_queue: g.5,
            spe_busy: g.6.to_vec(),
            bus_busy: g.7,
        };
        assert_eq!(got, &want, "row {i}");
    }
}

/// The compute path shares the start-up rule and the report: a cold run of
/// 100,003 Pi samples (uneven split over 8 SPEs), then a warm run of 5
/// samples (three SPEs idle).
#[test]
fn compute_reports_match_the_golden_table() {
    let mut m = CellMachine::new(CellConfig::default(), false).unwrap();
    let pi = PiSpeKernel::new(11, 0);
    #[rustfmt::skip]
    let golden: [(u64, u64, [u64; 8], [u64; 8]); 2] = [
        (454000480, 453000000, [1000480, 1000480, 1000480, 1000400, 1000400, 1000400, 1000400, 1000400],
         [9801, 9856, 9871, 9789, 9793, 9839, 9896, 9883]),
        (3000480, 3000000, [480, 480, 480, 480, 480, 0, 0, 0], [1, 1, 1, 0, 1, 0, 0, 0]),
    ];
    for (units, g) in [100_003, 5].into_iter().zip(golden) {
        let r = m.run_compute(units, &pi);
        let busy: Vec<u64> = r.spe_busy.iter().map(|d| d.as_nanos()).collect();
        assert_eq!(
            (
                r.elapsed.as_nanos(),
                r.startup.as_nanos(),
                busy,
                r.unit_results
            ),
            (g.0, g.1, g.2.to_vec(), g.3.to_vec()),
            "{units} units"
        );
        assert_eq!(
            (r.blocks, r.bytes_in, r.bytes_out, r.dma_requests),
            (0, 0, 0, 0)
        );
        assert_eq!((r.peak_mfc_queue, r.bus_busy.as_nanos()), (0, 0));
        assert!(r.output.is_none());
    }
}
