//! kernels_host — **wall-clock** rates of the real AES kernels and of the
//! functional Cell path that carries them.
//!
//! The simulated cost of a kernel comes from `cycles_per_byte` and never
//! from the host; this section tracks what a *materialized* run costs to
//! execute. Rows: ECB and CTR for every [`AesImpl`] over one buffer
//! (16 MiB; 2 MiB under `--quick`), and [`CellMachine::run_data`] with the
//! SPU AES kernel over a warmed 2 MiB real record in 4 KB blocks.
//!
//! The SPU kernel computes its bytes with `AesImpl::Hardware`, so the
//! ratios are stated against that cipher; a ratio holds across machines
//! where a MB/s bar would not. Two are asserted:
//!
//! * `hardware CTR / ttable CTR >= 4`, only where the CPU has AES
//!   instructions (`hardware_aes`): a silent fallback to the T-table cipher,
//!   a broken detection say, reads ~1 and fails here.
//! * `run_data / hardware CTR >= 0.25`. On the AES unit the cipher is no
//!   longer most of `run_data`: the two staging copies through the local
//!   store, the zeroed output and the event loop cost more than the
//!   cipher, and the ratio reads ~0.45. The bar fails once that overhead
//!   grows about 2.5x.
//!
//! Returns the `kernels_host` section of `BENCH_perf.json`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use accelmr_cellbe::{AesCtrSpeKernel, CellConfig, CellMachine, DataInput, SPU_BLOCK};
use accelmr_kernels::aes::hw;
use accelmr_kernels::aes::modes::{ctr_xor, ecb_encrypt};
use accelmr_kernels::{fill_deterministic, Aes128, AesImpl};

use crate::{float, obj, Json};

const RECORD: usize = 2 << 20;
const NONCE: u64 = 7;
/// Bar on `hardware CTR / ttable CTR` where the CPU has AES instructions.
const HARDWARE_BAR: f64 = 4.0;
/// Bar on `run_data / hardware CTR`.
const RUN_DATA_BAR: f64 = 0.25;

/// One implementation's row: host MB/s in ECB and in CTR.
fn aes_row(name: &str, ecb: f64, ctr: f64) -> Json {
    obj! { "impl" => name, "ecb_mb_per_s" => float(ecb, 1), "ctr_mb_per_s" => float(ctr, 1) }
}

/// This section at PR 13's parent commit, 16 MiB: `lanes4`, the SPU
/// kernel's cipher then, kept one lane of each quad in CTR.
fn before() -> Json {
    obj! {
        "commit" => "ce7d876",
        "aes" => vec![
            aes_row("scalar", 96.3, 103.4),
            aes_row("ttable", 360.7, 320.0),
            aes_row("lanes4", 293.9, 72.8),
        ],
        "run_data_mb_per_s" => float(71.1, 1),
        "lanes4_over_ttable_ctr" => float(0.23, 2),
        "run_data_over_lanes4_ctr" => float(0.98, 2),
    }
}

/// Best of `reps` timings of `f`, as MB/s over `bytes`: disturbance on a
/// shared host only ever adds time.
fn mb_per_s(bytes: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let best = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    bytes as f64 / 1e6 / best
}

/// Times every AES implementation and the functional Cell path, and holds
/// the ratios to `HARDWARE_BAR` and `RUN_DATA_BAR`.
pub fn run(quick: bool) -> Json {
    let len = if quick { 2 << 20 } else { 16 << 20 };
    let key = Arc::new(Aes128::new(b"benchmark-key!!!"));
    let mut buf = vec![0u8; len];
    fill_deterministic(1, 0, &mut buf);

    let rates: Vec<(AesImpl, f64, f64)> = AesImpl::ALL
        .into_iter()
        .map(|imp| {
            let ecb = mb_per_s(len, 5, || ecb_encrypt(&key, imp, black_box(&mut buf)));
            let ctr = mb_per_s(len, 5, || ctr_xor(&key, imp, NONCE, 0, black_box(&mut buf)));
            (imp, ecb, ctr)
        })
        .collect();
    let ctr_of = |want: AesImpl| {
        let (_, _, ctr) = rates.iter().find(|r| r.0 == want).expect("in ALL");
        *ctr
    };
    let hardware_aes = hw::detected();
    let hardware_ctr = ctr_of(AesImpl::Hardware);
    let hardware_over_ttable = hardware_ctr / ctr_of(AesImpl::TTable);
    if hardware_aes {
        assert!(
            hardware_over_ttable >= HARDWARE_BAR,
            "hardware CTR runs at {hardware_over_ttable:.1}x the T-table cipher on a CPU with AES instructions: the T-table fallback ran"
        );
    }

    let kernel = AesCtrSpeKernel::new(key, NONCE);
    let mut machine = CellMachine::new(CellConfig::default(), true).expect("default config");
    machine.warm_up();
    let record = &buf[..RECORD];
    let run_data = mb_per_s(RECORD, 9, || {
        let report = machine
            .run_data(DataInput::Real(record), &kernel, SPU_BLOCK)
            .expect("4 KB blocks are valid");
        black_box(report.output);
    });

    let run_data_over_hardware = run_data / hardware_ctr;
    assert!(
        run_data_over_hardware >= RUN_DATA_BAR,
        "run_data runs at {run_data_over_hardware:.2} of its kernel's rate: staging or event-loop overhead"
    );

    obj! { "kernels_host" => obj! {
        "scenario" => format!(
            "host MB/s, best of 5: AES-128 ECB and CTR per implementation over {} MiB; CellMachine::run_data (aes128-ctr-spu) over a warmed 2 MiB real record in 4 KB blocks",
            len >> 20
        ),
        "quick" => quick,
        "aes" => rates.iter().map(|&(imp, ecb, ctr)| aes_row(imp.name(), ecb, ctr)).collect::<Vec<_>>(),
        "hardware_aes" => hardware_aes,
        "hardware_over_ttable_ctr" => float(hardware_over_ttable, 1),
        "hardware_bar" => float(HARDWARE_BAR, 1),
        "run_data_mb_per_s" => float(run_data, 1),
        "run_data_over_hardware_ctr" => float(run_data_over_hardware, 2),
        "run_data_bar" => float(RUN_DATA_BAR, 2),
        "before" => before(),
    } }
}
