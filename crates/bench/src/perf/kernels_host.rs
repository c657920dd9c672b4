//! kernels_host — **wall-clock** rates of the real AES kernels and of the
//! functional Cell path that carries them.
//!
//! The simulated cost of a kernel comes from `cycles_per_byte` and never
//! from the host; this section tracks what a *materialized* run costs to
//! execute. Rows: ECB and CTR for every [`AesImpl`] over one buffer
//! (16 MiB; 2 MiB under `--quick`), and [`CellMachine::run_data`] with the
//! SPU AES kernel over a warmed 2 MiB real record in 4 KB blocks.
//!
//! One ratio is asserted, because a ratio holds across machines where a
//! MB/s bar would not: `run_data / ttable CTR >= 0.75` — the event loop and
//! the two staging copies through the local store may not cost more than a
//! quarter of the kernel (the SPU kernel computes its bytes with the
//! T-table cipher).
//!
//! Returns the `kernels_host` section of `BENCH_perf.json`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use accelmr_cellbe::{AesCtrSpeKernel, CellConfig, CellMachine, DataInput};
use accelmr_kernels::aes::modes::{ctr_xor, ecb_encrypt};
use accelmr_kernels::{fill_deterministic, Aes128, AesImpl};

use crate::{float, obj, Json};

const RECORD: usize = 2 << 20;
const SPU_BLOCK: usize = 4096;
const NONCE: u64 = 7;
const RATIO_BAR: f64 = 0.75;
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
/// the ratio to `RATIO_BAR`.
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
    let ttable_ctr = ctr_of(AesImpl::TTable);

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

    let run_data_over_ttable = run_data / ttable_ctr;
    assert!(
        run_data_over_ttable >= RATIO_BAR,
        "run_data runs at {run_data_over_ttable:.2} of its kernel's rate: staging or event-loop overhead"
    );

    obj! { "kernels_host" => obj! {
        "scenario" => format!(
            "host MB/s, best of 5: AES-128 ECB and CTR per implementation over {} MiB; CellMachine::run_data (aes128-ctr-spu) over a warmed 2 MiB real record in 4 KB blocks",
            len >> 20
        ),
        "quick" => quick,
        "aes" => rates.iter().map(|&(imp, ecb, ctr)| aes_row(imp.name(), ecb, ctr)).collect::<Vec<_>>(),
        "run_data_mb_per_s" => float(run_data, 1),
        "run_data_over_ttable_ctr" => float(run_data_over_ttable, 2),
        "ratio_bar" => float(RATIO_BAR, 2),
        "before" => before(),
    } }
}
