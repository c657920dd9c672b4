//! kernels_host — **wall-clock** rates of the real AES kernels and of the
//! functional Cell path that carries them.
//!
//! The simulated cost of a kernel comes from `cycles_per_byte` and never
//! from the host; this section tracks what a *materialized* run costs to
//! execute. Rows: ECB and CTR for every [`AesImpl`] over one buffer
//! (16 MiB; 2 MiB under `--quick`), and [`CellMachine::run_data`] with the
//! SPU AES kernel over a warmed 2 MiB real record in 4 KB blocks. Each
//! `run_data` output goes back to the record-image pool, as the digest
//! worker hands it back on the functional path, so the row times the
//! steady state.
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
//!   store and the event loop cost more than the cipher, and the ratio
//!   reads ~0.45-0.9. The bar fails once that overhead grows about 2.5x.
//!
//! Four more rows time what a functional run does beside the cipher, on
//! its two threads. On the event thread, `fill_mb_per_s` is
//! `fill_deterministic` over one 2 MiB record, what a DataNode does for
//! each record it serves. On the digest worker, `checksum_mb_per_s` is
//! FNV-1a over the same buffer as the AES rows, and
//! `checksum_lanes_mb_per_s` is [`ChecksumLanes`] over four 2 MiB images,
//! the worker's full load: four interleaved chains run at ~3.5x one.
//! `functional_job` runs a materialized 4-worker [`CellAesKernel`] job
//! with `digest_output()` over 32 MiB of 2 MiB records and states its
//! wall time in units of the serial digest of its bytes, in two rows:
//! `cold`, the first run in the process, which allocates the record
//! images and starts the digest worker, and `steady`, the best of the
//! runs after it (see below), whose images all come from the record-image
//! pool. The worker hashes up to four records at a time while the event
//! thread fills, feeds and encrypts the next ones, so the job is bound by
//! the event thread: steady, it costs 0.61-0.80 of one serial digest
//! (median 0.68, ten runs on 2 vCPUs; cold 0.77-1.11). With a one-lane
//! worker the steady row read 1.04-1.14 in fifteen runs on the same host,
//! and before the pool the digest on the event thread read 2.00-2.09.
//! Where the host has a second core, steady `wall / digest <= 0.90` is
//! asserted: about 30% above the four-lane median, and below every
//! one-lane reading. The job keeps its size under `--quick`: with a
//! one-lane worker, an 8 MiB job's unoverlapped first and last records
//! read 1.42-1.57 before the pool, too close to the serial 1.96 for a
//! bar.
//!
//! Both sides of that ratio are best-of timings, because a shared host
//! only ever adds time, in spells of seconds: while another tenant holds
//! the second core, the worker cannot overlap the event thread and every
//! run reads 0.85-1.1, like a one-lane worker in a quiet spell. So the
//! steady row is the best of windows of fifteen runs, two seconds apart,
//! until one passes or ten have run (about 25 s), over the fastest serial
//! digest, a best-of-15 timing taken before the runs and after each
//! window. Best of three runs failed the bar in 22 of 22 runs of the
//! parent commit on 2 vCPUs. A one-lane worker reads 1.02-1.10 in quiet
//! spells and 1.4-1.5 in busy ones, so all its windows fail.
//!
//! Returns the `kernels_host` section of `BENCH_perf.json`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use accelmr_cellbe::{AesCtrSpeKernel, CellConfig, CellMachine, DataInput, SPU_BLOCK};
use accelmr_hybrid::{CellAesKernel, CellEnvFactory};
use accelmr_kernels::aes::hw;
use accelmr_kernels::aes::modes::{ctr_xor, ecb_encrypt};
use accelmr_kernels::{checksum, fill_deterministic, pool, Aes128, AesImpl, ChecksumLanes, LANES};
use accelmr_mapred::{ClusterBuilder, JobBuilder, PreloadSpec};

use crate::{float, obj, Json};

const RECORD: usize = 2 << 20;
const NONCE: u64 = 7;
/// Bar on `hardware CTR / ttable CTR` where the CPU has AES instructions.
const HARDWARE_BAR: f64 = 4.0;
/// Bar on `run_data / hardware CTR`.
const RUN_DATA_BAR: f64 = 0.25;
/// Bar on the functional job's steady wall time over the serial digest
/// of its bytes, where the host has a second core.
const FUNCTIONAL_BAR: f64 = 0.90;
/// Bytes of the functional job.
const JOB_BYTES: u64 = 32 << 20;
/// Runs of the functional job in one steady window.
const STEADY_RUNS: usize = 15;
/// Windows, [`WINDOW_GAP`] apart, the steady row gets to come under
/// [`FUNCTIONAL_BAR`].
const STEADY_WINDOWS: usize = 10;
const WINDOW_GAP: Duration = Duration::from_secs(2);
/// Timings in each measurement of the serial digest.
const DIGEST_REPS: usize = 15;

/// One implementation's row: host MB/s in ECB and in CTR.
fn aes_row(name: &str, ecb: f64, ctr: f64) -> Json {
    obj! { "impl" => name, "ecb_mb_per_s" => float(ecb, 1), "ctr_mb_per_s" => float(ctr, 1) }
}

/// Earlier rows, full size on 2 vCPUs, oldest first.
///
/// `19abad3`, the parent of the commit that gave the digest worker four
/// lanes: the job's digest ran one record at a time. `checksum_mb_per_s`
/// and `functional_job` (then the best of three runs) are the medians of
/// four `kernels_host` runs at that commit; `fill_mb_per_s` is the median
/// of five best-of-21 timings of its fill over 2 MiB on the same host.
///
/// `3890327`, the parent of the commit that added the record-image pool:
/// every record image was allocated afresh, the DataNode's and
/// `run_data`'s zeroed, and the digest hand-off was a rendezvous. Medians
/// of five runs of this section's code built against that commit,
/// alternated with five of the pool's commit.
fn before() -> Json {
    let job = |wall_s: f64, over_digest: f64| {
        obj! {
            "wall_s" => float(wall_s, 4),
            "wall_over_digest" => float(over_digest, 2),
        }
    };
    Json::Arr(vec![
        obj! {
            "commit" => "19abad3",
            "fill_mb_per_s" => float(2412.0, 1),
            "checksum_mb_per_s" => float(587.6, 1),
            "functional_job" => obj! {
                "mib" => JOB_BYTES >> 20,
                "wall_s" => float(0.0815, 4),
                "wall_over_digest" => float(1.43, 2),
            },
        },
        obj! {
            "commit" => "3890327",
            "run_data_mb_per_s" => float(2487.5, 1),
            "fill_mb_per_s" => float(4236.4, 1),
            "checksum_mb_per_s" => float(565.8, 1),
            "functional_job" => obj! {
                "mib" => JOB_BYTES >> 20,
                "cold" => job(0.0696, 1.16),
                "steady" => job(0.0699, 1.17),
            },
        },
    ])
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

/// Wall seconds of a materialized 4-worker `CellAesKernel` job over
/// [`JOB_BYTES`] of 2 MiB records, digested and not written back.
fn functional_job() -> f64 {
    let mut cluster = ClusterBuilder::new()
        .seed(2009)
        .workers(4)
        .env(CellEnvFactory { materialized: true })
        .materialized(true)
        .deploy();
    let mut session = cluster.session();
    session.submit(
        JobBuilder::new("functional")
            .input_file("/plain")
            .record_bytes(RECORD as u64)
            .kernel(CellAesKernel::new())
            .map_tasks(8)
            .digest_output()
            .preload(PreloadSpec::new("/plain", JOB_BYTES, 1).block_size(4 << 20)),
    );
    let t = Instant::now();
    let result = session.run();
    let wall = t.elapsed().as_secs_f64();
    assert!(
        result.succeeded,
        "functional job failed: {:?}",
        result.error
    );
    assert_eq!(
        result.digest.1,
        JOB_BYTES / RECORD as u64,
        "records digested"
    );
    wall
}

/// Times every AES implementation, the record digest and the functional
/// Cell path, and holds the ratios to `HARDWARE_BAR`, `RUN_DATA_BAR` and
/// `FUNCTIONAL_BAR`.
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
    let Ok(mut machine) = CellMachine::new(CellConfig::default(), true);
    machine.warm_up();
    let record = &buf[..RECORD];
    let run_data = mb_per_s(RECORD, 9, || {
        let report = machine
            .run_data(DataInput::Real(record), &kernel, SPU_BLOCK)
            .expect("4 KB blocks are valid");
        if let Some(output) = report.output {
            pool::give(black_box(output));
        }
    });

    let run_data_over_hardware = run_data / hardware_ctr;
    assert!(
        run_data_over_hardware >= RUN_DATA_BAR,
        "run_data runs at {run_data_over_hardware:.2} of its kernel's rate: staging or event-loop overhead"
    );

    let fill_rate = mb_per_s(RECORD, 9, || {
        fill_deterministic(black_box(1), 0, black_box(&mut buf[..RECORD]));
    });
    let digest_rate = |buf: &[u8]| {
        mb_per_s(len, DIGEST_REPS, || {
            black_box(checksum(black_box(buf)));
        })
    };
    let checksum_rate = digest_rate(&buf);
    let images: Vec<Vec<u8>> = (0..LANES as u64)
        .map(|seed| {
            let mut image = vec![0u8; RECORD];
            fill_deterministic(seed, 0, &mut image);
            image
        })
        .collect();
    let lanes_rate = mb_per_s(LANES * RECORD, 5, || {
        let mut lanes = ChecksumLanes::new();
        for image in &images {
            lanes.join(black_box(image.as_slice()));
        }
        while !lanes.is_empty() {
            lanes.step(|_, sum| {
                black_box(sum);
            });
        }
    });
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cold_wall = functional_job();
    // The serial digest of the job's bytes: the fastest of the timings
    // before the steady runs and after each window of them.
    let mut serial_digest_s = JOB_BYTES as f64 / 1e6 / checksum_rate;
    let (mut job_wall, mut windows) = (f64::INFINITY, 0);
    loop {
        let window = (0..STEADY_RUNS).map(|_| functional_job());
        job_wall = window.fold(job_wall, f64::min);
        serial_digest_s = serial_digest_s.min(JOB_BYTES as f64 / 1e6 / digest_rate(&buf));
        windows += 1;
        if cores < 2 || job_wall / serial_digest_s <= FUNCTIONAL_BAR || windows == STEADY_WINDOWS {
            break;
        }
        std::thread::sleep(WINDOW_GAP);
    }
    let job_over_digest = job_wall / serial_digest_s;
    if cores >= 2 {
        assert!(
            job_over_digest <= FUNCTIONAL_BAR,
            "the functional job's steady run takes {job_over_digest:.2}x the serial digest of its bytes: the digest worker hashes one record at a time, the digest is back on the event thread, or record images are allocated afresh again"
        );
    }

    obj! { "kernels_host" => obj! {
        "scenario" => format!(
            "host MB/s, best of 5: AES-128 ECB and CTR per implementation over {0} MiB; CellMachine::run_data (aes128-ctr-spu) over a warmed 2 MiB real record in 4 KB blocks (best of 9); fill_deterministic over 2 MiB (best of 9); FNV-1a checksum over {0} MiB (best of {2}); ChecksumLanes over {1} 2 MiB images",
            len >> 20,
            LANES,
            DIGEST_REPS
        ),
        "quick" => quick,
        "aes" => rates.iter().map(|&(imp, ecb, ctr)| aes_row(imp.name(), ecb, ctr)).collect::<Vec<_>>(),
        "hardware_aes" => hardware_aes,
        "hardware_over_ttable_ctr" => float(hardware_over_ttable, 1),
        "hardware_bar" => float(HARDWARE_BAR, 1),
        "run_data_mb_per_s" => float(run_data, 1),
        "run_data_over_hardware_ctr" => float(run_data_over_hardware, 2),
        "run_data_bar" => float(RUN_DATA_BAR, 2),
        "fill_mb_per_s" => float(fill_rate, 1),
        "checksum_mb_per_s" => float(checksum_rate, 1),
        "checksum_lanes_mb_per_s" => float(lanes_rate, 1),
        "functional_job" => obj! {
            "mib" => JOB_BYTES >> 20,
            "cold" => obj! {
                "wall_s" => float(cold_wall, 4),
                "wall_over_digest" => float(cold_wall / serial_digest_s, 2),
            },
            "steady" => obj! {
                "runs" => STEADY_RUNS * windows,
                "wall_s" => float(job_wall, 4),
                "wall_over_digest" => float(job_over_digest, 2),
            },
            "bar" => float(FUNCTIONAL_BAR, 2),
            "host_cores" => cores,
        },
        "before" => before(),
    } }
}
