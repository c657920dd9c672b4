//! The table behind the `figures` binary: the paper's Figures 2 and 4-8
//! and its terasort feed rate (each one `hybrid::experiments` call over the
//! paper's sweep, or over a scaled-down one under `--quick`), and ablations
//! of four design choices.
//!
//! `figures all --quick` prints `figures.quick.txt` (next to this crate's
//! manifest) byte for byte; a change that moves a point re-records it.

use accelmr_cellbe::{CellConfig, CellMachine, DataInput};
use accelmr_hybrid::experiments::dist::{run_encrypt_job, run_pi_job, AesMapper, PiMapper};
use accelmr_hybrid::experiments::{fig2, fig4, fig5, fig6, fig7, fig8, terasort_feed_rate};
use accelmr_hybrid::kernels::{job_key, JOB_NONCE};
use accelmr_mapred::{MrConfig, SchedulerPolicy};

/// `(name, runner)`: the runner prints its series to stdout, over the
/// paper's sweep, or the scaled-down one when its argument (`--quick`) is
/// set.
pub type Figure = (&'static str, fn(bool));

/// Everything `figures all` regenerates, in order.
pub const FIGURES: [Figure; 8] = [
    // Raw node encryption bandwidth vs working-set size (MB).
    ("fig2", |quick| {
        let sizes_mb: &[u64] = if quick {
            &[1, 16, 256]
        } else {
            &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
        };
        print!("{}", fig2(sizes_mb).to_table());
    }),
    // Distributed encryption, proportional data set (1 GB per mapper,
    // 2 mappers per node), vs nodes.
    ("fig4", |quick| {
        let nodes: &[usize] = if quick {
            &[4, 12]
        } else {
            &[12, 24, 36, 48, 60]
        };
        print!("{}", fig4(nodes).to_table());
    }),
    // Distributed encryption of a fixed data set (GB) vs nodes (Empty /
    // Java / Cell mappers).
    ("fig5", |quick| {
        let (nodes, total_gb): (&[usize], u64) = if quick {
            (&[4, 16], 24)
        } else {
            (&[4, 8, 16, 32, 64], 120)
        };
        print!("{}", fig5(nodes, total_gb).to_table());
    }),
    // Raw node Pi estimation rate vs samples.
    ("fig6", |quick| {
        let samples: &[u64] = if quick {
            &[1_000, 1_000_000, 1_000_000_000]
        } else {
            &[
                1_000,
                10_000,
                100_000,
                1_000_000,
                10_000_000,
                100_000_000,
                1_000_000_000,
            ]
        };
        print!("{}", fig6(samples).to_table());
    }),
    // Distributed Pi estimation on a fixed cluster vs samples.
    ("fig7", |quick| {
        let (nodes, samples): (usize, &[u64]) = if quick {
            (8, &[30_000, 30_000_000, 30_000_000_000])
        } else {
            (
                50,
                &[
                    3_000,
                    30_000,
                    300_000,
                    3_000_000,
                    30_000_000,
                    300_000_000,
                    3_000_000_000,
                    30_000_000_000,
                    300_000_000_000,
                    3_000_000_000_000,
                ],
            )
        };
        print!("{}", fig7(nodes, samples).to_table());
    }),
    // Distributed Pi estimation at fixed samples (and 10x) vs nodes.
    ("fig8", |quick| {
        let (nodes, samples): (&[usize], u64) = if quick {
            (&[4, 16], 10_000_000_000)
        } else {
            (&[4, 8, 16, 32, 64], 100_000_000_000)
        };
        print!("{}", fig8(nodes, samples).to_table());
    }),
    // The per-node sort rate vs nodes (paper §IV-A closing observation:
    // ~5.5 MB/s per node).
    ("terasort", |quick| {
        let nodes: &[usize] = if quick { &[4] } else { &[4, 8, 16] };
        print!("{}", terasort_feed_rate(nodes).to_table());
    }),
    ("ablations", ablations),
];

/// Ablations of four design choices (the same sweep with or without
/// `--quick`: it runs in under a second):
///
/// 1. record feed pipelining on/off, and the feed-cap sweep;
/// 2. SPU work-block size (the paper's 4 KB choice);
/// 3. heartbeat interval's contribution to the Hadoop floor;
/// 4. locality-aware vs FIFO scheduling.
fn ablations(_quick: bool) {
    let nodes = 4;
    let bytes: u64 = 8 << 30;

    println!("# ablation 1 — record feed pipelining (8 GB, 4 nodes, Java mapper)");
    for (label, pipelined) in [("pipelined", true), ("stop-and-wait", false)] {
        let cfg = MrConfig {
            pipelined_reads: pipelined,
            ..MrConfig::default()
        };
        let r = run_encrypt_job(1, nodes, bytes, AesMapper::Java, &cfg);
        println!("{label:>16} {:>10.1} s", r.elapsed.as_secs_f64());
    }

    println!("\n# ablation 1b — feed cap sweep (Cell mapper; linear in 1/cap)");
    for cap_mbps in [4.25, 8.5, 17.0, 34.0] {
        let cfg = MrConfig {
            record_feed_cap: cap_mbps * 1e6,
            ..MrConfig::default()
        };
        let r = run_encrypt_job(2, nodes, bytes, AesMapper::Cell, &cfg);
        println!("{cap_mbps:>13.2} MB/s {:>10.1} s", r.elapsed.as_secs_f64());
    }

    println!("\n# ablation 2 — SPU block size (64 MB offload, warm Cell)");
    let key = job_key();
    let kernel = accelmr_cellbe::AesCtrSpeKernel::new(key, JOB_NONCE);
    for block_kb in [4usize, 8, 16, 32, 48] {
        let Ok(mut m) = CellMachine::new(CellConfig::default(), false);
        m.warm_up();
        let r = m
            .run_data(DataInput::Virtual(64 << 20), &kernel, block_kb * 1024)
            .unwrap();
        println!(
            "{block_kb:>10} KB {:>10.1} MB/s  (dma req {}, peak MFC {})",
            r.throughput_bps() / 1e6,
            r.dma_requests,
            r.peak_mfc_queue
        );
    }

    println!("\n# ablation 3 — heartbeat interval vs tiny-job floor (Pi, 1e6 samples)");
    for hb_secs in [1u64, 3, 6, 12] {
        let cfg = MrConfig {
            heartbeat_interval: accelmr_des::SimDuration::from_secs(hb_secs),
            tt_dead_after: accelmr_des::SimDuration::from_secs(hb_secs * 10),
            ..MrConfig::default()
        };
        let (r, _) = run_pi_job(3, nodes, 1_000_000, PiMapper::Cell, &cfg);
        println!("{hb_secs:>10} s hb {:>10.1} s job", r.elapsed.as_secs_f64());
    }

    // Note: with paper-style splits (split >> block) locality is bounded
    // by round-robin placement at ~1/N regardless of policy; the policy's
    // win shows with block-sized splits (see mapred's locality test).
    println!("\n# ablation 4 — scheduler policy (8 GB, 4 nodes, Cell mapper)");
    for (label, policy) in [
        ("locality-first", SchedulerPolicy::LocalityFirst),
        ("fifo", SchedulerPolicy::Fifo),
    ] {
        let cfg = MrConfig {
            scheduler: policy,
            ..MrConfig::default()
        };
        let r = run_encrypt_job(4, nodes, bytes, AesMapper::Cell, &cfg);
        let frac = r.local_reads as f64 / (r.local_reads + r.remote_reads).max(1) as f64;
        println!(
            "{label:>16} {:>10.1} s  ({:.0}% local reads)",
            r.elapsed.as_secs_f64(),
            frac * 100.0
        );
    }
}
