//! The runners behind the `figures` binary: the paper's Figures 2 and 4-8
//! and its terasort feed rate (each a sweep from `hybrid::experiments`,
//! scaled down under `--quick`), and ablations of four design choices.

use accelmr_cellbe::{CellConfig, CellMachine, DataInput};
use accelmr_hybrid::experiments;
use accelmr_hybrid::experiments::dist::{run_encrypt_job, run_pi_job, AesMapper, PiMapper};
use accelmr_hybrid::kernels::{job_key, JOB_NONCE};
use accelmr_mapred::{MrConfig, SchedulerPolicy};

/// `(name, runner)`: the runner prints its series to stdout, scaled down
/// when its argument (`--quick`) is set.
pub type Figure = (&'static str, fn(bool));

/// Everything `figures all` regenerates, in order.
pub const FIGURES: [Figure; 8] = [
    ("fig2", fig2),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("terasort", terasort),
    ("ablations", ablations),
];

/// Figure 2: raw node encryption bandwidth vs size.
fn fig2(quick: bool) {
    let mut params = experiments::Fig2Params::default();
    if quick {
        params.sizes_mb = vec![1, 16, 256];
    }
    print!("{}", experiments::fig2(&params).to_table());
}

/// Figure 4: distributed encryption, proportional data set (1 GB per
/// mapper, 2 mappers per node).
fn fig4(quick: bool) {
    let mut params = experiments::DistEncryptParams::default();
    if quick {
        params.nodes = vec![4, 12];
    }
    print!("{}", experiments::fig4(&params).to_table());
}

/// Figure 5: distributed encryption of a fixed 120 GB data set across
/// 4..64 nodes (Empty / Java / Cell mappers).
fn fig5(quick: bool) {
    let mut params = experiments::DistEncryptParams {
        nodes: vec![4, 8, 16, 32, 64],
        ..Default::default()
    };
    if quick {
        params.nodes = vec![4, 16];
        params.total_gb = 24;
    }
    print!("{}", experiments::fig5(&params).to_table());
}

/// Figure 6: raw node Pi estimation performance.
fn fig6(quick: bool) {
    let mut params = experiments::Fig6Params::default();
    if quick {
        params.samples = vec![1_000, 1_000_000, 1_000_000_000];
    }
    print!("{}", experiments::fig6(&params).to_table());
}

/// Figure 7: distributed Pi estimation on a fixed 50-node cluster, sweeping
/// the sample count.
fn fig7(quick: bool) {
    let mut params = experiments::DistPiParams::default();
    if quick {
        params.fig7_nodes = 8;
        params.fig7_samples = vec![30_000, 30_000_000, 30_000_000_000];
    }
    print!("{}", experiments::fig7(&params).to_table());
}

/// Figure 8: distributed Pi estimation at 1e11 samples across 4..64 nodes
/// (Java / Cell / Cell with 10x samples).
fn fig8(quick: bool) {
    let mut params = experiments::DistPiParams::default();
    if quick {
        params.fig8_nodes = vec![4, 16];
        params.fig8_samples = 10_000_000_000;
        params.fig8_tenx = 100_000_000_000;
    }
    print!("{}", experiments::fig8(&params).to_table());
}

/// The Terasort-style per-node feed-rate experiment (paper §IV-A closing
/// observation: ~5.5 MB/s per node).
fn terasort(quick: bool) {
    let mut params = experiments::TerasortParams::default();
    if quick {
        params.nodes = vec![4];
    }
    print!("{}", experiments::terasort_feed_rate(&params).to_table());
}

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
            record_feed_cap: Some(cap_mbps * 1e6),
            ..MrConfig::default()
        };
        let r = run_encrypt_job(2, nodes, bytes, AesMapper::Cell, &cfg);
        println!("{cap_mbps:>13.2} MB/s {:>10.1} s", r.elapsed.as_secs_f64());
    }

    println!("\n# ablation 2 — SPU block size (64 MB offload, warm Cell)");
    let key = job_key();
    let kernel = accelmr_cellbe::AesCtrSpeKernel::new(key, JOB_NONCE);
    for block_kb in [4usize, 8, 16, 32, 48] {
        let mut m = CellMachine::new(CellConfig::default(), false).unwrap();
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
