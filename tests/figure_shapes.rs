//! Scaled-down regenerations of every distributed figure, asserting the
//! paper's qualitative claims (who wins, where curves flatten, which series
//! coincide). The full-scale sweeps live in the bench harness; these keep
//! the claims under continuous test.

use accelmr::hybrid::experiments::{dist, fig2, fig4, fig5, fig6, fig7, fig8};
use accelmr::prelude::*;

fn y(series: &accelmr::hybrid::experiments::Series, x: f64) -> f64 {
    series
        .points
        .iter()
        .find(|&&(px, _)| (px - x).abs() < 1e-9)
        .map(|&(_, y)| y)
        .unwrap_or_else(|| panic!("missing x={x} in {}", series.label))
}

#[test]
fn fig2_shape() {
    let fig = fig2(&[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]);
    let cell = fig.series("Cell BE").unwrap();
    let cellmr = fig.series("MapReduce Cell").unwrap();
    let ppc = fig.series("PPC").unwrap();
    let p6 = fig.series("Power 6").unwrap();
    // Paper ordering at the large end: Cell > CellMR > Power6 > PPC.
    assert!(y(cell, 1024.0) > y(cellmr, 1024.0));
    assert!(y(cellmr, 1024.0) > y(p6, 1024.0));
    assert!(y(p6, 1024.0) > y(ppc, 1024.0));
    // Cell peaks near 700 MB/s; Power6 near 45; PPC near 11.
    assert!((650.0..730.0).contains(&y(cell, 1024.0)));
    assert!((40.0..50.0).contains(&y(p6, 1024.0)));
    assert!((9.0..13.0).contains(&y(ppc, 1024.0)));
}

#[test]
fn fig6_shape() {
    let fig = fig6(&[
        1_000,
        10_000,
        100_000,
        1_000_000,
        10_000_000,
        100_000_000,
        1_000_000_000,
    ]);
    let cell = fig.series("Cell BE").unwrap();
    let p6 = fig.series("Power 6").unwrap();
    let ppc = fig.series("PPC").unwrap();
    // Start-up buries the Cell at small N...
    assert!(y(cell, 1e3) < y(ppc, 1e3));
    // ...and it dominates by ≥1 order at large N (paper: "one order of
    // magnitude faster than the Java kernel running on top of the Power6").
    assert!(y(cell, 1e9) > 10.0 * y(p6, 1e9));
    assert!(y(p6, 1e9) > y(ppc, 1e9));
    // Scalar engines are flat (no warm-up modeled): rate at 1e5 ≈ rate 1e9.
    let flat = y(p6, 1e5) / y(p6, 1e9);
    assert!((0.99..1.01).contains(&flat));
}

#[test]
fn fig4_shape_proportional_flat_and_equal() {
    // Fig. 4 runs 1 GB per mapper, as the paper.
    let fig = fig4(&[2, 4, 8]);
    let java = fig.series("Java Mapper").unwrap();
    let cell = fig.series("Cell BE Mapper").unwrap();
    for &n in &[2.0, 4.0, 8.0] {
        let ratio = y(java, n) / y(cell, n);
        // "the Cell-accelerated mapper and the Java mapper offer a very
        // similar performance"
        assert!((0.8..1.3).contains(&ratio), "n={n} ratio={ratio:.2}");
    }
    // Proportional load ⇒ roughly flat time across cluster sizes.
    let flatness = y(java, 8.0) / y(java, 2.0);
    assert!((0.7..1.3).contains(&flatness), "flatness {flatness:.2}");
    // And the absolute level is feed-dominated: 1 GB / 8.5 MB/s ≈ 126 s,
    // plus runtime floor. The paper reads ~110-140 s.
    let t = y(java, 4.0);
    assert!((110.0..190.0).contains(&t), "t={t}");
}

#[test]
fn fig5_shape_fixed_dataset_scales_and_series_coincide() {
    let fig = fig5(&[2, 4, 8], 16);
    let java = fig.series("Java Mapper").unwrap();
    let cell = fig.series("Cell BE Mapper").unwrap();
    let empty = fig.series("Empty Mapper").unwrap();
    // Doubling nodes roughly halves time (log-log linear, paper Fig. 5).
    let scaling = y(java, 2.0) / y(java, 8.0);
    assert!((2.8..4.6).contains(&scaling), "scaling {scaling:.2}");
    // The three series nearly coincide; Empty is never slower.
    for &n in &[2.0, 4.0, 8.0] {
        assert!(y(empty, n) <= y(java, n) * 1.05);
        let spread = y(java, n) / y(cell, n);
        assert!((0.8..1.3).contains(&spread), "n={n} spread={spread:.2}");
    }
}

#[test]
fn fig7_shape_floor_then_divergence() {
    let fig = fig7(8, &[30_000, 3_000_000, 300_000_000, 30_000_000_000]);
    let java = fig.series("Java Mapper").unwrap();
    let cell = fig.series("Cell BE Mapper").unwrap();
    // Small N: both on the runtime floor, within noise of each other.
    let floor_ratio = y(java, 3e4) / y(cell, 3e4);
    assert!((0.6..1.6).contains(&floor_ratio), "{floor_ratio:.2}");
    // Large N: Java left the floor long ago, Cell much later.
    assert!(y(java, 3e10) > 10.0 * y(cell, 3e10));
    // Java grows ~linearly between the two largest points.
    let growth = y(java, 3e10) / y(java, 3e8);
    assert!((50.0..150.0).contains(&growth), "growth {growth:.1}");
}

#[test]
fn fig8_shape_orders_of_magnitude_and_flattening() {
    // 1e10 samples, scaled from the paper's 1e11; the 10x series runs 1e11.
    let fig = fig8(&[4, 8, 16, 32], 10_000_000_000);
    assert_eq!(
        fig.title,
        "Distributed Pi estimation performance: 1e10 samples"
    );
    let java = fig.series("Java Mapper").unwrap();
    let cell = fig.series("Cell BE Mapper").unwrap();
    let cell10 = fig.series("Cell BE Mapper (10x samples)").unwrap();
    // 1-2 orders of magnitude between Java and Cell (paper's claim).
    for &n in &[4.0, 8.0, 16.0, 32.0] {
        let ratio = y(java, n) / y(cell, n);
        assert!((8.0..400.0).contains(&ratio), "n={n} ratio={ratio:.1}");
    }
    // Java keeps scaling with nodes...
    assert!(y(java, 4.0) / y(java, 32.0) > 5.0);
    // ...while the Cell mapper flattens on the runtime floor: going from 16
    // to 32 nodes buys it much less than linear.
    let cell_tail = y(cell, 16.0) / y(cell, 32.0);
    assert!(cell_tail < 1.6, "cell still scaling: {cell_tail:.2}");
    // The 10x run keeps scaling further out (its compute is 10x bigger).
    let tenx_scaling = y(cell10, 4.0) / y(cell10, 32.0);
    assert!(tenx_scaling > 3.0, "10x scaling {tenx_scaling:.2}");
}

#[test]
fn empty_mapper_isolates_runtime_overhead() {
    // EmptyMapper ≈ Java ≈ Cell at any fixed size (paper: "the difference
    // ... is really small").
    let mr = MrConfig::default();
    let bytes = 8u64 << 30;
    let empty = dist::run_encrypt_job(11, 4, bytes, dist::AesMapper::Empty, &mr);
    let cell = dist::run_encrypt_job(12, 4, bytes, dist::AesMapper::Cell, &mr);
    let gap = cell.elapsed.as_secs_f64() / empty.elapsed.as_secs_f64();
    assert!((0.95..1.25).contains(&gap), "gap {gap:.2}");
}
