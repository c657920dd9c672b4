//! Monte Carlo Pi estimation — the paper's CPU-intensive workload.
//!
//! Each sample draws `(x, y)` uniform in the unit square and tests
//! `x² + y² ≤ 1`; π ≈ 4 · inside / total, with standard error
//! `sqrt(π(4−π)/N)` ≈ 1.64/√N — the O(1/√N) accuracy the paper quotes.
//! Every Pi kernel draws through [`count_inside_auto`]: the Java mapper once
//! per task and the SPU kernel once per SPE, each on its own `(seed,
//! stream)`, and the job's reducer sums the `(inside, total)` pairs. Below
//! [`AUTO_EXACT_LIMIT`] it samples with a four-lane batch loop shaped like
//! the SPU kernel; the straightforward scalar loop (the Hadoop
//! `PiEstimator` port) draws the same numbers and is the tests' reference.

use accelmr_des::Xoshiro256;

/// Counts samples falling inside the quarter circle, one at a time.
pub fn count_inside_scalar(rng: &mut Xoshiro256, samples: u64) -> u64 {
    let mut inside = 0u64;
    for _ in 0..samples {
        let x = rng.next_f64();
        let y = rng.next_f64();
        if x * x + y * y <= 1.0 {
            inside += 1;
        }
    }
    inside
}

/// Counts samples in batches of four lanes, the SPU-style layout. The lane
/// loop is branch-free (comparison folded to 0/1) exactly as the SIMD select
/// instruction would do it.
pub fn count_inside_lanes(rng: &mut Xoshiro256, samples: u64) -> u64 {
    let mut inside = 0u64;
    let quads = samples / 4;
    for _ in 0..quads {
        let mut xs = [0.0f64; 4];
        let mut ys = [0.0f64; 4];
        for l in 0..4 {
            xs[l] = rng.next_f64();
            ys[l] = rng.next_f64();
        }
        let mut hits = 0u64;
        for l in 0..4 {
            hits += (xs[l] * xs[l] + ys[l] * ys[l] <= 1.0) as u64;
        }
        inside += hits;
    }
    inside + count_inside_scalar(rng, samples % 4)
}

/// Largest sample count [`count_inside_auto`] draws one-by-one; above this
/// it switches to the exact-mean normal approximation of the binomial.
pub const AUTO_EXACT_LIMIT: u64 = 1 << 22;

/// Counts inside-circle hits for stream `(seed, stream)`, drawing real
/// samples up to [`AUTO_EXACT_LIMIT`] and using a normal approximation of
/// Binomial(n, π/4) beyond it.
///
/// The paper's distributed runs draw up to 10^13 samples; simulating each
/// draw is pointless because the estimator's distribution is known exactly.
/// The approximation keeps the statistical contract — mean n·π/4, variance
/// n·p(1−p), deterministic per `(seed, stream)` — so the O(1/√N) accuracy
/// claim (and its reproduction) still *emerges* from sampled randomness
/// rather than being hard-coded.
pub fn count_inside_auto(seed: u64, stream: u64, n: u64) -> u64 {
    let mut rng = Xoshiro256::seed_from_u64(seed).fork(stream);
    if n <= AUTO_EXACT_LIMIT {
        return count_inside_lanes(&mut rng, n);
    }
    let p = std::f64::consts::PI / 4.0;
    let mean = n as f64 * p;
    let sd = (n as f64 * p * (1.0 - p)).sqrt();
    // Box-Muller for one standard normal draw.
    let u1 = rng.next_f64().max(f64::MIN_POSITIVE);
    let u2 = rng.next_f64();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let inside = (mean + sd * z).round();
    inside.clamp(0.0, n as f64) as u64
}

/// One standard deviation of the estimator for `n` samples.
pub fn standard_error(n: u64) -> f64 {
    if n == 0 {
        return f64::INFINITY;
    }
    let pi = std::f64::consts::PI;
    (pi * (4.0 - pi) / n as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// The RNG stream `count_inside_auto` draws `(seed, stream)` from.
    fn rng(seed: u64, stream: u64) -> Xoshiro256 {
        Xoshiro256::seed_from_u64(seed).fork(stream)
    }

    fn estimate(inside: u64, samples: u64) -> f64 {
        4.0 * inside as f64 / samples as f64
    }

    #[test]
    fn estimates_converge_within_five_sigma() {
        for &(n, seed) in &[(10_000u64, 1u64), (100_000, 2), (1_000_000, 3)] {
            let err = (estimate(count_inside_scalar(&mut rng(seed, 0), n), n) - PI).abs();
            assert!(
                err < 5.0 * standard_error(n),
                "n={n} err={err} bound={}",
                5.0 * standard_error(n)
            );
        }
    }

    #[test]
    fn lanes_and_scalar_are_statistically_identical() {
        // Same RNG stream, same draw order per coordinate pair, so counts
        // match exactly for multiples of 4 and for ragged tails.
        for n in [40_000, 40_001, 40_002, 40_003] {
            assert_eq!(
                count_inside_scalar(&mut rng(9, 0), n),
                count_inside_lanes(&mut rng(9, 0), n),
                "n={n}"
            );
        }
    }

    #[test]
    fn parallel_split_matches_single_worker_statistics() {
        // 4 workers × 25k samples vs 1 worker × 100k: different streams, so
        // counts differ, but both estimates stay inside the error envelope.
        let whole = count_inside_scalar(&mut rng(5, 0), 100_000);
        let split: u64 = (0..4)
            .map(|w| count_inside_scalar(&mut rng(5, w + 1), 25_000))
            .sum();
        for inside in [whole, split] {
            let err = (estimate(inside, 100_000) - PI).abs();
            assert!(err < 5.0 * standard_error(100_000));
        }
    }

    /// What `JavaPiKernel` and `CellPiKernel` rely on: every task (or SPE)
    /// draws its share through `count_inside_auto` on its own stream and the
    /// reducer sums the counts. The merged estimate stays within 5σ of the
    /// total whether the shares are sampled, approximated, or both.
    #[test]
    fn per_task_streams_merged_through_auto_stay_within_five_sigma() {
        let below = AUTO_EXACT_LIMIT / 64;
        let above = AUTO_EXACT_LIMIT * 16;
        for shares in [
            vec![below; 8],
            vec![above; 8],
            vec![below, above, below, above],
        ] {
            let inside: u64 = (0u64..)
                .zip(&shares)
                .map(|(stream, &n)| count_inside_auto(17, stream, n))
                .sum();
            let total: u64 = shares.iter().sum();
            let err = (estimate(inside, total) - PI).abs();
            assert!(
                err < 5.0 * standard_error(total),
                "shares={shares:?} err={err}"
            );
        }
    }

    #[test]
    fn auto_count_exact_below_limit() {
        let direct = count_inside_lanes(&mut rng(3, 5), 1000);
        assert_eq!(count_inside_auto(3, 5, 1000), direct);
    }

    #[test]
    fn auto_count_approximation_statistics() {
        // Above the limit: estimate must stay inside the 5-sigma envelope
        // and differ across streams (it is a random draw, not a constant).
        let n = 1u64 << 30;
        let a = count_inside_auto(1, 0, n);
        let b = count_inside_auto(1, 1, n);
        assert_ne!(a, b);
        for inside in [a, b] {
            assert!((estimate(inside, n) - PI).abs() < 5.0 * standard_error(n));
        }
        // Deterministic.
        assert_eq!(a, count_inside_auto(1, 0, n));
    }

    #[test]
    fn zero_samples_has_no_estimate() {
        assert_eq!(count_inside_auto(1, 0, 0), 0);
        assert!(standard_error(0).is_infinite());
    }

    #[test]
    fn four_digit_accuracy_near_hundred_million() {
        // The paper: "estimating Pi with 100,000,000 samples produces an
        // actual accuracy of approximately 4 digits". 5σ at 1e8 ≈ 8e-4.
        assert!(5.0 * standard_error(100_000_000) < 1e-3);
    }
}
