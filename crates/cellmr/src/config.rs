//! The MapReduce-for-Cell framework's costs, each a constant. They model
//! the runtime of de Kruijf & Sankaralingam that the paper wraps behind its
//! second native library, including the overhead the paper calls out:
//! input data is copied again into framework-managed buffers by the PPE
//! before any SPE sees it.

use accelmr_cellbe::{check_block_size, SPU_BLOCK};
use accelmr_des::SimDuration;

/// Framework record granularity, bytes (the unit handed to one SPU map
/// invocation); a valid SPU block size, checked when the crate builds.
pub const RECORD_SIZE: usize = SPU_BLOCK;

/// PPE bandwidth for the staging copy into framework buffers, B/s.
pub const STAGING_BYTES_PER_SEC: f64 = 1.6e9;

/// PPE-side bookkeeping per record (queue entry, state update).
pub const PER_RECORD_OVERHEAD: SimDuration = SimDuration::from_micros(2);

const _: () = assert!(check_block_size(RECORD_SIZE).is_ok() && STAGING_BYTES_PER_SEC > 0.0);

/// Carries no setting: the framework is the one the constants above
/// describe. The type exists only as an argument of
/// [`CellMrRuntime::new`], a call surface the benchmark package is built
/// against.
///
/// [`CellMrRuntime::new`]: crate::CellMrRuntime::new
#[derive(Clone, Copy, Debug, Default)]
pub struct CellMrConfig {}

/// Time for the PPE to stage `bytes` into framework buffers.
pub fn staging_time(bytes: u64) -> SimDuration {
    SimDuration::from_secs_f64(bytes as f64 / STAGING_BYTES_PER_SEC)
}

/// Serial PPE bookkeeping time for `records` records.
pub fn bookkeeping_time(records: u64) -> SimDuration {
    PER_RECORD_OVERHEAD.saturating_mul(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staging_time_linear() {
        assert_eq!(staging_time(1_600_000_000).as_nanos(), 1_000_000_000);
        assert_eq!(staging_time(0), SimDuration::ZERO);
    }

    #[test]
    fn bookkeeping_scales_with_records() {
        assert_eq!(bookkeeping_time(1000), SimDuration::from_millis(2));
    }
}
