//! Configuration of the MapReduce-for-Cell framework.

use accelmr_cellbe::SPU_BLOCK;
use accelmr_des::SimDuration;

/// Framework parameters. Defaults model the runtime of de Kruijf &
/// Sankaralingam that the paper wraps behind its second native library,
/// including the overhead the paper calls out: input data is copied again
/// into framework-managed buffers by the PPE before any SPE sees it.
#[derive(Clone, Debug)]
pub struct CellMrConfig {
    /// Framework record granularity, bytes (the unit handed to one SPU map
    /// invocation); a valid SPU block size of the machine's
    /// [`CellConfig`](accelmr_cellbe::CellConfig).
    pub record_size: usize,
    /// PPE bandwidth for the staging copy into framework buffers, B/s;
    /// positive and finite.
    pub staging_bytes_per_sec: f64,
    /// PPE-side bookkeeping per record (queue entry, state update).
    pub per_record_overhead: SimDuration,
}

impl Default for CellMrConfig {
    fn default() -> Self {
        CellMrConfig {
            record_size: SPU_BLOCK,
            staging_bytes_per_sec: 1.6e9,
            per_record_overhead: SimDuration::from_micros(2),
        }
    }
}

impl CellMrConfig {
    /// Time for the PPE to stage `bytes` into framework buffers.
    pub fn staging_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.staging_bytes_per_sec)
    }

    /// Serial PPE bookkeeping time for `records` records.
    pub fn bookkeeping_time(&self, records: u64) -> SimDuration {
        self.per_record_overhead.saturating_mul(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staging_time_linear() {
        let c = CellMrConfig::default();
        assert_eq!(c.staging_time(1_600_000_000).as_nanos(), 1_000_000_000);
        assert_eq!(c.staging_time(0), SimDuration::ZERO);
    }

    #[test]
    fn bookkeeping_scales_with_records() {
        let c = CellMrConfig::default();
        assert_eq!(c.bookkeeping_time(1000), SimDuration::from_millis(2));
    }
}
