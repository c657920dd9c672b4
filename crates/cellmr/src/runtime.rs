//! The MapReduce-for-Cell runtime.
//!
//! Mirrors the framework the paper links against for the single-node
//! "MapReduce Cell" configuration of Figure 2. The paper runs it map-only:
//! the PPE first copies input into framework-managed buffers (the overhead
//! the paper measures), then hands records to the SPEs. One entry point,
//! [`CellMrRuntime::run_map`] (and [`CellMrRuntime::run_map_at`] for a
//! record of a larger stream), serves both Figure 2's curve and the
//! framework mapper; output bytes are produced for real in materialized
//! mode.

use std::convert::Infallible;

use accelmr_cellbe::machine::{CellMachine, DataInput, OffloadReport};
use accelmr_cellbe::{CellConfig, CellConfigError, DataKernel};
use accelmr_des::SimDuration;

use crate::config::{bookkeeping_time, staging_time, CellMrConfig, RECORD_SIZE};

/// Phase-by-phase timing of one framework job.
#[derive(Clone, Debug)]
pub struct CellMrReport {
    /// PPE staging copy into framework buffers.
    pub staging: SimDuration,
    /// SPU map phase (includes DMA, from the machine model).
    pub map: SimDuration,
    /// Offload start-up (context + session).
    pub startup: SimDuration,
    /// End-to-end job time.
    pub total: SimDuration,
    /// Records processed.
    pub records: u64,
}

impl CellMrReport {
    /// Effective throughput over `bytes` input.
    pub fn throughput_bps(&self, bytes: u64) -> f64 {
        if self.total == SimDuration::ZERO {
            0.0
        } else {
            bytes as f64 / self.total.as_secs_f64()
        }
    }
}

/// The framework runtime: owns a [`CellMachine`].
pub struct CellMrRuntime {
    machine: CellMachine,
}

impl CellMrRuntime {
    /// Builds a runtime over a Cell machine model.
    pub fn new(cell: CellConfig, _: CellMrConfig, materialized: bool) -> Result<Self, Infallible> {
        let Ok(machine) = CellMachine::new(cell, materialized);
        Ok(CellMrRuntime { machine })
    }

    /// Direct access to the underlying machine (warm-up, inspection).
    pub fn machine_mut(&mut self) -> &mut CellMachine {
        &mut self.machine
    }

    /// Map-only job over raw bytes (the encryption workload). Semantics
    /// match [`CellMachine::run_data`] plus the framework's staging copy and
    /// per-record bookkeeping; returns the machine report (with output in
    /// materialized mode) and the framework report with phase breakdown.
    pub fn run_map(
        &mut self,
        input: DataInput<'_>,
        kernel: &dyn DataKernel,
    ) -> Result<(OffloadReport, CellMrReport), CellConfigError> {
        self.run_map_at(input, kernel, 0)
    }

    /// Like [`CellMrRuntime::run_map`], with kernel offsets shifted by
    /// `base_offset` (records of a larger logical stream).
    pub fn run_map_at(
        &mut self,
        input: DataInput<'_>,
        kernel: &dyn DataKernel,
        base_offset: u64,
    ) -> Result<(OffloadReport, CellMrReport), CellConfigError> {
        let bytes = input.len();
        let records = bytes.div_ceil(RECORD_SIZE as u64);
        let staging = staging_time(bytes);
        let machine_report = self
            .machine
            .run_data_at(input, kernel, RECORD_SIZE, base_offset)?;

        // The PPE enqueues records while SPEs drain them; whichever is
        // slower bounds the map phase.
        let machine_body = machine_report.elapsed - machine_report.startup;
        let ppe_serial = bookkeeping_time(records);
        let map = machine_body.max(ppe_serial);

        let total = machine_report.startup + staging + map;
        let report = CellMrReport {
            staging,
            map,
            startup: machine_report.startup,
            total,
            records,
        };
        Ok((machine_report, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelmr_cellbe::{AesCtrSpeKernel, SPU_BLOCK};
    use accelmr_kernels::aes::modes::ctr_xor;
    use accelmr_kernels::{fill_deterministic, Aes128, AesImpl};
    use std::sync::Arc;

    fn runtime(materialized: bool) -> CellMrRuntime {
        CellMrRuntime::new(CellConfig::default(), CellMrConfig::default(), materialized).unwrap()
    }

    #[test]
    fn map_only_encryption_is_correct_and_slower_than_direct() {
        let key = Arc::new(Aes128::new(b"cellmr-test-key!"));
        let kernel = AesCtrSpeKernel::new(key.clone(), 3);

        let mut input = vec![0u8; 256 * 1024];
        fill_deterministic(5, 0, &mut input);

        let mut fw = runtime(true);
        fw.machine_mut().warm_up();
        let (machine_report, fw_report) = fw.run_map(DataInput::Real(&input), &kernel).unwrap();

        let mut expect = input.clone();
        ctr_xor(&key, AesImpl::Scalar, 3, 0, &mut expect);
        assert_eq!(machine_report.output.as_deref(), Some(expect.as_slice()));

        // The framework total includes the staging copy the paper calls out,
        // so it must exceed the raw machine run.
        assert!(fw_report.total > machine_report.elapsed);
        assert_eq!(fw_report.records, (256 * 1024 / SPU_BLOCK) as u64);
    }

    #[test]
    fn framework_asymptotic_bandwidth_matches_figure_2() {
        // Large warm run: direct ≈ 700 MB/s, framework ≈ 430-530 MB/s
        // (staging serializes with map).
        let key = Arc::new(Aes128::new(&[0u8; 16]));
        let kernel = AesCtrSpeKernel::new(key, 0);
        let mut fw = runtime(false);
        fw.machine_mut().warm_up();
        let bytes = 256u64 << 20;
        let (_, report) = fw.run_map(DataInput::Virtual(bytes), &kernel).unwrap();
        let mbps = report.throughput_bps(bytes) / 1e6;
        assert!((400.0..560.0).contains(&mbps), "framework rate {mbps} MB/s");
    }
}
