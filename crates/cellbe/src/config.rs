//! Cell BE machine parameters.
//!
//! Defaults reflect the QS22 blades of the paper's MareIncognito testbed:
//! a 3.2 GHz Cell with eight SPEs, 256 KB local stores, an MFC per SPE with
//! a 16-deep command queue and 16 KB maximum transfer size, and an
//! EIB/memory interface able to move 8 bytes per cycle in each direction
//! (25.6 GB/s).

use accelmr_des::SimDuration;

/// SPU work-block size, bytes (paper: 4 KB): the block the direct offload
/// library stripes over the SPEs and the framework's record.
pub const SPU_BLOCK: usize = 4096;

/// Static description of one Cell BE processor.
#[derive(Clone, Debug)]
pub struct CellConfig {
    /// Core clock, Hz (PPE and SPEs share it).
    pub clock_hz: f64,
    /// Number of Synergistic Processing Elements.
    pub n_spes: usize,
    /// Local store capacity per SPE, bytes.
    pub local_store_bytes: usize,
    /// Bytes reserved in each local store for kernel code + stack.
    pub code_stack_bytes: usize,
    /// Maximum size of one MFC DMA transfer, bytes.
    pub dma_max_transfer: usize,
    /// MFC command-queue depth (in-flight DMA requests per SPE).
    pub mfc_queue_depth: usize,
    /// Memory-interface bandwidth shared by all SPEs, bytes/second.
    pub bus_bytes_per_sec: f64,
    /// Fixed latency of one DMA request before data starts flowing.
    pub dma_latency: SimDuration,
    /// PPE-side cost to enqueue one work block to an SPU (mailbox write,
    /// bookkeeping).
    pub dispatch_overhead: SimDuration,
    /// One-time cost of creating SPU contexts and uploading kernel code —
    /// paid once per process; this is what makes the small-N end of the
    /// paper's Figure 6 so slow.
    pub context_create: SimDuration,
    /// Per-offload-session cost (argument marshalling, run/stop mailbox
    /// round-trips) — this shapes the small-size ramp of Figure 2.
    pub session_start: SimDuration,
    /// Required DMA alignment, bytes (Cell SIMD: 16-byte boundaries).
    pub alignment: usize,
}

impl Default for CellConfig {
    fn default() -> Self {
        CellConfig {
            clock_hz: 3.2e9,
            n_spes: 8,
            local_store_bytes: 256 * 1024,
            code_stack_bytes: 64 * 1024,
            dma_max_transfer: 16 * 1024,
            mfc_queue_depth: 16,
            bus_bytes_per_sec: 25.6e9,
            dma_latency: SimDuration::from_nanos(120),
            dispatch_overhead: SimDuration::from_nanos(400),
            context_create: SimDuration::from_millis(450),
            session_start: SimDuration::from_millis(3),
            alignment: 16,
        }
    }
}

/// Errors from validating a configuration or a job against it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellConfigError {
    /// A structural parameter is zero or otherwise degenerate.
    Degenerate(&'static str),
    /// Requested SPU buffers don't fit in the local store.
    LocalStoreOverflow {
        /// Bytes the buffering scheme needs.
        needed: usize,
        /// Bytes available after code/stack reservation.
        available: usize,
    },
    /// A buffer is not aligned to [`CellConfig::alignment`].
    Misaligned(&'static str),
}

impl std::fmt::Display for CellConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellConfigError::Degenerate(what) => write!(f, "degenerate config: {what}"),
            CellConfigError::LocalStoreOverflow { needed, available } => write!(
                f,
                "local store overflow: need {needed} bytes, have {available}"
            ),
            CellConfigError::Misaligned(what) => write!(f, "misaligned: {what}"),
        }
    }
}

impl std::error::Error for CellConfigError {}

impl CellConfig {
    /// Validates structural invariants.
    pub fn validate(&self) -> Result<(), CellConfigError> {
        if self.n_spes == 0 {
            return Err(CellConfigError::Degenerate("n_spes = 0"));
        }
        if self.clock_hz <= 0.0 || self.clock_hz.is_nan() {
            return Err(CellConfigError::Degenerate("clock_hz <= 0"));
        }
        if self.bus_bytes_per_sec <= 0.0 || self.bus_bytes_per_sec.is_nan() {
            return Err(CellConfigError::Degenerate("bus bandwidth <= 0"));
        }
        if self.dma_max_transfer == 0 || self.mfc_queue_depth == 0 {
            return Err(CellConfigError::Degenerate("MFC parameters zero"));
        }
        if self.local_store_bytes <= self.code_stack_bytes {
            return Err(CellConfigError::Degenerate(
                "local store smaller than code/stack reservation",
            ));
        }
        if self.alignment == 0 || !self.alignment.is_power_of_two() {
            return Err(CellConfigError::Degenerate("alignment not a power of two"));
        }
        Ok(())
    }

    /// Local-store bytes usable for data buffers.
    ///
    /// # Panics
    /// If the code/stack reservation exceeds the local store, which
    /// [`Self::validate`] rejects.
    pub fn usable_ls_bytes(&self) -> usize {
        self.local_store_bytes
            .checked_sub(self.code_stack_bytes)
            .expect("code/stack reservation exceeds capacity")
    }

    /// Checks that `block_size` is a valid SPU block: non-zero, a multiple
    /// of [`Self::alignment`], and small enough that four buffers of it fit
    /// the usable local store. This is the one statement of the
    /// local-store budget. The four are the direct library's 2 in + 2 out
    /// double buffers, and the accepted sizes follow them; the simulated
    /// pipeline transforms each block in place, so it only ever fills two
    /// of the four.
    pub fn check_block_size(&self, block_size: usize) -> Result<(), CellConfigError> {
        if block_size == 0 {
            return Err(CellConfigError::Degenerate("block_size = 0"));
        }
        if !block_size.is_multiple_of(self.alignment) {
            return Err(CellConfigError::Misaligned("block_size"));
        }
        let needed = 4 * block_size;
        let available = self.usable_ls_bytes();
        if needed > available {
            return Err(CellConfigError::LocalStoreOverflow { needed, available });
        }
        Ok(())
    }

    /// Converts SPU cycles to simulated time.
    #[inline]
    pub fn cycles(&self, cycles: f64) -> SimDuration {
        SimDuration::from_secs_f64(cycles / self.clock_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_hardware() {
        let c = CellConfig::default();
        c.validate().unwrap();
        assert_eq!(c.n_spes, 8);
        assert_eq!(c.local_store_bytes, 256 * 1024);
        assert_eq!(c.dma_max_transfer, 16 * 1024);
        assert_eq!(c.mfc_queue_depth, 16);
        // 8 bytes/cycle at 3.2 GHz.
        assert!((c.bus_bytes_per_sec - 8.0 * 3.2e9).abs() < 1.0);
    }

    #[test]
    fn validation_catches_degenerate_configs() {
        let c = CellConfig {
            n_spes: 0,
            ..CellConfig::default()
        };
        assert!(matches!(c.validate(), Err(CellConfigError::Degenerate(_))));

        let c = CellConfig {
            code_stack_bytes: CellConfig::default().local_store_bytes,
            ..CellConfig::default()
        };
        assert!(c.validate().is_err());

        let c = CellConfig {
            alignment: 3,
            ..CellConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn block_size_check() {
        let c = CellConfig::default();
        c.check_block_size(SPU_BLOCK).unwrap();
        // 4 * 48K = 192K <= 192K usable: fits exactly.
        c.check_block_size(48 * 1024).unwrap();
        assert!(matches!(
            c.check_block_size(64 * 1024),
            Err(CellConfigError::LocalStoreOverflow { .. })
        ));
        assert!(matches!(
            c.check_block_size(100),
            Err(CellConfigError::Misaligned(_))
        ));
        assert!(c.check_block_size(0).is_err());
        // Exactly the aligned sizes of which four fit are accepted.
        for block in 1..=64 * 1024 {
            let fits = block % c.alignment == 0 && 4 * block <= c.usable_ls_bytes();
            assert_eq!(c.check_block_size(block).is_ok(), fits, "{block}");
        }
    }

    #[test]
    fn time_conversions() {
        let c = CellConfig::default();
        assert_eq!(c.cycles(3.2e9).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn error_display() {
        let e = CellConfigError::LocalStoreOverflow {
            needed: 10,
            available: 5,
        };
        assert!(e.to_string().contains("overflow"));
    }
}
