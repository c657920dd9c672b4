//! The Cell BE's hardware, each value a constant.
//!
//! They are the QS22 blades of the paper's MareIncognito testbed: a
//! [`CELL_CLOCK_HZ`] (3.2 GHz) Cell with eight SPEs, 256 KB local stores,
//! an MFC per SPE with a 16-deep command queue and 16 KB maximum transfer
//! size, and an EIB/memory interface able to move 8 bytes per cycle in each
//! direction (25.6 GB/s). [`check_block_size`] states the local-store
//! budget a caller's block size must fit.

use accelmr_des::SimDuration;
use accelmr_kernels::cost::CELL_CLOCK_HZ;

/// SPU work-block size, bytes (paper: 4 KB): the block the direct offload
/// library stripes over the SPEs and the framework's record.
pub const SPU_BLOCK: usize = 4096;

/// Number of Synergistic Processing Elements.
pub const N_SPES: usize = 8;
/// Local store capacity per SPE, bytes.
pub const LOCAL_STORE_BYTES: usize = 256 * 1024;
/// Bytes reserved in each local store for kernel code + stack.
pub const CODE_STACK_BYTES: usize = 64 * 1024;
/// Local-store bytes usable for data buffers.
pub const USABLE_LS_BYTES: usize = LOCAL_STORE_BYTES - CODE_STACK_BYTES;
/// Maximum size of one MFC DMA transfer, bytes.
pub const DMA_MAX_TRANSFER: usize = 16 * 1024;
/// MFC command-queue depth (in-flight DMA requests per SPE).
pub const MFC_QUEUE_DEPTH: usize = 16;
/// Memory-interface bandwidth shared by all SPEs, bytes/second: 8 bytes
/// per cycle.
pub const BUS_BYTES_PER_SEC: f64 = 8.0 * CELL_CLOCK_HZ;
/// Fixed latency of one DMA request before data starts flowing.
pub const DMA_LATENCY: SimDuration = SimDuration::from_nanos(120);
/// PPE-side cost to enqueue one work block to an SPU (mailbox write,
/// bookkeeping).
pub const DISPATCH_OVERHEAD: SimDuration = SimDuration::from_nanos(400);
/// One-time cost of creating SPU contexts and uploading kernel code —
/// paid once per process; this is what makes the small-N end of the
/// paper's Figure 6 so slow.
pub const CONTEXT_CREATE: SimDuration = SimDuration::from_millis(450);
/// Per-offload-session cost (argument marshalling, run/stop mailbox
/// round-trips) — this shapes the small-size ramp of Figure 2.
pub const SESSION_START: SimDuration = SimDuration::from_millis(3);
/// Required DMA alignment, bytes (Cell SIMD: 16-byte boundaries).
pub const ALIGNMENT: usize = 16;

// A degenerate constant fails the build, not a run.
const _: () = assert!(
    N_SPES > 0
        && CELL_CLOCK_HZ > 0.0
        && BUS_BYTES_PER_SEC > 0.0
        && DMA_MAX_TRANSFER > 0
        && MFC_QUEUE_DEPTH > 0
        && CODE_STACK_BYTES < LOCAL_STORE_BYTES
        && ALIGNMENT.is_power_of_two(),
    "degenerate Cell constant"
);

/// Carries no setting: the Cell is the QS22's, stated by the constants
/// above. The type exists only as the argument of [`CellMachine::new`]
/// and `CellMrRuntime::new`, a call surface the benchmark package is built
/// against.
///
/// [`CellMachine::new`]: crate::CellMachine::new
#[derive(Clone, Copy, Debug, Default)]
pub struct CellConfig {}

/// A block size the local store cannot take.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellConfigError {
    /// The block size is zero.
    Degenerate(&'static str),
    /// Requested SPU buffers don't fit in the local store.
    LocalStoreOverflow {
        /// Bytes the buffering scheme needs.
        needed: usize,
        /// Bytes available after code/stack reservation.
        available: usize,
    },
    /// A buffer is not aligned to [`ALIGNMENT`].
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

/// Checks that `block_size` is a valid SPU block: non-zero, a multiple of
/// [`ALIGNMENT`], and small enough that four buffers of it fit the usable
/// local store. This is the one statement of the local-store budget. The
/// four are the direct library's 2 in + 2 out double buffers, and the
/// accepted sizes follow them; the simulated pipeline transforms each block
/// in place, so it only ever fills two of the four.
pub const fn check_block_size(block_size: usize) -> Result<(), CellConfigError> {
    if block_size == 0 {
        return Err(CellConfigError::Degenerate("block_size = 0"));
    }
    if !block_size.is_multiple_of(ALIGNMENT) {
        return Err(CellConfigError::Misaligned("block_size"));
    }
    let needed = 4 * block_size;
    if needed > USABLE_LS_BYTES {
        return Err(CellConfigError::LocalStoreOverflow {
            needed,
            available: USABLE_LS_BYTES,
        });
    }
    Ok(())
}

/// Converts SPU cycles to simulated time.
#[inline]
pub fn cycles(cycles: f64) -> SimDuration {
    SimDuration::from_secs_f64(cycles / CELL_CLOCK_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_hardware() {
        assert_eq!(N_SPES, 8);
        assert_eq!(LOCAL_STORE_BYTES, 256 * 1024);
        assert_eq!(DMA_MAX_TRANSFER, 16 * 1024);
        assert_eq!(MFC_QUEUE_DEPTH, 16);
        // 8 bytes/cycle at 3.2 GHz, to the bit.
        assert_eq!(CELL_CLOCK_HZ.to_bits(), 3.2e9f64.to_bits());
        assert_eq!(BUS_BYTES_PER_SEC.to_bits(), 25.6e9f64.to_bits());
    }

    #[test]
    fn block_size_check() {
        check_block_size(SPU_BLOCK).unwrap();
        // 4 * 48K = 192K <= 192K usable: fits exactly.
        check_block_size(48 * 1024).unwrap();
        assert!(matches!(
            check_block_size(64 * 1024),
            Err(CellConfigError::LocalStoreOverflow { .. })
        ));
        assert!(matches!(
            check_block_size(100),
            Err(CellConfigError::Misaligned(_))
        ));
        assert!(check_block_size(0).is_err());
        // Exactly the aligned sizes of which four fit are accepted.
        for block in 1..=64 * 1024 {
            let fits = block % ALIGNMENT == 0 && 4 * block <= USABLE_LS_BYTES;
            assert_eq!(check_block_size(block).is_ok(), fits, "{block}");
        }
    }

    #[test]
    fn time_conversions() {
        assert_eq!(cycles(3.2e9).as_nanos(), 1_000_000_000);
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
