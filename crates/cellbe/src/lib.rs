//! # accelmr-cellbe — Cell Broadband Engine simulator
//!
//! A functional + timing model of the Cell BE processor the paper's QS22
//! blades carry: one PPE and eight SPEs with 256 KB private local stores,
//! per-SPE MFC DMA queues (16 commands deep, ≤16 KB per transfer), and a
//! shared memory interface moving 8 bytes/cycle each way at 3.2 GHz.
//!
//! The crate ships the paper's "direct" SPE offload library: a
//! double-buffered runtime ([`CellMachine::run_data`]) that stripes aligned
//! blocks across SPEs, overlapping DMA with compute, plus a compute-parallel
//! path ([`CellMachine::run_compute`]) for workloads like Monte Carlo Pi.
//! Both pay one start-up rule, [`CellMachine::start_session`]. A data run
//! keeps its whole state — SPE table, bus, completion heap, report — in one
//! private pipeline value whose methods are the stages: fetch, compute,
//! put. [`check_block_size`] is the one statement of the local-store
//! budget. The hardware is fixed: every rate, size and cost is a constant
//! in [`config`], and no type carries a setting. In materialized mode each SPE holds two block-sized
//! buffers and kernels really execute on bytes that traveled through them,
//! so end-to-end tests can verify real ciphertext; in virtual mode the
//! identical event path computes timing only. A closed-form [`estimate`]
//! module mirrors the event model for the distributed experiments' fast
//! path and is property-tested against it.

pub mod config;
pub mod estimate;
pub mod kernel;
pub mod machine;

pub use config::{check_block_size, CellConfig, CellConfigError, SPU_BLOCK};
pub use kernel::{AesCtrSpeKernel, ComputeKernel, DataKernel, IdentityKernel, PiSpeKernel};
pub use machine::{CellMachine, DataInput, OffloadReport};

/// The SPE local store as a whole: the budget [`check_block_size`] states,
/// and the two buffers per SPE a materialized machine moves bytes through.
#[cfg(test)]
mod localstore {
    mod tests {
        use crate::config::{ALIGNMENT, USABLE_LS_BYTES};
        use crate::{check_block_size, AesCtrSpeKernel, CellConfig, CellConfigError, CellMachine};
        use crate::{DataInput, DataKernel, IdentityKernel};
        use accelmr_kernels::aes::modes::ctr_xor;
        use accelmr_kernels::{fill_deterministic, Aes128, AesImpl};
        use std::sync::Arc;

        /// The largest block whose four buffers fit the 192 KiB left of a
        /// 256 KiB local store once 64 KiB is reserved for code and stack.
        const LARGEST: usize = 48 * 1024;

        fn materialized() -> CellMachine {
            CellMachine::new(CellConfig::default(), true).unwrap()
        }

        fn run(
            m: &mut CellMachine,
            input: &[u8],
            kernel: &dyn DataKernel,
            block: usize,
        ) -> Vec<u8> {
            let r = m.run_data(DataInput::Real(input), kernel, block).unwrap();
            r.output.expect("materialized run yields output")
        }

        #[test]
        fn alloc_respects_alignment_and_capacity() {
            assert_eq!(USABLE_LS_BYTES, 196_608);
            assert_eq!(ALIGNMENT, 16);
            check_block_size(16).unwrap();
            check_block_size(LARGEST).unwrap();
            assert!(matches!(
                check_block_size(LARGEST + 8),
                Err(CellConfigError::Misaligned(_))
            ));
            // Four of the next aligned size would eat into the reservation.
            assert_eq!(
                check_block_size(LARGEST + 16),
                Err(CellConfigError::LocalStoreOverflow {
                    needed: 196_672,
                    available: 196_608
                })
            );
            // The largest accepted block fits the machine's buffers; the
            // next is refused.
            let mut input = vec![0u8; 5 * LARGEST + 1_000];
            fill_deterministic(3, 0, &mut input);
            let mut m = materialized();
            let identity = IdentityKernel::new(1.0);
            assert_eq!(run(&mut m, &input, &identity, LARGEST), input);
            assert!(m
                .run_data(DataInput::Real(&input), &identity, LARGEST + 16)
                .is_err());
        }

        #[test]
        fn reset_reclaims_space() {
            // Blocks of every size up to the largest, in any order: every
            // session finds the same two buffers per SPE free again.
            let key = Arc::new(Aes128::new(b"local-store-test"));
            let kernel = AesCtrSpeKernel::new(key.clone(), 2);
            let mut input = vec![0u8; 3 * LARGEST + 3_000];
            fill_deterministic(5, 0, &mut input);
            let mut expect = input.clone();
            ctr_xor(&key, AesImpl::Scalar, 2, 0, &mut expect);
            let mut m = materialized();
            for block in [LARGEST, 16, LARGEST, 48, 4096, LARGEST] {
                assert_eq!(run(&mut m, &input, &kernel, block), expect, "{block}");
            }
        }

        #[test]
        fn materialized_round_trip() {
            // Bytes written into the buffers come back unchanged...
            let mut m = materialized();
            let identity = IdentityKernel::new(1.0);
            assert_eq!(run(&mut m, b"hello spu", &identity, 16), b"hello spu");
            // ...and a kernel transforms them in place.
            let key = Arc::new(Aes128::new(b"round-trip-key!!"));
            let kernel = AesCtrSpeKernel::new(key.clone(), 9);
            let mut expect = b"hello spu".to_vec();
            ctr_xor(&key, AesImpl::Scalar, 9, 0, &mut expect);
            assert_eq!(run(&mut m, b"hello spu", &kernel, 16), expect);
        }
    }
}
