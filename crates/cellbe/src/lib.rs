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
//! put. [`CellConfig::check_block_size`] is the one statement of the
//! local-store budget. In materialized mode each SPE holds two block-sized
//! buffers and kernels really execute on bytes that traveled through them,
//! so end-to-end tests can verify real ciphertext; in virtual mode the
//! identical event path computes timing only. A closed-form [`estimate`]
//! module mirrors the event model for the distributed experiments' fast
//! path and is property-tested against it.

pub mod config;
pub mod estimate;
pub mod kernel;
pub mod machine;

pub use config::{CellConfig, CellConfigError, SPU_BLOCK};
pub use kernel::{AesCtrSpeKernel, ComputeKernel, DataKernel, IdentityKernel, PiSpeKernel};
pub use machine::{CellMachine, DataInput, OffloadReport};

/// The SPE local store as a whole: the budget [`CellConfig::check_block_size`]
/// states, and the two buffers per SPE a materialized machine moves bytes
/// through.
#[cfg(test)]
mod localstore {
    mod tests {
        use crate::{AesCtrSpeKernel, CellConfig, CellConfigError, CellMachine, DataInput};
        use crate::{DataKernel, IdentityKernel};
        use accelmr_kernels::aes::modes::ctr_xor;
        use accelmr_kernels::{fill_deterministic, Aes128, AesImpl};
        use std::sync::Arc;

        /// A Cell whose SPE local stores hold `capacity` bytes, `reserved`
        /// of them for code and stack.
        fn small(capacity: usize, reserved: usize) -> CellConfig {
            CellConfig {
                local_store_bytes: capacity,
                code_stack_bytes: reserved,
                ..CellConfig::default()
            }
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
            // 1024 bytes, 100 reserved: four buffers of at most 231 bytes.
            let c = small(1024, 100);
            assert_eq!(c.usable_ls_bytes(), 924);
            assert_eq!(c.alignment, 16);
            c.check_block_size(16).unwrap();
            c.check_block_size(224).unwrap();
            assert!(matches!(
                c.check_block_size(10),
                Err(CellConfigError::Misaligned(_))
            ));
            // 4 * 240 = 960 would fit 1024 only by eating the reservation.
            assert!(matches!(
                c.check_block_size(240),
                Err(CellConfigError::LocalStoreOverflow {
                    needed: 960,
                    available: 924
                })
            ));
            assert!(c.check_block_size(2048).is_err());
            // The largest accepted block fits the machine's buffers.
            let mut input = vec![0u8; 5_000];
            fill_deterministic(3, 0, &mut input);
            let mut m = CellMachine::new(c, true).unwrap();
            assert_eq!(run(&mut m, &input, &IdentityKernel::new(1.0), 224), input);
            assert!(m
                .run_data(DataInput::Real(&input), &IdentityKernel::new(1.0), 240)
                .is_err());
        }

        #[test]
        fn reset_reclaims_space() {
            // 256 bytes: blocks of 64 fill the store, and every session
            // finds the whole of it free again.
            let c = small(256, 0);
            c.check_block_size(64).unwrap();
            assert!(c.check_block_size(80).is_err());
            let key = Arc::new(Aes128::new(b"local-store-test"));
            let kernel = AesCtrSpeKernel::new(key.clone(), 2);
            let mut input = vec![0u8; 3_000];
            fill_deterministic(5, 0, &mut input);
            let mut expect = input.clone();
            ctr_xor(&key, AesImpl::Scalar, 2, 0, &mut expect);
            let mut m = CellMachine::new(c, true).unwrap();
            for block in [64, 16, 64, 48, 64] {
                assert_eq!(run(&mut m, &input, &kernel, block), expect, "{block}");
            }
        }

        #[test]
        fn materialized_round_trip() {
            // Bytes written into the buffers come back unchanged...
            let mut m = CellMachine::new(small(512, 0), true).unwrap();
            let identity = IdentityKernel::new(1.0);
            assert_eq!(run(&mut m, b"hello spu", &identity, 16), b"hello spu");
            // ...and a kernel transforms them in place.
            let key = Arc::new(Aes128::new(b"round-trip-key!!"));
            let kernel = AesCtrSpeKernel::new(key.clone(), 9);
            let mut expect = b"hello spu".to_vec();
            ctr_xor(&key, AesImpl::Scalar, 9, 0, &mut expect);
            assert_eq!(run(&mut m, b"hello spu", &kernel, 16), expect);
        }

        #[test]
        #[should_panic(expected = "reservation exceeds capacity")]
        fn reservation_larger_than_capacity_panics() {
            small(10, 20).usable_ls_bytes();
        }
    }
}
