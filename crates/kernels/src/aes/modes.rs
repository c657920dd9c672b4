//! Block cipher modes over the AES-128 core.
//!
//! The paper's workload is bulk encryption of a large working set; we provide
//! ECB (what a raw per-block kernel does) and CTR (what a deployment would
//! actually use, and what the examples run) for every implementation.

use super::{hw, scalar, ttable, Aes128, AesImpl};

/// Encrypts `data` in place in ECB mode. `data.len()` must be a multiple of
/// 16; the caller (record framing) guarantees block alignment exactly like
/// the paper's 4 KB SPU blocks do.
pub fn ecb_encrypt(key: &Aes128, imp: AesImpl, data: &mut [u8]) {
    assert_eq!(
        data.len() % 16,
        0,
        "ECB requires whole blocks, got {} bytes",
        data.len()
    );
    match imp {
        AesImpl::Scalar => scalar::encrypt_blocks(key, data),
        AesImpl::TTable => ttable::encrypt_blocks(key, data),
        AesImpl::Hardware => hw::apply(key, hw::Mode::Ecb, data),
    }
}

/// Decrypts an ECB buffer in place (verification paths only).
pub fn ecb_decrypt(key: &Aes128, data: &mut [u8]) {
    assert_eq!(data.len() % 16, 0);
    for chunk in data.chunks_exact_mut(16) {
        scalar::decrypt_block(key, chunk.try_into().unwrap());
    }
}

/// CTR keystream transform: encrypts or decrypts (the operation is its own
/// inverse). `nonce` seeds the upper 8 bytes of the counter block;
/// `initial_block` is the starting block counter, letting independent
/// workers encrypt disjoint ranges of one logical stream — this is how
/// split-level parallelism stays byte-compatible with a serial encryption.
pub fn ctr_xor(key: &Aes128, imp: AesImpl, nonce: u64, initial_block: u64, data: &mut [u8]) {
    match imp {
        AesImpl::Scalar => {
            // The serial reference stream: one byte-form counter block at a
            // time, which is the scalar cipher's native state.
            let mut block_idx = initial_block;
            for chunk in data.chunks_mut(16) {
                let mut ks = [0u8; 16];
                ks[..8].copy_from_slice(&nonce.to_be_bytes());
                ks[8..].copy_from_slice(&block_idx.to_be_bytes());
                scalar::encrypt_block(key, &mut ks);
                for (d, k) in chunk.iter_mut().zip(ks) {
                    *d ^= k;
                }
                block_idx = block_idx.wrapping_add(1);
            }
        }
        AesImpl::TTable => ttable::ctr_xor(key, nonce, initial_block, data),
        AesImpl::Hardware => hw::apply(
            key,
            hw::Mode::Ctr {
                nonce,
                initial_block,
            },
            data,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fill_deterministic;
    use accelmr_des::Xoshiro256;

    fn key() -> Aes128 {
        Aes128::new(b"modes-test-key!!")
    }

    #[test]
    fn ecb_impls_agree() {
        let k = key();
        let mut bufs: Vec<Vec<u8>> = AesImpl::ALL
            .iter()
            .map(|_| (0..160u8).collect::<Vec<u8>>())
            .collect();
        for (imp, buf) in AesImpl::ALL.iter().zip(bufs.iter_mut()) {
            ecb_encrypt(&k, *imp, buf);
        }
        for (imp, buf) in AesImpl::ALL.iter().zip(&bufs) {
            assert_eq!(*buf, bufs[0], "{}", imp.name());
        }
    }

    #[test]
    fn ecb_round_trip() {
        let k = key();
        let mut buf: Vec<u8> = (0..96u8).collect();
        let orig = buf.clone();
        ecb_encrypt(&k, AesImpl::TTable, &mut buf);
        assert_ne!(buf, orig);
        ecb_decrypt(&k, &mut buf);
        assert_eq!(buf, orig);
    }

    #[test]
    #[should_panic(expected = "whole blocks")]
    fn ecb_rejects_partial_blocks() {
        let k = key();
        let mut buf = vec![0u8; 17];
        ecb_encrypt(&k, AesImpl::Scalar, &mut buf);
    }

    #[test]
    fn ctr_is_self_inverse_including_tails() {
        let k = key();
        for len in [0usize, 1, 15, 16, 17, 64, 100] {
            let mut buf: Vec<u8> = (0..len as u8).collect();
            let orig = buf.clone();
            ctr_xor(&k, AesImpl::TTable, 42, 0, &mut buf);
            if len > 0 {
                assert_ne!(buf, orig, "len={len}");
            }
            ctr_xor(&k, AesImpl::TTable, 42, 0, &mut buf);
            assert_eq!(buf, orig, "len={len}");
        }
    }

    #[test]
    fn ctr_split_ranges_match_serial() {
        // Encrypting [0..64) then [64..128) with the right initial block
        // counters must equal a single serial pass: this is the property the
        // distributed encryption job relies on.
        let k = key();
        let mut serial: Vec<u8> = (0..128).map(|i| i as u8).collect();
        ctr_xor(&k, AesImpl::Scalar, 7, 0, &mut serial);

        let mut split: Vec<u8> = (0..128).map(|i| i as u8).collect();
        let (a, b) = split.split_at_mut(64);
        ctr_xor(&k, AesImpl::TTable, 7, 0, a);
        ctr_xor(&k, AesImpl::TTable, 7, 4, b); // 64 bytes = 4 blocks
        assert_eq!(serial, split);
    }

    /// The serial stream, one counter block at a time through the
    /// one-block API: independent of every bulk path under test.
    fn ctr_reference(k: &Aes128, nonce: u64, initial_block: u64, data: &mut [u8]) {
        for (i, chunk) in data.chunks_mut(16).enumerate() {
            let mut ks = [0u8; 16];
            ks[..8].copy_from_slice(&nonce.to_be_bytes());
            ks[8..].copy_from_slice(&initial_block.wrapping_add(i as u64).to_be_bytes());
            crate::aes::encrypt_block(k, AesImpl::Scalar, &mut ks);
            for (d, k) in chunk.iter_mut().zip(ks) {
                *d ^= k;
            }
        }
    }

    #[test]
    fn ctr_counter_arithmetic_matches_serial_stream() {
        // A word-form counter goes wrong where a carry leaves the low word
        // or the 64-bit counter wraps, so both happen within a few blocks here.
        let k = key();
        let mut rng = Xoshiro256::seed_from_u64(0xC7E);
        let nonce = rng.next_u64();
        let initials = [0, 1, 0xFFFF_FFFE, 0xFFFF_FFFF_FFFF_FFFE, rng.next_u64()];
        let mut plain = [0u8; 200];
        fill_deterministic(13, 0, &mut plain);
        for initial in initials {
            for len in 0..=plain.len() {
                let mut expect = plain[..len].to_vec();
                ctr_reference(&k, nonce, initial, &mut expect);
                for imp in AesImpl::ALL {
                    let mut got = plain[..len].to_vec();
                    ctr_xor(&k, imp, nonce, initial, &mut got);
                    assert_eq!(got, expect, "{} len={len} initial={initial:#x}", imp.name());
                }
            }
        }
    }

    #[test]
    fn ctr_split_at_every_block_boundary_matches_one_call() {
        let k = key();
        let mut plain = vec![0u8; 4096];
        fill_deterministic(17, 0, &mut plain);
        // 256 blocks from here carry out of the low word and wrap at 2^64.
        let initial = 0xFFFF_FFFF_FFFF_FF80u64;
        let mut whole = plain.clone();
        ctr_reference(&k, 9, initial, &mut whole);
        for imp in AesImpl::ALL {
            for split in (0..=plain.len()).step_by(16) {
                let mut buf = plain.clone();
                let (a, b) = buf.split_at_mut(split);
                ctr_xor(&k, imp, 9, initial, a);
                ctr_xor(&k, imp, 9, initial.wrapping_add(split as u64 / 16), b);
                assert_eq!(buf, whole, "{} split={split}", imp.name());
            }
        }
    }

    #[test]
    fn sp800_38a_ctr_vector() {
        // NIST SP 800-38A F.5.1 CTR-AES128, first block.
        let k = Aes128::new(&[
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ]);
        let mut data = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        // Counter block f0f1f2f3 f4f5f6f7 f8f9fafb fcfdfeff.
        let nonce = 0xf0f1f2f3f4f5f6f7u64;
        let initial = 0xf8f9fafbfcfdfeffu64;
        ctr_xor(&k, AesImpl::Scalar, nonce, initial, &mut data);
        assert_eq!(
            data,
            [
                0x87, 0x4d, 0x61, 0x91, 0xb6, 0x20, 0xe3, 0x26, 0x1b, 0xef, 0x68, 0x64, 0x99, 0x0d,
                0xb6, 0xce
            ]
        );
    }
}
