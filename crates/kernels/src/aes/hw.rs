//! AES-128 on the host's AES round instructions (x86_64 AES-NI).
//!
//! One `aesenc` performs a whole round (SubBytes, ShiftRows, MixColumns,
//! AddRoundKey) on a 128-bit register. Its latency is several cycles but
//! independent blocks pipeline through the unit, so ECB and CTR keep
//! eight blocks in flight per step. Whether the CPU has the
//! instructions is decided at run time ([`detected`]); on any other CPU
//! every call runs the T-table cipher instead, whose output is identical.
//!
//! Blocks enter and leave the registers by value (`_mm_set_epi64x` /
//! `_mm_cvtsi128_si64`), never through a pointer. So the one `unsafe` call
//! in `apply`, which enters code compiled for a feature the CPU was just
//! checked for, is the whole unsafe surface.

use super::{ttable, Aes128};

/// What one call computes over its buffer.
#[derive(Clone, Copy, Debug)]
pub(super) enum Mode {
    /// Encrypt whole 16-byte blocks in place.
    Ecb,
    /// XOR in the keystream of the counter blocks
    /// `nonce || initial_block + i`, both big-endian.
    Ctr { nonce: u64, initial_block: u64 },
}

/// `true` when this CPU executes AES rounds in hardware, that is when
/// [`AesImpl::Hardware`](super::AesImpl::Hardware) is not running on its
/// T-table fallback.
pub fn detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("aes")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runs `mode` over `data` on the AES unit when the CPU has one, and on the
/// T-table cipher otherwise.
pub(super) fn apply(key: &Aes128, mode: Mode, data: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    if detected() {
        #[allow(unsafe_code)]
        // SAFETY: `ni::apply` and everything it calls are compiled for the
        // `aes` target feature alone (it implies the SSE2 they also use),
        // and `detected()` has just confirmed it on this CPU. No intrinsic
        // in `ni` takes a pointer.
        // audit:allow(unsafe): the workspace's one unsafe call, entering AES-NI code after run-time detection of the feature it is compiled for
        unsafe {
            ni::apply(key, mode, data)
        };
        return;
    }
    match mode {
        Mode::Ecb => ttable::encrypt_blocks(key, data),
        Mode::Ctr {
            nonce,
            initial_block,
        } => ttable::ctr_xor(key, nonce, initial_block, data),
    }
}

#[cfg(target_arch = "x86_64")]
mod ni {
    use std::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_cvtsi128_si64, _mm_set_epi64x,
        _mm_setzero_si128, _mm_unpackhi_epi64, _mm_xor_si128,
    };

    use super::{Aes128, Mode};

    /// Blocks in flight per step: enough independent rounds to cover the
    /// latency of `aesenc` on every x86_64 core that has it.
    const LANES: usize = 8;

    type RoundKeys = [__m128i; 11];

    #[target_feature(enable = "aes")]
    pub(super) fn apply(key: &Aes128, mode: Mode, data: &mut [u8]) {
        let mut rk: RoundKeys = [_mm_setzero_si128(); 11];
        for (r, k) in rk.iter_mut().enumerate() {
            *k = load(key.round_key(r));
        }
        match mode {
            Mode::Ecb => ecb(&rk, data),
            Mode::Ctr {
                nonce,
                initial_block,
            } => ctr(&rk, nonce, initial_block, data),
        }
    }

    /// A block's 16 bytes, in memory order, as one register.
    #[target_feature(enable = "aes")]
    #[inline]
    fn load(block: &[u8]) -> __m128i {
        let (lo, hi) = block.split_at(8);
        let half = |h: &[u8]| i64::from_le_bytes(h.try_into().expect("a block is 16 bytes"));
        _mm_set_epi64x(half(hi), half(lo))
    }

    /// The inverse of [`load`].
    #[target_feature(enable = "aes")]
    #[inline]
    fn store(x: __m128i) -> [u8; 16] {
        let lo = _mm_cvtsi128_si64(x).to_le_bytes();
        let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(x, x)).to_le_bytes();
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&lo);
        block[8..].copy_from_slice(&hi);
        block
    }

    /// All ten rounds on `N` independent blocks, interleaved round by round.
    #[target_feature(enable = "aes")]
    #[inline]
    fn encrypt<const N: usize>(rk: &RoundKeys, s: &mut [__m128i; N]) {
        for b in s.iter_mut() {
            *b = _mm_xor_si128(*b, rk[0]);
        }
        for k in &rk[1..10] {
            for b in s.iter_mut() {
                *b = _mm_aesenc_si128(*b, *k);
            }
        }
        for b in s.iter_mut() {
            *b = _mm_aesenclast_si128(*b, rk[10]);
        }
    }

    #[target_feature(enable = "aes")]
    fn ecb(rk: &RoundKeys, data: &mut [u8]) {
        let mut steps = data.chunks_exact_mut(16 * LANES);
        for step in &mut steps {
            let mut s = [_mm_setzero_si128(); LANES];
            for (x, block) in s.iter_mut().zip(step.chunks_exact(16)) {
                *x = load(block);
            }
            encrypt(rk, &mut s);
            for (block, x) in step.chunks_exact_mut(16).zip(s) {
                block.copy_from_slice(&store(x));
            }
        }
        for block in steps.into_remainder().chunks_exact_mut(16) {
            let mut s = [load(block)];
            encrypt(rk, &mut s);
            block.copy_from_slice(&store(s[0]));
        }
    }

    #[target_feature(enable = "aes")]
    fn ctr(rk: &RoundKeys, nonce: u64, mut block_idx: u64, data: &mut [u8]) {
        // Byte-swapped, each big-endian half of `nonce || block_idx` is one
        // little-endian register half.
        let nonce = nonce.swap_bytes() as i64;
        let counter = |i: u64| _mm_set_epi64x(i.swap_bytes() as i64, nonce);
        let mut steps = data.chunks_exact_mut(16 * LANES);
        for step in &mut steps {
            let mut s = [_mm_setzero_si128(); LANES];
            for (j, x) in s.iter_mut().enumerate() {
                *x = counter(block_idx.wrapping_add(j as u64));
            }
            encrypt(rk, &mut s);
            for (block, ks) in step.chunks_exact_mut(16).zip(s) {
                block.copy_from_slice(&store(_mm_xor_si128(load(block), ks)));
            }
            block_idx = block_idx.wrapping_add(LANES as u64);
        }
        // At most LANES - 1 whole blocks and a 1..15-byte tail.
        for chunk in steps.into_remainder().chunks_mut(16) {
            let mut s = [counter(block_idx)];
            encrypt(rk, &mut s);
            for (d, k) in chunk.iter_mut().zip(store(s[0])) {
                *d ^= k;
            }
            block_idx = block_idx.wrapping_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{modes, AesImpl};
    use super::*;
    use crate::fill_deterministic;

    /// Blocks per step on the AES-NI path.
    const LANES: usize = 8;

    fn key() -> Aes128 {
        Aes128::new(b"hardware-aes-key")
    }

    #[test]
    fn ctr_wraps_inside_a_step_and_covers_every_tail() {
        // From 2^64 - 3 the counter wraps at the fourth block, inside the
        // first 8-block step; lengths 0..=300 cover zero, one and two
        // steps plus every 1..15-byte tail.
        let k = key();
        let initial = u64::MAX - 2;
        let mut plain = [0u8; 300];
        fill_deterministic(21, 0, &mut plain);
        for len in 0..=plain.len() {
            let mut expect = plain[..len].to_vec();
            modes::ctr_xor(&k, AesImpl::Scalar, 0x5EED, initial, &mut expect);
            let mut got = plain[..len].to_vec();
            modes::ctr_xor(&k, AesImpl::Hardware, 0x5EED, initial, &mut got);
            assert_eq!(got, expect, "len={len}");
        }
    }

    #[test]
    fn ecb_full_steps_and_every_remainder() {
        let k = key();
        let mut plain = [0u8; 16 * (2 * LANES - 1)];
        fill_deterministic(22, 0, &mut plain);
        for blocks in LANES..=2 * LANES - 1 {
            let mut expect = plain[..16 * blocks].to_vec();
            modes::ecb_encrypt(&k, AesImpl::Scalar, &mut expect);
            let mut got = plain[..16 * blocks].to_vec();
            modes::ecb_encrypt(&k, AesImpl::Hardware, &mut got);
            assert_eq!(got, expect, "blocks={blocks}");
        }
    }
}
