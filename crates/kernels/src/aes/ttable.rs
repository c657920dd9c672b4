//! T-table implementation of AES-128.
//!
//! Classic 32-bit software AES: SubBytes, ShiftRows and MixColumns for one
//! round collapse into four table lookups and three XORs per output word.
//! This is the shape of every tuned uniprocessor AES of the paper's era.
//! The functional kernels' bytes are checked against it, and the hardware
//! path runs it on a CPU without AES instructions.

use super::tables::{SBOX, TE0, TE1, TE2, TE3};
use super::Aes128;

#[inline]
fn load_state(block: &[u8; 16]) -> [u32; 4] {
    [
        u32::from_be_bytes(block[0..4].try_into().unwrap()),
        u32::from_be_bytes(block[4..8].try_into().unwrap()),
        u32::from_be_bytes(block[8..12].try_into().unwrap()),
        u32::from_be_bytes(block[12..16].try_into().unwrap()),
    ]
}

#[inline]
fn store_state(state: [u32; 4], block: &mut [u8; 16]) {
    block[0..4].copy_from_slice(&state[0].to_be_bytes());
    block[4..8].copy_from_slice(&state[1].to_be_bytes());
    block[8..12].copy_from_slice(&state[2].to_be_bytes());
    block[12..16].copy_from_slice(&state[3].to_be_bytes());
}

/// One full round for column `c`: the four taps walk the ShiftRows diagonal.
#[inline(always)]
fn round_word(s: &[u32; 4], c: usize, rk: u32) -> u32 {
    TE0[(s[c] >> 24) as usize]
        ^ TE1[((s[(c + 1) & 3] >> 16) & 0xff) as usize]
        ^ TE2[((s[(c + 2) & 3] >> 8) & 0xff) as usize]
        ^ TE3[(s[(c + 3) & 3] & 0xff) as usize]
        ^ rk
}

/// Final round (no MixColumns): plain S-box on the same diagonal taps.
#[inline(always)]
fn final_word(s: &[u32; 4], c: usize, rk: u32) -> u32 {
    ((SBOX[(s[c] >> 24) as usize] as u32) << 24)
        ^ ((SBOX[((s[(c + 1) & 3] >> 16) & 0xff) as usize] as u32) << 16)
        ^ ((SBOX[((s[(c + 2) & 3] >> 8) & 0xff) as usize] as u32) << 8)
        ^ (SBOX[(s[(c + 3) & 3] & 0xff) as usize] as u32)
        ^ rk
}

/// All ten rounds on a state held as four big-endian words.
#[inline(always)]
fn encrypt_words(rk: &[u32; 44], mut s: [u32; 4]) -> [u32; 4] {
    for c in 0..4 {
        s[c] ^= rk[c];
    }
    for r in 1..10 {
        s = [
            round_word(&s, 0, rk[4 * r]),
            round_word(&s, 1, rk[4 * r + 1]),
            round_word(&s, 2, rk[4 * r + 2]),
            round_word(&s, 3, rk[4 * r + 3]),
        ];
    }
    [
        final_word(&s, 0, rk[40]),
        final_word(&s, 1, rk[41]),
        final_word(&s, 2, rk[42]),
        final_word(&s, 3, rk[43]),
    ]
}

/// Encrypts one block in place.
pub fn encrypt_block(key: &Aes128, block: &mut [u8; 16]) {
    store_state(encrypt_words(&key.rk_words, load_state(block)), block);
}

/// XORs one keystream block, in word form, into at most 16 bytes of data.
#[inline(always)]
fn xor_keystream(data: &mut [u8], ks: [u32; 4]) {
    for (d, k) in data.chunks_mut(4).zip(ks) {
        for (d, k) in d.iter_mut().zip(k.to_be_bytes()) {
            *d ^= k;
        }
    }
}

/// CTR transform of `data` (any length) starting at counter `block_idx`.
/// The counter block `nonce || block_idx` is built as state words, so no
/// block is serialized to bytes on the way into or out of the cipher.
pub(super) fn ctr_xor(key: &Aes128, nonce: u64, mut block_idx: u64, data: &mut [u8]) {
    let (n_hi, n_lo) = ((nonce >> 32) as u32, nonce as u32);
    for chunk in data.chunks_mut(16) {
        let ctr = [n_hi, n_lo, (block_idx >> 32) as u32, block_idx as u32];
        xor_keystream(chunk, encrypt_words(&key.rk_words, ctr));
        block_idx = block_idx.wrapping_add(1);
    }
}

/// Encrypts a whole buffer of 16-byte blocks in place.
pub fn encrypt_blocks(key: &Aes128, data: &mut [u8]) {
    debug_assert_eq!(data.len() % 16, 0);
    for chunk in data.chunks_exact_mut(16) {
        let block: &mut [u8; 16] = chunk.try_into().unwrap();
        encrypt_block(key, block);
    }
}

#[cfg(test)]
mod tests {
    use super::super::scalar;
    use super::*;

    #[test]
    fn matches_scalar_on_many_blocks() {
        let key = Aes128::new(b"ttable-test-key!");
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..64 {
            let mut block = [0u8; 16];
            for b in block.iter_mut() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                *b = (x >> 56) as u8;
            }
            let mut a = block;
            let mut b = block;
            encrypt_block(&key, &mut a);
            scalar::encrypt_block(&key, &mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn state_load_store_round_trip() {
        let block: [u8; 16] = core::array::from_fn(|i| i as u8 * 3);
        let mut out = [0u8; 16];
        store_state(load_state(&block), &mut out);
        assert_eq!(block, out);
    }
}
