//! Four-lane AES-128: the SPU SIMD kernel stand-in.
//!
//! A Cell SPU encrypts four independent blocks per instruction stream by
//! keeping one state word of each block in one 128-bit vector register.
//! We model the identical structure with `[u32; 4]` lanes and straight-line
//! lane loops, byte-identical in output to the scalar cipher.
//!
//! What the layout buys on the host, as measured (16 MiB, release): the
//! XORs and shifts may vectorize, but the T-table gathers stay scalar
//! loads, so the cipher is load-port bound at about 10 cycles/byte and
//! 1/2/4/8-lane variants of these rounds all land within 273-333 MB/s.
//! Interleaving four blocks gives the core independent work (ILP), not
//! SIMD: with every lane filled the rate is about the T-table cipher's,
//! and a caller that fills one lane of four gets a quarter of it.

use super::tables::{SBOX, TE0, TE1, TE2, TE3};
use super::ttable::xor_keystream;
use super::Aes128;

type Vec4 = [u32; 4];

#[inline(always)]
fn splat(x: u32) -> Vec4 {
    [x; 4]
}

#[inline(always)]
fn xor4(a: Vec4, b: Vec4) -> Vec4 {
    [a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]]
}

/// Gathers T-table entries for each lane. Table lookups are the one step a
/// real SPU does with shuffle-based byte slicing; a gather loop preserves
/// the data flow.
#[inline(always)]
fn gather(table: &[u32; 256], idx: Vec4) -> Vec4 {
    [
        table[(idx[0] & 0xff) as usize],
        table[(idx[1] & 0xff) as usize],
        table[(idx[2] & 0xff) as usize],
        table[(idx[3] & 0xff) as usize],
    ]
}

#[inline(always)]
fn shr(v: Vec4, by: u32) -> Vec4 {
    [v[0] >> by, v[1] >> by, v[2] >> by, v[3] >> by]
}

/// All ten rounds over four blocks at once: `s[c][l]` is state word `c`
/// (big-endian) of the block in lane `l`. ECB and CTR share this body.
#[inline(always)]
fn rounds(rk: &[u32; 44], mut s: [Vec4; 4]) -> [Vec4; 4] {
    for c in 0..4 {
        s[c] = xor4(s[c], splat(rk[c]));
    }

    for r in 1..10 {
        let mut t: [Vec4; 4] = [[0; 4]; 4];
        for c in 0..4 {
            let w = xor4(
                xor4(
                    gather(&TE0, shr(s[c], 24)),
                    gather(&TE1, shr(s[(c + 1) & 3], 16)),
                ),
                xor4(
                    gather(&TE2, shr(s[(c + 2) & 3], 8)),
                    gather(&TE3, s[(c + 3) & 3]),
                ),
            );
            t[c] = xor4(w, splat(rk[4 * r + c]));
        }
        s = t;
    }

    // Final round: S-box bytes reassembled per lane.
    let mut out: [Vec4; 4] = [[0; 4]; 4];
    for c in 0..4 {
        for l in 0..4 {
            let b0 = SBOX[(s[c][l] >> 24) as usize] as u32;
            let b1 = SBOX[((s[(c + 1) & 3][l] >> 16) & 0xff) as usize] as u32;
            let b2 = SBOX[((s[(c + 2) & 3][l] >> 8) & 0xff) as usize] as u32;
            let b3 = SBOX[(s[(c + 3) & 3][l] & 0xff) as usize] as u32;
            out[c][l] = ((b0 << 24) | (b1 << 16) | (b2 << 8) | b3) ^ rk[40 + c];
        }
    }
    out
}

/// Encrypts exactly four blocks (64 bytes) in place.
// Index-based loops keep the lane/column transpose legible.
#[allow(clippy::needless_range_loop)]
pub fn encrypt_blocks4(key: &Aes128, quad: &mut [u8; 64]) {
    // Transpose: state word c of lane l comes from block l bytes 4c..4c+4.
    let mut s: [Vec4; 4] = [[0; 4]; 4];
    for l in 0..4 {
        for c in 0..4 {
            let off = 16 * l + 4 * c;
            s[c][l] = u32::from_be_bytes(quad[off..off + 4].try_into().unwrap());
        }
    }
    let out = rounds(&key.rk_words, s);
    for l in 0..4 {
        for c in 0..4 {
            let off = 16 * l + 4 * c;
            quad[off..off + 4].copy_from_slice(&out[c][l].to_be_bytes());
        }
    }
}

/// Encrypts a buffer of 16-byte blocks: full quads go through the four-lane
/// path, the `<64`-byte tail falls back to the T-table cipher (same bytes).
pub fn encrypt_blocks(key: &Aes128, data: &mut [u8]) {
    debug_assert_eq!(data.len() % 16, 0);
    let mut chunks = data.chunks_exact_mut(64);
    for quad in &mut chunks {
        encrypt_blocks4(key, quad.try_into().unwrap());
    }
    super::ttable::encrypt_blocks(key, chunks.into_remainder());
}

/// CTR transform of `data` (any length) starting at counter `block_idx`,
/// four keystream blocks per pass; the `<64`-byte tail goes through the
/// T-table cipher, as in [`encrypt_blocks`].
///
/// Lane `l` of a quad encrypts the counter block `nonce || block_idx + l`
/// (both big-endian), which is already in word form: state words 0 and 1
/// are the nonce's halves in every lane, words 2 and 3 the halves of the
/// lane's own 64-bit counter. Nothing is transposed on the way in; the
/// carry from word 3 into word 2, and the wrap at 2^64, come from doing
/// the addition in `u64` before splitting.
pub(super) fn ctr_xor(key: &Aes128, nonce: u64, mut block_idx: u64, data: &mut [u8]) {
    let n_hi = splat((nonce >> 32) as u32);
    let n_lo = splat(nonce as u32);
    let mut chunks = data.chunks_exact_mut(64);
    for quad in &mut chunks {
        let ctr: [u64; 4] = std::array::from_fn(|l| block_idx.wrapping_add(l as u64));
        let ks = rounds(
            &key.rk_words,
            [
                n_hi,
                n_lo,
                ctr.map(|i| (i >> 32) as u32),
                ctr.map(|i| i as u32),
            ],
        );
        for (l, block) in quad.chunks_exact_mut(16).enumerate() {
            xor_keystream(block, [ks[0][l], ks[1][l], ks[2][l], ks[3][l]]);
        }
        block_idx = block_idx.wrapping_add(4);
    }
    super::ttable::ctr_xor(key, nonce, block_idx, chunks.into_remainder());
}

#[cfg(test)]
mod tests {
    use super::super::scalar;
    use super::*;

    #[test]
    fn quad_matches_scalar() {
        let key = Aes128::new(b"lanes-test-key!!");
        let mut quad = [0u8; 64];
        for (i, b) in quad.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37).wrapping_add(11);
        }
        let mut expect = quad;
        for chunk in expect.chunks_exact_mut(16) {
            scalar::encrypt_block(&key, chunk.try_into().unwrap());
        }
        encrypt_blocks4(&key, &mut quad);
        assert_eq!(quad, expect);
    }

    #[test]
    fn bulk_handles_non_quad_tails() {
        let key = Aes128::new(b"lanes-test-key!!");
        for blocks in [1usize, 2, 3, 4, 5, 7, 8, 9] {
            let mut buf = vec![0u8; 16 * blocks];
            for (i, b) in buf.iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(101).wrapping_add(7);
            }
            let mut expect = buf.clone();
            scalar::encrypt_blocks(&key, &mut expect);
            encrypt_blocks(&key, &mut buf);
            assert_eq!(buf, expect, "blocks={blocks}");
        }
    }
}
