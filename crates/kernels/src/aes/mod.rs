//! AES-128 block cipher, implemented three ways.
//!
//! The paper runs the same encryption kernel on four engines (Cell SPUs with
//! SIMD, the Cell-MapReduce framework, Java on the Cell PPE, Java on a
//! Power6). Simulated time comes from the per-engine cost model
//! ([`crate::cost`]); the bytes come from three real implementations that
//! produce identical output:
//!
//! * [`scalar`] — byte-oriented textbook cipher: the reference every other
//!   path is held to, and the stand-in for the interpreted/JIT "Java"
//!   kernel;
//! * [`ttable`] — 32-bit T-table cipher, the tuned software kernel of the
//!   paper's era: the independent cipher the functional paths' bytes are
//!   checked against, and the hardware path's fallback;
//! * [`hw`] — the host's AES round instructions, chosen at run time where
//!   the CPU has them: it computes the bytes of every functional kernel (the
//!   SPU kernel under both Cell mappers, and the Java mappers).
//!
//! All three are verified against FIPS-197 / NIST SP 800-38A vectors and
//! against each other by property tests.

pub mod hw;
pub mod modes;
pub mod scalar;
pub mod tables;
pub mod ttable;

use tables::{RCON, SBOX};

/// Expanded AES-128 key: 11 round keys in byte form plus the word form the
/// T-table implementation consumes.
#[derive(Clone)]
pub struct Aes128 {
    /// Round keys as bytes, rk[16*r..16*r+16] for round r.
    pub(crate) rk_bytes: [u8; 176],
    /// Round keys as big-endian words (4 per round).
    pub(crate) rk_words: [u32; 44],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "Aes128 {{ .. }}")
    }
}

impl Aes128 {
    /// Expands a 128-bit cipher key (FIPS-197 §5.2).
    pub fn new(key: &[u8; 16]) -> Self {
        let mut rk = [0u8; 176];
        rk[..16].copy_from_slice(key);
        for i in 4..44 {
            let mut temp = [
                rk[4 * (i - 1)],
                rk[4 * (i - 1) + 1],
                rk[4 * (i - 1) + 2],
                rk[4 * (i - 1) + 3],
            ];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                rk[4 * i + j] = rk[4 * (i - 4) + j] ^ temp[j];
            }
        }
        let mut rk_words = [0u32; 44];
        for (i, w) in rk_words.iter_mut().enumerate() {
            *w = u32::from_be_bytes([rk[4 * i], rk[4 * i + 1], rk[4 * i + 2], rk[4 * i + 3]]);
        }
        Aes128 {
            rk_bytes: rk,
            rk_words,
        }
    }

    /// Round key bytes for round `r` (0..=10).
    #[inline]
    pub(crate) fn round_key(&self, r: usize) -> &[u8] {
        &self.rk_bytes[16 * r..16 * r + 16]
    }
}

/// Which implementation executes a bulk operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AesImpl {
    /// Byte-oriented reference cipher ("Java" stand-in).
    Scalar,
    /// 32-bit T-table cipher (the software reference the functional
    /// paths are checked against).
    TTable,
    /// The host's AES round instructions (the functional kernels' bytes),
    /// or the T-table cipher on a CPU without them ([`hw::detected`]).
    Hardware,
}

impl AesImpl {
    /// All implementations, for equivalence sweeps in tests/benches.
    pub const ALL: [AesImpl; 3] = [AesImpl::Scalar, AesImpl::TTable, AesImpl::Hardware];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            AesImpl::Scalar => "scalar",
            AesImpl::TTable => "ttable",
            AesImpl::Hardware => "hardware",
        }
    }
}

/// Encrypts one 16-byte block in place with the chosen implementation.
///
/// This is the one-block API the FIPS vectors use. Bulk callers use
/// [`modes`].
pub fn encrypt_block(key: &Aes128, imp: AesImpl, block: &mut [u8; 16]) {
    match imp {
        AesImpl::Scalar => scalar::encrypt_block(key, block),
        AesImpl::TTable => ttable::encrypt_block(key, block),
        AesImpl::Hardware => hw::apply(key, hw::Mode::Ecb, block),
    }
}

/// Decrypts one 16-byte block in place (scalar inverse cipher; decryption is
/// only used for verification, never on the simulated hot path).
pub fn decrypt_block(key: &Aes128, block: &mut [u8; 16]) {
    scalar::decrypt_block(key, block);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fips_key() -> Aes128 {
        Aes128::new(&[
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ])
    }

    #[test]
    fn key_expansion_matches_fips_appendix_a() {
        let k = fips_key();
        // w[4] and w[43] from FIPS-197 Appendix A.1.
        assert_eq!(k.rk_words[4], 0xa0fafe17);
        assert_eq!(k.rk_words[5], 0x88542cb1);
        assert_eq!(k.rk_words[43], 0xb6630ca6);
    }

    #[test]
    fn fips_appendix_b_vector_all_impls() {
        let key = Aes128::new(&[
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ]);
        let pt: [u8; 16] = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let ct: [u8; 16] = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        for imp in AesImpl::ALL {
            let mut b = pt;
            encrypt_block(&key, imp, &mut b);
            assert_eq!(b, ct, "impl {}", imp.name());
        }
    }

    #[test]
    fn sp800_38a_ecb_vector() {
        let key = fips_key();
        let pt: [u8; 16] = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        let ct: [u8; 16] = [
            0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36, 0x60, 0xa8, 0x9e, 0xca, 0xf3, 0x24, 0x66,
            0xef, 0x97,
        ];
        for imp in AesImpl::ALL {
            let mut b = pt;
            encrypt_block(&key, imp, &mut b);
            assert_eq!(b, ct, "impl {}", imp.name());
        }
    }

    #[test]
    fn decrypt_inverts_encrypt() {
        let key = fips_key();
        let mut block = *b"accelerated mapr";
        let original = block;
        encrypt_block(&key, AesImpl::Scalar, &mut block);
        assert_ne!(block, original);
        decrypt_block(&key, &mut block);
        assert_eq!(block, original);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let key = fips_key();
        assert_eq!(format!("{key:?}"), "Aes128 { .. }");
    }
}
