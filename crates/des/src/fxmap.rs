//! A small, fast, non-cryptographic hasher (the "Fx" hash used by rustc and
//! Firefox) plus map/set aliases.
//!
//! The simulator keys maps almost exclusively by small integers (actor ids,
//! block ids, task ids); SipHash's HashDoS resistance buys nothing here and
//! costs measurably in the event loop, so every internal map uses this
//! hasher (`docs/ARCHITECTURE.md`: the audit pass's `std-hashmap` rule
//! enforces it, and "The fluid engine" shows the key trap below in use).
//!
//! One trap to design keys around: `finish` is the bare state, and the
//! state is a product, so the hash's low bits are a function of the *low
//! bits of the last word written* — and `hashbrown` picks the bucket from
//! the low bits. A key packed into one `u64` with a low-entropy field at
//! the bottom (a shuffle's few dozen destination links under its
//! thousands of sources, say) piles into a few buckets: measured 3.4 us
//! per insert at 10k nodes. Write the fields as separate words instead,
//! as `net::Fabric`'s class map does: every earlier word then reaches
//! the low bits through the rotate (its own low bits moved up by five,
//! its well-mixed top five moved to the bottom).

// audit:allow(std-hashmap): alias definition site — the std types are rebound here to the fixed-seed hasher
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx multiply-rotate hasher. Not DoS-resistant; internal use only.
#[derive(Default, Clone, Debug)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf) ^ rem.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_basic_operations() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.remove(&2), Some("b"));
        assert!(!m.contains_key(&2));
    }

    #[test]
    fn hash_is_stable_for_equal_inputs() {
        fn h(bytes: &[u8]) -> u64 {
            let mut hasher = FxHasher::default();
            hasher.write(bytes);
            hasher.finish()
        }
        assert_eq!(h(b"hello world"), h(b"hello world"));
        assert_ne!(h(b"hello world"), h(b"hello worle"));
        // Length is mixed in: a prefix must not collide with its extension.
        assert_ne!(h(b"abc"), h(b"abc\0"));
    }

    #[test]
    fn set_deduplicates() {
        let mut s: FxHashSet<u32> = FxHashSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert_eq!(s.len(), 1);
    }

    /// The module doc's trap, on a shuffle's shape: 1,024 sources x 32
    /// destinations. Packed into one word, destination lowest, the hash's
    /// low ten bits (a 1,024-bucket table's index) take 32 values; written
    /// as two words they take nearly all 1,024.
    #[test]
    fn packed_keys_pile_up_where_separate_words_spread() {
        let buckets = |hash_of: &dyn Fn(&mut FxHasher, u32, u32)| {
            let mut seen: FxHashSet<u64> = FxHashSet::default();
            for src in 0..1024 {
                for dst in 0..32 {
                    let mut hasher = FxHasher::default();
                    hash_of(&mut hasher, src, dst);
                    seen.insert(hasher.finish() & 0x3ff);
                }
            }
            seen.len()
        };
        let packed = buckets(&|h, src, dst| h.write_u64(u64::from(src) << 26 | u64::from(dst)));
        let split = buckets(&|h, src, dst| {
            h.write_u32(src);
            h.write_u32(dst);
        });
        assert_eq!(packed, 32);
        assert!(split > 1000, "separate words reach {split} buckets");
    }

    #[test]
    fn integer_keys_spread() {
        // Sanity check the hash is not an identity that would degrade the
        // table; consecutive keys should land in different low-bit buckets.
        fn h(i: u64) -> u64 {
            let mut hasher = FxHasher::default();
            hasher.write_u64(i);
            hasher.finish()
        }
        let buckets: FxHashSet<u64> = (0..64).map(|i| h(i) & 0x3f).collect();
        assert!(buckets.len() > 16, "low bits collapse: {}", buckets.len());
    }
}
