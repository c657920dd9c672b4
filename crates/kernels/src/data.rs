//! Deterministic synthetic data and order-independent checksums.
//!
//! The distributed experiments move up to 120 GB of *virtual* data; tests
//! and small experiments materialize real bytes. Both views must agree, so
//! content is defined as a pure function of `(seed, absolute offset)`: any
//! component can materialize any byte range of a file independently and get
//! the same bytes — which is what lets integration tests verify ciphertext
//! produced through the full simulated stack against a locally computed
//! reference.

use accelmr_des::splitmix64;

/// Fills `buf` with the canonical content of stream `seed` starting at
/// absolute byte `offset`. Byte `i` of a stream is byte `i % 8` of
/// `splitmix64(seed ⊕ mix(i / 8))`.
pub fn fill_deterministic(seed: u64, offset: u64, buf: &mut [u8]) {
    if buf.is_empty() {
        return;
    }
    let mut pos = 0usize;
    let mut abs = offset;
    // Leading partial word.
    let lead = (abs % 8) as usize;
    if lead != 0 {
        let w = word_at(seed, abs / 8);
        let take = (8 - lead).min(buf.len());
        buf[..take].copy_from_slice(&w.to_le_bytes()[lead..lead + take]);
        pos += take;
        abs += take as u64;
    }
    // Whole words.
    while pos + 8 <= buf.len() {
        let w = word_at(seed, abs / 8);
        buf[pos..pos + 8].copy_from_slice(&w.to_le_bytes());
        pos += 8;
        abs += 8;
    }
    // Trailing partial word.
    if pos < buf.len() {
        let w = word_at(seed, abs / 8);
        let take = buf.len() - pos;
        buf[pos..].copy_from_slice(&w.to_le_bytes()[..take]);
    }
}

#[inline]
fn word_at(seed: u64, word_idx: u64) -> u64 {
    let mut s = seed ^ word_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

/// FNV-1a 64-bit checksum of a byte slice.
///
/// Latency-bound at ~4 cycles/byte: each byte is one xor and one multiply
/// on the running hash, so nothing vectorizes or reorders it. Its value is
/// pinned by every record digest (the tests' serial references and the
/// benchmark's `expected.json` `outputs`), so do not "optimise" it into a
/// different function; the TaskTracker takes its cost off the event thread
/// instead.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Order-independent accumulator for distributed verification: per-record
/// checksums are mixed then wrapping-added, so any processing order (or
/// re-execution that replays a record's identical output) yields the same
/// digest. Detects corruption and *missing* records; pair with a record
/// count to detect duplicates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UnorderedDigest {
    acc: u64,
    count: u64,
}

impl UnorderedDigest {
    /// Empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one record digest in (commutative).
    pub fn add(&mut self, record_checksum: u64) {
        let mut s = record_checksum;
        self.acc = self.acc.wrapping_add(splitmix64(&mut s));
        self.count += 1;
    }

    /// Merges another digest in (commutative, associative).
    pub fn merge(&mut self, other: UnorderedDigest) {
        self.acc = self.acc.wrapping_add(other.acc);
        self.count += other.count;
    }

    /// `(digest, record count)`.
    pub fn finish(&self) -> (u64, u64) {
        (self.acc, self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_is_offset_consistent() {
        // Materializing [0, 64) in one call must equal stitching arbitrary
        // sub-ranges.
        let mut whole = [0u8; 64];
        fill_deterministic(42, 0, &mut whole);
        for split in [1usize, 3, 8, 13, 32, 63] {
            let mut a = vec![0u8; split];
            let mut b = vec![0u8; 64 - split];
            fill_deterministic(42, 0, &mut a);
            fill_deterministic(42, split as u64, &mut b);
            let stitched: Vec<u8> = a.into_iter().chain(b).collect();
            assert_eq!(stitched, whole.to_vec(), "split={split}");
        }
    }

    #[test]
    fn fill_unaligned_offsets() {
        let mut whole = [0u8; 40];
        fill_deterministic(7, 100, &mut whole);
        let mut tail = [0u8; 37];
        fill_deterministic(7, 103, &mut tail);
        assert_eq!(&whole[3..], &tail[..]);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        fill_deterministic(1, 0, &mut a);
        fill_deterministic(2, 0, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn empty_fill_is_noop() {
        fill_deterministic(1, 5, &mut []);
    }

    #[test]
    fn checksum_known_value_and_sensitivity() {
        // FNV-1a("a") per the reference implementation.
        assert_eq!(checksum(b"a"), 0xaf63dc4c8601ec8c);
        assert_ne!(checksum(b"ab"), checksum(b"ba"));
        assert_ne!(checksum(b""), checksum(b"\0"));
    }

    #[test]
    fn unordered_digest_is_order_independent() {
        let parts = [checksum(b"r0"), checksum(b"r1"), checksum(b"r2")];
        let mut fwd = UnorderedDigest::new();
        for p in parts {
            fwd.add(p);
        }
        let mut rev = UnorderedDigest::new();
        for p in parts.iter().rev() {
            rev.add(*p);
        }
        assert_eq!(fwd.finish(), rev.finish());
    }

    #[test]
    fn unordered_digest_detects_changes_and_counts() {
        let mut a = UnorderedDigest::new();
        a.add(checksum(b"x"));
        let mut b = UnorderedDigest::new();
        b.add(checksum(b"y"));
        assert_ne!(a.finish().0, b.finish().0);

        // Duplicate record: digest differs AND count differs.
        let mut c = a;
        c.add(checksum(b"x"));
        assert_ne!(a.finish(), c.finish());
        assert_eq!(c.finish().1, 2);
    }

    #[test]
    fn merge_matches_sequential_adds() {
        let mut lhs = UnorderedDigest::new();
        lhs.add(1);
        lhs.add(2);
        let mut rhs = UnorderedDigest::new();
        rhs.add(3);
        lhs.merge(rhs);

        let mut all = UnorderedDigest::new();
        for p in [1, 2, 3] {
            all.add(p);
        }
        assert_eq!(lhs.finish(), all.finish());
    }
}
