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
    // `mix` is the word index times GOLDEN, carried as a running sum:
    // `(i+1)·G = i·G + G` holds in wrapping arithmetic, so no word pays a
    // multiply for it.
    let mut mix = (offset / 8).wrapping_mul(GOLDEN);
    let mut buf = buf;
    // Leading partial word.
    let skip = (offset % 8) as usize;
    if skip != 0 && !buf.is_empty() {
        let take = (8 - skip).min(buf.len());
        let (head, rest) = buf.split_at_mut(take);
        head.copy_from_slice(&word_at(seed, mix)[skip..skip + take]);
        buf = rest;
        mix = mix.wrapping_add(GOLDEN);
    }
    // Whole words.
    let mut words = buf.chunks_exact_mut(8);
    for out in &mut words {
        out.copy_from_slice(&word_at(seed, mix));
        mix = mix.wrapping_add(GOLDEN);
    }
    // Trailing partial word.
    let tail = words.into_remainder();
    let take = tail.len();
    if take != 0 {
        tail.copy_from_slice(&word_at(seed, mix)[..take]);
    }
}

/// The odd constant that spreads word indices over the seed space.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The bytes of the word whose index times [`GOLDEN`] is `mix`.
#[inline]
fn word_at(seed: u64, mix: u64) -> [u8; 8] {
    let mut s = seed ^ mix;
    splitmix64(&mut s).to_le_bytes()
}

/// FNV-1a's offset basis: the checksum of no bytes.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step: the rule every checksum here is made of.
#[inline(always)]
fn fnv1a(hash: u64, byte: u8) -> u64 {
    (hash ^ byte as u64).wrapping_mul(0x100_0000_01b3)
}

/// Continues the `N` FNV-1a hashes over their own bytes, the `N` chains
/// interleaved byte by byte over the length they share; what one lane has
/// beyond it is hashed on its own.
#[inline(always)]
fn fnv1a_lanes<const N: usize>(hashes: &mut [u64], bytes: &[&[u8]]) {
    let hashes: &mut [u64; N] = hashes.try_into().expect("one hash per lane");
    let common = bytes.iter().map(|b| b.len()).min().unwrap_or(0);
    let shared: [&[u8]; N] = std::array::from_fn(|l| &bytes[l][..common]);
    for i in 0..common {
        for (hash, lane) in hashes.iter_mut().zip(&shared) {
            *hash = fnv1a(*hash, lane[i]);
        }
    }
    for (hash, rest) in hashes.iter_mut().zip(bytes) {
        *hash = rest[common..].iter().fold(*hash, |h, &b| fnv1a(h, b));
    }
}

/// FNV-1a 64-bit checksum of a byte slice: the one-lane case of
/// [`ChecksumLanes`].
///
/// Latency-bound at ~4 cycles/byte: each byte is one xor and one multiply
/// on the running hash, so nothing vectorizes or reorders one chain. Its
/// value is pinned by every record digest (the tests' serial references
/// and the benchmark's `expected.json` `outputs`), so do not "optimise" it
/// into a different function; to checksum many images, run their chains
/// side by side in [`ChecksumLanes`].
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash = [FNV_BASIS];
    fnv1a_lanes::<1>(&mut hash, &[bytes]);
    hash[0]
}

/// Images [`ChecksumLanes`] hashes at once.
pub const LANES: usize = 4;

/// Bytes each lane advances per [`ChecksumLanes::step`]: images join and
/// leave only between steps.
pub const CHUNK: usize = 64 << 10;

/// Up to [`LANES`] byte images checksummed at once.
///
/// One FNV-1a chain leaves the multiplier idle while each multiply's
/// result comes back; the chains of independent images fill it, so four
/// 2 MiB images take little longer than one. Each image gets exactly
/// [`checksum`] of its bytes, whichever images shared its steps.
pub struct ChecksumLanes<T> {
    lanes: Vec<Lane<T>>,
}

/// One image in flight: its running hash and how many bytes it covers.
struct Lane<T> {
    image: T,
    hash: u64,
    hashed: usize,
}

impl<T: AsRef<[u8]>> ChecksumLanes<T> {
    /// No image in flight.
    pub fn new() -> Self {
        ChecksumLanes {
            lanes: Vec::with_capacity(LANES),
        }
    }

    /// Whether no image is in flight.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Whether every lane holds an image.
    pub fn is_full(&self) -> bool {
        self.lanes.len() == LANES
    }

    /// Starts checksumming `image` at the next step.
    ///
    /// # Panics
    /// If every lane holds an image.
    pub fn join(&mut self, image: T) {
        assert!(!self.is_full(), "all {LANES} lanes are busy");
        self.lanes.push(Lane {
            image,
            hash: FNV_BASIS,
            hashed: 0,
        });
    }

    /// Advances every lane by up to [`CHUNK`] bytes, then hands each image
    /// whose bytes are all hashed to `finished`, with its checksum, and
    /// frees its lane.
    pub fn step(&mut self, mut finished: impl FnMut(T, u64)) {
        let mut hashes = [0u64; LANES];
        let mut chunks: [&[u8]; LANES] = [&[]; LANES];
        for (l, lane) in self.lanes.iter().enumerate() {
            let bytes = &lane.image.as_ref()[lane.hashed..];
            hashes[l] = lane.hash;
            chunks[l] = &bytes[..bytes.len().min(CHUNK)];
        }
        let lens = chunks.map(<[u8]>::len);
        let n = self.lanes.len();
        let (h, c) = (&mut hashes[..n], &chunks[..n]);
        // One loop per lane count, so each keeps its chains in registers.
        match n {
            0 => {}
            1 => fnv1a_lanes::<1>(h, c),
            2 => fnv1a_lanes::<2>(h, c),
            3 => fnv1a_lanes::<3>(h, c),
            _ => fnv1a_lanes::<LANES>(h, c),
        }
        for (lane, (hash, len)) in self.lanes.iter_mut().zip(hashes.into_iter().zip(lens)) {
            lane.hash = hash;
            lane.hashed += len;
        }
        for lane in self
            .lanes
            .extract_if(.., |lane| lane.hashed == lane.image.as_ref().len())
        {
            finished(lane.image, lane.hash);
        }
    }
}

impl<T: AsRef<[u8]>> Default for ChecksumLanes<T> {
    fn default() -> Self {
        Self::new()
    }
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
    fn fill_golden() {
        // (seed, offset, len, checksum of the filled bytes), recorded
        // before the whole-word loop carried `word·G` as a running sum:
        // any rewrite of the fill must reproduce every byte.
        let far = u64::MAX / 8 - 3;
        let golden: [(u64, u64, usize, u64); 10] = [
            (2009, 0, 2 << 20, 0xa7a5_107f_bf3c_63dd),
            (2009, 3, 5, 0xe916_7cde_8644_139a),
            (2009, 3, 37, 0x86ef_a47c_e3f5_83f4),
            (2009, 3, 4099, 0xe53b_9380_76ff_762a),
            (7, 100, 5, 0xa8fb_d65b_e25e_136e),
            (7, 100, 37, 0xdbf2_7dc7_a3c5_92f1),
            (7, 100, 4099, 0x81d3_f862_6c6a_bd29),
            (7, 100, 0, 0xcbf2_9ce4_8422_2325),
            (42, far, 37, 0x3605_5913_19d5_8401),
            (42, far, 4099, 0xde59_d2fc_e8b7_2dcf),
        ];
        for (seed, offset, len, want) in golden {
            let mut buf = vec![0u8; len];
            fill_deterministic(seed, offset, &mut buf);
            assert_eq!(
                checksum(&buf),
                want,
                "seed {seed} offset {offset} len {len}"
            );
        }
    }

    #[test]
    fn checksum_known_value_and_sensitivity() {
        // FNV-1a("a") per the reference implementation.
        assert_eq!(checksum(b"a"), 0xaf63dc4c8601ec8c);
        assert_ne!(checksum(b"ab"), checksum(b"ba"));
        assert_ne!(checksum(b""), checksum(b"\0"));
    }

    #[test]
    fn lanes_give_each_image_its_checksum() {
        struct Image(usize, Vec<u8>);
        impl AsRef<[u8]> for Image {
            fn as_ref(&self) -> &[u8] {
                &self.1
            }
        }
        // Every length twice, longest first; one image joins at each step
        // while a lane is free. The two long images run beside chains of
        // every other length, which join at different chunk boundaries.
        let lens = [(2 << 20) + 3, CHUNK + 1, CHUNK, CHUNK - 1, 7, 1, 0];
        let images: Vec<Image> = lens
            .iter()
            .flat_map(|&len| [len, len])
            .enumerate()
            .map(|(i, len)| {
                let mut bytes = vec![0u8; len];
                fill_deterministic(i as u64, 3, &mut bytes);
                Image(i, bytes)
            })
            .collect();
        let want: Vec<u64> = images.iter().map(|image| checksum(&image.1)).collect();
        let mut waiting = images.into_iter();
        let mut lanes = ChecksumLanes::new();
        let (mut in_flight, mut peak) = (0, 0);
        let mut done = Vec::new();
        loop {
            if !lanes.is_full() {
                if let Some(image) = waiting.next() {
                    lanes.join(image);
                    in_flight += 1;
                }
            }
            if lanes.is_empty() {
                break;
            }
            peak = peak.max(in_flight);
            lanes.step(|Image(i, bytes), sum| {
                assert_eq!(sum, want[i], "image {i}, {} bytes", bytes.len());
                done.push(i);
                in_flight -= 1;
            });
        }
        assert_eq!(peak, LANES);
        done.sort_unstable();
        assert_eq!(done, (0..want.len()).collect::<Vec<_>>());
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
