//! Sorting kernel for the Terasort-style experiment.
//!
//! The paper's §IV-A closes with an observation on the Terabyte Sort
//! benchmark (per-node sorting rate ~5.5 MB/s dominated by data feed). The
//! Terasort preset times its map-side sort and reduce-side merge from
//! [`cost::sort_time`](crate::cost::sort_time); this module is the real
//! in-node kernel that rate stands for: 100-byte records with 10-byte keys
//! (the classic GraySort format), a deterministic generator, and an LSD
//! radix sort.

/// A GraySort-style record: 10 key bytes + 90 payload bytes, compressed here
/// to the key prefix (as `u64` + 2 spare bytes) and a payload seed, which is
/// enough to regenerate the full record deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SortRecord {
    /// Big-endian numeric value of the first 8 key bytes (sort order).
    pub key_hi: u64,
    /// Last 2 key bytes.
    pub key_lo: u16,
    /// Seed regenerating the 90 payload bytes.
    pub payload_seed: u32,
}

impl SortRecord {
    /// Total ordering on the 10-byte key.
    #[inline]
    pub fn key_cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key_hi
            .cmp(&other.key_hi)
            .then(self.key_lo.cmp(&other.key_lo))
    }

    /// Size of the materialized record in bytes (GraySort format).
    pub const BYTES: usize = 100;
}

/// Deterministically generates `n` records of stream `seed`, starting at
/// record index `start` (so splits can generate their own ranges).
pub fn generate_records(seed: u64, start: u64, n: usize) -> Vec<SortRecord> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let mut s = seed ^ (start + i).wrapping_mul(0xD1B5_4A32_D192_ED03);
        let a = accelmr_des::splitmix64(&mut s);
        let b = accelmr_des::splitmix64(&mut s);
        out.push(SortRecord {
            key_hi: a,
            key_lo: (b & 0xffff) as u16,
            payload_seed: (b >> 32) as u32,
        });
    }
    out
}

/// LSD radix sort on the 8 high key bytes (8 passes × 8 bits), stable, then
/// a cleanup pass for ties on the low 2 bytes. O(n) and allocation-reusing —
/// the shape an SPU-resident sort kernel takes.
pub fn radix_sort(records: &mut Vec<SortRecord>) {
    let n = records.len();
    if n < 2 {
        return;
    }
    let mut scratch: Vec<SortRecord> = Vec::with_capacity(n);
    // Safety-free version: use a temp vec and mem::swap per pass.
    for pass in 0..8 {
        let shift = pass * 8;
        let mut counts = [0usize; 256];
        for r in records.iter() {
            counts[((r.key_hi >> shift) & 0xff) as usize] += 1;
        }
        let mut offsets = [0usize; 256];
        let mut acc = 0;
        for (o, c) in offsets.iter_mut().zip(counts.iter()) {
            *o = acc;
            acc += c;
        }
        scratch.clear();
        scratch.resize(
            n,
            SortRecord {
                key_hi: 0,
                key_lo: 0,
                payload_seed: 0,
            },
        );
        for r in records.iter() {
            let b = ((r.key_hi >> shift) & 0xff) as usize;
            scratch[offsets[b]] = *r;
            offsets[b] += 1;
        }
        std::mem::swap(records, &mut scratch);
    }
    // key_hi collisions are vanishingly rare with random keys, but
    // correctness must not depend on luck: fix up equal-key_hi runs.
    let mut i = 0;
    while i < n {
        let mut j = i + 1;
        while j < n && records[j].key_hi == records[i].key_hi {
            j += 1;
        }
        if j - i > 1 {
            records[i..j].sort_by(|a, b| a.key_cmp(b));
        }
        i = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_sorted(records: &[SortRecord]) -> bool {
        records
            .windows(2)
            .all(|w| w[0].key_cmp(&w[1]) != std::cmp::Ordering::Greater)
    }

    #[test]
    fn radix_sort_sorts_and_preserves_multiset() {
        let mut records = generate_records(1, 0, 10_000);
        let mut expected = records.clone();
        expected.sort_by(|a, b| a.key_cmp(b));
        radix_sort(&mut records);
        assert!(is_sorted(&records));
        assert_eq!(records, expected);
    }

    #[test]
    fn radix_sort_handles_ties_on_low_bytes() {
        let mut records = vec![
            SortRecord {
                key_hi: 5,
                key_lo: 9,
                payload_seed: 1,
            },
            SortRecord {
                key_hi: 5,
                key_lo: 2,
                payload_seed: 2,
            },
            SortRecord {
                key_hi: 1,
                key_lo: 7,
                payload_seed: 3,
            },
            SortRecord {
                key_hi: 5,
                key_lo: 5,
                payload_seed: 4,
            },
        ];
        radix_sort(&mut records);
        assert!(is_sorted(&records));
        assert_eq!(records[0].key_hi, 1);
        assert_eq!(
            records[1..].iter().map(|r| r.key_lo).collect::<Vec<_>>(),
            vec![2, 5, 9]
        );
    }

    #[test]
    fn radix_sort_trivial_sizes() {
        let mut empty: Vec<SortRecord> = vec![];
        radix_sort(&mut empty);
        assert!(empty.is_empty());
        let mut one = generate_records(2, 0, 1);
        radix_sort(&mut one);
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn generation_is_deterministic_and_range_consistent() {
        let all = generate_records(3, 0, 100);
        let head = generate_records(3, 0, 40);
        let tail = generate_records(3, 40, 60);
        assert_eq!(&all[..40], &head[..]);
        assert_eq!(&all[40..], &tail[..]);
    }
}
