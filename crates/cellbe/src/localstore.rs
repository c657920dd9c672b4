//! SPE local store model.
//!
//! Each SPE owns 256 KB of private memory; all data it touches must be
//! DMA'd in and out explicitly. The model tracks a bump allocation map (the
//! offload runtime's buffer layout) and, in functional mode, holds real
//! bytes so kernels execute on data that physically traveled through the
//! simulated store.

use crate::config::CellConfigError;

/// One SPE's local store: an allocation map plus (optionally) real backing
/// bytes.
#[derive(Debug)]
pub struct LocalStore {
    capacity: usize,
    reserved: usize,
    cursor: usize,
    data: Option<Vec<u8>>,
}

/// A buffer allocated inside a local store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LsBuffer {
    /// Offset of the buffer within the local store.
    pub offset: usize,
    /// Buffer length in bytes.
    pub len: usize,
}

impl LocalStore {
    /// Creates a store of `capacity` bytes with the first `reserved` bytes
    /// held back for code/stack. `materialized` allocates real backing
    /// memory (functional simulation); otherwise only the map is tracked.
    pub fn new(capacity: usize, reserved: usize, materialized: bool) -> Self {
        assert!(reserved <= capacity, "reservation exceeds capacity");
        LocalStore {
            capacity,
            reserved,
            cursor: reserved,
            data: materialized.then(|| vec![0u8; capacity]),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Allocates `len` bytes aligned to `align`.
    pub fn alloc(&mut self, len: usize, align: usize) -> Result<LsBuffer, CellConfigError> {
        debug_assert!(align.is_power_of_two());
        let offset = (self.cursor + align - 1) & !(align - 1);
        let end = offset.checked_add(len).ok_or(CellConfigError::Degenerate(
            "local store allocation overflow",
        ))?;
        if end > self.capacity {
            return Err(CellConfigError::LocalStoreOverflow {
                needed: end - self.reserved,
                available: self.capacity - self.reserved,
            });
        }
        self.cursor = end;
        Ok(LsBuffer { offset, len })
    }

    /// Releases every allocation (buffers are reused across blocks; the
    /// offload runtime resets between sessions).
    pub fn reset(&mut self) {
        self.cursor = self.reserved;
    }

    /// Copies bytes into the store (the destination of a DMA get).
    /// No-op in virtual mode.
    pub fn write(&mut self, buf: LsBuffer, at: usize, bytes: &[u8]) {
        debug_assert!(at + bytes.len() <= buf.len, "write past buffer end");
        if let Some(data) = &mut self.data {
            data[buf.offset + at..buf.offset + at + bytes.len()].copy_from_slice(bytes);
        }
    }

    /// Reads bytes out of the store (the source of a DMA put). Returns
    /// `None` in virtual mode.
    pub fn read(&self, buf: LsBuffer, at: usize, len: usize) -> Option<&[u8]> {
        debug_assert!(at + len <= buf.len, "read past buffer end");
        self.data
            .as_ref()
            .map(|d| &d[buf.offset + at..buf.offset + at + len])
    }

    /// Mutable view of a buffer for in-place kernel execution.
    /// Returns `None` in virtual mode.
    pub fn slice_mut(&mut self, buf: LsBuffer, at: usize, len: usize) -> Option<&mut [u8]> {
        debug_assert!(at + len <= buf.len);
        self.data
            .as_mut()
            .map(|d| &mut d[buf.offset + at..buf.offset + at + len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment_and_capacity() {
        let mut ls = LocalStore::new(1024, 100, false);
        let a = ls.alloc(10, 16).unwrap();
        assert_eq!(a.offset % 16, 0);
        assert!(a.offset >= 100);
        let b = ls.alloc(10, 16).unwrap();
        assert!(b.offset >= a.offset + a.len);
        assert!(ls.alloc(2048, 16).is_err());
    }

    #[test]
    fn reset_reclaims_space() {
        let mut ls = LocalStore::new(256, 0, false);
        ls.alloc(200, 16).unwrap();
        assert!(ls.alloc(200, 16).is_err());
        ls.reset();
        ls.alloc(200, 16).unwrap();
    }

    #[test]
    fn materialized_round_trip() {
        let mut ls = LocalStore::new(512, 0, true);
        let buf = ls.alloc(64, 16).unwrap();
        ls.write(buf, 0, b"hello spu");
        assert_eq!(ls.read(buf, 0, 9).unwrap(), b"hello spu");
        // In-place mutation (what a kernel does).
        ls.slice_mut(buf, 0, 5).unwrap().copy_from_slice(b"HELLO");
        assert_eq!(ls.read(buf, 0, 9).unwrap(), b"HELLO spu");
    }

    #[test]
    fn virtual_mode_tracks_map_only() {
        let mut ls = LocalStore::new(512, 0, false);
        let buf = ls.alloc(64, 16).unwrap();
        ls.write(buf, 0, b"ignored");
        assert!(ls.read(buf, 0, 7).is_none());
        assert!(ls.slice_mut(buf, 0, 7).is_none());
    }

    #[test]
    #[should_panic(expected = "reservation exceeds capacity")]
    fn reservation_larger_than_capacity_panics() {
        LocalStore::new(10, 20, false);
    }
}
