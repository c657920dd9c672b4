//! One process-wide pool of record images.
//!
//! A functional run moves every record through a few byte images: the
//! DataNode fills one, the kernel writes its output into another, the
//! digest worker hashes one and is done with it. Allocating each afresh
//! costs a 2 MiB record an allocation, a zero pass or a fresh mapping
//! whose pages fault on first touch, and a free. Drawn from here and
//! handed back, the same few images circulate.
//!
//! [`take`] hands out an image with unspecified old contents: its caller
//! overwrites every byte, as [`fill_deterministic`] and a DMA-put over
//! every block do. The pool decides no byte and no event; thread timing
//! changes only how many images it holds.
//!
//! [`fill_deterministic`]: crate::fill_deterministic

use std::sync::{Mutex, MutexGuard};

/// Images handed back and not yet taken again.
static POOL: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

/// The pool, also after a panic while it was locked: it holds plain
/// bytes, and every update leaves it a valid list of images.
fn pool() -> MutexGuard<'static, Vec<Vec<u8>>> {
    POOL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A `len`-byte image whose old contents are unspecified; the caller must
/// overwrite all of it.
///
/// Reuses the latest image already `len` bytes long or longer, so a short
/// record does not cost the next full one a zero pass; else the latest
/// whose capacity covers `len`, zeroing only the bytes past its old
/// length. Allocates only when no image covers `len`, and then frees one
/// short image so the pool does not fill up with images too small to use.
pub fn take(len: usize) -> Vec<u8> {
    let mut images = pool();
    let covering = images
        .iter()
        .rposition(|image| image.len() >= len)
        .or_else(|| images.iter().rposition(|image| image.capacity() >= len));
    let Some(at) = covering else {
        // Free the short image and allocate with the lock released.
        let short = images.pop();
        drop(images);
        drop(short);
        return vec![0u8; len];
    };
    let mut image = images.swap_remove(at);
    drop(images);
    image.resize(len, 0);
    image
}

/// Hands `image` back for a later [`take`].
pub fn give(image: Vec<u8>) {
    pool().push(image);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The only test of this crate that touches the pool, so each `take`
    /// here draws what the lines before it handed back.
    #[test]
    fn take_reuses_covering_images_and_no_stale_byte_shows() {
        // Which image `take` reuses: one already long enough before one
        // that only has the capacity, the latest of either kind, and none
        // too short, which it frees instead.
        let image = |len: usize, cap: usize, byte: u8| {
            let mut image = Vec::with_capacity(cap);
            image.resize(len, byte);
            image
        };
        give(image(64, 64, 1));
        give(image(64, 64, 2));
        give(image(8, 256, 3));
        give(image(4, 4, 4));
        assert_eq!(take(16), [2; 16]);
        assert_eq!(take(16), [1; 16]);
        assert_eq!(take(16)[..8], [3; 8]);
        assert_eq!(take(16), [0; 16]);
        assert!(pool().is_empty());

        // The record lengths of `cellbe`'s pipeline golden table, its
        // 200,003-byte ragged tail and 2 and 3 MiB records, each filled
        // over a stale image shorter than, as long as and longer than it.
        let lens = [
            0,
            2_008,
            40_960,
            70_000,
            200_003,
            300_000,
            (1 << 20) + 5_000,
            2 << 20,
            3 << 20,
        ];
        for len in lens {
            for (offset, stale) in [(0, len / 2), (3, len), (256 << 10, len + 4_099)] {
                give(vec![0xA5; stale]);
                let mut image = take(len);
                assert_eq!(image.len(), len);
                if stale >= len {
                    assert!(
                        image.iter().all(|&b| b == 0xA5),
                        "{len}: not the stale image"
                    );
                }
                crate::fill_deterministic(17, offset, &mut image);
                let mut fresh = vec![0u8; len];
                crate::fill_deterministic(17, offset, &mut fresh);
                assert!(
                    image == fresh,
                    "{len} bytes at {offset}: stale bytes showed"
                );
            }
        }
    }
}
