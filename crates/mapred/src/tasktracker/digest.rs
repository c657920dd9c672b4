//! The record digest, off the event thread.
//!
//! Every materialized record is digested once, here: the FNV-1a
//! [`checksum`](accelmr_kernels::checksum) of the kernel's output image,
//! or of the input image when the kernel returned none. FNV-1a is
//! latency-bound and would otherwise be most of a functional run's host
//! time, so one worker thread computes it while the event thread goes on
//! with the next record. The worker hashes up to
//! [`LANES`](accelmr_kernels::LANES) images at once ([`ChecksumLanes`]):
//! one chain leaves the multiplier idle, four fill it, so four records
//! cost about what one did. It sees only the bytes it is handed: no
//! simulation state crosses, and each reply is a pure function of one
//! image. Each hashed image goes back to the record-image pool
//! ([`accelmr_kernels::pool`]) for the DataNodes and kernels to fill
//! again. An attempt folds its replies when it reports (`finish`); a
//! killed attempt just drops them. The fold is a wrapping sum, so the
//! order in which replies arrive cannot show.
//!
//! The hand-off has one slot. The event thread leaves an image there
//! and goes on, unless the slot is still full; it then waits in `send`
//! until the worker empties the slot at its next chunk boundary or when
//! a lane frees. So at most six images are in flight: four in the lanes,
//! one in the slot and one in `send`.

use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::OnceLock;

use accelmr_kernels::{pool, ChecksumLanes, UnorderedDigest};

/// One record image and where its checksum goes.
struct Job {
    image: Vec<u8>,
    reply: Sender<u64>,
}

impl AsRef<[u8]> for Job {
    fn as_ref(&self) -> &[u8] {
        &self.image
    }
}

/// The worker's inbox, started on the first materialized record: a
/// channel with one slot.
static WORKER: OnceLock<SyncSender<Job>> = OnceLock::new();

/// Starts the worker. It lives as long as the process and is never
/// joined; hashing cannot panic, and a worker that died anyway shows as
/// the channel errors in [`Digests`].
#[expect(
    clippy::disallowed_methods,
    reason = "the one host thread: checksums images it owns, never touches Sim, Ctx or Stats"
)]
fn start_worker() -> SyncSender<Job> {
    let (tx, rx) = sync_channel::<Job>(1);
    std::thread::Builder::new()
        .name("accelmr-digest".into())
        .spawn(move || digest_images(rx))
        .expect("digest worker starts");
    tx
}

/// The worker's loop: waits for an image while no lane is busy, takes
/// every image already offered into a free lane at each chunk boundary,
/// and replies to each image as soon as its lane is done, then hands the
/// image back to the pool.
fn digest_images(rx: Receiver<Job>) {
    let mut lanes = ChecksumLanes::new();
    loop {
        if lanes.is_empty() {
            let Ok(job) = rx.recv() else { return };
            lanes.join(job);
        }
        while !lanes.is_full() {
            let Ok(job) = rx.try_recv() else { break };
            lanes.join(job);
        }
        lanes.step(|Job { image, reply }, sum| {
            // The attempt may have been killed meanwhile.
            let _ = reply.send(sum);
            pool::give(image);
        });
    }
}

/// The record digests of one attempt, in flight on the worker.
#[derive(Default)]
pub(super) struct Digests(Vec<Receiver<u64>>);

impl Digests {
    /// Hands one record image to the worker. Waits only while the slot
    /// still holds the image before: until the worker's next chunk
    /// boundary, or until a lane frees if all are busy.
    pub fn add(&mut self, image: Vec<u8>) {
        let (reply, rx) = channel();
        WORKER
            .get_or_init(start_worker)
            .send(Job { image, reply })
            .expect("the digest worker never exits");
        self.0.push(rx);
    }

    /// Waits for every digest of the attempt: `(digest, record count)`.
    pub fn finish(self) -> (u64, u64) {
        let mut digest = UnorderedDigest::new();
        for rx in self.0 {
            digest.add(rx.recv().expect("the digest worker replies to every image"));
        }
        digest.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelmr_kernels::{checksum, fill_deterministic, CHUNK, LANES};

    #[test]
    fn a_dropped_attempt_leaves_the_others_digest_whole() {
        // Two attempts interleave more images than the worker has lanes;
        // one is dropped with its images still in flight.
        let images: Vec<Vec<u8>> = (0..2 * LANES as u64 + 1)
            .map(|i| {
                let mut image = vec![0u8; CHUNK / 2 + (i as usize) * (CHUNK / 3)];
                fill_deterministic(i, 5, &mut image);
                image
            })
            .collect();
        let mut kept = Digests::default();
        let mut killed = Digests::default();
        for image in &images {
            kept.add(image.clone());
            killed.add(image.iter().rev().copied().collect());
        }
        drop(killed);
        let mut serial = UnorderedDigest::new();
        for image in &images {
            serial.add(checksum(image));
        }
        assert_eq!(kept.finish(), serial.finish());
    }
}
