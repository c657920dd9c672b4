//! The record digest, off the event thread.
//!
//! Every materialized record is digested once, here: the FNV-1a
//! [`checksum`] of the kernel's output image, or of the input image when
//! the kernel returned none. FNV-1a is latency-bound and would otherwise
//! be most of a functional run's host time, so one worker thread computes
//! it while the event thread goes on with the next record. The worker sees
//! only the bytes it is handed: no simulation state crosses, and its reply
//! is a pure function of them. An attempt folds its replies when it
//! reports (`finish`); a killed attempt just drops them. The fold is a
//! wrapping sum, so the order in which replies arrive cannot show.

use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::OnceLock;

use accelmr_kernels::{checksum, UnorderedDigest};

/// One record image and where its checksum goes.
type Job = (Vec<u8>, Sender<u64>);

/// The worker's inbox, started on the first materialized record. A
/// rendezvous channel: the event thread hands an image over only when the
/// worker is free, so at most one image waits on it.
static WORKER: OnceLock<SyncSender<Job>> = OnceLock::new();

/// Starts the worker. It lives as long as the process and is never
/// joined; `checksum` cannot panic, and a worker that died anyway shows as
/// the channel errors in [`Digests`].
#[expect(
    clippy::disallowed_methods,
    reason = "the one host thread: computes checksum over images it owns, never touches Sim, Ctx or Stats"
)]
fn start_worker() -> SyncSender<Job> {
    let (tx, rx) = sync_channel::<Job>(0);
    std::thread::Builder::new()
        .name("accelmr-digest".into())
        .spawn(move || {
            for (image, reply) in rx {
                // The attempt may have been killed meanwhile.
                let _ = reply.send(checksum(&image));
            }
        })
        .expect("digest worker starts");
    tx
}

/// The record digests of one attempt, in flight on the worker.
#[derive(Default)]
pub(super) struct Digests(Vec<Receiver<u64>>);

impl Digests {
    /// Hands one record image to the worker, waiting while it is busy
    /// with the previous one.
    pub fn add(&mut self, image: Vec<u8>) {
        let (reply, rx) = channel();
        WORKER
            .get_or_init(start_worker)
            .send((image, reply))
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
