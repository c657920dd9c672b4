//! Whole-run determinism and cross-crate property tests.
//!
//! Determinism: the same seed reproduces a run bit for bit and a different
//! seed changes the schedule — on a small Pi job, and on the hardest paths
//! in the tree at once (the churn + fair-share session below). This is the
//! dynamic half of the determinism story: the static lints (`clippy.toml`
//! and `[workspace.lints]`) keep wall-clock, OS randomness, SipHash-seeded
//! maps and unordered map walks out of the event path; two in-process runs
//! share nothing but the code, so any hash-order, allocation-order or
//! ambient-state leak into event scheduling diverges the fingerprint here.
//!
//! Properties: AES implementation equivalence, CTR split composition,
//! flow-model invariants, and the Cell estimator-vs-event-model agreement.
//! Cases are generated with the workspace's own deterministic RNG (no
//! external property-testing dependency): every run explores the same
//! fixed set of random cases, so failures reproduce exactly.

use accelmr::cellbe::{estimate, CellConfig, CellMachine, DataInput, IdentityKernel};
use accelmr::des::{Trace, Xoshiro256};
use accelmr::kernels::aes::modes::{ctr_xor, ecb_decrypt, ecb_encrypt};
use accelmr::mapred::SchedulerPolicy;
use accelmr::net::{max_min_rates, FlowDemand, LinkId, LinkTable};
use accelmr::prelude::*;

fn run_cluster_pi(seed: u64) -> (JobResult, Trace) {
    let mut c = ClusterBuilder::new()
        .seed(seed)
        .workers(3)
        .env(CellEnvFactory::default())
        .deploy();
    c.sim.enable_trace(1 << 14);
    let mut session = c.session();
    session.submit(
        presets::pi(PiMapper::Cell, 99, 50_000_000)
            .name("det-pi")
            .map_tasks(6),
    );
    let r = session.run();
    (r, c.sim.trace().clone())
}

#[test]
fn whole_cluster_runs_are_deterministic() {
    let (r1, t1) = run_cluster_pi(5);
    let (r2, t2) = run_cluster_pi(5);
    assert_eq!(r1.elapsed, r2.elapsed);
    assert_eq!(r1.kv, r2.kv);
    assert_eq!(
        t1.fingerprint(),
        t2.fingerprint(),
        "event streams diverged: {:?}",
        t1.first_divergence(&t2)
    );
}

#[test]
fn different_seeds_change_schedule_not_results() {
    // Heartbeat jitter differs, so traces differ — but the Pi result (pure
    // function of the job seed) and task structure are identical.
    let (r1, t1) = run_cluster_pi(5);
    let (r2, t2) = run_cluster_pi(6);
    assert_ne!(t1.fingerprint(), t2.fingerprint());
    assert_eq!(r1.kv, r2.kv);
    assert_eq!(r1.map_tasks, r2.map_tasks);
}

const MB: u64 = 1 << 20;
const RECORD: u64 = 2 * MB;

/// One job's observable result surface: name, success, output digest,
/// reduced kv pairs, and elapsed simulated time.
type JobObservation = (String, bool, (u64, u64), Vec<(u64, u64)>, SimDuration);

/// Everything observable about one session: the full event-stream
/// fingerprint plus each job's result surface.
#[derive(Debug, PartialEq)]
struct SessionObservation {
    fingerprint: u64,
    events: u64,
    jobs: Vec<JobObservation>,
    joined: u64,
    left: u64,
}

fn churn_fair_share_session(seed: u64) -> (SessionObservation, Trace) {
    let mut cluster = ClusterBuilder::new()
        .seed(seed)
        .workers(4)
        .scheduler(SchedulerPolicy::FairShare)
        .env(CellEnvFactory { materialized: true })
        .materialized(true)
        .mr(MrConfig {
            tt_dead_after: SimDuration::from_secs(12),
            ..MrConfig::default()
        })
        .dfs(DfsConfig {
            dead_after: SimDuration::from_secs(12),
        })
        .deploy();
    cluster.sim.enable_trace(1 << 14);
    let mut session = cluster.session();

    // Two joins and one crash-shaped leave land while the map queues are
    // deep: exercises fabric link growth, DataNode spawn/rewire, DFS
    // re-replication repair, and shuffle re-accounting.
    let joined = session.churn(ChurnSchedule::wave(
        2,
        &[NodeId(1)],
        SimDuration::from_secs(10),
        SimDuration::from_secs(8),
    ));
    assert_eq!(joined, vec![NodeId(5), NodeId(6)]);

    // A heavy sorting tenant and a light staggered pi tenant compete
    // under weighted fair-share the whole way through the churn wave.
    session.submit(
        presets::terasort_replicated("/gray", 48 * RECORD, 3, 2)
            .name("det-sort")
            .record_bytes(RECORD)
            .map_tasks(48)
            .tenant("tenant-heavy")
            .weight(2.0),
    );
    session.submit_after(
        SimDuration::from_secs(5),
        presets::pi(PiMapper::Cell, 7, 20_000_000)
            .name("det-pi")
            .map_tasks(8)
            .tenant("tenant-light")
            .weight(1.0),
    );

    let results = session.run_until_complete();
    assert!(results.iter().all(|r| r.succeeded), "{results:?}");
    let observation = SessionObservation {
        fingerprint: cluster.sim.trace().fingerprint(),
        events: cluster.sim.trace().recorded(),
        jobs: results
            .iter()
            .map(|r| {
                (
                    r.name.clone(),
                    r.succeeded,
                    r.digest,
                    r.kv.clone(),
                    r.elapsed,
                )
            })
            .collect(),
        joined: cluster.sim.stats().counter("cluster.nodes_joined"),
        left: cluster.sim.stats().counter("cluster.nodes_left"),
    };
    (observation, cluster.sim.trace().clone())
}

/// Two runs of the identical churn + fair-share session in one process:
/// fingerprints and digests must be byte-identical. This pins the
/// FxHasher fixed seed and map-iteration stability behind the static
/// lints — a `RandomState` map or unsorted map walk anywhere in
/// the event path shows up here as a fingerprint mismatch.
#[test]
fn churn_fair_share_session_is_bit_reproducible() {
    let (first, first_trace) = churn_fair_share_session(97);
    let (second, second_trace) = churn_fair_share_session(97);
    // The wave actually happened (both runs, asserted via first).
    assert_eq!((first.joined, first.left), (2, 1));
    assert_eq!(
        first.fingerprint,
        second.fingerprint,
        "event streams diverged: {:?}",
        first_trace.first_divergence(&second_trace)
    );
    assert_eq!(first, second, "job observations diverged");
}

/// A different seed must change the schedule (heartbeat jitter) — the
/// fingerprint is a real function of the seed, not a constant.
#[test]
fn different_seed_changes_the_event_stream() {
    let (a, _) = churn_fair_share_session(97);
    let (b, _) = churn_fair_share_session(98);
    assert_ne!(a.fingerprint, b.fingerprint);
}

fn random_key(rng: &mut Xoshiro256) -> [u8; 16] {
    let mut key = [0u8; 16];
    for b in &mut key {
        *b = rng.next_u64() as u8;
    }
    key
}

#[test]
fn aes_implementations_agree() {
    let mut rng = Xoshiro256::seed_from_u64(0xA15);
    for _ in 0..64 {
        let key = random_key(&mut rng);
        let blocks = rng.range_inclusive(1, 15) as usize;
        let seed = rng.next_u64();
        let aes = Aes128::new(&key);
        let mut data = vec![0u8; blocks * 16];
        accelmr::kernels::fill_deterministic(seed, 0, &mut data);
        let mut scalar = data.clone();
        let mut ttable = data.clone();
        let mut hardware = data.clone();
        ecb_encrypt(&aes, AesImpl::Scalar, &mut scalar);
        ecb_encrypt(&aes, AesImpl::TTable, &mut ttable);
        ecb_encrypt(&aes, AesImpl::Hardware, &mut hardware);
        assert_eq!(scalar, ttable);
        assert_eq!(scalar, hardware);
        // And decryption inverts.
        ecb_decrypt(&aes, &mut scalar);
        assert_eq!(scalar, data);
    }
}

#[test]
fn ctr_split_composition() {
    // Splitting a CTR stream at any 16-byte boundary must compose to the
    // serial result — the property split-parallel encryption needs.
    let mut rng = Xoshiro256::seed_from_u64(0xC12);
    for _ in 0..64 {
        let key = random_key(&mut rng);
        let len = rng.range_inclusive(1, 511) as usize;
        let split = rng.next_below(512) as usize;
        let nonce = rng.next_u64();
        let aes = Aes128::new(&key);
        let split = (split % (len + 1) / 16) * 16;
        let mut data = vec![0u8; len];
        accelmr::kernels::fill_deterministic(1, 0, &mut data);
        let mut serial = data.clone();
        ctr_xor(&aes, AesImpl::TTable, nonce, 0, &mut serial);
        let mut hardware = data.clone();
        let (a, b) = hardware.split_at_mut(split);
        ctr_xor(&aes, AesImpl::Hardware, nonce, 0, a);
        ctr_xor(&aes, AesImpl::Hardware, nonce, split as u64 / 16, b);
        let (a, b) = data.split_at_mut(split);
        ctr_xor(&aes, AesImpl::TTable, nonce, 0, a);
        ctr_xor(&aes, AesImpl::Scalar, nonce, split as u64 / 16, b);
        assert_eq!(data, serial);
        assert_eq!(hardware, serial);
    }
}

#[test]
fn max_min_never_oversubscribes() {
    let mut rng = Xoshiro256::seed_from_u64(0xF10);
    for _ in 0..64 {
        let n_links = rng.range_inclusive(1, 5) as usize;
        let caps: Vec<f64> = (0..n_links).map(|_| 1.0 + rng.next_f64() * 999.0).collect();
        let n_flows = rng.next_below(12) as usize;
        let flows: Vec<(usize, usize, f64)> = (0..n_flows)
            .map(|_| {
                (
                    rng.next_below(6) as usize,
                    rng.next_below(6) as usize,
                    0.5 + rng.next_f64() * 499.5,
                )
            })
            .collect();

        let mut links = LinkTable::new();
        for &c in &caps {
            links.add(c);
        }
        let demands: Vec<FlowDemand> = flows
            .iter()
            .map(|&(a, b, cap)| {
                let mut ls = vec![LinkId(a % caps.len())];
                let l2 = LinkId(b % caps.len());
                if !ls.contains(&l2) {
                    ls.push(l2);
                }
                FlowDemand { links: ls, cap }
            })
            .collect();
        let rates = max_min_rates(&links, &demands);
        assert_eq!(rates.len(), demands.len());
        let mut used = vec![0.0f64; caps.len()];
        for (r, d) in rates.iter().zip(&demands) {
            assert!(*r >= 0.0);
            assert!(*r <= d.cap + 1e-6);
            for l in &d.links {
                used[l.0] += r;
            }
        }
        for (u, c) in used.iter().zip(&caps) {
            assert!(*u <= c + 1e-3, "link oversubscribed: {u} > {c}");
        }
        // Work conservation: at least one flow gets a positive rate unless
        // there are no flows.
        if !demands.is_empty() {
            assert!(rates.iter().any(|&r| r > 0.0));
        }
    }
}

#[test]
fn cell_estimator_tracks_event_model() {
    let mut rng = Xoshiro256::seed_from_u64(0xCE11);
    for _ in 0..24 {
        let mb = rng.range_inclusive(1, 63);
        let cpb = 1.0 + rng.next_f64() * 299.0;
        let block_kb = rng.range_inclusive(1, 7) as usize;
        let cfg = CellConfig::default();
        let block = block_kb * 4096; // 4..32 KB, aligned
        let bytes = mb << 20;
        let mut m = CellMachine::new(cfg.clone(), false).unwrap();
        m.warm_up();
        let kernel = IdentityKernel::new(cpb);
        let detailed = m
            .run_data(DataInput::Virtual(bytes), &kernel, block)
            .unwrap();
        let body = (detailed.elapsed - detailed.startup).as_secs_f64();
        let est = estimate::data_run_body(&cfg, bytes, cpb, block).as_secs_f64();
        let rel = (est - body).abs() / body.max(1e-9);
        assert!(
            rel < 0.15,
            "estimate {est} vs detailed {body} (rel {rel:.3})"
        );
    }
}

#[test]
fn unordered_digest_is_permutation_invariant() {
    use accelmr::kernels::UnorderedDigest;
    let mut rng = Xoshiro256::seed_from_u64(0xD16);
    for _ in 0..64 {
        let n = rng.next_below(32) as usize;
        let items: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let mut shuffled = items.clone();
        rng.shuffle(&mut shuffled);
        let fold = |v: &[u64]| {
            let mut d = UnorderedDigest::new();
            for &x in v {
                d.add(x);
            }
            d.finish()
        };
        assert_eq!(fold(&items), fold(&shuffled));
    }
}
