//! Acceptance tests of the builder/session surface: concurrent sessions
//! are deterministic across reruns and staggered submission orders
//! arrivals.

use accelmr::prelude::*;

fn pi_job(name: &str, units: u64, kernel_seed: u64) -> JobBuilder {
    presets::pi(PiMapper::Cell, kernel_seed, units)
        .name(name)
        .map_tasks(8)
}

fn concurrent_batch(seed: u64) -> (Vec<JobResult>, u64) {
    let mut c = ClusterBuilder::new()
        .seed(seed)
        .workers(4)
        .env(CellEnvFactory::default())
        .deploy();
    c.sim.enable_trace(1 << 14);
    let mut session = c.session();
    session.submit(pi_job("job-a", 300_000_000, 1));
    session.submit(pi_job("job-b", 500_000_000, 2));
    session.submit_after(SimDuration::from_secs(20), pi_job("job-c", 100_000_000, 3));
    let results = session.run_until_complete();
    (results, c.sim.trace().fingerprint())
}

#[test]
fn concurrent_session_is_deterministic_across_reruns() {
    let (r1, f1) = concurrent_batch(11);
    let (r2, f2) = concurrent_batch(11);
    assert_eq!(f1, f2, "event traces diverged between identical reruns");
    assert_eq!(r1.len(), 3);
    for (a, b) in r1.iter().zip(&r2) {
        assert!(a.succeeded);
        assert_eq!(a.name, b.name);
        assert_eq!(a.job, b.job);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.kv, b.kv);
        assert_eq!(a.digest, b.digest);
    }
}

#[test]
fn concurrent_jobs_compute_what_they_compute_alone() {
    // Co-scheduling changes timing, never results: each job's aggregated
    // counters under contention are byte-identical to its solo run on an
    // identical cluster.
    let (concurrent, _) = concurrent_batch(11);
    for (name, units, kernel_seed) in [
        ("job-a", 300_000_000u64, 1u64),
        ("job-b", 500_000_000, 2),
        ("job-c", 100_000_000, 3),
    ] {
        let mut c = ClusterBuilder::new()
            .seed(11)
            .workers(4)
            .env(CellEnvFactory::default())
            .deploy();
        let mut session = c.session();
        session.submit(pi_job(name, units, kernel_seed));
        let solo = session.run();
        let co = concurrent.iter().find(|r| r.name == name).unwrap();
        assert_eq!(co.kv, solo.kv, "{name} kv changed under co-scheduling");
        assert_eq!(co.digest, solo.digest);
        assert_eq!(co.map_tasks, solo.map_tasks);
    }
}

#[test]
fn submit_after_staggers_arrival() {
    let run = |delay: SimDuration| {
        let mut c = ClusterBuilder::new()
            .seed(3)
            .workers(2)
            .env(CellEnvFactory::default())
            .deploy();
        let mut session = c.session();
        let first = session.submit(pi_job("first", 200_000_000, 1));
        let late = session.submit_after(delay, pi_job("late", 1_000_000, 2));
        session.run_until_complete();
        (first.result(), late.result())
    };
    // With a long stagger the late job arrives on an idle cluster, so it
    // runs at its floor time; submitted together it queues behind the
    // first job's slot occupancy and takes longer.
    let (_, late_staggered) = run(SimDuration::from_secs(600));
    let (first_together, late_together) = run(SimDuration::ZERO);
    assert!(first_together.succeeded);
    assert!(
        late_staggered.elapsed < late_together.elapsed,
        "staggered {} should beat contended {}",
        late_staggered.elapsed,
        late_together.elapsed
    );
}

#[test]
fn submit_after_zero_equals_submit() {
    let run = |staggered: bool| {
        let mut c = ClusterBuilder::new()
            .seed(8)
            .workers(2)
            .env(CellEnvFactory::default())
            .deploy();
        c.sim.enable_trace(1 << 14);
        let mut session = c.session();
        if staggered {
            session.submit_after(SimDuration::ZERO, pi_job("z", 10_000_000, 4));
        } else {
            session.submit(pi_job("z", 10_000_000, 4));
        }
        let r = session.run();
        (r.elapsed, r.kv, c.sim.trace().fingerprint())
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn handle_index_is_batch_relative() {
    // A reused session starts a fresh result vector per batch; handles
    // index into the batch that drives them.
    let mut c = ClusterBuilder::new()
        .seed(5)
        .workers(2)
        .env(CellEnvFactory::default())
        .deploy();
    let mut session = c.session();
    let a = session.submit(pi_job("first-batch", 1_000_000, 1));
    assert_eq!(a.index(), 0);
    let r1 = session.run_until_complete();
    assert_eq!(r1[a.index()].name, "first-batch");

    let b = session.submit(pi_job("second-batch", 1_000_000, 2));
    assert_eq!(b.index(), 0);
    let r2 = session.run_until_complete();
    assert_eq!(r2[b.index()].name, "second-batch");
}

#[test]
fn empty_session_returns_no_results() {
    let mut c = ClusterBuilder::new().workers(1).deploy();
    let mut session = c.session();
    assert!(session.run_until_complete().is_empty());
}
