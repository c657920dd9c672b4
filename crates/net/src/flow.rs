//! Max-min fair fluid flow allocation.
//!
//! Bulk transfers are modeled as fluid flows over capacitated links, the
//! standard abstraction for TCP-like bandwidth sharing: rates are solved by
//! progressive filling (water-filling), giving every flow the largest rate
//! such that no link is oversubscribed and no flow can gain without an
//! equally-or-less-served flow losing. Flows may also carry an intrinsic
//! rate cap — how the per-stream protocol ceiling of the paper's loopback
//! path is expressed.
//!
//! Two solvers share that definition:
//!
//! * [`max_min_rates`] — the **reference** solver: a pure function taking
//!   the whole flow set, allocating fresh buffers per call. It is the
//!   oracle the property tests check against, and what the fabric's
//!   test-only reference actor solves with.
//! * [`MaxMinSolver`] — the **production** solver: identical progressive
//!   filling over reusable scratch buffers, fed one *connected component*
//!   of the link/flow sharing graph at a time, with flows that share
//!   links and cap fed as one entry and a multiplicity. The fabric
//!   re-solves only the component touched by a change (flows on disjoint
//!   node pairs never pay for each other), and a same-instant burst of
//!   flow starts is coalesced into a single solve (see `net::fabric`).
//!
//! ## Invariants
//!
//! Both solvers guarantee, for any input: every rate is `>= 0` and
//! `<= cap`; no link's summed rates exceed its capacity (within float
//! epsilon); and the allocation is max-min fair — a flow's rate can only
//! be raised by lowering that of a flow with an equal or smaller rate.
//! Because a connected component of the sharing graph cannot influence
//! rates outside itself, solving components independently yields the same
//! allocation as one global solve; `solver_matches_reference_on_random_
//! topologies` asserts agreement within 1e-9 on randomized instances.

/// Index of a link inside a [`LinkTable`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LinkId(pub usize);

/// Capacitated links.
#[derive(Debug, Default)]
pub struct LinkTable {
    caps: Vec<f64>,
}

impl LinkTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a link with `bytes_per_sec` capacity, returning its id.
    pub fn add(&mut self, bytes_per_sec: f64) -> LinkId {
        assert!(bytes_per_sec > 0.0, "link capacity must be positive");
        self.caps.push(bytes_per_sec);
        LinkId(self.caps.len() - 1)
    }

    /// Capacity of `link`.
    pub fn capacity(&self, link: LinkId) -> f64 {
        self.caps[link.0]
    }

    /// Re-prices `link` to `bytes_per_sec`. Unlike [`LinkTable::add`],
    /// zero is allowed: both solvers freeze a zero-capacity link's flows
    /// at rate 0 (progressive filling saturates instantly), which is the
    /// fabric's partition state — transfers stall rather than abort, and
    /// resume when capacity is restored. Takes effect at the next solve;
    /// callers re-price the affected component themselves.
    pub fn set_capacity(&mut self, link: LinkId, bytes_per_sec: f64) {
        assert!(
            bytes_per_sec >= 0.0 && bytes_per_sec.is_finite(),
            "link capacity must be finite and non-negative"
        );
        self.caps[link.0] = bytes_per_sec;
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// `true` when no links exist.
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }
}

/// One flow's demand description for the solver.
#[derive(Clone, Debug)]
pub struct FlowDemand {
    /// Links the flow traverses (1-3 in this fabric).
    pub links: Vec<LinkId>,
    /// Intrinsic rate ceiling, bytes/second (`f64::INFINITY` when unlimited).
    pub cap: f64,
}

/// Computes max-min fair rates for `flows` over `links`.
///
/// Returns one rate per flow, in input order. Runs in
/// O(iterations × flows × links-per-flow); each iteration freezes at least
/// one flow, so it terminates in ≤ `flows.len()` rounds.
pub fn max_min_rates(links: &LinkTable, flows: &[FlowDemand]) -> Vec<f64> {
    let n = flows.len();
    let mut rates = vec![0.0f64; n];
    if n == 0 {
        return rates;
    }
    let mut frozen = vec![false; n];
    let mut remaining_cap: Vec<f64> = links.caps.clone();

    loop {
        // Count unfrozen flows per link.
        let mut unfrozen_on_link = vec![0usize; links.len()];
        let mut any_unfrozen = false;
        for (f, demand) in flows.iter().enumerate() {
            if frozen[f] {
                continue;
            }
            any_unfrozen = true;
            for l in &demand.links {
                unfrozen_on_link[l.0] += 1;
            }
        }
        if !any_unfrozen {
            break;
        }

        // The next increment every unfrozen flow can take uniformly.
        let mut delta = f64::INFINITY;
        for (l, &cnt) in unfrozen_on_link.iter().enumerate() {
            if cnt > 0 {
                delta = delta.min(remaining_cap[l] / cnt as f64);
            }
        }
        for (f, demand) in flows.iter().enumerate() {
            if !frozen[f] {
                delta = delta.min(demand.cap - rates[f]);
            }
        }
        // Flows with no links and no finite cap would make delta infinite;
        // treat that as "unlimited" and freeze them at an arbitrary high
        // rate (callers always provide at least one link or a cap).
        if !delta.is_finite() {
            for f in 0..n {
                if !frozen[f] {
                    rates[f] = f64::MAX / 4.0;
                    frozen[f] = true;
                }
            }
            break;
        }
        let delta = delta.max(0.0);

        // Apply the increment.
        for (f, demand) in flows.iter().enumerate() {
            if frozen[f] {
                continue;
            }
            rates[f] += delta;
            for l in &demand.links {
                remaining_cap[l.0] -= delta;
            }
        }

        // Freeze: flows at their cap, and flows crossing a saturated link.
        const EPS: f64 = 1e-6;
        let mut frozen_any = false;
        for (f, demand) in flows.iter().enumerate() {
            if frozen[f] {
                continue;
            }
            let at_cap = rates[f] >= demand.cap - EPS;
            let on_saturated = demand
                .links
                .iter()
                .any(|l| remaining_cap[l.0] <= EPS * links.caps[l.0].max(1.0));
            if at_cap || on_saturated {
                frozen[f] = true;
                frozen_any = true;
            }
        }
        if !frozen_any {
            // Numerical guard: freeze everything to guarantee progress.
            for f in frozen.iter_mut() {
                *f = true;
            }
        }
    }
    rates
}

/// The links a fabric flow traverses, stored inline.
///
/// Every flow in this fabric crosses either one link (loopback) or two
/// (source tx + destination rx), so routes are a fixed `[LinkId; 2]` plus
/// a length — no per-flow heap allocation, and cloning a route during a
/// re-solve is a copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    links: [LinkId; 2],
    len: u8,
}

impl Route {
    /// A single-link route (loopback).
    pub fn single(link: LinkId) -> Self {
        Route {
            links: [link, link],
            len: 1,
        }
    }

    /// A two-link route (source uplink, destination downlink).
    pub fn pair(a: LinkId, b: LinkId) -> Self {
        Route {
            links: [a, b],
            len: 2,
        }
    }

    /// The traversed links.
    #[inline]
    pub fn links(&self) -> &[LinkId] {
        &self.links[..self.len as usize]
    }
}

/// Progressive-filling max-min solver with reusable scratch state.
///
/// Semantically identical to [`max_min_rates`] but built for the hot path:
/// all working buffers (per-link residual capacity, per-link unfrozen
/// counts, per-flow freeze flags, output rates) are retained across calls,
/// so a steady-state re-solve performs **zero heap allocations**. The
/// caller describes one connected component per solve: first the
/// component's links via [`MaxMinSolver::add_link`] (which returns dense
/// component-local indices), then its flows via [`MaxMinSolver::add_flow`]
/// with routes expressed in those local indices — one call per group of
/// flows with equal route and cap, or per flow: the rates are the same to
/// the bit.
#[derive(Debug, Default)]
pub struct MaxMinSolver {
    // Per component-local link.
    caps: Vec<f64>,
    remaining_cap: Vec<f64>,
    unfrozen_on_link: Vec<u32>,
    // Per entry: route in component-local link indices, intrinsic cap, and
    // how many identical flows the entry stands for.
    flow_links: Vec<[u32; 2]>,
    flow_len: Vec<u8>,
    flow_cap: Vec<f64>,
    flow_mult: Vec<u32>,
    frozen: Vec<bool>,
    rates: Vec<f64>,
    /// Lifetime count of [`MaxMinSolver::solve`] calls (perf telemetry).
    solves: u64,
    /// Lifetime count of progressive-filling rounds (perf telemetry).
    rounds: u64,
}

impl MaxMinSolver {
    /// Fresh solver; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts describing a new component, retaining buffer capacity.
    pub fn begin(&mut self) {
        self.caps.clear();
        self.remaining_cap.clear();
        self.unfrozen_on_link.clear();
        self.flow_links.clear();
        self.flow_len.clear();
        self.flow_cap.clear();
        self.flow_mult.clear();
        self.frozen.clear();
        self.rates.clear();
    }

    /// Adds a link with capacity `bytes_per_sec`; returns its
    /// component-local index.
    pub fn add_link(&mut self, bytes_per_sec: f64) -> u32 {
        self.caps.push(bytes_per_sec);
        self.remaining_cap.push(bytes_per_sec);
        self.unfrozen_on_link.push(0);
        (self.caps.len() - 1) as u32
    }

    /// Adds `m` identical flows as one entry: each crosses `links` (1-2
    /// component-local link indices, from [`MaxMinSolver::add_link`]) with
    /// intrinsic rate ceiling `cap`, and [`MaxMinSolver::solve`] returns the
    /// one rate they all get. Flows with equal links and cap are
    /// indistinguishable to progressive filling — same rate after every
    /// round, same freeze round — so the entry's rate is bitwise what `m`
    /// separate `add_flow(links, cap, 1)` calls would each have been given
    /// (see `solve`; `rates_are_bitwise_multiplicity_independent`).
    pub fn add_flow(&mut self, links: &[u32], cap: f64, m: u32) {
        debug_assert!(matches!(links.len(), 1 | 2), "fabric routes are 1-2 links");
        debug_assert!(m > 0, "an entry stands for at least one flow");
        let mut pair = [0u32; 2];
        pair[..links.len()].copy_from_slice(links);
        if links.len() == 1 {
            pair[1] = pair[0];
        }
        self.flow_links.push(pair);
        self.flow_len.push(links.len() as u8);
        self.flow_cap.push(cap);
        self.flow_mult.push(m);
        self.frozen.push(false);
        self.rates.push(0.0);
    }

    /// Number of solves performed over the solver's lifetime.
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Number of progressive-filling rounds over the solver's lifetime.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Runs progressive filling over the staged component; returns one rate
    /// per entry in [`MaxMinSolver::add_flow`] order. Allocation-free once
    /// the buffers have warmed up.
    ///
    /// Each flow's rate is **bitwise independent of `add_flow` and
    /// `add_link` order**, so callers need not sort their input: a round's
    /// `delta` is a `min` over non-NaN values (order-free), every unfrozen
    /// flow adds that same `delta` to its own rate, a link's residual takes
    /// one subtraction of that same `delta` per unfrozen flow crossing it
    /// (the same sequence of values whoever performs them), and the freeze
    /// test reads only the flow's own rate and its links' end-of-round
    /// residuals. `rates_are_bitwise_order_independent` checks it on random
    /// components.
    ///
    /// It is also **bitwise independent of how equal flows are grouped
    /// into entries**: an entry of multiplicity `m` adds `m` to each of its
    /// links' unfrozen counts and subtracts the round's `delta` from each
    /// residual `m` times in sequence — the very subtractions `m` single
    /// entries perform. It must never subtract `m as f64 * delta`: that is
    /// one rounding where the per-flow loop makes `m`, and the residual,
    /// the next round's `delta` and eventually a freeze decision differ.
    pub fn solve(&mut self) -> &[f64] {
        self.solves += 1;
        let n = self.rates.len();
        if n == 0 {
            return &self.rates;
        }
        loop {
            self.rounds += 1;
            // Count unfrozen flows per link.
            for c in self.unfrozen_on_link.iter_mut() {
                *c = 0;
            }
            let mut any_unfrozen = false;
            for f in 0..n {
                if self.frozen[f] {
                    continue;
                }
                any_unfrozen = true;
                for &l in &self.flow_links[f][..self.flow_len[f] as usize] {
                    self.unfrozen_on_link[l as usize] += self.flow_mult[f];
                }
            }
            if !any_unfrozen {
                break;
            }

            // Uniform increment every unfrozen flow can take.
            let mut delta = f64::INFINITY;
            for (l, &cnt) in self.unfrozen_on_link.iter().enumerate() {
                if cnt > 0 {
                    delta = delta.min(self.remaining_cap[l] / cnt as f64);
                }
            }
            for f in 0..n {
                if !self.frozen[f] {
                    delta = delta.min(self.flow_cap[f] - self.rates[f]);
                }
            }
            // Fabric flows always cross >= 1 finite-capacity link, so delta
            // is finite; guard anyway to mirror the reference solver.
            if !delta.is_finite() {
                for f in 0..n {
                    if !self.frozen[f] {
                        self.rates[f] = f64::MAX / 4.0;
                        self.frozen[f] = true;
                    }
                }
                break;
            }
            let delta = delta.max(0.0);

            // Apply the increment.
            for f in 0..n {
                if self.frozen[f] {
                    continue;
                }
                self.rates[f] += delta;
                for &l in &self.flow_links[f][..self.flow_len[f] as usize] {
                    // One subtraction per flow the entry stands for (see
                    // the doc above): not `m as f64 * delta`.
                    let mut left = self.remaining_cap[l as usize];
                    for _ in 0..self.flow_mult[f] {
                        left -= delta;
                    }
                    self.remaining_cap[l as usize] = left;
                }
            }

            // Freeze: flows at their cap, and flows crossing a saturated
            // link. Same epsilon as the reference solver.
            const EPS: f64 = 1e-6;
            let mut frozen_any = false;
            for f in 0..n {
                if self.frozen[f] {
                    continue;
                }
                let at_cap = self.rates[f] >= self.flow_cap[f] - EPS;
                let on_saturated =
                    self.flow_links[f][..self.flow_len[f] as usize]
                        .iter()
                        .any(|&l| {
                            self.remaining_cap[l as usize] <= EPS * self.caps[l as usize].max(1.0)
                        });
                if at_cap || on_saturated {
                    self.frozen[f] = true;
                    frozen_any = true;
                }
            }
            if !frozen_any {
                // Numerical guard: freeze everything to guarantee progress.
                for f in self.frozen.iter_mut() {
                    *f = true;
                }
            }
        }
        &self.rates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(caps: &[f64]) -> LinkTable {
        let mut t = LinkTable::new();
        for &c in caps {
            t.add(c);
        }
        t
    }

    fn demand(links: &[usize], cap: f64) -> FlowDemand {
        FlowDemand {
            links: links.iter().map(|&l| LinkId(l)).collect(),
            cap,
        }
    }

    #[test]
    fn single_flow_gets_link_capacity() {
        let links = table(&[100.0]);
        let r = max_min_rates(&links, &[demand(&[0], f64::INFINITY)]);
        assert!((r[0] - 100.0).abs() < 1e-6);
    }

    #[test]
    fn equal_flows_share_equally() {
        let links = table(&[120.0]);
        let flows = vec![demand(&[0], f64::INFINITY); 3];
        let r = max_min_rates(&links, &flows);
        for rate in r {
            assert!((rate - 40.0).abs() < 1e-6);
        }
    }

    #[test]
    fn capped_flow_releases_capacity() {
        let links = table(&[100.0]);
        let flows = vec![demand(&[0], 10.0), demand(&[0], f64::INFINITY)];
        let r = max_min_rates(&links, &flows);
        assert!((r[0] - 10.0).abs() < 1e-6);
        assert!((r[1] - 90.0).abs() < 1e-6);
    }

    #[test]
    fn bottleneck_is_respected_across_links() {
        // Flow 0: links 0,1. Flow 1: link 1 only. Link 1 is the bottleneck.
        let links = table(&[100.0, 50.0]);
        let flows = vec![demand(&[0, 1], f64::INFINITY), demand(&[1], f64::INFINITY)];
        let r = max_min_rates(&links, &flows);
        assert!((r[0] - 25.0).abs() < 1e-6);
        assert!((r[1] - 25.0).abs() < 1e-6);
    }

    #[test]
    fn classic_max_min_example() {
        // Three links: A=10, B=10, C=6. Flows: f0 over A,B; f1 over B,C;
        // f2 over C. Water-filling: f1=f2=3 (C saturates), then f0 grows to
        // 7 (B saturates at f0+f1=10).
        let links = table(&[10.0, 10.0, 6.0]);
        let flows = vec![
            demand(&[0, 1], f64::INFINITY),
            demand(&[1, 2], f64::INFINITY),
            demand(&[2], f64::INFINITY),
        ];
        let r = max_min_rates(&links, &flows);
        assert!((r[1] - 3.0).abs() < 1e-6, "{r:?}");
        assert!((r[2] - 3.0).abs() < 1e-6, "{r:?}");
        assert!((r[0] - 7.0).abs() < 1e-6, "{r:?}");
    }

    #[test]
    fn no_link_is_oversubscribed_property() {
        // Randomized-ish deterministic sweep.
        let links = table(&[100.0, 80.0, 60.0, 40.0]);
        let mut flows = Vec::new();
        for i in 0..20usize {
            let l1 = i % 4;
            let l2 = (i * 7 + 1) % 4;
            let cap = if i % 3 == 0 { 15.0 } else { f64::INFINITY };
            let ls = if l1 == l2 { vec![l1] } else { vec![l1, l2] };
            flows.push(demand(&ls, cap));
        }
        let rates = max_min_rates(&links, &flows);
        let mut used = vec![0.0f64; links.len()];
        for (f, d) in flows.iter().enumerate() {
            assert!(rates[f] >= 0.0);
            assert!(rates[f] <= d.cap + 1e-6);
            for l in &d.links {
                used[l.0] += rates[f];
            }
        }
        for (l, u) in used.iter().enumerate() {
            assert!(*u <= links.caps[l] + 1e-3, "link {l} over: {u}");
        }
    }

    #[test]
    fn zero_capacity_link_stalls_flows_at_rate_zero() {
        // A partitioned link: flows crossing it freeze at rate 0 (both
        // solvers terminate), flows elsewhere are unaffected.
        let mut links = table(&[100.0, 50.0]);
        links.set_capacity(LinkId(0), 0.0);
        let flows = vec![demand(&[0], f64::INFINITY), demand(&[1], f64::INFINITY)];
        let r = max_min_rates(&links, &flows);
        assert_eq!(r[0], 0.0);
        assert!((r[1] - 50.0).abs() < 1e-6);
        // The production solver agrees (add_link accepts the zero the
        // fabric writes through set_capacity).
        let mut s = MaxMinSolver::new();
        s.begin();
        s.add_link(0.0);
        s.add_link(50.0);
        s.add_flow(&[0], f64::INFINITY, 1);
        s.add_flow(&[1], f64::INFINITY, 1);
        let got = s.solve();
        assert_eq!(got[0], 0.0);
        assert!((got[1] - 50.0).abs() < 1e-6);
        // Restoring capacity re-prices at the next solve.
        links.set_capacity(LinkId(0), 25.0);
        let r = max_min_rates(&links, &flows);
        assert!((r[0] - 25.0).abs() < 1e-6);
    }

    #[test]
    fn empty_inputs() {
        let links = table(&[10.0]);
        assert!(max_min_rates(&links, &[]).is_empty());
    }

    #[test]
    fn cap_only_flow_without_links() {
        let links = table(&[10.0]);
        let r = max_min_rates(&links, &[demand(&[], 42.0)]);
        assert!((r[0] - 42.0).abs() < 1e-6);
    }

    /// Feeds the same instance to both solvers and compares.
    fn solver_vs_reference(caps: &[f64], flows: &[FlowDemand], solver: &mut MaxMinSolver) {
        let links = table(caps);
        let reference = max_min_rates(&links, flows);
        solver.begin();
        for &c in caps {
            solver.add_link(c);
        }
        for f in flows {
            let local: Vec<u32> = f.links.iter().map(|l| l.0 as u32).collect();
            solver.add_flow(&local, f.cap, 1);
        }
        let got = solver.solve();
        assert_eq!(got.len(), reference.len());
        let mut used = vec![0.0f64; caps.len()];
        for (i, (g, r)) in got.iter().zip(reference.iter()).enumerate() {
            assert!(
                (g - r).abs() <= 1e-9 * r.abs().max(1.0),
                "flow {i}: solver={g} reference={r}"
            );
            assert!(*g >= 0.0 && *g <= flows[i].cap + 1e-6);
            for l in &flows[i].links {
                used[l.0] += g;
            }
        }
        for (l, u) in used.iter().enumerate() {
            assert!(
                *u <= caps[l] + 1e-3 * caps[l].max(1.0),
                "link {l} over: {u}"
            );
        }
    }

    #[test]
    fn solver_matches_reference_on_canonical_cases() {
        let mut s = MaxMinSolver::new();
        solver_vs_reference(&[100.0], &[demand(&[0], f64::INFINITY)], &mut s);
        solver_vs_reference(&[120.0], &vec![demand(&[0], f64::INFINITY); 3], &mut s);
        solver_vs_reference(
            &[100.0],
            &[demand(&[0], 10.0), demand(&[0], f64::INFINITY)],
            &mut s,
        );
        solver_vs_reference(
            &[100.0, 50.0],
            &[demand(&[0, 1], f64::INFINITY), demand(&[1], f64::INFINITY)],
            &mut s,
        );
        solver_vs_reference(
            &[10.0, 10.0, 6.0],
            &[
                demand(&[0, 1], f64::INFINITY),
                demand(&[1, 2], f64::INFINITY),
                demand(&[2], f64::INFINITY),
            ],
            &mut s,
        );
    }

    /// Satellite property test: randomized topologies, caps, and bursts.
    /// One `MaxMinSolver` is reused across all instances — also checks that
    /// scratch state never leaks between solves.
    #[test]
    fn solver_matches_reference_on_random_topologies() {
        use accelmr_des::Xoshiro256;
        let mut rng = Xoshiro256::seed_from_u64(0x05EE_DF10);
        let mut solver = MaxMinSolver::new();
        for _ in 0..200 {
            let n_links = rng.range_inclusive(1, 24) as usize;
            let caps: Vec<f64> = (0..n_links)
                .map(|_| 1.0e6 * (1.0 + 249.0 * rng.next_f64()))
                .collect();
            let n_flows = rng.range_inclusive(0, 64) as usize;
            let flows: Vec<FlowDemand> = (0..n_flows)
                .map(|_| {
                    let a = rng.next_below(n_links as u64) as usize;
                    let b = rng.next_below(n_links as u64) as usize;
                    let links = if a == b || rng.next_below(4) == 0 {
                        vec![LinkId(a)]
                    } else {
                        vec![LinkId(a), LinkId(b)]
                    };
                    let cap = if rng.next_below(3) == 0 {
                        1.0e5 * (1.0 + 99.0 * rng.next_f64())
                    } else {
                        f64::INFINITY
                    };
                    FlowDemand { links, cap }
                })
                .collect();
            solver_vs_reference(&caps, &flows, &mut solver);
        }
        assert_eq!(solver.solves(), 200, "one solve per instance");
    }

    /// Capacities of a random component's 1-12 links, one of them
    /// partitioned (capacity 0) on most instances.
    fn random_caps(rng: &mut accelmr_des::Xoshiro256) -> Vec<f64> {
        let n_links = rng.range_inclusive(1, 12) as usize;
        let mut caps: Vec<f64> = (0..n_links)
            .map(|_| 1.0e6 * (1.0 + 249.0 * rng.next_f64()))
            .collect();
        if rng.next_below(4) != 0 {
            caps[rng.next_below(n_links as u64) as usize] = 0.0;
        }
        caps
    }

    /// A random 1- or 2-link route over `n_links` links and a cap, finite
    /// half the time.
    fn random_demand(rng: &mut accelmr_des::Xoshiro256, n_links: usize) -> (Vec<u32>, f64) {
        let a = rng.next_below(n_links as u64) as u32;
        let b = rng.next_below(n_links as u64) as u32;
        let links = if a == b { vec![a] } else { vec![a, b] };
        let cap = if rng.next_below(2) == 0 {
            1.0e5 * (1.0 + 99.0 * rng.next_f64())
        } else {
            f64::INFINITY
        };
        (links, cap)
    }

    /// What lets the fabric feed a component in walk order instead of
    /// sorting it by flow id first: the same component under any
    /// permutation of `add_link` and `add_flow` order yields each flow the
    /// bit-identical rate.
    #[test]
    fn rates_are_bitwise_order_independent() {
        use accelmr_des::Xoshiro256;
        let mut rng = Xoshiro256::seed_from_u64(0x0D0E_50F7);
        let mut solver = MaxMinSolver::new();
        for _ in 0..300 {
            let caps = random_caps(&mut rng);
            let n_links = caps.len();
            let n_flows = rng.range_inclusive(1, 96) as usize;
            let flows: Vec<(Vec<u32>, f64)> = (0..n_flows)
                .map(|_| random_demand(&mut rng, n_links))
                .collect();
            // Solves with links added in `link_order` and flows in
            // `flow_order`; returns rate bits indexed by original flow.
            let mut solve = |link_order: &[usize], flow_order: &[usize]| {
                solver.begin();
                let mut local = vec![0u32; n_links];
                for &l in link_order {
                    local[l] = solver.add_link(caps[l]);
                }
                for &f in flow_order {
                    let route: Vec<u32> = flows[f].0.iter().map(|&l| local[l as usize]).collect();
                    solver.add_flow(&route, flows[f].1, 1);
                }
                let rates = solver.solve();
                let mut bits = vec![0u64; n_flows];
                for (&f, r) in flow_order.iter().zip(rates) {
                    bits[f] = r.to_bits();
                }
                bits
            };
            let mut link_order: Vec<usize> = (0..n_links).collect();
            let mut flow_order: Vec<usize> = (0..n_flows).collect();
            let base = solve(&link_order, &flow_order);
            for _ in 0..4 {
                rng.shuffle(&mut link_order);
                rng.shuffle(&mut flow_order);
                assert_eq!(solve(&link_order, &flow_order), base);
            }
        }
    }

    /// What lets the fabric feed all flows sharing (links, cap) as one
    /// entry: `add_flow(links, cap, m)` gives the bit-identical rate, in the
    /// same number of rounds, as `m` calls with multiplicity 1.
    ///
    /// The first instance is the one a shortcut fails on. Three flows
    /// capped at 0.1 and one uncapped share a link of capacity 1.0: round
    /// one subtracts 0.1 four times, leaving 0.6000000000000001, which
    /// round two hands to the uncapped flow. Replace the repeated
    /// subtraction in `solve` by `m as f64 * delta` and the grouped run
    /// computes 1.0 - 0.30000000000000004 - 0.1 = 0.6 instead, so the
    /// uncapped flow's rate differs in its last bit and this test fails.
    #[test]
    fn rates_are_bitwise_multiplicity_independent() {
        use accelmr_des::Xoshiro256;
        let mut solver = MaxMinSolver::new();
        // (rate bits per entry, rounds) with each entry fed as one
        // `add_flow(.., m)` or as `m` single flows (all checked equal).
        let mut solve = |caps: &[f64], entries: &[(Vec<u32>, f64, u32)], grouped: bool| {
            solver.begin();
            for &c in caps {
                solver.add_link(c);
            }
            for (links, cap, m) in entries {
                if grouped {
                    solver.add_flow(links, *cap, *m);
                } else {
                    (0..*m).for_each(|_| solver.add_flow(links, *cap, 1));
                }
            }
            let before = solver.rounds();
            let rates: Vec<u64> = solver.solve().iter().map(|r| r.to_bits()).collect();
            let mut bits = Vec::with_capacity(entries.len());
            let mut at = 0;
            for (_, _, m) in entries {
                let n = if grouped { 1 } else { *m as usize };
                assert!(rates[at..at + n].iter().all(|&r| r == rates[at]));
                bits.push(rates[at]);
                at += n;
            }
            (bits, solver.rounds() - before)
        };

        let directed = [(vec![0], 0.1, 3), (vec![0], f64::INFINITY, 1)];
        let (bits, rounds) = solve(&[1.0], &directed, true);
        assert_eq!((bits.clone(), rounds), solve(&[1.0], &directed, false));
        assert_eq!(f64::from_bits(bits[1]), 0.1 + 0.600_000_000_000_000_1);
        assert_ne!(f64::from_bits(bits[1]), 0.1 + 0.6);

        let mut rng = Xoshiro256::seed_from_u64(0x0C1A_55E5);
        for _ in 0..300 {
            let caps = random_caps(&mut rng);
            let n_entries = rng.range_inclusive(1, 32) as usize;
            let entries: Vec<(Vec<u32>, f64, u32)> = (0..n_entries)
                .map(|_| {
                    let (links, cap) = random_demand(&mut rng, caps.len());
                    (links, cap, rng.range_inclusive(1, 20) as u32)
                })
                .collect();
            assert_eq!(solve(&caps, &entries, true), solve(&caps, &entries, false));
        }
    }

    #[test]
    fn route_is_inline_and_exposes_links() {
        let single = Route::single(LinkId(3));
        assert_eq!(single.links(), &[LinkId(3)]);
        let pair = Route::pair(LinkId(1), LinkId(2));
        assert_eq!(pair.links(), &[LinkId(1), LinkId(2)]);
        assert!(std::mem::size_of::<Route>() <= 3 * std::mem::size_of::<usize>());
    }
}
