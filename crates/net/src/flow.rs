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
//! allocation as one global solve. Both run the same progressive filling
//! to the same roundings, so `solver_matches_reference_on_random_topologies`
//! asserts bitwise agreement on randomized instances.

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
    /// Links the flow traverses (1-2 in this fabric).
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
/// all working buffers (per-link residual capacity, unfrozen counts and
/// saturation, the entry records, the active lists, output rates) are
/// retained across calls, so a steady-state re-solve performs **zero heap
/// allocations**. The caller describes one connected component per solve:
/// first the component's links via [`MaxMinSolver::add_link`] (which
/// returns dense component-local indices), then its flows via
/// [`MaxMinSolver::add_flow`] with routes expressed in those local indices
/// — one call per group of flows with equal route and cap, or per flow:
/// the rates are the same to the bit.
#[derive(Debug, Default)]
pub struct MaxMinSolver {
    // Per component-local link: capacity (staged), then the running
    // solve's residual, unfrozen flow count and end-of-round saturation.
    caps: Vec<f64>,
    remaining_cap: Vec<f64>,
    unfrozen_on_link: Vec<u32>,
    saturated: Vec<bool>,
    /// The staged entries, in [`MaxMinSolver::add_flow`] order.
    entries: Vec<Entry>,
    /// One rate per entry, written when the entry freezes.
    rates: Vec<f64>,
    /// Unfrozen entries, compacted as they freeze.
    active: Vec<u32>,
    /// Links still crossed by an unfrozen flow, compacted likewise.
    active_links: Vec<u32>,
    /// Lifetime count of [`MaxMinSolver::solve`] calls (perf telemetry).
    solves: u64,
    /// Lifetime count of progressive-filling rounds (perf telemetry).
    rounds: u64,
    /// Lifetime count of entries examined by those rounds (perf telemetry).
    entry_visits: u64,
}

/// One solver entry: `mult` identical flows, each crossing `links[..len]`
/// (component-local indices) under the intrinsic ceiling `cap`. A
/// single-link entry holds its link in both slots, so "either link is
/// saturated" reads both slots without looking at `len`.
#[derive(Clone, Copy, Debug)]
struct Entry {
    links: [u32; 2],
    len: u8,
    cap: f64,
    mult: u32,
}

/// Freeze tolerance of both solvers: a flow within `EPS` of its cap, or a
/// link within `EPS` x its capacity (at least 1) of saturation, is done.
const EPS: f64 = 1e-6;

impl MaxMinSolver {
    /// Fresh solver; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts describing a new component, retaining buffer capacity.
    pub fn begin(&mut self) {
        self.caps.clear();
        self.entries.clear();
    }

    /// Adds a link with capacity `bytes_per_sec`; returns its
    /// component-local index.
    pub fn add_link(&mut self, bytes_per_sec: f64) -> u32 {
        self.caps.push(bytes_per_sec);
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
        self.entries.push(Entry {
            links: [links[0], links[links.len() - 1]],
            len: links.len() as u8,
            cap,
            mult: m,
        });
    }

    /// Number of solves performed over the solver's lifetime.
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Number of progressive-filling rounds over the solver's lifetime.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Number of entries examined by those rounds: each round counts the
    /// entries still unfrozen when it starts.
    pub fn entry_visits(&self) -> u64 {
        self.entry_visits
    }

    /// Runs progressive filling over the staged component; returns one rate
    /// per entry in [`MaxMinSolver::add_flow`] order. Allocation-free once
    /// the buffers have warmed up.
    ///
    /// A round touches only what is still unfrozen: the active entries and
    /// the links they cross. Every unfrozen entry holds the same rate to
    /// the bit — each started at `0.0` and added the same `delta` every
    /// round — so the solve keeps that one water `level` and writes an
    /// entry's rate once, when it freezes. The cap term of `delta`,
    /// `min(cap - rate)` over unfrozen entries, is taken as
    /// `min_cap - level`: rounded subtraction is monotone in its first
    /// operand, so the two are equal to the bit. Each link's unfrozen
    /// count is computed once and decremented as its entries freeze.
    ///
    /// Each flow's rate is **bitwise independent of `add_flow` and
    /// `add_link` order**, so callers need not sort their input: a round's
    /// `delta` is a `min` over non-NaN values (order-free), every unfrozen
    /// flow is at the same level, a link's residual takes one subtraction
    /// of that same `delta` per unfrozen flow crossing it (the same
    /// sequence of values whoever performs them), and the freeze test
    /// reads only the level, the flow's cap and its links' end-of-round
    /// residuals. `rates_are_bitwise_order_independent` checks it on
    /// random components.
    ///
    /// It is also **bitwise independent of how equal flows are grouped
    /// into entries**: an entry of multiplicity `m` adds `m` to each of its
    /// links' unfrozen counts, and a link's residual takes `count`
    /// sequential subtractions of the round's `delta` — the very
    /// subtractions `m` single entries cause. It must never subtract
    /// `count as f64 * delta`: that is one rounding where the per-flow
    /// definition makes `count`, and the residual, the next round's
    /// `delta` and eventually a freeze decision differ.
    pub fn solve(&mut self) -> &[f64] {
        self.solves += 1;
        let n_links = self.caps.len();
        self.rates.clear();
        self.rates.resize(self.entries.len(), 0.0);
        if self.entries.is_empty() {
            return &self.rates;
        }
        self.remaining_cap.clone_from(&self.caps);
        self.unfrozen_on_link.clear();
        self.unfrozen_on_link.resize(n_links, 0);
        self.saturated.clear();
        self.saturated.resize(n_links, false);
        self.active.clear();
        let mut min_cap = f64::INFINITY;
        for (e, entry) in self.entries.iter().enumerate() {
            self.active.push(e as u32);
            min_cap = min_cap.min(entry.cap);
            let [a, b] = entry.links;
            self.unfrozen_on_link[a as usize] += entry.mult;
            if entry.len == 2 {
                self.unfrozen_on_link[b as usize] += entry.mult;
            }
        }
        self.active_links.clear();
        let counts = &self.unfrozen_on_link;
        self.active_links
            .extend((0..n_links as u32).filter(|&l| counts[l as usize] > 0));

        let mut level = 0.0f64;
        loop {
            self.rounds += 1;
            if self.active.is_empty() {
                break;
            }
            self.entry_visits += self.active.len() as u64;

            // Uniform increment every unfrozen flow can take.
            let mut delta = min_cap - level;
            for &l in &self.active_links {
                let l = l as usize;
                delta = delta.min(self.remaining_cap[l] / self.unfrozen_on_link[l] as f64);
            }
            // Fabric flows always cross >= 1 finite-capacity link, so delta
            // is finite; guard anyway to mirror the reference solver.
            if !delta.is_finite() {
                for &e in &self.active {
                    self.rates[e as usize] = f64::MAX / 4.0;
                }
                break;
            }
            let delta = delta.max(0.0);
            level += delta;

            // Apply the increment: one subtraction per unfrozen flow on
            // the link (see the doc above), then the link's saturation.
            for &l in &self.active_links {
                let l = l as usize;
                let mut left = self.remaining_cap[l];
                for _ in 0..self.unfrozen_on_link[l] {
                    left -= delta;
                }
                self.remaining_cap[l] = left;
                self.saturated[l] = left <= EPS * self.caps[l].max(1.0);
            }

            // Freeze: entries at their cap, and entries crossing a
            // saturated link; the rest stay active in order.
            let mut next_min_cap = f64::INFINITY;
            let mut kept = 0;
            for i in 0..self.active.len() {
                let e = self.active[i];
                let entry = self.entries[e as usize];
                let [a, b] = entry.links;
                let at_cap = level >= entry.cap - EPS;
                let on_saturated = self.saturated[a as usize] || self.saturated[b as usize];
                if at_cap || on_saturated {
                    self.rates[e as usize] = level;
                    self.unfrozen_on_link[a as usize] -= entry.mult;
                    if entry.len == 2 {
                        self.unfrozen_on_link[b as usize] -= entry.mult;
                    }
                } else {
                    next_min_cap = next_min_cap.min(entry.cap);
                    self.active[kept] = e;
                    kept += 1;
                }
            }
            if kept == self.active.len() {
                // Numerical guard: freeze everything to guarantee progress.
                for &e in &self.active {
                    self.rates[e as usize] = level;
                }
                kept = 0;
            }
            self.active.truncate(kept);
            min_cap = next_min_cap;
            let counts = &self.unfrozen_on_link;
            self.active_links.retain(|&l| counts[l as usize] > 0);
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
            assert_eq!(
                g.to_bits(),
                r.to_bits(),
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

    /// The fabric's hard case: one link (a reducer's rx link, the incast
    /// row) carries 10,000+ flows in a handful of entries, beside finite
    /// caps and a partitioned (capacity 0) link. Grouped entries, the same
    /// flows one by one, and the reference solver give bit-identical
    /// rates; grouped and per-flow solves take the same rounds.
    #[test]
    fn hot_link_with_ten_thousand_flows_is_bitwise_everywhere() {
        use accelmr_des::Xoshiro256;
        let mut rng = Xoshiro256::seed_from_u64(0x1AC_A57);
        let mut solver = MaxMinSolver::new();
        for _ in 0..12 {
            // Link 0 is the hot rx link, link 1 is partitioned, the rest
            // are tx links.
            let n_links = rng.range_inclusive(4, 10) as usize;
            let mut caps: Vec<f64> = (0..n_links)
                .map(|_| 1.0e7 * (1.0 + 24.0 * rng.next_f64()))
                .collect();
            caps[1] = 0.0;
            // (links, cap, multiplicity): a handful of fat entries into the
            // hot link, then a few small ones anywhere, some partitioned.
            let mut entries: Vec<(Vec<u32>, f64, u32)> = Vec::new();
            let mut on_hot = 0;
            while on_hot < 10_000 {
                let m = rng.range_inclusive(1_500, 4_000) as u32;
                let tx = rng.range_inclusive(1, n_links as u64 - 1) as u32;
                let links = if rng.next_below(4) == 0 {
                    vec![0]
                } else {
                    vec![tx, 0]
                };
                // Per-flow fair shares on the hot link are ~1e3-1e4 B/s.
                let cap = if rng.next_below(2) == 0 {
                    500.0 * (1.0 + 19.0 * rng.next_f64())
                } else {
                    f64::INFINITY
                };
                entries.push((links, cap, m));
                on_hot += m;
            }
            for _ in 0..rng.range_inclusive(1, 6) {
                let (links, cap) = random_demand(&mut rng, n_links);
                entries.push((links, cap, rng.range_inclusive(1, 8) as u32));
            }

            let mut solve = |grouped: bool| {
                solver.begin();
                for &c in &caps {
                    solver.add_link(c);
                }
                for (links, cap, m) in &entries {
                    let copies = if grouped { 1 } else { *m };
                    let m = if grouped { *m } else { 1 };
                    (0..copies).for_each(|_| solver.add_flow(links, *cap, m));
                }
                let before = solver.rounds();
                let bits: Vec<u64> = solver.solve().iter().map(|r| r.to_bits()).collect();
                (bits, solver.rounds() - before)
            };
            let (grouped, grouped_rounds) = solve(true);
            let (per_flow, per_flow_rounds) = solve(false);
            assert_eq!(grouped_rounds, per_flow_rounds);
            let expanded: Vec<u64> = entries
                .iter()
                .zip(&grouped)
                .flat_map(|((_, _, m), &b)| std::iter::repeat_n(b, *m as usize))
                .collect();
            assert_eq!(per_flow, expanded);

            let demands: Vec<FlowDemand> = entries
                .iter()
                .flat_map(|(links, cap, m)| {
                    let d = FlowDemand {
                        links: links.iter().map(|&l| LinkId(l as usize)).collect(),
                        cap: *cap,
                    };
                    std::iter::repeat_n(d, *m as usize)
                })
                .collect();
            // `LinkTable::add` takes positive capacities; a partition is
            // a re-price to zero.
            let mut links = table(&caps.iter().map(|&c| c.max(1.0)).collect::<Vec<_>>());
            links.set_capacity(LinkId(1), 0.0);
            let reference: Vec<u64> = max_min_rates(&links, &demands)
                .iter()
                .map(|r| r.to_bits())
                .collect();
            assert_eq!(reference, expanded);
            // The partitioned link's flows stall at exactly zero.
            for ((links, _, _), &b) in entries.iter().zip(&grouped) {
                if links.contains(&1) {
                    assert_eq!(f64::from_bits(b), 0.0);
                }
            }
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
