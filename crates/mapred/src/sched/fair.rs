//! Multi-tenant weighted fair-share job-level scheduling.
//!
//! Hadoop FIFO drains concurrent jobs in job-id order, so one tenant's
//! early heavy job head-of-line-blocks everyone else's slots for its whole
//! map phase. [`FairShare`] fixes this at the *job* level: every free slot
//! goes to the tenant with the smallest *weighted running-slot share*
//! (weighted max-min over the slots each tenant currently occupies), FIFO
//! within a tenant, locality-preferring within a job.
//!
//! Starvation-freedom is by construction: a tenant with runnable work and
//! zero running slots has the minimum possible share (0), so it wins the
//! next slot against any tenant that is already running — no history,
//! priorities, or aging involved. Weighted shares converge because every
//! dispatch raises exactly the winning tenant's share: tenants' occupied
//! slots approach the weight proportions whenever all of them stay busy
//! (pinned by the convergence property tests).

use accelmr_des::SimTime;
use accelmr_net::NodeId;

use crate::config::{JobId, MrConfig, TaskId};

use super::{
    default_straggler, min_score_view, PreemptionBudget, ReclaimVictim, SchedView, Scheduler,
};

/// Weighted max-min fair sharing across tenants (job-level), locality
/// within jobs. Construct via
/// [`SchedulerPolicy::FairShare`](crate::SchedulerPolicy::FairShare).
#[derive(Debug)]
pub struct FairShare {
    /// Tenants at the minimum weighted share, snapshotted by the latest
    /// [`pick_job`](Scheduler::pick_job) call (which the dispatch loop
    /// always makes before any straggler offer on the same slot). Gates
    /// speculation: duplicates occupy real slots and are billed to their
    /// tenant's share like any attempt, so only the poorest tenant(s) may
    /// launch them — an over-share tenant cannot grab extra capacity
    /// through speculative copies that regular dispatch would deny it.
    min_share_tenants: Vec<String>,
    /// Wasted-work budget for [`reclaim`](Scheduler::reclaim). Disabled by
    /// default config, making the hook a no-op.
    budget: PreemptionBudget,
}

impl FairShare {
    /// Builds the policy from the runtime config (preemption budget).
    pub fn new(cfg: &MrConfig) -> Self {
        FairShare {
            min_share_tenants: Vec::new(),
            budget: PreemptionBudget::new(cfg.preemption),
        }
    }
}

/// One tenant's accounting: `(tenant, usage, weight)`.
type Tenant<'a> = (&'a str, f64, f64);

/// Tenant accounting over a `pick_job` view slice: usage sums running slots
/// over *all* views (speculative attempts included — they occupy slots
/// like any other, and ineligible jobs still occupy slots that count
/// against their tenant) and weight is the maximum among the tenant's jobs
/// (tenants normally share one weight — the max makes a mixed-weight tenant
/// err toward the larger entitlement rather than silently splitting into
/// two accounting buckets). A linear scan keyed by name: tenant counts per
/// decision are small, and determinism matters more than big-O.
fn tenant_usage<'a>(views: &[SchedView<'a>]) -> Vec<Tenant<'a>> {
    let mut tenants: Vec<Tenant<'a>> = Vec::new();
    for v in views {
        let slots = v.running_slots as f64;
        match tenants.iter_mut().find(|(t, _, _)| *t == v.tenant) {
            Some((_, usage, weight)) => {
                *usage += slots;
                *weight = weight.max(v.weight);
            }
            None => tenants.push((v.tenant, slots, v.weight)),
        }
    }
    tenants
}

/// A tenant's weighted share: running slots per unit of weight.
fn share(&(_, usage, weight): &Tenant<'_>) -> f64 {
    usage / weight.max(f64::MIN_POSITIVE)
}

/// `tenant`'s weighted share (0 for a tenant with no job in view).
fn share_of(tenants: &[Tenant<'_>], tenant: &str) -> f64 {
    tenants
        .iter()
        .find(|(t, _, _)| *t == tenant)
        .map_or(0.0, share)
}

/// The weighted max-min pick: among eligible jobs, the one whose tenant
/// has the smallest share wins; ties break to the lowest job id, so
/// equal-share tenants degrade to plain FIFO.
fn min_share_job(tenants: &[Tenant<'_>], views: &[SchedView<'_>]) -> Option<JobId> {
    min_score_view(views, |v| v.eligible.then(|| share_of(tenants, v.tenant))).map(|v| v.job)
}

/// [`FairShare`]'s pick over `views`, for
/// [`DeadlineSlack`](super::DeadlineSlack)'s deadline-less fallback.
pub(crate) fn fair_share_pick(views: &[SchedView<'_>]) -> Option<JobId> {
    min_share_job(&tenant_usage(views), views)
}

impl Scheduler for FairShare {
    fn name(&self) -> &'static str {
        "fair-share"
    }

    fn pick_job(&mut self, views: &[SchedView<'_>], _node: NodeId, _now: SimTime) -> Option<JobId> {
        let tenants = tenant_usage(views);
        // The tenants at the minimum share are the ones entitled to the
        // next slot. The set rarely changes between two free slots, so it
        // is re-allocated only when it does.
        let min = tenants.iter().map(share).fold(f64::INFINITY, f64::min);
        let poorest = || tenants.iter().filter(|t| share(t) == min).map(|t| t.0);
        if !poorest().eq(self.min_share_tenants.iter().map(String::as_str)) {
            self.min_share_tenants = poorest().map(str::to_owned).collect();
        }
        min_share_job(&tenants, views)
    }

    fn pick_straggler(
        &mut self,
        view: &SchedView<'_>,
        node: NodeId,
        now: SimTime,
    ) -> Option<TaskId> {
        // Speculative duplicates are billed to the tenant's running-slot
        // share like any attempt, so only a minimum-share tenant may spend
        // a slot on one. An empty snapshot (no `pick_job` yet — a harness
        // asking for a straggler directly) keeps the default open.
        if !self.min_share_tenants.is_empty()
            && !self.min_share_tenants.iter().any(|t| t == view.tenant)
        {
            return None;
        }
        default_straggler(view, node, now, |_| true)
    }

    /// Reclaims a slot for a tenant running at least one full slot below
    /// its weighted entitlement (`weight / Σweights × cluster_slots`),
    /// killing the youngest attempt of a tenant holding at least one slot
    /// *above* its own. Whole-slot deficits/surpluses keep the policy from
    /// thrashing around fractional entitlements.
    fn reclaim(
        &mut self,
        views: &[SchedView<'_>],
        node: NodeId,
        now: SimTime,
    ) -> Option<ReclaimVictim> {
        let tenants = tenant_usage(views);
        let total_weight: f64 = tenants.iter().map(|&(_, _, w)| w).sum();
        let cluster = views.first().map(|v| v.cluster_slots).unwrap_or(0);
        if total_weight <= 0.0 || cluster == 0 {
            return None;
        }
        // A tenant's balance: usage − entitlement, in slots. EPS absorbs
        // float noise so an exactly-one-slot imbalance still counts.
        const EPS: f64 = 1e-9;
        let balance = |tenant: &str| -> f64 {
            tenants
                .iter()
                .find(|(t, _, _)| *t == tenant)
                .map_or(0.0, |&(_, usage, weight)| {
                    usage - weight / total_weight * cluster as f64
                })
        };
        // Beneficiary: the minimum-share eligible job with pending work
        // whose tenant is at least one whole slot short — the same
        // ordering regular dispatch uses, restricted to deficient tenants.
        let bview = min_score_view(views, |v| {
            (v.eligible && !v.pending.is_empty() && -balance(v.tenant) >= 1.0 - EPS)
                .then(|| share_of(&tenants, v.tenant))
        })?;
        self.budget
            .take_victim(views, node, now, bview.job, |v, _| {
                v.tenant != bview.tenant && balance(v.tenant) >= 1.0 - EPS
            })
    }
}
