//! The metric tables (names, units, directions, bounds) and the per-layer
//! ledger derived from one traced run.
//!
//! Layers are the crates: `des`, `net`, `dfs`, `mapred`, `hybrid` (crate
//! `core`), `cellmr`, `cellbe`, `kernels`. Each actor class is a span
//! (work count, busy time); the map kernel is a child span of the
//! TaskTracker's (timed by [`TimedKernel`](crate::timed_kernel)), and
//! `des.self_s` is the traced wall minus every actor span: queue, clock,
//! dispatch and message boxing.

use crate::workloads::Outcome;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One end-to-end metric: what a user of the simulator sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Absolute slack `--repeat-check` allows besides the bound (set-up
    /// of a 64-node cluster takes 0.1 ms; 25% of that is noise).
    pub slack: f64,
    /// Simulated, not timed: repeats exactly for a given `--seed` and
    /// `--seconds`, and `--repeat-check` demands exactly that.
    pub simulated: bool,
}

/// The end-to-end metrics, in report order. Host metrics are lower
/// quartiles over a run's trajectories; the simulated ones are pooled and
/// repeat exactly for a given `--seed` and `--seconds`, so their bounds
/// only have to cover the spread between seeds.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        slack: 0.020,
        simulated: false,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        slack: 0.0,
        simulated: false,
    },
    EndToEnd {
        name: "makespan_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.06,
        slack: 0.0,
        simulated: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        slack: 0.0,
        simulated: false,
    },
    EndToEnd {
        name: "useful_attempt_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.02,
        slack: 0.0,
        simulated: true,
    },
    EndToEnd {
        name: "deadline_hit_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.10,
        slack: 0.0,
        simulated: true,
    },
];

use Better::{Higher, Lower};

/// Every per-layer metric: `(name, unit, direction)`. A traced run emits
/// all of them on every workload; one that does not apply reads 0.
pub const PER_LAYER: [(&str, &str, Better); 94] = [
    // des: the event engine.
    ("des.events", "count", Lower),
    ("des.pushes", "count", Lower),
    ("des.peak_depth", "count", Lower),
    ("des.timer_rearms", "count", Higher),
    ("des.cancelled_drops", "count", Lower),
    ("des.dead_actor_drops", "count", Lower),
    ("des.self_s", "s", Lower),
    ("des.self_ns_per_event", "ns", Lower),
    ("des.probe.timer_events_per_sec", "1/s", Higher),
    ("des.probe.msg_events_per_sec", "1/s", Higher),
    ("des.probe.cancel_events_per_sec", "1/s", Higher),
    // net: the fluid fabric and the RPC path.
    ("net.fabric.events", "count", Lower),
    ("net.fabric.busy_s", "s", Lower),
    ("net.fabric.ns_per_event", "ns", Lower),
    ("net.flows_started", "count", Lower),
    ("net.flows_done", "count", Higher),
    ("net.flows_aborted", "count", Lower),
    ("net.flow_complete_ratio", "ratio", Higher),
    ("net.flow_bytes_done", "count", Higher),
    ("net.rpcs", "count", Lower),
    ("net.solver_calls", "count", Lower),
    ("net.solver_rounds", "count", Lower),
    ("net.comp_flow_visits", "count", Lower),
    ("net.abort_flows_scanned", "count", Lower),
    ("net.probe.shuffle_events_per_sec", "1/s", Higher),
    ("net.probe.shuffle_solver_calls", "count", Lower),
    ("net.probe.shuffle_makespan_s", "s", Lower),
    // dfs: NameNode and DataNodes.
    ("dfs.namenode.events", "count", Lower),
    ("dfs.namenode.busy_s", "s", Lower),
    ("dfs.namenode.ns_per_event", "ns", Lower),
    ("dfs.datanode.events", "count", Lower),
    ("dfs.datanode.busy_s", "s", Lower),
    ("dfs.datanode.ns_per_event", "ns", Lower),
    ("dfs.reads", "count", Lower),
    ("dfs.bytes_served", "count", Lower),
    ("dfs.bytes_written", "count", Lower),
    ("dfs.read_retries", "count", Lower),
    ("dfs.read_errors", "count", Lower),
    ("dfs.blocks_replicated", "count", Lower),
    ("dfs.replications_failed", "count", Lower),
    ("dfs.under_replicated_end", "count", Lower),
    // mapred: JobTracker, TaskTrackers, scheduler outcome.
    ("mapred.jobtracker.events", "count", Lower),
    ("mapred.jobtracker.busy_s", "s", Lower),
    ("mapred.jobtracker.ns_per_event", "ns", Lower),
    ("mapred.tasktracker.events", "count", Lower),
    ("mapred.tasktracker.busy_s", "s", Lower),
    ("mapred.tasktracker.ns_per_event", "ns", Lower),
    ("mapred.heartbeats", "count", Lower),
    ("mapred.assignments", "count", Lower),
    ("mapred.tasks", "count", Lower),
    ("mapred.attempts", "count", Lower),
    ("mapred.failed_attempts", "count", Lower),
    ("mapred.speculative_launches", "count", Lower),
    ("mapred.preemptions", "count", Lower),
    ("mapred.useful_attempt_ratio", "ratio", Higher),
    ("mapred.wasted_attempt_share", "ratio", Lower),
    ("mapred.jobs_failed_share", "ratio", Lower),
    ("mapred.local_read_ratio", "ratio", Higher),
    ("mapred.slot_seconds", "s", Lower),
    ("mapred.wasted_slot_seconds", "s", Lower),
    ("mapred.deadline_hits", "count", Higher),
    ("mapred.deadline_jobs", "count", Higher),
    ("mapred.deadline_miss_share", "ratio", Lower),
    ("mapred.fifo_control.deadline_miss_share", "ratio", Higher),
    ("mapred.light_p50_s", "s", Lower),
    ("mapred.light_max_s", "s", Lower),
    ("mapred.sim_floor_s", "s", Lower),
    ("mapred.sim_kernel_delta_s", "s", Lower),
    // hybrid: the map kernel call, timed from outside.
    ("hybrid.kernel_calls", "count", Lower),
    ("hybrid.kernel_busy_s", "s", Lower),
    ("hybrid.kernel_busy_share", "ratio", Lower),
    ("hybrid.kernel_host_mb_per_s", "MB/s", Higher),
    ("hybrid.kernel_sim_s", "s", Lower),
    ("hybrid.setup_sim_s", "s", Lower),
    // cellmr: the framework path (probes and the variant row).
    ("cellmr.run_map.host_mb_per_s", "MB/s", Higher),
    ("cellmr.run_map.sim_mb_per_s", "MB/s", Higher),
    ("cellmr.variant.wall_s", "s", Lower),
    ("cellmr.variant.kernel_busy_s", "s", Lower),
    ("cellmr.variant.makespan_s", "s", Lower),
    // cellbe: the Cell machine model (probes).
    ("cellbe.run_data.host_mb_per_s", "MB/s", Higher),
    ("cellbe.run_data.sim_mb_per_s", "MB/s", Higher),
    ("cellbe.run_data.dma_requests", "count", Lower),
    ("cellbe.run_data.spe_utilization", "ratio", Higher),
    (
        "cellbe.run_compute.host_msamples_per_s",
        "Msamples/s",
        Higher,
    ),
    // kernels: the real computations (probes).
    ("kernels.aes_ctr.host_mb_per_s", "MB/s", Higher),
    ("kernels.fill.host_mb_per_s", "MB/s", Higher),
    ("kernels.checksum.host_mb_per_s", "MB/s", Higher),
    ("kernels.sort.host_mb_per_s", "MB/s", Higher),
    ("kernels.pi.host_msamples_per_s", "Msamples/s", Higher),
    // bench: the tracing itself.
    ("bench.traced_wall_s", "s", Lower),
    ("bench.untraced_wall_s", "s", Lower),
    ("bench.trace_overhead_share", "ratio", Lower),
    ("bench.actor_busy_s", "s", Lower),
    ("bench.other_actors_busy_s", "s", Lower),
];

/// The per-layer values of one traced run, one optional slot per
/// [`PER_LAYER`] entry.
#[derive(Clone, Debug)]
pub struct Ledger {
    values: Vec<Option<f64>>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            values: vec![None; PER_LAYER.len()],
        }
    }
}

impl Ledger {
    /// Records `name`; panics on a name [`PER_LAYER`] does not declare
    /// (a typo here would otherwise silently read 0 in every report).
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = PER_LAYER
            .iter()
            .position(|&(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("'{name}' is not a declared per-layer metric"));
        self.values[slot] = Some(value);
    }

    /// The value recorded under `name`, 0 when the workload has none.
    pub fn get(&self, name: &str) -> f64 {
        self.iter()
            .find(|&(n, _, _)| n == name)
            .map_or(0.0, |(_, v, _)| v)
    }

    /// Every declared metric as `(name, value, unit)`, 0 where none was
    /// recorded, in [`PER_LAYER`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        PER_LAYER
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit, _), v)| (name, v.unwrap_or(0.0), unit))
    }

    /// Overlays every value `other` recorded (probes, control rows).
    pub fn merge(&mut self, other: &Ledger) {
        for (mine, theirs) in self.values.iter_mut().zip(&other.values) {
            if theirs.is_some() {
                *mine = *theirs;
            }
        }
    }

    /// Per-metric median over several ledgers of the same run shape:
    /// counts are identical in all of them, host times take their middle
    /// value.
    pub fn median_of(ledgers: &[Ledger]) -> Ledger {
        let mut out = Ledger::default();
        for (slot, value) in out.values.iter_mut().enumerate() {
            let mut samples: Vec<f64> = ledgers.iter().filter_map(|l| l.values[slot]).collect();
            if !samples.is_empty() {
                samples.sort_by(f64::total_cmp);
                *value = Some(crate::stats::median(&samples));
            }
        }
        out
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Actor-class label to the ledger's span prefix.
pub const SPANS: [(&str, &str); 5] = [
    ("net.fabric", "net.fabric"),
    ("dfs.namenode", "dfs.namenode"),
    ("dfs.datanode", "dfs.datanode"),
    ("mr.jobtracker", "mapred.jobtracker"),
    ("mr.tasktracker", "mapred.tasktracker"),
];

/// Derives the per-layer ledger of one traced run. `untraced_wall_s` is
/// the wall of an untraced run in the same process, for the overhead.
pub fn of_traced_run(out: &Outcome, untraced_wall_s: f64) -> Ledger {
    let mut l = Ledger::default();
    let kernel_host_s = out.kernel.as_ref().map_or(0.0, |k| k.host_s());

    // Actor spans. The kernel call is a child of the TaskTracker span, so
    // the TaskTracker's busy time is reported net of it.
    let mut actor_busy_s = 0.0;
    let mut named_busy_s = 0.0;
    for c in &out.actor_costs {
        actor_busy_s += c.nanos as f64 / 1e9;
    }
    for (class, prefix) in SPANS {
        let cost = out.actor_costs.iter().find(|c| c.class == class);
        let events = cost.map_or(0, |c| c.events) as f64;
        let mut busy_s = cost.map_or(0, |c| c.nanos) as f64 / 1e9;
        named_busy_s += busy_s;
        if class == "mr.tasktracker" {
            busy_s = (busy_s - kernel_host_s).max(0.0);
        }
        l.set(&format!("{prefix}.events"), events);
        l.set(&format!("{prefix}.busy_s"), busy_s);
        l.set(
            &format!("{prefix}.ns_per_event"),
            ratio(busy_s * 1e9, events),
        );
    }

    // des
    let events = out.events as f64;
    let self_s = (out.wall_s - actor_busy_s).max(0.0);
    l.set("des.events", events);
    l.set("des.pushes", out.queue.pushes as f64);
    l.set("des.peak_depth", out.queue.peak_depth as f64);
    l.set("des.timer_rearms", out.queue.timer_rearms as f64);
    l.set("des.cancelled_drops", out.queue.cancelled_drops as f64);
    l.set("des.dead_actor_drops", out.queue.dead_actor_drops as f64);
    l.set("des.self_s", self_s);
    l.set("des.self_ns_per_event", ratio(self_s * 1e9, events));

    // net, dfs: the actors' own counters.
    let c = |name: &str| out.counter(name) as f64;
    for name in [
        "net.flows_started",
        "net.flows_done",
        "net.flows_aborted",
        "net.flow_bytes_done",
        "net.rpcs",
        "net.solver_calls",
        "net.solver_rounds",
        "net.comp_flow_visits",
        "net.abort_flows_scanned",
        "dfs.reads",
        "dfs.bytes_served",
        "dfs.bytes_written",
        "dfs.read_retries",
        "dfs.read_errors",
        "dfs.blocks_replicated",
        "dfs.replications_failed",
    ] {
        l.set(name, c(name));
    }
    l.set(
        "net.flow_complete_ratio",
        ratio(c("net.flows_done"), c("net.flows_started")),
    );
    l.set("dfs.under_replicated_end", out.under_replicated_end as f64);

    // mapred
    let sum = |f: fn(&accelmr_mapred::JobResult) -> f64| out.results.iter().map(f).sum::<f64>();
    let (tasks, attempts) = (out.tasks() as f64, out.attempts() as f64);
    let (deadline_jobs, deadline_hits) = out.deadlines();
    l.set("mapred.heartbeats", c("mr.heartbeats"));
    l.set("mapred.assignments", c("mr.assignments"));
    l.set("mapred.tasks", tasks);
    l.set("mapred.attempts", attempts);
    l.set(
        "mapred.failed_attempts",
        sum(|r| f64::from(r.failed_attempts)),
    );
    l.set("mapred.speculative_launches", c("mr.speculative_launches"));
    l.set("mapred.preemptions", c("mr.preemptions"));
    l.set("mapred.useful_attempt_ratio", ratio(tasks, attempts));
    l.set("mapred.wasted_attempt_share", 1.0 - ratio(tasks, attempts));
    l.set(
        "mapred.jobs_failed_share",
        ratio(out.jobs_failed() as f64, out.results.len() as f64),
    );
    let (local, remote) = (
        sum(|r| r.local_reads as f64),
        sum(|r| r.remote_reads as f64),
    );
    l.set("mapred.local_read_ratio", ratio(local, local + remote));
    l.set("mapred.slot_seconds", sum(|r| r.slot_seconds));
    l.set("mapred.wasted_slot_seconds", sum(|r| r.wasted_slot_seconds));
    l.set("mapred.deadline_hits", deadline_hits as f64);
    l.set("mapred.deadline_jobs", deadline_jobs as f64);
    l.set(
        "mapred.deadline_miss_share",
        ratio((deadline_jobs - deadline_hits) as f64, deadline_jobs as f64),
    );
    let mut light: Vec<f64> = out
        .results
        .iter()
        .filter(|r| r.deadline.is_some())
        .map(|r| r.elapsed.as_secs_f64())
        .collect();
    if !light.is_empty() {
        light.sort_by(f64::total_cmp);
        l.set("mapred.light_p50_s", crate::stats::median(&light));
        l.set("mapred.light_max_s", light[light.len() - 1]);
    }

    // hybrid
    if let Some(k) = &out.kernel {
        l.set("hybrid.kernel_calls", k.calls() as f64);
        l.set("hybrid.kernel_busy_s", k.host_s());
        l.set("hybrid.kernel_busy_share", ratio(k.host_s(), out.wall_s));
        l.set(
            "hybrid.kernel_host_mb_per_s",
            ratio(k.bytes() as f64 / 1e6, k.host_s()),
        );
        l.set("hybrid.kernel_sim_s", k.sim_s());
        l.set("hybrid.setup_sim_s", k.setup_sim_s());
    }

    // bench
    l.set("bench.traced_wall_s", out.wall_s);
    l.set("bench.untraced_wall_s", untraced_wall_s);
    l.set(
        "bench.trace_overhead_share",
        ratio(out.wall_s, untraced_wall_s) - 1.0,
    );
    l.set("bench.actor_busy_s", actor_busy_s);
    l.set("bench.other_actors_busy_s", actor_busy_s - named_busy_s);
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|&(n, _, _)| n))
            .collect();
        for name in &names {
            assert!(valid_name(name), "bad metric name {name:?}");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|&(_, u, _)| u))
        {
            assert!(valid_unit(unit), "bad unit {unit:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn ledger_medians_and_merges() {
        let mut a = Ledger::default();
        a.set("des.self_s", 1.0);
        a.set("des.events", 10.0);
        let mut b = Ledger::default();
        b.set("des.self_s", 3.0);
        b.set("des.events", 10.0);
        let mut c = Ledger::default();
        c.set("des.self_s", 2.0);
        c.set("des.events", 10.0);
        let m = Ledger::median_of(&[a, b, c]);
        assert_eq!((m.get("des.self_s"), m.get("des.events")), (2.0, 10.0));
        assert_eq!(m.get("net.rpcs"), 0.0);
        let mut extra = Ledger::default();
        extra.set("net.rpcs", 5.0);
        let mut merged = m.clone();
        merged.merge(&extra);
        assert_eq!(merged.get("net.rpcs"), 5.0);
    }

    #[test]
    #[should_panic(expected = "not a declared per-layer metric")]
    fn undeclared_names_are_rejected() {
        Ledger::default().set("des.typo", 1.0);
    }
}
