//! MapReduce runtime configuration and identifiers.

use accelmr_des::SimDuration;

/// Job identifier, assigned by the JobTracker.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct JobId(pub u32);

/// Task identifier, unique within a job.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub u32);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job_{:04}", self.0)
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task_{:05}", self.0)
    }
}

/// Task scheduling policy. Each arm names a [`Scheduler`](crate::sched::Scheduler)
/// implementation; the JobTracker instantiates the configured one at deploy
/// time.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SchedulerPolicy {
    /// Prefer tasks whose input blocks live on the requesting node — the
    /// Hadoop default the paper relies on ("it tries to minimize the number
    /// of remote blocks accesses").
    LocalityFirst,
    /// Plain FIFO, ignoring placement (ablation baseline).
    Fifo,
    /// Heterogeneity-aware adaptive dispatch: learns per-node, per-kernel
    /// throughput online (EWMA over completed attempts) and weights
    /// dispatch, split sizing, and speculative-copy placement toward
    /// faster nodes — the remedy for the mixed-cluster straggler effect
    /// the paper anticipated in §V. See
    /// [`AdaptiveHetero`](crate::sched::AdaptiveHetero).
    Adaptive,
    /// Multi-tenant weighted fair sharing at the *job* level: every free
    /// slot goes to the tenant with the smallest weighted running-slot
    /// share (weighted max-min, starvation-free by construction), FIFO
    /// within a tenant, locality-preferring within a job. See
    /// [`FairShare`](crate::sched::FairShare).
    FairShare,
    /// Deadline-aware dispatch: jobs carrying a deadline
    /// ([`JobBuilder::deadline_at`](crate::JobBuilder::deadline_at)) are
    /// served earliest-slack-first (EDF refined by remaining-work
    /// estimates from learned task durations); deadline-less jobs share
    /// the remaining slots fair-share. See
    /// [`DeadlineSlack`](crate::sched::DeadlineSlack).
    DeadlineSlack,
}

/// Wasted-work budget for preemptive slot reclamation
/// ([`Scheduler::reclaim`](crate::sched::Scheduler::reclaim)).
///
/// Preemption kills running map attempts to hand their slots to
/// under-served tenants or negative-slack deadline jobs; every kill
/// discards the victim's partial progress. These knobs bound that waste
/// and the kill/requeue thrash it could otherwise spiral into. The
/// default is **disabled** (`max_kills_per_job == 0`), which keeps every
/// event trace byte-identical to the non-preemptive runtime.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PreemptionTuning {
    /// Lifetime cap on preemption kills a single victim job may suffer.
    /// `0` disables preemption entirely (the default).
    pub max_kills_per_job: u32,
    /// Attempts younger than this are never named as victims — killing an
    /// attempt that has barely started saves little wall-clock for the
    /// beneficiary but still pays full kill/requeue/restart overhead.
    pub min_attempt_age: SimDuration,
    /// After a task's attempt is preempted, the *task* may not be
    /// re-victimized within this window, so a requeued task that lands on
    /// another node is not immediately killed again (kill-same-work
    /// thrash). One beneficiary may still claim slots on several nodes in
    /// one heartbeat round — the cooldown is per-task, not global.
    pub cooldown: SimDuration,
    /// [`DeadlineSlack`](crate::sched::DeadlineSlack) preempts once a
    /// deadline job's slack falls below this margin (not only when it
    /// goes negative): the kill only frees a slot at the victim node's
    /// *next* heartbeat, so waiting for slack zero would reclaim too
    /// late to matter.
    pub slack_margin: SimDuration,
}

impl PreemptionTuning {
    /// Whether this tuning enables preemption at all.
    pub fn enabled(&self) -> bool {
        self.max_kills_per_job > 0
    }

    /// An enabled preset with the budget the `sched_ablation` fairness
    /// scenario runs under: up to 64 kills per victim job, 5 s minimum
    /// victim age, 15 s per-task cooldown, 90 s of deadline slack margin.
    /// The generous margin is deliberate: preempting *early* picks
    /// victims that have invested little runtime yet (youngest-first),
    /// which is what keeps the wasted work under the fairness bench's
    /// 10%-of-slot-seconds bar — a tight margin reclaims late from old,
    /// expensive attempts. The kill cap is sized as a backstop against
    /// runaway thrash, not as the steady-state governor: with long batch
    /// attempts the freshly requeued restarts are always the youngest
    /// candidates, so sustained interactive arrivals concentrate kills on
    /// one victim job, and a tight cap would cut that job's (cheap)
    /// restarts off mid-burst and strand late deadline jobs instead.
    pub fn balanced() -> Self {
        PreemptionTuning {
            max_kills_per_job: 64,
            min_attempt_age: SimDuration::from_secs(5),
            cooldown: SimDuration::from_secs(15),
            slack_margin: SimDuration::from_secs(90),
        }
    }
}

impl Default for PreemptionTuning {
    fn default() -> Self {
        PreemptionTuning {
            max_kills_per_job: 0,
            min_attempt_age: SimDuration::from_secs(5),
            cooldown: SimDuration::from_secs(15),
            slack_margin: SimDuration::from_secs(30),
        }
    }
}

/// A rejected [`MrConfig`], detected at deploy time ([`MrConfig::validate`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MrConfigError {
    /// `map_slots_per_node == 0`: no TaskTracker could ever run a task, so
    /// every job would hang forever.
    ZeroMapSlots,
    /// `heartbeat_interval` is zero: heartbeats (and with them dispatch and
    /// liveness checking) would never be paced.
    ZeroHeartbeatInterval,
    /// `tt_dead_after <= heartbeat_interval`: a healthy TaskTracker would
    /// be declared dead between two of its own heartbeats.
    DeadTimeoutTooShort {
        /// Configured heartbeat period.
        heartbeat_interval: SimDuration,
        /// Configured death timeout.
        tt_dead_after: SimDuration,
    },
    /// An optional knob is set to a value that disables the very
    /// machinery it configures or hangs the run: a zero timeout or
    /// threshold, or a zero, negative or NaN `record_feed_cap` (every
    /// record read would be a flow priced at rate 0 that never completes).
    NotPositive {
        /// The offending knob.
        what: &'static str,
    },
}

impl std::fmt::Display for MrConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MrConfigError::ZeroMapSlots => {
                write!(f, "map_slots_per_node must be at least 1")
            }
            MrConfigError::ZeroHeartbeatInterval => {
                write!(f, "heartbeat_interval must be non-zero")
            }
            MrConfigError::DeadTimeoutTooShort {
                heartbeat_interval,
                tt_dead_after,
            } => write!(
                f,
                "tt_dead_after ({tt_dead_after}) must exceed heartbeat_interval \
                 ({heartbeat_interval}); healthy trackers would be declared dead"
            ),
            MrConfigError::NotPositive {
                what: "record_feed_cap",
            } => write!(f, "record_feed_cap must be positive"),
            MrConfigError::NotPositive { what } => {
                write!(f, "{what} must be positive (or None to disable)")
            }
        }
    }
}

impl std::error::Error for MrConfigError {}

/// Runtime parameters. Defaults model Hadoop 0.19 as deployed in the paper:
/// two Mappers per node, 3-second heartbeats, task dispatch paced by
/// heartbeats, pipelined record feed capped at the measured per-stream
/// RecordReader rate.
#[derive(Clone, Debug)]
pub struct MrConfig {
    /// Concurrent map tasks per TaskTracker (paper: 2).
    pub map_slots_per_node: usize,
    /// TaskTracker heartbeat period.
    pub heartbeat_interval: SimDuration,
    /// A TaskTracker missing heartbeats this long is declared dead and its
    /// tasks re-executed.
    pub tt_dead_after: SimDuration,
    /// Per-stream ceiling of the DataNode→RecordReader feed path,
    /// bytes/second. The paper measured "several seconds" per 64 MB record
    /// over loopback — about 8.5 MB/s per stream.
    pub record_feed_cap: f64,
    /// Overlap record reads with map computation (Hadoop's streaming
    /// RecordReader). `false` is the stop-and-wait ablation.
    pub pipelined_reads: bool,
    /// Enable speculative re-execution of stragglers.
    pub speculative: bool,
    /// Maximum attempts per task before the job fails.
    pub max_attempts: u32,
    /// Scheduling policy.
    pub scheduler: SchedulerPolicy,
    /// Preemptive slot-reclamation budget. Disabled by default
    /// ([`PreemptionTuning::enabled`] is `false`), which preserves every
    /// historical event trace byte-for-byte; policies that implement
    /// [`Scheduler::reclaim`](crate::sched::Scheduler::reclaim) engage it
    /// once `max_kills_per_job > 0`.
    pub preemption: PreemptionTuning,
    // --- chaos-hardening knobs -----------------------------------------
    // All default to *off*, preserving the stock Hadoop-0.19 protocol
    // behavior (and every historical event trace) byte-for-byte; the
    // chaos plane enables them via `MrConfig::hardened()`. Hadoop 0.19
    // had none of this machinery, which is exactly why a partitioned
    // shuffle hangs it — these knobs are the PR-8 hardening layer.
    /// Shuffle fetch timeout: a reduce-side fetch with no completion
    /// within this window is abandoned and re-issued (the stalled stream
    /// is left to drain; a late arrival for it is dropped). Doubles per
    /// retry (exponential backoff). Must exceed the worst-case
    /// *legitimate* fetch time under full shuffle congestion, or healthy
    /// transfers get duplicated. `None` = fetches wait forever (stock
    /// behavior).
    pub shuffle_fetch_timeout: Option<SimDuration>,
    /// DFS record-read timeout: a segment read not served within this
    /// window fails over to the next replica (same backoff rule). `None`
    /// = reads wait forever (stock behavior).
    pub read_timeout: Option<SimDuration>,
    /// Retries per fetch/read before the attempt is failed (re-queued by
    /// the JobTracker under its `max_attempts` budget).
    pub io_max_retries: u32,
    /// Progressive TaskTracker blacklisting: a node accumulating this
    /// many failed attempts stops receiving work until its score decays
    /// below the bar again (the score halves every minute of probation,
    /// so a gray node that recovers re-enters the dispatch rotation).
    /// `None` = never blacklist (stock behavior).
    pub blacklist_threshold: Option<u32>,
    /// Job-level liveness watchdog: a job making no forward progress
    /// (no dispatch, no attempt completion) for this long is failed with
    /// a typed [`JobError`](crate::JobError) instead of hanging the
    /// session — the backstop for unservable inputs (every replica of a
    /// block gone) and unhealable partitions. `None` = jobs may hang
    /// (stock behavior).
    pub job_stall_timeout: Option<SimDuration>,
}

impl MrConfig {
    /// Validates deploy-time invariants. Called by
    /// [`ClusterBuilder::deploy`](crate::ClusterBuilder::deploy); call it
    /// directly to surface a typed error instead of a panic.
    pub fn validate(&self) -> Result<(), MrConfigError> {
        if self.map_slots_per_node == 0 {
            return Err(MrConfigError::ZeroMapSlots);
        }
        if self.heartbeat_interval == SimDuration::ZERO {
            return Err(MrConfigError::ZeroHeartbeatInterval);
        }
        if self.tt_dead_after <= self.heartbeat_interval {
            return Err(MrConfigError::DeadTimeoutTooShort {
                heartbeat_interval: self.heartbeat_interval,
                tt_dead_after: self.tt_dead_after,
            });
        }
        let zero = Some(SimDuration::ZERO);
        let not_positive = [
            (
                "record_feed_cap",
                self.record_feed_cap.is_nan() || self.record_feed_cap <= 0.0,
            ),
            ("shuffle_fetch_timeout", self.shuffle_fetch_timeout == zero),
            ("read_timeout", self.read_timeout == zero),
            ("blacklist_threshold", self.blacklist_threshold == Some(0)),
            ("job_stall_timeout", self.job_stall_timeout == zero),
        ];
        match not_positive.into_iter().find(|&(_, bad)| bad) {
            Some((what, _)) => Err(MrConfigError::NotPositive { what }),
            None => Ok(()),
        }
    }

    /// The default config with every chaos-hardening knob engaged at the
    /// values the `fault_matrix` bench runs under: generous I/O timeouts
    /// (above worst-case congested transfer times), five retries, 3-strike
    /// blacklisting, and a job watchdog well past the death-detection
    /// window. Fault-free runs
    /// behave identically *in outcome* but not in event trace (timeout
    /// timers arm and lazily expire), which is why hardening is opt-in.
    pub fn hardened() -> Self {
        MrConfig {
            shuffle_fetch_timeout: Some(SimDuration::from_secs(45)),
            read_timeout: Some(SimDuration::from_secs(30)),
            io_max_retries: 5,
            blacklist_threshold: Some(3),
            job_stall_timeout: Some(SimDuration::from_secs(120)),
            ..MrConfig::default()
        }
    }
}

impl Default for MrConfig {
    fn default() -> Self {
        MrConfig {
            map_slots_per_node: 2,
            heartbeat_interval: SimDuration::from_secs(3),
            tt_dead_after: SimDuration::from_secs(30),
            record_feed_cap: 8.5e6,
            pipelined_reads: true,
            speculative: false,
            max_attempts: 4,
            scheduler: SchedulerPolicy::LocalityFirst,
            preemption: PreemptionTuning::default(),
            shuffle_fetch_timeout: None,
            read_timeout: None,
            io_max_retries: 4,
            blacklist_threshold: None,
            job_stall_timeout: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_deployment() {
        let c = MrConfig::default();
        assert_eq!(c.map_slots_per_node, 2);
        assert_eq!(c.heartbeat_interval, SimDuration::from_secs(3));
        assert!(c.pipelined_reads);
        assert_eq!(c.scheduler, SchedulerPolicy::LocalityFirst);
        let cap = c.record_feed_cap;
        // ~7.5 s per 64 MB record, the paper's "several seconds".
        let per_record = (64 << 20) as f64 / cap;
        assert!((6.0..10.0).contains(&per_record), "{per_record}");
    }

    #[test]
    fn hardening_defaults_off_and_validated() {
        let c = MrConfig::default();
        assert!(c.shuffle_fetch_timeout.is_none());
        assert!(c.read_timeout.is_none());
        assert!(c.blacklist_threshold.is_none());
        assert!(c.job_stall_timeout.is_none());
        c.validate().unwrap();

        let h = MrConfig::hardened();
        h.validate().unwrap();
        assert!(h.shuffle_fetch_timeout.is_some());
        assert!(h.blacklist_threshold.is_some());
        assert!(h.job_stall_timeout.is_some());

        let bad = MrConfig {
            shuffle_fetch_timeout: Some(SimDuration::ZERO),
            ..MrConfig::default()
        };
        assert_eq!(
            bad.validate(),
            Err(MrConfigError::NotPositive {
                what: "shuffle_fetch_timeout"
            })
        );
        let bad = MrConfig {
            blacklist_threshold: Some(0),
            ..MrConfig::default()
        };
        assert_eq!(
            bad.validate(),
            Err(MrConfigError::NotPositive {
                what: "blacklist_threshold"
            })
        );
        // A zero, negative or NaN feed cap would price every record read
        // at rate 0 and hang the run.
        for cap in [0.0, -1.0, f64::NAN] {
            let bad = MrConfig {
                record_feed_cap: cap,
                ..MrConfig::default()
            };
            let err = bad.validate().unwrap_err();
            assert_eq!(
                err,
                MrConfigError::NotPositive {
                    what: "record_feed_cap"
                }
            );
            assert_eq!(err.to_string(), "record_feed_cap must be positive");
        }
    }

    #[test]
    fn id_display() {
        assert_eq!(JobId(3).to_string(), "job_0003");
        assert_eq!(TaskId(12).to_string(), "task_00012");
    }

    #[test]
    fn default_config_validates() {
        assert_eq!(MrConfig::default().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_zero_map_slots() {
        let c = MrConfig {
            map_slots_per_node: 0,
            ..MrConfig::default()
        };
        assert_eq!(c.validate(), Err(MrConfigError::ZeroMapSlots));
    }

    #[test]
    fn validate_rejects_zero_heartbeat() {
        let c = MrConfig {
            heartbeat_interval: SimDuration::ZERO,
            ..MrConfig::default()
        };
        assert_eq!(c.validate(), Err(MrConfigError::ZeroHeartbeatInterval));
        // A zero heartbeat is caught before the (then vacuous) dead-timeout
        // comparison.
        assert!(c.validate().unwrap_err().to_string().contains("heartbeat"));
    }

    #[test]
    fn validate_rejects_dead_timeout_at_or_below_heartbeat() {
        for dead_secs in [1u64, 3] {
            let c = MrConfig {
                heartbeat_interval: SimDuration::from_secs(3),
                tt_dead_after: SimDuration::from_secs(dead_secs),
                ..MrConfig::default()
            };
            match c.validate() {
                Err(MrConfigError::DeadTimeoutTooShort { .. }) => {}
                other => panic!("expected DeadTimeoutTooShort, got {other:?}"),
            }
        }
        // Strictly above the heartbeat is fine.
        let ok = MrConfig {
            heartbeat_interval: SimDuration::from_secs(3),
            tt_dead_after: SimDuration::from_secs(4),
            ..MrConfig::default()
        };
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn preemption_defaults_off_and_balanced_preset_enabled() {
        let c = MrConfig::default();
        assert!(!c.preemption.enabled());
        assert_eq!(c.preemption.max_kills_per_job, 0);
        c.validate().unwrap();

        let t = PreemptionTuning::balanced();
        assert!(t.enabled());
        assert!(t.min_attempt_age > SimDuration::ZERO);
        assert!(t.cooldown > SimDuration::ZERO);
        assert!(t.slack_margin > SimDuration::ZERO);
        let enabled = MrConfig {
            preemption: t,
            ..MrConfig::default()
        };
        enabled.validate().unwrap();
    }
}
