//! DFS configuration and core identifiers.

use accelmr_des::SimDuration;

/// Globally unique block identifier (allocated by the NameNode).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockId(pub u64);

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blk_{}", self.0)
    }
}

/// Default block size, bytes: the paper's 64 MB HDFS blocks. Also the
/// default record size of a file job (one record per block, Figure 3).
pub const BLOCK_SIZE: u64 = 64 << 20;

/// DataNode heartbeat period (and the NameNode's liveness sweep period).
pub const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_secs(3);

/// File system parameters. The rest of the paper's deployment is fixed:
/// [`BLOCK_SIZE`] blocks, replication level 1 ("one single copy of each
/// block was present in the cluster"), [`HEARTBEAT_INTERVAL`] heartbeats.
#[derive(Clone, Debug)]
pub struct DfsConfig {
    /// A DataNode missing heartbeats for this long is declared dead.
    pub dead_after: SimDuration,
}

/// A rejected [`DfsConfig`], detected at deploy time ([`DfsConfig::validate`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DfsConfigError {
    /// `dead_after <= HEARTBEAT_INTERVAL`: a healthy DataNode would be
    /// declared dead between two of its own heartbeats, and nothing but a
    /// re-admission brings a dead DataNode back.
    DeadTimeoutTooShort {
        /// The DataNode heartbeat period.
        heartbeat_interval: SimDuration,
        /// Configured death timeout.
        dead_after: SimDuration,
    },
}

impl std::fmt::Display for DfsConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DfsConfigError::DeadTimeoutTooShort {
                heartbeat_interval,
                dead_after,
            } => write!(
                f,
                "dead_after ({dead_after}) must exceed the DataNode heartbeat \
                 ({heartbeat_interval}); healthy DataNodes would be declared dead"
            ),
        }
    }
}

impl std::error::Error for DfsConfigError {}

impl DfsConfig {
    /// Validates deploy-time invariants. Called by
    /// [`deploy_dfs`](crate::deploy_dfs); call it directly to surface a
    /// typed error instead of a panic.
    pub fn validate(&self) -> Result<(), DfsConfigError> {
        if self.dead_after <= HEARTBEAT_INTERVAL {
            return Err(DfsConfigError::DeadTimeoutTooShort {
                heartbeat_interval: HEARTBEAT_INTERVAL,
                dead_after: self.dead_after,
            });
        }
        Ok(())
    }
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            dead_after: SimDuration::from_secs(30),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_deployment() {
        assert_eq!(DfsConfig::default().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_dead_timeout_at_or_below_heartbeat() {
        for secs in [2, 3] {
            let c = DfsConfig {
                dead_after: SimDuration::from_secs(secs),
            };
            let err = c.validate().unwrap_err();
            assert_eq!(
                err,
                DfsConfigError::DeadTimeoutTooShort {
                    heartbeat_interval: HEARTBEAT_INTERVAL,
                    dead_after: SimDuration::from_secs(secs),
                }
            );
            assert!(err.to_string().contains("dead_after"));
        }
        let ok = DfsConfig {
            dead_after: SimDuration::from_secs(4),
        };
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn block_id_display() {
        assert_eq!(BlockId(17).to_string(), "blk_17");
    }
}
