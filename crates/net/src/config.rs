//! Network parameters.

use accelmr_des::SimDuration;

/// Identifies one machine in the cluster. Node 0 is conventionally the head
/// node (JobTracker + NameNode in the paper's setup); workers follow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The head node.
    pub const HEAD: NodeId = NodeId(0);

    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Fabric configuration. Defaults model the paper's testbed: Gigabit
/// Ethernet NICs (125 MB/s full duplex per node) behind a non-blocking
/// switch, and a loopback device whose raw capacity is high but whose
/// *per-stream* useful rate is protocol-limited — the effect the paper
/// measured between DataNode and TaskTracker.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Per-node NIC bandwidth, each direction, bytes/second.
    pub link_bytes_per_sec: f64,
    /// Loopback device aggregate bandwidth per node, bytes/second.
    pub loopback_bytes_per_sec: f64,
    /// Fixed one-way latency of a control RPC.
    pub rpc_latency: SimDuration,
    /// Serialization rate applied to RPC payload bytes.
    pub rpc_bytes_per_sec: f64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            link_bytes_per_sec: 125.0e6,
            loopback_bytes_per_sec: 1.5e9,
            rpc_latency: SimDuration::from_micros(200),
            rpc_bytes_per_sec: 125.0e6,
        }
    }
}

impl NetConfig {
    /// One-way delivery delay of a control message carrying `bytes`.
    pub fn rpc_delay(&self, bytes: u64) -> SimDuration {
        self.rpc_latency + SimDuration::from_secs_f64(bytes as f64 / self.rpc_bytes_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_basics() {
        assert_eq!(NodeId::HEAD.index(), 0);
        assert_eq!(NodeId(3).to_string(), "node3");
        assert!(NodeId(1) < NodeId(2));
    }

    #[test]
    fn rpc_delay_includes_serialization() {
        let cfg = NetConfig::default();
        let d0 = cfg.rpc_delay(0);
        assert_eq!(d0, cfg.rpc_latency);
        let d = cfg.rpc_delay(125_000_000);
        assert_eq!(d.as_nanos(), cfg.rpc_latency.as_nanos() + 1_000_000_000);
    }
}
