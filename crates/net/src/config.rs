//! The network's hardware: node ids, link rates and RPC costs, each a
//! constant.

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

/// Per-node NIC bandwidth, each direction, bytes/second. The paper's
/// testbed: Gigabit Ethernet NICs (125 MB/s full duplex per node) behind a
/// non-blocking switch.
pub const LINK_BYTES_PER_SEC: f64 = 125.0e6;

/// Loopback device aggregate bandwidth per node, bytes/second. The raw
/// capacity is high, but the *per-stream* useful rate is protocol-limited
/// — the effect the paper measured between DataNode and TaskTracker.
pub const LOOPBACK_BYTES_PER_SEC: f64 = 1.5e9;

/// Fixed one-way latency of a control RPC.
pub const RPC_LATENCY: SimDuration = SimDuration::from_micros(200);

/// Serialization rate applied to RPC payload bytes.
pub const RPC_BYTES_PER_SEC: f64 = 125.0e6;

/// [`RPC_BYTES_PER_SEC`] as the time one payload byte takes, exactly.
const RPC_NANOS_PER_BYTE: u64 = 8;
const _: () = assert!(RPC_NANOS_PER_BYTE as f64 * RPC_BYTES_PER_SEC == 1e9);

/// One-way delivery delay of a control message carrying `bytes`: the
/// latency plus 8 ns a byte, in integer nanoseconds (saturating).
pub fn rpc_delay(bytes: u64) -> SimDuration {
    RPC_LATENCY.saturating_add(SimDuration::from_nanos(
        bytes.saturating_mul(RPC_NANOS_PER_BYTE),
    ))
}

/// Carries no setting: the network is the paper's, stated by the constants
/// above. The type exists only as the argument of [`Fabric::new`], a call
/// surface the benchmark package is built against.
///
/// [`Fabric::new`]: crate::Fabric::new
#[derive(Clone, Copy, Debug, Default)]
pub struct NetConfig {}

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
        let d0 = rpc_delay(0);
        assert_eq!(d0, RPC_LATENCY);
        let d = rpc_delay(125_000_000);
        assert_eq!(d.as_nanos(), RPC_LATENCY.as_nanos() + 1_000_000_000);
        assert_eq!(rpc_delay(u64::MAX), SimDuration::MAX);
    }

    /// The integer delay equals the float formula it replaced, rounded to
    /// the nanosecond, on every count up to 2·10^6 and on random counts up
    /// to 2^46 (64 TiB, past any message the simulator sends).
    #[test]
    fn rpc_delay_matches_the_float_formula() {
        let float = |b: u64| RPC_LATENCY + SimDuration::from_secs_f64(b as f64 / RPC_BYTES_PER_SEC);
        for bytes in 0..2_000_000 {
            assert_eq!(rpc_delay(bytes), float(bytes), "{bytes} bytes");
        }
        let mut rng = accelmr_des::Xoshiro256::seed_from_u64(46);
        for _ in 0..2_000_000 {
            let bytes = rng.next_u64() >> 18;
            assert_eq!(rpc_delay(bytes), float(bytes), "{bytes} bytes");
        }
    }
}
