//! The JNI-like native bridge.
//!
//! The paper connects Hadoop mappers to the Cell libraries through the Java
//! Native Interface. JNI is cheap but not free: each native invocation pays
//! a call transition, and passing a record means pinning (or copying) the
//! Java byte array. Those costs are small next to a 64 MB record's feed
//! time, but the architecture is only honest if the layer exists — and the
//! ablation bench can then show it is *not* where the time goes.

use accelmr_des::SimDuration;

/// Fixed call transition cost of one JNI downcall.
pub const CALL_OVERHEAD: SimDuration = SimDuration::from_micros(60);

/// Array pinning / critical-section cost per byte (GetPrimitiveArrayCritical
/// avoids a copy; a small per-byte touch remains), bytes/second.
pub const PIN_BYTES_PER_SEC: f64 = 20.0e9;

/// Total bridge cost for one native call moving `bytes`.
pub fn call_cost(bytes: u64) -> SimDuration {
    CALL_OVERHEAD + SimDuration::from_secs_f64(bytes as f64 / PIN_BYTES_PER_SEC)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_cost_scales_with_bytes() {
        let small = call_cost(0);
        assert_eq!(small, SimDuration::from_micros(60));
        let big = call_cost(64 << 20);
        assert!(big > small);
        // Bridge cost for a 64 MB record stays microseconds-to-milliseconds:
        // invisible next to the ~7.5 s feed time — the ablation's point.
        assert!(big < SimDuration::from_millis(5));
    }
}
