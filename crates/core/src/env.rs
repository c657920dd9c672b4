//! Per-node accelerator environment.
//!
//! Each worker node owns one Cell BE machine model (two physical Cells in a
//! QS22, but the paper runs one mapper per Cell, so the environment exposes
//! one machine per map slot lane; we model the per-mapper Cell directly).
//! SPU contexts stay warm across tasks on the same node — the effect that
//! makes the first accelerated task on a node slower.

use accelmr_cellbe::{CellConfig, CellMachine};
use accelmr_cellmr::{CellMrConfig, CellMrRuntime};
use accelmr_mapred::{NodeEnv, NodeEnvFactory};

/// Cell machines per worker: the QS22 blade carries two Cell processors
/// and the paper runs two mappers per blade, one per Cell.
pub const CELLS_PER_BLADE: usize = 2;

/// Node-resident Cell BE state: one machine per Cell of the blade, plus a
/// MapReduce-for-Cell framework instance for jobs routed through the
/// second native library. Every machine runs the default [`CellConfig`].
pub struct CellNodeEnv {
    machines: Vec<CellMachine>,
    framework: CellMrRuntime,
    materialized: bool,
}

impl CellNodeEnv {
    /// Builds the environment with [`CELLS_PER_BLADE`] Cell machines.
    pub fn new(materialized: bool) -> Self {
        let machines = (0..CELLS_PER_BLADE)
            .map(|_| CellMachine::new(CellConfig::default(), materialized).expect("valid config"))
            .collect();
        let framework =
            CellMrRuntime::new(CellConfig::default(), CellMrConfig::default(), materialized)
                .expect("valid config");
        CellNodeEnv {
            machines,
            framework,
            materialized,
        }
    }

    /// The Cell machine backing map slot `slot` (slots wrap over the
    /// blade's Cells).
    pub fn machine(&mut self, slot: usize) -> &mut CellMachine {
        &mut self.machines[slot % CELLS_PER_BLADE]
    }

    /// The MapReduce-for-Cell framework runtime.
    pub fn framework(&mut self) -> &mut CellMrRuntime {
        &mut self.framework
    }

    /// Whether kernels execute functionally on real bytes.
    pub fn is_materialized(&self) -> bool {
        self.materialized
    }
}

impl NodeEnv for CellNodeEnv {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Factory handing every node a [`CellNodeEnv`].
#[derive(Clone, Default)]
pub struct CellEnvFactory {
    /// Functional simulation?
    pub materialized: bool,
}

impl NodeEnvFactory for CellEnvFactory {
    fn build(&self, _node_index: usize) -> Box<dyn NodeEnv> {
        Box::new(CellNodeEnv::new(self.materialized))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_downcasts_and_cycles_machines() {
        let mut env = CellEnvFactory::default().build(0);
        let cell = env
            .as_any_mut()
            .downcast_mut::<CellNodeEnv>()
            .expect("downcast");
        assert!(!cell.is_materialized());
        // Slot indices wrap over available machines.
        cell.machine(0).warm_up();
        assert!(cell.machine(2).is_warm()); // 2 % 2 == 0: same machine
        assert!(!cell.machine(1).is_warm());
    }
}
