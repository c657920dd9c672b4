//! Per-node accelerator environment.
//!
//! Each worker node owns one Cell BE machine model. A QS22 blade carries
//! two Cells and the paper runs one mapper per Cell, but both map slots
//! of a node share the one model here, so they share its warm state: SPU
//! contexts stay warm across tasks on the same node — the effect that
//! makes the first accelerated task on a node slower.

use accelmr_cellbe::{CellConfig, CellMachine};
use accelmr_cellmr::{CellMrConfig, CellMrRuntime};
use accelmr_mapred::{NodeEnv, NodeEnvFactory};

/// Cell processors per worker blade: the QS22 carries two and the paper
/// runs two mappers per blade, one per Cell. Both map slots share one
/// [`CellMachine`] model's warm state (every pinned number assumes this).
pub const CELLS_PER_BLADE: usize = 2;

/// Node-resident Cell BE state: the Cell machine every accelerated kernel
/// runs on, plus a MapReduce-for-Cell framework instance for jobs routed
/// through the second native library. Both run the default [`CellConfig`].
pub struct CellNodeEnv {
    machine: CellMachine,
    framework: CellMrRuntime,
}

impl CellNodeEnv {
    /// Builds the environment; `materialized` machines compute on real
    /// bytes.
    pub fn new(materialized: bool) -> Self {
        CellNodeEnv {
            machine: CellMachine::new(CellConfig::default(), materialized).expect("valid config"),
            framework: CellMrRuntime::new(
                CellConfig::default(),
                CellMrConfig::default(),
                materialized,
            )
            .expect("valid config"),
        }
    }

    /// The node's Cell machine.
    pub fn machine(&mut self) -> &mut CellMachine {
        &mut self.machine
    }

    /// The MapReduce-for-Cell framework runtime.
    pub fn framework(&mut self) -> &mut CellMrRuntime {
        &mut self.framework
    }
}

impl NodeEnv for CellNodeEnv {}

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
    fn env_downcasts_and_keeps_its_machine_warm() {
        let mut env = CellEnvFactory::default().build(0);
        let cell = (&mut *env as &mut dyn std::any::Any)
            .downcast_mut::<CellNodeEnv>()
            .expect("downcast");
        assert!(!cell.machine().is_warm());
        cell.machine().warm_up();
        assert!(cell.machine().is_warm());
    }
}
