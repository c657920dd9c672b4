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

/// Node-resident Cell BE state: the Cell machine every accelerated kernel
/// runs on, plus a MapReduce-for-Cell framework instance for jobs routed
/// through the second native library. Both model the one Cell of
/// [`accelmr_cellbe::config`].
pub struct CellNodeEnv {
    machine: CellMachine,
    framework: CellMrRuntime,
}

impl CellNodeEnv {
    /// Builds the environment; `materialized` machines compute on real
    /// bytes.
    pub fn new(materialized: bool) -> Self {
        let Ok(machine) = CellMachine::new(CellConfig::default(), materialized);
        let Ok(framework) =
            CellMrRuntime::new(CellConfig::default(), CellMrConfig::default(), materialized);
        CellNodeEnv { machine, framework }
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

    fn materialized(&self) -> bool {
        self.materialized
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::CellAesKernel;
    use accelmr_mapred::{ClusterBuilder, JobBuilder, PreloadSpec};

    #[test]
    fn env_downcasts_and_keeps_its_machine_warm() {
        let mut env = CellEnvFactory::default().build(0);
        let cell = (&mut *env as &mut dyn std::any::Any)
            .downcast_mut::<CellNodeEnv>()
            .expect("downcast");
        let context = accelmr_cellbe::config::CONTEXT_CREATE;
        assert_eq!(cell.machine().warm_up(), context);
        assert_eq!(cell.machine().warm_up(), accelmr_des::SimDuration::ZERO);
    }

    /// A materialized cluster hands real bytes to a timing-only Cell
    /// machine, which has no ciphertext to give back: deploy refuses it
    /// instead of letting the job die mid-run.
    #[test]
    #[should_panic(expected = "materialized(true) needs a materialized env factory")]
    fn materialized_cluster_rejects_timing_only_cell_envs() {
        let mut c = ClusterBuilder::new()
            .workers(4)
            .materialized(true)
            .env(CellEnvFactory::default())
            .deploy();
        let mut session = c.session();
        session.submit(
            JobBuilder::new("enc")
                .input_file("/in")
                .kernel(CellAesKernel::new())
                .preload(PreloadSpec::new("/in", 8 << 20, 7)),
        );
        session.run();
    }
}
