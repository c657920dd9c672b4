//! Cluster assembly: the deployed-runtime handles that
//! [`ClusterBuilder::deploy`](crate::ClusterBuilder::deploy) returns. Jobs
//! are driven through [`Session`](crate::Session).

use accelmr_des::prelude::*;
use accelmr_dfs::DfsHandle;
use accelmr_net::{NetHandle, NodeId, NodeRegistry};

use crate::config::MrConfig;
use crate::job::JobSpec;
use crate::jobtracker::{JobTracker, RegisterTaskTracker};
use crate::kernel::NodeEnvFactory;
use crate::msgs::SubmitJob;
use crate::session::ElasticCtx;
use crate::tasktracker::TaskTracker;

/// Handle to a deployed MapReduce runtime.
#[derive(Clone)]
pub struct MrHandle {
    /// The JobTracker actor.
    pub jobtracker: ActorId,
    /// Node the JobTracker runs on.
    pub head_node: NodeId,
    /// Live `node → TaskTracker actor` registry. Shared (not a snapshot):
    /// joins and departures are visible to every handle clone immediately.
    pub tasktrackers: NodeRegistry,
    /// The network fabric.
    pub net: NetHandle,
}

impl MrHandle {
    /// TaskTracker actor on `node`, if any.
    pub fn tasktracker_on(&self, node: NodeId) -> Option<ActorId> {
        self.tasktrackers.get(node)
    }

    /// Submits a job; the calling actor receives
    /// [`JobComplete`](crate::msgs::JobComplete).
    pub fn submit(&self, ctx: &mut Ctx<'_>, my_node: NodeId, spec: JobSpec) {
        let submit = SubmitJob {
            spec,
            reply: ctx.self_id(),
            reply_node: my_node,
        };
        self.net
            .unicast(ctx, my_node, self.head_node, self.jobtracker, 4096, submit);
    }
}

/// Spawns the JobTracker (head node) and one TaskTracker per worker, wired
/// to an existing DFS deployment. `env_factory` builds each node's
/// accelerator environment (the hybrid crate supplies Cell machines here).
pub fn deploy_mr(
    sim: &mut Sim,
    net: NetHandle,
    dfs: &DfsHandle,
    cfg: &MrConfig,
    head_node: NodeId,
    workers: &[NodeId],
    env_factory: &dyn NodeEnvFactory,
) -> MrHandle {
    // Guard the low-level assembly path too, not just ClusterBuilder:
    // these configs hang jobs or mis-detect dead trackers.
    if let Err(e) = cfg.validate() {
        panic!("invalid MrConfig: {e}");
    }
    let jobtracker = sim.spawn(Box::new(JobTracker::new(
        cfg.clone(),
        net,
        dfs.clone(),
        head_node,
    )));
    let mut tts = Vec::with_capacity(workers.len());
    for (i, &w) in workers.iter().enumerate() {
        let tt = TaskTracker::new(
            cfg.clone(),
            net,
            dfs.clone(),
            w,
            head_node,
            jobtracker,
            env_factory.build(i),
        );
        let id = sim.spawn(Box::new(tt));
        tts.push((w, id));
        sim.post(
            jobtracker,
            Box::new(RegisterTaskTracker { node: w, actor: id }),
        );
    }
    MrHandle {
        jobtracker,
        head_node,
        tasktrackers: NodeRegistry::new(tts),
        net,
    }
}

/// A file to preload before running a job.
#[derive(Clone, Debug)]
pub struct PreloadSpec {
    /// DFS path.
    pub path: String,
    /// Length in bytes.
    pub len: u64,
    /// Block size override.
    pub block_size: Option<u64>,
    /// Replication override.
    pub replication: Option<usize>,
    /// Content seed.
    pub seed: u64,
}

/// Everything a deployed simulation needs in one bundle.
pub struct MrCluster {
    /// The simulation world.
    pub sim: Sim,
    /// Network handle.
    pub net: NetHandle,
    /// DFS handle.
    pub dfs: DfsHandle,
    /// MapReduce handle.
    pub mr: MrHandle,
    /// Worker node ids present at deploy (joins are not appended here;
    /// consult `mr.tasktrackers` / `dfs.datanodes` for the live set).
    pub workers: Vec<NodeId>,
    /// Elasticity context retained for mid-session joins: the configs and
    /// environment factory new nodes are built from.
    pub(crate) elastic: ElasticCtx,
}
