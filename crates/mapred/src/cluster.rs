//! Cluster assembly: the deployed-runtime handles that
//! [`ClusterBuilder::deploy`](crate::ClusterBuilder::deploy) returns. Jobs
//! are driven through [`Session`](crate::Session).

use std::sync::Arc;

use accelmr_des::prelude::*;
use accelmr_dfs::DfsHandle;
use accelmr_net::{NetHandle, NodeId, NodeRegistry};

use crate::config::MrConfig;
use crate::job::JobSpec;
use crate::jobtracker::{JobTracker, RegisterTaskTracker};
use crate::kernel::NodeEnvFactory;
use crate::msgs::{CrashTaskTracker, SubmitJob};
use crate::tasktracker::TaskTracker;

/// Handle to a deployed MapReduce runtime.
#[derive(Clone)]
pub struct MrHandle {
    /// The JobTracker actor.
    pub jobtracker: ActorId,
    /// Live `node → TaskTracker actor` registry. Shared (not a snapshot):
    /// joins and departures are visible to every handle clone immediately.
    pub tasktrackers: NodeRegistry,
    /// The network fabric.
    pub net: NetHandle,
    /// What the cluster was deployed with; TaskTrackers added later are
    /// built from it.
    cfg: MrConfig,
    env: Arc<dyn NodeEnvFactory>,
}

impl MrHandle {
    /// TaskTracker actor on `node`, if any.
    pub fn tasktracker_on(&self, node: NodeId) -> Option<ActorId> {
        self.tasktrackers.get(node)
    }

    /// Submits a job; the calling actor receives
    /// [`JobComplete`](crate::msgs::JobComplete).
    pub fn submit(&self, ctx: &mut Ctx<'_>, spec: JobSpec) {
        let submit = SubmitJob {
            spec,
            reply: ctx.self_id(),
        };
        self.net.unicast(ctx, self.jobtracker, 4096, submit);
    }

    /// Joins a TaskTracker on `node` mid-run, reading through `dfs`, and
    /// returns its actor. Within the instant, in order: it spawns with an
    /// environment from the deployment's factory, the registry routes to
    /// it, and [`RegisterTaskTracker`] admits it at the JobTracker.
    pub fn add_tasktracker(&self, ctx: &mut Ctx<'_>, node: NodeId, dfs: &DfsHandle) -> ActorId {
        let (net, jt) = (self.net, self.jobtracker);
        let tt = tasktracker(&self.cfg, self.env.as_ref(), net, dfs, jt, node);
        let actor = ctx.spawn(Box::new(tt));
        self.tasktrackers.insert(node, actor);
        ctx.send(self.jobtracker, RegisterTaskTracker { node, actor });
        actor
    }

    /// Crashes the TaskTracker on `node`: the registry stops routing to
    /// it and it receives [`CrashTaskTracker`]. The JobTracker learns of
    /// the loss by heartbeat silence. Returns whether `node` had a
    /// TaskTracker to crash.
    pub fn remove_tasktracker(&self, ctx: &mut Ctx<'_>, node: NodeId) -> bool {
        let tt = self.tasktrackers.remove(node);
        if let Some(tt) = tt {
            ctx.send(tt, CrashTaskTracker);
        }
        tt.is_some()
    }
}

/// Spawns the JobTracker and one TaskTracker per worker, wired
/// to an existing DFS deployment. `env` builds each node's accelerator
/// environment (the hybrid crate supplies Cell machines here).
pub(crate) fn deploy_mr(
    sim: &mut Sim,
    net: NetHandle,
    dfs: &DfsHandle,
    cfg: MrConfig,
    workers: &[NodeId],
    env: Arc<dyn NodeEnvFactory>,
) -> MrHandle {
    let jobtracker = sim.spawn(Box::new(JobTracker::new(cfg.clone(), net, dfs.clone())));
    let mut tts = Vec::with_capacity(workers.len());
    for &node in workers {
        let tt = tasktracker(&cfg, env.as_ref(), net, dfs, jobtracker, node);
        let actor = sim.spawn(Box::new(tt));
        tts.push((node, actor));
        sim.post(jobtracker, Box::new(RegisterTaskTracker { node, actor }));
    }
    let tasktrackers = NodeRegistry::default();
    tasktrackers.extend(&tts);
    MrHandle {
        jobtracker,
        tasktrackers,
        net,
        cfg,
        env,
    }
}

/// The TaskTracker of worker `node`, deployed or joined, reporting to the
/// JobTracker `jt`: a deployment's `cfg`, and an environment from its
/// factory `env`.
fn tasktracker(
    cfg: &MrConfig,
    env: &dyn NodeEnvFactory,
    net: NetHandle,
    dfs: &DfsHandle,
    jt: ActorId,
    node: NodeId,
) -> TaskTracker {
    // Worker indices are node ids shifted past the head node.
    let env = env.build(node.index() - 1);
    TaskTracker::new(cfg.clone(), net, dfs.clone(), node, jt, env)
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
    /// The id the next joining node gets. Kept across sessions over this
    /// cluster, so ids are never recycled.
    pub(crate) next_node: u32,
}
