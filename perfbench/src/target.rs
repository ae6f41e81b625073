//! The system under test, brought up in-process through the public
//! `Server` / `SessionStore` / cluster APIs: one durable node, or a
//! cluster front over two owners with synchronously acked followers.

use crate::inputs::Workload;
use locble_cluster::{Front, FrontConfig, FrontHandle};
use locble_core::{Estimator, EstimatorConfig};
use locble_engine::{Engine, EngineConfig};
use locble_motion::MotionTrack;
use locble_net::wire::{NodeEntry, NodeRole, WirePartitionMap};
use locble_net::{ClusterConfig, ReplicationPolicy, Server, ServerConfig, ServerHandle};
use locble_obs::Obs;
use locble_store::{FsyncPolicy, SessionStore};
use std::net::SocketAddr;
use std::path::Path;

/// Snapshot cadence in WAL records.
pub const CHECKPOINT_EVERY: u64 = 65_536;

/// Owners behind the cluster front.
pub const OWNERS: u64 = 2;

/// The engine every node runs: the deployed default configuration and
/// estimator, plus the observer's motion track. No wire frame carries a
/// track, so a node built without one never produces an estimate.
pub fn engine(motion: &MotionTrack) -> Engine {
    let mut engine = Engine::new(
        EngineConfig::default(),
        Estimator::new(EstimatorConfig::default()),
        Obs::noop(),
    );
    engine.set_motion(motion.clone());
    engine
}

/// Opens a fresh durable store in `dir`.
pub fn store(dir: &Path) -> std::io::Result<SessionStore> {
    SessionStore::open(dir, FsyncPolicy::Never, Obs::noop())
}

/// A running system under test.
pub enum Target {
    /// One durable node.
    Node(ServerHandle),
    /// The front, its owners and their followers.
    Cluster {
        /// Where clients connect.
        front: FrontHandle,
        /// Owner nodes, by node id order.
        owners: Vec<ServerHandle>,
        /// Each owner's follower, same order.
        followers: Vec<ServerHandle>,
    },
}

/// Engines returned by a shutdown, fully drained.
pub struct Drained {
    /// The engines that served clients.
    pub owners: Vec<Engine>,
    /// Follower engines (cluster only).
    pub followers: Vec<Engine>,
}

impl Target {
    /// Brings up the workload's system under `dir` (which must be empty).
    pub fn start(workload: Workload, motion: &MotionTrack, dir: &Path) -> std::io::Result<Target> {
        match workload {
            Workload::Fleet | Workload::Trickle => Ok(Target::Node(Server::bind_durable(
                engine(motion),
                store(&dir.join("node"))?,
                CHECKPOINT_EVERY,
                ServerConfig::default(),
                Obs::noop(),
            )?)),
            Workload::Cluster => start_cluster(motion, dir),
        }
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        match self {
            Target::Node(node) => node.addr(),
            Target::Cluster { front, .. } => front.addr(),
        }
    }

    /// Stops everything (front first), drains every engine and returns
    /// them.
    pub fn shutdown(self) -> Drained {
        match self {
            Target::Node(node) => Drained {
                owners: vec![node.shutdown()],
                followers: Vec::new(),
            },
            Target::Cluster {
                front,
                owners,
                followers,
            } => {
                front.shutdown();
                let owners = owners.into_iter().map(ServerHandle::shutdown).collect();
                let followers = followers.into_iter().map(ServerHandle::shutdown).collect();
                Drained { owners, followers }
            }
        }
    }
}

/// One clustered node: owner or follower of partition `node_id`.
pub fn cluster_node(
    motion: &MotionTrack,
    dir: &Path,
    node_id: u64,
    role: NodeRole,
    replica_addr: Option<String>,
) -> std::io::Result<ServerHandle> {
    Server::bind_cluster(
        engine(motion),
        store(dir)?,
        CHECKPOINT_EVERY,
        ServerConfig::default(),
        ClusterConfig {
            node_id,
            role,
            map: WirePartitionMap {
                epoch: 0,
                nodes: Vec::new(),
            },
            replica_addr,
            replication: ReplicationPolicy::SyncAck,
        },
        Obs::noop(),
    )
}

fn start_cluster(motion: &MotionTrack, dir: &Path) -> std::io::Result<Target> {
    let mut owners = Vec::new();
    let mut followers = Vec::new();
    let mut nodes = Vec::new();
    for node_id in 1..=OWNERS {
        let follower = cluster_node(
            motion,
            &dir.join(format!("follower{node_id}")),
            node_id,
            NodeRole::Follower,
            None,
        )?;
        let owner = cluster_node(
            motion,
            &dir.join(format!("owner{node_id}")),
            node_id,
            NodeRole::Owner,
            Some(follower.addr().to_string()),
        )?;
        nodes.push(NodeEntry {
            node_id,
            addr: owner.addr().to_string(),
        });
        owners.push(owner);
        followers.push(follower);
    }
    let front = Front::bind(
        FrontConfig {
            addr: "127.0.0.1:0".to_string(),
            map: WirePartitionMap { epoch: 1, nodes },
        },
        Obs::noop(),
    )?;
    Ok(Target::Cluster {
        front,
        owners,
        followers,
    })
}
