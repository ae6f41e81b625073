//! Owner/follower node bring-up and the process-boundary plumbing the
//! multi-process tests and tools share.
//!
//! A node is an ordinary `locble-net` reactor server with a cluster
//! attachment: [`serve_node`] recovers (or freshly creates) a durable
//! store in the node's directory, then binds with
//! [`Server::bind_cluster`]. Recovery is unconditional — a fresh
//! directory recovers to an empty engine, a crashed one replays its
//! WAL — so the same entry point serves first boot, restart, and the
//! promoted follower that inherits its dead owner's partition.
//!
//! The env plumbing ([`spec_to_env`] / [`spec_from_env`] /
//! [`serve_node_from_env`]) exists because the crashtests spawn nodes
//! as real OS processes (SIGKILL must kill a kernel task, not a
//! thread). The child re-executes the current
//! binary, reads its spec from `LOCBLE_NODE_*`, binds, prints
//! `listen <addr>` on stdout, and parks.

use locble_core::{Estimator, EstimatorConfig};
use locble_engine::EngineConfig;
use locble_net::wire::{NodeEntry, NodeRole, WirePartitionMap};
use locble_net::{ClusterConfig, ReplicationPolicy, Server, ServerConfig, ServerHandle};
use locble_obs::Obs;
use locble_store::{FsyncPolicy, SessionStore};
use std::io::Write;
use std::path::PathBuf;

/// Everything needed to bring one cluster node up.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Stable partition identity — feeds the rendezvous hash. A
    /// follower uses its owner's id: same id, same partition.
    pub node_id: u64,
    /// Owner serves its partition; follower absorbs the owner's
    /// `Replicate` stream and refuses everything else.
    pub role: NodeRole,
    /// Initial membership view.
    pub map: WirePartitionMap,
    /// Where an owner streams its WAL (a follower's listen address);
    /// `None` disables replication.
    pub replica_addr: Option<String>,
    /// When the owner may ack a client batch relative to its
    /// follower's durability.
    pub replication: ReplicationPolicy,
    /// Durability directory (created on demand, replayed if populated).
    pub dir: PathBuf,
    /// Listen address; port 0 picks a free one.
    pub addr: String,
    /// Snapshot cadence in WAL records (0 disables checkpointing).
    pub checkpoint_every: u64,
}

impl NodeSpec {
    /// A spec with everything defaulted except identity and directory:
    /// owner role, empty epoch-0 map, no replica,
    /// [`ReplicationPolicy::LocalOnly`], free port, checkpoints off.
    pub fn new(node_id: u64, dir: impl Into<PathBuf>) -> NodeSpec {
        NodeSpec {
            node_id,
            role: NodeRole::Owner,
            map: WirePartitionMap::default(),
            replica_addr: None,
            replication: ReplicationPolicy::LocalOnly,
            dir: dir.into(),
            addr: "127.0.0.1:0".to_string(),
            checkpoint_every: 0,
        }
    }
}

/// Recovers the node's store and binds the clustered server. The
/// engine is always built by recovery (fresh directory ⇒ empty WAL ⇒
/// empty engine), so a restart after SIGKILL and a first boot are the
/// same code path.
pub fn serve_node(spec: &NodeSpec, obs: Obs) -> std::io::Result<ServerHandle> {
    let (store, engine, _report) = SessionStore::recover(
        &spec.dir,
        FsyncPolicy::Never,
        EngineConfig::default(),
        Estimator::new(EstimatorConfig::default()),
        obs.clone(),
    )
    .map_err(|e| std::io::Error::other(format!("node recovery failed: {e}")))?;
    Server::bind_cluster(
        engine,
        store,
        spec.checkpoint_every,
        ServerConfig {
            addr: spec.addr.clone(),
            ..ServerConfig::default()
        },
        ClusterConfig {
            node_id: spec.node_id,
            role: spec.role,
            map: spec.map.clone(),
            replica_addr: spec.replica_addr.clone(),
            replication: spec.replication,
        },
        obs,
    )
}

/// Renders a membership view as `epoch|id=addr,id=addr` — the env/CLI
/// form the crashtests pass to child nodes.
pub fn format_map(map: &WirePartitionMap) -> String {
    let nodes: Vec<String> = map
        .nodes
        .iter()
        .map(|n| format!("{}={}", n.node_id, n.addr))
        .collect();
    format!("{}|{}", map.epoch, nodes.join(","))
}

/// Parses [`format_map`]'s rendering back into a map.
pub fn parse_map(s: &str) -> Result<WirePartitionMap, String> {
    let (epoch, rest) = s
        .split_once('|')
        .ok_or_else(|| format!("partition map {s:?}: missing 'epoch|' prefix"))?;
    let epoch: u64 = epoch
        .parse()
        .map_err(|_| format!("partition map {s:?}: bad epoch {epoch:?}"))?;
    let mut nodes = Vec::new();
    for part in rest.split(',').filter(|p| !p.is_empty()) {
        let (id, addr) = part
            .split_once('=')
            .ok_or_else(|| format!("partition map {s:?}: entry {part:?} is not id=addr"))?;
        let node_id: u64 = id
            .parse()
            .map_err(|_| format!("partition map {s:?}: bad node id {id:?}"))?;
        nodes.push(NodeEntry {
            node_id,
            addr: addr.to_string(),
        });
    }
    Ok(WirePartitionMap { epoch, nodes })
}

const ENV_NODE_ID: &str = "LOCBLE_NODE_ID";
const ENV_ROLE: &str = "LOCBLE_NODE_ROLE";
const ENV_MAP: &str = "LOCBLE_NODE_MAP";
const ENV_REPLICA: &str = "LOCBLE_NODE_REPLICA";
const ENV_REPLICATION: &str = "LOCBLE_NODE_REPLICATION";
const ENV_DIR: &str = "LOCBLE_NODE_DIR";
const ENV_ADDR: &str = "LOCBLE_NODE_ADDR";
const ENV_CHECKPOINT: &str = "LOCBLE_NODE_CHECKPOINT_EVERY";

/// The `(key, value)` environment a child process needs to rebuild
/// `spec` via [`spec_from_env`]. Pass to `Command::envs`.
pub fn spec_to_env(spec: &NodeSpec) -> Vec<(String, String)> {
    let mut env = vec![
        (ENV_NODE_ID.to_string(), spec.node_id.to_string()),
        (
            ENV_ROLE.to_string(),
            match spec.role {
                NodeRole::Front => "front",
                NodeRole::Owner => "owner",
                NodeRole::Follower => "follower",
            }
            .to_string(),
        ),
        (ENV_MAP.to_string(), format_map(&spec.map)),
        (
            ENV_REPLICATION.to_string(),
            match spec.replication {
                ReplicationPolicy::LocalOnly => "local_only",
                ReplicationPolicy::SyncAck => "sync_ack",
            }
            .to_string(),
        ),
        (ENV_DIR.to_string(), spec.dir.display().to_string()),
        (ENV_ADDR.to_string(), spec.addr.clone()),
        (
            ENV_CHECKPOINT.to_string(),
            spec.checkpoint_every.to_string(),
        ),
    ];
    if let Some(replica) = &spec.replica_addr {
        env.push((ENV_REPLICA.to_string(), replica.clone()));
    }
    env
}

/// Rebuilds a [`NodeSpec`] from the `LOCBLE_NODE_*` environment.
pub fn spec_from_env() -> Result<NodeSpec, String> {
    let var = |key: &str| std::env::var(key).map_err(|_| format!("{key} not set"));
    let node_id: u64 = var(ENV_NODE_ID)?
        .parse()
        .map_err(|_| format!("{ENV_NODE_ID}: not a u64"))?;
    let role = match var(ENV_ROLE)?.as_str() {
        "front" => NodeRole::Front,
        "owner" => NodeRole::Owner,
        "follower" => NodeRole::Follower,
        other => return Err(format!("{ENV_ROLE}: unknown role {other:?}")),
    };
    let map = parse_map(&var(ENV_MAP)?)?;
    let replication = match var(ENV_REPLICATION)?.as_str() {
        "local_only" => ReplicationPolicy::LocalOnly,
        "sync_ack" => ReplicationPolicy::SyncAck,
        other => return Err(format!("{ENV_REPLICATION}: unknown policy {other:?}")),
    };
    let dir = PathBuf::from(var(ENV_DIR)?);
    let addr = var(ENV_ADDR)?;
    let checkpoint_every: u64 = var(ENV_CHECKPOINT)?
        .parse()
        .map_err(|_| format!("{ENV_CHECKPOINT}: not a u64"))?;
    let replica_addr = std::env::var(ENV_REPLICA).ok();
    Ok(NodeSpec {
        node_id,
        role,
        map,
        replica_addr,
        replication,
        dir,
        addr,
        checkpoint_every,
    })
}

/// Child-process entry point: reads the spec from the environment,
/// binds, announces `listen <addr>` on stdout (flushed, so the parent's
/// line-read never stalls), then parks forever — the parent owns the
/// process's lifetime (SIGKILL in the crashtests).
pub fn serve_node_from_env() -> Result<(), String> {
    let spec = spec_from_env()?;
    let handle = serve_node(&spec, Obs::ring(256)).map_err(|e| format!("node bind failed: {e}"))?;
    println!("listen {}", handle.addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips_through_the_env_rendering() {
        let map = WirePartitionMap {
            epoch: 7,
            nodes: vec![
                NodeEntry {
                    node_id: 1,
                    addr: "127.0.0.1:9001".to_string(),
                },
                NodeEntry {
                    node_id: 42,
                    addr: "10.0.0.9:80".to_string(),
                },
            ],
        };
        assert_eq!(parse_map(&format_map(&map)).expect("round trip"), map);
        let empty = WirePartitionMap {
            epoch: 0,
            nodes: Vec::new(),
        };
        assert_eq!(parse_map(&format_map(&empty)).expect("round trip"), empty);
        assert!(parse_map("no-pipe").is_err());
        assert!(parse_map("3|oops").is_err());
        assert!(parse_map("x|1=a").is_err());
    }

    #[test]
    fn spec_env_round_trips() {
        let mut spec = NodeSpec::new(9, "/tmp/locble-node-9");
        spec.role = NodeRole::Follower;
        spec.replica_addr = Some("127.0.0.1:4444".to_string());
        spec.replication = ReplicationPolicy::SyncAck;
        spec.map = WirePartitionMap {
            epoch: 3,
            nodes: vec![NodeEntry {
                node_id: 9,
                addr: "127.0.0.1:4443".to_string(),
            }],
        };
        for (k, v) in spec_to_env(&spec) {
            std::env::set_var(k, v);
        }
        let rebuilt = spec_from_env().expect("env complete");
        assert_eq!(rebuilt.node_id, spec.node_id);
        assert_eq!(rebuilt.role, spec.role);
        assert_eq!(rebuilt.map, spec.map);
        assert_eq!(rebuilt.replica_addr, spec.replica_addr);
        assert_eq!(rebuilt.replication, spec.replication);
        assert_eq!(rebuilt.dir, spec.dir);
        assert_eq!(rebuilt.addr, spec.addr);
        assert_eq!(rebuilt.checkpoint_every, spec.checkpoint_every);
        for (k, _) in spec_to_env(&spec) {
            std::env::remove_var(k);
        }
    }
}
