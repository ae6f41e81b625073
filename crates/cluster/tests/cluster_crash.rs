//! The headline cluster failover proof, with a real SIGKILL: three
//! owner processes each stream their WAL to a follower process
//! (synchronous acks); the parent streams a fleet trace through an
//! in-process front, kills one owner mid-stream — the kernel stops the
//! world, no drain, no checkpoint — promotes its follower by
//! installing a new partition map, resumes that partition from exactly
//! the follower's durable record count, and requires the cluster's
//! final estimates to be **bit-identical** to an uninterrupted
//! single-engine run. Zero acked adverts lost, zero double-ingested.
//!
//! Node processes are this test binary re-executed onto the env-gated
//! `child_node` helper (the `reactor_crash.rs` pattern): SIGKILL must
//! kill a kernel task holding real sockets and a real WAL file, not a
//! thread.

use locble_ble::BeaconId;
use locble_cluster::{
    serve_node_from_env, spec_to_env, ClusterRouter, Front, FrontConfig, NodeSpec,
};
use locble_core::{Estimator, EstimatorConfig, LocationEstimate};
use locble_engine::{Advert, Engine, EngineConfig};
use locble_net::wire::{NodeEntry, NodeRole, WirePartitionMap};
use locble_net::{Client, ReplicationPolicy};
use locble_obs::Obs;
use locble_scenario::fleet_session;
use locble_scenario::runner::track_observer;
use locble_store::{FsyncPolicy, SessionStore};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const FLEET_BEACONS: usize = 10;
const FLEET_SEED: u64 = 59;
const CHUNK: usize = 37;
const NODE_IDS: [u64; 3] = [1, 2, 3];

fn fleet_adverts() -> Vec<Advert> {
    fleet_session(FLEET_BEACONS, FLEET_SEED)
        .interleaved_rss()
        .into_iter()
        .map(Advert::from)
        .collect()
}

fn assert_bit_identical(
    label: &str,
    got: &[(BeaconId, LocationEstimate)],
    want: &[(BeaconId, LocationEstimate)],
) {
    assert_eq!(
        got.iter().map(|(b, _)| *b).collect::<Vec<_>>(),
        want.iter().map(|(b, _)| *b).collect::<Vec<_>>(),
        "{label}: beacon sets differ"
    );
    for ((b, g), (_, w)) in got.iter().zip(want) {
        let pairs = [
            ("position.x", g.position.x, w.position.x),
            ("position.y", g.position.y, w.position.y),
            ("confidence", g.confidence, w.confidence),
            ("exponent", g.exponent, w.exponent),
            ("gamma_dbm", g.gamma_dbm, w.gamma_dbm),
            ("residual_db", g.residual_db, w.residual_db),
        ];
        for (field, gv, wv) in pairs {
            assert_eq!(
                gv.to_bits(),
                wv.to_bits(),
                "{label}: beacon {b} {field}: {gv} != {wv}"
            );
        }
        assert_eq!(g.points_used, w.points_used, "{label}: beacon {b} points");
        assert_eq!(g.env, w.env, "{label}: beacon {b} env");
        assert_eq!(g.method, w.method, "{label}: beacon {b} method");
    }
}

/// Nodes recover their engine (motion track included) from their store
/// directory; seeding a checkpoint of an empty motion-carrying engine
/// is how the observer track crosses the process boundary.
fn seed_motion(dir: &Path) {
    let mut engine = Engine::new(
        EngineConfig::default(),
        Estimator::new(EstimatorConfig::default()),
        Obs::noop(),
    );
    engine.set_motion(track_observer(&fleet_session(FLEET_BEACONS, FLEET_SEED)));
    let mut store = SessionStore::open(dir, FsyncPolicy::Never, Obs::noop()).expect("seed store");
    store.checkpoint(&engine).expect("seed motion checkpoint");
}

fn node_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("locble-cluster-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("node dir");
    seed_motion(&dir);
    dir
}

/// A child node process that is SIGKILLed (or kill-on-dropped) by the
/// parent — never waited into a zombie.
struct NodeProc {
    child: Child,
    addr: String,
}

impl NodeProc {
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for NodeProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Env-gated child body: rebuild the node spec from `LOCBLE_NODE_*`,
/// bind, announce `listen <addr>`, park until killed. A no-op
/// (passing) test when the env is absent.
#[test]
fn child_node() {
    if std::env::var("LOCBLE_NODE_ID").is_err() {
        return;
    }
    serve_node_from_env().expect("child node serves");
}

fn spawn_node(spec: &NodeSpec) -> NodeProc {
    let exe = std::env::current_exe().expect("test binary path");
    // Owned by a `NodeProc` from the start, so every panic below kills
    // and reaps the child on drop.
    let mut node = NodeProc {
        child: Command::new(exe)
            .args(["--exact", "child_node", "--nocapture"])
            .envs(spec_to_env(spec))
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn node process"),
        addr: String::new(),
    };
    let reader = BufReader::new(node.child.stdout.take().expect("child stdout"));
    for line in reader.lines() {
        let line = line.expect("child stdout line");
        // The harness prints `test child_node ... ` without a newline,
        // so the announce may share its line — match the marker
        // anywhere.
        if let Some(pos) = line.find("listen ") {
            node.addr = line[pos + "listen ".len()..].trim().to_string();
            return node;
        }
    }
    panic!("child exited before announcing its listen address");
}

#[test]
fn killed_owner_fails_over_to_its_follower_with_zero_acked_loss() {
    let adverts = fleet_adverts();

    // Reference: one engine, the whole stream, no network, no crash.
    let mut reference = Engine::new(
        EngineConfig::default(),
        Estimator::new(EstimatorConfig::default()),
        Obs::noop(),
    );
    reference.set_motion(track_observer(&fleet_session(FLEET_BEACONS, FLEET_SEED)));
    reference.ingest_all(&adverts);
    reference.finish();
    let want = reference.snapshot();
    assert!(want.len() >= 6, "reference localized too few beacons");

    // The client partitions its stream with the same pure router the
    // cluster uses, into one single-partition chunk stream per node —
    // so "acked adverts of partition i" is exact at the client.
    let routing_map = WirePartitionMap {
        epoch: 1,
        nodes: NODE_IDS
            .iter()
            .map(|&node_id| NodeEntry {
                node_id,
                addr: String::new(),
            })
            .collect(),
    };
    let router = ClusterRouter::new(&routing_map);
    let partitions = router
        .partition(adverts.clone(), |a| a.beacon)
        .expect("non-empty membership");
    assert!(partitions.iter().all(|p| !p.is_empty()));

    // Kill the owner of the *largest* partition, so the SIGKILL lands
    // with plenty of that partition's stream still unsent — a genuine
    // mid-stream failover, not an end-of-stream one.
    let victim = (0..partitions.len())
        .max_by_key(|&i| partitions[i].len())
        .expect("three partitions");
    assert!(
        partitions[victim].len() >= 5 * CHUNK,
        "victim partition too small ({}) to kill mid-stream",
        partitions[victim].len()
    );

    // Bring up each partition pair: follower first (the owner's bind
    // attaches its replica link), then the owner with synchronous
    // replication — an ack promises the record is on the follower.
    let mut dirs = Vec::new();
    let mut followers = Vec::new();
    let mut owners = Vec::new();
    for &node_id in &NODE_IDS {
        let follower_dir = node_dir(&format!("follower-{node_id}"));
        let mut follower_spec = NodeSpec::new(node_id, &follower_dir);
        follower_spec.role = NodeRole::Follower;
        let follower = spawn_node(&follower_spec);

        let owner_dir = node_dir(&format!("owner-{node_id}"));
        let mut owner_spec = NodeSpec::new(node_id, &owner_dir);
        owner_spec.replica_addr = Some(follower.addr.clone());
        owner_spec.replication = ReplicationPolicy::SyncAck;
        let owner = spawn_node(&owner_spec);

        dirs.push(follower_dir);
        dirs.push(owner_dir);
        followers.push(follower);
        owners.push(owner);
    }

    let map = WirePartitionMap {
        epoch: 1,
        nodes: NODE_IDS
            .iter()
            .zip(&owners)
            .map(|(&node_id, owner)| NodeEntry {
                node_id,
                addr: owner.addr.clone(),
            })
            .collect(),
    };
    let front = Front::bind(
        FrontConfig {
            addr: "127.0.0.1:0".to_string(),
            map,
        },
        Obs::ring(64),
    )
    .expect("bind front");
    let mut client = Client::connect(front.addr()).expect("connect front");

    // Stream round-robin across partitions until the victim partition
    // has at least 2/5 of its adverts acked, then SIGKILL its owner.
    let kill_after = (partitions[victim].len() * 2) / 5;
    let mut sent = [0usize; 3];
    let mut acked = [0u64; 3];
    'streaming: loop {
        let mut progressed = false;
        for p in 0..NODE_IDS.len() {
            if sent[p] >= partitions[p].len() {
                continue;
            }
            let end = (sent[p] + CHUNK).min(partitions[p].len());
            let ack = client
                .ingest(&partitions[p][sent[p]..end])
                .expect("pre-kill ingest");
            // `consumed` covers the whole chunk (routed + rejected).
            acked[p] += ack.consumed;
            sent[p] = end;
            progressed = true;
            if acked[victim] as usize >= kill_after {
                break 'streaming;
            }
        }
        assert!(progressed, "stream exhausted before the kill threshold");
    }
    owners[victim].kill();

    assert!(
        sent[victim] < partitions[victim].len(),
        "the whole victim partition was sent before the kill"
    );

    // Surviving partitions keep streaming through the same front while
    // the victim partition is down.
    for p in (0..NODE_IDS.len()).filter(|&p| p != victim) {
        while sent[p] < partitions[p].len() {
            let end = (sent[p] + CHUNK).min(partitions[p].len());
            let ack = client
                .ingest(&partitions[p][sent[p]..end])
                .expect("survivor ingest");
            acked[p] += ack.consumed;
            sent[p] = end;
        }
    }
    // The dead owner's partition refuses with a typed error — nothing
    // is silently dropped, nothing hangs.
    let end = (sent[victim] + CHUNK).min(partitions[victim].len());
    let dead = client.ingest(&partitions[victim][sent[victim]..end]);
    assert!(
        dead.is_err(),
        "a batch for a dead owner must fail loudly, got {dead:?} for {} adverts",
        end - sent[victim]
    );

    // Failover: install a map that points the victim's node id at its
    // follower. The front re-broadcasts it; the follower sees its own
    // address under its id and promotes (warm — it already holds every
    // replicated record).
    let failover = WirePartitionMap {
        epoch: 2,
        nodes: NODE_IDS
            .iter()
            .enumerate()
            .map(|(idx, &node_id)| NodeEntry {
                node_id,
                addr: if idx == victim {
                    followers[victim].addr.clone()
                } else {
                    owners[idx].addr.clone()
                },
            })
            .collect(),
    };
    let installed = client.install_map(failover).expect("install failover map");
    assert_eq!(installed.epoch, 2);

    // Resume the victim partition from exactly the promoted follower's
    // durable record count D: its WAL is a byte-prefix of the dead
    // owner's, so records 0..D are exactly the first D adverts of the
    // partition stream. Synchronous replication guarantees D covers
    // every advert the client saw acked.
    let mut promoted = Client::connect(followers[victim].addr.as_str()).expect("connect promoted");
    let report = promoted.cluster().expect("promoted cluster report");
    assert_eq!(report.role, NodeRole::Owner, "follower must have promoted");
    let stats = promoted.stats().expect("promoted stats");
    let durable = (stats.samples_routed + stats.samples_rejected) as usize;
    assert!(
        durable as u64 >= acked[victim],
        "acked {} adverts on partition {victim} but only {durable} follower-durable",
        acked[victim]
    );
    assert!(durable <= partitions[victim].len());
    drop(promoted);
    for chunk in partitions[victim][durable..].chunks(CHUNK) {
        let ack = client.ingest(chunk).expect("post-failover ingest");
        assert_eq!(ack.consumed, chunk.len() as u64);
    }

    // The cluster's merged snapshot equals the uninterrupted single
    // engine, bit for bit: the crash, the promotion, and the resume
    // were invisible to the math.
    client.finish().expect("fronted finish");
    let got = client.snapshot().expect("fronted snapshot");
    assert_bit_identical("failed-over cluster", &got, &want);

    let stats = client.stats().expect("fronted stats");
    let want_stats = reference.stats();
    assert_eq!(stats.samples_routed, want_stats.samples_routed);
    assert_eq!(stats.samples_rejected, want_stats.samples_rejected);
    assert_eq!(stats.samples_processed, want_stats.samples_processed);
    assert_eq!(stats.sessions_created, want_stats.sessions_created);

    drop(client);
    front.shutdown();
    for mut node in owners.into_iter().chain(followers) {
        node.kill();
    }
    for dir in dirs {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
