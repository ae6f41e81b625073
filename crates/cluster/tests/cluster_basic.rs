//! In-process cluster differentials: a fronted 3-node cluster must be
//! observationally identical to one engine fed the same stream —
//! bit-identical estimates, summed statistics, relayed point queries —
//! and the replication machinery must move state without perturbing a
//! single bit.
//!
//! Real process-kill failover lives in `cluster_crash.rs`; this file
//! keeps everything in one process so each protocol piece (forwarding,
//! tracing, replication, promotion) is debuggable in isolation.

use locble_ble::BeaconId;
use locble_cluster::{serve_node, Front, FrontConfig, NodeSpec};
use locble_core::{Estimator, EstimatorConfig, LocationEstimate};
use locble_engine::{Advert, Engine, EngineConfig};
use locble_net::wire::{NodeEntry, NodeRole, WirePartitionMap};
use locble_net::{Client, ReplicationPolicy};
use locble_obs::{trace_id, Obs, Stage, TraceCtx};
use locble_scenario::fleet_session;
use locble_scenario::runner::track_observer;
use locble_store::{FsyncPolicy, SessionStore, WalTailer, WAL_FILE};
use std::path::{Path, PathBuf};

const FLEET_BEACONS: usize = 10;
const FLEET_SEED: u64 = 41;
const CHUNK: usize = 97;

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

/// A node recovers its engine (motion track included) from its store
/// directory, so the parentage of the observer track is a checkpoint:
/// write one covering an empty, motion-carrying engine before the node
/// boots.
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

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("locble-cluster-basic-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("node dir");
    seed_motion(&dir);
    dir
}

/// The reference every cluster arrangement must match: one engine, the
/// whole stream, no network.
fn reference_snapshot(adverts: &[Advert]) -> (Vec<(BeaconId, LocationEstimate)>, Engine) {
    let mut reference = Engine::new(
        EngineConfig::default(),
        Estimator::new(EstimatorConfig::default()),
        Obs::noop(),
    );
    reference.set_motion(track_observer(&fleet_session(FLEET_BEACONS, FLEET_SEED)));
    reference.ingest_all(adverts);
    reference.finish();
    (reference.snapshot(), reference)
}

#[test]
fn fronted_cluster_matches_single_engine_bit_for_bit() {
    let adverts = fleet_adverts();
    let (want, reference) = reference_snapshot(&adverts);
    assert!(want.len() >= 6, "reference localized too few beacons");

    let mut owners = Vec::new();
    let mut entries = Vec::new();
    for node_id in [1u64, 2, 3] {
        let dir = temp_dir(&format!("diff-{node_id}"));
        let handle = serve_node(&NodeSpec::new(node_id, &dir), Obs::noop()).expect("bind owner");
        entries.push(NodeEntry {
            node_id,
            addr: handle.addr().to_string(),
        });
        owners.push((handle, dir));
    }
    let map = WirePartitionMap {
        epoch: 1,
        nodes: entries,
    };
    let front = Front::bind(
        FrontConfig {
            addr: "127.0.0.1:0".to_string(),
            map: map.clone(),
        },
        Obs::noop(),
    )
    .expect("bind front");

    let mut client = Client::connect(front.addr()).expect("connect front");
    let mut consumed = 0u64;
    for chunk in adverts.chunks(CHUNK) {
        let ack = client.ingest(chunk).expect("fronted ingest");
        consumed += ack.consumed;
    }
    // Terminal drain + flush on every partition (the reactor usually
    // drains at tick end already, so the finish itself may drain 0).
    client.finish().expect("fronted finish");

    // The merged wire snapshot is the single-engine snapshot, bit for
    // bit — partitioning must be invisible to the math.
    let got = client.snapshot().expect("fronted snapshot");
    assert_bit_identical("fronted cluster", &got, &want);

    // Summed statistics across the partitions equal the reference's.
    let stats = client.stats().expect("fronted stats");
    let want_stats = reference.stats();
    assert_eq!(consumed + stats.samples_rejected, adverts.len() as u64);
    assert_eq!(stats.samples_routed, want_stats.samples_routed);
    assert_eq!(stats.samples_rejected, want_stats.samples_rejected);
    assert_eq!(stats.samples_processed, want_stats.samples_processed);
    assert_eq!(stats.sessions_created, want_stats.sessions_created);
    assert_eq!(stats.queued, 0);

    // Point queries route to the owner and relay its reply bit-exactly.
    for (beacon, estimate) in &want {
        let got = client
            .query(*beacon)
            .expect("fronted query")
            .expect("beacon localized");
        assert_eq!(got.position.x.to_bits(), estimate.position.x.to_bits());
        assert_eq!(got.position.y.to_bits(), estimate.position.y.to_bits());
    }

    // The front's cluster report names the membership it routed by.
    let summary = client.cluster().expect("fronted cluster report");
    assert_eq!(summary.role, NodeRole::Front);
    assert_eq!(summary.map, map);
    assert!(summary.forwarded_batches > 0);
    assert_eq!(summary.forwarded_adverts, adverts.len() as u64);

    drop(client);
    front.shutdown();
    for (handle, dir) in owners {
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn traced_batches_record_the_forward_stage_at_the_front() {
    let adverts = fleet_adverts();
    let dir = temp_dir("trace");
    let owner = serve_node(&NodeSpec::new(1, &dir), Obs::ring(64)).expect("bind owner");
    let front = Front::bind(
        FrontConfig {
            addr: "127.0.0.1:0".to_string(),
            map: WirePartitionMap {
                epoch: 1,
                nodes: vec![NodeEntry {
                    node_id: 1,
                    addr: owner.addr().to_string(),
                }],
            },
        },
        Obs::ring(64),
    )
    .expect("bind front");

    let mut client = Client::connect(front.addr()).expect("connect front");
    let ctx = TraceCtx::mint(trace_id(0xC1, 7));
    let ack = client
        .ingest_traced(&adverts[..CHUNK], ctx)
        .expect("traced fronted ingest");
    assert_eq!(ack.summary.consumed as usize, CHUNK);
    assert_eq!(ack.ctx.trace_id, ctx.trace_id);
    assert_ne!(
        ack.ctx.path & Stage::Forward.bit(),
        0,
        "the front must stamp its Forward stage into the path"
    );
    assert!(
        ack.laps.iter().any(|l| l.stage == Stage::Forward),
        "the front's trace table must lap the fan-out"
    );

    // The owner's table holds the downstream laps under the same id.
    let mut direct = Client::connect(owner.addr()).expect("connect owner");
    let records = direct.traces(Some(ctx.trace_id)).expect("owner traces");
    assert_eq!(records.len(), 1, "owner recorded the forwarded trace");
    assert!(
        records[0].laps.iter().any(|l| l.stage == Stage::Route),
        "owner laps cover its own pipeline"
    );

    drop(client);
    drop(direct);
    front.shutdown();
    owner.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sync_replication_keeps_the_follower_warm_and_promotion_serves_identically() {
    let adverts = fleet_adverts();
    let (want, _) = reference_snapshot(&adverts);

    let follower_dir = temp_dir("rep-follower");
    let owner_dir = temp_dir("rep-owner");
    let mut follower_spec = NodeSpec::new(1, &follower_dir);
    follower_spec.role = NodeRole::Follower;
    let follower = serve_node(&follower_spec, Obs::ring(64)).expect("bind follower");

    let mut owner_spec = NodeSpec::new(1, &owner_dir);
    owner_spec.replica_addr = Some(follower.addr().to_string());
    owner_spec.replication = ReplicationPolicy::SyncAck;
    let owner = serve_node(&owner_spec, Obs::ring(64)).expect("bind owner");

    // A follower refuses direct batches — only its owner's Replicate
    // stream may mutate it (the divergence guard).
    let mut to_follower = Client::connect(follower.addr()).expect("connect follower");
    assert!(
        to_follower.ingest(&adverts[..3]).is_err(),
        "a follower must refuse direct ingest"
    );

    let mut client = Client::connect(owner.addr()).expect("connect owner");
    let mut acked = 0u64;
    for chunk in adverts.chunks(CHUNK) {
        let ctx = TraceCtx::mint(trace_id(0xACE, acked));
        let ack = client.ingest_traced(chunk, ctx).expect("replicated ingest");
        acked += chunk.len() as u64;
        // Synchronous policy: the ack lapped a Replicate stage and the
        // follower already holds every record of this batch.
        assert!(
            ack.laps.iter().any(|l| l.stage == Stage::Replicate),
            "sync replication must lap Stage::Replicate before the ack"
        );
    }
    let follower_view = to_follower.cluster().expect("follower report");
    assert_eq!(follower_view.role, NodeRole::Follower);
    assert_eq!(
        follower_view.replicated_records, acked,
        "every acked advert must already be follower-durable under SyncAck"
    );

    // Promote: a map listing the follower's own address under its node
    // id flips it to owner; it then serves the partition exactly as the
    // original owner would.
    let promote = WirePartitionMap {
        epoch: 1,
        nodes: vec![NodeEntry {
            node_id: 1,
            addr: follower.addr().to_string(),
        }],
    };
    to_follower.install_map(promote).expect("promote follower");
    assert_eq!(
        to_follower.cluster().expect("promoted report").role,
        NodeRole::Owner
    );
    to_follower.finish().expect("finish promoted follower");
    let follower_snapshot = to_follower.snapshot().expect("promoted snapshot");
    assert_bit_identical("promoted follower", &follower_snapshot, &want);

    client.finish().expect("finish owner");
    let owner_snapshot = client.snapshot().expect("owner snapshot");
    assert_bit_identical("original owner", &owner_snapshot, &want);

    drop(client);
    drop(to_follower);
    owner.shutdown();
    follower.shutdown();
    let _ = std::fs::remove_dir_all(&owner_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}

/// Intact records in the WAL under `dir`, counted without opening it
/// for append.
fn wal_records(dir: &Path) -> u64 {
    WalTailer::open(&dir.join(WAL_FILE))
        .skip(u64::MAX)
        .expect("scan wal")
}

#[test]
fn recovered_owner_reattaches_mid_log_and_keeps_the_follower_a_prefix() {
    let adverts = fleet_adverts();
    let half = adverts.len() / 2;

    let follower_dir = temp_dir("reattach-follower");
    let owner_dir = temp_dir("reattach-owner");
    let mut follower_spec = NodeSpec::new(1, &follower_dir);
    follower_spec.role = NodeRole::Follower;
    let follower = serve_node(&follower_spec, Obs::ring(64)).expect("bind follower");
    let mut owner_spec = NodeSpec::new(1, &owner_dir);
    owner_spec.replica_addr = Some(follower.addr().to_string());
    owner_spec.replication = ReplicationPolicy::SyncAck;

    // First life: half the stream, every batch follower-durable.
    let first_obs = Obs::ring(64);
    let owner = serve_node(&owner_spec, first_obs.clone()).expect("bind owner");
    let mut client = Client::connect(owner.addr()).expect("connect owner");
    for chunk in adverts[..half].chunks(CHUNK) {
        client.ingest(chunk).expect("replicated ingest");
    }
    drop(client);
    owner.shutdown();

    // Second life: recover from the directory and re-bind against the
    // follower, which kept running and holds the first half.
    let mut to_follower = Client::connect(follower.addr()).expect("connect follower");
    assert_eq!(
        to_follower
            .cluster()
            .expect("follower report")
            .replicated_records,
        half as u64
    );
    let second_obs = Obs::ring(64);
    let owner = serve_node(&owner_spec, second_obs.clone()).expect("re-bind owner");
    let mut client = Client::connect(owner.addr()).expect("connect recovered owner");
    assert_eq!(
        client.cluster().expect("owner report").replicated_records,
        half as u64,
        "the re-attached link resumes where the follower stands"
    );
    for chunk in adverts[half..].chunks(CHUNK) {
        client
            .ingest(chunk)
            .expect("replicated ingest after re-attach");
    }
    drop(client);
    owner.shutdown();

    let owner_records = wal_records(&owner_dir);
    assert_eq!(owner_records, adverts.len() as u64);
    assert_eq!(
        to_follower
            .cluster()
            .expect("follower report")
            .replicated_records,
        owner_records,
        "the follower holds every record the owner logged"
    );
    let owner_wal = std::fs::read(owner_dir.join(WAL_FILE)).expect("owner wal");
    let follower_wal = std::fs::read(follower_dir.join(WAL_FILE)).expect("follower wal");
    assert!(
        owner_wal.starts_with(&follower_wal),
        "the follower's WAL must be a byte prefix of the owner's"
    );
    for (life, obs) in [("first", &first_obs), ("second", &second_obs)] {
        assert_eq!(
            obs.metrics().counter("net.replication_failures"),
            0,
            "{life} life: a Replicate was refused"
        );
    }

    drop(to_follower);
    follower.shutdown();
    let _ = std::fs::remove_dir_all(&owner_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}
