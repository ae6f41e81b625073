//! Helpers shared by the front test files: a fleet stream, in-process
//! owners that carry its observer track, and the bit-identity check
//! against one engine fed the same stream.

#![allow(dead_code)]

use locble_ble::BeaconId;
use locble_cluster::{serve_node, Front, FrontConfig, FrontHandle, NodeSpec};
use locble_core::{Estimator, EstimatorConfig, LocationEstimate};
use locble_engine::{Advert, Engine, EngineConfig};
use locble_net::wire::{NodeEntry, WirePartitionMap};
use locble_net::ServerHandle;
use locble_obs::Obs;
use locble_scenario::fleet_session;
use locble_scenario::runner::track_observer;
use locble_store::{FsyncPolicy, SessionStore};
use std::path::PathBuf;

pub const FLEET_BEACONS: usize = 10;
pub const FLEET_SEED: u64 = 41;

pub fn fleet_adverts() -> Vec<Advert> {
    fleet_session(FLEET_BEACONS, FLEET_SEED)
        .interleaved_rss()
        .into_iter()
        .map(Advert::from)
        .collect()
}

fn engine() -> Engine {
    let mut engine = Engine::new(
        EngineConfig::default(),
        Estimator::new(EstimatorConfig::default()),
        Obs::noop(),
    );
    engine.set_motion(track_observer(&fleet_session(FLEET_BEACONS, FLEET_SEED)));
    engine
}

/// One engine fed the whole stream, finished: what every cluster
/// arrangement must reproduce.
pub fn reference(adverts: &[Advert]) -> Engine {
    let mut reference = engine();
    reference.ingest_all(adverts);
    reference.finish();
    reference
}

pub fn assert_bit_identical(
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

/// A fresh node directory whose checkpoint carries the fleet's observer
/// track (a node recovers its engine, motion track included, from it).
pub fn node_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("locble-front-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("node dir");
    let mut store = SessionStore::open(&dir, FsyncPolicy::Never, Obs::noop()).expect("seed store");
    store.checkpoint(&engine()).expect("seed motion checkpoint");
    dir
}

/// In-process owners `1..=n` behind a front, each with its directory.
pub struct Cluster {
    pub front: FrontHandle,
    pub owners: Vec<(ServerHandle, PathBuf)>,
    pub map: WirePartitionMap,
}

impl Cluster {
    pub fn start(tag: &str, n: u64) -> Cluster {
        let mut owners = Vec::new();
        let mut nodes = Vec::new();
        for node_id in 1..=n {
            let dir = node_dir(&format!("{tag}-{node_id}"));
            let handle =
                serve_node(&NodeSpec::new(node_id, &dir), Obs::noop()).expect("bind owner");
            nodes.push(NodeEntry {
                node_id,
                addr: handle.addr().to_string(),
            });
            owners.push((handle, dir));
        }
        let map = WirePartitionMap { epoch: 1, nodes };
        let front = Front::bind(
            FrontConfig {
                addr: "127.0.0.1:0".to_string(),
                map: map.clone(),
            },
            Obs::noop(),
        )
        .expect("bind front");
        Cluster { front, owners, map }
    }

    pub fn shutdown(self) {
        self.front.shutdown();
        for (handle, dir) in self.owners {
            handle.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
