//! LocBLE reproduction — umbrella crate.
//!
//! A from-scratch Rust reproduction of *Locating and Tracking BLE
//! Beacons with Smartphones* (CoNEXT '17). This crate re-exports the
//! whole workspace behind one name so the examples and downstream users
//! can write `use locble_repro::prelude::*`.
//!
//! Layer map (bottom-up):
//!
//! | crate | role |
//! |---|---|
//! | [`geom`] | vectors, poses, trajectories, environment classes |
//! | [`dsp`] | Butterworth, Kalman/AKF, DTW, window statistics |
//! | [`ml`] | linear algebra, least squares, SVM / tree / forest |
//! | [`rf`] | path loss, shadowing, fading, receiver impairments |
//! | [`ble`] | advertisement PDUs, beacon codecs, advertiser/scanner |
//! | [`sensors`] | pedestrian-gait IMU simulator |
//! | [`motion`] | coordinate alignment, steps, turns, dead reckoning |
//! | [`core`] | **LocBLE itself**: EnvAware, ANF, sensor-fusion estimation, clustering calibration |
//! | [`engine`] | concurrent multi-beacon tracking engine (sharded sessions) |
//! | [`net`] | wire protocol + TCP ingest/query server over the engine |
//! | [`store`] | crash-safe durability: advert WAL, engine snapshots, recovery |
//! | [`cluster`] | consistent-hash partitioning, WAL replication, warm failover |
//! | [`scenario`] | Table-1 environments and end-to-end sessions |
//! | [`obs`] | structured tracing, metrics, and pipeline diagnostics |

pub use locble_ble as ble;
pub use locble_cluster as cluster;
pub use locble_core as core;
pub use locble_dsp as dsp;
pub use locble_engine as engine;
pub use locble_geom as geom;
pub use locble_ml as ml;
pub use locble_motion as motion;
pub use locble_net as net;
pub use locble_obs as obs;
pub use locble_rf as rf;
pub use locble_scenario as scenario;
pub use locble_sensors as sensors;
pub use locble_store as store;

/// The most commonly used items in one import.
pub mod prelude {
    pub use locble_ble::{BeaconHardware, BeaconId, BeaconKind};
    pub use locble_cluster::{serve_node, ClusterRouter, Front, FrontConfig, NodeSpec};
    pub use locble_core::{
        calibrate, ClusterConfig, DartleRanger, DtwMatcher, Estimator, EstimatorConfig,
        LocationEstimate, Navigator,
    };
    pub use locble_engine::{Advert, Engine, EngineConfig};
    pub use locble_geom::{EnvClass, Pose2, Vec2};
    pub use locble_motion::{track, track_traced, TrackerConfig};
    pub use locble_net::{Client, Server, ServerConfig};
    pub use locble_obs::Obs;
    pub use locble_scenario::world::{simulate_moving_session, simulate_session};
    pub use locble_scenario::{
        all_environments, environment_by_index, fleet_beacons, localize, localize_fleet,
        localize_streaming, plan_l_walk, train_default_envaware, BeaconSpec, FleetReport,
        PipelineReport, Session, SessionConfig,
    };
    pub use locble_store::{FsyncPolicy, SessionStore};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_links_all_layers() {
        use crate::prelude::*;
        let env = environment_by_index(1).expect("meeting room exists");
        assert_eq!(env.name, "Meeting room");
        let _ = Estimator::new(EstimatorConfig::default());
        let _ = Navigator::new(Vec2::new(1.0, 1.0));
        let mut engine = Engine::new(
            EngineConfig::default(),
            Estimator::new(EstimatorConfig::default()),
            Obs::noop(),
        );
        engine.ingest_all(&[Advert {
            beacon: BeaconId(1),
            t: 0.0,
            rssi_dbm: -60.0,
        }]);
        engine.finish();
        assert_eq!(engine.beacons(), vec![BeaconId(1)]);
    }
}
