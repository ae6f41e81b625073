//! Fleet-scale stress: 200 beacons, 10 000 interleaved samples, small
//! shard queues (so backpressure actually fires), idle eviction live —
//! the engine must neither panic nor lose a single sample, and its
//! metrics must reconcile exactly against the input trace.
//!
//! Also the ingest-boundary regression tests for the `RssBatch::new`
//! panic path: malformed adverts (NaN timestamps/RSSI, per-beacon time
//! travel) are rejected at the boundary with precise accounting, and
//! never reach a worker as a panicking batch.

use locble_ble::BeaconId;
use locble_core::{Estimator, EstimatorConfig};
use locble_engine::{Advert, Engine, EngineConfig};
use locble_obs::Obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const BEACONS: u32 = 200;
const SAMPLES: usize = 10_000;

/// 200 beacons heard round-robin with jittered RSSI at a global 100 Hz
/// tick — 10 000 samples over ~100 simulated seconds.
fn fleet_trace(seed: u64) -> Vec<Advert> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..SAMPLES)
        .map(|k| {
            let beacon = BeaconId(k as u32 % BEACONS);
            Advert {
                beacon,
                t: k as f64 * 0.01,
                rssi_dbm: -55.0 - f64::from(beacon.0 % 30) - 8.0 * rng.random_range(0.0..1.0),
            }
        })
        .collect()
}

#[test]
fn two_hundred_beacon_stress_reconciles_exactly() {
    let trace = fleet_trace(7);
    let per_beacon: BTreeMap<BeaconId, usize> = trace.iter().fold(BTreeMap::new(), |mut m, a| {
        *m.entry(a.beacon).or_default() += 1;
        m
    });

    let estimator = Estimator::new(EstimatorConfig::default());
    let obs = Obs::ring(4096);
    let config = EngineConfig {
        threads: 8,
        shards: 16,
        shard_queue_cap: 128, // ~10k samples: forces many backpressure cycles
        idle_evict_s: 3600.0, // live but never firing within the 100 s trace
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(config, estimator, obs.clone());
    let report = engine.ingest_all(&trace);
    engine.finish();

    // Every sample consumed, none rejected, none lost.
    assert_eq!(report.consumed, SAMPLES);
    assert_eq!(report.routed, SAMPLES);
    assert_eq!(report.rejected(), 0);
    let stats = engine.stats();
    assert_eq!(stats.samples_routed, SAMPLES as u64);
    assert_eq!(stats.samples_processed, SAMPLES as u64);
    assert_eq!(stats.sessions_created, u64::from(BEACONS));
    assert_eq!(stats.sessions_live, BEACONS as usize);
    assert_eq!(stats.sessions_evicted, 0);
    assert_eq!(stats.batches_rejected, 0);
    assert!(stats.batches_pushed > 0);

    // Per-beacon accounting matches the input trace exactly.
    assert_eq!(engine.beacons().len(), BEACONS as usize);
    for (beacon, &count) in &per_beacon {
        let s = engine.session_stats(*beacon).expect("session live");
        assert_eq!(s.samples_routed, count as u64, "beacon {beacon} routed");
        assert_eq!(
            s.samples_processed, count as u64,
            "beacon {beacon} processed"
        );
    }

    // The metrics registry agrees with the in-process stats, and the
    // per-shard counters partition the total.
    let metrics = obs.metrics();
    assert_eq!(metrics.counter("engine.samples_routed"), SAMPLES as u64);
    assert_eq!(
        metrics.counter("engine.sessions_created"),
        u64::from(BEACONS)
    );
    assert_eq!(metrics.counter("engine.samples_rejected"), 0);
    let shard_sum: u64 = (0..16)
        .map(|i| metrics.counter(&format!("engine.shard{i}.samples")))
        .sum();
    assert_eq!(
        shard_sum, SAMPLES as u64,
        "per-shard counters must partition"
    );
    assert!(
        metrics.counter("engine.backpressure_stalls") > 0,
        "queue cap 128 over 10k samples should have stalled at least once"
    );
}

#[test]
fn idle_sessions_are_evicted_and_reappear_cleanly() {
    let estimator = Estimator::new(EstimatorConfig::default());
    let config = EngineConfig {
        threads: 4,
        idle_evict_s: 5.0,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(config, estimator, Obs::noop());
    // Beacon 1 speaks early then goes silent; beacon 2 keeps talking.
    let mut trace: Vec<Advert> = (0..20)
        .map(|k| Advert {
            beacon: BeaconId(1),
            t: k as f64 * 0.1,
            rssi_dbm: -60.0,
        })
        .collect();
    trace.extend((0..200).map(|k| Advert {
        beacon: BeaconId(2),
        t: 2.0 + k as f64 * 0.1,
        rssi_dbm: -70.0,
    }));
    engine.ingest_all(&trace);
    engine.process();
    assert_eq!(
        engine.beacons(),
        vec![BeaconId(2)],
        "beacon 1 idle for >5 s past the watermark must be evicted"
    );
    assert_eq!(engine.stats().sessions_evicted, 1);
    // The beacon coming back is a *fresh* session, free to start at an
    // earlier timestamp than its evicted past.
    let report = engine.ingest_all(&[Advert {
        beacon: BeaconId(1),
        t: 20.0,
        rssi_dbm: -61.0,
    }]);
    assert_eq!(report.sessions_created, 1);
    assert_eq!(engine.beacons(), vec![BeaconId(1), BeaconId(2)]);
}

#[test]
fn nan_and_unsorted_adverts_are_rejected_at_the_boundary() {
    let estimator = Estimator::new(EstimatorConfig::default());
    let mut engine = Engine::new(EngineConfig::default(), estimator, Obs::noop());
    let adverts = [
        Advert {
            beacon: BeaconId(1),
            t: 0.0,
            rssi_dbm: -60.0,
        }, // ok
        Advert {
            beacon: BeaconId(1),
            t: f64::NAN,
            rssi_dbm: -60.0,
        }, // NaN time
        Advert {
            beacon: BeaconId(1),
            t: 0.5,
            rssi_dbm: f64::NAN,
        }, // NaN RSSI
        Advert {
            beacon: BeaconId(1),
            t: f64::INFINITY,
            rssi_dbm: -60.0,
        }, // inf time
        Advert {
            beacon: BeaconId(1),
            t: 1.0,
            rssi_dbm: -61.0,
        }, // ok
        Advert {
            beacon: BeaconId(1),
            t: 0.2,
            rssi_dbm: -62.0,
        }, // time travel
        Advert {
            beacon: BeaconId(1),
            t: 1.0,
            rssi_dbm: -63.0,
        }, // equal t: ok
    ];
    let report = engine.ingest_all(&adverts);
    assert_eq!(report.consumed, adverts.len());
    assert_eq!(report.routed, 3);
    assert_eq!(report.rejected_non_finite, 3);
    assert_eq!(report.rejected_out_of_order, 1);
    // The malformed stream must process without panicking anywhere —
    // this is the regression test for the RssBatch::new panic path.
    engine.finish();
    let stats = engine.stats();
    assert_eq!(stats.samples_processed, 3);
    assert_eq!(
        stats.batches_rejected, 0,
        "rejects happen at ingest, not in workers"
    );
    let s = engine.session_stats(BeaconId(1)).expect("session live");
    assert_eq!(s.samples_routed, 3);
    assert_eq!(s.last_t, 1.0);
}

#[test]
fn capacity_limit_rejects_overflow_beacons_until_eviction() {
    let estimator = Estimator::new(EstimatorConfig::default());
    let config = EngineConfig {
        max_sessions: 3,
        idle_evict_s: 2.0,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(config, estimator, Obs::noop());
    let wave1: Vec<Advert> = (0..5)
        .map(|id| Advert {
            beacon: BeaconId(id),
            t: f64::from(id) * 0.01,
            rssi_dbm: -60.0,
        })
        .collect();
    let report = engine.ingest_all(&wave1);
    assert_eq!(report.sessions_created, 3);
    assert_eq!(report.rejected_capacity, 2);
    assert_eq!(
        engine.beacons(),
        vec![BeaconId(0), BeaconId(1), BeaconId(2)]
    );
    // Advance time past the idle threshold via a live session, process
    // to evict, and the rejected beacon now fits.
    engine.ingest_all(&[Advert {
        beacon: BeaconId(2),
        t: 10.0,
        rssi_dbm: -60.0,
    }]);
    engine.process();
    let report = engine.ingest_all(&[Advert {
        beacon: BeaconId(4),
        t: 10.1,
        rssi_dbm: -60.0,
    }]);
    assert_eq!(report.sessions_created, 1);
    assert_eq!(engine.beacons(), vec![BeaconId(2), BeaconId(4)]);
}
