//! Zero-allocation regression tests for the steady-state hot paths.
//!
//! The vectorization/arena work (DESIGN.md §17) promises that a *warm*
//! session — scratch arenas grown, batch buffers reclaimed, headroom
//! reserved — processes further batches without touching the heap.
//! These tests install the counting allocator and assert exactly that:
//! the measured section performs **zero** allocations, not "few".
//!
//! Warm-up is deliberately generous (it may allocate: arenas grow, the
//! ANF designs itself, the particle cloud spawns, the engine's drain
//! helper starts); only the steady state afterwards is measured.

use locble_bench::util::{alloc_count, process_alloc_count, CountingAlloc};
use locble_ble::BeaconId;
use locble_core::{
    Estimator, EstimatorConfig, FingerprintBackend, FingerprintConfig, FitMethod, ParticleBackend,
    ParticleConfig, RssBatch, StreamingEstimator,
};
use locble_engine::{shard_of, Advert, Engine, EngineConfig};
use locble_geom::{Trajectory, Vec2};
use locble_motion::{MotionTrack, StepResult};
use locble_obs::Obs;
use locble_rf::LogDistanceModel;
use locble_store::{FsyncPolicy, Wal};
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Serializes this binary's tests: the engine tick is counted
/// process-wide, so no other test may allocate while it is measured.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits until no thread has allocated for 20 ms. The test harness
/// allocates while it retires the previous test and starts the next,
/// right after that test releases [`SERIAL`].
fn quiesce() {
    let mut last = process_alloc_count();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = process_alloc_count();
        if now == last {
            return;
        }
        last = now;
    }
}

/// A long deterministic walk that turns between +x and +y every `leg`
/// samples (a staircase of L-walks; `leg ≥ total` walks one straight
/// line): per-sample observer positions and RSS readings for one beacon,
/// chunked into `batch` -sample batches.
fn walk_fixture(total: usize, batch: usize, leg: usize) -> (Vec<RssBatch>, MotionTrack) {
    let model = LogDistanceModel::new(-59.0, 2.0);
    let target = Vec2::new(4.0, 3.5);
    let dt = 0.11;
    let mut traj = Trajectory::new();
    let mut all = Vec::new();
    let mut pos = Vec2::ZERO;
    for i in 0..total {
        let t = i as f64 * dt;
        traj.push(t, pos);
        let noise = if i % 2 == 0 { 0.9 } else { -0.7 };
        all.push((t, model.rss_at(target.distance(pos)) + noise));
        if (i / leg).is_multiple_of(2) {
            pos.x += dt;
        } else {
            pos.y += dt;
        }
    }
    let track = MotionTrack {
        trajectory: traj,
        steps: StepResult {
            step_times: vec![],
            frequency_hz: 1.8,
            step_length_m: 0.75,
            distance_m: 7.7,
        },
        turns: vec![],
    };
    let batches = all
        .chunks(batch)
        .map(|c| {
            RssBatch::new(
                c.iter().map(|(t, _)| *t).collect(),
                c.iter().map(|(_, v)| *v).collect(),
            )
        })
        .collect();
    (batches, track)
}

#[test]
fn warm_streaming_session_processes_batches_without_allocating() {
    let _serial = serial();
    let (batches, track) = walk_fixture(400, 20, 40);
    let (warm, measured) = batches.split_at(batches.len() / 2);
    let measured_samples: usize = measured.iter().map(RssBatch::len).sum();

    let mut session = StreamingEstimator::new(Estimator::new(EstimatorConfig::default()));
    for b in warm {
        session.push_batch(b, &track);
    }
    session.reserve(measured_samples);

    let before = alloc_count();
    for b in measured {
        session.push_batch(b, &track);
    }
    let allocs = alloc_count() - before;
    assert!(session.current().is_some(), "warm session must estimate");
    assert_eq!(
        allocs,
        0,
        "warm streaming push_batch allocated {allocs} times over {} batches",
        measured.len()
    );
}

/// A straight walk is collinear, so every refit starts on the leg rung
/// of the fallback ladder (the mirror ambiguity must be reported): the
/// leg solver and the ρ table are reused, not rebuilt per refit.
#[test]
fn warm_straight_walk_session_refits_on_the_leg_rung_without_allocating() {
    let _serial = serial();
    let (batches, track) = walk_fixture(400, 20, usize::MAX);
    let (warm, measured) = batches.split_at(batches.len() / 2);
    let measured_samples: usize = measured.iter().map(RssBatch::len).sum();

    let mut session = StreamingEstimator::new(Estimator::new(EstimatorConfig::default()));
    for b in warm {
        session.push_batch(b, &track);
    }
    session.reserve(measured_samples);

    let before = alloc_count();
    for b in measured {
        session.push_batch(b, &track);
    }
    let allocs = alloc_count() - before;
    let est = session.current().expect("warm session must estimate");
    assert_eq!(
        est.method,
        FitMethod::Leg,
        "fixture must refit on the leg rung"
    );
    assert!(est.mirror.is_some(), "a straight walk reports its mirror");
    assert_eq!(
        allocs,
        0,
        "warm straight-walk push_batch allocated {allocs} times over {} batches",
        measured.len()
    );
}

#[test]
fn warm_particle_session_processes_batches_without_allocating() {
    let _serial = serial();
    let (batches, track) = walk_fixture(400, 20, 40);
    let (warm, measured) = batches.split_at(batches.len() / 2);

    let mut filter = ParticleBackend::new(ParticleConfig::default());
    for b in warm {
        filter.push_batch(b, &track);
    }
    // The warm phase must have exercised the resample path, or the
    // scratch target buffers would first grow inside the measurement.
    assert!(
        filter.resamples() > 0,
        "fixture failed to trigger resampling during warm-up"
    );

    let before = alloc_count();
    for b in measured {
        filter.push_batch(b, &track);
    }
    let allocs = alloc_count() - before;
    assert!(filter.current().is_some());
    assert_eq!(
        allocs,
        0,
        "warm particle push_batch allocated {allocs} times over {} batches",
        measured.len()
    );
}

#[test]
fn warm_fingerprint_session_processes_batches_without_allocating() {
    let _serial = serial();
    let (batches, track) = walk_fixture(400, 20, 40);
    let (warm, measured) = batches.split_at(batches.len() / 2);
    let measured_samples: usize = measured.iter().map(RssBatch::len).sum();

    let mut backend = FingerprintBackend::new(FingerprintConfig::default());
    for b in warm {
        backend.push_batch(b, &track);
    }
    backend.reserve(measured_samples);

    let before = alloc_count();
    for b in measured {
        backend.push_batch(b, &track);
    }
    let allocs = alloc_count() - before;
    assert!(backend.current().is_some(), "warm backend must estimate");
    assert_eq!(
        allocs,
        0,
        "warm fingerprint push_batch allocated {allocs} times over {} batches",
        measured.len()
    );
}

/// A warm engine's steady-state `process()` tick, measured
/// process-wide so a pooled helper's allocations count too. Returns the
/// allocations made during the measured tick.
fn warm_engine_tick_allocs(threads: usize) -> u64 {
    let config = EngineConfig {
        shards: 4,
        threads,
        idle_evict_s: f64::INFINITY,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(
        config,
        Estimator::new(EstimatorConfig::default()),
        Obs::noop(),
    );

    let beacons = 6u32;
    // A helper joins a pass only when a second shard has work.
    let busy: BTreeSet<usize> = (0..beacons).map(|b| shard_of(BeaconId(b), 4)).collect();
    assert!(busy.len() > 1, "fixture must spread over shards");
    let adverts: Vec<Advert> = (0..4000)
        .map(|i| Advert {
            beacon: BeaconId(i % beacons),
            t: f64::from(i / beacons) * 0.11,
            rssi_dbm: -60.0 - f64::from(i % 13) * 0.5,
        })
        .collect();
    let (warm, measured) = adverts.split_at(adverts.len() / 2);

    engine.ingest_all(warm);
    engine.process();
    engine.reserve_headroom(measured.len());

    // The measured tick: queues already hold the pending samples
    // (ingest reuses the recycled deque capacity), then one process()
    // call flushes completed windows and refits — the reactor's
    // coalesced tick shape.
    let report = engine.ingest(measured);
    assert_eq!(report.consumed, measured.len(), "fixture overruns queues");
    quiesce();
    let before = process_alloc_count();
    let processed = engine.process();
    let allocs = process_alloc_count() - before;
    assert!(processed.samples_processed > 0);
    assert!(
        processed.batches_pushed > 0,
        "measured tick must flush at least one completed window"
    );
    allocs
}

#[test]
fn warm_engine_tick_processes_pending_batches_without_allocating() {
    let _serial = serial();
    for threads in [1, 2] {
        let allocs = warm_engine_tick_allocs(threads);
        assert_eq!(
            allocs, 0,
            "warm {threads}-thread engine process() allocated {allocs} times"
        );
    }
}

#[test]
fn warm_metrics_update_existing_names_without_allocating() {
    let _serial = serial();
    let obs = Obs::ring(16);
    obs.counter_add("net.adverts_rx", 1);
    obs.gauge_set("engine.queued", 1.0);
    obs.histogram_observe("net.ingest_batch.us", 1.0);

    let before = alloc_count();
    for i in 0..100 {
        obs.counter_add("net.adverts_rx", 8);
        obs.gauge_set("engine.queued", f64::from(i));
        obs.histogram_observe("net.ingest_batch.us", f64::from(i));
    }
    let allocs = alloc_count() - before;
    let metrics = obs.metrics();
    assert_eq!(metrics.counters["net.adverts_rx"], 801);
    assert_eq!(
        allocs, 0,
        "warm counter/gauge/histogram updates allocated {allocs} times"
    );
}

#[test]
fn warm_wal_append_does_not_allocate() {
    let _serial = serial();
    let path = std::env::temp_dir().join(format!("locble-alloc-wal-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (mut wal, _) = Wal::open(&path, FsyncPolicy::Never).expect("open wal");
    let frame: Vec<Advert> = (0..128)
        .map(|i| Advert {
            beacon: BeaconId(i % 7),
            t: f64::from(i) * 0.05,
            rssi_dbm: -60.0 - f64::from(i % 13),
        })
        .collect();
    wal.append(&frame).expect("warm-up append");

    let before = alloc_count();
    for n in [128, 8, 1, 77] {
        wal.append(&frame[..n]).expect("append");
    }
    let allocs = alloc_count() - before;
    assert_eq!(wal.records(), 128 * 2 + 8 + 1 + 77);
    let _ = std::fs::remove_file(&path);
    assert_eq!(allocs, 0, "warm WAL append allocated {allocs} times");
}
