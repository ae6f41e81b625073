//! The engine's drain helpers live exactly as long as the engine: none
//! before the first pass that needs one, all joined when it drops. Both
//! checks count the process's threads in `/proc/self/task`, so they run
//! in one test — a concurrently running test would move the count.

use locble_ble::BeaconId;
use locble_core::{Estimator, EstimatorConfig};
use locble_engine::{Advert, Engine, EngineConfig};
use locble_obs::Obs;
use std::time::{Duration, Instant};

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs is mounted")
        .count()
}

/// The thread count once it reaches `want`, or after a second. A joined
/// thread can linger in `/proc/self/task` for a moment after `join`
/// returns: the kernel wakes the joiner before it reaps the task.
fn settled_thread_count(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let count = thread_count();
        if count == want || Instant::now() >= deadline {
            return count;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn engine(threads: usize) -> Engine {
    Engine::new(
        EngineConfig {
            threads,
            ..EngineConfig::default()
        },
        Estimator::new(EstimatorConfig::default()),
        Obs::noop(),
    )
}

#[test]
fn helpers_spawn_on_first_need_and_join_on_drop() {
    // Sixteen beacons over the default sixteen shards: several shards
    // have work, so a pass wakes helpers.
    let adverts: Vec<Advert> = (0..160)
        .map(|i| Advert {
            beacon: BeaconId(i % 16),
            t: f64::from(i) * 0.05,
            rssi_dbm: -62.0,
        })
        .collect();
    let start = thread_count();

    let mut idle = engine(4);
    idle.ingest_all(&adverts);
    assert_eq!(thread_count(), start, "ingest alone spawned a helper");

    let mut single = engine(1);
    single.ingest_all(&adverts);
    single.process();
    single.finish();
    assert_eq!(thread_count(), start, "a 1-thread engine spawned a thread");

    let mut first = engine(4);
    first.ingest_all(&adverts);
    first.process();
    assert_eq!(thread_count(), start + 3, "threads − 1 helpers are pooled");
    drop(first);
    assert_eq!(
        settled_thread_count(start),
        start,
        "helpers outlived their engine"
    );

    for _ in 0..200 {
        let mut e = engine(4);
        e.ingest_all(&adverts);
        e.process();
    }
    assert_eq!(
        settled_thread_count(start),
        start,
        "dropped engines leaked helpers"
    );

    drop(idle);
    drop(single);
    assert_eq!(settled_thread_count(start), start);
}
