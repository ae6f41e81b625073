//! Recovery streams the WAL: its peak memory does not grow with the
//! history behind the snapshot, and a tailer re-attaching past that
//! history reads the log once. The checks read the process's peak RSS
//! (`VmHWM` in `/proc/self/status`) and its bytes read (`rchar` in
//! `/proc/self/io`), so this is the only test in its binary — a
//! concurrently running test would move both.

#![cfg(target_os = "linux")]

use locble_ble::BeaconId;
use locble_core::{Estimator, EstimatorConfig};
use locble_engine::{Advert, EngineConfig};
use locble_obs::Obs;
use locble_store::{FsyncPolicy, SessionStore, WalTailer, WAL_FILE};
use std::path::{Path, PathBuf};

/// Records behind the snapshot in the small and the large store.
const SMALL_HISTORY: u64 = 50_000;
const LARGE_HISTORY: u64 = 500_000;
/// Records after the snapshot, the same in both stores.
const TAIL: u64 = 2_000;
/// Records per append while writing the history.
const BATCH: u64 = 4_096;
/// How much more the large store's recovery may raise the peak RSS.
const HWM_GROWTH_LIMIT_KB: u64 = 4 * 1024;
/// Bytes a skip-then-poll may read beyond the file: each scan may read
/// one buffer ahead of the record it stops at.
const READ_SLACK: u64 = 256 * 1024;

fn config() -> EngineConfig {
    EngineConfig {
        shards: 4,
        threads: 1,
        ..EngineConfig::default()
    }
}

fn estimator() -> Estimator {
    Estimator::new(EstimatorConfig::default())
}

/// Advert `i` of a synthetic stream over 64 beacons.
fn advert(i: u64) -> Advert {
    Advert {
        beacon: BeaconId((i % 64) as u32),
        t: i as f64 * 0.01,
        rssi_dbm: -60.0 - (i % 13) as f64,
    }
}

fn adverts(range: std::ops::Range<u64>) -> Vec<Advert> {
    range.map(advert).collect()
}

/// A store holding `history` raw WAL records under a snapshot of an
/// empty engine, then the shared tail.
fn write_store(tag: &str, history: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "locble-recovery-memory-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = SessionStore::open(&dir, FsyncPolicy::Never, Obs::noop()).expect("open store");
    for start in (0..history).step_by(BATCH as usize) {
        store
            .append(&adverts(start..(start + BATCH).min(history)))
            .expect("append history");
    }
    let engine = locble_engine::Engine::new(config(), estimator(), Obs::noop());
    store.checkpoint(&engine).expect("checkpoint");
    store.append(&adverts(0..TAIL)).expect("append tail");
    dir
}

/// A numeric field of a `/proc/self` file (the first number after
/// `name`).
fn proc_field(file: &str, name: &str) -> u64 {
    let text = std::fs::read_to_string(Path::new("/proc/self").join(file)).expect("procfs");
    let line = text
        .lines()
        .find(|l| l.starts_with(name))
        .unwrap_or_else(|| panic!("{file} has no {name}"));
    line[name.len()..]
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{file}: unreadable {name}"))
}

/// Recovers `dir` and returns the peak RSS afterwards, in kB.
fn recover_and_read_hwm(dir: &Path, history: u64) -> u64 {
    let (store, engine, report) =
        SessionStore::recover(dir, FsyncPolicy::Never, config(), estimator(), Obs::noop())
            .expect("recover");
    assert_eq!(report.skipped, history);
    assert_eq!(report.replayed, TAIL);
    assert_eq!(store.wal_records(), history + TAIL);
    assert_eq!(engine.stats().samples_routed, TAIL);
    drop((store, engine));
    proc_field("status", "VmHWM:")
}

#[test]
fn recovery_memory_is_flat_in_history_and_reattach_reads_the_log_once() {
    let small = write_store("small", SMALL_HISTORY);
    let large = write_store("large", LARGE_HISTORY);

    let hwm_small = recover_and_read_hwm(&small, SMALL_HISTORY);
    let hwm_large = recover_and_read_hwm(&large, LARGE_HISTORY);
    let growth = hwm_large.saturating_sub(hwm_small);
    assert!(
        growth < HWM_GROWTH_LIMIT_KB,
        "peak RSS grew {growth} kB recovering {LARGE_HISTORY} records of history \
         instead of {SMALL_HISTORY} ({hwm_small} -> {hwm_large} kB)"
    );

    // An owner re-attaching to a follower that holds the whole history:
    // skip it, then poll the tail.
    let wal = large.join(WAL_FILE);
    let wal_len = std::fs::metadata(&wal).expect("wal size").len();
    let before = proc_field("io", "rchar:");
    let mut tailer = WalTailer::open(&wal);
    assert_eq!(tailer.skip(LARGE_HISTORY).expect("skip"), LARGE_HISTORY);
    let mut polled = 0u64;
    loop {
        let chunk = tailer.poll(4096).expect("poll");
        if chunk.is_empty() {
            break;
        }
        polled += chunk.len() as u64;
    }
    let read = proc_field("io", "rchar:") - before;
    assert_eq!(polled, TAIL);
    assert_eq!(tailer.offset(), wal_len);
    assert!(
        (wal_len..wal_len + READ_SLACK).contains(&read),
        "skip + poll read {read} bytes of a {wal_len}-byte log"
    );

    std::fs::remove_dir_all(&small).expect("cleanup small");
    std::fs::remove_dir_all(&large).expect("cleanup large");
}
