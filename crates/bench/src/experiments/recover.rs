//! Durability overhead and recovery: the fleet trace ingested with a
//! `locble-store` WAL attached, under each fsync policy, against the
//! same trace with no durability at all.
//!
//! Not a paper figure — it prices the crash-safety layer (PR 4): WAL
//! overhead per policy, snapshot size, recovery latency, and the core
//! guarantee as a boolean row: the engine recovered after a simulated
//! crash is **bit-identical** to the run that never crashed.

use crate::util::{harness_threads, header, row};
use locble_ble::BeaconId;
use locble_core::{Estimator, EstimatorConfig, LocationEstimate};
use locble_engine::{Advert, Engine, EngineConfig};
use locble_motion::MotionTrack;
use locble_obs::Obs;
use locble_scenario::fleet_session;
use locble_scenario::runner::track_observer;
use locble_store::{FsyncPolicy, SessionStore};
use std::path::Path;
use std::time::Instant;

const CHUNK: usize = 128;

fn engine_config() -> EngineConfig {
    EngineConfig {
        threads: harness_threads(),
        ..EngineConfig::default()
    }
}

fn estimator() -> Estimator {
    Estimator::new(EstimatorConfig::default())
}

/// Streams the trace with no durability; returns (wall seconds, engine).
fn run_plain(adverts: &[Advert], motion: &MotionTrack) -> (f64, Engine) {
    let mut engine = Engine::new(engine_config(), estimator(), Obs::noop());
    engine.set_motion(motion.clone());
    let t0 = Instant::now();
    for chunk in adverts.chunks(CHUNK) {
        engine.ingest_all(chunk);
    }
    let wall = t0.elapsed().as_secs_f64();
    engine.finish();
    (wall, engine)
}

/// Streams the trace WAL-first under `policy`, checkpointing once at
/// mid-stream, then "crashes" (drops the engine unfinished). Returns
/// the stream wall seconds.
fn run_durable(
    dir: &Path,
    policy: FsyncPolicy,
    adverts: &[Advert],
    motion: &MotionTrack,
) -> (f64, u64) {
    let mut store = SessionStore::open(dir, policy, Obs::noop()).expect("open store");
    let mut engine = Engine::new(engine_config(), estimator(), Obs::noop());
    engine.set_motion(motion.clone());
    store.checkpoint(&engine).expect("motion checkpoint");
    let mid = adverts.len() / 2;
    let mut snapshot_bytes = 0;
    let t0 = Instant::now();
    for chunk in adverts.chunks(CHUNK) {
        store.append(chunk).expect("wal append");
        engine.ingest_all(chunk);
        if store.wal_records() as usize >= mid && snapshot_bytes == 0 {
            snapshot_bytes = store.checkpoint(&engine).expect("mid-stream checkpoint");
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    // Crash: no finish, no final checkpoint.
    (wall, snapshot_bytes)
}

fn bit_identical(
    got: &[(BeaconId, LocationEstimate)],
    want: &[(BeaconId, LocationEstimate)],
) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|((gb, g), (wb, w))| {
            gb == wb
                && g.position.x.to_bits() == w.position.x.to_bits()
                && g.position.y.to_bits() == w.position.y.to_bits()
                && g.confidence.to_bits() == w.confidence.to_bits()
                && g.exponent.to_bits() == w.exponent.to_bits()
                && g.gamma_dbm.to_bits() == w.gamma_dbm.to_bits()
                && g.residual_db.to_bits() == w.residual_db.to_bits()
                && g.points_used == w.points_used
                && g.method == w.method
        })
}

/// Runs the experiment at the standard 60-beacon scale.
pub fn run() -> String {
    run_sized(60)
}

/// The experiment body, parameterized so the in-crate test can run a
/// small fleet while `harness recover` runs the full 60.
pub(crate) fn run_sized(n_beacons: usize) -> String {
    let session = fleet_session(n_beacons, 0xD07A);
    let motion = track_observer(&session);
    let adverts: Vec<Advert> = session
        .interleaved_rss()
        .into_iter()
        .map(Advert::from)
        .collect();

    let (wall_plain, reference) = run_plain(&adverts, &motion);
    let want = reference.snapshot();

    let mut out = header(
        "recover",
        &format!("{n_beacons}-beacon fleet with WAL durability attached"),
        "beyond the paper: crash-safe sessions priced against the in-memory engine",
    );
    out.push_str(&row("beacons heard", session.rss.len()));
    out.push_str(&row("interleaved samples", adverts.len()));
    out.push_str(&row("engine threads", harness_threads()));
    out.push_str(&row("ingest wall, no WAL (s)", format!("{wall_plain:.4}")));

    let policies: [(&str, FsyncPolicy); 2] = [
        ("fsync=never", FsyncPolicy::Never),
        ("fsync=every-append", FsyncPolicy::EveryAppend),
    ];
    let base = std::env::temp_dir().join(format!("locble-recover-exp-{}", std::process::id()));
    let mut last_snapshot_bytes = 0;
    for (name, policy) in policies {
        let dir = base.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let (wall, snapshot_bytes) = run_durable(&dir, policy, &adverts, &motion);
        last_snapshot_bytes = snapshot_bytes;
        let overhead = (wall / wall_plain.max(1e-9) - 1.0) * 100.0;
        out.push_str(&row(
            &format!("ingest wall, {name} (s)"),
            format!("{wall:.4}  ({overhead:+.1}% vs no WAL)"),
        ));
    }
    out.push_str(&row("snapshot size (bytes)", last_snapshot_bytes));

    // Recover the every-append run — the one whose durable prefix is
    // the entire stream — and verify the core guarantee.
    let dir = base.join("fsync=every-append");
    let (_store, mut engine, report) = SessionStore::recover(
        &dir,
        FsyncPolicy::EveryAppend,
        engine_config(),
        estimator(),
        Obs::noop(),
    )
    .expect("recover");
    engine.finish();
    out.push_str(&row("wal records at crash", report.wal_records));
    out.push_str(&row(
        "recovery: skipped / replayed",
        format!("{} / {}", report.skipped, report.replayed),
    ));
    out.push_str(&row(
        "recovery wall (ms)",
        format!("{:.2}", report.recovery_ms),
    ));
    out.push_str(&row(
        "recovered bit-identical",
        bit_identical(&engine.snapshot(), &want),
    ));
    let _ = std::fs::remove_dir_all(&base);
    out
}

#[cfg(test)]
mod tests {
    /// Correctness gate only (the bit-identity row over a real crash +
    /// recovery); timing numbers are the release-mode `harness recover`
    /// output.
    #[test]
    fn recover_report_is_bit_identical() {
        let report = super::run_sized(8);
        assert!(
            crate::util::flag_is_true(&report, "recovered bit-identical"),
            "{report}"
        );
    }
}
