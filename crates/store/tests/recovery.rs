//! Kill-and-recover differential: crash a durable session at several
//! points — including mid-record torn writes — recover it, finish the
//! stream, and require the result to be **bit-identical** (estimates as
//! IEEE-754 bit patterns, counters exactly, `processes` excluded — the
//! number of `process()` calls legitimately differs between runs) to an
//! engine that never crashed.
//!
//! The recovered run deliberately re-slices the stream differently from
//! the reference (replay is one big ingest); the engine's determinism
//! guarantee makes slicing irrelevant, so any mismatch here indicts the
//! durability layer, not the engine.

use locble_ble::BeaconId;
use locble_core::{Estimator, EstimatorConfig, LocationEstimate};
use locble_engine::{Advert, Engine, EngineConfig, EngineState, EngineStats, RestoreError};
use locble_motion::MotionTrack;
use locble_obs::Obs;
use locble_scenario::runner::track_observer;
use locble_scenario::world::simulate_session;
use locble_scenario::{environment_by_index, fleet_beacons, plan_l_walk, SessionConfig};
use locble_store::snapshot::encode_snapshot;
use locble_store::wal::ADVERT_RECORD_LEN;
use locble_store::{
    read_snapshot, write_snapshot, CodecError, FsyncPolicy, RecoverError, SessionStore,
    SnapshotError, SNAPSHOT_FILE, WAL_FILE,
};
use std::path::PathBuf;

const CHUNK: usize = 53;

fn fleet_adverts(n_beacons: usize, seed: u64) -> (Vec<Advert>, MotionTrack) {
    let env = environment_by_index(9).expect("parking lot exists");
    let fleet = fleet_beacons(&env, n_beacons, seed);
    let plan =
        plan_l_walk(&env, locble_geom::Vec2::new(4.0, 4.0), 4.0, 3.0, 0.5).expect("walk fits");
    let session = simulate_session(&env, &fleet, &plan, &SessionConfig::paper_default(seed));
    let motion = track_observer(&session);
    let adverts = session
        .interleaved_rss()
        .into_iter()
        .map(Advert::from)
        .collect();
    (adverts, motion)
}

fn config() -> EngineConfig {
    EngineConfig {
        shards: 8,
        threads: 2,
        // The fleet walk is shorter than any idle window; pin eviction
        // off so counter comparisons don't hinge on that.
        idle_evict_s: f64::INFINITY,
        ..EngineConfig::default()
    }
}

fn estimator() -> Estimator {
    Estimator::new(EstimatorConfig::default())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("locble-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The uninterrupted run every crash scenario must reproduce.
fn reference_run(adverts: &[Advert], motion: &MotionTrack) -> Engine {
    let mut engine = Engine::new(config(), estimator(), Obs::noop());
    engine.set_motion(motion.clone());
    engine.ingest_all(adverts);
    engine.finish();
    engine
}

/// Every [`EngineStats`] field except `processes`.
fn stats_sans_processes(s: EngineStats) -> [u64; 8] {
    [
        s.samples_routed,
        s.samples_rejected,
        s.samples_processed,
        s.sessions_created,
        s.sessions_evicted,
        s.sessions_live as u64,
        s.batches_pushed,
        s.batches_rejected,
    ]
}

fn assert_estimates_bit_identical(
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
        let fields = [
            ("position.x", g.position.x, w.position.x),
            ("position.y", g.position.y, w.position.y),
            ("confidence", g.confidence, w.confidence),
            ("exponent", g.exponent, w.exponent),
            ("gamma_dbm", g.gamma_dbm, w.gamma_dbm),
            ("residual_db", g.residual_db, w.residual_db),
        ];
        for (field, gv, wv) in fields {
            assert_eq!(
                gv.to_bits(),
                wv.to_bits(),
                "{label}: beacon {b} {field}: {gv} != {wv}"
            );
        }
        assert_eq!(
            g.mirror.map(|m| (m.x.to_bits(), m.y.to_bits())),
            w.mirror.map(|m| (m.x.to_bits(), m.y.to_bits())),
            "{label}: beacon {b} mirror"
        );
        assert_eq!(g.points_used, w.points_used, "{label}: beacon {b} points");
        assert_eq!(g.env, w.env, "{label}: beacon {b} env");
        assert_eq!(g.method, w.method, "{label}: beacon {b} method");
    }
}

fn assert_engines_match(label: &str, got: &Engine, want: &Engine) {
    assert_estimates_bit_identical(label, &got.snapshot(), &want.snapshot());
    assert_eq!(
        stats_sans_processes(got.stats()),
        stats_sans_processes(want.stats()),
        "{label}: counters diverged"
    );
}

/// One kill-and-recover scenario: stream `adverts[..crash_at]` durably
/// (checkpointing each time the durable count first reaches one of the
/// ascending `checkpoints`), crash, optionally tear the final WAL
/// record, recover, re-offer everything past the durable prefix,
/// finish, and diff against the uninterrupted run.
fn crash_scenario(tag: &str, crash_at: usize, checkpoints: &[usize], tear: bool) {
    let (adverts, motion) = fleet_adverts(10, 77);
    assert!(crash_at <= adverts.len() && crash_at > 0);
    let dir = temp_dir(tag);

    // Phase 1: the doomed session. Log-then-ingest, with a checkpoint
    // right after set_motion (motion is not WAL-logged) and more
    // mid-stream as the durable count passes each of `checkpoints`.
    {
        let mut store =
            SessionStore::open(&dir, FsyncPolicy::EveryAppend, Obs::noop()).expect("open store");
        let mut engine = Engine::new(config(), estimator(), Obs::noop());
        engine.set_motion(motion.clone());
        store.checkpoint(&engine).expect("motion checkpoint");
        let mut pending = checkpoints.iter().peekable();
        for chunk in adverts[..crash_at].chunks(CHUNK) {
            store.append(chunk).expect("wal append");
            engine.ingest_all(chunk);
            let durable = store.wal_records() as usize;
            if pending.next_if(|&&at| durable >= at).is_some() {
                while pending.next_if(|&&at| durable >= at).is_some() {}
                engine.process();
                store.checkpoint(&engine).expect("mid-stream checkpoint");
            }
        }
        // Crash: drop everything. No finish, no final checkpoint.
    }

    // Optionally tear the last record mid-payload, as a crash inside
    // the write syscall would.
    let durable = if tear {
        let wal = dir.join(WAL_FILE);
        let len = std::fs::metadata(&wal).expect("wal exists").len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .expect("open wal");
        f.set_len(len - 5).expect("tear");
        crash_at - 1
    } else {
        crash_at
    };

    // Phase 2: recover and finish the stream. The advert lost to the
    // torn record is re-offered, as a client retrying an unacknowledged
    // batch would.
    let (mut store, mut engine, report) = SessionStore::recover(
        &dir,
        FsyncPolicy::EveryAppend,
        config(),
        estimator(),
        Obs::noop(),
    )
    .expect("recover");
    assert!(report.snapshot_found, "{tag}: snapshot must be found");
    assert_eq!(report.torn_tail, tear, "{tag}: torn-tail detection");
    assert_eq!(
        report.wal_records as usize, durable,
        "{tag}: durable records"
    );
    assert_eq!(
        report.skipped + report.replayed,
        durable as u64,
        "{tag}: skip + replay must cover the log"
    );
    if let Some(&last) = checkpoints.iter().rev().find(|&&at| at < crash_at) {
        assert!(
            report.skipped >= last as u64,
            "{tag}: the latest mid-stream checkpoint should spare its prefix from replay"
        );
    }
    for chunk in adverts[durable..].chunks(CHUNK) {
        store.append(chunk).expect("wal append after recovery");
        engine.ingest_all(chunk);
    }
    engine.finish();

    let reference = reference_run(&adverts, &motion);
    assert_engines_match(tag, &engine, &reference);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn crash_early_before_mid_stream_checkpoint() {
    // Only the motion checkpoint exists: the whole prefix replays.
    let (adverts, _) = fleet_adverts(10, 77);
    crash_scenario("early", adverts.len() / 4, &[], false);
}

#[test]
fn crash_mid_stream_after_checkpoint() {
    let (adverts, _) = fleet_adverts(10, 77);
    crash_scenario("mid", adverts.len() / 2, &[adverts.len() / 4], false);
    // Periodic checkpoints: each snapshot replaces the previous one, and
    // recovery starts from the latest.
    let eighth = adverts.len() / 8;
    crash_scenario(
        "periodic",
        adverts.len() / 2,
        &[eighth, 2 * eighth, 3 * eighth],
        false,
    );
}

#[test]
fn crash_at_end_of_stream_before_finish() {
    let (adverts, _) = fleet_adverts(10, 77);
    crash_scenario("end", adverts.len(), &[(adverts.len() * 3) / 4], false);
}

#[test]
fn crash_tearing_the_final_wal_record() {
    let (adverts, _) = fleet_adverts(10, 77);
    crash_scenario("torn", (adverts.len() * 2) / 3, &[adverts.len() / 3], true);
}

#[test]
fn recover_from_empty_directory_yields_empty_engine() {
    let dir = temp_dir("empty");
    let (store, engine, report) =
        SessionStore::recover(&dir, FsyncPolicy::Never, config(), estimator(), Obs::noop())
            .expect("recover from nothing");
    assert!(!report.snapshot_found);
    assert_eq!(report.wal_records, 0);
    assert_eq!(report.replayed, 0);
    assert_eq!(report.skipped, 0);
    assert!(!report.torn_tail);
    assert_eq!(store.wal_records(), 0);
    assert!(engine.snapshot().is_empty());
    assert_eq!(stats_sans_processes(engine.stats()), [0; 8]);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn recover_from_snapshot_only_replays_nothing() {
    // The snapshot covers every WAL record: recovery must rebuild state
    // purely by injection, with an empty replay.
    let (adverts, motion) = fleet_adverts(8, 101);
    let dir = temp_dir("snapshot-only");
    {
        let mut store =
            SessionStore::open(&dir, FsyncPolicy::Never, Obs::noop()).expect("open store");
        let mut engine = Engine::new(config(), estimator(), Obs::noop());
        engine.set_motion(motion.clone());
        store.append(&adverts).expect("append");
        engine.ingest_all(&adverts);
        store.checkpoint(&engine).expect("checkpoint");
    }
    let (_store, mut engine, report) =
        SessionStore::recover(&dir, FsyncPolicy::Never, config(), estimator(), Obs::noop())
            .expect("recover");
    assert!(report.snapshot_found);
    assert_eq!(report.replayed, 0, "snapshot covers the whole log");
    assert_eq!(report.skipped, adverts.len() as u64);
    assert_eq!(report.replay, Default::default());
    engine.finish();
    let reference = reference_run(&adverts, &motion);
    assert_engines_match("snapshot-only", &engine, &reference);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn wal_behind_the_snapshot_is_refused_and_left_untouched() {
    // The log is cut below the snapshot's position, mid-record: the
    // files disagree, so recovery must refuse — and it must refuse
    // before it cuts the torn bytes or appends anything.
    let (adverts, motion) = fleet_adverts(4, 23);
    let dir = temp_dir("wal-behind");
    {
        let mut store =
            SessionStore::open(&dir, FsyncPolicy::Never, Obs::noop()).expect("open store");
        let mut engine = Engine::new(config(), estimator(), Obs::noop());
        engine.set_motion(motion);
        store.append(&adverts).expect("append");
        engine.ingest_all(&adverts);
        store.checkpoint(&engine).expect("checkpoint");
    }
    let kept = adverts.len() as u64 - 3;
    let wal_path = dir.join(WAL_FILE);
    let wal = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal_path)
        .expect("open wal");
    wal.set_len(kept * ADVERT_RECORD_LEN as u64 + 5)
        .expect("cut wal");
    drop(wal);
    let before = std::fs::read(&wal_path).expect("wal bytes");

    match SessionStore::recover(&dir, FsyncPolicy::Never, config(), estimator(), Obs::noop()) {
        Err(RecoverError::WalBehindSnapshot {
            wal_records,
            snapshot_records,
        }) => {
            assert_eq!(wal_records, kept);
            assert_eq!(snapshot_records, adverts.len() as u64);
        }
        Err(other) => panic!("expected WalBehindSnapshot, got {other}"),
        Ok(_) => panic!("a WAL behind its snapshot must not yield an engine"),
    }
    // Compared whole, not with `assert_eq!`: a failure would print the
    // log byte by byte.
    assert!(
        std::fs::read(&wal_path).expect("wal bytes") == before,
        "a refused recovery must leave the WAL byte-identical"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn recover_from_wal_only_replays_everything() {
    // Crash before the first checkpoint: no snapshot at all. Motion is
    // not WAL-logged, so the caller re-supplies it before processing —
    // the documented contract (checkpoint right after set_motion to
    // avoid depending on this).
    let (adverts, motion) = fleet_adverts(8, 55);
    let dir = temp_dir("wal-only");
    {
        let mut store =
            SessionStore::open(&dir, FsyncPolicy::Never, Obs::noop()).expect("open store");
        let mut engine = Engine::new(config(), estimator(), Obs::noop());
        engine.set_motion(motion.clone());
        for chunk in adverts.chunks(CHUNK) {
            store.append(chunk).expect("append");
            engine.ingest_all(chunk);
        }
        store.sync().expect("sync");
    }
    let (_store, mut engine, report) =
        SessionStore::recover(&dir, FsyncPolicy::Never, config(), estimator(), Obs::noop())
            .expect("recover");
    assert!(!report.snapshot_found);
    assert_eq!(report.skipped, 0);
    assert_eq!(report.replayed, adverts.len() as u64);
    engine.set_motion(motion.clone());
    engine.finish();
    let reference = reference_run(&adverts, &motion);
    assert_engines_match("wal-only", &engine, &reference);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn duplicate_adverts_replay_exactly_once_each() {
    // Duplicate adverts (same beacon, same timestamp — legal input) are
    // durable as distinct records. The checkpoint lands *inside* the
    // duplicated run, so value- or timestamp-based skipping would
    // mis-count; only position-based skipping keeps the replay exact.
    let (base, motion) = fleet_adverts(6, 91);
    let third = base.len() / 3;
    let mut adverts: Vec<Advert> = base[..third].to_vec();
    for a in &base[third..2 * third] {
        adverts.push(*a);
        adverts.push(*a); // consecutive duplicate
    }
    adverts.extend_from_slice(&base[2 * third..]);

    let dir = temp_dir("duplicates");
    let crash_at = 2 * third; // inside the duplicated region
    {
        let mut store =
            SessionStore::open(&dir, FsyncPolicy::Never, Obs::noop()).expect("open store");
        let mut engine = Engine::new(config(), estimator(), Obs::noop());
        engine.set_motion(motion.clone());
        for chunk in adverts[..crash_at].chunks(CHUNK) {
            store.append(chunk).expect("append");
            engine.ingest_all(chunk);
        }
        engine.process();
        store
            .checkpoint(&engine)
            .expect("checkpoint inside duplicates");
        for chunk in adverts[crash_at..].chunks(CHUNK) {
            store.append(chunk).expect("append");
            engine.ingest_all(chunk);
        }
        store.sync().expect("sync");
        // Crash before finish.
    }
    let (_store, mut engine, report) =
        SessionStore::recover(&dir, FsyncPolicy::Never, config(), estimator(), Obs::noop())
            .expect("recover");
    assert_eq!(report.skipped, crash_at as u64);
    assert_eq!(report.replayed, (adverts.len() - crash_at) as u64);
    engine.finish();
    let reference = reference_run(&adverts, &motion);
    assert_engines_match("duplicates", &engine, &reference);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A snapshot whose session carries another estimator tag (older
/// builds also wrote particle sessions as 2 and fingerprint sessions
/// as 3) is refused with a typed error, not misread as a streaming
/// session.
#[test]
fn mismatched_backend_is_rejected_not_garbled() {
    let (adverts, _) = fleet_adverts(4, 13);
    let dir = temp_dir("backend-mismatch");
    {
        let mut store =
            SessionStore::open(&dir, FsyncPolicy::Never, Obs::noop()).expect("open store");
        // No motion update: the snapshot's track stays empty, which puts
        // the first session's tag at a fixed offset.
        let mut engine = Engine::new(config(), estimator(), Obs::noop());
        store.append(&adverts).expect("append");
        engine.ingest_all(&adverts);
        engine.process();
        store.checkpoint(&engine).expect("checkpoint");
    }
    // Header 9, WAL position 8, shards 4, watermark 8, stats 72, empty
    // motion 36, session count 4, session fields 36, session flag 1.
    const TAG: usize = 178;
    let path = dir.join(SNAPSHOT_FILE);
    let image = std::fs::read(&path).expect("snapshot file");
    assert_eq!(image[TAG - 1], 1, "the first session has estimator state");
    assert_eq!(image[TAG], 1, "streaming sessions are tagged 1");
    for tag in [2, 3] {
        let mut foreign = image.clone();
        foreign[TAG] = tag;
        let crc_at = foreign.len() - 4;
        let crc = locble_store::crc32::crc32(&foreign[9..crc_at]);
        foreign[crc_at..].copy_from_slice(&crc.to_be_bytes());
        std::fs::write(&path, &foreign).expect("rewrite snapshot");
        let err =
            SessionStore::recover(&dir, FsyncPolicy::Never, config(), estimator(), Obs::noop())
                .expect_err("a foreign estimator tag must fail");
        assert!(
            matches!(
                err,
                RecoverError::Snapshot(SnapshotError::Codec(CodecError::Malformed {
                    context: "backend tag"
                }))
            ),
            "tag {tag}: unexpected error: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn mismatched_shard_count_is_rejected_not_garbled() {
    let (adverts, motion) = fleet_adverts(4, 13);
    let dir = temp_dir("shard-mismatch");
    {
        let mut store =
            SessionStore::open(&dir, FsyncPolicy::Never, Obs::noop()).expect("open store");
        let mut engine = Engine::new(config(), estimator(), Obs::noop());
        engine.set_motion(motion.clone());
        // Half processed, half still queued: the snapshot holds both
        // estimator state and queued adverts.
        let (done, queued) = adverts.split_at(adverts.len() / 2);
        store.append(done).expect("append");
        engine.ingest_all(done);
        engine.process();
        store.append(queued).expect("append");
        engine.ingest_all(queued);
        store.checkpoint(&engine).expect("checkpoint");
    }
    let wrong = EngineConfig {
        shards: config().shards + 1,
        ..config()
    };
    let err = SessionStore::recover(&dir, FsyncPolicy::Never, wrong, estimator(), Obs::noop())
        .expect_err("shard mismatch must fail");
    assert!(
        matches!(err, locble_store::RecoverError::Restore(_)),
        "unexpected error: {err}"
    );

    // A snapshot that contradicts its own shard layout is refused the
    // same way, typed and without a panic.
    let path = dir.join(SNAPSHOT_FILE);
    let snap = read_snapshot(&path).expect("read").expect("present");
    assert!(snap.state.sessions.len() >= 2 && snap.state.queued_total() > 0);
    let session = snap.state.sessions[0]
        .session
        .as_ref()
        .expect("session state");
    let times = &session.estimator.series_t;
    assert!(times.len() >= 2 && times[0] < times[1], "{times:?}");
    type Corruption = fn(&mut EngineState);
    let corruptions: [(&str, Corruption); 7] = [
        ("session shard out of range", |s| {
            s.sessions[0].shard = s.shards;
        }),
        ("session on another shard", |s| {
            s.sessions[0].shard = (s.sessions[0].shard + 1) % s.shards;
        }),
        ("duplicate session", |s| {
            let dup = s.sessions[0].clone();
            s.sessions.insert(1, dup);
        }),
        ("sessions out of order", |s| s.sessions.swap(0, 1)),
        ("queued advert on another shard", |s| {
            let from = s.queued.iter().position(|q| !q.is_empty()).expect("queued");
            let advert = s.queued[from].pop().expect("queued");
            let to = (from + 1) % s.shards;
            s.queued[to].push(advert);
        }),
        // A CRC-valid series out of time order, or with a NaN time,
        // would trip `TimeSeries::new`'s assertion inside the restore.
        ("session series times swapped", |s| {
            let b = s.sessions[0].session.as_mut().expect("session state");
            b.estimator.series_t.swap(0, 1);
        }),
        ("session series time is NaN", |s| {
            let b = s.sessions[0].session.as_mut().expect("session state");
            b.estimator.series_t[1] = f64::NAN;
        }),
    ];
    for (label, corrupt) in corruptions {
        let mut state = snap.state.clone();
        corrupt(&mut state);
        write_snapshot(&path, snap.wal_records, &state).expect("rewrite snapshot");
        let err =
            SessionStore::recover(&dir, FsyncPolicy::Never, config(), estimator(), Obs::noop())
                .expect_err(label);
        assert!(
            matches!(
                err,
                RecoverError::Restore(RestoreError::Inconsistent { .. })
            ),
            "{label}: unexpected error: {err}"
        );
    }
    write_snapshot(&path, snap.wal_records, &snap.state).expect("restore snapshot");
    SessionStore::recover(&dir, FsyncPolicy::Never, config(), estimator(), Obs::noop())
        .expect("the untouched snapshot recovers");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The WAL-append instrumentation counts exactly when a recorder is
/// attached — and the counters never drift from what actually hit the
/// log.
#[test]
fn wal_append_counters_track_records_and_bytes() {
    let (adverts, _) = fleet_adverts(3, 77);
    let dir = temp_dir("obs-counters");
    let obs = Obs::ring(64);
    {
        let mut store =
            SessionStore::open(&dir, FsyncPolicy::Never, obs.clone()).expect("open store");
        store.append(&adverts[..40]).expect("append");
        store.append(&adverts[40..100]).expect("append");
        assert_eq!(store.wal_records(), 100);
    }
    let m = obs.metrics();
    assert_eq!(m.counter("store.wal_appends"), 100);
    assert_eq!(
        m.counter("store.wal_bytes"),
        (100 * locble_store::wal::ADVERT_RECORD_LEN) as u64
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The streamed writer (body through a buffered writer with a running
/// CRC, length patched into the header) produces exactly the image
/// `encode_snapshot` builds in memory, over a body long enough to cross
/// many stream-buffer flushes.
#[test]
fn streamed_snapshot_file_is_byte_identical_to_the_encoded_image() {
    let (adverts, motion) = fleet_adverts(300, 77);
    let dir = temp_dir("streamed");
    let mut store = SessionStore::open(&dir, FsyncPolicy::Never, Obs::noop()).expect("open store");
    let mut engine = Engine::new(config(), estimator(), Obs::noop());
    engine.set_motion(motion);
    store.append(&adverts).expect("append");
    engine.ingest_all(&adverts);
    let bytes = store.checkpoint(&engine).expect("checkpoint");
    let file = std::fs::read(dir.join(SNAPSHOT_FILE)).expect("snapshot file");
    let image = encode_snapshot(store.wal_records(), &engine.export_state());
    assert!(
        image.len() > 4 * 64 * 1024,
        "the body must span several stream buffers ({} bytes)",
        image.len()
    );
    assert_eq!(bytes, file.len() as u64);
    assert!(
        file == image,
        "streamed file differs from the encoded image"
    );
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A `snapshot.tmp` left behind by a checkpoint that never finished
/// (a crash mid-write) is not a snapshot: recovery reads the live file,
/// and the next checkpoint overwrites the stale one.
#[test]
fn stale_snapshot_tmp_is_ignored_by_recovery() {
    let (adverts, motion) = fleet_adverts(8, 101);
    let dir = temp_dir("stale-tmp");
    let half = adverts.len() / 2;
    {
        let mut store =
            SessionStore::open(&dir, FsyncPolicy::Never, Obs::noop()).expect("open store");
        let mut engine = Engine::new(config(), estimator(), Obs::noop());
        engine.set_motion(motion.clone());
        store.append(&adverts[..half]).expect("append");
        engine.ingest_all(&adverts[..half]);
        store.checkpoint(&engine).expect("checkpoint");
        store.append(&adverts[half..]).expect("append");
    }
    let tmp = dir.join(SNAPSHOT_FILE).with_extension("tmp");
    let mut torn = encode_snapshot(
        7,
        &Engine::new(config(), estimator(), Obs::noop()).export_state(),
    );
    torn.truncate(torn.len() / 2);
    std::fs::write(&tmp, &torn).expect("stale tmp");

    let (mut store, mut engine, report) =
        SessionStore::recover(&dir, FsyncPolicy::Never, config(), estimator(), Obs::noop())
            .expect("recover past a stale tmp");
    assert!(report.snapshot_found);
    assert_eq!(report.skipped, half as u64);
    assert_eq!(report.replayed, (adverts.len() - half) as u64);
    store
        .checkpoint(&engine)
        .expect("checkpoint over the stale tmp");
    assert!(!tmp.exists(), "the rename consumes the tmp file");
    engine.finish();
    assert_engines_match("stale-tmp", &engine, &reference_run(&adverts, &motion));
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A background checkpoint that fails reports at the next checkpoint
/// call, which starts nothing; the previous snapshot plus the WAL still
/// recover bit-identically. A later background checkpoint, once the
/// fault clears, covers the whole log.
#[test]
fn background_checkpoint_failure_surfaces_and_the_previous_snapshot_recovers() {
    let (adverts, motion) = fleet_adverts(8, 55);
    let dir = temp_dir("background");
    let tmp = dir.join(SNAPSHOT_FILE).with_extension("tmp");
    let half = adverts.len() / 2;
    let mut store = SessionStore::open(&dir, FsyncPolicy::Never, Obs::noop()).expect("open store");
    let mut engine = Engine::new(config(), estimator(), Obs::noop());
    engine.set_motion(motion.clone());
    store.append(&adverts[..half]).expect("append");
    engine.ingest_all(&adverts[..half]);
    store
        .checkpoint_in_background(&engine)
        .expect("start checkpoint");
    store.wait_checkpoint().expect("background checkpoint");

    std::fs::create_dir(&tmp).expect("squat on the tmp name");
    store.append(&adverts[half..]).expect("append");
    engine.ingest_all(&adverts[half..]);
    store
        .checkpoint_in_background(&engine)
        .expect("the job starts; its write fails later");
    assert!(
        store.checkpoint_in_background(&engine).is_err(),
        "the failed job must surface at the next checkpoint"
    );
    store.wait_checkpoint().expect("nothing left in flight");

    let recover = || {
        SessionStore::recover(&dir, FsyncPolicy::Never, config(), estimator(), Obs::noop())
            .expect("recover")
    };
    let (_, mut recovered, report) = recover();
    assert_eq!(report.skipped, half as u64, "the pre-fault snapshot stands");
    assert_eq!(report.replayed, (adverts.len() - half) as u64);
    recovered.finish();
    let reference = reference_run(&adverts, &motion);
    assert_engines_match("background-fault", &recovered, &reference);

    std::fs::remove_dir(&tmp).expect("clear the fault");
    store
        .checkpoint_in_background(&engine)
        .expect("start checkpoint");
    drop(store); // waits for the job
    let (_, mut recovered, report) = recover();
    assert_eq!(report.replayed, 0, "the last snapshot covers the log");
    recovered.finish();
    assert_engines_match("background", &recovered, &reference);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
