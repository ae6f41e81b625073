//! Real-crash durability under the reactor: a child process runs a
//! `bind_durable` reactor server and streams a fleet trace into it over
//! loopback; the parent SIGKILLs the child mid-stream — no graceful
//! drain, no shutdown checkpoint, the kernel just stops the world —
//! then recovers the store directory, resumes the stream behind a fresh
//! reactor from exactly the durable record count, and requires the
//! finished engine to be bit-identical to an uninterrupted reference.
//!
//! The child is this same test binary re-executed with `--exact` on the
//! env-gated helper below; without the env var the helper is a no-op.

use locble_ble::BeaconId;
use locble_core::{Estimator, EstimatorConfig, LocationEstimate};
use locble_engine::{Advert, Engine, EngineConfig};
use locble_net::{Client, Server, ServerConfig};
use locble_obs::Obs;
use locble_scenario::fleet_session;
use locble_scenario::runner::track_observer;
use locble_store::{FsyncPolicy, SessionStore};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

const CHILD_DIR_ENV: &str = "LOCBLE_REACTOR_CRASH_DIR";
const FLEET_BEACONS: usize = 10;
const FLEET_SEED: u64 = 53;
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

/// Env-gated child body: streams the fleet trace through a durable
/// reactor server, reporting cumulative acked adverts on stdout so the
/// parent can time its kill. A no-op (passing) test when the env var is
/// absent. The trailing sleep keeps the process alive if it somehow
/// outruns the parent's SIGKILL.
#[test]
fn child_streams_until_killed() {
    let Ok(dir) = std::env::var(CHILD_DIR_ENV) else {
        return;
    };
    let dir = std::path::PathBuf::from(dir);
    let adverts = fleet_adverts();
    let session = fleet_session(FLEET_BEACONS, FLEET_SEED);
    let mut store =
        SessionStore::open(&dir, FsyncPolicy::EveryAppend, Obs::noop()).expect("open store");
    let mut engine = Engine::new(
        EngineConfig::default(),
        Estimator::new(EstimatorConfig::default()),
        Obs::noop(),
    );
    engine.set_motion(track_observer(&session));
    // Pre-stream checkpoint so the motion track is covered by recovery.
    store.checkpoint(&engine).expect("motion checkpoint");
    let server = Server::bind_durable(engine, store, 150, ServerConfig::default(), Obs::noop())
        .expect("bind durable");
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut acked = 0usize;
    let stdout = std::io::stdout();
    for chunk in adverts.chunks(CHUNK) {
        let ack = client.ingest(chunk).expect("ingest");
        assert_eq!(ack.consumed, chunk.len() as u64);
        acked += chunk.len();
        {
            let mut out = stdout.lock();
            writeln!(out, "acked {acked}").expect("report progress");
            out.flush().expect("flush progress");
        }
        // Give the parent a window to land the kill mid-stream.
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    std::thread::sleep(std::time::Duration::from_secs(3600));
}

#[test]
fn sigkilled_durable_reactor_recovers_and_resumes_exactly() {
    let adverts = fleet_adverts();
    let session = fleet_session(FLEET_BEACONS, FLEET_SEED);
    let estimator = Estimator::new(EstimatorConfig::default());
    let motion = track_observer(&session);
    let config = EngineConfig::default();
    let dir = std::env::temp_dir().join(format!("locble-reactor-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("store dir");

    // Reference: the whole stream, no network, no crash.
    let mut reference = Engine::new(config.clone(), estimator.clone(), Obs::noop());
    reference.set_motion(motion.clone());
    reference.ingest_all(&adverts);
    reference.finish();
    let want = reference.snapshot();
    assert!(want.len() >= 6, "reference localized too few beacons");

    // Kill once at least 2/5 of the stream is acked (and durable): the
    // child keeps streaming, so the SIGKILL lands mid-flight.
    let kill_after = (adverts.len() * 2) / 5;
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = Command::new(exe)
        .args(["--exact", "child_streams_until_killed", "--nocapture"])
        .env(CHILD_DIR_ENV, &dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn child");
    let reader = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut last_acked = 0usize;
    for line in reader.lines() {
        let line = line.expect("child line");
        if let Some(n) = line.strip_prefix("acked ") {
            last_acked = n.trim().parse().expect("acked count");
            if last_acked >= kill_after {
                break;
            }
        }
    }
    assert!(
        last_acked >= kill_after,
        "child exited after only {last_acked} acked adverts"
    );
    child.kill().expect("SIGKILL child");
    let _ = child.wait();

    // Recover. Every *acked* advert was fsynced before its ack, so the
    // durable record count is at least what the parent saw acked; the
    // kill may have caught later appends at any point (recovery trusts
    // the log, torn tail included).
    let (store, engine, report) = SessionStore::recover(
        &dir,
        FsyncPolicy::EveryAppend,
        config.clone(),
        estimator.clone(),
        Obs::noop(),
    )
    .expect("recover");
    assert!(report.snapshot_found);
    let durable = report.wal_records as usize;
    assert!(
        durable >= last_acked,
        "acked {last_acked} adverts but only {durable} durable"
    );
    assert!(durable <= adverts.len());
    assert_eq!(report.skipped + report.replayed, durable as u64);

    // Resume behind a fresh reactor from exactly the durable prefix.
    let server = Server::bind_durable(engine, store, 150, ServerConfig::default(), Obs::noop())
        .expect("rebind durable");
    let mut client = Client::connect(server.addr()).expect("reconnect");
    for chunk in adverts[durable..].chunks(CHUNK) {
        let ack = client.ingest(chunk).expect("ingest after recovery");
        assert_eq!(ack.consumed, chunk.len() as u64);
    }
    client.finish().expect("finish");
    drop(client);
    let engine = server.shutdown();
    assert_bit_identical("resumed engine", &engine.snapshot(), &want);
    let (got, want_stats) = (engine.stats(), reference.stats());
    assert_eq!(got.samples_routed, want_stats.samples_routed);
    assert_eq!(got.samples_rejected, want_stats.samples_rejected);
    assert_eq!(got.samples_processed, want_stats.samples_processed);
    assert_eq!(got.sessions_created, want_stats.sessions_created);
    assert_eq!(got.batches_pushed, want_stats.batches_pushed);

    // The shutdown checkpoint covers the log: a later restart replays
    // nothing.
    let (_store, restarted, report) = SessionStore::recover(
        &dir,
        FsyncPolicy::EveryAppend,
        config,
        estimator,
        Obs::noop(),
    )
    .expect("recover after shutdown");
    assert!(report.snapshot_found);
    assert_eq!(report.replayed, 0, "shutdown checkpoint covers the log");
    assert_bit_identical("restarted engine", &restarted.snapshot(), &want);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
