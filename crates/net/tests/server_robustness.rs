//! Server robustness: slow-loris timeouts, malformed frames, capacity
//! exhaustion, and shutdown-drain ordering — each failure mode must be
//! typed and accounted, never a panic or a silent drop.

use locble_ble::BeaconId;
use locble_core::{Estimator, EstimatorConfig};
use locble_engine::{Advert, Engine, EngineConfig};
use locble_net::wire::{ErrorCode, Frame, IngestSummary, WIRE_VERSION};
use locble_net::{Client, ClientError, Server, ServerConfig};
use locble_obs::Obs;
use std::time::Duration;

fn test_engine(config: EngineConfig) -> Engine {
    Engine::new(
        config,
        Estimator::new(EstimatorConfig::default()),
        Obs::noop(),
    )
}

fn bind_server(
    engine_config: EngineConfig,
    server_config: ServerConfig,
) -> locble_net::ServerHandle {
    Server::bind(test_engine(engine_config), server_config, Obs::ring(256))
        .expect("bind on loopback")
}

fn advert(beacon: u32, t: f64, rssi_dbm: f64) -> Advert {
    Advert {
        beacon: BeaconId(beacon),
        t,
        rssi_dbm,
    }
}

/// A partial frame that stalls past the read timeout closes the
/// connection (slow-loris defence), and the close is counted.
#[test]
fn slow_loris_partial_frame_is_timed_out() {
    let server = bind_server(
        EngineConfig::default(),
        ServerConfig {
            read_timeout: Duration::from_millis(120),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(server.addr()).expect("connect");
    // First three bytes of a valid frame, then silence.
    let bytes = locble_net::wire::encode_frame(&Frame::QueryStats);
    client.send_raw(&bytes[..3]).expect("partial send");
    match client.read_frame() {
        Err(ClientError::ConnectionClosed) | Err(ClientError::Io(_)) => {}
        other => panic!("expected the server to close, got {other:?}"),
    }
    let obs = server.obs().clone();
    drop(server); // joins every handler thread
    let metrics = obs.metrics();
    assert_eq!(metrics.counter("net.read_timeouts"), 1);
    assert_eq!(metrics.counter("net.connections_closed"), 1);
}

/// An idle connection (no buffered bytes) is NOT closed by the read
/// timeout — only a stalled partial frame is.
#[test]
fn idle_connection_survives_read_timeouts() {
    let server = bind_server(
        EngineConfig::default(),
        ServerConfig {
            read_timeout: Duration::from_millis(80),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(server.addr()).expect("connect");
    // Sit idle across several read-timeout windows, then speak.
    std::thread::sleep(Duration::from_millis(300));
    let stats = client.stats().expect("idle connection still serves");
    assert_eq!(stats.samples_routed, 0);
    let obs = server.obs().clone();
    drop(server);
    assert_eq!(obs.metrics().counter("net.read_timeouts"), 0);
}

/// A malformed frame body (valid length prefix, garbage inside) gets a
/// typed Error reply and the connection keeps working.
#[test]
fn malformed_frame_gets_error_reply_and_connection_stays_usable() {
    let server = bind_server(EngineConfig::default(), ServerConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");

    // Unknown tag: [len=2][version][tag=200].
    client
        .send_raw(&[0, 0, 0, 2, WIRE_VERSION, 200])
        .expect("send bad tag");
    match client.read_frame().expect("error reply") {
        Frame::Error(e) => assert_eq!(e.code, ErrorCode::BadFrame),
        other => panic!("expected Error frame, got {other:?}"),
    }

    // Wrong protocol version: [len=2][version+1][tag=7 (QueryStats)].
    client
        .send_raw(&[0, 0, 0, 2, WIRE_VERSION + 1, 7])
        .expect("send bad version");
    match client.read_frame().expect("error reply") {
        Frame::Error(e) => assert_eq!(e.code, ErrorCode::UnsupportedVersion),
        other => panic!("expected Error frame, got {other:?}"),
    }

    // A reply frame sent as a request is rejected, not crashed on.
    client
        .send_frame(&Frame::IngestAck(IngestSummary::default()))
        .expect("send reply-as-request");
    match client.read_frame().expect("error reply") {
        Frame::Error(e) => assert_eq!(e.code, ErrorCode::BadFrame),
        other => panic!("expected Error frame, got {other:?}"),
    }

    // Same connection still serves real requests afterwards.
    let summary = client
        .ingest(&[advert(7, 0.0, -60.0)])
        .expect("connection still usable");
    assert_eq!(summary.consumed, 1);
    assert_eq!(summary.routed, 1);

    let obs = server.obs().clone();
    drop(server);
    let metrics = obs.metrics();
    // Two decode-level errors (bad tag, bad version); the
    // reply-as-request decoded fine and is rejected at dispatch.
    assert_eq!(metrics.counter("net.frame_errors"), 2);
    assert_eq!(metrics.counter("net.framing_lost"), 0);
}

/// An unusable length prefix (oversized) means framing is lost: the
/// server answers with one Error frame and closes.
#[test]
fn oversized_length_prefix_closes_connection() {
    let server = bind_server(EngineConfig::default(), ServerConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .send_raw(&u32::MAX.to_be_bytes())
        .expect("send hostile length");
    match client.read_frame().expect("error reply before close") {
        Frame::Error(e) => assert_eq!(e.code, ErrorCode::BadFrame),
        other => panic!("expected Error frame, got {other:?}"),
    }
    match client.read_frame() {
        Err(ClientError::ConnectionClosed) | Err(ClientError::Io(_)) => {}
        other => panic!("expected close after framing loss, got {other:?}"),
    }
    let obs = server.obs().clone();
    drop(server);
    assert_eq!(obs.metrics().counter("net.framing_lost"), 1);
}

/// Session-table exhaustion surfaces as exact per-cause reject counts
/// in the IngestAck — the connection is never dropped, and the numbers
/// reconcile against the engine's own stats.
#[test]
fn capacity_exhaustion_is_typed_with_exact_counts() {
    let server = bind_server(
        EngineConfig {
            max_sessions: 2,
            idle_evict_s: f64::INFINITY,
            ..EngineConfig::default()
        },
        ServerConfig::default(),
    );
    let mut client = Client::connect(server.addr()).expect("connect");

    // 4 beacons × 3 adverts; only the first two distinct beacons fit.
    let mut batch = Vec::new();
    for k in 0..3 {
        for beacon in 1..=4 {
            batch.push(advert(beacon, k as f64 * 0.3, -58.0));
        }
    }
    let summary = client
        .ingest(&batch)
        .expect("batch is consumed, not refused");
    assert_eq!(summary.consumed, 12);
    assert_eq!(summary.routed, 6);
    assert_eq!(summary.sessions_created, 2);
    assert_eq!(summary.rejected_capacity, 6);
    assert_eq!(summary.rejected_non_finite, 0);
    assert_eq!(summary.rejected_out_of_order, 0);

    // The other reject causes are accounted separately and exactly.
    let summary = client
        .ingest(&[
            advert(1, f64::NAN, -60.0), // non-finite timestamp
            advert(1, 0.2, -60.0),      // behind beacon 1's watermark
            advert(9, 1.2, -60.0),      // still over capacity
        ])
        .expect("rejects are counts, not errors");
    assert_eq!(summary.consumed, 3);
    assert_eq!(summary.routed, 0);
    assert_eq!(summary.rejected_non_finite, 1);
    assert_eq!(summary.rejected_out_of_order, 1);
    assert_eq!(summary.rejected_capacity, 1);

    // Wire-level accounting matches the engine's own counters.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.samples_routed, 6);
    assert_eq!(stats.samples_rejected, 9);
    assert_eq!(stats.sessions_created, 2);
    assert_eq!(stats.sessions_live, 2);
}

/// Shutdown ordering: everything acked before shutdown is processed
/// before the engine comes back — queues are empty, samples accounted.
#[test]
fn shutdown_drains_every_acked_sample() {
    let server = bind_server(EngineConfig::default(), ServerConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");
    let batch: Vec<Advert> = (0..200)
        .map(|k| advert(1 + (k % 5), k as f64 * 0.05, -62.0))
        .collect();
    let summary = client.ingest(&batch).expect("ingest");
    assert_eq!(summary.routed, 200);
    drop(client);

    let engine = server.shutdown();
    assert_eq!(engine.queued(), 0, "shutdown must drain every shard");
    assert_eq!(engine.stats().samples_processed, 200);
}
