//! Reactor robustness at epoll scale: many concurrent slow-loris
//! connections dribbling one byte per readiness event, mid-frame
//! disconnects, garbage-then-valid pipelined streams, a peer that
//! never reads its acks, and reply bursts batched into one write per
//! connection per tick — through all of it the single-threaded event
//! loop must stay live for well-behaved clients and account exactly.

use locble_ble::BeaconId;
use locble_core::{Estimator, EstimatorConfig};
use locble_engine::{Advert, Engine, EngineConfig};
use locble_net::conn::WRITE_BACKPRESSURE_BYTES;
use locble_net::wire::{encode_frame, ErrorCode, Frame, WireAdvert, WIRE_VERSION};
use locble_net::{Client, Server, ServerConfig, ServerHandle};
use locble_obs::Obs;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn test_engine(config: EngineConfig) -> Engine {
    Engine::new(
        config,
        Estimator::new(EstimatorConfig::default()),
        Obs::noop(),
    )
}

fn bind_server(engine_config: EngineConfig, server_config: ServerConfig) -> ServerHandle {
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

/// Polls a counter until it reaches `want` (or panics after `patience`).
fn wait_for_counter(server: &ServerHandle, name: &str, want: u64, patience: Duration) {
    let deadline = Instant::now() + patience;
    loop {
        let got = server.obs().metrics().counter(name);
        if got >= want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{name} stuck at {got}, wanted {want}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// 100 simultaneous slow-loris connections, each delivering one byte of
/// a frame per readiness event and then stalling: the timer wheel must
/// reap every one of them, and a well-behaved client must be served
/// promptly the whole time.
#[test]
fn hundred_slow_loris_connections_are_reaped_while_server_stays_live() {
    const LORIS: usize = 100;
    let server = bind_server(
        EngineConfig::default(),
        ServerConfig {
            read_timeout: Duration::from_millis(150),
            ..ServerConfig::default()
        },
    );

    let bytes = encode_frame(&Frame::QueryStats);
    let mut conns: Vec<TcpStream> = (0..LORIS)
        .map(|_| TcpStream::connect(server.addr()).expect("connect"))
        .collect();

    // Three single-byte dribbles per connection — each byte is its own
    // readiness event and re-arms that connection's deadline.
    for round in 0..3 {
        for conn in &mut conns {
            conn.write_all(&bytes[round..round + 1]).expect("dribble");
        }
        // The server must answer a healthy client while 100 partial
        // frames are pending.
        let mut healthy = Client::connect(server.addr()).expect("healthy connect");
        let stats = healthy.stats().expect("served mid-storm");
        assert_eq!(stats.samples_routed, 0);
        std::thread::sleep(Duration::from_millis(40));
    }

    // Silence: every loris stalls with a partial frame buffered. The
    // wheel must close all 100, each counted as a read timeout.
    wait_for_counter(
        &server,
        "net.read_timeouts",
        LORIS as u64,
        Duration::from_secs(10),
    );

    // Still live afterwards.
    let mut healthy = Client::connect(server.addr()).expect("connect after storm");
    let summary = healthy.ingest(&[advert(1, 0.0, -60.0)]).expect("ingest");
    assert_eq!(summary.routed, 1);

    let obs = server.obs().clone();
    drop(conns);
    drop(healthy);
    drop(server);
    let metrics = obs.metrics();
    assert_eq!(metrics.counter("net.read_timeouts"), LORIS as u64);
    // No loris ever completed a frame, so none were decode errors.
    assert_eq!(metrics.counter("net.framing_lost"), 0);
}

/// Peers that vanish mid-frame: the reactor must fold the EOF into a
/// plain close — no timeout counted, no framing-lost counted, and the
/// engine never sees a partial batch.
#[test]
fn mid_frame_disconnects_close_cleanly() {
    const DROPPERS: usize = 20;
    let server = bind_server(EngineConfig::default(), ServerConfig::default());

    let batch: Vec<WireAdvert> = (0..50)
        .map(|i| WireAdvert {
            beacon: 1,
            t: i as f64 * 0.1,
            rssi_dbm: -60.0,
        })
        .collect();
    let bytes = encode_frame(&Frame::AdvertBatch(batch));
    for _ in 0..DROPPERS {
        let mut conn = TcpStream::connect(server.addr()).expect("connect");
        // Half a frame, then a hard disconnect.
        conn.write_all(&bytes[..bytes.len() / 2]).expect("partial");
        drop(conn);
    }
    wait_for_counter(
        &server,
        "net.connections_closed",
        DROPPERS as u64,
        Duration::from_secs(5),
    );

    // The torn batches never reached the engine.
    let mut client = Client::connect(server.addr()).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.samples_routed, 0);
    assert_eq!(stats.samples_rejected, 0);

    let obs = server.obs().clone();
    drop(client);
    drop(server);
    let metrics = obs.metrics();
    assert_eq!(metrics.counter("net.read_timeouts"), 0);
    assert_eq!(metrics.counter("net.framing_lost"), 0);
}

/// Garbage-then-valid, pipelined into a single write: the framed-but-
/// malformed request draws a typed error, the valid requests behind it
/// in the same tick are executed in order, and the accounting is exact.
#[test]
fn garbage_then_valid_pipelined_stream_recovers_in_order() {
    let server = bind_server(EngineConfig::default(), ServerConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");

    let batch: Vec<Advert> = (0..30).map(|i| advert(2, i as f64 * 0.1, -58.0)).collect();
    let wire_batch: Vec<WireAdvert> = batch.iter().map(|a| WireAdvert::from(*a)).collect();

    // One write carrying: [bad tag][valid ingest][bad version][stats].
    let mut pipelined = Vec::new();
    pipelined.extend_from_slice(&[0, 0, 0, 2, WIRE_VERSION, 200]);
    pipelined.extend_from_slice(&encode_frame(&Frame::AdvertBatch(wire_batch)));
    pipelined.extend_from_slice(&[0, 0, 0, 2, WIRE_VERSION + 1, 7]);
    pipelined.extend_from_slice(&encode_frame(&Frame::QueryStats));
    client.send_raw(&pipelined).expect("pipelined send");

    match client.read_frame().expect("first reply") {
        Frame::Error(e) => assert_eq!(e.code, ErrorCode::BadFrame),
        other => panic!("expected BadFrame error, got {other:?}"),
    }
    match client.read_frame().expect("second reply") {
        Frame::IngestAck(summary) => {
            assert_eq!(summary.consumed, 30);
            assert_eq!(summary.routed, 30);
        }
        other => panic!("expected IngestAck, got {other:?}"),
    }
    match client.read_frame().expect("third reply") {
        Frame::Error(e) => assert_eq!(e.code, ErrorCode::UnsupportedVersion),
        other => panic!("expected UnsupportedVersion error, got {other:?}"),
    }
    match client.read_frame().expect("fourth reply") {
        Frame::Stats(stats) => assert_eq!(stats.samples_routed, 30),
        other => panic!("expected Stats, got {other:?}"),
    }

    let obs = server.obs().clone();
    drop(client);
    drop(server);
    let metrics = obs.metrics();
    assert_eq!(metrics.counter("net.frame_errors"), 2);
    assert_eq!(metrics.counter("net.framing_lost"), 0);
}

/// A peer that pipelines hundreds of batches without reading a single
/// ack: the reactor must keep serving other clients (its loop never
/// blocks on the rude peer's replies), and when the peer finally reads,
/// every ack arrives in order with exact counts.
#[test]
fn peer_that_never_reads_acks_cannot_stall_the_reactor() {
    const BATCHES: usize = 200;
    const PER_BATCH: usize = 50;
    let server = bind_server(
        EngineConfig {
            idle_evict_s: f64::INFINITY,
            ..EngineConfig::default()
        },
        ServerConfig::default(),
    );
    let mut rude = Client::connect(server.addr()).expect("connect");

    // Fire everything without reading a byte back.
    let mut t = 0.0;
    for _ in 0..BATCHES {
        let batch: Vec<WireAdvert> = (0..PER_BATCH)
            .map(|i| {
                t += 0.01;
                WireAdvert {
                    beacon: 1 + (i % 5) as u32,
                    t,
                    rssi_dbm: -61.0,
                }
            })
            .collect();
        rude.send_frame(&Frame::AdvertBatch(batch)).expect("send");
    }

    // While the rude peer's acks pile up, other clients are served.
    let mut healthy = Client::connect(server.addr()).expect("healthy connect");
    let t0 = Instant::now();
    healthy.stats().expect("served while acks pile up");
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "reactor stalled behind an unread ack backlog"
    );

    // Now drain: every ack must come back, in order, exact.
    let mut consumed = 0u64;
    let mut routed = 0u64;
    for _ in 0..BATCHES {
        match rude.read_frame().expect("ack") {
            Frame::IngestAck(summary) => {
                assert_eq!(summary.consumed, PER_BATCH as u64);
                consumed += summary.consumed;
                routed += summary.routed;
            }
            other => panic!("expected IngestAck, got {other:?}"),
        }
    }
    assert_eq!(consumed, (BATCHES * PER_BATCH) as u64);
    assert_eq!(routed, consumed, "all timestamps advance; nothing rejected");

    let stats = rude.stats().expect("stats");
    assert_eq!(stats.samples_routed, routed);
    assert_eq!(stats.samples_rejected, 0);

    drop(rude);
    drop(healthy);
    let engine = server.shutdown();
    assert_eq!(engine.queued(), 0);
    assert_eq!(engine.stats().samples_processed as u64, routed);
}

/// 64 `AdvertBatch` + `QueryBeacon` pairs pipelined into one write: the
/// reactor executes them in one or a few ticks and writes each tick's
/// replies together, yet every one of the 128 replies arrives, in
/// order, with exact counts.
#[test]
fn pipelined_pairs_get_every_reply_in_order() {
    const PAIRS: u32 = 64;
    const PER_BATCH: u32 = 8;
    let server = bind_server(EngineConfig::default(), ServerConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");

    let mut pipelined = Vec::new();
    for k in 0..PAIRS {
        let batch: Vec<WireAdvert> = (0..PER_BATCH)
            .map(|i| WireAdvert {
                beacon: k % 4,
                t: f64::from(k * PER_BATCH + i) * 0.01,
                rssi_dbm: -63.0,
            })
            .collect();
        pipelined.extend_from_slice(&encode_frame(&Frame::AdvertBatch(batch)));
        pipelined.extend_from_slice(&encode_frame(&Frame::QueryBeacon(k % 4)));
    }
    let frames_tx = server.obs().metrics().counter("net.frames_tx");
    client.send_raw(&pipelined).expect("pipelined send");

    for k in 0..PAIRS {
        match client.read_frame().expect("ack") {
            Frame::IngestAck(summary) => {
                assert_eq!(summary.consumed, u64::from(PER_BATCH), "pair {k}");
                assert_eq!(summary.routed, u64::from(PER_BATCH), "pair {k}");
                assert_eq!(summary.sessions_created, u64::from(k < 4), "pair {k}");
            }
            other => panic!("pair {k}: expected IngestAck, got {other:?}"),
        }
        match client.read_frame().expect("beacon reply") {
            // No motion track, so no beacon has an estimate yet.
            Frame::BeaconReply(None) => {}
            other => panic!("pair {k}: expected an empty BeaconReply, got {other:?}"),
        }
    }
    assert_eq!(
        server.obs().metrics().counter("net.frames_tx") - frames_tx,
        u64::from(2 * PAIRS)
    );
    let stats = client.stats().expect("stats");
    assert_eq!(stats.samples_routed, u64::from(PAIRS * PER_BATCH));
    assert_eq!(stats.samples_rejected, 0);
}

/// A pipelined burst whose replies dwarf `WRITE_BACKPRESSURE_BYTES`,
/// from a peer that does not read: the reactor writes early, pauses
/// reading from the peer once the backlog passes the bound, and when
/// the peer finally reads, every reply drains and the connection
/// serves on.
#[test]
fn reply_burst_past_the_backpressure_bound_pauses_then_drains() {
    let server = bind_server(EngineConfig::default(), ServerConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");
    let batch: Vec<Advert> = (0..40).map(|i| advert(3, i as f64 * 0.1, -60.0)).collect();
    client.ingest(&batch).expect("ingest");

    // Metrics reports are the largest replies a plain node sends. Ask
    // for 64× the bound's worth, far past what the kernel's socket
    // buffers absorb.
    let report_len = encode_frame(&Frame::MetricsReport(client.metrics().expect("metrics"))).len();
    let requests = 64 * WRITE_BACKPRESSURE_BYTES / report_len;
    let burst: Vec<u8> = (0..requests)
        .flat_map(|_| encode_frame(&Frame::MetricsQuery))
        .collect();
    client.send_raw(&burst).expect("burst send");
    wait_for_counter(
        &server,
        "net.backpressure_pauses",
        1,
        Duration::from_secs(10),
    );

    for i in 0..requests {
        match client.read_frame().expect("metrics reply") {
            Frame::MetricsReport(_) => {}
            other => panic!("reply {i}: expected MetricsReport, got {other:?}"),
        }
    }
    let stats = client.stats().expect("served after draining");
    assert_eq!(stats.samples_routed, 40);
}
