//! Live introspection over loopback: one traced batch must leave
//! per-stage latency attributable to *that* batch (decode, coalesce,
//! route, shard-queue wait, refit, ack) in the server's trace table, the server's metrics frames must
//! expose the per-stage histograms, and a decode storm must dump the
//! flight recorder to a parseable file.

use locble_ble::BeaconId;
use locble_core::{Estimator, EstimatorConfig};
use locble_engine::{Advert, Engine, EngineConfig};
use locble_net::{Client, Server, ServerConfig, WireAdvert};
use locble_obs::{trace_id, Obs, Stage, TraceCtx};
use std::path::PathBuf;

fn engine(obs: Obs) -> Engine {
    Engine::new(
        EngineConfig::default(),
        Estimator::new(EstimatorConfig::default()),
        obs,
    )
}

fn adverts(n: usize) -> Vec<Advert> {
    (0..n)
        .map(|i| Advert {
            beacon: BeaconId((i % 7) as u32),
            t: i as f64 * 0.1,
            rssi_dbm: -60.0,
        })
        .collect()
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("locble-introspection-{tag}-{}", std::process::id()))
}

#[test]
fn one_traced_batch_is_attributable_per_stage() {
    let obs = Obs::ring(4096);
    let server = Server::bind(engine(obs.clone()), ServerConfig::default(), obs).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let id = trace_id(0xC11E47, 1);
    let batch: Vec<WireAdvert> = adverts(300).into_iter().map(WireAdvert::from).collect();
    let (summary, replica_durable) = client
        .forward(1, TraceCtx::mint(id), batch)
        .expect("traced ingest");
    assert_eq!(summary.consumed, 300);
    assert_eq!(summary.routed, 300);
    assert_eq!(replica_durable, 0, "a standalone server has no follower");

    // No reply carries laps: the server's trace table holds them all,
    // the ack's own write included.
    let records = client.traces(Some(id)).expect("trace query");
    assert_eq!(records.len(), 1, "exactly one record for the traced batch");
    let record = &records[0];
    assert_eq!(record.ctx.trace_id, id);
    assert!(
        record.ctx.has_stage(Stage::Client),
        "the client's path bit survives"
    );
    for stage in [
        Stage::Decode,
        Stage::Coalesce,
        Stage::Route,
        Stage::ShardQueue,
        Stage::Refit,
        Stage::Ack,
    ] {
        assert!(
            record.lap(stage).is_some(),
            "trace record missing {} lap: {:?}",
            stage.name(),
            record.laps
        );
        assert!(record.ctx.has_stage(stage), "path missing {}", stage.name());
    }
    // Laps are wall-clock laps of this one batch: every start is within
    // the handle's epoch-relative timeline and durations are sane
    // (under a minute for 300 adverts on loopback).
    for lap in &record.laps {
        assert!(lap.duration_us < 60_000_000, "absurd lap: {lap:?}");
    }

    // An unknown id returns an empty report, not an error.
    assert!(client.traces(Some(id ^ 1)).expect("miss").is_empty());

    // The full-table query contains the same trace.
    let all = client.traces(None).expect("all traces");
    assert!(all.iter().any(|r| r.ctx.trace_id == id));

    // The per-stage histograms observed this batch's laps.
    let metrics = client.metrics().expect("metrics");
    let snapshot = metrics.to_snapshot();
    for stage in [
        Stage::Decode,
        Stage::Route,
        Stage::ShardQueue,
        Stage::Refit,
        Stage::Ack,
    ] {
        let hist = snapshot
            .histograms
            .get(stage.histogram_name())
            .unwrap_or_else(|| panic!("{} histogram not served", stage.histogram_name()));
        assert!(
            hist.count >= 1,
            "{} histogram is empty",
            stage.histogram_name()
        );
    }
    assert!(snapshot.counter("net.frames_rx") >= 1);

    client.finish().expect("finish");
    drop(client);
    server.shutdown();
}

#[test]
fn decode_storm_dumps_the_flight_recorder() {
    let dump = temp_path("storm");
    let _ = std::fs::remove_file(&dump);
    let obs = Obs::ring(4096);
    let config = ServerConfig {
        flight_dump_path: Some(dump.clone()),
        decode_storm_threshold: 3,
        ..ServerConfig::default()
    };
    let server = Server::bind(engine(obs.clone()), config, obs).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Some real traffic first, so the dump has history to show.
    client.ingest(&adverts(50)).expect("ingest");

    // Three framed-but-malformed requests: the length prefix is valid,
    // the tag is not, so each one is a recoverable decode error.
    let mut bad = locble_net::encode_frame(&locble_net::Frame::QueryStats);
    bad[5] = 250; // corrupt the tag byte (after 4-byte length + version)
    for _ in 0..3 {
        client.send_raw(&bad).expect("send");
        match client.read_frame().expect("reply") {
            locble_net::Frame::Error(e) => {
                assert_eq!(e.code, locble_net::ErrorCode::BadFrame)
            }
            other => panic!("expected an error reply, got {other:?}"),
        }
    }

    // The third error crossed the threshold: the dump exists, its tmp
    // sibling was renamed away, and every line parses back into an
    // event.
    let text = std::fs::read_to_string(&dump).expect("dump written");
    assert!(
        !dump.with_extension("tmp").exists(),
        "dump written atomically"
    );
    let events = locble_obs::events_from_jsonl(&text).expect("dump parses");
    assert!(!events.is_empty(), "dump has no events");
    assert!(
        events.iter().any(|e| e.name == "flight_dump"),
        "dump lacks its own trigger event"
    );

    drop(client);
    server.shutdown();
    let _ = std::fs::remove_file(&dump);
}
