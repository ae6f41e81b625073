//! End-to-end differential determinism over loopback: the accepted
//! advert stream delivered through `locble-net` must leave the engine
//! in a state **bit-identical** to calling `Engine::ingest_all` on the
//! same sequence directly — same estimates out of the wire snapshot,
//! same estimates out of the engine handed back by shutdown.

use locble_ble::BeaconId;
use locble_core::{Estimator, EstimatorConfig, LocationEstimate};
use locble_engine::{Advert, Engine, EngineConfig};
use locble_net::{Client, Server, ServerConfig};
use locble_obs::Obs;
use locble_scenario::fleet_session;
use locble_scenario::runner::track_observer;

/// Byte-level equality on every estimate field (same discipline as the
/// engine's own determinism suite).
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

/// Full tracing must be invisible to the math and to the schedule:
/// the same stream shipped as `Forward` frames under a minted
/// [`TraceCtx`] per batch into a *recording* server (so every
/// decode/route/shard-queue/refit/ack lap actually fires) leaves
/// estimates bit-identical to the untraced noop run, and engine
/// statistics equal field by field, pass count included.
#[test]
fn fully_traced_stream_is_bit_identical_to_noop_run() {
    use locble_net::WireAdvert;
    use locble_obs::{trace_id, Stage, TraceCtx};

    let session = fleet_session(10, 41);
    let estimator = Estimator::new(EstimatorConfig::default());
    let motion = track_observer(&session);
    let adverts: Vec<Advert> = session
        .interleaved_rss()
        .into_iter()
        .map(Advert::from)
        .collect();
    let config = EngineConfig::default();

    // Reference: untraced wire path into a noop-instrumented server.
    let mut engine = Engine::new(config.clone(), estimator.clone(), Obs::noop());
    engine.set_motion(motion.clone());
    let server = Server::bind(engine, ServerConfig::default(), Obs::noop()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    for chunk in adverts.chunks(97) {
        client.ingest(chunk).expect("ingest");
    }
    client.finish().expect("finish");
    let want_stats = client.stats().expect("stats");
    let want = client.snapshot().expect("snapshot");
    drop(client);
    server.shutdown();

    // Traced path: identical stream, every batch under a trace context,
    // into a recording server. Each batch's record is read back before
    // the next batch goes out (the trace table holds 256 records).
    let mut engine = Engine::new(config, estimator, Obs::ring(4096));
    engine.set_motion(motion);
    let obs = Obs::ring(4096);
    let server = Server::bind(engine, ServerConfig::default(), obs).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    for (batch, chunk) in adverts.chunks(97).enumerate() {
        let ctx = TraceCtx::mint(trace_id(0xD1FF, batch as u64));
        let wire: Vec<WireAdvert> = chunk.iter().map(|a| WireAdvert::from(*a)).collect();
        let (summary, _) = client
            .forward(batch as u64, ctx, wire)
            .expect("traced ingest");
        assert_eq!(summary.consumed, chunk.len() as u64);
        let records = client.traces(Some(ctx.trace_id)).expect("trace query");
        assert_eq!(records.len(), 1, "batch {batch} left no trace record");
        for stage in [Stage::ShardQueue, Stage::Refit] {
            assert!(
                records[0].lap(stage).is_some(),
                "batch {batch} lacks a {} lap: {:?}",
                stage.name(),
                records[0].laps
            );
        }
    }
    client.finish().expect("finish");
    let traced_stats = client.stats().expect("stats");
    let traced = client.snapshot().expect("snapshot");
    drop(client);
    server.shutdown();

    assert_bit_identical("traced vs noop", &traced, &want);
    assert_eq!(traced_stats, want_stats, "traced vs noop engine statistics");
}

/// Concurrency differential: N clients stream disjoint beacon
/// partitions into the reactor at once, so their batches interleave
/// arbitrarily inside coalesced ticks — yet because each beacon's
/// stream stays in time order on its one connection, the engine must
/// end bit-identical to a sequential `ingest_all` of the same
/// per-beacon advert order. Eviction is pinned off so wall-clock
/// scheduling (which client runs ahead) cannot perturb session
/// lifetimes.
#[test]
fn concurrent_reactor_clients_match_sequential_ingest_bit_for_bit() {
    const CLIENTS: usize = 8;
    let session = fleet_session(10, 41);
    let estimator = Estimator::new(EstimatorConfig::default());
    let motion = track_observer(&session);
    let adverts: Vec<Advert> = session
        .interleaved_rss()
        .into_iter()
        .map(Advert::from)
        .collect();
    let config = EngineConfig {
        idle_evict_s: f64::INFINITY,
        ..EngineConfig::default()
    };

    // Reference: the full interleaved stream, sequentially.
    let mut reference = Engine::new(config.clone(), estimator.clone(), Obs::noop());
    reference.set_motion(motion.clone());
    let ref_report = reference.ingest_all(&adverts);
    reference.finish();
    let want = reference.snapshot();

    // Partition by beacon: each client owns some beacons outright, so
    // per-beacon time order survives any cross-client interleaving.
    let mut partitions: Vec<Vec<Advert>> = (0..CLIENTS).map(|_| Vec::new()).collect();
    for advert in &adverts {
        partitions[advert.beacon.0 as usize % CLIENTS].push(*advert);
    }

    let mut engine = Engine::new(config, estimator, Obs::noop());
    engine.set_motion(motion);
    let server = Server::bind(engine, ServerConfig::default(), Obs::ring(64)).expect("bind");
    let addr = server.addr();

    let totals: Vec<(u64, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = partitions
            .iter()
            .map(|part| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut delivered = 0u64;
                    let mut accepted = 0u64;
                    let mut rejected = 0u64;
                    for chunk in part.chunks(64) {
                        let ack = client.ingest(chunk).expect("ingest");
                        assert_eq!(ack.consumed, chunk.len() as u64);
                        delivered += ack.consumed;
                        accepted += ack.routed;
                        rejected += ack.rejected();
                    }
                    (delivered, accepted, rejected)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    let delivered: u64 = totals.iter().map(|t| t.0).sum();
    let accepted: u64 = totals.iter().map(|t| t.1).sum();
    let rejected: u64 = totals.iter().map(|t| t.2).sum();
    assert_eq!(delivered, adverts.len() as u64);
    assert_eq!(delivered, accepted + rejected, "every advert is accounted");
    assert_eq!(rejected, 0, "in-order per-beacon streams have no rejects");
    assert_eq!(accepted, ref_report.routed as u64);

    let mut control = Client::connect(addr).expect("control connect");
    control.finish().expect("finish");
    let over_wire = control.snapshot().expect("snapshot");
    assert_bit_identical("concurrent wire snapshot", &over_wire, &want);
    drop(control);

    let engine = server.shutdown();
    assert_bit_identical("engine after concurrent run", &engine.snapshot(), &want);
    assert_eq!(engine.queued(), 0);
    assert_eq!(engine.stats().samples_routed, accepted);
}

#[test]
fn loopback_stream_matches_direct_ingest_bit_for_bit() {
    let session = fleet_session(10, 41);
    let estimator = Estimator::new(EstimatorConfig::default());
    let motion = track_observer(&session);
    let adverts: Vec<Advert> = session
        .interleaved_rss()
        .into_iter()
        .map(Advert::from)
        .collect();
    let config = EngineConfig::default();

    // Reference: the whole stream through ingest_all, no network.
    let mut reference = Engine::new(config.clone(), estimator.clone(), Obs::noop());
    reference.set_motion(motion.clone());
    reference.ingest_all(&adverts);
    reference.finish();
    let want = reference.snapshot();
    assert!(
        want.len() >= 6,
        "reference localized only {} of 10 beacons",
        want.len()
    );

    // Wire path: same stream in 97-advert batches over loopback.
    let mut engine = Engine::new(config, estimator, Obs::noop());
    engine.set_motion(motion);
    let server = Server::bind(engine, ServerConfig::default(), Obs::ring(64)).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut delivered = 0u64;
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for chunk in adverts.chunks(97) {
        let ack = client.ingest(chunk).expect("ingest");
        delivered += chunk.len() as u64;
        accepted += ack.routed;
        rejected += ack.rejected();
        assert_eq!(
            ack.consumed,
            chunk.len() as u64,
            "batches are never truncated"
        );
    }
    assert_eq!(delivered, accepted + rejected, "every advert is accounted");
    assert_eq!(rejected, 0, "a clean simulated stream has no rejects");
    client.finish().expect("finish");

    // The snapshot read over the wire is already bit-identical …
    let over_wire = client.snapshot().expect("snapshot");
    assert_bit_identical("wire snapshot", &over_wire, &want);

    // … and so is the engine handed back by graceful shutdown.
    let stats_wire = client.stats().expect("stats");
    drop(client);
    let engine = server.shutdown();
    assert_bit_identical("engine after shutdown", &engine.snapshot(), &want);

    // Accounting reconciles exactly between wire stats, engine stats,
    // and the reference run.
    let stats = engine.stats();
    assert_eq!(stats_wire.samples_routed, accepted);
    assert_eq!(stats.samples_routed, accepted);
    assert_eq!(stats.samples_processed, reference.stats().samples_processed);
    assert_eq!(engine.queued(), 0);
}
