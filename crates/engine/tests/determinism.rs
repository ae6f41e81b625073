//! Differential determinism: the concurrent engine's per-beacon
//! estimates must be **bit-identical** to running each beacon's stream
//! through a standalone sequential [`StreamingEstimator`] — at 1, 2,
//! and 8 worker threads, and for any slicing of the ingest calls.
//!
//! The baseline below re-implements the engine's batching rule
//! independently (same spec, separate code), so a drift in either
//! implementation breaks the comparison.

use locble_ble::BeaconId;
use locble_core::{Estimator, EstimatorConfig, LocationEstimate, RssBatch, StreamingEstimator};
use locble_engine::{Advert, Engine, EngineConfig};
use locble_motion::MotionTrack;
use locble_obs::Obs;
use locble_scenario::runner::track_observer;
use locble_scenario::world::simulate_session;
use locble_scenario::{environment_by_index, fleet_beacons, plan_l_walk, Session, SessionConfig};

const WINDOW_S: f64 = 2.2;

fn fleet_session(n_beacons: usize, seed: u64) -> Session {
    let env = environment_by_index(9).expect("parking lot exists");
    let fleet = fleet_beacons(&env, n_beacons, seed);
    let plan =
        plan_l_walk(&env, locble_geom::Vec2::new(4.0, 4.0), 4.0, 3.0, 0.5).expect("walk fits");
    simulate_session(&env, &fleet, &plan, &SessionConfig::paper_default(seed))
}

/// Sequential ground truth: one standalone estimator per beacon, fed
/// that beacon's series alone, batched by the same 2.2 s-window rule.
fn sequential_baseline(
    session: &Session,
    estimator: &Estimator,
    motion: &MotionTrack,
) -> Vec<(BeaconId, LocationEstimate)> {
    let mut out = Vec::new();
    for (&id, ts) in &session.rss {
        let mut streaming = StreamingEstimator::new(estimator.clone());
        let (mut bt, mut bv) = (Vec::new(), Vec::new());
        let mut batch_start = 0.0;
        for (&t, &v) in ts.t.iter().zip(&ts.v) {
            if bt.is_empty() {
                batch_start = t;
            } else if t >= batch_start + WINDOW_S {
                let batch = RssBatch::try_new(std::mem::take(&mut bt), std::mem::take(&mut bv))
                    .expect("captured series are valid");
                streaming.push_batch(&batch, motion);
                batch_start = t;
            }
            bt.push(t);
            bv.push(v);
        }
        if !bt.is_empty() {
            let batch = RssBatch::try_new(bt, bv).expect("captured series are valid");
            streaming.push_batch(&batch, motion);
        }
        if let Some(est) = streaming.current() {
            out.push((id, *est));
        }
    }
    out
}

/// Engine run: the interleaved session stream ingested in `chunk`-sized
/// slices through an engine with `threads` workers.
fn engine_run(
    session: &Session,
    estimator: &Estimator,
    motion: &MotionTrack,
    threads: usize,
    chunk: usize,
) -> Vec<(BeaconId, LocationEstimate)> {
    let config = EngineConfig {
        threads,
        batch_window_s: WINDOW_S,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(config, estimator.clone(), Obs::noop());
    engine.set_motion(motion.clone());
    let adverts: Vec<Advert> = session
        .interleaved_rss()
        .into_iter()
        .map(Advert::from)
        .collect();
    for slice in adverts.chunks(chunk) {
        engine.ingest_all(slice);
    }
    engine.finish();
    engine.snapshot()
}

/// Byte-level equality: `PartialEq` on f64 would already fail on any
/// difference, but `to_bits` also distinguishes `-0.0` from `0.0` and
/// makes the intent explicit.
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

#[test]
fn engine_matches_sequential_baseline_at_1_2_and_8_threads() {
    let session = fleet_session(12, 31);
    let estimator = Estimator::new(EstimatorConfig::default());
    let motion = track_observer(&session);
    let baseline = sequential_baseline(&session, &estimator, &motion);
    assert!(
        baseline.len() >= 8,
        "baseline localized only {} of 12 beacons",
        baseline.len()
    );
    for threads in [1, 2, 8] {
        let got = engine_run(&session, &estimator, &motion, threads, 97);
        assert_bit_identical(&format!("{threads} threads"), &got, &baseline);
    }
}

#[test]
fn ingest_slicing_does_not_change_results() {
    let session = fleet_session(8, 32);
    let estimator = Estimator::new(EstimatorConfig::default());
    let motion = track_observer(&session);
    let whole = engine_run(&session, &estimator, &motion, 4, usize::MAX);
    for chunk in [1, 7, 256] {
        let sliced = engine_run(&session, &estimator, &motion, 4, chunk);
        assert_bit_identical(&format!("chunk {chunk}"), &sliced, &whole);
    }
}
