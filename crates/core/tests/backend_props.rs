//! Property suite for the streaming estimator's persistence and the
//! boxed comparison-backend path.
//!
//! 1. **Roundtrip continuation** — exporting a [`StreamingEstimator`]'s
//!    state at any point and rebuilding it with
//!    [`StreamingEstimator::from_state`] continues the stream
//!    **bit-identically** to the session that was never interrupted
//!    (the invariant the store kill-and-recover and cluster failover
//!    paths stand on), over randomized walks, batch slicings and
//!    snapshot cut points.
//! 2. **Boxed differential** — the default backend driven through
//!    `Box<dyn Estimator>` (as the backend shootout drives it) stays
//!    bit-identical to the concrete [`StreamingEstimator`] under every
//!    slicing, and costs at most 1.5x the concrete path.

use locble_core::{
    BackendSpec, Estimator, EstimatorConfig, LocationEstimate, RssBatch, StreamingEstimator,
};
use locble_geom::{Trajectory, Vec2};
use locble_motion::{MotionTrack, StepResult};
use locble_rf::LogDistanceModel;
use proptest::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// A deterministic noisy L-walk: `n` samples at `dt` spacing, first 60 %
/// along +x then the rest along +y, RSS from the log-distance model plus
/// bounded alternating noise. Returned pre-sliced into `chunk`-sample
/// batches.
fn walk(target: Vec2, n: usize, noise: f64, chunk: usize) -> (Vec<RssBatch>, MotionTrack) {
    let model = LogDistanceModel::new(-59.0, 2.0);
    let dt = 0.11;
    let turn = (n * 3) / 5;
    let mut traj = Trajectory::new();
    let mut samples = Vec::with_capacity(n);
    let mut pos = Vec2::ZERO;
    for i in 0..n {
        let t = i as f64 * dt;
        traj.push(t, pos);
        let jitter = noise * if i % 2 == 0 { 1.0 } else { -0.8 } * (1.0 - i as f64 * 0.004);
        samples.push((t, model.rss_at(target.distance(pos)) + jitter));
        if i < turn {
            pos.x += dt;
        } else {
            pos.y += dt;
        }
    }
    let track = MotionTrack {
        trajectory: traj,
        steps: StepResult {
            step_times: vec![],
            frequency_hz: 1.8,
            step_length_m: 0.75,
            distance_m: n as f64 * dt,
        },
        turns: vec![],
    };
    let batches = samples
        .chunks(chunk.max(1))
        .map(|c| {
            RssBatch::new(
                c.iter().map(|(t, _)| *t).collect(),
                c.iter().map(|(_, v)| *v).collect(),
            )
        })
        .collect();
    (batches, track)
}

/// Bit-level equality: `PartialEq` would call `-0.0 == 0.0` equal and
/// `NaN == NaN` unequal, neither of which is what "the recovered session
/// is the same session" means.
fn assert_bits_equal(a: Option<&LocationEstimate>, b: Option<&LocationEstimate>, ctx: &str) {
    match (a, b) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.position.x.to_bits(), b.position.x.to_bits(), "{ctx}: x");
            assert_eq!(a.position.y.to_bits(), b.position.y.to_bits(), "{ctx}: y");
            assert_eq!(
                a.confidence.to_bits(),
                b.confidence.to_bits(),
                "{ctx}: confidence"
            );
            assert_eq!(
                a.exponent.to_bits(),
                b.exponent.to_bits(),
                "{ctx}: exponent"
            );
            assert_eq!(a.gamma_dbm.to_bits(), b.gamma_dbm.to_bits(), "{ctx}: gamma");
            assert_eq!(
                a.residual_db.to_bits(),
                b.residual_db.to_bits(),
                "{ctx}: residual"
            );
            assert_eq!(
                a.mirror.map(|m| (m.x.to_bits(), m.y.to_bits())),
                b.mirror.map(|m| (m.x.to_bits(), m.y.to_bits())),
                "{ctx}: mirror"
            );
            assert_eq!(a.points_used, b.points_used, "{ctx}: points");
            assert_eq!(a.method, b.method, "{ctx}: method");
            assert_eq!(a.env, b.env, "{ctx}: env");
        }
        (a, b) => panic!("{ctx}: one side has an estimate, the other not: {a:?} vs {b:?}"),
    }
}

/// Streaming a session through the boxed default must cost at most
/// 1.5x the concrete [`StreamingEstimator`]: dispatch is one vtable hop
/// per batch and the refit dominates. The two sessions advance in
/// lockstep, alternating which arm goes first, and each batch keeps its
/// fastest of 7 sessions per arm: a batch is short enough to run
/// unpreempted on a loaded machine, a whole session is not.
#[test]
fn boxed_streaming_costs_at_most_1_5x_concrete() {
    fn timed<T>(f: impl FnOnce() -> T) -> f64 {
        let t0 = Instant::now();
        black_box(f());
        t0.elapsed().as_secs_f64()
    }
    let (batches, track) = walk(Vec2::new(3.5, 2.5), 200, 1.0, 20);
    let prototype = Estimator::new(EstimatorConfig::default());
    let mut concrete_min = vec![f64::INFINITY; batches.len()];
    let mut boxed_min = vec![f64::INFINITY; batches.len()];
    for run in 0..7 {
        let mut concrete = StreamingEstimator::new(prototype.clone());
        let mut boxed = BackendSpec::Streaming.build(&prototype, 1);
        for (k, b) in batches.iter().enumerate() {
            let b = black_box(b);
            let mut concrete_push =
                || timed(|| StreamingEstimator::push_batch(&mut concrete, b, &track).copied());
            let mut boxed_push = || timed(|| boxed.push_batch(b, &track).copied());
            let (c, d) = if run % 2 == 0 {
                let c = concrete_push();
                (c, boxed_push())
            } else {
                let d = boxed_push();
                (concrete_push(), d)
            };
            concrete_min[k] = concrete_min[k].min(c);
            boxed_min[k] = boxed_min[k].min(d);
        }
    }
    let ratio = boxed_min.iter().sum::<f64>() / concrete_min.iter().sum::<f64>();
    println!("boxed streaming costs {ratio:.2}x concrete");
    assert!(ratio <= 1.5, "boxed streaming costs {ratio:.2}x concrete");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Contract 1: snapshot-at-any-cut + restore continues bit-identically.
    #[test]
    fn export_restore_roundtrip_is_bit_identical(
        tx in 1.5f64..6.0,
        ty in 0.5f64..5.0,
        noise in 0.0f64..2.0,
        chunk in 5usize..30,
        cut_frac in 0.0f64..1.0,
    ) {
        let target = Vec2::new(tx, ty);
        let (batches, track) = walk(target, 70, noise, chunk);
        let cut = ((batches.len() as f64) * cut_frac) as usize;
        let prototype = Estimator::new(EstimatorConfig::default());

        let fresh = || StreamingEstimator::new(prototype.clone());
        let mut uninterrupted = fresh();
        let mut crashed = fresh();
        for b in &batches[..cut] {
            uninterrupted.push_batch(b, &track);
            crashed.push_batch(b, &track);
        }

        // "Crash": the session survives only as its exported state.
        let snapshot = crashed.export_state();
        let mut recovered = StreamingEstimator::from_state(prototype.clone(), snapshot.clone());
        prop_assert_eq!(recovered.export_state(), snapshot);

        for (k, b) in batches[cut..].iter().enumerate() {
            let a = uninterrupted.push_batch(b, &track).copied();
            let r = recovered.push_batch(b, &track).copied();
            assert_bits_equal(a.as_ref(), r.as_ref(), &format!("batch {k}"));
        }
        let a = uninterrupted.current().copied();
        let r = recovered.current().copied();
        assert_bits_equal(a.as_ref(), r.as_ref(), "final estimate");
        prop_assert_eq!(uninterrupted.export_state(), recovered.export_state());
        prop_assert_eq!(uninterrupted.active_samples(), recovered.active_samples());
        prop_assert_eq!(uninterrupted.restarts(), recovered.restarts());
    }

    /// Boxed differential: boxed default backend ≡ concrete
    /// `StreamingEstimator` under arbitrary slicing.
    #[test]
    fn boxed_streaming_matches_concrete_under_any_slicing(
        tx in 1.5f64..6.0,
        ty in 0.5f64..5.0,
        noise in 0.0f64..2.5,
        chunk in 3usize..40,
    ) {
        let (batches, track) = walk(Vec2::new(tx, ty), 80, noise, chunk);
        let prototype = Estimator::new(EstimatorConfig::default());
        let mut concrete = StreamingEstimator::new(prototype.clone());
        let mut boxed = BackendSpec::Streaming.build(&prototype, 1);
        for (k, b) in batches.iter().enumerate() {
            let a = StreamingEstimator::push_batch(&mut concrete, b, &track).copied();
            let d = boxed.push_batch(b, &track).copied();
            assert_bits_equal(a.as_ref(), d.as_ref(), &format!("batch {k}"));
        }
        let a = StreamingEstimator::current(&concrete).copied();
        let d = boxed.current().copied();
        assert_bits_equal(a.as_ref(), d.as_ref(), "final estimate");
    }
}
