//! Differential suite for the shared-factorization solvers.
//!
//! Proves that the cached/incremental [`FitSolver`] path (used by the
//! production estimator since the Gram-caching change) matches the naive
//! per-call reference implementation within 1e-9 on random L-walks, and
//! that incremental extension, restarts and the warmed exponent search
//! are *bit-identical* to their from-scratch counterparts — the property
//! the engine differential-determinism and store kill-and-recover suites
//! build on. It also holds the warmed search to at least 5x the naive
//! per-candidate refit it replaced, in the §5.3 streaming regime.

use locble_core::{
    search_exponent, search_exponent_with, CircularFit, ExponentSearch, FitSolver, LegFit,
    LegSolver, RssPoint,
};
use locble_geom::Vec2;
use locble_rf::LogDistanceModel;
use proptest::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Builds a random, well-conditioned L-walk measurement session.
#[allow(clippy::too_many_arguments)]
fn build_walk(
    leg1: f64,
    leg2: f64,
    per_leg: usize,
    tx: f64,
    ty: f64,
    gamma: f64,
    n_true: f64,
    noise: f64,
) -> Vec<RssPoint> {
    let mut positions = Vec::new();
    for i in 0..per_leg {
        positions.push(Vec2::new(leg1 * i as f64 / (per_leg - 1) as f64, 0.0));
    }
    for i in 1..per_leg {
        positions.push(Vec2::new(leg1, leg2 * i as f64 / (per_leg - 1) as f64));
    }
    let model = LogDistanceModel::new(gamma, n_true);
    let target = Vec2::new(tx, ty);
    let mut points = Vec::new();
    for (i, &pos) in positions.iter().enumerate() {
        // Deterministic bounded noise, alternating sign with drift.
        let jitter = noise * if i % 2 == 0 { 1.0 } else { -1.0 } * (1.0 - i as f64 * 0.01);
        let r = model.rss_at(target.distance(pos)) + jitter;
        points.push(RssPoint::from_observer_displacement(pos - positions[0], r));
    }
    points
}

/// `a` and `b` agree within 1e-9, relative to `b`'s magnitude.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9 * (1.0 + b.abs())
}

fn bits_equal(a: &CircularFit, b: &CircularFit) -> bool {
    a.position.x.to_bits() == b.position.x.to_bits()
        && a.position.y.to_bits() == b.position.y.to_bits()
        && a.gamma_dbm.to_bits() == b.gamma_dbm.to_bits()
        && a.exponent.to_bits() == b.exponent.to_bits()
        && a.residual_db.to_bits() == b.residual_db.to_bits()
}

/// The exponent search the warm [`FitSolver`] replaced: coarse grid
/// plus a golden-section refinement that evaluates *both* interior
/// probes every iteration, each candidate paid at full
/// [`CircularFit::solve_reference`] price.
fn search_reference(points: &[RssPoint], search: &ExponentSearch) -> Option<CircularFit> {
    search.validate().ok()?;
    let mut best: Option<CircularFit> = None;
    // One full-price solve per call; folds an improvement into `best`
    // and returns the candidate's residual (∞ for a failed fit).
    let eval = |n: f64, best: &mut Option<CircularFit>| -> f64 {
        match CircularFit::solve_reference(points, n) {
            Some(fit) => {
                let res = fit.residual_db;
                if best.as_ref().is_none_or(|b| res < b.residual_db) {
                    *best = Some(fit);
                }
                res
            }
            None => f64::INFINITY,
        }
    };
    let mut best_n = search.min;
    let mut best_res = f64::INFINITY;
    for k in 0..search.grid {
        let n = search.min + (search.max - search.min) * k as f64 / (search.grid - 1) as f64;
        let res = eval(n, &mut best);
        if res < best_res {
            best_res = res;
            best_n = n;
        }
    }
    best.as_ref()?;
    let step = (search.max - search.min) / (search.grid - 1) as f64;
    let mut lo = (best_n - step).max(search.min);
    let mut hi = (best_n + step).min(search.max);
    let phi = (5f64.sqrt() - 1.0) / 2.0;
    for _ in 0..search.refine_iters {
        let m1 = hi - phi * (hi - lo);
        let m2 = lo + phi * (hi - lo);
        let r1 = eval(m1, &mut best);
        let r2 = eval(m2, &mut best);
        if r1 <= r2 {
            hi = m2;
        } else {
            lo = m1;
        }
    }
    best
}

/// Prefix lengths of a session streamed in §5.3's ~20-sample batches.
fn batch_cuts(len: usize) -> Vec<usize> {
    (1..=len.div_ceil(20)).map(|b| (b * 20).min(len)).collect()
}

/// A streaming session refits after every batch through one warm
/// solver; each refit must land on the naive search's answer within
/// 1e-9, batch by batch, not just on the final cut.
#[test]
fn every_batch_agrees_with_reference() {
    let points = build_walk(4.0, 3.0, 40, 3.0, 4.5, -59.0, 2.4, 0.8);
    let search = ExponentSearch::default();
    let mut solver = FitSolver::new();
    let mut fitted = 0;
    for cut in batch_cuts(points.len()) {
        let reference = search_reference(&points[..cut], &search);
        let cached = search_exponent_with(&mut solver, &points[..cut], &search);
        match (&cached, &reference) {
            (Some(c), Some(r)) => {
                fitted += 1;
                assert!(close(c.position.x, r.position.x), "cut {cut}");
                assert!(close(c.position.y, r.position.y), "cut {cut}");
                assert!(close(c.gamma_dbm, r.gamma_dbm), "cut {cut}");
                assert!(close(c.exponent, r.exponent), "cut {cut}");
                assert!(close(c.residual_db, r.residual_db), "cut {cut}");
            }
            (None, None) => {}
            _ => panic!("cut {cut}: cached {cached:?} vs reference {reference:?}"),
        }
    }
    assert!(fitted >= 3, "only {fitted} batches produced a fit");
}

/// Refitting a 200-sample session after every 20-sample batch through
/// one warm solver must stay at least 5x faster than the naive search.
/// The arms alternate and each keeps its fastest of 7 sessions, so a
/// preempted run on a loaded machine does not decide the ratio.
#[test]
fn warm_search_is_at_least_5x_the_naive_refit() {
    let points = build_walk(4.0, 3.0, 100, 3.0, 4.5, -59.0, 2.4, 0.8);
    let search = ExponentSearch::default();
    let cuts = batch_cuts(points.len());
    let session = |refit: &mut dyn FnMut(&[RssPoint]) -> Option<CircularFit>| {
        let t0 = Instant::now();
        for &cut in &cuts {
            black_box(refit(black_box(&points[..cut])));
        }
        t0.elapsed().as_secs_f64()
    };
    let (mut reference, mut production) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        reference = reference.min(session(&mut |p| search_reference(p, &search)));
        let mut solver = FitSolver::new();
        production = production.min(session(&mut |p| {
            search_exponent_with(&mut solver, p, &search)
        }));
    }
    let speedup = reference / production;
    println!("search_exponent_with speedup over search_reference: {speedup:.2}x");
    assert!(speedup >= 5.0, "warm search only {speedup:.2}x");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The cached solver matches the naive per-call reference within
    /// 1e-9 on random L-walks at random exponents.
    #[test]
    fn cached_matches_reference_within_1e9(
        leg1 in 1.5..5.0f64,
        leg2 in 1.5..4.0f64,
        per_leg in 6usize..12,
        tx in -6.0..6.0f64,
        ty in 0.7..6.0f64,
        gamma in -70.0..-50.0f64,
        n_true in 1.6..4.0f64,
        noise in 0.0..1.5f64,
        n_cand in 1.5..5.0f64,
    ) {
        let points = build_walk(leg1, leg2, per_leg, tx, ty, gamma, n_true, noise);
        let reference = CircularFit::solve_reference(&points, n_cand);
        let cached = CircularFit::solve(&points, n_cand);
        match (&cached, &reference) {
            (Some(c), Some(r)) => {
                prop_assert!(close(c.position.x, r.position.x), "x {} vs {}", c.position.x, r.position.x);
                prop_assert!(close(c.position.y, r.position.y), "y {} vs {}", c.position.y, r.position.y);
                prop_assert!(close(c.gamma_dbm, r.gamma_dbm), "gamma {} vs {}", c.gamma_dbm, r.gamma_dbm);
                prop_assert!(close(c.residual_db, r.residual_db), "residual {} vs {}", c.residual_db, r.residual_db);
            }
            (None, None) => {}
            _ => prop_assert!(false, "solver disagreement: cached {cached:?} vs reference {reference:?}"),
        }
    }

    /// A warm solver extended batch-by-batch over random slicings is
    /// bit-identical to a fresh solver built from scratch at every cut.
    #[test]
    fn incremental_extension_is_bit_identical(
        leg1 in 1.8..5.0f64,
        leg2 in 1.8..4.0f64,
        per_leg in 7usize..12,
        tx in -5.0..5.0f64,
        ty in 0.8..5.0f64,
        noise in 0.0..1.2f64,
        cut_fracs in prop::collection::vec(0.2..1.0f64, 1..5),
        n_cand in 1.6..4.5f64,
    ) {
        let points = build_walk(leg1, leg2, per_leg, tx, ty, -59.0, 2.3, noise);
        let total = points.len();
        let mut cuts: Vec<usize> = cut_fracs.iter().map(|f| (f * total as f64) as usize).collect();
        cuts.push(total);
        cuts.sort_unstable();
        let mut warm = FitSolver::new();
        for &cut in &cuts {
            warm.ensure(&points[..cut]);
            let mut fresh = FitSolver::new();
            fresh.ensure(&points[..cut]);
            match (warm.solve(n_cand), fresh.solve(n_cand)) {
                (Some(a), Some(b)) => prop_assert!(bits_equal(&a, &b), "cut {cut}: {a:?} vs {b:?}"),
                (None, None) => {}
                (a, b) => prop_assert!(false, "cut {cut}: warm {a:?} vs fresh {b:?}"),
            }
            match (warm.solve_anchored(n_cand, -62.0), fresh.solve_anchored(n_cand, -62.0)) {
                (Some(a), Some(b)) => prop_assert!(bits_equal(&a, &b), "anchored cut {cut}"),
                (None, None) => {}
                (a, b) => prop_assert!(false, "anchored cut {cut}: warm {a:?} vs fresh {b:?}"),
            }
        }
    }

    /// Replacing the session outright (an EnvAware restart hands the
    /// solver an unrelated point set) rebuilds a state bit-identical to
    /// a fresh solver.
    #[test]
    fn restart_rebuild_is_bit_identical(
        leg_a in 1.6..4.5f64,
        leg_b in 1.6..4.0f64,
        tx_a in -5.0..5.0f64,
        tx_b in -5.0..5.0f64,
        ty in 0.8..5.0f64,
        noise in 0.0..1.0f64,
        n_cand in 1.6..4.5f64,
    ) {
        let before_points = build_walk(leg_a, leg_b, 8, tx_a, ty, -59.0, 2.1, noise);
        let after_points = build_walk(leg_b, leg_a, 9, tx_b, ty + 0.3, -62.0, 2.8, noise);
        let mut solver = FitSolver::new();
        solver.ensure(&before_points);
        // Restart: completely different prefix forces a rebuild.
        solver.ensure(&after_points);
        prop_assert!(solver.len() == after_points.len());
        let mut fresh = FitSolver::new();
        fresh.ensure(&after_points);
        match (solver.solve(n_cand), fresh.solve(n_cand)) {
            (Some(a), Some(b)) => prop_assert!(bits_equal(&a, &b), "{a:?} vs {b:?}"),
            (None, None) => {}
            (a, b) => prop_assert!(false, "restarted {a:?} vs fresh {b:?}"),
        }
    }

    /// The full exponent search through a warm, incrementally-grown
    /// solver is bit-identical to the one-shot search.
    #[test]
    fn warm_search_is_bit_identical_to_cold(
        leg1 in 1.8..5.0f64,
        leg2 in 1.8..4.0f64,
        per_leg in 7usize..11,
        tx in -5.0..5.0f64,
        ty in 0.8..5.0f64,
        noise in 0.0..1.2f64,
        warm_frac in 0.3..0.9f64,
    ) {
        let points = build_walk(leg1, leg2, per_leg, tx, ty, -59.0, 2.4, noise);
        let search = ExponentSearch::default();
        let mut solver = FitSolver::new();
        let warm_cut = ((warm_frac * points.len() as f64) as usize).max(1);
        // Warm the cache on a prefix, as a streaming refit would.
        let _ = search_exponent_with(&mut solver, &points[..warm_cut], &search);
        let warm = search_exponent_with(&mut solver, &points, &search);
        let cold = search_exponent(&points, &search);
        match (&warm, &cold) {
            (Some(a), Some(b)) => prop_assert!(bits_equal(a, b), "warm {a:?} vs cold {b:?}"),
            (None, None) => {}
            _ => prop_assert!(false, "warm {warm:?} vs cold {cold:?}"),
        }
    }

    /// The cached leg solver matches the one-shot leg fit bit for bit
    /// across exponents (its state is built per leg, reused per search).
    #[test]
    fn leg_solver_is_bit_identical_to_oneshot(
        leg in 2.0..6.0f64,
        samples in 6usize..14,
        tx in -4.0..7.0f64,
        ty in -6.0..6.0f64,
        angle in 0.0..std::f64::consts::TAU,
        noise in 0.0..1.0f64,
        n_cand in 1.6..4.5f64,
    ) {
        let dir = Vec2::from_angle(angle);
        let positions: Vec<Vec2> = (0..samples)
            .map(|i| dir * (leg * i as f64 / (samples - 1) as f64))
            .collect();
        let target = Vec2::new(tx, ty);
        prop_assume!(positions.iter().all(|p| p.distance(target) > 0.4));
        let model = LogDistanceModel::new(-59.0, 2.2);
        let rss: Vec<f64> = positions
            .iter()
            .enumerate()
            .map(|(i, p)| {
                model.rss_at(target.distance(*p)) + noise * if i % 2 == 0 { 1.0 } else { -1.0 }
            })
            .collect();
        let cached = LegSolver::new(&positions, &rss).and_then(|s| s.solve(n_cand));
        let oneshot = LegFit::solve(&positions, &rss, n_cand);
        match (&cached, &oneshot) {
            (Some(a), Some(b)) => {
                for k in 0..2 {
                    prop_assert!(a.candidates[k].x.to_bits() == b.candidates[k].x.to_bits());
                    prop_assert!(a.candidates[k].y.to_bits() == b.candidates[k].y.to_bits());
                }
                prop_assert!(a.gamma_dbm.to_bits() == b.gamma_dbm.to_bits());
                prop_assert!(a.residual_db.to_bits() == b.residual_db.to_bits());
            }
            (None, None) => {}
            _ => prop_assert!(false, "cached {cached:?} vs oneshot {oneshot:?}"),
        }
    }
}
