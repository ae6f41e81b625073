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
    search_candidates, search_circular, search_exponent, search_exponent_with, search_leg,
    search_scored, sweep_anchored, CircularFit, Estimator, EstimatorConfig, ExponentSearch,
    FitMethod, FitSolver, LegFit, LegSolver, LocationEstimate, RhoTable, RssBatch, RssPoint,
    StreamingEstimator,
};
use locble_dsp::TimeSeries;
use locble_geom::{EnvClass, Trajectory, Vec2};
use locble_motion::{MotionTrack, StepResult};
use locble_obs::{FieldValue, Obs};
use locble_rf::LogDistanceModel;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
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

// ---------------------------------------------------------------------
// Shared ρ rows and bounded grid scoring (the fallback ladder's path).
// ---------------------------------------------------------------------

/// The anchored sweep the shared-row [`sweep_anchored`] replaced: every
/// `(Γ, grid exponent)` pair solved with its own inline ρ pass and scored
/// in full, Γ-outer, keeping the first strictly lower residual.
fn sweep_reference(
    solver: &FitSolver,
    search: &ExponentSearch,
    gammas: &[f64],
) -> Option<CircularFit> {
    let mut best: Option<CircularFit> = None;
    for &g in gammas {
        for k in 0..search.grid {
            let n = search.min + (search.max - search.min) * k as f64 / (search.grid - 1) as f64;
            if let Some(f) = solver.solve_anchored(n, g) {
                if best.is_none_or(|b| f.residual_db < b.residual_db) {
                    best = Some(f);
                }
            }
        }
    }
    best
}

/// The estimator's three commodity calibration anchors, one per
/// environment class.
fn anchors() -> [f64; 3] {
    EnvClass::ALL.map(|c| -59.0 - c.typical_blockage_db())
}

fn leg_bits_equal(a: &LegFit, b: &LegFit) -> bool {
    a.candidates
        .iter()
        .zip(&b.candidates)
        .all(|(p, q)| p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits())
        && a.gamma_dbm.to_bits() == b.gamma_dbm.to_bits()
        && a.exponent.to_bits() == b.exponent.to_bits()
        && a.residual_db.to_bits() == b.residual_db.to_bits()
}

fn same_circular(a: Option<CircularFit>, b: Option<CircularFit>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => bits_equal(&a, &b),
        (None, None) => true,
        _ => false,
    }
}

/// Runs the ladder's three searches over one shared [`RhoTable`], in
/// ladder order, and holds each to its per-candidate, unbounded
/// reference bit for bit. Returns how many searches produced a fit.
fn check_ladder(points: &[RssPoint]) -> Result<usize, TestCaseError> {
    let search = ExponentSearch::default();
    let mut solver = FitSolver::new();
    solver.ensure(points);
    let mut rho = RhoTable::new();
    rho.reset(points.iter().map(|p| p.rss), search.grid);
    let mut fitted = 0;

    let free = search_circular(&solver, &mut rho, &search);
    let free_ref = search_scored(&search, |n| solver.solve(n).map(|f| (f, f.residual_db)));
    prop_assert!(
        same_circular(free, free_ref),
        "free {free:?} vs {free_ref:?}"
    );
    fitted += usize::from(free.is_some());

    let gammas = anchors();
    let anchored = sweep_anchored(&solver, &mut rho, &search, &gammas);
    let anchored_ref = sweep_reference(&solver, &search, &gammas);
    prop_assert!(
        same_circular(anchored, anchored_ref),
        "anchored {anchored:?} vs {anchored_ref:?}"
    );
    fitted += usize::from(anchored.is_some());

    // The leg rung fits the observer positions, p = −a, q = −c.
    let positions: Vec<Vec2> = points.iter().map(|p| Vec2::new(-p.p, -p.q)).collect();
    let rss: Vec<f64> = points.iter().map(|p| p.rss).collect();
    if let Some(leg) = LegSolver::new(&positions, &rss) {
        let shared = search_leg(&leg, &mut rho, &search);
        let reference = search_scored(&search, |n| leg.solve(n).map(|f| (f, f.residual_db)));
        match (&shared, &reference) {
            (Some(a), Some(b)) => prop_assert!(leg_bits_equal(a, b), "leg {a:?} vs {b:?}"),
            (None, None) => {}
            _ => prop_assert!(false, "leg {shared:?} vs {reference:?}"),
        }
        fitted += usize::from(shared.is_some());
    }
    // Five searches over 22 grid exponents, each row computed once.
    prop_assert_eq!(rho.fills(), search.grid);
    Ok(fitted)
}

/// A straight walk of `samples` points over `leg` metres at `angle`,
/// seen by a beacon at `(tx, ty)`.
fn build_straight(
    leg: f64,
    samples: usize,
    angle: f64,
    tx: f64,
    ty: f64,
    noise: f64,
) -> (Vec<RssPoint>, Vec2) {
    let dir = Vec2::from_angle(angle);
    let model = LogDistanceModel::new(-61.0, 2.3);
    let target = Vec2::new(tx, ty);
    let points = (0..samples)
        .map(|i| {
            let pos = dir * (leg * i as f64 / (samples - 1) as f64);
            let jitter = noise * if i % 3 == 0 { 1.0 } else { -0.6 };
            RssPoint::from_observer_displacement(pos, model.rss_at(target.distance(pos)) + jitter)
        })
        .collect();
    (points, target)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On random L-walks the shared-row, bounded free search, anchored
    /// sweep (all three anchors) and leg search are bit-identical to
    /// their per-candidate, unbounded references.
    #[test]
    fn shared_rows_match_per_candidate_reference_on_l_walks(
        leg1 in 1.5..5.0f64,
        leg2 in 1.5..4.0f64,
        per_leg in 6usize..40,
        tx in -6.0..6.0f64,
        ty in 0.7..6.0f64,
        gamma in -75.0..-50.0f64,
        n_true in 1.6..4.0f64,
        noise in 0.0..4.0f64,
    ) {
        let points = build_walk(leg1, leg2, per_leg, tx, ty, gamma, n_true, noise);
        prop_assert!(check_ladder(&points)? > 0, "no search fitted");
    }

    /// The same on straight walks, where the estimator starts at the leg
    /// rung.
    #[test]
    fn shared_rows_match_per_candidate_reference_on_straight_walks(
        leg in 2.0..8.0f64,
        samples in 8usize..90,
        angle in 0.0..std::f64::consts::TAU,
        tx in -4.0..7.0f64,
        ty in -6.0..6.0f64,
        noise in 0.0..3.0f64,
    ) {
        let (points, target) = build_straight(leg, samples, angle, tx, ty, noise);
        prop_assume!(points.iter().all(|p| Vec2::new(-p.p, -p.q).distance(target) > 0.4));
        prop_assert!(check_ladder(&points)? > 0, "no search fitted");
    }

    /// A bounded candidate either scores exactly as the unbounded one or
    /// is cut short, and then only because its residual is at least the
    /// bound.
    #[test]
    fn bounded_candidates_are_cut_only_when_they_cannot_win(
        per_leg in 6usize..40,
        tx in -6.0..6.0f64,
        ty in 0.7..6.0f64,
        noise in 0.0..4.0f64,
        k in 0usize..22,
        bound in 0.0..6.0f64,
    ) {
        let points = build_walk(4.0, 3.0, per_leg, tx, ty, -60.0, 2.4, noise);
        let search = ExponentSearch::default();
        let n = search.grid_exponent(k);
        let mut solver = FitSolver::new();
        solver.ensure(&points);
        let mut rho = RhoTable::new();
        rho.reset(points.iter().map(|p| p.rss), search.grid);
        let row = rho.row(k, n).to_vec();
        let pairs = [
            (solver.solve(n), solver.solve_row(n, &row, bound)),
            (solver.solve_anchored(n, -62.0), solver.solve_anchored_row(n, -62.0, &row, bound)),
        ];
        for (full, bounded) in pairs {
            match (full, bounded) {
                (Some(a), Some(b)) => prop_assert!(bits_equal(&a, &b), "{a:?} vs {b:?}"),
                (Some(a), None) => prop_assert!(a.residual_db >= bound, "cut {a:?} below {bound}"),
                (None, None) => {}
                (None, Some(b)) => prop_assert!(false, "bounded solve invented {b:?}"),
            }
        }
    }
}

/// Exact tie: samples so strong that every anchored candidate's squared
/// error overflows, so all 66 candidates score +∞. The sweep must still
/// keep the first (first anchor, first grid exponent), as the strict `<`
/// fold always has, although every later candidate is cut short against
/// an infinite bound.
#[test]
fn exact_tie_keeps_the_first_anchored_candidate() {
    let mut points = build_walk(4.0, 3.0, 12, 3.0, 4.0, -59.0, 2.2, 0.0);
    for p in &mut points {
        p.rss = 1e160;
    }
    let search = ExponentSearch::default();
    let mut solver = FitSolver::new();
    solver.ensure(&points);
    let mut rho = RhoTable::new();
    rho.reset(points.iter().map(|p| p.rss), search.grid);
    let gammas = anchors();
    let shared = sweep_anchored(&solver, &mut rho, &search, &gammas).expect("anchored fits exist");
    let reference = sweep_reference(&solver, &search, &gammas).expect("anchored fits exist");
    assert_eq!(shared.residual_db, f64::INFINITY);
    assert!(
        bits_equal(&shared, &reference),
        "{shared:?} vs {reference:?}"
    );
    assert_eq!(shared.gamma_dbm.to_bits(), gammas[0].to_bits());
    assert_eq!(shared.exponent.to_bits(), search.min.to_bits());
    // The first candidate is scored in full, so it is a real fit.
    assert!(shared.position.x.is_finite() && shared.position.y.is_finite());
}

/// NaN residuals: a NaN bound never cuts a candidate short, and a search
/// whose first success scores NaN keeps it (nothing compares below NaN)
/// and hands every later candidate a NaN bound, exactly like the
/// unbounded search.
#[test]
fn nan_residuals_never_cut_and_never_win() {
    let points = build_walk(4.0, 3.0, 10, 3.0, 4.5, -59.0, 2.4, 0.8);
    let search = ExponentSearch::default();
    let mut solver = FitSolver::new();
    solver.ensure(&points);
    let mut rho = RhoTable::new();
    rho.reset(points.iter().map(|p| p.rss), search.grid);
    for k in 0..search.grid {
        let n = search.grid_exponent(k);
        let row = rho.row(k, n).to_vec();
        assert!(same_circular(
            solver.solve(n),
            solver.solve_row(n, &row, f64::NAN)
        ));
        assert!(same_circular(
            solver.solve_anchored(n, -62.0),
            solver.solve_anchored_row(n, -62.0, &row, f64::NAN)
        ));
    }

    // Candidate k = 3 is the first success and scores NaN.
    let score = |n: f64, k: Option<usize>| -> Option<(f64, f64)> {
        match k {
            Some(k) if k < 3 => None,
            Some(3) => Some((n, f64::NAN)),
            _ => Some((n, (n - 2.4).abs())),
        }
    };
    let mut bounds = Vec::new();
    let bounded = search_candidates(&search, |c| {
        bounds.push((c.grid_index, c.bound));
        score(c.exponent, c.grid_index)
    });
    let grid_index = |n: f64| (0..search.grid).find(|&k| search.grid_exponent(k) == n);
    let reference = search_scored(&search, |n| score(n, grid_index(n)));
    assert_eq!(bounded.map(f64::to_bits), reference.map(f64::to_bits));
    assert_eq!(bounded, Some(search.grid_exponent(3)));
    assert!(bounds.iter().all(|(_, b)| b.is_nan()), "{bounds:?}");
    assert_eq!(bounds.len(), search.grid + search.refine_iters + 1);
}

/// Observer positions and RSS of a walk, as an estimator input.
fn estimator_input(
    positions: &[Vec2],
    rss: impl Fn(usize, Vec2) -> f64,
) -> (TimeSeries, MotionTrack) {
    let dt = 0.11;
    let mut traj = Trajectory::new();
    let mut t = Vec::new();
    let mut v = Vec::new();
    for (i, &pos) in positions.iter().enumerate() {
        traj.push(i as f64 * dt, pos);
        t.push(i as f64 * dt);
        v.push(rss(i, pos));
    }
    let track = MotionTrack {
        trajectory: traj,
        steps: StepResult {
            step_times: vec![],
            frequency_hz: 1.8,
            step_length_m: 0.75,
            distance_m: positions.len() as f64 * dt,
        },
        turns: vec![],
    };
    (TimeSeries::new(t, v), track)
}

/// An L-walk of `per_leg` samples per leg, 0.11 m apart.
fn l_positions(per_leg: usize) -> Vec<Vec2> {
    (0..2 * per_leg)
        .map(|i| {
            let s = i.min(per_leg) as f64 * 0.11;
            let up = i.saturating_sub(per_leg) as f64 * 0.11;
            Vec2::new(s, up)
        })
        .collect()
}

/// A refit whose free fit is rejected falls through to the anchored
/// sweep: the free search and all three anchors then share the same 22
/// rows, each computed exactly once (the estimate span reports the
/// refit's row computations).
#[test]
fn refit_falling_to_anchored_sweep_fills_each_row_once() {
    let model = LogDistanceModel::new(-59.0, 2.0);
    let target = Vec2::new(4.0, 4.0);
    let (rss, track) = estimator_input(&l_positions(40), |i, pos| {
        // A monotone drift the free fit's quadratic cannot open upward on.
        model.rss_at(target.distance(pos)) - i as f64 * 0.9
    });
    let obs = Obs::ring(64);
    let estimator = Estimator::new(EstimatorConfig {
        use_anf: false,
        ..Default::default()
    })
    .with_obs(obs.clone());
    let est = estimator
        .estimate_stationary(&rss, &track)
        .expect("ladder answers");
    assert_eq!(
        est.method,
        FitMethod::Anchored,
        "fixture must reach the anchored sweep"
    );
    let span = obs
        .events()
        .into_iter()
        .find(|e| e.target == "core.estimator" && e.name == "estimate")
        .expect("estimate span");
    assert_eq!(span.field("collinear"), Some(&FieldValue::Bool(false)));
    let grid = ExponentSearch::default().grid;
    assert_eq!(span.field("rho_rows"), Some(&FieldValue::U64(grid as u64)));
}

fn estimates_bits_equal(a: Option<LocationEstimate>, b: Option<LocationEstimate>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => {
            a.method == b.method
                && a.position.x.to_bits() == b.position.x.to_bits()
                && a.position.y.to_bits() == b.position.y.to_bits()
                && a.mirror.map(|m| (m.x.to_bits(), m.y.to_bits()))
                    == b.mirror.map(|m| (m.x.to_bits(), m.y.to_bits()))
                && a.exponent.to_bits() == b.exponent.to_bits()
                && a.gamma_dbm.to_bits() == b.gamma_dbm.to_bits()
                && a.confidence.to_bits() == b.confidence.to_bits()
                && a.residual_db.to_bits() == b.residual_db.to_bits()
        }
        (None, None) => true,
        _ => false,
    }
}

/// Two sessions streamed on one thread share its ρ table and leg solver;
/// alternating their refits must give each session exactly the
/// estimates it gets when run alone on a thread of its own.
#[test]
fn alternating_sessions_on_one_thread_match_each_session_alone() {
    let model = LogDistanceModel::new(-60.0, 2.2);
    let (target_a, target_b) = (Vec2::new(3.0, 4.5), Vec2::new(-2.0, 3.0));
    // Session A walks an L, session B a straight line (the leg rung).
    let (rss_a, track_a) = estimator_input(&l_positions(45), |i, pos| {
        model.rss_at(target_a.distance(pos)) + if i % 2 == 0 { 1.1 } else { -0.9 }
    });
    let straight: Vec<Vec2> = (0..90).map(|i| Vec2::new(i as f64 * 0.11, 0.0)).collect();
    let (rss_b, track_b) = estimator_input(&straight, |i, pos| {
        model.rss_at(target_b.distance(pos)) + if i % 3 == 0 { 1.4 } else { -0.7 }
    });
    let batches = |rss: &TimeSeries| -> Vec<RssBatch> {
        rss.t
            .chunks(20)
            .zip(rss.v.chunks(20))
            .map(|(t, v)| RssBatch::new(t.to_vec(), v.to_vec()))
            .collect()
    };
    let (batches_a, batches_b) = (batches(&rss_a), batches(&rss_b));
    let session = || StreamingEstimator::new(Estimator::new(EstimatorConfig::default()));
    let run_alone = |batches: Vec<RssBatch>, track: MotionTrack| {
        std::thread::spawn(move || {
            let mut s = session();
            batches
                .iter()
                .map(|b| s.push_batch(b, &track).copied())
                .collect::<Vec<_>>()
        })
        .join()
        .expect("solo session")
    };
    let alone_a = run_alone(batches_a.clone(), track_a.clone());
    let alone_b = run_alone(batches_b.clone(), track_b.clone());

    let (mut a, mut b) = (session(), session());
    let mut methods = Vec::new();
    for (i, (ba, bb)) in batches_a.iter().zip(&batches_b).enumerate() {
        let est_a = a.push_batch(ba, &track_a).copied();
        let est_b = b.push_batch(bb, &track_b).copied();
        assert!(estimates_bits_equal(est_a, alone_a[i]), "A batch {i}");
        assert!(estimates_bits_equal(est_b, alone_b[i]), "B batch {i}");
        methods.extend(est_a.into_iter().chain(est_b).map(|e| e.method));
    }
    // Both rung families ran interleaved, or the test proved nothing.
    assert!(methods.contains(&FitMethod::Leg), "{methods:?}");
    assert!(methods.iter().any(|&m| m != FitMethod::Leg), "{methods:?}");
}
