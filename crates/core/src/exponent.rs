//! Numeric search for the path-loss exponent `n(e)` (paper Eq. 5).
//!
//! `n(e)` cannot be solved in closed form because the regression output
//! `ρ = η^RS` itself depends on `n`. LocBLE therefore finds
//! `n̂* = argmin (L(x̂, ĥ) − R(n̂, Γ))²` numerically: for every candidate
//! exponent the inner linear fit runs to completion and the dB residual
//! of the resulting model is scored; a coarse grid pins the basin and a
//! golden-section refinement polishes it.
//!
//! The search itself is fit-agnostic: [`search_candidates`] drives any
//! scoring closure, so the same grid + golden-section machinery serves
//! the circular fit, the leg fallback and the 3-D fit. The golden-section
//! refinement retains one interior probe across iterations, so a full
//! search costs `grid + refine_iters + 1` inner solves (22 + 18 + 1 = 41
//! with the defaults) instead of `grid + 2·refine_iters` (58) for the
//! naive both-probes-per-iteration variant.
//!
//! Within one refit the estimator's fallback ladder scores the same grid
//! exponents up to five times (free fit, leg fit, anchored sweep over
//! three Γ anchors). [`search_circular`], [`search_leg`] and
//! [`sweep_anchored`] therefore read each grid exponent's ρ row from one
//! shared [`RhoTable`], so a refit pays at most `grid` rows of `exp`
//! plus one inline ρ pass per golden-section probe; and each grid
//! candidate stops its residual pass once it provably cannot beat the
//! best so far. Both leave every result bit-identical.

use crate::regression::{CircularFit, FitSolver, LegFit, LegSolver, RhoTable, RssPoint};

/// Configuration of the exponent search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentSearch {
    /// Lower bound of the search interval.
    pub min: f64,
    /// Upper bound of the search interval.
    pub max: f64,
    /// Number of coarse grid points.
    pub grid: usize,
    /// Golden-section refinement iterations (0 = grid only).
    pub refine_iters: usize,
}

impl Default for ExponentSearch {
    fn default() -> Self {
        ExponentSearch {
            min: 1.4,
            max: 5.5,
            grid: 22,
            refine_iters: 18,
        }
    }
}

impl ExponentSearch {
    /// Validates the interval.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.min > 0.0 && self.max > self.min) {
            return Err("need 0 < min < max".into());
        }
        if self.grid < 2 {
            return Err("need at least 2 grid points".into());
        }
        Ok(())
    }

    /// The `k`-th of the `grid` evenly spaced coarse-grid exponents.
    pub fn grid_exponent(&self, k: usize) -> f64 {
        self.min + (self.max - self.min) * k as f64 / (self.grid - 1) as f64
    }
}

/// One candidate exponent handed to a [`search_candidates`] scoring
/// closure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The exponent to score.
    pub exponent: f64,
    /// Index of the coarse-grid point ([`ExponentSearch::grid_exponent`]),
    /// or `None` for a golden-section probe.
    pub grid_index: Option<usize>,
    /// The residual the candidate must beat to change the search's
    /// result: a scorer may give up and return `None` once it has proven
    /// the residual is at least this. NaN when the candidate must be
    /// scored in full — before any candidate has succeeded, and for every
    /// golden-section probe, whose residual steers the bracket.
    pub bound: f64,
}

/// Generic exponent search over any scoring closure: `score(candidate)`
/// returns a candidate fit plus its residual (lower is better), or `None`
/// when no valid fit exists at that exponent (or, for a bounded
/// candidate, when it cannot win). Returns the best fit found, or `None`
/// when every candidate failed; ties keep the earlier candidate.
///
/// Coarse grid first, then golden-section refinement around the winning
/// grid cell. The refinement evaluates two interior probes once and then
/// *reuses* the surviving probe each iteration, so the closure is called
/// exactly `grid + refine_iters + 1` times (for `refine_iters ≥ 1`).
pub fn search_candidates<T>(
    search: &ExponentSearch,
    mut score: impl FnMut(Candidate) -> Option<(T, f64)>,
) -> Option<T> {
    search.validate().ok()?;
    let mut best: Option<T> = None;
    let mut best_res = f64::INFINITY;
    // Scores one candidate, folding an improvement into `best`; returns
    // the residual (∞ for a failed fit) and whether it improved.
    let mut eval = |c: Candidate, best: &mut Option<T>, best_res: &mut f64| -> (f64, bool) {
        if let Some((fit, res)) = score(c) {
            let improved = best.is_none() || res < *best_res;
            if improved {
                *best = Some(fit);
                *best_res = res;
            }
            (res, improved)
        } else {
            (f64::INFINITY, false)
        }
    };
    let probe = |exponent: f64| Candidate {
        exponent,
        grid_index: None,
        bound: f64::NAN,
    };

    // Coarse grid. A grid candidate only has to beat the best so far.
    let mut best_n = search.min;
    for k in 0..search.grid {
        let n = search.grid_exponent(k);
        let bound = if best.is_some() { best_res } else { f64::NAN };
        let candidate = Candidate {
            exponent: n,
            grid_index: Some(k),
            bound,
        };
        let (_, improved) = eval(candidate, &mut best, &mut best_res);
        if improved {
            best_n = n;
        }
    }
    best.as_ref()?;
    if search.refine_iters == 0 {
        return best;
    }

    // Golden-section refinement around the winning grid cell. One probe
    // survives each interval shrink: only the replacement probe is
    // re-evaluated.
    let step = (search.max - search.min) / (search.grid - 1) as f64;
    let mut lo = (best_n - step).max(search.min);
    let mut hi = (best_n + step).min(search.max);
    let phi = (5f64.sqrt() - 1.0) / 2.0;
    let mut m1 = hi - phi * (hi - lo);
    let mut m2 = lo + phi * (hi - lo);
    let mut r1 = eval(probe(m1), &mut best, &mut best_res).0;
    let mut r2 = eval(probe(m2), &mut best, &mut best_res).0;
    for it in 0..search.refine_iters {
        let last = it + 1 == search.refine_iters;
        if r1 <= r2 {
            hi = m2;
            m2 = m1;
            r2 = r1;
            if last {
                break;
            }
            m1 = hi - phi * (hi - lo);
            r1 = eval(probe(m1), &mut best, &mut best_res).0;
        } else {
            lo = m1;
            m1 = m2;
            r1 = r2;
            if last {
                break;
            }
            m2 = lo + phi * (hi - lo);
            r2 = eval(probe(m2), &mut best, &mut best_res).0;
        }
    }
    best
}

/// [`search_candidates`] for a closure that scores every candidate in
/// full and ignores the grid structure.
pub fn search_scored<T>(
    search: &ExponentSearch,
    mut score: impl FnMut(f64) -> Option<(T, f64)>,
) -> Option<T> {
    search_candidates(search, |c| score(c.exponent))
}

/// Runs the search: returns the best-fit result across exponents, or
/// `None` when no exponent yields a valid fit.
pub fn search_exponent(points: &[RssPoint], search: &ExponentSearch) -> Option<CircularFit> {
    search_exponent_with(&mut FitSolver::new(), points, search)
}

/// Like [`search_exponent`], but reuses a caller-held [`FitSolver`]: the
/// geometry/Gram cache is synchronized once (incrementally when `points`
/// extends the previous call's set) and every candidate exponent is then
/// answered from the shared factorization.
pub fn search_exponent_with(
    solver: &mut FitSolver,
    points: &[RssPoint],
    search: &ExponentSearch,
) -> Option<CircularFit> {
    solver.ensure(points);
    let solver = &*solver;
    search_scored(search, |n| solver.solve(n).map(|f| (f, f.residual_db)))
}

/// The free circular fit's exponent search over a refit's shared ρ rows:
/// grid candidates read their row from `rho` and stop scoring once they
/// cannot win; golden-section probes compute ρ inline. `rho` must have
/// been [`reset`](RhoTable::reset) with `solver`'s RSS values and at
/// least `search.grid` rows. Bit-identical to
/// `search_scored(search, |n| solver.solve(n)…)`.
pub fn search_circular(
    solver: &FitSolver,
    rho: &mut RhoTable,
    search: &ExponentSearch,
) -> Option<CircularFit> {
    search_candidates(search, |c| {
        match c.grid_index {
            Some(k) => solver.solve_row(c.exponent, rho.row(k, c.exponent), c.bound),
            None => solver.solve(c.exponent),
        }
        .map(|f| (f, f.residual_db))
    })
}

/// [`search_circular`] for the straight-leg fit: `rho` must have been
/// reset with `leg`'s RSS values. Bit-identical to
/// `search_scored(search, |n| leg.solve(n)…)`.
pub fn search_leg(leg: &LegSolver, rho: &mut RhoTable, search: &ExponentSearch) -> Option<LegFit> {
    search_candidates(search, |c| {
        match c.grid_index {
            Some(k) => leg.solve_row(c.exponent, rho.row(k, c.exponent), c.bound),
            None => leg.solve(c.exponent),
        }
        .map(|f| (f, f.residual_db))
    })
}

/// The anchored-fit sweep: every `(Γ, grid exponent)` pair, Γ-outer and
/// exponent-inner, keeping the first lowest-residual
/// [`FitSolver::solve_anchored`] fit. All anchors read the same ρ rows
/// from `rho` (reset with `solver`'s RSS values and at least
/// `search.grid` rows), and each candidate stops scoring once it cannot
/// beat the best so far. No refinement: the anchor already pins the
/// model, and the grid is what the sweep has always scored.
pub fn sweep_anchored(
    solver: &FitSolver,
    rho: &mut RhoTable,
    search: &ExponentSearch,
    gammas: &[f64],
) -> Option<CircularFit> {
    let mut best: Option<CircularFit> = None;
    for &g in gammas {
        for k in 0..search.grid {
            let n = search.grid_exponent(k);
            let bound = best.map_or(f64::NAN, |b| b.residual_db);
            if let Some(f) = solver.solve_anchored_row(n, g, rho.row(k, n), bound) {
                if best.is_none_or(|b| f.residual_db < b.residual_db) {
                    best = Some(f);
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use locble_geom::Vec2;
    use locble_rf::LogDistanceModel;

    fn synthetic(target: Vec2, gamma: f64, n: f64) -> Vec<RssPoint> {
        let model = LogDistanceModel::new(gamma, n);
        let mut path = Vec::new();
        for i in 0..12 {
            path.push(Vec2::new(4.0 * i as f64 / 11.0, 0.0));
        }
        for i in 1..12 {
            path.push(Vec2::new(4.0, 3.0 * i as f64 / 11.0));
        }
        path.iter()
            .map(|&pos| {
                RssPoint::from_observer_displacement(pos, model.rss_at(target.distance(pos)))
            })
            .collect()
    }

    #[test]
    fn recovers_true_exponent_and_position() {
        for n_true in [1.8, 2.0, 2.7, 3.5, 4.2] {
            let target = Vec2::new(3.0, 4.5);
            let pts = synthetic(target, -59.0, n_true);
            let fit = search_exponent(&pts, &ExponentSearch::default()).unwrap();
            assert!(
                (fit.exponent - n_true).abs() < 0.05,
                "n_true {n_true}: found {}",
                fit.exponent
            );
            assert!(
                fit.position.distance(target) < 0.1,
                "n_true {n_true}: position {:?}",
                fit.position
            );
        }
    }

    #[test]
    fn recovers_gamma_jointly() {
        let pts = synthetic(Vec2::new(2.0, 5.0), -64.0, 2.4);
        let fit = search_exponent(&pts, &ExponentSearch::default()).unwrap();
        assert!(
            (fit.gamma_dbm + 64.0).abs() < 0.5,
            "gamma {}",
            fit.gamma_dbm
        );
    }

    #[test]
    fn refinement_beats_coarse_grid() {
        let pts = synthetic(Vec2::new(3.0, 4.0), -59.0, 2.63);
        let coarse = search_exponent(
            &pts,
            &ExponentSearch {
                refine_iters: 0,
                ..Default::default()
            },
        )
        .unwrap();
        let refined = search_exponent(&pts, &ExponentSearch::default()).unwrap();
        assert!(refined.residual_db <= coarse.residual_db + 1e-12);
        assert!((refined.exponent - 2.63).abs() < (coarse.exponent - 2.63).abs() + 1e-12);
    }

    #[test]
    fn golden_section_retains_one_probe_per_iteration() {
        // Instrumented closure: proper golden-section costs exactly
        // grid + refine_iters + 1 solves, not grid + 2·refine_iters.
        let pts = synthetic(Vec2::new(3.0, 4.5), -59.0, 2.5);
        let mut solver = FitSolver::new();
        solver.ensure(&pts);
        let solver = &solver;
        let search = ExponentSearch::default();
        let mut count = 0usize;
        let fit = search_scored(&search, |n| {
            count += 1;
            solver.solve(n).map(|f| (f, f.residual_db))
        })
        .unwrap();
        assert!((fit.exponent - 2.5).abs() < 0.05);
        assert_eq!(count, search.grid + search.refine_iters + 1);
        assert!(
            count < search.grid + 2 * search.refine_iters,
            "single-probe golden must beat the double-probe variant"
        );

        // Grid-only search evaluates exactly the grid.
        let grid_only = ExponentSearch {
            refine_iters: 0,
            ..Default::default()
        };
        count = 0;
        search_scored(&grid_only, |n| {
            count += 1;
            solver.solve(n).map(|f| (f, f.residual_db))
        })
        .unwrap();
        assert_eq!(count, grid_only.grid);
    }

    #[test]
    fn warm_solver_search_matches_cold_search() {
        let pts = synthetic(Vec2::new(2.5, 4.0), -60.0, 2.8);
        let mut solver = FitSolver::new();
        // Warm the cache on a prefix first, then search the full set.
        search_exponent_with(&mut solver, &pts[..10], &ExponentSearch::default());
        let warm = search_exponent_with(&mut solver, &pts, &ExponentSearch::default()).unwrap();
        let cold = search_exponent(&pts, &ExponentSearch::default()).unwrap();
        assert_eq!(warm.position.x.to_bits(), cold.position.x.to_bits());
        assert_eq!(warm.position.y.to_bits(), cold.position.y.to_bits());
        assert_eq!(warm.gamma_dbm.to_bits(), cold.gamma_dbm.to_bits());
        assert_eq!(warm.residual_db.to_bits(), cold.residual_db.to_bits());
    }

    #[test]
    fn empty_input_returns_none() {
        assert!(search_exponent(&[], &ExponentSearch::default()).is_none());
    }

    #[test]
    fn invalid_interval_returns_none() {
        let pts = synthetic(Vec2::new(3.0, 4.0), -59.0, 2.0);
        let bad = ExponentSearch {
            min: 3.0,
            max: 2.0,
            ..Default::default()
        };
        assert!(search_exponent(&pts, &bad).is_none());
    }
}
