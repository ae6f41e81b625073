//! The sensor-fusion regression at the heart of LocBLE (paper §5).
//!
//! Starting from the path-loss model `RS_i = Γ − 10·n·log10(l_i)` and the
//! fused geometry `l_i² = (x + p_i)² + (h + q_i)²` (where `(p_i, q_i)` is
//! the relative displacement between target and observer at sample `i`),
//! substituting `ε = 10^(Γ/(5n))` and `ρ_i = 10^(−RS_i/(5n))` gives the
//! paper's Eq. 2/3:
//!
//! `A·(p² + q²) + C·p + D·q + G = ρ`, with
//! `A = 1/ε, C = 2x/ε, D = 2h/ε, G = (x² + h²)/ε`.
//!
//! For a *fixed* exponent `n` this is linear least squares (paper Eq. 4);
//! the exponent itself is found by the outer numeric search in
//! [`crate::exponent`]. Two fits are provided:
//!
//! * [`CircularFit`] — the joint 4-parameter fit over a 2-D movement
//!   (unique solution when the walk is not collinear);
//! * [`LegFit`] — the 3-parameter fit over one *straight leg*, which by
//!   symmetry yields the two mirror candidates of paper Fig. 7; the
//!   L-shaped movement's second leg disambiguates them.
//!
//! # Shared factorization
//!
//! The design matrix of Eq. 4 depends only on walk geometry `(p, q)` — a
//! candidate exponent changes only the right-hand side `ρ`. The outer
//! exponent search therefore re-solves the *same* linear system dozens of
//! times per refit. [`FitSolver`] (and [`LegSolver`] for the straight-leg
//! variant) accumulates the geometry features and Gram matrix once,
//! factorizes once, and answers each candidate with an `Xᵀρ` accumulation
//! (one `exp` per point, no `powf`) plus a back-substitution.
//! Accumulation is strictly sequential, so [`FitSolver::ensure`] can
//! extend a cached session incrementally in O(new samples) with results
//! bit-identical to a from-scratch rebuild.
//!
//! # Shared ρ rows
//!
//! `ρ` depends only on the RSS values and the exponent, and every rung of
//! the estimator's fallback ladder scores the same coarse-grid exponents.
//! A [`RhoTable`] computes each grid exponent's ρ row once per refit;
//! the `*_row` solve variants read it instead of calling `exp`, and stop
//! their residual pass as soon as the partial sum proves the candidate
//! cannot beat a given bound. Both are bit-identical to the inline path:
//! the row holds exactly the values the inline pass computes, and a
//! candidate is cut short only when its residual could not have won.

use locble_geom::Vec2;
use locble_ml::{GramSolver, Matrix};
use locble_rf::MIN_RANGE_M;

/// Ridge used by every regression in this module (matches the historical
/// `Matrix::least_squares` call sites).
const RIDGE: f64 = 1e-9;

/// One fused sample: relative displacement `(p, q)` and its RSS reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RssPoint {
    /// `p_i = b_i − a_i`: relative x displacement, metres.
    pub p: f64,
    /// `q_i = d_i − c_i`: relative y displacement, metres.
    pub q: f64,
    /// Filtered RSS reading, dBm.
    pub rss: f64,
}

impl RssPoint {
    /// Builds a point from an observer displacement (stationary target):
    /// `p = −a, q = −c`.
    pub fn from_observer_displacement(disp: Vec2, rss: f64) -> RssPoint {
        RssPoint {
            p: -disp.x,
            q: -disp.y,
            rss,
        }
    }

    /// Builds a point from both displacements (moving target).
    pub fn from_displacements(target: Vec2, observer: Vec2, rss: f64) -> RssPoint {
        RssPoint {
            p: target.x - observer.x,
            q: target.y - observer.y,
            rss,
        }
    }
}

/// Result of the joint circular fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircularFit {
    /// Estimated target position `(x, h)` in the local frame.
    pub position: Vec2,
    /// Recovered `Γ` (reference power at 1 m), dBm.
    pub gamma_dbm: f64,
    /// The exponent this fit was computed for.
    pub exponent: f64,
    /// RMS residual in dB between observed and model-predicted RSS.
    pub residual_db: f64,
}

/// Computes `ρ_i = 10^(−RS_i/(5n))`, normalized to mean 1 for numerical
/// conditioning; returns the values and the normalization scale. Used
/// only by the [`CircularFit::solve_reference`] baseline.
fn rho_values(points: &[RssPoint], exponent: f64) -> (Vec<f64>, f64) {
    let k = rho_coefficient(exponent);
    let raw: Vec<f64> = points.iter().map(|pt| (k * pt.rss).exp()).collect();
    let scale = raw.iter().sum::<f64>() / raw.len() as f64;
    let scaled = raw.iter().map(|r| r / scale).collect();
    (scaled, scale)
}

/// RMS dB residual of a candidate `(x, h, Γ, n)` against the samples.
/// An empty slice has nothing to disagree with: the residual is 0.
pub fn rss_residual_db(points: &[RssPoint], position: Vec2, gamma: f64, exponent: f64) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let sum: f64 = points
        .iter()
        .map(|pt| {
            let l = Vec2::new(position.x + pt.p, position.y + pt.q)
                .norm()
                .max(MIN_RANGE_M);
            let pred = gamma - 10.0 * exponent * l.log10();
            (pt.rss - pred) * (pt.rss - pred)
        })
        .sum();
    (sum / points.len() as f64).sqrt()
}

/// `k = −ln10/(5n)`, so that `ρ = 10^(−RS/(5n)) = exp(k·RS)`: one `exp`
/// per point instead of a `powf` (which computes the same thing through
/// a slower log/exp round trip). Every ρ pass and [`RhoTable`] row uses
/// this one expression, which is what makes a table row bit-identical to
/// the inline pass it replaces.
fn rho_coefficient(exponent: f64) -> f64 {
    -std::f64::consts::LN_10 / (5.0 * exponent)
}

/// RMS dB residual of the model `RS = gamma − 5·n·log10(d²)` against
/// `rss`, where `offset(i)` is the vector from sample `i` to the candidate
/// target. Works in squared distances (`10·n·log10(l) = 5·n·log10(l²)`),
/// so no per-point `sqrt`/`hypot` is needed.
///
/// Returns `None` once the partial sum proves the residual is at least
/// `bound`: lane sums only grow (adding a non-negative term never lowers
/// a float sum), so a cut-short candidate could never have scored below
/// `bound`. The proof is the exact test `sqrt(partial/len) >= bound` on
/// the lanes combined in their final order; a cheap comparison against
/// `bound²·len` only decides when that test is worth running. A NaN
/// bound or a NaN partial sum never cuts a pass short.
fn residual_db(
    rss: &[f64],
    gamma: f64,
    n: f64,
    bound: f64,
    offset: impl Fn(usize) -> (f64, f64),
) -> Option<f64> {
    let len = rss.len();
    if len == 0 {
        return Some(0.0);
    }
    let min_sq = MIN_RANGE_M * MIN_RANGE_M;
    let sq_err = |i: usize| {
        let (dx, dy) = offset(i);
        let d_sq = (dx * dx + dy * dy).max(min_sq);
        let pred = gamma - 5.0 * n * d_sq.log10();
        let e = rss[i] - pred;
        e * e
    };
    // 4-lane unrolled reduction: independent lane accumulators break the
    // serial add chain so the per-point log10 work pipelines; lanes
    // combine in a fixed order, keeping the result deterministic.
    let lane_sum = |acc: &[f64; 4]| (acc[0] + acc[1]) + (acc[2] + acc[3]);
    let cut_above = bound * bound * len as f64;
    let mut acc = [0.0f64; 4];
    let quads = len - len % 4;
    for i in (0..quads).step_by(4) {
        for (l, a) in acc.iter_mut().enumerate() {
            *a += sq_err(i + l);
        }
        let partial = lane_sum(&acc);
        if partial >= cut_above && (partial / len as f64).sqrt() >= bound {
            return None;
        }
    }
    let mut sum = lane_sum(&acc);
    for i in quads..len {
        sum += sq_err(i);
    }
    Some((sum / len as f64).sqrt())
}

/// ρ rows of one refit, shared by every rung of the estimator's fallback
/// ladder.
///
/// Row `j` holds `exp(k·RS_i)` over the refit's RSS values for the `j`-th
/// coarse-grid exponent — exactly the values a solver's inline ρ pass
/// computes — and is filled on first request, so each grid exponent costs
/// one `exp` per sample per refit however many fits score it.
/// [`reset`](Self::reset) starts a refit; buffers keep their capacity, so
/// a warm table never allocates. The estimator keeps one table per worker
/// thread, not per session: a refit borrows it for its duration.
#[derive(Debug, Clone, Default)]
pub struct RhoTable {
    /// The refit's RSS values, dBm.
    rss: Vec<f64>,
    /// Row-major `rows × rss.len()` values; only filled rows are valid.
    values: Vec<f64>,
    filled: Vec<bool>,
    /// Rows computed since the last reset.
    fills: usize,
}

impl RhoTable {
    /// An empty table.
    pub fn new() -> RhoTable {
        RhoTable::default()
    }

    /// Starts a refit over `rss` with `rows` grid exponents; every row is
    /// marked unfilled.
    pub fn reset(&mut self, rss: impl IntoIterator<Item = f64>, rows: usize) {
        self.rss.clear();
        self.rss.extend(rss);
        let cells = rows * self.rss.len();
        if self.values.len() < cells {
            self.values.resize(cells, 0.0);
        }
        self.filled.clear();
        self.filled.resize(rows, false);
        self.fills = 0;
    }

    /// Pre-grows the table for refits of up to `len` samples over `rows`
    /// grid exponents.
    pub fn reserve(&mut self, rows: usize, len: usize) {
        self.rss.reserve(len.saturating_sub(self.rss.len()));
        self.values
            .reserve((rows * len).saturating_sub(self.values.len()));
        self.filled.reserve(rows.saturating_sub(self.filled.len()));
    }

    /// The refit's RSS values (as passed to [`reset`](Self::reset)).
    pub fn rss(&self) -> &[f64] {
        &self.rss
    }

    /// Rows computed since the last [`reset`](Self::reset). A row is
    /// never computed twice in one refit, so this is also the number of
    /// distinct rows in use.
    pub fn fills(&self) -> usize {
        self.fills
    }

    /// The ρ row of grid point `index`, whose exponent is `exponent`;
    /// computed on the first request after a reset.
    ///
    /// # Panics
    /// Panics when `index` is not below the `rows` given to
    /// [`reset`](Self::reset).
    pub fn row(&mut self, index: usize, exponent: f64) -> &[f64] {
        let len = self.rss.len();
        let row = &mut self.values[index * len..(index + 1) * len];
        if !self.filled[index] {
            let k = rho_coefficient(exponent);
            for (r, &rs) in row.iter_mut().zip(&self.rss) {
                *r = (k * rs).exp();
            }
            self.filled[index] = true;
            self.fills += 1;
        }
        row
    }
}

/// Cached solver for [`CircularFit`]: accumulates the exponent-independent
/// geometry (flat `p`/`q`/`p²+q²` columns plus the 4×4 and 3×3 Gram
/// matrices) once, then answers any number of candidate exponents via
/// [`solve`](FitSolver::solve) / [`solve_anchored`](FitSolver::solve_anchored)
/// at `O(points)` per candidate with no allocation.
///
/// [`ensure`](FitSolver::ensure) is incremental: when the new point set
/// extends the cached one (bitwise, in `(p, q)`), only the new rows are
/// accumulated; RSS values are refreshed wholesale because the zero-phase
/// ANF re-filters the entire series on every refit. Because Gram
/// accumulation is strictly sequential, the extended state is
/// bit-identical to a from-scratch rebuild — the property the streaming
/// export/restore and store-recovery suites rely on.
#[derive(Debug, Clone, Default)]
pub struct FitSolver {
    p: Vec<f64>,
    q: Vec<f64>,
    /// Cached `p² + q²` per point.
    s: Vec<f64>,
    rss: Vec<f64>,
    /// Gram of the 4-column free design `[p²+q², p, q, 1]`.
    gram: GramSolver<4>,
    /// Gram of the 3-column anchored design `[p, q, 1]`.
    gram3: GramSolver<3>,
    /// Per-session estimator scratch arena (filter/fusion buffers).
    /// Owned here because the solver is the one per-session object the
    /// streaming layer already threads through every refit; survives
    /// [`clear`](FitSolver::clear) so capacity is kept across restarts.
    pub(crate) scratch: crate::estimator::EstimatorScratch,
}

impl FitSolver {
    /// An empty solver with no cached session.
    pub fn new() -> FitSolver {
        FitSolver::default()
    }

    /// Drops all cached geometry (e.g. on an EnvAware session restart).
    pub fn clear(&mut self) {
        self.p.clear();
        self.q.clear();
        self.s.clear();
        self.rss.clear();
        self.gram.reset();
        self.gram3.reset();
    }

    /// Number of points currently cached.
    pub fn len(&self) -> usize {
        self.p.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.p.is_empty()
    }

    /// Pre-grows every per-point buffer (columns and scratch arena) for
    /// `additional` more samples, so a steady-state refit of a session
    /// that keeps growing performs no heap allocation until the headroom
    /// is consumed.
    pub fn reserve(&mut self, additional: usize) {
        self.p.reserve(additional);
        self.q.reserve(additional);
        self.s.reserve(additional);
        self.rss.reserve(additional);
        self.scratch.reserve(self.len() + additional);
    }

    /// Synchronizes the cache with `points`. When `points` extends the
    /// cached set (same `(p, q)` prefix, bit for bit), only the new rows
    /// are accumulated; otherwise the cache is rebuilt from scratch. RSS
    /// values are always refreshed (the zero-phase ANF changes them on
    /// every refit), and both Gram factorizations are brought up to date.
    pub fn ensure(&mut self, points: &[RssPoint]) {
        let prefix_ok = points.len() >= self.p.len()
            && self
                .p
                .iter()
                .zip(&self.q)
                .zip(points)
                .all(|((&p, &q), pt)| {
                    p.to_bits() == pt.p.to_bits() && q.to_bits() == pt.q.to_bits()
                });
        if !prefix_ok {
            self.clear();
        }
        for pt in &points[self.p.len()..] {
            let s = pt.p * pt.p + pt.q * pt.q;
            self.p.push(pt.p);
            self.q.push(pt.q);
            self.s.push(s);
            self.gram.accumulate(&[s, pt.p, pt.q, 1.0]);
            self.gram3.accumulate(&[pt.p, pt.q, 1.0]);
        }
        self.rss.clear();
        self.rss.extend(points.iter().map(|pt| pt.rss));
        self.gram.factorize(RIDGE);
        self.gram3.factorize(RIDGE);
    }

    /// Solves the free 4-parameter fit for one candidate exponent using
    /// the cached factorization. Semantics match [`CircularFit::solve`].
    pub fn solve(&self, exponent: f64) -> Option<CircularFit> {
        let k = rho_coefficient(exponent);
        self.solve_free(exponent, |i| (k * self.rss[i]).exp(), f64::NAN)
    }

    /// [`solve`](Self::solve) with a precomputed ρ row (a [`RhoTable`] row
    /// for this exponent over this solver's RSS values) and a residual
    /// bound: returns `None` as soon as the residual is proven to be at
    /// least `bound` (NaN = score in full). Otherwise bit-identical to
    /// `solve`.
    ///
    /// # Panics
    /// Panics when `rho` does not hold one value per cached point.
    pub fn solve_row(&self, exponent: f64, rho: &[f64], bound: f64) -> Option<CircularFit> {
        assert_eq!(rho.len(), self.len(), "one ρ value per cached point");
        self.solve_free(exponent, |i| rho[i], bound)
    }

    fn solve_free(
        &self,
        exponent: f64,
        rho: impl Fn(usize) -> f64,
        bound: f64,
    ) -> Option<CircularFit> {
        let n = self.p.len();
        if n < CircularFit::MIN_SAMPLES || exponent <= 0.0 {
            return None;
        }
        // Normalizing ρ to mean 1 is linear, so accumulate Xᵀρ over raw
        // values and divide once. 4-lane unrolled: per-lane partial sums
        // break the serial dependency on single accumulators so the
        // multiply-add work pipelines; lanes combine in a fixed order so
        // results stay deterministic (pinned to the reference within 1e-9
        // by the differential suite).
        let mut sum4 = [0.0f64; 4];
        let mut s4 = [0.0f64; 4];
        let mut p4 = [0.0f64; 4];
        let mut q4 = [0.0f64; 4];
        let quads = n - n % 4;
        for i in (0..quads).step_by(4) {
            for l in 0..4 {
                let rho = rho(i + l);
                sum4[l] += rho;
                s4[l] += self.s[i + l] * rho;
                p4[l] += self.p[i + l] * rho;
                q4[l] += self.q[i + l] * rho;
            }
        }
        let mut sum = (sum4[0] + sum4[1]) + (sum4[2] + sum4[3]);
        let mut xty = [
            (s4[0] + s4[1]) + (s4[2] + s4[3]),
            (p4[0] + p4[1]) + (p4[2] + p4[3]),
            (q4[0] + q4[1]) + (q4[2] + q4[3]),
            0.0,
        ];
        for i in quads..n {
            let rho = rho(i);
            sum += rho;
            xty[0] += self.s[i] * rho;
            xty[1] += self.p[i] * rho;
            xty[2] += self.q[i] * rho;
        }
        // xty[3] accumulates exactly the values `sum` does.
        xty[3] = sum;
        let scale = sum / n as f64;
        for v in &mut xty {
            *v /= scale;
        }
        let theta = self.gram.solve(xty)?;
        let (a, c, d) = (theta[0], theta[1], theta[2]);
        if a <= 1e-12 || !a.is_finite() {
            return None;
        }
        let x = c / (2.0 * a);
        let h = d / (2.0 * a);
        if !x.is_finite() || !h.is_finite() {
            return None;
        }
        // ε accounts for the ρ normalization: physically ρ' = ρ/scale =
        // l²/(ε·scale), while the fit gives ρ' = A'·l², so ε = 1/(A'·scale).
        let epsilon = 1.0 / (a * scale);
        let gamma = 5.0 * exponent * epsilon.log10();
        Some(CircularFit {
            position: Vec2::new(x, h),
            gamma_dbm: gamma,
            exponent,
            residual_db: self.residual_db(x, h, gamma, exponent, bound)?,
        })
    }

    /// Solves the Γ-anchored 3-parameter fit for one candidate exponent
    /// using the cached factorization. Semantics match
    /// [`CircularFit::solve_anchored`].
    pub fn solve_anchored(&self, exponent: f64, gamma_dbm: f64) -> Option<CircularFit> {
        let k = rho_coefficient(exponent);
        self.solve_anchored_with(exponent, gamma_dbm, |i| (k * self.rss[i]).exp(), f64::NAN)
    }

    /// [`solve_anchored`](Self::solve_anchored) with a precomputed ρ row
    /// and a residual bound, as in [`solve_row`](Self::solve_row).
    ///
    /// # Panics
    /// Panics when `rho` does not hold one value per cached point.
    pub fn solve_anchored_row(
        &self,
        exponent: f64,
        gamma_dbm: f64,
        rho: &[f64],
        bound: f64,
    ) -> Option<CircularFit> {
        assert_eq!(rho.len(), self.len(), "one ρ value per cached point");
        self.solve_anchored_with(exponent, gamma_dbm, |i| rho[i], bound)
    }

    fn solve_anchored_with(
        &self,
        exponent: f64,
        gamma_dbm: f64,
        rho: impl Fn(usize) -> f64,
        bound: f64,
    ) -> Option<CircularFit> {
        let n = self.p.len();
        if n < 4 || exponent <= 0.0 {
            return None;
        }
        let epsilon = 10f64.powf(gamma_dbm / (5.0 * exponent));
        let a = 1.0 / epsilon;
        // ρ − A(p²+q²) = C·p + D·q + G, with raw (unnormalized) ρ.
        // 4-lane unrolled like `solve`; fixed lane-combine order.
        let mut p4 = [0.0f64; 4];
        let mut q4 = [0.0f64; 4];
        let mut g4 = [0.0f64; 4];
        let quads = n - n % 4;
        for i in (0..quads).step_by(4) {
            for l in 0..4 {
                let rhs = rho(i + l) - a * self.s[i + l];
                p4[l] += self.p[i + l] * rhs;
                q4[l] += self.q[i + l] * rhs;
                g4[l] += rhs;
            }
        }
        let mut xty = [
            (p4[0] + p4[1]) + (p4[2] + p4[3]),
            (q4[0] + q4[1]) + (q4[2] + q4[3]),
            (g4[0] + g4[1]) + (g4[2] + g4[3]),
        ];
        for i in quads..n {
            let rhs = rho(i) - a * self.s[i];
            xty[0] += self.p[i] * rhs;
            xty[1] += self.q[i] * rhs;
            xty[2] += rhs;
        }
        let theta = self.gram3.solve(xty)?;
        let x = theta[0] / (2.0 * a);
        let h = theta[1] / (2.0 * a);
        if !x.is_finite() || !h.is_finite() {
            return None;
        }
        Some(CircularFit {
            position: Vec2::new(x, h),
            gamma_dbm,
            exponent,
            residual_db: self.residual_db(x, h, gamma_dbm, exponent, bound)?,
        })
    }

    /// Bounded residual of the target `(x, h)` against the cached points.
    fn residual_db(&self, x: f64, h: f64, gamma: f64, n: f64, bound: f64) -> Option<f64> {
        residual_db(&self.rss, gamma, n, bound, |i| {
            (x + self.p[i], h + self.q[i])
        })
    }
}

impl CircularFit {
    /// Minimum samples for the 4-parameter fit.
    pub const MIN_SAMPLES: usize = 6;

    /// Solves the joint fit for a fixed exponent. Returns `None` when the
    /// system is singular/ill-conditioned (e.g. a collinear walk — use
    /// [`LegFit`] then) or produces a non-physical `A ≤ 0`.
    ///
    /// One-shot convenience over [`FitSolver`]; callers evaluating many
    /// exponents over the same points should hold a `FitSolver` instead.
    pub fn solve(points: &[RssPoint], exponent: f64) -> Option<CircularFit> {
        let mut solver = FitSolver::new();
        solver.ensure(points);
        solver.solve(exponent)
    }

    /// Pre-optimization baseline: the original per-call implementation
    /// (row-matrix allocation + full `Matrix::least_squares` + per-point
    /// `powf`). Kept as the ground truth for the differential suite and
    /// the warm-search ratio test; not used by the production path.
    pub fn solve_reference(points: &[RssPoint], exponent: f64) -> Option<CircularFit> {
        if points.len() < Self::MIN_SAMPLES || exponent <= 0.0 {
            return None;
        }
        let (rho, scale) = rho_values(points, exponent);
        let rows: Vec<Vec<f64>> = points
            .iter()
            .map(|pt| vec![pt.p * pt.p + pt.q * pt.q, pt.p, pt.q, 1.0])
            .collect();
        let design = Matrix::from_rows(&rows);
        let theta = design.least_squares(&rho, RIDGE)?;
        let (a, c, d, _g) = (theta[0], theta[1], theta[2], theta[3]);
        if a <= 1e-12 || !a.is_finite() {
            return None;
        }
        let x = c / (2.0 * a);
        let h = d / (2.0 * a);
        if !x.is_finite() || !h.is_finite() {
            return None;
        }
        let epsilon = 1.0 / (a * scale);
        let gamma = 5.0 * exponent * epsilon.log10();
        let position = Vec2::new(x, h);
        Some(CircularFit {
            position,
            gamma_dbm: gamma,
            exponent,
            residual_db: rss_residual_db(points, position, gamma, exponent),
        })
    }
}

impl CircularFit {
    /// Anchored variant: fixes `Γ` (hence `A = 1/ε`) from the beacon's
    /// *advertised* measured power — every commodity beacon frame carries
    /// one (iBeacon "measured power", Eddystone Tx-at-0m, AltBeacon
    /// reference RSSI) — and solves only the linear `[C, D, G]` system.
    /// Used when the free fit's quadratic term is not identifiable (its
    /// `A` comes out non-positive under heavy noise): the anchor restores
    /// identifiability at the price of trusting the calibration constant.
    pub fn solve_anchored(
        points: &[RssPoint],
        exponent: f64,
        gamma_dbm: f64,
    ) -> Option<CircularFit> {
        let mut solver = FitSolver::new();
        solver.ensure(points);
        solver.solve_anchored(exponent, gamma_dbm)
    }
}

/// Result of a single-leg fit: the two mirror candidates of Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegFit {
    /// The two candidate positions, symmetric across the leg's line.
    pub candidates: [Vec2; 2],
    /// Recovered `Γ`, dBm.
    pub gamma_dbm: f64,
    /// The exponent used.
    pub exponent: f64,
    /// RMS residual in dB (identical for both candidates, by symmetry).
    pub residual_db: f64,
}

/// Cached solver for [`LegFit`]: the leg frame, projected coordinates and
/// 3×3 Gram matrix depend only on the positions, so one `LegSolver` built
/// per leg answers every candidate exponent of the outer search with a
/// single `Xᵀρ` pass plus back-substitution. The estimator keeps one per
/// worker thread and rebuilds it in place for each collinear refit, so
/// the leg rung reuses its buffers instead of allocating.
#[derive(Debug, Clone, Default)]
pub struct LegSolver {
    origin: Vec2,
    u: Vec2,
    /// Projection of each position onto the leg direction.
    s: Vec<f64>,
    /// True 2-D offsets from the origin (positions are not exactly
    /// collinear, so the residual must not assume they are).
    dx: Vec<f64>,
    dy: Vec<f64>,
    rss: Vec<f64>,
    gram: GramSolver<3>,
}

impl LegSolver {
    /// Builds the exponent-independent state for one leg. Returns `None`
    /// for degenerate legs (too few samples or too little movement).
    ///
    /// # Panics
    /// Panics when `positions` and `rss` differ in length.
    pub fn new(positions: &[Vec2], rss: &[f64]) -> Option<LegSolver> {
        let mut solver = LegSolver::default();
        solver.rebuild(positions, rss).then_some(solver)
    }

    /// Rebuilds the solver in place for a new leg, keeping its buffers'
    /// capacity. Returns `false` for degenerate legs, leaving a solver
    /// whose every solve returns `None`.
    ///
    /// # Panics
    /// Panics when `positions` and `rss` differ in length.
    pub(crate) fn rebuild(&mut self, positions: &[Vec2], rss: &[f64]) -> bool {
        assert_eq!(positions.len(), rss.len(), "positions/rss length mismatch");
        self.s.clear();
        self.dx.clear();
        self.dy.clear();
        self.rss.clear();
        self.gram.reset();
        if positions.len() < LegFit::MIN_SAMPLES {
            return false;
        }
        // Leg frame: origin at the first position, unit direction u.
        let origin = positions[0];
        let span = positions[positions.len() - 1] - origin;
        if span.norm() < 0.5 {
            return false; // too little movement to regress on
        }
        let Some(u) = span.normalized() else {
            return false;
        };
        self.origin = origin;
        self.u = u;
        self.rss.extend_from_slice(rss);
        for &pos in positions {
            let d = pos - origin;
            let si = d.dot(u);
            self.s.push(si);
            self.dx.push(d.x);
            self.dy.push(d.y);
            self.gram.accumulate(&[si * si, si, 1.0]);
        }
        self.gram.factorize(RIDGE);
        true
    }

    /// Pre-grows the buffers for legs of up to `len` samples.
    pub(crate) fn reserve(&mut self, len: usize) {
        for v in [&mut self.s, &mut self.dx, &mut self.dy, &mut self.rss] {
            v.reserve(len.saturating_sub(v.len()));
        }
    }

    /// Solves the leg fit for one candidate exponent using the cached
    /// factorization. Semantics match [`LegFit::solve`].
    pub fn solve(&self, exponent: f64) -> Option<LegFit> {
        let k = rho_coefficient(exponent);
        self.solve_with(exponent, |i| (k * self.rss[i]).exp(), f64::NAN)
    }

    /// [`solve`](Self::solve) with a precomputed ρ row (a [`RhoTable`] row
    /// for this exponent over this leg's RSS values) and a residual bound,
    /// as in [`FitSolver::solve_row`].
    ///
    /// # Panics
    /// Panics when `rho` does not hold one value per leg sample.
    pub fn solve_row(&self, exponent: f64, rho: &[f64], bound: f64) -> Option<LegFit> {
        assert_eq!(rho.len(), self.s.len(), "one ρ value per leg sample");
        self.solve_with(exponent, |i| rho[i], bound)
    }

    fn solve_with(&self, exponent: f64, rho: impl Fn(usize) -> f64, bound: f64) -> Option<LegFit> {
        let n = self.s.len();
        if n < LegFit::MIN_SAMPLES || exponent <= 0.0 {
            return None;
        }
        // l_i² = |v − s_i·u|² = s² − 2·s·(v·u) + |v|², where v = target −
        // origin: A·s² + B·s + G = ρ with A = 1/ε, B = −2(v·u)/ε,
        // G = |v|²/ε. Same normalized-ρ trick as the circular fit.
        // 4-lane unrolled ρ/RHS pass; see [`FitSolver::solve`].
        let mut ss4 = [0.0f64; 4];
        let mut s4 = [0.0f64; 4];
        let mut g4 = [0.0f64; 4];
        let quads = n - n % 4;
        for i in (0..quads).step_by(4) {
            for l in 0..4 {
                let rho = rho(i + l);
                ss4[l] += self.s[i + l] * self.s[i + l] * rho;
                s4[l] += self.s[i + l] * rho;
                g4[l] += rho;
            }
        }
        let mut sum = (g4[0] + g4[1]) + (g4[2] + g4[3]);
        let mut xty = [
            (ss4[0] + ss4[1]) + (ss4[2] + ss4[3]),
            (s4[0] + s4[1]) + (s4[2] + s4[3]),
            0.0,
        ];
        for i in quads..n {
            let rho = rho(i);
            sum += rho;
            xty[0] += self.s[i] * self.s[i] * rho;
            xty[1] += self.s[i] * rho;
        }
        // xty[2] accumulates exactly the values `sum` does.
        xty[2] = sum;
        let scale = sum / n as f64;
        for v in &mut xty {
            *v /= scale;
        }
        let theta = self.gram.solve(xty)?;
        let (a, b, g) = (theta[0], theta[1], theta[2]);
        if a <= 1e-12 || !a.is_finite() {
            return None;
        }
        let along = -b / (2.0 * a); // v·u
        let dist_sq = g / a; // |v|²
        let perp_sq = dist_sq - along * along;
        // Noise can push perp² slightly negative when the target is on
        // the leg's line; clamp to zero (both candidates coincide).
        let perp = perp_sq.max(0.0).sqrt();

        let epsilon = 1.0 / (a * scale);
        let gamma = 5.0 * exponent * epsilon.log10();
        let base = self.origin + self.u * along;
        let candidates = [base + self.u.perp() * perp, base - self.u.perp() * perp];

        // Residual against candidate 0 (symmetry makes both equal up to
        // floating error), in the origin-relative frame.
        let cw = self.u * along + self.u.perp() * perp;
        let residual_db = residual_db(&self.rss, gamma, exponent, bound, |i| {
            (cw.x - self.dx[i], cw.y - self.dy[i])
        })?;
        Some(LegFit {
            candidates,
            gamma_dbm: gamma,
            exponent,
            residual_db,
        })
    }
}

impl LegFit {
    /// Minimum samples for the 3-parameter leg fit.
    pub const MIN_SAMPLES: usize = 5;

    /// Fits one straight leg. `positions[i]` is the observer position at
    /// sample `i` in the local frame (the target is assumed stationary
    /// relative to the leg — for a moving target, pass relative
    /// positions). Returns `None` for degenerate legs (no movement,
    /// singular system, non-physical fit).
    ///
    /// One-shot convenience over [`LegSolver`]; callers evaluating many
    /// exponents over the same leg should hold a `LegSolver` instead.
    pub fn solve(positions: &[Vec2], rss: &[f64], exponent: f64) -> Option<LegFit> {
        LegSolver::new(positions, rss).and_then(|solver| solver.solve(exponent))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locble_rf::LogDistanceModel;

    /// Generates noiseless samples for a stationary target seen from a
    /// moving observer.
    fn synthetic(
        target: Vec2,
        path: &[Vec2],
        gamma: f64,
        n: f64,
    ) -> (Vec<RssPoint>, Vec<Vec2>, Vec<f64>) {
        let model = LogDistanceModel::new(gamma, n);
        let mut pts = Vec::new();
        let mut rss = Vec::new();
        for &pos in path {
            let r = model.rss_at(target.distance(pos));
            pts.push(RssPoint::from_observer_displacement(pos - path[0], r));
            rss.push(r);
        }
        (pts, path.to_vec(), rss)
    }

    fn l_path(n_per_leg: usize, leg1: f64, leg2: f64) -> Vec<Vec2> {
        let mut p = Vec::new();
        for i in 0..n_per_leg {
            p.push(Vec2::new(leg1 * i as f64 / (n_per_leg - 1) as f64, 0.0));
        }
        for i in 1..n_per_leg {
            p.push(Vec2::new(leg1, leg2 * i as f64 / (n_per_leg - 1) as f64));
        }
        p
    }

    #[test]
    fn joint_fit_recovers_exact_position_noiseless() {
        let target = Vec2::new(3.0, 4.0);
        let (pts, _, _) = synthetic(target, &l_path(12, 4.0, 3.0), -59.0, 2.0);
        let fit = CircularFit::solve(&pts, 2.0).unwrap();
        assert!(
            fit.position.distance(target) < 1e-6,
            "got {:?}",
            fit.position
        );
        assert!(
            (fit.gamma_dbm + 59.0).abs() < 1e-6,
            "gamma {}",
            fit.gamma_dbm
        );
        assert!(fit.residual_db < 1e-6); // ridge + float error leave ~1e-8
    }

    #[test]
    fn joint_fit_recovers_target_behind_observer() {
        let target = Vec2::new(-2.0, -5.0);
        let (pts, _, _) = synthetic(target, &l_path(12, 4.0, 3.0), -55.0, 2.7);
        let fit = CircularFit::solve(&pts, 2.7).unwrap();
        assert!(
            fit.position.distance(target) < 1e-6,
            "got {:?}",
            fit.position
        );
    }

    #[test]
    fn cached_solver_matches_reference_implementation() {
        let target = Vec2::new(3.0, 4.0);
        let (mut pts, _, _) = synthetic(target, &l_path(14, 4.0, 3.0), -61.0, 2.3);
        for (i, p) in pts.iter_mut().enumerate() {
            p.rss += if i % 2 == 0 { 0.7 } else { -0.7 };
        }
        let mut solver = FitSolver::new();
        solver.ensure(&pts);
        for k in 0..10 {
            let n = 1.6 + 0.3 * k as f64;
            let cached = solver.solve(n).unwrap();
            let reference = CircularFit::solve_reference(&pts, n).unwrap();
            assert!(
                cached.position.distance(reference.position) < 1e-9,
                "n={n}: {:?} vs {:?}",
                cached.position,
                reference.position
            );
            assert!((cached.gamma_dbm - reference.gamma_dbm).abs() < 1e-9);
            assert!((cached.residual_db - reference.residual_db).abs() < 1e-9);
        }
    }

    /// Satellite regression: `rho_values` now uses the single-exp
    /// identity; it must agree with the historical per-point `powf` form
    /// to within accumulated rounding (≤ 1e-12 relative).
    #[test]
    fn rho_values_exp_form_matches_powf_form() {
        let target = Vec2::new(3.0, 4.0);
        let (mut pts, _, _) = synthetic(target, &l_path(11, 4.0, 3.0), -61.0, 2.3);
        for (i, p) in pts.iter_mut().enumerate() {
            p.rss += if i % 3 == 0 { 1.1 } else { -0.6 };
        }
        for exponent in [1.4, 2.0, 2.7, 5.5] {
            let (scaled, scale) = rho_values(&pts, exponent);
            let raw_ref: Vec<f64> = pts
                .iter()
                .map(|pt| 10f64.powf(-pt.rss / (5.0 * exponent)))
                .collect();
            let scale_ref = raw_ref.iter().sum::<f64>() / raw_ref.len() as f64;
            assert!(
                ((scale - scale_ref) / scale_ref).abs() < 1e-12,
                "n={exponent}: scale {scale} vs {scale_ref}"
            );
            for (s, r) in scaled.iter().zip(&raw_ref) {
                let s_ref = r / scale_ref;
                assert!(
                    ((s - s_ref) / s_ref).abs() < 1e-12,
                    "n={exponent}: rho {s} vs {s_ref}"
                );
            }
        }
    }

    /// Differential coverage for the 4-lane unrolled RHS/residual
    /// kernels: every point-count tail residue (n % 4 ∈ {0,1,2,3}) must
    /// match the reference implementation.
    #[test]
    fn unrolled_kernels_match_reference_at_every_tail_length() {
        let target = Vec2::new(2.5, 3.5);
        let (mut pts, _, _) = synthetic(target, &l_path(14, 4.2, 3.1), -60.0, 2.2);
        for (i, p) in pts.iter_mut().enumerate() {
            p.rss += if i % 2 == 0 { 0.8 } else { -0.8 };
        }
        for cut in CircularFit::MIN_SAMPLES..=pts.len() {
            let mut solver = FitSolver::new();
            solver.ensure(&pts[..cut]);
            let (cached, reference) = (
                solver.solve(2.4),
                CircularFit::solve_reference(&pts[..cut], 2.4),
            );
            match (cached, reference) {
                (Some(a), Some(b)) => {
                    assert!(
                        a.position.distance(b.position) < 1e-9,
                        "cut {cut}: {:?} vs {:?}",
                        a.position,
                        b.position
                    );
                    assert!((a.gamma_dbm - b.gamma_dbm).abs() < 1e-9, "cut {cut}");
                    assert!((a.residual_db - b.residual_db).abs() < 1e-9, "cut {cut}");
                }
                (None, None) => {}
                (a, b) => panic!("cut {cut}: cached {a:?} vs reference {b:?}"),
            }
        }
    }

    #[test]
    fn incremental_ensure_is_bit_identical_to_fresh_solver() {
        let target = Vec2::new(-2.5, 3.5);
        let (pts, _, _) = synthetic(target, &l_path(8, 4.4, 3.3), -58.0, 2.1);
        let mut warm = FitSolver::new();
        for cut in [6, 10, 12, pts.len()] {
            warm.ensure(&pts[..cut]);
            let mut fresh = FitSolver::new();
            fresh.ensure(&pts[..cut]);
            match (warm.solve(2.4), fresh.solve(2.4)) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.position.x.to_bits(), b.position.x.to_bits());
                    assert_eq!(a.position.y.to_bits(), b.position.y.to_bits());
                    assert_eq!(a.gamma_dbm.to_bits(), b.gamma_dbm.to_bits());
                    assert_eq!(a.residual_db.to_bits(), b.residual_db.to_bits());
                }
                (None, None) => {}
                (a, b) => panic!("warm {a:?} vs fresh {b:?} at cut {cut}"),
            }
        }
        // The full L-walk must actually solve, or the loop proved nothing.
        assert!(warm.solve(2.4).is_some());
    }

    #[test]
    fn ensure_rebuilds_on_changed_prefix() {
        let (pts_a, _, _) = synthetic(Vec2::new(3.0, 4.0), &l_path(12, 4.0, 3.0), -59.0, 2.0);
        let (pts_b, _, _) = synthetic(Vec2::new(-1.0, 2.0), &l_path(10, 3.0, 2.5), -63.0, 2.6);
        let mut solver = FitSolver::new();
        solver.ensure(&pts_a);
        assert_eq!(solver.len(), pts_a.len());
        // A restart hands the solver a completely different session.
        solver.ensure(&pts_b);
        assert_eq!(solver.len(), pts_b.len());
        let restarted = solver.solve(2.6).unwrap();
        let fresh = CircularFit::solve(&pts_b, 2.6).unwrap();
        assert_eq!(
            restarted.position.x.to_bits(),
            fresh.position.x.to_bits(),
            "rebuild after restart must match a fresh solve"
        );
        assert_eq!(restarted.residual_db.to_bits(), fresh.residual_db.to_bits());
    }

    #[test]
    fn wrong_exponent_has_larger_residual() {
        let target = Vec2::new(3.0, 4.0);
        let (pts, _, _) = synthetic(target, &l_path(12, 4.0, 3.0), -59.0, 2.6);
        let right = CircularFit::solve(&pts, 2.6).unwrap();
        let wrong = CircularFit::solve(&pts, 4.0).unwrap();
        assert!(right.residual_db < wrong.residual_db - 0.1);
    }

    #[test]
    fn collinear_walk_is_rejected_or_ambiguous_for_joint_fit() {
        // Straight-line observer: the joint system cannot determine the
        // sign of h; the ridge-regularized solve returns h ≈ 0 or the
        // solve fails. Either way the result must not silently claim the
        // true position.
        let target = Vec2::new(3.0, 4.0);
        let path: Vec<Vec2> = (0..12).map(|i| Vec2::new(i as f64 * 0.5, 0.0)).collect();
        let (pts, _, _) = synthetic(target, &path, -59.0, 2.0);
        if let Some(fit) = CircularFit::solve(&pts, 2.0) {
            assert!(
                fit.position.y.abs() < 1.0,
                "collinear fit should collapse h toward 0, got {:?}",
                fit.position
            );
        }
    }

    #[test]
    fn empty_slice_residual_is_zero_not_nan() {
        // rss_residual_db is pub and reachable outside solve's
        // MIN_SAMPLES guard; it must not return NaN (0/0 then sqrt).
        let r = rss_residual_db(&[], Vec2::new(1.0, 2.0), -59.0, 2.0);
        assert_eq!(r, 0.0);
        assert!(!r.is_nan());
    }

    #[test]
    fn leg_fit_produces_mirror_candidates() {
        let target = Vec2::new(3.0, 4.0);
        let path: Vec<Vec2> = (0..10).map(|i| Vec2::new(i as f64 * 0.45, 0.0)).collect();
        let (_, positions, rss) = synthetic(target, &path, -59.0, 2.0);
        let fit = LegFit::solve(&positions, &rss, 2.0).unwrap();
        // One candidate is the target, the other its mirror across y=0.
        let mirror = Vec2::new(3.0, -4.0);
        let d0 = fit.candidates[0]
            .distance(target)
            .min(fit.candidates[0].distance(mirror));
        let d1 = fit.candidates[1]
            .distance(target)
            .min(fit.candidates[1].distance(mirror));
        assert!(d0 < 1e-6 && d1 < 1e-6, "candidates {:?}", fit.candidates);
        assert!(
            fit.candidates[0].distance(fit.candidates[1]) > 7.9,
            "mirror pair should straddle the leg"
        );
        assert!((fit.gamma_dbm + 59.0).abs() < 1e-6);
    }

    #[test]
    fn leg_fit_works_for_arbitrary_leg_direction() {
        let target = Vec2::new(-1.0, 6.0);
        // Leg at 30° from an offset origin.
        let dir = Vec2::from_angle(0.52);
        let origin = Vec2::new(2.0, 1.0);
        let path: Vec<Vec2> = (0..10).map(|i| origin + dir * (i as f64 * 0.5)).collect();
        let (_, positions, rss) = synthetic(target, &path, -62.0, 2.4);
        let fit = LegFit::solve(&positions, &rss, 2.4).unwrap();
        let best = fit
            .candidates
            .iter()
            .map(|c| c.distance(target))
            .fold(f64::INFINITY, f64::min);
        assert!(best < 1e-6, "candidates {:?}", fit.candidates);
    }

    #[test]
    fn leg_solver_reuses_geometry_across_exponents() {
        let target = Vec2::new(2.0, 5.0);
        let path: Vec<Vec2> = (0..12).map(|i| Vec2::new(i as f64 * 0.4, 0.0)).collect();
        let (_, positions, rss) = synthetic(target, &path, -60.0, 2.2);
        let solver = LegSolver::new(&positions, &rss).unwrap();
        for k in 0..8 {
            let n = 1.6 + 0.4 * k as f64;
            let cached = solver.solve(n);
            let oneshot = LegFit::solve(&positions, &rss, n);
            match (cached, oneshot) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.candidates[0].x.to_bits(), b.candidates[0].x.to_bits());
                    assert_eq!(a.candidates[1].y.to_bits(), b.candidates[1].y.to_bits());
                    assert_eq!(a.residual_db.to_bits(), b.residual_db.to_bits());
                }
                (None, None) => {}
                (a, b) => panic!("cached {a:?} vs oneshot {b:?} at n={n}"),
            }
        }
    }

    #[test]
    fn second_leg_disambiguates() {
        // Paper Fig. 7: intersect the candidate sets of the two legs.
        let target = Vec2::new(3.0, 4.0);
        let path = l_path(10, 4.0, 3.0);
        let (_, positions, rss) = synthetic(target, &path, -59.0, 2.0);
        let leg1 = LegFit::solve(&positions[..10], &rss[..10], 2.0).unwrap();
        let leg2 = LegFit::solve(&positions[10..], &rss[10..], 2.0).unwrap();
        // The closest cross-leg candidate pair identifies the target.
        let mut best = (f64::INFINITY, Vec2::ZERO);
        for c1 in leg1.candidates {
            for c2 in leg2.candidates {
                let d = c1.distance(c2);
                if d < best.0 {
                    best = (d, (c1 + c2) * 0.5);
                }
            }
        }
        assert!(best.0 < 1e-5, "candidate sets should overlap");
        assert!(best.1.distance(target) < 1e-5, "resolved {:?}", best.1);
    }

    #[test]
    fn too_few_samples_returns_none() {
        let pts = vec![
            RssPoint {
                p: 0.0,
                q: 0.0,
                rss: -60.0
            };
            4
        ];
        assert!(CircularFit::solve(&pts, 2.0).is_none());
        let pos = vec![Vec2::ZERO; 3];
        assert!(LegFit::solve(&pos, &[-60.0; 3], 2.0).is_none());
    }

    #[test]
    fn stationary_observer_leg_rejected() {
        let pos = vec![Vec2::new(1.0, 1.0); 8];
        assert!(LegFit::solve(&pos, &[-60.0; 8], 2.0).is_none());
    }

    #[test]
    fn noisy_fit_stays_near_target() {
        let target = Vec2::new(3.0, 4.0);
        let (mut pts, _, _) = synthetic(target, &l_path(25, 4.5, 3.5), -59.0, 2.0);
        // Deterministic ±1 dB alternating noise.
        for (i, p) in pts.iter_mut().enumerate() {
            p.rss += if i % 2 == 0 { 1.0 } else { -1.0 };
        }
        let fit = CircularFit::solve(&pts, 2.0).unwrap();
        assert!(
            fit.position.distance(target) < 1.0,
            "noisy fit {:?}",
            fit.position
        );
        assert!(fit.residual_db > 0.5 && fit.residual_db < 1.5);
    }
}
