//! 3-D extension of the sensor-fusion regression (paper §9.3, future
//! work).
//!
//! "The current LocBLE is designed to show beacons' locations in a 2-D
//! space. … 3-D localization can be done by modifying our data fusion
//! and L-shaped movement. We leave the detailed design and evaluation of
//! this as our future work."
//!
//! The modification is exactly what the paper implies: with a relative
//! displacement `(p, q, r)` per sample (the extra axis coming from, e.g.,
//! raising the phone, stairs, or a known device height profile), the
//! Eq. 2 expansion gains one linear term:
//!
//! `A·(p² + q² + r²) + C·p + D·q + E·r + G = ρ`,
//! with `x = C/2A, h = D/2A, z = E/2A`.
//!
//! Identifiability needs genuinely 3-D movement: a planar walk leaves the
//! vertical coordinate with the familiar mirror ambiguity (now across the
//! walk's plane). [`Fit3d::solve`] rejects near-planar sample sets so the
//! caller falls back to the 2-D machinery.

use crate::exponent::{search_scored, ExponentSearch};
use locble_ml::GramSolver;
use locble_rf::MIN_RANGE_M;

/// A 3-D point/vector (kept local: the rest of the system is planar).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vec3 {
    /// x component, metres.
    pub x: f64,
    /// y component, metres.
    pub y: f64,
    /// z component, metres.
    pub z: f64,
}

impl Vec3 {
    /// Creates a vector.
    pub const fn new(x: f64, y: f64, z: f64) -> Vec3 {
        Vec3 { x, y, z }
    }

    /// Euclidean distance.
    pub fn distance(self, o: Vec3) -> f64 {
        ((self.x - o.x).powi(2) + (self.y - o.y).powi(2) + (self.z - o.z).powi(2)).sqrt()
    }

    /// `true` when all components are finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

/// One fused 3-D sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RssPoint3 {
    /// Relative displacement (target − observer), metres.
    pub disp: Vec3,
    /// Filtered RSS, dBm.
    pub rss: f64,
}

impl RssPoint3 {
    /// Builds a point from an observer displacement (stationary target).
    pub fn from_observer_displacement(disp: Vec3, rss: f64) -> RssPoint3 {
        RssPoint3 {
            disp: Vec3::new(-disp.x, -disp.y, -disp.z),
            rss,
        }
    }
}

/// Result of the 3-D fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fit3d {
    /// Estimated target position in the local frame.
    pub position: Vec3,
    /// Recovered `Γ`, dBm.
    pub gamma_dbm: f64,
    /// Exponent the fit used.
    pub exponent: f64,
    /// RMS residual in dB.
    pub residual_db: f64,
}

impl Fit3d {
    /// Minimum samples for the 5-parameter fit.
    pub const MIN_SAMPLES: usize = 8;

    /// Minimum spread (metres) required along the *least-varied* axis of
    /// the movement for the fit to be identifiable.
    pub const MIN_AXIS_SPREAD: f64 = 0.3;

    /// Solves the 3-D fit for a fixed exponent. Returns `None` for
    /// degenerate (near-planar) movement or non-physical solutions.
    ///
    /// One-shot convenience over the cached 3-D solver; callers
    /// evaluating many exponents over the same points should use
    /// [`Fit3d::search`], which builds the solver state once.
    pub fn solve(points: &[RssPoint3], exponent: f64) -> Option<Fit3d> {
        Solver3d::new(points).and_then(|solver| solver.solve(exponent))
    }

    /// Exponent search over the 3-D fit (coarse grid + golden-section),
    /// sharing [`crate::exponent::search_scored`] — the geometry/Gram
    /// state is built once and every candidate is a back-substitution.
    pub fn search(points: &[RssPoint3], min_n: f64, max_n: f64) -> Option<Fit3d> {
        let solver = Solver3d::new(points)?;
        let search = ExponentSearch {
            min: min_n,
            max: max_n,
            grid: 18,
            refine_iters: 16,
        };
        search_scored(&search, |n| solver.solve(n).map(|f| (f, f.residual_db)))
    }
}

/// Cached solver for [`Fit3d`]: the 5-column design `[p²+q²+r², p, q, r,
/// 1]` and its Gram matrix are exponent-independent, so one `Solver3d`
/// answers every candidate of [`Fit3d::search`] with a single `Xᵀρ` pass
/// plus back-substitution (same scheme as [`crate::FitSolver`]).
#[derive(Debug, Clone)]
struct Solver3d {
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    /// Cached squared norm per point.
    s: Vec<f64>,
    rss: Vec<f64>,
    gram: GramSolver<5>,
}

impl Solver3d {
    /// Builds the exponent-independent state. Returns `None` when the
    /// sample set is too small or the movement is near-planar (the
    /// identifiability guard of [`Fit3d::solve`]).
    fn new(points: &[RssPoint3]) -> Option<Solver3d> {
        if points.len() < Fit3d::MIN_SAMPLES {
            return None;
        }
        // Identifiability: every axis of the relative movement must vary.
        // (A full PCA is overkill for a guard; per-axis spread catches the
        // planar-walk case the paper's L-movement produces.)
        let spread = |f: fn(&Vec3) -> f64| {
            let lo = points
                .iter()
                .map(|p| f(&p.disp))
                .fold(f64::INFINITY, f64::min);
            let hi = points
                .iter()
                .map(|p| f(&p.disp))
                .fold(f64::NEG_INFINITY, f64::max);
            hi - lo
        };
        if spread(|v| v.x).min(spread(|v| v.y)).min(spread(|v| v.z)) < Fit3d::MIN_AXIS_SPREAD {
            return None;
        }
        let mut solver = Solver3d {
            x: Vec::with_capacity(points.len()),
            y: Vec::with_capacity(points.len()),
            z: Vec::with_capacity(points.len()),
            s: Vec::with_capacity(points.len()),
            rss: Vec::with_capacity(points.len()),
            gram: GramSolver::new(),
        };
        for pt in points {
            let d = pt.disp;
            let s = d.x * d.x + d.y * d.y + d.z * d.z;
            solver.x.push(d.x);
            solver.y.push(d.y);
            solver.z.push(d.z);
            solver.s.push(s);
            solver.rss.push(pt.rss);
            solver.gram.accumulate(&[s, d.x, d.y, d.z, 1.0]);
        }
        solver.gram.factorize(1e-9);
        Some(solver)
    }

    /// Solves for one candidate exponent using the cached factorization.
    fn solve(&self, exponent: f64) -> Option<Fit3d> {
        if exponent <= 0.0 {
            return None;
        }
        let n = self.s.len();
        let k = -std::f64::consts::LN_10 / (5.0 * exponent);
        // 4-lane unrolled ρ/RHS pass: the exp() calls and the five
        // multiply-add columns run on independent accumulator lanes,
        // combined in a fixed order (deterministic output).
        let quads = n - n % 4;
        let mut sum4 = [0.0f64; 4];
        let mut s4 = [0.0f64; 4];
        let mut x4 = [0.0f64; 4];
        let mut y4 = [0.0f64; 4];
        let mut z4 = [0.0f64; 4];
        for i in (0..quads).step_by(4) {
            for l in 0..4 {
                let rho = (k * self.rss[i + l]).exp();
                sum4[l] += rho;
                s4[l] += self.s[i + l] * rho;
                x4[l] += self.x[i + l] * rho;
                y4[l] += self.y[i + l] * rho;
                z4[l] += self.z[i + l] * rho;
            }
        }
        let mut sum = (sum4[0] + sum4[1]) + (sum4[2] + sum4[3]);
        let mut xty = [
            (s4[0] + s4[1]) + (s4[2] + s4[3]),
            (x4[0] + x4[1]) + (x4[2] + x4[3]),
            (y4[0] + y4[1]) + (y4[2] + y4[3]),
            (z4[0] + z4[1]) + (z4[2] + z4[3]),
            0.0,
        ];
        for i in quads..n {
            let rho = (k * self.rss[i]).exp();
            sum += rho;
            xty[0] += self.s[i] * rho;
            xty[1] += self.x[i] * rho;
            xty[2] += self.y[i] * rho;
            xty[3] += self.z[i] * rho;
        }
        // The constant column accumulates exactly the values `sum` does.
        xty[4] = sum;
        let scale = sum / n as f64;
        for v in &mut xty {
            *v /= scale;
        }
        let theta = self.gram.solve(xty)?;
        let (a, c, d, e) = (theta[0], theta[1], theta[2], theta[3]);
        if a <= 1e-12 || !a.is_finite() {
            return None;
        }
        let position = Vec3::new(c / (2.0 * a), d / (2.0 * a), e / (2.0 * a));
        if !position.is_finite() {
            return None;
        }
        let epsilon = 1.0 / (a * scale);
        let gamma = 5.0 * exponent * epsilon.log10();

        // Residual in squared distances: 10·n·log10(l) = 5·n·log10(l²).
        let min_sq = MIN_RANGE_M * MIN_RANGE_M;
        let mut acc = [0.0f64; 4];
        for i in (0..quads).step_by(4) {
            for (l, a) in acc.iter_mut().enumerate() {
                let dx = position.x + self.x[i + l];
                let dy = position.y + self.y[i + l];
                let dz = position.z + self.z[i + l];
                let d_sq = (dx * dx + dy * dy + dz * dz).max(min_sq);
                let pred = gamma - 5.0 * exponent * d_sq.log10();
                let r = self.rss[i + l] - pred;
                *a += r * r;
            }
        }
        let mut res_sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        for i in quads..n {
            let dx = position.x + self.x[i];
            let dy = position.y + self.y[i];
            let dz = position.z + self.z[i];
            let d_sq = (dx * dx + dy * dy + dz * dz).max(min_sq);
            let pred = gamma - 5.0 * exponent * d_sq.log10();
            let r = self.rss[i] - pred;
            res_sum += r * r;
        }
        let residual_db = (res_sum / n as f64).sqrt();
        Some(Fit3d {
            position,
            gamma_dbm: gamma,
            exponent,
            residual_db,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-D "L with a lift": walk +x, turn to +y, then raise the phone
    /// (the §9.3 movement modification).
    fn walk_3d() -> Vec<Vec3> {
        let mut path = Vec::new();
        for i in 0..8 {
            path.push(Vec3::new(i as f64 * 0.5, 0.0, 0.0));
        }
        for i in 1..8 {
            path.push(Vec3::new(3.5, i as f64 * 0.4, 0.0));
        }
        for i in 1..5 {
            path.push(Vec3::new(3.5, 2.8, i as f64 * 0.25));
        }
        path
    }

    fn synthetic(target: Vec3, gamma: f64, n: f64) -> Vec<RssPoint3> {
        walk_3d()
            .into_iter()
            .map(|pos| {
                let rss = gamma - 10.0 * n * target.distance(pos).max(MIN_RANGE_M).log10();
                RssPoint3::from_observer_displacement(pos, rss)
            })
            .collect()
    }

    #[test]
    fn recovers_3d_target_exactly() {
        let target = Vec3::new(2.0, 4.0, 1.5);
        let pts = synthetic(target, -59.0, 2.0);
        let fit = Fit3d::solve(&pts, 2.0).expect("fit");
        assert!(
            fit.position.distance(target) < 1e-6,
            "got {:?}",
            fit.position
        );
        assert!((fit.gamma_dbm + 59.0).abs() < 1e-6);
        assert!(fit.residual_db < 1e-6);
    }

    #[test]
    fn search_recovers_exponent_too() {
        let target = Vec3::new(-1.0, 3.0, 2.2);
        let pts = synthetic(target, -62.0, 2.8);
        let fit = Fit3d::search(&pts, 1.5, 4.5).expect("fit");
        assert!((fit.exponent - 2.8).abs() < 0.05, "n {}", fit.exponent);
        assert!(
            fit.position.distance(target) < 0.05,
            "got {:?}",
            fit.position
        );
    }

    #[test]
    fn planar_walk_is_rejected() {
        // A purely 2-D walk cannot determine z: the guard must refuse.
        let target = Vec3::new(2.0, 4.0, 1.5);
        let pts: Vec<RssPoint3> = walk_3d()
            .into_iter()
            .map(|mut pos| {
                pos.z = 0.0;
                let rss = -59.0 - 20.0 * target.distance(pos).max(MIN_RANGE_M).log10();
                RssPoint3::from_observer_displacement(pos, rss)
            })
            .collect();
        assert!(Fit3d::solve(&pts, 2.0).is_none());
    }

    #[test]
    fn negative_z_targets_work() {
        // A beacon below the walking plane (e.g. under a table).
        let target = Vec3::new(3.0, 2.0, -1.2);
        let pts = synthetic(target, -59.0, 2.0);
        let fit = Fit3d::solve(&pts, 2.0).expect("fit");
        assert!(
            fit.position.distance(target) < 1e-6,
            "got {:?}",
            fit.position
        );
    }

    #[test]
    fn noisy_3d_fit_stays_close() {
        let target = Vec3::new(2.0, 3.0, 1.0);
        let mut pts = synthetic(target, -59.0, 2.0);
        for (i, p) in pts.iter_mut().enumerate() {
            p.rss += if i % 2 == 0 { 1.0 } else { -1.0 };
        }
        let fit = Fit3d::solve(&pts, 2.0).expect("fit");
        assert!(
            fit.position.distance(target) < 1.2,
            "noisy 3-D fit {:?}",
            fit.position
        );
    }

    #[test]
    fn too_few_samples_rejected() {
        let target = Vec3::new(2.0, 3.0, 1.0);
        let pts: Vec<RssPoint3> = synthetic(target, -59.0, 2.0).into_iter().take(5).collect();
        assert!(Fit3d::solve(&pts, 2.0).is_none());
    }

    /// Regression: a walk that passes exactly through the beacon
    /// position generates a zero-range sample; the shared
    /// `MIN_RANGE_M` clamp must keep both the synthetic RSS and the
    /// residual finite instead of feeding `log10(0)` into the fit.
    #[test]
    fn walk_through_beacon_position_stays_finite() {
        let target = Vec3::new(3.5, 2.0, 0.0); // exactly on the walk's y-leg
        let pts = synthetic(target, -59.0, 2.0);
        assert!(pts.iter().all(|p| p.rss.is_finite()));
        if let Some(fit) = Fit3d::solve(&pts, 2.0) {
            assert!(fit.position.x.is_finite() && fit.residual_db.is_finite());
        }
    }
}
