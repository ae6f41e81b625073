//! Fingerprint/kernel backend: kernel-scored candidate-grid RSS fit.
//!
//! Kernel-method RSS fingerprinting (Ng et al. in the paper's related
//! work) localizes by scoring candidate positions against the observed
//! signal pattern instead of inverting the path-loss model in closed
//! form. [`FingerprintBackend`] is that family over the paper's inputs:
//! every candidate position on a grid around the walk gets its own
//! per-candidate `(Γ, n)` path-loss fit — a 2-unknown least squares
//! solved with `locble-ml`'s [`GramSolver`] on a
//! [`StandardScaler`](locble_ml::StandardScaler)-standardized log-distance feature — and
//! candidates are scored by a Gaussian kernel over their RSS
//! residuals. The grid winner is refined by two halving passes.
//!
//! The backend is a pure function of the accumulated series and the
//! motion track (no RNG), so replay is trivially bit-identical. It is a
//! comparison baseline for the backend shootout (`harness backends`);
//! the engine serves only the streaming estimator. Like the streaming
//! backend, it refits on every non-empty batch.

use crate::estimator::{FitMethod, LocationEstimate};
use crate::streaming::RssBatch;
use locble_geom::Vec2;
use locble_ml::GramSolver;
use locble_motion::MotionTrack;
use locble_rf::MIN_RANGE_M;

/// Fingerprint backend tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct FingerprintConfig {
    /// Coarse candidate-grid pitch, metres.
    pub grid_step_m: f64,
    /// How far past the walk's bounding box candidates extend, metres
    /// (BLE hearing range).
    pub margin_m: f64,
    /// Halving refinement passes around the coarse winner.
    pub refine_levels: usize,
    /// Gaussian kernel bandwidth over RSS residuals, dB.
    pub kernel_bw_db: f64,
    /// Ridge regularization of the per-candidate 2×2 fit.
    pub ridge: f64,
    /// Minimum accumulated samples before fitting.
    pub min_samples: usize,
}

impl Default for FingerprintConfig {
    fn default() -> FingerprintConfig {
        FingerprintConfig {
            grid_step_m: 1.0,
            margin_m: 10.0,
            refine_levels: 2,
            kernel_bw_db: 6.0,
            ridge: 1e-6,
            min_samples: 8,
        }
    }
}

/// The backend's evolving state: the accumulated series and the latest
/// estimate.
#[derive(Debug, Clone, PartialEq)]
struct FingerprintState {
    /// Accumulated sample times, seconds.
    series_t: Vec<f64>,
    /// RSSI values parallel to `series_t`.
    series_v: Vec<f64>,
    /// The latest estimate, if any.
    current: Option<LocationEstimate>,
}

/// Reusable per-refit buffers. Not part of [`FingerprintState`]: both
/// vectors are recomputed from scratch on every fit (observer positions
/// once per refit, the feature column once per candidate), so they
/// carry no information across calls — only capacity.
#[derive(Debug, Clone, Default)]
struct FingerprintScratch {
    /// Dead-reckoned observer position per accumulated sample.
    observers: Vec<Vec2>,
    /// Per-candidate log-distance feature column.
    feats: Vec<f64>,
}

/// The kernel/fingerprint backend. See the module docs.
#[derive(Debug, Clone)]
pub struct FingerprintBackend {
    config: FingerprintConfig,
    state: FingerprintState,
    scratch: FingerprintScratch,
}

/// One scored candidate: position, kernel score, fitted model.
struct Scored {
    pos: Vec2,
    score: f64,
    gamma_dbm: f64,
    exponent: f64,
    residual_db: f64,
}

impl FingerprintBackend {
    /// A fresh backend with no accumulated samples.
    pub fn new(config: FingerprintConfig) -> FingerprintBackend {
        let config = FingerprintConfig {
            grid_step_m: if config.grid_step_m > 0.0 {
                config.grid_step_m
            } else {
                1.0
            },
            margin_m: config.margin_m.max(1.0),
            min_samples: config.min_samples.max(4),
            ..config
        };
        FingerprintBackend {
            config,
            state: FingerprintState {
                series_t: Vec::new(),
                series_v: Vec::new(),
                current: None,
            },
            scratch: FingerprintScratch::default(),
        }
    }

    /// Pre-grows the series and the refit scratch for `additional` more
    /// samples, so ingest and refits within that headroom stay off the
    /// allocator.
    pub fn reserve(&mut self, additional: usize) {
        self.state.series_t.reserve(additional);
        self.state.series_v.reserve(additional);
        let total = self.state.series_t.len() + additional;
        self.scratch
            .observers
            .reserve(total.saturating_sub(self.scratch.observers.len()));
        self.scratch
            .feats
            .reserve(total.saturating_sub(self.scratch.feats.len()));
    }

    /// The configuration the backend runs with.
    pub fn config(&self) -> &FingerprintConfig {
        &self.config
    }

    /// Fits `(Γ, n)` at one candidate and scores it with the Gaussian
    /// residual kernel. `None` when the fit is singular or the
    /// exponent lands outside the physical band. `feats` is a reused
    /// scratch column — the hot path allocates nothing per candidate.
    fn score_candidate(
        &self,
        pos: Vec2,
        observers: &[Vec2],
        rss: &[f64],
        feats: &mut Vec<f64>,
    ) -> Option<Scored> {
        // Feature: log10 distance from the candidate to each observer
        // position, standardized so the 2×2 Gram system is
        // well-conditioned whatever the geometry's scale. The scaler
        // math is inlined (same accumulation order as
        // `StandardScaler::fit` on a 1-column feature matrix):
        // μ = Σf/n, σ = √(Σ(f−μ)²/n), with the z-score divisor clamped
        // to 1 for near-constant columns exactly as the scaler clamps.
        feats.clear();
        feats.extend(
            observers
                .iter()
                .map(|o| pos.distance(*o).max(MIN_RANGE_M).log10()),
        );
        let n = rss.len() as f64;
        let mu = feats.iter().sum::<f64>() / n;
        let var = feats.iter().map(|&x| (x - mu) * (x - mu)).sum::<f64>();
        // Unclamped moment: the (Γ, n) recovery below divides by it and
        // must refuse a degenerate column rather than fake σ = 1.
        let sigma = (var / n).sqrt();
        let sd = if sigma < 1e-12 { 1.0 } else { sigma };
        let mut solver: GramSolver<2> = GramSolver::new();
        let mut rhs = [0.0f64; 2];
        for (&f, &v) in feats.iter().zip(rss) {
            let z = (f - mu) / sd;
            let row = [1.0, z];
            solver.accumulate(&row);
            rhs[0] += v;
            rhs[1] += v * z;
        }
        if !solver.factorize(self.config.ridge) {
            return None;
        }
        let [a, b] = solver.solve(rhs)?;
        // rss = a + b·z with z = (log10 d − μ)/σ  ⇒  n = −b/(10σ),
        // Γ = a − bμ/σ.
        if sigma <= 0.0 {
            return None;
        }
        let exponent = -b / (10.0 * sigma);
        if !(0.3..=8.0).contains(&exponent) {
            return None;
        }
        let gamma_dbm = a - b * mu / sigma;
        let inv_two_bw_sq = 1.0 / (2.0 * self.config.kernel_bw_db * self.config.kernel_bw_db);
        // Hot loop: 4-lane unrolled kernel scoring. Lane sums combine in
        // a fixed order, so the score is deterministic; the reordered
        // summation is covered by the differential test below at 1e-12.
        let len = feats.len();
        let quads = len - len % 4;
        let mut kernel4 = [0.0f64; 4];
        let mut sq4 = [0.0f64; 4];
        for i in (0..quads).step_by(4) {
            for l in 0..4 {
                let predicted = gamma_dbm - 10.0 * exponent * feats[i + l];
                let r = rss[i + l] - predicted;
                kernel4[l] += (-r * r * inv_two_bw_sq).exp();
                sq4[l] += r * r;
            }
        }
        let mut kernel_sum = (kernel4[0] + kernel4[1]) + (kernel4[2] + kernel4[3]);
        let mut sq = (sq4[0] + sq4[1]) + (sq4[2] + sq4[3]);
        for i in quads..len {
            let predicted = gamma_dbm - 10.0 * exponent * feats[i];
            let r = rss[i] - predicted;
            kernel_sum += (-r * r * inv_two_bw_sq).exp();
            sq += r * r;
        }
        Some(Scored {
            pos,
            score: kernel_sum / n,
            gamma_dbm,
            exponent,
            residual_db: (sq / n).sqrt(),
        })
    }

    /// Scores a grid and returns the best candidate (deterministic
    /// tie-break: first strictly-better wins, scan order fixed).
    fn best_on_grid(
        &self,
        center: Vec2,
        half_extent: Vec2,
        step: f64,
        observers: &[Vec2],
        rss: &[f64],
        feats: &mut Vec<f64>,
    ) -> Option<Scored> {
        let nx = (half_extent.x / step).ceil() as i64;
        let ny = (half_extent.y / step).ceil() as i64;
        let mut best: Option<Scored> = None;
        for iy in -ny..=ny {
            for ix in -nx..=nx {
                let pos = Vec2::new(center.x + ix as f64 * step, center.y + iy as f64 * step);
                if let Some(s) = self.score_candidate(pos, observers, rss, feats) {
                    if best.as_ref().is_none_or(|b| s.score > b.score) {
                        best = Some(s);
                    }
                }
            }
        }
        best
    }

    /// Full fit over everything accumulated.
    fn refit(&mut self, observer: &MotionTrack) {
        if self.state.series_t.len() < self.config.min_samples {
            return;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.observers.clear();
        scratch.observers.extend(
            self.state
                .series_t
                .iter()
                .map(|&t| observer.displacement_at(t).unwrap_or(Vec2::ZERO)),
        );
        let FingerprintScratch { observers, feats } = &mut scratch;
        let observers: &[Vec2] = observers;
        let rss = &self.state.series_v;
        // Candidate region: walk bounding box + hearing margin.
        let (mut lo, mut hi) = (observers[0], observers[0]);
        for o in observers {
            lo.x = lo.x.min(o.x);
            lo.y = lo.y.min(o.y);
            hi.x = hi.x.max(o.x);
            hi.y = hi.y.max(o.y);
        }
        let center = Vec2::new((lo.x + hi.x) / 2.0, (lo.y + hi.y) / 2.0);
        let half_extent = Vec2::new(
            (hi.x - lo.x) / 2.0 + self.config.margin_m,
            (hi.y - lo.y) / 2.0 + self.config.margin_m,
        );
        let mut step = self.config.grid_step_m;
        if let Some(mut best) = self.best_on_grid(center, half_extent, step, observers, rss, feats)
        {
            for _ in 0..self.config.refine_levels {
                step /= 2.0;
                let local = Vec2::new(step * 1.5, step * 1.5);
                if let Some(refined) =
                    self.best_on_grid(best.pos, local, step, observers, rss, feats)
                {
                    if refined.score > best.score {
                        best = refined;
                    }
                }
            }
            self.state.current = Some(LocationEstimate {
                position: best.pos,
                mirror: None,
                // The mean kernel is already in (0, 1]: 1 at a perfect
                // pattern match, → 0 as residuals blow past the bandwidth.
                confidence: best.score.clamp(0.0, 1.0),
                exponent: best.exponent,
                gamma_dbm: best.gamma_dbm,
                env: None,
                points_used: rss.len(),
                method: FitMethod::Fingerprint,
                residual_db: best.residual_db,
            });
        }
        self.scratch = scratch;
    }

    /// Feeds one batch and refits.
    pub fn push_batch(
        &mut self,
        batch: &RssBatch,
        observer: &MotionTrack,
    ) -> Option<&LocationEstimate> {
        if batch.is_empty() {
            return self.state.current.as_ref();
        }
        self.state.series_t.extend_from_slice(&batch.t);
        self.state.series_v.extend_from_slice(&batch.v);
        self.refit(observer);
        self.state.current.as_ref()
    }

    /// The latest estimate.
    pub fn current(&self) -> Option<&LocationEstimate> {
        self.state.current.as_ref()
    }
}

impl crate::backend::Estimator for FingerprintBackend {
    fn push_batch(
        &mut self,
        batch: &RssBatch,
        observer: &MotionTrack,
    ) -> Option<&LocationEstimate> {
        FingerprintBackend::push_batch(self, batch, observer)
    }

    fn current(&self) -> Option<&LocationEstimate> {
        FingerprintBackend::current(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locble_ml::StandardScaler;

    fn l_walk(target: Vec2) -> (Vec<RssBatch>, MotionTrack) {
        crate::backend::tests::l_walk(target)
    }

    #[test]
    fn grid_fit_finds_the_beacon() {
        let target = Vec2::new(4.0, 3.5);
        let (batches, track) = l_walk(target);
        let mut backend = FingerprintBackend::new(FingerprintConfig::default());
        for b in &batches {
            backend.push_batch(b, &track);
        }
        let est = backend.current().expect("estimate");
        let err = est.position.distance(target);
        assert!(err < 2.5, "fingerprint error {err:.2} m");
        assert_eq!(est.method, FitMethod::Fingerprint);
        assert!(est.confidence > 0.0 && est.confidence <= 1.0);
        assert!((0.3..=8.0).contains(&est.exponent));
    }

    /// The original allocating scorer, kept as the differential and
    /// timing reference for [`FingerprintBackend::score_candidate`]:
    /// per-candidate `Vec<Vec<f64>>` feature matrix,
    /// `StandardScaler::fit`/`transform`, scalar kernel loop.
    fn reference_score(
        backend: &FingerprintBackend,
        pos: Vec2,
        observers: &[Vec2],
        rss: &[f64],
    ) -> Option<Scored> {
        let features: Vec<Vec<f64>> = observers
            .iter()
            .map(|o| vec![pos.distance(*o).max(MIN_RANGE_M).log10()])
            .collect();
        let scaler = StandardScaler::fit(&features);
        let mut solver: GramSolver<2> = GramSolver::new();
        let mut rhs = [0.0f64; 2];
        for (f, &v) in features.iter().zip(rss) {
            let z = scaler.transform(f)[0];
            solver.accumulate(&[1.0, z]);
            rhs[0] += v;
            rhs[1] += v * z;
        }
        if !solver.factorize(backend.config.ridge) {
            return None;
        }
        let [a, b] = solver.solve(rhs)?;
        let n = features.len() as f64;
        let mu = features.iter().map(|f| f[0]).sum::<f64>() / n;
        let var = features
            .iter()
            .map(|f| (f[0] - mu) * (f[0] - mu))
            .sum::<f64>()
            / n;
        let sigma = var.sqrt();
        if sigma <= 0.0 {
            return None;
        }
        let exponent = -b / (10.0 * sigma);
        if !(0.3..=8.0).contains(&exponent) {
            return None;
        }
        let gamma_dbm = a - b * mu / sigma;
        let inv_two_bw_sq = 1.0 / (2.0 * backend.config.kernel_bw_db * backend.config.kernel_bw_db);
        let mut kernel_sum = 0.0;
        let mut sq = 0.0;
        for (f, &v) in features.iter().zip(rss) {
            let r = v - (gamma_dbm - 10.0 * exponent * f[0]);
            kernel_sum += (-r * r * inv_two_bw_sq).exp();
            sq += r * r;
        }
        Some(Scored {
            pos,
            score: kernel_sum / n,
            gamma_dbm,
            exponent,
            residual_db: (sq / n).sqrt(),
        })
    }

    fn rel_close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
    }

    /// The L-walk fixture as one series: per-sample observer positions
    /// and RSS readings.
    fn walk_series() -> (Vec<Vec2>, Vec<f64>) {
        let (batches, track) = l_walk(Vec2::new(4.0, 3.5));
        let (mut t, mut v) = (Vec::new(), Vec::new());
        for b in &batches {
            t.extend_from_slice(&b.t);
            v.extend_from_slice(&b.v);
        }
        let observers = t
            .iter()
            .map(|&ti| track.displacement_at(ti).unwrap_or(Vec2::ZERO))
            .collect();
        (observers, v)
    }

    /// Differential suite for the scratch-based scorer: compares it with
    /// [`reference_score`] candidate by candidate. The fit recovery
    /// (Γ, n) follows the identical accumulation order and must match
    /// bitwise; the 4-lane kernel/residual sums are reordered and are
    /// held to 1e-12 relative.
    #[test]
    fn scratch_scoring_matches_the_allocating_reference() {
        let (observers, v) = walk_series();
        let backend = FingerprintBackend::new(FingerprintConfig::default());
        let mut feats = Vec::new();
        let mut scored = 0usize;
        // Candidates: a coarse grid around the walk, plus odd tail
        // lengths so the unroll's scalar remainder is exercised.
        for iy in -6..=6 {
            for ix in -6..=6 {
                let pos = Vec2::new(ix as f64 * 1.7, iy as f64 * 1.7);
                for cut in [observers.len(), observers.len() - 1, 9] {
                    let fast =
                        backend.score_candidate(pos, &observers[..cut], &v[..cut], &mut feats);
                    let slow = reference_score(&backend, pos, &observers[..cut], &v[..cut]);
                    match (fast, slow) {
                        (None, None) => {}
                        (Some(f), Some(s)) => {
                            scored += 1;
                            assert_eq!(f.gamma_dbm.to_bits(), s.gamma_dbm.to_bits());
                            assert_eq!(f.exponent.to_bits(), s.exponent.to_bits());
                            assert!(rel_close(f.score, s.score), "{} vs {}", f.score, s.score);
                            assert!(
                                rel_close(f.residual_db, s.residual_db),
                                "{} vs {}",
                                f.residual_db,
                                s.residual_db
                            );
                        }
                        (f, s) => panic!(
                            "scorer disagreement at {pos:?}: fast={:?} slow={:?}",
                            f.map(|x| x.score),
                            s.map(|x| x.score)
                        ),
                    }
                }
            }
        }
        assert!(scored > 50, "only {scored} candidates actually scored");
    }

    /// `score_candidate` must stay at least 1.5x faster than
    /// [`reference_score`] over a 13x13 candidate grid. The arms
    /// alternate and each keeps its fastest of 7 runs, so a preempted
    /// run on a loaded machine does not decide the ratio.
    #[test]
    fn scratch_scoring_is_at_least_1_5x_the_allocating_reference() {
        use std::hint::black_box;
        use std::time::Instant;
        let (observers, v) = walk_series();
        let backend = FingerprintBackend::new(FingerprintConfig::default());
        let grid: Vec<Vec2> = (-6..=6)
            .flat_map(|iy| (-6..=6).map(move |ix| Vec2::new(ix as f64 * 1.7, iy as f64 * 1.7)))
            .collect();
        let mut feats = Vec::new();
        let time = |score: &mut dyn FnMut(Vec2) -> Option<f64>| {
            let t0 = Instant::now();
            for &pos in &grid {
                black_box(score(black_box(pos)));
            }
            t0.elapsed().as_secs_f64()
        };
        let (mut reference, mut production) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..7 {
            reference = reference.min(time(&mut |pos| {
                reference_score(&backend, pos, &observers, &v).map(|s| s.score)
            }));
            production = production.min(time(&mut |pos| {
                backend
                    .score_candidate(pos, &observers, &v, &mut feats)
                    .map(|s| s.score)
            }));
        }
        let speedup = reference / production;
        println!("score_candidate speedup over reference_score: {speedup:.2}x");
        assert!(speedup >= 1.5, "score_candidate only {speedup:.2}x");
    }

    #[test]
    fn too_few_samples_yield_no_estimate() {
        let (batches, track) = l_walk(Vec2::new(4.0, 3.5));
        let mut backend = FingerprintBackend::new(FingerprintConfig {
            min_samples: 1000,
            ..FingerprintConfig::default()
        });
        for b in &batches {
            backend.push_batch(b, &track);
        }
        assert!(backend.current().is_none());
    }
}
