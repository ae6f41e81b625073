//! Algorithm 1: relative location estimation.
//!
//! The paper's pipeline (§5.3): collect RSS in 2–3 s batches (~20 samples
//! each), match each sample to the observer's (and, for a moving target,
//! the target's) motion by timestamp, classify the environment with
//! EnvAware and filter the noise with ANF, then "continue the regression
//! by appending the data" while the environment is stable and "start a
//! new regression with the data" when it changes. The output is the
//! target position with its estimation probability.
//!
//! Geometry modes:
//!
//! * When the walked path genuinely turns (the L-shaped movement of
//!   §5.1), the joint circular fit has a unique solution and is used
//!   directly.
//! * When the path is (nearly) collinear, the mirror ambiguity of Fig. 7
//!   is irreducible from one leg: the estimator falls back to the
//!   per-leg fit, reports the chosen candidate, and exposes the mirror
//!   in [`LocationEstimate::mirror`].

use crate::anf::AdaptiveNoiseFilter;
use crate::confidence::estimation_confidence;
use crate::envaware::{EnvAware, EnvChangeDetector};
use crate::exponent::{search_circular, search_leg, sweep_anchored, ExponentSearch};
use crate::regression::{FitSolver, LegSolver, RhoTable, RssPoint};
use locble_dsp::TimeSeries;
use locble_geom::{EnvClass, Trajectory, Vec2};
use locble_motion::MotionTrack;
use locble_obs::Obs;
use locble_rf::MIN_RANGE_M;
use std::cell::RefCell;

/// Estimator configuration.
#[derive(Debug, Clone)]
pub struct EstimatorConfig {
    /// Exponent search settings.
    pub exponent_search: ExponentSearch,
    /// Apply the adaptive noise filter (ablated in Fig. 5).
    pub use_anf: bool,
    /// Apply EnvAware segmentation (ablated in Fig. 5). Ignored when the
    /// estimator has no trained EnvAware model.
    pub use_envaware: bool,
    /// Additionally remove the measured RSS level step at every confirmed
    /// environment boundary before regressing. Off by default: on the
    /// simulated channel the measured step contains genuine path-loss
    /// trend, and removing it costs more accuracy than the environment
    /// consistency buys (see EXPERIMENTS.md, fig5 notes). Kept as an
    /// ablation flag.
    pub env_step_compensation: bool,
    /// Consecutive windows required to confirm an environment change.
    pub env_confirm_windows: usize,
    /// Enable the degradation ladder (anchored fit → leg fit → gradient)
    /// behind the free joint fit. Disabling leaves the paper-pure free
    /// regression alone: estimates fail (`None`) whenever it is
    /// unidentifiable or implausible. For ablation.
    pub use_fallback_ladder: bool,
    /// Minimum fused points for any estimate.
    pub min_points: usize,
    /// Maximum perpendicular spread (metres) under which the walked path
    /// counts as collinear and the leg-fit fallback engages.
    pub collinear_threshold_m: f64,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            exponent_search: ExponentSearch::default(),
            use_anf: true,
            use_envaware: true,
            env_step_compensation: false,
            env_confirm_windows: 1,
            use_fallback_ladder: true,
            min_points: 8,
            collinear_threshold_m: 0.4,
        }
    }
}

/// Which regression rung produced an estimate (degradation ladder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitMethod {
    /// Free joint circular fit with the full (Γ, n) search.
    FreeJoint,
    /// Anchored fit (Γ pinned to the advertised calibration).
    Anchored,
    /// Per-leg fit (collinear walk; mirror ambiguity possible).
    Leg,
    /// Range-plus-gradient degradation.
    Gradient,
    /// Sequential Monte-Carlo posterior mean
    /// ([`crate::particle::ParticleBackend`]).
    Particle,
    /// Kernel-scored candidate-grid fit
    /// ([`crate::fingerprint::FingerprintBackend`]).
    Fingerprint,
}

impl FitMethod {
    /// Stable lower-case name (used in diagnostics events).
    pub fn name(self) -> &'static str {
        match self {
            FitMethod::FreeJoint => "free_joint",
            FitMethod::Anchored => "anchored",
            FitMethod::Leg => "leg",
            FitMethod::Gradient => "gradient",
            FitMethod::Particle => "particle",
            FitMethod::Fingerprint => "fingerprint",
        }
    }
}

/// One location estimate with its provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocationEstimate {
    /// Estimated target position in the observer's local frame (origin =
    /// walk start, +x = initial heading), metres.
    pub position: Vec2,
    /// The unresolved mirror candidate, present only when the walked
    /// path was collinear (no second leg to disambiguate, §5.1).
    pub mirror: Option<Vec2>,
    /// Estimation confidence in `[0, 1]` (paper §5).
    pub confidence: f64,
    /// Fitted path-loss exponent `n(e)`.
    pub exponent: f64,
    /// Fitted reference power `Γ`, dBm.
    pub gamma_dbm: f64,
    /// Environment regime the estimate was computed in (when EnvAware
    /// ran).
    pub env: Option<EnvClass>,
    /// Number of fused samples in the final regression.
    pub points_used: usize,
    /// Which regression rung produced this estimate.
    pub method: FitMethod,
    /// RMS residual of the final fit against the fused samples, dB.
    pub residual_db: f64,
}

impl LocationEstimate {
    /// Straight-line distance of the estimate from the observer's start.
    pub fn range(&self) -> f64 {
        self.position.norm()
    }
}

/// Reusable per-session buffers for the estimate hot path.
///
/// Owned by the session's [`FitSolver`] — the one per-session object the
/// streaming layer already threads through every refit — so a warm refit
/// runs the whole filter → compensate → fuse pipeline without heap
/// allocation. Every buffer is cleared (capacity kept) on use; the arena
/// survives [`FitSolver::clear`] so restarts keep their capacity too.
#[derive(Debug, Clone, Default)]
pub(crate) struct EstimatorScratch {
    /// ANF output, then the compensated RSS fed to the regression.
    pub(crate) filtered: Vec<f64>,
    /// Zero-phase Butterworth forward pass (intermediate).
    pub(crate) forward: Vec<f64>,
    /// Per-sample EnvAware step compensation.
    pub(crate) compensation: Vec<f64>,
    /// Fused RSS/geometry points.
    pub(crate) points: Vec<RssPoint>,
    /// Observer-relative walk positions, parallel to `points`.
    pub(crate) rel_positions: Vec<Vec2>,
    /// The session's noise filter, redesigned in place when the sample
    /// rate moves instead of being rebuilt per estimate.
    pub(crate) anf: Option<AdaptiveNoiseFilter>,
}

impl EstimatorScratch {
    /// Pre-sizes every buffer to hold `capacity` samples.
    pub(crate) fn reserve(&mut self, capacity: usize) {
        self.filtered
            .reserve(capacity.saturating_sub(self.filtered.len()));
        self.forward
            .reserve(capacity.saturating_sub(self.forward.len()));
        self.compensation
            .reserve(capacity.saturating_sub(self.compensation.len()));
        self.points
            .reserve(capacity.saturating_sub(self.points.len()));
        self.rel_positions
            .reserve(capacity.saturating_sub(self.rel_positions.len()));
    }
}

/// Per-worker-thread refit buffers: the ρ table every rung of the
/// fallback ladder reads its grid rows from, and the leg rung's solver.
/// Both are rebuilt by every refit, so one set per thread serves any
/// number of sessions; keeping them per session instead would multiply
/// resident memory by the session count.
#[derive(Debug, Default)]
struct RefitScratch {
    rho: RhoTable,
    leg: LegSolver,
}

thread_local! {
    /// This thread's [`RefitScratch`], borrowed by one refit at a time.
    static REFIT_SCRATCH: RefCell<RefitScratch> = RefCell::default();
}

/// One rung's answer: (position, mirror, exponent n, Γ, rung).
type RungFit = (Vec2, Option<Vec2>, f64, f64, FitMethod);

/// The Algorithm-1 estimator.
#[derive(Debug, Clone)]
pub struct Estimator {
    config: EstimatorConfig,
    envaware: Option<EnvAware>,
    obs: Obs,
}

impl Estimator {
    /// Creates an estimator without environment recognition (EnvAware
    /// off — the Fig. 5 "w/o EnvAware" arm).
    pub fn new(config: EstimatorConfig) -> Estimator {
        Estimator {
            config,
            envaware: None,
            obs: Obs::noop(),
        }
    }

    /// Creates an estimator with a trained EnvAware model.
    pub fn with_envaware(config: EstimatorConfig, envaware: EnvAware) -> Estimator {
        Estimator {
            config,
            envaware: Some(envaware),
            obs: Obs::noop(),
        }
    }

    /// Attaches an observability handle; every estimate then emits spans,
    /// events, and metrics through it. The default handle is the no-op.
    pub fn with_obs(mut self, obs: Obs) -> Estimator {
        self.obs = obs;
        self
    }

    /// The attached observability handle (no-op unless set).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The configuration in use.
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// The attached EnvAware model, when one was provided.
    pub fn envaware_model(&self) -> Option<&EnvAware> {
        self.envaware.as_ref()
    }

    /// Pre-grows the calling thread's refit buffers (ρ table and leg
    /// solver) for refits of up to `len` fused samples, so a warm session
    /// refitting on this thread within that size never allocates.
    pub(crate) fn reserve_refit_scratch(&self, len: usize) {
        REFIT_SCRATCH.with(|refit| {
            let mut refit = refit.borrow_mut();
            refit.rho.reserve(self.config.exponent_search.grid, len);
            refit.leg.reserve(len);
        });
    }

    /// Estimates a stationary target from the observer's RSS trace and
    /// reconstructed motion. Returns `None` when there is not enough
    /// usable data.
    pub fn estimate_stationary(
        &self,
        rss: &TimeSeries,
        observer: &MotionTrack,
    ) -> Option<LocationEstimate> {
        self.estimate_with_target(rss, observer, None, &mut FitSolver::new())
    }

    /// Like [`estimate_stationary`](Self::estimate_stationary), but reuses
    /// a caller-held [`FitSolver`]: across successive refits of a growing
    /// session the exponent-independent geometry/Gram state is extended in
    /// O(new samples) instead of being rebuilt, with results bit-identical
    /// to the uncached path. [`crate::StreamingEstimator`] holds one
    /// solver per session.
    pub fn estimate_stationary_cached(
        &self,
        rss: &TimeSeries,
        observer: &MotionTrack,
        solver: &mut FitSolver,
    ) -> Option<LocationEstimate> {
        self.estimate_with_target(rss, observer, None, solver)
    }

    /// Estimates a *moving* target. `target_disp` is the target's
    /// displacement trajectory expressed in the observer's local frame
    /// (the devices share an absolute heading reference through their
    /// magnetometers; the paper's moving-target mode transfers the
    /// target's motion trace to the observer after measurement).
    pub fn estimate_moving(
        &self,
        rss: &TimeSeries,
        observer: &MotionTrack,
        target_disp: &Trajectory,
    ) -> Option<LocationEstimate> {
        self.estimate_with_target(rss, observer, Some(target_disp), &mut FitSolver::new())
    }

    fn estimate_with_target(
        &self,
        rss: &TimeSeries,
        observer: &MotionTrack,
        target_disp: Option<&Trajectory>,
        solver: &mut FitSolver,
    ) -> Option<LocationEstimate> {
        // Detach the scratch arena from the solver so the filter/fusion
        // buffers and the solver's Gram state can be borrowed
        // independently below; the thread's refit buffers are borrowed
        // for the length of this one refit.
        let mut scratch = std::mem::take(&mut solver.scratch);
        let out = REFIT_SCRATCH.with(|refit| {
            let refit = &mut refit.borrow_mut();
            self.estimate_with_scratch(rss, observer, target_disp, solver, &mut scratch, refit)
        });
        solver.scratch = scratch;
        out
    }

    fn estimate_with_scratch(
        &self,
        rss: &TimeSeries,
        observer: &MotionTrack,
        target_disp: Option<&Trajectory>,
        solver: &mut FitSolver,
        scratch: &mut EstimatorScratch,
        refit: &mut RefitScratch,
    ) -> Option<LocationEstimate> {
        let mut span = self.obs.span("core.estimator", "estimate");
        span.field("samples", rss.len());
        if rss.len() < self.config.min_points {
            span.field("outcome", "too_few_samples");
            return None;
        }

        // ANF (§4.2), zero-phase batch variant so smoothing does not
        // shift readings relative to the motion timestamps. The session's
        // filter instance and output buffers are reused across refits;
        // the filter is redesigned in place only when the estimated
        // sample rate moves.
        if self.config.use_anf {
            let anf = match &mut scratch.anf {
                Some(anf) => {
                    anf.redesign_for_series(rss);
                    anf
                }
                None => scratch.anf.insert(AdaptiveNoiseFilter::for_series(rss)),
            };
            anf.filter_zero_phase_traced_into(
                &rss.v,
                &self.obs,
                &mut scratch.forward,
                &mut scratch.filtered,
            );
        } else {
            scratch.filtered.clear();
            scratch.filtered.extend_from_slice(&rss.v);
        }

        // EnvAware (§4.1): when the propagation environment changes
        // mid-measurement, one (Γ, n) no longer describes the whole
        // trace — the paper restarts the regression. Discarding the
        // pre-change data, however, also throws away the L's geometry,
        // so this implementation uses the recognition the other way
        // around: at every *confirmed* environment boundary the actual
        // RSS level step is measured from short windows on both sides
        // and removed, restoring one consistent model over the whole
        // walk. A falsely detected boundary measures a ≈0 step and is
        // harmless; a passer-by's dip appears as two boundaries and is
        // cancelled. The reported regime is the one covering the most
        // samples; the anchored-fit Γ refers to the *first* regime.
        scratch.compensation.clear();
        scratch.compensation.resize(rss.len(), 0.0);
        let mut env = None;
        let mut compensated = false;
        if self.config.use_envaware {
            if let Some(envaware) = &self.envaware {
                let mut detector = EnvChangeDetector::new(self.config.env_confirm_windows);
                // Regime timeline: (start_time, regime). Allocated only
                // when an EnvAware model is attached — the classify pass
                // below already allocates per window, so this branch is
                // outside the zero-alloc steady-state contract.
                let mut timeline: Vec<(f64, EnvClass)> = Vec::new();
                for (t, class) in envaware.classify_series(rss) {
                    if let Some(new_regime) = detector.push(class) {
                        timeline.push((t - envaware.window_s() / 2.0, new_regime));
                    }
                }
                if let Some(&(_, first)) = timeline.first() {
                    // Majority regime for reporting.
                    let regime_at = |t: f64| -> EnvClass {
                        timeline
                            .iter()
                            .rev()
                            .find(|(start, _)| *start <= t)
                            .map(|(_, r)| *r)
                            .unwrap_or(first)
                    };
                    let mut counts = [0usize; 3];
                    for &t in rss.t.iter() {
                        counts[regime_at(t).label()] += 1;
                    }
                    env = counts
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, &c)| c)
                        .map(|(l, _)| l)
                        .and_then(EnvClass::from_label);

                    // Optional step removal at each boundary (skipping
                    // the initial regime's start): shift everything after
                    // a boundary by the measured level discontinuity,
                    // cumulatively.
                    let side_w = envaware.window_s() * 0.75;
                    let mut cumulative = 0.0;
                    let boundaries: &[(f64, EnvClass)] = if self.config.env_step_compensation {
                        &timeline[1..]
                    } else {
                        &[]
                    };
                    for &(tb, _) in boundaries {
                        let filtered = &scratch.filtered;
                        let side = |lo: f64, hi: f64| -> Vec<f64> {
                            rss.t
                                .iter()
                                .zip(filtered)
                                .filter(|(&t, _)| t >= lo && t < hi)
                                .map(|(_, &v)| v)
                                .collect()
                        };
                        let pre = side(tb - side_w, tb);
                        let post = side(tb, tb + side_w);
                        if pre.len() < 3 || post.len() < 3 {
                            continue;
                        }
                        let step = pre.iter().sum::<f64>() / pre.len() as f64 + cumulative
                            - (post.iter().sum::<f64>() / post.len() as f64 + cumulative);
                        cumulative += step;
                        compensated = true;
                        for (i, &t) in rss.t.iter().enumerate() {
                            if t >= tb {
                                scratch.compensation[i] = cumulative;
                            }
                        }
                    }
                }
                if self.obs.enabled() {
                    self.obs.event(
                        "core.estimator",
                        "env_timeline",
                        &[
                            ("regimes", timeline.len().into()),
                            (
                                "majority_env",
                                env.map_or_else(|| "none".to_string(), |e| format!("{e:?}"))
                                    .into(),
                            ),
                            ("step_compensated", compensated.into()),
                        ],
                    );
                }
            }
        }
        // Apply the boundary compensation in place (adding the zero
        // compensation of the common uncompensated case is bit-exact).
        for (v, c) in scratch.filtered.iter_mut().zip(&scratch.compensation) {
            *v += *c;
        }

        // Fuse RSS with motion by timestamp (Algorithm 1 line 8), into
        // the session's reusable point buffers.
        scratch.points.clear();
        scratch.rel_positions.clear();
        for (&t, &v) in rss.t.iter().zip(&scratch.filtered) {
            let Some(obs) = observer.displacement_at(t) else {
                continue;
            };
            let tgt = match target_disp {
                Some(traj) => match traj.displacement_at(t) {
                    Some(d) => d,
                    None => continue,
                },
                None => Vec2::ZERO,
            };
            scratch
                .points
                .push(RssPoint::from_displacements(tgt, obs, v));
            scratch.rel_positions.push(obs - tgt); // relative observer motion
        }
        if scratch.points.len() < self.config.min_points {
            span.field("outcome", "too_few_fused_points");
            return None;
        }
        let (points, rel_positions): (&[RssPoint], &[Vec2]) =
            (&scratch.points, &scratch.rel_positions);

        // Synchronize the shared-factorization solver with the fused
        // points (incremental when this is a streaming refit of a grown
        // session), then reborrow immutably: every rung of the ladder
        // below answers its exponent candidates from the same cached
        // Gram factorizations, and its grid candidates from the same ρ
        // rows, each computed at most once per refit.
        solver.ensure(points);
        let solver = &*solver;
        let search = &self.config.exponent_search;
        refit.rho.reset(points.iter().map(|pt| pt.rss), search.grid);

        // Geometry: joint fit for 2-D paths, leg fit for collinear ones.
        let collinear = perpendicular_spread(rel_positions) < self.config.collinear_threshold_m;
        let fit = if collinear {
            None
        } else {
            search_circular(solver, &mut refit.rho, search)
        };

        let plausible = |pos: Vec2, g: f64| pos.norm() <= 15.0 && (-85.0..=-40.0).contains(&g);

        // Degradation ladder: free joint fit → anchored fit (Γ pinned to
        // the beacon's advertised calibration) → per-leg fit → pure
        // range-plus-gradient. The free fit's (Γ, n) residual valley is
        // flat under heavy noise and can run off to absurd solutions
        // (non-positive quadratic term, ranges past BLE's ~15 m limit,
        // Γ outside any commodity band), so each rung is validated before
        // being accepted.
        // On a collinear walk the mirror ambiguity is real and must be
        // reported, so the leg fit takes priority there; the anchored fit
        // (which would silently collapse the ambiguity through its ridge)
        // only serves 2-D walks whose free fit failed.
        let mut rung = |method: FitMethod| -> Option<RungFit> {
            let (position, mirror, exponent, gamma) = match method {
                FitMethod::Anchored => self
                    .anchored_fallback(solver, &mut refit.rho, env, compensated)
                    .filter(|f| plausible(f.position, f.gamma_dbm))
                    .map(|f| (f.position, None, f.exponent, f.gamma_dbm))?,
                FitMethod::Leg => self
                    .leg_fallback(rel_positions, refit)
                    .filter(|leg| plausible(leg.0, leg.3))?,
                FitMethod::Gradient => {
                    self.gradient_fallback(rel_positions, points, env, compensated)?
                }
                _ => return None,
            };
            Some((position, mirror, exponent, gamma, method))
        };
        let ladder = if collinear {
            [FitMethod::Leg, FitMethod::Anchored, FitMethod::Gradient]
        } else {
            [FitMethod::Anchored, FitMethod::Leg, FitMethod::Gradient]
        };
        let (mut position, mut mirror, mut exponent, mut gamma, mut method) = match &fit {
            Some(f) if plausible(f.position, f.gamma_dbm) => (
                f.position,
                None,
                f.exponent,
                f.gamma_dbm,
                FitMethod::FreeJoint,
            ),
            // Ablation mode: the paper-pure free regression stands alone.
            _ if !self.config.use_fallback_ladder => {
                span.field("outcome", "free_fit_rejected");
                return None;
            }
            _ => match ladder.into_iter().find_map(&mut rung) {
                Some(result) => result,
                None => {
                    span.field("outcome", "ladder_exhausted");
                    return None;
                }
            },
        };

        if !plausible(position, gamma) {
            if let Some((p, m, n, g, meth)) = rung(FitMethod::Gradient) {
                position = p;
                mirror = m;
                exponent = n;
                gamma = g;
                method = meth;
            }
        }

        let confidence = estimation_confidence(points, position, gamma, exponent);
        let residual_db = rms_residual_db(points, position, gamma, exponent);
        span.field("outcome", "ok");
        span.field("method", method.name());
        span.field("points", points.len());
        span.field("collinear", collinear);
        span.field("confidence", confidence);
        span.field("residual_db", residual_db);
        span.field("rho_rows", refit.rho.fills());
        self.obs
            .histogram_observe("estimator.residual_db", residual_db);
        Some(LocationEstimate {
            position,
            mirror,
            confidence,
            exponent,
            gamma_dbm: gamma,
            env,
            points_used: points.len(),
            method,
            residual_db,
        })
    }

    /// Per-leg fit with the shared exponent search (used when the joint
    /// system is collinear/degenerate). Returns (position, mirror, n, Γ).
    fn leg_fallback(
        &self,
        rel_positions: &[Vec2],
        refit: &mut RefitScratch,
    ) -> Option<(Vec2, Option<Vec2>, f64, f64)> {
        // Every collinear refit starts on this rung, so it rebuilds the
        // thread's leg solver in place (the leg frame and Gram matrix are
        // exponent-independent) and scores the grid from the refit's
        // shared ρ rows: a warm straight walk refits off the heap.
        let RefitScratch { rho, leg } = refit;
        if !leg.rebuild(rel_positions, rho.rss()) {
            return None;
        }
        let fit = search_leg(leg, rho, &self.config.exponent_search)?;
        // The observer walked leg-local: both candidates are equally
        // plausible. Report the left-hand one (positive side of the walk
        // direction) and expose the mirror. Positions are relative to the
        // first sample, which is the local origin.
        Some((
            fit.candidates[0],
            Some(fit.candidates[1]),
            fit.exponent,
            fit.gamma_dbm,
        ))
    }
}

impl Estimator {
    /// Anchored-fit degradation: sweep `(Γ_anchor, n)` over the commodity
    /// calibration constant adjusted for each environment class's typical
    /// blockage, and the exponent grid; keep the lowest-residual anchored
    /// solution. See [`CircularFit::solve_anchored`].
    fn anchored_fallback(
        &self,
        solver: &FitSolver,
        rho: &mut RhoTable,
        env: Option<EnvClass>,
        compensated: bool,
    ) -> Option<crate::regression::CircularFit> {
        let search = &self.config.exponent_search;
        // With EnvAware's verdict, anchor to that class; otherwise sweep
        // all three and let the residual decide. When the estimator has
        // already compensated per-regime blockage out of the RSS, the
        // anchor is the clear-path calibration constant. Stack-allocated:
        // under persistent noise the free fit stays rejected and this
        // rung becomes the steady-state refit path, which must stay off
        // the heap.
        let mut gamma_buf = [0.0f64; EnvClass::ALL.len()];
        let gammas: &[f64] = if compensated {
            gamma_buf[0] = -59.0;
            &gamma_buf[..1]
        } else {
            match env {
                Some(class) => {
                    gamma_buf[0] = -59.0 - class.typical_blockage_db();
                    &gamma_buf[..1]
                }
                None => {
                    for (g, c) in gamma_buf.iter_mut().zip(EnvClass::ALL.iter()) {
                        *g = -59.0 - c.typical_blockage_db();
                    }
                    &gamma_buf[..]
                }
            }
        };
        sweep_anchored(solver, rho, search, gammas)
    }

    /// Range-plus-gradient degradation: when no regression is physically
    /// valid, estimate the range by inverting the log-distance model with
    /// environment-typical parameters (what a ranging app does) and take
    /// the bearing from the spatial RSS gradient (RSS grows toward the
    /// target). Confidence comes out low by construction, so clustering
    /// calibration down-weights these estimates.
    fn gradient_fallback(
        &self,
        rel_positions: &[Vec2],
        points: &[RssPoint],
        env: Option<EnvClass>,
        compensated: bool,
    ) -> Option<(Vec2, Option<Vec2>, f64, f64)> {
        if points.len() < self.config.min_points {
            return None;
        }
        let class = env.unwrap_or(EnvClass::PartialLos);
        let exponent = class.typical_path_loss_exponent();
        // The iBeacon calibration constant, minus the typical penetration
        // loss of the recognized environment (a ranging model that
        // ignores blockage wildly overestimates NLOS distances) — unless
        // the blockage was already compensated out of the samples.
        let gamma = if compensated {
            -59.0
        } else {
            -59.0 - class.typical_blockage_db()
        };
        let n = points.len() as f64;
        let mean_rss = points.iter().map(|p| p.rss).sum::<f64>() / n;
        // BLE is inaudible beyond ~15 m (paper §2.2): cap the range.
        let range = 10f64.powf((gamma - mean_rss) / (10.0 * exponent)).min(15.0);

        // RSS-weighted centroid offset: the direction in which RSS grows.
        let centroid = rel_positions.iter().fold(Vec2::ZERO, |a, &p| a + p) / n;
        let grad = points
            .iter()
            .zip(rel_positions)
            .fold(Vec2::ZERO, |acc, (pt, &pos)| {
                acc + (pos - centroid) * (pt.rss - mean_rss)
            });
        let dir = grad.normalized().unwrap_or(Vec2::UNIT_X);
        // Anchor the range at the walk centroid; convert back to the
        // local-frame target estimate (position = target − first sample's
        // relative origin, and rel_positions are observer-relative).
        let position = centroid + dir * range;
        Some((position, None, exponent, gamma))
    }
}

/// RMS of the per-sample residuals `δRS_i = RS_i − R̂S_i` of a fitted
/// `(position, Γ, n)` model (same model geometry as
/// [`estimation_confidence`]); the estimator reports it as the goodness
/// of fit behind each estimate.
fn rms_residual_db(points: &[RssPoint], position: Vec2, gamma_dbm: f64, exponent: f64) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let sum: f64 = points
        .iter()
        .map(|pt| {
            let l = Vec2::new(position.x + pt.p, position.y + pt.q)
                .norm()
                .max(MIN_RANGE_M);
            let r = pt.rss - (gamma_dbm - 10.0 * exponent * l.log10());
            r * r
        })
        .sum();
    (sum / points.len() as f64).sqrt()
}

/// Maximum perpendicular deviation of points from the line through the
/// first and last point — the collinearity measure for the walked path.
fn perpendicular_spread(positions: &[Vec2]) -> f64 {
    if positions.len() < 3 {
        return 0.0;
    }
    let a = positions[0];
    let b = positions[positions.len() - 1];
    let Some(u) = (b - a).normalized() else {
        return 0.0;
    };
    positions
        .iter()
        .map(|&p| (p - a).cross(u).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use locble_rf::LogDistanceModel;

    /// An L-shaped observer track plus a synthetic RSS trace.
    fn l_track(
        target: Vec2,
        gamma: f64,
        n: f64,
        noise: impl Fn(usize) -> f64,
    ) -> (TimeSeries, MotionTrack) {
        let model = LogDistanceModel::new(gamma, n);
        let mut traj = Trajectory::new();
        let mut t = Vec::new();
        let mut v = Vec::new();
        let mut clock: f64 = 0.0;
        let speed = 1.0;
        let dt = 0.11; // ~9 Hz
                       // Leg 1: 4.5 m along +x; leg 2: 3.5 m along +y.
        let mut pos = Vec2::ZERO;
        let push = |clock: f64,
                    pos: Vec2,
                    t: &mut Vec<f64>,
                    v: &mut Vec<f64>,
                    traj: &mut Trajectory,
                    i: usize| {
            traj.push(clock, pos);
            t.push(clock);
            v.push(model.rss_at(target.distance(pos)) + noise(i));
        };
        let mut i = 0;
        while pos.x < 4.5 {
            push(clock, pos, &mut t, &mut v, &mut traj, i);
            pos.x += speed * dt;
            clock += dt;
            i += 1;
        }
        while pos.y < 3.5 {
            push(clock, pos, &mut t, &mut v, &mut traj, i);
            pos.y += speed * dt;
            clock += dt;
            i += 1;
        }
        let track = MotionTrack {
            trajectory: traj,
            steps: locble_motion::StepResult {
                step_times: vec![],
                frequency_hz: 1.8,
                step_length_m: 0.75,
                distance_m: 8.0,
            },
            turns: vec![],
        };
        (TimeSeries::new(t, v), track)
    }

    #[test]
    fn noiseless_l_walk_recovers_target_exactly() {
        let target = Vec2::new(3.0, 5.0);
        let (rss, track) = l_track(target, -59.0, 2.3, |_| 0.0);
        // ANF off: the exactness claim is about the geometry pipeline;
        // the filter trades a small clean-signal bias for noise
        // robustness (see anf_beats_no_anf_under_noise).
        let cfg = EstimatorConfig {
            use_anf: false,
            ..Default::default()
        };
        let est = Estimator::new(cfg)
            .estimate_stationary(&rss, &track)
            .unwrap();
        assert!(
            est.position.distance(target) < 0.05,
            "estimate {:?}",
            est.position
        );
        assert!(est.mirror.is_none());
        assert!((est.exponent - 2.3).abs() < 0.05, "n {}", est.exponent);
        assert!(est.confidence > 0.95, "confidence {}", est.confidence);
    }

    #[test]
    fn noisy_l_walk_stays_in_paper_error_band() {
        let target = Vec2::new(4.0, 4.0);
        // ±1.5 dB alternating noise — roughly post-ANF residual level.
        let (rss, track) = l_track(target, -59.0, 2.0, |i| if i % 2 == 0 { 1.5 } else { -1.5 });
        let cfg = EstimatorConfig {
            use_anf: false,
            ..Default::default()
        };
        let est = Estimator::new(cfg)
            .estimate_stationary(&rss, &track)
            .unwrap();
        assert!(
            est.position.distance(target) < 1.8,
            "estimate {:?} vs target {target:?}",
            est.position
        );
    }

    #[test]
    fn straight_walk_reports_mirror_ambiguity() {
        let target = Vec2::new(3.0, 4.0);
        let model = LogDistanceModel::new(-59.0, 2.0);
        let mut traj = Trajectory::new();
        let mut t = Vec::new();
        let mut v = Vec::new();
        for i in 0..40 {
            let clock = i as f64 * 0.11;
            let pos = Vec2::new(clock, 0.0);
            traj.push(clock, pos);
            t.push(clock);
            v.push(model.rss_at(target.distance(pos)));
        }
        let track = MotionTrack {
            trajectory: traj,
            steps: locble_motion::StepResult {
                step_times: vec![],
                frequency_hz: 1.8,
                step_length_m: 0.75,
                distance_m: 4.4,
            },
            turns: vec![],
        };
        let cfg = EstimatorConfig {
            use_anf: false,
            ..Default::default()
        };
        let est = Estimator::new(cfg)
            .estimate_stationary(&TimeSeries::new(t, v), &track)
            .unwrap();
        let mirror = est.mirror.expect("collinear walk must be ambiguous");
        // The candidate pair must be {target, its mirror across y=0}.
        let truth_mirror = Vec2::new(3.0, -4.0);
        let ok = (est.position.distance(target) < 0.2 && mirror.distance(truth_mirror) < 0.2)
            || (est.position.distance(truth_mirror) < 0.2 && mirror.distance(target) < 0.2);
        assert!(ok, "got {:?} / {:?}", est.position, mirror);
    }

    #[test]
    fn moving_target_is_recovered_in_relative_frame() {
        // Target starts at (5, 2) and walks +y at 0.4 m/s while the
        // observer walks the L. Estimate should match the target's
        // *initial* position (the paper measures error at the initial
        // location, §7.2).
        let start = Vec2::new(5.0, 2.0);
        let model = LogDistanceModel::new(-59.0, 2.0);
        let mut obs_traj = Trajectory::new();
        let mut tgt_traj = Trajectory::new();
        let mut t = Vec::new();
        let mut v = Vec::new();
        let dt = 0.11;
        let mut clock: f64 = 0.0;
        let mut obs = Vec2::ZERO;
        for i in 0..70 {
            let tgt = start + Vec2::new(0.0, 0.4 * clock);
            obs_traj.push(clock, obs);
            tgt_traj.push(clock, tgt - start); // displacement trajectory
            t.push(clock);
            v.push(model.rss_at(tgt.distance(obs)));
            if i < 40 {
                obs.x += dt;
            } else {
                obs.y += dt;
            }
            clock += dt;
        }
        let track = MotionTrack {
            trajectory: obs_traj,
            steps: locble_motion::StepResult {
                step_times: vec![],
                frequency_hz: 1.8,
                step_length_m: 0.75,
                distance_m: 7.7,
            },
            turns: vec![],
        };
        let cfg = EstimatorConfig {
            use_anf: false,
            ..Default::default()
        };
        let est = Estimator::new(cfg)
            .estimate_moving(&TimeSeries::new(t, v), &track, &tgt_traj)
            .unwrap();
        assert!(
            est.position.distance(start) < 0.3,
            "estimate {:?} vs start {start:?}",
            est.position
        );
    }

    #[test]
    fn too_few_samples_returns_none() {
        let target = Vec2::new(3.0, 4.0);
        let (rss, track) = l_track(target, -59.0, 2.0, |_| 0.0);
        let short = TimeSeries::new(rss.t[..5].to_vec(), rss.v[..5].to_vec());
        assert!(Estimator::new(EstimatorConfig::default())
            .estimate_stationary(&short, &track)
            .is_none());
    }

    #[test]
    fn perpendicular_spread_measures_geometry() {
        let line: Vec<Vec2> = (0..10).map(|i| Vec2::new(i as f64, 0.0)).collect();
        assert!(perpendicular_spread(&line) < 1e-12);
        let mut l = line.clone();
        l.extend((0..10).map(|i| Vec2::new(9.0, i as f64)));
        assert!(perpendicular_spread(&l) > 2.0);
    }

    /// The Fig. 5 claim, in miniature: under fast-fading noise, running
    /// the regression on ANF-filtered RSS must beat running it on raw
    /// RSS. Tested against the regression directly so the estimator's
    /// fallback ladder cannot mask the filter's effect.
    #[test]
    fn anf_beats_no_anf_under_noise() {
        use crate::anf::AdaptiveNoiseFilter;
        use crate::exponent::{search_exponent, ExponentSearch};

        let target = Vec2::new(4.0, 4.5);
        let mut err_anf = 0.0;
        let mut err_raw = 0.0;
        let runs = 8;
        for seed in 0..runs {
            // Structured fast noise: two incommensurate tones + per-run
            // phase, emulating multipath fading after quantization.
            let phase = seed as f64 * 0.7;
            let (rss, _track) = l_track(target, -59.0, 2.0, move |i| {
                let t = i as f64 * 0.11;
                3.0 * (2.0 * std::f64::consts::PI * 2.3 * t + phase).sin()
                    + 2.0 * (2.0 * std::f64::consts::PI * 3.7 * t + 1.3 * phase).cos()
            });
            let filtered = AdaptiveNoiseFilter::for_series(&rss).filter_zero_phase(&rss.v);
            let fit_of = |values: &[f64]| {
                // Rebuild the fused points for the known L geometry.
                let pts: Vec<RssPoint> = rss
                    .t
                    .iter()
                    .zip(values)
                    .map(|(&t, &v)| {
                        let pos = if t < 4.5 {
                            Vec2::new(t, 0.0)
                        } else {
                            Vec2::new(4.5, t - 4.5)
                        };
                        RssPoint::from_observer_displacement(pos, v)
                    })
                    .collect();
                search_exponent(&pts, &ExponentSearch::default())
                    .map(|f| f.position.distance(target))
                    .unwrap_or(10.0)
            };
            err_anf += fit_of(&filtered);
            err_raw += fit_of(&rss.v);
        }
        err_anf /= runs as f64;
        err_raw /= runs as f64;
        assert!(
            err_anf < err_raw,
            "ANF mean error {err_anf:.2} m should beat raw {err_raw:.2} m"
        );
    }

    #[test]
    fn disabling_the_ladder_makes_hard_cases_fail_cleanly() {
        // A short, heavily-biased trace the free fit rejects: with the
        // ladder off the estimator must return None, never a fabricated
        // position.
        let target = Vec2::new(4.0, 4.0);
        let (rss, track) = l_track(target, -59.0, 2.0, |i| {
            // Strong monotone drift the quadratic cannot open upward on.
            -(i as f64) * 0.9
        });
        let pure = EstimatorConfig {
            use_fallback_ladder: false,
            use_anf: false,
            ..Default::default()
        };
        let with_ladder = EstimatorConfig {
            use_anf: false,
            ..Default::default()
        };
        let pure_result = Estimator::new(pure).estimate_stationary(&rss, &track);
        let ladder_result = Estimator::new(with_ladder).estimate_stationary(&rss, &track);
        // The ladder always degrades to *something*; the pure estimator
        // may fail — but if it answers, both answers must be plausible.
        assert!(ladder_result.is_some());
        if let Some(est) = pure_result {
            assert!(est.range() <= 15.0 + 1e-9);
        }
        assert!(ladder_result.unwrap().range() <= 15.0 + 1e-9);
    }

    #[test]
    fn confidence_reflects_noise_level() {
        let target = Vec2::new(3.0, 4.0);
        let (clean_rss, track) = l_track(target, -59.0, 2.0, |_| 0.0);
        let (noisy_rss, _) = l_track(target, -59.0, 2.0, |i| {
            // Biased, structured noise the model cannot explain.
            3.0 * ((i as f64 * 0.4).sin()) + 2.0
        });
        let cfg = EstimatorConfig {
            use_anf: false,
            ..Default::default()
        };
        let est_clean = Estimator::new(cfg.clone())
            .estimate_stationary(&clean_rss, &track)
            .unwrap();
        let est_noisy = Estimator::new(cfg)
            .estimate_stationary(&noisy_rss, &track)
            .unwrap();
        assert!(est_clean.confidence > est_noisy.confidence);
    }

    #[test]
    fn residual_tracks_model_misfit() {
        let target = Vec2::new(3.0, 4.0);
        let (clean_rss, track) = l_track(target, -59.0, 2.0, |_| 0.0);
        let (noisy_rss, _) = l_track(target, -59.0, 2.0, |i| if i % 2 == 0 { 3.0 } else { -3.0 });
        let cfg = EstimatorConfig {
            use_anf: false,
            ..Default::default()
        };
        let est_clean = Estimator::new(cfg.clone())
            .estimate_stationary(&clean_rss, &track)
            .unwrap();
        let est_noisy = Estimator::new(cfg)
            .estimate_stationary(&noisy_rss, &track)
            .unwrap();
        assert!(
            est_clean.residual_db < 0.5,
            "clean {}",
            est_clean.residual_db
        );
        assert!(
            est_noisy.residual_db > est_clean.residual_db,
            "noisy {} vs clean {}",
            est_noisy.residual_db,
            est_clean.residual_db
        );
    }

    #[test]
    fn estimate_span_records_outcome_and_latency() {
        use locble_obs::{FieldValue, Obs};
        let target = Vec2::new(3.0, 4.0);
        let (rss, track) = l_track(target, -59.0, 2.0, |_| 0.0);
        let obs = Obs::ring(256);
        let est = Estimator::new(EstimatorConfig {
            use_anf: false,
            ..Default::default()
        })
        .with_obs(obs.clone());
        est.estimate_stationary(&rss, &track).unwrap();

        let events = obs.events();
        let span = events
            .iter()
            .find(|e| e.target == "core.estimator" && e.name == "estimate")
            .expect("estimate span event");
        assert_eq!(span.field("outcome"), Some(&FieldValue::Str("ok".into())));
        assert_eq!(
            span.field("method"),
            Some(&FieldValue::Str("free_joint".into()))
        );
        assert!(span.field("duration_us").and_then(|f| f.as_f64()).is_some());

        // Too few samples: the span still closes, with the right outcome.
        let short = TimeSeries::new(vec![0.0, 0.1], vec![-60.0, -61.0]);
        assert!(est.estimate_stationary(&short, &track).is_none());
        let events = obs.events();
        let fail = events
            .iter()
            .rev()
            .find(|e| e.name == "estimate")
            .expect("second span");
        assert_eq!(
            fail.field("outcome"),
            Some(&FieldValue::Str("too_few_samples".into()))
        );

        // The latency histogram accumulated both calls.
        let metrics = obs.metrics();
        let hist = metrics
            .histograms
            .iter()
            .find(|(name, _)| name.as_str() == "core.estimator.estimate.us")
            .map(|(_, h)| h)
            .expect("span latency histogram");
        assert_eq!(hist.count, 2);
    }
}
