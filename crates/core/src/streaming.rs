//! Streaming (online) estimation — Algorithm 1 as the paper runs it.
//!
//! The batch API in [`crate::estimator`] fits a completed measurement;
//! the app, however, works incrementally: "we collect a new data batch
//! every 2–3 seconds with approximately 20 RSS samples per data batch"
//! (§5.3), the estimate updates after every batch, and a confirmed
//! environment change *restarts the regression* ("start a new regression
//! with the data"). [`StreamingEstimator`] implements exactly that
//! regime: it holds the RSS collected since the last environment
//! restart, refits after each batch, and exposes the evolving estimate —
//! which is also what the navigation display consumes while the user
//! walks (Fig. 12b's improving-estimate behaviour).

use crate::envaware::EnvChangeDetector;
use crate::estimator::{Estimator, LocationEstimate};
use crate::regression::FitSolver;
use locble_dsp::TimeSeries;
use locble_geom::EnvClass;
use locble_motion::MotionTrack;
use std::fmt;

/// Why an [`RssBatch`] could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchError {
    /// The time and value vectors have different lengths.
    LengthMismatch {
        /// Number of timestamps supplied.
        times: usize,
        /// Number of RSSI values supplied.
        values: usize,
    },
    /// A timestamp is NaN or infinite.
    NonFiniteTimestamp {
        /// Index of the offending sample.
        index: usize,
    },
    /// An RSSI value is NaN or infinite.
    NonFiniteValue {
        /// Index of the offending sample.
        index: usize,
    },
    /// Timestamps decrease within the batch (samples must arrive in
    /// non-decreasing time order).
    UnsortedTimestamps {
        /// Index of the first sample earlier than its predecessor.
        index: usize,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::LengthMismatch { times, values } => write!(
                f,
                "batch vectors must match: {times} timestamps vs {values} values"
            ),
            BatchError::NonFiniteTimestamp { index } => {
                write!(f, "batch timestamp at index {index} is not finite")
            }
            BatchError::NonFiniteValue { index } => {
                write!(f, "batch RSSI value at index {index} is not finite")
            }
            BatchError::UnsortedTimestamps { index } => {
                write!(f, "batch timestamps decrease at index {index}")
            }
        }
    }
}

impl std::error::Error for BatchError {}

/// One RSS data batch (2–3 s of samples).
#[derive(Debug, Clone, Default)]
pub struct RssBatch {
    /// Sample times, seconds.
    pub t: Vec<f64>,
    /// RSSI values, dBm.
    pub v: Vec<f64>,
}

impl RssBatch {
    /// Builds a batch from parallel vectors.
    ///
    /// # Panics
    /// Panics on malformed input — length mismatch, non-finite or
    /// unsorted timestamps, non-finite values (use
    /// [`try_new`](Self::try_new) to handle malformed input gracefully).
    pub fn new(t: Vec<f64>, v: Vec<f64>) -> RssBatch {
        RssBatch::try_new(t, v).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a batch from parallel vectors, rejecting malformed input:
    /// mismatched lengths, non-finite timestamps or values, and
    /// timestamps that decrease within the batch. This is the validation
    /// boundary for data arriving from radio drivers — everything past
    /// it may assume well-formed, time-ordered samples.
    pub fn try_new(t: Vec<f64>, v: Vec<f64>) -> Result<RssBatch, BatchError> {
        if t.len() != v.len() {
            return Err(BatchError::LengthMismatch {
                times: t.len(),
                values: v.len(),
            });
        }
        for (index, &ti) in t.iter().enumerate() {
            if !ti.is_finite() {
                return Err(BatchError::NonFiniteTimestamp { index });
            }
            if index > 0 && ti < t[index - 1] {
                return Err(BatchError::UnsortedTimestamps { index });
            }
        }
        if let Some(index) = v.iter().position(|vi| !vi.is_finite()) {
            return Err(BatchError::NonFiniteValue { index });
        }
        Ok(RssBatch { t, v })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Decomposes the batch into its `(t, v)` vectors so callers that
    /// build batches in a loop can reclaim the allocations.
    pub fn into_parts(self) -> (Vec<f64>, Vec<f64>) {
        (self.t, self.v)
    }
}

/// Externally persistable state of a [`StreamingEstimator`] — everything
/// that distinguishes a mid-session estimator from a freshly constructed
/// one. The estimator itself (trained EnvAware model, configuration) is
/// *not* part of the state: durability snapshots rebuild sessions from
/// the engine's prototype estimator, so state stays small and the model
/// is never serialized. Restoring via [`StreamingEstimator::from_state`]
/// continues the session bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingState {
    /// Sample times accumulated since the last environment restart.
    pub series_t: Vec<f64>,
    /// RSSI values parallel to `series_t`.
    pub series_v: Vec<f64>,
    /// Environment-restart count.
    pub restarts: usize,
    /// The latest estimate, if any.
    pub current: Option<LocationEstimate>,
    /// Confirmed environment regime of the change detector.
    pub env_current: Option<EnvClass>,
    /// Unconfirmed candidate change (class, consecutive votes).
    pub env_pending: Option<(EnvClass, usize)>,
}

/// Consecutive EnvAware windows that must agree before a session
/// declares an environment change and restarts its regression.
/// Restarting throws the accumulated data away, so the online rule asks
/// for two windows where the batch estimate asks for one.
const RESTART_CONFIRM_WINDOWS: usize = 2;

/// The incremental Algorithm-1 driver.
#[derive(Debug, Clone)]
pub struct StreamingEstimator {
    estimator: Estimator,
    detector: EnvChangeDetector,
    /// RSS accumulated since the last regression restart.
    series: TimeSeries,
    /// Number of restarts so far (for diagnostics).
    restarts: usize,
    /// The latest estimate, if any.
    current: Option<LocationEstimate>,
    /// Shared-factorization cache for the regression: across refits of a
    /// growing session only the new samples' geometry is accumulated.
    /// Not persisted — rebuilding it from the series is bit-identical
    /// (Gram accumulation is strictly sequential), so restored sessions
    /// repopulate it lazily on their first refit.
    solver: FitSolver,
}

impl StreamingEstimator {
    /// Wraps a (possibly EnvAware-equipped) estimator.
    pub fn new(estimator: Estimator) -> StreamingEstimator {
        StreamingEstimator {
            estimator,
            detector: EnvChangeDetector::new(RESTART_CONFIRM_WINDOWS),
            series: TimeSeries::default(),
            restarts: 0,
            current: None,
            solver: FitSolver::new(),
        }
    }

    /// The latest estimate.
    pub fn current(&self) -> Option<&LocationEstimate> {
        self.current.as_ref()
    }

    /// Samples in the active regression.
    pub fn active_samples(&self) -> usize {
        self.series.len()
    }

    /// How many times the regression has been restarted by environment
    /// changes.
    pub fn restarts(&self) -> usize {
        self.restarts
    }

    /// Returns the session to its initial state — no accumulated RSS, no
    /// estimate, fresh environment detector — so a pooled session can be
    /// reused for a different beacon without reallocating the estimator
    /// (and its trained EnvAware model).
    pub fn reset(&mut self) {
        self.detector = EnvChangeDetector::new(RESTART_CONFIRM_WINDOWS);
        self.series.clear();
        self.restarts = 0;
        self.current = None;
        self.solver.clear();
    }

    /// Pre-grows the series, the solver's per-point buffers and the
    /// calling thread's refit buffers for `additional` more samples, so a
    /// steady stream of batches within that headroom, refit on this
    /// thread, never reallocates.
    pub fn reserve(&mut self, additional: usize) {
        self.series.reserve(additional);
        self.solver.reserve(additional);
        self.estimator
            .reserve_refit_scratch(self.series.len() + additional);
    }

    /// Classifies a batch's environment (when EnvAware is attached) and
    /// applies the restart rule: a *confirmed* change discards the
    /// accumulated data and starts fresh from this batch.
    fn apply_restart_rule(&mut self, batch: &RssBatch) {
        let Some((class, margin)) = self.classify(batch) else {
            return;
        };
        let obs = self.estimator.obs().clone();
        let before = self.detector.current();
        let had_regime = before.is_some();
        let confirmed = self.detector.push(class).is_some();
        if obs.enabled() {
            let pending = self.detector.pending();
            obs.event(
                "core.envaware",
                "classified",
                &[
                    ("class", format!("{class:?}").into()),
                    ("margin", margin.into()),
                    ("confirmed_change", (confirmed && had_regime).into()),
                    (
                        "pending_class",
                        pending
                            .map_or_else(|| "none".to_string(), |(c, _)| format!("{c:?}"))
                            .into(),
                    ),
                    ("pending_windows", pending.map_or(0, |(_, n)| n).into()),
                ],
            );
        }
        if confirmed && had_regime {
            // Paper: "start a new regression with the data".
            let discarded = self.series.len();
            self.series.clear();
            self.solver.clear();
            self.restarts += 1;
            obs.counter_add("stream.env_restarts", 1);
            if obs.enabled() {
                obs.event(
                    "core.streaming",
                    "env_restart",
                    &[
                        (
                            "from",
                            format!("{:?}", before.expect("had a regime")).into(),
                        ),
                        ("to", format!("{class:?}").into()),
                        ("discarded_samples", discarded.into()),
                        ("restarts", self.restarts.into()),
                    ],
                );
            }
        }
    }

    fn classify(&self, batch: &RssBatch) -> Option<(EnvClass, f64)> {
        if !self.estimator.config().use_envaware || batch.len() < 3 {
            return None;
        }
        self.estimator
            .envaware_model()
            .map(|model| model.classify_window_margin(&batch.v))
    }

    /// Feeds one batch and the observer's motion track so far; returns
    /// the refreshed estimate when enough data has accumulated.
    ///
    /// # Panics
    /// Panics when the batch's timestamps precede already-consumed data.
    pub fn push_batch(
        &mut self,
        batch: &RssBatch,
        observer: &MotionTrack,
    ) -> Option<&LocationEstimate> {
        if batch.is_empty() {
            return self.current.as_ref();
        }
        let obs = self.estimator.obs().clone();
        obs.counter_add("stream.batches", 1);
        obs.histogram_observe("stream.batch_len", batch.len() as f64);
        self.apply_restart_rule(batch);
        for (&t, &v) in batch.t.iter().zip(&batch.v) {
            self.series.push(t, v);
        }
        self.refit(observer);
        self.current.as_ref()
    }

    fn refit(&mut self, observer: &MotionTrack) {
        let obs = self.estimator.obs().clone();
        let mut span = obs.span("core.streaming", "refit");
        span.field("active_samples", self.series.len());
        let refreshed =
            self.estimator
                .estimate_stationary_cached(&self.series, observer, &mut self.solver);
        span.field("ok", refreshed.is_some());
        if let Some(est) = &refreshed {
            span.field("residual_db", est.residual_db);
            span.field("confidence", est.confidence);
        }
        drop(span);
        if let Some(est) = refreshed {
            self.current = Some(est);
        }
    }

    /// Extracts the session's persistable state (see [`StreamingState`]).
    pub fn export_state(&self) -> StreamingState {
        StreamingState {
            series_t: self.series.t.clone(),
            series_v: self.series.v.clone(),
            restarts: self.restarts,
            current: self.current,
            env_current: self.detector.current(),
            env_pending: self.detector.pending(),
        }
    }

    /// Rebuilds a mid-session estimator from persisted state around a
    /// fresh `estimator` (normally a clone of the engine's prototype —
    /// it must be configured identically to the one that exported the
    /// state, or the continued session will diverge).
    ///
    /// # Panics
    /// Panics when the persisted series is malformed (mismatched vector
    /// lengths or decreasing timestamps) — corrupt snapshots are caught
    /// by CRC before reaching this constructor.
    pub fn from_state(estimator: Estimator, state: StreamingState) -> StreamingEstimator {
        StreamingEstimator {
            estimator,
            detector: EnvChangeDetector::restore(
                RESTART_CONFIRM_WINDOWS,
                state.env_current,
                state.env_pending,
            ),
            series: TimeSeries::new(state.series_t, state.series_v),
            restarts: state.restarts,
            current: state.current,
            solver: FitSolver::new(),
        }
    }

    /// Builds a batch from parallel vectors and feeds it. A malformed
    /// batch is counted (`stream.batches_rejected`), reported as a
    /// `core.streaming/batch_rejected` event, and returned as an error
    /// instead of panicking — bad input from a radio driver must not
    /// take the pipeline down.
    pub fn try_push(
        &mut self,
        t: Vec<f64>,
        v: Vec<f64>,
        observer: &MotionTrack,
    ) -> Result<Option<&LocationEstimate>, BatchError> {
        match RssBatch::try_new(t, v) {
            Ok(batch) => Ok(self.push_batch(&batch, observer)),
            Err(e) => {
                let obs = self.estimator.obs();
                obs.counter_add("stream.batches_rejected", 1);
                if obs.enabled() {
                    obs.event(
                        "core.streaming",
                        "batch_rejected",
                        &[("reason", e.to_string().into())],
                    );
                }
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::EstimatorConfig;
    use locble_geom::{Trajectory, Vec2};
    use locble_motion::StepResult;
    use locble_rf::LogDistanceModel;

    /// An L-walk sliced into 2.2 s batches with a motion track that grows
    /// alongside.
    fn batches(target: Vec2, noise: impl Fn(usize) -> f64) -> (Vec<RssBatch>, MotionTrack) {
        let model = LogDistanceModel::new(-59.0, 2.0);
        let dt = 0.11;
        let mut traj = Trajectory::new();
        let mut all = Vec::new();
        let mut pos = Vec2::ZERO;
        for i in 0..70usize {
            let t = i as f64 * dt;
            traj.push(t, pos);
            all.push((t, model.rss_at(target.distance(pos)) + noise(i)));
            if i < 40 {
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
                distance_m: 7.7,
            },
            turns: vec![],
        };
        let batches = all
            .chunks(20)
            .map(|c| {
                RssBatch::new(
                    c.iter().map(|(t, _)| *t).collect(),
                    c.iter().map(|(_, v)| *v).collect(),
                )
            })
            .collect();
        (batches, track)
    }

    #[test]
    fn estimate_refines_as_batches_arrive() {
        let target = Vec2::new(4.0, 3.5);
        let (batches, track) = batches(target, |i| if i % 2 == 0 { 1.0 } else { -1.0 });
        let mut streaming = StreamingEstimator::new(Estimator::new(EstimatorConfig::default()));
        let mut errors = Vec::new();
        for b in &batches {
            if let Some(est) = streaming.push_batch(b, &track) {
                errors.push(est.position.distance(target));
            }
        }
        assert!(errors.len() >= 3, "estimates from {} batches", errors.len());
        // The final estimate (full L) must beat the first (single leg).
        assert!(
            errors.last().unwrap() < errors.first().unwrap(),
            "errors did not refine: {errors:?}"
        );
        assert!(
            errors.last().unwrap() < &1.0,
            "final error {:?}",
            errors.last()
        );
    }

    #[test]
    fn empty_batches_are_harmless() {
        let target = Vec2::new(4.0, 3.5);
        let (batches, track) = batches(target, |_| 0.0);
        let mut streaming = StreamingEstimator::new(Estimator::new(EstimatorConfig::default()));
        assert!(streaming.push_batch(&RssBatch::default(), &track).is_none());
        streaming.push_batch(&batches[0], &track);
        let before = streaming.current().copied();
        streaming.push_batch(&RssBatch::default(), &track);
        assert_eq!(streaming.current().copied(), before);
    }

    #[test]
    fn active_window_grows_without_env_changes() {
        let target = Vec2::new(4.0, 3.5);
        let (batches, track) = batches(target, |_| 0.0);
        let mut streaming = StreamingEstimator::new(Estimator::new(EstimatorConfig::default()));
        let mut last = 0;
        for b in &batches {
            streaming.push_batch(b, &track);
            assert!(streaming.active_samples() > last);
            last = streaming.active_samples();
        }
        assert_eq!(streaming.restarts(), 0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_time_travel_between_batches() {
        let target = Vec2::new(4.0, 3.5);
        let (batches, track) = batches(target, |_| 0.0);
        let mut streaming = StreamingEstimator::new(Estimator::new(EstimatorConfig::default()));
        streaming.push_batch(&batches[1], &track);
        streaming.push_batch(&batches[0], &track);
    }

    #[test]
    fn try_new_rejects_mismatched_lengths() {
        let err = RssBatch::try_new(vec![0.0, 0.1], vec![-60.0]).unwrap_err();
        assert_eq!(
            err,
            BatchError::LengthMismatch {
                times: 2,
                values: 1
            }
        );
        assert!(err.to_string().contains("2 timestamps vs 1 values"));
        assert!(RssBatch::try_new(vec![0.0], vec![-60.0]).is_ok());
    }

    #[test]
    #[should_panic(expected = "batch vectors must match")]
    fn new_still_panics_on_mismatch() {
        RssBatch::new(vec![0.0], vec![]);
    }

    #[test]
    fn try_new_rejects_nan_and_unsorted_batches() {
        assert_eq!(
            RssBatch::try_new(vec![0.0, f64::NAN], vec![-60.0, -61.0]).unwrap_err(),
            BatchError::NonFiniteTimestamp { index: 1 }
        );
        assert_eq!(
            RssBatch::try_new(vec![0.0, f64::INFINITY], vec![-60.0, -61.0]).unwrap_err(),
            BatchError::NonFiniteTimestamp { index: 1 }
        );
        assert_eq!(
            RssBatch::try_new(vec![0.0, 0.1], vec![-60.0, f64::NAN]).unwrap_err(),
            BatchError::NonFiniteValue { index: 1 }
        );
        assert_eq!(
            RssBatch::try_new(vec![0.2, 0.1], vec![-60.0, -61.0]).unwrap_err(),
            BatchError::UnsortedTimestamps { index: 1 }
        );
        // Equal timestamps are legal (the series accepts non-decreasing).
        assert!(RssBatch::try_new(vec![0.1, 0.1], vec![-60.0, -61.0]).is_ok());
    }

    #[test]
    fn try_push_rejects_unsorted_instead_of_panicking() {
        let (_, track) = batches(Vec2::new(4.0, 3.5), |_| 0.0);
        let mut streaming = StreamingEstimator::new(Estimator::new(EstimatorConfig::default()));
        let err = streaming
            .try_push(vec![1.0, 0.5], vec![-60.0, -61.0], &track)
            .unwrap_err();
        assert_eq!(err, BatchError::UnsortedTimestamps { index: 1 });
        assert_eq!(streaming.active_samples(), 0);
    }

    #[test]
    fn reset_returns_session_to_pristine_state() {
        let target = Vec2::new(4.0, 3.5);
        let (batches, track) = batches(target, |_| 0.0);
        let mut fresh = StreamingEstimator::new(Estimator::new(EstimatorConfig::default()));
        let mut reused = StreamingEstimator::new(Estimator::new(EstimatorConfig::default()));
        // Dirty the session, then reset and replay: results must be
        // bit-identical to a never-used session.
        for b in &batches {
            reused.push_batch(b, &track);
        }
        reused.reset();
        assert_eq!(reused.active_samples(), 0);
        assert!(reused.current().is_none());
        assert_eq!(reused.restarts(), 0);
        for b in &batches {
            fresh.push_batch(b, &track);
            reused.push_batch(b, &track);
        }
        assert_eq!(fresh.current().copied(), reused.current().copied());
    }

    #[test]
    fn try_push_records_the_rejection_and_keeps_running() {
        use locble_obs::Obs;
        let target = Vec2::new(4.0, 3.5);
        let (batches, track) = batches(target, |_| 0.0);
        let obs = Obs::ring(64);
        let estimator = Estimator::new(EstimatorConfig::default()).with_obs(obs.clone());
        let mut streaming = StreamingEstimator::new(estimator);
        let err = streaming
            .try_push(vec![0.0, 0.1], vec![-60.0], &track)
            .unwrap_err();
        assert!(matches!(err, BatchError::LengthMismatch { .. }));
        assert_eq!(obs.metrics().counter("stream.batches_rejected"), 1);
        assert!(obs.events().iter().any(|e| e.name == "batch_rejected"));
        // Well-formed input still flows through the same entry point.
        let b = &batches[0];
        assert!(streaming.try_push(b.t.clone(), b.v.clone(), &track).is_ok());
        assert_eq!(streaming.active_samples(), b.len());
    }

    /// Durability contract: exporting mid-session state and rebuilding
    /// around a fresh clone of the same estimator must continue the
    /// session bit-for-bit — every later estimate identical down to the
    /// f64 bit patterns.
    #[test]
    fn export_restore_roundtrip_is_bit_identical() {
        let target = Vec2::new(4.0, 3.5);
        let (batches, track) = batches(target, |i| if i % 3 == 0 { 0.8 } else { -0.4 });
        for cut in 0..batches.len() {
            let mut live = StreamingEstimator::new(Estimator::new(EstimatorConfig::default()));
            for b in &batches[..cut] {
                live.push_batch(b, &track);
            }
            let state = live.export_state();
            let mut restored = StreamingEstimator::from_state(
                Estimator::new(EstimatorConfig::default()),
                state.clone(),
            );
            assert_eq!(restored.export_state(), state, "cut {cut}: lossy export");
            for b in &batches[cut..] {
                let a = live.push_batch(b, &track).copied();
                let r = restored.push_batch(b, &track).copied();
                assert_eq!(a, r, "cut {cut}: continuation diverged");
            }
            let (a, r) = (live.current().copied(), restored.current().copied());
            assert_eq!(a, r);
            if let (Some(a), Some(r)) = (a, r) {
                assert_eq!(a.position.x.to_bits(), r.position.x.to_bits());
                assert_eq!(a.confidence.to_bits(), r.confidence.to_bits());
                assert_eq!(a.residual_db.to_bits(), r.residual_db.to_bits());
            }
            assert_eq!(live.restarts(), restored.restarts());
            assert_eq!(live.export_state(), restored.export_state());
        }
    }

    /// Trains a small EnvAware model on synthetic class-dependent
    /// windows (the same statistics the envaware module tests use).
    fn synth_envaware(seed: u64) -> crate::envaware::EnvAware {
        use crate::envaware::{EnvAware, EnvAwareConfig};
        use locble_rf::randn::normal;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut windows = Vec::new();
        for class in locble_geom::EnvClass::ALL {
            let (mean, sigma) = match class {
                locble_geom::EnvClass::Los => (-62.0, 1.8),
                locble_geom::EnvClass::PartialLos => (-71.0, 3.2),
                locble_geom::EnvClass::NonLos => (-82.0, 5.0),
            };
            for _ in 0..80 {
                let offset = normal(&mut rng, 0.0, 2.0);
                let w: Vec<f64> = (0..18)
                    .map(|_| normal(&mut rng, mean + offset, sigma))
                    .collect();
                windows.push((w, class));
            }
        }
        EnvAware::train(&windows, &EnvAwareConfig::default())
    }

    #[test]
    fn confirmed_env_change_restarts_and_is_recorded() {
        use locble_obs::{FieldValue, Obs};
        use locble_rf::randn::normal;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let obs = Obs::ring(512);
        let estimator = Estimator::with_envaware(EstimatorConfig::default(), synth_envaware(5))
            .with_obs(obs.clone());
        let mut streaming = StreamingEstimator::new(estimator);
        let (_, track) = batches(Vec2::new(4.0, 3.5), |_| 0.0);

        let mut rng = StdRng::seed_from_u64(99);
        let mut batch_of = |idx: usize, mean: f64, sigma: f64| {
            let t0 = idx as f64 * 2.2;
            let t: Vec<f64> = (0..20).map(|i| t0 + i as f64 * 0.11).collect();
            let v: Vec<f64> = (0..20).map(|_| normal(&mut rng, mean, sigma)).collect();
            RssBatch::new(t, v)
        };
        for k in 0..3 {
            streaming.push_batch(&batch_of(k, -62.0, 1.8), &track);
        }
        // First differing window only goes pending (the online rule
        // demands two); the second confirms and restarts.
        streaming.push_batch(&batch_of(3, -82.0, 5.0), &track);
        assert_eq!(streaming.restarts(), 0, "one NLOS window must not restart");
        let samples_before_restart = streaming.active_samples();
        streaming.push_batch(&batch_of(4, -82.0, 5.0), &track);
        assert_eq!(streaming.restarts(), 1);
        assert_eq!(
            streaming.active_samples(),
            20,
            "series must restart from the confirming batch"
        );
        assert_eq!(obs.metrics().counter("stream.env_restarts"), 1);
        assert_eq!(obs.metrics().counter("stream.batches"), 5);

        let events = obs.events();
        let restart = events
            .iter()
            .find(|e| e.name == "env_restart")
            .expect("restart event recorded");
        assert_eq!(restart.field("from"), Some(&FieldValue::Str("Los".into())));
        assert_eq!(restart.field("to"), Some(&FieldValue::Str("NonLos".into())));
        match restart.field("discarded_samples") {
            Some(&FieldValue::U64(n)) => assert_eq!(n as usize, samples_before_restart),
            other => panic!("bad discarded_samples {other:?}"),
        }
        // Every batch left a classification breadcrumb.
        let n_classified = events.iter().filter(|e| e.name == "classified").count();
        assert_eq!(n_classified, 5);
    }
}
