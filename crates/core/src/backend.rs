//! Pluggable estimation backends behind one trait.
//!
//! The paper's pipeline is one fixed estimator — the least-squares
//! path-loss inversion driven by [`StreamingEstimator`]. The related
//! work it benchmarks against solves the same problem differently:
//! Bayesian/particle filtering for proximity (Mackey et al.) and
//! kernel-method RSS fingerprinting (Ng et al.). [`Estimator`] is the
//! trait that lets the engine hold any of them per session: the
//! ingest/refit/snapshot/export-restore surface extracted from
//! [`StreamingEstimator`], object-safe so a session is just a
//! `Box<dyn Estimator>`.
//!
//! Three backends ship today:
//!
//! * [`BackendKind::Streaming`] — the paper's regression,
//!   [`StreamingEstimator`] unchanged. This is the default, and the
//!   differential suite proves the boxed path is **bit-identical** to
//!   calling the concrete type directly.
//! * [`BackendKind::Particle`] — [`crate::particle::ParticleBackend`],
//!   a sequential Monte-Carlo filter fusing the dead-reckoned observer
//!   motion with the RF log-distance likelihood.
//! * [`BackendKind::Fingerprint`] — [`crate::fingerprint::FingerprintBackend`],
//!   a kernel-scored candidate-grid fit trained with `locble-ml`'s
//!   Gram solver and standard scaler.
//!
//! Snapshots are **backend-tagged**: [`BackendState`] carries the
//! backend discriminant next to the payload, and restoring a state
//! tagged with backend A into backend B fails with the typed
//! [`BackendMismatch`] instead of silently misreading bytes.

use crate::estimator::LocationEstimate;
use crate::fingerprint::{FingerprintBackend, FingerprintConfig, FingerprintState};
use crate::particle::{ParticleBackend, ParticleConfig, ParticleState};
use crate::streaming::{RssBatch, StreamingEstimator, StreamingState};
use locble_motion::MotionTrack;
use std::fmt;

/// Which estimation algorithm a backend (or a snapshot) is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The paper's streaming least-squares regression (the default).
    Streaming,
    /// Particle filter: dead-reckoning motion × RF likelihood.
    Particle,
    /// Kernel/fingerprint candidate-grid fit.
    Fingerprint,
}

impl BackendKind {
    /// Stable lower-case name (diagnostics, bench reports).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Streaming => "streaming",
            BackendKind::Particle => "particle",
            BackendKind::Fingerprint => "fingerprint",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A backend-tagged session snapshot: the discriminant travels with the
/// payload, so a restore into the wrong backend is a typed error, never
/// a silent misread.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendState {
    /// [`StreamingEstimator`] state.
    Streaming(StreamingState),
    /// [`ParticleBackend`] state.
    Particle(ParticleState),
    /// [`FingerprintBackend`] state.
    Fingerprint(FingerprintState),
}

impl BackendState {
    /// The backend the snapshot was exported from.
    pub fn kind(&self) -> BackendKind {
        match self {
            BackendState::Streaming(_) => BackendKind::Streaming,
            BackendState::Particle(_) => BackendKind::Particle,
            BackendState::Fingerprint(_) => BackendKind::Fingerprint,
        }
    }
}

/// A snapshot tagged with one backend was offered to another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendMismatch {
    /// The backend the state was restored *into*.
    pub expected: BackendKind,
    /// The backend the snapshot was exported *from*.
    pub found: BackendKind,
}

impl fmt::Display for BackendMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "snapshot was exported from the {} backend but offered to the {} backend",
            self.found, self.expected
        )
    }
}

impl std::error::Error for BackendMismatch {}

/// The estimation surface the engine drives per session, extracted from
/// [`StreamingEstimator`]: feed batches, force refits, read the current
/// estimate, and export/restore backend-tagged state for durability.
///
/// Object safety is the point — the engine holds `Box<dyn Estimator>`
/// and selects the backend per workload via [`BackendSpec`].
pub trait Estimator: Send + fmt::Debug {
    /// Which algorithm this backend runs.
    fn kind(&self) -> BackendKind;

    /// Feeds one RSS batch plus the observer's motion so far; returns
    /// the refreshed estimate when the backend has one.
    fn push_batch(&mut self, batch: &RssBatch, observer: &MotionTrack)
        -> Option<&LocationEstimate>;

    /// Forces an up-to-date estimate over everything accumulated
    /// (no-op for backends that are always current).
    fn refit_now(&mut self, observer: &MotionTrack) -> Option<&LocationEstimate>;

    /// The latest estimate, if any.
    fn current(&self) -> Option<&LocationEstimate>;

    /// Samples in the active estimation window.
    fn active_samples(&self) -> usize;

    /// Regression/filter restarts so far (0 for backends that never
    /// restart).
    fn restarts(&self) -> usize;

    /// Exports the session's persistable state, tagged with
    /// [`BackendKind`].
    fn export_state(&self) -> BackendState;

    /// Replaces this session's state with a previously exported
    /// snapshot. Fails with [`BackendMismatch`] when the snapshot's tag
    /// is a different backend; on error the session is left unchanged.
    fn restore_state(&mut self, state: BackendState) -> Result<(), BackendMismatch>;

    /// Pre-grows internal buffers for `additional` more samples so a
    /// warm session within that headroom ingests without allocating.
    /// Backends whose working set is fixed-size (e.g. a particle cloud)
    /// keep the no-op default.
    fn reserve(&mut self, _additional_samples: usize) {}
}

impl Estimator for StreamingEstimator {
    fn kind(&self) -> BackendKind {
        BackendKind::Streaming
    }

    fn push_batch(
        &mut self,
        batch: &RssBatch,
        observer: &MotionTrack,
    ) -> Option<&LocationEstimate> {
        StreamingEstimator::push_batch(self, batch, observer)
    }

    fn refit_now(&mut self, observer: &MotionTrack) -> Option<&LocationEstimate> {
        StreamingEstimator::refit_now(self, observer)
    }

    fn current(&self) -> Option<&LocationEstimate> {
        StreamingEstimator::current(self)
    }

    fn active_samples(&self) -> usize {
        StreamingEstimator::active_samples(self)
    }

    fn restarts(&self) -> usize {
        StreamingEstimator::restarts(self)
    }

    fn export_state(&self) -> BackendState {
        BackendState::Streaming(StreamingEstimator::export_state(self))
    }

    fn restore_state(&mut self, state: BackendState) -> Result<(), BackendMismatch> {
        match state {
            BackendState::Streaming(s) => {
                *self = StreamingEstimator::from_state(self.estimator().clone(), s);
                Ok(())
            }
            other => Err(BackendMismatch {
                expected: BackendKind::Streaming,
                found: other.kind(),
            }),
        }
    }

    fn reserve(&mut self, additional_samples: usize) {
        StreamingEstimator::reserve(self, additional_samples);
    }
}

/// Per-workload backend selection: which [`Estimator`] new sessions run
/// and how it is configured. Lives in the engine config, so one engine
/// (or one cluster node class) can serve a different algorithm than
/// another without touching the dataflow.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum BackendSpec {
    /// The paper's streaming regression (default). Sessions clone the
    /// engine's prototype estimator, exactly as before the trait.
    #[default]
    Streaming,
    /// Particle filter with the given configuration.
    Particle(ParticleConfig),
    /// Fingerprint/kernel backend with the given configuration.
    Fingerprint(FingerprintConfig),
}

impl BackendSpec {
    /// The backend this spec builds.
    pub fn kind(&self) -> BackendKind {
        match self {
            BackendSpec::Streaming => BackendKind::Streaming,
            BackendSpec::Particle(_) => BackendKind::Particle,
            BackendSpec::Fingerprint(_) => BackendKind::Fingerprint,
        }
    }

    /// Builds a fresh session backend. `prototype` seeds the streaming
    /// backend (configuration + trained EnvAware model); `refit_stride`
    /// applies to backends with deferred-refit semantics.
    pub fn build(
        &self,
        prototype: &crate::estimator::Estimator,
        refit_stride: usize,
    ) -> Box<dyn Estimator> {
        match self {
            BackendSpec::Streaming => {
                Box::new(StreamingEstimator::new(prototype.clone()).with_refit_stride(refit_stride))
            }
            BackendSpec::Particle(cfg) => Box::new(ParticleBackend::new(cfg.clone())),
            BackendSpec::Fingerprint(cfg) => {
                Box::new(FingerprintBackend::new(cfg.clone()).with_refit_stride(refit_stride))
            }
        }
    }

    /// Builds a session backend and restores an exported snapshot into
    /// it — the durability path. Fails with [`BackendMismatch`] when
    /// the snapshot was exported from a different backend.
    pub fn restore(
        &self,
        prototype: &crate::estimator::Estimator,
        refit_stride: usize,
        state: BackendState,
    ) -> Result<Box<dyn Estimator>, BackendMismatch> {
        let mut backend = self.build(prototype, refit_stride);
        backend.restore_state(state)?;
        Ok(backend)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::estimator::{Estimator as BatchEstimator, EstimatorConfig};
    use locble_geom::{Trajectory, Vec2};
    use locble_motion::StepResult;
    use locble_rf::LogDistanceModel;

    /// An L-walk with batches, shared by the backend tests.
    pub(crate) fn l_walk(target: Vec2) -> (Vec<RssBatch>, MotionTrack) {
        let model = LogDistanceModel::new(-59.0, 2.0);
        let dt = 0.11;
        let mut traj = Trajectory::new();
        let mut all = Vec::new();
        let mut pos = Vec2::ZERO;
        for i in 0..70usize {
            let t = i as f64 * dt;
            traj.push(t, pos);
            let noise = if i % 2 == 0 { 0.9 } else { -0.7 };
            all.push((t, model.rss_at(target.distance(pos)) + noise));
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

    fn all_specs() -> Vec<BackendSpec> {
        vec![
            BackendSpec::Streaming,
            BackendSpec::Particle(ParticleConfig::default()),
            BackendSpec::Fingerprint(FingerprintConfig::default()),
        ]
    }

    #[test]
    fn every_backend_estimates_the_l_walk() {
        let target = Vec2::new(4.0, 3.5);
        let (batches, track) = l_walk(target);
        let prototype = BatchEstimator::new(EstimatorConfig::default());
        for spec in all_specs() {
            let mut backend = spec.build(&prototype, 1);
            assert_eq!(backend.kind(), spec.kind());
            for b in &batches {
                backend.push_batch(b, &track);
            }
            backend.refit_now(&track);
            let est = backend
                .current()
                .unwrap_or_else(|| panic!("{} backend produced no estimate", spec.kind()));
            let mut err = est.position.distance(target);
            if let Some(m) = est.mirror {
                err = err.min(m.distance(target));
            }
            assert!(
                err < 4.0,
                "{} backend error {err:.2} m on a clean L-walk",
                spec.kind()
            );
        }
    }

    #[test]
    fn export_is_tagged_with_the_backend_kind() {
        let prototype = BatchEstimator::new(EstimatorConfig::default());
        for spec in all_specs() {
            let backend = spec.build(&prototype, 1);
            assert_eq!(backend.export_state().kind(), spec.kind());
        }
    }

    #[test]
    fn cross_backend_restore_is_a_typed_error() {
        let prototype = BatchEstimator::new(EstimatorConfig::default());
        let specs = all_specs();
        for from in &specs {
            for into in &specs {
                let state = from.build(&prototype, 1).export_state();
                let result = into.restore(&prototype, 1, state);
                if from.kind() == into.kind() {
                    assert!(result.is_ok());
                } else {
                    let err = result.expect_err("mismatch must be refused");
                    assert_eq!(err.expected, into.kind());
                    assert_eq!(err.found, from.kind());
                    assert!(err.to_string().contains(from.kind().name()));
                }
            }
        }
    }

    #[test]
    fn failed_restore_leaves_the_session_unchanged() {
        let target = Vec2::new(4.0, 3.5);
        let (batches, track) = l_walk(target);
        let prototype = BatchEstimator::new(EstimatorConfig::default());
        let mut backend = BackendSpec::Streaming.build(&prototype, 1);
        for b in &batches {
            backend.push_batch(b, &track);
        }
        let before = backend.export_state();
        let foreign = BackendSpec::Particle(ParticleConfig::default())
            .build(&prototype, 1)
            .export_state();
        assert!(backend.restore_state(foreign).is_err());
        assert_eq!(backend.export_state(), before);
    }

    /// The tentpole's core promise: the default backend driven through
    /// `Box<dyn Estimator>` is bit-identical to the concrete
    /// [`StreamingEstimator`].
    #[test]
    fn boxed_streaming_is_bit_identical_to_concrete() {
        let target = Vec2::new(4.0, 3.5);
        let (batches, track) = l_walk(target);
        let prototype = BatchEstimator::new(EstimatorConfig::default());
        let mut concrete = StreamingEstimator::new(prototype.clone()).with_refit_stride(2);
        let mut boxed = BackendSpec::Streaming.build(&prototype, 2);
        for b in &batches {
            let a = StreamingEstimator::push_batch(&mut concrete, b, &track).copied();
            let d = boxed.push_batch(b, &track).copied();
            assert_eq!(a, d);
        }
        let a = StreamingEstimator::refit_now(&mut concrete, &track).copied();
        let d = boxed.refit_now(&track).copied();
        assert_eq!(a, d);
        let (a, d) = (a.expect("estimate"), d.expect("estimate"));
        assert_eq!(a.position.x.to_bits(), d.position.x.to_bits());
        assert_eq!(a.position.y.to_bits(), d.position.y.to_bits());
        assert_eq!(a.confidence.to_bits(), d.confidence.to_bits());
        assert_eq!(
            BackendState::Streaming(concrete.export_state()),
            boxed.export_state()
        );
    }
}
