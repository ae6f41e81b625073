//! Comparison backends behind one trait, for the harness only.
//!
//! The paper's estimator is [`StreamingEstimator`] (Algorithm 1), and
//! it is the only one the engine serves. The related work it is
//! compared against solves the same problem differently:
//! Bayesian/particle filtering for proximity (Mackey et al.) and
//! kernel-method RSS fingerprinting (Ng et al.). [`Estimator`] is the
//! surface the backend shootout (`harness backends`) drives all three
//! through, object-safe so each arm is a `Box<dyn Estimator>`:
//!
//! * [`BackendSpec::Streaming`] — the paper's regression,
//!   [`StreamingEstimator`] unchanged; the differential tests prove the
//!   boxed path is **bit-identical** to calling the concrete type.
//! * [`BackendSpec::Particle`] — [`crate::particle::ParticleBackend`],
//!   a sequential Monte-Carlo filter fusing the dead-reckoned observer
//!   motion with the RF log-distance likelihood.
//! * [`BackendSpec::Fingerprint`] — [`crate::fingerprint::FingerprintBackend`],
//!   a kernel-scored candidate-grid fit trained with `locble-ml`'s
//!   Gram solver and standard scaler.

use crate::estimator::LocationEstimate;
use crate::fingerprint::{FingerprintBackend, FingerprintConfig};
use crate::particle::{ParticleBackend, ParticleConfig};
use crate::streaming::{RssBatch, StreamingEstimator};
use locble_motion::MotionTrack;
use std::fmt;

/// The estimation surface the shootout drives per session: feed
/// batches, force refits, read the current estimate.
pub trait Estimator: Send + fmt::Debug {
    /// Feeds one RSS batch plus the observer's motion so far; returns
    /// the refreshed estimate when the backend has one.
    fn push_batch(&mut self, batch: &RssBatch, observer: &MotionTrack)
        -> Option<&LocationEstimate>;

    /// Forces an up-to-date estimate over everything accumulated
    /// (no-op for backends that are always current).
    fn refit_now(&mut self, observer: &MotionTrack) -> Option<&LocationEstimate>;

    /// The latest estimate, if any.
    fn current(&self) -> Option<&LocationEstimate>;
}

impl Estimator for StreamingEstimator {
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
}

/// Which [`Estimator`] a shootout arm runs and how it is configured.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum BackendSpec {
    /// The paper's streaming regression (default), a clone of the
    /// prototype estimator.
    #[default]
    Streaming,
    /// Particle filter with the given configuration.
    Particle(ParticleConfig),
    /// Fingerprint/kernel backend with the given configuration.
    Fingerprint(FingerprintConfig),
}

impl BackendSpec {
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

    fn all_specs() -> [(&'static str, BackendSpec); 3] {
        [
            ("streaming", BackendSpec::Streaming),
            ("particle", BackendSpec::Particle(ParticleConfig::default())),
            (
                "fingerprint",
                BackendSpec::Fingerprint(FingerprintConfig::default()),
            ),
        ]
    }

    #[test]
    fn every_backend_estimates_the_l_walk() {
        let target = Vec2::new(4.0, 3.5);
        let (batches, track) = l_walk(target);
        let prototype = BatchEstimator::new(EstimatorConfig::default());
        for (name, spec) in all_specs() {
            let mut backend = spec.build(&prototype, 1);
            for b in &batches {
                backend.push_batch(b, &track);
            }
            backend.refit_now(&track);
            let est = backend
                .current()
                .unwrap_or_else(|| panic!("{name} backend produced no estimate"));
            let mut err = est.position.distance(target);
            if let Some(m) = est.mirror {
                err = err.min(m.distance(target));
            }
            assert!(
                err < 4.0,
                "{name} backend error {err:.2} m on a clean L-walk"
            );
        }
    }

    /// The default backend driven through
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
    }
}
