//! Particle-filter backend: Bayesian beacon localization fusing the
//! dead-reckoned observer motion with the RF log-distance likelihood.
//!
//! The related work the paper benchmarks against (Mackey et al.'s
//! Bayesian proximity filters, Jadidi et al.'s radio-inertial particle
//! filters) localizes with sequential Monte Carlo instead of
//! regression. [`ParticleBackend`] implements that family over the
//! same inputs as [`crate::streaming::StreamingEstimator`]: a cloud of
//! candidate beacon positions in the observer's local frame,
//! re-weighted after every RSS sample by the Gaussian likelihood of
//! the measured RSSI under the log-distance path-loss model evaluated
//! at the dead-reckoned observer position, with systematic resampling
//! when the effective sample size collapses.
//!
//! Everything is deterministic: the only randomness is a SplitMix64
//! stream seeded from the configuration, so identical inputs give a
//! bit-identical filter. It is a comparison baseline for the backend
//! shootout (`harness backends`); the engine serves only the streaming
//! estimator.

use crate::estimator::{FitMethod, LocationEstimate};
use crate::streaming::RssBatch;
use locble_geom::Vec2;
use locble_motion::MotionTrack;
use locble_rf::LogDistanceModel;

/// Particle-filter tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ParticleConfig {
    /// Cloud size. More particles cost linearly and converge smoother.
    pub particles: usize,
    /// Seed of the deterministic SplitMix64 draw stream.
    pub seed: u64,
    /// Radius of the uniform-disc prior around the observer's position
    /// at first contact, metres (BLE hearing range).
    pub init_radius_m: f64,
    /// Per-batch diffusion noise, metres: how far a stationary-beacon
    /// hypothesis may wander between batches (absorbs dead-reckoning
    /// drift).
    pub drift_m: f64,
    /// Likelihood sigma, dB — the assumed RSS measurement noise.
    pub rss_sigma_db: f64,
    /// Reference power `Γ` of the likelihood model, dBm.
    pub gamma_dbm: f64,
    /// Path-loss exponent `n` of the likelihood model.
    pub exponent: f64,
}

impl Default for ParticleConfig {
    fn default() -> ParticleConfig {
        ParticleConfig {
            particles: 256,
            seed: 0x5EED_BEAC,
            init_radius_m: 12.0,
            drift_m: 0.35,
            rss_sigma_db: 4.5,
            gamma_dbm: -59.0,
            exponent: 2.0,
        }
    }
}

/// The filter's evolving state: the cloud, the RNG stream position,
/// and the running counters.
#[derive(Debug, Clone, PartialEq)]
struct ParticleState {
    /// Particle x coordinates, observer-local frame, metres.
    xs: Vec<f64>,
    /// Particle y coordinates.
    ys: Vec<f64>,
    /// Unnormalized log weights, parallel to `xs`.
    log_w: Vec<f64>,
    /// SplitMix64 stream state (advances once per draw).
    rng: u64,
    /// Batches consumed.
    batches: u64,
    /// Samples consumed.
    samples: u64,
    /// Systematic resampling passes run so far.
    resamples: u64,
    /// The latest estimate, if any.
    current: Option<LocationEstimate>,
}

/// Reusable per-batch buffers. Deliberately *not* part of
/// [`ParticleState`]: the scratch holds no information (weights are a
/// pure function of `log_w`, the resample targets are swapped into the
/// cloud before the batch returns), so keeping it out keeps the
/// state's `PartialEq` meaningful while letting a warm filter run a
/// batch without heap allocation.
#[derive(Debug, Clone, Default)]
struct ParticleScratch {
    /// Normalized linear weights.
    w: Vec<f64>,
    /// Resampling targets, swapped with the cloud after each pass.
    new_xs: Vec<f64>,
    new_ys: Vec<f64>,
}

/// The sequential Monte-Carlo backend. See the module docs.
#[derive(Debug, Clone)]
pub struct ParticleBackend {
    config: ParticleConfig,
    model: LogDistanceModel,
    state: ParticleState,
    scratch: ParticleScratch,
}

/// SplitMix64 step (same finalizer the engine's shard router uses).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `(0, 1]` — never exactly 0, so `ln` stays finite.
fn uniform(state: &mut u64) -> f64 {
    ((splitmix64(state) >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// Normalized linear weights from the log weights, written into a
/// reused buffer.
fn weights_into(log_w: &[f64], w: &mut Vec<f64>) {
    let max = log_w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    w.clear();
    w.extend(log_w.iter().map(|&lw| (lw - max).exp()));
    let sum: f64 = w.iter().sum();
    if sum > 0.0 {
        for wi in w.iter_mut() {
            *wi /= sum;
        }
    } else {
        let uniform_w = 1.0 / w.len() as f64;
        w.fill(uniform_w);
    }
}

impl ParticleBackend {
    /// A fresh filter; the cloud initializes lazily at first contact.
    pub fn new(config: ParticleConfig) -> ParticleBackend {
        let config = ParticleConfig {
            particles: config.particles.max(8),
            ..config
        };
        let model = LogDistanceModel::new(config.gamma_dbm, config.exponent.max(0.1));
        ParticleBackend {
            model,
            state: ParticleState {
                xs: Vec::new(),
                ys: Vec::new(),
                log_w: Vec::new(),
                rng: config.seed,
                batches: 0,
                samples: 0,
                resamples: 0,
                current: None,
            },
            scratch: ParticleScratch::default(),
            config,
        }
    }

    /// The configuration the filter runs with.
    pub fn config(&self) -> &ParticleConfig {
        &self.config
    }

    /// One standard-normal draw (Box–Muller; two uniforms per draw so
    /// the stream position is a pure function of draw count).
    fn normal(rng: &mut u64) -> f64 {
        let u1 = uniform(rng);
        let u2 = uniform(rng);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Spawns the cloud: uniform disc of `init_radius_m` around the
    /// observer's position at the first heard sample.
    fn init_cloud(&mut self, center: Vec2) {
        // Cold path: runs once per session (first contact), so its
        // allocations never recur in a warm filter.
        let n = self.config.particles;
        self.state.xs.clear();
        self.state.xs.reserve(n);
        self.state.ys.clear();
        self.state.ys.reserve(n);
        self.state.log_w.clear();
        self.state.log_w.resize(n, 0.0);
        for _ in 0..n {
            let r = self.config.init_radius_m * uniform(&mut self.state.rng).sqrt();
            let theta = std::f64::consts::TAU * uniform(&mut self.state.rng);
            self.state.xs.push(center.x + r * theta.cos());
            self.state.ys.push(center.y + r * theta.sin());
        }
    }

    /// Effective sample size of the normalized weights.
    fn ess(w: &[f64]) -> f64 {
        let sum_sq: f64 = w.iter().map(|&wi| wi * wi).sum();
        if sum_sq > 0.0 {
            1.0 / sum_sq
        } else {
            0.0
        }
    }

    /// Systematic resampling: one uniform offset, `n` evenly spaced
    /// pointers into the cumulative weights. The survivors are built in
    /// the scratch buffers and swapped into the cloud, so a warm filter
    /// resamples without allocating.
    fn resample(&mut self, scratch: &mut ParticleScratch) {
        let ParticleScratch { w, new_xs, new_ys } = scratch;
        let n = w.len();
        let offset = uniform(&mut self.state.rng) / n as f64;
        new_xs.clear();
        new_xs.reserve(n);
        new_ys.clear();
        new_ys.reserve(n);
        let mut cumulative = w[0];
        let mut i = 0usize;
        for k in 0..n {
            let pointer = offset + k as f64 / n as f64;
            while pointer > cumulative && i + 1 < n {
                i += 1;
                cumulative += w[i];
            }
            new_xs.push(self.state.xs[i]);
            new_ys.push(self.state.ys[i]);
        }
        std::mem::swap(&mut self.state.xs, new_xs);
        std::mem::swap(&mut self.state.ys, new_ys);
        self.state.log_w.fill(0.0);
        self.state.resamples += 1;
    }

    /// Observer position at time `t` (origin before the track starts).
    fn observer_at(observer: &MotionTrack, t: f64) -> Vec2 {
        observer.displacement_at(t).unwrap_or(Vec2::ZERO)
    }

    /// Recomputes the posterior-mean estimate from the current cloud,
    /// given the normalized weights of the current `log_w`.
    fn refresh_estimate(&mut self, w: &[f64], batch: &RssBatch, observer: &MotionTrack) {
        let n = w.len();
        let mut mean = Vec2::ZERO;
        for (i, &wi) in w.iter().enumerate() {
            mean.x += wi * self.state.xs[i];
            mean.y += wi * self.state.ys[i];
        }
        // Residual of the last batch at the posterior mean — the same
        // diagnostic the regression backends report.
        let mut sq = 0.0;
        for (&t, &v) in batch.t.iter().zip(&batch.v) {
            let d = mean.distance(Self::observer_at(observer, t));
            let r = v - self.model.rss_at(d);
            sq += r * r;
        }
        let residual_db = (sq / batch.len() as f64).sqrt();
        // Confidence from cloud health: a peaked cloud after many
        // samples is trustworthy, a freshly resampled diffuse one less.
        let confidence = (Self::ess(w) / n as f64).clamp(0.0, 1.0);
        self.state.current = Some(LocationEstimate {
            position: mean,
            mirror: None,
            confidence,
            exponent: self.config.exponent,
            gamma_dbm: self.config.gamma_dbm,
            env: None,
            points_used: self.state.samples as usize,
            method: FitMethod::Particle,
            residual_db,
        });
    }

    /// Feeds one batch: diffuse, re-weight per sample, resample when
    /// the effective sample size halves, refresh the posterior mean.
    pub fn push_batch(
        &mut self,
        batch: &RssBatch,
        observer: &MotionTrack,
    ) -> Option<&LocationEstimate> {
        if batch.is_empty() {
            return self.state.current.as_ref();
        }
        if self.state.xs.is_empty() {
            let center = Self::observer_at(observer, batch.t[0]);
            self.init_cloud(center);
        } else {
            // Predict: stationary beacon + dead-reckoning drift.
            for i in 0..self.state.xs.len() {
                self.state.xs[i] += self.config.drift_m * Self::normal(&mut self.state.rng);
                self.state.ys[i] += self.config.drift_m * Self::normal(&mut self.state.rng);
            }
        }
        let inv_two_sigma_sq = 1.0 / (2.0 * self.config.rss_sigma_db * self.config.rss_sigma_db);
        for (&t, &v) in batch.t.iter().zip(&batch.v) {
            let obs_pos = Self::observer_at(observer, t);
            for i in 0..self.state.xs.len() {
                let d = obs_pos.distance(Vec2::new(self.state.xs[i], self.state.ys[i]));
                let r = v - self.model.rss_at(d);
                self.state.log_w[i] -= r * r * inv_two_sigma_sq;
            }
        }
        self.state.samples += batch.len() as u64;
        self.state.batches += 1;
        let mut scratch = std::mem::take(&mut self.scratch);
        weights_into(&self.state.log_w, &mut scratch.w);
        if Self::ess(&scratch.w) < scratch.w.len() as f64 / 2.0 {
            self.resample(&mut scratch);
            // Resampling zeroed `log_w`; refresh the weights the same
            // way the estimate refresh always has (they come out
            // uniform, matching the pre-scratch recomputation exactly).
            weights_into(&self.state.log_w, &mut scratch.w);
        }
        self.refresh_estimate(&scratch.w, batch, observer);
        self.scratch = scratch;
        self.state.current.as_ref()
    }

    /// The latest estimate.
    pub fn current(&self) -> Option<&LocationEstimate> {
        self.state.current.as_ref()
    }

    /// Systematic resampling passes run so far.
    pub fn resamples(&self) -> u64 {
        self.state.resamples
    }
}

impl crate::backend::Estimator for ParticleBackend {
    fn push_batch(
        &mut self,
        batch: &RssBatch,
        observer: &MotionTrack,
    ) -> Option<&LocationEstimate> {
        ParticleBackend::push_batch(self, batch, observer)
    }

    fn current(&self) -> Option<&LocationEstimate> {
        ParticleBackend::current(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_walk(target: Vec2) -> (Vec<RssBatch>, MotionTrack) {
        crate::backend::tests::l_walk(target)
    }

    #[test]
    fn filter_converges_on_a_clean_l_walk() {
        let target = Vec2::new(4.0, 3.5);
        let (batches, track) = l_walk(target);
        let mut filter = ParticleBackend::new(ParticleConfig::default());
        for b in &batches {
            filter.push_batch(b, &track);
        }
        let est = filter.current().expect("estimate");
        let err = est.position.distance(target);
        assert!(err < 3.0, "particle error {err:.2} m");
        assert_eq!(est.method, FitMethod::Particle);
        assert!(est.confidence > 0.0 && est.confidence <= 1.0);
        assert!(est.residual_db.is_finite());
    }

    #[test]
    fn identical_inputs_are_bit_identical() {
        let target = Vec2::new(4.0, 3.5);
        let (batches, track) = l_walk(target);
        let mut a = ParticleBackend::new(ParticleConfig::default());
        let mut b = ParticleBackend::new(ParticleConfig::default());
        for batch in &batches {
            a.push_batch(batch, &track);
            b.push_batch(batch, &track);
        }
        let (ea, eb) = (a.current().unwrap(), b.current().unwrap());
        assert_eq!(ea.position.x.to_bits(), eb.position.x.to_bits());
        assert_eq!(ea.position.y.to_bits(), eb.position.y.to_bits());
        assert_eq!(a.state, b.state);
    }

    #[test]
    fn resampling_keeps_the_cloud_size() {
        let target = Vec2::new(2.0, 1.0);
        let (batches, track) = l_walk(target);
        let mut filter = ParticleBackend::new(ParticleConfig {
            particles: 64,
            ..ParticleConfig::default()
        });
        for b in &batches {
            filter.push_batch(b, &track);
        }
        let s = &filter.state;
        assert_eq!(s.xs.len(), 64);
        assert_eq!(s.ys.len(), 64);
        assert_eq!(s.log_w.len(), 64);
        assert!(
            s.resamples > 0,
            "a sharp likelihood must trigger resampling"
        );
    }

    #[test]
    fn empty_batches_are_harmless() {
        let (batches, track) = l_walk(Vec2::new(4.0, 3.5));
        let mut filter = ParticleBackend::new(ParticleConfig::default());
        assert!(filter.push_batch(&RssBatch::default(), &track).is_none());
        filter.push_batch(&batches[0], &track);
        let before = filter.current().copied();
        let state_before = filter.state.clone();
        filter.push_batch(&RssBatch::default(), &track);
        assert_eq!(filter.current().copied(), before);
        assert_eq!(filter.state, state_before);
    }
}
