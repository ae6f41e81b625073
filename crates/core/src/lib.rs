//! LocBLE core — the primary contribution of *Locating and Tracking BLE
//! Beacons with Smartphones* (CoNEXT '17).
//!
//! The library estimates the 2-D relative location of a BLE beacon from
//! nothing but RSSI readings and the observer's reconstructed motion,
//! through the paper's three-layer architecture (Fig. 3):
//!
//! * **Data preprocessing** (§4) — [`envaware`] recognizes the
//!   propagation environment (LOS / p-LOS / NLOS) directly from RSS
//!   statistics with a linear SVM and flags environment changes;
//!   [`anf`] is the adaptive noise filter (6th-order Butterworth fused
//!   with an adaptive Kalman filter).
//! * **Location estimation** (§5) — [`regression`] inverts the
//!   log-distance path-loss model into a circular/elliptical least-squares
//!   problem over fused (RSS, displacement) samples; [`exponent`]
//!   searches the path-loss exponent `n(e)` numerically (paper Eq. 5);
//!   [`confidence`] scores each estimate from the residual distribution;
//!   [`estimator`] runs Algorithm 1 end to end, including the L-shaped
//!   movement's symmetry disambiguation (§5.1).
//! * **Calibration** (§6) — [`cluster`] groups co-located beacons with
//!   the fixed-window DTW voting algorithm (lower-bound pre-filter +
//!   majority vote) and [`cluster::calibrate`] refines the target estimate
//!   with confidence-weighted averaging (Algorithm 2).
//!
//! [`baseline`] implements the Dartle-style ranging comparison used in
//! the paper's Fig. 11a, and [`navigation`] the dead-reckoning guidance
//! of the app's navigation mode (§7.3). Two of the paper's §9 future-work
//! items are implemented as well: [`proximity`] (last-meter refinement
//! that pulls close-range fixes under a metre) and [`mirror`]
//! (straight-walk measurements whose symmetry ambiguity is resolved
//! during navigation from the RSS trend).

#![warn(missing_docs)]

pub mod anf;
pub mod backend;
pub mod baseline;
pub mod cluster;
pub mod confidence;
pub mod envaware;
pub mod estimator;
pub mod exponent;
pub mod fingerprint;
pub mod mirror;
pub mod navigation;
pub mod particle;
pub mod proximity;
pub mod regression;
pub mod regression3d;
pub mod streaming;

pub use anf::AdaptiveNoiseFilter;
// The `Estimator` *trait* is deliberately not re-exported at the root:
// `locble_core::Estimator` stays the batch estimator struct below, and
// backend-generic code names the trait `backend::Estimator` explicitly.
pub use backend::{BackendKind, BackendMismatch, BackendSpec, BackendState};
pub use baseline::{DartleRanger, ProximityZone};
pub use cluster::{calibrate, ClusterConfig, ClusterVote, DtwMatcher};
pub use confidence::estimation_confidence;
pub use envaware::{EnvAware, EnvAwareConfig, EnvChangeDetector};
pub use estimator::{Estimator, EstimatorConfig, FitMethod, LocationEstimate};
pub use exponent::{
    search_candidates, search_circular, search_exponent, search_exponent_with, search_leg,
    search_scored, sweep_anchored, Candidate, ExponentSearch,
};
pub use fingerprint::{FingerprintBackend, FingerprintConfig, FingerprintState};
pub use mirror::MirrorResolver;
pub use navigation::{NavInstruction, Navigator};
pub use particle::{ParticleBackend, ParticleConfig, ParticleState};
pub use proximity::{LastMeterRefiner, ProximityConfig, ProximityObservation};
pub use regression::{CircularFit, FitSolver, LegFit, LegSolver, RhoTable, RssPoint};
pub use regression3d::{Fit3d, RssPoint3, Vec3};
pub use streaming::{BatchError, RssBatch, StreamingEstimator, StreamingState};
