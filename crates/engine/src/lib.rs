//! `locble-engine`: the concurrent multi-beacon tracking engine.
//!
//! The paper's pipeline (§5) localizes one beacon from one walk. Real
//! deployments hear *fleets*: a single phone walking a store aisle
//! receives interleaved advertisements from dozens of tags at once.
//! This crate scales the per-beacon [`StreamingEstimator`] to that
//! setting without giving up reproducibility:
//!
//! * [`router`] — beacon-id-hash sharding (SplitMix64) and per-shard
//!   FIFO queues with backpressure. A beacon's samples always land on
//!   one shard, in arrival order.
//! * [`registry`] — the single-threaded control plane deciding session
//!   creation, capacity limits, and idle eviction.
//! * [`engine`] — the [`Engine`] itself: batch ingestion, whole shards
//!   drained by the calling thread plus a persistent, zero-dependency
//!   pool of parked helper threads (spawned on first need, joined on
//!   drop), and a [`Engine::snapshot`] of every live estimate.
//!
//! The headline property is **differential determinism**: engine output
//! is bit-identical to running each beacon's stream through a
//! standalone estimator sequentially, for any worker-thread count (the
//! test suite checks 1, 2, and 8) and any slicing of the ingest calls.
//!
//! ```
//! use locble_engine::{Advert, Engine, EngineConfig};
//! use locble_ble::BeaconId;
//! use locble_core::{Estimator, EstimatorConfig};
//! use locble_obs::Obs;
//!
//! let estimator = Estimator::new(EstimatorConfig::default());
//! let mut engine = Engine::new(EngineConfig::default(), estimator, Obs::noop());
//! engine.ingest_all(&[
//!     Advert { beacon: BeaconId(7), t: 0.0, rssi_dbm: -58.0 },
//!     Advert { beacon: BeaconId(9), t: 0.1, rssi_dbm: -71.0 },
//! ]);
//! engine.finish();
//! assert_eq!(engine.beacons(), vec![BeaconId(7), BeaconId(9)]);
//! ```

#![warn(missing_docs)]

pub mod engine;
mod pool;
pub mod registry;
pub mod router;
pub mod state;

pub use engine::{Engine, EngineConfig, EngineStats, IngestReport, ProcessReport, SessionStats};
pub use registry::{AdmitError, Admitted, SessionMeta, SessionRegistry};
pub use router::{shard_of, Advert, Backpressure, ShardQueues};
pub use state::{BeaconSessionState, EngineState, RestoreError, SessionState};

#[doc(no_inline)]
pub use locble_core::StreamingEstimator;
