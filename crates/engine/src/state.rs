//! Persistable engine state — the data the durability layer snapshots.
//!
//! [`EngineState`] is a plain-data mirror of
//! everything that distinguishes a mid-stream [`Engine`](crate::Engine)
//! from a freshly constructed one: the session registry, each live
//! session's streaming-estimator state and partial batch, the per-shard
//! queued adverts, the observer motion track, the stream watermark, and
//! the exact cumulative counters. It deliberately contains **no**
//! estimator (configuration or trained EnvAware model): restore rebuilds
//! sessions around clones of the engine's prototype, exactly like normal
//! session creation, so a snapshot stays small and model weights are
//! never serialized.
//!
//! The contract (enforced by `tests/recovery.rs` in `locble-store`):
//! `Engine::restore(config, prototype, obs, state)` with the same config
//! and prototype, fed the WAL tail through the normal ingest path,
//! continues the stream **bit-identically** to the engine the state was
//! exported from.

use crate::engine::EngineStats;
use crate::router::Advert;
use locble_ble::BeaconId;
use locble_core::{BackendKind, BackendState};
use locble_motion::MotionTrack;
use std::fmt;

/// One live session as the snapshot sees it: the registry bookkeeping
/// plus — once the first sample has reached a worker — the estimator
/// state and the batch under construction.
#[derive(Debug, Clone)]
pub struct SessionState {
    /// The tracked beacon.
    pub beacon: BeaconId,
    /// Shard the registry assigned (must match `shard_of` under the
    /// restore config's shard count; validated by restore).
    pub shard: usize,
    /// Newest routed timestamp, seconds.
    pub last_t: f64,
    /// Timestamp that created the session, seconds.
    pub created_t: f64,
    /// Samples routed for this beacon (registry view).
    pub samples_routed: u64,
    /// Worker-side session state; `None` when every routed sample is
    /// still sitting in the shard queue (the worker has not created the
    /// session yet).
    pub session: Option<BeaconSessionState>,
}

/// Worker-side per-beacon state: the session's estimation backend plus
/// the partial batch that has not closed its 2.2 s window yet.
#[derive(Debug, Clone, PartialEq)]
pub struct BeaconSessionState {
    /// Backend-tagged estimator state (series/cloud, current estimate,
    /// per-backend bookkeeping). Restore refuses a tag that differs
    /// from the restore config's backend.
    pub estimator: BackendState,
    /// Timestamps of the batch under construction.
    pub batch_t: Vec<f64>,
    /// RSSI values parallel to `batch_t`.
    pub batch_v: Vec<f64>,
    /// Window-open timestamp of the batch under construction.
    pub batch_start: f64,
    /// Samples this session has consumed.
    pub samples: u64,
    /// Completed batches pushed into the estimator.
    pub batches: u64,
}

/// Complete persistable engine state. Sessions are in ascending
/// beacon-id order; `queued[s]` is shard `s`'s FIFO content, oldest
/// first.
#[derive(Debug, Clone)]
pub struct EngineState {
    /// Shard count the state was exported under. Restore refuses a
    /// config with a different count — the beacon-id hash and the queue
    /// layout both depend on it.
    pub shards: usize,
    /// Newest finite timestamp routed (`-inf` before any).
    pub watermark: f64,
    /// Exact cumulative counters at export time.
    pub stats: EngineStats,
    /// Observer motion track shared by every session.
    pub motion: MotionTrack,
    /// Live sessions, ascending beacon id.
    pub sessions: Vec<SessionState>,
    /// Routed-but-unprocessed adverts, per shard, FIFO order.
    pub queued: Vec<Vec<Advert>>,
}

impl EngineState {
    /// Total adverts sitting in shard queues.
    pub fn queued_total(&self) -> usize {
        self.queued.iter().map(Vec::len).sum()
    }
}

/// Why [`Engine::restore`](crate::Engine::restore) refused a state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreError {
    /// The restore config's shard count differs from the snapshot's.
    ShardMismatch {
        /// Shard count recorded in the snapshot.
        snapshot: usize,
        /// Shard count of the config passed to restore.
        config: usize,
    },
    /// A snapshot shard queue is deeper than the restore config allows.
    QueueOverflow {
        /// The overflowing shard.
        shard: usize,
        /// Queued adverts in the snapshot.
        depth: usize,
        /// The restore config's per-shard capacity.
        capacity: usize,
    },
    /// The snapshot holds more live sessions than the restore config's
    /// `max_sessions`.
    SessionOverflow {
        /// Sessions in the snapshot.
        sessions: usize,
        /// The restore config's capacity.
        max_sessions: usize,
    },
    /// A session snapshot is tagged with a different estimation backend
    /// than the restore config selects — restoring it would silently
    /// misread state, so it is refused instead.
    BackendMismatch {
        /// The backend the restore config selects.
        expected: BackendKind,
        /// The backend the snapshot was exported from.
        found: BackendKind,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::ShardMismatch { snapshot, config } => write!(
                f,
                "snapshot was taken with {snapshot} shards but the restore config has {config}"
            ),
            RestoreError::QueueOverflow {
                shard,
                depth,
                capacity,
            } => write!(
                f,
                "snapshot shard {shard} queues {depth} adverts but the restore config caps at {capacity}"
            ),
            RestoreError::SessionOverflow {
                sessions,
                max_sessions,
            } => write!(
                f,
                "snapshot holds {sessions} sessions but the restore config caps at {max_sessions}"
            ),
            RestoreError::BackendMismatch { expected, found } => write!(
                f,
                "snapshot session was exported from the {found} backend but the restore config selects {expected}"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}
