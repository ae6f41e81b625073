//! # locble-store — crash-safe session durability
//!
//! The estimation engine ([`locble_engine::Engine`]) is deterministic:
//! the same advert stream produces bit-identical estimates and
//! counters. This crate extends that guarantee across crashes with two
//! std-only pieces:
//!
//! * **WAL** ([`wal`]): every advert *offered* to the engine, logged in
//!   offer order before ingest, one CRC-guarded length-prefixed record
//!   each. A torn final record (the signature of a crash mid-write) is
//!   detected and tolerated. One streamed record scanner serves every
//!   reader: [`Wal::open`], [`WalTailer`] and recovery.
//! * **Snapshots** ([`snapshot`]): the engine's complete state
//!   ([`locble_engine::EngineState`]) streamed atomically
//!   (tmp + fsync + rename), stamped with the WAL position it covers,
//!   inline or on a writer thread ([`SessionStore`]).
//!
//! Recovery ([`SessionStore::recover`]) loads the snapshot, then streams
//! the WAL once: it skips the records the snapshot covers and replays
//! the tail through the *normal ingest path* in fixed-size chunks, so
//! its memory does not grow with the log's history. It yields an
//! engine bit-identical to one that never crashed — same estimates
//! (compared as IEEE-754 bit patterns), same admit/reject counters.
//!
//! * **Codec** ([`codec`]): the one byte codec of the workspace. WAL
//!   records, the snapshot body and `locble-net`'s wire frames all
//!   encode adverts and location estimates through it: big-endian
//!   integers, `f64::to_bits` for floats, so NaN payloads survive
//!   round-trips exactly.
//!
//! ```
//! use locble_engine::{Advert, Engine, EngineConfig};
//! use locble_store::{FsyncPolicy, SessionStore};
//! use locble_ble::BeaconId;
//! use locble_core::Estimator;
//! use locble_obs::Obs;
//!
//! let dir = std::env::temp_dir().join(format!("locble-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let config = EngineConfig { shards: 2, ..EngineConfig::default() };
//!
//! // Session: log first, then ingest.
//! let mut store = SessionStore::open(&dir, FsyncPolicy::EveryAppend, Obs::noop()).unwrap();
//! let mut engine = Engine::new(config.clone(), Estimator::new(Default::default()), Obs::noop());
//! let batch = [Advert { beacon: BeaconId(7), t: 0.1, rssi_dbm: -63.0 }];
//! store.append(&batch).unwrap();
//! engine.ingest_all(&batch);
//! store.checkpoint(&engine).unwrap();
//! drop((store, engine)); // crash here — or anywhere
//!
//! // Recovery: bit-identical engine, ready to keep appending.
//! let (_store, recovered, report) = SessionStore::recover(
//!     &dir,
//!     FsyncPolicy::EveryAppend,
//!     config,
//!     Estimator::new(Default::default()),
//!     Obs::noop(),
//! )
//! .unwrap();
//! assert!(report.snapshot_found);
//! assert_eq!(recovered.stats().samples_routed, 1);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod codec;
pub mod crc32;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use codec::CodecError;
pub use snapshot::{read_snapshot, write_snapshot, Snapshot, SnapshotError};
pub use store::{RecoverError, RecoveryReport, SessionStore, SNAPSHOT_FILE, WAL_FILE};
pub use wal::{FsyncPolicy, Wal, WalReadReport, WalTailer};
