//! `locble-net`: the wire protocol and TCP ingest/query server in
//! front of the tracking engine.
//!
//! The paper's deployment story — and the ROADMAP's north star — is a
//! central service collecting advert streams from many phones. This
//! crate is that service boundary, built on `std` alone (no async
//! runtime, no serialization framework):
//!
//! * [`wire`] — a versioned, length-prefixed binary protocol
//!   ([`Frame`]) with a total encoder/decoder: any byte sequence
//!   decodes to a frame or a typed [`DecodeError`], never a panic.
//!   Floats travel bit-exactly, so served snapshots are bit-identical
//!   to in-process reads.
//! * [`poll`] — a minimal epoll wrapper over raw syscalls
//!   ([`Poller`]): the readiness source for the server's reactor and
//!   for the load generator's multiplexed client driver.
//! * [`conn`] — per-connection state machines: the
//!   [`FrameAssembler`] carries partial frames across readiness
//!   events (any byte-boundary split decodes identically to one
//!   contiguous feed), and a timer wheel drives slow-loris deadlines.
//! * [`server`] — a single-threaded epoll reactor owning an
//!   [`Engine`](locble_engine::Engine): nonblocking connections at 10k
//!   scale, slow-loris timeouts via the timer wheel, typed error
//!   replies for malformed frames, exact per-batch ingest accounting,
//!   cross-connection ingest coalescing (one engine pass per tick
//!   drains every client's queued batches), and an ordered graceful
//!   shutdown that drains every queued shard before returning the
//!   engine. (The original thread-per-connection server this reactor
//!   replaced lives only in git history; the wire semantics are
//!   unchanged and its whole test wall runs against the reactor.)
//!   [`Server::bind_durable`] attaches a `locble-store`
//!   [`SessionStore`](locble_store::SessionStore): every offered batch
//!   is WAL-logged before ingest and snapshots are written on a record
//!   cadence and at shutdown, so a crashed server recovers
//!   bit-identically.
//! * [`client`] — a blocking request/reply client used by the loadgen
//!   binary, the bench harness's `serve` experiment, and the loopback
//!   differential suite.
//!
//! ```no_run
//! use locble_core::{Estimator, EstimatorConfig};
//! use locble_engine::{Advert, Engine, EngineConfig};
//! use locble_net::{Client, Server, ServerConfig};
//! use locble_obs::Obs;
//!
//! let engine = Engine::new(
//!     EngineConfig::default(),
//!     Estimator::new(EstimatorConfig::default()),
//!     Obs::noop(),
//! );
//! let handle = Server::bind(engine, ServerConfig::default(), Obs::noop()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let ack = client
//!     .ingest(&[Advert { beacon: locble_ble::BeaconId(7), t: 0.0, rssi_dbm: -58.0 }])
//!     .unwrap();
//! assert_eq!(ack.routed, 1);
//! client.finish().unwrap();
//! let engine = handle.shutdown(); // drained; nothing acked is lost
//! assert_eq!(engine.stats().samples_routed, 1);
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod conn;
pub mod poll;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError};
pub use conn::{Assembled, FrameAssembler};
pub use poll::{Event, Interest, Poller};
pub use server::{ClusterConfig, ReplicationPolicy, Server, ServerConfig, ServerHandle};
pub use wire::{
    decode_frame, decode_frame_with_limit, encode_frame, frame_size, ClusterSummary, DecodeError,
    ErrorCode, FinishSummary, Frame, IngestSummary, NodeEntry, NodeRole, TracedAck, WireAdvert,
    WireError, WireEstimate, WireMetrics, WirePartitionMap, WireStats, DEFAULT_MAX_FRAME_LEN,
    WIRE_VERSION,
};
