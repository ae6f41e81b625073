//! The versioned, length-prefixed binary wire protocol.
//!
//! Every frame on the wire is:
//!
//! ```text
//! offset  size  field
//! 0       4     payload length N (u32, big-endian) — bytes after this header
//! 4       1     protocol version ([`WIRE_VERSION`])
//! 5       1     frame tag
//! 6       N-2   frame body (tag-specific)
//! ```
//!
//! Bodies are written and read through [`locble_store::codec`], the
//! byte codec the WAL and the snapshots use too: integers big-endian,
//! `f64`s as their IEEE-754 bit pattern in a big-endian `u64`, so
//! estimates survive the wire **bit-exactly** (the loopback
//! differential suite depends on this), and variable-length sequences
//! with a `u32` element count checked against the remaining body before
//! any allocation. An advert is the codec's advert layout; an estimate
//! is its beacon id (`u32`) followed by the codec's estimate layout.
//! This module owns only what belongs to frames: the header, tags,
//! strings, trace records, partition maps and histograms.
//!
//! The decoder is total: for *any* byte slice it returns a frame or a
//! typed [`DecodeError`] — it never panics and never allocates
//! proportionally to untrusted length fields. Truncated input is the
//! non-fatal [`DecodeError::Incomplete`]; a length prefix above the
//! limit is [`DecodeError::Oversized`] (unrecoverable — framing is
//! lost); bad version / tag / body errors are recoverable because the
//! length prefix still delimits the frame.
//!
//! **Versioning rule:** [`WIRE_VERSION`] bumps on any change to the
//! header or to an existing body layout. New frame tags may be added
//! without a bump — old decoders reject them as
//! [`DecodeError::BadTag`], which servers answer with a typed
//! [`ErrorCode::BadFrame`] reply rather than a disconnect.
//!
//! Version 2 added the cluster frames (tags 18–30) *and*
//! extended an existing body's value range — stage laps may now carry
//! the `Forward`/`Replicate` discriminants, which a v1 decoder would
//! reject as malformed — hence the bump rather than tags alone. The
//! decoder accepts exactly [`WIRE_VERSION`]: every other version byte
//! is a recoverable [`DecodeError::BadVersion`]. A retired tag (12 and
//! 13, the old `TracedAdvertBatch` and `TracedIngestAck`, whose job
//! [`Frame::Forward`] does; 18, the old `Join` request; 27–30, the old
//! rebalance frames `Handoff`, `HandoffAck`, `ExportState` and
//! `StateExport`) is never reused: it decodes as `BadTag`.

use locble_ble::BeaconId;
use locble_core::{FitMethod, LocationEstimate};
use locble_engine::{Advert, EngineStats, IngestReport};
use locble_geom::{EnvClass, Vec2};
use locble_obs::{HistogramSnapshot, MetricsSnapshot, Stage, StageLap, TraceCtx, TraceRecord};
use locble_store::codec::{
    self, put_f64, put_u16, put_u32, put_u64, CodecError, Reader, ADVERT_LEN, ESTIMATE_MIN_LEN,
};

/// Current protocol version byte.
pub const WIRE_VERSION: u8 = 2;

/// Bytes of the fixed header (length prefix).
pub const HEADER_LEN: usize = 4;

/// Minimum payload: version + tag.
pub const MIN_PAYLOAD_LEN: usize = 2;

/// Default cap on the payload length a decoder will accept.
pub const DEFAULT_MAX_FRAME_LEN: usize = 1 << 20;

/// One advertisement sample as it travels the wire.
#[derive(Debug, Clone, Copy)]
pub struct WireAdvert {
    /// Advertising beacon id.
    pub beacon: u32,
    /// Capture timestamp, seconds.
    pub t: f64,
    /// Received signal strength, dBm.
    pub rssi_dbm: f64,
}

impl PartialEq for WireAdvert {
    fn eq(&self, other: &WireAdvert) -> bool {
        self.beacon == other.beacon
            && self.t.to_bits() == other.t.to_bits()
            && self.rssi_dbm.to_bits() == other.rssi_dbm.to_bits()
    }
}

impl Eq for WireAdvert {}

impl From<Advert> for WireAdvert {
    fn from(a: Advert) -> WireAdvert {
        WireAdvert {
            beacon: a.beacon.0,
            t: a.t,
            rssi_dbm: a.rssi_dbm,
        }
    }
}

impl From<WireAdvert> for Advert {
    fn from(a: WireAdvert) -> Advert {
        Advert {
            beacon: BeaconId(a.beacon),
            t: a.t,
            rssi_dbm: a.rssi_dbm,
        }
    }
}

/// One beacon's location estimate as it travels the wire. Field-for-
/// field image of [`LocationEstimate`]; floats are compared and
/// transported by bit pattern so a snapshot served over loopback is
/// indistinguishable from one read in-process.
#[derive(Debug, Clone, Copy)]
pub struct WireEstimate {
    /// Beacon the estimate belongs to.
    pub beacon: u32,
    /// Estimated x, metres (observer-local frame).
    pub x: f64,
    /// Estimated y, metres.
    pub y: f64,
    /// Unresolved mirror candidate, if the walk was collinear.
    pub mirror: Option<(f64, f64)>,
    /// Estimation confidence in `[0, 1]`.
    pub confidence: f64,
    /// Fitted path-loss exponent.
    pub exponent: f64,
    /// Fitted reference power, dBm.
    pub gamma_dbm: f64,
    /// Environment regime, when EnvAware ran.
    pub env: Option<EnvClass>,
    /// Samples fused in the final regression.
    pub points_used: u64,
    /// Regression rung that produced the estimate.
    pub method: FitMethod,
    /// RMS residual of the final fit, dB.
    pub residual_db: f64,
}

impl PartialEq for WireEstimate {
    fn eq(&self, other: &WireEstimate) -> bool {
        let floats = |e: &WireEstimate| {
            [
                e.x.to_bits(),
                e.y.to_bits(),
                e.confidence.to_bits(),
                e.exponent.to_bits(),
                e.gamma_dbm.to_bits(),
                e.residual_db.to_bits(),
            ]
        };
        self.beacon == other.beacon
            && floats(self) == floats(other)
            && self.mirror.map(|(x, y)| (x.to_bits(), y.to_bits()))
                == other.mirror.map(|(x, y)| (x.to_bits(), y.to_bits()))
            && self.env == other.env
            && self.points_used == other.points_used
            && self.method == other.method
    }
}

impl Eq for WireEstimate {}

impl WireEstimate {
    /// Packs one engine estimate for the wire.
    pub fn from_estimate(beacon: BeaconId, est: &LocationEstimate) -> WireEstimate {
        WireEstimate {
            beacon: beacon.0,
            x: est.position.x,
            y: est.position.y,
            mirror: est.mirror.map(|m| (m.x, m.y)),
            confidence: est.confidence,
            exponent: est.exponent,
            gamma_dbm: est.gamma_dbm,
            env: est.env,
            points_used: est.points_used as u64,
            method: est.method,
            residual_db: est.residual_db,
        }
    }

    /// Unpacks back into the engine's estimate type.
    pub fn to_estimate(&self) -> (BeaconId, LocationEstimate) {
        (
            BeaconId(self.beacon),
            LocationEstimate {
                position: Vec2::new(self.x, self.y),
                mirror: self.mirror.map(|(x, y)| Vec2::new(x, y)),
                confidence: self.confidence,
                exponent: self.exponent,
                gamma_dbm: self.gamma_dbm,
                env: self.env,
                points_used: self.points_used as usize,
                method: self.method,
                residual_db: self.residual_db,
            },
        )
    }
}

/// Exact accounting for one [`Frame::AdvertBatch`]: the server's
/// [`IngestReport`], widened to `u64` for the wire. Rejections are the
/// typed image of the engine's `AdmitError`s — a capacity-full or
/// out-of-order advert shows up here per-cause instead of killing the
/// connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestSummary {
    /// Adverts taken from the batch (always the whole batch: the server
    /// drains backpressure internally).
    pub consumed: u64,
    /// Adverts routed into shard queues.
    pub routed: u64,
    /// Sessions created by first-contact adverts.
    pub sessions_created: u64,
    /// Dropped: NaN/infinite timestamp or RSSI.
    pub rejected_non_finite: u64,
    /// Dropped: violated per-beacon time order.
    pub rejected_out_of_order: u64,
    /// Dropped: session table at capacity.
    pub rejected_capacity: u64,
}

impl IngestSummary {
    /// Total dropped adverts.
    pub fn rejected(&self) -> u64 {
        self.rejected_non_finite + self.rejected_out_of_order + self.rejected_capacity
    }

    /// Folds another summary (e.g. per-batch acks) into this one.
    pub fn absorb(&mut self, other: IngestSummary) {
        self.consumed += other.consumed;
        self.routed += other.routed;
        self.sessions_created += other.sessions_created;
        self.rejected_non_finite += other.rejected_non_finite;
        self.rejected_out_of_order += other.rejected_out_of_order;
        self.rejected_capacity += other.rejected_capacity;
    }
}

impl From<IngestReport> for IngestSummary {
    fn from(r: IngestReport) -> IngestSummary {
        IngestSummary {
            consumed: r.consumed as u64,
            routed: r.routed as u64,
            sessions_created: r.sessions_created as u64,
            rejected_non_finite: r.rejected_non_finite as u64,
            rejected_out_of_order: r.rejected_out_of_order as u64,
            rejected_capacity: r.rejected_capacity as u64,
        }
    }
}

/// What a [`Frame::Finish`] did: the terminal drain + flush accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FinishSummary {
    /// Samples drained from shard queues by the finish.
    pub samples_processed: u64,
    /// Batches (including partial trailing ones) pushed into sessions.
    pub batches_pushed: u64,
}

/// Engine statistics as served over the wire ([`EngineStats`] plus the
/// live queue depth).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Adverts routed to shards since engine construction.
    pub samples_routed: u64,
    /// Adverts rejected at the ingest boundary.
    pub samples_rejected: u64,
    /// Samples consumed by sessions.
    pub samples_processed: u64,
    /// Sessions ever created.
    pub sessions_created: u64,
    /// Sessions evicted for idleness.
    pub sessions_evicted: u64,
    /// Currently live sessions.
    pub sessions_live: u64,
    /// Completed batches pushed into sessions.
    pub batches_pushed: u64,
    /// Batches refused by the validation boundary.
    pub batches_rejected: u64,
    /// `Engine::process` calls.
    pub processes: u64,
    /// Samples sitting in shard queues right now.
    pub queued: u64,
}

impl WireStats {
    /// Packs engine statistics plus the current queue depth.
    pub fn from_engine(stats: EngineStats, queued: usize) -> WireStats {
        WireStats {
            samples_routed: stats.samples_routed,
            samples_rejected: stats.samples_rejected,
            samples_processed: stats.samples_processed,
            sessions_created: stats.sessions_created,
            sessions_evicted: stats.sessions_evicted,
            sessions_live: stats.sessions_live as u64,
            batches_pushed: stats.batches_pushed,
            batches_rejected: stats.batches_rejected,
            processes: stats.processes,
            queued: queued as u64,
        }
    }
}

/// A whole metrics registry as served over the wire: the flattened
/// image of [`MetricsSnapshot`], name-sorted. Floats travel by bit
/// pattern, so a scraped histogram is indistinguishable from the
/// server-side snapshot.
#[derive(Debug, Clone, Default)]
pub struct WireMetrics {
    /// Monotonic counters, by name.
    pub counters: Vec<(String, u64)>,
    /// Latest gauge values, by name.
    pub gauges: Vec<(String, f64)>,
    /// Histograms, by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl PartialEq for WireMetrics {
    fn eq(&self, other: &WireMetrics) -> bool {
        // Bit-level float equality, like every wire type: a NaN gauge
        // must still round-trip as "equal to itself".
        fn hist_bits(h: &HistogramSnapshot) -> (Vec<u64>, &[u64], u64, u64, u64, u64) {
            (
                h.bounds.iter().map(|b| b.to_bits()).collect(),
                &h.counts,
                h.sum.to_bits(),
                h.count,
                h.min.to_bits(),
                h.max.to_bits(),
            )
        }
        self.counters == other.counters
            && self.gauges.len() == other.gauges.len()
            && self
                .gauges
                .iter()
                .zip(&other.gauges)
                .all(|((an, av), (bn, bv))| an == bn && av.to_bits() == bv.to_bits())
            && self.histograms.len() == other.histograms.len()
            && self
                .histograms
                .iter()
                .zip(&other.histograms)
                .all(|((an, av), (bn, bv))| an == bn && hist_bits(av) == hist_bits(bv))
    }
}

impl Eq for WireMetrics {}

impl WireMetrics {
    /// Flattens a snapshot for the wire (already name-sorted: the
    /// snapshot's maps are BTree-ordered).
    pub fn from_snapshot(snap: &MetricsSnapshot) -> WireMetrics {
        WireMetrics {
            counters: snap.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: snap.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: snap
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.clone()))
                .collect(),
        }
    }

    /// Rebuilds the map-shaped snapshot client-side.
    pub fn to_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().cloned().collect(),
            gauges: self.gauges.iter().cloned().collect(),
            histograms: self.histograms.iter().cloned().collect(),
        }
    }
}

/// One cluster member: its stable id plus the address peers dial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeEntry {
    /// Stable node id (feeds the rendezvous hash, so it must not change
    /// across restarts of the same logical node).
    pub node_id: u64,
    /// `host:port` the node listens on.
    pub addr: String,
}

/// What a cluster process does with the frames it receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum NodeRole {
    /// Accepts client batches and forwards them to owning nodes.
    Front = 1,
    /// Owns a beacon partition: ingests, persists, replicates.
    Owner = 2,
    /// Tails an owner's WAL stream, ready to promote.
    Follower = 3,
}

impl NodeRole {
    fn from_u8(v: u8) -> Option<NodeRole> {
        Some(match v {
            1 => NodeRole::Front,
            2 => NodeRole::Owner,
            3 => NodeRole::Follower,
            _ => return None,
        })
    }

    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            NodeRole::Front => "front",
            NodeRole::Owner => "owner",
            NodeRole::Follower => "follower",
        }
    }
}

/// An epoch-stamped membership view: the owner set the rendezvous hash
/// partitions beacons over. Epochs are totally ordered; a node installs
/// a map only if its epoch exceeds the one it holds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WirePartitionMap {
    /// Monotonic membership epoch.
    pub epoch: u64,
    /// Owner nodes, any order (the rendezvous hash is order-free).
    pub nodes: Vec<NodeEntry>,
}

/// A node's answer to [`Frame::ClusterQuery`]: identity, membership
/// view, and the cluster-path counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSummary {
    /// The answering node's id.
    pub node_id: u64,
    /// Its current role.
    pub role: NodeRole,
    /// The membership view it holds.
    pub map: WirePartitionMap,
    /// Live sessions it owns (0 on a front).
    pub owned_sessions: u64,
    /// Batches it forwarded to owners (front only).
    pub forwarded_batches: u64,
    /// Adverts it forwarded to owners (front only).
    pub forwarded_adverts: u64,
    /// WAL records it streamed to its follower (owner) or absorbed from
    /// its owner (follower).
    pub replicated_records: u64,
}

/// Why the server sent a [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame failed to decode (bad tag or malformed body) or was a
    /// reply tag sent as a request. The connection stays usable.
    BadFrame = 1,
    /// The frame's protocol version is not [`WIRE_VERSION`].
    UnsupportedVersion = 2,
    /// Shard-queue backpressure that interleaved draining could not
    /// clear (defensive; the drain loop normally absorbs it).
    Backpressure = 3,
    /// The engine's session table is full and the whole batch was
    /// refused (per-advert capacity rejects travel in the ack instead).
    Capacity = 4,
    /// The server is shutting down and no longer accepts ingest.
    ShuttingDown = 5,
    /// Unexpected server-side failure.
    Internal = 6,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::UnsupportedVersion,
            3 => ErrorCode::Backpressure,
            4 => ErrorCode::Capacity,
            5 => ErrorCode::ShuttingDown,
            6 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A typed error reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable cause.
    pub code: ErrorCode,
    /// Human-readable detail (capped at `u16::MAX` bytes on the wire).
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

/// Every frame of the protocol. Requests flow client→server, replies
/// server→client; each request gets exactly one reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Request: ingest a batch of adverts. Reply: [`Frame::IngestAck`]
    /// (or [`Frame::Error`] when shutting down).
    AdvertBatch(Vec<WireAdvert>),
    /// Reply: exact accounting for one advert batch.
    IngestAck(IngestSummary),
    /// Request: every live estimate. Reply: [`Frame::Snapshot`].
    QuerySnapshot,
    /// Reply: live estimates in ascending beacon-id order.
    Snapshot(Vec<WireEstimate>),
    /// Request: one beacon's estimate. Reply: [`Frame::BeaconReply`].
    QueryBeacon(u32),
    /// Reply: the beacon's estimate, if its session has one.
    BeaconReply(Option<WireEstimate>),
    /// Request: engine statistics. Reply: [`Frame::Stats`].
    QueryStats,
    /// Reply: engine statistics.
    Stats(WireStats),
    /// Request: drain queues, flush partial batches, refit stale
    /// sessions (the engine's end-of-stream `finish`). Reply:
    /// [`Frame::FinishAck`].
    Finish,
    /// Reply: what the finish did.
    FinishAck(FinishSummary),
    /// Reply: a typed error. The connection stays open unless the
    /// transport itself is broken.
    Error(WireError),
    /// Request: the server's metrics registry. Reply:
    /// [`Frame::MetricsReport`].
    MetricsQuery,
    /// Reply: the server's counters, gauges, and histograms.
    MetricsReport(WireMetrics),
    /// Request: retained trace records — all of them (`None`) or one
    /// trace id. Reply: [`Frame::TraceReport`].
    TraceQuery(Option<u64>),
    /// Reply: the matching trace records, oldest first (empty when the
    /// id is unknown or the server records nothing).
    TraceReport(Vec<TraceRecord>),
    /// Reply to [`Frame::PartitionMap`]: the receiver's current
    /// (possibly updated) partition map.
    JoinAck(WirePartitionMap),
    /// Request: install this membership view if its epoch is newer than
    /// the one held. The frame that drives failover (follower promoted
    /// into the owner set) and every other membership change. Reply:
    /// [`Frame::JoinAck`] with the view actually held afterwards.
    PartitionMap(WirePartitionMap),
    /// Request: a batch with a sequence number and a trace context. A
    /// front partitions it across its owners; a node ingests it exactly
    /// as an [`Frame::AdvertBatch`]. `ctx.trace_id == 0` means untraced;
    /// a traced batch's stage laps land in the receiver's trace table
    /// ([`Frame::TraceQuery`]), never in the reply. `seq` is echoed in
    /// the ack so a pipelining sender can match replies. Reply:
    /// [`Frame::ForwardAck`].
    Forward {
        /// Per-connection forward sequence number.
        seq: u64,
        /// The batch's trace context (`trace_id` 0 when untraced).
        ctx: TraceCtx,
        /// The adverts.
        adverts: Vec<WireAdvert>,
    },
    /// Reply: accounting for one forwarded batch, plus how deep the
    /// owner's follower was when the ack was sent (equal to the owner's
    /// durable count under a synchronous policy; 0 with no follower or
    /// from a front).
    ForwardAck {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Exact ingest accounting, as in [`Frame::IngestAck`].
        summary: IngestSummary,
        /// Records the follower had acked durably when this ack left.
        replica_durable: u64,
    },
    /// Request (owner → follower): append these WAL records. `base` is
    /// the owner's durable record count *before* the batch; the
    /// follower refuses a mismatch, which makes gaps and duplicates
    /// loud instead of silently divergent. Reply:
    /// [`Frame::ReplicateAck`].
    Replicate {
        /// Per-link replication sequence number.
        seq: u64,
        /// Owner's durable record count before these records.
        base: u64,
        /// The records, in WAL order.
        adverts: Vec<WireAdvert>,
    },
    /// Reply: the follower's durable record count after the append.
    ReplicateAck {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Follower's durable record count (fsynced per its policy).
        durable: u64,
    },
    /// Request: the node's cluster identity, membership view, and
    /// cluster-path counters. Reply: [`Frame::ClusterReport`].
    ClusterQuery,
    /// Reply: the node's cluster summary.
    ClusterReport(ClusterSummary),
}

impl Frame {
    /// A typed error reply.
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Frame {
        Frame::Error(WireError {
            code,
            message: message.into(),
        })
    }

    /// Whether a peer may send this frame as a request. The reactor
    /// answers any other frame with a typed `BadFrame`.
    pub fn is_request(&self) -> bool {
        matches!(
            self,
            Frame::AdvertBatch(_)
                | Frame::QuerySnapshot
                | Frame::QueryBeacon(_)
                | Frame::QueryStats
                | Frame::Finish
                | Frame::MetricsQuery
                | Frame::TraceQuery(_)
                | Frame::PartitionMap(_)
                | Frame::Forward { .. }
                | Frame::Replicate { .. }
                | Frame::ClusterQuery
        )
    }
}

const TAG_ADVERT_BATCH: u8 = 1;
const TAG_INGEST_ACK: u8 = 2;
const TAG_QUERY_SNAPSHOT: u8 = 3;
const TAG_SNAPSHOT: u8 = 4;
const TAG_QUERY_BEACON: u8 = 5;
const TAG_BEACON_REPLY: u8 = 6;
const TAG_QUERY_STATS: u8 = 7;
const TAG_STATS: u8 = 8;
const TAG_FINISH: u8 = 9;
const TAG_FINISH_ACK: u8 = 10;
const TAG_ERROR: u8 = 11;
// Tags 12 and 13 were the retired traced batch and its ack
// (`TracedAdvertBatch`, `TracedIngestAck`); never reuse them.
const TAG_METRICS_QUERY: u8 = 14;
const TAG_METRICS_REPORT: u8 = 15;
const TAG_TRACE_QUERY: u8 = 16;
const TAG_TRACE_REPORT: u8 = 17;
// Tag 18 was the retired `Join` request; never reuse it.
const TAG_JOIN_ACK: u8 = 19;
const TAG_PARTITION_MAP: u8 = 20;
const TAG_FORWARD: u8 = 21;
const TAG_FORWARD_ACK: u8 = 22;
const TAG_REPLICATE: u8 = 23;
const TAG_REPLICATE_ACK: u8 = 24;
const TAG_CLUSTER_QUERY: u8 = 25;
const TAG_CLUSTER_REPORT: u8 = 26;
// Tags 27–30 were the retired rebalance frames (`Handoff`, `HandoffAck`,
// `ExportState`, `StateExport`); never reuse them.

/// Encoded stage lap (stage byte + start + duration).
const LAP_WIRE_LEN: usize = 1 + 8 + 8;

/// Smallest possible encoded trace record (id + path + empty lap list).
const TRACE_RECORD_MIN_WIRE_LEN: usize = 8 + 2 + 2;

/// Smallest named counter/gauge entry (empty name + value).
const METRIC_ENTRY_MIN_WIRE_LEN: usize = 2 + 8;

/// Smallest encoded node entry (node id + empty address).
const NODE_ENTRY_MIN_WIRE_LEN: usize = 8 + 2;

/// Smallest encoded histogram (empty name, no buckets, 4 summary
/// fields).
const HISTOGRAM_MIN_WIRE_LEN: usize = 2 + 4 + 4 + 8 + 8 + 8 + 8;

/// Why a byte slice did not decode to a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The slice ends before the frame does; `needed` more bytes would
    /// allow progress. Non-fatal: buffer more input and retry.
    Incomplete {
        /// Additional bytes required for the next decode step.
        needed: usize,
    },
    /// The length prefix exceeds the configured cap. Fatal for a
    /// stream: the frame cannot be buffered, so framing is lost.
    Oversized {
        /// Declared payload length.
        len: usize,
        /// The decoder's cap.
        max: usize,
    },
    /// The version byte is not [`WIRE_VERSION`]. Recoverable: the
    /// length prefix still delimits the frame.
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// Unknown frame tag. Recoverable.
    BadTag {
        /// The tag byte received.
        got: u8,
    },
    /// The body contradicts its own layout (bad counts, bad enum
    /// discriminants, trailing bytes, invalid UTF-8). Recoverable.
    Malformed {
        /// What the decoder was parsing when it gave up.
        context: &'static str,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Incomplete { needed } => {
                write!(f, "incomplete frame: {needed} more bytes needed")
            }
            DecodeError::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max} byte cap")
            }
            DecodeError::BadVersion { got } => {
                write!(
                    f,
                    "unsupported protocol version {got} (want {WIRE_VERSION})"
                )
            }
            DecodeError::BadTag { got } => write!(f, "unknown frame tag {got}"),
            DecodeError::Malformed { context } => write!(f, "malformed frame body: {context}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl DecodeError {
    /// `true` when the error still leaves the stream delimited (the
    /// length prefix was trusted), so a server can skip the frame,
    /// answer with [`ErrorCode::BadFrame`], and keep the connection.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            DecodeError::BadVersion { .. }
                | DecodeError::BadTag { .. }
                | DecodeError::Malformed { .. }
        )
    }
}

impl From<CodecError> for DecodeError {
    /// Inside a complete frame a short body is corruption, not
    /// truncation: every body error is `Malformed`.
    #[inline]
    fn from(e: CodecError) -> DecodeError {
        match e {
            CodecError::Truncated { context } | CodecError::Malformed { context } => {
                DecodeError::Malformed { context }
            }
        }
    }
}

fn put_adverts(out: &mut Vec<u8>, adverts: &[WireAdvert]) {
    put_u32(out, adverts.len() as u32);
    for &a in adverts {
        codec::put_advert(out, &Advert::from(a));
    }
}

/// A wire estimate: its beacon id, then the shared estimate layout.
fn put_wire_estimate(out: &mut Vec<u8>, e: &WireEstimate) {
    let (beacon, est) = e.to_estimate();
    put_u32(out, beacon.0);
    codec::put_estimate(out, &est);
}

fn put_summary(out: &mut Vec<u8>, s: &IngestSummary) {
    for v in [
        s.consumed,
        s.routed,
        s.sessions_created,
        s.rejected_non_finite,
        s.rejected_out_of_order,
        s.rejected_capacity,
    ] {
        put_u64(out, v);
    }
}

/// Short string (metric names, &c): u16 length prefix + UTF-8 bytes,
/// truncated on a char boundary past 64 KiB.
fn put_string(out: &mut Vec<u8>, s: &str) {
    let bytes = utf8_prefix(s, u16::MAX as usize);
    put_u16(out, bytes.len() as u16);
    out.extend_from_slice(bytes);
}

fn put_lap(out: &mut Vec<u8>, lap: &StageLap) {
    out.push(lap.stage as u8);
    put_u64(out, lap.start_us);
    put_u64(out, lap.duration_us);
}

fn put_trace_record(out: &mut Vec<u8>, rec: &TraceRecord) {
    put_u64(out, rec.ctx.trace_id);
    put_u16(out, rec.ctx.path);
    put_u16(out, rec.laps.len() as u16);
    for lap in &rec.laps {
        put_lap(out, lap);
    }
}

fn put_node_entry(out: &mut Vec<u8>, e: &NodeEntry) {
    put_u64(out, e.node_id);
    put_string(out, &e.addr);
}

fn put_partition_map(out: &mut Vec<u8>, map: &WirePartitionMap) {
    put_u64(out, map.epoch);
    put_u32(out, map.nodes.len() as u32);
    for e in &map.nodes {
        put_node_entry(out, e);
    }
}

fn put_histogram(out: &mut Vec<u8>, name: &str, h: &HistogramSnapshot) {
    put_string(out, name);
    put_u32(out, h.bounds.len() as u32);
    for &b in &h.bounds {
        put_f64(out, b);
    }
    put_u32(out, h.counts.len() as u32);
    for &c in &h.counts {
        put_u64(out, c);
    }
    put_f64(out, h.sum);
    put_u64(out, h.count);
    put_f64(out, h.min);
    put_f64(out, h.max);
}

/// Encodes one frame, header included.
///
/// # Panics
/// Only if the payload would exceed `u32::MAX` bytes (a frame of over
/// 4 GiB), which the [`DEFAULT_MAX_FRAME_LEN`]-bounded protocol never
/// produces.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = vec![0u8; HEADER_LEN];
    out.push(WIRE_VERSION);
    match frame {
        Frame::AdvertBatch(adverts) => {
            out.push(TAG_ADVERT_BATCH);
            put_adverts(&mut out, adverts);
        }
        Frame::IngestAck(s) => {
            out.push(TAG_INGEST_ACK);
            put_summary(&mut out, s);
        }
        Frame::QuerySnapshot => out.push(TAG_QUERY_SNAPSHOT),
        Frame::Snapshot(estimates) => {
            out.push(TAG_SNAPSHOT);
            put_u32(&mut out, estimates.len() as u32);
            for e in estimates {
                put_wire_estimate(&mut out, e);
            }
        }
        Frame::QueryBeacon(beacon) => {
            out.push(TAG_QUERY_BEACON);
            put_u32(&mut out, *beacon);
        }
        Frame::BeaconReply(est) => {
            out.push(TAG_BEACON_REPLY);
            match est {
                Some(e) => {
                    out.push(1);
                    put_wire_estimate(&mut out, e);
                }
                None => out.push(0),
            }
        }
        Frame::QueryStats => out.push(TAG_QUERY_STATS),
        Frame::Stats(s) => {
            out.push(TAG_STATS);
            for v in [
                s.samples_routed,
                s.samples_rejected,
                s.samples_processed,
                s.sessions_created,
                s.sessions_evicted,
                s.sessions_live,
                s.batches_pushed,
                s.batches_rejected,
                s.processes,
                s.queued,
            ] {
                put_u64(&mut out, v);
            }
        }
        Frame::Finish => out.push(TAG_FINISH),
        Frame::FinishAck(s) => {
            out.push(TAG_FINISH_ACK);
            put_u64(&mut out, s.samples_processed);
            put_u64(&mut out, s.batches_pushed);
        }
        Frame::Error(e) => {
            out.push(TAG_ERROR);
            out.push(e.code as u8);
            put_string(&mut out, &e.message);
        }
        Frame::MetricsQuery => out.push(TAG_METRICS_QUERY),
        Frame::MetricsReport(m) => {
            out.push(TAG_METRICS_REPORT);
            put_u32(&mut out, m.counters.len() as u32);
            for (name, v) in &m.counters {
                put_string(&mut out, name);
                put_u64(&mut out, *v);
            }
            put_u32(&mut out, m.gauges.len() as u32);
            for (name, v) in &m.gauges {
                put_string(&mut out, name);
                put_f64(&mut out, *v);
            }
            put_u32(&mut out, m.histograms.len() as u32);
            for (name, h) in &m.histograms {
                put_histogram(&mut out, name, h);
            }
        }
        Frame::TraceQuery(id) => {
            out.push(TAG_TRACE_QUERY);
            match id {
                Some(id) => {
                    out.push(1);
                    put_u64(&mut out, *id);
                }
                None => out.push(0),
            }
        }
        Frame::TraceReport(records) => {
            out.push(TAG_TRACE_REPORT);
            put_u32(&mut out, records.len() as u32);
            for rec in records {
                put_trace_record(&mut out, rec);
            }
        }
        Frame::JoinAck(map) => {
            out.push(TAG_JOIN_ACK);
            put_partition_map(&mut out, map);
        }
        Frame::PartitionMap(map) => {
            out.push(TAG_PARTITION_MAP);
            put_partition_map(&mut out, map);
        }
        Frame::Forward { seq, ctx, adverts } => {
            out.push(TAG_FORWARD);
            put_u64(&mut out, *seq);
            put_u64(&mut out, ctx.trace_id);
            put_u16(&mut out, ctx.path);
            put_adverts(&mut out, adverts);
        }
        Frame::ForwardAck {
            seq,
            summary,
            replica_durable,
        } => {
            out.push(TAG_FORWARD_ACK);
            put_u64(&mut out, *seq);
            put_summary(&mut out, summary);
            put_u64(&mut out, *replica_durable);
        }
        Frame::Replicate { seq, base, adverts } => {
            out.push(TAG_REPLICATE);
            put_u64(&mut out, *seq);
            put_u64(&mut out, *base);
            put_adverts(&mut out, adverts);
        }
        Frame::ReplicateAck { seq, durable } => {
            out.push(TAG_REPLICATE_ACK);
            put_u64(&mut out, *seq);
            put_u64(&mut out, *durable);
        }
        Frame::ClusterQuery => out.push(TAG_CLUSTER_QUERY),
        Frame::ClusterReport(s) => {
            out.push(TAG_CLUSTER_REPORT);
            put_u64(&mut out, s.node_id);
            out.push(s.role as u8);
            put_partition_map(&mut out, &s.map);
            for v in [
                s.owned_sessions,
                s.forwarded_batches,
                s.forwarded_adverts,
                s.replicated_records,
            ] {
                put_u64(&mut out, v);
            }
        }
    }
    let payload = u32::try_from(out.len() - HEADER_LEN).expect("frame payload fits in u32");
    out[..HEADER_LEN].copy_from_slice(&payload.to_be_bytes());
    out
}

/// The longest prefix of `s` that is at most `max` bytes and ends on a
/// char boundary.
fn utf8_prefix(s: &str, max: usize) -> &[u8] {
    if s.len() <= max {
        return s.as_bytes();
    }
    let mut end = max;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    &s.as_bytes()[..end]
}

/// Total size (header + payload) of the frame starting at `buf[0]`,
/// from its length prefix alone. [`DecodeError::Incomplete`] while the
/// prefix itself is short; [`DecodeError::Oversized`] /
/// [`DecodeError::Malformed`] when the declared length cannot be valid.
pub fn frame_size(buf: &[u8], max_len: usize) -> Result<usize, DecodeError> {
    if buf.len() < HEADER_LEN {
        return Err(DecodeError::Incomplete {
            needed: HEADER_LEN - buf.len(),
        });
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len < MIN_PAYLOAD_LEN {
        return Err(DecodeError::Malformed {
            context: "payload length below version+tag minimum",
        });
    }
    if len > max_len {
        return Err(DecodeError::Oversized { len, max: max_len });
    }
    Ok(HEADER_LEN + len)
}

/// Decodes the frame at the front of `buf` with the default length cap.
/// On success returns the frame and the bytes it occupied.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), DecodeError> {
    decode_frame_with_limit(buf, DEFAULT_MAX_FRAME_LEN)
}

/// [`decode_frame`] with an explicit payload-length cap.
pub fn decode_frame_with_limit(buf: &[u8], max_len: usize) -> Result<(Frame, usize), DecodeError> {
    let total = frame_size(buf, max_len)?;
    if buf.len() < total {
        return Err(DecodeError::Incomplete {
            needed: total - buf.len(),
        });
    }
    let version = buf[HEADER_LEN];
    if version != WIRE_VERSION {
        return Err(DecodeError::BadVersion { got: version });
    }
    let tag = buf[HEADER_LEN + 1];
    let r = &mut Reader::new(&buf[HEADER_LEN + MIN_PAYLOAD_LEN..total]);
    let frame = match tag {
        TAG_ADVERT_BATCH => Frame::AdvertBatch(adverts(r, "advert batch count")?),
        TAG_INGEST_ACK => Frame::IngestAck(summary(r)?),
        TAG_QUERY_SNAPSHOT => Frame::QuerySnapshot,
        TAG_SNAPSHOT => {
            let n = r.counted(4 + ESTIMATE_MIN_LEN, "snapshot count")?;
            let mut estimates = Vec::with_capacity(n);
            for _ in 0..n {
                estimates.push(wire_estimate(r)?);
            }
            Frame::Snapshot(estimates)
        }
        TAG_QUERY_BEACON => Frame::QueryBeacon(r.u32("queried beacon")?),
        TAG_BEACON_REPLY => Frame::BeaconReply(if r.flag("beacon reply presence flag")? {
            Some(wire_estimate(r)?)
        } else {
            None
        }),
        TAG_QUERY_STATS => Frame::QueryStats,
        TAG_STATS => Frame::Stats(WireStats {
            samples_routed: r.u64("stats")?,
            samples_rejected: r.u64("stats")?,
            samples_processed: r.u64("stats")?,
            sessions_created: r.u64("stats")?,
            sessions_evicted: r.u64("stats")?,
            sessions_live: r.u64("stats")?,
            batches_pushed: r.u64("stats")?,
            batches_rejected: r.u64("stats")?,
            processes: r.u64("stats")?,
            queued: r.u64("stats")?,
        }),
        TAG_FINISH => Frame::Finish,
        TAG_FINISH_ACK => Frame::FinishAck(FinishSummary {
            samples_processed: r.u64("finish ack")?,
            batches_pushed: r.u64("finish ack")?,
        }),
        TAG_ERROR => {
            let code = ErrorCode::from_u8(r.u8("error code")?).ok_or(DecodeError::Malformed {
                context: "error code",
            })?;
            let message = string(r, "error message")?;
            Frame::Error(WireError { code, message })
        }
        TAG_METRICS_QUERY => Frame::MetricsQuery,
        TAG_METRICS_REPORT => {
            let n = r.counted(METRIC_ENTRY_MIN_WIRE_LEN, "counter count")?;
            let mut counters = Vec::with_capacity(n);
            for _ in 0..n {
                counters.push((string(r, "counter name")?, r.u64("counter value")?));
            }
            let n = r.counted(METRIC_ENTRY_MIN_WIRE_LEN, "gauge count")?;
            let mut gauges = Vec::with_capacity(n);
            for _ in 0..n {
                gauges.push((string(r, "gauge name")?, r.f64("gauge value")?));
            }
            let n = r.counted(HISTOGRAM_MIN_WIRE_LEN, "histogram count")?;
            let mut histograms = Vec::with_capacity(n);
            for _ in 0..n {
                histograms.push(histogram(r)?);
            }
            Frame::MetricsReport(WireMetrics {
                counters,
                gauges,
                histograms,
            })
        }
        TAG_TRACE_QUERY => Frame::TraceQuery(if r.flag("trace query presence flag")? {
            Some(r.u64("trace id")?)
        } else {
            None
        }),
        TAG_TRACE_REPORT => {
            let n = r.counted(TRACE_RECORD_MIN_WIRE_LEN, "trace record count")?;
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                records.push(trace_record(r)?);
            }
            Frame::TraceReport(records)
        }
        TAG_JOIN_ACK => Frame::JoinAck(partition_map(r)?),
        TAG_PARTITION_MAP => Frame::PartitionMap(partition_map(r)?),
        TAG_FORWARD => Frame::Forward {
            seq: r.u64("forward seq")?,
            ctx: trace_ctx(r)?,
            adverts: adverts(r, "forward batch count")?,
        },
        TAG_FORWARD_ACK => Frame::ForwardAck {
            seq: r.u64("forward ack seq")?,
            summary: summary(r)?,
            replica_durable: r.u64("replica durable")?,
        },
        TAG_REPLICATE => Frame::Replicate {
            seq: r.u64("replicate seq")?,
            base: r.u64("replicate base")?,
            adverts: adverts(r, "replicate batch count")?,
        },
        TAG_REPLICATE_ACK => Frame::ReplicateAck {
            seq: r.u64("replicate ack seq")?,
            durable: r.u64("replicate ack durable")?,
        },
        TAG_CLUSTER_QUERY => Frame::ClusterQuery,
        TAG_CLUSTER_REPORT => Frame::ClusterReport(ClusterSummary {
            node_id: r.u64("cluster report")?,
            role: NodeRole::from_u8(r.u8("node role")?).ok_or(DecodeError::Malformed {
                context: "node role discriminant",
            })?,
            map: partition_map(r)?,
            owned_sessions: r.u64("cluster report")?,
            forwarded_batches: r.u64("cluster report")?,
            forwarded_adverts: r.u64("cluster report")?,
            replicated_records: r.u64("cluster report")?,
        }),
        got => return Err(DecodeError::BadTag { got }),
    };
    if r.remaining() != 0 {
        return Err(DecodeError::Malformed {
            context: "trailing bytes in frame body",
        });
    }
    Ok((frame, total))
}

// Frame-body pieces over the shared reader; the `?`s map every codec
// error to `DecodeError::Malformed`.

#[inline]
fn adverts(r: &mut Reader<'_>, context: &'static str) -> Result<Vec<WireAdvert>, DecodeError> {
    let n = r.counted(ADVERT_LEN, context)?;
    let mut adverts = Vec::with_capacity(n);
    for _ in 0..n {
        adverts.push(WireAdvert::from(r.advert()?));
    }
    Ok(adverts)
}

fn wire_estimate(r: &mut Reader<'_>) -> Result<WireEstimate, DecodeError> {
    let beacon = BeaconId(r.u32("estimate beacon")?);
    Ok(WireEstimate::from_estimate(beacon, &r.estimate()?))
}

fn summary(r: &mut Reader<'_>) -> Result<IngestSummary, DecodeError> {
    Ok(IngestSummary {
        consumed: r.u64("ingest summary")?,
        routed: r.u64("ingest summary")?,
        sessions_created: r.u64("ingest summary")?,
        rejected_non_finite: r.u64("ingest summary")?,
        rejected_out_of_order: r.u64("ingest summary")?,
        rejected_capacity: r.u64("ingest summary")?,
    })
}

fn string(r: &mut Reader<'_>, context: &'static str) -> Result<String, DecodeError> {
    let len = r.u16(context)? as usize;
    let bytes = r.take(len, context)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Malformed { context })
}

fn trace_ctx(r: &mut Reader<'_>) -> Result<TraceCtx, DecodeError> {
    Ok(TraceCtx {
        trace_id: r.u64("trace id")?,
        path: r.u16("trace path")?,
    })
}

fn trace_record(r: &mut Reader<'_>) -> Result<TraceRecord, DecodeError> {
    let ctx = trace_ctx(r)?;
    let n = r.u16("trace record lap count")? as usize;
    if n.saturating_mul(LAP_WIRE_LEN) > r.remaining() {
        return Err(DecodeError::Malformed {
            context: "trace record lap count",
        });
    }
    let mut laps = Vec::with_capacity(n);
    for _ in 0..n {
        let stage = Stage::from_u8(r.u8("stage")?).ok_or(DecodeError::Malformed {
            context: "stage discriminant",
        })?;
        laps.push(StageLap {
            stage,
            start_us: r.u64("lap start")?,
            duration_us: r.u64("lap duration")?,
        });
    }
    Ok(TraceRecord { ctx, laps })
}

fn partition_map(r: &mut Reader<'_>) -> Result<WirePartitionMap, DecodeError> {
    let epoch = r.u64("partition map epoch")?;
    let n = r.counted(NODE_ENTRY_MIN_WIRE_LEN, "partition map node count")?;
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        nodes.push(NodeEntry {
            node_id: r.u64("node id")?,
            addr: string(r, "node address")?,
        });
    }
    Ok(WirePartitionMap { epoch, nodes })
}

fn histogram(r: &mut Reader<'_>) -> Result<(String, HistogramSnapshot), DecodeError> {
    let name = string(r, "histogram name")?;
    let n = r.counted(8, "histogram bound count")?;
    let mut bounds = Vec::with_capacity(n);
    for _ in 0..n {
        bounds.push(r.f64("histogram bound")?);
    }
    let n = r.counted(8, "histogram bucket count")?;
    // The +1 overflow-bucket invariant travels implicitly; enforce
    // it so a scraped snapshot is safe to run quantiles over.
    if n != bounds.len() + 1 {
        return Err(DecodeError::Malformed {
            context: "histogram bucket count does not match bounds",
        });
    }
    let mut counts = Vec::with_capacity(n);
    for _ in 0..n {
        counts.push(r.u64("histogram bucket")?);
    }
    Ok((
        name,
        HistogramSnapshot {
            bounds,
            counts,
            sum: r.f64("histogram sum")?,
            count: r.u64("histogram count")?,
            min: r.f64("histogram min")?,
            max: r.f64("histogram max")?,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_estimate() -> WireEstimate {
        WireEstimate {
            beacon: 42,
            x: 1.5,
            y: -2.25,
            mirror: Some((0.5, -0.0)),
            confidence: 0.875,
            exponent: 2.1,
            gamma_dbm: -61.0,
            env: Some(EnvClass::PartialLos),
            points_used: 37,
            method: FitMethod::Anchored,
            residual_db: 3.5,
        }
    }

    #[test]
    fn every_frame_kind_round_trips() {
        let frames = [
            Frame::AdvertBatch(vec![
                WireAdvert {
                    beacon: 1,
                    t: 0.25,
                    rssi_dbm: -60.5,
                },
                WireAdvert {
                    beacon: u32::MAX,
                    t: f64::NAN,
                    rssi_dbm: f64::NEG_INFINITY,
                },
            ]),
            Frame::AdvertBatch(Vec::new()),
            Frame::IngestAck(IngestSummary {
                consumed: 10,
                routed: 7,
                sessions_created: 2,
                rejected_non_finite: 1,
                rejected_out_of_order: 1,
                rejected_capacity: 1,
            }),
            Frame::QuerySnapshot,
            Frame::Snapshot(vec![
                sample_estimate(),
                WireEstimate {
                    mirror: None,
                    env: None,
                    ..sample_estimate()
                },
            ]),
            Frame::QueryBeacon(9),
            Frame::BeaconReply(Some(sample_estimate())),
            Frame::BeaconReply(None),
            Frame::QueryStats,
            Frame::Stats(WireStats {
                samples_routed: 1,
                samples_rejected: 2,
                samples_processed: 3,
                sessions_created: 4,
                sessions_evicted: 5,
                sessions_live: 6,
                batches_pushed: 7,
                batches_rejected: 8,
                processes: 9,
                queued: 10,
            }),
            Frame::Finish,
            Frame::FinishAck(FinishSummary {
                samples_processed: 11,
                batches_pushed: 3,
            }),
            Frame::Error(WireError {
                code: ErrorCode::Capacity,
                message: "table full".to_string(),
            }),
            Frame::MetricsQuery,
            Frame::MetricsReport(WireMetrics {
                counters: vec![("net.frames_rx".to_string(), 12)],
                gauges: vec![("engine.sessions_live".to_string(), 3.0)],
                histograms: vec![(
                    "trace.refit.us".to_string(),
                    HistogramSnapshot {
                        bounds: vec![1.0, 2.0, 4.0],
                        counts: vec![0, 1, 2, 0],
                        sum: 7.5,
                        count: 3,
                        min: 1.5,
                        max: 3.5,
                    },
                )],
            }),
            Frame::MetricsReport(WireMetrics::default()),
            Frame::TraceQuery(None),
            Frame::TraceQuery(Some(0xABCD)),
            Frame::TraceReport(vec![TraceRecord {
                ctx: TraceCtx::mint(4).with_stage(Stage::Refit),
                laps: vec![StageLap {
                    stage: Stage::Refit,
                    start_us: 100,
                    duration_us: 2_000,
                }],
            }]),
            Frame::TraceReport(Vec::new()),
            Frame::JoinAck(WirePartitionMap {
                epoch: 3,
                nodes: vec![
                    NodeEntry {
                        node_id: 1,
                        addr: "127.0.0.1:9001".to_string(),
                    },
                    NodeEntry {
                        node_id: 2,
                        addr: "127.0.0.1:9002".to_string(),
                    },
                ],
            }),
            Frame::PartitionMap(WirePartitionMap {
                epoch: u64::MAX,
                nodes: Vec::new(),
            }),
            Frame::Forward {
                seq: 17,
                ctx: TraceCtx::mint(0x50C1A1).with_stage(Stage::Forward),
                adverts: vec![WireAdvert {
                    beacon: 3,
                    t: f64::INFINITY,
                    rssi_dbm: f64::NAN,
                }],
            },
            Frame::Forward {
                seq: 0,
                ctx: TraceCtx::default(),
                adverts: Vec::new(),
            },
            Frame::ForwardAck {
                seq: 17,
                summary: IngestSummary {
                    consumed: 1,
                    routed: 1,
                    ..IngestSummary::default()
                },
                replica_durable: 1,
            },
            Frame::Replicate {
                seq: 9,
                base: 4096,
                adverts: vec![WireAdvert {
                    beacon: 8,
                    t: -0.0,
                    rssi_dbm: f64::NEG_INFINITY,
                }],
            },
            Frame::ReplicateAck {
                seq: 9,
                durable: 4097,
            },
            Frame::ClusterQuery,
            Frame::ClusterReport(ClusterSummary {
                node_id: 2,
                role: NodeRole::Owner,
                map: WirePartitionMap {
                    epoch: 1,
                    nodes: vec![NodeEntry {
                        node_id: 2,
                        addr: "127.0.0.1:9002".to_string(),
                    }],
                },
                owned_sessions: 40,
                forwarded_batches: 0,
                forwarded_adverts: 0,
                replicated_records: 123_456,
            }),
        ];
        for frame in &frames {
            let bytes = encode_frame(frame);
            let (back, used) = decode_frame(&bytes).expect("round trip");
            assert_eq!(&back, frame);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn bad_stage_discriminant_is_malformed() {
        let frame = Frame::TraceReport(vec![TraceRecord {
            ctx: TraceCtx::mint(1),
            laps: vec![StageLap {
                stage: Stage::Ack,
                start_us: 0,
                duration_us: 1,
            }],
        }]);
        let mut bytes = encode_frame(&frame);
        // The lap's stage byte sits right after: header(4) + version +
        // tag + record count(4) + trace id(8) + path(2) + lap count(2).
        let stage_off = 4 + 1 + 1 + 4 + 8 + 2 + 2;
        bytes[stage_off] = 200;
        assert_eq!(
            decode_frame(&bytes),
            Err(DecodeError::Malformed {
                context: "stage discriminant"
            })
        );
    }

    #[test]
    fn histogram_bucket_bound_mismatch_is_malformed() {
        let frame = Frame::MetricsReport(WireMetrics {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: vec![(
                "h".to_string(),
                HistogramSnapshot {
                    bounds: vec![1.0],
                    // Violates the counts == bounds + 1 invariant.
                    counts: vec![0, 0, 0],
                    sum: 0.0,
                    count: 0,
                    min: 0.0,
                    max: 0.0,
                },
            )],
        });
        let bytes = encode_frame(&frame);
        assert_eq!(
            decode_frame(&bytes),
            Err(DecodeError::Malformed {
                context: "histogram bucket count does not match bounds"
            })
        );
    }

    #[test]
    fn old_decoders_reject_new_tags_without_a_version_bump() {
        // The versioning rule the telemetry frames rely on: a frame
        // with an unknown tag is BadTag (recoverable), not BadVersion.
        // A retired tag (12 and 13, the old traced batch and its ack;
        // 18, the old `Join`; 27–30, the old rebalance frames) is just
        // as unknown.
        let bytes = encode_frame(&Frame::MetricsQuery);
        assert_eq!(bytes[4], WIRE_VERSION);
        for tag in [250, 18, 27, 28, 29, 30, 12, 13] {
            let mut unknown = bytes.clone();
            unknown[5] = tag;
            let err = decode_frame(&unknown).expect_err("unknown tag");
            assert_eq!(err, DecodeError::BadTag { got: tag });
            assert!(err.is_recoverable());
        }
    }

    #[test]
    fn truncated_input_is_incomplete_at_every_prefix() {
        let bytes = encode_frame(&Frame::QueryBeacon(3));
        for end in 0..bytes.len() {
            match decode_frame(&bytes[..end]) {
                Err(DecodeError::Incomplete { needed }) => {
                    assert!(needed > 0);
                    assert!(needed <= bytes.len() - end);
                }
                other => panic!("prefix of {end} bytes gave {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_is_fatal_and_bad_version_is_not() {
        let mut bytes = encode_frame(&Frame::QuerySnapshot);
        bytes[..4].copy_from_slice(&(DEFAULT_MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        let err = decode_frame(&bytes).expect_err("oversized");
        assert!(matches!(err, DecodeError::Oversized { .. }));
        assert!(!err.is_recoverable());

        let mut bytes = encode_frame(&Frame::QuerySnapshot);
        bytes[4] = WIRE_VERSION + 1;
        let err = decode_frame(&bytes).expect_err("bad version");
        assert_eq!(
            err,
            DecodeError::BadVersion {
                got: WIRE_VERSION + 1
            }
        );
        assert!(err.is_recoverable());
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // An advert batch claiming u32::MAX elements in a 10-byte body.
        let mut bytes = vec![0u8; 4];
        bytes.push(WIRE_VERSION);
        bytes.push(TAG_ADVERT_BATCH);
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        bytes.extend_from_slice(&[0u8; 10]);
        let payload = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&payload.to_be_bytes());
        assert_eq!(
            decode_frame(&bytes),
            Err(DecodeError::Malformed {
                context: "advert batch count"
            })
        );
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut bytes = encode_frame(&Frame::Finish);
        bytes.push(0xAB);
        let payload = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&payload.to_be_bytes());
        assert_eq!(
            decode_frame(&bytes),
            Err(DecodeError::Malformed {
                context: "trailing bytes in frame body"
            })
        );
    }

    #[test]
    fn error_message_truncates_on_char_boundary() {
        let long = "é".repeat(40_000); // 2 bytes per char: 80 000 bytes
        let bytes = encode_frame(&Frame::Error(WireError {
            code: ErrorCode::Internal,
            message: long,
        }));
        let (frame, _) = decode_frame(&bytes).expect("decodes");
        match frame {
            Frame::Error(e) => {
                assert!(e.message.len() <= u16::MAX as usize);
                assert!(e.message.chars().all(|c| c == 'é'));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// One frame of each kind, as the wire bytes pin it.
    fn pinned_frames() -> Vec<Frame> {
        let advert = WireAdvert {
            beacon: 7,
            t: 0.5,
            rssi_dbm: -61.25,
        };
        let summary = IngestSummary {
            consumed: 3,
            routed: 2,
            sessions_created: 1,
            rejected_non_finite: 0,
            rejected_out_of_order: 1,
            rejected_capacity: 0,
        };
        let map = WirePartitionMap {
            epoch: 5,
            nodes: vec![NodeEntry {
                node_id: 9,
                addr: "n9".to_string(),
            }],
        };
        vec![
            Frame::AdvertBatch(vec![advert]),
            Frame::IngestAck(summary),
            Frame::QuerySnapshot,
            Frame::Snapshot(vec![
                sample_estimate(),
                WireEstimate {
                    beacon: 43,
                    mirror: None,
                    env: None,
                    method: FitMethod::Fingerprint,
                    ..sample_estimate()
                },
            ]),
            Frame::QueryBeacon(42),
            Frame::BeaconReply(Some(WireEstimate {
                env: Some(EnvClass::Los),
                method: FitMethod::Leg,
                ..sample_estimate()
            })),
            Frame::BeaconReply(None),
            Frame::QueryStats,
            Frame::Stats(WireStats {
                samples_routed: 1,
                samples_rejected: 2,
                samples_processed: 3,
                sessions_created: 4,
                sessions_evicted: 5,
                sessions_live: 6,
                batches_pushed: 7,
                batches_rejected: 8,
                processes: 9,
                queued: 10,
            }),
            Frame::Finish,
            Frame::FinishAck(FinishSummary {
                samples_processed: 11,
                batches_pushed: 3,
            }),
            Frame::error(ErrorCode::Capacity, "full"),
            Frame::MetricsQuery,
            Frame::MetricsReport(WireMetrics {
                counters: vec![("c".to_string(), 12)],
                gauges: vec![("g".to_string(), 3.0)],
                histograms: vec![(
                    "h".to_string(),
                    HistogramSnapshot {
                        bounds: vec![1.0],
                        counts: vec![1, 2],
                        sum: 7.5,
                        count: 3,
                        min: 1.5,
                        max: 3.5,
                    },
                )],
            }),
            Frame::TraceQuery(Some(0xABCD)),
            Frame::TraceReport(vec![TraceRecord {
                ctx: TraceCtx::mint(4).with_stage(Stage::Refit),
                laps: vec![StageLap {
                    stage: Stage::Refit,
                    start_us: 100,
                    duration_us: 2_000,
                }],
            }]),
            Frame::JoinAck(map.clone()),
            Frame::PartitionMap(map.clone()),
            Frame::Forward {
                seq: 17,
                ctx: TraceCtx::mint(0x50C1A1).with_stage(Stage::Forward),
                adverts: vec![advert],
            },
            Frame::ForwardAck {
                seq: 17,
                summary,
                replica_durable: 1,
            },
            Frame::Replicate {
                seq: 9,
                base: 4096,
                adverts: vec![advert],
            },
            Frame::ReplicateAck {
                seq: 9,
                durable: 4097,
            },
            Frame::ClusterQuery,
            Frame::ClusterReport(ClusterSummary {
                node_id: 2,
                role: NodeRole::Owner,
                map,
                owned_sessions: 40,
                forwarded_batches: 0,
                forwarded_adverts: 0,
                replicated_records: 123,
            }),
        ]
    }

    /// `pinned_frames`, encoded: each frame's bytes as hex, header
    /// included.
    const PINNED_FRAME_HEX: [&str; 24] = [
        "0000001a020100000001000000073fe0000000000000c04ea00000000000",
        concat!(
            "0000003202020000000000000003000000000000000200000000000000010000",
            "00000000000000000000000000010000000000000000",
        ),
        "000000020203",
        concat!(
            "000000940204000000020000002a3ff8000000000000c002000000000000013f",
            "e000000000000080000000000000003fec0000000000004000cccccccccccdc0",
            "4e80000000000002000000000000002502400c0000000000000000002b3ff800",
            "0000000000c002000000000000003fec0000000000004000cccccccccccdc04e",
            "80000000000000000000000000002506400c000000000000",
        ),
        "0000000602050000002a",
        concat!(
            "000000520206010000002a3ff8000000000000c002000000000000013fe00000",
            "0000000080000000000000003fec0000000000004000cccccccccccdc04e8000",
            "0000000001000000000000002503400c000000000000",
        ),
        "00000003020600",
        "000000020207",
        concat!(
            "0000005202080000000000000001000000000000000200000000000000030000",
            "0000000000040000000000000005000000000000000600000000000000070000",
            "0000000000080000000000000009000000000000000a",
        ),
        "000000020209",
        "00000012020a000000000000000b0000000000000003",
        "00000009020b04000466756c6c",
        "00000002020e",
        concat!(
            "00000067020f00000001000163000000000000000c0000000100016740080000",
            "0000000000000001000168000000013ff0000000000000000000020000000000",
            "0000010000000000000002401e00000000000000000000000000033ff8000000",
            "000000400c000000000000",
        ),
        "0000000b021001000000000000abcd",
        concat!(
            "0000002302110000000100000000000000040021000105000000000000006400",
            "000000000007d0",
        ),
        "0000001a0213000000000000000500000001000000000000000900026e39",
        "0000001a0214000000000000000500000001000000000000000900026e39",
        concat!(
            "0000002c02150000000000000011000000000050c1a101010000000100000007",
            "3fe0000000000000c04ea00000000000",
        ),
        concat!(
            "0000004202160000000000000011000000000000000300000000000000020000",
            "0000000000010000000000000000000000000000000100000000000000000000",
            "000000000001",
        ),
        concat!(
            "0000002a02170000000000000009000000000000100000000001000000073fe0",
            "000000000000c04ea00000000000",
        ),
        "00000012021800000000000000090000000000001001",
        "000000020219",
        concat!(
            "00000043021a0000000000000002020000000000000005000000010000000000",
            "00000900026e3900000000000000280000000000000000000000000000000000",
            "0000000000007b",
        ),
    ];

    #[test]
    fn frame_bytes_are_unchanged() {
        // Round trips cannot see a field that moved on both sides; these
        // bytes can. Every change here is a wire change (WIRE_VERSION).
        let frames = pinned_frames();
        assert_eq!(frames.len(), PINNED_FRAME_HEX.len());
        for (frame, want) in frames.iter().zip(PINNED_FRAME_HEX) {
            let got: String = encode_frame(frame)
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            assert_eq!(got, want, "{frame:?}");
            let bytes: Vec<u8> = (0..want.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&want[i..i + 2], 16).expect("hex"))
                .collect();
            assert_eq!(decode_frame(&bytes), Ok((frame.clone(), bytes.len())));
        }
    }
}
