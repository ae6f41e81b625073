//! Wire-propagated trace context and the per-handle trace table.
//!
//! A [`TraceCtx`] is minted once per ingest batch at the *client* and
//! rides the wire with the batch: a `u64` trace id plus a `u16` stage
//! path — a bitmask that accumulates one bit per pipeline stage the
//! batch passes through ([`Stage`]). Every stage that does attributable
//! work records a [`StageLap`] (stage, start, duration) against the
//! trace id through [`Obs::trace_stage`](crate::Obs::trace_stage);
//! the handle's [`TraceTable`] folds laps into per-trace
//! [`TraceRecord`]s, so one batch can be followed
//! client → decoder → shard queue → refit → ack with per-stage
//! `duration_us`.
//!
//! The table is a fixed-capacity ring over insertion order: when a new
//! trace arrives at capacity, the oldest record is evicted (counted in
//! [`TraceTable::evicted`]). Laps for evicted or never-begun traces
//! create a fresh record — late laps are data, not errors.

use std::collections::VecDeque;

/// One pipeline stage a traced batch can pass through. The discriminant
/// is the *bit position* in [`TraceCtx::path`], so a stage path is a
/// compact "which stages touched this batch" summary even without the
/// per-stage laps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Stage {
    /// Minted and sent by the client.
    Client = 0,
    /// Server-side frame decode.
    Decode = 1,
    /// Durability WAL append (only on durable servers).
    Wal = 2,
    /// Reactor coalescing wait: the batch sat decoded in its
    /// connection's op queue until the tick's group commit reached it
    /// (the price one batch pays so every connection's batches of a
    /// tick share one WAL group and one engine pass).
    Coalesce = 7,
    /// Control-plane ingest: validation + shard routing.
    Route = 3,
    /// Time spent waiting in a shard queue before a worker drained it.
    ShardQueue = 4,
    /// Worker-side drain: batch windows pushed + estimator refits.
    Refit = 5,
    /// Encoding and writing the reply frame.
    Ack = 6,
    /// Cluster front: partitioning the batch and forwarding it to the
    /// owning node (only on clustered deployments).
    Forward = 8,
    /// Cluster owner: streaming the batch's WAL records to the follower
    /// and, under a synchronous policy, waiting for its ack.
    Replicate = 9,
}

impl Stage {
    /// All stages, in pipeline order. (`Coalesce` sits between decode
    /// and WAL in the pipeline even though its discriminant — its bit
    /// position — was assigned later, and the cluster stages `Forward`
    /// and `Replicate` slot into their pipeline positions with bits 8
    /// and 9; bit positions are wire ABI and never reshuffle.)
    pub const ALL: [Stage; 10] = [
        Stage::Client,
        Stage::Forward,
        Stage::Decode,
        Stage::Coalesce,
        Stage::Wal,
        Stage::Replicate,
        Stage::Route,
        Stage::ShardQueue,
        Stage::Refit,
        Stage::Ack,
    ];

    /// The stage's bit in a [`TraceCtx::path`].
    pub fn bit(self) -> u16 {
        1u16 << (self as u8)
    }

    /// Stable lowercase name (used for metric names and reports, so it
    /// must never contain `.`).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Client => "client",
            Stage::Decode => "decode",
            Stage::Coalesce => "coalesce",
            Stage::Wal => "wal",
            Stage::Route => "route",
            Stage::ShardQueue => "shard_queue",
            Stage::Refit => "refit",
            Stage::Ack => "ack",
            Stage::Forward => "forward",
            Stage::Replicate => "replicate",
        }
    }

    /// The latency-histogram name this stage's laps feed
    /// (`trace.<stage>.us`).
    pub fn histogram_name(self) -> &'static str {
        match self {
            Stage::Client => "trace.client.us",
            Stage::Decode => "trace.decode.us",
            Stage::Coalesce => "trace.coalesce.us",
            Stage::Wal => "trace.wal.us",
            Stage::Route => "trace.route.us",
            Stage::ShardQueue => "trace.shard_queue.us",
            Stage::Refit => "trace.refit.us",
            Stage::Ack => "trace.ack.us",
            Stage::Forward => "trace.forward.us",
            Stage::Replicate => "trace.replicate.us",
        }
    }

    /// Decodes a discriminant byte (the wire carries stages as `u8`).
    pub fn from_u8(v: u8) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| *s as u8 == v)
    }
}

/// Compact per-batch trace context: minted at the client, carried in
/// the wire frame, propagated through the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// Client-minted trace id. Uniqueness is the client's problem;
    /// collisions merge records (harmless for diagnostics).
    pub trace_id: u64,
    /// Bitmask of [`Stage`]s this context has passed through.
    pub path: u16,
}

impl TraceCtx {
    /// Mints a context for a new batch, with only the client bit set.
    pub fn mint(trace_id: u64) -> TraceCtx {
        TraceCtx {
            trace_id,
            path: Stage::Client.bit(),
        }
    }

    /// A copy with `stage`'s bit added to the path.
    #[must_use]
    pub fn with_stage(self, stage: Stage) -> TraceCtx {
        TraceCtx {
            trace_id: self.trace_id,
            path: self.path | stage.bit(),
        }
    }

    /// `true` when the path says the batch passed through `stage`.
    pub fn has_stage(self, stage: Stage) -> bool {
        self.path & stage.bit() != 0
    }

    /// Stage names present in the path, in pipeline order.
    pub fn stages(self) -> Vec<&'static str> {
        Stage::ALL
            .into_iter()
            .filter(|s| self.has_stage(*s))
            .map(Stage::name)
            .collect()
    }
}

/// Derives a trace id from a client nonce and a per-connection batch
/// counter (SplitMix64 finalizer: dependency-free, uniform, identical
/// on every platform).
pub fn trace_id(nonce: u64, batch: u64) -> u64 {
    let mut x = nonce ^ batch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One stage's timed contribution to a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageLap {
    /// Which stage did the work.
    pub stage: Stage,
    /// Microseconds since the recording handle's epoch when the stage
    /// started (0 when the recorder could not observe the start).
    pub start_us: u64,
    /// How long the stage spent on this batch, microseconds.
    pub duration_us: u64,
}

/// Everything known about one traced batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The batch's context (latest path seen).
    pub ctx: TraceCtx,
    /// Laps in arrival order (usually pipeline order; a shard drain on
    /// another thread may land after the ack).
    pub laps: Vec<StageLap>,
}

impl TraceRecord {
    /// Total duration across all laps, microseconds.
    pub fn total_us(&self) -> u64 {
        self.laps.iter().map(|l| l.duration_us).sum()
    }

    /// The lap for one stage, if recorded (first match).
    pub fn lap(&self, stage: Stage) -> Option<&StageLap> {
        self.laps.iter().find(|l| l.stage == stage)
    }
}

/// Fixed-capacity ring of [`TraceRecord`]s, oldest evicted first. All
/// mutation goes through the owning handle's mutex, so the table itself
/// is plain data.
#[derive(Debug)]
pub struct TraceTable {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    evicted: u64,
}

/// Laps retained per trace before further laps are dropped (guards the
/// table against a runaway stage recording in a loop).
const MAX_LAPS_PER_TRACE: usize = 64;

impl TraceTable {
    /// A table retaining at most `capacity` traces (min 1).
    pub fn with_capacity(capacity: usize) -> TraceTable {
        TraceTable {
            records: VecDeque::new(),
            capacity: capacity.max(1),
            evicted: 0,
        }
    }

    /// Starts (or refreshes the path of) a trace.
    pub fn begin(&mut self, ctx: TraceCtx) {
        match self.find_mut(ctx.trace_id) {
            Some(rec) => rec.ctx.path |= ctx.path,
            None => self.insert(TraceRecord {
                ctx,
                laps: Vec::new(),
            }),
        }
    }

    /// Folds one lap into its trace, creating the record when absent.
    pub fn lap(&mut self, trace_id: u64, lap: StageLap) {
        match self.find_mut(trace_id) {
            Some(rec) => {
                if rec.laps.len() < MAX_LAPS_PER_TRACE {
                    rec.ctx.path |= lap.stage.bit();
                    rec.laps.push(lap);
                }
            }
            None => self.insert(TraceRecord {
                ctx: TraceCtx {
                    trace_id,
                    path: lap.stage.bit(),
                },
                laps: vec![lap],
            }),
        }
    }

    fn insert(&mut self, record: TraceRecord) {
        if self.records.len() >= self.capacity {
            self.records.pop_front();
            self.evicted += 1;
        }
        self.records.push_back(record);
    }

    fn find_mut(&mut self, trace_id: u64) -> Option<&mut TraceRecord> {
        // Newest-first: the live trace is almost always at the back.
        self.records
            .iter_mut()
            .rev()
            .find(|r| r.ctx.trace_id == trace_id)
    }

    /// One trace's record, if retained.
    pub fn lookup(&self, trace_id: u64) -> Option<&TraceRecord> {
        self.records
            .iter()
            .rev()
            .find(|r| r.ctx.trace_id == trace_id)
    }

    /// All retained records, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.records.iter().cloned().collect()
    }

    /// Records evicted to make room.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Retained record count.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_accumulates_stage_bits() {
        let ctx = TraceCtx::mint(7)
            .with_stage(Stage::Decode)
            .with_stage(Stage::Route);
        assert!(ctx.has_stage(Stage::Client));
        assert!(ctx.has_stage(Stage::Decode));
        assert!(!ctx.has_stage(Stage::Refit));
        assert_eq!(ctx.stages(), vec!["client", "decode", "route"]);
    }

    #[test]
    fn stage_u8_round_trips() {
        for stage in Stage::ALL {
            assert_eq!(Stage::from_u8(stage as u8), Some(stage));
        }
        assert_eq!(Stage::from_u8(200), None);
    }

    #[test]
    fn cluster_stages_take_the_free_high_bits() {
        assert_eq!(Stage::Forward.bit(), 1 << 8);
        assert_eq!(Stage::Replicate.bit(), 1 << 9);
        let ctx = TraceCtx::mint(3)
            .with_stage(Stage::Forward)
            .with_stage(Stage::Replicate);
        assert_eq!(ctx.stages(), vec!["client", "forward", "replicate"]);
    }

    #[test]
    fn trace_ids_spread_over_batch_counters() {
        let ids: std::collections::BTreeSet<u64> =
            (0..1000).map(|batch| trace_id(0xC11E47, batch)).collect();
        assert_eq!(ids.len(), 1000, "sequential batches must not collide");
    }

    #[test]
    fn table_folds_laps_and_evicts_oldest() {
        let mut table = TraceTable::with_capacity(2);
        table.begin(TraceCtx::mint(1));
        table.lap(
            1,
            StageLap {
                stage: Stage::Decode,
                start_us: 10,
                duration_us: 5,
            },
        );
        table.lap(
            1,
            StageLap {
                stage: Stage::Refit,
                start_us: 20,
                duration_us: 100,
            },
        );
        let rec = table.lookup(1).expect("retained");
        assert_eq!(rec.laps.len(), 2);
        assert_eq!(rec.total_us(), 105);
        assert!(rec.ctx.has_stage(Stage::Refit));
        assert_eq!(rec.lap(Stage::Decode).unwrap().duration_us, 5);

        table.begin(TraceCtx::mint(2));
        table.begin(TraceCtx::mint(3)); // evicts trace 1
        assert_eq!(table.len(), 2);
        assert_eq!(table.evicted(), 1);
        assert!(table.lookup(1).is_none());
        assert!(table.lookup(3).is_some());
    }

    #[test]
    fn late_lap_for_unknown_trace_creates_a_record() {
        let mut table = TraceTable::with_capacity(4);
        table.lap(
            99,
            StageLap {
                stage: Stage::ShardQueue,
                start_us: 0,
                duration_us: 42,
            },
        );
        let rec = table.lookup(99).expect("created");
        assert_eq!(rec.ctx.path, Stage::ShardQueue.bit());
    }

    #[test]
    fn lap_cap_bounds_runaway_recording() {
        let mut table = TraceTable::with_capacity(2);
        for i in 0..200 {
            table.lap(
                5,
                StageLap {
                    stage: Stage::Refit,
                    start_us: i,
                    duration_us: 1,
                },
            );
        }
        assert_eq!(table.lookup(5).unwrap().laps.len(), MAX_LAPS_PER_TRACE);
    }
}
