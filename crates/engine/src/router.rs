//! Beacon-id-hash shard routing and per-shard ingest queues.
//!
//! The engine's determinism rests on one invariant: **every sample of a
//! given beacon lands on the same shard, in arrival order**. The router
//! enforces it structurally — the shard is a pure hash of the beacon id
//! (stable across runs, platforms, and thread counts), and each shard's
//! queue is strictly FIFO — so however the worker pool schedules shards,
//! a beacon's samples are always consumed by exactly one worker in the
//! order they were ingested.

use locble_ble::BeaconId;
use std::collections::VecDeque;

/// One advertisement sample as the engine ingests it: which beacon was
/// heard, when, and at what strength.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Advert {
    /// The advertising beacon.
    pub beacon: BeaconId,
    /// Capture timestamp, seconds on the scanner's clock.
    pub t: f64,
    /// Received signal strength, dBm.
    pub rssi_dbm: f64,
}

impl From<(BeaconId, f64, f64)> for Advert {
    fn from((beacon, t, rssi_dbm): (BeaconId, f64, f64)) -> Advert {
        Advert {
            beacon,
            t,
            rssi_dbm,
        }
    }
}

/// SplitMix64 finalizer: a strong, dependency-free integer hash with
/// identical output on every platform (`u64` arithmetic only). The
/// engine's shard router and the cluster's rendezvous router both hash
/// with it.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The shard a beacon's samples are routed to. Pure and deterministic:
/// depends only on the beacon id and the shard count.
pub fn shard_of(beacon: BeaconId, shards: usize) -> usize {
    (splitmix64(u64::from(beacon.0)) % shards.max(1) as u64) as usize
}

/// A shard queue refused a sample because it is at capacity; the caller
/// must drain (process) before re-offering the remainder of its batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backpressure {
    /// The full shard.
    pub shard: usize,
    /// Its configured capacity.
    pub capacity: usize,
}

/// Fixed-capacity FIFO queues, one per shard.
#[derive(Debug)]
pub struct ShardQueues {
    queues: Vec<VecDeque<Advert>>,
    capacity: usize,
}

impl ShardQueues {
    /// `shards` queues, each holding at most `capacity` samples
    /// (both clamped to at least 1).
    pub fn new(shards: usize, capacity: usize) -> ShardQueues {
        ShardQueues {
            queues: (0..shards.max(1)).map(|_| VecDeque::new()).collect(),
            capacity: capacity.max(1),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// Per-shard capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Queue depth of one shard.
    pub fn depth(&self, shard: usize) -> usize {
        self.queues[shard].len()
    }

    /// Samples queued across all shards.
    pub fn total_depth(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// `true` when the shard a sample for `beacon` would land on has no
    /// room left.
    pub fn would_block(&self, beacon: BeaconId) -> bool {
        self.queues[shard_of(beacon, self.queues.len())].len() >= self.capacity
    }

    /// Routes one sample to its beacon's shard. Returns the shard index,
    /// or [`Backpressure`] when that queue is full (the sample is *not*
    /// enqueued).
    pub fn push(&mut self, advert: Advert) -> Result<usize, Backpressure> {
        let shard = shard_of(advert.beacon, self.queues.len());
        if self.queues[shard].len() >= self.capacity {
            return Err(Backpressure {
                shard,
                capacity: self.capacity,
            });
        }
        self.queues[shard].push_back(advert);
        Ok(shard)
    }

    /// Takes everything queued on one shard, leaving it empty.
    pub fn take_shard(&mut self, shard: usize) -> VecDeque<Advert> {
        std::mem::take(&mut self.queues[shard])
    }

    /// Read-only view of one shard's queue, front (oldest) first.
    pub fn iter_shard(&self, shard: usize) -> impl Iterator<Item = &Advert> {
        self.queues[shard].iter()
    }

    /// Replaces one shard's queue verbatim from snapshot state (the
    /// durability restore path). The caller validates depth against the
    /// configured capacity first — this is a raw reinstatement, not a
    /// routed push.
    pub(crate) fn restore_shard(&mut self, shard: usize, queue: VecDeque<Advert>) {
        self.queues[shard] = queue;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for id in 0..10_000u32 {
            let s = shard_of(BeaconId(id), 16);
            assert!(s < 16);
            assert_eq!(s, shard_of(BeaconId(id), 16), "hash must be pure");
        }
        assert_eq!(shard_of(BeaconId(7), 1), 0);
    }

    #[test]
    fn shard_of_spreads_ids() {
        // Sequential ids (the common fleet numbering) must not pile onto
        // a few shards.
        let mut counts = [0usize; 8];
        for id in 0..800u32 {
            counts[shard_of(BeaconId(id), 8)] += 1;
        }
        for (shard, &n) in counts.iter().enumerate() {
            assert!((50..=150).contains(&n), "shard {shard} got {n}/800");
        }
    }

    #[test]
    fn queues_preserve_fifo_order_per_shard() {
        let mut q = ShardQueues::new(4, 64);
        for i in 0..40u32 {
            q.push(Advert {
                beacon: BeaconId(i % 5),
                t: f64::from(i),
                rssi_dbm: -60.0,
            })
            .expect("capacity not reached");
        }
        for shard in 0..4 {
            let drained = q.take_shard(shard);
            let times: Vec<f64> = drained.iter().map(|a| a.t).collect();
            let mut sorted = times.clone();
            // total_cmp, not partial_cmp().expect("finite"): the router
            // is timestamp-agnostic (validation lives in the engine), so
            // the order check must not be the thing that panics first.
            sorted.sort_by(f64::total_cmp);
            assert_eq!(times, sorted, "shard {shard} reordered samples");
        }
        assert_eq!(q.total_depth(), 0);
    }

    #[test]
    fn fifo_order_check_survives_non_finite_times() {
        // Regression: the FIFO check above once sorted with
        // `partial_cmp(..).expect("finite")`, which panicked the moment
        // a NaN timestamp passed through the (timestamp-agnostic)
        // router. `f64::total_cmp` gives every bit pattern a defined
        // position, so the check itself can never be the panic path.
        let stream = [0.0, f64::INFINITY, f64::NAN, f64::NEG_INFINITY, 1.0];
        let mut q = ShardQueues::new(2, 16);
        for t in stream {
            q.push(Advert {
                beacon: BeaconId(3),
                t,
                rssi_dbm: -60.0,
            })
            .expect("capacity not reached");
        }
        let drained = q.take_shard(shard_of(BeaconId(3), 2));
        let times: Vec<f64> = drained.iter().map(|a| a.t).collect();
        let mut sorted = times.clone();
        sorted.sort_by(f64::total_cmp); // must not panic on NaN/±inf
        assert_eq!(sorted.len(), stream.len());
        // FIFO preserved bit-exactly (PartialEq would lose NaN == NaN).
        let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<u64>>();
        assert_eq!(
            bits(&times),
            bits(&stream),
            "router must forward non-finite samples untouched, in order"
        );
    }

    #[test]
    fn full_queue_reports_backpressure_without_enqueuing() {
        let mut q = ShardQueues::new(1, 2);
        let a = Advert {
            beacon: BeaconId(1),
            t: 0.0,
            rssi_dbm: -60.0,
        };
        assert!(q.push(a).is_ok());
        assert!(q.push(a).is_ok());
        assert!(q.would_block(BeaconId(1)));
        let err = q.push(a).unwrap_err();
        assert_eq!(
            err,
            Backpressure {
                shard: 0,
                capacity: 2
            }
        );
        assert_eq!(q.depth(0), 2, "rejected sample must not be enqueued");
    }
}
