//! The flight recorder: the one event sink behind every recording
//! [`Obs`](crate::Obs) handle — a lane-sharded, fixed-capacity ring of
//! recent events.
//!
//! A serving path has shard workers and the reactor recording
//! concurrently, so retention is sharded into `LANES` *lanes*: each
//! recording thread hashes its thread id onto a lane and appends to
//! that lane's [`Ring`] under its mutex, so in steady state every
//! worker owns its lane and the lock is uncontended ("lock-light").
//! Ordering is reconstructed at snapshot time from the handle's global
//! sequence numbers, which stay strictly monotonic across lanes. A
//! single recording thread uses one lane, so it keeps exactly the
//! newest `capacity` events in order.
//!
//! A dump is `atomic_write(path, obs.events_to_jsonl())`: [`atomic_write`]
//! writes a `.tmp` sibling, fsyncs it and renames it over the target, so
//! a crash mid-dump never leaves a torn file where a postmortem expects
//! history. The server dumps after a decode storm (see `locble-net`);
//! the store's snapshot writer uses the same helper.

use crate::event::Event;
use crate::recorder::Ring;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;

/// Lanes per recorder: the serving paths record from a handful of
/// threads (shard workers plus the reactor), and extra threads share
/// lanes by thread-id hash.
const LANES: usize = 4;

/// Lane-sharded bounded event retention; see the module docs.
pub(crate) struct FlightRecorder {
    lanes: [Mutex<Ring>; LANES],
    /// Per-lane capacity.
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder whose lanes hold `capacity` events each (clamped to
    /// at least 1).
    pub(crate) fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            lanes: Default::default(),
            capacity: capacity.max(1),
        }
    }

    /// The lane the calling thread records into.
    fn lane_index(&self) -> usize {
        // std exposes no numeric ThreadId accessor, so hash the opaque
        // id. Computed once per call; the cost only exists when a
        // recorder is attached.
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut hasher);
        (hasher.finish() % LANES as u64) as usize
    }

    /// Accepts one event into the calling thread's lane.
    pub(crate) fn record(&self, event: Event) {
        self.lanes[self.lane_index()]
            .lock()
            .expect("lane not poisoned")
            .record(self.capacity, event);
    }

    /// Merged recent history, ordered by global sequence number.
    pub(crate) fn snapshot(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for lane in &self.lanes {
            lane.lock()
                .expect("lane not poisoned")
                .snapshot_into(&mut out);
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Events overwritten because their lane was full.
    pub(crate) fn dropped(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.lock().expect("lane not poisoned").dropped())
            .sum()
    }
}

/// Atomic file replacement: write a `.tmp` sibling, fsync it, rename
/// over `path`. A crash mid-write leaves either the previous file or
/// the complete new one, never a torn tail.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    /// A recording handle after `n` single-threaded events.
    fn recorded(capacity: usize, n: u64) -> Obs {
        let obs = Obs::ring(capacity);
        for i in 0..n {
            obs.event("t", "n", &[("i", i.into())]);
        }
        obs
    }

    fn seqs(obs: &Obs) -> Vec<u64> {
        obs.events().iter().map(|e| e.seq).collect()
    }

    #[test]
    fn merged_history_is_seq_ordered() {
        // Single-threaded: everything lands in one lane, in order, and
        // nothing is dropped under capacity.
        let obs = recorded(16, 10);
        assert_eq!(seqs(&obs), (0..10).collect::<Vec<_>>());
        assert_eq!(obs.dropped_events(), 0);
    }

    #[test]
    fn lane_overflow_keeps_newest_and_counts_drops() {
        let obs = recorded(4, 10);
        assert_eq!(seqs(&obs), vec![6, 7, 8, 9]);
        assert_eq!(obs.dropped_events(), 6);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let obs = recorded(0, 2);
        assert_eq!(seqs(&obs), vec![1]);
        assert_eq!(obs.dropped_events(), 1);
    }

    #[test]
    fn atomic_dump_replaces_the_file_and_parses_back() {
        let obs = recorded(8, 5);
        let dir = std::env::temp_dir().join(format!("locble-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("flight.jsonl");
        std::fs::write(&path, "stale").expect("previous file");
        atomic_write(&path, obs.events_to_jsonl().as_bytes()).expect("dump");
        assert!(!path.with_extension("tmp").exists(), "tmp renamed away");
        let text = std::fs::read_to_string(&path).expect("read back");
        let events = crate::events_from_jsonl(&text).expect("parses");
        assert_eq!(events.len(), 5);
        assert_eq!(events, obs.events());
        std::fs::remove_dir_all(&dir).ok();
    }
}
