//! Concurrent-recorder stress: 8 shard-worker-style threads recording
//! through one [`Obs::ring`] handle must lose nothing and keep sequence
//! numbers strictly monotonic — the properties the engine's drain loop
//! and the serving path rely on when they share an [`Obs`] handle.

use locble_obs::{FieldValue, Obs, Stage};
use std::collections::BTreeSet;

const WORKERS: usize = 8;
const EVENTS_PER_WORKER: usize = 1_000;

/// Drives `WORKERS` threads through one handle and returns the sorted
/// retained sequence numbers.
fn hammer(obs: &Obs) -> Vec<u64> {
    std::thread::scope(|scope| {
        for worker in 0..WORKERS {
            let obs = obs.clone();
            scope.spawn(move || {
                for i in 0..EVENTS_PER_WORKER {
                    obs.event(
                        "stress",
                        "tick",
                        &[("worker", worker.into()), ("i", i.into())],
                    );
                }
            });
        }
    });
    let mut seqs: Vec<u64> = obs.events().iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    seqs
}

/// Retained + dropped must equal recorded, and the retained sequence
/// numbers must be unique — two racing workers may never observe the
/// same sequence number or overwrite each other's slot.
fn assert_no_loss(obs: &Obs, seqs: &[u64]) {
    let total = (WORKERS * EVENTS_PER_WORKER) as u64;
    assert_eq!(
        seqs.len() as u64 + obs.dropped_events(),
        total,
        "every recorded event is either retained or counted dropped"
    );
    let unique: BTreeSet<u64> = seqs.iter().copied().collect();
    assert_eq!(unique.len(), seqs.len(), "sequence numbers must be unique");
    for w in seqs.windows(2) {
        assert!(w[0] < w[1], "sorted seqs must be strictly monotonic");
    }
    // Sequence numbers are a dense prefix-free allocation: every value
    // below the total was handed to exactly one event.
    assert!(seqs.iter().all(|&s| s < total));
}

#[test]
fn ring_recorder_retains_all_events_under_8_workers() {
    // Each lane holds the full stream: thread-id hashing may map
    // several workers onto one lane, so a lane must absorb the
    // worst-case skew (all 8 workers on one lane) without dropping.
    let obs = Obs::ring(WORKERS * EVENTS_PER_WORKER);
    let seqs = hammer(&obs);
    assert_eq!(obs.dropped_events(), 0);
    assert_eq!(seqs.len(), WORKERS * EVENTS_PER_WORKER);
    assert_no_loss(&obs, &seqs);
}

#[test]
fn flight_recorder_retains_all_events_under_8_workers() {
    // The merged view the lanes are read back through is seq-sorted
    // even though lanes filled independently, and within it each
    // worker's events keep that worker's program order.
    let obs = Obs::ring(WORKERS * EVENTS_PER_WORKER);
    let seqs = hammer(&obs);
    let events = obs.events();
    let merged: Vec<u64> = events.iter().map(|e| e.seq).collect();
    assert_eq!(merged, seqs);
    let mut next_i = [0u64; WORKERS];
    for e in &events {
        let field = |key| match e.fields.iter().find(|(k, _)| *k == key) {
            Some((_, FieldValue::U64(v))) => *v,
            other => panic!("field {key} missing or not u64: {other:?}"),
        };
        let worker = field("worker") as usize;
        assert_eq!(field("i"), next_i[worker], "worker {worker} out of order");
        next_i[worker] += 1;
    }
    assert!(next_i.iter().all(|&n| n == EVENTS_PER_WORKER as u64));
}

#[test]
fn flight_recorder_under_overflow_drops_exactly_the_excess() {
    // 8 writers share the lanes unevenly, so how many events survive
    // depends on the thread-id hash; what may not vary is that every
    // lane a worker wrote to is full (each worker alone overflows one)
    // and every event beyond what the lanes retain is counted dropped.
    let obs = Obs::ring(100);
    let seqs = hammer(&obs);
    assert!(
        (100..=400).contains(&seqs.len()) && seqs.len().is_multiple_of(100),
        "one to four full lanes retained, got {} events",
        seqs.len()
    );
    assert_no_loss(&obs, &seqs);
}

#[test]
fn concurrent_trace_laps_fold_without_loss() {
    let obs = Obs::ring(64);
    std::thread::scope(|scope| {
        for worker in 0..WORKERS {
            let obs = obs.clone();
            scope.spawn(move || {
                for i in 0..50u64 {
                    obs.trace_stage(worker as u64, Stage::Refit, i, 1);
                }
            });
        }
    });
    let traces = obs.traces();
    assert_eq!(traces.len(), WORKERS, "one record per worker's trace id");
    let m = obs.metrics();
    assert_eq!(
        m.histograms["trace.refit.us"].count,
        (WORKERS * 50) as u64,
        "every lap fed the stage histogram"
    );
}
