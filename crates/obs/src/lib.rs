//! `locble-obs`: structured tracing, metrics, and pipeline diagnostics
//! for the LocBLE estimation stack.
//!
//! The crate is deliberately dependency-free (serde only, for JSONL
//! export) and built around one rule: **instrumentation must cost
//! nothing when nobody is listening**. The [`Obs`] handle is a cheap
//! clonable facade; the no-op handle holds no allocation and every
//! recording method exits on a single branch. A recording handle
//! ([`Obs::ring`]) keeps recent events in a lane-sharded flight
//! recorder — each event carries a monotonic sequence number and a
//! microsecond timestamp relative to the handle's creation — and a
//! [`MetricsRegistry`] accumulates counters, gauges, and fixed-bucket
//! histograms. [`atomic_write`] of [`Obs::events_to_jsonl`] is the one
//! dump path.
//!
//! ```
//! use locble_obs::Obs;
//!
//! let obs = Obs::ring(1024);
//! obs.counter_add("batches_ingested", 1);
//! obs.event("core.streaming", "env_restart", &[("from", "Los".into())]);
//! let span = obs.span("core.streaming", "refit");
//! // ... work ...
//! drop(span); // records duration_us + a latency histogram sample
//! assert_eq!(obs.events().len(), 2);
//! ```

mod event;
mod flight;
mod metrics;
mod recorder;
mod trace;

pub use event::{Event, FieldValue};
pub use flight::atomic_write;
pub use metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use trace::{trace_id, Stage, StageLap, TraceCtx, TraceRecord, TraceTable};

use flight::FlightRecorder;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Handle through which all pipeline code reports what it is doing.
///
/// Cloning is cheap (an `Option<Arc>`); a disabled handle is a `None`
/// and every method returns after one branch.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

struct ObsInner {
    recorder: FlightRecorder,
    metrics: MetricsRegistry,
    traces: Mutex<TraceTable>,
    seq: AtomicU64,
    epoch: Instant,
}

/// Traces retained per handle before the oldest is evicted.
const TRACE_TABLE_CAPACITY: usize = 256;

impl Obs {
    /// The disabled handle: records nothing, allocates nothing.
    pub fn noop() -> Obs {
        Obs { inner: None }
    }

    /// A recording handle: a flight recorder whose lanes each retain
    /// the last `capacity` events (a single recording thread keeps
    /// exactly its newest `capacity`), plus a metrics registry and a
    /// trace table.
    pub fn ring(capacity: usize) -> Obs {
        Obs {
            inner: Some(Arc::new(ObsInner {
                recorder: FlightRecorder::new(capacity),
                metrics: MetricsRegistry::new(),
                traces: Mutex::new(TraceTable::with_capacity(TRACE_TABLE_CAPACITY)),
                seq: AtomicU64::new(0),
                epoch: Instant::now(),
            })),
        }
    }

    /// `true` when a recorder is attached. Call sites with non-trivial
    /// field computation should guard on this.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records a structured event.
    pub fn event(
        &self,
        target: &'static str,
        name: &'static str,
        fields: &[(&'static str, FieldValue)],
    ) {
        let Some(inner) = &self.inner else { return };
        let event = Event {
            seq: inner.seq.fetch_add(1, Ordering::Relaxed),
            t_us: inner.epoch.elapsed().as_micros() as u64,
            target,
            name,
            fields: fields.to_vec(),
        };
        inner.recorder.record(event);
    }

    /// Starts a timed span; dropping (or [`Span::finish`]ing) it records
    /// an event with a `duration_us` field and feeds a latency
    /// histogram named `<target>.<name>.us`.
    pub fn span(&self, target: &'static str, name: &'static str) -> Span {
        Span {
            obs: self.clone(),
            target,
            name,
            start: Instant::now(),
            fields: Vec::new(),
            done: !self.enabled(),
        }
    }

    /// Adds to a named monotonic counter. Metric names may be built at
    /// runtime (e.g. per-shard names like `engine.shard3.evictions`);
    /// keep them low-cardinality — every distinct name is a map entry.
    pub fn counter_add(&self, name: &str, n: u64) {
        let Some(inner) = &self.inner else { return };
        inner.metrics.counter_add(name, n);
    }

    /// Sets a named gauge to its latest value.
    pub fn gauge_set(&self, name: &str, v: f64) {
        let Some(inner) = &self.inner else { return };
        inner.metrics.gauge_set(name, v);
    }

    /// Records one observation into a named histogram (created with
    /// default buckets on first use unless registered explicitly).
    pub fn histogram_observe(&self, name: &str, v: f64) {
        let Some(inner) = &self.inner else { return };
        inner.metrics.histogram_observe(name, v);
    }

    /// Registers a histogram with explicit ascending bucket bounds.
    pub fn register_histogram(&self, name: &str, bounds: &[f64]) {
        let Some(inner) = &self.inner else { return };
        inner.metrics.register_histogram(name, bounds);
    }

    /// Microseconds since this handle was created (0 for a noop
    /// handle). Stage laps record their start in this clock.
    pub fn now_us(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    /// Registers a traced batch's context with the trace table (called
    /// at the first server-side stage that sees the context).
    pub fn trace_begin(&self, ctx: TraceCtx) {
        let Some(inner) = &self.inner else { return };
        inner
            .traces
            .lock()
            .expect("trace table not poisoned")
            .begin(ctx);
    }

    /// Records one stage lap against a trace id: folds it into the
    /// trace table *and* feeds the stage's latency histogram
    /// (`trace.<stage>.us`), so per-stage latency distributions and
    /// per-batch attribution come from one call.
    pub fn trace_stage(&self, trace_id: u64, stage: Stage, start_us: u64, duration_us: u64) {
        let Some(inner) = &self.inner else { return };
        inner.traces.lock().expect("trace table not poisoned").lap(
            trace_id,
            StageLap {
                stage,
                start_us,
                duration_us,
            },
        );
        inner
            .metrics
            .histogram_observe(stage.histogram_name(), duration_us as f64);
    }

    /// All retained trace records, oldest first.
    pub fn traces(&self) -> Vec<TraceRecord> {
        match &self.inner {
            Some(inner) => inner
                .traces
                .lock()
                .expect("trace table not poisoned")
                .snapshot(),
            None => Vec::new(),
        }
    }

    /// One trace's record, if retained.
    pub fn trace_lookup(&self, trace_id: u64) -> Option<TraceRecord> {
        let inner = self.inner.as_ref()?;
        inner
            .traces
            .lock()
            .expect("trace table not poisoned")
            .lookup(trace_id)
            .cloned()
    }

    /// Snapshot of every event the recorder retained, oldest first.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            Some(inner) => inner.recorder.snapshot(),
            None => Vec::new(),
        }
    }

    /// Events the recorder had to discard (lane overflow).
    pub fn dropped_events(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.recorder.dropped(),
            None => 0,
        }
    }

    /// Snapshot of all metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => inner.metrics.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Serializes retained events as JSON Lines, one event per line.
    pub fn events_to_jsonl(&self) -> String {
        events_to_jsonl(&self.events())
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// Serializes events as JSON Lines (one JSON object per line).
pub fn events_to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&serde::json::to_string(e));
        out.push('\n');
    }
    out
}

/// Parses JSON Lines produced by [`events_to_jsonl`].
pub fn events_from_jsonl(text: &str) -> Result<Vec<Event>, serde::Error> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(serde::json::from_str)
        .collect()
}

/// A live timed region; see [`Obs::span`].
#[must_use = "a span records on drop; binding it to `_` ends it immediately"]
pub struct Span {
    obs: Obs,
    target: &'static str,
    name: &'static str,
    start: Instant,
    fields: Vec<(&'static str, FieldValue)>,
    done: bool,
}

impl Span {
    /// Attaches a field to the event this span will record.
    pub fn field(&mut self, name: &'static str, value: impl Into<FieldValue>) {
        if !self.done {
            self.fields.push((name, value.into()));
        }
    }

    /// Ends the span now and returns its duration in microseconds.
    pub fn finish(mut self) -> u64 {
        self.emit()
    }

    fn emit(&mut self) -> u64 {
        if self.done {
            return 0;
        }
        self.done = true;
        let us = self.start.elapsed().as_micros() as u64;
        self.fields.push(("duration_us", FieldValue::U64(us)));
        let fields = std::mem::take(&mut self.fields);
        self.obs.event(self.target, self.name, &fields);
        if let Some(inner) = &self.obs.inner {
            inner
                .metrics
                .histogram_observe_dynamic(format!("{}.{}.us", self.target, self.name), us as f64);
        }
        us
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.emit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_swallows_everything() {
        let obs = Obs::noop();
        obs.event("t", "e", &[("k", 1.0.into())]);
        obs.counter_add("c", 3);
        obs.histogram_observe("h", 0.5);
        obs.trace_begin(TraceCtx::mint(9));
        obs.trace_stage(9, Stage::Decode, 0, 12);
        let span = obs.span("t", "s");
        drop(span);
        assert!(!obs.enabled());
        assert!(obs.events().is_empty());
        assert!(obs.traces().is_empty());
        assert!(obs.trace_lookup(9).is_none());
        assert_eq!(obs.now_us(), 0);
        assert_eq!(obs.metrics(), MetricsSnapshot::default());
        assert!(obs.events_to_jsonl().is_empty());
    }

    #[test]
    fn trace_stages_fold_into_records_and_histograms() {
        let obs = Obs::ring(16);
        let ctx = TraceCtx::mint(0xBEEF);
        obs.trace_begin(ctx.with_stage(Stage::Decode));
        obs.trace_stage(0xBEEF, Stage::Decode, 5, 10);
        obs.trace_stage(0xBEEF, Stage::Refit, 20, 300);
        let rec = obs.trace_lookup(0xBEEF).expect("retained");
        assert!(rec.ctx.has_stage(Stage::Client));
        assert!(rec.ctx.has_stage(Stage::Refit));
        assert_eq!(rec.lap(Stage::Decode).unwrap().duration_us, 10);
        assert_eq!(rec.total_us(), 310);
        let m = obs.metrics();
        assert_eq!(m.histograms["trace.decode.us"].count, 1);
        assert_eq!(m.histograms["trace.refit.us"].count, 1);
        assert_eq!(obs.traces().len(), 1);
    }

    #[test]
    fn events_carry_monotonic_seq_and_fields() {
        let obs = Obs::ring(16);
        obs.event("a", "first", &[("x", 1i64.into()), ("s", "hey".into())]);
        obs.event("b", "second", &[("ok", true.into())]);
        let events = obs.events();
        assert_eq!(events.len(), 2);
        assert!(events[0].seq < events[1].seq);
        assert_eq!(events[0].name, "first");
        assert_eq!(events[0].field("x"), Some(&FieldValue::I64(1)));
        assert_eq!(events[1].field("ok"), Some(&FieldValue::Bool(true)));
    }

    #[test]
    fn span_records_duration_and_histogram() {
        let obs = Obs::ring(16);
        let mut span = obs.span("core", "refit");
        span.field("points", 42u64);
        let us = span.finish();
        let events = obs.events();
        assert_eq!(events.len(), 1);
        match events[0].field("duration_us") {
            Some(&FieldValue::U64(d)) => assert_eq!(d, us),
            other => panic!("bad duration field {other:?}"),
        }
        let metrics = obs.metrics();
        let hist = &metrics.histograms["core.refit.us"];
        assert_eq!(hist.count, 1);
    }

    #[test]
    fn metric_names_may_be_built_at_runtime() {
        let obs = Obs::ring(8);
        for shard in 0..3 {
            obs.counter_add(&format!("engine.shard{shard}.evictions"), shard + 1);
            obs.gauge_set(&format!("engine.shard{shard}.queue_depth"), shard as f64);
        }
        let m = obs.metrics();
        assert_eq!(m.counter("engine.shard2.evictions"), 3);
        assert_eq!(m.gauges["engine.shard1.queue_depth"], 1.0);
    }

    #[test]
    fn jsonl_round_trips_through_serde() {
        let obs = Obs::ring(8);
        obs.event(
            "core.streaming",
            "env_restart",
            &[
                ("from", "Los".into()),
                ("to", "Nlos".into()),
                ("residual_db", 3.25.into()),
                ("batch", 7u64.into()),
                ("confirmed", true.into()),
            ],
        );
        obs.event("core.anf", "filter", &[("mean_innovation", (-0.5).into())]);
        let text = obs.events_to_jsonl();
        assert_eq!(text.lines().count(), 2);
        let back = events_from_jsonl(&text).expect("parses");
        assert_eq!(back, obs.events());
    }
}
