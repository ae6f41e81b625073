//! The multi-beacon tracking engine.
//!
//! Dataflow per cycle:
//!
//! 1. [`Engine::ingest`] — single-threaded control plane. Each advert is
//!    validated (finite, per-beacon in-order), admitted by the
//!    [`SessionRegistry`] (capacity limit), and routed by beacon-id hash
//!    to its shard's FIFO queue. A full shard queue stops ingestion and
//!    reports how much of the slice was consumed (backpressure).
//! 2. [`Engine::process`] — the calling thread and the engine's
//!    persistent worker pool (`threads − 1` parked std threads, spawned
//!    on the first pass that needs them, joined on drop; no
//!    dependencies) drain the shards. A shard is always drained by
//!    exactly one worker, so per-beacon sample order is preserved no
//!    matter how many threads run; each worker takes a fixed stride of
//!    the shards, so a shard stays on one thread from pass to pass
//!    (see `pool.rs`). Each shard's sessions batch their
//!    samples into 2.2 s windows and run the per-beacon estimation
//!    backend selected by [`EngineConfig::backend`] (the streaming
//!    regression by default). Idle sessions are then evicted.
//! 3. [`Engine::snapshot`] — current [`LocationEstimate`]s of every live
//!    session, in beacon-id order.
//!
//! **Determinism guarantee:** for a fixed input stream, every estimate
//! the engine produces is bit-identical to feeding each beacon's
//! samples through a standalone estimator of the configured backend
//! sequentially — across any thread count and any slicing of the
//! ingest calls. The differential test suite (`tests/determinism.rs`)
//! enforces this.

use crate::pool::{PoolWork, WorkerPool};
use crate::registry::{AdmitError, Admitted, SessionMeta, SessionRegistry};
use crate::router::{shard_of, Advert, ShardQueues};
use crate::state::{BeaconSessionState, EngineState, RestoreError, SessionState};
use locble_ble::BeaconId;
use locble_core::backend::Estimator as EstimatorBackend;
use locble_core::{BackendSpec, Estimator, LocationEstimate, RssBatch};
use locble_geom::Trajectory;
use locble_motion::{MotionTrack, StepResult};
use locble_obs::{Obs, Stage, TraceCtx};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of shards beacons hash onto. Fixed at construction;
    /// independent of the thread count (so results are too).
    pub shards: usize,
    /// Worker threads draining shards in [`Engine::process`], the
    /// calling thread included (`threads − 1` helpers are pooled).
    pub threads: usize,
    /// Maximum live sessions; new beacons beyond it are rejected until
    /// eviction frees slots.
    pub max_sessions: usize,
    /// Evict a session once its newest sample is more than this many
    /// seconds behind the stream watermark. `f64::INFINITY` disables
    /// eviction.
    pub idle_evict_s: f64,
    /// Per-beacon batch window, seconds (paper §5.3: 2–3 s batches).
    pub batch_window_s: f64,
    /// Per-shard ingest queue capacity (backpressure threshold).
    pub shard_queue_cap: usize,
    /// Refit every n-th batch per session (1 = the paper's every-batch
    /// behaviour); [`Engine::finish`] always refits pending data.
    pub refit_stride: usize,
    /// Which estimation backend sessions run (per-workload selection):
    /// the paper's streaming regression by default, or the particle /
    /// fingerprint alternatives. [`Engine::restore`] refuses snapshots
    /// exported under a different backend.
    pub backend: BackendSpec,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            shards: 16,
            threads: std::thread::available_parallelism()
                .map_or(4, |n| n.get())
                .min(8),
            max_sessions: 4096,
            idle_evict_s: 60.0,
            batch_window_s: 2.2,
            shard_queue_cap: 8192,
            refit_stride: 1,
            backend: BackendSpec::Streaming,
        }
    }
}

impl EngineConfig {
    fn normalized(mut self) -> EngineConfig {
        self.shards = self.shards.max(1);
        self.threads = self.threads.max(1);
        self.max_sessions = self.max_sessions.max(1);
        self.shard_queue_cap = self.shard_queue_cap.max(1);
        self.refit_stride = self.refit_stride.max(1);
        assert!(
            self.batch_window_s.is_finite() && self.batch_window_s > 0.0,
            "batch window must be positive, got {}",
            self.batch_window_s
        );
        assert!(
            self.idle_evict_s > 0.0,
            "idle eviction threshold must be positive, got {}",
            self.idle_evict_s
        );
        self
    }
}

/// What one [`Engine::ingest`] call did with its slice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Adverts taken off the front of the slice (routed + rejected).
    /// When `consumed < adverts.len()` a shard queue filled up; call
    /// [`Engine::process`] and re-offer the remainder.
    pub consumed: usize,
    /// Adverts routed to shard queues.
    pub routed: usize,
    /// Sessions created by first-contact adverts.
    pub sessions_created: usize,
    /// Adverts dropped for NaN/infinite timestamp or RSSI.
    pub rejected_non_finite: usize,
    /// Adverts dropped for violating per-beacon time order.
    pub rejected_out_of_order: usize,
    /// Adverts dropped because the session table was full.
    pub rejected_capacity: usize,
}

impl IngestReport {
    /// Total dropped adverts.
    pub fn rejected(&self) -> usize {
        self.rejected_non_finite + self.rejected_out_of_order + self.rejected_capacity
    }

    /// Folds another report (e.g. from a retry loop) into this one.
    pub fn absorb(&mut self, other: IngestReport) {
        self.consumed += other.consumed;
        self.routed += other.routed;
        self.sessions_created += other.sessions_created;
        self.rejected_non_finite += other.rejected_non_finite;
        self.rejected_out_of_order += other.rejected_out_of_order;
        self.rejected_capacity += other.rejected_capacity;
    }
}

/// What one [`Engine::process`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessReport {
    /// Samples consumed from shard queues.
    pub samples_processed: usize,
    /// Completed batches pushed into sessions.
    pub batches_pushed: usize,
    /// Sessions evicted for idleness.
    pub sessions_evicted: usize,
    /// Deepest shard queue encountered at drain time.
    pub max_queue_depth: usize,
}

/// Cumulative engine statistics (all monotonic except `sessions_live`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Adverts routed to shards since construction.
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
    pub sessions_live: usize,
    /// Completed batches pushed into sessions.
    pub batches_pushed: u64,
    /// Batches the validation boundary refused (should stay 0 — ingest
    /// already validates; counted defensively).
    pub batches_rejected: u64,
    /// [`Engine::process`] calls.
    pub processes: u64,
}

/// Per-session public view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionStats {
    /// Shard the session lives on.
    pub shard: usize,
    /// Samples routed for this beacon.
    pub samples_routed: u64,
    /// Samples its estimator has consumed (routed minus still-queued).
    pub samples_processed: u64,
    /// Completed batches pushed so far.
    pub batches: u64,
    /// Newest routed timestamp, seconds.
    pub last_t: f64,
    /// Current estimate, if the session has produced one.
    pub estimate: Option<LocationEstimate>,
}

/// One beacon's tracking session: the estimation backend plus the
/// batch under construction. The backend is trait-boxed so the engine
/// dataflow is identical whichever algorithm the config selects.
struct BeaconSession {
    estimator: Box<dyn EstimatorBackend>,
    batch_t: Vec<f64>,
    batch_v: Vec<f64>,
    batch_start: f64,
    samples: u64,
    batches: u64,
}

impl BeaconSession {
    fn new(spec: &BackendSpec, prototype: &Estimator, refit_stride: usize) -> BeaconSession {
        BeaconSession {
            estimator: spec.build(prototype, refit_stride),
            batch_t: Vec::new(),
            batch_v: Vec::new(),
            batch_start: 0.0,
            samples: 0,
            batches: 0,
        }
    }

    /// Accepts one in-order sample; completes the pending batch when the
    /// sample opens a new window. Returns (batches pushed, batches
    /// rejected by validation).
    fn push_sample(&mut self, t: f64, v: f64, window_s: f64, motion: &MotionTrack) -> (u64, u64) {
        let mut flushed = (0, 0);
        if self.batch_t.is_empty() {
            self.batch_start = t;
        } else if t >= self.batch_start + window_s {
            flushed = self.flush_batch(motion);
            self.batch_start = t;
        }
        self.batch_t.push(t);
        self.batch_v.push(v);
        self.samples += 1;
        flushed
    }

    /// Pushes the batch under construction (if any) into the estimator.
    fn flush_batch(&mut self, motion: &MotionTrack) -> (u64, u64) {
        if self.batch_t.is_empty() {
            return (0, 0);
        }
        let t = std::mem::take(&mut self.batch_t);
        let v = std::mem::take(&mut self.batch_v);
        match RssBatch::try_new(t, v) {
            Ok(batch) => {
                self.estimator.push_batch(&batch, motion);
                self.batches += 1;
                // Reclaim the batch buffers: a warm session builds its
                // next window in the same allocations.
                let (mut t, mut v) = batch.into_parts();
                t.clear();
                v.clear();
                self.batch_t = t;
                self.batch_v = v;
                (1, 0)
            }
            // Unreachable in practice — ingest validates — but a bad
            // batch must never take a worker down.
            Err(_) => (0, 1),
        }
    }
}

/// Per-shard worker state: the sessions living on this shard, plus the
/// hand-off slots of a drain pass — the queued adverts and eviction
/// decisions moved in before it, the report it leaves behind.
#[derive(Default)]
struct ShardState {
    sessions: BTreeMap<BeaconId, BeaconSession>,
    inbox: VecDeque<Advert>,
    evictions: Vec<(BeaconId, SessionMeta)>,
    report: DrainReport,
}

/// What one worker did to one shard during a drain.
#[derive(Debug, Clone, Copy, Default)]
struct DrainReport {
    samples: u64,
    batches: u64,
    batches_rejected: u64,
    evicted: u64,
    queue_depth: usize,
    /// Wall time the worker spent draining this shard, microseconds.
    /// Only measured while traced batches are pending (zero otherwise).
    drain_us: u64,
}

/// Per-shard metric names, formatted once at construction so the
/// per-drain hot loop never pays `format!` — not even on the enabled
/// path. `None` under a noop handle: the names are never built at all.
struct ShardMetricNames {
    queue_depth: String,
    samples: String,
    evictions: String,
}

fn shard_metric_names(obs: &Obs, shards: usize) -> Option<Vec<ShardMetricNames>> {
    obs.enabled().then(|| {
        (0..shards)
            .map(|i| ShardMetricNames {
                queue_depth: format!("engine.shard{i}.queue_depth"),
                samples: format!("engine.shard{i}.samples"),
                evictions: format!("engine.shard{i}.evictions"),
            })
            .collect()
    })
}

/// A traced batch awaiting its asynchronous stage laps: created by
/// [`Engine::ingest_traced`] when tracing is live, closed by the next
/// [`Engine::process`], which attributes the shard-queue wait and the
/// drain (refit) duration to the trace.
struct TraceMark {
    trace_id: u64,
    /// The recording handle the trace lives in — the *caller's* (e.g.
    /// the server's), which need not be the engine's own.
    obs: Obs,
    /// `obs.now_us()` when the batch was routed into shard queues.
    enqueued_us: u64,
    /// Shards the batch touched; the refit lap is the slowest of them.
    shards: Vec<usize>,
}

/// Pending trace marks retained between `process` calls before the
/// oldest is dropped (guards a caller that traces but never processes).
const MAX_PENDING_MARKS: usize = 1024;

/// Reusable per-[`Engine::process`] buffers, sized once at
/// construction. With these (plus the shard queues' recycled deques
/// and each session's reclaimed batch buffers), a steady-state process
/// call runs without heap allocation on any thread count.
#[derive(Default)]
struct ProcessScratch {
    /// Eviction decisions bucketed by shard (cleared, never shrunk;
    /// swapped with the shards' own lists each pass).
    evictions: Vec<Vec<(BeaconId, SessionMeta)>>,
    /// Per-shard drain reports for the shared fold.
    reports: Vec<DrainReport>,
}

/// One drain pass as every worker sees it.
#[derive(Clone)]
struct Pass {
    /// Also push each session's partial batch and refit
    /// ([`Engine::finish`]).
    finish: bool,
    /// Measure each shard's drain (traced batches are pending).
    timed: bool,
    motion: Arc<MotionTrack>,
}

/// Everything a drain worker touches, shared by `Arc` between the
/// engine and its pooled helpers.
struct Core {
    config: EngineConfig,
    prototype: Estimator,
    obs: Obs,
    shards: Vec<Mutex<ShardState>>,
}

impl PoolWork for Core {
    type Pass = Pass;

    fn units(&self) -> usize {
        self.shards.len()
    }

    /// Drains one shard's inbox in FIFO order, applies its evictions
    /// (queued samples are always processed first) and, on a finish
    /// pass, completes every session. Deques and eviction lists are
    /// emptied in place so their capacity survives.
    fn run(&self, pass: &Pass, i: usize) {
        let t0 = pass.timed.then(Instant::now);
        let mut guard = self.shards[i].lock().expect("shard not poisoned");
        let state = &mut *guard;
        let motion: &MotionTrack = &pass.motion;
        let config = &self.config;
        let mut report = DrainReport {
            queue_depth: state.inbox.len(),
            ..DrainReport::default()
        };
        while let Some(advert) = state.inbox.pop_front() {
            let session = state.sessions.entry(advert.beacon).or_insert_with(|| {
                BeaconSession::new(&config.backend, &self.prototype, config.refit_stride)
            });
            let (pushed, rejected) =
                session.push_sample(advert.t, advert.rssi_dbm, config.batch_window_s, motion);
            report.samples += 1;
            report.batches += pushed;
            report.batches_rejected += rejected;
        }
        for (beacon, meta) in state.evictions.drain(..) {
            if state.sessions.remove(&beacon).is_some() {
                report.evicted += 1;
                if self.obs.enabled() {
                    self.obs.event(
                        "engine",
                        "session_evicted",
                        &[
                            ("beacon", u64::from(beacon.0).into()),
                            ("shard", i.into()),
                            ("last_t", meta.last_t.into()),
                            ("idle_threshold_s", config.idle_evict_s.into()),
                        ],
                    );
                }
            }
        }
        if pass.finish {
            for session in state.sessions.values_mut() {
                let (pushed, rejected) = session.flush_batch(motion);
                report.batches += pushed;
                report.batches_rejected += rejected;
                session.estimator.refit_now(motion);
            }
        }
        if let Some(t0) = t0 {
            report.drain_us = t0.elapsed().as_micros() as u64;
        }
        state.report = report;
    }
}

/// The concurrent multi-beacon tracking engine. See the module docs for
/// the dataflow and the determinism guarantee.
pub struct Engine {
    core: Arc<Core>,
    /// `threads − 1` drain helpers, spawned by the first pass that
    /// needs them.
    pool: WorkerPool<Core>,
    registry: SessionRegistry,
    queues: ShardQueues,
    motion: Arc<MotionTrack>,
    watermark: f64,
    stats: EngineStats,
    shard_names: Option<Vec<ShardMetricNames>>,
    pending_marks: Vec<TraceMark>,
    scratch: ProcessScratch,
}

/// An empty motion track (engine before the first motion update).
fn empty_track() -> MotionTrack {
    MotionTrack {
        trajectory: Trajectory::new(),
        steps: StepResult {
            step_times: Vec::new(),
            frequency_hz: 0.0,
            step_length_m: 0.0,
            distance_m: 0.0,
        },
        turns: Vec::new(),
    }
}

impl Engine {
    /// An engine whose sessions clone `prototype` (estimator config +
    /// trained EnvAware model). Instrumentation goes through `obs`
    /// (pass [`Obs::noop`] to run silent).
    pub fn new(config: EngineConfig, prototype: Estimator, obs: Obs) -> Engine {
        let config = config.normalized();
        let core = Arc::new(Core {
            shards: (0..config.shards)
                .map(|_| Mutex::new(ShardState::default()))
                .collect(),
            config,
            prototype,
            obs,
        });
        let config = &core.config;
        Engine {
            pool: WorkerPool::new(Arc::clone(&core), config.threads.min(config.shards) - 1),
            registry: SessionRegistry::new(config.max_sessions),
            queues: ShardQueues::new(config.shards, config.shard_queue_cap),
            motion: Arc::new(empty_track()),
            watermark: f64::NEG_INFINITY,
            stats: EngineStats::default(),
            shard_names: shard_metric_names(&core.obs, config.shards),
            pending_marks: Vec::new(),
            scratch: ProcessScratch {
                evictions: (0..config.shards).map(|_| Vec::new()).collect(),
                reports: vec![DrainReport::default(); config.shards],
            },
            core,
        }
    }

    /// Pre-grows every live session's batch buffers and estimator for
    /// `additional` more samples per session. A warm engine whose
    /// sessions stay within that headroom runs steady-state
    /// [`Engine::process`] calls entirely off the allocator, on any
    /// thread count.
    pub fn reserve_headroom(&mut self, additional: usize) {
        for state in &self.core.shards {
            let mut state = state.lock().expect("shard not poisoned");
            for session in state.sessions.values_mut() {
                session.batch_t.reserve(additional);
                session.batch_v.reserve(additional);
                session.estimator.reserve(additional);
            }
        }
    }

    /// The effective (normalized) configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.core.config
    }

    /// The estimator prototype new sessions clone — what a cluster peer
    /// needs to rebuild this engine from an exported state.
    pub fn prototype(&self) -> &Estimator {
        &self.core.prototype
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            sessions_live: self.registry.len(),
            ..self.stats
        }
    }

    /// Newest finite timestamp routed so far (`-inf` before any).
    pub fn watermark(&self) -> f64 {
        self.watermark
    }

    /// Samples sitting in shard queues right now (routed, not yet
    /// processed).
    pub fn queued(&self) -> usize {
        self.queues.total_depth()
    }

    /// Processes until every shard queue is empty and returns the folded
    /// report. One [`Engine::process`] already drains everything queued
    /// at its start; the loop guards the shutdown path against any
    /// future process variant that drains partially.
    pub fn drain(&mut self) -> ProcessReport {
        let mut total = ProcessReport::default();
        loop {
            let report = self.process();
            total.samples_processed += report.samples_processed;
            total.batches_pushed += report.batches_pushed;
            total.sessions_evicted += report.sessions_evicted;
            total.max_queue_depth = total.max_queue_depth.max(report.max_queue_depth);
            if self.queued() == 0 {
                return total;
            }
        }
    }

    /// Replaces the shared observer motion track. All sessions use the
    /// latest track for subsequent refits (one observer walks; many
    /// beacons are heard — paper §5.3's fusion input).
    pub fn set_motion(&mut self, track: MotionTrack) {
        self.motion = Arc::new(track);
    }

    /// Validates and routes a slice of adverts. Stops early when a shard
    /// queue fills (see [`IngestReport::consumed`]); drain with
    /// [`Engine::process`] and re-offer the remainder, or use
    /// [`Engine::ingest_all`].
    pub fn ingest(&mut self, adverts: &[Advert]) -> IngestReport {
        let mut report = IngestReport::default();
        for advert in adverts {
            if !advert.t.is_finite() || !advert.rssi_dbm.is_finite() {
                report.consumed += 1;
                report.rejected_non_finite += 1;
                continue;
            }
            if self.queues.would_block(advert.beacon) {
                self.core.obs.counter_add("engine.backpressure_stalls", 1);
                break;
            }
            let shard = shard_of(advert.beacon, self.core.config.shards);
            match self.registry.admit(advert.beacon, shard, advert.t) {
                Ok(created) => {
                    if created == Admitted::Created {
                        report.sessions_created += 1;
                        if self.core.obs.enabled() {
                            self.core.obs.event(
                                "engine",
                                "session_created",
                                &[
                                    ("beacon", u64::from(advert.beacon.0).into()),
                                    ("shard", shard.into()),
                                    ("t", advert.t.into()),
                                ],
                            );
                        }
                    }
                }
                Err(AdmitError::Full { .. }) => {
                    report.consumed += 1;
                    report.rejected_capacity += 1;
                    continue;
                }
                Err(AdmitError::OutOfOrder { .. }) => {
                    report.consumed += 1;
                    report.rejected_out_of_order += 1;
                    continue;
                }
            }
            self.queues
                .push(*advert)
                .expect("would_block checked above");
            self.watermark = self.watermark.max(advert.t);
            report.consumed += 1;
            report.routed += 1;
        }
        self.stats.samples_routed += report.routed as u64;
        self.stats.samples_rejected += report.rejected() as u64;
        self.stats.sessions_created += report.sessions_created as u64;
        let obs = &self.core.obs;
        obs.counter_add("engine.samples_routed", report.routed as u64);
        obs.counter_add("engine.sessions_created", report.sessions_created as u64);
        if report.rejected() > 0 {
            obs.counter_add("engine.samples_rejected", report.rejected() as u64);
            obs.counter_add(
                "engine.samples_rejected_non_finite",
                report.rejected_non_finite as u64,
            );
            obs.counter_add(
                "engine.samples_rejected_out_of_order",
                report.rejected_out_of_order as u64,
            );
            obs.counter_add(
                "engine.samples_rejected_capacity",
                report.rejected_capacity as u64,
            );
        }
        report
    }

    /// Ingests the whole slice, interleaving [`Engine::process`] calls
    /// whenever backpressure stalls the stream. Returns the folded
    /// report.
    pub fn ingest_all(&mut self, adverts: &[Advert]) -> IngestReport {
        let mut total = IngestReport::default();
        let mut offset = 0;
        while offset < adverts.len() {
            let report = self.ingest(&adverts[offset..]);
            offset += report.consumed;
            total.absorb(report);
            if offset < adverts.len() {
                self.process();
            }
        }
        total
    }

    /// [`Engine::ingest`] with trace attribution: records a `route` lap
    /// against `ctx` and leaves a mark so the next [`Engine::process`]
    /// can attribute the shard-queue wait and drain duration to the
    /// trace. `obs` is the *recording* handle (usually the server's) —
    /// it need not be the engine's own, and when it is disabled this is
    /// exactly [`Engine::ingest`]: one branch, no clock reads, no
    /// allocation. Tracing never feeds the estimators, so estimates
    /// stay bit-identical to the untraced path.
    pub fn ingest_traced(&mut self, adverts: &[Advert], ctx: TraceCtx, obs: &Obs) -> IngestReport {
        if !obs.enabled() {
            return self.ingest(adverts);
        }
        let start_us = obs.now_us();
        let report = self.ingest(adverts);
        let ctx = ctx.with_stage(Stage::Route);
        obs.trace_begin(ctx);
        obs.trace_stage(
            ctx.trace_id,
            Stage::Route,
            start_us,
            obs.now_us().saturating_sub(start_us),
        );
        let mut shards: Vec<usize> = adverts[..report.consumed]
            .iter()
            .map(|a| shard_of(a.beacon, self.core.config.shards))
            .collect();
        shards.sort_unstable();
        shards.dedup();
        if self.pending_marks.len() >= MAX_PENDING_MARKS {
            self.pending_marks.remove(0);
        }
        self.pending_marks.push(TraceMark {
            trace_id: ctx.trace_id,
            obs: obs.clone(),
            enqueued_us: obs.now_us(),
            shards,
        });
        report
    }

    /// Drains every shard queue across the worker pool, then evicts idle
    /// sessions. Deterministic for any thread count: each shard is
    /// drained by exactly one worker, in FIFO order.
    pub fn process(&mut self) -> ProcessReport {
        self.pass(false)
    }

    /// Completes the stream: processes everything still queued, pushes
    /// every session's partial trailing batch, and forces a final refit
    /// where the refit stride left estimates stale. Call at end-of-walk
    /// before reading [`Engine::snapshot`].
    pub fn finish(&mut self) -> ProcessReport {
        self.pass(true)
    }

    /// One drain pass over every shard: [`Engine::process`], plus the
    /// per-session completion of [`Engine::finish`] when `finish`.
    fn pass(&mut self, finish: bool) -> ProcessReport {
        let n_shards = self.core.config.shards;
        // Eviction decisions come from the single-threaded registry so
        // they cannot depend on worker timing; workers apply them after
        // draining, so queued samples are always processed first.
        let evicted = self
            .registry
            .evict_idle(self.watermark, self.core.config.idle_evict_s);
        for bucket in &mut self.scratch.evictions {
            bucket.clear();
        }
        for (beacon, meta) in evicted {
            self.scratch.evictions[meta.shard].push((beacon, meta));
        }

        // Close out traced batches routed since the last process call:
        // their shard-queue wait ends now, and their refit lap is the
        // drain about to run. Per-shard drain timing is only measured
        // while marks are pending — untraced processing reads no clocks.
        let marks = std::mem::take(&mut self.pending_marks);
        let drain_start_us: Vec<u64> = marks.iter().map(|m| m.obs.now_us()).collect();
        let mut span = self.core.obs.span("engine", "process");

        // Hand each shard its queued adverts and evictions. The deque
        // goes back to the router after the pass and the eviction lists
        // swap, so every buffer keeps its capacity.
        let mut busy = 0usize;
        for i in 0..n_shards {
            let mut state = self.core.shards[i].lock().expect("shard not poisoned");
            state.inbox = self.queues.take_shard(i);
            std::mem::swap(&mut state.evictions, &mut self.scratch.evictions[i]);
            if !state.inbox.is_empty()
                || !state.evictions.is_empty()
                || (finish && !state.sessions.is_empty())
            {
                busy += 1;
            }
        }
        // The caller drains too; helpers only pay off with a busy shard
        // left for each.
        let pass = Pass {
            finish,
            timed: !marks.is_empty(),
            motion: Arc::clone(&self.motion),
        };
        self.pool.run(pass, busy.saturating_sub(1));

        let obs = &self.core.obs;
        let mut out = ProcessReport::default();
        for i in 0..n_shards {
            let mut state = self.core.shards[i].lock().expect("shard not poisoned");
            self.queues
                .restore_shard(i, std::mem::take(&mut state.inbox));
            let r = state.report;
            drop(state);
            self.scratch.reports[i] = r;
            out.samples_processed += r.samples as usize;
            out.batches_pushed += r.batches as usize;
            out.sessions_evicted += r.evicted as usize;
            out.max_queue_depth = out.max_queue_depth.max(r.queue_depth);
            self.stats.samples_processed += r.samples;
            self.stats.batches_pushed += r.batches;
            self.stats.batches_rejected += r.batches_rejected;
            self.stats.sessions_evicted += r.evicted;
            if let Some(names) = &self.shard_names {
                let n = &names[i];
                obs.gauge_set(&n.queue_depth, 0.0);
                obs.counter_add(&n.samples, r.samples);
                if r.evicted > 0 {
                    obs.counter_add(&n.evictions, r.evicted);
                }
                obs.histogram_observe("engine.queue_depth_at_drain", r.queue_depth as f64);
            }
        }
        for (mark, start_us) in marks.into_iter().zip(drain_start_us) {
            mark.obs.trace_stage(
                mark.trace_id,
                Stage::ShardQueue,
                mark.enqueued_us,
                start_us.saturating_sub(mark.enqueued_us),
            );
            let refit_us = mark
                .shards
                .iter()
                .map(|&s| self.scratch.reports[s].drain_us)
                .max()
                .unwrap_or(0);
            mark.obs
                .trace_stage(mark.trace_id, Stage::Refit, start_us, refit_us);
        }
        self.stats.processes += 1;
        obs.counter_add("engine.batches_pushed", out.batches_pushed as u64);
        obs.counter_add("engine.sessions_evicted", out.sessions_evicted as u64);
        obs.gauge_set("engine.sessions_live", self.registry.len() as f64);
        span.field("samples", out.samples_processed);
        span.field("batches", out.batches_pushed);
        span.field("evicted", out.sessions_evicted);
        drop(span);
        out
    }

    /// Current estimates of every live session that has one, in
    /// ascending beacon-id order.
    pub fn snapshot(&self) -> Vec<(BeaconId, LocationEstimate)> {
        let mut out = Vec::new();
        for state in &self.core.shards {
            let state = state.lock().expect("shard not poisoned");
            for (&beacon, session) in &state.sessions {
                if let Some(est) = session.estimator.current() {
                    out.push((beacon, *est));
                }
            }
        }
        out.sort_by_key(|(b, _)| b.0);
        out
    }

    /// The current estimate of one beacon, if its session has one.
    pub fn estimate_of(&self, beacon: BeaconId) -> Option<LocationEstimate> {
        let meta = self.registry.meta(beacon)?;
        let state = self.core.shards[meta.shard]
            .lock()
            .expect("shard not poisoned");
        state
            .sessions
            .get(&beacon)
            .and_then(|s| s.estimator.current().copied())
    }

    /// Combined registry + session view of one beacon.
    pub fn session_stats(&self, beacon: BeaconId) -> Option<SessionStats> {
        let meta = self.registry.meta(beacon)?;
        let state = self.core.shards[meta.shard]
            .lock()
            .expect("shard not poisoned");
        let session = state.sessions.get(&beacon);
        Some(SessionStats {
            shard: meta.shard,
            samples_routed: meta.samples,
            samples_processed: session.map_or(0, |s| s.samples),
            batches: session.map_or(0, |s| s.batches),
            last_t: meta.last_t,
            estimate: session.and_then(|s| s.estimator.current().copied()),
        })
    }

    /// Live beacons in ascending id order.
    pub fn beacons(&self) -> Vec<BeaconId> {
        self.registry.beacons().collect()
    }

    /// Extracts the engine's complete persistable state (see
    /// [`EngineState`]). Read-only and valid at any moment between
    /// calls — mid-stream, with partial batches open and adverts still
    /// queued — which is what lets the durability layer checkpoint
    /// without quiescing the stream first.
    pub fn export_state(&self) -> EngineState {
        let mut sessions = Vec::with_capacity(self.registry.len());
        for beacon in self.registry.beacons() {
            let meta = *self.registry.meta(beacon).expect("beacon is live");
            let state = self.core.shards[meta.shard]
                .lock()
                .expect("shard not poisoned");
            let session = state.sessions.get(&beacon).map(|s| BeaconSessionState {
                estimator: s.estimator.export_state(),
                batch_t: s.batch_t.clone(),
                batch_v: s.batch_v.clone(),
                batch_start: s.batch_start,
                samples: s.samples,
                batches: s.batches,
            });
            sessions.push(SessionState {
                beacon,
                shard: meta.shard,
                last_t: meta.last_t,
                created_t: meta.created_t,
                samples_routed: meta.samples,
                session,
            });
        }
        EngineState {
            shards: self.core.config.shards,
            watermark: self.watermark,
            stats: self.stats,
            motion: (*self.motion).clone(),
            sessions,
            queued: (0..self.core.config.shards)
                .map(|s| self.queues.iter_shard(s).copied().collect())
                .collect(),
        }
    }

    /// Rebuilds an engine from a snapshot. With the same `config` and
    /// `prototype` the snapshot was exported under, the restored engine
    /// is the one the state was exported from: feeding it the adverts
    /// offered after the snapshot (the WAL tail) through the normal
    /// ingest path, in any slicing, yields the same estimates and
    /// counters as an engine that never crashed (every admit/reject
    /// decision replays identically because the WAL records *offered*
    /// adverts in offer order). Call
    /// [`Engine::process`]/[`Engine::finish`] afterwards exactly as the
    /// uninterrupted run would have.
    pub fn restore(
        config: EngineConfig,
        prototype: Estimator,
        obs: Obs,
        state: EngineState,
    ) -> Result<Engine, RestoreError> {
        let config = config.normalized();
        if config.shards != state.shards {
            return Err(RestoreError::ShardMismatch {
                snapshot: state.shards,
                config: config.shards,
            });
        }
        if state.sessions.len() > config.max_sessions {
            return Err(RestoreError::SessionOverflow {
                sessions: state.sessions.len(),
                max_sessions: config.max_sessions,
            });
        }
        for (shard, queue) in state.queued.iter().enumerate() {
            if queue.len() > config.shard_queue_cap {
                return Err(RestoreError::QueueOverflow {
                    shard,
                    depth: queue.len(),
                    capacity: config.shard_queue_cap,
                });
            }
        }

        let mut engine = Engine::new(config, prototype, obs);
        engine.motion = Arc::new(state.motion);
        engine.watermark = state.watermark;
        engine.stats = state.stats;
        for s in state.sessions {
            engine.registry.inject(
                s.beacon,
                SessionMeta {
                    shard: s.shard,
                    last_t: s.last_t,
                    created_t: s.created_t,
                    samples: s.samples_routed,
                },
            );
            if let Some(b) = s.session {
                let core = &engine.core;
                let estimator = core
                    .config
                    .backend
                    .restore(&core.prototype, core.config.refit_stride, b.estimator)
                    .map_err(|e| RestoreError::BackendMismatch {
                        expected: e.expected,
                        found: e.found,
                    })?;
                let session = BeaconSession {
                    estimator,
                    batch_t: b.batch_t,
                    batch_v: b.batch_v,
                    batch_start: b.batch_start,
                    samples: b.samples,
                    batches: b.batches,
                };
                engine.core.shards[s.shard]
                    .lock()
                    .expect("shard not poisoned")
                    .sessions
                    .insert(s.beacon, session);
            }
        }
        for (shard, queue) in state.queued.into_iter().enumerate() {
            engine.queues.restore_shard(shard, queue.into());
        }
        engine.core.obs.counter_add("engine.restores", 1);
        Ok(engine)
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.core.config)
            .field("sessions_live", &self.registry.len())
            .field("queued", &self.queues.total_depth())
            .field("watermark", &self.watermark)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locble_core::EstimatorConfig;

    fn engine(obs: Obs) -> Engine {
        Engine::new(
            EngineConfig {
                shards: 4,
                threads: 2,
                ..EngineConfig::default()
            },
            Estimator::new(EstimatorConfig::default()),
            obs,
        )
    }

    fn adverts(n: usize) -> Vec<Advert> {
        (0..n)
            .map(|i| Advert {
                beacon: BeaconId((i % 7) as u32),
                t: i as f64 * 0.1,
                rssi_dbm: -60.0,
            })
            .collect()
    }

    /// The zero-cost rule, made checkable: under a noop handle the
    /// per-shard metric names are never formatted — not deferred, never
    /// built — while an enabled handle pays once at construction.
    #[test]
    fn shard_metric_names_are_never_formatted_under_noop() {
        assert!(engine(Obs::noop()).shard_names.is_none());
        let names = engine(Obs::ring(8)).shard_names.expect("formatted once");
        assert_eq!(names.len(), 4);
        assert_eq!(names[3].samples, "engine.shard3.samples");
    }

    #[test]
    fn ingest_traced_with_noop_obs_leaves_no_marks() {
        let mut e = engine(Obs::noop());
        let report = e.ingest_traced(&adverts(20), TraceCtx::mint(1), &Obs::noop());
        assert_eq!(report.routed, 20);
        assert!(e.pending_marks.is_empty());
        e.process();
    }

    #[test]
    fn traced_batch_gets_route_queue_and_refit_laps() {
        let obs = Obs::ring(64);
        // The engine runs silent; only the caller's handle records — the
        // serving topology, where the server owns the recording handle.
        let mut e = engine(Obs::noop());
        let ctx = TraceCtx::mint(0xABCD);
        e.ingest_traced(&adverts(50), ctx, &obs);
        assert_eq!(e.pending_marks.len(), 1);
        e.process();
        assert!(e.pending_marks.is_empty());
        let rec = obs.trace_lookup(0xABCD).expect("trace retained");
        for stage in [Stage::Route, Stage::ShardQueue, Stage::Refit] {
            assert!(rec.lap(stage).is_some(), "missing {} lap", stage.name());
            assert!(rec.ctx.has_stage(stage));
        }
        assert!(rec.ctx.has_stage(Stage::Client));
        let m = obs.metrics();
        assert_eq!(m.histograms["trace.route.us"].count, 1);
        assert_eq!(m.histograms["trace.refit.us"].count, 1);
    }

    /// Tracing must never perturb the math: identical streams through
    /// the traced and untraced ingest paths yield bit-identical
    /// estimates.
    #[test]
    fn traced_ingest_is_bit_identical_to_untraced() {
        let input = adverts(300);
        let mut plain = engine(Obs::noop());
        plain.ingest_all(&input);
        plain.finish();
        let obs = Obs::ring(1024);
        let mut traced = engine(Obs::noop());
        let mut offset = 0;
        let mut batch = 0u64;
        while offset < input.len() {
            let ctx = TraceCtx::mint(locble_obs::trace_id(0x7E57, batch));
            let r = traced.ingest_traced(&input[offset..], ctx, &obs);
            offset += r.consumed;
            traced.process();
            batch += 1;
        }
        traced.finish();
        let a = plain.snapshot();
        let b = traced.snapshot();
        assert_eq!(a.len(), b.len());
        for ((id_a, ea), (id_b, eb)) in a.iter().zip(&b) {
            assert_eq!(id_a, id_b);
            assert_eq!(ea.position.x.to_bits(), eb.position.x.to_bits());
            assert_eq!(ea.position.y.to_bits(), eb.position.y.to_bits());
        }
    }
}
