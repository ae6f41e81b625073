//! The traced run: the workload's exact inputs replayed through each
//! layer's public functions, with a span around every call, kept in
//! memory and written out as JSON Lines at the end. The per-layer
//! metrics are derived from those spans; end-to-end metrics come only
//! from untraced runs.
//!
//! The serving-path replay reproduces what the reactor does per tick:
//! decode each request, append each batch to the WAL, route it into the
//! engine, encode the ack, answer queries, checkpoint on the node's
//! cadence, then run one coalesced `Engine::process`. A tick holds one
//! window of requests from every connection, which is what the closed
//! loop delivers at most.

use crate::drive::WINDOW;
use crate::inputs::{self, Lane, Tiled, Workload, LANES, PASSES};
use crate::output::Metric;
use crate::run::{self, out_dir, Problems};
use crate::stats::{median, percentile, thread_cpu_s};
use crate::target::{self, Target, CHECKPOINT_EVERY};
use locble_ble::BeaconId;
use locble_core::{BackendSpec, Estimator, EstimatorConfig, RssBatch};
use locble_engine::{Advert, Engine, EngineConfig};
use locble_net::wire::{
    decode_frame_with_limit, encode_frame, Frame, IngestSummary, NodeRole, WireAdvert,
    WireEstimate, DEFAULT_MAX_FRAME_LEN,
};
use locble_net::{Client, Server, ServerConfig};
use locble_obs::{Obs, TraceCtx};
use locble_store::WAL_FILE;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Set-ups timed per traced run (their medians are reported).
const SETUPS: usize = 3;
/// Round trips timed per cluster and idle-server probe.
const RTT_SAMPLES: usize = 1_000;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// The enclosing span's id, 0 at the top.
    pub parent: u64,
    /// Layer-qualified name, e.g. `store.append`.
    pub name: &'static str,
    /// The batch (or tick, beacon, probe) the span belongs to.
    pub batch: u64,
    /// Start, ns since the run began.
    pub start_ns: u64,
    /// End, ns since the run began.
    pub end_ns: u64,
}

impl Span {
    /// Duration, µs.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// An open span, closed by [`Spans::close`].
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    batch: u64,
    start_ns: u64,
}

/// The in-memory span store.
pub struct Spans {
    t0: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            t0: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` (0 for none).
    pub fn open(&mut self, name: &'static str, parent: u64, batch: u64) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            name,
            batch,
            start_ns: self.now_ns(),
        }
    }

    /// Closes and records a span.
    pub fn close(&mut self, open: Open) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            batch: open.batch,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        batch: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.open(name, parent, batch);
        let out = std::hint::black_box(f());
        self.close(open);
        out
    }

    /// Every span recorded so far.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`, ascending.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Total duration (s) of the spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum::<f64>() / 1e6
    }

    /// Self time (s) of the spans called `name`: their duration minus
    /// the part their child spans cover.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut children: HashMap<u64, u64> = HashMap::new();
        for s in &self.spans {
            *children.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                (s.end_ns - s.start_ns).saturating_sub(children.get(&s.id).copied().unwrap_or(0))
            })
            .sum::<u64>() as f64
            / 1e9
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"batch\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.batch, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-layer results.
pub struct Traced {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

/// The batch id of request `idx` on `lane`: one id per request, shared
/// by every span of that request.
fn batch_id(lane: usize, idx: usize) -> u64 {
    ((lane as u64) << 32) | idx as u64
}

/// What the serving-path replay counted.
#[derive(Default)]
struct ServingCounts {
    requests: u64,
    adverts: u64,
    frames: u64,
    frame_bytes: u64,
    processes: u64,
    batches_pushed: u64,
    sessions_live_peak: usize,
    sessions_evicted: u64,
    wal_bytes: u64,
    /// `(ms, live sessions, snapshot bytes)` per cadence checkpoint.
    checkpoints: Vec<(f64, usize, u64)>,
}

/// Replays the workload's requests through decode → WAL → engine → ack,
/// one reactor tick (`window` requests per connection) at a time.
fn replay_serving(
    spans: &mut Spans,
    lanes: &[Lane],
    window: usize,
    motion: &locble_motion::MotionTrack,
    dir: &Path,
    problems: &mut Problems,
) -> ServingCounts {
    let mut engine = target::engine(motion);
    let mut store = target::store(dir).expect("open the replay store");
    let mut counts = ServingCounts::default();
    let mut last_checkpoint = 0;
    let ticks = lanes
        .iter()
        .map(|l| l.requests.len().div_ceil(window))
        .max()
        .unwrap_or(0);
    for tick in 0..ticks {
        let tick_span = spans.open("reactor.tick", 0, tick as u64);
        for (lane_idx, lane) in lanes.iter().enumerate() {
            let end = ((tick + 1) * window).min(lane.requests.len());
            for idx in (tick * window).min(end)..end {
                let req = lane.requests[idx];
                let bytes = &lane.bytes[req.start..req.end];
                let batch = batch_id(lane_idx, idx);
                counts.requests += 1;
                let frame = spans.time("net.decode", tick_span.id, batch, || {
                    decode_frame_with_limit(bytes, DEFAULT_MAX_FRAME_LEN).map(|(f, _)| f)
                });
                let reply = match frame {
                    Ok(Frame::AdvertBatch(wire)) => {
                        counts.frames += 1;
                        counts.frame_bytes += bytes.len() as u64;
                        counts.adverts += wire.len() as u64;
                        let adverts: Vec<Advert> = wire.iter().map(|a| Advert::from(*a)).collect();
                        let frame = Frame::AdvertBatch(wire);
                        spans.time("net.encode", tick_span.id, batch, || encode_frame(&frame));
                        let appended = spans.time("store.append", tick_span.id, batch, || {
                            store.append(&adverts)
                        });
                        if let Err(e) = appended {
                            problems.push(format!("WAL append failed: {e}"));
                        }
                        let report = spans.time("engine.ingest", tick_span.id, batch, || {
                            engine.ingest_all(&adverts)
                        });
                        let records = store.wal_records();
                        if records - last_checkpoint >= CHECKPOINT_EVERY {
                            let t = Instant::now();
                            let written =
                                spans.time("store.checkpoint", tick_span.id, batch, || {
                                    store.checkpoint(&engine)
                                });
                            match written {
                                Ok(bytes) => counts.checkpoints.push((
                                    t.elapsed().as_secs_f64() * 1e3,
                                    engine.stats().sessions_live,
                                    bytes,
                                )),
                                Err(e) => problems.push(format!("checkpoint failed: {e}")),
                            }
                            last_checkpoint = records;
                        }
                        Frame::IngestAck(IngestSummary::from(report))
                    }
                    Ok(Frame::QueryBeacon(beacon)) => {
                        let est = spans.time("engine.query", tick_span.id, batch, || {
                            engine.estimate_of(BeaconId(beacon))
                        });
                        Frame::BeaconReply(
                            est.map(|e| WireEstimate::from_estimate(BeaconId(beacon), &e)),
                        )
                    }
                    other => {
                        problems.push(format!("request {batch} decoded to {other:?}"));
                        continue;
                    }
                };
                spans.time("net.encode_reply", tick_span.id, batch, || {
                    encode_frame(&reply)
                });
            }
        }
        let report = spans.time("engine.process", tick_span.id, tick as u64, || {
            engine.process()
        });
        counts.processes += 1;
        counts.batches_pushed += report.batches_pushed as u64;
        counts.sessions_live_peak = counts.sessions_live_peak.max(engine.stats().sessions_live);
        spans.close(tick_span);
    }
    engine.drain();
    let stats = engine.stats();
    counts.sessions_evicted = stats.sessions_evicted;
    if stats.samples_rejected > 0 {
        problems.push(format!(
            "replay rejected {} adverts",
            stats.samples_rejected
        ));
    }
    counts.wal_bytes = std::fs::metadata(dir.join(WAL_FILE)).map_or(0, |m| m.len());
    counts
}

/// Pushes every beacon's samples through a standalone estimator of the
/// engine's default backend, cut into the engine's batch windows.
/// Returns `(refits, estimates produced)`.
fn replay_core(spans: &mut Spans, tiled: &Tiled) -> (u64, u64) {
    let window_s = EngineConfig::default().batch_window_s;
    let prototype = Estimator::new(EstimatorConfig::default());
    let mut per_beacon: BTreeMap<u32, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for a in &tiled.adverts {
        let (t, v) = per_beacon.entry(a.beacon.0).or_default();
        t.push(a.t);
        v.push(a.rssi_dbm);
    }
    let (mut refits, mut produced) = (0, 0);
    for (beacon, (t, v)) in per_beacon {
        let mut estimator = BackendSpec::Streaming.build(&prototype, 1);
        let mut start = 0;
        while start < t.len() {
            let mut end = start + 1;
            while end < t.len() && t[end] < t[start] + window_s {
                end += 1;
            }
            let batch = RssBatch::try_new(t[start..end].to_vec(), v[start..end].to_vec())
                .expect("tiled samples are finite and ordered");
            let got = spans.time("core.push_batch", 0, u64::from(beacon), || {
                estimator.push_batch(&batch, &tiled.motion).is_some()
            });
            refits += 1;
            produced += u64::from(got);
            start = end;
        }
    }
    (refits, produced)
}

/// The whole stream through a one-thread engine, no wire and no WAL.
/// Returns the thread's CPU seconds.
fn replay_direct(spans: &mut Spans, tiled: &Tiled) -> f64 {
    let mut engine = Engine::new(
        EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
        Estimator::new(EstimatorConfig::default()),
        Obs::noop(),
    );
    engine.set_motion(tiled.motion.clone());
    let cpu0 = thread_cpu_s();
    spans.time("engine.direct", 0, 0, || {
        engine.ingest_all(&tiled.adverts);
        engine.finish()
    });
    thread_cpu_s() - cpu0
}

/// The first `n` batches of lane 0, as adverts.
fn probe_batches(lanes: &[Lane], n: usize) -> Vec<Vec<Advert>> {
    let lane = &lanes[0];
    lane.requests
        .iter()
        .filter(|r| !r.is_query())
        .take(n)
        .map(|r| {
            match decode_frame_with_limit(&lane.bytes[r.start..r.end], DEFAULT_MAX_FRAME_LEN) {
                Ok((Frame::AdvertBatch(wire), _)) => {
                    wire.iter().map(|a| Advert::from(*a)).collect()
                }
                other => panic!("batch request decoded to {other:?}"),
            }
        })
        .collect()
}

/// Times batches through the cluster front, straight to an owner with
/// `Client::forward`, and straight to a follower with
/// `Client::replicate`, each on its own fresh nodes so no advert is
/// offered twice. Returns the number of failed calls.
fn probe_cluster(
    spans: &mut Spans,
    batches: &[Vec<Advert>],
    motion: &locble_motion::MotionTrack,
    dir: &Path,
) -> u64 {
    let mut failed = 0;
    let cluster = Target::start(Workload::Cluster, motion, &dir.join("front"))
        .expect("start the probe cluster");
    let mut client = Client::connect(cluster.addr()).expect("connect to the front");
    for (i, batch) in batches.iter().enumerate() {
        let ok = spans.time("cluster.front_rtt", 0, i as u64, || {
            client.ingest(batch).is_ok()
        });
        failed += u64::from(!ok);
    }
    drop(client);
    cluster.shutdown();

    let follower = target::cluster_node(motion, &dir.join("f1"), 1, NodeRole::Follower, None)
        .expect("bind the probe follower");
    let owner = target::cluster_node(
        motion,
        &dir.join("o1"),
        1,
        NodeRole::Owner,
        Some(follower.addr().to_string()),
    )
    .expect("bind the probe owner");
    let mut client = Client::connect(owner.addr()).expect("connect to the owner");
    let untraced = TraceCtx {
        trace_id: 0,
        path: 0,
    };
    for (i, batch) in batches.iter().enumerate() {
        let wire: Vec<WireAdvert> = batch.iter().map(|a| WireAdvert::from(*a)).collect();
        let ok = spans.time("cluster.forward_rtt", 0, i as u64, || {
            client.forward(i as u64 + 1, untraced, wire).is_ok()
        });
        failed += u64::from(!ok);
    }
    drop(client);
    owner.shutdown();
    follower.shutdown();

    let follower = target::cluster_node(motion, &dir.join("f2"), 2, NodeRole::Follower, None)
        .expect("bind the probe follower");
    let mut client = Client::connect(follower.addr()).expect("connect to the follower");
    let mut durable = 0;
    for (i, batch) in batches.iter().enumerate() {
        match spans.time("cluster.replicate_rtt", 0, i as u64, || {
            client.replicate(i as u64 + 1, durable, batch)
        }) {
            Ok(d) => durable = d,
            Err(_) => failed += 1,
        }
    }
    drop(client);
    follower.shutdown();
    failed
}

/// Times `Client::stats` round trips against an idle server.
fn probe_idle_rtt(spans: &mut Spans, motion: &locble_motion::MotionTrack) -> u64 {
    let server = Server::bind(target::engine(motion), ServerConfig::default(), Obs::noop())
        .expect("bind the idle server");
    let mut client = Client::connect(server.addr()).expect("connect to the idle server");
    let mut failed = 0;
    for i in 0..RTT_SAMPLES {
        let ok = spans.time("net.idle_rtt", 0, i as u64, || client.stats().is_ok());
        failed += u64::from(!ok);
    }
    drop(client);
    server.shutdown();
    failed
}

fn p50(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        percentile(v, 50.0)
    }
}

/// Runs the traced replay of `workload` for `seed`, writes the span
/// file, and derives every per-layer metric.
pub fn run(workload: Workload, seed: u64, problems: &mut Problems) -> Traced {
    let dir = out_dir().join(format!("traced-{}", std::process::id()));
    let mut spans = Spans::default();

    // Set-up, timed several times.
    let mut built = None;
    for i in 0..SETUPS {
        let tiled = spans.time("setup.trace", 0, i as u64, || {
            let tiled = inputs::build(seed, PASSES);
            let lanes = inputs::lanes(
                &tiled.adverts,
                LANES,
                workload.frame_len(),
                workload.query_every(),
            );
            (tiled, lanes)
        });
        let target = spans.time("setup.bind", 0, i as u64, || {
            Target::start(workload, &tiled.0.motion, &dir.join(format!("bind-{i}")))
        });
        target.expect("start the system under test").shutdown();
        built = Some(tiled);
    }
    let (tiled, lanes) = built.expect("at least one set-up");

    // One untraced round, for server CPU and the generator's share.
    let reference = run::reference(&tiled);
    let round = run::round(workload, seed, &dir.join("round"), &reference, problems);

    let serving = replay_serving(
        &mut spans,
        &lanes,
        WINDOW,
        &tiled.motion,
        &dir.join("replay"),
        problems,
    );
    let (refits, produced) = replay_core(&mut spans, &tiled);
    let direct_cpu_s = replay_direct(&mut spans, &tiled);
    let probes = probe_batches(&lanes, RTT_SAMPLES);
    let mut failed = probe_cluster(&mut spans, &probes, &tiled.motion, &dir.join("cluster"));
    failed += probe_idle_rtt(&mut spans, &tiled.motion);

    let _ = std::fs::remove_dir_all(&dir);
    // One file per workload, overwritten by the next traced run, so
    // repeated runs do not pile up span files.
    let path = out_dir().join(format!("spans-{}.jsonl", workload.name()));
    if let Err(e) = spans.write_jsonl(&path) {
        problems.push(format!("writing {}: {e}", path.display()));
    } else {
        eprintln!("spans: {} written to {}", spans.all().len(), path.display());
    }

    let adverts = serving.adverts as f64;
    let attributed: f64 = [
        "net.decode",
        "store.append",
        "engine.ingest",
        "store.checkpoint",
        "engine.query",
        "net.encode_reply",
        "engine.process",
    ]
    .iter()
    .map(|n| spans.self_s(n))
    .sum();
    let live_peak = serving.sessions_live_peak;
    let mut steady: Vec<(f64, usize, u64)> = serving
        .checkpoints
        .iter()
        .copied()
        .filter(|&(_, live, _)| live * 10 >= live_peak * 9)
        .collect();
    if steady.is_empty() {
        steady = serving.checkpoints.clone();
    }
    let mut checkpoint_ms: Vec<f64> = steady.iter().map(|c| c.0).collect();
    let snapshot_kb =
        steady.iter().map(|c| c.2 as f64).sum::<f64>() / steady.len().max(1) as f64 / 1024.0;
    let push = spans.durations_us("core.push_batch");
    let append = spans.durations_us("store.append");
    let process = spans.durations_us("engine.process");
    let outcome = &round.outcome;
    let metrics = vec![
        Metric::new(
            "setup.trace_s",
            median(&mut spans.durations_us("setup.trace")) / 1e6,
            "s",
        ),
        Metric::new(
            "setup.bind_s",
            median(&mut spans.durations_us("setup.bind")) / 1e6,
            "s",
        ),
        Metric::new(
            "net.encode_us_per_frame",
            spans.total_s("net.encode") * 1e6 / serving.frames as f64,
            "us",
        ),
        Metric::new(
            "net.decode_us_per_frame",
            spans.total_s("net.decode") * 1e6 / serving.requests as f64,
            "us",
        ),
        Metric::new(
            "net.bytes_per_advert",
            serving.frame_bytes as f64 / adverts,
            "count",
        ),
        Metric::new(
            "net.idle_rtt_us_p50",
            p50(&spans.durations_us("net.idle_rtt")),
            "us",
        ),
        Metric::new("store.append_us_p50", p50(&append), "us"),
        Metric::new("store.append_us_p99", percentile(&append, 99.0), "us"),
        Metric::new(
            "store.wal_bytes_per_advert",
            serving.wal_bytes as f64 / adverts,
            "count",
        ),
        Metric::new("store.checkpoint_ms", median(&mut checkpoint_ms), "ms"),
        Metric::new("store.snapshot_kb", snapshot_kb, "count"),
        Metric::new(
            "engine.ingest_us_per_advert",
            spans.total_s("engine.ingest") * 1e6 / adverts,
            "us",
        ),
        Metric::new("engine.process_ms_p50", p50(&process) / 1e3, "ms"),
        Metric::new(
            "engine.process_ms_max",
            process.last().copied().unwrap_or(0.0) / 1e3,
            "ms",
        ),
        Metric::new(
            "engine.batches_per_process",
            serving.batches_pushed as f64 / serving.processes as f64,
            "count",
        ),
        Metric::new("engine.sessions_live_peak", live_peak as f64, "count"),
        Metric::new(
            "engine.sessions_evicted",
            serving.sessions_evicted as f64,
            "count",
        ),
        Metric::new(
            "engine.query_us",
            p50(&spans.durations_us("engine.query")),
            "us",
        ),
        Metric::new(
            "engine.direct_cpu_us_per_advert",
            direct_cpu_s * 1e6 / tiled.adverts.len() as f64,
            "us",
        ),
        Metric::new("core.push_batch_us_p50", p50(&push), "us"),
        Metric::new("core.push_batch_us_p99", percentile(&push, 99.0), "us"),
        Metric::new("core.refits", refits as f64, "count"),
        Metric::new(
            "core.estimate_yield",
            produced as f64 / refits as f64,
            "ratio",
        ),
        Metric::new(
            "cluster.front_rtt_us_p50",
            p50(&spans.durations_us("cluster.front_rtt")),
            "us",
        ),
        Metric::new(
            "cluster.forward_rtt_us_p50",
            p50(&spans.durations_us("cluster.forward_rtt")),
            "us",
        ),
        Metric::new(
            "cluster.replicate_rtt_us_p50",
            p50(&spans.durations_us("cluster.replicate_rtt")),
            "us",
        ),
        Metric::new(
            "loadgen.cpu_share",
            outcome.generator_cpu_s / outcome.wall_s,
            "ratio",
        ),
        Metric::new(
            "trace.unattributed_share",
            1.0 - attributed / round.server_cpu_s,
            "ratio",
        ),
    ];
    let attempted = serving.frames
        + probes.len() as u64 * 3
        + RTT_SAMPLES as u64
        + outcome.adverts
        + outcome.queries;
    failed += outcome.rejected + outcome.failed_adverts + outcome.failed_queries;
    Traced {
        metrics,
        attempted,
        failed,
    }
}
