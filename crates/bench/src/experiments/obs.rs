//! Observability overhead: the serving loadgen replayed under three
//! instrumentation arms.
//!
//! Not a paper figure — it prices the telemetry subsystem (DESIGN.md
//! §13) against the zero-cost claim the engine's determinism story
//! depends on:
//!
//! * **noop** — `Obs::noop()` everywhere, untraced batches. The
//!   baseline.
//! * **instrumented** — a recording flight-recorder handle on the
//!   server (every counter, span, and histogram live), still untraced
//!   batches. This is the arm the 3% acceptance gate applies to: normal
//!   production serving with observability on.
//! * **traced** — instrumented *plus* a client-minted [`TraceCtx`] on
//!   every batch (sent as `Forward` frames), so every stage lap is
//!   recorded. A traced batch runs the untraced schedule; the arm is
//!   reported for visibility, not gated.
//!
//! Each arm replays the identical pre-partitioned fleet trace
//! `reps` times, interleaved (noop, instrumented, traced, noop, …) so
//! slow-machine drift hits all arms alike; the best (minimum) wall
//! time per arm is compared, which is the standard way to price a
//! constant overhead under scheduling noise.

use crate::util::{harness_threads, header, row};
use locble_core::{Estimator, EstimatorConfig};
use locble_engine::{Advert, Engine, EngineConfig};
use locble_net::{Client, Server, ServerConfig, WireAdvert};
use locble_obs::{trace_id, Obs, TraceCtx};
use locble_scenario::fleet_session;
use locble_scenario::runner::track_observer;
use serde::Value;
use std::time::Instant;

/// Acceptance bar: instrumented serving within this percentage of noop.
pub const OVERHEAD_GATE_PCT: f64 = 3.0;

/// Adverts per wire batch (matches the loadgen).
const BATCH: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    Noop,
    Instrumented,
    Traced,
}

/// The pre-built workload: one fleet trace partitioned by beacon id so
/// per-beacon order survives concurrent connections.
struct Workload {
    shares: Vec<Vec<Advert>>,
    samples: usize,
    motion: locble_motion::MotionTrack,
    threads: usize,
}

fn build_workload(n_beacons: usize, connections: usize, seed: u64, threads: usize) -> Workload {
    let session = fleet_session(n_beacons, seed);
    let motion = track_observer(&session);
    let adverts: Vec<Advert> = session
        .interleaved_rss()
        .into_iter()
        .map(Advert::from)
        .collect();
    let connections = connections.max(1);
    let mut shares: Vec<Vec<Advert>> = vec![Vec::new(); connections];
    for advert in &adverts {
        shares[advert.beacon.0 as usize % connections].push(*advert);
    }
    Workload {
        shares,
        samples: adverts.len(),
        motion,
        threads,
    }
}

/// Replays the workload once under one arm; returns wall seconds
/// (connect through shutdown, like the loadgen).
fn replay(workload: &Workload, arm: Arm) -> f64 {
    let config = EngineConfig {
        threads: workload.threads,
        refit_stride: 4,
        ..EngineConfig::default()
    };
    let obs = match arm {
        Arm::Noop => Obs::noop(),
        Arm::Instrumented | Arm::Traced => Obs::ring(8192),
    };
    let mut engine = Engine::new(
        config,
        Estimator::new(EstimatorConfig::default()),
        obs.clone(),
    );
    engine.set_motion(workload.motion.clone());
    let server = Server::bind(engine, ServerConfig::default(), obs).expect("bind on loopback");
    let addr = server.addr();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for (conn, share) in workload.shares.iter().enumerate() {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect to loopback server");
                for (batch, chunk) in share.chunks(BATCH).enumerate() {
                    match arm {
                        Arm::Traced => {
                            let ctx = TraceCtx::mint(trace_id(conn as u64, batch as u64));
                            let wire = chunk.iter().map(|a| WireAdvert::from(*a)).collect();
                            client
                                .forward(batch as u64, ctx, wire)
                                .expect("traced ingest");
                        }
                        _ => {
                            client.ingest(chunk).expect("ingest batch");
                        }
                    }
                }
            });
        }
    });
    let mut control = Client::connect(addr).expect("control connection");
    control.finish().expect("finish");
    drop(control);
    server.shutdown();
    t0.elapsed().as_secs_f64()
}

/// Best-of-`reps` wall seconds for every arm.
pub(crate) struct OverheadMetrics {
    pub samples: usize,
    pub connections: usize,
    pub threads: usize,
    pub reps: usize,
    pub noop_best_s: f64,
    pub instrumented_best_s: f64,
    pub traced_best_s: f64,
}

impl OverheadMetrics {
    /// Instrumented-vs-noop overhead, percent (negative = noise made
    /// the instrumented arm faster).
    pub fn overhead_pct(&self) -> f64 {
        (self.instrumented_best_s - self.noop_best_s) / self.noop_best_s.max(1e-9) * 100.0
    }

    /// Traced-vs-noop overhead, percent (informational).
    pub fn traced_overhead_pct(&self) -> f64 {
        (self.traced_best_s - self.noop_best_s) / self.noop_best_s.max(1e-9) * 100.0
    }

    /// The acceptance gate scripts/check.sh enforces.
    pub fn within_gate(&self) -> bool {
        self.overhead_pct() <= OVERHEAD_GATE_PCT
    }

    fn throughput(&self, wall_s: f64) -> f64 {
        self.samples as f64 / wall_s.max(1e-9)
    }
}

pub(crate) fn measure(
    n_beacons: usize,
    connections: usize,
    seed: u64,
    threads: usize,
    reps: usize,
) -> OverheadMetrics {
    let workload = build_workload(n_beacons, connections, seed, threads);
    // Warm-up pass (page cache, allocator, thread pools) — not counted.
    replay(&workload, Arm::Instrumented);
    let (mut noop, mut instrumented, mut traced) = (f64::MAX, f64::MAX, f64::MAX);
    for _ in 0..reps.max(1) {
        noop = noop.min(replay(&workload, Arm::Noop));
        instrumented = instrumented.min(replay(&workload, Arm::Instrumented));
        traced = traced.min(replay(&workload, Arm::Traced));
    }
    OverheadMetrics {
        samples: workload.samples,
        connections: workload.shares.len(),
        threads: workload.threads,
        reps: reps.max(1),
        noop_best_s: noop,
        instrumented_best_s: instrumented,
        traced_best_s: traced,
    }
}

fn report_rows(m: &OverheadMetrics) -> String {
    let mut out = String::new();
    out.push_str(&row("interleaved samples", m.samples));
    out.push_str(&row(
        "connections / threads",
        format!("{} / {}", m.connections, m.threads),
    ));
    out.push_str(&row("reps per arm (best-of)", m.reps));
    out.push_str(&row("noop wall (s)", format!("{:.3}", m.noop_best_s)));
    out.push_str(&row(
        "instrumented wall (s)",
        format!("{:.3}", m.instrumented_best_s),
    ));
    out.push_str(&row("traced wall (s)", format!("{:.3}", m.traced_best_s)));
    out.push_str(&row(
        "noop throughput (adverts/s)",
        format!("{:.0}", m.throughput(m.noop_best_s)),
    ));
    out.push_str(&row(
        "instrumented throughput (adverts/s)",
        format!("{:.0}", m.throughput(m.instrumented_best_s)),
    ));
    out.push_str(&row(
        "instrumented overhead (%)",
        format!("{:+.2}", m.overhead_pct()),
    ));
    out.push_str(&row(
        "traced overhead (%)",
        format!("{:+.2}", m.traced_overhead_pct()),
    ));
    // Wall-clock ratios are only meaningful in release builds on a
    // quiet machine; the in-crate test gates plumbing, `obsctl smoke`
    // and scripts/check.sh gate this number.
    out.push_str(&row("instrumented overhead <= 3%", m.within_gate()));
    out
}

/// Runs the experiment at the standard scale.
pub fn run() -> String {
    let m = measure(30, 2, 0x0B5, harness_threads(), 3);
    let mut out = header(
        "obs",
        "serving telemetry overhead (noop vs instrumented vs traced)",
        "beyond the paper: observability must not tax the serving path (DESIGN.md §13)",
    );
    out.push_str(&report_rows(&m));
    out
}

/// The JSON artifact scripts/check.sh archives as `BENCH_obs.json`.
pub fn json_report() -> String {
    json_sized(30, 2, 0x0B5, harness_threads(), 5)
}

/// JSON body at a chosen scale (the in-crate test uses a small fleet).
pub(crate) fn json_sized(
    n_beacons: usize,
    connections: usize,
    seed: u64,
    threads: usize,
    reps: usize,
) -> String {
    let m = measure(n_beacons, connections, seed, threads, reps);
    let value = Value::Map(vec![
        ("experiment".to_string(), Value::Str("obs".to_string())),
        ("samples".to_string(), Value::U64(m.samples as u64)),
        ("connections".to_string(), Value::U64(m.connections as u64)),
        ("threads".to_string(), Value::U64(m.threads as u64)),
        ("reps".to_string(), Value::U64(m.reps as u64)),
        ("noop_best_seconds".to_string(), Value::F64(m.noop_best_s)),
        (
            "instrumented_best_seconds".to_string(),
            Value::F64(m.instrumented_best_s),
        ),
        (
            "traced_best_seconds".to_string(),
            Value::F64(m.traced_best_s),
        ),
        (
            "noop_throughput_adverts_per_second".to_string(),
            Value::F64(m.throughput(m.noop_best_s)),
        ),
        (
            "instrumented_throughput_adverts_per_second".to_string(),
            Value::F64(m.throughput(m.instrumented_best_s)),
        ),
        (
            "instrumented_overhead_pct".to_string(),
            Value::F64(m.overhead_pct()),
        ),
        (
            "traced_overhead_pct".to_string(),
            Value::F64(m.traced_overhead_pct()),
        ),
        (
            "overhead_gate_pct".to_string(),
            Value::F64(OVERHEAD_GATE_PCT),
        ),
        (
            "overhead_within_gate".to_string(),
            Value::Bool(m.within_gate()),
        ),
    ]);
    serde::json::to_string(&value)
}

#[cfg(test)]
mod tests {
    /// Plumbing gate only: all three arms complete and produce sane
    /// wall times. The 3% ratio is a release-mode number (`obsctl
    /// smoke` / scripts/check.sh); asserting it under a debug build on
    /// loaded CI would be flaky by design.
    #[test]
    fn all_three_arms_replay() {
        let m = super::measure(6, 1, 7, 2, 1);
        assert!(m.samples > 0);
        for wall in [m.noop_best_s, m.instrumented_best_s, m.traced_best_s] {
            assert!(wall.is_finite() && wall > 0.0, "{wall}");
        }
        assert!(m.overhead_pct().is_finite());
    }

    #[test]
    fn json_artifact_parses_and_carries_the_gate() {
        let text = super::json_sized(6, 1, 7, 2, 1);
        let value = serde::json::parse(&text).expect("valid JSON");
        assert!(value.get("instrumented_overhead_pct").is_some());
        assert!(matches!(
            value.get("overhead_within_gate"),
            Some(serde::Value::Bool(_))
        ));
    }
}
