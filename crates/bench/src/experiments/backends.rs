//! Backend shootout: accuracy of every estimation backend.
//!
//! Not a paper figure — this compares the paper's estimator with the
//! comparison backends (DESIGN.md §16). Every backend streams the same
//! Table-1 sessions, sliced into the §5.3 2.2 s batches, through its
//! `Box<dyn Estimator>` surface; the report compares median/p90
//! localization error across backends and gates:
//!
//! * **default_bit_identical** — the streaming default driven through
//!   the trait object produces bit-for-bit the estimates of the concrete
//!   [`StreamingEstimator`], on every batch of every session.
//!
//! The alternative backends are gated on *reconciliation*, not speed:
//! their median error across the grid must land within the generous
//! band a plausible implementation of that algorithm family occupies
//! (they are comparison baselines, not the paper's contribution).
//!
//! The report then streams fig11b's moving-target sessions (env #9 and
//! #8, 3-9 m, 40 runs each) through every backend, with the paper's
//! `estimate_moving` (which also knows the target's own motion) as a
//! reference row. These are report rows only: no gate, not in the JSON.
//!
//! Per-batch cost is not measured here: the boxed-vs-concrete overhead
//! is a ratio test in `locble-core`'s `backend_props.rs`, and absolute
//! throughput and latency belong to the serving benchmark (`perfbench/`).

use crate::stats::{mean, median, percentile};
use crate::util::{default_estimator, header, parallel_map, StationaryRun};
use locble_ble::{BeaconHardware, BeaconId};
use locble_core::{
    BackendSpec, Estimator, EstimatorConfig, FingerprintConfig, ParticleConfig, RssBatch,
    StreamingEstimator,
};
use locble_dsp::TimeSeries;
use locble_geom::Vec2;
use locble_motion::{track, MotionTrack, TrackerConfig};
use locble_scenario::runner::track_observer;
use locble_scenario::world::{simulate_session, MovingSession};
use locble_scenario::{environment_by_index, plan_l_walk, BeaconSpec, SessionConfig};
use serde::Value;
use std::sync::OnceLock;

/// Streaming batch window, seconds (§5.3: "a new data batch every 2-3
/// seconds").
const STREAM_BATCH_S: f64 = 2.2;

/// One Table-1 session ready to stream: pre-sliced batches, the
/// observer's motion, and the scoring truth.
struct StreamSession {
    batches: Vec<RssBatch>,
    motion: MotionTrack,
    truth: Vec2,
}

/// Builds the streamable form of one Table-1 run (same geometry as the
/// `table1` experiment). `None` when the beacon went unheard.
fn stream_session(run: &StationaryRun) -> Option<StreamSession> {
    let env = environment_by_index(run.env_index)?;
    let beacons = [BeaconSpec {
        id: BeaconId(1),
        position: run.target,
        hardware: BeaconHardware::ideal(run.kind),
    }];
    let plan = plan_l_walk(&env, run.start, run.legs.0, run.legs.1, 0.3)?;
    let session = simulate_session(
        &env,
        &beacons,
        &plan,
        &SessionConfig::paper_default(run.seed),
    );
    Some(StreamSession {
        batches: stream_batches(session.rss_of(BeaconId(1))?),
        motion: track_observer(&session),
        truth: session.truth_local(BeaconId(1))?,
    })
}

/// The streamable form of one fig11b moving-target session. Backends
/// see only the observer's motion; the truth is the target's initial
/// position, as fig11b scores it.
fn moving_stream_session(session: &MovingSession) -> StreamSession {
    StreamSession {
        batches: stream_batches(&session.rss),
        motion: track(&session.observer_walk.imu, &TrackerConfig::default()),
        truth: session.truth_local_initial(),
    }
}

/// Slices an RSS series into consecutive [`STREAM_BATCH_S`] batches.
fn stream_batches(rss: &TimeSeries) -> Vec<RssBatch> {
    let mut batches = Vec::new();
    let mut start = 0;
    while start < rss.len() {
        let t0 = rss.t[start];
        let mut end = start;
        while end < rss.len() && rss.t[end] < t0 + STREAM_BATCH_S {
            end += 1;
        }
        batches.push(RssBatch::new(
            rss.t[start..end].to_vec(),
            rss.v[start..end].to_vec(),
        ));
        start = end;
    }
    batches
}

/// One backend's aggregate over the grid.
struct Arm {
    name: &'static str,
    /// Sessions that produced an estimate / sessions attempted.
    runs: usize,
    attempted: usize,
    /// Mirror-aware localization errors, metres, one per successful run.
    errors: Vec<f64>,
}

impl Arm {
    fn median_error_m(&self) -> f64 {
        if self.errors.is_empty() {
            f64::INFINITY
        } else {
            median(&self.errors)
        }
    }

    fn p90_error_m(&self) -> f64 {
        if self.errors.is_empty() {
            f64::INFINITY
        } else {
            percentile(&self.errors, 90.0)
        }
    }
}

/// Mirror-aware error of a final estimate against the session truth.
fn score(est: &locble_core::LocationEstimate, truth: Vec2) -> f64 {
    let mut err = est.position.distance(truth);
    if let Some(m) = est.mirror {
        err = err.min(m.distance(truth));
    }
    err
}

/// Everything the report and the JSON artifact need.
struct Shootout {
    environments: usize,
    seeds_per_env: usize,
    arms: Vec<Arm>,
    /// Boxed default ≡ concrete, bit for bit, on every batch.
    default_bit_identical: bool,
}

impl Shootout {
    fn arm(&self, name: &str) -> &Arm {
        self.arms
            .iter()
            .find(|a| a.name == name)
            .expect("arm exists")
    }

    /// An alternative backend reconciles when it heard enough sessions
    /// and its median error sits in a plausible band for its family:
    /// within `factor`x of the default's median (or an absolute 6 m
    /// floor — Table 1's whole error range is 0.8-2.3 m).
    fn reconciles(&self, name: &str, factor: f64) -> bool {
        let streaming = self.arm("streaming");
        let alt = self.arm(name);
        let band = (streaming.median_error_m() * factor).max(6.0);
        alt.runs * 10 >= alt.attempted * 9 && alt.median_error_m() <= band
    }

    /// Every gate as `(JSON key, report label, verdict)`.
    fn gates(&self) -> [(&'static str, &'static str, bool); 3] {
        [
            (
                "default_bit_identical",
                "default backend bit-identical",
                self.default_bit_identical,
            ),
            (
                "particle_reconciles",
                "particle reconciles",
                self.reconciles("particle", 4.0),
            ),
            (
                "fingerprint_reconciles",
                "fingerprint reconciles",
                self.reconciles("fingerprint", 4.0),
            ),
        ]
    }
}

/// Every backend, by report name.
fn backend_specs() -> [(&'static str, BackendSpec); 3] {
    [
        ("streaming", BackendSpec::Streaming),
        ("particle", BackendSpec::Particle(ParticleConfig::default())),
        (
            "fingerprint",
            BackendSpec::Fingerprint(FingerprintConfig::default()),
        ),
    ]
}

/// Streams the full grid through every backend.
fn measure(envs: &[usize], seeds_per_env: usize) -> Shootout {
    let prototype = default_estimator();
    let sessions: Vec<StreamSession> = parallel_map(envs.len() * seeds_per_env, |i| {
        let env_index = envs[i / seeds_per_env];
        let seed = 0xBE7A + (i % seeds_per_env) as u64 * 17 + env_index as u64 * 131;
        stream_session(&super::table1::run_for(env_index, seed))
    })
    .into_iter()
    .flatten()
    .collect();

    // Concrete streaming reference: the bit-identity oracle for the
    // boxed default.
    let mut concrete_estimates: Vec<Vec<Option<u64>>> = Vec::with_capacity(sessions.len());
    for s in &sessions {
        let mut est = StreamingEstimator::new(prototype.clone());
        let mut bits = Vec::with_capacity(s.batches.len() + 1);
        for b in &s.batches {
            bits.push(est.push_batch(b, &s.motion).map(|e| e.position.x.to_bits()));
        }
        bits.push(est.current().map(|e| e.position.x.to_bits()));
        concrete_estimates.push(bits);
    }

    let mut default_bit_identical = true;
    let arms = backend_specs()
        .into_iter()
        .map(|(name, spec)| {
            let mut arm = Arm {
                name,
                runs: 0,
                attempted: sessions.len(),
                errors: Vec::new(),
            };
            for (si, s) in sessions.iter().enumerate() {
                let mut backend = spec.build(&prototype, 1);
                let mut bits = Vec::with_capacity(s.batches.len() + 1);
                for b in &s.batches {
                    bits.push(
                        backend
                            .push_batch(b, &s.motion)
                            .map(|e| e.position.x.to_bits()),
                    );
                }
                bits.push(backend.current().map(|e| e.position.x.to_bits()));
                if name == "streaming" && bits != concrete_estimates[si] {
                    default_bit_identical = false;
                }
                if let Some(est) = backend.current() {
                    arm.runs += 1;
                    arm.errors.push(score(est, s.truth));
                }
            }
            arm
        })
        .collect();

    Shootout {
        environments: envs.len(),
        seeds_per_env,
        arms,
        default_bit_identical,
    }
}

/// Streams fig11b's moving-target sessions (`runs_per_distance` runs
/// per distance and test) through every backend, plus `estimate_moving`
/// on the same sessions, and formats one row per estimator.
fn moving_rows(runs_per_distance: usize) -> String {
    // fig11b's estimator configuration, so the backends and the
    // reference row differ only in the algorithm.
    let prototype = Estimator::new(EstimatorConfig::default());
    let moving: Vec<MovingSession> = super::fig11b::TESTS
        .iter()
        .flat_map(|&(_, env, seed)| super::fig11b::sessions(env, runs_per_distance, seed))
        .collect();
    let streams: Vec<StreamSession> = moving.iter().map(moving_stream_session).collect();
    let mut rows: Vec<(&str, Vec<f64>)> = backend_specs()
        .into_iter()
        .map(|(name, spec)| {
            let errors = parallel_map(streams.len(), |i| {
                let s = &streams[i];
                let mut backend = spec.build(&prototype, 1);
                for b in &s.batches {
                    backend.push_batch(b, &s.motion);
                }
                backend.current().map(|est| score(est, s.truth))
            });
            (name, errors.into_iter().flatten().collect())
        })
        .collect();
    rows.push(("estimate_moving", super::fig11b::errors(&moving)));

    let mut out = String::from(
        "  moving target (fig11b sessions; estimate_moving is the reference)\n  \
         estimator         runs   median (m)   p90 (m)\n",
    );
    for (name, errors) in &rows {
        out.push_str(&format!(
            "  {:<15} {:>3}/{:<3}   {:>7.2}   {:>7.2}\n",
            name,
            errors.len(),
            moving.len(),
            median(errors),
            percentile(errors, 90.0),
        ));
    }
    out
}

const FULL_ENVS: [usize; 9] = [1, 2, 3, 4, 5, 6, 7, 8, 9];

/// The acceptance-scale grid (all nine environments, six seeds each),
/// streamed once per process: `harness backends --backends-json` builds
/// its report and its JSON from this one measurement.
fn full_grid() -> &'static Shootout {
    static FULL: OnceLock<Shootout> = OnceLock::new();
    FULL.get_or_init(|| measure(&FULL_ENVS, 6))
}

/// Runs the experiment at acceptance scale: the full grid, then
/// fig11b's 80 moving-target sessions.
pub fn run() -> String {
    let mut out = report(full_grid());
    out.push_str(&moving_rows(super::fig11b::RUNS_PER_DISTANCE));
    out
}

/// The grid report: accuracy per backend, then every gate.
fn report(s: &Shootout) -> String {
    let mut out = header(
        "backends",
        "estimation-backend shootout: accuracy per backend",
        "beyond the paper: compares the pluggable Estimator backends of DESIGN.md \u{a7}16",
    );
    out.push_str(&format!(
        "  grid: {} environments x {} seeds\n",
        s.environments, s.seeds_per_env
    ));
    out.push_str("  backend        runs   median (m)   p90 (m)\n");
    for arm in &s.arms {
        out.push_str(&format!(
            "  {:<12} {:>3}/{:<3}   {:>7.2}   {:>7.2}\n",
            arm.name,
            arm.runs,
            arm.attempted,
            arm.median_error_m(),
            arm.p90_error_m(),
        ));
    }
    for (_, label, verdict) in s.gates() {
        out.push_str(&crate::util::row(label, verdict));
    }
    out
}

/// The JSON artifact `scripts/check.sh` archives as
/// `BENCH_backends.json`, with the JSON keys of the gates that failed
/// (the harness exits non-zero when there are any).
pub fn json_report() -> (String, Vec<&'static str>) {
    let s = full_grid();
    let failed = s
        .gates()
        .into_iter()
        .filter(|&(_, _, verdict)| !verdict)
        .map(|(key, _, _)| key)
        .collect();
    (json(s), failed)
}

/// The JSON body: accuracy rows plus every gate.
fn json(s: &Shootout) -> String {
    let arms = s
        .arms
        .iter()
        .map(|arm| {
            Value::Map(vec![
                ("backend".to_string(), Value::Str(arm.name.to_string())),
                ("runs".to_string(), Value::U64(arm.runs as u64)),
                ("attempted".to_string(), Value::U64(arm.attempted as u64)),
                (
                    "median_error_m".to_string(),
                    Value::F64(arm.median_error_m()),
                ),
                ("p90_error_m".to_string(), Value::F64(arm.p90_error_m())),
                (
                    "mean_error_m".to_string(),
                    Value::F64(if arm.errors.is_empty() {
                        f64::INFINITY
                    } else {
                        mean(&arm.errors)
                    }),
                ),
            ])
        })
        .collect();
    let mut fields = vec![
        ("experiment".to_string(), Value::Str("backends".to_string())),
        (
            "environments".to_string(),
            Value::U64(s.environments as u64),
        ),
        (
            "seeds_per_env".to_string(),
            Value::U64(s.seeds_per_env as u64),
        ),
        ("backends".to_string(), Value::Seq(arms)),
    ];
    for (key, _, verdict) in s.gates() {
        fields.push((key.to_string(), Value::Bool(verdict)));
    }
    serde::json::to_string(&Value::Map(fields))
}

#[cfg(test)]
mod tests {
    /// Bit-identity holds in any build profile, on a small grid.
    #[test]
    fn default_backend_is_bit_identical_on_a_small_grid() {
        let report = super::report(&super::measure(&[1, 9], 2));
        assert!(
            crate::util::flag_is_true(&report, "default backend bit-identical"),
            "{report}"
        );
    }

    #[test]
    fn alternative_backends_reconcile_on_a_small_grid() {
        let report = super::report(&super::measure(&[1, 9], 2));
        assert!(
            crate::util::flag_is_true(&report, "particle reconciles"),
            "{report}"
        );
        assert!(
            crate::util::flag_is_true(&report, "fingerprint reconciles"),
            "{report}"
        );
    }

    #[test]
    fn moving_rows_cover_every_estimator() {
        let rows = super::moving_rows(1);
        for name in ["streaming", "particle", "fingerprint", "estimate_moving"] {
            assert!(rows.contains(name), "{rows}");
        }
    }

    /// The artifact carries the accuracy rows and the three gates, and
    /// no host-speed figure.
    #[test]
    fn json_report_is_well_formed() {
        let json = super::json(&super::measure(&[1], 1));
        assert!(json.contains("\"experiment\":\"backends\""), "{json}");
        assert!(json.contains("\"default_bit_identical\":true"), "{json}");
        for key in ["particle_reconciles", "fingerprint_reconciles"] {
            assert!(json.contains(&format!("\"{key}\":")), "{json}");
        }
        assert!(!json.contains("_us"), "{json}");
        assert!(!json.contains("per_second"), "{json}");
        for backend in ["streaming", "particle", "fingerprint"] {
            assert!(
                json.contains(&format!("\"backend\":\"{backend}\"")),
                "{json}"
            );
        }
    }
}
