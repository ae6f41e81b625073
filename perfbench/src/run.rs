//! The untraced end-to-end run: rounds of a fresh system replaying the
//! whole tiled stream, each checked for exact accounting and correct
//! estimates, reduced to the end-to-end metrics.

use crate::drive::{drive, DriveOutcome, MAX_SKEW_S};
use crate::inputs::{self, Tiled, Workload, LANES, PASSES, SCORED_PASSES};
use crate::output::Metric;
use crate::stats::{
    machine_ticks, median, peak_rss_mb, percentile, process_cpu_s, supported_percentile,
};
use crate::target::Target;
use locble_ble::BeaconId;
use locble_core::{Estimator, EstimatorConfig, LocationEstimate};
use locble_engine::{Engine, EngineConfig};
use locble_net::Client;
use locble_obs::Obs;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Rounds every run makes at least (set-up is reported as their median).
pub const MIN_ROUNDS: usize = 3;
/// Queries a run collects at least, so that p99 has ten samples beyond it.
pub const MIN_QUERIES: usize = 1_000;
/// Rounds a run makes at most, whatever `--seconds` says.
pub const MAX_ROUNDS: usize = 40;
/// A round during which the hypervisor stole more than this share of
/// the machine's CPU time is not quiet. On the 2-core reference VM quiet
/// rounds saw 0–1% stolen; trickle rounds at 3–5% already had a 30%
/// higher ack p99, and rounds at 13–20% ran 25–40% slower with twice the
/// p99.
pub const STOLEN_LIMIT: f64 = 0.02;
/// How far past `--seconds` a run keeps going to collect
/// [`MIN_ROUNDS`] quiet rounds, as a multiple of `--seconds`.
pub const EXTEND: f64 = 1.25;

/// Rounds after which `peak_rss_mb` is read, so that it covers the same
/// work whatever the number of rounds a run makes: the process's peak
/// grows with every round until about the sixth (freed heap the
/// allocator keeps; 120 → 146 MB on cluster), so reading it at exit
/// made it depend on how fast the host ran the rounds.
const RSS_ROUNDS: usize = 2 * MIN_ROUNDS;

/// Whether `rounds` hold enough rounds and queries to report on.
fn enough(rounds: &[&Round]) -> bool {
    rounds.len() >= MIN_ROUNDS
        && rounds.iter().map(|r| r.queries.all_us.len()).sum::<usize>() >= MIN_QUERIES
}

/// The rounds the metrics come from: the least-stolen half of them, or
/// more when half is not enough. A stolen-time episode that covers less
/// than half of a run then moves none of its figures.
fn measured(rounds: &[Round]) -> Vec<&Round> {
    let mut by_stolen: Vec<&Round> = rounds.iter().collect();
    by_stolen.sort_by(|a, b| a.stolen_share.total_cmp(&b.stolen_share));
    let mut used = Vec::new();
    for r in by_stolen {
        if used.len() >= rounds.len().div_ceil(2) && enough(&used) {
            break;
        }
        used.push(r);
    }
    used
}

/// Accuracy recorded for seeds, one `seed scored median p90` line each
/// (f64s in Rust's round-trip notation).
const RECORDED: &str = include_str!("../accuracy.tsv");

/// Where runs keep their stores and span files.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// The scored beacons' estimates computed by a single-threaded engine
/// fed only their adverts: the answer every served round must reproduce
/// bit for bit.
pub struct Reference {
    /// Scored beacon → estimate.
    pub estimates: BTreeMap<u32, LocationEstimate>,
    /// Median localization error over the scored beacons, m.
    pub median_error_m: f64,
    /// 90th-percentile localization error, m.
    pub p90_error_m: f64,
}

/// Localization error against ground truth (mirror-aware, as the
/// scenario runner scores it).
pub fn error_m(tiled: &Tiled, beacon: BeaconId, est: &LocationEstimate) -> f64 {
    let truth = tiled
        .truth_of(beacon)
        .expect("every tiled beacon has ground truth");
    let mut err = est.position.distance(truth);
    if let Some(mirror) = est.mirror {
        err = err.min(mirror.distance(truth));
    }
    err
}

/// Builds the [`Reference`] for a tiled stream.
pub fn reference(tiled: &Tiled) -> Reference {
    let first_scored = tiled.passes - SCORED_PASSES;
    let scored: Vec<_> = tiled
        .adverts
        .iter()
        .filter(|a| Tiled::pass_of(a.beacon) >= first_scored)
        .copied()
        .collect();
    let mut engine = Engine::new(
        EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
        Estimator::new(EstimatorConfig::default()),
        Obs::noop(),
    );
    engine.set_motion(tiled.motion.clone());
    engine.ingest_all(&scored);
    engine.finish();
    let estimates: BTreeMap<u32, LocationEstimate> = engine
        .snapshot()
        .into_iter()
        .map(|(b, e)| (b.0, e))
        .collect();
    let mut errors: Vec<f64> = estimates
        .iter()
        .map(|(&b, e)| error_m(tiled, BeaconId(b), e))
        .collect();
    assert!(!errors.is_empty(), "the reference engine localized nothing");
    errors.sort_by(f64::total_cmp);
    Reference {
        median_error_m: percentile(&errors, 50.0),
        p90_error_m: percentile(&errors, 90.0),
        estimates,
    }
}

/// The recorded `(scored, median, p90)` for `seed`, if any.
pub fn recorded(seed: u64) -> Option<(usize, f64, f64)> {
    RECORDED.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 4 || f[0].parse::<u64>().ok()? != seed {
            return None;
        }
        Some((f[1].parse().ok()?, f[2].parse().ok()?, f[3].parse().ok()?))
    })
}

/// The `p`-th percentile of unsorted samples.
fn percentile_of(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

/// One kind of round trip (batch → ack, or query → reply) as a round
/// keeps it for the run's figures.
pub struct Trips {
    /// Median round trip, µs.
    pub p50_us: f64,
    /// Every round trip, µs.
    pub all_us: Vec<f64>,
    /// The round trips that met no stolen time (see `unstolen`), µs.
    pub unstolen_us: Vec<f64>,
}

impl Trips {
    fn new(all_us: Vec<f64>, sent_s: &[f64], marks: &[(f64, u64)]) -> Trips {
        Trips {
            p50_us: if all_us.is_empty() {
                f64::NAN
            } else {
                percentile_of(&all_us, 50.0)
            },
            unstolen_us: unstolen(&all_us, sent_s, marks),
            all_us,
        }
    }
}

/// One round's measurements.
pub struct Round {
    /// Input build + tiling + encoding + store open + bind, seconds.
    pub setup_s: f64,
    /// The generator's view, without its samples.
    pub outcome: DriveOutcome,
    /// Send → ack per batch.
    pub acks: Trips,
    /// Send → reply per query.
    pub queries: Trips,
    /// Process CPU minus the generator thread's, during the drive.
    pub server_cpu_s: f64,
    /// Share of the machine's CPU time the hypervisor stole during the
    /// drive.
    pub stolen_share: f64,
}

/// Everything a run found wrong; empty when correct.
pub type Problems = Vec<String>;

/// Runs one round in `dir`: fresh inputs, fresh system, full replay,
/// finish, then every check against `reference`.
pub fn round(
    workload: Workload,
    seed: u64,
    dir: &Path,
    reference: &Reference,
    problems: &mut Problems,
) -> Round {
    let t0 = Instant::now();
    let tiled = inputs::build(seed, PASSES);
    let lanes = inputs::lanes(
        &tiled.adverts,
        LANES,
        workload.frame_len(),
        workload.query_every(),
    );
    let target = Target::start(workload, &tiled.motion, dir).expect("start the system under test");
    let setup_s = t0.elapsed().as_secs_f64();

    let cpu0 = process_cpu_s();
    let ticks0 = machine_ticks();
    let mut outcome = drive(target.addr(), &lanes);
    let server_cpu_s = process_cpu_s() - cpu0 - outcome.generator_cpu_s;
    let ticks1 = machine_ticks();
    let stolen_share = (ticks1.1 - ticks0.1) as f64 / (ticks1.0 - ticks0.0).max(1) as f64;

    let mut control = Client::connect(target.addr()).expect("control connection");
    let finished = control.finish();
    let snapshot = control.snapshot();
    drop(control);
    let drained = target.shutdown();

    let sent: u64 = lanes.iter().map(|l| l.adverts()).sum();
    let mut check = |ok: bool, what: String| {
        if !ok {
            problems.push(what);
        }
    };
    check(
        outcome.adverts == sent,
        format!("sent {sent} adverts, {} answered", outcome.adverts),
    );
    check(
        outcome.failed_batches == 0 && outcome.failed_queries == 0,
        format!(
            "{} batches and {} queries refused",
            outcome.failed_batches, outcome.failed_queries
        ),
    );
    check(
        outcome.routed + outcome.rejected == outcome.adverts - outcome.failed_adverts,
        format!(
            "acks: {} routed + {} rejected != {} sent",
            outcome.routed, outcome.rejected, outcome.adverts
        ),
    );
    check(
        outcome.rejected == 0,
        format!("{} adverts rejected", outcome.rejected),
    );
    let routed: u64 = drained
        .owners
        .iter()
        .map(|e| e.stats().samples_routed)
        .sum();
    let rejected: u64 = drained
        .owners
        .iter()
        .map(|e| e.stats().samples_rejected)
        .sum();
    check(
        routed == outcome.routed && rejected == outcome.rejected,
        format!(
            "engine stats {routed} routed / {rejected} rejected, acks {} / {}",
            outcome.routed, outcome.rejected
        ),
    );
    for (i, e) in drained.owners.iter().chain(&drained.followers).enumerate() {
        let s = e.stats();
        check(
            e.queued() == 0 && s.samples_processed == s.samples_routed,
            format!(
                "engine {i}: {} queued, {} of {} routed processed after the drain",
                e.queued(),
                s.samples_processed,
                s.samples_routed
            ),
        );
    }
    if !drained.followers.is_empty() {
        let replicated: u64 = drained
            .followers
            .iter()
            .map(|e| e.stats().samples_routed)
            .sum();
        check(
            replicated == routed,
            format!("followers hold {replicated} of {routed} routed adverts"),
        );
    }
    check(
        finished.is_ok(),
        format!("finish failed: {:?}", finished.err()),
    );
    match snapshot {
        Ok(snapshot) => {
            let served: BTreeMap<u32, LocationEstimate> =
                snapshot.into_iter().map(|(b, e)| (b.0, e)).collect();
            let mut missing = 0;
            let mut differ = 0;
            for (b, want) in &reference.estimates {
                match served.get(b) {
                    None => missing += 1,
                    Some(got) if !same_estimate(got, want) => differ += 1,
                    Some(_) => {}
                }
            }
            check(
                missing == 0 && differ == 0,
                format!(
                    "of {} scored beacons {missing} have no estimate and {differ} differ \
                     from the reference engine",
                    reference.estimates.len()
                ),
            );
        }
        Err(e) => check(false, format!("snapshot failed: {e}")),
    }
    let marks = std::mem::take(&mut outcome.steal_marks);
    let acks = Trips::new(
        std::mem::take(&mut outcome.ack_us),
        &std::mem::take(&mut outcome.ack_sent_s),
        &marks,
    );
    let queries = Trips::new(
        std::mem::take(&mut outcome.query_us),
        &std::mem::take(&mut outcome.query_sent_s),
        &marks,
    );
    Round {
        setup_s,
        outcome,
        acks,
        queries,
        server_cpu_s,
        stolen_share,
    }
}

/// The samples of `lat_us` (sent at `sent_s`) whose whole round trip
/// fell in windows of `marks` during which nothing was stolen.
fn unstolen(lat_us: &[f64], sent_s: &[f64], marks: &[(f64, u64)]) -> Vec<f64> {
    // stealy[i]: whether window i (marks i → i+1) lost any CPU time.
    let stealy: Vec<bool> = marks.windows(2).map(|w| w[1].1 > w[0].1).collect();
    let mut stealy_before = vec![0usize; stealy.len() + 1];
    for (i, &s) in stealy.iter().enumerate() {
        stealy_before[i + 1] = stealy_before[i] + usize::from(s);
    }
    let window_of = |t: f64| {
        marks
            .partition_point(|m| m.0 <= t)
            .saturating_sub(1)
            .min(stealy.len().saturating_sub(1))
    };
    lat_us
        .iter()
        .zip(sent_s)
        .filter(|&(&us, &t)| {
            let (a, b) = (window_of(t), window_of(t + us * 1e-6));
            stealy_before[b + 1] == stealy_before[a]
        })
        .map(|(&us, _)| us)
        .collect()
}

/// The sorted samples a p99 comes from: the rounds' round trips that met
/// no stolen time, or all of them when those are too few for a p99.
fn tail(rounds: &[&Round], trips: fn(&Round) -> &Trips) -> Vec<f64> {
    let pool = |samples: fn(&Trips) -> &[f64]| -> Vec<f64> {
        rounds
            .iter()
            .flat_map(|r| samples(trips(r)))
            .copied()
            .collect()
    };
    let mut kept = pool(|t| &t.unstolen_us);
    if supported_percentile(kept.len()).is_none_or(|p| p < 99.0) {
        kept = pool(|t| &t.all_us);
    }
    kept.sort_by(f64::total_cmp);
    kept
}

/// Bit-level equality of the position and mirror.
fn same_estimate(a: &LocationEstimate, b: &LocationEstimate) -> bool {
    let bits = |e: &LocationEstimate| {
        (
            e.position.x.to_bits(),
            e.position.y.to_bits(),
            e.mirror.map(|m| (m.x.to_bits(), m.y.to_bits())),
        )
    };
    bits(a) == bits(b)
}

/// Pooled end-to-end figures of a run.
pub struct Summary {
    /// `(name, value, unit)` of every end-to-end metric, in order.
    pub metrics: Vec<Metric>,
    /// Operations attempted: adverts sent plus queries sent.
    pub attempted: u64,
    /// Operations failed: rejected or refused adverts plus failed queries.
    pub failed: u64,
    /// Rounds made.
    pub rounds: usize,
}

/// Runs rounds until `seconds` have passed (and at least
/// [`MIN_ROUNDS`] rounds and [`MIN_QUERIES`] queries are in), checking
/// each one.
pub fn run(workload: Workload, seed: u64, seconds: f64, problems: &mut Problems) -> Summary {
    let run_dir = out_dir().join(format!("run-{}", std::process::id()));
    let tiled = inputs::build(seed, PASSES);
    let config = EngineConfig::default();
    let peak = inputs::peak_live_sessions(&tiled.adverts, config.idle_evict_s + MAX_SKEW_S);
    if peak >= config.max_sessions {
        problems.push(format!(
            "the stream needs {peak} live sessions; the engine holds {}",
            config.max_sessions
        ));
    }
    let reference = reference(&tiled);
    drop(tiled);
    match recorded(seed) {
        Some((scored, median, p90)) => {
            if (scored, median.to_bits(), p90.to_bits())
                != (
                    reference.estimates.len(),
                    reference.median_error_m.to_bits(),
                    reference.p90_error_m.to_bits(),
                )
            {
                problems.push(format!(
                    "accuracy drift for seed {seed}: recorded {scored} scored, median {median:?} m, \
                     p90 {p90:?} m; now {} scored, median {:?} m, p90 {:?} m",
                    reference.estimates.len(),
                    reference.median_error_m,
                    reference.p90_error_m
                ));
            }
        }
        None => eprintln!(
            "note: seed {seed} has no recorded accuracy; estimates are checked against the \
             reference engine only"
        ),
    }

    let t0 = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut rss_mb = None;
    while rounds.len() < MAX_ROUNDS {
        let elapsed = t0.elapsed().as_secs_f64();
        let quiet = rounds
            .iter()
            .filter(|r| r.stolen_share <= STOLEN_LIMIT)
            .count();
        if elapsed >= seconds
            && enough(&measured(&rounds))
            && ((rounds.len() >= 2 * MIN_ROUNDS && quiet >= MIN_ROUNDS)
                || elapsed >= seconds * EXTEND)
        {
            break;
        }
        let dir = run_dir.join(format!("round-{}", rounds.len()));
        let r = round(workload, seed, &dir, &reference, problems);
        eprintln!(
            "round {}: {:.0} adverts/s, {:.3} us/advert, ack p50 {:.0} us p99 {:.0} us, {:.1}% stolen",
            rounds.len(),
            r.outcome.adverts as f64 / r.outcome.wall_s,
            r.server_cpu_s / r.outcome.adverts as f64 * 1e6,
            r.acks.p50_us,
            percentile_of(&r.acks.all_us, 99.0),
            r.stolen_share * 100.0
        );
        rounds.push(r);
        if rounds.len() == RSS_ROUNDS {
            rss_mb = Some(peak_rss_mb());
        }
        std::fs::remove_dir_all(&dir).expect("remove the round's store");
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    let all = rounds;
    let rounds = measured(&all);
    eprintln!(
        "{} of {} rounds measured (at most {:.1}% of the machine's CPU stolen)",
        rounds.len(),
        all.len(),
        rounds.iter().map(|r| r.stolen_share).fold(0.0, f64::max) * 100.0
    );

    // Rates and p50 latencies are medians over rounds, so a burst of
    // host contention that hits one round does not move the run's value.
    // The p99s pool the measured rounds' samples instead: a round's tail
    // is set by a few dozen `Engine::process` stalls, so one round's p99
    // varies ±10% between quiet rounds, and pooling counts every round's
    // stalls. They also leave out round trips that overlapped stolen
    // time (see `tail`).
    let per_round =
        |f: &dyn Fn(&Round) -> f64| median(&mut rounds.iter().map(|r| f(r)).collect::<Vec<_>>());
    let acks = tail(&rounds, |r| &r.acks);
    let queries = tail(&rounds, |r| &r.queries);
    let fewest_acks = rounds
        .iter()
        .map(|r| r.acks.all_us.len())
        .min()
        .unwrap_or(0);
    for (what, n) in [("acks", acks.len()), ("queries", queries.len())] {
        if supported_percentile(n).is_none_or(|p| p < 99.0) {
            problems.push(format!("{n} {what} cannot support a p99"));
        }
    }
    if fewest_acks == 0 || queries.is_empty() {
        problems.push("a round answered no batches or no queries".to_string());
        return Summary {
            metrics: Vec::new(),
            attempted: 1,
            failed: 1,
            rounds: all.len(),
        };
    }
    let failed: u64 = all
        .iter()
        .map(|r| r.outcome.rejected + r.outcome.failed_adverts + r.outcome.failed_queries)
        .sum();
    let attempted: u64 = all
        .iter()
        .map(|r| r.outcome.adverts + r.outcome.queries)
        .sum();
    Summary {
        metrics: vec![
            // Set-up happens before the drive, so stolen time during the
            // drive says nothing about it: every round counts.
            Metric::new(
                "setup_s",
                median(&mut all.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
                "s",
            ),
            Metric::new(
                "adverts_per_s",
                per_round(&|r| r.outcome.adverts as f64 / r.outcome.wall_s),
                "adverts/s",
            ),
            Metric::new(
                "cpu_us_per_advert",
                per_round(&|r| r.server_cpu_s / r.outcome.adverts as f64 * 1e6),
                "us",
            ),
            Metric::new("ack_p50_us", per_round(&|r| r.acks.p50_us), "us"),
            Metric::new("ack_p99_us", percentile(&acks, 99.0), "us"),
            Metric::new("query_p50_us", per_round(&|r| r.queries.p50_us), "us"),
            Metric::new("query_p99_us", percentile(&queries, 99.0), "us"),
            Metric::new("median_error_m", reference.median_error_m, "m"),
            Metric::new("p90_error_m", reference.p90_error_m, "m"),
            Metric::new("peak_rss_mb", rss_mb.unwrap_or_else(peak_rss_mb), "MB"),
        ],
        attempted,
        failed,
        rounds: all.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unstolen_drops_round_trips_that_overlap_stolen_windows() {
        // Windows [0, 0.1), [0.1, 0.2), [0.2, 0.3); only the middle one
        // lost CPU time.
        let marks = [(0.0, 5), (0.1, 5), (0.2, 7), (0.3, 7)];
        let lat_us = [1_000.0, 2_000.0, 3_000.0, 150_000.0, 4_000.0];
        let sent_s = [0.01, 0.098, 0.15, 0.05, 0.25];
        // Kept: inside window 0; inside window 2. Dropped: crosses into
        // window 1; sent in window 1; spans windows 0-2.
        assert_eq!(unstolen(&lat_us, &sent_s, &marks), vec![1_000.0, 4_000.0]);
    }

    #[test]
    fn unstolen_keeps_everything_without_stolen_time() {
        let marks = [(0.0, 3), (0.1, 3), (0.2, 3)];
        let lat_us = [500.0, 90_000.0, 1_000_000.0];
        let sent_s = [0.0, 0.15, 0.19];
        assert_eq!(unstolen(&lat_us, &sent_s, &marks), lat_us.to_vec());
    }
}
