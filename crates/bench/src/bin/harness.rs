//! Experiment harness CLI: regenerates the paper's tables and figures.
//!
//! ```text
//! harness <exp-id> [...]   run specific experiments (fig2, table1, ...)
//! harness all              run everything, in paper order
//! harness list             list experiment ids
//! ```
//!
//! `--threads N` sets the worker-thread count for engine-backed
//! experiments (`obs`, `recover`); the default is 8 capped by the
//! machine.
//!
//! With `--metrics <path>`, the harness additionally writes a JSON
//! sidecar: per-experiment wall-clock timings plus the full
//! [`PipelineReport`](locble_scenario::PipelineReport) of one
//! instrumented end-to-end scenario run (event stream, counters, and
//! latency histograms), so a CI job can archive pipeline health next to
//! the experiment reports.
//!
//! With `--refit-json <path>`, the harness writes the streaming-refit
//! benchmark numbers (per-batch latency, solves/sec, speedup of the
//! shared-factorization search over the naive refit — see DESIGN.md
//! §12) as a JSON artifact; `scripts/check.sh` archives it as
//! `BENCH_refit.json`.
//!
//! With `--backends-json <path>`, the harness runs the estimation-backend
//! shootout (per-backend median/p90 error and per-batch cost across the
//! Table-1 grid, plus the boxed-default bit-identity and overhead gates
//! — see DESIGN.md §16) and writes it as a JSON artifact;
//! `scripts/check.sh` archives it as `BENCH_backends.json`.
//!
//! With `--hotpath-json <path>`, the harness prices the vectorized hot
//! loops against their preserved scalar references and the warm
//! backends' allocation budget (see DESIGN.md §17) and writes it as a
//! JSON artifact; `scripts/check.sh` archives it as
//! `BENCH_hotpath.json`.

use locble_bench::{run_experiment, ALL_EXPERIMENTS};
use serde::{Serialize, Value};
use std::time::Instant;

/// Counting allocator: lets the `hotpath` experiment (and its
/// `BENCH_hotpath.json` artifact) report real allocs-per-batch numbers
/// instead of zeros. Counting is one thread-local increment per alloc —
/// noise for every other experiment.
#[global_allocator]
static ALLOC: locble_bench::util::CountingAlloc = locble_bench::util::CountingAlloc;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics_path = take_flag_value(&mut args, "--metrics");
    let refit_json_path = take_flag_value(&mut args, "--refit-json");
    let backends_json_path = take_flag_value(&mut args, "--backends-json");
    let hotpath_json_path = take_flag_value(&mut args, "--hotpath-json");
    if let Some(threads) = take_flag_value(&mut args, "--threads") {
        match threads.parse::<usize>() {
            Ok(n) if n > 0 => locble_bench::util::set_harness_threads(n),
            _ => {
                eprintln!("--threads requires a positive integer, got {threads:?}");
                std::process::exit(2);
            }
        }
    }
    if args.is_empty() || args[0] == "help" || args[0] == "--help" {
        eprintln!(
            "usage: harness <exp-id>... | all | list  [--metrics <path>] [--refit-json <path>] [--backends-json <path>] [--hotpath-json <path>] [--threads <n>]"
        );
        eprintln!("experiments: {}", ALL_EXPERIMENTS.join(", "));
        std::process::exit(2);
    }
    if args[0] == "list" {
        for id in ALL_EXPERIMENTS {
            println!("{id}");
        }
        return;
    }
    let ids: Vec<&str> = if args[0] == "all" {
        ALL_EXPERIMENTS.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    let mut failed = false;
    let mut timings: Vec<(String, f64)> = Vec::new();
    for id in ids {
        let t0 = Instant::now();
        match run_experiment(id) {
            Some(report) => {
                let secs = t0.elapsed().as_secs_f64();
                println!("{report}  ({secs:.1} s)\n");
                timings.push((id.to_string(), secs));
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                failed = true;
            }
        }
    }
    if let Some(path) = refit_json_path {
        match std::fs::write(&path, locble_bench::experiments::refit::json_report()) {
            Ok(()) => eprintln!("refit benchmark JSON written to {path}"),
            Err(e) => {
                eprintln!("failed to write refit benchmark JSON to {path}: {e}");
                failed = true;
            }
        }
    }
    if let Some(path) = backends_json_path {
        match std::fs::write(&path, locble_bench::experiments::backends::json_report()) {
            Ok(()) => eprintln!("backend shootout JSON written to {path}"),
            Err(e) => {
                eprintln!("failed to write backend shootout JSON to {path}: {e}");
                failed = true;
            }
        }
    }
    if let Some(path) = hotpath_json_path {
        match std::fs::write(&path, locble_bench::experiments::hotpath::json_report()) {
            Ok(()) => eprintln!("hotpath benchmark JSON written to {path}"),
            Err(e) => {
                eprintln!("failed to write hotpath benchmark JSON to {path}: {e}");
                failed = true;
            }
        }
    }
    if let Some(path) = metrics_path {
        match std::fs::write(&path, metrics_sidecar_json(&timings)) {
            Ok(()) => eprintln!("metrics sidecar written to {path}"),
            Err(e) => {
                eprintln!("failed to write metrics sidecar to {path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Removes `flag <value>` from `args`, returning the value.
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let idx = args.iter().position(|a| a == flag)?;
    if idx + 1 >= args.len() {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    }
    let value = args.remove(idx + 1);
    args.remove(idx);
    Some(value)
}

/// Builds the sidecar JSON: experiment timings + one instrumented
/// pipeline run.
fn metrics_sidecar_json(timings: &[(String, f64)]) -> String {
    let experiments = timings
        .iter()
        .map(|(id, secs)| (id.clone(), Value::F64(*secs)))
        .collect();
    let sidecar = Value::Map(vec![
        ("experiment_seconds".to_string(), Value::Map(experiments)),
        (
            "pipeline".to_string(),
            instrumented_pipeline_run().to_value(),
        ),
    ]);
    serde::json::to_string(&sidecar)
}

/// Runs one full scenario through the instrumented streaming pipeline
/// and returns its diagnostics bundle.
fn instrumented_pipeline_run() -> locble_scenario::PipelineReport {
    use locble_ble::{BeaconHardware, BeaconId, BeaconKind};
    use locble_core::{Estimator, EstimatorConfig};
    use locble_geom::Vec2;
    use locble_obs::Obs;
    use locble_scenario::world::{simulate_session, BeaconSpec};
    use locble_scenario::{
        environment_by_index, localize_streaming, plan_l_walk, train_default_envaware,
        SessionConfig,
    };

    let env = environment_by_index(1).expect("environment 1 exists");
    let beacons = vec![BeaconSpec {
        id: BeaconId(1),
        position: Vec2::new(4.0, 4.0),
        hardware: BeaconHardware::ideal(BeaconKind::Estimote),
    }];
    let plan = plan_l_walk(&env, Vec2::new(1.0, 1.0), 2.5, 2.0, 0.3).expect("walk plan fits");
    let session = simulate_session(&env, &beacons, &plan, &SessionConfig::paper_default(7));
    let estimator =
        Estimator::with_envaware(EstimatorConfig::default(), train_default_envaware(21));
    let obs = Obs::ring(4096);
    let (_, report) = localize_streaming(&session, BeaconId(1), &estimator, &obs);
    report
}
