//! `perfbench --workload <fleet|trickle|cluster> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints a table on stderr and, as the last line of stdout, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Exits 1
//! when any check fails (accounting, refused operation, estimate or
//! accuracy drift) and 2 on a usage error.

use locble_perfbench::inputs::Workload;
use locble_perfbench::output::{result_json, table};
use locble_perfbench::{run, traced};
use std::process::ExitCode;

/// The workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds takes a positive number, not {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (fleet, trickle or cluster)")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fleet|trickle|cluster> [--seed N] [--seconds S] \
                 [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let mut problems = Vec::new();
    let (metrics, attempted, failed) = if args.trace {
        let t = traced::run(args.workload, args.seed, &mut problems);
        (t.metrics, t.attempted, t.failed)
    } else {
        let s = run::run(args.workload, args.seed, args.seconds, &mut problems);
        eprintln!(
            "{} seed {}: {} rounds",
            args.workload.name(),
            args.seed,
            s.rounds
        );
        (s.metrics, s.attempted, s.failed)
    };
    eprint!("{}", table(&metrics));
    eprintln!(
        "{:20}  {:>14.4}  ratio",
        "failed_share",
        failed as f64 / attempted.max(1) as f64
    );
    for p in &problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let correct = problems.is_empty() && failed == 0;
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
