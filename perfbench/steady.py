#!/usr/bin/env python3
"""Steadiness check for the serving benchmark.

Runs one workload in two sets of seeded runs, optionally spaced apart in
time, and prints for every end-to-end metric each set's median,
quartiles, spread (interquartile distance over the median) and max/min
ratio. The sets agree when, for every metric, each set's spread is
within the metric's bound in BENCHMARK.json (setup_s excepted) and the
second set's median is not worse than the first's by more than the
bound. Exit status 0 means they agree.

Run from the repository root:

    python3 perfbench/steady.py --workload fleet --runs 10 --gap 300
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    proc = subprocess.run(
        command
        + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else float("inf"),
        "maxmin": max(values) / min(values) if min(values) > 0 else float("inf"),
    }


def worse_by(first, second, better):
    """Share by which the second median is worse than the first."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--gap", type=float, default=0.0, help="seconds between the sets")
    parser.add_argument("--config", default="BENCHMARK.json")
    args = parser.parse_args()

    with open(args.config) as f:
        config = json.load(f)
    metrics = config["end_to_end"]
    seeds = [args.first_seed + i for i in range(args.runs)]

    sets = []
    for s in range(2):
        if s and args.gap:
            time.sleep(args.gap)
        runs = []
        for seed in seeds:
            runs.append(run_once(config["command"], args.workload, seed, config["run_seconds"]))
            print(f"set {s + 1} seed {seed}: {json.dumps(runs[-1])}", file=sys.stderr)
        sets.append(runs)

    agree = True
    print(f"workload {args.workload}: 2 sets x {args.runs} runs, seeds {seeds[0]}..{seeds[-1]}")
    print(f"{'metric':20} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>7} {'max/min':>7}  verdict")
    for m in metrics:
        name, bound, better = m["name"], m["bound"], m["better"]
        stats = [summarize([r[name] for r in runs]) for runs in sets]
        drift = worse_by(stats[0]["median"], stats[1]["median"], better)
        for i, st in enumerate(stats):
            verdict = []
            if name != "setup_s":
                if st["spread"] > bound:
                    verdict.append(f"spread > bound {bound}")
                    agree = False
                elif st["spread"] > bound / 3:
                    verdict.append("spread > bound/3")
            if i == 1:
                if drift > bound:
                    verdict.append(f"median worse by {drift:.3f} > {bound}")
                    agree = False
                else:
                    verdict.append(f"median drift {drift:+.3f}")
            print(
                f"{name:20} {i + 1:>3} {st['median']:14.4f} {st['q1']:14.4f} {st['q3']:14.4f} "
                f"{st['spread']:7.3f} {st['maxmin']:7.3f}  {'; '.join(verdict) or 'ok'}"
            )
    print("sets agree within bounds" if agree else "sets DO NOT agree within bounds")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
