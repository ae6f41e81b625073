#!/usr/bin/env bash
# Perf ratchet: compare freshly regenerated BENCH_*.json files in the
# working tree against the committed baselines in bench/baselines/, and
# fail when a headline metric regresses beyond tolerance or a boolean
# gate flips to false.
#
#   scripts/bench_compare.sh [--tolerance PCT] [--baseline-dir DIR] [FILE...]
#
# Defaults: all four BENCH files, 30% tolerance (single-core CI boxes
# are noisy; the hard floors — 5x speedup, 3% overhead — are boolean
# gates in the generated files, checked below). A file with no
# committed baseline (first PR that adds it) is reported and skipped,
# not failed. Override per-run: BENCH_TOLERANCE=50. To ratchet forward
# after a real improvement, copy the fresh file over its baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

tolerance="${BENCH_TOLERANCE:-30}"
baseline_dir="bench/baselines"
files=()
while [ $# -gt 0 ]; do
  case "$1" in
    --tolerance)    tolerance="$2"; shift 2 ;;
    --baseline-dir) baseline_dir="$2"; shift 2 ;;
    -h|--help)      grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *)              files+=("$1"); shift ;;
  esac
done
if [ ${#files[@]} -eq 0 ]; then
  files=(BENCH_backends.json BENCH_hotpath.json BENCH_obs.json BENCH_refit.json)
fi

status=0
for file in "${files[@]}"; do
  if [ ! -s "$file" ]; then
    echo "bench_compare: $file: missing or empty in working tree"
    status=1
    continue
  fi
  baseline_file="$baseline_dir/$(basename "$file")"
  if [ ! -s "$baseline_file" ]; then
    echo "bench_compare: $file: no baseline at $baseline_file (new benchmark) — skipped"
    continue
  fi
  baseline="$(cat "$baseline_file")"
  if ! BASELINE_JSON="$baseline" python3 - "$file" "$tolerance" <<'PY'
import json, os, sys

fresh_path, tolerance = sys.argv[1], float(sys.argv[2])
fresh = json.load(open(fresh_path))
base = json.loads(os.environ["BASELINE_JSON"])

# Headline higher-is-better metrics per experiment. Paths use dots for
# objects and integers for array indices.
RATCHET = {
    "backends": ["streaming_batches_per_second"],
    "obs": [
        "noop_throughput_adverts_per_second",
        "instrumented_throughput_adverts_per_second",
    ],
    "hotpath": [
        "kernels.fingerprint_score.speedup",
        "kernels.envelope.speedup",
    ],
    "refit": ["cached_solves_per_second", "speedup"],
}

def lookup(doc, path):
    node = doc
    for part in path.split("."):
        if isinstance(node, list):
            node = node[int(part)]
        else:
            node = node[part]
    return node

def bool_gates(doc, prefix=""):
    """Every boolean leaf, so a gate that was true must stay true."""
    if isinstance(doc, bool):
        yield prefix, doc
    elif isinstance(doc, dict):
        for key, value in doc.items():
            yield from bool_gates(value, f"{prefix}{key}." if prefix else f"{key}.")
    elif isinstance(doc, list):
        for idx, value in enumerate(doc):
            yield from bool_gates(value, f"{prefix}{idx}.")

def strip(prefix):
    return prefix.rstrip(".")

experiment = base.get("experiment", "")
failures = []
for path in RATCHET.get(experiment, []):
    try:
        was, now = float(lookup(base, path)), float(lookup(fresh, path))
    except (KeyError, IndexError, TypeError):
        failures.append(f"{path}: present in baseline but unreadable in fresh report")
        continue
    floor = was * (1.0 - tolerance / 100.0)
    verdict = "ok" if now >= floor else "REGRESSED"
    print(f"  {verdict}: {fresh_path} {path}: {was:.0f} -> {now:.0f} (floor {floor:.0f})")
    if now < floor:
        failures.append(f"{path}: {now:.0f} below floor {floor:.0f} (baseline {was:.0f}, tolerance {tolerance:.0f}%)")

fresh_bools = dict(bool_gates(fresh))
for prefix, value in bool_gates(base):
    if value and fresh_bools.get(prefix) is not True:
        failures.append(f"{strip(prefix)}: boolean gate was true in baseline, now {fresh_bools.get(prefix)}")

for failure in failures:
    print(f"  FAIL: {fresh_path}: {failure}")
sys.exit(1 if failures else 0)
PY
  then
    status=1
  fi
done

if [ "$status" -ne 0 ]; then
  echo "bench_compare: FAIL (tolerance ${tolerance}%)"
else
  echo "bench_compare: PASS (tolerance ${tolerance}%)"
fi
exit "$status"
