#!/usr/bin/env bash
# A/B a change against a parent revision on the serving benchmark, the
# way perfbench/README.md prescribes: alternating runs of the two
# builds, made close together.
#
#   scripts/perf_ab.sh <rev> <workloads> <pairs>
#
# <workloads> is one workload or a comma-separated list
# (`fleet,trickle,cluster`). Exports <rev> and the working tree
# (tracked changes plus untracked, non-ignored files) into a temp dir
# with `git archive` and builds both once. Pair i then runs every
# workload in turn on both builds, and pairs alternate which side runs
# first (parent first on odd pairs, change first on even ones), so
# neither side always runs on a warmer machine. For each workload and
# end-to-end metric it prints the parent's and the change's median,
# their ratio, how many pairs the change won, the parent's
# interquartile range (IQR), and whether the change is a gain by the
# rule: it won at least 9/10 of the pairs and the medians differ, in
# its favour, by more than the parent's IQR. With both fleet and
# cluster listed it also prints each side's fleet/cluster gap: median
# fleet adverts/s over median cluster adverts/s. Each run's JSON result
# goes to stderr; a run that fails its correctness gate aborts the
# comparison. PERF_AB_SECONDS sets the run length (default 30, as in
# BENCHMARK.json); PERF_AB_SEED the workload seed (default 1).
set -euo pipefail

if [ $# -ne 3 ]; then
  grep '^#' "$0" | sed -n '2,24p' | sed 's/^# \{0,1\}//'
  exit 2
fi
rev="$1"
IFS=, read -r -a workloads <<<"$2"
pairs="$3"
seconds="${PERF_AB_SECONDS:-30}"
seed="${PERF_AB_SEED:-1}"

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"
parent_commit="$(git rev-parse --verify "$rev^{commit}")"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/parent" "$tmp/change"
git archive "$parent_commit" | tar -x -C "$tmp/parent"
# `git stash create` snapshots tracked changes without touching the
# working tree; it prints nothing when there are none.
snapshot="$(git stash create)"
git archive "${snapshot:-HEAD}" | tar -x -C "$tmp/change"
git ls-files --others --exclude-standard -z |
  (cd "$repo" && xargs -0 -r cp --parents -t "$tmp/change")

for side in parent change; do
  echo "==> building $side" >&2
  cargo build --release --quiet --offline \
    --manifest-path "$tmp/$side/perfbench/Cargo.toml" --bin perfbench
done

for ((i = 1; i <= pairs; i++)); do
  order="parent change"
  if ((i % 2 == 0)); then order="change parent"; fi
  for workload in "${workloads[@]}"; do
    for side in $order; do
      echo "==> pair $i/$pairs: $workload $side" >&2
      out="$tmp/$side-$workload-$i"
      if ! "$tmp/$side/perfbench/target/release/perfbench" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" 2>"$out.log" | tail -n 1 >"$out.json"; then
        echo "perf_ab: $side $workload run $i failed" >&2
        cat "$out.log" >&2
        exit 1
      fi
      cat "$out.json" >&2
    done
  done
done

python3 - "$tmp" "$pairs" "$repo/BENCHMARK.json" "${workloads[@]}" <<'EOF'
import json, statistics, sys

tmp, pairs, bench, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:]
sides = ("parent", "change")
runs = {
    (side, w): [json.load(open(f"{tmp}/{side}-{w}-{i}.json")) for i in range(1, pairs + 1)]
    for side in sides
    for w in workloads
}
for (side, w), results in runs.items():
    for i, r in enumerate(results, 1):
        if not r.get("correct") or r.get("failed"):
            sys.exit(f"perf_ab: {side} {w} run {i} is not correct: {r}")


def values(side, w, name):
    return [r["metrics"][name]["value"] for r in runs[(side, w)]]


for w in workloads:
    print(f"== {w}")
    print(f"{'metric':<20} {'better':>6} {'parent':>12} {'change':>12} {'ratio':>7} "
          f"{'won':>7} {'parent_iqr':>12} {'gain':>5}")
    for metric in json.load(open(bench))["end_to_end"]:
        name = metric["name"]
        sign = 1 if metric["better"] == "higher" else -1
        parent_runs, change_runs = values("parent", w, name), values("change", w, name)
        parent = statistics.median(parent_runs)
        change = statistics.median(change_runs)
        ratio = change / parent if parent else float("nan")
        won = sum(sign * (c - p) > 0 for p, c in zip(parent_runs, change_runs))
        q1, _, q3 = statistics.quantiles(parent_runs, n=4) if pairs > 1 else (parent,) * 3
        gain = 10 * won >= 9 * pairs and sign * (change - parent) > q3 - q1
        print(f"{name:<20} {metric['better']:>6} {parent:>12.4g} {change:>12.4g} {ratio:>7.3f} "
              f"{won:>3}/{pairs:<3} {q3 - q1:>12.4g} {'yes' if gain else 'no':>5}")
if "fleet" in workloads and "cluster" in workloads:
    for side in sides:
        fleet = statistics.median(values(side, "fleet", "adverts_per_s"))
        cluster = statistics.median(values(side, "cluster", "adverts_per_s"))
        print(f"fleet/cluster adverts_per_s gap, {side}: {fleet:.4g} / {cluster:.4g} "
              f"= {fleet / cluster:.3f}x")
EOF
