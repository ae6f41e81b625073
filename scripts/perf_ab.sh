#!/usr/bin/env bash
# A/B a change against a parent revision on the serving benchmark, the
# way perfbench/README.md prescribes: alternating runs of the two
# builds, made close together.
#
#   scripts/perf_ab.sh <rev> <workload> <pairs>
#
# Builds <rev> and the working tree (tracked changes plus untracked,
# non-ignored files) in separate git worktrees under a temp dir, then
# runs perfbench on <workload> <pairs> times per build, alternating
# parent, change, parent, ... For each end-to-end metric it prints the
# median over the parent's runs, over the change's runs, and the
# change/parent ratio. A run that fails its correctness gate aborts the
# comparison. PERF_AB_SECONDS sets the run length (default 30, as in
# BENCHMARK.json); PERF_AB_SEED the workload seed (default 1).
set -euo pipefail

if [ $# -ne 3 ]; then
  grep '^#' "$0" | sed -n '2,16p' | sed 's/^# \{0,1\}//'
  exit 2
fi
rev="$1"
workload="$2"
pairs="$3"
seconds="${PERF_AB_SECONDS:-30}"
seed="${PERF_AB_SEED:-1}"

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"
parent_commit="$(git rev-parse --verify "$rev^{commit}")"

tmp="$(mktemp -d)"
cleanup() {
  git -C "$repo" worktree remove --force "$tmp/parent" >/dev/null 2>&1 || true
  git -C "$repo" worktree remove --force "$tmp/change" >/dev/null 2>&1 || true
  rm -rf "$tmp"
}
trap cleanup EXIT

git worktree add --quiet --detach "$tmp/parent" "$parent_commit"
# `git stash create` snapshots tracked changes without touching the
# working tree; it prints nothing when there are none.
snapshot="$(git stash create)"
git worktree add --quiet --detach "$tmp/change" "${snapshot:-HEAD}"
git ls-files --others --exclude-standard -z |
  (cd "$repo" && xargs -0 -r cp --parents -t "$tmp/change")

for side in parent change; do
  echo "==> building $side" >&2
  cargo build --release --quiet --offline \
    --manifest-path "$tmp/$side/perfbench/Cargo.toml" --bin perfbench
done

for ((i = 1; i <= pairs; i++)); do
  for side in parent change; do
    echo "==> pair $i/$pairs: $side" >&2
    if ! "$tmp/$side/perfbench/target/release/perfbench" --workload "$workload" \
      --seed "$seed" --seconds "$seconds" 2>"$tmp/$side-$i.log" |
      tail -n 1 >"$tmp/$side-$i.json"; then
      echo "perf_ab: $side run $i failed" >&2
      cat "$tmp/$side-$i.log" >&2
      exit 1
    fi
  done
done

python3 - "$tmp" "$pairs" "$repo/BENCHMARK.json" <<'EOF'
import json, statistics, sys

tmp, pairs, bench = sys.argv[1], int(sys.argv[2]), sys.argv[3]
runs = {
    side: [json.load(open(f"{tmp}/{side}-{i}.json")) for i in range(1, pairs + 1)]
    for side in ("parent", "change")
}
for side, results in runs.items():
    for i, r in enumerate(results, 1):
        if not r.get("correct") or r.get("failed"):
            sys.exit(f"perf_ab: {side} run {i} is not correct: {r}")
print(f"{'metric':<20} {'better':>6} {'parent':>12} {'change':>12} {'ratio':>7}")
for metric in json.load(open(bench))["end_to_end"]:
    name = metric["name"]
    parent = statistics.median(r["metrics"][name]["value"] for r in runs["parent"])
    change = statistics.median(r["metrics"][name]["value"] for r in runs["change"])
    ratio = change / parent if parent else float("nan")
    print(f"{name:<20} {metric['better']:>6} {parent:>12.4g} {change:>12.4g} {ratio:>7.3f}")
EOF
