#!/usr/bin/env bash
# Full local gate: everything CI would run, in one shot. Every step is
# an exit code; the BENCH_*.json verdicts (boolean gates and headline
# ratchets) are judged once, by scripts/bench_compare.sh at the end.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> connection-scale accounting (release loadgen, 10 000 multiplexed epoll connections)"
cargo run --release -q -p locble-bench --bin loadgen -- --connections 10000

echo "==> recovery smoke (release crashtest: SIGKILL mid-stream, recover, diff)"
cargo run --release -q -p locble-bench --bin crashtest

echo "==> refit bench (release harness + BENCH_refit.json)"
cargo run --release -q -p locble-bench --bin harness -- refit --refit-json BENCH_refit.json

echo "==> backend shootout (release harness + BENCH_backends.json)"
cargo run --release -q -p locble-bench --bin harness -- backends --backends-json BENCH_backends.json

echo "==> hotpath bench (release harness + BENCH_hotpath.json)"
cargo run --release -q -p locble-bench --bin harness -- hotpath --hotpath-json BENCH_hotpath.json

echo "==> obs smoke (release obsctl: traced batch, introspection scrape, flight dump + BENCH_obs.json)"
cargo run --release -q -p locble-bench --bin obsctl -- smoke --json BENCH_obs.json

echo "==> serving benchmark smoke (perfbench fleet + trickle + cluster, bit-identical to a 1-thread reference engine)"
# perfbench exits 0 only when every round passed its correctness gate:
# exact accounting and every estimate bit-identical to a single-threaded
# reference engine.
for workload in fleet trickle cluster; do
  cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml --bin perfbench -- \
    --workload "$workload" --seconds 5 >/dev/null \
    || { echo "perfbench $workload failed"; exit 1; }
done

echo "==> bench compare (boolean gates + perf ratchet vs bench/baselines)"
scripts/bench_compare.sh

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "All checks passed."
