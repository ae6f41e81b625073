#!/usr/bin/env bash
# Full local gate: everything CI would run, in one shot. Every step is
# an exit code: each fact has one gate, and no step compares a number
# measured on this host against a committed one. Absolute throughput
# and latency are judged only by alternating perfbench runs
# (scripts/perf_ab.sh), not here.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> connection-scale accounting (release loadgen, 10 000 multiplexed epoll connections)"
cargo run --release -q -p locble-bench --bin loadgen -- --connections 10000

echo "==> backend shootout (release harness + BENCH_backends.json; exits 1 on a false gate)"
cargo run --release -q -p locble-bench --bin harness -- backends --backends-json BENCH_backends.json

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

echo "==> perfbench tests (its own workspace, built against the locble-* crates)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc, warnings denied (every locble-* crate, the umbrella locble-repro included; not the vendored stand-ins)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p 'locble-*'

echo "==> cargo fmt --check"
cargo fmt --check

echo "All checks passed."
