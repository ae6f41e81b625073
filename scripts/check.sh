#!/usr/bin/env bash
# Full local gate: everything CI would run, in one shot.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> engine determinism suite (1/2/8 threads)"
cargo test -q -p locble-engine --test determinism

echo "==> fleet smoke (release harness, 200 beacons)"
# Capture rather than pipe into grep -q: an early grep exit would SIGPIPE
# the harness mid-report under pipefail.
fleet_report="$(cargo run --release -q -p locble-bench --bin harness -- fleet --threads 8)"
grep -q "accounting reconciles exactly      true" <<<"$fleet_report" \
  || { echo "fleet smoke failed: accounting did not reconcile"; echo "$fleet_report"; exit 1; }

echo "==> serving smoke (release loadgen over loopback)"
loadgen_report="$(cargo run --release -q -p locble-bench --bin loadgen -- --beacons 40 --connections 4 --threads 4 --seed 0x10AD)"
grep -q "accounting reconciles exactly      true" <<<"$loadgen_report" \
  || { echo "serving smoke failed: accounting did not reconcile"; echo "$loadgen_report"; exit 1; }

echo "==> reactor smoke (release loadgen, 1000 multiplexed epoll connections)"
synth_report="$(cargo run --release -q -p locble-bench --bin loadgen -- --synthetic --connections 1000 --batches 2 --batch-len 64)"
grep -q "accounting reconciles exactly      true" <<<"$synth_report" \
  || { echo "reactor smoke failed: accounting did not reconcile"; echo "$synth_report"; exit 1; }

echo "==> serve bench (release harness, three-arm report + BENCH_serve.json)"
cargo run --release -q -p locble-bench --bin harness -- serve --serve-json BENCH_serve.json
test -s BENCH_serve.json \
  || { echo "serve bench failed: BENCH_serve.json missing or empty"; exit 1; }
grep -q '"sustained_connections":10000' BENCH_serve.json \
  || { echo "serve bench failed: 10k-connection arm missing"; cat BENCH_serve.json; exit 1; }
if grep -q '"reconciles":false' BENCH_serve.json; then
  echo "serve bench failed: an arm did not reconcile"; cat BENCH_serve.json; exit 1
fi
grep -q '"all_arms_reconcile":true' BENCH_serve.json \
  || { echo "serve bench failed: all_arms_reconcile not true"; cat BENCH_serve.json; exit 1; }
grep -q '"meets_1m_target":true' BENCH_serve.json \
  || { echo "serve bench failed: 10k arm below 1M adverts/s"; cat BENCH_serve.json; exit 1; }

echo "==> recovery smoke (release crashtest: SIGKILL mid-stream, recover, diff)"
crashtest_report="$(cargo run --release -q -p locble-bench --bin crashtest)"
grep -q "crashtest: PASS" <<<"$crashtest_report" \
  || { echo "recovery smoke failed"; echo "$crashtest_report"; exit 1; }

echo "==> refit smoke (release harness, streaming-refit speedup + BENCH_refit.json)"
refit_report="$(cargo run --release -q -p locble-bench --bin harness -- refit --refit-json BENCH_refit.json)"
grep -q "matches reference within 1e-9      true" <<<"$refit_report" \
  || { echo "refit smoke failed: cached search drifted from reference"; echo "$refit_report"; exit 1; }
grep -q "search speedup >= 5x               true" <<<"$refit_report" \
  || { echo "refit smoke failed: shared-factorization speedup below 5x"; echo "$refit_report"; exit 1; }
test -s BENCH_refit.json \
  || { echo "refit smoke failed: BENCH_refit.json missing or empty"; exit 1; }

echo "==> backend shootout smoke (release harness, per-backend accuracy/cost + BENCH_backends.json)"
backends_report="$(cargo run --release -q -p locble-bench --bin harness -- backends --backends-json BENCH_backends.json)"
grep -q "default backend bit-identical      true" <<<"$backends_report" \
  || { echo "backend shootout failed: boxed default drifted from concrete StreamingEstimator"; echo "$backends_report"; exit 1; }
grep -q "default overhead within 1.5x       true" <<<"$backends_report" \
  || { echo "backend shootout failed: trait-object overhead above tolerance"; echo "$backends_report"; exit 1; }
test -s BENCH_backends.json \
  || { echo "backend shootout failed: BENCH_backends.json missing or empty"; exit 1; }
grep -q '"default_bit_identical":true' BENCH_backends.json \
  || { echo "backend shootout failed: bit-identity gate false in JSON"; cat BENCH_backends.json; exit 1; }
grep -q '"particle_reconciles":true' BENCH_backends.json \
  || { echo "backend shootout failed: particle backend did not reconcile"; cat BENCH_backends.json; exit 1; }
grep -q '"fingerprint_reconciles":true' BENCH_backends.json \
  || { echo "backend shootout failed: fingerprint backend did not reconcile"; cat BENCH_backends.json; exit 1; }

echo "==> hotpath smoke (release harness, kernel speedups + zero-alloc steady state + BENCH_hotpath.json)"
hotpath_report="$(cargo run --release -q -p locble-bench --bin harness -- hotpath --hotpath-json BENCH_hotpath.json)"
grep -q "all kernels match reference        true" <<<"$hotpath_report" \
  || { echo "hotpath smoke failed: a vectorized kernel drifted from its scalar reference"; echo "$hotpath_report"; exit 1; }
grep -q "fingerprint_score speedup >= 1.5x  true" <<<"$hotpath_report" \
  || { echo "hotpath smoke failed: fingerprint scoring speedup below 1.5x"; echo "$hotpath_report"; exit 1; }
grep -q "envelope speedup >= 1.5x           true" <<<"$hotpath_report" \
  || { echo "hotpath smoke failed: envelope speedup below 1.5x"; echo "$hotpath_report"; exit 1; }
grep -q "streaming zero allocs steady state true" <<<"$hotpath_report" \
  || { echo "hotpath smoke failed: warm streaming backend allocated per batch"; echo "$hotpath_report"; exit 1; }
test -s BENCH_hotpath.json \
  || { echo "hotpath smoke failed: BENCH_hotpath.json missing or empty"; exit 1; }

echo "==> obs smoke (release obsctl: traced batch, introspection scrape, flight dump, 3% overhead gate + BENCH_obs.json)"
obs_report="$(cargo run --release -q -p locble-bench --bin obsctl -- smoke --json BENCH_obs.json)"
grep -q "obs smoke: PASS" <<<"$obs_report" \
  || { echo "obs smoke failed"; echo "$obs_report"; exit 1; }
grep -q "ok: trace.refit.us histogram is non-zero" <<<"$obs_report" \
  || { echo "obs smoke failed: serve histograms empty"; echo "$obs_report"; exit 1; }
grep -q "ok: instrumented overhead within 3% of noop" <<<"$obs_report" \
  || { echo "obs smoke failed: telemetry overhead above 3%"; echo "$obs_report"; exit 1; }
test -s BENCH_obs.json \
  || { echo "obs smoke failed: BENCH_obs.json missing or empty"; exit 1; }

echo "==> cluster smoke (release clusterctl: 3-process cluster, 1M adverts/s gate, SIGKILL failover + BENCH_cluster.json)"
cluster_report="$(cargo run --release -q -p locble-bench --bin clusterctl -- smoke --json BENCH_cluster.json)"
grep -q "cluster smoke: PASS" <<<"$cluster_report" \
  || { echo "cluster smoke failed"; echo "$cluster_report"; exit 1; }
test -s BENCH_cluster.json \
  || { echo "cluster smoke failed: BENCH_cluster.json missing or empty"; exit 1; }
grep -q '"meets_1m_target":true' BENCH_cluster.json \
  || { echo "cluster smoke failed: aggregate below 1M adverts/s"; cat BENCH_cluster.json; exit 1; }
grep -q '"reconciles":true' BENCH_cluster.json \
  || { echo "cluster smoke failed: cluster-wide accounting did not reconcile"; cat BENCH_cluster.json; exit 1; }
grep -q '"failover_zero_loss":true' BENCH_cluster.json \
  || { echo "cluster smoke failed: acked adverts lost across failover"; cat BENCH_cluster.json; exit 1; }

echo "==> serving benchmark smoke (perfbench trickle + cluster, bit-identical to a 1-thread reference engine)"
# perfbench exits 0 only when every round passed its correctness gate:
# exact accounting and every estimate bit-identical to a single-threaded
# reference engine (the pooled drain must not move a bit).
for workload in trickle cluster; do
  cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml --bin perfbench -- \
    --workload "$workload" --seconds 5 >/dev/null \
    || { echo "perfbench $workload failed"; exit 1; }
done

echo "==> bench compare (perf ratchet vs bench/baselines)"
scripts/bench_compare.sh

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "All checks passed."
