#!/usr/bin/env bash
# Benchmark gate for the defense layer and the per-stage micro-benchmarks.
#
# 1. defbench: the cross-defense evaluation matrix — every registered
#    PrivacyDefense published over the same mined stream and attacked by
#    the same inference engine, one defense at a time;
#    prig/pred/utility/attack-MSE plus publish cost APPEND one timestamped
#    run entry to BENCH_defense.json, so the trajectory across changes is
#    preserved — never overwritten.
# 2. The dependency-free overhead + mining micro-benchmark harnesses, for
#    the per-stage context numbers (serial: nothing they time uses the
#    pool).
#
# BENCH_parallel.json, BENCH_support.json and BENCH_release.json are closed
# records: nothing writes them any more. The serve service is measured by
# the separate benchmark/ package over the workloads BENCHMARK.json
# declares, not by this script.
#
# Pass --quick to skip step 2.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release -p bfly-bench"
cargo build -q --release -p bfly-bench

echo "==> defbench (cross-defense matrix, appends to BENCH_defense.json)"
cargo run -q --release -p bfly-bench -- defbench --out BENCH_defense.json

if [[ "${1:-}" != "--quick" ]]; then
  for bench in overhead mining; do
    echo "==> bench ${bench}"
    cargo bench -q -p bfly-bench --bench "$bench"
  done
fi

echo "==> appended a run entry to BENCH_defense.json"
