#!/usr/bin/env bash
# Benchmark gate for the experiment-sweep pool and the vertical
# support-counting engine.
#
# 1. parbench: the one parallel stage (evaluate_cells) timed at 1 worker
#    and at the full worker count in-process (median of $PARBENCH_REPS
#    reps), plus the counting stages (per-transaction scan vs. vertical
#    tid-bitmap).
#    Each invocation APPENDS one timestamped run entry to
#    BENCH_parallel.json and BENCH_support.json at the repo root, so the
#    perf trajectory across changes is preserved — never overwritten.
# 2. defbench: the cross-defense evaluation matrix — every registered
#    PrivacyDefense published over the same mined stream and attacked by
#    the same inference engine, one defense at a time;
#    prig/pred/utility/attack-MSE plus publish cost APPEND to
#    BENCH_defense.json.
# 3. The dependency-free overhead + mining micro-benchmark harnesses, for
#    the per-stage context numbers (serial: nothing they time uses the
#    pool).
#
# The serve service is measured by the separate benchmark/ package over
# the workloads BENCHMARK.json declares, not by this script.
#
# Pass --quick to skip step 3.
set -euo pipefail
cd "$(dirname "$0")/.."

REPS="${PARBENCH_REPS:-5}"

echo "==> cargo build --release -p bfly-bench"
cargo build -q --release -p bfly-bench

echo "==> parbench (${REPS} reps, appends to BENCH_parallel.json + BENCH_support.json)"
cargo run -q --release -p bfly-bench --bin parbench -- --reps "${REPS}" \
  --out BENCH_parallel.json --support-out BENCH_support.json

echo "==> defbench (cross-defense matrix, appends to BENCH_defense.json)"
cargo run -q --release -p bfly-bench --bin defbench -- --out BENCH_defense.json

if [[ "${1:-}" != "--quick" ]]; then
  for bench in overhead mining; do
    echo "==> bench ${bench}"
    cargo bench -q -p bfly-bench --bench "$bench"
  done
fi

echo "==> appended run entries to BENCH_parallel.json, BENCH_support.json, and BENCH_defense.json"
