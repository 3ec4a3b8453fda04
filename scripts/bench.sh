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
# 2. loadgen: the bfly_serve stream service driven by concurrent TCP
#    clients over both frame encodings at 1 shard (json, binary; unpaced,
#    then paced at 75% of what json sustained), then binary at 4 shards
#    for the scaling ratio, then the durability-tax matrix — the unpaced
#    1-shard drive with the write-ahead log on at each sync policy (never,
#    interval:64, always) per encoding, against the no-WAL rows as
#    baselines — then the federation matrix: a churning key population
#    driven direct at one node vs through a --role router over 1/2/4
#    nodes (router/1-node ÷ direct = routing tax, router/N ÷ router/1 =
#    placement spread); throughput + latency percentiles + shed rates
#    APPEND to BENCH_serve.json (entries record the host's core count —
#    shard and node scaling are only meaningful with >1 core).
# 3. defbench: the cross-defense evaluation matrix — every registered
#    PrivacyDefense published over the same mined stream and attacked by
#    the same inference engine, one defense at a time;
#    prig/pred/utility/attack-MSE plus publish cost APPEND to
#    BENCH_defense.json.
# 4. The dependency-free overhead + mining micro-benchmark harnesses, for
#    the per-stage context numbers (serial: nothing they time uses the
#    pool).
#
# Pass --quick to skip step 4.
set -euo pipefail
cd "$(dirname "$0")/.."

REPS="${PARBENCH_REPS:-5}"

echo "==> cargo build --release -p bfly-bench"
cargo build -q --release -p bfly-bench

echo "==> parbench (${REPS} reps, appends to BENCH_parallel.json + BENCH_support.json)"
cargo run -q --release -p bfly-bench --bin parbench -- --reps "${REPS}" \
  --out BENCH_parallel.json --support-out BENCH_support.json

echo "==> loadgen (frame-encoding pair + 4-shard scaling + WAL durability tax + router-vs-direct federation matrix, appends to BENCH_serve.json)"
cargo run -q --release -p bfly-bench --bin loadgen -- --out BENCH_serve.json

echo "==> defbench (cross-defense matrix, appends to BENCH_defense.json)"
cargo run -q --release -p bfly-bench --bin defbench -- --out BENCH_defense.json

if [[ "${1:-}" != "--quick" ]]; then
  for bench in overhead mining; do
    echo "==> bench ${bench}"
    cargo bench -q -p bfly-bench --bench "$bench"
  done
fi

echo "==> appended run entries to BENCH_parallel.json, BENCH_support.json, and BENCH_defense.json"
