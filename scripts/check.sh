#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, and the full test suite.
# Run from anywhere inside the repo; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --workspace --all-targets"
cargo build -q --workspace --all-targets

echo "==> cargo doc --workspace --no-deps (warnings denied: no dangling or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> vertical-vs-scan differential tests"
cargo test -q --release --test vertical_support

echo "==> Moment vs rescan soak (soak --quick: four stream shapes through six window turnovers each, contract audit on every release)"
cargo run -q --release -p bfly-bench --bin soak -- --quick

echo "==> release engine vs from-scratch reference differential, restore mid-sequence for every defense"
cargo test -q --release --test release_engine

echo "==> crash-recovery differential (SIGKILL mid-stream, restart on the same --wal-dir, byte-identical catch-up; oversized key refused)"
cargo test -q --release --test wal_recovery

echo "==> federation differential (router over 2 nodes, kill one, survivor + WAL-rejoin byte-identity)"
cargo test -q --release --test federation

echo "==> order-DP depth sweep vs golden (fig6 --quick, γ 0–6 on both datasets; the CSV is the sort-based kernel's, now order::tests::reference, and has never been regenerated)"
cargo run -q --release -p bfly-bench --bin fig6 -- --quick >/dev/null
cmp target/figures/fig6_ropp_vs_gamma.csv tests/golden/fig6_quick.csv \
  || { echo "fig6 --quick diverged from tests/golden/fig6_quick.csv"; exit 1; }

echo "==> serve benchmark: metric names vs BENCHMARK.json, then every byte of all four workloads against the oracle (run --quick)"
cargo test -q --release --manifest-path benchmark/Cargo.toml
cargo run -q --release --manifest-path benchmark/Cargo.toml -- run --quick >/dev/null

echo "==> pool guard (nothing below crates/bench fans out over the thread pool)"
if grep -rn "pool::" crates/common/src crates/mining/src crates/inference/src \
  crates/core/src crates/serve/src | grep -v '^crates/common/src/pool.rs:'; then
  echo "a library crate calls the thread pool; it belongs to crates/bench only"; exit 1
fi

echo "==> thread guard (a serve process runs one reactor thread plus one worker per shard: no thread per connection or subscription)"
SPAWNS=$(for f in $(find crates/serve/src -name '*.rs' | sort); do
  sed '/^ *mod tests {/,$d' "$f" | grep -c 'thread::\(Builder\|spawn\)' | sed "s|^|$f |"
done | grep -v ' 0$' || true)
if [[ "$SPAWNS" != $'crates/serve/src/reactor.rs 1\ncrates/serve/src/shard.rs 1' ]]; then
  echo "thread spawns in crates/serve/src outside the reactor and the shard-worker start:"
  echo "$SPAWNS"; exit 1
fi

echo "==> parbench --quick smoke"
cargo run -q --release -p bfly-bench --bin parbench -- --quick \
  --out target/BENCH_parallel.smoke.json \
  --support-out target/BENCH_support.smoke.json

echo "==> serve smoke (both frame modes, delta wire, mid-stream subscriber, WAL on)"
cargo build -q --release
PORT_FILE=target/serve.smoke.port
WAL_DIR=target/serve.smoke.wal
rm -f "$PORT_FILE"
rm -rf "$WAL_DIR"
target/release/butterfly serve --addr 127.0.0.1:0 --port-file "$PORT_FILE" \
  --window 200 --min-support 8 --vulnerable 3 --epsilon 0.05 --every 40 \
  --snapshot-every 4 --wal-dir "$WAL_DIR" --wal-sync interval:64 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  [[ -s "$PORT_FILE" ]] && break
  sleep 0.1
done
[[ -s "$PORT_FILE" ]] || { echo "server never wrote its port file"; exit 1; }
# First burst drives the legacy NDJSON wire; its releases publish for every
# key, so the second burst's watcher joins stream t0 mid-flight and must
# reconstruct its sanitized state from the next full snapshot plus the
# release_delta events after it (loadgen's watcher dies on any divergence).
# The second burst ingests and watches over binary frames, so one process
# has served both encodings before the drain.
cargo run -q --release -p bfly-bench --bin loadgen -- --quick \
  --addr "$(cat "$PORT_FILE")" --frame json --out target/BENCH_serve.smoke.json
WATCH_LOG=target/serve.smoke.watch.log
cargo run -q --release -p bfly-bench --bin loadgen -- --quick \
  --addr "$(cat "$PORT_FILE")" --frame binary --watch t0 --shutdown \
  --out target/BENCH_serve.smoke.json | tee "$WATCH_LOG"
grep -q 'watch t0 (binary): synced=true' "$WATCH_LOG" \
  || { echo "mid-stream watcher never reconstructed stream t0"; exit 1; }
wait "$SERVE_PID"   # exits 0 only after a clean drain
trap - EXIT
# The drained log must replay: a restart on the same --wal-dir only comes
# up if replay re-executes every logged publication byte-for-byte, and the
# recovered server must take fresh load before draining clean again.
rm -f "$PORT_FILE"
target/release/butterfly serve --addr 127.0.0.1:0 --port-file "$PORT_FILE" \
  --window 200 --min-support 8 --vulnerable 3 --epsilon 0.05 --every 40 \
  --snapshot-every 4 --wal-dir "$WAL_DIR" --wal-sync interval:64 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  [[ -s "$PORT_FILE" ]] && break
  sleep 0.1
done
[[ -s "$PORT_FILE" ]] || { echo "server never recovered from its own wal"; exit 1; }
cargo run -q --release -p bfly-bench --bin loadgen -- --quick --shutdown \
  --addr "$(cat "$PORT_FILE")" --frame binary --out target/BENCH_serve.smoke.json
wait "$SERVE_PID"
trap - EXIT

echo "==> federation smoke (router over 2 WAL nodes, kill one mid-run, survivor WAL differential, clean drain)"
FED_DIR=target/federation.smoke
rm -rf "$FED_DIR"
mkdir -p "$FED_DIR"
# Two identical cluster runs — one undisturbed, one with node B SIGKILLed
# mid-run — driven by the same paced single-client load through a router.
# Placement hashes keys, not connections, so node A owns the same streams
# in both runs; with nothing shed (asserted below) its write-ahead log must
# come out byte-identical: the survivor never notices the kill. Every child
# is waited on (or reaped by the trap on failure) — no leaked processes.
for RUN in undisturbed kill; do
  for N in a b; do
    rm -f "$FED_DIR/$N.port"
    target/release/butterfly serve --addr 127.0.0.1:0 --port-file "$FED_DIR/$N.port" \
      --window 200 --min-support 8 --vulnerable 3 --epsilon 0.05 --every 40 \
      --shards 2 --wal-dir "$FED_DIR/$RUN-wal-$N" --wal-sync interval:64 &
    if [[ "$N" == a ]]; then NODE_A=$!; else NODE_B=$!; fi
  done
  trap 'kill -9 "$NODE_A" "$NODE_B" 2>/dev/null || true' EXIT
  for _ in $(seq 1 100); do
    [[ -s "$FED_DIR/a.port" && -s "$FED_DIR/b.port" ]] && break
    sleep 0.1
  done
  [[ -s "$FED_DIR/a.port" && -s "$FED_DIR/b.port" ]] \
    || { echo "federation nodes never came up"; exit 1; }
  rm -f "$FED_DIR/r.port"
  target/release/butterfly serve --addr 127.0.0.1:0 --port-file "$FED_DIR/r.port" \
    --window 200 --min-support 8 --vulnerable 3 --epsilon 0.05 --every 40 \
    --shards 2 --role router \
    --nodes "$(cat "$FED_DIR/a.port"),$(cat "$FED_DIR/b.port")" &
  ROUTER_PID=$!
  trap 'kill -9 "$NODE_A" "$NODE_B" "$ROUTER_PID" 2>/dev/null || true' EXIT
  for _ in $(seq 1 100); do
    [[ -s "$FED_DIR/r.port" ]] && break
    sleep 0.1
  done
  [[ -s "$FED_DIR/r.port" ]] || { echo "federation router never came up"; exit 1; }
  # Paced so the drive outlives the kill below; the pacing only adds client
  # sleeps, so both runs offer the identical record sequence.
  cargo run -q --release -p bfly-bench --bin loadgen -- \
    --clients 1 --requests 120 --batch 16 --pace 500 \
    --addr "$(cat "$FED_DIR/r.port")" --frame binary --shutdown \
    --out "$FED_DIR/bench.$RUN.json" &
  LOADGEN_PID=$!
  if [[ "$RUN" == kill ]]; then
    sleep 1.2
    kill -9 "$NODE_B" 2>/dev/null || true
  fi
  wait "$LOADGEN_PID" || { echo "loadgen through the router failed ($RUN)"; exit 1; }
  wait "$ROUTER_PID"    # exits 0 only after a clean drain
  wait "$NODE_A"        # drained by the shutdown the router forwarded
  if [[ "$RUN" == kill ]]; then
    wait "$NODE_B" 2>/dev/null || true   # SIGKILLed; reap the zombie
  else
    wait "$NODE_B"
  fi
  trap - EXIT
  grep -q '"shed":0' "$FED_DIR/bench.$RUN.json" \
    || { echo "federation smoke shed records ($RUN); differential would be vacuous"; exit 1; }
done
diff -rq "$FED_DIR/undisturbed-wal-a" "$FED_DIR/kill-wal-a" \
  || { echo "survivor node's release log diverged after the kill"; exit 1; }

echo "==> cross-defense smoke (CLI + serve + matrix, each registered defense)"
SMOKE_DIR=target/defense.smoke
mkdir -p "$SMOKE_DIR"
target/release/butterfly gen --profile webview1 --count 600 --seed 7 \
  --out "$SMOKE_DIR/stream.dat"
for DEFENSE in butterfly privbasis suppress; do
  # Same stream, same seed, twice: every defense must be bit-reproducible.
  for RUN in a b; do
    target/release/butterfly protect --input "$SMOKE_DIR/stream.dat" \
      --window 200 --min-support 8 --vulnerable 3 --epsilon 0.05 --delta 0.5 \
      --every 40 --seed 11 --defense "$DEFENSE" \
      --out "$SMOKE_DIR/$DEFENSE.$RUN.jsonl" 2>/dev/null
  done
  cmp "$SMOKE_DIR/$DEFENSE.a.jsonl" "$SMOKE_DIR/$DEFENSE.b.jsonl" \
    || { echo "defense $DEFENSE is not reproducible"; exit 1; }
  # Boot a server with the defense as the default and drive it once.
  PORT_FILE="$SMOKE_DIR/$DEFENSE.port"
  rm -f "$PORT_FILE"
  target/release/butterfly serve --addr 127.0.0.1:0 --port-file "$PORT_FILE" \
    --window 200 --min-support 8 --vulnerable 3 --epsilon 0.05 --every 40 \
    --defense "$DEFENSE" &
  SERVE_PID=$!
  trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
  for _ in $(seq 1 100); do
    [[ -s "$PORT_FILE" ]] && break
    sleep 0.1
  done
  [[ -s "$PORT_FILE" ]] || { echo "serve --defense $DEFENSE never came up"; exit 1; }
  cargo run -q --release -p bfly-bench --bin loadgen -- --quick --shutdown \
    --addr "$(cat "$PORT_FILE")" --out "$SMOKE_DIR/$DEFENSE.serve.json"
  wait "$SERVE_PID"
  trap - EXIT
done
# Unknown defenses must be rejected with the valid-name list, not applied.
if target/release/butterfly protect --input "$SMOKE_DIR/stream.dat" \
  --window 200 --min-support 8 --vulnerable 3 --epsilon 0.05 --delta 0.5 \
  --defense rot13 2>"$SMOKE_DIR/unknown.err"; then
  echo "unknown --defense was accepted"; exit 1
fi
grep -q 'unknown defense' "$SMOKE_DIR/unknown.err" \
  || { echo "unknown --defense error lacks the defense name list"; exit 1; }

echo "==> defense matrix smoke (scratch output under target/)"
cargo run -q --release -p bfly-bench --bin defbench -- --quick \
  --out target/BENCH_defense.smoke.json

echo "==> all checks passed"
