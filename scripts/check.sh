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

echo "==> Moment vs Eclat re-mine soak (soak --quick: four stream shapes through six window turnovers each, Moment fed by tid and settled alternately 97 and 151 slides apart, so the w=300 shapes both walk and rebuild; fails if a shape misses a path it should take; contract audit on every release)"
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

echo "==> one-miner guard (the pipeline, serve and protect run Moment; Eclat is the one batch miner and Apriori the one reference)"
if grep -rnE 'dyn MinerBackend' crates/core/src crates/serve/src src; then
  echo "a runtime miner choice crept back into the production path; the pipeline holds MomentMiner"; exit 1
fi
if grep -rnwE 'FpGrowth|FpTree|Charm|RescanMiner|BatchBackend|BackendKind' crates src tests examples; then
  echo "a second batch miner, a re-mine oracle type or the miner registry came back; mine with Eclat, re-mine the window for an oracle"; exit 1
fi
if sed -n '/^const FLAG_TABLE/,/^];/p' src/bin/butterfly.rs | grep -nF '"miner"'; then
  echo "--miner is back in FLAG_TABLE; mine, rules and attack mine with Eclat"; exit 1
fi
REFS=$(for f in $(find src crates/core/src crates/serve/src crates/inference/src -name '*.rs' | sort); do
  sed '/^ *mod tests {/,$d' "$f" | grep -nF 'Apriori::new' | grep -v '^[0-9]*: *//' | sed "s|^|$f:|"
done || true)
if [[ -n "$REFS" ]]; then
  echo "$REFS"
  echo "Apriori is the reference miner for tests and examples; shipped code mines with Eclat"; exit 1
fi

echo "==> one-copy guard (Moment's ring is a stream's one window copy: SlidingWindow is the oracles' model, not the pipeline's, serve's or the CLI's)"
COPIES=$(for f in $(find crates/core/src crates/serve/src src -name '*.rs' | sort); do
  sed '/^ *mod tests {/,$d' "$f" | grep -n 'SlidingWindow' | sed "s|^|$f:|"
done || true)
if [[ -n "$COPIES" ]]; then
  echo "$COPIES"
  echo "a second copy of the window crept back into the production path; StreamPipeline feeds MomentMiner by tid"; exit 1
fi

echo "==> one-writer guard (a publication is encoded once, as its binary frame: the release and release_delta event envelopes and the itemset entry key are each built at one site)"
for PAT in 'Json::from("release")' 'Json::from("release_delta")' '"itemset",'; do
  SITES=$(for f in $(find crates src -name '*.rs' | sort); do
    sed '/^ *mod tests {/,$d' "$f" | grep -nF "$PAT" | grep -v '^[0-9]*: *//' | sed "s|^|$f:|"
  done || true)
  if [[ $(grep -c . <<<"$SITES") != 1 ]]; then
    echo "$SITES"
    echo "$PAT is built at more or fewer than one site; NDJSON events and protect lines are transcoded from the binary frame's entries"; exit 1
  fi
done

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

echo "==> defense matrix smoke (scratch output under target/)"
cargo run -q --release -p bfly-bench --bin defbench -- --quick \
  --out target/BENCH_defense.smoke.json

echo "==> all checks passed"
