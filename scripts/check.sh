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

echo "==> Moment vs Eclat re-mine soak (soak --quick: six stream shapes through six window turnovers each, Moment fed by tid and settled alternately 53 and 151 slides apart, so the w=300 shapes both walk and rebuild; fails if a shape misses a path it should take; contract audit on every release)"
cargo run -q --release -p bfly-bench -- soak --quick

echo "==> release engine vs from-scratch reference differential, restore mid-sequence for every defense"
cargo test -q --release --test release_engine

echo "==> crash-recovery differential (SIGKILL mid-stream, restart on the same --wal-dir, byte-identical catch-up; oversized key refused)"
cargo test -q --release --test wal_recovery

echo "==> federation differential (router over 2 nodes, kill one, survivor + WAL-rejoin byte-identity)"
cargo test -q --release --test federation

echo "==> order-DP depth sweep vs golden (fig6 --quick, γ 0–6 on both datasets; the CSV was re-derived when the noise draws gained the publication index, and the kernel is pinned to the sort-based one, order::tests::reference)"
cargo run -q --release -p bfly-bench -- fig6 --quick >/dev/null
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

echo "==> one-pipeline guard (StreamPipeline is one type over a Box<dyn PrivacyDefense>, with one publication call, publish_now, and an audit keyed by the defense's kind: no non-test code under crates/*/src, src or examples names a generic pipeline, a boxed-defense impl, a defense clone or a contract flag)"
PIPES=$(for f in $(find crates/*/src src examples -name '*.rs' | sort); do
  sed -E '/^ *(pub\(crate\) )?mod tests \{/,$d' "$f" \
    | grep -nE 'StreamPipeline<|impl PrivacyDefense for Box|boxed_clone|honors_butterfly_contract' \
    | sed "s|^|$f:|"
done || true)
if [[ -n "$PIPES" ]]; then
  echo "$PIPES"
  echo "a second pipeline shape crept back; StreamPipeline::new takes a Box<dyn PrivacyDefense> and audits exactly when defense.kind() is Butterfly"; exit 1
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

echo "==> one-ingest-path guard (the codec decodes an ingest, binary or NDJSON, into the chunk the shard takes: outside the protocol and the client, nothing in crates/serve/src builds or matches Request::Ingest)"
INGESTS=$(for f in $(find crates/serve/src -name '*.rs' | sort); do
  case "$f" in crates/serve/src/protocol.rs | crates/serve/src/client.rs) continue ;; esac
  sed '/^ *mod tests {/,$d' "$f" | grep -nF 'Request::Ingest' | grep -v '^[0-9]*: *//' | sed "s|^|$f:|"
done || true)
if [[ -n "$INGESTS" ]]; then
  echo "$INGESTS"
  echo "an ingest is handled as a Request again; FrameCodec::next_inbound hands both encodings over as Inbound::Ingest"; exit 1
fi

echo "==> one-layout guard (the wire and the log share one binary layout: outside the frame codec, no non-test code defines a payload reader, a payload writer or the 0xBF magic)"
LAYOUTS=$(for f in $(find crates/*/src src -name '*.rs' | sort); do
  [[ "$f" == crates/common/src/frame.rs ]] && continue
  sed -E '/^ *(pub\(crate\) )?mod tests \{/,$d' "$f" \
    | grep -nE '\bstruct Cursor\b|\bfn put_(str|ids|entries)\b|: *u8 *= *0x[bB][fF]\b' \
    | grep -v '^[0-9]*: *//' | sed "s|^|$f:|"
done || true)
if [[ -n "$LAYOUTS" ]]; then
  echo "$LAYOUTS"
  echo "a second copy of the binary layout; read and write payloads through bfly_common::frame's Cursor and put_* writers"; exit 1
fi

echo "==> one-storage guard (every file-system call of the WAL sits in its segment store: the writer, recovery and catch-up reach segments only through SegmentStore)"
STORAGE=$(for f in $(find crates/serve/src/wal -name '*.rs' | sort); do
  [[ "$f" == crates/serve/src/wal/segment.rs ]] && continue
  sed -E '/^ *(pub\(crate\) )?mod tests \{/,$d' "$f" | grep -nE '\bstd::fs\b|\bFile\b|\bOpenOptions\b' | grep -v '^[0-9]*: *//' | sed "s|^|$f:|"
done || true)
if [[ -n "$STORAGE" ]]; then
  echo "$STORAGE"
  echo "the WAL touches the file system outside wal/segment.rs; add the operation to SegmentStore instead"; exit 1
fi

echo "==> one-copy-in-the-log guard (each transaction is logged once, in its ingest record: a live snapshot names its window by position; outside wal/record.rs, which defines and decodes the record, nothing in crates/serve/src builds a StreamSnapshot or SnapshotEntry or reads the window's records back, and record.rs's live snapshot encoder writes no window record)"
LOGGED_TWICE=$(for f in $(find crates/serve/src -name '*.rs' | sort); do
  [[ "$f" == crates/serve/src/wal/record.rs ]] && continue
  sed -E '/^ *(pub\(crate\) )?mod tests \{/,$d' "$f" | grep -nE 'StreamSnapshot \{|SnapshotEntry \{|\.records\(\)|itemset_of|for_each_record|ids_of' \
    | grep -v '^[0-9]*: *//' | sed "s|^|$f:|"
done || true)
LIVE_ENCODER=$(awk '/^ *(pub\(crate\) )?mod tests \{/ { exit }
  /fn encode_snapshot\(/ { on = 1 } on { print } on && /^}/ { on = 0 }' crates/serve/src/wal/record.rs)
if [[ -z "$LIVE_ENCODER" ]] || ! grep -qF 'put_snapshot(p, head, prev, &[])' <<< "$LIVE_ENCODER"; then
  LOGGED_TWICE="${LOGGED_TWICE}crates/serve/src/wal/record.rs: encode_snapshot does not name its window by position (put_snapshot(p, head, prev, &[]))"
fi
if [[ -n "$LOGGED_TWICE" ]]; then
  echo "$LOGGED_TWICE"
  echo "a second copy of the window reaches the log; log snapshots with WalWriter::append_snapshot, which names the window by position"; exit 1
fi

echo "==> one-ledger guard (what the log must keep is one ledger in wal/writer.rs: the writer and replay apply every record to it through Coverage::apply; outside writer.rs, no non-test code in crates/serve/src names its ingest runs or snapshot basis, or anchors a snapshot itself)"
LEDGERS=$(for f in $(find crates/serve/src -name '*.rs' | sort); do
  [[ "$f" == crates/serve/src/wal/writer.rs ]] && continue
  sed -E '/^ *(pub\(crate\) )?mod tests \{/,$d' "$f" | grep -nE '\bIngestSegs\b|\bBasis\b|\.anchor\(|\.logged\(' \
    | grep -v '^[0-9]*: *//' | sed "s|^|$f:|"
done || true)
if [[ -n "$LEDGERS" ]]; then
  echo "$LEDGERS"
  echo "a second copy of the coverage bookkeeping; apply the record's Mark to wal::writer::Coverage instead"; exit 1
fi

echo "==> no-panic-on-log guard (a failed log append or sync turns the shard read-only: nothing in crates/serve/src unwraps or expects a WalWriter, recovery or store result)"
# One awk record per statement (split at ';'), so a call and the .expect
# that closes it a few lines later are judged together. wal/fault.rs is
# test support, compiled only under cfg(test).
PANICS=$(for f in $(find crates/serve/src -name '*.rs' | sort); do
  [[ "$f" == crates/serve/src/wal/fault.rs ]] && continue
  sed -E '/^ *(pub\(crate\) )?mod tests \{/,$d' "$f" | grep -v '^ *//' | awk -v f="$f" 'BEGIN { RS = ";" }
    /\.(expect|unwrap)\(/ && /(WalWriter::open|recover_shard|publish_and_log\(|\.append(_ingest)?\(|\.sync(_dir)?\(|\.open_append\(|\.create_or_open\(|\.read_at\(|\.truncate\(|reader\.(open|next)\()/ {
      gsub(/\n[ ]*/, " "); print f ":" $0 }'
done || true)
if [[ -n "$PANICS" ]]; then
  echo "$PANICS"
  echo "a log operation's failure panics; return it so the shard worker turns read-only"; exit 1
fi

echo "==> one-history guard (the pipeline owns a stream's past: no engine or defense keeps a previous release or pin map, or restores one)"
# A field whose type holds a release, a pin map (the history's PinTable or
# Pin, or the map of pairs by itemset it replaced) or a PublicationHistory,
# or any `fn restore`, in non-test code under crates/core/src/{engine,defense}.
# The one exception is the history the frozen Publisher::publish_with_delta
# keeps for benchmark/src/trace.rs (ROADMAP 1(b)).
HELD=$(for f in $(find crates/core/src/engine crates/core/src/defense -name '*.rs' | sort); do
  sed -E '/^ *(pub\(crate\) )?mod tests \{/,$d' "$f" \
    | grep -nE '^ *(pub(\([a-z]+\))? +)?[a-z_][a-z0-9_]*: *[^&=;]*(SanitizedRelease|PublicationHistory|PinTable|\bPin\b|HashMap<ItemsetId, \(Support, SanitizedSupport\)>)[^=;(:]*, *$|\bfn restore\b' \
    | grep -v '^[0-9]*: *//' | sed "s|^|$f:|"
done | grep -vE '^crates/core/src/engine/mod\.rs:[0-9]+: *history: PublicationHistory,$' || true)
if [[ -n "$HELD" ]]; then
  echo "$HELD"
  echo "a defense or the engine keeps stream history again; read the PublicationHistory the pipeline passes to publish"; exit 1
fi

echo "==> no-global-itemset-state guard (an itemset lives as long as the result, release, history, delta or view holding it: no leaked allocation, no process-wide locked static, no unsafe in bfly_common)"
# Non-test code under crates/*/src: any Box::leak; a static whose type holds
# a OnceLock, RwLock or Mutex (one named exception: the pool's DEFAULT thread
# count); any unsafe under crates/common/src.
GLOBALS=$(for f in $(find crates/*/src -name '*.rs' | sort); do
  sed -E '/^ *(pub\(crate\) )?mod tests \{/,$d' "$f" \
    | grep -nE '\bBox::leak\b|^ *(pub(\([a-z]+\))? +)?static +[A-Z_0-9]+ *:.*\b(OnceLock|RwLock|Mutex)\b' \
    | grep -v '^[0-9]*: *//' | sed "s|^|$f:|"
  if [[ "$f" == crates/common/src/* ]]; then
    sed -E '/^ *(pub\(crate\) )?mod tests \{/,$d' "$f" | grep -nw 'unsafe' \
      | grep -v '^[0-9]*: *//' | sed "s|^|$f:|"
  fi
done | grep -vE '^crates/common/src/pool\.rs:[0-9]+: *static DEFAULT: OnceLock<usize> = OnceLock::new\(\);$' || true)
if [[ -n "$GLOBALS" ]]; then
  echo "$GLOBALS"
  echo "process-wide itemset state crept back; an ItemsetId is an Arc<ItemSet> owned by what holds it"; exit 1
fi

echo "==> one-noise-rule guard (every publication-noise draw is keyed by noise::noise_rng, and protect and serve have no public default seed)"
# Non-test code under crates/core/src calls split_stream only in noise.rs;
# src/bin/butterfly.rs gives --seed no literal default outside cmd_gen,
# whose seed picks a synthetic corpus, not a secret.
RULES=$( { for f in $(find crates/core/src -name '*.rs' | sort); do
  [[ "$f" == crates/core/src/noise.rs ]] && continue
  sed -E '/^ *(pub\(crate\) )?mod tests \{/,$d' "$f" | grep -n 'split_stream' \
    | grep -v '^[0-9]*: *//' | sed "s|^|$f:|"
done
awk '/^fn cmd_gen\(/, /^}/ { next } /"seed"\)[^;]*\.(map_or|unwrap_or(_default)?)\(/ { print FILENAME ":" FNR ":" $0 }' \
  src/bin/butterfly.rs; } || true)
if [[ -n "$RULES" ]]; then
  echo "$RULES"
  echo "a noise draw is keyed outside noise::noise_rng, or --seed has a public default again; draw through the rule, and default to a fresh secret"; exit 1
fi

echo "==> thread guard (a serve process runs one reactor thread plus one worker per shard: no thread per connection or subscription)"
SPAWNS=$(for f in $(find crates/serve/src -name '*.rs' | sort); do
  sed '/^ *mod tests {/,$d' "$f" | grep -c 'thread::\(Builder\|spawn\)' | sed "s|^|$f |"
done | grep -v ' 0$' || true)
if [[ "$SPAWNS" != $'crates/serve/src/reactor.rs 1\ncrates/serve/src/shard.rs 1' ]]; then
  echo "thread spawns in crates/serve/src outside the reactor and the shard-worker start:"
  echo "$SPAWNS"; exit 1
fi

echo "==> one-binary guard (every experiment is a subcommand of bfly-bench over its one FLAG_TABLE)"
if [[ -e crates/bench/src/bin ]] || (( $(grep -c '^\[\[bin\]\]' crates/bench/Cargo.toml) > 1 )); then
  echo "crates/bench declares a second binary; add a bfly-bench subcommand instead"; exit 1
fi

echo "==> defense matrix smoke (scratch output under target/)"
cargo run -q --release -p bfly-bench -- defbench --quick \
  --out target/BENCH_defense.smoke.json

echo "==> all checks passed"
