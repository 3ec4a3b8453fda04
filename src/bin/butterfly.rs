//! `butterfly` — command-line front end for the reproduction.
//!
//! ```text
//! butterfly gen     --profile webview1 --count 10000 --seed 1 --out stream.dat
//! butterfly mine    --input stream.dat --min-support 25 [--closed]
//! butterfly attack  --input stream.dat --window 2000 --min-support 25 --vulnerable 5
//! butterfly protect --input stream.dat --window 2000 --min-support 25 --vulnerable 5 \
//!                   --epsilon 0.016 --delta 0.4 --scheme hybrid --lambda 0.4 --every 100
//! butterfly serve   --addr 127.0.0.1:7878 --shards 4 --window 2000 --min-support 25
//! ```
//!
//! `mine`, `rules` and `attack` mine a static file with Eclat; `protect`
//! and `serve` mine every window with Moment.
//!
//! `protect` writes one JSON object per published window to stdout (or
//! `--out`), containing only sanitized supports — the same trust boundary a
//! deployment would have. `serve` exposes the same pipeline as a sharded
//! multi-tenant TCP service (see `bfly_serve`).

use butterfly_repro::butterfly::{
    BiasScheme, DefenseKind, DefenseSpec, PrivacyDefense, PrivacySpec, StreamPipeline,
};
use butterfly_repro::common::flags::{parse_flags, Flags};
use butterfly_repro::common::rng::os_seed;
use butterfly_repro::common::{io as dat, Database, Json};
use butterfly_repro::datagen::DatasetProfile;
use butterfly_repro::inference::find_intra_window_breaches;
use butterfly_repro::mining::closed::closed_subset;
use butterfly_repro::mining::Eclat;
use butterfly_repro::serve::protocol::{binary_entries, entries_json};
use butterfly_repro::serve::{parse_node_list, wal, ServeConfig, ServeRole, Server, WalConfig};
use std::io::{BufWriter, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse_flags(FLAG_TABLE, command, rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "gen" => cmd_gen(&opts),
        "mine" => cmd_mine(&opts),
        "rules" => cmd_rules(&opts),
        "attack" => cmd_attack(&opts),
        "protect" => cmd_protect(&opts),
        "serve" => cmd_serve(&opts),
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "butterfly — output-privacy protection for stream frequent-pattern mining

USAGE:
  butterfly gen     --profile <webview1|pos> --count <N> [--seed <S>] [--out <file.dat>]
  butterfly mine    --input <file.dat> --min-support <C> [--closed] [--out <file>]
  butterfly rules   --input <file.dat> --min-support <C> --min-confidence <F> [--top <N>]
  butterfly attack  --input <file.dat> --window <H> --min-support <C> --vulnerable <K>
  butterfly protect --input <file.dat> --window <H> --min-support <C> --vulnerable <K>
                    --epsilon <E> --delta <D> [--scheme <basic|order|ratio|hybrid>]
                    [--lambda <L>] [--gamma <G>] [--every <N>] [--seed <S>]
                    [--defense <butterfly|privbasis|suppress>] [--dp-budget <E>] [--dp-top-k <N>]
                    [--out <file.jsonl>]
  butterfly serve   [--addr <ip:port>] [--shards <N>] [--window <H>] [--min-support <C>]
                    [--vulnerable <K>] [--epsilon <E>] [--delta <D>] [--scheme <...>]
                    [--lambda <L>] [--gamma <G>] [--every <N>]
                    [--snapshot-every <N>] [--seed <S>] [--max-frame-bytes <N>]
                    [--port-file <path>] [--wal-dir <dir>] [--wal-sync <always|interval:N|never>]
                    [--defense <...>] [--dp-budget <E>] [--dp-top-k <N>]
                    [--role <node|router>] [--nodes <ip:port,ip:port,...>]

`mine`, `rules` and `attack` mine the file with Eclat. `protect` and
`serve` mine every window with Moment, the paper's host miner (exact
window counts of the closed frequent itemsets).
`--lambda` must lie in [0, 1] and `--gamma` may not exceed 6.
`serve --snapshot-every N` (N > 1) ships a release_delta event per
publication plus a full release snapshot every N-th one.
`--defense` swaps the publication stage: butterfly (default; FEC bias +
noise), privbasis (ε-DP top-k with --dp-budget/--dp-top-k), or suppress
(sensitive-itemset hiding at exact supports). Serve clients can override
per stream with a `bind` request before the stream's first ingest.
`--seed` keys the noise. Without it, `protect` and a `serve` node draw a
fresh one from /dev/urandom (`protect` names it on stderr); `serve --wal-dir`
stores it once in the log directory and later starts use the stored one.
`serve` runs every connection on one epoll event-loop thread (Linux).
Clients negotiate NDJSON or binary framing per frame by leading byte;
`--max-frame-bytes` caps both encodings.

`serve --wal-dir` turns on the per-shard write-ahead release log: every
accepted ingest and every publication is logged (durability per --wal-sync,
default interval:64), a restart on the same directory replays the log back
to the exact pre-crash state, and subscribers may catch up from retained
log history by adding from: earliest or from: window:<n> to subscribe.

`serve --role router --nodes a:p,b:p,...` starts a stateless routing tier
instead of a mining node: clients speak the identical protocol to the
router, which maps each stream key onto the node that owns it (fnv1a(key)
mod N*shards slots) and forwards ingest/bind, merges stats, and proxies
subscriptions (including WAL catch-up served by the owning node). Every
node should run with the same --shards and pipeline knobs; durability
stays on the nodes (--wal-dir conflicts with --role router).";

/// `(name, takes_value)` — flags each subcommand accepts, parsed by
/// `parse_flags`: a typo like `--schme` is an error naming the valid set.
const FLAG_TABLE: &[(&str, &[(&str, bool)])] = &[
    (
        "gen",
        &[
            ("profile", true),
            ("count", true),
            ("seed", true),
            ("out", true),
        ],
    ),
    (
        "mine",
        &[
            ("input", true),
            ("min-support", true),
            ("closed", false),
            ("out", true),
        ],
    ),
    (
        "rules",
        &[
            ("input", true),
            ("min-support", true),
            ("min-confidence", true),
            ("top", true),
        ],
    ),
    (
        "attack",
        &[
            ("input", true),
            ("window", true),
            ("min-support", true),
            ("vulnerable", true),
        ],
    ),
    (
        "protect",
        &[
            ("input", true),
            ("window", true),
            ("min-support", true),
            ("vulnerable", true),
            ("epsilon", true),
            ("delta", true),
            ("scheme", true),
            ("lambda", true),
            ("gamma", true),
            ("every", true),
            ("seed", true),
            ("defense", true),
            ("dp-budget", true),
            ("dp-top-k", true),
            ("out", true),
        ],
    ),
    (
        "serve",
        &[
            ("addr", true),
            ("shards", true),
            ("window", true),
            ("min-support", true),
            ("vulnerable", true),
            ("epsilon", true),
            ("delta", true),
            ("scheme", true),
            ("lambda", true),
            ("gamma", true),
            ("every", true),
            ("snapshot-every", true),
            ("seed", true),
            ("io", true), // a no-op kept for the frozen benchmark; see cmd_serve
            ("max-frame-bytes", true),
            ("port-file", true),
            ("wal-dir", true),
            ("wal-sync", true),
            ("defense", true),
            ("dp-budget", true),
            ("dp-top-k", true),
            ("role", true),
            ("nodes", true),
        ],
    ),
];

fn req<'a>(flags: &'a Flags, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{name}"))
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: {s:?}"))
}

/// `--out <path>` or stdout, buffered either way. Callers must `flush()`.
fn out_writer(flags: &Flags) -> Result<Box<dyn Write>, String> {
    Ok(match flags.get("out") {
        Some(path) => Box::new(BufWriter::new(
            std::fs::File::create(path).map_err(|e| e.to_string())?,
        )),
        None => Box::new(BufWriter::new(std::io::stdout().lock())),
    })
}

/// Shared by `protect` and `serve`: `--defense` plus the PrivBasis knobs.
/// Unknown names are rejected at parse time with the valid list — the same
/// bind-time UX as unknown flags and `PrivacySpec::checked`.
fn parse_defense(flags: &Flags) -> Result<DefenseSpec, String> {
    let kind: DefenseKind = flags
        .get("defense")
        .map_or(DefenseKind::Butterfly.name(), String::as_str)
        .parse()
        .map_err(|e: butterfly_repro::common::Error| e.to_string())?;
    let mut dspec = DefenseSpec::new(kind);
    if let Some(v) = flags.get("dp-budget") {
        dspec.dp_budget = parse(v, "dp-budget")?;
    }
    if let Some(v) = flags.get("dp-top-k") {
        dspec.dp_top_k = parse(v, "dp-top-k")?;
    }
    dspec.validate()?;
    Ok(dspec)
}

/// Shared by `protect` and `serve`: `--scheme` plus its `--lambda`/`--gamma`
/// parameters, refused here when no publisher could run with them.
fn parse_scheme(flags: &Flags) -> Result<BiasScheme, String> {
    let gamma: usize = parse(flags.get("gamma").map_or("2", String::as_str), "gamma")?;
    let lambda: f64 = parse(flags.get("lambda").map_or("0.4", String::as_str), "lambda")?;
    let scheme = match flags.get("scheme").map_or("hybrid", String::as_str) {
        "basic" => BiasScheme::Basic,
        "order" => BiasScheme::OrderPreserving { gamma },
        "ratio" => BiasScheme::RatioPreserving,
        "hybrid" => BiasScheme::Hybrid { lambda, gamma },
        other => return Err(format!("unknown scheme {other:?}")),
    };
    scheme.checked()
}

fn cmd_gen(flags: &Flags) -> Result<(), String> {
    let profile = match req(flags, "profile")? {
        "webview1" => DatasetProfile::WebView1,
        "pos" => DatasetProfile::Pos,
        other => return Err(format!("unknown profile {other:?}")),
    };
    let count: usize = parse(req(flags, "count")?, "count")?;
    let seed: u64 = parse(flags.get("seed").map_or("0", String::as_str), "seed")?;
    let txs = profile.source(seed).take_vec(count);
    let db = Database::from_records(txs);
    match flags.get("out") {
        Some(path) => dat::save_dat(path, &db).map_err(|e| e.to_string())?,
        None => dat::write_dat(std::io::stdout().lock(), &db).map_err(|e| e.to_string())?,
    }
    eprintln!(
        "generated {} transactions ({} distinct items, mean length {:.2})",
        db.len(),
        db.alphabet().len(),
        db.mean_record_len()
    );
    Ok(())
}

fn cmd_mine(flags: &Flags) -> Result<(), String> {
    let db = dat::load_dat(req(flags, "input")?).map_err(|e| e.to_string())?;
    let c: u64 = parse(req(flags, "min-support")?, "min-support")?;
    let mut frequent = Eclat::new(c).mine(&db);
    if flags.contains_key("closed") {
        frequent = closed_subset(&frequent);
    }
    let mut out = out_writer(flags)?;
    write!(out, "{frequent}").map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    eprintln!(
        "{} itemsets at C={c} over {} records",
        frequent.len(),
        db.len()
    );
    Ok(())
}

fn cmd_rules(flags: &Flags) -> Result<(), String> {
    use butterfly_repro::mining::generate_rules;
    let db = dat::load_dat(req(flags, "input")?).map_err(|e| e.to_string())?;
    let c: u64 = parse(req(flags, "min-support")?, "min-support")?;
    let min_conf: f64 = parse(req(flags, "min-confidence")?, "min-confidence")?;
    let top: usize = parse(flags.get("top").map_or("25", String::as_str), "top")?;
    let frequent = Eclat::new(c).mine(&db);
    let rules = generate_rules(&frequent, min_conf);
    for rule in rules.iter().take(top) {
        println!("{rule}");
    }
    eprintln!(
        "{} rules at C={c}, confidence ≥ {min_conf} (showing up to {top})",
        rules.len()
    );
    Ok(())
}

fn cmd_attack(flags: &Flags) -> Result<(), String> {
    let db = dat::load_dat(req(flags, "input")?).map_err(|e| e.to_string())?;
    let window: usize = parse(req(flags, "window")?, "window")?;
    let c: u64 = parse(req(flags, "min-support")?, "min-support")?;
    let k: u64 = parse(req(flags, "vulnerable")?, "vulnerable")?;
    if db.len() < window {
        return Err(format!(
            "stream has {} records, window is {window}",
            db.len()
        ));
    }
    let tail = Database::from_records(db.records()[db.len() - window..].to_vec());
    let full = Eclat::new(c).mine(&tail);
    let breaches = find_intra_window_breaches(full.as_map(), k);
    println!(
        "window of last {window} records: {} published itemsets, {} inferable vulnerable patterns (K={k})",
        full.len(),
        breaches.len()
    );
    for b in breaches.iter().take(50) {
        println!("  {}  support {}", b.pattern, b.support);
    }
    if breaches.len() > 50 {
        println!("  ... ({} more)", breaches.len() - 50);
    }
    Ok(())
}

fn cmd_protect(flags: &Flags) -> Result<(), String> {
    let db = dat::load_dat(req(flags, "input")?).map_err(|e| e.to_string())?;
    let window: usize = parse(req(flags, "window")?, "window")?;
    let c: u64 = parse(req(flags, "min-support")?, "min-support")?;
    let k: u64 = parse(req(flags, "vulnerable")?, "vulnerable")?;
    let epsilon: f64 = parse(req(flags, "epsilon")?, "epsilon")?;
    let delta: f64 = parse(req(flags, "delta")?, "delta")?;
    let every: usize = parse(flags.get("every").map_or("1", String::as_str), "every")?;
    let seed = flags
        .get("seed")
        .map_or_else(fresh_seed, |v| parse(v, "seed"))?;
    let scheme = parse_scheme(flags)?;
    if every == 0 {
        return Err("--every must be positive".into());
    }
    let dspec = parse_defense(flags)?;
    let spec = PrivacySpec::checked(c, k, epsilon, delta)?;
    let defense = dspec.build(spec, scheme, seed);
    // `protect` writes full releases only: no delta to make.
    let mut pipeline = StreamPipeline::new(window, defense).with_deltas(false);

    let mut out = out_writer(flags)?;
    let mut published = 0usize;
    for record in db.records() {
        pipeline.advance(record.clone());
        if pipeline.due(every) {
            let release = pipeline.publish_now().map_err(|e| e.to_string())?;
            let line = Json::obj([
                ("stream_len", Json::from(release.stream_len)),
                (
                    "itemsets",
                    entries_json(&binary_entries(release.release.iter())),
                ),
            ]);
            writeln!(out, "{line}").map_err(|e| e.to_string())?;
            published += 1;
        }
    }
    out.flush().map_err(|e| e.to_string())?;
    eprintln!(
        "published {published} sanitized windows (C={c}, K={k}, ε={epsilon}, δ={delta}, {}, defense {}, seed {seed})",
        scheme.name(),
        dspec.kind
    );
    if let Some(s) = pipeline.defense().suppression_stats() {
        eprintln!(
            "suppression: {} breaches closed by removing {} itemsets ({} survived)",
            s.breaches_found, s.suppressed, s.published
        );
    }
    Ok(())
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let mut cfg = ServeConfig::default();
    if let Some(v) = flags.get("shards") {
        cfg.shards = parse(v, "shards")?;
    }
    if let Some(v) = flags.get("window") {
        cfg.window = parse(v, "window")?;
    }
    if let Some(v) = flags.get("min-support") {
        cfg.c = parse(v, "min-support")?;
    }
    if let Some(v) = flags.get("vulnerable") {
        cfg.k = parse(v, "vulnerable")?;
    }
    if let Some(v) = flags.get("epsilon") {
        cfg.epsilon = parse(v, "epsilon")?;
    }
    if let Some(v) = flags.get("delta") {
        cfg.delta = parse(v, "delta")?;
    }
    if let Some(v) = flags.get("every") {
        cfg.every = parse(v, "every")?;
    }
    if let Some(v) = flags.get("snapshot-every") {
        cfg.snapshot_every = parse(v, "snapshot-every")?;
    }
    // Accepted and ignored: there is one I/O engine, but the frozen
    // benchmark still starts its router with `--io blocking`
    // (benchmark/src/drive.rs:58). Delete with that line.
    if let Some(v) = flags.get("io") {
        if !matches!(v.as_str(), "blocking" | "reactor") {
            return Err(format!("unknown io mode {v:?} (valid: blocking, reactor)"));
        }
    }
    if let Some(v) = flags.get("max-frame-bytes") {
        cfg.max_frame_bytes = parse(v, "max-frame-bytes")?;
    }
    if let Some(dir) = flags.get("wal-dir") {
        let mut wal = WalConfig::new(dir);
        if let Some(v) = flags.get("wal-sync") {
            wal.sync = v.parse()?;
        }
        cfg.wal = Some(wal);
    } else if flags.get("wal-sync").is_some() {
        return Err("--wal-sync requires --wal-dir".into());
    }
    if let Some(v) = flags.get("role") {
        cfg.role = v.parse()?;
    }
    if let Some(v) = flags.get("nodes") {
        cfg.nodes = parse_node_list(v)?;
    }
    cfg.scheme = parse_scheme(flags)?;
    cfg.defense = parse_defense(flags)?;
    // A router draws no secret; a config that cannot start stores none.
    let given = flags.get("seed").map(|v| parse(v, "seed")).transpose()?;
    cfg.validate().map_err(|e| format!("config: {e}"))?;
    if cfg.role == ServeRole::Node {
        cfg.seed = match &cfg.wal {
            Some(wal) => {
                wal::secret::base_seed(wal, cfg.shards, given).map_err(|e| e.to_string())?
            }
            None => given.map_or_else(fresh_seed, Ok)?,
        };
    }
    let addr = flags.get("addr").map_or("127.0.0.1:7878", String::as_str);
    let server = Server::bind(addr, cfg.clone()).map_err(|e| e.to_string())?;
    let local = server.local_addr();
    // The port-file handshake lets scripts bind port 0 and still find us.
    // Written atomically (temp + rename) so a polling reader never observes
    // a partial line.
    if let Some(path) = flags.get("port-file") {
        write_port_file(path, local).map_err(|e| e.to_string())?;
    }
    eprintln!(
        "serving on {local}: {} shards, window {}, C={}, K={}, ε={}, δ={}, {}, every {}, snapshot-every {}",
        cfg.shards,
        cfg.window,
        cfg.c,
        cfg.k,
        cfg.epsilon,
        cfg.delta,
        cfg.scheme.name(),
        cfg.every,
        cfg.snapshot_every
    );
    if let Some(w) = &cfg.wal {
        eprintln!("wal: dir {}, sync {}", w.dir.display(), w.sync);
    }
    if cfg.role == ServeRole::Router {
        let nodes: Vec<String> = cfg.nodes.iter().map(|a| a.to_string()).collect();
        eprintln!(
            "role router: {} nodes [{}], {} slots",
            cfg.nodes.len(),
            nodes.join(", "),
            cfg.nodes.len() * cfg.shards
        );
    }
    server.run_until_shutdown();
    eprintln!("drained and stopped");
    Ok(())
}

/// A secret seed for a run given no `--seed`.
fn fresh_seed() -> Result<u64, String> {
    os_seed().map_err(|e| format!("cannot draw a secret seed from /dev/urandom: {e}"))
}

/// Atomic `--port-file` write: the address lands via rename, so a reader
/// polling for the file never observes an empty or half-written line.
fn write_port_file(path: &str, addr: std::net::SocketAddr) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp.{}", std::process::id());
    std::fs::write(&tmp, format!("{addr}\n"))?;
    std::fs::rename(&tmp, path)
}
