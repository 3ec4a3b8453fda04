//! `loadgen` — drives a `bfly_serve` server with N concurrent ingest
//! clients and records throughput and request-latency percentiles into
//! `BENCH_serve.json` (append-runs format, like `parbench`).
//!
//! Two modes:
//!
//! * **In-process (default):** spins up its own servers on ephemeral ports
//!   and runs the identical workload over both frame encodings — NDJSON and
//!   binary — at 1 shard (the contended case), then binary at `--shards`
//!   (default 4) for the scaling ratio. The unpaced phases measure each
//!   wire's burst capacity, but their offered *rates* differ (a faster wire
//!   delivers the same volume in less wall time), which makes raw shed
//!   rates incomparable — so the pair is repeated **paced**: the json phase
//!   calibrates the sustainable offered rate, and every paced phase then
//!   drips the identical volume at 75% of it (override with `--pace
//!   <tx/s>`). At an equal offered rate, accepted throughput and shed rate
//!   isolate how much CPU each encoding leaves the shard worker. The run
//!   entry carries a `cores` field: shards scale with physical parallelism,
//!   so on a single-core host the ratio measures isolation overhead, not
//!   speedup (see DESIGN.md).
//! * **External (`--addr host:port`):** one phase against an already
//!   running server (e.g. `butterfly serve` started by `scripts/check.sh`);
//!   `--frame json|binary` picks the ingest encoding and `--shutdown` sends
//!   the graceful-drain verb when done. `--watch <key>` additionally
//!   subscribes to that stream key (in the same frame mode) for the
//!   duration of the phase and reconstructs its sanitized state from the
//!   event feed through [`SubscriberState`] — on a server running
//!   `--snapshot-every N > 1`, a watcher that joins mid-stream syncs on the
//!   next full snapshot and rides `release_delta` events; its
//!   reconstruction counters go into the run entry. The watcher drains
//!   until the stream's `closed` event, so pair `--watch` with `--shutdown`
//!   (or an external drain).
//!
//! Every phase row records its frame encoding (`frame`) and `shed_rate`
//! alongside throughput and latency percentiles.
//!
//! In-process mode also runs a **durability-tax matrix**: the unpaced
//! 1-shard drive repeated with the write-ahead log on at each sync policy
//! (`never`, `interval:64`, `always`) per frame encoding — compare against
//! the encoding's no-WAL twin to read the cost of each durability level.
//!
//! Finally, in-process mode runs a **federation matrix**: the workload with
//! a churning key population (`--churn`, default requests/8) driven direct
//! at one node and then through a `--role router` tier over 1/2/4 nodes
//! (2 in quick mode). `router/1-node ÷ direct` is the routing tax;
//! `router/N ÷ router/1` is placement spread — which, like shard scaling,
//! measures real speedup only when the host has cores to back the nodes.
//!
//! Run: `cargo run --release -p bfly-bench --bin loadgen`
//!      `[--quick] [--clients <N>] [--requests <N>] [--batch <N>]`
//!      `[--keys <N>] [--shards <N>] [--seed <S>] [--pace <tx/s>]`
//!      `[--out <path.json>] [--addr <host:port>] [--frame <json|binary>]`
//!      `[--watch <key>] [--shutdown] [--reconnect] [--churn <N>]`

use bfly_bench::{append_run, arg, epoch_seconds, quick_mode};
use bfly_common::Json;
use bfly_datagen::DatasetProfile;
use bfly_serve::protocol::SubscriberState;
use bfly_serve::{
    Client, FrameMode, Request, ServeConfig, ServeRole, Server, WalConfig, WalSyncPolicy,
};
use std::time::{Duration, Instant};

/// One client thread's tally.
struct ClientResult {
    accepted: u64,
    shed: u64,
    /// Times this client lost its connection and dialed back in
    /// (`--reconnect` only; without it a lost connection is fatal).
    reconnects: u64,
    /// Request round-trip latencies, microseconds.
    latencies: Vec<u64>,
}

/// Ceiling of the reconnect backoff schedule (before jitter).
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Spread `delay` (clamped to [`BACKOFF_CAP`]) into ±25% deterministic
/// jitter via splitmix64 over `(salt, attempt)`. Without jitter every
/// client that lost the same server re-dials on the same doubling
/// schedule and stampedes the restart in lockstep — worst exactly at the
/// cap, where the schedule stops spreading on its own.
fn jittered_backoff(delay: Duration, salt: u64, attempt: u32) -> Duration {
    let mut z = salt ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let base = delay.min(BACKOFF_CAP).as_micros() as u64;
    let spread = base / 4;
    Duration::from_micros(base - spread + z % (2 * spread + 1))
}

/// Dial `addr`, retrying with doubling backoff (50 ms → jittered 2 s cap,
/// ~20 tries) when `retry` — the `--reconnect` behavior for a server that
/// is restarting (e.g. crash-recovery smoke tests) or not yet up. `salt`
/// decorrelates the jitter across clients.
fn connect_with_retry(
    addr: std::net::SocketAddr,
    mode: FrameMode,
    retry: bool,
    salt: u64,
) -> Client {
    let mut delay = Duration::from_millis(50);
    let mut attempts = 0;
    loop {
        match Client::connect(addr) {
            Ok(mut c) => {
                c.set_frame(mode);
                return c;
            }
            Err(e) if retry && attempts < 20 => {
                attempts += 1;
                std::thread::sleep(jittered_backoff(delay, salt, attempts));
                delay = (delay * 2).min(BACKOFF_CAP);
                let _ = e;
            }
            Err(e) => panic!("loadgen connect {addr}: {e}"),
        }
    }
}

/// Aggregated measurements for one server configuration.
struct Phase {
    label: String,
    /// The ingest frame encoding this phase drove ("json" / "binary").
    frame: String,
    accepted: u64,
    shed: u64,
    /// Connections lost and re-dialed across all clients (`--reconnect`).
    reconnects: u64,
    /// shed / (accepted + shed) — the fraction of offered load refused.
    shed_rate: f64,
    /// The rate the clients actually offered during the drive window.
    offered_tx_s: f64,
    /// The target pace (0 = unpaced burst).
    pace_tx_s: f64,
    wall_ms: f64,
    tx_per_sec: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
}

impl Phase {
    fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::from(self.label.as_str())),
            ("frame", Json::from(self.frame.as_str())),
            ("accepted", Json::from(self.accepted)),
            ("shed", Json::from(self.shed)),
            ("reconnects", Json::from(self.reconnects)),
            ("shed_rate", Json::from(self.shed_rate)),
            ("offered_tx_s", Json::from(self.offered_tx_s)),
            ("pace_tx_s", Json::from(self.pace_tx_s)),
            ("wall_ms", Json::from(self.wall_ms)),
            ("tx_per_sec", Json::from(self.tx_per_sec)),
            ("p50_us", Json::from(self.p50_us)),
            ("p95_us", Json::from(self.p95_us)),
            ("p99_us", Json::from(self.p99_us)),
        ])
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

#[derive(Clone)]
struct Workload {
    clients: usize,
    requests: usize,
    batch: usize,
    keys: usize,
    seed: u64,
    /// Survive connection loss: re-dial with backoff and retry the failed
    /// request instead of dying.
    reconnect: bool,
    /// `> 0` shifts the key population every `churn` requests: request `r`
    /// of client `ci` targets `t{(r / churn) * keys + (ci + r) % keys}`,
    /// so fresh stream keys keep appearing for the lifetime of the drive.
    /// Exercises placement spread across a cluster (new keys land on
    /// whichever node owns their slot, not wherever an old connection
    /// happened to point). `0` keeps the fixed `keys`-sized population.
    churn: usize,
}

/// Run `clients` concurrent ingest loops against `addr`; aggregate.
/// `pace_tx_s > 0` spreads each client's requests on a fixed schedule so
/// the aggregate offered rate is `pace_tx_s` regardless of how fast the
/// wire could burst — the equal-offered-rate condition that makes shed
/// rates comparable across frame encodings.
fn drive(
    addr: std::net::SocketAddr,
    label: &str,
    mode: FrameMode,
    pace_tx_s: f64,
    w: &Workload,
) -> Phase {
    let start = Instant::now();
    let handles: Vec<std::thread::JoinHandle<ClientResult>> = (0..w.clients)
        .map(|ci| {
            let (requests, batch, keys) = (w.requests, w.batch, w.keys);
            let per_client_rate = pace_tx_s / w.clients as f64;
            let seed = w.seed + ci as u64;
            let (reconnect, churn) = (w.reconnect, w.churn);
            std::thread::spawn(move || {
                let mut client = connect_with_retry(addr, mode, reconnect, seed);
                let mut source = DatasetProfile::WebView1.source(seed);
                let mut result = ClientResult {
                    accepted: 0,
                    shed: 0,
                    reconnects: 0,
                    latencies: Vec::with_capacity(requests),
                };
                let begun = Instant::now();
                for r in 0..requests {
                    if per_client_rate > 0.0 {
                        let due = (r * batch) as f64 / per_client_rate;
                        let elapsed = begun.elapsed().as_secs_f64();
                        if elapsed < due {
                            std::thread::sleep(std::time::Duration::from_secs_f64(due - elapsed));
                        }
                    }
                    let era = r.checked_div(churn).unwrap_or(0) * keys;
                    let stream = format!("t{}", era + (ci + r) % keys);
                    let batch: Vec<_> = (0..batch)
                        .map(|_| source.next_transaction().into_items())
                        .collect();
                    let request = Request::Ingest { stream, batch };
                    let t0 = Instant::now();
                    let reply = loop {
                        match client.request(&request) {
                            Ok(reply) => break reply,
                            Err(_) if reconnect => {
                                // The connection died mid-request (server
                                // crash or restart): dial back in and
                                // re-offer the same batch. A batch the old
                                // server accepted before dying may land
                                // twice — at-least-once, like any retrying
                                // producer without idempotence tokens.
                                result.reconnects += 1;
                                client = connect_with_retry(addr, mode, true, seed + r as u64);
                            }
                            Err(e) => panic!("ingest reply: {e}"),
                        }
                    };
                    result
                        .latencies
                        .push(t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
                    result.accepted += reply
                        .get("accepted")
                        .and_then(Json::as_u64)
                        .unwrap_or_default();
                    result.shed += reply.get("shed").and_then(Json::as_u64).unwrap_or_default();
                }
                result
            })
        })
        .collect();
    let results: Vec<ClientResult> = handles
        .into_iter()
        .map(|h| h.join().expect("loadgen client paniced"))
        .collect();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let accepted: u64 = results.iter().map(|r| r.accepted).sum();
    let shed: u64 = results.iter().map(|r| r.shed).sum();
    let reconnects: u64 = results.iter().map(|r| r.reconnects).sum();
    let mut latencies: Vec<u64> = results.into_iter().flat_map(|r| r.latencies).collect();
    latencies.sort_unstable();
    let phase = Phase {
        label: label.to_string(),
        frame: mode.name().to_string(),
        accepted,
        shed,
        reconnects,
        shed_rate: shed as f64 / ((accepted + shed) as f64).max(1.0),
        offered_tx_s: (accepted + shed) as f64 / (wall_ms / 1e3).max(1e-9),
        pace_tx_s,
        wall_ms,
        tx_per_sec: accepted as f64 / (wall_ms / 1e3).max(1e-9),
        p50_us: percentile(&latencies, 0.50),
        p95_us: percentile(&latencies, 0.95),
        p99_us: percentile(&latencies, 0.99),
    };
    println!(
        "{label:<30} {:>9.0} tx/s   accepted {accepted}   shed {shed} ({:.1}%)   offered {:.0} tx/s   p50 {} µs   p95 {} µs   p99 {} µs   ({wall_ms:.0} ms)",
        phase.tx_per_sec,
        phase.shed_rate * 100.0,
        phase.offered_tx_s,
        phase.p50_us,
        phase.p95_us,
        phase.p99_us
    );
    phase
}

/// One in-process phase: bind a fresh server with `shards`, drive it in
/// `mode`, and drain. The throughput clock runs to the end of the drain, so
/// records still queued when the clients finish are not counted as free.
fn in_process_phase(
    shards: usize,
    mode: FrameMode,
    pace_tx_s: f64,
    cfg_base: &ServeConfig,
    w: &Workload,
) -> Phase {
    let cfg = ServeConfig {
        shards,
        ..cfg_base.clone()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind loadgen server");
    let start = Instant::now();
    let wal_tag = cfg_base
        .wal
        .as_ref()
        .map(|w| format!("/wal-{}", w.sync))
        .unwrap_or_default();
    let label = format!(
        "{shards}-shard/{}{}{}",
        mode.name(),
        wal_tag,
        if pace_tx_s > 0.0 { "/paced" } else { "" }
    );
    let mut phase = drive(server.local_addr(), &label, mode, pace_tx_s, w);
    server.shutdown();
    server.join();
    phase.wall_ms = start.elapsed().as_secs_f64() * 1e3;
    phase.tx_per_sec = phase.accepted as f64 / (phase.wall_ms / 1e3).max(1e-9);
    println!(
        "{:<30} {:>9.0} tx/s end-to-end ({:.0} ms including drain)",
        phase.label, phase.tx_per_sec, phase.wall_ms
    );
    phase
}

/// One federation phase: boot `node_count` node servers on ephemeral ports
/// plus a stateless router in front, and drive the churning workload
/// through the router on the binary wire. `node_count == 0` is
/// the direct baseline — the identical workload straight at one node, no
/// router — so `router/1-node ÷ direct` reads the routing tax (one extra
/// hop, decode + re-encode, pooled upstream round trip) and
/// `router/N ÷ router/1` reads placement spread. Drains router-first so
/// in-flight forwards finish before their nodes go down.
fn cluster_phase(node_count: usize, cfg_base: &ServeConfig, w: &Workload) -> Phase {
    let node_cfg = ServeConfig {
        shards: 2,
        role: ServeRole::Node,
        nodes: Vec::new(),
        ..cfg_base.clone()
    };
    let start = Instant::now();
    let nodes: Vec<Server> = (0..node_count.max(1))
        .map(|_| Server::bind("127.0.0.1:0", node_cfg.clone()).expect("bind cluster node"))
        .collect();
    let router = (node_count > 0).then(|| {
        let cfg = ServeConfig {
            role: ServeRole::Router,
            nodes: nodes.iter().map(Server::local_addr).collect(),
            ..node_cfg.clone()
        };
        Server::bind("127.0.0.1:0", cfg).expect("bind cluster router")
    });
    let (addr, label) = match &router {
        Some(r) => (r.local_addr(), format!("cluster/router/{node_count}-node")),
        None => (nodes[0].local_addr(), "cluster/direct/1-node".to_string()),
    };
    let mut phase = drive(addr, &label, FrameMode::Binary, 0.0, w);
    if let Some(r) = router {
        r.shutdown();
        r.join();
    }
    for n in nodes {
        n.shutdown();
        n.join();
    }
    phase.wall_ms = start.elapsed().as_secs_f64() * 1e3;
    phase.tx_per_sec = phase.accepted as f64 / (phase.wall_ms / 1e3).max(1e-9);
    println!(
        "{:<30} {:>9.0} tx/s end-to-end ({:.0} ms including drain)",
        phase.label, phase.tx_per_sec, phase.wall_ms
    );
    phase
}

/// Subscribe to `key` (in `mode`) and reconstruct its sanitized state from
/// the event feed until the stream closes (the server's drain). Returns the
/// reconstruction counters as a JSON row for the run entry.
fn watch(
    addr: std::net::SocketAddr,
    key: String,
    mode: FrameMode,
) -> std::thread::JoinHandle<Json> {
    std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("watch connect");
        client
            .request(&Request::Subscribe {
                stream: key.clone(),
                frame: mode,
                from: None,
            })
            .expect("watch subscribe ack");
        let mut state = SubscriberState::new();
        while let Ok(Some(event)) = client.next_event() {
            if event.get("event").and_then(Json::as_str) == Some("closed") {
                break;
            }
            state
                .observe(&event)
                .expect("watched stream diverged from its deltas");
        }
        println!(
            "watch {key} ({}): synced={} stream_len={:?} entries={} snapshots={} deltas applied={} skipped={} verified={}",
            mode.name(),
            state.is_synced(),
            state.stream_len(),
            state.entries().len(),
            state.snapshots,
            state.deltas_applied,
            state.deltas_skipped,
            state.verified
        );
        Json::obj([
            ("key", Json::from(key.as_str())),
            ("frame", Json::from(mode.name())),
            ("synced", Json::Bool(state.is_synced())),
            ("stream_len", Json::from(state.stream_len().unwrap_or(0))),
            ("entries", Json::from(state.entries().len() as u64)),
            ("snapshots", Json::from(state.snapshots)),
            ("deltas_applied", Json::from(state.deltas_applied)),
            ("deltas_skipped", Json::from(state.deltas_skipped)),
            ("verified", Json::from(state.verified)),
        ])
    })
}

fn main() {
    let quick = quick_mode();
    let clients: usize = arg("--clients").and_then(|v| v.parse().ok()).unwrap_or(4);
    let requests: usize = arg("--requests")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 40 } else { 400 });
    let batch: usize = arg("--batch").and_then(|v| v.parse().ok()).unwrap_or(32);
    let keys: usize = arg("--keys").and_then(|v| v.parse().ok()).unwrap_or(8);
    let shards: usize = arg("--shards").and_then(|v| v.parse().ok()).unwrap_or(4);
    let seed: u64 = arg("--seed").and_then(|v| v.parse().ok()).unwrap_or(7);
    let frame: FrameMode = arg("--frame")
        .map(|v| v.parse().expect("bad --frame"))
        .unwrap_or_default();
    let out = arg("--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
    let reconnect = std::env::args().any(|a| a == "--reconnect");
    let churn: usize = arg("--churn").and_then(|v| v.parse().ok()).unwrap_or(0);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let w = Workload {
        clients,
        requests,
        batch,
        keys,
        seed,
        reconnect,
        churn,
    };
    println!(
        "loadgen: {clients} clients × {requests} requests × {batch} tx, {keys} stream keys, {cores} core(s)"
    );

    let mut phases: Vec<Phase> = Vec::new();
    let mut scaling: Option<f64> = None;
    let mut federation: Option<Json> = None;
    let mut watch_stats: Option<Json> = None;
    if let Some(addr) = arg("--addr") {
        // External mode: measure the already-running server as-is.
        let addr = addr.parse().expect("bad --addr");
        let pace: f64 = arg("--pace").and_then(|v| v.parse().ok()).unwrap_or(0.0);
        let watcher = arg("--watch").map(|key| watch(addr, key, frame));
        phases.push(drive(addr, "external", frame, pace, &w));
        if std::env::args().any(|a| a == "--shutdown") {
            let mut control = Client::connect(addr).expect("control connect");
            let reply = control.request(&Request::Shutdown).expect("shutdown reply");
            println!("shutdown: {reply}");
        }
        watch_stats = watcher.map(|h| h.join().expect("watcher paniced"));
    } else {
        let cfg = ServeConfig {
            window: if quick { 200 } else { 500 },
            c: if quick { 8 } else { 15 },
            k: 3,
            // Feasibility needs ε ≥ σ²/C² (σ² = 2 at δ=0.4, K=3).
            epsilon: if quick { 0.05 } else { 0.016 },
            every: if quick { 40 } else { 50 },
            queue_cap: 8192,
            seed,
            ..ServeConfig::default()
        };
        // Unpaced pair at 1 shard — each wire's burst capacity. The json
        // phase doubles as the pace calibration: its offered rate is what
        // the NDJSON wire sustains end to end.
        let cal = in_process_phase(1, FrameMode::Json, 0.0, &cfg, &w);
        let pace: f64 = arg("--pace")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.75 * cal.offered_tx_s);
        phases.push(cal);
        phases.push(in_process_phase(1, FrameMode::Binary, 0.0, &cfg, &w));
        // Paced pair: identical volume at an identical offered rate (75% of
        // what the json wire just sustained), so accepted throughput and
        // shed rate compare encodings, not client burst speed.
        println!("paced phases at {pace:.0} tx/s offered");
        for mode in [FrameMode::Json, FrameMode::Binary] {
            phases.push(in_process_phase(1, mode, pace, &cfg, &w));
        }
        // Scaling phase on the fastest wire, unpaced, against its unpaced
        // 1-shard twin.
        let single_tx = phases[1].tx_per_sec;
        let multi = in_process_phase(shards, FrameMode::Binary, 0.0, &cfg, &w);
        let ratio = multi.tx_per_sec / single_tx.max(1e-9);
        println!(
            "scaling: {shards} shards vs 1 = {ratio:.2}x on {cores} core(s){}",
            if cores == 1 {
                " — shard scaling needs cores; single-core measures isolation overhead"
            } else {
                ""
            }
        );
        phases.push(multi);
        scaling = Some(ratio);

        // Durability-tax matrix: the unpaced 1-shard drive again, WAL on at
        // each sync policy, per frame encoding. The no-WAL baselines are the
        // unpaced 1-shard rows above.
        let wal_root =
            std::env::temp_dir().join(format!("bfly-loadgen-wal-{}", std::process::id()));
        let mut wal_idx = 0u32;
        for mode in [FrameMode::Json, FrameMode::Binary] {
            for sync in [
                WalSyncPolicy::Never,
                WalSyncPolicy::Interval(64),
                WalSyncPolicy::Always,
            ] {
                wal_idx += 1;
                let mut wal = WalConfig::new(wal_root.join(format!("p{wal_idx}")));
                wal.sync = sync;
                let wal_cfg = ServeConfig {
                    wal: Some(wal),
                    ..cfg.clone()
                };
                phases.push(in_process_phase(1, mode, 0.0, &wal_cfg, &w));
            }
        }
        let _ = std::fs::remove_dir_all(&wal_root);

        // Federation matrix: the same workload with a churning key
        // population, direct at one node and then through a router over
        // 1/2/4 nodes (2 in quick mode). New keys keep arriving so the
        // router's placement map keeps being consulted for streams it has
        // never seen, not just re-hit from the connection pool.
        let cluster_w = Workload {
            churn: if churn > 0 {
                churn
            } else {
                (requests / 8).max(1)
            },
            ..w.clone()
        };
        let node_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };
        println!(
            "federation phases: direct + router x {node_counts:?} nodes, churn every {} requests",
            cluster_w.churn
        );
        let direct = cluster_phase(0, &cfg, &cluster_w);
        let mut router_phases = Vec::new();
        for &n in node_counts {
            router_phases.push(cluster_phase(n, &cfg, &cluster_w));
        }
        let routing_tax = router_phases[0].tx_per_sec / direct.tx_per_sec.max(1e-9);
        let router_scaling = router_phases.last().expect("router phase ran").tx_per_sec
            / router_phases[0].tx_per_sec.max(1e-9);
        println!(
            "federation: router/1-node = {routing_tax:.2}x direct, router/{}-node = {router_scaling:.2}x router/1-node on {cores} core(s){}",
            node_counts.last().expect("node counts"),
            if cores == 1 {
                " — node scaling needs cores; single-core measures forwarding overhead"
            } else {
                ""
            }
        );
        federation = Some(Json::obj([
            (
                "node_counts",
                Json::Arr(node_counts.iter().map(|&n| Json::from(n as u64)).collect()),
            ),
            ("churn", Json::from(cluster_w.churn as u64)),
            ("routing_tax", Json::from(routing_tax)),
            ("router_scaling", Json::from(router_scaling)),
        ]));
        phases.push(direct);
        phases.extend(router_phases);
    }

    let mut entry = vec![
        ("ts", Json::from(epoch_seconds())),
        ("cores", Json::from(cores as u64)),
        ("quick", Json::Bool(quick)),
        ("clients", Json::from(clients as u64)),
        ("requests", Json::from(requests as u64)),
        ("batch", Json::from(batch as u64)),
        ("keys", Json::from(keys as u64)),
        (
            "phases",
            Json::Arr(phases.iter().map(Phase::to_json).collect()),
        ),
    ];
    if let Some(ratio) = scaling {
        entry.push(("scaling", Json::from(ratio)));
        entry.push(("scaling_shards", Json::from(shards as u64)));
    }
    if let Some(fed) = federation {
        entry.push(("federation", fed));
    }
    if let Some(stats) = watch_stats {
        entry.push(("watch", stats));
    }
    append_run(&out, Json::obj(entry));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_jitter_is_bounded_and_spread() {
        // Every jittered delay stays within ±25% of the (capped) schedule
        // value, and distinct salts actually land on distinct delays — the
        // whole point is that a fleet at the cap doesn't re-dial in sync.
        let mut seen = std::collections::BTreeSet::new();
        for salt in 0..32u64 {
            for (attempt, delay_ms) in [(1u32, 50u64), (3, 200), (8, 2_000), (15, 2_000)] {
                let d = jittered_backoff(Duration::from_millis(delay_ms), salt, attempt);
                let base = Duration::from_millis(delay_ms).min(BACKOFF_CAP);
                assert!(d >= base * 3 / 4 && d <= base * 5 / 4, "{d:?} vs {base:?}");
                if delay_ms == 2_000 {
                    seen.insert(d);
                }
            }
        }
        assert!(
            seen.len() > 16,
            "only {} distinct delays at the cap",
            seen.len()
        );
    }
}
