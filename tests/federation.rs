//! Federation integration tests against real `butterfly serve` processes:
//! a `--role router` tier in front of N node processes must be
//! wire-invisible — every stream a client sees through the router is
//! byte-identical to the in-process pipeline over the same records (the
//! oracle the single-process network suite already pins) — and a node
//! killed mid-run must surface as *explicit per-key unavailability* while
//! the surviving node's streams stay byte-identical, with the killed
//! node's streams recovered from its own WAL by the next cluster
//! incarnation.

use butterfly_repro::common::{ItemSet, Json};
use butterfly_repro::datagen::DatasetProfile;
use butterfly_repro::serve::protocol::{release_event, CatchUp};
use butterfly_repro::serve::{Client, ClusterMap, FrameMode, Request, ServeConfig};
use std::io::Read;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kills the child on drop so a failing assertion never leaks a process.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The shard count every process in these clusters runs — the router's
/// slot math (`nodes × shards`) must agree with the nodes'.
const SHARDS: usize = 2;

/// The serve config every node process runs, mirrored by the in-process
/// oracle. Matches the WAL-recovery suite: windows at 120, cadence 10.
fn cluster_cfg() -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        window: 120,
        c: 15,
        k: 3,
        epsilon: 0.016,
        delta: 0.4,
        every: 10,
        seed: 42,
        ..ServeConfig::default()
    }
}

/// Spawn one `butterfly serve` process (node or router) on an ephemeral
/// port and block until the `--port-file` handshake delivers its address.
fn spawn_serve(extra: &[&str], port_file: &Path) -> (Reaper, SocketAddr) {
    let _ = std::fs::remove_file(port_file);
    let shards = SHARDS.to_string();
    let child = Command::new(env!("CARGO_BIN_EXE_butterfly"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--shards",
            &shards,
            "--window",
            "120",
            "--min-support",
            "15",
            "--vulnerable",
            "3",
            "--epsilon",
            "0.016",
            "--delta",
            "0.4",
            "--every",
            "10",
            "--seed",
            "42",
        ])
        .args(extra)
        .arg("--port-file")
        .arg(port_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn butterfly serve");
    let mut child = Reaper(child);
    let deadline = Instant::now() + Duration::from_secs(20);
    let addr = loop {
        if let Ok(mut f) = std::fs::File::open(port_file) {
            let mut text = String::new();
            if f.read_to_string(&mut text).is_ok() {
                if let Ok(addr) = text.trim().parse::<SocketAddr>() {
                    break addr;
                }
            }
        }
        assert!(Instant::now() < deadline, "serve never wrote its port file");
        if let Ok(Some(status)) = child.0.try_wait() {
            panic!("serve exited before binding: {status}");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    (child, addr)
}

/// Spawn a node process, optionally durable on `wal_dir`.
fn spawn_node(wal_dir: Option<&Path>, port_file: &Path) -> (Reaper, SocketAddr) {
    match wal_dir {
        Some(dir) => {
            let dir = dir.to_str().expect("utf8 wal dir");
            spawn_serve(&["--wal-dir", dir, "--wal-sync", "always"], port_file)
        }
        None => spawn_serve(&[], port_file),
    }
}

/// Spawn a router process over `nodes`.
fn spawn_router(nodes: &[SocketAddr], port_file: &Path) -> (Reaper, SocketAddr) {
    let list = nodes
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",");
    spawn_serve(&["--role", "router", "--nodes", &list], port_file)
}

/// The oracle: run `records` through an in-process pipeline for `key` and
/// return the release events (cadence releases plus the drain flush) the
/// serve wire must reproduce — through any number of routers.
fn expected_events(key: &str, records: &[ItemSet]) -> Vec<String> {
    let cfg = cluster_cfg();
    let mut pipe = cfg.pipeline_for(key);
    let mut events = Vec::new();
    for items in records {
        pipe.advance(butterfly_repro::common::Transaction::new(0, items.clone()));
        if pipe.window().is_full() && pipe.since_publish() >= cfg.every {
            let r = pipe.publish_now().expect("full window");
            events.push(release_event(key, r.stream_len, &r.release).to_string());
        }
    }
    if let Some(r) = pipe.flush() {
        events.push(release_event(key, r.stream_len, &r.release).to_string());
    }
    events
}

/// Sum `processed` across every *reachable* node in a router `stats` reply.
fn cluster_processed(stats: &Json) -> u64 {
    stats
        .get("nodes")
        .and_then(Json::as_array)
        .expect("router stats carry a nodes array")
        .iter()
        .filter(|n| n.get("ok") == Some(&Json::Bool(true)))
        .flat_map(|n| {
            n.get("stats")
                .and_then(|s| s.get("per_shard"))
                .and_then(Json::as_array)
                .into_iter()
                .flatten()
        })
        .map(|s| s.get("processed").and_then(Json::as_u64).unwrap_or(0))
        .sum()
}

/// Block until the cluster behind `control` has processed `want` records.
fn wait_cluster_processed(control: &mut Client, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let stats = control.request(&Request::Stats).expect("router stats");
        let processed = cluster_processed(&stats);
        if processed >= want {
            return;
        }
        assert!(Instant::now() < deadline, "stuck at {processed}/{want}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Drain a subscriber until its stream's `closed` event, collecting the
/// release events as canonical JSON strings.
fn collect_until_closed(sub: &mut Client) -> Vec<String> {
    let mut received = Vec::new();
    loop {
        let event = sub
            .next_event()
            .expect("subscriber read")
            .expect("closed event before EOF");
        if event.get("event").and_then(Json::as_str) == Some("closed") {
            break;
        }
        received.push(event.to_string());
    }
    received
}

fn records_for(seed: u64, n: usize) -> Vec<ItemSet> {
    DatasetProfile::WebView1
        .source(seed)
        .take_vec(n)
        .into_iter()
        .map(|t| t.into_items())
        .collect()
}

/// Two nodes behind a router, four stream keys, live subscribers attached
/// through the router before ingest: every key's event stream must be
/// byte-identical to the in-process oracle, and the router's merged stats
/// must expose the cluster shape and per-node forwarding ledger.
#[test]
fn router_streams_byte_identical_to_in_process() {
    let tag = format!("bfly-fed-live-{}", std::process::id());
    let pf = |name: &str| std::env::temp_dir().join(format!("{tag}-{name}.port"));

    let (_node_a, addr_a) = spawn_node(None, &pf("a"));
    let (_node_b, addr_b) = spawn_node(None, &pf("b"));
    let (router, router_addr) = spawn_router(&[addr_a, addr_b], &pf("r"));

    // Keys chosen blind — placement decides ownership. Assert up front the
    // population actually spans both nodes, or the test proves nothing
    // about forwarding.
    let keys = ["alpha", "beta", "gamma", "delta"];
    let map = ClusterMap::federated(1, vec![addr_a, addr_b], SHARDS);
    let owners: std::collections::BTreeSet<usize> =
        keys.iter().map(|k| map.owner_of(k).node).collect();
    assert_eq!(owners.len(), 2, "test keys must span both nodes");

    let mut subs: Vec<Client> = keys
        .iter()
        .map(|&key| {
            let mut sub = Client::connect(router_addr).expect("subscriber connect");
            let ack = sub
                .request(&Request::Subscribe {
                    stream: key.into(),
                    frame: FrameMode::Json,
                    from: None,
                })
                .expect("subscribe ack through router");
            assert_eq!(ack.get("ok"), Some(&Json::Bool(true)), "got {ack}");
            sub
        })
        .collect();

    let mut client = Client::connect(router_addr).expect("ingest connect");
    let per_key: Vec<Vec<ItemSet>> = (0..keys.len())
        .map(|i| records_for(13 + i as u64, 205))
        .collect();
    for (key, records) in keys.iter().zip(&per_key) {
        let reply = client
            .request(&Request::Ingest {
                stream: (*key).into(),
                batch: records.clone(),
            })
            .expect("ingest through router");
        assert_eq!(
            reply.get("accepted").and_then(Json::as_u64),
            Some(205),
            "got {reply}"
        );
    }

    // The merged stats document: role, cluster shape, both nodes reachable,
    // a forwarding ledger entry per node.
    let stats = client.request(&Request::Stats).expect("router stats");
    assert_eq!(stats.get("role").and_then(Json::as_str), Some("router"));
    let cluster = stats.get("cluster").expect("cluster block");
    assert_eq!(cluster.get("nodes").and_then(Json::as_u64), Some(2));
    assert_eq!(
        cluster.get("slots").and_then(Json::as_u64),
        Some(2 * SHARDS as u64)
    );
    let nodes = stats.get("nodes").and_then(Json::as_array).expect("nodes");
    assert!(nodes.iter().all(|n| n.get("ok") == Some(&Json::Bool(true))));
    assert_eq!(
        stats
            .get("forward")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(2)
    );

    // Drain the whole cluster through the router; every subscriber rides
    // its node's final releases and `closed` through the relay.
    client.request(&Request::Shutdown).expect("shutdown reply");
    for (key, (sub, records)) in keys.iter().zip(subs.iter_mut().zip(&per_key)) {
        let received = collect_until_closed(sub);
        assert_eq!(
            received,
            expected_events(key, records),
            "stream {key} through the router diverged from the oracle"
        );
    }

    let mut router = router;
    let status = router.0.wait().expect("router exit");
    assert!(status.success(), "router exited {status}");
}

/// Kill one node mid-run: ingest for its keys must answer with an explicit
/// `unavailable` error (and count in the router's per-key ledger), the
/// surviving node's stream must stay byte-identical to the oracle through
/// WAL catch-up *and* live drain, and the next cluster incarnation must
/// replay the dead node's WAL and serve its stream byte-identically too.
#[test]
fn kill_one_node_survivor_identical_and_wal_rejoin() {
    let tag = format!("bfly-fed-kill-{}", std::process::id());
    let tmp = std::env::temp_dir();
    let wal_a = tmp.join(format!("{tag}-wal-a"));
    let wal_b = tmp.join(format!("{tag}-wal-b"));
    let _ = std::fs::remove_dir_all(&wal_a);
    let _ = std::fs::remove_dir_all(&wal_b);
    let pf = |name: &str| tmp.join(format!("{tag}-{name}.port"));

    let (node_a, addr_a) = spawn_node(Some(&wal_a), &pf("a"));
    let (node_b, addr_b) = spawn_node(Some(&wal_b), &pf("b"));
    let (router, router_addr) = spawn_router(&[addr_a, addr_b], &pf("r"));

    // One tracked key per node: the victim key lives on node B (killed
    // mid-run), the survivor key on node A.
    let map = ClusterMap::federated(1, vec![addr_a, addr_b], SHARDS);
    let candidates: Vec<String> = (0..32).map(|i| format!("s{i}")).collect();
    let victim_key = candidates
        .iter()
        .find(|k| map.owner_of(k).node == 1)
        .expect("some key lands on node B")
        .clone();
    let survivor_key = candidates
        .iter()
        .find(|k| map.owner_of(k).node == 0)
        .expect("some key lands on node A")
        .clone();
    let victim_records = records_for(13, 205);
    let survivor_records = records_for(14, 205);

    // Phase 1: 155 records per key through the router, then SIGKILL node B.
    let mut client = Client::connect(router_addr).expect("connect router");
    for (key, records) in [
        (&victim_key, &victim_records),
        (&survivor_key, &survivor_records),
    ] {
        client
            .request(&Request::Ingest {
                stream: key.clone(),
                batch: records[..155].to_vec(),
            })
            .expect("phase-1 ingest");
    }
    wait_cluster_processed(&mut client, 310);
    drop(node_b); // Reaper: SIGKILL, no drain.

    // The survivor's remaining records sail through...
    let reply = client
        .request(&Request::Ingest {
            stream: survivor_key.clone(),
            batch: survivor_records[155..].to_vec(),
        })
        .expect("survivor ingest");
    assert_eq!(
        reply.get("accepted").and_then(Json::as_u64),
        Some(50),
        "got {reply}"
    );
    // ...while the victim's keys answer with explicit unavailability (the
    // router's retry + connect both fail, so this takes one round trip).
    let reply = client
        .request(&Request::Ingest {
            stream: victim_key.clone(),
            batch: victim_records[155..].to_vec(),
        })
        .expect("victim ingest gets an error reply, not a hang");
    let err = reply
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("expected error reply, got {reply}"));
    assert!(err.contains("unavailable"), "got {err}");

    let stats = client.request(&Request::Stats).expect("router stats");
    let nodes = stats.get("nodes").and_then(Json::as_array).expect("nodes");
    assert_eq!(nodes[0].get("ok"), Some(&Json::Bool(true)), "got {stats}");
    assert_eq!(nodes[1].get("ok"), Some(&Json::Bool(false)), "got {stats}");
    let unavailable = stats.get("unavailable").expect("unavailable ledger");
    assert!(
        unavailable.get(&victim_key).and_then(Json::as_u64) >= Some(1),
        "got {stats}"
    );

    // The survivor's full stream — WAL catch-up for the published windows,
    // live drain for the flush — must be byte-identical to the oracle, as
    // if the kill never happened. Only node A is reachable now, so the
    // cluster total is its 205.
    wait_cluster_processed(&mut client, 205);
    let mut sub = Client::connect(router_addr).expect("subscriber connect");
    let ack = sub
        .request(&Request::Subscribe {
            stream: survivor_key.clone(),
            frame: FrameMode::Json,
            from: Some(CatchUp::Earliest),
        })
        .expect("subscribe ack through router");
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)), "got {ack}");
    client.request(&Request::Shutdown).expect("shutdown reply");
    assert_eq!(
        collect_until_closed(&mut sub),
        expected_events(&survivor_key, &survivor_records),
        "survivor stream diverged after the kill"
    );
    let mut router = router;
    let status = router.0.wait().expect("router exit");
    assert!(status.success(), "router exited {status}");
    drop(node_a); // drained via the forwarded shutdown; reap.

    // Next incarnation: fresh ports, same WAL dirs. Node B must replay the
    // four publications it logged before dying, and its stream — finished
    // through the new router — must match the oracle byte for byte.
    let (_node_a2, addr_a2) = spawn_node(Some(&wal_a), &pf("a2"));
    let (_node_b2, addr_b2) = spawn_node(Some(&wal_b), &pf("b2"));
    let (_router2, router_addr) = spawn_router(&[addr_a2, addr_b2], &pf("r2"));
    let map = ClusterMap::federated(1, vec![addr_a2, addr_b2], SHARDS);
    assert_eq!(
        map.owner_of(&victim_key).node,
        1,
        "placement is address-independent, so the victim key stays on node B"
    );

    let mut client = Client::connect(router_addr).expect("connect new router");
    let stats = client.request(&Request::Stats).expect("router stats");
    let nodes = stats.get("nodes").and_then(Json::as_array).expect("nodes");
    assert_eq!(
        nodes[1]
            .get("stats")
            .and_then(|s| s.get("recovered_windows"))
            .and_then(Json::as_u64),
        Some(4),
        "node B must replay the publications at 120…150: {stats}"
    );

    client
        .request(&Request::Ingest {
            stream: victim_key.clone(),
            batch: victim_records[155..].to_vec(),
        })
        .expect("victim ingest after rejoin");
    // Fresh processes, fresh counters: the 50 rejoin records are all the
    // new incarnation counts.
    wait_cluster_processed(&mut client, 50);
    let mut sub = Client::connect(router_addr).expect("subscriber connect");
    let ack = sub
        .request(&Request::Subscribe {
            stream: victim_key.clone(),
            frame: FrameMode::Json,
            from: Some(CatchUp::Earliest),
        })
        .expect("subscribe ack through new router");
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)), "got {ack}");
    client.request(&Request::Shutdown).expect("shutdown reply");
    assert_eq!(
        collect_until_closed(&mut sub),
        expected_events(&victim_key, &victim_records),
        "victim stream diverged across the kill + WAL rejoin"
    );

    let _ = std::fs::remove_dir_all(&wal_a);
    let _ = std::fs::remove_dir_all(&wal_b);
}
