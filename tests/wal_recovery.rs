//! Crash-recovery integration tests against the real `butterfly serve`
//! binary: SIGKILL the server mid-stream, restart it on the same
//! `--wal-dir`, and require the restarted process to serve a subscriber
//! stream byte-identical to a run that never crashed.
//!
//! The uncrashed reference is the in-process pipeline over the same
//! records — the same oracle the network determinism suite uses — so the
//! comparison spans the crash, the replay, the log-served catch-up, and
//! the drain flush in one concatenated byte-equality.

use butterfly_repro::butterfly::{DefenseKind, SanitizedRelease, StreamPipeline};
use butterfly_repro::common::{ItemSet, Json};
use butterfly_repro::datagen::DatasetProfile;
use butterfly_repro::serve::protocol::{binary_entries, release_frame_bytes, CatchUp};
use butterfly_repro::serve::wal::record::SnapshotEntry;
use butterfly_repro::serve::wal::{StreamSnapshot, WalRecord, WalWriter, WriterPosition};
use butterfly_repro::serve::{
    Client, FrameMode, Request, ServeConfig, WalConfig, WalStats, WalSyncPolicy,
};
use std::collections::VecDeque;
use std::io::Read;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The NDJSON `release` line a subscriber reads for one publication.
fn release_line(stream: &str, stream_len: u64, release: &SanitizedRelease) -> String {
    let line = release_frame_bytes(FrameMode::Json, stream, stream_len, release);
    String::from_utf8(line.to_vec())
        .unwrap()
        .trim_end()
        .to_string()
}

/// Kills the child on drop so a failing assertion never leaks a server.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `butterfly serve` on an ephemeral port with the WAL at `wal_dir`,
/// `shards` shards and `seed` as its `--seed` (`None`: the node's own
/// secret), its stderr appended to `<port_file>.log`.
fn serve_command(wal_dir: &Path, port_file: &Path, shards: usize, seed: Option<u64>) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_butterfly"));
    cmd.args([
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--shards",
        &shards.to_string(),
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
        "--wal-sync",
        "always",
    ])
    .arg("--wal-dir")
    .arg(wal_dir)
    .arg("--port-file")
    .arg(port_file);
    if let Some(seed) = seed {
        cmd.args(["--seed", &seed.to_string()]);
    }
    let log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(port_file.with_extension("log"))
        .expect("stderr log");
    cmd.stdout(Stdio::null()).stderr(log);
    cmd
}

/// Start [`serve_command`] with `--seed 42`, and block until the
/// `--port-file` handshake delivers the bound address.
fn spawn_serve(wal_dir: &Path, port_file: &Path, shards: usize) -> (Reaper, SocketAddr) {
    spawn_serve_seeded(wal_dir, port_file, shards, Some(42))
}

/// [`spawn_serve`] under `seed`.
fn spawn_serve_seeded(
    wal_dir: &Path,
    port_file: &Path,
    shards: usize,
    seed: Option<u64>,
) -> (Reaper, SocketAddr) {
    spawn(serve_command(wal_dir, port_file, shards, seed), port_file)
}

/// Spawn `cmd`, a [`serve_command`] writing `port_file`, and block until
/// the handshake delivers the bound address.
fn spawn(mut cmd: Command, port_file: &Path) -> (Reaper, SocketAddr) {
    let _ = std::fs::remove_file(port_file);
    let child = cmd.spawn().expect("spawn butterfly serve");
    let mut child = Reaper(child);
    let deadline = Instant::now() + Duration::from_secs(20);
    let addr = loop {
        if let Ok(mut f) = std::fs::File::open(port_file) {
            let mut text = String::new();
            // The write is atomic (temp + rename), so any visible file
            // holds the complete address line.
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

/// Block until the server's per-shard `processed` counters total at least
/// `want` records.
fn wait_processed(control: &mut Client, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let stats = control.request(&Request::Stats).expect("stats reply");
        let processed: u64 = stats
            .get("per_shard")
            .and_then(Json::as_array)
            .expect("per_shard")
            .iter()
            .map(|s| s.get("processed").and_then(Json::as_u64).unwrap_or(0))
            .sum();
        if processed >= want {
            return;
        }
        assert!(Instant::now() < deadline, "stuck at {processed}/{want}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The scenario:
///
/// 1. serve with `--wal-sync always`, ingest 155 of 205 records, and
///    SIGKILL the process — no drain, no final fsync beyond the policy's.
/// 2. restart on the same `--wal-dir`; the replay must report the four
///    already-published windows recovered.
/// 3. ingest the remaining 50 records, subscribe `from: earliest`, drain
///    through shutdown, and require the concatenated event stream — nine
///    catch-up releases plus the flush at 205 — byte-identical to the
///    in-process pipeline over the same 205 records.
#[test]
fn kill_dash_nine_then_restart_replays_byte_identically() {
    let tag = format!("bfly-wal-recovery-{}", std::process::id());
    let wal_dir = std::env::temp_dir().join(&tag);
    let port_file = std::env::temp_dir().join(format!("{tag}.port"));
    let _ = std::fs::remove_dir_all(&wal_dir);

    let records: Vec<ItemSet> = DatasetProfile::WebView1
        .source(13)
        .take_vec(205)
        .into_iter()
        .map(|t| t.into_items())
        .collect();

    // Uncrashed reference: config mirrors the serve flags above.
    let cfg = ServeConfig {
        shards: 2,
        window: 120,
        c: 15,
        k: 3,
        epsilon: 0.016,
        delta: 0.4,
        every: 10,
        seed: 42,
        ..ServeConfig::default()
    };
    let mut pipe = cfg.pipeline_for("alpha");
    let mut expected: Vec<String> = Vec::new();
    for items in &records {
        pipe.advance(butterfly_repro::common::Transaction::new(0, items.clone()));
        if pipe.due(cfg.every) {
            let r = pipe.publish_now().expect("full window");
            expected.push(release_line("alpha", r.stream_len, &r.release));
        }
    }
    let flush = pipe.flush().expect("5 pending records flush");
    expected.push(release_line("alpha", flush.stream_len, &flush.release));
    assert_eq!(expected.len(), 10, "cadence at 120…200 plus flush at 205");

    // Phase 1: ingest 155 records, then SIGKILL. Waiting for 155 processed
    // guarantees the publications at 120…150 completed (each publication
    // finishes before the *next* record's counter tick), while the kill
    // still lands with no drain and the log mid-segment.
    let (server, addr) = spawn_serve(&wal_dir, &port_file, 2);
    let mut client = Client::connect(addr).expect("connect");
    client
        .request(&Request::Ingest {
            stream: "alpha".into(),
            batch: records[..155].to_vec(),
        })
        .expect("phase-1 ingest");
    wait_processed(&mut client, 155);
    drop(server); // Reaper: SIGKILL, no drain protocol runs.
    drop(client);

    // Phase 2: restart on the same log.
    let (server, addr) = spawn_serve(&wal_dir, &port_file, 2);
    let mut client = Client::connect(addr).expect("reconnect");
    let stats = client.request(&Request::Stats).expect("stats reply");
    assert_eq!(
        stats.get("recovered_windows").and_then(Json::as_u64),
        Some(4),
        "replay must re-execute the publications at 120…150: {stats}"
    );
    assert!(
        stats.get("uptime_ms").and_then(Json::as_u64).is_some(),
        "got {stats}"
    );

    // Phase 3: finish the stream. The counters started from zero, so the
    // remaining 50 records are what the restarted process counts.
    client
        .request(&Request::Ingest {
            stream: "alpha".into(),
            batch: records[155..].to_vec(),
        })
        .expect("phase-2 ingest");
    wait_processed(&mut client, 50);

    let mut sub = Client::connect(addr).expect("subscriber connect");
    let ack = sub
        .request(&Request::Subscribe {
            stream: "alpha".into(),
            frame: FrameMode::Json,
            from: Some(CatchUp::Earliest),
        })
        .expect("subscribe ack");
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)), "got {ack}");

    client.request(&Request::Shutdown).expect("shutdown reply");
    let mut received: Vec<String> = Vec::new();
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
    assert_eq!(
        received, expected,
        "stream across the crash diverged from the uncrashed reference"
    );

    drop(server);
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_file(&port_file);
    let _ = std::fs::remove_file(port_file.with_extension("log"));
}

/// One oversized stream key used to wrap its `u16` length in the log and
/// cost the shard everything logged after it at the next start. The edge
/// now refuses it; the co-tenant's records survive a kill and a restart
/// with nothing truncated.
#[test]
fn oversized_key_is_refused_and_costs_co_tenants_nothing() {
    let tag = format!("bfly-wal-hostile-key-{}", std::process::id());
    let wal_dir = std::env::temp_dir().join(&tag);
    let port_file = std::env::temp_dir().join(format!("{tag}.port"));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let records: Vec<ItemSet> = DatasetProfile::WebView1
        .source(13)
        .take_vec(130)
        .into_iter()
        .map(|t| t.into_items())
        .collect();

    let (server, addr) = spawn_serve(&wal_dir, &port_file, 1);
    let mut client = Client::connect(addr).expect("connect");
    let reply = client
        .request(&Request::Ingest {
            stream: "k".repeat(70_000),
            batch: records[..2].to_vec(),
        })
        .expect("the connection survives the refusal");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "got {reply}");
    let reply = client
        .request(&Request::Ingest {
            stream: "alpha".into(),
            batch: records.clone(),
        })
        .expect("co-tenant ingest");
    assert_eq!(reply.get("accepted").and_then(Json::as_u64), Some(130));
    wait_processed(&mut client, 130);
    drop(server);
    drop(client);

    let (server, addr) = spawn_serve(&wal_dir, &port_file, 1);
    let mut client = Client::connect(addr).expect("reconnect");
    let stats = client.request(&Request::Stats).expect("stats reply");
    assert_eq!(
        stats.get("recovered_windows").and_then(Json::as_u64),
        Some(2),
        "replay must re-execute alpha's publications at 120 and 130: {stats}"
    );
    let wal = stats.get("wal").expect("wal stats");
    assert_eq!(wal.get("truncated_tails").and_then(Json::as_u64), Some(0));
    assert_eq!(wal.get("truncated_bytes").and_then(Json::as_u64), Some(0));

    drop(server);
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_file(&port_file);
    let _ = std::fs::remove_file(port_file.with_extension("log"));
}

/// A clean restart (graceful shutdown, then a new process on the same
/// `--wal-dir`) also lands in byte-identical state: the drain's flush
/// publication is in the log, so catch-up serves it, and the restarted
/// pipeline continues the cadence exactly where the stream left off.
#[test]
fn clean_restart_straddles_byte_identically() {
    let tag = format!("bfly-wal-restart-{}", std::process::id());
    let wal_dir = std::env::temp_dir().join(&tag);
    let port_file = std::env::temp_dir().join(format!("{tag}.port"));
    let _ = std::fs::remove_dir_all(&wal_dir);

    let records: Vec<ItemSet> = DatasetProfile::WebView1
        .source(17)
        .take_vec(160)
        .into_iter()
        .map(|t| t.into_items())
        .collect();
    let cfg = ServeConfig {
        shards: 2,
        window: 120,
        c: 15,
        k: 3,
        epsilon: 0.016,
        delta: 0.4,
        every: 10,
        seed: 42,
        ..ServeConfig::default()
    };
    let mut pipe = cfg.pipeline_for("alpha");
    let mut expected: Vec<String> = Vec::new();
    for (i, items) in records.iter().enumerate() {
        pipe.advance(butterfly_repro::common::Transaction::new(0, items.clone()));
        if pipe.due(cfg.every) {
            let r = pipe.publish_now().expect("full window");
            expected.push(release_line("alpha", r.stream_len, &r.release));
        }
        // The restart splits the stream at 135: the first process drains
        // with 15 records pending, which the uncrashed pipeline never
        // flushes mid-stream — the drain flush at 135 is an *extra*
        // publication the reference must include to stay comparable.
        if i + 1 == 135 {
            if let Some(r) = pipe.flush() {
                expected.push(release_line("alpha", r.stream_len, &r.release));
            }
        }
    }
    if let Some(r) = pipe.flush() {
        expected.push(release_line("alpha", r.stream_len, &r.release));
    }

    let (server, addr) = spawn_serve(&wal_dir, &port_file, 2);
    let mut client = Client::connect(addr).expect("connect");
    client
        .request(&Request::Ingest {
            stream: "alpha".into(),
            batch: records[..135].to_vec(),
        })
        .expect("first ingest");
    wait_processed(&mut client, 135);
    client.request(&Request::Shutdown).expect("shutdown reply");
    // Graceful exit: wait for the process itself so the final sync ran.
    let mut server = server;
    let status = server.0.wait().expect("serve exit status");
    assert!(status.success(), "serve exited {status}");
    drop(client);

    let (server, addr) = spawn_serve(&wal_dir, &port_file, 2);
    let mut client = Client::connect(addr).expect("reconnect");
    client
        .request(&Request::Ingest {
            stream: "alpha".into(),
            batch: records[135..].to_vec(),
        })
        .expect("second ingest");
    wait_processed(&mut client, 25);
    let mut sub = Client::connect(addr).expect("subscriber connect");
    sub.request(&Request::Subscribe {
        stream: "alpha".into(),
        frame: FrameMode::Json,
        from: Some(CatchUp::Earliest),
    })
    .expect("subscribe ack");
    client.request(&Request::Shutdown).expect("shutdown reply");
    let mut received: Vec<String> = Vec::new();
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
    assert_eq!(received, expected, "clean restart diverged");

    drop(server);
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_file(&port_file);
    let _ = std::fs::remove_file(port_file.with_extension("log"));
}

/// Read events from `sub` until the stream's `closed` event.
fn until_closed(sub: &mut Client) -> Vec<String> {
    let mut received = Vec::new();
    loop {
        let event = sub
            .next_event()
            .expect("subscriber read")
            .expect("closed event before EOF");
        if event.get("event").and_then(Json::as_str) == Some("closed") {
            return received;
        }
        received.push(event.to_string());
    }
}

/// A node started without `--seed` draws its secret, stores it beside the
/// log (owner-only) and never prints it. Killed and restarted without
/// `--seed`, it reads the secret back: the catch-up repeats the first
/// incarnation's live releases byte for byte and the stream continues as
/// the in-process pipeline under that secret publishes it. A restart under
/// another `--seed` is refused by name.
#[test]
fn a_drawn_secret_survives_a_kill_and_refuses_another_seed() {
    let tag = format!("bfly-wal-secret-{}", std::process::id());
    let wal_dir = std::env::temp_dir().join(&tag);
    let port_file = std::env::temp_dir().join(format!("{tag}.port"));
    let log = port_file.with_extension("log");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_file(&log);
    let records: Vec<ItemSet> = DatasetProfile::WebView1
        .source(19)
        .take_vec(205)
        .into_iter()
        .map(|t| t.into_items())
        .collect();
    let subscribe = |addr: SocketAddr, from: Option<CatchUp>| {
        let mut sub = Client::connect(addr).expect("subscriber connect");
        let ack = sub
            .request(&Request::Subscribe {
                stream: "alpha".into(),
                frame: FrameMode::Json,
                from,
            })
            .expect("subscribe ack");
        assert_eq!(ack.get("ok"), Some(&Json::Bool(true)), "got {ack}");
        sub
    };
    let next = |sub: &mut Client| sub.next_event().unwrap().unwrap().to_string();

    // First incarnation: the releases at 120…150 reach a live subscriber,
    // then SIGKILL.
    let (server, addr) = spawn_serve_seeded(&wal_dir, &port_file, 2, None);
    let mut live = subscribe(addr, None);
    let mut client = Client::connect(addr).expect("connect");
    client
        .request(&Request::Ingest {
            stream: "alpha".into(),
            batch: records[..155].to_vec(),
        })
        .expect("phase-1 ingest");
    wait_processed(&mut client, 155);
    let first: Vec<String> = (0..4).map(|_| next(&mut live)).collect();
    drop(server);

    let bytes = std::fs::read(wal_dir.join("secret")).expect("the secret is stored");
    assert_eq!(bytes.len(), 12);
    let secret = u64::from_le_bytes(bytes[..8].try_into().unwrap());
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        let meta = std::fs::metadata(wal_dir.join("secret")).unwrap();
        assert_eq!(meta.permissions().mode() & 0o777, 0o600);
    }

    // Second incarnation, again without --seed.
    let (server, addr) = spawn_serve_seeded(&wal_dir, &port_file, 2, None);
    let mut sub = subscribe(addr, Some(CatchUp::Earliest));
    let caught_up: Vec<String> = (0..4).map(|_| next(&mut sub)).collect();
    assert_eq!(
        caught_up, first,
        "catch-up diverged from the first incarnation"
    );
    let mut client = Client::connect(addr).expect("reconnect");
    client
        .request(&Request::Ingest {
            stream: "alpha".into(),
            batch: records[155..].to_vec(),
        })
        .expect("phase-2 ingest");
    wait_processed(&mut client, 50);
    client.request(&Request::Shutdown).expect("shutdown reply");
    let rest = until_closed(&mut sub);
    drop(server);

    let cfg = ServeConfig {
        shards: 2,
        window: 120,
        c: 15,
        k: 3,
        epsilon: 0.016,
        delta: 0.4,
        every: 10,
        seed: secret,
        ..ServeConfig::default()
    };
    let mut pipe = cfg.pipeline_for("alpha");
    let mut expected: Vec<String> = Vec::new();
    for items in &records {
        pipe.advance(butterfly_repro::common::Transaction::new(0, items.clone()));
        if pipe.due(cfg.every) {
            let r = pipe.publish_now().expect("full window");
            expected.push(release_line("alpha", r.stream_len, &r.release));
        }
    }
    let flush = pipe.flush().expect("5 pending records flush");
    expected.push(release_line("alpha", flush.stream_len, &flush.release));
    assert_eq!([first, rest].concat(), expected, "the stream diverged");

    // Another --seed, or a short secret file: a named refusal, not a panic
    // and not a listener.
    let refusal = |seed: Option<u64>| {
        let mut child = serve_command(&wal_dir, &port_file, 2, seed)
            .spawn()
            .expect("spawn butterfly serve");
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            if let Some(status) = child.try_wait().unwrap() {
                break status;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                panic!("serve started on a log it must refuse");
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(status.code(), Some(1));
        let stderr = std::fs::read_to_string(&log).unwrap();
        assert!(!stderr.contains("panicked"), "{stderr}");
        stderr.lines().last().unwrap_or_default().to_string()
    };
    let refused = refusal(Some(secret ^ 1));
    assert!(
        refused.starts_with("error: parse error: wal secret") && refused.contains("another seed"),
        "{refused}"
    );
    std::fs::write(wal_dir.join("secret"), &bytes[..5]).unwrap();
    let refused = refusal(None);
    assert!(
        refused.contains("torn or short (5 bytes, not 12)"),
        "{refused}"
    );
    let stderr = std::fs::read_to_string(&log).unwrap();
    assert!(
        !stderr.contains(&secret.to_string()),
        "serve printed its secret: {stderr}"
    );

    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_file(&port_file);
    let _ = std::fs::remove_file(&log);
}

/// Every segment file of `shard-0` under `dir`, by name.
fn shard_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir.join("shard-0"))
        .expect("shard directory")
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// Publish `pipe`'s full window and log it the way the shard worker does,
/// through the `WalRecord` encoders: the `release` record, then on the
/// snapshot cadence a `snapshot` naming its window by position, through
/// `WalWriter::append_snapshot`, the one appender that can size that
/// window (its bytes are a `StreamSnapshot`'s with an empty `window`:
/// `wal::record::tests::the_direct_snapshot_encoder_is_the_records_layout`).
fn log_publication(
    w: &mut WalWriter,
    pipe: &mut StreamPipeline,
    stream: &str,
    kind: DefenseKind,
    snapshot_every: usize,
) {
    log_publication_with(w, pipe, stream, kind, snapshot_every, &VecDeque::new());
}

/// [`log_publication`], with a snapshot carrying `window`, the records the
/// pipeline holds, when it is not empty: the form logs written before
/// snapshots named their window by position hold.
fn log_publication_with(
    w: &mut WalWriter,
    pipe: &mut StreamPipeline,
    stream: &str,
    kind: DefenseKind,
    snapshot_every: usize,
    window: &VecDeque<&ItemSet>,
) {
    let published = pipe.history().published();
    let r = pipe.publish_now().expect("an honest release");
    w.append(&WalRecord::Release {
        stream: stream.into(),
        stream_len: r.stream_len,
        entries: binary_entries(r.release.iter()),
    })
    .unwrap();
    let due = snapshot_every == 1 || published.is_multiple_of(snapshot_every as u64);
    if due && window.is_empty() {
        let len = pipe.window().len();
        w.append_snapshot(stream, kind, r.stream_len, published + 1, &r.release, len)
            .unwrap();
    } else if due {
        let ids = |set: &ItemSet| set.iter().map(|i| i.id()).collect::<Vec<u32>>();
        w.append(&WalRecord::Snapshot(StreamSnapshot {
            stream: stream.into(),
            kind,
            stream_len: r.stream_len,
            published: published + 1,
            last_len: r.stream_len,
            prev_release: r
                .release
                .iter()
                .map(|e| SnapshotEntry {
                    ids: ids(e.itemset()),
                    true_support: e.true_support,
                    sanitized: e.sanitized,
                })
                .collect(),
            window: window.iter().map(|set| ids(set)).collect(),
        }))
        .unwrap();
    }
}

/// The log a node writes is the log the `WalRecord` encoders write for the
/// same stream: at `--snapshot-every 1` and 8, the segment files of a
/// `serve --wal-dir --seed 42` run equal, byte for byte, those of an
/// in-process writer fed the node's records through `WalRecord::{Open,
/// Ingest, Release}` and `append_snapshot` in the shard worker's order.
#[test]
fn served_log_equals_the_record_encoders_log() {
    let records: Vec<ItemSet> = DatasetProfile::WebView1
        .source(29)
        .take_vec(400)
        .into_iter()
        .map(|t| t.into_items())
        .collect();
    for snapshot_every in [1, 8] {
        let tag = format!("bfly-wal-encoders-{snapshot_every}-{}", std::process::id());
        let wal_dir = std::env::temp_dir().join(&tag);
        let ref_dir = std::env::temp_dir().join(format!("{tag}-ref"));
        let port_file = std::env::temp_dir().join(format!("{tag}.port"));
        for dir in [&wal_dir, &ref_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }

        let mut cmd = serve_command(&wal_dir, &port_file, 1, Some(42));
        cmd.args(["--snapshot-every", &snapshot_every.to_string()]);
        let (mut server, addr) = spawn(cmd, &port_file);
        let mut client = Client::connect(addr).expect("connect");
        for batch in records.chunks(25) {
            client
                .request(&Request::Ingest {
                    stream: "alpha".into(),
                    batch: batch.to_vec(),
                })
                .expect("ingest");
        }
        wait_processed(&mut client, records.len() as u64);
        client.request(&Request::Shutdown).expect("shutdown reply");
        let status = server.0.wait().expect("serve exit status");
        assert!(status.success(), "serve exited {status}");

        // The same stream through the record encoders: config and log
        // settings mirror the serve flags.
        let cfg = ServeConfig {
            shards: 1,
            window: 120,
            c: 15,
            k: 3,
            epsilon: 0.016,
            delta: 0.4,
            every: 10,
            snapshot_every,
            seed: 42,
            ..ServeConfig::default()
        };
        let mut wal = WalConfig::new(&ref_dir);
        wal.sync = WalSyncPolicy::Always;
        let stats = Arc::new(WalStats::default());
        let pos = WriterPosition::default();
        let mut w = WalWriter::open(&ref_dir, 0, wal, snapshot_every, stats, pos).unwrap();
        let stream = "alpha".to_string();
        let mut pipe = cfg.pipeline_for(&stream);
        let kind = cfg.defense.kind;
        w.append(&WalRecord::Open {
            stream: stream.clone(),
            kind,
        })
        .unwrap();
        for batch in records.chunks(25) {
            w.append(&WalRecord::Ingest {
                stream: stream.clone(),
                base: pipe.stream_len(),
                batch: batch.to_vec(),
            })
            .unwrap();
            for items in batch {
                pipe.advance(butterfly_repro::common::Transaction::new(0, items.clone()));
                if pipe.due(cfg.every) {
                    log_publication(&mut w, &mut pipe, &stream, kind, snapshot_every);
                }
            }
        }
        // The shutdown drain's flush.
        if pipe.owes() {
            log_publication(&mut w, &mut pipe, &stream, kind, snapshot_every);
        }

        let (served, encoded) = (shard_files(&wal_dir), shard_files(&ref_dir));
        let names =
            |files: &[(String, Vec<u8>)]| files.iter().map(|f| f.0.clone()).collect::<Vec<_>>();
        assert_eq!(
            names(&served),
            names(&encoded),
            "snapshot-every {snapshot_every}"
        );
        assert!(
            served == encoded,
            "snapshot-every {snapshot_every}: served segments differ from the encoders' log"
        );

        drop(server);
        for dir in [&wal_dir, &ref_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
        let _ = std::fs::remove_file(&port_file);
        let _ = std::fs::remove_file(port_file.with_extension("log"));
    }
}

/// A log whose snapshots carry their window — written through
/// `WalRecord::Snapshot`, as logs from before snapshots named their window
/// by position hold — with the stream's birth compacted away: `serve`
/// adopts the stream from it, re-verifies every logged release, and the
/// releases it publishes past the restart equal an uncrashed run's, byte
/// for byte.
#[test]
fn a_log_whose_snapshots_carry_their_window_restarts_byte_identically() {
    let records: Vec<ItemSet> = DatasetProfile::WebView1
        .source(31)
        .take_vec(600)
        .into_iter()
        .map(|t| t.into_items())
        .collect();
    let tag = format!("bfly-wal-carried-{}", std::process::id());
    let wal_dir = std::env::temp_dir().join(&tag);
    let port_file = std::env::temp_dir().join(format!("{tag}.port"));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let cfg = ServeConfig {
        shards: 1,
        window: 120,
        c: 15,
        k: 3,
        epsilon: 0.016,
        delta: 0.4,
        every: 10,
        snapshot_every: 1,
        seed: 42,
        ..ServeConfig::default()
    };

    // The first 400 records, logged under hard compaction.
    let mut wal = WalConfig::new(&wal_dir);
    wal.sync = WalSyncPolicy::Always;
    wal.segment_min_bytes = 1;
    wal.keep_segments = 0;
    let stats = Arc::new(WalStats::default());
    let pos = WriterPosition::default();
    let mut w = WalWriter::open(&wal_dir, 0, wal, 1, stats, pos).unwrap();
    let stream = "alpha".to_string();
    let mut pipe = cfg.pipeline_for(&stream);
    let mut window: VecDeque<&ItemSet> = VecDeque::new();
    let kind = cfg.defense.kind;
    w.append(&WalRecord::Open {
        stream: stream.clone(),
        kind,
    })
    .unwrap();
    for batch in records[..400].chunks(25) {
        w.append(&WalRecord::Ingest {
            stream: stream.clone(),
            base: pipe.stream_len(),
            batch: batch.to_vec(),
        })
        .unwrap();
        for items in batch {
            pipe.advance(butterfly_repro::common::Transaction::new(0, items.clone()));
            window.push_back(items);
            if window.len() > cfg.window {
                window.pop_front();
            }
            if pipe.due(cfg.every) {
                log_publication_with(&mut w, &mut pipe, &stream, kind, 1, &window);
            }
        }
    }
    drop(w);
    let segments = shard_files(&wal_dir);
    assert_ne!(
        segments[0].0, "seg-000000.wal",
        "the birth was not compacted"
    );

    // The uncrashed run's releases past 400.
    let mut reference = cfg.pipeline_for(&stream);
    let mut want = Vec::new();
    for items in &records {
        reference.advance(butterfly_repro::common::Transaction::new(0, items.clone()));
        if reference.due(cfg.every) {
            let r = reference.publish_now().expect("an honest release");
            if r.stream_len > 400 {
                want.push((r.stream_len, binary_entries(r.release.iter())));
            }
        }
    }
    assert_eq!(reference.since_publish(), 0, "no drain flush owed");

    let (mut server, addr) = spawn_serve(&wal_dir, &port_file, 1);
    let mut client = Client::connect(addr).expect("connect");
    for batch in records[400..].chunks(25) {
        client
            .request(&Request::Ingest {
                stream: stream.clone(),
                batch: batch.to_vec(),
            })
            .expect("ingest");
    }
    client.request(&Request::Shutdown).expect("shutdown reply");
    let status = server.0.wait().expect("serve exit status");
    assert!(status.success(), "serve exited {status}");

    let logged = butterfly_repro::serve::wal::scan_catchup(&wal_dir, 0, &stream, 401);
    assert_eq!(logged, want);
    drop(server);
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_file(&port_file);
    let _ = std::fs::remove_file(port_file.with_extension("log"));
}
