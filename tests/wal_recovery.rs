//! Crash-recovery integration tests against the real `butterfly serve`
//! binary: SIGKILL the server mid-stream, restart it on the same
//! `--wal-dir`, and require the restarted process to serve a subscriber
//! stream byte-identical to a run that never crashed.
//!
//! The uncrashed reference is the in-process pipeline over the same
//! records — the same oracle the network determinism suite uses — so the
//! comparison spans the crash, the replay, the log-served catch-up, and
//! the drain flush in one concatenated byte-equality.

use butterfly_repro::butterfly::SanitizedRelease;
use butterfly_repro::common::{ItemSet, Json};
use butterfly_repro::datagen::DatasetProfile;
use butterfly_repro::serve::protocol::{release_frame_bytes, CatchUp};
use butterfly_repro::serve::{Client, FrameMode, Request, ServeConfig};
use std::io::Read;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
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

/// Start `butterfly serve` on an ephemeral port with the WAL at `wal_dir`
/// and `shards` shards, and block until the `--port-file` handshake
/// delivers the bound address.
fn spawn_serve(wal_dir: &Path, port_file: &Path, shards: usize) -> (Reaper, SocketAddr) {
    let _ = std::fs::remove_file(port_file);
    let child = Command::new(env!("CARGO_BIN_EXE_butterfly"))
        .args([
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
            "--seed",
            "42",
            "--wal-sync",
            "always",
        ])
        .arg("--wal-dir")
        .arg(wal_dir)
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
        if pipe.window().is_full() && pipe.since_publish() >= cfg.every {
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
        if pipe.window().is_full() && pipe.since_publish() >= cfg.every {
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
}
