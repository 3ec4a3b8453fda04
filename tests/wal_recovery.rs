//! Crash-recovery integration tests against the real `butterfly serve`
//! binary: SIGKILL the server mid-stream, restart it on the same
//! `--wal-dir`, and require the restarted process to serve a subscriber
//! stream byte-identical to a run that never crashed.
//!
//! The uncrashed reference is the in-process pipeline over the same
//! records — the same oracle the network determinism suite uses — so the
//! comparison spans the crash, the replay, the log-served catch-up, and
//! the drain flush in one concatenated byte-equality.

use bfly_bench::harness::{
    self, cadence, records, serve_args, served_lines, subscribe, unseeded_serve_args, until_closed,
    wait_processed, Served, TempDir,
};
use butterfly_repro::butterfly::{DefenseKind, StreamPipeline};
use butterfly_repro::common::{ItemSet, Json};
use butterfly_repro::datagen::DatasetProfile;
use butterfly_repro::serve::protocol::{binary_entries, CatchUp};
use butterfly_repro::serve::wal::record::SnapshotEntry;
use butterfly_repro::serve::wal::{StreamSnapshot, WalRecord, WalWriter, WriterPosition};
use butterfly_repro::serve::{
    Client, FrameMode, Request, ServeConfig, WalConfig, WalStats, WalSyncPolicy,
};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;

const BIN: &str = env!("CARGO_BIN_EXE_butterfly");

/// A WAL at `dir` that syncs every record (`--wal-sync always`).
fn synced(dir: &Path) -> WalConfig {
    WalConfig {
        sync: WalSyncPolicy::Always,
        ..WalConfig::new(dir)
    }
}

/// The config every node of this suite runs under `--seed 42`, with
/// `shards` shards and its log at `wal_dir` — and the in-process oracle's.
fn node_cfg(wal_dir: &Path, shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        window: 120,
        c: 15,
        k: 3,
        epsilon: 0.016,
        delta: 0.4,
        every: 10,
        seed: 42,
        wal: Some(synced(wal_dir)),
        ..ServeConfig::default()
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
    let tmp = TempDir::new("bfly-wal-recovery");
    let port_file = tmp.join("serve.port");
    let records = records(DatasetProfile::WebView1, 13, 205);

    // The node's config is the uncrashed reference's.
    let cfg = node_cfg(&tmp.join("wal"), 2);
    let expected = served_lines(&mut cfg.pipeline_for("alpha"), "alpha", &records, cfg.every);
    assert_eq!(expected.len(), 10, "cadence at 120…200 plus flush at 205");

    // Phase 1: ingest 155 records, then SIGKILL. Waiting for 155 processed
    // guarantees the publications at 120…150 completed (each publication
    // finishes before the *next* record's counter tick), while the kill
    // still lands with no drain and the log mid-segment.
    let server = Served::spawn(BIN, &port_file, &serve_args(&cfg));
    let mut client = Client::connect(server.addr).expect("connect");
    harness::ingest(&mut client, "alpha", &records[..155]);
    wait_processed(&mut client, 155);
    drop(server); // SIGKILL, no drain protocol runs.
    drop(client);

    // Phase 2: restart on the same log.
    let server = Served::spawn(BIN, &port_file, &serve_args(&cfg));
    let mut client = Client::connect(server.addr).expect("reconnect");
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
    harness::ingest(&mut client, "alpha", &records[155..]);
    wait_processed(&mut client, 50);

    let from = Some(CatchUp::Earliest);
    let mut sub = subscribe(server.addr, "alpha", FrameMode::Json, from);
    client.request(&Request::Shutdown).expect("shutdown reply");
    assert_eq!(
        until_closed(&mut sub, "alpha"),
        expected,
        "stream across the crash diverged from the uncrashed reference"
    );
}

/// One oversized stream key used to wrap its `u16` length in the log and
/// cost the shard everything logged after it at the next start. The edge
/// now refuses it; the co-tenant's records survive a kill and a restart
/// with nothing truncated.
#[test]
fn oversized_key_is_refused_and_costs_co_tenants_nothing() {
    let tmp = TempDir::new("bfly-wal-hostile-key");
    let port_file = tmp.join("serve.port");
    let args = serve_args(&node_cfg(&tmp.join("wal"), 1));
    let records = records(DatasetProfile::WebView1, 13, 130);

    let server = Served::spawn(BIN, &port_file, &args);
    let mut client = Client::connect(server.addr).expect("connect");
    // The connection survives the refusal.
    let reply = harness::ingest(&mut client, &"k".repeat(70_000), &records[..2]);
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "got {reply}");
    let reply = harness::ingest(&mut client, "alpha", &records);
    assert_eq!(reply.get("accepted").and_then(Json::as_u64), Some(130));
    wait_processed(&mut client, 130);
    drop(server);
    drop(client);

    let server = Served::spawn(BIN, &port_file, &args);
    let mut client = Client::connect(server.addr).expect("reconnect");
    let stats = client.request(&Request::Stats).expect("stats reply");
    assert_eq!(
        stats.get("recovered_windows").and_then(Json::as_u64),
        Some(2),
        "replay must re-execute alpha's publications at 120 and 130: {stats}"
    );
    let wal = stats.get("wal").expect("wal stats");
    assert_eq!(wal.get("truncated_tails").and_then(Json::as_u64), Some(0));
    assert_eq!(wal.get("truncated_bytes").and_then(Json::as_u64), Some(0));
}

/// A clean restart (graceful shutdown, then a new process on the same
/// `--wal-dir`) also lands in byte-identical state: the drain's flush
/// publication is in the log, so catch-up serves it, and the restarted
/// pipeline continues the cadence exactly where the stream left off.
#[test]
fn clean_restart_straddles_byte_identically() {
    let tmp = TempDir::new("bfly-wal-restart");
    let port_file = tmp.join("serve.port");
    let records = records(DatasetProfile::WebView1, 17, 160);
    let cfg = node_cfg(&tmp.join("wal"), 2);
    // The restart splits the stream at 135: the first process drains with
    // 15 records pending, which the uncrashed pipeline never flushes
    // mid-stream — the drain flush at 135 is an *extra* publication the
    // reference must include to stay comparable.
    let mut pipe = cfg.pipeline_for("alpha");
    let expected = [
        served_lines(&mut pipe, "alpha", &records[..135], cfg.every),
        served_lines(&mut pipe, "alpha", &records[135..], cfg.every),
    ]
    .concat();

    let server = Served::spawn(BIN, &port_file, &serve_args(&cfg));
    let mut client = Client::connect(server.addr).expect("connect");
    harness::ingest(&mut client, "alpha", &records[..135]);
    wait_processed(&mut client, 135);
    client.request(&Request::Shutdown).expect("shutdown reply");
    // Graceful exit: wait for the process itself so the final sync ran.
    server.join();
    drop(client);

    let server = Served::spawn(BIN, &port_file, &serve_args(&cfg));
    let mut client = Client::connect(server.addr).expect("reconnect");
    harness::ingest(&mut client, "alpha", &records[135..]);
    wait_processed(&mut client, 25);
    let from = Some(CatchUp::Earliest);
    let mut sub = subscribe(server.addr, "alpha", FrameMode::Json, from);
    client.request(&Request::Shutdown).expect("shutdown reply");
    let received = until_closed(&mut sub, "alpha");
    assert_eq!(received, expected, "clean restart diverged");
}

/// A node started without `--seed` draws its secret, stores it beside the
/// log (owner-only) and never prints it. Killed and restarted without
/// `--seed`, it reads the secret back: the catch-up repeats the first
/// incarnation's live releases byte for byte and the stream continues as
/// the in-process pipeline under that secret publishes it. A restart under
/// another `--seed` is refused by name.
#[test]
fn a_drawn_secret_survives_a_kill_and_refuses_another_seed() {
    let tmp = TempDir::new("bfly-wal-secret");
    let wal_dir = tmp.join("wal");
    let port_file = tmp.join("serve.port");
    let log = port_file.with_extension("log");
    let records = records(DatasetProfile::WebView1, 19, 205);
    let cfg = node_cfg(&wal_dir, 2);
    let next = |sub: &mut Client| sub.next_event().unwrap().unwrap().to_string();

    // First incarnation: the releases at 120…150 reach a live subscriber,
    // then SIGKILL.
    let server = Served::spawn(BIN, &port_file, &unseeded_serve_args(&cfg));
    let mut live = subscribe(server.addr, "alpha", FrameMode::Json, None);
    let mut client = Client::connect(server.addr).expect("connect");
    harness::ingest(&mut client, "alpha", &records[..155]);
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
    let server = Served::spawn(BIN, &port_file, &unseeded_serve_args(&cfg));
    let from = Some(CatchUp::Earliest);
    let mut sub = subscribe(server.addr, "alpha", FrameMode::Json, from);
    let caught_up: Vec<String> = (0..4).map(|_| next(&mut sub)).collect();
    assert_eq!(
        caught_up, first,
        "catch-up diverged from the first incarnation"
    );
    let mut client = Client::connect(server.addr).expect("reconnect");
    harness::ingest(&mut client, "alpha", &records[155..]);
    wait_processed(&mut client, 50);
    client.request(&Request::Shutdown).expect("shutdown reply");
    let rest = until_closed(&mut sub, "alpha");
    drop(server);

    let cfg = ServeConfig {
        seed: secret,
        ..cfg
    };
    let expected = served_lines(&mut cfg.pipeline_for("alpha"), "alpha", &records, cfg.every);
    assert_eq!([first, rest].concat(), expected, "the stream diverged");

    // Another --seed, or a short secret file: a named refusal, not a panic
    // and not a listener.
    let refusal = |args: Vec<String>| {
        let Err(status) = Served::start(BIN, &port_file, &args) else {
            panic!("serve started on a log it must refuse");
        };
        assert_eq!(status.code(), Some(1));
        let stderr = std::fs::read_to_string(&log).unwrap();
        assert!(!stderr.contains("panicked"), "{stderr}");
        stderr.lines().last().unwrap_or_default().to_string()
    };
    let another = ServeConfig {
        seed: secret ^ 1,
        ..cfg.clone()
    };
    let refused = refusal(serve_args(&another));
    assert!(
        refused.starts_with("error: parse error: wal secret") && refused.contains("another seed"),
        "{refused}"
    );
    std::fs::write(wal_dir.join("secret"), &bytes[..5]).unwrap();
    let refused = refusal(unseeded_serve_args(&cfg));
    assert!(
        refused.contains("torn or short (5 bytes, not 12)"),
        "{refused}"
    );
    let stderr = std::fs::read_to_string(&log).unwrap();
    assert!(
        !stderr.contains(&secret.to_string()),
        "serve printed its secret: {stderr}"
    );
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
    let records = records(DatasetProfile::WebView1, 29, 400);
    for snapshot_every in [1, 8] {
        let tmp = TempDir::new(&format!("bfly-wal-encoders-{snapshot_every}"));
        let (wal_dir, ref_dir) = (tmp.join("wal"), tmp.join("ref"));
        let cfg = ServeConfig {
            snapshot_every,
            ..node_cfg(&wal_dir, 1)
        };

        let server = Served::spawn(BIN, &tmp.join("serve.port"), &serve_args(&cfg));
        let mut client = Client::connect(server.addr).expect("connect");
        for batch in records.chunks(25) {
            harness::ingest(&mut client, "alpha", batch);
        }
        wait_processed(&mut client, records.len() as u64);
        client.request(&Request::Shutdown).expect("shutdown reply");
        server.join();

        // The same stream through the record encoders, under the node's
        // config and log settings.
        let stats = Arc::new(WalStats::default());
        let pos = WriterPosition::default();
        let wal = synced(&ref_dir);
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
    let records = records(DatasetProfile::WebView1, 31, 600);
    let tmp = TempDir::new("bfly-wal-carried");
    let wal_dir = tmp.join("wal");
    let cfg = node_cfg(&wal_dir, 1);

    // The first 400 records, logged under hard compaction.
    let mut wal = synced(&wal_dir);
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
    let want: Vec<_> = cadence(&mut reference, &records, cfg.every)
        .into_iter()
        .filter(|r| r.stream_len > 400)
        .map(|r| (r.stream_len, binary_entries(r.release.iter())))
        .collect();
    assert_eq!(reference.since_publish(), 0, "no drain flush owed");

    let server = Served::spawn(BIN, &tmp.join("serve.port"), &serve_args(&cfg));
    let mut client = Client::connect(server.addr).expect("connect");
    for batch in records[400..].chunks(25) {
        harness::ingest(&mut client, &stream, batch);
    }
    client.request(&Request::Shutdown).expect("shutdown reply");
    server.join();

    let logged = butterfly_repro::serve::wal::scan_catchup(&wal_dir, 0, &stream, 401);
    assert_eq!(logged, want);
}
