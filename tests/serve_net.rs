//! Integration tests for the `bfly_serve` stream service: network
//! determinism (a TCP round trip is bit-identical to an in-process run),
//! overload shedding, graceful drain, and wire-protocol edge cases.

use butterfly_repro::butterfly::SanitizedRelease;
use butterfly_repro::common::{BinaryFrame, ItemSet, Json};
use butterfly_repro::datagen::DatasetProfile;
use butterfly_repro::serve::protocol::{closed_event, release_frame_bytes, SubscriberState};
use butterfly_repro::serve::{
    Client, ClusterMap, FrameMode, Request, ServeConfig, ServeRole, Server,
};
use std::io::{BufRead, BufReader, Write};

/// The NDJSON `release` line a subscriber reads for one publication.
fn release_line(stream: &str, stream_len: u64, release: &SanitizedRelease) -> String {
    let line = release_frame_bytes(FrameMode::Json, stream, stream_len, release);
    String::from_utf8(line.to_vec())
        .unwrap()
        .trim_end()
        .to_string()
}

fn feasible_cfg() -> ServeConfig {
    ServeConfig {
        shards: 2,
        window: 120,
        c: 15,
        k: 3,
        epsilon: 0.016,
        delta: 0.4,
        every: 100,
        seed: 42,
        ..ServeConfig::default()
    }
}

/// The tentpole guarantee: a seeded stream fed over TCP produces releases
/// byte-identical to the same records pushed through an in-process pipeline
/// built by the same config — interleaved traffic on another stream key and
/// the network boundary change nothing. Also covers the partial-window
/// drain: 130 records with window 120 / every 100 publish at 120 on cadence
/// and at 130 only because shutdown flushes.
#[test]
fn network_releases_bit_identical_to_in_process() {
    let cfg = feasible_cfg();
    let records: Vec<ItemSet> = DatasetProfile::WebView1
        .source(5)
        .take_vec(130)
        .into_iter()
        .map(|t| t.into_items())
        .collect();

    // In-process reference run, through the exact construction path the
    // shard workers use.
    let mut pipe = cfg.pipeline_for("alpha");
    let mut expected: Vec<String> = Vec::new();
    for items in &records {
        pipe.advance(butterfly_repro::common::Transaction::new(0, items.clone()));
        if pipe.due(cfg.every) {
            let r = pipe.publish_now().expect("full window");
            expected.push(release_line("alpha", r.stream_len, &r.release));
        }
    }
    if let Some(r) = pipe.flush() {
        expected.push(release_line("alpha", r.stream_len, &r.release));
    }
    assert_eq!(expected.len(), 2, "cadence at 120 plus drain flush at 130");

    // The same records over TCP, with a second tenant interleaved.
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();
    let mut subscriber = Client::connect(addr).expect("subscriber connect");
    let ack = subscriber
        .request(&Request::Subscribe {
            stream: "alpha".into(),
            frame: FrameMode::Json,
            from: None,
        })
        .expect("subscribe ack");
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)));

    let mut ingest = Client::connect(addr).expect("ingest connect");
    let mut beta_source = DatasetProfile::Pos.source(9);
    for chunk in records.chunks(25) {
        let reply = ingest
            .request(&Request::Ingest {
                stream: "alpha".into(),
                batch: chunk.to_vec(),
            })
            .expect("ingest reply");
        assert_eq!(
            reply.get("accepted").and_then(Json::as_u64),
            Some(chunk.len() as u64),
            "no shedding expected at default queue caps: {reply}"
        );
        let beta_batch: Vec<ItemSet> = (0..10)
            .map(|_| beta_source.next_transaction().into_items())
            .collect();
        let reply = ingest
            .request(&Request::Ingest {
                stream: "beta".into(),
                batch: beta_batch,
            })
            .expect("beta ingest reply");
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
    }
    let reply = ingest.request(&Request::Shutdown).expect("shutdown reply");
    assert_eq!(reply.get("draining"), Some(&Json::Bool(true)));

    // Drain the subscriber to the closed event; everything before it must
    // match the reference run byte for byte.
    let mut received: Vec<String> = Vec::new();
    loop {
        let line = subscriber
            .next_line()
            .expect("subscriber read")
            .expect("closed event must arrive before EOF");
        if line.get("event").and_then(Json::as_str) == Some("closed") {
            assert_eq!(line.to_string(), closed_event("alpha").to_string());
            break;
        }
        received.push(line.to_string());
    }
    assert_eq!(received, expected, "network run diverged from in-process");
    server.join();
}

/// The delta wire end to end: under `snapshot_every = 4` a subscriber that
/// joins mid-stream — after two publications it never saw — syncs on the
/// next full snapshot, rides `release_delta` events from there, and ends up
/// with exactly the state an always-connected subscriber (and the
/// in-process pipeline) has.
#[test]
fn mid_stream_subscriber_reconstructs_from_snapshot_and_deltas() {
    let cfg = ServeConfig {
        every: 10,
        snapshot_every: 4,
        shards: 1,
        ..feasible_cfg()
    };
    let records: Vec<ItemSet> = DatasetProfile::WebView1
        .source(7)
        .take_vec(200)
        .into_iter()
        .map(|t| t.into_items())
        .collect();

    // In-process reference: publications at stream_len 120, 130, …, 200.
    let mut pipe = cfg.pipeline_for("alpha");
    let mut final_release_line = None;
    for items in &records {
        pipe.advance(butterfly_repro::common::Transaction::new(0, items.clone()));
        if pipe.due(cfg.every) {
            let r = pipe.publish_now().expect("full window");
            final_release_line = Some(release_line("alpha", r.stream_len, &r.release));
        }
    }
    assert!(pipe.flush().is_none(), "200 lands on the cadence exactly");
    let mut oracle = SubscriberState::new();
    oracle
        .observe(&Json::parse(&final_release_line.expect("9 publications")).unwrap())
        .unwrap();
    assert_eq!(oracle.stream_len(), Some(200));

    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();

    // Subscriber A is present from the start and sees every event.
    let mut early = Client::connect(addr).expect("early connect");
    early
        .request(&Request::Subscribe {
            stream: "alpha".into(),
            frame: FrameMode::Json,
            from: None,
        })
        .expect("early subscribe");

    // Ingest 135 records and wait until the shard has fully processed them
    // (publications at 120 and 130 are fanned out before anyone else joins).
    let mut ingest = Client::connect(addr).expect("ingest connect");
    ingest
        .request(&Request::Ingest {
            stream: "alpha".into(),
            batch: records[..135].to_vec(),
        })
        .expect("first ingest");
    loop {
        let stats = ingest.request(&Request::Stats).expect("stats");
        let processed: u64 = stats
            .get("per_shard")
            .and_then(Json::as_array)
            .expect("per_shard")
            .iter()
            .map(|s| s.get("processed").and_then(Json::as_u64).unwrap_or(0))
            .sum();
        if processed >= 135 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    // Subscriber B joins mid-stream: it has missed the snapshot at 120 and
    // the delta at 130, and will first see the deltas at 140 and 150 —
    // unusable — then the snapshot at 160.
    let mut late = Client::connect(addr).expect("late connect");
    late.request(&Request::Subscribe {
        stream: "alpha".into(),
        frame: FrameMode::Json,
        from: None,
    })
    .expect("late subscribe");

    ingest
        .request(&Request::Ingest {
            stream: "alpha".into(),
            batch: records[135..].to_vec(),
        })
        .expect("second ingest");
    ingest.request(&Request::Shutdown).expect("shutdown");

    let drain = |client: &mut Client| -> SubscriberState {
        let mut state = SubscriberState::new();
        loop {
            let line = client.next_line().expect("read").expect("closed first");
            if line.get("event").and_then(Json::as_str) == Some("closed") {
                return state;
            }
            state.observe(&line).expect("no divergence");
        }
    };
    let early_state = drain(&mut early);
    let late_state = drain(&mut late);

    // A: syncs at 120 (skipping that publication's own base-0 delta), then
    // applies all 8 later deltas and verifies the snapshots at 160 and 200.
    assert_eq!(early_state.snapshots, 1);
    assert_eq!(early_state.deltas_skipped, 1);
    assert_eq!(early_state.deltas_applied, 8);
    assert_eq!(early_state.verified, 2);

    // B: skips the deltas at 140, 150, and 160 (its base predates the
    // sync), adopts the snapshot at 160, applies 170–200, verifies 200.
    assert_eq!(late_state.snapshots, 1);
    assert_eq!(late_state.deltas_skipped, 3);
    assert_eq!(late_state.deltas_applied, 4);
    assert_eq!(late_state.verified, 1);

    // Everyone converges on the in-process truth.
    assert_eq!(early_state.stream_len(), Some(200));
    assert_eq!(late_state.stream_len(), Some(200));
    assert_eq!(early_state.entries(), oracle.entries());
    assert_eq!(late_state.entries(), oracle.entries());
    server.join();
}

/// Same seed, two server instances: the wire output is reproducible run to
/// run (noise comes from the config seed, not from process state).
#[test]
fn same_seed_reproduces_across_server_instances() {
    let records: Vec<ItemSet> = DatasetProfile::Pos
        .source(11)
        .take_vec(130)
        .into_iter()
        .map(|t| t.into_items())
        .collect();
    let run = |seed: u64| -> Vec<String> {
        let cfg = ServeConfig {
            seed,
            ..feasible_cfg()
        };
        let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
        let mut sub = Client::connect(server.local_addr()).expect("connect");
        sub.request(&Request::Subscribe {
            stream: "s".into(),
            frame: FrameMode::Json,
            from: None,
        })
        .expect("subscribe");
        let mut ingest = Client::connect(server.local_addr()).expect("connect");
        ingest
            .request(&Request::Ingest {
                stream: "s".into(),
                batch: records.clone(),
            })
            .expect("ingest");
        ingest.request(&Request::Shutdown).expect("shutdown");
        let mut lines = Vec::new();
        loop {
            let line = sub.next_line().expect("read").expect("closed before EOF");
            let closed = line.get("event").and_then(Json::as_str) == Some("closed");
            lines.push(line.to_string());
            if closed {
                break;
            }
        }
        server.join();
        lines
    };
    assert_eq!(run(42), run(42), "same seed must reproduce");
    assert_ne!(run(42), run(43), "different seed must perturb differently");
}

/// A connection that both subscribes and issues `shutdown` must still get
/// its drain events: the shutdown ack must not close the connection before
/// the flush release and `closed` arrive (regression — dispatch used to end
/// the connection on the shutdown verb unconditionally).
#[test]
fn subscriber_issuing_shutdown_still_receives_drain_events() {
    let cfg = feasible_cfg();
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .request(&Request::Subscribe {
            stream: "s".into(),
            frame: FrameMode::Json,
            from: None,
        })
        .expect("subscribe ack");
    let batch: Vec<ItemSet> = DatasetProfile::Pos
        .source(13)
        .take_vec(60)
        .into_iter()
        .map(|t| t.into_items())
        .collect();
    client
        .request(&Request::Ingest {
            stream: "s".into(),
            batch,
        })
        .expect("ingest reply");
    let reply = client.request(&Request::Shutdown).expect("shutdown reply");
    assert_eq!(reply.get("draining"), Some(&Json::Bool(true)));
    // 60 records never fill the 120-window, so the drain publishes nothing —
    // but the closed event must still arrive on this same connection.
    let line = client
        .next_line()
        .expect("read after shutdown")
        .expect("closed event must arrive before EOF");
    assert_eq!(line.to_string(), closed_event("s").to_string());
    server.join();
}

/// Overload: a tiny ingress queue in front of a deliberately slow shard
/// (publish every record) sheds with explicit `overloaded` replies whose
/// accepted/shed accounting matches the server's own counters.
#[test]
fn overload_sheds_explicitly_with_accurate_accounting() {
    let cfg = ServeConfig {
        shards: 1,
        window: 64,
        c: 2,
        k: 1,
        epsilon: 0.2,
        delta: 0.5,
        every: 1, // mine + publish per record: the worker cannot keep up
        queue_cap: 4,
        seed: 3,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut source = DatasetProfile::Pos.source(21);
    let mut accepted = 0u64;
    let mut shed = 0u64;
    let mut saw_overloaded = false;
    let sent: u64 = 4 * 256;
    for _ in 0..4 {
        let batch: Vec<ItemSet> = (0..256)
            .map(|_| source.next_transaction().into_items())
            .collect();
        let reply = client
            .request(&Request::Ingest {
                stream: "hot".into(),
                batch,
            })
            .expect("ingest reply");
        accepted += reply
            .get("accepted")
            .and_then(Json::as_u64)
            .expect("accepted field");
        if reply.get("ok") == Some(&Json::Bool(false)) {
            assert_eq!(
                reply.get("error").and_then(Json::as_str),
                Some("overloaded"),
                "shed reply must be explicit: {reply}"
            );
            shed += reply
                .get("shed")
                .and_then(Json::as_u64)
                .expect("shed field");
            saw_overloaded = true;
        }
    }
    assert!(saw_overloaded, "cap 4 queue must shed a 256-record burst");
    assert_eq!(accepted + shed, sent, "every record accounted for");

    let stats = client.request(&Request::Stats).expect("stats");
    let per_shard = stats
        .get("per_shard")
        .and_then(Json::as_array)
        .expect("per_shard");
    assert_eq!(per_shard.len(), 1);
    assert_eq!(
        per_shard[0].get("ingested").and_then(Json::as_u64),
        Some(accepted),
        "server ingested counter must match replies"
    );
    assert_eq!(
        per_shard[0].get("shed").and_then(Json::as_u64),
        Some(shed),
        "server shed counter must match replies"
    );
    server.shutdown();
    server.join();
}

/// The `bind` wire op end to end: a stream bound to a non-default defense
/// before its first ingest publishes exactly what an in-process pipeline
/// built with that defense publishes, streams on the same server keep the
/// config default, and a bind arriving after the stream is active is
/// rejected (a pipeline's defense is a creation-time property).
#[test]
fn bind_overrides_one_streams_defense_before_first_ingest() {
    use butterfly_repro::butterfly::DefenseKind;
    let cfg = feasible_cfg();
    let records: Vec<ItemSet> = DatasetProfile::WebView1
        .source(5)
        .take_vec(130)
        .into_iter()
        .map(|t| t.into_items())
        .collect();

    // In-process references: "alpha" under the bound suppression defense,
    // "beta" under the config default (Butterfly).
    let replay = |key: &str, kind: DefenseKind| -> Vec<String> {
        let mut pipe = cfg.pipeline_with(key, kind);
        let mut lines = Vec::new();
        for items in &records {
            pipe.advance(butterfly_repro::common::Transaction::new(0, items.clone()));
            if pipe.due(cfg.every) {
                let r = pipe.publish_now().expect("full window");
                lines.push(release_line(key, r.stream_len, &r.release));
            }
        }
        if let Some(r) = pipe.flush() {
            lines.push(release_line(key, r.stream_len, &r.release));
        }
        lines
    };
    let expected_alpha = replay("alpha", DefenseKind::Suppression);
    let expected_beta = replay("beta", cfg.defense.kind);
    assert_ne!(
        expected_alpha, expected_beta,
        "the override must actually change the output"
    );

    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();
    let mut control = Client::connect(addr).expect("control connect");
    let ack = control
        .request(&Request::Bind {
            stream: "alpha".into(),
            defense: DefenseKind::Suppression,
        })
        .expect("bind ack");
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)), "got {ack}");
    assert_eq!(ack.get("defense").and_then(Json::as_str), Some("suppress"));

    let subscribe = |key: &str| -> Client {
        let mut c = Client::connect(addr).expect("subscriber connect");
        c.request(&Request::Subscribe {
            stream: key.into(),
            frame: FrameMode::Json,
            from: None,
        })
        .expect("subscribe ack");
        c
    };
    let mut sub_alpha = subscribe("alpha");
    let mut sub_beta = subscribe("beta");

    for key in ["alpha", "beta"] {
        let reply = control
            .request(&Request::Ingest {
                stream: key.into(),
                batch: records.clone(),
            })
            .expect("ingest reply");
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
    }

    // Both streams are active now: re-binding either must be refused.
    loop {
        let stats = control.request(&Request::Stats).expect("stats");
        let processed: u64 = stats
            .get("per_shard")
            .and_then(Json::as_array)
            .expect("per_shard")
            .iter()
            .map(|s| s.get("processed").and_then(Json::as_u64).unwrap_or(0))
            .sum();
        if processed >= 2 * records.len() as u64 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let refused = control
        .request(&Request::Bind {
            stream: "alpha".into(),
            defense: DefenseKind::PrivBasis,
        })
        .expect("late bind reply");
    assert_eq!(refused.get("ok"), Some(&Json::Bool(false)));
    assert!(
        refused
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("already active")),
        "got {refused}"
    );

    control.request(&Request::Shutdown).expect("shutdown");
    let drain = |client: &mut Client| -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let line = client.next_line().expect("read").expect("closed first");
            if line.get("event").and_then(Json::as_str) == Some("closed") {
                return lines;
            }
            lines.push(line.to_string());
        }
    };
    assert_eq!(
        drain(&mut sub_alpha),
        expected_alpha,
        "bound stream diverged from the in-process suppression replay"
    );
    assert_eq!(
        drain(&mut sub_beta),
        expected_beta,
        "unbound stream must keep the config default defense"
    );
    server.join();
}

/// Frame negotiation end to end under the default I/O engine (the epoll
/// reactor on Linux): a binary-mode subscriber and a JSON-mode subscriber
/// on the same stream see the same releases — binary frames decode to event
/// documents string-identical to the NDJSON lines and to the in-process
/// replay — and binary-framed ingest drives the pipeline to exactly the
/// state NDJSON ingest would.
#[test]
fn binary_and_json_subscribers_see_identical_releases() {
    let cfg = feasible_cfg();
    let records: Vec<ItemSet> = DatasetProfile::WebView1
        .source(5)
        .take_vec(130)
        .into_iter()
        .map(|t| t.into_items())
        .collect();

    let mut pipe = cfg.pipeline_for("alpha");
    let mut expected: Vec<String> = Vec::new();
    for items in &records {
        pipe.advance(butterfly_repro::common::Transaction::new(0, items.clone()));
        if pipe.due(cfg.every) {
            let r = pipe.publish_now().expect("full window");
            expected.push(release_line("alpha", r.stream_len, &r.release));
        }
    }
    if let Some(r) = pipe.flush() {
        expected.push(release_line("alpha", r.stream_len, &r.release));
    }
    assert_eq!(expected.len(), 2, "cadence at 120 plus drain flush at 130");

    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();
    let mut sub_json = Client::connect(addr).expect("json subscriber");
    sub_json
        .request(&Request::Subscribe {
            stream: "alpha".into(),
            frame: FrameMode::Json,
            from: None,
        })
        .expect("json subscribe ack");
    let mut sub_bin = Client::connect(addr).expect("binary subscriber");
    let ack = sub_bin
        .request(&Request::Subscribe {
            stream: "alpha".into(),
            frame: FrameMode::Binary,
            from: None,
        })
        .expect("binary subscribe ack");
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)), "got {ack}");

    // Ingest over binary frames: same records, length-prefixed encoding.
    let mut ingest = Client::connect(addr).expect("ingest connect");
    ingest.set_frame(FrameMode::Binary);
    for chunk in records.chunks(40) {
        let reply = ingest
            .request(&Request::Ingest {
                stream: "alpha".into(),
                batch: chunk.to_vec(),
            })
            .expect("binary ingest reply");
        assert_eq!(
            reply.get("accepted").and_then(Json::as_u64),
            Some(chunk.len() as u64),
            "binary ingest must be accepted whole: {reply}"
        );
    }
    ingest.request(&Request::Shutdown).expect("shutdown reply");

    let drain = |client: &mut Client| -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let ev = client
                .next_event()
                .expect("subscriber read")
                .expect("closed event must arrive before EOF");
            if ev.get("event").and_then(Json::as_str) == Some("closed") {
                assert_eq!(ev.to_string(), closed_event("alpha").to_string());
                return lines;
            }
            lines.push(ev.to_string());
        }
    };
    assert_eq!(
        drain(&mut sub_json),
        expected,
        "JSON subscriber diverged from in-process replay"
    );
    assert_eq!(
        drain(&mut sub_bin),
        expected,
        "binary subscriber diverged from in-process replay"
    );
    server.join();
}

/// A client's id order is not the stream's. Binary ingest whose
/// transactions are unsorted, repeat ids or are empty publishes exactly the
/// releases, and logs exactly the WAL bytes, that the canonical frames for
/// the same records do: the chunk is canonical from the decoder on.
/// Malformed frames on the same connection keep their error text.
#[test]
fn non_canonical_binary_ingest_publishes_and_logs_the_canonical_bytes() {
    use butterfly_repro::serve::protocol::ingest_ok;
    use butterfly_repro::serve::WalConfig;
    use std::path::Path;

    /// `stream`'s binary ingest frame with each transaction's ids reversed
    /// and its largest id repeated.
    fn messy_frame(stream: &str, batch: &[ItemSet]) -> Vec<u8> {
        let mut p = Vec::new();
        p.extend_from_slice(&(stream.len() as u16).to_le_bytes());
        p.extend_from_slice(stream.as_bytes());
        p.extend_from_slice(&(batch.len() as u32).to_le_bytes());
        for set in batch {
            let mut ids: Vec<u32> = set.items().iter().rev().map(|i| i.id()).collect();
            ids.extend(ids.first().copied());
            p.extend_from_slice(&(ids.len() as u16).to_le_bytes());
            for id in ids {
                p.extend_from_slice(&id.to_le_bytes());
            }
        }
        let mut frame = vec![0xBF, 0x01];
        frame.extend_from_slice(&(p.len() as u32).to_le_bytes());
        frame.extend_from_slice(&p);
        frame
    }

    /// Every file under `dir`, in path order.
    fn files(dir: &Path) -> Vec<Vec<u8>> {
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .expect("read dir")
            .map(|e| e.expect("dir entry").path())
            .collect();
        paths.sort();
        paths
            .iter()
            .flat_map(|p| match p.is_dir() {
                true => files(p),
                false => vec![std::fs::read(p).expect("read segment")],
            })
            .collect()
    }

    // Every ninth record empty; the others as the profile draws them.
    let records: Vec<ItemSet> = DatasetProfile::WebView1
        .source(13)
        .take_vec(130)
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            if i % 9 == 4 {
                ItemSet::empty()
            } else {
                t.into_items()
            }
        })
        .collect();
    let run = |messy: bool| -> (Vec<String>, Vec<Vec<u8>>) {
        let wal_dir =
            std::env::temp_dir().join(format!("bfly-serve-messy-{}-{messy}", std::process::id()));
        let _ = std::fs::remove_dir_all(&wal_dir);
        let cfg = ServeConfig {
            shards: 1,
            wal: Some(WalConfig::new(&wal_dir)),
            ..feasible_cfg()
        };
        let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
        let mut sub = Client::connect(server.local_addr()).expect("subscriber connect");
        sub.request(&Request::Subscribe {
            stream: "alpha".into(),
            frame: FrameMode::Json,
            from: None,
        })
        .expect("subscribe ack");
        let mut conn = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        let mut replies = BufReader::new(conn.try_clone().expect("clone"));
        let mut reply = |bytes: &[u8]| -> Json {
            conn.write_all(bytes).expect("write");
            let mut line = String::new();
            replies.read_line(&mut line).expect("reply");
            Json::parse(line.trim_end()).expect("reply json")
        };
        for part in records.chunks(40) {
            let frame = match messy {
                true => messy_frame("alpha", part),
                false => BinaryFrame::Ingest {
                    stream: "alpha".into(),
                    batch: part.to_vec(),
                }
                .encode(),
            };
            assert_eq!(reply(&frame), ingest_ok(part.len()));
        }
        // A count promising more transactions than the payload holds, and
        // a well-formed payload with bytes after it.
        let mut short = messy_frame("alpha", &records[..2]);
        short[6 + 2 + 5] += 1;
        let mut trailing = messy_frame("alpha", &records[..2]);
        trailing[2] += 4;
        trailing.extend_from_slice(&[9, 9, 9, 9]);
        for (frame, error) in [
            (short, "binary frame truncated inside payload"),
            (trailing, "binary frame has 4 trailing bytes"),
        ] {
            assert_eq!(
                reply(&frame).get("error").and_then(Json::as_str),
                Some(error)
            );
        }
        reply(b"{\"op\":\"shutdown\"}\n");
        let mut lines = Vec::new();
        loop {
            let line = sub.next_line().expect("read").expect("closed before EOF");
            if line.get("event").and_then(Json::as_str) == Some("closed") {
                break;
            }
            lines.push(line.to_string());
        }
        server.join();
        let wal = files(&wal_dir);
        std::fs::remove_dir_all(&wal_dir).expect("wal dir cleanup");
        (lines, wal)
    };
    let canonical = run(false);
    assert_eq!(
        canonical.0.len(),
        2,
        "cadence at 120 plus drain flush at 130"
    );
    assert!(!canonical.1.is_empty(), "no wal segment written");
    assert!(run(true) == canonical, "non-canonical ingest diverged");
}

/// Write `burst` `rounds` times over one raw connection, reading after each
/// write one reply line per entry of `expect`, in order, each containing
/// its entry. Returns how many rounds took longer than `slow`.
fn pipelined_rounds(
    addr: std::net::SocketAddr,
    burst: &str,
    expect: &[&str],
    rounds: usize,
    slow: std::time::Duration,
) -> usize {
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut slow_rounds = 0;
    for _ in 0..rounds {
        let start = std::time::Instant::now();
        writer.write_all(burst.as_bytes()).expect("write");
        for want in expect {
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("read");
            assert!(reply.contains(want), "wanted {want}, got {reply}");
        }
        if start.elapsed() > slow {
            slow_rounds += 1;
        }
    }
    slow_rounds
}

fn ingest_line(stream: &str, n: usize) -> String {
    let batch: Vec<String> = (0..n)
        .map(|i| format!("[{i},{},{}]", i + 1, i + 2))
        .collect();
    format!(
        "{{\"op\":\"ingest\",\"stream\":\"{stream}\",\"batch\":[{}]}}\n",
        batch.join(",")
    )
}

/// A client that pipelines small requests gets every reply promptly and in
/// request order. Accepted sockets run with `TCP_NODELAY`: with Nagle on,
/// whenever the first reply is written before the second is ready, the
/// second sits in the send buffer until the client's delayed ACK of the
/// first — 40 ms on Linux. Through a router the same holds hop by hop: a
/// connection with a forward outstanding decodes nothing more, so replies
/// from two nodes and the router's own `ping` come back in request order,
/// and the pooled links to the nodes must not wait out Nagle either.
/// Counting slow rounds (not the slowest) keeps a scheduling hiccup on a
/// busy host from failing the test.
#[test]
fn pipelined_requests_answer_in_order_without_the_delayed_ack_stall() {
    const ROUNDS: usize = 40;
    const PING: &str = "{\"op\":\"ping\"}\n";
    let server = Server::bind("127.0.0.1:0", feasible_cfg()).expect("bind");
    // A ping, then an ingest just big enough to parse for longer than the
    // reply write takes. (An `overloaded` reply is as good as an `ok` one
    // here: debug-build shards fall behind 40 back-to-back batches.)
    let slow = pipelined_rounds(
        server.local_addr(),
        &format!("{PING}{}", ingest_line("a", 64)),
        &["\"pong\":true", "\"accepted\":"],
        ROUNDS,
        std::time::Duration::from_millis(25),
    );
    assert!(
        slow * 4 < ROUNDS,
        "{slow} of {ROUNDS} pipelined pairs waited out a delayed ACK"
    );
    server.join();

    // The router leg: an in-process router over two in-process nodes.
    let cfg = feasible_cfg();
    let nodes: Vec<Server> = (0..2)
        .map(|_| Server::bind("127.0.0.1:0", cfg.clone()).expect("bind node"))
        .collect();
    let addrs: Vec<std::net::SocketAddr> = nodes.iter().map(Server::local_addr).collect();
    let router = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            role: ServeRole::Router,
            nodes: addrs.clone(),
            ..cfg.clone()
        },
    )
    .expect("bind router");
    let map = ClusterMap::federated(1, addrs, cfg.shards);
    let key_on = |node: usize| {
        (0..32)
            .map(|i| format!("p{i}"))
            .find(|k| map.owner_of(k).node == node)
            .expect("some key lands on each node")
    };
    let (on_a, on_b) = (key_on(0), key_on(1));
    // Distinct batch sizes make each reply name its request.
    let burst = format!(
        "{}{}{PING}{}",
        ingest_line(&on_a, 3),
        ingest_line(&on_b, 5),
        ingest_line(&on_a, 7)
    );
    let slow = pipelined_rounds(
        router.local_addr(),
        &burst,
        &[
            "\"accepted\":3",
            "\"accepted\":5",
            "\"pong\":true",
            "\"accepted\":7",
        ],
        ROUNDS / 4,
        std::time::Duration::from_millis(200),
    );
    assert!(
        slow * 4 < ROUNDS / 4,
        "{slow} of {} pipelined router bursts took over 200 ms",
        ROUNDS / 4
    );
    router.join();
    for node in nodes {
        node.join();
    }
}

/// Protocol edges over a raw socket: ping, stats shape, unknown ops,
/// malformed lines (recoverable), oversized lines (fatal), and ingest
/// rejection during drain.
#[test]
fn protocol_edges() {
    let cfg = feasible_cfg();
    let shards = cfg.shards;
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut roundtrip = |line: &str| -> String {
        writeln!(writer, "{line}").expect("write");
        writer.flush().expect("flush");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        reply
    };

    let pong = roundtrip("{\"op\":\"ping\"}");
    assert!(pong.contains("\"pong\":true"), "got {pong}");

    let stats = Json::parse(&roundtrip("{\"op\":\"stats\"}")).expect("stats json");
    assert_eq!(
        stats
            .get("per_shard")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(shards)
    );
    assert_eq!(stats.get("draining"), Some(&Json::Bool(false)));
    let reactor = stats.get("reactor").expect("reactor telemetry in stats");
    assert!(
        reactor
            .get("fds")
            .and_then(Json::as_u64)
            .is_some_and(|n| n >= 3),
        "listener + wake pipe + this connection: {reactor}"
    );
    assert!(
        reactor.get("wakeups").and_then(Json::as_u64).is_some(),
        "got {reactor}"
    );

    let unknown = roundtrip("{\"op\":\"frobnicate\"}");
    assert!(unknown.contains("unknown op"), "got {unknown}");

    // Malformed JSON gets an error reply but keeps the connection framed;
    // so does a line nested deeper than the parser's bound (without it, a
    // 1 MiB line of `[` overflows the reactor thread's stack and kills the
    // node).
    let deep = "[".repeat(1 << 20);
    for bad in ["this is not json", deep.as_str()] {
        let err = roundtrip(bad);
        assert!(err.contains("\"ok\":false"), "got {err}");
        let pong = roundtrip("{\"op\":\"ping\"}");
        assert!(
            pong.contains("\"pong\":true"),
            "connection must survive: {pong}"
        );
    }

    // The empty stream key: a binary ingest can spell it, but no subscribe
    // or bind can name it, so both encodings are refused with the same
    // reply, nothing is created, and the connection stays aligned.
    let empty_key = BinaryFrame::Ingest {
        stream: String::new(),
        batch: vec![ItemSet::from_ids([1u32])],
    };
    writeln!(
        writer,
        "{{\"op\":\"ingest\",\"stream\":\"\",\"batch\":[[1]]}}"
    )
    .expect("write");
    writer.write_all(&empty_key.encode()).expect("write");
    writeln!(writer, "{{\"op\":\"ping\"}}").expect("write");
    writer.flush().expect("flush");
    let missing = "{\"error\":\"parse error: request missing \\\"stream\\\"\",\"ok\":false}\n";
    for want in [missing, missing, "{\"ok\":true,\"pong\":true}\n"] {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        assert_eq!(reply, want);
    }

    // An oversized line cannot be resynced: the server replies with an
    // error (best effort — the teardown may RST past it) and closes this
    // connection, but keeps serving others. Writes may hit a broken pipe
    // once the server stops reading; that is the expected teardown.
    let huge = "x".repeat(2 * 1024 * 1024);
    let _ = writeln!(writer, "{huge}");
    let _ = writer.flush();
    let mut closed = false;
    for _ in 0..4 {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => {
                closed = true;
                break;
            }
            Ok(_) => assert!(
                line.contains("oversized"),
                "only the oversize error may precede the close: {line}"
            ),
        }
    }
    assert!(closed, "server must close after an oversized frame");
    let mut fresh = Client::connect(server.local_addr()).expect("fresh connect");
    let pong = fresh.request(&Request::Ping).expect("ping reply");
    assert_eq!(
        pong.get("pong"),
        Some(&Json::Bool(true)),
        "server must survive an oversized frame"
    );

    // During drain, ingests on a surviving connection are refused
    // explicitly (every connection stays open until the drain completes).
    // A round trip first: the listener closes at shutdown, so the
    // connection must have been accepted by then.
    let mut late = Client::connect(server.local_addr()).expect("late connect");
    late.request(&Request::Ping).expect("ping reply");
    server.shutdown();
    let reply = late
        .request(&Request::Ingest {
            stream: "s".into(),
            batch: vec![ItemSet::from_ids([1, 2])],
        })
        .expect("late ingest reply");
    assert_eq!(
        reply.get("error").and_then(Json::as_str),
        Some("shutting-down"),
        "got {reply}"
    );
    server.join();
}

/// Log-served catch-up end to end: a subscriber that connects only after
/// every publication already happened asks `from: earliest` and receives
/// the logged releases — byte-identical to the full `release` events an
/// in-process replay of the same records produces — even under
/// `snapshot_every > 1`, where the live wire at those moments carried
/// deltas. `window:<n>` trims the replay, binary framing converts to the
/// identical event JSON, and `from` without a WAL is a refused subscribe.
#[test]
fn late_subscriber_catches_up_from_the_wal() {
    use butterfly_repro::serve::protocol::CatchUp;
    use butterfly_repro::serve::WalConfig;

    let wal_dir = std::env::temp_dir().join(format!("bfly-serve-catchup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let cfg = ServeConfig {
        every: 10,
        snapshot_every: 4,
        shards: 1,
        wal: Some(WalConfig::new(&wal_dir)),
        ..feasible_cfg()
    };
    // 205 records: publications at 120…200 on cadence, then one drain
    // flush at 205. The 5 trailing records also guarantee the stats
    // processed counter only reaches 205 after publication 200 fanned out.
    let records: Vec<ItemSet> = DatasetProfile::WebView1
        .source(11)
        .take_vec(205)
        .into_iter()
        .map(|t| t.into_items())
        .collect();

    // In-process reference: the full release at every publication.
    let mut pipe = cfg.pipeline_for("alpha");
    let mut expected: Vec<String> = Vec::new();
    for items in &records {
        pipe.advance(butterfly_repro::common::Transaction::new(0, items.clone()));
        if pipe.due(cfg.every) {
            let r = pipe.publish_now().expect("full window");
            expected.push(release_line("alpha", r.stream_len, &r.release));
        }
    }
    assert!(pipe.flush().is_some(), "5 pending records flush at drain");
    assert_eq!(expected.len(), 9, "cadence publications at 120…200");

    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();
    let mut ingest = Client::connect(addr).expect("ingest connect");
    ingest
        .request(&Request::Ingest {
            stream: "alpha".into(),
            batch: records.clone(),
        })
        .expect("ingest reply");
    loop {
        let stats = ingest.request(&Request::Stats).expect("stats");
        let processed: u64 = stats
            .get("per_shard")
            .and_then(Json::as_array)
            .expect("per_shard")
            .iter()
            .map(|s| s.get("processed").and_then(Json::as_u64).unwrap_or(0))
            .sum();
        if processed >= 205 {
            // The WAL stats block is present and counting.
            let appended = stats
                .get("wal")
                .and_then(|w| w.get("records_appended"))
                .and_then(Json::as_u64)
                .expect("stats carries a wal block when the WAL is on");
            assert!(appended > 0, "got {stats}");
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    // Everything already happened; these subscribers saw none of it live.
    let mut late = Client::connect(addr).expect("late connect");
    let ack = late
        .request(&Request::Subscribe {
            stream: "alpha".into(),
            frame: FrameMode::Json,
            from: Some(CatchUp::Earliest),
        })
        .expect("subscribe ack");
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)));
    let mut caught_up: Vec<String> = Vec::new();
    for _ in 0..expected.len() {
        let line = late
            .next_line()
            .expect("catch-up read")
            .expect("catch-up event before EOF");
        caught_up.push(line.to_string());
    }
    assert_eq!(caught_up, expected, "catch-up diverged from in-process");

    // window:200 trims the replay to positions >= 200.
    let mut tail = Client::connect(addr).expect("tail connect");
    tail.request(&Request::Subscribe {
        stream: "alpha".into(),
        frame: FrameMode::Json,
        from: Some(CatchUp::Window(200)),
    })
    .expect("tail subscribe ack");
    let line = tail
        .next_line()
        .expect("tail read")
        .expect("one catch-up event");
    assert_eq!(line.to_string(), expected[8]);

    // Binary framing: the converted events are string-identical.
    let mut bin = Client::connect(addr).expect("binary connect");
    bin.request(&Request::Subscribe {
        stream: "alpha".into(),
        frame: FrameMode::Binary,
        from: Some(CatchUp::Earliest),
    })
    .expect("binary subscribe ack");
    for want in &expected {
        let event = bin
            .next_event()
            .expect("binary catch-up read")
            .expect("binary catch-up event");
        assert_eq!(&event.to_string(), want);
    }

    // Drain: each subscriber then rides the live wire — the flush
    // publication at 205 (a delta under snapshot_every = 4) and `closed`.
    ingest.request(&Request::Shutdown).expect("shutdown reply");
    for sub in [&mut late, &mut tail, &mut bin] {
        let delta = sub
            .next_event()
            .expect("drain read")
            .expect("flush delta before close");
        assert_eq!(
            delta.get("event").and_then(Json::as_str),
            Some("release_delta"),
            "got {delta}"
        );
        assert_eq!(delta.get("stream_len").and_then(Json::as_u64), Some(205));
        let closed = sub.next_event().expect("close read").expect("closed event");
        assert_eq!(closed.get("event").and_then(Json::as_str), Some("closed"));
    }
    server.join();
    std::fs::remove_dir_all(&wal_dir).expect("wal dir cleanup");
}

/// `from` without `--wal-dir` is refused outright — there is no log to
/// serve history from, and silently downgrading to live-only would hand
/// the subscriber a gap it cannot detect.
#[test]
fn catchup_subscribe_without_a_wal_is_refused() {
    use butterfly_repro::serve::protocol::CatchUp;

    let server = Server::bind("127.0.0.1:0", feasible_cfg()).expect("bind");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    let reply = c
        .request(&Request::Subscribe {
            stream: "alpha".into(),
            frame: FrameMode::Json,
            from: Some(CatchUp::Earliest),
        })
        .expect("subscribe reply");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
    let err = reply
        .get("error")
        .and_then(Json::as_str)
        .expect("error text");
    assert!(err.contains("--wal-dir"), "got {err}");
    // The connection survives and was NOT registered as a subscriber: a
    // live subscribe afterwards works from a clean slate.
    let ack = c
        .request(&Request::Subscribe {
            stream: "alpha".into(),
            frame: FrameMode::Json,
            from: None,
        })
        .expect("plain subscribe");
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)));
    server.join();
}

/// The `stats` schema is a contract with whoever scrapes it: every key path
/// of a node's reply — envelope, shard row, `reactor`, `wal` — against
/// `tests/golden/stats_keys.txt`, so a renamed or dropped counter fails
/// here and a new one is a line of diff in the golden.
#[test]
fn stats_reply_carries_exactly_the_golden_keys() {
    use butterfly_repro::serve::WalConfig;

    fn key_paths(value: &Json, at: &str, out: &mut Vec<String>) {
        match value {
            Json::Obj(fields) => {
                for (key, value) in fields {
                    let dot = if at.is_empty() { "" } else { "." };
                    key_paths(value, &format!("{at}{dot}{key}"), out);
                }
            }
            Json::Arr(items) => {
                for value in items {
                    key_paths(value, &format!("{at}[]"), out);
                }
            }
            _ => out.push(at.to_string()),
        }
    }

    let wal_dir = std::env::temp_dir().join(format!("bfly-serve-stats-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let cfg = ServeConfig {
        shards: 1,
        wal: Some(WalConfig::new(&wal_dir)),
        ..feasible_cfg()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let stats = client.request(&Request::Stats).expect("stats");
    let mut paths = Vec::new();
    key_paths(&stats, "", &mut paths);
    paths.sort();
    assert_eq!(
        paths.join("\n") + "\n",
        include_str!("golden/stats_keys.txt"),
        "stats schema moved: {stats}"
    );
    server.join();
    std::fs::remove_dir_all(&wal_dir).expect("wal dir cleanup");
}
