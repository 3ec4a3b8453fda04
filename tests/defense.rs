//! Integration tests for the pluggable defense layer at the CLI boundary:
//! every registered defense is seed-reproducible end to end, the defenses
//! genuinely differ on the same stream, `serve --defense` publishes the
//! in-process oracle's bytes and drains cleanly, and unknown names are
//! rejected up front with the registry's valid-name list (protect and serve
//! alike).

use butterfly_repro::butterfly::{DefenseKind, DefenseSpec, SanitizedRelease};
use butterfly_repro::common::{ItemSet, Json, Transaction};
use butterfly_repro::datagen::DatasetProfile;
use butterfly_repro::serve::protocol::{closed_event, release_frame_bytes};
use butterfly_repro::serve::{Client, FrameMode, Request, ServeConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The NDJSON `release` line a subscriber reads for one publication.
fn release_line(stream: &str, stream_len: u64, release: &SanitizedRelease) -> String {
    let line = release_frame_bytes(FrameMode::Json, stream, stream_len, release);
    String::from_utf8(line.to_vec())
        .unwrap()
        .trim_end()
        .to_string()
}

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_butterfly"))
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("bfly_defense_tests");
    std::fs::create_dir_all(&dir).expect("tempdir");
    dir.join(name)
}

/// Generate the shared input stream once per test process.
fn stream() -> &'static PathBuf {
    static STREAM: OnceLock<PathBuf> = OnceLock::new();
    STREAM.get_or_init(|| {
        let dat = temp_path("defense.dat");
        let status = bin()
            .args([
                "gen",
                "--profile",
                "webview1",
                "--count",
                "600",
                "--seed",
                "7",
                "--out",
            ])
            .arg(&dat)
            .status()
            .expect("run gen");
        assert!(status.success());
        dat
    })
}

/// Run `protect --defense <name>` over the shared stream into `out`.
fn protect(defense: &str, out: &PathBuf) -> std::process::Output {
    bin()
        .args([
            "protect",
            "--window",
            "200",
            "--min-support",
            "8",
            "--vulnerable",
            "3",
            "--epsilon",
            "0.05",
            "--delta",
            "0.5",
            "--every",
            "40",
            "--seed",
            "11",
            "--defense",
            defense,
            "--input",
        ])
        .arg(stream())
        .arg("--out")
        .arg(out)
        .output()
        .expect("run protect")
}

#[test]
fn every_defense_is_seed_reproducible_and_they_differ_pairwise() {
    let mut outputs: Vec<(String, String)> = Vec::new();
    for defense in ["butterfly", "privbasis", "suppress"] {
        let a = temp_path(&format!("{defense}.a.jsonl"));
        let b = temp_path(&format!("{defense}.b.jsonl"));
        for out in [&a, &b] {
            let run = protect(defense, out);
            assert!(
                run.status.success(),
                "protect --defense {defense} failed: {}",
                String::from_utf8_lossy(&run.stderr)
            );
        }
        let bytes_a = std::fs::read_to_string(&a).expect("read run a");
        let bytes_b = std::fs::read_to_string(&b).expect("read run b");
        assert!(!bytes_a.is_empty(), "{defense} published nothing");
        assert_eq!(
            bytes_a, bytes_b,
            "--defense {defense} must be byte-reproducible at a fixed seed"
        );
        outputs.push((defense.to_string(), bytes_a));
    }
    for i in 0..outputs.len() {
        for j in i + 1..outputs.len() {
            assert_ne!(
                outputs[i].1, outputs[j].1,
                "defenses {} and {} produced identical releases",
                outputs[i].0, outputs[j].0
            );
        }
    }
}

/// Kills the child on drop so a failing assertion never leaks a server.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start `butterfly serve --defense <defense>` on an ephemeral port under
/// the contract and seed of [`serve_contract`], and block until the `--port-file`
/// handshake delivers the bound address.
fn spawn_serve(defense: &str, port_file: &Path) -> (Reaper, SocketAddr) {
    let _ = std::fs::remove_file(port_file);
    let child = bin()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--window",
            "200",
            "--min-support",
            "8",
            "--vulnerable",
            "3",
            "--epsilon",
            "0.05",
            "--every",
            "40",
            "--seed",
            "0",
            "--defense",
            defense,
            "--port-file",
        ])
        .arg(port_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn butterfly serve");
    let mut child = Reaper(child);
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        // The port file is written by rename, so any visible file holds
        // the complete address line.
        if let Ok(addr) = std::fs::read_to_string(port_file)
            .unwrap_or_default()
            .trim()
            .parse::<SocketAddr>()
        {
            return (child, addr);
        }
        assert!(Instant::now() < deadline, "serve never wrote its port file");
        if let Ok(Some(status)) = child.0.try_wait() {
            panic!("serve --defense {defense} exited before binding: {status}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The in-process twin of [`spawn_serve`]'s flags: everything not on its
/// command line is the CLI's default, which is `ServeConfig::default()`.
fn serve_contract(kind: DefenseKind) -> ServeConfig {
    ServeConfig {
        window: 200,
        c: 8,
        k: 3,
        epsilon: 0.05,
        every: 40,
        defense: DefenseSpec::new(kind),
        ..ServeConfig::default()
    }
}

/// `serve --defense <name>` end to end, for every registered defense: one
/// stream ingested over NDJSON reaches a live subscriber as exactly the
/// release events the in-process `pipeline_for` oracle of the same config
/// publishes (cadence releases plus the drain flush), then `closed`, and
/// the process exits 0 after the drain.
#[test]
fn serve_publishes_each_defense_byte_identically_and_drains() {
    // 610 records: full at 200, then every 40 to 600, and the drain
    // flushes the last 10.
    let records: Vec<ItemSet> = DatasetProfile::WebView1
        .source(7)
        .take_vec(610)
        .into_iter()
        .map(Transaction::into_items)
        .collect();
    for kind in DefenseKind::ALL {
        let name = kind.name();
        let cfg = serve_contract(kind);
        let mut pipe = cfg.pipeline_for("smoke");
        let mut expected: Vec<String> = Vec::new();
        for items in &records {
            pipe.advance(Transaction::new(0, items.clone()));
            if pipe.due(cfg.every) {
                let r = pipe.publish_now().expect("full window");
                expected.push(release_line("smoke", r.stream_len, &r.release));
            }
        }
        if let Some(r) = pipe.flush() {
            expected.push(release_line("smoke", r.stream_len, &r.release));
        }
        assert_eq!(expected.len(), 12, "{name}: 11 on cadence plus the drain");

        let (mut server, addr) = spawn_serve(name, &temp_path(&format!("{name}.port")));
        let mut subscriber = Client::connect(addr).expect("subscriber connect");
        let ack = subscriber
            .request(&Request::Subscribe {
                stream: "smoke".into(),
                frame: FrameMode::Json,
                from: None,
            })
            .expect("subscribe ack");
        assert_eq!(ack.get("ok"), Some(&Json::Bool(true)), "{name}: {ack}");
        let mut ingest = Client::connect(addr).expect("ingest connect");
        for chunk in records.chunks(61) {
            let reply = ingest
                .request(&Request::Ingest {
                    stream: "smoke".into(),
                    batch: chunk.to_vec(),
                })
                .expect("ingest reply");
            assert_eq!(
                reply.get("accepted").and_then(Json::as_u64),
                Some(chunk.len() as u64),
                "{name}: nothing may be shed: {reply}"
            );
        }
        let reply = ingest.request(&Request::Shutdown).expect("shutdown reply");
        assert_eq!(reply.get("draining"), Some(&Json::Bool(true)), "{name}");

        let mut received: Vec<String> = Vec::new();
        loop {
            let line = subscriber
                .next_line()
                .expect("subscriber read")
                .expect("closed event must arrive before EOF");
            if line.get("event").and_then(Json::as_str) == Some("closed") {
                assert_eq!(line.to_string(), closed_event("smoke").to_string());
                break;
            }
            received.push(line.to_string());
        }
        assert_eq!(received, expected, "serve --defense {name} diverged");
        let status = server.0.wait().expect("serve exit status");
        assert!(status.success(), "serve --defense {name} exited {status}");
    }
}

#[test]
fn protect_rejects_unknown_defense_with_the_valid_names() {
    let run = protect("rot13", &temp_path("unknown.jsonl"));
    assert!(!run.status.success(), "unknown defense must be rejected");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("unknown defense"), "got: {stderr}");
    for name in ["butterfly", "privbasis", "suppress"] {
        assert!(
            stderr.contains(name),
            "error must list valid name {name}: {stderr}"
        );
    }
}

#[test]
fn serve_rejects_unknown_defense_before_binding() {
    let run = bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--defense", "rot13"])
        .output()
        .expect("run serve");
    assert!(!run.status.success(), "unknown defense must be rejected");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("unknown defense"), "got: {stderr}");
    assert!(
        stderr.contains("privbasis"),
        "error must list valid names: {stderr}"
    );
}

#[test]
fn dp_knobs_are_validated_at_the_cli_boundary() {
    let run = bin()
        .args([
            "protect",
            "--window",
            "200",
            "--min-support",
            "8",
            "--vulnerable",
            "3",
            "--epsilon",
            "0.05",
            "--delta",
            "0.5",
            "--defense",
            "privbasis",
            "--dp-budget",
            "0",
            "--input",
        ])
        .arg(stream())
        .output()
        .expect("run protect");
    assert!(!run.status.success(), "dp-budget 0 must be rejected");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("dp-budget"), "got: {stderr}");
}
