//! Integration tests for the pluggable defense layer at the CLI boundary:
//! every registered defense is seed-reproducible end to end, the defenses
//! genuinely differ on the same stream, `serve --defense` publishes the
//! in-process oracle's bytes and drains cleanly, and unknown names are
//! rejected up front with the registry's valid-name list (protect and serve
//! alike).

use bfly_bench::harness::{
    self, records, serve_args, served_lines, subscribe, until_closed, Served,
};
use butterfly_repro::butterfly::{DefenseKind, DefenseSpec};
use butterfly_repro::common::Json;
use butterfly_repro::datagen::DatasetProfile;
use butterfly_repro::serve::{Client, FrameMode, Request, ServeConfig};
use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

const BIN: &str = env!("CARGO_BIN_EXE_butterfly");

fn bin() -> Command {
    Command::new(BIN)
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

/// The contract `serve --defense <kind>` runs in
/// [`serve_publishes_each_defense_byte_identically_and_drains`], and its
/// in-process oracle's: the rest is `ServeConfig::default()`, seed 0.
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
    let records = records(DatasetProfile::WebView1, 7, 610);
    for kind in DefenseKind::ALL {
        let name = kind.name();
        let cfg = serve_contract(kind);
        let expected = served_lines(&mut cfg.pipeline_for("smoke"), "smoke", &records, cfg.every);
        assert_eq!(expected.len(), 12, "{name}: 11 on cadence plus the drain");

        let port_file = temp_path(&format!("{name}.port"));
        let server = Served::spawn(BIN, &port_file, &serve_args(&cfg));
        let mut subscriber = subscribe(server.addr, "smoke", FrameMode::Json, None);
        let mut ingest = Client::connect(server.addr).expect("ingest connect");
        for chunk in records.chunks(61) {
            let reply = harness::ingest(&mut ingest, "smoke", chunk);
            assert_eq!(
                reply.get("accepted").and_then(Json::as_u64),
                Some(chunk.len() as u64),
                "{name}: nothing may be shed: {reply}"
            );
        }
        let reply = ingest.request(&Request::Shutdown).expect("shutdown reply");
        assert_eq!(reply.get("draining"), Some(&Json::Bool(true)), "{name}");

        let received = until_closed(&mut subscriber, "smoke");
        assert_eq!(received, expected, "serve --defense {name} diverged");
        server.join();
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
