//! Integration tests for the `butterfly` CLI binary.

use butterfly_repro::butterfly::{seeded_noise, BiasScheme, PrivacySpec, Publisher};
use butterfly_repro::butterfly::{NoiseRegion, StreamPipeline};
use butterfly_repro::common::{io as dat, Json};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_butterfly"))
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("bfly_cli_tests");
    std::fs::create_dir_all(&dir).expect("tempdir");
    dir.join(name)
}

#[test]
fn gen_mine_attack_protect_round_trip() {
    let dat = temp_path("roundtrip.dat");
    let status = bin()
        .args([
            "gen",
            "--profile",
            "webview1",
            "--count",
            "1500",
            "--seed",
            "7",
            "--out",
        ])
        .arg(&dat)
        .status()
        .expect("run gen");
    assert!(status.success());
    assert!(dat.exists());

    let mine = bin()
        .args(["mine", "--min-support", "40", "--closed", "--input"])
        .arg(&dat)
        .output()
        .expect("run mine");
    assert!(mine.status.success());
    let listing = String::from_utf8(mine.stdout).unwrap();
    assert!(listing.lines().count() > 3, "mine produced: {listing}");
    // Every line is "<itemset> (<support>)" with support ≥ C.
    for line in listing.lines() {
        let support: u64 = line
            .rsplit_once('(')
            .and_then(|(_, s)| s.trim_end_matches(')').parse().ok())
            .unwrap_or_else(|| panic!("malformed line {line:?}"));
        assert!(support >= 40);
    }

    let attack = bin()
        .args([
            "attack",
            "--window",
            "1000",
            "--min-support",
            "20",
            "--vulnerable",
            "4",
            "--input",
        ])
        .arg(&dat)
        .output()
        .expect("run attack");
    assert!(attack.status.success());
    let report = String::from_utf8(attack.stdout).unwrap();
    assert!(report.contains("inferable vulnerable patterns"));

    let out = temp_path("releases.jsonl");
    let protect = bin()
        .args([
            "protect",
            "--window",
            "1000",
            "--min-support",
            "20",
            "--vulnerable",
            "4",
            "--epsilon",
            "0.02",
            "--delta",
            "0.5",
            "--scheme",
            "ratio",
            "--every",
            "250",
        ])
        .arg("--input")
        .arg(&dat)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run protect");
    let summary = String::from_utf8_lossy(&protect.stderr);
    assert!(protect.status.success(), "stderr: {summary}");
    let jsonl = std::fs::read_to_string(&out).unwrap();
    let lines: Vec<&str> = jsonl.lines().collect();
    // 1500 records, W 1000, every 250: windows end at 1000, 1250, 1500.
    assert_eq!(lines.len(), 3);
    assert!(
        summary.contains("published 3 sanitized windows"),
        "{summary}"
    );
    for line in &lines {
        let v = butterfly_repro::common::Json::parse(line).expect("valid JSON");
        assert!(v.get("stream_len").and_then(|s| s.as_u64()).unwrap() >= 1000);
        let itemsets = v.get("itemsets").and_then(|i| i.as_array()).unwrap();
        assert!(!itemsets.is_empty());
        for entry in itemsets {
            assert!(!entry
                .get("itemset")
                .and_then(|i| i.as_array())
                .unwrap()
                .is_empty());
            entry
                .get("support")
                .and_then(|s| s.as_i64())
                .expect("sanitized support is an integer");
        }
    }

    std::fs::remove_file(dat).ok();
    std::fs::remove_file(out).ok();
}

/// `gen` a small WebView1 stream for the `protect` tests below.
fn gen_stream(name: &str, count: &str, seed: &str) -> PathBuf {
    let dat = temp_path(name);
    let status = bin()
        .args([
            "gen",
            "--profile",
            "webview1",
            "--count",
            count,
            "--seed",
            seed,
        ])
        .arg("--out")
        .arg(&dat)
        .status()
        .expect("run gen");
    assert!(status.success());
    dat
}

/// One `protect` line as literal bytes: its `itemsets` go through the
/// serve layer's entries writer, which no other test pins from the CLI.
/// The supports are the draws under `--seed 1` with the noise keyed on the
/// publication index.
#[test]
fn protect_line_is_byte_pinned() {
    let dat = gen_stream("pinned.dat", "300", "5");
    let protect = bin()
        .args([
            "protect",
            "--window",
            "200",
            "--min-support",
            "40",
            "--vulnerable",
            "3",
            "--epsilon",
            "0.05",
            "--delta",
            "0.4",
            "--every",
            "100",
            "--seed",
            "1",
            "--input",
        ])
        .arg(&dat)
        .output()
        .expect("run protect");
    assert!(
        protect.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&protect.stderr)
    );
    let stdout = String::from_utf8(protect.stdout).unwrap();
    assert_eq!(
        stdout.lines().next(),
        Some(
            "{\"itemsets\":[{\"itemset\":[0,53],\"support\":46},\
             {\"itemset\":[0,24],\"support\":46},{\"itemset\":[24],\"support\":51},\
             {\"itemset\":[53],\"support\":51},{\"itemset\":[0],\"support\":149}],\
             \"stream_len\":200}"
        )
    );
    std::fs::remove_file(dat).ok();
}

#[test]
fn protect_and_serve_reject_unrunnable_contracts_and_schemes() {
    // Each must exit 1 with `error: …` naming the bound it broke — never a
    // panic (exit 101) in `protect`, never a bound listener whose shard
    // workers die at their first full window in `serve`.
    let dat = gen_stream("reject.dat", "300", "5");
    let cases: &[(&[&str], &[&str])] = &[
        // ε·C² = 0.0064 < realized σ²: no noise region fits the contract.
        (
            &["--epsilon", "0.0001", "--delta", "0.9"],
            &["infeasible", "raise ε/δ"],
        ),
        (
            &["--scheme", "hybrid", "--lambda", "2"],
            &["λ must be in [0,1]", "2"],
        ),
        (
            &["--scheme", "hybrid", "--lambda", "-0.1"],
            &["λ must be in [0,1]"],
        ),
        (
            &["--scheme", "hybrid", "--lambda", "NaN"],
            &["λ must be in [0,1]"],
        ),
        (
            &["--scheme", "order", "--gamma", "40"],
            &["γ must be at most 6", "40"],
        ),
        (
            &["--scheme", "hybrid", "--gamma", "7"],
            &["γ must be at most 6", "7"],
        ),
    ];
    // A feasible contract first; a case's own flags come later and win.
    let feasible = "--min-support 8 --vulnerable 3 --epsilon 0.05 --delta 0.4";
    for (args, wants) in cases {
        let mut protect = bin();
        protect
            .args(["protect", "--window", "200", "--input"])
            .arg(&dat);
        let mut serve = bin();
        serve.args(["serve", "--addr", "127.0.0.1:0"]);
        for (name, cmd) in [("protect", &mut protect), ("serve", &mut serve)] {
            let out = cmd
                .args(feasible.split(' '))
                .args(*args)
                .output()
                .expect("run with bad contract");
            let err = String::from_utf8(out.stderr).unwrap();
            assert_eq!(out.status.code(), Some(1), "{name} {args:?}: {err}");
            assert!(err.starts_with("error: "), "{name} {args:?}: {err}");
            for want in *wants {
                assert!(
                    err.contains(want),
                    "{name} {args:?}: {err:?} missing {want:?}"
                );
            }
        }
    }
    std::fs::remove_file(dat).ok();
}

#[test]
fn bad_flags_fail_cleanly() {
    let out = bin().args(["mine"]).output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--input"), "unhelpful error: {err}");

    let out = bin().args(["frobnicate"]).output().expect("run");
    assert!(!out.status.success());

    let out = bin().output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("USAGE"));
}

#[test]
fn unknown_flags_rejected_with_valid_set() {
    // A typo must be an error naming the valid flags, never silently
    // ignored (a silently dropped --scheme would publish under the default).
    let out = bin()
        .args([
            "protect", "--input", "x.dat", "--window", "10", "--schme", "basic",
        ])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown flag --schme"), "got: {err}");
    assert!(err.contains("--scheme"), "should list valid flags: {err}");
    assert!(!err.contains("--threads"), "no command takes it: {err}");

    // The release engine has one path and the release path no thread pool;
    // the flags that used to pick them are gone.
    for (flag, value) in [("--incremental", None), ("--threads", Some("2"))] {
        let out = bin()
            .args(["protect", "--input", "x.dat", flag])
            .args(value)
            .output()
            .expect("run");
        assert!(!out.status.success());
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(&format!("unknown flag {flag}")), "got: {err}");
        assert!(err.contains("--scheme"), "should list valid flags: {err}");
    }

    // The pipeline mines with Moment only; `--backend` is gone from both
    // commands that built one, and serve refuses it before binding a port.
    let port_file = std::env::temp_dir().join(format!("bfly-cli-backend-{}", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    for cmd in ["protect", "serve"] {
        let mut run = bin();
        run.args([cmd, "--backend", "moment"]);
        if cmd == "serve" {
            run.args(["--addr", "127.0.0.1:0", "--port-file"])
                .arg(&port_file);
        }
        let out = run.output().expect("run");
        assert_eq!(out.status.code(), Some(1), "{cmd}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("unknown flag --backend"), "{cmd}: {err}");
        assert!(
            err.contains("--scheme"),
            "{cmd} should list valid flags: {err}"
        );
    }
    assert!(!port_file.exists(), "serve bound before refusing --backend");

    // `mine` mines with Eclat, the one batch miner: there is no `--miner`.
    let out = bin()
        .args(["mine", "--input", "x.dat", "--miner", "eclat"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown flag --miner"), "got: {err}");
    assert!(err.contains("--closed"), "should list valid flags: {err}");

    // Flags valid for one command are still rejected on another.
    let out = bin()
        .args(["gen", "--profile", "pos", "--count", "5", "--window", "10"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown flag --window"), "got: {err}");
}

#[test]
fn serve_federation_flags_rejected_with_valid_sets() {
    // Each malformed serve flag must die at startup with a message naming
    // the valid set — never a silently misconfigured cluster.
    let cases: &[(&[&str], &[&str])] = &[
        // --wal-sync edges (requires --wal-dir; interval must be a positive int).
        (
            &["--wal-sync", "always"],
            &["--wal-sync requires --wal-dir"],
        ),
        (
            &["--wal-dir", "/tmp/w", "--wal-sync", "interval:0"],
            &["interval", "positive"],
        ),
        (
            &["--wal-dir", "/tmp/w", "--wal-sync", "interval:x"],
            &["interval", "positive integer"],
        ),
        (
            &["--wal-dir", "/tmp/w", "--wal-sync", "sometimes"],
            &["always", "interval:<n>", "never"],
        ),
        // --role edges.
        (&["--role", "proxy"], &["node", "router"]),
        (&["--role", "router"], &["--nodes"]),
        // --nodes edges: empty entry, unparsable, duplicate, node role.
        (
            &[
                "--role",
                "router",
                "--nodes",
                "127.0.0.1:7001,,127.0.0.1:7002",
            ],
            &["empty entry", "ip:port"],
        ),
        (
            &["--role", "router", "--nodes", "not-an-addr"],
            &["bad node address", "ip:port"],
        ),
        (
            &[
                "--role",
                "router",
                "--nodes",
                "127.0.0.1:7001,127.0.0.1:7001",
            ],
            &["duplicate node address"],
        ),
        (
            &["--nodes", "127.0.0.1:7001"],
            &["--nodes requires --role router"],
        ),
        // Conflicting --role/--wal-dir: the router is stateless.
        (
            &[
                "--role",
                "router",
                "--nodes",
                "127.0.0.1:7001",
                "--wal-dir",
                "/tmp/w",
            ],
            &["--wal-dir", "stateless"],
        ),
        // --io is a no-op, but still only for the names it once took.
        (
            &[
                "--role",
                "router",
                "--nodes",
                "127.0.0.1:7001",
                "--io",
                "uring",
            ],
            &["unknown io mode", "blocking", "reactor"],
        ),
    ];
    for (args, wants) in cases {
        let out = bin()
            .arg("serve")
            .args(*args)
            .output()
            .expect("run serve with bad flags");
        assert!(!out.status.success(), "serve {args:?} should fail");
        let err = String::from_utf8(out.stderr).unwrap();
        for want in *wants {
            assert!(
                err.contains(want),
                "serve {args:?}: {err:?} missing {want:?}"
            );
        }
    }
}

#[test]
fn deterministic_generation() {
    let a = temp_path("det_a.dat");
    let b = temp_path("det_b.dat");
    for path in [&a, &b] {
        let status = bin()
            .args([
                "gen",
                "--profile",
                "pos",
                "--count",
                "300",
                "--seed",
                "9",
                "--out",
            ])
            .arg(path)
            .status()
            .expect("run gen");
        assert!(status.success());
    }
    assert_eq!(
        std::fs::read(&a).unwrap(),
        std::fs::read(&b).unwrap(),
        "same seed must give identical corpora"
    );
    std::fs::remove_file(a).ok();
    std::fs::remove_file(b).ok();
}

/// The decode contract: WebView1 at W 2000, C 25, K 5, ε 0.016, δ 0.4,
/// `basic`, every 100 (α 7).
const DECODE_ARGS: [&str; 16] = [
    "protect",
    "--window",
    "2000",
    "--min-support",
    "25",
    "--vulnerable",
    "5",
    "--epsilon",
    "0.016",
    "--delta",
    "0.4",
    "--scheme",
    "basic",
    "--every",
    "100",
    "--input",
];

/// Run `protect` under [`DECODE_ARGS`] on `dat`, plus `extra`.
fn protect(dat: &Path, extra: &[&str]) -> Output {
    let out = bin()
        .args(DECODE_ARGS)
        .arg(dat)
        .args(extra)
        .output()
        .expect("run protect");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// One published line: each itemset's item ids and its published value.
fn published_line(line: &str) -> HashMap<Vec<u64>, i64> {
    let json = Json::parse(line).expect("a JSON line");
    let entries = json.get("itemsets").and_then(Json::as_array).unwrap();
    entries
        .iter()
        .map(|e| {
            let ids = e.get("itemset").and_then(Json::as_array).unwrap();
            let ids = ids.iter().map(|i| i.as_u64().unwrap()).collect();
            (ids, e.get("support").and_then(Json::as_i64).unwrap())
        })
        .collect()
}

/// The seed `protect`'s stderr summary names.
fn summary_seed(out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let tail = stderr
        .split(", seed ")
        .nth(1)
        .expect("the summary names a seed");
    tail.split(')').next().unwrap().to_string()
}

/// The adversary who knows the noise rule and holds seed 0: for each entry
/// fresh in its line (absent from the previous line, or with a new value
/// there) published at `s`, it keeps the supports `t` of the α-region with
/// `t + noise(0, line index, t) = s`. Against `protect --seed 0` it decodes
/// a large share of entries exactly; against the default run, whose secret
/// it does not hold, about what guessing gives.
#[test]
fn a_known_seed_decodes_the_seeded_run_and_not_the_default_one() {
    let dat = gen_stream("decode.dat", "4000", "11");
    // The true supports: the library's pipeline over the same stream.
    let spec = PrivacySpec::new(25, 5, 0.016, 0.4);
    let alpha = spec.alpha();
    let mut pipe = StreamPipeline::new(2000, Box::new(Publisher::new(spec, BiasScheme::Basic, 0)));
    let mut truth: Vec<HashMap<Vec<u64>, i64>> = Vec::new();
    for record in dat::load_dat(&dat).unwrap().records() {
        pipe.advance(record.clone());
        if pipe.due(100) {
            let r = pipe.publish_now().unwrap();
            let ids = |e: &butterfly_repro::butterfly::SanitizedItemset| {
                e.itemset().items().iter().map(|i| i.id() as u64).collect()
            };
            truth.push(
                r.release
                    .iter()
                    .map(|e| (ids(e), e.true_support as i64))
                    .collect(),
            );
        }
    }
    let region = NoiseRegion::centered(0.0, alpha);
    let decoded = |out: &Output| {
        let lines: Vec<_> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(published_line)
            .collect();
        assert_eq!(lines.len(), truth.len());
        let (mut fresh, mut exact) = (0u32, 0u32);
        for (i, line) in lines.iter().enumerate() {
            for (ids, &s) in line {
                if i > 0 && lines[i - 1].get(ids) == Some(&s) {
                    continue;
                }
                fresh += 1;
                let candidates: Vec<i64> = (s - region.hi()..=s - region.lo())
                    .filter(|&t| t + seeded_noise(0, i as u64, t as u64, 0.0, alpha) == s)
                    .collect();
                exact += u32::from(candidates == [truth[i][ids]]);
            }
        }
        assert!(fresh > 500, "{fresh} fresh entries");
        f64::from(exact) / f64::from(fresh)
    };
    let known = decoded(&protect(&dat, &["--seed", "0"]));
    assert!(known >= 0.30, "seed 0 decoded {known:.3} of fresh entries");
    let secret = decoded(&protect(&dat, &[]));
    assert!(secret <= 0.10, "the default run decoded {secret:.3}");
    std::fs::remove_file(dat).ok();
}

/// Without `--seed`, each `protect` run draws its own secret: two runs
/// differ, each names its seed on stderr only, `--seed <S>` reproduces a
/// run byte for byte, and the usage says so.
#[test]
fn protect_without_a_seed_draws_a_secret_only_its_summary_names() {
    let dat = gen_stream("secret.dat", "2300", "11");
    let (a, b, again) = (
        temp_path("a.jsonl"),
        temp_path("b.jsonl"),
        temp_path("c.jsonl"),
    );
    let run_a = protect(&dat, &["--out", a.to_str().unwrap()]);
    let run_b = protect(&dat, &["--out", b.to_str().unwrap()]);
    let seed = summary_seed(&run_a);
    assert_ne!(seed, summary_seed(&run_b));
    let (out_a, out_b) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    assert_ne!(
        out_a, out_b,
        "two runs without --seed published the same noise"
    );
    assert!(run_a.stdout.is_empty());
    assert!(!String::from_utf8(out_a.clone()).unwrap().contains(&seed));
    let to_stdout = protect(&dat, &[]);
    let stdout = String::from_utf8(to_stdout.stdout.clone()).unwrap();
    assert!(!stdout.contains(&summary_seed(&to_stdout)));

    protect(&dat, &["--seed", &seed, "--out", again.to_str().unwrap()]);
    assert_eq!(
        std::fs::read(&again).unwrap(),
        out_a,
        "--seed {seed} did not reproduce"
    );
    for f in [dat, a, b, again] {
        std::fs::remove_file(f).ok();
    }

    let help = bin().arg("help").output().expect("run help");
    let usage = String::from_utf8(help.stdout).unwrap();
    let usage = usage.split_whitespace().collect::<Vec<_>>().join(" ");
    assert!(usage.contains("`serve` node draw a fresh one from /dev/urandom"));
    assert!(usage.contains("`serve --wal-dir` stores it once in the log directory"));
}
