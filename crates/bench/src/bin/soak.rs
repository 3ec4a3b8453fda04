//! Soak test: long randomized differential runs of the incremental Moment
//! miner against the re-mine oracle, with contract audits on every
//! published window — the CI tool that guards the reproduction's two
//! load-bearing correctness claims (exact incremental mining; contract-
//! compliant perturbation) far beyond unit-test scale. Moment is fed by tid
//! and settled at each checkpoint, as a shard settles it at a publication:
//! intervals of 97 slides (`--quick`) or 211.
//!
//! Exits non-zero on the first divergence. Run:
//! `cargo run --release -p bfly-bench --bin soak [-- --quick]`

use bfly_bench::quick_mode;
use bfly_common::SlidingWindow;
use bfly_core::{audit_release, BiasScheme, PrivacySpec, Publisher};
use bfly_datagen::{DatasetProfile, MarkovConfig, MarkovSessionGenerator};
use bfly_mining::{MinerBackend, MomentMiner, RescanMiner};
use std::process::ExitCode;

fn main() -> ExitCode {
    // Moment re-derives its item order once per window turnover, so even
    // the quick run takes the widest window below through six of them.
    let (steps, check_every) = if quick_mode() {
        (7_200, 97)
    } else {
        (20_000, 211)
    };
    let mut failures = 0usize;

    // Configuration matrix: two stream models × two (window, C) shapes.
    for name in ["quest-webview1", "markov-sessions"] {
        for (window_size, c, k) in [(300usize, 8u64, 2u64), (1200, 20, 5)] {
            let label = format!("{name} w={window_size} C={c}");
            eprintln!("[soak] {label}: {steps} slides, checking every {check_every} ...");
            let spec = PrivacySpec::new(c, k, 0.1, 0.5);
            let mut publisher = Publisher::new(
                spec,
                BiasScheme::Hybrid {
                    lambda: 0.4,
                    gamma: 2,
                },
                7,
            );
            let mut window = SlidingWindow::new(window_size);
            let mut moment = MomentMiner::new(c);
            let mut oracle = RescanMiner::new(c);
            let mut stream = stream_by_name(name, window_size);
            let mut checks = 0usize;
            for step in 0..steps {
                let t = stream.next().expect("infinite stream");
                let delta = window.slide(t);
                // Moment as the pipeline drives it: by tid, its tree settled
                // only at a checkpoint, so each one settles a whole interval.
                if let Some(evicted) = &delta.evicted {
                    moment.remove(evicted.tid());
                }
                moment.insert(delta.added.tid(), delta.added.items().items());
                oracle.apply(&delta);
                if step % check_every != 0 {
                    continue;
                }
                checks += 1;
                moment.settle();
                let mined = moment.closed_frequent();
                if mined != oracle.closed_frequent() {
                    eprintln!("[soak] FAIL {label}: miner divergence at step {step}");
                    failures += 1;
                    break;
                }
                let release = publisher.publish(&mined);
                let audit = audit_release(&spec, &release);
                if !audit.is_empty() {
                    eprintln!(
                        "[soak] FAIL {label}: contract violation at step {step}: {:?}",
                        audit[0]
                    );
                    failures += 1;
                    break;
                }
            }
            eprintln!("[soak] {label}: ok ({checks} checkpoints)");
        }
    }
    if failures == 0 {
        println!("soak passed");
        ExitCode::SUCCESS
    } else {
        println!("soak FAILED: {failures} configuration(s) diverged");
        ExitCode::FAILURE
    }
}

/// Fresh stream per configuration so runs are independent and seeded.
fn stream_by_name(name: &str, salt: usize) -> Box<dyn Iterator<Item = bfly_common::Transaction>> {
    match name {
        "quest-webview1" => Box::new(DatasetProfile::WebView1.source(12345 + salt as u64)),
        "markov-sessions" => Box::new(MarkovSessionGenerator::new(
            MarkovConfig::default(),
            999 + salt as u64,
        )),
        other => unreachable!("unknown stream {other}"),
    }
}
