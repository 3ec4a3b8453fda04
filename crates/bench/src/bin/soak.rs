//! Soak test: long randomized differential runs of the incremental Moment
//! miner against an Eclat re-mine of the window, with contract audits on every
//! published window — the CI tool that guards the reproduction's two
//! load-bearing correctness claims (exact incremental mining; contract-
//! compliant perturbation) far beyond unit-test scale. Moment is fed by tid
//! and settled at each checkpoint, as a shard settles it at a publication,
//! the checkpoints alternately 97 and 151 slides apart (`--quick`) or 83 and
//! 211. A settle walks its queue unless the queue holds a whole window
//! (2 · interval ≥ W), when it rebuilds the tree. Every shape walks at the
//! short interval; the w=300 shapes rebuild at the long one (the two sum to
//! less than 300, so the turnover re-rank cannot empty the queue first) and
//! the w=1200 shapes never rebuild at a settle. A shape whose settles take
//! other paths than those fails the run, and the run prints each count.
//!
//! Exits non-zero on the first divergence. Run:
//! `cargo run --release -p bfly-bench --bin soak [-- --quick]`

use bfly_bench::quick_mode;
use bfly_common::SlidingWindow;
use bfly_core::{audit_release, BiasScheme, PrivacySpec, Publisher};
use bfly_datagen::{DatasetProfile, MarkovConfig, MarkovSessionGenerator};
use bfly_mining::closed::closed_subset;
use bfly_mining::{Eclat, MinerBackend, MomentMiner};
use std::process::ExitCode;

fn main() -> ExitCode {
    // Moment re-derives its item order at least once per window turnover,
    // so even the quick run takes the widest window below through six.
    let (steps, intervals) = if quick_mode() {
        (7_200, [97, 151])
    } else {
        (20_000, [83, 211])
    };
    let mut failures = 0usize;

    // Configuration matrix: two stream models × two (window, C) shapes.
    for name in ["quest-webview1", "markov-sessions"] {
        for (window_size, c, k) in [(300usize, 8u64, 2u64), (1200, 20, 5)] {
            let label = format!("{name} w={window_size} C={c}");
            eprintln!("[soak] {label}: {steps} slides, checking every {intervals:?} ...");
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
            let mut stream = stream_by_name(name, window_size);
            let (mut due, mut walks, mut rebuilds) = (intervals[0], 0usize, 0usize);
            let failed = failures;
            for step in 1..=steps {
                let t = stream.next().expect("infinite stream");
                let delta = window.slide(t);
                // Moment as the pipeline drives it: by tid, its tree settled
                // only at a checkpoint, so each one settles a whole interval.
                if let Some(evicted) = &delta.evicted {
                    moment.remove(evicted.tid());
                }
                moment.insert(delta.added.tid(), delta.added.items().items());
                due -= 1;
                if due > 0 {
                    continue;
                }
                let before = moment.rebuilds();
                moment.settle();
                if moment.rebuilds() == before {
                    walks += 1;
                } else {
                    rebuilds += 1;
                }
                due = intervals[(walks + rebuilds) % 2];
                let mined = moment.closed_frequent();
                if mined != closed_subset(&Eclat::new(c).mine(&window.database())) {
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
            if failures > failed {
                continue;
            }
            eprintln!(
                "[soak] {label}: ok ({} checkpoints: {walks} walked, {rebuilds} rebuilt)",
                walks + rebuilds
            );
            let rebuilds_due = window_size <= 2 * intervals[1];
            if walks == 0 || (rebuilds > 0) != rebuilds_due {
                eprintln!(
                    "[soak] FAIL {label}: settles should walk{} rebuild",
                    if rebuilds_due { " and" } else { " and never" }
                );
                failures += 1;
            }
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
