//! Figure 8: running-time overhead of the Butterfly stages on top of the
//! mining algorithm, as minimum support C drops 30 → 10 (window 5000, both
//! datasets). Splits per-window time into: the mining algorithm (Moment
//! maintenance + result extraction), the basic perturbation, and the
//! optimization (bias-setting DP / proportional scaling) stage.
//!
//! Expected shape: basic perturbation is negligible at every C; the Opt
//! stage's cost tracks the *number of FECs*, which grows far slower than the
//! mining cost as C decreases; mining dominates and grows super-linearly.
//!
//! Run: `cargo run --release -p bfly-bench --bin fig8` (`--quick` to smoke).

use bfly_bench::{quick_mode, write_csv, Table};
use bfly_common::SlidingWindow;
use bfly_core::{BiasScheme, PrivacySpec, Publisher};
use bfly_datagen::DatasetProfile;
use bfly_mining::{MinerBackend, MomentMiner};
use std::time::{Duration, Instant};

fn main() {
    let (window_size, slides) = if quick_mode() { (800, 60) } else { (5000, 300) };
    let supports: &[u64] = if quick_mode() {
        &[20, 15, 10]
    } else {
        &[30, 25, 20, 15, 10]
    };
    const K: u64 = 5;

    for profile in DatasetProfile::all() {
        let mut table = Table::new(
            &format!(
                "Fig 8 per-window running time (ms) — {} (window {window_size})",
                profile.name()
            ),
            &["C", "mining_ms", "basic_ms", "opt_ms", "itemsets", "fecs"],
        );
        for &c in supports {
            // Timing is contract-insensitive, but the contract must stay
            // feasible as C shrinks: keep ε comfortably above the minimum
            // ppr K²/(2C²) at δ = 1.
            let k = K.min(c - 1);
            let epsilon = (0.04f64).max(1.5 * (k * k) as f64 / (2.0 * (c * c) as f64));
            let spec = PrivacySpec::new(c, k, epsilon, 1.0);
            let mut source = profile.source(77);
            let mut window = SlidingWindow::new(window_size);
            let mut miner = MomentMiner::new(c);

            // Fill the window (not timed — steady-state costs are what the
            // figure reports).
            for _ in 0..window_size {
                let delta = window.slide(source.next_transaction());
                miner.apply(&delta);
            }

            let mut basic = Publisher::new(spec, BiasScheme::Basic, 1);
            let mut opt = Publisher::new(
                spec,
                BiasScheme::Hybrid {
                    lambda: 0.4,
                    gamma: 2,
                },
                2,
            );
            let mut t_mining = Duration::ZERO;
            let mut t_basic = Duration::ZERO;
            let mut t_opt = Duration::ZERO;
            let mut published = 0usize;
            let mut fecs = 0usize;
            for _ in 0..slides {
                let tx = source.next_transaction();
                let start = Instant::now();
                let delta = window.slide(tx);
                miner.apply(&delta);
                let closed = miner.closed_frequent();
                t_mining += start.elapsed();

                let start = Instant::now();
                let r = basic.publish(&closed);
                t_basic += start.elapsed();

                let start = Instant::now();
                let _ = opt.publish(&closed);
                t_opt += start.elapsed();

                published += r.len();
                fecs += bfly_core::partition_into_fecs(&closed).len();
            }
            let per = |d: Duration| d.as_secs_f64() * 1000.0 / slides as f64;
            table.row(vec![
                c.to_string(),
                format!("{:.3}", per(t_mining)),
                format!("{:.3}", per(t_basic)),
                // Opt includes the basic perturbation work; report the
                // incremental optimization cost like the paper's stacked bars.
                format!("{:.3}", (per(t_opt) - per(t_basic)).max(0.0)),
                (published / slides).to_string(),
                (fecs / slides).to_string(),
            ]);
        }
        table.print();
        write_csv(&table, &format!("fig8_overhead_{}", profile.name()));
    }
}
