//! Ablation experiments beyond the paper's figures, exercising the design
//! choices DESIGN.md calls out:
//!
//! 1. **Breach prevalence** — how many vulnerable patterns leak per window
//!    from *unprotected* output (the paper's §IV motivation, quantified).
//! 2. **Republication rule** — the averaging attack's error with Butterfly's
//!    pinned republication vs naive fresh-noise redrawing (Prior Knowledge 2).
//! 3. **Rule-confidence preservation** — the downstream measure motivating
//!    ratio preservation (§VI-B), per scheme.
//! 4. **Residual thresholding attack** — precision/recall of an adversary
//!    who still claims breaches from sanitized output.
//!
//! Butterfly against a differential-privacy release is BENCH_defense.json
//! (`defbench`).
//!
//! Run: `cargo run --release -p bfly-bench --bin ablation` (`--quick`).

use bfly_bench::{figure_config, write_csv, Table};
use bfly_common::{pool, ItemSet, SlidingWindow};
use bfly_core::{BiasScheme, PrivacySpec, Publisher};
use bfly_datagen::DatasetProfile;
use bfly_inference::adversary::averaging_attack;
use bfly_inference::attack::{find_inter_window_breaches, find_intra_window_breaches};
use bfly_mining::closed::expand_closed;
use bfly_mining::rules::{confidence_preservation_rate, generate_rules};
use bfly_mining::{FrequentItemsets, MinerBackend, MomentMiner};

fn main() {
    breach_prevalence();
    republication_ablation();
    confidence_preservation();
    residual_attack();
}

/// Count intra-/inter-window breaches per window on raw output.
fn breach_prevalence() {
    let mut table = Table::new(
        "Ablation 1: vulnerable patterns inferable per window from RAW output",
        &[
            "dataset",
            "windows",
            "intra_total",
            "inter_total",
            "per_window",
        ],
    );
    for profile in DatasetProfile::all() {
        let cfg = figure_config(profile);
        let mut source = profile.source(cfg.seed);
        let mut window = SlidingWindow::new(cfg.window);
        let mut miner = MomentMiner::new(cfg.c);
        for _ in 0..cfg.window - 1 {
            miner.apply(&window.slide(source.next_transaction()));
        }
        let (mut intra_total, mut inter_total) = (0usize, 0usize);
        let mut prev: Option<FrequentItemsets> = None;
        for _ in 0..cfg.windows {
            miner.apply(&window.slide(source.next_transaction()));
            let full = expand_closed(&miner.closed_frequent());
            intra_total += find_intra_window_breaches(full.as_map(), cfg.k).len();
            if let Some(prev) = &prev {
                inter_total +=
                    find_inter_window_breaches(prev.as_map(), full.as_map(), cfg.c, 1, cfg.k).len();
            }
            prev = Some(full);
        }
        table.row(vec![
            profile.name().to_string(),
            cfg.windows.to_string(),
            intra_total.to_string(),
            inter_total.to_string(),
            format!(
                "{:.1}",
                (intra_total + inter_total) as f64 / cfg.windows as f64
            ),
        ]);
    }
    table.print();
    write_csv(&table, "ablation_breach_prevalence");
}

/// Averaging-attack error: pinned republication vs fresh redraw.
fn republication_ablation() {
    let spec = PrivacySpec::new(25, 5, 0.04, 1.0);
    let truth = 40u64;
    let frequent = FrequentItemsets::new(vec![("ab".parse::<ItemSet>().unwrap(), truth)]);
    let observations = 200usize;

    let mut table = Table::new(
        "Ablation 2: averaging attack vs republication (|mean − truth| after N windows)",
        &["variant", "N", "abs_error"],
    );
    // Butterfly: pinned.
    let mut p = Publisher::new(spec, BiasScheme::Basic, 7);
    let pinned: Vec<i64> = (0..observations)
        .map(|_| {
            p.publish(&frequent)
                .get(&"ab".parse().unwrap())
                .unwrap()
                .sanitized
        })
        .collect();
    // Naive: fresh noise each window (publisher reset defeats the pin).
    let mut q = Publisher::new(spec, BiasScheme::Basic, 7);
    let fresh: Vec<i64> = (0..observations)
        .map(|_| {
            q.reset();
            q.publish(&frequent)
                .get(&"ab".parse().unwrap())
                .unwrap()
                .sanitized
        })
        .collect();
    for n in [10usize, 50, 200] {
        table.row(vec![
            "pinned (Butterfly)".into(),
            n.to_string(),
            format!(
                "{:.3}",
                (averaging_attack(&pinned[..n]) - truth as f64).abs()
            ),
        ]);
        table.row(vec![
            "fresh redraw (naive)".into(),
            n.to_string(),
            format!(
                "{:.3}",
                (averaging_attack(&fresh[..n]) - truth as f64).abs()
            ),
        ]);
    }
    table.print();
    write_csv(&table, "ablation_republication");
}

/// Residual attack: precision/recall of a thresholding adversary who claims
/// every pattern whose sanitized estimate lands in [0.5, K+0.5].
fn residual_attack() {
    use bfly_inference::residual::{claim_breaches, score_claims};
    let profile = DatasetProfile::WebView1;
    let cfg = figure_config(profile);
    let spec = PrivacySpec::from_ppr(cfg.c, cfg.k, 0.04, 1.0);

    // One representative window.
    let mut source = profile.source(cfg.seed);
    let mut window = SlidingWindow::new(cfg.window);
    let mut miner = MomentMiner::new(cfg.c);
    for _ in 0..cfg.window {
        miner.apply(&window.slide(source.next_transaction()));
    }
    let db = window.database();
    let full = expand_closed(&miner.closed_frequent());
    let spans: Vec<bfly_common::ItemSet> = full.iter().map(|e| e.itemset().clone()).collect();

    let mut table = Table::new(
        "Ablation 4: residual thresholding attack after sanitization (one window)",
        &["variant", "claims", "precision", "recall"],
    );
    // Baseline: raw output.
    let raw_claims = claim_breaches(full.as_map(), &spans, cfg.k, 10);
    let raw = score_claims(&raw_claims, &db, &spans, cfg.k, 10);
    table.row(vec![
        "raw (no protection)".into(),
        raw_claims.len().to_string(),
        format!("{:.3}", raw.precision()),
        format!("{:.3}", raw.recall()),
    ]);
    for scheme in BiasScheme::paper_variants(2) {
        // Average the attack over repeated perturbations; each seeded trial
        // is independent, so they run in parallel.
        let trials = 10;
        let seeds: Vec<u64> = (0..trials).collect();
        let per_seed = pool::par_map(&seeds, |&seed| {
            let mut publisher = Publisher::new(spec, scheme, seed);
            let release = publisher.publish(&full);
            let claims = claim_breaches(&release.view(), &spans, cfg.k, 10);
            let score = score_claims(&claims, &db, &spans, cfg.k, 10);
            (score.precision(), score.recall(), claims.len())
        });
        let (mut p_sum, mut r_sum, mut n_claims) = (0.0, 0.0, 0usize);
        for (p, r, n) in per_seed {
            p_sum += p;
            r_sum += r;
            n_claims += n;
        }
        table.row(vec![
            scheme.name().to_string(),
            (n_claims / trials as usize).to_string(),
            format!("{:.3}", p_sum / trials as f64),
            format!("{:.3}", r_sum / trials as f64),
        ]);
    }
    table.print();
    write_csv(&table, "ablation_residual_attack");
}

/// Association-rule confidence preservation per scheme (tolerance 5%).
fn confidence_preservation() {
    let profile = DatasetProfile::Pos;
    let cfg = figure_config(profile);
    let spec = PrivacySpec::from_ppr(cfg.c, cfg.k, 0.4, 0.4);

    // One representative window.
    let mut source = profile.source(cfg.seed);
    let mut window = SlidingWindow::new(cfg.window);
    let mut miner = MomentMiner::new(cfg.c);
    for _ in 0..cfg.window {
        miner.apply(&window.slide(source.next_transaction()));
    }
    let full = expand_closed(&miner.closed_frequent());
    let rules = generate_rules(&full, 0.5);

    let mut table = Table::new(
        "Ablation 3: association-rule confidence preservation (±5%), by scheme",
        &["scheme", "rules", "preserved_rate"],
    );
    for scheme in BiasScheme::paper_variants(2) {
        // Average over repeated draws to smooth noise — one parallel task
        // per seed, folded in seed order.
        let trials = 20;
        let seeds: Vec<u64> = (0..trials as u64).collect();
        let total: f64 = pool::par_map(&seeds, |&seed| {
            let mut p = Publisher::new(spec, scheme, seed);
            let release = p.publish(&full);
            confidence_preservation_rate(&rules, &release.view(), 0.05)
        })
        .into_iter()
        .sum();
        table.row(vec![
            scheme.name().to_string(),
            rules.len().to_string(),
            format!("{:.3}", total / trials as f64),
        ]);
    }
    table.print();
    write_csv(&table, "ablation_rule_confidence");
}
