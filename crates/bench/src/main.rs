//! `bfly-bench` — the one experiment binary. Each subcommand regenerates
//! one experiment of the Butterfly paper's evaluation (§VII) or guards one
//! of its claims; `bfly-bench help` prints [`USAGE`], the list of them.
//!
//! Flags are declared per subcommand in [`FLAG_TABLE`] and parsed by
//! `bfly_common::flags::parse_flags`, the parser `butterfly` uses: an
//! unknown subcommand, flag or positional argument, or a malformed value,
//! exits 1 naming what is valid.

use bfly_bench::{
    append_run, collect_truths, defense_matrix, epoch_seconds, evaluate_cells, evaluate_scheme,
    tune_gamma, tune_lambda, write_csv, ExperimentConfig, Table,
};
use bfly_common::flags::{parse_flags, Flags};
use bfly_common::{pool, Database, ItemSet, Json, SlidingWindow, Transaction};
use bfly_core::{
    audit_release, BiasScheme, DefenseKind, DefenseSpec, PrivacySpec, PublicationHistory, Publisher,
};
use bfly_datagen::{DatasetProfile, MarkovConfig, MarkovSessionGenerator};
use bfly_inference::attack::BreachKind;
use bfly_mining::closed::{closed_subset, expand_closed};
use bfly_mining::{Eclat, FrequentItemsets, MinerBackend, MomentMiner};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str =
    "bfly-bench — regenerate the Butterfly paper's evaluation (CSV under target/figures/)

USAGE:
  bfly-bench fig4      [--quick] [--threads <N>]   avg_prig vs δ, avg_pred vs ε (Fig 4)
  bfly-bench fig5      [--quick] [--threads <N>]   avg_ropp / avg_rrpp vs ε/δ (Fig 5)
  bfly-bench fig6      [--quick]                   avg_ropp vs DP depth γ (Fig 6)
  bfly-bench fig7      [--quick] [--threads <N>]   order-vs-ratio tradeoff frontier (Fig 7)
  bfly-bench fig8      [--quick]                   per-window running time vs C (Fig 8)
  bfly-bench ablation  [--quick] [--threads <N>]   four ablations beyond the figures
  bfly-bench tune      [--quick]                   automatic γ/λ tuning
  bfly-bench soak      [--quick]                   Moment vs Eclat re-mine soak with contract audits
  bfly-bench defbench  [--quick] [--out <path.json>]
                                                   cross-defense matrix, appended to --out
                                                   (default BENCH_defense.json)

`--quick` shrinks a sweep to smoke scale; the default is the paper-scale
setting. `--threads` pins the worker count of the parallel sweep cells
(otherwise BFLY_THREADS or the hardware decides); results are identical at
any count.";

/// `(name, takes_value)` — flags each subcommand accepts: `--quick` on all,
/// `--threads` on those whose sweeps run on `bfly_common::pool`, `--out` on
/// `defbench`.
const FLAG_TABLE: &[(&str, &[(&str, bool)])] = &[
    ("fig4", &[("quick", false), ("threads", true)]),
    ("fig5", &[("quick", false), ("threads", true)]),
    ("fig6", &[("quick", false)]),
    ("fig7", &[("quick", false), ("threads", true)]),
    ("fig8", &[("quick", false)]),
    ("ablation", &[("quick", false), ("threads", true)]),
    ("tune", &[("quick", false)]),
    ("soak", &[("quick", false)]),
    ("defbench", &[("quick", false), ("out", true)]),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse_flags(FLAG_TABLE, command, rest).and_then(|f| Opts::new(&f)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    pool::set_threads(opts.threads);
    match command.as_str() {
        "fig4" => fig4(&opts),
        "fig5" => fig5(&opts),
        "fig6" => fig6(&opts),
        "fig7" => fig7(&opts),
        "fig8" => fig8(&opts),
        "ablation" => ablation(&opts),
        "tune" => tune(&opts),
        "soak" => return soak(&opts),
        "defbench" => defbench(&opts),
        other => unreachable!("{other} is not in FLAG_TABLE"),
    }
    ExitCode::SUCCESS
}

/// The parsed flags.
struct Opts {
    /// `--quick`: a smoke-scale sweep (smaller windows, fewer of them).
    quick: bool,
    /// `--threads N`: pool workers for the parallel sweeps; 0 (absent)
    /// leaves `BFLY_THREADS` or the hardware to decide.
    threads: usize,
    /// `--out PATH`: where `defbench` appends its run.
    out: Option<String>,
}

impl Opts {
    fn new(flags: &Flags) -> Result<Self, String> {
        let threads = match flags.get("threads") {
            Some(v) => v.parse().map_err(|_| {
                format!("invalid --threads {v:?} (valid: a worker count, 0 for the default)")
            })?,
            None => 0,
        };
        Ok(Opts {
            quick: flags.contains_key("quick"),
            threads,
            out: flags.get("out").cloned(),
        })
    }

    /// The experiment configuration for a profile, honouring `--quick`.
    fn figure_config(&self, profile: DatasetProfile) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_default(profile);
        if self.quick {
            cfg.window = 600;
            cfg.windows = 20;
            cfg.c = 15;
            cfg.k = 3;
        }
        cfg
    }
}

/// Figure 4: average privacy guarantee (`avg_prig`) vs δ, and average
/// precision degradation (`avg_pred`) vs ε, at fixed ppr ε/δ = 0.04, for the
/// four Butterfly variants over both datasets.
///
/// Expected shape (paper §VII-B): every variant's `avg_prig` sits above the
/// δ diagonal, every variant's `avg_pred` sits below the ε diagonal, and the
/// basic scheme shows the lowest precision loss.
fn fig4(opts: &Opts) {
    const PPR: f64 = 0.04;
    let deltas = [0.2, 0.4, 0.6, 0.8, 1.0];
    let schemes = BiasScheme::paper_variants(2);

    for profile in DatasetProfile::all() {
        let cfg = opts.figure_config(profile);
        eprintln!(
            "[fig4] {}: collecting ground truth over {} windows ...",
            profile.name(),
            cfg.windows
        );
        let truths = collect_truths(&cfg);
        let total_breaches: usize = truths.iter().map(|t| t.breaches.len()).sum();
        eprintln!(
            "[fig4] {}: {} inferable vulnerable patterns across the run",
            profile.name(),
            total_breaches
        );

        let mut prig = Table::new(
            &format!(
                "Fig 4 (top) avg_prig vs δ — {} (ppr = {PPR})",
                profile.name()
            ),
            &[
                "delta",
                "epsilon",
                "Basic",
                "Opt l=1",
                "Opt l=0.4",
                "Opt l=0",
            ],
        );
        let mut pred = Table::new(
            &format!(
                "Fig 4 (bottom) avg_pred vs ε — {} (ppr = {PPR})",
                profile.name()
            ),
            &[
                "epsilon",
                "delta",
                "Basic",
                "Opt l=1",
                "Opt l=0.4",
                "Opt l=0",
            ],
        );
        // All (δ, scheme) cells are independent: evaluate the whole grid in
        // one parallel batch (seeds match the historical serial loop).
        let cells: Vec<(PrivacySpec, BiasScheme, u64)> = deltas
            .iter()
            .flat_map(|&delta| {
                let spec = PrivacySpec::new(cfg.c, cfg.k, PPR * delta, delta);
                schemes
                    .iter()
                    .enumerate()
                    .map(move |(i, &scheme)| (spec, scheme, 100 + i as u64))
            })
            .collect();
        let results = evaluate_cells(&truths, &cells);
        for (row, &delta) in deltas.iter().enumerate() {
            let epsilon = PPR * delta;
            let mut prig_cells = vec![format!("{delta:.1}"), format!("{epsilon:.3}")];
            let mut pred_cells = vec![format!("{epsilon:.3}"), format!("{delta:.1}")];
            for r in &results[row * schemes.len()..(row + 1) * schemes.len()] {
                prig_cells.push(format!("{:.3}", r.avg_prig));
                pred_cells.push(format!("{:.5}", r.avg_pred));
            }
            prig.row(prig_cells);
            pred.row(pred_cells);
        }
        prig.print();
        pred.print();
        let p1 = write_csv(&prig, &format!("fig4_prig_{}", profile.name()));
        let p2 = write_csv(&pred, &format!("fig4_pred_{}", profile.name()));
        eprintln!("[fig4] wrote {} and {}", p1.display(), p2.display());
    }
}

/// Figure 5: average order preservation (`avg_ropp`) and ratio preservation
/// (`avg_rrpp`) vs the precision–privacy ratio ε/δ at fixed δ = 0.4, for the
/// four Butterfly variants over both datasets (γ = 2, k = 0.95).
///
/// Expected shape: order-preserving (λ=1) wins on ropp, ratio-preserving
/// (λ=0) wins on rrpp and order-preserving is *worst* on rrpp; the hybrid
/// λ=0.4 is second-best on both; both rates rise with ε/δ (more bias room).
fn fig5(opts: &Opts) {
    const DELTA: f64 = 0.4;
    let pprs = [0.2, 0.4, 0.6, 0.8, 1.0];
    let schemes = BiasScheme::paper_variants(2);

    for profile in DatasetProfile::all() {
        let cfg = opts.figure_config(profile);
        eprintln!("[fig5] {}: collecting ground truth ...", profile.name());
        let truths = collect_truths(&cfg);

        let mut ropp_t = Table::new(
            &format!(
                "Fig 5 (top) avg_ropp vs ε/δ — {} (δ = {DELTA})",
                profile.name()
            ),
            &["ppr", "Basic", "Opt l=1", "Opt l=0.4", "Opt l=0"],
        );
        let mut rrpp_t = Table::new(
            &format!(
                "Fig 5 (bottom) avg_rrpp vs ε/δ — {} (δ = {DELTA})",
                profile.name()
            ),
            &["ppr", "Basic", "Opt l=1", "Opt l=0.4", "Opt l=0"],
        );
        // The (ppr, scheme) grid evaluates as one parallel batch (seeds
        // match the historical serial loop).
        let cells: Vec<_> = pprs
            .iter()
            .flat_map(|&ppr| {
                let spec = PrivacySpec::from_ppr(cfg.c, cfg.k, ppr, DELTA);
                schemes
                    .iter()
                    .enumerate()
                    .map(move |(i, &scheme)| (spec, scheme, 500 + i as u64))
            })
            .collect();
        let results = evaluate_cells(&truths, &cells);
        for (row, &ppr) in pprs.iter().enumerate() {
            let mut o = vec![format!("{ppr:.1}")];
            let mut r = vec![format!("{ppr:.1}")];
            for res in &results[row * schemes.len()..(row + 1) * schemes.len()] {
                o.push(format!("{:.4}", res.avg_ropp));
                r.push(format!("{:.4}", res.avg_rrpp));
            }
            ropp_t.row(o);
            rrpp_t.row(r);
        }
        ropp_t.print();
        rrpp_t.print();
        write_csv(&ropp_t, &format!("fig5_ropp_{}", profile.name()));
        write_csv(&rrpp_t, &format!("fig5_rrpp_{}", profile.name()));
    }
}

/// Figure 6: average rate of order-preserved pairs vs the DP depth γ of the
/// order-preserving scheme, over both datasets.
///
/// Expected shape: ropp rises sharply up to γ ≈ 2–3, then flattens — on
/// realistic support distributions a FEC's uncertainty region only overlaps
/// 2–3 neighbours, so deeper DP windows buy nothing.
fn fig6(opts: &Opts) {
    const DELTA: f64 = 0.4;
    const PPR: f64 = 0.6; // roomy bias budget so γ is the binding factor

    let mut table = Table::new(
        &format!("Fig 6 avg_ropp vs γ (δ = {DELTA}, ε/δ = {PPR})"),
        &["gamma", "WebView1", "POS"],
    );
    let mut columns: Vec<Vec<f64>> = Vec::new();
    for profile in DatasetProfile::all() {
        let cfg = opts.figure_config(profile);
        eprintln!("[fig6] {}: collecting ground truth ...", profile.name());
        let truths = collect_truths(&cfg);
        let spec = PrivacySpec::from_ppr(cfg.c, cfg.k, PPR, DELTA);
        let mut col = Vec::new();
        for gamma in 0..=6usize {
            let r = evaluate_scheme(
                &truths,
                spec,
                BiasScheme::OrderPreserving { gamma },
                900 + gamma as u64,
            );
            col.push(r.avg_ropp);
        }
        columns.push(col);
    }
    for (gamma, (web, pos)) in columns[0].iter().zip(&columns[1]).enumerate() {
        table.row(vec![
            gamma.to_string(),
            format!("{web:.4}"),
            format!("{pos:.4}"),
        ]);
    }
    table.print();
    let p = write_csv(&table, "fig6_ropp_vs_gamma");
    eprintln!("[fig6] wrote {}", p.display());
}

/// Figure 7: the order-vs-ratio preservation tradeoff frontier — `avg_rrpp`
/// against `avg_ropp` as the hybrid weight λ sweeps {0.2..1.0}, one curve
/// per precision–privacy ratio ε/δ ∈ {0.3, 0.6, 0.9}, over both datasets.
///
/// Expected shape: each curve slopes down-right (more order preservation
/// costs ratio preservation); larger ε/δ curves dominate (more bias room);
/// λ = 0.4 sits near the knee.
fn fig7(opts: &Opts) {
    const DELTA: f64 = 0.4;
    let pprs = [0.3, 0.6, 0.9];
    let lambdas = [0.2, 0.4, 0.6, 0.8, 1.0];

    for profile in DatasetProfile::all() {
        let cfg = opts.figure_config(profile);
        eprintln!("[fig7] {}: collecting ground truth ...", profile.name());
        let truths = collect_truths(&cfg);

        let mut table = Table::new(
            &format!(
                "Fig 7 rrpp vs ropp tradeoff — {} (δ = {DELTA})",
                profile.name()
            ),
            &["ppr", "lambda", "avg_ropp", "avg_rrpp"],
        );
        // One parallel batch over the (ppr, λ) grid (seeds match the
        // historical serial loop).
        let cells: Vec<_> = pprs
            .iter()
            .flat_map(|&ppr| {
                let spec = PrivacySpec::from_ppr(cfg.c, cfg.k, ppr, DELTA);
                lambdas.iter().map(move |&lambda| {
                    (
                        spec,
                        BiasScheme::Hybrid { lambda, gamma: 2 },
                        (ppr * 1000.0) as u64 + (lambda * 10.0) as u64,
                    )
                })
            })
            .collect();
        let results = evaluate_cells(&truths, &cells);
        for ((&(_, scheme, _), r), cell_idx) in cells.iter().zip(&results).zip(0..) {
            let ppr = pprs[cell_idx / lambdas.len()];
            let BiasScheme::Hybrid { lambda, .. } = scheme else {
                unreachable!("all fig7 cells are hybrid");
            };
            table.row(vec![
                format!("{ppr:.1}"),
                format!("{lambda:.1}"),
                format!("{:.4}", r.avg_ropp),
                format!("{:.4}", r.avg_rrpp),
            ]);
        }
        table.print();
        write_csv(&table, &format!("fig7_tradeoff_{}", profile.name()));
    }
}

/// Figure 8: running-time overhead of the Butterfly stages on top of the
/// mining algorithm, as minimum support C drops 30 → 10 (window 5000, both
/// datasets). Splits per-window time into: the mining algorithm (Moment
/// maintenance + result extraction), the basic perturbation, and the
/// optimization (bias-setting DP / proportional scaling) stage.
///
/// Expected shape: basic perturbation is negligible at every C; the Opt
/// stage's cost tracks the *number of FECs*, which grows far slower than the
/// mining cost as C decreases; mining dominates and grows super-linearly.
fn fig8(opts: &Opts) {
    let (window_size, slides) = if opts.quick { (800, 60) } else { (5000, 300) };
    let supports: &[u64] = if opts.quick {
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
            let (mut basic_history, mut opt_history) = Default::default();
            let mut t_mining = Duration::ZERO;
            let mut t_basic = Duration::ZERO;
            let mut t_opt = Duration::ZERO;
            let mut published = 0usize;
            let mut fecs = 0usize;
            for slide in 1..=slides as u64 {
                let tx = source.next_transaction();
                let start = Instant::now();
                let delta = window.slide(tx);
                miner.apply(&delta);
                let closed = miner.closed_frequent();
                t_mining += start.elapsed();

                let start = Instant::now();
                let r = basic.publish(&closed, &basic_history);
                basic_history.record(&r, slide);
                t_basic += start.elapsed();

                let start = Instant::now();
                let o = opt.publish(&closed, &opt_history);
                opt_history.record(&o, slide);
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

/// Ablation experiments beyond the paper's figures, exercising the design
/// choices DESIGN.md calls out:
///
/// 1. **Breach prevalence** — how many vulnerable patterns leak per window
///    from *unprotected* output (the paper's §IV motivation, quantified).
/// 2. **Republication rule** — the averaging attack's error with Butterfly's
///    pinned republication vs naive fresh-noise redrawing (Prior Knowledge 2).
/// 3. **Rule-confidence preservation** — the downstream measure motivating
///    ratio preservation (§VI-B), per scheme.
/// 4. **Residual thresholding attack** — precision/recall of an adversary
///    who still claims breaches from sanitized output.
///
/// Butterfly against a differential-privacy release is `defbench`.
fn ablation(opts: &Opts) {
    breach_prevalence(opts);
    republication_ablation();
    confidence_preservation(opts);
    residual_attack(opts);
}

/// Count intra-/inter-window breaches per window on raw output.
fn breach_prevalence(opts: &Opts) {
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
        let cfg = opts.figure_config(profile);
        let truths = collect_truths(&cfg);
        let breaches = truths.iter().flat_map(|t| &t.breaches);
        let total = breaches.clone().count();
        let intra_total = breaches
            .filter(|b| b.kind == BreachKind::IntraWindow)
            .count();
        let inter_total = total - intra_total;
        table.row(vec![
            profile.name().to_string(),
            cfg.windows.to_string(),
            intra_total.to_string(),
            inter_total.to_string(),
            format!("{:.1}", total as f64 / cfg.windows as f64),
        ]);
    }
    table.print();
    write_csv(&table, "ablation_breach_prevalence");
}

/// Averaging-attack error: pinned republication vs fresh redraw.
fn republication_ablation() {
    use bfly_inference::adversary::averaging_attack;
    let spec = PrivacySpec::new(25, 5, 0.04, 1.0);
    let truth = 40u64;
    let frequent = FrequentItemsets::new(vec![("ab".parse::<ItemSet>().unwrap(), truth)]);
    let observations = 200usize;

    let mut table = Table::new(
        "Ablation 2: averaging attack vs republication (|mean − truth| after N windows)",
        &["variant", "N", "abs_error"],
    );
    let ab = |release: &bfly_core::SanitizedRelease| {
        release.get(&"ab".parse().unwrap()).unwrap().sanitized
    };
    // Butterfly: pinned against the stream's history.
    let mut p = Publisher::new(spec, BiasScheme::Basic, 7);
    let mut history = PublicationHistory::default();
    let pinned: Vec<i64> = (1..=observations as u64)
        .map(|n| {
            let release = p.publish(&frequent, &history);
            history.record(&release, n);
            ab(&release)
        })
        .collect();
    // Naive: fresh noise each window (an empty history defeats the pin).
    let mut q = Publisher::new(spec, BiasScheme::Basic, 7);
    let fresh: Vec<i64> = (0..observations)
        .map(|_| ab(&q.publish(&frequent, &PublicationHistory::default())))
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

/// The first full window of `cfg`'s stream, as a database, and its frequent
/// itemsets, mined by Moment: the one representative window ablations 3
/// and 4 publish.
fn mine_one_window(cfg: &ExperimentConfig) -> (Database, FrequentItemsets) {
    let mut source = cfg.profile.source(cfg.seed);
    let mut window = SlidingWindow::new(cfg.window);
    let mut miner = MomentMiner::new(cfg.c);
    for _ in 0..cfg.window {
        miner.apply(&window.slide(source.next_transaction()));
    }
    (window.database(), expand_closed(&miner.closed_frequent()))
}

/// Residual attack: precision/recall of a thresholding adversary who claims
/// every pattern whose sanitized estimate lands in [0.5, K+0.5].
fn residual_attack(opts: &Opts) {
    use bfly_inference::residual::{claim_breaches, score_claims};
    let cfg = opts.figure_config(DatasetProfile::WebView1);
    let spec = PrivacySpec::from_ppr(cfg.c, cfg.k, 0.04, 1.0);
    let (db, full) = mine_one_window(&cfg);
    let spans: Vec<ItemSet> = full.entries().iter().map(|e| e.itemset().clone()).collect();

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
            let release = publisher.publish(&full, &PublicationHistory::default());
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
fn confidence_preservation(opts: &Opts) {
    use bfly_mining::rules::{confidence_preservation_rate, generate_rules};
    let cfg = opts.figure_config(DatasetProfile::Pos);
    let spec = PrivacySpec::from_ppr(cfg.c, cfg.k, 0.4, 0.4);
    let (_, full) = mine_one_window(&cfg);
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
            let release = p.publish(&full, &PublicationHistory::default());
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

/// Automatic γ/λ tuning — §VII-B's "Tuning of Parameters γ and λ" as a
/// reproducible procedure instead of a manual read-off of Figs 6–7.
///
/// Expected result (the paper's conclusions): γ lands at 1–3 on both
/// datasets, and for equally-weighted order/ratio utility λ lands near 0.4.
fn tune(opts: &Opts) {
    const DELTA: f64 = 0.4;
    const PPR: f64 = 0.6;
    let grid = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];

    let mut table = Table::new(
        &format!("Auto-tuned parameters (δ = {DELTA}, ε/δ = {PPR})"),
        &[
            "dataset",
            "gamma",
            "lambda_order",
            "lambda_balanced",
            "lambda_ratio",
        ],
    );
    for profile in DatasetProfile::all() {
        let cfg = opts.figure_config(profile);
        eprintln!("[tune] {}: collecting ground truth ...", profile.name());
        let truths = collect_truths(&cfg);
        let spec = PrivacySpec::from_ppr(cfg.c, cfg.k, PPR, DELTA);
        let gamma = tune_gamma(&truths, spec, 4, 0.002);
        let l_order = tune_lambda(&truths, spec, gamma, 1.0, &grid);
        let l_balanced = tune_lambda(&truths, spec, gamma, 0.5, &grid);
        let l_ratio = tune_lambda(&truths, spec, gamma, 0.0, &grid);
        table.row(vec![
            profile.name().to_string(),
            gamma.to_string(),
            format!("{l_order:.1}"),
            format!("{l_balanced:.1}"),
            format!("{l_ratio:.1}"),
        ]);
    }
    table.print();
    write_csv(&table, "tune_parameters");
    println!("\npaper's hand-tuned values: γ = 2, λ = 0.4 for balanced order/ratio utility.");
}

/// Soak test: long randomized differential runs of the incremental Moment
/// miner against an Eclat re-mine of the window, with contract audits on every
/// published window — the CI tool that guards the reproduction's two
/// load-bearing correctness claims (exact incremental mining; contract-
/// compliant perturbation) far beyond unit-test scale. Moment is fed by tid
/// and settled at each checkpoint, as a shard settles it at a publication,
/// the checkpoints alternately 53 and 151 slides apart (`--quick`) or 47 and
/// 211. A settle walks its queue unless the queue holds half a window
/// (4 · interval ≥ W), when it rebuilds the tree. Every shape walks at the
/// short interval; the w=300 shapes (C 8, and C 60 at the ingest contract's
/// C = W/5) rebuild at the long one (the two sum to less than 300, so the
/// turnover re-rank cannot empty the queue first) and the w=1200 shapes
/// never rebuild at a settle. A shape whose settles take other paths than
/// those fails the run, and the run prints each count.
///
/// Exits non-zero on the first divergence.
fn soak(opts: &Opts) -> ExitCode {
    // Moment re-derives its item order at least once per window turnover,
    // so even the quick run takes the widest window below through six.
    let (steps, intervals) = if opts.quick {
        (7_200, [53, 151])
    } else {
        (20_000, [47, 211])
    };
    let mut failures = 0usize;

    // Configuration matrix: two stream models × three (window, C) shapes.
    // C = W/5 is the ingest contract's ratio (W 2000, C 400): most items
    // sit below C and cross it, so Moment's root gains and drops entries.
    for name in ["quest-webview1", "markov-sessions"] {
        for (window_size, c, k) in [(300usize, 8u64, 2u64), (1200, 20, 5), (300, 60, 15)] {
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
            let mut history = PublicationHistory::default();
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
                let release = publisher.publish(&mined, &history);
                history.record(&release, step as u64);
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
            let rebuilds_due = window_size <= 4 * intervals[1];
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

/// Fresh stream per soak configuration so runs are independent and seeded.
fn stream_by_name(name: &str, salt: usize) -> Box<dyn Iterator<Item = Transaction>> {
    match name {
        "quest-webview1" => Box::new(DatasetProfile::WebView1.source(12345 + salt as u64)),
        "markov-sessions" => Box::new(MarkovSessionGenerator::new(
            MarkovConfig::default(),
            999 + salt as u64,
        )),
        other => unreachable!("unknown stream {other}"),
    }
}

/// Cross-defense evaluation matrix: every registered [`DefenseKind`]
/// published over the same mined stream, attacked by the same inference
/// engine, and priced on the same publish path. Prints the matrix and
/// appends one run entry to `--out` (default `BENCH_defense.json`).
fn defbench(opts: &Opts) {
    let cfg = opts.figure_config(DatasetProfile::WebView1);
    let spec = PrivacySpec::new(cfg.c, cfg.k, 0.04, 0.4);
    let scheme = BiasScheme::Hybrid {
        lambda: 0.4,
        gamma: 2,
    };
    let base = DefenseSpec::butterfly();
    println!(
        "defense matrix: {:?}, window {}, C={}, K={}, {} windows, defenses [{}]",
        cfg.profile,
        cfg.window,
        cfg.c,
        cfg.k,
        cfg.windows,
        DefenseKind::valid_names()
    );
    let truths = collect_truths(&cfg);
    let rows = defense_matrix(&truths, spec, scheme, base, cfg.seed);

    let mut table = Table::new(
        "cross-defense matrix",
        &[
            "defense",
            "avg_pred",
            "avg_prig",
            "utility_f1",
            "attack_mse",
            "estimable",
            "breaches",
            "suppressed",
            "publish_us",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.name.to_string(),
            format!("{:.4}", r.avg_pred),
            format!("{:.4}", r.avg_prig),
            format!("{:.4}", r.utility_f1),
            format!("{:.2}", r.attack_mse),
            r.estimable_breaches.to_string(),
            r.breaches.to_string(),
            r.suppressed.to_string(),
            format!("{:.1}", r.publish_us_per_window),
        ]);
    }
    table.print();

    let run = Json::obj([
        ("ts", Json::from(epoch_seconds())),
        ("quick", Json::Bool(opts.quick)),
        ("profile", Json::from(format!("{:?}", cfg.profile).as_str())),
        ("window", Json::from(cfg.window as u64)),
        ("windows", Json::from(cfg.windows as u64)),
        ("c", Json::from(cfg.c)),
        ("k", Json::from(cfg.k)),
        ("epsilon", Json::from(spec.epsilon())),
        ("delta", Json::from(spec.delta())),
        ("scheme", Json::from(scheme.name().to_string().as_str())),
        ("dp_budget", Json::from(base.dp_budget)),
        ("dp_top_k", Json::from(base.dp_top_k as u64)),
        ("seed", Json::from(cfg.seed)),
        (
            "defenses",
            Json::Arr(rows.iter().map(|r| r.to_json()).collect()),
        ),
    ]);
    append_run(opts.out.as_deref().unwrap_or("BENCH_defense.json"), run);
}
