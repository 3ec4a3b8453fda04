//! Shared experiment runner.
//!
//! Ground-truth collection is serial (each window's miner state depends on
//! the previous slide, and the per-window breach enumeration measured
//! 0.64–0.70× through the pool on two cores); sweep cells fan out per
//! `(spec, scheme, seed)` over the workspace pool via [`evaluate_cells`].
//! Each cell owns its `Publisher` seeded from the cell tuple, so results
//! are identical at any thread count.

use bfly_common::{pool, SlidingWindow, Support};
use bfly_core::metrics::{avg_pred, avg_prig, ropp, rrpp};
use bfly_core::{BiasScheme, PrivacySpec, PublicationHistory, Publisher};
use bfly_datagen::DatasetProfile;
use bfly_inference::attack::{find_inter_window_breaches, find_intra_window_breaches, Breach};
use bfly_mining::closed::expand_closed;
use bfly_mining::{FrequentItemsets, MinerBackend, MomentMiner};

/// Parameters shared by the figure experiments (the paper's defaults:
/// `C = 25`, `K = 5`, window `2K`, 100 consecutive windows).
#[derive(Clone, Copy, Debug)]
pub struct ExperimentConfig {
    /// Dataset stand-in.
    pub profile: DatasetProfile,
    /// Sliding-window size `H`.
    pub window: usize,
    /// Minimum support `C`.
    pub c: Support,
    /// Vulnerable support `K`.
    pub k: Support,
    /// Number of consecutive published windows to average over.
    pub windows: usize,
    /// Stream seed.
    pub seed: u64,
    /// Worker threads for [`evaluate_cells`]. `0` leaves the process-wide
    /// setting (`BFLY_THREADS` / hardware) untouched.
    pub threads: usize,
}

impl ExperimentConfig {
    /// The paper's default setting for a profile (§VII-A), scaled so the
    /// full five-figure sweep finishes in CI time: window 2000, C=25, K=5,
    /// 100 consecutive windows.
    pub fn paper_default(profile: DatasetProfile) -> Self {
        ExperimentConfig {
            profile,
            window: 2000,
            c: 25,
            k: 5,
            windows: 100,
            seed: 4242,
            threads: 0,
        }
    }

    /// Install this config's thread count as the pool's worker count (no-op
    /// when `threads == 0`).
    pub fn apply_threads(&self) {
        if self.threads > 0 {
            pool::set_threads(self.threads);
        }
    }
}

/// Ground truth for one published window: the (closed) mining output, the
/// expanded full frequent view, and every inferable vulnerable pattern.
#[derive(Clone, Debug)]
pub struct WindowTruth {
    /// Closed frequent itemsets with exact supports.
    pub closed: FrequentItemsets,
    /// All inferable hard vulnerable patterns (intra + inter).
    pub breaches: Vec<Breach>,
}

/// Mine `config.windows` consecutive windows and enumerate their breaches.
/// Scheme- and noise-independent, so call once per sweep. Mined by Moment,
/// the miner every pipeline runs.
pub fn collect_truths(config: &ExperimentConfig) -> Vec<WindowTruth> {
    let mut source = config.profile.source(config.seed);
    let mut window = SlidingWindow::new(config.window);
    let mut miner = MomentMiner::new(config.c);
    for _ in 0..config.window - 1 {
        let delta = window.slide(source.next_transaction());
        miner.apply(&delta);
    }
    let mut truths = Vec::with_capacity(config.windows);
    let mut prev_full: Option<FrequentItemsets> = None;
    for _ in 0..config.windows {
        let delta = window.slide(source.next_transaction());
        miner.apply(&delta);
        let closed = miner.closed_frequent();
        let full = expand_closed(&closed);
        let mut breaches = find_intra_window_breaches(full.as_map(), config.k);
        if let Some(prev) = &prev_full {
            breaches.extend(find_inter_window_breaches(
                prev.as_map(),
                full.as_map(),
                config.c,
                1,
                config.k,
            ));
        }
        truths.push(WindowTruth { closed, breaches });
        prev_full = Some(full);
    }
    truths
}

/// Averaged metrics over a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalResult {
    /// Mean `avg_pred` across windows.
    pub avg_pred: f64,
    /// Mean `avg_prig` across windows that exposed breaches.
    pub avg_prig: f64,
    /// Number of windows contributing to `avg_prig`.
    pub prig_windows: usize,
    /// Total breaches measured.
    pub breaches: usize,
    /// Mean order-preserved-pair rate.
    pub avg_ropp: f64,
    /// Mean ratio-preserved-pair rate (k = 0.95 as in the paper).
    pub avg_rrpp: f64,
}

/// Publish every truth window under `scheme`/`spec` (with the republication
/// cache running across windows, as deployed) and average the four metrics.
pub fn evaluate_scheme(
    truths: &[WindowTruth],
    spec: PrivacySpec,
    scheme: BiasScheme,
    seed: u64,
) -> EvalResult {
    let mut publisher = Publisher::new(spec, scheme, seed);
    let mut history = PublicationHistory::default();
    let mut result = EvalResult::default();
    let mut prev_view = None;
    for (i, truth) in truths.iter().enumerate() {
        let release = publisher.publish(&truth.closed, &history);
        history.record(&release, i as u64 + 1);
        let view = release.view();
        result.avg_pred += avg_pred(&release);
        result.avg_ropp += ropp(&release);
        result.avg_rrpp += rrpp(&release, 0.95);
        if let Some(prig) = avg_prig(&truth.breaches, &view, prev_view.as_ref()) {
            result.avg_prig += prig;
            result.prig_windows += 1;
            result.breaches += truth.breaches.len();
        }
        prev_view = Some(view);
    }
    let n = truths.len() as f64;
    result.avg_pred /= n;
    result.avg_ropp /= n;
    result.avg_rrpp /= n;
    if result.prig_windows > 0 {
        result.avg_prig /= result.prig_windows as f64;
    }
    result
}

/// Evaluate a batch of independent sweep cells `(spec, scheme, seed)`
/// against shared truths, in parallel, returning results in cell order.
/// Each cell gets its own seeded `Publisher`, so a cell's result is a pure
/// function of its tuple — the figure subcommands write identical CSVs at
/// any thread count.
pub fn evaluate_cells(
    truths: &[WindowTruth],
    cells: &[(PrivacySpec, BiasScheme, u64)],
) -> Vec<EvalResult> {
    pool::par_map(cells, |&(spec, scheme, seed)| {
        evaluate_scheme(truths, spec, scheme, seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            profile: DatasetProfile::WebView1,
            window: 300,
            c: 10,
            k: 3,
            windows: 8,
            seed: 5,
            threads: 0,
        }
    }

    #[test]
    fn truths_contain_sound_breaches() {
        let cfg = tiny_config();
        let truths = collect_truths(&cfg);
        assert_eq!(truths.len(), cfg.windows);
        for t in &truths {
            for b in &t.breaches {
                assert!(b.support >= 1 && b.support <= cfg.k);
            }
            assert!(!t.closed.is_empty(), "window mined nothing");
        }
    }

    #[test]
    fn evaluation_respects_contract() {
        let cfg = tiny_config();
        let truths = collect_truths(&cfg);
        let spec = PrivacySpec::new(cfg.c, cfg.k, 0.1, 0.5);
        let r = evaluate_scheme(&truths, spec, BiasScheme::Basic, 1);
        assert!(r.avg_pred <= 0.1 * 1.3, "pred {}", r.avg_pred);
        assert!((0.0..=1.0).contains(&r.avg_ropp));
        assert!((0.0..=1.0).contains(&r.avg_rrpp));
        if r.prig_windows > 0 {
            assert!(r.avg_prig > 0.0);
        }
    }

    #[test]
    fn cell_batch_matches_individual_evaluation() {
        let cfg = tiny_config();
        let truths = collect_truths(&cfg);
        let spec = PrivacySpec::new(cfg.c, cfg.k, 0.1, 0.5);
        let cells = vec![
            (spec, BiasScheme::Basic, 1u64),
            (spec, BiasScheme::RatioPreserving, 2),
            (spec, BiasScheme::OrderPreserving { gamma: 2 }, 3),
        ];
        let batch = evaluate_cells(&truths, &cells);
        for (r, &(s, scheme, seed)) in batch.iter().zip(&cells) {
            let solo = evaluate_scheme(&truths, s, scheme, seed);
            assert_eq!(r.avg_pred, solo.avg_pred);
            assert_eq!(r.avg_prig, solo.avg_prig);
            assert_eq!(r.avg_ropp, solo.avg_ropp);
            assert_eq!(r.avg_rrpp, solo.avg_rrpp);
            assert_eq!(r.breaches, solo.breaches);
        }
    }

    #[test]
    fn evaluation_is_deterministic() {
        let cfg = tiny_config();
        let truths = collect_truths(&cfg);
        let spec = PrivacySpec::new(cfg.c, cfg.k, 0.1, 0.5);
        let a = evaluate_scheme(&truths, spec, BiasScheme::RatioPreserving, 9);
        let b = evaluate_scheme(&truths, spec, BiasScheme::RatioPreserving, 9);
        assert_eq!(a.avg_pred, b.avg_pred);
        assert_eq!(a.avg_prig, b.avg_prig);
    }
}
