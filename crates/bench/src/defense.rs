//! Cross-defense evaluation matrix: every [`DefenseKind`] published over
//! the **same** mined truths and attacked by the **same** inference engine,
//! so the numbers in `BENCH_defense.json` compare defenses, not streams.
//!
//! Beyond the paper's §VII metrics (`avg_pred`, `avg_prig`) the matrix adds
//! the two axes on which non-Butterfly defenses trade differently:
//!
//! * **utility F1** — set-membership F1 of the published itemsets against
//!   the window's closed frequent itemsets. Butterfly and suppression
//!   publish (almost) the whole mining result; PrivBasis's top-k release
//!   pays utility for its ε-DP guarantee, and suppression pays exactly its
//!   side-effect ledger.
//! * **attack MSE** — mean squared error of the adversary's
//!   inclusion–exclusion estimate against each breach's true support,
//!   in supports² (absolute, unlike the relative `avg_prig`). Breaches
//!   whose lattice the adversary cannot complete (suppressed spans) are
//!   counted separately as `estimable`: for suppression a low estimable
//!   count *is* the defense.
//!
//! Publish cost is wall-clock per window over the defense's `publish`
//! call alone (mining is shared and excluded), so the matrix also prices
//! what each defense adds to the hot path.

use crate::runner::WindowTruth;
use bfly_common::Json;
use bfly_core::metrics::{avg_pred, avg_prig, ChainView};
use bfly_core::{BiasScheme, DefenseKind, DefenseSpec, PrivacySpec};
use bfly_inference::derive::derive_pattern_support_f64;
use std::collections::HashSet;
use std::time::Instant;

/// One defense's row of the matrix, averaged over the truth windows.
#[derive(Clone, Debug)]
pub struct DefenseEval {
    /// Registry name of the defense (`DefenseKind::name`).
    pub name: &'static str,
    /// Mean squared relative support error over published itemsets.
    pub avg_pred: f64,
    /// Mean squared relative breach-estimation error (windows with
    /// estimable breaches only).
    pub avg_prig: f64,
    /// Windows contributing to `avg_prig`.
    pub prig_windows: usize,
    /// Total breaches across all windows (defense-independent).
    pub breaches: usize,
    /// Breaches the adversary could form any estimate for.
    pub estimable_breaches: usize,
    /// Mean squared error of the adversary's estimates, in supports².
    pub attack_mse: f64,
    /// Mean per-window membership F1 of published vs. closed itemsets.
    pub utility_f1: f64,
    /// Mean wall-clock microseconds per `publish` call.
    pub publish_us_per_window: f64,
    /// Itemsets suppressed over the run (0 for non-suppressing defenses).
    pub suppressed: u64,
    /// Number of windows evaluated.
    pub windows: usize,
}

impl DefenseEval {
    /// The JSON entry this row contributes to `BENCH_defense.json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("defense", Json::from(self.name)),
            ("avg_pred", Json::from(self.avg_pred)),
            ("avg_prig", Json::from(self.avg_prig)),
            ("prig_windows", Json::from(self.prig_windows as u64)),
            ("breaches", Json::from(self.breaches as u64)),
            (
                "estimable_breaches",
                Json::from(self.estimable_breaches as u64),
            ),
            ("attack_mse", Json::from(self.attack_mse)),
            ("utility_f1", Json::from(self.utility_f1)),
            (
                "publish_us_per_window",
                Json::from(self.publish_us_per_window),
            ),
            ("suppressed", Json::from(self.suppressed)),
            ("windows", Json::from(self.windows as u64)),
        ])
    }
}

/// Publish every truth window under `dspec`'s defense and run the shared
/// attack engine against each release. Mirrors
/// [`crate::runner::evaluate_scheme`]'s previous-window chaining: the
/// adversary completes inter-window lattices with the prior release.
pub fn evaluate_defense(
    truths: &[WindowTruth],
    spec: PrivacySpec,
    scheme: BiasScheme,
    dspec: DefenseSpec,
    seed: u64,
) -> DefenseEval {
    let mut defense = dspec.build(spec, scheme, seed);
    let mut eval = DefenseEval {
        name: dspec.kind.name(),
        avg_pred: 0.0,
        avg_prig: 0.0,
        prig_windows: 0,
        breaches: 0,
        estimable_breaches: 0,
        attack_mse: 0.0,
        utility_f1: 0.0,
        publish_us_per_window: 0.0,
        suppressed: 0,
        windows: truths.len(),
    };
    let mut prev_view = None;
    for truth in truths {
        let start = Instant::now();
        let release = defense.publish(&truth.closed);
        eval.publish_us_per_window += start.elapsed().as_secs_f64() * 1e6;
        let view = release.view();
        eval.avg_pred += avg_pred(&release);
        // Membership utility: published ids vs. the closed mining output.
        let truth_ids: HashSet<_> = truth.closed.iter().map(|e| e.id).collect();
        let hits = release.iter().filter(|e| truth_ids.contains(&e.id)).count();
        let denom = release.len() + truth_ids.len();
        eval.utility_f1 += if denom == 0 {
            1.0
        } else {
            2.0 * hits as f64 / denom as f64
        };
        eval.breaches += truth.breaches.len();
        if let Some(prig) = avg_prig(&truth.breaches, &view, prev_view.as_ref()) {
            eval.avg_prig += prig;
            eval.prig_windows += 1;
        }
        // Absolute attack error over the breaches the adversary can reach.
        let chain = ChainView::new(&view, prev_view.as_ref());
        for b in &truth.breaches {
            let estimate = derive_pattern_support_f64(&chain, &b.base, &b.span)
                .expect("breach bases are subsets of their spans");
            if let Some(est) = estimate {
                let err = est - b.support as f64;
                eval.attack_mse += err * err;
                eval.estimable_breaches += 1;
            }
        }
        prev_view = Some(view);
    }
    let n = truths.len() as f64;
    if !truths.is_empty() {
        eval.avg_pred /= n;
        eval.utility_f1 /= n;
        eval.publish_us_per_window /= n;
    }
    if eval.prig_windows > 0 {
        eval.avg_prig /= eval.prig_windows as f64;
    }
    if eval.estimable_breaches > 0 {
        eval.attack_mse /= eval.estimable_breaches as f64;
    }
    if let Some(stats) = defense.suppression_stats() {
        eval.suppressed = stats.suppressed;
    }
    eval
}

/// Evaluate **every** registered defense against the same truths, in
/// registry order, one at a time: `publish_us_per_window` is a wall-clock
/// figure, and defenses timed concurrently on a two-core host price each
/// other's contention. `base` supplies the shared DP knobs (`dp_budget`,
/// `dp_top_k`); its `kind` is ignored.
pub fn defense_matrix(
    truths: &[WindowTruth],
    spec: PrivacySpec,
    scheme: BiasScheme,
    base: DefenseSpec,
    seed: u64,
) -> Vec<DefenseEval> {
    DefenseKind::ALL
        .iter()
        .map(|&kind| evaluate_defense(truths, spec, scheme, DefenseSpec { kind, ..base }, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{collect_truths, ExperimentConfig};
    use bfly_datagen::DatasetProfile;

    fn tiny() -> (Vec<WindowTruth>, PrivacySpec) {
        let cfg = ExperimentConfig {
            profile: DatasetProfile::WebView1,
            window: 300,
            c: 10,
            k: 3,
            windows: 6,
            seed: 5,
            threads: 0,
        };
        let spec = PrivacySpec::new(cfg.c, cfg.k, 0.1, 0.5);
        (collect_truths(&cfg), spec)
    }

    #[test]
    fn matrix_covers_every_defense_in_registry_order() {
        let (truths, spec) = tiny();
        let rows = defense_matrix(
            &truths,
            spec,
            BiasScheme::Basic,
            DefenseSpec::butterfly(),
            7,
        );
        let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        let expected: Vec<&str> = DefenseKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, expected);
        for row in &rows {
            assert_eq!(row.windows, truths.len());
            assert!((0.0..=1.0).contains(&row.utility_f1), "{row:?}");
            assert!(row.publish_us_per_window >= 0.0);
            assert!(row.estimable_breaches <= row.breaches);
        }
    }

    #[test]
    fn defenses_trade_where_their_designs_say_they_should() {
        let (truths, spec) = tiny();
        let rows = defense_matrix(
            &truths,
            spec,
            BiasScheme::Basic,
            DefenseSpec::butterfly(),
            7,
        );
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        let butterfly = by_name(DefenseKind::Butterfly.name());
        let suppress = by_name(DefenseKind::Suppression.name());
        // Butterfly publishes everything: perfect membership utility.
        assert_eq!(butterfly.utility_f1, 1.0);
        // Suppression publishes exact supports for the survivors...
        assert_eq!(suppress.avg_pred, 0.0);
        // ...and removes the breach spans, so the adversary loses
        // estimators relative to Butterfly's complete view.
        assert!(suppress.estimable_breaches <= butterfly.estimable_breaches);
        if suppress.suppressed > 0 {
            assert!(suppress.utility_f1 < 1.0);
        }
    }

    #[test]
    fn evaluation_is_deterministic_per_seed() {
        let (truths, spec) = tiny();
        let dspec = DefenseSpec::new(DefenseKind::PrivBasis);
        let a = evaluate_defense(&truths, spec, BiasScheme::Basic, dspec, 11);
        let b = evaluate_defense(&truths, spec, BiasScheme::Basic, dspec, 11);
        assert_eq!(a.avg_pred, b.avg_pred);
        assert_eq!(a.attack_mse, b.attack_mse);
        assert_eq!(a.utility_f1, b.utility_f1);
        let c = evaluate_defense(&truths, spec, BiasScheme::Basic, dspec, 12);
        assert!(
            c.avg_pred != a.avg_pred || c.attack_mse != a.attack_mse,
            "different seeds should perturb differently"
        );
    }
}
