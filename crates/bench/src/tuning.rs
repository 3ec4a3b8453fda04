//! Automatic tuning of γ and λ — §VII-B's "Tuning of Parameters" discussion
//! turned into code.
//!
//! The paper tunes by hand from plots: γ is picked at the knee of the
//! ropp-vs-γ curve (2–3 on both datasets), and λ from the rrpp-vs-ropp
//! frontier given how much ratio preservation one will sacrifice. These
//! functions automate both decisions from a sample of window truths.

use crate::runner::{evaluate_scheme, WindowTruth};
use bfly_core::{BiasScheme, PrivacySpec};

/// Pick the smallest γ whose marginal `avg_ropp` gain over γ−1 drops below
/// `min_gain` — the knee of Fig 6. Larger γ costs `grid^γ` DP states, so the
/// knee is where to stop.
pub fn tune_gamma(
    truths: &[WindowTruth],
    spec: PrivacySpec,
    max_gamma: usize,
    min_gain: f64,
) -> usize {
    assert!(max_gamma >= 1, "need at least γ = 1 to compare against 0");
    assert!(min_gain >= 0.0, "min_gain must be non-negative");
    let mut prev =
        evaluate_scheme(truths, spec, BiasScheme::OrderPreserving { gamma: 0 }, 1).avg_ropp;
    let mut best = 0usize;
    for gamma in 1..=max_gamma {
        let ropp = evaluate_scheme(truths, spec, BiasScheme::OrderPreserving { gamma }, 1).avg_ropp;
        if ropp - prev < min_gain {
            break;
        }
        best = gamma;
        prev = ropp;
    }
    // γ = 0 means "no DP at all"; the smallest useful depth is 1.
    best.max(1)
}

/// Pick λ maximizing a weighted sum of **range-normalized** ropp and rrpp
/// over a candidate grid — the frontier scan of Fig 7 with the user's
/// utility weights made explicit. Normalization (each metric rescaled to
/// `[0,1]` across the grid's achievable values) matters because rrpp's
/// dynamic range is ~10× ropp's; without it any mixed weight is swamped by
/// rrpp, which is not how the paper reads its tradeoff plots.
/// `order_weight = 1` degenerates to pure order preservation, `0` to pure
/// ratio preservation.
pub fn tune_lambda(
    truths: &[WindowTruth],
    spec: PrivacySpec,
    gamma: usize,
    order_weight: f64,
    grid: &[f64],
) -> f64 {
    assert!(
        (0.0..=1.0).contains(&order_weight),
        "order_weight must be in [0,1]"
    );
    assert!(!grid.is_empty(), "empty λ grid");
    let results: Vec<(f64, f64, f64)> = grid
        .iter()
        .map(|&lambda| {
            assert!(
                (0.0..=1.0).contains(&lambda),
                "λ grid values must be in [0,1]"
            );
            let r = evaluate_scheme(truths, spec, BiasScheme::Hybrid { lambda, gamma }, 1);
            (lambda, r.avg_ropp, r.avg_rrpp)
        })
        .collect();
    let normalize = |values: Vec<f64>| -> Vec<f64> {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if hi - lo < 1e-12 {
            vec![1.0; values.len()] // flat metric: indifferent
        } else {
            values.iter().map(|v| (v - lo) / (hi - lo)).collect()
        }
    };
    let ropp_n = normalize(results.iter().map(|r| r.1).collect());
    let rrpp_n = normalize(results.iter().map(|r| r.2).collect());
    let mut best = (f64::NEG_INFINITY, results[0].0);
    for (i, &(lambda, _, _)) in results.iter().enumerate() {
        let utility = order_weight * ropp_n[i] + (1.0 - order_weight) * rrpp_n[i];
        if utility > best.0 {
            best = (utility, lambda);
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{collect_truths, ExperimentConfig};
    use bfly_datagen::DatasetProfile;

    fn sample_truths() -> Vec<WindowTruth> {
        collect_truths(&ExperimentConfig {
            profile: DatasetProfile::WebView1,
            window: 400,
            c: 12,
            k: 3,
            windows: 6,
            seed: 11,
            threads: 0,
        })
    }

    #[test]
    fn gamma_knee_is_small_on_realistic_data() {
        let truths = sample_truths();
        let spec = PrivacySpec::new(12, 3, 0.1, 0.5);
        let gamma = tune_gamma(&truths, spec, 5, 0.002);
        // The paper's finding: 1..=3 suffices.
        assert!((1..=3).contains(&gamma), "tuned γ = {gamma}");
    }

    #[test]
    fn lambda_tracks_the_utility_weights() {
        let truths = sample_truths();
        let spec = PrivacySpec::new(12, 3, 0.1, 0.5);
        let grid = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
        let order_heavy = tune_lambda(&truths, spec, 2, 1.0, &grid);
        let ratio_heavy = tune_lambda(&truths, spec, 2, 0.0, &grid);
        // Caring only about order must never pick a smaller λ than caring
        // only about ratio.
        assert!(
            order_heavy >= ratio_heavy,
            "order-heavy λ {order_heavy} < ratio-heavy λ {ratio_heavy}"
        );
        // And the extremes are genuinely pulled apart on real data.
        assert!(ratio_heavy <= 0.4);
    }

    #[test]
    #[should_panic(expected = "order_weight")]
    fn bad_weight_rejected() {
        tune_lambda(&[], PrivacySpec::new(12, 3, 0.1, 0.5), 2, 1.5, &[0.5]);
    }
}
