//! Cross-crate integration: the full Butterfly deployment honours its
//! (ε, δ) contract over real streaming workloads.

use butterfly_repro::butterfly::metrics::{avg_pred, avg_prig};
use butterfly_repro::butterfly::{BiasScheme, PrivacySpec, Publisher, StreamPipeline};
use butterfly_repro::datagen::DatasetProfile;
use butterfly_repro::inference::find_intra_window_breaches;
use butterfly_repro::mining::closed::expand_closed;

/// Drive `windows` published windows and return (mean pred, mean prig over
/// windows that had breaches).
fn run(scheme: BiasScheme, delta: f64, ppr: f64, windows: usize, seed: u64) -> (f64, Option<f64>) {
    let spec = PrivacySpec::from_ppr(25, 5, ppr, delta);
    let publisher = Publisher::new(spec, scheme, seed);
    let mut pipeline = StreamPipeline::new(1000, Box::new(publisher));
    let mut stream = DatasetProfile::WebView1.source(seed);
    for _ in 0..999 {
        pipeline.advance(stream.next_transaction());
    }
    let mut pred_sum = 0.0;
    let mut prig_sum = 0.0;
    let mut prig_windows = 0usize;
    for _ in 0..windows {
        for _ in 0..50 {
            pipeline.advance(stream.next_transaction());
        }
        let release = pipeline.publish_now().expect("window is full");
        pred_sum += avg_pred(&release.release);
        // The evaluation oracle: expand closed → full frequent view, find
        // the inferable vulnerable patterns, measure the adversary's error.
        let full = expand_closed(&release.closed);
        let breaches = find_intra_window_breaches(full.as_map(), spec.k());
        if let Some(p) = avg_prig(&breaches, &release.release.view(), None) {
            prig_sum += p;
            prig_windows += 1;
        }
    }
    (
        pred_sum / windows as f64,
        (prig_windows > 0).then(|| prig_sum / prig_windows as f64),
    )
}

#[test]
fn precision_budget_respected_by_all_schemes() {
    for scheme in BiasScheme::paper_variants(2) {
        let (pred, _) = run(scheme, 0.4, 0.04, 30, 11);
        let epsilon = 0.4 * 0.04;
        assert!(
            pred <= epsilon * 1.10,
            "{}: avg_pred {pred} above ε {epsilon}",
            scheme.name()
        );
    }
}

#[test]
fn privacy_floor_met_where_breaches_exist() {
    // avg_prig ≥ δ whenever the analysis finds inferable vulnerable
    // patterns (paper Fig. 4, top row).
    for scheme in [BiasScheme::Basic, BiasScheme::RatioPreserving] {
        for delta in [0.4, 1.0] {
            let (_, prig) = run(scheme, delta, 0.04, 30, 7);
            if let Some(p) = prig {
                assert!(
                    p >= delta * 0.9,
                    "{} at δ={delta}: avg_prig {p} below floor",
                    scheme.name()
                );
            }
        }
    }
}

#[test]
fn basic_scheme_has_lowest_precision_loss() {
    // The paper's Fig. 4 bottom row: basic trades no bias for semantics, so
    // its precision loss is the smallest of the four variants.
    let (basic, _) = run(BiasScheme::Basic, 0.4, 0.4, 25, 3);
    let (ratio, _) = run(BiasScheme::RatioPreserving, 0.4, 0.4, 25, 3);
    let (hybrid, _) = run(
        BiasScheme::Hybrid {
            lambda: 0.4,
            gamma: 2,
        },
        0.4,
        0.4,
        25,
        3,
    );
    assert!(
        basic <= ratio + 1e-6 && basic <= hybrid + 1e-6,
        "basic={basic} ratio={ratio} hybrid={hybrid}"
    );
}

#[test]
fn pipeline_is_deterministic_given_seeds() {
    let a = run(BiasScheme::Basic, 0.4, 0.04, 5, 123);
    let b = run(BiasScheme::Basic, 0.4, 0.04, 5, 123);
    assert_eq!(a, b);
}
