//! Integration: the parallel execution layer never changes results.
//!
//! The full fig4-style pipeline — ground-truth collection, sweep-cell
//! evaluation (the one stage that still fans out over the pool), and a
//! stateful `Publisher` release sequence — must produce identical truths,
//! breach lists, releases, and metrics at every thread count. This is the
//! workspace's determinism contract: thread count is a throughput knob,
//! never a semantics knob.

use bfly_bench::{collect_truths, evaluate_cells, EvalResult, ExperimentConfig, WindowTruth};
use butterfly_repro::butterfly::{BiasScheme, PrivacySpec, Publisher};
use butterfly_repro::common::pool;
use butterfly_repro::common::{ItemSet, SanitizedSupport, Support};
use butterfly_repro::datagen::DatasetProfile;

/// One published window, flattened into plain comparable values.
type FlatRelease = Vec<(ItemSet, Support, SanitizedSupport)>;

struct PipelineOutput {
    truths: Vec<WindowTruth>,
    cells: Vec<EvalResult>,
    releases: Vec<FlatRelease>,
}

/// Run the whole pipeline at a pinned thread count.
fn run_pipeline(threads: usize) -> PipelineOutput {
    let cfg = ExperimentConfig {
        profile: DatasetProfile::WebView1,
        window: 300,
        c: 10,
        k: 3,
        windows: 8,
        seed: 7,
        threads,
    };
    cfg.apply_threads();
    let truths = collect_truths(&cfg);

    let spec = PrivacySpec::new(cfg.c, cfg.k, 0.1, 0.5);
    let sweep = vec![
        (spec, BiasScheme::Basic, 1u64),
        (spec, BiasScheme::RatioPreserving, 2),
        (spec, BiasScheme::OrderPreserving { gamma: 2 }, 3),
        (
            spec,
            BiasScheme::Hybrid {
                lambda: 0.4,
                gamma: 2,
            },
            4,
        ),
    ];
    let cells = evaluate_cells(&truths, &sweep);

    // A deployed release sequence: one stateful publisher carrying its
    // republication cache across all windows (the order DP runs inside).
    let mut publisher = Publisher::new(
        spec,
        BiasScheme::Hybrid {
            lambda: 0.4,
            gamma: 2,
        },
        99,
    );
    let releases = truths
        .iter()
        .map(|t| {
            publisher
                .publish(&t.closed)
                .iter()
                .map(|e| (e.itemset().clone(), e.true_support, e.sanitized))
                .collect()
        })
        .collect();

    PipelineOutput {
        truths,
        cells,
        releases,
    }
}

#[test]
fn threads_do_not_change_results() {
    let baseline = run_pipeline(1);
    assert!(
        baseline.truths.iter().any(|t| !t.breaches.is_empty()),
        "pipeline found no breaches; the determinism check would be vacuous"
    );

    for threads in [2usize, 8] {
        let run = run_pipeline(threads);
        assert_eq!(run.truths.len(), baseline.truths.len());
        for (i, (a, b)) in run.truths.iter().zip(&baseline.truths).enumerate() {
            assert_eq!(
                a.closed, b.closed,
                "window {i}: mining output changed at {threads} threads"
            );
            assert_eq!(
                a.breaches, b.breaches,
                "window {i}: breach list changed at {threads} threads"
            );
        }
        for (i, (a, b)) in run.cells.iter().zip(&baseline.cells).enumerate() {
            // Bit-exact, not approximate: the reductions are ordered.
            assert_eq!(a.avg_pred.to_bits(), b.avg_pred.to_bits(), "cell {i} pred");
            assert_eq!(a.avg_prig.to_bits(), b.avg_prig.to_bits(), "cell {i} prig");
            assert_eq!(a.avg_ropp.to_bits(), b.avg_ropp.to_bits(), "cell {i} ropp");
            assert_eq!(a.avg_rrpp.to_bits(), b.avg_rrpp.to_bits(), "cell {i} rrpp");
            assert_eq!(a.prig_windows, b.prig_windows, "cell {i} prig_windows");
            assert_eq!(a.breaches, b.breaches, "cell {i} breach count");
        }
        assert_eq!(
            run.releases, baseline.releases,
            "release sequence changed at {threads} threads"
        );
    }

    // Leave the process-wide pool setting as other tests expect it.
    pool::set_threads(0);
}
