//! `parbench` — measures the one parallel stage the workspace kept
//! (`evaluate_cells`) against its own serial path, and the vertical
//! support-counting engine against the naive scan path. Appends one
//! timestamped run entry per invocation to `BENCH_parallel.json` (the
//! parallel stage) and `BENCH_support.json` (counting stages), so the perf
//! trajectory across changes is preserved.
//!
//! The parallel stage runs the identical workload at 1 worker and at the
//! full worker count (in-process, via `pool::set_threads`), takes the
//! median of `--reps` repetitions, and reports the speedup. Because the
//! workspace's determinism contract makes thread count a pure throughput
//! knob, the two runs produce bit-identical results — only the wall clock
//! differs. Each counting stage runs the identical workload through the
//! per-transaction scan baseline and through the tid-bitmap vertical path.
//!
//! Run: `cargo run --release -p bfly-bench --bin parbench`
//!       `[--reps <R>] [--out <path.json>] [--support-out <path.json>]`

use bfly_bench::{
    append_run, arg, audit_breaches_scan_warm, audit_breaches_vertical_warm, collect_truths,
    epoch_seconds, evaluate_cells, prepare_audit_replay, support_workload, ExperimentConfig,
};
use bfly_common::{pool, Json, Support, TidScratch, VerticalIndex};
use bfly_core::{BiasScheme, PrivacySpec};
use bfly_datagen::DatasetProfile;
use std::time::Instant;

/// Median wall-clock of `reps` runs of `f`, in milliseconds.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Counting workloads run well under a millisecond; one timer read per
/// call would be all jitter. Each rep times this many back-to-back passes
/// and reports per-pass milliseconds.
const COUNT_PASSES: usize = 64;

/// Best per-pass wall-clock of `reps` multi-pass runs of `f`, in
/// milliseconds. Minimum, not median: on a shared host the interference
/// is strictly additive, so the fastest rep is the closest observation of
/// the code's actual cost — and the stable one to compare paths with.
fn best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..COUNT_PASSES {
                std::hint::black_box(f());
            }
            start.elapsed().as_secs_f64() * 1e3 / COUNT_PASSES as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Time one stage at 1 thread and at `n` threads; print and record a row.
/// The row records the worker count actually installed for the `tn_ms`
/// measurement (read back from the pool, not assumed).
fn stage<T>(name: &str, reps: usize, n: usize, mut f: impl FnMut() -> T) -> Json {
    pool::set_threads(1);
    let t1 = median_ms(reps, &mut f);
    pool::set_threads(n);
    let workers = pool::current_threads();
    let tn = median_ms(reps, &mut f);
    pool::set_threads(0);
    let speedup = t1 / tn.max(1e-9);
    println!(
        "{name:<18} 1 thread {t1:>9.2} ms   {workers} threads {tn:>9.2} ms   speedup {speedup:.2}x"
    );
    Json::obj([
        ("name", Json::from(name)),
        ("t1_ms", Json::from(t1)),
        ("tn_ms", Json::from(tn)),
        ("workers", Json::from(workers as u64)),
        ("speedup", Json::from(speedup)),
    ])
}

/// Time one counting workload through the scan baseline and through the
/// vertical tid-bitmap path.
fn counting_stage<S, V>(
    name: &str,
    reps: usize,
    mut scan: impl FnMut() -> S,
    mut vertical: impl FnMut() -> V,
) -> Json {
    let scan_ms = best_ms(reps, &mut scan);
    let vertical_ms = best_ms(reps, &mut vertical);
    let speedup = scan_ms / vertical_ms.max(1e-9);
    println!(
        "{name:<18} scan {scan_ms:>11.2} ms   vertical {vertical_ms:>9.2} ms   vs scan {speedup:.2}x"
    );
    Json::obj([
        ("name", Json::from(name)),
        ("scan_ms", Json::from(scan_ms)),
        ("vertical_ms", Json::from(vertical_ms)),
        ("speedup", Json::from(speedup)),
    ])
}

fn main() {
    // --quick shrinks every workload to CI-smoke size: same stages, same
    // schema, a few seconds total. Used by check.sh as a smoke run.
    let quick = std::env::args().any(|a| a == "--quick");
    let default_reps = if quick { 1 } else { 5 };
    let reps: usize = arg("--reps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_reps);
    let out = arg("--out").unwrap_or_else(|| "BENCH_parallel.json".to_string());
    let support_out = arg("--support-out").unwrap_or_else(|| "BENCH_support.json".to_string());
    pool::set_threads(0);
    let n = pool::current_threads();
    println!(
        "parbench: {reps} reps per point, full worker count = {n}{}",
        if quick { " (quick)" } else { "" }
    );

    let cfg = ExperimentConfig {
        profile: DatasetProfile::WebView1,
        window: if quick { 300 } else { 600 },
        c: 12,
        k: 3,
        windows: if quick { 6 } else { 12 },
        seed: 17,
        threads: 0,
    };
    // Sweep-cell evaluation: the fig4/fig5/fig7 inner loop, one publisher
    // per (spec, scheme, seed) cell.
    let truths = collect_truths(&cfg);
    let spec = PrivacySpec::new(cfg.c, cfg.k, 0.1, 0.5);
    let cells: Vec<(PrivacySpec, BiasScheme, u64)> = (0..4u64)
        .flat_map(|s| {
            [
                (spec, BiasScheme::Basic, s),
                (spec, BiasScheme::RatioPreserving, 10 + s),
                (
                    spec,
                    BiasScheme::Hybrid {
                        lambda: 0.4,
                        gamma: 2,
                    },
                    20 + s,
                ),
            ]
        })
        .collect();
    let rows = vec![stage("evaluate_cells", reps, n, || {
        evaluate_cells(&truths, &cells)
    })];

    append_run(
        &out,
        Json::obj([
            ("ts", Json::from(epoch_seconds())),
            ("workers", Json::from(n as u64)),
            ("reps", Json::from(reps as u64)),
            ("stages", Json::Arr(rows)),
        ]),
    );

    // ------ Vertical vs. scan support counting (serial, algorithmic) ------

    // The counting stages price the counting engine at the window sizes it
    // targets (stream-rate windows, not the figure-reproduction default of
    // 600): at W=600 a bitmap is 10 words and any loop shape is a handful
    // of nanoseconds; at W=2400 it is 38 words per operand and the word
    // loops are what the clock sees. The support family records its
    // workload geometry (`window`) on the run entry.
    let count_cfg = ExperimentConfig {
        window: if quick { 600 } else { 2400 },
        c: if quick { 12 } else { 48 },
        windows: if quick { 4 } else { 12 },
        // Breach volume scales with k (the truth audit verifies ~k·C/3
        // patterns per window); a paper-like K/C ratio keeps the audit
        // dominated by counting rather than per-window bookkeeping.
        k: if quick { cfg.k } else { 12 },
        ..cfg
    };

    // Positive itemset supports: every frequent itemset of the window,
    // counted by the per-transaction subset scan and by
    // intersect-and-popcount over a standing vertical index. The index is
    // built once outside the clock: in the pipeline it is delta-maintained
    // across slides, never rebuilt per query batch, so charging the
    // transposition per pass (as this stage once did) priced work the
    // deployed path doesn't repeat — and buried the counting loops this
    // stage exists to compare.
    let (db, itemsets) = support_workload(&count_cfg);
    println!(
        "support workload: {} records, {} itemsets",
        db.len(),
        itemsets.len()
    );
    let index = VerticalIndex::of_database(&db);
    let mut counting_rows = Vec::new();
    counting_rows.push(counting_stage(
        "support_counting",
        reps,
        || db.supports(itemsets.iter()),
        || {
            let mut scratch = TidScratch::new();
            itemsets
                .iter()
                .map(|i| index.support(i, &mut scratch))
                .collect::<Vec<Support>>()
        },
    ));

    // Ground-truth pattern counting: re-verify every enumerated breach of
    // every truth window against the raw stream, once via the incrementally
    // maintained vertical oracle and once via per-window database scans.
    // The stream replay and per-window snapshots are paid once, outside the
    // clock (a deployment maintains these structures incrementally across
    // slides; it never replays the stream from t=0 per audit), so the timed
    // region is pure per-pattern counting over identical window contents.
    // The audit's per-pattern fixed costs (per-item tidset lookups, operand
    // marshalling) are tens of nanoseconds; at W=2400 so are the word
    // loops. Auditing at W=6400 (100 words per operand) keeps the clock on
    // the counting loops.
    let truth_cfg = ExperimentConfig {
        window: if quick { 600 } else { 6400 },
        windows: if quick { 4 } else { 8 },
        ..count_cfg
    };
    let count_truths = collect_truths(&truth_cfg);
    let scan_replay = prepare_audit_replay(&truth_cfg, &count_truths);
    let mut vertical_replay = scan_replay.clone();
    counting_rows.push(counting_stage(
        "truth_counting",
        reps,
        || audit_breaches_scan_warm(&scan_replay, &count_truths),
        || audit_breaches_vertical_warm(&mut vertical_replay, &count_truths),
    ));

    // Wide-window counting: the regime the cache-blocked kernels exist
    // for. At W=600 a bitmap is 10 words and the loop shape barely
    // matters; at W=6400 it is 100 words per operand and multi-itemset
    // probes stream 4 KiB blocks of every operand through L1 once. The
    // index is built once outside the clock — this stage prices pure
    // counting, where the kernels actually run, not transposition.
    let wide_cfg = ExperimentConfig {
        window: if quick { 1600 } else { 6400 },
        c: if quick { 40 } else { 120 },
        ..cfg
    };
    let (wide_db, wide_itemsets) = support_workload(&wide_cfg);
    println!(
        "wide workload: {} records, {} itemsets",
        wide_db.len(),
        wide_itemsets.len()
    );
    let wide_index = VerticalIndex::of_database(&wide_db);
    counting_rows.push(counting_stage(
        "support_counting_wide",
        reps,
        || wide_db.supports(wide_itemsets.iter()),
        || {
            let mut scratch = TidScratch::new();
            wide_itemsets
                .iter()
                .map(|i| wide_index.support(i, &mut scratch))
                .collect::<Vec<Support>>()
        },
    ));

    append_run(
        &support_out,
        Json::obj([
            ("ts", Json::from(epoch_seconds())),
            ("workers", Json::from(n as u64)),
            ("reps", Json::from(reps as u64)),
            ("window", Json::from(count_cfg.window as u64)),
            ("truth_window", Json::from(truth_cfg.window as u64)),
            ("wide_window", Json::from(wide_cfg.window as u64)),
            ("stages", Json::Arr(counting_rows)),
        ]),
    );
}
