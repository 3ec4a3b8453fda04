//! Cross-defense evaluation matrix: every registered [`DefenseKind`]
//! published over the same mined stream, attacked by the same inference
//! engine, and priced on the same publish path. Prints the matrix and
//! appends one run entry to `BENCH_defense.json` (override with `--out`).
//!
//! Usage: `defbench [--quick] [--out PATH]`

use bfly_bench::{append_run, arg, defense_matrix, epoch_seconds, figure_config, quick_mode};
use bfly_common::Json;
use bfly_core::{BiasScheme, DefenseKind, DefenseSpec, PrivacySpec};
use bfly_datagen::DatasetProfile;

fn main() {
    let cfg = figure_config(DatasetProfile::WebView1);
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
    let truths = bfly_bench::collect_truths(&cfg);
    let rows = defense_matrix(&truths, spec, scheme, base, cfg.seed);

    let mut table = bfly_bench::Table::new(
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

    let out = arg("--out").unwrap_or_else(|| "BENCH_defense.json".to_string());
    let run = Json::obj([
        ("ts", Json::from(epoch_seconds())),
        ("quick", Json::Bool(quick_mode())),
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
    append_run(&out, run);
}
