//! Experiment harness regenerating the Butterfly paper's evaluation
//! (Figures 4–8). Each `fig*` binary sweeps the same parameters as the
//! paper, prints the series as a text table, and writes CSV under
//! `target/figures/`.
//!
//! The harness separates **ground truth collection** (mine each window once,
//! enumerate its inferable vulnerable patterns — independent of scheme and
//! noise level) from **scheme evaluation** (publish the same truth under
//! each scheme/contract and measure), so the expensive attack analysis is
//! amortized across the whole sweep.

pub mod defense;
pub mod record;
pub mod reference;
pub mod runner;
pub mod table;
pub mod timing;
pub mod tuning;

pub use defense::{defense_matrix, evaluate_defense, DefenseEval};
pub use record::{append_run, epoch_seconds, host_cores};
pub use reference::publish_from_scratch;
pub use runner::{
    audit_breaches_scan, audit_breaches_scan_warm, audit_breaches_vertical,
    audit_breaches_vertical_warm, collect_truths, evaluate_cells, evaluate_scheme,
    prepare_audit_replay, support_workload, AuditReplay, EvalResult, ExperimentConfig, WindowTruth,
};
pub use table::{write_csv, Table};
pub use timing::bench;
pub use tuning::{tune_gamma, tune_lambda};

/// `--quick` on a figure binary's command line shrinks the sweep (smaller
/// windows, fewer of them) for smoke runs; default is the paper-scale
/// setting.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// `--threads N` on a figure binary's command line pins the worker count
/// for the parallel phases (otherwise `BFLY_THREADS` or the hardware
/// decides). Returns 0 when absent or malformed.
pub fn threads_flag() -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--threads" {
            return args
                .next()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(0);
        }
    }
    0
}

/// Value of `--<flag> <value>` on the command line, if present.
pub fn arg(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

/// The experiment configuration for a profile, honouring `--quick` and
/// `--threads`.
pub fn figure_config(profile: bfly_datagen::DatasetProfile) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_default(profile);
    if quick_mode() {
        cfg.window = 600;
        cfg.windows = 20;
        cfg.c = 15;
        cfg.k = 3;
    }
    cfg.threads = threads_flag();
    cfg.apply_threads();
    cfg
}
