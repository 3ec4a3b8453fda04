//! Experiment harness regenerating the Butterfly paper's evaluation
//! (Figures 4–8). The one binary, `bfly-bench`, runs each experiment as a
//! subcommand (`fig4` … `fig8`, `ablation`, `tune`, `soak`, `defbench`):
//! a figure sweeps the same parameters as the paper, prints the series as a
//! text table, and writes CSV under `target/figures/`.
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
pub use reference::{apply_delta, delta_between, publish_from_scratch};
pub use runner::{
    collect_truths, evaluate_cells, evaluate_scheme, EvalResult, ExperimentConfig, WindowTruth,
};
pub use table::{write_csv, Table};
pub use timing::bench;
pub use tuning::{tune_gamma, tune_lambda};
