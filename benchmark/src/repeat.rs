//! `bench repeat`: the A/A check. Two interleaved sets (A B A B ...) of runs
//! of the same binary, every run on another seed; per workload and metric
//! both medians, both quartile spreads, and how much worse B's median is
//! than A's, against the bound BENCHMARK.json commits to.

use crate::run::{self, Budget, Env};
use crate::spec::{Workload, END_TO_END, INCARNATIONS};
use crate::stats::{median, spread};

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Returns whether every cell stayed within its bound.
pub fn repeat(
    env: &Env,
    workloads: &[&'static Workload],
    runs: usize,
    seconds: f64,
    quick: bool,
) -> Result<bool, String> {
    // values[workload][set][metric] -> one value per run
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; 2]; workloads.len()];
    let mut failed_ops = 0u64;
    for r in 0..runs {
        for set in 0..2 {
            let seed = (2 * r + set + 1) as u64;
            for (wi, w) in workloads.iter().enumerate() {
                let budget = if quick {
                    Budget::quick()
                } else {
                    Budget::for_seconds(w, seconds)
                };
                let result = run::run_workload(env, w, seed, budget, INCARNATIONS)?;
                failed_ops += result.tally.failed;
                if let Some(why) = &result.first_failure {
                    eprintln!("   {} seed {seed}: FAILED: {why}", w.name);
                }
                for (mi, v) in result.end_to_end(w).into_iter().enumerate() {
                    values[wi][set][mi].push(v);
                }
                eprintln!(
                    "   run {} of {runs}, set {}, {} done",
                    r + 1,
                    ["A", "B"][set],
                    w.name
                );
            }
        }
    }
    let mut ok = failed_ops == 0;
    println!(
        "| workload | metric | median A | median B | spread A | spread B | B worse by | bound |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for (wi, w) in workloads.iter().enumerate() {
        for (mi, def) in END_TO_END.iter().enumerate() {
            let (a, b) = (&values[wi][0][mi], &values[wi][1][mi]);
            let worse = worsening(median(a), median(b), def.higher);
            let within = worse <= def.bound;
            ok &= within;
            println!(
                "| {} | {} | {:.4} | {:.4} | {:.2}% | {:.2}% | {:+.2}%{} | {:.0}% |",
                w.name,
                def.name,
                median(a),
                median(b),
                100.0 * spread(a),
                100.0 * spread(b),
                100.0 * worse,
                if within { "" } else { " (!)" },
                100.0 * def.bound
            );
        }
    }
    if failed_ops > 0 {
        println!("{failed_ops} operations failed");
    }
    Ok(ok)
}
