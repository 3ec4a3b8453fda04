//! `bench` — the serve benchmark.
//!
//! ```text
//! bench run    [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--quick]
//! bench trace  [--workload W] [--seed S] [--seconds N] [--quick]
//! bench repeat [--runs N] [--workload W] [--seconds N] [--quick]
//! ```
//!
//! `run` prints the end-to-end metrics; `trace` (or `run --trace 1`) the
//! per-layer ones; `repeat` is the A/A check. For `run` and `trace` the last
//! line of standard output is one JSON object per workload; everything else
//! goes to standard error.

mod data;
mod drive;
mod host;
mod oracle;
mod procs;
mod repeat;
mod run;
mod spec;
mod stats;
mod trace;
mod tracerun;

use run::{Budget, Env};
use spec::{Workload, END_TO_END, INCARNATIONS, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::process::ExitCode;

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1).peekable();
    let command = match argv.peek() {
        Some(first) if !first.starts_with("--") => argv.next().expect("peeked"),
        _ => "run".to_string(),
    };
    let mut args = Args {
        command,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        runs: 5,
    };
    while let Some(flag) = argv.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = argv
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |what: &str| format!("invalid {what}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(1.0..=60.0).contains(&args.seconds) {
                    return Err(bad("seconds (1 to 60)"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace (0 or 1)")),
                }
            }
            "--runs" => {
                args.runs = value.parse().map_err(|_| bad("runs"))?;
                if args.runs == 0 {
                    return Err(bad("runs (at least 1)"));
                }
            }
            other => {
                return Err(format!(
                "unknown flag {other} (valid: --workload --seed --seconds --trace --quick --runs)"
            ))
            }
        }
    }
    match args.command.as_str() {
        "run" | "repeat" => {}
        "trace" => args.trace = true,
        other => {
            return Err(format!(
                "unknown command {other:?} (valid: run, trace, repeat)"
            ))
        }
    }
    Ok(args)
}

fn selected(args: &Args) -> Result<Vec<&'static Workload>, String> {
    match &args.workload {
        None => Ok(WORKLOADS.iter().collect()),
        Some(name) => spec::workload(name).map(|w| vec![w]).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?} (valid: {})", names.join(", "))
        }),
    }
}

/// The contract's result line, and the same metrics by name on stderr.
fn report(tally: drive::Tally, failure: &Option<String>, metrics: &[(&str, &str, f64)]) -> bool {
    for (name, unit, value) in metrics {
        eprintln!("   {name:<46} {value:>14.4} {unit}");
    }
    if let Some(why) = failure {
        eprintln!(
            "   FAILED ({} of {} operations): {why}",
            tally.failed, tally.attempted
        );
    }
    let correct = tally.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    correct
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| real_main(&args));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main(args: &Args) -> Result<bool, String> {
    let workloads = selected(args)?;
    let root = procs::repo_root();
    // The in-process oracle and replay are single-threaded baselines.
    bfly_common::pool::set_threads(1);
    let env = Env {
        out: procs::out_dir(&root),
        bin: procs::build_butterfly(&root)?,
        cpus: procs::CpuPlan::adopt(),
    };
    if args.command == "repeat" {
        return repeat::repeat(&env, &workloads, args.runs, args.seconds, args.quick);
    }
    let mut all_ok = true;
    for w in workloads {
        eprintln!("== {} (seed {}) — {}", w.name, args.seed, w.why);
        if args.trace {
            let t = tracerun::trace_workload(&env, w, args.seed, args.seconds, args.quick)?;
            for note in &t.notes {
                eprintln!("   {note}");
            }
            let metrics: Vec<(&str, &str, f64)> = PER_LAYER
                .iter()
                .zip(&t.values)
                .map(|(m, v)| (m.name, m.unit, *v))
                .collect();
            all_ok &= report(t.tally, &t.first_failure, &metrics);
            continue;
        }
        let budget = if args.quick {
            Budget::quick()
        } else {
            Budget::for_seconds(w, args.seconds)
        };
        let before = host::probe();
        let result = run::run_workload(&env, w, args.seed, budget, INCARNATIONS)?;
        let after = host::probe();
        for (n, inc) in result.incarnations.iter().enumerate() {
            eprintln!("   incarnation {n}: {}", run::describe(w, inc));
        }
        eprintln!(
            "   all cycles: median {:.0} tx/s, worst {:.0} tx/s; lag p90 {:.3} ms, p99 {:.3} ms",
            result.tx_per_s_median_cycle(w),
            result.tx_per_s_worst_cycle(w),
            result.lag_ms(90.0),
            result.lag_ms(99.0)
        );
        eprintln!("   host before {before:?}");
        eprintln!("   host after  {after:?}");
        let metrics: Vec<(&str, &str, f64)> = END_TO_END
            .iter()
            .zip(result.end_to_end(w))
            .map(|(m, v)| (m.name, m.unit, v))
            .collect();
        all_ok &= report(result.tally, &result.first_failure, &metrics);
    }
    Ok(all_ok)
}
