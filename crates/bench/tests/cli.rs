//! The `bfly-bench` command line: a typo'd subcommand, flag or value is an
//! error naming the valid set, never a silently different experiment.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bfly-bench"))
        .args(args)
        .output()
        .expect("run bfly-bench")
}

fn refused(args: &[&str]) -> String {
    let out = run(args);
    assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
    assert!(out.stdout.is_empty(), "{args:?} ran something");
    String::from_utf8(out.stderr).unwrap()
}

#[test]
fn typos_are_refused_with_the_valid_set() {
    let err = refused(&["fig4", "--quik"]);
    assert!(err.contains("unknown flag --quik for fig4"), "got: {err}");
    assert!(err.contains("--quick"), "should list valid flags: {err}");

    let err = refused(&["fig9"]);
    assert!(
        err.contains(
            "unknown command \"fig9\" (valid: fig4, fig5, fig6, fig7, fig8, ablation, tune, soak, defbench)"
        ),
        "got: {err}"
    );

    let err = refused(&["fig4", "--threads", "two"]);
    assert!(err.contains("invalid --threads \"two\""), "got: {err}");

    // Flags belong to the subcommands that read them.
    let err = refused(&["soak", "--threads", "2"]);
    assert!(
        err.contains("unknown flag --threads for soak"),
        "got: {err}"
    );
    let err = refused(&["fig6", "--threads", "2"]);
    assert!(
        err.contains("unknown flag --threads for fig6"),
        "got: {err}"
    );
    let err = refused(&["fig6", "--out", "x.json"]);
    assert!(err.contains("unknown flag --out for fig6"), "got: {err}");
    let err = refused(&["fig4", "quick"]);
    assert!(err.contains("unexpected positional argument"), "got: {err}");
    let err = refused(&["defbench", "--out"]);
    assert!(err.contains("flag --out needs a value"), "got: {err}");
    refused(&[]);
}

#[test]
fn help_lists_every_subcommand_and_exits_zero() {
    let out = run(&["help"]);
    assert!(out.status.success());
    let usage = String::from_utf8(out.stdout).unwrap();
    for sub in [
        "fig4", "fig5", "fig6", "fig7", "fig8", "ablation", "tune", "soak", "defbench",
    ] {
        assert!(
            usage.contains(&format!("bfly-bench {sub} ")),
            "{sub}: {usage}"
        );
    }
}
