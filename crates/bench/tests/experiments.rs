//! End-to-end runs of the `experiments` binary on cheap subcommands:
//! every session is checked against its oracle, and the run prints one
//! clean tally line per experiment.

use std::process::Command;

/// Runs `experiments` on a 5% Germany and returns its stdout, failing
/// the test on a non-zero exit.
fn experiments(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .args(["--scale", "0.05", "--queries", "5"])
        .output()
        .expect("experiments runs");
    assert!(
        out.status.success(),
        "experiments {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn point_to_point_and_knn_sessions_are_exact() {
    let out = experiments(&["fig10"]);
    assert!(
        out.contains("tally fig10: 25 exact / 0 wrong / 0 failed"),
        "{out}"
    );

    let out = experiments(&["ablations"]);
    // 5 EB sessions for the cross-border split, 5 kNN sessions.
    assert!(
        out.contains("tally ablations: 10 exact / 0 wrong / 0 failed"),
        "{out}"
    );
}

#[test]
fn an_unknown_experiment_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("fig99")
        .output()
        .expect("experiments runs");
    assert_eq!(out.status.code(), Some(2));
}
