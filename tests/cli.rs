//! End-to-end runs of the `spair` binary: every registry method is
//! reachable through `serve`, `query` and `knn`, every answer is checked
//! against local Dijkstra, and an unknown method fails with the
//! registry's own error.

use spair_methods::{MethodRegistry, MethodUnavailable};
use std::process::{Command, Output};

fn spair(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spair"))
        .args(args)
        .output()
        .expect("spair runs")
}

/// Runs `spair` and returns its stdout, failing the test on a non-zero
/// exit.
fn ok(args: &[&str]) -> String {
    let out = spair(args);
    assert!(
        out.status.success(),
        "spair {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn every_registry_method_runs_through_the_cli() {
    let dir = std::env::temp_dir().join(format!("spair-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let map = dir.join("map.gr");
    let map = map.to_str().expect("utf-8 path");
    let args = [
        "--preset", "milan", "--scale", "0.05", "--seed", "7", "-o", map,
    ];
    assert!(ok(&[&["generate"], &args[..]].concat()).contains("nodes"));

    let registry = MethodRegistry::standard();
    for m in registry.all() {
        let d = m.descriptor();
        if d.own_channel {
            let out = ok(&["serve", map, "--method", m.name(), "--regions", "8"]);
            assert!(out.contains("cycle length"), "serve {m}: {out}");
        }
        if !d.knn {
            let query = ["query", map, "--method", m.name(), "--regions", "8"];
            let out = ok(&[&query[..], &["--from", "3", "--to", "200"]].concat());
            assert!(out.contains("verified"), "query {m}: {out}");
        }
    }

    let out = ok(&["knn", map, "--from", "5", "--k", "3", "--poi-every", "10"]);
    assert!(out.contains("verified"), "knn: {out}");

    let out = spair(&[
        "query", map, "--method", "nosuch", "--from", "1", "--to", "2",
    ]);
    assert!(!out.status.success(), "an unknown method must fail");
    let unknown = MethodUnavailable::Unknown("nosuch".into()).to_string();
    assert!(String::from_utf8_lossy(&out.stderr).contains(&unknown));

    std::fs::remove_dir_all(&dir).ok();
}
