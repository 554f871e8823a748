//! The spair benchmark: four workloads driven from outside the program
//! through the public APIs of the `spair-*` crates, each reporting the
//! paper's §3.1 client costs end to end and, when traced, the layers
//! that spend them. See `README.md` for the workloads and metrics.

pub mod inprocess;
pub mod procstat;
pub mod replay;
pub mod report;
pub mod run;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod updates;
pub mod world;

use report::Report;
use run::{Phase, Run};
use std::path::PathBuf;
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["anchored", "whole_cycle", "updates", "serve_socket"];

/// Session counts of a whole run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcome {
    /// Sessions attempted (warm-up included).
    pub attempted: u64,
    /// Typed, client or socket failures.
    pub failed: u64,
    /// Failures the run tolerates: on `serve_socket`, sessions hit by a
    /// known `fetch_cycle` defect, up to an allowance (see `serve.rs`).
    /// Any other failure fails the run.
    pub tolerated: u64,
    /// Answers that contradicted their oracle.
    pub wrong: u64,
}

impl Outcome {
    /// Adds a phase's sessions.
    pub fn absorb(&mut self, p: &Phase) {
        self.attempted += p.attempted();
        self.failed += p.failed;
        self.wrong += p.wrong;
    }

    /// Whether the run passes: no wrong answer and no failure beyond the
    /// tolerated ones.
    pub fn passed(&self) -> bool {
        self.wrong == 0 && self.failed <= self.tolerated
    }
}

/// Runs one workload, filling `report`.
pub fn run_workload(name: &str, run: &Run, report: &mut Report) -> Result<Outcome, String> {
    match name {
        "anchored" => inprocess::run(run, &inprocess::anchored(run.smoke), report),
        "whole_cycle" => inprocess::run(run, &inprocess::whole_cycle(run.smoke), report),
        "updates" => updates::run(run, &updates::spec(run.smoke), report),
        "serve_socket" => serve::run(run, &serve::spec(run.smoke), report),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Where build products live: `CARGO_TARGET_DIR`, else the package's
/// own `target/`.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
}

/// A fresh per-process directory for files the program under test
/// writes (the daemon's event log); the caller removes it.
pub fn scratch_dir(run: &Run) -> Result<PathBuf, String> {
    let dir = target_dir().join(format!(
        "bench-{}-{}-{}",
        run.workload,
        run.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Writes a traced run's spans (set-up first) as JSON lines.
pub fn write_spans(run: &Run, setup: Tracer, timed: Tracer) -> Result<(), String> {
    let mut all = setup;
    all.absorb(timed);
    let path = run.spans.clone().unwrap_or_else(|| {
        target_dir()
            .join("spans")
            .join(format!("{}-seed{}.jsonl", run.workload, run.seed))
    });
    all.write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("spans: {} in {}", all.spans().len(), path.display());
    Ok(())
}
