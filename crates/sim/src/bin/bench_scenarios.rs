//! Conformance-matrix runner and `BENCH_scenarios.json` emitter — the
//! scenario-coverage trajectory point.
//!
//! ```text
//! cargo run --release -p spair-sim --bin bench_scenarios -- \
//!     [--smoke | --nightly] [--threads N] [--methods a,b,c] \
//!     [--list-methods] [--out BENCH_scenarios.json]
//! ```
//!
//! Runs the default matrix (or the small `--smoke` gate) over **every
//! registered client method** — the column set comes from
//! `spair_methods::MethodRegistry`, so newly registered methods appear
//! without edits here — verifies each answer against the serial Dijkstra
//! oracle, re-runs the matrix serially to certify the parallel fan-out is
//! bit-identical, and writes the measurements as JSON. `--methods`
//! restricts the columns to a comma-separated name list (CI uses it to
//! pin the nine legacy methods' digest across refactors);
//! `--list-methods` prints the registry and exits. **Exits non-zero on
//! any conformance mismatch or determinism break**, so CI can use it as
//! a gate. Flags, run order and exit codes are the shared ones of
//! `spair_roadnet::certify`.

use spair_roadnet::certify::Tier;
use spair_sim::{
    default_matrix, nightly_matrix, run_matrix, smoke_matrix, MatrixBench, MethodId, MethodRegistry,
};

fn list_methods(methods: &[MethodId]) -> String {
    let mut out = format!(
        "{:<3} {:<14} {:<12} {:<11} {}\n",
        "#", "name", "label", "shape", "capabilities"
    );
    for &m in methods {
        let d = m.descriptor();
        let mut caps: Vec<&str> = Vec::new();
        if d.air_client {
            caps.push("air_client");
        }
        if d.knn {
            caps.push("knn");
        }
        if d.on_edge {
            caps.push("on_edge");
        }
        if d.population_replayable {
            caps.push("replayable");
        }
        if !d.own_channel {
            caps.push("no_own_channel");
        }
        out.push_str(&format!(
            "{:<3} {:<14} {:<12} {:<11} {}\n",
            d.ordinal,
            d.name,
            d.label,
            d.shape.map(|s| format!("{s:?}")).unwrap_or_default(),
            caps.join(","),
        ));
    }
    out
}

fn main() {
    MatrixBench {
        bin: "bench_scenarios",
        benchmark: "scenario_conformance_matrix",
        artifact: "BENCH_scenarios.json",
        specs_noun: "scenarios",
        methods: MethodRegistry::standard().all(),
        specs: |tier| match tier {
            Tier::Smoke => smoke_matrix(),
            Tier::Nightly => nightly_matrix(),
            Tier::Default => default_matrix(),
        },
        run: run_matrix,
        totals: |m, envelope| {
            envelope
                .field("mismatches", m.total(|c| c.mismatches()))
                .field("all_exact", m.passes())
        },
        // The run's own column set is logged (not the whole registry), so
        // restricted runs (`--methods`) stay self-documenting.
        list: Some(list_methods),
    }
    .main()
}
