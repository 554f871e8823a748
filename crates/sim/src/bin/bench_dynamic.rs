//! Dynamic-world matrix runner and `BENCH_dynamic.json` emitter — the
//! live-weight-update trajectory point.
//!
//! ```text
//! cargo run --release -p spair-sim --bin bench_dynamic -- \
//!     [--smoke | --nightly] [--threads N] [--methods a,b,c] \
//!     [--out BENCH_dynamic.json]
//! ```
//!
//! Runs the dynamic matrix — seeded traffic perturbing a world across
//! broadcast cycle versions, every registered air method staying current
//! either by patching its received arena in place (NR, EB, DJ, A*, bidi)
//! or by rebuilding from a fresh full cycle (index-transforming methods)
//! — and differentially verifies **every (version × method) answer
//! against a fresh serial Dijkstra oracle for that version**. A serial
//! rerun must reproduce the parallel run byte-for-byte. **Exits non-zero
//! on any oracle mismatch or determinism break**, so CI can use it as a
//! gate. The JSON also reports whether the anchored incremental methods
//! (NR, EB) stayed current strictly cheaper per version than every
//! whole-cycle method — the partial-tuning advantage the dynamic axis
//! exists to demonstrate. `--methods` accepts only the dynamic-capable
//! methods. Flags, run order and exit codes are the shared ones of
//! `spair_roadnet::certify`.

use spair_roadnet::certify::Tier;
use spair_sim::{
    dynamic_matrix, dynamic_methods, nightly_dynamic_matrix, run_dynamic_matrix,
    smoke_dynamic_matrix, MatrixBench,
};

fn main() {
    MatrixBench {
        bin: "bench_dynamic",
        benchmark: "dynamic_world_matrix",
        artifact: "BENCH_dynamic.json",
        specs_noun: "dynamic scenarios",
        methods: dynamic_methods(),
        specs: |tier| match tier {
            Tier::Smoke => smoke_dynamic_matrix(),
            Tier::Nightly => nightly_dynamic_matrix(),
            Tier::Default => dynamic_matrix(),
        },
        run: run_dynamic_matrix,
        totals: |m, envelope| {
            envelope
                .field("mismatches", m.total(|c| c.tally.wrong))
                .field("all_exact", m.passes())
                .field("partial_tuning_advantage", m.partial_tuning_advantage())
        },
        list: None,
    }
    .main()
}
