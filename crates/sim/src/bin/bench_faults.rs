//! Chaos-matrix runner and `BENCH_faults.json` emitter — the
//! never-wrong-only-late-or-typed certificate.
//!
//! ```text
//! cargo run --release -p spair-sim --bin bench_faults -- \
//!     [--smoke | --nightly] [--threads N] [--methods a,b,c] \
//!     [--out BENCH_faults.json]
//! ```
//!
//! Runs the chaos matrix — every fault class of the broadcast fault
//! layer, over every registered client method — through bounded-recovery
//! supervised sessions, and certifies per cell that **no produced answer
//! ever contradicts the serial Dijkstra oracle**, that every give-up is
//! a typed `SessionError`, and that every session terminated within the
//! recovery budget. A serial rerun must reproduce the parallel run
//! byte-for-byte (same digest for every thread count). **Exits non-zero
//! on any wrong answer, budget violation or determinism break**, so CI
//! can use it as a gate. Flags, run order and exit codes are the shared
//! ones of `spair_roadnet::certify`.

use spair_roadnet::certify::Tier;
use spair_sim::{
    fault_matrix, nightly_fault_matrix, run_fault_matrix, smoke_fault_matrix, MatrixBench,
    MethodRegistry,
};

fn main() {
    MatrixBench {
        bin: "bench_faults",
        benchmark: "fault_chaos_matrix",
        artifact: "BENCH_faults.json",
        specs_noun: "fault scenarios",
        methods: MethodRegistry::standard().all(),
        specs: |tier| match tier {
            Tier::Smoke => smoke_fault_matrix(),
            Tier::Nightly => nightly_fault_matrix(),
            Tier::Default => fault_matrix(),
        },
        run: run_fault_matrix,
        totals: |m, envelope| {
            envelope
                .field("wrong_answers", m.total(|c| c.tally.wrong))
                .field("typed_failures", m.total(|c| c.tally.typed()))
                .field("never_wrong_only_late_or_typed", m.passes())
        },
        list: None,
    }
    .main()
}
