//! Population-scale broadcast-serving load harness.
//!
//! The paper's defining argument for air indexes is that a broadcast
//! server's cost is **independent of the client count** — one cycle on
//! the air serves a million tuned-in devices as cheaply as one. The
//! conformance matrix (`spair-sim`) certifies exactness per method; this
//! crate adds the scale story: [`harness::prepare`] expands each
//! [`LoadSpec`] into one shared world per scenario, and [`harness::run`]
//! tunes **N seeded clients** (10^4–10^6) in at random cycle offsets
//! against the shared air cycle of every (scenario × method) cell.
//!
//! Lossless populations replay exactly from per-anchor session profiles
//! (O(1) per client — see [`harness`] for why that is exact, and the
//! `replay_matches_real_sessions` tests for the proof); lossy
//! populations run full per-client sessions. Either way, results fold
//! into streaming fixed-bucket histograms ([`hist`]) yielding
//! p50/p95/p99/max access latency, tuning time and radio energy in
//! O(buckets) memory, merged deterministically so reports are
//! bit-identical for every thread count.
//!
//! ```text
//! cargo run --release -p spair-load --bin bench_load
//! ```
//! serves the default matrix (a ~100k-node "germany-class" network with
//! 120k clients per method, plus mid-scale and lossy cells) and emits
//! `BENCH_load.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod hist;
pub mod report;
pub mod socket;
pub mod spec;

pub use harness::{prepare, run, session_shape, PreparedCell, PreparedLoad};
pub use hist::StreamingHistogram;
pub use report::{LoadCellReport, LoadFaultSummary, LoadReport, PercentileSummary};
pub use socket::{
    run_socket_bench, socket_scenario, SocketBenchConfig, SocketCellReport, SocketReport,
};
pub use spair_methods::SessionShape;
pub use spec::{
    default_load_matrix, override_flash_population, paper_scale_graph, smoke_load_matrix, LoadSpec,
    LoadSpecError, PAPER_SCALE_BASE_NODES,
};
