//! Deterministic scenario simulation harness and cross-method conformance
//! matrix.
//!
//! The paper's central claim is that the air-index methods compute *exact*
//! shortest paths while trading tuning time, latency and energy. This
//! crate turns that claim into an executable artifact: a seeded
//! [`ScenarioSpec`] describes one simulated world — graph, partitioner
//! (kd-median or uniform-grid splits), loss model (lossless / Bernoulli /
//! Gilbert–Elliott bursty), tune-in distribution, channel rate, device
//! heap budget and a query workload mixing point-to-point,
//! on-edge and kNN queries — and the engine drives **every client method**
//! (`nr`, `eb`, `dj`, `ld`, `af`, `spq_air`, `hiti_air`, the §6.1
//! memory-bound variant and the §8 kNN client) through it, differentially
//! verifying each answer against a serial Dijkstra oracle.
//!
//! Which methods exist is no longer this crate's business: the engine
//! iterates `spair_methods::MethodRegistry` and dispatches every cell by
//! the method's declared capabilities, so registering a new
//! `BroadcastMethod` (one file + one registry line) adds a conformance
//! matrix column with zero edits here.
//!
//! Every session — here, in the chaos and dynamic matrices, in the load
//! harness, in the `spair` CLI and in `experiments` — runs through one
//! driver, [`drive()`]: it tunes a channel in, supervises the attempts
//! and returns one oracle verdict with the session's cost. Every matrix
//! cell folds its sessions into one [`Tally`].
//!
//! Results aggregate into a [`ConformanceMatrix`] of (scenario × method)
//! cells carrying the §3.1 cost factors plus a radio energy figure. The
//! conformance, chaos, dynamic and load reports are all one generic
//! [`Matrix`] over their row types, which supplies the certificate, the
//! totals and the gate. The independent cells fan out across threads via
//! the deterministic chunk-ordered map-reduce of `spair_roadnet::parallel`,
//! so a matrix is **bit-identical for every thread count** — certified by
//! its [`Certified::digest`](spair_roadnet::certify::Certified::digest).
//!
//! ```text
//! cargo run --release -p spair-sim --bin bench_scenarios
//! ```
//! runs the default matrix and emits `BENCH_scenarios.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drive;
pub mod dynamic;
pub mod engine;
pub mod faults;
pub mod matrix;
pub mod report;
pub mod spec;
pub mod traffic;

pub use drive::{drive, open, Device, Driven, FaultSource, Tally, Tune, Verdict, FAULT_BUDGET};
pub use dynamic::{
    dynamic_matrix, dynamic_methods, nightly_dynamic_matrix, run_dynamic_cell, run_dynamic_matrix,
    smoke_dynamic_matrix, DynamicCellReport, DynamicContext, DynamicMatrix, DynamicSpec,
};
pub use engine::{knn_item, p2p_item, run_cell, run_matrix, ScenarioContext, WorkItem};
pub use faults::{
    fault_matrix, nightly_fault_matrix, run_fault_cell, run_fault_matrix, smoke_fault_matrix,
    FaultCellReport, FaultMatrix,
};
pub use matrix::{default_matrix, nightly_matrix, smoke_matrix};
pub use report::{CellReport, ConformanceMatrix, Gate, Matrix, MatrixBench, Row};
pub use spair_methods::{
    MethodDescriptor, MethodId, MethodRegistry, MethodUnavailable, SessionShape,
};
pub use spec::{
    FaultSpec, GraphSpec, LossSpec, PartitionerKind, ScenarioSpec, TuneInSpec, WorkloadMix,
};
pub use traffic::{network_at, version_deltas, weight_at, TrafficSpec};
