//! Road-network graph substrate for the air-index reproduction.
//!
//! A road network (paper §2.1) is a directed weighted graph `G = (V, E)`
//! where every node carries planar coordinates and every edge a non-negative
//! `u32` weight (length, travel time, toll, ...). This crate provides:
//!
//! * [`RoadNetwork`] — a compact CSR (compressed sparse row) representation
//!   with forward and reverse adjacency, built through [`GraphBuilder`];
//! * shortest-path machinery: [`dijkstra`] (full / target-pruned / bounded /
//!   subgraph-restricted), [`bidirectional`] search, and
//!   [`ShortestPathTree`] utilities for path extraction and tree DP;
//! * [`generators`] — synthetic road networks with road-like topology and
//!   presets matching the five networks evaluated in the paper;
//! * [`io`] — a DIMACS-like text format so real datasets can be dropped in;
//! * [`snap`] — nearest-node snapping for arbitrary (off-node) locations;
//! * [`peel`] — the all-sources kernel every per-source server build runs:
//!   one search per source over the 2-core, dangling trees filled around it.
//!
//! All randomness is seeded; everything in this crate is deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_out;
pub mod bidirectional;
pub mod certify;
pub mod dijkstra;
pub mod first_hop;
pub mod generators;
pub mod graph;
pub mod heap;
pub mod io;
pub mod parallel;
pub mod peel;
pub mod snap;
pub mod split;
pub mod sptree;

pub use bidirectional::{bidirectional_distance, bidirectional_search_paths};
pub use dijkstra::{
    dijkstra_distance, dijkstra_filtered, dijkstra_full, dijkstra_to_target, DijkstraOptions,
    QueuePolicy, SearchStats,
};
pub use first_hop::{first_hops_from_source_tree, first_hops_from_tree, NO_FIRST_HOP};
pub use generators::{GeneratorConfig, NetworkPreset};
pub use graph::{EdgeId, GraphBuilder, NodeId, Point, RoadNetwork, Weight};
pub use heap::MinHeap;
pub use snap::NodeLocator;
pub use split::{insert_positions, EdgePosition};
pub use sptree::ShortestPathTree;

/// Graph distance accumulator type.
///
/// Edge weights are `u32`; path distances accumulate in `u64` so that no
/// realistic path can overflow. `DIST_INF` marks unreachable nodes.
pub type Distance = u64;

/// Sentinel distance for unreachable nodes.
pub const DIST_INF: Distance = u64::MAX;
