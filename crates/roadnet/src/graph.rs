//! Compact CSR road-network representation.
//!
//! Node ids are dense `u32` indices. The graph is directed; undirected road
//! segments are stored as two directed edges. Both forward and reverse
//! adjacency are materialized because several index builders (ArcFlag, EB/NR
//! border precomputation) need backward searches.

use serde::{Deserialize, Serialize};

/// Dense node identifier (index into the node arrays).
pub type NodeId = u32;

/// Dense edge identifier (index into the forward edge arrays).
pub type EdgeId = u32;

/// Edge weight. Quantized length / travel time / toll (paper §2.1).
pub type Weight = u32;

/// Planar node coordinates.
///
/// The paper assumes no relation between Euclidean and network distance
/// (§4 footnote 1); coordinates are used only for partitioning and
/// generation, never as a search heuristic, except in the Landmark baseline
/// where bounds come from precomputed graph distances anyway.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// X coordinate.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn euclidean(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// A directed weighted road network in CSR form.
///
/// Construction goes through [`GraphBuilder`]; the finished graph is
/// immutable, which lets every consumer share it freely (`&RoadNetwork`)
/// during precomputation and simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoadNetwork {
    points: Vec<Point>,
    // Forward CSR.
    out_offsets: Vec<u32>,
    out_targets: Vec<NodeId>,
    out_weights: Vec<Weight>,
    // Reverse CSR (edges flipped).
    in_offsets: Vec<u32>,
    in_sources: Vec<NodeId>,
    in_weights: Vec<Weight>,
}

impl RoadNetwork {
    /// Builds a network directly from forward-CSR parts, computing the
    /// reverse adjacency here. Produces exactly
    /// the graph [`GraphBuilder::finish`] would for the same edges fed in
    /// source-major CSR order — per-node edge order is preserved, and
    /// reverse edges are laid out in global (source-major) order — but
    /// without the builder's intermediate edge list and hash set. The
    /// client-side per-session rebuild of received networks runs on this.
    pub fn from_csr(
        points: Vec<Point>,
        out_offsets: Vec<u32>,
        out_targets: Vec<NodeId>,
        out_weights: Vec<Weight>,
    ) -> Self {
        let n = points.len();
        let m = out_targets.len();
        assert_eq!(out_offsets.len(), n + 1, "offsets must have n + 1 entries");
        assert_eq!(out_weights.len(), m, "weights must match targets");
        assert_eq!(out_offsets[0], 0, "offsets must start at 0");
        assert_eq!(out_offsets[n] as usize, m, "offsets must end at edge count");
        debug_assert!(out_offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(out_targets.iter().all(|&t| (t as usize) < n));

        let mut in_offsets = vec![0u32; n + 1];
        for &to in &out_targets {
            in_offsets[to as usize + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut in_sources = vec![0 as NodeId; m];
        let mut in_weights = vec![0 as Weight; m];
        let mut cursor = in_offsets.clone();
        for from in 0..n {
            let (lo, hi) = (out_offsets[from] as usize, out_offsets[from + 1] as usize);
            for e in lo..hi {
                let to = out_targets[e] as usize;
                let slot = cursor[to] as usize;
                in_sources[slot] = from as NodeId;
                in_weights[slot] = out_weights[e];
                cursor[to] += 1;
            }
        }

        Self {
            points,
            out_offsets,
            out_targets,
            out_weights,
            in_offsets,
            in_sources,
            in_weights,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.points.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Coordinates of `v`.
    #[inline]
    pub fn point(&self, v: NodeId) -> Point {
        self.points[v as usize]
    }

    /// All node coordinates.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Outgoing `(target, weight)` pairs of `v`.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        let lo = self.out_offsets[v as usize] as usize;
        let hi = self.out_offsets[v as usize + 1] as usize;
        self.out_targets[lo..hi]
            .iter()
            .copied()
            .zip(self.out_weights[lo..hi].iter().copied())
    }

    /// Incoming `(source, weight)` pairs of `v`.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        let lo = self.in_offsets[v as usize] as usize;
        let hi = self.in_offsets[v as usize + 1] as usize;
        self.in_sources[lo..hi]
            .iter()
            .copied()
            .zip(self.in_weights[lo..hi].iter().copied())
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        (self.out_offsets[v as usize + 1] - self.out_offsets[v as usize]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        (self.in_offsets[v as usize + 1] - self.in_offsets[v as usize]) as usize
    }

    /// Dense edge id range `[lo, hi)` of `v`'s outgoing edges.
    #[inline]
    pub fn out_edge_ids(&self, v: NodeId) -> std::ops::Range<EdgeId> {
        self.out_offsets[v as usize]..self.out_offsets[v as usize + 1]
    }

    /// Target node of forward edge `e`.
    #[inline]
    pub fn edge_target(&self, e: EdgeId) -> NodeId {
        self.out_targets[e as usize]
    }

    /// Weight of forward edge `e`.
    #[inline]
    pub fn edge_weight(&self, e: EdgeId) -> Weight {
        self.out_weights[e as usize]
    }

    /// Iterator over all node ids.
    #[inline]
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        0..self.num_nodes() as NodeId
    }

    /// Looks up the weight of edge `(u, v)`, if present: the lightest of
    /// parallel edges, the weight every shortest-path search uses.
    pub fn weight_between(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        self.out_edges(u)
            .filter(|&(t, _)| t == v)
            .map(|(_, w)| w)
            .min()
    }

    /// Bounding box `(min, max)` over all node coordinates.
    pub fn bounding_box(&self) -> (Point, Point) {
        let mut min = Point::new(f64::INFINITY, f64::INFINITY);
        let mut max = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in &self.points {
            min.x = min.x.min(p.x);
            min.y = min.y.min(p.y);
            max.x = max.x.max(p.x);
            max.y = max.y.max(p.y);
        }
        (min, max)
    }

    /// Approximate in-memory footprint of the adjacency representation in
    /// bytes. Used by the device-memory accounting of the client simulators.
    pub fn adjacency_bytes(&self) -> usize {
        self.points.len() * std::mem::size_of::<Point>()
            + self.out_offsets.len() * 4
            + self.out_targets.len() * 4
            + self.out_weights.len() * 4
    }
}

/// Incremental builder for [`RoadNetwork`].
///
/// Edges may be added in any order; `finish` sorts them into CSR form and
/// constructs the reverse adjacency.
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    points: Vec<Point>,
    edges: Vec<(NodeId, NodeId, Weight)>,
    /// Endpoint pairs already added, so `has_edge` is O(1). Generators
    /// dedupe candidate edges through it, which was quadratic when it
    /// scanned the edge list.
    edge_set: std::collections::HashSet<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with preallocated capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Self {
            points: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            edge_set: std::collections::HashSet::with_capacity(edges),
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, p: Point) -> NodeId {
        let id = self.points.len() as NodeId;
        self.points.push(p);
        id
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.points.len()
    }

    /// Number of directed edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a directed edge. Panics if either endpoint is unknown.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, w: Weight) {
        assert!((from as usize) < self.points.len(), "unknown source node");
        assert!((to as usize) < self.points.len(), "unknown target node");
        self.edges.push((from, to, w));
        self.edge_set.insert((from, to));
    }

    /// Adds a pair of directed edges modelling an undirected road segment.
    pub fn add_undirected_edge(&mut self, a: NodeId, b: NodeId, w: Weight) {
        self.add_edge(a, b, w);
        self.add_edge(b, a, w);
    }

    /// Crate-internal view of the points added so far (used by generators).
    pub(crate) fn points_internal(&self) -> &[Point] {
        &self.points
    }

    /// Returns `true` if a directed edge `(from, to)` was already added.
    /// O(1) via the endpoint-pair set maintained by `add_edge`.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.edge_set.contains(&(from, to))
    }

    /// Finalizes the CSR representation.
    pub fn finish(self) -> RoadNetwork {
        let n = self.points.len();
        let m = self.edges.len();

        let mut out_offsets = vec![0u32; n + 1];
        for &(from, _, _) in &self.edges {
            out_offsets[from as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut out_targets = vec![0 as NodeId; m];
        let mut out_weights = vec![0 as Weight; m];
        let mut cursor = out_offsets.clone();
        for &(from, to, w) in &self.edges {
            let slot = cursor[from as usize] as usize;
            out_targets[slot] = to;
            out_weights[slot] = w;
            cursor[from as usize] += 1;
        }

        let mut in_offsets = vec![0u32; n + 1];
        for &(_, to, _) in &self.edges {
            in_offsets[to as usize + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut in_sources = vec![0 as NodeId; m];
        let mut in_weights = vec![0 as Weight; m];
        let mut cursor = in_offsets.clone();
        for &(from, to, w) in &self.edges {
            let slot = cursor[to as usize] as usize;
            in_sources[slot] = from;
            in_weights[slot] = w;
            cursor[to as usize] += 1;
        }

        RoadNetwork {
            points: self.points,
            out_offsets,
            out_targets,
            out_weights,
            in_offsets,
            in_sources,
            in_weights,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> RoadNetwork {
        // 0 -> 1 -> 3, 0 -> 2 -> 3 with different weights.
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(Point::new(i as f64, 0.0));
        }
        b.add_edge(0, 1, 1);
        b.add_edge(0, 2, 2);
        b.add_edge(1, 3, 5);
        b.add_edge(2, 3, 1);
        b.finish()
    }

    #[test]
    fn csr_basic_shape() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.in_degree(0), 0);
    }

    #[test]
    fn weight_between_takes_the_lightest_parallel_edge() {
        let mut b = GraphBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(1.0, 0.0));
        b.add_edge(0, 1, 9);
        b.add_edge(0, 1, 2);
        b.add_edge(0, 1, 5);
        let g = b.finish();
        assert_eq!(g.weight_between(0, 1), Some(2));
        assert_eq!(g.weight_between(1, 0), None);
    }

    #[test]
    fn out_edges_match_inserted() {
        let g = diamond();
        let mut outs: Vec<_> = g.out_edges(0).collect();
        outs.sort_unstable();
        assert_eq!(outs, vec![(1, 1), (2, 2)]);
    }

    #[test]
    fn in_edges_are_reversed_out_edges() {
        let g = diamond();
        let mut ins: Vec<_> = g.in_edges(3).collect();
        ins.sort_unstable();
        assert_eq!(ins, vec![(1, 5), (2, 1)]);
    }

    #[test]
    fn undirected_edge_adds_both_directions() {
        let mut b = GraphBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(1.0, 0.0));
        b.add_undirected_edge(0, 1, 7);
        let g = b.finish();
        assert_eq!(g.weight_between(0, 1), Some(7));
        assert_eq!(g.weight_between(1, 0), Some(7));
    }

    #[test]
    fn weight_between_absent_edge() {
        let g = diamond();
        assert_eq!(g.weight_between(1, 2), None);
        assert_eq!(g.weight_between(3, 0), None);
    }

    #[test]
    fn edge_id_accessors_consistent_with_iterator() {
        let g = diamond();
        for v in g.node_ids() {
            let via_ids: Vec<_> = g
                .out_edge_ids(v)
                .map(|e| (g.edge_target(e), g.edge_weight(e)))
                .collect();
            let via_iter: Vec<_> = g.out_edges(v).collect();
            assert_eq!(via_ids, via_iter);
        }
    }

    #[test]
    fn bounding_box_covers_all_points() {
        let g = diamond();
        let (min, max) = g.bounding_box();
        assert_eq!(min.x, 0.0);
        assert_eq!(max.x, 3.0);
        assert_eq!(min.y, 0.0);
        assert_eq!(max.y, 0.0);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = GraphBuilder::new().finish();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "unknown target node")]
    fn edge_to_unknown_node_panics() {
        let mut b = GraphBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_edge(0, 1, 1);
    }

    #[test]
    fn point_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.euclidean(&b) - 5.0).abs() < 1e-12);
    }
}
