//! Dijkstra's algorithm (paper §2.1) in the variants the framework needs.
//!
//! * [`dijkstra_full`] / [`dijkstra_full_reverse`] — complete single-source
//!   trees (reverse trees drive ArcFlag construction and directed landmark
//!   bounds);
//! * [`dijkstra_to_target`] / [`dijkstra_distance`] — early-terminating
//!   point-to-point queries, as run by the simulated clients;
//! * [`dijkstra_filtered`] — search restricted to a node predicate, the
//!   reference that tests hold region-restricted answers against (the
//!   clients search their received data with
//!   `spair_core::netcodec::ReceivedGraph::search`);
//! * [`DijkstraWorkspace`] — allocation-free repeated searches for
//!   server-side precomputation, with version-stamped visited marks.
//!
//! Every variant runs on the lazy 4-ary [`MinHeap`].

use crate::graph::{NodeId, RoadNetwork};
use crate::heap::MinHeap;
use crate::sptree::{ShortestPathTree, NO_PARENT};
use crate::{Distance, DIST_INF};

/// Search direction over the CSR representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow out-edges (paths *from* the source).
    Forward,
    /// Follow in-edges (paths *to* the source).
    Reverse,
}

/// Tuning knobs for a Dijkstra run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DijkstraOptions {
    /// Stop as soon as this node is settled.
    pub target: Option<NodeId>,
    /// Do not settle nodes farther than this bound.
    pub bound: Option<Distance>,
}

/// The one Dijkstra queue, the lazy 4-ary [`MinHeap`]. This one-value
/// type stays only so that the external benchmark's calls keep compiling:
/// `MethodProgram::make_client`, `MethodRegistry::remote_client`,
/// `ReceivedGraph::shortest_path_with`, `ReceivedGraph::shortest_path_checked`
/// and `DjClient::with_queue_policy` take it and ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// The 4-ary [`MinHeap`].
    #[default]
    Heap,
}

/// Counters describing the work a search performed. The client simulator
/// reports these alongside wall-clock CPU time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes settled (popped with a fresh distance).
    pub settled: usize,
    /// Edges relaxed.
    pub relaxed: usize,
}

/// Runs a complete forward Dijkstra from `source`.
pub fn dijkstra_full(g: &RoadNetwork, source: NodeId) -> ShortestPathTree {
    run_full(g, source, Direction::Forward)
}

/// Runs a complete Dijkstra from `source` over reversed edges; the result
/// holds distances *towards* `source`.
pub fn dijkstra_full_reverse(g: &RoadNetwork, source: NodeId) -> ShortestPathTree {
    run_full(g, source, Direction::Reverse)
}

fn run_full(g: &RoadNetwork, source: NodeId, dir: Direction) -> ShortestPathTree {
    let n = g.num_nodes();
    let mut dist = vec![DIST_INF; n];
    let mut parent = vec![NO_PARENT; n];
    let mut order = Vec::with_capacity(n);
    let mut heap = MinHeap::with_capacity(64);
    dist[source as usize] = 0;
    heap.push(0, source);
    while let Some(e) = heap.pop() {
        let v = e.item;
        if e.key != dist[v as usize] {
            continue; // stale duplicate
        }
        order.push(v);
        relax_neighbors(g, dir, v, e.key, &mut dist, &mut parent, &mut heap);
    }
    ShortestPathTree::new(source, dist, parent, order)
}

#[inline]
fn relax_neighbors(
    g: &RoadNetwork,
    dir: Direction,
    v: NodeId,
    dv: Distance,
    dist: &mut [Distance],
    parent: &mut [NodeId],
    heap: &mut MinHeap<NodeId>,
) {
    match dir {
        Direction::Forward => {
            for (u, w) in g.out_edges(v) {
                let cand = dv + w as Distance;
                if cand < dist[u as usize] {
                    dist[u as usize] = cand;
                    parent[u as usize] = v;
                    heap.push(cand, u);
                }
            }
        }
        Direction::Reverse => {
            for (u, w) in g.in_edges(v) {
                let cand = dv + w as Distance;
                if cand < dist[u as usize] {
                    dist[u as usize] = cand;
                    parent[u as usize] = v;
                    heap.push(cand, u);
                }
            }
        }
    }
}

/// Point-to-point search returning `(distance, path)`, or `None` if `target`
/// is unreachable.
pub fn dijkstra_to_target(
    g: &RoadNetwork,
    source: NodeId,
    target: NodeId,
) -> Option<(Distance, Vec<NodeId>)> {
    let (tree, _) = dijkstra_with_options(
        g,
        source,
        DijkstraOptions {
            target: Some(target),
            ..DijkstraOptions::default()
        },
    );
    let d = tree.distance(target);
    (d != DIST_INF).then(|| (d, tree.path_to(target).expect("reachable")))
}

/// Point-to-point distance only.
pub fn dijkstra_distance(g: &RoadNetwork, source: NodeId, target: NodeId) -> Option<Distance> {
    dijkstra_to_target(g, source, target).map(|(d, _)| d)
}

/// Dijkstra with early termination / distance bound. Returns the (partial)
/// tree and search statistics. Nodes that were never settled keep
/// `DIST_INF` or a tentative (not necessarily final) distance; only settled
/// nodes are authoritative, so callers should use the settle order or the
/// target distance.
pub fn dijkstra_with_options(
    g: &RoadNetwork,
    source: NodeId,
    opts: DijkstraOptions,
) -> (ShortestPathTree, SearchStats) {
    let n = g.num_nodes();
    let mut dist = vec![DIST_INF; n];
    let mut parent = vec![NO_PARENT; n];
    let mut order = Vec::new();
    let mut stats = SearchStats::default();
    let mut heap = MinHeap::with_capacity(64);
    dist[source as usize] = 0;
    heap.push(0, source);
    while let Some(e) = heap.pop() {
        let (key, v) = (e.key, e.item);
        if key != dist[v as usize] {
            continue;
        }
        if let Some(b) = opts.bound {
            if key > b {
                break;
            }
        }
        order.push(v);
        stats.settled += 1;
        if opts.target == Some(v) {
            break;
        }
        for (u, w) in g.out_edges(v) {
            stats.relaxed += 1;
            let cand = key + w as Distance;
            if cand < dist[u as usize] {
                dist[u as usize] = cand;
                parent[u as usize] = v;
                heap.push(cand, u);
            }
        }
    }
    (ShortestPathTree::new(source, dist, parent, order), stats)
}

/// Point-to-point Dijkstra restricted to nodes for which `allowed` returns
/// true (source and target are always allowed). This is the search the
/// simulated clients run over the union of downloaded regions.
pub fn dijkstra_filtered(
    g: &RoadNetwork,
    source: NodeId,
    target: NodeId,
    allowed: impl Fn(NodeId) -> bool,
) -> (Option<(Distance, Vec<NodeId>)>, SearchStats) {
    let n = g.num_nodes();
    let mut dist = vec![DIST_INF; n];
    let mut parent = vec![NO_PARENT; n];
    let mut stats = SearchStats::default();
    let mut heap = MinHeap::with_capacity(64);
    dist[source as usize] = 0;
    heap.push(0, source);
    let mut found = false;
    while let Some(e) = heap.pop() {
        let (key, v) = (e.key, e.item);
        if key != dist[v as usize] {
            continue;
        }
        stats.settled += 1;
        if v == target {
            found = true;
            break;
        }
        for (u, w) in g.out_edges(v) {
            if u != target && u != source && !allowed(u) {
                continue;
            }
            stats.relaxed += 1;
            let cand = key + w as Distance;
            if cand < dist[u as usize] {
                dist[u as usize] = cand;
                parent[u as usize] = v;
                heap.push(cand, u);
            }
        }
    }
    if !found {
        return (None, stats);
    }
    let tree = ShortestPathTree::new(source, dist, parent, Vec::new());
    let d = tree.distance(target);
    let path = tree.path_to(target).expect("target settled");
    (Some((d, path)), stats)
}

/// Reusable buffers for repeated full Dijkstra runs.
///
/// Precomputation performs one search per border node (often thousands);
/// re-zeroing a `Vec<u64>` per run would dominate. The workspace stamps
/// each slot with a run version instead, so starting a new search is O(1).
#[derive(Debug)]
pub struct DijkstraWorkspace {
    dist: Vec<Distance>,
    parent: Vec<NodeId>,
    version: Vec<u32>,
    order: Vec<NodeId>,
    current: u32,
    heap: MinHeap<NodeId>,
}

impl DijkstraWorkspace {
    /// Creates a workspace for graphs with `n` nodes (settle order is
    /// identical to [`dijkstra_full`]).
    pub fn new(n: usize) -> Self {
        Self {
            dist: vec![DIST_INF; n],
            parent: vec![NO_PARENT; n],
            version: vec![0; n],
            order: Vec::with_capacity(n),
            current: 0,
            heap: MinHeap::with_capacity(64),
        }
    }

    /// Runs a complete search from `source` in direction `dir`. Results are
    /// valid until the next `run` call.
    pub fn run(&mut self, g: &RoadNetwork, source: NodeId, dir: Direction) {
        assert_eq!(
            g.num_nodes(),
            self.dist.len(),
            "workspace sized for a different graph"
        );
        self.current = self.current.wrapping_add(1);
        if self.current == 0 {
            // Version counter wrapped: hard-reset stamps once every 2^32 runs.
            self.version.iter_mut().for_each(|v| *v = 0);
            self.current = 1;
        }
        self.order.clear();
        self.heap.clear();
        self.touch(source);
        self.dist[source as usize] = 0;
        self.heap.push(0, source);
        while let Some(e) = self.heap.pop() {
            let (key, v) = (e.key, e.item);
            if key != self.dist[v as usize] {
                continue;
            }
            self.order.push(v);
            match dir {
                Direction::Forward => {
                    for (u, w) in g.out_edges(v) {
                        self.relax(v, u, key + w as Distance);
                    }
                }
                Direction::Reverse => {
                    for (u, w) in g.in_edges(v) {
                        self.relax(v, u, key + w as Distance);
                    }
                }
            }
        }
    }

    #[inline]
    fn touch(&mut self, v: NodeId) {
        if self.version[v as usize] != self.current {
            self.version[v as usize] = self.current;
            self.dist[v as usize] = DIST_INF;
            self.parent[v as usize] = NO_PARENT;
        }
    }

    #[inline]
    fn relax(&mut self, from: NodeId, to: NodeId, cand: Distance) {
        self.touch(to);
        if cand < self.dist[to as usize] {
            self.dist[to as usize] = cand;
            self.parent[to as usize] = from;
            self.heap.push(cand, to);
        }
    }

    /// Distance of `v` in the latest run.
    #[inline]
    pub fn distance(&self, v: NodeId) -> Distance {
        if self.version[v as usize] == self.current {
            self.dist[v as usize]
        } else {
            DIST_INF
        }
    }

    /// Parent of `v` in the latest run's tree.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        if self.version[v as usize] == self.current && self.parent[v as usize] != NO_PARENT {
            Some(self.parent[v as usize])
        } else {
            None
        }
    }

    /// Settle order of the latest run.
    #[inline]
    pub fn settle_order(&self) -> &[NodeId] {
        &self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, Point};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn diamond() -> RoadNetwork {
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

    fn random_graph(seed: u64, n: usize, extra: usize) -> RoadNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_node(Point::new(i as f64, 0.0));
        }
        // Random tree for connectivity + extra undirected edges.
        for i in 1..n {
            let p = rng.gen_range(0..i);
            b.add_undirected_edge(p as NodeId, i as NodeId, rng.gen_range(1..100));
        }
        for _ in 0..extra {
            let a = rng.gen_range(0..n) as NodeId;
            let c = rng.gen_range(0..n) as NodeId;
            if a != c {
                b.add_undirected_edge(a, c, rng.gen_range(1..100));
            }
        }
        b.finish()
    }

    /// O(V^2) Bellman-Ford-ish reference for validation.
    fn reference_distances(g: &RoadNetwork, s: NodeId) -> Vec<Distance> {
        let n = g.num_nodes();
        let mut dist = vec![DIST_INF; n];
        dist[s as usize] = 0;
        for _ in 0..n {
            let mut changed = false;
            for v in g.node_ids() {
                if dist[v as usize] == DIST_INF {
                    continue;
                }
                for (u, w) in g.out_edges(v) {
                    let cand = dist[v as usize] + w as Distance;
                    if cand < dist[u as usize] {
                        dist[u as usize] = cand;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        dist
    }

    #[test]
    fn diamond_prefers_cheaper_branch() {
        let g = diamond();
        let (d, path) = dijkstra_to_target(&g, 0, 3).unwrap();
        assert_eq!(d, 3);
        assert_eq!(path, vec![0, 2, 3]);
    }

    #[test]
    fn full_tree_matches_reference_on_random_graphs() {
        for seed in 0..10 {
            let g = random_graph(seed, 60, 40);
            let t = dijkstra_full(&g, 0);
            assert_eq!(t.distances(), &reference_distances(&g, 0)[..]);
        }
    }

    #[test]
    fn reverse_tree_matches_forward_on_reversed_pairs() {
        let g = random_graph(3, 50, 30);
        let fwd = dijkstra_full(&g, 7);
        let rev = dijkstra_full_reverse(&g, 7);
        // Undirected graph: forward and reverse distances coincide.
        assert_eq!(fwd.distances(), rev.distances());
    }

    #[test]
    fn reverse_tree_on_directed_graph() {
        let g = diamond();
        let rev = dijkstra_full_reverse(&g, 3);
        // rev.distance(v) = d(v -> 3)
        assert_eq!(rev.distance(0), 3);
        assert_eq!(rev.distance(1), 5);
        assert_eq!(rev.distance(2), 1);
        assert_eq!(rev.distance(3), 0);
    }

    #[test]
    fn early_termination_settles_target() {
        let g = random_graph(11, 80, 60);
        let (tree, stats) = dijkstra_with_options(
            &g,
            0,
            DijkstraOptions {
                target: Some(42),
                bound: None,
            },
        );
        let reference = reference_distances(&g, 0);
        assert_eq!(tree.distance(42), reference[42]);
        assert!(stats.settled <= g.num_nodes());
    }

    #[test]
    fn bounded_search_stops_beyond_bound() {
        let g = random_graph(5, 100, 50);
        let full = dijkstra_full(&g, 0);
        let bound = full.distance(50) / 2;
        let (tree, _) = dijkstra_with_options(
            &g,
            0,
            DijkstraOptions {
                target: None,
                bound: Some(bound),
            },
        );
        for &v in tree.settle_order() {
            assert!(tree.distance(v) <= bound);
        }
    }

    #[test]
    fn filtered_search_all_allowed_equals_plain() {
        let g = random_graph(9, 70, 50);
        let plain = dijkstra_distance(&g, 3, 60);
        let (filtered, _) = dijkstra_filtered(&g, 3, 60, |_| true);
        assert_eq!(plain, filtered.map(|(d, _)| d));
    }

    #[test]
    fn filtered_search_respects_predicate() {
        // Line 0-1-2; forbid node 1 => unreachable.
        let mut b = GraphBuilder::new();
        for i in 0..3 {
            b.add_node(Point::new(i as f64, 0.0));
        }
        b.add_undirected_edge(0, 1, 1);
        b.add_undirected_edge(1, 2, 1);
        let g = b.finish();
        let (res, _) = dijkstra_filtered(&g, 0, 2, |v| v != 1);
        assert!(res.is_none());
    }

    #[test]
    fn unreachable_target_returns_none() {
        let mut b = GraphBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(1.0, 0.0));
        let g = b.finish();
        assert!(dijkstra_distance(&g, 0, 1).is_none());
    }

    #[test]
    fn workspace_matches_fresh_runs_across_many_sources() {
        let g = random_graph(21, 90, 70);
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        for s in (0..90).step_by(7) {
            ws.run(&g, s, Direction::Forward);
            let fresh = dijkstra_full(&g, s);
            for v in g.node_ids() {
                assert_eq!(ws.distance(v), fresh.distance(v), "src {s} node {v}");
            }
            assert_eq!(ws.settle_order(), fresh.settle_order());
        }
    }

    #[test]
    fn workspace_reverse_direction() {
        let g = diamond();
        let mut ws = DijkstraWorkspace::new(4);
        ws.run(&g, 3, Direction::Reverse);
        assert_eq!(ws.distance(0), 3);
        assert_eq!(ws.parent(0), Some(2));
    }

    #[test]
    fn source_distance_zero_and_no_parent() {
        let g = diamond();
        let t = dijkstra_full(&g, 0);
        assert_eq!(t.distance(0), 0);
        assert_eq!(t.parent(0), None);
    }
}
