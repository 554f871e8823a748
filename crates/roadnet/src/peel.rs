//! The all-sources shortest-path kernel: one search per source over the
//! graph's 2-core, with the dangling trees filled in around it.
//!
//! Every server build that runs one search per source (border
//! precompute, SPQ, arc flags) shares this kernel. Road networks hang
//! many dead-end trees off a much smaller 2-core (an 8 000-node
//! germany-class map keeps 2 836 core nodes). [`Peel::new`] strips those
//! trees once per graph: a node goes when its only remaining neighbour
//! is linked to it by exactly one edge in each direction, both of
//! positive weight, and that neighbour becomes its tree parent. Per
//! source, [`SourceTree`] then
//!
//! 1. walks from a source inside a tree up to the core node the tree
//!    attaches at — the only way out of the tree;
//! 2. runs a lazy-heap Dijkstra over a CSR of the core's own edges from
//!    there;
//! 3. fills every other peeled node in one linear pass, parents first:
//!    `d(v) = d(tree parent) + w`, with the tree parent as parent.
//!
//! The result is a parents-first (order, dist, parent) tree over the
//! whole graph.
//!
//! **Why the parents equal a whole-graph search's.** A whole-graph
//! lazy-heap Dijkstra makes the parent of `u` the first settled of its
//! tight predecessors (`p` with `d(p) + w(p, u) = d(u)`). Nodes settle
//! in nondecreasing distance, so that is the tight predecessor of
//! smallest distance, whatever order the heap gives equal keys — unless
//! two of them share that distance (a *double tie*). A peeled node's
//! only tight predecessor is its tree parent, or on the walk its child
//! towards the source; the attachment node's is the last walk node;
//! every other core node's lie in the core. So without a double tie the
//! core search yields the whole-graph search's parents. The core loop
//! flags a double tie when a settled node relaxes a neighbour to exactly
//! its current distance while that neighbour's parent sits at the same
//! key, and [`SourceTree::search`] then recomputes that source alone
//! with [`DijkstraWorkspace::run`] over the whole graph. Callers never
//! see the difference: the parents are exactly `run`'s on every graph.
//! [`SourceTree::search_distances`] skips the check: distances are exact
//! whatever parents the ties pick.

use crate::dijkstra::{DijkstraWorkspace, Direction};
use crate::graph::{NodeId, RoadNetwork, Weight};
use crate::heap::MinHeap;
use crate::sptree::NO_PARENT;
use crate::{Distance, DIST_INF};

/// Marks a node outside the core in [`Peel::core_index`].
const NOT_CORE: u32 = u32::MAX;

/// A graph split into its 2-core and the dangling trees peeled off it
/// (see the module docs), built once per graph and search direction and
/// shared by all workers.
#[derive(Debug)]
pub struct Peel<'g> {
    g: &'g RoadNetwork,
    dir: Direction,
    /// Node → dense core index, [`NOT_CORE`] for peeled nodes.
    core_index: Vec<u32>,
    /// Core index → node.
    core_nodes: Vec<NodeId>,
    /// CSR of the edges between core nodes in the search direction,
    /// over core indices.
    core_offsets: Vec<u32>,
    core_targets: Vec<u32>,
    core_weights: Vec<Weight>,
    /// Per peeled node: the neighbour it was peeled towards
    /// (`NO_PARENT` for core nodes) and the weights a search pays to
    /// step up to it (`up`) and down from it (`down`).
    tree_parent: Vec<NodeId>,
    up_weight: Vec<Weight>,
    down_weight: Vec<Weight>,
    /// Peeled nodes, every tree parent before its children.
    fill_order: Vec<NodeId>,
}

impl<'g> Peel<'g> {
    /// Peels `g`'s dangling trees for searches in direction `dir`
    /// (forward: distances from the source; reverse: towards it).
    pub fn new(g: &'g RoadNetwork, dir: Direction) -> Self {
        let n = g.num_nodes();
        // Edges to nodes not yet peeled, per direction.
        let mut out_left: Vec<u32> = g.node_ids().map(|v| g.out_degree(v) as u32).collect();
        let mut in_left: Vec<u32> = g.node_ids().map(|v| g.in_degree(v) as u32).collect();
        let mut tree_parent = vec![NO_PARENT; n];
        let mut up_weight = vec![0; n];
        let mut down_weight = vec![0; n];
        let mut fill_order = Vec::new();
        let one_each_way =
            |o: &[u32], i: &[u32], v: NodeId| o[v as usize] == 1 && i[v as usize] == 1;
        // A node enters the stack when it reaches one edge each way, which
        // happens at most once; it may lose both before it is popped.
        let mut stack: Vec<NodeId> = (0..n as NodeId)
            .rev()
            .filter(|&v| one_each_way(&out_left, &in_left, v))
            .collect();
        while let Some(v) = stack.pop() {
            if !one_each_way(&out_left, &in_left, v) {
                continue;
            }
            let left = |e: &(NodeId, Weight)| tree_parent[e.0 as usize] == NO_PARENT;
            let (u, out_w) = g.out_edges(v).find(left).expect("one out-edge left");
            let (x, in_w) = g.in_edges(v).find(left).expect("one in-edge left");
            if u != x || u == v || out_w == 0 || in_w == 0 {
                continue;
            }
            let (up, down) = match dir {
                Direction::Forward => (out_w, in_w),
                Direction::Reverse => (in_w, out_w),
            };
            tree_parent[v as usize] = u;
            up_weight[v as usize] = up;
            down_weight[v as usize] = down;
            fill_order.push(v);
            out_left[u as usize] -= 1;
            in_left[u as usize] -= 1;
            if one_each_way(&out_left, &in_left, u) {
                stack.push(u);
            }
        }
        fill_order.reverse();

        let mut core_index = vec![NOT_CORE; n];
        let core_nodes: Vec<NodeId> = g
            .node_ids()
            .filter(|&v| tree_parent[v as usize] == NO_PARENT)
            .collect();
        for (c, &v) in core_nodes.iter().enumerate() {
            core_index[v as usize] = c as u32;
        }
        let mut core_offsets = Vec::with_capacity(core_nodes.len() + 1);
        let mut core_targets = Vec::new();
        let mut core_weights = Vec::new();
        core_offsets.push(0);
        for &v in &core_nodes {
            let mut push = |(u, w): (NodeId, Weight)| {
                if core_index[u as usize] != NOT_CORE {
                    core_targets.push(core_index[u as usize]);
                    core_weights.push(w);
                }
            };
            match dir {
                Direction::Forward => g.out_edges(v).for_each(&mut push),
                Direction::Reverse => g.in_edges(v).for_each(&mut push),
            }
            core_offsets.push(core_targets.len() as u32);
        }
        Self {
            g,
            dir,
            core_index,
            core_nodes,
            core_offsets,
            core_targets,
            core_weights,
            tree_parent,
            up_weight,
            down_weight,
            fill_order,
        }
    }

    /// The nodes of the 2-core, ascending.
    pub fn core_nodes(&self) -> &[NodeId] {
        &self.core_nodes
    }

    /// The neighbour `v` was peeled towards, `None` for core nodes.
    pub fn tree_parent(&self, v: NodeId) -> Option<NodeId> {
        Some(self.tree_parent[v as usize]).filter(|&p| p != NO_PARENT)
    }

    /// The peeled nodes, every tree parent before its children.
    pub fn fill_order(&self) -> &[NodeId] {
        &self.fill_order
    }
}

/// Per-worker buffers of the core search, over core indices.
#[derive(Debug)]
struct CoreSearch {
    heap: MinHeap<u32>,
    dist: Vec<Distance>,
    /// Core index of the parent, `NO_PARENT` for the root.
    parent: Vec<u32>,
    order: Vec<u32>,
}

impl CoreSearch {
    /// Lazy-heap Dijkstra over the core from `root`, which sits at
    /// distance `d0` from the source. With `exact_parents`, returns false
    /// on a double tie.
    fn run(&mut self, peel: &Peel, root: u32, d0: Distance, exact_parents: bool) -> bool {
        self.dist.fill(DIST_INF);
        self.parent.fill(NO_PARENT);
        self.order.clear();
        self.heap.clear();
        self.dist[root as usize] = d0;
        self.heap.push(d0, root);
        while let Some(e) = self.heap.pop() {
            let (dv, v) = (e.key, e.item);
            if dv != self.dist[v as usize] {
                continue; // stale duplicate
            }
            self.order.push(v);
            let (lo, hi) = (
                peel.core_offsets[v as usize] as usize,
                peel.core_offsets[v as usize + 1] as usize,
            );
            for (&u, &w) in peel.core_targets[lo..hi]
                .iter()
                .zip(&peel.core_weights[lo..hi])
            {
                let cand = dv + w as Distance;
                let du = self.dist[u as usize];
                if cand < du {
                    self.dist[u as usize] = cand;
                    self.parent[u as usize] = v;
                    self.heap.push(cand, u);
                } else if cand == du && exact_parents {
                    let p = self.parent[u as usize];
                    if p != v && p != NO_PARENT && self.dist[p as usize] == dv {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// One source's shortest-path tree over the whole graph, and the
/// per-worker buffers that build it. `order` holds the reachable nodes
/// parents first, starting with the source; `dist`/`parent` are indexed
/// by node (`DIST_INF`/`NO_PARENT` where unreachable). Results are valid
/// until the next search.
#[derive(Debug)]
pub struct SourceTree {
    order: Vec<NodeId>,
    dist: Vec<Distance>,
    parent: Vec<NodeId>,
    /// Marks the walk from the source to the core while the fill runs.
    on_walk: Vec<bool>,
    core: CoreSearch,
    /// Whole-graph search for double-tie sources, made on first use.
    fallback: Option<DijkstraWorkspace>,
}

impl SourceTree {
    /// Buffers for searches over `peel`'s graph.
    pub fn new(peel: &Peel) -> Self {
        let n = peel.g.num_nodes();
        let c = peel.core_nodes.len();
        Self {
            order: Vec::with_capacity(n),
            dist: vec![DIST_INF; n],
            parent: vec![NO_PARENT; n],
            on_walk: vec![false; n],
            core: CoreSearch {
                heap: MinHeap::with_capacity(64),
                dist: vec![DIST_INF; c],
                parent: vec![NO_PARENT; c],
                order: Vec::with_capacity(c),
            },
            fallback: None,
        }
    }

    /// The shortest-path tree from `source` in `peel`'s direction, with
    /// exactly the distances, parents and reachable set of
    /// [`DijkstraWorkspace::run`]. Returns true when a double tie made
    /// the kernel recompute the source over the whole graph.
    pub fn search(&mut self, peel: &Peel, source: NodeId) -> bool {
        if self.run(peel, source, true) {
            return false;
        }
        let g = peel.g;
        let ws = self
            .fallback
            .get_or_insert_with(|| DijkstraWorkspace::new(g.num_nodes()));
        ws.run(g, source, peel.dir);
        self.order.clear();
        self.order.extend_from_slice(ws.settle_order());
        for v in g.node_ids() {
            self.dist[v as usize] = ws.distance(v);
            self.parent[v as usize] = ws.parent(v).unwrap_or(NO_PARENT);
        }
        true
    }

    /// The distances from `source` in `peel`'s direction. They are
    /// exact; among equally short paths the parents may differ from
    /// [`DijkstraWorkspace::run`]'s, so this mode never falls back.
    pub fn search_distances(&mut self, peel: &Peel, source: NodeId) {
        self.run(peel, source, false);
    }

    /// Walk, core search and fill. With `exact_parents`, returns false —
    /// the tree then unusable — when the core search met a double tie.
    fn run(&mut self, peel: &Peel, source: NodeId, exact_parents: bool) -> bool {
        self.order.clear();
        let mut v = source;
        let mut d: Distance = 0;
        let mut prev = NO_PARENT;
        while peel.core_index[v as usize] == NOT_CORE {
            self.dist[v as usize] = d;
            self.parent[v as usize] = prev;
            self.order.push(v);
            self.on_walk[v as usize] = true;
            d += peel.up_weight[v as usize] as Distance;
            prev = v;
            v = peel.tree_parent[v as usize];
        }
        let walk = self.order.len();
        let core = &mut self.core;
        let tie_free = core.run(peel, peel.core_index[v as usize], d, exact_parents);
        if tie_free {
            for (c, &node) in peel.core_nodes.iter().enumerate() {
                self.dist[node as usize] = core.dist[c];
                self.parent[node as usize] = match core.parent[c] {
                    NO_PARENT => NO_PARENT,
                    p => peel.core_nodes[p as usize],
                };
            }
            self.parent[v as usize] = prev;
            self.order
                .extend(core.order.iter().map(|&c| peel.core_nodes[c as usize]));
            for &u in &peel.fill_order {
                if self.on_walk[u as usize] {
                    continue;
                }
                let p = peel.tree_parent[u as usize];
                let dp = self.dist[p as usize];
                if dp == DIST_INF {
                    self.dist[u as usize] = DIST_INF;
                    self.parent[u as usize] = NO_PARENT;
                } else {
                    self.dist[u as usize] = dp + peel.down_weight[u as usize] as Distance;
                    self.parent[u as usize] = p;
                    self.order.push(u);
                }
            }
        }
        for &u in &self.order[..walk] {
            self.on_walk[u as usize] = false;
        }
        tie_free
    }

    /// The reachable nodes, parents first, starting with the source.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Per node: the distance, `DIST_INF` where unreachable.
    pub fn distances(&self) -> &[Distance] {
        &self.dist
    }

    /// Per node: the tree parent, `NO_PARENT` for the source and
    /// unreachable nodes.
    pub fn parents(&self) -> &[NodeId] {
        &self.parent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, Point};

    /// A triangle 0-1-2 with a two-node spur 0 - 3 - 4 and a leaf 5 on 1.
    fn triangle_with_spurs() -> RoadNetwork {
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            b.add_node(Point::new(i as f64, (i % 2) as f64));
        }
        b.add_undirected_edge(0, 1, 2);
        b.add_undirected_edge(1, 2, 3);
        b.add_undirected_edge(2, 0, 4);
        b.add_edge(0, 3, 1);
        b.add_edge(3, 0, 6);
        b.add_undirected_edge(3, 4, 2);
        b.add_undirected_edge(1, 5, 7);
        b.finish()
    }

    #[test]
    fn peels_spurs_and_keeps_the_cycle() {
        let g = triangle_with_spurs();
        let peel = Peel::new(&g, Direction::Forward);
        assert_eq!(peel.core_nodes(), &[0, 1, 2]);
        assert_eq!(peel.tree_parent(4), Some(3));
        assert_eq!(peel.tree_parent(3), Some(0));
        assert_eq!(peel.tree_parent(0), None);
        let pos = |v| peel.fill_order().iter().position(|&u| u == v).unwrap();
        assert!(pos(3) < pos(4));
    }

    #[test]
    fn both_directions_match_the_whole_graph_search() {
        let g = triangle_with_spurs();
        for dir in [Direction::Forward, Direction::Reverse] {
            let peel = Peel::new(&g, dir);
            let mut tree = SourceTree::new(&peel);
            let mut ws = DijkstraWorkspace::new(g.num_nodes());
            for s in g.node_ids() {
                assert!(!tree.search(&peel, s), "no ties here");
                ws.run(&g, s, dir);
                for v in g.node_ids() {
                    assert_eq!(tree.distances()[v as usize], ws.distance(v));
                    assert_eq!(
                        tree.parents()[v as usize],
                        ws.parent(v).unwrap_or(NO_PARENT)
                    );
                }
                assert_eq!(tree.order()[0], s);
                assert_eq!(tree.order().len(), ws.settle_order().len());
            }
        }
    }
}
