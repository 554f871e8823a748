//! Server-side border-pair precomputation (paper §4.1 / §5.1).
//!
//! One shortest-path tree per border node produces everything EB and NR
//! need:
//!
//! * **EB's matrix A** — min/max shortest-path distance between the border
//!   nodes of every region pair (diagonal: same-region border pairs, which
//!   bound how far a path may detour outside its own region);
//! * **NR's traversed-region sets** — the union, over border pairs of
//!   `(Ri, Rj)`, of the regions the canonical (Dijkstra-tree) shortest
//!   path crosses;
//! * **EB's cross-border classification** — nodes lying on at least one
//!   border-pair shortest path (§4.1's region-data split that cuts ~20% of
//!   tuning time).
//!
//! Per source the three are extracted in O(V · n/64) by dynamic programs
//! over the shortest-path tree instead of walking each of the O(B²) pair
//! paths: region sets propagate parent→child in settle order, and the
//! on-a-border-path marks propagate child→parent in reverse settle order.
//! Any parents-first order of the tree serves both.
//!
//! **Searching only where paths can branch.** Road networks hang many
//! dead-end trees off a much smaller 2-core (an 8 000-node germany-class
//! map keeps 2 836 core nodes). Once per run the pass peels those
//! dangling trees: a node goes when its only remaining neighbour is
//! linked to it by exactly one edge in each direction, both of positive
//! weight, and that neighbour becomes its tree parent. Per source it then
//!
//! 1. walks from a source inside a tree up to the core node the tree
//!    attaches at — the only way out of the tree;
//! 2. runs a lazy-heap Dijkstra over a CSR of the core's own edges from
//!    there;
//! 3. fills every other peeled node in one linear pass, parents first:
//!    `d(v) = d(tree parent) + w`, with the tree parent as parent.
//!
//! **Why the tables stay bit-identical.** They depend only on each
//! source's distances and parents. A whole-graph lazy-heap Dijkstra makes
//! the parent of `u` the first settled of its tight predecessors (`p` with
//! `d(p) + w(p, u) = d(u)`). Nodes settle in nondecreasing distance, so
//! that is the tight predecessor of smallest distance, whatever order the
//! heap gives equal keys — unless two of them share that distance (a
//! *double tie*). A peeled node's only tight predecessor is its tree
//! parent, or on the walk its child towards the source; the attachment
//! node's is the last walk node; every other core node's lie in the core.
//! So without a double tie the core search yields the whole-graph
//! search's parents. The core loop flags a double tie when a settled node
//! relaxes a neighbour to exactly its current distance while that
//! neighbour's parent sits at the same key, and that source alone is
//! recomputed with [`DijkstraWorkspace::run`] over the whole graph. The
//! tables therefore equal one whole-graph search per border node on every
//! graph; [`BorderPrecomputation::tie_fallback_sources`] counts the
//! recomputed sources.

use crate::regionset::{RegionSet, RegionSetMatrix};
use spair_partition::{BorderInfo, Partitioning, RegionId};
use spair_roadnet::dijkstra::{DijkstraWorkspace, Direction};
use spair_roadnet::heap::MinHeap;
use spair_roadnet::parallel;
use spair_roadnet::sptree::NO_PARENT;
use spair_roadnet::{Distance, NodeId, RoadNetwork, Weight, DIST_INF};
use std::time::Instant;

/// Min/max shortest-path distance between border nodes of a region pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinMax {
    /// Minimum border-pair distance (`DIST_INF` if none reachable).
    pub min: Distance,
    /// Maximum border-pair distance (0 if none reachable).
    pub max: Distance,
}

impl MinMax {
    const EMPTY: MinMax = MinMax {
        min: DIST_INF,
        max: 0,
    };

    /// True if no border pair of this region pair is connected.
    pub fn is_empty(&self) -> bool {
        self.min == DIST_INF
    }
}

/// Output of the precomputation pass, shared by EB and NR (the paper notes
/// their pre-computation cost is identical for the same partitioning).
#[derive(Debug, Clone)]
pub struct BorderPrecomputation {
    num_regions: usize,
    /// Row-major `n × n` min/max matrix. Diagonal `(r, r)`: min = 0 and
    /// max = the longest same-region border-pair distance.
    minmax: Vec<MinMax>,
    /// Regions traversed by canonical border-pair shortest paths.
    traversed: RegionSetMatrix,
    /// Per node: lies on some border-pair shortest path (or is a border
    /// node itself).
    cross_border: Vec<bool>,
    /// Border-node inventory.
    borders: BorderInfo,
    /// Nodes left in the 2-core once the dangling trees are peeled.
    core_nodes: usize,
    /// Sources recomputed over the whole graph after a double tie.
    tie_fallback_sources: usize,
    /// Wall-clock cost of the pass (Table 3).
    pub precompute_secs: f64,
}

/// Marks a node outside the core in [`Peel::core_index`].
const NOT_CORE: u32 = u32::MAX;

/// The graph split into its 2-core and the dangling trees peeled off it
/// (see the module docs), built once per run and shared by all workers.
struct Peel {
    /// Node → dense core index, [`NOT_CORE`] for peeled nodes.
    core_index: Vec<u32>,
    /// Core index → node.
    core_nodes: Vec<NodeId>,
    /// Forward CSR of the edges between core nodes, over core indices.
    core_offsets: Vec<u32>,
    core_targets: Vec<u32>,
    core_weights: Vec<Weight>,
    /// Per peeled node: the neighbour it was peeled towards
    /// (`NO_PARENT` for core nodes) and the weights of the edges to it
    /// (`up`) and from it (`down`).
    tree_parent: Vec<NodeId>,
    up_weight: Vec<Weight>,
    down_weight: Vec<Weight>,
    /// Peeled nodes, every tree parent before its children.
    fill_order: Vec<NodeId>,
}

impl Peel {
    fn new(g: &RoadNetwork) -> Self {
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
            let (u, up) = g.out_edges(v).find(left).expect("one out-edge left");
            let (x, down) = g.in_edges(v).find(left).expect("one in-edge left");
            if u != x || u == v || up == 0 || down == 0 {
                continue;
            }
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
            for (u, w) in g.out_edges(v) {
                if core_index[u as usize] != NOT_CORE {
                    core_targets.push(core_index[u as usize]);
                    core_weights.push(w);
                }
            }
            core_offsets.push(core_targets.len() as u32);
        }
        Self {
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

    /// Fills `tree` with the whole-graph shortest-path tree from `b`
    /// (walk, core search, linear fill). Returns false — `tree` then
    /// unusable — when the core search met a double tie.
    fn search(&self, b: NodeId, core: &mut CoreSearch, tree: &mut SourceTree) -> bool {
        tree.order.clear();
        let mut v = b;
        let mut d: Distance = 0;
        let mut prev = NO_PARENT;
        while self.core_index[v as usize] == NOT_CORE {
            tree.dist[v as usize] = d;
            tree.parent[v as usize] = prev;
            tree.order.push(v);
            tree.on_walk[v as usize] = true;
            d += self.up_weight[v as usize] as Distance;
            prev = v;
            v = self.tree_parent[v as usize];
        }
        let walk = tree.order.len();
        let tie_free = core.run(self, self.core_index[v as usize], d);
        if tie_free {
            for (c, &node) in self.core_nodes.iter().enumerate() {
                tree.dist[node as usize] = core.dist[c];
                tree.parent[node as usize] = match core.parent[c] {
                    NO_PARENT => NO_PARENT,
                    p => self.core_nodes[p as usize],
                };
            }
            tree.parent[v as usize] = prev;
            let core_nodes = &self.core_nodes;
            tree.order
                .extend(core.order.iter().map(|&c| core_nodes[c as usize]));
            for &u in &self.fill_order {
                if tree.on_walk[u as usize] {
                    continue;
                }
                let p = self.tree_parent[u as usize];
                let dp = tree.dist[p as usize];
                if dp == DIST_INF {
                    tree.dist[u as usize] = DIST_INF;
                    tree.parent[u as usize] = NO_PARENT;
                } else {
                    tree.dist[u as usize] = dp + self.down_weight[u as usize] as Distance;
                    tree.parent[u as usize] = p;
                    tree.order.push(u);
                }
            }
        }
        for &u in &tree.order[..walk] {
            tree.on_walk[u as usize] = false;
        }
        tie_free
    }
}

/// Per-worker buffers of the core search, over core indices.
struct CoreSearch {
    heap: MinHeap<u32>,
    dist: Vec<Distance>,
    /// Core index of the parent, `NO_PARENT` for the root.
    parent: Vec<u32>,
    order: Vec<u32>,
}

impl CoreSearch {
    fn new(core_nodes: usize) -> Self {
        Self {
            heap: MinHeap::with_capacity(64),
            dist: vec![DIST_INF; core_nodes],
            parent: vec![NO_PARENT; core_nodes],
            order: Vec::with_capacity(core_nodes),
        }
    }

    /// Lazy-heap Dijkstra over the core from `root`, which sits at
    /// distance `d0` from the source. Returns false on a double tie.
    fn run(&mut self, peel: &Peel, root: u32, d0: Distance) -> bool {
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
                } else if cand == du {
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

/// One source's shortest-path tree over the whole graph, as the DPs read
/// it: `order` holds the reachable nodes parents first; `dist`/`parent`
/// are indexed by node (`DIST_INF`/`NO_PARENT` where unreachable).
struct SourceTree {
    order: Vec<NodeId>,
    dist: Vec<Distance>,
    parent: Vec<NodeId>,
    /// Marks the walk from the source to the core while the fill runs.
    on_walk: Vec<bool>,
}

/// Reusable per-worker buffers for the per-source searches and DPs.
struct SourceScratch {
    core: CoreSearch,
    tree: SourceTree,
    /// Whole-graph search for double-tie sources.
    fallback: DijkstraWorkspace,
    /// Flat parent→child DP buffer: region set of the tree path to v.
    path_regions: Vec<u64>,
    /// Child→parent marks: v lies on a path towards some border target.
    on_path: Vec<bool>,
}

/// One worker's contribution, merged cell-wise. Every combining
/// operation (min, max, bitset union, bool or, sum) is commutative and
/// associative, and partials additionally merge in fixed chunk order, so
/// the merged tables are bit-identical to the serial fold for any thread
/// count.
struct SourcePartial {
    minmax: Vec<MinMax>,
    traversed: RegionSetMatrix,
    cross_border: Vec<bool>,
    tie_fallbacks: usize,
}

impl BorderPrecomputation {
    /// Runs the pass — one shortest-path tree per border node — fanned
    /// out over [`parallel::num_threads`] workers.
    pub fn run(g: &RoadNetwork, part: &(impl Partitioning + Sync)) -> Self {
        Self::run_with_threads(g, part, parallel::num_threads())
    }

    /// Single-threaded reference run (the baseline the parallel pipeline
    /// is verified against and benchmarked over).
    pub fn run_serial(g: &RoadNetwork, part: &(impl Partitioning + Sync)) -> Self {
        Self::run_with_threads(g, part, 1)
    }

    /// Runs the pass on an explicit number of worker threads. Output is
    /// bit-identical for every `threads` value.
    pub fn run_with_threads(
        g: &RoadNetwork,
        part: &(impl Partitioning + Sync),
        threads: usize,
    ) -> Self {
        let start = Instant::now();
        let n = part.num_regions();
        let nn = g.num_nodes();
        let borders = BorderInfo::compute(g, part);
        let region_of: Vec<RegionId> = g.node_ids().map(|v| part.region_of(v)).collect();
        let words = n.div_ceil(64);
        let peel = Peel::new(g);

        let merged = parallel::map_reduce_chunked(
            borders.all(),
            threads,
            4,
            || SourceScratch {
                core: CoreSearch::new(peel.core_nodes.len()),
                tree: SourceTree {
                    order: Vec::with_capacity(nn),
                    dist: vec![DIST_INF; nn],
                    parent: vec![NO_PARENT; nn],
                    on_walk: vec![false; nn],
                },
                fallback: DijkstraWorkspace::new(nn),
                path_regions: vec![0u64; nn * words],
                on_path: vec![false; nn],
            },
            || SourcePartial {
                minmax: vec![MinMax::EMPTY; n * n],
                traversed: RegionSetMatrix::new(n),
                cross_border: vec![false; nn],
                tie_fallbacks: 0,
            },
            |scratch, partial, sources, _base| {
                for &b in sources {
                    process_source(
                        g, &peel, part, &borders, &region_of, words, scratch, partial, b,
                    );
                }
            },
            |acc, p| {
                for (a, b) in acc.minmax.iter_mut().zip(&p.minmax) {
                    a.min = a.min.min(b.min);
                    a.max = a.max.max(b.max);
                }
                acc.traversed.union_with(&p.traversed);
                for (a, b) in acc.cross_border.iter_mut().zip(&p.cross_border) {
                    *a |= b;
                }
                acc.tie_fallbacks += p.tie_fallbacks;
            },
        );
        let (mut minmax, traversed, mut cross_border, tie_fallback_sources) = match merged {
            Some(p) => (p.minmax, p.traversed, p.cross_border, p.tie_fallbacks),
            // A one-region partitioning has no border nodes at all.
            None => (
                vec![MinMax::EMPTY; n * n],
                RegionSetMatrix::new(n),
                vec![false; nn],
                0,
            ),
        };
        for r in 0..n {
            minmax[r * n + r].min = 0;
        }
        for &b in borders.all() {
            cross_border[b as usize] = true;
        }

        Self {
            num_regions: n,
            minmax,
            traversed,
            cross_border,
            borders,
            core_nodes: peel.core_nodes.len(),
            tie_fallback_sources,
            precompute_secs: start.elapsed().as_secs_f64(),
        }
    }

    /// True when the precomputed tables (min/max matrix, traversed-region
    /// sets, cross-border marks, border inventory) are identical —
    /// the bit-identical check the parallel pipeline is validated with.
    /// Timing is deliberately excluded.
    pub fn same_tables(&self, other: &Self) -> bool {
        self.num_regions == other.num_regions
            && self.minmax == other.minmax
            && self.traversed == other.traversed
            && self.cross_border == other.cross_border
            && self.borders.all() == other.borders.all()
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.num_regions
    }

    /// Min/max border-pair distances for `(from, to)`.
    #[inline]
    pub fn minmax(&self, from: RegionId, to: RegionId) -> MinMax {
        self.minmax[from as usize * self.num_regions + to as usize]
    }

    /// Regions traversed by some border-pair shortest path of `(from, to)`.
    #[inline]
    pub fn traversed(&self, from: RegionId, to: RegionId) -> &RegionSet {
        self.traversed.get(from, to)
    }

    /// The regions a client needs for a query from `rs` to `rt`: the
    /// traversed set plus both terminal regions (which always carry the
    /// intra-region path prefix/suffix).
    pub fn needed_regions(&self, rs: RegionId, rt: RegionId) -> RegionSet {
        let mut set = self.traversed(rs, rt).clone();
        set.insert(rs);
        set.insert(rt);
        set
    }

    /// Whether `v` lies on some inter-region border-pair shortest path.
    #[inline]
    pub fn is_cross_border(&self, v: NodeId) -> bool {
        self.cross_border[v as usize]
    }

    /// Border-node inventory.
    pub fn borders(&self) -> &BorderInfo {
        &self.borders
    }

    /// Nodes in the graph's 2-core, the part every source's search runs
    /// over (the rest hangs off it in dangling trees).
    pub fn core_nodes(&self) -> usize {
        self.core_nodes
    }

    /// Border sources whose core search met a double tie and were
    /// recomputed over the whole graph.
    pub fn tie_fallback_sources(&self) -> usize {
        self.tie_fallback_sources
    }
}

/// Folds one border-node source into a partial: its shortest-path tree
/// (core search, or the whole-graph search after a double tie), then the
/// three tree DPs of the module docs. Depends only on `b`'s own search
/// tree, never on other sources' results — the independence the
/// parallel fan-out rests on.
#[allow(clippy::too_many_arguments)]
fn process_source(
    g: &RoadNetwork,
    peel: &Peel,
    part: &(impl Partitioning + Sync),
    borders: &BorderInfo,
    region_of: &[RegionId],
    words: usize,
    scratch: &mut SourceScratch,
    partial: &mut SourcePartial,
    b: NodeId,
) {
    let n = part.num_regions();
    let rb = part.region_of(b);
    let SourceScratch {
        core,
        tree,
        fallback,
        path_regions,
        on_path,
    } = scratch;
    if !peel.search(b, core, tree) {
        partial.tie_fallbacks += 1;
        fallback.run(g, b, Direction::Forward);
        tree.order.clear();
        tree.order.extend_from_slice(fallback.settle_order());
        for v in g.node_ids() {
            tree.dist[v as usize] = fallback.distance(v);
            tree.parent[v as usize] = fallback.parent(v).unwrap_or(NO_PARENT);
        }
    }
    let SourceTree {
        order,
        dist,
        parent,
        ..
    } = tree;

    // Forward DP: regions of the path b -> v.
    for &v in order.iter() {
        let vi = v as usize * words;
        match parent[v as usize] {
            NO_PARENT => path_regions[vi..vi + words].iter_mut().for_each(|w| *w = 0),
            p => {
                let pi = p as usize * words;
                for k in 0..words {
                    path_regions[vi + k] = path_regions[pi + k];
                }
            }
        }
        let r = region_of[v as usize] as usize;
        path_regions[vi + r / 64] |= 1u64 << (r % 64);
    }

    // Collect min/max and traversed sets towards every other border node
    // (different *or same* region — the diagonal serves same-region
    // queries).
    for &t in borders.all() {
        if t == b {
            continue;
        }
        let d = dist[t as usize];
        if d == DIST_INF {
            continue;
        }
        let rt = part.region_of(t);
        let cell = &mut partial.minmax[rb as usize * n + rt as usize];
        cell.min = cell.min.min(d);
        cell.max = cell.max.max(d);
        let ti = t as usize * words;
        partial
            .traversed
            .get_mut(rb, rt)
            .union_words(&path_regions[ti..ti + words]);
    }

    // Reverse DP: mark ancestors of all border targets. §4.1 defines
    // cross-border nodes via paths between border nodes of *different*
    // regions, but same-region border pairs must be included too: a query
    // with Rs == Rt whose shortest path detours through a neighbouring
    // region R' travels over nodes of R' that lie only on same-region
    // border-pair paths, and EB ships only the cross-border segment of
    // R'. (Extension of the paper's definition, required for correctness
    // of same-region queries; the diagonal of matrix A is the matching
    // extension on the pruning side.)
    //
    // `on_path` marks from a previous source are only ever read for
    // nodes in the *current* order, which is cleared first, so the
    // buffer carries over between sources without a full reset.
    for &v in order.iter() {
        on_path[v as usize] = false;
    }
    for &t in borders.all() {
        if t != b && dist[t as usize] != DIST_INF {
            on_path[t as usize] = true;
        }
    }
    for &v in order.iter().rev() {
        if on_path[v as usize] {
            partial.cross_border[v as usize] = true;
            let p = parent[v as usize];
            if p != NO_PARENT {
                on_path[p as usize] = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spair_partition::KdTreePartition;
    use spair_roadnet::dijkstra::{dijkstra_distance, dijkstra_to_target};
    use spair_roadnet::generators::small_grid;

    fn setup(seed: u64, regions: usize) -> (RoadNetwork, KdTreePartition, BorderPrecomputation) {
        let g = small_grid(12, 12, seed);
        let part = KdTreePartition::build(&g, regions);
        let pre = BorderPrecomputation::run(&g, &part);
        (g, part, pre)
    }

    #[test]
    fn minmax_matches_pairwise_dijkstra() {
        let (g, _part, pre) = setup(3, 4);
        let borders = pre.borders();
        for ri in 0..4u16 {
            for rj in 0..4u16 {
                let mut min = DIST_INF;
                let mut max = 0;
                for &a in borders.of_region(ri) {
                    for &b in borders.of_region(rj) {
                        if a == b {
                            continue;
                        }
                        if let Some(d) = dijkstra_distance(&g, a, b) {
                            min = min.min(d);
                            max = max.max(d);
                        }
                    }
                }
                let cell = pre.minmax(ri, rj);
                if ri == rj {
                    assert_eq!(cell.min, 0);
                    assert_eq!(cell.max, max);
                } else {
                    assert_eq!(cell.min, min, "min({ri},{rj})");
                    assert_eq!(cell.max, max, "max({ri},{rj})");
                }
            }
        }
    }

    #[test]
    fn traversed_covers_actual_path_regions() {
        let (g, part, pre) = setup(5, 8);
        let borders = pre.borders();
        // For a sample of border pairs, the regions of the true shortest
        // path must all appear in the traversed set (ties may differ, but
        // the canonical path has equal length; we check distances instead
        // when the region sets differ).
        let all = borders.all();
        for (i, &a) in all.iter().enumerate().step_by(5) {
            for &b in all.iter().skip(i + 1).step_by(7) {
                let ra = part.region_of(a);
                let rb = part.region_of(b);
                if ra == rb {
                    continue;
                }
                let set = pre.traversed(ra, rb);
                // Restricting Dijkstra to the traversed set must preserve
                // the border-pair distance.
                let (res, _) = spair_roadnet::dijkstra::dijkstra_filtered(&g, a, b, |v| {
                    set.contains(part.region_of(v))
                });
                let want = dijkstra_distance(&g, a, b);
                assert_eq!(res.map(|(d, _)| d), want, "pair {a}->{b}");
            }
        }
    }

    #[test]
    fn needed_regions_contains_terminals() {
        let (_, _, pre) = setup(1, 4);
        for rs in 0..4u16 {
            for rt in 0..4u16 {
                let needed = pre.needed_regions(rs, rt);
                assert!(needed.contains(rs) && needed.contains(rt));
            }
        }
    }

    #[test]
    fn cross_border_nodes_cover_border_pair_paths() {
        let (g, part, pre) = setup(7, 4);
        let borders = pre.borders();
        let all = borders.all();
        for (i, &a) in all.iter().enumerate().step_by(6) {
            for &b in all.iter().skip(i + 1).step_by(9) {
                if part.region_of(a) == part.region_of(b) {
                    continue;
                }
                // A shortest path must exist using only cross-border
                // nodes (the canonical one qualifies).
                let want = dijkstra_distance(&g, a, b);
                let (res, _) = spair_roadnet::dijkstra::dijkstra_filtered(&g, a, b, |v| {
                    pre.is_cross_border(v)
                });
                assert_eq!(res.map(|(d, _)| d), want);
            }
        }
    }

    #[test]
    fn local_nodes_are_never_on_inter_region_paths() {
        let (g, part, pre) = setup(2, 8);
        let borders = pre.borders();
        // Sample a few border pairs, walk the actual path, and confirm
        // every intermediate node is flagged cross-border.
        let all = borders.all();
        for (i, &a) in all.iter().enumerate().step_by(8) {
            for &b in all.iter().skip(i + 1).step_by(11) {
                if part.region_of(a) == part.region_of(b) {
                    continue;
                }
                if let Some((_, path)) = dijkstra_to_target(&g, a, b) {
                    // The canonical tree path is marked; an arbitrary
                    // shortest path may differ under ties, so re-derive
                    // the canonical one via full Dijkstra's parents.
                    let tree = spair_roadnet::dijkstra_full(&g, a);
                    let canon = tree.path_to(b).unwrap();
                    for &v in &canon {
                        assert!(
                            pre.is_cross_border(v),
                            "node {v} on canonical {a}->{b} not marked"
                        );
                    }
                    let _ = path;
                }
            }
        }
    }

    #[test]
    fn diagonal_minmax_bounds_detours() {
        let (_, _, pre) = setup(4, 4);
        for r in 0..4u16 {
            let cell = pre.minmax(r, r);
            assert_eq!(cell.min, 0);
        }
    }

    #[test]
    fn timing_is_recorded() {
        let (_, _, pre) = setup(0, 4);
        assert!(pre.precompute_secs >= 0.0);
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        for (seed, regions) in [(1u64, 4usize), (9, 8), (13, 16)] {
            let g = small_grid(14, 14, seed);
            let part = KdTreePartition::build(&g, regions);
            let serial = BorderPrecomputation::run_serial(&g, &part);
            for threads in [2, 3, 5, 8] {
                let par = BorderPrecomputation::run_with_threads(&g, &part, threads);
                assert!(
                    serial.same_tables(&par),
                    "threads={threads} seed={seed} regions={regions}"
                );
            }
        }
    }

    /// Tripwire for the core search: on a germany-class map the dangling
    /// trees hold most nodes and no source meets a double tie. A
    /// generator change that quietly defeats the kernel fails here.
    #[test]
    fn germany_class_core_is_small_and_tie_free() {
        let g = spair_roadnet::NetworkPreset::Germany
            .config_for_nodes(7, 2_000)
            .generate();
        let part = KdTreePartition::build(&g, 32);
        let pre = BorderPrecomputation::run(&g, &part);
        assert!(pre.borders().count() > 100);
        assert!(
            pre.core_nodes() < g.num_nodes() / 2,
            "core {} of {}",
            pre.core_nodes(),
            g.num_nodes()
        );
        assert_eq!(pre.tie_fallback_sources(), 0);
    }

    #[test]
    fn single_region_partition_has_empty_tables() {
        let g = small_grid(6, 6, 2);
        let part = spair_partition::GridPartition::build(&g, 1, 1);
        let pre = BorderPrecomputation::run(&g, &part);
        assert_eq!(pre.borders().count(), 0);
        assert_eq!(pre.minmax(0, 0).min, 0);
        assert!(pre.traversed(0, 0).is_empty());
    }
}
