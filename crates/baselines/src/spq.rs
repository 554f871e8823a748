//! SPQ — the shortest-path quadtree of Samet, Sankaranarayanan & Alborzi
//! (SIGMOD 2008; paper §2.1).
//!
//! For every node `v`, all other nodes are colored by the incident edge of
//! `v` their shortest path leaves through; a region quadtree over the
//! node coordinates coalesces same-colored areas. A query walks: look up
//! `v_t`'s color in `v_s`'s quadtree, follow that edge, repeat from the
//! next node until `v_t` is reached.
//!
//! As with HiTi, the paper keeps SPQ out of the per-query broadcast
//! experiments: storing one quadtree per node multiplies the cycle length
//! (Table 1: 52 337 packets versus Dijkstra's 14 019 on Germany) and the
//! client would have to hold all trees on the path. Building is also the
//! costliest of all methods (one shortest-path tree per node), which used
//! to lock SPQ out of the paper-scale load cell entirely. The production
//! build ([`SpqIndex::build_with_threads`]) makes it tractable with four
//! ingredients, each differentially tested against a slow oracle:
//!
//! * core roots take their tree from the all-sources kernel of
//!   [`spair_roadnet::peel`], which searches only the graph's 2-core and
//!   fills the dangling trees around it, and their colors from
//!   [`spair_roadnet::first_hop`]'s one-sweep DP over that tree;
//! * a root inside a dangling tree runs no search at all: every node it
//!   reaches outside its own subtree takes the color of its one exit
//!   edge, and its subtree takes the child-edge colors in one pass over
//!   the kernel's fill order (reachability comes from the search of the
//!   core node the tree hangs off);
//! * per-root quadtrees are built by walking a [`QuadTemplate`] — the
//!   node coordinates are quadrant-sorted **once per graph**, so a root's
//!   tree costs one color scan over the shared order instead of
//!   re-bucketing every point at every recursion level;
//! * core roots, each with the roots hanging off it, fan out across
//!   worker threads through [`parallel::map_reduce_chunked`]; every tree
//!   depends on its root alone, so the index is bit-identical
//!   ([`SpqIndex::same_trees`]) for every thread count — and identical
//!   to [`SpqIndex::build_reference`], the naive per-root recursive
//!   builder retained as the differential oracle.

use spair_roadnet::dijkstra::Direction;
use spair_roadnet::first_hop::{first_hops_from_source_tree, first_hops_from_tree};
use spair_roadnet::peel::{Peel, SourceTree};
use spair_roadnet::sptree::NO_PARENT;
use spair_roadnet::{dijkstra_full, parallel, NodeId, Point, RoadNetwork, DIST_INF};
use std::time::Instant;

/// Color = index of the first edge out of the root node (255 = none).
pub type Color = u8;

/// No-path marker (also [`spair_roadnet::first_hop::NO_FIRST_HOP`], which
/// the first-hop sweep shares).
pub const NO_COLOR: Color = u8::MAX;

/// A region quadtree over node coordinates with per-leaf colors.
#[derive(Debug, Clone, PartialEq)]
pub enum Quadtree {
    /// All points below share one color.
    Leaf(Color),
    /// Four children (quadrant order: SW, SE, NW, NE).
    Internal(Box<[Quadtree; 4]>),
    /// Depth-capped or duplicate-coordinate mixed leaf: explicit
    /// `(point, color)` list.
    Mixed(Vec<(Point, Color)>),
}

impl Quadtree {
    /// Number of tree blocks (nodes), the size measure of the paper.
    pub fn blocks(&self) -> usize {
        match self {
            Quadtree::Leaf(_) => 1,
            Quadtree::Mixed(pts) => 1 + pts.len(),
            Quadtree::Internal(ch) => 1 + ch.iter().map(Quadtree::blocks).sum::<usize>(),
        }
    }

    /// Color lookup for an exact node coordinate.
    pub fn color_at(&self, p: Point, bbox: (Point, Point)) -> Color {
        match self {
            Quadtree::Leaf(c) => *c,
            Quadtree::Mixed(pts) => pts
                .iter()
                .find(|(q, _)| q.x == p.x && q.y == p.y)
                .map(|(_, c)| *c)
                .unwrap_or(NO_COLOR),
            Quadtree::Internal(ch) => {
                let (min, max) = bbox;
                let mid = Point::new((min.x + max.x) / 2.0, (min.y + max.y) / 2.0);
                let (qi, sub) = quadrant(p, min, mid, max);
                ch[qi].color_at(p, sub)
            }
        }
    }
}

pub(crate) fn quadrant(p: Point, min: Point, mid: Point, max: Point) -> (usize, (Point, Point)) {
    let east = p.x >= mid.x;
    let north = p.y >= mid.y;
    let idx = usize::from(north) * 2 + usize::from(east);
    let sub = (
        Point::new(
            if east { mid.x } else { min.x },
            if north { mid.y } else { min.y },
        ),
        Point::new(
            if east { max.x } else { mid.x },
            if north { max.y } else { mid.y },
        ),
    );
    (idx, sub)
}

const MAX_DEPTH: usize = 20;

fn build_tree(points: &[(Point, Color)], bbox: (Point, Point), depth: usize) -> Quadtree {
    if points.is_empty() {
        return Quadtree::Leaf(NO_COLOR);
    }
    let first = points[0].1;
    if points.iter().all(|&(_, c)| c == first) {
        return Quadtree::Leaf(first);
    }
    if depth >= MAX_DEPTH {
        return Quadtree::Mixed(points.to_vec());
    }
    // Degenerate: every point shares one coordinate, so no split can ever
    // separate them. (Only this case may bail: distinct coordinates that
    // happen to land in one quadrant of a non-tight bbox still separate
    // under further splits, and the depth cap bounds the recursion.)
    let p0 = points[0].0;
    if points.iter().all(|&(p, _)| p == p0) {
        return Quadtree::Mixed(points.to_vec());
    }
    let (min, max) = bbox;
    let mid = Point::new((min.x + max.x) / 2.0, (min.y + max.y) / 2.0);
    let mut buckets: [Vec<(Point, Color)>; 4] = Default::default();
    let mut boxes = [bbox; 4];
    for &(p, c) in points {
        let (qi, sub) = quadrant(p, min, mid, max);
        buckets[qi].push((p, c));
        boxes[qi] = sub;
    }
    let children: Vec<Quadtree> = buckets
        .iter()
        .zip(boxes.iter())
        .map(|(b, &bx)| build_tree(b, bx, depth + 1))
        .collect();
    Quadtree::Internal(Box::new(
        children.try_into().expect("exactly four children"),
    ))
}

/// A root-independent quadrant subdivision of the node coordinates.
///
/// Every per-root quadtree recurses over the *same* spatial structure —
/// only the colors differ — so the template sorts the nodes into
/// quadrant-recursive order **once per graph** (each template cell covers
/// a contiguous range of `order`, stably preserving ascending node-id
/// order within the range). A root's colored tree is then a single walk:
/// scan a cell's color range; uniform → `Leaf`, terminal or
/// duplicate-coordinate → `Mixed`, otherwise recurse into the four child
/// cells. No per-root re-bucketing, no allocation besides the output.
///
/// [`QuadTemplate::colored_tree`] reproduces [`build_tree`] over the
/// root-excluded point set exactly; the `template_build_matches_*` tests
/// hold the two builders bit-identical.
#[derive(Debug)]
pub(crate) struct QuadTemplate {
    /// Node ids in quadrant-recursive order.
    order: Vec<NodeId>,
    /// Cells, preorder; cell 0 covers the whole `order`.
    cells: Vec<TemplateCell>,
}

#[derive(Debug, Clone, Copy)]
struct TemplateCell {
    lo: u32,
    hi: u32,
    /// SW/SE/NW/NE child cells; `None` for terminal cells (singleton,
    /// shared-coordinate, or depth-capped ranges).
    children: Option<[u32; 4]>,
}

impl QuadTemplate {
    pub(crate) fn build(g: &RoadNetwork) -> Self {
        let mut order: Vec<NodeId> = g.node_ids().collect();
        let mut cells = Vec::new();
        let n = order.len();
        subdivide(g, &mut order, 0, n, g.bounding_box(), 0, &mut cells);
        Self { order, cells }
    }

    /// Builds `root`'s colored quadtree from per-node colors (indexed by
    /// node id; the root itself is skipped, matching the per-root point
    /// sets of the recursive builder).
    pub(crate) fn colored_tree(&self, g: &RoadNetwork, colors: &[Color], root: NodeId) -> Quadtree {
        self.walk(g, 0, colors, root)
    }

    fn walk(&self, g: &RoadNetwork, cell: u32, colors: &[Color], root: NodeId) -> Quadtree {
        let c = self.cells[cell as usize];
        let range = &self.order[c.lo as usize..c.hi as usize];
        let mut it = range.iter().copied().filter(|&v| v != root);
        let Some(first) = it.next() else {
            return Quadtree::Leaf(NO_COLOR);
        };
        let first_color = colors[first as usize];
        let first_point = g.point(first);
        let mut uniform = true;
        let mut shared_coord = true;
        for v in it {
            uniform &= colors[v as usize] == first_color;
            shared_coord &= g.point(v) == first_point;
            if !uniform && !shared_coord {
                break;
            }
        }
        if uniform {
            return Quadtree::Leaf(first_color);
        }
        match c.children {
            Some(ch) if !shared_coord => Quadtree::Internal(Box::new([
                self.walk(g, ch[0], colors, root),
                self.walk(g, ch[1], colors, root),
                self.walk(g, ch[2], colors, root),
                self.walk(g, ch[3], colors, root),
            ])),
            // Terminal cell (depth cap) or all remaining points at one
            // coordinate — build_tree's Mixed cases.
            _ => Quadtree::Mixed(
                range
                    .iter()
                    .copied()
                    .filter(|&v| v != root)
                    .map(|v| (g.point(v), colors[v as usize]))
                    .collect(),
            ),
        }
    }
}

/// Recursive quadrant sort behind [`QuadTemplate::build`]. Mirrors
/// [`build_tree`]'s geometry exactly: same midpoints, same quadrant
/// assignment, same depth cap, same shared-coordinate bail.
fn subdivide(
    g: &RoadNetwork,
    order: &mut [NodeId],
    lo: usize,
    hi: usize,
    bbox: (Point, Point),
    depth: usize,
    cells: &mut Vec<TemplateCell>,
) -> u32 {
    let idx = cells.len() as u32;
    cells.push(TemplateCell {
        lo: lo as u32,
        hi: hi as u32,
        children: None,
    });
    if hi - lo <= 1 || depth >= MAX_DEPTH {
        return idx;
    }
    let p0 = g.point(order[lo]);
    if order[lo..hi].iter().all(|&v| g.point(v) == p0) {
        return idx;
    }
    let (min, max) = bbox;
    let mid = Point::new((min.x + max.x) / 2.0, (min.y + max.y) / 2.0);
    let mut buckets: [Vec<NodeId>; 4] = Default::default();
    let mut boxes = [bbox; 4];
    for &v in order[lo..hi].iter() {
        let (qi, sub) = quadrant(g.point(v), min, mid, max);
        buckets[qi].push(v);
        boxes[qi] = sub;
    }
    // Write the stable 4-way partition back, then recurse per quadrant.
    let mut cursor = lo;
    let mut ranges = [(0usize, 0usize); 4];
    for (qi, bucket) in buckets.iter().enumerate() {
        order[cursor..cursor + bucket.len()].copy_from_slice(bucket);
        ranges[qi] = (cursor, cursor + bucket.len());
        cursor += bucket.len();
    }
    let mut children = [0u32; 4];
    for qi in 0..4 {
        let (clo, chi) = ranges[qi];
        children[qi] = subdivide(g, order, clo, chi, boxes[qi], depth + 1, cells);
    }
    cells[idx as usize].children = Some(children);
    idx
}

/// The SPQ index: one colored quadtree per node.
#[derive(Debug, Clone)]
pub struct SpqIndex {
    trees: Vec<Quadtree>,
    bbox: (Point, Point),
    /// Roots inside dangling trees, colored without a search.
    searchless_roots: usize,
    /// Core nodes outside the degree-2 chains, the ones each search's
    /// heap settles.
    branch_nodes: usize,
    /// Core roots the kernel recomputed over the whole graph after a
    /// double tie.
    tie_fallback_roots: usize,
    /// Build wall-clock.
    pub precompute_secs: f64,
}

/// Per-worker scratch of the fan-out build, shared across every root the
/// worker claims.
struct RootScratch {
    tree: SourceTree,
    colors: Vec<Color>,
    /// Per peeled node: the last root whose subtree it was found in.
    subtree_of: Vec<NodeId>,
}

/// One worker's trees, keyed by root, and its fallback count.
#[derive(Default)]
struct RootPartial {
    trees: Vec<(NodeId, Quadtree)>,
    tie_fallbacks: usize,
}

impl SpqIndex {
    /// Builds all quadtrees with the detected worker count.
    pub fn build(g: &RoadNetwork) -> Self {
        Self::build_with_threads(g, parallel::num_threads())
    }

    /// Single-threaded [`SpqIndex::build_with_threads`].
    pub fn build_serial(g: &RoadNetwork) -> Self {
        Self::build_with_threads(g, 1)
    }

    /// Builds the index with an explicit worker count: one kernel search
    /// per core root, none per root inside a dangling tree (see the
    /// module docs). Bit-identical to [`SpqIndex::build_serial`] for
    /// every `threads` and to [`SpqIndex::build_reference`]: the kernel's
    /// parents are exactly those of a whole-graph heap-driven search, the
    /// tie rule documented in [`spair_roadnet::first_hop`].
    pub fn build_with_threads(g: &RoadNetwork, threads: usize) -> Self {
        let start = Instant::now();
        let bbox = g.bounding_box();
        let template = QuadTemplate::build(g);
        let peel = Peel::new(g, Direction::Forward);
        let hanging = hanging_roots(g, &peel);
        let merged = parallel::map_reduce_chunked(
            peel.core_nodes(),
            threads,
            8,
            || RootScratch {
                tree: SourceTree::new(&peel),
                colors: vec![NO_COLOR; g.num_nodes()],
                subtree_of: vec![NO_PARENT; g.num_nodes()],
            },
            RootPartial::default,
            |scratch, partial, chunk, _| {
                for &a in chunk {
                    partial.tie_fallbacks += usize::from(scratch.tree.search(&peel, a));
                    first_hops_from_source_tree(g, &scratch.tree, &mut scratch.colors);
                    partial
                        .trees
                        .push((a, template.colored_tree(g, &scratch.colors, a)));
                    let first = hanging.partition_point(|&(b, _)| b < a);
                    for &(_, r) in hanging[first..].iter().take_while(|&&(b, _)| b == a) {
                        color_hanging_root(g, &peel, r, scratch);
                        partial
                            .trees
                            .push((r, template.colored_tree(g, &scratch.colors, r)));
                    }
                }
            },
            |acc, p| {
                acc.trees.extend(p.trees);
                acc.tie_fallbacks += p.tie_fallbacks;
            },
        )
        .unwrap_or_default();
        let mut trees = merged.trees;
        trees.sort_unstable_by_key(|&(v, _)| v);
        Self {
            trees: trees.into_iter().map(|(_, tree)| tree).collect(),
            bbox,
            searchless_roots: peel.fill_order().len(),
            branch_nodes: peel.branch_nodes().len(),
            tie_fallback_roots: merged.tie_fallbacks,
            precompute_secs: start.elapsed().as_secs_f64(),
        }
    }

    /// The naive builder: a fresh full Dijkstra and a recursive
    /// [`build_tree`] per root. Quadratic allocations and re-bucketing —
    /// kept (and exercised by the test battery) as the differential
    /// oracle the fast path must match tree-for-tree.
    pub fn build_reference(g: &RoadNetwork) -> Self {
        let start = Instant::now();
        let bbox = g.bounding_box();
        let mut trees = Vec::with_capacity(g.num_nodes());
        let mut colors = vec![NO_COLOR; g.num_nodes()];
        let mut points = Vec::with_capacity(g.num_nodes().saturating_sub(1));
        for v in g.node_ids() {
            let tree = dijkstra_full(g, v);
            first_hops_from_tree(g, &tree, &mut colors);
            points.clear();
            points.extend(
                g.node_ids()
                    .filter(|&u| u != v)
                    .map(|u| (g.point(u), colors[u as usize])),
            );
            trees.push(build_tree(&points, bbox, 0));
        }
        Self {
            trees,
            bbox,
            searchless_roots: 0,
            branch_nodes: g.num_nodes(),
            tie_fallback_roots: 0,
            precompute_secs: start.elapsed().as_secs_f64(),
        }
    }

    /// Whether two indexes hold bit-identical trees over the same
    /// bounding box (the `same_tables` of the SPQ build: the parallel
    /// fan-out and the template walk must not change a single block).
    pub fn same_trees(&self, other: &Self) -> bool {
        self.bbox == other.bbox && self.trees == other.trees
    }

    /// Nodes in the graph's 2-core: the roots the build searches (every
    /// node for [`SpqIndex::build_reference`]).
    pub fn core_nodes(&self) -> usize {
        self.trees.len() - self.searchless_roots
    }

    /// Roots inside dangling trees, colored without a search.
    pub fn searchless_roots(&self) -> usize {
        self.searchless_roots
    }

    /// Core nodes outside the degree-2 chains: the nodes each root's heap
    /// search settles (every node for [`SpqIndex::build_reference`]).
    pub fn branch_nodes(&self) -> usize {
        self.branch_nodes
    }

    /// Core roots recomputed over the whole graph after a double tie.
    pub fn tie_fallback_roots(&self) -> usize {
        self.tie_fallback_roots
    }

    /// The colored quadtree of node `v`.
    pub fn tree(&self, v: NodeId) -> &Quadtree {
        &self.trees[v as usize]
    }

    /// Total quadtree blocks.
    pub fn total_blocks(&self) -> usize {
        self.trees.iter().map(Quadtree::blocks).sum()
    }

    /// Index size in bytes (2 bytes per block: path-encoded quadrant +
    /// color, the compact representation of the original paper).
    pub fn index_bytes(&self) -> usize {
        self.total_blocks() * 2
    }

    /// Index size in broadcast packets.
    pub fn index_packets(&self) -> usize {
        self.index_bytes()
            .div_ceil(spair_broadcast::packet::PAYLOAD_CAPACITY)
    }

    /// Point-to-point query by repeated quadtree lookups. Returns the
    /// traversed path (including both endpoints).
    pub fn query(&self, g: &RoadNetwork, s: NodeId, t: NodeId) -> Option<Vec<NodeId>> {
        let mut path = vec![s];
        let mut cur = s;
        for _ in 0..g.num_nodes() {
            if cur == t {
                return Some(path);
            }
            let color = self.trees[cur as usize].color_at(g.point(t), self.bbox);
            if color == NO_COLOR {
                return None;
            }
            let next = g.out_edges(cur).nth(color as usize)?.0;
            path.push(next);
            cur = next;
        }
        None
    }
}

/// The peeled nodes as `(attachment, node)` pairs, sorted: the
/// attachment is the core node the node's dangling tree hangs off.
fn hanging_roots(g: &RoadNetwork, peel: &Peel) -> Vec<(NodeId, NodeId)> {
    let mut attachment: Vec<NodeId> = g.node_ids().collect();
    for &v in peel.fill_order() {
        attachment[v as usize] = attachment[peel.tree_parent(v).expect("peeled") as usize];
    }
    let mut hanging: Vec<_> = peel
        .fill_order()
        .iter()
        .map(|&v| (attachment[v as usize], v))
        .collect();
    hanging.sort_unstable();
    hanging
}

/// Colors every node by its first hop out of `r`, a root inside a
/// dangling tree, without a search. `scratch.tree` must hold the search
/// from the core node `r`'s tree hangs off, which reaches exactly the
/// nodes `r` reaches: the tree's edges run both ways.
///
/// Every out-edge of `r` leads to its tree parent or to a child, and a
/// child's subtree connects to the rest only through `r`. So a node in
/// a child's subtree is reached through that child's edge, and every
/// other node `r` reaches through the exit edge to its tree parent.
/// Positions past 254 are inexpressible and stay [`NO_COLOR`], as in the
/// first-hop sweep.
fn color_hanging_root(g: &RoadNetwork, peel: &Peel, r: NodeId, scratch: &mut RootScratch) {
    let RootScratch {
        tree,
        colors,
        subtree_of,
    } = scratch;
    let exit_parent = peel.tree_parent(r);
    let color_of = |i: usize| Color::try_from(i).unwrap_or(NO_COLOR);
    let exit = g
        .out_edges(r)
        .position(|(u, _)| Some(u) == exit_parent)
        .map_or(NO_COLOR, color_of);
    for (c, &d) in colors.iter_mut().zip(tree.distances()) {
        *c = if d == DIST_INF { NO_COLOR } else { exit };
    }
    colors[r as usize] = NO_COLOR;
    for (i, (u, _)) in g.out_edges(r).enumerate() {
        if Some(u) != exit_parent {
            colors[u as usize] = color_of(i);
            subtree_of[u as usize] = r;
        }
    }
    for &u in peel.fill_order() {
        let p = peel.tree_parent(u).expect("peeled") as usize;
        if subtree_of[p] == r {
            colors[u as usize] = colors[p];
            subtree_of[u as usize] = r;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spair_roadnet::dijkstra_to_target;
    use spair_roadnet::generators::small_grid;
    use spair_roadnet::{Distance, GraphBuilder};

    #[test]
    fn query_paths_are_shortest() {
        let g = small_grid(6, 6, 5);
        let idx = SpqIndex::build(&g);
        for &(s, t) in &[(0u32, 35u32), (5, 30), (17, 18)] {
            let path = idx.query(&g, s, t).unwrap();
            let mut acc: Distance = 0;
            for w in path.windows(2) {
                acc += g.weight_between(w[0], w[1]).unwrap() as Distance;
            }
            let (want, _) = dijkstra_to_target(&g, s, t).unwrap();
            assert_eq!(acc, want, "{s}->{t}");
        }
    }

    #[test]
    fn trivial_query() {
        let g = small_grid(4, 4, 1);
        let idx = SpqIndex::build(&g);
        assert_eq!(idx.query(&g, 3, 3), Some(vec![3]));
    }

    #[test]
    fn block_count_is_positive_and_large() {
        let g = small_grid(8, 8, 2);
        let idx = SpqIndex::build(&g);
        // One tree per node, each with at least one block.
        assert!(idx.total_blocks() >= g.num_nodes());
        assert_eq!(idx.index_bytes(), idx.total_blocks() * 2);
    }

    #[test]
    fn index_dwarfs_network_data() {
        // Table 1's qualitative point for SPQ.
        let g = small_grid(10, 10, 3);
        let idx = SpqIndex::build(&g);
        let network_bytes = g.num_edges() * 8 + g.num_nodes() * 12;
        assert!(idx.index_bytes() > network_bytes);
    }

    #[test]
    fn unreachable_target_returns_none() {
        let mut b = GraphBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(1.0, 0.0));
        let g = b.finish();
        let idx = SpqIndex::build(&g);
        assert_eq!(idx.query(&g, 0, 1), None);
    }

    #[test]
    fn template_build_matches_reference_on_grids() {
        for seed in [1u64, 7, 23] {
            let g = small_grid(7, 7, seed);
            let fast = SpqIndex::build_serial(&g);
            let slow = SpqIndex::build_reference(&g);
            assert!(fast.same_trees(&slow), "seed {seed}");
            assert_eq!(fast.total_blocks(), slow.total_blocks());
        }
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        let g = small_grid(8, 8, 11);
        let serial = SpqIndex::build_serial(&g);
        for threads in [2usize, 3, 4] {
            let par = SpqIndex::build_with_threads(&g, threads);
            assert!(serial.same_trees(&par), "threads {threads}");
        }
    }

    /// Tripwire for the searchless roots, beside precompute's
    /// `germany_class_core_is_small_and_tie_free` on the same map: at
    /// least half the roots hang in dangling trees, at least half the core
    /// lies on degree-2 chains, and no core root meets a double tie. A
    /// generator change that quietly defeats the kernel fails here.
    #[test]
    fn germany_class_roots_are_mostly_searchless_and_tie_free() {
        let g = spair_roadnet::NetworkPreset::Germany
            .config_for_nodes(7, 2_000)
            .generate();
        let idx = SpqIndex::build(&g);
        assert!(
            idx.searchless_roots() * 2 >= g.num_nodes(),
            "searchless {} of {}",
            idx.searchless_roots(),
            g.num_nodes()
        );
        assert_eq!(idx.core_nodes() + idx.searchless_roots(), g.num_nodes());
        assert!(
            idx.branch_nodes() * 2 <= idx.core_nodes(),
            "branch {} of core {}",
            idx.branch_nodes(),
            idx.core_nodes()
        );
        assert_eq!(idx.tie_fallback_roots(), 0);
    }

    // ---- quadtree shape battery -----------------------------------------

    /// True if any node of the tree is a `Mixed` leaf.
    fn has_mixed(t: &Quadtree) -> bool {
        match t {
            Quadtree::Leaf(_) => false,
            Quadtree::Mixed(_) => true,
            Quadtree::Internal(ch) => ch.iter().any(has_mixed),
        }
    }

    /// Brute-force comparator: every listed point must resolve to the
    /// color of the first list entry at its exact coordinate.
    fn assert_colors_match_scan(tree: &Quadtree, points: &[(Point, Color)], bbox: (Point, Point)) {
        for &(p, _) in points {
            let want = points
                .iter()
                .find(|(q, _)| q.x == p.x && q.y == p.y)
                .map(|&(_, c)| c)
                .unwrap();
            assert_eq!(tree.color_at(p, bbox), want, "point ({}, {})", p.x, p.y);
        }
    }

    #[test]
    fn depth_cap_produces_mixed_leaf() {
        // Two points 1e-7 apart inside a unit bbox stay in one quadrant
        // for > MAX_DEPTH halvings: the cap must bail to Mixed, and the
        // lookup must still resolve both exactly.
        let bbox = (Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let points = vec![(Point::new(0.0, 0.0), 1), (Point::new(1e-7, 0.0), 2)];
        let tree = build_tree(&points, bbox, 0);
        assert!(has_mixed(&tree), "depth cap must produce a Mixed leaf");
        assert_colors_match_scan(&tree, &points, bbox);
    }

    #[test]
    fn degenerate_single_quadrant_recurses_on_distinct_coordinates() {
        // Regression for the over-eager degenerate-split bail: both
        // points land in the SW quadrant of the (non-tight) unit bbox,
        // but they are distinct and two further splits separate them.
        // The old check returned Mixed immediately.
        let bbox = (Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let points = vec![(Point::new(0.1, 0.1), 3), (Point::new(0.2, 0.2), 4)];
        let tree = build_tree(&points, bbox, 0);
        assert!(
            !has_mixed(&tree),
            "distinct coordinates must separate into leaves, got {tree:?}"
        );
        assert_colors_match_scan(&tree, &points, bbox);
    }

    #[test]
    fn duplicate_coordinates_bail_to_mixed_with_first_match_lookup() {
        let bbox = (Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let points = vec![
            (Point::new(0.5, 0.5), 1),
            (Point::new(0.5, 0.5), 2),
            (Point::new(0.5, 0.5), 3),
        ];
        let tree = build_tree(&points, bbox, 0);
        assert_eq!(tree, Quadtree::Mixed(points.clone()));
        // First-match semantics of the Mixed scan.
        assert_eq!(tree.color_at(Point::new(0.5, 0.5), bbox), 1);
        assert_eq!(tree.color_at(Point::new(0.4, 0.5), bbox), NO_COLOR);
    }

    #[test]
    fn collinear_points_separate_into_leaves() {
        let bbox = (Point::new(0.0, 0.0), Point::new(7.0, 0.0));
        let points: Vec<(Point, Color)> = (0..8)
            .map(|i| (Point::new(i as f64, 0.0), (i % 3) as Color))
            .collect();
        let tree = build_tree(&points, bbox, 0);
        assert!(!has_mixed(&tree), "collinear distinct points separate");
        assert_colors_match_scan(&tree, &points, bbox);
    }

    #[test]
    fn template_matches_reference_with_duplicate_coordinates() {
        // Two nodes at the same coordinate (and a third elsewhere): both
        // builders must agree on the Mixed bail and the root exclusion.
        let mut b = GraphBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(1.0, 1.0));
        b.add_undirected_edge(0, 2, 1);
        b.add_undirected_edge(1, 2, 3);
        b.add_undirected_edge(0, 1, 5);
        let g = b.finish();
        let fast = SpqIndex::build_serial(&g);
        let slow = SpqIndex::build_reference(&g);
        assert!(fast.same_trees(&slow));
        for (s, t) in [(0u32, 2u32), (2, 0), (1, 2)] {
            let path = fast.query(&g, s, t).unwrap();
            assert_eq!(path.first(), Some(&s));
            assert_eq!(path.last(), Some(&t));
        }
    }

    #[test]
    fn single_node_graph_has_an_empty_leaf() {
        let mut b = GraphBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        let g = b.finish();
        let idx = SpqIndex::build(&g);
        assert_eq!(idx.tree(0), &Quadtree::Leaf(NO_COLOR));
    }
}
