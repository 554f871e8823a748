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
//! build ([`SpqIndex::build_with_threads`]) makes each tree cost its
//! blocks plus the work its own colors force, with these ingredients,
//! each differentially tested against a slow oracle:
//!
//! * core roots take their tree from the all-sources kernel of
//!   [`spair_roadnet::peel`] in its pruned mode, which searches only the
//!   graph's 2-core, and their colors from [`spair_roadnet::first_hop`]'s
//!   one-sweep DP over that tree; a node in a dangling tree takes the
//!   color of the core node its tree hangs off, or inside the root's own
//!   dangling trees the color of the root edge above it;
//! * a root inside a dangling tree runs no search at all: every node it
//!   reaches outside its own subtree takes the color of its one exit
//!   edge, and its subtree the child-edge colors, read off a preorder
//!   layout of the dangling trees in O(subtree) (reachability comes from
//!   the search of the core node the tree hangs off);
//! * per-root quadtrees are read off a `QuadTemplate` — the node
//!   coordinates are quadrant-sorted **once per graph**. A core root lays
//!   its colors out in template order with running counts of color
//!   changes, so any cell's summary (empty, one color, or mixed) costs
//!   O(1) and the tree O(n + blocks). A searchless root's tree differs
//!   from its attachment's reachability only in the cells holding the
//!   root or its subtree; it rescans those, O((subtree + 1) · depth),
//!   and reads every other cell's summary off the attachment's;
//! * core roots, each with the roots hanging off it, fan out across
//!   worker threads through [`parallel::map_reduce_chunked`]; every tree
//!   depends on its root alone, so the index is bit-identical
//!   ([`SpqIndex::same_trees`]) for every thread count — and identical
//!   to [`SpqIndex::build_reference`], the naive per-root recursive
//!   builder retained as the differential oracle.
//!
//! Two nodes at one coordinate that need different colors in some tree
//! cannot both be answered by a lookup by coordinate. The build counts
//! such leaves ([`SpqIndex::coincident_conflicts`]) so that a program can
//! refuse the world instead of routing wrong.

use spair_roadnet::dijkstra::Direction;
use spair_roadnet::first_hop::{first_hops_from_source_tree, first_hops_from_tree};
use spair_roadnet::peel::{Peel, SourceTree};
use spair_roadnet::sptree::NO_PARENT;
use spair_roadnet::{dijkstra_full, parallel, Distance, NodeId, Point, RoadNetwork, DIST_INF};
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

    /// `Mixed` leaves in which two points at one coordinate differ in
    /// color.
    fn coincident_conflicts(&self) -> usize {
        match self {
            Quadtree::Leaf(_) => 0,
            Quadtree::Mixed(pts) => usize::from(coincident_conflict(pts)),
            Quadtree::Internal(ch) => ch.iter().map(Quadtree::coincident_conflicts).sum(),
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
/// order within the range). A root's colored tree is then read off the
/// cells by [`QuadTemplate::emit`], top-down: a cell whose [`Summary`]
/// is empty or one color → `Leaf`, a terminal or single-coordinate cell →
/// `Mixed`, otherwise the four child cells. A [`Coloring`] answers each
/// summary without a scan, so a tree costs its blocks.
///
/// The emitted tree is [`build_tree`] over the root-excluded point set
/// exactly; the `template_build_matches_*` tests hold the two builders
/// bit-identical.
#[derive(Debug)]
pub(crate) struct QuadTemplate {
    /// Node ids in quadrant-recursive order.
    order: Vec<NodeId>,
    /// Cells, preorder; cell 0 covers the whole `order`.
    cells: Vec<TemplateCell>,
    /// Per node: its position in `order`, and the terminal cell holding
    /// it.
    pos: Vec<u32>,
    leaf: Vec<u32>,
}

#[derive(Debug, Clone, Copy)]
struct TemplateCell {
    lo: u32,
    hi: u32,
    /// SW/SE/NW/NE child cells; `None` for terminal cells (singleton,
    /// shared-coordinate, or depth-capped ranges).
    children: Option<[u32; 4]>,
    /// The enclosing cell ([`NO_PARENT`] for cell 0).
    parent: u32,
    /// For a cell with children: the node whose removal leaves every
    /// other point of the cell at one coordinate, if there is one
    /// ([`NO_PARENT`] otherwise). That node's own tree leaves it out, so
    /// there the cell cannot split its points and bails to `Mixed`.
    lone: NodeId,
}

/// A cell's colors in one value: the color every point of the cell
/// shares, [`EMPTY`] or [`MIXED`].
type Summary = u16;

/// No point in the cell (the root left out).
const EMPTY: Summary = 256;

/// Two colors in the cell.
const MIXED: Summary = 257;

/// The color a node reached from an attachment takes in the attachment's
/// reachability [`Layout`].
const REACHED: Color = 0;

/// The summary of two disjoint point sets' union.
fn merge(a: Summary, b: Summary) -> Summary {
    if a == EMPTY || a == b {
        b
    } else if b == EMPTY {
        a
    } else {
        MIXED
    }
}

/// One root's coloring of the nodes, as [`QuadTemplate::emit`] reads it.
trait Coloring {
    /// Node `v`'s color (never asked for the root itself).
    fn color(&self, v: NodeId) -> Color;
    /// The summary of template cell `cell` (`c`), the root left out.
    fn summary(&self, cell: u32, c: &TemplateCell) -> Summary;
}

/// One coloring in template order with the root left out, and the
/// running count of color changes along it: a cell is one color exactly
/// when the count does not move inside its range, so any cell's summary
/// costs O(1) after an O(n) fill.
#[derive(Debug, Default)]
struct Layout {
    /// The root's position in the template order (`order.len()` when no
    /// node is left out).
    root_pos: u32,
    colors: Vec<Color>,
    /// Per position: how many positions up to it differ in color from
    /// the one before (the first counts as a change).
    changes: Vec<u32>,
}

impl Layout {
    /// Lays out `colors`, the template order's colors with the one at
    /// `root_pos` left out (none when `root_pos` is past the end).
    fn fill(&mut self, root_pos: usize, colors: impl Iterator<Item = Color>) {
        self.root_pos = root_pos as u32;
        self.colors.clear();
        self.colors.extend(colors);
        self.changes.resize(self.colors.len(), 0);
        let (mut prev, mut changes) = (EMPTY, 0);
        for (&c, count) in self.colors.iter().zip(&mut self.changes) {
            changes += u32::from(Summary::from(c) != prev);
            prev = Summary::from(c);
            *count = changes;
        }
    }

    /// Template cell `c`'s summary.
    fn summary(&self, c: &TemplateCell) -> Summary {
        let at = |x: u32| (x - u32::from(self.root_pos < x)) as usize;
        let (lo, hi) = (at(c.lo), at(c.hi));
        if lo == hi {
            EMPTY
        } else if self.changes[hi - 1] == self.changes[lo] {
            Summary::from(self.colors[lo])
        } else {
            MIXED
        }
    }
}

impl QuadTemplate {
    pub(crate) fn build(g: &RoadNetwork) -> Self {
        let mut order: Vec<NodeId> = g.node_ids().collect();
        let mut cells = Vec::new();
        let n = order.len();
        subdivide(g, &mut order, 0, n, g.bounding_box(), 0, &mut cells);
        let mut pos = vec![0; n];
        for (i, &v) in order.iter().enumerate() {
            pos[v as usize] = i as u32;
        }
        let mut leaf = vec![0; n];
        for (i, c) in cells.iter().enumerate() {
            if c.children.is_none() {
                for &v in &order[c.lo as usize..c.hi as usize] {
                    leaf[v as usize] = i as u32;
                }
            }
        }
        Self {
            order,
            cells,
            pos,
            leaf,
        }
    }

    /// Stamps `root` on every cell above `v` up to the first one already
    /// stamped.
    fn mark(&self, v: NodeId, root: NodeId, dirty: &mut [NodeId]) {
        let mut cell = self.leaf[v as usize];
        while cell != NO_PARENT && dirty[cell as usize] != root {
            dirty[cell as usize] = root;
            cell = self.cells[cell as usize].parent;
        }
    }

    /// Summarizes, into `sums`, every cell at or below `cell` that `h`
    /// stamped dirty, children before parents, and returns `cell`'s
    /// summary.
    fn summarize(&self, cell: u32, h: &Hanging, sums: &mut [Summary]) -> Summary {
        let c = self.cells[cell as usize];
        if h.dirty[cell as usize] != h.root {
            return h.clean(&c);
        }
        let s = match c.children {
            Some(ch) => ch
                .iter()
                .fold(EMPTY, |s, &k| merge(s, self.summarize(k, h, sums))),
            None => self.order[c.lo as usize..c.hi as usize]
                .iter()
                .filter(|&&v| v != h.root)
                .fold(EMPTY, |s, &v| merge(s, Summary::from(h.color(v)))),
        };
        sums[cell as usize] = s;
        s
    }

    /// `root`'s quadtree below `cell`. Counts in `conflicts` the `Mixed`
    /// leaves where two nodes at one coordinate differ in color.
    fn emit(
        &self,
        g: &RoadNetwork,
        cell: u32,
        root: NodeId,
        coloring: &impl Coloring,
        conflicts: &mut usize,
    ) -> Quadtree {
        let c = self.cells[cell as usize];
        match coloring.summary(cell, &c) {
            EMPTY => Quadtree::Leaf(NO_COLOR),
            MIXED => match c.children {
                Some(ch) if c.lone != root => Quadtree::Internal(Box::new(
                    ch.map(|k| self.emit(g, k, root, coloring, conflicts)),
                )),
                // Terminal cell (depth cap) or all remaining points at one
                // coordinate — build_tree's Mixed cases.
                _ => {
                    let points: Vec<(Point, Color)> = self.order[c.lo as usize..c.hi as usize]
                        .iter()
                        .filter(|&&v| v != root)
                        .map(|&v| (g.point(v), coloring.color(v)))
                        .collect();
                    *conflicts += usize::from(coincident_conflict(&points));
                    Quadtree::Mixed(points)
                }
            },
            color => Quadtree::Leaf(color as Color),
        }
    }
}

/// Whether two points at one coordinate carry different colors: a
/// lookup by coordinate answers the first of them for both.
fn coincident_conflict(points: &[(Point, Color)]) -> bool {
    // `+ 0.0` folds -0.0 into 0.0, so equal coordinates have equal bits.
    let mut keys: Vec<(u64, u64, Color)> = points
        .iter()
        .map(|&(p, c)| ((p.x + 0.0).to_bits(), (p.y + 0.0).to_bits(), c))
        .collect();
    keys.sort_unstable();
    keys.windows(2)
        .any(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1) && w[0].2 != w[1].2)
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
        parent: NO_PARENT,
        lone: NO_PARENT,
    });
    if hi - lo <= 1 || depth >= MAX_DEPTH {
        return idx;
    }
    let range = &order[lo..hi];
    let p0 = g.point(range[0]);
    let Some(j) = range.iter().position(|&v| g.point(v) != p0) else {
        return idx;
    };
    // Exactly two coordinates, one of them held by a single node: that
    // node is the cell's `lone` node.
    let p1 = g.point(range[j]);
    let at_p0 = range.iter().filter(|&&v| g.point(v) == p0).count();
    if range.iter().all(|&v| g.point(v) == p0 || g.point(v) == p1) {
        if at_p0 == 1 {
            cells[idx as usize].lone = range[0];
        } else if at_p0 == range.len() - 1 {
            cells[idx as usize].lone = range[j];
        }
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
        cells[children[qi] as usize].parent = idx;
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
    /// `Mixed` leaves in which two nodes at one coordinate differ in color.
    coincident_conflicts: usize,
    /// Build wall-clock.
    pub precompute_secs: f64,
}

/// The dangling trees of a [`Peel`], each laid out in preorder so that a
/// node's subtree is one contiguous run, built once per graph.
struct Forest {
    /// The peeled nodes: the trees hanging off each core node together,
    /// each tree in preorder.
    nodes: Vec<NodeId>,
    /// Per node: where its subtree starts in `nodes` (a peeled node), or
    /// where the trees hanging off it start (a core node).
    start: Vec<u32>,
    /// Per node: its subtree's size, itself included (a peeled node), or
    /// the number of nodes hanging off it (a core node).
    size: Vec<u32>,
    /// Per node: the core node its tree hangs off (itself for a core
    /// node).
    attach: Vec<NodeId>,
    /// Per peeled node: the color of the one edge from its tree parent
    /// down to it, and of the one edge from it up to its tree parent.
    down: Vec<Color>,
    up: Vec<Color>,
    /// Per peeled node: its color in its attachment's tree, the `down`
    /// color of its ancestor just below the attachment.
    top: Vec<Color>,
}

impl Forest {
    fn new(g: &RoadNetwork, peel: &Peel) -> Self {
        let n = g.num_nodes();
        let parent = |v: NodeId| peel.tree_parent(v).expect("peeled") as usize;
        let fill = peel.fill_order();
        let mut size = vec![0u32; n];
        for &v in fill.iter().rev() {
            size[v as usize] += 1;
            size[parent(v)] += size[v as usize];
        }
        let mut start = vec![0u32; n];
        let mut next = 0;
        for &c in peel.core_nodes() {
            start[c as usize] = next;
            next += size[c as usize];
        }
        // Peeling leaves exactly one edge each way between a node and its
        // tree parent.
        let (mut down, mut up) = (vec![NO_COLOR; n], vec![NO_COLOR; n]);
        for u in g.node_ids() {
            for (i, (x, _)) in g.out_edges(u).enumerate() {
                let color = Color::try_from(i).unwrap_or(NO_COLOR);
                if peel.tree_parent(x) == Some(u) {
                    down[x as usize] = color;
                }
                if peel.tree_parent(u) == Some(x) {
                    up[u as usize] = color;
                }
            }
        }
        let mut cursor = start.clone();
        let mut nodes = vec![0; fill.len()];
        let mut attach: Vec<NodeId> = g.node_ids().collect();
        let mut top = down.clone();
        for &v in fill {
            let p = parent(v);
            let at = cursor[p];
            cursor[p] += size[v as usize];
            (start[v as usize], cursor[v as usize]) = (at, at + 1);
            nodes[at as usize] = v;
            attach[v as usize] = attach[p];
            if peel.tree_parent(p as NodeId).is_some() {
                top[v as usize] = top[p];
            }
        }
        Self {
            nodes,
            start,
            size,
            attach,
            down,
            up,
            top,
        }
    }

    /// The run of `nodes` that `v` heads: its subtree in preorder (a
    /// peeled node), or every node hanging off it (a core node).
    fn below(&self, v: NodeId) -> &[NodeId] {
        let at = self.start[v as usize] as usize;
        &self.nodes[at..at + self.size[v as usize] as usize]
    }
}

/// A searched root's coloring: its search colors the core, and a peeled
/// node takes the color of its attachment, or inside the root's own
/// dangling trees its [`Forest::top`] color.
struct Searched<'s> {
    root: NodeId,
    /// Per core node: its color.
    colors: &'s [Color],
    forest: &'s Forest,
    layout: &'s Layout,
}

impl Coloring for Searched<'_> {
    fn color(&self, v: NodeId) -> Color {
        let attach = self.forest.attach[v as usize];
        if attach == self.root {
            self.forest.top[v as usize]
        } else {
            self.colors[attach as usize]
        }
    }

    fn summary(&self, _: u32, c: &TemplateCell) -> Summary {
        self.layout.summary(c)
    }
}

/// The coloring of a root inside a dangling tree, which runs no search.
///
/// Every out-edge of the root leads to its tree parent or to a child, and
/// a child's subtree connects to the rest only through the root. So a
/// node in a child's subtree is reached through that child's edge, and
/// every other node the root reaches — exactly the nodes its attachment
/// reaches, since the tree's edges run both ways — through the exit edge
/// to its tree parent. Only the cells holding the root or its subtree
/// (stamped in `dirty`) are summarized afresh; every other cell's summary
/// is the attachment's reachability summary with [`REACHED`] read as the
/// exit color.
struct Hanging<'s> {
    root: NodeId,
    exit: Color,
    /// The attachment's reachability [`Layout`].
    reach: &'s Layout,
    /// The attachment's search distances, and per node its attachment.
    dist: &'s [Distance],
    attach: &'s [NodeId],
    /// Per node: the last root whose subtree holds it, and its color there.
    below: &'s [NodeId],
    colors: &'s [Color],
    /// Per cell: the last root with a subtree node below it.
    dirty: &'s [NodeId],
}

impl Hanging<'_> {
    fn color(&self, v: NodeId) -> Color {
        if self.below[v as usize] == self.root {
            self.colors[v as usize]
        } else if self.dist[self.attach[v as usize] as usize] != DIST_INF {
            self.exit
        } else {
            NO_COLOR
        }
    }

    /// The summary of a cell that holds neither the root nor its subtree.
    fn clean(&self, c: &TemplateCell) -> Summary {
        match self.reach.summary(c) {
            s if s == Summary::from(REACHED) => Summary::from(self.exit),
            MIXED if self.exit == NO_COLOR => Summary::from(NO_COLOR),
            s => s,
        }
    }
}

/// A [`Hanging`] coloring with the summaries
/// [`QuadTemplate::summarize`] wrote for its dirty cells.
impl Coloring for (&Hanging<'_>, &[Summary]) {
    fn color(&self, v: NodeId) -> Color {
        self.0.color(v)
    }

    fn summary(&self, cell: u32, c: &TemplateCell) -> Summary {
        let (h, sums) = *self;
        if h.dirty[cell as usize] == h.root {
            sums[cell as usize]
        } else {
            h.clean(c)
        }
    }
}

/// Per-worker scratch of the fan-out build, shared across every root the
/// worker claims.
struct RootScratch {
    tree: SourceTree,
    /// Per node: the current root's colors.
    colors: Vec<Color>,
    /// Per node: the last searchless root whose subtree it was found in.
    below: Vec<NodeId>,
    /// The core root's colors, then its reachability, in template order.
    layout: Layout,
    /// Per cell: the last searchless root with a subtree node below it,
    /// and that root's summary of the cell.
    dirty: Vec<NodeId>,
    sums: Vec<Summary>,
}

/// One worker's trees, keyed by root, and its counters.
#[derive(Default)]
struct RootPartial {
    trees: Vec<(NodeId, Quadtree)>,
    tie_fallbacks: usize,
    conflicts: usize,
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
        let build = Build::new(g);
        let cells = build.template.cells.len();
        let merged = parallel::map_reduce_chunked(
            build.peel.core_nodes(),
            threads,
            8,
            || RootScratch {
                tree: SourceTree::new(&build.peel),
                colors: vec![NO_COLOR; g.num_nodes()],
                below: vec![NO_PARENT; g.num_nodes()],
                layout: Layout::default(),
                dirty: vec![NO_PARENT; cells],
                sums: vec![EMPTY; cells],
            },
            RootPartial::default,
            |scratch, partial, chunk, _| {
                for &a in chunk {
                    build.core_root(a, scratch, partial);
                }
            },
            |acc, p| {
                acc.trees.extend(p.trees);
                acc.tie_fallbacks += p.tie_fallbacks;
                acc.conflicts += p.conflicts;
            },
        )
        .unwrap_or_default();
        let mut trees = merged.trees;
        trees.sort_unstable_by_key(|&(v, _)| v);
        Self {
            trees: trees.into_iter().map(|(_, tree)| tree).collect(),
            bbox: g.bounding_box(),
            searchless_roots: build.forest.nodes.len(),
            branch_nodes: build.peel.branch_nodes().len(),
            tie_fallback_roots: merged.tie_fallbacks,
            coincident_conflicts: merged.conflicts,
            precompute_secs: start.elapsed().as_secs_f64(),
        }
    }

    /// The naive builder: a fresh full Dijkstra and a recursive
    /// `build_tree` per root. Quadratic allocations and re-bucketing —
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
            coincident_conflicts: trees.iter().map(Quadtree::coincident_conflicts).sum(),
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

    /// `Mixed` leaves in which two nodes at one coordinate differ in
    /// color. A lookup by coordinate answers the color of the first of
    /// them, so above zero the index routes some queries wrong.
    pub fn coincident_conflicts(&self) -> usize {
        self.coincident_conflicts
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

/// What every worker of [`SpqIndex::build_with_threads`] reads, built
/// once per graph.
struct Build<'g> {
    g: &'g RoadNetwork,
    template: QuadTemplate,
    forest: Forest,
    /// The core searches: they fill the core only, and the forest colors
    /// the rest.
    peel: Peel<'g>,
    /// Per template position: the node's attachment, and its
    /// [`Forest::top`] color.
    hangs: Vec<(NodeId, Color)>,
}

impl<'g> Build<'g> {
    fn new(g: &'g RoadNetwork) -> Self {
        let template = QuadTemplate::build(g);
        let forest = Forest::new(g, &Peel::new(g, Direction::Forward));
        let hangs = template
            .order
            .iter()
            .map(|&v| (forest.attach[v as usize], forest.top[v as usize]))
            .collect();
        Self {
            g,
            template,
            forest,
            peel: Peel::pruned(g, Direction::Forward, &[]),
            hangs,
        }
    }

    /// The trees of core root `a` and of every root hanging off it.
    fn core_root(&self, a: NodeId, scratch: &mut RootScratch, partial: &mut RootPartial) {
        let Self {
            g,
            template,
            forest,
            peel,
            hangs,
        } = self;
        let RootScratch {
            tree,
            colors,
            below,
            layout,
            dirty,
            sums,
        } = scratch;
        partial.tie_fallbacks += usize::from(tree.search(peel, a));
        first_hops_from_source_tree(g, tree, colors);
        let at = template.pos[a as usize] as usize;
        let color = |&(attach, top): &(NodeId, Color)| {
            if attach == a {
                top
            } else {
                colors[attach as usize]
            }
        };
        layout.fill(at, hangs[..at].iter().chain(&hangs[at + 1..]).map(color));
        let conflicts = &mut partial.conflicts;
        let searched = Searched {
            root: a,
            colors,
            forest,
            layout,
        };
        let core = template.emit(g, 0, a, &searched, conflicts);
        partial.trees.push((a, core));

        let hanging = forest.below(a);
        if hanging.is_empty() {
            return;
        }
        let dist = tree.distances();
        let reach = |&(attach, _): &(NodeId, Color)| {
            if dist[attach as usize] == DIST_INF {
                NO_COLOR
            } else {
                REACHED
            }
        };
        layout.fill(hangs.len(), hangs.iter().map(reach));
        for &r in hanging {
            for &u in forest.below(r) {
                let p = peel.tree_parent(u).expect("peeled");
                colors[u as usize] = if p == r {
                    forest.down[u as usize]
                } else {
                    colors[p as usize]
                };
                below[u as usize] = r;
                template.mark(u, r, dirty);
            }
            let h = Hanging {
                root: r,
                exit: forest.up[r as usize],
                reach: layout,
                dist,
                attach: &forest.attach,
                below,
                colors,
                dirty,
            };
            template.summarize(0, &h, sums);
            let t = template.emit(g, 0, r, &(&h, &sums[..]), conflicts);
            partial.trees.push((r, t));
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

    /// Tree-like networks (most roots searchless) snapped onto a coarse
    /// lattice, so nodes share points, with a few nudged 1e-9 off their
    /// point so the depth cap bails: fast and naive builds agree tree
    /// for tree and on the conflicts they count.
    #[test]
    fn template_matches_reference_on_shared_and_depth_capped_points() {
        let mut conflicts = 0;
        for seed in 0..12u64 {
            let g = spair_roadnet::generators::GeneratorConfig {
                nodes: 60,
                undirected_edges: 66,
                seed,
                ..Default::default()
            }
            .generate();
            let mut b = GraphBuilder::new();
            for v in g.node_ids() {
                let p = g.point(v);
                let nudge = if v % 7 == 0 { 1e-9 } else { 0.0 };
                b.add_node(Point::new(
                    (p.x / 150.0).floor() + nudge,
                    (p.y / 150.0).floor(),
                ));
            }
            for v in g.node_ids() {
                for (u, w) in g.out_edges(v) {
                    b.add_edge(v, u, w);
                }
            }
            let g = b.finish();
            let fast = SpqIndex::build_serial(&g);
            let slow = SpqIndex::build_reference(&g);
            assert!(fast.searchless_roots() > 0, "seed {seed}");
            assert!(fast.same_trees(&slow), "seed {seed}");
            assert_eq!(
                fast.coincident_conflicts(),
                slow.coincident_conflicts(),
                "seed {seed}"
            );
            conflicts += fast.coincident_conflicts();
        }
        assert!(conflicts > 0, "no seed put two colors on one point");
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
