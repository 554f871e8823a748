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
//! Per source the three are extracted by dynamic programs over the
//! shortest-path tree instead of walking each of the O(B²) pair paths:
//! region sets propagate parent→child in settle order, and the
//! on-a-border-path marks propagate child→parent in reverse settle order.
//! Any parents-first order of the tree serves both.
//!
//! The trees come from the all-sources kernel of [`spair_roadnet::peel`]:
//! it searches only the branch nodes of the graph's 2-core and fills the
//! degree-2 chains and the dangling trees around them, with exactly the
//! parents of one whole-graph
//! [`DijkstraWorkspace::run`](spair_roadnet::dijkstra::DijkstraWorkspace::run)
//! per source. Its fill is pruned to the border nodes
//! ([`Peel::pruned`]): a peeled node with no border node in its dangling
//! subtree lies on no border-pair path, so neither the tables nor the
//! DPs read it.
//!
//! **One search per attachment.** The pass searches from *roots*: every
//! border node in the 2-core, and every core node `a` that a dangling
//! tree holding border nodes attaches at. A border node `s` inside a
//! dangling tree is folded from its attachment's search. Let `T` be the
//! dangling subtree below `a` that holds `s`; its only link to the rest
//! of the graph is one edge each way between its top node and `a`, both
//! of positive weight. Then:
//!
//! * Outside `T`, `s`'s tree is `a`'s tree shifted by the walk length
//!   `d(s, a)`. The kernel's search from `s` walks up to `a` and runs the
//!   core search from there at `d(s, a)`, and that search is invariant
//!   under the shift: every comparison it makes, the double-tie checks
//!   included, is between two distances offset by the same amount. So a
//!   target `t` outside `T` gets distance `d(s, a) + d(a, t)` and region
//!   set `R(walk) ∪ PR_a(t)`, and the nodes on paths to such targets are
//!   `a`'s marks outside `T` plus the walk and `a`.
//! * Inside `T`, paths run up the walk and down the tree without leaving
//!   `T`: each source recomputes distances, region sets and marks over
//!   the kept part of `T` alone, in time proportional to it.
//! * If `a`'s search meets a double tie, whole-graph searches from `a`
//!   and from `s` may break it differently, so each source under `a`
//!   falls back to its own search and fold; it meets the same tie, and
//!   [`BorderPrecomputation::tie_fallback_sources`] counts it as before.
//!
//! So the tables equal the whole-graph fold on every graph.

use crate::regionset::{RegionSet, RegionSetMatrix};
use spair_partition::{BorderInfo, Partitioning, RegionId};
use spair_roadnet::dijkstra::Direction;
use spair_roadnet::parallel;
use spair_roadnet::peel::{Peel, SourceTree};
use spair_roadnet::sptree::NO_PARENT;
use spair_roadnet::{Distance, NodeId, RoadNetwork, DIST_INF};
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

    /// Widens the range to cover `d`.
    #[inline]
    fn cover(&mut self, d: Distance) {
        self.min = self.min.min(d);
        self.max = self.max.max(d);
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
    /// Core nodes outside the degree-2 chains, the ones the heap settles.
    branch_nodes: usize,
    /// Peeled nodes with a border node in their dangling subtree.
    kept_peeled_nodes: usize,
    /// Kernel searches from roots: core border nodes and attachments.
    search_roots: usize,
    /// Border nodes inside dangling trees folded from their attachment's
    /// search.
    shared_sources: usize,
    /// Sources recomputed over the whole graph after a double tie.
    tie_fallback_sources: usize,
    /// Wall-clock cost of the pass (Table 3).
    pub precompute_secs: f64,
}

/// A search root: a core node that is a border node, or that dangling
/// trees holding border nodes attach at, or both.
struct Root {
    node: NodeId,
    /// Whether `node` is a border node, a source of its own.
    border: bool,
    /// The dangling subtrees below `node` that hold border nodes.
    subtrees: Vec<Subtree>,
}

/// A dangling subtree directly below its attachment.
struct Subtree {
    /// Its top node, the attachment's neighbour.
    top: NodeId,
    /// Its border nodes, ascending: the sources the attachment's search
    /// serves, and the targets inside the subtree.
    borders: Vec<NodeId>,
    /// Its nodes with a border node below them, parents first.
    kept: Vec<NodeId>,
}

/// What every worker reads: the peeled graph, the regions and the roots.
struct Pass<'g> {
    peel: Peel<'g>,
    borders: BorderInfo,
    region_of: Vec<RegionId>,
    regions: usize,
    words: usize,
    roots: Vec<Root>,
    /// Per kept peeled node, the top of its subtree; `NO_PARENT` for
    /// every other node.
    top: Vec<NodeId>,
}

/// Reusable per-worker buffers for the searches and DPs.
struct SourceScratch {
    tree: SourceTree,
    /// Flat parent→child DP buffer: region set of the tree path to v.
    path_regions: Vec<u64>,
    /// Child→parent marks: v lies on a path towards some border target.
    on_path: Vec<bool>,
    /// A subtree source's tree over its own subtree: the nodes parents
    /// first (its walk to the top first), their distances and path
    /// region sets, and the walk's marks.
    local_order: Vec<NodeId>,
    local_dist: Vec<Distance>,
    local_regions: Vec<u64>,
    on_walk: Vec<bool>,
    /// Per target region, over the border targets outside the current
    /// subtree: min/max distance and path regions from the attachment.
    outside: Vec<MinMax>,
    outside_regions: Vec<u64>,
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
    shared_sources: usize,
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
        let pass = Pass::new(g, part);
        let words = pass.words;

        let merged = parallel::map_reduce_chunked(
            &pass.roots,
            threads,
            4,
            || SourceScratch {
                tree: SourceTree::new(&pass.peel),
                path_regions: vec![0u64; nn * words],
                on_path: vec![false; nn],
                local_order: Vec::new(),
                local_dist: vec![0; nn],
                local_regions: vec![0u64; nn * words],
                on_walk: vec![false; nn],
                outside: vec![MinMax::EMPTY; n],
                outside_regions: vec![0u64; n * words],
            },
            || SourcePartial {
                minmax: vec![MinMax::EMPTY; n * n],
                traversed: RegionSetMatrix::new(n),
                cross_border: vec![false; nn],
                shared_sources: 0,
                tie_fallbacks: 0,
            },
            |scratch, partial, roots, _base| {
                for root in roots {
                    pass.fold_root(scratch, partial, root);
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
                acc.shared_sources += p.shared_sources;
                acc.tie_fallbacks += p.tie_fallbacks;
            },
        );
        let partial = merged.unwrap_or_else(|| SourcePartial {
            // A one-region partitioning has no border nodes at all.
            minmax: vec![MinMax::EMPTY; n * n],
            traversed: RegionSetMatrix::new(n),
            cross_border: vec![false; nn],
            shared_sources: 0,
            tie_fallbacks: 0,
        });
        let (mut minmax, mut cross_border) = (partial.minmax, partial.cross_border);
        for r in 0..n {
            minmax[r * n + r].min = 0;
        }
        for &b in pass.borders.all() {
            cross_border[b as usize] = true;
        }

        Self {
            num_regions: n,
            minmax,
            traversed: partial.traversed,
            cross_border,
            core_nodes: pass.peel.core_nodes().len(),
            branch_nodes: pass.peel.branch_nodes().len(),
            kept_peeled_nodes: pass.peel.fill_order().len(),
            search_roots: pass.roots.len(),
            shared_sources: partial.shared_sources,
            tie_fallback_sources: partial.tie_fallbacks,
            borders: pass.borders,
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

    /// EB's candidate regions for a query from `rs` to `rt` (§4): both
    /// terminal regions, plus every `r` whose min-max entries from `rs`
    /// and to `rt` are both non-empty with
    /// `min(rs, r) + min(r, rt) <= max(rs, rt)`.
    pub fn eb_candidates(&self, rs: RegionId, rt: RegionId) -> RegionSet {
        let ub = self.minmax(rs, rt).max;
        let mut set = RegionSet::new(self.num_regions);
        set.insert(rs);
        set.insert(rt);
        for r in 0..self.num_regions as RegionId {
            let (a, b) = (self.minmax(rs, r), self.minmax(r, rt));
            if !a.is_empty() && !b.is_empty() && a.min + b.min <= ub {
                set.insert(r);
            }
        }
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

    /// Core nodes outside the degree-2 chains: the nodes each source's
    /// heap search settles (the chains are filled in a linear pass).
    pub fn branch_nodes(&self) -> usize {
        self.branch_nodes
    }

    /// Peeled nodes with a border node in their dangling subtree: the
    /// only peeled nodes each search fills.
    pub fn kept_peeled_nodes(&self) -> usize {
        self.kept_peeled_nodes
    }

    /// Kernel searches the pass runs from roots: the core border nodes
    /// and the core nodes that dangling trees holding border nodes
    /// attach at (a node that is both counts once).
    pub fn search_roots(&self) -> usize {
        self.search_roots
    }

    /// Border nodes inside dangling trees folded from their attachment's
    /// search rather than searched on their own.
    pub fn shared_sources(&self) -> usize {
        self.shared_sources
    }

    /// Border sources whose core search met a double tie and were
    /// recomputed over the whole graph.
    pub fn tie_fallback_sources(&self) -> usize {
        self.tie_fallback_sources
    }
}

impl<'g> Pass<'g> {
    /// Peels `g` pruned to its border nodes and groups the sources into
    /// roots, ascending by node.
    fn new(g: &'g RoadNetwork, part: &impl Partitioning) -> Self {
        let nn = g.num_nodes();
        let regions = part.num_regions();
        let borders = BorderInfo::compute(g, part);
        let peel = Peel::pruned(g, Direction::Forward, borders.all());
        let attachment = |top: NodeId| peel.tree_parent(top).expect("a peeled top");
        let mut top = vec![NO_PARENT; nn];
        for &v in peel.fill_order() {
            let p = peel.tree_parent(v).expect("a peeled node");
            top[v as usize] = match peel.tree_parent(p) {
                None => v,
                Some(_) => top[p as usize],
            };
        }
        // Per core node, its root's index (`u32::MAX`: not a root); per
        // top node, its subtree's index among its root's.
        let mut root_of = vec![u32::MAX; nn];
        for &b in borders.all() {
            let t = top[b as usize];
            root_of[if t == NO_PARENT { b } else { attachment(t) } as usize] = 0;
        }
        let mut roots = Vec::new();
        for &v in peel.core_nodes() {
            if root_of[v as usize] != u32::MAX {
                root_of[v as usize] = roots.len() as u32;
                roots.push(Root {
                    node: v,
                    border: borders.is_border(v),
                    subtrees: Vec::new(),
                });
            }
        }
        let mut slot = vec![u32::MAX; nn];
        for &b in borders.all() {
            let t = top[b as usize];
            if t == NO_PARENT {
                continue;
            }
            let root = &mut roots[root_of[attachment(t) as usize] as usize];
            if slot[t as usize] == u32::MAX {
                slot[t as usize] = root.subtrees.len() as u32;
                root.subtrees.push(Subtree {
                    top: t,
                    borders: Vec::new(),
                    kept: Vec::new(),
                });
            }
            root.subtrees[slot[t as usize] as usize].borders.push(b);
        }
        for &v in peel.fill_order() {
            let t = top[v as usize];
            let root = &mut roots[root_of[attachment(t) as usize] as usize];
            root.subtrees[slot[t as usize] as usize].kept.push(v);
        }
        Self {
            region_of: g.node_ids().map(|v| part.region_of(v)).collect(),
            regions,
            words: regions.div_ceil(64),
            peel,
            borders,
            roots,
            top,
        }
    }

    /// Folds a root's search into `partial`: the root as a source, if it
    /// is a border node, and every source in the subtrees below it (see
    /// the module docs). Depends only on the root's own searches, never
    /// on other roots' results — the independence the parallel fan-out
    /// rests on.
    fn fold_root(&self, scratch: &mut SourceScratch, partial: &mut SourcePartial, root: &Root) {
        let a = root.node;
        let tied = scratch.tree.search(&self.peel, a);
        self.path_regions(scratch);
        if root.border {
            partial.tie_fallbacks += usize::from(tied);
            self.fold_targets(scratch, partial, a);
            self.mark_paths(scratch, partial, a, |_| false);
        } else if !tied {
            // The root's marks as its subtrees' sources see them: outside
            // each one's own subtree, and never on the root itself
            // (`fold_subtree` marks it when some path runs through it).
            let lone = match root.subtrees.as_slice() {
                [only] => Some(only.top),
                _ => None,
            };
            self.mark_paths(scratch, partial, a, |v| {
                v == a || lone == Some(self.top[v as usize])
            });
        }
        if tied {
            // Ties may break differently from each source: fold each
            // from its own search.
            for &s in root.subtrees.iter().flat_map(|t| &t.borders) {
                partial.tie_fallbacks += usize::from(scratch.tree.search(&self.peel, s));
                self.path_regions(scratch);
                self.fold_targets(scratch, partial, s);
                self.mark_paths(scratch, partial, s, |_| false);
            }
        } else {
            for subtree in &root.subtrees {
                self.fold_subtree(scratch, partial, a, subtree);
                partial.shared_sources += subtree.borders.len();
            }
        }
    }

    /// The forward DP over the current tree: the regions of the path
    /// from its source to every node in its order.
    fn path_regions(&self, scratch: &mut SourceScratch) {
        let words = self.words;
        let SourceScratch {
            tree, path_regions, ..
        } = scratch;
        let parent = tree.parents();
        for &v in tree.order() {
            let vi = v as usize * words;
            match parent[v as usize] {
                NO_PARENT => path_regions[vi..vi + words].fill(0),
                p => path_regions.copy_within(p as usize * words..p as usize * words + words, vi),
            }
            let r = self.region_of[v as usize] as usize;
            path_regions[vi + r / 64] |= 1u64 << (r % 64);
        }
    }

    /// Folds the current tree, rooted at border node `b`, into min/max
    /// and traversed sets towards every other border node (different
    /// *or same* region — the diagonal serves same-region queries).
    fn fold_targets(&self, scratch: &SourceScratch, partial: &mut SourcePartial, b: NodeId) {
        let (n, words) = (self.regions, self.words);
        let rb = self.region_of[b as usize];
        let dist = scratch.tree.distances();
        for &t in self.borders.all() {
            let d = dist[t as usize];
            if t == b || d == DIST_INF {
                continue;
            }
            let rt = self.region_of[t as usize];
            partial.minmax[rb as usize * n + rt as usize].cover(d);
            let ti = t as usize * words;
            partial
                .traversed
                .get_mut(rb, rt)
                .union_words(&scratch.path_regions[ti..ti + words]);
        }
    }

    /// The reverse DP over the current tree from `source`: marks every
    /// node on a path to a border node other than the source, except
    /// the nodes `skip` names.
    ///
    /// §4.1 defines cross-border nodes via paths between border nodes of
    /// *different* regions, but same-region border pairs must be included
    /// too: a query with Rs == Rt whose shortest path detours through a
    /// neighbouring region R' travels over nodes of R' that lie only on
    /// same-region border-pair paths, and EB ships only the cross-border
    /// segment of R'. (Extension of the paper's definition, required for
    /// correctness of same-region queries; the diagonal of matrix A is
    /// the matching extension on the pruning side.)
    ///
    /// `on_path` marks from a previous tree are only ever read for nodes
    /// in the *current* order, which is cleared first, so the buffer
    /// carries over between trees without a full reset.
    fn mark_paths(
        &self,
        scratch: &mut SourceScratch,
        partial: &mut SourcePartial,
        source: NodeId,
        skip: impl Fn(NodeId) -> bool,
    ) {
        let SourceScratch { tree, on_path, .. } = scratch;
        let (order, dist, parent) = (tree.order(), tree.distances(), tree.parents());
        for &v in order {
            on_path[v as usize] = false;
        }
        for &t in self.borders.all() {
            if t != source && dist[t as usize] != DIST_INF {
                on_path[t as usize] = true;
            }
        }
        for &v in order.iter().rev() {
            if on_path[v as usize] {
                if !skip(v) {
                    partial.cross_border[v as usize] = true;
                }
                let p = parent[v as usize];
                if p != NO_PARENT {
                    on_path[p as usize] = true;
                }
            }
        }
    }

    /// Folds the sources of `subtree` from the tree of `a`, the core node
    /// it attaches at (current, with its path regions).
    fn fold_subtree(
        &self,
        scratch: &mut SourceScratch,
        partial: &mut SourcePartial,
        a: NodeId,
        subtree: &Subtree,
    ) {
        let words = self.words;
        // Targets outside the subtree, per region, as `a` reaches them.
        scratch.outside.fill(MinMax::EMPTY);
        scratch.outside_regions.fill(0);
        let mut reach_out = false;
        let dist = scratch.tree.distances();
        for &t in self.borders.all() {
            let d = dist[t as usize];
            if d == DIST_INF || self.top[t as usize] == subtree.top {
                continue;
            }
            reach_out = true;
            let rt = self.region_of[t as usize] as usize;
            scratch.outside[rt].cover(d);
            let (ti, ri) = (t as usize * words, rt * words);
            for k in 0..words {
                scratch.outside_regions[ri + k] |= scratch.path_regions[ti + k];
            }
        }
        if reach_out {
            partial.cross_border[a as usize] = true;
        }
        for &s in &subtree.borders {
            self.fold_subtree_source(scratch, partial, a, subtree, s, reach_out);
        }
    }

    /// Folds border node `s` of `subtree`, below `a`: its tree over the
    /// kept part of the subtree, and through `a` the targets outside
    /// (`reach_out`: some are reachable), from `scratch.outside`.
    fn fold_subtree_source(
        &self,
        scratch: &mut SourceScratch,
        partial: &mut SourcePartial,
        a: NodeId,
        subtree: &Subtree,
        s: NodeId,
        reach_out: bool,
    ) {
        let (n, words, peel) = (self.regions, self.words, &self.peel);
        let rs = self.region_of[s as usize];
        let SourceScratch {
            on_path,
            local_order: order,
            local_dist: dist,
            local_regions: regions,
            on_walk,
            outside,
            outside_regions,
            ..
        } = scratch;
        let bit = |v: NodeId| {
            let r = self.region_of[v as usize] as usize;
            (r / 64, 1u64 << (r % 64))
        };
        // The walk up to the top, each node the parent of the one after.
        order.clear();
        let (mut v, mut d) = (s, 0);
        loop {
            let vi = v as usize * words;
            match order.last() {
                None => regions[vi..vi + words].fill(0),
                Some(&c) => regions.copy_within(c as usize * words..c as usize * words + words, vi),
            }
            let (k, m) = bit(v);
            regions[vi + k] |= m;
            dist[v as usize] = d;
            on_walk[v as usize] = true;
            order.push(v);
            if v == subtree.top {
                break;
            }
            d += peel.up_weight(v) as Distance;
            v = peel.tree_parent(v).expect("a peeled node");
        }
        let walk = order.len();
        let to_a = d + peel.up_weight(subtree.top) as Distance;
        // The rest of the kept subtree, from the tree parents.
        for &u in &subtree.kept {
            if !on_walk[u as usize] {
                let p = peel.tree_parent(u).expect("a peeled node");
                dist[u as usize] = dist[p as usize] + peel.down_weight(u) as Distance;
                let (ui, pi) = (u as usize * words, p as usize * words);
                regions.copy_within(pi..pi + words, ui);
                let (k, m) = bit(u);
                regions[ui + k] |= m;
                order.push(u);
            }
        }
        for &u in &order[..walk] {
            on_walk[u as usize] = false;
        }

        for &t in &subtree.borders {
            if t != s {
                let rt = self.region_of[t as usize];
                partial.minmax[rs as usize * n + rt as usize].cover(dist[t as usize]);
                let ti = t as usize * words;
                partial
                    .traversed
                    .get_mut(rs, rt)
                    .union_words(&regions[ti..ti + words]);
            }
        }
        if reach_out {
            // The walk's regions: up to the top, and `a`'s.
            let ti = subtree.top as usize * words;
            for (rt, o) in outside.iter().enumerate() {
                if o.is_empty() {
                    continue;
                }
                let cell = &mut partial.minmax[rs as usize * n + rt];
                cell.cover(to_a + o.min);
                cell.cover(to_a + o.max);
                let set = partial.traversed.get_mut(rs, rt as RegionId);
                set.union_words(&outside_regions[rt * words..rt * words + words]);
                set.union_words(&regions[ti..ti + words]);
                set.insert(self.region_of[a as usize]);
            }
        }

        // Marks: the paths to the subtree's other border nodes, and the
        // whole walk when a path leaves through `a`.
        for &v in order.iter() {
            on_path[v as usize] = false;
        }
        for &t in &subtree.borders {
            on_path[t as usize] = t != s;
        }
        if reach_out {
            on_path[subtree.top as usize] = true;
        }
        for (i, &v) in order.iter().enumerate().rev() {
            if on_path[v as usize] {
                partial.cross_border[v as usize] = true;
                let p = match i {
                    0 => continue,
                    _ if i < walk => order[i - 1],
                    _ => peel.tree_parent(v).expect("a peeled node"),
                };
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
                // NR's regions are a subset of EB's candidates (§5).
                let eb = pre.eb_candidates(rs, rt);
                assert!(needed.iter().all(|r| eb.contains(r)));
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
    /// trees hold most nodes, the degree-2 chains at least half the core,
    /// and no source meets a double tie. A generator change that quietly
    /// defeats the kernel fails here.
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
        assert!(
            pre.branch_nodes() * 2 <= pre.core_nodes(),
            "branch {} of core {}",
            pre.branch_nodes(),
            pre.core_nodes()
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
