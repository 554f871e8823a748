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
//! Each source's tree comes from the all-sources kernel of
//! [`spair_roadnet::peel`]: it searches only the branch nodes of the
//! graph's 2-core and fills the degree-2 chains and the dangling trees
//! around them, with exactly the parents of one
//! whole-graph [`DijkstraWorkspace::run`](spair_roadnet::dijkstra::DijkstraWorkspace::run)
//! per border node. So the tables equal that whole-graph fold on every
//! graph; [`BorderPrecomputation::tie_fallback_sources`] counts the
//! sources the kernel recomputed over the whole graph after a double
//! tie.

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
    /// Sources recomputed over the whole graph after a double tie.
    tie_fallback_sources: usize,
    /// Wall-clock cost of the pass (Table 3).
    pub precompute_secs: f64,
}

/// Reusable per-worker buffers for the per-source searches and DPs.
struct SourceScratch {
    tree: SourceTree,
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
        let peel = Peel::new(g, Direction::Forward);

        let merged = parallel::map_reduce_chunked(
            borders.all(),
            threads,
            4,
            || SourceScratch {
                tree: SourceTree::new(&peel),
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
                        &peel, part, &borders, &region_of, words, scratch, partial, b,
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
            core_nodes: peel.core_nodes().len(),
            branch_nodes: peel.branch_nodes().len(),
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

    /// Border sources whose core search met a double tie and were
    /// recomputed over the whole graph.
    pub fn tie_fallback_sources(&self) -> usize {
        self.tie_fallback_sources
    }
}

/// Folds one border-node source into a partial: its shortest-path tree
/// from the kernel, then the three tree DPs of the module docs. Depends only on `b`'s own search
/// tree, never on other sources' results — the independence the
/// parallel fan-out rests on.
#[allow(clippy::too_many_arguments)]
fn process_source(
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
        tree,
        path_regions,
        on_path,
    } = scratch;
    partial.tie_fallbacks += usize::from(tree.search(peel, b));
    let (order, dist, parent) = (tree.order(), tree.distances(), tree.parents());

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
