//! Differential certification of the all-sources kernel
//! (`spair_roadnet::peel`) and of the three builds that run it — border
//! precompute, SPQ and arc flags — against oracles that share no code
//! with the kernel: whole-graph `DijkstraWorkspace::run` /
//! `dijkstra_full` searches, and in-test copies of the legacy
//! per-border folds the builds replaced.
//!
//! The kernel claims exactly the whole-graph search's distances and
//! parents on every graph and thread count. The graph families aim at
//! the places where peeling dangling trees, searching the core and
//! filling the trees back in could diverge from a whole-graph search:
//! pure trees (the core is one node per component), cycles with long
//! spurs, one-way and parallel spur edges (which must stay in the core),
//! zero-weight edges, unit-weight lattices (where double ties force the
//! whole-graph fallback), cores made mostly of degree-2 chains (where
//! contracting the chains could diverge), disconnected components,
//! single-region partitions, and a hashed partition that makes border
//! sources of nodes deep inside trees and inside chains.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spair_baselines::arcflag::ArcFlagIndex;
use spair_baselines::spq::{Quadtree, SpqIndex, NO_COLOR};
use spair_core::precompute::BorderPrecomputation;
use spair_core::RegionSet;
use spair_partition::{BorderInfo, GridPartition, KdTreePartition, Partitioning, RegionId};
use spair_roadnet::dijkstra::{DijkstraWorkspace, Direction};
use spair_roadnet::peel::{Peel, SourceTree};
use spair_roadnet::sptree::NO_PARENT;
use spair_roadnet::{Distance, GraphBuilder, NodeId, Point, RoadNetwork, DIST_INF};

// ---------------------------------------------------------------------
// The legacy fold: one whole-graph search per border node.
// ---------------------------------------------------------------------

/// The tables of one precompute run, as the legacy fold produced them.
struct LegacyTables {
    regions: usize,
    /// Row-major `(min, max)`, diagonal min forced to 0.
    minmax: Vec<(Distance, Distance)>,
    traversed: Vec<RegionSet>,
    cross_border: Vec<bool>,
}

fn legacy_fold(g: &RoadNetwork, part: &impl Partitioning) -> LegacyTables {
    let n = part.num_regions();
    let nn = g.num_nodes();
    let borders = BorderInfo::compute(g, part);
    let mut minmax = vec![(DIST_INF, 0); n * n];
    let mut traversed = vec![RegionSet::new(n); n * n];
    let mut cross_border = vec![false; nn];
    let mut ws = DijkstraWorkspace::new(nn);
    let mut path_regions = vec![RegionSet::new(n); nn];
    let mut on_path = vec![false; nn];
    for &b in borders.all() {
        let rb = part.region_of(b) as usize;
        ws.run(g, b, Direction::Forward);
        for &v in ws.settle_order() {
            let mut set = match ws.parent(v) {
                Some(p) => path_regions[p as usize].clone(),
                None => RegionSet::new(n),
            };
            set.insert(part.region_of(v));
            path_regions[v as usize] = set;
        }
        for &t in borders.all() {
            let d = ws.distance(t);
            if t == b || d == DIST_INF {
                continue;
            }
            let rt = part.region_of(t) as usize;
            let cell = &mut minmax[rb * n + rt];
            cell.0 = cell.0.min(d);
            cell.1 = cell.1.max(d);
            traversed[rb * n + rt].union_with(&path_regions[t as usize]);
        }
        for &v in ws.settle_order() {
            on_path[v as usize] = false;
        }
        for &t in borders.all() {
            if t != b && ws.distance(t) != DIST_INF {
                on_path[t as usize] = true;
            }
        }
        for &v in ws.settle_order().iter().rev() {
            if on_path[v as usize] {
                cross_border[v as usize] = true;
                if let Some(p) = ws.parent(v) {
                    on_path[p as usize] = true;
                }
            }
        }
    }
    for r in 0..n {
        minmax[r * n + r].0 = 0;
    }
    for &b in borders.all() {
        cross_border[b as usize] = true;
    }
    LegacyTables {
        regions: n,
        minmax,
        traversed,
        cross_border,
    }
}

/// Every table `pre` exposes equals the legacy fold's.
fn matches_legacy(pre: &BorderPrecomputation, legacy: &LegacyTables) -> Result<(), String> {
    let n = legacy.regions;
    if pre.num_regions() != n {
        return Err(format!("{} regions, legacy {n}", pre.num_regions()));
    }
    for ri in 0..n {
        for rj in 0..n {
            let (a, b) = (ri as RegionId, rj as RegionId);
            let cell = pre.minmax(a, b);
            if (cell.min, cell.max) != legacy.minmax[ri * n + rj] {
                return Err(format!("minmax({ri},{rj})"));
            }
            if *pre.traversed(a, b) != legacy.traversed[ri * n + rj] {
                return Err(format!("traversed({ri},{rj})"));
            }
        }
    }
    match (0..legacy.cross_border.len())
        .find(|&v| pre.is_cross_border(v as NodeId) != legacy.cross_border[v])
    {
        Some(v) => Err(format!("cross_border({v})")),
        None => Ok(()),
    }
}

/// The legacy arc-flag fold: intra-target flags, then one whole-graph
/// backward search per border node marking every edge `(u, v)` with
/// `d(u→b) = w(u, v) + d(v→b)`. Returns per edge the set regions.
fn legacy_flags(g: &RoadNetwork, part: &KdTreePartition) -> Vec<RegionSet> {
    let n = part.num_regions();
    let mut flags = vec![RegionSet::new(n); g.num_edges()];
    for u in g.node_ids() {
        for e in g.out_edge_ids(u) {
            flags[e as usize].insert(part.region_of(g.edge_target(e)));
        }
    }
    let mut ws = DijkstraWorkspace::new(g.num_nodes());
    for &b in BorderInfo::compute(g, part).all() {
        ws.run(g, b, Direction::Reverse);
        for u in g.node_ids() {
            let du = ws.distance(u);
            for e in g.out_edge_ids(u) {
                let dv = ws.distance(g.edge_target(e));
                if du != DIST_INF && dv != DIST_INF && du == dv + g.edge_weight(e) as Distance {
                    flags[e as usize].insert(part.region_of(b));
                }
            }
        }
    }
    flags
}

// ---------------------------------------------------------------------
// Graph families.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    PureTrees,
    CycleWithSpurs,
    OddSpurEdges,
    ZeroWeights,
    UnitLattice,
    ChainCore,
    Components,
}

/// Every family; `Components` must stay last, it draws from the others.
const FAMILIES: [Family; 7] = [
    Family::PureTrees,
    Family::CycleWithSpurs,
    Family::OddSpurEdges,
    Family::ZeroWeights,
    Family::UnitLattice,
    Family::ChainCore,
    Family::Components,
];

/// Builds graphs from a seeded stream, placing nodes at random points so
/// kd partitions cut through trees as well as cores.
struct Gen {
    rng: StdRng,
    b: GraphBuilder,
}

impl Gen {
    fn node(&mut self) -> NodeId {
        let p = Point::new(
            self.rng.gen_range(0.0..100.0),
            self.rng.gen_range(0.0..100.0),
        );
        self.b.add_node(p)
    }

    fn weight(&mut self, zero_weights: bool) -> u32 {
        if zero_weights && self.rng.gen_bool(0.3) {
            0
        } else {
            self.rng.gen_range(1..40)
        }
    }

    /// A tree of `n` nodes, each attached to a random earlier one.
    fn tree(&mut self, n: usize) -> NodeId {
        let root = self.node();
        let mut nodes = vec![root];
        for _ in 1..n {
            let p = nodes[self.rng.gen_range(0..nodes.len())];
            let v = self.node();
            let w = self.weight(false);
            self.b.add_undirected_edge(p, v, w);
            nodes.push(v);
        }
        root
    }

    /// A cycle of `k` nodes; returns its nodes.
    fn cycle(&mut self, k: usize, zero_weights: bool) -> Vec<NodeId> {
        let nodes: Vec<NodeId> = (0..k).map(|_| self.node()).collect();
        for i in 0..k {
            let w = self.weight(zero_weights);
            self.b.add_undirected_edge(nodes[i], nodes[(i + 1) % k], w);
        }
        nodes
    }

    /// A `w × h` lattice of unit weights; returns its nodes.
    fn lattice(&mut self, w: usize, h: usize) -> Vec<NodeId> {
        let nodes: Vec<NodeId> = (0..w * h).map(|_| self.node()).collect();
        for y in 0..h {
            for x in 0..w {
                let v = nodes[y * w + x];
                if x + 1 < w {
                    self.b.add_undirected_edge(v, nodes[y * w + x + 1], 1);
                }
                if y + 1 < h {
                    self.b.add_undirected_edge(v, nodes[(y + 1) * w + x], 1);
                }
            }
        }
        nodes
    }

    /// Grows `count` spurs of up to `max_len` nodes off `anchors`, each
    /// new node hanging off the previous one or (sometimes) off a random
    /// earlier spur node, so spurs branch into trees. `odd` mixes in
    /// one-way edges, parallel edges and asymmetric weights;
    /// `zero_weights` draws some weights of 0 and `unit` makes all of
    /// them 1.
    fn spurs(
        &mut self,
        anchors: &[NodeId],
        count: usize,
        max_len: usize,
        odd: bool,
        zero_weights: bool,
        unit: bool,
    ) {
        for _ in 0..count {
            let mut spur = vec![anchors[self.rng.gen_range(0..anchors.len())]];
            let len = self.rng.gen_range(1..=max_len);
            for _ in 0..len {
                let p = if self.rng.gen_bool(0.2) {
                    spur[self.rng.gen_range(0..spur.len())]
                } else {
                    *spur.last().expect("anchor")
                };
                let v = self.node();
                let (down, up) = if unit {
                    (1, 1)
                } else {
                    (self.weight(zero_weights), self.weight(zero_weights))
                };
                let roll = if odd { self.rng.gen_range(0..10) } else { 9 };
                match roll {
                    // One-way edge either way.
                    0 => self.b.add_edge(p, v, down),
                    1 => self.b.add_edge(v, p, up),
                    // Parallel edge beside the pair.
                    2 => {
                        self.b.add_undirected_edge(p, v, down);
                        self.b.add_edge(p, v, down + 1);
                    }
                    // Asymmetric pair.
                    3 => {
                        self.b.add_edge(p, v, down);
                        self.b.add_edge(v, p, up);
                    }
                    _ => self.b.add_undirected_edge(p, v, down),
                }
                spur.push(v);
            }
        }
    }

    /// A few branch nodes joined by long chains: parallel chains between
    /// one pair, chains from a branch node back to itself, sometimes a
    /// ring with no branch node, and spurs hanging off chain interiors.
    fn chain_core(&mut self) {
        let hubs: Vec<NodeId> = (0..self.rng.gen_range(2..5)).map(|_| self.node()).collect();
        for pair in hubs.windows(2) {
            if self.rng.gen_bool(0.5) {
                let w = self.rng.gen_range(1..12);
                self.b.add_undirected_edge(pair[0], pair[1], w);
            }
        }
        let mut interiors = Vec::new();
        for _ in 0..self.rng.gen_range(2..7) {
            let a = hubs[self.rng.gen_range(0..hubs.len())];
            let b = if self.rng.gen_bool(0.2) {
                a
            } else {
                hubs[self.rng.gen_range(0..hubs.len())]
            };
            let k = self.rng.gen_range(if a == b { 2 } else { 1 }..10);
            let mut prev = a;
            for _ in 0..k {
                let v = self.node();
                self.chain_hop(prev, v);
                interiors.push(v);
                prev = v;
            }
            self.chain_hop(prev, b);
        }
        if self.rng.gen_bool(0.5) {
            let k = self.rng.gen_range(3..8);
            interiors.extend(self.cycle(k, false));
        }
        let count = self.rng.gen_range(0..4);
        if count > 0 {
            self.spurs(&interiors, count, 4, false, false, false);
        }
    }

    /// One hop of a chain. Its small weights make interiors tight from
    /// both ends often, equidistant ones included; half the hops are
    /// asymmetric. A zero-weight or one-way hop ends the chain there.
    fn chain_hop(&mut self, u: NodeId, v: NodeId) {
        let there = self.rng.gen_range(1..4);
        let back = if self.rng.gen_bool(0.5) {
            there
        } else {
            self.rng.gen_range(1..4)
        };
        match self.rng.gen_range(0..12) {
            0 => self.b.add_edge(u, v, there),
            1 => {
                self.b.add_edge(u, v, 0);
                self.b.add_edge(v, u, back);
            }
            _ => {
                self.b.add_edge(u, v, there);
                self.b.add_edge(v, u, back);
            }
        }
    }

    fn family(&mut self, family: Family) {
        match family {
            Family::PureTrees => {
                let n = self.rng.gen_range(1..60);
                self.tree(n);
            }
            Family::CycleWithSpurs => {
                let k = self.rng.gen_range(3..12);
                let cycle = self.cycle(k, false);
                let count = self.rng.gen_range(1..8);
                self.spurs(&cycle, count, 20, false, false, false);
            }
            Family::OddSpurEdges => {
                let k = self.rng.gen_range(3..10);
                let cycle = self.cycle(k, false);
                let count = self.rng.gen_range(2..8);
                self.spurs(&cycle, count, 12, true, false, false);
            }
            Family::ZeroWeights => {
                let k = self.rng.gen_range(3..10);
                let cycle = self.cycle(k, true);
                let count = self.rng.gen_range(2..8);
                self.spurs(&cycle, count, 12, false, true, false);
            }
            Family::UnitLattice => {
                let (w, h) = (self.rng.gen_range(2..8), self.rng.gen_range(2..8));
                let lattice = self.lattice(w, h);
                let count = self.rng.gen_range(0..5);
                self.spurs(&lattice, count, 6, false, false, true);
            }
            Family::ChainCore => self.chain_core(),
            Family::Components => {
                let parts = self.rng.gen_range(2..4);
                for _ in 0..parts {
                    let f = FAMILIES[self.rng.gen_range(0..FAMILIES.len() - 1)];
                    self.family(f);
                }
                // An isolated node.
                self.node();
            }
        }
    }
}

fn build(family: Family, seed: u64) -> RoadNetwork {
    let mut gen = Gen {
        rng: StdRng::seed_from_u64(seed),
        b: GraphBuilder::new(),
    };
    gen.family(family);
    gen.b.finish()
}

/// Regions from a per-node table: given, or by node-id hash, where most
/// nodes, deep tree nodes included, get a neighbour in another region and
/// so become border sources.
struct TablePartition {
    region_of: Vec<RegionId>,
    by_region: Vec<Vec<NodeId>>,
}

impl TablePartition {
    fn new(region_of: Vec<RegionId>) -> Self {
        let regions = region_of.iter().max().map_or(1, |&r| r as usize + 1);
        let mut by_region = vec![Vec::new(); regions];
        for (v, &r) in region_of.iter().enumerate() {
            by_region[r as usize].push(v as NodeId);
        }
        Self {
            region_of,
            by_region,
        }
    }

    fn hashed(g: &RoadNetwork, regions: usize) -> Self {
        let mut part = Self::new(
            g.node_ids()
                .map(|v| ((v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize % regions)
                .map(|r| r as RegionId)
                .collect(),
        );
        part.by_region.resize(regions, Vec::new());
        part
    }
}

impl Partitioning for TablePartition {
    fn num_regions(&self) -> usize {
        self.by_region.len()
    }

    fn region_of(&self, v: NodeId) -> RegionId {
        self.region_of[v as usize]
    }

    fn locate(&self, _p: Point) -> RegionId {
        0
    }

    fn nodes_by_region(&self) -> &[Vec<NodeId>] {
        &self.by_region
    }
}

/// The border sources whose own kernel search meets a double tie: what
/// `tie_fallback_sources` counted when every source ran its own search.
fn per_source_tie_fallbacks(g: &RoadNetwork, part: &impl Partitioning) -> usize {
    let peel = Peel::new(g, Direction::Forward);
    let mut tree = SourceTree::new(&peel);
    BorderInfo::compute(g, part)
        .all()
        .iter()
        .filter(|&&b| tree.search(&peel, b))
        .count()
}

/// Runs the pass at 1, 2 and 5 threads and checks each against the
/// legacy fold, against each other, and its tie count against one
/// search per source.
fn check(g: &RoadNetwork, part: &(impl Partitioning + Sync)) -> Result<(), TestCaseError> {
    let legacy = legacy_fold(g, part);
    let serial = BorderPrecomputation::run_with_threads(g, part, 1);
    prop_assert_eq!(
        serial.tie_fallback_sources(),
        per_source_tie_fallbacks(g, part)
    );
    for threads in [1, 2, 5] {
        let pre = BorderPrecomputation::run_with_threads(g, part, threads);
        if let Err(what) = matches_legacy(&pre, &legacy) {
            return Err(TestCaseError::fail(format!(
                "{what} differs from the legacy fold at {threads} threads"
            )));
        }
        prop_assert!(serial.same_tables(&pre), "threads={}", threads);
        prop_assert_eq!(serial.core_nodes(), pre.core_nodes());
        prop_assert_eq!(serial.tie_fallback_sources(), pre.tie_fallback_sources());
        prop_assert_eq!(serial.search_roots(), pre.search_roots());
        prop_assert_eq!(serial.shared_sources(), pre.shared_sources());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The kernel's tables equal the legacy fold's on every family and
    /// partition kind (kd, rounded up to a power of two regions; single
    /// region; hashed), at every thread count.
    #[test]
    fn same_tables_as_the_legacy_fold(
        family in 0usize..7,
        seed in any::<u64>(),
        kind in 0u8..3,
        regions in 2usize..9,
    ) {
        let family = FAMILIES[family];
        let g = build(family, seed);
        match kind {
            0 => check(&g, &KdTreePartition::build(&g, regions.next_power_of_two())),
            1 => check(&g, &GridPartition::build(&g, 1, 1)),
            _ => check(&g, &TablePartition::hashed(&g, regions)),
        }?;
    }
}

/// The kernel's tree from every source equals a whole-graph search's:
/// in `dir` with exact parents, or distances only.
fn check_kernel(g: &RoadNetwork, dir: Direction) -> Result<(), TestCaseError> {
    let peel = Peel::new(g, dir);
    let mut tree = SourceTree::new(&peel);
    let mut ws = DijkstraWorkspace::new(g.num_nodes());
    let mut seen = vec![false; g.num_nodes()];
    for s in g.node_ids() {
        ws.run(g, s, dir);
        tree.search_distances(&peel, s);
        for v in g.node_ids() {
            prop_assert_eq!(tree.distances()[v as usize], ws.distance(v), "{}->{}", s, v);
        }
        tree.search(&peel, s);
        for v in g.node_ids() {
            prop_assert_eq!(tree.distances()[v as usize], ws.distance(v), "{}->{}", s, v);
            let want = ws.parent(v).unwrap_or(NO_PARENT);
            prop_assert_eq!(
                tree.parents()[v as usize],
                want,
                "parent of {} from {}",
                v,
                s
            );
        }
        // Parents first, starting at the source, every reachable node
        // exactly once.
        prop_assert_eq!(tree.order().first(), Some(&s));
        prop_assert_eq!(tree.order().len(), ws.settle_order().len());
        seen.fill(false);
        for &v in tree.order() {
            prop_assert!(!seen[v as usize], "{} twice", v);
            let p = tree.parents()[v as usize];
            prop_assert!(v == s || seen[p as usize], "{} before its parent", v);
            seen[v as usize] = true;
        }
    }
    Ok(())
}

/// The kernel over a peel pruned to `targets`, from every source: every
/// core node, every node with a target in its dangling subtree and the
/// walk from the source get the whole-graph search's distance and
/// parent, and the order holds exactly those of them that are
/// reachable, parents first. The unpruned peel fills every peeled node.
fn check_pruned_kernel(
    g: &RoadNetwork,
    dir: Direction,
    targets: &[NodeId],
) -> Result<(), TestCaseError> {
    let full = Peel::new(g, dir);
    prop_assert_eq!(
        full.fill_order().len() + full.core_nodes().len(),
        g.num_nodes()
    );
    let peel = Peel::pruned(g, dir, targets);
    // A node is kept when it is a target or a tree ancestor of one, or
    // in the core.
    let mut kept: Vec<bool> = g
        .node_ids()
        .map(|v| full.tree_parent(v).is_none())
        .collect();
    for &t in targets {
        let mut v = Some(t);
        while let Some(u) = v {
            kept[u as usize] = true;
            v = full.tree_parent(u);
        }
    }
    let kept_peeled = g
        .node_ids()
        .filter(|&v| kept[v as usize] && full.tree_parent(v).is_some());
    prop_assert_eq!(peel.fill_order().len(), kept_peeled.count());
    let mut tree = SourceTree::new(&peel);
    let mut ws = DijkstraWorkspace::new(g.num_nodes());
    let mut seen = vec![false; g.num_nodes()];
    for s in g.node_ids() {
        ws.run(g, s, dir);
        tree.search(&peel, s);
        let mut filled = kept.clone();
        let mut v = Some(s);
        while let Some(u) = v {
            filled[u as usize] = true;
            v = full.tree_parent(u);
        }
        for v in g.node_ids().filter(|&v| filled[v as usize]) {
            prop_assert_eq!(tree.distances()[v as usize], ws.distance(v), "{}->{}", s, v);
            let want = ws.parent(v).unwrap_or(NO_PARENT);
            prop_assert_eq!(
                tree.parents()[v as usize],
                want,
                "parent of {} from {}",
                v,
                s
            );
        }
        let want = ws
            .settle_order()
            .iter()
            .filter(|&&v| filled[v as usize])
            .count();
        prop_assert_eq!(tree.order().len(), want, "order from {}", s);
        prop_assert_eq!(tree.order().first(), Some(&s));
        seen.fill(false);
        for &v in tree.order() {
            prop_assert!(filled[v as usize], "{} filled from {}", v, s);
            prop_assert!(ws.distance(v) != DIST_INF, "{} unreachable from {}", v, s);
            prop_assert!(!seen[v as usize], "{} twice", v);
            let p = tree.parents()[v as usize];
            prop_assert!(v == s || seen[p as usize], "{} before its parent", v);
            seen[v as usize] = true;
        }
    }
    Ok(())
}

/// The SPQ build equals the recursive reference at 1 and 3 threads, and
/// its counters split the roots between the core and the trees.
fn check_spq(g: &RoadNetwork) -> Result<(), TestCaseError> {
    let reference = SpqIndex::build_reference(g);
    let serial = SpqIndex::build_serial(g);
    prop_assert!(serial.same_trees(&reference), "serial vs reference");
    prop_assert_eq!(
        serial.core_nodes() + serial.searchless_roots(),
        g.num_nodes()
    );
    let par = SpqIndex::build_with_threads(g, 3);
    prop_assert!(par.same_trees(&serial), "3 threads vs serial");
    prop_assert_eq!(par.tie_fallback_roots(), serial.tie_fallback_roots());
    Ok(())
}

/// Arc flags equal the legacy fold's bit for bit, at 1, 2 and 5 threads.
fn check_flags(g: &RoadNetwork, part: &KdTreePartition) -> Result<(), TestCaseError> {
    let legacy = legacy_flags(g, part);
    let serial = ArcFlagIndex::build_with_threads(g, part, 1);
    for threads in [1, 2, 5] {
        let index = ArcFlagIndex::build_with_threads(g, part, threads);
        prop_assert!(serial.same_flags(&index), "threads={}", threads);
        for e in 0..g.num_edges() as u32 {
            for r in 0..part.num_regions() as RegionId {
                prop_assert_eq!(
                    index.flag(e, r),
                    legacy[e as usize].contains(r),
                    "edge {} region {}",
                    e,
                    r
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Forward trees and reverse distances equal whole-graph searches
    /// from every source.
    #[test]
    fn kernel_matches_whole_graph_searches(family in 0usize..7, seed in any::<u64>()) {
        let g = build(FAMILIES[family], seed);
        check_kernel(&g, Direction::Forward)?;
        check_kernel(&g, Direction::Reverse)?;
    }

    /// Over a peel pruned to a random target set (from none to all
    /// nodes), the kernel fills exactly the core, the targets' tree
    /// ancestors and the walk, each as a whole-graph search would.
    #[test]
    fn pruned_kernel_fills_exactly_the_kept_nodes(
        family in 0usize..7,
        seed in any::<u64>(),
        density in 0u32..5,
    ) {
        let g = build(FAMILIES[family], seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let targets: Vec<NodeId> = g
            .node_ids()
            .filter(|_| rng.gen_range(0..4u32) < density)
            .collect();
        check_pruned_kernel(&g, Direction::Forward, &targets)?;
        check_pruned_kernel(&g, Direction::Reverse, &targets)?;
    }

    /// SPQ trees equal the recursive reference's on every family.
    #[test]
    fn spq_same_trees_as_the_reference(family in 0usize..7, seed in any::<u64>()) {
        check_spq(&build(FAMILIES[family], seed))?;
    }

    /// Arc flags equal the legacy fold's on every family (kd regions,
    /// rounded up to a power of two).
    #[test]
    fn arc_flags_same_as_the_legacy_fold(
        family in 0usize..7,
        seed in any::<u64>(),
        regions in 2usize..9,
    ) {
        let g = build(FAMILIES[family], seed);
        check_flags(&g, &KdTreePartition::build(&g, regions.next_power_of_two()))?;
    }
}

#[test]
fn pure_trees_keep_one_core_node_per_component() {
    for seed in 0..20 {
        let g = build(Family::PureTrees, seed);
        let part = TablePartition::hashed(&g, 3);
        let pre = BorderPrecomputation::run(&g, &part);
        assert_eq!(pre.core_nodes(), 1, "seed {seed}");
        assert_eq!(pre.tie_fallback_sources(), 0, "seed {seed}");
        assert!(matches_legacy(&pre, &legacy_fold(&g, &part)).is_ok());
    }
}

#[test]
fn odd_spur_edges_stay_in_the_core() {
    // A triangle with a spur 0 -> 3 -> 4: the one-way edge 0 -> 3 and the
    // parallel pair 3 <-> 4 keep both spur nodes in the core.
    let mut b = GraphBuilder::new();
    for i in 0..5 {
        b.add_node(Point::new(i as f64, (i % 2) as f64));
    }
    b.add_undirected_edge(0, 1, 2);
    b.add_undirected_edge(1, 2, 2);
    b.add_undirected_edge(2, 0, 2);
    b.add_edge(0, 3, 1);
    b.add_undirected_edge(3, 4, 1);
    b.add_edge(3, 4, 5);
    let g = b.finish();
    let part = TablePartition::hashed(&g, 2);
    let pre = BorderPrecomputation::run(&g, &part);
    assert_eq!(pre.core_nodes(), 5);
    assert!(matches_legacy(&pre, &legacy_fold(&g, &part)).is_ok());
}

#[test]
fn unit_lattices_fall_back_on_every_source() {
    for seed in 0..12 {
        let mut gen = Gen {
            rng: StdRng::seed_from_u64(seed),
            b: GraphBuilder::new(),
        };
        gen.lattice(3 + seed as usize % 4, 4);
        let g = gen.b.finish();
        let part = TablePartition::hashed(&g, 4);
        let pre = BorderPrecomputation::run(&g, &part);
        assert!(pre.borders().count() > 0);
        assert_eq!(pre.tie_fallback_sources(), pre.borders().count());
        assert!(matches_legacy(&pre, &legacy_fold(&g, &part)).is_ok());
    }
}

#[test]
fn zero_weight_spur_edges_stay_in_the_core() {
    // Path 0 - 1 - 2 hanging off triangle 0-5-6, with edge 1 -> 2 of
    // weight 0: node 2 is not peeled, so 1 keeps two neighbours.
    let mut b = GraphBuilder::new();
    for i in 0..7 {
        b.add_node(Point::new(i as f64, 0.0));
    }
    b.add_undirected_edge(0, 5, 3);
    b.add_undirected_edge(5, 6, 3);
    b.add_undirected_edge(6, 0, 3);
    b.add_undirected_edge(0, 1, 4);
    b.add_edge(1, 2, 0);
    b.add_edge(2, 1, 7);
    let g = b.finish();
    let part = TablePartition::hashed(&g, 3);
    let pre = BorderPrecomputation::run(&g, &part);
    // Nodes 3 and 4 are isolated core nodes; 0, 1, 2, 5, 6 stay too.
    assert_eq!(pre.core_nodes(), 7);
    assert!(matches_legacy(&pre, &legacy_fold(&g, &part)).is_ok());
    let index = SpqIndex::build_serial(&g);
    assert_eq!((index.core_nodes(), index.searchless_roots()), (7, 0));
    assert!(index.same_trees(&SpqIndex::build_reference(&g)));
}

/// The color `root`'s quadtree gives node `t`.
fn spq_color(g: &RoadNetwork, index: &SpqIndex, root: NodeId, t: NodeId) -> u8 {
    index.tree(root).color_at(g.point(t), g.bounding_box())
}

#[test]
fn hub_with_300_leaves_colors_past_position_254_as_no_color() {
    // The hub alone is the core; hung off a triangle by one edge (its
    // out-edge position 300), it is a searchless root itself. With a
    // second triangle that reaches the first only over a one-way bridge,
    // the hub's exit color is NO_COLOR for reached and unreached nodes
    // alike.
    for (hang, bridge) in [(false, false), (true, false), (true, true)] {
        let mut b = GraphBuilder::new();
        let hub = b.add_node(Point::new(0.0, 0.0));
        for i in 0..300 {
            let angle = i as f64 * std::f64::consts::TAU / 300.0;
            let leaf = b.add_node(Point::new(angle.cos() * 10.0, angle.sin() * 10.0));
            b.add_undirected_edge(hub, leaf, 1 + i % 7);
        }
        if hang {
            let t: Vec<NodeId> = (0..3)
                .map(|i| b.add_node(Point::new(20.0 + i as f64, 20.0)))
                .collect();
            for i in 0..3 {
                b.add_undirected_edge(t[i], t[(i + 1) % 3], 2);
            }
            b.add_undirected_edge(hub, t[0], 4);
            if bridge {
                let u: Vec<NodeId> = (0..3)
                    .map(|i| b.add_node(Point::new(20.0 + i as f64, 21.0)))
                    .collect();
                for i in 0..3 {
                    b.add_undirected_edge(u[i], u[(i + 1) % 3], 2);
                }
                b.add_edge(u[0], t[0], 1);
            }
        }
        let g = b.finish();
        let index = SpqIndex::build_serial(&g);
        assert_eq!(index.searchless_roots(), if hang { 301 } else { 300 });
        assert!(
            index.same_trees(&SpqIndex::build_reference(&g)),
            "hang {hang} bridge {bridge}"
        );
        // A leaf reaches everything through its one edge, position 0.
        for leaf in [1, 150, 300] {
            if !bridge {
                assert_eq!(index.tree(leaf), &Quadtree::Leaf(0), "leaf {leaf}");
            }
        }
        for (i, (u, _)) in g.out_edges(hub).enumerate() {
            let want = if i < 255 { i as u8 } else { NO_COLOR };
            assert_eq!(spq_color(&g, &index, hub, u), want, "position {i}");
        }
    }
}

#[test]
fn tree_root_behind_a_one_way_bridge_leaves_unreachable_nodes_uncolored() {
    // Triangles 0-1-2 and 3-4-5, a one-way bridge 2 -> 3, and spurs
    // 0 - 6 - 7 and 3 - 8 - 9.
    let mut b = GraphBuilder::new();
    for i in 0..10 {
        b.add_node(Point::new(i as f64, (i * i % 5) as f64));
    }
    for (x, y) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
        b.add_undirected_edge(x, y, 2 + x);
    }
    b.add_edge(2, 3, 5);
    for (x, y) in [(0, 6), (6, 7), (3, 8), (8, 9)] {
        b.add_undirected_edge(x, y, 3);
    }
    let g = b.finish();
    let index = SpqIndex::build_serial(&g);
    assert_eq!(index.searchless_roots(), 4);
    assert!(index.same_trees(&SpqIndex::build_reference(&g)));
    // 9 sits behind the bridge: it reaches only its own side.
    for t in [0, 1, 2, 6, 7] {
        assert_eq!(spq_color(&g, &index, 9, t), NO_COLOR, "9 -> {t}");
    }
    for t in [3, 4, 5, 8] {
        assert_eq!(spq_color(&g, &index, 9, t), 0, "9 -> {t}");
    }
    // 7 crosses the bridge.
    for t in [0, 1, 2, 3, 4, 5, 6, 8, 9] {
        assert_eq!(spq_color(&g, &index, 7, t), 0, "7 -> {t}");
    }
}

// ---------------------------------------------------------------------
// Border sources inside dangling trees, folded from their attachment's
// search.
// ---------------------------------------------------------------------

/// A graph of `n` nodes with both directions of each `both` edge and the
/// `one_way` edges.
fn net(n: usize, both: &[(NodeId, NodeId, u32)], one_way: &[(NodeId, NodeId, u32)]) -> RoadNetwork {
    let mut b = GraphBuilder::new();
    for i in 0..n {
        b.add_node(Point::new(i as f64, (i * i % 7) as f64));
    }
    for &(u, v, w) in both {
        b.add_undirected_edge(u, v, w);
    }
    for &(u, v, w) in one_way {
        b.add_edge(u, v, w);
    }
    b.finish()
}

/// Checks the pass under `regions` against the legacy fold (and its tie
/// count against one search per source) at 1, 2 and 5 threads, and
/// returns the serial run.
fn check_regions(g: &RoadNetwork, regions: &[RegionId]) -> BorderPrecomputation {
    let part = TablePartition::new(regions.to_vec());
    if let Err(e) = check(g, &part) {
        panic!("{e}");
    }
    BorderPrecomputation::run_serial(g, &part)
}

/// A square core 0-1-2-3 whose node 0 is a border node only when
/// `border_at_0`; node 2 is in region 1, so 1, 2 and 3 are border nodes.
const SQUARE: [(NodeId, NodeId, u32); 4] = [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 0, 6)];

#[test]
fn one_tree_with_border_nodes_at_several_depths() {
    // The tree hangs off 0: 4 below it, siblings 5 and 6 below 4, then
    // 5 - 7 - 8 and 6 - 9. Nodes 5, 6 and 7 are in region 1 and 8 in
    // region 2, so 4, 5, 6, 7 and 8 are border nodes at depths 1 to 4;
    // 9 has no border node below it.
    let g = net(
        10,
        &[
            SQUARE[0],
            SQUARE[1],
            SQUARE[2],
            SQUARE[3],
            (0, 4, 2),
            (4, 5, 3),
            (4, 6, 1),
            (5, 7, 4),
            (7, 8, 2),
            (6, 9, 5),
        ],
        &[],
    );
    let pre = check_regions(&g, &[0, 0, 1, 0, 0, 1, 1, 1, 2, 1]);
    assert_eq!(pre.borders().all(), &[1, 2, 3, 4, 5, 6, 7, 8]);
    assert_eq!(pre.shared_sources(), 5);
    assert_eq!(pre.kept_peeled_nodes(), 5);
    // The core border nodes, and 0 where the tree attaches.
    assert_eq!(pre.search_roots(), 4);
    assert!(!pre.is_cross_border(9));
}

#[test]
fn two_border_trees_under_one_attachment() {
    // Trees 0 - 4 - 5 and 0 - 6 - 7 both hold border nodes (5 and 7 are
    // in region 2); each tree's sources reach the other's through 0. A
    // third tree 0 - 8 holds none.
    let g = net(
        9,
        &[
            SQUARE[0],
            SQUARE[1],
            SQUARE[2],
            SQUARE[3],
            (0, 4, 2),
            (4, 5, 3),
            (0, 6, 4),
            (6, 7, 1),
            (0, 8, 7),
        ],
        &[],
    );
    let pre = check_regions(&g, &[0, 0, 1, 0, 0, 2, 0, 2, 0]);
    assert_eq!(pre.borders().all(), &[1, 2, 3, 4, 5, 6, 7]);
    assert_eq!((pre.shared_sources(), pre.search_roots()), (4, 4));
    assert!(
        pre.is_cross_border(0),
        "0 lies on the paths between the trees"
    );
    assert!(!pre.is_cross_border(8));
}

#[test]
fn attachments_at_a_border_node_and_at_a_chain_interior() {
    // Branch nodes 0 and 1 joined by an edge and the chains 0 - 2 - 3 - 1
    // and 0 - 4 - 1. The tree 3 - 5 - 6 hangs off the interior 3, the
    // tree 0 - 7 - 8 off 0, which node 4 (region 1) makes a border node.
    let g = net(
        9,
        &[
            (0, 1, 9),
            (0, 2, 3),
            (2, 3, 1),
            (3, 1, 5),
            (0, 4, 2),
            (4, 1, 7),
            (3, 5, 2),
            (5, 6, 1),
            (0, 7, 3),
            (7, 8, 2),
        ],
        &[],
    );
    let peel = Peel::new(&g, Direction::Forward);
    assert_eq!(peel.branch_nodes(), &[0, 1]);
    assert!(peel.core_nodes().contains(&3));
    let pre = check_regions(&g, &[0, 0, 0, 0, 1, 0, 1, 0, 2]);
    assert_eq!(pre.borders().all(), &[0, 1, 4, 5, 6, 7, 8]);
    // Roots: the core border nodes 0, 1 and 4, and the interior 3.
    assert_eq!((pre.shared_sources(), pre.search_roots()), (4, 4));
}

#[test]
fn unit_lattice_attachments_double_tie() {
    // A 3 x 3 unit lattice with unit-weight trees off a corner and the
    // centre; every search over the lattice meets a double tie, so each
    // tree's sources fall back to their own searches.
    let mut both = Vec::new();
    for y in 0..3 {
        for x in 0..3 {
            let v = y * 3 + x;
            if x < 2 {
                both.push((v, v + 1, 1));
            }
            if y < 2 {
                both.push((v, v + 3, 1));
            }
        }
    }
    both.extend([(0, 9, 1), (9, 10, 1), (9, 11, 1), (4, 12, 1), (12, 13, 1)]);
    let g = net(14, &both, &[]);
    let mut regions = vec![0; 14];
    for v in [2, 5, 8, 10, 13] {
        regions[v] = 1;
    }
    let pre = check_regions(&g, &regions);
    let part = TablePartition::new(regions);
    assert_eq!(pre.shared_sources(), 0);
    assert!(pre.tie_fallback_sources() >= 5);
    assert_eq!(
        pre.tie_fallback_sources(),
        per_source_tie_fallbacks(&g, &part)
    );
}

#[test]
fn one_way_bridge_leaves_targets_unreachable_from_the_attachment() {
    // Triangles 0-1-2 and 3-4-5 joined by the one-way bridge 2 -> 3.
    // Tree 0 - 6 - 7 reaches every border node; tree 3 - 8 - 9 lies
    // beyond the bridge, where no border node outside it is reachable.
    let g = net(
        10,
        &[
            (0, 1, 2),
            (1, 2, 3),
            (2, 0, 4),
            (3, 4, 2),
            (4, 5, 3),
            (5, 3, 4),
            (0, 6, 1),
            (6, 7, 2),
            (3, 8, 3),
            (8, 9, 1),
        ],
        &[(2, 3, 5)],
    );
    let pre = check_regions(&g, &[0, 2, 0, 0, 0, 0, 0, 1, 0, 1]);
    assert_eq!(pre.borders().all(), &[0, 1, 2, 6, 7, 8, 9]);
    assert_eq!((pre.shared_sources(), pre.search_roots()), (4, 4));
    let (near, far) = (pre.minmax(1, 0), pre.minmax(0, 1));
    assert!(!near.is_empty() && !far.is_empty());
}

// ---------------------------------------------------------------------
// The branch view: each root's distance, path regions and marks read off
// its branch nodes and chain splits, never off a filled tree.
// ---------------------------------------------------------------------

/// Each node its own region, so every node is a border node.
fn own_regions(g: &RoadNetwork) -> Vec<RegionId> {
    g.node_ids().map(|v| v as RegionId).collect()
}

#[test]
fn interior_tight_from_both_sides() {
    // Branch nodes 0 and 1 meet over a plain edge and the chains
    // 0 - 2 - 3 - 1 and 0 - 4 - 1. From 0, interior 3 is 1 + 3 = 4 over
    // 2 (at 1) and 2 + 2 = 4 over
    // branch node 1 (at 2): tight from both sides, its parent the nearer
    // neighbour. Every node is a border source and target, the chain
    // interiors 2, 3 and 4 included.
    let g = net(
        5,
        &[
            (0, 1, 2),
            (0, 2, 1),
            (2, 3, 3),
            (3, 1, 2),
            (0, 4, 5),
            (4, 1, 5),
        ],
        &[],
    );
    let peel = Peel::new(&g, Direction::Forward);
    assert_eq!(peel.branch_nodes(), &[0, 1]);
    assert!(peel.chains().of(3).is_some());
    let pre = check_regions(&g, &own_regions(&g));
    assert_eq!(pre.tie_fallback_sources(), 0);
    assert_eq!(pre.search_roots(), 5);
}

#[test]
fn dangling_tree_at_a_chain_interior() {
    // The tree 3 - 5 - 6 hangs off interior 3 of chain 0 - 2 - 3 - 1,
    // with a heavier way up (4) than down (2) at its top: its border
    // nodes are folded from 3's search, whose chain splits at 3.
    let g = net(
        7,
        &[
            (0, 1, 4),
            (0, 2, 3),
            (2, 3, 1),
            (3, 1, 5),
            (0, 4, 5),
            (4, 1, 5),
            (5, 6, 1),
        ],
        &[(3, 5, 2), (5, 3, 4)],
    );
    let peel = Peel::new(&g, Direction::Forward);
    assert_eq!(peel.branch_nodes(), &[0, 1]);
    assert_eq!(
        (peel.tree_parent(5), peel.tree_parent(6)),
        (Some(3), Some(5))
    );
    assert!(peel.chains().of(3).is_some());
    let pre = check_regions(&g, &[0, 0, 0, 0, 0, 1, 2]);
    assert_eq!(pre.borders().all(), &[3, 5, 6]);
    assert_eq!((pre.search_roots(), pre.shared_sources()), (1, 2));
    check_regions(&g, &own_regions(&g));
}

#[test]
fn source_on_its_own_chain() {
    // Chain 0 - 2 - 3 - 4 - 1 of weight 2 a hop; 0 and 1 also meet over
    // a plain edge and the chain 0 - 5 - 1. Node 3 alone is in region 1,
    // so the border sources 2, 3 and 4 all sit on one chain, and each
    // reaches the other two over its own chain's halves.
    let g = net(
        6,
        &[
            (0, 2, 2),
            (2, 3, 2),
            (3, 4, 2),
            (4, 1, 2),
            (0, 1, 7),
            (0, 5, 1),
            (5, 1, 9),
        ],
        &[],
    );
    let peel = Peel::new(&g, Direction::Forward);
    assert_eq!(peel.branch_nodes(), &[0, 1]);
    let pre = check_regions(&g, &[0, 0, 0, 1, 0, 0]);
    assert_eq!(pre.borders().all(), &[2, 3, 4]);
    check_regions(&g, &[0, 0, 0, 1, 0, 2]);
    check_regions(&g, &own_regions(&g));
}

#[test]
fn ring_promoted_to_a_branch_node() {
    // The ring 0 - 1 - 2 - 3 - 4 - 0 is made only of interiors: its
    // smallest id becomes the branch node, and the chain runs from 0
    // back to 0. The tree 2 - 5 - 6 hangs off interior 2.
    let g = net(
        7,
        &[
            (0, 1, 3),
            (1, 2, 1),
            (2, 3, 4),
            (3, 4, 2),
            (4, 0, 2),
            (2, 5, 2),
            (5, 6, 3),
        ],
        &[],
    );
    let peel = Peel::new(&g, Direction::Forward);
    assert_eq!(peel.branch_nodes(), &[0]);
    assert_eq!(peel.core_nodes(), &[0, 1, 2, 3, 4]);
    check_regions(&g, &own_regions(&g));
    check_regions(&g, &[0, 1, 1, 2, 2, 0, 3]);
}

#[test]
fn double_tie_fallback_source() {
    // From 0, interior 3 is 2 + 2 over 2 and 2 + 2 over 1, both at 2: a
    // double tie the kernel hands to a whole-graph search. The tree
    // 0 - 5 - 6 hangs off 0, so its border sources sit under a tied
    // attachment and each gets a whole-graph search of its own.
    let g = net(
        7,
        &[
            (0, 1, 2),
            (0, 2, 2),
            (2, 3, 2),
            (3, 1, 2),
            (0, 4, 5),
            (4, 1, 5),
            (0, 5, 3),
            (5, 6, 1),
        ],
        &[],
    );
    let peel = Peel::new(&g, Direction::Forward);
    assert_eq!(peel.branch_nodes(), &[0, 1]);
    assert_eq!(
        (peel.tree_parent(5), peel.tree_parent(6)),
        (Some(0), Some(5))
    );
    let mut tree = SourceTree::new(&peel);
    assert!([0, 5, 6].iter().all(|&s| tree.search(&peel, s)));
    let pre = check_regions(&g, &own_regions(&g));
    assert!(pre.tie_fallback_sources() >= 3);
    // Node 0 is no border node here, only the attachment of 5 and 6.
    let pre = check_regions(&g, &[0, 0, 0, 1, 0, 0, 2]);
    assert_eq!(pre.borders().all(), &[1, 2, 3, 5, 6]);
    assert_eq!(pre.shared_sources(), 0, "a tied attachment shares none");
    assert!(pre.tie_fallback_sources() >= 2);
}
