//! HiTi — hierarchical topographical index (Jung & Pramanik; paper §2.1).
//!
//! The network is partitioned by a grid; subgraphs are recursively grouped
//! (2×2 here) into higher-level subgraphs, and for each subgraph at each
//! level the shortest paths among its border nodes are precomputed and
//! stored. The paper's point (§3.2 and Table 1) is that the accumulated
//! super-edges make the index several times larger than the network, so a
//! broadcast client would have to receive an enormous cycle and hold it in
//! a heap it does not have: HiTi and SPQ are excluded from the per-query
//! experiments for exactly that reason.
//!
//! This module reproduces that verdict: it builds the full hierarchy (for
//! the size and precompute-time experiments) and provides an exact local
//! query over the level-0 contraction to validate the construction.
//!
//! Group bucketing is a counting sort into one CSR node array. A group's
//! border-pair searches are [`ReceivedGraph::contract`], the §6.1
//! processor's contraction too, over the network staged into the shared
//! slot arena once per build, with a stamped membership filter. Path
//! views live in one `via` pool per level. Output is bit-identical to the
//! old `HashMap`-based build (pinned by `tests/hiti_differential.rs`).

use spair_core::netcodec::{ReceivedGraph, SearchScratch, RAW_ARC};
use spair_partition::{GridPartition, Partitioning, RegionId};
use spair_roadnet::parallel;
use spair_roadnet::{Distance, NodeId, RoadNetwork};
use std::time::Instant;

/// One precomputed border-pair shortest path (a super-edge). The interior
/// nodes of the materialized path view live in the owning
/// [`HiTiLevel`]'s shared pool — see [`HiTiLevel::via`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperEdge {
    /// Entry border node.
    pub from: NodeId,
    /// Exit border node.
    pub to: NodeId,
    /// Subgraph-restricted shortest distance.
    pub cost: Distance,
    /// Start of the interior path view in the level's `via` pool.
    via_off: u32,
    /// Interior hops of the path view (excludes both endpoints).
    via_len: u32,
}

impl SuperEdge {
    /// Hops of the materialized path (`via_len() + 1`).
    pub fn hops(&self) -> u32 {
        self.via_len + 1
    }

    /// Interior nodes of the path view (excludes both endpoints).
    pub fn via_len(&self) -> usize {
        self.via_len as usize
    }
}

/// One level of the HiTi hierarchy. Super-edges index into the level's
/// shared `via` pool: HiTi/HEPV store the paths, not just the costs —
/// that is what makes the index several times the network in Table 1.
#[derive(Debug, Clone, Default)]
pub struct HiTiLevel {
    /// Number of cells per side at this level.
    pub cells_per_side: usize,
    /// Super-edges of every subgraph at this level.
    pub super_edges: Vec<SuperEdge>,
    /// Interior path nodes of all super-edges, in travel order, one
    /// contiguous slab per edge.
    via_pool: Vec<NodeId>,
}

impl HiTiLevel {
    /// Interior nodes of `se`'s materialized path, in travel order.
    pub fn via(&self, se: &SuperEdge) -> &[NodeId] {
        &self.via_pool[se.via_off as usize..se.via_off as usize + se.via_len as usize]
    }

    /// The level's shared path pool (all interior nodes, edge-major).
    pub fn via_pool(&self) -> &[NodeId] {
        &self.via_pool
    }
}

/// The full HiTi index.
#[derive(Debug, Clone)]
pub struct HiTiIndex {
    /// Levels, finest first.
    pub levels: Vec<HiTiLevel>,
    /// Cell assignment of every node at the base level.
    base_cell: Vec<RegionId>,
    base_side: usize,
    /// Broadcastable geometry of the base grid.
    locator: spair_partition::GridLocator,
    /// Build wall-clock (Table 3 context).
    pub precompute_secs: f64,
}

/// Per-level build output: super-edges plus their shared path pool.
/// Chunk partials carry local pool offsets; the merge rebases them.
#[derive(Debug, Default)]
struct LevelPartial {
    edges: Vec<SuperEdge>,
    via_pool: Vec<NodeId>,
}

/// Reusable per-worker state: search scratch and stamped membership, so
/// a new group or border search costs O(1).
#[derive(Default)]
struct GroupScratch {
    search: SearchScratch,
    /// Node is inside the current group iff `member[v] == group`.
    member: Vec<u64>,
    /// Node is a border of the current group iff `border[v] == group`.
    border: Vec<u64>,
    group: u64,
    /// Borders of the current group, in ascending node order.
    borders: Vec<NodeId>,
}

/// Stages `g`'s arcs that pass `keep` into `arena`, in `g`'s order, and
/// builds it.
fn stage_network(
    arena: &mut ReceivedGraph,
    g: &RoadNetwork,
    keep: impl Fn(NodeId, NodeId) -> bool,
) {
    for v in g.node_ids() {
        for (u, w) in g.out_edges(v).filter(|&(u, _)| keep(v, u)) {
            arena.stage_arc(v, u, w as Distance, RAW_ARC);
        }
    }
    arena.build_staged();
}

impl HiTiIndex {
    /// Builds the hierarchy over a `side × side` base grid with
    /// `num_levels` levels (side halves per level; side must be a power
    /// of two and `>= 2^(num_levels-1)`).
    pub fn build(g: &RoadNetwork, side: usize, num_levels: usize) -> Self {
        Self::build_with_threads(g, side, num_levels, parallel::num_threads())
    }

    /// Builds the hierarchy on an explicit number of worker threads.
    /// Subgraphs are independent, so each level's groups fan out across
    /// workers; groups are processed and merged in ascending group-id
    /// order, making the super-edge list identical for every thread
    /// count (the `HashMap`-ordered serial build was not even
    /// deterministic across runs).
    pub fn build_with_threads(
        g: &RoadNetwork,
        side: usize,
        num_levels: usize,
        threads: usize,
    ) -> Self {
        assert!(side.is_power_of_two(), "grid side must be a power of two");
        assert!(num_levels >= 1 && side >> (num_levels - 1) >= 1);
        let start = Instant::now();
        let base = GridPartition::build(g, side, side);
        let base_cell: Vec<RegionId> = g.node_ids().map(|v| base.region_of(v)).collect();
        let n = g.num_nodes();
        let mut arena = ReceivedGraph::new();
        stage_network(&mut arena, g, |_, _| true);

        let mut levels = Vec::with_capacity(num_levels);
        for level in 0..num_levels {
            let cells = side >> level;
            // Group id of a node at this level.
            let group_of = |v: NodeId| -> usize {
                let c = base_cell[v as usize] as usize;
                let (x, y) = (c % side, c / side);
                (y >> level) * cells + (x >> level)
            };
            // Counting-sort every node into its group: one CSR pass
            // instead of a map of per-group Vecs. Node order within a
            // group stays ascending (the fill walks ids in order).
            let num_groups = cells * cells;
            let mut group_start = vec![0u32; num_groups + 1];
            for v in g.node_ids() {
                group_start[group_of(v) + 1] += 1;
            }
            for gi in 0..num_groups {
                group_start[gi + 1] += group_start[gi];
            }
            let mut cursor: Vec<u32> = group_start[..num_groups].to_vec();
            let mut group_nodes = vec![0 as NodeId; n];
            for v in g.node_ids() {
                let gi = group_of(v);
                group_nodes[cursor[gi] as usize] = v;
                cursor[gi] += 1;
            }
            // Non-empty groups in ascending id order, matching the old
            // sorted map iteration (empty groups emit nothing anyway but
            // would skew chunk load balance).
            let group_list: Vec<&[NodeId]> = (0..num_groups)
                .map(|gi| &group_nodes[group_start[gi] as usize..group_start[gi + 1] as usize])
                .filter(|nodes| !nodes.is_empty())
                .collect();

            let partial = parallel::map_reduce_chunked(
                &group_list,
                threads,
                2,
                || GroupScratch {
                    member: vec![0; n],
                    border: vec![0; n],
                    ..GroupScratch::default()
                },
                LevelPartial::default,
                |scratch, partial, chunk, _base| {
                    for nodes in chunk {
                        build_group_super_edges(g, &arena, nodes, scratch, partial);
                    }
                },
                |acc, p| {
                    let rebase = acc.via_pool.len() as u32;
                    acc.edges.extend(p.edges.iter().map(|se| SuperEdge {
                        via_off: se.via_off + rebase,
                        ..*se
                    }));
                    acc.via_pool.extend_from_slice(&p.via_pool);
                },
            )
            .unwrap_or_default();
            levels.push(HiTiLevel {
                cells_per_side: cells,
                super_edges: partial.edges,
                via_pool: partial.via_pool,
            });
        }

        Self {
            levels,
            base_cell,
            base_side: side,
            locator: base.locator(),
            precompute_secs: start.elapsed().as_secs_f64(),
        }
    }

    /// Base grid side (cells per axis at level 0).
    pub fn base_side(&self) -> usize {
        self.base_side
    }

    /// Base-level cell of a node.
    pub fn base_cell_of(&self, v: NodeId) -> RegionId {
        self.base_cell[v as usize]
    }

    /// Broadcastable base-grid geometry.
    pub fn locator(&self) -> spair_partition::GridLocator {
        self.locator
    }

    /// Group index of base cell `cell` at `level` (0 = the cell itself).
    pub fn group_of_cell(&self, cell: RegionId, level: usize) -> usize {
        let (x, y) = (
            cell as usize % self.base_side,
            cell as usize / self.base_side,
        );
        let cells = self.base_side >> level;
        (y >> level) * cells + (x >> level)
    }

    /// Total index size in bytes: 12 per super-edge (two ids + cost) plus
    /// 4 bytes per interior hop of the materialized path view.
    pub fn index_bytes(&self) -> usize {
        self.levels
            .iter()
            .flat_map(|l| l.super_edges.iter())
            .map(|se| 12 + 4 * se.via_len())
            .sum()
    }

    /// Index size in broadcast packets.
    pub fn index_packets(&self) -> usize {
        self.index_bytes()
            .div_ceil(spair_broadcast::packet::PAYLOAD_CAPACITY)
    }

    /// Bit-identity certificate: true iff every level's super-edge table
    /// and path pool match `other`'s exactly.
    pub fn same_tables(&self, other: &HiTiIndex) -> bool {
        self.levels.len() == other.levels.len()
            && self.levels.iter().zip(&other.levels).all(|(a, b)| {
                a.cells_per_side == b.cells_per_side
                    && a.super_edges == b.super_edges
                    && a.via_pool == b.via_pool
            })
    }

    /// Exact point-to-point query over the level-0 contraction: the cells
    /// of `s` and `t` stay raw, every other cell contributes only its
    /// super-edges, plus all cross-cell edges. Validates the construction.
    pub fn query(&self, g: &RoadNetwork, s: NodeId, t: NodeId) -> Option<Distance> {
        let cell = |v: NodeId| self.base_cell[v as usize];
        let raw = |v: NodeId| cell(v) == cell(s) || cell(v) == cell(t);
        // Each node's kept super-edges first, then its kept raw edges.
        let mut gp = ReceivedGraph::new();
        for (i, se) in self.levels[0].super_edges.iter().enumerate() {
            if !raw(se.from) {
                gp.stage_arc(se.from, se.to, se.cost, i as u32);
            }
        }
        stage_network(&mut gp, g, |v, u| raw(v) || cell(u) != cell(v));
        gp.shortest_path(s, t).0.map(|(d, _)| d)
    }
}

/// Emits all super-edges of one subgraph (border-pair restricted
/// shortest paths) into `out`, ordered by source border then target id.
fn build_group_super_edges(
    g: &RoadNetwork,
    arena: &ReceivedGraph,
    nodes: &[NodeId],
    scratch: &mut GroupScratch,
    out: &mut LevelPartial,
) {
    scratch.group += 1;
    let group = scratch.group;
    for &v in nodes {
        scratch.member[v as usize] = group;
    }
    scratch.borders.clear();
    for &v in nodes {
        let outside = |u: NodeId| scratch.member[u as usize] != group;
        if g.out_edges(v).any(|(u, _)| outside(u)) || g.in_edges(v).any(|(u, _)| outside(u)) {
            scratch.borders.push(v);
            scratch.border[v as usize] = group;
        }
    }
    // Ascending targets per border: the order the parallel merge relies on.
    let GroupScratch {
        search,
        member,
        border,
        borders,
        ..
    } = scratch;
    arena.contract(
        search,
        borders,
        |u| member[u as usize] == group,
        |t| border[t as usize] == group,
        Some(&mut out.via_pool),
        |from, to, cost, via| {
            out.edges.push(SuperEdge {
                from,
                to,
                cost,
                via_off: via.start as u32,
                via_len: via.len() as u32,
            })
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use spair_roadnet::dijkstra_distance;
    use spair_roadnet::generators::small_grid;

    #[test]
    fn query_is_exact() {
        let g = small_grid(10, 10, 3);
        let idx = HiTiIndex::build(&g, 4, 2);
        for &(s, t) in &[(0u32, 99u32), (12, 87), (50, 51), (3, 3)] {
            assert_eq!(idx.query(&g, s, t), dijkstra_distance(&g, s, t), "{s}->{t}");
        }
    }

    #[test]
    fn hierarchy_levels_shrink() {
        let g = small_grid(8, 8, 1);
        let idx = HiTiIndex::build(&g, 4, 3);
        assert_eq!(idx.levels.len(), 3);
        assert_eq!(idx.levels[0].cells_per_side, 4);
        assert_eq!(idx.levels[1].cells_per_side, 2);
        assert_eq!(idx.levels[2].cells_per_side, 1);
        // The coarsest level is one all-covering subgraph: no borders, no
        // super-edges.
        assert!(idx.levels[2].super_edges.is_empty());
    }

    #[test]
    fn index_is_larger_than_the_network_data() {
        // The paper's Table 1 headline: HiTi's precomputed distances
        // dwarf the raw network.
        let g = small_grid(12, 12, 2);
        let idx = HiTiIndex::build(&g, 8, 3);
        let network_bytes = g.num_edges() * 8 + g.num_nodes() * 12;
        assert!(
            idx.index_bytes() > network_bytes,
            "index {} vs network {}",
            idx.index_bytes(),
            network_bytes
        );
    }

    #[test]
    fn super_edge_costs_are_subgraph_restricted_shortest() {
        let g = small_grid(6, 6, 4);
        let idx = HiTiIndex::build(&g, 2, 1);
        for se in &idx.levels[0].super_edges {
            // Cost can never beat the unrestricted shortest distance.
            let free = dijkstra_distance(&g, se.from, se.to).unwrap();
            assert!(se.cost >= free);
        }
    }

    #[test]
    fn via_views_are_consistent_paths() {
        // Every materialized view must be a real in-group path whose
        // weights sum to the super-edge cost.
        let g = small_grid(6, 6, 4);
        let idx = HiTiIndex::build(&g, 2, 1);
        let l0 = &idx.levels[0];
        for se in &l0.super_edges {
            let mut hops = Vec::with_capacity(se.via_len() + 2);
            hops.push(se.from);
            hops.extend_from_slice(l0.via(se));
            hops.push(se.to);
            let mut total = 0 as Distance;
            for pair in hops.windows(2) {
                let w = g
                    .out_edges(pair[0])
                    .find(|&(u, _)| u == pair[1])
                    .map(|(_, w)| w as Distance)
                    .expect("via hop is a real edge");
                total += w;
            }
            assert_eq!(total, se.cost);
            assert_eq!(se.hops(), se.via_len() as u32 + 1);
        }
    }

    #[test]
    fn build_is_identical_across_thread_counts() {
        let g = small_grid(8, 8, 5);
        let one = HiTiIndex::build_with_threads(&g, 4, 2, 1);
        for t in [2, 3, 6] {
            let multi = HiTiIndex::build_with_threads(&g, 4, 2, t);
            assert!(one.same_tables(&multi), "threads={t}");
        }
    }

    #[test]
    fn precompute_time_recorded() {
        let g = small_grid(5, 5, 0);
        let idx = HiTiIndex::build(&g, 2, 1);
        assert!(idx.precompute_secs >= 0.0);
    }
}
