//! First-hop propagation: which out-edge of a tree's root does every
//! node's shortest path leave through?
//!
//! This is the per-root quantity behind Samet et al.'s shortest-path
//! quadtrees (SPQ, paper §2.1): every node `t` is *colored* by the index
//! of the root edge its shortest path takes first. The naive computation
//! reconstructs the `root -> t` path per target (O(V · path length) per
//! root); the sweep here derives every color in **one pass over the
//! settle order** of an already-run search:
//!
//! * the root itself gets [`NO_FIRST_HOP`];
//! * a node whose tree parent *is* the root seeds its own color — the
//!   position of that node in the root's out-edge list;
//! * every other node inherits its parent's color
//!   (`color[t] = color[parent(t)]`).
//!
//! The settle order makes the single sweep sound: Dijkstra only relaxes
//! out of settled nodes, so a node's final parent is always settled —
//! and therefore already colored — before the node itself, **including
//! across zero-weight edges** (the parent popped first even when child
//! and parent distances tie). Any parents-first order serves as well,
//! such as a [`SourceTree`]'s.
//!
//! # Tie rule
//!
//! Colors are only unique when shortest paths are; on ties the sweep
//! commits to the parents the driving search chose, which for
//! [`dijkstra_full`](crate::dijkstra::dijkstra_full) and the heap-driven
//! [`DijkstraWorkspace`](crate::dijkstra::DijkstraWorkspace) (identical
//! settle order by construction) means:
//!
//! * relaxation replaces a parent only on a **strict** distance
//!   improvement (`cand < dist`), so among equal-distance predecessors
//!   the one that *first* achieved the final distance wins and later
//!   equal candidates never overwrite it;
//! * with parallel root edges to the same neighbor, the color is the
//!   position of the **lightest** of them, the one the neighbor's
//!   distance is measured along; among equally light ones, the first.
//!
//! Any consumer that compares colors against a freshly run
//! `dijkstra_full` (the SPQ differential tests do) must drive the sweep
//! from a search sharing this rule — the forward [`SourceTree`] of
//! [`crate::peel`] does; a search that settles equal-distance nodes in a
//! different order may pick different (equally shortest) parents.

use crate::graph::{NodeId, RoadNetwork};
use crate::peel::SourceTree;
use crate::sptree::{ShortestPathTree, NO_PARENT};

/// Color of the root itself, of unreachable nodes, and of nodes whose
/// first hop is beyond the 255 addressable out-edge positions.
pub const NO_FIRST_HOP: u8 = u8::MAX;

/// Core sweep shared by the tree and workspace entry points.
///
/// `order` must be a valid settle order (every node's parent precedes
/// it); `parent` reports the tree parent of a settled node.
fn sweep(
    g: &RoadNetwork,
    order: &[NodeId],
    parent: impl Fn(NodeId) -> Option<NodeId>,
    out: &mut [u8],
) {
    assert_eq!(
        g.num_nodes(),
        out.len(),
        "color buffer sized for a different graph"
    );
    out.fill(NO_FIRST_HOP);
    let Some(&root) = order.first() else {
        return;
    };
    for &u in &order[1..] {
        out[u as usize] = match parent(u) {
            Some(p) if p == root => root_edge_color(g, root, u),
            Some(p) => out[p as usize],
            None => NO_FIRST_HOP,
        };
    }
}

/// The color of `root`'s edge to its neighbor `u`: the position of the
/// lightest root edge to `u`, the first of equally light ones, which is
/// the edge `u`'s distance runs along. Positions >= 255 are
/// inexpressible in a u8 color and give [`NO_FIRST_HOP`].
fn root_edge_color(g: &RoadNetwork, root: NodeId, u: NodeId) -> u8 {
    g.out_edges(root)
        .enumerate()
        .filter(|&(_, (x, _))| x == u)
        .min_by_key(|&(_, (_, w))| w)
        .and_then(|(i, _)| u8::try_from(i).ok())
        .filter(|&c| c != NO_FIRST_HOP)
        .unwrap_or(NO_FIRST_HOP)
}

/// Colors every node by its first hop out of `tree`'s source, in one
/// sweep over the settle order. `out` is indexed by node id; the source
/// and unreachable nodes get [`NO_FIRST_HOP`].
pub fn first_hops_from_tree(g: &RoadNetwork, tree: &ShortestPathTree, out: &mut [u8]) {
    sweep(g, tree.settle_order(), |u| tree.parent(u), out);
}

/// [`first_hops_from_tree`] over a [`SourceTree`] of the all-sources
/// kernel, whose forward parents are exactly
/// [`DijkstraWorkspace`](crate::dijkstra::DijkstraWorkspace)'s —
/// the allocation-free form the per-root SPQ build loops on (the tree
/// and `out` are per-worker scratch, reused across roots).
pub fn first_hops_from_source_tree(g: &RoadNetwork, tree: &SourceTree, out: &mut [u8]) {
    let parents = tree.parents();
    let parent = |u: NodeId| Some(parents[u as usize]).filter(|&p| p != NO_PARENT);
    sweep(g, tree.order(), parent, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::{dijkstra_full, Direction};
    use crate::graph::{GraphBuilder, Point, Weight};
    use crate::peel::Peel;

    /// Oracle: reconstruct the `root -> t` path and look the first hop up
    /// in the root's out-edge list: the position of the lightest edge to
    /// the path's second node, the first of equally light ones.
    fn reference_colors(g: &RoadNetwork, tree: &ShortestPathTree) -> Vec<u8> {
        let root = tree.source();
        let first_edges: Vec<(NodeId, Weight)> = g.out_edges(root).collect();
        g.node_ids()
            .map(|t| {
                if t == root {
                    return NO_FIRST_HOP;
                }
                match tree.path_to(t) {
                    Some(path) => {
                        let mut best: Option<(usize, Weight)> = None;
                        for (i, &(x, w)) in first_edges.iter().enumerate() {
                            if x == path[1] && best.is_none_or(|(_, bw)| w < bw) {
                                best = Some((i, w));
                            }
                        }
                        best.map(|(i, _)| i)
                            .filter(|&i| i < NO_FIRST_HOP as usize)
                            .map_or(NO_FIRST_HOP, |i| i as u8)
                    }
                    None => NO_FIRST_HOP,
                }
            })
            .collect()
    }

    fn line_with_branch() -> RoadNetwork {
        // 0 -> 1 -> 2 -> 3 and 0 -> 4 -> 3 (tie at 3 depending on weights).
        let mut b = GraphBuilder::new();
        for i in 0..5 {
            b.add_node(Point::new(i as f64, 0.0));
        }
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        b.add_edge(0, 4, 1);
        b.add_edge(4, 3, 2);
        b.finish()
    }

    #[test]
    fn colors_match_path_reconstruction() {
        let g = line_with_branch();
        let tree = dijkstra_full(&g, 0);
        let mut dp = vec![0u8; g.num_nodes()];
        first_hops_from_tree(&g, &tree, &mut dp);
        assert_eq!(dp, reference_colors(&g, &tree));
        assert_eq!(dp[0], NO_FIRST_HOP, "root is uncolored");
        assert_eq!(dp[1], 0, "0->1 is edge 0");
        assert_eq!(dp[2], 0, "inherited from 1");
        assert_eq!(dp[4], 1, "0->4 is edge 1");
    }

    #[test]
    fn source_tree_sweep_matches_tree_sweep() {
        let g = line_with_branch();
        let tree = dijkstra_full(&g, 0);
        let mut from_tree = vec![0u8; g.num_nodes()];
        first_hops_from_tree(&g, &tree, &mut from_tree);
        let peel = Peel::new(&g, Direction::Forward);
        let mut source_tree = SourceTree::new(&peel);
        source_tree.search(&peel, 0);
        let mut from_source_tree = vec![0u8; g.num_nodes()];
        first_hops_from_source_tree(&g, &source_tree, &mut from_source_tree);
        assert_eq!(from_tree, from_source_tree);
    }

    #[test]
    fn parallel_root_edges_color_the_lightest() {
        // Edges 0-1 of weight 5 then 1, and 1-2 of weight 1: node 1's
        // distance runs along the second 0-1 edge, so both colors name it.
        let mut b = GraphBuilder::new();
        for i in 0..3 {
            b.add_node(Point::new(i as f64, 0.0));
        }
        b.add_undirected_edge(0, 1, 5);
        b.add_undirected_edge(0, 1, 1);
        b.add_undirected_edge(1, 2, 1);
        let g = b.finish();
        let tree = dijkstra_full(&g, 0);
        let mut dp = vec![0u8; 3];
        first_hops_from_tree(&g, &tree, &mut dp);
        assert_eq!(dp, vec![NO_FIRST_HOP, 1, 1]);
        assert_eq!(dp, reference_colors(&g, &tree));
    }

    #[test]
    fn zero_weight_edges_color_through_the_tie() {
        // 0 -(0)-> 1 -(0)-> 2: all distances 0; parents must still chain.
        let mut b = GraphBuilder::new();
        for i in 0..3 {
            b.add_node(Point::new(i as f64, 0.0));
        }
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 0);
        let g = b.finish();
        let tree = dijkstra_full(&g, 0);
        let mut dp = vec![0u8; 3];
        first_hops_from_tree(&g, &tree, &mut dp);
        assert_eq!(dp, vec![NO_FIRST_HOP, 0, 0]);
        assert_eq!(dp[..], reference_colors(&g, &tree)[..]);
    }

    #[test]
    fn unreachable_nodes_stay_uncolored() {
        let mut b = GraphBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(1.0, 0.0));
        let g = b.finish();
        let tree = dijkstra_full(&g, 0);
        let mut dp = vec![7u8; 2];
        first_hops_from_tree(&g, &tree, &mut dp);
        assert_eq!(dp, vec![NO_FIRST_HOP, NO_FIRST_HOP]);
    }

    #[test]
    fn stale_scratch_is_overwritten() {
        let g = line_with_branch();
        let peel = Peel::new(&g, Direction::Forward);
        let mut tree = SourceTree::new(&peel);
        let mut dp = vec![0u8; g.num_nodes()];
        tree.search(&peel, 0);
        first_hops_from_source_tree(&g, &tree, &mut dp);
        let first = dp.clone();
        // A different root in between must not leak into a rerun of 0.
        tree.search(&peel, 3);
        first_hops_from_source_tree(&g, &tree, &mut dp);
        tree.search(&peel, 0);
        first_hops_from_source_tree(&g, &tree, &mut dp);
        assert_eq!(dp, first);
    }
}
