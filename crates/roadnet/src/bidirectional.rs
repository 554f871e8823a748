//! Bidirectional Dijkstra.
//!
//! Not part of the paper's method set, but a natural extension users of
//! the library expect for local (non-broadcast) point-to-point queries:
//! two simultaneous searches — forward from the source, backward from the
//! target — meet in the middle and settle roughly half the nodes of a
//! unidirectional run on road networks. The server-side precomputation can
//! use it wherever a plain point-to-point distance is needed.

use crate::dijkstra::SearchStats;
use crate::graph::{NodeId, RoadNetwork};
use crate::heap::MinHeap;
use crate::sptree::NO_PARENT;
use crate::{Distance, DIST_INF};

/// Point-to-point distance via bidirectional search, or `None` if the
/// target is unreachable.
pub fn bidirectional_distance(g: &RoadNetwork, source: NodeId, target: NodeId) -> Option<Distance> {
    bidirectional_search(g, source, target).0
}

/// Bidirectional search returning `(distance, path)` plus work counters.
///
/// Both frontiers track tentative parents; whenever the best meeting
/// distance improves, the meeting node is recorded. Any later improvement
/// of either tentative distance at the meeting node re-evaluates `best`
/// (the relaxation that improves it sees the other side's finite
/// distance), so at termination `dist_f[meet] + dist_b[meet] == best` and
/// the two parent chains through `meet` concatenate into a shortest
/// `source -> target` walk.
pub fn bidirectional_search_paths(
    g: &RoadNetwork,
    source: NodeId,
    target: NodeId,
) -> (Option<(Distance, Vec<NodeId>)>, SearchStats) {
    if source == target {
        return (Some((0, vec![source])), SearchStats::default());
    }
    let n = g.num_nodes();
    let mut dist_f = vec![DIST_INF; n];
    let mut dist_b = vec![DIST_INF; n];
    let mut parent_f = vec![NO_PARENT; n];
    let mut parent_b = vec![NO_PARENT; n];
    let mut heap_f = MinHeap::with_capacity(64);
    let mut heap_b = MinHeap::with_capacity(64);
    let mut stats = SearchStats::default();
    let mut best = DIST_INF;
    let mut meet: NodeId = NO_PARENT;

    dist_f[source as usize] = 0;
    dist_b[target as usize] = 0;
    heap_f.push(0, source);
    heap_b.push(0, target);

    loop {
        let tf = heap_f.peek_key();
        let tb = heap_b.peek_key();
        let (Some(tf), Some(tb)) = (tf, tb) else {
            break; // one frontier exhausted: no more meetings possible
        };
        if best != DIST_INF && tf + tb >= best {
            break;
        }
        if tf <= tb {
            let e = heap_f.pop().expect("peeked");
            let v = e.item;
            if e.key != dist_f[v as usize] {
                continue;
            }
            stats.settled += 1;
            for (u, w) in g.out_edges(v) {
                stats.relaxed += 1;
                let cand = e.key + w as Distance;
                if cand < dist_f[u as usize] {
                    dist_f[u as usize] = cand;
                    parent_f[u as usize] = v;
                    heap_f.push(cand, u);
                }
                if dist_b[u as usize] != DIST_INF && cand + dist_b[u as usize] < best {
                    best = cand + dist_b[u as usize];
                    meet = u;
                }
            }
        } else {
            let e = heap_b.pop().expect("peeked");
            let v = e.item;
            if e.key != dist_b[v as usize] {
                continue;
            }
            stats.settled += 1;
            for (u, w) in g.in_edges(v) {
                stats.relaxed += 1;
                let cand = e.key + w as Distance;
                if cand < dist_b[u as usize] {
                    dist_b[u as usize] = cand;
                    parent_b[u as usize] = v;
                    heap_b.push(cand, u);
                }
                if dist_f[u as usize] != DIST_INF && dist_f[u as usize] + cand < best {
                    best = dist_f[u as usize] + cand;
                    meet = u;
                }
            }
        }
    }
    if best == DIST_INF {
        return (None, stats);
    }
    let mut path = vec![meet];
    let mut cur = meet;
    while parent_f[cur as usize] != NO_PARENT {
        cur = parent_f[cur as usize];
        path.push(cur);
    }
    path.reverse();
    cur = meet;
    while parent_b[cur as usize] != NO_PARENT {
        cur = parent_b[cur as usize];
        path.push(cur);
    }
    (Some((best, path)), stats)
}

/// Bidirectional search returning the distance plus work counters.
///
/// Invariant used for termination: once `top(forward) + top(backward)`
/// is at least the best meeting distance seen, no shorter path can still
/// be discovered (every undiscovered path's two halves are bounded below
/// by the respective heap tops).
pub fn bidirectional_search(
    g: &RoadNetwork,
    source: NodeId,
    target: NodeId,
) -> (Option<Distance>, SearchStats) {
    if source == target {
        return (Some(0), SearchStats::default());
    }
    let n = g.num_nodes();
    let mut dist_f = vec![DIST_INF; n];
    let mut dist_b = vec![DIST_INF; n];
    let mut heap_f = MinHeap::with_capacity(64);
    let mut heap_b = MinHeap::with_capacity(64);
    let mut stats = SearchStats::default();
    let mut best = DIST_INF;

    dist_f[source as usize] = 0;
    dist_b[target as usize] = 0;
    heap_f.push(0, source);
    heap_b.push(0, target);

    loop {
        let tf = heap_f.peek_key();
        let tb = heap_b.peek_key();
        let (Some(tf), Some(tb)) = (tf, tb) else {
            break; // one frontier exhausted: no more meetings possible
        };
        if best != DIST_INF && tf + tb >= best {
            break;
        }
        // Expand the smaller frontier.
        if tf <= tb {
            let e = heap_f.pop().expect("peeked");
            let v = e.item;
            if e.key != dist_f[v as usize] {
                continue;
            }
            stats.settled += 1;
            for (u, w) in g.out_edges(v) {
                stats.relaxed += 1;
                let cand = e.key + w as Distance;
                if cand < dist_f[u as usize] {
                    dist_f[u as usize] = cand;
                    heap_f.push(cand, u);
                }
                if dist_b[u as usize] != DIST_INF {
                    best = best.min(cand + dist_b[u as usize]);
                }
            }
        } else {
            let e = heap_b.pop().expect("peeked");
            let v = e.item;
            if e.key != dist_b[v as usize] {
                continue;
            }
            stats.settled += 1;
            for (u, w) in g.in_edges(v) {
                stats.relaxed += 1;
                let cand = e.key + w as Distance;
                if cand < dist_b[u as usize] {
                    dist_b[u as usize] = cand;
                    heap_b.push(cand, u);
                }
                if dist_f[u as usize] != DIST_INF {
                    best = best.min(cand + dist_f[u as usize]);
                }
            }
        }
    }
    if best == DIST_INF {
        (None, stats)
    } else {
        (Some(best), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::{dijkstra_distance, dijkstra_with_options, DijkstraOptions};
    use crate::generators::{small_grid, GeneratorConfig};
    use crate::graph::{GraphBuilder, Point};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matches_unidirectional_on_random_queries() {
        let g = small_grid(15, 15, 9);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let s = rng.gen_range(0..g.num_nodes()) as NodeId;
            let t = rng.gen_range(0..g.num_nodes()) as NodeId;
            assert_eq!(
                bidirectional_distance(&g, s, t),
                dijkstra_distance(&g, s, t),
                "{s}->{t}"
            );
        }
    }

    #[test]
    fn works_on_directed_asymmetric_graphs() {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(Point::new(i as f64, 0.0));
        }
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        b.add_edge(3, 0, 10); // cycle back, asymmetric weights
        let g = b.finish();
        assert_eq!(bidirectional_distance(&g, 0, 3), Some(3));
        assert_eq!(bidirectional_distance(&g, 3, 0), Some(10));
    }

    #[test]
    fn settles_fewer_nodes_than_unidirectional_on_long_paths() {
        let cfg = GeneratorConfig {
            nodes: 2000,
            undirected_edges: 2600,
            seed: 5,
            ..GeneratorConfig::default()
        };
        let g = cfg.generate();
        let (s, t) = (0, 1999);
        let (_, bi) = bidirectional_search(&g, s, t);
        let (_, uni) = dijkstra_with_options(
            &g,
            s,
            DijkstraOptions {
                target: Some(t),
                bound: None,
            },
        );
        assert!(
            bi.settled < uni.settled,
            "bidirectional {} vs unidirectional {}",
            bi.settled,
            uni.settled
        );
    }

    #[test]
    fn paths_variant_matches_distances_and_returns_valid_walks() {
        let g = small_grid(12, 12, 3);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..60 {
            let s = rng.gen_range(0..g.num_nodes()) as NodeId;
            let t = rng.gen_range(0..g.num_nodes()) as NodeId;
            let (res, _) = bidirectional_search_paths(&g, s, t);
            assert_eq!(
                res.as_ref().map(|(d, _)| *d),
                dijkstra_distance(&g, s, t),
                "{s}->{t}"
            );
            let Some((d, path)) = res else { continue };
            assert_eq!(path.first(), Some(&s));
            assert_eq!(path.last(), Some(&t));
            let mut acc: Distance = 0;
            for w in path.windows(2) {
                acc += g.weight_between(w[0], w[1]).expect("edge on path") as Distance;
            }
            assert_eq!(acc, d, "path weights must sum to the claimed distance");
        }
    }

    #[test]
    fn paths_variant_on_directed_asymmetric_graphs() {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(Point::new(i as f64, 0.0));
        }
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        b.add_edge(3, 0, 10);
        let g = b.finish();
        let (res, _) = bidirectional_search_paths(&g, 0, 3);
        assert_eq!(res, Some((3, vec![0, 1, 2, 3])));
        let (res, _) = bidirectional_search_paths(&g, 3, 0);
        assert_eq!(res, Some((10, vec![3, 0])));
        let (res, _) = bidirectional_search_paths(&g, 2, 2);
        assert_eq!(res, Some((0, vec![2])));
    }

    #[test]
    fn unreachable_and_trivial_cases() {
        let mut b = GraphBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(1.0, 0.0));
        let g = b.finish();
        assert_eq!(bidirectional_distance(&g, 0, 1), None);
        assert_eq!(bidirectional_distance(&g, 0, 0), Some(0));
    }
}
