//! Arbitrary on-edge source/destination positions (paper §5, closing
//! remark: "In practice ... the source/destination could be at arbitrary
//! locations on the network. EB and NR work as described").
//!
//! A position on an arc can only start travelling by reaching one of the
//! arc's endpoints (and can only be reached through one). The on-edge
//! answer therefore decomposes over endpoint choices:
//!
//! ```text
//! d(p, q) = min over a in exits(p), b in entries(q) of
//!           cost(p -> a) + d(a, b) + cost(b -> q)
//!           (plus the direct along-the-edge walk when p, q share an arc)
//! ```
//!
//! The node-to-node terms are ordinary air queries, so any broadcast
//! method answers on-edge queries unchanged — the decomposition runs as a
//! thin client-side wrapper around an [`AirClient`](crate::query::AirClient).
//! For an undirected
//! road segment that is at most four node-pair queries (the paper's §5
//! border-redefinition folds these into one tuned reception; the wrapper
//! instead reports the summed tuning cost, a documented upper bound).
//!
//! Correctness is property-tested against physically splitting the edges
//! with [`spair_roadnet::insert_positions`] and running whole-graph
//! Dijkstra.

use crate::query::{Query, QueryError, QueryOutcome};
use spair_broadcast::QueryStats;
use spair_roadnet::{Distance, NodeId, Point, RoadNetwork, Weight};

/// A query endpoint: a network node or a position strictly inside an arc.
///
/// Endpoint entries carry the endpoint node's *own* coordinates alongside
/// the id: the node-to-node sub-queries must be located (region lookup,
/// quadtree color lookup) at the node coordinate — §3.2's assumption —
/// not at the interpolated on-edge position, whose containing region/cell
/// can differ.
#[derive(Debug, Clone, PartialEq)]
pub struct OnEdgePoint {
    /// Coordinates of the position itself (reporting only).
    pub pt: Point,
    /// `(endpoint, cost, endpoint coordinates)` triples travel can start
    /// through.
    pub exits: Vec<(NodeId, Weight, Point)>,
    /// `(endpoint, cost, endpoint coordinates)` triples travel can arrive
    /// through.
    pub entries: Vec<(NodeId, Weight, Point)>,
    /// Canonical arc `(from, to)` the position lies on, with the offset
    /// from `from` — used for the same-arc direct-walk candidate. `None`
    /// for node endpoints.
    pub arc: Option<(NodeId, NodeId, Weight)>,
}

impl OnEdgePoint {
    /// Endpoint at a network node.
    pub fn at_node(g: &RoadNetwork, v: NodeId) -> Self {
        Self {
            pt: g.point(v),
            exits: vec![(v, 0, g.point(v))],
            entries: vec![(v, 0, g.point(v))],
            arc: None,
        }
    }

    /// Position `along` weight units into the directed arc `from -> to`
    /// (one-way street: travel exits through `to`, arrives through
    /// `from`). Panics if the arc is missing or `along` not strictly
    /// inside.
    pub fn on_arc(g: &RoadNetwork, from: NodeId, to: NodeId, along: Weight) -> Self {
        let w = g
            .weight_between(from, to)
            .unwrap_or_else(|| panic!("no arc {from} -> {to}"));
        assert!(along > 0 && along < w, "position must be strictly inside");
        Self {
            pt: interpolate(g, from, to, along, w),
            exits: vec![(to, w - along, g.point(to))],
            entries: vec![(from, along, g.point(from))],
            arc: Some((from, to, along)),
        }
    }

    /// Position on an undirected road segment `{a, b}` (both arcs must
    /// exist with equal weight): travel can exit and arrive through both
    /// endpoints.
    pub fn on_undirected(g: &RoadNetwork, a: NodeId, b: NodeId, along: Weight) -> Self {
        let w = g
            .weight_between(a, b)
            .unwrap_or_else(|| panic!("no arc {a} -> {b}"));
        assert_eq!(
            g.weight_between(b, a),
            Some(w),
            "undirected position needs symmetric arcs"
        );
        assert!(along > 0 && along < w, "position must be strictly inside");
        Self {
            pt: interpolate(g, a, b, along, w),
            exits: vec![(a, along, g.point(a)), (b, w - along, g.point(b))],
            entries: vec![(a, along, g.point(a)), (b, w - along, g.point(b))],
            arc: Some((a, b, along)),
        }
    }
}

fn interpolate(g: &RoadNetwork, a: NodeId, b: NodeId, along: Weight, w: Weight) -> Point {
    let (pa, pb) = (g.point(a), g.point(b));
    let t = along as f64 / w as f64;
    Point::new(pa.x + t * (pb.x - pa.x), pa.y + t * (pb.y - pa.y))
}

/// An on-edge shortest path: partial first/last edge costs around a node
/// path.
#[derive(Debug, Clone, PartialEq)]
pub struct OnEdgeOutcome {
    /// Total distance including the partial edge segments.
    pub distance: Distance,
    /// Cost from the source position to `nodes.first()` (0 for node
    /// sources and direct walks).
    pub src_partial: Weight,
    /// Node path between the chosen endpoints (empty for a same-arc
    /// direct walk).
    pub nodes: Vec<NodeId>,
    /// Cost from `nodes.last()` to the destination position.
    pub dst_partial: Weight,
    /// Summed measurements over every underlying air query.
    pub stats: QueryStats,
}

/// Answers an on-edge query by endpoint decomposition, delegating each
/// node-to-node term to `run` (typically a closure that tunes a fresh
/// channel session and calls an [`AirClient`](crate::query::AirClient)).
///
/// `run` is invoked at most `exits × entries` times (≤ 4 for undirected
/// positions); same-endpoint combinations short-circuit without a query.
pub fn on_edge_query(
    src: &OnEdgePoint,
    dst: &OnEdgePoint,
    mut run: impl FnMut(&Query) -> Result<QueryOutcome, QueryError>,
) -> Result<OnEdgeOutcome, QueryError> {
    let mut best: Option<OnEdgeOutcome> = None;
    let mut stats = QueryStats::default();
    fn consider(best: &mut Option<OnEdgeOutcome>, cand: OnEdgeOutcome) {
        if best.as_ref().is_none_or(|b| cand.distance < b.distance) {
            *best = Some(cand);
        }
    }

    // Same-arc direct walk.
    if let (Some((a1, b1, o1)), Some((a2, b2, o2))) = (src.arc, dst.arc) {
        if (a1, b1) == (a2, b2) {
            if o2 >= o1 && src.exits.iter().any(|&(v, _, _)| v == b1) {
                consider(
                    &mut best,
                    OnEdgeOutcome {
                        distance: (o2 - o1) as Distance,
                        src_partial: o2 - o1,
                        nodes: Vec::new(),
                        dst_partial: 0,
                        stats: QueryStats::default(),
                    },
                );
            }
            if o1 >= o2 && src.exits.iter().any(|&(v, _, _)| v == a1) {
                consider(
                    &mut best,
                    OnEdgeOutcome {
                        distance: (o1 - o2) as Distance,
                        src_partial: o1 - o2,
                        nodes: Vec::new(),
                        dst_partial: 0,
                        stats: QueryStats::default(),
                    },
                );
            }
        }
    }

    let mut any_reachable = best.is_some();
    for &(a, ca, pa) in &src.exits {
        for &(b, cb, pb) in &dst.entries {
            if a == b {
                any_reachable = true;
                consider(
                    &mut best,
                    OnEdgeOutcome {
                        distance: ca as Distance + cb as Distance,
                        src_partial: ca,
                        nodes: vec![a],
                        dst_partial: cb,
                        stats: QueryStats::default(),
                    },
                );
                continue;
            }
            // Node coordinates, not the on-edge position: the underlying
            // air query is an ordinary node-to-node query (§3.2).
            let q = Query {
                source: a,
                target: b,
                source_pt: pa,
                target_pt: pb,
            };
            match run(&q) {
                Ok(out) => {
                    any_reachable = true;
                    stats.add(&out.stats);
                    consider(
                        &mut best,
                        OnEdgeOutcome {
                            distance: ca as Distance + out.distance + cb as Distance,
                            src_partial: ca,
                            nodes: out.path,
                            dst_partial: cb,
                            stats: QueryStats::default(),
                        },
                    );
                }
                Err(QueryError::Unreachable) => {}
                Err(e) => return Err(e),
            }
        }
    }

    match best {
        Some(mut out) if any_reachable => {
            out.stats = stats;
            Ok(out)
        }
        _ => Err(QueryError::Unreachable),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spair_roadnet::generators::small_grid;
    use spair_roadnet::{dijkstra_distance, dijkstra_to_target, insert_positions, EdgePosition};

    /// Plain-Dijkstra runner standing in for an air client.
    fn local_runner(
        g: &RoadNetwork,
    ) -> impl FnMut(&Query) -> Result<QueryOutcome, QueryError> + '_ {
        move |q: &Query| match dijkstra_to_target(g, q.source, q.target) {
            Some((d, path)) => Ok(QueryOutcome {
                distance: d,
                path,
                stats: QueryStats::default(),
            }),
            None => Err(QueryError::Unreachable),
        }
    }

    fn splittable_arc(g: &RoadNetwork) -> (NodeId, NodeId, Weight) {
        for v in g.node_ids() {
            for (u, w) in g.out_edges(v) {
                if w >= 4 {
                    return (v, u, w);
                }
            }
        }
        panic!("no arc with weight >= 4");
    }

    #[test]
    fn node_to_node_degenerates_to_plain_query() {
        let g = small_grid(6, 6, 1);
        let src = OnEdgePoint::at_node(&g, 0);
        let dst = OnEdgePoint::at_node(&g, 35);
        let out = on_edge_query(&src, &dst, local_runner(&g)).unwrap();
        assert_eq!(Some(out.distance), dijkstra_distance(&g, 0, 35));
        assert_eq!(out.src_partial, 0);
        assert_eq!(out.dst_partial, 0);
    }

    #[test]
    fn on_edge_source_matches_split_graph_reference() {
        let g = small_grid(7, 7, 2);
        let (u, v, w) = splittable_arc(&g);
        let along = w / 2;
        let src = OnEdgePoint::on_undirected(&g, u, v, along);
        for t in [0u32, 24, 48] {
            let dst = OnEdgePoint::at_node(&g, t);
            let out = on_edge_query(&src, &dst, local_runner(&g)).unwrap();
            let (g2, ids) = insert_positions(
                &g,
                &[EdgePosition {
                    from: u,
                    to: v,
                    along,
                }],
            );
            assert_eq!(
                Some(out.distance),
                dijkstra_distance(&g2, ids[0], t),
                "target {t}"
            );
        }
    }

    #[test]
    fn both_endpoints_on_edges_match_reference() {
        let g = small_grid(8, 8, 5);
        let (u1, v1, w1) = splittable_arc(&g);
        // A second splittable arc, distinct from the first.
        let (u2, v2, w2) = {
            let mut found = None;
            'outer: for x in g.node_ids() {
                for (y, wt) in g.out_edges(x) {
                    let same = (x, y) == (u1, v1) || (x, y) == (v1, u1);
                    if wt >= 4 && !same {
                        found = Some((x, y, wt));
                        break 'outer;
                    }
                }
            }
            found.expect("second arc")
        };
        let (a1, a2) = (w1 / 3, 2 * w2 / 3);
        let src = OnEdgePoint::on_undirected(&g, u1, v1, a1);
        let dst = OnEdgePoint::on_undirected(&g, u2, v2, a2);
        let out = on_edge_query(&src, &dst, local_runner(&g)).unwrap();
        let (g2, ids) = insert_positions(
            &g,
            &[
                EdgePosition {
                    from: u1,
                    to: v1,
                    along: a1,
                },
                EdgePosition {
                    from: u2,
                    to: v2,
                    along: a2,
                },
            ],
        );
        assert_eq!(Some(out.distance), dijkstra_distance(&g2, ids[0], ids[1]));
    }

    #[test]
    fn same_arc_positions_use_the_direct_walk() {
        let g = small_grid(5, 5, 4);
        let (u, v, w) = splittable_arc(&g);
        let src = OnEdgePoint::on_undirected(&g, u, v, 1);
        let dst = OnEdgePoint::on_undirected(&g, u, v, w - 1);
        let out = on_edge_query(&src, &dst, local_runner(&g)).unwrap();
        let (g2, ids) = insert_positions(
            &g,
            &[
                EdgePosition {
                    from: u,
                    to: v,
                    along: 1,
                },
                EdgePosition {
                    from: u,
                    to: v,
                    along: w - 1,
                },
            ],
        );
        assert_eq!(Some(out.distance), dijkstra_distance(&g2, ids[0], ids[1]));
        // On a metric grid the direct walk wins.
        assert_eq!(out.distance, (w - 2) as Distance);
    }

    #[test]
    fn directed_arc_position_cannot_go_backwards() {
        // One-way pair: 0 -> 1 -> 2, plus a long way back 2 -> 0.
        let mut b = spair_roadnet::GraphBuilder::new();
        for i in 0..3 {
            b.add_node(Point::new(i as f64, 0.0));
        }
        b.add_edge(0, 1, 10);
        b.add_edge(1, 2, 10);
        b.add_edge(2, 0, 100);
        let g = b.finish();
        let src = OnEdgePoint::on_arc(&g, 0, 1, 4);
        // Reaching node 0 requires driving forward to 1, then around.
        let dst = OnEdgePoint::at_node(&g, 0);
        let out = on_edge_query(&src, &dst, local_runner(&g)).unwrap();
        assert_eq!(out.distance, 6 + 10 + 100);
    }

    #[test]
    fn unreachable_propagates() {
        let mut b = spair_roadnet::GraphBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(1.0, 0.0));
        b.add_node(Point::new(2.0, 0.0));
        b.add_undirected_edge(0, 1, 8);
        let g = b.finish();
        let src = OnEdgePoint::on_undirected(&g, 0, 1, 3);
        let dst = OnEdgePoint::at_node(&g, 2);
        assert_eq!(
            on_edge_query(&src, &dst, local_runner(&g)).unwrap_err(),
            QueryError::Unreachable
        );
    }

    #[test]
    fn on_arc_measures_the_lightest_of_parallel_edges() {
        // Two roads from 0 to 1, the heavy one inserted first.
        let mut b = spair_roadnet::GraphBuilder::new();
        for x in 0..3 {
            b.add_node(Point::new(x as f64, 0.0));
        }
        b.add_edge(0, 1, 10);
        b.add_edge(0, 1, 4);
        b.add_edge(1, 2, 3);
        let g = b.finish();
        let light = g.weight_between(0, 1).map(Distance::from);
        assert_eq!(light, dijkstra_distance(&g, 0, 1));
        let src = OnEdgePoint::on_arc(&g, 0, 1, 1);
        assert_eq!(src.exits, vec![(1, 3, g.point(1))]);
        let dst = OnEdgePoint::at_node(&g, 2);
        let out = on_edge_query(&src, &dst, local_runner(&g)).unwrap();
        assert_eq!(out.distance, 3 + 3);
        // The split reference cuts the arc `on_arc` measured.
        let (g2, ids) = insert_positions(
            &g,
            &[EdgePosition {
                from: 0,
                to: 1,
                along: 1,
            }],
        );
        assert_eq!(dijkstra_distance(&g2, 0, ids[0]), Some(1));
        assert_eq!(dijkstra_distance(&g2, ids[0], 1), Some(3));
        assert_eq!(dijkstra_distance(&g2, ids[0], 2), Some(out.distance));
        assert_eq!(dijkstra_distance(&g2, 0, 1), dijkstra_distance(&g, 0, 1));
    }

    #[test]
    fn stats_accumulate_over_combos() {
        let g = small_grid(6, 6, 8);
        let (u, v, w) = splittable_arc(&g);
        let src = OnEdgePoint::on_undirected(&g, u, v, w / 2);
        let dst = OnEdgePoint::at_node(&g, 30);
        let mut calls = 0usize;
        let out = on_edge_query(&src, &dst, |q| {
            calls += 1;
            let mut o = local_runner(&g)(q)?;
            o.stats.tuning_packets = 7;
            Ok(o)
        })
        .unwrap();
        assert!(calls <= 2, "at most exits x entries runs");
        assert_eq!(out.stats.tuning_packets, 7 * calls as u64);
    }
}
