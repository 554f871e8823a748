//! Regression tests for `astar_air`'s measured geometric bound.
//!
//! The original bound measured `c = min (w - 1) / |e|`, which collapses
//! to `c = 0` — plain Dijkstra — the moment any received edge has
//! weight 1. The current `w / |e|` numerator with the `ceil(..) - 1`
//! bound keeps pruning on such networks. These tests pin the repaired
//! behavior on exactly the inputs that broke it:
//!
//! 1. a unit-weight lattice (every edge weight 1 — the fully degenerate
//!    case for the old bound) must settle strictly fewer nodes under A*
//!    than plain Dijkstra, and answer exactly;
//! 2. on the conformance suite's grid-class networks, A* must settle
//!    strictly fewer nodes than both `dj` and `bidi_air` aggregated over
//!    a query batch, while staying exact.
//!
//! A third test pins its memory: A* searches the store DJ receives, with
//! DJ's search scratch, so it pays exactly DJ's peak memory.

use spair_broadcast::{BroadcastChannel, LossModel};
use spair_core::query::Query;
use spair_core::BorderPrecomputation;
use spair_methods::{MethodRegistry, World};
use spair_partition::KdTreePartition;
use spair_roadnet::generators::small_grid;
use spair_roadnet::{dijkstra_distance, GraphBuilder, Point, RoadNetwork};

/// An n x n lattice at unit spacing where every edge has weight 1 — the
/// old `(w - 1) / |e|` bound measures `c = 0` here and degenerates to
/// plain Dijkstra.
fn unit_lattice(n: u32) -> RoadNetwork {
    let mut b = GraphBuilder::new();
    for y in 0..n {
        for x in 0..n {
            b.add_node(Point::new(x as f64, y as f64));
        }
    }
    let id = |x: u32, y: u32| y * n + x;
    for y in 0..n {
        for x in 0..n {
            if x + 1 < n {
                b.add_edge(id(x, y), id(x + 1, y), 1);
                b.add_edge(id(x + 1, y), id(x, y), 1);
            }
            if y + 1 < n {
                b.add_edge(id(x, y), id(x, y + 1), 1);
                b.add_edge(id(x, y + 1), id(x, y), 1);
            }
        }
    }
    b.finish()
}

/// Runs `method` over a lossless channel for each query and returns the
/// total settled nodes, asserting every distance against the oracle.
fn settled_total(g: &RoadNetwork, method: &str, queries: &[(u32, u32)]) -> u64 {
    let reg = MethodRegistry::standard();
    let part = KdTreePartition::build(g, 8);
    let pre = BorderPrecomputation::run(g, &part);
    let world = World::from_parts(g.clone(), part, pre);
    let m = reg.get(method).unwrap();
    let program = reg.method(m).build_program(&world);
    let cycle = program.cycle().unwrap();
    let mut client = program.make_client(Default::default()).unwrap();
    let mut settled = 0;
    for &(s, t) in queries {
        let mut ch = BroadcastChannel::lossless(cycle);
        let out = client.query(&mut ch, &Query::for_nodes(g, s, t)).unwrap();
        assert_eq!(
            Some(out.distance),
            dijkstra_distance(g, s, t),
            "{method}: wrong distance for {s} -> {t}"
        );
        settled += out.stats.settled_nodes;
    }
    settled
}

#[test]
fn unit_weight_lattice_still_prunes() {
    let g = unit_lattice(14);
    let n = 14 * 14;
    let queries: Vec<(u32, u32)> = vec![(0, n - 1), (13, n - 14), (5, 160), (100, 7)];
    let astar = settled_total(&g, "astar_air", &queries);
    let dj = settled_total(&g, "dj", &queries);
    assert!(
        astar < dj,
        "A* must keep pruning on all-weight-1 edges: astar {astar} vs dj {dj}"
    );
}

#[test]
fn grid_networks_settle_strictly_below_dj_and_bidi() {
    for (w, h, seed) in [(12usize, 12usize, 3u64), (14, 14, 7), (16, 16, 11)] {
        let g = small_grid(w, h, seed);
        let n = g.num_nodes() as u32;
        let queries: Vec<(u32, u32)> = (0..6u32)
            .map(|i| ((i * 7919) % n, (i * 104_729 + n / 2) % n))
            .filter(|(s, t)| s != t)
            .collect();
        let astar = settled_total(&g, "astar_air", &queries);
        let bidi = settled_total(&g, "bidi_air", &queries);
        let dj = settled_total(&g, "dj", &queries);
        assert!(
            astar < dj,
            "grid {w}x{h} seed {seed}: astar {astar} >= dj {dj}"
        );
        assert!(
            astar < bidi,
            "grid {w}x{h} seed {seed}: astar {astar} >= bidi {bidi}"
        );
    }
}

/// Per-query `peak_memory_bytes` of `method` on `g`, each query tuned in
/// at its own offset under 5% Bernoulli loss (so §6.2 re-reception runs).
fn peak_memory(g: &RoadNetwork, method: &str, queries: &[(u32, u32)]) -> Vec<usize> {
    let reg = MethodRegistry::standard();
    let part = KdTreePartition::build(g, 8);
    let pre = BorderPrecomputation::run(g, &part);
    let world = World::from_parts(g.clone(), part, pre);
    let program = reg.method(reg.get(method).unwrap()).build_program(&world);
    let cycle = program.cycle().unwrap();
    let mut client = program.make_client(Default::default()).unwrap();
    queries
        .iter()
        .enumerate()
        .map(|(i, &(s, t))| {
            let at = (i * 37) % cycle.len();
            let mut ch = BroadcastChannel::tune_in(cycle, at, LossModel::bernoulli(0.05, i as u64));
            let out = client.query(&mut ch, &Query::for_nodes(g, s, t)).unwrap();
            assert_eq!(Some(out.distance), dijkstra_distance(g, s, t), "{method}");
            out.stats.peak_memory_bytes
        })
        .collect()
}

#[test]
fn astar_pays_exactly_dj_memory() {
    for (w, h, seed) in [(12usize, 12usize, 3u64), (16, 16, 11)] {
        let g = small_grid(w, h, seed);
        let n = g.num_nodes() as u32;
        let queries: Vec<(u32, u32)> = (0..6u32)
            .map(|i| ((i * 7919) % n, (i * 104_729 + n / 2) % n))
            .filter(|(s, t)| s != t)
            .collect();
        assert_eq!(
            peak_memory(&g, "astar_air", &queries),
            peak_memory(&g, "dj", &queries),
            "grid {w}x{h} seed {seed}"
        );
    }
}
