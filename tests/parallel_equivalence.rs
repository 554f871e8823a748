//! Property tests for the parallel kernels: the reusable Dijkstra
//! workspace, the parallel precomputation pipeline and the SPQ
//! first-hop/quadtree fast path must all agree exactly with their
//! serial / naive references on random generated networks.

use proptest::prelude::*;
use spair::prelude::*;
use spair_core::BorderPrecomputation;
use spair_roadnet::dijkstra::{DijkstraWorkspace, Direction};
use spair_roadnet::first_hop::{first_hops_from_source_tree, first_hops_from_tree, NO_FIRST_HOP};
use spair_roadnet::generators::GeneratorConfig;
use spair_roadnet::peel::{Peel, SourceTree};
use spair_roadnet::{dijkstra_full, NodeId, Weight};

fn arb_network() -> impl Strategy<Value = RoadNetwork> {
    (30usize..160, 0u64..1000, 0.05f64..0.6).prop_map(|(nodes, seed, extra)| {
        GeneratorConfig {
            nodes,
            undirected_edges: nodes - 1 + (nodes as f64 * extra) as usize,
            seed,
            ..GeneratorConfig::default()
        }
        .generate()
    })
}

/// A random connected graph with tiny weights drawn from `{0, 1, 2}` —
/// zero-weight edges and massed shortest-path ties, the adversarial
/// input for the first-hop sweep's tie rule.
fn arb_tie_network() -> impl Strategy<Value = RoadNetwork> {
    (
        10usize..70,
        0u64..1000,
        proptest::collection::vec(0u32..3, 512),
    )
        .prop_map(|(nodes, seed, weights)| {
            let mut w = weights.into_iter().cycle();
            let mut next_w = move || w.next().expect("cycled") as Weight;
            let mut b = GraphBuilder::new();
            for i in 0..nodes {
                b.add_node(Point::new((i % 8) as f64, (i / 8) as f64));
            }
            // Deterministic spanning chain + seed-spread chords.
            for i in 1..nodes {
                b.add_undirected_edge((i - 1) as NodeId, i as NodeId, next_w());
            }
            for k in 0..nodes {
                let a = (seed as usize + k * 7) % nodes;
                let c = (seed as usize / 3 + k * 13) % nodes;
                if a != c {
                    b.add_edge(a as NodeId, c as NodeId, next_w());
                }
            }
            b.finish()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The reusable workspace reproduces fresh `dijkstra_full` trees —
    /// distances, parents and settle order — across consecutive runs on
    /// one workspace (version-stamp reuse).
    #[test]
    fn heap_workspace_matches_fresh_runs(g in arb_network(), seed in 0usize..10_000) {
        let mut ws = DijkstraWorkspace::new(g.num_nodes());
        for step in 0..3usize {
            let s = ((seed + step * 41) % g.num_nodes()) as NodeId;
            ws.run(&g, s, Direction::Forward);
            let fresh = dijkstra_full(&g, s);
            for v in g.node_ids() {
                prop_assert_eq!(ws.distance(v), fresh.distance(v), "src {} node {}", s, v);
                prop_assert_eq!(ws.parent(v), fresh.parent(v), "src {} node {}", s, v);
            }
            prop_assert_eq!(ws.settle_order(), fresh.settle_order(), "src {}", s);
        }
    }

    /// Parallel precomputation is bit-identical to the serial reference
    /// for every thread count, on random networks and partition sizes.
    #[test]
    fn parallel_precompute_matches_serial(
        g in arb_network(),
        regions_pow in 1u32..4,
        threads in 2usize..9,
    ) {
        let regions = 1usize << regions_pow;
        let part = KdTreePartition::build(&g, regions.max(2));
        let serial = BorderPrecomputation::run_serial(&g, &part);
        let par = BorderPrecomputation::run_with_threads(&g, &part, threads);
        prop_assert!(serial.same_tables(&par), "threads {} diverged", threads);
    }

    /// Differential first-hop test: the one-sweep DP over the settle
    /// order must color every node exactly as per-target path
    /// reconstruction from a fresh full Dijkstra does — including across
    /// zero-weight edges and shortest-path ties, where both sides must
    /// commit to `dijkstra_full`'s parents (strict-improvement rule;
    /// among parallel root edges, the lightest, the first of equally
    /// light ones).
    #[test]
    fn first_hop_dp_matches_full_dijkstra_colors(
        g in arb_tie_network(),
        root_pick in 0usize..10_000,
    ) {
        let root = (root_pick % g.num_nodes()) as NodeId;
        let tree = dijkstra_full(&g, root);
        let mut dp = vec![0u8; g.num_nodes()];
        first_hops_from_tree(&g, &tree, &mut dp);

        // The sweep over the all-sources kernel's tree (the SPQ build's
        // production path, double-tie fallback included) must agree with
        // the tree-driven one.
        let peel = Peel::new(&g, Direction::Forward);
        let mut source_tree = SourceTree::new(&peel);
        source_tree.search(&peel, root);
        let mut dp_kernel = vec![0u8; g.num_nodes()];
        first_hops_from_source_tree(&g, &source_tree, &mut dp_kernel);
        prop_assert_eq!(&dp, &dp_kernel, "kernel sweep diverged from tree sweep");

        let first_edges: Vec<(NodeId, Weight)> = g.out_edges(root).collect();
        for t in g.node_ids() {
            let want = if t == root {
                NO_FIRST_HOP
            } else {
                match tree.path_to(t) {
                    Some(path) => {
                        let lightest = first_edges
                            .iter()
                            .filter(|&&(x, _)| x == path[1])
                            .map(|&(_, w)| w)
                            .min()
                            .expect("path's first hop is a root out-edge");
                        let i = first_edges
                            .iter()
                            .position(|&e| e == (path[1], lightest))
                            .expect("the lightest edge is a root out-edge");
                        // Same >= 255 guard as the production root_edge_color.
                        if i < NO_FIRST_HOP as usize {
                            i as u8
                        } else {
                            NO_FIRST_HOP
                        }
                    }
                    None => NO_FIRST_HOP,
                }
            };
            prop_assert_eq!(dp[t as usize], want, "root {} target {}", root, t);
        }
    }

    /// The SPQ fast path (workspace + first-hop sweep + quadtree
    /// template) must reproduce the naive per-root builder tree-for-tree
    /// on random networks, and the parallel fan-out must stay
    /// bit-identical to serial.
    #[test]
    fn spq_fast_build_matches_reference(
        g in arb_network(),
        threads in 2usize..6,
    ) {
        let fast = SpqIndex::build_serial(&g);
        let slow = SpqIndex::build_reference(&g);
        prop_assert!(fast.same_trees(&slow), "template build diverged from reference");
        let par = SpqIndex::build_with_threads(&g, threads);
        prop_assert!(fast.same_trees(&par), "threads {} diverged", threads);
    }

    /// The parallel pipeline feeds EB/NR unchanged: a client query over
    /// a parallel-built program still matches plain Dijkstra.
    #[test]
    fn nr_over_parallel_precompute_matches_dijkstra(
        g in arb_network(),
        pair in (0usize..10_000, 0usize..10_000),
        threads in 2usize..6,
    ) {
        let part = KdTreePartition::build(&g, 8);
        let pre = BorderPrecomputation::run_with_threads(&g, &part, threads);
        let program = NrServer::new(&g, &part, &pre).build_program().expect("encode");
        let s = (pair.0 % g.num_nodes()) as NodeId;
        let t = (pair.1 % g.num_nodes()) as NodeId;
        let q = Query::for_nodes(&g, s, t);
        let mut ch = BroadcastChannel::lossless(program.cycle());
        let out = NrClient::new(program.summary()).query(&mut ch, &q);
        prop_assert_eq!(
            out.ok().map(|o| o.distance),
            spair_roadnet::dijkstra_distance(&g, s, t)
        );
    }
}

/// The CI determinism gate for the SPQ build: byte-identical indexes for
/// worker counts 1, 2 and 4, on a grid-topology network and on a
/// germany-class preset topology (the paper-scale cell's graph family).
#[test]
fn spq_build_is_thread_deterministic_on_grid_and_preset() {
    let graphs = [
        spair_roadnet::generators::small_grid(9, 9, 7),
        NetworkPreset::Germany
            .config_for_nodes(9001, 500)
            .generate(),
    ];
    for (gi, g) in graphs.iter().enumerate() {
        let serial = SpqIndex::build_with_threads(g, 1);
        for threads in [2usize, 4] {
            let par = SpqIndex::build_with_threads(g, threads);
            assert!(
                serial.same_trees(&par),
                "graph {gi}: threads {threads} diverged from serial"
            );
        }
    }
}

/// The SPQ build against its naive oracle on the end-to-end benchmark's
/// `whole_cycle` map (6 000 germany-class nodes, most roots inside
/// dangling trees), serial and on two workers.
#[test]
#[cfg_attr(debug_assertions, ignore = "germany-class world; run with --release")]
fn spq_build_matches_reference_on_the_whole_cycle_map() {
    let g = NetworkPreset::Germany.config_for_nodes(7, 6_000).generate();
    let serial = SpqIndex::build_serial(&g);
    assert!(serial.same_trees(&SpqIndex::build_reference(&g)));
    assert!(serial.same_trees(&SpqIndex::build_with_threads(&g, 2)));
    assert_eq!(serial.coincident_conflicts(), 0);
}
