//! Property-based tests on the road-network substrate: every search
//! algorithm agrees with plain Dijkstra, the generators produce usable
//! networks, and the serializers round-trip.

use proptest::prelude::*;
use spair_roadnet::generators::GeneratorConfig;
use spair_roadnet::{
    bidirectional_distance, dijkstra_distance, dijkstra_full, dijkstra_to_target, insert_positions,
    io, EdgePosition, NodeId, NodeLocator, Point, RoadNetwork,
};

fn arb_network() -> impl Strategy<Value = RoadNetwork> {
    (20usize..200, 0u64..1000, 0.0f64..0.8).prop_map(|(nodes, seed, extra)| {
        GeneratorConfig {
            nodes,
            undirected_edges: nodes - 1 + (nodes as f64 * extra) as usize,
            seed,
            ..GeneratorConfig::default()
        }
        .generate()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Point-to-point Dijkstra agrees with the full-tree distance.
    #[test]
    fn p2p_matches_full_tree(g in arb_network(), pair in (0usize..10_000, 0usize..10_000)) {
        let s = (pair.0 % g.num_nodes()) as NodeId;
        let t = (pair.1 % g.num_nodes()) as NodeId;
        let tree = dijkstra_full(&g, s);
        let want = tree.reachable(t).then(|| tree.distance(t));
        prop_assert_eq!(dijkstra_distance(&g, s, t), want);
    }

    /// Bidirectional search returns the Dijkstra distance.
    #[test]
    fn bidirectional_matches_dijkstra(
        g in arb_network(),
        pair in (0usize..10_000, 0usize..10_000),
    ) {
        let s = (pair.0 % g.num_nodes()) as NodeId;
        let t = (pair.1 % g.num_nodes()) as NodeId;
        prop_assert_eq!(bidirectional_distance(&g, s, t), dijkstra_distance(&g, s, t));
    }

    /// Returned paths are real paths: consecutive edges exist and their
    /// weights sum to the reported distance.
    #[test]
    fn paths_are_consistent(g in arb_network(), pair in (0usize..10_000, 0usize..10_000)) {
        let s = (pair.0 % g.num_nodes()) as NodeId;
        let t = (pair.1 % g.num_nodes()) as NodeId;
        if let Some((d, path)) = dijkstra_to_target(&g, s, t) {
            prop_assert_eq!(path.first(), Some(&s));
            prop_assert_eq!(path.last(), Some(&t));
            let mut acc = 0u64;
            for w in path.windows(2) {
                let Some(wt) = g.weight_between(w[0], w[1]) else {
                    return Err(TestCaseError::fail(format!("missing edge {}->{}", w[0], w[1])));
                };
                acc += wt as u64;
            }
            prop_assert_eq!(acc, d);
        }
    }

    /// Generated networks are connected (every node reachable from 0) —
    /// the MST backbone guarantees it.
    #[test]
    fn generated_networks_are_connected(g in arb_network()) {
        let tree = dijkstra_full(&g, 0);
        for v in g.node_ids() {
            prop_assert!(tree.reachable(v), "node {v} unreachable");
        }
    }

    /// The text serializer round-trips every generated network exactly.
    #[test]
    fn io_round_trips(g in arb_network()) {
        let mut buf = Vec::new();
        io::write_text(&g, &mut buf).unwrap();
        let g2 = io::read_text(buf.as_slice()).unwrap();
        prop_assert_eq!(g2.num_nodes(), g.num_nodes());
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        for v in g.node_ids() {
            let a: Vec<_> = g.out_edges(v).collect();
            let b: Vec<_> = g2.out_edges(v).collect();
            prop_assert_eq!(a, b, "adjacency of {}", v);
            prop_assert_eq!(g.point(v).x, g2.point(v).x);
            prop_assert_eq!(g.point(v).y, g2.point(v).y);
        }
    }

    /// The grid-bucketed nearest-node locator agrees with brute force.
    #[test]
    fn snap_matches_brute_force(
        g in arb_network(),
        q in ((-100.0f64..3000.0), (-100.0f64..3000.0)),
    ) {
        let locator = NodeLocator::build(&g);
        let p = Point::new(q.0, q.1);
        let got = locator.nearest(p);
        let best = g
            .node_ids()
            .map(|v| (g.point(v).euclidean(&p), v))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .unwrap();
        // Ties may resolve to a different node at the same distance.
        prop_assert_eq!(g.point(got).euclidean(&p), best.0);
    }

    /// Splitting an edge never changes distances between original nodes.
    #[test]
    fn edge_split_preserves_metric(
        g in arb_network(),
        pick in 0usize..10_000,
        frac in 1u32..100,
        pair in (0usize..10_000, 0usize..10_000),
    ) {
        // Find a splittable arc deterministically from the pick.
        let n = g.num_nodes() as NodeId;
        let start = (pick % g.num_nodes()) as NodeId;
        let mut arc = None;
        'outer: for v in (start..n).chain(0..start) {
            for (u, w) in g.out_edges(v) {
                if w >= 2 && g.weight_between(u, v) == Some(w) {
                    arc = Some((v, u, w));
                    break 'outer;
                }
            }
        }
        let Some((u, v, w)) = arc else { return Ok(()) };
        let along = 1 + (frac % (w - 1).max(1));
        let (g2, _) = insert_positions(&g, &[EdgePosition { from: u, to: v, along }]);
        let s = (pair.0 % g.num_nodes()) as NodeId;
        let t = (pair.1 % g.num_nodes()) as NodeId;
        prop_assert_eq!(dijkstra_distance(&g2, s, t), dijkstra_distance(&g, s, t));
    }
}

/// Feeds a network's own CSR arrays back through
/// [`RoadNetwork::from_csr`]. With edges fed in source-major order the
/// rebuild must be indistinguishable from a `GraphBuilder` fed the same
/// sequence — the `receive_network` fast path depends on exactly that
/// equivalence (its predecessor built the received graph through
/// `GraphBuilder` in source-major dense order).
fn rebuild_via_csr(g: &RoadNetwork) -> RoadNetwork {
    let mut out_offsets: Vec<u32> = Vec::with_capacity(g.num_nodes() + 1);
    let mut out_targets: Vec<NodeId> = Vec::with_capacity(g.num_edges());
    let mut out_weights = Vec::with_capacity(g.num_edges());
    out_offsets.push(0);
    for v in g.node_ids() {
        for (u, w) in g.out_edges(v) {
            out_targets.push(u);
            out_weights.push(w);
        }
        out_offsets.push(out_targets.len() as u32);
    }
    RoadNetwork::from_csr(g.points().to_vec(), out_offsets, out_targets, out_weights)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `from_csr` reproduces the builder graph exactly: adjacency in both
    /// directions, then — the behavioral part — identical settle order,
    /// distances, parents and first-hop colors.
    #[test]
    fn from_csr_is_indistinguishable_from_builder(
        g in arb_network(),
        pick in 0usize..10_000,
    ) {
        use spair_roadnet::dijkstra::{DijkstraWorkspace, Direction};
        use spair_roadnet::peel::{Peel, SourceTree};

        // Reference: a builder fed the same edges in source-major order
        // (the order `receive_network` feeds `from_csr`). The original
        // generated graph's own insertion order is NOT source-major, so
        // its reverse adjacency ordering is not part of the claim.
        let g = {
            let mut b = spair_roadnet::GraphBuilder::new();
            for v in g.node_ids() {
                b.add_node(g.point(v));
            }
            for v in g.node_ids() {
                for (u, w) in g.out_edges(v) {
                    b.add_edge(v, u, w);
                }
            }
            b.finish()
        };
        let c = rebuild_via_csr(&g);
        prop_assert_eq!(g.num_nodes(), c.num_nodes());
        prop_assert_eq!(g.num_edges(), c.num_edges());
        for v in g.node_ids() {
            prop_assert_eq!(g.point(v).x, c.point(v).x);
            prop_assert_eq!(g.point(v).y, c.point(v).y);
            let go: Vec<_> = g.out_edges(v).collect();
            let co: Vec<_> = c.out_edges(v).collect();
            prop_assert_eq!(go, co, "out edges of {}", v);
            let gi: Vec<_> = g.in_edges(v).collect();
            let ci: Vec<_> = c.in_edges(v).collect();
            prop_assert_eq!(gi, ci, "in edges of {}", v);
        }

        let s = (pick % g.num_nodes()) as NodeId;
        for dir in [Direction::Forward, Direction::Reverse] {
            let mut wg = DijkstraWorkspace::new(g.num_nodes());
            let mut wc = DijkstraWorkspace::new(c.num_nodes());
            wg.run(&g, s, dir);
            wc.run(&c, s, dir);
            prop_assert_eq!(
                wg.settle_order(),
                wc.settle_order(),
                "settle order from {} under {:?}", s, dir
            );
            for v in g.node_ids() {
                prop_assert_eq!(wg.distance(v), wc.distance(v));
                prop_assert_eq!(wg.parent(v), wc.parent(v));
            }
        }
        let (peel_g, peel_c) = (Peel::new(&g, Direction::Forward), Peel::new(&c, Direction::Forward));
        let (mut tree_g, mut tree_c) = (SourceTree::new(&peel_g), SourceTree::new(&peel_c));
        tree_g.search(&peel_g, s);
        tree_c.search(&peel_c, s);
        let mut hops_g = vec![0u8; g.num_nodes()];
        let mut hops_c = vec![0u8; c.num_nodes()];
        spair_roadnet::first_hops_from_source_tree(&g, &tree_g, &mut hops_g);
        spair_roadnet::first_hops_from_source_tree(&c, &tree_c, &mut hops_c);
        prop_assert_eq!(&hops_g, &hops_c, "first-hop colors from {}", s);
    }

    /// Zero-weight edges create equal-key ties; the CSR rebuild must
    /// break them exactly like the builder graph.
    #[test]
    fn from_csr_preserves_zero_weight_tie_breaks(
        edges in proptest::collection::vec((0u32..14, 0u32..14, 0u32..3u32), 1..60),
        source in 0u32..14,
    ) {
        use spair_roadnet::dijkstra::{DijkstraWorkspace, Direction};
        use spair_roadnet::GraphBuilder;

        let mut b = GraphBuilder::new();
        for i in 0..14u32 {
            b.add_node(Point::new(f64::from(i % 4), f64::from(i / 4)));
        }
        for &(u, v, w) in &edges {
            b.add_edge(u, v, w);
        }
        let g = b.finish();
        let c = rebuild_via_csr(&g);
        let mut wg = DijkstraWorkspace::new(g.num_nodes());
        let mut wc = DijkstraWorkspace::new(c.num_nodes());
        wg.run(&g, source, Direction::Forward);
        wc.run(&c, source, Direction::Forward);
        prop_assert_eq!(wg.settle_order(), wc.settle_order());
        for v in g.node_ids() {
            prop_assert_eq!(wg.distance(v), wc.distance(v));
            prop_assert_eq!(wg.parent(v), wc.parent(v));
        }
    }
}

/// Verbatim copy of the swap-based 4-ary heap `MinHeap` used before its
/// sifts moved a hole; the reference the hole-move heap must reproduce
/// pop for pop.
struct SwapHeap {
    slots: Vec<(u64, u32)>,
}

impl SwapHeap {
    fn push(&mut self, key: u64, item: u32) {
        self.slots.push((key, item));
        self.sift_up(self.slots.len() - 1);
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let len = self.slots.len();
        match len {
            0 => None,
            1 => self.slots.pop(),
            _ => {
                self.slots.swap(0, len - 1);
                let top = self.slots.pop();
                self.sift_down(0);
                top
            }
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.slots[i].0 < self.slots[parent].0 {
                self.slots.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.slots.len();
        loop {
            let first_child = 4 * i + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + 4).min(len);
            let mut best = first_child;
            for c in first_child + 1..last_child {
                if self.slots[c].0 < self.slots[best].0 {
                    best = c;
                }
            }
            if self.slots[best].0 < self.slots[i].0 {
                self.slots.swap(i, best);
                i = best;
            } else {
                break;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The hole-move heap pops exactly the `(key, item)` sequence of the
    /// swap heap — duplicate keys included, so equal-key entries leave in
    /// the same order and every heap-driven Dijkstra keeps its settle
    /// order. `ops` interleaves pushes (`op % 3 != 0`) with pops over a
    /// narrow key range, then drains both heaps.
    #[test]
    fn hole_move_heap_pops_like_the_swap_heap(
        ops in proptest::collection::vec((0u8..3, 0u64..12), 0..400),
    ) {
        let mut heap = spair_roadnet::MinHeap::new();
        let mut reference = SwapHeap { slots: Vec::new() };
        for (i, &(op, key)) in ops.iter().enumerate() {
            if op != 0 {
                heap.push(key, i as u32);
                reference.push(key, i as u32);
            } else {
                let got = heap.pop().map(|e| (e.key, e.item));
                prop_assert_eq!(got, reference.pop(), "pop at op {}", i);
            }
        }
        while let Some(want) = reference.pop() {
            let got = heap.pop().map(|e| (e.key, e.item));
            prop_assert_eq!(got, Some(want));
        }
        prop_assert!(heap.pop().is_none());
    }
}
