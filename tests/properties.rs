//! Property-based tests (proptest) on the framework's core invariants:
//! random road networks, partitionings, and queries.

use proptest::prelude::*;
use spair::prelude::*;
use spair_roadnet::generators::GeneratorConfig;
use spair_roadnet::{dijkstra_distance, NodeId};

fn arb_network() -> impl Strategy<Value = RoadNetwork> {
    (30usize..180, 0u64..1000, 0.05f64..0.6).prop_map(|(nodes, seed, extra)| {
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The NR client's answer equals whole-graph Dijkstra for arbitrary
    /// networks, partition sizes, queries and tune-in offsets.
    #[test]
    fn nr_always_matches_dijkstra(
        g in arb_network(),
        regions_pow in 1u32..4,
        pair in (0usize..10_000, 0usize..10_000),
        offset in 0usize..10_000,
    ) {
        let regions = 1usize << regions_pow;
        let part = KdTreePartition::build(&g, regions.max(2));
        let pre = BorderPrecomputation::run(&g, &part);
        let program = NrServer::new(&g, &part, &pre).build_program().expect("encode");
        let s = (pair.0 % g.num_nodes()) as NodeId;
        let t = (pair.1 % g.num_nodes()) as NodeId;
        let q = Query::for_nodes(&g, s, t);
        let mut ch = BroadcastChannel::tune_in(
            program.cycle(),
            offset % program.cycle().len(),
            LossModel::Lossless,
        );
        let out = NrClient::new(program.summary()).query(&mut ch, &q);
        prop_assert_eq!(out.ok().map(|o| o.distance), dijkstra_distance(&g, s, t));
    }

    /// Same for EB.
    #[test]
    fn eb_always_matches_dijkstra(
        g in arb_network(),
        pair in (0usize..10_000, 0usize..10_000),
        offset in 0usize..10_000,
    ) {
        let part = KdTreePartition::build(&g, 8);
        let pre = BorderPrecomputation::run(&g, &part);
        let program = EbServer::new(&g, &part, &pre).build_program().expect("encode");
        let s = (pair.0 % g.num_nodes()) as NodeId;
        let t = (pair.1 % g.num_nodes()) as NodeId;
        let q = Query::for_nodes(&g, s, t);
        let mut ch = BroadcastChannel::tune_in(
            program.cycle(),
            offset % program.cycle().len(),
            LossModel::Lossless,
        );
        let out = EbClient::new(program.summary()).query(&mut ch, &q);
        prop_assert_eq!(out.ok().map(|o| o.distance), dijkstra_distance(&g, s, t));
    }

    /// EB's pruning never discards a region that the true shortest path
    /// traverses (the §4 soundness argument, checked directly).
    #[test]
    fn eb_pruning_is_sound(
        g in arb_network(),
        pair in (0usize..10_000, 0usize..10_000),
    ) {
        let part = KdTreePartition::build(&g, 8);
        let pre = BorderPrecomputation::run(&g, &part);
        let s = (pair.0 % g.num_nodes()) as NodeId;
        let t = (pair.1 % g.num_nodes()) as NodeId;
        prop_assume!(s != t);
        let candidates = pre.eb_candidates(part.region_of(s), part.region_of(t));
        if let Some((_, path)) = spair_roadnet::dijkstra_to_target(&g, s, t) {
            for &v in &path {
                let r = part.region_of(v);
                prop_assert!(candidates.contains(r), "region {r} on the path would be pruned");
            }
        }
    }

    /// NR's traversed-region sets cover the true shortest path.
    #[test]
    fn nr_needed_regions_cover_the_path(
        g in arb_network(),
        pair in (0usize..10_000, 0usize..10_000),
    ) {
        let part = KdTreePartition::build(&g, 8);
        let pre = BorderPrecomputation::run(&g, &part);
        let s = (pair.0 % g.num_nodes()) as NodeId;
        let t = (pair.1 % g.num_nodes()) as NodeId;
        let rs = part.region_of(s);
        let rt = part.region_of(t);
        let needed = pre.needed_regions(rs, rt);
        // Restricting the search to the needed regions preserves the
        // distance (ties may route differently, so compare distances).
        let (res, _) = spair_roadnet::dijkstra::dijkstra_filtered(&g, s, t, |v| {
            needed.contains(part.region_of(v))
        });
        prop_assert_eq!(res.map(|(d, _)| d), dijkstra_distance(&g, s, t));
    }

    /// Kd-tree locate() agrees with the node assignment for every node,
    /// and the split-value round trip preserves it.
    #[test]
    fn kd_locator_round_trips(g in arb_network(), pow in 1u32..5) {
        let regions = 1usize << pow;
        let part = KdTreePartition::build(&g, regions.max(2));
        let rebuilt = spair::partition::KdLocator::from_splits(part.splits().to_vec());
        for v in g.node_ids() {
            prop_assert_eq!(rebuilt.locate(g.point(v)), part.region_of(v));
        }
    }

    /// Network codec round-trip: encode -> packets -> decode reproduces
    /// every adjacency list.
    #[test]
    fn netcodec_round_trips(g in arb_network()) {
        use spair::core::netcodec::{decode_payload, encode_nodes, ReceivedGraph};
        let nodes: Vec<NodeId> = g.node_ids().collect();
        let mut store = ReceivedGraph::new();
        for payload in encode_nodes(&g, &nodes) {
            for rec in decode_payload(&payload).unwrap() {
                store.ingest(rec);
            }
        }
        prop_assert_eq!(store.num_nodes(), g.num_nodes());
        for v in g.node_ids() {
            let mut want: Vec<_> = g.out_edges(v).collect();
            let mut got = store.out_edges(v).to_vec();
            want.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(want, got);
        }
    }

    /// NR and EB remain exact under arbitrary Bernoulli loss rates up to
    /// the paper's 10 % (the §6.2 recovery paths as a whole).
    #[test]
    fn nr_and_eb_exact_under_arbitrary_loss(
        g in arb_network(),
        pair in (0usize..10_000, 0usize..10_000),
        rate in 0.0f64..0.10,
        loss_seed in 0u64..10_000,
    ) {
        let part = KdTreePartition::build(&g, 8);
        let pre = BorderPrecomputation::run(&g, &part);
        let s = (pair.0 % g.num_nodes()) as NodeId;
        let t = (pair.1 % g.num_nodes()) as NodeId;
        let q = Query::for_nodes(&g, s, t);
        let want = dijkstra_distance(&g, s, t);

        let nr = NrServer::new(&g, &part, &pre).build_program().expect("encode");
        let mut ch = BroadcastChannel::tune_in(
            nr.cycle(),
            loss_seed as usize % nr.cycle().len(),
            LossModel::bernoulli(rate, loss_seed),
        );
        let out = NrClient::new(nr.summary()).query(&mut ch, &q);
        prop_assert_eq!(out.ok().map(|o| o.distance), want);

        let eb = EbServer::new(&g, &part, &pre).build_program().expect("encode");
        let mut ch = BroadcastChannel::tune_in(
            eb.cycle(),
            loss_seed as usize % eb.cycle().len(),
            LossModel::bernoulli(rate, loss_seed),
        );
        let out = EbClient::new(eb.summary()).query(&mut ch, &q);
        prop_assert_eq!(out.ok().map(|o| o.distance), want);
    }

    /// §6.1 memory-bound processing returns identical distances while
    /// retaining less than the raw region data.
    #[test]
    fn memory_bound_mode_is_lossless_in_answers(
        g in arb_network(),
        pair in (0usize..10_000, 0usize..10_000),
    ) {
        use spair::core::netcodec::{decode_payload, encode_nodes_with_borders, ReceivedGraph};
        let part = KdTreePartition::build(&g, 8);
        let pre = BorderPrecomputation::run(&g, &part);
        let s = (pair.0 % g.num_nodes()) as NodeId;
        let t = (pair.1 % g.num_nodes()) as NodeId;

        // Decode every region the way a client would.
        let mut store = ReceivedGraph::new();
        for r in 0..8usize {
            let nodes = &part.nodes_by_region()[r];
            for payload in
                encode_nodes_with_borders(&g, nodes, |v| pre.borders().is_border(v))
            {
                for rec in decode_payload(&payload).unwrap() {
                    store.ingest(rec);
                }
            }
        }
        let (plain, _) = store.shortest_path(s, t);

        let mut proc = MemoryBoundProcessor::new();
        for r in 0..8usize {
            let nodes = &part.nodes_by_region()[r];
            let terminals: Vec<NodeId> = [s, t]
                .iter()
                .copied()
                .filter(|v| nodes.contains(v))
                .collect();
            proc.add_region(&store, nodes, &terminals);
        }
        let contracted = proc.shortest_path(s, t);
        prop_assert_eq!(
            contracted.map(|(d, _)| d),
            plain.map(|(d, _)| d)
        );
    }

    /// The (1,m) interleaver never reorders or drops data packets and
    /// places exactly m index copies.
    #[test]
    fn interleave_preserves_data(
        chunk_sizes in prop::collection::vec(1usize..12, 1..10),
        index_len in 1usize..6,
        m in 1usize..8,
    ) {
        use bytes::Bytes;
        use spair::broadcast::cycle::SegmentKind;
        use spair::broadcast::interleave::{interleave_1m, DataChunk};
        use spair::broadcast::packet::PacketKind;
        let chunks: Vec<DataChunk> = chunk_sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| DataChunk {
                kind: SegmentKind::RegionData(i as u16),
                packet_kind: PacketKind::Data,
                payloads: (0..n).map(|j| Bytes::from(vec![i as u8, j as u8])).collect(),
            })
            .collect();
        let index: Vec<Bytes> = (0..index_len).map(|i| Bytes::from(vec![0xFF, i as u8])).collect();
        let total: usize = chunk_sizes.iter().sum();
        let cycle = interleave_1m(index, chunks, m).finish();
        let copies = cycle
            .segments()
            .iter()
            .filter(|s| s.kind == SegmentKind::GlobalIndex)
            .count();
        prop_assert!(copies >= 1 && copies <= m);
        prop_assert_eq!(cycle.len(), total + copies * index_len);
        // Data order preserved.
        let regions: Vec<u16> = cycle
            .segments()
            .iter()
            .filter_map(|s| match s.kind {
                SegmentKind::RegionData(r) => Some(r),
                _ => None,
            })
            .collect();
        let want: Vec<u16> = (0..chunk_sizes.len() as u16).collect();
        prop_assert_eq!(regions, want);
    }
}
