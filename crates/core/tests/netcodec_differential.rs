//! Differential certification of the flat slot-arena [`ReceivedGraph`]
//! against the original HashMap-per-node store, reimplemented here
//! verbatim as the test oracle.
//!
//! The CSR rewrite claims byte-identical observable behavior: same
//! per-ingest memory charges, same accessor results, same search results
//! — distances, **paths** (which pin the settle order through zero-weight
//! and equal-key ties) and settled-node counts. These tests check that
//! claim on random record
//! streams (dense and spill-range ids, duplicate chunks, zero weights),
//! on encoded payload streams from grid and germany-class preset
//! networks, and on the fused [`ReceivedGraph::ingest_payload`] path
//! against decode-then-ingest, on whole, truncated, bit-flipped and
//! arbitrary payloads.
//!
//! The store's one search, [`ReceivedGraph::search`], replaced five
//! loops over received stores. Each is kept here verbatim as an oracle
//! (ArcFlag's flag-pruned loop, Landmark's `astar_over_store`, the former
//! `shortest_path_checked`, and `spair_roadnet`'s closed-set A* over a
//! dense rebuild of the store; the kNN loop is kept in `knn.rs`'s tests),
//! and the search must reproduce each one's distance, path, settle count
//! and certification bit.

use proptest::prelude::*;
use spair_broadcast::cycle::SegmentKind;
use spair_broadcast::{BroadcastChannel, LossModel};
use spair_core::netcodec::{decode_payload, encode_nodes, NodeRecord, ReceivedGraph};
use spair_core::patch::{
    build_patch_cycle, decode_patch_payload, dir_packet_count, receive_patch, Coverage,
    PatchDecoder, PatchError, WeightDelta,
};
use spair_core::query::decoded_node_bytes;
use spair_roadnet::generators::{small_grid, NetworkPreset};
use spair_roadnet::{Distance, MinHeap, NodeId, Point, RoadNetwork, Weight, DIST_INF};
use std::collections::HashMap;
use std::ops::ControlFlow;

/// The pre-CSR store, copied from the original implementation: one
/// `HashMap` entry per received node, per-node edge `Vec`s, and a
/// map-backed Dijkstra. This is the behavioral oracle.
type LegacyNode = (Point, bool, Vec<(NodeId, Weight)>);

#[derive(Default)]
struct LegacyStore {
    nodes: HashMap<NodeId, LegacyNode>,
}

impl LegacyStore {
    fn ingest(&mut self, rec: NodeRecord) -> usize {
        let entry = self
            .nodes
            .entry(rec.id)
            .or_insert_with(|| (rec.point, rec.border, Vec::new()));
        entry.1 |= rec.border;
        let added = rec.edges.len();
        entry.2.extend(rec.edges);
        let fresh_node = if entry.2.len() == added {
            decoded_node_bytes(0)
        } else {
            0
        };
        fresh_node + added * 8
    }

    fn out_edges(&self, v: NodeId) -> &[(NodeId, Weight)] {
        self.nodes
            .get(&v)
            .map(|(_, _, e)| e.as_slice())
            .unwrap_or(&[])
    }

    fn retained_bytes(&self) -> usize {
        self.nodes
            .values()
            .map(|(_, _, e)| decoded_node_bytes(0) + e.len() * 8)
            .sum()
    }

    fn discard(&mut self, v: NodeId) -> usize {
        match self.nodes.remove(&v) {
            Some((_, _, e)) => decoded_node_bytes(0) + e.len() * 8,
            None => 0,
        }
    }

    fn shortest_path(&self, source: NodeId, target: NodeId) -> (Option<(u64, Vec<NodeId>)>, usize) {
        let mut dist: HashMap<NodeId, u64> = HashMap::new();
        let mut parent: HashMap<NodeId, NodeId> = HashMap::new();
        let mut settled = 0usize;
        let mut heap = MinHeap::new();
        dist.insert(source, 0);
        heap.push(0, source);
        while let Some(e) = heap.pop() {
            let (key, v) = (e.key, e.item);
            if dist.get(&v) != Some(&key) {
                continue;
            }
            settled += 1;
            if v == target {
                let mut path = vec![v];
                let mut cur = v;
                while let Some(&p) = parent.get(&cur) {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return (Some((key, path)), settled);
            }
            for &(u, w) in self.out_edges(v) {
                let cand = key + w as u64;
                if dist.get(&u).is_none_or(|&d| cand < d) {
                    dist.insert(u, cand);
                    parent.insert(u, v);
                    heap.push(cand, u);
                }
            }
        }
        (None, settled)
    }
}

/// Asserts every observable accessor of the new store matches the oracle.
fn assert_state_matches(legacy: &LegacyStore, new: &ReceivedGraph) {
    assert_eq!(legacy.nodes.len(), new.num_nodes(), "num_nodes");
    assert_eq!(legacy.retained_bytes(), new.retained_bytes(), "retained");
    let mut legacy_ids: Vec<NodeId> = legacy.nodes.keys().copied().collect();
    legacy_ids.sort_unstable();
    let mut new_ids: Vec<NodeId> = new.node_ids().collect();
    new_ids.sort_unstable();
    assert_eq!(legacy_ids, new_ids, "node id set");
    for &v in &legacy_ids {
        assert!(new.contains(v));
        let (p, b, e) = &legacy.nodes[&v];
        assert_eq!(new.point(v), Some(*p), "point of {v}");
        assert_eq!(new.is_border(v), Some(*b), "border of {v}");
        assert_eq!(new.out_edges(v), e.as_slice(), "edges of {v}");
    }
}

/// Asserts search equality for every (source, target) pair — distance,
/// full path (the settle-order witness) and settled count.
fn assert_searches_match(legacy: &LegacyStore, new: &mut ReceivedGraph, pairs: &[(u32, u32)]) {
    for &(s, t) in pairs {
        let want = legacy.shortest_path(s, t);
        let got = new.shortest_path(s, t);
        assert_eq!(want, got, "search {s}->{t}");
    }
}

/// One proptest-generated record: `(id, point, border, edges)`.
type RawRecord = (u32, (f32, f32), bool, Vec<(u32, u32)>);

fn to_record(raw: &RawRecord) -> NodeRecord {
    NodeRecord {
        id: raw.0,
        point: Point::new(raw.1 .0 as f64, raw.1 .1 as f64),
        more: false,
        border: raw.2,
        edges: raw
            .3
            .iter()
            .map(|&(t, w)| (t as NodeId, w as Weight))
            .collect(),
    }
}

/// Record streams over a dense id range, with duplicate chunks (the same
/// node arriving more than once models §6.2 re-reception) and weights
/// down to zero (tie-heavy searches).
fn record_stream(max_id: u32, max_weight: u32) -> impl Strategy<Value = Vec<RawRecord>> {
    let record = (
        0..max_id,
        (-100.0f32..100.0, -100.0f32..100.0),
        any::<bool>(),
        proptest::collection::vec((0..max_id, 0..=max_weight), 0..6),
    );
    proptest::collection::vec(record, 1..40)
}

fn run_differential(records: &[RawRecord], pairs: &[(u32, u32)]) {
    let mut legacy = LegacyStore::default();
    let mut new = ReceivedGraph::new();
    for raw in records {
        let rec = to_record(raw);
        assert_eq!(
            legacy.ingest(rec.clone()),
            new.ingest(rec),
            "ingest charge for node {}",
            raw.0
        );
    }
    assert_state_matches(&legacy, &new);
    assert_searches_match(&legacy, &mut new, pairs);
    // Discards must release identical charges and leave identical state.
    for &(v, _) in pairs.iter().take(2) {
        assert_eq!(legacy.discard(v), new.discard(v), "discard charge of {v}");
    }
    assert_state_matches(&legacy, &new);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dense-id record streams: charges, accessors, searches, discards.
    #[test]
    fn dense_record_streams_match_legacy(records in record_stream(24, 50)) {
        let pairs: Vec<(u32, u32)> = vec![(0, 23), (5, 12), (7, 7), (3, 22)];
        run_differential(&records, &pairs);
    }

    /// Zero-weight-heavy streams: equal keys everywhere, so paths and
    /// settle counts pin the heap's tie-breaking exactly.
    #[test]
    fn zero_weight_ties_match_legacy(records in record_stream(12, 1)) {
        let pairs: Vec<(u32, u32)> = vec![(0, 11), (4, 9), (1, 10)];
        run_differential(&records, &pairs);
    }

    /// Spill-range ids (beyond the direct-index table cap) must behave
    /// identically to dense ids.
    #[test]
    fn spill_range_ids_match_legacy(records in record_stream(16, 20)) {
        const SPILL_BASE: u32 = 1 << 23;
        let shifted: Vec<RawRecord> = records
            .iter()
            .map(|(id, p, b, e)| {
                (
                    id + SPILL_BASE,
                    *p,
                    *b,
                    e.iter().map(|&(t, w)| (t + SPILL_BASE, w)).collect(),
                )
            })
            .collect();
        let pairs: Vec<(u32, u32)> =
            vec![(SPILL_BASE, SPILL_BASE + 15), (SPILL_BASE + 3, SPILL_BASE + 9)];
        run_differential(&shifted, &pairs);
    }
}

/// Feeds a network's encoded payloads to (a) the oracle via
/// decode-then-ingest and (b) the new store via the fused
/// [`ReceivedGraph::ingest_payload`], then cross-checks state, charges
/// and searches.
fn run_payload_differential(g: &RoadNetwork, pairs: &[(u32, u32)]) {
    let nodes: Vec<NodeId> = g.node_ids().collect();
    let mut legacy = LegacyStore::default();
    let mut fused = ReceivedGraph::new();
    let mut stepwise = ReceivedGraph::new();
    for payload in encode_nodes(g, &nodes) {
        let mut legacy_charge = 0;
        let mut stepwise_charge = 0;
        for rec in decode_payload(&payload).expect("well-formed payload") {
            legacy_charge += legacy.ingest(rec.clone());
            stepwise_charge += stepwise.ingest(rec);
        }
        let fused_charge = fused.ingest_payload(&payload).expect("well-formed payload");
        assert_eq!(legacy_charge, fused_charge, "per-payload charge");
        assert_eq!(stepwise_charge, fused_charge, "fused == decode+ingest");
    }
    assert_state_matches(&legacy, &fused);
    assert_state_matches(&legacy, &stepwise);
    assert_searches_match(&legacy, &mut fused, pairs);
    assert_searches_match(&legacy, &mut stepwise, pairs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Grid-preset networks through the real encode → payload path.
    #[test]
    fn grid_preset_payload_streams_match_legacy(seed in 0u64..500) {
        let g = small_grid(9, 9, seed);
        let n = g.num_nodes() as u32;
        run_payload_differential(&g, &[(0, n - 1), (n / 3, n / 2)]);
    }

    /// Germany-class topology (the load harness's paper-scale class) at
    /// test-tractable size, same differential.
    #[test]
    fn germany_class_payload_streams_match_legacy(seed in 0u64..500) {
        let g = NetworkPreset::Germany.config_for_nodes(seed, 320).generate();
        let n = g.num_nodes() as u32;
        run_payload_differential(&g, &[(0, n - 1), (n / 4, 3 * n / 4)]);
    }
}

/// Rebuilds a full-coverage store from every encoded payload of `g`.
fn full_store(g: &RoadNetwork) -> ReceivedGraph {
    let nodes: Vec<NodeId> = g.node_ids().collect();
    let mut store = ReceivedGraph::new();
    for p in encode_nodes(g, &nodes) {
        store.ingest_payload(&p).expect("well-formed payload");
    }
    store
}

/// Snapshot of every observable edge in a store, for unchanged-state
/// assertions.
fn edge_snapshot(store: &ReceivedGraph) -> Vec<(NodeId, Vec<(NodeId, Weight)>)> {
    let mut ids: Vec<NodeId> = store.node_ids().collect();
    ids.sort_unstable();
    ids.into_iter()
        .map(|v| (v, store.out_edges(v).to_vec()))
        .collect()
}

/// One proptest-generated patch: distinct regions, each with a non-empty
/// delta list.
fn patch_groups() -> impl Strategy<Value = Vec<(u16, Vec<WeightDelta>)>> {
    let delta = (0u32..50, 0u32..50, 1u32..10_000).prop_map(|(from, to, weight)| WeightDelta {
        from,
        to,
        weight,
    });
    proptest::collection::vec((0u16..40, proptest::collection::vec(delta, 1..8)), 0..12).prop_map(
        |pairs| {
            // Last write per region wins: the builder expects distinct
            // region keys.
            let dedup: std::collections::BTreeMap<u16, Vec<WeightDelta>> =
                pairs.into_iter().collect();
            dedup.into_iter().collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Patch-packet codec round trip: every region group sent through
    /// `build_patch_cycle` decodes — directory packets in any order,
    /// then per-region data segments — to exactly the input deltas and
    /// version stamps.
    #[test]
    fn patch_cycle_round_trips(groups in patch_groups(), base in 0u32..1000) {
        let version = base + 1;
        let cycle = build_patch_cycle(version, base, &groups);
        let dir = cycle.find_segment(SegmentKind::PatchIndex).expect("directory");
        prop_assert_eq!(dir.len, dir_packet_count(groups.len()));
        let mut dec = PatchDecoder::new();
        for i in (0..dir.len).rev() {
            dec.ingest_directory_payload(cycle.packet(dir.start + i).payload())
                .expect("consistent directory");
        }
        prop_assert!(dec.is_complete());
        let h = dec.header().expect("complete directory has a header");
        prop_assert_eq!(
            (h.version, h.base_version, h.region_count as usize),
            (version, base, groups.len())
        );
        prop_assert_eq!(dec.regions().len(), groups.len());
        for (r, deltas) in &groups {
            let entry = dec.regions().get(r).expect("listed region");
            prop_assert_eq!(entry.entries as usize, deltas.len());
            let seg = cycle
                .find_segment(SegmentKind::PatchData(*r))
                .expect("data segment");
            let mut got = Vec::new();
            for p in 0..seg.len {
                got.extend(
                    decode_patch_payload(cycle.packet(seg.start + p).payload())
                        .expect("well-formed patch payload"),
                );
            }
            prop_assert_eq!(&got, deltas);
        }
    }
}

/// Per-version perturbation: for each edge index selected, the new
/// weight. Applied modulo the graph's edge count.
type RawChain = Vec<Vec<(usize, u32)>>;

fn version_chain() -> impl Strategy<Value = RawChain> {
    let step = proptest::collection::vec((0usize..4096, 1u32..5_000), 0..30);
    proptest::collection::vec(step, 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A full-coverage arena patched through an arbitrary chain of
    /// versions must equal a `ReceivedGraph` rebuilt from scratch off
    /// the final-version network — node set, points, borders, every
    /// adjacency list, and searches.
    #[test]
    fn patched_arena_equals_rebuilt_store(seed in 0u64..500, chain in version_chain(), offset in 0usize..64) {
        let g = small_grid(7, 7, seed);
        let mut patched = full_store(&g);
        // CSR-ordered edge list doubles as the weights model.
        let mut edges: Vec<(NodeId, NodeId, Weight)> = g
            .node_ids()
            .flat_map(|v| g.out_edges(v).map(move |(u, w)| (v, u, w)))
            .collect();
        for (step, touched) in chain.iter().enumerate() {
            let version = step as u32 + 1;
            let mut groups: std::collections::BTreeMap<u16, Vec<WeightDelta>> =
                std::collections::BTreeMap::new();
            let edge_count = edges.len();
            for &(idx, weight) in touched {
                let e = &mut edges[idx % edge_count];
                e.2 = weight;
                groups.entry((e.0 % 3) as u16).or_default().push(WeightDelta {
                    from: e.0,
                    to: e.1,
                    weight,
                });
            }
            let groups: Vec<(u16, Vec<WeightDelta>)> = groups.into_iter().collect();
            let cycle = build_patch_cycle(version, version - 1, &groups);
            let mut ch =
                BroadcastChannel::tune_in(&cycle, offset % cycle.len(), LossModel::Lossless);
            let rep = receive_patch(&mut ch, version - 1, &Coverage::Whole, &mut patched)
                .expect("lossless whole-coverage patch applies");
            prop_assert_eq!(rep.version, version);
            prop_assert_eq!(rep.skipped_not_held, 0);
        }
        // Rebuild from scratch off the final network.
        let final_net = {
            let mut offsets = vec![0u32];
            let mut targets = Vec::new();
            let mut weights = Vec::new();
            let mut it = edges.iter().peekable();
            for v in g.node_ids() {
                while let Some(&&(from, to, w)) = it.peek() {
                    if from != v {
                        break;
                    }
                    targets.push(to);
                    weights.push(w);
                    it.next();
                }
                offsets.push(targets.len() as u32);
            }
            RoadNetwork::from_csr(g.points().to_vec(), offsets, targets, weights)
        };
        let mut rebuilt = full_store(&final_net);
        prop_assert_eq!(edge_snapshot(&patched), edge_snapshot(&rebuilt));
        for v in g.node_ids() {
            prop_assert_eq!(patched.point(v), rebuilt.point(v));
            prop_assert_eq!(patched.is_border(v), rebuilt.is_border(v));
        }
        let n = g.num_nodes() as u32;
        for (s, t) in [(0, n - 1), (n / 3, n / 2)] {
            prop_assert_eq!(
                patched.shortest_path(s, t),
                rebuilt.shortest_path(s, t),
                "search {}->{}", s, t
            );
        }
    }

    /// Version monotonicity: a patch whose base version is not exactly
    /// the arena's version — behind it, ahead of it, or equal to its
    /// future target — must be refused with a typed `Stale` error and
    /// leave the arena byte-identical. A stale patch never silently
    /// applies.
    #[test]
    fn stale_patch_never_silently_applies(seed in 0u64..500, have in 0u32..50, base in 0u32..50) {
        prop_assume!(have != base);
        let g = small_grid(6, 6, seed);
        let mut store = full_store(&g);
        let before = edge_snapshot(&store);
        let (from, to, _) = {
            let v = g.node_ids().next().unwrap();
            let (u, w) = g.out_edges(v).next().unwrap();
            (v, u, w)
        };
        let cycle = build_patch_cycle(
            base + 1,
            base,
            &[(0, vec![WeightDelta { from, to, weight: 77_777 }])],
        );
        let mut ch = BroadcastChannel::tune_in(&cycle, 0, LossModel::Lossless);
        match receive_patch(&mut ch, have, &Coverage::Whole, &mut store) {
            Err(PatchError::Stale { have: h, base: b }) => {
                prop_assert_eq!((h, b), (have, base));
            }
            other => prop_assert!(false, "expected Stale, got {:?}", other),
        }
        prop_assert_eq!(edge_snapshot(&store), before, "arena untouched");
    }
}

#[test]
fn malformed_payload_is_all_or_nothing() {
    let g = small_grid(6, 6, 3);
    let nodes: Vec<NodeId> = g.node_ids().collect();
    let payloads = encode_nodes(&g, &nodes);
    let mut store = ReceivedGraph::new();
    let charged = store.ingest_payload(&payloads[0]).expect("well-formed");
    assert!(charged > 0);
    let before_nodes: Vec<NodeId> = {
        let mut ids: Vec<NodeId> = store.node_ids().collect();
        ids.sort_unstable();
        ids
    };
    let before_bytes = store.retained_bytes();
    // Truncating mid-record makes the payload malformed; like
    // decode_payload, the fused path must reject it without any partial
    // mutation or charge.
    let cut = payloads[1].clone();
    let truncated = &cut[..cut.len() - 3];
    assert_eq!(decode_payload(truncated), None, "oracle rejects");
    assert_eq!(store.ingest_payload(truncated), None, "fused rejects");
    let mut after_nodes: Vec<NodeId> = store.node_ids().collect();
    after_nodes.sort_unstable();
    assert_eq!(before_nodes, after_nodes, "no partial node ingest");
    assert_eq!(before_bytes, store.retained_bytes(), "no partial charge");
}

/// One payload of the validation-scan test: a real payload whole, cut
/// short or with one bit flipped, arbitrary bytes, or forged records
/// `(id, count, flags)` with counts up to 15, cut at a byte.
#[derive(Debug, Clone)]
enum Mangle {
    Whole,
    Cut(usize),
    Flip(usize),
    Arbitrary(Vec<u8>),
    Forged(Vec<(u32, u8, u8)>, usize),
}

impl Mangle {
    fn apply(&self, payload: &[u8]) -> Vec<u8> {
        let mut p = payload.to_vec();
        match self {
            Mangle::Whole => {}
            Mangle::Cut(at) => p.truncate(*at % (p.len() + 1)),
            Mangle::Flip(bit) => {
                let b = bit % (p.len() * 8);
                p[b / 8] ^= 1 << (b % 8);
            }
            Mangle::Arbitrary(bytes) => p.clone_from(bytes),
            Mangle::Forged(records, cut) => {
                p.clear();
                for &(id, count, flags) in records {
                    p.extend(id.to_le_bytes());
                    p.extend(1.5f32.to_le_bytes());
                    p.extend((id as f32).to_le_bytes());
                    p.extend([count, flags]);
                    for k in 0..count as u32 {
                        p.extend((id + k + 1).to_le_bytes());
                        p.extend(k.to_le_bytes());
                    }
                }
                p.truncate(*cut);
            }
        }
        p
    }
}

fn mangles() -> impl Strategy<Value = Vec<Mangle>> {
    let one = prop_oneof![
        Just(Mangle::Whole),
        (0usize..130).prop_map(Mangle::Cut),
        (0usize..1040).prop_map(Mangle::Flip),
        proptest::collection::vec(any::<u8>(), 0..130).prop_map(Mangle::Arbitrary),
        (
            proptest::collection::vec((0u32..200, 0u8..16, any::<u8>()), 0..4),
            0usize..400,
        )
            .prop_map(|(records, cut)| Mangle::Forged(records, cut)),
    ];
    proptest::collection::vec(one, 1..48)
}

/// Asserts two stores hold the same nodes, points, border flags, arcs
/// and retained bytes.
fn assert_stores_equal(want: &ReceivedGraph, got: &ReceivedGraph) {
    assert_eq!(want.num_nodes(), got.num_nodes(), "num_nodes");
    assert_eq!(want.retained_bytes(), got.retained_bytes(), "retained");
    let mut ids: Vec<NodeId> = want.node_ids().collect();
    ids.sort_unstable();
    let mut got_ids: Vec<NodeId> = got.node_ids().collect();
    got_ids.sort_unstable();
    assert_eq!(ids, got_ids, "node id set");
    for &v in &ids {
        // Bit-flipped coordinates can be NaN, so compare their bits.
        let bits = |p: Option<Point>| p.map(|p| (p.x.to_bits(), p.y.to_bits()));
        assert_eq!(bits(want.point(v)), bits(got.point(v)), "point of {v}");
        assert_eq!(want.is_border(v), got.is_border(v), "border of {v}");
        assert_eq!(want.out_edges(v), got.out_edges(v), "edges of {v}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fused path's one validation scan accepts exactly the payloads
    /// [`decode_payload`] accepts, whole, truncated, bit-flipped or
    /// arbitrary, and an accepted payload leaves the store, and charges
    /// it, as decoding it and ingesting each record would.
    #[test]
    fn validation_scan_matches_the_reference_decoder(seed in 0u64..500, mangles in mangles()) {
        let g = NetworkPreset::Germany.config_for_nodes(seed, 120).generate();
        let nodes: Vec<NodeId> = g.node_ids().collect();
        let payloads = encode_nodes(&g, &nodes);
        let mut fused = ReceivedGraph::new();
        let mut stepwise = ReceivedGraph::new();
        for (k, m) in mangles.iter().enumerate() {
            let p = m.apply(&payloads[(seed as usize + 7 * k) % payloads.len()]);
            let want = decode_payload(&p)
                .map(|recs| recs.into_iter().map(|r| stepwise.ingest(r)).sum::<usize>());
            let got = fused.ingest_payload(&p);
            prop_assert_eq!(want, got, "acceptance and charge of {:?}", m);
            assert_stores_equal(&stepwise, &fused);
        }
    }
}

/// A search result: `(distance, path)` if the target settled, and the
/// settle count.
type Searched = (Option<(Distance, Vec<NodeId>)>, usize);

/// ArcFlag's flag-pruned Dijkstra, as it ran inline in the ArcFlag
/// client.
fn af_loop(
    store: &ReceivedGraph,
    source: NodeId,
    target: NodeId,
    allowed: impl Fn(NodeId, NodeId) -> bool,
) -> Searched {
    let mut dist: HashMap<NodeId, Distance> = HashMap::new();
    let mut parent: HashMap<NodeId, NodeId> = HashMap::new();
    let mut heap = MinHeap::new();
    let mut settled = 0usize;
    dist.insert(source, 0);
    heap.push(0, source);
    while let Some(e) = heap.pop() {
        let v = e.item;
        if dist.get(&v) != Some(&e.key) {
            continue;
        }
        settled += 1;
        if v == target {
            let mut path = vec![v];
            let mut cur = v;
            while let Some(&p) = parent.get(&cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return (Some((e.key, path)), settled);
        }
        for &(u, w) in store.out_edges(v) {
            if !allowed(v, u) {
                continue;
            }
            let cand = e.key + w as Distance;
            if dist.get(&u).is_none_or(|&d| cand < d) {
                dist.insert(u, cand);
                parent.insert(u, v);
                heap.push(cand, u);
            }
        }
    }
    (None, settled)
}

/// Landmark's A* over the received store: lazy deletion keyed on
/// `g + h`, with node reopening.
fn astar_over_store(
    store: &ReceivedGraph,
    source: NodeId,
    target: NodeId,
    lb: impl Fn(NodeId, NodeId) -> Distance,
) -> Searched {
    let mut dist: HashMap<NodeId, Distance> = HashMap::new();
    let mut parent: HashMap<NodeId, NodeId> = HashMap::new();
    let mut heap = MinHeap::new();
    let mut settled = 0usize;
    dist.insert(source, 0);
    heap.push(lb(source, target), source);
    while let Some(e) = heap.pop() {
        let v = e.item;
        // Stale entry: a cheaper g-value for v was queued later.
        if e.key != dist[&v] + lb(v, target) {
            continue;
        }
        settled += 1;
        if v == target {
            let mut path = vec![v];
            let mut cur = v;
            while let Some(&p) = parent.get(&cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return (Some((dist[&v], path)), settled);
        }
        let dv = dist[&v];
        for &(u, w) in store.out_edges(v) {
            let cand = dv + w as Distance;
            if dist.get(&u).is_none_or(|&d| cand < d) {
                dist.insert(u, cand);
                parent.insert(u, v);
                heap.push(cand + lb(u, target), u);
            }
        }
    }
    (None, settled)
}

/// The former `ReceivedGraph::shortest_path_checked`, over maps: a node
/// the store holds no record of is an unmaterialized slot.
fn checked_loop(
    store: &ReceivedGraph,
    source: NodeId,
    target: NodeId,
) -> (Option<(Distance, Vec<NodeId>)>, usize, bool) {
    let mut dist: HashMap<NodeId, Distance> = HashMap::new();
    let mut parent: HashMap<NodeId, NodeId> = HashMap::new();
    let mut heap = MinHeap::new();
    let mut settled = 0usize;
    let mut min_unmat: Option<u64> = None;
    dist.insert(source, 0);
    heap.push(0, source);
    while let Some(e) = heap.pop() {
        let (key, v) = (e.key, e.item);
        if dist.get(&v) != Some(&key) {
            continue;
        }
        settled += 1;
        if v == target {
            let mut path = vec![v];
            let mut cur = v;
            while let Some(&p) = parent.get(&cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            let certified = min_unmat.is_none_or(|m| m >= key);
            return (Some((key, path)), settled, certified);
        }
        if !store.contains(v) && min_unmat.is_none() {
            min_unmat = Some(key);
        }
        for &(u, w) in store.out_edges(v) {
            let cand = key + w as u64;
            if dist.get(&u).is_none_or(|&d| cand < d) {
                dist.insert(u, cand);
                parent.insert(u, v);
                heap.push(cand, u);
            }
        }
    }
    (None, settled, min_unmat.is_none())
}

/// `spair_roadnet`'s closed-set A* (each node settles once), as the
/// A*-on-air client ran it on a dense rebuild of its store.
fn closed_set_astar(
    g: &RoadNetwork,
    source: NodeId,
    target: NodeId,
    lb: impl Fn(NodeId) -> Distance,
) -> Searched {
    let n = g.num_nodes();
    let mut dist = vec![DIST_INF; n];
    let mut parent = vec![NodeId::MAX; n];
    let mut settled = vec![false; n];
    let mut heap = MinHeap::with_capacity(64);
    let mut count = 0usize;
    dist[source as usize] = 0;
    heap.push(lb(source), source);
    while let Some(e) = heap.pop() {
        let v = e.item;
        if settled[v as usize] {
            continue;
        }
        settled[v as usize] = true;
        count += 1;
        if v == target {
            let mut path = vec![v];
            let mut cur = v;
            while parent[cur as usize] != NodeId::MAX {
                cur = parent[cur as usize];
                path.push(cur);
            }
            path.reverse();
            return (Some((dist[v as usize], path)), count);
        }
        let dv = dist[v as usize];
        for (u, w) in g.out_edges(v) {
            let cand = dv + w as Distance;
            if cand < dist[u as usize] {
                dist[u as usize] = cand;
                parent[u as usize] = v;
                heap.push(cand + lb(u), u);
            }
        }
    }
    (None, count)
}

/// The A*-on-air client's former dense rebuild: received nodes in
/// ascending id order, edges to nodes never received dropped.
fn dense_rebuild(store: &ReceivedGraph) -> (RoadNetwork, Vec<NodeId>) {
    let mut to_orig: Vec<NodeId> = store.node_ids().collect();
    to_orig.sort_unstable();
    let mut points = Vec::new();
    let mut offsets = vec![0u32];
    let mut targets = Vec::new();
    let mut weights = Vec::new();
    for &v in &to_orig {
        points.push(store.point(v).expect("listed node"));
        for &(u, w) in store.out_edges(v) {
            if let Ok(du) = to_orig.binary_search(&u) {
                targets.push(du as NodeId);
                weights.push(w);
            }
        }
        offsets.push(targets.len() as u32);
    }
    (
        RoadNetwork::from_csr(points, offsets, targets, weights),
        to_orig,
    )
}

/// The A*-on-air bound `max(ceil(c · |p, target|) - 1, 0)`, with `c` the
/// smallest weight-to-length ratio over edges between received nodes
/// (shrunk against round-off): consistent, so A* settles each node once.
fn measured_bound(store: &ReceivedGraph, target: Point) -> impl Fn(Point) -> Distance {
    let mut c = f64::INFINITY;
    for v in store.node_ids() {
        let pv = store.point(v).expect("listed node");
        for &(u, w) in store.out_edges(v) {
            if let Some(pu) = store.point(u) {
                let d = pv.euclidean(&pu);
                if d > 1e-12 {
                    c = c.min(w as f64 / d);
                }
            }
        }
    }
    let c = if c.is_finite() {
        (c * (1.0 - 1e-6)).max(0.0)
    } else {
        0.0
    };
    move |p: Point| ((c * p.euclidean(&target)).ceil() as Distance).saturating_sub(1)
}

fn store_of(records: &[RawRecord]) -> ReceivedGraph {
    let mut store = ReceivedGraph::new();
    for raw in records {
        store.ingest(to_record(raw));
    }
    store
}

/// The store's search with no bound and no filter.
fn plain(
    store: &mut ReceivedGraph,
    source: NodeId,
    target: NodeId,
) -> (Option<(Distance, Vec<NodeId>)>, usize, bool) {
    store.search(
        source,
        Some(target),
        |_, _| 0,
        |_, _| true,
        |_, _, _| ControlFlow::Continue(()),
    )
}

/// A pseudo-random arc filter, as ArcFlag's flags are to the search.
fn flag(seed: u64, u: NodeId, v: NodeId) -> bool {
    !spair_broadcast::splitmix64(seed ^ ((u as u64) << 32 | v as u64)).is_multiple_of(4)
}

/// An admissible bound that is mostly not consistent: a random share of
/// each node's true distance to `target` (distances from the plain
/// search), or a random value where `target` is out of reach.
fn shaky_bound(store: &mut ReceivedGraph, target: NodeId, seed: u64) -> HashMap<NodeId, Distance> {
    let mut ids: Vec<NodeId> = store.node_ids().collect();
    ids.extend(
        store
            .node_ids()
            .flat_map(|v| store.out_edges(v).iter().map(|e| e.0))
            .collect::<Vec<_>>(),
    );
    let mut h = HashMap::new();
    for v in ids {
        let r = spair_broadcast::splitmix64(seed ^ v as u64);
        let bound = match plain(store, v, target).0 {
            Some((d, _)) => d * (r % 5) / 4,
            None => r % 100,
        };
        h.insert(v, bound);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With an arc filter, the search is ArcFlag's former loop: same
    /// distance, path and settle count. Random record streams carry
    /// edges to slots that never materialize.
    #[test]
    fn filtered_search_matches_arcflag_loop(records in record_stream(24, 50), seed in any::<u64>()) {
        let mut store = store_of(&records);
        for (s, t) in [(0, 23), (5, 12), (7, 7), (3, 22), (30, 1)] {
            let want = af_loop(&store, s, t, |u, v| flag(seed, u, v));
            let (res, settled, _) = store.search(
                s,
                Some(t),
                |_, _| 0,
                |u, v| flag(seed, u, v),
                |_, _, _| ControlFlow::Continue(()),
            );
            prop_assert_eq!((res, settled), want, "search {}->{}", s, t);
        }
    }

    /// Zero-weight ties pin the heap's tie-breaking: the unfiltered and
    /// filtered searches still match their former loops pop for pop.
    #[test]
    fn zero_weight_searches_match_former_loops(records in record_stream(12, 1), seed in any::<u64>()) {
        let mut store = store_of(&records);
        for (s, t) in [(0, 11), (4, 9), (1, 10)] {
            prop_assert_eq!(plain(&mut store, s, t), checked_loop(&store, s, t));
            let want = af_loop(&store, s, t, |u, v| flag(seed, u, v));
            let (res, settled, _) = store.search(
                s,
                Some(t),
                |_, _| 0,
                |u, v| flag(seed, u, v),
                |_, _, _| ControlFlow::Continue(()),
            );
            prop_assert_eq!((res, settled), want);
        }
    }

    /// The patched-arena check: distance, path, settle count and
    /// certification bit equal the former checked search's, on stores
    /// with edges into slots that never materialized and from sources
    /// the store never saw.
    #[test]
    fn checked_search_matches_former_checked_loop(records in record_stream(24, 20)) {
        let mut store = store_of(&records);
        for (s, t) in [(0, 23), (5, 12), (7, 7), (3, 22), (40, 3), (2, 40)] {
            let want = checked_loop(&store, s, t);
            prop_assert_eq!(store.shortest_path_checked(s, t, Default::default()), want.clone());
            prop_assert_eq!(store.shortest_path(s, t), (want.0, want.1));
        }
    }

    /// Under an admissible but inconsistent bound, nodes reopen: the
    /// search matches Landmark's former A* pop for pop, settle count
    /// (reopenings included) and all, and stays exact.
    #[test]
    fn reopening_search_matches_landmark_loop(records in record_stream(16, 20), seed in any::<u64>()) {
        let mut store = store_of(&records);
        for (s, t) in [(0, 15), (3, 12), (9, 2)] {
            let h = shaky_bound(&mut store, t, seed);
            let lb = |v: NodeId, _t: NodeId| h.get(&v).copied().unwrap_or(0);
            let want = astar_over_store(&store, s, t, lb);
            let (res, settled, _) = store.search(
                s,
                Some(t),
                |v, _| lb(v, t),
                |_, _| true,
                |_, _, _| ControlFlow::Continue(()),
            );
            prop_assert_eq!(
                res.as_ref().map(|r| r.0),
                plain(&mut store, s, t).0.map(|r| r.0),
                "exact under the inconsistent bound"
            );
            prop_assert_eq!((res, settled), want, "search {}->{}", s, t);
        }
    }

    /// Under the consistent measured bound, the search equals the
    /// closed-set A* the A*-on-air client ran on its dense rebuild: same
    /// distance, path (mapped back to broadcast ids) and settle count.
    /// Edges to nodes never received are filtered out, as the rebuild
    /// dropped them.
    #[test]
    fn consistent_search_matches_closed_set_astar(records in record_stream(24, 50)) {
        let mut store = store_of(&records);
        let held: std::collections::HashSet<NodeId> = store.node_ids().collect();
        let (g, to_orig) = dense_rebuild(&store);
        for (s, t) in [(0, 23), (5, 12), (3, 22), (17, 4)] {
            let (Ok(ds), Ok(dt)) = (to_orig.binary_search(&s), to_orig.binary_search(&t)) else {
                continue;
            };
            let bound = measured_bound(&store, store.point(t).unwrap());
            let (res, settled) = closed_set_astar(&g, ds as NodeId, dt as NodeId, |v| bound(g.point(v)));
            let want = (
                res.map(|(d, p)| (d, p.iter().map(|&v| to_orig[v as usize]).collect::<Vec<_>>())),
                settled,
            );
            let (res, settled, _) = store.search(
                s,
                Some(t),
                |_, p| p.map_or(0, &bound),
                |_, u| held.contains(&u),
                |_, _, _| ControlFlow::Continue(()),
            );
            prop_assert_eq!((res, settled), want, "search {}->{}", s, t);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The consistent-bound equality on the encoded payloads of grid
    /// networks, whose geometry makes the measured bound prune.
    #[test]
    fn consistent_search_matches_closed_set_astar_on_grids(seed in 0u64..500) {
        let g0 = small_grid(9, 9, seed);
        let mut store = full_store(&g0);
        let (g, to_orig) = dense_rebuild(&store);
        let n = g0.num_nodes() as u32;
        for (s, t) in [(0, n - 1), (n / 3, n / 2), (n - 1, 4)] {
            let bound = measured_bound(&store, store.point(t).unwrap());
            let (ds, dt) = (
                to_orig.binary_search(&s).unwrap() as NodeId,
                to_orig.binary_search(&t).unwrap() as NodeId,
            );
            let (res, settled) = closed_set_astar(&g, ds, dt, |v| bound(g.point(v)));
            let want = (
                res.map(|(d, p)| (d, p.iter().map(|&v| to_orig[v as usize]).collect::<Vec<_>>())),
                settled,
            );
            let (res, settled, _) = store.search(
                s,
                Some(t),
                |_, p| p.map_or(0, &bound),
                |_, _| true,
                |_, _, _| ControlFlow::Continue(()),
            );
            prop_assert_eq!(&(res, settled), &want, "search {}->{}", s, t);
            prop_assert!(want.1 <= plain(&mut store, s, t).1, "the bound prunes");
        }
    }
}

/// A node that settles before its shortest path is known must settle
/// again: s→a→b→t is 7, but the bound at `a` (5) sends the search to `b`
/// through s→b (3) first. A closed set would keep b's 3 and answer 8.
#[test]
fn inconsistent_bound_reopens_a_settled_node() {
    let edges = |id: NodeId, edges: Vec<(NodeId, Weight)>| NodeRecord {
        id,
        point: Point::new(0.0, 0.0),
        more: false,
        border: false,
        edges,
    };
    let mut store = ReceivedGraph::new();
    store.ingest(edges(0, vec![(1, 1), (2, 3)]));
    store.ingest(edges(1, vec![(2, 1)]));
    store.ingest(edges(2, vec![(3, 5)]));
    store.ingest(edges(3, vec![]));
    let lb = |v: NodeId, _t: NodeId| if v == 1 { 5 } else { 0 };
    let want = astar_over_store(&store, 0, 3, lb);
    assert_eq!(want, (Some((7, vec![0, 1, 2, 3])), 5), "b settles twice");
    let (res, settled, _) = store.search(
        0,
        Some(3),
        |v, _| lb(v, 3),
        |_, _| true,
        |_, _, _| ControlFlow::Continue(()),
    );
    assert_eq!((res, settled), want);
    let (g, _) = dense_rebuild(&store);
    assert_eq!(
        closed_set_astar(&g, 0, 3, |v| lb(v, 3)).0.map(|r| r.0),
        Some(8),
        "the closed set answers wrong here"
    );
}
