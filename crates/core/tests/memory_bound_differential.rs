//! Differential certification of the flattened slot-arena
//! [`MemoryBoundProcessor`] against the original HashMap-per-node
//! contractor, reimplemented here verbatim as the test oracle.
//!
//! The rewrite claims: identical distances for every query (the
//! super-edge *set* is unchanged; only the emission order
//! became deterministic), identical memory charges at every step (the
//! §6.1 saving is the observable being measured, so the accounting must
//! not drift), and valid full-node expansion paths in `keep_paths` mode.
//! Checked on kd-partitioned grid worlds, on zero-weight-tie lattices,
//! and on spill-range node ids beyond the direct-index table cap.

use proptest::prelude::*;
use spair_broadcast::{CpuMeter, MemoryMeter};
use spair_core::netcodec::{decode_payload, encode_nodes_with_borders, NodeRecord, ReceivedGraph};
use spair_core::precompute::BorderPrecomputation;
use spair_core::query::decoded_node_bytes;
use spair_core::MemoryBoundProcessor;
use spair_partition::{KdTreePartition, Partitioning};
use spair_roadnet::generators::small_grid;
use spair_roadnet::{Distance, MinHeap, NodeId, Point, RoadNetwork, Weight};
use std::collections::{HashMap, HashSet};

// ---------------------------------------------------------------------
// The pre-arena contractor, copied from the original implementation:
// HashMap adjacency for G', HashSet region membership, map-backed
// Dijkstras. This is the behavioral oracle.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum GEdge {
    Raw(Weight),
    Super(Distance, usize),
}

#[derive(Debug, Default)]
struct LegacyProcessor {
    gprime: HashMap<NodeId, Vec<(NodeId, GEdge)>>,
    paths: Vec<Vec<NodeId>>,
    keep_paths: bool,
    mem: MemoryMeter,
    cpu: CpuMeter,
}

impl LegacyProcessor {
    fn with_paths() -> Self {
        Self {
            keep_paths: true,
            ..Self::default()
        }
    }

    fn add_region(&mut self, store: &ReceivedGraph, region_nodes: &[NodeId], terminals: &[NodeId]) {
        let raw_bytes: usize = region_nodes
            .iter()
            .map(|&v| decoded_node_bytes(store.out_edges(v).len()))
            .sum();
        self.mem.alloc(raw_bytes);

        let inside: HashSet<NodeId> = region_nodes.iter().copied().collect();
        let mut anchors: Vec<NodeId> = region_nodes
            .iter()
            .copied()
            .filter(|&v| store.is_border(v).unwrap_or(false))
            .collect();
        for &t in terminals {
            if inside.contains(&t) && !anchors.contains(&t) {
                anchors.push(t);
            }
        }

        let anchor_set: HashSet<NodeId> = anchors.iter().copied().collect();
        let mut new_edges: Vec<(NodeId, NodeId, GEdge)> = Vec::new();
        let mut path_bytes = 0usize;
        let keep_paths = self.keep_paths;
        self.cpu.time(|| {
            for &a in &anchors {
                path_bytes += legacy_contract_from(
                    store,
                    a,
                    &inside,
                    &anchor_set,
                    keep_paths,
                    &mut self.paths,
                    &mut new_edges,
                );
            }
            for &v in &anchors {
                for &(u, w) in store.out_edges(v) {
                    if !inside.contains(&u) {
                        new_edges.push((v, u, GEdge::Raw(w)));
                    }
                }
            }
        });
        self.mem.alloc(path_bytes + new_edges.len() * 16);
        for (from, to, e) in new_edges {
            self.gprime.entry(from).or_default().push((to, e));
        }
        self.mem.free(raw_bytes);
    }

    fn shortest_path(&mut self, source: NodeId, target: NodeId) -> Option<(Distance, Vec<NodeId>)> {
        let (dist, parent) = self.gprime_search(source, target);
        let d = *dist.get(&target)?;
        let mut path = vec![target];
        let mut cur = target;
        while cur != source {
            let &(p, pidx) = parent.get(&cur)?;
            match pidx {
                None | Some(usize::MAX) => path.push(p),
                Some(i) => {
                    let sp = &self.paths[i];
                    for &node in sp.iter().rev().skip(1) {
                        path.push(node);
                    }
                }
            }
            cur = p;
        }
        path.reverse();
        Some((d, path))
    }

    #[allow(clippy::type_complexity)]
    fn gprime_search(
        &mut self,
        source: NodeId,
        target: NodeId,
    ) -> (
        HashMap<NodeId, Distance>,
        HashMap<NodeId, (NodeId, Option<usize>)>,
    ) {
        let gprime = std::mem::take(&mut self.gprime);
        let result = self.cpu.time(|| {
            let mut dist: HashMap<NodeId, Distance> = HashMap::new();
            let mut parent: HashMap<NodeId, (NodeId, Option<usize>)> = HashMap::new();
            let mut heap = MinHeap::new();
            dist.insert(source, 0);
            heap.push(0, source);
            while let Some(e) = heap.pop() {
                let (key, v) = (e.key, e.item);
                if dist.get(&v) != Some(&key) {
                    continue;
                }
                if v == target {
                    break;
                }
                for (u, edge) in gprime.get(&v).map(Vec::as_slice).unwrap_or(&[]) {
                    let (cost, pidx) = match edge {
                        GEdge::Raw(w) => (*w as Distance, None),
                        GEdge::Super(d, i) => (*d, Some(*i)),
                    };
                    let cand = key + cost;
                    if dist.get(u).is_none_or(|&d| cand < d) {
                        dist.insert(*u, cand);
                        parent.insert(*u, (v, pidx));
                        heap.push(cand, *u);
                    }
                }
            }
            (dist, parent)
        });
        self.gprime = gprime;
        result
    }
}

fn legacy_contract_from(
    store: &ReceivedGraph,
    a: NodeId,
    inside: &HashSet<NodeId>,
    anchors: &HashSet<NodeId>,
    keep_paths: bool,
    paths: &mut Vec<Vec<NodeId>>,
    out: &mut Vec<(NodeId, NodeId, GEdge)>,
) -> usize {
    let mut dist: HashMap<NodeId, Distance> = HashMap::new();
    let mut parent: HashMap<NodeId, NodeId> = HashMap::new();
    let mut heap = MinHeap::new();
    dist.insert(a, 0);
    heap.push(0, a);
    while let Some(e) = heap.pop() {
        let v = e.item;
        if dist.get(&v) != Some(&e.key) {
            continue;
        }
        for &(u, w) in store.out_edges(v) {
            if !inside.contains(&u) {
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
    let mut bytes = 0usize;
    for (&b, &d) in &dist {
        if b == a || !anchors.contains(&b) {
            continue;
        }
        let idx = if keep_paths {
            let mut path = vec![b];
            let mut cur = b;
            while let Some(&p) = parent.get(&cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            bytes += 4 * path.len();
            paths.push(path);
            paths.len() - 1
        } else {
            usize::MAX
        };
        out.push((a, b, GEdge::Super(d, idx)));
    }
    bytes
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

/// Builds a ReceivedGraph holding the whole network with true border
/// flags, plus the per-region node lists, with every node id shifted by
/// `id_shift` (0 = dense ids; `1 << 23` exercises the spill map).
fn received_world(
    g: &RoadNetwork,
    regions: usize,
    id_shift: u32,
) -> (ReceivedGraph, Vec<Vec<NodeId>>) {
    let part = KdTreePartition::build(g, regions);
    let pre = BorderPrecomputation::run(g, &part);
    let mut store = ReceivedGraph::new();
    let mut region_nodes = Vec::new();
    for r in 0..regions {
        let nodes = &part.nodes_by_region()[r];
        for payload in encode_nodes_with_borders(g, nodes, |v| pre.borders().is_border(v)) {
            for rec in decode_payload(&payload).unwrap() {
                store.ingest(NodeRecord {
                    id: rec.id + id_shift,
                    edges: rec.edges.iter().map(|&(u, w)| (u + id_shift, w)).collect(),
                    ..rec
                });
            }
        }
        region_nodes.push(nodes.iter().map(|&v| v + id_shift).collect::<Vec<NodeId>>());
    }
    (store, region_nodes)
}

/// Asserts `path` is a real walk from `s` to `t` in `store` whose
/// minimum-weight hop sum equals `d` — which pins it as a shortest path
/// (the min-weight sum can never be below the true distance, nor above
/// the cost of the walk itself).
fn assert_valid_shortest_walk(
    store: &ReceivedGraph,
    s: NodeId,
    t: NodeId,
    d: Distance,
    path: &[NodeId],
) {
    assert_eq!(path.first(), Some(&s));
    assert_eq!(path.last(), Some(&t));
    let mut total: Distance = 0;
    for hop in path.windows(2) {
        let w = store
            .out_edges(hop[0])
            .iter()
            .filter(|&&(u, _)| u == hop[1])
            .map(|&(_, w)| w)
            .min()
            .unwrap_or_else(|| panic!("missing edge {} -> {}", hop[0], hop[1]));
        total += w as Distance;
    }
    assert_eq!(total, d, "walk cost");
}

/// Feeds the same region stream to the oracle and the flat processor,
/// checking memory charges after every region and distances (plus
/// expansion-path validity in `keep_paths` mode) for the `(s, t)` query.
fn run_differential(store: &ReceivedGraph, region_nodes: &[Vec<NodeId>], s: NodeId, t: NodeId) {
    for keep_paths in [false, true] {
        let mut legacy = if keep_paths {
            LegacyProcessor::with_paths()
        } else {
            LegacyProcessor::default()
        };
        let mut flat = if keep_paths {
            MemoryBoundProcessor::with_paths()
        } else {
            MemoryBoundProcessor::new()
        };
        for nodes in region_nodes {
            legacy.add_region(store, nodes, &[s, t]);
            flat.add_region(store, nodes, &[s, t]);
            assert_eq!(
                legacy.mem.current(),
                flat.mem.current(),
                "retained bytes after a region (keep_paths={keep_paths})"
            );
            assert_eq!(
                legacy.mem.peak(),
                flat.mem.peak(),
                "peak bytes after a region (keep_paths={keep_paths})"
            );
        }
        let want = legacy.shortest_path(s, t);
        let got = flat.shortest_path(s, t);
        assert_eq!(
            want.as_ref().map(|(d, _)| *d),
            got.as_ref().map(|(d, _)| *d),
            "distance {s}->{t} (keep_paths={keep_paths})"
        );
        if keep_paths {
            // Hash-ordered legacy emission and ascending flat emission
            // may pick different — equally short — expansions under
            // ties, so pin each path to validity, not to the other.
            if let Some((d, path)) = &want {
                assert_valid_shortest_walk(store, s, t, *d, path);
            }
            if let Some((d, path)) = &got {
                assert_valid_shortest_walk(store, s, t, *d, path);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Kd-partitioned grid worlds, dense ids.
    #[test]
    fn kd_region_worlds_match_legacy(seed in 0u64..500, regions_log2 in 1u32..4) {
        let g = small_grid(7, 7, seed);
        let (store, region_nodes) = received_world(&g, 1 << regions_log2, 0);
        let n = g.num_nodes() as u32;
        run_differential(&store, &region_nodes, 0, n - 1);
        run_differential(&store, &region_nodes, n / 3, n / 2);
    }

    /// Same worlds with every id shifted beyond the direct-index table
    /// cap: the spill map must behave identically to dense ids.
    #[test]
    fn spill_range_ids_match_legacy(seed in 0u64..200) {
        const SPILL_BASE: u32 = 1 << 23;
        let g = small_grid(6, 6, seed);
        let (store, region_nodes) = received_world(&g, 4, SPILL_BASE);
        let n = g.num_nodes() as u32;
        run_differential(&store, &region_nodes, SPILL_BASE, SPILL_BASE + n - 1);
    }
}

/// A lattice where most edges weigh zero: the G' search and every
/// region-restricted contraction are tie-saturated.
#[test]
fn zero_weight_ties_match_legacy() {
    let k = 8usize;
    let mut points = Vec::with_capacity(k * k);
    for y in 0..k {
        for x in 0..k {
            points.push(Point::new(x as f64, y as f64));
        }
    }
    let mut offsets = vec![0u32];
    let mut targets = Vec::new();
    let mut weights = Vec::new();
    for y in 0..k {
        for x in 0..k {
            let v = (y * k + x) as NodeId;
            let mut push = |u: NodeId| {
                targets.push(u);
                weights.push(if (v as usize + targets.len()).is_multiple_of(3) {
                    1
                } else {
                    0
                });
            };
            if x + 1 < k {
                push(v + 1);
            }
            if x > 0 {
                push(v - 1);
            }
            if y + 1 < k {
                push(v + k as NodeId);
            }
            if y > 0 {
                push(v - k as NodeId);
            }
            offsets.push(targets.len() as u32);
        }
    }
    let g = RoadNetwork::from_csr(points, offsets, targets, weights);
    let (store, region_nodes) = received_world(&g, 4, 0);
    let n = g.num_nodes() as u32;
    run_differential(&store, &region_nodes, 0, n - 1);
    run_differential(&store, &region_nodes, 9, 54);
}
