//! Memory-bound processing (paper §6.1).
//!
//! A device with very limited heap can avoid keeping every received region
//! in memory: as soon as a region `R` is fully received, the client runs
//! Dijkstra *within* `R` from each of its border nodes (plus `v_s`/`v_t`
//! for the terminal regions) and keeps only the resulting **super-edges**
//! — border-to-border shortest paths with their costs — discarding the raw
//! adjacency data. The final search runs over the graph `G'` of
//! super-edges and border edges; super-edges on the answer path are then
//! replaced by the paths they abbreviate.
//!
//! The contraction preserves distances: any true shortest path decomposes
//! into maximal intra-region segments between anchors, and each segment is
//! replaced by a super-edge of exactly its region-restricted shortest
//! length, while every super-edge expands back to a real path. The paper
//! reports ~35% lower peak memory at the cost of extra client CPU
//! (Figure 13); the trade-off is reproduced by the `fig13` experiment.
//!
//! **Path storage.** The paper does not account for where the expansion
//! paths of super-edges live; storing every border-pair path can dwarf the
//! raw region data when the border/node ratio is high. The processor
//! therefore has two modes: the default stores super-edge *costs* only
//! (matching the paper's reported memory saving; the answer path is
//! anchor-level, with super-edges left contracted), and `keep_paths`
//! additionally retains the expansions so the returned path is the full
//! node sequence. The saving materializes when regions are large relative
//! to their border count — exactly the road-network regime (a few percent
//! of a kd region's nodes are border nodes at paper scale).
//!
//! Internally `G'` is a flat slot arena rather than a per-node map, the
//! same layout [`crate::netcodec::ReceivedGraph`] uses: every broadcast id
//! seen gets a dense `u32` slot (direct-index table below
//! [`DIRECT_ID_CAP`], spill map above), per-slot adjacency is an intrusive
//! list inside one shared edge arena, and both Dijkstras (the per-region
//! contraction and the final `G'` search) run over stamp-versioned dense
//! scratch arrays that regions reuse without reallocating. Distances and
//! memory charges are identical to the former map-based processor; unlike
//! it, super-edge emission order is deterministic (ascending reached id)
//! rather than hash-iteration order.

use crate::netcodec::ReceivedGraph;
use crate::query::decoded_node_bytes;
use spair_broadcast::{CpuMeter, MemoryMeter};
use spair_roadnet::{Distance, MinHeap, NodeId, Weight};
use std::collections::HashMap;

/// One edge of the contracted graph `G'`.
#[derive(Debug, Clone, Copy)]
enum GEdge {
    /// A raw network edge retained as-is (border/cross edges).
    Raw(Weight),
    /// A super-edge abbreviating an intra-region path (index into the
    /// stored path table).
    Super(Distance, usize),
}

/// Sentinel for "no slot" / "no parent" / "end of adjacency list".
const NO_SLOT: u32 = u32::MAX;

/// Largest broadcast id served by the direct-index slot table; ids beyond
/// it go to the spill map so a hostile id space cannot balloon the table.
const DIRECT_ID_CAP: usize = 1 << 22;

/// Incremental §6.1 contractor.
#[derive(Debug, Default)]
pub struct MemoryBoundProcessor {
    /// Broadcast id -> slot for ids below [`DIRECT_ID_CAP`] (`NO_SLOT` =
    /// unseen), grown on demand.
    slot_table: Vec<u32>,
    /// Slots of outlandish ids (≥ [`DIRECT_ID_CAP`]).
    slot_spill: HashMap<NodeId, u32>,
    /// Broadcast id per slot.
    ids: Vec<NodeId>,
    /// Head of each slot's adjacency list in the edge arena.
    adj_head: Vec<u32>,
    /// Tail of each slot's adjacency list (appends preserve edge order).
    adj_tail: Vec<u32>,
    /// Edge arena: target slot + payload; `edge_next` links same-source
    /// edges in insertion order.
    edge_to: Vec<u32>,
    edge_payload: Vec<GEdge>,
    edge_next: Vec<u32>,
    /// Stamped scratch shared by the contraction and `G'` Dijkstras.
    dist: Vec<Distance>,
    parent: Vec<u32>,
    stamp: Vec<u64>,
    search: u64,
    /// Region-membership / anchor stamps for the current `add_region`.
    member: Vec<u64>,
    anchor: Vec<u64>,
    region_epoch: u64,
    /// Slots touched by the current search, in first-touch order.
    touched: Vec<u32>,
    paths: Vec<Vec<NodeId>>,
    keep_paths: bool,
    /// Peak/current memory of the retained state (G' plus the region
    /// currently being contracted).
    pub mem: MemoryMeter,
    /// CPU spent contracting (the paper notes it must outpace reception).
    pub cpu: CpuMeter,
}

impl MemoryBoundProcessor {
    /// Costs-only processor (the paper's memory model).
    pub fn new() -> Self {
        Self::default()
    }

    /// Processor that also retains expansion paths, so answers carry the
    /// full node sequence.
    pub fn with_paths() -> Self {
        Self {
            keep_paths: true,
            ..Self::default()
        }
    }

    /// Slot of `v`, if seen.
    #[inline]
    fn slot_lookup(&self, v: NodeId) -> Option<u32> {
        if (v as usize) < self.slot_table.len() {
            let s = self.slot_table[v as usize];
            if s != NO_SLOT {
                Some(s)
            } else {
                None
            }
        } else if (v as usize) < DIRECT_ID_CAP {
            None
        } else {
            self.slot_spill.get(&v).copied()
        }
    }

    /// Slot of `v`, creating one if unseen. New slots get empty adjacency
    /// and already-expired scratch stamps.
    fn ensure_slot(&mut self, v: NodeId) -> u32 {
        if let Some(s) = self.slot_lookup(v) {
            return s;
        }
        let s = self.ids.len() as u32;
        if (v as usize) < DIRECT_ID_CAP {
            if (v as usize) >= self.slot_table.len() {
                let new_len = ((v as usize + 1).next_power_of_two()).min(DIRECT_ID_CAP);
                self.slot_table.resize(new_len, NO_SLOT);
            }
            self.slot_table[v as usize] = s;
        } else {
            self.slot_spill.insert(v, s);
        }
        self.ids.push(v);
        self.adj_head.push(NO_SLOT);
        self.adj_tail.push(NO_SLOT);
        self.dist.push(0);
        self.parent.push(NO_SLOT);
        self.stamp.push(0);
        self.member.push(0);
        self.anchor.push(0);
        s
    }

    /// Appends one `G'` edge `from -> to` at the end of `from`'s list.
    fn push_edge(&mut self, from: u32, to: u32, e: GEdge) {
        let idx = self.edge_to.len() as u32;
        self.edge_to.push(to);
        self.edge_payload.push(e);
        self.edge_next.push(NO_SLOT);
        let f = from as usize;
        if self.adj_head[f] == NO_SLOT {
            self.adj_head[f] = idx;
        } else {
            self.edge_next[self.adj_tail[f] as usize] = idx;
        }
        self.adj_tail[f] = idx;
    }

    /// Contracts one fully received region.
    ///
    /// `region_nodes` are the node ids of the region with their adjacency
    /// in `store`; `terminals` lists query endpoints inside this region
    /// (empty for non-terminal regions). The region's raw data is charged
    /// to the meter while the contraction runs and released afterwards —
    /// that is precisely the §6.1 saving.
    pub fn add_region(
        &mut self,
        store: &ReceivedGraph,
        region_nodes: &[NodeId],
        terminals: &[NodeId],
    ) {
        // Charge the raw region (it had to be held during reception).
        let raw_bytes: usize = region_nodes
            .iter()
            .map(|&v| decoded_node_bytes(store.out_edges(v).len()))
            .sum();
        self.mem.alloc(raw_bytes);

        self.region_epoch += 1;
        let epoch = self.region_epoch;
        let mut anchors: Vec<u32> = Vec::new();
        for &v in region_nodes {
            let s = self.ensure_slot(v);
            self.member[s as usize] = epoch;
            if store.is_border(v).unwrap_or(false) {
                self.anchor[s as usize] = epoch;
                anchors.push(s);
            }
        }
        for &t in terminals {
            if let Some(s) = self.slot_lookup(t) {
                let si = s as usize;
                if self.member[si] == epoch && self.anchor[si] != epoch {
                    self.anchor[si] = epoch;
                    anchors.push(s);
                }
            }
        }

        let mut new_edges: Vec<(u32, u32, GEdge)> = Vec::new();
        let mut path_bytes = 0usize;
        // Meter taken out for the duration so the closure can borrow the
        // rest of `self` mutably.
        let mut cpu = std::mem::take(&mut self.cpu);
        cpu.time(|| {
            for &a in &anchors {
                path_bytes += self.contract_from(store, a, &mut new_edges);
            }
            // Keep raw cross-region edges of border nodes (border edges).
            for &a in &anchors {
                for &(u, w) in store.out_edges(self.ids[a as usize]) {
                    let us = self.ensure_slot(u);
                    if self.member[us as usize] != epoch {
                        new_edges.push((a, us, GEdge::Raw(w)));
                    }
                }
            }
        });
        self.cpu = cpu;
        self.mem.alloc(path_bytes + new_edges.len() * 16);
        for (from, to, e) in new_edges {
            self.push_edge(from, to, e);
        }

        // Release the raw region data (§6.1: "the region data can be
        // discarded").
        self.mem.free(raw_bytes);
    }

    /// Region-restricted Dijkstra from anchor slot `a`; appends
    /// super-edges to every other anchor reached, in ascending reached-id
    /// order. Returns the bytes of stored paths.
    fn contract_from(
        &mut self,
        store: &ReceivedGraph,
        a: u32,
        out: &mut Vec<(u32, u32, GEdge)>,
    ) -> usize {
        let epoch = self.region_epoch;
        self.search += 1;
        let search = self.search;
        self.touched.clear();
        let mut heap = MinHeap::new();
        self.dist[a as usize] = 0;
        self.parent[a as usize] = NO_SLOT;
        self.stamp[a as usize] = search;
        self.touched.push(a);
        heap.push(0, self.ids[a as usize]);
        while let Some(e) = heap.pop() {
            let v = e.item;
            // Popped ids were stamped when pushed; the slot exists.
            let vs = self.slot_lookup(v).expect("queued node has a slot");
            if self.dist[vs as usize] != e.key {
                continue;
            }
            for &(u, w) in store.out_edges(v) {
                let us = self.ensure_slot(u) as usize;
                if self.member[us] != epoch {
                    continue;
                }
                let cand = e.key + w as Distance;
                let seen = self.stamp[us] == search;
                if !seen || cand < self.dist[us] {
                    self.dist[us] = cand;
                    self.parent[us] = vs;
                    if !seen {
                        self.stamp[us] = search;
                        self.touched.push(us as u32);
                    }
                    heap.push(cand, u);
                }
            }
        }
        // The former map-based processor iterated its distance map in hash
        // order here; ascending reached-id order is deterministic and
        // emits the same super-edge *set*.
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable_by_key(|&s| self.ids[s as usize]);
        let mut bytes = 0usize;
        for &bs in &touched {
            let bi = bs as usize;
            if bs == a || self.anchor[bi] != epoch {
                continue;
            }
            let idx = if self.keep_paths {
                let mut path = vec![self.ids[bi]];
                let mut cur = bi;
                while self.parent[cur] != NO_SLOT {
                    cur = self.parent[cur] as usize;
                    path.push(self.ids[cur]);
                }
                path.reverse();
                bytes += 4 * path.len();
                self.paths.push(path);
                self.paths.len() - 1
            } else {
                usize::MAX // contracted marker: answer path stays anchor-level
            };
            out.push((a, bs, GEdge::Super(self.dist[bi], idx)));
        }
        self.touched = touched;
        bytes
    }

    /// Final Dijkstra over `G'` followed by super-edge expansion.
    pub fn shortest_path(
        &mut self,
        source: NodeId,
        target: NodeId,
    ) -> Option<(Distance, Vec<NodeId>)> {
        let (t_slot, spidx) = self.gprime_search(source, target);
        let t_slot = t_slot?;
        let d = self.dist[t_slot as usize];
        // Expand: walk parents, splicing super-edge paths back in.
        let mut path = vec![self.ids[t_slot as usize]];
        let mut cur = t_slot as usize;
        while self.parent[cur] != NO_SLOT {
            let p = self.parent[cur] as usize;
            match spidx[cur] {
                None | Some(usize::MAX) => path.push(self.ids[p]),
                Some(i) => {
                    // Stored path runs p -> cur; splice reversed interior.
                    let sp = &self.paths[i];
                    debug_assert_eq!(sp.first(), Some(&self.ids[p]));
                    debug_assert_eq!(sp.last(), Some(&self.ids[cur]));
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

    /// The `G'` Dijkstra itself. Returns the settled target slot (scratch
    /// holds dist/parent) plus each slot's reaching super-edge path index.
    fn gprime_search(
        &mut self,
        source: NodeId,
        target: NodeId,
    ) -> (Option<u32>, Vec<Option<usize>>) {
        let s_slot = self.ensure_slot(source);
        let t_slot = self.slot_lookup(target).unwrap_or(NO_SLOT);
        let mut spidx: Vec<Option<usize>> = vec![None; self.ids.len()];
        let mut reached_target = false;
        // Meter taken out for the duration so the closure can borrow the
        // rest of `self` mutably.
        let mut cpu = std::mem::take(&mut self.cpu);
        cpu.time(|| {
            self.search += 1;
            let search = self.search;
            self.dist[s_slot as usize] = 0;
            self.parent[s_slot as usize] = NO_SLOT;
            self.stamp[s_slot as usize] = search;
            let mut heap = MinHeap::new();
            heap.push(0, s_slot);
            while let Some(e) = heap.pop() {
                let (key, v) = (e.key, e.item);
                let vi = v as usize;
                if self.stamp[vi] != search || self.dist[vi] != key {
                    continue;
                }
                if v == t_slot {
                    reached_target = true;
                    break;
                }
                let mut e = self.adj_head[vi];
                while e != NO_SLOT {
                    let ei = e as usize;
                    let u = self.edge_to[ei];
                    let (cost, pidx) = match self.edge_payload[ei] {
                        GEdge::Raw(w) => (w as Distance, None),
                        GEdge::Super(d, i) => (d, Some(i)),
                    };
                    let cand = key + cost;
                    let ui = u as usize;
                    if self.stamp[ui] != search || cand < self.dist[ui] {
                        self.dist[ui] = cand;
                        self.parent[ui] = v;
                        self.stamp[ui] = search;
                        spidx[ui] = pidx;
                        heap.push(cand, u);
                    }
                    e = self.edge_next[ei];
                }
            }
        });
        self.cpu = cpu;
        if reached_target {
            (Some(t_slot), spidx)
        } else {
            (None, spidx)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netcodec::{decode_payload, encode_nodes_with_borders, NodeRecord};
    use crate::precompute::BorderPrecomputation;
    use spair_partition::{KdTreePartition, Partitioning};
    use spair_roadnet::generators::small_grid;
    use spair_roadnet::{dijkstra_distance, Point, RoadNetwork};

    /// Builds a ReceivedGraph holding the whole network with true border
    /// flags, plus the per-region node lists.
    fn received_world(g: &RoadNetwork, regions: usize) -> (ReceivedGraph, Vec<Vec<NodeId>>) {
        let part = KdTreePartition::build(g, regions);
        let pre = BorderPrecomputation::run(g, &part);
        let mut store = ReceivedGraph::new();
        for r in 0..regions {
            let nodes = &part.nodes_by_region()[r];
            for payload in encode_nodes_with_borders(g, nodes, |v| pre.borders().is_border(v)) {
                for rec in decode_payload(&payload).unwrap() {
                    store.ingest(rec);
                }
            }
        }
        (store, part.nodes_by_region().to_vec())
    }

    #[test]
    fn distances_match_plain_search() {
        let g = small_grid(10, 10, 3);
        let (store, by_region) = received_world(&g, 8);
        for &(s, t) in &[(0u32, 99u32), (5, 60), (42, 43)] {
            let mut proc = MemoryBoundProcessor::with_paths();
            for nodes in &by_region {
                let terminals: Vec<NodeId> = [s, t]
                    .iter()
                    .copied()
                    .filter(|v| nodes.contains(v))
                    .collect();
                proc.add_region(&store, nodes, &terminals);
            }
            let got = proc.shortest_path(s, t);
            assert_eq!(
                got.as_ref().map(|(d, _)| *d),
                dijkstra_distance(&g, s, t),
                "{s}->{t}"
            );
            // Expanded path must be a real path of the claimed length.
            let (d, path) = got.unwrap();
            let mut acc: Distance = 0;
            for w in path.windows(2) {
                acc += g.weight_between(w[0], w[1]).unwrap() as Distance;
            }
            assert_eq!(acc, d);
            assert_eq!(path.first(), Some(&s));
            assert_eq!(path.last(), Some(&t));
        }
    }

    #[test]
    fn distances_match_dijkstra_on_a_second_grid() {
        let g = small_grid(9, 9, 6);
        let (store, by_region) = received_world(&g, 8);
        for &(s, t) in &[(0u32, 80u32), (10, 71)] {
            let mut proc = MemoryBoundProcessor::with_paths();
            for nodes in &by_region {
                let terminals: Vec<NodeId> = [s, t]
                    .iter()
                    .copied()
                    .filter(|v| nodes.contains(v))
                    .collect();
                proc.add_region(&store, nodes, &terminals);
            }
            let got = proc.shortest_path(s, t).map(|(d, _)| d);
            assert_eq!(got, dijkstra_distance(&g, s, t));
        }
    }

    #[test]
    fn peak_memory_below_plain_retention() {
        // The saving needs regions that are big relative to their border
        // count (the road-network regime): four chain clusters joined by
        // single bridge edges, so each region has at most two border
        // nodes.
        use spair_roadnet::{GraphBuilder, Point};
        let k: u32 = 60;
        let mut b = GraphBuilder::new();
        for c in 0..4 {
            for i in 0..k {
                b.add_node(Point::new(
                    c as f64 * 1000.0 + (i % 10) as f64,
                    (i / 10) as f64,
                ));
            }
        }
        for c in 0..4u32 {
            let base = c * k;
            for i in 0..k - 1 {
                b.add_undirected_edge(base + i, base + i + 1, 3);
            }
            if c < 3 {
                b.add_undirected_edge(base + k - 1, base + k, 5); // bridge
            }
        }
        let g = b.finish();
        let (store, by_region) = received_world(&g, 4);
        let (s, t) = (0u32, 4 * k - 1);
        let mut proc = MemoryBoundProcessor::new();
        for nodes in &by_region {
            let terminals: Vec<NodeId> = [s, t]
                .iter()
                .copied()
                .filter(|v| nodes.contains(v))
                .collect();
            proc.add_region(&store, nodes, &terminals);
        }
        let plain = store.retained_bytes();
        assert!(
            proc.mem.peak() < plain,
            "contracted peak {} vs plain {}",
            proc.mem.peak(),
            plain
        );
        let got = proc.shortest_path(s, t).map(|(d, _)| d);
        assert_eq!(got, dijkstra_distance(&g, s, t));
    }

    #[test]
    fn terminal_inside_single_region() {
        let g = small_grid(8, 8, 1);
        let (store, by_region) = received_world(&g, 4);
        // Source and target in the same region.
        let nodes0 = &by_region[0];
        let (s, t) = (nodes0[0], *nodes0.last().unwrap());
        let mut proc = MemoryBoundProcessor::with_paths();
        for nodes in &by_region {
            let terminals: Vec<NodeId> = [s, t]
                .iter()
                .copied()
                .filter(|v| nodes.contains(v))
                .collect();
            proc.add_region(&store, nodes, &terminals);
        }
        assert_eq!(
            proc.shortest_path(s, t).map(|(d, _)| d),
            dijkstra_distance(&g, s, t)
        );
    }

    #[test]
    fn unreachable_returns_none() {
        let store = ReceivedGraph::new();
        let mut proc = MemoryBoundProcessor::new();
        proc.add_region(&store, &[], &[]);
        assert!(proc.shortest_path(0, 1).is_none());
    }

    #[test]
    fn contraction_cpu_is_measured() {
        let g = small_grid(8, 8, 2);
        let (store, by_region) = received_world(&g, 4);
        let mut proc = MemoryBoundProcessor::new();
        for nodes in &by_region {
            proc.add_region(&store, nodes, &[]);
        }
        assert!(proc.cpu.total().as_nanos() > 0);
    }

    #[test]
    fn spill_range_node_ids_use_the_spill_map() {
        // A two-region chain whose ids straddle DIRECT_ID_CAP exercises
        // both halves of the slot table.
        let base = (super::DIRECT_ID_CAP as NodeId) - 2;
        let ids: Vec<NodeId> = (0..6).map(|i| base + i).collect();
        let mut store = ReceivedGraph::new();
        for (k, &id) in ids.iter().enumerate() {
            let mut edges = Vec::new();
            if k > 0 {
                edges.push((ids[k - 1], 7));
            }
            if k + 1 < ids.len() {
                edges.push((ids[k + 1], 7));
            }
            store.ingest(NodeRecord {
                id,
                point: Point::new(k as f64, 0.0),
                border: k == 2 || k == 3, // the bridge endpoints
                edges,
                more: false,
            });
        }
        let regions = [ids[..3].to_vec(), ids[3..].to_vec()];
        let (s, t) = (ids[0], ids[5]);
        let mut proc = MemoryBoundProcessor::with_paths();
        for nodes in &regions {
            let terminals: Vec<NodeId> = [s, t]
                .iter()
                .copied()
                .filter(|v| nodes.contains(v))
                .collect();
            proc.add_region(&store, nodes, &terminals);
        }
        let (d, path) = proc.shortest_path(s, t).expect("reachable");
        assert_eq!(d, 35);
        assert_eq!(path, ids);
        assert!(!proc.slot_spill.is_empty(), "ids above the cap must spill");
    }
}
