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
//! Both searches run on the shared slot arena's one search,
//! [`ReceivedGraph::search_with`]: a region's contraction is
//! [`ReceivedGraph::contract`] over the received store (the HiTi build's
//! border-pair searches too), and `G'` is itself a [`ReceivedGraph`]
//! whose arcs regions stage (a super-edge tagged with its path's index)
//! and the final search builds into a CSR. Distances and memory charges
//! are identical to the former map-based processor; super-edges are
//! emitted in ascending reached id.

use crate::netcodec::{ReceivedGraph, SearchScratch, RAW_ARC};
use crate::query::decoded_node_bytes;
use spair_broadcast::{CpuMeter, MemoryMeter};
use spair_roadnet::{Distance, NodeId};
use std::ops::ControlFlow;

/// Incremental §6.1 contractor.
#[derive(Debug, Default)]
pub struct MemoryBoundProcessor {
    /// `G'`: super-edges and raw cross-region edges, staged as regions
    /// arrive.
    gprime: ReceivedGraph,
    /// Scratch of the contraction searches and the final `G'` search.
    scratch: SearchScratch,
    /// Interior nodes of every kept super-edge path, back to back; a
    /// super-edge's tag indexes its `(start, len)` in `views` (empty in a
    /// costs-only processor).
    via: Vec<NodeId>,
    views: Vec<(usize, usize)>,
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

        let mut members = region_nodes.to_vec();
        members.sort_unstable();
        let member = |v: NodeId| members.binary_search(&v).is_ok();
        let mut anchors: Vec<NodeId> = region_nodes
            .iter()
            .copied()
            .filter(|&v| store.is_border(v).unwrap_or(false))
            .collect();
        for &t in terminals {
            if member(t) && !anchors.contains(&t) {
                anchors.push(t);
            }
        }
        let mut anchor_set = anchors.clone();
        anchor_set.sort_unstable();

        let (mut arcs, mut path_bytes) = (0usize, 0usize);
        self.cpu.time(|| {
            // A super-edge from each anchor to every other anchor its
            // region-restricted Dijkstra settles. Costs only: an empty
            // view keeps the answer path anchor-level.
            let keep_paths = self.keep_paths;
            store.contract(
                &mut self.scratch,
                &anchors,
                member,
                |v| anchor_set.binary_search(&v).is_ok(),
                keep_paths.then_some(&mut self.via),
                |a, b, d, via| {
                    if keep_paths {
                        path_bytes += 4 * (via.len() + 2); // endpoints included
                    }
                    self.views.push((via.start, via.len()));
                    self.gprime
                        .stage_arc(a, b, d, (self.views.len() - 1) as u32);
                    arcs += 1;
                },
            );
            // Keep raw cross-region edges of border nodes (border edges).
            for &a in &anchors {
                for &(u, w) in store.out_edges(a) {
                    if !member(u) {
                        self.gprime.stage_arc(a, u, w as Distance, RAW_ARC);
                        arcs += 1;
                    }
                }
            }
        });
        self.mem.alloc(path_bytes + arcs * 16);

        // Release the raw region data (§6.1: "the region data can be
        // discarded").
        self.mem.free(raw_bytes);
    }

    /// Final Dijkstra over `G'` followed by super-edge expansion.
    pub fn shortest_path(
        &mut self,
        source: NodeId,
        target: NodeId,
    ) -> Option<(Distance, Vec<NodeId>)> {
        let d = self.cpu.time(|| {
            self.gprime.build_staged();
            let found = self.gprime.search_with(
                &mut self.scratch,
                source,
                Some(target),
                |_, _| 0,
                |_, _| true,
                |_, _, _| ControlFlow::Continue(()),
            );
            found.0
        })?;
        let path = self.gprime.path_to(&self.scratch, target, |tag| {
            let (start, len) = self.views[tag as usize];
            &self.via[start..start + len]
        });
        Some((d, path))
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
        // A two-region chain whose ids straddle the arena's direct-table
        // cap exercises both halves of the slot table.
        let base = (crate::netcodec::DIRECT_ID_CAP as NodeId) - 2;
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
    }
}
