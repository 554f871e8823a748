//! k-nearest-neighbour retrieval on air — the paper's stated future work
//! (§8: "a promising direction ... is to consider on-air processing of
//! spatial queries in road networks, e.g., range and nearest neighbor
//! retrieval").
//!
//! The extension reuses EB's machinery: the broadcast cycle carries the
//! kd splits, the min/max border-distance matrix `A`, the region offset
//! table, the region adjacency data — plus one extra index record stream
//! marking which nodes host points of interest (POIs). The client runs an
//! incremental network expansion (INE-style Dijkstra) from its location
//! and uses `A`'s *min* entries the way EB uses them for pruning, but in
//! one-sided form: a region `R` can contain a POI closer than the current
//! k-th candidate only if `min(Rs, R)` is below that candidate's
//! distance. Regions are received in ascending `min(Rs, ·)` order, so the
//! expansion provably never misses a nearer POI:
//!
//! * any path from `v_s` into region `R` crosses border nodes of `Rs` and
//!   `R`, hence has length at least `min(Rs, R)`;
//! * regions are consumed in ascending `min(Rs, ·)`; when the k-th best
//!   candidate distance is ≤ the next region's bound, no unreceived
//!   region can improve the answer.
//!
//! Range queries (`all POIs within distance d`) fall out of the same scan
//! with the cut-off fixed at `d` instead of the k-th candidate.

use crate::client_common::{find_next_index, ingest_segment, MAX_RETRY_CYCLES};
use crate::eb::index::EbIndexDecoder;
use crate::eb::{EbIndex, EbRegionEntry};
use crate::netcodec::{encode_nodes_with_borders, ReceivedGraph};
use crate::precompute::BorderPrecomputation;
use bytes::Bytes;
use spair_broadcast::codec::{EncodeError, PayloadReader, RecordBuf, RecordWriter};
use spair_broadcast::cycle::SegmentKind;
use spair_broadcast::interleave::{interleave_1m, optimal_m, DataChunk};
use spair_broadcast::packet::PacketKind;
use spair_broadcast::{Air, BroadcastCycle, CpuMeter, MemoryMeter, QueryStats};
use spair_partition::{KdLocator, KdTreePartition, Partitioning, RegionId};
use spair_roadnet::{Distance, NodeId, Point, RoadNetwork};
use std::ops::ControlFlow;

const POI_MAGIC: u8 = 0x90;

/// A POI-annotated EB-style broadcast program for on-air kNN.
#[derive(Debug)]
pub struct KnnProgram {
    cycle: BroadcastCycle,
    num_regions: usize,
}

impl KnnProgram {
    /// The broadcast cycle.
    pub fn cycle(&self) -> &BroadcastCycle {
        &self.cycle
    }

    /// Number of kd regions.
    pub fn num_regions(&self) -> usize {
        self.num_regions
    }
}

/// Server: EB layout plus a POI id stream inside the global index.
pub struct KnnServer<'a> {
    g: &'a RoadNetwork,
    part: &'a KdTreePartition,
    pre: &'a BorderPrecomputation,
    pois: &'a [NodeId],
}

impl<'a> KnnServer<'a> {
    /// Binds the server to its inputs; `pois` are the POI-hosting nodes.
    pub fn new(
        g: &'a RoadNetwork,
        part: &'a KdTreePartition,
        pre: &'a BorderPrecomputation,
        pois: &'a [NodeId],
    ) -> Self {
        assert_eq!(part.num_regions(), pre.num_regions());
        Self { g, part, pre, pois }
    }

    fn poi_payloads(&self) -> Vec<Bytes> {
        let mut w = RecordWriter::new();
        let mut rec = RecordBuf::new();
        for chunk in self.pois.chunks(28) {
            rec.clear();
            rec.put_u8(POI_MAGIC).put_u8(chunk.len() as u8);
            for &p in chunk {
                rec.put_u32(p);
            }
            w.push_record(rec.as_slice());
        }
        w.finish()
    }

    /// Assembles the program. The POI stream rides as extra index packets
    /// after each EB index copy, so a client has POIs and matrix together.
    pub fn build_program(&self) -> Result<KnnProgram, EncodeError> {
        let n = self.part.num_regions();
        // Whole-region payloads (kNN needs local nodes too: a POI can be
        // anywhere, so there is no cross-border shortcut here).
        let region_payloads: Vec<Vec<Bytes>> = (0..n)
            .map(|r| {
                encode_nodes_with_borders(self.g, &self.part.nodes_by_region()[r], |v| {
                    self.pre.borders().is_border(v)
                })
            })
            .collect();

        let index_of = |entries: Vec<EbRegionEntry>| -> Result<Vec<Bytes>, EncodeError> {
            let mut minmax = Vec::with_capacity(n * n);
            for i in 0..n as u16 {
                for j in 0..n as u16 {
                    minmax.push(self.pre.minmax(i, j));
                }
            }
            let mut payloads = EbIndex {
                num_regions: n,
                splits: self.part.splits().to_vec(),
                minmax,
                regions: entries,
            }
            .encode()?;
            payloads.extend(self.poi_payloads());
            Ok(payloads)
        };

        let placeholder: Vec<EbRegionEntry> = (0..n)
            .map(|r| EbRegionEntry {
                data_offset: 0,
                cross_packets: region_payloads[r].len() as u16,
                local_packets: 0,
            })
            .collect();
        let index_payloads = index_of(placeholder)?;
        let index_packets = index_payloads.len();
        let total_data: usize = region_payloads.iter().map(Vec::len).sum();
        let m = optimal_m(total_data, index_packets);

        let chunks = |payloads: &[Vec<Bytes>]| -> Vec<DataChunk> {
            payloads
                .iter()
                .enumerate()
                .map(|(r, p)| DataChunk {
                    kind: SegmentKind::RegionData(r as u16),
                    packet_kind: PacketKind::Data,
                    payloads: p.clone(),
                })
                .collect()
        };
        let dry = interleave_1m(index_payloads, chunks(&region_payloads), m).finish();
        let entries: Vec<EbRegionEntry> = (0..n)
            .map(|r| {
                let seg = dry
                    .find_segment(SegmentKind::RegionData(r as u16))
                    .expect("region segment");
                EbRegionEntry {
                    data_offset: seg.start as u32,
                    cross_packets: region_payloads[r].len() as u16,
                    local_packets: 0,
                }
            })
            .collect();
        let real = index_of(entries)?;
        assert_eq!(real.len(), index_packets, "fixed-width encoding");
        let cycle = interleave_1m(real, chunks(&region_payloads), m).finish();
        Ok(KnnProgram {
            cycle,
            num_regions: n,
        })
    }
}

/// One kNN answer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Neighbor {
    /// POI node.
    pub node: NodeId,
    /// Network distance from the query location.
    pub distance: Distance,
}

/// Result of a kNN query with its measured cost.
#[derive(Debug, Clone)]
pub struct KnnOutcome {
    /// The k nearest POIs, ascending by distance.
    pub neighbors: Vec<Neighbor>,
    /// Performance measurements.
    pub stats: QueryStats,
}

/// The on-air kNN client.
#[derive(Debug, Clone)]
pub struct KnnClient {
    num_regions: usize,
}

/// When the incremental region scan may stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cutoff {
    /// Stop once the k-th candidate beats the next region's lower bound.
    Nearest(usize),
    /// Stop once the next region's lower bound exceeds the radius.
    Radius(Distance),
}

impl KnnClient {
    /// New client for a program with `num_regions` regions.
    pub fn new(num_regions: usize) -> Self {
        Self { num_regions }
    }

    /// Finds the `k` POIs nearest to `source` (located at `source_pt`).
    /// Returns fewer than `k` neighbours only if the network holds fewer
    /// reachable POIs.
    pub fn query(
        &mut self,
        ch: &mut dyn Air,
        source: NodeId,
        source_pt: Point,
        k: usize,
    ) -> Result<KnnOutcome, crate::query::QueryError> {
        self.scan(ch, source, source_pt, Cutoff::Nearest(k))
    }

    /// Finds every POI within network distance `radius` of `source` — the
    /// §8 range query, sharing the kNN scan with the cut-off fixed at
    /// `radius` instead of the k-th candidate.
    pub fn range(
        &mut self,
        ch: &mut dyn Air,
        source: NodeId,
        source_pt: Point,
        radius: Distance,
    ) -> Result<KnnOutcome, crate::query::QueryError> {
        self.scan(ch, source, source_pt, Cutoff::Radius(radius))
    }

    fn scan(
        &mut self,
        ch: &mut dyn Air,
        source: NodeId,
        source_pt: Point,
        cutoff: Cutoff,
    ) -> Result<KnnOutcome, crate::query::QueryError> {
        let mut mem = MemoryMeter::new();
        let mut cpu = CpuMeter::new();

        // Index reception (same discipline as EB, plus the POI stream,
        // which rides as extra `Index`-kind packets after the EB payloads
        // of each copy). The copy's end is recognized by packet kind; lost
        // packets are re-received at the same cycle offsets (§6.2), and
        // ones that turn out to be data packets are simply dropped.
        let mut dec = EbIndexDecoder::new();
        let mut poi_ids: Vec<NodeId> = Vec::new();
        let Some(idx_off) = find_next_index(ch, 10_000) else {
            return Err(crate::query::QueryError::Aborted("no index on channel"));
        };
        ch.sleep_to_offset(idx_off);
        let len = ch.cycle_len();
        let mut lost: Vec<usize> = Vec::new();
        let ingest_index = |payload: &[u8], dec: &mut EbIndexDecoder, poi_ids: &mut Vec<NodeId>| {
            if !dec.ingest(payload) {
                if let Some(ids) = decode_pois(payload) {
                    poi_ids.extend(ids);
                }
            }
        };
        for step in 0.. {
            if step > 2 * len {
                return Err(crate::query::QueryError::Aborted("kNN index never ended"));
            }
            let off = ch.offset();
            match ch.receive() {
                spair_broadcast::Received::Packet(p) if p.kind() == PacketKind::Index => {
                    ingest_index(p.payload(), &mut dec, &mut poi_ids);
                }
                spair_broadcast::Received::Packet(_) => break, // data started
                spair_broadcast::Received::Lost | spair_broadcast::Received::Corrupted => {
                    lost.push(off)
                }
            }
        }
        let mut rounds = 0;
        while !lost.is_empty() {
            rounds += 1;
            if rounds > MAX_RETRY_CYCLES {
                return Err(crate::query::QueryError::Aborted(
                    "kNN index never completed",
                ));
            }
            let mut still = Vec::new();
            for off in lost {
                ch.sleep_to_offset(off);
                match ch.receive() {
                    spair_broadcast::Received::Packet(p) if p.kind() == PacketKind::Index => {
                        ingest_index(p.payload(), &mut dec, &mut poi_ids);
                    }
                    spair_broadcast::Received::Packet(_) => {} // was a data packet
                    spair_broadcast::Received::Lost | spair_broadcast::Received::Corrupted => {
                        still.push(off)
                    }
                }
            }
            lost = still;
        }
        let Some(splits) = dec.splits() else {
            return Err(crate::query::QueryError::Aborted("kNN splits incomplete"));
        };
        let locator = cpu.time(|| KdLocator::from_splits(splits));
        let rs = locator.locate(source_pt);
        let n = dec.num_regions().ok_or(crate::query::QueryError::Aborted(
            "kNN index lost its region count",
        ))? as RegionId;
        debug_assert_eq!(n as usize, self.num_regions);
        mem.alloc(dec.retained_bytes() + poi_ids.len() * 4);
        let is_poi: std::collections::HashSet<NodeId> = poi_ids.iter().copied().collect();

        // Regions ascending by min(Rs, ·) — the reception schedule.
        let mut order: Vec<(Distance, RegionId)> = Vec::with_capacity(n as usize);
        for r in 0..n {
            let b = if r == rs {
                0
            } else {
                dec.minmax(rs, r)
                    .ok_or(crate::query::QueryError::Aborted(
                        "kNN minmax row incomplete",
                    ))?
                    .min
            };
            order.push((b, r));
        }
        order.sort_unstable();

        // Incremental expansion: receive regions in bound order; after
        // each batch, extend Dijkstra; stop when the k-th candidate beats
        // the next region's lower bound.
        let mut store = ReceivedGraph::new();
        let mut missing: Vec<usize> = Vec::new();
        let len = ch.cycle_len();
        let mut found: Vec<Neighbor> = Vec::new();
        let mut consumed = 0usize;
        while consumed < order.len() {
            let (bound, _) = order[consumed];
            let done = match cutoff {
                Cutoff::Nearest(k) => found.len() >= k && found[k - 1].distance <= bound,
                Cutoff::Radius(d) => bound > d,
            };
            if done {
                break;
            }
            // Receive the next region (plus any with the same bound).
            let mut batch = Vec::new();
            let b0 = order[consumed].0;
            while consumed < order.len() && order[consumed].0 == b0 {
                batch.push(order[consumed].1);
                consumed += 1;
            }
            for r in batch {
                let e = dec
                    .region_entry(r)
                    .ok_or(crate::query::QueryError::Aborted(
                        "kNN region entry missing",
                    ))?;
                let (offset, take) = (e.data_offset as usize, e.cross_packets as usize);
                ingest_segment(ch, offset, take, &mut store, &mut mem, &mut missing);
            }
            // §6.2: recover losses before searching over the batch.
            let mut rounds = 0;
            while !missing.is_empty() {
                rounds += 1;
                if rounds > MAX_RETRY_CYCLES {
                    return Err(crate::query::QueryError::Aborted(
                        "kNN data never completed",
                    ));
                }
                missing.sort_by_key(|&off| (off + len - ch.offset()) % len);
                let mut still = Vec::new();
                for off in missing {
                    ch.sleep_to_offset(off);
                    match ch
                        .receive()
                        .ok()
                        .and_then(|p| store.ingest_payload(p.payload()))
                    {
                        Some(charged) => mem.alloc(charged),
                        None => still.push(off),
                    }
                }
                missing = still;
            }
            // Re-run the expansion over everything received so far.
            found = cpu.time(|| expand_over_store(&mut store, source, &is_poi, cutoff));
        }

        mem.alloc(store.num_nodes() * 24);
        match cutoff {
            Cutoff::Nearest(k) => found.truncate(k),
            Cutoff::Radius(d) => found.retain(|nb| nb.distance <= d),
        }
        let stats = QueryStats {
            tuning_packets: ch.tuned(),
            latency_packets: ch.elapsed(),
            sleep_packets: ch.slept(),
            peak_memory_bytes: mem.peak(),
            cpu: cpu.total(),
            settled_nodes: store.num_nodes() as u64,
        };
        Ok(KnnOutcome {
            neighbors: found,
            stats,
        })
    }
}

fn decode_pois(payload: &[u8]) -> Option<Vec<NodeId>> {
    let mut r = PayloadReader::new(payload);
    let mut out = Vec::new();
    while !r.is_empty() {
        if r.read_u8()? != POI_MAGIC {
            return None;
        }
        let count = r.read_u8()? as usize;
        for _ in 0..count {
            out.push(r.read_u32()?);
        }
    }
    Some(out)
}

/// Dijkstra over the received subgraph collecting POIs up to the cutoff:
/// the store's search with a settle visitor that stops past the radius,
/// or once `k` POIs are found and no equal-distance tie remains queued.
fn expand_over_store(
    store: &mut ReceivedGraph,
    source: NodeId,
    is_poi: &std::collections::HashSet<NodeId>,
    cutoff: Cutoff,
) -> Vec<Neighbor> {
    let mut out = Vec::new();
    store.search(
        source,
        None,
        |_, _| 0,
        |_, _| true,
        |v, d, next_key| {
            if let Cutoff::Radius(r) = cutoff {
                if d > r {
                    return ControlFlow::Break(());
                }
            }
            if is_poi.contains(&v) {
                out.push(Neighbor {
                    node: v,
                    distance: d,
                });
                if let Cutoff::Nearest(k) = cutoff {
                    if out.len() >= k && next_key.is_none_or(|kk| kk > d) {
                        return ControlFlow::Break(());
                    }
                }
            }
            ControlFlow::Continue(())
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spair_broadcast::{BroadcastChannel, LossModel};
    use spair_roadnet::dijkstra_full;
    use spair_roadnet::generators::small_grid;

    fn setup(seed: u64, regions: usize, n_pois: usize) -> (RoadNetwork, Vec<NodeId>, KnnProgram) {
        let g = small_grid(14, 14, seed);
        let part = KdTreePartition::build(&g, regions);
        let pre = BorderPrecomputation::run(&g, &part);
        let mut rng = StdRng::seed_from_u64(seed + 99);
        let mut pois: Vec<NodeId> = (0..n_pois)
            .map(|_| rng.gen_range(0..g.num_nodes()) as NodeId)
            .collect();
        pois.sort_unstable();
        pois.dedup();
        let program = KnnServer::new(&g, &part, &pre, &pois)
            .build_program()
            .expect("encode");
        (g, pois, program)
    }

    /// Reference kNN by full Dijkstra.
    fn reference_knn(g: &RoadNetwork, s: NodeId, pois: &[NodeId], k: usize) -> Vec<Distance> {
        let tree = dijkstra_full(g, s);
        let mut d: Vec<Distance> = pois
            .iter()
            .filter(|&&p| tree.reachable(p))
            .map(|&p| tree.distance(p))
            .collect();
        d.sort_unstable();
        d.truncate(k);
        d
    }

    #[test]
    fn knn_matches_reference() {
        let (g, pois, program) = setup(3, 8, 20);
        let mut client = KnnClient::new(8);
        for &s in &[0u32, 97, 195] {
            let mut ch = BroadcastChannel::lossless(program.cycle());
            let out = client.query(&mut ch, s, g.point(s), 3).unwrap();
            let got: Vec<Distance> = out.neighbors.iter().map(|n| n.distance).collect();
            assert_eq!(got, reference_knn(&g, s, &pois, 3), "source {s}");
            // Returned neighbours really are POIs.
            for nb in &out.neighbors {
                assert!(pois.contains(&nb.node));
            }
        }
    }

    #[test]
    fn knn_prunes_regions_for_dense_pois() {
        // With POIs everywhere, the nearest ones are local: the client
        // should not receive the whole cycle.
        let (g, _, program) = setup(5, 16, 80);
        let mut client = KnnClient::new(16);
        let mut ch = BroadcastChannel::lossless(program.cycle());
        let out = client.query(&mut ch, 0, g.point(0), 2).unwrap();
        assert!(
            (out.stats.tuning_packets as usize) < program.cycle().len(),
            "tuned {} of {}",
            out.stats.tuning_packets,
            program.cycle().len()
        );
        assert_eq!(out.neighbors.len(), 2);
    }

    #[test]
    fn k_larger_than_poi_count() {
        let (g, pois, program) = setup(7, 4, 3);
        let mut client = KnnClient::new(4);
        let mut ch = BroadcastChannel::lossless(program.cycle());
        let out = client.query(&mut ch, 10, g.point(10), 10).unwrap();
        assert_eq!(out.neighbors.len(), pois.len());
    }

    #[test]
    fn knn_correct_under_loss() {
        let (g, pois, program) = setup(9, 8, 15);
        let mut client = KnnClient::new(8);
        for seed in 0..3 {
            let mut ch =
                BroadcastChannel::tune_in(program.cycle(), 11, LossModel::bernoulli(0.05, seed));
            let out = client.query(&mut ch, 50, g.point(50), 2).unwrap();
            let got: Vec<Distance> = out.neighbors.iter().map(|n| n.distance).collect();
            assert_eq!(got, reference_knn(&g, 50, &pois, 2), "seed {seed}");
        }
    }

    #[test]
    fn range_matches_reference() {
        let (g, pois, program) = setup(13, 8, 25);
        let mut client = KnnClient::new(8);
        let tree = dijkstra_full(&g, 30);
        for radius in [500u64, 2_000, 10_000] {
            let mut ch = BroadcastChannel::lossless(program.cycle());
            let out = client.range(&mut ch, 30, g.point(30), radius).unwrap();
            let mut want: Vec<Distance> = pois
                .iter()
                .filter(|&&p| tree.reachable(p) && tree.distance(p) <= radius)
                .map(|&p| tree.distance(p))
                .collect();
            want.sort_unstable();
            let got: Vec<Distance> = out.neighbors.iter().map(|n| n.distance).collect();
            assert_eq!(got, want, "radius {radius}");
        }
    }

    #[test]
    fn small_radius_prunes_most_of_the_cycle() {
        let (g, _, program) = setup(15, 16, 60);
        let mut client = KnnClient::new(16);
        let mut ch = BroadcastChannel::lossless(program.cycle());
        let out = client.range(&mut ch, 0, g.point(0), 200).unwrap();
        assert!(
            (out.stats.tuning_packets as usize) < program.cycle().len() / 2,
            "tuned {} of {}",
            out.stats.tuning_packets,
            program.cycle().len()
        );
    }

    #[test]
    fn range_zero_returns_only_colocated_pois() {
        let (g, pois, program) = setup(17, 4, 30);
        let mut client = KnnClient::new(4);
        let s = pois[0];
        let mut ch = BroadcastChannel::lossless(program.cycle());
        let out = client.range(&mut ch, s, g.point(s), 0).unwrap();
        assert!(out.neighbors.iter().all(|n| n.distance == 0));
        assert!(out.neighbors.iter().any(|n| n.node == s));
    }

    #[test]
    fn range_correct_under_loss() {
        let (g, pois, program) = setup(19, 8, 20);
        let mut client = KnnClient::new(8);
        let tree = dijkstra_full(&g, 9);
        let mut want: Vec<Distance> = pois
            .iter()
            .filter(|&&p| tree.reachable(p) && tree.distance(p) <= 3_000)
            .map(|&p| tree.distance(p))
            .collect();
        want.sort_unstable();
        for seed in 0..3 {
            let mut ch =
                BroadcastChannel::tune_in(program.cycle(), 5, LossModel::bernoulli(0.05, seed));
            let out = client.range(&mut ch, 9, g.point(9), 3_000).unwrap();
            let got: Vec<Distance> = out.neighbors.iter().map(|n| n.distance).collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn source_on_a_poi_is_distance_zero() {
        let (g, pois, program) = setup(11, 4, 10);
        let s = pois[0];
        let mut client = KnnClient::new(4);
        let mut ch = BroadcastChannel::lossless(program.cycle());
        let out = client.query(&mut ch, s, g.point(s), 1).unwrap();
        assert_eq!(out.neighbors[0].node, s);
        assert_eq!(out.neighbors[0].distance, 0);
    }

    /// The expansion loop `expand_over_store` replaced, kept verbatim
    /// (as `knn_over_store`) as the oracle of the store's search.
    fn knn_over_store(
        store: &ReceivedGraph,
        source: NodeId,
        is_poi: &std::collections::HashSet<NodeId>,
        cutoff: Cutoff,
    ) -> Vec<Neighbor> {
        use spair_roadnet::MinHeap;
        use std::collections::HashMap;
        let mut dist: HashMap<NodeId, Distance> = HashMap::new();
        let mut heap = MinHeap::new();
        let mut out = Vec::new();
        dist.insert(source, 0);
        heap.push(0, source);
        while let Some(e) = heap.pop() {
            let v = e.item;
            if dist.get(&v) != Some(&e.key) {
                continue;
            }
            if let Cutoff::Radius(d) = cutoff {
                if e.key > d {
                    break;
                }
            }
            if is_poi.contains(&v) {
                out.push(Neighbor {
                    node: v,
                    distance: e.key,
                });
                if let Cutoff::Nearest(k) = cutoff {
                    if out.len() >= k {
                        // Keep going only while equal-distance ties remain.
                        if heap.peek_key().is_none_or(|kk| kk > e.key) {
                            break;
                        }
                    }
                }
            }
            for &(u, w) in store.out_edges(v) {
                let cand = e.key + w as Distance;
                if dist.get(&u).is_none_or(|&d| cand < d) {
                    dist.insert(u, cand);
                    heap.push(cand, u);
                }
            }
        }
        out
    }

    /// A random received store over ids `0..n`: `(id, edges)` records
    /// (repeats model re-reception; targets may never arrive).
    fn random_store(records: &[(u32, Vec<(u32, u32)>)]) -> ReceivedGraph {
        let mut store = ReceivedGraph::new();
        for (id, edges) in records {
            store.ingest(crate::netcodec::NodeRecord {
                id: *id,
                point: Point::new(0.0, 0.0),
                more: false,
                border: false,
                edges: edges.clone(),
            });
        }
        store
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The expansion over the store's search returns exactly the
        /// neighbour list of the former loop, for k-nearest and radius
        /// cutoffs. Weights of 0 to 2 put many POIs at one distance, so
        /// ties at the k-th candidate and at the radius are common.
        #[test]
        fn expansion_matches_the_former_loop(
            records in proptest::collection::vec(
                (0u32..16, proptest::collection::vec((0u32..20, 0u32..=2), 0..5)),
                1..40,
            ),
            pois in proptest::collection::vec(0u32..20, 0..10),
            source in 0u32..20,
            k in 1usize..5,
            radius in 0u64..6,
        ) {
            let pois: std::collections::HashSet<NodeId> = pois.into_iter().collect();
            let mut store = random_store(&records);
            for cutoff in [Cutoff::Nearest(k), Cutoff::Radius(radius)] {
                let want = knn_over_store(&store, source, &pois, cutoff);
                let got = expand_over_store(&mut store, source, &pois, cutoff);
                proptest::prop_assert_eq!(got, want, "{:?}", cutoff);
            }
        }
    }
}
