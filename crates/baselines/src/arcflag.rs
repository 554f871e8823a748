//! ArcFlag on air (paper §2.1, §3.2).
//!
//! Server: partition the nodes (kd-tree, as fine-tuned in the paper), and
//! give every directed edge a bit vector with one bit per region: bit `R`
//! is set iff the edge lies on some shortest path ending in region `R`
//! (computed from the distances towards every border node of `R`; an
//! edge `(u,v)` is on a shortest path towards border `b` iff
//! `d(u→b) = w(u,v) + d(v→b)`, which marks the whole shortest-path DAG and
//! therefore covers ties). The distances come from the reverse,
//! distance-only mode of the all-sources kernel in
//! [`spair_roadnet::peel`], which searches only the graph's 2-core; the
//! flags depend on exact distances alone, so they equal one whole-graph
//! backward Dijkstra per border node. Intra-target edges are flagged for
//! their own region.
//!
//! Client: selective tuning is impossible (§3.2), so the whole cycle —
//! adjacency data *and* flags — is received; the flags then prune the
//! local Dijkstra to edges whose bit for `Rt`'s region is set. Flags ride
//! in separate Aux packets so a lost flag packet degrades to "all bits
//! set" for those edges (§6.2) instead of corrupting adjacency data.

use spair_broadcast::codec::{u16_of, EncodeError, PayloadReader, RecordBuf, RecordWriter};
use spair_broadcast::cycle::SegmentKind;
use spair_broadcast::packet::PacketKind;
use spair_broadcast::{Air, BroadcastCycle, CpuMeter, CycleBuilder, MemoryMeter, QueryStats};
use spair_core::netcodec::{encode_nodes, ReceivedGraph};
use spair_core::query::{AirClient, Query, QueryError, QueryOutcome};
use spair_partition::{BorderInfo, KdLocator, KdTreePartition, Partitioning, RegionId};
use spair_roadnet::dijkstra::Direction;
use spair_roadnet::parallel;
use spair_roadnet::peel::{Peel, SourceTree};
use spair_roadnet::{Distance, NodeId, RoadNetwork, DIST_INF};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::time::Instant;

const AUX_MAGIC: u8 = 0xAF;
const SPLITS_MAGIC: u8 = 0x5F;

/// Server-side ArcFlag computation.
#[derive(Debug, Clone)]
pub struct ArcFlagIndex {
    /// Words per edge flag vector.
    words: usize,
    /// Flags, row-major by dense forward edge id.
    flags: Vec<u64>,
    /// Number of regions.
    pub num_regions: usize,
    /// Build wall-clock (Table 3).
    pub precompute_secs: f64,
}

impl ArcFlagIndex {
    /// Builds flags from one backward kernel search per border node,
    /// fanned out across [`parallel::num_threads`] workers.
    pub fn build(g: &RoadNetwork, part: &KdTreePartition) -> Self {
        Self::build_with_threads(g, part, parallel::num_threads())
    }

    /// Builds on an explicit number of worker threads. Flag bits depend
    /// only on exact distances (never on tie-broken parents), and
    /// per-source contributions merge by bitwise or, so the index is
    /// identical for every thread count.
    pub fn build_with_threads(g: &RoadNetwork, part: &KdTreePartition, threads: usize) -> Self {
        let start = Instant::now();
        let n = part.num_regions();
        let words = n.div_ceil(64);
        let m = g.num_edges();
        let mut flags = vec![0u64; m * words];

        // Intra-target flags: edge (u,v) gets the bit of region(v).
        for u in g.node_ids() {
            for (e, _) in g.out_edge_ids(u).zip(0u32..) {
                let v = g.edge_target(e);
                let r = part.region_of(v) as usize;
                flags[e as usize * words + r / 64] |= 1 << (r % 64);
            }
        }

        let borders = BorderInfo::compute(g, part);
        let peel = Peel::new(g, Direction::Reverse);
        let merged = parallel::map_reduce_chunked(
            borders.all(),
            threads,
            4,
            || SourceTree::new(&peel),
            || vec![0u64; m * words],
            |tree, partial: &mut Vec<u64>, sources, _base| {
                for &b in sources {
                    let rb = part.region_of(b) as usize;
                    // An edge (u,v) lies on a shortest path towards b
                    // iff d(u→b) = w(u,v) + d(v→b) — marks the whole
                    // shortest-path DAG, covering ties.
                    tree.search_distances(&peel, b);
                    let dist = tree.distances(); // d(x -> b)
                    for u in g.node_ids() {
                        let du = dist[u as usize];
                        if du == DIST_INF {
                            continue;
                        }
                        for e in g.out_edge_ids(u) {
                            let dv = dist[g.edge_target(e) as usize];
                            if dv != DIST_INF && du == dv + g.edge_weight(e) as Distance {
                                partial[e as usize * words + rb / 64] |= 1 << (rb % 64);
                            }
                        }
                    }
                }
            },
            |acc, p| {
                for (a, b) in acc.iter_mut().zip(&p) {
                    *a |= b;
                }
            },
        );
        if let Some(partial) = merged {
            for (a, b) in flags.iter_mut().zip(&partial) {
                *a |= b;
            }
        }

        Self {
            words,
            flags,
            num_regions: n,
            precompute_secs: start.elapsed().as_secs_f64(),
        }
    }

    /// Whether edge `e`'s bit for region `r` is set.
    pub fn flag(&self, e: u32, r: RegionId) -> bool {
        (self.flags[e as usize * self.words + r as usize / 64] >> (r as usize % 64)) & 1 == 1
    }

    /// Bit-identity certificate: same flag words, word for word (build
    /// timing excluded).
    pub fn same_flags(&self, other: &Self) -> bool {
        self.words == other.words
            && self.num_regions == other.num_regions
            && self.flags == other.flags
    }
}

/// The ArcFlag broadcast program.
#[derive(Debug)]
pub struct ArcFlagProgram {
    cycle: BroadcastCycle,
    num_regions: usize,
}

impl ArcFlagProgram {
    /// The broadcast cycle.
    pub fn cycle(&self) -> &BroadcastCycle {
        &self.cycle
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.num_regions
    }
}

/// ArcFlag server.
pub struct ArcFlagServer<'a> {
    g: &'a RoadNetwork,
    part: &'a KdTreePartition,
    index: &'a ArcFlagIndex,
}

impl<'a> ArcFlagServer<'a> {
    /// Binds the server to its inputs.
    pub fn new(g: &'a RoadNetwork, part: &'a KdTreePartition, index: &'a ArcFlagIndex) -> Self {
        assert_eq!(part.num_regions(), index.num_regions);
        Self { g, part, index }
    }

    /// Assembles the cycle: kd splits, adjacency data, then flag vectors.
    /// Fails with a typed [`EncodeError`] when the partition exceeds a
    /// wire field of the splits format (instead of silently truncating).
    pub fn build_program(&self) -> Result<ArcFlagProgram, EncodeError> {
        let n = self.part.num_regions();
        let flag_bytes = n.div_ceil(8);
        let nodes: Vec<NodeId> = self.g.node_ids().collect();
        let mut b = CycleBuilder::new();

        // Tiny global index: the kd splitting values, so the client can
        // map the target to its region.
        let mut w = RecordWriter::new();
        let mut rec = RecordBuf::new();
        // Full f64 splits: kd split values are exact node coordinates and
        // the locator compares `>=`, so narrowing could flip the target's
        // region and unsoundly prune flagged edges.
        for (ci, chunk) in self.part.splits().chunks(12).enumerate() {
            rec.clear();
            rec.put_u8(SPLITS_MAGIC)
                .put_u16(u16_of(ci * 12, "arcflag splits chunk start")?)
                .put_u16(u16_of(self.part.splits().len(), "arcflag splits count")?)
                .put_u8(chunk.len() as u8);
            for &s in chunk {
                rec.put_f64(s);
            }
            w.push_record(rec.as_slice());
        }
        b.push_segment(SegmentKind::GlobalIndex, PacketKind::Index, w.finish());

        b.push_segment(
            SegmentKind::NetworkData,
            PacketKind::Data,
            encode_nodes(self.g, &nodes),
        );

        // Flags: per node, (target, flagbytes) pairs keyed by edge target
        // so loss-recovery reordering cannot misalign them.
        let mut w = RecordWriter::new();
        for u in self.g.node_ids() {
            let edges: Vec<u32> = self.g.out_edge_ids(u).collect();
            for chunk in edges.chunks(10) {
                rec.clear();
                rec.put_u8(AUX_MAGIC).put_u32(u).put_u8(chunk.len() as u8);
                for &e in chunk {
                    rec.put_u32(self.g.edge_target(e));
                    for byte in 0..flag_bytes {
                        let mut v = 0u8;
                        for bit in 0..8 {
                            let r = byte * 8 + bit;
                            if r < n && self.index.flag(e, r as RegionId) {
                                v |= 1 << bit;
                            }
                        }
                        rec.put_u8(v);
                    }
                }
                w.push_record(rec.as_slice());
            }
        }
        b.push_segment(SegmentKind::AuxData, PacketKind::Aux, w.finish());

        Ok(ArcFlagProgram {
            cycle: b.finish(),
            num_regions: n,
        })
    }
}

/// Decodes one flag payload into `(from, to, flagbytes)` entries.
fn decode_flags(payload: &[u8], flag_bytes: usize) -> Option<Vec<(NodeId, NodeId, Vec<u8>)>> {
    let mut r = PayloadReader::new(payload);
    let mut out = Vec::new();
    while !r.is_empty() {
        if r.read_u8()? != AUX_MAGIC {
            return None;
        }
        let u = r.read_u32()?;
        let count = r.read_u8()? as usize;
        for _ in 0..count {
            let v = r.read_u32()?;
            let mut bytes = Vec::with_capacity(flag_bytes);
            for _ in 0..flag_bytes {
                bytes.push(r.read_u8()?);
            }
            out.push((u, v, bytes));
        }
    }
    Some(out)
}

fn decode_splits(payload: &[u8], splits: &mut Vec<Option<f64>>) -> bool {
    let mut r = PayloadReader::new(payload);
    while !r.is_empty() {
        let Some(SPLITS_MAGIC) = r.read_u8() else {
            return false;
        };
        let (Some(start), Some(total), Some(count)) = (r.read_u16(), r.read_u16(), r.read_u8())
        else {
            return false;
        };
        if splits.is_empty() {
            splits.resize(total as usize, None);
        }
        for k in 0..count as usize {
            let Some(v) = r.read_f64() else { return false };
            if let Some(slot) = splits.get_mut(start as usize + k) {
                *slot = Some(v);
            }
        }
    }
    true
}

/// The ArcFlag client.
#[derive(Debug, Clone)]
pub struct ArcFlagClient {
    num_regions: usize,
}

impl ArcFlagClient {
    /// New client for a program with `num_regions` regions.
    pub fn new(num_regions: usize) -> Self {
        Self { num_regions }
    }
}

impl AirClient for ArcFlagClient {
    fn method_name(&self) -> &'static str {
        "ArcFlag"
    }

    fn query(&mut self, ch: &mut dyn Air, q: &Query) -> Result<QueryOutcome, QueryError> {
        let mut mem = MemoryMeter::new();
        let mut cpu = CpuMeter::new();
        if q.source == q.target {
            return Ok(QueryOutcome {
                distance: 0,
                path: vec![q.source],
                stats: QueryStats::default(),
            });
        }
        let flag_bytes = self.num_regions.div_ceil(8);
        let mut store = ReceivedGraph::new();
        let mut flags: HashMap<(NodeId, NodeId), Vec<u8>> = HashMap::new();
        let mut splits: Vec<Option<f64>> = Vec::new();
        crate::dj::receive_whole_cycle(ch, &mut mem, |kind, payload, mem| match kind {
            PacketKind::Data => {
                if let Some(charged) = store.ingest_payload(payload) {
                    mem.alloc(charged);
                }
            }
            PacketKind::Aux => {
                if let Some(entries) = decode_flags(payload, flag_bytes) {
                    for (u, v, bytes) in entries {
                        mem.alloc(16 + bytes.len());
                        flags.insert((u, v), bytes);
                    }
                }
            }
            PacketKind::Index => {
                decode_splits(payload, &mut splits);
            }
            _ => {}
        })?;

        // Region of the target (lost splits => no pruning at all, the
        // all-flags-set degradation of §6.2).
        let rt: Option<RegionId> = splits
            .iter()
            .copied()
            .collect::<Option<Vec<f64>>>()
            .map(|s| KdLocator::from_splits(s).locate(q.target_pt));

        let allowed = |u: NodeId, v: NodeId| -> bool {
            let Some(rt) = rt else { return true };
            match flags.get(&(u, v)) {
                Some(bytes) => (bytes[rt as usize / 8] >> (rt as usize % 8)) & 1 == 1,
                None => true, // lost flags: assume all bits set (§6.2)
            }
        };

        mem.alloc(store.num_nodes() * 24);
        // Flag-pruned Dijkstra over the received store.
        let (res, settled, _) = cpu.time(|| {
            store.search(
                q.source,
                Some(q.target),
                |_, _| 0,
                allowed,
                |_, _, _| ControlFlow::Continue(()),
            )
        });
        let stats = QueryStats {
            tuning_packets: ch.tuned(),
            latency_packets: ch.elapsed(),
            sleep_packets: ch.slept(),
            peak_memory_bytes: mem.peak(),
            cpu: cpu.total(),
            settled_nodes: settled as u64,
        };
        match res {
            Some((distance, path)) => Ok(QueryOutcome {
                distance,
                path,
                stats,
            }),
            None => Err(QueryError::Unreachable),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spair_broadcast::{BroadcastChannel, LossModel};
    use spair_roadnet::generators::small_grid;
    use spair_roadnet::{dijkstra_distance, MinHeap};

    fn setup(seed: u64, regions: usize) -> (RoadNetwork, ArcFlagProgram) {
        let g = small_grid(9, 9, seed);
        let part = KdTreePartition::build(&g, regions);
        let index = ArcFlagIndex::build(&g, &part);
        let program = ArcFlagServer::new(&g, &part, &index)
            .build_program()
            .expect("encode");
        (g, program)
    }

    #[test]
    fn flags_preserve_shortest_distances() {
        let g = small_grid(8, 8, 1);
        let part = KdTreePartition::build(&g, 8);
        let index = ArcFlagIndex::build(&g, &part);
        // Pruned search on the raw graph must match plain Dijkstra.
        for &(s, t) in &[(0u32, 63u32), (7, 56), (20, 43)] {
            let rt = part.region_of(t);
            let mut dist = vec![DIST_INF; g.num_nodes()];
            let mut heap = MinHeap::new();
            dist[s as usize] = 0;
            heap.push(0, s);
            while let Some(e) = heap.pop() {
                let v = e.item;
                if e.key != dist[v as usize] {
                    continue;
                }
                for eid in g.out_edge_ids(v) {
                    if !index.flag(eid, rt) {
                        continue;
                    }
                    let u = g.edge_target(eid);
                    let cand = e.key + g.edge_weight(eid) as Distance;
                    if cand < dist[u as usize] {
                        dist[u as usize] = cand;
                        heap.push(cand, u);
                    }
                }
            }
            assert_eq!(Some(dist[t as usize]), dijkstra_distance(&g, s, t));
        }
    }

    #[test]
    fn build_is_identical_across_thread_counts() {
        let g = small_grid(8, 8, 7);
        let part = KdTreePartition::build(&g, 8);
        let one = ArcFlagIndex::build_with_threads(&g, &part, 1);
        for t in [2, 4, 7] {
            let multi = ArcFlagIndex::build_with_threads(&g, &part, t);
            assert_eq!(one.flags, multi.flags, "threads={t}");
        }
    }

    #[test]
    fn client_matches_dijkstra() {
        let (g, program) = setup(2, 8);
        let mut client = ArcFlagClient::new(8);
        for &(s, t) in &[(0u32, 80u32), (9, 45), (77, 3)] {
            let mut ch = BroadcastChannel::lossless(program.cycle());
            let out = client.query(&mut ch, &Query::for_nodes(&g, s, t)).unwrap();
            assert_eq!(Some(out.distance), dijkstra_distance(&g, s, t));
        }
    }

    #[test]
    fn pruning_settles_fewer_nodes_than_dj() {
        let (g, program) = setup(3, 16);
        let dj_program = crate::dj::DjServer::new(&g).build_program();
        let q = Query::for_nodes(&g, 0, 80);
        let mut af = ArcFlagClient::new(16);
        let mut dj = crate::dj::DjClient::new();
        let mut ch1 = BroadcastChannel::lossless(program.cycle());
        let mut ch2 = BroadcastChannel::lossless(dj_program.cycle());
        let a = af.query(&mut ch1, &q).unwrap();
        let b = dj.query(&mut ch2, &q).unwrap();
        assert_eq!(a.distance, b.distance);
        assert!(a.stats.settled_nodes <= b.stats.settled_nodes);
    }

    #[test]
    fn cycle_much_longer_than_dj() {
        let (g, program) = setup(4, 16);
        let dj = crate::dj::DjServer::new(&g).build_program();
        // Paper Table 1: ArcFlag's cycle is roughly twice Dijkstra's.
        assert!(program.cycle().len() as f64 > dj.cycle().len() as f64 * 1.3);
    }

    #[test]
    fn correct_under_loss() {
        let (g, program) = setup(5, 8);
        let mut client = ArcFlagClient::new(8);
        let q = Query::for_nodes(&g, 4, 76);
        for seed in 0..3 {
            let mut ch =
                BroadcastChannel::tune_in(program.cycle(), 11, LossModel::bernoulli(0.1, seed));
            let out = client.query(&mut ch, &q).unwrap();
            assert_eq!(Some(out.distance), dijkstra_distance(&g, 4, 76));
        }
    }

    /// Decoder panic audit: every payload — random, truncated, or
    /// bit-flipped — must yield a typed reject or a partial decode,
    /// never a panic.
    mod panic_audit {
        use super::*;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        /// Real cycle payloads (flag and split records), built once.
        fn real_payloads() -> &'static [Vec<u8>] {
            static PAYLOADS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
            PAYLOADS.get_or_init(|| {
                let (_, program) = setup(2, 8);
                let cycle = program.cycle();
                (0..cycle.len().min(48))
                    .map(|i| cycle.packet(i).payload().to_vec())
                    .collect()
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn arbitrary_payloads_never_panic(
                payload in proptest::collection::vec(any::<u8>(), 0..200),
                flag_bytes in 0usize..9,
            ) {
                let _ = decode_flags(&payload, flag_bytes);
                let mut splits = Vec::new();
                let _ = decode_splits(&payload, &mut splits);
            }

            #[test]
            fn corrupted_real_payloads_never_panic(
                which in 0usize..48,
                cut in 0usize..256,
                bit in 0usize..(1 << 11),
            ) {
                let payloads = real_payloads();
                let payload = &payloads[which % payloads.len()];
                let truncated = &payload[..cut.min(payload.len())];
                let _ = decode_flags(truncated, 1);
                let mut splits = Vec::new();
                let _ = decode_splits(truncated, &mut splits);
                let mut flipped = payload.clone();
                let b = bit % (flipped.len() * 8);
                flipped[b / 8] ^= 1 << (b % 8);
                let _ = decode_flags(&flipped, 1);
                let mut splits = Vec::new();
                let _ = decode_splits(&flipped, &mut splits);
            }
        }
    }
}
