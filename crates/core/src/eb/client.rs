//! Client-side EB query processing (§4.2, Algorithm 1) with the §6.2 loss
//! recovery rules.

use crate::client_common::{
    find_next_index, finish, ingest, ingest_segment, rereceive, same_node, RetryOrder,
    MAX_RETRY_CYCLES,
};
use crate::eb::index::EbIndexDecoder;
use crate::eb::server::EbSummary;
use crate::netcodec::ReceivedGraph;
use crate::patch::{ClientArena, Coverage};
use crate::query::{AirClient, Query, QueryError, QueryOutcome};
use spair_broadcast::packet::PacketKind;
use spair_broadcast::{Air, CpuMeter, MemoryMeter, Received};
use spair_partition::{KdLocator, RegionId};
use spair_roadnet::DIST_INF;

/// The EB client. One instance can serve many queries; between queries it
/// holds the method summary plus the last session's received arena (the
/// [`AirClient::export_arena`] hook for dynamic worlds).
#[derive(Debug, Clone)]
pub struct EbClient {
    summary: EbSummary,
    /// Last session's received arena.
    store: ReceivedGraph,
    /// Regions the last session received data from, ascending.
    held: Vec<u16>,
}

impl EbClient {
    /// New client for an EB broadcast program.
    pub fn new(summary: EbSummary) -> Self {
        Self {
            summary,
            store: ReceivedGraph::new(),
            held: Vec::new(),
        }
    }

    /// Receives one full index copy starting at `index_offset`, ingesting
    /// whatever arrives. Returns the number of packets the copy spans, or
    /// `None` when not even one packet of the copy could be decoded.
    fn receive_index_copy(
        &self,
        ch: &mut dyn Air,
        index_offset: usize,
        dec: &mut EbIndexDecoder,
    ) -> Option<usize> {
        ch.sleep_to_offset(index_offset);
        // Length is learned from the first successfully received packet's
        // header; until then, receive packet by packet. Only packets the
        // channel marks as index packets are ingested: when every header
        // packet of the copy is lost (a burst can wipe the whole copy),
        // reception overruns into region data, and a data payload whose
        // first byte aliases the index magic would otherwise poison the
        // decoder's region count — found by the load harness's bursty
        // populations as sporadic wrong-region locates.
        let mut received = 0usize;
        let mut total: Option<usize> = dec.total_packets.map(|t| t as usize);
        loop {
            if let Some(t) = total {
                if received >= t {
                    return Some(t);
                }
            }
            match ch.receive() {
                Received::Packet(p) if p.kind() == PacketKind::Index => {
                    dec.ingest(p.payload());
                    total = dec.total_packets.map(|t| t as usize);
                }
                Received::Packet(_) => {
                    // Ran past the copy's end without ever learning its
                    // length: give up; the caller retries at the next copy.
                    return None;
                }
                Received::Lost | Received::Corrupted => {
                    if total.is_none() && received > 8 {
                        // Pathological: many leading losses and length
                        // unknown. Give up on this copy as well.
                        return None;
                    }
                }
            }
            received += 1;
        }
    }

    /// True when the decoder holds every value this query needs: all
    /// splits, row `rs` and column `rt` of the matrix (§6.2's light-gray
    /// cells in Figure 9), and the offset entries of all candidate
    /// regions.
    fn index_complete(dec: &EbIndexDecoder, rs: RegionId, rt: RegionId) -> bool {
        let Some(n) = dec.num_regions() else {
            return false;
        };
        if dec.splits().is_none() {
            return false;
        }
        for r in 0..n as RegionId {
            if dec.minmax(rs, r).is_none() || dec.minmax(r, rt).is_none() {
                return false;
            }
            if dec.region_entry(r).is_none() {
                return false;
            }
        }
        true
    }
}

impl AirClient for EbClient {
    fn method_name(&self) -> &'static str {
        "EB"
    }

    fn query(&mut self, ch: &mut dyn Air, q: &Query) -> Result<QueryOutcome, QueryError> {
        let mut mem = MemoryMeter::new();
        let mut cpu = CpuMeter::new();

        if let Some(out) = same_node(q) {
            return Ok(out);
        }

        // Phase 1: index. Listen for the pointer, receive a copy; on any
        // loss that touches needed values, wait for the next copy (§6.2).
        let mut dec = EbIndexDecoder::new();
        let mut rs_rt: Option<(RegionId, RegionId)> = None;
        let mut attempts = 0;
        let (rs, rt) = loop {
            attempts += 1;
            if attempts > MAX_RETRY_CYCLES {
                return Err(QueryError::Aborted("EB index never completed"));
            }
            let Some(idx_off) = find_next_index(ch, 10_000) else {
                return Err(QueryError::Aborted("no index on channel"));
            };
            self.receive_index_copy(ch, idx_off, &mut dec);
            // Locate Rs/Rt as soon as the splits are whole.
            if rs_rt.is_none() {
                if let Some(splits) = dec.splits() {
                    let locator = cpu.time(|| KdLocator::from_splits(splits));
                    rs_rt = Some((locator.locate(q.source_pt), locator.locate(q.target_pt)));
                }
            }
            if let Some((rs, rt)) = rs_rt {
                if Self::index_complete(&dec, rs, rt) {
                    break (rs, rt);
                }
            }
        };
        let n = dec
            .num_regions()
            .ok_or(QueryError::Aborted("EB index lost its region count"))?
            as RegionId;
        debug_assert_eq!(n as usize, self.summary.num_regions);
        mem.alloc(dec.retained_bytes());

        // Phase 2: prune (§4.2). UB = max(Rs,Rt); keep R iff
        // min(Rs,R) + min(R,Rt) <= UB, plus the terminal regions.
        let ub = dec
            .minmax(rs, rt)
            .ok_or(QueryError::Aborted("EB minmax row incomplete"))?
            .max;
        let mut needed: Vec<RegionId> = cpu.time(|| {
            let mut v = Vec::new();
            for r in 0..n {
                if r == rs || r == rt {
                    v.push(r);
                    continue;
                }
                let (Some(row), Some(col)) = (dec.minmax(rs, r), dec.minmax(r, rt)) else {
                    return Err(QueryError::Aborted("EB minmax row incomplete"));
                };
                let (a, b) = (row.min, col.min);
                if a != DIST_INF && b != DIST_INF && a + b <= ub {
                    v.push(r);
                }
            }
            Ok(v)
        })?;
        // Degenerate pair (no border connectivity recorded): fall back to
        // receiving everything — correctness over pruning.
        if ub == 0 && rs != rt {
            needed = (0..n).collect();
        }

        // Phase 3: receive needed regions in broadcast order from the
        // current position (Algorithm 1's "next region to be broadcast").
        let here = ch.offset();
        let len = ch.cycle_len();
        let mut entries = Vec::with_capacity(needed.len());
        for &r in &needed {
            let e = dec
                .region_entry(r)
                .ok_or(QueryError::Aborted("EB region entry missing"))?;
            entries.push((r, e));
        }
        entries.sort_by_key(|&(_, e)| (e.data_offset as usize + len - here) % len);

        let mut store = std::mem::take(&mut self.store);
        store.clear();
        let mut missing: Vec<usize> = Vec::new(); // absolute offsets lost
        for &(r, e) in &entries {
            let take = if r == rs || r == rt {
                e.cross_packets as usize + e.local_packets as usize
            } else {
                e.cross_packets as usize // §4.1: skip the local segment
            };
            let offset = e.data_offset as usize;
            ingest_segment(ch, offset, take, &mut store, &mut mem, &mut missing);
        }
        // §6.2: lost region data must be received in a later cycle.
        let why = "EB region data never completed";
        rereceive(ch, missing, RetryOrder::NearestFirst, why, |_, p| {
            Ok(ingest(&mut store, &mut mem, p))
        })?;

        // Phase 4: Dijkstra over the union of received regions (§4.2
        // guarantees the answer is correct for the whole network).
        mem.alloc(store.num_nodes() * 24); // dist/parent search state
        let (res, settled) = cpu.time(|| store.shortest_path(q.source, q.target));
        self.held = {
            let mut h: Vec<u16> = needed.to_vec();
            h.sort_unstable();
            h
        };
        self.store = store;
        finish(ch, &mem, &cpu, settled, res)
    }

    fn export_arena(&mut self) -> Option<ClientArena> {
        Some(ClientArena {
            store: std::mem::take(&mut self.store),
            coverage: Coverage::Regions(std::mem::take(&mut self.held)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eb::server::EbServer;
    use crate::precompute::BorderPrecomputation;
    use spair_broadcast::{BroadcastChannel, LossModel};
    use spair_partition::KdTreePartition;
    use spair_roadnet::generators::small_grid;
    use spair_roadnet::{dijkstra_distance, RoadNetwork};

    fn setup(seed: u64, regions: usize) -> (RoadNetwork, crate::eb::EbProgram) {
        let g = small_grid(12, 12, seed);
        let part = KdTreePartition::build(&g, regions);
        let pre = BorderPrecomputation::run(&g, &part);
        let program = EbServer::new(&g, &part, &pre)
            .build_program()
            .expect("encode");
        (g, program)
    }

    #[test]
    fn matches_dijkstra_on_many_queries() {
        let (g, program) = setup(11, 8);
        let mut client = EbClient::new(program.summary());
        for (i, &(s, t)) in [(0u32, 143u32), (5, 77), (130, 2), (60, 61), (0, 1)]
            .iter()
            .enumerate()
        {
            let mut ch = BroadcastChannel::tune_in(
                program.cycle(),
                i * 37, // vary tune-in position
                LossModel::Lossless,
            );
            let q = Query::for_nodes(&g, s, t);
            let out = client.query(&mut ch, &q).unwrap();
            assert_eq!(Some(out.distance), dijkstra_distance(&g, s, t));
            assert_eq!(out.path.first(), Some(&s));
            assert_eq!(out.path.last(), Some(&t));
        }
    }

    #[test]
    fn tunes_fewer_packets_than_cycle() {
        let (g, program) = setup(3, 16);
        let mut client = EbClient::new(program.summary());
        // A short-range query should skip most regions.
        let mut ch = BroadcastChannel::lossless(program.cycle());
        let q = Query::for_nodes(&g, 0, 13);
        let out = client.query(&mut ch, &q).unwrap();
        assert!(
            (out.stats.tuning_packets as usize) < program.cycle().len(),
            "tuning {} vs cycle {}",
            out.stats.tuning_packets,
            program.cycle().len()
        );
        assert!(out.stats.peak_memory_bytes > 0);
    }

    #[test]
    fn latency_within_two_cycles_lossless() {
        let (g, program) = setup(5, 8);
        let mut client = EbClient::new(program.summary());
        let mut ch = BroadcastChannel::tune_in(program.cycle(), 123, LossModel::Lossless);
        let q = Query::for_nodes(&g, 7, 140);
        let out = client.query(&mut ch, &q).unwrap();
        // Paper: latency does not exceed one broadcast cycle (plus the
        // initial wait for the index).
        assert!(
            (out.stats.latency_packets as usize) <= 2 * program.cycle().len(),
            "latency {}",
            out.stats.latency_packets
        );
    }

    #[test]
    fn correct_under_packet_loss() {
        let (g, program) = setup(7, 8);
        let mut client = EbClient::new(program.summary());
        for seed in 0..5 {
            let mut ch = BroadcastChannel::tune_in(
                program.cycle(),
                19 * seed as usize,
                LossModel::bernoulli(0.05, seed),
            );
            let q = Query::for_nodes(&g, 3, 137);
            let out = client.query(&mut ch, &q).unwrap();
            assert_eq!(Some(out.distance), dijkstra_distance(&g, 3, 137));
        }
    }

    #[test]
    fn loss_increases_tuning_time() {
        let (g, program) = setup(9, 8);
        let mut client = EbClient::new(program.summary());
        let q = Query::for_nodes(&g, 2, 141);
        let mut ch = BroadcastChannel::lossless(program.cycle());
        let clean = client.query(&mut ch, &q).unwrap().stats.tuning_packets;
        let mut sum = 0;
        for seed in 0..5 {
            let mut ch =
                BroadcastChannel::tune_in(program.cycle(), 0, LossModel::bernoulli(0.1, seed));
            sum += client.query(&mut ch, &q).unwrap().stats.tuning_packets;
        }
        assert!(sum / 5 >= clean);
    }

    #[test]
    fn trivial_same_node_query() {
        let (g, program) = setup(2, 8);
        let mut client = EbClient::new(program.summary());
        let mut ch = BroadcastChannel::lossless(program.cycle());
        let q = Query::for_nodes(&g, 9, 9);
        let out = client.query(&mut ch, &q).unwrap();
        assert_eq!(out.distance, 0);
        assert_eq!(out.stats.tuning_packets, 0);
    }

    #[test]
    fn same_region_query_is_correct() {
        let (g, program) = setup(13, 8);
        let mut client = EbClient::new(program.summary());
        // Adjacent node ids are usually spatially close => same region.
        let mut ch = BroadcastChannel::lossless(program.cycle());
        let q = Query::for_nodes(&g, 40, 41);
        let out = client.query(&mut ch, &q).unwrap();
        assert_eq!(Some(out.distance), dijkstra_distance(&g, 40, 41));
    }
}
