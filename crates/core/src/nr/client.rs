//! Client-side NR query processing (§5.2, Algorithm 2) with the §6.2 loss
//! recovery rules.

use crate::client_common::{
    find_next_index, finish, ingest, ingest_segment, rereceive, same_node, RetryOrder,
    MAX_RETRY_CYCLES,
};
use crate::netcodec::ReceivedGraph;
use crate::nr::index::{parse_header, NrIndexDecoder, NrSharedState, NO_NEXT};
use crate::nr::server::NrSummary;
use crate::patch::{ClientArena, Coverage};
use crate::query::{AirClient, Query, QueryError, QueryOutcome};
use spair_broadcast::packet::PacketKind;
use spair_broadcast::{Air, CpuMeter, MemoryMeter, Received};
use spair_partition::{KdLocator, RegionId};

/// The NR client.
#[derive(Debug, Clone)]
pub struct NrClient {
    summary: NrSummary,
    /// Last session's received arena, retained for [`AirClient::export_arena`]
    /// (dynamic worlds patch it in place instead of re-tuning).
    store: ReceivedGraph,
    /// Regions the last session received data from, ascending.
    held: Vec<u16>,
    /// The local-index decoder every hop of every session reuses.
    index: NrIndexDecoder,
}

/// What [`NrClient::receive_local_index`] ran into after the copy.
enum Overrun {
    /// Copy fully consumed; positioned at the packet after it.
    None,
    /// Consumed one packet past the copy (a data packet): its cycle offset
    /// and payload, if it arrived intact.
    DataPacket(usize, Option<bytes::Bytes>),
    /// Could not even establish the copy extent (heavy loss).
    Unknown,
}

impl NrClient {
    /// New client for an NR broadcast program.
    pub fn new(summary: NrSummary) -> Self {
        Self {
            summary,
            store: ReceivedGraph::new(),
            held: Vec::new(),
            index: NrIndexDecoder::new(),
        }
    }

    /// Receives one local-index copy starting at (or inside) the current
    /// offset into `dec`. Uses the per-packet `seq`/`total` header to know
    /// when the copy ends even when tuning in mid-copy or losing packets.
    fn receive_local_index(
        ch: &mut dyn Air,
        dec: &mut NrIndexDecoder,
        shared: &mut NrSharedState,
        missing: &mut Vec<usize>,
    ) -> Overrun {
        dec.reset();
        let mut remaining: Option<usize> = None;
        let mut blind = 0usize;
        loop {
            if remaining == Some(0) {
                return Overrun::None;
            }
            let off = ch.offset();
            match ch.receive() {
                Received::Packet(p) => {
                    if p.kind() == PacketKind::LocalIndex {
                        if let Some(h) = parse_header(p.payload()) {
                            dec.ingest(p.payload(), shared);
                            remaining = Some((h.total as usize).saturating_sub(h.seq as usize + 1));
                            continue;
                        }
                    }
                    // Ran past the index into region data.
                    return Overrun::DataPacket(off, Some(p.payload().clone()));
                }
                Received::Lost | Received::Corrupted => {
                    match remaining.as_mut() {
                        Some(r) => *r -= 1,
                        None => {
                            // The lost packet may have been region data;
                            // schedule it for recovery (the recovery loop
                            // drops offsets that turn out to be index
                            // packets).
                            missing.push(off);
                            blind += 1;
                            if blind > 32 {
                                return Overrun::Unknown;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Loss fallback: listen packet-by-packet (ingesting any intact data
    /// records on the way) until a local-index packet starts, then receive
    /// that index into `dec`. `false` if no index started.
    fn crawl_to_next_index(
        ch: &mut dyn Air,
        dec: &mut NrIndexDecoder,
        store: &mut ReceivedGraph,
        shared: &mut NrSharedState,
        mem: &mut MemoryMeter,
        missing: &mut Vec<usize>,
    ) -> bool {
        for _ in 0..2 * ch.cycle_len().max(64) {
            let off = ch.offset();
            match ch.receive() {
                Received::Packet(p) if p.kind() == PacketKind::LocalIndex => {
                    dec.reset();
                    let mut remaining = match parse_header(p.payload()) {
                        Some(h) => {
                            dec.ingest(p.payload(), shared);
                            (h.total as usize).saturating_sub(h.seq as usize + 1)
                        }
                        None => 0,
                    };
                    while remaining > 0 {
                        if let Received::Packet(q) = ch.receive() {
                            if q.kind() == PacketKind::LocalIndex {
                                if let Some(h) = parse_header(q.payload()) {
                                    dec.ingest(q.payload(), shared);
                                    remaining =
                                        (h.total as usize).saturating_sub(h.seq as usize + 1);
                                    continue;
                                }
                            }
                            break;
                        }
                        remaining -= 1;
                    }
                    return true;
                }
                Received::Packet(p) if p.kind() == PacketKind::Data => {
                    ingest(store, mem, p);
                }
                Received::Lost | Received::Corrupted => missing.push(off),
                _ => {}
            }
        }
        false
    }

    /// Receives region `r`'s data given its offset entry; lost packets are
    /// appended to `missing` as absolute cycle offsets. `pre_consumed` is
    /// the offset of a data packet an index overrun already consumed (and
    /// already ingested/recorded): if it was this region's first packet,
    /// reception starts one packet later instead of wrapping a full cycle.
    ///
    /// The cross-border segment is always received; the local segment only
    /// when `include_local` (terminal regions, §4.1) — otherwise the
    /// client sleeps over it and wakes at the next local index. Either
    /// way the channel ends positioned at the local index that follows.
    fn receive_region_data(
        ch: &mut dyn Air,
        entry: &crate::nr::index::NrOffsetEntry,
        include_local: bool,
        pre_consumed: Option<usize>,
        store: &mut ReceivedGraph,
        mem: &mut MemoryMeter,
        missing: &mut Vec<usize>,
    ) {
        let len = ch.cycle_len();
        let offset = entry.data_offset as usize;
        let packets = if include_local {
            entry.data_packets()
        } else {
            entry.cross_packets as usize
        };
        let mut start = offset;
        let mut count = packets;
        if pre_consumed == Some(offset) {
            start = (offset + 1) % len;
            count = packets.saturating_sub(1);
        }
        ingest_segment(ch, start, count, store, mem, missing);
        if !include_local {
            ch.sleep_to_offset((offset + entry.data_packets()) % len);
        }
    }
}

/// Ingests (or records as missing) a data packet that an index reception
/// overran into, returning its offset for start-adjustment.
fn drain_overrun(
    overrun: &mut Overrun,
    store: &mut ReceivedGraph,
    mem: &mut MemoryMeter,
    missing: &mut Vec<usize>,
) -> Option<usize> {
    match std::mem::replace(overrun, Overrun::None) {
        Overrun::DataPacket(off, payload) => {
            match payload.and_then(|p| store.ingest_payload(&p)) {
                Some(charged) => mem.alloc(charged),
                None => missing.push(off),
            }
            Some(off)
        }
        _ => None,
    }
}

impl AirClient for NrClient {
    fn method_name(&self) -> &'static str {
        "NR"
    }

    fn query(&mut self, ch: &mut dyn Air, q: &Query) -> Result<QueryOutcome, QueryError> {
        let mut mem = MemoryMeter::new();
        let mut cpu = CpuMeter::new();
        if let Some(out) = same_node(q) {
            return Ok(out);
        }

        let n = self.summary.num_regions as RegionId;
        let mut shared = NrSharedState::default();
        let mut store = std::mem::take(&mut self.store);
        store.clear();
        let mut received = vec![false; n as usize];
        let mut missing: Vec<usize> = Vec::new();
        let mut rs_rt: Option<(RegionId, RegionId)> = None;
        let mut charged_index = false;

        // Step 1 (Algorithm 2, lines 1-7): current packet -> pointer ->
        // first local index.
        let Some(first_off) = find_next_index(ch, 10_000) else {
            return Err(QueryError::Aborted("no index on channel"));
        };
        ch.sleep_to_offset(first_off);
        let mut current = std::mem::take(&mut self.index);
        let mut overrun = Self::receive_local_index(ch, &mut current, &mut shared, &mut missing);

        // First region the cell chain named (Algorithm 2's `first_region`).
        let mut chain_first: Option<RegionId> = None;
        let mut hops = 0usize;
        loop {
            hops += 1;
            if hops > 8 * n as usize + MAX_RETRY_CYCLES {
                return Err(QueryError::Aborted("NR hop budget exhausted"));
            }

            if rs_rt.is_none() {
                if let Some(splits) = shared.complete_splits() {
                    let locator = cpu.time(|| KdLocator::from_splits(splits));
                    rs_rt = Some((locator.locate(q.source_pt), locator.locate(q.target_pt)));
                    if !charged_index {
                        mem.alloc(shared.retained_bytes() + 2 * n as usize);
                        charged_index = true;
                    }
                }
            }

            // Decide the next region from this index's (Rs, Rt) cell.
            let cell = rs_rt.and_then(|(rs, rt)| current.cell(rs, rt));
            let cur_region = current.region;

            match cell {
                Some(next) if next != NO_NEXT => {
                    // Algorithm 2's stop condition: the hop chain wraps
                    // back to its first region. Stopping at *any* already
                    // received region would be wrong — a §6.2 fallback may
                    // have pre-received a region mid-chain, and breaking
                    // there would skip the needed regions after it.
                    match chain_first {
                        None => chain_first = Some(next),
                        Some(first) if first == next && received[next as usize] => break,
                        _ => {}
                    }
                    match shared.offsets.get(next as usize).copied().flatten() {
                        Some(e) => {
                            let pre =
                                drain_overrun(&mut overrun, &mut store, &mut mem, &mut missing);
                            if !received[next as usize] {
                                // §4.1 split: only terminal regions need
                                // their local segment.
                                let terminal =
                                    rs_rt.is_none_or(|(rs, rt)| next == rs || next == rt);
                                Self::receive_region_data(
                                    ch,
                                    &e,
                                    terminal,
                                    pre,
                                    &mut store,
                                    &mut mem,
                                    &mut missing,
                                );
                                received[next as usize] = true;
                            } else {
                                // Already held (pre-received by a loss
                                // fallback): skip its data, wake up at the
                                // local index that follows it.
                                ch.sleep_to_offset(
                                    (e.data_offset as usize + e.data_packets()) % ch.cycle_len(),
                                );
                            }
                            // The next local index follows contiguously.
                            overrun = Self::receive_local_index(
                                ch,
                                &mut current,
                                &mut shared,
                                &mut missing,
                            );
                        }
                        None => {
                            // Offset entry lost: crawl to the next index,
                            // healing the table from its copy.
                            drain_overrun(&mut overrun, &mut store, &mut mem, &mut missing);
                            if !Self::crawl_to_next_index(
                                ch,
                                &mut current,
                                &mut store,
                                &mut shared,
                                &mut mem,
                                &mut missing,
                            ) {
                                return Err(QueryError::Aborted("NR crawl failed"));
                            }
                            overrun = Overrun::None;
                        }
                    }
                }
                _ => {
                    // Cell lost / splits incomplete / sentinel: §6.2 —
                    // receive the current index's own region anyway and
                    // continue with the following index.
                    let fallback = cur_region.and_then(|m| {
                        shared
                            .offsets
                            .get(m as usize)
                            .copied()
                            .flatten()
                            .map(|e| (m, e))
                    });
                    match fallback {
                        Some((m, e)) => {
                            let pre =
                                drain_overrun(&mut overrun, &mut store, &mut mem, &mut missing);
                            // Conservative under loss: take the local
                            // segment too (the region might be terminal).
                            Self::receive_region_data(
                                ch,
                                &e,
                                true,
                                pre,
                                &mut store,
                                &mut mem,
                                &mut missing,
                            );
                            received[m as usize] = true;
                            overrun = Self::receive_local_index(
                                ch,
                                &mut current,
                                &mut shared,
                                &mut missing,
                            );
                        }
                        None => {
                            drain_overrun(&mut overrun, &mut store, &mut mem, &mut missing);
                            if !Self::crawl_to_next_index(
                                ch,
                                &mut current,
                                &mut store,
                                &mut shared,
                                &mut mem,
                                &mut missing,
                            ) {
                                return Err(QueryError::Aborted("NR crawl failed"));
                            }
                            overrun = Overrun::None;
                        }
                    }
                }
            }
        }

        // §6.2: lost region-data packets are re-received in later cycles.
        // A slot that turns out to hold an index packet has nothing to
        // recover, and a data payload that does not ingest is not retried.
        let why = "NR region data never completed";
        rereceive(ch, missing, RetryOrder::NearestFirst, why, |_, p| {
            if p.kind() == PacketKind::Data {
                ingest(&mut store, &mut mem, p);
            }
            Ok(true)
        })?;

        mem.alloc(store.num_nodes() * 24);
        let (res, settled) = cpu.time(|| store.shortest_path(q.source, q.target));
        self.held = received
            .iter()
            .enumerate()
            .filter_map(|(r, &got)| got.then_some(r as u16))
            .collect();
        self.store = store;
        self.index = current;
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
    use crate::nr::server::NrServer;
    use crate::precompute::BorderPrecomputation;
    use spair_broadcast::{BroadcastChannel, LossModel};
    use spair_partition::KdTreePartition;
    use spair_roadnet::generators::small_grid;
    use spair_roadnet::{dijkstra_distance, RoadNetwork};

    fn setup(seed: u64, regions: usize) -> (RoadNetwork, crate::nr::NrProgram) {
        let g = small_grid(12, 12, seed);
        let part = KdTreePartition::build(&g, regions);
        let pre = BorderPrecomputation::run(&g, &part);
        let program = NrServer::new(&g, &part, &pre)
            .build_program()
            .expect("encode");
        (g, program)
    }

    #[test]
    fn matches_dijkstra_on_many_queries() {
        let (g, program) = setup(21, 8);
        let mut client = NrClient::new(program.summary());
        for (i, &(s, t)) in [(0u32, 143u32), (5, 77), (130, 2), (60, 61), (1, 0)]
            .iter()
            .enumerate()
        {
            let mut ch = BroadcastChannel::tune_in(program.cycle(), i * 53, LossModel::Lossless);
            let q = Query::for_nodes(&g, s, t);
            let out = client.query(&mut ch, &q).unwrap();
            assert_eq!(Some(out.distance), dijkstra_distance(&g, s, t), "{s}->{t}");
            assert_eq!(out.path.first(), Some(&s));
            assert_eq!(out.path.last(), Some(&t));
        }
    }

    #[test]
    fn tunes_fewer_packets_than_eb_on_short_paths() {
        let g = small_grid(14, 14, 31);
        let part = KdTreePartition::build(&g, 16);
        let pre = BorderPrecomputation::run(&g, &part);
        let nr_program = NrServer::new(&g, &part, &pre)
            .build_program()
            .expect("encode");
        let eb_program = crate::eb::EbServer::new(&g, &part, &pre)
            .build_program()
            .expect("encode");
        let q = Query::for_nodes(&g, 0, 17);
        let mut nr = NrClient::new(nr_program.summary());
        let mut eb = crate::eb::EbClient::new(eb_program.summary());
        let mut ch_nr = BroadcastChannel::lossless(nr_program.cycle());
        let mut ch_eb = BroadcastChannel::lossless(eb_program.cycle());
        let a = nr.query(&mut ch_nr, &q).unwrap();
        let b = eb.query(&mut ch_eb, &q).unwrap();
        assert_eq!(a.distance, b.distance);
        assert!(
            a.stats.tuning_packets <= b.stats.tuning_packets + 40,
            "NR {} vs EB {}",
            a.stats.tuning_packets,
            b.stats.tuning_packets
        );
    }

    #[test]
    fn latency_within_two_cycles_lossless() {
        let (g, program) = setup(5, 8);
        let mut client = NrClient::new(program.summary());
        let mut ch = BroadcastChannel::tune_in(program.cycle(), 311, LossModel::Lossless);
        let q = Query::for_nodes(&g, 7, 140);
        let out = client.query(&mut ch, &q).unwrap();
        assert!(
            (out.stats.latency_packets as usize) <= 2 * program.cycle().len(),
            "latency {} vs cycle {}",
            out.stats.latency_packets,
            program.cycle().len()
        );
    }

    #[test]
    fn correct_under_packet_loss() {
        let (g, program) = setup(7, 8);
        let mut client = NrClient::new(program.summary());
        for seed in 0..6 {
            let mut ch = BroadcastChannel::tune_in(
                program.cycle(),
                29 * seed as usize,
                LossModel::bernoulli(0.05, seed),
            );
            let q = Query::for_nodes(&g, 3, 137);
            let out = client.query(&mut ch, &q).unwrap();
            assert_eq!(
                Some(out.distance),
                dijkstra_distance(&g, 3, 137),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn correct_under_heavy_loss() {
        let (g, program) = setup(17, 4);
        let mut client = NrClient::new(program.summary());
        let q = Query::for_nodes(&g, 10, 120);
        for seed in 0..4 {
            let mut ch =
                BroadcastChannel::tune_in(program.cycle(), 0, LossModel::bernoulli(0.10, seed));
            let out = client.query(&mut ch, &q).unwrap();
            assert_eq!(Some(out.distance), dijkstra_distance(&g, 10, 120));
        }
    }

    #[test]
    fn trivial_same_node_query() {
        let (g, program) = setup(2, 8);
        let mut client = NrClient::new(program.summary());
        let mut ch = BroadcastChannel::lossless(program.cycle());
        let q = Query::for_nodes(&g, 9, 9);
        let out = client.query(&mut ch, &q).unwrap();
        assert_eq!(out.distance, 0);
    }

    #[test]
    fn every_tune_in_offset_works() {
        let (g, program) = setup(9, 8);
        let mut client = NrClient::new(program.summary());
        let q = Query::for_nodes(&g, 20, 100);
        let want = dijkstra_distance(&g, 20, 100);
        let len = program.cycle().len();
        for k in 0..12 {
            let mut ch =
                BroadcastChannel::tune_in(program.cycle(), k * len / 12, LossModel::Lossless);
            let out = client.query(&mut ch, &q).unwrap();
            assert_eq!(Some(out.distance), want, "offset {}", k * len / 12);
        }
    }
}
