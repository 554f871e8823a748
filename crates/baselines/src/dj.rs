//! Dijkstra's algorithm on air (paper §3.2).
//!
//! No precomputation: the broadcast cycle is the raw network data and
//! nothing else — the shortest possible cycle. Selective tuning is
//! hopeless (the node Dijkstra wants next may have just been broadcast, so
//! waiting for it per-node costs up to one cycle per settled node), so the
//! client listens to the **whole** cycle from wherever it tuned in, stores
//! the entire network, and runs Dijkstra locally. Access latency never
//! exceeds one cycle; tuning time *is* the cycle; memory is the network.

use spair_broadcast::cycle::SegmentKind;
use spair_broadcast::packet::PacketKind;
use spair_broadcast::{
    Air, BroadcastCycle, CpuMeter, CycleBuilder, MemoryMeter, QueryStats, Received,
};
use spair_core::client_common::MAX_RETRY_CYCLES;
use spair_core::netcodec::{encode_nodes, ReceivedGraph};
use spair_core::patch::{ClientArena, Coverage};
use spair_core::query::{AirClient, Query, QueryError, QueryOutcome};
use spair_roadnet::{NodeId, QueuePolicy, RoadNetwork};

/// The DJ broadcast program.
#[derive(Debug)]
pub struct DjProgram {
    cycle: BroadcastCycle,
}

impl DjProgram {
    /// The broadcast cycle.
    pub fn cycle(&self) -> &BroadcastCycle {
        &self.cycle
    }
}

/// DJ server: encodes the adjacency lists, nothing more.
pub struct DjServer<'a> {
    g: &'a RoadNetwork,
}

impl<'a> DjServer<'a> {
    /// Binds the server to the network.
    pub fn new(g: &'a RoadNetwork) -> Self {
        Self { g }
    }

    /// Assembles the cycle.
    pub fn build_program(&self) -> DjProgram {
        let nodes: Vec<NodeId> = self.g.node_ids().collect();
        let mut b = CycleBuilder::new();
        b.push_segment(
            SegmentKind::NetworkData,
            PacketKind::Data,
            encode_nodes(self.g, &nodes),
        );
        DjProgram { cycle: b.finish() }
    }
}

/// Receives every packet of one full cycle starting now, handing each
/// payload to `on_payload`; lost packets are re-received in later cycles
/// (§6.2). Errors if the retry budget is exhausted. Shared by every
/// whole-cycle client (DJ here; the A*/bidirectional air methods reuse
/// it through `spair-methods`).
pub fn receive_whole_cycle(
    ch: &mut dyn Air,
    mem: &mut MemoryMeter,
    mut on_payload: impl FnMut(PacketKind, &[u8], &mut MemoryMeter),
) -> Result<(), QueryError> {
    let len = ch.cycle_len();
    let mut missing: Vec<usize> = Vec::new();
    for _ in 0..len {
        let off = ch.offset();
        match ch.receive() {
            Received::Packet(p) => on_payload(p.kind(), p.payload(), mem),
            Received::Lost | Received::Corrupted => missing.push(off),
        }
    }
    let mut rounds = 0;
    while !missing.is_empty() {
        rounds += 1;
        if rounds > MAX_RETRY_CYCLES {
            return Err(QueryError::Aborted("whole-cycle reception never completed"));
        }
        missing.sort_by_key(|&off| (off + len - ch.offset()) % len);
        let mut still = Vec::new();
        for off in missing {
            ch.sleep_to_offset(off);
            match ch.receive() {
                Received::Packet(p) => on_payload(p.kind(), p.payload(), mem),
                Received::Lost | Received::Corrupted => still.push(off),
            }
        }
        missing = still;
    }
    Ok(())
}

/// Clears `store` and receives one whole cycle of data packets into it
/// (§6.2 re-reception included), charging the meter each payload's
/// decoded-node bytes. The receive step of every client that searches the
/// whole received network: DJ here, A* and bidirectional in
/// `spair-methods`.
pub fn receive_network_data(
    ch: &mut dyn Air,
    mem: &mut MemoryMeter,
    store: &mut ReceivedGraph,
) -> Result<(), QueryError> {
    store.clear();
    receive_whole_cycle(ch, mem, |kind, payload, mem| {
        if kind == PacketKind::Data {
            if let Some(charged) = store.ingest_payload(payload) {
                mem.alloc(charged);
            }
        }
    })
}

/// The DJ client.
///
/// The client owns its received-network store and search scratch, reused
/// (via [`ReceivedGraph::clear`]) across queries — a long-lived client
/// serving many sessions allocates its decode/search buffers once.
#[derive(Debug, Clone, Default)]
pub struct DjClient {
    store: ReceivedGraph,
}

impl DjClient {
    /// New client.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the client unchanged; the [`QueuePolicy`] is ignored.
    pub fn with_queue_policy(self, _queue: QueuePolicy) -> Self {
        self
    }
}

impl AirClient for DjClient {
    fn method_name(&self) -> &'static str {
        "Dijkstra"
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
        let store = &mut self.store;
        receive_network_data(ch, &mut mem, store)?;
        mem.alloc(store.num_nodes() * 24);
        let (res, settled) = cpu.time(|| store.shortest_path(q.source, q.target));
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

    fn export_arena(&mut self) -> Option<ClientArena> {
        Some(ClientArena {
            store: std::mem::take(&mut self.store),
            coverage: Coverage::Whole,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spair_broadcast::{BroadcastChannel, LossModel};
    use spair_roadnet::dijkstra_distance;
    use spair_roadnet::generators::small_grid;

    #[test]
    fn matches_reference_dijkstra() {
        let g = small_grid(10, 10, 4);
        let program = DjServer::new(&g).build_program();
        let mut client = DjClient::new();
        for &(s, t) in &[(0u32, 99u32), (5, 50), (98, 1)] {
            let mut ch = BroadcastChannel::lossless(program.cycle());
            let out = client.query(&mut ch, &Query::for_nodes(&g, s, t)).unwrap();
            assert_eq!(Some(out.distance), dijkstra_distance(&g, s, t));
        }
    }

    #[test]
    fn tuning_time_is_exactly_one_cycle_lossless() {
        let g = small_grid(8, 8, 1);
        let program = DjServer::new(&g).build_program();
        let mut client = DjClient::new();
        let mut ch = BroadcastChannel::tune_in(program.cycle(), 13, LossModel::Lossless);
        let out = client.query(&mut ch, &Query::for_nodes(&g, 0, 63)).unwrap();
        assert_eq!(out.stats.tuning_packets as usize, program.cycle().len());
        assert_eq!(out.stats.latency_packets, out.stats.tuning_packets);
    }

    #[test]
    fn correct_under_loss_with_extra_tuning() {
        let g = small_grid(9, 9, 2);
        let program = DjServer::new(&g).build_program();
        let mut client = DjClient::new();
        let q = Query::for_nodes(&g, 0, 80);
        for seed in 0..4 {
            let mut ch =
                BroadcastChannel::tune_in(program.cycle(), 7, LossModel::bernoulli(0.1, seed));
            let out = client.query(&mut ch, &q).unwrap();
            assert_eq!(Some(out.distance), dijkstra_distance(&g, 0, 80));
            assert!(out.stats.tuning_packets as usize > program.cycle().len());
        }
    }

    #[test]
    fn memory_holds_entire_network() {
        let g = small_grid(10, 10, 7);
        let program = DjServer::new(&g).build_program();
        let mut client = DjClient::new();
        let mut ch = BroadcastChannel::lossless(program.cycle());
        let out = client.query(&mut ch, &Query::for_nodes(&g, 0, 99)).unwrap();
        // At least one decoded byte per network node.
        assert!(out.stats.peak_memory_bytes >= g.num_nodes() * 16);
    }

    #[test]
    fn unreachable_is_reported() {
        let mut b = spair_roadnet::GraphBuilder::new();
        b.add_node(spair_roadnet::Point::new(0.0, 0.0));
        b.add_node(spair_roadnet::Point::new(1.0, 0.0));
        b.add_edge(0, 1, 1); // one-way: 1 -> 0 impossible
        let g = b.finish();
        let program = DjServer::new(&g).build_program();
        let mut client = DjClient::new();
        let mut ch = BroadcastChannel::lossless(program.cycle());
        let err = client
            .query(&mut ch, &Query::for_nodes(&g, 1, 0))
            .unwrap_err();
        assert_eq!(err, QueryError::Unreachable);
    }
}
