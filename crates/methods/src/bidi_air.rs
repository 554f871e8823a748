//! Bidirectional Dijkstra on air.
//!
//! Same broadcast program as DJ — the raw network data — but the client
//! runs `spair_roadnet::bidirectional_search_paths` over the received
//! network: two simultaneous frontiers, forward from the source and
//! backward over in-edges from the target, meeting in the middle. On
//! road networks this settles roughly half the nodes of a
//! unidirectional run, so — like [`crate::astar_air`] — tuning time and
//! latency stay DJ's while client CPU drops. The library search was
//! previously reachable only from server-side precomputation; the
//! registry makes it a first-class on-air method.

use crate::received::receive_network;
use crate::{
    BroadcastMethod, ClientBootstrap, MethodDescriptor, MethodProgram, MethodUnavailable,
    SessionShape, World,
};
use spair_baselines::{DjProgram, DjServer};
use spair_broadcast::{Air, BroadcastCycle, CpuMeter, MemoryMeter};
use spair_core::client_common::{finish, same_node};
use spair_core::netcodec::ReceivedGraph;
use spair_core::patch::{ClientArena, Coverage};
use spair_core::query::{AirClient, Query, QueryError, QueryOutcome};
use spair_roadnet::bidirectional_search_paths;

/// The bidirectional-on-air descriptor.
pub const DESCRIPTOR: MethodDescriptor = MethodDescriptor {
    name: "bidi_air",
    label: "BiDijkstra",
    ordinal: 10,
    shape: Some(SessionShape::WholeCycle),
    air_client: true,
    knn: false,
    on_edge: true,
    own_channel: true,
    population_replayable: true,
    patches_incrementally: true,
    reference_cycle: None,
};

/// The bidirectional-on-air method.
pub struct BidiAir;

/// Bidi's built program (DJ's data-only cycle).
pub struct BidiMethodProgram {
    program: DjProgram,
}

impl MethodProgram for BidiMethodProgram {
    fn descriptor(&self) -> &'static MethodDescriptor {
        &DESCRIPTOR
    }

    fn cycle(&self) -> Result<&BroadcastCycle, MethodUnavailable> {
        Ok(self.program.cycle())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl BroadcastMethod for BidiAir {
    fn descriptor(&self) -> &'static MethodDescriptor {
        &DESCRIPTOR
    }

    fn build_program(&self, world: &World) -> Box<dyn MethodProgram> {
        Box::new(BidiMethodProgram {
            program: DjServer::new(&world.g).build_program(),
        })
    }

    fn make_remote_client(
        &self,
        _bootstrap: &ClientBootstrap,
    ) -> Result<Box<dyn AirClient>, MethodUnavailable> {
        Ok(Box::new(BidiAirClient::default()))
    }
}

/// The bidirectional-on-air client.
#[derive(Default)]
struct BidiAirClient {
    /// Reusable receive/search arenas (cleared per session).
    store: ReceivedGraph,
}

impl AirClient for BidiAirClient {
    fn method_name(&self) -> &'static str {
        "BiDijkstra-air"
    }

    fn query(&mut self, ch: &mut dyn Air, q: &Query) -> Result<QueryOutcome, QueryError> {
        let mut mem = MemoryMeter::new();
        let mut cpu = CpuMeter::new();
        if let Some(out) = same_node(q) {
            return Ok(out);
        }
        let net = receive_network(ch, &mut mem, &mut self.store)?;
        let (Some(s), Some(t)) = (net.dense(q.source), net.dense(q.target)) else {
            return Err(QueryError::Unreachable);
        };
        let (res, stats) = cpu.time(|| bidirectional_search_paths(&net.g, s, t));
        let res = res.map(|(distance, path)| (distance, net.path_to_orig(&path)));
        finish(ch, &mem, &cpu, stats.settled, res)
    }

    fn export_arena(&mut self) -> Option<ClientArena> {
        Some(ClientArena {
            store: std::mem::take(&mut self.store),
            coverage: Coverage::Whole,
        })
    }
}
