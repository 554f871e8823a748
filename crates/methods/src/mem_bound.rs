//! The §6.1 memory-bound runner behind the [`BroadcastMethod`] trait.
//!
//! This method broadcasts **no cycle of its own**: it re-processes NR's
//! region data through the client-side super-edge contraction, so its
//! descriptor says `own_channel: false` and names `nr` as the reference
//! whose cycle length its cell reports quote — explicitly, instead of the
//! old engine's silent "return NR's cycle and hope the caller knows"
//! aliasing. Channel costs are not simulated (the data is NR's own
//! region set); the stats carry the contraction's memory/CPU, which is
//! the quantity §6.1 is about.

use crate::{BroadcastMethod, MethodDescriptor, MethodProgram, MethodUnavailable, World};
use spair_broadcast::{BroadcastCycle, QueryStats};
use spair_core::netcodec::{decode_payload, encode_nodes_with_borders, ReceivedGraph};
use spair_core::query::{Query, QueryError, QueryOutcome};
use spair_core::{BorderPrecomputation, MemoryBoundProcessor};
use spair_partition::{KdTreePartition, Partitioning};
use spair_roadnet::NodeId;
use std::sync::Arc;

/// The memory-bound runner's descriptor.
pub const DESCRIPTOR: MethodDescriptor = MethodDescriptor {
    name: "nr_mem_bound",
    label: "NR mem-bound",
    ordinal: 7,
    shape: None,
    air_client: false,
    knn: false,
    on_edge: true,
    own_channel: false,
    population_replayable: false,
    patches_incrementally: false,
    reference_cycle: Some("nr"),
};

/// The memory-bound method.
pub struct NrMemBound;

/// The memory-bound "program": the fully decoded region store (what a
/// lossless NR client would hold) plus the partition/precomputation
/// needed to contract it. Cell reports quote the reference (`nr`)
/// cycle's length — the harness resolves that through its program set
/// (`ScenarioContext::reported_cycle_packets`), reusing an
/// already-built NR program instead of this method building its own.
pub struct MemBoundProgram {
    part: Arc<KdTreePartition>,
    pre: Arc<BorderPrecomputation>,
    store: ReceivedGraph,
}

impl MethodProgram for MemBoundProgram {
    fn descriptor(&self) -> &'static MethodDescriptor {
        &DESCRIPTOR
    }

    fn cycle(&self) -> Result<&BroadcastCycle, MethodUnavailable> {
        Err(MethodUnavailable::NoOwnChannel {
            method: DESCRIPTOR.name,
            reference: "nr",
        })
    }

    fn local_answer(&self, q: &Query) -> Option<Result<QueryOutcome, QueryError>> {
        let rs = self.part.region_of(q.source);
        let rt = self.part.region_of(q.target);
        let mut proc = MemoryBoundProcessor::with_paths();
        for r in self.pre.needed_regions(rs, rt).iter() {
            let nodes = &self.part.nodes_by_region()[r as usize];
            let terminals: Vec<NodeId> = [q.source, q.target]
                .iter()
                .copied()
                .filter(|v| nodes.contains(v))
                .collect();
            proc.add_region(&self.store, nodes, &terminals);
        }
        Some(match proc.shortest_path(q.source, q.target) {
            Some((distance, path)) => Ok(QueryOutcome {
                distance,
                path,
                stats: QueryStats {
                    peak_memory_bytes: proc.mem.peak(),
                    cpu: proc.cpu.total(),
                    ..QueryStats::default()
                },
            }),
            None => Err(QueryError::Unreachable),
        })
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl BroadcastMethod for NrMemBound {
    fn descriptor(&self) -> &'static MethodDescriptor {
        &DESCRIPTOR
    }

    fn build_program(&self, world: &World) -> Box<dyn MethodProgram> {
        // Decode every region's broadcast payloads into one store — the
        // §6.1 runner contracts regions straight from this data.
        let mut store = ReceivedGraph::new();
        for r in 0..world.part.num_regions() {
            let nodes = &world.part.nodes_by_region()[r];
            for payload in
                encode_nodes_with_borders(&world.g, nodes, |v| world.pre.borders().is_border(v))
            {
                for rec in decode_payload(&payload).expect("server-encoded payload") {
                    store.ingest(rec);
                }
            }
        }
        Box::new(MemBoundProgram {
            part: world.part.clone(),
            pre: world.pre.clone(),
            store,
        })
    }
}
