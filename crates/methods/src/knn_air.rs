//! The §8 on-air kNN client behind the [`BroadcastMethod`] trait.
//!
//! Not an [`AirClient`]: its query
//! signature differs (source position, `k`), so it runs the `knn`
//! portion of a workload through [`crate::KnnAirClient`].

use crate::{
    BroadcastMethod, KnnAirClient, MethodDescriptor, MethodProgram, MethodUnavailable, World,
};
use spair_broadcast::{BroadcastChannel, BroadcastCycle};
use spair_core::knn::KnnOutcome;
use spair_core::query::QueryError;
use spair_core::{KnnClient, KnnProgram, KnnServer};
use spair_partition::Partitioning;
use spair_roadnet::{NodeId, Point};

/// The kNN method's descriptor.
pub const DESCRIPTOR: MethodDescriptor = MethodDescriptor {
    name: "knn_air",
    label: "kNN",
    ordinal: 8,
    shape: None,
    air_client: false,
    knn: true,
    on_edge: false,
    own_channel: true,
    population_replayable: false,
    patches_incrementally: false,
    reference_cycle: None,
};

/// The kNN method.
pub struct KnnAir;

/// kNN's built program.
pub struct KnnMethodProgram {
    program: KnnProgram,
    num_regions: usize,
}

impl KnnMethodProgram {
    /// The inner server program.
    pub fn program(&self) -> &KnnProgram {
        &self.program
    }
}

impl KnnAirClient for KnnClient {
    fn query(
        &mut self,
        ch: &mut BroadcastChannel<'_>,
        source: NodeId,
        source_pt: Point,
        k: usize,
    ) -> Result<KnnOutcome, QueryError> {
        KnnClient::query(self, ch, source, source_pt, k)
    }
}

impl MethodProgram for KnnMethodProgram {
    fn descriptor(&self) -> &'static MethodDescriptor {
        &DESCRIPTOR
    }

    fn cycle(&self) -> Result<&BroadcastCycle, MethodUnavailable> {
        Ok(self.program.cycle())
    }

    fn make_knn_client(&self) -> Result<Box<dyn KnnAirClient>, MethodUnavailable> {
        Ok(Box::new(KnnClient::new(self.num_regions)))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl BroadcastMethod for KnnAir {
    fn descriptor(&self) -> &'static MethodDescriptor {
        &DESCRIPTOR
    }

    fn build_program(&self, world: &World) -> Box<dyn MethodProgram> {
        assert!(
            !world.pois.is_empty(),
            "knn_air needs a POI set (World::with_pois)"
        );
        Box::new(KnnMethodProgram {
            // A world exceeding a wire field of the index format is a
            // configuration error; surface the typed encode error loudly
            // rather than broadcasting a truncated index.
            program: KnnServer::new(&world.g, &world.part, &world.pre, &world.pois)
                .build_program()
                .unwrap_or_else(|e| panic!("knn_air: {e}")),
            num_regions: world.part.num_regions(),
        })
    }
}
