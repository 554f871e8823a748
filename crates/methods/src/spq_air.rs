//! The SPQ shortest-path-quadtree baseline on air behind the
//! [`BroadcastMethod`] trait.

use crate::{
    BroadcastMethod, ClientBootstrap, MethodDescriptor, MethodProgram, MethodUnavailable,
    SessionShape, World,
};
use spair_baselines::{SpqAirServer, SpqClient, SpqIndex, SpqProgram};
use spair_broadcast::BroadcastCycle;
use spair_core::query::AirClient;

/// SPQ's descriptor.
pub const DESCRIPTOR: MethodDescriptor = MethodDescriptor {
    name: "spq_air",
    label: "SPQ",
    ordinal: 5,
    shape: Some(SessionShape::WholeCycle),
    air_client: true,
    knn: false,
    on_edge: true,
    own_channel: true,
    population_replayable: true,
    patches_incrementally: false,
    reference_cycle: None,
};

/// The SPQ method.
pub struct SpqAir;

/// SPQ's built program.
pub struct SpqMethodProgram {
    program: SpqProgram,
    precompute_secs: f64,
    /// The index's [`SpqIndex::coincident_conflicts`]: above zero, some
    /// lookups would route wrong, so the program refuses its cycle.
    coincident_conflicts: usize,
}

impl SpqMethodProgram {
    /// The inner server program.
    pub fn program(&self) -> &SpqProgram {
        &self.program
    }
}

impl MethodProgram for SpqMethodProgram {
    fn descriptor(&self) -> &'static MethodDescriptor {
        &DESCRIPTOR
    }

    fn cycle(&self) -> Result<&BroadcastCycle, MethodUnavailable> {
        if self.coincident_conflicts > 0 {
            return Err(MethodUnavailable::Unrepresentable {
                method: DESCRIPTOR.name,
                reason: format!(
                    "{} quadtree leaves hold coincident nodes of different colors",
                    self.coincident_conflicts
                ),
            });
        }
        Ok(self.program.cycle())
    }

    fn client_bootstrap(&self) -> ClientBootstrap {
        ClientBootstrap {
            num_regions: 0,
            bbox: Some(self.program.bbox()),
        }
    }

    fn precompute_secs(&self) -> f64 {
        self.precompute_secs
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl BroadcastMethod for SpqAir {
    fn descriptor(&self) -> &'static MethodDescriptor {
        &DESCRIPTOR
    }

    fn build_program(&self, world: &World) -> Box<dyn MethodProgram> {
        // One shortest-path tree per node, searched over the 2-core only
        // (none for roots inside dangling trees): the template-driven
        // parallel build (bit-identical to serial) keeps paper-scale
        // worlds tractable.
        let index = SpqIndex::build(&world.g);
        Box::new(SpqMethodProgram {
            precompute_secs: index.precompute_secs,
            coincident_conflicts: index.coincident_conflicts(),
            // A world exceeding a wire field of the index format is a
            // configuration error; surface the typed encode error loudly
            // rather than broadcasting a truncated index.
            program: SpqAirServer::new(&world.g, &index)
                .build_program()
                .unwrap_or_else(|e| panic!("spq_air: {e}")),
        })
    }

    fn make_remote_client(
        &self,
        bootstrap: &ClientBootstrap,
    ) -> Result<Box<dyn AirClient>, MethodUnavailable> {
        let bbox = bootstrap
            .bbox
            .ok_or(MethodUnavailable::BadBootstrap(DESCRIPTOR.name))?;
        Ok(Box::new(SpqClient::new(bbox)))
    }
}
