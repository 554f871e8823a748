//! Next Region (§5) behind the [`BroadcastMethod`] trait.

use crate::{
    BroadcastMethod, ClientBootstrap, MethodDescriptor, MethodProgram, MethodUnavailable,
    SessionShape, World,
};
use spair_broadcast::BroadcastCycle;
use spair_core::query::AirClient;
use spair_core::{NrClient, NrProgram, NrServer, NrSummary};

/// NR's descriptor.
pub const DESCRIPTOR: MethodDescriptor = MethodDescriptor {
    name: "nr",
    label: "NR",
    ordinal: 0,
    shape: Some(SessionShape::Anchored),
    air_client: true,
    knn: false,
    on_edge: true,
    own_channel: true,
    population_replayable: true,
    patches_incrementally: true,
    reference_cycle: None,
};

/// The NR method.
pub struct Nr;

/// NR's built program.
pub struct NrMethodProgram {
    program: NrProgram,
}

impl NrMethodProgram {
    /// The inner server program.
    pub fn program(&self) -> &NrProgram {
        &self.program
    }
}

impl MethodProgram for NrMethodProgram {
    fn descriptor(&self) -> &'static MethodDescriptor {
        &DESCRIPTOR
    }

    fn cycle(&self) -> Result<&BroadcastCycle, MethodUnavailable> {
        Ok(self.program.cycle())
    }

    fn client_bootstrap(&self) -> ClientBootstrap {
        ClientBootstrap {
            num_regions: self.program.summary().num_regions,
            bbox: None,
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl BroadcastMethod for Nr {
    fn descriptor(&self) -> &'static MethodDescriptor {
        &DESCRIPTOR
    }

    fn build_program(&self, world: &World) -> Box<dyn MethodProgram> {
        Box::new(NrMethodProgram {
            // A world exceeding a wire field of the index format is a
            // configuration error; surface the typed encode error loudly
            // rather than broadcasting a truncated index.
            program: NrServer::new(&world.g, &world.part, &world.pre)
                .build_program()
                .unwrap_or_else(|e| panic!("nr: {e}")),
        })
    }

    fn make_remote_client(
        &self,
        bootstrap: &ClientBootstrap,
    ) -> Result<Box<dyn AirClient>, MethodUnavailable> {
        Ok(Box::new(NrClient::new(NrSummary {
            num_regions: bootstrap.num_regions,
        })))
    }
}
