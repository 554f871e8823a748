//! Elliptic Boundary (§4) behind the [`BroadcastMethod`] trait.

use crate::{
    BroadcastMethod, ClientBootstrap, MethodDescriptor, MethodProgram, MethodUnavailable,
    SessionShape, World,
};
use spair_broadcast::BroadcastCycle;
use spair_core::query::AirClient;
use spair_core::{EbClient, EbProgram, EbServer, EbSummary};

/// EB's descriptor.
pub const DESCRIPTOR: MethodDescriptor = MethodDescriptor {
    name: "eb",
    label: "EB",
    ordinal: 1,
    shape: Some(SessionShape::Anchored),
    air_client: true,
    knn: false,
    on_edge: true,
    own_channel: true,
    population_replayable: true,
    patches_incrementally: true,
    reference_cycle: None,
};

/// The EB method.
pub struct Eb;

/// EB's built program.
pub struct EbMethodProgram {
    program: EbProgram,
}

impl EbMethodProgram {
    /// The inner server program (exposes `index_packets`/`replication`
    /// for the bench harness's replication ablation).
    pub fn program(&self) -> &EbProgram {
        &self.program
    }
}

impl MethodProgram for EbMethodProgram {
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

impl BroadcastMethod for Eb {
    fn descriptor(&self) -> &'static MethodDescriptor {
        &DESCRIPTOR
    }

    fn build_program(&self, world: &World) -> Box<dyn MethodProgram> {
        Box::new(EbMethodProgram {
            // A world exceeding a wire field of the index format is a
            // configuration error; surface the typed encode error loudly
            // rather than broadcasting a truncated index.
            program: EbServer::new(&world.g, &world.part, &world.pre)
                .build_program()
                .unwrap_or_else(|e| panic!("eb: {e}")),
        })
    }

    fn make_remote_client(
        &self,
        bootstrap: &ClientBootstrap,
    ) -> Result<Box<dyn AirClient>, MethodUnavailable> {
        Ok(Box::new(EbClient::new(EbSummary {
            num_regions: bootstrap.num_regions,
        })))
    }
}
