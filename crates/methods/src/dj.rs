//! Dijkstra on air (§3.2) behind the [`BroadcastMethod`] trait.

use crate::{
    BroadcastMethod, ClientBootstrap, MethodDescriptor, MethodProgram, MethodUnavailable,
    SessionShape, World,
};
use spair_baselines::{DjClient, DjProgram, DjServer};
use spair_broadcast::BroadcastCycle;
use spair_core::query::AirClient;

/// DJ's descriptor.
pub const DESCRIPTOR: MethodDescriptor = MethodDescriptor {
    name: "dj",
    label: "Dijkstra",
    ordinal: 2,
    shape: Some(SessionShape::WholeCycle),
    air_client: true,
    knn: false,
    on_edge: true,
    own_channel: true,
    population_replayable: true,
    patches_incrementally: true,
    reference_cycle: None,
};

/// The DJ method.
pub struct Dj;

/// DJ's built program.
pub struct DjMethodProgram {
    program: DjProgram,
}

impl DjMethodProgram {
    /// The inner server program.
    pub fn program(&self) -> &DjProgram {
        &self.program
    }
}

impl MethodProgram for DjMethodProgram {
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

impl BroadcastMethod for Dj {
    fn descriptor(&self) -> &'static MethodDescriptor {
        &DESCRIPTOR
    }

    fn build_program(&self, world: &World) -> Box<dyn MethodProgram> {
        Box::new(DjMethodProgram {
            program: DjServer::new(&world.g).build_program(),
        })
    }

    fn make_remote_client(
        &self,
        _bootstrap: &ClientBootstrap,
    ) -> Result<Box<dyn AirClient>, MethodUnavailable> {
        Ok(Box::new(DjClient::new()))
    }
}
