//! Landmark / ALT (§2.1, §3.2) behind the [`BroadcastMethod`] trait.

use crate::{
    BroadcastMethod, ClientBootstrap, MethodDescriptor, MethodProgram, MethodUnavailable,
    SessionShape, World,
};
use spair_baselines::landmark::LandmarkIndex;
use spair_baselines::{LandmarkClient, LandmarkProgram, LandmarkServer};
use spair_broadcast::BroadcastCycle;
use spair_core::query::AirClient;

/// LD's descriptor.
pub const DESCRIPTOR: MethodDescriptor = MethodDescriptor {
    name: "ld",
    label: "Landmark",
    ordinal: 3,
    shape: Some(SessionShape::WholeCycle),
    air_client: true,
    knn: false,
    on_edge: true,
    own_channel: true,
    population_replayable: true,
    patches_incrementally: false,
    reference_cycle: None,
};

/// The Landmark method.
pub struct Landmark;

/// LD's built program.
pub struct LandmarkMethodProgram {
    program: LandmarkProgram,
    precompute_secs: f64,
}

impl LandmarkMethodProgram {
    /// The inner server program.
    pub fn program(&self) -> &LandmarkProgram {
        &self.program
    }
}

impl MethodProgram for LandmarkMethodProgram {
    fn descriptor(&self) -> &'static MethodDescriptor {
        &DESCRIPTOR
    }

    fn cycle(&self) -> Result<&BroadcastCycle, MethodUnavailable> {
        Ok(self.program.cycle())
    }

    fn precompute_secs(&self) -> f64 {
        self.precompute_secs
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl BroadcastMethod for Landmark {
    fn descriptor(&self) -> &'static MethodDescriptor {
        &DESCRIPTOR
    }

    fn build_program(&self, world: &World) -> Box<dyn MethodProgram> {
        let index = LandmarkIndex::build(&world.g, world.tuning.ld_landmarks);
        let precompute_secs = index.precompute_secs;
        Box::new(LandmarkMethodProgram {
            program: LandmarkServer::new(&world.g, &index).build_program(),
            precompute_secs,
        })
    }

    fn make_remote_client(
        &self,
        _bootstrap: &ClientBootstrap,
    ) -> Result<Box<dyn AirClient>, MethodUnavailable> {
        Ok(Box::new(LandmarkClient::new()))
    }
}
