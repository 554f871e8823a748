//! The HiTi hierarchy baseline on air behind the [`BroadcastMethod`]
//! trait.

use crate::{
    BroadcastMethod, ClientBootstrap, MethodDescriptor, MethodProgram, MethodUnavailable,
    SessionShape, World,
};
use spair_baselines::{HiTiAirClient, HiTiAirServer, HiTiIndex, HiTiProgram};
use spair_broadcast::BroadcastCycle;
use spair_core::query::AirClient;

/// HiTi's descriptor.
pub const DESCRIPTOR: MethodDescriptor = MethodDescriptor {
    name: "hiti_air",
    label: "HiTi",
    ordinal: 6,
    shape: Some(SessionShape::Anchored),
    air_client: true,
    knn: false,
    on_edge: true,
    own_channel: true,
    population_replayable: true,
    patches_incrementally: false,
    reference_cycle: None,
};

/// The HiTi method.
pub struct HiTiAir;

/// HiTi's built program.
pub struct HiTiMethodProgram {
    program: HiTiProgram,
    precompute_secs: f64,
}

impl HiTiMethodProgram {
    /// The inner server program.
    pub fn program(&self) -> &HiTiProgram {
        &self.program
    }
}

impl MethodProgram for HiTiMethodProgram {
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

impl BroadcastMethod for HiTiAir {
    fn descriptor(&self) -> &'static MethodDescriptor {
        &DESCRIPTOR
    }

    fn build_program(&self, world: &World) -> Box<dyn MethodProgram> {
        let index = HiTiIndex::build(&world.g, world.tuning.hiti_side, world.tuning.hiti_levels);
        Box::new(HiTiMethodProgram {
            precompute_secs: index.precompute_secs,
            // A world exceeding a wire field of the index format is a
            // configuration error; surface the typed encode error loudly
            // rather than broadcasting a truncated index.
            program: HiTiAirServer::new(&world.g, &index)
                .build_program()
                .unwrap_or_else(|e| panic!("hiti_air: {e}")),
        })
    }

    fn make_remote_client(
        &self,
        _bootstrap: &ClientBootstrap,
    ) -> Result<Box<dyn AirClient>, MethodUnavailable> {
        Ok(Box::new(HiTiAirClient::new()))
    }
}
