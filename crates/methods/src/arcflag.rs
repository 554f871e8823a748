//! ArcFlag (§2.1, §3.2) behind the [`BroadcastMethod`] trait.

use crate::{
    BroadcastMethod, ClientBootstrap, MethodDescriptor, MethodProgram, MethodUnavailable,
    SessionShape, World,
};
use spair_baselines::arcflag::ArcFlagIndex;
use spair_baselines::{ArcFlagClient, ArcFlagProgram, ArcFlagServer};
use spair_broadcast::BroadcastCycle;
use spair_core::query::AirClient;
use spair_partition::{KdTreePartition, Partitioning};

/// AF's descriptor.
pub const DESCRIPTOR: MethodDescriptor = MethodDescriptor {
    name: "af",
    label: "ArcFlag",
    ordinal: 4,
    shape: Some(SessionShape::WholeCycle),
    air_client: true,
    knn: false,
    on_edge: true,
    own_channel: true,
    population_replayable: true,
    patches_incrementally: false,
    reference_cycle: None,
};

/// The ArcFlag method.
pub struct ArcFlag;

/// AF's built program.
pub struct ArcFlagMethodProgram {
    program: ArcFlagProgram,
    num_regions: usize,
    precompute_secs: f64,
}

impl ArcFlagMethodProgram {
    /// The inner server program.
    pub fn program(&self) -> &ArcFlagProgram {
        &self.program
    }
}

impl MethodProgram for ArcFlagMethodProgram {
    fn descriptor(&self) -> &'static MethodDescriptor {
        &DESCRIPTOR
    }

    fn cycle(&self) -> Result<&BroadcastCycle, MethodUnavailable> {
        Ok(self.program.cycle())
    }

    fn client_bootstrap(&self) -> ClientBootstrap {
        ClientBootstrap {
            num_regions: self.num_regions,
            bbox: None,
        }
    }

    fn precompute_secs(&self) -> f64 {
        self.precompute_secs
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl BroadcastMethod for ArcFlag {
    fn descriptor(&self) -> &'static MethodDescriptor {
        &DESCRIPTOR
    }

    fn build_program(&self, world: &World) -> Box<dyn MethodProgram> {
        // The scenario engine reuses the world's partition; the bench
        // harness fine-tunes AF its own region count (paper: 16).
        // A world exceeding a wire field of the index format is a
        // configuration error; surface the typed encode error loudly
        // rather than broadcasting a truncated index.
        let (index, num_regions, program) = match world.tuning.af_regions {
            None => {
                let index = ArcFlagIndex::build(&world.g, &world.part);
                let program = ArcFlagServer::new(&world.g, &world.part, &index)
                    .build_program()
                    .unwrap_or_else(|e| panic!("arcflag: {e}"));
                (index, world.part.num_regions(), program)
            }
            Some(regions) => {
                let part = KdTreePartition::build(&world.g, regions);
                let index = ArcFlagIndex::build(&world.g, &part);
                let program = ArcFlagServer::new(&world.g, &part, &index)
                    .build_program()
                    .unwrap_or_else(|e| panic!("arcflag: {e}"));
                (index, part.num_regions(), program)
            }
        };
        Box::new(ArcFlagMethodProgram {
            precompute_secs: index.precompute_secs,
            num_regions,
            program,
        })
    }

    fn make_remote_client(
        &self,
        bootstrap: &ClientBootstrap,
    ) -> Result<Box<dyn AirClient>, MethodUnavailable> {
        if bootstrap.num_regions == 0 {
            return Err(MethodUnavailable::BadBootstrap(DESCRIPTOR.name));
        }
        Ok(Box::new(ArcFlagClient::new(bootstrap.num_regions)))
    }
}
