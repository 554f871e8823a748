//! # spair — Shortest Path Computation on Air Indexes
//!
//! A full reproduction of Kellaris & Mouratidis, *"Shortest Path Computation
//! on Air Indexes"*, PVLDB 3(1), 2010: shortest-path query processing for
//! mobile clients that listen to a wireless broadcast channel instead of
//! querying a server.
//!
//! The workspace is organized as:
//!
//! * [`roadnet`] — road-network graphs, Dijkstra/A*, synthetic generators;
//! * [`partition`] — kd-tree / grid partitioning and border-node analysis;
//! * [`broadcast`] — the wireless broadcast substrate (packets, cycles,
//!   (1,m) interleaving, lossy channel, energy model, device profiles);
//! * [`baselines`] — air adaptations of Dijkstra, ArcFlag, Landmark, HiTi
//!   and SPQ (paper §3.2 and §2.1);
//! * [`core`] — the paper's contribution: the Elliptic Boundary (EB, §4)
//!   and Next Region (NR, §5) methods, memory-bound processing (§6.1) and
//!   packet-loss hardening (§6.2).
//!
//! ## Quickstart
//!
//! ```
//! use spair::prelude::*;
//!
//! // A small road network and a broadcast server for the NR method.
//! let network = spair::roadnet::generators::small_grid(12, 12, 7);
//! let partitioning = KdTreePartition::build(&network, 16);
//! let precomputed = BorderPrecomputation::run(&network, &partitioning);
//! let program = NrServer::new(&network, &partitioning, &precomputed)
//!     .build_program()
//!     .expect("counters fit the wire format");
//!
//! // A client tunes in at an arbitrary moment and asks for a shortest path.
//! let mut channel = BroadcastChannel::lossless(program.cycle());
//! let mut client = NrClient::new(program.summary());
//! let outcome = client
//!     .query(&mut channel, &Query::for_nodes(&network, 5, 120))
//!     .expect("target reachable");
//! assert_eq!(
//!     Some(outcome.distance),
//!     spair::roadnet::dijkstra_distance(&network, 5, 120)
//! );
//! // The client listened to only part of the cycle:
//! assert!((outcome.stats.tuning_packets as usize) < program.cycle().len());
//! ```

pub use spair_baselines as baselines;
pub use spair_broadcast as broadcast;
pub use spair_core as core;
pub use spair_partition as partition;
pub use spair_roadnet as roadnet;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use spair_baselines::{
        ArcFlagClient, DjClient, HiTiAirClient, HiTiAirServer, HiTiIndex, LandmarkClient,
        SpqAirServer, SpqClient, SpqIndex,
    };
    pub use spair_broadcast::{
        Air, BroadcastChannel, ChannelRate, DeviceProfile, EnergyModel, LossModel, QueryStats,
    };
    pub use spair_core::query::AirClient;
    pub use spair_core::{
        on_edge_query, BorderPrecomputation, EbClient, EbServer, KnnClient, KnnServer,
        MemoryBoundProcessor, NrClient, NrServer, OnEdgeOutcome, OnEdgePoint, Query, QueryError,
        QueryOutcome,
    };
    pub use spair_partition::{KdTreePartition, Partitioning, RegionId};
    pub use spair_roadnet::{GraphBuilder, NetworkPreset, Point, RoadNetwork};
}
