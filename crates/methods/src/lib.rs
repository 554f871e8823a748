//! The unified method registry: every client method behind one
//! [`BroadcastMethod`] trait.
//!
//! The paper's whole point is comparing many client methods (NR and EB
//! against DJ/LD/AF/SPQ/HiTi) over one broadcast abstraction, yet adding
//! a method used to mean editing parallel `match` blocks in the sim
//! engine, the load harness and the bench harness. This crate collapses
//! those surfaces into data:
//!
//! * a [`MethodDescriptor`] names each method once — stable registry
//!   name, matrix ordinal (seed derivation and column order), its
//!   [`SessionShape`] and its capability flags (`air_client`, `knn`,
//!   `on_edge`, `own_channel`, `population_replayable`);
//! * the [`BroadcastMethod`] trait turns a [`World`] (network, partition,
//!   border precomputation, POIs, tuning knobs) into a
//!   [`MethodProgram`] — the server-side broadcast program plus client
//!   factories;
//! * the [`MethodRegistry`] owns the method implementations in ordinal
//!   order, and a [`ProgramSet`] lazily builds at most one program per
//!   method for one world, replacing per-harness `Option` fields and
//!   their `expect` panics with typed [`MethodUnavailable`] errors.
//!
//! **Adding a method is a one-file change**: implement
//! [`BroadcastMethod`] (descriptor + program + client) in a new module
//! and append one registration line in [`MethodRegistry::standard`]'s
//! method list. The conformance matrix, the load harness and the bench
//! runner all iterate the registry, so the new method appears as a
//! matrix column, is differentially verified against the serial Dijkstra
//! oracle, and can serve populations — with zero further edits. The two
//! newest methods, [`astar_air`] and [`bidi_air`], were added exactly
//! this way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arcflag;
pub mod astar_air;
pub mod bidi_air;
pub mod dj;
pub mod eb;
pub mod hiti_air;
pub mod knn_air;
pub mod landmark;
pub mod mem_bound;
pub mod nr;
mod received;
pub mod spq_air;

use spair_broadcast::{BroadcastChannel, BroadcastCycle};
use spair_core::knn::KnnOutcome;
use spair_core::query::{AirClient, Query, QueryError, QueryOutcome};
use spair_core::BorderPrecomputation;
use spair_partition::KdTreePartition;
use spair_roadnet::certify::UsageError;
use spair_roadnet::{NetworkPreset, NodeId, Point, QueuePolicy, RoadNetwork};
use std::sync::{Arc, OnceLock};

/// How a method's client consumes the broadcast cycle — which decides how
/// a lossless session replays across tune-in offsets in the load harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionShape {
    /// Downloads one full cycle from the tune-in offset; stats are
    /// offset-independent (DJ, LD, AF, SPQ, A*, bidirectional).
    WholeCycle,
    /// Listens to one packet, then sleeps to the pointed-at index copy;
    /// the continuation depends only on (query, anchor) (NR, EB, HiTi).
    Anchored,
}

/// Everything the harnesses need to know about a method without running
/// it: its stable identity and its capabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodDescriptor {
    /// Stable registry key and matrix column name (e.g. `"nr"`).
    pub name: &'static str,
    /// Chart label as used in the paper's figures (e.g. `"NR"`,
    /// `"Dijkstra"`).
    pub label: &'static str,
    /// Stable matrix ordinal: position in the registry, never reused.
    /// Session seeds derive from it, so appending methods never perturbs
    /// existing cells.
    pub ordinal: u32,
    /// Cycle-consumption shape of the method's [`AirClient`] — `None`
    /// for methods not driven through that interface.
    pub shape: Option<SessionShape>,
    /// Answers point-to-point / on-edge queries through the
    /// [`AirClient`] interface.
    pub air_client: bool,
    /// Answers the kNN portion of a workload (the §8 client).
    pub knn: bool,
    /// Runs the on-edge (§5 closing remark) decomposition.
    pub on_edge: bool,
    /// Broadcasts a cycle of its own. The §6.1 memory-bound runner does
    /// not: it re-processes NR's region data, and
    /// [`MethodDescriptor::reference_cycle`] names whose cycle its
    /// reports quote — explicitly, instead of silently aliasing.
    pub own_channel: bool,
    /// Lossless populations replay in O(1) per client from per-anchor
    /// session profiles in the load harness.
    pub population_replayable: bool,
    /// In a dynamic world (live weight updates broadcast as versioned
    /// patch cycles) the client can patch its received arena in place —
    /// it holds raw adjacency data and exports it via
    /// [`AirClient::export_arena`] (NR, EB, DJ, A*, bidirectional).
    /// Index-transforming methods (LD, AF, SPQ, HiTi, §6.1 mem-bound,
    /// kNN) bake weights into derived structures and must rebuild from a
    /// fresh full cycle per version.
    pub patches_incrementally: bool,
    /// For methods without [`MethodDescriptor::own_channel`]: the
    /// registry name of the method whose cycle length their cell reports
    /// quote.
    pub reference_cycle: Option<&'static str>,
}

impl MethodDescriptor {
    /// Whether the method answers the point-to-point / on-edge portion
    /// of a workload (everything except the kNN client).
    pub fn runs_paths(&self) -> bool {
        !self.knn
    }
}

/// A copyable handle to a registered method — the identifier type specs
/// and harnesses pass around. Obtain one from a registry lookup
/// ([`MethodRegistry::get`]) or, for the paper's nine methods, from the
/// associated constants ([`MethodId::NR`], …).
#[derive(Clone, Copy)]
pub struct MethodId(&'static MethodDescriptor);

impl MethodId {
    /// Next Region (§5).
    pub const NR: MethodId = MethodId(&nr::DESCRIPTOR);
    /// Elliptic Boundary (§4).
    pub const EB: MethodId = MethodId(&eb::DESCRIPTOR);
    /// Dijkstra on air (whole-cycle download).
    pub const DJ: MethodId = MethodId(&dj::DESCRIPTOR);
    /// Landmark / ALT.
    pub const LD: MethodId = MethodId(&landmark::DESCRIPTOR);
    /// ArcFlag.
    pub const AF: MethodId = MethodId(&arcflag::DESCRIPTOR);
    /// SPQ quadtree baseline on air.
    pub const SPQ_AIR: MethodId = MethodId(&spq_air::DESCRIPTOR);
    /// HiTi hierarchy baseline on air.
    pub const HITI_AIR: MethodId = MethodId(&hiti_air::DESCRIPTOR);
    /// NR's region set through the §6.1 memory-bound contraction.
    pub const NR_MEM_BOUND: MethodId = MethodId(&mem_bound::DESCRIPTOR);
    /// The §8 on-air kNN client.
    pub const KNN_AIR: MethodId = MethodId(&knn_air::DESCRIPTOR);

    /// The method's descriptor.
    pub fn descriptor(&self) -> &'static MethodDescriptor {
        self.0
    }

    /// Stable registry name / matrix column key.
    pub fn name(&self) -> &'static str {
        self.0.name
    }

    /// Chart label.
    pub fn label(&self) -> &'static str {
        self.0.label
    }

    /// Stable matrix ordinal.
    pub fn ordinal(&self) -> u32 {
        self.0.ordinal
    }

    /// Whether this method answers the point-to-point / on-edge portion
    /// of a workload.
    pub fn runs_paths(&self) -> bool {
        self.0.runs_paths()
    }
}

impl PartialEq for MethodId {
    fn eq(&self, other: &Self) -> bool {
        self.0.ordinal == other.0.ordinal
    }
}

impl Eq for MethodId {}

impl std::hash::Hash for MethodId {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.ordinal.hash(state);
    }
}

impl std::fmt::Debug for MethodId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MethodId({})", self.0.name)
    }
}

impl std::fmt::Display for MethodId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0.name)
    }
}

/// Why a method (or one of its facets) cannot be used — the typed
/// replacement for the old `expect("… program")` panics and
/// `unreachable!` dispatch arms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MethodUnavailable {
    /// No registered method has this name.
    Unknown(String),
    /// The method is registered but no program was built for this world
    /// (it was not requested, or its workload portion is empty).
    NotBuilt(&'static str),
    /// The method broadcasts no cycle of its own; its reports quote the
    /// named reference method's cycle instead (§6.1 memory-bound runner).
    NoOwnChannel {
        /// The channel-less method.
        method: &'static str,
        /// Whose cycle its reports quote.
        reference: &'static str,
    },
    /// The method is not driven through the [`AirClient`] interface.
    NotAirClient(&'static str),
    /// The method is not a kNN client.
    NotKnn(&'static str),
    /// The admission bootstrap lacks a field the method's remote client
    /// requires (serving daemon and client disagree about the method).
    BadBootstrap(&'static str),
    /// The method's index cannot represent this world, so its program
    /// refuses to broadcast rather than answer some queries wrong.
    Unrepresentable {
        /// The refusing method.
        method: &'static str,
        /// What the index cannot represent.
        reason: String,
    },
}

impl std::fmt::Display for MethodUnavailable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MethodUnavailable::Unknown(name) => {
                write!(f, "no registered method is named '{name}'")
            }
            MethodUnavailable::NotBuilt(name) => {
                write!(f, "no {name} program was built for this world")
            }
            MethodUnavailable::NoOwnChannel { method, reference } => write!(
                f,
                "{method} broadcasts no cycle of its own (reports quote {reference}'s cycle)"
            ),
            MethodUnavailable::NotAirClient(name) => {
                write!(f, "{name} is not an air client method")
            }
            MethodUnavailable::NotKnn(name) => write!(f, "{name} is not a kNN client method"),
            MethodUnavailable::BadBootstrap(name) => {
                write!(
                    f,
                    "{name}'s remote client is missing a required bootstrap field"
                )
            }
            MethodUnavailable::Unrepresentable { method, reason } => {
                write!(f, "{method} cannot represent this world: {reason}")
            }
        }
    }
}

impl std::error::Error for MethodUnavailable {}

/// Why a `--methods` list was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MethodListError {
    /// The list names no method.
    Empty,
    /// A name outside the run's column set: unregistered, or registered
    /// but not a method this run can serve.
    NotAllowed {
        /// The rejected name.
        name: String,
        /// The names the run accepts.
        allowed: Vec<&'static str>,
    },
    /// A name listed twice, which would run its column twice.
    Duplicate(String),
}

impl std::fmt::Display for MethodListError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MethodListError::Empty => f.write_str("--methods expects a non-empty name list"),
            MethodListError::NotAllowed { name, allowed } => write!(
                f,
                "'{name}' is not a method this run accepts (allowed: {})",
                allowed.join(",")
            ),
            MethodListError::Duplicate(name) => write!(f, "--methods lists '{name}' twice"),
        }
    }
}

impl std::error::Error for MethodListError {}

impl From<MethodListError> for UsageError {
    fn from(e: MethodListError) -> Self {
        UsageError(e.to_string())
    }
}

/// Per-method tuning knobs — the parameters the paper fine-tunes per
/// experiment (§7) rather than per scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuning {
    /// ArcFlag region count. `None` reuses the world's partition (the
    /// scenario engine's choice); `Some(r)` builds AF its own kd
    /// partition with `r` regions (the bench harness's fine-tuned 16).
    pub af_regions: Option<usize>,
    /// Landmark anchor count (the paper's fine-tuned 4).
    pub ld_landmarks: usize,
    /// HiTi base-grid side (power of two).
    pub hiti_side: usize,
    /// HiTi hierarchy levels.
    pub hiti_levels: usize,
}

impl Default for Tuning {
    fn default() -> Self {
        Self {
            af_regions: None,
            ld_landmarks: 4,
            hiti_side: 8,
            hiti_levels: 3,
        }
    }
}

/// Everything a method's server side may need to build its program:
/// the network, its partition and border precomputation, the POI set
/// (for the kNN method) and the tuning knobs. Cheap to clone — the big
/// products are shared behind [`Arc`]s, so programs can retain exactly
/// the parts they need.
#[derive(Clone)]
pub struct World {
    /// The road network.
    pub g: Arc<RoadNetwork>,
    /// Kd partitioning (EB/NR/kNN; AF when untuned).
    pub part: Arc<KdTreePartition>,
    /// Border-pair precomputation shared by EB/NR/kNN/mem-bound.
    pub pre: Arc<BorderPrecomputation>,
    /// POI node set (the kNN method's program input; empty otherwise).
    pub pois: Arc<Vec<NodeId>>,
    /// Per-method tuning knobs.
    pub tuning: Tuning,
}

impl World {
    /// Wraps freshly built parts into a world with default tuning and no
    /// POIs.
    pub fn from_parts(g: RoadNetwork, part: KdTreePartition, pre: BorderPrecomputation) -> Self {
        Self {
            g: Arc::new(g),
            part: Arc::new(part),
            pre: Arc::new(pre),
            pois: Arc::new(Vec::new()),
            tuning: Tuning::default(),
        }
    }

    /// Builds the world for a preset at `scale`, partitioned into
    /// `regions` kd regions — the bench harness's §7 construction.
    pub fn build(preset: NetworkPreset, scale: f64, regions: usize, seed: u64) -> Self {
        let g = preset.scaled_config(seed, scale).generate();
        let part = KdTreePartition::build(&g, regions);
        let pre = BorderPrecomputation::run(&g, &part);
        Self::from_parts(g, part, pre)
    }

    /// Replaces the POI set.
    pub fn with_pois(mut self, pois: Vec<NodeId>) -> Self {
        self.pois = Arc::new(pois);
        self
    }

    /// Replaces the tuning knobs.
    pub fn with_tuning(mut self, tuning: Tuning) -> Self {
        self.tuning = tuning;
        self
    }
}

/// The a-priori knowledge a client needs to tune in to a method's cycle
/// — the serving daemon ships this blob in its admission reply, so a
/// socket client builds its [`AirClient`] without ever seeing the
/// server's [`World`], and in-process clients are built from it too.
///
/// It is deliberately tiny: the paper's clients assume almost nothing
/// beyond "which method the channel carries" (EB/NR need the region
/// count, SPQ its quadtree bounding box; everything else starts blind
/// and learns the rest from the packets themselves).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClientBootstrap {
    /// Kd region count (NR, EB, AF; 0 where unused).
    pub num_regions: usize,
    /// Quadtree bounding box (SPQ; `None` elsewhere).
    pub bbox: Option<(Point, Point)>,
}

/// The interface the harnesses drive kNN programs through (the §8
/// client's query signature differs from [`AirClient`]'s).
pub trait KnnAirClient {
    /// Finds the `k` POIs nearest to `source` over a tuned-in channel.
    fn query(
        &mut self,
        ch: &mut BroadcastChannel<'_>,
        source: NodeId,
        source_pt: Point,
        k: usize,
    ) -> Result<KnnOutcome, QueryError>;
}

/// A built broadcast program: the server-side cycle plus client
/// factories. Facets a method does not support return typed
/// [`MethodUnavailable`] errors instead of panicking.
pub trait MethodProgram: Send + Sync {
    /// The method's descriptor.
    fn descriptor(&self) -> &'static MethodDescriptor;

    /// The broadcast cycle clients tune in to.
    /// `Err(NoOwnChannel)` for methods that broadcast none.
    fn cycle(&self) -> Result<&BroadcastCycle, MethodUnavailable>;

    /// A fresh client device (every session models an independent mobile
    /// client). It is built the way a socket client builds one, by
    /// [`BroadcastMethod::make_remote_client`] from
    /// [`MethodProgram::client_bootstrap`] alone, so an in-process client
    /// knows nothing a remote one could not. `Err(NotAirClient)` for
    /// methods not driven through the [`AirClient`] interface. The
    /// [`QueuePolicy`] is ignored.
    fn make_client(&self, _queue: QueuePolicy) -> Result<Box<dyn AirClient>, MethodUnavailable> {
        let id = MethodId(self.descriptor());
        MethodRegistry::standard()
            .method(id)
            .make_remote_client(&self.client_bootstrap())
    }

    /// A fresh kNN client. `Err(NotKnn)` unless the method answers the
    /// kNN portion.
    fn make_knn_client(&self) -> Result<Box<dyn KnnAirClient>, MethodUnavailable> {
        Err(MethodUnavailable::NotKnn(self.descriptor().name))
    }

    /// The a-priori blob a client needs before tuning in (shipped by the
    /// serving daemon in its admission reply, and the only input of
    /// [`MethodProgram::make_client`]). Methods whose clients start blind
    /// keep the empty default.
    fn client_bootstrap(&self) -> ClientBootstrap {
        ClientBootstrap::default()
    }

    /// Channel-free local answer for methods that re-process another
    /// method's data instead of tuning in (§6.1 memory-bound
    /// contraction). `None` for everything else.
    fn local_answer(&self, query: &Query) -> Option<Result<QueryOutcome, QueryError>> {
        let _ = query;
        None
    }

    /// Server-side index precomputation seconds, where the method
    /// measures one (Table 3 context); 0 otherwise.
    fn precompute_secs(&self) -> f64 {
        0.0
    }

    /// Downcast hook for harness extensions that need a concrete
    /// program (e.g. EB's replication ablation).
    fn as_any(&self) -> &dyn std::any::Any;
}

/// One client method: a descriptor plus a program builder. Implement
/// this (one file) and register it (one line in
/// [`MethodRegistry::standard`]) to add a method to every harness.
pub trait BroadcastMethod: Send + Sync {
    /// The method's descriptor.
    fn descriptor(&self) -> &'static MethodDescriptor;

    /// Builds the server-side broadcast program for a world.
    fn build_program(&self, world: &World) -> Box<dyn MethodProgram>;

    /// A fresh client built from a [`ClientBootstrap`] alone — the one
    /// client factory, behind both [`MethodProgram::make_client`] and
    /// the socket clients that hold no program (they receive the cycle
    /// over a socket). `Err(NotAirClient)` for methods not driven
    /// through the [`AirClient`] interface.
    fn make_remote_client(
        &self,
        bootstrap: &ClientBootstrap,
    ) -> Result<Box<dyn AirClient>, MethodUnavailable> {
        let _ = bootstrap;
        Err(MethodUnavailable::NotAirClient(self.descriptor().name))
    }
}

/// The ordered method registry.
pub struct MethodRegistry {
    methods: Vec<Box<dyn BroadcastMethod>>,
}

impl MethodRegistry {
    /// The standard registry: every implemented method, in stable
    /// ordinal order. **Appending a line here is the registration step
    /// of adding a method.**
    pub fn standard() -> &'static MethodRegistry {
        static REGISTRY: OnceLock<MethodRegistry> = OnceLock::new();
        REGISTRY.get_or_init(|| {
            MethodRegistry::from_methods(vec![
                Box::new(nr::Nr),
                Box::new(eb::Eb),
                Box::new(dj::Dj),
                Box::new(landmark::Landmark),
                Box::new(arcflag::ArcFlag),
                Box::new(spq_air::SpqAir),
                Box::new(hiti_air::HiTiAir),
                Box::new(mem_bound::NrMemBound),
                Box::new(knn_air::KnnAir),
                Box::new(astar_air::AstarAir),
                Box::new(bidi_air::BidiAir),
            ])
        })
    }

    /// Builds the registry, checking the descriptor invariants: ordinals
    /// equal positions, names are unique, reference cycles resolve.
    /// Private on purpose: a [`MethodId`] resolves by ordinal against
    /// [`MethodRegistry::standard`] (in [`ProgramSet`] and
    /// [`MethodRegistry::method`]), so handles from a divergent registry
    /// would resolve to the wrong method.
    fn from_methods(methods: Vec<Box<dyn BroadcastMethod>>) -> Self {
        let reg = Self { methods };
        for (i, m) in reg.methods.iter().enumerate() {
            let d = m.descriptor();
            assert_eq!(
                d.ordinal as usize, i,
                "method '{}' registered out of ordinal order",
                d.name
            );
            assert!(
                reg.methods[..i]
                    .iter()
                    .all(|o| o.descriptor().name != d.name),
                "duplicate method name '{}'",
                d.name
            );
            if let Some(r) = d.reference_cycle {
                assert!(
                    reg.methods.iter().any(|o| o.descriptor().name == r),
                    "method '{}' references unknown cycle '{}'",
                    d.name,
                    r
                );
            }
        }
        reg
    }

    /// Number of registered methods.
    pub fn len(&self) -> usize {
        self.methods.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.methods.is_empty()
    }

    /// Every registered method, in matrix column (ordinal) order.
    pub fn all(&self) -> Vec<MethodId> {
        self.methods
            .iter()
            .map(|m| MethodId(m.descriptor()))
            .collect()
    }

    /// Every method driven through the [`AirClient`] interface with a
    /// cycle of its own — the set the load harness can serve.
    pub fn air_methods(&self) -> Vec<MethodId> {
        self.all()
            .into_iter()
            .filter(|m| {
                let d = m.descriptor();
                d.air_client && d.own_channel
            })
            .collect()
    }

    /// Looks a method up by its stable name.
    pub fn get(&self, name: &str) -> Result<MethodId, MethodUnavailable> {
        self.methods
            .iter()
            .find(|m| m.descriptor().name == name)
            .map(|m| MethodId(m.descriptor()))
            .ok_or_else(|| MethodUnavailable::Unknown(name.to_string()))
    }

    /// Resolves a comma-separated `--methods` list against the run's
    /// column set `allowed`, keeping the list's order. Empty segments are
    /// skipped; an empty list, a name outside `allowed` and a repeated
    /// name are typed errors.
    pub fn parse_list(list: &str, allowed: &[MethodId]) -> Result<Vec<MethodId>, MethodListError> {
        let mut methods: Vec<MethodId> = Vec::new();
        for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let Some(&m) = allowed.iter().find(|m| m.name() == name) else {
                return Err(MethodListError::NotAllowed {
                    name: name.to_string(),
                    allowed: allowed.iter().map(MethodId::name).collect(),
                });
            };
            if methods.contains(&m) {
                return Err(MethodListError::Duplicate(name.to_string()));
            }
            methods.push(m);
        }
        if methods.is_empty() {
            return Err(MethodListError::Empty);
        }
        Ok(methods)
    }

    /// The implementation behind a handle.
    pub fn method(&self, id: MethodId) -> &dyn BroadcastMethod {
        self.methods[id.ordinal() as usize].as_ref()
    }

    /// A client for `id` from its bootstrap, by
    /// [`BroadcastMethod::make_remote_client`]. The [`QueuePolicy`] is
    /// ignored.
    pub fn remote_client(
        &self,
        id: MethodId,
        bootstrap: &ClientBootstrap,
        _queue: QueuePolicy,
    ) -> Result<Box<dyn AirClient>, MethodUnavailable> {
        self.method(id).make_remote_client(bootstrap)
    }
}

/// Lazy per-method programs for one world — the registry-driven
/// replacement for per-harness `Option<…Program>` fields. Each method's
/// program is built at most once, on first [`ProgramSet::ensure`];
/// [`ProgramSet::get`] never builds and returns a typed
/// [`MethodUnavailable::NotBuilt`] for absent programs.
pub struct ProgramSet {
    world: World,
    slots: Vec<OnceLock<Box<dyn MethodProgram>>>,
}

impl ProgramSet {
    /// An empty set over `world`, sized to the standard registry.
    pub fn new(world: World) -> Self {
        let slots = (0..MethodRegistry::standard().len())
            .map(|_| OnceLock::new())
            .collect();
        Self { world, slots }
    }

    /// The world programs build against.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The method's program, building it on first use.
    pub fn ensure(&self, id: MethodId) -> &dyn MethodProgram {
        self.slots[id.ordinal() as usize]
            .get_or_init(|| {
                MethodRegistry::standard()
                    .method(id)
                    .build_program(&self.world)
            })
            .as_ref()
    }

    /// The method's program, if already built.
    pub fn get(&self, id: MethodId) -> Result<&dyn MethodProgram, MethodUnavailable> {
        self.slots[id.ordinal() as usize]
            .get()
            .map(|p| p.as_ref())
            .ok_or(MethodUnavailable::NotBuilt(id.name()))
    }
}
