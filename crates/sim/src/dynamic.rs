//! Dynamic-world certification: versioned delta-broadcast of live
//! weight updates, differentially verified per version.
//!
//! A [`DynamicSpec`] pairs a base [`ScenarioSpec`] with a seeded
//! [`TrafficSpec`] and a version count. The context expands every
//! version's network through the pure traffic model ([`network_at`]),
//! builds the server-side patch cycle for each version step
//! ([`build_patch_cycle`] over [`version_deltas`]), and poses the same
//! point-to-point queries against **every** version, each with a fresh
//! serial-Dijkstra oracle on that version's network.
//!
//! Per method, the runner models a commuter who keeps their device:
//!
//! * **Version 0** — a plain full session on the method's own cycle
//!   (byte-identical to the static engine's world).
//! * **Incremental methods** (descriptor
//!   [`patches_incrementally`](spair_methods::MethodDescriptor::patches_incrementally)):
//!   the client exports its received arena, and each subsequent version
//!   is served by one **patch session** — directory plus exactly the
//!   held regions' delta segments — followed by a *certified* local
//!   search ([`ReceivedGraph::shortest_path_checked`]). Any typed patch
//!   failure ([`PatchError`]) or an uncertified search falls back to a
//!   full re-tune under the PR 6 recovery supervisor, and the fallback
//!   cause is classified per cell.
//! * **Rebuild methods** (index-transforming: LD, AF, SPQ, HiTi): every
//!   version is a fresh full session on that version's rebuilt program.
//!
//! Every (query × version) answer folds into the cell's [`Tally`] beside
//! its patch counters. Cells fan out with the same chunk-ordered
//! map-reduce as the conformance and chaos matrices, so a
//! [`DynamicMatrix`] — and its digest — is bit-identical for every thread
//! count.
//!
//! [`ReceivedGraph::shortest_path_checked`]: spair_core::netcodec::ReceivedGraph::shortest_path_checked

use crate::drive::{
    attempt_seed, drive, open, path_is_valid, Device, Driven, Tally, Tune, Verdict, FAULT_BUDGET,
};
use crate::engine::{run_cells, session_seed, WorkItem};
use crate::report::{Gate, Matrix, Row};
use crate::spec::{FaultSpec, GraphSpec, ScenarioSpec, WorkloadMix};
use crate::traffic::{network_at, version_deltas, TrafficSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spair_broadcast::{splitmix64, Air, BroadcastCycle, QueryStats};
use spair_core::patch::{build_patch_cycle, receive_patch, ClientArena, PatchError};
use spair_core::{BorderPrecomputation, Query, RecoveryBudget};
use spair_methods::{MethodId, MethodRegistry, ProgramSet, SessionShape, Tuning, World};
use spair_partition::Partitioning;
use spair_roadnet::certify::counts_json;
use spair_roadnet::{dijkstra_distance, Distance, NetworkPreset, NodeId, QueuePolicy, RoadNetwork};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One dynamic world: a base scenario, how its weights evolve, and how
/// many cycle versions to run (version 0 is the unperturbed base).
#[derive(Debug, Clone)]
pub struct DynamicSpec {
    /// The static scenario the world starts from. Only the
    /// point-to-point portion of its workload runs (dynamic certification
    /// is about re-answering the same journeys as the world changes).
    pub base: ScenarioSpec,
    /// The seeded weight-evolution model.
    pub traffic: TrafficSpec,
    /// Total versions including version 0 (`>= 2`).
    pub versions: usize,
}

/// A fully expanded dynamic world: per-version programs, patch cycles,
/// and per-version oracle answers for every query.
pub struct DynamicContext {
    /// The spec this context expands.
    pub spec: DynamicSpec,
    /// The queries every version re-answers, with `oracles[v]` the serial
    /// Dijkstra distance on version `v`'s network.
    pub queries: Vec<(Query, Vec<Distance>)>,
    /// Per-version lazy program sets (`worlds[v]` serves version `v`).
    worlds: Vec<ProgramSet>,
    /// `patch_cycles[v - 1]` upgrades version `v - 1` to `v`.
    patch_cycles: Vec<BroadcastCycle>,
}

impl DynamicContext {
    /// Expands `spec`: every version's network, patch cycle and oracle
    /// column. Methods build their per-version programs lazily on first
    /// use, so rebuild-heavy servers are only constructed where a cell
    /// actually runs.
    ///
    /// Panics on a spec whose base sets a fault: dynamic sessions run on
    /// fault-free channels, and faults crossed with dynamic worlds are
    /// ROADMAP item 12, not yet certified.
    pub fn build(spec: &DynamicSpec) -> Self {
        assert!(spec.versions >= 2, "a dynamic world needs >= 2 versions");
        assert!(
            spec.base.fault == FaultSpec::None,
            "dynamic worlds run fault-free: faults x dynamic worlds is ROADMAP item 12"
        );
        let s = &spec.base;
        let g0 = s.graph.build(s.seed);
        let part = Arc::new(s.partitioner.build(&g0, s.regions));

        // Per-version worlds. Coordinates never change, so the partition
        // is shared; border precomputation re-runs per version (it reads
        // weights).
        let mut worlds = Vec::with_capacity(spec.versions);
        let mut networks: Vec<Arc<RoadNetwork>> = Vec::with_capacity(spec.versions);
        for v in 0..spec.versions {
            let gv = if v == 0 {
                g0.clone()
            } else {
                network_at(&g0, &spec.traffic, s.seed, v as u32)
            };
            let pre = BorderPrecomputation::run(&gv, part.as_ref());
            let world = World {
                g: Arc::new(gv),
                part: part.clone(),
                pre: Arc::new(pre),
                pois: Arc::new(Vec::new()),
                tuning: Tuning::default(),
            };
            networks.push(world.g.clone());
            worlds.push(ProgramSet::new(world));
        }

        let patch_cycles: Vec<BroadcastCycle> = (1..spec.versions)
            .map(|v| {
                let deltas = version_deltas(&g0, &part, &spec.traffic, s.seed, v as u32);
                build_patch_cycle(v as u32, v as u32 - 1, &deltas)
            })
            .collect();

        // Commuter journeys: reachable same-region pairs — the local-query
        // regime the paper's anchored methods target, and the one where a
        // patched partial arena can certify its own exactness (the search
        // ball stays inside the materialized regions). Oracles are fresh
        // per version; reachability is version-invariant (topology never
        // changes).
        let n = g0.num_nodes();
        // A node is interior when all its neighbors share its region —
        // homes and offices, not border crossings. Interior endpoints are
        // preferred (their search balls mostly stay inside the regions a
        // patched arena holds); thin kd regions without interior mates
        // fall back to plain same-region pairs.
        let interior = |v: NodeId| {
            g0.out_edges(v)
                .all(|(u, _)| part.region_of(u) == part.region_of(v))
        };
        // Hop counts from `src` out to `cap` hops — commutes are a few
        // blocks, not a traversal of the city.
        let hops_from = |src: NodeId, cap: usize| {
            let mut dist = vec![usize::MAX; n];
            let mut frontier = vec![src];
            dist[src as usize] = 0;
            for h in 1..=cap {
                let mut next = Vec::new();
                for &v in &frontier {
                    for (u, _) in g0.out_edges(v) {
                        if dist[u as usize] == usize::MAX {
                            dist[u as usize] = h;
                            next.push(u);
                        }
                    }
                }
                frontier = next;
            }
            dist
        };
        let mut rng = StdRng::seed_from_u64(splitmix64(s.seed ^ 0xD9_4A11C));
        let mut queries = Vec::with_capacity(s.workload.point_to_point);
        for _ in 0..s.workload.point_to_point {
            let mut found = None;
            for round in 0..256 {
                let src = rng.gen_range(0..n) as NodeId;
                let region = part.region_of(src);
                // Prefer short interior-to-interior journeys; relax both
                // constraints when half the draw budget is gone (thin kd
                // regions may simply lack such pairs).
                let strict = round < 128;
                if strict && !interior(src) {
                    continue;
                }
                let hops = if strict {
                    hops_from(src, 3)
                } else {
                    Vec::new()
                };
                let mates: Vec<NodeId> = g0
                    .node_ids()
                    .filter(|&v| {
                        v != src
                            && part.region_of(v) == region
                            && (!strict || (interior(v) && hops[v as usize] != usize::MAX))
                    })
                    .collect();
                if mates.is_empty() {
                    continue;
                }
                let dst = mates[rng.gen_range(0..mates.len())];
                if dijkstra_distance(&g0, src, dst).is_some() {
                    found = Some((src, dst));
                    break;
                }
            }
            let (src, dst) = found.expect("no reachable same-region pair in 256 draws");
            let oracles: Vec<Distance> = networks
                .iter()
                .map(|gv| dijkstra_distance(gv, src, dst).expect("topology is version-invariant"))
                .collect();
            queries.push((Query::for_nodes(&g0, src, dst), oracles));
        }

        Self {
            spec: spec.clone(),
            queries,
            worlds,
            patch_cycles,
        }
    }

    /// Version `v`'s network.
    pub fn g(&self, v: usize) -> &RoadNetwork {
        &self.worlds[v].world().g
    }

    /// The patch cycle upgrading `v - 1` to `v`.
    pub fn patch_cycle(&self, v: usize) -> &BroadcastCycle {
        &self.patch_cycles[v - 1]
    }

    /// Version `v`'s broadcast cycle for `method`, building the program
    /// on first use. Dynamic methods all broadcast their own cycle.
    fn cycle(&self, v: usize, method: MethodId) -> &BroadcastCycle {
        self.worlds[v]
            .ensure(method)
            .cycle()
            .expect("dynamic methods broadcast a cycle")
    }

    /// Drives one full session of query `qi` on version `v`'s world with
    /// a fresh client, which it returns for arena export.
    fn session(
        &self,
        v: usize,
        method: MethodId,
        qi: usize,
        budget: RecoveryBudget,
        seed: u64,
    ) -> (Driven, Device) {
        let program = self.worlds[v].ensure(method);
        let mut device = Device::new(program).expect("dynamic methods are air clients");
        let (query, oracles) = &self.queries[qi];
        let item = WorkItem::P2p {
            query: *query,
            oracle: oracles[v],
        };
        let (g, tune) = (self.g(v), Tune::of(&self.spec.base));
        let d = drive(program, &mut device, g, &item, &tune, budget, |_| seed);
        (d, device)
    }
}

/// Whether a dynamic world exercises the method: air clients with a
/// cycle of their own (the §6.1 channel-less runner and the kNN client
/// have no journey to re-answer over patches).
fn exercises(m: MethodId) -> bool {
    let d = m.descriptor();
    d.air_client && d.own_channel && !d.knn
}

/// The methods a dynamic world exercises, in registry order.
pub fn dynamic_methods() -> Vec<MethodId> {
    let all = MethodRegistry::standard().all();
    all.into_iter().filter(|&m| exercises(m)).collect()
}

/// Aggregated result of one (scenario × method) dynamic cell.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicCellReport {
    /// Scenario name (matrix row).
    pub scenario: String,
    /// Traffic-model label.
    pub traffic: String,
    /// Method name (matrix column).
    pub method: &'static str,
    /// Whether the method patched in place (vs rebuilding per version).
    pub patches_incrementally: bool,
    /// Versions run (including version 0).
    pub versions: usize,
    /// Queries posed per version.
    pub queries: usize,
    /// The (query × version) items, folded: `answered` counts the
    /// answers that came back, `mismatches` those (or the trusted
    /// unreachability verdicts) contradicting that version's oracle,
    /// `typed_failures` the typed give-ups. The gate requires every item
    /// exact.
    pub tally: Tally,
    /// Patch sessions that applied cleanly and certified their search.
    pub patch_sessions: usize,
    /// Fallback full re-tunes (typed patch failure or uncertified
    /// search), including chain restarts after a failed session.
    pub fallback_retunes: usize,
    /// Why fallbacks happened (`class → count`), sorted by class.
    pub fallback_classes: Vec<(String, usize)>,
    /// Packets received across every version-0 full session.
    pub initial_tune_packets: u64,
    /// Packets received across every patch session.
    pub patch_packets: u64,
    /// Packets received across every re-tune (rebuild sessions and
    /// supervised fallbacks).
    pub retune_packets: u64,
    /// The method's version-0 cycle length.
    pub cycle_packets: usize,
    /// Total patch-cycle packets across all version steps (scenario
    /// property, repeated per cell for self-contained rows).
    pub patch_cycle_packets: usize,
    /// `(patch_packets + retune_packets) / (queries × (versions - 1))` —
    /// the headline: what staying current costs per version, per client.
    pub mean_update_packets_per_version: f64,
}

impl DynamicCellReport {
    /// The per-cell certificate: every (query × version) item exact.
    pub fn exact(&self) -> bool {
        self.passes()
    }

    /// Builds the row from the cell's tally and patch counters.
    pub(crate) fn new(ctx: &DynamicContext, method: MethodId, t: Tally, p: Patches) -> Self {
        let versions = ctx.spec.versions;
        let queries = ctx.queries.len();
        let update_sessions = (queries * (versions - 1)) as f64;
        DynamicCellReport {
            scenario: ctx.spec.base.name.clone(),
            traffic: ctx.spec.traffic.label(),
            method: method.name(),
            patches_incrementally: method.descriptor().patches_incrementally,
            versions,
            queries,
            tally: t,
            patch_sessions: p.sessions,
            fallback_retunes: p.fallbacks.values().sum(),
            fallback_classes: p
                .fallbacks
                .into_iter()
                .map(|(c, n)| (c.to_string(), n))
                .collect(),
            initial_tune_packets: p.initial_packets,
            patch_packets: p.patch_packets,
            retune_packets: p.retune_packets,
            cycle_packets: ctx.cycle(0, method).len(),
            patch_cycle_packets: ctx.patch_cycles.iter().map(BroadcastCycle::len).sum(),
            mean_update_packets_per_version: if update_sessions > 0.0 {
                (p.patch_packets + p.retune_packets) as f64 / update_sessions
            } else {
                0.0
            },
        }
    }
}

impl Row for DynamicCellReport {
    const FAILURE: &'static str = "DYNAMIC ORACLE FAILURE";

    fn header() -> String {
        format!(
            "{:<18} {:<13} {:>5} {:>4} {:>5} {:>6} {:>6} {:>8} {:>8} {:>10} {:>5}\n",
            "Scenario",
            "Method",
            "Patch",
            "Ans",
            "Wrong",
            "PatchS",
            "Fallbk",
            "PatchPk",
            "RetunePk",
            "MeanUpd/v",
            "Exact"
        )
    }

    fn line(&self) -> String {
        format!(
            "{:<18} {:<13} {:>5} {:>4} {:>5} {:>6} {:>6} {:>8} {:>8} {:>10.1} {:>5}\n",
            self.scenario,
            self.method,
            if self.patches_incrementally {
                "yes"
            } else {
                "no"
            },
            self.tally.answered,
            self.tally.wrong,
            self.patch_sessions,
            self.fallback_retunes,
            self.patch_packets,
            self.retune_packets,
            self.mean_update_packets_per_version,
            if self.exact() { "yes" } else { "NO" },
        )
    }

    /// Every field is a pure function of the scenario seeds, so the
    /// artifact's cells are the digest input as they are.
    fn json_fields(&self, _timings: bool) -> String {
        format!(
            "\"scenario\": \"{}\", \"traffic\": \"{}\", \"method\": \"{}\", \
             \"patches_incrementally\": {}, \"versions\": {}, \"queries\": {}, \
             \"answered\": {}, \"mismatches\": {}, \"typed_failures\": {}, \
             \"patch_sessions\": {}, \"fallback_retunes\": {}, \
             \"fallback_classes\": {}, \"initial_tune_packets\": {}, \
             \"patch_packets\": {}, \"retune_packets\": {}, \"cycle_packets\": {}, \
             \"patch_cycle_packets\": {}, \"mean_update_packets_per_version\": {:.3}, \
             \"exact\": {}",
            self.scenario,
            self.traffic,
            self.method,
            self.patches_incrementally,
            self.versions,
            self.queries,
            self.tally.answered,
            self.tally.wrong,
            self.tally.typed(),
            self.patch_sessions,
            self.fallback_retunes,
            counts_json(&self.fallback_classes),
            self.initial_tune_packets,
            self.patch_packets,
            self.retune_packets,
            self.cycle_packets,
            self.patch_cycle_packets,
            self.mean_update_packets_per_version,
            self.exact(),
        )
    }

    fn tally(&self) -> &Tally {
        &self.tally
    }

    fn gate(&self) -> Gate {
        Gate::Exact
    }
}

/// The dynamic matrix of one run: every (scenario × method) cell, in
/// scenario-major order.
pub type DynamicMatrix = Matrix<DynamicCellReport>;

impl DynamicMatrix {
    /// The headline claim of the dynamic axis: in every scenario, every
    /// anchored incremental method (NR, EB) stays current strictly
    /// cheaper per version (`mean_update_packets_per_version`) than
    /// every whole-cycle method — partial tuning pays off exactly where
    /// the paper says it should.
    pub fn partial_tuning_advantage(&self) -> bool {
        let registry = MethodRegistry::standard();
        let mut anchored_max: BTreeMap<&str, f64> = BTreeMap::new();
        let mut whole_min: BTreeMap<&str, f64> = BTreeMap::new();
        for c in &self.cells {
            let d = registry
                .get(c.method)
                .expect("cell method is registered")
                .descriptor();
            let m = c.mean_update_packets_per_version;
            match d.shape {
                Some(SessionShape::Anchored) if d.patches_incrementally => {
                    let e = anchored_max.entry(c.scenario.as_str()).or_insert(m);
                    *e = e.max(m);
                }
                Some(SessionShape::WholeCycle) => {
                    let e = whole_min.entry(c.scenario.as_str()).or_insert(m);
                    *e = e.min(m);
                }
                _ => {}
            }
        }
        !anchored_max.is_empty()
            && anchored_max.iter().all(|(scenario, anchored)| {
                whole_min.get(scenario).is_none_or(|whole| anchored < whole)
            })
    }
}

/// A dynamic cell's patch counters, kept beside its [`Tally`].
#[derive(Default)]
pub(crate) struct Patches {
    /// Patch sessions that applied cleanly and certified their search.
    sessions: usize,
    /// Fallback full re-tunes by cause; each is one re-tune.
    fallbacks: BTreeMap<&'static str, usize>,
    initial_packets: u64,
    patch_packets: u64,
    retune_packets: u64,
}

impl Patches {
    fn fallback(&mut self, class: &'static str) {
        *self.fallbacks.entry(class).or_insert(0) += 1;
    }
}

fn patch_error_class(e: &PatchError) -> &'static str {
    match e {
        PatchError::Stale { .. } => "stale_version",
        PatchError::MissingEdge { .. } => "patch_missing_edge",
        PatchError::Aborted(_) => "patch_aborted",
    }
}

/// Runs one (scenario × method) dynamic cell: every query at every
/// version, each answer differentially verified against that version's
/// oracle.
pub fn run_dynamic_cell(ctx: &DynamicContext, method: MethodId) -> DynamicCellReport {
    let d = method.descriptor();
    let tune = Tune::of(&ctx.spec.base);
    let single = RecoveryBudget::single();
    // The dynamic seed space is salted so it never collides with the
    // static engine's or the chaos harness's session streams.
    let seed = splitmix64(ctx.spec.base.seed ^ 0xDA_11_4C);
    let (mut t, mut p) = (Tally::default(), Patches::default());

    for (qi, (query, oracles)) in ctx.queries.iter().enumerate() {
        // Version 0: a plain full session on the base world's cycle.
        let (first, mut device) =
            ctx.session(0, method, qi, single, session_seed(seed, method, qi, 0));
        p.initial_packets += first.tuned_packets;
        t.fold(&first);
        let mut arena: Option<ClientArena> = if first.stats.is_some() && d.patches_incrementally {
            device.export_arena()
        } else {
            None
        };

        for (v, &oracle) in oracles.iter().enumerate().skip(1) {
            let vseed = session_seed(seed, method, qi, v);
            if let Some(ar) = arena.as_mut() {
                // One patch session: directory + held regions only. The
                // patch cycle repeats on air until the next version, so a
                // lossy attempt just listens again — deltas carry absolute
                // weights, making re-application idempotent. Attempts are
                // bounded by the same recovery budget the §6.2 supervisor
                // enforces; only then does the client give up on the
                // arena and fall back to a full re-tune.
                let patch_base = splitmix64(vseed ^ 0x9A7C);
                let mut patched = Err(PatchError::Aborted("no patch attempt ran"));
                for k in 0..FAULT_BUDGET.max_attempts {
                    let mut pch = open(ctx.patch_cycle(v), &tune, attempt_seed(patch_base, k));
                    patched = receive_patch(&mut pch, v as u32 - 1, &ar.coverage, &mut ar.store);
                    p.patch_packets += pch.tuned();
                    match &patched {
                        // A stale directory is not a reception fault:
                        // listening again cannot un-stale the arena.
                        Ok(_) | Err(PatchError::Stale { .. }) => break,
                        Err(_) => {}
                    }
                }
                match patched {
                    Ok(_) => {
                        let (res, settled, certified) = ar.store.shortest_path_checked(
                            query.source,
                            query.target,
                            QueuePolicy::default(),
                        );
                        if certified {
                            p.sessions += 1;
                            let exact = res.as_ref().is_some_and(|(dist, path)| {
                                *dist == oracle && path_is_valid(ctx.g(v), query, *dist, path)
                            });
                            t.fold(&Driven {
                                verdict: if exact {
                                    Verdict::Exact
                                } else {
                                    Verdict::Wrong
                                },
                                stats: res.map(|_| QueryStats {
                                    settled_nodes: settled as u64,
                                    ..QueryStats::default()
                                }),
                                queries: 1,
                                ..Driven::default()
                            });
                            continue;
                        }
                        // The changed world routed the journey outside the
                        // arena's materialized set: re-tune.
                        p.fallback("uncertified_search");
                    }
                    Err(e) => p.fallback(patch_error_class(&e)),
                }
                arena = None;
            } else if d.patches_incrementally {
                // The chain broke at an earlier version; re-establish it.
                p.fallback("no_arena");
            }

            if d.patches_incrementally {
                // Supervised full re-tune on version v's world; the
                // re-tuned arena holds version v, so the chain resumes
                // patching at v + 1.
                let base = splitmix64(vseed ^ 0x7E71);
                let (r, mut device) = ctx.session(v, method, qi, FAULT_BUDGET, base);
                p.retune_packets += r.tuned_packets;
                t.fold(&r);
                if r.stats.is_some() {
                    arena = device.export_arena();
                }
            } else {
                // Rebuild method: a fresh full session per version.
                let (r, _) = ctx.session(v, method, qi, single, vseed);
                p.retune_packets += r.tuned_packets;
                t.fold(&r);
            }
        }
    }
    DynamicCellReport::new(ctx, method, t, p)
}

/// Builds every dynamic context, then fans the independent
/// (scenario × method) cells across `threads` workers with the same
/// chunk-ordered merge as the other matrices — bit-identical for every
/// thread count.
pub fn run_dynamic_matrix(
    specs: &[DynamicSpec],
    methods: &[MethodId],
    threads: usize,
) -> DynamicMatrix {
    let contexts: Vec<DynamicContext> = specs.iter().map(DynamicContext::build).collect();
    let has_work = |_: &DynamicContext, m| exercises(m);
    Matrix {
        cells: run_cells(&contexts, methods, threads, has_work, run_dynamic_cell),
    }
}

fn dyn_base(name: &str, seed: u64, traffic: TrafficSpec, versions: usize) -> DynamicSpec {
    // Big enough that journeys are genuinely local (the regime where
    // partial tuning pays): whole-cycle methods must swallow the entire
    // 20×20 world per version while anchored clients touch a few
    // regions of it.
    let mut s = ScenarioSpec::small(name, seed);
    s.graph = GraphSpec::Grid {
        width: 20,
        height: 20,
    };
    s.regions = 16;
    s.workload = WorkloadMix::p2p(6);
    DynamicSpec {
        base: s,
        traffic,
        versions,
    }
}

/// The default dynamic matrix behind `BENCH_dynamic.json`: pure
/// rush-hour ramps (dense deltas — most edges move every version),
/// ramps with incident spikes (sparse deltas), and incident traffic
/// over a lossy channel (patch reception and §6.2 recovery must
/// compose).
pub fn dynamic_matrix() -> Vec<DynamicSpec> {
    let mut lossy = dyn_base("dyn-lossy-incidents", 503, TrafficSpec::incidents(), 4);
    lossy.base.loss = crate::spec::LossSpec::Bernoulli { rate: 0.05 };
    vec![
        dyn_base("dyn-rushhour", 501, TrafficSpec::rush_hour(), 4),
        dyn_base("dyn-incidents", 502, TrafficSpec::incidents(), 4),
        lossy,
    ]
}

/// The CI smoke gate: two fast worlds covering pure ramps and incident
/// spikes.
pub fn smoke_dynamic_matrix() -> Vec<DynamicSpec> {
    let tiny = |name: &str, seed: u64, traffic: TrafficSpec| {
        let mut s = ScenarioSpec::small(name, seed);
        s.graph = GraphSpec::Grid {
            width: 8,
            height: 8,
        };
        s.workload = WorkloadMix::p2p(4);
        DynamicSpec {
            base: s,
            traffic,
            versions: 3,
        }
    };
    vec![
        tiny("dyn-smoke-rush", 521, TrafficSpec::rush_hour()),
        tiny("dyn-smoke-incidents", 522, TrafficSpec::incidents()),
    ]
}

/// The nightly dynamic matrix: the default set plus a harsher, longer
/// world and a Germany-class (paper-default topology) cell.
pub fn nightly_dynamic_matrix() -> Vec<DynamicSpec> {
    let mut specs = dynamic_matrix();
    specs.push(dyn_base("dyn-harsh", 531, TrafficSpec::harsh(), 6));
    let mut germany = dyn_base("dyn-germany2k", 532, TrafficSpec::incidents(), 4);
    germany.base.graph = GraphSpec::PresetNodes {
        preset: NetworkPreset::Germany,
        nodes: 2000,
    };
    germany.base.regions = 16;
    specs.push(germany);
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use spair_roadnet::certify::{fnv1a64, Certified};

    fn quick_spec(seed: u64) -> DynamicSpec {
        let mut s = ScenarioSpec::small("dyn-test", seed);
        s.graph = GraphSpec::Grid {
            width: 8,
            height: 8,
        };
        s.workload = WorkloadMix::p2p(3);
        DynamicSpec {
            base: s,
            traffic: TrafficSpec::rush_hour(),
            versions: 3,
        }
    }

    #[test]
    #[should_panic(expected = "ROADMAP item 12")]
    fn a_faulted_base_is_refused() {
        let mut spec = quick_spec(61);
        spec.base.fault = FaultSpec::Corruption { rate: 0.05 };
        DynamicContext::build(&spec);
    }

    #[test]
    fn incremental_methods_patch_and_stay_exact() {
        let ctx = DynamicContext::build(&quick_spec(61));
        for m in [MethodId::NR, MethodId::EB, MethodId::DJ] {
            let r = run_dynamic_cell(&ctx, m);
            assert!(r.exact(), "{}: {} mismatches", m.name(), r.tally.wrong);
            assert!(r.patches_incrementally);
            assert_eq!(r.tally.answered, r.queries * r.versions);
            assert!(
                r.patch_sessions > 0,
                "{}: some version must be served by a patch",
                m.name()
            );
        }
    }

    #[test]
    fn rebuild_methods_retune_every_version_and_stay_exact() {
        let ctx = DynamicContext::build(&quick_spec(62));
        for m in [MethodId::LD, MethodId::AF] {
            let r = run_dynamic_cell(&ctx, m);
            assert!(r.exact(), "{}: {} mismatches", m.name(), r.tally.wrong);
            assert!(!r.patches_incrementally);
            assert_eq!(r.patch_sessions, 0);
            assert!(r.retune_packets >= (r.cycle_packets * r.queries * (r.versions - 1)) as u64);
        }
    }

    #[test]
    fn oracles_change_across_versions() {
        let ctx = DynamicContext::build(&quick_spec(63));
        assert!(
            ctx.queries
                .iter()
                .any(|(_, oracles)| oracles.windows(2).any(|w| w[0] != w[1])),
            "rush-hour ramps must move at least one oracle distance"
        );
    }

    #[test]
    fn patching_beats_whole_cycle_retuning() {
        let ctx = DynamicContext::build(&quick_spec(64));
        let nr = run_dynamic_cell(&ctx, MethodId::NR);
        let ld = run_dynamic_cell(&ctx, MethodId::LD);
        assert!(
            nr.mean_update_packets_per_version < ld.mean_update_packets_per_version,
            "NR patches ({:.1}/v) must undercut LD rebuilds ({:.1}/v)",
            nr.mean_update_packets_per_version,
            ld.mean_update_packets_per_version
        );
    }

    #[test]
    fn dynamic_matrix_is_thread_invariant() {
        let specs = vec![quick_spec(65)];
        let methods = [MethodId::NR, MethodId::DJ, MethodId::LD];
        let serial = run_dynamic_matrix(&specs, &methods, 1);
        let par = run_dynamic_matrix(&specs, &methods, 4);
        assert_eq!(serial.deterministic_json(), par.deterministic_json());
        assert_eq!(serial.digest(), par.digest());
        assert_eq!(
            serial.digest(),
            fnv1a64(serial.deterministic_json().as_bytes())
        );
        assert_eq!(
            serial.digest(),
            0x2016_08a1_2eb4_1a56,
            "dynamic digest moved"
        );
    }

    #[test]
    fn every_fallback_has_one_class() {
        for specs in [smoke_dynamic_matrix(), dynamic_matrix()] {
            let m = run_dynamic_matrix(&specs, &dynamic_methods(), 0);
            for c in &m.cells {
                let classes: usize = c.fallback_classes.iter().map(|(_, n)| n).sum();
                assert_eq!(classes, c.fallback_retunes, "{} {}", c.scenario, c.method);
            }
        }
    }

    #[test]
    fn matrices_are_well_formed() {
        for specs in [
            dynamic_matrix(),
            smoke_dynamic_matrix(),
            nightly_dynamic_matrix(),
        ] {
            assert!(!specs.is_empty());
            let mut names: Vec<&str> = specs.iter().map(|s| s.base.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), specs.len(), "scenario names must be unique");
            for s in &specs {
                assert!(s.versions >= 2);
                assert!(s.base.workload.point_to_point > 0);
            }
        }
        assert!(dynamic_methods().len() >= 8);
    }
}
