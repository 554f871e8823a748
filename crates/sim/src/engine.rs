//! The deterministic scenario engine.
//!
//! [`ScenarioContext::build`] expands a [`ScenarioSpec`] into a concrete
//! world: the generated network, its partition and border precomputation,
//! the seeded workload with its serial-Dijkstra oracle answers, and —
//! through the method registry's [`ProgramSet`] — one broadcast program
//! per requested method. [`run_cell`] then drives one method through the
//! whole workload with [`crate::drive()`] — every channel session gets a
//! loss model and tune-in offset derived from the scenario seed alone —
//! and differentially verifies each answer against the oracle.
//!
//! Methods are dispatched by **capability**, not by name: the engine
//! never matches on a method enum. The driver's [`Device`] follows the
//! method's descriptor — an air client, the kNN client, or a local
//! answer through [`spair_methods::MethodProgram::local_answer`] (the
//! §6.1 memory-bound contraction). Missing programs surface as failed
//! cells instead of `expect` panics.
//!
//! [`run_matrix`] fans the independent (scenario × method) cells across
//! threads with [`spair_roadnet::parallel::map_reduce_chunked`], whose
//! chunk-ordered merge makes the resulting
//! [`ConformanceMatrix`] bit-identical to a serial run for every thread
//! count.

use crate::drive::{drive, Device, Driven, Tally, Tune};
use crate::report::{CellReport, ConformanceMatrix, Matrix};
use crate::spec::ScenarioSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spair_broadcast::{splitmix64, BroadcastCycle, ChannelRate, DeviceProfile, EnergyModel};
use spair_core::query::AirClient;
use spair_core::{BorderPrecomputation, OnEdgePoint, Query, RecoveryBudget};
use spair_methods::{
    MethodId, MethodProgram, MethodRegistry, MethodUnavailable, ProgramSet, World,
};
use spair_roadnet::{
    dijkstra_distance, dijkstra_full, insert_positions, parallel, Distance, EdgePosition, NodeId,
    Point, QueuePolicy, RoadNetwork, Weight,
};

/// The base seed of one channel session: a pure function of (scenario
/// seed, method ordinal, query index, sub-query index), so runs are
/// reproducible for any thread schedule.
pub(crate) fn session_seed(scenario_seed: u64, method: MethodId, query: usize, sub: usize) -> u64 {
    let ordinal = u64::from(method.ordinal());
    splitmix64(
        scenario_seed
            ^ splitmix64(ordinal.wrapping_add(1))
            ^ splitmix64(((query as u64) << 8) | sub as u64),
    )
}

/// One verified unit of workload, with its oracle answer.
#[derive(Debug, Clone)]
pub enum WorkItem {
    /// Node-to-node shortest-path query.
    P2p {
        /// The query.
        query: Query,
        /// Serial-Dijkstra distance.
        oracle: Distance,
    },
    /// Arbitrary on-edge positions (§5 closing remark).
    OnEdge {
        /// Source position.
        src: OnEdgePoint,
        /// Destination position.
        dst: OnEdgePoint,
        /// Distance on the physically split reference graph.
        oracle: Distance,
    },
    /// kNN over the scenario's POI set (§8).
    Knn {
        /// Query node.
        source: NodeId,
        /// Query coordinates.
        source_pt: Point,
        /// Neighbors requested.
        k: usize,
        /// The k smallest POI distances, ascending.
        oracle: Vec<Distance>,
    },
}

/// A fully expanded scenario: immutable once built, shared read-only by
/// every cell that runs against it.
pub struct ScenarioContext {
    /// The spec this context expands.
    pub spec: ScenarioSpec,
    /// Seeded workload with oracle answers.
    pub workload: Vec<WorkItem>,
    /// Lazy per-method programs over the expanded world.
    programs: ProgramSet,
}

impl ScenarioContext {
    /// Expands `spec`, building programs only for `methods` (and only
    /// where the spec's workload gives them work to do).
    pub fn build(spec: &ScenarioSpec, methods: &[MethodId]) -> Self {
        let g = spec.graph.build(spec.seed);
        let part = spec.partitioner.build(&g, spec.regions);
        let pre = BorderPrecomputation::run(&g, &part);
        let (workload, pois) = generate_workload(spec, &g);
        let programs = ProgramSet::new(World::from_parts(g, part, pre).with_pois(pois));
        let ctx = Self {
            spec: spec.clone(),
            workload,
            programs,
        };
        for &m in methods {
            if ctx.has_work(m) {
                ctx.programs.ensure(m);
            }
        }
        ctx
    }

    /// Whether the spec's workload gives the method anything to run.
    pub fn has_work(&self, method: MethodId) -> bool {
        if method.descriptor().knn {
            self.spec.workload.knn > 0
        } else {
            self.spec.workload.point_to_point + self.spec.workload.on_edge > 0
        }
    }

    /// The expanded world (network, partition, precomputation, POIs).
    pub fn world(&self) -> &World {
        self.programs.world()
    }

    /// The generated network.
    pub fn g(&self) -> &RoadNetwork {
        &self.programs.world().g
    }

    /// The method's built program, or a typed error if it was not
    /// requested at build time.
    pub fn program(&self, method: MethodId) -> Result<&dyn MethodProgram, MethodUnavailable> {
        self.programs.get(method)
    }

    /// The broadcast cycle the given method's clients tune in to. Also
    /// the shared air cycle the load harness serves its populations
    /// from. Typed errors replace the old `expect("… program")` panics:
    /// `NotBuilt` if the method was not requested, `NoOwnChannel` for
    /// the §6.1 runner (whose *reports* quote NR's cycle — see
    /// [`ScenarioContext::reported_cycle_packets`] — but which has no
    /// channel to tune in to).
    pub fn cycle(&self, method: MethodId) -> Result<&BroadcastCycle, MethodUnavailable> {
        self.programs.get(method)?.cycle()
    }

    /// A fresh client device for the given method (every session models
    /// an independent mobile client), or a typed error where the old
    /// dispatch had an `unreachable!` arm.
    pub fn client(&self, method: MethodId) -> Result<Box<dyn AirClient>, MethodUnavailable> {
        self.programs
            .get(method)?
            .make_client(QueuePolicy::default())
    }

    /// Cycle length quoted in the method's cell reports (its own, or —
    /// explicitly, per the descriptor's `reference_cycle` — NR's for the
    /// channel-less §6.1 runner, built on demand through the program set
    /// and shared with the `nr` column when both run). 0 if no program
    /// was built.
    pub fn reported_cycle_packets(&self, method: MethodId) -> usize {
        match self.programs.get(method).map(|p| p.cycle()) {
            Ok(Ok(cycle)) => cycle.len(),
            Ok(Err(MethodUnavailable::NoOwnChannel { reference, .. })) => {
                MethodRegistry::standard()
                    .get(reference)
                    .ok()
                    .and_then(|r| self.programs.ensure(r).cycle().ok())
                    .map(|c| c.len())
                    .unwrap_or(0)
            }
            _ => 0,
        }
    }

    /// Drives every item of the method's portion of the workload (its kNN
    /// items for a kNN method, every other item otherwise) on one reused
    /// device under `tune` and `budget`, and folds it: the tally, and the
    /// worst answered latency of each item kind (point-to-point, on-edge,
    /// kNN). Sub-session `s` of item `qi` draws from
    /// [`session_seed`]`(seed, method, qi, s)`. Without a program or
    /// device every item folds as the default [`Driven`].
    pub(crate) fn fold_portion(
        &self,
        method: MethodId,
        tune: &Tune,
        budget: RecoveryBudget,
    ) -> (Tally, [u64; 3]) {
        let program = self.program(method).ok();
        let mut device = program.and_then(|p| Device::new(p).ok());
        let knn = method.descriptor().knn;
        let (mut tally, mut worst) = (Tally::default(), [0u64; 3]);
        for (qi, item) in self.workload.iter().enumerate() {
            if matches!(item, WorkItem::Knn { .. }) != knn {
                continue;
            }
            let d = match (program, device.as_mut()) {
                (Some(p), Some(dev)) => drive(p, dev, self.g(), item, tune, budget, |sub| {
                    session_seed(self.spec.seed, method, qi, sub)
                }),
                _ => Driven::default(),
            };
            if let Some(stats) = &d.stats {
                let kind = match item {
                    WorkItem::P2p { .. } => 0,
                    WorkItem::OnEdge { .. } => 1,
                    WorkItem::Knn { .. } => 2,
                };
                worst[kind] = worst[kind].max(stats.latency_packets);
            }
            tally.fold(&d);
        }
        (tally, worst)
    }
}

/// Generates the seeded workload and the POI set for a spec.
fn generate_workload(spec: &ScenarioSpec, g: &RoadNetwork) -> (Vec<WorkItem>, Vec<NodeId>) {
    let n = g.num_nodes();
    let mut rng = StdRng::seed_from_u64(splitmix64(spec.seed ^ 0x574F_524B));
    let mut items = Vec::new();

    for _ in 0..spec.workload.point_to_point {
        items.push(p2p_item(g, &mut rng));
    }

    if spec.workload.on_edge > 0 {
        // Symmetric arcs wide enough to hold an interior position.
        let mut arcs: Vec<(NodeId, NodeId, Weight)> = Vec::new();
        for v in g.node_ids() {
            for (u, w) in g.out_edges(v) {
                if v < u && w >= 2 && g.weight_between(u, v) == Some(w) {
                    arcs.push((v, u, w));
                }
            }
        }
        assert!(
            arcs.len() >= 2,
            "on-edge workload needs >= 2 splittable undirected arcs"
        );
        for _ in 0..spec.workload.on_edge {
            let mut found = None;
            for _ in 0..64 {
                let i = rng.gen_range(0..arcs.len());
                let mut j = rng.gen_range(0..arcs.len());
                while j == i {
                    j = rng.gen_range(0..arcs.len());
                }
                let (a1, b1, w1) = arcs[i];
                let (a2, b2, w2) = arcs[j];
                let o1 = rng.gen_range(1..w1);
                let o2 = rng.gen_range(1..w2);
                let (g2, ids) = insert_positions(
                    g,
                    &[
                        EdgePosition {
                            from: a1,
                            to: b1,
                            along: o1,
                        },
                        EdgePosition {
                            from: a2,
                            to: b2,
                            along: o2,
                        },
                    ],
                );
                if let Some(d) = dijkstra_distance(&g2, ids[0], ids[1]) {
                    found = Some((
                        OnEdgePoint::on_undirected(g, a1, b1, o1),
                        OnEdgePoint::on_undirected(g, a2, b2, o2),
                        d,
                    ));
                    break;
                }
            }
            let (src, dst, oracle) = found.expect("no reachable on-edge pair in 64 draws");
            items.push(WorkItem::OnEdge { src, dst, oracle });
        }
    }

    let mut pois: Vec<NodeId> = Vec::new();
    if spec.workload.knn > 0 {
        let want = (n / 20).max(spec.workload.k + 2).min(n);
        while pois.len() < want {
            let v = rng.gen_range(0..n) as NodeId;
            if !pois.contains(&v) {
                pois.push(v);
            }
        }
        pois.sort_unstable();
        for _ in 0..spec.workload.knn {
            let source = rng.gen_range(0..n) as NodeId;
            items.push(knn_item(g, &pois, source, spec.workload.k));
        }
    }
    (items, pois)
}

/// One point-to-point item: a random pair of distinct nodes drawn from
/// `rng` and its serial-Dijkstra distance. Unreachable pairs are redrawn
/// (generated networks are connected, but a guard keeps degenerate
/// graphs from spinning).
pub fn p2p_item(g: &RoadNetwork, rng: &mut StdRng) -> WorkItem {
    let n = g.num_nodes();
    for _ in 0..64 {
        let s = rng.gen_range(0..n) as NodeId;
        let mut t = rng.gen_range(0..n) as NodeId;
        while t == s {
            t = rng.gen_range(0..n) as NodeId;
        }
        if let Some(oracle) = dijkstra_distance(g, s, t) {
            let query = Query::for_nodes(g, s, t);
            return WorkItem::P2p { query, oracle };
        }
    }
    panic!("no reachable query pair in 64 draws")
}

/// The kNN item at `source`: its oracle is the `k` smallest distances
/// from `source` to the reachable nodes of `pois`, ascending.
pub fn knn_item(g: &RoadNetwork, pois: &[NodeId], source: NodeId, k: usize) -> WorkItem {
    let tree = dijkstra_full(g, source);
    let mut oracle: Vec<Distance> = pois
        .iter()
        .filter(|&&p| tree.reachable(p))
        .map(|&p| tree.distance(p))
        .collect();
    oracle.sort_unstable();
    oracle.truncate(k);
    WorkItem::Knn {
        source,
        source_pt: g.point(source),
        k,
        oracle,
    }
}

/// Runs one (scenario × method) cell: the method's portion of the
/// workload (the kNN items for kNN methods, every other item otherwise),
/// each item driven through [`drive`] on a fault-free channel in one
/// attempt and verified against the oracle. A method whose program is
/// unavailable yields a fully failed cell (every item of its portion a
/// mismatch) — surfacing the error in the matrix instead of panicking.
pub fn run_cell(ctx: &ScenarioContext, method: MethodId) -> CellReport {
    let single = RecoveryBudget::single();
    let (tally, worst) = ctx.fold_portion(method, &Tune::of(&ctx.spec), single);
    let (rx, sleep, cpu) = EnergyModel::WAVELAN_ARM.breakdown(&tally.stats, ChannelRate::MOVING_3G);
    CellReport {
        scenario: ctx.spec.name.clone(),
        method: method.name(),
        max_p2p_latency_packets: worst[0],
        max_onedge_latency_packets: worst[1],
        max_knn_latency_packets: worst[2],
        cycle_packets: ctx.reported_cycle_packets(method),
        within_memory_budget: tally.stats.peak_memory_bytes <= DeviceProfile::J2ME_PHONE.heap_bytes,
        radio_energy_joules: rx + sleep,
        cpu_ms: cpu / EnergyModel::WAVELAN_ARM.cpu_watts * 1000.0,
        tally,
    }
}

/// Builds every scenario context, then fans the independent
/// (scenario × method) cells across `threads` workers, each run by
/// `run`.
pub(crate) fn run_scenarios<R: Send>(
    specs: &[ScenarioSpec],
    methods: &[MethodId],
    threads: usize,
    run: fn(&ScenarioContext, MethodId) -> R,
) -> Matrix<R> {
    let contexts: Vec<ScenarioContext> = specs
        .iter()
        .map(|s| ScenarioContext::build(s, methods))
        .collect();
    Matrix {
        cells: run_cells(&contexts, methods, threads, ScenarioContext::has_work, run),
    }
}

/// The conformance matrix over `specs` × `methods`.
pub fn run_matrix(
    specs: &[ScenarioSpec],
    methods: &[MethodId],
    threads: usize,
) -> ConformanceMatrix {
    run_scenarios(specs, methods, threads, run_cell)
}

/// Fans the (context × method) cells that `has_work` admits across
/// `threads` workers, in context-major order. The chunk-ordered merge of
/// [`parallel::map_reduce_chunked`] keeps that order — and therefore the
/// report bytes and digest — identical for every thread count.
pub(crate) fn run_cells<C: Sync, R: Send>(
    contexts: &[C],
    methods: &[MethodId],
    threads: usize,
    has_work: impl Fn(&C, MethodId) -> bool,
    run: impl Fn(&C, MethodId) -> R + Sync,
) -> Vec<R> {
    let cells: Vec<(&C, MethodId)> = contexts
        .iter()
        .flat_map(|c| methods.iter().map(move |&m| (c, m)))
        .filter(|&(c, m)| has_work(c, m))
        .collect();
    parallel::map_reduce_chunked(
        &cells,
        threads,
        2,
        || (),
        Vec::new,
        |_, partial: &mut Vec<R>, chunk, _| partial.extend(chunk.iter().map(|&(c, m)| run(c, m))),
        |a, b| a.extend(b),
    )
    .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{LossSpec, WorkloadMix};

    #[test]
    fn session_seeds_are_distinct_per_coordinate() {
        let a = session_seed(1, MethodId::NR, 0, 0);
        let b = session_seed(1, MethodId::EB, 0, 0);
        let c = session_seed(1, MethodId::NR, 1, 0);
        let d = session_seed(1, MethodId::NR, 0, 1);
        let e = session_seed(2, MethodId::NR, 0, 0);
        let all = [a, b, c, d, e];
        for (i, x) in all.iter().enumerate() {
            for y in &all[i + 1..] {
                assert_ne!(x, y);
            }
        }
    }

    #[test]
    fn workload_is_reproducible_and_oracle_backed() {
        let spec = ScenarioSpec::small("w", 7);
        let g = spec.graph.build(spec.seed);
        let (a, pa) = generate_workload(&spec, &g);
        let (b, pb) = generate_workload(&spec, &g);
        assert_eq!(a.len(), b.len());
        assert_eq!(pa, pb);
        assert_eq!(
            a.len(),
            spec.workload.point_to_point + spec.workload.on_edge + spec.workload.knn
        );
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (
                    WorkItem::P2p {
                        query: qx,
                        oracle: ox,
                    },
                    WorkItem::P2p {
                        query: qy,
                        oracle: oy,
                    },
                ) => {
                    assert_eq!(qx, qy);
                    assert_eq!(ox, oy);
                    assert_eq!(dijkstra_distance(&g, qx.source, qx.target), Some(*ox));
                }
                (WorkItem::OnEdge { oracle: ox, .. }, WorkItem::OnEdge { oracle: oy, .. }) => {
                    assert_eq!(ox, oy)
                }
                (WorkItem::Knn { oracle: ox, k, .. }, WorkItem::Knn { oracle: oy, .. }) => {
                    assert_eq!(ox, oy);
                    assert!(ox.len() <= *k);
                    assert!(ox.windows(2).all(|w| w[0] <= w[1]));
                }
                _ => panic!("workload kind order diverged"),
            }
        }
    }

    #[test]
    fn single_cell_runs_exact_on_lossless_nr() {
        let spec = ScenarioSpec::small("cell", 11);
        let ctx = ScenarioContext::build(&spec, &[MethodId::NR]);
        let report = run_cell(&ctx, MethodId::NR);
        assert!(report.exact(), "mismatches: {}", report.mismatches());
        assert_eq!(
            report.tally.items,
            spec.workload.point_to_point + spec.workload.on_edge
        );
        assert!(report.tally.stats.tuning_packets > 0);
        assert!(report.radio_energy_joules > 0.0);
    }

    #[test]
    fn mem_bound_cell_is_exact_and_channel_free() {
        let mut spec = ScenarioSpec::small("mb", 5);
        spec.loss = LossSpec::Bernoulli { rate: 0.05 };
        let ctx = ScenarioContext::build(&spec, &[MethodId::NR, MethodId::NR_MEM_BOUND]);
        let report = run_cell(&ctx, MethodId::NR_MEM_BOUND);
        assert!(report.exact(), "mismatches: {}", report.mismatches());
        assert_eq!(
            report.tally.stats.tuning_packets, 0,
            "no channel is simulated"
        );
        assert!(report.tally.stats.peak_memory_bytes > 0);
    }

    #[test]
    fn mem_bound_runs_without_nr_in_the_method_list() {
        // The §6.1 runner's program embeds its own reference NR build, so
        // its cell reports NR's cycle length even when `nr` itself is not
        // requested — no hidden cross-method dependency.
        let spec = ScenarioSpec::small("mb-alone", 9);
        let m = run_matrix(&[spec], &[MethodId::NR_MEM_BOUND], 1);
        assert_eq!(m.cells.len(), 1);
        assert!(m.passes());
        assert!(m.cells[0].cycle_packets > 0);
    }

    #[test]
    fn mem_bound_has_no_air_cycle_but_reports_nrs() {
        // The "no own channel" capability is explicit: `cycle()` is a
        // typed error (no silent aliasing to NR), while the *report*
        // quotes NR's cycle length per the descriptor's reference_cycle.
        let spec = ScenarioSpec::small("mb-explicit", 13);
        let ctx = ScenarioContext::build(&spec, &[MethodId::NR, MethodId::NR_MEM_BOUND]);
        assert!(matches!(
            ctx.cycle(MethodId::NR_MEM_BOUND),
            Err(MethodUnavailable::NoOwnChannel {
                method: "nr_mem_bound",
                reference: "nr",
            })
        ));
        assert!(matches!(
            ctx.client(MethodId::NR_MEM_BOUND),
            Err(MethodUnavailable::NotAirClient("nr_mem_bound"))
        ));
        assert_eq!(
            ctx.reported_cycle_packets(MethodId::NR_MEM_BOUND),
            ctx.cycle(MethodId::NR).unwrap().len(),
        );
    }

    #[test]
    fn unavailable_programs_surface_as_failed_cells_not_panics() {
        let spec = ScenarioSpec::small("missing", 17);
        let ctx = ScenarioContext::build(&spec, &[MethodId::NR]);
        assert!(matches!(
            ctx.cycle(MethodId::DJ),
            Err(MethodUnavailable::NotBuilt("dj"))
        ));
        let report = run_cell(&ctx, MethodId::DJ);
        assert!(!report.exact());
        assert_eq!(
            report.tally.items,
            spec.workload.point_to_point + spec.workload.on_edge
        );
        assert_eq!(report.mismatches(), report.tally.items);
    }

    #[test]
    fn matrix_skips_cells_without_work() {
        let mut spec = ScenarioSpec::small("skip", 3);
        spec.workload = WorkloadMix::p2p(2);
        let m = run_matrix(&[spec], &[MethodId::DJ, MethodId::KNN_AIR], 1);
        assert_eq!(m.cells.len(), 1, "knn cell has no work and is skipped");
        assert_eq!(m.cells[0].method, "dj");
        assert!(m.passes());
    }
}
