//! Load-harness specifications and canned matrices.
//!
//! A [`LoadSpec`] is a [`ScenarioSpec`] (graph, partitioner, loss model,
//! channel rate, seed — everything one simulated world
//! varies) plus the two load-specific knobs: how many clients tune in to
//! the shared air cycle, and which client methods serve them. The
//! scenario's `point_to_point` workload count doubles as the size of the
//! distinct-query pool the population draws from (each query still gets a
//! serial-Dijkstra oracle for conformance).

use spair_methods::{MethodId, MethodRegistry, MethodUnavailable};
use spair_roadnet::NetworkPreset;
use spair_sim::{FaultSpec, GraphSpec, LossSpec, PartitionerKind, ScenarioSpec, WorkloadMix};

/// Node count of the paper-scale load network at `--scale 1.0`: a
/// "germany-class" topology (Germany's edge/node ratio from Table 2)
/// generated at 100k nodes — past the largest network the conformance
/// matrix exercises.
pub const PAPER_SCALE_BASE_NODES: usize = 100_000;

/// One load cell row: a scenario, its client population per method, and
/// the methods serving it.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// The simulated world. `workload.point_to_point` is the distinct
    /// query pool size; `on_edge`/`knn` must be 0.
    pub scenario: ScenarioSpec,
    /// Clients tuning in per (scenario × method) cell.
    pub population: usize,
    /// Client methods serving this population. Only methods whose
    /// descriptor declares `air_client` with a cycle of its own can be
    /// served (the §6.1 runner and the kNN client cannot).
    pub methods: Vec<MethodId>,
    /// Flash-crowd mode: the whole population tunes in within one
    /// broadcast cycle against a **shared** seeded fault plan (the
    /// scenario's [`FaultSpec`]), so correlated bursts hit neighbouring
    /// clients at the same wall-clock slots. Every client runs a full
    /// bounded-recovery supervised session, and the cell reports a
    /// fault/recovery summary next to the usual cost percentiles.
    pub flash: bool,
}

/// Why a [`LoadSpec`] cannot be served — surfaced by
/// [`LoadSpec::validate`] instead of the old `assert!`/`unreachable!`
/// dispatch panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadSpecError {
    /// Zero clients.
    EmptyPopulation(String),
    /// Zero point-to-point queries to draw from.
    EmptyQueryPool(String),
    /// The workload poses on-edge or kNN queries.
    NonPathWorkload(String),
    /// No methods to serve.
    NoMethods(String),
    /// The scenario injects faults but the cell is not a flash-crowd
    /// cell — only supervised flash sessions survive a faulty channel,
    /// so a faulty replay/exact cell would silently under-report.
    FaultsRequireFlash(String),
    /// A method the harness cannot serve (per its descriptor).
    Method {
        /// Scenario name.
        scenario: String,
        /// The typed capability error.
        err: MethodUnavailable,
    },
}

impl std::fmt::Display for LoadSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadSpecError::EmptyPopulation(s) => write!(f, "{s}: empty population"),
            LoadSpecError::EmptyQueryPool(s) => write!(f, "{s}: empty query pool"),
            LoadSpecError::NonPathWorkload(s) => {
                write!(f, "{s}: load populations pose point-to-point queries only")
            }
            LoadSpecError::NoMethods(s) => write!(f, "{s}: no methods"),
            LoadSpecError::FaultsRequireFlash(s) => {
                write!(f, "{s}: faulty scenarios must be flash-crowd cells")
            }
            LoadSpecError::Method { scenario, err } => write!(f, "{scenario}: {err}"),
        }
    }
}

impl std::error::Error for LoadSpecError {}

impl LoadSpec {
    /// Checks that the spec can be served: non-empty population, query
    /// pool and method list, a point-to-point-only workload, and —
    /// descriptor-driven — only air-client methods with a channel and a
    /// declared session shape.
    pub fn validate(&self) -> Result<(), LoadSpecError> {
        let name = || self.scenario.name.clone();
        if self.population == 0 {
            return Err(LoadSpecError::EmptyPopulation(name()));
        }
        if self.scenario.workload.point_to_point == 0 {
            return Err(LoadSpecError::EmptyQueryPool(name()));
        }
        if (self.scenario.workload.on_edge, self.scenario.workload.knn) != (0, 0) {
            return Err(LoadSpecError::NonPathWorkload(name()));
        }
        if self.methods.is_empty() {
            return Err(LoadSpecError::NoMethods(name()));
        }
        if self.scenario.fault.is_faulty() && !self.flash {
            return Err(LoadSpecError::FaultsRequireFlash(name()));
        }
        for m in &self.methods {
            let d = m.descriptor();
            let err = if !d.air_client || d.shape.is_none() {
                Some(MethodUnavailable::NotAirClient(d.name))
            } else if !d.own_channel {
                Some(MethodUnavailable::NoOwnChannel {
                    method: d.name,
                    reference: d.reference_cycle.unwrap_or(d.name),
                })
            } else {
                None
            };
            if let Some(err) = err {
                return Err(LoadSpecError::Method {
                    scenario: name(),
                    err,
                });
            }
        }
        Ok(())
    }
}

/// The paper-scale "germany-class" graph at `scale` (1.0 → 100k nodes).
pub fn paper_scale_graph(scale: f64) -> GraphSpec {
    assert!(scale > 0.0, "--scale must be positive");
    let nodes = ((PAPER_SCALE_BASE_NODES as f64 * scale).round() as usize).max(1_000);
    GraphSpec::PresetNodes {
        preset: NetworkPreset::Germany,
        nodes,
    }
}

fn base_scenario(name: &str, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_string(),
        graph: GraphSpec::Grid {
            width: 16,
            height: 16,
        },
        partitioner: PartitionerKind::KdMedian,
        regions: 16,
        loss: LossSpec::Lossless,
        fault: FaultSpec::None,
        workload: WorkloadMix::p2p(12),
        seed,
    }
}

/// The default load matrix behind `BENCH_load.json`:
///
/// 1. the **paper-scale cell** — a germany-class network at
///    `scale × 100k` nodes serving a six-figure population per method
///    over one shared cycle (lossless, so the population replays exactly
///    from per-anchor session profiles);
/// 2. a mid-scale lossless cell including the whole-cycle baselines;
/// 3. two lossy cells (Bernoulli and bursty Gilbert–Elliott) whose
///    clients each run a full per-client session, exercising the §6.2
///    recovery paths at population scale.
pub fn default_load_matrix(scale: f64) -> Vec<LoadSpec> {
    let graph = paper_scale_graph(scale);
    let nodes = match graph {
        GraphSpec::PresetNodes { nodes, .. } => nodes,
        _ => unreachable!(),
    };
    let mut specs = Vec::new();

    // SPQ precomputes a shortest-path tree (and a quadtree) per node —
    // the costliest build of all methods — but the build
    // (`SpqIndex::build_with_threads`) searches only the 2-core, reads
    // each core root's quadtree off per-cell color summaries, rebuilds
    // only the subtree's cells for a root inside a dangling tree (no
    // search) and fans out over workers. That keeps the all-pairs pass
    // tractable at 100k nodes, so the paper-scale cell serves both
    // whole-cycle-index representatives: SPQ next to HiTi.
    let mut s = base_scenario(&format!("germany{}k-kd-lossless", nodes / 1000), 9001);
    s.graph = graph;
    s.regions = 64;
    s.workload = WorkloadMix::p2p(8);
    specs.push(LoadSpec {
        scenario: s,
        population: 120_000,
        methods: vec![
            MethodId::NR,
            MethodId::EB,
            MethodId::DJ,
            MethodId::SPQ_AIR,
            MethodId::HITI_AIR,
        ],
        flash: false,
    });

    // The mid-scale lossless cell serves every air method the registry
    // knows — including registry-registered newcomers like `astar_air`
    // and `bidi_air`, which the column set picks up by name with no
    // further edits here beyond these two lookups.
    let registry = MethodRegistry::standard();
    let mut s = base_scenario("grid24-kd-lossless", 9002);
    s.graph = GraphSpec::Grid {
        width: 24,
        height: 24,
    };
    specs.push(LoadSpec {
        scenario: s,
        population: 50_000,
        methods: vec![
            MethodId::NR,
            MethodId::EB,
            MethodId::DJ,
            MethodId::LD,
            MethodId::AF,
            MethodId::SPQ_AIR,
            MethodId::HITI_AIR,
            registry.get("astar_air").expect("registered"),
            registry.get("bidi_air").expect("registered"),
        ],
        flash: false,
    });

    let mut s = base_scenario("grid16-kd-bernoulli2", 9003);
    s.loss = LossSpec::Bernoulli { rate: 0.02 };
    specs.push(LoadSpec {
        scenario: s,
        population: 12_000,
        methods: vec![MethodId::NR, MethodId::EB, MethodId::DJ],
        flash: false,
    });

    let mut s = base_scenario("grid16-grid-bursty5", 9004);
    s.partitioner = PartitionerKind::UniformGrid;
    s.loss = LossSpec::Bursty {
        rate: 0.05,
        burst: 6.0,
    };
    specs.push(LoadSpec {
        scenario: s,
        population: 8_000,
        methods: vec![MethodId::NR, MethodId::EB],
        flash: false,
    });

    // Flash-crowd cells: the whole population tunes in within one cycle
    // of a *faulty* server — a shared seeded fault plan, so correlated
    // bursts hit neighbouring clients at the same wall-clock slots.
    // Every client runs a full supervised session (no replay), which
    // bounds the tractable population; the cells report typed-failure
    // rates and recovery-latency percentiles next to the usual costs.
    let mut s = base_scenario("flash-grid16-corrloss10", 9005);
    s.fault = FaultSpec::CorrelatedLoss {
        rate: 0.10,
        window: 16,
    };
    specs.push(LoadSpec {
        scenario: s,
        population: 10_000,
        methods: vec![MethodId::NR, MethodId::EB, MethodId::DJ],
        flash: true,
    });

    let mut s = base_scenario("flash-grid16-chaos1", 9006);
    s.fault = FaultSpec::Chaos {
        rate: 0.01,
        mean_cycles: 16.0,
    };
    specs.push(LoadSpec {
        scenario: s,
        population: 10_000,
        methods: vec![MethodId::NR, MethodId::EB],
        flash: true,
    });

    specs
}

/// Applies a `--population N` override: lossless cells — replayed in
/// O(1) per client — take exactly `n`; lossy and flash-crowd cells,
/// whose clients each run a full session, are capped at `n` but never
/// raised above their spec'd population (use
/// [`override_flash_population`] to raise flash cells deliberately).
pub fn override_population(specs: &mut [LoadSpec], n: usize) {
    assert!(n > 0, "--population must be >= 1");
    for s in specs {
        if s.scenario.loss.is_lossy() || s.flash {
            s.population = s.population.min(n);
        } else {
            s.population = n;
        }
    }
}

/// Applies a `--flash-population N` override: sets the population of
/// every flash-crowd cell to exactly `n` (other cells untouched). The
/// nightly chaos lane uses this to push one flash cell to 250k clients.
pub fn override_flash_population(specs: &mut [LoadSpec], n: usize) {
    assert!(n > 0, "--flash-population must be >= 1");
    for s in specs {
        if s.flash {
            s.population = n;
        }
    }
}

/// The CI smoke gate: two fast cells (one replayed lossless, one exact
/// lossy) that keep the harness from rotting between nightlies.
pub fn smoke_load_matrix() -> Vec<LoadSpec> {
    let mut specs = Vec::new();

    let mut s = base_scenario("smoke-grid10-kd-lossless", 9101);
    s.graph = GraphSpec::Grid {
        width: 10,
        height: 10,
    };
    s.regions = 8;
    s.workload = WorkloadMix::p2p(6);
    specs.push(LoadSpec {
        scenario: s,
        population: 3_000,
        methods: vec![MethodId::NR, MethodId::EB, MethodId::DJ, MethodId::HITI_AIR],
        flash: false,
    });

    let mut s = base_scenario("smoke-grid8-kd-bernoulli5", 9102);
    s.graph = GraphSpec::Grid {
        width: 8,
        height: 8,
    };
    s.regions = 8;
    s.loss = LossSpec::Bernoulli { rate: 0.05 };
    s.workload = WorkloadMix::p2p(4);
    specs.push(LoadSpec {
        scenario: s,
        population: 1_200,
        methods: vec![MethodId::NR, MethodId::DJ],
        flash: false,
    });

    // A tiny flash-crowd cell keeps the supervised fault path alive
    // between nightlies.
    let mut s = base_scenario("smoke-flash-grid8-chaos1", 9103);
    s.graph = GraphSpec::Grid {
        width: 8,
        height: 8,
    };
    s.regions = 8;
    s.workload = WorkloadMix::p2p(4);
    s.fault = FaultSpec::Chaos {
        rate: 0.01,
        mean_cycles: 14.0,
    };
    specs.push(LoadSpec {
        scenario: s,
        population: 800,
        methods: vec![MethodId::NR, MethodId::DJ],
        flash: true,
    });

    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrices_validate_and_cover_the_acceptance_axes() {
        for spec in default_load_matrix(1.0).iter().chain(&smoke_load_matrix()) {
            spec.validate().unwrap();
        }
        let default = default_load_matrix(1.0);
        // The paper-scale cell: >= 100k clients per method, covering NR,
        // EB, DJ and a hierarchical method.
        let paper = &default[0];
        assert!(paper.population >= 100_000);
        assert!(matches!(
            paper.scenario.graph,
            GraphSpec::PresetNodes { nodes, .. } if nodes >= PAPER_SCALE_BASE_NODES
        ));
        for m in [
            MethodId::NR,
            MethodId::EB,
            MethodId::DJ,
            MethodId::SPQ_AIR,
            MethodId::HITI_AIR,
        ] {
            assert!(paper.methods.contains(&m));
        }
        // The registry-proving methods serve the mid-scale cell.
        let mid = &default[1];
        for name in ["astar_air", "bidi_air"] {
            let m = MethodRegistry::standard().get(name).unwrap();
            assert!(
                mid.methods.contains(&m),
                "{name} missing from {}",
                mid.scenario.name
            );
        }
        // Both lossy channel families are represented.
        assert!(default
            .iter()
            .any(|s| matches!(s.scenario.loss, LossSpec::Bernoulli { .. })));
        assert!(default
            .iter()
            .any(|s| matches!(s.scenario.loss, LossSpec::Bursty { .. })));
        // Flash-crowd cells with real fault axes ride both matrices.
        assert!(default
            .iter()
            .any(|s| s.flash && s.scenario.fault.is_faulty()));
        assert!(smoke_load_matrix()
            .iter()
            .any(|s| s.flash && s.scenario.fault.is_faulty()));
        // Unique names and seeds.
        let mut names: Vec<&str> = default.iter().map(|s| s.scenario.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), default.len());
    }

    #[test]
    fn paper_scale_graph_tracks_the_scale_knob() {
        assert!(matches!(
            paper_scale_graph(1.0),
            GraphSpec::PresetNodes { nodes: 100_000, .. }
        ));
        assert!(matches!(
            paper_scale_graph(0.1),
            GraphSpec::PresetNodes { nodes: 10_000, .. }
        ));
        // Tiny scales clamp to a generatable floor.
        assert!(matches!(
            paper_scale_graph(0.001),
            GraphSpec::PresetNodes { nodes: 1_000, .. }
        ));
    }

    #[test]
    fn population_override_scales_lossless_and_caps_lossy() {
        let mut specs = default_load_matrix(1.0);
        override_population(&mut specs, 500_000);
        for s in &specs {
            if s.scenario.loss.is_lossy() || s.flash {
                assert!(s.population <= 12_000, "{}", s.scenario.name);
            } else {
                assert_eq!(s.population, 500_000, "{}", s.scenario.name);
            }
        }
        let mut specs = default_load_matrix(1.0);
        override_population(&mut specs, 100);
        for s in &specs {
            assert_eq!(s.population, 100, "{}", s.scenario.name);
        }
    }

    #[test]
    fn flash_population_override_touches_flash_cells_only() {
        let mut specs = default_load_matrix(1.0);
        let before: Vec<usize> = specs.iter().map(|s| s.population).collect();
        override_flash_population(&mut specs, 250_000);
        for (s, &b) in specs.iter().zip(&before) {
            if s.flash {
                assert_eq!(s.population, 250_000, "{}", s.scenario.name);
            } else {
                assert_eq!(s.population, b, "{}", s.scenario.name);
            }
        }
    }

    #[test]
    fn faulty_scenarios_must_be_flash_cells() {
        let mut spec = smoke_load_matrix()
            .into_iter()
            .find(|s| s.flash)
            .expect("smoke flash cell");
        spec.validate().unwrap();
        spec.flash = false;
        assert!(matches!(
            spec.validate().unwrap_err(),
            LoadSpecError::FaultsRequireFlash(_)
        ));
    }

    #[test]
    fn validate_rejects_non_path_workloads_and_non_air_methods() {
        let mut spec = smoke_load_matrix().remove(0);
        spec.scenario.workload.knn = 2;
        let err = spec.validate().unwrap_err();
        assert!(matches!(err, LoadSpecError::NonPathWorkload(_)));
        assert!(err.to_string().contains("point-to-point"));

        // The old `unreachable!` dispatch arms are now typed errors.
        let mut spec = smoke_load_matrix().remove(0);
        spec.methods.push(MethodId::NR_MEM_BOUND);
        let err = spec.validate().unwrap_err();
        assert!(matches!(
            err,
            LoadSpecError::Method {
                err: MethodUnavailable::NotAirClient("nr_mem_bound"),
                ..
            }
        ));
        let mut spec = smoke_load_matrix().remove(0);
        spec.methods = vec![MethodId::KNN_AIR];
        assert!(spec.validate().is_err());
    }
}
