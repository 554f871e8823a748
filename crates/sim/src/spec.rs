//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] names everything one simulated world varies: the
//! graph, the partitioner, the channel noise, the faults and the query
//! workload mix. Specs are plain data — the engine ([`crate::engine`]) turns a spec plus its seed into a fully
//! deterministic run, so two runs of the same spec are byte-identical
//! regardless of thread count.

use spair_broadcast::{FaultPlan, LossModel};
use spair_partition::KdTreePartition;
use spair_roadnet::generators::small_grid;
use spair_roadnet::{NetworkPreset, RoadNetwork};

/// Which road network a scenario simulates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphSpec {
    /// A `width × height` grid-topology network (fast; used by the
    /// conformance tests).
    Grid {
        /// Grid columns.
        width: usize,
        /// Grid rows.
        height: usize,
    },
    /// One of the paper's five evaluation networks, scaled by `scale`
    /// (realistic degree/weight distributions).
    Preset {
        /// The evaluation network.
        preset: NetworkPreset,
        /// Scale factor in `(0, 1]`.
        scale: f64,
    },
    /// A preset's topology class generated at an explicit node count —
    /// including counts beyond the paper's Table 2 sizes. The load
    /// harness's paper-scale "germany-class" networks (~100k+ nodes) are
    /// expressed through this variant.
    PresetNodes {
        /// The topology class (edge/node ratio source).
        preset: NetworkPreset,
        /// Exact node count to generate.
        nodes: usize,
    },
}

impl GraphSpec {
    /// Generates the network for `seed`.
    pub fn build(&self, seed: u64) -> RoadNetwork {
        match *self {
            GraphSpec::Grid { width, height } => small_grid(width, height, seed),
            GraphSpec::Preset { preset, scale } => preset.scaled_config(seed, scale).generate(),
            GraphSpec::PresetNodes { preset, nodes } => {
                preset.config_for_nodes(seed, nodes).generate()
            }
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match *self {
            GraphSpec::Grid { width, height } => format!("grid{width}x{height}"),
            GraphSpec::Preset { preset, scale } => {
                format!("{}@{scale:.2}", preset.name().replace(' ', ""))
            }
            GraphSpec::PresetNodes { preset, nodes } => {
                format!("{}@{nodes}n", preset.name().replace(' ', ""))
            }
        }
    }
}

/// How the network is split into regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionerKind {
    /// Kd-tree median splits (the paper's partitioner; balances node
    /// counts per region).
    KdMedian,
    /// Uniform midpoint splits — a regular spatial grid expressed through
    /// the same broadcastable splitting values (§4.1's "regular grid"
    /// alternative).
    UniformGrid,
}

impl PartitionerKind {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            PartitionerKind::KdMedian => "kd",
            PartitionerKind::UniformGrid => "grid",
        }
    }

    /// Splits `g` into `regions` regions.
    pub fn build(&self, g: &RoadNetwork, regions: usize) -> KdTreePartition {
        match self {
            PartitionerKind::KdMedian => KdTreePartition::build(g, regions),
            PartitionerKind::UniformGrid => KdTreePartition::build_uniform(g, regions),
        }
    }
}

/// Channel noise, as reproducible spec data (the concrete [`LossModel`]
/// is instantiated per query from a derived seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossSpec {
    /// Every packet arrives.
    Lossless,
    /// I.i.d. loss at `rate`.
    Bernoulli {
        /// Loss probability in `[0, 1)`.
        rate: f64,
    },
    /// Gilbert–Elliott bursty loss at stationary `rate` with mean burst
    /// length `burst` packets.
    Bursty {
        /// Stationary loss probability in `[0, 1)`.
        rate: f64,
        /// Mean burst length in packets (`>= 1`).
        burst: f64,
    },
}

impl LossSpec {
    /// Instantiates the loss model for one channel session.
    pub fn model(&self, seed: u64) -> LossModel {
        match *self {
            LossSpec::Lossless => LossModel::Lossless,
            LossSpec::Bernoulli { rate } => LossModel::bernoulli(rate, seed),
            LossSpec::Bursty { rate, burst } => LossModel::bursty(rate, burst, seed),
        }
    }

    /// Whether packets can be lost at all.
    pub fn is_lossy(&self) -> bool {
        !matches!(self, LossSpec::Lossless)
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match *self {
            LossSpec::Lossless => "lossless".to_string(),
            LossSpec::Bernoulli { rate } => format!("bernoulli{:.1}%", rate * 100.0),
            LossSpec::Bursty { rate, burst } => {
                format!("bursty{:.1}%x{burst:.0}", rate * 100.0)
            }
        }
    }
}

/// Seeded fault injection beyond plain loss, as reproducible spec data
/// (the concrete [`FaultPlan`] is instantiated per session from a derived
/// seed and the serving method's cycle length).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// No faults: channels behave byte-for-byte as without a fault layer.
    None,
    /// Per-packet bit corruption at `rate`, caught by the frame CRC and
    /// surfaced as a detectable (loss-like) event.
    Corruption {
        /// Corruption probability in `[0, 1]`.
        rate: f64,
    },
    /// Link-layer stutter: the previous slot's frame replaces the
    /// scheduled one at `rate` — a silently-corrupting fault.
    Duplication {
        /// Duplication probability in `[0, 1]`.
        rate: f64,
    },
    /// Server restarts (cycle truncation + version bump) roughly every
    /// `mean_cycles` cycles, with `stale_rate` of post-restart slots
    /// leaking frames from the pre-restart schedule.
    Restarts {
        /// Mean cycles between restarts (`> 0`).
        mean_cycles: f64,
        /// Stale-frame leak probability in `[0, 1]`.
        stale_rate: f64,
    },
    /// Correlated window loss: aligned `window`-packet spans of the
    /// absolute clock are wiped at `rate` for every client sharing the
    /// session seed (flash-crowd fading).
    CorrelatedLoss {
        /// Window wipe probability in `[0, 1)`.
        rate: f64,
        /// Window length in packets (`>= 1`).
        window: u64,
    },
    /// Every fault class at once — the chaos cell.
    Chaos {
        /// Per-packet rate shared by corruption / duplication / stale
        /// draws and the correlated windows.
        rate: f64,
        /// Mean cycles between restarts (`> 0`).
        mean_cycles: f64,
    },
}

impl FaultSpec {
    /// Instantiates the fault plan for one channel session over a cycle
    /// of `cycle_len` packets.
    pub fn plan(&self, seed: u64, cycle_len: usize) -> FaultPlan {
        let mean_packets = |cycles: f64| (cycles * cycle_len.max(1) as f64).max(2.0);
        match *self {
            FaultSpec::None => FaultPlan::none(),
            FaultSpec::Corruption { rate } => FaultPlan::corruption(rate, seed),
            FaultSpec::Duplication { rate } => FaultPlan::duplication(rate, seed),
            FaultSpec::Restarts {
                mean_cycles,
                stale_rate,
            } => FaultPlan::restarts(mean_packets(mean_cycles), stale_rate, seed),
            FaultSpec::CorrelatedLoss { rate, window } => {
                FaultPlan::correlated_loss(rate, window, seed)
            }
            FaultSpec::Chaos { rate, mean_cycles } => FaultPlan {
                seed,
                corrupt_rate: rate,
                duplicate_rate: rate,
                stale_rate: rate,
                restart_mean_packets: mean_packets(mean_cycles),
                correlated_loss: Some((rate, 8)),
            },
        }
    }

    /// Whether any fault can occur at all.
    pub fn is_faulty(&self) -> bool {
        !matches!(self, FaultSpec::None)
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match *self {
            FaultSpec::None => "nofault".to_string(),
            FaultSpec::Corruption { rate } => format!("corrupt{:.1}%", rate * 100.0),
            FaultSpec::Duplication { rate } => format!("dup{:.1}%", rate * 100.0),
            FaultSpec::Restarts {
                mean_cycles,
                stale_rate,
            } => format!("restart{mean_cycles:.1}c+stale{:.1}%", stale_rate * 100.0),
            FaultSpec::CorrelatedLoss { rate, window } => {
                format!("corrloss{:.1}%x{window}", rate * 100.0)
            }
            FaultSpec::Chaos { rate, mean_cycles } => {
                format!("chaos{:.1}%@{mean_cycles:.1}c", rate * 100.0)
            }
        }
    }
}

/// Where in the cycle clients tune in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuneInSpec {
    /// Uniformly random offset per query (the paper's §7 protocol).
    Uniform,
    /// Always at this offset (modulo the cycle length): a probe session
    /// at a chosen slot, or a scheduled socket session's in-process twin.
    At(usize),
}

/// How many queries of each kind a scenario poses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadMix {
    /// Node-to-node shortest-path queries.
    pub point_to_point: usize,
    /// Arbitrary on-edge position queries (§5 closing remark), answered
    /// by endpoint decomposition over the same air methods.
    pub on_edge: usize,
    /// kNN queries over the scenario's POI set (§8 extension).
    pub knn: usize,
    /// `k` for the kNN queries.
    pub k: usize,
}

impl WorkloadMix {
    /// A point-to-point-only mix.
    pub fn p2p(n: usize) -> Self {
        Self {
            point_to_point: n,
            on_edge: 0,
            knn: 0,
            k: 0,
        }
    }
}

/// One simulated world: everything a conformance run varies.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Unique scenario name (the matrix row key).
    pub name: String,
    /// Road network.
    pub graph: GraphSpec,
    /// Partitioner for EB/NR/kNN (and ArcFlag, which reuses it).
    pub partitioner: PartitionerKind,
    /// Region count (power of two, >= 2).
    pub regions: usize,
    /// Channel noise.
    pub loss: LossSpec,
    /// Fault injection beyond loss (corruption, restarts, duplicates,
    /// stale frames, correlated windows). [`FaultSpec::None`] keeps every
    /// channel byte-identical to the pre-fault engine.
    pub fault: FaultSpec,
    /// Query workload mix.
    pub workload: WorkloadMix,
    /// Master seed: graph generation, workload draws, tune-in offsets and
    /// loss-model streams all derive from it.
    pub seed: u64,
}

impl ScenarioSpec {
    /// A small, fast scenario with sensible defaults — the starting point
    /// the tests and the default matrix specialize.
    pub fn small(name: &str, seed: u64) -> Self {
        Self {
            name: name.to_string(),
            graph: GraphSpec::Grid {
                width: 12,
                height: 12,
            },
            partitioner: PartitionerKind::KdMedian,
            regions: 8,
            loss: LossSpec::Lossless,
            fault: FaultSpec::None,
            workload: WorkloadMix {
                point_to_point: 8,
                on_edge: 3,
                knn: 3,
                k: 3,
            },
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_spec_builds_deterministically() {
        let spec = GraphSpec::Grid {
            width: 6,
            height: 7,
        };
        let a = spec.build(3);
        let b = spec.build(3);
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.num_nodes(), 42);
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<String> = vec![
            LossSpec::Lossless.label(),
            LossSpec::Bernoulli { rate: 0.05 }.label(),
            LossSpec::Bursty {
                rate: 0.05,
                burst: 8.0,
            }
            .label(),
        ];
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 3);
    }
}
