//! Canned scenario matrices: the default trajectory matrix behind
//! `BENCH_scenarios.json` and the small CI smoke gate.

use crate::spec::{GraphSpec, LossSpec, PartitionerKind, ScenarioSpec, WorkloadMix};
use spair_roadnet::NetworkPreset;

/// The default conformance matrix: eight scenarios covering all three
/// loss models, both partitioners and three query kinds, over
/// grid-topology networks plus a scaled Milan preset (realistic weight
/// distribution).
pub fn default_matrix() -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();

    let mut s = ScenarioSpec::small("grid12-kd-lossless", 101);
    specs.push(s);

    s = ScenarioSpec::small("grid12-grid-lossless", 102);
    s.partitioner = PartitionerKind::UniformGrid;
    specs.push(s);

    s = ScenarioSpec::small("grid14-kd-bernoulli1", 103);
    s.graph = GraphSpec::Grid {
        width: 14,
        height: 14,
    };
    s.loss = LossSpec::Bernoulli { rate: 0.01 };
    specs.push(s);

    s = ScenarioSpec::small("grid14-grid-bernoulli5", 104);
    s.graph = GraphSpec::Grid {
        width: 14,
        height: 14,
    };
    s.partitioner = PartitionerKind::UniformGrid;
    s.loss = LossSpec::Bernoulli { rate: 0.05 };
    specs.push(s);

    s = ScenarioSpec::small("grid16-kd-bursty5", 105);
    s.graph = GraphSpec::Grid {
        width: 16,
        height: 16,
    };
    s.loss = LossSpec::Bursty {
        rate: 0.05,
        burst: 8.0,
    };
    specs.push(s);

    s = ScenarioSpec::small("milan04-kd-lossless", 106);
    s.graph = GraphSpec::Preset {
        preset: NetworkPreset::Milan,
        scale: 0.04,
    };
    s.workload = WorkloadMix {
        point_to_point: 6,
        on_edge: 2,
        knn: 2,
        k: 3,
    };
    specs.push(s);

    s = ScenarioSpec::small("grid10-kd-bursty10-heap", 107);
    s.graph = GraphSpec::Grid {
        width: 10,
        height: 10,
    };
    s.loss = LossSpec::Bursty {
        rate: 0.10,
        burst: 4.0,
    };
    specs.push(s);

    // Named for the Dial bucket queue it once ran; the name stays so its
    // cell identities, and with them the digests, stay comparable.
    s = ScenarioSpec::small("grid10-grid-bernoulli10-bucket", 108);
    s.graph = GraphSpec::Grid {
        width: 10,
        height: 10,
    };
    s.partitioner = PartitionerKind::UniformGrid;
    s.loss = LossSpec::Bernoulli { rate: 0.10 };
    specs.push(s);

    specs
}

/// The nightly matrix: everything in [`default_matrix`] plus paper-scale
/// scenarios — the full Germany network of Table 2 ("Germany @ 1.0",
/// closing the ROADMAP nightly open item) under both a lossless and a
/// lossy channel. Too slow for the per-push smoke gate; the
/// `nightly.yml` workflow runs it on a cron schedule.
pub fn nightly_matrix() -> Vec<ScenarioSpec> {
    let mut specs = default_matrix();

    let mut s = ScenarioSpec::small("germany10-kd-lossless", 301);
    s.graph = GraphSpec::Preset {
        preset: NetworkPreset::Germany,
        scale: 1.0,
    };
    s.regions = 64;
    s.workload = WorkloadMix {
        point_to_point: 4,
        on_edge: 2,
        knn: 2,
        k: 3,
    };
    specs.push(s);

    s = ScenarioSpec::small("germany10-grid-bernoulli1", 302);
    s.graph = GraphSpec::Preset {
        preset: NetworkPreset::Germany,
        scale: 1.0,
    };
    s.partitioner = PartitionerKind::UniformGrid;
    s.regions = 64;
    s.loss = LossSpec::Bernoulli { rate: 0.01 };
    s.workload = WorkloadMix {
        point_to_point: 3,
        on_edge: 1,
        knn: 1,
        k: 3,
    };
    specs.push(s);

    specs
}

/// The CI smoke gate: three fast scenarios, one per loss model, both
/// partitioners represented.
pub fn smoke_matrix() -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();

    let mut s = ScenarioSpec::small("smoke-kd-lossless", 201);
    s.graph = GraphSpec::Grid {
        width: 10,
        height: 10,
    };
    s.workload = WorkloadMix {
        point_to_point: 4,
        on_edge: 2,
        knn: 2,
        k: 2,
    };
    specs.push(s.clone());

    s.name = "smoke-grid-bernoulli5".into();
    s.seed = 202;
    s.partitioner = PartitionerKind::UniformGrid;
    s.loss = LossSpec::Bernoulli { rate: 0.05 };
    specs.push(s.clone());

    s.name = "smoke-kd-bursty5".into();
    s.seed = 203;
    s.partitioner = PartitionerKind::KdMedian;
    s.loss = LossSpec::Bursty {
        rate: 0.05,
        burst: 6.0,
    };
    specs.push(s);

    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matrix_covers_the_acceptance_axes() {
        let specs = default_matrix();
        assert!(specs.len() >= 6);
        assert!(specs.iter().any(|s| matches!(s.loss, LossSpec::Lossless)));
        assert!(specs
            .iter()
            .any(|s| matches!(s.loss, LossSpec::Bernoulli { .. })));
        assert!(specs
            .iter()
            .any(|s| matches!(s.loss, LossSpec::Bursty { .. })));
        assert!(specs
            .iter()
            .any(|s| s.partitioner == PartitionerKind::KdMedian));
        assert!(specs
            .iter()
            .any(|s| s.partitioner == PartitionerKind::UniformGrid));
        // >= 2 query kinds in every scenario.
        for s in &specs {
            assert!(
                s.workload.point_to_point > 0 && s.workload.on_edge > 0,
                "{}",
                s.name
            );
        }
        // Unique names and seeds.
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len());
    }

    #[test]
    fn nightly_matrix_extends_default_with_paper_scale() {
        let nightly = nightly_matrix();
        let default = default_matrix();
        assert!(nightly.len() > default.len());
        // The paper-scale Germany scenarios close the ROADMAP open item.
        let at_scale: Vec<&ScenarioSpec> = nightly
            .iter()
            .filter(|s| {
                matches!(
                    s.graph,
                    GraphSpec::Preset {
                        preset: NetworkPreset::Germany,
                        scale,
                    } if scale == 1.0
                )
            })
            .collect();
        assert!(at_scale.len() >= 2);
        assert!(at_scale.iter().any(|s| s.loss.is_lossy()));
        assert!(at_scale.iter().any(|s| !s.loss.is_lossy()));
        // Unique names and seeds across the whole nightly set.
        let mut names: Vec<&str> = nightly.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), nightly.len());
    }

    #[test]
    fn smoke_matrix_covers_all_loss_models() {
        let specs = smoke_matrix();
        assert!(specs.len() >= 3);
        assert!(specs.iter().any(|s| !s.loss.is_lossy()));
        assert!(specs
            .iter()
            .any(|s| matches!(s.loss, LossSpec::Bernoulli { .. })));
        assert!(specs
            .iter()
            .any(|s| matches!(s.loss, LossSpec::Bursty { .. })));
    }
}
