//! Criterion micro-benchmarks: program builds and client sessions for
//! every registered method, on a moderate network.
//!
//! These complement the table/figure runners in `src/bin/experiments.rs`
//! (which print the paper's rows); the micro-benchmarks track the cost of
//! the individual building blocks so regressions are visible in isolation.
//! Every program comes from the registry's `ProgramSet`, and every
//! session runs through `spair_sim::drive` over the scenario's workload.

use criterion::{criterion_group, criterion_main, Criterion};
use spair_core::RecoveryBudget;
use spair_methods::{MethodRegistry, ProgramSet};
use spair_partition::KdTreePartition;
use spair_roadnet::NetworkPreset;
use spair_sim::{
    drive, Device, GraphSpec, LossSpec, ScenarioContext, ScenarioSpec, Tune, WorkItem, WorkloadMix,
};

/// Milan at 5% scale in 16 kd regions, with point-to-point, on-edge and
/// kNN items and every registered method's program.
fn bench_context() -> ScenarioContext {
    let spec = ScenarioSpec {
        graph: GraphSpec::Preset {
            preset: NetworkPreset::Milan,
            scale: 0.05,
        },
        regions: 16,
        workload: WorkloadMix {
            point_to_point: 16,
            on_edge: 4,
            knn: 4,
            k: 4,
        },
        ..ScenarioSpec::small("bench", 42)
    };
    ScenarioContext::build(&spec, &MethodRegistry::standard().all())
}

fn bench_partition(c: &mut Criterion) {
    let g = NetworkPreset::Milan.scaled_config(2, 0.05).generate();
    c.bench_function("server/kd_partition_32", |b| {
        b.iter(|| KdTreePartition::build(&g, 32))
    });
}

fn bench_program_builds(c: &mut Criterion) {
    let ctx = bench_context();
    for m in MethodRegistry::standard().all() {
        c.bench_function(&format!("server/{}_program", m.name()), |b| {
            b.iter(|| {
                let set = ProgramSet::new(ctx.world().clone());
                set.ensure(m);
                set
            })
        });
    }
}

/// Drives each method through its portion of the workload (its kNN items
/// for the kNN method, every other item otherwise), one item per
/// iteration on one reused device, tuned in at the cycle's start.
fn bench_clients(c: &mut Criterion) {
    let ctx = bench_context();
    let lossy = Tune {
        loss: LossSpec::Bernoulli { rate: 0.05 },
        ..Tune::at(0)
    };
    let nr = [("nr_loss_5pct", spair_methods::MethodId::NR, lossy)];
    let lossless = MethodRegistry::standard()
        .all()
        .into_iter()
        .map(|m| (m.name(), m, Tune::at(0)));
    for (name, m, tune) in lossless.chain(nr) {
        let program = ctx.program(m).expect("built for every method");
        let mut device = Device::new(program).expect("every method has a device");
        let knn = m.descriptor().knn;
        let items: Vec<&WorkItem> = ctx
            .workload
            .iter()
            .filter(|item| matches!(item, WorkItem::Knn { .. }) == knn)
            .collect();
        let mut i = 0u64;
        c.bench_function(&format!("client/{name}"), |b| {
            b.iter(|| {
                let item = items[i as usize % items.len()];
                i += 1;
                let single = RecoveryBudget::single();
                drive(program, &mut device, ctx.g(), item, &tune, single, |sub| {
                    i ^ sub as u64
                })
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_partition, bench_program_builds, bench_clients
}
criterion_main!(benches);
