//! Criterion micro-benchmarks for the precomputation pipeline and the
//! search kernels it rests on: serial vs parallel border-pair
//! precomputation, serial border precompute on the 8 000-node
//! germany-class map of the benchmark's `updates` workload (most of its
//! border nodes sit in dangling trees and share their attachment's
//! search), point-to-point Dijkstra, and the parallel ArcFlag build.
//! Complements `src/bin/bench_precompute.rs`, which runs the
//! acceptance-grade serial/parallel comparison and records it in
//! `BENCH_precompute.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use spair_baselines::arcflag::ArcFlagIndex;
use spair_core::BorderPrecomputation;
use spair_partition::KdTreePartition;
use spair_roadnet::dijkstra::{dijkstra_with_options, DijkstraOptions};
use spair_roadnet::parallel;
use spair_roadnet::NetworkPreset;

fn bench_precompute_parallel(c: &mut Criterion) {
    let g = NetworkPreset::Milan.scaled_config(2, 0.05).generate();
    let part = KdTreePartition::build(&g, 16);
    c.bench_function("precompute/border_serial", |b| {
        b.iter(|| BorderPrecomputation::run_serial(&g, &part))
    });
    let threads = parallel::num_threads();
    c.bench_function(&format!("precompute/border_parallel_t{threads}"), |b| {
        b.iter(|| BorderPrecomputation::run_with_threads(&g, &part, threads))
    });
    c.bench_function("precompute/arcflag_serial", |b| {
        b.iter(|| ArcFlagIndex::build_with_threads(&g, &part, 1))
    });
    c.bench_function(&format!("precompute/arcflag_parallel_t{threads}"), |b| {
        b.iter(|| ArcFlagIndex::build_with_threads(&g, &part, threads))
    });
}

fn bench_precompute_germany(c: &mut Criterion) {
    let g = NetworkPreset::Germany.config_for_nodes(7, 8_000).generate();
    let part = KdTreePartition::build(&g, 64);
    c.bench_function("precompute/border_serial_germany8k", |b| {
        b.iter(|| BorderPrecomputation::run_serial(&g, &part))
    });
}

fn bench_point_to_point(c: &mut Criterion) {
    let g = NetworkPreset::Germany.scaled_config(1, 0.1).generate();
    let target = (g.num_nodes() / 2) as u32;
    c.bench_function("dijkstra/point_to_point_heap", |b| {
        b.iter(|| {
            dijkstra_with_options(
                &g,
                0,
                DijkstraOptions {
                    target: Some(target),
                    bound: None,
                },
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_precompute_parallel, bench_precompute_germany, bench_point_to_point
}
criterion_main!(benches);
