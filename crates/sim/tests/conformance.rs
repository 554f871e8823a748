//! Conformance properties of the scenario engine:
//!
//! 1. under lossless channels, every client method's distance exactly
//!    equals the serial Dijkstra oracle, for random seeds;
//! 2. under lossy channels (Bernoulli and bursty) answers stay exact and
//!    per-query access latency is bounded by a small retry-cycle budget —
//!    far below the clients' §6.2 abort guard of 100 cycles;
//! 3. a `ScenarioSpec` run is reproducible byte-for-byte from its seed,
//!    independent of thread count.

use proptest::prelude::*;
use spair_roadnet::certify::Certified;
use spair_sim::{
    run_matrix, ConformanceMatrix, GraphSpec, LossSpec, MethodId, MethodRegistry, PartitionerKind,
    ScenarioSpec, WorkloadMix,
};

/// Every registered method — the matrix column set now comes from the
/// registry, so newly registered methods are conformance-tested with
/// zero edits here.
fn all_methods() -> Vec<MethodId> {
    MethodRegistry::standard().all()
}

/// Retry-cycle budgets: generous multiples of the observed worst cases,
/// yet far below `MAX_RETRY_CYCLES` (100) — a regression here means a
/// client started needing materially more cycles to finish.
const P2P_BUDGET_CYCLES: u64 = 16;
const ONEDGE_BUDGET_CYCLES: u64 = 64; // up to 4 sub-queries per item
const KNN_BUDGET_CYCLES: u64 = 32;

fn tiny_spec(name: &str, seed: u64) -> ScenarioSpec {
    let mut s = ScenarioSpec::small(name, seed);
    s.graph = GraphSpec::Grid {
        width: 10,
        height: 10,
    };
    s.workload = WorkloadMix {
        point_to_point: 3,
        on_edge: 1,
        knn: 1,
        k: 2,
    };
    s
}

fn assert_latency_bounded(m: &ConformanceMatrix) {
    for c in &m.cells {
        let cycle = c.cycle_packets as u64;
        assert!(
            c.max_p2p_latency_packets <= P2P_BUDGET_CYCLES * cycle,
            "{} {}: p2p latency {} packets vs {} cycle budget of {}",
            c.scenario,
            c.method,
            c.max_p2p_latency_packets,
            P2P_BUDGET_CYCLES,
            cycle,
        );
        assert!(
            c.max_onedge_latency_packets <= ONEDGE_BUDGET_CYCLES * cycle,
            "{} {}: on-edge latency {} packets vs budget",
            c.scenario,
            c.method,
            c.max_onedge_latency_packets,
        );
        assert!(
            c.max_knn_latency_packets <= KNN_BUDGET_CYCLES * cycle,
            "{} {}: knn latency {} packets vs budget",
            c.scenario,
            c.method,
            c.max_knn_latency_packets,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// (a) Lossless: every method is exact for random seeds, on both
    /// partitioners.
    #[test]
    fn every_method_matches_oracle_lossless(seed in 0u64..10_000) {
        let mut spec = tiny_spec("prop-lossless", seed);
        spec.partitioner = if seed % 2 == 0 {
            PartitionerKind::KdMedian
        } else {
            PartitionerKind::UniformGrid
        };
        let methods = all_methods();
        let m = run_matrix(&[spec], &methods, 1);
        prop_assert_eq!(m.cells.len(), methods.len());
        prop_assert!(m.passes(), "mismatches: {}", m.total(|c| c.mismatches()));
    }

    /// (b) Lossy channels: still exact, latency within the retry budget.
    #[test]
    fn lossy_channels_stay_exact_with_bounded_latency(
        seed in 0u64..10_000,
        bursty in 0u8..2,
    ) {
        let mut spec = tiny_spec("prop-lossy", seed);
        spec.loss = if bursty == 1 {
            LossSpec::Bursty { rate: 0.08, burst: 6.0 }
        } else {
            LossSpec::Bernoulli { rate: 0.08 }
        };
        let m = run_matrix(&[spec], &all_methods(), 1);
        prop_assert!(m.passes(), "mismatches: {}", m.total(|c| c.mismatches()));
        assert_latency_bounded(&m);
    }
}

/// (c) Byte-for-byte reproducibility: same seed => identical
/// deterministic JSON and digest, for 1 vs 4 threads and across repeated
/// runs in the same process.
#[test]
fn runs_are_reproducible_byte_for_byte_across_thread_counts() {
    let specs = [tiny_spec("repro-a", 42), {
        let mut s = tiny_spec("repro-b", 43);
        s.loss = LossSpec::Bursty {
            rate: 0.05,
            burst: 8.0,
        };
        s.partitioner = PartitionerKind::UniformGrid;
        s
    }];
    let methods = all_methods();
    let serial = run_matrix(&specs, &methods, 1);
    let serial_again = run_matrix(&specs, &methods, 1);
    let parallel = run_matrix(&specs, &methods, 4);
    assert_eq!(
        serial.deterministic_json(),
        serial_again.deterministic_json(),
        "two serial runs diverged"
    );
    assert_eq!(
        serial.deterministic_json(),
        parallel.deterministic_json(),
        "parallel run diverged from serial"
    );
    assert_eq!(serial.digest(), parallel.digest());
    assert!(serial.passes());
}

/// A different seed must actually change the workload (the digest is not
/// vacuously constant).
#[test]
fn digest_depends_on_the_seed() {
    let a = run_matrix(&[tiny_spec("s", 1)], &[MethodId::NR, MethodId::DJ], 1);
    let b = run_matrix(&[tiny_spec("s", 2)], &[MethodId::NR, MethodId::DJ], 1);
    assert_ne!(a.digest(), b.digest());
}

/// Trait-vs-old-enum behavior neutrality: the registry refactor must not
/// move a single byte of the nine legacy methods' cells. The smoke
/// matrix restricted to them reproduces its frozen pre-refactor digest.
/// The default matrix's legacy-9 digest is pinned once, by CI's
/// legacy-method neutrality gate (`bench_scenarios --methods …`).
#[test]
fn legacy_nine_method_digests_are_unchanged_by_the_registry() {
    let legacy: Vec<MethodId> = [
        "nr",
        "eb",
        "dj",
        "ld",
        "af",
        "spq_air",
        "hiti_air",
        "nr_mem_bound",
        "knn_air",
    ]
    .iter()
    .map(|n| MethodRegistry::standard().get(n).unwrap())
    .collect();
    // Smoke matrix: digest recorded from the pre-refactor enum engine.
    let smoke = run_matrix(&spair_sim::smoke_matrix(), &legacy, 2);
    assert!(smoke.passes());
    assert_eq!(
        smoke.digest(),
        0x67be_06b5_041d_e670,
        "smoke-matrix legacy digest drifted"
    );
}

/// A second tiny scenario seed is exact on every method.
#[test]
fn seed_77_scenario_is_exact_on_every_method() {
    let m = run_matrix(&[tiny_spec("queue", 77)], &all_methods(), 1);
    assert!(m.passes(), "mismatches {}", m.total(|c| c.mismatches()));
}
