//! Load-harness properties:
//!
//! 1. **Replay exactness** — the O(1)-per-client replay model (session
//!    profiles per anchor class) predicts a real client session
//!    packet-for-packet, for every air method and arbitrary tune-in
//!    offsets;
//! 2. **streaming percentiles** agree with the exact order statistics
//!    within one bucket width, and histogram merging is associative and
//!    split-invariant (proptest);
//! 3. **thread-count reproducibility** — prepare + serve is byte-for-byte
//!    identical for 1, 2 and 4 workers, lossy exact-mode cells included;
//! 4. lossy populations stay conformant and cost strictly more latency
//!    than their lossless twin.

use proptest::prelude::*;
use spair_broadcast::{BroadcastChannel, LossModel};
use spair_load::spec::override_population;
use spair_load::{prepare, run, smoke_load_matrix, LoadSpec, StreamingHistogram};
use spair_roadnet::certify::Certified;
use spair_sim::{
    GraphSpec, LossSpec, MethodId, MethodRegistry, ScenarioContext, ScenarioSpec, WorkItem,
    WorkloadMix,
};

/// All methods the load harness serves — straight from the registry, so
/// a newly registered air method is replay-certified with zero edits
/// here. This is the descriptor-vs-replay certification: each method's
/// *declared* `SessionShape` drives the anchor-class replay below, and
/// `replay_matches_real_sessions` proves that replay packet-for-packet
/// against real client sessions.
fn air_methods() -> Vec<MethodId> {
    MethodRegistry::standard().air_methods()
}

fn tiny_load_spec(seed: u64, methods: &[MethodId]) -> LoadSpec {
    let mut s = ScenarioSpec::small("tiny-load", seed);
    s.graph = GraphSpec::Grid {
        width: 10,
        height: 10,
    };
    s.workload = WorkloadMix::p2p(4);
    LoadSpec {
        scenario: s,
        population: 300,
        methods: methods.to_vec(),
        flash: false,
    }
}

/// The crux of the harness: for every method and a spread of tune-in
/// offsets, the replayed (tuning, latency, sleep) triple and the oracle
/// verdict must equal a real client session run at that offset.
#[test]
fn replay_matches_real_sessions() {
    let methods = air_methods();
    let spec = tiny_load_spec(41, &methods);
    let prep = prepare(std::slice::from_ref(&spec), 2);
    // An independently built context is the same deterministic world.
    let ctx = ScenarioContext::build(&spec.scenario, &spec.methods);
    let pool: Vec<_> = ctx
        .workload
        .iter()
        .filter_map(|w| match w {
            WorkItem::P2p { query, oracle } => Some((*query, *oracle)),
            _ => None,
        })
        .collect();
    assert_eq!(pool.len(), 4);
    for &method in &methods {
        let cell = prep.cell_index("tiny-load", method).expect("cell prepared");
        let cycle = ctx.cycle(method).expect("air program built");
        let len = cycle.len();
        let step = (len / 7).max(1);
        let offsets: Vec<usize> = (0..len).step_by(step).chain([len - 1]).collect();
        for (qi, &(query, oracle)) in pool.iter().enumerate() {
            for &off in &offsets {
                let predicted = prep
                    .predicted_session(cell, qi, off)
                    .expect("lossless profile");
                let mut ch = BroadcastChannel::tune_in(cycle, off, LossModel::Lossless);
                let mut client = ctx.client(method).expect("air client");
                let out = client.query(&mut ch, &query).expect("lossless session");
                assert_eq!(
                    predicted,
                    (
                        out.stats.tuning_packets,
                        out.stats.latency_packets,
                        out.stats.sleep_packets
                    ),
                    "{} query {qi} offset {off}: replay diverged from the real session",
                    method.name(),
                );
                assert_eq!(out.distance, oracle, "{} query {qi}", method.name());
            }
        }
    }
}

#[test]
fn whole_pipeline_is_bit_identical_across_thread_counts() {
    let mut specs = smoke_load_matrix();
    override_population(&mut specs, 400);
    let r1 = run(&prepare(&specs, 1), 1);
    let prep4 = prepare(&specs, 4);
    let r4 = run(&prep4, 4);
    let r2 = run(&prep4, 2);
    assert_eq!(
        r1.deterministic_json(),
        r4.deterministic_json(),
        "prepare+serve 1 vs 4"
    );
    assert_eq!(
        r2.deterministic_json(),
        r4.deterministic_json(),
        "serve 2 vs 4"
    );
    assert_eq!(r1.digest(), r4.digest());
}

#[test]
fn smoke_matrix_serves_exactly_and_reports_percentiles() {
    let mut specs = smoke_load_matrix();
    override_population(&mut specs, 600);
    let report = run(&prepare(&specs, 2), 2);
    assert!(
        report.passes(),
        "{} mismatches",
        report.total(|c| c.tally.wrong + c.failures())
    );
    assert_eq!(report.total(|c| c.population), 600 * report.cells.len());
    for c in &report.cells {
        assert!(c.latency.p50 > 0, "{} {}", c.scenario, c.method);
        assert!(c.latency.p50 <= c.latency.p95);
        assert!(c.latency.p95 <= c.latency.p99);
        assert!(c.latency.p99 <= c.latency.max);
        assert!(c.tuning.max <= c.latency.max);
        assert!(c.energy_uj.p50 > 0);
        assert!(c.radio_energy_joules_total > 0.0);
        assert!(c.tally.stats.peak_memory_bytes > 0);
    }
}

/// Modeled per-client peak memory must never regress. The CSR/arena
/// client-state rewrite tightened real process memory while keeping the
/// *modeled* charges byte-identical; these ceilings are the smoke
/// matrix's per-cell peaks captured from the pre-CSR store. A cell
/// exceeding its ceiling means a client started charging more than the
/// paper's cost model says it should.
#[test]
fn peak_client_memory_never_regresses() {
    let specs = smoke_load_matrix();
    let report = run(&prepare(&specs, 2), 2);
    let ceilings: &[(&str, &str, usize)] = &[
        ("smoke-grid10-kd-lossless", "nr", 5136),
        ("smoke-grid10-kd-lossless", "eb", 6656),
        ("smoke-grid10-kd-lossless", "dj", 6240),
        ("smoke-grid10-kd-lossless", "hiti_air", 16208),
        ("smoke-grid8-kd-bernoulli5", "nr", 4072),
        ("smoke-grid8-kd-bernoulli5", "dj", 3984),
        ("smoke-flash-grid8-chaos1", "nr", 2800),
        ("smoke-flash-grid8-chaos1", "dj", 3984),
    ];
    assert_eq!(report.cells.len(), ceilings.len(), "smoke matrix changed");
    for &(scenario, method, ceiling) in ceilings {
        let cell = report
            .cells
            .iter()
            .find(|c| c.scenario == scenario && c.method == method)
            .unwrap_or_else(|| panic!("missing cell {scenario}/{method}"));
        assert!(
            cell.tally.stats.peak_memory_bytes <= ceiling,
            "{scenario}/{method}: peak {} exceeds pre-CSR ceiling {ceiling}",
            cell.tally.stats.peak_memory_bytes
        );
        assert!(
            cell.tally.stats.peak_memory_bytes > 0,
            "{scenario}/{method}: no charge"
        );
    }
}

/// The flash-crowd certificate at population scale: a whole crowd
/// tuning in against one chaotic server is **never wrong** — every
/// answered session matched the oracle, every give-up is typed, every
/// session stayed within the recovery budget — and the cell reports the
/// fault/recovery summary the JSON schema promises.
#[test]
fn flash_crowd_cells_certify_never_wrong() {
    let mut specs = smoke_load_matrix();
    specs.retain(|s| s.flash);
    assert_eq!(specs.len(), 1, "one smoke flash cell expected");
    override_population(&mut specs, 400);
    let report = run(&prepare(&specs, 2), 2);
    assert!(
        report.passes(),
        "{} mismatched/out-of-budget sessions",
        report.total(|c| c.tally.wrong + c.failures())
    );
    for c in &report.cells {
        assert!(!c.replayed, "flash cells run full supervised sessions");
        let f = c.fault.as_ref().expect("flash cells carry a fault summary");
        assert_eq!(c.tally.over_budget, 0, "{}", c.method);
        assert!(c.tally.attempts >= c.population as u64);
        assert!(
            f.recovery.max >= c.latency.max,
            "{}: recovery covers all sessions, latency only answered ones",
            c.method
        );
        assert_eq!(
            c.tally.typed(),
            c.tally.classes.values().sum::<usize>(),
            "every typed failure is classified"
        );
    }
    // The fault stream is shared, so a single method can luck into a
    // taint-free window — but across the cell set, chaos at this rate
    // must force some supervised re-tunes.
    let retried: usize = report
        .cells
        .iter()
        .filter(|c| c.fault.is_some())
        .map(|c| c.tally.retried)
        .sum();
    assert!(retried > 0, "no client ever re-tuned under chaos");
}

#[test]
fn lossy_population_costs_more_latency_than_lossless() {
    let mut lossless = tiny_load_spec(77, &[MethodId::DJ]);
    lossless.population = 500;
    let mut lossy = lossless.clone();
    lossy.scenario.name = "tiny-load-lossy".to_string();
    lossy.scenario.loss = LossSpec::Bernoulli { rate: 0.10 };
    let report = run(&prepare(&[lossless, lossy], 2), 2);
    assert!(report.passes());
    let (a, b) = (&report.cells[0], &report.cells[1]);
    assert!(a.replayed && !b.replayed);
    // A 10% loss rate forces retry packets on most whole-cycle clients.
    assert!(
        b.latency.mean > a.latency.mean,
        "lossy mean {} vs lossless {}",
        b.latency.mean,
        a.latency.mean
    );
    assert!(b.tuning.max > a.tuning.max);
}

fn exact_percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streaming_percentiles_agree_with_exact(
        values in prop::collection::vec(0u64..50_000, 1..300),
        buckets in 8usize..200,
    ) {
        let mut h = StreamingHistogram::with_bound(50_000, buckets);
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.01, 0.25, 0.50, 0.95, 0.99, 1.0] {
            let exact = exact_percentile(&sorted, q);
            let est = h.percentile(q);
            prop_assert!(
                est.abs_diff(exact) < h.width(),
                "q={}: exact {}, streaming {}, width {}",
                q, exact, est, h.width()
            );
        }
        prop_assert_eq!(h.max(), *sorted.last().unwrap());
        prop_assert_eq!(h.min(), sorted[0]);
        prop_assert_eq!(h.sum(), values.iter().map(|&v| u128::from(v)).sum::<u128>());
    }

    #[test]
    fn histogram_merge_is_associative_and_split_invariant(
        values in prop::collection::vec(0u64..10_000, 3..200),
        cut_a in 0.0f64..1.0,
        cut_b in 0.0f64..1.0,
    ) {
        let n = values.len();
        let mut cuts = [
            ((cut_a * n as f64) as usize).min(n),
            ((cut_b * n as f64) as usize).min(n),
        ];
        cuts.sort_unstable();
        let mk = |vals: &[u64]| {
            let mut h = StreamingHistogram::with_bound(10_000, 32);
            for &v in vals {
                h.record(v);
            }
            h
        };
        let whole = mk(&values);
        let (a, b, c) = (
            mk(&values[..cuts[0]]),
            mk(&values[cuts[0]..cuts[1]]),
            mk(&values[cuts[1]..]),
        );
        // ((a + b) + c)
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // (a + (b + c))
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(&left, &whole);
    }
}
