//! Supervision properties under the fault model:
//!
//! 1. **bounded recovery, never wrong** — for *arbitrary* seeded fault
//!    plans (every fault class, arbitrary rates/periods/windows), every
//!    registry method's supervised sessions terminate within the attempt
//!    budget and the packet ceiling — no livelock — and never contradict
//!    the serial Dijkstra oracle: give-ups are typed, classified, and
//!    counted;
//! 2. **transparency** — on a lossless channel with `FaultPlan::none()`,
//!    a session driven under the chaos budget is byte-identical to the
//!    unsupervised client (same distance, path and packet/memory stats,
//!    exactly one attempt), so supervision costs nothing when nothing
//!    goes wrong.

use proptest::prelude::*;
use spair_broadcast::{BroadcastChannel, FaultPlan, LossModel};
use spair_core::RecoveryBudget;
use spair_sim::{
    drive, run_fault_cell, Device, FaultSource, FaultSpec, GraphSpec, LossSpec, MethodRegistry,
    ScenarioContext, ScenarioSpec, Tune, TuneInSpec, Verdict, WorkItem, WorkloadMix,
};

/// Same budget the fault matrix certifies against.
const BUDGET: RecoveryBudget = RecoveryBudget::standard();

/// Maps proptest draws onto one of the five fault classes. Rates are
/// kept in ranges where the channel still delivers *something* (the
/// supervisor's give-up is typed either way, but all-noise cells would
/// only ever exercise the `BudgetExhausted` path).
fn arbitrary_fault(which: u8, rate: f64, mean_cycles: f64, window: u64) -> FaultSpec {
    match which % 5 {
        0 => FaultSpec::Corruption { rate },
        1 => FaultSpec::Duplication { rate },
        2 => FaultSpec::Restarts {
            mean_cycles,
            stale_rate: rate / 2.0,
        },
        3 => FaultSpec::CorrelatedLoss { rate, window },
        _ => FaultSpec::Chaos {
            rate: rate / 4.0,
            mean_cycles,
        },
    }
}

fn chaos_spec(seed: u64, fault: FaultSpec) -> ScenarioSpec {
    let mut s = ScenarioSpec::small("prop-chaos", seed);
    s.graph = GraphSpec::Grid {
        width: 8,
        height: 8,
    };
    s.workload = WorkloadMix {
        point_to_point: 2,
        on_edge: 1,
        knn: 1,
        k: 2,
    };
    s.fault = fault;
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Property 1: the chaos certificate holds for arbitrary plans, not
    /// just the curated matrix — every registry method, every fault
    /// class, fuzzed parameters.
    #[test]
    fn supervised_sessions_stay_within_budget_under_arbitrary_faults(
        seed in any::<u64>(),
        which in 0u8..5,
        rate in 0.0f64..0.25,
        mean_cycles in 2.0f64..32.0,
        window in 1u64..48,
    ) {
        let fault = arbitrary_fault(which, rate, mean_cycles, window);
        let methods = MethodRegistry::standard().all();
        let ctx = ScenarioContext::build(&chaos_spec(seed, fault), &methods);
        for &m in &methods {
            let r = run_fault_cell(&ctx, m);
            let t = &r.tally;
            prop_assert_eq!(
                t.wrong, 0,
                "{} contradicted the oracle under {}", m.name(), r.fault
            );
            prop_assert_eq!(
                t.over_budget, 0,
                "{} blew the recovery budget under {} (max {} attempts, {} pkts)",
                m.name(), r.fault, t.max_attempts, t.max_recovery_packets
            );
            prop_assert!(
                t.max_attempts <= BUDGET.max_attempts,
                "{}: {} attempts on one session", m.name(), t.max_attempts
            );
            // Every give-up is typed AND classified — nothing vanishes.
            prop_assert_eq!(
                t.typed(),
                t.classes.values().sum::<usize>()
            );
            prop_assert_eq!(t.answered + t.typed(), t.items);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property 2: supervision is transparent when nothing goes wrong —
    /// lossless + `FaultPlan::none()` replays the unsupervised session
    /// byte-for-byte, in exactly one attempt, for every air method and
    /// arbitrary tune-in offsets.
    #[test]
    fn fault_free_supervision_is_byte_transparent(
        seed in any::<u64>(),
        salt in any::<u64>(),
    ) {
        let methods = MethodRegistry::standard().air_methods();
        let ctx = ScenarioContext::build(&chaos_spec(seed, FaultSpec::None), &methods);
        for &m in &methods {
            let cycle = ctx.cycle(m).expect("air program built");
            let program = ctx.program(m).expect("air program built");
            let mut supervised = Device::new(program).expect("air client");
            let mut raw = ctx.client(m).expect("air client");
            for (qi, item) in ctx.workload.iter().enumerate() {
                let WorkItem::P2p { query, oracle } = item else { continue };
                let offset = ((salt ^ qi as u64) % cycle.len() as u64) as usize;
                let tune = Tune {
                    tune_in: TuneInSpec::At(offset),
                    loss: LossSpec::Lossless,
                    faults: FaultSource::Shared(FaultPlan::none()),
                };
                let d = drive(program, &mut supervised, ctx.g(), item, &tune, BUDGET, |_| salt);
                let mut ch = BroadcastChannel::tune_in(cycle, offset, LossModel::Lossless);
                let want = raw.query(&mut ch, query).expect("lossless session");
                prop_assert_eq!(d.attempts, 1, "{}: fault-free retried", m.name());
                prop_assert_eq!(d.verdict, Verdict::Exact, "{}: lossless fault-free session", m.name());
                let got = d.stats.expect("an exact verdict carries its answer");
                prop_assert_eq!(want.distance, *oracle);
                prop_assert_eq!(&d.nodes, &want.path);
                prop_assert_eq!(got.tuning_packets, want.stats.tuning_packets);
                prop_assert_eq!(got.latency_packets, want.stats.latency_packets);
                prop_assert_eq!(got.sleep_packets, want.stats.sleep_packets);
                prop_assert_eq!(got.peak_memory_bytes, want.stats.peak_memory_bytes);
            }
        }
    }
}
