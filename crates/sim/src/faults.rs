//! Chaos-matrix certification: **never wrong — only late, or typed**.
//!
//! The conformance engine ([`crate::engine`]) certifies exactness under
//! packet *loss*; this module certifies graceful degradation under the
//! full fault model of `spair_broadcast::fault` — bit corruption,
//! duplicated and stale-version frames, server restarts and correlated
//! window loss. Every (scenario × fault × method) cell drives the whole
//! workload through [`crate::drive()`]'s supervised sessions with a hard
//! [`RecoveryBudget`](spair_core::RecoveryBudget) and checks three
//! properties per work item:
//!
//! 1. **never wrong** — a produced answer matches the serial Dijkstra
//!    oracle exactly (distance *and* a valid path);
//! 2. **every failure is typed** — give-ups surface as
//!    [`SessionError`](spair_core::SessionError) values with stable class labels, broken down per
//!    cell;
//! 3. **recovery stays within budget** — no session exceeds the attempt
//!    budget, and total recovery latency stays under the packet ceiling
//!    plus at most one attempt's overshoot (no livelock).
//!
//! A cell folds its driven items into a [`Tally`] through the same body
//! as a conformance cell, and cells fan out across threads with the same
//! chunk-ordered map-reduce, so a [`FaultMatrix`] — and its digest — is
//! bit-identical for every thread count.

use crate::drive::{FaultSource, Tally, Tune, FAULT_BUDGET};
use crate::engine::{run_scenarios, ScenarioContext};
use crate::report::{Gate, Matrix, Row};
use crate::spec::{FaultSpec, GraphSpec, LossSpec, ScenarioSpec, WorkloadMix};
use spair_methods::MethodId;
use spair_roadnet::certify::counts_json;

/// Aggregated result of one (scenario × fault × method) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCellReport {
    /// Scenario name (matrix row).
    pub scenario: String,
    /// Fault-spec label (matrix plane).
    pub fault: String,
    /// Method name (matrix column).
    pub method: &'static str,
    /// The cell's items, folded. The certificate requires no wrong item
    /// (a wrong answer or a trusted unreachability verdict) and none over
    /// budget: a session past the attempt budget or the packet ceiling,
    /// with its one-attempt overshoot allowance. Every give-up is a typed
    /// [`SessionError`](spair_core::SessionError), counted by root class.
    pub tally: Tally,
}

impl FaultCellReport {
    /// The per-cell certificate: zero wrong answers, every failure typed
    /// (structural), every session within budget.
    pub fn certified(&self) -> bool {
        self.passes()
    }
}

impl Row for FaultCellReport {
    const FAILURE: &'static str = "CHAOS CERTIFICATE FAILURE";

    fn header() -> String {
        format!(
            "{:<24} {:<20} {:<13} {:>3} {:>4} {:>5} {:>5} {:>4} {:>9} {:>5}\n",
            "Scenario", "Fault", "Method", "Q", "Ans", "Wrong", "Typed", "Att", "RecovPkts", "Cert"
        )
    }

    fn line(&self) -> String {
        format!(
            "{:<24} {:<20} {:<13} {:>3} {:>4} {:>5} {:>5} {:>4} {:>9} {:>5}\n",
            self.scenario,
            self.fault,
            self.method,
            self.tally.items,
            self.tally.answered,
            self.tally.wrong,
            self.tally.typed(),
            self.tally.attempts,
            self.tally.recovery_packets,
            if self.certified() { "yes" } else { "NO" },
        )
    }

    /// Every field is a pure function of the scenario seeds, so the
    /// artifact's cells are the digest input as they are.
    fn json_fields(&self, _timings: bool) -> String {
        let t = &self.tally;
        format!(
            "\"scenario\": \"{}\", \"fault\": \"{}\", \"method\": \"{}\", \
             \"queries\": {}, \"answered\": {}, \"wrong_answers\": {}, \
             \"typed_failures\": {}, \"failure_classes\": {}, \
             \"attempts\": {}, \"max_attempts\": {}, \"budget_violations\": {}, \
             \"recovery_packets\": {}, \"max_recovery_packets\": {}, \
             \"certified\": {}",
            self.scenario,
            self.fault,
            self.method,
            t.items,
            t.answered,
            t.wrong,
            t.typed(),
            counts_json(&t.class_counts()),
            t.attempts,
            t.max_attempts,
            t.over_budget,
            t.recovery_packets,
            t.max_recovery_packets,
            self.certified(),
        )
    }

    fn tally(&self) -> &Tally {
        &self.tally
    }

    fn gate(&self) -> Gate {
        Gate::NeverWrong
    }
}

/// The chaos matrix of one run: every (scenario × fault × method) cell,
/// in scenario-major order.
pub type FaultMatrix = Matrix<FaultCellReport>;

/// Runs one (scenario × fault × method) chaos cell: the method's portion
/// of the workload through supervised sessions under [`FAULT_BUDGET`],
/// each with its own fault plan, every answer verified against the oracle
/// and every give-up classified. Channel-less methods see no channel
/// faults; their local answers are still oracle-checked, so the
/// never-wrong certificate covers every registry column. A method without
/// a program counts every item of its portion as wrong.
pub fn run_fault_cell(ctx: &ScenarioContext, method: MethodId) -> FaultCellReport {
    let tune = Tune {
        faults: FaultSource::PerSession(ctx.spec.fault),
        ..Tune::of(&ctx.spec)
    };
    FaultCellReport {
        scenario: ctx.spec.name.clone(),
        fault: ctx.spec.fault.label(),
        method: method.name(),
        tally: ctx.fold_portion(method, &tune, FAULT_BUDGET).0,
    }
}

/// The chaos matrix over `specs` × `methods`, bit-identical for every
/// thread count like the conformance matrix.
pub fn run_fault_matrix(
    specs: &[ScenarioSpec],
    methods: &[MethodId],
    threads: usize,
) -> FaultMatrix {
    run_scenarios(specs, methods, threads, run_fault_cell)
}

fn fault_base(name: &str, seed: u64, fault: FaultSpec) -> ScenarioSpec {
    let mut s = ScenarioSpec::small(name, seed);
    s.graph = GraphSpec::Grid {
        width: 10,
        height: 10,
    };
    s.workload = WorkloadMix {
        point_to_point: 5,
        on_edge: 2,
        knn: 2,
        k: 2,
    };
    s.fault = fault;
    s
}

/// The default chaos matrix behind `BENCH_faults.json`: every fault
/// class alone, a fault × loss combination, the all-at-once chaos cell,
/// and a fault-free control whose supervised sessions must replay the
/// unsupervised engine exactly.
pub fn fault_matrix() -> Vec<ScenarioSpec> {
    let mut specs = vec![
        fault_base("chaos-corrupt5", 401, FaultSpec::Corruption { rate: 0.05 }),
        fault_base("chaos-dup2", 402, FaultSpec::Duplication { rate: 0.02 }),
        fault_base(
            "chaos-restart12c-stale2",
            403,
            FaultSpec::Restarts {
                mean_cycles: 12.0,
                stale_rate: 0.02,
            },
        ),
        fault_base(
            "chaos-corrloss10x16",
            404,
            FaultSpec::CorrelatedLoss {
                rate: 0.10,
                window: 16,
            },
        ),
        fault_base(
            "chaos-everything",
            405,
            FaultSpec::Chaos {
                rate: 0.01,
                mean_cycles: 16.0,
            },
        ),
        fault_base("chaos-control-nofault", 406, FaultSpec::None),
    ];
    // Faults stacked on a lossy channel: §6.2 recovery and the
    // supervisor must compose.
    let mut s = fault_base(
        "chaos-corrupt3-bernoulli2",
        407,
        FaultSpec::Corruption { rate: 0.03 },
    );
    s.loss = LossSpec::Bernoulli { rate: 0.02 };
    specs.push(s);
    specs
}

/// The CI smoke gate: three fast cells covering a detectable fault, a
/// silently-corrupting fault and the chaos mix.
pub fn smoke_fault_matrix() -> Vec<ScenarioSpec> {
    let tiny = |name: &str, seed: u64, fault: FaultSpec| {
        let mut s = fault_base(name, seed, fault);
        s.graph = GraphSpec::Grid {
            width: 8,
            height: 8,
        };
        s.workload = WorkloadMix {
            point_to_point: 3,
            on_edge: 1,
            knn: 1,
            k: 2,
        };
        s
    };
    vec![
        tiny(
            "chaos-smoke-corrupt5",
            421,
            FaultSpec::Corruption { rate: 0.05 },
        ),
        tiny(
            "chaos-smoke-restart10c",
            422,
            FaultSpec::Restarts {
                mean_cycles: 10.0,
                stale_rate: 0.02,
            },
        ),
        tiny(
            "chaos-smoke-mix",
            423,
            FaultSpec::Chaos {
                rate: 0.01,
                mean_cycles: 14.0,
            },
        ),
    ]
}

/// The nightly chaos matrix: the default set plus harsher rates and a
/// realistic-topology (Milan preset) chaos scenario.
pub fn nightly_fault_matrix() -> Vec<ScenarioSpec> {
    let mut specs = fault_matrix();
    specs.push(fault_base(
        "chaos-corrupt10",
        431,
        FaultSpec::Corruption { rate: 0.10 },
    ));
    specs.push(fault_base(
        "chaos-restart6c-stale5",
        432,
        FaultSpec::Restarts {
            mean_cycles: 6.0,
            stale_rate: 0.05,
        },
    ));
    let mut s = fault_base(
        "chaos-milan-everything",
        433,
        FaultSpec::Chaos {
            rate: 0.01,
            mean_cycles: 16.0,
        },
    );
    s.graph = GraphSpec::Preset {
        preset: spair_roadnet::NetworkPreset::Milan,
        scale: 0.04,
    };
    specs.push(s);
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_cell;
    use spair_methods::MethodRegistry;
    use spair_roadnet::certify::{fnv1a64, Certified};

    #[test]
    fn matrices_cover_four_fault_classes_and_are_uniquely_named() {
        for specs in [fault_matrix(), nightly_fault_matrix()] {
            assert!(specs
                .iter()
                .any(|s| matches!(s.fault, FaultSpec::Corruption { .. })));
            assert!(specs
                .iter()
                .any(|s| matches!(s.fault, FaultSpec::Duplication { .. })));
            assert!(specs
                .iter()
                .any(|s| matches!(s.fault, FaultSpec::Restarts { .. })));
            assert!(specs
                .iter()
                .any(|s| matches!(s.fault, FaultSpec::CorrelatedLoss { .. })));
            assert!(specs
                .iter()
                .any(|s| matches!(s.fault, FaultSpec::Chaos { .. })));
            let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), specs.len());
        }
        assert!(smoke_fault_matrix().len() >= 3);
    }

    #[test]
    fn fault_free_cell_answers_everything_with_single_attempts() {
        let spec = fault_base("ctl", 77, FaultSpec::None);
        let ctx = ScenarioContext::build(&spec, &[MethodId::NR]);
        let r = run_fault_cell(&ctx, MethodId::NR);
        assert!(r.certified());
        assert_eq!(r.tally.typed(), 0);
        assert_eq!(r.tally.answered, r.tally.items);
        assert!(
            r.tally.attempts as usize >= r.tally.items,
            "on-edge items add subs"
        );
        assert_eq!(r.tally.max_attempts, 1, "no faults, no retries");
    }

    #[test]
    fn unbuilt_method_counts_every_item_wrong() {
        let spec = fault_base("missing", 80, FaultSpec::None);
        let ctx = ScenarioContext::build(&spec, &[MethodId::NR]);
        let r = run_fault_cell(&ctx, MethodId::DJ);
        assert!(!r.certified(), "an unbuilt method must not certify");
        assert_eq!(
            r.tally.items,
            spec.workload.point_to_point + spec.workload.on_edge
        );
        assert_eq!(r.tally.wrong, r.tally.items);
        assert_eq!(r.tally.answered, 0);
    }

    #[test]
    fn corruption_cell_certifies_never_wrong() {
        let spec = fault_base("cor", 78, FaultSpec::Corruption { rate: 0.08 });
        let ctx = ScenarioContext::build(&spec, &[MethodId::NR, MethodId::EB]);
        for m in [MethodId::NR, MethodId::EB] {
            let r = run_fault_cell(&ctx, m);
            assert!(r.certified(), "{}: wrong={}", m.name(), r.tally.wrong);
            assert!(
                r.tally.answered > 0,
                "corruption is loss-like; answers flow"
            );
        }
    }

    #[test]
    fn restart_cell_retries_and_stays_typed() {
        let spec = fault_base(
            "rst",
            79,
            FaultSpec::Restarts {
                mean_cycles: 3.0,
                stale_rate: 0.05,
            },
        );
        let ctx = ScenarioContext::build(&spec, &[MethodId::NR]);
        let r = run_fault_cell(&ctx, MethodId::NR);
        assert!(r.certified(), "wrong={}", r.tally.wrong);
        assert!(
            r.tally.attempts as usize > r.tally.items || r.tally.typed() > 0,
            "a 3-cycle restart mean must disturb some session"
        );
        for class in r.tally.classes.keys() {
            assert!(
                [
                    "corrupted",
                    "cycle_aborted",
                    "stale_index",
                    "duplicate_delivery",
                    "client_aborted"
                ]
                .contains(class),
                "unexpected class {class}"
            );
        }
    }

    #[test]
    fn fault_matrix_is_thread_invariant() {
        let specs = smoke_fault_matrix();
        let methods = [MethodId::NR, MethodId::DJ, MethodId::KNN_AIR];
        let serial = run_fault_matrix(&specs, &methods, 1);
        let par = run_fault_matrix(&specs, &methods, 4);
        assert_eq!(serial.deterministic_json(), par.deterministic_json());
        assert_eq!(serial.digest(), par.digest());
        assert_eq!(
            serial.digest(),
            fnv1a64(serial.deterministic_json().as_bytes())
        );
        assert_eq!(serial.digest(), 0xc700_b277_1d7e_8fdb, "chaos digest moved");
    }

    #[test]
    fn every_registry_method_certifies_under_chaos_smoke() {
        let specs = smoke_fault_matrix();
        let methods = MethodRegistry::standard().all();
        let m = run_fault_matrix(&specs, &methods, 0);
        assert!(
            m.passes(),
            "wrong answers: {}\n{}",
            m.total(|c| c.tally.wrong),
            m.render_table()
        );
        // Every air/knn/local method appears (all have work here).
        let mut cols: Vec<&str> = m.cells.iter().map(|c| c.method).collect();
        cols.sort_unstable();
        cols.dedup();
        assert_eq!(cols.len(), methods.len());
    }

    #[test]
    fn a_lone_budget_violation_fails_the_gate_by_its_count() {
        let cell = FaultCellReport {
            scenario: "s".to_string(),
            fault: "none".to_string(),
            method: "nr",
            tally: Tally {
                items: 4,
                answered: 4,
                exact: 4,
                over_budget: 1,
                ..Tally::default()
            },
        };
        let m = FaultMatrix { cells: vec![cell] };
        assert!(!m.passes());
        assert_eq!(
            m.verdict(),
            Err("CHAOS CERTIFICATE FAILURE: 1 budget violations".to_string())
        );
    }

    #[test]
    fn fault_none_leaves_the_conformance_engine_untouched() {
        // The conformance engine ignores the fault axis entirely; a spec
        // with a fault set must not change run_cell's digest-relevant
        // output (fault certification runs through run_fault_cell).
        let mut spec = ScenarioSpec::small("iso", 31);
        let base = run_cell(
            &ScenarioContext::build(&spec, &[MethodId::NR]),
            MethodId::NR,
        );
        spec.fault = FaultSpec::Corruption { rate: 0.5 };
        let with = run_cell(
            &ScenarioContext::build(&spec, &[MethodId::NR]),
            MethodId::NR,
        );
        // Compare the deterministic serialization (cpu_ms is wall clock).
        let json = |c| crate::ConformanceMatrix { cells: vec![c] }.deterministic_json();
        assert_eq!(json(base), json(with));
    }
}
