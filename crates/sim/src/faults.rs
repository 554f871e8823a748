//! Chaos-matrix certification: **never wrong — only late, or typed**.
//!
//! The conformance engine ([`crate::engine`]) certifies exactness under
//! packet *loss*; this module certifies graceful degradation under the
//! full fault model of `spair_broadcast::fault` — bit corruption,
//! duplicated and stale-version frames, server restarts and correlated
//! window loss. Every (scenario × fault × method) cell drives the whole
//! workload through [`spair_core::supervise`]d sessions with a hard
//! [`RecoveryBudget`] and checks three properties per work item:
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
//! Cells fan out across threads with the same chunk-ordered map-reduce
//! the conformance matrix uses, so a [`FaultMatrix`] — and its digest —
//! is bit-identical for every thread count.

use crate::engine::{path_is_valid, session_seed, splitmix64, ScenarioContext, WorkItem};
use crate::spec::{FaultSpec, GraphSpec, LossSpec, ScenarioSpec, TuneInSpec, WorkloadMix};
use spair_broadcast::{BroadcastChannel, BroadcastCycle};
use spair_core::{
    on_edge_query, supervise, AttemptReport, Query, QueryError, RecoveryBudget, SessionOutcome,
};
use spair_methods::{MethodId, MethodProgram};
use spair_roadnet::certify::{cells_json, Certified};
use spair_roadnet::{parallel, Distance};
use std::collections::BTreeMap;

/// The budget every supervised session in the fault matrix runs under.
pub const FAULT_BUDGET: RecoveryBudget = RecoveryBudget::standard();

/// Aggregated result of one (scenario × fault × method) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCellReport {
    /// Scenario name (matrix row).
    pub scenario: String,
    /// Fault-spec label (matrix plane).
    pub fault: String,
    /// Method name (matrix column).
    pub method: &'static str,
    /// Work items run.
    pub queries: usize,
    /// Items answered — each provably from a taint-free session and
    /// verified against the oracle.
    pub answered: usize,
    /// Answers (or unreachability verdicts) that contradicted the
    /// oracle. The certificate requires 0.
    pub wrong_answers: usize,
    /// Items that ended in a typed [`SessionError`](spair_core::SessionError) give-up.
    pub typed_failures: usize,
    /// Root-cause failure-class breakdown (`class → count`), sorted by
    /// class label.
    pub failure_classes: Vec<(String, usize)>,
    /// Supervised attempts across all sessions.
    pub attempts: u64,
    /// Worst single session's attempt count.
    pub max_attempts: u32,
    /// Sessions that blew the attempt budget or the packet ceiling
    /// (with its one-attempt overshoot allowance). The certificate
    /// requires 0.
    pub budget_violations: usize,
    /// Total packets elapsed across every attempt of every session —
    /// the recovery latency a population would wait.
    pub recovery_packets: u64,
    /// Worst single session's recovery latency in packets.
    pub max_recovery_packets: u64,
}

impl FaultCellReport {
    /// The per-cell certificate: zero wrong answers, every failure typed
    /// (structural), every session within budget.
    pub fn certified(&self) -> bool {
        self.wrong_answers == 0 && self.budget_violations == 0
    }

    fn json_fields(&self) -> String {
        let classes: Vec<String> = self
            .failure_classes
            .iter()
            .map(|(c, n)| format!("\"{c}\": {n}"))
            .collect();
        format!(
            "\"scenario\": \"{}\", \"fault\": \"{}\", \"method\": \"{}\", \
             \"queries\": {}, \"answered\": {}, \"wrong_answers\": {}, \
             \"typed_failures\": {}, \"failure_classes\": {{{}}}, \
             \"attempts\": {}, \"max_attempts\": {}, \"budget_violations\": {}, \
             \"recovery_packets\": {}, \"max_recovery_packets\": {}, \
             \"certified\": {}",
            self.scenario,
            self.fault,
            self.method,
            self.queries,
            self.answered,
            self.wrong_answers,
            self.typed_failures,
            classes.join(", "),
            self.attempts,
            self.max_attempts,
            self.budget_violations,
            self.recovery_packets,
            self.max_recovery_packets,
            self.certified(),
        )
    }
}

/// The full chaos matrix of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMatrix {
    /// Every (scenario × fault × method) cell, in scenario-major order.
    pub cells: Vec<FaultCellReport>,
}

impl FaultMatrix {
    /// Whether every cell certifies — the chaos gate.
    pub fn all_certified(&self) -> bool {
        self.cells.iter().all(FaultCellReport::certified)
    }

    /// Total oracle contradictions across the matrix.
    pub fn total_wrong(&self) -> usize {
        self.cells.iter().map(|c| c.wrong_answers).sum()
    }

    /// Total typed give-ups across the matrix.
    pub fn total_typed_failures(&self) -> usize {
        self.cells.iter().map(|c| c.typed_failures).sum()
    }

    /// A fixed-width text table (one row per cell) for terminal output.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "{:<24} {:<20} {:<13} {:>3} {:>4} {:>5} {:>5} {:>4} {:>9} {:>5}\n",
            "Scenario", "Fault", "Method", "Q", "Ans", "Wrong", "Typed", "Att", "RecovPkts", "Cert"
        );
        for c in &self.cells {
            out.push_str(&format!(
                "{:<24} {:<20} {:<13} {:>3} {:>4} {:>5} {:>5} {:>4} {:>9} {:>5}\n",
                c.scenario,
                c.fault,
                c.method,
                c.queries,
                c.answered,
                c.wrong_answers,
                c.typed_failures,
                c.attempts,
                c.recovery_packets,
                if c.certified() { "yes" } else { "NO" },
            ));
        }
        out
    }
}

/// Every field is a pure function of the scenario seeds, so the
/// artifact's cells are the digest input as they are.
impl Certified for FaultMatrix {
    fn deterministic_json(&self) -> String {
        cells_json(&self.cells, FaultCellReport::json_fields)
    }

    fn artifact_json(&self) -> String {
        self.deterministic_json()
    }

    fn cells(&self) -> usize {
        self.cells.len()
    }

    fn verdict(&self) -> Result<(), String> {
        if self.all_certified() {
            Ok(())
        } else {
            Err(format!(
                "CHAOS CERTIFICATE FAILURE: {} wrong answers / budget violations",
                self.total_wrong()
            ))
        }
    }
}

/// Per-cell accumulation state.
struct FaultAcc {
    queries: usize,
    answered: usize,
    wrong_answers: usize,
    typed_failures: usize,
    classes: BTreeMap<&'static str, usize>,
    attempts: u64,
    max_attempts: u32,
    budget_violations: usize,
    recovery_packets: u64,
    max_recovery_packets: u64,
}

impl FaultAcc {
    fn new() -> Self {
        Self {
            queries: 0,
            answered: 0,
            wrong_answers: 0,
            typed_failures: 0,
            classes: BTreeMap::new(),
            attempts: 0,
            max_attempts: 0,
            budget_violations: 0,
            recovery_packets: 0,
            max_recovery_packets: 0,
        }
    }

    /// Folds one supervised session's cost into the cell, checking the
    /// budget certificate: attempts within the hard attempt budget, and
    /// recovery latency within the packet ceiling plus one attempt's
    /// overshoot (the supervisor only checks the ceiling *between*
    /// attempts, and each attempt is itself bounded by the clients' own
    /// `MAX_RETRY_CYCLES` guard).
    fn session_cost(&mut self, attempts: u32, recovery: u64, cycle_len: usize) {
        self.attempts += u64::from(attempts);
        self.max_attempts = self.max_attempts.max(attempts);
        self.recovery_packets += recovery;
        self.max_recovery_packets = self.max_recovery_packets.max(recovery);
        let ceiling = FAULT_BUDGET.packet_budget(cycle_len).saturating_mul(2);
        if attempts > FAULT_BUDGET.max_attempts || recovery > ceiling {
            self.budget_violations += 1;
        }
    }

    fn item_failed(&mut self, class: &'static str) {
        self.typed_failures += 1;
        *self.classes.entry(class).or_insert(0) += 1;
    }

    fn into_report(self, ctx: &ScenarioContext, method: MethodId) -> FaultCellReport {
        FaultCellReport {
            scenario: ctx.spec.name.clone(),
            fault: ctx.spec.fault.label(),
            method: method.name(),
            queries: self.queries,
            answered: self.answered,
            wrong_answers: self.wrong_answers,
            typed_failures: self.typed_failures,
            failure_classes: self
                .classes
                .into_iter()
                .map(|(c, n)| (c.to_string(), n))
                .collect(),
            attempts: self.attempts,
            max_attempts: self.max_attempts,
            budget_violations: self.budget_violations,
            recovery_packets: self.recovery_packets,
            max_recovery_packets: self.max_recovery_packets,
        }
    }
}

/// Derives the `k`-th attempt's seed. Attempt 0 reuses the base session
/// seed (so a fault-free supervised run draws the exact streams of the
/// unsupervised engine); re-tunes draw fresh offsets, loss streams and
/// fault plans — a client re-tuning at a different moment.
fn attempt_seed(base: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        base
    } else {
        splitmix64(base ^ u64::from(attempt))
    }
}

fn open_fault_channel<'a>(
    ctx: &'a ScenarioContext,
    cycle: &'a BroadcastCycle,
    seed: u64,
) -> BroadcastChannel<'a> {
    let offset = match ctx.spec.tune_in {
        TuneInSpec::Start => 0,
        TuneInSpec::Uniform => (splitmix64(seed) % cycle.len() as u64) as usize,
    };
    BroadcastChannel::tune_in_with_faults(
        cycle,
        offset,
        ctx.spec.loss.model(splitmix64(seed ^ 0x10C5)),
        ctx.spec.fault.plan(splitmix64(seed ^ 0xFA17), cycle.len()),
    )
}

/// Runs one (scenario × fault × method) cell: the full workload through
/// supervised sessions, every answer verified against the oracle,
/// every give-up classified. Dispatch mirrors the conformance engine's
/// capability dispatch; channel-less methods have no channel to fault
/// and certify trivially through their local pipeline.
pub fn run_fault_cell(ctx: &ScenarioContext, method: MethodId) -> FaultCellReport {
    let d = method.descriptor();
    match ctx.program(method) {
        Err(_) => {
            // No program: an empty, uncertifiable-free cell (no queries
            // ran, nothing to certify wrong).
            FaultAcc::new().into_report(ctx, method)
        }
        Ok(_) if d.knn => run_knn_fault_cell(ctx, method),
        Ok(program) if !d.air_client => run_local_fault_cell(ctx, method, program),
        Ok(_) => run_air_fault_cell(ctx, method),
    }
}

fn run_air_fault_cell(ctx: &ScenarioContext, method: MethodId) -> FaultCellReport {
    let cycle = ctx.cycle(method).expect("air program built");
    let mut client = ctx.client(method).expect("air client");
    let g = ctx.g();
    let mut acc = FaultAcc::new();
    for (qi, item) in ctx.workload.iter().enumerate() {
        match item {
            WorkItem::P2p { query, oracle } => {
                acc.queries += 1;
                let base = session_seed(ctx.spec.seed, method, qi, 0);
                let sup = supervise(FAULT_BUDGET, cycle.len(), |k| {
                    let mut ch = open_fault_channel(ctx, cycle, attempt_seed(base, k));
                    let result = client.query(&mut ch, query);
                    (result, AttemptReport::of(&ch, (0, 0)))
                });
                acc.session_cost(sup.attempts, sup.recovery_packets, cycle.len());
                match sup.outcome {
                    SessionOutcome::Answered(out) => {
                        acc.answered += 1;
                        let ok = out.distance == *oracle
                            && path_is_valid(
                                g,
                                query.source,
                                query.target,
                                out.distance,
                                &out.path,
                            );
                        if !ok {
                            acc.wrong_answers += 1;
                        }
                    }
                    // Workload oracles are reachable by construction, so
                    // a (trusted) unreachability verdict contradicts them.
                    SessionOutcome::Unreachable => acc.wrong_answers += 1,
                    SessionOutcome::Failed(e) => acc.item_failed(e.root_class()),
                }
            }
            WorkItem::OnEdge { src, dst, oracle } => {
                acc.queries += 1;
                let mut sub = 0usize;
                let mut failure: Option<&'static str> = None;
                let result = on_edge_query(src, dst, |q: &Query| {
                    sub += 1;
                    let base = session_seed(ctx.spec.seed, method, qi, sub);
                    let sup = supervise(FAULT_BUDGET, cycle.len(), |k| {
                        let mut ch = open_fault_channel(ctx, cycle, attempt_seed(base, k));
                        let result = client.query(&mut ch, q);
                        (result, AttemptReport::of(&ch, (0, 0)))
                    });
                    acc.session_cost(sup.attempts, sup.recovery_packets, cycle.len());
                    match sup.outcome {
                        SessionOutcome::Answered(out) => Ok(out),
                        SessionOutcome::Unreachable => Err(QueryError::Unreachable),
                        SessionOutcome::Failed(e) => {
                            failure.get_or_insert(e.root_class());
                            Err(QueryError::Aborted("supervised sub-session gave up"))
                        }
                    }
                });
                match (result, failure) {
                    (Ok(out), _) => {
                        acc.answered += 1;
                        if out.distance != *oracle {
                            acc.wrong_answers += 1;
                        }
                    }
                    // At least one endpoint session gave up typed — the
                    // composite item degrades to that typed failure.
                    (Err(_), Some(class)) => acc.item_failed(class),
                    // No sub-session failed, yet the composite found no
                    // path: a wrong unreachability verdict.
                    (Err(_), None) => acc.wrong_answers += 1,
                }
            }
            WorkItem::Knn { .. } => {}
        }
    }
    acc.into_report(ctx, method)
}

fn run_knn_fault_cell(ctx: &ScenarioContext, method: MethodId) -> FaultCellReport {
    let program = ctx.program(method).expect("knn program built");
    let cycle = program.cycle().expect("knn methods broadcast a cycle");
    let mut client = program.make_knn_client().expect("knn client");
    let mut acc = FaultAcc::new();
    for (qi, item) in ctx.workload.iter().enumerate() {
        let WorkItem::Knn {
            source,
            source_pt,
            k,
            oracle,
        } = item
        else {
            continue;
        };
        acc.queries += 1;
        let base = session_seed(ctx.spec.seed, method, qi, 0);
        let sup = supervise(FAULT_BUDGET, cycle.len(), |a| {
            let mut ch = open_fault_channel(ctx, cycle, attempt_seed(base, a));
            let result = client.query(&mut ch, *source, *source_pt, *k);
            (result, AttemptReport::of(&ch, (0, 0)))
        });
        acc.session_cost(sup.attempts, sup.recovery_packets, cycle.len());
        match sup.outcome {
            SessionOutcome::Answered(out) => {
                acc.answered += 1;
                let got: Vec<Distance> = out.neighbors.iter().map(|nb| nb.distance).collect();
                if got != *oracle {
                    acc.wrong_answers += 1;
                }
            }
            SessionOutcome::Unreachable => acc.wrong_answers += 1,
            SessionOutcome::Failed(e) => acc.item_failed(e.root_class()),
        }
    }
    acc.into_report(ctx, method)
}

/// Channel-less methods never see channel faults; their supervised cell
/// is the single-attempt local pipeline, still oracle-checked so the
/// never-wrong certificate covers every registry column.
fn run_local_fault_cell(
    ctx: &ScenarioContext,
    method: MethodId,
    program: &dyn MethodProgram,
) -> FaultCellReport {
    let g = ctx.g();
    let queue = ctx.spec.queue;
    let answer = |q: &Query| {
        program
            .local_answer(q, queue)
            .unwrap_or(Err(QueryError::Aborted("method answers no local queries")))
    };
    let mut acc = FaultAcc::new();
    for item in ctx.workload.iter() {
        match item {
            WorkItem::P2p { query, oracle } => {
                acc.queries += 1;
                acc.session_cost(1, 0, 1);
                match answer(query) {
                    Ok(out) => {
                        acc.answered += 1;
                        let ok = out.distance == *oracle
                            && path_is_valid(
                                g,
                                query.source,
                                query.target,
                                out.distance,
                                &out.path,
                            );
                        if !ok {
                            acc.wrong_answers += 1;
                        }
                    }
                    Err(QueryError::Unreachable) => acc.wrong_answers += 1,
                    Err(QueryError::Aborted(_)) => acc.item_failed("client_aborted"),
                }
            }
            WorkItem::OnEdge { src, dst, oracle } => {
                acc.queries += 1;
                acc.session_cost(1, 0, 1);
                match on_edge_query(src, dst, |q| answer(q)) {
                    Ok(out) => {
                        acc.answered += 1;
                        if out.distance != *oracle {
                            acc.wrong_answers += 1;
                        }
                    }
                    Err(QueryError::Unreachable) => acc.wrong_answers += 1,
                    Err(QueryError::Aborted(_)) => acc.item_failed("client_aborted"),
                }
            }
            WorkItem::Knn { .. } => {}
        }
    }
    acc.into_report(ctx, method)
}

/// Builds every scenario context, then fans the independent
/// (scenario × method) cells across `threads` workers with the same
/// chunk-ordered merge as the conformance matrix — bit-identical for
/// every thread count.
pub fn run_fault_matrix(
    specs: &[ScenarioSpec],
    methods: &[MethodId],
    threads: usize,
) -> FaultMatrix {
    let contexts: Vec<ScenarioContext> = specs
        .iter()
        .map(|s| ScenarioContext::build(s, methods))
        .collect();
    let mut cells: Vec<(usize, MethodId)> = Vec::new();
    for (si, ctx) in contexts.iter().enumerate() {
        for &m in methods {
            if ctx.has_work(m) {
                cells.push((si, m));
            }
        }
    }
    let reports = parallel::map_reduce_chunked(
        &cells,
        threads,
        2,
        || (),
        Vec::new,
        |_, partial: &mut Vec<FaultCellReport>, chunk, _| {
            for &(si, m) in chunk {
                partial.push(run_fault_cell(&contexts[si], m));
            }
        },
        |a, b| a.extend(b),
    )
    .unwrap_or_default();
    FaultMatrix { cells: reports }
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
    use spair_roadnet::certify::fnv1a64;

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
        assert_eq!(r.typed_failures, 0);
        assert_eq!(r.answered, r.queries);
        assert!(r.attempts as usize >= r.queries, "on-edge items add subs");
        assert_eq!(r.max_attempts, 1, "no faults, no retries");
    }

    #[test]
    fn corruption_cell_certifies_never_wrong() {
        let spec = fault_base("cor", 78, FaultSpec::Corruption { rate: 0.08 });
        let ctx = ScenarioContext::build(&spec, &[MethodId::NR, MethodId::EB]);
        for m in [MethodId::NR, MethodId::EB] {
            let r = run_fault_cell(&ctx, m);
            assert!(r.certified(), "{}: wrong={}", m.name(), r.wrong_answers);
            assert!(r.answered > 0, "corruption is loss-like; answers flow");
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
        assert!(r.certified(), "wrong={}", r.wrong_answers);
        assert!(
            r.attempts as usize > r.queries || r.typed_failures > 0,
            "a 3-cycle restart mean must disturb some session"
        );
        for (class, _) in &r.failure_classes {
            assert!(
                [
                    "corrupted",
                    "cycle_aborted",
                    "stale_index",
                    "duplicate_delivery",
                    "client_aborted"
                ]
                .contains(&class.as_str()),
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
            m.all_certified(),
            "wrong answers: {}\n{}",
            m.total_wrong(),
            m.render_table()
        );
        // Every air/knn/local method appears (all have work here).
        let mut cols: Vec<&str> = m.cells.iter().map(|c| c.method).collect();
        cols.sort_unstable();
        cols.dedup();
        assert_eq!(cols.len(), methods.len());
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
