//! The one session driver under every in-process harness.
//!
//! Every number the harnesses report for the paper's §3.1 factors comes
//! from a client session checked against a Dijkstra oracle. [`open`]
//! tunes one channel session in; [`drive`] runs one [`WorkItem`] — a
//! point-to-point query, an on-edge composite, a kNN query, or a §6.1
//! channel-less local answer — under [`supervise`] and returns one
//! [`Driven`]: the verdict (exact, wrong, or a typed failure class) plus
//! the session's cost. The conformance engine, the chaos and dynamic
//! matrices, the load harness and the paper's `experiments` fold every
//! [`Driven`] into a [`Tally`], whose [`Tally::fold`] is the one rule for
//! what a verdict counts as; each matrix row carries its cell's tally.
//! The socket bench's in-process reference and the `spair` CLI read one
//! [`Driven`]'s verdict directly.
//!
//! Under [`RecoveryBudget::single`] on a fault-free channel the driver is
//! a transparent pass-through: one attempt, the client's result mapped
//! one to one. The seed derivations are digest-relevant: attempt 0 uses
//! the base seed, a uniform tune-in offset is `splitmix64(seed) % len`,
//! the loss seed is `splitmix64(seed ^ 0x10C5)` and a per-session fault
//! plan's seed is `splitmix64(seed ^ 0xFA17)`.

use crate::engine::WorkItem;
use crate::spec::{FaultSpec, LossSpec, ScenarioSpec, TuneInSpec};
use spair_broadcast::{splitmix64, BroadcastChannel, BroadcastCycle, FaultPlan, QueryStats};
use spair_core::patch::ClientArena;
use spair_core::query::AirClient;
use spair_core::{
    on_edge_query, supervise, AttemptReport, Query, QueryError, QueryOutcome, RecoveryBudget,
    SessionOutcome, SupervisedSession,
};
use spair_methods::{KnnAirClient, MethodProgram, MethodUnavailable};
use spair_roadnet::{Distance, NodeId, QueuePolicy, RoadNetwork};
use std::collections::BTreeMap;

/// The recovery budget of every supervised session: the chaos matrix,
/// the dynamic fallbacks and the load harness's flash crowds.
pub const FAULT_BUDGET: RecoveryBudget = RecoveryBudget::standard();

/// Where a session's faults come from.
#[derive(Debug, Clone, Copy)]
pub enum FaultSource {
    /// A fault-free channel.
    None,
    /// A fresh plan per session, seeded from the session seed.
    PerSession(FaultSpec),
    /// One plan every session shares: a population under one faulty
    /// server, correlated bursts hitting clients at the same slots.
    Shared(FaultPlan),
}

/// How a session tunes in: where, over which loss model, under which
/// faults.
#[derive(Debug, Clone, Copy)]
pub struct Tune {
    /// Where in the cycle the session starts.
    pub tune_in: TuneInSpec,
    /// Channel noise.
    pub loss: LossSpec,
    /// Fault injection beyond loss.
    pub faults: FaultSource,
}

impl Tune {
    /// The scenario's tune-in rule and loss model on a fault-free
    /// channel.
    pub fn of(spec: &ScenarioSpec) -> Self {
        Self {
            tune_in: spec.tune_in,
            loss: spec.loss,
            faults: FaultSource::None,
        }
    }

    /// A lossless, fault-free session starting at `offset`.
    pub fn at(offset: usize) -> Self {
        Self {
            tune_in: TuneInSpec::At(offset),
            loss: LossSpec::Lossless,
            faults: FaultSource::None,
        }
    }
}

/// Opens one channel session on `cycle`; every stream it draws is a pure
/// function of `seed`.
pub fn open<'a>(cycle: &'a BroadcastCycle, tune: &Tune, seed: u64) -> BroadcastChannel<'a> {
    let offset = match tune.tune_in {
        TuneInSpec::Start => 0,
        TuneInSpec::Uniform => (splitmix64(seed) % cycle.len() as u64) as usize,
        TuneInSpec::At(offset) => offset,
    };
    let plan = match tune.faults {
        FaultSource::None => FaultPlan::none(),
        FaultSource::PerSession(spec) => spec.plan(splitmix64(seed ^ 0xFA17), cycle.len()),
        FaultSource::Shared(plan) => plan,
    };
    BroadcastChannel::tune_in_with_faults(
        cycle,
        offset,
        tune.loss.model(splitmix64(seed ^ 0x10C5)),
        plan,
    )
}

/// The `attempt`-th supervised attempt's seed. Attempt 0 uses the base
/// seed, so a fault-free supervised session draws exactly the streams of
/// an unsupervised one; re-tunes draw fresh offsets, loss streams and
/// fault plans — a client re-tuning at a different moment.
pub fn attempt_seed(base: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        base
    } else {
        splitmix64(base ^ u64::from(attempt))
    }
}

/// A client device, made once per method and reused across sessions
/// (every session still opens a fresh channel).
pub enum Device {
    /// A point-to-point client.
    Air(Box<dyn AirClient>),
    /// The §8 kNN client.
    Knn(Box<dyn KnnAirClient>),
    /// No channel: the program answers locally (§6.1 memory-bound
    /// contraction).
    Local,
}

impl Device {
    /// The device the program's descriptor calls for.
    pub fn new(program: &dyn MethodProgram) -> Result<Self, MethodUnavailable> {
        let d = program.descriptor();
        Ok(if d.knn {
            Device::Knn(program.make_knn_client()?)
        } else if d.air_client {
            Device::Air(program.make_client(QueuePolicy::default())?)
        } else {
            Device::Local
        })
    }

    /// Hands the last session's received arena to a dynamic-world driver
    /// (see [`AirClient::export_arena`]).
    pub fn export_arena(&mut self) -> Option<ClientArena> {
        match self {
            Device::Air(client) => client.export_arena(),
            Device::Knn(_) | Device::Local => None,
        }
    }
}

/// A work item's verdict against its oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Verdict {
    /// The answer matched the oracle (distance, and a valid path for
    /// point-to-point items).
    Exact,
    /// The answer, or an unreachability verdict, contradicted the oracle.
    #[default]
    Wrong,
    /// A typed give-up, by root-cause class
    /// ([`SessionError::root_class`](spair_core::SessionError::root_class)).
    Failed(&'static str),
}

/// One driven work item: its verdict and what its sessions cost. The
/// default is an item no session ran for (its method has no program or
/// device): wrong, so the cell cannot certify.
#[derive(Debug, Clone, Default)]
pub struct Driven {
    /// The verdict.
    pub verdict: Verdict,
    /// The answer's measurements; `None` when no answer came back.
    pub stats: Option<QueryStats>,
    /// The answer's nodes: the path of a point-to-point answer, the node
    /// path between the partial edges of an on-edge answer, the
    /// neighbours (nearest first) of a kNN answer.
    pub nodes: Vec<NodeId>,
    /// Node-to-node queries posed: 1, or an on-edge composite's endpoint
    /// queries.
    pub queries: usize,
    /// Supervised attempts over every session of the item.
    pub attempts: u32,
    /// The worst single session's attempt count.
    pub max_attempts: u32,
    /// Packets elapsed over every attempt — the recovery latency.
    pub recovery_packets: u64,
    /// The worst single session's recovery latency.
    pub max_recovery_packets: u64,
    /// Packets received over every attempt.
    pub tuned_packets: u64,
    /// Whether some session broke its budget
    /// (see [`SupervisedSession::within`]).
    pub over_budget: bool,
}

/// The fold of a cell's driven items: what every in-process matrix
/// counts. Folding is the one rule for what a [`Verdict`] counts as, and
/// [`Tally::merge`] is order-independent, so a tally folded across any
/// chunking of the items is the same.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Items folded.
    pub items: usize,
    /// Node-to-node queries posed.
    pub queries: usize,
    /// Items an answer came back for.
    pub answered: usize,
    /// Exact items.
    pub exact: usize,
    /// Wrong items: a wrong answer, a trusted unreachability verdict, or
    /// no session at all (an unbuilt method's default [`Driven`]).
    pub wrong: usize,
    /// Typed give-ups by root class.
    pub classes: BTreeMap<&'static str, usize>,
    /// Supervised attempts over every session.
    pub attempts: u64,
    /// The worst single session's attempt count.
    pub max_attempts: u32,
    /// Items with a session that needed more than one attempt.
    pub retried: usize,
    /// Packets elapsed over every attempt.
    pub recovery_packets: u64,
    /// The worst single session's recovery packets.
    pub max_recovery_packets: u64,
    /// Packets received over every attempt.
    pub tuned_packets: u64,
    /// The worst single item's received packets.
    pub max_tuned_packets: u64,
    /// Items with a session that broke its budget.
    pub over_budget: usize,
    /// The answers' measurements, summed; `peak_memory_bytes` is the
    /// peak.
    pub stats: QueryStats,
}

impl Tally {
    /// Folds one driven item in. `Exact` counts as exact; `Wrong` (a
    /// wrong answer, a trusted unreachability verdict, an unbuilt
    /// method's default) as wrong; `Failed(class)` as a typed give-up
    /// under `class`.
    pub fn fold(&mut self, d: &Driven) {
        self.items += 1;
        self.queries += d.queries;
        match d.verdict {
            Verdict::Exact => self.exact += 1,
            Verdict::Wrong => self.wrong += 1,
            Verdict::Failed(class) => *self.classes.entry(class).or_insert(0) += 1,
        }
        self.attempts += u64::from(d.attempts);
        self.max_attempts = self.max_attempts.max(d.max_attempts);
        self.retried += usize::from(d.max_attempts > 1);
        self.recovery_packets += d.recovery_packets;
        self.max_recovery_packets = self.max_recovery_packets.max(d.max_recovery_packets);
        self.tuned_packets += d.tuned_packets;
        self.max_tuned_packets = self.max_tuned_packets.max(d.tuned_packets);
        self.over_budget += usize::from(d.over_budget);
        if let Some(stats) = &d.stats {
            self.answered += 1;
            self.stats.add(stats);
        }
    }

    /// Merges another cell portion's tally in.
    pub fn merge(&mut self, other: &Tally) {
        self.items += other.items;
        self.queries += other.queries;
        self.answered += other.answered;
        self.exact += other.exact;
        self.wrong += other.wrong;
        for (&class, n) in &other.classes {
            *self.classes.entry(class).or_insert(0) += n;
        }
        self.attempts += other.attempts;
        self.max_attempts = self.max_attempts.max(other.max_attempts);
        self.retried += other.retried;
        self.recovery_packets += other.recovery_packets;
        self.max_recovery_packets = self.max_recovery_packets.max(other.max_recovery_packets);
        self.tuned_packets += other.tuned_packets;
        self.max_tuned_packets = self.max_tuned_packets.max(other.max_tuned_packets);
        self.over_budget += other.over_budget;
        self.stats.add(&other.stats);
    }

    /// Typed give-ups over every class.
    pub fn typed(&self) -> usize {
        self.classes.values().sum()
    }

    /// The typed give-ups by class, sorted by class label.
    pub fn class_counts(&self) -> Vec<(&'static str, usize)> {
        self.classes.iter().map(|(&c, &n)| (c, n)).collect()
    }
}

/// An answer's exactness, stats and nodes — or why there is none: `None`
/// for an unreachability verdict, the class of a typed give-up.
type Answer = Result<(bool, QueryStats, Vec<NodeId>), Option<&'static str>>;

impl Driven {
    fn cost<T>(&mut self, s: &SupervisedSession<T>, budget: RecoveryBudget, cycle_len: usize) {
        self.attempts += s.attempts;
        self.max_attempts = self.max_attempts.max(s.attempts);
        self.recovery_packets += s.recovery_packets;
        self.max_recovery_packets = self.max_recovery_packets.max(s.recovery_packets);
        self.tuned_packets += s.tuned_packets;
        self.over_budget |= !s.within(budget, cycle_len);
    }

    /// Runs one supervised channel session and folds its cost in.
    fn session<T>(
        &mut self,
        cycle: &BroadcastCycle,
        tune: &Tune,
        budget: RecoveryBudget,
        seed: u64,
        mut run: impl FnMut(&mut BroadcastChannel<'_>) -> Result<T, QueryError>,
    ) -> Result<T, Option<&'static str>> {
        self.queries += 1;
        let s = supervise(budget, cycle.len(), |k| {
            let mut ch = open(cycle, tune, attempt_seed(seed, k));
            let result = run(&mut ch);
            (result, AttemptReport::of(&ch, (0, 0)))
        });
        self.cost(&s, budget, cycle.len());
        typed(s.outcome)
    }
}

fn typed<T>(outcome: SessionOutcome<T>) -> Result<T, Option<&'static str>> {
    match outcome {
        SessionOutcome::Answered(v) => Ok(v),
        SessionOutcome::Unreachable => Err(None),
        SessionOutcome::Failed(e) => Err(Some(e.root_class())),
    }
}

/// Drives one work item and returns its verdict and cost.
///
/// `program` supplies the cycle (or the local answer), `device` the
/// client, `g` the network the oracle was computed on, and `seed(s)` the
/// base seed of sub-session `s`: 0 for a single-session item, 1, 2, … for
/// an on-edge composite's endpoint queries. Channel sessions run under
/// `budget`; a local answer sees no channel, so a retry could not change
/// it and it runs as one attempt. An item whose program refuses the
/// world ([`MethodUnavailable::Unrepresentable`]) is a typed give-up of
/// class `unrepresentable`; an item the device does not answer (a kNN
/// item on a path client, say) gets the default [`Driven`].
pub fn drive(
    program: &dyn MethodProgram,
    device: &mut Device,
    g: &RoadNetwork,
    item: &WorkItem,
    tune: &Tune,
    budget: RecoveryBudget,
    seed: impl Fn(usize) -> u64,
) -> Driven {
    let mut d = Driven::default();
    let cycle = program.cycle();
    let answer: Answer = match (device, item, cycle) {
        (
            Device::Knn(client),
            WorkItem::Knn {
                source,
                source_pt,
                k,
                oracle,
            },
            Ok(cycle),
        ) => {
            let out = d.session(cycle, tune, budget, seed(0), |ch| {
                client.query(ch, *source, *source_pt, *k)
            });
            out.map(|out| {
                let (nodes, got): (Vec<NodeId>, Vec<Distance>) = out
                    .neighbors
                    .iter()
                    .map(|nb| (nb.node, nb.distance))
                    .unzip();
                // Ties may swap POI identities; distances must agree
                // exactly (ascending on both sides).
                (got == *oracle, out.stats, nodes)
            })
        }
        (Device::Air(client), WorkItem::P2p { .. } | WorkItem::OnEdge { .. }, Ok(cycle)) => {
            let on_edge = matches!(item, WorkItem::OnEdge { .. });
            let mut failure = None;
            let answer = answer_paths(g, item, |q| {
                let sub = if on_edge { d.queries + 1 } else { 0 };
                d.session(cycle, tune, budget, seed(sub), |ch| client.query(ch, q))
                    .map_err(|class| match class {
                        None => QueryError::Unreachable,
                        Some(class) => {
                            failure.get_or_insert(class);
                            QueryError::Aborted("supervised sub-session gave up")
                        }
                    })
            });
            // A session that gave up types the item (an on-edge composite
            // by its first give-up); otherwise no path was found.
            answer.map_err(|_| failure)
        }
        (Device::Local, WorkItem::P2p { .. } | WorkItem::OnEdge { .. }, _) => {
            let single = RecoveryBudget::single();
            let s = supervise(single, 1, |_| {
                let answer = answer_paths(g, item, |q| {
                    d.queries += 1;
                    program
                        .local_answer(q)
                        .unwrap_or(Err(QueryError::Aborted("method answers no local queries")))
                });
                (answer, AttemptReport::default())
            });
            d.cost(&s, single, 1);
            typed(s.outcome)
        }
        // A program that cannot represent the world refuses, typed.
        (_, _, Err(MethodUnavailable::Unrepresentable { .. })) => Err(Some("unrepresentable")),
        _ => return d,
    };
    match answer {
        Ok((exact, stats, nodes)) => {
            d.verdict = if exact {
                Verdict::Exact
            } else {
                Verdict::Wrong
            };
            d.stats = Some(stats);
            d.nodes = nodes;
        }
        // Work-item oracles are reachable by construction, so a (trusted)
        // unreachability verdict contradicts them.
        Err(None) => d.verdict = Verdict::Wrong,
        Err(Some(class)) => d.verdict = Verdict::Failed(class),
    }
    d
}

/// Answers a point-to-point or on-edge item through `run`, one
/// node-to-node query at a time, and checks the answer against the
/// item's oracle: the distance, and for a point-to-point item also that
/// the path is a real walk of that length.
fn answer_paths(
    g: &RoadNetwork,
    item: &WorkItem,
    mut run: impl FnMut(&Query) -> Result<QueryOutcome, QueryError>,
) -> Result<(bool, QueryStats, Vec<NodeId>), QueryError> {
    match item {
        WorkItem::P2p { query, oracle } => run(query).map(|o| {
            let exact = o.distance == *oracle && path_is_valid(g, query, o.distance, &o.path);
            (exact, o.stats, o.path)
        }),
        WorkItem::OnEdge { src, dst, oracle } => {
            on_edge_query(src, dst, run).map(|o| (o.distance == *oracle, o.stats, o.nodes))
        }
        WorkItem::Knn { .. } => Err(QueryError::Aborted("a kNN item has no path")),
    }
}

/// True iff `path` is a real `source -> target` walk of `query` in `g`
/// whose weights sum to `distance` — the conformance check behind "exact
/// shortest paths", not just matching lengths. Each step costs the
/// lightest of its parallel edges, the one a shortest path takes.
pub(crate) fn path_is_valid(
    g: &RoadNetwork,
    query: &Query,
    distance: Distance,
    path: &[NodeId],
) -> bool {
    if path.first() != Some(&query.source) || path.last() != Some(&query.target) {
        return false;
    }
    let mut acc: Distance = 0;
    for w in path.windows(2) {
        let parallel = g.out_edges(w[0]).filter(|&(t, _)| t == w[1]);
        let Some(wt) = parallel.map(|(_, wt)| wt).min() else {
            return false;
        };
        acc += wt as Distance;
    }
    acc == distance
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::{DynamicCellReport, DynamicContext, DynamicSpec, Patches};
    use crate::faults::FaultCellReport;
    use crate::report::{CellReport, Row};
    use crate::spec::ScenarioSpec;
    use proptest::prelude::*;
    use spair_methods::{MethodId, ProgramSet, World};
    use spair_roadnet::dijkstra_to_target;
    use spair_roadnet::generators::small_grid;

    type Script =
        fn(u32, &mut BroadcastChannel<'_>, &QueryOutcome) -> Result<QueryOutcome, QueryError>;

    /// A scripted client: attempt `k` answers `script(k, channel, truth)`.
    struct Fake {
        calls: u32,
        truth: QueryOutcome,
        script: Script,
    }

    impl AirClient for Fake {
        fn method_name(&self) -> &'static str {
            "fake"
        }

        fn query(
            &mut self,
            ch: &mut BroadcastChannel<'_>,
            _: &Query,
        ) -> Result<QueryOutcome, QueryError> {
            self.calls += 1;
            (self.script)(self.calls - 1, ch, &self.truth)
        }
    }

    #[test]
    fn verdicts_of_a_scripted_client() {
        let g = small_grid(6, 6, 3);
        let part = spair_partition::KdTreePartition::build(&g, 4);
        let pre = spair_core::BorderPrecomputation::run(&g, &part);
        let programs = ProgramSet::new(World::from_parts(g, part, pre));
        let program = programs.ensure(MethodId::DJ);
        let g = &programs.world().g;
        let (s, t) = (0, g.num_nodes() as NodeId - 1);
        let (oracle, path) = dijkstra_to_target(g, s, t).expect("grid is connected");
        let truth = QueryOutcome {
            distance: oracle,
            path,
            stats: QueryStats::default(),
        };
        let item = WorkItem::P2p {
            query: Query::for_nodes(g, s, t),
            oracle,
        };
        let flaky = Tune {
            // Every received frame is a stutter: any listening attempt
            // is tainted.
            faults: FaultSource::Shared(FaultPlan::duplication(1.0, 7)),
            ..Tune::at(0)
        };
        let single = RecoveryBudget::single();
        let cases: [(&str, Script, Tune, RecoveryBudget, Verdict, u32); 5] = [
            (
                "the true answer",
                |_, _, truth| Ok(truth.clone()),
                Tune::at(0),
                single,
                Verdict::Exact,
                1,
            ),
            (
                "right distance, invalid path",
                |_, _, truth| {
                    let ends = vec![truth.path[0], *truth.path.last().unwrap()];
                    Ok(QueryOutcome {
                        path: ends,
                        ..truth.clone()
                    })
                },
                Tune::at(0),
                single,
                Verdict::Wrong,
                1,
            ),
            (
                "aborted",
                |_, _, _| Err(QueryError::Aborted("scripted abort")),
                Tune::at(0),
                single,
                Verdict::Failed("client_aborted"),
                1,
            ),
            (
                "unreachable on a reachable oracle",
                |_, _, _| Err(QueryError::Unreachable),
                Tune::at(0),
                single,
                Verdict::Wrong,
                1,
            ),
            (
                "tainted first attempt",
                |k, ch, truth| {
                    if k == 0 {
                        // Listens (and is tainted), then answers wrong.
                        ch.receive();
                        Ok(QueryOutcome {
                            distance: truth.distance + 1,
                            ..truth.clone()
                        })
                    } else {
                        Ok(truth.clone())
                    }
                },
                flaky,
                RecoveryBudget::standard(),
                Verdict::Exact,
                2,
            ),
        ];
        for (name, script, tune, budget, verdict, attempts) in cases {
            let mut device = Device::Air(Box::new(Fake {
                calls: 0,
                truth: truth.clone(),
                script,
            }));
            let d = drive(program, &mut device, g, &item, &tune, budget, |_| 11);
            assert_eq!(d.verdict, verdict, "{name}");
            assert_eq!(d.attempts, attempts, "{name}");
            assert_eq!(d.queries, 1, "{name}");
            assert!(!d.over_budget, "{name}");
        }
    }

    /// One item of each fold class: answered items took 10 packets of
    /// tuning and 30 of latency and peaked at 100 bytes; the give-up
    /// took three attempts.
    fn sample(verdict: Verdict, answered: bool) -> Driven {
        let stats = QueryStats {
            tuning_packets: 10,
            latency_packets: 30,
            sleep_packets: 20,
            peak_memory_bytes: 100,
            ..QueryStats::default()
        };
        let attempts = if matches!(verdict, Verdict::Failed(_)) {
            3
        } else {
            1
        };
        Driven {
            verdict,
            stats: answered.then_some(stats),
            queries: 1,
            attempts,
            max_attempts: attempts,
            recovery_packets: 30,
            max_recovery_packets: 30,
            tuned_packets: 10,
            ..Driven::default()
        }
    }

    /// The JSON of the conformance, chaos and dynamic rows of a cell
    /// whose every item folds as `d`: nine items, the dynamic world's
    /// three queries at each of its three versions.
    fn rows(d: &Driven) -> [String; 3] {
        let mut base = ScenarioSpec::small("fold-dyn", 4);
        base.graph = crate::GraphSpec::Grid {
            width: 8,
            height: 8,
        };
        base.workload = crate::WorkloadMix::p2p(3);
        let dctx = DynamicContext::build(&DynamicSpec {
            base,
            traffic: crate::TrafficSpec::rush_hour(),
            versions: 3,
        });
        let mut tally = Tally::default();
        for _ in 0..9 {
            tally.fold(d);
        }
        let conformance = CellReport {
            scenario: "fold".to_string(),
            method: "nr",
            tally: tally.clone(),
            max_p2p_latency_packets: 0,
            max_onedge_latency_packets: 0,
            max_knn_latency_packets: 0,
            cycle_packets: 0,
            within_memory_budget: true,
            radio_energy_joules: 0.0,
            cpu_ms: 0.0,
        };
        let chaos = FaultCellReport {
            scenario: "fold".to_string(),
            fault: "none".to_string(),
            method: "nr",
            tally: tally.clone(),
        };
        let dynamic = DynamicCellReport::new(&dctx, MethodId::NR, tally, Patches::default());
        [
            conformance.json_fields(false),
            chaos.json_fields(false),
            dynamic.json_fields(false),
        ]
    }

    /// Asserts that `json` renders the columns `columns`.
    fn renders(json: &str, columns: &str) {
        assert!(json.contains(columns), "{columns} not in {json}");
    }

    #[test]
    fn an_exact_item_counts_as_exact() {
        let [c, f, d] = rows(&sample(Verdict::Exact, true));
        renders(
            &c,
            "\"queries\": 9, \"air_queries\": 9, \"mismatches\": 0, \
                     \"exact\": true, \"tuning_packets\": 90, \"latency_packets\": 270, \
                     \"sleep_packets\": 180",
        );
        renders(&c, "\"peak_memory_bytes\": 100");
        renders(
            &f,
            "\"queries\": 9, \"answered\": 9, \"wrong_answers\": 0, \
                     \"typed_failures\": 0, \"failure_classes\": {}, \"attempts\": 9, \
                     \"max_attempts\": 1, \"budget_violations\": 0",
        );
        renders(&f, "\"certified\": true");
        renders(
            &d,
            "\"answered\": 9, \"mismatches\": 0, \"typed_failures\": 0",
        );
        renders(&d, "\"exact\": true");
    }

    #[test]
    fn a_wrong_answer_counts_as_wrong_and_answered() {
        let [c, f, d] = rows(&sample(Verdict::Wrong, true));
        renders(
            &c,
            "\"mismatches\": 9, \"exact\": false, \"tuning_packets\": 90",
        );
        renders(
            &f,
            "\"answered\": 9, \"wrong_answers\": 9, \"typed_failures\": 0",
        );
        renders(&f, "\"certified\": false");
        renders(
            &d,
            "\"answered\": 9, \"mismatches\": 9, \"typed_failures\": 0",
        );
        renders(&d, "\"exact\": false");
    }

    #[test]
    fn a_trusted_unreachable_counts_as_wrong_without_an_answer() {
        let [c, f, d] = rows(&sample(Verdict::Wrong, false));
        renders(
            &c,
            "\"mismatches\": 9, \"exact\": false, \"tuning_packets\": 0",
        );
        renders(&c, "\"peak_memory_bytes\": 0");
        renders(
            &f,
            "\"answered\": 0, \"wrong_answers\": 9, \"typed_failures\": 0",
        );
        renders(&f, "\"certified\": false");
        renders(
            &d,
            "\"answered\": 0, \"mismatches\": 9, \"typed_failures\": 0",
        );
        renders(&d, "\"exact\": false");
    }

    #[test]
    fn a_typed_give_up_counts_once_under_its_class() {
        let [c, f, d] = rows(&sample(Verdict::Failed("corrupted"), false));
        renders(
            &c,
            "\"mismatches\": 9, \"exact\": false, \"tuning_packets\": 0",
        );
        renders(
            &f,
            "\"answered\": 0, \"wrong_answers\": 0, \"typed_failures\": 9, \
                     \"failure_classes\": {\"corrupted\": 9}, \"attempts\": 27, \
                     \"max_attempts\": 3",
        );
        // Typed give-ups are certified degradation under chaos.
        renders(&f, "\"certified\": true");
        renders(
            &d,
            "\"answered\": 0, \"mismatches\": 0, \"typed_failures\": 9, \
                     \"patch_sessions\": 0, \"fallback_retunes\": 0, \"fallback_classes\": {}",
        );
        // ...but not exact.
        renders(&d, "\"exact\": false");
    }

    #[test]
    fn an_unrepresentable_world_is_a_typed_refusal_not_a_wrong_answer() {
        // `spq_air` on coincident nodes 1 and 2 that need different
        // colors from node 0 (see `crates/methods/tests/spq_air.rs`):
        // its program refuses to broadcast.
        let mut b = spair_roadnet::GraphBuilder::new();
        for (x, y) in [(0.0, 0.0), (1.0, 1.0), (1.0, 1.0), (2.0, 0.0)] {
            b.add_node(spair_roadnet::Point::new(x, y));
        }
        for (u, v) in [(0, 1), (0, 3), (3, 2)] {
            b.add_undirected_edge(u, v, 1);
        }
        let g = b.finish();
        let part = spair_partition::KdTreePartition::build(&g, 2);
        let pre = spair_core::BorderPrecomputation::run(&g, &part);
        let programs = ProgramSet::new(World::from_parts(g, part, pre));
        let program = programs.ensure(MethodId::SPQ_AIR);
        assert!(matches!(
            program.cycle(),
            Err(MethodUnavailable::Unrepresentable { .. })
        ));
        let g = &programs.world().g;
        let mut device = Device::new(program).expect("spq_air has an air client");
        let (oracle, _) = dijkstra_to_target(g, 0, 2).expect("connected");
        let item = WorkItem::P2p {
            query: Query::for_nodes(g, 0, 2),
            oracle,
        };
        let d = drive(
            program,
            &mut device,
            g,
            &item,
            &Tune::at(0),
            RecoveryBudget::single(),
            |_| 11,
        );
        assert_eq!(d.verdict, Verdict::Failed("unrepresentable"));
        assert!(d.stats.is_none());
        let mut tally = Tally::default();
        tally.fold(&d);
        assert_eq!((tally.wrong, tally.typed()), (0, 1));
    }

    #[test]
    fn an_unbuilt_methods_default_counts_as_wrong() {
        let [c, f, d] = rows(&Driven::default());
        renders(
            &c,
            "\"queries\": 9, \"air_queries\": 0, \"mismatches\": 9, \
                     \"exact\": false",
        );
        renders(
            &f,
            "\"queries\": 9, \"answered\": 0, \"wrong_answers\": 9, \
                     \"typed_failures\": 0, \"failure_classes\": {}, \"attempts\": 0",
        );
        renders(&f, "\"certified\": false");
        renders(
            &d,
            "\"answered\": 0, \"mismatches\": 9, \"typed_failures\": 0",
        );
        renders(&d, "\"exact\": false");
    }

    fn arbitrary_driven() -> impl Strategy<Value = Driven> {
        let verdicts = [
            Verdict::Exact,
            Verdict::Wrong,
            Verdict::Failed("corrupted"),
            Verdict::Failed("stale_index"),
        ];
        (
            (
                0usize..4,
                any::<bool>(),
                0u64..1_000,
                0u64..1_000,
                0usize..5_000,
            ),
            (0usize..4, 0u32..5, 0u64..9_000, 0u64..3_000, any::<bool>()),
        )
            .prop_map(
                move |(
                    (v, answered, tuning, sleep, peak),
                    (queries, attempts, rec, tuned, over),
                )| {
                    Driven {
                        verdict: verdicts[v],
                        stats: answered.then_some(QueryStats {
                            tuning_packets: tuning,
                            latency_packets: tuning + sleep,
                            sleep_packets: sleep,
                            peak_memory_bytes: peak,
                            cpu: std::time::Duration::from_micros(sleep),
                            settled_nodes: tuning / 3,
                        }),
                        nodes: Vec::new(),
                        queries,
                        attempts: attempts * 2,
                        max_attempts: attempts,
                        recovery_packets: rec,
                        max_recovery_packets: rec / 2,
                        tuned_packets: tuned,
                        over_budget: over,
                    }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The map-reduce a matrix runs is thread-invariant by
        /// construction: folding the items in one pass equals merging the
        /// tallies of any chunking of them, in either order.
        #[test]
        fn a_tally_is_the_same_for_any_chunking(
            items in prop::collection::vec(arbitrary_driven(), 0..40),
            cuts in prop::collection::vec(0usize..41, 0..6),
        ) {
            let mut whole = Tally::default();
            for d in &items {
                whole.fold(d);
            }
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(items.len())).collect();
            bounds.sort_unstable();
            bounds.push(items.len());
            let mut parts = Vec::new();
            let mut start = 0;
            for end in bounds {
                let mut part = Tally::default();
                for d in &items[start..end] {
                    part.fold(d);
                }
                parts.push(part);
                start = end;
            }
            let (mut forward, mut backward) = (Tally::default(), Tally::default());
            for part in &parts {
                forward.merge(part);
            }
            for part in parts.iter().rev() {
                backward.merge(part);
            }
            prop_assert_eq!(&forward, &whole);
            prop_assert_eq!(&backward, &whole);
        }
    }

    #[test]
    fn path_is_valid_takes_the_lightest_parallel_edge() {
        let mut b = spair_roadnet::GraphBuilder::new();
        b.add_node(spair_roadnet::Point::new(0.0, 0.0));
        b.add_node(spair_roadnet::Point::new(1.0, 0.0));
        b.add_edge(0, 1, 5);
        b.add_edge(0, 1, 3);
        let g = b.finish();
        let q = Query::for_nodes(&g, 0, 1);
        assert!(path_is_valid(&g, &q, 3, &[0, 1]));
        assert!(!path_is_valid(&g, &q, 5, &[0, 1]));
    }
}
