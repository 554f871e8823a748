//! The one session driver under every in-process harness.
//!
//! Every number the harnesses report for the paper's §3.1 factors comes
//! from a client session checked against a Dijkstra oracle. [`open`]
//! tunes one channel session in; [`drive`] runs one [`WorkItem`] — a
//! point-to-point query, an on-edge composite, a kNN query, or a §6.1
//! channel-less local answer — under [`supervise`] and returns one
//! [`Driven`]: the verdict (exact, wrong, or a typed failure class) plus
//! the session's cost. The conformance engine, the chaos and dynamic
//! matrices, the load harness, the socket bench's in-process reference,
//! the `spair` CLI and the paper's `experiments` are folds of [`Driven`]
//! into their own rows.
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
/// it and it runs as one attempt. An item the device does not answer (a
/// kNN item on a path client, say) gets the default [`Driven`].
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
