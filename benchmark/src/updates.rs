//! `updates`: weight updates beside reads. The server republishes every
//! version (precompute, program builds, patch cycle); commuters patch
//! their received arenas in place and search them, falling back to a
//! supervised full re-tune when the patch fails or the search cannot
//! certify its answer.

use crate::inprocess::{method_ids, timed_setups};
use crate::replay;
use crate::report::Report;
use crate::run::{
    ms_since, report_client_layers, report_end_to_end, report_setup_layers, PassTotals, Phase, Run,
    Stopwatch,
};
use crate::stats::median;
use crate::trace::Tracer;
use crate::world::{
    answer_ok, commuter_pairs, publish, reweight, splitmix64, Case, Rng, WorldSpec, REFERENCE_SEED,
};
use crate::Outcome;
use spair_broadcast::{BroadcastChannel, BroadcastCycle, LossModel};
use spair_core::patch::{build_patch_cycle, receive_patch, ClientArena};
use spair_core::query::{AirClient, Query};
use spair_core::{supervise_query, RecoveryBudget};
use spair_methods::{MethodId, ProgramSet};
use spair_partition::KdTreePartition;
use spair_roadnet::{dijkstra_full, Distance, NodeId, QueuePolicy};
use std::sync::Arc;
use std::time::Instant;

/// Sizes of the `updates` workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The road network.
    pub world: WorldSpec,
    /// Commute origins (one `dijkstra_full` oracle each per version).
    pub sources: usize,
    /// Commuters per origin: half ride NR, half DJ.
    pub per_source: usize,
    /// Versions in the chain every block replays from version 0.
    pub chain_versions: u32,
    /// Seconds one chain takes on the reference host; sets the block
    /// count (see [`Run::blocks`]).
    pub block_s: f64,
}

/// Edges re-weighted per version, in permille.
pub const REWEIGHT_PERMILLE: u64 = 50;

/// Bernoulli loss on every channel.
const LOSS: f64 = 0.02;

/// Precompute workers when republishing a version. The timed phase is
/// one closed loop, server work included: on the 2-vCPU reference host,
/// six alternating pairs of runs made 421-439 sessions/s with one worker
/// and 562-773 with two, because work on both vCPUs moves with the
/// host's other tenants.
const PUBLISH_THREADS: usize = 1;

/// The workload's sizes.
pub fn spec(smoke: bool) -> Spec {
    Spec {
        world: if smoke {
            WorldSpec {
                nodes: 1_500,
                regions: 16,
            }
        } else {
            WorldSpec {
                nodes: 8_000,
                regions: 64,
            }
        },
        sources: if smoke { 4 } else { 40 },
        per_source: if smoke { 4 } else { 10 },
        chain_versions: if smoke { 2 } else { 6 },
        block_s: 5.5,
    }
}

/// A commuter session's answer: distance, path and settled nodes.
type Answer = Result<(Distance, Vec<NodeId>, u64), String>;

/// Seed of commuter `i`'s session at version `v`.
fn session_key(seed: u64, v: u32, i: usize) -> u64 {
    splitmix64(seed ^ (u64::from(v) << 32 | i as u64))
}

/// One commuter: a journey, a method, and the arena it keeps.
struct Commuter {
    lane: usize,
    source_idx: usize,
    query: Query,
    arena: Option<ClientArena>,
}

/// One published version.
struct Version {
    v: u32,
    programs: ProgramSet,
    patch: BroadcastCycle,
}

/// Per-run counters beyond the common session log.
#[derive(Default)]
struct Counters {
    publish_s: Vec<f64>,
    patch_build_ms: Vec<f64>,
    patch_receive_ms: Vec<f64>,
    patch_packets: Vec<f64>,
    sessions: u64,
    fallbacks: u64,
    uncertified: u64,
    supervised: u64,
    attempts: u64,
    retunes: u64,
    recovery_packets: u64,
    oracle_s: f64,
}

/// One seed's traffic: the commuters, the version chain the server
/// publishes for them, and what both counted.
struct Traffic<'a> {
    seed: u64,
    spec: &'a Spec,
    methods: &'a [MethodId],
    part: Arc<KdTreePartition>,
    commuters: Vec<Commuter>,
    sources: Vec<NodeId>,
    /// Every commuter's arena after version 0; each chain starts here.
    start: Vec<Option<ClientArena>>,
    /// Oracle distance per commuter, per version of the chain.
    oracles: Vec<Vec<Distance>>,
    counters: Counters,
}

impl<'a> Traffic<'a> {
    /// The commuters of `seed` on version 0's network.
    fn new(seed: u64, spec: &'a Spec, methods: &'a [MethodId], v0: &Version) -> Self {
        let world = v0.programs.world();
        let (g, part) = (world.g.as_ref(), world.part.clone());
        let t = Instant::now();
        let pairs = commuter_pairs(
            g,
            &part,
            &mut Rng::new(seed, 2),
            spec.sources,
            spec.per_source,
        );
        let commuters = pairs
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| Commuter {
                lane: i % 2,
                source_idx: i / spec.per_source,
                query: Query::for_nodes(g, s, d),
                arena: None,
            })
            .collect();
        let sources = pairs
            .iter()
            .step_by(spec.per_source)
            .map(|&(s, _)| s)
            .collect();
        let mut traffic = Self {
            seed,
            spec,
            methods,
            part,
            commuters,
            sources,
            start: Vec::new(),
            oracles: Vec::new(),
            counters: Counters::default(),
        };
        traffic.counters.oracle_s = t.elapsed().as_secs_f64();
        traffic
    }

    fn channel<'c>(&self, cycle: &'c BroadcastCycle, key: u64) -> BroadcastChannel<'c> {
        let offset = (splitmix64(key) % cycle.len() as u64) as usize;
        BroadcastChannel::tune_in(
            cycle,
            offset,
            LossModel::bernoulli(LOSS, splitmix64(key ^ 1)),
        )
    }

    /// Computes the oracle distance of every commuter at `ver` the first
    /// time the chain reaches it (one tree per origin). Versions first
    /// arrive in order, version 0 (the warm-up) first.
    fn ensure_oracles(&mut self, ver: &Version) {
        let v = ver.v as usize;
        if self.oracles.len() == v {
            let t = Instant::now();
            let g = ver.programs.world().g.as_ref();
            let trees: Vec<_> = self.sources.iter().map(|&s| dijkstra_full(g, s)).collect();
            let out = self
                .commuters
                .iter()
                .map(|c| trees[c.source_idx].distance(c.query.target))
                .collect();
            self.oracles.push(out);
            self.counters.oracle_s += t.elapsed().as_secs_f64();
        }
    }

    /// Version 0: every commuter tunes in fully once, and the arenas they
    /// keep become the start of every chain. Counters restart after it.
    fn warm_up(&mut self, v0: &Version) -> Result<Phase, String> {
        let mut ph = Phase::default();
        let mut clients = self.clients(v0)?;
        let mut answers = Vec::with_capacity(self.commuters.len());
        for i in 0..self.commuters.len() {
            let lane = self.commuters[i].lane;
            let t = Instant::now();
            let key = session_key(self.seed, 0, i);
            answers.push((
                i,
                self.full_session(v0, clients[lane].as_mut(), i, key, None),
            ));
            ph.session(self.methods[lane].name(), ms_since(t));
        }
        self.check(v0, answers, &mut ph);
        self.start = self
            .commuters
            .iter()
            .map(|c| {
                c.arena.as_ref().map(|a| ClientArena {
                    store: a.store.clone(),
                    coverage: a.coverage.clone(),
                })
            })
            .collect();
        self.counters = Counters {
            oracle_s: self.counters.oracle_s,
            ..Counters::default()
        };
        Ok(ph)
    }

    /// A supervised full session on `version`'s cycle; on an answer the
    /// commuter keeps the client's fresh arena.
    fn full_session(
        &mut self,
        ver: &Version,
        client: &mut dyn AirClient,
        i: usize,
        key: u64,
        pass: Option<&mut PassTotals>,
    ) -> Answer {
        let m = self.methods[self.commuters[i].lane];
        let cycle = ver.programs.ensure(m).cycle().map_err(|e| e.to_string())?;
        let query = self.commuters[i].query;
        let s = supervise_query(
            RecoveryBudget::standard(),
            cycle.len(),
            client,
            &query,
            |a| self.channel(cycle, splitmix64(key ^ (2 + u64::from(a)))),
        );
        self.counters.supervised += 1;
        self.counters.attempts += u64::from(s.attempts);
        self.counters.retunes += u64::from(s.attempts > 1);
        self.counters.recovery_packets += s.recovery_packets;
        if let Some(e) = s.outcome.failed() {
            self.commuters[i].arena = None;
            return Err(format!("{}: {e}", m.name()));
        }
        let out = s
            .outcome
            .answered()
            .ok_or_else(|| format!("{}: unreachable", m.name()))?;
        if let Some(p) = pass {
            p.add(&spair_broadcast::QueryStats {
                tuning_packets: s.tuned_packets,
                latency_packets: s.recovery_packets,
                ..out.stats
            });
        }
        self.commuters[i].arena = client.export_arena();
        Ok((out.distance, out.path.clone(), out.stats.settled_nodes))
    }

    /// Publishes the version after `prev`: the timed server work.
    fn publish(&mut self, prev: &Version, tracer: &mut Tracer) -> Version {
        let v = prev.v + 1;
        let root = tracer.begin("publish", "", None);
        let t = Instant::now();
        let mut rng = Rng::new(self.seed, 100 + u64::from(v));
        let (g, deltas) = reweight(
            &prev.programs.world().g,
            &self.part,
            &mut rng,
            REWEIGHT_PERMILLE,
        );
        let programs = publish(g, self.part.clone(), self.methods, PUBLISH_THREADS, tracer);
        let tb = Instant::now();
        let pid = tracer.begin("core.patch.build", "", None);
        let patch = build_patch_cycle(v, v - 1, &deltas);
        tracer.end(pid, patch.len() as u64);
        self.counters.patch_build_ms.push(ms_since(tb));
        self.counters.publish_s.push(t.elapsed().as_secs_f64());
        self.counters.patch_packets.push(patch.len() as f64);
        tracer.end(root, 0);
        Version { v, programs, patch }
    }

    /// Replays the version chain from `v0` `blocks` times, one block
    /// each: every replay re-publishes the same versions and serves every
    /// commuter on each, starting from the arenas they held at version 0.
    /// The first replay's costs add to `pass` when given.
    fn chains(
        &mut self,
        v0: &Version,
        blocks: u64,
        mut pass: Option<&mut PassTotals>,
        tracer: &mut Tracer,
    ) -> Result<Phase, String> {
        let io = |e: std::io::Error| e.to_string();
        let mut ph = Phase::default();
        for _ in 0..blocks {
            for (c, a) in self.commuters.iter_mut().zip(&self.start) {
                c.arena = a.as_ref().map(|a| ClientArena {
                    store: a.store.clone(),
                    coverage: a.coverage.clone(),
                });
            }
            let mut prev: Option<Version> = None;
            for _ in 0..self.spec.chain_versions {
                let sw = Stopwatch::start().map_err(io)?;
                let ver = self.publish(prev.as_ref().unwrap_or(v0), tracer);
                sw.stop(&mut ph).map_err(io)?;
                let mut clients = self.clients(&ver)?;
                let mut answers = Vec::with_capacity(self.commuters.len());
                let sw = Stopwatch::start().map_err(io)?;
                for i in 0..self.commuters.len() {
                    let key = session_key(self.seed, ver.v, i);
                    let lane = self.commuters[i].lane;
                    let name = self.methods[lane].name();
                    let root = tracer.begin("session", name, Some(key));
                    let t = Instant::now();
                    let res = self.commute(
                        &ver,
                        clients[lane].as_mut(),
                        i,
                        key,
                        pass.as_deref_mut(),
                        tracer,
                    );
                    ph.session(name, ms_since(t));
                    tracer.end(root, 0);
                    answers.push((i, res));
                }
                sw.stop(&mut ph).map_err(io)?;
                self.check(&ver, answers, &mut ph);
                prev = Some(ver);
            }
            ph.close_block();
            pass = None;
        }
        Ok(ph)
    }

    /// One fresh client per method on `ver`'s programs.
    fn clients(&self, ver: &Version) -> Result<Vec<Box<dyn AirClient>>, String> {
        self.methods
            .iter()
            .map(|&m| ver.programs.ensure(m).make_client(QueuePolicy::default()))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())
    }

    /// Checks commuter answers against `ver`'s oracles.
    fn check(&mut self, ver: &Version, answers: Vec<(usize, Answer)>, ph: &mut Phase) {
        self.ensure_oracles(ver);
        for (i, res) in answers {
            let case = Case {
                query: self.commuters[i].query,
                oracle: self.oracles[ver.v as usize][i],
            };
            match res {
                Ok((d, path, settled)) => {
                    ph.settled_nodes(self.methods[self.commuters[i].lane].name(), settled);
                    if !answer_ok(&ver.programs.world().g, &case, d, &path) {
                        ph.wrong += 1;
                    }
                }
                Err(e) => {
                    ph.failed += 1;
                    eprintln!("session failed: {e}");
                }
            }
        }
    }

    /// One commuter session at `ver`: patch the arena and search it, or
    /// fall back to a supervised full re-tune.
    fn commute(
        &mut self,
        ver: &Version,
        client: &mut dyn AirClient,
        i: usize,
        key: u64,
        mut pass: Option<&mut PassTotals>,
        tracer: &mut Tracer,
    ) -> Answer {
        self.counters.sessions += 1;
        let query = self.commuters[i].query;
        if let Some(mut arena) = self.commuters[i].arena.take() {
            let t = Instant::now();
            let sid = tracer.begin("core.patch.receive", "", Some(key));
            let mut ch = self.channel(&ver.patch, key);
            let patched = receive_patch(&mut ch, ver.v - 1, &arena.coverage, &mut arena.store);
            tracer.end(sid, ch.tuned());
            self.counters.patch_receive_ms.push(ms_since(t));
            let (tuned, elapsed) = (ch.tuned(), ch.elapsed());
            if patched.is_ok() {
                let sid = tracer.begin("core.netcodec.search_checked", "", Some(key));
                let (res, settled, certified) = arena.store.shortest_path_checked(
                    query.source,
                    query.target,
                    QueuePolicy::default(),
                );
                tracer.end(sid, settled as u64);
                if let (Some((d, path)), true) = (res, certified) {
                    if let Some(p) = pass.as_deref_mut() {
                        p.add(&spair_broadcast::QueryStats {
                            tuning_packets: tuned,
                            latency_packets: elapsed,
                            peak_memory_bytes: arena.store.retained_bytes(),
                            ..Default::default()
                        });
                    }
                    self.commuters[i].arena = Some(arena);
                    return Ok((d, path, settled as u64));
                }
                self.counters.uncertified += 1;
            }
        }
        self.counters.fallbacks += 1;
        let sid = tracer.begin("core.session.supervise", "", Some(key));
        let res = self.full_session(ver, client, i, key, pass);
        tracer.end(sid, 0);
        res
    }
}

/// Runs the `updates` workload.
pub fn run(run: &Run, spec: &Spec, report: &mut Report) -> Result<Outcome, String> {
    let methods = method_ids(&["nr", "dj"])?;
    let (setup, setup_s, setup_spans) = timed_setups(run, &spec.world, &methods);
    if run.traced {
        report_setup_layers(report, &setup_spans, setup_s[0], &setup);
    }
    let v0 = Version {
        v: 0,
        programs: setup.programs,
        // Version 0 patches nothing; an empty heartbeat stands in.
        patch: build_patch_cycle(0, 0, &[]),
    };
    let mut outcome = Outcome::default();
    let mut off = Tracer::new(false, run.epoch);

    // The reference traffic's chain, once and untimed, for the packet
    // and memory metrics.
    let mut pass = PassTotals::default();
    let mut oracle_s = 0.0;
    if !run.traced {
        let mut reference = Traffic::new(REFERENCE_SEED, spec, &methods, &v0);
        outcome.absorb(&reference.warm_up(&v0)?);
        outcome.absorb(&reference.chains(&v0, 1, Some(&mut pass), &mut off)?);
        oracle_s += reference.counters.oracle_s;
    }

    let mut d = Traffic::new(run.seed, spec, &methods, &v0);
    outcome.absorb(&d.warm_up(&v0)?);
    let blocks = run.blocks(spec.block_s);
    let timed = d.chains(&v0, blocks, None, &mut off)?;
    outcome.absorb(&timed);
    if run.traced {
        let mut spans = Tracer::new(true, run.epoch);
        let traced = d.chains(&v0, blocks, None, &mut spans)?;
        outcome.absorb(&traced);
        report_client_layers(report, &timed, &traced).map_err(|e| e.to_string())?;
        let pool: Vec<Case> = d
            .commuters
            .iter()
            .zip(&d.oracles[0])
            .map(|(c, &oracle)| Case {
                query: c.query,
                oracle,
            })
            .collect();
        outcome.wrong += replay::run(run, v0.programs.world(), &pool, &mut spans, report)?;
        crate::write_spans(run, setup_spans, spans)?;
    } else {
        report_end_to_end(report, &setup_s, &timed, &pass).map_err(|e| e.to_string())?;
    }
    report.put("bench.oracle_s", oracle_s + d.counters.oracle_s, "s");

    let c = &d.counters;
    let n = c.sessions.max(1) as f64;
    report.put("publish_s_p50", median(&c.publish_s), "s");
    report.put("core.patch.build_ms_p50", median(&c.patch_build_ms), "ms");
    report.put(
        "core.patch.receive_ms_p50",
        median(&c.patch_receive_ms),
        "ms",
    );
    report.put(
        "core.patch.packets_per_version",
        median(&c.patch_packets),
        "packets",
    );
    report.put("core.patch.fallback_frac", c.fallbacks as f64 / n, "share");
    report.put(
        "core.patch.uncertified_frac",
        c.uncertified as f64 / n,
        "share",
    );
    let sup = c.supervised.max(1) as f64;
    report.put(
        "core.session.attempts_mean",
        c.attempts as f64 / sup,
        "count",
    );
    report.put("core.session.retune_frac", c.retunes as f64 / sup, "share");
    report.put(
        "core.session.recovery_packets_mean",
        c.recovery_packets as f64 / sup,
        "packets",
    );
    report.put("versions", c.publish_s.len() as f64, "count");
    Ok(outcome)
}
