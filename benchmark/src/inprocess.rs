//! The in-process workloads: one closed client loop over the methods'
//! cycles (`anchored`, `whole_cycle`).

use crate::replay;
use crate::report::Report;
use crate::run::{
    ms_since, report_client_layers, report_end_to_end, report_setup_layers, PassTotals, Phase, Run,
    Stopwatch,
};
use crate::trace::Tracer;
use crate::world::{
    answer_ok, random_pool, splitmix64, Case, Rng, Setup, WorldSpec, REFERENCE_SEED,
};
use crate::Outcome;
use spair_broadcast::{BroadcastChannel, BroadcastCycle, LossModel};
use spair_core::query::AirClient;
use spair_methods::{MethodId, MethodRegistry};
use spair_roadnet::QueuePolicy;
use std::time::Instant;

/// Sizes of one in-process workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The road network.
    pub world: WorldSpec,
    /// Methods, served round-robin (one session each per query).
    pub methods: &'static [&'static str],
    /// Query sources (one `dijkstra_full` oracle each).
    pub sources: usize,
    /// Targets per source.
    pub per_source: usize,
    /// Seconds one pass of the session list takes on the reference host;
    /// sets the block count (see [`Run::blocks`]).
    pub block_s: f64,
}

/// `anchored`: the paper's regime — NR and EB alternate on a 64-region
/// germany-class network; index decode plus selective region ingest is
/// the client work and border precompute dominates set-up.
pub fn anchored(smoke: bool) -> Spec {
    Spec {
        world: if smoke {
            WorldSpec {
                nodes: 2_000,
                regions: 16,
            }
        } else {
            WorldSpec {
                nodes: 20_000,
                regions: 64,
            }
        },
        methods: &["nr", "eb"],
        // Many sources, few targets each: a session's cost depends mostly
        // on where its source lies, so this keeps seeds alike.
        sources: if smoke { 4 } else { 120 },
        per_source: 5,
        block_s: 1.0,
    }
}

/// `whole_cycle`: whole-cycle reception, ingest and search; the SPQ
/// all-pairs build dominates set-up and its client most of the wall.
pub fn whole_cycle(smoke: bool) -> Spec {
    Spec {
        world: if smoke {
            WorldSpec {
                nodes: 1_500,
                regions: 16,
            }
        } else {
            WorldSpec {
                nodes: 6_000,
                regions: 64,
            }
        },
        methods: &["dj", "astar_air", "bidi_air", "hiti_air", "spq_air"],
        sources: if smoke { 6 } else { 40 },
        per_source: 1,
        block_s: 1.15,
    }
}

/// Resolves registry names.
pub fn method_ids(names: &[&str]) -> Result<Vec<MethodId>, String> {
    let reg = MethodRegistry::standard();
    names
        .iter()
        .map(|n| reg.get(n).map_err(|e| e.to_string()))
        .collect()
}

/// Builds the world `setup_reps` times from scratch, keeping the last;
/// returns it with every set-up wall and the set-up spans.
pub fn timed_setups(
    run: &Run,
    spec: &WorldSpec,
    methods: &[MethodId],
) -> (Setup, Vec<f64>, Tracer) {
    let mut spans = Tracer::new(run.traced, run.epoch);
    let mut walls = Vec::new();
    let mut kept = None;
    for _ in 0..run.setup_reps() {
        // Free the previous world first so repetitions never overlap.
        drop(kept.take());
        let t = Instant::now();
        kept = Some(Setup::build(spec, methods, &mut spans));
        walls.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), walls, spans)
}

/// One method's channel and its long-lived client.
pub(crate) struct Lane<'a> {
    pub name: &'static str,
    pub cycle: &'a BroadcastCycle,
    pub client: Box<dyn AirClient>,
}

/// A fixed session list: session `k` runs lane `k % lanes` on query
/// `(k / lanes) % pool` at a seeded offset; it repeats every
/// `lanes × pool` sessions (one pass), so any pass-long run of
/// consecutive sessions does the same work.
pub(crate) struct Schedule<'a> {
    pub lanes: Vec<Lane<'a>>,
    pub pool: &'a [Case],
    pub seed: u64,
}

impl Schedule<'_> {
    pub fn pass_len(&self) -> u64 {
        (self.lanes.len() * self.pool.len()) as u64
    }

    /// Runs `count` sessions from `*k` on, closing a block every `block`
    /// of them; every answer's costs add to `pass` when given.
    pub fn phase(
        &mut self,
        g: &spair_roadnet::RoadNetwork,
        k: &mut u64,
        count: u64,
        block: u64,
        mut pass: Option<&mut PassTotals>,
        tracer: &mut Tracer,
    ) -> std::io::Result<Phase> {
        let mut ph = Phase::default();
        let mut sw = Stopwatch::start()?;
        let pass_len = self.pass_len();
        for ran in 1..=count {
            let nl = self.lanes.len() as u64;
            let lane = &mut self.lanes[(*k % nl) as usize];
            let case = &self.pool[((*k / nl) % self.pool.len() as u64) as usize];
            let offset = splitmix64(self.seed ^ splitmix64(*k % pass_len));
            let offset = (offset % lane.cycle.len() as u64) as usize;
            let root = tracer.begin("session", lane.name, Some(*k));
            let call = tracer.begin("client.query", lane.name, Some(*k));
            let t = Instant::now();
            let mut ch = BroadcastChannel::tune_in(lane.cycle, offset, LossModel::Lossless);
            let res = lane.client.query(&mut ch, &case.query);
            let ms = ms_since(t);
            let settled = res.as_ref().map_or(0, |o| o.stats.settled_nodes);
            tracer.end(call, settled);
            tracer.end(root, 0);
            ph.session(lane.name, ms);
            // Checked at once so a long phase holds no answers; a check
            // costs about a thousandth of a session.
            match res {
                Ok(out) => {
                    ph.settled_nodes(lane.name, settled);
                    if let Some(p) = pass.as_deref_mut() {
                        p.add(&out.stats);
                    }
                    if !answer_ok(g, case, out.distance, &out.path) {
                        ph.wrong += 1;
                    }
                }
                Err(e) => {
                    ph.failed += 1;
                    eprintln!("session failed: {}: {e}", lane.name);
                }
            }
            *k += 1;
            if ran.is_multiple_of(block) || ran == count {
                sw.stop(&mut ph)?;
                ph.close_block();
                sw = Stopwatch::start()?;
            }
        }
        Ok(ph)
    }
}

/// Runs an in-process workload.
pub fn run(run: &Run, spec: &Spec, report: &mut Report) -> Result<Outcome, String> {
    let methods = method_ids(spec.methods)?;
    let (setup, setup_s, setup_spans) = timed_setups(run, &spec.world, &methods);
    let g = setup.g();

    let t = Instant::now();
    let pool = random_pool(g, &mut Rng::new(run.seed, 1), spec.sources, spec.per_source);
    let reference = if run.traced {
        Vec::new()
    } else {
        random_pool(
            g,
            &mut Rng::new(REFERENCE_SEED, 1),
            spec.sources,
            spec.per_source,
        )
    };
    report.put("bench.oracle_s", t.elapsed().as_secs_f64(), "s");

    let mut lanes = Vec::new();
    for &m in &methods {
        let program = setup.program(m);
        lanes.push(Lane {
            name: m.name(),
            cycle: program.cycle().map_err(|e| e.to_string())?,
            client: program
                .make_client(QueuePolicy::default())
                .map_err(|e| e.to_string())?,
        });
    }
    let io = |e: std::io::Error| e.to_string();
    let mut off = Tracer::new(false, run.epoch);
    let mut outcome = Outcome::default();
    let mut sched = Schedule {
        lanes,
        pool: &reference,
        seed: REFERENCE_SEED,
    };
    // The reference pass first, on fresh clients, so that it is the same
    // on every run.
    let mut pass = PassTotals::default();
    if !run.traced {
        let len = sched.pass_len();
        let ph = sched
            .phase(g, &mut 0, len, len, Some(&mut pass), &mut off)
            .map_err(io)?;
        outcome.absorb(&ph);
    }
    sched.pool = &pool;
    sched.seed = run.seed;
    let mut k = 0u64;
    // Warm-up: four rounds over every method, discarded.
    let warm = 4 * methods.len() as u64;
    let w = sched
        .phase(g, &mut k, warm, warm, None, &mut off)
        .map_err(io)?;
    outcome.absorb(&w);
    let len = sched.pass_len();
    let count = run.blocks(spec.block_s) * len;
    let timed = sched
        .phase(g, &mut k, count, len, None, &mut off)
        .map_err(io)?;
    outcome.absorb(&timed);
    if run.traced {
        report_setup_layers(report, &setup_spans, setup_s[0], &setup);
        let mut spans = Tracer::new(true, run.epoch);
        let traced = sched
            .phase(g, &mut k, count, len, None, &mut spans)
            .map_err(io)?;
        outcome.absorb(&traced);
        report_client_layers(report, &timed, &traced).map_err(io)?;
        outcome.wrong += replay::run(run, setup.programs.world(), &pool, &mut spans, report)?;
        crate::write_spans(run, setup_spans, spans)?;
    } else {
        report_end_to_end(report, &setup_s, &timed, &pass).map_err(io)?;
    }
    Ok(outcome)
}
