//! `serve_socket`: the serving edge. A `ServeDaemon` streams the NR, DJ
//! and HiTi cycles over loopback; two closed-loop client threads each
//! fetch a whole cycle (TCP and UDP alternating) and answer a query over
//! it with the method's remote client.

use crate::inprocess::{method_ids, Lane, Schedule};
use crate::procstat;
use crate::replay;
use crate::report::Report;
use crate::run::{
    ms_since, report_client_layers, report_end_to_end, report_setup_layers, PassTotals, Phase, Run,
};
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use crate::world::{
    answer_ok, random_pool, splitmix64, Case, Rng, Setup, WorldSpec, REFERENCE_SEED,
};
use crate::Outcome;
use spair_broadcast::{BroadcastChannel, BroadcastCycle, LossModel, QueryStats};
use spair_core::query::AirClient;
use spair_methods::{MethodId, MethodRegistry};
use spair_roadnet::{Distance, NodeId, QueuePolicy, RoadNetwork};
use spair_serve::{
    fetch_cycle, ServeDaemon, ServeOptions, ServeWorld, SessionConfig, SessionMetrics, Transport,
};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Sizes of the `serve_socket` workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The road network.
    pub world: WorldSpec,
    /// Query sources.
    pub sources: usize,
    /// Targets per source; one pass is one session per method and query.
    pub per_source: usize,
    /// Seconds one pass takes on the reference host; the timed phase runs
    /// [`Run::blocks`] passes' worth of sessions.
    pub block_s: f64,
}

/// Closed-loop client threads (= connections open at once).
const CLIENT_THREADS: usize = 2;

/// Sessions per run whose fetched cycle may differ from the served one
/// without failing the run. `fetch_cycle` files every data frame that
/// reaches its UDP port without checking the frame's session, so a
/// session whose socket reuses a just-closed session's port can take in
/// that session's late datagrams: at most about one UDP session in 2 000
/// on the reference host. At 180 UDP sessions a run, more than this many is a
/// change in the program, not that defect.
const FOREIGN_SLOT_ALLOWANCE: u64 = 3;

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
        sources: if smoke { 2 } else { 20 },
        per_source: 2,
        block_s: 4.5,
    }
}

/// One finished session as a client thread saw it.
struct Record {
    k: u64,
    case: usize,
    method: &'static str,
    transport: Transport,
    fetch_ms: f64,
    query_ms: f64,
    /// The fetched cycle differed from the served one.
    foreign: bool,
    metrics: SessionMetrics,
    answer: Result<(Distance, Vec<NodeId>, QueryStats), String>,
}

/// What every client thread shares.
struct Shared<'a> {
    addr: SocketAddr,
    g: &'a RoadNetwork,
    methods: &'a [MethodId],
    /// The cycle the daemon serves for each method.
    served: Vec<&'a BroadcastCycle>,
    pool: &'a [Case],
    seed: u64,
    next: AtomicU64,
}

impl Shared<'_> {
    /// Session `k`: method `k % methods` on query `round % pool`, where
    /// `round = k / methods`, at a seeded tune-in offset. TCP and UDP
    /// alternate round by round, and the alternation flips every pass so
    /// that each method meets each query on both transports.
    fn session(&self, k: u64) -> (usize, Transport, usize, u64) {
        let n = self.methods.len() as u64;
        let pool = self.pool.len() as u64;
        let m = (k % n) as usize;
        let round = k / n;
        let transport = if (round + round / pool).is_multiple_of(2) {
            Transport::Tcp
        } else {
            Transport::Udp
        };
        let case = (round % pool) as usize;
        let offset = splitmix64(self.seed ^ splitmix64(k)) % self.served[m].len() as u64;
        (m, transport, case, offset)
    }
}

/// One client thread: takes sessions until every one below `end` is
/// taken. Returns its records and CPU milliseconds.
fn client_loop(
    sh: &Shared<'_>,
    end: u64,
    tracer: &mut Tracer,
) -> std::io::Result<(Vec<Record>, f64)> {
    let cpu0 = procstat::thread_cpu_ms()?;
    let registry = MethodRegistry::standard();
    let mut clients: Vec<Option<Box<dyn AirClient>>> = sh.methods.iter().map(|_| None).collect();
    let mut out = Vec::new();
    loop {
        let k = sh.next.fetch_add(1, Ordering::SeqCst);
        if k >= end {
            break;
        }
        let (m, transport, case, offset) = sh.session(k);
        let method = sh.methods[m];
        let mut cfg = SessionConfig::new(sh.addr, method.name(), transport);
        cfg.offset = offset;
        let root = tracer.begin("session", method.name(), Some(k));
        let t = Instant::now();
        let fid = tracer.begin("serve.fetch_cycle", transport.name(), Some(k));
        let fetched = fetch_cycle(&cfg);
        tracer.end(fid, fetched.as_ref().map_or(0, |f| f.2.frames_rx));
        let fetch_ms = ms_since(t);
        // A foreign packet (see FOREIGN_SLOT_ALLOWANCE) could give a
        // wrong answer or abort the client; such a session is a socket
        // failure and is counted apart.
        let mut foreign = false;
        let fetched = fetched.map_err(|e| e.to_string()).and_then(|f| {
            match differing_slots(&f.0, sh.served[m]) {
                0 => Ok(f),
                n => {
                    foreign = true;
                    Err(format!(
                        "fetched cycle differs from the served one in {n} slots"
                    ))
                }
            }
        });
        let t = Instant::now();
        let (answer, metrics) = match fetched {
            Err(e) => (
                Err(format!("{} over {}: {e}", method.name(), transport.name())),
                SessionMetrics::default(),
            ),
            Ok((cycle, bootstrap, metrics)) => {
                let qid = tracer.begin("methods.remote_query", method.name(), Some(k));
                let client = match &mut clients[m] {
                    Some(c) => Ok(c),
                    slot => registry
                        .remote_client(method, &bootstrap, QueuePolicy::default())
                        .map(|c| slot.insert(c))
                        .map_err(|e| e.to_string()),
                };
                let answer = client.and_then(|client| {
                    let at = (offset % metrics.cycle_len) as usize;
                    let mut ch = BroadcastChannel::tune_in(&cycle, at, LossModel::Lossless);
                    client
                        .query(&mut ch, &sh.pool[case].query)
                        .map(|o| (o.distance, o.path, o.stats))
                        .map_err(|e| format!("{}: {e}", method.name()))
                });
                tracer.end(qid, 0);
                (answer, metrics)
            }
        };
        let query_ms = ms_since(t);
        tracer.end(root, 0);
        out.push(Record {
            k,
            case,
            method: method.name(),
            transport,
            fetch_ms,
            query_ms,
            foreign,
            metrics,
            answer,
        });
    }
    Ok((out, procstat::thread_cpu_ms()? - cpu0))
}

/// Slots where two cycles carry different packets (all of them when the
/// lengths differ).
fn differing_slots(a: &BroadcastCycle, b: &BroadcastCycle) -> usize {
    if a.len() != b.len() {
        return a.len().max(b.len());
    }
    (0..a.len())
        .filter(|&i| {
            let (p, q) = (a.packet(i), b.packet(i));
            p.kind() != q.kind()
                || p.next_index() != q.next_index()
                || p.payload()[..] != q.payload()[..]
        })
        .count()
}

/// The records of one phase plus its timing.
struct PhaseRun {
    records: Vec<Record>,
    phase: Phase,
    client_cpu_ms: f64,
    /// Sessions whose fetched cycle differed from the served one.
    foreign: u64,
}

/// Runs `sessions` sessions on the client threads, as one block.
fn phase(sh: &Shared<'_>, sessions: u64, tracer: &mut Tracer) -> Result<PhaseRun, String> {
    let io = |e: std::io::Error| e.to_string();
    let end = sh.next.load(Ordering::SeqCst) + sessions;
    let (on, epoch) = (tracer.is_on(), tracer.epoch());
    let cpu0 = procstat::process_cpu_ms().map_err(io)?;
    let started = Instant::now();
    let results: Vec<std::io::Result<(Vec<Record>, f64, Tracer)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|_| {
                s.spawn(move || {
                    let mut tr = Tracer::new(on, epoch);
                    client_loop(sh, end, &mut tr).map(|(r, cpu)| (r, cpu, tr))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut ph = Phase::default();
    ph.add_timed(
        started.elapsed().as_secs_f64(),
        procstat::process_cpu_ms().map_err(io)? - cpu0,
    );
    let mut records = Vec::new();
    let mut client_cpu_ms = 0.0;
    for res in results {
        let (r, cpu, tr) = res.map_err(io)?;
        records.extend(r);
        client_cpu_ms += cpu;
        tracer.absorb(tr);
    }
    records.sort_by_key(|r| r.k);
    for r in &records {
        ph.session(r.method, r.fetch_ms + r.query_ms);
        match &r.answer {
            Ok((d, path, stats)) => {
                ph.settled_nodes(r.method, stats.settled_nodes);
                if !answer_ok(sh.g, &sh.pool[r.case], *d, path) {
                    ph.wrong += 1;
                }
            }
            Err(e) => {
                ph.failed += 1;
                eprintln!("session failed: {e}");
            }
        }
    }
    // One block: two threads share the sessions, so no shorter stretch
    // has a wall of its own.
    ph.close_block();
    let foreign = records.iter().filter(|r| r.foreign).count() as u64;
    Ok(PhaseRun {
        records,
        phase: ph,
        client_cpu_ms,
        foreign,
    })
}

/// Publishes the setup's cycles on a fresh loopback daemon.
fn start_daemon(setup: &Setup, dir: &Path, tracer: &mut Tracer) -> Result<ServeDaemon, String> {
    tracer
        .time("serve.daemon_start", "", || {
            let world = ServeWorld::from_program_set(&setup.programs, &setup.methods);
            ServeDaemon::start(world, ServeOptions::in_dir(dir))
        })
        .map_err(|e| format!("daemon start: {e}"))
}

/// Runs the `serve_socket` workload.
pub fn run(run: &Run, spec: &Spec, report: &mut Report) -> Result<Outcome, String> {
    let methods = method_ids(&["nr", "dj", "hiti_air"])?;
    let dir = crate::scratch_dir(run)?;
    let mut setup_spans = Tracer::new(run.traced, run.epoch);
    let mut setup_s = Vec::new();
    let mut kept: Option<(Setup, ServeDaemon)> = None;
    for _ in 0..run.setup_reps() {
        if let Some((_, daemon)) = kept.take() {
            daemon.shutdown().map_err(|e| e.to_string())?;
        }
        let t = Instant::now();
        let setup = Setup::build(&spec.world, &methods, &mut setup_spans);
        let daemon = start_daemon(&setup, &dir, &mut setup_spans)?;
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some((setup, daemon));
    }
    let (setup, daemon) = kept.expect("at least one set-up");
    if run.traced {
        report_setup_layers(report, &setup_spans, setup_s[0], &setup);
    }

    let t = Instant::now();
    let pool = random_pool(
        setup.g(),
        &mut Rng::new(run.seed, 3),
        spec.sources,
        spec.per_source,
    );
    let reference = if run.traced {
        Vec::new()
    } else {
        random_pool(
            setup.g(),
            &mut Rng::new(REFERENCE_SEED, 3),
            spec.sources,
            spec.per_source,
        )
    };
    report.put("bench.oracle_s", t.elapsed().as_secs_f64(), "s");
    let served = methods
        .iter()
        .map(|&m| setup.program(m).cycle())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;

    let mut outcome = Outcome::default();
    let mut off = Tracer::new(false, run.epoch);
    // The packet and memory metrics: one pass of the reference traffic,
    // in process, through the same remote clients a socket session
    // builds, over the cycles the daemon serves (a session's fetched
    // cycle must equal them).
    let mut pass = PassTotals::default();
    if !run.traced {
        let registry = MethodRegistry::standard();
        let mut lanes = Vec::new();
        for (&m, &cycle) in methods.iter().zip(&served) {
            let bootstrap = setup.program(m).client_bootstrap();
            lanes.push(Lane {
                name: m.name(),
                cycle,
                client: registry
                    .remote_client(m, &bootstrap, QueuePolicy::default())
                    .map_err(|e| e.to_string())?,
            });
        }
        let mut sched = Schedule {
            lanes,
            pool: &reference,
            seed: REFERENCE_SEED,
        };
        let len = sched.pass_len();
        let ph = sched
            .phase(setup.g(), &mut 0, len, len, Some(&mut pass), &mut off)
            .map_err(|e| e.to_string())?;
        outcome.absorb(&ph);
    }
    let sh = Shared {
        addr: daemon.local_addr(),
        g: setup.g(),
        methods: &methods,
        served,
        pool: &pool,
        seed: run.seed,
        next: AtomicU64::new(0),
    };

    // Warm-up: two rounds, one on each transport, for every method.
    let warm = phase(&sh, 2 * methods.len() as u64, &mut off)?;
    let sessions = run.blocks(spec.block_s) * (methods.len() * pool.len()) as u64;
    let timed = phase(&sh, sessions, &mut off)?;
    let mut spans = Tracer::new(true, run.epoch);
    let traced = if run.traced {
        Some(phase(&sh, sessions, &mut spans)?)
    } else {
        None
    };
    let mut foreign = 0;
    for p in [Some(&warm), Some(&timed), traced.as_ref()]
        .into_iter()
        .flatten()
    {
        outcome.absorb(&p.phase);
        foreign += p.foreign;
    }
    outcome.tolerated = foreign.min(FOREIGN_SLOT_ALLOWANCE);
    report.put("serve.foreign_slot_sessions", foreign as f64, "count");
    let summary = daemon.shutdown().map_err(|e| e.to_string())?;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    report_serve(report, &timed);
    report.put(
        "serve.backpressure_drops",
        summary.backpressure_drops as f64,
        "count",
    );
    report.put("serve.rejections", summary.rejections as f64, "count");
    report.put("serve.evictions", summary.evictions as f64, "count");
    match traced {
        Some(t) => {
            report_client_layers(report, &timed.phase, &t.phase).map_err(|e| e.to_string())?;
            outcome.wrong += replay::run(run, setup.programs.world(), &pool, &mut spans, report)?;
            crate::write_spans(run, setup_spans, spans)?;
        }
        None => {
            report_end_to_end(report, &setup_s, &timed.phase, &pass).map_err(|e| e.to_string())?;
        }
    }
    Ok(outcome)
}

/// The serving edge's own counters over one phase.
fn report_serve(report: &mut Report, run: &PhaseRun) {
    let ok: Vec<&Record> = run.records.iter().filter(|r| r.answer.is_ok()).collect();
    let of = |tr: Transport| -> Vec<&Record> {
        ok.iter().copied().filter(|r| r.transport == tr).collect()
    };
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let admission = sorted(
        ok.iter()
            .map(|r| r.metrics.admission_us as f64 / 1e3)
            .collect(),
    );
    if !admission.is_empty() {
        report.put("serve.admission_ms_p50", percentile(&admission, 50.0), "ms");
        report.put("serve.admission_ms_p90", percentile(&admission, 90.0), "ms");
    }
    for tr in [Transport::Tcp, Transport::Udp] {
        let rs = of(tr);
        let fetch = sorted(rs.iter().map(|r| r.fetch_ms).collect());
        if fetch.is_empty() {
            continue;
        }
        let name = tr.name();
        report.put(
            format!("serve.fetch_ms_p50.{name}"),
            percentile(&fetch, 50.0),
            "ms",
        );
        report.put(
            format!("serve.fetch_ms_p90.{name}"),
            percentile(&fetch, 90.0),
            "ms",
        );
        let frames: Vec<f64> = rs.iter().map(|r| r.metrics.frames_rx as f64).collect();
        report.put(
            format!("serve.frames_per_session.{name}"),
            mean(&frames),
            "count",
        );
        let useful: f64 = rs.iter().map(|r| r.metrics.cycle_len as f64).sum();
        report.put(
            format!("serve.useful_frame_ratio.{name}"),
            useful / frames.iter().sum::<f64>().max(1.0),
            "share",
        );
        let drops: Vec<f64> = rs.iter().map(|r| r.metrics.observed_drops as f64).collect();
        report.put(
            format!("serve.observed_drops_per_session.{name}"),
            mean(&drops),
            "count",
        );
        let laps: Vec<f64> = rs.iter().map(|r| f64::from(r.metrics.laps)).collect();
        report.put(format!("serve.laps_mean.{name}"), mean(&laps), "count");
    }
    let query: Vec<f64> = ok.iter().map(|r| r.query_ms).collect();
    if !query.is_empty() {
        report.put("serve.client_query_ms_p50", median(&query), "ms");
    }
    let sessions = run.records.len().max(1) as f64;
    report.put(
        "serve.daemon_cpu_ms_per_session",
        (run.phase.cpu_ms - run.client_cpu_ms).max(0.0) / sessions,
        "ms",
    );
    report.put(
        "serve.client_cpu_ms_per_session",
        run.client_cpu_ms / sessions,
        "ms",
    );
}
