//! Socket-transport load harness: the `--transport socket` path behind
//! `BENCH_serve.json`.
//!
//! Where the in-process harness iterates a [`spair_broadcast`] channel
//! object, this module drives the real serving stack end to end: a
//! [`spair_serve::ServeDaemon`] on a loopback port, client sessions over
//! real UDP datagrams and TCP streams from worker threads, and per-cell
//! digests that must equal the in-process answers byte for byte. Each
//! session builds its client from the daemon's `Admit` bootstrap alone,
//! as a client on another host would. The schedule (offsets, queries) is
//! a pure function of the scenario seed and the session index, so the
//! digest is invariant across worker counts — that invariance is what
//! the CI serve gate pins.
//!
//! Cells come in three kinds:
//!
//! * `lossless` — method × transport × population, digest-gated against
//!   the in-process run;
//! * `contention-drops` — a dedicated daemon injects deterministic
//!   frame drops ([`spair_serve::DropPlan`]); sessions finish late
//!   (healing laps) but every answer still matches in-process;
//! * `contention-evict` — deliberately stalled consumers against a
//!   short-stall daemon; the cell counts typed evictions. Contention
//!   cells never enter the digest (their counters are load-dependent),
//!   but their `wrong_answers` column must be zero: late or typed,
//!   never wrong.

use crate::hist::StreamingHistogram;
use spair_broadcast::splitmix64;
use spair_core::query::Query;
use spair_core::{BorderPrecomputation, RecoveryBudget};
use spair_methods::{MethodRegistry, ProgramSet, World};
use spair_partition::KdTreePartition;
use spair_roadnet::certify::{cells_json, counts_json, Fnv1a};
use spair_roadnet::generators::small_grid;
use spair_roadnet::{dijkstra_distance, NodeId};
use spair_serve::client::{run_query, SessionConfig, SessionFailure, Transport};
use spair_serve::daemon::{DropPlan, ServeDaemon, ServeOptions, ServeSummary, ServeWorld};
use spair_serve::frame::{encode_stream, Frame, Hello};
use spair_sim::{drive, Device, Tune, Verdict, WorkItem};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Socket-bench configuration.
#[derive(Debug, Clone)]
pub struct SocketBenchConfig {
    /// Smoke matrix (smaller world and population).
    pub smoke: bool,
    /// Client worker threads.
    pub threads: usize,
    /// Sessions per lossless cell (`None` → matrix default).
    pub population: Option<usize>,
    /// Directory for the daemons' event logs and dead-letter files.
    pub events_dir: PathBuf,
}

/// The served world every socket cell shares.
#[derive(Debug, Clone)]
pub struct SocketScenario {
    /// Grid width and height.
    pub grid: (usize, usize),
    /// Kd partition regions.
    pub regions: usize,
    /// World and schedule seed.
    pub seed: u64,
    /// Served registry methods.
    pub methods: Vec<&'static str>,
    /// Sessions per lossless cell.
    pub population: usize,
    /// Distinct queries the population draws from.
    pub query_pool: usize,
}

/// The full and smoke socket scenarios. Both serve NR (region data),
/// DJ (raw adjacency) and — full only — EB and HiTi, so flat-data and
/// index-carrying cycles both cross the wire.
pub fn socket_scenario(smoke: bool) -> SocketScenario {
    if smoke {
        SocketScenario {
            grid: (8, 8),
            regions: 8,
            seed: 9301,
            methods: vec!["nr", "dj"],
            population: 24,
            query_pool: 8,
        }
    } else {
        SocketScenario {
            grid: (12, 12),
            regions: 16,
            seed: 9301,
            methods: vec!["nr", "eb", "dj", "hiti_air"],
            population: 128,
            query_pool: 12,
        }
    }
}

/// One session to run.
#[derive(Debug, Clone)]
pub struct SessionJob {
    /// Global session index within its cell (digest order).
    pub index: usize,
    /// Registry method name.
    pub method: String,
    /// Data transport.
    pub transport: Transport,
    /// Absolute tune-in offset.
    pub offset: u64,
    /// The query this session answers.
    pub query: Query,
}

/// A completed session.
#[derive(Debug, Clone)]
pub struct SessionAnswer {
    /// Job index (cells collate by this).
    pub index: usize,
    /// Shortest-path distance.
    pub distance: u64,
    /// Path node sequence.
    pub path: Vec<NodeId>,
    /// Microseconds from connect to admission.
    pub admission_us: u64,
    /// Receiver-observed slot gaps.
    pub observed_drops: u64,
    /// Laps listened until the cycle table filled.
    pub laps: u32,
}

/// The deterministic per-cell schedule: offsets and queries are pure
/// functions of (scenario seed, method name, session index) — the same
/// for every transport and worker count.
pub fn schedule(
    sc: &SocketScenario,
    g: &spair_roadnet::RoadNetwork,
    method: &str,
    transport: Transport,
    population: usize,
) -> Vec<SessionJob> {
    let n = g.num_nodes() as u64;
    let mseed = method
        .bytes()
        .fold(sc.seed, |h, b| splitmix64(h ^ u64::from(b)));
    let pool: Vec<Query> = (0..sc.query_pool)
        .map(|i| {
            let h = splitmix64(mseed ^ 0x5155_4552_5950_4f4f ^ i as u64);
            let src = (h % n) as NodeId;
            let mut dst = (splitmix64(h) % n) as NodeId;
            if dst == src {
                dst = (dst + 1) % n as NodeId;
            }
            Query::for_nodes(g, src, dst)
        })
        .collect();
    (0..population)
        .map(|s| SessionJob {
            index: s,
            method: method.to_string(),
            transport,
            offset: splitmix64(mseed ^ 0x4f46_4653_4554 ^ s as u64) % 100_000,
            query: pool[s % pool.len()],
        })
        .collect()
}

/// FNV-1a over a cell's answers in session-index order — the quantity
/// the transports must agree on.
pub fn answers_digest(answers: &[SessionAnswer]) -> u64 {
    let mut sorted: Vec<&SessionAnswer> = answers.iter().collect();
    sorted.sort_by_key(|a| a.index);
    let mut h = Fnv1a::default();
    for a in &sorted {
        h.write_u64(a.index as u64)
            .write_u64(a.distance)
            .write_u64(a.path.len() as u64);
        for &n in &a.path {
            h.write_u64(u64::from(n));
        }
    }
    h.finish()
}

/// In-process reference answers for a schedule: the same method client
/// over the same cycle at the same offsets, via the in-memory channel,
/// each answer checked against the Dijkstra oracle.
pub fn in_process_answers(programs: &ProgramSet, jobs: &[SessionJob]) -> Vec<SessionAnswer> {
    let registry = MethodRegistry::standard();
    let g = &programs.world().g;
    jobs.iter()
        .map(|job| {
            let id = registry.get(&job.method).expect("scheduled method");
            let program = programs.ensure(id);
            let mut device = Device::new(program).expect("air client");
            let (s, t) = (job.query.source, job.query.target);
            let oracle = dijkstra_distance(g, s, t).expect("scheduled queries are reachable");
            let item = WorkItem::P2p {
                query: job.query,
                oracle,
            };
            let (tune, single) = (Tune::at(job.offset as usize), RecoveryBudget::single());
            let d = drive(program, &mut device, g, &item, &tune, single, |_| 0);
            assert_eq!(
                d.verdict,
                Verdict::Exact,
                "in-process {} session {} contradicts the oracle",
                job.method,
                job.index
            );
            SessionAnswer {
                index: job.index,
                distance: oracle,
                path: d.nodes,
                admission_us: 0,
                observed_drops: 0,
                laps: 1,
            }
        })
        .collect()
}

/// Builds the shared program set for a scenario.
pub fn build_programs(sc: &SocketScenario) -> ProgramSet {
    let g = small_grid(sc.grid.0, sc.grid.1, sc.seed);
    let part = KdTreePartition::build(&g, sc.regions);
    let pre = BorderPrecomputation::run(&g, &part);
    ProgramSet::new(World::from_parts(g, part, pre))
}

/// A session that produced no answer: its job index and typed cause.
pub type JobFailure = (usize, SessionFailure);

fn run_one(addr: SocketAddr, job: &SessionJob) -> Result<SessionAnswer, JobFailure> {
    let config = SessionConfig {
        offset: job.offset,
        max_wait: Duration::from_secs(60),
        ..SessionConfig::new(addr, &job.method, job.transport)
    };
    let (outcome, m) = run_query(&config, &job.query).map_err(|e| (job.index, e))?;
    Ok(SessionAnswer {
        index: job.index,
        distance: outcome.distance,
        path: outcome.path,
        admission_us: m.admission_us,
        observed_drops: m.observed_drops,
        laps: m.laps,
    })
}

/// Runs one cell's jobs against a daemon on `threads` worker threads.
/// Returns answers (index order not guaranteed) and failures.
pub fn run_jobs(
    addr: SocketAddr,
    jobs: &[SessionJob],
    threads: usize,
) -> (Vec<SessionAnswer>, Vec<JobFailure>) {
    let queue: Arc<Mutex<VecDeque<SessionJob>>> =
        Arc::new(Mutex::new(jobs.iter().cloned().collect()));
    let out: Arc<Mutex<(Vec<SessionAnswer>, Vec<JobFailure>)>> =
        Arc::new(Mutex::new((Vec::new(), Vec::new())));
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            let queue = Arc::clone(&queue);
            let out = Arc::clone(&out);
            scope.spawn(move || loop {
                let job = { queue.lock().unwrap().pop_front() };
                let Some(job) = job else { break };
                let res = run_one(addr, &job);
                let mut o = out.lock().unwrap();
                match res {
                    Ok(a) => o.0.push(a),
                    Err(e) => o.1.push(e),
                }
            });
        }
    });
    Arc::try_unwrap(out)
        .expect("workers joined")
        .into_inner()
        .unwrap()
}

/// One socket bench cell's results.
#[derive(Debug)]
pub struct SocketCellReport {
    /// Registry method name.
    pub method: String,
    /// Transport column.
    pub transport: &'static str,
    /// `lossless`, `contention-drops` or `contention-evict`.
    pub kind: &'static str,
    /// Sessions attempted.
    pub population: usize,
    /// Sessions that produced an answer.
    pub completed: usize,
    /// FNV digest of the answers (0 for the evict cell).
    pub answers_digest: u64,
    /// FNV digest of the in-process reference.
    pub expected_digest: u64,
    /// Whether the two digests agree (always true for committed runs).
    pub digest_match: bool,
    /// Sessions whose answer differed from in-process (must be 0).
    pub wrong_answers: usize,
    /// Typed session failures (empty for lossless cells).
    pub failures: Vec<JobFailure>,
    /// Receiver-observed slot gaps. summed.
    pub observed_drops: u64,
    /// Daemon-side injected drops (contention-drops cell).
    pub drops_injected: u64,
    /// Daemon-side send-buffer drops.
    pub backpressure_drops: u64,
    /// Slow consumers evicted (contention-evict cell).
    pub evictions: u64,
    /// Admission-latency histogram (µs).
    pub admission_us: StreamingHistogram,
    /// Wall-clock seconds for the cell (excluded from digests).
    pub wall_secs: f64,
}

impl SocketCellReport {
    /// Failures per [`SessionFailure::label`], sorted by label.
    pub fn failure_classes(&self) -> Vec<(&'static str, usize)> {
        let mut classes = BTreeMap::new();
        for (_, f) in &self.failures {
            *classes.entry(f.label()).or_insert(0) += 1;
        }
        classes.into_iter().collect()
    }

    fn admission_json(&self) -> String {
        let h = &self.admission_us;
        format!(
            "{{ \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {} }}",
            h.percentile(0.50),
            h.percentile(0.95),
            h.percentile(0.99),
            h.max()
        )
    }
}

/// The full socket bench report behind `BENCH_serve.json`.
#[derive(Debug)]
pub struct SocketReport {
    /// The scenario every cell shares.
    pub scenario: SocketScenario,
    /// Worker threads used.
    pub threads: usize,
    /// Per-cell results.
    pub cells: Vec<SocketCellReport>,
    /// Daemon counters after shutdown, summed over the lossless and both
    /// contention cells' daemons.
    pub daemon: ServeSummary,
}

impl SocketReport {
    /// Every lossless cell digest matches in-process and no cell —
    /// contention included — produced a wrong answer.
    pub fn all_match(&self) -> bool {
        self.cells
            .iter()
            .all(|c| c.digest_match && c.wrong_answers == 0)
    }

    /// FNV-1a over the deterministic columns only: cell identity,
    /// population, answer digests and digest verdicts. Timing,
    /// failures, contention counters and daemon totals are excluded, so
    /// the digest is invariant across worker counts.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::default();
        for c in self.cells.iter().filter(|c| c.kind == "lossless") {
            h.write(c.method.as_bytes())
                .write(c.transport.as_bytes())
                .write_u64(c.population as u64)
                .write_u64(c.answers_digest)
                .write_u64(c.expected_digest)
                .write(&[u8::from(c.digest_match)])
                .write_u64(c.wrong_answers as u64);
        }
        h.finish()
    }

    /// Renders the cells array (pretty, two-space indented under the
    /// top-level document).
    pub fn cells_json(&self) -> String {
        cells_json(&self.cells, |c| {
            format!(
                "\"method\": \"{}\", \"transport\": \"{}\", \"kind\": \"{}\", \
                 \"population\": {}, \"completed\": {}, \
                 \"answers_digest\": \"{:016x}\", \"expected_digest\": \"{:016x}\", \
                 \"digest_match\": {}, \"wrong_answers\": {}, \"failures\": {}, \
                 \"failure_classes\": {}, \"observed_drops\": {}, \"drops_injected\": {}, \
                 \"backpressure_drops\": {}, \"evictions\": {}, \
                 \"admission_us\": {}, \"wall_secs\": {:.6}",
                c.method,
                c.transport,
                c.kind,
                c.population,
                c.completed,
                c.answers_digest,
                c.expected_digest,
                c.digest_match,
                c.wrong_answers,
                c.failures.len(),
                counts_json(&c.failure_classes()),
                c.observed_drops,
                c.drops_injected,
                c.backpressure_drops,
                c.evictions,
                c.admission_json(),
                c.wall_secs,
            )
        })
    }

    /// One human-readable line per cell (stderr progress table).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for c in &self.cells {
            out.push_str(&format!(
                "  {:<10} {:<4} {:<17} n={:<5} match={} wrong={} drops(inj/bp/obs)={}/{}/{} evict={} adm_p95={}us {:.2}s\n",
                c.method,
                c.transport,
                c.kind,
                c.completed,
                c.digest_match,
                c.wrong_answers,
                c.drops_injected,
                c.backpressure_drops,
                c.observed_drops,
                c.evictions,
                c.admission_us.percentile(0.95),
                c.wall_secs,
            ));
        }
        out
    }
}

fn admission_hist() -> StreamingHistogram {
    // Bound 100ms in µs; loopback admissions sit far below.
    StreamingHistogram::with_bound(100_000, 200)
}

fn collate_cell(
    method: &str,
    transport: &'static str,
    kind: &'static str,
    jobs: &[SessionJob],
    (answers, failures): (Vec<SessionAnswer>, Vec<JobFailure>),
    expected: &[SessionAnswer],
    wall_secs: f64,
) -> SocketCellReport {
    for (index, failure) in &failures {
        eprintln!("  cell {method}/{transport}/{kind} session {index} failed: {failure}");
    }
    let mut admission = admission_hist();
    let mut observed_drops = 0u64;
    for a in &answers {
        admission.record(a.admission_us);
        observed_drops += a.observed_drops;
    }
    let mut wrong = 0usize;
    for a in &answers {
        let e = &expected[a.index];
        debug_assert_eq!(e.index, a.index);
        if a.distance != e.distance || a.path != e.path {
            wrong += 1;
        }
    }
    let digest = answers_digest(&answers);
    let expected_digest = answers_digest(expected);
    SocketCellReport {
        method: method.to_string(),
        transport,
        kind,
        population: jobs.len(),
        completed: answers.len(),
        answers_digest: digest,
        expected_digest,
        digest_match: digest == expected_digest && answers.len() == jobs.len(),
        wrong_answers: wrong,
        failures,
        observed_drops,
        drops_injected: 0,
        backpressure_drops: 0,
        evictions: 0,
        admission_us: admission,
        wall_secs,
    }
}

/// Runs the socket bench end to end and returns the report.
pub fn run_socket_bench(config: &SocketBenchConfig) -> SocketReport {
    let sc = socket_scenario(config.smoke);
    let population = config.population.unwrap_or(sc.population);
    std::fs::create_dir_all(&config.events_dir).expect("events dir");
    let programs = build_programs(&sc);
    let g = programs.world().g.clone();
    let registry = MethodRegistry::standard();
    let ids: Vec<_> = sc
        .methods
        .iter()
        .map(|n| registry.get(n).expect("scenario method"))
        .collect();

    // --- Lossless cells: one daemon serves every method's channel. ---
    let world = ServeWorld::from_program_set(&programs, &ids);
    let opts = ServeOptions {
        events_path: config.events_dir.join("serve.events.jsonl"),
        dead_letter_path: config.events_dir.join("serve.deadletter.jsonl"),
        ..ServeOptions::in_dir(&config.events_dir)
    };
    let daemon = ServeDaemon::start(world, opts).expect("start lossless daemon");
    let addr = daemon.local_addr();

    let mut cells = Vec::new();
    for method in &sc.methods {
        // The schedule is transport-independent, so the UDP and TCP
        // digests must agree with each other *and* with in-process.
        let expected = {
            let jobs = schedule(&sc, &g, method, Transport::Udp, population);
            in_process_answers(&programs, &jobs)
        };
        for transport in [Transport::Udp, Transport::Tcp] {
            let jobs = schedule(&sc, &g, method, transport, population);
            let start = Instant::now();
            let (answers, failures) = run_jobs(addr, &jobs, config.threads);
            let wall = start.elapsed().as_secs_f64();
            eprintln!(
                "  cell {method}/{} served {}/{} sessions in {wall:.2}s",
                transport.name(),
                answers.len(),
                jobs.len()
            );
            cells.push(collate_cell(
                method,
                transport.name(),
                "lossless",
                &jobs,
                (answers, failures),
                &expected,
                wall,
            ));
        }
    }
    let daemon_summary = daemon.shutdown().expect("lossless daemon shutdown");

    // --- Contention cell 1: deterministic injected frame drops. ---
    let drop_method = sc.methods[0];
    let drop_population = population.min(16);
    let world = ServeWorld::from_program_set(&programs, &ids[..1]);
    let opts = ServeOptions {
        drop_plan: Some(DropPlan {
            permille: 200,
            laps: 2,
        }),
        events_path: config.events_dir.join("serve.drops.events.jsonl"),
        dead_letter_path: config.events_dir.join("serve.drops.deadletter.jsonl"),
        ..ServeOptions::in_dir(&config.events_dir)
    };
    let drop_daemon = ServeDaemon::start(world, opts).expect("start drop daemon");
    let drop_addr = drop_daemon.local_addr();
    let jobs = schedule(&sc, &g, drop_method, Transport::Udp, drop_population);
    let expected = in_process_answers(&programs, &jobs);
    let start = Instant::now();
    let (answers, failures) = run_jobs(drop_addr, &jobs, config.threads);
    let wall = start.elapsed().as_secs_f64();
    let drop_summary = drop_daemon.shutdown().expect("drop daemon shutdown");
    let mut cell = collate_cell(
        drop_method,
        "udp",
        "contention-drops",
        &jobs,
        (answers, failures),
        &expected,
        wall,
    );
    cell.drops_injected = drop_summary.injected_drops;
    cell.backpressure_drops = drop_summary.backpressure_drops;
    cells.push(cell);

    // --- Contention cell 2: stalled consumers get evicted. ---
    let world = ServeWorld::from_program_set(&programs, &ids[..1]);
    let opts = ServeOptions {
        stall: Duration::from_millis(100),
        max_laps: 1_000_000,
        events_path: config.events_dir.join("serve.evict.events.jsonl"),
        dead_letter_path: config.events_dir.join("serve.evict.deadletter.jsonl"),
        ..ServeOptions::in_dir(&config.events_dir)
    };
    let evict_daemon = ServeDaemon::start(world, opts).expect("start evict daemon");
    let evict_addr = evict_daemon.local_addr();
    let start = Instant::now();
    let stalled = 4usize;
    let mut stalled_conns = Vec::new();
    for _ in 0..stalled {
        // Handshake, then never read: the daemon must evict us.
        let mut s = TcpStream::connect(evict_addr).expect("connect evict daemon");
        s.write_all(&encode_stream(&Frame::Hello(Hello {
            method: sc.methods[0].to_string(),
            transport: 0,
            udp_port: 0,
            offset: 0,
        })))
        .expect("hello");
        stalled_conns.push(s);
    }
    let events_path = config.events_dir.join("serve.evict.events.jsonl");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let text = std::fs::read_to_string(&events_path).unwrap_or_default();
        if text.matches("client_evicted").count() >= stalled {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "evict daemon never evicted its stalled consumers"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(stalled_conns);
    let evict_summary = evict_daemon.shutdown().expect("evict daemon shutdown");
    let mut daemon = daemon_summary;
    daemon.add(&drop_summary);
    daemon.add(&evict_summary);
    let wall = start.elapsed().as_secs_f64();
    cells.push(SocketCellReport {
        method: sc.methods[0].to_string(),
        transport: "tcp",
        kind: "contention-evict",
        population: stalled,
        completed: 0,
        answers_digest: 0,
        expected_digest: 0,
        digest_match: true, // no answers to disagree
        wrong_answers: 0,
        failures: Vec::new(),
        observed_drops: 0,
        drops_injected: 0,
        backpressure_drops: 0,
        evictions: evict_summary.evictions,
        admission_us: admission_hist(),
        wall_secs: wall,
    });

    SocketReport {
        scenario: sc,
        threads: config.threads,
        cells,
        daemon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_transport_invariant() {
        let sc = socket_scenario(true);
        let programs = build_programs(&sc);
        let g = programs.world().g.clone();
        let a = schedule(&sc, &g, "nr", Transport::Udp, 16);
        let b = schedule(&sc, &g, "nr", Transport::Tcp, 16);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.offset, y.offset, "offsets must not depend on transport");
            assert_eq!(x.query, y.query);
        }
        // Different methods draw different offsets (independent seeds).
        let c = schedule(&sc, &g, "dj", Transport::Udp, 16);
        assert!(a.iter().zip(&c).any(|(x, y)| x.offset != y.offset));
    }

    #[test]
    fn answers_digest_is_order_invariant_but_content_sensitive() {
        let mk = |d: u64| SessionAnswer {
            index: (d % 3) as usize,
            distance: d,
            path: vec![d as NodeId],
            admission_us: 1,
            observed_drops: 0,
            laps: 1,
        };
        let fwd = vec![mk(10), mk(11), mk(12)];
        let rev: Vec<SessionAnswer> = fwd.iter().rev().cloned().collect();
        assert_eq!(answers_digest(&fwd), answers_digest(&rev));
        assert_eq!(
            answers_digest(&fwd),
            0xaca5_ad82_8c5a_ebe7,
            "answer fold moved"
        );
        let mut changed = fwd.clone();
        changed[1].distance += 1;
        assert_ne!(answers_digest(&fwd), answers_digest(&changed));
    }

    #[test]
    fn cells_name_their_failures_outside_the_digest() {
        let report = |failures: Vec<JobFailure>| SocketReport {
            scenario: socket_scenario(true),
            threads: 1,
            cells: vec![SocketCellReport {
                method: "nr".to_string(),
                transport: "udp",
                kind: "lossless",
                population: 4,
                completed: 4 - failures.len(),
                answers_digest: 7,
                expected_digest: 7,
                digest_match: true,
                wrong_answers: 0,
                failures,
                observed_drops: 0,
                drops_injected: 0,
                backpressure_drops: 0,
                evictions: 0,
                admission_us: admission_hist(),
                wall_secs: 0.0,
            }],
            daemon: ServeSummary::default(),
        };
        let failed = report(vec![
            (3, SessionFailure::Timeout),
            (1, SessionFailure::Expired),
        ]);
        let json = failed.cells_json();
        assert!(
            json.contains("\"failures\": 2, \"failure_classes\": {\"expired\": 1, \"timeout\": 1}"),
            "{json}"
        );
        let clean = report(Vec::new());
        assert!(clean.cells_json().contains("\"failure_classes\": {}"));
        assert_eq!(failed.digest(), clean.digest());
    }
}
