//! Experiment runner: one subcommand per table/figure of the paper.
//!
//! ```text
//! cargo run --release -p spair-bench --bin experiments -- <cmd> [flags]
//!
//! cmd:   table1 | table2 | table3 | fig10 | fig11 | fig12 | fig13 | fig14
//!        | ablations | all
//! flags: --full          paper-scale networks (default: 20% scale)
//!        --scale <f>     explicit scale factor in (0, 1]
//!        --queries <n>   queries per experiment (default: paper's 400,
//!                        reduced for the multi-network experiments)
//!        --seed <s>      workload seed (default 42)
//!        --methods <a,b> per-query chart set by registry name (default:
//!                        the paper's nr,eb,dj,ld,af) — any registered
//!                        air method joins the charts with no code edits
//!        --list-methods  print the registry's air methods and exit
//! ```
//!
//! Every experiment follows the paper's §7 protocol: a road network (one
//! of the five presets, scaled by `--scale` to keep single-core runtimes
//! sane; `--full` restores paper scale), fine-tuned partitionings (AF 16,
//! EB and NR 32 regions; LD 4 landmarks on the default network), and N
//! shortest-path queries between uniformly random node pairs, each posed
//! at a uniformly random tune-in instant.
//!
//! Programs come from the method registry's [`ProgramSet`], and every
//! session runs through [`spair_sim::drive()`] in one unsupervised attempt
//! and is checked against a Dijkstra oracle: the distance and a valid
//! path for point-to-point queries, the distance list for kNN. Each
//! experiment prints one tally line (exact / wrong / failed by class);
//! any wrong or failed session makes the run exit 1.
//!
//! Numbers are expected to reproduce the paper's *shape* (who wins, by
//! roughly what factor, where crossovers fall), not its absolute values:
//! the networks are synthetic with the paper's sizes, and the host is not
//! a 2010 J2ME handset.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spair_broadcast::{ChannelRate, DeviceProfile, EnergyModel};
use spair_core::memory_bound::MemoryBoundProcessor;
use spair_core::netcodec::{encode_nodes_with_borders, packet_count, ReceivedGraph};
use spair_core::{BorderPrecomputation, EbProgram, Query, RecoveryBudget};
use spair_methods::eb::EbMethodProgram;
use spair_methods::{MethodId as Method, MethodRegistry, ProgramSet, Tuning, World};
use spair_partition::{KdTreePartition, Partitioning};
use spair_roadnet::certify::{Cli, UsageError};
use spair_roadnet::{dijkstra_full, Distance, NetworkPreset, NodeId, RoadNetwork};
use spair_sim::{
    drive, knn_item, p2p_item, Device, Driven, FaultSource, LossSpec, Tally, Tune, TuneInSpec,
    Verdict, WorkItem,
};

/// Default scale factor for experiment networks (the evaluation host is a
/// single core; `--full` restores 1.0).
const DEFAULT_SCALE: f64 = 0.2;
/// EB's (and NR's) fine-tuned region count (§7).
const EB_REGIONS: usize = 32;
/// ArcFlag's fine-tuned region count.
const AF_REGIONS: usize = 16;
/// Landmark's fine-tuned anchor count.
const LD_LANDMARKS: usize = 4;
/// Queries per experiment in the paper.
const PAPER_QUERIES: usize = 400;

/// The methods of the paper's per-query experiments, in chart order.
const PER_QUERY_METHODS: [Method; 5] = [Method::NR, Method::EB, Method::DJ, Method::LD, Method::AF];

struct Opts {
    cmd: String,
    scale: f64,
    queries: usize,
    seed: u64,
    /// The per-query chart set (Figures 10–12, 14). Defaults to the
    /// paper's five; `--methods` swaps in any registered air methods —
    /// e.g. `--methods nr,eb,dj,astar_air,bidi_air` — with no code
    /// edits.
    methods: Vec<Method>,
}

/// One table or figure of the paper; its sessions' verdicts fold into
/// the tally.
type Experiment = fn(&Opts, &mut Tally);

/// The experiment subcommands, in `all` order.
const EXPERIMENTS: [(&str, Experiment); 9] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("ablations", ablations),
];

fn parse_opts(cli: &mut Cli) -> Result<Opts, UsageError> {
    let mut opts = Opts {
        cmd: String::from("all"),
        scale: DEFAULT_SCALE,
        queries: 0, // 0 = per-experiment default
        seed: 42,
        methods: PER_QUERY_METHODS.to_vec(),
    };
    while let Some(a) = cli.next_arg() {
        match a.as_str() {
            "--full" => opts.scale = 1.0,
            "--scale" => {
                opts.scale = cli.parse(&a)?;
                if !opts.scale.is_finite() || opts.scale <= 0.0 {
                    return Err(UsageError("--scale must be > 0".into()));
                }
            }
            "--queries" => opts.queries = cli.parse(&a)?,
            "--seed" => opts.seed = cli.parse(&a)?,
            "--methods" => {
                let air = MethodRegistry::standard().air_methods();
                opts.methods = MethodRegistry::parse_list(&cli.value(&a)?, &air)?;
            }
            "--list-methods" => {
                println!("registered air methods (usable with --methods):");
                for m in MethodRegistry::standard().air_methods() {
                    println!("  {:<14} chart label: {}", m.name(), m.label());
                }
                std::process::exit(0);
            }
            c if c == "all" || EXPERIMENTS.iter().any(|(name, _)| *name == c) => opts.cmd = a,
            c if !c.starts_with('-') => {
                return Err(UsageError(format!("unknown experiment '{c}'")))
            }
            other => return Err(UsageError(format!("unknown flag {other}"))),
        }
    }
    Ok(opts)
}

fn main() {
    let mut cli = Cli::from_env(
        "experiments",
        "<table1|table2|table3|fig10|fig11|fig12|fig13|fig14|ablations|all> [--full] \
         [--scale F] [--queries N] [--seed S] [--methods a,b] [--list-methods]",
    );
    let opts = parse_opts(&mut cli).unwrap_or_else(|e| cli.fail(e));
    eprintln!(
        "# spair experiments — scale {:.2}{}, seed {}",
        opts.scale,
        if opts.scale >= 1.0 {
            " (paper scale)"
        } else {
            ""
        },
        opts.seed
    );
    let mut clean = true;
    for (name, run) in EXPERIMENTS {
        if opts.cmd == "all" || opts.cmd == name {
            let mut tally = Tally::default();
            run(&opts, &mut tally);
            println!("tally {name}: {}", summary(&tally));
            clean &= tally.exact == tally.items;
        }
    }
    if !clean {
        eprintln!("experiments: some sessions were wrong or failed");
        std::process::exit(1);
    }
}

/// An experiment's tally line: exact, wrong and failed sessions, and
/// the failures by class.
fn summary(t: &Tally) -> String {
    let mut line = format!(
        "{} exact / {} wrong / {} failed",
        t.exact,
        t.wrong,
        t.typed()
    );
    if !t.classes.is_empty() {
        line.push_str(&format!(" {:?}", t.classes));
    }
    line
}

/// The fold of a run's sessions.
fn fold(results: &[Driven]) -> Tally {
    let mut t = Tally::default();
    for d in results {
        t.fold(d);
    }
    t
}

/// Mean tuning time in packets over the answered sessions.
fn tuning(t: &Tally) -> f64 {
    t.stats.tuning_packets as f64 / t.answered.max(1) as f64
}

/// Mean access latency in packets over the answered sessions.
fn latency(t: &Tally) -> f64 {
    t.stats.latency_packets as f64 / t.answered.max(1) as f64
}

/// Mean client CPU per answered session in milliseconds.
fn cpu_ms(t: &Tally) -> f64 {
    t.stats.cpu.as_secs_f64() * 1000.0 / t.answered.max(1) as f64
}

/// Peak client memory over all sessions, in MB.
fn peak_mb(t: &Tally) -> f64 {
    t.stats.peak_memory_bytes as f64 / (1024.0 * 1024.0)
}

/// A world's registry programs, with AF's region count and LD's landmark
/// count fine-tuned as in §7.
fn programs(world: World, af_regions: usize, landmarks: usize) -> ProgramSet {
    ProgramSet::new(world.with_tuning(Tuning {
        af_regions: Some(af_regions),
        ld_landmarks: landmarks,
        ..Tuning::default()
    }))
}

/// `n` point-to-point items with their oracle distances.
fn p2p_items(g: &RoadNetwork, n: usize, seed: u64) -> Vec<WorkItem> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| p2p_item(g, &mut rng)).collect()
}

/// The query and oracle distance of a point-to-point item.
fn p2p(item: &WorkItem) -> (&Query, Distance) {
    match item {
        WorkItem::P2p { query, oracle } => (query, *oracle),
        _ => unreachable!("experiments draw point-to-point items"),
    }
}

/// A fault-free session under `loss` at a uniform tune-in instant.
fn uniform(loss: LossSpec) -> Tune {
    Tune {
        tune_in: TuneInSpec::Uniform,
        loss,
        faults: FaultSource::None,
    }
}

/// A lossless [`uniform`] session, whatever the item.
fn lossless(_: usize) -> Tune {
    uniform(LossSpec::Lossless)
}

/// Drives `items` through one method's program on one device, each in a
/// single unsupervised attempt: item `i` tunes in by `tune(i)` and draws
/// its session streams from `seed + i`. Folds every verdict into `tally`.
fn run(
    programs: &ProgramSet,
    m: Method,
    items: &[WorkItem],
    tune: impl Fn(usize) -> Tune,
    seed: u64,
    tally: &mut Tally,
) -> Vec<Driven> {
    let program = programs.ensure(m);
    let mut device = Device::new(program).ok();
    let g = &programs.world().g;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let d = match device.as_mut() {
                Some(dev) => drive(
                    program,
                    dev,
                    g,
                    item,
                    &tune(i),
                    RecoveryBudget::single(),
                    |_| seed.wrapping_add(i as u64),
                ),
                None => Driven::default(),
            };
            tally.fold(&d);
            d
        })
        .collect()
}

/// Cycle length of a method that broadcasts its own cycle.
fn cycle_len(programs: &ProgramSet, m: Method) -> usize {
    programs
        .ensure(m)
        .cycle()
        .map(|c| c.len())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The concrete EB program (replication / index-packet ablations).
fn eb(programs: &ProgramSet) -> &EbProgram {
    programs
        .ensure(Method::EB)
        .as_any()
        .downcast_ref::<EbMethodProgram>()
        .expect("EB slot holds the EB program")
        .program()
}

/// Approximate network diameter by a double sweep (for Figure 10's length
/// buckets).
fn approx_diameter(g: &RoadNetwork) -> Distance {
    let t0 = dijkstra_full(g, 0);
    let far = g
        .node_ids()
        .filter(|&v| t0.reachable(v))
        .max_by_key(|&v| t0.distance(v))
        .unwrap_or(0);
    let t1 = dijkstra_full(g, far);
    g.node_ids()
        .filter(|&v| t1.reachable(v))
        .map(|v| t1.distance(v))
        .max()
        .unwrap_or(0)
}

/// Formats a count with thousands separators.
fn fmt_thousands(v: usize) -> String {
    let s = v.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

fn default_world(opts: &Opts) -> World {
    World::build(NetworkPreset::Germany, opts.scale, EB_REGIONS, opts.seed)
}

fn queries_or(opts: &Opts, default: usize) -> usize {
    if opts.queries > 0 {
        opts.queries
    } else {
        default
    }
}

/// Table 1: broadcast cycle length per method on the default network.
fn table1(opts: &Opts, _: &mut Tally) {
    println!(
        "\n== Table 1: Broadcast cycle length (Germany @ {:.2}) ==",
        opts.scale
    );
    let programs = programs(default_world(opts), AF_REGIONS, LD_LANDMARKS);
    eprintln!("  building HiTi hierarchy...");
    let hiti_len = cycle_len(&programs, Method::HITI_AIR);
    eprintln!("  building SPQ quadtrees (one shortest-path tree per node)...");
    let spq_len = cycle_len(&programs, Method::SPQ_AIR);

    let rows: Vec<(&str, usize)> = vec![
        ("Dijkstra (DJ)", cycle_len(&programs, Method::DJ)),
        ("NR", cycle_len(&programs, Method::NR)),
        ("EB", cycle_len(&programs, Method::EB)),
        ("Landmark (LD)", cycle_len(&programs, Method::LD)),
        ("ArcFlag (AF)", cycle_len(&programs, Method::AF)),
        ("SPQ", spq_len),
        ("HiTi", hiti_len),
    ];
    println!(
        "{:<16} {:>10} {:>14} {:>16}",
        "Method", "Packets", "Sec (2Mbps)", "Sec (384Kbps)"
    );
    for (name, packets) in rows {
        println!(
            "{:<16} {:>10} {:>14.3} {:>16.3}",
            name,
            fmt_thousands(packets),
            ChannelRate::STATIC_3G.secs_for(packets as u64),
            ChannelRate::MOVING_3G.secs_for(packets as u64),
        );
    }
}

/// Table 2: method applicability per network against the (scaled) heap.
fn table2(opts: &Opts, tally: &mut Tally) {
    println!("\n== Table 2: Method applicability per network ==");
    let heap = (DeviceProfile::J2ME_PHONE.heap_bytes as f64 * opts.scale) as usize;
    println!(
        "(device heap budget scaled with the network: {:.2} MB)",
        heap as f64 / (1024.0 * 1024.0)
    );
    println!(
        "{:<14} {:>8} {:>8}   {:>3} {:>3} {:>3} {:>3} {:>3}",
        "Network", "Nodes", "Edges", "AF", "LD", "DJ", "EB", "NR"
    );
    let n_queries = queries_or(opts, 20);
    for preset in NetworkPreset::ALL {
        let world = World::build(preset, opts.scale, EB_REGIONS, opts.seed);
        let (nodes, edges) = (world.g.num_nodes(), world.g.num_edges() / 2);
        let programs = programs(world, AF_REGIONS, LD_LANDMARKS);
        let items = p2p_items(&programs.world().g, n_queries, opts.seed + 1);
        let mut marks = Vec::new();
        for m in [Method::AF, Method::LD, Method::DJ, Method::EB, Method::NR] {
            let results = run(&programs, m, &items, lossless, opts.seed + 2, tally);
            let peak = fold(&results).stats.peak_memory_bytes;
            marks.push(if peak <= heap { "ok" } else { "--" });
        }
        println!(
            "{:<14} {:>8} {:>8}   {:>3} {:>3} {:>3} {:>3} {:>3}",
            preset.name(),
            fmt_thousands(nodes),
            fmt_thousands(edges),
            marks[0],
            marks[1],
            marks[2],
            marks[3],
            marks[4],
        );
    }

    // Extension: the paper excludes HiTi and SPQ a priori ("their space
    // requirements exceed our device's heap size even for the smallest of
    // our networks"); with full on-air clients we can *measure* that on
    // the smallest network instead of asserting it.
    println!("\n-- extension: measured HiTi/SPQ peak memory on Milan --");
    let world = World::build(NetworkPreset::Milan, opts.scale, EB_REGIONS, opts.seed);
    let programs = programs(world, AF_REGIONS, LD_LANDMARKS);
    let items = p2p_items(&programs.world().g, 5, opts.seed + 3);
    let mb = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    for (name, m) in [("HiTi", Method::HITI_AIR), ("SPQ", Method::SPQ_AIR)] {
        let len = cycle_len(&programs, m);
        let at = |i: usize| Tune::at((i * 131) % len);
        let results = run(&programs, m, &items, at, 0, tally);
        let peak = fold(&results).stats.peak_memory_bytes;
        let fit = if results.iter().any(|d| d.verdict != Verdict::Exact) {
            "not exact, see the tally"
        } else if peak <= heap {
            "ok"
        } else {
            "exceeds heap"
        };
        println!(
            "{name:<6} peak {:>8.3} MB vs heap {:>8.3} MB  -> {fit}",
            mb(peak),
            mb(heap),
        );
    }
}

/// Table 3: server precomputation time per network.
fn table3(opts: &Opts, _: &mut Tally) {
    println!("\n== Table 3: Pre-computation time (sec) ==");
    println!(
        "{:<14} {:>10} {:>10} {:>10}",
        "Network", "EB/NR", "ArcFlag", "Landmark"
    );
    for preset in NetworkPreset::ALL {
        let world = World::build(preset, opts.scale, EB_REGIONS, opts.seed);
        let programs = programs(world, AF_REGIONS, LD_LANDMARKS);
        println!(
            "{:<14} {:>10.3} {:>10.3} {:>10.3}",
            preset.name(),
            programs.world().pre.precompute_secs,
            programs.ensure(Method::AF).precompute_secs(),
            programs.ensure(Method::LD).precompute_secs(),
        );
    }
}

/// Figure 10: tuning / memory / latency / CPU vs shortest-path length.
fn fig10(opts: &Opts, tally: &mut Tally) {
    println!(
        "\n== Figure 10: Effect of shortest path length (Germany @ {:.2}) ==",
        opts.scale
    );
    let programs = programs(default_world(opts), AF_REGIONS, LD_LANDMARKS);
    let g = &programs.world().g;
    let n_queries = queries_or(opts, PAPER_QUERIES);
    let items = p2p_items(g, n_queries, opts.seed + 10);
    let diameter = approx_diameter(g);
    println!(
        "(diameter ~{}, {} queries, 4 length buckets)",
        fmt_thousands(diameter as usize),
        n_queries
    );

    // Per method: run all queries, bucket by the oracle distance.
    let bucket_of = |d: u64| -> usize { ((4 * d) / (diameter + 1)).min(3) as usize };
    let mut per_method: Vec<[Tally; 4]> = Vec::new();
    let mut energy: Vec<f64> = Vec::new();
    for &m in &opts.methods {
        let results = run(&programs, m, &items, lossless, opts.seed + 11, tally);
        let mut buckets: [Tally; 4] = Default::default();
        let mut joules = 0.0;
        for (item, d) in items.iter().zip(&results) {
            buckets[bucket_of(p2p(item).1)].fold(d);
            if let Some(s) = &d.stats {
                joules += EnergyModel::WAVELAN_ARM.joules(s, ChannelRate::MOVING_3G);
            }
        }
        per_method.push(buckets);
        energy.push(joules / results.len() as f64);
    }

    for (title, f) in [
        (
            "a) Tuning time (packets)",
            &(|a: &Tally| format!("{:>10.0}", tuning(a))) as &dyn Fn(&Tally) -> String,
        ),
        ("b) Peak memory (MB)", &|a: &Tally| {
            format!("{:>10.3}", peak_mb(a))
        }),
        ("c) Access latency (packets)", &|a: &Tally| {
            format!("{:>10.0}", latency(a))
        }),
        ("d) CPU time (ms)", &|a: &Tally| {
            format!("{:>10.3}", cpu_ms(a))
        }),
    ] {
        println!("\n-- {title} --");
        println!(
            "{:<10} {:>10} {:>10} {:>10} {:>10}",
            "Method", "Q1", "Q2", "Q3", "Q4"
        );
        for (mi, m) in opts.methods.iter().enumerate() {
            // An empty length bucket has no average to show.
            let row: Vec<String> = per_method[mi]
                .iter()
                .map(|a| {
                    if a.answered == 0 {
                        format!("{:>10}", "-")
                    } else {
                        f(a)
                    }
                })
                .collect();
            println!("{:<10} {}", m.label(), row.join(" "));
        }
    }
    println!("\n-- extension: mean energy per query (J, 384Kbps, WaveLAN/ARM) --");
    for (mi, m) in opts.methods.iter().enumerate() {
        println!("{:<10} {:>10.3}", m.label(), energy[mi]);
    }
}

/// Figure 11: fine-tuning regions (AF/EB/NR) and landmarks (LD).
fn fig11(opts: &Opts, tally: &mut Tally) {
    println!("\n== Figure 11: Fine-tuning (regions/landmarks) ==");
    let n_queries = queries_or(opts, 100);
    let configs = [(16usize, 2usize), (32, 4), (64, 8), (128, 16)];
    println!(
        "{:<22} {:>10} {:>12} {:>10} {:>10}",
        "Config (meth@param)", "Tuning", "Memory(MB)", "Latency", "CPU(ms)"
    );
    for (regions, landmarks) in configs {
        let world = World::build(NetworkPreset::Germany, opts.scale, regions, opts.seed);
        // ArcFlag is only feasible at 16 regions in the paper; we build it
        // everywhere but it simply shows its (growing) cost.
        let programs = programs(world, regions.min(64), landmarks);
        let items = p2p_items(&programs.world().g, n_queries, opts.seed + 20);
        for &m in &opts.methods {
            if m == Method::AF && regions > 16 {
                continue; // paper: heap-infeasible beyond 16
            }
            let results = run(&programs, m, &items, lossless, opts.seed + 21, tally);
            let avg = fold(&results);
            // Only the region-partitioned methods vary with the region
            // count; LD varies with landmarks; everything else (DJ and
            // any registry extra) shows its flat baseline.
            let label = if m == Method::LD {
                format!("{}@{}", m.label(), landmarks)
            } else if m == Method::NR || m == Method::EB || m == Method::AF {
                format!("{}@{}", m.label(), regions)
            } else {
                m.label().to_string()
            };
            println!(
                "{:<22} {:>10.0} {:>12.3} {:>10.0} {:>10.3}",
                label,
                tuning(&avg),
                peak_mb(&avg),
                latency(&avg),
                cpu_ms(&avg),
            );
        }
    }
}

/// Figure 12: performance across the five networks.
fn fig12(opts: &Opts, tally: &mut Tally) {
    println!("\n== Figure 12: Different networks ==");
    let heap = (DeviceProfile::J2ME_PHONE.heap_bytes as f64 * opts.scale) as usize;
    let n_queries = queries_or(opts, 100);
    println!(
        "{:<14} {:<10} {:>10} {:>12} {:>10} {:>10}",
        "Network", "Method", "Tuning", "Memory(MB)", "Latency", "CPU(ms)"
    );
    for preset in NetworkPreset::ALL {
        let world = World::build(preset, opts.scale, EB_REGIONS, opts.seed);
        let programs = programs(world, AF_REGIONS, LD_LANDMARKS);
        let items = p2p_items(&programs.world().g, n_queries, opts.seed + 30);
        for &m in &opts.methods {
            let results = run(&programs, m, &items, lossless, opts.seed + 31, tally);
            let avg = fold(&results);
            let oom = if avg.stats.peak_memory_bytes > heap {
                "  [exceeds heap]"
            } else {
                ""
            };
            println!(
                "{:<14} {:<10} {:>10.0} {:>12.3} {:>10.0} {:>10.3}{}",
                preset.name(),
                m.label(),
                tuning(&avg),
                peak_mb(&avg),
                latency(&avg),
                cpu_ms(&avg),
                oom,
            );
        }
    }
}

/// Figure 13: client-side super-edge precomputation (§6.1) — memory & CPU
/// with and without, for EB and NR. Both answers of every query are
/// checked against its oracle.
fn fig13(opts: &Opts, tally: &mut Tally) {
    println!(
        "\n== Figure 13: Memory-bound processing (Germany @ {:.2}) ==",
        opts.scale
    );
    let world = default_world(opts);
    let n_queries = queries_or(opts, 50);
    let items = p2p_items(&world.g, n_queries, opts.seed + 40);

    // Region data as the client would decode it (with border flags).
    let mut store = ReceivedGraph::new();
    for r in 0..world.part.num_regions() {
        let nodes = &world.part.nodes_by_region()[r];
        for payload in
            encode_nodes_with_borders(&world.g, nodes, |v| world.pre.borders().is_border(v))
        {
            store.ingest_payload(&payload).unwrap();
        }
    }

    for (label, eb) in [("NR", false), ("EB", true)] {
        let mut with_mem = 0f64;
        let mut without_mem = 0f64;
        let mut with_cpu = 0f64;
        let mut without_cpu = 0f64;
        for item in &items {
            let (q, oracle) = p2p(item);
            let rs = world.part.region_of(q.source);
            let rt = world.part.region_of(q.target);
            let regions = if eb {
                world.pre.eb_candidates(rs, rt)
            } else {
                world.pre.needed_regions(rs, rt)
            };
            // Without §6.1: hold every needed region + search state.
            let raw: usize = regions
                .iter()
                .flat_map(|r| world.part.nodes_by_region()[r as usize].iter())
                .map(|&v| 16 + 8 * store.out_edges(v).len())
                .sum();
            let t0 = std::time::Instant::now();
            let (plain, _) = store.shortest_path(q.source, q.target);
            without_cpu += t0.elapsed().as_secs_f64() * 1000.0;
            without_mem = without_mem.max(raw as f64);

            // With §6.1: contract region by region.
            let mut proc = MemoryBoundProcessor::new();
            for r in regions.iter() {
                let nodes = &world.part.nodes_by_region()[r as usize];
                let terminals: Vec<NodeId> = [q.source, q.target]
                    .iter()
                    .copied()
                    .filter(|v| nodes.contains(v))
                    .collect();
                proc.add_region(&store, nodes, &terminals);
            }
            let contracted = proc.shortest_path(q.source, q.target);
            let exact = [plain.map(|(d, _)| d), contracted.map(|(d, _)| d)]
                .iter()
                .all(|&d| d == Some(oracle));
            tally.fold(&Driven {
                verdict: if exact {
                    Verdict::Exact
                } else {
                    Verdict::Wrong
                },
                ..Driven::default()
            });
            with_mem = with_mem.max(proc.mem.peak() as f64);
            with_cpu += proc.cpu.total().as_secs_f64() * 1000.0;
        }
        let n = items.len() as f64;
        println!(
            "{label} (w/ precomp):  memory {:>8.3} MB   cpu {:>8.3} ms",
            with_mem / (1024.0 * 1024.0),
            with_cpu / n
        );
        println!(
            "{label} (w/o precomp): memory {:>8.3} MB   cpu {:>8.3} ms",
            without_mem / (1024.0 * 1024.0),
            without_cpu / n
        );
    }
}

/// Mean NR and EB candidate-region counts over `items` under one
/// partition.
fn mean_candidates(
    part: &KdTreePartition,
    pre: &BorderPrecomputation,
    items: &[WorkItem],
) -> (f64, f64) {
    let (mut nr, mut eb) = (0, 0);
    for item in items {
        let (q, _) = p2p(item);
        let (rs, rt) = (part.region_of(q.source), part.region_of(q.target));
        nr += pre.needed_regions(rs, rt).len();
        eb += pre.eb_candidates(rs, rt).len();
    }
    let n = items.len() as f64;
    (nr as f64 / n, eb as f64 / n)
}

/// Ablations of the design choices DESIGN.md calls out:
/// (a) EB's cross-border/local region-data split (§4.1; the paper credits
///     it ~20% of tuning time);
/// (b) the (1,m) replication degree for EB's global index (latency vs
///     cycle-length trade-off around the optimal m);
/// (c) NR's pruning tightness versus EB's elliptic candidate set (the
///     mechanism behind Figure 10a);
/// (d) kd-tree median splits versus a uniform grid of the same region
///     count (§4.1);
/// (e) on-air kNN over EB's index (§8).
fn ablations(opts: &Opts, tally: &mut Tally) {
    println!("\n== Ablations (Germany @ {:.2}) ==", opts.scale);
    let world = default_world(opts);
    let mut rng_pois = StdRng::seed_from_u64(opts.seed + 70);
    let mut pois: Vec<NodeId> = (0..world.g.num_nodes() / 50)
        .map(|_| rng_pois.gen_range(0..world.g.num_nodes()) as NodeId)
        .collect();
    pois.sort_unstable();
    pois.dedup();
    let programs = programs(world.with_pois(pois), AF_REGIONS, LD_LANDMARKS);
    let world = programs.world();
    let n_queries = queries_or(opts, 100);
    let items = p2p_items(&world.g, n_queries, opts.seed + 60);
    let n = items.len() as f64;

    // (a) cross-border split: actual EB tuning vs tuning had the client
    // received the local segments of non-terminal regions too.
    let results = run(
        &programs,
        Method::EB,
        &items,
        lossless,
        opts.seed + 61,
        tally,
    );
    let mut with_split = 0f64;
    let mut without_split = 0f64;
    for (item, d) in items.iter().zip(&results) {
        let tuning = d.stats.map_or(0, |s| s.tuning_packets) as usize;
        with_split += tuning as f64;
        let (q, _) = p2p(item);
        let rs = world.part.region_of(q.source);
        let rt = world.part.region_of(q.target);
        let mut extra = 0usize;
        for r in world.pre.eb_candidates(rs, rt).iter() {
            if r == rs || r == rt {
                continue;
            }
            // Local-segment packets this region would add.
            let locals: Vec<_> = world.part.nodes_by_region()[r as usize]
                .iter()
                .copied()
                .filter(|&v| !world.pre.is_cross_border(v))
                .collect();
            extra += packet_count(&world.g, &locals);
        }
        without_split += (tuning + extra) as f64;
    }
    println!(
        "a) EB cross-border split: tuning {:.0} with vs {:.0} without ({:.1}% saved; paper ~20%)",
        with_split / n,
        without_split / n,
        100.0 * (1.0 - with_split / without_split)
    );

    // (b) (1,m) replication sweep for EB-style cycles.
    println!("b) (1,m) sweep: cycle length grows with m, wait-for-index shrinks");
    let eb = eb(&programs);
    let eb_index = eb.index_packets();
    let data = eb.cycle().len() - eb.replication() * eb_index;
    for m in [1usize, 2, 4, 8, 16, 32] {
        let cycle = data + m * eb_index;
        let mean_wait = cycle as f64 / (2.0 * m as f64);
        println!(
            "   m={m:>2}: cycle {:>7} packets, mean wait for index {:>8.0} packets{}",
            fmt_thousands(cycle),
            mean_wait,
            if m == eb.replication() {
                "   <- optimal m used"
            } else {
                ""
            },
        );
    }

    // (c) candidate-set sizes: NR's traversed regions vs EB's ellipse.
    let (kd_nr, kd_eb) = mean_candidates(&world.part, &world.pre, &items);
    println!(
        "c) mean candidate regions of {}: NR {:.1} vs EB {:.1} (NR is the subset, §5)",
        world.part.num_regions(),
        kd_nr,
        kd_eb
    );

    // (d) §4.1's partitioning claim: kd-tree median splits vs a uniform
    // grid of the same region count. A grid can leave cells empty or
    // overfull, which would loosen both pruning rules.
    let grid = KdTreePartition::build_uniform(&world.g, world.part.num_regions());
    let grid_pre = BorderPrecomputation::run(&world.g, &grid);
    let (grid_nr, grid_eb) = mean_candidates(&grid, &grid_pre, &items);
    let empties = grid
        .nodes_by_region()
        .iter()
        .filter(|nodes| nodes.is_empty())
        .count();
    println!(
        "d) kd vs uniform grid ({} regions, {} empty grid cells): \
         mean candidates NR {:.1} (kd) vs {:.1} (grid), EB {:.1} (kd) vs {:.1} (grid)",
        grid.num_regions(),
        empties,
        kd_nr,
        grid_nr,
        kd_eb,
        grid_eb,
    );

    // (e) §8 future work: on-air kNN built on EB's index. Report pruning
    // (tuning vs cycle length) for a POI workload.
    let knn_items: Vec<WorkItem> = items
        .iter()
        .take(25)
        .map(|item| knn_item(&world.g, &world.pois, p2p(item).0.source, 4))
        .collect();
    let len = cycle_len(&programs, Method::KNN_AIR);
    let at = |i: usize| Tune::at((i * 97) % len);
    let results = run(&programs, Method::KNN_AIR, &knn_items, at, 0, tally);
    println!(
        "e) on-air 4-NN over {} POIs (extension, §8): mean tuning {:.0} packets \
         vs cycle {} — EB-style min-bound pruning generalizes to kNN",
        world.pois.len(),
        tuning(&fold(&results)),
        fmt_thousands(len),
    );
}

/// Prints one row per method of a per-loss-rate table: `pick` of the
/// method's averages at each rate.
fn rate_table(title: &str, rates: &[f64], sweep: &[(&str, Vec<Tally>)], pick: fn(&Tally) -> f64) {
    println!("\n-- {title} --");
    print!("{:<10}", "Method");
    for r in rates {
        print!(" {:>9.1}%", r * 100.0);
    }
    println!();
    for (label, avgs) in sweep {
        print!("{label:<10}");
        for a in avgs {
            print!(" {:>10.0}", pick(a));
        }
        println!();
    }
}

/// Figure 14: robustness to packet loss — tuning time and access latency.
fn fig14(opts: &Opts, tally: &mut Tally) {
    println!(
        "\n== Figure 14: Effect of packet loss (Germany @ {:.2}) ==",
        opts.scale
    );
    let programs = programs(default_world(opts), AF_REGIONS, LD_LANDMARKS);
    let n_queries = queries_or(opts, 50);
    let items = p2p_items(&programs.world().g, n_queries, opts.seed + 50);
    let rates = [0.001, 0.005, 0.01, 0.05, 0.10];
    // Per method, the averages at each rate under `loss(rate)`.
    let mut sweep = |loss: fn(f64) -> LossSpec, seed: u64| -> Vec<(&'static str, Vec<Tally>)> {
        opts.methods
            .iter()
            .map(|&m| {
                let avgs = rates
                    .iter()
                    .map(|&rate| {
                        let tune = |_| uniform(loss(rate));
                        fold(&run(&programs, m, &items, tune, seed, tally))
                    })
                    .collect();
                (m.label(), avgs)
            })
            .collect()
    };
    let bernoulli = sweep(|rate| LossSpec::Bernoulli { rate }, opts.seed + 51);
    // Extension: bursty (Gilbert–Elliott) loss at the same stationary
    // rates, mean burst length 8 packets. Bursts can wipe a contiguous
    // index copy, which stresses the §6.2 recovery paths harder than
    // i.i.d. noise; answers stay exact either way.
    let bursty = sweep(|rate| LossSpec::Bursty { rate, burst: 8.0 }, opts.seed + 52);
    rate_table("a) Tuning time (packets)", &rates, &bernoulli, tuning);
    rate_table("b) Access latency (packets)", &rates, &bernoulli, latency);
    rate_table(
        "extension: tuning under bursty loss (mean burst 8 packets)",
        &rates,
        &bursty,
        tuning,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use spair_broadcast::QueryStats;

    fn tiny_world() -> World {
        let g = spair_roadnet::generators::small_grid(10, 10, 7);
        let part = KdTreePartition::build(&g, 8);
        let pre = BorderPrecomputation::run(&g, &part);
        World::from_parts(g, part, pre)
    }

    #[test]
    fn eb_downcast_exposes_the_concrete_program() {
        let programs = programs(tiny_world(), 4, 2);
        let eb = eb(&programs);
        assert!(eb.replication() >= 1);
        assert!(eb.index_packets() > 0);
        assert_eq!(eb.cycle().len(), cycle_len(&programs, Method::EB));
    }

    #[test]
    fn averages_skip_unanswered_sessions() {
        let mk = |t: u64, mem: usize| Driven {
            verdict: Verdict::Exact,
            stats: Some(QueryStats {
                tuning_packets: t,
                latency_packets: 2 * t,
                sleep_packets: t,
                peak_memory_bytes: mem,
                cpu: std::time::Duration::from_millis(10),
                settled_nodes: 1,
            }),
            ..Driven::default()
        };
        let a = fold(&[mk(100, 5), Driven::default(), mk(200, 9)]);
        assert_eq!(a.answered, 2);
        assert!((tuning(&a) - 150.0).abs() < 1e-9);
        assert!((latency(&a) - 300.0).abs() < 1e-9);
        assert_eq!(a.stats.peak_memory_bytes, 9);
    }

    #[test]
    fn tally_counts_failures_by_class() {
        let session = |verdict| Driven {
            verdict,
            ..Driven::default()
        };
        let mut t = fold(&[session(Verdict::Exact)]);
        assert!(t.exact == t.items);
        t.fold(&session(Verdict::Failed("client_aborted")));
        t.fold(&session(Verdict::Failed("client_aborted")));
        assert!(t.exact != t.items);
        assert_eq!(
            summary(&t),
            "1 exact / 0 wrong / 2 failed {\"client_aborted\": 2}"
        );
    }

    #[test]
    fn diameter_is_positive_and_bounded() {
        let world = tiny_world();
        let d = approx_diameter(&world.g);
        assert!(d > 0);
        // The double sweep is at worst a 0.5-approximation.
        for item in p2p_items(&world.g, 10, 5) {
            assert!(p2p(&item).1 <= 2 * d);
        }
    }

    #[test]
    fn thousands_formatting() {
        assert_eq!(fmt_thousands(0), "0");
        assert_eq!(fmt_thousands(999), "999");
        assert_eq!(fmt_thousands(14019), "14,019");
        assert_eq!(fmt_thousands(1234567), "1,234,567");
    }
}
