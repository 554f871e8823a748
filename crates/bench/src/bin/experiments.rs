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
//! Numbers are expected to reproduce the paper's *shape* (who wins, by
//! roughly what factor, where crossovers fall), not its absolute values:
//! the networks are synthetic with the paper's sizes, and the host is not
//! a 2010 J2ME handset.

use spair_bench::*;
use spair_broadcast::{ChannelRate, DeviceProfile, EnergyModel};
use spair_core::memory_bound::MemoryBoundProcessor;
use spair_core::netcodec::{decode_payload, encode_nodes_with_borders, ReceivedGraph};
use spair_core::Query;
use spair_partition::{Partitioning, RegionId};
use spair_roadnet::certify::{Cli, UsageError};
use spair_roadnet::{NetworkPreset, NodeId};

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

/// One table or figure of the paper.
type Experiment = fn(&Opts);

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
    for (name, run) in EXPERIMENTS {
        if opts.cmd == "all" || opts.cmd == name {
            run(&opts);
        }
    }
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
fn table1(opts: &Opts) {
    println!(
        "\n== Table 1: Broadcast cycle length (Germany @ {:.2}) ==",
        opts.scale
    );
    let world = default_world(opts);
    let programs = Programs::build(&world);
    let registry = MethodRegistry::standard();
    eprintln!("  building HiTi hierarchy...");
    let hiti = registry.get("hiti_air").expect("registered");
    let hiti_len = programs.cycle(hiti).len();
    eprintln!("  building SPQ quadtrees (one shortest-path tree per node)...");
    let spq = registry.get("spq_air").expect("registered");
    let spq_len = programs.cycle(spq).len();
    let dj_len = programs.cycle(Method::DJ).len();

    let rows: Vec<(&str, usize)> = vec![
        ("Dijkstra (DJ)", dj_len),
        ("NR", programs.cycle(Method::NR).len()),
        ("EB", programs.cycle(Method::EB).len()),
        ("Landmark (LD)", programs.cycle(Method::LD).len()),
        ("ArcFlag (AF)", programs.cycle(Method::AF).len()),
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
fn table2(opts: &Opts) {
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
        let programs = Programs::build(&world);
        let queries = random_queries(&world.g, n_queries, opts.seed + 1);
        let mut marks = Vec::new();
        for m in [Method::AF, Method::LD, Method::DJ, Method::EB, Method::NR] {
            let results = run_method(&programs, m, &queries, 0.0, opts.seed + 2);
            let peak = results
                .iter()
                .map(|(_, s)| s.peak_memory_bytes)
                .max()
                .unwrap_or(0);
            marks.push(if peak <= heap { "ok" } else { "--" });
        }
        println!(
            "{:<14} {:>8} {:>8}   {:>3} {:>3} {:>3} {:>3} {:>3}",
            preset.name(),
            fmt_thousands(world.g.num_nodes()),
            fmt_thousands(world.g.num_edges() / 2),
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
    let programs = Programs::build(&world);
    let queries = random_queries(&world.g, 5, opts.seed + 3);
    let registry = MethodRegistry::standard();
    let mut rows = Vec::new();
    for (name, method) in [("HiTi", "hiti_air"), ("SPQ", "spq_air")] {
        let m = registry.get(method).expect("registered");
        let cycle = programs.cycle(m);
        let mut client = programs.client(m);
        rows.push((name, run_air_client(client.as_mut(), cycle, &queries)));
    }
    let mb = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    for (name, peak) in rows {
        match peak {
            Ok(peak) => println!(
                "{name:<6} peak {:>8.3} MB vs heap {:>8.3} MB  -> {}",
                mb(peak),
                mb(heap),
                if peak <= heap { "ok" } else { "exceeds heap" },
            ),
            Err(e) => println!("{name:<6} FAILED ({e}) vs heap {:>8.3} MB", mb(heap)),
        }
    }
}

/// Peak memory of an air client over a query set (lossless), or the
/// first query that failed.
fn run_air_client(
    client: &mut dyn spair_core::query::AirClient,
    cycle: &spair_broadcast::BroadcastCycle,
    queries: &[Query],
) -> Result<usize, String> {
    use spair_broadcast::{BroadcastChannel, LossModel};
    let mut peak = 0;
    for (i, q) in queries.iter().enumerate() {
        let mut ch = BroadcastChannel::tune_in(cycle, (i * 131) % cycle.len(), LossModel::Lossless);
        let out = client
            .query(&mut ch, q)
            .map_err(|e| format!("query {i}: {e}"))?;
        peak = peak.max(out.stats.peak_memory_bytes);
    }
    Ok(peak)
}

/// Table 3: server precomputation time per network.
fn table3(opts: &Opts) {
    println!("\n== Table 3: Pre-computation time (sec) ==");
    println!(
        "{:<14} {:>10} {:>10} {:>10}",
        "Network", "EB/NR", "ArcFlag", "Landmark"
    );
    for preset in NetworkPreset::ALL {
        let world = World::build(preset, opts.scale, EB_REGIONS, opts.seed);
        let programs = Programs::build(&world);
        println!(
            "{:<14} {:>10.3} {:>10.3} {:>10.3}",
            preset.name(),
            world.pre.precompute_secs,
            programs.precompute_secs(Method::AF),
            programs.precompute_secs(Method::LD),
        );
    }
}

/// Figure 10: tuning / memory / latency / CPU vs shortest-path length.
fn fig10(opts: &Opts) {
    println!(
        "\n== Figure 10: Effect of shortest path length (Germany @ {:.2}) ==",
        opts.scale
    );
    let world = default_world(opts);
    let programs = Programs::build(&world);
    let n_queries = queries_or(opts, PAPER_QUERIES);
    let queries = random_queries(&world.g, n_queries, opts.seed + 10);
    let diameter = approx_diameter(&world.g);
    println!(
        "(diameter ~{}, {} queries, 4 length buckets)",
        fmt_thousands(diameter as usize),
        n_queries
    );

    // Per method: run all queries, bucket by resulting distance.
    let bucket_of = |d: u64| -> usize { ((4 * d) / (diameter + 1)).min(3) as usize };
    let mut per_method: Vec<[Averages; 4]> = Vec::new();
    let mut energy: Vec<f64> = Vec::new();
    for &m in &opts.methods {
        let results = run_method(&programs, m, &queries, 0.0, opts.seed + 11);
        let mut buckets = [Averages::default(); 4];
        let mut joules = 0.0;
        for (d, s) in &results {
            buckets[bucket_of(*d)].push(s);
            joules += EnergyModel::WAVELAN_ARM.joules(s, ChannelRate::MOVING_3G);
        }
        per_method.push(buckets);
        energy.push(joules / results.len() as f64);
    }

    for (title, f) in [
        (
            "a) Tuning time (packets)",
            &(|a: &Averages| format!("{:>10.0}", a.tuning)) as &dyn Fn(&Averages) -> String,
        ),
        ("b) Peak memory (MB)", &|a: &Averages| {
            format!("{:>10.3}", a.peak_memory as f64 / (1024.0 * 1024.0))
        }),
        ("c) Access latency (packets)", &|a: &Averages| {
            format!("{:>10.0}", a.latency)
        }),
        ("d) CPU time (ms)", &|a: &Averages| {
            format!("{:>10.3}", a.cpu_ms)
        }),
    ] {
        println!("\n-- {title} --");
        println!(
            "{:<10} {:>10} {:>10} {:>10} {:>10}",
            "Method", "Q1", "Q2", "Q3", "Q4"
        );
        for (mi, m) in opts.methods.iter().enumerate() {
            let row: Vec<String> = per_method[mi].iter().map(f).collect();
            println!("{:<10} {}", m.label(), row.join(" "));
        }
    }
    println!("\n-- extension: mean energy per query (J, 384Kbps, WaveLAN/ARM) --");
    for (mi, m) in opts.methods.iter().enumerate() {
        println!("{:<10} {:>10.3}", m.label(), energy[mi]);
    }
}

/// Figure 11: fine-tuning regions (AF/EB/NR) and landmarks (LD).
fn fig11(opts: &Opts) {
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
        let programs = Programs::build_tuned(&world, regions.min(64), landmarks);
        let queries = random_queries(&world.g, n_queries, opts.seed + 20);
        for &m in &opts.methods {
            if m == Method::AF && regions > 16 {
                continue; // paper: heap-infeasible beyond 16
            }
            let results = run_method(&programs, m, &queries, 0.0, opts.seed + 21);
            let mut avg = Averages::default();
            for (_, s) in &results {
                avg.push(s);
            }
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
                avg.tuning,
                avg.peak_memory as f64 / (1024.0 * 1024.0),
                avg.latency,
                avg.cpu_ms,
            );
        }
    }
}

/// Figure 12: performance across the five networks.
fn fig12(opts: &Opts) {
    println!("\n== Figure 12: Different networks ==");
    let heap = (DeviceProfile::J2ME_PHONE.heap_bytes as f64 * opts.scale) as usize;
    let n_queries = queries_or(opts, 100);
    println!(
        "{:<14} {:<10} {:>10} {:>12} {:>10} {:>10}",
        "Network", "Method", "Tuning", "Memory(MB)", "Latency", "CPU(ms)"
    );
    for preset in NetworkPreset::ALL {
        let world = World::build(preset, opts.scale, EB_REGIONS, opts.seed);
        let programs = Programs::build(&world);
        let queries = random_queries(&world.g, n_queries, opts.seed + 30);
        for &m in &opts.methods {
            let results = run_method(&programs, m, &queries, 0.0, opts.seed + 31);
            let mut avg = Averages::default();
            for (_, s) in &results {
                avg.push(s);
            }
            let oom = if avg.peak_memory > heap {
                "  [exceeds heap]"
            } else {
                ""
            };
            println!(
                "{:<14} {:<10} {:>10.0} {:>12.3} {:>10.0} {:>10.3}{}",
                preset.name(),
                m.label(),
                avg.tuning,
                avg.peak_memory as f64 / (1024.0 * 1024.0),
                avg.latency,
                avg.cpu_ms,
                oom,
            );
        }
    }
}

/// Figure 13: client-side super-edge precomputation (§6.1) — memory & CPU
/// with and without, for EB and NR.
fn fig13(opts: &Opts) {
    println!(
        "\n== Figure 13: Memory-bound processing (Germany @ {:.2}) ==",
        opts.scale
    );
    let world = default_world(opts);
    let n_queries = queries_or(opts, 50);
    let queries = random_queries(&world.g, n_queries, opts.seed + 40);

    // Region data as the client would decode it (with border flags).
    let mut store = ReceivedGraph::new();
    for r in 0..world.part.num_regions() {
        let nodes = &world.part.nodes_by_region()[r];
        for payload in
            encode_nodes_with_borders(&world.g, nodes, |v| world.pre.borders().is_border(v))
        {
            for rec in decode_payload(&payload).unwrap() {
                store.ingest(rec);
            }
        }
    }

    let needed_for = |q: &Query, eb: bool| -> Vec<RegionId> {
        let rs = world.part.region_of(q.source);
        let rt = world.part.region_of(q.target);
        if eb {
            // EB's pruning rule.
            let ub = world.pre.minmax(rs, rt).max;
            (0..world.part.num_regions() as RegionId)
                .filter(|&r| {
                    r == rs || r == rt || {
                        let a = world.pre.minmax(rs, r);
                        let b = world.pre.minmax(r, rt);
                        !a.is_empty() && !b.is_empty() && a.min + b.min <= ub
                    }
                })
                .collect()
        } else {
            world.pre.needed_regions(rs, rt).iter().collect()
        }
    };

    for (label, eb) in [("NR", false), ("EB", true)] {
        let mut with_mem = 0f64;
        let mut without_mem = 0f64;
        let mut with_cpu = 0f64;
        let mut without_cpu = 0f64;
        for q in &queries {
            let regions = needed_for(q, eb);
            // Without §6.1: hold every needed region + search state.
            let raw: usize = regions
                .iter()
                .flat_map(|&r| world.part.nodes_by_region()[r as usize].iter())
                .map(|&v| 16 + 8 * store.out_edges(v).len())
                .sum();
            let t0 = std::time::Instant::now();
            let (plain, _) = store.shortest_path(q.source, q.target);
            without_cpu += t0.elapsed().as_secs_f64() * 1000.0;
            without_mem = without_mem.max(raw as f64);

            // With §6.1: contract region by region.
            let mut proc = MemoryBoundProcessor::new();
            for &r in &regions {
                let nodes = &world.part.nodes_by_region()[r as usize];
                let terminals: Vec<NodeId> = [q.source, q.target]
                    .iter()
                    .copied()
                    .filter(|v| nodes.contains(v))
                    .collect();
                proc.add_region(&store, nodes, &terminals);
            }
            let contracted = proc.shortest_path(q.source, q.target);
            assert_eq!(
                contracted.as_ref().map(|(d, _)| *d),
                plain.as_ref().map(|(d, _)| *d),
                "distance must be unchanged"
            );
            with_mem = with_mem.max(proc.mem.peak() as f64);
            with_cpu += proc.cpu.total().as_secs_f64() * 1000.0;
        }
        let n = queries.len() as f64;
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

/// Ablations of the design choices DESIGN.md calls out:
/// (a) EB's cross-border/local region-data split (§4.1; the paper credits
///     it ~20% of tuning time);
/// (b) the (1,m) replication degree for EB's global index (latency vs
///     cycle-length trade-off around the optimal m);
/// (c) NR's pruning tightness versus EB's elliptic candidate set (the
///     mechanism behind Figure 10a).
fn ablations(opts: &Opts) {
    println!("\n== Ablations (Germany @ {:.2}) ==", opts.scale);
    let world = default_world(opts);
    let n_queries = queries_or(opts, 100);
    let queries = random_queries(&world.g, n_queries, opts.seed + 60);

    // (a) cross-border split: actual EB tuning vs tuning had the client
    // received the local segments of non-terminal regions too.
    let programs = Programs::build(&world);
    let results = run_method(&programs, Method::EB, &queries, 0.0, opts.seed + 61);
    let mut with_split = 0f64;
    let mut without_split = 0f64;
    for (q, (_, s)) in queries.iter().zip(&results) {
        with_split += s.tuning_packets as f64;
        let rs = world.part.region_of(q.source);
        let rt = world.part.region_of(q.target);
        let ub = world.pre.minmax(rs, rt).max;
        let mut extra = 0usize;
        for r in 0..world.part.num_regions() as RegionId {
            if r == rs || r == rt {
                continue;
            }
            let a = world.pre.minmax(rs, r);
            let b = world.pre.minmax(r, rt);
            if !a.is_empty() && !b.is_empty() && a.min + b.min <= ub {
                // Local-segment packets this region would add.
                let locals: Vec<_> = world.part.nodes_by_region()[r as usize]
                    .iter()
                    .copied()
                    .filter(|&v| !world.pre.is_cross_border(v))
                    .collect();
                extra += spair_core::netcodec::packet_count(&world.g, &locals);
            }
        }
        without_split += (s.tuning_packets as usize + extra) as f64;
    }
    let n = queries.len() as f64;
    println!(
        "a) EB cross-border split: tuning {:.0} with vs {:.0} without ({:.1}% saved; paper ~20%)",
        with_split / n,
        without_split / n,
        100.0 * (1.0 - with_split / without_split)
    );

    // (b) (1,m) replication sweep for EB-style cycles.
    println!("b) (1,m) sweep: cycle length grows with m, wait-for-index shrinks");
    let eb_index = programs.eb().index_packets();
    let data = programs.cycle(Method::EB).len() - programs.eb().replication() * eb_index;
    for m in [1usize, 2, 4, 8, 16, 32] {
        let cycle = data + m * eb_index;
        let mean_wait = cycle as f64 / (2.0 * m as f64);
        println!(
            "   m={m:>2}: cycle {:>7} packets, mean wait for index {:>8.0} packets{}",
            fmt_thousands(cycle),
            mean_wait,
            if m == programs.eb().replication() {
                "   <- optimal m used"
            } else {
                ""
            },
        );
    }

    // (c) candidate-set sizes: NR's traversed regions vs EB's ellipse.
    let mut nr_sizes = 0usize;
    let mut eb_sizes = 0usize;
    for q in &queries {
        let rs = world.part.region_of(q.source);
        let rt = world.part.region_of(q.target);
        nr_sizes += world.pre.needed_regions(rs, rt).len();
        let ub = world.pre.minmax(rs, rt).max;
        eb_sizes += (0..world.part.num_regions() as RegionId)
            .filter(|&r| {
                r == rs || r == rt || {
                    let a = world.pre.minmax(rs, r);
                    let b = world.pre.minmax(r, rt);
                    !a.is_empty() && !b.is_empty() && a.min + b.min <= ub
                }
            })
            .count();
    }
    println!(
        "c) mean candidate regions of {}: NR {:.1} vs EB {:.1} (NR is the subset, §5)",
        world.part.num_regions(),
        nr_sizes as f64 / n,
        eb_sizes as f64 / n
    );

    // (d) §4.1's partitioning claim: kd-tree median splits vs a regular
    // grid of the same region count. The grid leaves cells empty/overfull,
    // which loosens both pruning rules.
    let regions = world.part.num_regions();
    let grid = spair_partition::GridPartition::build_square(&world.g, regions);
    let grid_pre = spair_core::BorderPrecomputation::run(&world.g, &grid);
    let mut grid_nr = 0usize;
    let mut grid_eb = 0usize;
    use spair_partition::Partitioning as _;
    for q in &queries {
        let rs = grid.region_of(q.source);
        let rt = grid.region_of(q.target);
        grid_nr += grid_pre.needed_regions(rs, rt).len();
        let ub = grid_pre.minmax(rs, rt).max;
        grid_eb += (0..grid.num_regions() as RegionId)
            .filter(|&r| {
                r == rs || r == rt || {
                    let a = grid_pre.minmax(rs, r);
                    let b = grid_pre.minmax(r, rt);
                    !a.is_empty() && !b.is_empty() && a.min + b.min <= ub
                }
            })
            .count();
    }
    let empties = grid
        .nodes_by_region()
        .iter()
        .filter(|nodes| nodes.is_empty())
        .count();
    println!(
        "d) kd vs regular grid ({} regions, {} empty grid cells): \
         mean candidates NR {:.1} (kd) vs {:.1} (grid), EB {:.1} (kd) vs {:.1} (grid)",
        grid.num_regions(),
        empties,
        nr_sizes as f64 / n,
        grid_nr as f64 / n,
        eb_sizes as f64 / n,
        grid_eb as f64 / n,
    );

    // (e) §8 future work: on-air kNN built on EB's index. Report pruning
    // (tuning vs cycle length) for a POI workload.
    let mut rng_pois = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(opts.seed + 70)
    };
    use rand::Rng as _;
    let mut pois: Vec<spair_roadnet::NodeId> = (0..world.g.num_nodes() / 50)
        .map(|_| rng_pois.gen_range(0..world.g.num_nodes()) as spair_roadnet::NodeId)
        .collect();
    pois.sort_unstable();
    pois.dedup();
    let knn_program = spair_core::KnnServer::new(&world.g, &world.part, &world.pre, &pois)
        .build_program()
        .expect("encode");
    let mut knn_client = spair_core::KnnClient::new(world.part.num_regions());
    let mut tuned = 0u64;
    let knn_queries = 25.min(n_queries);
    for (i, q) in queries.iter().take(knn_queries).enumerate() {
        let mut ch = spair_broadcast::BroadcastChannel::tune_in(
            knn_program.cycle(),
            (i * 97) % knn_program.cycle().len(),
            spair_broadcast::LossModel::Lossless,
        );
        let out = knn_client
            .query(&mut ch, q.source, q.source_pt, 4)
            .expect("knn");
        tuned += out.stats.tuning_packets;
    }
    println!(
        "e) on-air 4-NN over {} POIs (extension, §8): mean tuning {:.0} packets \
         vs cycle {} — EB-style min-bound pruning generalizes to kNN",
        pois.len(),
        tuned as f64 / knn_queries as f64,
        fmt_thousands(knn_program.cycle().len()),
    );
}

/// Figure 14: robustness to packet loss — tuning time and access latency.
fn fig14(opts: &Opts) {
    println!(
        "\n== Figure 14: Effect of packet loss (Germany @ {:.2}) ==",
        opts.scale
    );
    let world = default_world(opts);
    let programs = Programs::build(&world);
    let n_queries = queries_or(opts, 50);
    let queries = random_queries(&world.g, n_queries, opts.seed + 50);
    let rates = [0.001, 0.005, 0.01, 0.05, 0.10];
    for (title, pick) in [
        ("a) Tuning time (packets)", 0usize),
        ("b) Access latency (packets)", 1usize),
    ] {
        println!("\n-- {title} --");
        print!("{:<10}", "Method");
        for r in rates {
            print!(" {:>9.1}%", r * 100.0);
        }
        println!();
        for &m in &opts.methods {
            print!("{:<10}", m.label());
            for rate in rates {
                let results = run_method(&programs, m, &queries, rate, opts.seed + 51);
                let mut avg = Averages::default();
                for (_, s) in &results {
                    avg.push(s);
                }
                let v = if pick == 0 { avg.tuning } else { avg.latency };
                print!(" {:>10.0}", v);
            }
            println!();
        }
    }

    // Extension: bursty (Gilbert–Elliott) loss at the same stationary
    // rates, mean burst length 8 packets. Bursts can wipe a contiguous
    // index copy, which stresses the §6.2 recovery paths harder than
    // i.i.d. noise; answers stay exact either way.
    println!("\n-- extension: tuning under bursty loss (mean burst 8 packets) --");
    print!("{:<10}", "Method");
    for r in rates {
        print!(" {:>9.1}%", r * 100.0);
    }
    println!();
    for &m in &opts.methods {
        print!("{:<10}", m.label());
        for rate in rates {
            let seed = opts.seed + 52;
            let results = run_method_with_loss(&programs, m, &queries, seed, |i| {
                spair_broadcast::LossModel::bursty(rate, 8.0, seed.wrapping_add(i as u64))
            });
            let mut avg = Averages::default();
            for (_, s) in &results {
                avg.push(s);
            }
            print!(" {:>10.0}", avg.tuning);
        }
        println!();
    }
}
