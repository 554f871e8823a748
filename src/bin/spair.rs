//! `spair` — command-line front end for the air-index framework.
//!
//! ```text
//! spair generate --preset germany --scale 0.1 --seed 7 -o map.gr
//! spair inspect  map.gr
//! spair serve    map.gr --method nr --regions 32      # cycle statistics
//! spair query    map.gr --method eb --from 10 --to 9000 [--loss 0.01]
//! spair knn      map.gr --from 10 --k 3 --poi-every 50
//! ```
//!
//! `generate` writes the DIMACS-style text format `roadnet::io` reads, so
//! real road data can be substituted for the synthetic presets. All other
//! subcommands accept any file in that format.
//!
//! `serve`, `query` and `knn` build the chosen method's program through
//! the method registry and answer through `spair_sim::drive`, the session
//! driver every harness uses, so every registered method is reachable
//! and every answer is checked against local Dijkstra.

use spair::core::RecoveryBudget;
use spair::prelude::*;
use spair::roadnet::certify::{Cli, UsageError};
use spair::roadnet::{self, Distance, NodeId};
use spair_methods::{MethodId, MethodRegistry, ProgramSet, Tuning, World};
use spair_sim::{
    drive, Device, Driven, FaultSource, LossSpec, Tune, TuneInSpec, Verdict, WorkItem,
};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

const USAGE: &str = "<generate|inspect|serve|query|knn> [<file>] [--flag <value>]...";

fn main() -> ExitCode {
    let mut cli = Cli::from_env("spair", USAGE);
    let Some(cmd) = cli.next_arg() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let command: fn(&Flags) -> Result<(), String> = match cmd.as_str() {
        "generate" => generate,
        "inspect" => inspect,
        "serve" => serve,
        "query" => query,
        "knn" => knn,
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("error: unknown command '{other}'\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let flags = Flags::parse(&mut cli).unwrap_or_else(|e| cli.fail(e));
    match command(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The usage text, with the method list read off the registry.
fn usage() -> String {
    let methods: Vec<String> = MethodRegistry::standard()
        .all()
        .iter()
        .map(|m| {
            let d = m.descriptor();
            let commands = if d.knn {
                "knn"
            } else if d.own_channel {
                "serve, query"
            } else {
                "query (no channel of its own)"
            };
            format!("  {:<13} {:<13} {commands}", d.name, d.label)
        })
        .collect();
    format!(
        "\
spair — shortest paths on air indexes (VLDB'10 reproduction)

commands:
  generate --preset <milan|germany|argentina|india|sanfrancisco>
           [--scale <f>] [--seed <n>] -o <file>     write a synthetic network
  inspect  <file>                                   network statistics
  serve    <file> [--method <m>] [--regions <n>]    broadcast-cycle statistics
  query    <file> --from <node> --to <node> [--method <m>] [--regions <n>]
           [--loss <rate>] [--offset <packets>]     run one client query
  knn      <file> --from <node> [--k <n>] [--poi-every <n>] [--regions <n>]
                                                    on-air k-nearest-neighbour

methods (--method, default nr):
{}",
        methods.join("\n")
    )
}

/// A command's network file and flags, parsed by the bench binaries'
/// [`Cli`]. A flag given twice keeps its last value; commands apply
/// their own defaults to flags left out.
#[derive(Debug, Default)]
struct Flags {
    file: Option<String>,
    preset: Option<String>,
    scale: Option<f64>,
    seed: Option<u64>,
    out: Option<String>,
    method: Option<String>,
    regions: Option<usize>,
    poi_every: Option<usize>,
    from: Option<NodeId>,
    to: Option<NodeId>,
    k: Option<usize>,
    loss: Option<f64>,
    offset: Option<usize>,
}

impl Flags {
    fn parse(cli: &mut Cli) -> Result<Self, UsageError> {
        let mut f = Flags::default();
        while let Some(arg) = cli.next_arg() {
            let flag = arg.as_str();
            match flag {
                "--preset" => f.preset = Some(cli.value(flag)?),
                "--scale" => f.scale = Some(cli.parse(flag)?),
                "--seed" => f.seed = Some(cli.parse(flag)?),
                "-o" => f.out = Some(cli.value(flag)?),
                "--method" => f.method = Some(cli.value(flag)?),
                "--regions" => f.regions = Some(cli.parse(flag)?),
                "--poi-every" => f.poi_every = Some(cli.parse(flag)?),
                "--from" => f.from = Some(cli.parse(flag)?),
                "--to" => f.to = Some(cli.parse(flag)?),
                "--k" => f.k = Some(cli.parse(flag)?),
                "--loss" => f.loss = Some(cli.parse(flag)?),
                "--offset" => f.offset = Some(cli.parse(flag)?),
                _ if flag.starts_with('-') => {
                    return Err(UsageError(format!("unknown flag {flag}")))
                }
                _ if f.file.is_none() => f.file = Some(arg),
                _ => return Err(UsageError(format!("unexpected argument '{flag}'"))),
            }
        }
        Ok(f)
    }

    fn file(&self) -> Result<&str, String> {
        self.file
            .as_deref()
            .ok_or_else(|| "a network file is required".to_string())
    }
}

fn load(path: &str) -> Result<RoadNetwork, String> {
    let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    roadnet::io::read_text(BufReader::new(f)).map_err(|e| format!("{path}: {e}"))
}

fn generate(flags: &Flags) -> Result<(), String> {
    let preset = flags.preset.as_deref().ok_or("--preset is required")?;
    let preset = match preset.to_ascii_lowercase().as_str() {
        "milan" => NetworkPreset::Milan,
        "germany" => NetworkPreset::Germany,
        "argentina" => NetworkPreset::Argentina,
        "india" => NetworkPreset::India,
        "sanfrancisco" | "san-francisco" | "sf" => NetworkPreset::SanFrancisco,
        other => return Err(format!("unknown preset '{other}'")),
    };
    let scale = flags.scale.unwrap_or(1.0);
    let seed = flags.seed.unwrap_or(42);
    let out = flags.out.as_deref().ok_or("-o is required")?;
    let g = preset.scaled_config(seed, scale).generate();
    let f = File::create(out).map_err(|e| format!("{out}: {e}"))?;
    roadnet::io::write_text(&g, BufWriter::new(f)).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "wrote {out}: {} nodes, {} directed edges ({} @ scale {scale}, seed {seed})",
        g.num_nodes(),
        g.num_edges(),
        preset.name()
    );
    Ok(())
}

fn inspect(flags: &Flags) -> Result<(), String> {
    let g = load(flags.file()?)?;
    let (min, max) = g.bounding_box();
    let degrees: Vec<usize> = g.node_ids().map(|v| g.out_degree(v)).collect();
    let mean_deg = degrees.iter().sum::<usize>() as f64 / degrees.len().max(1) as f64;
    println!("nodes           : {}", g.num_nodes());
    println!("directed edges  : {}", g.num_edges());
    println!("mean out-degree : {mean_deg:.2}");
    println!(
        "max out-degree  : {}",
        degrees.iter().max().copied().unwrap_or(0)
    );
    println!(
        "extent          : ({:.1}, {:.1}) .. ({:.1}, {:.1})",
        min.x, min.y, max.x, max.y
    );
    println!("adjacency bytes : {}", g.adjacency_bytes());
    let raw = spair::core::netcodec::packet_count(&g, &g.node_ids().collect::<Vec<_>>());
    println!("raw data packets: {raw} (128 B each)");
    Ok(())
}

/// The registry's programs over a map: a kd partition into `--regions`
/// regions with its border precomputation, every `--poi-every`-th node as
/// a POI, and ArcFlag on its own partition of at most 16 regions.
fn programs(g: RoadNetwork, flags: &Flags) -> ProgramSet {
    let regions = flags.regions.unwrap_or(32);
    let every = flags.poi_every.unwrap_or(50);
    let pois: Vec<NodeId> = g.node_ids().step_by(every.max(1)).collect();
    let part = KdTreePartition::build(&g, regions);
    let pre = BorderPrecomputation::run(&g, &part);
    let tuning = Tuning {
        af_regions: Some(regions.min(16)),
        ..Tuning::default()
    };
    ProgramSet::new(
        World::from_parts(g, part, pre)
            .with_pois(pois)
            .with_tuning(tuning),
    )
}

/// The `--method` flag's registry entry.
fn method(flags: &Flags) -> Result<MethodId, String> {
    let name = flags.method.as_deref().unwrap_or("nr").to_ascii_lowercase();
    MethodRegistry::standard()
        .get(&name)
        .map_err(|e| e.to_string())
}

/// Drives one work item on the method's program, as every harness does,
/// and turns a wrong or failed verdict into an error.
fn run(
    programs: &ProgramSet,
    m: MethodId,
    item: &WorkItem,
    tune: &Tune,
    seed: u64,
) -> Result<Driven, String> {
    let (program, g) = (programs.ensure(m), &programs.world().g);
    let mut device = Device::new(program).map_err(|e| e.to_string())?;
    let single = RecoveryBudget::single();
    let d = drive(program, &mut device, g, item, tune, single, |_| seed);
    match d.verdict {
        Verdict::Exact => Ok(d),
        Verdict::Wrong => Err("MISMATCH vs local Dijkstra".into()),
        Verdict::Failed(class) => Err(format!("the session gave up: {class}")),
    }
}

fn serve(flags: &Flags) -> Result<(), String> {
    let m = method(flags)?;
    let programs = programs(load(flags.file()?)?, flags);
    let cycle = programs.ensure(m).cycle().map_err(|e| e.to_string())?;
    println!("method          : {} ({m})", m.label());
    println!(
        "cycle length    : {} packets ({} KB)",
        cycle.len(),
        cycle.len() * 128 / 1024
    );
    println!(
        "cycle duration  : {:.3} s @ 2 Mbps, {:.3} s @ 384 Kbps",
        cycle.duration_secs(2_000_000),
        cycle.duration_secs(384_000),
    );
    println!("segments        : {}", cycle.segments().len());
    Ok(())
}

fn query(flags: &Flags) -> Result<(), String> {
    let g = load(flags.file()?)?;
    let (Some(from), Some(to)) = (flags.from, flags.to) else {
        return Err("--from and --to are required".into());
    };
    if from as usize >= g.num_nodes() || to as usize >= g.num_nodes() {
        return Err(format!("node ids must be < {}", g.num_nodes()));
    }
    let m = method(flags)?;
    if m.descriptor().knn {
        return Err(format!("{m} answers kNN queries: use `spair knn`"));
    }
    let loss = flags.loss.unwrap_or(0.0);
    let seed = flags.seed.unwrap_or(1);
    let oracle = roadnet::dijkstra_distance(&g, from, to)
        .ok_or_else(|| format!("node {to} is unreachable from node {from}"))?;
    let query = Query::for_nodes(&g, from, to);
    let programs = programs(g, flags);
    let cycle_len = programs.ensure(m).cycle().map_or(1, |c| c.len());
    let tune = Tune {
        tune_in: TuneInSpec::At(flags.offset.unwrap_or(cycle_len / 3)),
        loss: if loss > 0.0 {
            LossSpec::Bernoulli { rate: loss }
        } else {
            LossSpec::Lossless
        },
        faults: FaultSource::None,
    };
    let d = run(&programs, m, &WorkItem::P2p { query, oracle }, &tune, seed)?;
    let stats = d.stats.unwrap_or_default();

    println!("method          : {} ({m})", m.label());
    println!("distance        : {oracle}");
    println!("path hops       : {}", d.nodes.len().saturating_sub(1));
    println!("tuning time     : {} packets", stats.tuning_packets);
    println!(
        "access latency  : {} packets ({:.3} s @ 384 Kbps)",
        stats.latency_packets,
        stats.latency_packets as f64 * 128.0 * 8.0 / 384_000.0,
    );
    println!(
        "peak memory     : {:.1} KB",
        stats.peak_memory_bytes as f64 / 1024.0
    );
    println!(
        "client CPU      : {:.3} ms",
        stats.cpu.as_secs_f64() * 1000.0
    );
    let energy = EnergyModel::WAVELAN_ARM.joules(&stats, ChannelRate::MOVING_3G);
    println!("energy          : {energy:.3} J (WaveLAN/ARM @ 384 Kbps)");
    println!("verified        : matches local Dijkstra");
    Ok(())
}

fn knn(flags: &Flags) -> Result<(), String> {
    let g = load(flags.file()?)?;
    let Some(from) = flags.from.filter(|&v| (v as usize) < g.num_nodes()) else {
        return Err("--from is required and must be a valid node id".into());
    };
    let k = flags.k.unwrap_or(3);
    let m = MethodId::KNN_AIR;
    let tree = roadnet::dijkstra_full(&g, from);
    let source_pt = g.point(from);
    let programs = programs(g, flags);
    let pois = &programs.world().pois;
    let mut oracle: Vec<Distance> = pois
        .iter()
        .filter(|&&p| tree.reachable(p))
        .map(|&p| tree.distance(p))
        .collect();
    oracle.sort_unstable();
    oracle.truncate(k);
    let item = WorkItem::Knn {
        source: from,
        source_pt,
        k,
        oracle: oracle.clone(),
    };
    let d = run(&programs, m, &item, &Tune::at(0), 0)?;
    let cycle_len = programs.ensure(m).cycle().map_or(0, |c| c.len());
    let tuning = d.stats.unwrap_or_default().tuning_packets;
    println!(
        "{} POIs on the network (every {}th node)",
        pois.len(),
        flags.poi_every.unwrap_or(50)
    );
    println!("{k} nearest to node {from}:");
    for (node, distance) in d.nodes.iter().zip(&oracle) {
        println!("  node {node:>8}  distance {distance:>10}");
    }
    println!(
        "tuning {tuning} of {cycle_len} cycle packets ({:.0}% pruned)",
        100.0 * (1.0 - tuning as f64 / cycle_len as f64),
    );
    println!("verified        : matches local Dijkstra");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<Flags, UsageError> {
        let args = args.iter().map(|s| s.to_string()).collect();
        Flags::parse(&mut Cli::new("spair", USAGE, args))
    }

    #[test]
    fn parses_long_and_short_flags() {
        let f = flags(&["map.gr", "--method", "nr", "-o", "out.gr"]).unwrap();
        assert_eq!(f.file().unwrap(), "map.gr");
        assert_eq!(f.method.as_deref(), Some("nr"));
        assert_eq!(f.out.as_deref(), Some("out.gr"));
    }

    #[test]
    fn later_flags_win() {
        let f = flags(&["--seed", "1", "--seed", "2"]).unwrap();
        assert_eq!(f.seed, Some(2));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let f = flags(&["map.gr"]).unwrap();
        assert_eq!(f.regions, None);
        assert_eq!(method(&f).unwrap(), MethodId::NR);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(flags(&["--seed"]).is_err());
    }

    #[test]
    fn bad_value_is_an_error() {
        assert!(flags(&["--scale", "abc"]).is_err());
    }

    #[test]
    fn unknown_flags_and_extra_arguments_are_errors() {
        assert!(flags(&["map.gr", "--nosuch", "1"]).is_err());
        assert!(flags(&["map.gr", "other.gr"]).is_err());
    }
}
