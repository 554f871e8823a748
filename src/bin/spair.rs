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
use spair::roadnet::{self, Distance, NodeId};
use spair_methods::{MethodId, MethodRegistry, ProgramSet, Tuning, World};
use spair_sim::{
    drive, Device, Driven, FaultSource, LossSpec, Tune, TuneInSpec, Verdict, WorkItem,
};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "generate" => generate(rest),
        "inspect" => inspect(rest),
        "serve" => serve(rest),
        "query" => query(rest),
        "knn" => knn(rest),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    };
    match result {
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

/// Tiny flag parser: `--key value` pairs plus positionals.
struct Flags {
    positional: Vec<String>,
    pairs: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .or_else(|| a.strip_prefix('-').filter(|k| k.len() == 1));
            if let Some(key) = key {
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                pairs.push((key.to_string(), value.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Self { positional, pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value '{v}'")),
        }
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("--{key} is required"))
    }

    fn file(&self) -> Result<&str, String> {
        self.positional
            .first()
            .map(String::as_str)
            .ok_or_else(|| "a network file is required".to_string())
    }
}

fn load(path: &str) -> Result<RoadNetwork, String> {
    let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    roadnet::io::read_text(BufReader::new(f)).map_err(|e| format!("{path}: {e}"))
}

fn generate(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let preset = match flags.require("preset")?.to_ascii_lowercase().as_str() {
        "milan" => NetworkPreset::Milan,
        "germany" => NetworkPreset::Germany,
        "argentina" => NetworkPreset::Argentina,
        "india" => NetworkPreset::India,
        "sanfrancisco" | "san-francisco" | "sf" => NetworkPreset::SanFrancisco,
        other => return Err(format!("unknown preset '{other}'")),
    };
    let scale: f64 = flags.get_parsed("scale", 1.0)?;
    let seed: u64 = flags.get_parsed("seed", 42)?;
    let out = flags.require("o")?;
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

fn inspect(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
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
fn programs(g: RoadNetwork, flags: &Flags) -> Result<ProgramSet, String> {
    let regions: usize = flags.get_parsed("regions", 32)?;
    let every: usize = flags.get_parsed("poi-every", 50)?;
    let pois: Vec<NodeId> = g.node_ids().step_by(every.max(1)).collect();
    let part = KdTreePartition::build(&g, regions);
    let pre = BorderPrecomputation::run(&g, &part);
    let tuning = Tuning {
        af_regions: Some(regions.min(16)),
        ..Tuning::default()
    };
    Ok(ProgramSet::new(
        World::from_parts(g, part, pre)
            .with_pois(pois)
            .with_tuning(tuning),
    ))
}

/// The `--method` flag's registry entry.
fn method(flags: &Flags) -> Result<MethodId, String> {
    let name = flags.get("method").unwrap_or("nr").to_ascii_lowercase();
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

fn serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let m = method(&flags)?;
    let programs = programs(load(flags.file()?)?, &flags)?;
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

fn query(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let g = load(flags.file()?)?;
    let from: NodeId = flags.get_parsed("from", NodeId::MAX)?;
    let to: NodeId = flags.get_parsed("to", NodeId::MAX)?;
    if from == NodeId::MAX || to == NodeId::MAX {
        return Err("--from and --to are required".into());
    }
    if from as usize >= g.num_nodes() || to as usize >= g.num_nodes() {
        return Err(format!("node ids must be < {}", g.num_nodes()));
    }
    let m = method(&flags)?;
    if m.descriptor().knn {
        return Err(format!("{m} answers kNN queries: use `spair knn`"));
    }
    let loss: f64 = flags.get_parsed("loss", 0.0)?;
    let seed: u64 = flags.get_parsed("seed", 1)?;
    let oracle = roadnet::dijkstra_distance(&g, from, to)
        .ok_or_else(|| format!("node {to} is unreachable from node {from}"))?;
    let query = Query::for_nodes(&g, from, to);
    let programs = programs(g, &flags)?;
    let cycle_len = programs.ensure(m).cycle().map_or(1, |c| c.len());
    let tune = Tune {
        tune_in: TuneInSpec::At(flags.get_parsed("offset", cycle_len / 3)?),
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

fn knn(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let g = load(flags.file()?)?;
    let from: NodeId = flags.get_parsed("from", NodeId::MAX)?;
    if from == NodeId::MAX || from as usize >= g.num_nodes() {
        return Err("--from is required and must be a valid node id".into());
    }
    let k: usize = flags.get_parsed("k", 3)?;
    let m = MethodId::KNN_AIR;
    let tree = roadnet::dijkstra_full(&g, from);
    let source_pt = g.point(from);
    let programs = programs(g, &flags)?;
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
        flags.get_parsed("poi-every", 50)?
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
    use super::Flags;

    fn flags(args: &[&str]) -> Flags {
        Flags::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn parses_long_and_short_flags() {
        let f = flags(&["map.gr", "--method", "nr", "-o", "out.gr"]);
        assert_eq!(f.file().unwrap(), "map.gr");
        assert_eq!(f.get("method"), Some("nr"));
        assert_eq!(f.get("o"), Some("out.gr"));
    }

    #[test]
    fn later_flags_win() {
        let f = flags(&["--seed", "1", "--seed", "2"]);
        assert_eq!(f.get_parsed::<u64>("seed", 0).unwrap(), 2);
    }

    #[test]
    fn defaults_apply_when_absent() {
        let f = flags(&["map.gr"]);
        assert_eq!(f.get_parsed::<usize>("regions", 32).unwrap(), 32);
        assert!(f.require("method").is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        let args = vec!["--seed".to_string()];
        assert!(Flags::parse(&args).is_err());
    }

    #[test]
    fn bad_value_is_an_error() {
        let f = flags(&["--scale", "abc"]);
        assert!(f.get_parsed::<f64>("scale", 1.0).is_err());
    }
}
