//! The serving daemon binary: build a world, assemble the requested
//! methods' cycles, and stream them to socket clients until a shutdown
//! signal arrives.
//!
//! ```text
//! serve_daemon [--addr 127.0.0.1:0] [--grid W H] [--regions N]
//!              [--seed S] [--methods nr,eb,dj] [--events PATH]
//!              [--dead-letter PATH] [--max-laps N] [--stall-ms N]
//!              [--drop-permille N] [--drop-laps N]
//! ```
//!
//! On startup it prints exactly one `listening on ADDR` line to stdout
//! (harnesses parse it to learn the ephemeral port). On SIGINT/SIGTERM
//! it closes every session with a typed reason, flushes + fsyncs the
//! event log, prints a `stopped` summary line and exits 0.

use spair_core::BorderPrecomputation;
use spair_methods::{MethodId, MethodRegistry, ProgramSet, World};
use spair_partition::KdTreePartition;
use spair_roadnet::certify::{Cli, UsageError};
use spair_roadnet::generators::small_grid;
use spair_serve::daemon::{DropPlan, ServeDaemon, ServeOptions, ServeWorld};
use spair_serve::signal;
use std::path::Path;
use std::time::Duration;

const USAGE: &str = "[--addr 127.0.0.1:0] [--grid W H] [--regions N] \
                     [--seed S] [--methods nr,eb,dj] [--events PATH] \
                     [--dead-letter PATH] [--max-laps N] [--stall-ms N] \
                     [--drop-permille N] [--drop-laps N]";

struct Args {
    grid: (usize, usize),
    regions: usize,
    seed: u64,
    methods: Vec<MethodId>,
    opts: ServeOptions,
}

fn parse_args(cli: &mut Cli) -> Result<Args, UsageError> {
    let mut args = Args {
        grid: (12, 12),
        regions: 16,
        seed: 9301,
        methods: MethodRegistry::standard().air_methods(),
        // `127.0.0.1:0`, 64 laps, a 1 500 ms stall, logs in the working
        // directory.
        opts: ServeOptions::in_dir(Path::new("")),
    };
    let (mut drop_permille, mut drop_laps) = (0, 0);
    while let Some(flag) = cli.next_arg() {
        let opts = &mut args.opts;
        match flag.as_str() {
            "--addr" => opts.addr = cli.value("--addr")?,
            "--grid" => args.grid = (cli.parse("--grid")?, cli.parse("--grid")?),
            "--regions" => args.regions = cli.parse("--regions")?,
            "--seed" => args.seed = cli.parse("--seed")?,
            "--methods" => {
                let air = MethodRegistry::standard().air_methods();
                args.methods = MethodRegistry::parse_list(&cli.value("--methods")?, &air)
                    .map_err(|e| UsageError(e.to_string()))?
            }
            "--events" => opts.events_path = cli.value("--events")?.into(),
            "--dead-letter" => opts.dead_letter_path = cli.value("--dead-letter")?.into(),
            "--max-laps" => opts.max_laps = cli.parse("--max-laps")?,
            "--stall-ms" => opts.stall = Duration::from_millis(cli.parse("--stall-ms")?),
            "--drop-permille" => drop_permille = cli.parse("--drop-permille")?,
            "--drop-laps" => drop_laps = cli.parse("--drop-laps")?,
            other => return Err(UsageError(format!("unknown flag {other}"))),
        }
    }
    args.opts.drop_plan = (drop_permille > 0).then_some(DropPlan {
        permille: drop_permille,
        laps: drop_laps.max(1),
    });
    Ok(args)
}

fn main() {
    let mut cli = Cli::from_env("serve_daemon", USAGE);
    let args = parse_args(&mut cli).unwrap_or_else(|e| cli.fail(e));

    let g = small_grid(args.grid.0, args.grid.1, args.seed);
    let part = KdTreePartition::build(&g, args.regions);
    let pre = BorderPrecomputation::run(&g, &part);
    let programs = ProgramSet::new(World::from_parts(g, part, pre));
    let world = ServeWorld::from_program_set(&programs, &args.methods);
    if world.channels().is_empty() {
        eprintln!("serve_daemon: no servable channels among requested methods");
        std::process::exit(2);
    }

    signal::install_handlers();
    let daemon = match ServeDaemon::start(world, args.opts) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("serve_daemon: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", daemon.local_addr());
    // Line-buffer flush so harnesses reading our stdout see it now.
    use std::io::Write;
    let _ = std::io::stdout().flush();

    while !signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }

    match daemon.shutdown() {
        Ok(s) => {
            println!(
                "stopped sessions={} rejections={} evictions={} injected_drops={} \
                 backpressure_drops={} frames_sent={} laps_sent_tcp={:.3} laps_sent_udp={:.3} \
                 datagrams_per_send_udp={:.3} dead_letters={} events={}",
                s.sessions,
                s.rejections,
                s.evictions,
                s.injected_drops,
                s.backpressure_drops,
                s.frames_sent,
                s.tcp.laps_sent(),
                s.udp.laps_sent(),
                s.udp.datagrams_per_send(),
                s.dead_letters,
                s.events
            );
        }
        Err(e) => {
            eprintln!("serve_daemon: shutdown flush failed: {e}");
            std::process::exit(1);
        }
    }
}
