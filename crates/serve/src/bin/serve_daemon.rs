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
use spair_roadnet::generators::small_grid;
use spair_serve::daemon::{DropPlan, ServeDaemon, ServeOptions, ServeWorld};
use spair_serve::signal;
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    addr: String,
    grid: (usize, usize),
    regions: usize,
    seed: u64,
    methods: Vec<MethodId>,
    events: PathBuf,
    dead_letter: PathBuf,
    max_laps: u32,
    stall_ms: u64,
    drop_permille: u16,
    drop_laps: u32,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            grid: (12, 12),
            regions: 16,
            seed: 9301,
            methods: MethodRegistry::standard().air_methods(),
            events: PathBuf::from("serve.events.jsonl"),
            dead_letter: PathBuf::from("serve.deadletter.jsonl"),
            max_laps: 64,
            stall_ms: 1500,
            drop_permille: 0,
            drop_laps: 0,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = val("--addr")?,
            "--grid" => {
                let w = val("--grid")?.parse().map_err(|e| format!("--grid: {e}"))?;
                let h = val("--grid")?.parse().map_err(|e| format!("--grid: {e}"))?;
                args.grid = (w, h);
            }
            "--regions" => {
                args.regions = val("--regions")?
                    .parse()
                    .map_err(|e| format!("--regions: {e}"))?
            }
            "--seed" => args.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--methods" => {
                let air = MethodRegistry::standard().air_methods();
                args.methods = MethodRegistry::parse_list(&val("--methods")?, &air)
                    .map_err(|e| e.to_string())?
            }
            "--events" => args.events = PathBuf::from(val("--events")?),
            "--dead-letter" => args.dead_letter = PathBuf::from(val("--dead-letter")?),
            "--max-laps" => {
                args.max_laps = val("--max-laps")?
                    .parse()
                    .map_err(|e| format!("--max-laps: {e}"))?
            }
            "--stall-ms" => {
                args.stall_ms = val("--stall-ms")?
                    .parse()
                    .map_err(|e| format!("--stall-ms: {e}"))?
            }
            "--drop-permille" => {
                args.drop_permille = val("--drop-permille")?
                    .parse()
                    .map_err(|e| format!("--drop-permille: {e}"))?
            }
            "--drop-laps" => {
                args.drop_laps = val("--drop-laps")?
                    .parse()
                    .map_err(|e| format!("--drop-laps: {e}"))?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("serve_daemon: {e}");
            std::process::exit(2);
        }
    };

    let g = small_grid(args.grid.0, args.grid.1, args.seed);
    let part = KdTreePartition::build(&g, args.regions);
    let pre = BorderPrecomputation::run(&g, &part);
    let programs = ProgramSet::new(World::from_parts(g, part, pre));
    let world = ServeWorld::from_program_set(&programs, &args.methods);
    if world.channels().is_empty() {
        eprintln!("serve_daemon: no servable channels among requested methods");
        std::process::exit(2);
    }

    let opts = ServeOptions {
        addr: args.addr.clone(),
        max_laps: args.max_laps,
        stall: Duration::from_millis(args.stall_ms),
        drop_plan: (args.drop_permille > 0).then_some(DropPlan {
            permille: args.drop_permille,
            laps: args.drop_laps.max(1),
        }),
        events_path: args.events.clone(),
        dead_letter_path: args.dead_letter.clone(),
    };

    signal::install_handlers();
    let daemon = match ServeDaemon::start(world, opts) {
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
