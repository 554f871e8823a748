//! A standalone client process for the serving daemon: tunes in over a
//! real socket, downloads one full cycle, and either reports transfer
//! stats (probe mode) or answers a query with the registry's remote
//! client.
//!
//! ```text
//! serve_client --addr HOST:PORT --method nr [--transport udp|tcp]
//!              [--offset N] [--max-wait-ms N]
//!              [--query SRC DST SX SY TX TY]
//! ```
//!
//! Probe mode prints one `probe` line; query mode prints one `answer`
//! line with the distance and path length. Exit codes: 0 success,
//! 1 session failure (typed reason on stderr), 2 usage error.

use spair_core::query::Query;
use spair_roadnet::Point;
use spair_serve::client::{fetch_cycle, run_query, SessionConfig, Transport};
use std::net::SocketAddr;
use std::time::Duration;

struct Args {
    addr: Option<SocketAddr>,
    method: String,
    transport: Transport,
    offset: u64,
    max_wait_ms: u64,
    query: Option<Query>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            addr: None,
            method: "nr".into(),
            transport: Transport::Udp,
            offset: 0,
            max_wait_ms: 30_000,
            query: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => {
                args.addr = Some(val("--addr")?.parse().map_err(|e| format!("--addr: {e}"))?)
            }
            "--method" => args.method = val("--method")?,
            "--transport" => {
                args.transport = match val("--transport")?.as_str() {
                    "tcp" => Transport::Tcp,
                    "udp" => Transport::Udp,
                    other => return Err(format!("unknown transport {other}")),
                }
            }
            "--offset" => {
                args.offset = val("--offset")?
                    .parse()
                    .map_err(|e| format!("--offset: {e}"))?
            }
            "--max-wait-ms" => {
                args.max_wait_ms = val("--max-wait-ms")?
                    .parse()
                    .map_err(|e| format!("--max-wait-ms: {e}"))?
            }
            "--query" => {
                let mut f = |name: &str| -> Result<f64, String> {
                    val(name)?
                        .parse::<f64>()
                        .map_err(|e| format!("{name}: {e}"))
                };
                let source = f("--query src")? as u32;
                let target = f("--query dst")? as u32;
                let (sx, sy) = (f("--query sx")?, f("--query sy")?);
                let (tx, ty) = (f("--query tx")?, f("--query ty")?);
                args.query = Some(Query {
                    source,
                    target,
                    source_pt: Point::new(sx, sy),
                    target_pt: Point::new(tx, ty),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.addr.is_none() {
        return Err("--addr is required".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("serve_client: {e}");
            std::process::exit(2);
        }
    };
    let config = SessionConfig {
        addr: args.addr.expect("validated"),
        method: args.method.clone(),
        transport: args.transport,
        offset: args.offset,
        max_wait: Duration::from_millis(args.max_wait_ms),
    };

    match args.query {
        None => match fetch_cycle(&config) {
            Ok((cycle, _boot, m)) => {
                println!(
                    "probe method={} transport={} session={} cycle_len={} frames_rx={} \
                     dups={} observed_drops={} bad_frames={} foreign_frames={} laps={} \
                     admission_us={} packets={}",
                    args.method,
                    args.transport.name(),
                    m.session,
                    m.cycle_len,
                    m.frames_rx,
                    m.dups,
                    m.observed_drops,
                    m.bad_frames,
                    m.foreign_frames,
                    m.laps,
                    m.admission_us,
                    cycle.len()
                );
            }
            Err(e) => {
                eprintln!("serve_client: {e}");
                std::process::exit(1);
            }
        },
        Some(q) => match run_query(&config, &q) {
            Ok((outcome, m)) => {
                println!(
                    "answer method={} transport={} session={} distance={} path_len={} \
                     observed_drops={} laps={}",
                    args.method,
                    args.transport.name(),
                    m.session,
                    outcome.distance,
                    outcome.path.len(),
                    m.observed_drops,
                    m.laps
                );
            }
            Err(e) => {
                eprintln!("serve_client: {e}");
                std::process::exit(1);
            }
        },
    }
}
