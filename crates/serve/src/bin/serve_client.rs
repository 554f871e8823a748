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
use spair_roadnet::certify::{Cli, UsageError};
use spair_roadnet::Point;
use spair_serve::client::{fetch_cycle, run_query, SessionConfig, Transport};
use std::time::Duration;

const USAGE: &str = "--addr HOST:PORT --method nr [--transport udp|tcp] \
                     [--offset N] [--max-wait-ms N] \
                     [--query SRC DST SX SY TX TY]";

/// The session to open, and the query to answer over its cycle (none in
/// probe mode).
fn parse_args(cli: &mut Cli) -> Result<(SessionConfig, Option<Query>), UsageError> {
    let mut addr = None;
    let mut method = "nr".to_string();
    let mut transport = Transport::Udp;
    let mut offset = 0;
    let mut max_wait_ms = 30_000;
    let mut query = None;
    while let Some(flag) = cli.next_arg() {
        match flag.as_str() {
            "--addr" => addr = Some(cli.parse("--addr")?),
            "--method" => method = cli.value("--method")?,
            "--transport" => {
                transport = match cli.value("--transport")?.as_str() {
                    "tcp" => Transport::Tcp,
                    "udp" => Transport::Udp,
                    other => return Err(UsageError(format!("unknown transport {other}"))),
                }
            }
            "--offset" => offset = cli.parse("--offset")?,
            "--max-wait-ms" => max_wait_ms = cli.parse("--max-wait-ms")?,
            "--query" => {
                let source = cli.parse("--query src")?;
                let target = cli.parse("--query dst")?;
                let (sx, sy) = (cli.parse("--query sx")?, cli.parse("--query sy")?);
                let (tx, ty) = (cli.parse("--query tx")?, cli.parse("--query ty")?);
                query = Some(Query {
                    source,
                    target,
                    source_pt: Point::new(sx, sy),
                    target_pt: Point::new(tx, ty),
                });
            }
            other => return Err(UsageError(format!("unknown flag {other}"))),
        }
    }
    let config = SessionConfig {
        addr: addr.ok_or_else(|| UsageError("--addr is required".into()))?,
        method,
        transport,
        offset,
        max_wait: Duration::from_millis(max_wait_ms),
    };
    Ok((config, query))
}

fn main() {
    let mut cli = Cli::from_env("serve_client", USAGE);
    let (config, query) = parse_args(&mut cli).unwrap_or_else(|e| cli.fail(e));
    let (method, transport) = (&config.method, config.transport.name());
    let line = match query {
        None => fetch_cycle(&config).map(|(cycle, _boot, m)| {
            format!(
                "probe method={method} transport={transport} session={} cycle_len={} \
                 frames_rx={} dups={} observed_drops={} bad_frames={} foreign_frames={} \
                 laps={} admission_us={} packets={}",
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
            )
        }),
        Some(q) => run_query(&config, &q).map(|(outcome, m)| {
            format!(
                "answer method={method} transport={transport} session={} distance={} \
                 path_len={} observed_drops={} laps={}",
                m.session,
                outcome.distance,
                outcome.path.len(),
                m.observed_drops,
                m.laps
            )
        }),
    };
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("serve_client: {e}");
            std::process::exit(1);
        }
    }
}
