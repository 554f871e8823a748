//! Population-scale load runner and `BENCH_load.json` emitter — the
//! million-tune-in trajectory point.
//!
//! ```text
//! cargo run --release -p spair-load --bin bench_load -- \
//!     [--smoke] [--threads N] [--population N] [--scale F] [--out BENCH_load.json]
//! ```
//!
//! Serves the default load matrix (or the small `--smoke` gate): for
//! every (scenario × method) cell, N clients tune in at seeded random
//! offsets against one shared air cycle, and streaming histograms
//! aggregate per-client access latency, tuning time and radio energy
//! into p50/p95/p99/max. `--scale` resizes the paper-scale germany-class
//! network (1.0 → 100k nodes); `--population` overrides the per-cell
//! client count (lossless cells exactly, lossy cells capped). Worker
//! precedence: `--threads` beats `SPAIR_THREADS` beats detection.
//!
//! The serving phase re-runs single-threaded to certify the parallel
//! fan-out is bit-identical. **Exits non-zero on any oracle mismatch,
//! session failure or determinism break**, so CI can use it as a gate.
//!
//! `--transport socket` switches to the real serving stack: a
//! `spair-serve` daemon on a loopback port, client sessions on worker
//! threads over UDP and TCP, emitting `BENCH_serve.json`
//! (`--events DIR` places the daemons' JSONL event logs). Every lossless
//! socket cell's answer digest must equal the in-process reference.
//!
//! Flags, run order and exit codes are the shared ones of
//! `spair_roadnet::certify`.

use spair_load::spec::override_population;
use spair_load::{
    default_load_matrix, override_flash_population, prepare, run, run_socket_bench,
    smoke_load_matrix, SocketBenchConfig,
};
use spair_roadnet::certify::{self, object, BenchArgs, Certified, Cli, Envelope, Tier, UsageError};
use std::time::Instant;

/// The load-specific knobs that resize a run.
struct Overrides {
    scale: f64,
    population: Option<usize>,
    flash_population: Option<usize>,
}

impl Overrides {
    /// A run may refresh a committed artifact only at scale 1.0 with the
    /// specs' own populations; a resized network or an overridden client
    /// count is a partial run redirected to `*.smoke.json`.
    fn partial_reason(&self) -> Option<&'static str> {
        if self.scale != 1.0 {
            Some("--scale")
        } else if self.population.is_some() {
            Some("--population-override")
        } else if self.flash_population.is_some() {
            Some("--flash-population-override")
        } else {
            None
        }
    }
}

fn main() {
    let mut o = Overrides {
        scale: 1.0,
        population: None,
        flash_population: None,
    };
    let mut socket = false;
    let mut events = None;
    let mut cli = Cli::new(
        "bench_load",
        "[--smoke] [--threads N] [--population N] [--flash-population N] [--scale F] \
         [--transport channel|socket] [--events DIR] [--out PATH]",
        std::env::args().skip(1).collect(),
    );
    let args = cli.bench_args(&[Tier::Smoke], |flag, cli| {
        match flag {
            "--scale" => {
                o.scale = cli.parse(flag)?;
                if !o.scale.is_finite() || o.scale <= 0.0 {
                    return Err(UsageError("--scale must be > 0".into()));
                }
            }
            "--population" => o.population = Some(cli.positive(flag)?),
            "--flash-population" => o.flash_population = Some(cli.positive(flag)?),
            "--transport" => {
                socket = match cli.value(flag)?.as_str() {
                    "channel" => false,
                    "socket" => true,
                    other => {
                        return Err(UsageError(format!(
                            "--transport expects channel|socket, got {other}"
                        )))
                    }
                }
            }
            "--events" => events = Some(cli.value(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    });
    let code = if socket {
        run_socket_main(&args, &o, events)
    } else {
        run_channel_main(&args, &o).unwrap_or_else(|e| cli.fail(e))
    };
    std::process::exit(code);
}

/// The socket-transport path: real loopback daemons, client sessions on
/// worker threads, `BENCH_serve.json`. Fails if any lossless cell's
/// digest diverges from the in-process reference or any cell —
/// contention included — produced a wrong answer. Its digest folds only
/// worker-count-invariant columns, so there is no serial rerun.
fn run_socket_main(args: &BenchArgs, o: &Overrides, events: Option<String>) -> i32 {
    let out = args.out_path("BENCH_serve.json", o.partial_reason());
    let events_dir = events.unwrap_or_else(|| "target/serve-bench".to_string());
    let config = SocketBenchConfig {
        smoke: args.smoke(),
        threads: args.threads,
        population: o.population,
        events_dir: events_dir.clone().into(),
    };
    eprintln!(
        "# bench_load --transport socket — {} worker threads, events under {events_dir}{}",
        args.threads,
        args.tier.suffix()
    );
    let start = Instant::now();
    let report = run_socket_bench(&config);
    let wall_secs = start.elapsed().as_secs_f64();
    eprint!("{}", report.render_table());

    let digest = report.digest();
    let all_match = report.all_match();
    eprintln!(
        "cells: {}  all_match: {all_match}  digest: {digest:016x}",
        report.cells.len()
    );

    let sc = &report.scenario;
    let methods: Vec<String> = sc.methods.iter().map(|m| format!("\"{m}\"")).collect();
    let d = &report.daemon;
    let json = Envelope::new("broadcast_serve_socket")
        .field("smoke", args.smoke())
        .field("grid", format!("[{}, {}]", sc.grid.0, sc.grid.1))
        .field("regions", sc.regions)
        .field("seed", sc.seed)
        .field("methods", format!("[{}]", methods.join(", ")))
        .field("population_per_cell", o.population.unwrap_or(sc.population))
        .field("threads", report.threads)
        .field("all_match", all_match)
        .field("digest", format!("\"{digest:016x}\""))
        .field(
            "daemon",
            object(&[
                ("sessions", d.sessions.to_string()),
                ("rejections", d.rejections.to_string()),
                ("evictions", d.evictions.to_string()),
                ("injected_drops", d.injected_drops.to_string()),
                ("backpressure_drops", d.backpressure_drops.to_string()),
                ("frames_sent", d.frames_sent.to_string()),
                // Frames sent over slots owed: timing-dependent, so it
                // stays out of the digest.
                (
                    "laps_sent",
                    object(&[
                        ("tcp", format!("{:.3}", d.tcp.laps_sent())),
                        ("udp", format!("{:.3}", d.udp.laps_sent())),
                    ]),
                ),
                // Datagrams per send: timing-dependent like `laps_sent`,
                // and outside the digest. A TCP write carries none.
                (
                    "datagrams_per_send",
                    object(&[
                        ("tcp", format!("{:.3}", d.tcp.datagrams_per_send())),
                        ("udp", format!("{:.3}", d.udp.datagrams_per_send())),
                    ]),
                ),
                ("dead_letters", d.dead_letters.to_string()),
                ("events", d.events.to_string()),
            ]),
        )
        .secs("wall_secs", wall_secs)
        .field("cells", report.cells_json())
        .finish();
    let verdict = if all_match {
        Ok(())
    } else {
        Err("SERVE CONFORMANCE FAILURE: socket answers diverged from in-process".to_string())
    };
    certify::publish(&out, &json, verdict, true)
}

/// The in-process channel path behind `BENCH_load.json`: prepare once,
/// then serve the population under the certified run order.
fn run_channel_main(args: &BenchArgs, o: &Overrides) -> Result<i32, UsageError> {
    let out = args.out_path("BENCH_load.json", o.partial_reason());
    let mut specs = if args.smoke() {
        smoke_load_matrix()
    } else {
        default_load_matrix(o.scale)
    };
    if let Some(n) = o.population {
        override_population(&mut specs, n);
    }
    // After --population, so an explicit flash override wins the cap.
    if let Some(n) = o.flash_population {
        override_flash_population(&mut specs, n);
    }
    let cells: usize = specs.iter().map(|s| s.methods.len()).sum();
    eprintln!(
        "# bench_load — {} scenarios, {} cells, {} threads{}",
        specs.len(),
        cells,
        args.threads,
        args.tier.suffix()
    );

    let start = Instant::now();
    let prep = prepare(&specs, args.threads);
    let prepare_secs = start.elapsed().as_secs_f64();
    eprintln!(
        "prepared {} cells ({} profile sessions) in {prepare_secs:.2}s",
        prep.cells().len(),
        prep.profile_sessions()
    );
    for (i, cell) in prep.cells().iter().enumerate() {
        if cell.profile_sessions() > 0 {
            eprintln!(
                "  {:<38} {:>5} profile sessions in {:.2}s",
                prep.cell_label(i),
                cell.profile_sessions(),
                cell.profile_secs()
            );
        }
    }

    // The serial rerun serves the same prepared state single-threaded.
    let cert = certify::certify(args.threads, |t| run(&prep, t))?;
    let report = &cert.report;
    eprint!("{}", report.render_table());

    let json = Envelope::new("broadcast_load_population")
        .field("smoke", args.smoke())
        .field("scale", format!("{:.3}", o.scale))
        .field("scenarios", specs.len())
        .field("cells", report.cells.len())
        .field("population_total", report.total(|c| c.population))
        .field("profile_sessions", prep.profile_sessions())
        .field("mismatches", report.total(|c| c.tally.wrong + c.failures()))
        .field(
            "typed_failures",
            report.total(|c| c.fault.as_ref().map_or(0, |_| c.tally.typed())),
        )
        .field("all_exact", report.passes())
        .certificate(cert.digest, cert.bit_identical, args.threads)
        .secs("prepare_secs", prepare_secs)
        .secs("serve_secs", cert.secs)
        .secs("serial_serve_secs", cert.serial_secs)
        .field("cells_detail", report.artifact_json())
        .finish();
    Ok(certify::publish(
        &out,
        &json,
        report.verdict(),
        cert.bit_identical,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full() -> Overrides {
        Overrides {
            scale: 1.0,
            population: None,
            flash_population: None,
        }
    }

    #[test]
    fn resized_runs_never_shadow_the_committed_artifacts() {
        assert_eq!(full().partial_reason(), None);
        let o = Overrides {
            scale: 0.25,
            ..full()
        };
        assert_eq!(o.partial_reason(), Some("--scale"));
        let o = Overrides {
            population: Some(1000),
            ..full()
        };
        assert_eq!(o.partial_reason(), Some("--population-override"));
        let o = Overrides {
            flash_population: Some(1000),
            ..full()
        };
        assert_eq!(o.partial_reason(), Some("--flash-population-override"));
        // The socket transport's BENCH_serve.json shares the guard.
        let args = BenchArgs {
            tier: Tier::Default,
            threads: 1,
            out: None,
        };
        assert_eq!(
            args.out_path("BENCH_serve.json", o.partial_reason()),
            "BENCH_serve.smoke.json"
        );
    }
}
