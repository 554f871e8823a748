//! Conformance-matrix runner and `BENCH_scenarios.json` emitter — the
//! scenario-coverage trajectory point.
//!
//! ```text
//! cargo run --release -p spair-sim --bin bench_scenarios -- \
//!     [--smoke | --nightly] [--threads N] [--methods a,b,c] \
//!     [--list-methods] [--out BENCH_scenarios.json]
//! ```
//!
//! Runs the default matrix (or the small `--smoke` gate) over **every
//! registered client method** — the column set comes from
//! `spair_methods::MethodRegistry`, so newly registered methods appear
//! without edits here — verifies each answer against the serial Dijkstra
//! oracle, re-runs the matrix serially to certify the parallel fan-out is
//! bit-identical, and writes the measurements as JSON. `--methods`
//! restricts the columns to a comma-separated name list (CI uses it to
//! pin the nine legacy methods' digest across refactors);
//! `--list-methods` prints the registry and exits. **Exits non-zero on
//! any conformance mismatch or determinism break**, so CI can use it as
//! a gate. Flags, run order and exit codes are the shared ones of
//! `spair_roadnet::certify`.

use spair_roadnet::certify::{self, columns_partial, Certified, Cli, Envelope, Tier};
use spair_sim::{
    default_matrix, nightly_matrix, run_matrix, smoke_matrix, MethodId, MethodRegistry,
};

fn list_methods(methods: &[MethodId]) -> String {
    let mut out = format!(
        "{:<3} {:<14} {:<12} {:<11} {}\n",
        "#", "name", "label", "shape", "capabilities"
    );
    for &m in methods {
        let d = m.descriptor();
        let mut caps: Vec<&str> = Vec::new();
        if d.air_client {
            caps.push("air_client");
        }
        if d.knn {
            caps.push("knn");
        }
        if d.on_edge {
            caps.push("on_edge");
        }
        if d.population_replayable {
            caps.push("replayable");
        }
        if !d.own_channel {
            caps.push("no_own_channel");
        }
        out.push_str(&format!(
            "{:<3} {:<14} {:<12} {:<11} {}\n",
            d.ordinal,
            d.name,
            d.label,
            d.shape.map(|s| format!("{s:?}")).unwrap_or_default(),
            caps.join(","),
        ));
    }
    out
}

fn main() {
    let full = MethodRegistry::standard().all();
    let mut methods = full.clone();
    let mut cli = Cli::from_env(
        "bench_scenarios",
        "[--smoke | --nightly] [--threads N] [--methods a,b,c] [--list-methods] [--out PATH]",
    );
    let args = cli.bench_args(&[Tier::Smoke, Tier::Nightly], |flag, cli| {
        match flag {
            "--methods" => methods = MethodRegistry::parse_list(&cli.value(flag)?, &full)?,
            "--list-methods" => {
                print!("{}", list_methods(&full));
                std::process::exit(0);
            }
            _ => return Ok(false),
        }
        Ok(true)
    });
    let specs = match args.tier {
        Tier::Smoke => smoke_matrix(),
        Tier::Nightly => nightly_matrix(),
        Tier::Default => default_matrix(),
    };
    let out = args.out_path("BENCH_scenarios.json", columns_partial(&methods, &full));
    eprintln!(
        "# bench_scenarios — {} scenarios x {} methods, {} threads{}",
        specs.len(),
        methods.len(),
        args.threads,
        args.tier.suffix()
    );
    // The run's own column set (not the whole registry) — so restricted
    // runs (`--methods`) stay self-documenting in the logs.
    eprint!("{}", list_methods(&methods));

    let cert = certify::certify(args.threads, |t| run_matrix(&specs, &methods, t))
        .unwrap_or_else(|e| cli.fail(e));
    let matrix = &cert.report;
    eprint!("{}", matrix.render_table());

    let json = Envelope::new("scenario_conformance_matrix")
        .field("smoke", args.smoke())
        .field("nightly", args.nightly())
        .field("scenarios", specs.len())
        .field("methods", methods.len())
        .field("cells", matrix.cells.len())
        .field("mismatches", matrix.total_mismatches())
        .field("all_exact", matrix.all_exact())
        .certificate(cert.digest, cert.bit_identical, args.threads)
        .secs("parallel_secs", cert.secs)
        .secs("serial_secs", cert.serial_secs)
        .field("matrix", matrix.artifact_json())
        .finish();
    std::process::exit(certify::publish(
        &out,
        &json,
        matrix.verdict(),
        cert.bit_identical,
    ));
}
