//! Dynamic-world matrix runner and `BENCH_dynamic.json` emitter — the
//! live-weight-update trajectory point.
//!
//! ```text
//! cargo run --release -p spair-sim --bin bench_dynamic -- \
//!     [--smoke | --nightly] [--threads N] [--methods a,b,c] \
//!     [--out BENCH_dynamic.json]
//! ```
//!
//! Runs the dynamic matrix — seeded traffic perturbing a world across
//! broadcast cycle versions, every registered air method staying current
//! either by patching its received arena in place (NR, EB, DJ, A*, bidi)
//! or by rebuilding from a fresh full cycle (index-transforming methods)
//! — and differentially verifies **every (version × method) answer
//! against a fresh serial Dijkstra oracle for that version**. A serial
//! rerun must reproduce the parallel run byte-for-byte. **Exits non-zero
//! on any oracle mismatch or determinism break**, so CI can use it as a
//! gate. The JSON also reports whether the anchored incremental methods
//! (NR, EB) stayed current strictly cheaper per version than every
//! whole-cycle method — the partial-tuning advantage the dynamic axis
//! exists to demonstrate. `--methods` accepts only the dynamic-capable
//! methods. Flags, run order and exit codes are the shared ones of
//! `spair_roadnet::certify`.

use spair_roadnet::certify::{self, columns_partial, Certified, Cli, Envelope, Tier};
use spair_sim::{
    dynamic_matrix, dynamic_methods, nightly_dynamic_matrix, run_dynamic_matrix,
    smoke_dynamic_matrix, MethodRegistry,
};

fn main() {
    let full = dynamic_methods();
    let mut methods = full.clone();
    let mut cli = Cli::from_env(
        "bench_dynamic",
        "[--smoke | --nightly] [--threads N] [--methods a,b,c] [--out PATH]",
    );
    let args = cli.bench_args(&[Tier::Smoke, Tier::Nightly], |flag, cli| {
        if flag != "--methods" {
            return Ok(false);
        }
        methods = MethodRegistry::parse_list(&cli.value(flag)?, &full)?;
        Ok(true)
    });
    let specs = match args.tier {
        Tier::Smoke => smoke_dynamic_matrix(),
        Tier::Nightly => nightly_dynamic_matrix(),
        Tier::Default => dynamic_matrix(),
    };
    let out = args.out_path("BENCH_dynamic.json", columns_partial(&methods, &full));
    eprintln!(
        "# bench_dynamic — {} dynamic scenarios x {} methods, {} threads{}",
        specs.len(),
        methods.len(),
        args.threads,
        args.tier.suffix()
    );

    let cert = certify::certify(args.threads, |t| run_dynamic_matrix(&specs, &methods, t))
        .unwrap_or_else(|e| cli.fail(e));
    let matrix = &cert.report;
    eprint!("{}", matrix.render_table());

    let json = Envelope::new("dynamic_world_matrix")
        .field("smoke", args.smoke())
        .field("nightly", args.nightly())
        .field("scenarios", specs.len())
        .field("methods", methods.len())
        .field("cells", matrix.cells.len())
        .field("mismatches", matrix.total_mismatches())
        .field("all_exact", matrix.all_exact())
        .field(
            "partial_tuning_advantage",
            matrix.partial_tuning_advantage(),
        )
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
