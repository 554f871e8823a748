//! Chaos-matrix runner and `BENCH_faults.json` emitter — the
//! never-wrong-only-late-or-typed certificate.
//!
//! ```text
//! cargo run --release -p spair-sim --bin bench_faults -- \
//!     [--smoke | --nightly] [--threads N] [--methods a,b,c] \
//!     [--out BENCH_faults.json]
//! ```
//!
//! Runs the chaos matrix — every fault class of the broadcast fault
//! layer, over every registered client method — through bounded-recovery
//! supervised sessions, and certifies per cell that **no produced answer
//! ever contradicts the serial Dijkstra oracle**, that every give-up is
//! a typed `SessionError`, and that every session terminated within the
//! recovery budget. A serial rerun must reproduce the parallel run
//! byte-for-byte (same digest for every thread count). **Exits non-zero
//! on any wrong answer, budget violation or determinism break**, so CI
//! can use it as a gate. Flags, run order and exit codes are the shared
//! ones of `spair_roadnet::certify`.

use spair_roadnet::certify::{self, columns_partial, Certified, Cli, Envelope, Tier};
use spair_sim::{
    fault_matrix, nightly_fault_matrix, run_fault_matrix, smoke_fault_matrix, MethodRegistry,
};

fn main() {
    let full = MethodRegistry::standard().all();
    let mut methods = full.clone();
    let mut cli = Cli::from_env(
        "bench_faults",
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
        Tier::Smoke => smoke_fault_matrix(),
        Tier::Nightly => nightly_fault_matrix(),
        Tier::Default => fault_matrix(),
    };
    let out = args.out_path("BENCH_faults.json", columns_partial(&methods, &full));
    eprintln!(
        "# bench_faults — {} fault scenarios x {} methods, {} threads{}",
        specs.len(),
        methods.len(),
        args.threads,
        args.tier.suffix()
    );

    let cert = certify::certify(args.threads, |t| run_fault_matrix(&specs, &methods, t))
        .unwrap_or_else(|e| cli.fail(e));
    let matrix = &cert.report;
    eprint!("{}", matrix.render_table());

    let json = Envelope::new("fault_chaos_matrix")
        .field("smoke", args.smoke())
        .field("nightly", args.nightly())
        .field("scenarios", specs.len())
        .field("methods", methods.len())
        .field("cells", matrix.cells.len())
        .field("wrong_answers", matrix.total_wrong())
        .field("typed_failures", matrix.total_typed_failures())
        .field("never_wrong_only_late_or_typed", matrix.all_certified())
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
