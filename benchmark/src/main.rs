//! `spair-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! [--smoke] [--spans PATH]`
//!
//! Runs one workload and prints its metrics; the last stdout line is the
//! JSON result. Exits 1 when any answer contradicts its oracle or any
//! session fails (beyond `serve_socket`'s tolerated ones), and 2 on a
//! usage or set-up error.

use spair_benchmark::report::Report;
use spair_benchmark::run::Run;
use spair_benchmark::run_workload;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: spair-benchmark --workload NAME [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke] [--spans PATH]";

fn parse(args: &[String]) -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        smoke: false,
        epoch: Instant::now(),
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            run.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(run.seconds > 0.0 && run.seconds.is_finite()) {
                    return Err(bad(&"must be a positive number of seconds"));
                }
            }
            "--trace" => {
                run.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--spans" => run.spans = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if run.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(run)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let outcome = match run_workload(&run.workload, &run, &mut report) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", run.workload);
            return ExitCode::from(2);
        }
    };
    let correct = outcome.wrong == 0;
    match report.render(
        run.traced,
        outcome.attempted,
        outcome.failed + outcome.wrong,
        correct,
    ) {
        Ok(text) => println!("{text}"),
        Err(e) => {
            eprintln!("{}: {e}", run.workload);
            return ExitCode::from(2);
        }
    }
    if outcome.passed() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{}: {} wrong answers, {} failed sessions ({} tolerated)",
            run.workload, outcome.wrong, outcome.failed, outcome.tolerated
        );
        ExitCode::from(1)
    }
}
