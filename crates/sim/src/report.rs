//! Certified in-process matrices.
//!
//! A [`Matrix`] holds the rows of one run — conformance, chaos, dynamic
//! or load cells — and supplies what every bench binary needs of it: the
//! [`Certified`] impl (the digest over the rows' deterministic JSON), the
//! totals its envelope prints, the terminal table and the gate. Each row
//! type carries its cell's [`Tally`], renders its JSON fields and table
//! line from it, and names its [`Gate`], whose counts come from the
//! tally. [`MatrixBench`] is the shared `main` of the matrix binaries.
//!
//! One [`CellReport`] summarizes one (scenario × method) conformance
//! cell: how many queries ran, whether every answer matched the serial
//! Dijkstra oracle, and the aggregated §3.1 cost factors. All fields
//! except `cpu_ms` are pure functions of the scenario seed, so the
//! matrix's [`Certified::deterministic_json`] and digest are
//! byte-for-byte reproducible across runs and thread counts; wall-clock
//! CPU rides along in the full JSON for human consumption only.

use crate::drive::Tally;
use spair_methods::{MethodId, MethodRegistry};
use spair_roadnet::certify::{self, cells_json, columns_partial, Certified, Cli, Envelope, Tier};
use std::iter::Sum;

/// The gate a row answers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Every item exact: conformance cells, dynamic cells and non-flash
    /// load cells.
    Exact,
    /// Never wrong: no wrong item and none over budget, while typed
    /// give-ups are certified degradation. Chaos cells and flash cells.
    NeverWrong,
}

/// What each entry of [`Gate::failures`] counts.
const FAILURES: [&str; 3] = ["items not exact", "wrong answers", "budget violations"];

impl Gate {
    /// The counts of `t` that fail the gate, in [`FAILURES`] order; all
    /// zero when it passes.
    fn failures(self, t: &Tally) -> [usize; 3] {
        match self {
            Gate::Exact => [t.items - t.exact, 0, 0],
            Gate::NeverWrong => [0, t.wrong, t.over_budget],
        }
    }
}

/// One row of a certified matrix: a cell's tally and what it renders.
pub trait Row {
    /// The failing verdict line's prefix.
    const FAILURE: &'static str;
    /// The terminal table's header line.
    fn header() -> String;
    /// The row's terminal table line (or lines).
    fn line(&self) -> String;
    /// The row's comma-separated JSON fields; `timings` appends the
    /// wall-clock ones, which the digest excludes.
    fn json_fields(&self, timings: bool) -> String;
    /// The cell's items, folded.
    fn tally(&self) -> &Tally;
    /// The gate the row answers to.
    fn gate(&self) -> Gate;
    /// Whether the row passes its gate.
    fn passes(&self) -> bool {
        self.gate().failures(self.tally()) == [0; 3]
    }
}

/// The rows of one certified in-process run, in the order the harness
/// ran them.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<R> {
    /// Every cell.
    pub cells: Vec<R>,
}

impl<R: Row> Matrix<R> {
    /// Whether every row passes its gate — the matrix's gate.
    pub fn passes(&self) -> bool {
        self.cells.iter().all(Row::passes)
    }

    /// `count` summed over the rows: the totals the envelopes print.
    pub fn total<N: Sum>(&self, count: impl Fn(&R) -> N) -> N {
        self.cells.iter().map(count).sum()
    }

    /// A fixed-width text table (one row per cell) for terminal output.
    pub fn render_table(&self) -> String {
        let mut out = R::header();
        for c in &self.cells {
            out.push_str(&c.line());
        }
        out
    }
}

impl<R: Row> Certified for Matrix<R> {
    fn deterministic_json(&self) -> String {
        cells_json(&self.cells, |c| c.json_fields(false))
    }

    fn artifact_json(&self) -> String {
        cells_json(&self.cells, |c| c.json_fields(true))
    }

    fn cells(&self) -> usize {
        self.cells.len()
    }

    /// Fails with every count that failed some row's gate, by name.
    fn verdict(&self) -> Result<(), String> {
        let mut failed = [0; 3];
        for c in &self.cells {
            for (sum, n) in failed.iter_mut().zip(c.gate().failures(c.tally())) {
                *sum += n;
            }
        }
        let named: Vec<String> = FAILURES
            .iter()
            .zip(failed)
            .filter(|&(_, n)| n > 0)
            .map(|(name, n)| format!("{n} {name}"))
            .collect();
        if named.is_empty() {
            Ok(())
        } else {
            Err(format!("{}: {}", R::FAILURE, named.join(", ")))
        }
    }
}

/// The conformance matrix of one run: every (scenario × method) cell, in
/// scenario-major order.
pub type ConformanceMatrix = Matrix<CellReport>;

/// A matrix bench binary: `bench_scenarios`, `bench_faults` and
/// `bench_dynamic` differ only in these.
pub struct MatrixBench<S, R> {
    /// The binary's name, for usage and log lines.
    pub bin: &'static str,
    /// The artifact's `benchmark` name.
    pub benchmark: &'static str,
    /// The committed artifact a full run writes.
    pub artifact: &'static str,
    /// What the log header calls the specs.
    pub specs_noun: &'static str,
    /// The columns `--methods` picks from; all of them by default.
    pub methods: Vec<MethodId>,
    /// The specs of each tier.
    pub specs: fn(Tier) -> Vec<S>,
    /// Runs the matrix on a worker count.
    pub run: fn(&[S], &[MethodId], usize) -> Matrix<R>,
    /// The envelope's totals, between the cell count and the certificate.
    pub totals: fn(&Matrix<R>, Envelope) -> Envelope,
    /// The method table `--list-methods` prints and the log repeats, for
    /// a binary that offers it.
    pub list: Option<fn(&[MethodId]) -> String>,
}

impl<S, R: Row> MatrixBench<S, R> {
    /// Parses the shared flags and `--methods`, runs the tier's specs
    /// under the certified run order, prints the table, writes the
    /// artifact and exits with the shared codes of
    /// [`spair_roadnet::certify`].
    pub fn main(self) -> ! {
        let full = self.methods;
        let mut methods = full.clone();
        let usage = match self.list {
            Some(_) => "[--smoke | --nightly] [--threads N] [--methods a,b,c] [--list-methods] [--out PATH]",
            None => "[--smoke | --nightly] [--threads N] [--methods a,b,c] [--out PATH]",
        };
        let mut cli = Cli::from_env(self.bin, usage);
        let args = cli.bench_args(&[Tier::Smoke, Tier::Nightly], |flag, cli| {
            match (flag, self.list) {
                ("--methods", _) => methods = MethodRegistry::parse_list(&cli.value(flag)?, &full)?,
                ("--list-methods", Some(list)) => {
                    print!("{}", list(&full));
                    std::process::exit(0);
                }
                _ => return Ok(false),
            }
            Ok(true)
        });
        let specs = (self.specs)(args.tier);
        let out = args.out_path(self.artifact, columns_partial(&methods, &full));
        eprintln!(
            "# {} — {} {} x {} methods, {} threads{}",
            self.bin,
            specs.len(),
            self.specs_noun,
            methods.len(),
            args.threads,
            args.tier.suffix()
        );
        if let Some(list) = self.list {
            eprint!("{}", list(&methods));
        }
        let cert = certify::certify(args.threads, |t| (self.run)(&specs, &methods, t))
            .unwrap_or_else(|e| cli.fail(e));
        let matrix = &cert.report;
        eprint!("{}", matrix.render_table());
        let head = Envelope::new(self.benchmark)
            .field("smoke", args.smoke())
            .field("nightly", args.nightly())
            .field("scenarios", specs.len())
            .field("methods", methods.len())
            .field("cells", matrix.cells.len());
        let json = (self.totals)(matrix, head)
            .certificate(cert.digest, cert.bit_identical, args.threads)
            .secs("parallel_secs", cert.secs)
            .secs("serial_secs", cert.serial_secs)
            .field("matrix", matrix.artifact_json())
            .finish();
        let verdict = matrix.verdict();
        std::process::exit(certify::publish(&out, &json, verdict, cert.bit_identical))
    }
}

/// Aggregated result of one (scenario × method) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Scenario name (matrix row).
    pub scenario: String,
    /// Method name (matrix column).
    pub method: &'static str,
    /// The cell's items, folded: the JSON's `queries` are its items,
    /// `air_queries` its node-to-node queries (on-edge items decompose
    /// into up to four), and the packets, peak memory and settled nodes
    /// its answers' summed measurements.
    pub tally: Tally,
    /// Worst single point-to-point item latency, in packets.
    pub max_p2p_latency_packets: u64,
    /// Worst single on-edge item latency (sum over its sub-queries).
    pub max_onedge_latency_packets: u64,
    /// Worst single kNN item latency.
    pub max_knn_latency_packets: u64,
    /// Broadcast cycle length of the method's program, in packets.
    pub cycle_packets: usize,
    /// Peak memory within the scenario's device heap budget.
    pub within_memory_budget: bool,
    /// Radio (receive + sleep) energy over the cell in joules — a pure
    /// function of packet counts, hence deterministic.
    pub radio_energy_joules: f64,
    /// Client CPU milliseconds (wall clock; excluded from the digest).
    pub cpu_ms: f64,
}

impl CellReport {
    /// Whether every answer in the cell matched the oracle.
    pub fn exact(&self) -> bool {
        self.passes()
    }

    /// Items whose answer did not exactly match the oracle. The matrix is
    /// green iff this is 0 everywhere.
    pub fn mismatches(&self) -> usize {
        self.tally.items - self.tally.exact
    }
}

impl Row for CellReport {
    const FAILURE: &'static str = "CONFORMANCE FAILURE";

    fn header() -> String {
        format!(
            "{:<28} {:<13} {:>4} {:>5} {:>9} {:>9} {:>10} {:>8}\n",
            "Scenario", "Method", "Q", "OK", "Tuning", "Latency", "PeakMem", "Energy"
        )
    }

    fn line(&self) -> String {
        let (t, s) = (&self.tally, &self.tally.stats);
        let per_q = |v: u64| {
            if t.items == 0 {
                0.0
            } else {
                v as f64 / t.items as f64
            }
        };
        format!(
            "{:<28} {:<13} {:>4} {:>5} {:>9.0} {:>9.0} {:>10} {:>8.3}\n",
            self.scenario,
            self.method,
            t.items,
            if self.exact() { "yes" } else { "NO" },
            per_q(s.tuning_packets),
            per_q(s.latency_packets),
            s.peak_memory_bytes,
            self.radio_energy_joules,
        )
    }

    fn json_fields(&self, timings: bool) -> String {
        let (t, s) = (&self.tally, &self.tally.stats);
        let mut json = format!(
            "\"scenario\": \"{}\", \"method\": \"{}\", \"queries\": {}, \
             \"air_queries\": {}, \"mismatches\": {}, \"exact\": {}, \
             \"tuning_packets\": {}, \"latency_packets\": {}, \"sleep_packets\": {}, \
             \"max_p2p_latency_packets\": {}, \"max_onedge_latency_packets\": {}, \
             \"max_knn_latency_packets\": {}, \"cycle_packets\": {}, \
             \"peak_memory_bytes\": {}, \"within_memory_budget\": {}, \
             \"settled_nodes\": {}, \"radio_energy_joules\": {:.6}",
            self.scenario,
            self.method,
            t.items,
            t.queries,
            self.mismatches(),
            self.exact(),
            s.tuning_packets,
            s.latency_packets,
            s.sleep_packets,
            self.max_p2p_latency_packets,
            self.max_onedge_latency_packets,
            self.max_knn_latency_packets,
            self.cycle_packets,
            s.peak_memory_bytes,
            self.within_memory_budget,
            s.settled_nodes,
            self.radio_energy_joules,
        );
        if timings {
            json.push_str(&format!(", \"cpu_ms\": {:.3}", self.cpu_ms));
        }
        json
    }

    fn tally(&self) -> &Tally {
        &self.tally
    }

    fn gate(&self) -> Gate {
        Gate::Exact
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spair_roadnet::certify::fnv1a64;

    fn cell(scenario: &str, mismatches: usize) -> CellReport {
        CellReport {
            scenario: scenario.to_string(),
            method: "nr",
            tally: Tally {
                items: 4,
                queries: 4,
                exact: 4 - mismatches,
                wrong: mismatches,
                stats: spair_broadcast::QueryStats {
                    tuning_packets: 100,
                    latency_packets: 400,
                    sleep_packets: 300,
                    peak_memory_bytes: 1000,
                    settled_nodes: 42,
                    ..Default::default()
                },
                ..Tally::default()
            },
            max_p2p_latency_packets: 120,
            max_onedge_latency_packets: 0,
            max_knn_latency_packets: 0,
            cycle_packets: 200,
            within_memory_budget: true,
            radio_energy_joules: 1.25,
            cpu_ms: 3.0,
        }
    }

    #[test]
    fn exactness_gates_on_mismatches() {
        let m = ConformanceMatrix {
            cells: vec![cell("a", 0), cell("b", 0)],
        };
        assert!(m.passes());
        let bad = ConformanceMatrix {
            cells: vec![cell("a", 0), cell("b", 2)],
        };
        assert!(!bad.passes());
        assert_eq!(bad.total(|c| c.mismatches()), 2);
        assert_eq!(
            bad.verdict(),
            Err("CONFORMANCE FAILURE: 2 items not exact".to_string())
        );
    }

    #[test]
    fn digest_ignores_cpu_time() {
        let mut a = ConformanceMatrix {
            cells: vec![cell("a", 0)],
        };
        let d0 = a.digest();
        assert_eq!(d0, fnv1a64(a.deterministic_json().as_bytes()));
        assert_eq!(d0, 0x58e2_8812_3cb7_ed32, "cell rendering moved the digest");
        a.cells[0].cpu_ms = 999.0;
        assert_eq!(a.digest(), d0, "cpu time must not affect the digest");
        a.cells[0].tally.stats.tuning_packets += 1;
        assert_ne!(a.digest(), d0, "deterministic fields must");
    }

    #[test]
    fn json_with_timings_is_a_superset() {
        let m = ConformanceMatrix {
            cells: vec![cell("a", 0)],
        };
        assert!(!m.deterministic_json().contains("cpu_ms"));
        assert!(m.artifact_json().contains("cpu_ms"));
    }
}
