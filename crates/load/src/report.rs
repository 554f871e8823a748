//! Load-harness reports: streaming percentile summaries per
//! (scenario × method) cell, rows of the same certified
//! [`Matrix`] as the conformance matrix.

use spair_roadnet::certify::counts_json;
use spair_sim::{Gate, Matrix, Row, Tally};

/// Percentiles and exact extremes of one cost dimension over a client
/// population, read off a streaming histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct PercentileSummary {
    /// Median (nearest-rank, within one bucket width).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
    /// Exact mean.
    pub mean: f64,
    /// Values beyond the histogram bound (tail percentiles degrade to
    /// the exact max when nonzero).
    pub overflow: u64,
    /// Bucket width — the percentile error bound.
    pub bucket_width: u64,
}

impl PercentileSummary {
    fn json(&self) -> String {
        format!(
            "{{ \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}, \"mean\": {:.3}, \
             \"overflow\": {}, \"bucket_width\": {} }}",
            self.p50, self.p95, self.p99, self.max, self.mean, self.overflow, self.bucket_width
        )
    }
}

/// The flash-crowd part of a cell, where every client runs a full
/// bounded-recovery supervised session against a shared correlated fault
/// plan. Present only on flash cells — non-flash cells serialize without
/// it, byte-for-byte as before. Its JSON object adds the cell's typed
/// give-ups (`typed_failures`, their `failure_rate` over the population
/// and `failure_classes` by root class), `budget_violations`, `attempts`,
/// `max_attempts` and `retried` sessions from the cell's tally.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadFaultSummary {
    /// Fault-spec label of the scenario (e.g. `chaos1.0%@16.0c`).
    pub fault: String,
    /// Recovery latency (total packets elapsed across every attempt of a
    /// session — what the user waits) over the whole population,
    /// answered and failed sessions alike.
    pub recovery: PercentileSummary,
}

impl LoadFaultSummary {
    fn json(&self, t: &Tally, population: usize) -> String {
        format!(
            "{{ \"fault\": \"{}\", \"typed_failures\": {}, \"failure_rate\": {:.6}, \
             \"budget_violations\": {}, \"attempts\": {}, \"max_attempts\": {}, \
             \"retried\": {}, \"recovery_packets\": {}, \"failure_classes\": {} }}",
            self.fault,
            t.typed(),
            t.typed() as f64 / population.max(1) as f64,
            t.over_budget,
            t.attempts,
            t.max_attempts,
            t.retried,
            self.recovery.json(),
            counts_json(&t.class_counts()),
        )
    }
}

/// Aggregated result of serving one (scenario × method) population.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadCellReport {
    /// Scenario name (matrix row).
    pub scenario: String,
    /// Method name (matrix column).
    pub method: &'static str,
    /// Clients served.
    pub population: usize,
    /// Distinct oracle-backed queries the population drew from.
    pub query_pool: usize,
    /// Whether the population replayed from session profiles (lossless)
    /// or ran full per-client sessions (lossy).
    pub replayed: bool,
    /// Real sessions run to build the profile table (0 when not
    /// replayed).
    pub profile_sessions: usize,
    /// Every client's session, folded: `mismatches` counts the wrong
    /// ones (a wrong answer, a trusted unreachability verdict on the
    /// reachable pool, or a client no session could serve), `failures`
    /// the typed give-ups outside flash cells, and `peak_memory_bytes`
    /// is the worst client heap.
    pub tally: Tally,
    /// Shared broadcast cycle length, in packets.
    pub cycle_packets: usize,
    /// Access latency (packets) over the population.
    pub latency: PercentileSummary,
    /// Tuning time (packets) over the population.
    pub tuning: PercentileSummary,
    /// Radio energy (micro-joules) over the population.
    pub energy_uj: PercentileSummary,
    /// Total radio energy across the whole population, in joules.
    pub radio_energy_joules_total: f64,
    /// Flash-crowd fault/recovery summary — `Some` only for supervised
    /// flash cells, and only then serialized, so pre-existing cells stay
    /// byte-identical.
    pub fault: Option<LoadFaultSummary>,
    /// Wall-clock serving time for the cell (excluded from the digest).
    pub cpu_ms: f64,
    /// Mean measured CPU milliseconds of one real client session —
    /// profile sessions for replayed cells, every served session for
    /// full-session cells. Timing-only, like `cpu_ms`: excluded from the
    /// digest and serialized only with `include_timings`.
    pub client_cpu_ms: f64,
}

impl LoadCellReport {
    /// Whether the cell passes its gate: every session exact in a
    /// replayed or lossy cell; in a flash cell, no wrong answer and no
    /// budget violation, since typed give-ups are the certified
    /// degradation mode there.
    pub fn exact(&self) -> bool {
        self.passes()
    }

    /// Typed give-ups outside a flash cell, whose fault summary counts
    /// its own.
    pub fn failures(&self) -> usize {
        match self.fault {
            Some(_) => 0,
            None => self.tally.typed(),
        }
    }
}

impl Row for LoadCellReport {
    const FAILURE: &'static str = "LOAD CONFORMANCE FAILURE";

    fn header() -> String {
        format!(
            "{:<26} {:<9} {:>8} {:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8}\n",
            "Scenario",
            "Method",
            "Clients",
            "OK",
            "Lat p50",
            "Lat p99",
            "Tune p50",
            "Tune p99",
            "Cycle",
            "Joules"
        )
    }

    fn line(&self) -> String {
        let mut out = format!(
            "{:<26} {:<9} {:>8} {:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8.1}\n",
            self.scenario,
            self.method,
            self.population,
            if self.exact() { "yes" } else { "NO" },
            self.latency.p50,
            self.latency.p99,
            self.tuning.p50,
            self.tuning.p99,
            self.cycle_packets,
            self.radio_energy_joules_total,
        );
        if let Some(f) = &self.fault {
            let t = &self.tally;
            out.push_str(&format!(
                "  └ {}: {} typed failures ({:.3}%), {} retried, \
                 recovery p99 {} pkts (max {}), {} budget violations\n",
                f.fault,
                t.typed(),
                t.typed() as f64 / self.population.max(1) as f64 * 100.0,
                t.retried,
                f.recovery.p99,
                f.recovery.max,
                t.over_budget,
            ));
        }
        out
    }

    fn json_fields(&self, timings: bool) -> String {
        let mut s = format!(
            "\"scenario\": \"{}\", \"method\": \"{}\", \"population\": {}, \
             \"query_pool\": {}, \"replayed\": {}, \"profile_sessions\": {}, \
             \"mismatches\": {}, \"failures\": {}, \"exact\": {}, \
             \"cycle_packets\": {}, \"peak_memory_bytes\": {}, \
             \"latency_packets\": {}, \"tuning_packets\": {}, \"energy_uj\": {}, \
             \"radio_energy_joules_total\": {:.6}",
            self.scenario,
            self.method,
            self.population,
            self.query_pool,
            self.replayed,
            self.profile_sessions,
            self.tally.wrong,
            self.failures(),
            self.exact(),
            self.cycle_packets,
            self.tally.stats.peak_memory_bytes,
            self.latency.json(),
            self.tuning.json(),
            self.energy_uj.json(),
            self.radio_energy_joules_total,
        );
        if let Some(fault) = &self.fault {
            let json = fault.json(&self.tally, self.population);
            s.push_str(&format!(", \"fault\": {json}"));
        }
        if timings {
            s.push_str(&format!(
                ", \"cpu_ms\": {:.3}, \"client_cpu_ms\": {:.4}",
                self.cpu_ms, self.client_cpu_ms
            ));
        }
        s
    }

    fn tally(&self) -> &Tally {
        &self.tally
    }

    /// A flash cell (the one kind with a fault summary) is never wrong;
    /// every other cell is exact.
    fn gate(&self) -> Gate {
        match self.fault {
            Some(_) => Gate::NeverWrong,
            None => Gate::Exact,
        }
    }
}

/// The report of one load run: every (scenario × method) cell, in
/// scenario-major order.
pub type LoadReport = Matrix<LoadCellReport>;

#[cfg(test)]
mod tests {
    use super::*;
    use spair_roadnet::certify::{fnv1a64, Certified};

    fn summary() -> PercentileSummary {
        PercentileSummary {
            p50: 10,
            p95: 20,
            p99: 30,
            max: 40,
            mean: 12.5,
            overflow: 0,
            bucket_width: 4,
        }
    }

    fn cell(mismatches: usize) -> LoadCellReport {
        LoadCellReport {
            scenario: "s".to_string(),
            method: "nr",
            population: 100,
            query_pool: 4,
            replayed: true,
            profile_sessions: 8,
            tally: Tally {
                items: 100,
                exact: 100 - mismatches,
                wrong: mismatches,
                stats: spair_broadcast::QueryStats {
                    peak_memory_bytes: 1000,
                    ..Default::default()
                },
                ..Tally::default()
            },
            cycle_packets: 200,
            latency: summary(),
            tuning: summary(),
            energy_uj: summary(),
            radio_energy_joules_total: 1.5,
            fault: None,
            cpu_ms: 3.0,
            client_cpu_ms: 0.25,
        }
    }

    /// `c` as a flash cell: three of its clients gave up typed.
    fn flash(mut c: LoadCellReport) -> LoadCellReport {
        c.fault = Some(LoadFaultSummary {
            fault: "chaos1.0%@16.0c".to_string(),
            recovery: summary(),
        });
        c.tally.exact -= 3;
        c.tally.classes.insert("cycle_aborted", 3);
        (c.tally.attempts, c.tally.max_attempts, c.tally.retried) = (110, 3, 7);
        c
    }

    #[test]
    fn exactness_gates_on_mismatches_and_failures() {
        let mut r = LoadReport {
            cells: vec![cell(0)],
        };
        assert!(r.passes());
        r.cells[0].tally.exact -= 1;
        r.cells[0].tally.classes.insert("client_aborted", 1);
        assert!(!r.passes());
        assert_eq!(r.total(|c| c.tally.wrong + c.failures()), 1);
    }

    #[test]
    fn digest_ignores_cpu_time_only() {
        let mut r = LoadReport {
            cells: vec![cell(0)],
        };
        let d0 = r.digest();
        assert_eq!(d0, fnv1a64(r.deterministic_json().as_bytes()));
        assert_eq!(d0, 0xf348_37df_f8bb_856f, "cell rendering moved the digest");
        r.cells[0].cpu_ms = 999.0;
        r.cells[0].client_cpu_ms = 999.0;
        assert_eq!(r.digest(), d0, "cpu time must not affect the digest");
        r.cells[0].latency.p99 += 1;
        assert_ne!(r.digest(), d0, "deterministic fields must");
    }

    #[test]
    fn json_with_timings_is_a_superset() {
        let r = LoadReport {
            cells: vec![cell(0)],
        };
        assert!(!r.deterministic_json().contains("cpu_ms"));
        assert!(r.artifact_json().contains("cpu_ms"));
        assert!(r.artifact_json().contains("client_cpu_ms"));
        assert!(r.deterministic_json().contains("latency_packets"));
    }

    #[test]
    fn fault_summary_serializes_only_when_present() {
        let mut r = LoadReport {
            cells: vec![cell(0)],
        };
        let plain = r.deterministic_json();
        assert!(!plain.contains("\"fault\""), "non-flash cells unchanged");
        let d0 = r.digest();
        r.cells[0] = flash(cell(0));
        let with = r.deterministic_json();
        assert!(with.contains("\"fault\": {"));
        assert!(with.contains("\"failure_rate\": 0.030000"));
        assert!(with.contains("\"cycle_aborted\": 3"));
        assert_ne!(r.digest(), d0, "the summary is digest-covered");
        assert_eq!(
            r.total(|c| c.fault.as_ref().map_or(0, |_| c.tally.typed())),
            3
        );
        assert!(r.render_table().contains("recovery p99"));
    }

    #[test]
    fn budget_violations_fail_the_gate_but_typed_failures_do_not() {
        let mut c = flash(cell(0));
        assert!(c.exact(), "typed give-ups are certified degradation");
        c.tally.over_budget = 1;
        assert!(!c.exact(), "budget violations fail the gate");
    }

    #[test]
    fn a_lone_budget_violation_fails_the_gate_by_its_count() {
        let mut c = flash(cell(0));
        c.tally.over_budget = 1;
        let r = LoadReport { cells: vec![c] };
        assert_eq!(
            r.verdict(),
            Err("LOAD CONFORMANCE FAILURE: 1 budget violations".to_string())
        );
    }
}
