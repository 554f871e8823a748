//! Load-harness reports: streaming percentile summaries per
//! (scenario × method) cell, digest-certified like the conformance
//! matrix.

use spair_roadnet::certify::{cells_json, counts_json, Certified};

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

/// Fault and recovery summary of a flash-crowd cell, where every client
/// runs a full bounded-recovery supervised session against a shared
/// correlated fault plan. Present only on flash cells — non-flash cells
/// serialize without it, byte-for-byte as before.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadFaultSummary {
    /// Fault-spec label of the scenario (e.g. `chaos1.0%@16.0c`).
    pub fault: String,
    /// Sessions that gave up with a typed `SessionError` (never a wrong
    /// answer — those count as mismatches and fail the gate).
    pub typed_failures: u64,
    /// `typed_failures / population`.
    pub failure_rate: f64,
    /// Sessions that blew the attempt budget or the packet ceiling.
    /// The gate requires 0.
    pub budget_violations: u64,
    /// Supervised attempts across the population.
    pub attempts: u64,
    /// Worst single session's attempt count.
    pub max_attempts: u32,
    /// Sessions that needed more than one attempt (re-tuned after a
    /// silently-corrupting fault).
    pub retried: u64,
    /// Recovery latency (total packets elapsed across every attempt of a
    /// session — what the user waits) over the whole population,
    /// answered and failed sessions alike.
    pub recovery: PercentileSummary,
    /// Root-cause failure-class breakdown (`class → count`), sorted by
    /// class label.
    pub failure_classes: Vec<(String, u64)>,
}

impl LoadFaultSummary {
    fn json(&self) -> String {
        format!(
            "{{ \"fault\": \"{}\", \"typed_failures\": {}, \"failure_rate\": {:.6}, \
             \"budget_violations\": {}, \"attempts\": {}, \"max_attempts\": {}, \
             \"retried\": {}, \"recovery_packets\": {}, \"failure_classes\": {} }}",
            self.fault,
            self.typed_failures,
            self.failure_rate,
            self.budget_violations,
            self.attempts,
            self.max_attempts,
            self.retried,
            self.recovery.json(),
            counts_json(&self.failure_classes),
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
    /// Sessions whose distance diverged from the oracle. Green iff 0.
    pub mismatches: u64,
    /// Sessions that returned an error (never expected).
    pub failures: u64,
    /// Shared broadcast cycle length, in packets.
    pub cycle_packets: usize,
    /// Worst client heap across the population.
    pub peak_memory_bytes: usize,
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
    /// Whether every served session matched the oracle and none failed
    /// untyped or out of budget. Flash cells may report typed give-ups —
    /// those are the certified degradation mode, not a gate failure.
    pub fn exact(&self) -> bool {
        self.mismatches == 0
            && self.failures == 0
            && self.fault.as_ref().is_none_or(|f| f.budget_violations == 0)
    }

    fn json_fields(&self, include_timings: bool) -> String {
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
            self.mismatches,
            self.failures,
            self.exact(),
            self.cycle_packets,
            self.peak_memory_bytes,
            self.latency.json(),
            self.tuning.json(),
            self.energy_uj.json(),
            self.radio_energy_joules_total,
        );
        if let Some(fault) = &self.fault {
            s.push_str(&format!(", \"fault\": {}", fault.json()));
        }
        if include_timings {
            s.push_str(&format!(
                ", \"cpu_ms\": {:.3}, \"client_cpu_ms\": {:.4}",
                self.cpu_ms, self.client_cpu_ms
            ));
        }
        s
    }
}

/// The full report of one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Every (scenario × method) cell, in scenario-major order.
    pub cells: Vec<LoadCellReport>,
}

impl LoadReport {
    /// Whether every cell is exact — the load conformance gate.
    pub fn all_exact(&self) -> bool {
        self.cells.iter().all(LoadCellReport::exact)
    }

    /// Total oracle mismatches plus failed sessions.
    pub fn total_mismatches(&self) -> usize {
        self.cells
            .iter()
            .map(|c| (c.mismatches + c.failures) as usize)
            .sum()
    }

    /// Clients served across all cells.
    pub fn total_population(&self) -> usize {
        self.cells.iter().map(|c| c.population).sum()
    }

    /// Typed give-ups across every flash-crowd cell.
    pub fn total_typed_failures(&self) -> u64 {
        self.cells
            .iter()
            .filter_map(|c| c.fault.as_ref())
            .map(|f| f.typed_failures)
            .sum()
    }

    /// A fixed-width text table (one row per cell) for terminal output.
    pub fn render_table(&self) -> String {
        let mut out = format!(
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
        );
        for c in &self.cells {
            out.push_str(&format!(
                "{:<26} {:<9} {:>8} {:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8.1}\n",
                c.scenario,
                c.method,
                c.population,
                if c.exact() { "yes" } else { "NO" },
                c.latency.p50,
                c.latency.p99,
                c.tuning.p50,
                c.tuning.p99,
                c.cycle_packets,
                c.radio_energy_joules_total,
            ));
            if let Some(f) = &c.fault {
                out.push_str(&format!(
                    "  └ {}: {} typed failures ({:.3}%), {} retried, \
                     recovery p99 {} pkts (max {}), {} budget violations\n",
                    f.fault,
                    f.typed_failures,
                    f.failure_rate * 100.0,
                    f.retried,
                    f.recovery.p99,
                    f.recovery.max,
                    f.budget_violations,
                ));
            }
        }
        out
    }
}

impl Certified for LoadReport {
    fn deterministic_json(&self) -> String {
        cells_json(&self.cells, |c| c.json_fields(false))
    }

    fn artifact_json(&self) -> String {
        cells_json(&self.cells, |c| c.json_fields(true))
    }

    fn cells(&self) -> usize {
        self.cells.len()
    }

    fn verdict(&self) -> Result<(), String> {
        if self.all_exact() {
            Ok(())
        } else {
            Err(format!(
                "LOAD CONFORMANCE FAILURE: {} mismatched/failed sessions",
                self.total_mismatches()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spair_roadnet::certify::fnv1a64;

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

    fn cell(mismatches: u64) -> LoadCellReport {
        LoadCellReport {
            scenario: "s".to_string(),
            method: "nr",
            population: 100,
            query_pool: 4,
            replayed: true,
            profile_sessions: 8,
            mismatches,
            failures: 0,
            cycle_packets: 200,
            peak_memory_bytes: 1000,
            latency: summary(),
            tuning: summary(),
            energy_uj: summary(),
            radio_energy_joules_total: 1.5,
            fault: None,
            cpu_ms: 3.0,
            client_cpu_ms: 0.25,
        }
    }

    fn fault_summary() -> LoadFaultSummary {
        LoadFaultSummary {
            fault: "chaos1.0%@16.0c".to_string(),
            typed_failures: 3,
            failure_rate: 0.03,
            budget_violations: 0,
            attempts: 110,
            max_attempts: 3,
            retried: 7,
            recovery: summary(),
            failure_classes: vec![("cycle_aborted".to_string(), 3)],
        }
    }

    #[test]
    fn exactness_gates_on_mismatches_and_failures() {
        let mut r = LoadReport {
            cells: vec![cell(0)],
        };
        assert!(r.all_exact());
        r.cells[0].failures = 1;
        assert!(!r.all_exact());
        assert_eq!(r.total_mismatches(), 1);
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
        r.cells[0].fault = Some(fault_summary());
        let with = r.deterministic_json();
        assert!(with.contains("\"fault\": {"));
        assert!(with.contains("\"failure_rate\": 0.030000"));
        assert!(with.contains("\"cycle_aborted\": 3"));
        assert_ne!(r.digest(), d0, "the summary is digest-covered");
        assert_eq!(r.total_typed_failures(), 3);
        assert!(r.render_table().contains("recovery p99"));
    }

    #[test]
    fn budget_violations_fail_the_gate_but_typed_failures_do_not() {
        let mut c = cell(0);
        c.fault = Some(fault_summary());
        assert!(c.exact(), "typed give-ups are certified degradation");
        c.fault.as_mut().unwrap().budget_violations = 1;
        assert!(!c.exact(), "budget violations fail the gate");
    }
}
