//! Conformance-matrix reports.
//!
//! One [`CellReport`] summarizes one (scenario × method) cell: how many
//! queries ran, whether every answer matched the serial Dijkstra oracle,
//! and the aggregated §3.1 cost factors. All fields except `cpu_ms` are
//! pure functions of the scenario seed, so the matrix's
//! [`Certified::deterministic_json`] and digest are byte-for-byte
//! reproducible across runs and thread counts; wall-clock CPU rides along
//! in the full JSON for human consumption only.

use spair_roadnet::certify::{cells_json, Certified};

/// Aggregated result of one (scenario × method) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Scenario name (matrix row).
    pub scenario: String,
    /// Method name (matrix column).
    pub method: &'static str,
    /// Work items run (queries of every kind).
    pub queries: usize,
    /// Channel sessions opened (on-edge items decompose into up to four).
    pub air_queries: usize,
    /// Answers that did not exactly match the oracle. The matrix is green
    /// iff this is 0 everywhere.
    pub mismatches: usize,
    /// Total packets received.
    pub tuning_packets: u64,
    /// Total packets elapsed.
    pub latency_packets: u64,
    /// Total packets slept.
    pub sleep_packets: u64,
    /// Worst single point-to-point item latency, in packets.
    pub max_p2p_latency_packets: u64,
    /// Worst single on-edge item latency (sum over its sub-queries).
    pub max_onedge_latency_packets: u64,
    /// Worst single kNN item latency.
    pub max_knn_latency_packets: u64,
    /// Broadcast cycle length of the method's program, in packets.
    pub cycle_packets: usize,
    /// Peak client memory over all queries.
    pub peak_memory_bytes: usize,
    /// Peak memory within the scenario's device heap budget.
    pub within_memory_budget: bool,
    /// Total client-side settled nodes (CPU-model cross-check).
    pub settled_nodes: u64,
    /// Radio (receive + sleep) energy over the cell in joules — a pure
    /// function of packet counts, hence deterministic.
    pub radio_energy_joules: f64,
    /// Client CPU milliseconds (wall clock; excluded from the digest).
    pub cpu_ms: f64,
}

impl CellReport {
    /// Whether every answer in the cell matched the oracle.
    pub fn exact(&self) -> bool {
        self.mismatches == 0
    }

    fn json_fields(&self, include_timings: bool) -> String {
        let mut s = format!(
            "\"scenario\": \"{}\", \"method\": \"{}\", \"queries\": {}, \
             \"air_queries\": {}, \"mismatches\": {}, \"exact\": {}, \
             \"tuning_packets\": {}, \"latency_packets\": {}, \"sleep_packets\": {}, \
             \"max_p2p_latency_packets\": {}, \"max_onedge_latency_packets\": {}, \
             \"max_knn_latency_packets\": {}, \"cycle_packets\": {}, \
             \"peak_memory_bytes\": {}, \"within_memory_budget\": {}, \
             \"settled_nodes\": {}, \"radio_energy_joules\": {:.6}",
            self.scenario,
            self.method,
            self.queries,
            self.air_queries,
            self.mismatches,
            self.exact(),
            self.tuning_packets,
            self.latency_packets,
            self.sleep_packets,
            self.max_p2p_latency_packets,
            self.max_onedge_latency_packets,
            self.max_knn_latency_packets,
            self.cycle_packets,
            self.peak_memory_bytes,
            self.within_memory_budget,
            self.settled_nodes,
            self.radio_energy_joules,
        );
        if include_timings {
            s.push_str(&format!(", \"cpu_ms\": {:.3}", self.cpu_ms));
        }
        s
    }
}

/// The full conformance matrix of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceMatrix {
    /// Every (scenario × method) cell, in scenario-major order.
    pub cells: Vec<CellReport>,
}

impl ConformanceMatrix {
    /// Whether every cell is exact — the conformance gate.
    pub fn all_exact(&self) -> bool {
        self.cells.iter().all(CellReport::exact)
    }

    /// Total mismatches across the matrix.
    pub fn total_mismatches(&self) -> usize {
        self.cells.iter().map(|c| c.mismatches).sum()
    }

    /// A fixed-width text table (one row per cell) for terminal output.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "{:<28} {:<13} {:>4} {:>5} {:>9} {:>9} {:>10} {:>8}\n",
            "Scenario", "Method", "Q", "OK", "Tuning", "Latency", "PeakMem", "Energy"
        );
        for c in &self.cells {
            let per_q = |v: u64| {
                if c.queries == 0 {
                    0.0
                } else {
                    v as f64 / c.queries as f64
                }
            };
            out.push_str(&format!(
                "{:<28} {:<13} {:>4} {:>5} {:>9.0} {:>9.0} {:>10} {:>8.3}\n",
                c.scenario,
                c.method,
                c.queries,
                if c.exact() { "yes" } else { "NO" },
                per_q(c.tuning_packets),
                per_q(c.latency_packets),
                c.peak_memory_bytes,
                c.radio_energy_joules,
            ));
        }
        out
    }
}

impl Certified for ConformanceMatrix {
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
                "CONFORMANCE FAILURE: {} mismatches",
                self.total_mismatches()
            ))
        }
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
            queries: 4,
            air_queries: 4,
            mismatches,
            tuning_packets: 100,
            latency_packets: 400,
            sleep_packets: 300,
            max_p2p_latency_packets: 120,
            max_onedge_latency_packets: 0,
            max_knn_latency_packets: 0,
            cycle_packets: 200,
            peak_memory_bytes: 1000,
            within_memory_budget: true,
            settled_nodes: 42,
            radio_energy_joules: 1.25,
            cpu_ms: 3.0,
        }
    }

    #[test]
    fn exactness_gates_on_mismatches() {
        let m = ConformanceMatrix {
            cells: vec![cell("a", 0), cell("b", 0)],
        };
        assert!(m.all_exact());
        let bad = ConformanceMatrix {
            cells: vec![cell("a", 0), cell("b", 2)],
        };
        assert!(!bad.all_exact());
        assert_eq!(bad.total_mismatches(), 2);
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
        a.cells[0].tuning_packets += 1;
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
