//! Metric declarations and the result line.
//!
//! The two tables below are the benchmark's interface: `BENCHMARK.json`
//! at the repository root declares exactly these names and units (a
//! test keeps them in step). An untraced run reports every end-to-end
//! metric, a traced run every per-layer metric; anything else a run
//! measures is printed above the result line as a `#` detail line.

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_ms_p90", "ms"),
    ("cpu_ms_per_query", "ms"),
    ("tuning_packets_mean", "packets"),
    ("latency_packets_mean", "packets"),
    ("client_memory_bytes_max", "bytes"),
];

/// Per-layer metrics: `(name, unit)`. Every workload reports every one
/// of them, so each is either a setup phase every world has, a property
/// of the workload's own sessions, or a replay over the workload's world.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("roadnet.generate_s", "s"),
    ("partition.kd_build_s", "s"),
    ("core.precompute_s", "s"),
    ("core.border_nodes", "count"),
    ("methods.build_s", "s"),
    ("methods.cycle_packets", "packets"),
    ("query_ms_p50", "ms"),
    ("client.query_ms_tail", "ms"),
    ("client.settled_per_query", "count"),
    ("broadcast.receive_ns_per_packet", "ns"),
    ("core.netcodec.decode_ns_per_packet", "ns"),
    ("core.netcodec.ingest_ns_per_packet", "ns"),
    ("core.netcodec.search_ms_per_query", "ms"),
    ("client.attributed_frac.dj", "share"),
    ("core.eb.index_ingest_ns_per_packet", "ns"),
    ("core.patch.build_ms", "ms"),
    ("core.patch.receive_ms", "ms"),
    ("core.netcodec.apply_ns_per_delta", "ns"),
    ("serve.frame_encode_ns", "ns"),
    ("serve.frame_decode_ns", "ns"),
    ("rss_peak_mb", "MB"),
    ("bench.oracle_s", "s"),
    ("trace.setup_span_frac", "share"),
    ("trace_overhead_frac", "share"),
];

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Unit of a declared metric.
fn declared_unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// Everything one run measured, in the order it was measured.
#[derive(Debug, Default)]
pub struct Report {
    entries: Vec<(String, f64, String)>,
}

impl Report {
    /// Records a metric. A declared name must carry its declared unit.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        let name = name.into();
        assert!(valid_name(&name), "illegal metric name {name:?}");
        if let Some(u) = declared_unit(&name) {
            assert_eq!(u, unit, "metric {name} declared in {u}");
        }
        self.entries.push((name, value, unit.to_string()));
    }

    /// Renders the detail lines and the final result line. The result
    /// carries every metric of the mode's table exactly once; a missing,
    /// duplicated or non-finite one is an error.
    pub fn render(
        &self,
        traced: bool,
        attempted: u64,
        failed: u64,
        correct: bool,
    ) -> Result<String, String> {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut out = String::new();
        for (name, value, unit) in &self.entries {
            if !table.iter().any(|(n, _)| n == name) {
                out.push_str(&format!("# {name} = {value} {unit}\n"));
            }
        }
        let mut fields = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let hits: Vec<f64> = self
                .entries
                .iter()
                .filter(|(n, _, _)| n == name)
                .map(|&(_, v, _)| v)
                .collect();
            match hits[..] {
                [v] if v.is_finite() => fields.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                )),
                [v] => return Err(format!("metric {name} is not finite ({v})")),
                [] => return Err(format!("metric {name} was not measured")),
                _ => return Err(format!("metric {name} was recorded {} times", hits.len())),
            }
        }
        out.push_str(&format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            fields.join(", ")
        ));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_charset() {
        for ok in [
            "setup_s",
            "a",
            "9lives",
            "core.netcodec.apply_ns_per_delta",
            "x-y.z_1",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "sp ace",
            "slash/x",
            "uni\u{e9}",
            "a:b",
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn declared_names_are_legal_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for (i, n) in all.iter().enumerate() {
            assert!(valid_name(n), "{n}");
            assert!(!all[..i].contains(n), "{n} declared twice");
        }
    }

    #[test]
    fn render_requires_every_metric_once() {
        let mut r = Report::default();
        for &(n, u) in END_TO_END {
            r.put(n, 1.5, u);
        }
        r.put("extra.detail", 2.0, "count");
        let text = r.render(false, 10, 0, true).unwrap();
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 10"));
        assert!(last.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(text.contains("# extra.detail = 2 count"));
        r.put("setup_s", 1.0, "s");
        assert!(r.render(false, 10, 0, true).is_err());
        assert!(Report::default().render(true, 1, 0, true).is_err());
    }
}
