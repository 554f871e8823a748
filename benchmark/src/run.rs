//! What every workload shares: the run parameters, the per-phase
//! session log, and the metrics derived from them.

use crate::procstat;
use crate::report::Report;
use crate::stats::{median, percentile, sorted, tail_percentile};
use crate::trace::{Span, Tracer};
use crate::world::Setup;
use spair_broadcast::QueryStats;
use std::collections::BTreeMap;
use std::io;
use std::time::Instant;

/// One invocation's parameters.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Workload seed: queries, tune-in offsets, loss and updates.
    pub seed: u64,
    /// Length of the timed phase in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Tiny worlds for tests.
    pub smoke: bool,
    /// Time origin of every span.
    pub epoch: Instant,
    /// Where a traced run writes its spans (default: under the target
    /// directory).
    pub spans: Option<std::path::PathBuf>,
}

impl Run {
    /// Full set-ups per untraced run; `setup_s` is their median.
    pub fn setup_reps(&self) -> usize {
        if self.traced || self.smoke {
            1
        } else {
            3
        }
    }

    /// Seconds of each timed phase: one untraced phase, or an untraced
    /// and a traced half whose ratio is the tracing overhead.
    pub fn phase_seconds(&self) -> f64 {
        if self.traced {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Blocks in each timed phase, for a workload whose block takes about
    /// `block_s` seconds on the reference host (2 shared vCPUs). The count
    /// depends on `--seconds` alone, never on how fast the program runs,
    /// so the commits of a comparison time the same work and a faster
    /// program simply finishes sooner. It is odd, so the median block is
    /// one block's own value.
    pub fn blocks(&self, block_s: f64) -> u64 {
        let n = (self.phase_seconds() / block_s).round() as u64;
        n | 1
    }
}

/// One block of a timed phase — a whole pass of the session list, or
/// one replay of the version chain — timed on its own. Every block of a
/// phase does the same work.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// Sessions in the block.
    pub sessions: u64,
    /// Timed wall seconds.
    pub wall_s: f64,
    /// Process CPU milliseconds.
    pub cpu_ms: f64,
    /// Median session milliseconds.
    pub p50: f64,
    /// 90th-percentile session milliseconds.
    pub p90: f64,
}

impl Block {
    /// A block of sessions taking `ms` each, timed as a whole.
    pub fn new(ms: Vec<f64>, wall_s: f64, cpu_ms: f64) -> Self {
        let v = sorted(ms);
        Self {
            sessions: v.len() as u64,
            wall_s,
            cpu_ms,
            p50: percentile(&v, 50.0),
            p90: percentile(&v, 90.0),
        }
    }
}

/// Sessions of one timed phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall milliseconds of every session.
    pub ms: Vec<f64>,
    /// The same, per method.
    pub by_method: BTreeMap<&'static str, Vec<f64>>,
    /// Settled nodes over sessions that reported them, per method:
    /// `(sum, sessions)`.
    pub settled: BTreeMap<&'static str, (u64, u64)>,
    /// Timed wall seconds (oracle work excluded).
    pub wall_s: f64,
    /// Process CPU milliseconds over the timed wall.
    pub cpu_ms: f64,
    /// Sessions that ended in a typed or socket failure.
    pub failed: u64,
    /// Answers that contradicted their oracle.
    pub wrong: u64,
    /// Closed blocks.
    pub blocks: Vec<Block>,
    /// First session of the open block.
    open_at: usize,
    /// Timed wall and CPU of the open block.
    open_wall_s: f64,
    open_cpu_ms: f64,
}

impl Phase {
    /// Records one session's wall time.
    pub fn session(&mut self, method: &'static str, ms: f64) {
        self.ms.push(ms);
        self.by_method.entry(method).or_default().push(ms);
    }

    /// Records a session's client-side search work.
    pub fn settled_nodes(&mut self, method: &'static str, settled: u64) {
        let e = self.settled.entry(method).or_default();
        e.0 += settled;
        e.1 += 1;
    }

    /// Sessions attempted.
    pub fn attempted(&self) -> u64 {
        self.ms.len() as u64
    }

    /// Median session milliseconds.
    pub fn p50(&self) -> f64 {
        median(&self.ms)
    }

    /// The median block's value of `f`. A co-tenant's burst spoils a
    /// block or two, not the median, and the block count is the same on
    /// every commit.
    pub fn block_median(&self, f: fn(&Block) -> f64) -> f64 {
        median(&self.blocks.iter().map(f).collect::<Vec<_>>())
    }

    /// Adds a timed region to the phase and its open block.
    pub fn add_timed(&mut self, wall_s: f64, cpu_ms: f64) {
        self.wall_s += wall_s;
        self.cpu_ms += cpu_ms;
        self.open_wall_s += wall_s;
        self.open_cpu_ms += cpu_ms;
    }

    /// Closes the open block: the sessions and timed regions since the
    /// previous close.
    pub fn close_block(&mut self) {
        if self.ms.len() > self.open_at {
            let ms = self.ms[self.open_at..].to_vec();
            self.blocks
                .push(Block::new(ms, self.open_wall_s, self.open_cpu_ms));
        }
        self.open_at = self.ms.len();
        self.open_wall_s = 0.0;
        self.open_cpu_ms = 0.0;
    }
}

/// A timed region: wall and process CPU, stopped explicitly so that
/// oracle work between regions stays outside it.
pub struct Stopwatch {
    wall: Instant,
    cpu_ms: f64,
}

impl Stopwatch {
    /// Starts timing.
    pub fn start() -> io::Result<Self> {
        Ok(Self {
            cpu_ms: procstat::process_cpu_ms()?,
            wall: Instant::now(),
        })
    }

    /// Stops timing and adds the region to `phase`.
    pub fn stop(self, phase: &mut Phase) -> io::Result<()> {
        let wall_s = self.wall.elapsed().as_secs_f64();
        phase.add_timed(wall_s, procstat::process_cpu_ms()? - self.cpu_ms);
        Ok(())
    }
}

/// The deterministic §3.1 client costs over one pass of a workload's
/// reference traffic (see [`crate::world::REFERENCE_SEED`]): the same on
/// every run of the same program.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassTotals {
    /// Sessions in the pass.
    pub sessions: u64,
    /// Packets listened to.
    pub tuning: u64,
    /// Packets elapsed from tune-in to answer.
    pub latency: u64,
    /// Largest peak client memory.
    pub mem_max: usize,
}

impl PassTotals {
    /// Adds one session's costs.
    pub fn add(&mut self, s: &QueryStats) {
        self.sessions += 1;
        self.tuning += s.tuning_packets;
        self.latency += s.latency_packets;
        self.mem_max = self.mem_max.max(s.peak_memory_bytes);
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The end-to-end metrics of an untraced run.
pub fn report_end_to_end(
    report: &mut Report,
    setup_s: &[f64],
    phase: &Phase,
    pass: &PassTotals,
) -> io::Result<()> {
    report.put("setup_s", median(setup_s), "s");
    report.put(
        "queries_per_s",
        phase.block_median(|b| b.sessions as f64 / b.wall_s),
        "1/s",
    );
    report.put("query_ms_p90", phase.block_median(|b| b.p90), "ms");
    report.put(
        "cpu_ms_per_query",
        phase.block_median(|b| b.cpu_ms / b.sessions as f64),
        "ms",
    );
    let pass_n = pass.sessions.max(1) as f64;
    report.put(
        "tuning_packets_mean",
        pass.tuning as f64 / pass_n,
        "packets",
    );
    report.put(
        "latency_packets_mean",
        pass.latency as f64 / pass_n,
        "packets",
    );
    report.put("client_memory_bytes_max", pass.mem_max as f64, "bytes");
    // Per-layer, but printed on every run.
    report.put("query_ms_p50", phase.block_median(|b| b.p50), "ms");
    report.put("rss_peak_mb", procstat::peak_rss_mb()?, "MB");
    report.put("bench.reference_sessions", pass.sessions as f64, "count");
    report.put("bench.blocks", phase.blocks.len() as f64, "count");
    let n = phase.attempted().max(1) as f64;
    let ms = sorted(phase.ms.clone());
    report.put("queries_per_s.all", n / phase.wall_s, "1/s");
    report.put("query_ms_p50.all", percentile(&ms, 50.0), "ms");
    report.put("query_ms_p90.all", percentile(&ms, 90.0), "ms");
    report.put("cpu_ms_per_query.all", phase.cpu_ms / n, "ms");
    let p = tail_percentile(ms.len()).unwrap_or(50.0);
    report.put("query_ms_tail", percentile(&ms, p), "ms");
    report.put("query_tail_percentile", p, "count");
    report_methods(report, phase);
    Ok(())
}

/// Per-method session times and search work.
fn report_methods(report: &mut Report, phase: &Phase) {
    for (m, v) in &phase.by_method {
        let v = sorted(v.clone());
        report.put(
            format!("client.query_ms_p50.{m}"),
            percentile(&v, 50.0),
            "ms",
        );
        if let Some(p) = tail_percentile(v.len()).filter(|&p| p > 50.0) {
            report.put(format!("client.query_ms_p{p}.{m}"), percentile(&v, p), "ms");
        }
        report.put(format!("client.sessions.{m}"), v.len() as f64, "count");
    }
    for (m, (sum, n)) in &phase.settled {
        report.put(
            format!("client.settled_per_query.{m}"),
            *sum as f64 / (*n).max(1) as f64,
            "count",
        );
    }
}

/// Set-up span names; their durations must add up to the set-up wall.
const SETUP_SPANS: [&str; 5] = [
    "roadnet.generate",
    "partition.kd_build",
    "core.precompute",
    "methods.build",
    "serve.daemon_start",
];

/// The set-up layers every workload derives the same way: phases from
/// the traced set-up's spans, and the shape of the built programs.
pub fn report_setup_layers(
    report: &mut Report,
    setup_spans: &Tracer,
    setup_wall_s: f64,
    setup: &Setup,
) {
    report.put(
        "roadnet.generate_s",
        setup_spans.total_s("roadnet.generate"),
        "s",
    );
    report.put(
        "partition.kd_build_s",
        setup_spans.total_s("partition.kd_build"),
        "s",
    );
    report.put(
        "core.precompute_s",
        setup_spans.total_s("core.precompute"),
        "s",
    );
    report.put(
        "core.border_nodes",
        setup.programs.world().pre.borders().count() as f64,
        "count",
    );
    report.put("methods.build_s", setup_spans.total_s("methods.build"), "s");
    let mut cycles = 0.0;
    for &m in &setup.methods {
        let program = setup.program(m);
        let build_s: f64 = setup_spans
            .named("methods.build")
            .filter(|s| s.arg == m.name())
            .map(Span::secs)
            .sum();
        report.put(format!("methods.build_s.{}", m.name()), build_s, "s");
        // Index build versus cycle encode, where the method times its
        // index (SPQ, HiTi).
        let index_s = program.precompute_secs();
        if index_s > 0.0 {
            let short = m.name().trim_end_matches("_air");
            report.put(format!("baselines.{short}.index_s"), index_s, "s");
            report.put(
                format!("baselines.{short}.encode_s"),
                build_s - index_s,
                "s",
            );
        }
        let len = program.cycle().map_or(0, |c| c.len()) as f64;
        report.put(
            format!("methods.cycle_packets.{}", m.name()),
            len,
            "packets",
        );
        cycles += len;
    }
    report.put(
        "methods.cycle_packets",
        cycles / setup.methods.len().max(1) as f64,
        "packets",
    );
    let spans: f64 = SETUP_SPANS.iter().map(|n| setup_spans.total_s(n)).sum();
    report.put("trace.setup_span_frac", spans / setup_wall_s, "share");
    report.put("setup_s.traced", setup_wall_s, "s");
}

/// The client layers of a traced run: costs from the traced phase and
/// the tracing overhead against the untraced one.
pub fn report_client_layers(
    report: &mut Report,
    untraced: &Phase,
    traced: &Phase,
) -> io::Result<()> {
    report.put("rss_peak_mb", procstat::peak_rss_mb()?, "MB");
    report.put("query_ms_p50", untraced.block_median(|b| b.p50), "ms");
    let ms = sorted(traced.ms.clone());
    let p = tail_percentile(ms.len()).unwrap_or(50.0);
    report.put("client.query_ms_tail", percentile(&ms, p), "ms");
    report.put("client.query_tail_percentile", p, "count");
    let (sum, n) = traced
        .settled
        .values()
        .fold((0u64, 0u64), |a, &(s, n)| (a.0 + s, a.1 + n));
    report.put(
        "client.settled_per_query",
        sum as f64 / n.max(1) as f64,
        "count",
    );
    report.put(
        "trace_overhead_frac",
        traced.p50() / untraced.p50(),
        "share",
    );
    report.put("query_ms_p50.traced", traced.p50(), "ms");
    report_methods(report, traced);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seconds: f64, traced: bool) -> Run {
        Run {
            workload: "anchored".into(),
            seed: 1,
            seconds,
            traced,
            smoke: false,
            epoch: Instant::now(),
            spans: None,
        }
    }

    #[test]
    fn block_count_is_odd_and_set_by_seconds_alone() {
        assert_eq!(run(12.0, false).blocks(1.0), 13);
        assert_eq!(run(12.0, false).blocks(0.95), 13);
        assert_eq!(run(12.0, false).blocks(4.5), 3);
        assert_eq!(run(12.0, false).blocks(5.5), 3);
        // A traced run splits its seconds between two phases.
        assert_eq!(run(12.0, true).blocks(1.0), 7);
        // Never zero, however short the run.
        assert_eq!(run(0.4, false).blocks(5.5), 1);
    }
}
