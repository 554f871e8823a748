//! The population-scale serving harness.
//!
//! The defining property of wireless broadcast is that server cost is
//! independent of the client count: one air cycle serves every tuned-in
//! device. The harness models that literally — [`prepare`] expands each
//! [`LoadSpec`] into one shared [`ScenarioContext`] (graph, partition,
//! broadcast programs, oracle-backed query pool) per scenario, and
//! [`run`] tunes **N seeded clients** (10^4–10^6) in at random cycle
//! offsets against the shared cycle of every (scenario × method) cell.
//!
//! Per-client cost must be O(1) for a million clients to be tractable,
//! and for a **lossless** channel it can be, exactly: every client method
//! either
//!
//! * downloads the whole cycle from wherever it tuned in (DJ, LD, AF,
//!   SPQ, and the registry-registered A*/bidirectional clients) — its
//!   §3.1 stats are independent of the tune-in offset — or
//! * listens to exactly one packet, follows that packet's next-index
//!   pointer, and sleeps to the pointed-at index copy (NR, EB, HiTi via
//!   `find_next_index`) — from that *anchor* on, the session is a pure
//!   function of (query, anchor).
//!
//! So the harness runs one real client session per (query, anchor class)
//! — the **session profile** — and replays each of the N clients as
//! `latency = profile.latency + pointer(offset)`, `tuning =
//! profile.tuning`. The replay is exact, not approximate; the
//! `replay_matches_real_sessions` tests certify it against full client
//! runs packet-for-packet. Lossy cells fall back to one full session per
//! client (the loss stream makes sessions client-unique), which bounds
//! their practical population; the canned matrices keep lossy cells on
//! small worlds.
//!
//! Results aggregate into streaming fixed-bucket histograms
//! ([`crate::hist`]) folded through
//! [`spair_roadnet::parallel::map_reduce_chunked`], so a million clients
//! cost O(buckets) memory and the report — like the conformance matrix —
//! is bit-identical for every thread count.

use crate::hist::StreamingHistogram;
use crate::report::{LoadCellReport, LoadFaultSummary, LoadReport, PercentileSummary};
use crate::spec::LoadSpec;
use spair_broadcast::cycle::SegmentKind;
use spair_broadcast::{splitmix64, BroadcastCycle, ChannelRate, EnergyModel, QueryStats};
use spair_core::RecoveryBudget;
use spair_methods::{MethodId, MethodProgram, SessionShape};
use spair_roadnet::parallel;
use spair_sim::{
    drive, Device, Driven, FaultSource, ScenarioContext, Tune, TuneInSpec, Verdict, WorkItem,
    FAULT_BUDGET,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// A cell's seed: every client's (query, offset, loss seed) is a pure
/// function of (scenario seed, method ordinal, client index), so
/// populations are reproducible for any thread schedule.
fn cell_seed(scenario_seed: u64, method: MethodId) -> u64 {
    splitmix64(scenario_seed ^ splitmix64(u64::from(method.ordinal()).wrapping_add(0x10AD)))
}

/// The consumption shape of an air client method — read straight off its
/// registry descriptor (the old per-method `match` with its
/// `unreachable!` arm is gone; `LoadSpec::validate` rejects shapeless
/// methods with a typed error before any cell is prepared).
pub fn session_shape(method: MethodId) -> SessionShape {
    method.descriptor().shape.unwrap_or_else(|| {
        panic!(
            "{}: no session shape; rejected by LoadSpec::validate",
            method
        )
    })
}

/// The program of a validated cell's method.
fn program(ctx: &ScenarioContext, method: MethodId) -> &dyn MethodProgram {
    ctx.program(method)
        .unwrap_or_else(|e| panic!("LoadSpec::validate admits only air methods: {e}"))
}

/// The air cycle of a validated cell's method.
fn air_cycle(ctx: &ScenarioContext, method: MethodId) -> &BroadcastCycle {
    ctx.cycle(method)
        .unwrap_or_else(|e| panic!("LoadSpec::validate admits only air methods: {e}"))
}

/// A fresh client device of a validated cell's method.
fn device(ctx: &ScenarioContext, method: MethodId) -> Device {
    Device::new(program(ctx, method)).expect("air methods have air clients")
}

/// One real client session's measurements, recorded at a class
/// representative offset and replayed across the population.
#[derive(Debug, Clone, Copy)]
struct SessionProfile {
    tuning: u64,
    latency: u64,
    peak_memory_bytes: usize,
    /// Measured CPU milliseconds of this real session (timing-only —
    /// never digested; replayed cells report the per-profile mean).
    cpu_ms: f64,
    /// Distance matched the serial-Dijkstra oracle.
    exact: bool,
    /// The session returned an error (never expected; counted, not
    /// replayed into the histograms).
    failed: bool,
}

enum CellMode {
    /// Lossless: replay from per-(query × anchor-class) profiles.
    Replay {
        shape: SessionShape,
        /// Index-copy start offsets, ascending (empty for whole-cycle
        /// shapes, which have a single class).
        anchors: Vec<usize>,
        /// Query-major: `profiles[qi * classes + ci]`.
        profiles: Vec<SessionProfile>,
    },
    /// Every client runs a full session: over its own loss stream in a
    /// lossy cell (one attempt, fault-free), or — in a flash crowd —
    /// under the recovery budget against one **shared** fault plan: one
    /// faulty server, the whole population tuned in within one cycle,
    /// correlated bursts hitting neighbouring clients at the same
    /// wall-clock slots.
    Full {
        /// Fault-free, or the population-wide plan (seeded off the cell,
        /// not the client, so fault draws correlate across clients).
        faults: FaultSource,
        /// The sessions' recovery budget.
        budget: RecoveryBudget,
    },
}

/// Resolves a tune-in offset to `(class index, initial pointer
/// distance)` under a replay shape. `None` when the offset's packet
/// carries no index pointer or points outside the anchor set — possible
/// only for a cycle without usable index copies, where every anchored
/// session fails.
fn resolve_class(
    shape: SessionShape,
    anchors: &[usize],
    cycle: &BroadcastCycle,
    offset: usize,
) -> Option<(usize, u64)> {
    match shape {
        SessionShape::WholeCycle => Some((0, 0)),
        SessionShape::Anchored => {
            let ni = cycle.packet(offset).next_index();
            if ni == u32::MAX {
                return None;
            }
            let anchor = (offset + 1 + ni as usize) % cycle.len();
            let ci = anchors.binary_search(&anchor).ok()?;
            Some((ci, u64::from(ni)))
        }
    }
}

/// Profile classes of a replay shape (`profiles.len() = query_pool ×
/// classes`).
fn class_count(shape: SessionShape, anchors: &[usize]) -> usize {
    match shape {
        SessionShape::WholeCycle => 1,
        SessionShape::Anchored => anchors.len(),
    }
}

/// One (scenario × method) cell, ready to serve its population.
pub struct PreparedCell {
    scenario_idx: usize,
    method: MethodId,
    population: usize,
    mode: CellMode,
    profile_secs: f64,
}

impl PreparedCell {
    /// The method serving this cell.
    pub fn method(&self) -> MethodId {
        self.method
    }

    /// Real sessions run while profiling this cell (0 for lossy cells,
    /// whose sessions all happen at serve time).
    pub fn profile_sessions(&self) -> usize {
        match &self.mode {
            CellMode::Replay { profiles, .. } => profiles.len(),
            CellMode::Full { .. } => 0,
        }
    }

    /// Wall-clock seconds spent profiling this cell.
    pub fn profile_secs(&self) -> f64 {
        self.profile_secs
    }
}

/// Everything [`run`] needs, built once: scenario contexts (shared air
/// cycles, query pools, oracles) and per-cell session profiles.
pub struct PreparedLoad {
    specs: Vec<LoadSpec>,
    contexts: Vec<ScenarioContext>,
    cells: Vec<PreparedCell>,
}

/// The query pool of a context: every P2p work item with its oracle.
fn query_pool(ctx: &ScenarioContext) -> Vec<&WorkItem> {
    ctx.workload
        .iter()
        .filter(|item| matches!(item, WorkItem::P2p { .. }))
        .collect()
}

/// Ascending start offsets of the cycle's index copies — the anchor set
/// of [`SessionShape::Anchored`] clients.
fn index_starts(ctx: &ScenarioContext, method: MethodId) -> Vec<usize> {
    air_cycle(ctx, method)
        .segments()
        .iter()
        .filter(|s| {
            s.len > 0
                && matches!(
                    s.kind,
                    SegmentKind::GlobalIndex | SegmentKind::LocalIndex(_)
                )
        })
        .map(|s| s.start)
        .collect()
}

/// Runs one real lossless session and records its profile.
fn probe_session(
    ctx: &ScenarioContext,
    method: MethodId,
    item: &WorkItem,
    offset: usize,
) -> SessionProfile {
    let mut client = device(ctx, method);
    let start = Instant::now();
    let (tune, single) = (Tune::at(offset), RecoveryBudget::single());
    let d = drive(
        program(ctx, method),
        &mut client,
        ctx.g(),
        item,
        &tune,
        single,
        |_| 0,
    );
    let cpu_ms = start.elapsed().as_secs_f64() * 1000.0;
    let stats = d.stats.unwrap_or_default();
    SessionProfile {
        tuning: stats.tuning_packets,
        latency: stats.latency_packets,
        peak_memory_bytes: stats.peak_memory_bytes,
        cpu_ms,
        exact: d.verdict == Verdict::Exact,
        failed: d.stats.is_none(),
    }
}

/// Builds the profile table for a lossless cell: one real session per
/// (query × anchor class), fanned out deterministically across threads.
fn build_profiles(ctx: &ScenarioContext, method: MethodId, threads: usize) -> CellMode {
    let shape = session_shape(method);
    let pool = query_pool(ctx);
    let len = air_cycle(ctx, method).len();
    let anchors = match shape {
        SessionShape::WholeCycle => Vec::new(),
        SessionShape::Anchored => index_starts(ctx, method),
    };
    // Representative tune-in offset per class: any offset for a
    // whole-cycle client (stats are offset-independent); for an anchored
    // client the packet *just before* the anchor, whose next-index
    // pointer is 0 — so the probe's initial sleep is zero and replaying
    // an arbitrary offset only adds that offset's pointer distance.
    let class_offsets: Vec<usize> = match shape {
        SessionShape::WholeCycle => vec![0],
        SessionShape::Anchored => anchors.iter().map(|&a| (a + len - 1) % len).collect(),
    };
    let sessions: Vec<(usize, usize)> = (0..pool.len())
        .flat_map(|qi| (0..class_offsets.len()).map(move |ci| (qi, ci)))
        .collect();
    let profiles = parallel::map_reduce_chunked(
        &sessions,
        threads,
        2,
        || (),
        Vec::new,
        |_, partial: &mut Vec<SessionProfile>, chunk, _| {
            for &(qi, ci) in chunk {
                partial.push(probe_session(ctx, method, pool[qi], class_offsets[ci]));
            }
        },
        |a, b| a.extend(b),
    )
    .unwrap_or_default();
    CellMode::Replay {
        shape,
        anchors,
        profiles,
    }
}

/// Expands every spec into its shared world and profiles its lossless
/// cells. Expensive (graph generation, precomputation, broadcast program
/// assembly, profile sessions) but fully seed-deterministic; [`run`] is
/// the cheap, replayable part.
pub fn prepare(specs: &[LoadSpec], threads: usize) -> PreparedLoad {
    for spec in specs {
        if let Err(e) = spec.validate() {
            panic!("invalid load spec: {e}");
        }
    }
    let contexts: Vec<ScenarioContext> = specs
        .iter()
        .map(|s| ScenarioContext::build(&s.scenario, &s.methods))
        .collect();
    let mut cells = Vec::new();
    for (si, spec) in specs.iter().enumerate() {
        for &method in &spec.methods {
            let start = Instant::now();
            let mode = if spec.flash {
                // One plan for the whole population: seeded off the
                // cell, so every client shares the fault stream.
                let cycle_len = air_cycle(&contexts[si], method).len();
                let seed = cell_seed(spec.scenario.seed, method);
                let plan = spec
                    .scenario
                    .fault
                    .plan(splitmix64(seed ^ 0xFA17), cycle_len);
                CellMode::Full {
                    faults: FaultSource::Shared(plan),
                    budget: FAULT_BUDGET,
                }
            } else if spec.scenario.loss.is_lossy() {
                CellMode::Full {
                    faults: FaultSource::None,
                    budget: RecoveryBudget::single(),
                }
            } else {
                build_profiles(&contexts[si], method, threads)
            };
            cells.push(PreparedCell {
                scenario_idx: si,
                method,
                population: spec.population,
                mode,
                profile_secs: start.elapsed().as_secs_f64(),
            });
        }
    }
    PreparedLoad {
        specs: specs.to_vec(),
        contexts,
        cells,
    }
}

impl PreparedLoad {
    /// The prepared (scenario × method) cells, in scenario-major order.
    pub fn cells(&self) -> &[PreparedCell] {
        &self.cells
    }

    /// Total real sessions run while profiling.
    pub fn profile_sessions(&self) -> usize {
        self.cells.iter().map(|c| c.profile_sessions()).sum()
    }

    /// "scenario/method" label of a prepared cell, for log lines.
    pub fn cell_label(&self, cell: usize) -> String {
        let c = &self.cells[cell];
        format!(
            "{}/{}",
            self.specs[c.scenario_idx].scenario.name,
            c.method.name()
        )
    }

    /// Index of the (scenario name × method) cell, if prepared.
    pub fn cell_index(&self, scenario: &str, method: MethodId) -> Option<usize> {
        self.cells.iter().position(|c| {
            self.specs[c.scenario_idx].scenario.name == scenario && c.method == method
        })
    }

    /// Replay prediction `(tuning, latency, sleep)` for a client of
    /// `cell` posing query-pool entry `query` from cycle offset
    /// `offset`. `None` for lossy (exact-mode) cells and failed
    /// profiles. Test hook: the prediction must match a real client
    /// session packet-for-packet.
    pub fn predicted_session(
        &self,
        cell: usize,
        query: usize,
        offset: usize,
    ) -> Option<(u64, u64, u64)> {
        let cell = &self.cells[cell];
        let ctx = &self.contexts[cell.scenario_idx];
        let cycle = air_cycle(ctx, cell.method);
        let CellMode::Replay {
            shape,
            anchors,
            profiles,
        } = &cell.mode
        else {
            return None;
        };
        let (ci, delta) = resolve_class(*shape, anchors, cycle, offset)?;
        let p = &profiles[query * class_count(*shape, anchors) + ci];
        if p.failed {
            return None;
        }
        let latency = p.latency + delta;
        Some((p.tuning, latency, latency - p.tuning))
    }
}

/// Fault/recovery aggregate of a supervised flash-crowd cell — the
/// streaming counterpart of the fault matrix's per-cell accumulator.
struct FaultAgg {
    typed_failures: u64,
    budget_violations: u64,
    attempts: u64,
    max_attempts: u32,
    retried: u64,
    recovery: StreamingHistogram,
    classes: BTreeMap<&'static str, u64>,
}

impl FaultAgg {
    fn new(cycle_len: usize) -> Self {
        Self {
            typed_failures: 0,
            budget_violations: 0,
            attempts: 0,
            max_attempts: 0,
            retried: 0,
            recovery: StreamingHistogram::with_bound((cycle_len as u64).max(1) * 64, HIST_BUCKETS),
            classes: BTreeMap::new(),
        }
    }

    /// Folds one supervised session's cost in.
    fn session(&mut self, d: &Driven) {
        self.attempts += u64::from(d.attempts);
        self.max_attempts = self.max_attempts.max(d.attempts);
        self.retried += u64::from(d.attempts > 1);
        self.recovery.record(d.recovery_packets);
        self.budget_violations += u64::from(d.over_budget);
    }

    fn failed(&mut self, class: &'static str) {
        self.typed_failures += 1;
        *self.classes.entry(class).or_insert(0) += 1;
    }

    fn absorb(&mut self, other: FaultAgg) {
        self.typed_failures += other.typed_failures;
        self.budget_violations += other.budget_violations;
        self.attempts += other.attempts;
        self.max_attempts = self.max_attempts.max(other.max_attempts);
        self.retried += other.retried;
        self.recovery.merge(&other.recovery);
        for (class, n) in other.classes {
            *self.classes.entry(class).or_insert(0) += n;
        }
    }
}

/// Streaming per-cell aggregate — the map-reduce partial. O(buckets)
/// memory regardless of population.
struct CellMetrics {
    latency: StreamingHistogram,
    tuning: StreamingHistogram,
    energy_uj: StreamingHistogram,
    mismatches: u64,
    failures: u64,
    peak_memory_bytes: usize,
    fault: Option<FaultAgg>,
    /// Measured CPU milliseconds summed over this worker's real client
    /// sessions (full-session cells only; timing-only, never digested).
    session_cpu_ms: f64,
    /// Real sessions behind `session_cpu_ms`.
    cpu_sessions: u64,
}

const HIST_BUCKETS: usize = 1024;

impl CellMetrics {
    fn new(cycle_len: usize, full_sessions: bool, supervised: bool, rate: ChannelRate) -> Self {
        // Lossless sessions finish within a couple of cycles; lossy and
        // supervised ones stretch by retry cycles and re-tunes. Values
        // beyond the bound stay exact in count/sum/max and fall into the
        // overflow bucket.
        let factor = if full_sessions { 24 } else { 4 };
        let latency_bound = (cycle_len as u64).max(1) * factor;
        let tuning_bound = (cycle_len as u64).max(1) * if full_sessions { 24 } else { 2 };
        let energy_bound = radio_uj(rate, tuning_bound, latency_bound);
        Self {
            latency: StreamingHistogram::with_bound(latency_bound, HIST_BUCKETS),
            tuning: StreamingHistogram::with_bound(tuning_bound, HIST_BUCKETS),
            energy_uj: StreamingHistogram::with_bound(energy_bound, HIST_BUCKETS),
            mismatches: 0,
            failures: 0,
            peak_memory_bytes: 0,
            fault: supervised.then(|| FaultAgg::new(cycle_len)),
            session_cpu_ms: 0.0,
            cpu_sessions: 0,
        }
    }

    fn record(&mut self, rate: ChannelRate, tuning: u64, latency: u64, peak: usize, exact: bool) {
        if !exact {
            self.mismatches += 1;
        }
        self.latency.record(latency);
        self.tuning.record(tuning);
        self.energy_uj
            .record(radio_uj(rate, tuning, latency - tuning));
        self.peak_memory_bytes = self.peak_memory_bytes.max(peak);
    }

    fn absorb(&mut self, other: CellMetrics) {
        self.latency.merge(&other.latency);
        self.tuning.merge(&other.tuning);
        self.energy_uj.merge(&other.energy_uj);
        self.mismatches += other.mismatches;
        self.failures += other.failures;
        self.peak_memory_bytes = self.peak_memory_bytes.max(other.peak_memory_bytes);
        if let (Some(a), Some(b)) = (self.fault.as_mut(), other.fault) {
            a.absorb(b);
        }
        self.session_cpu_ms += other.session_cpu_ms;
        self.cpu_sessions += other.cpu_sessions;
    }
}

/// Radio (receive + sleep) energy in micro-joules for the given packet
/// counts — WaveLAN figures, a pure function of the counts.
fn radio_uj(rate: ChannelRate, tuning: u64, sleep: u64) -> u64 {
    let stats = QueryStats {
        tuning_packets: tuning,
        sleep_packets: sleep,
        ..QueryStats::default()
    };
    let (rx, sl, _) = EnergyModel::WAVELAN_ARM.breakdown(&stats, rate);
    ((rx + sl) * 1e6).round() as u64
}

fn summarize(h: &StreamingHistogram) -> PercentileSummary {
    PercentileSummary {
        p50: h.percentile(0.50),
        p95: h.percentile(0.95),
        p99: h.percentile(0.99),
        max: h.max(),
        mean: h.mean(),
        overflow: h.overflow(),
        bucket_width: h.width(),
    }
}

/// Serves one cell's population and aggregates its streaming metrics.
fn run_cell(prep: &PreparedLoad, cell: &PreparedCell, threads: usize) -> LoadCellReport {
    let start = Instant::now();
    let spec = &prep.specs[cell.scenario_idx];
    let ctx = &prep.contexts[cell.scenario_idx];
    let cycle = air_cycle(ctx, cell.method);
    let cycle_len = cycle.len();
    let pool = query_pool(ctx);
    let supervised = spec.flash;
    // Cells whose clients each run a real session (lossy or supervised
    // flash), as opposed to O(1) profile replay.
    let full_sessions = spec.scenario.loss.is_lossy() || supervised;
    let rate = spec.scenario.rate;
    let seed = cell_seed(spec.scenario.seed, cell.method);
    let uniform = Tune {
        tune_in: TuneInSpec::Uniform,
        ..Tune::of(&spec.scenario)
    };

    let clients: Vec<u32> = (0..cell.population as u32).collect();
    let metrics = parallel::map_reduce_chunked(
        &clients,
        threads,
        4,
        // Full-session workers reuse one client device's buffers across
        // their sessions (each session still opens a fresh channel).
        || match &cell.mode {
            CellMode::Full { .. } => Some(device(ctx, cell.method)),
            CellMode::Replay { .. } => None,
        },
        || CellMetrics::new(cycle_len, full_sessions, supervised, rate),
        |client, partial: &mut CellMetrics, chunk, _| {
            for &i in chunk {
                let h = splitmix64(seed ^ splitmix64(u64::from(i) + 1));
                let qi = (h % pool.len() as u64) as usize;
                let offset = (splitmix64(h) % cycle_len as u64) as usize;
                let (tune, budget) = match &cell.mode {
                    CellMode::Replay {
                        shape,
                        anchors,
                        profiles,
                    } => {
                        let Some((ci, delta)) = resolve_class(*shape, anchors, cycle, offset)
                        else {
                            partial.failures += 1;
                            continue;
                        };
                        let p = &profiles[qi * class_count(*shape, anchors) + ci];
                        if p.failed {
                            partial.failures += 1;
                        } else {
                            partial.record(
                                rate,
                                p.tuning,
                                p.latency + delta,
                                p.peak_memory_bytes,
                                p.exact,
                            );
                        }
                        continue;
                    }
                    // Re-tunes draw fresh offsets and loss streams; a
                    // shared fault plan stays the population-wide
                    // schedule throughout.
                    CellMode::Full { faults, budget } => (
                        Tune {
                            faults: *faults,
                            ..uniform
                        },
                        *budget,
                    ),
                };
                // Attempt 0 re-derives this client's own offset and loss
                // stream from `h`.
                let device = client.as_mut().expect("full-session scratch");
                let t0 = Instant::now();
                let d = drive(
                    program(ctx, cell.method),
                    device,
                    ctx.g(),
                    pool[qi],
                    &tune,
                    budget,
                    |_| h,
                );
                partial.session_cpu_ms += t0.elapsed().as_secs_f64() * 1000.0;
                partial.cpu_sessions += 1;
                let Some(fault) = partial.fault.as_mut() else {
                    match d.stats {
                        Some(stats) => partial.record(
                            rate,
                            stats.tuning_packets,
                            stats.latency_packets,
                            stats.peak_memory_bytes,
                            d.verdict == Verdict::Exact,
                        ),
                        None => partial.failures += 1,
                    }
                    continue;
                };
                fault.session(&d);
                match (d.stats, d.verdict) {
                    (Some(stats), verdict) => partial.record(
                        rate,
                        d.tuned_packets,
                        d.recovery_packets,
                        stats.peak_memory_bytes,
                        verdict == Verdict::Exact,
                    ),
                    (None, Verdict::Failed(class)) => fault.failed(class),
                    // The pool is oracle-backed — every query is
                    // reachable — so a trusted negative is wrong.
                    (None, _) => partial.mismatches += 1,
                }
            }
        },
        |a, b| a.absorb(b),
    )
    .unwrap_or_else(|| CellMetrics::new(cycle_len, full_sessions, supervised, rate));

    let fault = metrics.fault.map(|agg| LoadFaultSummary {
        fault: spec.scenario.fault.label(),
        typed_failures: agg.typed_failures,
        failure_rate: agg.typed_failures as f64 / (cell.population.max(1)) as f64,
        budget_violations: agg.budget_violations,
        attempts: agg.attempts,
        max_attempts: agg.max_attempts,
        retried: agg.retried,
        recovery: summarize(&agg.recovery),
        failure_classes: agg
            .classes
            .into_iter()
            .map(|(c, n)| (c.to_string(), n))
            .collect(),
    });

    // Mean measured CPU per real client session: the profile table for
    // replayed cells (their served clients are O(1) replays), the served
    // sessions themselves otherwise.
    let client_cpu_ms = match &cell.mode {
        CellMode::Replay { profiles, .. } => {
            let n = profiles.len().max(1);
            profiles.iter().map(|p| p.cpu_ms).sum::<f64>() / n as f64
        }
        CellMode::Full { .. } => metrics.session_cpu_ms / metrics.cpu_sessions.max(1) as f64,
    };

    LoadCellReport {
        scenario: spec.scenario.name.clone(),
        method: cell.method.name(),
        population: cell.population,
        query_pool: pool.len(),
        replayed: !full_sessions,
        profile_sessions: cell.profile_sessions(),
        mismatches: metrics.mismatches,
        failures: metrics.failures,
        cycle_packets: cycle_len,
        peak_memory_bytes: metrics.peak_memory_bytes,
        latency: summarize(&metrics.latency),
        tuning: summarize(&metrics.tuning),
        energy_uj: summarize(&metrics.energy_uj),
        radio_energy_joules_total: metrics.energy_uj.sum() as f64 / 1e6,
        fault,
        cpu_ms: start.elapsed().as_secs_f64() * 1000.0,
        client_cpu_ms,
    }
}

/// Serves every prepared cell's population across `threads` workers and
/// returns the aggregated report. Cheap relative to [`prepare`] for
/// lossless cells (replay is O(1) per client); deterministic for every
/// thread count.
pub fn run(prep: &PreparedLoad, threads: usize) -> LoadReport {
    LoadReport {
        cells: prep
            .cells
            .iter()
            .map(|cell| run_cell(prep, cell, threads))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_seeds_differ_per_method_and_seed() {
        let a = cell_seed(1, MethodId::NR);
        let b = cell_seed(1, MethodId::EB);
        let c = cell_seed(2, MethodId::NR);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn shapes_cover_all_air_methods() {
        // Every servable method declares its shape on the descriptor;
        // the registry's air set is exactly the servable set.
        for m in spair_methods::MethodRegistry::standard().air_methods() {
            let _ = session_shape(m); // must not panic
        }
    }

    #[test]
    fn radio_uj_scales_with_tuning() {
        let rate = ChannelRate::MOVING_3G;
        let quiet = radio_uj(rate, 0, 1000);
        let loud = radio_uj(rate, 1000, 0);
        assert!(loud > 20 * quiet, "rx {loud} vs sleep {quiet}");
    }
}
