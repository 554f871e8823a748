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
    drive, Device, Driven, FaultSource, ScenarioContext, Tally, Tune, TuneInSpec, Verdict,
    WorkItem, FAULT_BUDGET,
};
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

/// One real client session, recorded at a class representative offset
/// and replayed across the population.
#[derive(Debug, Clone, Copy)]
struct SessionProfile {
    /// The session's verdict against the oracle.
    verdict: Verdict,
    /// The answer's measurements; `None` when no answer came back.
    stats: Option<QueryStats>,
    /// Measured CPU milliseconds of this real session (timing-only —
    /// never digested; replayed cells report the per-profile mean).
    cpu_ms: f64,
}

impl SessionProfile {
    /// The session of a client whose tune-in packet points `delta`
    /// packets further ahead than the probe's: the same answer, `delta`
    /// packets later.
    fn replay(&self, delta: u64) -> Driven {
        Driven {
            verdict: self.verdict,
            stats: self.stats.map(|s| QueryStats {
                latency_packets: s.latency_packets + delta,
                sleep_packets: s.sleep_packets + delta,
                ..s
            }),
            queries: 1,
            ..Driven::default()
        }
    }
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
    SessionProfile {
        verdict: d.verdict,
        stats: d.stats,
        cpu_ms: start.elapsed().as_secs_f64() * 1000.0,
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
        let s = p.replay(delta).stats?;
        Some((
            s.tuning_packets,
            s.latency_packets,
            s.latency_packets - s.tuning_packets,
        ))
    }
}

/// Streaming per-cell aggregate — the map-reduce partial. O(buckets)
/// memory regardless of population.
struct CellMetrics {
    rate: ChannelRate,
    latency: StreamingHistogram,
    tuning: StreamingHistogram,
    energy_uj: StreamingHistogram,
    /// Every session's recovery latency, answered or not — supervised
    /// flash cells only.
    recovery: Option<StreamingHistogram>,
    /// Every client's session, folded.
    tally: Tally,
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
        let cycle = (cycle_len as u64).max(1);
        let factor = if full_sessions { 24 } else { 4 };
        let latency_bound = cycle * factor;
        let tuning_bound = cycle * if full_sessions { 24 } else { 2 };
        let energy_bound = radio_uj(rate, tuning_bound, latency_bound);
        Self {
            rate,
            latency: StreamingHistogram::with_bound(latency_bound, HIST_BUCKETS),
            tuning: StreamingHistogram::with_bound(tuning_bound, HIST_BUCKETS),
            energy_uj: StreamingHistogram::with_bound(energy_bound, HIST_BUCKETS),
            recovery: supervised.then(|| StreamingHistogram::with_bound(cycle * 64, HIST_BUCKETS)),
            tally: Tally::default(),
            session_cpu_ms: 0.0,
            cpu_sessions: 0,
        }
    }

    /// Folds one client's session in. An answered session enters the
    /// cost histograms; a supervised one is charged its packets over
    /// every attempt.
    fn serve(&mut self, d: &Driven) {
        self.tally.fold(d);
        if let Some(recovery) = self.recovery.as_mut() {
            recovery.record(d.recovery_packets);
        }
        let Some(stats) = &d.stats else {
            return;
        };
        let (tuning, latency) = if self.recovery.is_some() {
            (d.tuned_packets, d.recovery_packets)
        } else {
            (stats.tuning_packets, stats.latency_packets)
        };
        self.latency.record(latency);
        self.tuning.record(tuning);
        self.energy_uj
            .record(radio_uj(self.rate, tuning, latency - tuning));
    }

    fn absorb(&mut self, other: CellMetrics) {
        self.latency.merge(&other.latency);
        self.tuning.merge(&other.tuning);
        self.energy_uj.merge(&other.energy_uj);
        if let (Some(a), Some(b)) = (self.recovery.as_mut(), other.recovery) {
            a.merge(&b);
        }
        self.tally.merge(&other.tally);
        self.session_cpu_ms += other.session_cpu_ms;
        self.cpu_sessions += other.cpu_sessions;
    }

    /// The cell's row.
    fn report(
        self,
        spec: &LoadSpec,
        cell: &PreparedCell,
        query_pool: usize,
        cycle_packets: usize,
        cpu_ms: f64,
    ) -> LoadCellReport {
        // Mean measured CPU per real client session: the profile table
        // for replayed cells (their served clients are O(1) replays), the
        // served sessions themselves otherwise.
        let client_cpu_ms = match &cell.mode {
            CellMode::Replay { profiles, .. } => {
                let n = profiles.len().max(1);
                profiles.iter().map(|p| p.cpu_ms).sum::<f64>() / n as f64
            }
            CellMode::Full { .. } => self.session_cpu_ms / self.cpu_sessions.max(1) as f64,
        };
        LoadCellReport {
            scenario: spec.scenario.name.clone(),
            method: cell.method.name(),
            population: cell.population,
            query_pool,
            replayed: matches!(cell.mode, CellMode::Replay { .. }),
            profile_sessions: cell.profile_sessions(),
            tally: self.tally,
            cycle_packets,
            latency: summarize(&self.latency),
            tuning: summarize(&self.tuning),
            energy_uj: summarize(&self.energy_uj),
            radio_energy_joules_total: self.energy_uj.sum() as f64 / 1e6,
            fault: self.recovery.map(|recovery| LoadFaultSummary {
                fault: spec.scenario.fault.label(),
                recovery: summarize(&recovery),
            }),
            cpu_ms,
            client_cpu_ms,
        }
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
                        // Without an anchor to replay from, no session
                        // could serve the client.
                        let d = resolve_class(*shape, anchors, cycle, offset).map_or_else(
                            Driven::default,
                            |(ci, delta)| {
                                profiles[qi * class_count(*shape, anchors) + ci].replay(delta)
                            },
                        );
                        partial.serve(&d);
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
                partial.serve(&d);
            }
        },
        |a, b| a.absorb(b),
    )
    .unwrap_or_else(|| CellMetrics::new(cycle_len, full_sessions, supervised, rate));
    let cpu_ms = start.elapsed().as_secs_f64() * 1000.0;
    metrics.report(spec, cell, pool.len(), cycle_len, cpu_ms)
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
    use spair_sim::Row;

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

    /// The replayed, lossy and flash rows of cells whose four clients'
    /// sessions each fold as `d`.
    fn rows(d: &Driven) -> [LoadCellReport; 3] {
        let specs = crate::spec::smoke_load_matrix();
        let modes = [
            CellMode::Replay {
                shape: SessionShape::WholeCycle,
                anchors: Vec::new(),
                profiles: Vec::new(),
            },
            CellMode::Full {
                faults: FaultSource::None,
                budget: RecoveryBudget::single(),
            },
            CellMode::Full {
                faults: FaultSource::None,
                budget: FAULT_BUDGET,
            },
        ];
        let mut rows = modes.into_iter().zip(&specs).map(|(mode, spec)| {
            let (full, flash) = (spec.scenario.loss.is_lossy() || spec.flash, spec.flash);
            let mut m = CellMetrics::new(100, full, flash, spec.scenario.rate);
            for _ in 0..4 {
                m.serve(d);
            }
            let cell = PreparedCell {
                scenario_idx: 0,
                method: MethodId::NR,
                population: 4,
                mode,
                profile_secs: 0.0,
            };
            m.report(spec, &cell, 4, 100, 0.0)
        });
        [(); 3].map(|_| rows.next().expect("three smoke specs"))
    }

    fn sample(verdict: Verdict, answered: bool) -> Driven {
        let stats = QueryStats {
            tuning_packets: 10,
            latency_packets: 30,
            sleep_packets: 20,
            peak_memory_bytes: 100,
            ..QueryStats::default()
        };
        let attempts = if matches!(verdict, Verdict::Failed(_)) {
            3
        } else {
            1
        };
        Driven {
            verdict,
            stats: answered.then_some(stats),
            queries: 1,
            attempts,
            max_attempts: attempts,
            recovery_packets: 30,
            max_recovery_packets: 30,
            tuned_packets: 10,
            ..Driven::default()
        }
    }

    /// Asserts that `row` renders the verdict columns `columns`.
    fn renders(row: &LoadCellReport, columns: &str) {
        let json = row.json_fields(false);
        assert!(json.contains(columns), "{columns} not in {json}");
    }

    #[test]
    fn an_exact_session_counts_as_exact() {
        let [replayed, lossy, flash] = rows(&sample(Verdict::Exact, true));
        for r in [&replayed, &lossy, &flash] {
            renders(
                r,
                "\"mismatches\": 0, \"failures\": 0, \"exact\": true, \
                        \"cycle_packets\": 100, \"peak_memory_bytes\": 100",
            );
            assert_eq!(r.latency.max, 30);
        }
        assert!(replayed.replayed && !lossy.replayed && !flash.replayed);
        assert!(replayed.fault.is_none() && lossy.fault.is_none());
        renders(
            &flash,
            "\"typed_failures\": 0, \"failure_rate\": 0.000000, \
                         \"budget_violations\": 0, \"attempts\": 4, \"max_attempts\": 1, \
                         \"retried\": 0",
        );
    }

    #[test]
    fn a_wrong_answer_counts_as_a_mismatch() {
        for r in rows(&sample(Verdict::Wrong, true)) {
            renders(
                &r,
                "\"mismatches\": 4, \"failures\": 0, \"exact\": false, \
                         \"cycle_packets\": 100, \"peak_memory_bytes\": 100",
            );
        }
    }

    #[test]
    fn a_trusted_unreachable_counts_as_a_mismatch() {
        for r in rows(&sample(Verdict::Wrong, false)) {
            renders(
                &r,
                "\"mismatches\": 4, \"failures\": 0, \"exact\": false, \
                         \"cycle_packets\": 100, \"peak_memory_bytes\": 0",
            );
            assert_eq!(r.latency.max, 0, "no answer enters the cost histograms");
        }
    }

    #[test]
    fn a_typed_give_up_counts_as_a_failure_or_in_the_fault_summary() {
        let [replayed, lossy, flash] = rows(&sample(Verdict::Failed("corrupted"), false));
        for r in [&replayed, &lossy] {
            renders(r, "\"mismatches\": 0, \"failures\": 4, \"exact\": false");
        }
        // Typed give-ups are certified degradation in a flash cell.
        renders(
            &flash,
            "\"mismatches\": 0, \"failures\": 0, \"exact\": true",
        );
        renders(
            &flash,
            "\"typed_failures\": 4, \"failure_rate\": 1.000000, \
                         \"budget_violations\": 0, \"attempts\": 12, \"max_attempts\": 3, \
                         \"retried\": 4",
        );
        renders(&flash, "\"failure_classes\": {\"corrupted\": 4}");
        let f = flash.fault.expect("flash cells carry a fault summary");
        assert_eq!(f.recovery.max, 30, "recovery covers failed sessions too");
    }

    #[test]
    fn an_unserved_client_counts_as_a_mismatch() {
        for r in rows(&Driven::default()) {
            renders(
                &r,
                "\"mismatches\": 4, \"failures\": 0, \"exact\": false, \
                         \"cycle_packets\": 100, \"peak_memory_bytes\": 0",
            );
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
