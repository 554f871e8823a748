//! Serial-vs-parallel precomputation benchmark and `BENCH_precompute.json`
//! emitter — the BENCH trajectory point for the parallel pipeline.
//!
//! ```text
//! cargo run --release -p spair-bench --bin bench_precompute -- \
//!     [--side 71] [--regions 32] [--spq-side 45] [--hiti-side 45] \
//!     [--threads N] [--repeat 3] \
//!     [--out BENCH_precompute.json]
//! ```
//!
//! Builds a generated road network (`side × side` grid topology, ~5k
//! nodes by default), partitions it, then:
//!
//! 1. runs `BorderPrecomputation::run_serial` and the parallel
//!    `run_with_threads` (best of `--repeat` runs each),
//! 2. verifies the parallel tables are **bit-identical** to serial and
//!    records the kernel's deterministic counters (`core_nodes`: the
//!    2-core every source searches; `branch_nodes`: the core nodes
//!    outside degree-2 chains, which the heap settles;
//!    `kept_peeled_nodes`: the peeled nodes with a border node below
//!    them, the only ones each search fills; `search_roots`: the core
//!    border nodes and dangling-tree attachments searched from;
//!    `shared_sources`: border nodes inside dangling trees folded from
//!    their attachment's search; `tie_fallback_sources`: sources
//!    recomputed over the whole graph after a double tie;
//!    `tables_digest`: `BorderPrecomputation::tables_digest`, an FNV-1a
//!    64 over the minmax, traversed and cross-border tables), then does the
//!    same in the `germany` object on a fixed germany-class map
//!    (`NetworkPreset::Germany.config_for_nodes(7, 8_000)`, 64 kd
//!    regions, the benchmark's `updates` map), where most border nodes
//!    sit in dangling trees,
//! 3. repeats the exercise for the SPQ all-pairs build on a
//!    `--spq-side`-sized grid (`SpqIndex::build_serial` vs
//!    `build_with_threads`, gated on `same_trees`) — the per-node
//!    quadtree construction is the costliest precompute stage the
//!    framework has, so its speedup is tracked as its own trajectory
//!    point — with its deterministic counters (`core_nodes`: roots the
//!    kernel searches; `branch_nodes`: the core nodes the heap settles;
//!    `searchless_roots`: roots inside dangling trees, colored without
//!    a search; `tie_fallback_roots`: core roots
//!    recomputed over the whole graph after a double tie),
//!    and again in the `spq_germany` object on a fixed germany-class
//!    map (`NetworkPreset::Germany.config_for_nodes(7, 6_000)`, the
//!    benchmark's `whole_cycle` map), whose roots mostly sit in dangling
//!    trees (the grid's are mostly core roots),
//! 4. repeats it once more for the HiTi hierarchy build on a
//!    `--hiti-side`-sized grid (`HiTiIndex::build_with_threads` at one
//!    worker vs many, gated on `same_tables`) — the flattened
//!    slot-arena build whose serial/parallel identity the hierarchy
//!    experiments rely on,
//! 5. writes the measurements as JSON.
//!
//! The JSON schema is documented in ROADMAP.md's Performance section.
//! A parallel build that diverges from serial is reported through the
//! shared runner of `spair_roadnet::certify`: the artifact records each
//! `bit_identical` verdict and the run exits 1.

use spair_baselines::spq::SpqIndex;
use spair_baselines::HiTiIndex;
use spair_core::BorderPrecomputation;
use spair_partition::KdTreePartition;
use spair_roadnet::certify::{self, host_json, object, Cli, Envelope};
use spair_roadnet::generators::small_grid;
use spair_roadnet::{NetworkPreset, RoadNetwork};
use std::time::Instant;

/// The fixed germany-class border precompute: seed, nodes and kd regions
/// of the benchmark's `updates` map.
const GERMANY_SEED: u64 = 7;
const GERMANY_NODES: usize = 8_000;
const GERMANY_REGIONS: usize = 64;

/// Nodes of the fixed germany-class SPQ build: the end-to-end
/// benchmark's `whole_cycle` map (same seed as `GERMANY_SEED`).
const SPQ_GERMANY_NODES: usize = 6_000;

/// The problem sizes of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sizes {
    side: usize,
    regions: usize,
    spq_side: usize,
    hiti_side: usize,
    repeat: usize,
}

/// The configuration the committed artifact is generated with; a run
/// shrunk (or grown) via any size flag is a partial run redirected to
/// `*.smoke.json`.
const DEFAULT_SIZES: Sizes = Sizes {
    side: 71,
    regions: 32,
    spq_side: 45,
    hiti_side: 45,
    repeat: 3,
};

impl Sizes {
    fn partial_reason(&self) -> Option<&'static str> {
        (*self != DEFAULT_SIZES).then_some("non-default problem size")
    }
}

/// One serial-vs-parallel build comparison.
struct Stage {
    serial_secs: f64,
    parallel_secs: f64,
    bit_identical: bool,
}

impl Stage {
    /// Times `serial` and `parallel` (best of `repeat` runs each) and
    /// compares their outputs with `same`; returns the serial output.
    fn measure<T>(
        label: &str,
        repeat: usize,
        serial: impl FnMut() -> T,
        parallel: impl FnMut() -> T,
        same: impl Fn(&T, &T) -> bool,
    ) -> (Stage, T) {
        let (serial_secs, s) = best_of(repeat, serial);
        eprintln!("{label}serial:   {serial_secs:.3}s (best of {repeat})");
        let (parallel_secs, p) = best_of(repeat, parallel);
        eprintln!("{label}parallel: {parallel_secs:.3}s (best of {repeat})");
        let stage = Stage {
            serial_secs,
            parallel_secs,
            bit_identical: same(&s, &p),
        };
        eprintln!(
            "{label}speedup:  {:.2}x (bit-identical: {})",
            stage.speedup(),
            stage.bit_identical
        );
        (stage, s)
    }

    fn speedup(&self) -> f64 {
        self.serial_secs / self.parallel_secs
    }

    /// The stage's measurement fields, in artifact order.
    fn fields(&self) -> [(&'static str, String); 4] {
        [
            ("serial_secs", format!("{:.6}", self.serial_secs)),
            ("parallel_secs", format!("{:.6}", self.parallel_secs)),
            ("speedup", format!("{:.4}", self.speedup())),
            ("bit_identical", self.bit_identical.to_string()),
        ]
    }
}

/// The SPQ build on `g`, serial vs `threads` workers, with the graph's
/// fields and the index's counters.
fn spq_stage(
    label: &str,
    g: &RoadNetwork,
    threads: usize,
    repeat: usize,
) -> (Stage, Vec<(&'static str, String)>) {
    eprintln!(
        "{label}graph: {} nodes, {} edges",
        g.num_nodes(),
        g.num_edges()
    );
    let (stage, index) = Stage::measure(
        label,
        repeat,
        || SpqIndex::build_serial(g),
        || SpqIndex::build_with_threads(g, threads),
        SpqIndex::same_trees,
    );
    let fields = vec![
        ("nodes", g.num_nodes().to_string()),
        ("edges", g.num_edges().to_string()),
        ("total_blocks", index.total_blocks().to_string()),
        ("index_packets", index.index_packets().to_string()),
        ("core_nodes", index.core_nodes().to_string()),
        ("branch_nodes", index.branch_nodes().to_string()),
        ("searchless_roots", index.searchless_roots().to_string()),
        ("tie_fallback_roots", index.tie_fallback_roots().to_string()),
    ];
    (stage, fields)
}

/// Border precompute on `g` under `regions` kd regions, serial vs
/// `threads` workers, with the graph's fields and the kernel's counters.
fn border_stage(
    label: &str,
    g: &RoadNetwork,
    regions: usize,
    threads: usize,
    repeat: usize,
) -> (Stage, Vec<(&'static str, String)>) {
    let part = KdTreePartition::build(g, regions);
    eprintln!(
        "{label}graph: {} nodes, {} edges; partition: {regions} regions; threads: {threads}",
        g.num_nodes(),
        g.num_edges(),
    );
    let (stage, pre) = Stage::measure(
        label,
        repeat,
        || BorderPrecomputation::run_serial(g, &part),
        || BorderPrecomputation::run_with_threads(g, &part, threads),
        BorderPrecomputation::same_tables,
    );
    let fields = vec![
        ("nodes", g.num_nodes().to_string()),
        ("edges", g.num_edges().to_string()),
        ("border_nodes", pre.borders().count().to_string()),
        ("regions", regions.to_string()),
        ("core_nodes", pre.core_nodes().to_string()),
        ("branch_nodes", pre.branch_nodes().to_string()),
        ("kept_peeled_nodes", pre.kept_peeled_nodes().to_string()),
        ("search_roots", pre.search_roots().to_string()),
        ("shared_sources", pre.shared_sources().to_string()),
        (
            "tie_fallback_sources",
            pre.tie_fallback_sources().to_string(),
        ),
        ("tables_digest", format!("\"{:016x}\"", pre.tables_digest())),
    ];
    (stage, fields)
}

fn best_of<T>(repeat: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..repeat {
        let start = Instant::now();
        let value = f();
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(value);
    }
    (best, out.expect("repeat >= 1"))
}

fn main() {
    let mut sizes = DEFAULT_SIZES;
    let mut cli = Cli::from_env(
        "bench_precompute",
        "[--side N] [--regions N] [--spq-side N] [--hiti-side N] [--threads N] \
         [--repeat N] [--out PATH]",
    );
    let args = cli.bench_args(&[], |flag, cli| {
        let field = match flag {
            "--side" => &mut sizes.side,
            "--regions" => &mut sizes.regions,
            "--spq-side" => &mut sizes.spq_side,
            "--hiti-side" => &mut sizes.hiti_side,
            "--repeat" => &mut sizes.repeat,
            _ => return Ok(false),
        };
        *field = cli.positive(flag)?;
        Ok(true)
    });
    let out = args.out_path("BENCH_precompute.json", sizes.partial_reason());
    let (threads, repeat) = (args.threads, sizes.repeat);

    let g = small_grid(sizes.side, sizes.side, 42);
    let (border, graph_fields) = border_stage("", &g, sizes.regions, threads, repeat);
    let germany_graph = NetworkPreset::Germany
        .config_for_nodes(GERMANY_SEED, GERMANY_NODES)
        .generate();
    let (germany, germany_fields) =
        border_stage("germany ", &germany_graph, GERMANY_REGIONS, threads, repeat);

    // SPQ all-pairs build: one shortest-path tree (searched, or derived
    // inside a dangling tree) and one quadtree per node. Its own
    // (smaller) network keeps the quadratic stage within a bench budget;
    // the germany-class map, mostly dangling trees, shows the searchless
    // roots the grid barely has.
    let sg = small_grid(sizes.spq_side, sizes.spq_side, 42);
    let (spq, spq_fields) = spq_stage("spq ", &sg, threads, repeat);
    let spq_germany_graph = NetworkPreset::Germany
        .config_for_nodes(GERMANY_SEED, SPQ_GERMANY_NODES)
        .generate();
    let (spq_germany, spq_germany_fields) =
        spq_stage("spq germany ", &spq_germany_graph, threads, repeat);

    // HiTi hierarchy build: restricted border-pair Dijkstras over every
    // group of every level, on the flat slot-arena path. One worker vs
    // many, pinned bit-identical via the `same_tables` certificate.
    const HITI_GRID_SIDE: usize = 8;
    const HITI_LEVELS: usize = 4;
    let hg = small_grid(sizes.hiti_side, sizes.hiti_side, 42);
    eprintln!(
        "hiti graph: {} nodes, {} edges",
        hg.num_nodes(),
        hg.num_edges()
    );
    let (hiti, hiti_index) = Stage::measure(
        "hiti ",
        repeat,
        || HiTiIndex::build_with_threads(&hg, HITI_GRID_SIDE, HITI_LEVELS, 1),
        || HiTiIndex::build_with_threads(&hg, HITI_GRID_SIDE, HITI_LEVELS, threads),
        HiTiIndex::same_tables,
    );

    let hiti_fields = [
        ("nodes", hg.num_nodes().to_string()),
        ("edges", hg.num_edges().to_string()),
        ("grid_side", HITI_GRID_SIDE.to_string()),
        ("levels", HITI_LEVELS.to_string()),
        ("index_bytes", hiti_index.index_bytes().to_string()),
        ("index_packets", hiti_index.index_packets().to_string()),
    ];
    let mut json = Envelope::new("border_precompute_serial_vs_parallel")
        .field("graph", object(&graph_fields))
        .field("host", host_json(threads))
        .field("repeat", repeat);
    for (key, value) in border.fields() {
        json = json.field(key, value);
    }
    let json = json
        .field("spq", object(&[&spq_fields[..], &spq.fields()].concat()))
        .field("hiti", object(&[&hiti_fields[..], &hiti.fields()].concat()))
        .field(
            "germany",
            object(&[&germany_fields[..], &germany.fields()].concat()),
        )
        .field(
            "spq_germany",
            object(&[&spq_germany_fields[..], &spq_germany.fields()].concat()),
        )
        .finish();
    let bit_identical = [border, germany, spq, hiti, spq_germany]
        .iter()
        .all(|stage| stage.bit_identical);
    std::process::exit(certify::publish(&out, &json, Ok(()), bit_identical));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resized_runs_never_shadow_the_committed_artifact() {
        assert_eq!(DEFAULT_SIZES.partial_reason(), None);
        let sizes = Sizes {
            side: 41,
            ..DEFAULT_SIZES
        };
        assert_eq!(sizes.partial_reason(), Some("non-default problem size"));
    }
}
