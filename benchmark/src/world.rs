//! World set-up, seeded query pools, oracles and answer checks.

use crate::trace::Tracer;
use spair_core::{BorderPrecomputation, Query, WeightDelta};
use spair_methods::{MethodId, MethodProgram, ProgramSet, World};
use spair_partition::{KdTreePartition, Partitioning, RegionId};
use spair_roadnet::parallel::num_threads;
use spair_roadnet::{dijkstra_full, Distance, NetworkPreset, NodeId, RoadNetwork};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Seed of every generated network. The map is a fixed fixture, so a
/// workload seed varies the traffic (queries, tune-in offsets, loss,
/// weight updates), not the road network under it.
pub const WORLD_SEED: u64 = 7;

/// Seed of the reference traffic. The packet and memory metrics are
/// measured on one pass of it whatever `--seed` is, so they are exact:
/// a program that spends one more packet shows on every run. The timed
/// traffic follows `--seed`.
pub const REFERENCE_SEED: u64 = 0;

/// `splitmix64` (Steele et al.), the seed mixer for every stream here.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A small deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` salted with `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(splitmix64(seed ^ splitmix64(stream)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Size of a workload's road network.
#[derive(Debug, Clone, Copy)]
pub struct WorldSpec {
    /// Germany-class node count.
    pub nodes: usize,
    /// Kd regions.
    pub regions: usize,
}

/// Runs the border precomputation over `g` on `threads` workers and
/// builds every method's broadcast program — what the server does for
/// each network version.
pub fn publish(
    g: RoadNetwork,
    part: Arc<KdTreePartition>,
    methods: &[MethodId],
    threads: usize,
    tracer: &mut Tracer,
) -> ProgramSet {
    let pre = tracer.time("core.precompute", "", || {
        BorderPrecomputation::run_with_threads(&g, part.as_ref(), threads)
    });
    let programs = ProgramSet::new(World {
        g: Arc::new(g),
        part,
        pre: Arc::new(pre),
        pois: Arc::new(Vec::new()),
        tuning: Default::default(),
    });
    for &m in methods {
        tracer.time("methods.build", m.name(), || {
            programs.ensure(m);
        });
    }
    programs
}

/// A built world: every requested method's program.
pub struct Setup {
    /// The programs (and the world they were built from).
    pub programs: ProgramSet,
    /// The workload's methods, in session order.
    pub methods: Vec<MethodId>,
}

impl Setup {
    /// Full server set-up: generate, partition, precompute, build, on the
    /// library's default worker count.
    pub fn build(spec: &WorldSpec, methods: &[MethodId], tracer: &mut Tracer) -> Self {
        let g = tracer.time("roadnet.generate", "", || {
            NetworkPreset::Germany
                .config_for_nodes(WORLD_SEED, spec.nodes)
                .generate()
        });
        let part = tracer.time("partition.kd_build", "", || {
            KdTreePartition::build(&g, spec.regions)
        });
        Self {
            programs: publish(g, Arc::new(part), methods, num_threads(), tracer),
            methods: methods.to_vec(),
        }
    }

    /// The road network.
    pub fn g(&self) -> &RoadNetwork {
        &self.programs.world().g
    }

    /// A method's (already built) program.
    pub fn program(&self, m: MethodId) -> &dyn MethodProgram {
        self.programs.ensure(m)
    }
}

/// One query with its oracle distance.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// The query.
    pub query: Query,
    /// `dijkstra_full` distance from source to target.
    pub oracle: Distance,
}

/// `sources × per_source` random reachable pairs; one `dijkstra_full`
/// per source supplies the oracles.
pub fn random_pool(g: &RoadNetwork, rng: &mut Rng, sources: usize, per_source: usize) -> Vec<Case> {
    let n = g.num_nodes();
    let mut pool = Vec::with_capacity(sources * per_source);
    for _ in 0..sources {
        let s = rng.below(n) as NodeId;
        let tree = dijkstra_full(g, s);
        let mut found = 0;
        while found < per_source {
            let t = rng.below(n) as NodeId;
            if t != s && tree.reachable(t) {
                pool.push(Case {
                    query: Query::for_nodes(g, s, t),
                    oracle: tree.distance(t),
                });
                found += 1;
            }
        }
    }
    pool
}

/// Changed edges grouped by the region of their source node, the shape
/// `build_patch_cycle` takes.
pub type Deltas = Vec<(RegionId, Vec<WeightDelta>)>;

/// The next network version: each directed edge is re-weighted with
/// probability `permille`/1000 to between half and twice its weight.
/// Returns the new network and its deltas against `g`.
pub fn reweight(
    g: &RoadNetwork,
    part: &KdTreePartition,
    rng: &mut Rng,
    permille: u64,
) -> (RoadNetwork, Deltas) {
    let mut offsets = Vec::with_capacity(g.num_nodes() + 1);
    let mut targets = Vec::with_capacity(g.num_edges());
    let mut weights = Vec::with_capacity(g.num_edges());
    let mut groups: BTreeMap<RegionId, Vec<WeightDelta>> = BTreeMap::new();
    offsets.push(0u32);
    for v in g.node_ids() {
        for (t, w) in g.out_edges(v) {
            let mut nw = w;
            if rng.next_u64() % 1000 < permille {
                let factor = 500 + rng.next_u64() % 1501;
                nw = u32::try_from((u64::from(w) * factor / 1000).max(1)).unwrap_or(u32::MAX);
                if nw != w {
                    groups
                        .entry(part.region_of(v))
                        .or_default()
                        .push(WeightDelta {
                            from: v,
                            to: t,
                            weight: nw,
                        });
                }
            }
            targets.push(t);
            weights.push(nw);
        }
        offsets.push(u32::try_from(targets.len()).expect("edge count fits u32"));
    }
    let next = RoadNetwork::from_csr(g.points().to_vec(), offsets, targets, weights);
    (next, groups.into_iter().collect())
}

/// `sources × per_source` local journeys: every node within twice the
/// journey's distance of its source lies in the source's kd region, so
/// an arena holding that region can certify the answer even after the
/// weights along it halve — commutes across town, not across regions.
pub fn commuter_pairs(
    g: &RoadNetwork,
    part: &KdTreePartition,
    rng: &mut Rng,
    sources: usize,
    per_source: usize,
) -> Vec<(NodeId, NodeId)> {
    let n = g.num_nodes();
    let mut pairs = Vec::with_capacity(sources * per_source);
    while pairs.len() < sources * per_source {
        let s = rng.below(n) as NodeId;
        let region = part.region_of(s);
        let tree = dijkstra_full(g, s);
        // Distance to the nearest node outside the source's region.
        let exit = g
            .node_ids()
            .filter(|&v| part.region_of(v) != region)
            .map(|v| tree.distance(v))
            .min()
            .unwrap_or(Distance::MAX);
        let mut mates: Vec<NodeId> = g
            .node_ids()
            .filter(|&v| {
                v != s && part.region_of(v) == region && tree.distance(v).saturating_mul(2) < exit
            })
            .collect();
        if mates.len() < per_source {
            continue;
        }
        for _ in 0..per_source {
            let t = mates.swap_remove(rng.below(mates.len()));
            pairs.push((s, t));
        }
    }
    pairs
}

/// Whether `path` is a walk from the query's source to its target in
/// `g` whose edge weights sum to `dist` (the cheapest parallel edge
/// counts where several join two nodes).
pub fn path_ok(g: &RoadNetwork, q: &Query, dist: Distance, path: &[NodeId]) -> bool {
    if path.first() != Some(&q.source) || path.last() != Some(&q.target) {
        return false;
    }
    let mut total: Distance = 0;
    for w in path.windows(2) {
        match g
            .out_edges(w[0])
            .filter(|&(t, _)| t == w[1])
            .map(|(_, wt)| wt)
            .min()
        {
            Some(wt) => total += Distance::from(wt),
            None => return false,
        }
    }
    total == dist
}

/// Whether an answer matches its oracle: the distance is equal and the
/// path is a walk of that weight in `g`.
pub fn answer_ok(g: &RoadNetwork, case: &Case, dist: Distance, path: &[NodeId]) -> bool {
    dist == case.oracle && path_ok(g, &case.query, dist, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spair_roadnet::generators::small_grid;

    #[test]
    fn rng_is_seeded() {
        let draw = |seed| {
            let mut r = Rng::new(seed, 2);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(Rng::new(1, 2).next_u64(), Rng::new(2, 2).next_u64());
    }

    #[test]
    fn pool_oracles_and_path_check() {
        let g = small_grid(8, 8, 3);
        let pool = random_pool(&g, &mut Rng::new(5, 0), 3, 4);
        assert_eq!(pool.len(), 12);
        for c in &pool {
            let tree = dijkstra_full(&g, c.query.source);
            let path = tree.path_to(c.query.target).unwrap();
            assert!(answer_ok(&g, c, c.oracle, &path));
            assert!(!answer_ok(&g, c, c.oracle + 1, &path));
            let reversed: Vec<NodeId> = path.iter().rev().copied().collect();
            assert!(!path_ok(&g, &c.query, c.oracle, &reversed));
            // A jump between two non-adjacent nodes is not a walk.
            let far = (0..64)
                .find(|&v| v != c.query.source && g.weight_between(c.query.source, v).is_none())
                .unwrap();
            let q = Query {
                target: far,
                ..c.query
            };
            assert!(!path_ok(&g, &q, 1, &[c.query.source, far]));
        }
    }
}
