//! The Landmark method (ALT, Goldberg & Harrelson) on air (paper §2.1,
//! §3.2).
//!
//! The server picks `k` landmark nodes by farthest-point selection and
//! precomputes, for every node, its graph distance to and from each
//! landmark. The triangle inequality turns two distance vectors into an
//! admissible A* lower bound. On air the vectors ride in separate `Aux`
//! packets (§6.2: keep adjacency and precomputed data apart); a lost
//! vector degrades that node's bound to 0, never correctness. The client
//! still must receive the whole (now longer) cycle — the paper's point.

use spair_broadcast::codec::{PayloadReader, RecordBuf, RecordWriter};
use spair_broadcast::cycle::SegmentKind;
use spair_broadcast::packet::PacketKind;
use spair_broadcast::{Air, BroadcastCycle, CpuMeter, CycleBuilder, MemoryMeter};
use spair_core::client_common::{finish, ingest, receive_whole_cycle, same_node};
use spair_core::netcodec::{encode_nodes, ReceivedGraph};
use spair_core::query::{AirClient, Query, QueryError, QueryOutcome};
use spair_roadnet::dijkstra::{DijkstraWorkspace, Direction};
use spair_roadnet::{Distance, NodeId, RoadNetwork, DIST_INF};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::time::Instant;

const AUX_MAGIC: u8 = 0x1D;

/// Server-side landmark selection and distance vectors.
#[derive(Debug, Clone)]
pub struct LandmarkIndex {
    /// Chosen landmark nodes.
    pub landmarks: Vec<NodeId>,
    /// Row-major `[node][landmark]` distances node → landmark.
    pub to_landmark: Vec<Distance>,
    /// Row-major `[node][landmark]` distances landmark → node.
    pub from_landmark: Vec<Distance>,
    /// Build wall-clock (Table 3).
    pub precompute_secs: f64,
}

impl LandmarkIndex {
    /// Farthest-point landmark selection plus 2k full Dijkstras.
    pub fn build(g: &RoadNetwork, k: usize) -> Self {
        assert!(k >= 1, "need at least one landmark");
        let start = Instant::now();
        let n = g.num_nodes();
        let mut landmarks = Vec::with_capacity(k);
        // One persistent stamped workspace per direction: the 2k full
        // searches reuse the same dist/parent/version arrays instead of
        // allocating a fresh tree each, and distances (all the build
        // reads) are identical to the per-call `dijkstra_full` trees.
        let mut fwd = DijkstraWorkspace::new(n);
        let mut rev = DijkstraWorkspace::new(n);
        // Start from the node farthest from node 0, then iterate
        // farthest-from-the-set.
        fwd.run(g, 0, Direction::Forward);
        let first = g
            .node_ids()
            .filter(|&v| fwd.distance(v) != DIST_INF)
            .max_by_key(|&v| fwd.distance(v))
            .unwrap_or(0);
        landmarks.push(first);
        let mut to_landmark = vec![DIST_INF; n * k];
        let mut from_landmark = vec![DIST_INF; n * k];
        let mut min_dist = vec![Distance::MAX; n];
        // Farthest-point selection is inherently sequential (landmark
        // i+1 depends on the distances of landmarks 0..=i), but each
        // step's forward and reverse trees are independent — run them as
        // a two-way fork-join. Distances are exact, so the result is
        // identical to the serial build.
        for i in 0..k {
            let l = landmarks[i];
            spair_roadnet::parallel::join(
                || fwd.run(g, l, Direction::Forward), // d(L -> v)
                || rev.run(g, l, Direction::Reverse), // d(v -> L)
            );
            for v in g.node_ids() {
                from_landmark[v as usize * k + i] = fwd.distance(v);
                to_landmark[v as usize * k + i] = rev.distance(v);
                if fwd.distance(v) != DIST_INF {
                    min_dist[v as usize] = min_dist[v as usize].min(fwd.distance(v));
                }
            }
            if i + 1 < k {
                let next = g
                    .node_ids()
                    .filter(|&v| min_dist[v as usize] != Distance::MAX)
                    .max_by_key(|&v| min_dist[v as usize])
                    .unwrap_or(l);
                landmarks.push(next);
            }
        }
        Self {
            landmarks,
            to_landmark,
            from_landmark,
            precompute_secs: start.elapsed().as_secs_f64(),
        }
    }

    /// Number of landmarks.
    pub fn k(&self) -> usize {
        self.landmarks.len()
    }

    /// Bit-identity certificate: same landmark choice and the same
    /// distance vectors, entry for entry (build timing excluded).
    pub fn same_vectors(&self, other: &Self) -> bool {
        self.landmarks == other.landmarks
            && self.to_landmark == other.to_landmark
            && self.from_landmark == other.from_landmark
    }
}

/// The Landmark broadcast program.
#[derive(Debug)]
pub struct LandmarkProgram {
    cycle: BroadcastCycle,
    k: usize,
}

impl LandmarkProgram {
    /// The broadcast cycle.
    pub fn cycle(&self) -> &BroadcastCycle {
        &self.cycle
    }

    /// Number of landmarks.
    pub fn k(&self) -> usize {
        self.k
    }
}

/// Landmark server.
pub struct LandmarkServer<'a> {
    g: &'a RoadNetwork,
    index: &'a LandmarkIndex,
}

impl<'a> LandmarkServer<'a> {
    /// Binds the server to its inputs.
    pub fn new(g: &'a RoadNetwork, index: &'a LandmarkIndex) -> Self {
        Self { g, index }
    }

    /// Assembles the cycle: adjacency data, then distance vectors.
    pub fn build_program(&self) -> LandmarkProgram {
        let nodes: Vec<NodeId> = self.g.node_ids().collect();
        let k = self.index.k();
        let mut b = CycleBuilder::new();
        b.push_segment(
            SegmentKind::NetworkData,
            PacketKind::Data,
            encode_nodes(self.g, &nodes),
        );
        // Aux: per node, chunked records — magic, id, start, count,
        // count × (to, from) u32 pairs — so any landmark count fits the
        // 123-byte payload (14 pairs per record).
        const PAIRS_PER_RECORD: usize = 14;
        let mut w = RecordWriter::new();
        let mut rec = RecordBuf::new();
        for v in self.g.node_ids() {
            let mut start = 0usize;
            while start < k {
                let count = (k - start).min(PAIRS_PER_RECORD);
                rec.clear();
                rec.put_u8(AUX_MAGIC)
                    .put_u32(v)
                    .put_u8(start as u8)
                    .put_u8(count as u8);
                for i in start..start + count {
                    rec.put_u32(clamp_dist(self.index.to_landmark[v as usize * k + i]));
                    rec.put_u32(clamp_dist(self.index.from_landmark[v as usize * k + i]));
                }
                w.push_record(rec.as_slice());
                start += count;
            }
        }
        b.push_segment(SegmentKind::AuxData, PacketKind::Aux, w.finish());
        LandmarkProgram {
            cycle: b.finish(),
            k,
        }
    }
}

fn clamp_dist(d: Distance) -> u32 {
    if d == DIST_INF {
        u32::MAX
    } else {
        u32::try_from(d).expect("distance fits u32 on air")
    }
}

fn unclamp(v: u32) -> Distance {
    if v == u32::MAX {
        DIST_INF
    } else {
        v as Distance
    }
}

/// Decodes one aux payload into `(node, start, pairs)` chunks.
/// One decoded aux record: node, chunk start, `(to, from)` distance pairs.
type AuxRecord = (NodeId, usize, Vec<(Distance, Distance)>);

fn decode_aux(payload: &[u8]) -> Option<Vec<AuxRecord>> {
    let mut r = PayloadReader::new(payload);
    let mut out = Vec::new();
    while !r.is_empty() {
        if r.read_u8()? != AUX_MAGIC {
            return None;
        }
        let id = r.read_u32()?;
        let start = r.read_u8()? as usize;
        let count = r.read_u8()? as usize;
        let mut v = Vec::with_capacity(count);
        for _ in 0..count {
            let to = unclamp(r.read_u32()?);
            let from = unclamp(r.read_u32()?);
            v.push((to, from));
        }
        out.push((id, start, v));
    }
    Some(out)
}

/// The Landmark client: whole-cycle reception, then A* with ALT bounds.
#[derive(Debug, Clone, Default)]
pub struct LandmarkClient;

impl LandmarkClient {
    /// New client.
    pub fn new() -> Self {
        Self
    }
}

impl AirClient for LandmarkClient {
    fn method_name(&self) -> &'static str {
        "Landmark"
    }

    fn query(&mut self, ch: &mut dyn Air, q: &Query) -> Result<QueryOutcome, QueryError> {
        let mut mem = MemoryMeter::new();
        let mut cpu = CpuMeter::new();
        if let Some(out) = same_node(q) {
            return Ok(out);
        }
        let mut store = ReceivedGraph::new();
        let mut vectors: HashMap<NodeId, Vec<(Distance, Distance)>> = HashMap::new();
        receive_whole_cycle(ch, |p| match p.kind() {
            PacketKind::Data => {
                ingest(&mut store, &mut mem, p);
            }
            PacketKind::Aux => {
                if let Some(entries) = decode_aux(p.payload()) {
                    for (id, start, chunk) in entries {
                        mem.alloc(16 + chunk.len() * 8);
                        let v = vectors.entry(id).or_default();
                        if v.len() < start + chunk.len() {
                            v.resize(start + chunk.len(), (DIST_INF, DIST_INF));
                        }
                        for (i, pair) in chunk.into_iter().enumerate() {
                            v[start + i] = pair;
                        }
                    }
                }
            }
            _ => {}
        })?;

        // ALT bound to the target: max over landmarks of the two
        // triangle inequalities. A lost vector (§6.2) degrades it to 0.
        let target_vector = vectors.get(&q.target);
        let lb = |v: NodeId| -> Distance {
            let (Some(vv), Some(tv)) = (vectors.get(&v), target_vector) else {
                return 0;
            };
            let mut best = 0;
            for ((v_to, v_from), (t_to, t_from)) in vv.iter().zip(tv.iter()) {
                if *v_to != DIST_INF && *t_to != DIST_INF {
                    best = best.max(v_to.saturating_sub(*t_to));
                }
                if *v_from != DIST_INF && *t_from != DIST_INF {
                    best = best.max(t_from.saturating_sub(*v_from));
                }
            }
            best
        };

        mem.alloc(store.num_nodes() * 24);
        // A* with reopening: §6.2 losses leave the bound admissible but
        // possibly inconsistent.
        let (res, settled, _) = cpu.time(|| {
            store.search(
                q.source,
                Some(q.target),
                |v, _| lb(v),
                |_, _| true,
                |_, _, _| ControlFlow::Continue(()),
            )
        });
        finish(ch, &mem, &cpu, settled, res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spair_broadcast::{BroadcastChannel, LossModel};
    use spair_roadnet::dijkstra_distance;
    use spair_roadnet::generators::small_grid;

    #[test]
    fn landmark_selection_is_spread_out() {
        let g = small_grid(10, 10, 1);
        let idx = LandmarkIndex::build(&g, 4);
        assert_eq!(idx.k(), 4);
        // All distinct.
        let mut ls = idx.landmarks.clone();
        ls.sort_unstable();
        ls.dedup();
        assert_eq!(ls.len(), 4);
    }

    #[test]
    fn vectors_are_true_distances() {
        let g = small_grid(6, 6, 2);
        let idx = LandmarkIndex::build(&g, 2);
        for (i, &l) in idx.landmarks.iter().enumerate() {
            for v in g.node_ids().step_by(5) {
                assert_eq!(
                    Some(idx.to_landmark[v as usize * 2 + i]),
                    dijkstra_distance(&g, v, l)
                );
                assert_eq!(
                    Some(idx.from_landmark[v as usize * 2 + i]),
                    dijkstra_distance(&g, l, v)
                );
            }
        }
    }

    #[test]
    fn client_matches_dijkstra() {
        let g = small_grid(9, 9, 3);
        let idx = LandmarkIndex::build(&g, 4);
        let program = LandmarkServer::new(&g, &idx).build_program();
        let mut client = LandmarkClient::new();
        for &(s, t) in &[(0u32, 80u32), (40, 41), (8, 72)] {
            let mut ch = BroadcastChannel::lossless(program.cycle());
            let out = client.query(&mut ch, &Query::for_nodes(&g, s, t)).unwrap();
            assert_eq!(Some(out.distance), dijkstra_distance(&g, s, t));
        }
    }

    #[test]
    fn alt_bound_settles_fewer_nodes_than_dj() {
        let g = small_grid(14, 14, 4);
        let idx = LandmarkIndex::build(&g, 8);
        let program = LandmarkServer::new(&g, &idx).build_program();
        let dj_program = crate::dj::DjServer::new(&g).build_program();
        let q = Query::for_nodes(&g, 0, 195);
        let mut ld = LandmarkClient::new();
        let mut dj = crate::dj::DjClient::new();
        let mut ch1 = BroadcastChannel::lossless(program.cycle());
        let mut ch2 = BroadcastChannel::lossless(dj_program.cycle());
        let a = ld.query(&mut ch1, &q).unwrap();
        let b = dj.query(&mut ch2, &q).unwrap();
        assert_eq!(a.distance, b.distance);
        assert!(
            a.stats.settled_nodes <= b.stats.settled_nodes,
            "ALT {} vs DJ {}",
            a.stats.settled_nodes,
            b.stats.settled_nodes
        );
    }

    #[test]
    fn cycle_longer_than_dj_cycle() {
        let g = small_grid(8, 8, 5);
        let idx = LandmarkIndex::build(&g, 4);
        let program = LandmarkServer::new(&g, &idx).build_program();
        let dj = crate::dj::DjServer::new(&g).build_program();
        assert!(program.cycle().len() > dj.cycle().len());
    }

    #[test]
    fn correct_under_loss() {
        let g = small_grid(8, 8, 6);
        let idx = LandmarkIndex::build(&g, 2);
        let program = LandmarkServer::new(&g, &idx).build_program();
        let mut client = LandmarkClient::new();
        let q = Query::for_nodes(&g, 0, 63);
        for seed in 0..3 {
            let mut ch =
                BroadcastChannel::tune_in(program.cycle(), 3, LossModel::bernoulli(0.1, seed));
            let out = client.query(&mut ch, &q).unwrap();
            assert_eq!(Some(out.distance), dijkstra_distance(&g, 0, 63));
        }
    }
}
