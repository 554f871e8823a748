//! On-air encoding of road-network data (adjacency lists).
//!
//! One *node record* carries a node's id, coordinates and (a chunk of) its
//! adjacency list: `id:u32, x:f32, y:f32, count:u8, flags:u8,
//! count × (target:u32, weight:u32)`. High-degree nodes split across
//! records (flag bit 0 marks continuation chunks exist), so records always
//! fit a packet and a lost packet costs only the records inside it. Flag
//! bit 1 marks border nodes — the client-side super-edge contraction of
//! §6.1 needs to know a region's border nodes, and the server knows them
//! for free.
//!
//! The decoded in-memory footprint of a record is what the client memory
//! meter charges: the paper's clients keep adjacency lists of every
//! received node for the final Dijkstra.

use crate::query::decoded_node_bytes;
use bytes::Bytes;
use spair_broadcast::codec::{PayloadReader, RecordBuf, RecordWriter};
use spair_roadnet::{Distance, MinHeap, NodeId, Point, QueuePolicy, RoadNetwork, Weight};
use std::ops::ControlFlow;

/// Maximum adjacency entries per record so the record fits a payload:
/// header 14 bytes + k×8 ≤ 123 → k ≤ 13.
pub const MAX_EDGES_PER_RECORD: usize = 13;

/// A decoded node record (one chunk of a node's adjacency list).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRecord {
    /// Node id.
    pub id: NodeId,
    /// Node coordinates.
    pub point: Point,
    /// Whether further chunks of this node's adjacency follow.
    pub more: bool,
    /// Whether the node is a border node of its region.
    pub border: bool,
    /// `(target, weight)` adjacency entries in this chunk.
    pub edges: Vec<(NodeId, Weight)>,
}

/// Encodes the adjacency data of `nodes` (in the given order) into packet
/// payloads. No nodes are marked as border nodes; use
/// [`encode_nodes_with_borders`] when the §6.1 contraction matters.
pub fn encode_nodes(g: &RoadNetwork, nodes: &[NodeId]) -> Vec<Bytes> {
    encode_nodes_with_borders(g, nodes, |_| false)
}

/// Encodes adjacency data, flagging border nodes per `is_border`.
pub fn encode_nodes_with_borders(
    g: &RoadNetwork,
    nodes: &[NodeId],
    is_border: impl Fn(NodeId) -> bool,
) -> Vec<Bytes> {
    let mut w = RecordWriter::new();
    let mut rec = RecordBuf::new();
    for &v in nodes {
        let edges: Vec<(NodeId, Weight)> = g.out_edges(v).collect();
        let chunks: Vec<&[(NodeId, Weight)]> = if edges.is_empty() {
            vec![&[][..]]
        } else {
            edges.chunks(MAX_EDGES_PER_RECORD).collect()
        };
        let last = chunks.len() - 1;
        for (ci, chunk) in chunks.iter().enumerate() {
            rec.clear();
            let p = g.point(v);
            let flags = u8::from(ci != last) | (u8::from(is_border(v)) << 1);
            rec.put_u32(v)
                .put_f32(p.x as f32)
                .put_f32(p.y as f32)
                .put_u8(chunk.len() as u8)
                .put_u8(flags);
            for &(t, wt) in chunk.iter() {
                rec.put_u32(t).put_u32(wt);
            }
            w.push_record(rec.as_slice());
        }
    }
    w.finish()
}

/// Decodes all node records in one payload. Returns `None` on a malformed
/// payload (which clients treat like a lost packet).
pub fn decode_payload(payload: &[u8]) -> Option<Vec<NodeRecord>> {
    let mut r = PayloadReader::new(payload);
    let mut out = Vec::new();
    while !r.is_empty() {
        let id = r.read_u32()?;
        let x = r.read_f32()?;
        let y = r.read_f32()?;
        let count = r.read_u8()? as usize;
        let flags = r.read_u8()?;
        let more = flags & 1 != 0;
        let border = flags & 2 != 0;
        if count > MAX_EDGES_PER_RECORD {
            return None;
        }
        let mut edges = Vec::with_capacity(count);
        for _ in 0..count {
            let t = r.read_u32()?;
            let w = r.read_u32()?;
            edges.push((t, w));
        }
        out.push(NodeRecord {
            id,
            point: Point::new(x as f64, y as f64),
            more,
            border,
            edges,
        });
    }
    Some(out)
}

/// Packets needed to broadcast the adjacency data of `nodes`.
pub fn packet_count(g: &RoadNetwork, nodes: &[NodeId]) -> usize {
    encode_nodes(g, nodes).len()
}

/// Slot flag: the slot's node was received as a record (not merely
/// referenced as an edge target).
const SLOT_MATERIALIZED: u8 = 1;
/// Slot flag: the node was flagged as a border node of its region.
const SLOT_BORDER: u8 = 2;

/// Sentinel for "no slot" in the search scratch parent array and the
/// direct-index slot table.
const NO_SLOT: u32 = u32::MAX;

/// Largest broadcast id served by the direct-index slot table (16 MiB of
/// table at the cap); ids beyond it go to the spill map.
const DIRECT_ID_CAP: usize = 1 << 22;

/// A client-side store of received adjacency data, with memory accounting
/// hooks. Nodes may arrive in multiple chunks; the store merges them.
///
/// Internally the store is a flat slot arena rather than a per-node map:
/// every broadcast id ever seen (as a record *or* as an edge target) gets
/// a dense `u32` slot, per-slot adjacency lives as a contiguous run inside
/// one shared edge arena, and each edge carries its target's slot next to
/// the broadcast id. The client-side Dijkstra — the hot loop of every
/// whole-cycle method — then runs entirely over flat arrays indexed by
/// slot, with version-stamped scratch that [`Self::clear`] lets sessions
/// reuse without reallocating. The broadcast-facing API (ids, charges,
/// edge order, settle order) is byte-identical to the former map-based
/// store.
#[derive(Debug, Default, Clone)]
pub struct ReceivedGraph {
    /// Broadcast id -> slot for ids below [`DIRECT_ID_CAP`]: a flat
    /// direct-index table (`NO_SLOT` = unseen), grown on demand. Road
    /// networks broadcast dense ids, so in practice every lookup lands
    /// here — one bounds check and one load, no hashing.
    slot_table: Vec<u32>,
    /// Slots of outlandish ids (≥ [`DIRECT_ID_CAP`]), so a hostile id
    /// space cannot balloon the direct table.
    slot_spill: std::collections::HashMap<NodeId, u32>,
    /// Broadcast id per slot.
    ids: Vec<NodeId>,
    /// Coordinates per slot (placeholder until the slot materializes).
    points: Vec<Point>,
    /// `SLOT_*` flags per slot.
    flags: Vec<u8>,
    /// `(start, len)` run of each slot's adjacency inside the arenas.
    runs: Vec<(u32, u32)>,
    /// Edge arena: `(target broadcast id, weight)`, the slice
    /// [`Self::out_edges`] serves.
    edges: Vec<(NodeId, Weight)>,
    /// Edge arena, parallel to `edges`: the target's slot.
    target_slots: Vec<u32>,
    /// Materialized (received) node count.
    live: usize,
    /// Version-stamped search scratch, reused across searches.
    dist: Vec<u64>,
    parent: Vec<u32>,
    stamp: Vec<u32>,
    cur_stamp: u32,
}

impl ReceivedGraph {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the store to empty, keeping every allocation — the arena
    /// reuse hook for clients that serve many sessions.
    pub fn clear(&mut self) {
        self.slot_table.fill(NO_SLOT);
        self.slot_spill.clear();
        self.ids.clear();
        self.points.clear();
        self.flags.clear();
        self.runs.clear();
        self.edges.clear();
        self.target_slots.clear();
        self.live = 0;
    }

    /// Slot of `v`, if seen.
    #[inline]
    fn slot_lookup(&self, v: NodeId) -> Option<u32> {
        if (v as usize) < self.slot_table.len() {
            let s = self.slot_table[v as usize];
            if s != NO_SLOT {
                Some(s)
            } else {
                None
            }
        } else if (v as usize) < DIRECT_ID_CAP {
            None
        } else {
            self.slot_spill.get(&v).copied()
        }
    }

    /// Slot of `v`, creating an unmaterialized one if unseen.
    fn ensure_slot(&mut self, v: NodeId) -> u32 {
        if let Some(s) = self.slot_lookup(v) {
            return s;
        }
        let s = self.ids.len() as u32;
        if (v as usize) < DIRECT_ID_CAP {
            if (v as usize) >= self.slot_table.len() {
                let new_len = ((v as usize + 1).next_power_of_two()).min(DIRECT_ID_CAP);
                self.slot_table.resize(new_len, NO_SLOT);
            }
            self.slot_table[v as usize] = s;
        } else {
            self.slot_spill.insert(v, s);
        }
        self.ids.push(v);
        self.points.push(Point::new(0.0, 0.0));
        self.flags.push(0);
        self.runs.push((self.edges.len() as u32, 0));
        s
    }

    /// Slot of `v` if it has materialized (received as a record).
    #[inline]
    fn live_slot(&self, v: NodeId) -> Option<u32> {
        self.slot_lookup(v)
            .filter(|&s| self.flags[s as usize] & SLOT_MATERIALIZED != 0)
    }

    /// Ingests one record; returns the bytes newly retained (for the
    /// memory meter).
    pub fn ingest(&mut self, rec: NodeRecord) -> usize {
        let s = self.ensure_slot(rec.id) as usize;
        if self.flags[s] & SLOT_MATERIALIZED == 0 {
            self.flags[s] |= SLOT_MATERIALIZED;
            self.points[s] = rec.point;
            self.live += 1;
        }
        if rec.border {
            self.flags[s] |= SLOT_BORDER;
        }
        let added = rec.edges.len();
        let before = self.runs[s].1 as usize;
        if added > 0 {
            let (start, len) = self.runs[s];
            if len == 0 {
                self.runs[s].0 = self.edges.len() as u32;
            } else if start as usize + len as usize != self.edges.len() {
                // The run is no longer at the arena tail (another node's
                // chunks landed in between — out-of-order re-reception).
                // Relocate it to the tail so it stays one contiguous slice.
                let (lo, hi) = (start as usize, start as usize + len as usize);
                self.runs[s].0 = self.edges.len() as u32;
                for i in lo..hi {
                    let e = self.edges[i];
                    let t = self.target_slots[i];
                    self.edges.push(e);
                    self.target_slots.push(t);
                }
            }
            for &(t, w) in &rec.edges {
                let ts = self.ensure_slot(t);
                self.edges.push((t, w));
                self.target_slots.push(ts);
            }
            self.runs[s].1 += added as u32;
        }
        // Charge per decoded edge plus once per fresh node (a node whose
        // adjacency was empty before this record).
        let fresh_node = if before == 0 {
            decoded_node_bytes(0)
        } else {
            0
        };
        fresh_node + added * 8
    }

    /// Ingests every record of one payload straight from the wire bytes —
    /// [`decode_payload`] + [`Self::ingest`] fused, with no intermediate
    /// record allocations. Returns the total bytes newly retained, or
    /// `None` on a malformed payload (in which case, like
    /// [`decode_payload`], nothing is ingested).
    pub fn ingest_payload(&mut self, payload: &[u8]) -> Option<usize> {
        // Validation pass: all-or-nothing, mirroring `decode_payload`.
        let mut r = PayloadReader::new(payload);
        while !r.is_empty() {
            r.read_u32()?;
            r.read_f32()?;
            r.read_f32()?;
            let count = r.read_u8()? as usize;
            r.read_u8()?;
            if count > MAX_EDGES_PER_RECORD {
                return None;
            }
            for _ in 0..count {
                r.read_u32()?;
                r.read_u32()?;
            }
        }
        // Ingest pass: identical to ingesting the decoded records in order.
        let mut r = PayloadReader::new(payload);
        let mut charged = 0usize;
        while !r.is_empty() {
            let id = r.read_u32()?;
            let x = r.read_f32()?;
            let y = r.read_f32()?;
            let count = r.read_u8()? as usize;
            let flags = r.read_u8()?;
            let s = self.ensure_slot(id) as usize;
            if self.flags[s] & SLOT_MATERIALIZED == 0 {
                self.flags[s] |= SLOT_MATERIALIZED;
                self.points[s] = Point::new(x as f64, y as f64);
                self.live += 1;
            }
            if flags & 2 != 0 {
                self.flags[s] |= SLOT_BORDER;
            }
            let before = self.runs[s].1 as usize;
            if count > 0 {
                let (start, len) = self.runs[s];
                if len == 0 {
                    self.runs[s].0 = self.edges.len() as u32;
                } else if start as usize + len as usize != self.edges.len() {
                    let (lo, hi) = (start as usize, start as usize + len as usize);
                    self.runs[s].0 = self.edges.len() as u32;
                    for i in lo..hi {
                        let e = self.edges[i];
                        let t = self.target_slots[i];
                        self.edges.push(e);
                        self.target_slots.push(t);
                    }
                }
                for _ in 0..count {
                    let t = r.read_u32()?;
                    let w = r.read_u32()?;
                    let ts = self.ensure_slot(t);
                    self.edges.push((t, w));
                    self.target_slots.push(ts);
                }
                self.runs[s].1 += count as u32;
            }
            let fresh_node = if before == 0 {
                decoded_node_bytes(0)
            } else {
                0
            };
            charged += fresh_node + count * 8;
        }
        Some(charged)
    }

    /// Number of distinct nodes received.
    pub fn num_nodes(&self) -> usize {
        self.live
    }

    /// Whether `v` was received.
    pub fn contains(&self, v: NodeId) -> bool {
        self.live_slot(v).is_some()
    }

    /// Out-edges of `v` (empty if unknown).
    pub fn out_edges(&self, v: NodeId) -> &[(NodeId, Weight)] {
        match self.slot_lookup(v) {
            Some(s) => {
                let (start, len) = self.runs[s as usize];
                &self.edges[start as usize..start as usize + len as usize]
            }
            None => &[],
        }
    }

    /// Point of `v`, if received.
    pub fn point(&self, v: NodeId) -> Option<Point> {
        self.live_slot(v).map(|s| self.points[s as usize])
    }

    /// Whether `v` was flagged as a border node of its region.
    pub fn is_border(&self, v: NodeId) -> Option<bool> {
        self.live_slot(v)
            .map(|s| self.flags[s as usize] & SLOT_BORDER != 0)
    }

    /// Iterates received node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ids
            .iter()
            .zip(&self.flags)
            .filter(|&(_, f)| f & SLOT_MATERIALIZED != 0)
            .map(|(&v, _)| v)
    }

    /// Total retained bytes (consistent with the per-ingest charges).
    pub fn retained_bytes(&self) -> usize {
        self.runs
            .iter()
            .zip(&self.flags)
            .filter(|&(_, f)| f & SLOT_MATERIALIZED != 0)
            .map(|(&(_, len), _)| decoded_node_bytes(0) + len as usize * 8)
            .sum()
    }

    /// Drops a node's adjacency (memory-bound processing discards region
    /// data after contraction); returns bytes released.
    pub fn discard(&mut self, v: NodeId) -> usize {
        match self.live_slot(v) {
            Some(s) => {
                let released = decoded_node_bytes(0) + self.runs[s as usize].1 as usize * 8;
                // The slot survives as an unmaterialized placeholder (its
                // arena run is abandoned); a later re-ingest charges it as
                // fresh, exactly like the former map removal did.
                self.flags[s as usize] &= !(SLOT_MATERIALIZED | SLOT_BORDER);
                self.runs[s as usize].1 = 0;
                self.live -= 1;
                released
            }
            None => 0,
        }
    }

    /// Applies one delta-broadcast weight update to the received arena.
    ///
    /// Updates **every** stored `(from, to)` entry — §6.2 re-reception can
    /// legitimately duplicate an adjacency entry inside a run, and a patch
    /// must not leave a stale copy behind for the search to pick up.
    pub fn apply_weight(&mut self, from: NodeId, to: NodeId, w: Weight) -> PatchApply {
        let s = match self.live_slot(from) {
            Some(s) => s as usize,
            None => return PatchApply::NotHeld,
        };
        let (start, len) = self.runs[s];
        let (lo, hi) = (start as usize, start as usize + len as usize);
        let mut hit = false;
        for e in &mut self.edges[lo..hi] {
            if e.0 == to {
                e.1 = w;
                hit = true;
            }
        }
        if hit {
            PatchApply::Applied
        } else {
            PatchApply::MissingEdge
        }
    }

    /// Dijkstra from `source` to `target` over the received subgraph.
    /// Returns `(distance, path)` if `target` is reachable, plus settled
    /// node count.
    ///
    /// Takes `&mut self` only for the version-stamped scratch arrays the
    /// search runs on; the received data is untouched. Settle order and
    /// counts match the map-based reference store that
    /// `tests/netcodec_differential.rs` keeps.
    pub fn shortest_path(
        &mut self,
        source: NodeId,
        target: NodeId,
    ) -> (Option<(u64, Vec<NodeId>)>, usize) {
        let (res, settled, _) = self.shortest_path_checked(source, target, QueuePolicy::Heap);
        (res, settled)
    }

    /// [`Self::shortest_path`]; the [`QueuePolicy`] is ignored.
    pub fn shortest_path_with(
        &mut self,
        source: NodeId,
        target: NodeId,
        _queue: QueuePolicy,
    ) -> (Option<(u64, Vec<NodeId>)>, usize) {
        self.shortest_path(source, target)
    }

    /// Bumps the scratch version, sizing the arrays for the current slot
    /// count (and refilling the stamps on the rare wrap-around).
    fn fresh_scratch(&mut self) {
        let n = self.ids.len();
        if self.stamp.len() < n {
            self.dist.resize(n, 0);
            self.parent.resize(n, NO_SLOT);
            self.stamp.resize(n, self.cur_stamp);
        }
        self.cur_stamp = self.cur_stamp.wrapping_add(1);
        if self.cur_stamp == 0 {
            self.stamp.fill(0);
            self.cur_stamp = 1;
        }
    }

    /// [`Self::shortest_path`] plus the certification bit of
    /// [`Self::search`], for stores that hold only *part* of the network
    /// (an anchored method's patched arena). An uncertified result tells
    /// the caller to fall back to a full re-tune. The [`QueuePolicy`] is
    /// ignored.
    pub fn shortest_path_checked(
        &mut self,
        source: NodeId,
        target: NodeId,
        _queue: QueuePolicy,
    ) -> (Option<(u64, Vec<NodeId>)>, usize, bool) {
        self.search(
            source,
            Some(target),
            |_, _| 0,
            |_, _| true,
            |_, _, _| ControlFlow::Continue(()),
        )
    }

    /// The one search over the received store: a lazy-deletion A* from
    /// `source` that every client's final step runs.
    ///
    /// * `h(v, point)` is a lower bound on the distance from `v` to the
    ///   goal; `point` is `v`'s received position (`None` for a slot only
    ///   referenced as an edge target). An entry is pushed with key
    ///   `g + h`, and a pop is stale unless its key equals `dist(v) +
    ///   h(v)`, so a node whose distance drops after it popped is pushed
    ///   and settled again: the search stays exact under a bound that is
    ///   admissible but not consistent. With `h ≡ 0` this is Dijkstra.
    /// * `keep(from, to)` filters arcs; a dropped arc is never relaxed.
    /// * `visit(v, dist, next_key)` sees every settled node with the
    ///   smallest key still queued (stale entries included) and may stop
    ///   the search.
    ///
    /// Returns `(distance, path)` once `target` settles, the settle count
    /// (reopened nodes count again), and a certification bit for partial
    /// stores. The search may label and pop unmaterialized slots (nodes
    /// referenced as edge targets but never received); such a slot has no
    /// out-edges here, yet in the real network it does. With `h ≡ 0` the
    /// answer is **certified** iff no unmaterialized slot validly popped
    /// strictly below the target's distance (pop keys are then
    /// non-decreasing, so any shorter true path would have to leave the
    /// held subgraph through such a pop); a search that ends without the
    /// target is certified iff no unmaterialized slot popped at all.
    pub fn search(
        &mut self,
        source: NodeId,
        target: Option<NodeId>,
        h: impl Fn(NodeId, Option<Point>) -> Distance,
        keep: impl Fn(NodeId, NodeId) -> bool,
        mut visit: impl FnMut(NodeId, Distance, Option<Distance>) -> ControlFlow<()>,
    ) -> (Option<(Distance, Vec<NodeId>)>, usize, bool) {
        let s_slot = self.ensure_slot(source);
        let t_slot = target.and_then(|t| self.slot_lookup(t)).unwrap_or(NO_SLOT);
        self.fresh_scratch();
        let stamp = self.cur_stamp;
        let bound = |g: &Self, s: usize| -> Distance {
            let received = g.flags[s] & SLOT_MATERIALIZED != 0;
            h(g.ids[s], received.then(|| g.points[s]))
        };
        let mut settled = 0usize;
        let mut min_unmat: Option<Distance> = None;
        self.dist[s_slot as usize] = 0;
        self.parent[s_slot as usize] = NO_SLOT;
        self.stamp[s_slot as usize] = stamp;
        let mut heap = MinHeap::new();
        heap.push(bound(self, s_slot as usize), s_slot);
        while let Some(e) = heap.pop() {
            let (key, v) = (e.key, e.item);
            let vi = v as usize;
            if self.stamp[vi] != stamp || self.dist[vi] + bound(self, vi) != key {
                continue;
            }
            settled += 1;
            let (v_id, dv) = (self.ids[vi], self.dist[vi]);
            if visit(v_id, dv, heap.peek_key()).is_break() {
                break;
            }
            if v == t_slot {
                let mut path = vec![v_id];
                let mut cur = vi;
                while self.parent[cur] != NO_SLOT {
                    cur = self.parent[cur] as usize;
                    path.push(self.ids[cur]);
                }
                path.reverse();
                // A tie (min_unmat == dv) cannot hide a shorter path:
                // leaving the held subgraph there costs at least one more
                // positive-weight edge.
                let certified = min_unmat.is_none_or(|m| m >= dv);
                return (Some((dv, path)), settled, certified);
            }
            if self.flags[vi] & SLOT_MATERIALIZED == 0 && min_unmat.is_none() {
                min_unmat = Some(dv);
            }
            let (start, len) = self.runs[vi];
            let (lo, hi) = (start as usize, start as usize + len as usize);
            for (&(to, w), &u) in self.edges[lo..hi].iter().zip(&self.target_slots[lo..hi]) {
                if !keep(v_id, to) {
                    continue;
                }
                let cand = dv + w as Distance;
                let ui = u as usize;
                if self.stamp[ui] != stamp || cand < self.dist[ui] {
                    self.dist[ui] = cand;
                    self.parent[ui] = v;
                    self.stamp[ui] = stamp;
                    heap.push(cand + bound(self, ui), u);
                }
            }
        }
        (None, settled, min_unmat.is_none())
    }
}

/// Outcome of [`ReceivedGraph::apply_weight`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchApply {
    /// The edge was held and its weight updated.
    Applied,
    /// The source node was never materialized — the client does not hold
    /// this region, so the delta does not concern it.
    NotHeld,
    /// The source node is held but the edge is absent: the patch stream
    /// disagrees with the arena (a protocol error, not a skippable miss).
    MissingEdge,
}

#[cfg(test)]
mod tests {
    use super::*;
    use spair_roadnet::generators::small_grid;
    use spair_roadnet::{dijkstra_distance, GraphBuilder};

    #[test]
    fn encode_decode_round_trip() {
        let g = small_grid(6, 6, 1);
        let nodes: Vec<NodeId> = g.node_ids().collect();
        let payloads = encode_nodes(&g, &nodes);
        let mut store = ReceivedGraph::new();
        for p in &payloads {
            for rec in decode_payload(p).unwrap() {
                store.ingest(rec);
            }
        }
        assert_eq!(store.num_nodes(), g.num_nodes());
        for v in g.node_ids() {
            let mut want: Vec<_> = g.out_edges(v).collect();
            let mut got = store.out_edges(v).to_vec();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(want, got, "node {v}");
            let p = store.point(v).unwrap();
            assert!((p.x - g.point(v).x).abs() < 0.51); // f32 quantization
        }
    }

    #[test]
    fn high_degree_nodes_split_into_chunks() {
        let mut b = GraphBuilder::new();
        let hub = b.add_node(Point::new(0.0, 0.0));
        for i in 0..30 {
            let v = b.add_node(Point::new(i as f64, 1.0));
            b.add_edge(hub, v, i + 1);
        }
        let g = b.finish();
        let payloads = encode_nodes(&g, &[hub]);
        let mut recs = Vec::new();
        for p in &payloads {
            recs.extend(decode_payload(p).unwrap());
        }
        assert!(recs.len() >= 3, "30 edges need >= 3 chunks of 13");
        assert!(recs[0].more);
        assert!(!recs.last().unwrap().more);
        let mut store = ReceivedGraph::new();
        for r in recs {
            store.ingest(r);
        }
        assert_eq!(store.out_edges(hub).len(), 30);
    }

    #[test]
    fn isolated_node_still_encoded() {
        let mut b = GraphBuilder::new();
        b.add_node(Point::new(5.0, 5.0));
        let g = b.finish();
        let payloads = encode_nodes(&g, &[0]);
        let recs = decode_payload(&payloads[0]).unwrap();
        assert_eq!(recs.len(), 1);
        assert!(recs[0].edges.is_empty());
        assert!(!recs[0].more);
    }

    #[test]
    fn malformed_payload_returns_none() {
        assert!(decode_payload(&[1, 2, 3]).is_none());
        // Valid header claiming more edges than present.
        let mut rec = RecordBuf::new();
        rec.put_u32(0).put_f32(0.0).put_f32(0.0).put_u8(5).put_u8(0);
        assert!(decode_payload(rec.as_slice()).is_none());
    }

    #[test]
    fn received_subgraph_distances_match_dijkstra() {
        let g = small_grid(8, 8, 3);
        let nodes: Vec<NodeId> = g.node_ids().collect();
        let mut store = ReceivedGraph::new();
        for payload in encode_nodes(&g, &nodes) {
            for rec in decode_payload(&payload).unwrap() {
                store.ingest(rec);
            }
        }
        for (s, t) in [(0u32, 63u32), (7, 56), (12, 50)] {
            let (heap, _) = store.shortest_path(s, t);
            assert_eq!(heap.map(|(d, _)| d), dijkstra_distance(&g, s, t));
        }
    }

    #[test]
    fn received_subgraph_shortest_path_matches_full_graph() {
        let g = small_grid(7, 7, 9);
        let nodes: Vec<NodeId> = g.node_ids().collect();
        let mut store = ReceivedGraph::new();
        for p in &encode_nodes(&g, &nodes) {
            for rec in decode_payload(p).unwrap() {
                store.ingest(rec);
            }
        }
        for &(s, t) in &[(0u32, 48u32), (3, 40), (10, 10)] {
            let (res, _) = store.shortest_path(s, t);
            assert_eq!(res.map(|(d, _)| d), dijkstra_distance(&g, s, t));
        }
    }

    #[test]
    fn memory_accounting_matches_retained() {
        let g = small_grid(5, 5, 2);
        let nodes: Vec<NodeId> = g.node_ids().collect();
        let mut store = ReceivedGraph::new();
        let mut charged = 0usize;
        for p in &encode_nodes(&g, &nodes) {
            for rec in decode_payload(p).unwrap() {
                charged += store.ingest(rec);
            }
        }
        assert_eq!(charged, store.retained_bytes());
        let freed = store.discard(0);
        assert!(freed > 0);
        assert_eq!(charged - freed, store.retained_bytes());
    }

    #[test]
    fn apply_weight_updates_every_duplicate_entry() {
        let mut store = ReceivedGraph::new();
        let rec = NodeRecord {
            id: 0,
            point: Point::new(0.0, 0.0),
            more: false,
            border: false,
            edges: vec![(1, 5), (2, 7)],
        };
        // §6.2 re-reception: the same record ingested twice duplicates the
        // run entries.
        store.ingest(rec.clone());
        store.ingest(rec);
        assert_eq!(store.apply_weight(0, 1, 9), PatchApply::Applied);
        for &(t, w) in store.out_edges(0) {
            if t == 1 {
                assert_eq!(w, 9, "stale duplicate survived the patch");
            }
        }
        assert_eq!(store.apply_weight(0, 3, 1), PatchApply::MissingEdge);
        assert_eq!(store.apply_weight(42, 1, 1), PatchApply::NotHeld);
    }

    #[test]
    fn checked_search_certifies_full_store_and_flags_partial_one() {
        let g = small_grid(6, 6, 4);
        let nodes: Vec<NodeId> = g.node_ids().collect();
        let mut full = ReceivedGraph::new();
        for p in &encode_nodes(&g, &nodes) {
            for rec in decode_payload(p).unwrap() {
                full.ingest(rec);
            }
        }
        let (res, _, certified) = full.shortest_path_checked(0, 35, QueuePolicy::default());
        assert!(certified);
        assert_eq!(res.map(|(d, _)| d), dijkstra_distance(&g, 0, 35));

        // Hold only the first half of the nodes: paths that would leave
        // the held set must void the certificate.
        let mut part = ReceivedGraph::new();
        let held: Vec<NodeId> = nodes.iter().copied().filter(|&v| v < 18).collect();
        for p in &encode_nodes(&g, &held) {
            for rec in decode_payload(p).unwrap() {
                part.ingest(rec);
            }
        }
        let (_, _, certified) = part.shortest_path_checked(0, 17, QueuePolicy::default());
        assert!(!certified, "escape through an unheld node went unnoticed");
    }

    #[test]
    fn checked_search_matches_unchecked_on_full_store() {
        let g = small_grid(7, 7, 11);
        let nodes: Vec<NodeId> = g.node_ids().collect();
        let mut store = ReceivedGraph::new();
        for p in &encode_nodes(&g, &nodes) {
            for rec in decode_payload(p).unwrap() {
                store.ingest(rec);
            }
        }
        for &(s, t) in &[(0u32, 48u32), (5, 44), (20, 2)] {
            let (a, sa) = store.shortest_path(s, t);
            let (b, sb, cert) = store.shortest_path_checked(s, t, QueuePolicy::default());
            assert_eq!(a, b);
            assert_eq!(sa, sb);
            assert!(cert);
        }
    }

    #[test]
    fn packet_count_is_encode_length() {
        let g = small_grid(6, 6, 3);
        let nodes: Vec<NodeId> = g.node_ids().collect();
        assert_eq!(packet_count(&g, &nodes), encode_nodes(&g, &nodes).len());
    }
}
