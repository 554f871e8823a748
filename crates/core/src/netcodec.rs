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
use spair_roadnet::heap::HeapEntry;
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
///
/// This is the allocating reference decoder: a `Vec` of records, each
/// with its own `Vec` of arcs. Clients ingest payloads with
/// [`ReceivedGraph::ingest_payload`], which parses the same bytes in
/// place; this decoder is kept for tests, which check the two against
/// each other, and for the benchmark's decode replay.
pub fn decode_payload(payload: &[u8]) -> Option<Vec<NodeRecord>> {
    let mut r = PayloadReader::new(payload);
    let mut out = Vec::new();
    while !r.is_empty() {
        let (id, point, flags, adjacency) = read_record(&mut r)?;
        out.push(NodeRecord {
            id,
            point,
            more: flags & 1 != 0,
            border: flags & 2 != 0,
            edges: entries(adjacency).collect(),
        });
    }
    Some(out)
}

/// Reads the next node record as it sits on the wire: id, point, flags
/// and the `count × 8` bytes of its adjacency entries. `None` if the
/// payload is malformed there.
fn read_record<'a>(r: &mut PayloadReader<'a>) -> Option<(NodeId, Point, u8, &'a [u8])> {
    let id = r.read_u32()?;
    let point = Point::new(r.read_f32()? as f64, r.read_f32()? as f64);
    let count = r.read_u8()? as usize;
    let flags = r.read_u8()?;
    if count > MAX_EDGES_PER_RECORD {
        return None;
    }
    Some((id, point, flags, r.take(count * 8)?))
}

/// Bytes of a node record's header: id, x, y, count and flags.
const RECORD_HEADER: usize = 14;

/// Length of the node record at the head of `bytes`, if a whole,
/// well-formed one is there: the header check of [`read_record`] alone.
#[inline]
fn record_len(bytes: &[u8]) -> Option<usize> {
    if bytes.len() < RECORD_HEADER {
        return None;
    }
    let count = bytes[12] as usize;
    let len = RECORD_HEADER + count * 8;
    (count <= MAX_EDGES_PER_RECORD && len <= bytes.len()).then_some(len)
}

/// The fields of one whole record ([`record_len`] bytes): id, point,
/// flags and adjacency bytes, as [`read_record`] reads them.
#[inline]
fn parse_record(rec: &[u8]) -> (NodeId, Point, u8, &[u8]) {
    let word = |at: usize| u32::from_le_bytes([rec[at], rec[at + 1], rec[at + 2], rec[at + 3]]);
    let x = f32::from_bits(word(4)) as f64;
    let y = f32::from_bits(word(8)) as f64;
    (word(0), Point::new(x, y), rec[13], &rec[RECORD_HEADER..])
}

/// The `(target, weight)` entries of a record's adjacency bytes.
fn entries(adjacency: &[u8]) -> impl ExactSizeIterator<Item = (NodeId, Weight)> + '_ {
    adjacency.chunks_exact(8).map(|e| {
        (
            u32::from_le_bytes([e[0], e[1], e[2], e[3]]),
            u32::from_le_bytes([e[4], e[5], e[6], e[7]]),
        )
    })
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
pub(crate) const DIRECT_ID_CAP: usize = 1 << 22;

/// The tag of a raw arc: it abbreviates no path.
pub const RAW_ARC: u32 = u32::MAX;

/// Cap of the direct-index slot table: [`DIRECT_ID_CAP`] unless the
/// arena was cleared with a lower one.
#[derive(Debug, Clone, Copy)]
struct IdCap(usize);

impl Default for IdCap {
    fn default() -> Self {
        IdCap(DIRECT_ID_CAP)
    }
}

/// A client-side store of received adjacency data, with memory accounting
/// hooks, and the one slot arena every client-side graph runs on. Nodes
/// may arrive in multiple chunks; the store merges them.
///
/// Every broadcast id seen (as a record, an edge target or an arc
/// endpoint) gets a dense `u32` slot: a direct-index table below the id
/// cap, a spill map above it. Each slot's arcs are one contiguous run of
/// a shared arc arena, in insertion order; an arc carries its target's
/// id and slot, a super-edge tag ([`RAW_ARC`] for a raw arc) and its
/// cost: a received arc's is its weight, a staged arc's a full
/// [`Distance`]. The arena fills one of two ways:
///
/// * received records ([`Self::ingest`], [`Self::ingest_payload`]) append
///   to their node's run, which moves to the arena's tail when another
///   node's arcs landed behind it;
/// * a contracted graph G′ of super-edges and raw arcs (the HiTi client's
///   and the §6.1 processor's) stages its arcs ([`Self::stage_arc`]), and
///   [`Self::build_staged`] turns them into a CSR in one stable pass.
///
/// The one search ([`Self::search`], [`Self::search_with`]) runs over
/// either, on version-stamped [`SearchScratch`] that sessions reuse, and
/// [`Self::contract`] derives super-edges from it.
/// The broadcast-facing API (ids, charges, edge order, settle order) is
/// byte-identical to the former map-based store.
#[derive(Debug, Default, Clone)]
pub struct ReceivedGraph {
    /// Broadcast id -> slot for ids below `id_cap`: a flat direct-index
    /// table (`NO_SLOT` = unseen), grown on demand. Road networks
    /// broadcast dense ids, so in practice every lookup lands here.
    slot_table: Vec<u32>,
    /// Slots of outlandish ids (≥ `id_cap`), so a hostile id space
    /// cannot balloon the direct table.
    slot_spill: std::collections::HashMap<NodeId, u32>,
    id_cap: IdCap,
    /// Broadcast id per slot.
    ids: Vec<NodeId>,
    /// Coordinates per slot (placeholder until the slot materializes).
    points: Vec<Point>,
    /// `SLOT_*` flags per slot.
    flags: Vec<u8>,
    /// `(start, len)` run of each slot's arcs inside the arena.
    runs: Vec<(u32, u32)>,
    /// Arc arena: `(target broadcast id, weight)`, the slice
    /// [`Self::out_edges`] serves.
    edges: Vec<(NodeId, Weight)>,
    /// Arc arena, parallel to `edges`: what the search reads, the
    /// target's slot and the arc's super-edge tag or [`RAW_ARC`].
    hops: Vec<(u32, u32)>,
    /// Arc arena, parallel to `edges` in a staged arena (empty in a
    /// received one): each arc's full cost, which a super-edge's may take
    /// past [`Weight`]. A received arc's cost is its weight in `edges`,
    /// the one copy a patch updates.
    costs: Vec<Distance>,
    /// Arcs staged for [`Self::build_staged`]: `(source slot, arc, cost)`.
    staged: Vec<(u32, (u32, u32), Distance)>,
    /// Run starts per slot of the last [`Self::build_staged`].
    starts: Vec<usize>,
    /// Materialized (received) node count.
    live: usize,
    /// Scratch of [`Self::search`].
    scratch: SearchScratch,
}

/// Search state kept apart from the arena it searches, so a search can
/// run over a store held by `&`: version-stamped distance, parent and
/// parent-arc tag per slot, and the heap. It grows to the largest arena
/// searched and is reused across searches and arenas.
#[derive(Debug, Default, Clone)]
pub struct SearchScratch {
    dist: Vec<Distance>,
    /// `(parent slot, tag of the arc from it)` per labelled slot.
    parent: Vec<(u32, u32)>,
    stamp: Vec<u32>,
    cur_stamp: u32,
    heap: MinHeap<u32>,
}

impl SearchScratch {
    /// Heap bytes held (the vectors' and the heap's capacities).
    pub fn allocated_bytes(&self) -> usize {
        vec_bytes(&self.dist)
            + vec_bytes(&self.parent)
            + vec_bytes(&self.stamp)
            + self.heap.capacity() * std::mem::size_of::<HeapEntry<u32>>()
    }
}

/// Bytes a vector's allocation holds.
fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

impl ReceivedGraph {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the store to empty, keeping every allocation — the arena
    /// reuse hook for clients that serve many sessions.
    pub fn clear(&mut self) {
        self.clear_with_id_cap(DIRECT_ID_CAP);
    }

    /// [`Self::clear`], with ids from `cap` on (at most the default cap)
    /// kept out of the direct table, so an arena sized by hostile input
    /// holds a table no larger than the input can justify.
    pub fn clear_with_id_cap(&mut self, cap: usize) {
        for &v in &self.ids {
            if let Some(s) = self.slot_table.get_mut(v as usize) {
                *s = NO_SLOT;
            }
        }
        self.id_cap = IdCap(cap.min(DIRECT_ID_CAP));
        self.slot_table.truncate(self.id_cap.0);
        self.slot_spill.clear();
        self.ids.clear();
        self.points.clear();
        self.flags.clear();
        self.runs.clear();
        self.edges.clear();
        self.hops.clear();
        self.costs.clear();
        self.staged.clear();
        self.live = 0;
    }

    /// Slot of `v`, if seen.
    #[inline]
    fn slot_lookup(&self, v: NodeId) -> Option<u32> {
        if (v as usize) < self.slot_table.len() {
            let s = self.slot_table[v as usize];
            (s != NO_SLOT).then_some(s)
        } else if (v as usize) < self.id_cap.0 {
            None
        } else {
            self.slot_spill.get(&v).copied()
        }
    }

    /// Slot of `v`, creating an unmaterialized one if unseen. The
    /// direct-table hit, nearly every call, is inline; the rest is not.
    #[inline]
    fn ensure_slot(&mut self, v: NodeId) -> u32 {
        match self.slot_table.get(v as usize) {
            Some(&s) if s != NO_SLOT => s,
            _ => self.ensure_slot_slow(v),
        }
    }

    /// [`Self::ensure_slot`] past the direct-table hit: a spilled id, or
    /// a new slot.
    #[inline(never)]
    fn ensure_slot_slow(&mut self, v: NodeId) -> u32 {
        if let Some(s) = self.slot_lookup(v) {
            return s;
        }
        let s = self.ids.len() as u32;
        if (v as usize) < self.id_cap.0 {
            if (v as usize) >= self.slot_table.len() {
                let new_len = ((v as usize + 1).next_power_of_two()).min(self.id_cap.0);
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

    /// Arena range of slot `s`'s arcs.
    #[inline]
    fn run(&self, s: usize) -> std::ops::Range<usize> {
        let (start, len) = self.runs[s];
        start as usize..start as usize + len as usize
    }

    /// Ingests one record; returns the bytes newly retained (for the
    /// memory meter).
    pub fn ingest(&mut self, rec: NodeRecord) -> usize {
        self.append(rec.id, rec.point, rec.border, rec.edges.into_iter())
    }

    /// Ingests every record of one payload straight from the wire bytes:
    /// [`decode_payload`] + [`Self::ingest`] fused, with no intermediate
    /// record allocations. Returns the total bytes newly retained, or
    /// `None` on a malformed payload (in which case, like
    /// [`decode_payload`], nothing is ingested).
    pub fn ingest_payload(&mut self, payload: &[u8]) -> Option<usize> {
        // Ingestion is all-or-nothing: one scan over the record headers
        // validates the whole payload first.
        let mut rest = payload;
        while !rest.is_empty() {
            rest = &rest[record_len(rest)?..];
        }
        let mut rest = payload;
        let mut charged = 0usize;
        while !rest.is_empty() {
            // Validated above: the header is whole and its count in range.
            let (rec, tail) = rest.split_at(RECORD_HEADER + rest[12] as usize * 8);
            let (id, point, flags, adjacency) = parse_record(rec);
            charged += self.append(id, point, flags & 2 != 0, entries(adjacency));
            rest = tail;
        }
        Some(charged)
    }

    /// Appends one record to its node's run; returns the bytes newly
    /// retained: 8 per edge, plus a node's once when its run was empty.
    fn append(
        &mut self,
        id: NodeId,
        point: Point,
        border: bool,
        edges: impl ExactSizeIterator<Item = (NodeId, Weight)>,
    ) -> usize {
        let s = self.ensure_slot(id) as usize;
        if self.flags[s] & SLOT_MATERIALIZED == 0 {
            self.flags[s] |= SLOT_MATERIALIZED;
            self.points[s] = point;
            self.live += 1;
        }
        if border {
            self.flags[s] |= SLOT_BORDER;
        }
        let added = edges.len();
        let before = self.runs[s].1;
        if added > 0 {
            let run = self.run(s);
            if before != 0 && run.end != self.edges.len() {
                // Another node's arcs landed behind the run (out-of-order
                // re-reception): move it to the tail to keep it one slice.
                self.edges.extend_from_within(run.clone());
                self.hops.extend_from_within(run);
            }
            self.runs[s].0 = (self.edges.len() - before as usize) as u32;
            self.edges.reserve(added);
            self.hops.reserve(added);
            for (t, w) in edges {
                let slot = self.ensure_slot(t);
                self.edges.push((t, w));
                self.hops.push((slot, RAW_ARC));
            }
            self.runs[s].1 += added as u32;
        }
        let fresh_node = if before == 0 {
            decoded_node_bytes(0)
        } else {
            0
        };
        fresh_node + added * 8
    }

    /// Stages the arc `from → to` of `cost`, tagged with a super-edge id
    /// or [`RAW_ARC`] (whose cost must fit a [`Weight`]), for
    /// [`Self::build_staged`]. An arena holds either received records or
    /// staged arcs, not both.
    pub fn stage_arc(&mut self, from: NodeId, to: NodeId, cost: Distance, tag: u32) {
        debug_assert!(tag != RAW_ARC || cost <= Weight::MAX as Distance);
        let from = self.ensure_slot(from);
        let slot = self.ensure_slot(to);
        self.staged.push((from, (slot, tag), cost));
    }

    /// Makes the arcs staged since the last clear the arena's arcs, as a
    /// CSR built in one stable counting sort: each node keeps its arcs in
    /// staging order, however they interleaved with other nodes' arcs.
    /// Staged arcs stay staged, so a graph that grows by stages rebuilds
    /// from all of them. [`Self::out_edges`] reports a cost past
    /// [`Weight`] as `Weight::MAX`; the search reads the full cost.
    pub fn build_staged(&mut self) {
        let (n, staged) = (self.ids.len(), &self.staged);
        let hops = staged.iter().map(|&(from, hop, _)| (from as usize, hop));
        group_by_key(n, hops, &mut self.starts, &mut self.hops);
        let costs = staged.iter().map(|&(from, _, cost)| (from as usize, cost));
        group_by_key(n, costs, &mut self.starts, &mut self.costs);
        self.edges.clear();
        self.edges.extend(
            self.hops
                .iter()
                .zip(&self.costs)
                .map(|(&(slot, _), &cost)| {
                    let w = Weight::try_from(cost).unwrap_or(Weight::MAX);
                    (self.ids[slot as usize], w)
                }),
        );
        for (run, w) in self.runs.iter_mut().zip(self.starts.windows(2)) {
            *run = (w[0] as u32, (w[1] - w[0]) as u32);
        }
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
            Some(s) => &self.edges[self.run(s as usize)],
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

    /// Heap bytes the arena holds (its vectors' capacities, its search
    /// scratch included), for allocation bounds on hostile input.
    pub fn allocated_bytes(&self) -> usize {
        vec_bytes(&self.slot_table)
            + self.slot_spill.capacity() * std::mem::size_of::<(NodeId, u32)>()
            + vec_bytes(&self.ids)
            + vec_bytes(&self.points)
            + vec_bytes(&self.flags)
            + vec_bytes(&self.runs)
            + vec_bytes(&self.edges)
            + vec_bytes(&self.hops)
            + vec_bytes(&self.costs)
            + vec_bytes(&self.staged)
            + vec_bytes(&self.starts)
            + self.scratch.allocated_bytes()
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
        let Some(s) = self.live_slot(from) else {
            return PatchApply::NotHeld;
        };
        let run = self.run(s as usize);
        let mut hit = false;
        for e in &mut self.edges[run] {
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
    /// Takes `&mut self` only for the search scratch; the received data
    /// is untouched. Settle order and counts match the map-based
    /// reference store that `tests/netcodec_differential.rs` keeps.
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

    /// [`Self::shortest_path`] plus the certification bit of
    /// [`Self::search_with`], for stores that hold only *part* of the
    /// network (an anchored method's patched arena). An uncertified
    /// result tells the caller to fall back to a full re-tune. The
    /// [`QueuePolicy`] is ignored.
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

    /// [`Self::search_with`] on the store's own scratch, returning the
    /// target's path too (the received store holds raw arcs only).
    pub fn search(
        &mut self,
        source: NodeId,
        target: Option<NodeId>,
        h: impl Fn(NodeId, Option<Point>) -> Distance,
        keep: impl Fn(NodeId, NodeId) -> bool,
        visit: impl FnMut(NodeId, Distance, Option<Distance>) -> ControlFlow<()>,
    ) -> (Option<(Distance, Vec<NodeId>)>, usize, bool) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let (d, settled, certified) =
            self.search_with(&mut scratch, source, target, h, keep, visit);
        let res = d
            .zip(target)
            .map(|(d, t)| (d, self.path_to(&scratch, t, |_| &[])));
        self.scratch = scratch;
        (res, settled, certified)
    }

    /// The one search over the arena: a lazy-deletion A* from `source`
    /// that every client's final step runs, on caller-owned `scratch`.
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
    /// A candidate distance saturates at `Distance::MAX` and then labels
    /// no node, so super-edge costs near the top of the range are safe.
    /// A source the arena never saw settles alone, as an unreceived node.
    ///
    /// Returns the target's distance once it settles ([`Self::path_to`]
    /// then gives its path), the settle count (reopened nodes count
    /// again), and a certification bit for partial stores. The search may
    /// label and pop unmaterialized slots (nodes referenced as edge
    /// targets but never received); such a slot has no out-edges here,
    /// yet in the real network it does. With `h ≡ 0` the answer is
    /// **certified** iff no unmaterialized slot validly popped strictly
    /// below the target's distance (pop keys are then non-decreasing, so
    /// any shorter true path would have to leave the held subgraph
    /// through such a pop); a search that ends without the target is
    /// certified iff no unmaterialized slot popped at all.
    pub fn search_with(
        &self,
        scratch: &mut SearchScratch,
        source: NodeId,
        target: Option<NodeId>,
        h: impl Fn(NodeId, Option<Point>) -> Distance,
        keep: impl Fn(NodeId, NodeId) -> bool,
        mut visit: impl FnMut(NodeId, Distance, Option<Distance>) -> ControlFlow<()>,
    ) -> (Option<Distance>, usize, bool) {
        let Some(s_slot) = self.slot_lookup(source) else {
            let stop = visit(source, 0, None).is_break();
            let found = !stop && target == Some(source);
            return (found.then_some(0), 1, found || stop);
        };
        let t_slot = target.and_then(|t| self.slot_lookup(t)).unwrap_or(NO_SLOT);
        // Bump the version, sizing the arrays for this arena (and refill
        // the stamps on the rare wrap-around).
        let n = self.ids.len();
        if scratch.stamp.len() < n {
            scratch.dist.resize(n, 0);
            scratch.parent.resize(n, (NO_SLOT, RAW_ARC));
            scratch.stamp.resize(n, 0);
        }
        scratch.cur_stamp = scratch.cur_stamp.wrapping_add(1);
        if scratch.cur_stamp == 0 {
            scratch.stamp.fill(0);
            scratch.cur_stamp = 1;
        }
        // The loop runs on a local heap (measured faster than one reached
        // through `scratch`) and hands it back after.
        let mut heap = std::mem::take(&mut scratch.heap);
        heap.clear();
        let now = scratch.cur_stamp;
        let out = 'search: {
            let (dist, parent, stamp) =
                (&mut scratch.dist, &mut scratch.parent, &mut scratch.stamp);
            let bound = |s: usize| -> Distance {
                let received = self.flags[s] & SLOT_MATERIALIZED != 0;
                h(self.ids[s], received.then(|| self.points[s]))
            };
            let mut settled = 0usize;
            let mut min_unmat: Option<Distance> = None;
            dist[s_slot as usize] = 0;
            parent[s_slot as usize] = (NO_SLOT, RAW_ARC);
            stamp[s_slot as usize] = now;
            heap.push(bound(s_slot as usize), s_slot);
            while let Some(e) = heap.pop() {
                let (key, v) = (e.key, e.item);
                let vi = v as usize;
                if stamp[vi] != now || dist[vi] + bound(vi) != key {
                    continue;
                }
                settled += 1;
                let (v_id, dv) = (self.ids[vi], dist[vi]);
                if visit(v_id, dv, heap.peek_key()).is_break() {
                    break;
                }
                if v == t_slot {
                    // A tie (min_unmat == dv) cannot hide a shorter path:
                    // leaving the held subgraph there costs at least one more
                    // positive-weight edge.
                    let certified = min_unmat.is_none_or(|m| m >= dv);
                    break 'search (Some(dv), settled, certified);
                }
                if min_unmat.is_none() && self.flags[vi] & SLOT_MATERIALIZED == 0 {
                    min_unmat = Some(dv);
                }
                let run = self.run(vi);
                let base = run.start;
                for (k, (&(to, w), &(slot, tag))) in self.edges[run.clone()]
                    .iter()
                    .zip(&self.hops[run])
                    .enumerate()
                {
                    if !keep(v_id, to) {
                        continue;
                    }
                    let cost = if tag == RAW_ARC {
                        w as Distance
                    } else {
                        self.costs[base + k]
                    };
                    let cand = dv.saturating_add(cost);
                    let ui = slot as usize;
                    if cand != Distance::MAX && (stamp[ui] != now || cand < dist[ui]) {
                        dist[ui] = cand;
                        parent[ui] = (v, tag);
                        stamp[ui] = now;
                        heap.push(cand + bound(ui), slot);
                    }
                }
            }
            (None, settled, min_unmat.is_none())
        };
        scratch.heap = heap;
        out
    }

    /// The path from the source of `scratch`'s last search over this
    /// arena to `v`, a node that search settled; `expand(tag)` gives a
    /// super-edge's interior nodes, in order.
    pub fn path_to<'e>(
        &self,
        scratch: &SearchScratch,
        v: NodeId,
        expand: impl Fn(u32) -> &'e [NodeId],
    ) -> Vec<NodeId> {
        let mut path = vec![v];
        for (p, tag) in self.walk_back(scratch, v) {
            if tag != RAW_ARC {
                path.extend(expand(tag).iter().rev());
            }
            path.push(p);
        }
        path.reverse();
        path
    }

    /// Contracts a region to the super-edges among its `anchors`, the
    /// job of the §6.1 processor and of the HiTi build. From each anchor
    /// in turn it searches the arcs into `member` nodes; each other anchor
    /// that search settles, in ascending id, goes to `emit(from, to,
    /// cost, interior)`, where `interior` is the range of `via` the path's
    /// interior nodes were appended to (empty without a `via` pool).
    pub fn contract(
        &self,
        scratch: &mut SearchScratch,
        anchors: &[NodeId],
        member: impl Fn(NodeId) -> bool,
        is_anchor: impl Fn(NodeId) -> bool,
        mut via: Option<&mut Vec<NodeId>>,
        mut emit: impl FnMut(NodeId, NodeId, Distance, std::ops::Range<usize>),
    ) {
        let mut reached = Vec::new();
        for &a in anchors {
            reached.clear();
            let settle = |v, d, _| {
                if v != a && is_anchor(v) {
                    reached.push((v, d));
                }
                ControlFlow::Continue(())
            };
            self.search_with(scratch, a, None, |_, _| 0, |_, to| member(to), settle);
            reached.sort_unstable_by_key(|&(v, _)| v);
            for &(b, d) in &reached {
                let at = via.as_ref().map_or(0, |pool| pool.len());
                if let Some(pool) = via.as_deref_mut() {
                    pool.extend(self.walk_back(scratch, b).map(|(p, _)| p));
                    pool.pop(); // `a`
                    pool[at..].reverse();
                }
                let end = via.as_ref().map_or(0, |pool| pool.len());
                emit(a, b, d, at..end);
            }
        }
    }

    /// The tree walk behind [`Self::path_to`]: from `v` back to the
    /// source, each step's parent and the tag of its arc, with no
    /// allocation.
    fn walk_back<'a>(
        &'a self,
        scratch: &'a SearchScratch,
        v: NodeId,
    ) -> impl Iterator<Item = (NodeId, u32)> + 'a {
        // Only the source settles without a slot; it has no parent.
        let mut cur = self.slot_lookup(v).unwrap_or(NO_SLOT);
        debug_assert!(cur == NO_SLOT || scratch.stamp[cur as usize] == scratch.cur_stamp);
        std::iter::from_fn(move || {
            let &(p, tag) = scratch.parent.get(cur as usize)?;
            cur = p;
            (p != NO_SLOT).then(|| (self.ids[p as usize], tag))
        })
    }
}

/// Stable counting sort of `(key, item)` pairs with keys below `keys`:
/// key `k`'s items land in `out[start[k]..start[k + 1]]`, in input order.
pub fn group_by_key<T: Copy + Default>(
    keys: usize,
    pairs: impl Iterator<Item = (usize, T)> + Clone,
    start: &mut Vec<usize>,
    out: &mut Vec<T>,
) {
    start.clear();
    start.resize(keys + 1, 0);
    for (k, _) in pairs.clone() {
        start[k + 1] += 1;
    }
    for k in 0..keys {
        start[k + 1] += start[k];
    }
    out.clear();
    out.resize(start[keys], T::default());
    for (k, item) in pairs {
        out[start[k]] = item;
        start[k] += 1;
    }
    // Each `start[k]` now holds its key's end, the next key's start.
    start.copy_within(0..keys, 1);
    start[0] = 0;
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

    /// Ids on both sides of the direct table's cap: the ones past it
    /// spill, and the search crosses between the halves.
    #[test]
    fn ids_straddling_the_direct_cap_spill_and_search() {
        let base = DIRECT_ID_CAP as NodeId - 2;
        let ids: Vec<NodeId> = (0..6).map(|i| base + i).collect();
        let mut store = ReceivedGraph::new();
        for (k, &id) in ids.iter().enumerate() {
            let mut edges = Vec::new();
            if k > 0 {
                edges.push((ids[k - 1], 7));
            }
            if k + 1 < ids.len() {
                edges.push((ids[k + 1], 7));
            }
            store.ingest(NodeRecord {
                id,
                point: Point::new(k as f64, 0.0),
                more: false,
                border: false,
                edges,
            });
        }
        assert_eq!(store.slot_spill.len(), 4, "ids at or past the cap spill");
        assert!(store.slot_table.len() <= DIRECT_ID_CAP);
        assert_eq!(
            store.shortest_path(ids[0], ids[5]),
            (Some((35, ids.clone())), 6)
        );
        assert_eq!(
            store.shortest_path(ids[5], ids[1]).0.map(|(d, _)| d),
            Some(28)
        );
    }

    /// A lowered cap bounds the direct table whatever ids arrive, and a
    /// reused arena drops a larger table from an earlier session.
    #[test]
    fn a_lowered_id_cap_bounds_the_direct_table() {
        let mut g = ReceivedGraph::new();
        g.stage_arc(1_000_000, 1, 2, RAW_ARC);
        assert!(g.slot_table.len() > 1_000_000);
        g.clear_with_id_cap(8);
        assert!(g.slot_table.len() <= 8);
        g.stage_arc(3, 1_000_000, 5, RAW_ARC);
        g.build_staged();
        assert!(g.slot_table.len() <= 8);
        assert_eq!(g.slot_spill.len(), 1);
        assert_eq!(
            g.shortest_path(3, 1_000_000).0,
            Some((5, vec![3, 1_000_000]))
        );
    }

    /// Super-edge costs near `u64::MAX`: a candidate saturates instead of
    /// overflowing, and a saturated candidate labels no node.
    #[test]
    fn saturated_super_edge_costs_label_nothing() {
        let mut g = ReceivedGraph::new();
        g.stage_arc(0, 1, Distance::MAX - 1, 7);
        g.stage_arc(1, 2, 5, RAW_ARC);
        g.stage_arc(0, 3, Distance::MAX, 8);
        g.build_staged();
        assert_eq!(g.out_edges(0), &[(1, Weight::MAX), (3, Weight::MAX)]);
        let mut scratch = SearchScratch::default();
        let mut run = |t| {
            g.search_with(
                &mut scratch,
                0,
                Some(t),
                |_, _| 0,
                |_, _| true,
                |_, _, _| ControlFlow::Continue(()),
            )
        };
        assert_eq!(
            run(2),
            (None, 2, false),
            "0 and 1 settle; 2 stays unlabelled"
        );
        assert_eq!(run(3), (None, 2, false));
        assert_eq!(run(1).0, Some(Distance::MAX - 1));
        let via = [10, 11];
        let path = g.path_to(&scratch, 1, |tag| {
            assert_eq!(tag, 7);
            &via
        });
        assert_eq!(path, vec![0, 10, 11, 1]);
    }

    /// Each node keeps its arcs in staging order, however they interleave
    /// with other nodes' arcs, and a rebuild keeps every staged arc.
    #[test]
    fn staged_arcs_keep_their_order_per_node() {
        let mut g = ReceivedGraph::new();
        for (from, to, cost) in [(0, 1, 4), (2, 3, 1), (0, 4, 4), (2, 0, 2), (0, 5, 4)] {
            g.stage_arc(from, to, cost, RAW_ARC);
        }
        g.build_staged();
        assert_eq!(g.out_edges(0), &[(1, 4), (4, 4), (5, 4)]);
        assert_eq!(g.out_edges(2), &[(3, 1), (0, 2)]);
        assert_eq!(g.out_edges(1), &[]);
        g.stage_arc(0, 6, 1, RAW_ARC);
        g.build_staged();
        assert_eq!(g.out_edges(0), &[(1, 4), (4, 4), (5, 4), (6, 1)]);
        assert_eq!(g.shortest_path(2, 6).0, Some((3, vec![2, 0, 6])));
    }

    /// `allocated_bytes` counts every allocation the arena holds: the
    /// staged-cost arena and the search heap included.
    #[test]
    fn allocated_bytes_counts_the_cost_arena_and_the_heap() {
        let mut g = ReceivedGraph::new();
        for v in 0..64u32 {
            g.stage_arc(v, (v + 1) % 64, 3, 1);
            g.stage_arc(v, (v + 7) % 64, 5, RAW_ARC);
        }
        g.build_staged();
        g.shortest_path(0, 63);
        assert!(g.costs.capacity() > 0 && g.scratch.heap.capacity() > 0);
        let heap_bytes = g.scratch.heap.capacity() * std::mem::size_of::<HeapEntry<u32>>();
        let want = vec_bytes(&g.slot_table)
            + g.slot_spill.capacity() * std::mem::size_of::<(NodeId, u32)>()
            + vec_bytes(&g.ids)
            + vec_bytes(&g.points)
            + vec_bytes(&g.flags)
            + vec_bytes(&g.runs)
            + vec_bytes(&g.edges)
            + vec_bytes(&g.hops)
            + vec_bytes(&g.costs)
            + vec_bytes(&g.staged)
            + vec_bytes(&g.starts)
            + vec_bytes(&g.scratch.dist)
            + vec_bytes(&g.scratch.parent)
            + vec_bytes(&g.scratch.stamp)
            + heap_bytes;
        assert_eq!(g.allocated_bytes(), want);
    }

    #[test]
    fn group_by_key_is_a_stable_counting_sort() {
        let (mut start, mut out) = (Vec::new(), Vec::new());
        let pairs = [(2, 'a'), (0, 'b'), (2, 'c'), (0, 'd')];
        group_by_key(3, pairs.into_iter(), &mut start, &mut out);
        assert_eq!(start, [0, 2, 2, 4]);
        assert_eq!(out, ['b', 'd', 'a', 'c']);
    }
}
