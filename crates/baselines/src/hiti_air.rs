//! HiTi on the air: broadcast program and client (paper §3.2).
//!
//! The paper singles HiTi out as "the only approach that could effectively
//! achieve selective tuning, since it uses an index structure to determine
//! the needed regions of the network in advance. For this pruning of the
//! search space to be possible, however, the client should receive the
//! entire index" — and the index, holding materialized border-pair path
//! views at every hierarchy level, is several times larger than the
//! network itself (Table 1), which is what disqualifies HiTi on real
//! devices (Table 2).
//!
//! This module makes that verdict *measurable* instead of asserted: it
//! assembles a real HiTi broadcast cycle and implements the full client so
//! the experiments can report its genuine tuning time, memory footprint
//! and access latency next to the other methods.
//!
//! Cycle layout:
//!
//! ```text
//! [ global index: geometry, per-cell offsets, super-edge catalog
//!   (all levels, with path views), cross-cell edges ]
//! [ cell 0 raw data ][ cell 1 raw data ] ... [ cell k²-1 raw data ]
//! ```
//!
//! Client protocol: receive the entire index (reliably, §6.2 — a lost
//! index packet is re-received next cycle since HiTi's index is not
//! replicated), locate the source/target cells from the grid geometry,
//! selectively tune in to just those two cells' raw data, then run
//! Dijkstra over the *hierarchical* contraction `G'`: the coarsest
//! disjoint groups that avoid both terminal cells contribute only their
//! super-edges, the terminal cells contribute raw adjacency, and
//! cross-cell edges stitch everything together. Super-edges on the answer
//! are expanded through their materialized path views.
//!
//! The client owns its arenas and reuses them across sessions; each
//! session clears them and keeps their capacity. The decoded index holds
//! cells and super-edges in tables indexed by their ids, every path view
//! as a run of one shared `via` pool (SEPATH chunks that arrive before
//! their SE record after a lossy retry still reassemble), and the
//! super-edges bucketed by `(level, group)`. The terminal cells' raw data
//! lands in a [`ReceivedGraph`], and so does G′: the shared slot arena
//! stages each session's arcs and builds them into a CSR, and its one
//! search ([`ReceivedGraph::search_with`]) runs over them, expanding each
//! super-edge on the answer through its path view. Each node's arcs are
//! its selected super-edges by ascending id, then its cross-cell edges in
//! arrival order, then, for a received terminal-cell node, its raw arcs.
//! So heap pushes, tie-breaks, paths and settle counts equal the former
//! hash-map client's, which the tests keep as a differential oracle. No
//! wire value sizes an allocation unchecked: super-edge and cell ids are
//! capped by what the index's `total` packets can carry, and so is G′'s
//! direct slot table; node ids past it spill.

use crate::hiti::HiTiIndex;
use bytes::Bytes;
use spair_broadcast::codec::{u16_of, u8_of, EncodeError, PayloadReader, RecordBuf, RecordWriter};
use spair_broadcast::cycle::{CycleBuilder, SegmentKind};
use spair_broadcast::packet::{Packet, PacketKind, PAYLOAD_CAPACITY};
use spair_broadcast::{Air, BroadcastCycle, CpuMeter, MemoryMeter, Received};
use spair_core::client_common::{
    find_next_index, finish, receive_segment_reliable, rereceive, same_node, RetryOrder,
    MAX_RETRY_CYCLES,
};
use spair_core::netcodec::{encode_nodes, group_by_key, ReceivedGraph, SearchScratch, RAW_ARC};
use spair_core::query::{decoded_node_bytes, AirClient, Query, QueryError, QueryOutcome};
use spair_partition::{GridLocator, RegionId};
use spair_roadnet::{Distance, NodeId, RoadNetwork, Weight};
use std::ops::ControlFlow;

const MAGIC: u8 = 0xA7;
// magic (u8) + seq (u32) + total (u32). The counters are u32 because a
// paper-scale hierarchy's index spans far more than 65 535 packets —
// the u16 header wrapped and made every client abort, found by the load
// harness's 100k-node population cell.
const HEADER_LEN: usize = 9;

const TAG_GEOM: u8 = 1;
const TAG_CELL: u8 = 2;
const TAG_SE: u8 = 3;
const TAG_SEPATH: u8 = 4;
const TAG_BEDGE: u8 = 5;

/// Interior path nodes carried per SEPATH record.
const PATH_CHUNK: usize = 24;

/// A fully assembled HiTi broadcast program.
#[derive(Debug)]
pub struct HiTiProgram {
    cycle: BroadcastCycle,
    index_packets: usize,
}

impl HiTiProgram {
    /// The broadcast cycle.
    pub fn cycle(&self) -> &BroadcastCycle {
        &self.cycle
    }

    /// Packets of the global index (geometry + offsets + super-edge
    /// catalog + cross-cell edges).
    pub fn index_packets(&self) -> usize {
        self.index_packets
    }
}

/// HiTi server: serializes the hierarchy and the cell-ordered network.
pub struct HiTiAirServer<'a> {
    g: &'a RoadNetwork,
    index: &'a HiTiIndex,
}

impl<'a> HiTiAirServer<'a> {
    /// Binds the server to the network and a built hierarchy.
    pub fn new(g: &'a RoadNetwork, index: &'a HiTiIndex) -> Self {
        Self { g, index }
    }

    /// Index payloads given the per-cell offset table (fixed width, so a
    /// placeholder pass and the real pass produce equal packet counts).
    /// Every count squeezed into a narrow wire field goes through a
    /// checked conversion — the u16 seq/total wrap this format already
    /// shipped once is exactly the bug class the typed error retires.
    fn encode_index(&self, cells: &[(u32, u16)]) -> Result<Vec<Bytes>, EncodeError> {
        let side = self.index.base_side();
        let loc = self.index.locator();
        let body = |total: u32| -> Result<Vec<Bytes>, EncodeError> {
            let mut w = RecordWriter::with_capacity(PAYLOAD_CAPACITY - HEADER_LEN);
            let mut rec = RecordBuf::new();

            rec.put_u8(TAG_GEOM)
                .put_f64(loc.min.x)
                .put_f64(loc.min.y)
                .put_f64(loc.cell_w)
                .put_f64(loc.cell_h)
                .put_u16(u16_of(side, "hiti grid side")?)
                .put_u8(u8_of(self.index.levels.len(), "hiti level count")?);
            w.push_record(rec.as_slice());

            for (cell, &(offset, packets)) in cells.iter().enumerate() {
                rec.clear();
                rec.put_u8(TAG_CELL)
                    .put_u16(u16_of(cell, "hiti cell id")?)
                    .put_u32(offset)
                    .put_u16(packets);
                w.push_record(rec.as_slice());
            }

            // Super-edge catalog across all levels, with path views.
            let mut id = 0u32;
            for (level, l) in self.index.levels.iter().enumerate() {
                for se in &l.super_edges {
                    let cell = self.index.base_cell_of(se.from);
                    let group = u16_of(
                        self.index.group_of_cell(cell, level),
                        "hiti super-edge group",
                    )?;
                    let via = l.via(se);
                    rec.clear();
                    rec.put_u8(TAG_SE)
                        .put_u32(id)
                        .put_u8(u8_of(level, "hiti super-edge level")?)
                        .put_u16(group)
                        .put_u32(se.from)
                        .put_u32(se.to)
                        .put_u64(se.cost)
                        .put_u16(u16_of(via.len(), "hiti super-edge path length")?);
                    w.push_record(rec.as_slice());
                    for (ci, chunk) in via.chunks(PATH_CHUNK).enumerate() {
                        rec.clear();
                        rec.put_u8(TAG_SEPATH)
                            .put_u32(id)
                            .put_u16(sepath_start(ci)?)
                            .put_u8(chunk.len() as u8);
                        for &v in chunk {
                            rec.put_u32(v);
                        }
                        w.push_record(rec.as_slice());
                    }
                    id += 1;
                }
            }

            // Cross-cell (border) edges: the stitching between subgraphs.
            for v in self.g.node_ids() {
                let cv = self.index.base_cell_of(v);
                for (u, wt) in self.g.out_edges(v) {
                    if self.index.base_cell_of(u) != cv {
                        rec.clear();
                        rec.put_u8(TAG_BEDGE).put_u32(v).put_u32(u).put_u32(wt);
                        w.push_record(rec.as_slice());
                    }
                }
            }

            w.finish()
                .into_iter()
                .enumerate()
                .map(|(seq, body)| {
                    let mut h = RecordBuf::new();
                    h.put_u8(MAGIC).put_u32(seq as u32).put_u32(total);
                    let mut v = h.as_slice().to_vec();
                    v.extend_from_slice(&body);
                    Bytes::from(v)
                })
                .map(Ok)
                .collect()
        };
        let count = body(0)?.len() as u32;
        body(count)
    }

    /// Assembles the broadcast program. Fails with a typed
    /// [`EncodeError`] when the world exceeds a wire field of the index
    /// format (instead of silently truncating a counter).
    pub fn build_program(&self) -> Result<HiTiProgram, EncodeError> {
        let side = self.index.base_side();
        let num_cells = side * side;
        let mut by_cell: Vec<Vec<NodeId>> = vec![Vec::new(); num_cells];
        for v in self.g.node_ids() {
            by_cell[self.index.base_cell_of(v) as usize].push(v);
        }
        let cell_payloads: Vec<Vec<Bytes>> = by_cell
            .iter()
            .map(|nodes| encode_nodes(self.g, nodes))
            .collect();

        // Pass 1: placeholder offsets to learn the index extent.
        let placeholder = vec![(0u32, 0u16); num_cells];
        let index_packets = self.encode_index(&placeholder)?.len();

        let mut offset = index_packets;
        let cells: Vec<(u32, u16)> = cell_payloads
            .iter()
            .map(|p| {
                let entry = (
                    spair_broadcast::codec::u32_of(offset, "hiti cell offset")?,
                    u16_of(p.len(), "hiti cell packet count")?,
                );
                offset += p.len();
                Ok(entry)
            })
            .collect::<Result<_, EncodeError>>()?;

        // Pass 2: real offsets.
        let index_payloads = self.encode_index(&cells)?;
        assert_eq!(index_payloads.len(), index_packets, "fixed-width encoding");

        let mut b = CycleBuilder::new();
        b.push_segment(SegmentKind::GlobalIndex, PacketKind::Index, index_payloads);
        for (cell, payloads) in cell_payloads.into_iter().enumerate() {
            b.push_segment(
                SegmentKind::RegionData(cell as u16),
                PacketKind::Data,
                payloads,
            );
        }
        Ok(HiTiProgram {
            cycle: b.finish(),
            index_packets,
        })
    }
}

/// Node offset of SEPATH chunk `ci` within its super-edge's path view,
/// checked against the u16 wire field (paths past 65 535 interior nodes
/// would otherwise wrap the offset and scramble reassembly).
fn sepath_start(ci: usize) -> Result<u16, EncodeError> {
    u16_of(ci * PATH_CHUNK, "hiti se path start")
}
/// "No entry" in the client's id-indexed tables.
const NONE: u32 = u32::MAX;

/// Index bytes one packet carries after its header.
const INDEX_BODY: usize = PAYLOAD_CAPACITY - HEADER_LEN;
/// Wire length of an SE record. An index of `total` packets holds at
/// most `total * INDEX_BODY / SE_RECORD_LEN` of them, which caps the
/// super-edge ids.
const SE_RECORD_LEN: usize = 26;
/// Wire length of a CELL record, which caps the cell ids likewise.
const CELL_RECORD_LEN: usize = 9;

/// One super-edge of the decoded catalog, at its id in
/// [`IndexArena::ses`].
#[derive(Debug, Clone, Copy)]
struct SeEntry {
    level: u8,
    group: u16,
    from: NodeId,
    to: NodeId,
    cost: Distance,
    /// An SE or SEPATH record for this id arrived this session.
    seen: bool,
    /// Path-view length declared by an SE record that arrived before
    /// any chunk of its view; chunks can only lengthen the view.
    declared: u16,
    /// The path view: `(start, len)` in [`IndexArena::via`].
    via: (usize, usize),
}

impl SeEntry {
    /// An id no record has named yet; a SEPATH-first id keeps this
    /// metadata until its SE record arrives.
    const UNSEEN: SeEntry = SeEntry {
        level: 0,
        group: 0,
        from: NodeId::MAX,
        to: NodeId::MAX,
        cost: 0,
        seen: false,
        declared: 0,
        via: (0, 0),
    };
}

/// One SEPATH chunk as it arrived; its nodes sit at `at` in
/// [`IndexArena::via`].
#[derive(Debug, Clone, Copy)]
struct Chunk {
    id: u32,
    start: u16,
    count: u8,
    at: usize,
}

impl Chunk {
    /// One past the last view position the chunk writes (0 if empty).
    fn end(&self) -> usize {
        if self.count == 0 {
            0
        } else {
            self.start as usize + self.count as usize
        }
    }
}

/// The decoded global index, reused across sessions. Cells and
/// super-edges sit in tables indexed by their ids, every path view is a
/// run of one shared `via` pool, and [`Self::bucket`] groups the
/// super-edges by `(level, group)`. Every table is capped by what the
/// session's `total` index packets can carry.
#[derive(Debug, Clone, Default)]
struct IndexArena {
    locator: Option<GridLocator>,
    levels: usize,
    /// `(offset, packets)` per cell id.
    cells: Vec<Option<(u32, u16)>>,
    /// Distinct cell ids received.
    cell_count: usize,
    ses: Vec<SeEntry>,
    /// Path-view nodes: the chunks as they arrived, then the views
    /// [`Self::finish`] had to assemble.
    via: Vec<NodeId>,
    chunks: Vec<Chunk>,
    bedges: Vec<(NodeId, NodeId, Weight)>,
    /// Bucket `b` holds the super-edge ids
    /// `bucket_ids[bucket_start[b]..bucket_start[b + 1]]`, ascending;
    /// level `l`'s groups start at bucket `level_base[l]`.
    bucket_start: Vec<usize>,
    bucket_ids: Vec<u32>,
    level_base: Vec<usize>,
    max_ses: usize,
    max_cells: usize,
    /// Path-view nodes the index can carry; also the id cap of G′'s
    /// direct slot table.
    max_via: usize,
}

impl IndexArena {
    /// Starts a session, keeping every allocation.
    fn clear(&mut self) {
        self.locator = None;
        self.levels = 0;
        self.cells.clear();
        self.cell_count = 0;
        self.ses.clear();
        self.via.clear();
        self.chunks.clear();
        self.bedges.clear();
        self.set_total(0);
    }

    /// Caps the tables by what `total` index packets can carry.
    fn set_total(&mut self, total: usize) {
        let bytes = total.saturating_mul(INDEX_BODY);
        self.max_ses = (bytes / SE_RECORD_LEN).min(NONE as usize);
        self.max_cells = (bytes / CELL_RECORD_LEN).min(1 << 16);
        self.max_via = bytes / 4;
    }

    /// Super-edge `id`'s entry, growing the table; `None` past the cap.
    fn se_mut(&mut self, id: u32) -> Option<&mut SeEntry> {
        let i = id as usize;
        if i >= self.max_ses {
            return None;
        }
        if i >= self.ses.len() {
            self.ses.resize(i + 1, SeEntry::UNSEEN);
        }
        Some(&mut self.ses[i])
    }

    /// `(offset, packets)` of cell `c`, if received.
    fn cell(&self, c: RegionId) -> Option<(u32, u16)> {
        self.cells.get(c as usize).copied().flatten()
    }

    /// Super-edge `id`'s path view.
    fn view(&self, id: u32) -> &[NodeId] {
        let (start, len) = self.ses[id as usize].via;
        &self.via[start..start + len]
    }

    /// Decoded size charged to the client's memory meter.
    fn retained_bytes(&self) -> usize {
        let se_bytes: usize = self
            .ses
            .iter()
            .filter(|se| se.seen)
            .map(|se| 24 + 4 * se.via.1)
            .sum();
        48 + self.cell_count * 8 + se_bytes + self.bedges.len() * 12
    }

    /// Files one index packet's records; `false` on a malformed packet or
    /// an id past the caps.
    fn ingest(&mut self, payload: &[u8]) -> bool {
        let mut r = PayloadReader::new(payload);
        let Some(MAGIC) = r.read_u8() else {
            return false;
        };
        let (Some(_seq), Some(_total)) = (r.read_u32(), r.read_u32()) else {
            return false;
        };
        while let Some(tag) = r.read_u8() {
            match tag {
                TAG_GEOM => {
                    let (Some(minx), Some(miny), Some(cw), Some(chh)) =
                        (r.read_f64(), r.read_f64(), r.read_f64(), r.read_f64())
                    else {
                        return false;
                    };
                    let (Some(side), Some(levels)) = (r.read_u16(), r.read_u8()) else {
                        return false;
                    };
                    self.locator = Some(GridLocator {
                        min: spair_roadnet::Point::new(minx, miny),
                        cell_w: cw,
                        cell_h: chh,
                        cols: side as usize,
                        rows: side as usize,
                    });
                    self.levels = levels as usize;
                }
                TAG_CELL => {
                    let (Some(cell), Some(off), Some(len)) =
                        (r.read_u16(), r.read_u32(), r.read_u16())
                    else {
                        return false;
                    };
                    let c = cell as usize;
                    if c >= self.max_cells {
                        return false;
                    }
                    if c >= self.cells.len() {
                        self.cells.resize(c + 1, None);
                    }
                    if self.cells[c].replace((off, len)).is_none() {
                        self.cell_count += 1;
                    }
                }
                TAG_SE => {
                    let (Some(id), Some(level), Some(group)) =
                        (r.read_u32(), r.read_u8(), r.read_u16())
                    else {
                        return false;
                    };
                    let (Some(from), Some(to), Some(cost), Some(via_total)) =
                        (r.read_u32(), r.read_u32(), r.read_u64(), r.read_u16())
                    else {
                        return false;
                    };
                    let Some(se) = self.se_mut(id) else {
                        return false;
                    };
                    if !se.seen {
                        se.seen = true;
                        se.declared = via_total;
                    }
                    se.level = level;
                    se.group = group;
                    se.from = from;
                    se.to = to;
                    se.cost = cost;
                }
                TAG_SEPATH => {
                    let (Some(id), Some(start), Some(count)) =
                        (r.read_u32(), r.read_u16(), r.read_u8())
                    else {
                        return false;
                    };
                    let Some(se) = self.se_mut(id) else {
                        return false;
                    };
                    se.seen = true;
                    let at = self.via.len();
                    for _ in 0..count {
                        let Some(v) = r.read_u32() else { return false };
                        self.via.push(v);
                    }
                    self.chunks.push(Chunk {
                        id,
                        start,
                        count,
                        at,
                    });
                }
                TAG_BEDGE => {
                    let (Some(v), Some(u), Some(wt)) = (r.read_u32(), r.read_u32(), r.read_u32())
                    else {
                        return false;
                    };
                    self.bedges.push((v, u, wt));
                }
                _ => return false,
            }
        }
        true
    }

    /// Gives every super-edge its path view once the index is in. A view
    /// is as long as its SE record declared (when that record came first)
    /// or as its furthest chunk reaches; positions no chunk wrote stay
    /// `NodeId::MAX`, and a later chunk overwrites an earlier one. A view
    /// whose chunks arrived in order and back to back stays where they
    /// landed; any other is assembled at the pool's tail, within the
    /// index's capacity. `false` if the views exceed it.
    fn finish(&mut self) -> bool {
        let Self {
            ses,
            via,
            chunks,
            max_via,
            ..
        } = self;
        // Stable: a view's chunks stay in arrival order.
        if !chunks.is_sorted_by_key(|c| c.id) {
            chunks.sort_by_key(|c| c.id);
        }
        let mut assembled = 0usize;
        let mut k = 0;
        for (id, se) in ses.iter_mut().enumerate() {
            let lo = k;
            while k < chunks.len() && chunks[k].id as usize == id {
                k += 1;
            }
            if !se.seen {
                continue;
            }
            let mine = &chunks[lo..k];
            let len = mine
                .iter()
                .map(Chunk::end)
                .max()
                .unwrap_or(0)
                .max(se.declared as usize);
            let mut next = 0;
            let tiled = mine.iter().all(|c| {
                let fits = c.start as usize == next && c.at == mine[0].at + next;
                next += c.count as usize;
                fits
            });
            se.via = if len == 0 {
                (0, 0)
            } else if tiled && next == len {
                (mine[0].at, len)
            } else {
                assembled += len;
                if assembled > *max_via {
                    return false;
                }
                let start = via.len();
                via.resize(start + len, NodeId::MAX);
                for c in mine {
                    let dst = start + c.start as usize;
                    via.copy_within(c.at..c.at + c.count as usize, dst);
                }
                (start, len)
            };
        }
        true
    }

    /// Buckets the super-edges by `(level, group)` for a `side`×`side`
    /// grid of `levels` levels; ids whose group does not exist are left
    /// out, as no selection can name them.
    fn bucket(&mut self, side: usize, levels: usize) {
        self.level_base.clear();
        let mut buckets = 0;
        for level in 0..levels {
            self.level_base.push(buckets);
            let cells = side >> level;
            buckets += cells * cells;
        }
        let base = &self.level_base;
        let keyed = self.ses.iter().enumerate().filter_map(|(id, se)| {
            let level = se.level as usize;
            let cells = side.checked_shr(level as u32).unwrap_or(0);
            let group = se.group as usize;
            (se.seen && level < levels && group < cells * cells)
                .then(|| (base[level] + group, id as u32))
        });
        group_by_key(buckets, keyed, &mut self.bucket_start, &mut self.bucket_ids);
    }

    /// Super-edge ids of bucket `(level, group)`.
    fn bucket_ids(&self, level: u8, group: u16) -> &[u32] {
        let b = self.level_base[level as usize] + group as usize;
        &self.bucket_ids[self.bucket_start[b]..self.bucket_start[b + 1]]
    }
}

/// Coarsest disjoint groups avoiding both terminal cells: descend the
/// 2×2 group hierarchy from the top level, splitting only groups that
/// contain `cs` or `ct`. Returns `(level, group)` pairs.
fn select_groups(cs: RegionId, ct: RegionId, side: usize, levels: usize) -> Vec<(u8, u16)> {
    let group_of = |cell: RegionId, level: usize| -> usize {
        let (x, y) = (cell as usize % side, cell as usize / side);
        let cells = side >> level;
        (y >> level) * cells + (x >> level)
    };
    let top = levels - 1;
    let mut out = Vec::new();
    let mut stack: Vec<(usize, usize)> = {
        let cells = side >> top;
        (0..cells * cells).map(|gr| (top, gr)).collect()
    };
    while let Some((level, gr)) = stack.pop() {
        let contains_terminal = group_of(cs, level) == gr || group_of(ct, level) == gr;
        if !contains_terminal {
            out.push((level as u8, gr as u16));
        } else if level > 0 {
            // Split into the four children one level finer.
            let cells = side >> level;
            let (gx, gy) = (gr % cells, gr / cells);
            let fcells = side >> (level - 1);
            for dy in 0..2 {
                for dx in 0..2 {
                    stack.push((level - 1, (2 * gy + dy) * fcells + (2 * gx + dx)));
                }
            }
        }
        // level == 0 and terminal: the cell stays raw.
    }
    out
}

/// The HiTi client. It owns the decoded index, the terminal cells'
/// store and G′ with its search scratch, and reuses them across
/// sessions.
#[derive(Debug, Clone, Default)]
pub struct HiTiAirClient {
    index: IndexArena,
    store: ReceivedGraph,
    gprime: ReceivedGraph,
    scratch: SearchScratch,
}

impl HiTiAirClient {
    /// New client.
    pub fn new() -> Self {
        Self::default()
    }

    /// Receives the entire global index reliably starting at `start`. The
    /// copy length is learned from the first intact packet header (each
    /// packet carries `seq`/`total`); lost packets are re-received in
    /// later cycles (§6.2 — HiTi's index is not replicated, so a loss in
    /// it costs a cycle-long wait, which Figure 14 would show).
    fn receive_index(&mut self, ch: &mut dyn Air, start: usize) -> Result<(), QueryError> {
        const UNDECODABLE: QueryError = QueryError::Aborted("undecodable HiTi index packet");
        let len = ch.cycle_len();
        let dec = &mut self.index;
        dec.clear();
        let mut total: Option<usize> = None;
        let mut received: Vec<bool> = Vec::new();
        for _round in 0..MAX_RETRY_CYCLES {
            ch.sleep_to_offset(start);
            let mut pos = 0usize;
            loop {
                if let Some(t) = total {
                    if pos >= t {
                        break;
                    }
                }
                match ch.receive() {
                    Received::Packet(p) => {
                        if p.kind() != PacketKind::Index {
                            // Overran the copy without learning its
                            // length (only possible when `total` is still
                            // unknown, i.e. every index packet was lost).
                            break;
                        }
                        let mut r = PayloadReader::new(p.payload());
                        if r.read_u8() != Some(MAGIC) {
                            return Err(QueryError::Aborted("channel does not carry a HiTi index"));
                        }
                        let (Some(seq), Some(tot)) = (r.read_u32(), r.read_u32()) else {
                            return Err(QueryError::Aborted("malformed HiTi index header"));
                        };
                        // Bound the header before it sizes or indexes
                        // anything: the copy fits in one cycle, and every
                        // packet of it agrees on its length.
                        let (seq, tot) = (seq as usize, tot as usize);
                        if seq >= tot || tot > len || total.is_some_and(|t| t != tot) {
                            return Err(QueryError::Aborted("inconsistent HiTi index header"));
                        }
                        if total.is_none() {
                            dec.set_total(tot);
                        }
                        total = Some(tot);
                        received.resize(tot, false);
                        if !received[seq] {
                            if !dec.ingest(p.payload()) {
                                return Err(UNDECODABLE);
                            }
                            received[seq] = true;
                        }
                        pos = seq + 1;
                    }
                    Received::Lost | Received::Corrupted => pos += 1,
                }
            }
            let Some(t) = total else {
                continue; // nothing intact this cycle; try the next one
            };
            // Targeted retries for the holes.
            let missing = (0..t)
                .filter(|&i| !received[i])
                .map(|i| (start + i) % len)
                .collect();
            let file = |off: usize, p: &Packet| {
                if !is_index_packet(p, (off + len - start) % len, t) {
                    return Ok(false);
                }
                if !dec.ingest(p.payload()) {
                    return Err(UNDECODABLE);
                }
                Ok(true)
            };
            let why = "HiTi index reception never completed";
            rereceive(ch, missing, RetryOrder::AsListed, why, file)?;
            return if dec.finish() {
                Ok(())
            } else {
                Err(UNDECODABLE)
            };
        }
        Err(QueryError::Aborted("HiTi index reception never completed"))
    }
}

/// Whether `p` is packet `seq` of an index copy `total` packets long. A
/// targeted retry files only that packet: any other frame in its slot (a
/// duplicate of the previous slot, a stale or data frame) leaves the slot
/// missing.
fn is_index_packet(p: &Packet, seq: usize, total: usize) -> bool {
    let mut r = PayloadReader::new(p.payload());
    p.kind() == PacketKind::Index
        && r.read_u8() == Some(MAGIC)
        && r.read_u32().map(|v| v as usize) == Some(seq)
        && r.read_u32().map(|v| v as usize) == Some(total)
}

impl AirClient for HiTiAirClient {
    fn method_name(&self) -> &'static str {
        "HiTi"
    }

    fn query(&mut self, ch: &mut dyn Air, q: &Query) -> Result<QueryOutcome, QueryError> {
        let mut mem = MemoryMeter::new();
        let mut cpu = CpuMeter::new();
        if let Some(out) = same_node(q) {
            return Ok(out);
        }

        // 1. Entire index ("the client should receive the entire index").
        let Some(start) = find_next_index(ch, 10_000) else {
            return Err(QueryError::Aborted("no index on channel"));
        };
        self.receive_index(ch, start)?;
        let index = &mut self.index;
        mem.alloc(index.retained_bytes());
        let Some(locator) = index.locator else {
            return Err(QueryError::Aborted("HiTi index lacks geometry"));
        };
        // A grid the index could not list the cells of, or a hierarchy
        // deeper than a grid side's bits, is no usable geometry.
        let side = locator.cols;
        let levels = index.levels.max(1);
        if side == 0 || side * side > index.max_cells || levels > usize::BITS as usize {
            return Err(QueryError::Aborted("HiTi index lacks geometry"));
        }

        // 2. Terminal cells and needed groups.
        let cs = locator.locate(q.source_pt);
        let ct = locator.locate(q.target_pt);
        let selected = cpu.time(|| select_groups(cs, ct, side, levels));

        // 3. Selective tuning: only the two terminal cells' raw data.
        let store = &mut self.store;
        store.clear();
        let mut cells_needed = vec![cs];
        if ct != cs {
            cells_needed.push(ct);
        }
        // Receive in broadcast order to stay within one pass.
        cells_needed.sort_by_key(|&c| index.cell(c).map(|(off, _)| off).unwrap_or(0));
        for cell in cells_needed {
            let Some((off, len)) = index.cell(cell) else {
                return Err(QueryError::Aborted("cell offset missing from index"));
            };
            let why = "cell data reception never completed";
            let payloads = receive_segment_reliable(ch, off as usize, len as usize, why)?;
            for payload in &payloads {
                if let Some(bytes) = store.ingest_payload(payload) {
                    mem.alloc(bytes);
                }
            }
        }

        // 4. Dijkstra over the hierarchical contraction G', its arcs staged
        // in the order the module docs give.
        let (g, scratch) = (&mut self.gprime, &mut self.scratch);
        let (res, settled) = cpu.time(|| {
            index.bucket(side, levels);
            g.clear_with_id_cap(index.max_via);
            let mut ids = Vec::new();
            for &(level, group) in &selected {
                ids.extend_from_slice(index.bucket_ids(level, group));
            }
            ids.sort_unstable();
            for id in ids {
                let se = &index.ses[id as usize];
                g.stage_arc(se.from, se.to, se.cost, id);
            }
            for &(v, u, w) in &index.bedges {
                g.stage_arc(v, u, w as Distance, RAW_ARC);
            }
            for v in store.node_ids() {
                for &(u, w) in store.out_edges(v) {
                    g.stage_arc(v, u, w as Distance, RAW_ARC);
                }
            }
            g.build_staged();
            let (d, settled, _) = g.search_with(
                scratch,
                q.source,
                Some(q.target),
                |_, _| 0,
                |_, _| true,
                |_, _, _| ControlFlow::Continue(()),
            );
            let path = |d| (d, g.path_to(scratch, q.target, |se| index.view(se)));
            (d.map(path), settled)
        });
        mem.alloc(settled * decoded_node_bytes(0));
        finish(ch, &mem, &cpu, settled, res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spair_broadcast::{BroadcastChannel, FaultPlan, FaultyChannel, LossModel};
    use spair_roadnet::dijkstra_distance;
    use spair_roadnet::generators::small_grid;

    fn setup(seed: u64, side: usize, levels: usize) -> (RoadNetwork, HiTiProgram) {
        let g = small_grid(12, 12, seed);
        let index = HiTiIndex::build(&g, side, levels);
        let program = HiTiAirServer::new(&g, &index)
            .build_program()
            .expect("encode");
        (g, program)
    }

    #[test]
    fn matches_dijkstra_on_many_queries() {
        let (g, program) = setup(11, 4, 3);
        let mut client = HiTiAirClient::new();
        for (i, &(s, t)) in [(0u32, 143u32), (5, 77), (130, 2), (60, 61), (143, 0)]
            .iter()
            .enumerate()
        {
            let mut ch = BroadcastChannel::tune_in(program.cycle(), i * 37, LossModel::Lossless);
            let q = Query::for_nodes(&g, s, t);
            let out = client.query(&mut ch, &q).unwrap();
            assert_eq!(Some(out.distance), dijkstra_distance(&g, s, t), "{s}->{t}");
            assert_eq!(out.path.first(), Some(&s));
            assert_eq!(out.path.last(), Some(&t));
        }
    }

    #[test]
    fn expanded_paths_are_real_paths() {
        let (g, program) = setup(3, 4, 2);
        let mut client = HiTiAirClient::new();
        let mut ch = BroadcastChannel::lossless(program.cycle());
        let q = Query::for_nodes(&g, 2, 141);
        let out = client.query(&mut ch, &q).unwrap();
        let mut acc: Distance = 0;
        for w in out.path.windows(2) {
            acc += g.weight_between(w[0], w[1]).expect("consecutive edge") as Distance;
        }
        assert_eq!(acc, out.distance);
    }

    #[test]
    fn selective_tuning_beats_whole_cycle() {
        let (g, program) = setup(7, 4, 3);
        let mut client = HiTiAirClient::new();
        let mut ch = BroadcastChannel::lossless(program.cycle());
        let out = client
            .query(&mut ch, &Query::for_nodes(&g, 0, 143))
            .unwrap();
        // Index + two cells is less than the whole cycle.
        assert!(
            (out.stats.tuning_packets as usize) < program.cycle().len(),
            "tuned {} of {}",
            out.stats.tuning_packets,
            program.cycle().len()
        );
        // But the entire index was received.
        assert!(out.stats.tuning_packets as usize >= program.index_packets());
    }

    #[test]
    fn memory_is_dominated_by_the_index() {
        let (g, program) = setup(5, 8, 3);
        let mut client = HiTiAirClient::new();
        let mut ch = BroadcastChannel::lossless(program.cycle());
        let out = client
            .query(&mut ch, &Query::for_nodes(&g, 10, 100))
            .unwrap();
        let network_bytes = g.num_edges() * 8 + g.num_nodes() * 12;
        assert!(
            out.stats.peak_memory_bytes > network_bytes,
            "HiTi retained {} vs network {network_bytes}",
            out.stats.peak_memory_bytes
        );
    }

    #[test]
    fn correct_under_packet_loss() {
        let (g, program) = setup(13, 4, 2);
        let mut client = HiTiAirClient::new();
        let q = Query::for_nodes(&g, 3, 137);
        for seed in 0..4 {
            let mut ch = BroadcastChannel::tune_in(
                program.cycle(),
                41 * seed as usize,
                LossModel::bernoulli(0.05, seed),
            );
            let out = client.query(&mut ch, &q).unwrap();
            assert_eq!(
                Some(out.distance),
                dijkstra_distance(&g, 3, 137),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn every_tune_in_offset_works() {
        let (g, program) = setup(9, 4, 2);
        let mut client = HiTiAirClient::new();
        let q = Query::for_nodes(&g, 20, 100);
        let want = dijkstra_distance(&g, 20, 100);
        let len = program.cycle().len();
        for k in 0..8 {
            let mut ch =
                BroadcastChannel::tune_in(program.cycle(), k * len / 8, LossModel::Lossless);
            let out = client.query(&mut ch, &q).unwrap();
            assert_eq!(Some(out.distance), want, "offset {}", k * len / 8);
        }
    }

    #[test]
    fn group_selection_is_disjoint_and_avoids_terminals() {
        let side = 8usize;
        let levels = 4usize;
        let (cs, ct) = (3 as RegionId, 60 as RegionId);
        let selected = select_groups(cs, ct, side, levels);
        let group_of = |cell: usize, level: usize| {
            let (x, y) = (cell % side, cell / side);
            let cells = side >> level;
            (y >> level) * cells + (x >> level)
        };
        // Every base cell except cs/ct is covered by exactly one group.
        for cell in 0..side * side {
            let covers = selected
                .iter()
                .filter(|&&(l, g)| group_of(cell, l as usize) == g as usize)
                .count();
            if cell == cs as usize || cell == ct as usize {
                assert_eq!(covers, 0, "terminal cell {cell} must stay raw");
            } else {
                assert_eq!(covers, 1, "cell {cell} covered {covers} times");
            }
        }
    }

    #[test]
    fn same_node_query_is_trivial() {
        let (g, program) = setup(1, 4, 2);
        let mut client = HiTiAirClient::new();
        let mut ch = BroadcastChannel::lossless(program.cycle());
        let out = client.query(&mut ch, &Query::for_nodes(&g, 7, 7)).unwrap();
        assert_eq!(out.distance, 0);
        assert_eq!(out.path, vec![7]);
    }

    /// Encoder boundary: the SEPATH chunk offset is a u16 wire field;
    /// the last in-range chunk encodes, the first past it is a typed
    /// error, not a silent wrap.
    #[test]
    fn sepath_start_boundary() {
        let last_ok = u16::MAX as usize / PATH_CHUNK;
        assert_eq!(sepath_start(last_ok), Ok((last_ok * PATH_CHUNK) as u16));
        assert!(sepath_start(last_ok + 1).is_err());
    }

    /// The client this module shipped before its flat arenas, kept
    /// verbatim as the differential oracle: it decodes the index into
    /// hash maps and rebuilds G′'s adjacency as a hash map per query.
    mod oracle {
        use super::super::*;
        use spair_core::netcodec::decode_payload;
        use spair_roadnet::MinHeap;
        use std::collections::hash_map::Entry;
        use std::collections::HashMap;

        /// One decoded super-edge of the catalog.
        #[derive(Debug, Clone)]
        struct DecodedSe {
            level: u8,
            group: u16,
            from: NodeId,
            to: NodeId,
            cost: Distance,
            via: Vec<NodeId>,
        }

        /// The decoded global index.
        #[derive(Debug, Default)]
        struct DecodedIndex {
            locator: Option<GridLocator>,
            levels: usize,
            cells: HashMap<u16, (u32, u16)>,
            ses: HashMap<u32, DecodedSe>,
            bedges: Vec<(NodeId, NodeId, Weight)>,
        }

        impl DecodedIndex {
            /// Decoded size charged to the client's memory meter.
            fn retained_bytes(&self) -> usize {
                let se_bytes: usize = self.ses.values().map(|se| 24 + 4 * se.via.len()).sum();
                48 + self.cells.len() * 8 + se_bytes + self.bedges.len() * 12
            }

            fn ingest(&mut self, payload: &[u8]) -> bool {
                let mut r = PayloadReader::new(payload);
                let Some(MAGIC) = r.read_u8() else {
                    return false;
                };
                let (Some(_seq), Some(_total)) = (r.read_u32(), r.read_u32()) else {
                    return false;
                };
                while let Some(tag) = r.read_u8() {
                    match tag {
                        TAG_GEOM => {
                            let (Some(minx), Some(miny), Some(cw), Some(chh)) =
                                (r.read_f64(), r.read_f64(), r.read_f64(), r.read_f64())
                            else {
                                return false;
                            };
                            let (Some(side), Some(levels)) = (r.read_u16(), r.read_u8()) else {
                                return false;
                            };
                            self.locator = Some(GridLocator {
                                min: spair_roadnet::Point::new(minx, miny),
                                cell_w: cw,
                                cell_h: chh,
                                cols: side as usize,
                                rows: side as usize,
                            });
                            self.levels = levels as usize;
                        }
                        TAG_CELL => {
                            let (Some(cell), Some(off), Some(len)) =
                                (r.read_u16(), r.read_u32(), r.read_u16())
                            else {
                                return false;
                            };
                            self.cells.insert(cell, (off, len));
                        }
                        TAG_SE => {
                            let (Some(id), Some(level), Some(group)) =
                                (r.read_u32(), r.read_u8(), r.read_u16())
                            else {
                                return false;
                            };
                            let (Some(from), Some(to), Some(cost), Some(via_total)) =
                                (r.read_u32(), r.read_u32(), r.read_u64(), r.read_u16())
                            else {
                                return false;
                            };
                            let via = match self.ses.entry(id) {
                                Entry::Occupied(e) => {
                                    // SEPATH records for this id arrived first;
                                    // keep the path, fix the metadata.
                                    e.remove().via
                                }
                                Entry::Vacant(_) => vec![NodeId::MAX; via_total as usize],
                            };
                            self.ses.insert(
                                id,
                                DecodedSe {
                                    level,
                                    group,
                                    from,
                                    to,
                                    cost,
                                    via,
                                },
                            );
                        }
                        TAG_SEPATH => {
                            let (Some(id), Some(start), Some(count)) =
                                (r.read_u32(), r.read_u16(), r.read_u8())
                            else {
                                return false;
                            };
                            let se = self.ses.entry(id).or_insert_with(|| DecodedSe {
                                level: 0,
                                group: 0,
                                from: NodeId::MAX,
                                to: NodeId::MAX,
                                cost: 0,
                                via: Vec::new(),
                            });
                            for k in 0..count as usize {
                                let Some(v) = r.read_u32() else { return false };
                                let idx = start as usize + k;
                                if se.via.len() <= idx {
                                    se.via.resize(idx + 1, NodeId::MAX);
                                }
                                se.via[idx] = v;
                            }
                        }
                        TAG_BEDGE => {
                            let (Some(v), Some(u), Some(wt)) =
                                (r.read_u32(), r.read_u32(), r.read_u32())
                            else {
                                return false;
                            };
                            self.bedges.push((v, u, wt));
                        }
                        _ => return false,
                    }
                }
                true
            }
        }

        /// The HiTi client.
        #[derive(Debug, Clone, Default)]
        pub(super) struct LegacyClient;

        impl LegacyClient {
            /// Receives the entire global index reliably starting at `start`. The
            /// copy length is learned from the first intact packet header (each
            /// packet carries `seq`/`total`); lost packets are re-received in
            /// later cycles (§6.2 — HiTi's index is not replicated, so a loss in
            /// it costs a cycle-long wait, which Figure 14 would show).
            fn receive_index(
                &self,
                ch: &mut dyn Air,
                start: usize,
            ) -> Result<DecodedIndex, QueryError> {
                let len = ch.cycle_len();
                let mut dec = DecodedIndex::default();
                let mut total: Option<usize> = None;
                let mut received: Vec<bool> = Vec::new();
                for _round in 0..MAX_RETRY_CYCLES {
                    ch.sleep_to_offset(start);
                    let mut pos = 0usize;
                    loop {
                        if let Some(t) = total {
                            if pos >= t {
                                break;
                            }
                        }
                        match ch.receive() {
                            Received::Packet(p) => {
                                if p.kind() != PacketKind::Index {
                                    // Overran the copy without learning its
                                    // length (only possible when `total` is still
                                    // unknown, i.e. every index packet was lost).
                                    break;
                                }
                                let mut r = PayloadReader::new(p.payload());
                                if r.read_u8() != Some(MAGIC) {
                                    return Err(QueryError::Aborted(
                                        "channel does not carry a HiTi index",
                                    ));
                                }
                                let (Some(seq), Some(tot)) = (r.read_u32(), r.read_u32()) else {
                                    return Err(QueryError::Aborted("malformed HiTi index header"));
                                };
                                // Bound the header before it sizes or indexes
                                // anything: the copy fits in one cycle, and every
                                // packet of it agrees on its length.
                                let (seq, tot) = (seq as usize, tot as usize);
                                if seq >= tot || tot > len || total.is_some_and(|t| t != tot) {
                                    return Err(QueryError::Aborted(
                                        "inconsistent HiTi index header",
                                    ));
                                }
                                total = Some(tot);
                                received.resize(tot, false);
                                if !received[seq] {
                                    if !dec.ingest(p.payload()) {
                                        return Err(QueryError::Aborted(
                                            "undecodable HiTi index packet",
                                        ));
                                    }
                                    received[seq] = true;
                                }
                                pos = seq + 1;
                            }
                            Received::Lost | Received::Corrupted => pos += 1,
                        }
                    }
                    let Some(t) = total else {
                        continue; // nothing intact this cycle; try the next one
                    };
                    // Targeted retries for the holes.
                    let mut missing: Vec<usize> = (0..t).filter(|&i| !received[i]).collect();
                    let mut rounds = 0;
                    while !missing.is_empty() {
                        rounds += 1;
                        if rounds > MAX_RETRY_CYCLES {
                            return Err(QueryError::Aborted(
                                "HiTi index reception never completed",
                            ));
                        }
                        let mut still = Vec::new();
                        for i in missing {
                            ch.sleep_to_offset((start + i) % len);
                            match ch.receive() {
                                Received::Packet(p) if is_index_packet(p, i, t) => {
                                    if !dec.ingest(p.payload()) {
                                        return Err(QueryError::Aborted(
                                            "undecodable HiTi index packet",
                                        ));
                                    }
                                    received[i] = true;
                                }
                                _ => still.push(i),
                            }
                        }
                        missing = still;
                    }
                    return Ok(dec);
                }
                Err(QueryError::Aborted("HiTi index reception never completed"))
            }
        }

        impl AirClient for LegacyClient {
            fn method_name(&self) -> &'static str {
                "HiTi"
            }

            fn query(&mut self, ch: &mut dyn Air, q: &Query) -> Result<QueryOutcome, QueryError> {
                let mut mem = MemoryMeter::new();
                let mut cpu = CpuMeter::new();
                if let Some(out) = same_node(q) {
                    return Ok(out);
                }

                // 1. Entire index ("the client should receive the entire index").
                let Some(start) = find_next_index(ch, 10_000) else {
                    return Err(QueryError::Aborted("no index on channel"));
                };
                let index = self.receive_index(ch, start)?;
                mem.alloc(index.retained_bytes());
                let Some(locator) = index.locator else {
                    return Err(QueryError::Aborted("HiTi index lacks geometry"));
                };

                // 2. Terminal cells and needed groups.
                let cs = locator.locate(q.source_pt);
                let ct = locator.locate(q.target_pt);
                let side = locator.cols;
                let selected = cpu.time(|| select_groups(cs, ct, side, index.levels.max(1)));

                // 3. Selective tuning: only the two terminal cells' raw data.
                let mut store = ReceivedGraph::new();
                let mut cells_needed = vec![cs];
                if ct != cs {
                    cells_needed.push(ct);
                }
                // Receive in broadcast order to stay within one pass.
                cells_needed
                    .sort_by_key(|&c| index.cells.get(&c).map(|&(off, _)| off).unwrap_or(0));
                for cell in cells_needed {
                    let Some(&(off, len)) = index.cells.get(&cell) else {
                        return Err(QueryError::Aborted("cell offset missing from index"));
                    };
                    let why = "cell data reception never completed";
                    let payloads = receive_segment_reliable(ch, off as usize, len as usize, why)?;
                    for payload in &payloads {
                        if let Some(records) = decode_payload(payload) {
                            for rec in records {
                                mem.alloc(store.ingest(rec));
                            }
                        }
                    }
                }

                // 4. Dijkstra over the hierarchical contraction G'.
                let (res, settled) =
                    cpu.time(|| hierarchical_search(&index, &selected, &store, q.source, q.target));
                mem.alloc(settled * decoded_node_bytes(0));
                finish(ch, &mem, &cpu, settled, res)
            }
        }

        /// Edge of the contraction: either a raw arc or a super-edge id to expand.
        #[derive(Debug, Clone, Copy)]
        enum GEdge {
            Raw(NodeId, Distance),
            Super(NodeId, Distance, u32),
        }

        /// Dijkstra over the hierarchical contraction, expanding super-edges on
        /// the returned path. Returns `(result, settled_count)`.
        fn hierarchical_search(
            index: &DecodedIndex,
            selected: &[(u8, u16)],
            store: &ReceivedGraph,
            s: NodeId,
            t: NodeId,
        ) -> (Option<(Distance, Vec<NodeId>)>, usize) {
            let mut adj: HashMap<NodeId, Vec<GEdge>> = HashMap::new();
            let selset: std::collections::HashSet<(u8, u16)> = selected.iter().copied().collect();
            let mut se_ids: Vec<u32> = index.ses.keys().copied().collect();
            se_ids.sort_unstable();
            for id in se_ids {
                let se = &index.ses[&id];
                if selset.contains(&(se.level, se.group)) {
                    adj.entry(se.from)
                        .or_default()
                        .push(GEdge::Super(se.to, se.cost, id));
                }
            }
            for &(v, u, w) in &index.bedges {
                adj.entry(v).or_default().push(GEdge::Raw(u, w as Distance));
            }
            let mut received: Vec<NodeId> = store.node_ids().collect();
            received.sort_unstable();
            for v in received {
                for &(u, w) in store.out_edges(v) {
                    adj.entry(v).or_default().push(GEdge::Raw(u, w as Distance));
                }
            }

            let mut dist: HashMap<NodeId, Distance> = HashMap::new();
            let mut parent: HashMap<NodeId, (NodeId, Option<u32>)> = HashMap::new();
            let mut heap = MinHeap::new();
            dist.insert(s, 0);
            heap.push(0, s);
            let mut settled = 0usize;
            while let Some(e) = heap.pop() {
                let v = e.item;
                if dist.get(&v) != Some(&e.key) {
                    continue;
                }
                settled += 1;
                if v == t {
                    // Reconstruct, expanding super-edges through their views.
                    let mut path = vec![t];
                    let mut cur = t;
                    while cur != s {
                        let &(p, se) = parent.get(&cur).expect("settled nodes have parents");
                        if let Some(id) = se {
                            let view = &index.ses[&id].via;
                            for &x in view.iter().rev() {
                                path.push(x);
                            }
                        }
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    return (Some((e.key, path)), settled);
                }
                for edge in adj.get(&v).map(Vec::as_slice).unwrap_or(&[]) {
                    let (u, w, se) = match *edge {
                        GEdge::Raw(u, w) => (u, w, None),
                        GEdge::Super(u, w, id) => (u, w, Some(id)),
                    };
                    let cand = e.key + w;
                    if dist.get(&u).is_none_or(|&d| cand < d) {
                        dist.insert(u, cand);
                        parent.insert(u, (v, se));
                        heap.push(cand, u);
                    }
                }
            }
            (None, settled)
        }
    }

    /// Decoder panic audit: every payload — random, truncated, or
    /// bit-flipped — must yield a typed reject or a partial decode,
    /// never a panic.
    mod panic_audit {
        use super::*;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        /// Real cycle payloads, built once (the HiTi build dominates).
        fn real_payloads() -> &'static [Vec<u8>] {
            static PAYLOADS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
            PAYLOADS.get_or_init(|| {
                let (_, program) = setup(2, 4, 2);
                let cycle = program.cycle();
                (0..cycle.len().min(48))
                    .map(|i| cycle.packet(i).payload().to_vec())
                    .collect()
            })
        }

        /// The 12×12 grid world the hostile cycles are cut from.
        fn world() -> &'static (RoadNetwork, HiTiProgram) {
            static WORLD: OnceLock<(RoadNetwork, HiTiProgram)> = OnceLock::new();
            WORLD.get_or_init(|| setup(4, 4, 3))
        }

        /// Decodes one payload into an arena sized for a 64-packet index.
        fn decode(payload: &[u8]) {
            let mut dec = IndexArena::default();
            dec.set_total(64);
            let _ = dec.ingest(payload);
            let _ = dec.finish();
            let _ = dec.retained_bytes();
        }

        /// A well-formed index record.
        #[derive(Debug, Clone)]
        enum Rec {
            Geom(f64, u16, u8),
            Cell(u16, u32, u16),
            Se(u32, u8, u16, NodeId, NodeId, u64, u16),
            SePath(u32, u16, Vec<NodeId>),
            Bedge(NodeId, NodeId, Weight),
        }

        impl Rec {
            fn encode(&self, rec: &mut RecordBuf) {
                rec.clear();
                match self {
                    Rec::Geom(cell_w, side, levels) => {
                        rec.put_u8(TAG_GEOM)
                            .put_f64(0.0)
                            .put_f64(0.0)
                            .put_f64(*cell_w)
                            .put_f64(*cell_w)
                            .put_u16(*side)
                            .put_u8(*levels);
                    }
                    Rec::Cell(cell, off, len) => {
                        rec.put_u8(TAG_CELL)
                            .put_u16(*cell)
                            .put_u32(*off)
                            .put_u16(*len);
                    }
                    &Rec::Se(id, level, group, from, to, cost, via) => {
                        rec.put_u8(TAG_SE)
                            .put_u32(id)
                            .put_u8(level)
                            .put_u16(group)
                            .put_u32(from)
                            .put_u32(to)
                            .put_u64(cost)
                            .put_u16(via);
                    }
                    Rec::SePath(id, start, nodes) => {
                        rec.put_u8(TAG_SEPATH)
                            .put_u32(*id)
                            .put_u16(*start)
                            .put_u8(nodes.len() as u8);
                        for &v in nodes {
                            rec.put_u32(v);
                        }
                    }
                    &Rec::Bedge(v, u, w) => {
                        rec.put_u8(TAG_BEDGE).put_u32(v).put_u32(u).put_u32(w);
                    }
                }
            }
        }

        /// Small ids, or ids at the top of the `u32` wire field.
        fn edge_u32() -> impl Strategy<Value = u32> {
            prop_oneof![0u32..160, (u32::MAX - 160)..=u32::MAX]
        }

        /// Small values, or values at the top of the `u16` wire field.
        fn edge_u16() -> impl Strategy<Value = u16> {
            prop_oneof![0u16..64, (u16::MAX - 64)..=u16::MAX]
        }

        fn record() -> impl Strategy<Value = Rec> {
            prop_oneof![
                (any::<f64>(), edge_u16(), any::<u8>()).prop_map(|(w, s, l)| Rec::Geom(w, s, l)),
                (edge_u16(), 0u32..4096, 0u16..4).prop_map(|(c, o, l)| Rec::Cell(c, o, l)),
                (
                    (edge_u32(), 0u8..4, edge_u16()),
                    (edge_u32(), edge_u32(), any::<u64>(), edge_u16())
                )
                    .prop_map(|((i, l, g), (f, t, c, v))| Rec::Se(i, l, g, f, t, c, v)),
                (
                    edge_u32(),
                    edge_u16(),
                    proptest::collection::vec(edge_u32(), 0..=PATH_CHUNK)
                )
                    .prop_map(|(i, s, n)| Rec::SePath(i, s, n)),
                (edge_u32(), edge_u32(), any::<u32>()).prop_map(|(v, u, w)| Rec::Bedge(v, u, w)),
            ]
        }

        /// Bytes the client's index and G′ arenas hold (capacity, not
        /// length).
        fn arena_bytes(client: &HiTiAirClient) -> usize {
            fn cap<T>(v: &Vec<T>) -> usize {
                v.capacity() * std::mem::size_of::<T>()
            }
            let i = &client.index;
            cap(&i.cells)
                + cap(&i.ses)
                + cap(&i.via)
                + cap(&i.chunks)
                + cap(&i.bedges)
                + cap(&i.bucket_start)
                + cap(&i.bucket_ids)
                + cap(&i.level_base)
                + client.gprime.allocated_bytes()
                + client.scratch.allocated_bytes()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn arbitrary_payloads_never_panic(
                mut payload in proptest::collection::vec(any::<u8>(), 0..200),
                force_magic in any::<bool>(),
            ) {
                if force_magic && !payload.is_empty() {
                    payload[0] = MAGIC;
                }
                decode(&payload);
            }

            #[test]
            fn corrupted_real_payloads_never_panic(
                which in 0usize..48,
                cut in 0usize..256,
                bit in 0usize..(1 << 11),
            ) {
                let payloads = real_payloads();
                let payload = &payloads[which % payloads.len()];
                decode(&payload[..cut.min(payload.len())]);
                let mut flipped = payload.clone();
                let b = bit % (flipped.len() * 8);
                flipped[b / 8] ^= 1 << (b % 8);
                decode(&flipped);
            }

            /// Runs of index headers with arbitrary sequence numbers and
            /// lengths: reception ends in a typed result, never an
            /// out-of-bounds index or a cycle-sized-plus allocation.
            #[test]
            fn arbitrary_index_headers_never_panic(
                headers in proptest::collection::vec((0u32..8, prop_oneof![0u32..8, any::<u32>()]), 1..6),
            ) {
                let cycle = index_cycle(&headers);
                let mut ch = BroadcastChannel::lossless(&cycle);
                let _ = HiTiAirClient::new().receive_index(&mut ch, 0);
            }

            /// Well-formed records whose super-edge, SEPATH and node ids
            /// sit near `u32::MAX` and whose cell ids and grid side sit
            /// near `u16::MAX` replace every `stride`-th packet of a real
            /// index. The client answers with a path between the
            /// terminals or a typed error, its arenas stay within a fixed
            /// multiple of the index bytes, and the same client then
            /// answers the intact cycle exactly.
            #[test]
            fn arbitrary_hostile_ids_never_panic(
                records in proptest::collection::vec(record(), 1..24),
                stride in 1usize..4,
                s in 0u32..144,
                t in 0u32..144,
            ) {
                let (g, program) = world();
                let cycle = program.cycle();
                let mut w = RecordWriter::with_capacity(INDEX_BODY);
                let mut rec = RecordBuf::new();
                for r in &records {
                    r.encode(&mut rec);
                    w.push_record(rec.as_slice());
                }
                let bodies = w.finish();
                let mut hostile = bodies.iter().cycle();
                let packets = (0..cycle.len())
                    .map(|i| {
                        let p = cycle.packet(i);
                        if p.kind() != PacketKind::Index || i % stride != 0 {
                            return p.clone();
                        }
                        let mut payload = p.payload()[..HEADER_LEN].to_vec();
                        payload.extend_from_slice(hostile.next().expect("non-empty"));
                        Packet::new(PacketKind::Index, p.next_index(), payload.into())
                    })
                    .collect();
                let damaged = BroadcastCycle::from_packets(packets);
                let mut client = HiTiAirClient::new();
                let q = Query::for_nodes(g, s, t);
                if let Ok(out) = client.query(&mut BroadcastChannel::lossless(&damaged), &q) {
                    prop_assert_eq!(out.path.first(), Some(&s));
                    prop_assert_eq!(out.path.last(), Some(&t));
                }
                let index_bytes = program.index_packets() * PAYLOAD_CAPACITY;
                prop_assert!(
                    arena_bytes(&client) <= 64 * index_bytes,
                    "arenas hold {} bytes for a {index_bytes}-byte index",
                    arena_bytes(&client)
                );
                let out = client.query(&mut BroadcastChannel::lossless(cycle), &q);
                prop_assert_eq!(out.ok().map(|o| o.distance), dijkstra_distance(g, s, t));
            }
        }
    }

    /// A cycle of bare index packets carrying the `(seq, total)` headers.
    fn index_cycle(headers: &[(u32, u32)]) -> BroadcastCycle {
        let packets = headers
            .iter()
            .map(|&(seq, total)| {
                let mut h = RecordBuf::new();
                h.put_u8(MAGIC).put_u32(seq).put_u32(total);
                Packet::new(PacketKind::Index, 0, Bytes::from(h.as_slice().to_vec()))
            })
            .collect();
        BroadcastCycle::from_packets(packets)
    }

    /// Hostile index headers are typed aborts: a sequence number past
    /// the copy's length, a length beyond the cycle (checked before it
    /// sizes the receive table), and packets that disagree on the length.
    #[test]
    fn hostile_index_headers_abort() {
        for headers in [
            vec![(5, 2), (1, 2)],
            vec![(0, u32::MAX), (1, u32::MAX)],
            vec![(0, 2), (1, 3)],
        ] {
            let cycle = index_cycle(&headers);
            let mut ch = BroadcastChannel::lossless(&cycle);
            assert_eq!(
                HiTiAirClient::new().receive_index(&mut ch, 0).err(),
                Some(QueryError::Aborted("inconsistent HiTi index header")),
                "{headers:?}"
            );
        }
        // The same two packets with consistent headers are received.
        let cycle = index_cycle(&[(0, 2), (1, 2)]);
        let mut ch = BroadcastChannel::lossless(&cycle);
        assert!(HiTiAirClient::new().receive_index(&mut ch, 0).is_ok());
    }

    fn sans_cpu(r: Result<QueryOutcome, QueryError>) -> Result<QueryOutcome, QueryError> {
        r.map(|mut o| {
            o.stats.cpu = Default::default();
            o
        })
    }

    /// Runs every query over lossless, Bernoulli, bursty and
    /// duplicating channels at spread tune-in offsets, asserting that
    /// `client` (reused across all calls) returns exactly what a fresh
    /// oracle session returns: distance, path, every counter but CPU, or
    /// the same error. Returns the sessions in which a super-edge's path
    /// view arrived before its SE record.
    fn assert_matches_oracle(
        client: &mut HiTiAirClient,
        g: &RoadNetwork,
        program: &HiTiProgram,
        queries: &[(NodeId, NodeId)],
        seed: u64,
    ) -> usize {
        let cycle = program.cycle();
        let len = cycle.len();
        let mut sepath_first = 0;
        for (i, &(s, t)) in queries.iter().enumerate() {
            let q = Query::for_nodes(g, s, t);
            let k = seed.wrapping_mul(7919).wrapping_add(i as u64);
            for variant in 0..7 {
                let at = (i * 7919 + variant * len / 7 + seed as usize) % len;
                let channel = || {
                    let loss = match variant {
                        2 | 6 => LossModel::bernoulli(0.1, k),
                        3 => LossModel::bernoulli(0.3, k),
                        4 => LossModel::bursty(0.1, 4.0, k),
                        _ => LossModel::Lossless,
                    };
                    let plan = match variant {
                        5 | 6 => FaultPlan::duplication(0.05, k),
                        _ => FaultPlan::none(),
                    };
                    FaultyChannel::tune_in(cycle, at, loss, plan)
                };
                let want = sans_cpu(oracle::LegacyClient.query(&mut channel(), &q));
                let got = sans_cpu(client.query(&mut channel(), &q));
                assert_eq!(got, want, "{s}->{t}, variant {variant}, offset {at}");
                if s != t
                    && client
                        .index
                        .ses
                        .iter()
                        .any(|se| se.seen && se.declared == 0 && se.via.1 > 0)
                {
                    sepath_first += 1;
                }
            }
        }
        sepath_first
    }

    /// A 12×12 lattice of unit-weight roads: equal-length paths abound,
    /// so any change in G′'s arc order moves paths or settle counts.
    fn unit_lattice() -> RoadNetwork {
        let mut b = spair_roadnet::GraphBuilder::new();
        for y in 0..12 {
            for x in 0..12 {
                b.add_node(spair_roadnet::Point::new(x as f64, y as f64));
            }
        }
        for v in 0..144u32 {
            if v % 12 < 11 {
                b.add_undirected_edge(v, v + 1, 1);
            }
            if v < 132 {
                b.add_undirected_edge(v, v + 12, 1);
            }
        }
        b.finish()
    }

    /// The flat client against the oracle on 12×12 random grids and unit
    /// lattices cut into 2×2, 4×4 and 8×8 cells with one to three levels,
    /// with one client reused across every world, query and channel.
    #[test]
    fn client_matches_oracle_on_grids() {
        let queries = [
            (0, 143),
            (5, 77),
            (130, 2),
            (60, 61),
            (143, 0),
            (13, 14),
            (70, 71),
            (7, 7),
        ];
        let mut client = HiTiAirClient::new();
        let mut sepath_first = 0;
        for (side, levels) in [
            (2, 1),
            (2, 2),
            (4, 1),
            (4, 2),
            (4, 3),
            (8, 1),
            (8, 2),
            (8, 3),
        ] {
            let seed = (side * 10 + levels) as u64;
            for g in [small_grid(12, 12, seed), unit_lattice()] {
                let index = HiTiIndex::build(&g, side, levels);
                let program = HiTiAirServer::new(&g, &index)
                    .build_program()
                    .expect("encode");
                sepath_first += assert_matches_oracle(&mut client, &g, &program, &queries, seed);
            }
        }
        assert!(
            sepath_first > 0,
            "no session saw a path view before its SE record"
        );
    }

    /// Under duplication, a retried index slot can deliver the previous
    /// slot's frame. Filing it in place of the missing packet left that
    /// packet unreceived, so the index decoded without its geometry or a
    /// cell's offset, or not at all. 120 sessions of one reused client on
    /// 40 random 12×12 grids (4×4 cells, 3 levels) under 5% Bernoulli
    /// loss and 5% duplication end in no index-decode abort.
    #[test]
    fn duplicated_frames_never_fill_a_retried_index_slot() {
        let mut client = HiTiAirClient::new();
        let mut aborts = Vec::new();
        for seed in 0..40u64 {
            let g = small_grid(12, 12, seed);
            let index = HiTiIndex::build(&g, 4, 3);
            let program = HiTiAirServer::new(&g, &index)
                .build_program()
                .expect("encode");
            let len = program.cycle().len();
            for i in 0..3u64 {
                let k = spair_broadcast::splitmix64(seed * 3 + i);
                let (s, t) = ((k % 144) as NodeId, ((k >> 16) % 144) as NodeId);
                let mut ch = FaultyChannel::tune_in(
                    program.cycle(),
                    (k >> 32) as usize % len,
                    LossModel::bernoulli(0.05, k),
                    FaultPlan::duplication(0.05, k),
                );
                if let Err(QueryError::Aborted(
                    why @ ("HiTi index lacks geometry"
                    | "cell offset missing from index"
                    | "undecodable HiTi index packet"),
                )) = client.query(&mut ch, &Query::for_nodes(&g, s, t))
                {
                    aborts.push((seed, s, t, why));
                }
            }
        }
        assert!(aborts.is_empty(), "index-decode aborts: {aborts:?}");
    }

    /// The oracle check on the end-to-end benchmark's `whole_cycle` map:
    /// a 6 000-node germany-class network on an 8×8 grid of 3 levels.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "germany-class world; run with --release")]
    fn client_matches_oracle_on_germany_class_world() {
        let g = spair_roadnet::generators::NetworkPreset::Germany
            .config_for_nodes(7, 6_000)
            .generate();
        let index = HiTiIndex::build(&g, 8, 3);
        let program = HiTiAirServer::new(&g, &index)
            .build_program()
            .expect("encode");
        let n = g.num_nodes() as u64;
        let queries: Vec<(NodeId, NodeId)> = (0..24u64)
            .map(|i| {
                let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((x % n) as NodeId, ((x >> 32) % n) as NodeId)
            })
            .collect();
        let mut client = HiTiAirClient::new();
        let sepath_first = assert_matches_oracle(&mut client, &g, &program, &queries, 1);
        assert!(
            sepath_first > 0,
            "no session saw a path view before its SE record"
        );
    }
}
