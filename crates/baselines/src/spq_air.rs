//! SPQ on the air: broadcast program and client (paper §3.2).
//!
//! The paper's verdict for SPQ mirrors ArcFlag/Landmark: selective tuning
//! is hopeless (the quadtree needed next may have just been broadcast),
//! so "the only viable option is that the device listens to the entire
//! cycle and performs processing in the entire network" — and SPQ's cycle
//! is the longest of all methods (Table 1: 52 337 packets on Germany vs
//! Dijkstra's 14 019), because one colored quadtree per node dwarfs the
//! adjacency lists.
//!
//! This module makes that measurable: a real cycle layout
//! `[network data][per-node quadtrees]` and a full client that receives
//! the whole cycle, reassembles every tree blob, and answers queries by
//! repeated color lookups (follow the edge whose color the target's
//! coordinate has in the current node's tree). The lookups read the
//! encoded trees in place, so a query does tree work only for the nodes
//! on its walk, not for the whole network. Per §6.2, adjacency data and
//! quadtrees are kept in separate packets; a missing or malformed tree
//! degrades that node's lookup to "consider all incident edges"
//! (implemented as a local one-step expansion), while lost adjacency
//! data must be re-received.

use crate::spq::{quadrant, Color, Quadtree, SpqIndex, NO_COLOR};
use spair_broadcast::codec::{u16_of, u32_of, EncodeError, PayloadReader, RecordBuf, RecordWriter};
use spair_broadcast::cycle::{CycleBuilder, SegmentKind};
use spair_broadcast::packet::PacketKind;
use spair_broadcast::{Air, BroadcastCycle, CpuMeter, MemoryMeter, PAYLOAD_CAPACITY};
use spair_core::client_common::{finish, ingest, receive_whole_cycle, same_node};
use spair_core::netcodec::{encode_nodes, ReceivedGraph};
use spair_core::query::{AirClient, Query, QueryError, QueryOutcome};
use spair_roadnet::{Distance, NodeId, Point, RoadNetwork};

const TREE_MAGIC: u8 = 0x9B;

/// Bytes of a tree record's header: magic, node, chunk offset, blob
/// length.
const TREE_HEADER: usize = 13;

/// Blob bytes per tree record. A full record (header plus chunk, 109
/// bytes) fits one packet payload ([`PAYLOAD_CAPACITY`]).
const TREE_CHUNK: usize = 96;

const NODE_LEAF: u8 = 0;
const NODE_INTERNAL: u8 = 1;
const NODE_MIXED: u8 = 2;

/// Bytes per point of a mixed leaf: x, y as f64, then the colour.
const MIXED_POINT_BYTES: usize = 17;

/// Serializes a quadtree into a compact preorder byte string. Fails with
/// a typed error if a mixed node holds more points than the u16 count
/// field carries (silent truncation would desynchronize the decoder).
fn encode_tree(tree: &Quadtree, out: &mut Vec<u8>) -> Result<(), EncodeError> {
    match tree {
        Quadtree::Leaf(c) => {
            out.push(NODE_LEAF);
            out.push(*c);
        }
        Quadtree::Internal(children) => {
            out.push(NODE_INTERNAL);
            for ch in children.iter() {
                encode_tree(ch, out)?;
            }
        }
        Quadtree::Mixed(points) => {
            out.push(NODE_MIXED);
            let count = u16_of(points.len(), "spq mixed-node point count")?;
            out.extend_from_slice(&count.to_le_bytes());
            for (p, c) in points {
                out.extend_from_slice(&p.x.to_le_bytes());
                out.extend_from_slice(&p.y.to_le_bytes());
                out.push(*c);
            }
        }
    }
    Ok(())
}

/// Deepest tree the client accepts. Real quadtrees subdivide a bounded
/// box a few dozen times at most; a corrupted blob of nested INTERNAL
/// tags must be a typed reject, not a recursion-driven stack overflow.
const MAX_TREE_DEPTH: usize = 512;

/// Skips the preorder-encoded subtree at `pos` (at tree depth `depth`)
/// without allocating, returning the position just past it, or `None`
/// where the bytes are malformed. A mixed leaf is skipped in O(1)
/// through its point count.
fn skip_tree(bytes: &[u8], pos: usize, depth: usize) -> Option<usize> {
    if depth >= MAX_TREE_DEPTH {
        return None;
    }
    match *bytes.get(pos)? {
        NODE_LEAF => bytes.get(pos + 1).map(|_| pos + 2),
        NODE_INTERNAL => {
            let mut p = pos + 1;
            for _ in 0..4 {
                p = skip_tree(bytes, p, depth + 1)?;
            }
            Some(p)
        }
        NODE_MIXED => {
            let end = pos + 3 + mixed_count(bytes, pos)? * MIXED_POINT_BYTES;
            (end <= bytes.len()).then_some(end)
        }
        _ => None,
    }
}

/// Point count of the mixed leaf whose tag is at `pos`.
fn mixed_count(bytes: &[u8], pos: usize) -> Option<usize> {
    let count = bytes.get(pos + 1..pos + 3)?;
    Some(u16::from_le_bytes([count[0], count[1]]) as usize)
}

fn f64_at(bytes: &[u8], pos: usize) -> f64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[pos..pos + 8]);
    f64::from_le_bytes(b)
}

/// Whether `bytes` starts with a well-formed tree: the whole tree parses
/// within the blob and within [`MAX_TREE_DEPTH`]. Trailing bytes are
/// ignored.
fn tree_is_valid(bytes: &[u8]) -> bool {
    skip_tree(bytes, 0, 0).is_some()
}

/// Colour of `p` in the encoded tree, read in place: the walk descends
/// one quadrant per level, skipping the sibling subtrees before it, with
/// the same mid-point arithmetic as [`Quadtree::color_at`]. On a blob
/// [`tree_is_valid`] accepts it returns exactly what decoding the tree
/// and calling `color_at` would; on other bytes it may return `None`.
fn color_at_encoded(bytes: &[u8], p: Point, bbox: (Point, Point)) -> Option<Color> {
    let (mut pos, mut bbox) = (0usize, bbox);
    for depth in 0..MAX_TREE_DEPTH {
        match *bytes.get(pos)? {
            NODE_LEAF => return bytes.get(pos + 1).copied(),
            NODE_INTERNAL => {
                let (min, max) = bbox;
                let mid = Point::new((min.x + max.x) / 2.0, (min.y + max.y) / 2.0);
                let (qi, sub) = quadrant(p, min, mid, max);
                pos += 1;
                for _ in 0..qi {
                    pos = skip_tree(bytes, pos, depth + 1)?;
                }
                bbox = sub;
            }
            NODE_MIXED => {
                let first = pos + 3;
                let end = first + mixed_count(bytes, pos)? * MIXED_POINT_BYTES;
                if end > bytes.len() {
                    return None;
                }
                let color = (first..end)
                    .step_by(MIXED_POINT_BYTES)
                    .find(|&q| f64_at(bytes, q) == p.x && f64_at(bytes, q + 8) == p.y)
                    .map_or(NO_COLOR, |q| bytes[q + 16]);
                return Some(color);
            }
            _ => return None,
        }
    }
    None
}

/// A fully assembled SPQ broadcast program.
#[derive(Debug)]
pub struct SpqProgram {
    cycle: BroadcastCycle,
    bbox: (Point, Point),
    tree_packets: usize,
}

impl SpqProgram {
    /// The broadcast cycle.
    pub fn cycle(&self) -> &BroadcastCycle {
        &self.cycle
    }

    /// Quadtree bounding box (part of the client bootstrap, like the grid
    /// extent in BGI \[12\]).
    pub fn bbox(&self) -> (Point, Point) {
        self.bbox
    }

    /// Packets of quadtree data.
    pub fn tree_packets(&self) -> usize {
        self.tree_packets
    }
}

/// SPQ server: network data followed by every node's colored quadtree.
pub struct SpqAirServer<'a> {
    g: &'a RoadNetwork,
    index: &'a SpqIndex,
}

impl<'a> SpqAirServer<'a> {
    /// Binds the server to the network and a built SPQ index.
    pub fn new(g: &'a RoadNetwork, index: &'a SpqIndex) -> Self {
        Self { g, index }
    }

    /// Assembles the broadcast program. Fails with a typed
    /// [`EncodeError`] when a quadtree exceeds a wire field of the tree
    /// format (instead of silently truncating a counter).
    pub fn build_program(&self) -> Result<SpqProgram, EncodeError> {
        let nodes: Vec<NodeId> = self.g.node_ids().collect();
        let mut b = CycleBuilder::new();
        b.push_segment(
            SegmentKind::NetworkData,
            PacketKind::Data,
            encode_nodes(self.g, &nodes),
        );

        // Quadtrees, chunked into records: (node, chunk offset, total
        // bytes, chunk bytes...). Records self-describe so the client can
        // reassemble each tree blob across packets in any order.
        let mut w = RecordWriter::new();
        let mut rec = RecordBuf::new();
        let mut blob = Vec::new();
        for v in self.g.node_ids() {
            blob.clear();
            encode_tree(self.index.tree(v), &mut blob)?;
            let total = u32_of(blob.len(), "spq tree blob bytes")?;
            for (ci, chunk) in blob.chunks(TREE_CHUNK).enumerate() {
                rec.clear();
                rec.put_u8(TREE_MAGIC)
                    .put_u32(v)
                    .put_u32(u32_of(ci * TREE_CHUNK, "spq tree chunk offset")?)
                    .put_u32(total)
                    .put_bytes(chunk);
                w.push_record(rec.as_slice());
            }
        }
        let tree_payloads = w.finish();
        let tree_packets = tree_payloads.len();
        b.push_segment(SegmentKind::AuxData, PacketKind::Aux, tree_payloads);

        Ok(SpqProgram {
            cycle: b.finish(),
            bbox: self.g.bounding_box(),
            tree_packets,
        })
    }
}

/// Why a tree record was skipped. A record's chunk length follows from
/// its header, so nothing after a skipped record can be located: the
/// rest of its payload is dropped with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TreeSkip {
    /// The payload ends inside the record.
    Truncated,
    /// The chunk offset is not below `total`, or not on a chunk boundary.
    BadOffset,
    /// The blobs claimed this session exceed what one cycle can carry.
    TooLarge,
    /// The node id exceeds the number of records one cycle can carry.
    NodeOutOfRange,
    /// `total` differs from an earlier record of the same node.
    TotalMismatch,
}

/// One node's blob in the [`TreeArena`]; current only while `stamp`
/// equals the arena's.
#[derive(Debug, Clone, Copy, Default)]
struct TreeSlot {
    stamp: u32,
    /// Blob start in [`TreeArena::bytes`].
    start: usize,
    /// Blob length, the records' `total`.
    total: usize,
    /// The blob's first flag in [`TreeArena::chunks`].
    chunk0: usize,
    /// Distinct chunks received.
    have: usize,
    /// Whether the complete blob parses; `None` until first looked up.
    valid: Option<bool>,
}

impl TreeSlot {
    fn complete(&self) -> bool {
        self.have == self.total.div_ceil(TREE_CHUNK)
    }
}

/// Tree reassembly for one session, reused across sessions: slots are
/// indexed by node and reset by bumping the session stamp, and the blob
/// bytes and chunk flags of the session's trees sit back to back in two
/// buffers that keep their capacity.
#[derive(Debug, Clone, Default)]
struct TreeArena {
    stamp: u32,
    slots: Vec<TreeSlot>,
    bytes: Vec<u8>,
    chunks: Vec<bool>,
    /// Blob bytes one cycle can carry: the session's cap on `bytes`.
    max_bytes: usize,
    /// Records one cycle can carry: no honest node id reaches it.
    max_nodes: usize,
}

impl TreeArena {
    /// Starts a session on a cycle of `cycle_len` packets.
    fn begin(&mut self, cycle_len: usize) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.slots.iter_mut().for_each(|s| s.stamp = 0);
            self.stamp = 1;
        }
        self.bytes.clear();
        self.chunks.clear();
        self.max_bytes = cycle_len.saturating_mul(PAYLOAD_CAPACITY);
        self.max_nodes = cycle_len.saturating_mul(PAYLOAD_CAPACITY / TREE_HEADER);
    }

    /// Files the record that follows a `TREE_MAGIC` byte in `r`. Returns
    /// the bytes newly retained: a blob's `total`, charged when its first
    /// record arrives this session. A chunk already held is not counted
    /// again, so a duplicate cannot complete a blob with a hole.
    fn ingest_record(&mut self, r: &mut PayloadReader<'_>) -> Result<usize, TreeSkip> {
        let (Some(v), Some(off), Some(total)) = (r.read_u32(), r.read_u32(), r.read_u32()) else {
            return Err(TreeSkip::Truncated);
        };
        let (v, off, total) = (v as usize, off as usize, total as usize);
        if off >= total || off % TREE_CHUNK != 0 {
            return Err(TreeSkip::BadOffset);
        }
        if v >= self.max_nodes {
            return Err(TreeSkip::NodeOutOfRange);
        }
        let chunk = r
            .take((total - off).min(TREE_CHUNK))
            .ok_or(TreeSkip::Truncated)?;
        let stamp = self.stamp;
        let fresh = self.slots.get(v).is_none_or(|s| s.stamp != stamp);
        if fresh {
            if total > self.max_bytes - self.bytes.len() {
                return Err(TreeSkip::TooLarge);
            }
            if v >= self.slots.len() {
                self.slots.resize(v + 1, TreeSlot::default());
            }
            self.slots[v] = TreeSlot {
                stamp,
                start: self.bytes.len(),
                total,
                chunk0: self.chunks.len(),
                have: 0,
                valid: None,
            };
            self.bytes.resize(self.bytes.len() + total, 0);
            self.chunks
                .resize(self.chunks.len() + total.div_ceil(TREE_CHUNK), false);
        }
        let slot = &mut self.slots[v];
        if slot.total != total {
            return Err(TreeSkip::TotalMismatch);
        }
        let seen = &mut self.chunks[slot.chunk0 + off / TREE_CHUNK];
        if !*seen {
            *seen = true;
            slot.have += 1;
            self.bytes[slot.start + off..][..chunk.len()].copy_from_slice(chunk);
        }
        Ok(if fresh { total } else { 0 })
    }

    /// Colour of `p` in `v`'s tree, or `None` when this session holds no
    /// complete, well-formed tree for `v`. Each blob is validated on its
    /// first lookup of the session.
    fn color(&mut self, v: NodeId, p: Point, bbox: (Point, Point)) -> Option<Color> {
        let stamp = self.stamp;
        let slot = self
            .slots
            .get_mut(v as usize)
            .filter(|s| s.stamp == stamp && s.complete())?;
        let blob = &self.bytes[slot.start..slot.start + slot.total];
        if !*slot.valid.get_or_insert_with(|| tree_is_valid(blob)) {
            return None;
        }
        color_at_encoded(blob, p, bbox)
    }
}

/// The SPQ client.
///
/// The client owns its received-network store and tree arena, reused
/// across queries like [`crate::dj::DjClient`]'s store.
#[derive(Debug, Clone)]
pub struct SpqClient {
    bbox: (Point, Point),
    store: ReceivedGraph,
    trees: TreeArena,
}

impl SpqClient {
    /// New client; the quadtree bounding box is assumed known (broadcast
    /// once in the program preamble in a real deployment).
    pub fn new(bbox: (Point, Point)) -> Self {
        Self {
            bbox,
            store: ReceivedGraph::new(),
            trees: TreeArena::default(),
        }
    }
}

impl AirClient for SpqClient {
    fn method_name(&self) -> &'static str {
        "SPQ"
    }

    fn query(&mut self, ch: &mut dyn Air, q: &Query) -> Result<QueryOutcome, QueryError> {
        let mut mem = MemoryMeter::new();
        let mut cpu = CpuMeter::new();
        if let Some(out) = same_node(q) {
            return Ok(out);
        }

        // Whole-cycle reception (§3.2): the adjacency data and every tree
        // blob are reassembled; no tree is decoded.
        let (store, trees) = (&mut self.store, &mut self.trees);
        store.clear();
        trees.begin(ch.cycle_len());
        receive_whole_cycle(ch, |p| match p.kind() {
            PacketKind::Data => {
                ingest(store, &mut mem, p);
            }
            PacketKind::Aux => {
                let mut r = PayloadReader::new(p.payload());
                while let Some(TREE_MAGIC) = r.read_u8() {
                    match trees.ingest_record(&mut r) {
                        Ok(charged) => mem.alloc(charged),
                        Err(_) => return,
                    }
                }
            }
            _ => {}
        })
        .map_err(|_| QueryError::Aborted("SPQ whole-cycle reception never completed"))?;

        // Color walk: at each node, the target coordinate's color names
        // the incident edge the shortest path leaves through. A missing
        // or malformed tree degrades to a one-step local choice over all
        // incident edges, per §6.2.
        let (target_pt, bbox) = (q.target_pt, self.bbox);
        let walk = cpu.time(|| -> Option<(Distance, Vec<NodeId>)> {
            let mut path = vec![q.source];
            let mut distance: Distance = 0;
            let mut cur = q.source;
            for _ in 0..store.num_nodes().max(1) {
                if cur == q.target {
                    return Some((distance, path));
                }
                let edges = store.out_edges(cur);
                let next = match trees.color(cur, target_pt, bbox) {
                    Some(NO_COLOR) => return None,
                    Some(color) => edges.get(color as usize).copied(),
                    None => {
                        // Degraded: all incident edges must be considered
                        // (§6.2); pick the neighbour whose own tree/walk
                        // continues — locally, the Euclidean-nearest to
                        // the target, the standard greedy fallback.
                        edges
                            .iter()
                            .filter_map(|&(u, w)| {
                                store.point(u).map(|p| (u, w, p.euclidean(&target_pt)))
                            })
                            .min_by(|a, b| a.2.total_cmp(&b.2))
                            .map(|(u, w, _)| (u, w))
                    }
                };
                let (u, w) = next?;
                distance += w as Distance;
                path.push(u);
                cur = u;
            }
            None
        });

        let walked = walk.as_ref().map_or(0, |(_, p)| p.len());
        finish(ch, &mem, &cpu, walked, walk)
    }
}

/// The eager client this module used to ship, kept verbatim as the
/// differential oracle: it decodes every node's tree into a boxed
/// [`Quadtree`] each session, then walks the decoded trees.
#[cfg(test)]
mod oracle {
    use super::*;
    use spair_core::netcodec::decode_payload;
    use std::collections::HashMap;

    /// Parses one preorder-encoded quadtree, advancing `pos`.
    pub(super) fn decode_tree(bytes: &[u8], pos: &mut usize) -> Option<Quadtree> {
        decode_tree_at(bytes, pos, 0)
    }

    fn decode_tree_at(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Quadtree> {
        if depth >= MAX_TREE_DEPTH {
            return None;
        }
        let tag = *bytes.get(*pos)?;
        *pos += 1;
        match tag {
            NODE_LEAF => {
                let c = *bytes.get(*pos)?;
                *pos += 1;
                Some(Quadtree::Leaf(c))
            }
            NODE_INTERNAL => {
                let mut children = Vec::with_capacity(4);
                for _ in 0..4 {
                    children.push(decode_tree_at(bytes, pos, depth + 1)?);
                }
                let children: [Quadtree; 4] = children.try_into().ok()?;
                Some(Quadtree::Internal(Box::new(children)))
            }
            NODE_MIXED => {
                let count =
                    u16::from_le_bytes(bytes.get(*pos..*pos + 2)?.try_into().ok()?) as usize;
                *pos += 2;
                let mut points = Vec::with_capacity(count);
                for _ in 0..count {
                    let x = f64::from_le_bytes(bytes.get(*pos..*pos + 8)?.try_into().ok()?);
                    let y = f64::from_le_bytes(bytes.get(*pos + 8..*pos + 16)?.try_into().ok()?);
                    let c = *bytes.get(*pos + 16)?;
                    *pos += 17;
                    points.push((Point::new(x, y), c));
                }
                Some(Quadtree::Mixed(points))
            }
            _ => None,
        }
    }

    /// Reassembly buffer for one node's tree blob.
    #[derive(Debug, Default)]
    struct TreeBuf {
        bytes: Vec<u8>,
        have: usize,
    }

    /// The eager SPQ client.
    #[derive(Debug, Clone)]
    pub(super) struct EagerSpqClient {
        bbox: (Point, Point),
    }

    impl EagerSpqClient {
        /// New client; the quadtree bounding box is assumed known (broadcast
        /// once in the program preamble in a real deployment).
        pub(super) fn new(bbox: (Point, Point)) -> Self {
            Self { bbox }
        }
    }

    impl AirClient for EagerSpqClient {
        fn method_name(&self) -> &'static str {
            "SPQ"
        }

        fn query(&mut self, ch: &mut dyn Air, q: &Query) -> Result<QueryOutcome, QueryError> {
            let mut mem = MemoryMeter::new();
            let mut cpu = CpuMeter::new();
            if let Some(out) = same_node(q) {
                return Ok(out);
            }

            // Whole-cycle reception (§3.2): adjacency data must be complete;
            // lost tree packets degrade, so they are not re-received.
            let mut store = ReceivedGraph::new();
            let mut bufs: HashMap<NodeId, TreeBuf> = HashMap::new();
            receive_whole_cycle(ch, |p| match p.kind() {
                PacketKind::Data => {
                    if let Some(records) = decode_payload(p.payload()) {
                        for rec in records {
                            mem.alloc(store.ingest(rec));
                        }
                    }
                }
                PacketKind::Aux => {
                    let mut r = PayloadReader::new(p.payload());
                    while let Some(TREE_MAGIC) = r.read_u8() {
                        let (Some(v), Some(off), Some(total)) =
                            (r.read_u32(), r.read_u32(), r.read_u32())
                        else {
                            return;
                        };
                        let chunk_len = (total as usize - off as usize).min(96);
                        let Some(chunk) = r.take(chunk_len) else {
                            return;
                        };
                        let buf = bufs.entry(v).or_default();
                        if buf.bytes.len() < total as usize {
                            mem.alloc(total as usize - buf.bytes.len());
                            buf.bytes.resize(total as usize, 0);
                        }
                        buf.bytes[off as usize..off as usize + chunk.len()].copy_from_slice(chunk);
                        buf.have += chunk.len();
                    }
                }
                _ => {}
            })
            .map_err(|_| QueryError::Aborted("SPQ whole-cycle reception never completed"))?;

            // Decode the trees (complete blobs only; incomplete = degraded).
            let trees: HashMap<NodeId, Quadtree> = cpu.time(|| {
                bufs.iter()
                    .filter(|(_, b)| b.have >= b.bytes.len())
                    .filter_map(|(&v, b)| {
                        let mut pos = 0usize;
                        decode_tree(&b.bytes, &mut pos).map(|t| (v, t))
                    })
                    .collect()
            });

            // Color walk: at each node, the target coordinate's color names
            // the incident edge the shortest path leaves through. A missing
            // tree (loss) degrades to a one-step local choice over all
            // incident edges, per §6.2.
            let target_pt = q.target_pt;
            let walk = cpu.time(|| -> Option<(Distance, Vec<NodeId>)> {
                let mut path = vec![q.source];
                let mut distance: Distance = 0;
                let mut cur = q.source;
                for _ in 0..store.num_nodes().max(1) {
                    if cur == q.target {
                        return Some((distance, path));
                    }
                    let edges = store.out_edges(cur);
                    let next = match trees.get(&cur) {
                        Some(tree) => {
                            let color = tree.color_at(target_pt, self.bbox);
                            if color == NO_COLOR {
                                return None;
                            }
                            edges.get(color as usize).copied()
                        }
                        None => {
                            // Degraded: all incident edges must be considered
                            // (§6.2); pick the neighbour whose own tree/walk
                            // continues — locally, the Euclidean-nearest to
                            // the target, the standard greedy fallback.
                            edges
                                .iter()
                                .filter_map(|&(u, w)| {
                                    store.point(u).map(|p| (u, w, p.euclidean(&target_pt)))
                                })
                                .min_by(|a, b| a.2.total_cmp(&b.2))
                                .map(|(u, w, _)| (u, w))
                        }
                    };
                    let (u, w) = next?;
                    distance += w as Distance;
                    path.push(u);
                    cur = u;
                }
                None
            });

            let walked = walk.as_ref().map_or(0, |(_, p)| p.len());
            finish(ch, &mem, &cpu, walked, walk)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spair_broadcast::{BroadcastChannel, LossModel, Packet};
    use spair_roadnet::dijkstra_distance;
    use spair_roadnet::generators::small_grid;
    use std::sync::OnceLock;

    fn setup(seed: u64) -> (RoadNetwork, SpqProgram) {
        let g = small_grid(8, 8, seed);
        let index = SpqIndex::build(&g);
        let program = SpqAirServer::new(&g, &index)
            .build_program()
            .expect("encode");
        (g, program)
    }

    /// The encoded cycle, pinned byte for byte on a seeded grid: its
    /// packet count and an FNV-1a digest over every payload.
    #[test]
    fn cycle_bytes_are_pinned() {
        let g = small_grid(12, 12, 5);
        let index = SpqIndex::build(&g);
        let program = SpqAirServer::new(&g, &index)
            .build_program()
            .expect("encode");
        let cycle = program.cycle();
        let mut digest = spair_roadnet::certify::Fnv1a::default();
        for i in 0..cycle.len() {
            digest.write(cycle.packet(i).payload());
        }
        assert_eq!((cycle.len(), digest.finish()), (197, 0x3bfc_41c9_c002_2374));
    }

    #[test]
    fn tree_codec_round_trips() {
        let g = small_grid(7, 7, 3);
        let index = SpqIndex::build(&g);
        for v in g.node_ids() {
            let mut blob = Vec::new();
            encode_tree(index.tree(v), &mut blob).expect("encode");
            let mut pos = 0usize;
            let tree = oracle::decode_tree(&blob, &mut pos).unwrap();
            assert_eq!(pos, blob.len(), "node {v}: trailing bytes");
            // Every node coordinate must get the same color back.
            let bbox = g.bounding_box();
            for u in g.node_ids() {
                assert_eq!(
                    tree.color_at(g.point(u), bbox),
                    index.tree(v).color_at(g.point(u), bbox),
                    "node {v}, point of {u}"
                );
            }
        }
    }

    #[test]
    fn matches_dijkstra_on_many_queries() {
        let (g, program) = setup(2);
        let mut client = SpqClient::new(program.bbox());
        for (i, &(s, t)) in [(0u32, 63u32), (5, 42), (60, 1), (30, 31)]
            .iter()
            .enumerate()
        {
            let mut ch = BroadcastChannel::tune_in(program.cycle(), i * 19, LossModel::Lossless);
            let q = Query::for_nodes(&g, s, t);
            let out = client.query(&mut ch, &q).unwrap();
            assert_eq!(Some(out.distance), dijkstra_distance(&g, s, t), "{s}->{t}");
            assert_eq!(out.path.first(), Some(&s));
            assert_eq!(out.path.last(), Some(&t));
        }
    }

    #[test]
    fn tuning_time_is_the_whole_cycle() {
        let (g, program) = setup(4);
        let mut client = SpqClient::new(program.bbox());
        let mut ch = BroadcastChannel::tune_in(program.cycle(), 100, LossModel::Lossless);
        let out = client.query(&mut ch, &Query::for_nodes(&g, 0, 63)).unwrap();
        assert_eq!(out.stats.tuning_packets as usize, program.cycle().len());
    }

    #[test]
    fn cycle_dwarfs_dijkstras() {
        let (g, program) = setup(6);
        let dj = crate::dj::DjServer::new(&g).build_program();
        assert!(
            program.cycle().len() > 2 * dj.cycle().len(),
            "SPQ {} vs DJ {}",
            program.cycle().len(),
            dj.cycle().len()
        );
        assert_eq!(
            program.cycle().len(),
            dj.cycle().len() + program.tree_packets()
        );
    }

    #[test]
    fn walk_path_is_a_real_path() {
        let (g, program) = setup(8);
        let mut client = SpqClient::new(program.bbox());
        let mut ch = BroadcastChannel::lossless(program.cycle());
        let out = client.query(&mut ch, &Query::for_nodes(&g, 9, 54)).unwrap();
        let mut acc: Distance = 0;
        for w in out.path.windows(2) {
            acc += g.weight_between(w[0], w[1]).expect("consecutive edge") as Distance;
        }
        assert_eq!(acc, out.distance);
    }

    #[test]
    fn adjacency_survives_loss_with_degraded_trees() {
        // Losses hit tree packets too; adjacency is re-received, trees
        // degrade — the walk may detour but must still terminate at the
        // target with a real path.
        let (g, program) = setup(10);
        let mut client = SpqClient::new(program.bbox());
        for seed in 0..4 {
            let mut ch =
                BroadcastChannel::tune_in(program.cycle(), 3, LossModel::bernoulli(0.02, seed));
            match client.query(&mut ch, &Query::for_nodes(&g, 0, 63)) {
                Ok(out) => {
                    assert_eq!(out.path.last(), Some(&63));
                    let want = dijkstra_distance(&g, 0, 63).unwrap();
                    assert!(out.distance >= want, "cannot beat the optimum");
                }
                // A degraded greedy walk can dead-end; that is the
                // documented §6.2 trade-off, not an error in the client.
                Err(QueryError::Unreachable) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }

    #[test]
    fn same_node_query_is_trivial() {
        let (g, program) = setup(12);
        let mut client = SpqClient::new(program.bbox());
        let mut ch = BroadcastChannel::lossless(program.cycle());
        let out = client.query(&mut ch, &Query::for_nodes(&g, 5, 5)).unwrap();
        assert_eq!(out.distance, 0);
    }

    /// Encoder boundary: a mixed quadtree leaf holds its point count in
    /// a u16 wire field — 65 535 points encode, 65 536 is a typed
    /// error, not a silent wrap.
    #[test]
    fn mixed_leaf_point_count_boundary() {
        let at_cap = Quadtree::Mixed(vec![(Point::new(0.0, 0.0), 1); u16::MAX as usize]);
        let mut blob = Vec::new();
        assert!(encode_tree(&at_cap, &mut blob).is_ok());
        let over = Quadtree::Mixed(vec![(Point::new(0.0, 0.0), 1); u16::MAX as usize + 1]);
        let mut blob = Vec::new();
        assert!(encode_tree(&over, &mut blob).is_err());
    }

    /// One tree record: header plus `chunk`.
    fn record(v: u32, off: u32, total: u32, chunk: &[u8]) -> Vec<u8> {
        let mut rec = vec![TREE_MAGIC];
        for field in [v, off, total] {
            rec.extend_from_slice(&field.to_le_bytes());
        }
        rec.extend_from_slice(chunk);
        rec
    }

    /// Feeds one record (magic included) to `arena`'s current session.
    fn ingest(arena: &mut TreeArena, rec: &[u8]) -> Result<usize, TreeSkip> {
        let mut r = PayloadReader::new(rec);
        assert_eq!(r.read_u8(), Some(TREE_MAGIC));
        arena.ingest_record(&mut r)
    }

    /// Inconsistent or oversized headers are typed skips, rejected before
    /// anything is allocated.
    #[test]
    fn hostile_record_headers_are_typed_skips() {
        let mut arena = TreeArena::default();
        arena.begin(100);
        let cases = [
            (record(0, 200, 100, &[]), TreeSkip::BadOffset),
            (record(0, 100, 100, &[]), TreeSkip::BadOffset),
            (record(0, 5, 100, &[0; 95]), TreeSkip::BadOffset),
            (record(0, 0, u32::MAX, &[0; TREE_CHUNK]), TreeSkip::TooLarge),
            (record(u32::MAX, 0, 2, &[0, 0]), TreeSkip::NodeOutOfRange),
            (record(0, 0, 50, &[0; 49]), TreeSkip::Truncated),
            (vec![TREE_MAGIC, 0, 0], TreeSkip::Truncated),
        ];
        for (rec, want) in cases {
            assert_eq!(ingest(&mut arena, &rec), Err(want));
        }
        assert_eq!(arena.bytes.capacity(), 0);
        assert_eq!(arena.slots.capacity(), 0);
        // The cap is cumulative: blobs together never exceed a cycle.
        let cap = (100 * PAYLOAD_CAPACITY) as u32;
        assert_eq!(
            ingest(&mut arena, &record(1, 0, cap, &[0; TREE_CHUNK])),
            Ok(cap as usize)
        );
        assert_eq!(
            ingest(&mut arena, &record(2, 0, 2, &[0, 0])),
            Err(TreeSkip::TooLarge)
        );
        assert_eq!(
            ingest(&mut arena, &record(1, 0, 2, &[0, 0])),
            Err(TreeSkip::TotalMismatch)
        );
    }

    /// Completeness counts distinct chunks: a repeated chunk cannot pass
    /// a blob with a hole as complete, and is charged once.
    #[test]
    fn duplicate_chunks_do_not_complete_a_blob() {
        let mut blob = Vec::new();
        encode_tree(
            &Quadtree::Mixed(vec![(Point::new(1.0, 2.0), 3); 10]),
            &mut blob,
        )
        .expect("encode");
        assert_eq!(blob.len().div_ceil(TREE_CHUNK), 2);
        let total = blob.len() as u32;
        let (first, second) = blob.split_at(TREE_CHUNK);
        let bbox = (Point::new(0.0, 0.0), Point::new(4.0, 4.0));
        let mut arena = TreeArena::default();
        arena.begin(100);
        let rec = record(7, 0, total, first);
        assert_eq!(ingest(&mut arena, &rec), Ok(blob.len()));
        assert_eq!(ingest(&mut arena, &rec), Ok(0));
        assert_eq!(arena.color(7, Point::new(1.0, 2.0), bbox), None);
        let rec = record(7, TREE_CHUNK as u32, total, second);
        assert_eq!(ingest(&mut arena, &rec), Ok(0));
        assert_eq!(arena.color(7, Point::new(1.0, 2.0), bbox), Some(3));
        // A new session forgets the blob without clearing the slots.
        arena.begin(100);
        assert_eq!(arena.color(7, Point::new(1.0, 2.0), bbox), None);
    }

    /// The arena's stamp wraps without resurrecting old slots.
    #[test]
    fn stamp_wrap_resets_slots() {
        let mut arena = TreeArena::default();
        arena.begin(100);
        assert_eq!(ingest(&mut arena, &record(3, 0, 2, &[NODE_LEAF, 5])), Ok(2));
        let bbox = (Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        assert_eq!(arena.color(3, Point::new(0.5, 0.5), bbox), Some(5));
        arena.stamp = u32::MAX;
        arena.slots[3].stamp = 1;
        arena.begin(100);
        assert_eq!(arena.stamp, 1);
        assert_eq!(arena.color(3, Point::new(0.5, 0.5), bbox), None);
    }

    /// Outcome with the wall-clock CPU field zeroed, for comparisons.
    fn sans_cpu(r: Result<QueryOutcome, QueryError>) -> Result<QueryOutcome, QueryError> {
        r.map(|mut o| {
            o.stats.cpu = Default::default();
            o
        })
    }

    /// Real encoded trees, built once.
    fn real_blobs() -> &'static [Vec<u8>] {
        static BLOBS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
        BLOBS.get_or_init(|| {
            let g = small_grid(7, 7, 5);
            let index = SpqIndex::build(&g);
            g.node_ids()
                .take(24)
                .map(|v| {
                    let mut blob = Vec::new();
                    encode_tree(index.tree(v), &mut blob).expect("encode");
                    blob
                })
                .collect()
        })
    }

    /// The bounding box of [`real_blobs`]' network.
    fn real_bbox() -> (Point, Point) {
        small_grid(7, 7, 5).bounding_box()
    }

    /// Three small worlds with their SPQ programs, built once.
    fn worlds() -> &'static [(RoadNetwork, SpqProgram)] {
        static WORLDS: OnceLock<Vec<(RoadNetwork, SpqProgram)>> = OnceLock::new();
        WORLDS.get_or_init(|| [21, 22, 23].into_iter().map(setup).collect())
    }

    /// `program`'s cycle with the tree records of every `stride`-th aux
    /// packet damaged: dropped (the payload emptied) when `drop`, else
    /// one bit flipped inside the first record's chunk. Headers stay
    /// intact, so the oracle's reassembly stays within its assumptions.
    fn damaged(program: &SpqProgram, stride: usize, drop: bool, bit: usize) -> BroadcastCycle {
        let cycle = program.cycle();
        let mut aux = 0;
        let packets = (0..cycle.len())
            .map(|i| {
                let p = cycle.packet(i);
                if p.kind() != PacketKind::Aux {
                    return p.clone();
                }
                aux += 1;
                if aux % stride != 0 {
                    return p.clone();
                }
                let mut payload = if drop {
                    Vec::new()
                } else {
                    p.payload().to_vec()
                };
                if !drop {
                    let field = |at: usize| {
                        u32::from_le_bytes(payload[at..at + 4].try_into().expect("4 bytes"))
                    };
                    let chunk = (field(9) - field(5)) as usize;
                    let b = bit % (chunk.min(TREE_CHUNK) * 8);
                    payload[TREE_HEADER + b / 8] ^= 1 << (b % 8);
                }
                Packet::new(PacketKind::Aux, p.next_index(), payload.into())
            })
            .collect();
        BroadcastCycle::from_packets(packets)
    }

    /// Arbitrary quadtrees over the 4×4 box, up to six levels deep,
    /// with mixed leaves on a coarse lattice so that lookups hit their
    /// points.
    struct ArbTree;

    impl Strategy for ArbTree {
        type Value = Quadtree;

        fn generate(&self, g: &mut proptest::Gen) -> Quadtree {
            arb_tree(g, 0)
        }
    }

    fn arb_tree(g: &mut proptest::Gen, depth: usize) -> Quadtree {
        let kind = g.below(if depth < 6 { 4 } else { 2 });
        let mut small = |n: u64| g.below(n) as u8;
        match kind {
            0 => Quadtree::Leaf(small(256)),
            1 => Quadtree::Mixed(
                (0..small(6))
                    .map(|_| {
                        let p = Point::new(f64::from(small(5)), f64::from(small(5)));
                        (p, small(256))
                    })
                    .collect(),
            ),
            _ => Quadtree::Internal(Box::new(std::array::from_fn(|_| arb_tree(g, depth + 1)))),
        }
    }

    /// The byte lookup against the oracle on one blob: validity agrees
    /// with `decode_tree`, and on a valid blob the colour of `p` agrees
    /// with the decoded tree's.
    fn check_lookup(blob: &[u8], p: Point, bbox: (Point, Point)) -> Result<(), TestCaseError> {
        let decoded = oracle::decode_tree(blob, &mut 0);
        prop_assert_eq!(tree_is_valid(blob), decoded.is_some());
        let byte_color = color_at_encoded(blob, p, bbox);
        if let Some(tree) = decoded {
            prop_assert_eq!(byte_color, Some(tree.color_at(p, bbox)));
        }
        Ok(())
    }

    /// Differential tests against the eager oracle: the byte lookup on
    /// real, arbitrary, truncated and bit-flipped blobs, and the whole
    /// client — fresh and reused — on intact and damaged cycles under
    /// lossless and Bernoulli reception.
    mod differential {
        use super::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn lookup_matches_oracle_on_arbitrary_trees(
                tree in ArbTree,
                x in 0u8..5,
                y in 0u8..5,
                fx in 0.0f64..4.0,
                fy in 0.0f64..4.0,
                cut in any::<usize>(),
                bit in any::<usize>(),
            ) {
                let mut blob = Vec::new();
                encode_tree(&tree, &mut blob).expect("encode");
                let bbox = (Point::new(0.0, 0.0), Point::new(4.0, 4.0));
                prop_assert!(tree_is_valid(&blob));
                let mut flipped = blob.clone();
                let b = bit % (flipped.len() * 8);
                flipped[b / 8] ^= 1 << (b % 8);
                for p in [Point::new(f64::from(x), f64::from(y)), Point::new(fx, fy)] {
                    prop_assert_eq!(color_at_encoded(&blob, p, bbox), Some(tree.color_at(p, bbox)));
                    check_lookup(&blob[..cut % blob.len()], p, bbox)?;
                    check_lookup(&flipped, p, bbox)?;
                }
            }

            #[test]
            fn lookup_matches_oracle_on_real_and_corrupted_blobs(
                which in 0usize..24,
                cut in 0usize..256,
                bit in 0usize..(1 << 11),
                node in 0u32..49,
            ) {
                let (blobs, bbox) = (real_blobs(), real_bbox());
                let p = small_grid(7, 7, 5).point(node);
                let blob = &blobs[which % blobs.len()];
                check_lookup(blob, p, bbox)?;
                check_lookup(&blob[..cut.min(blob.len())], p, bbox)?;
                let mut flipped = blob.clone();
                let b = bit % (flipped.len() * 8);
                flipped[b / 8] ^= 1 << (b % 8);
                check_lookup(&flipped, p, bbox)?;
            }

            #[test]
            fn lookup_matches_oracle_on_arbitrary_bytes(
                blob in proptest::collection::vec(0u8..4, 0..200),
                fx in 0.0f64..4.0,
                fy in 0.0f64..4.0,
            ) {
                let bbox = (Point::new(0.0, 0.0), Point::new(4.0, 4.0));
                check_lookup(&blob, Point::new(fx, fy), bbox)?;
            }

            #[test]
            fn client_matches_oracle(
                world in 0usize..3,
                pairs in proptest::collection::vec((0u32..64, 0u32..64, 0usize..4096), 1..6),
                loss in prop_oneof![Just(0.0), 0.01f64..0.3],
                seed in any::<u64>(),
                damage in prop_oneof![Just(None), (1usize..6, any::<bool>(), any::<usize>()).prop_map(Some)],
            ) {
                let (g, program) = &worlds()[world];
                let cycle = match damage {
                    Some((stride, drop, bit)) => damaged(program, stride, drop, bit),
                    None => program.cycle().clone(),
                };
                let loss_model = |i: usize| {
                    if loss == 0.0 {
                        LossModel::Lossless
                    } else {
                        LossModel::bernoulli(loss, seed.wrapping_add(i as u64))
                    }
                };
                let mut reused = SpqClient::new(program.bbox());
                for (i, &(s, t, at)) in pairs.iter().enumerate() {
                    let q = Query::for_nodes(g, s, t);
                    let run = |client: &mut dyn AirClient| {
                        let mut ch = BroadcastChannel::tune_in(&cycle, at % cycle.len(), loss_model(i));
                        sans_cpu(client.query(&mut ch, &q))
                    };
                    let want = run(&mut oracle::EagerSpqClient::new(program.bbox()));
                    prop_assert_eq!(&run(&mut reused), &want, "reused client, {}->{}", s, t);
                    prop_assert_eq!(&run(&mut SpqClient::new(program.bbox())), &want, "fresh client, {}->{}", s, t);
                }
            }
        }
    }

    /// Panic audit: every blob — random, truncated, or bit-flipped — and
    /// every aux payload a channel can carry must give a typed result,
    /// never a panic (the depth cap turns nested-INTERNAL bombs into
    /// typed rejects; the record checks turn hostile headers into skips).
    mod panic_audit {
        use super::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn arbitrary_blobs_never_panic(
                blob in proptest::collection::vec(any::<u8>(), 0..200),
                fx in -1.0f64..5.0,
                fy in -1.0f64..5.0,
            ) {
                let bbox = (Point::new(0.0, 0.0), Point::new(4.0, 4.0));
                let _ = tree_is_valid(&blob);
                let _ = color_at_encoded(&blob, Point::new(fx, fy), bbox);
            }

            /// A blob of nothing but INTERNAL tags is the recursion
            /// bomb; the depth cap must reject it.
            #[test]
            fn nested_internal_bomb_is_rejected(len in 1usize..4096) {
                let blob = vec![NODE_INTERNAL; len];
                let bbox = (Point::new(0.0, 0.0), Point::new(4.0, 4.0));
                prop_assert!(!tree_is_valid(&blob));
                prop_assert_eq!(color_at_encoded(&blob, Point::new(1.0, 1.0), bbox), None);
            }

            /// Arbitrary aux payloads replace some of a real cycle's tree
            /// packets; a few start with the tree magic so their headers
            /// reach the record checks. The client must answer with a
            /// real path or a typed error.
            #[test]
            fn hostile_aux_payloads_never_panic(
                world in 0usize..3,
                payloads in proptest::collection::vec(
                    (any::<bool>(), proptest::collection::vec(any::<u8>(), 0..PAYLOAD_CAPACITY - 1)),
                    1..8,
                ),
                stride in 1usize..4,
                s in 0u32..64,
                t in 0u32..64,
            ) {
                let (g, program) = &worlds()[world];
                let cycle = program.cycle();
                let mut hostile = payloads.iter().cycle();
                let mut aux = 0;
                let packets = (0..cycle.len())
                    .map(|i| {
                        let p = cycle.packet(i);
                        if p.kind() != PacketKind::Aux {
                            return p.clone();
                        }
                        aux += 1;
                        if aux % stride != 0 {
                            return p.clone();
                        }
                        let (magic, bytes) = hostile.next().expect("non-empty");
                        let mut payload = Vec::from(if *magic { &[TREE_MAGIC][..] } else { &[] });
                        payload.extend_from_slice(bytes);
                        Packet::new(PacketKind::Aux, p.next_index(), payload.into())
                    })
                    .collect();
                let cycle = BroadcastCycle::from_packets(packets);
                let mut client = SpqClient::new(program.bbox());
                let mut ch = BroadcastChannel::lossless(&cycle);
                match client.query(&mut ch, &Query::for_nodes(g, s, t)) {
                    Ok(out) => {
                        prop_assert_eq!(out.path.first(), Some(&s));
                        prop_assert_eq!(out.path.last(), Some(&t));
                        prop_assert!(out.distance >= dijkstra_distance(g, s, t).expect("connected"));
                    }
                    Err(QueryError::Unreachable) => {}
                    Err(e) => prop_assert!(false, "unexpected error: {e}"),
                }
            }
        }
    }
}
