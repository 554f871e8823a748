//! Versioned delta-broadcast of live weight updates (dynamic worlds).
//!
//! A static broadcast program repeats one cycle forever; when edge
//! weights change between cycles (rush-hour ramps, incidents), the server
//! additionally broadcasts a small **patch cycle** carrying only the
//! changed weights, version-stamped, so a client that already holds a
//! received arena from version `v` can upgrade it to `v+1` in place —
//! re-tuning for a handful of patch packets instead of a whole program.
//!
//! Wire format (all little-endian, packets per [`spair_broadcast`]):
//!
//! * **Directory** segment ([`SegmentKind::PatchIndex`], packets of kind
//!   `Index` so every other packet's next-index pointer leads here). Every
//!   directory packet is self-describing: a 12-byte global record
//!   (`version:u32, base_version:u32, region_count:u16, seq:u16`)
//!   followed by up to [`PATCH_DIR_REGIONS_PER_PACKET`] region records
//!   (`region:u16, start:u32, packets:u16, entries:u32` — `start` is the
//!   absolute cycle offset of that region's data segment). The directory
//!   packet count is a closed-form function of `region_count`, so a
//!   client needs one intact directory packet to know the whole layout.
//! * **Data** segments ([`SegmentKind::PatchData`], packets of kind
//!   `Patch`), one per region with changes, in region order: 12-byte
//!   records `from:u32, to:u32, weight:u32`, packed via the shared
//!   record codec (records never straddle packets).
//!
//! The client protocol ([`receive_patch`]) checks the patch's
//! `base_version` against the arena's version **before** touching any
//! data: a stale or skipped version surfaces as the typed
//! [`PatchError::Stale`], leaving the arena byte-identical, so the caller
//! can fall back to a full re-tune under its recovery supervisor.

use crate::client_common::{find_next_index, receive_segment_reliable};
use crate::netcodec::{PatchApply, ReceivedGraph};
use bytes::Bytes;
use spair_broadcast::codec::{PayloadReader, RecordBuf, RecordWriter};
use spair_broadcast::cycle::SegmentKind;
use spair_broadcast::packet::PacketKind;
use spair_broadcast::{Air, BroadcastCycle, CycleBuilder};
use spair_roadnet::{NodeId, Weight};

/// Bytes of the directory's global record.
pub const PATCH_DIR_GLOBAL_BYTES: usize = 12;
/// Bytes of one directory region record.
pub const PATCH_DIR_REGION_BYTES: usize = 12;
/// Region records per directory packet: `(123 - 12) / 12`.
pub const PATCH_DIR_REGIONS_PER_PACKET: usize =
    (spair_broadcast::packet::PAYLOAD_CAPACITY - PATCH_DIR_GLOBAL_BYTES) / PATCH_DIR_REGION_BYTES;
/// Bytes of one weight-delta record.
pub const PATCH_ENTRY_BYTES: usize = 12;

/// Directory packets needed to list `region_count` regions (at least one,
/// so even an empty patch carries its version stamps).
pub fn dir_packet_count(region_count: usize) -> usize {
    region_count.div_ceil(PATCH_DIR_REGIONS_PER_PACKET).max(1)
}

/// One changed edge weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightDelta {
    /// Edge source (broadcast node id).
    pub from: NodeId,
    /// Edge target.
    pub to: NodeId,
    /// The new weight.
    pub weight: Weight,
}

/// The version stamps every directory packet carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchHeader {
    /// The version this patch upgrades an arena *to*.
    pub version: u32,
    /// The version an arena must hold for the patch to apply.
    pub base_version: u32,
    /// Regions listed in the directory (regions with changes).
    pub region_count: u16,
}

/// One region's row in the patch directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchRegionEntry {
    /// Region id.
    pub region: u16,
    /// Absolute cycle offset of the region's data segment.
    pub start: u32,
    /// Data segment length in packets.
    pub packets: u16,
    /// Delta records in the segment.
    pub entries: u32,
}

/// Builds the patch cycle upgrading `base_version` to `version`.
///
/// `deltas` holds `(region, changed edges)` groups — the server groups a
/// delta under `region_of(from)`, so a client holding a region's nodes
/// knows that listening to that region's patch segment covers every edge
/// it materialized from it. Groups with no changes are dropped; group
/// order is normalized to ascending region id. An all-empty delta set is
/// legal and yields a directory-only cycle (pure version heartbeat).
pub fn build_patch_cycle(
    version: u32,
    base_version: u32,
    deltas: &[(u16, Vec<WeightDelta>)],
) -> BroadcastCycle {
    let mut groups: Vec<(u16, &[WeightDelta])> = deltas
        .iter()
        .filter(|(_, d)| !d.is_empty())
        .map(|(r, d)| (*r, d.as_slice()))
        .collect();
    groups.sort_by_key(|&(r, _)| r);

    // Encode every region's data first so the directory can carry exact
    // segment offsets (the layout is: directory, then data in order).
    let mut region_payloads: Vec<Vec<Bytes>> = Vec::with_capacity(groups.len());
    for (_, ds) in &groups {
        let mut w = RecordWriter::new();
        let mut rec = RecordBuf::new();
        for d in ds.iter() {
            rec.clear();
            rec.put_u32(d.from).put_u32(d.to).put_u32(d.weight);
            w.push_record(rec.as_slice());
        }
        region_payloads.push(w.finish());
    }
    let dpkts = dir_packet_count(groups.len());
    let mut starts: Vec<u32> = Vec::with_capacity(groups.len());
    let mut at = dpkts;
    for p in &region_payloads {
        starts.push(at as u32);
        at += p.len();
    }

    let mut dir: Vec<Bytes> = Vec::with_capacity(dpkts);
    let mut rec = RecordBuf::new();
    for seq in 0..dpkts {
        rec.clear();
        rec.put_u32(version)
            .put_u32(base_version)
            .put_u16(groups.len() as u16)
            .put_u16(seq as u16);
        let lo = seq * PATCH_DIR_REGIONS_PER_PACKET;
        let hi = (lo + PATCH_DIR_REGIONS_PER_PACKET).min(groups.len());
        for i in lo..hi {
            rec.put_u16(groups[i].0)
                .put_u32(starts[i])
                .put_u16(region_payloads[i].len() as u16)
                .put_u32(groups[i].1.len() as u32);
        }
        dir.push(Bytes::copy_from_slice(rec.as_slice()));
    }

    let mut b = CycleBuilder::new();
    b.push_segment(SegmentKind::PatchIndex, PacketKind::Index, dir);
    for (i, payloads) in region_payloads.into_iter().enumerate() {
        b.push_segment(
            SegmentKind::PatchData(groups[i].0),
            PacketKind::Patch,
            payloads,
        );
    }
    b.finish()
}

/// Incremental directory decoder: feed it intact directory payloads (in
/// any order, duplicates welcome) until [`PatchDecoder::is_complete`].
#[derive(Debug, Default)]
pub struct PatchDecoder {
    header: Option<PatchHeader>,
    regions: std::collections::BTreeMap<u16, PatchRegionEntry>,
}

impl PatchDecoder {
    /// Empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The version stamps, once any directory packet decoded.
    pub fn header(&self) -> Option<PatchHeader> {
        self.header
    }

    /// Region entries decoded so far, keyed by region id.
    pub fn regions(&self) -> &std::collections::BTreeMap<u16, PatchRegionEntry> {
        &self.regions
    }

    /// All regions listed?
    pub fn is_complete(&self) -> bool {
        self.header
            .is_some_and(|h| self.regions.len() == h.region_count as usize)
    }

    /// Decodes one directory payload. `None` on malformed bytes or a
    /// version stamp contradicting an earlier packet (both are treated
    /// like a lost packet by the client).
    pub fn ingest_directory_payload(&mut self, payload: &[u8]) -> Option<()> {
        let mut r = PayloadReader::new(payload);
        let version = r.read_u32()?;
        let base_version = r.read_u32()?;
        let region_count = r.read_u16()?;
        let _seq = r.read_u16()?;
        let header = PatchHeader {
            version,
            base_version,
            region_count,
        };
        if *self.header.get_or_insert(header) != header {
            return None;
        }
        if !r.remaining().is_multiple_of(PATCH_DIR_REGION_BYTES) {
            return None;
        }
        while !r.is_empty() {
            let region = r.read_u16()?;
            let start = r.read_u32()?;
            let packets = r.read_u16()?;
            let entries = r.read_u32()?;
            self.regions.insert(
                region,
                PatchRegionEntry {
                    region,
                    start,
                    packets,
                    entries,
                },
            );
        }
        Some(())
    }
}

/// Decodes the weight-delta records of one data payload. `None` on
/// malformed bytes.
pub fn decode_patch_payload(payload: &[u8]) -> Option<Vec<WeightDelta>> {
    let mut r = PayloadReader::new(payload);
    if !r.remaining().is_multiple_of(PATCH_ENTRY_BYTES) {
        return None;
    }
    let mut out = Vec::with_capacity(r.remaining() / PATCH_ENTRY_BYTES);
    while !r.is_empty() {
        out.push(WeightDelta {
            from: r.read_u32()?,
            to: r.read_u32()?,
            weight: r.read_u32()?,
        });
    }
    Some(out)
}

/// Which patch regions a client's arena needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Coverage {
    /// The arena holds the whole network (DJ and the whole-cycle search
    /// methods): listen to every listed region.
    Whole,
    /// The arena holds these regions only (NR/EB selective tuning):
    /// listen to the intersection with the directory.
    Regions(Vec<u16>),
}

/// A session's received arena handed to the dynamic-world driver: the
/// store plus what part of the network it covers.
#[derive(Debug)]
pub struct ClientArena {
    /// The received (materialized-complete) adjacency arena.
    pub store: ReceivedGraph,
    /// Regions the store's materialized nodes came from.
    pub coverage: Coverage,
}

/// Why a patch could not be applied. Every variant is typed so the
/// caller's supervisor can classify its fallback re-tune.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchError {
    /// The patch upgrades `base`, the arena holds `have` — the client
    /// slept through a version (or tuned into the future). The arena is
    /// untouched.
    Stale {
        /// The arena's version.
        have: u32,
        /// The version the patch applies to.
        base: u32,
    },
    /// A delta named an edge the arena's materialized source node does
    /// not carry — the patch stream contradicts the arena (every
    /// materialized node holds its complete adjacency).
    MissingEdge {
        /// Edge source.
        from: NodeId,
        /// Edge target.
        to: NodeId,
    },
    /// Reception never completed within the retry budget.
    Aborted(&'static str),
}

impl std::fmt::Display for PatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatchError::Stale { have, base } => {
                write!(f, "stale arena: holds v{have}, patch upgrades v{base}")
            }
            PatchError::MissingEdge { from, to } => {
                write!(f, "patch names unheld edge {from}->{to}")
            }
            PatchError::Aborted(why) => write!(f, "patch reception aborted: {why}"),
        }
    }
}

impl std::error::Error for PatchError {}

/// What one successful patch session did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchReport {
    /// The arena's new version.
    pub version: u32,
    /// Deltas applied to held edges.
    pub applied: usize,
    /// Deltas skipped because their source node is not materialized
    /// (local nodes of a region the arena only holds cross data of).
    pub skipped_not_held: usize,
    /// Patch data segments listened to.
    pub regions_listened: usize,
}

/// [`receive_segment_reliable`] with its give-up typed as a patch abort.
fn reliable(
    ch: &mut dyn Air,
    offset: usize,
    len: usize,
    why: &'static str,
) -> Result<Vec<Bytes>, PatchError> {
    receive_segment_reliable(ch, offset, len, why).map_err(|_| PatchError::Aborted(why))
}

/// Runs one client patch session over a tuned-in patch channel: finds
/// the directory via the next-index pointer, decodes it (with §6.2
/// re-reception of lost packets), verifies the version stamps, then
/// listens to exactly the covered regions' data segments and applies
/// their deltas to `store`.
///
/// On [`PatchError::Stale`] the store is untouched — the check happens
/// before any data reception. Packet costs are read off the channel by
/// the caller (`ch.tuned()` / `ch.elapsed()`).
pub fn receive_patch(
    ch: &mut dyn Air,
    have_version: u32,
    coverage: &Coverage,
    store: &mut ReceivedGraph,
) -> Result<PatchReport, PatchError> {
    let len = ch.cycle_len();
    let dir = find_next_index(ch, 10_000).ok_or(PatchError::Aborted(
        "no next-index pointer on patch channel",
    ))?;
    let mut dec = PatchDecoder::new();
    let first = reliable(ch, dir, 1, "patch directory never received")?;
    dec.ingest_directory_payload(&first[0])
        .ok_or(PatchError::Aborted("malformed patch directory"))?;
    let header = dec.header().expect("just ingested");
    let dpkts = dir_packet_count(header.region_count as usize);
    if dpkts > 1 {
        let rest = reliable(
            ch,
            (dir + 1) % len,
            dpkts - 1,
            "patch directory never completed",
        )?;
        for p in &rest {
            dec.ingest_directory_payload(p)
                .ok_or(PatchError::Aborted("malformed patch directory"))?;
        }
    }
    if !dec.is_complete() {
        return Err(PatchError::Aborted("patch directory incomplete"));
    }
    if header.base_version != have_version {
        return Err(PatchError::Stale {
            have: have_version,
            base: header.base_version,
        });
    }
    let mut wanted: Vec<PatchRegionEntry> = dec
        .regions()
        .values()
        .filter(|e| match coverage {
            Coverage::Whole => true,
            Coverage::Regions(held) => held.contains(&e.region),
        })
        .copied()
        .collect();
    // Listen in broadcast order from wherever the directory left us.
    wanted.sort_by_key(|e| (e.start as usize + len - ch.offset()) % len);
    let mut applied = 0usize;
    let mut skipped = 0usize;
    for e in &wanted {
        let payloads = reliable(
            ch,
            e.start as usize % len,
            e.packets as usize,
            "patch data never completed",
        )?;
        for p in &payloads {
            let deltas =
                decode_patch_payload(p).ok_or(PatchError::Aborted("malformed patch data"))?;
            for d in deltas {
                match store.apply_weight(d.from, d.to, d.weight) {
                    PatchApply::Applied => applied += 1,
                    PatchApply::NotHeld => skipped += 1,
                    PatchApply::MissingEdge => {
                        return Err(PatchError::MissingEdge {
                            from: d.from,
                            to: d.to,
                        })
                    }
                }
            }
        }
    }
    Ok(PatchReport {
        version: header.version,
        applied,
        skipped_not_held: skipped,
        regions_listened: wanted.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netcodec::{encode_nodes, ReceivedGraph};
    use spair_broadcast::{BroadcastChannel, LossModel};
    use spair_roadnet::generators::small_grid;

    fn deltas(n: u32, base: Weight) -> Vec<WeightDelta> {
        (0..n)
            .map(|i| WeightDelta {
                from: i,
                to: i + 1,
                weight: base + i,
            })
            .collect()
    }

    #[test]
    fn directory_round_trip_multi_packet() {
        // 25 regions -> 3 directory packets.
        let groups: Vec<(u16, Vec<WeightDelta>)> =
            (0..25u16).map(|r| (r, deltas(3, 10 + r as u32))).collect();
        let cycle = build_patch_cycle(7, 6, &groups);
        let dir = cycle.find_segment(SegmentKind::PatchIndex).unwrap();
        assert_eq!(dir.len, dir_packet_count(25));
        assert_eq!(dir.len, 3);
        let mut dec = PatchDecoder::new();
        for i in (0..dir.len).rev() {
            assert!(!dec.is_complete());
            dec.ingest_directory_payload(cycle.packet(dir.start + i).payload())
                .unwrap();
        }
        assert!(dec.is_complete());
        let h = dec.header().unwrap();
        assert_eq!((h.version, h.base_version, h.region_count), (7, 6, 25));
        for (r, e) in dec.regions() {
            assert_eq!(e.entries, 3);
            let seg = cycle.find_segment(SegmentKind::PatchData(*r)).unwrap();
            assert_eq!(seg.start, e.start as usize);
            assert_eq!(seg.len, e.packets as usize);
            let mut got = Vec::new();
            for p in 0..seg.len {
                got.extend(decode_patch_payload(cycle.packet(seg.start + p).payload()).unwrap());
            }
            assert_eq!(got, groups[*r as usize].1);
        }
    }

    #[test]
    fn empty_patch_is_a_directory_only_heartbeat() {
        let cycle = build_patch_cycle(3, 2, &[]);
        assert_eq!(cycle.len(), 1);
        let mut dec = PatchDecoder::new();
        dec.ingest_directory_payload(cycle.packet(0).payload())
            .unwrap();
        assert!(dec.is_complete());
        assert_eq!(dec.header().unwrap().region_count, 0);
        // The directory is its own index segment: the pointer wraps to
        // the next cycle's copy.
        assert_eq!(cycle.packet(0).next_index(), 0);
    }

    #[test]
    fn contradictory_stamps_rejected() {
        let a = build_patch_cycle(2, 1, &[(0, deltas(1, 5))]);
        let b = build_patch_cycle(3, 2, &[(0, deltas(1, 5))]);
        let mut dec = PatchDecoder::new();
        dec.ingest_directory_payload(a.packet(0).payload()).unwrap();
        assert!(dec
            .ingest_directory_payload(b.packet(0).payload())
            .is_none());
    }

    fn full_store(g: &spair_roadnet::RoadNetwork) -> ReceivedGraph {
        let nodes: Vec<NodeId> = g.node_ids().collect();
        let mut store = ReceivedGraph::new();
        for p in encode_nodes(g, &nodes) {
            store.ingest_payload(&p).unwrap();
        }
        store
    }

    #[test]
    fn receive_patch_applies_whole_coverage() {
        let g = small_grid(6, 6, 5);
        let mut store = full_store(&g);
        let (f, t, _) = {
            let mut it = g.out_edges(0);
            let (t, w) = it.next().unwrap();
            (0u32, t, w)
        };
        let cycle = build_patch_cycle(
            1,
            0,
            &[(
                0,
                vec![WeightDelta {
                    from: f,
                    to: t,
                    weight: 999,
                }],
            )],
        );
        let mut ch = BroadcastChannel::tune_in(&cycle, 1, LossModel::Lossless);
        let rep = receive_patch(&mut ch, 0, &Coverage::Whole, &mut store).unwrap();
        assert_eq!(rep.version, 1);
        assert_eq!(rep.applied, 1);
        assert_eq!(rep.skipped_not_held, 0);
        assert!(store.out_edges(f).iter().any(|&(u, w)| u == t && w == 999));
    }

    #[test]
    fn receive_patch_respects_region_coverage_and_survives_loss() {
        let g = small_grid(8, 8, 2);
        let store = full_store(&g);
        // Two real edges from two distinct source nodes.
        let (a_from, a_to) = {
            let (t, _) = g.out_edges(0).next().unwrap();
            (0u32, t)
        };
        let b_from = g
            .node_ids()
            .find(|&v| v != 0 && g.out_edges(v).next().is_some())
            .unwrap();
        let (b_to, _) = g.out_edges(b_from).next().unwrap();
        let groups = vec![
            (
                0u16,
                vec![WeightDelta {
                    from: a_from,
                    to: a_to,
                    weight: 777_777,
                }],
            ),
            (
                1u16,
                vec![WeightDelta {
                    from: b_from,
                    to: b_to,
                    weight: 888_888,
                }],
            ),
        ];
        let cycle = build_patch_cycle(5, 4, &groups);
        for seed in 0..4u64 {
            let mut s = store.clone();
            let mut ch = BroadcastChannel::tune_in(
                &cycle,
                seed as usize % cycle.len(),
                LossModel::bernoulli(0.2, seed),
            );
            let rep = receive_patch(&mut ch, 4, &Coverage::Regions(vec![1]), &mut s).unwrap();
            assert_eq!(rep.regions_listened, 1);
            assert_eq!(rep.applied, 1);
            assert!(s
                .out_edges(b_from)
                .iter()
                .any(|&(u, w)| u == b_to && w == 888_888));
            // Region 0's delta was never listened to.
            assert!(s
                .out_edges(a_from)
                .iter()
                .all(|&(u, w)| u != a_to || w != 777_777));
        }
    }

    #[test]
    fn stale_patch_is_typed_and_leaves_store_untouched() {
        let g = small_grid(5, 5, 3);
        let mut store = full_store(&g);
        let before = store.out_edges(0).to_vec();
        let cycle = build_patch_cycle(
            9,
            8,
            &[(
                0,
                vec![WeightDelta {
                    from: 0,
                    to: 1,
                    weight: 123,
                }],
            )],
        );
        let mut ch = BroadcastChannel::lossless(&cycle);
        let err = receive_patch(&mut ch, 7, &Coverage::Whole, &mut store).unwrap_err();
        assert_eq!(err, PatchError::Stale { have: 7, base: 8 });
        assert_eq!(store.out_edges(0), &before[..]);
    }

    #[test]
    fn missing_edge_is_a_typed_protocol_error() {
        let g = small_grid(4, 4, 1);
        let mut store = full_store(&g);
        let cycle = build_patch_cycle(
            1,
            0,
            &[(
                0,
                vec![WeightDelta {
                    from: 0,
                    to: 9999,
                    weight: 1,
                }],
            )],
        );
        let mut ch = BroadcastChannel::lossless(&cycle);
        let err = receive_patch(&mut ch, 0, &Coverage::Whole, &mut store).unwrap_err();
        assert_eq!(err, PatchError::MissingEdge { from: 0, to: 9999 });
    }
}
