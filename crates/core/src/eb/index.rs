//! On-air encoding of the EB index.
//!
//! Every index packet starts with a 7-byte self-describing header
//! (magic, sequence number, copy length, region count) so a client that
//! lost the first packet of a copy still learns the copy's extent from any
//! later packet. The payload after the header is a sequence of tagged
//! records:
//!
//! * kd splitting values in chunks (first index component, §4.1);
//! * w×w squares of the min/max matrix `A` — squares, because among all
//!   rectangles covering equally many cells a square intersects the fewest
//!   rows and columns, minimizing the chance that one lost packet hits the
//!   query's needed row/column (§6.2, Figure 9);
//! * per-region entries of the offset table (the extra column of §4.1):
//!   cycle offset of the region's data, cross-border and local packet
//!   counts.

use crate::precompute::MinMax;
use bytes::Bytes;
use spair_broadcast::codec::{u16_of, EncodeError, PayloadReader, RecordBuf, RecordWriter};
use spair_broadcast::packet::PAYLOAD_CAPACITY;
use spair_partition::RegionId;
use spair_roadnet::{Distance, DIST_INF};

const MAGIC: u8 = 0xEB;
const TAG_SPLITS: u8 = 1;
const TAG_SQUARE: u8 = 2;
const TAG_REGION: u8 = 3;

/// Square side for matrix packing: header 6 bytes + side² × 8 ≤ record
/// budget. Side 3 (9 cells, 78 bytes) leaves room to co-pack smaller
/// records in the same packet.
pub const SQUARE_SIDE: usize = 3;

/// Per-region entry of the offset table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EbRegionEntry {
    /// Cycle offset where the region's data starts (cross segment first).
    pub data_offset: u32,
    /// Packets of the cross-border segment.
    pub cross_packets: u16,
    /// Packets of the local segment (broadcast right after the cross one).
    pub local_packets: u16,
}

/// The decoded (client-side) or source (server-side) EB index.
#[derive(Debug, Clone)]
pub struct EbIndex {
    /// Number of regions.
    pub num_regions: usize,
    /// Kd splitting values, BFS order (`num_regions - 1` values).
    pub splits: Vec<f64>,
    /// Row-major min/max matrix.
    pub minmax: Vec<MinMax>,
    /// Offset table.
    pub regions: Vec<EbRegionEntry>,
}

impl EbIndex {
    /// Matrix lookup.
    pub fn minmax(&self, from: RegionId, to: RegionId) -> MinMax {
        self.minmax[from as usize * self.num_regions + to as usize]
    }

    /// Encodes this index into packet payloads.
    ///
    /// The packet count depends only on `num_regions`, never on the stored
    /// values (fixed-width encoding), which the server relies on to break
    /// the layout/offset circularity: encode once with placeholder
    /// offsets, lay out the cycle, then re-encode with real offsets.
    ///
    /// Fails with a typed [`EncodeError`] when the index exceeds a wire
    /// field (chunk starts, square coordinates, the u16 seq/total
    /// header) instead of silently truncating a counter.
    pub fn encode(&self) -> Result<Vec<Bytes>, EncodeError> {
        let n = self.num_regions;
        assert_eq!(self.splits.len(), n - 1);
        assert_eq!(self.minmax.len(), n * n);
        assert_eq!(self.regions.len(), n);

        // First pass with total=0 to learn the packet count, second pass
        // with the real total. Both passes produce identical structure.
        let body = |total: u16| -> Result<Vec<Bytes>, EncodeError> {
            let header_len = 7;
            let mut w = RecordWriter::with_capacity(PAYLOAD_CAPACITY - header_len);
            let mut rec = RecordBuf::new();

            // Splits in chunks of up to 12 values, transmitted as full
            // f64: kd split values are exact node coordinates and the
            // client's `locate` compares `>=` against them, so any
            // narrowing would flip boundary nodes into the wrong region.
            for (ci, chunk) in self.splits.chunks(12).enumerate() {
                rec.clear();
                rec.put_u8(TAG_SPLITS)
                    .put_u16(u16_of(ci * 12, "eb splits chunk start")?)
                    .put_u8(chunk.len() as u8);
                for &s in chunk {
                    rec.put_f64(s);
                }
                w.push_record(rec.as_slice());
            }

            // Matrix squares, row-major blocks.
            let mut i0 = 0;
            while i0 < n {
                let si = SQUARE_SIDE.min(n - i0);
                let mut j0 = 0;
                while j0 < n {
                    let sj = SQUARE_SIDE.min(n - j0);
                    rec.clear();
                    rec.put_u8(TAG_SQUARE)
                        .put_u16(u16_of(i0, "eb square row")?)
                        .put_u16(u16_of(j0, "eb square column")?)
                        .put_u8(si as u8)
                        .put_u8(sj as u8);
                    for i in i0..i0 + si {
                        for j in j0..j0 + sj {
                            let cell = self.minmax[i * n + j];
                            rec.put_u32(encode_dist(cell.min));
                            rec.put_u32(encode_dist(cell.max));
                        }
                    }
                    w.push_record(rec.as_slice());
                    j0 += sj;
                }
                i0 += si;
            }

            // Offset table.
            for (r, e) in self.regions.iter().enumerate() {
                rec.clear();
                rec.put_u8(TAG_REGION)
                    .put_u16(u16_of(r, "eb region id")?)
                    .put_u32(e.data_offset)
                    .put_u16(e.cross_packets)
                    .put_u16(e.local_packets);
                w.push_record(rec.as_slice());
            }

            let payloads = w.finish();
            payloads
                .into_iter()
                .enumerate()
                .map(|(seq, body)| {
                    let mut full = RecordBuf::new();
                    full.put_u8(MAGIC)
                        .put_u16(u16_of(seq, "eb index seq")?)
                        .put_u16(total)
                        .put_u16(u16_of(n, "eb region count")?);
                    let mut v = full.as_slice().to_vec();
                    v.extend_from_slice(&body);
                    Ok(Bytes::from(v))
                })
                .collect()
        };

        let count = u16_of(body(0)?.len(), "eb index total packets")?;
        body(count)
    }
}

#[inline]
fn encode_dist(d: Distance) -> u32 {
    if d == DIST_INF {
        u32::MAX
    } else {
        u32::try_from(d).expect("distance exceeds on-air u32 range")
    }
}

#[inline]
fn decode_dist(v: u32) -> Distance {
    if v == u32::MAX {
        DIST_INF
    } else {
        v as Distance
    }
}

/// Incremental decoder tolerating missing packets.
#[derive(Debug)]
pub struct EbIndexDecoder {
    /// Copy length learned from any packet header.
    pub total_packets: Option<u16>,
    num_regions: Option<usize>,
    splits: Vec<Option<f64>>,
    minmax: Vec<Option<MinMax>>,
    regions: Vec<Option<EbRegionEntry>>,
}

impl Default for EbIndexDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl EbIndexDecoder {
    /// Fresh decoder.
    pub fn new() -> Self {
        Self {
            total_packets: None,
            num_regions: None,
            splits: Vec::new(),
            minmax: Vec::new(),
            regions: Vec::new(),
        }
    }

    /// Region count, once any packet decoded.
    pub fn num_regions(&self) -> Option<usize> {
        self.num_regions
    }

    /// Ingests one received index packet payload. Returns `false` if the
    /// payload does not look like an EB index packet.
    pub fn ingest(&mut self, payload: &[u8]) -> bool {
        let mut r = PayloadReader::new(payload);
        let Some(MAGIC) = r.read_u8() else {
            return false;
        };
        let Some(_seq) = r.read_u16() else {
            return false;
        };
        let Some(total) = r.read_u16() else {
            return false;
        };
        let Some(n) = r.read_u16() else {
            return false;
        };
        let n = n as usize;
        // A bit-flipped header must yield a typed reject, never a panic:
        // n == 0 would underflow the `n - 1` split store below, and an
        // implausibly large n would turn the `n * n` min/max matrix into
        // an allocation bomb before any real payload is inspected.
        if n == 0 || n > crate::nr::MAX_WIRE_REGIONS {
            return false;
        }
        if self.num_regions.is_none() {
            self.num_regions = Some(n);
            self.splits = vec![None; n - 1];
            self.minmax = vec![None; n * n];
            self.regions = vec![None; n];
        }
        if total > 0 {
            self.total_packets = Some(total);
        }
        while let Some(tag) = r.read_u8() {
            match tag {
                TAG_SPLITS => {
                    let Some(start) = r.read_u16() else {
                        return false;
                    };
                    let Some(count) = r.read_u8() else {
                        return false;
                    };
                    for k in 0..count as usize {
                        let Some(v) = r.read_f64() else { return false };
                        if let Some(slot) = self.splits.get_mut(start as usize + k) {
                            *slot = Some(v);
                        }
                    }
                }
                TAG_SQUARE => {
                    let (Some(i0), Some(j0), Some(si), Some(sj)) =
                        (r.read_u16(), r.read_u16(), r.read_u8(), r.read_u8())
                    else {
                        return false;
                    };
                    // The whole cells of the square that arrived, row by
                    // row; cells past the matrix are dropped.
                    let (si, sj) = (si as usize, sj as usize);
                    let whole = (si * sj).min(r.remaining() / 8);
                    let cells = r.take(whole * 8).unwrap_or_default();
                    if sj > 0 {
                        for (i, row) in cells.chunks(sj * 8).enumerate() {
                            let start = (i0 as usize + i) * n + j0 as usize;
                            let Some(dst) = self.minmax.get_mut(start..) else {
                                continue;
                            };
                            for (slot, c) in dst.iter_mut().zip(row.chunks_exact(8)) {
                                let word = |at: usize| {
                                    u32::from_le_bytes([c[at], c[at + 1], c[at + 2], c[at + 3]])
                                };
                                *slot = Some(MinMax {
                                    min: decode_dist(word(0)),
                                    max: decode_dist(word(4)),
                                });
                            }
                        }
                    }
                    if whole < si * sj {
                        return false;
                    }
                }
                TAG_REGION => {
                    let (Some(reg), Some(off), Some(cross), Some(local)) =
                        (r.read_u16(), r.read_u32(), r.read_u16(), r.read_u16())
                    else {
                        return false;
                    };
                    if let Some(slot) = self.regions.get_mut(reg as usize) {
                        *slot = Some(EbRegionEntry {
                            data_offset: off,
                            cross_packets: cross,
                            local_packets: local,
                        });
                    }
                }
                _ => return false,
            }
        }
        true
    }

    /// All splitting values, if complete. `None` until the region count
    /// is known: before any packet decodes, the split store is an empty
    /// vector, and treating that as "complete" would locate every
    /// coordinate in region 0 — a wrong-pruning bug the load harness's
    /// bursty populations exposed (a burst can wipe an entire index
    /// copy, leaving the first reception attempt with nothing ingested).
    pub fn splits(&self) -> Option<Vec<f64>> {
        self.num_regions?;
        self.splits.iter().copied().collect()
    }

    /// Matrix cell, if received.
    pub fn minmax(&self, from: RegionId, to: RegionId) -> Option<MinMax> {
        let n = self.num_regions?;
        self.minmax[from as usize * n + to as usize]
    }

    /// Offset-table entry, if received.
    pub fn region_entry(&self, r: RegionId) -> Option<EbRegionEntry> {
        *self.regions.get(r as usize)?
    }

    /// Decoded in-memory footprint (charged to the client memory meter):
    /// splits + matrix + table.
    pub fn retained_bytes(&self) -> usize {
        match self.num_regions {
            Some(n) => (n - 1) * 8 + n * n * 16 + n * 8,
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_decoder_reports_nothing_complete() {
        // Regression: before any packet decodes, the empty split store
        // must not read as "all splits received" (it located every
        // coordinate in region 0 under burst loss).
        let dec = EbIndexDecoder::new();
        assert_eq!(dec.splits(), None);
        assert_eq!(dec.num_regions(), None);
    }

    fn sample_index(n: usize) -> EbIndex {
        let mut minmax = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                minmax.push(if i == j {
                    MinMax { min: 0, max: 10 }
                } else {
                    MinMax {
                        min: (i * n + j) as Distance,
                        max: (i * n + j + 100) as Distance,
                    }
                });
            }
        }
        EbIndex {
            num_regions: n,
            splits: (0..n - 1).map(|i| i as f64 * 1.5).collect(),
            minmax,
            regions: (0..n)
                .map(|r| EbRegionEntry {
                    data_offset: 1000 + r as u32,
                    cross_packets: r as u16,
                    local_packets: 2 * r as u16,
                })
                .collect(),
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let idx = sample_index(16);
        let payloads = idx.encode().unwrap();
        let mut dec = EbIndexDecoder::new();
        for p in &payloads {
            assert!(dec.ingest(p));
        }
        assert_eq!(dec.num_regions(), Some(16));
        assert_eq!(dec.total_packets, Some(payloads.len() as u16));
        assert_eq!(dec.splits().unwrap(), idx.splits);
        for i in 0..16u16 {
            for j in 0..16u16 {
                assert_eq!(dec.minmax(i, j), Some(idx.minmax(i, j)));
            }
        }
        for r in 0..16u16 {
            assert_eq!(dec.region_entry(r), Some(idx.regions[r as usize]));
        }
    }

    #[test]
    fn packet_count_independent_of_values() {
        let mut a = sample_index(32);
        let b = a.clone();
        for e in &mut a.regions {
            e.data_offset = 999_999;
        }
        for c in &mut a.minmax {
            c.max = 4_000_000;
        }
        assert_eq!(a.encode().unwrap().len(), b.encode().unwrap().len());
    }

    #[test]
    fn partial_decode_reports_missing() {
        let idx = sample_index(8);
        let payloads = idx.encode().unwrap();
        let mut dec = EbIndexDecoder::new();
        // Skip one packet.
        for (i, p) in payloads.iter().enumerate() {
            if i != 1 {
                dec.ingest(p);
            }
        }
        let missing_splits = dec.splits().is_none();
        let missing_cells = (0..8u16)
            .flat_map(|i| (0..8u16).map(move |j| (i, j)))
            .any(|(i, j)| dec.minmax(i, j).is_none());
        let missing_regions = (0..8u16).any(|r| dec.region_entry(r).is_none());
        assert!(
            missing_splits || missing_cells || missing_regions,
            "dropping a packet must lose something"
        );
    }

    #[test]
    fn inf_distances_survive() {
        let mut idx = sample_index(4);
        idx.minmax[1] = MinMax {
            min: DIST_INF,
            max: 0,
        };
        let mut dec = EbIndexDecoder::new();
        for p in &idx.encode().unwrap() {
            dec.ingest(p);
        }
        let cell = dec.minmax(0, 1).unwrap();
        assert_eq!(cell.min, DIST_INF);
        assert_eq!(cell.max, 0);
    }

    #[test]
    fn garbage_payload_rejected() {
        let mut dec = EbIndexDecoder::new();
        assert!(!dec.ingest(&[0x00, 1, 2, 3, 4, 5, 6, 7]));
    }

    #[test]
    fn retained_bytes_formula() {
        let idx = sample_index(8);
        let mut dec = EbIndexDecoder::new();
        dec.ingest(&idx.encode().unwrap()[0]);
        assert_eq!(dec.retained_bytes(), 7 * 8 + 64 * 16 + 8 * 8);
    }

    /// The former `ingest`, kept verbatim as the oracle of the one that
    /// copies each square's cells in one pass.
    fn oracle_ingest(dec: &mut EbIndexDecoder, payload: &[u8]) -> bool {
        let mut r = PayloadReader::new(payload);
        let Some(MAGIC) = r.read_u8() else {
            return false;
        };
        let (Some(_seq), Some(total), Some(n)) = (r.read_u16(), r.read_u16(), r.read_u16()) else {
            return false;
        };
        let n = n as usize;
        if n == 0 || n > crate::nr::MAX_WIRE_REGIONS {
            return false;
        }
        if dec.num_regions.is_none() {
            dec.num_regions = Some(n);
            dec.splits = vec![None; n - 1];
            dec.minmax = vec![None; n * n];
            dec.regions = vec![None; n];
        }
        if total > 0 {
            dec.total_packets = Some(total);
        }
        while let Some(tag) = r.read_u8() {
            match tag {
                TAG_SPLITS => {
                    let (Some(start), Some(count)) = (r.read_u16(), r.read_u8()) else {
                        return false;
                    };
                    for k in 0..count as usize {
                        let Some(v) = r.read_f64() else { return false };
                        if let Some(slot) = dec.splits.get_mut(start as usize + k) {
                            *slot = Some(v);
                        }
                    }
                }
                TAG_SQUARE => {
                    let (Some(i0), Some(j0), Some(si), Some(sj)) =
                        (r.read_u16(), r.read_u16(), r.read_u8(), r.read_u8())
                    else {
                        return false;
                    };
                    for i in 0..si as usize {
                        for j in 0..sj as usize {
                            let (Some(min), Some(max)) = (r.read_u32(), r.read_u32()) else {
                                return false;
                            };
                            let idx = (i0 as usize + i) * n + j0 as usize + j;
                            if let Some(slot) = dec.minmax.get_mut(idx) {
                                *slot = Some(MinMax {
                                    min: decode_dist(min),
                                    max: decode_dist(max),
                                });
                            }
                        }
                    }
                }
                TAG_REGION => {
                    let (Some(reg), Some(off), Some(cross), Some(local)) =
                        (r.read_u16(), r.read_u32(), r.read_u16(), r.read_u16())
                    else {
                        return false;
                    };
                    if let Some(slot) = dec.regions.get_mut(reg as usize) {
                        *slot = Some(EbRegionEntry {
                            data_offset: off,
                            cross_packets: cross,
                            local_packets: local,
                        });
                    }
                }
                _ => return false,
            }
        }
        true
    }

    mod square_copy_matches_oracle {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Packet by packet, whole, cut short, bit-flipped or with
            /// an arbitrary body behind the header, the decoder keeps the
            /// oracle's return value and every table entry.
            #[test]
            fn squares_decode_as_the_former_loop(
                n in 1usize..=40,
                picks in proptest::collection::vec(
                    (0usize..1024, 0u8..4, 0usize..2048, proptest::collection::vec(any::<u8>(), 0..120)),
                    1..24,
                ),
            ) {
                let mut idx = sample_index(n);
                idx.minmax[n * n - 1].min = DIST_INF;
                let payloads = idx.encode().unwrap();
                let (mut dec, mut oracle) = (EbIndexDecoder::new(), EbIndexDecoder::new());
                for (pick, mode, at, junk) in &picks {
                    let mut p = payloads[pick % payloads.len()].to_vec();
                    match mode {
                        0 => {}
                        1 => p.truncate(at % (p.len() + 1)),
                        2 => {
                            let b = at % (p.len() * 8);
                            p[b / 8] ^= 1 << (b % 8);
                        }
                        _ => {
                            p.truncate(7);
                            p.extend_from_slice(junk);
                        }
                    }
                    prop_assert_eq!(dec.ingest(&p), oracle_ingest(&mut oracle, &p));
                    prop_assert_eq!(dec.total_packets, oracle.total_packets);
                    prop_assert_eq!(dec.num_regions, oracle.num_regions);
                    // Flipped bits can make a split NaN: compare bits.
                    let bits = |v: &[Option<f64>]| -> Vec<Option<u64>> {
                        v.iter().map(|s| s.map(f64::to_bits)).collect()
                    };
                    prop_assert_eq!(bits(&dec.splits), bits(&oracle.splits));
                    prop_assert_eq!(&dec.minmax, &oracle.minmax);
                    prop_assert_eq!(&dec.regions, &oracle.regions);
                }
            }
        }
    }

    /// Decoder panic audit: every payload — random, truncated, or
    /// bit-flipped — must yield a typed reject or a partial decode,
    /// never a panic.
    mod panic_audit {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]

            #[test]
            fn arbitrary_payloads_never_panic(
                payload in proptest::collection::vec(any::<u8>(), 0..220),
            ) {
                let mut dec = EbIndexDecoder::new();
                let _ = dec.ingest(&payload);
                let _ = dec.splits();
                let _ = dec.num_regions();
            }

            #[test]
            fn corrupted_real_payloads_never_panic(
                cut in 0usize..256,
                bit in 0usize..(1 << 11),
            ) {
                for payload in sample_index(8).encode().unwrap() {
                    let mut dec = EbIndexDecoder::new();
                    let _ = dec.ingest(&payload[..cut.min(payload.len())]);
                    let mut flipped = payload.to_vec();
                    let b = bit % (flipped.len() * 8);
                    flipped[b / 8] ^= 1 << (b % 8);
                    let mut dec = EbIndexDecoder::new();
                    let _ = dec.ingest(&flipped);
                    let _ = dec.splits();
                }
            }
        }

        /// Hostile header region counts: zero (would underflow the
        /// `n - 1` split store) and u16::MAX (would blow up the `n * n`
        /// min/max matrix) must be typed rejects.
        #[test]
        fn hostile_region_counts_are_rejected() {
            let payload = sample_index(8).encode().unwrap().remove(0);
            for n in [0u16, u16::MAX] {
                let mut hostile = payload.to_vec();
                hostile[5..7].copy_from_slice(&n.to_le_bytes());
                let mut dec = EbIndexDecoder::new();
                assert!(!dec.ingest(&hostile), "n={n}");
                assert_eq!(dec.num_regions(), None);
            }
        }
    }
}
