//! On-air encoding of NR's per-region local indexes.
//!
//! A local index `A^m` carries: the kd splitting values (first index
//! component, identical in every copy so a client can start anywhere), the
//! region offset table (where each region's data starts and how long it
//! is), and the n×n next-region matrix with cells relative to position
//! `m`. Cells are one byte when `n <= 255` — next-region values are region
//! *numbers*, and keeping them byte-wide is what keeps NR's cycle within a
//! couple of percent of the raw network (Table 1: 14 260 vs 14 019
//! packets on Germany).
//!
//! Every packet starts with a 9-byte self-describing header (magic, owner
//! region, sequence, copy length, region count).

use bytes::Bytes;
use spair_broadcast::codec::{u16_of, EncodeError, PayloadReader, RecordBuf, RecordWriter};
use spair_broadcast::packet::PAYLOAD_CAPACITY;
use spair_partition::RegionId;

const MAGIC: u8 = 0xA2;

/// Upper bound on the region count a decoder will accept from the wire.
/// Far above any real partitioning (the paper tops out at hundreds), but
/// small enough that `n * n` matrix cells stay an ordinary allocation.
pub(crate) const MAX_WIRE_REGIONS: usize = 4096;
const TAG_SPLITS: u8 = 1;
const TAG_NEXT: u8 = 2;
const TAG_OFFSET: u8 = 3;
const HEADER_LEN: usize = 9;

/// Sentinel cell: no next-region information for this pair.
pub const NO_NEXT: u16 = u16::MAX;

/// Per-region entry of the offset table carried in every local index.
///
/// Region data is split into the cross-border segment and the local
/// segment (§4.1); NR clients receive only the former for intermediate
/// regions, which is what keeps NR's tuning time below EB's (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NrOffsetEntry {
    /// Cycle offset where the region's cross-border segment starts.
    pub data_offset: u32,
    /// Packets of the cross-border segment.
    pub cross_packets: u16,
    /// Packets of the local segment that follows it (the local index of
    /// the next region is contiguous after both).
    pub local_packets: u16,
}

impl NrOffsetEntry {
    /// Total region-data packets (cross-border + local).
    pub fn data_packets(&self) -> usize {
        self.cross_packets as usize + self.local_packets as usize
    }
}

/// A fully materialized local index (server side).
#[derive(Debug, Clone)]
pub struct NrLocalIndex {
    /// Region this index precedes.
    pub region: RegionId,
    /// Number of regions.
    pub num_regions: usize,
    /// Kd splitting values.
    pub splits: Vec<f64>,
    /// Row-major next-region matrix (`NO_NEXT` = no information).
    pub next: Vec<u16>,
    /// Offset table.
    pub offsets: Vec<NrOffsetEntry>,
}

impl NrLocalIndex {
    /// Encodes into packet payloads. Fixed width given `num_regions`, so
    /// packet counts never change when offsets are patched.
    ///
    /// Fails with a typed [`EncodeError`] when the index exceeds a wire
    /// field (chunk starts, row ids, the u16 seq/total header) instead
    /// of silently truncating a counter.
    pub fn encode(&self) -> Result<Vec<Bytes>, EncodeError> {
        let n = self.num_regions;
        assert_eq!(self.splits.len(), n - 1);
        assert_eq!(self.next.len(), n * n);
        assert_eq!(self.offsets.len(), n);
        let wide = n > 255;

        // The records, packed into packet bodies; each packet's header
        // then names its position and the packet count.
        let bodies = {
            let mut w = RecordWriter::with_capacity(PAYLOAD_CAPACITY - HEADER_LEN);
            let mut rec = RecordBuf::new();

            // Splits travel as full f64: they are exact node coordinates
            // (kd medians), and the client's `locate` uses `>=` against
            // them — any rounding would flip boundary nodes into the wrong
            // region, making the client fetch data that lacks the query
            // endpoints.
            for (ci, chunk) in self.splits.chunks(12).enumerate() {
                rec.clear();
                rec.put_u8(TAG_SPLITS)
                    .put_u16(u16_of(ci * 12, "nr splits chunk start")?)
                    .put_u8(chunk.len() as u8);
                for &s in chunk {
                    rec.put_f64(s);
                }
                w.push_record(rec.as_slice());
            }

            for (r, e) in self.offsets.iter().enumerate() {
                rec.clear();
                rec.put_u8(TAG_OFFSET)
                    .put_u16(u16_of(r, "nr offset region id")?)
                    .put_u32(e.data_offset)
                    .put_u16(e.cross_packets)
                    .put_u16(e.local_packets);
                w.push_record(rec.as_slice());
            }

            // Next-region rows in chunks that fit a record.
            let per_chunk = if wide { 48 } else { 96 };
            for i in 0..n {
                let row = &self.next[i * n..(i + 1) * n];
                for (ci, chunk) in row.chunks(per_chunk).enumerate() {
                    rec.clear();
                    rec.put_u8(TAG_NEXT)
                        .put_u16(u16_of(i, "nr next-row region")?)
                        .put_u16(u16_of(ci * per_chunk, "nr next-row chunk start")?)
                        .put_u8(chunk.len() as u8);
                    for &c in chunk {
                        if wide {
                            rec.put_u16(c);
                        } else {
                            rec.put_u8(if c == NO_NEXT { 255 } else { c as u8 });
                        }
                    }
                    w.push_record(rec.as_slice());
                }
            }

            w.finish()
        };
        let total = u16_of(bodies.len(), "nr index total packets")?;
        bodies
            .into_iter()
            .enumerate()
            .map(|(seq, body)| {
                let mut h = RecordBuf::new();
                h.put_u8(MAGIC)
                    .put_u16(self.region)
                    .put_u16(u16_of(seq, "nr index seq")?)
                    .put_u16(total)
                    .put_u16(u16_of(n, "nr region count")?);
                let mut v = h.as_slice().to_vec();
                v.extend_from_slice(&body);
                Ok(Bytes::from(v))
            })
            .collect()
    }
}

/// Parsed per-packet header of a local-index packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NrHeader {
    /// Owner region of the copy.
    pub region: RegionId,
    /// Packet's position within the copy.
    pub seq: u16,
    /// Copy length in packets (0 only in the server's sizing pass).
    pub total: u16,
    /// Region count.
    pub num_regions: u16,
}

/// Parses just the 9-byte header (used by clients that tuned in mid-copy
/// to learn how many packets of the copy remain).
pub fn parse_header(payload: &[u8]) -> Option<NrHeader> {
    let mut r = PayloadReader::new(payload);
    if r.read_u8()? != MAGIC {
        return None;
    }
    Some(NrHeader {
        region: r.read_u16()?,
        seq: r.read_u16()?,
        total: r.read_u16()?,
        num_regions: r.read_u16()?,
    })
}

/// Cell value of [`NrIndexDecoder`]'s table for a cell whose packet has
/// not arrived: above every `u16` a cell carries on the wire, [`NO_NEXT`]
/// included.
const NOT_ARRIVED: u32 = u32::MAX;

/// Loss-tolerant decoder for one local-index copy, with shared state for
/// the structures that are identical across copies (splits, offsets).
///
/// One decoder serves copy after copy: [`Self::reset`] forgets the copy
/// and keeps the cell table's allocation.
#[derive(Debug, Default, Clone)]
pub struct NrIndexDecoder {
    /// Owner region of the copy being decoded.
    pub region: Option<RegionId>,
    /// Copy length, once any packet arrived.
    pub total_packets: Option<u16>,
    /// Region count.
    pub num_regions: Option<usize>,
    /// Row-major `n × n` next-region cells of this copy ([`Self::cell`]),
    /// [`NOT_ARRIVED`] where no packet carried the cell yet.
    cells: Vec<u32>,
}

impl NrIndexDecoder {
    /// Fresh decoder for one copy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Readies the decoder for the next copy, keeping its cell table's
    /// allocation.
    pub fn reset(&mut self) {
        self.region = None;
        self.total_packets = None;
        self.num_regions = None;
    }

    /// Ingests one packet payload, merging splits/offsets into `shared`.
    /// Returns `false` for payloads that are not NR local-index packets.
    /// A payload that breaks off keeps what it carried before the break.
    pub fn ingest(&mut self, payload: &[u8], shared: &mut NrSharedState) -> bool {
        let mut r = PayloadReader::new(payload);
        let Some(MAGIC) = r.read_u8() else {
            return false;
        };
        let (Some(region), Some(_seq), Some(total), Some(n)) =
            (r.read_u16(), r.read_u16(), r.read_u16(), r.read_u16())
        else {
            return false;
        };
        let n = n as usize;
        // A bit-flipped header must yield a typed reject, never a panic:
        // n == 0 would underflow the shared `n - 1` split store, and an
        // implausibly large n would turn `n * n` cells into an allocation
        // bomb before any real payload is inspected.
        if n == 0 || n > MAX_WIRE_REGIONS {
            return false;
        }
        self.region = Some(region);
        if total > 0 {
            self.total_packets = Some(total);
        }
        if self.num_regions.is_none() {
            self.num_regions = Some(n);
            self.cells.clear();
            self.cells.resize(n * n, NOT_ARRIVED);
        }
        shared.ensure(n);
        let width = if n > 255 { 2 } else { 1 };
        while let Some(tag) = r.read_u8() {
            match tag {
                TAG_SPLITS => {
                    let (Some(start), Some(count)) = (r.read_u16(), r.read_u8()) else {
                        return false;
                    };
                    for k in 0..count as usize {
                        let Some(v) = r.read_f64() else { return false };
                        if let Some(slot) = shared.splits.get_mut(start as usize + k) {
                            *slot = Some(v);
                        }
                    }
                }
                TAG_OFFSET => {
                    let (Some(reg), Some(off), Some(cross), Some(local)) =
                        (r.read_u16(), r.read_u32(), r.read_u16(), r.read_u16())
                    else {
                        return false;
                    };
                    if let Some(slot) = shared.offsets.get_mut(reg as usize) {
                        *slot = Some(NrOffsetEntry {
                            data_offset: off,
                            cross_packets: cross,
                            local_packets: local,
                        });
                    }
                }
                TAG_NEXT => {
                    let (Some(i), Some(j0), Some(count)) =
                        (r.read_u16(), r.read_u16(), r.read_u8())
                    else {
                        return false;
                    };
                    // The whole cells of the run that arrived, copied in
                    // one pass; cells past the table are dropped.
                    let whole = (count as usize).min(r.remaining() / width);
                    let run = r.take(whole * width).unwrap_or_default();
                    let start = i as usize * n + j0 as usize;
                    if let Some(dst) = self.cells.get_mut(start..) {
                        if width == 1 {
                            for (c, &v) in dst.iter_mut().zip(run) {
                                *c = if v == 255 { NO_NEXT as u32 } else { v as u32 };
                            }
                        } else {
                            for (c, v) in dst.iter_mut().zip(run.chunks_exact(2)) {
                                *c = u16::from_le_bytes([v[0], v[1]]) as u32;
                            }
                        }
                    }
                    if whole < count as usize {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        true
    }

    /// The `(from, to)` cell of this copy, if its packet arrived.
    pub fn cell(&self, from: RegionId, to: RegionId) -> Option<u16> {
        let n = self.num_regions?;
        let c = self.cells[from as usize * n + to as usize];
        (c != NOT_ARRIVED).then_some(c as u16)
    }
}

/// The structures identical in every local index: accumulated across
/// copies so losses heal as the client hops.
#[derive(Debug, Default)]
pub struct NrSharedState {
    /// Kd splitting values with holes.
    pub splits: Vec<Option<f64>>,
    /// Offset table with holes.
    pub offsets: Vec<Option<NrOffsetEntry>>,
}

impl NrSharedState {
    fn ensure(&mut self, n: usize) {
        if self.splits.is_empty() {
            self.splits = vec![None; n - 1];
            self.offsets = vec![None; n];
        }
    }

    /// Complete splits, if all arrived.
    pub fn complete_splits(&self) -> Option<Vec<f64>> {
        if self.splits.is_empty() {
            return None;
        }
        self.splits.iter().copied().collect()
    }

    /// Decoded footprint charged to the client: splits + offsets + one
    /// cached cell row.
    pub fn retained_bytes(&self) -> usize {
        self.splits.len() * 8 + self.offsets.len() * 10
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(region: RegionId, n: usize) -> NrLocalIndex {
        NrLocalIndex {
            region,
            num_regions: n,
            splits: (0..n - 1).map(|i| i as f64 + 0.5).collect(),
            next: (0..n * n)
                .map(|k| ((k + region as usize) % n) as u16)
                .collect(),
            offsets: (0..n)
                .map(|r| NrOffsetEntry {
                    data_offset: 10 * r as u32,
                    cross_packets: r as u16,
                    local_packets: (r / 2) as u16,
                })
                .collect(),
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let idx = sample(3, 16);
        let payloads = idx.encode().unwrap();
        let mut dec = NrIndexDecoder::new();
        let mut shared = NrSharedState::default();
        for p in &payloads {
            assert!(dec.ingest(p, &mut shared));
        }
        assert_eq!(dec.region, Some(3));
        assert_eq!(dec.total_packets, Some(payloads.len() as u16));
        assert_eq!(shared.complete_splits().unwrap(), idx.splits);
        for i in 0..16u16 {
            for j in 0..16u16 {
                assert_eq!(dec.cell(i, j), Some(idx.next[i as usize * 16 + j as usize]));
            }
        }
        for r in 0..16 {
            assert_eq!(shared.offsets[r].unwrap(), idx.offsets[r]);
        }
    }

    #[test]
    fn sentinel_cells_survive_narrow_encoding() {
        let mut idx = sample(0, 8);
        idx.next[5] = NO_NEXT;
        let mut dec = NrIndexDecoder::new();
        let mut shared = NrSharedState::default();
        for p in &idx.encode().unwrap() {
            dec.ingest(p, &mut shared);
        }
        assert_eq!(dec.cell(0, 5), Some(NO_NEXT));
    }

    #[test]
    fn wide_encoding_for_many_regions() {
        let idx = sample(1, 512);
        let mut dec = NrIndexDecoder::new();
        let mut shared = NrSharedState::default();
        for p in &idx.encode().unwrap() {
            assert!(dec.ingest(p, &mut shared));
        }
        assert_eq!(dec.cell(511, 511), Some(idx.next[512 * 512 - 1]));
    }

    #[test]
    fn packet_count_fixed_for_offset_values() {
        let mut a = sample(2, 32);
        let b = a.encode().unwrap().len();
        for e in &mut a.offsets {
            e.data_offset = u32::MAX / 2;
            e.cross_packets = 60_000;
            e.local_packets = 5_000;
        }
        assert_eq!(a.encode().unwrap().len(), b);
    }

    #[test]
    fn shared_state_heals_across_copies() {
        let idx0 = sample(0, 8);
        let idx1 = sample(1, 8);
        let mut shared = NrSharedState::default();
        let p0 = idx0.encode().unwrap();
        let p1 = idx1.encode().unwrap();
        // Lose packet 0 of copy 0, ingest the rest; then copy 1 complete.
        let mut d0 = NrIndexDecoder::new();
        for p in p0.iter().skip(1) {
            d0.ingest(p, &mut shared);
        }
        let incomplete =
            shared.complete_splits().is_none() || shared.offsets.iter().any(Option::is_none);
        let mut d1 = NrIndexDecoder::new();
        for p in &p1 {
            d1.ingest(p, &mut shared);
        }
        assert!(shared.complete_splits().is_some());
        assert!(shared.offsets.iter().all(Option::is_some));
        let _ = incomplete;
    }

    #[test]
    fn small_cycle_overhead_versus_matrix_size() {
        // 32 regions: one local index must stay within ~20 packets
        // (32*32 bytes of cells + 31 f64 splits + 32*11 offset table).
        let idx = sample(0, 32);
        let count = idx.encode().unwrap().len();
        assert!(count <= 20, "local index unexpectedly large: {count}");
    }

    /// The former decoder, kept verbatim as the oracle of the flat one:
    /// a fresh `Vec<Option<u16>>` per copy, one cell read at a time.
    mod oracle {
        use super::super::*;

        #[derive(Debug, Default)]
        pub struct OracleDecoder {
            pub region: Option<RegionId>,
            pub total_packets: Option<u16>,
            pub num_regions: Option<usize>,
            next_cells: Vec<Option<u16>>,
        }

        impl OracleDecoder {
            pub fn ingest(&mut self, payload: &[u8], shared: &mut NrSharedState) -> bool {
                let mut r = PayloadReader::new(payload);
                let Some(MAGIC) = r.read_u8() else {
                    return false;
                };
                let (Some(region), Some(_seq), Some(total), Some(n)) =
                    (r.read_u16(), r.read_u16(), r.read_u16(), r.read_u16())
                else {
                    return false;
                };
                let n = n as usize;
                if n == 0 || n > MAX_WIRE_REGIONS {
                    return false;
                }
                self.region = Some(region);
                if total > 0 {
                    self.total_packets = Some(total);
                }
                if self.num_regions.is_none() {
                    self.num_regions = Some(n);
                    self.next_cells = vec![None; n * n];
                }
                shared.ensure(n);
                let wide = n > 255;
                while let Some(tag) = r.read_u8() {
                    match tag {
                        TAG_SPLITS => {
                            let (Some(start), Some(count)) = (r.read_u16(), r.read_u8()) else {
                                return false;
                            };
                            for k in 0..count as usize {
                                let Some(v) = r.read_f64() else { return false };
                                if let Some(slot) = shared.splits.get_mut(start as usize + k) {
                                    *slot = Some(v);
                                }
                            }
                        }
                        TAG_OFFSET => {
                            let (Some(reg), Some(off), Some(cross), Some(local)) =
                                (r.read_u16(), r.read_u32(), r.read_u16(), r.read_u16())
                            else {
                                return false;
                            };
                            if let Some(slot) = shared.offsets.get_mut(reg as usize) {
                                *slot = Some(NrOffsetEntry {
                                    data_offset: off,
                                    cross_packets: cross,
                                    local_packets: local,
                                });
                            }
                        }
                        TAG_NEXT => {
                            let (Some(i), Some(j0), Some(count)) =
                                (r.read_u16(), r.read_u16(), r.read_u8())
                            else {
                                return false;
                            };
                            for k in 0..count as usize {
                                let v = if wide {
                                    let Some(v) = r.read_u16() else { return false };
                                    v
                                } else {
                                    let Some(v) = r.read_u8() else { return false };
                                    if v == 255 {
                                        NO_NEXT
                                    } else {
                                        v as u16
                                    }
                                };
                                let idx = i as usize * n + j0 as usize + k;
                                if let Some(slot) = self.next_cells.get_mut(idx) {
                                    *slot = Some(v);
                                }
                            }
                        }
                        _ => return false,
                    }
                }
                true
            }

            pub fn cell(&self, from: RegionId, to: RegionId) -> Option<u16> {
                let n = self.num_regions?;
                self.next_cells[from as usize * n + to as usize]
            }
        }
    }

    /// The flat decoder against the oracle, packet by packet, on narrow
    /// and wide copies whose packets arrive whole, cut short, bit-flipped
    /// or replaced by arbitrary bytes behind a plausible header. The flat
    /// decoder is reused across two copies, as the client reuses it
    /// across hops; the oracle starts fresh for each.
    mod flat_matches_oracle {
        use super::oracle::OracleDecoder;
        use super::*;
        use proptest::prelude::*;

        /// A local index of `n` regions whose cells, splits and offsets
        /// are a hash of `seed`; about one cell in seven is [`NO_NEXT`].
        fn hashed(region: RegionId, n: usize, seed: u64) -> NrLocalIndex {
            let h = |k: u64| {
                let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z ^ (z >> 31)
            };
            NrLocalIndex {
                region,
                num_regions: n,
                splits: (0..n - 1).map(|i| h(i as u64) as f64 / 7.0).collect(),
                next: (0..n * n)
                    .map(|k| match h(k as u64 + 1_000_000) {
                        v if v % 7 == 0 => NO_NEXT,
                        v => (v % n as u64) as u16,
                    })
                    .collect(),
                offsets: (0..n)
                    .map(|r| NrOffsetEntry {
                        data_offset: h(r as u64 + 5_000_000) as u32,
                        cross_packets: r as u16,
                        local_packets: (r / 3) as u16,
                    })
                    .collect(),
            }
        }

        /// What happens to one packet: arrives whole, cut at a byte,
        /// with a bit flipped, or its body replaced by arbitrary bytes.
        fn mangled(payload: &[u8], mode: u8, at: usize, junk: &[u8]) -> Vec<u8> {
            let mut p = payload.to_vec();
            match mode {
                0 => {}
                1 => p.truncate(at % (p.len() + 1)),
                2 => {
                    let b = at % (p.len() * 8);
                    p[b / 8] ^= 1 << (b % 8);
                }
                _ => {
                    p.truncate(HEADER_LEN);
                    p.extend_from_slice(junk);
                }
            }
            p
        }

        fn assert_same(flat: &NrIndexDecoder, oracle: &OracleDecoder) {
            assert_eq!(flat.region, oracle.region, "region");
            assert_eq!(flat.total_packets, oracle.total_packets, "total");
            assert_eq!(flat.num_regions, oracle.num_regions, "region count");
            let n = oracle.num_regions.unwrap_or(0) as RegionId;
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(flat.cell(i, j), oracle.cell(i, j), "cell ({i}, {j})");
                }
            }
        }

        /// Feeds `picks` packets of two copies to both decoders.
        fn run(n: usize, seed: u64, picks: &[(usize, u8, usize, Vec<u8>)]) {
            let mut flat = NrIndexDecoder::new();
            let mut flat_shared = NrSharedState::default();
            let mut oracle_shared = NrSharedState::default();
            for copy in 0..2u16 {
                let payloads = hashed(copy, n, seed ^ copy as u64).encode().unwrap();
                flat.reset();
                let mut oracle = OracleDecoder::default();
                for (pick, mode, at, junk) in picks {
                    let p = mangled(&payloads[pick % payloads.len()], *mode, *at, junk);
                    let want = oracle.ingest(&p, &mut oracle_shared);
                    assert_eq!(flat.ingest(&p, &mut flat_shared), want, "accepted");
                    assert_same(&flat, &oracle);
                    // Flipped bits can make a split NaN: compare bits.
                    let bits = |v: &[Option<f64>]| -> Vec<Option<u64>> {
                        v.iter().map(|s| s.map(f64::to_bits)).collect()
                    };
                    assert_eq!(bits(&flat_shared.splits), bits(&oracle_shared.splits));
                    assert_eq!(flat_shared.offsets, oracle_shared.offsets, "offsets");
                }
            }
        }

        fn picks(max: usize) -> impl Strategy<Value = Vec<(usize, u8, usize, Vec<u8>)>> {
            let pick = (
                0usize..4096,
                0u8..4,
                0usize..2048,
                proptest::collection::vec(any::<u8>(), 0..118),
            );
            proptest::collection::vec(pick, 1..max)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn narrow_copies(n in 1usize..=255, seed in any::<u64>(), picks in picks(24)) {
                run(n, seed, &picks);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            #[test]
            fn wide_copies(n in 256usize..=300, seed in any::<u64>(), picks in picks(10)) {
                run(n, seed, &picks);
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
                let mut dec = NrIndexDecoder::new();
                let mut shared = NrSharedState::default();
                let _ = dec.ingest(&payload, &mut shared);
                let _ = shared.complete_splits();
            }

            #[test]
            fn corrupted_real_payloads_never_panic(
                cut in 0usize..256,
                bit in 0usize..(1 << 11),
            ) {
                for payload in sample(3, 16).encode().unwrap() {
                    let mut dec = NrIndexDecoder::new();
                    let mut shared = NrSharedState::default();
                    let _ = dec.ingest(&payload[..cut.min(payload.len())], &mut shared);
                    let mut flipped = payload.to_vec();
                    let b = bit % (flipped.len() * 8);
                    flipped[b / 8] ^= 1 << (b % 8);
                    let mut dec = NrIndexDecoder::new();
                    let mut shared = NrSharedState::default();
                    let _ = dec.ingest(&flipped, &mut shared);
                    let _ = shared.complete_splits();
                }
            }
        }

        /// Hostile header region counts: zero (would underflow the
        /// shared `n - 1` split store) and u16::MAX (would blow up the
        /// `n * n` next-cell matrix) must be typed rejects.
        #[test]
        fn hostile_region_counts_are_rejected() {
            let payload = sample(3, 16).encode().unwrap().remove(0);
            for n in [0u16, u16::MAX] {
                let mut hostile = payload.to_vec();
                hostile[7..9].copy_from_slice(&n.to_le_bytes());
                let mut dec = NrIndexDecoder::new();
                let mut shared = NrSharedState::default();
                assert!(!dec.ingest(&hostile, &mut shared), "n={n}");
                assert!(shared.splits.is_empty(), "n={n}: no allocation");
            }
        }
    }
}
