//! Fixed-size broadcast packets.
//!
//! The paper fixes the packet size to 128 bytes (§7) and requires that
//! "every packet, regardless of its contents, includes a pointer (offset)
//! to the next copy of the index in the broadcast cycle" (§4.1 for EB;
//! §5.2 needs the analogous pointer to the next *local* index for NR).
//! The header here is 5 bytes — a kind tag plus that 4-byte offset —
//! leaving [`PAYLOAD_CAPACITY`] bytes of payload.

use bytes::Bytes;

/// Total packet size in bytes (paper §7).
pub const PACKET_SIZE: usize = 128;

/// Header: 1 byte kind + 4 bytes next-index offset.
pub const HEADER_SIZE: usize = 5;

/// Payload bytes available per packet.
pub const PAYLOAD_CAPACITY: usize = PACKET_SIZE - HEADER_SIZE;

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `bytes` — the
/// link-layer frame check every real broadcast medium appends. At this
/// frame length (1024 bits « the polynomial's 91607-bit HD-4 bound) it
/// detects **all** 1-, 2- and 3-bit errors, which is what makes injected
/// bit corruption *detectable* rather than silently decoded: a frame
/// whose CRC fails surfaces as [`crate::channel::Received::Corrupted`].
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Slicing-by-8 tables for [`crc32`]: `CRC_TABLES[0]` is the bytewise
/// table of the reflected polynomial `0xEDB8_8320`, and
/// `CRC_TABLES[k][i]` advances `CRC_TABLES[k - 1][i]` by one more zero
/// byte, so eight lookups fold eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Coarse content tag, used by clients to sanity-check what they decode
/// and by tests to assert cycle layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PacketKind {
    /// Global index packets (kd splits, EB matrix, offset table, ...).
    Index = 0,
    /// Region-local index packets (NR's `A^m` arrays).
    LocalIndex = 1,
    /// Network data packets (adjacency records).
    Data = 2,
    /// Auxiliary per-node precomputed info (ArcFlag vectors, landmark
    /// distance vectors, SPQ quadtrees), kept in separate packets from the
    /// adjacency data per §6.2.
    Aux = 3,
    /// Delta-broadcast weight updates for dynamic worlds: versioned edge
    /// patches a client applies to its received arena instead of
    /// re-tuning from scratch.
    Patch = 4,
}

impl PacketKind {
    /// Parses the kind byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(PacketKind::Index),
            1 => Some(PacketKind::LocalIndex),
            2 => Some(PacketKind::Data),
            3 => Some(PacketKind::Aux),
            4 => Some(PacketKind::Patch),
            _ => None,
        }
    }
}

/// One broadcast packet.
///
/// `next_index` is the number of packets between this one and the start of
/// the next index copy (0 = the next packet). A relative offset keeps the
/// pointer meaningful across cycle boundaries, since the same cycle repeats
/// forever.
#[derive(Debug, Clone)]
pub struct Packet {
    kind: PacketKind,
    next_index: u32,
    payload: Bytes,
}

impl Packet {
    /// Creates a packet; panics if the payload exceeds the capacity.
    pub fn new(kind: PacketKind, next_index: u32, payload: Bytes) -> Self {
        assert!(
            payload.len() <= PAYLOAD_CAPACITY,
            "payload {} exceeds capacity {}",
            payload.len(),
            PAYLOAD_CAPACITY
        );
        Self {
            kind,
            next_index,
            payload,
        }
    }

    /// Content tag.
    #[inline]
    pub fn kind(&self) -> PacketKind {
        self.kind
    }

    /// Packets until the next index copy (0 = next packet starts one).
    #[inline]
    pub fn next_index(&self) -> u32 {
        self.next_index
    }

    /// Payload bytes.
    #[inline]
    pub fn payload(&self) -> &Bytes {
        &self.payload
    }

    /// Re-stamps the next-index pointer (done once the final cycle layout
    /// is known).
    pub(crate) fn set_next_index(&mut self, v: u32) {
        self.next_index = v;
    }

    /// The frame's link-layer CRC-32 (over the padded wire image).
    pub fn checksum(&self) -> u32 {
        crc32(&self.to_wire())
    }

    /// Serializes to the 128-byte wire format (zero-padded payload).
    pub fn to_wire(&self) -> [u8; PACKET_SIZE] {
        let mut out = [0u8; PACKET_SIZE];
        out[0] = self.kind as u8;
        out[1..5].copy_from_slice(&self.next_index.to_le_bytes());
        out[HEADER_SIZE..HEADER_SIZE + self.payload.len()].copy_from_slice(&self.payload);
        out
    }

    /// Parses the wire format; `len` gives the meaningful payload length
    /// (the wire format itself is always padded to 128 bytes).
    pub fn from_wire(wire: &[u8; PACKET_SIZE], len: usize) -> Option<Self> {
        let kind = PacketKind::from_u8(wire[0])?;
        let next_index = u32::from_le_bytes(wire[1..5].try_into().ok()?);
        if len > PAYLOAD_CAPACITY {
            return None;
        }
        Some(Self {
            kind,
            next_index,
            payload: Bytes::copy_from_slice(&wire[HEADER_SIZE..HEADER_SIZE + len]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_arithmetic() {
        assert_eq!(PACKET_SIZE, 128);
        assert_eq!(PAYLOAD_CAPACITY, 123);
    }

    #[test]
    fn wire_round_trip() {
        let p = Packet::new(PacketKind::Data, 17, Bytes::from_static(b"hello broadcast"));
        let wire = p.to_wire();
        let q = Packet::from_wire(&wire, p.payload().len()).unwrap();
        assert_eq!(q.kind(), PacketKind::Data);
        assert_eq!(q.next_index(), 17);
        assert_eq!(q.payload(), p.payload());
    }

    #[test]
    fn kind_round_trip() {
        for k in [
            PacketKind::Index,
            PacketKind::LocalIndex,
            PacketKind::Data,
            PacketKind::Aux,
            PacketKind::Patch,
        ] {
            assert_eq!(PacketKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(PacketKind::from_u8(9), None);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn oversized_payload_rejected() {
        Packet::new(
            PacketKind::Data,
            0,
            Bytes::from(vec![0u8; PAYLOAD_CAPACITY + 1]),
        );
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The canonical IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The one-table, one-byte-per-step CRC-32 the sliced version must
    /// reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    proptest::proptest! {
        #[test]
        fn sliced_crc32_matches_bytewise(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..600),
            skip in 0usize..8,
        ) {
            // Every length and every start alignment.
            let tail = &bytes[skip.min(bytes.len())..];
            proptest::prop_assert_eq!(crc32(tail), crc32_bytewise(tail));
        }
    }

    #[test]
    fn checksum_changes_under_any_small_bit_flip() {
        let p = Packet::new(PacketKind::Data, 17, Bytes::from_static(b"hello broadcast"));
        let wire = p.to_wire();
        let base = crc32(&wire);
        assert_eq!(p.checksum(), base);
        for bit in 0..PACKET_SIZE * 8 {
            let mut w = wire;
            w[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&w), base, "single-bit flip at {bit} undetected");
        }
    }

    #[test]
    fn full_payload_accepted() {
        let p = Packet::new(
            PacketKind::Index,
            0,
            Bytes::from(vec![7u8; PAYLOAD_CAPACITY]),
        );
        assert_eq!(p.payload().len(), PAYLOAD_CAPACITY);
    }
}
