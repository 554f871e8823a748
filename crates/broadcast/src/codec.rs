//! Record-aligned payload encoding.
//!
//! Broadcast content is a sequence of *records* (a node's adjacency list,
//! one w×w square of EB's distance matrix, one row range of an NR local
//! index, ...). Records never straddle packet boundaries: §6.2 argues for
//! placing separable pieces of information in separate packets so that one
//! lost packet costs only the records inside it. [`RecordWriter`] enforces
//! the discipline at encode time; [`PayloadReader`] is the matching
//! little-endian cursor used by the simulated clients to decode payloads
//! they received.

use crate::packet::PAYLOAD_CAPACITY;
use bytes::Bytes;
use std::fmt;

/// A value that does not fit the fixed-width wire field an encoder is
/// writing it into. The air-index encoders use the checked converters
/// below instead of silent `as` truncation: a world too large for a
/// format fails loudly with the field name, never with a wrapped
/// counter and a corrupt index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeError {
    /// Wire-field name, e.g. `"hiti se path start"`.
    pub field: &'static str,
    /// The value that overflowed.
    pub value: u64,
    /// Largest value the field can carry.
    pub max: u64,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "encode overflow: {} = {} exceeds wire field max {}",
            self.field, self.value, self.max
        )
    }
}

impl std::error::Error for EncodeError {}

/// Checked `usize` → `u8` wire conversion.
pub fn u8_of(value: usize, field: &'static str) -> Result<u8, EncodeError> {
    u8::try_from(value).map_err(|_| EncodeError {
        field,
        value: value as u64,
        max: u8::MAX as u64,
    })
}

/// Checked `usize` → `u16` wire conversion.
pub fn u16_of(value: usize, field: &'static str) -> Result<u16, EncodeError> {
    u16::try_from(value).map_err(|_| EncodeError {
        field,
        value: value as u64,
        max: u16::MAX as u64,
    })
}

/// Checked `usize` → `u32` wire conversion.
pub fn u32_of(value: usize, field: &'static str) -> Result<u32, EncodeError> {
    u32::try_from(value).map_err(|_| EncodeError {
        field,
        value: value as u64,
        max: u32::MAX as u64,
    })
}

/// Splits a byte stream into packet payloads along record boundaries.
#[derive(Debug)]
pub struct RecordWriter {
    capacity: usize,
    payloads: Vec<Bytes>,
    current: Vec<u8>,
}

impl Default for RecordWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl RecordWriter {
    /// Writer with the standard payload capacity.
    pub fn new() -> Self {
        Self::with_capacity(PAYLOAD_CAPACITY)
    }

    /// Writer with a custom capacity (tests use small capacities).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            capacity,
            payloads: Vec::new(),
            current: Vec::with_capacity(capacity),
        }
    }

    /// Appends one record. Panics if the record alone exceeds a payload —
    /// encoders must split their records below the capacity.
    pub fn push_record(&mut self, rec: &[u8]) {
        assert!(
            rec.len() <= self.capacity,
            "record of {} bytes exceeds payload capacity {}",
            rec.len(),
            self.capacity
        );
        if self.current.len() + rec.len() > self.capacity {
            self.flush();
        }
        self.current.extend_from_slice(rec);
    }

    /// Ends the current packet (subsequent records start a new one).
    pub fn flush(&mut self) {
        if !self.current.is_empty() {
            self.payloads
                .push(Bytes::from(std::mem::take(&mut self.current)));
        }
    }

    /// Number of payloads produced so far if finished now.
    pub fn packet_count(&self) -> usize {
        self.payloads.len() + usize::from(!self.current.is_empty())
    }

    /// Finishes and returns the payloads.
    pub fn finish(mut self) -> Vec<Bytes> {
        self.flush();
        self.payloads
    }
}

/// Little-endian read cursor over one payload.
///
/// Every accessor is `#[inline]`: the clients that decode with it live in
/// other crates, and without LTO a non-generic method is not inlined
/// across a crate boundary, which left each field read a call.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Wraps a payload.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the payload is exhausted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    /// Takes the next `N` bytes as a fixed array. Panic-free: bounds are
    /// the only failure, reported as `None` — this reader decodes bytes
    /// received off the air, where truncation must be a typed miss, not
    /// a crash.
    #[inline]
    fn take_array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let s = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(s);
        Some(out)
    }

    /// Reads a `u8`.
    #[inline]
    pub fn read_u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn read_u16(&mut self) -> Option<u16> {
        self.take_array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn read_u32(&mut self) -> Option<u32> {
        self.take_array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn read_u64(&mut self) -> Option<u64> {
        self.take_array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `f32`.
    #[inline]
    pub fn read_f32(&mut self) -> Option<f32> {
        self.take_array().map(f32::from_le_bytes)
    }

    /// Reads a little-endian `f64`.
    #[inline]
    pub fn read_f64(&mut self) -> Option<f64> {
        self.take_array().map(f64::from_le_bytes)
    }
}

/// Record-construction helper mirroring [`PayloadReader`].
#[derive(Debug, Default)]
pub struct RecordBuf {
    bytes: Vec<u8>,
}

impl RecordBuf {
    /// Empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.bytes.push(v);
        self
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `f32`.
    pub fn put_f32(&mut self, v: f32) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `f64`.
    pub fn put_f64(&mut self, v: f64) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Current encoded size.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if nothing was written.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The raw bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// Clears for reuse.
    pub fn clear(&mut self) {
        self.bytes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_never_straddle_packets() {
        let mut w = RecordWriter::with_capacity(10);
        for i in 0..20u8 {
            w.push_record(&[i; 4]);
        }
        let payloads = w.finish();
        // 2 records of 4 bytes fit per 10-byte payload.
        assert_eq!(payloads.len(), 10);
        for p in &payloads {
            assert_eq!(p.len() % 4, 0);
            assert!(p.len() <= 10);
        }
    }

    #[test]
    fn explicit_flush_starts_new_packet() {
        let mut w = RecordWriter::with_capacity(100);
        w.push_record(b"abc");
        w.flush();
        w.push_record(b"def");
        let payloads = w.finish();
        assert_eq!(payloads.len(), 2);
        assert_eq!(&payloads[0][..], b"abc");
        assert_eq!(&payloads[1][..], b"def");
    }

    #[test]
    #[should_panic(expected = "exceeds payload capacity")]
    fn oversized_record_panics() {
        let mut w = RecordWriter::with_capacity(4);
        w.push_record(&[0; 5]);
    }

    #[test]
    fn packet_count_tracks_pending() {
        let mut w = RecordWriter::with_capacity(8);
        assert_eq!(w.packet_count(), 0);
        w.push_record(&[0; 4]);
        assert_eq!(w.packet_count(), 1);
        w.push_record(&[0; 4]);
        assert_eq!(w.packet_count(), 1);
        w.push_record(&[0; 4]);
        assert_eq!(w.packet_count(), 2);
    }

    #[test]
    fn reader_round_trips_all_types() {
        let mut r = RecordBuf::new();
        r.put_u8(7)
            .put_u16(300)
            .put_u32(70_000)
            .put_u64(1 << 40)
            .put_f32(1.5)
            .put_f64(-2.25);
        let mut rd = PayloadReader::new(r.as_slice());
        assert_eq!(rd.read_u8(), Some(7));
        assert_eq!(rd.read_u16(), Some(300));
        assert_eq!(rd.read_u32(), Some(70_000));
        assert_eq!(rd.read_u64(), Some(1 << 40));
        assert_eq!(rd.read_f32(), Some(1.5));
        assert_eq!(rd.read_f64(), Some(-2.25));
        assert!(rd.is_empty());
        assert_eq!(rd.read_u8(), None);
    }

    #[test]
    fn checked_converters_accept_max_and_reject_above() {
        assert_eq!(u16_of(65_535, "count"), Ok(65_535));
        let e = u16_of(65_536, "count").unwrap_err();
        assert_eq!((e.field, e.value, e.max), ("count", 65_536, 65_535));
        assert!(e.to_string().contains("count"));
        assert_eq!(u8_of(255, "len"), Ok(255));
        assert!(u8_of(256, "len").is_err());
        assert_eq!(u32_of(u32::MAX as usize, "off"), Ok(u32::MAX));
        assert!(u32_of(u32::MAX as usize + 1, "off").is_err());
    }

    #[test]
    fn reader_short_buffer_returns_none() {
        let buf = [1u8, 2, 3];
        let mut rd = PayloadReader::new(&buf);
        assert_eq!(rd.read_u32(), None);
        assert_eq!(rd.read_u16(), Some(0x0201));
        assert_eq!(rd.remaining(), 1);
    }
}
