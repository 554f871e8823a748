//! The wire format: one frame codec for both loopback transports.
//!
//! A *frame body* is the same byte sequence everywhere, and both
//! transports delimit bodies the same way: a little-endian `u16` length
//! prefix. TCP carries one unbroken stream of prefixed frames
//! ([`StreamDecoder`] reassembles them from arbitrary chunk boundaries);
//! a UDP datagram carries one or more of them, packed by [`Datagram`] up
//! to [`MAX_DATAGRAM`] bytes and split again by [`decode_datagram`]. The
//! daemon queues its data frames as a [`DataRun`] on both transports: a
//! TCP batch, or datagrams of [`DATA_SEGMENT`] bytes end to end for one
//! segmented send, which the client cuts back into its datagrams with
//! [`split_run`].
//!
//! ```text
//! 0..2   magic  "SP"
//! 2      version (2)
//! 3      kind
//! 4..    kind-specific fields
//! tail   CRC-32 (LE) over everything before it
//! ```
//!
//! The CRC is [`spair_broadcast::packet::crc32`] — the same IEEE 802.3
//! polynomial the 128-byte packet images are checked with, so the data
//! plane is covered end to end by one error model. Decoding is total:
//! every way a frame can be wrong maps to a typed [`FrameError`]; no
//! input slice panics, and no frame is ever half-applied. Every frame of
//! a datagram carries its own CRC, so a damaged frame costs only itself
//! and the frames after it in the same datagram.

use spair_broadcast::packet::{crc32, Packet, PACKET_SIZE, PAYLOAD_CAPACITY};
use spair_methods::ClientBootstrap;
use spair_roadnet::Point;

/// Frame magic: `"SP"`.
pub const MAGIC: [u8; 2] = *b"SP";

/// Wire protocol version (2: datagrams carry length-prefixed frames).
pub const VERSION: u8 = 2;

/// Smallest well-formed frame body (header + CRC).
pub const MIN_FRAME: usize = 4 + 4;

/// Largest well-formed frame body (a Hello with a maximal method name
/// still fits; the data frame is 150 bytes).
pub const MAX_FRAME: usize = 512;

/// Largest UDP datagram the daemon sends: an Ethernet MTU less the IPv4
/// and UDP headers, so a datagram never fragments. Nine prefixed data
/// frames fit.
pub const MAX_DATAGRAM: usize = 1472;

/// Why a byte sequence is not a frame. Every variant is a *diagnosis*:
/// the serving daemon dead-letters the offending bytes under it and the
/// proptests in `tests/frame_props.rs` assert the taxonomy is total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than the minimal header + CRC.
    TooShort(usize),
    /// Longer than any defined frame.
    Oversized(usize),
    /// First two bytes are not `"SP"`.
    BadMagic,
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown frame kind byte.
    UnknownKind(u8),
    /// The CRC tail does not match the body.
    BadCrc,
    /// A field extends past the end of the body.
    Truncated,
    /// Bytes remain after the last field of the frame.
    Trailing(usize),
    /// A data frame declares a payload longer than a packet holds.
    BadPayloadLen(u16),
    /// The embedded 128-byte packet image has an unknown packet kind.
    BadPacket,
    /// A method name is not valid UTF-8.
    BadText,
    /// Unknown transport tag in a Hello.
    BadTransport(u8),
    /// An enum-valued field carries an undefined tag.
    BadTag(u8),
    /// A `u16` length prefix on the stream is outside frame bounds —
    /// the stream is poisoned and must be closed.
    BadStreamLength(u16),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooShort(n) => write!(f, "frame too short ({n} bytes)"),
            FrameError::Oversized(n) => write!(f, "frame too long ({n} bytes)"),
            FrameError::BadMagic => f.write_str("bad frame magic"),
            FrameError::BadVersion(v) => write!(f, "unknown protocol version {v}"),
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::BadCrc => f.write_str("frame CRC mismatch"),
            FrameError::Truncated => f.write_str("frame field truncated"),
            FrameError::Trailing(n) => write!(f, "{n} trailing bytes after frame"),
            FrameError::BadPayloadLen(n) => write!(f, "payload length {n} exceeds capacity"),
            FrameError::BadPacket => f.write_str("embedded packet image undecodable"),
            FrameError::BadText => f.write_str("method name is not UTF-8"),
            FrameError::BadTransport(t) => write!(f, "unknown transport tag {t}"),
            FrameError::BadTag(t) => write!(f, "undefined field tag {t}"),
            FrameError::BadStreamLength(n) => write!(f, "stream length prefix {n} out of bounds"),
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// Stable machine tag for dead-letter entries.
    pub fn tag(&self) -> &'static str {
        match self {
            FrameError::TooShort(_) => "too_short",
            FrameError::Oversized(_) => "oversized",
            FrameError::BadMagic => "bad_magic",
            FrameError::BadVersion(_) => "bad_version",
            FrameError::UnknownKind(_) => "unknown_kind",
            FrameError::BadCrc => "bad_crc",
            FrameError::Truncated => "truncated",
            FrameError::Trailing(_) => "trailing",
            FrameError::BadPayloadLen(_) => "bad_payload_len",
            FrameError::BadPacket => "bad_packet",
            FrameError::BadText => "bad_text",
            FrameError::BadTransport(_) => "bad_transport",
            FrameError::BadTag(_) => "bad_tag",
            FrameError::BadStreamLength(_) => "bad_stream_length",
        }
    }
}

/// Why an admission request was turned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RejectReason {
    /// No registered method has the requested name.
    UnknownMethod = 0,
    /// The method exists but is not served (no cycle / not an air
    /// client).
    NotServed = 1,
    /// The daemon is shutting down.
    ShuttingDown = 2,
    /// The Hello itself was malformed.
    Protocol = 3,
}

impl RejectReason {
    /// Parses the wire tag (unknown tags collapse to `Protocol`, which
    /// is already "something is wrong on the other side").
    pub fn from_u8(b: u8) -> Self {
        match b {
            0 => RejectReason::UnknownMethod,
            1 => RejectReason::NotServed,
            2 => RejectReason::ShuttingDown,
            _ => RejectReason::Protocol,
        }
    }
}

/// Why a session ended — the typed reason both peers log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CloseReason {
    /// The client completed its download and hung up.
    Done = 0,
    /// The daemon evicted a slow consumer (backpressure).
    EvictedSlowConsumer = 1,
    /// The daemon is shutting down (SIGINT / supervisor stop).
    DaemonShutdown = 2,
    /// The peer violated the protocol.
    ProtocolError = 3,
    /// The daemon streamed its lap budget without the client closing.
    Expired = 4,
}

impl CloseReason {
    /// Parses the wire tag.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(CloseReason::Done),
            1 => Some(CloseReason::EvictedSlowConsumer),
            2 => Some(CloseReason::DaemonShutdown),
            3 => Some(CloseReason::ProtocolError),
            4 => Some(CloseReason::Expired),
            _ => None,
        }
    }

    /// Stable label for event-log lines.
    pub fn label(&self) -> &'static str {
        match self {
            CloseReason::Done => "done",
            CloseReason::EvictedSlowConsumer => "evicted_slow",
            CloseReason::DaemonShutdown => "daemon_shutdown",
            CloseReason::ProtocolError => "protocol_error",
            CloseReason::Expired => "expired",
        }
    }
}

/// A client's admission request.
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// Registry name of the method whose cycle to stream.
    pub method: String,
    /// 0 = data on this TCP connection, 1 = data as UDP datagrams.
    pub transport: u8,
    /// Where the client listens for datagrams (UDP transport only).
    pub udp_port: u16,
    /// Requested tune-in offset (absolute slot numbering starts here).
    pub offset: u64,
}

/// The daemon's admission reply: the session handle, the cycle length
/// and the method's a-priori client bootstrap blob.
#[derive(Debug, Clone, PartialEq)]
pub struct Admit {
    /// Session id (echoed in every data frame).
    pub session: u32,
    /// Packets per cycle.
    pub cycle_len: u64,
    /// The method's [`ClientBootstrap`].
    pub bootstrap: ClientBootstrap,
}

/// One cycle packet on the wire.
#[derive(Debug, Clone)]
pub struct DataFrame {
    /// Session the frame belongs to.
    pub session: u32,
    /// Absolute slot number (cycle position = `slot % cycle_len`).
    pub slot: u64,
    /// The decoded packet.
    pub packet: Packet,
}

/// A typed session termination, flowing either direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Close {
    /// Session being closed.
    pub session: u32,
    /// Why.
    pub reason: CloseReason,
    /// Client-observed datagram gaps (0 from the server side).
    pub drops: u64,
    /// Laps the client listened through (0 from the server side).
    pub laps: u32,
}

/// Every frame the protocol defines.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Admission request (client → daemon).
    Hello(Hello),
    /// Admission reply (daemon → client).
    Admit(Admit),
    /// Admission refusal (daemon → client).
    Reject(RejectReason),
    /// One cycle packet (daemon → client).
    Data(DataFrame),
    /// Typed session termination (either direction).
    Close(Close),
}

const KIND_HELLO: u8 = 0;
const KIND_ADMIT: u8 = 1;
const KIND_REJECT: u8 = 2;
const KIND_DATA: u8 = 3;
const KIND_CLOSE: u8 = 4;

/// Bounds-checked little-endian reader over a frame body.
struct Cur<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.i + n > self.b.len() {
            return Err(FrameError::Truncated);
        }
        let s = &self.b[self.i..self.i + n];
        self.i += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8)?.try_into().unwrap(),
        )))
    }

    fn finish(&self) -> Result<(), FrameError> {
        if self.i == self.b.len() {
            Ok(())
        } else {
            Err(FrameError::Trailing(self.b.len() - self.i))
        }
    }
}

/// Appends one frame body to `out`. Allocation-free once `out` has
/// room for [`MAX_FRAME`] more bytes.
pub fn encode_into(frame: &Frame, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    match frame {
        Frame::Hello(h) => {
            out.push(KIND_HELLO);
            let name = h.method.as_bytes();
            assert!(name.len() <= u8::MAX as usize, "method name too long");
            out.push(name.len() as u8);
            out.extend_from_slice(name);
            out.push(h.transport);
            out.extend_from_slice(&h.udp_port.to_le_bytes());
            out.extend_from_slice(&h.offset.to_le_bytes());
        }
        Frame::Admit(a) => {
            out.push(KIND_ADMIT);
            out.extend_from_slice(&a.session.to_le_bytes());
            out.extend_from_slice(&a.cycle_len.to_le_bytes());
            out.extend_from_slice(&(a.bootstrap.num_regions as u32).to_le_bytes());
            match a.bootstrap.bbox {
                None => out.push(0),
                Some((lo, hi)) => {
                    out.push(1);
                    for v in [lo.x, lo.y, hi.x, hi.y] {
                        out.extend_from_slice(&v.to_bits().to_le_bytes());
                    }
                }
            }
        }
        Frame::Reject(r) => {
            out.push(KIND_REJECT);
            out.push(*r as u8);
        }
        Frame::Data(d) => {
            out.push(KIND_DATA);
            out.extend_from_slice(&d.session.to_le_bytes());
            out.extend_from_slice(&d.slot.to_le_bytes());
            out.extend_from_slice(&(d.packet.payload().len() as u16).to_le_bytes());
            out.extend_from_slice(&d.packet.to_wire());
        }
        Frame::Close(c) => {
            out.push(KIND_CLOSE);
            out.extend_from_slice(&c.session.to_le_bytes());
            out.push(c.reason as u8);
            out.extend_from_slice(&c.drops.to_le_bytes());
            out.extend_from_slice(&c.laps.to_le_bytes());
        }
    }
    let c = crc32(&out[start..]);
    out.extend_from_slice(&c.to_le_bytes());
    debug_assert!(out.len() - start <= MAX_FRAME);
}

/// Encodes one frame body.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAX_FRAME);
    encode_into(frame, &mut out);
    out
}

/// Appends one frame to `out` with its `u16` length prefix — the
/// delimiting of the TCP stream and of every frame in a datagram.
pub fn encode_stream_into(frame: &Frame, out: &mut Vec<u8>) {
    let at = out.len();
    out.extend_from_slice(&[0, 0]);
    encode_into(frame, out);
    let len = (out.len() - at - 2) as u16;
    out[at..at + 2].copy_from_slice(&len.to_le_bytes());
}

/// Encodes a frame for the TCP stream (length prefix + body).
pub fn encode_stream(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + MAX_FRAME);
    encode_stream_into(frame, &mut out);
    out
}

/// Bytes of a data frame body before its tail: magic, version, kind,
/// session and slot — the only bytes that differ between sessions.
const DATA_HEAD: usize = 16;

/// Bytes of a data frame's tail: the `u16` payload length and the
/// 128-byte packet image, the same for every session and lap.
const DATA_TAIL: usize = 2 + PACKET_SIZE;

/// Bytes of a data frame body: head, tail and CRC.
pub const DATA_FRAME: usize = DATA_HEAD + DATA_TAIL + 4;

/// Length-prefixed data frames that fit one [`MAX_DATAGRAM`]: nine.
pub const DATAGRAM_FRAMES: usize = MAX_DATAGRAM / (2 + DATA_FRAME);

/// Bytes of a UDP datagram full of data frames: [`DATAGRAM_FRAMES`]
/// length-prefixed data frames, 1 368 bytes.
pub const DATA_SEGMENT: usize = DATAGRAM_FRAMES * (2 + DATA_FRAME);

/// Advances a CRC-32 register through [`DATA_TAIL`] zero bytes, one
/// table per register byte: the operator is linear, so a register's
/// shift is the XOR of its bytes' shifts. Each table entry is the XOR of
/// the shifted basis bits its byte sets; a basis bit is shifted one zero
/// bit at a time.
const TAIL_SHIFT: [[u32; 256]; 4] = {
    let mut basis = [0u32; 32];
    let mut j = 0;
    while j < 32 {
        let mut c = 1u32 << j;
        let mut bit = 0;
        while bit < 8 * DATA_TAIL {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        basis[j] = c;
        j += 1;
    }
    let mut t = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            let mut v = 0;
            let mut j = 0;
            while j < 8 {
                if b & (1 << j) != 0 {
                    v ^= basis[8 * k + j];
                }
                j += 1;
            }
            t[k][b] = v;
            b += 1;
        }
        k += 1;
    }
    t
};

/// `crc32(H ‖ T)` from `crc32(H)` and `crc32(T)` for any `T` of
/// [`DATA_TAIL`] bytes: zlib's `crc32_combine` at a fixed length.
fn combine_tail(head: u32, tail: u32) -> u32 {
    let [b0, b1, b2, b3] = head.to_le_bytes();
    TAIL_SHIFT[0][b0 as usize]
        ^ TAIL_SHIFT[1][b1 as usize]
        ^ TAIL_SHIFT[2][b2 as usize]
        ^ TAIL_SHIFT[3][b3 as usize]
        ^ tail
}

/// One cycle packet's data frame, encoded once and stamped per session:
/// the frame's tail (payload length and packet image) and its CRC. A
/// streamer writes the 16-byte head of its session and slot in front
/// and combines the two CRCs, so the bytes equal
/// [`encode_stream_into`] of the same [`Frame::Data`] without encoding
/// the packet again.
#[derive(Debug, Clone)]
pub struct DataTail {
    bytes: [u8; DATA_TAIL],
    crc: u32,
}

impl DataTail {
    /// Encodes `packet`'s tail.
    pub fn new(packet: &Packet) -> Self {
        let mut bytes = [0u8; DATA_TAIL];
        bytes[..2].copy_from_slice(&(packet.payload().len() as u16).to_le_bytes());
        bytes[2..].copy_from_slice(&packet.to_wire());
        Self {
            crc: crc32(&bytes),
            bytes,
        }
    }

    /// Appends the length-prefixed data frame of `session` and `slot`.
    pub fn stream_into(&self, session: u32, slot: u64, out: &mut Vec<u8>) {
        let mut head = [0u8; DATA_HEAD];
        head[..2].copy_from_slice(&MAGIC);
        head[2] = VERSION;
        head[3] = KIND_DATA;
        head[4..8].copy_from_slice(&session.to_le_bytes());
        head[8..].copy_from_slice(&slot.to_le_bytes());
        let crc = combine_tail(crc32(&head), self.crc);
        out.reserve(2 + DATA_FRAME);
        out.extend_from_slice(&(DATA_FRAME as u16).to_le_bytes());
        out.extend_from_slice(&head);
        out.extend_from_slice(&self.bytes);
        out.extend_from_slice(&crc.to_le_bytes());
    }
}

/// A UDP datagram being packed: length-prefixed frames, never more than
/// [`MAX_DATAGRAM`] bytes. Reuse one across sends with
/// [`Datagram::clear`]; packing never allocates.
#[derive(Debug)]
pub struct Datagram {
    buf: Vec<u8>,
    frames: usize,
}

impl Default for Datagram {
    fn default() -> Self {
        Self::new()
    }
}

impl Datagram {
    /// An empty datagram.
    pub fn new() -> Self {
        Self {
            // Room for a frame that overflows and is taken back out.
            buf: Vec::with_capacity(MAX_DATAGRAM + 2 + MAX_FRAME),
            frames: 0,
        }
    }

    /// Appends `frame` if it still fits; otherwise leaves the datagram
    /// as it was and returns `false`. Any frame fits an empty datagram.
    pub fn push(&mut self, frame: &Frame) -> bool {
        let at = self.buf.len();
        encode_stream_into(frame, &mut self.buf);
        if self.buf.len() > MAX_DATAGRAM {
            self.buf.truncate(at);
            return false;
        }
        self.frames += 1;
        true
    }

    /// The datagram's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Frames packed so far.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Whether no frame is packed.
    pub fn is_empty(&self) -> bool {
        self.frames == 0
    }

    /// Empties the datagram, keeping its buffer.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.frames = 0;
    }
}

/// Consecutive length-prefixed data frames, queued for one send: a batch
/// of the TCP stream, or a run of UDP datagrams for one segmented send,
/// where every [`DATA_SEGMENT`] bytes is one datagram and only the last
/// may be shorter. [`split_run`] at [`DATA_SEGMENT`] gives back the
/// datagrams [`Datagram::push`] packs from the same frames one datagram
/// at a time. Reuse one across sends with [`DataRun::clear`].
#[derive(Debug, Default)]
pub struct DataRun {
    buf: Vec<u8>,
}

impl DataRun {
    /// An empty run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the data frame `tail` stamps for `session` and `slot`.
    pub fn push_data(&mut self, tail: &DataTail, session: u32, slot: u64) {
        tail.stream_into(session, slot, &mut self.buf);
    }

    /// The run's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Frames packed so far.
    pub fn frames(&self) -> usize {
        self.buf.len() / (2 + DATA_FRAME)
    }

    /// Whether no frame is packed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Empties the run, keeping its buffer.
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

/// Cuts a run of datagrams received whole back into its datagrams of
/// `segment` bytes (only the last may be shorter). An empty run is one
/// empty datagram, which [`decode_datagram`] types.
pub fn split_run(run: &[u8], segment: usize) -> impl Iterator<Item = &[u8]> {
    let empty: &[u8] = &[];
    run.chunks(segment.max(1))
        .chain(run.is_empty().then_some(empty))
}

/// Decodes one frame body. Total: every input is either a frame or a
/// typed error.
pub fn decode(body: &[u8]) -> Result<Frame, FrameError> {
    if body.len() < MIN_FRAME {
        return Err(FrameError::TooShort(body.len()));
    }
    if body.len() > MAX_FRAME {
        return Err(FrameError::Oversized(body.len()));
    }
    let (payload, tail) = body.split_at(body.len() - 4);
    let crc = u32::from_le_bytes(tail.try_into().unwrap());
    if crc32(payload) != crc {
        return Err(FrameError::BadCrc);
    }
    if payload[0..2] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    if payload[2] != VERSION {
        return Err(FrameError::BadVersion(payload[2]));
    }
    let kind = payload[3];
    let mut cur = Cur { b: payload, i: 4 };
    let frame = match kind {
        KIND_HELLO => {
            let n = cur.u8()? as usize;
            let name = cur.take(n)?;
            let method = std::str::from_utf8(name)
                .map_err(|_| FrameError::BadText)?
                .to_string();
            let transport = cur.u8()?;
            if transport > 1 {
                return Err(FrameError::BadTransport(transport));
            }
            let udp_port = cur.u16()?;
            let offset = cur.u64()?;
            Frame::Hello(Hello {
                method,
                transport,
                udp_port,
                offset,
            })
        }
        KIND_ADMIT => {
            let session = cur.u32()?;
            let cycle_len = cur.u64()?;
            let num_regions = cur.u32()? as usize;
            let bbox = match cur.u8()? {
                0 => None,
                1 => {
                    let (x0, y0, x1, y1) = (cur.f64()?, cur.f64()?, cur.f64()?, cur.f64()?);
                    Some((Point::new(x0, y0), Point::new(x1, y1)))
                }
                t => return Err(FrameError::BadTag(t)),
            };
            Frame::Admit(Admit {
                session,
                cycle_len,
                bootstrap: ClientBootstrap { num_regions, bbox },
            })
        }
        KIND_REJECT => Frame::Reject(RejectReason::from_u8(cur.u8()?)),
        KIND_DATA => {
            let session = cur.u32()?;
            let slot = cur.u64()?;
            let payload_len = cur.u16()?;
            if payload_len as usize > PAYLOAD_CAPACITY {
                return Err(FrameError::BadPayloadLen(payload_len));
            }
            let wire: &[u8; PACKET_SIZE] = cur.take(PACKET_SIZE)?.try_into().unwrap();
            let packet =
                Packet::from_wire(wire, payload_len as usize).ok_or(FrameError::BadPacket)?;
            Frame::Data(DataFrame {
                session,
                slot,
                packet,
            })
        }
        KIND_CLOSE => {
            let session = cur.u32()?;
            let tag = cur.u8()?;
            let reason = CloseReason::from_u8(tag).ok_or(FrameError::BadTag(tag))?;
            let drops = cur.u64()?;
            let laps = cur.u32()?;
            Frame::Close(Close {
                session,
                reason,
                drops,
                laps,
            })
        }
        k => return Err(FrameError::UnknownKind(k)),
    };
    cur.finish()?;
    Ok(frame)
}

/// The length-prefixed frame body at the front of `bytes` (it ends at
/// `2 + body.len()`); `Ok(None)` when the body has not fully arrived. A
/// prefix outside frame bounds is an error: the bytes have lost framing.
fn prefixed_body(bytes: &[u8]) -> Result<Option<&[u8]>, FrameError> {
    let Some(prefix) = bytes.get(..2) else {
        return Ok(None);
    };
    let len = u16::from_le_bytes([prefix[0], prefix[1]]);
    if !(MIN_FRAME..=MAX_FRAME).contains(&(len as usize)) {
        return Err(FrameError::BadStreamLength(len));
    }
    Ok(bytes.get(2..2 + len as usize))
}

/// The frames of one datagram, in order (see [`decode_datagram`]).
#[derive(Debug)]
pub struct DatagramFrames<'a> {
    /// Bytes not yet split; `None` once the datagram has ended.
    rest: Option<&'a [u8]>,
}

/// Splits a datagram into its frames. A frame that fails to decode, or a
/// length prefix that is out of bounds or overruns the datagram, is
/// yielded as its typed error and ends the datagram: the bytes after it
/// have lost framing. An empty datagram is one `TooShort(0)` error.
pub fn decode_datagram(dgram: &[u8]) -> DatagramFrames<'_> {
    DatagramFrames { rest: Some(dgram) }
}

impl Iterator for DatagramFrames<'_> {
    type Item = Result<Frame, FrameError>;

    fn next(&mut self) -> Option<Self::Item> {
        let bytes = self.rest.take()?;
        let res = match prefixed_body(bytes) {
            Ok(Some(body)) => {
                let rest = &bytes[2 + body.len()..];
                self.rest = (!rest.is_empty()).then_some(rest);
                decode(body)
            }
            Ok(None) if bytes.is_empty() => Err(FrameError::TooShort(0)),
            Ok(None) => Err(FrameError::Truncated),
            Err(e) => Err(e),
        };
        if res.is_err() {
            self.rest = None;
        }
        Some(res)
    }
}

/// Reassembles frames from a TCP byte stream fed in arbitrary chunks.
///
/// A frame is surfaced only once its full body has arrived and decoded —
/// there is no partial ingest. Any error poisons the decoder (a stream
/// with a corrupt length prefix has lost framing for good); callers
/// must drop the connection.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    /// Start of the bytes not yet framed; consumed frames are compacted
    /// away on the next [`StreamDecoder::push`].
    start: usize,
    poisoned: bool,
}

impl StreamDecoder {
    /// Fresh decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.start);
        self.start = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Next complete frame, `Ok(None)` if more bytes are needed. A frame
    /// that fails to decode stays unframed, with the bytes after it.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if self.poisoned {
            return Err(FrameError::BadStreamLength(0));
        }
        let res = match prefixed_body(self.unframed()) {
            Ok(None) => return Ok(None),
            Ok(Some(body)) => decode(body).map(|f| (f, 2 + body.len())),
            Err(e) => Err(e),
        };
        self.poisoned = res.is_err();
        res.map(|(f, len)| {
            self.start += len;
            Some(f)
        })
    }

    /// Bytes buffered but not yet framed.
    pub fn unframed(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// How many bytes are buffered but not yet framed.
    pub fn pending(&self) -> usize {
        self.unframed().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use spair_broadcast::packet::PacketKind;

    fn roundtrip(f: Frame) -> Frame {
        decode(&encode(&f)).expect("roundtrip")
    }

    #[test]
    fn hello_roundtrip() {
        let f = roundtrip(Frame::Hello(Hello {
            method: "nr".into(),
            transport: 1,
            udp_port: 40123,
            offset: 987654321,
        }));
        match f {
            Frame::Hello(h) => {
                assert_eq!(h.method, "nr");
                assert_eq!(h.transport, 1);
                assert_eq!(h.udp_port, 40123);
                assert_eq!(h.offset, 987654321);
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn admit_roundtrip_with_bbox() {
        let boot = ClientBootstrap {
            num_regions: 16,
            bbox: Some((Point::new(-1.5, 0.25), Point::new(3.5, 9.0))),
        };
        let f = roundtrip(Frame::Admit(Admit {
            session: 7,
            cycle_len: 4242,
            bootstrap: boot,
        }));
        match f {
            Frame::Admit(a) => {
                assert_eq!(a.session, 7);
                assert_eq!(a.cycle_len, 4242);
                assert_eq!(a.bootstrap, boot);
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn data_roundtrip_preserves_packet() {
        let p = Packet::new(PacketKind::LocalIndex, 99, Bytes::from_static(b"payload"));
        let f = roundtrip(Frame::Data(DataFrame {
            session: 3,
            slot: 1 << 40,
            packet: p.clone(),
        }));
        match f {
            Frame::Data(d) => {
                assert_eq!(d.session, 3);
                assert_eq!(d.slot, 1 << 40);
                assert_eq!(d.packet.kind(), PacketKind::LocalIndex);
                assert_eq!(d.packet.next_index(), 99);
                assert_eq!(d.packet.payload(), p.payload());
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn close_roundtrip() {
        let f = roundtrip(Frame::Close(Close {
            session: 12,
            reason: CloseReason::EvictedSlowConsumer,
            drops: 17,
            laps: 3,
        }));
        match f {
            Frame::Close(c) => {
                assert_eq!(c.reason, CloseReason::EvictedSlowConsumer);
                assert_eq!((c.session, c.drops, c.laps), (12, 17, 3));
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn corrupt_crc_is_typed() {
        let mut b = encode(&Frame::Reject(RejectReason::UnknownMethod));
        let last = b.len() - 5;
        b[last] ^= 0x40;
        assert!(matches!(decode(&b), Err(FrameError::BadCrc)));
    }

    #[test]
    fn stream_decoder_reassembles_split_frames() {
        let mut bytes = Vec::new();
        let frames = [
            Frame::Reject(RejectReason::ShuttingDown),
            Frame::Close(Close {
                session: 1,
                reason: CloseReason::Done,
                drops: 0,
                laps: 1,
            }),
        ];
        for f in &frames {
            bytes.extend_from_slice(&encode_stream(f));
        }
        // Feed one byte at a time: frames appear exactly at boundaries.
        let mut dec = StreamDecoder::new();
        let mut out = 0;
        for b in bytes {
            dec.push(&[b]);
            while let Some(_f) = dec.next_frame().expect("clean stream") {
                out += 1;
            }
        }
        assert_eq!(out, frames.len());
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn nine_data_frames_fill_a_datagram() {
        let data = |slot| {
            Frame::Data(DataFrame {
                session: 1,
                slot,
                packet: Packet::new(PacketKind::Data, 0, Bytes::from_static(b"x")),
            })
        };
        let mut d = Datagram::new();
        for slot in 0..9 {
            assert!(d.push(&data(slot)), "frame {slot} must fit");
        }
        let full = d.as_bytes().to_vec();
        assert!(!d.push(&data(9)), "a tenth data frame overflows");
        assert_eq!(
            d.as_bytes(),
            &full[..],
            "an overflowing push changes nothing"
        );
        assert!(d.as_bytes().len() <= MAX_DATAGRAM);
        let slots: Vec<u64> = decode_datagram(d.as_bytes())
            .map(|f| match f {
                Ok(Frame::Data(f)) => f.slot,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(slots, (0..9).collect::<Vec<_>>());
        d.clear();
        assert!(d.is_empty() && d.as_bytes().is_empty());
    }

    #[test]
    fn tail_shift_combines_crcs() {
        let mut state = 0x5350_u64;
        let mut byte = || {
            state = spair_broadcast::splitmix64(state);
            state as u8
        };
        for head_len in [0, 1, 7, DATA_HEAD, 33] {
            for _ in 0..16 {
                let whole: Vec<u8> = (0..head_len + DATA_TAIL).map(|_| byte()).collect();
                let (head, tail) = whole.split_at(head_len);
                assert_eq!(
                    combine_tail(crc32(head), crc32(tail)),
                    crc32(&whole),
                    "head of {head_len} bytes"
                );
            }
        }
        let zeros = [0u8; DATA_HEAD + DATA_TAIL];
        assert_eq!(
            combine_tail(crc32(&zeros[..DATA_HEAD]), crc32(&zeros[DATA_HEAD..])),
            crc32(&zeros)
        );
    }

    #[test]
    fn empty_datagram_is_typed() {
        let out: Vec<_> = decode_datagram(&[]).collect();
        assert!(matches!(out[..], [Err(FrameError::TooShort(0))]));
    }

    #[test]
    fn hostile_length_prefix_poisons_stream() {
        let mut dec = StreamDecoder::new();
        dec.push(&[0xFF, 0xFF, 0, 0]);
        assert!(matches!(
            dec.next_frame(),
            Err(FrameError::BadStreamLength(0xFFFF))
        ));
        // Poisoned for good — no resynchronization guessing.
        dec.push(&encode_stream(&Frame::Reject(RejectReason::Protocol)));
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn an_empty_run_is_one_empty_datagram() {
        assert_eq!(
            split_run(&[], DATA_SEGMENT).collect::<Vec<_>>(),
            [&[] as &[u8]]
        );
        let run = [7u8; 2 * DATA_SEGMENT + 3];
        let lens: Vec<usize> = split_run(&run, DATA_SEGMENT).map(<[u8]>::len).collect();
        assert_eq!(lens, [DATA_SEGMENT, DATA_SEGMENT, 3]);
        assert_eq!(DATA_SEGMENT, 1368);
    }
}
