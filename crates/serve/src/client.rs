//! The client side: tune in to a running daemon over a real socket,
//! collect one full cycle, rebuild it, and answer queries with the
//! registry's unmodified method clients.
//!
//! The client keeps a slot table of `cycle_len` entries. Every data
//! frame carries an absolute slot number; `slot % cycle_len` is its
//! table position, so a datagram lost on one lap is simply filled by
//! the same position on a later lap. Drops therefore only ever *delay*
//! a session (more laps listened), never change its answer — once the
//! table is full the rebuilt [`BroadcastCycle`] is byte-identical to
//! the one the daemon serves, and the digest of any query run over it
//! matches the in-process run exactly. Only the admitted session's
//! frames are filed: a frame carrying another session id (a closed
//! session's late datagrams reaching a reused port) is counted and
//! dropped. A UDP datagram carries several frames, each with its own
//! CRC; a damaged one ends its datagram, and the checked frames before
//! it are still filed. A UDP client enables `UDP_GRO`, so a run of
//! datagrams the daemon sent as one segmented send arrives as one
//! receive; it is cut back into its datagrams at the segment size the
//! kernel reports, each filed as if it had arrived alone, and the
//! control stream is read once per receive. A daemon `Close`, or the
//! daemon hanging up, ends a UDP session at that read, not at
//! `max_wait`, and fails it only if the datagrams already queued in its
//! socket leave the table incomplete; a hang-up fails it as
//! [`SessionFailure::Io`]. Over TCP, a hang-up before the table fills is
//! the same typed failure, after every frame that arrived before it.

use crate::control::{Control, ControlError};
use crate::frame::{self, Close, CloseReason, DataFrame, Frame, FrameError, Hello, RejectReason};
use crate::sockopt;
use spair_broadcast::{BroadcastChannel, BroadcastCycle, LossModel, Packet};
use spair_core::query::{Query, QueryOutcome};
use spair_methods::{ClientBootstrap, MethodRegistry};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::time::{Duration, Instant};

/// Which transport carries the data frames (admission is always TCP).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Length-prefixed frames on the control connection itself.
    Tcp,
    /// Datagrams of CRC-framed packets to the client's UDP port.
    Udp,
}

impl Transport {
    /// Stable name for logs and bench cells.
    pub fn name(self) -> &'static str {
        match self {
            Transport::Tcp => "tcp",
            Transport::Udp => "udp",
        }
    }

    fn wire(self) -> u8 {
        match self {
            Transport::Tcp => 0,
            Transport::Udp => 1,
        }
    }
}

/// One tune-in session's parameters.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Daemon address.
    pub addr: SocketAddr,
    /// Registry method name (`"nr"`, `"dj"`, ...).
    pub method: String,
    /// Data transport.
    pub transport: Transport,
    /// Absolute tune-in offset (the session's position in the cycle).
    pub offset: u64,
    /// Overall deadline for collecting the cycle.
    pub max_wait: Duration,
}

impl SessionConfig {
    /// An honest lossless session for `method` over `transport`.
    pub fn new(addr: SocketAddr, method: &str, transport: Transport) -> Self {
        Self {
            addr,
            method: method.to_string(),
            transport,
            offset: 0,
            max_wait: Duration::from_secs(30),
        }
    }
}

/// What the client measured while collecting the cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionMetrics {
    /// Session id the daemon assigned.
    pub session: u32,
    /// Microseconds from connect to the `Admit` frame.
    pub admission_us: u64,
    /// Cycle length in packets.
    pub cycle_len: u64,
    /// Data frames received (including duplicates).
    pub frames_rx: u64,
    /// Frames for an already-filled slot.
    pub dups: u64,
    /// Gaps observed in the absolute slot sequence (UDP loss as seen
    /// from the receiver).
    pub observed_drops: u64,
    /// Undecodable frames skipped (UDP only; each is typed and counted,
    /// never ingested, and ends the datagram it came in).
    pub bad_frames: u64,
    /// Data frames of another session, dropped uningested — on UDP, a
    /// closed session's late datagrams reaching a reused port.
    pub foreign_frames: u64,
    /// Laps spanned from the first filed slot to the slot that filled
    /// the table (1 for a session that lost nothing).
    pub laps: u32,
    /// UDP receive buffer the kernel granted, in bytes (0 on TCP, and
    /// off Linux). Below one lap's wire bytes, a burst can overrun it.
    pub rcvbuf_bytes: u64,
    /// Receive calls that returned data: UDP receives (a datagram, or a
    /// run of them coalesced), or reads of the TCP stream, whose first
    /// may carry data frames behind the `Admit`.
    pub recv_calls: u64,
}

/// Why a session did not produce a cycle.
#[derive(Debug)]
pub enum SessionFailure {
    /// The daemon refused admission.
    Rejected(RejectReason),
    /// The daemon evicted this client as a slow consumer.
    Evicted,
    /// The daemon shut down mid-session.
    DaemonShutdown,
    /// The daemon's lap budget ran out before the table filled.
    Expired,
    /// `max_wait` elapsed before the table filled.
    Timeout,
    /// The TCP stream produced an undecodable frame (fatal on a
    /// reliable transport — it means a protocol bug, not loss).
    Frame(FrameError),
    /// Socket-level failure.
    Io(String),
    /// The rebuilt client could not be constructed or errored.
    Query(String),
}

impl std::fmt::Display for SessionFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionFailure::Rejected(r) => write!(f, "admission rejected ({r:?})"),
            SessionFailure::Evicted => write!(f, "evicted as slow consumer"),
            SessionFailure::DaemonShutdown => write!(f, "daemon shut down"),
            SessionFailure::Expired => write!(f, "session expired before cycle completed"),
            SessionFailure::Timeout => write!(f, "deadline elapsed before cycle completed"),
            SessionFailure::Frame(e) => write!(f, "stream framing error: {e}"),
            SessionFailure::Io(e) => write!(f, "socket error: {e}"),
            SessionFailure::Query(e) => write!(f, "client error: {e}"),
        }
    }
}

impl SessionFailure {
    /// Stable snake-case class label, one per variant (the key of a
    /// report's `failure_classes` breakdown).
    pub fn label(&self) -> &'static str {
        match self {
            SessionFailure::Rejected(_) => "rejected",
            SessionFailure::Evicted => "evicted",
            SessionFailure::DaemonShutdown => "daemon_shutdown",
            SessionFailure::Expired => "expired",
            SessionFailure::Timeout => "timeout",
            SessionFailure::Frame(_) => "frame",
            SessionFailure::Io(_) => "io",
            SessionFailure::Query(_) => "query",
        }
    }
}

impl std::error::Error for SessionFailure {}

impl From<std::io::Error> for SessionFailure {
    fn from(e: std::io::Error) -> Self {
        SessionFailure::Io(e.to_string())
    }
}

impl From<ControlError> for SessionFailure {
    fn from(e: ControlError) -> Self {
        match e {
            ControlError::HungUp(kind) => SessionFailure::Io(format!("daemon hung up: {kind}")),
            ControlError::Frame(e) => SessionFailure::Frame(e),
            ControlError::Timeout => SessionFailure::Timeout,
        }
    }
}

fn close_to_failure(reason: CloseReason) -> SessionFailure {
    match reason {
        CloseReason::EvictedSlowConsumer => SessionFailure::Evicted,
        CloseReason::DaemonShutdown => SessionFailure::DaemonShutdown,
        CloseReason::Expired => SessionFailure::Expired,
        CloseReason::Done | CloseReason::ProtocolError => {
            SessionFailure::Query("server closed before cycle completed".into())
        }
    }
}

/// Tracks receive-side slot accounting: table fill, duplicates, and the
/// gap count that surfaces datagram loss to metrics.
struct SlotTable {
    slots: Vec<Option<Packet>>,
    filled: usize,
    first: Option<u64>,
    next_expected: Option<u64>,
}

impl SlotTable {
    fn new(cycle_len: u64) -> Self {
        Self {
            slots: vec![None; cycle_len as usize],
            filled: 0,
            first: None,
            next_expected: None,
        }
    }

    fn ingest(&mut self, slot: u64, packet: Packet, m: &mut SessionMetrics) {
        m.frames_rx += 1;
        if let Some(exp) = self.next_expected {
            if slot > exp {
                m.observed_drops += slot - exp;
            }
        }
        self.first.get_or_insert(slot);
        self.next_expected = Some(slot.saturating_add(1));
        let pos = (slot % self.slots.len() as u64) as usize;
        if self.slots[pos].is_some() {
            m.dups += 1;
        } else {
            self.slots[pos] = Some(packet);
            self.filled += 1;
        }
    }

    fn complete(&self) -> bool {
        self.filled == self.slots.len()
    }

    /// Laps spanned by the slots filed so far: `(last - first) / len + 1`.
    fn laps(&self) -> u32 {
        match (self.first, self.next_expected) {
            (Some(first), Some(next)) => {
                let span = (next - 1).saturating_sub(first);
                (span / self.slots.len() as u64 + 1) as u32
            }
            _ => 0,
        }
    }

    fn into_cycle(self) -> BroadcastCycle {
        BroadcastCycle::from_packets(
            self.slots
                .into_iter()
                .map(|p| p.expect("table complete"))
                .collect(),
        )
    }
}

/// Tunes in, collects one full cycle, closes the session, and returns
/// the rebuilt cycle with its bootstrap and metrics.
pub fn fetch_cycle(
    config: &SessionConfig,
) -> Result<(BroadcastCycle, ClientBootstrap, SessionMetrics), SessionFailure> {
    let started = Instant::now();
    let deadline = started + config.max_wait;
    let udp = match config.transport {
        Transport::Udp => {
            let s = UdpSocket::bind("127.0.0.1:0")?;
            s.set_read_timeout(Some(Duration::from_millis(100)))?;
            // The daemon streams as soon as it admits, before the client
            // has read the cycle length: until then the socket holds all
            // the kernel allows, not the default that a burst overruns.
            sockopt::set_recv_buffer(&s, usize::MAX);
            // Where the kernel refuses, each receive is one datagram.
            sockopt::enable_gro(&s);
            Some(s)
        }
        Transport::Tcp => None,
    };
    let udp_port = udp
        .as_ref()
        .map(|s| s.local_addr().map(|a| a.port()))
        .transpose()?
        .unwrap_or(0);

    let stream = TcpStream::connect_timeout(&config.addr, config.max_wait)?;
    // One read can take a whole batch of the daemon's TCP writes.
    let mut control = Control::new(stream, crate::daemon::TCP_BATCH)?;
    control.send_frame(&Frame::Hello(Hello {
        method: config.method.clone(),
        transport: config.transport.wire(),
        udp_port,
        offset: config.offset,
    }))?;

    let (session, cycle_len, bootstrap) = match control.next(deadline, None)? {
        Frame::Admit(a) => (a.session, a.cycle_len, a.bootstrap),
        Frame::Reject(r) => return Err(SessionFailure::Rejected(r)),
        Frame::Close(c) => return Err(close_to_failure(c.reason)),
        _ => return Err(SessionFailure::Frame(FrameError::UnknownKind(0xFE))),
    };
    if cycle_len == 0 {
        return Err(SessionFailure::Query(
            "daemon advertised empty cycle".into(),
        ));
    }
    let mut metrics = SessionMetrics {
        session,
        admission_us: started.elapsed().as_micros() as u64,
        cycle_len,
        ..SessionMetrics::default()
    };
    let mut table = SlotTable::new(cycle_len);
    match udp {
        None => {
            collect_tcp(&mut control, deadline, &mut table, &mut metrics)?;
            metrics.recv_calls = control.reads();
        }
        Some(sock) => {
            // Room for a whole lap, twice over for the kernel's
            // per-datagram overhead, so a lap that arrives faster than it
            // is read is not dropped in the socket, and no more.
            let lap_bytes = cycle_len.saturating_mul(2 + frame::DATA_FRAME as u64);
            metrics.rcvbuf_bytes =
                sockopt::set_recv_buffer(&sock, lap_bytes.saturating_mul(2) as usize);
            collect_udp(&mut control, &sock, deadline, &mut table, &mut metrics)?;
        }
    }

    metrics.laps = table.laps();
    let _ = control.send_frame(&Frame::Close(Close {
        session,
        reason: CloseReason::Done,
        drops: metrics.observed_drops,
        laps: metrics.laps,
    }));
    Ok((table.into_cycle(), bootstrap, metrics))
}

/// Files one data frame of the admitted session; a frame of any other
/// session is counted and dropped.
fn ingest_data(d: DataFrame, table: &mut SlotTable, metrics: &mut SessionMetrics) {
    if d.session != metrics.session {
        metrics.foreign_frames += 1;
        return;
    }
    table.ingest(d.slot, d.packet, metrics);
}

/// Files the data frames of one datagram until the table is full.
fn ingest_datagram(bytes: &[u8], table: &mut SlotTable, metrics: &mut SessionMetrics) {
    for f in frame::decode_datagram(bytes) {
        if table.complete() {
            break;
        }
        match f {
            Ok(Frame::Data(d)) => ingest_data(d, table, metrics),
            // A corrupt frame is indistinguishable from line noise:
            // typed, counted, skipped — its slot, and those after it in
            // the datagram, heal on a later lap.
            Ok(_) | Err(_) => metrics.bad_frames += 1,
        }
    }
}

fn collect_tcp(
    control: &mut Control,
    deadline: Instant,
    table: &mut SlotTable,
    metrics: &mut SessionMetrics,
) -> Result<(), SessionFailure> {
    while !table.complete() {
        match control.next(deadline, None)? {
            Frame::Data(d) => ingest_data(d, table, metrics),
            Frame::Close(c) => return Err(close_to_failure(c.reason)),
            _ => return Err(SessionFailure::Frame(FrameError::UnknownKind(0xFE))),
        }
    }
    Ok(())
}

/// Bytes one UDP receive takes: the largest datagram, or coalesced run
/// of them, the kernel hands over.
const RUN_BYTES: usize = 1 << 16;

/// Files one UDP receive: a datagram, or a run of datagrams of `segment`
/// bytes coalesced by the kernel, each filed as if it arrived alone.
fn ingest_run(run: &[u8], segment: usize, table: &mut SlotTable, metrics: &mut SessionMetrics) {
    metrics.recv_calls += 1;
    for datagram in frame::split_run(run, segment) {
        ingest_datagram(datagram, table, metrics);
    }
}

/// Files datagrams as they arrive, polling the control stream once per
/// receive. The daemon's `Close`, a malformed control frame or the
/// daemon's hang-up ends the session once the datagrams already queued
/// in the socket are filed: it fails only if they leave the table
/// incomplete.
fn collect_udp(
    control: &mut Control,
    sock: &UdpSocket,
    deadline: Instant,
    table: &mut SlotTable,
    metrics: &mut SessionMetrics,
) -> Result<(), SessionFailure> {
    let mut run = vec![0u8; RUN_BYTES];
    while !table.complete() {
        if Instant::now() > deadline {
            return Err(SessionFailure::Timeout);
        }
        match sockopt::recv_run(sock, &mut run) {
            Ok((n, segment)) => ingest_run(&run[..n], segment, table, metrics),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) => return Err(e.into()),
        }
        let failure = match control.poll() {
            Ok(None) => continue,
            Ok(Some(c)) => close_to_failure(c.reason),
            Err(e) => e.into(),
        };
        sock.set_nonblocking(true)?;
        while let Ok((n, segment)) = sockopt::recv_run(sock, &mut run) {
            ingest_run(&run[..n], segment, table, metrics);
        }
        return if table.complete() {
            Ok(())
        } else {
            Err(failure)
        };
    }
    Ok(())
}

/// Fetches the cycle and answers one query with the registry's remote
/// client — end to end over the socket, byte-identical to an in-process
/// run once the table fills.
pub fn run_query(
    config: &SessionConfig,
    query: &Query,
) -> Result<(QueryOutcome, SessionMetrics), SessionFailure> {
    let (cycle, bootstrap, metrics) = fetch_cycle(config)?;
    let registry = MethodRegistry::standard();
    let id = registry
        .get(&config.method)
        .map_err(|e| SessionFailure::Query(e.to_string()))?;
    let mut client = registry
        .method(id)
        .make_remote_client(&bootstrap)
        .map_err(|e| SessionFailure::Query(e.to_string()))?;
    let mut channel = BroadcastChannel::tune_in(
        &cycle,
        (config.offset % metrics.cycle_len) as usize,
        LossModel::Lossless,
    );
    let outcome = client
        .query(&mut channel, query)
        .map_err(|e| SessionFailure::Query(e.to_string()))?;
    Ok((outcome, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt() -> Packet {
        Packet::new(spair_broadcast::PacketKind::Data, 0, bytes::Bytes::new())
    }

    #[test]
    fn slot_table_wraps_heals_and_counts() {
        let mut m = SessionMetrics::default();
        let mut t = SlotTable::new(4);
        // Lap 0 with slot 2 lost; lap 1 redelivers it.
        for slot in [0u64, 1, 3] {
            t.ingest(slot, pkt(), &mut m);
        }
        assert_eq!(m.observed_drops, 1);
        assert!(!t.complete());
        for slot in [4u64, 5, 6] {
            t.ingest(slot, pkt(), &mut m);
        }
        assert!(t.complete());
        assert_eq!(m.dups, 2); // slots 4 and 5 duplicate 0 and 1
        assert_eq!(m.frames_rx, 6);
    }

    #[test]
    fn one_exact_lap_is_one_lap() {
        let mut m = SessionMetrics::default();
        let mut t = SlotTable::new(4);
        for slot in 9u64..13 {
            t.ingest(slot, pkt(), &mut m);
        }
        assert!(t.complete());
        assert_eq!(t.laps(), 1);
    }

    #[test]
    fn a_session_healed_on_its_second_lap_is_two_laps() {
        let mut m = SessionMetrics::default();
        let mut t = SlotTable::new(4);
        // Slot 2 is lost on lap 0 and filled by slot 6 on lap 1.
        for slot in [0u64, 1, 3, 6] {
            t.ingest(slot, pkt(), &mut m);
        }
        assert!(t.complete());
        assert_eq!(t.laps(), 2);
        assert_eq!(m.observed_drops, 3);
    }

    #[test]
    fn transport_names_are_stable() {
        assert_eq!(Transport::Tcp.name(), "tcp");
        assert_eq!(Transport::Udp.name(), "udp");
        assert_eq!(Transport::Tcp.wire(), 0);
        assert_eq!(Transport::Udp.wire(), 1);
    }
}
