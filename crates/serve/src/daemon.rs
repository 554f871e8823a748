//! The broadcast daemon: admission, per-session streamers, backpressure
//! and graceful shutdown.
//!
//! One daemon serves one [`ServeWorld`] — a set of named broadcast
//! channels, each an assembled method cycle plus its client bootstrap
//! blob. Admission runs over a TCP control connection: the client sends
//! a `Hello` naming a method, a transport and a tune-in offset; the
//! daemon replies `Admit` (session id, cycle length, bootstrap) and
//! starts streaming the cycle lap after lap in absolute slot order
//! (`slot % cycle_len` is the cycle position), until the client closes,
//! the lap budget runs out, the consumer is too slow, or the daemon
//! shuts down — each end typed as a [`CloseReason`] in both the wire
//! `Close` frame and the `session_closed` event.
//!
//! Each channel's data frames are encoded once, at [`ServeDaemon::start`]:
//! every cycle position keeps its frame tail (payload length and packet
//! image) and the tail's CRC as a [`DataTail`]. A streamer only writes
//! its session's 16-byte head in front and combines the two CRCs, so a
//! session costs the daemon its head bytes, not a packet encode. The
//! streamer reads the control stream for the client's `Close` after
//! every TCP batch and every UDP send (8 datagrams in the first lap, one
//! after it), so a stream stops within a batch of the client's `Close`
//! rather than at lap end.
//!
//! Backpressure is transport-shaped, never answer-shaped (the PR 6
//! contract — late or typed, never wrong):
//!
//! * **TCP**: frames go out in batches of about [`TCP_BATCH`] bytes
//!   from one reused buffer, and the kernel send buffer is the queue.
//!   TCP loses nothing, so a stream sends one lap and then waits up to
//!   [`ServeOptions::stall`] for the client's `Close`; a client that
//!   sends none is streamed further laps. A write timeout is the stall
//!   detector: a consumer that drains nothing for [`ServeOptions::stall`]
//!   is evicted (`client_evicted`, typed `Close`).
//! * **UDP**: consecutive slots are packed into datagrams of nine data
//!   frames ([`frame::DATA_SEGMENT`] bytes, under
//!   [`frame::MAX_DATAGRAM`]), appended end to end into one
//!   [`frame::DataRun`] and sent as one send with UDP segmentation
//!   offload (`UDP_SEGMENT`): the kernel cuts the run into the same
//!   datagrams on the wire, and only a lap's last datagram is short. The
//!   client's receive buffer is sized to hold a lap, so the streamer
//!   sends, yields its thread and reads the control stream once per poll
//!   interval: every 8 datagrams of the first lap, and every datagram
//!   after it, when the client may be done. Where the kernel refuses the
//!   offload, the same run goes out one datagram per send. A send that
//!   fails drops every frame it carried (counted per frame,
//!   `packet_dropped` with cause `backpressure`); a [`DropPlan`]
//!   additionally leaves *deterministic* seeded slots out of the pack so
//!   contention cells exercise gap recovery reproducibly. Dropped slots
//!   re-arrive on a later lap — the client is delayed, its answer
//!   unchanged.
//!
//! [`ServeSummary`] sets the frames sent on each transport against the
//! slots its sessions were owed, one lap each, and counts the sends that
//! carried them ([`TransportSends`]).

use crate::events::{DeadLetter, Event, EventLog};
use crate::frame::{
    self, Close, CloseReason, DataRun, DataTail, Frame, FrameError, Hello, RejectReason,
    StreamDecoder, DATA_SEGMENT,
};
use crate::sockopt;
use spair_broadcast::{splitmix64, BroadcastCycle};
use spair_methods::{ClientBootstrap, MethodId, MethodRegistry, ProgramSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One served broadcast channel: a method's assembled cycle plus the
/// a-priori blob its remote clients need.
pub struct ServeChannel {
    /// Registry name (`"nr"`, `"dj"`, ...).
    pub name: String,
    /// The assembled cycle, shared across session threads.
    pub cycle: Arc<BroadcastCycle>,
    /// Shipped in the admission reply.
    pub bootstrap: ClientBootstrap,
}

/// The set of channels one daemon serves.
#[derive(Default)]
pub struct ServeWorld {
    channels: Vec<ServeChannel>,
}

impl ServeWorld {
    /// An empty world.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a channel.
    pub fn push(&mut self, channel: ServeChannel) {
        self.channels.push(channel);
    }

    /// Builds a world from an already-built [`ProgramSet`]: every
    /// requested method that broadcasts its own cycle to air clients
    /// becomes a channel (descriptor-driven — no per-method dispatch).
    pub fn from_program_set(programs: &ProgramSet, methods: &[MethodId]) -> Self {
        let mut world = Self::new();
        for &m in methods {
            let d = m.descriptor();
            if !(d.air_client && d.own_channel) {
                continue;
            }
            let program = programs.ensure(m);
            let Ok(cycle) = program.cycle() else { continue };
            world.push(ServeChannel {
                name: m.name().to_string(),
                cycle: Arc::new(cycle.clone()),
                bootstrap: program.client_bootstrap(),
            });
        }
        world
    }

    /// The served channels.
    pub fn channels(&self) -> &[ServeChannel] {
        &self.channels
    }
}

/// A served channel as its streamers read it: the cycle's data frames,
/// encoded once.
struct Channel {
    name: String,
    bootstrap: ClientBootstrap,
    /// One encoded data frame per cycle position.
    frames: Vec<DataTail>,
}

impl Channel {
    fn encode(c: ServeChannel) -> Self {
        Self {
            frames: (0..c.cycle.len())
                .map(|i| DataTail::new(c.cycle.packet(i)))
                .collect(),
            name: c.name,
            bootstrap: c.bootstrap,
        }
    }
}

/// Deterministic injected frame drops (UDP transport only): during the
/// first `laps` laps of a session, each slot is left out of its datagram
/// with probability `permille`/1000, seeded by (session, slot) — so a
/// contention cell's drop pattern replays exactly.
#[derive(Debug, Clone, Copy)]
pub struct DropPlan {
    /// Drop probability in permille (0..=1000).
    pub permille: u16,
    /// Inject only during this many initial laps (later laps heal the
    /// gaps, keeping sessions late-but-correct).
    pub laps: u32,
}

impl DropPlan {
    fn drops(&self, session: u32, slot: u64, lap: u32) -> bool {
        if lap >= self.laps || self.permille == 0 {
            return false;
        }
        let h = splitmix64(0x5350_D809 ^ (u64::from(session) << 32) ^ slot);
        (h % 1000) < u64::from(self.permille)
    }
}

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (use port 0 for an ephemeral port).
    pub addr: String,
    /// Laps streamed per session before the server closes it
    /// (`Expired`) — the bound that keeps abandoned sessions finite.
    pub max_laps: u32,
    /// TCP write stall after which a consumer is evicted. It also bounds
    /// how long a TCP stream waits for the client's `Close` after its
    /// first lap, and after the last lap of any stream.
    pub stall: Duration,
    /// Deterministic injected drops (UDP data frames only).
    pub drop_plan: Option<DropPlan>,
    /// JSONL event log path.
    pub events_path: PathBuf,
    /// Dead-letter file path.
    pub dead_letter_path: PathBuf,
}

impl ServeOptions {
    /// Defaults on an ephemeral loopback port, logging under `dir`.
    pub fn in_dir(dir: &std::path::Path) -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_laps: 64,
            stall: Duration::from_millis(1500),
            drop_plan: None,
            events_path: dir.join("serve.events.jsonl"),
            dead_letter_path: dir.join("serve.deadletter.jsonl"),
        }
    }
}

/// Bytes of TCP data frames gathered before one write; the rest of a lap
/// is written at its end. The control stream is read for the client's
/// `Close` after every write.
pub const TCP_BATCH: usize = 64 * 1024;

/// UDP datagrams in one send, between two reads of the control stream
/// for the client's `Close`, during a session's first lap. Its last such
/// interval, and every later lap, go out one datagram per send, with a
/// read after each.
const UDP_POLL_DATAGRAMS: usize = 8;

/// One transport's sends, against what its sessions needed.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportSends {
    /// Data frames sent to the transport's sessions.
    pub frames_sent: u64,
    /// Cycle slots those sessions were owed: one lap each, the sum of
    /// `cycle_len` over the admitted sessions.
    pub slots_owed: u64,
    /// Calls that put the frames on the wire: TCP writes of one batch,
    /// UDP sends of one run of datagrams (one datagram each where the
    /// kernel refuses segmentation offload).
    pub sends: u64,
    /// UDP datagrams those sends put on the wire (0 on TCP, a byte
    /// stream).
    pub datagrams: u64,
}

impl TransportSends {
    /// Laps sent per session: frames sent over slots owed (0 without
    /// sessions). 1 means every session was sent exactly one lap.
    pub fn laps_sent(&self) -> f64 {
        if self.slots_owed == 0 {
            return 0.0;
        }
        self.frames_sent as f64 / self.slots_owed as f64
    }

    /// Datagrams per send (0 without sends, and on TCP). 8 means every
    /// first-lap send carried a full poll interval.
    pub fn datagrams_per_send(&self) -> f64 {
        if self.sends == 0 {
            return 0.0;
        }
        self.datagrams as f64 / self.sends as f64
    }
}

/// Monotonic counters the daemon exposes after shutdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeSummary {
    /// Sessions admitted.
    pub sessions: u64,
    /// Admissions rejected.
    pub rejections: u64,
    /// Slow consumers evicted.
    pub evictions: u64,
    /// Data frames deterministically left out of their datagrams.
    pub injected_drops: u64,
    /// Data frames dropped with a datagram that failed to send.
    pub backpressure_drops: u64,
    /// Data frames sent, summed over sessions (each session's
    /// `session_closed` event logs its own share).
    pub frames_sent: u64,
    /// TCP sessions' sends.
    pub tcp: TransportSends,
    /// UDP sessions' sends.
    pub udp: TransportSends,
    /// Dead-letter entries recorded.
    pub dead_letters: u64,
    /// Event-log lines emitted.
    pub events: u64,
}

struct Counters {
    sessions: AtomicU64,
    rejections: AtomicU64,
    evictions: AtomicU64,
    injected_drops: AtomicU64,
    backpressure_drops: AtomicU64,
    /// Frames sent, slots owed, sends and datagrams, indexed by the
    /// `Hello`'s transport tag (0 TCP, 1 UDP).
    frames_sent: [AtomicU64; 2],
    slots_owed: [AtomicU64; 2],
    sends: [AtomicU64; 2],
    datagrams: [AtomicU64; 2],
}

struct Shared {
    channels: Vec<Channel>,
    opts: ServeOptions,
    stop: AtomicBool,
    next_session: AtomicU32,
    events: EventLog,
    dead: DeadLetter,
    counters: Counters,
}

/// A running daemon. Dropping it without [`ServeDaemon::shutdown`]
/// aborts ungracefully (tests assert the graceful path flushes).
pub struct ServeDaemon {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl ServeDaemon {
    /// Binds, encodes every channel's data frames, starts the accept
    /// loop, and returns the running daemon.
    pub fn start(world: ServeWorld, opts: ServeOptions) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        let events = EventLog::create(&opts.events_path)?;
        let dead = DeadLetter::create(&opts.dead_letter_path)?;
        let channels: Vec<Channel> = world.channels.into_iter().map(Channel::encode).collect();
        let mut started = Event::new("daemon_started")
            .str("addr", &addr.to_string())
            .u64("channels", channels.len() as u64);
        for c in &channels {
            started = started.u64(&format!("cycle_len_{}", c.name), c.frames.len() as u64);
        }
        events.emit(started);
        let shared = Arc::new(Shared {
            channels,
            opts,
            stop: AtomicBool::new(false),
            next_session: AtomicU32::new(1),
            events,
            dead,
            counters: Counters {
                sessions: AtomicU64::new(0),
                rejections: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
                injected_drops: AtomicU64::new(0),
                backpressure_drops: AtomicU64::new(0),
                frames_sent: Default::default(),
                slots_owed: Default::default(),
                sends: Default::default(),
                datagrams: Default::default(),
            },
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(Self {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (resolve ephemeral ports through this).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The event log path.
    pub fn events_path(&self) -> PathBuf {
        self.shared.opts.events_path.clone()
    }

    /// Requests stop, joins every session, closes them with a typed
    /// reason, appends `daemon_stopped`, and flushes + fsyncs both log
    /// files. Idempotent.
    pub fn shutdown(mut self) -> std::io::Result<ServeSummary> {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            // Wake the blocked `accept`; the loop sees `stop` and starts
            // no session for this connection.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect(wake);
            let _ = h.join();
        }
        let c = &self.shared.counters;
        let sends = |t: usize| TransportSends {
            frames_sent: c.frames_sent[t].load(Ordering::SeqCst),
            slots_owed: c.slots_owed[t].load(Ordering::SeqCst),
            sends: c.sends[t].load(Ordering::SeqCst),
            datagrams: c.datagrams[t].load(Ordering::SeqCst),
        };
        let (tcp, udp) = (sends(0), sends(1));
        let summary = ServeSummary {
            sessions: c.sessions.load(Ordering::SeqCst),
            rejections: c.rejections.load(Ordering::SeqCst),
            evictions: c.evictions.load(Ordering::SeqCst),
            injected_drops: c.injected_drops.load(Ordering::SeqCst),
            backpressure_drops: c.backpressure_drops.load(Ordering::SeqCst),
            frames_sent: tcp.frames_sent + udp.frames_sent,
            tcp,
            udp,
            dead_letters: self.shared.dead.recorded(),
            events: 0,
        };
        self.shared.events.emit(
            Event::new("daemon_stopped")
                .u64("sessions", summary.sessions)
                .u64("rejections", summary.rejections)
                .u64("evictions", summary.evictions)
                .u64("injected_drops", summary.injected_drops)
                .u64("backpressure_drops", summary.backpressure_drops)
                .u64("frames_sent", summary.frames_sent)
                .u64("frames_sent_tcp", tcp.frames_sent)
                .u64("slots_owed_tcp", tcp.slots_owed)
                .u64("sends_tcp", tcp.sends)
                .u64("frames_sent_udp", udp.frames_sent)
                .u64("slots_owed_udp", udp.slots_owed)
                .u64("sends_udp", udp.sends)
                .u64("datagrams_udp", udp.datagrams)
                .u64("dead_letters", summary.dead_letters),
        );
        self.shared.events.flush_sync()?;
        self.shared.dead.flush_sync()?;
        Ok(ServeSummary {
            events: self.shared.events.emitted(),
            ..summary
        })
    }
}

/// Admits connections as they arrive: `accept` blocks, and
/// [`ServeDaemon::shutdown`] wakes it with a connection of its own after
/// setting `stop`.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, peer)) => {
                let s = Arc::clone(&shared);
                sessions.push(std::thread::spawn(move || run_session(stream, peer, s)));
            }
            // A failed accept (say, out of descriptors) must not spin.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
        sessions.retain(|h| !h.is_finished());
    }
    for h in sessions {
        let _ = h.join();
    }
}

struct SessionCtx<'a> {
    shared: &'a Shared,
    session: u32,
    /// The `Hello`'s transport tag, the index of its send counters.
    transport: usize,
    frames_sent: u64,
    injected: u64,
    backpressure: u64,
}

impl SessionCtx<'_> {
    fn close_event(&self, reason: &str, client: Option<Close>) {
        let mut ev = Event::new("session_closed")
            .u64("session", u64::from(self.session))
            .str("reason", reason)
            .u64("frames_sent", self.frames_sent)
            .u64("drops_injected", self.injected)
            .u64("drops_backpressure", self.backpressure);
        if let Some(c) = client {
            ev = ev
                .u64("client_drops", c.drops)
                .u64("client_laps", u64::from(c.laps));
        }
        self.shared.events.emit(ev);
    }

    /// Ends the session on what the control stream carried: the client's
    /// `Close`, or a malformed frame.
    fn end_by_control(&self, control: &TcpStream, got: Result<Close, FrameError>) {
        match got {
            Ok(c) => self.close_event(c.reason.label(), Some(c)),
            Err(e) => {
                self.shared
                    .dead
                    .record(&format!("session {} control", self.session), &e, &[]);
                send_close(control, self.session, CloseReason::ProtocolError);
                self.close_event(CloseReason::ProtocolError.label(), None);
            }
        }
    }

    /// Adds a lap's tally to the session and daemon counters, logging one
    /// `packet_dropped` event per cause that dropped frames.
    fn account(&mut self, lap: u32, tally: &LapTally) {
        self.frames_sent += tally.sent;
        self.injected += tally.injected;
        self.backpressure += tally.backpressure;
        let c = &self.shared.counters;
        c.frames_sent[self.transport].fetch_add(tally.sent, Ordering::SeqCst);
        c.sends[self.transport].fetch_add(tally.sends, Ordering::SeqCst);
        c.datagrams[self.transport].fetch_add(tally.datagrams, Ordering::SeqCst);
        for (cause, count, total) in [
            ("injected", tally.injected, &c.injected_drops),
            ("backpressure", tally.backpressure, &c.backpressure_drops),
        ] {
            if count == 0 {
                continue;
            }
            total.fetch_add(count, Ordering::SeqCst);
            self.shared.events.emit(
                Event::new("packet_dropped")
                    .u64("session", u64::from(self.session))
                    .u64("lap", u64::from(lap))
                    .u64("count", count)
                    .str("cause", cause),
            );
        }
    }
}

fn run_session(mut stream: TcpStream, peer: SocketAddr, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));

    // --- Admission: read the Hello off the control stream. ---
    let mut dec = StreamDecoder::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    let hello: Hello = loop {
        if shared.stop.load(Ordering::SeqCst) || Instant::now() > deadline {
            let _ = stream.write_all(&frame::encode_stream(&Frame::Reject(
                RejectReason::ShuttingDown,
            )));
            return;
        }
        let mut buf = [0u8; 1024];
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => dec.push(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue
            }
            Err(_) => return,
        }
        let err = match dec.next_frame() {
            Ok(None) => continue,
            Ok(Some(Frame::Hello(h))) => break h,
            // Out-of-protocol frame before admission.
            Ok(Some(_)) => frame::FrameError::UnknownKind(0xFF),
            Err(e) => e,
        };
        // Undecodable or out-of-protocol bytes: dead-letter the evidence
        // and refuse — the daemon state is untouched.
        shared
            .dead
            .record(&format!("hello from {peer}"), &err, &buf);
        shared.counters.rejections.fetch_add(1, Ordering::SeqCst);
        shared.shared_reject(&mut stream, peer, RejectReason::Protocol);
        return;
    };

    // --- Resolve the channel. ---
    let Some(channel) = shared.channels.iter().find(|c| c.name == hello.method) else {
        let known = MethodRegistry::standard().get(&hello.method).is_ok();
        let reason = if known {
            RejectReason::NotServed
        } else {
            RejectReason::UnknownMethod
        };
        shared.counters.rejections.fetch_add(1, Ordering::SeqCst);
        shared.shared_reject(&mut stream, peer, reason);
        return;
    };

    let session = shared.next_session.fetch_add(1, Ordering::SeqCst);
    let cycle_len = channel.frames.len() as u64;
    let udp = hello.transport == 1;
    let c = &shared.counters;
    c.sessions.fetch_add(1, Ordering::SeqCst);
    c.slots_owed[usize::from(udp)].fetch_add(cycle_len, Ordering::SeqCst);
    let transport = if udp { "udp" } else { "tcp" };
    shared.events.emit(
        Event::new("session_admitted")
            .u64("session", u64::from(session))
            .str("method", &channel.name)
            .str("transport", transport)
            .str("peer", &peer.to_string())
            .u64("offset", hello.offset)
            .u64("cycle_len", cycle_len),
    );
    if stream
        .write_all(&frame::encode_stream(&Frame::Admit(frame::Admit {
            session,
            cycle_len,
            bootstrap: channel.bootstrap,
        })))
        .is_err()
    {
        shared.events.emit(
            Event::new("session_closed")
                .u64("session", u64::from(session))
                .str("reason", "connection_lost")
                .u64("frames_sent", 0),
        );
        return;
    }

    let mut ctx = SessionCtx {
        shared: &shared,
        session,
        transport: usize::from(udp),
        frames_sent: 0,
        injected: 0,
        backpressure: 0,
    };
    let sink = if udp {
        let Ok(sock) = UdpSocket::bind("127.0.0.1:0") else {
            send_close(&stream, session, CloseReason::ProtocolError);
            ctx.close_event("udp_bind_failed", None);
            return;
        };
        let _ = sock.set_nonblocking(true);
        // Nothing else writes to the control stream while datagrams
        // stream, so it stays nonblocking until `send_close`.
        let _ = stream.set_nonblocking(true);
        Sink::Udp {
            offload: sockopt::set_send_segment(&sock, DATA_SEGMENT),
            sock,
            dest: SocketAddr::new(peer.ip(), hello.udp_port),
            run: DataRun::new(),
            poll_every: UDP_POLL_DATAGRAMS,
        }
    } else {
        let _ = stream.set_write_timeout(Some(shared.opts.stall));
        Sink::Tcp {
            stream: &stream,
            batch: Vec::with_capacity(TCP_BATCH + 2 + frame::MAX_FRAME),
            queued: 0,
        }
    };
    // Injected drops model datagram loss, so they apply to UDP only.
    let plan = shared.opts.drop_plan.filter(|_| udp);
    let frames = &channel.frames;
    stream_laps(&mut ctx, &stream, &mut dec, &hello, frames, sink, plan);
}

impl Shared {
    fn shared_reject(&self, stream: &mut TcpStream, peer: SocketAddr, reason: RejectReason) {
        self.events.emit(
            Event::new("session_rejected")
                .str("peer", &peer.to_string())
                .u64("reason", reason as u64),
        );
        let _ = stream.write_all(&frame::encode_stream(&Frame::Reject(reason)));
    }
}

fn send_close(stream: &TcpStream, session: u32, reason: CloseReason) {
    let _ = stream.set_nonblocking(false);
    let mut stream = stream;
    let _ = stream.write_all(&frame::encode_stream(&Frame::Close(Close {
        session,
        reason,
        drops: 0,
        laps: 0,
    })));
}

/// Where a session's data frames go. Both sinks queue frames and send
/// them in batches; only a TCP write can fail, and its error ends the
/// session.
enum Sink<'a> {
    /// Length-prefixed frames on the control connection itself, written
    /// once per [`TCP_BATCH`] bytes and at lap end. The kernel send
    /// buffer is the per-client queue; a write that stalls past
    /// `opts.stall` evicts the consumer.
    Tcp {
        stream: &'a TcpStream,
        batch: Vec<u8>,
        queued: u64,
    },
    /// Datagrams of consecutive slots to the client's UDP port, the TCP
    /// connection staying the control plane.
    Udp {
        sock: UdpSocket,
        dest: SocketAddr,
        /// The datagrams of the current poll interval, end to end.
        run: DataRun,
        /// Datagrams per send, between two reads:
        /// [`UDP_POLL_DATAGRAMS`] during the first lap, which the
        /// client's receive buffer holds, and 1 from the lap's last poll
        /// interval on. The client then files each datagram as it
        /// arrives, with no run left to file when lap 1 starts, and may
        /// be done at any datagram after it.
        poll_every: usize,
        /// Whether the kernel cuts a run into its datagrams
        /// (`UDP_SEGMENT` is [`DATA_SEGMENT`]); without, each datagram is
        /// its own send.
        offload: bool,
    },
}

/// What one lap got out, and what it dropped by cause.
#[derive(Default)]
struct LapTally {
    sent: u64,
    injected: u64,
    backpressure: u64,
    sends: u64,
    datagrams: u64,
}

/// Why a stream stopped before its lap budget ran out.
enum Halt {
    /// A TCP write failed: the consumer stalled or hung up.
    Io(std::io::Error),
    /// The control stream carried the client's `Close`, or a malformed
    /// frame.
    Control(Result<Close, FrameError>),
}

impl Sink<'_> {
    /// Queues the data frame `tail` stamps for `session` and `slot`,
    /// sending what is queued once the batch or the poll interval's
    /// datagrams are full. `true` when it sent, and the control stream
    /// is due a read.
    fn push(
        &mut self,
        tail: &DataTail,
        session: u32,
        slot: u64,
        tally: &mut LapTally,
    ) -> std::io::Result<bool> {
        let full = match self {
            Sink::Tcp { batch, queued, .. } => {
                tail.stream_into(session, slot, batch);
                *queued += 1;
                batch.len() >= TCP_BATCH
            }
            Sink::Udp {
                run, poll_every, ..
            } => {
                run.push_data(tail, session, slot);
                run.as_bytes().len() >= *poll_every * DATA_SEGMENT
            }
        };
        if full {
            self.flush(tally)?;
        }
        Ok(full)
    }

    /// Sends whatever is queued: one TCP write, or one UDP send of the
    /// run (see [`sockopt::send_run`]). A failed UDP send (the loopback
    /// send buffer is full, or the peer is gone) drops every frame it
    /// carried, as UDP does. The thread yields once per UDP send, that
    /// is once per poll, so the receiver drains its socket buffer (which
    /// the client sizes to hold a lap) without a context switch per
    /// datagram.
    fn flush(&mut self, tally: &mut LapTally) -> std::io::Result<()> {
        match self {
            Sink::Tcp {
                stream,
                batch,
                queued,
            } if !batch.is_empty() => {
                let written = stream.write_all(batch);
                batch.clear();
                written?;
                tally.sent += std::mem::take(queued);
                tally.sends += 1;
            }
            Sink::Udp {
                sock,
                dest,
                run,
                offload,
                ..
            } if !run.is_empty() => {
                let out = sockopt::send_run(sock, run.as_bytes(), DATA_SEGMENT, *dest, offload);
                let sent = (out.bytes / (2 + frame::DATA_FRAME)) as u64;
                tally.sent += sent;
                tally.backpressure += run.frames() as u64 - sent;
                tally.sends += out.sends;
                tally.datagrams += out.datagrams;
                run.clear();
                std::thread::yield_now();
            }
            _ => {}
        }
        Ok(())
    }

    /// Reads what the client has sent on the control stream without
    /// blocking; `Halt::Control` once it holds the client's `Close` or a
    /// malformed frame. A UDP session's control stream is already
    /// nonblocking; a TCP session's also carries the data writes, which
    /// block, so it turns nonblocking for this read alone.
    fn poll(&self, control: &TcpStream, dec: &mut StreamDecoder) -> Result<(), Halt> {
        let tcp = matches!(self, Sink::Tcp { .. });
        if tcp {
            let _ = control.set_nonblocking(true);
        }
        let mut buf = [0u8; 1024];
        let mut s = control;
        loop {
            match s.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => dec.push(&buf[..n]),
            }
        }
        if tcp {
            let _ = control.set_nonblocking(false);
        }
        next_close(dec)
    }
}

/// `Halt::Control` once the decoded control stream holds the client's
/// `Close` or a malformed frame; other frames are skipped.
fn next_close(dec: &mut StreamDecoder) -> Result<(), Halt> {
    while let Some(f) = dec.next_frame().map_err(|e| Halt::Control(Err(e)))? {
        if let Frame::Close(c) = f {
            return Err(Halt::Control(Ok(c)));
        }
    }
    Ok(())
}

/// Waits for the client's `Close` with the control stream blocking, one
/// read timeout at a time, until it arrives (`Halt::Control`), the client
/// hangs up (`Halt::Io`), the daemon stops or `window` elapses (`Ok` in
/// the last two cases).
fn await_close(
    control: &TcpStream,
    dec: &mut StreamDecoder,
    stop: &AtomicBool,
    window: Duration,
) -> Result<(), Halt> {
    let _ = control.set_nonblocking(false);
    let deadline = Instant::now() + window;
    let mut buf = [0u8; 1024];
    let mut s = control;
    while Instant::now() < deadline && !stop.load(Ordering::SeqCst) {
        match s.read(&mut buf) {
            Ok(0) => return Err(Halt::Io(ErrorKind::UnexpectedEof.into())),
            Ok(n) => dec.push(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(Halt::Io(e)),
        }
        next_close(dec)?;
    }
    Ok(())
}

/// Streams the channel's frames lap after lap into `sink` until the
/// client closes, a write ends the session, the daemon stops or the lap
/// budget runs out, leaving out the slots `plan` drops. The control
/// stream is read for the client's `Close` whenever the sink sends (see
/// [`Sink::push`]), at every lap end, and for one stall window after
/// the last lap.
///
/// TCP delivers every slot of a lap, so a TCP stream stops after its
/// first lap and waits one stall window for the `Close`; only a client
/// that sends none by then is streamed further laps, where the write
/// stall detector and the lap budget bound it. A wait after every lap
/// would let a consumer that never reads outlast the stall detector.
fn stream_laps(
    ctx: &mut SessionCtx<'_>,
    control: &TcpStream,
    dec: &mut StreamDecoder,
    hello: &Hello,
    frames: &[DataTail],
    mut sink: Sink<'_>,
    plan: Option<DropPlan>,
) {
    let shared = ctx.shared;
    let opts = &shared.opts;
    let len = frames.len() as u64;
    for lap in 0..opts.max_laps {
        if shared.stop.load(Ordering::SeqCst) {
            send_close(control, ctx.session, CloseReason::DaemonShutdown);
            ctx.close_event("daemon_shutdown", None);
            return;
        }
        shared.events.emit(
            Event::new("cycle_started")
                .u64("session", u64::from(ctx.session))
                .u64("lap", u64::from(lap)),
        );
        let mut tally = LapTally::default();
        let mut last = hello.offset;
        let session = ctx.session;
        let singly_from = len.saturating_sub((UDP_POLL_DATAGRAMS * frame::DATAGRAM_FRAMES) as u64);
        let halted = (0..len)
            .try_for_each(|i| {
                if let Sink::Udp { poll_every, .. } = &mut sink {
                    if i >= singly_from {
                        *poll_every = 1;
                    }
                }
                let slot = hello.offset + u64::from(lap) * len + i;
                if plan.is_some_and(|p| p.drops(session, slot, lap)) {
                    tally.injected += 1;
                    return Ok(());
                }
                last = slot;
                let tail = &frames[(slot % len) as usize];
                let due = sink.push(tail, session, slot, &mut tally);
                if due.map_err(Halt::Io)? {
                    sink.poll(control, dec)?;
                }
                Ok(())
            })
            .and_then(|()| sink.flush(&mut tally).map_err(Halt::Io))
            .and_then(|()| sink.poll(control, dec))
            .and_then(|()| match sink {
                Sink::Tcp { .. } if lap == 0 && opts.max_laps > 1 => {
                    await_close(control, dec, &shared.stop, opts.stall)
                }
                _ => Ok(()),
            });
        ctx.account(lap, &tally);
        match halted {
            Ok(()) => {}
            Err(Halt::Control(got)) => {
                ctx.end_by_control(control, got);
                return;
            }
            Err(Halt::Io(e)) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // The consumer drained nothing for a full stall window.
                shared.counters.evictions.fetch_add(1, Ordering::SeqCst);
                shared.events.emit(
                    Event::new("client_evicted")
                        .u64("session", u64::from(ctx.session))
                        .u64("stall_ms", opts.stall.as_millis() as u64)
                        .u64("slot", last),
                );
                send_close(control, ctx.session, CloseReason::EvictedSlowConsumer);
                ctx.close_event(CloseReason::EvictedSlowConsumer.label(), None);
                return;
            }
            Err(Halt::Io(_)) => {
                // The peer hung up; whatever it sent before hanging up (normally a
                // typed Close) is still readable.
                match sink.poll(control, dec) {
                    Err(Halt::Control(Ok(c))) => ctx.close_event("done", Some(c)),
                    _ => ctx.close_event("connection_lost", None),
                }
                return;
            }
        }
    }
    // The last laps may still sit in socket buffers, unread: give the
    // client one stall window to send its `Close` before expiring.
    match await_close(control, dec, &shared.stop, opts.stall) {
        Err(Halt::Control(got)) => ctx.end_by_control(control, got),
        _ => {
            send_close(control, ctx.session, CloseReason::Expired);
            ctx.close_event(CloseReason::Expired.label(), None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_plan_is_deterministic_and_bounded() {
        let plan = DropPlan {
            permille: 250,
            laps: 2,
        };
        let mut dropped = 0;
        for slot in 0..1000u64 {
            let a = plan.drops(7, slot, 0);
            let b = plan.drops(7, slot, 0);
            assert_eq!(a, b, "same (session, slot) must replay");
            if a {
                dropped += 1;
            }
            assert!(!plan.drops(7, slot, 2), "beyond plan laps never drops");
        }
        // ~25% with generous slack.
        assert!((150..350).contains(&dropped), "dropped {dropped}");
        // Different sessions see different drop patterns.
        assert!((0..1000u64).any(|s| plan.drops(1, s, 0) != plan.drops(2, s, 0)));
    }

    #[test]
    fn options_default_paths_follow_dir() {
        let o = ServeOptions::in_dir(std::path::Path::new("/tmp/x"));
        assert!(o.events_path.ends_with("serve.events.jsonl"));
        assert!(o.dead_letter_path.ends_with("serve.deadletter.jsonl"));
        assert_eq!(o.max_laps, 64);
    }
}
