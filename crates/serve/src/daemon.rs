//! The broadcast daemon: admission, per-session streamers, backpressure
//! and graceful shutdown.
//!
//! One daemon serves one [`ServeWorld`] — a set of named broadcast
//! channels, each an assembled method cycle plus its client bootstrap
//! blob. Admission runs over a TCP control connection: the client sends
//! a `Hello` naming a method, a transport and a tune-in offset; the
//! daemon replies `Admit` (session id, cycle length, bootstrap) and
//! starts streaming the cycle lap after lap in absolute slot order
//! (`slot % cycle_len` is the cycle position), until the client closes
//! or hangs up, the lap budget runs out, the consumer is too slow, or the
//! daemon shuts down. Every end goes through one function, which sends
//! the client a typed [`CloseReason`] in a wire `Close` where one is due
//! (not to a client that closed or hung up) and logs one
//! `session_closed` event with the end's label.
//!
//! Each channel's data frames are encoded once, at [`ServeDaemon::start`]:
//! every cycle position keeps its frame tail (payload length and packet
//! image) and the tail's CRC as a [`DataTail`]. A streamer only writes
//! its session's 16-byte head in front and combines the two CRCs, so a
//! session costs the daemon its head bytes, not a packet encode. The
//! streamer reads the control stream, through the crate's one
//! control-stream reader, after every TCP batch and every UDP send (8
//! datagrams in the first lap, one after it), so a stream stops within a
//! batch of the client's `Close`, or of its hang-up (logged
//! `connection_lost`), rather than at lap end or after its lap budget.
//! A `Close` that arrived before the hang-up still ends the session
//! `done`.
//!
//! Backpressure is transport-shaped, never answer-shaped (the PR 6
//! contract — late or typed, never wrong):
//!
//! * **TCP**: frames go out in batches of about [`TCP_BATCH`] bytes
//!   from one reused [`frame::DataRun`], the same queue the UDP sink
//!   packs, and the kernel send buffer is the queue.
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
//! carried them ([`TransportSends`]). Sessions add to it under one lock,
//! once per lap.

use crate::control::{Control, ControlError};
use crate::events::{DeadLetter, Event, EventLog};
use crate::frame::{
    self, Close, CloseReason, DataRun, DataTail, Frame, FrameError, Hello, RejectReason,
    DATA_SEGMENT,
};
use crate::sockopt;
use spair_broadcast::{splitmix64, BroadcastCycle};
use spair_methods::{ClientBootstrap, MethodId, MethodRegistry, ProgramSet};
use std::io::ErrorKind;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
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

    /// Adds `other`'s counts, field by field.
    pub fn add(&mut self, other: &TransportSends) {
        self.frames_sent += other.frames_sent;
        self.slots_owed += other.slots_owed;
        self.sends += other.sends;
        self.datagrams += other.datagrams;
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

impl ServeSummary {
    /// Adds `other`'s counts, field by field: the totals of two daemons.
    pub fn add(&mut self, other: &ServeSummary) {
        self.sessions += other.sessions;
        self.rejections += other.rejections;
        self.evictions += other.evictions;
        self.injected_drops += other.injected_drops;
        self.backpressure_drops += other.backpressure_drops;
        self.frames_sent += other.frames_sent;
        self.tcp.add(&other.tcp);
        self.udp.add(&other.udp);
        self.dead_letters += other.dead_letters;
        self.events += other.events;
    }

    fn transport(&mut self, udp: bool) -> &mut TransportSends {
        if udp {
            &mut self.udp
        } else {
            &mut self.tcp
        }
    }
}

struct Shared {
    channels: Vec<Channel>,
    opts: ServeOptions,
    stop: AtomicBool,
    next_session: AtomicU32,
    events: EventLog,
    dead: DeadLetter,
    /// Every count but `dead_letters` and `events`, which the logs keep.
    summary: Mutex<ServeSummary>,
}

impl Shared {
    fn summary(&self) -> MutexGuard<'_, ServeSummary> {
        self.summary
            .lock()
            .expect("a session panicked holding the summary")
    }

    /// Counts and logs a refused admission, and tells the client why.
    fn reject(&self, control: &mut Control, peer: SocketAddr, reason: RejectReason) {
        self.summary().rejections += 1;
        self.events.emit(
            Event::new("session_rejected")
                .str("peer", &peer.to_string())
                .u64("reason", reason as u64),
        );
        let _ = control.send_frame(&Frame::Reject(reason));
    }
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
            summary: Mutex::default(),
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
        let summary = ServeSummary {
            dead_letters: self.shared.dead.recorded(),
            ..*self.shared.summary()
        };
        let (tcp, udp) = (summary.tcp, summary.udp);
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

/// How a stream ended: each way has one label in `session_closed`, and
/// all but the client's own `Close` and a hang-up send the client a
/// typed `Close`.
enum End {
    /// The client's `Close` (normally `done`).
    Client(Close),
    /// The control stream carried a malformed frame.
    Malformed(FrameError),
    /// The client hung up without a `Close`, or a write to it failed.
    HungUp,
    /// A TCP write drained nothing for a whole stall window; `slot` is
    /// the last slot queued.
    Evicted { slot: u64 },
    /// The daemon is shutting down.
    Shutdown,
    /// The lap budget ran out, and the client sent no `Close` within a
    /// stall window after it.
    Expired,
    /// No UDP socket could be bound for the session.
    UdpBindFailed,
}

struct SessionCtx<'a> {
    shared: &'a Shared,
    session: u32,
    udp: bool,
    frames_sent: u64,
    injected: u64,
    backpressure: u64,
}

impl SessionCtx<'_> {
    /// Ends the session: the typed wire `Close` where one is due, and one
    /// `session_closed` event.
    fn end(&self, control: &mut Control, end: End) {
        let shared = self.shared;
        let typed = |r: CloseReason| (r.label(), Some(r), None);
        let (label, wire, client) = match end {
            End::Client(c) => (c.reason.label(), None, Some(c)),
            End::HungUp => ("connection_lost", None, None),
            End::Malformed(e) => {
                let context = format!("session {} control", self.session);
                shared.dead.record(&context, &e, control.unframed());
                typed(CloseReason::ProtocolError)
            }
            End::Evicted { slot } => {
                shared.summary().evictions += 1;
                shared.events.emit(
                    Event::new("client_evicted")
                        .u64("session", u64::from(self.session))
                        .u64("stall_ms", shared.opts.stall.as_millis() as u64)
                        .u64("slot", slot),
                );
                typed(CloseReason::EvictedSlowConsumer)
            }
            End::Shutdown => typed(CloseReason::DaemonShutdown),
            End::Expired => typed(CloseReason::Expired),
            End::UdpBindFailed => ("udp_bind_failed", Some(CloseReason::ProtocolError), None),
        };
        if let Some(reason) = wire {
            let _ = control.send_frame(&Frame::Close(Close {
                session: self.session,
                reason,
                drops: 0,
                laps: 0,
            }));
        }
        let mut ev = Event::new("session_closed")
            .u64("session", u64::from(self.session))
            .str("reason", label)
            .u64("frames_sent", self.frames_sent)
            .u64("drops_injected", self.injected)
            .u64("drops_backpressure", self.backpressure);
        if let Some(c) = client {
            ev = ev
                .u64("client_drops", c.drops)
                .u64("client_laps", u64::from(c.laps));
        }
        shared.events.emit(ev);
    }

    /// Adds a lap's tally to the session and daemon counters, logging one
    /// `packet_dropped` event per cause that dropped frames.
    fn account(&mut self, lap: u32, tally: &LapTally) {
        self.frames_sent += tally.wire.frames_sent;
        self.injected += tally.injected;
        self.backpressure += tally.backpressure;
        {
            let mut s = self.shared.summary();
            s.frames_sent += tally.wire.frames_sent;
            s.injected_drops += tally.injected;
            s.backpressure_drops += tally.backpressure;
            s.transport(self.udp).add(&tally.wire);
        }
        for (cause, count) in [
            ("injected", tally.injected),
            ("backpressure", tally.backpressure),
        ] {
            if count == 0 {
                continue;
            }
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

/// Reads the client's `Hello`; `None` when the connection ends without
/// one: it hung up, or was refused (a malformed or out-of-protocol frame
/// is dead-lettered with the bytes that carried it).
fn read_hello(control: &mut Control, peer: SocketAddr, shared: &Shared) -> Option<Hello> {
    let deadline = Instant::now() + Duration::from_secs(5);
    let err = match control.next(deadline, Some(&shared.stop)) {
        Ok(Frame::Hello(h)) => return Some(h),
        // Out-of-protocol frame before admission.
        Ok(_) => FrameError::UnknownKind(0xFF),
        Err(ControlError::Frame(e)) => e,
        Err(ControlError::Timeout) => {
            let _ = control.send_frame(&Frame::Reject(RejectReason::ShuttingDown));
            return None;
        }
        Err(ControlError::HungUp(_)) => return None,
    };
    // The daemon state is untouched.
    let context = format!("hello from {peer}");
    shared.dead.record(&context, &err, control.unframed());
    shared.reject(control, peer, RejectReason::Protocol);
    None
}

fn run_session(stream: TcpStream, peer: SocketAddr, shared: Arc<Shared>) {
    // The stall detector of a TCP stream's data writes.
    let _ = stream.set_write_timeout(Some(shared.opts.stall));
    // A client sends only its `Hello` and `Close`.
    let Ok(mut control) = Control::new(stream, 1024) else {
        return;
    };
    let Some(hello) = read_hello(&mut control, peer, &shared) else {
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
        shared.reject(&mut control, peer, reason);
        return;
    };

    let session = shared.next_session.fetch_add(1, Ordering::SeqCst);
    let cycle_len = channel.frames.len() as u64;
    let udp = hello.transport == 1;
    {
        let mut s = shared.summary();
        s.sessions += 1;
        s.transport(udp).slots_owed += cycle_len;
    }
    shared.events.emit(
        Event::new("session_admitted")
            .u64("session", u64::from(session))
            .str("method", &channel.name)
            .str("transport", if udp { "udp" } else { "tcp" })
            .str("peer", &peer.to_string())
            .u64("offset", hello.offset)
            .u64("cycle_len", cycle_len),
    );
    let mut ctx = SessionCtx {
        shared: &shared,
        session,
        udp,
        frames_sent: 0,
        injected: 0,
        backpressure: 0,
    };
    let admit = Frame::Admit(frame::Admit {
        session,
        cycle_len,
        bootstrap: channel.bootstrap,
    });
    let end = if control.send_frame(&admit).is_err() {
        End::HungUp
    } else {
        match Sink::open(udp.then(|| SocketAddr::new(peer.ip(), hello.udp_port))) {
            None => End::UdpBindFailed,
            Some(sink) => {
                // Injected drops model datagram loss, so they apply to UDP only.
                let plan = shared.opts.drop_plan.filter(|_| udp);
                stream_laps(&mut ctx, &mut control, &hello, &channel.frames, sink, plan)
            }
        }
    };
    ctx.end(&mut control, end);
}

/// Where a session's data frames go: queued in one [`DataRun`] and sent
/// once it reaches the sink's limit. The two sinks differ only in that
/// limit and in their send call.
struct Sink {
    run: DataRun,
    /// `None` for TCP, whose frames go out on the control connection
    /// itself, written once per [`TCP_BATCH`] bytes and at lap end; the
    /// kernel send buffer is the per-client queue, and a write that
    /// stalls past `opts.stall` evicts the consumer.
    udp: Option<UdpOut>,
}

/// A UDP sink's datagrams of consecutive slots to the client's port, the
/// TCP connection staying the control plane.
struct UdpOut {
    sock: UdpSocket,
    dest: SocketAddr,
    /// Whether the kernel cuts a run into its datagrams (`UDP_SEGMENT` is
    /// [`DATA_SEGMENT`]); without, each datagram is its own send.
    offload: bool,
}

/// What one lap got out, and what it dropped by cause.
#[derive(Default)]
struct LapTally {
    /// Frames sent, and the sends and datagrams that carried them.
    wire: TransportSends,
    injected: u64,
    backpressure: u64,
}

impl Sink {
    /// A TCP sink, or a UDP sink sending to `udp` from a fresh socket;
    /// `None` when no UDP socket can be bound.
    fn open(udp: Option<SocketAddr>) -> Option<Sink> {
        let udp = match udp {
            None => None,
            Some(dest) => {
                let sock = UdpSocket::bind("127.0.0.1:0").ok()?;
                let _ = sock.set_nonblocking(true);
                Some(UdpOut {
                    offload: sockopt::set_send_segment(&sock, DATA_SEGMENT),
                    sock,
                    dest,
                })
            }
        };
        Some(Sink {
            run: DataRun::new(),
            udp,
        })
    }

    /// Whether the queued frames are due a send, and the control stream a
    /// read: [`TCP_BATCH`] bytes, or a UDP poll interval's datagrams:
    /// [`UDP_POLL_DATAGRAMS`] of them during the first lap, which the
    /// client's receive buffer holds, and one from the lap's last poll
    /// interval on (`singly`). The client then files each datagram as it
    /// arrives, with no run left to file when lap 1 starts, and may be
    /// done at any datagram after it.
    fn full(&self, singly: bool) -> bool {
        let limit = match self.udp {
            None => TCP_BATCH,
            Some(_) if singly => DATA_SEGMENT,
            Some(_) => UDP_POLL_DATAGRAMS * DATA_SEGMENT,
        };
        self.run.as_bytes().len() >= limit
    }

    /// Sends whatever is queued: one TCP write, or one UDP send of the
    /// run (see [`sockopt::send_run`]). A failed UDP send (the loopback
    /// send buffer is full, or the peer is gone) drops every frame it
    /// carried, as UDP does. The thread yields once per UDP send, that
    /// is once per poll, so the receiver drains its socket buffer (which
    /// the client sizes to hold a lap) without a context switch per
    /// datagram.
    fn flush(&mut self, control: &mut Control, tally: &mut LapTally) -> std::io::Result<()> {
        if self.run.is_empty() {
            return Ok(());
        }
        let queued = self.run.frames() as u64;
        let sent = match &mut self.udp {
            None => {
                let written = control.send(self.run.as_bytes());
                self.run.clear();
                written?;
                tally.wire.sends += 1;
                queued
            }
            Some(u) => {
                let out = sockopt::send_run(
                    &u.sock,
                    self.run.as_bytes(),
                    DATA_SEGMENT,
                    u.dest,
                    &mut u.offload,
                );
                self.run.clear();
                tally.wire.sends += out.sends;
                tally.wire.datagrams += out.datagrams;
                std::thread::yield_now();
                (out.bytes / (2 + frame::DATA_FRAME)) as u64
            }
        };
        tally.wire.frames_sent += sent;
        tally.backpressure += queued - sent;
        Ok(())
    }
}

/// Reads the control stream without blocking: `Err` once it holds the
/// client's `Close` or a malformed frame, or the client has hung up.
fn poll_close(control: &mut Control) -> Result<(), End> {
    match control.poll() {
        Ok(None) => Ok(()),
        Ok(Some(c)) => Err(End::Client(c)),
        Err(ControlError::Frame(e)) => Err(End::Malformed(e)),
        Err(_) => Err(End::HungUp),
    }
}

/// Waits up to `window` for the client's `Close`, blocking one read
/// timeout at a time: `Ok` when the window passes or the daemon stops
/// first, `Err` as [`poll_close`].
fn await_close(control: &mut Control, stop: &AtomicBool, window: Duration) -> Result<(), End> {
    let deadline = Instant::now() + window;
    loop {
        match control.next(deadline, Some(stop)) {
            Ok(Frame::Close(c)) => return Err(End::Client(c)),
            Ok(_) => {}
            Err(ControlError::Timeout) => return Ok(()),
            Err(ControlError::Frame(e)) => return Err(End::Malformed(e)),
            Err(ControlError::HungUp(_)) => return Err(End::HungUp),
        }
    }
}

/// How a send that failed at `slot` ends the stream: a timed-out TCP
/// write evicts the consumer; any other failure means the peer hung up,
/// and whatever it sent before (normally a typed `Close`) is still
/// readable.
fn send_failed(e: std::io::Error, slot: u64, control: &mut Control) -> End {
    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
        return End::Evicted { slot };
    }
    match poll_close(control) {
        Err(End::Client(c)) => End::Client(c),
        _ => End::HungUp,
    }
}

/// Streams the channel's frames lap after lap into `sink` until the
/// client closes or hangs up, a write ends the session, the daemon stops
/// or the lap budget runs out, leaving out the slots `plan` drops. The
/// control stream is read whenever the sink sends (see [`Sink::full`]),
/// at every lap end, and for one stall window after the last lap.
///
/// TCP delivers every slot of a lap, so a TCP stream stops after its
/// first lap and waits one stall window for the `Close`; only a client
/// that sends none by then is streamed further laps, where the write
/// stall detector and the lap budget bound it. A wait after every lap
/// would let a consumer that never reads outlast the stall detector.
fn stream_laps(
    ctx: &mut SessionCtx<'_>,
    control: &mut Control,
    hello: &Hello,
    frames: &[DataTail],
    mut sink: Sink,
    plan: Option<DropPlan>,
) -> End {
    let shared = ctx.shared;
    let opts = &shared.opts;
    let len = frames.len() as u64;
    let session = ctx.session;
    let singly_from = len.saturating_sub((UDP_POLL_DATAGRAMS * frame::DATAGRAM_FRAMES) as u64);
    for lap in 0..opts.max_laps {
        if shared.stop.load(Ordering::SeqCst) {
            return End::Shutdown;
        }
        shared.events.emit(
            Event::new("cycle_started")
                .u64("session", u64::from(session))
                .u64("lap", u64::from(lap)),
        );
        let mut tally = LapTally::default();
        let mut last = hello.offset;
        let halted = (0..len)
            .try_for_each(|i| {
                let slot = hello.offset + u64::from(lap) * len + i;
                if plan.is_some_and(|p| p.drops(session, slot, lap)) {
                    tally.injected += 1;
                    return Ok(());
                }
                last = slot;
                sink.run
                    .push_data(&frames[(slot % len) as usize], session, slot);
                if !sink.full(lap > 0 || i >= singly_from) {
                    return Ok(());
                }
                sink.flush(control, &mut tally)
                    .map_err(|e| send_failed(e, slot, control))?;
                poll_close(control)
            })
            .and_then(|()| {
                sink.flush(control, &mut tally)
                    .map_err(|e| send_failed(e, last, control))
            })
            .and_then(|()| poll_close(control))
            .and_then(|()| match sink.udp {
                None if lap == 0 && opts.max_laps > 1 => {
                    await_close(control, &shared.stop, opts.stall)
                }
                _ => Ok(()),
            });
        ctx.account(lap, &tally);
        if let Err(end) = halted {
            return end;
        }
    }
    // The last laps may still sit in socket buffers, unread: give the
    // client one stall window to send its `Close` before expiring.
    match await_close(control, &shared.stop, opts.stall) {
        Ok(()) => End::Expired,
        Err(end) => end,
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
