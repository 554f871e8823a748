//! End-to-end serving tests: a real daemon on a loopback socket, real
//! client sessions, answers compared against the in-process channel.

use spair_broadcast::{BroadcastChannel, BroadcastCycle, LossModel, Packet, PacketKind};
use spair_core::query::Query;
use spair_core::BorderPrecomputation;
use spair_methods::{ClientBootstrap, MethodRegistry, ProgramSet, World};
use spair_partition::KdTreePartition;
use spair_roadnet::generators::small_grid;
use spair_roadnet::QueuePolicy;
use spair_serve::client::{fetch_cycle, run_query, SessionConfig, SessionFailure, Transport};
use spair_serve::daemon::{DropPlan, ServeDaemon, ServeOptions, ServeWorld, TCP_BATCH};
use spair_serve::frame::{
    encode_stream, Admit, Close, CloseReason, DataFrame, Datagram, Frame, Hello, StreamDecoder,
    DATAGRAM_FRAMES, DATA_FRAME, DATA_SEGMENT, MAX_DATAGRAM,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, UdpSocket};
use std::path::PathBuf;
use std::time::Duration;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spair_serve_e2e_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk test dir");
    dir
}

fn build_programs(w: usize, h: usize, regions: usize, seed: u64) -> ProgramSet {
    let g = small_grid(w, h, seed);
    let part = KdTreePartition::build(&g, regions);
    let pre = BorderPrecomputation::run(&g, &part);
    ProgramSet::new(World::from_parts(g, part, pre))
}

fn start_daemon(
    programs: &ProgramSet,
    methods: &[&str],
    dir: &std::path::Path,
    drop_plan: Option<DropPlan>,
) -> ServeDaemon {
    let registry = MethodRegistry::standard();
    let ids: Vec<_> = methods
        .iter()
        .map(|n| registry.get(n).expect("known method"))
        .collect();
    let world = ServeWorld::from_program_set(programs, &ids);
    assert_eq!(world.channels().len(), methods.len());
    let opts = ServeOptions {
        drop_plan,
        ..ServeOptions::in_dir(dir)
    };
    ServeDaemon::start(world, opts).expect("daemon start")
}

/// Accepts one connection on `listener` and reads the client's `Hello`
/// off it, blocking.
fn accept_hello(listener: &TcpListener) -> (TcpStream, Hello) {
    let (mut control, _) = listener.accept().expect("accept");
    let mut dec = StreamDecoder::new();
    let mut buf = [0u8; 1024];
    loop {
        if let Some(Frame::Hello(h)) = dec.next_frame().expect("client frame") {
            return (control, h);
        }
        let n = control.read(&mut buf).expect("read hello");
        assert!(n > 0, "client hung up before its hello");
        dec.push(&buf[..n]);
    }
}

/// The next frame the daemon sent on `raw`, blocking.
fn recv_frame(raw: &mut TcpStream, dec: &mut StreamDecoder) -> Frame {
    let mut buf = vec![0u8; TCP_BATCH];
    loop {
        if let Some(f) = dec.next_frame().expect("daemon frame") {
            return f;
        }
        let n = raw.read(&mut buf).expect("read");
        assert!(n > 0, "daemon hung up");
        dec.push(&buf[..n]);
    }
}

/// Connects to `daemon` and asks for `method` over UDP, to be streamed to
/// `udp`; returns the control stream, reads on which time out after 10 s.
fn udp_hello(daemon: &ServeDaemon, method: &str, udp: &UdpSocket) -> TcpStream {
    let mut raw = TcpStream::connect(daemon.local_addr()).expect("connect");
    raw.write_all(&encode_stream(&Frame::Hello(Hello {
        method: method.into(),
        transport: 1,
        udp_port: udp.local_addr().unwrap().port(),
        offset: 0,
    })))
    .unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw
}

/// A numeric field of a JSONL event line.
fn field(line: &str, key: &str) -> u64 {
    line.split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no {key} in {line}"))
}

/// The tentpole contract: for every served method and both transports,
/// an answer computed from a socket-delivered cycle is identical to the
/// answer from the in-process channel at the same tune-in offset.
#[test]
fn socket_answers_match_in_process() {
    let dir = test_dir("equiv");
    let programs = build_programs(8, 8, 8, 42);
    let methods = ["nr", "dj"];
    let daemon = start_daemon(&programs, &methods, &dir, None);
    let addr = daemon.local_addr();
    let registry = MethodRegistry::standard();

    let g = programs.world().g.clone();
    let queries = [
        Query::for_nodes(&g, 1, 62),
        Query::for_nodes(&g, 0, 63),
        Query::for_nodes(&g, 9, 54),
    ];

    for method in methods {
        let id = registry.get(method).unwrap();
        let program = programs.ensure(id);
        let cycle = program.cycle().expect("cycle");
        for transport in [Transport::Udp, Transport::Tcp] {
            for (qi, q) in queries.iter().enumerate() {
                let offset = (qi as u64) * 37;
                let mut config = SessionConfig::new(addr, method, transport);
                config.offset = offset;
                let (outcome, metrics) = run_query(&config, q).expect("socket query");

                let mut baseline_client = program.make_client(QueuePolicy::default()).unwrap();
                let mut ch = BroadcastChannel::tune_in(
                    cycle,
                    (offset % cycle.len() as u64) as usize,
                    LossModel::Lossless,
                );
                let baseline = baseline_client.query(&mut ch, q).expect("baseline query");

                assert_eq!(
                    outcome.distance,
                    baseline.distance,
                    "{method}/{} distance mismatch",
                    transport.name()
                );
                assert_eq!(
                    outcome.path,
                    baseline.path,
                    "{method}/{} path mismatch",
                    transport.name()
                );
                assert_eq!(metrics.cycle_len, cycle.len() as u64);
            }
        }
    }

    let summary = daemon.shutdown().expect("shutdown");
    assert_eq!(summary.sessions, (methods.len() * 2 * queries.len()) as u64);
    assert_eq!(summary.evictions, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Injected datagram drops delay a UDP session (extra laps, observed
/// gaps) but never change its answer.
#[test]
fn udp_drops_delay_but_do_not_corrupt() {
    let dir = test_dir("drops");
    let programs = build_programs(8, 8, 8, 7);
    let daemon = start_daemon(
        &programs,
        &["nr"],
        &dir,
        Some(DropPlan {
            permille: 300,
            laps: 2,
        }),
    );
    let addr = daemon.local_addr();
    let g = programs.world().g.clone();
    let q = Query::for_nodes(&g, 2, 61);

    let config = SessionConfig::new(addr, "nr", Transport::Udp);
    let (outcome, metrics) = run_query(&config, &q).expect("lossy session completes");

    let registry = MethodRegistry::standard();
    let program = programs.ensure(registry.get("nr").unwrap());
    let cycle = program.cycle().unwrap();
    let mut baseline_client = program.make_client(QueuePolicy::default()).unwrap();
    let mut ch = BroadcastChannel::lossless(cycle);
    let baseline = baseline_client.query(&mut ch, &q).unwrap();
    assert_eq!(outcome.distance, baseline.distance);
    assert_eq!(outcome.path, baseline.path);
    // The drop plan must actually have bitten (30% over two laps).
    assert!(
        metrics.frames_rx > metrics.cycle_len,
        "healing laps expected"
    );

    let summary = daemon.shutdown().unwrap();
    assert!(summary.injected_drops > 0, "drop plan never fired");
    std::fs::remove_dir_all(&dir).ok();
}

/// A stand-in daemon on a loopback socket that admits one session as
/// session 7 and, before every genuine data frame, sends a forged frame
/// for the same slot under session 8 — the late datagrams of a closed
/// session reaching a reused port. Over UDP the forged frame rides in the
/// same datagram as the genuine one. Laps repeat until the client closes.
fn forging_daemon(
    cycle: BroadcastCycle,
    bootstrap: ClientBootstrap,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || {
        let (mut control, hello) = accept_hello(&listener);
        control
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        // Whether the client is still listening: nothing arrived within
        // the read timeout (its `Close`, or its hang-up, ends the laps).
        let listening = |control: &mut TcpStream| matches!(control.read(&mut [0u8; 64]), Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut));
        let len = cycle.len() as u64;
        control
            .write_all(&encode_stream(&Frame::Admit(Admit {
                session: 7,
                cycle_len: len,
                bootstrap,
            })))
            .unwrap();
        let udp = UdpSocket::bind("127.0.0.1:0").expect("bind udp");
        let forged = Packet::new(PacketKind::Data, 0, bytes::Bytes::from_static(b"forged"));
        let mut dgram = Datagram::new();
        for lap in 0..200u64 {
            for slot in lap * len..(lap + 1) * len {
                let genuine = cycle.packet((slot % len) as usize).clone();
                let frames = [(8, forged.clone()), (7, genuine)].map(|(session, packet)| {
                    Frame::Data(DataFrame {
                        session,
                        slot,
                        packet,
                    })
                });
                if hello.transport == 1 {
                    dgram.clear();
                    for f in &frames {
                        assert!(dgram.push(f), "two data frames fit one datagram");
                    }
                    let _ = udp.send_to(dgram.as_bytes(), ("127.0.0.1", hello.udp_port));
                    // Paced: an unpaced lap of two-frame datagrams overruns
                    // the receive buffer the client sizes for nine-frame
                    // ones, and loses the same last slots on every lap.
                    std::thread::sleep(Duration::from_micros(100));
                } else {
                    for f in &frames {
                        if control.write_all(&encode_stream(f)).is_err() {
                            return;
                        }
                    }
                }
            }
            if !listening(&mut control) {
                return;
            }
        }
    });
    (addr, daemon)
}

/// Data frames of another session are dropped and counted, never filed:
/// over both transports the fetched cycle equals the served one even
/// when every slot first arrives under a foreign session id.
#[test]
fn foreign_session_frames_are_dropped() {
    let programs = build_programs(6, 6, 4, 5);
    let program = programs.ensure(MethodRegistry::standard().get("dj").unwrap());
    let cycle = program.cycle().expect("cycle");
    for transport in [Transport::Udp, Transport::Tcp] {
        let (addr, daemon) = forging_daemon(cycle.clone(), program.client_bootstrap());
        let mut config = SessionConfig::new(addr, "dj", transport);
        config.max_wait = Duration::from_secs(20);
        let (fetched, _boot, m) = fetch_cycle(&config).expect("fetch");
        daemon.join().expect("forging daemon");
        assert_eq!(m.session, 7);
        assert_eq!(fetched.len(), cycle.len());
        for i in 0..cycle.len() {
            assert_eq!(
                fetched.packet(i).to_wire(),
                cycle.packet(i).to_wire(),
                "{} slot {i}",
                transport.name()
            );
        }
        assert!(
            m.foreign_frames > 0,
            "{}: no forged frame arrived",
            transport.name()
        );
    }
}

/// A daemon's `Close` ends a UDP session only if the table is still
/// incomplete once the datagrams sent before it are filed. A scripted
/// daemon sends one whole lap, then `Admit` and `Close(Expired)` in one
/// write, all before the client collects: the queued lap must complete
/// the session.
#[test]
fn udp_datagrams_queued_before_a_close_complete_the_session() {
    let programs = build_programs(6, 6, 4, 5);
    let program = programs.ensure(MethodRegistry::standard().get("dj").unwrap());
    let cycle = program.cycle().expect("cycle").clone();
    let bootstrap = program.client_bootstrap();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let lap = cycle.clone();
    let daemon = std::thread::spawn(move || {
        let (mut control, hello) = accept_hello(&listener);
        let udp = UdpSocket::bind("127.0.0.1:0").expect("bind udp");
        let dest = ("127.0.0.1", hello.udp_port);
        let mut dgram = Datagram::new();
        let mut datagrams = 0;
        for slot in 0..lap.len() as u64 {
            let data = Frame::Data(DataFrame {
                session: 7,
                slot,
                packet: lap.packet(slot as usize).clone(),
            });
            if !dgram.push(&data) {
                udp.send_to(dgram.as_bytes(), dest).expect("send lap");
                datagrams += 1;
                dgram.clear();
                assert!(dgram.push(&data), "a frame fits an empty datagram");
            }
        }
        udp.send_to(dgram.as_bytes(), dest).expect("send lap");
        datagrams += 1;
        let mut reply = encode_stream(&Frame::Admit(Admit {
            session: 7,
            cycle_len: lap.len() as u64,
            bootstrap,
        }));
        reply.extend(encode_stream(&Frame::Close(Close {
            session: 7,
            reason: CloseReason::Expired,
            drops: 0,
            laps: 0,
        })));
        control.write_all(&reply).expect("admit and close");
        // Hold the connection open until the client is done with it.
        let _ = control.read(&mut [0u8; 64]);
        datagrams
    });
    let config = SessionConfig::new(addr, "dj", Transport::Udp);
    let fetched = fetch_cycle(&config);
    let datagrams = daemon.join().expect("scripted daemon");
    assert!(datagrams > 1, "the lap must span several datagrams");
    let (fetched, _boot, m) = fetched.expect("the queued lap completes the session");
    assert_eq!(m.laps, 1);
    for i in 0..cycle.len() {
        assert_eq!(
            fetched.packet(i).to_wire(),
            cycle.packet(i).to_wire(),
            "slot {i}"
        );
    }
}

/// A client that sends its `Close` with its `Hello`, before any data,
/// stops the stream within one TCP batch, or within eight UDP datagrams,
/// of frames: the daemon reads the control stream while it streams, not
/// only at lap end. The cycle spans several batches, so a stream that
/// ran to lap end would send a whole lap.
#[test]
fn a_close_sent_with_the_hello_stops_the_stream_within_a_batch() {
    let dir = test_dir("early_close");
    let programs = build_programs(64, 64, 16, 13);
    let daemon = start_daemon(&programs, &["dj"], &dir, None);
    let cycle = programs
        .ensure(MethodRegistry::standard().get("dj").unwrap())
        .cycle()
        .expect("cycle");
    let frame_len = encode_stream(&Frame::Data(DataFrame {
        session: 0,
        slot: 0,
        packet: cycle.packet(0).clone(),
    }))
    .len();
    let batch = TCP_BATCH.div_ceil(frame_len);
    let datagrams = 8 * (MAX_DATAGRAM / frame_len);
    assert!(cycle.len() > 2 * batch, "cycle of {} frames", cycle.len());

    let udp = UdpSocket::bind("127.0.0.1:0").expect("bind udp");
    for transport in [0, 1] {
        let mut raw = TcpStream::connect(daemon.local_addr()).expect("connect");
        let mut hello = encode_stream(&Frame::Hello(Hello {
            method: "dj".into(),
            transport,
            udp_port: udp.local_addr().unwrap().port(),
            offset: 0,
        }));
        hello.extend(encode_stream(&Frame::Close(Close {
            session: 0,
            reason: CloseReason::Done,
            drops: 0,
            laps: 0,
        })));
        raw.write_all(&hello).unwrap();
        // The daemon hangs up once it has read the Close.
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let _ = raw.read_to_end(&mut Vec::new());
    }

    let summary = daemon.shutdown().unwrap();
    let events = std::fs::read_to_string(dir.join("serve.events.jsonl")).unwrap();
    let closed: Vec<&str> = events
        .lines()
        .filter(|l| l.contains("\"event\":\"session_closed\""))
        .collect();
    assert_eq!(closed.len(), 2, "{events}");
    let mut total = 0;
    for (line, bound) in closed.iter().zip([batch, datagrams]) {
        assert!(line.contains("\"reason\":\"done\""), "{line}");
        let sent = field(line, "frames_sent");
        assert!(
            sent <= bound as u64,
            "{sent} frames sent, bound {bound}: {line}"
        );
        total += sent;
    }
    assert_eq!(summary.frames_sent, total);
    std::fs::remove_dir_all(&dir).ok();
}

/// The `session_closed` events in a daemon's event log.
fn closed_events(dir: &std::path::Path) -> Vec<String> {
    std::fs::read_to_string(dir.join("serve.events.jsonl"))
        .unwrap()
        .lines()
        .filter(|l| l.contains("\"event\":\"session_closed\""))
        .map(str::to_string)
        .collect()
}

/// TCP loses nothing, so a stream stops after one lap and waits for the
/// client's `Close`: a lossless TCP session that closes after its lap is
/// sent exactly `cycle_len` frames.
#[test]
fn a_tcp_session_that_closes_after_its_lap_is_sent_one_lap() {
    let dir = test_dir("one_lap");
    let programs = build_programs(8, 8, 8, 17);
    let daemon = start_daemon(&programs, &["nr"], &dir, None);
    let config = SessionConfig::new(daemon.local_addr(), "nr", Transport::Tcp);
    let (_cycle, _boot, m) = fetch_cycle(&config).expect("tcp session");
    assert_eq!(m.rcvbuf_bytes, 0, "no receive buffer is set on TCP");
    let summary = daemon.shutdown().unwrap();
    let closed = closed_events(&dir);
    assert_eq!(closed.len(), 1, "{closed:?}");
    assert!(closed[0].contains("\"reason\":\"done\""), "{}", closed[0]);
    assert_eq!(
        field(&closed[0], "frames_sent"),
        m.cycle_len,
        "{}",
        closed[0]
    );
    assert_eq!(summary.tcp.frames_sent, m.cycle_len);
    assert_eq!(summary.tcp.slots_owed, m.cycle_len);
    assert_eq!(summary.tcp.laps_sent(), 1.0);
    assert!(
        summary.tcp.sends >= 1 && m.recv_calls >= 1,
        "{summary:?} {m:?}"
    );
    assert_eq!(summary.tcp.datagrams, 0, "a TCP write carries no datagrams");
    assert_eq!(summary.udp.slots_owed, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A TCP session that has its lap and waits for the client's `Close` is
/// closed `daemon_shutdown` within one 100 ms read timeout of shutdown,
/// not at the end of its (here 30 s) wait.
#[test]
fn shutdown_closes_a_tcp_session_waiting_for_its_close() {
    let dir = test_dir("wait_shutdown");
    let programs = build_programs(8, 8, 8, 19);
    let registry = MethodRegistry::standard();
    let world = ServeWorld::from_program_set(&programs, &[registry.get("nr").unwrap()]);
    let opts = ServeOptions {
        stall: Duration::from_secs(30),
        ..ServeOptions::in_dir(&dir)
    };
    let daemon = ServeDaemon::start(world, opts).expect("daemon start");
    let mut raw = TcpStream::connect(daemon.local_addr()).expect("connect");
    raw.write_all(&encode_stream(&Frame::Hello(Hello {
        method: "nr".into(),
        transport: 0,
        udp_port: 0,
        offset: 0,
    })))
    .unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut dec = StreamDecoder::new();
    let Frame::Admit(admit) = recv_frame(&mut raw, &mut dec) else {
        panic!("expected Admit")
    };
    // Take the whole lap, then send no `Close`: the stream now waits.
    for _ in 0..admit.cycle_len {
        assert!(matches!(recv_frame(&mut raw, &mut dec), Frame::Data(_)));
    }
    let asked = std::time::Instant::now();
    daemon.shutdown().unwrap();
    let took = asked.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "shutdown took {took:?} against a 100 ms read timeout"
    );
    match recv_frame(&mut raw, &mut dec) {
        Frame::Close(c) => assert_eq!(c.reason, CloseReason::DaemonShutdown),
        other => panic!("expected Close, got {other:?}"),
    }
    let closed = closed_events(&dir);
    assert_eq!(closed.len(), 1, "{closed:?}");
    assert!(
        closed[0].contains("\"reason\":\"daemon_shutdown\""),
        "{}",
        closed[0]
    );
    assert_eq!(
        field(&closed[0], "frames_sent"),
        admit.cycle_len,
        "{}",
        closed[0]
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A UDP client asks for a receive buffer that holds its lap, and a
/// lossless loopback UDP session then loses no datagram. The daemon
/// sends most of the lap in runs of 8 datagrams, and each send arrives
/// as one receive.
#[cfg(target_os = "linux")]
#[test]
fn a_udp_session_gets_a_lap_sized_receive_buffer_and_loses_nothing() {
    let dir = test_dir("rcvbuf");
    let programs = build_programs(24, 24, 8, 23);
    let daemon = start_daemon(&programs, &["nr"], &dir, None);
    let mut receives = 0;
    for offset in [0, 41] {
        let mut config = SessionConfig::new(daemon.local_addr(), "nr", Transport::Udp);
        config.offset = offset;
        let (_cycle, _boot, m) = fetch_cycle(&config).expect("udp session");
        let lap_bytes = m.cycle_len * (2 + DATA_FRAME) as u64;
        assert!(
            m.rcvbuf_bytes >= lap_bytes,
            "granted {} bytes for a {lap_bytes}-byte lap",
            m.rcvbuf_bytes
        );
        assert_eq!(m.observed_drops, 0, "{m:?}");
        assert_eq!(m.laps, 1, "{m:?}");
        let datagrams = (lap_bytes as usize).div_ceil(DATA_SEGMENT);
        assert!(datagrams > 16, "a lap of {datagrams} datagrams");
        assert!((m.recv_calls as usize) < datagrams, "{m:?}");
        receives += m.recv_calls;
    }
    let summary = daemon.shutdown().unwrap();
    assert_eq!(summary.backpressure_drops, 0);
    assert!(summary.udp.datagrams_per_send() > 1.0, "{summary:?}");
    assert!(
        receives <= summary.udp.sends,
        "{receives} receives, {summary:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Unknown methods are refused with a typed reason, and garbage instead
/// of a Hello lands in the dead-letter file without touching daemon
/// state.
#[test]
fn rejections_and_dead_letters_are_typed() {
    let dir = test_dir("reject");
    let programs = build_programs(6, 6, 4, 3);
    let daemon = start_daemon(&programs, &["nr"], &dir, None);
    let addr = daemon.local_addr();

    // Unknown method name.
    let config = SessionConfig::new(addr, "no_such_method", Transport::Tcp);
    match fetch_cycle(&config) {
        Err(SessionFailure::Rejected(_)) => {}
        other => panic!("expected rejection, got {other:?}"),
    }
    // Served registry method that this daemon does not carry.
    let config = SessionConfig::new(addr, "dj", Transport::Tcp);
    match fetch_cycle(&config) {
        Err(SessionFailure::Rejected(_)) => {}
        other => panic!("expected rejection, got {other:?}"),
    }

    // Garbage instead of a Hello: dead-lettered, connection refused.
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.write_all(&[0u8; 2]).unwrap(); // length prefix 0 → poisons stream
    raw.write_all(b"not a frame at all").unwrap();
    let mut buf = Vec::new();
    let _ = raw.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = raw.read_to_end(&mut buf); // daemon replies Reject and closes

    // A valid-looking stream carrying a non-Hello frame is also refused.
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.write_all(&encode_stream(&Frame::Hello(Hello {
        method: "nr".into(),
        transport: 7, // invalid transport tag → decode error
        udp_port: 0,
        offset: 0,
    })))
    .ok();
    let _ = raw.set_read_timeout(Some(Duration::from_secs(5)));
    let mut buf = Vec::new();
    let _ = raw.read_to_end(&mut buf);

    let summary = daemon.shutdown().unwrap();
    assert!(
        summary.rejections >= 3,
        "rejections: {}",
        summary.rejections
    );
    assert!(
        summary.dead_letters >= 1,
        "dead letters: {}",
        summary.dead_letters
    );
    let dead = std::fs::read_to_string(dir.join("serve.deadletter.jsonl")).unwrap();
    assert!(dead.contains("\"event\":\"dead_letter\""));
    // The garbage Hello's entry records the bytes that arrived, not the
    // daemon's whole read buffer.
    let garbage = dead
        .lines()
        .find(|l| l.contains("\"error\":\"bad_stream_length\""))
        .expect("garbage hello dead-lettered");
    let len = field(garbage, "len");
    assert!((1..=20).contains(&len), "{garbage}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Garbage on the control stream of a streaming session closes it
/// `protocol_error`, with a typed `Close` on the wire, and dead-letters
/// the bytes that arrived.
#[test]
fn garbage_on_a_streaming_control_stream_is_a_protocol_error() {
    let dir = test_dir("control_garbage");
    let programs = build_programs(8, 8, 8, 29);
    let daemon = start_daemon(&programs, &["nr"], &dir, None);
    let udp = UdpSocket::bind("127.0.0.1:0").expect("bind udp");
    let mut raw = udp_hello(&daemon, "nr", &udp);
    let mut dec = StreamDecoder::new();
    let Frame::Admit(admit) = recv_frame(&mut raw, &mut dec) else {
        panic!("expected Admit")
    };
    raw.write_all(&[0xFF, 0xFF, 1, 2, 3]).unwrap();
    match recv_frame(&mut raw, &mut dec) {
        Frame::Close(c) => assert_eq!(c.reason, CloseReason::ProtocolError),
        other => panic!("expected Close, got {other:?}"),
    }
    daemon.shutdown().unwrap();
    let closed = closed_events(&dir);
    assert_eq!(closed.len(), 1, "{closed:?}");
    assert!(
        closed[0].contains("\"reason\":\"protocol_error\""),
        "{}",
        closed[0]
    );
    let dead = std::fs::read_to_string(dir.join("serve.deadletter.jsonl")).unwrap();
    let context = format!("\"context\":\"session {} control\"", admit.session);
    let line = dead
        .lines()
        .find(|l| l.contains(&context))
        .unwrap_or_else(|| panic!("no control dead letter in {dead}"));
    assert!(field(line, "len") > 0, "{line}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A UDP client that hangs up without a `Close` ends its session at the
/// daemon's next read of the control stream: logged `connection_lost`
/// within one poll interval of the first lap, not streamed its whole lap
/// budget and expired. The client shuts its sending side right after its
/// `Hello`, so the hang-up is on the wire before the first datagram
/// whatever the scheduling, then reads its `Admit` and drops both
/// sockets.
#[test]
fn a_udp_client_that_hangs_up_without_a_close_is_not_streamed_on() {
    let dir = test_dir("udp_hang_up");
    let programs = build_programs(8, 8, 8, 31);
    let daemon = start_daemon(&programs, &["nr"], &dir, None);
    let udp = UdpSocket::bind("127.0.0.1:0").expect("bind udp");
    let mut raw = udp_hello(&daemon, "nr", &udp);
    raw.shutdown(Shutdown::Write).unwrap();
    let Frame::Admit(admit) = recv_frame(&mut raw, &mut StreamDecoder::new()) else {
        panic!("expected Admit")
    };
    drop(raw);
    drop(udp);
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while closed_events(&dir).is_empty() {
        assert!(std::time::Instant::now() < deadline, "session never closed");
        std::thread::sleep(Duration::from_millis(10));
    }
    daemon.shutdown().unwrap();
    let closed = closed_events(&dir);
    assert_eq!(closed.len(), 1, "{closed:?}");
    assert!(
        closed[0].contains("\"reason\":\"connection_lost\""),
        "{}",
        closed[0]
    );
    let bound = admit.cycle_len + (8 * DATAGRAM_FRAMES) as u64;
    let sent = field(&closed[0], "frames_sent");
    assert!(sent <= bound, "{sent} frames sent, bound {bound}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A UDP session whose daemon admits it and then hangs up fails at once
/// as a typed I/O failure, not at the end of its `max_wait`.
#[test]
fn a_udp_session_whose_daemon_hangs_up_fails_at_once() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || {
        let (mut control, _hello) = accept_hello(&listener);
        control
            .write_all(&encode_stream(&Frame::Admit(Admit {
                session: 7,
                cycle_len: 40,
                bootstrap: ClientBootstrap {
                    num_regions: 1,
                    bbox: None,
                },
            })))
            .unwrap();
    });
    let mut config = SessionConfig::new(addr, "nr", Transport::Udp);
    config.max_wait = Duration::from_secs(10);
    let asked = std::time::Instant::now();
    let fetched = fetch_cycle(&config);
    let took = asked.elapsed();
    daemon.join().expect("scripted daemon");
    assert!(
        matches!(fetched, Err(SessionFailure::Io(_))),
        "{:?}",
        fetched.map(|(_, _, m)| m)
    );
    assert!(took < Duration::from_secs(1), "took {took:?}");
}

/// A consumer that stops draining its TCP stream is evicted once the
/// write stall exceeds the configured window.
#[test]
fn slow_tcp_consumer_is_evicted() {
    let dir = test_dir("evict");
    let programs = build_programs(8, 8, 8, 11);
    let registry = MethodRegistry::standard();
    let world = ServeWorld::from_program_set(&programs, &[registry.get("nr").unwrap()]);
    let opts = ServeOptions {
        stall: Duration::from_millis(200),
        max_laps: 100_000, // keep writing until the buffers burst
        ..ServeOptions::in_dir(&dir)
    };
    let daemon = ServeDaemon::start(world, opts).expect("daemon start");
    let addr = daemon.local_addr();

    // Handshake, then never read again: the kernel buffers fill, the
    // daemon's write stalls past 200ms, and the session is evicted.
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.write_all(&encode_stream(&Frame::Hello(Hello {
        method: "nr".into(),
        transport: 0,
        udp_port: 0,
        offset: 0,
    })))
    .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let evicted = loop {
        assert!(
            std::time::Instant::now() < deadline,
            "eviction never happened"
        );
        let events = std::fs::read_to_string(dir.join("serve.events.jsonl")).unwrap_or_default();
        if events.contains("client_evicted") {
            break true;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(evicted);
    drop(raw);

    let summary = daemon.shutdown().unwrap();
    assert_eq!(summary.evictions, 1);
    let events = std::fs::read_to_string(dir.join("serve.events.jsonl")).unwrap();
    assert!(events.contains("\"event\":\"client_evicted\""));
    assert!(events.contains("\"reason\":\"evicted_slow\""));
    std::fs::remove_dir_all(&dir).ok();
}

/// `kill -INT` on the daemon binary ends the cycle loop, closes
/// sessions with a typed reason, and flushes the event log before exit.
#[test]
fn sigint_shuts_the_daemon_down_cleanly() {
    let dir = test_dir("sigint");
    let events = dir.join("events.jsonl");
    let dead = dir.join("dead.jsonl");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_serve_daemon"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--grid",
            "6",
            "6",
            "--regions",
            "4",
            "--methods",
            "nr",
        ])
        .arg("--events")
        .arg(&events)
        .arg("--dead-letter")
        .arg(&dead)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn daemon");

    // Wait for the listening line (the daemon is up and serving).
    let mut stdout = child.stdout.take().expect("stdout");
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    while byte[0] != b'\n' {
        stdout.read_exact(&mut byte).expect("daemon died early");
        line.push(byte[0]);
    }
    let line = String::from_utf8(line).unwrap();
    let addr: std::net::SocketAddr = line
        .trim()
        .strip_prefix("listening on ")
        .expect("listening line")
        .parse()
        .expect("addr");

    // One real session against the spawned process.
    let config = SessionConfig::new(addr, "nr", Transport::Tcp);
    let (cycle, _boot, _m) = fetch_cycle(&config).expect("fetch over spawned daemon");
    assert!(!cycle.is_empty());

    let pid = child.id().to_string();
    let status = std::process::Command::new("kill")
        .args(["-INT", &pid])
        .status()
        .expect("send SIGINT");
    assert!(status.success());

    let exit = child.wait().expect("daemon exit");
    assert!(exit.success(), "daemon exited {exit:?}");

    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(
        rest.contains("stopped sessions=1"),
        "summary line: {rest:?}"
    );

    let text = std::fs::read_to_string(&events).expect("event log flushed");
    assert!(text.contains("\"event\":\"daemon_started\""));
    assert!(text.contains("\"event\":\"session_admitted\""));
    assert!(text.contains("\"event\":\"daemon_stopped\""));
    // Every line is complete (the flush+fsync path ran).
    for l in text.lines() {
        assert!(l.starts_with('{') && l.ends_with('}'), "torn line {l:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Both binaries share the bench binaries' flag parser: a malformed
/// command line prints the usage line and exits 2.
#[test]
fn serve_bins_exit_2_on_a_usage_error() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_serve_daemon"), &["--grid", "6"][..]),
        (env!("CARGO_BIN_EXE_serve_daemon"), &["--no-such-flag"][..]),
        (env!("CARGO_BIN_EXE_serve_client"), &["--method", "nr"][..]),
        (
            env!("CARGO_BIN_EXE_serve_client"),
            &["--addr", "127.0.0.1:9", "--transport", "sctp"][..],
        ),
    ] {
        let out = std::process::Command::new(bin)
            .args(args)
            .output()
            .expect("run binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: serve_"), "{args:?}: {stderr}");
    }
}
