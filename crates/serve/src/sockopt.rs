//! The UDP socket options and calls the std library does not expose:
//! `SO_RCVBUF`, so the client's receive buffer can hold a whole lap, and
//! UDP segmentation offload, so a run of equal-size datagrams crosses the
//! kernel as one object. The daemon sets `UDP_SEGMENT` and sends a run of
//! datagrams in one call; the kernel cuts it into the same datagrams a
//! send per datagram would put on the wire. The client sets `UDP_GRO` and
//! receives with `recvmsg(2)`, whose control message gives the segment
//! size of a run that arrived coalesced.
//!
//! No `libc` crate is vendored, so `setsockopt(2)`, `getsockopt(2)` and
//! `recvmsg(2)` are declared locally, the way [`crate::signal`] declares
//! `signal(2)`. The constants and structures are Linux's generic socket
//! ABI. Where the kernel refuses an option, or off Linux, a run goes out
//! one datagram per send and each receive is one datagram.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::OnceLock;

/// Asks the kernel for a receive buffer of `bytes` on `sock` and returns
/// what it granted (Linux clamps the request to `net.core.rmem_max` and
/// doubles it for bookkeeping, so `usize::MAX` asks for the most it
/// allows), or 0 when the option is unavailable.
pub fn set_recv_buffer(sock: &UdpSocket, bytes: usize) -> u64 {
    imp::set_recv_buffer(sock, bytes)
}

/// Has the kernel cut every send on `sock` longer than `segment` bytes
/// into datagrams of `segment` bytes, the last one possibly shorter
/// (`UDP_SEGMENT`); `false` when it refuses.
pub fn set_send_segment(sock: &UdpSocket, segment: usize) -> bool {
    imp::set_send_segment(sock, segment)
}

/// Has the kernel hand `sock` a run of datagrams that one segmented send
/// made as one receive (`UDP_GRO`); `false` when it refuses.
///
/// Linux keeps one global switch on while any socket has `UDP_GRO`, and
/// flipping it rewrites kernel code on every CPU. The first call
/// therefore opens one more GRO socket that the process keeps, so a
/// session's socket opening and closing does not flip the switch twice:
/// in a loopback probe of 13-frame cycles, that flipping added about 70
/// µs to each UDP session.
pub fn enable_gro(sock: &UdpSocket) -> bool {
    static HELD: OnceLock<Option<UdpSocket>> = OnceLock::new();
    HELD.get_or_init(|| UdpSocket::bind("127.0.0.1:0").ok().filter(imp::enable_gro));
    imp::enable_gro(sock)
}

/// Receives one datagram, or one coalesced run of them, into `buf`:
/// the bytes received and the size of the datagrams they hold (only the
/// last may be shorter). A plain datagram is one segment of its own
/// length.
pub fn recv_run(sock: &UdpSocket, buf: &mut [u8]) -> io::Result<(usize, usize)> {
    imp::recv_run(sock, buf)
}

/// What one [`send_run`] put on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunSent {
    /// Bytes of the datagrams that went out.
    pub bytes: usize,
    /// Datagrams that went out.
    pub datagrams: u64,
    /// Send calls that put them there.
    pub sends: u64,
}

/// Sends `run`, datagrams of `segment` bytes end to end (only the last
/// may be shorter), to `dest`. With `*offload` set (the socket's
/// `UDP_SEGMENT` is `segment`) the run goes out as one send and the
/// kernel cuts it; otherwise each datagram is its own send. A send that
/// fails drops its datagrams, as UDP does; a segmented send the kernel
/// refuses for any reason but a full buffer clears `*offload`, and the
/// run goes out one datagram per send.
pub fn send_run(
    sock: &UdpSocket,
    run: &[u8],
    segment: usize,
    dest: SocketAddr,
    offload: &mut bool,
) -> RunSent {
    let mut sent = RunSent::default();
    if *offload {
        match sock.send_to(run, dest) {
            Ok(_) => {
                return RunSent {
                    bytes: run.len(),
                    datagrams: run.len().div_ceil(segment) as u64,
                    sends: 1,
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return sent,
            Err(_) => *offload = false,
        }
    }
    for datagram in run.chunks(segment) {
        if sock.send_to(datagram, dest).is_ok() {
            sent.bytes += datagram.len();
            sent.datagrams += 1;
            sent.sends += 1;
        }
    }
    sent
}

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod imp {
    use std::ffi::{c_int, c_void};
    use std::io;
    use std::net::UdpSocket;
    use std::os::fd::AsRawFd;

    const SOL_SOCKET: c_int = 1;
    const SO_RCVBUF: c_int = 8;
    const SOL_UDP: c_int = 17;
    const UDP_SEGMENT: c_int = 103;
    const UDP_GRO: c_int = 104;

    #[repr(C)]
    struct IoVec {
        base: *mut c_void,
        len: usize,
    }

    #[repr(C)]
    struct MsgHdr {
        name: *mut c_void,
        name_len: u32,
        iov: *mut IoVec,
        iov_len: usize,
        control: *mut c_void,
        control_len: usize,
        flags: c_int,
    }

    /// A control message's header; its data starts at the header's
    /// size rounded up to a `usize`.
    #[repr(C)]
    struct CmsgHdr {
        len: usize,
        level: c_int,
        kind: c_int,
    }

    /// Room for the one control message `UDP_GRO` adds, aligned as the
    /// kernel writes it.
    #[repr(C, align(8))]
    struct Control([u8; 64]);

    extern "C" {
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
        fn getsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *mut c_void,
            len: *mut u32,
        ) -> c_int;
        fn recvmsg(fd: c_int, msg: *mut MsgHdr, flags: c_int) -> isize;
    }

    fn set_int(sock: &UdpSocket, level: c_int, name: c_int, value: c_int) -> bool {
        // SAFETY: `fd` is a live socket borrowed from `sock`, and the
        // call reads exactly one `c_int` through a valid pointer whose
        // length it is given.
        unsafe {
            setsockopt(
                sock.as_raw_fd(),
                level,
                name,
                (&value as *const c_int).cast(),
                std::mem::size_of::<c_int>() as u32,
            ) == 0
        }
    }

    pub fn set_recv_buffer(sock: &UdpSocket, bytes: usize) -> u64 {
        set_int(
            sock,
            SOL_SOCKET,
            SO_RCVBUF,
            c_int::try_from(bytes).unwrap_or(c_int::MAX),
        );
        let mut granted: c_int = 0;
        let mut len = std::mem::size_of::<c_int>() as u32;
        // SAFETY: as in `set_int`, writing one `c_int`.
        let ok = unsafe {
            getsockopt(
                sock.as_raw_fd(),
                SOL_SOCKET,
                SO_RCVBUF,
                (&mut granted as *mut c_int).cast(),
                &mut len,
            ) == 0
        };
        if ok {
            u64::try_from(granted).unwrap_or(0)
        } else {
            0
        }
    }

    pub fn set_send_segment(sock: &UdpSocket, segment: usize) -> bool {
        c_int::try_from(segment).is_ok_and(|s| set_int(sock, SOL_UDP, UDP_SEGMENT, s))
    }

    pub fn enable_gro(sock: &UdpSocket) -> bool {
        set_int(sock, SOL_UDP, UDP_GRO, 1)
    }

    pub fn recv_run(sock: &UdpSocket, buf: &mut [u8]) -> io::Result<(usize, usize)> {
        let mut iov = IoVec {
            base: buf.as_mut_ptr().cast(),
            len: buf.len(),
        };
        let mut control = Control([0; 64]);
        let mut msg = MsgHdr {
            name: std::ptr::null_mut(),
            name_len: 0,
            iov: &mut iov,
            iov_len: 1,
            control: control.0.as_mut_ptr().cast(),
            control_len: control.0.len(),
            flags: 0,
        };
        // SAFETY: `fd` is a live socket borrowed from `sock`; `msg`
        // points at one iovec over `buf` and at `control`, each with its
        // length, and all outlive the call.
        let n = unsafe { recvmsg(sock.as_raw_fd(), &mut msg, 0) };
        let n = usize::try_from(n).map_err(|_| io::Error::last_os_error())?;
        let control = &control.0[..msg.control_len.min(control.0.len())];
        Ok((n, gro_segment(control).unwrap_or(n)))
    }

    /// The segment size in a `UDP_GRO` control message, if `control`
    /// holds one.
    fn gro_segment(control: &[u8]) -> Option<usize> {
        let word = std::mem::size_of::<usize>();
        let head = std::mem::size_of::<CmsgHdr>().next_multiple_of(word);
        let int = |at: usize| -> Option<c_int> {
            Some(c_int::from_ne_bytes(
                control.get(at..at + 4)?.try_into().ok()?,
            ))
        };
        let mut at = 0;
        while at + head <= control.len() {
            let len = usize::from_ne_bytes(control[at..at + word].try_into().ok()?);
            if len < head {
                return None;
            }
            let (level, kind) = (int(at + word)?, int(at + word + 4)?);
            if level == SOL_UDP && kind == UDP_GRO && len >= head + 4 {
                return usize::try_from(int(at + head)?).ok().filter(|&s| s > 0);
            }
            at += len.next_multiple_of(word);
        }
        None
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use std::net::UdpSocket;

    pub fn set_recv_buffer(_sock: &UdpSocket, _bytes: usize) -> u64 {
        0
    }

    pub fn set_send_segment(_sock: &UdpSocket, _segment: usize) -> bool {
        false
    }

    pub fn enable_gro(_sock: &UdpSocket) -> bool {
        false
    }

    pub fn recv_run(sock: &UdpSocket, buf: &mut [u8]) -> std::io::Result<(usize, usize)> {
        let n = sock.recv(buf)?;
        Ok((n, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn receiver(gro: bool) -> UdpSocket {
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        if gro {
            assert!(enable_gro(&sock), "UDP_GRO refused");
        }
        sock
    }

    /// Three datagrams of 100 bytes and a short one of 40, each filled
    /// with its index.
    fn run() -> Vec<u8> {
        (0u8..4)
            .flat_map(|i| vec![i; if i == 3 { 40 } else { 100 }])
            .collect()
    }

    /// Everything `sock` receives until it has `want` bytes, as
    /// (bytes, segment size) per receive.
    fn receive(sock: &UdpSocket, want: usize) -> Vec<(Vec<u8>, usize)> {
        let (mut got, mut total) = (Vec::new(), 0);
        let mut buf = vec![0u8; 1 << 16];
        while total < want {
            let (n, segment) = recv_run(sock, &mut buf).unwrap();
            got.push((buf[..n].to_vec(), segment));
            total += n;
        }
        got
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_requested_buffer_is_granted_and_read_back() {
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let small = set_recv_buffer(&sock, 4096);
        assert!(small >= 4096, "granted {small}");
        let large = set_recv_buffer(&sock, 64 * 1024);
        assert!(large > small, "granted {large} after {small}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_segmented_send_arrives_whole_with_gro_and_cut_without() {
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        assert!(set_send_segment(&tx, 100), "UDP_SEGMENT refused");
        let run = run();
        let (gro, plain) = (receiver(true), receiver(false));

        let mut offload = true;
        let sent = send_run(&tx, &run, 100, gro.local_addr().unwrap(), &mut offload);
        assert_eq!((sent.bytes, sent.datagrams, sent.sends), (340, 4, 1));
        assert!(offload);
        assert_eq!(receive(&gro, run.len()), vec![(run.clone(), 100)]);

        send_run(&tx, &run, 100, plain.local_addr().unwrap(), &mut offload);
        let cut: Vec<(Vec<u8>, usize)> = run.chunks(100).map(|d| (d.to_vec(), d.len())).collect();
        assert_eq!(receive(&plain, run.len()), cut);
    }

    #[test]
    fn without_offload_a_run_goes_out_one_datagram_per_send() {
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let run = run();
        let cut: Vec<(Vec<u8>, usize)> = run.chunks(100).map(|d| (d.to_vec(), d.len())).collect();
        for gro in [false, true] {
            if gro && !cfg!(target_os = "linux") {
                continue;
            }
            let rx = receiver(gro);
            let mut offload = false;
            let sent = send_run(&tx, &run, 100, rx.local_addr().unwrap(), &mut offload);
            assert_eq!((sent.bytes, sent.datagrams, sent.sends), (340, 4, 4));
            assert_eq!(receive(&rx, run.len()), cut, "gro {gro}");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_refused_segmented_send_falls_back_to_one_send_per_datagram() {
        // More segments than one send may carry (Linux allows 128): the
        // kernel refuses the segmented send with `EINVAL`.
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        assert!(set_send_segment(&tx, 4), "UDP_SEGMENT refused");
        let rx = receiver(false);
        set_recv_buffer(&rx, usize::MAX);
        let run: Vec<u8> = (0..4 * 256).map(|i| (i / 4) as u8).collect();
        let mut offload = true;
        let sent = send_run(&tx, &run, 4, rx.local_addr().unwrap(), &mut offload);
        assert!(!offload, "the refusal turns offload off");
        assert_eq!((sent.bytes, sent.datagrams, sent.sends), (1024, 256, 256));
        let cut: Vec<(Vec<u8>, usize)> = run.chunks(4).map(|d| (d.to_vec(), 4)).collect();
        assert_eq!(receive(&rx, run.len()), cut);
    }
}
