//! `SO_RCVBUF` on a UDP socket: the one socket option the std library
//! does not expose that the client needs, so its receive buffer can hold
//! a whole lap.
//!
//! No `libc` crate is vendored, so `setsockopt(2)`/`getsockopt(2)` are
//! declared locally, the way [`crate::signal`] declares `signal(2)`. The
//! constants are Linux's generic socket ABI; elsewhere the request is a
//! no-op that reports no buffer.

use std::net::UdpSocket;

/// Asks the kernel for a receive buffer of `bytes` on `sock` and returns
/// what it granted (Linux clamps the request to `net.core.rmem_max` and
/// doubles it for bookkeeping, so `usize::MAX` asks for the most it
/// allows), or 0 when the option is unavailable.
pub fn set_recv_buffer(sock: &UdpSocket, bytes: usize) -> u64 {
    imp::set_recv_buffer(sock, bytes)
}

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod imp {
    use std::ffi::{c_int, c_void};
    use std::net::UdpSocket;
    use std::os::fd::AsRawFd;

    const SOL_SOCKET: c_int = 1;
    const SO_RCVBUF: c_int = 8;

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
    }

    pub fn set_recv_buffer(sock: &UdpSocket, bytes: usize) -> u64 {
        let fd = sock.as_raw_fd();
        let want = c_int::try_from(bytes).unwrap_or(c_int::MAX);
        let mut granted: c_int = 0;
        let mut len = std::mem::size_of::<c_int>() as u32;
        // SAFETY: `fd` is a live socket borrowed from `sock`, and both
        // calls read or write exactly one `c_int` through valid pointers
        // whose length they are given.
        let ok = unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                SO_RCVBUF,
                (&want as *const c_int).cast(),
                len,
            );
            getsockopt(
                fd,
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
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn set_recv_buffer(_sock: &std::net::UdpSocket, _bytes: usize) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn a_requested_buffer_is_granted_and_read_back() {
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let small = set_recv_buffer(&sock, 4096);
        assert!(small >= 4096, "granted {small}");
        let large = set_recv_buffer(&sock, 64 * 1024);
        assert!(large > small, "granted {large} after {small}");
    }
}
