//! The TCP control stream of a session, read and written through one
//! type on both ends.
//!
//! Every session talks over one TCP connection: the client's `Hello` and
//! `Close`, the daemon's `Admit`, `Reject` and `Close`, and on the TCP
//! transport the data frames themselves. [`Control`] owns that
//! connection, its [`StreamDecoder`] and its read buffer, and switches
//! the socket between blocking and nonblocking only when a call needs
//! the other mode, so a caller that alternates writes and polls pays two
//! switches per pair, and one that only polls pays one in all.
//!
//! A hang-up — the end of the stream, or a read that fails — is reported
//! as [`ControlError::HungUp`] once every frame that arrived before it
//! has been returned: a `Close` followed by a hang-up still reads as the
//! `Close`.

use crate::frame::{self, Close, Frame, FrameError, StreamDecoder};
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long one blocking read waits before [`Control::next`] checks its
/// deadline and stop flag again.
const READ_TIMEOUT: Duration = Duration::from_millis(100);

/// Why the control stream gave no frame.
#[derive(Debug)]
pub(crate) enum ControlError {
    /// The peer hung up: the stream ended (`UnexpectedEof`) or a read
    /// failed with this kind. Every frame before it has been returned.
    HungUp(ErrorKind),
    /// The stream carried a malformed frame; its bytes stay in
    /// [`Control::unframed`].
    Frame(FrameError),
    /// [`Control::next`]'s deadline passed, or its stop flag was set,
    /// before a frame arrived.
    Timeout,
}

/// One end of a session's TCP control connection.
pub(crate) struct Control {
    stream: TcpStream,
    dec: StreamDecoder,
    /// One read's bytes.
    buf: Vec<u8>,
    nonblocking: bool,
    /// Why the stream ended, once a read has seen it end.
    ended: Option<ErrorKind>,
    /// Reads that returned bytes.
    reads: u64,
}

impl Control {
    /// Takes over a connected `stream`, blocking, with Nagle off and a
    /// read timeout of [`READ_TIMEOUT`], reading up to `read_bytes` at a
    /// time.
    pub(crate) fn new(stream: TcpStream, read_bytes: usize) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Self {
            stream,
            dec: StreamDecoder::new(),
            buf: vec![0; read_bytes],
            nonblocking: false,
            ended: None,
            reads: 0,
        })
    }

    fn set_nonblocking(&mut self, on: bool) {
        if self.nonblocking != on {
            let _ = self.stream.set_nonblocking(on);
            self.nonblocking = on;
        }
    }

    /// Reads once into the decoder; `false` when nothing arrived within
    /// the read timeout (or at once, nonblocking) or the stream ended.
    fn read(&mut self) -> bool {
        if self.ended.is_some() {
            return false;
        }
        match self.stream.read(&mut self.buf) {
            Ok(0) => self.ended = Some(ErrorKind::UnexpectedEof),
            Ok(n) => {
                self.reads += 1;
                self.dec.push(&self.buf[..n]);
                return true;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => self.ended = Some(e.kind()),
        }
        false
    }

    /// The next decoded frame; once none is left, the hang-up if the
    /// stream has ended.
    fn decoded(&mut self) -> Result<Option<Frame>, ControlError> {
        match self.dec.next_frame().map_err(ControlError::Frame)? {
            Some(f) => Ok(Some(f)),
            None => self
                .ended
                .map_or(Ok(None), |k| Err(ControlError::HungUp(k))),
        }
    }

    /// Reads what has arrived without blocking, and returns the first
    /// `Close` among it; other frames are skipped.
    pub(crate) fn poll(&mut self) -> Result<Option<Close>, ControlError> {
        self.set_nonblocking(true);
        while self.read() {}
        while let Some(f) = self.decoded()? {
            if let Frame::Close(c) = f {
                return Ok(Some(c));
            }
        }
        Ok(None)
    }

    /// The next frame, blocking one read timeout at a time until it
    /// arrives, `deadline` passes or `stop` is set.
    pub(crate) fn next(
        &mut self,
        deadline: Instant,
        stop: Option<&AtomicBool>,
    ) -> Result<Frame, ControlError> {
        self.set_nonblocking(false);
        loop {
            if let Some(f) = self.decoded()? {
                return Ok(f);
            }
            if stop.is_some_and(|s| s.load(Ordering::SeqCst)) || Instant::now() > deadline {
                return Err(ControlError::Timeout);
            }
            self.read();
        }
    }

    /// Writes `bytes` whole, blocking (up to the stream's write timeout).
    pub(crate) fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.set_nonblocking(false);
        self.stream.write_all(bytes)
    }

    /// Writes one length-prefixed frame.
    pub(crate) fn send_frame(&mut self, frame: &Frame) -> io::Result<()> {
        self.send(&frame::encode_stream(frame))
    }

    /// Bytes received but not framed: after a [`ControlError::Frame`],
    /// the malformed frame and whatever followed it.
    pub(crate) fn unframed(&self) -> &[u8] {
        self.dec.unframed()
    }

    /// Reads that returned bytes so far.
    pub(crate) fn reads(&self) -> u64 {
        self.reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_stream, CloseReason, RejectReason};
    use std::net::TcpListener;

    fn pair() -> (Control, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (far, _) = listener.accept().unwrap();
        (Control::new(near, 1024).unwrap(), far)
    }

    fn close() -> Close {
        Close {
            session: 3,
            reason: CloseReason::Done,
            drops: 0,
            laps: 1,
        }
    }

    #[test]
    fn a_hang_up_comes_after_the_frames_sent_before_it() {
        let (mut control, mut far) = pair();
        let mut bytes = encode_stream(&Frame::Reject(RejectReason::Protocol));
        bytes.extend(encode_stream(&Frame::Close(close())));
        far.write_all(&bytes).unwrap();
        drop(far);
        let deadline = Instant::now() + Duration::from_secs(5);
        assert!(matches!(
            control.next(deadline, None),
            Ok(Frame::Reject(RejectReason::Protocol))
        ));
        assert_eq!(control.poll().unwrap(), Some(close()));
        for _ in 0..2 {
            assert!(matches!(
                control.poll(),
                Err(ControlError::HungUp(ErrorKind::UnexpectedEof))
            ));
        }
        assert!(matches!(
            control.next(deadline, None),
            Err(ControlError::HungUp(_))
        ));
    }

    #[test]
    fn next_gives_up_at_its_deadline_or_stop_flag() {
        let (mut control, _far) = pair();
        assert!(matches!(control.poll(), Ok(None)));
        let started = Instant::now();
        let stop = AtomicBool::new(true);
        let far_off = started + Duration::from_secs(30);
        assert!(matches!(
            control.next(far_off, Some(&stop)),
            Err(ControlError::Timeout)
        ));
        assert!(matches!(
            control.next(started + Duration::from_millis(150), None),
            Err(ControlError::Timeout)
        ));
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn a_malformed_frame_keeps_its_bytes() {
        let (mut control, mut far) = pair();
        far.write_all(&[0xFF, 0xFF, 1, 2, 3]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        assert!(matches!(
            control.next(deadline, None),
            Err(ControlError::Frame(FrameError::BadStreamLength(0xFFFF)))
        ));
        assert_eq!(control.unframed(), [0xFF, 0xFF, 1, 2, 3]);
        assert_eq!(control.reads(), 1);
    }
}
