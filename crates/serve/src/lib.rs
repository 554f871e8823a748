//! `spair-serve`: a real serving front end for the broadcast methods.
//!
//! Everything else in the repo drives the paper's broadcast cycles
//! through an in-process iterator. This crate is the step from
//! "reproduction" to "system": a long-running daemon takes any registry
//! method's assembled [`spair_broadcast::BroadcastCycle`] and streams it
//! over real loopback transports — UDP (datagrams of up to nine
//! length-prefixed, CRC-framed packets) and TCP (a stream of the same
//! length-prefixed frames, written in ~64 KiB batches) — to clients
//! that hold no program: they reconstruct the cycle from the wire and
//! run the registry's method clients, built from the admission
//! bootstrap alone, over it.
//!
//! The layering mirrors a real broadcast station:
//!
//! * [`frame`] — the wire format. One binary frame codec shared by both
//!   transports, CRC-32-tailed with the same polynomial the 128-byte
//!   packet images already use, plus the datagram packer
//!   [`frame::Datagram`] and the daemon's run of data datagrams
//!   [`frame::DataRun`]; every malformed input surfaces as a typed
//!   [`frame::FrameError`], never a panic or a partial ingest.
//! * [`events`] — the observability layer: an append-only JSONL event
//!   log in the outbox style (`session_admitted`, `cycle_started`,
//!   `packet_dropped`, `client_evicted`, `session_closed`) plus a
//!   dead-letter file for undecodable inbound frames.
//! * the private `control` module — the one reader and writer of a
//!   session's TCP control stream on both ends: it owns the socket, its
//!   decoder and read buffer and the socket's blocking mode, and offers
//!   a nonblocking poll for a `Close`, a blocking `next` frame bounded
//!   by a deadline and a stop flag, and a send. End of stream surfaces
//!   as a typed hang-up once the frames before it are read.
//! * [`daemon`] — session admission over a TCP control connection,
//!   per-session streamer threads running one lap loop over a TCP or
//!   UDP sink that queues frames in one [`frame::DataRun`] and sends it
//!   at the sink's limit (a TCP stream sends one lap and waits for the
//!   client's `Close`; the UDP sink sends a poll interval's datagrams as
//!   one segmented send and yields once per poll of the control stream),
//!   per-client backpressure (TCP write stalls evict slow consumers;
//!   failed UDP sends and the deterministic injected [`daemon::DropPlan`]
//!   drop frames), and graceful shutdown that closes every session with
//!   a typed reason and fsyncs the log. A client that hangs up without a
//!   `Close` ends its session at the next poll (`connection_lost`), not
//!   after its lap budget.
//! * [`client`] — the client side: tune in over a socket, collect one
//!   full cycle into a slot table (late datagrams fill on later laps —
//!   drops only ever delay an answer, they never change it), rebuild
//!   the cycle via [`spair_broadcast::BroadcastCycle::from_packets`]
//!   and answer queries with the registry's remote clients. A UDP
//!   client asks for a receive buffer that holds a lap, and takes a run
//!   of datagrams sent as one segmented send as one receive. A daemon
//!   that hangs up fails the session at once as
//!   [`client::SessionFailure::Io`] (unless the datagrams already queued
//!   complete its table), not at `max_wait`.
//! * [`signal`] — the SIGINT/SIGTERM shutdown flag for the bins.
//!
//! The crate has two scoped `unsafe` modules, because the build is
//! offline and has no libc crate: [`signal`] registers its handler, and
//! the private `sockopt` sets and reads back a UDP socket's `SO_RCVBUF`,
//! sets `UDP_SEGMENT` on the daemon's socket and `UDP_GRO` on the
//! client's, and receives with `recvmsg(2)` to read a coalesced run's
//! segment size, each through a local `extern "C"` declaration.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod control;
pub mod daemon;
pub mod events;
pub mod frame;
pub mod signal;
mod sockopt;

pub use client::{
    fetch_cycle, run_query, SessionConfig, SessionFailure, SessionMetrics, Transport,
};
pub use daemon::{
    DropPlan, ServeChannel, ServeDaemon, ServeOptions, ServeSummary, ServeWorld, TransportSends,
};
pub use events::{DeadLetter, Event, EventLog};
pub use frame::{CloseReason, Frame, FrameError, RejectReason, StreamDecoder};
