//! Wireless broadcast substrate (paper §2.2, §3.1).
//!
//! In the broadcast model a server repeatedly transmits identical
//! *broadcast cycles* — fixed-size packets carrying the database plus air
//! indexes — while clients tune in, receive the packets they need, sleep
//! through the rest, and process queries locally. This crate simulates that
//! world at packet granularity:
//!
//! * [`packet`] — 128-byte frames; every packet carries a pointer (offset)
//!   to the next index copy, as required by both EB and NR;
//! * [`codec`] — record-aligned payload encoding, so that one lost packet
//!   never corrupts records in other packets (the packing discipline of
//!   Figure 9);
//! * [`cycle`] — an assembled broadcast cycle with named segments;
//! * [`interleave`] — the (1,m) scheme of Imielinski et al. with the
//!   optimal `m = sqrt(data/index)`;
//! * [`air`] — the client's view, the [`Air`] trait: tune in at an
//!   arbitrary instant, then receive or sleep one slot at a time; every
//!   client listens through it, and it carries no fault telemetry;
//! * [`channel`] — [`BroadcastChannel`], the simulated [`Air`] over one
//!   in-memory cycle, with one receive path, optionally under Bernoulli
//!   or bursty packet loss;
//! * [`fault`] — [`FaultyChannel`], the one place faults beyond loss are
//!   injected: a channel under a seeded [`FaultPlan`] (CRC-detectable bit
//!   corruption, truncated cycles with server restarts, duplicated and
//!   stale-version frames, correlated window loss, all advancing on the
//!   packet clock), whose injection counters only the harness that
//!   opened it reads;
//! * [`metrics`] — tuning time, access latency, peak client memory, CPU
//!   time (the performance factors of §3.1);
//! * [`energy`] / [`device`] — WaveLAN/ARM power constants and the J2ME
//!   device profile used in the evaluation (§7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod air;
pub mod channel;
pub mod codec;
pub mod cycle;
pub mod device;
pub mod energy;
pub mod fault;
pub mod interleave;
pub mod metrics;
pub mod packet;

pub use air::{Air, Received};
pub use channel::{BroadcastChannel, LossModel};
pub use codec::{PayloadReader, RecordWriter};
pub use cycle::{BroadcastCycle, CycleBuilder, SegmentKind};
pub use device::{ChannelRate, DeviceProfile};
pub use energy::EnergyModel;
pub use fault::{splitmix64, FaultPlan, FaultTelemetry, FaultyChannel};
pub use interleave::{interleave_1m, optimal_m};
pub use metrics::{CpuMeter, MemoryMeter, QueryStats};
pub use packet::{crc32, Packet, PacketKind, PACKET_SIZE, PAYLOAD_CAPACITY};
