//! Deterministic fault injection beyond packet loss (§6.2 stress model).
//!
//! [`LossModel`] erases packets; a [`FaultPlan`] injects the *other*
//! failure modes a broadcast client can meet in the field:
//!
//! * **bit corruption** — a frame arrives, but some of its bits flipped in
//!   flight. The link layer's CRC-32 trailer ([`crate::packet::crc32`])
//!   catches every 1–3-bit error at this frame length (the IEEE 802.3
//!   polynomial has Hamming distance 4 up to ~91 kbit), so a corrupted
//!   frame is *detectable* and surfaces as [`Received::Corrupted`],
//!   never as silently wrong payload bytes;
//! * **truncated cycles / server restarts** — the server aborts the
//!   current cycle mid-flight and restarts from offset 0, bumping the
//!   cycle version. Clients that slept across the restart wake to a
//!   phase-shifted schedule;
//! * **duplicated packets** — the previous slot's frame is delivered
//!   again (link-layer stutter);
//! * **stale-version packets** — after a restart, a frame from the
//!   pre-restart schedule leaks through (a repeater still draining its
//!   queue);
//! * **correlated window loss** — whole windows of the shared packet
//!   clock are wiped. Every client that shares the plan seed loses the
//!   *same* slots, which models fading hitting a flash crowd rather than
//!   independent per-client noise.
//!
//! Every draw is a pure function of the plan seed and the **absolute
//! packet clock** — like the Gilbert–Elliott chain, faults advance with
//! the channel, not with the client, so the fault stream is independent
//! of client behaviour (sleep patterns, retries) and of thread count.
//!
//! A [`FaultyChannel`] is a [`BroadcastChannel`] under a plan: it is the
//! one place faults are injected, and the [`Air`] clients listen to. Its
//! [`FaultyChannel::telemetry`] counts what was injected, for the harness
//! that opened it; a client cannot see it through [`Air`].
//! [`FaultPlan::none`] is the identity: under it a [`FaultyChannel`]
//! behaves byte for byte like the bare channel.

use crate::air::{Air, Received};
use crate::channel::{BroadcastChannel, LossModel};
use crate::cycle::BroadcastCycle;
use crate::packet::{crc32, Packet, PACKET_SIZE};

/// SplitMix64 — the stateless hash behind every fault draw, and the
/// seed-derivation function of every harness: session offsets, loss
/// streams and fault plans are all pure functions of a seed through it,
/// so runs reproduce for any thread schedule.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` from a hash value.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const TAG_CORRUPT: u64 = 0xC0_44_55;
const TAG_DUP: u64 = 0xD0_0B_1E;
const TAG_STALE: u64 = 0x57_A1_E0;
const TAG_RESTART: u64 = 0x4E_57_A4;
const TAG_LOSS: u64 = 0x10_55_C0;

/// A seeded, deterministic fault schedule for one channel session (or —
/// when the seed is shared — for a whole correlated population).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed all per-slot draws derive from.
    pub seed: u64,
    /// Per-packet probability the frame arrives bit-corrupted (CRC
    /// check fails; the client sees [`Received::Corrupted`]).
    pub corrupt_rate: f64,
    /// Per-packet probability the previous slot's frame is delivered
    /// again instead of the scheduled one.
    pub duplicate_rate: f64,
    /// Per-packet probability (only meaningful after at least one
    /// restart) that a frame from the pre-restart schedule is delivered.
    pub stale_rate: f64,
    /// Mean packets between server restarts; 0 disables restarts.
    pub restart_mean_packets: f64,
    /// Correlated window loss as `(rate, window_packets)`: each aligned
    /// window of the absolute packet clock is wiped in its entirety with
    /// probability `rate`. `None` disables it.
    pub correlated_loss: Option<(f64, u64)>,
}

impl FaultPlan {
    /// The identity plan: no faults, and a [`FaultyChannel`] under it is
    /// byte-identical to the bare [`BroadcastChannel`].
    pub const fn none() -> Self {
        Self {
            seed: 0,
            corrupt_rate: 0.0,
            duplicate_rate: 0.0,
            stale_rate: 0.0,
            restart_mean_packets: 0.0,
            correlated_loss: None,
        }
    }

    /// A corruption-only plan.
    pub fn corruption(rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "corrupt rate must be in [0,1]");
        Self {
            corrupt_rate: rate,
            seed,
            ..Self::none()
        }
    }

    /// A duplication-only plan.
    pub fn duplication(rate: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "duplicate rate must be in [0,1]"
        );
        Self {
            duplicate_rate: rate,
            seed,
            ..Self::none()
        }
    }

    /// A restart-only plan: the server truncates the cycle roughly every
    /// `mean_packets` packets, with `stale_rate` of post-restart slots
    /// leaking pre-restart frames.
    pub fn restarts(mean_packets: f64, stale_rate: f64, seed: u64) -> Self {
        assert!(mean_packets >= 2.0, "restart mean must be >= 2 packets");
        assert!((0.0..=1.0).contains(&stale_rate), "stale rate in [0,1]");
        Self {
            restart_mean_packets: mean_packets,
            stale_rate,
            seed,
            ..Self::none()
        }
    }

    /// A correlated window-loss plan (flash-crowd fading): aligned
    /// windows of `window` packets are wiped with probability `rate`.
    pub fn correlated_loss(rate: f64, window: u64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&rate), "loss rate must be in [0,1)");
        assert!(window >= 1, "window must be >= 1 packet");
        Self {
            correlated_loss: Some((rate, window)),
            seed,
            ..Self::none()
        }
    }

    /// Whether the slot at absolute clock `t` falls in a wiped window.
    #[inline]
    fn correlated_lost(&self, t: u64) -> bool {
        match self.correlated_loss {
            Some((rate, window)) => {
                unit(splitmix64(self.seed ^ TAG_LOSS ^ splitmix64(t / window))) < rate
            }
            None => false,
        }
    }

    /// Per-slot draw against `rate` for the given effect tag.
    #[inline]
    fn draw(&self, tag: u64, t: u64, rate: f64) -> bool {
        rate > 0.0 && unit(splitmix64(self.seed ^ tag ^ splitmix64(t))) < rate
    }

    /// The absolute clock of restart event `i` (0-based), or `None` if
    /// restarts are disabled. Gaps are `mean/2 + U[0, mean)` packets, so
    /// the schedule is aperiodic but seeded.
    fn restart_at(&self, i: u64) -> Option<u64> {
        if self.restart_mean_packets <= 0.0 {
            return None;
        }
        let mut t = 0u64;
        for k in 0..=i {
            let u = unit(splitmix64(self.seed ^ TAG_RESTART ^ splitmix64(k)));
            let gap = (self.restart_mean_packets * (0.5 + u)).max(2.0) as u64;
            t += gap;
        }
        Some(t)
    }
}

/// Per-session fault counters, read through [`FaultyChannel::telemetry`].
///
/// `corrupted` and `correlated_lost` frames are *client-detectable* (the
/// CRC fails / nothing arrives), so the §6.2 recovery paths handle them
/// like loss. `duplicates`, `stale` and `restarts` can silently hand a
/// position-trusting client the wrong frame — a supervisor must treat any
/// session with non-zero counts in those fields as untrusted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTelemetry {
    /// Frames delivered with a failed CRC check.
    pub corrupted: u64,
    /// Frames replaced by the previous slot's frame.
    pub duplicates: u64,
    /// Frames delivered from the pre-restart schedule.
    pub stale: u64,
    /// Server restarts (cycle truncations) the session lived through.
    pub restarts: u64,
    /// Frames wiped by correlated window loss.
    pub correlated_lost: u64,
}

impl FaultTelemetry {
    /// Whether any fault that can *silently* misdeliver content occurred
    /// (restarts shift the schedule under the client; duplicates and
    /// stale frames put wrong content at a trusted position).
    pub fn tainted(&self) -> bool {
        self.restarts > 0 || self.duplicates > 0 || self.stale > 0
    }
}

/// What the fault layer decided for one slot.
enum SlotDelivery {
    /// Deliver the frame at this (epoch-mapped) cycle offset.
    Deliver(usize),
    /// The slot fell in a wiped correlated-loss window.
    Wiped,
    /// The frame arrived bit-corrupted (CRC failed).
    Corrupted,
}

/// Live fault state of one channel session.
#[derive(Debug, Clone)]
struct FaultState {
    plan: FaultPlan,
    /// Absolute clock at which the current epoch (cycle version) began;
    /// epoch 0 starts at clock 0 with offset = clock % len.
    epoch_start: u64,
    /// Epoch start of the *previous* epoch (stale frames come from its
    /// schedule). Only meaningful when `version > 0`.
    prev_epoch_start: u64,
    /// Cycle version: restarts seen by the *server* up to the session's
    /// current clock.
    version: u32,
    /// Index of the next restart event in the plan's schedule.
    next_restart_idx: u64,
    /// Absolute clock of that event (`u64::MAX` when disabled).
    next_restart: u64,
    telemetry: FaultTelemetry,
}

impl FaultState {
    fn new(plan: FaultPlan, start: u64) -> Self {
        let mut s = Self {
            next_restart: plan.restart_at(0).unwrap_or(u64::MAX),
            plan,
            epoch_start: 0,
            prev_epoch_start: 0,
            version: 0,
            next_restart_idx: 0,
            telemetry: FaultTelemetry::default(),
        };
        // Restarts that predate the tune-in shape the schedule the client
        // arrives to, but are not *this* session's fault events.
        s.advance(start);
        s.telemetry.restarts = 0;
        s
    }

    /// Advances the server-side restart schedule to clock `t`.
    fn advance(&mut self, t: u64) {
        while self.next_restart <= t {
            self.prev_epoch_start = self.epoch_start;
            self.epoch_start = self.next_restart;
            self.version += 1;
            self.telemetry.restarts += 1;
            self.next_restart_idx += 1;
            self.next_restart = self
                .plan
                .restart_at(self.next_restart_idx)
                .unwrap_or(u64::MAX);
        }
    }

    /// The cycle offset the *current* schedule broadcasts at clock `t`.
    #[inline]
    fn offset_at(&self, t: u64, len: u64) -> usize {
        if self.version == 0 {
            (t % len) as usize
        } else {
            ((t - self.epoch_start.min(t)) % len) as usize
        }
    }

    /// The cycle offset the *previous* schedule would have broadcast.
    #[inline]
    fn prev_offset_at(&self, t: u64, len: u64) -> usize {
        if self.version <= 1 {
            (t % len) as usize
        } else {
            ((t - self.prev_epoch_start.min(t)) % len) as usize
        }
    }

    /// Decides what slot `t` delivers. `len` is the cycle length.
    fn deliver(&mut self, t: u64, len: u64) -> SlotDelivery {
        self.advance(t);
        if self.plan.correlated_lost(t) {
            self.telemetry.correlated_lost += 1;
            return SlotDelivery::Wiped;
        }
        if self.plan.draw(TAG_CORRUPT, t, self.plan.corrupt_rate) {
            self.telemetry.corrupted += 1;
            return SlotDelivery::Corrupted;
        }
        if self.version > 0 && self.plan.draw(TAG_STALE, t, self.plan.stale_rate) {
            self.telemetry.stale += 1;
            return SlotDelivery::Deliver(self.prev_offset_at(t, len));
        }
        if self.plan.draw(TAG_DUP, t, self.plan.duplicate_rate) {
            self.telemetry.duplicates += 1;
            return SlotDelivery::Deliver(self.offset_at(t.saturating_sub(1), len));
        }
        SlotDelivery::Deliver(self.offset_at(t, len))
    }

    /// Corrupts the frame's wire image at slot `t` and checks whether the
    /// link-layer CRC catches it. With 1–3 flipped bits in a 128-byte
    /// frame it always does (CRC-32 has Hamming distance 4 here), so the
    /// return value is `true` in practice; it is computed — not assumed —
    /// to keep the detectability claim honest.
    fn corruption_detected(plan: &FaultPlan, t: u64, pkt: &Packet) -> bool {
        let mut wire = pkt.to_wire();
        let original = crc32(&wire);
        let h = splitmix64(plan.seed ^ TAG_CORRUPT ^ splitmix64(t) ^ 0xB17F);
        let flips = 1 + (h % 3) as usize;
        // Distinct positions: flipping the same bit twice would cancel.
        let mut bits = [usize::MAX; 3];
        let mut chosen = 0usize;
        let mut draw = 0u64;
        while chosen < flips {
            draw += 1;
            let bit = (splitmix64(h ^ draw) % (PACKET_SIZE as u64 * 8)) as usize;
            if !bits[..chosen].contains(&bit) {
                bits[chosen] = bit;
                chosen += 1;
            }
        }
        for &bit in &bits[..flips] {
            wire[bit / 8] ^= 1 << (bit % 8);
        }
        crc32(&wire) != original
    }
}

/// A [`BroadcastChannel`] under a [`FaultPlan`]: the loss model is drawn
/// for every slot exactly as on the bare channel (so layering a plan on
/// a loss model perturbs neither stream), and the plan then decides what
/// a surviving frame is. The offset and every sleep follow the schedule
/// of the current cycle version, so a server restart shifts the schedule
/// under a sleeping client.
#[derive(Debug, Clone)]
pub struct FaultyChannel<'a> {
    channel: BroadcastChannel<'a>,
    state: FaultState,
}

impl<'a> FaultyChannel<'a> {
    /// Tunes in at `offset` under a loss model and a plan. The tune-in
    /// offset doubles as the session's absolute packet clock, so clients
    /// that share a plan seed *and* tune in within one cycle meet the
    /// same fault stream at the same slots — the correlated flash-crowd
    /// model.
    pub fn tune_in(
        cycle: &'a BroadcastCycle,
        offset: usize,
        loss: LossModel,
        plan: FaultPlan,
    ) -> Self {
        let channel = BroadcastChannel::tune_in(cycle, offset, loss);
        let state = FaultState::new(plan, channel.now());
        Self { channel, state }
    }

    /// What the plan injected into this session so far.
    pub fn telemetry(&self) -> FaultTelemetry {
        self.state.telemetry
    }

    /// How many times the server restarted (truncating the cycle in
    /// flight) up to the session's current clock.
    pub fn version(&self) -> u32 {
        self.state.version
    }
}

impl Air for FaultyChannel<'_> {
    fn receive(&mut self) -> Received<'_> {
        let cycle = self.channel.cycle();
        let len = cycle.len() as u64;
        let (at, lost) = self.channel.listen();
        if lost {
            // The frame never made it; only the server-side restart
            // schedule advances for this slot.
            self.state.advance(at);
            return Received::Lost;
        }
        match self.state.deliver(at, len) {
            SlotDelivery::Wiped => Received::Lost,
            SlotDelivery::Corrupted => {
                // Computed, not assumed: flip the seeded bits in the wire
                // image and let the CRC catch them (it always does for
                // 1-3 flips at this frame length).
                debug_assert!(FaultState::corruption_detected(
                    &self.state.plan,
                    at,
                    cycle.packet(self.state.offset_at(at, len))
                ));
                Received::Corrupted
            }
            SlotDelivery::Deliver(off) => Received::Packet(cycle.packet(off)),
        }
    }

    fn sleep(&mut self, packets: u64) {
        self.channel.sleep(packets);
        self.state.advance(self.channel.now());
    }

    fn offset(&self) -> usize {
        let len = self.channel.cycle_len() as u64;
        self.state.offset_at(self.channel.now(), len)
    }

    fn cycle_len(&self) -> usize {
        self.channel.cycle_len()
    }

    fn elapsed(&self) -> u64 {
        self.channel.elapsed()
    }

    fn tuned(&self) -> u64 {
        self.channel.tuned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::{CycleBuilder, SegmentKind};
    use crate::packet::PacketKind;
    use bytes::Bytes;

    /// A cycle of `n` one-byte packets whose byte is their offset.
    fn cycle(n: usize) -> BroadcastCycle {
        let mut b = CycleBuilder::new();
        b.push_segment(
            SegmentKind::GlobalIndex,
            PacketKind::Index,
            vec![Bytes::from(vec![0u8; 1])],
        );
        b.push_segment(
            SegmentKind::NetworkData,
            PacketKind::Data,
            (1..n).map(|i| Bytes::from(vec![i as u8; 1])).collect(),
        );
        b.finish()
    }

    #[test]
    fn draws_are_pure_slot_functions() {
        let p = FaultPlan::corruption(0.3, 42);
        for t in 0..256 {
            assert_eq!(
                p.draw(TAG_CORRUPT, t, p.corrupt_rate),
                p.draw(TAG_CORRUPT, t, p.corrupt_rate)
            );
        }
        let q = FaultPlan::corruption(0.3, 43);
        let a: Vec<bool> = (0..512).map(|t| p.draw(TAG_CORRUPT, t, 0.3)).collect();
        let b: Vec<bool> = (0..512).map(|t| q.draw(TAG_CORRUPT, t, 0.3)).collect();
        assert_ne!(a, b, "different seeds give different fault streams");
    }

    #[test]
    fn correlated_loss_wipes_whole_windows() {
        let p = FaultPlan::correlated_loss(0.2, 16, 7);
        let mut wiped_windows = 0usize;
        for w in 0..2_000u64 {
            let states: Vec<bool> = (w * 16..(w + 1) * 16)
                .map(|t| p.correlated_lost(t))
                .collect();
            assert!(
                states.iter().all(|&s| s == states[0]),
                "window {w} not uniform"
            );
            if states[0] {
                wiped_windows += 1;
            }
        }
        let rate = wiped_windows as f64 / 2_000.0;
        assert!((rate - 0.2).abs() < 0.05, "window wipe rate {rate}");
    }

    #[test]
    fn restart_schedule_is_increasing_and_seeded() {
        let p = FaultPlan::restarts(50.0, 0.0, 3);
        let times: Vec<u64> = (0..10).map(|i| p.restart_at(i).unwrap()).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        assert!(
            times[0] >= 25 && times[0] <= 100,
            "first restart {}",
            times[0]
        );
        assert_eq!(
            FaultPlan::restarts(50.0, 0.0, 3).restart_at(5),
            p.restart_at(5)
        );
        assert_ne!(
            FaultPlan::restarts(50.0, 0.0, 4).restart_at(5),
            p.restart_at(5)
        );
    }

    #[test]
    fn fault_state_versions_bump_across_restarts() {
        let plan = FaultPlan::restarts(40.0, 0.0, 9);
        let mut s = FaultState::new(plan, 0);
        assert_eq!(s.version, 0);
        s.advance(10_000);
        let v = s.version;
        assert!(v >= 100, "expected many restarts in 10k packets, got {v}");
        assert_eq!(s.telemetry.restarts, u64::from(v));
    }

    #[test]
    fn pre_tune_in_restarts_are_not_session_events() {
        let plan = FaultPlan::restarts(40.0, 0.0, 9);
        let s = FaultState::new(plan, 1_000);
        assert!(s.version > 0, "schedule already shifted at tune-in");
        assert_eq!(s.telemetry.restarts, 0, "but no session event counted");
    }

    #[test]
    fn epoch_mapping_shifts_after_restart() {
        let plan = FaultPlan::restarts(1000.0, 0.0, 1);
        let mut s = FaultState::new(plan, 0);
        let first = plan.restart_at(0).unwrap();
        s.advance(first);
        assert_eq!(s.version, 1);
        // Right at the restart the schedule is back at offset 0.
        assert_eq!(s.offset_at(first, 64), 0);
        assert_eq!(s.offset_at(first + 5, 64), 5);
    }

    #[test]
    fn corruption_is_always_detected_by_the_crc() {
        let pkt = Packet::new(PacketKind::Data, 7, Bytes::from_static(b"payload bytes"));
        let plan = FaultPlan::corruption(1.0, 77);
        for t in 0..4_096 {
            assert!(
                FaultState::corruption_detected(&plan, t, &pkt),
                "slot {t}: 1-3 bit flips must fail the CRC"
            );
        }
    }

    #[test]
    fn telemetry_taint_classes() {
        let clean = FaultTelemetry::default();
        assert!(!clean.tainted());
        let corrupt = FaultTelemetry {
            corrupted: 3,
            ..Default::default()
        };
        assert!(!corrupt.tainted(), "corruption is detectable, not silent");
        let lost = FaultTelemetry {
            correlated_lost: 2,
            ..Default::default()
        };
        assert!(!lost.tainted(), "a lost burst is a gap, not silent");
        for t in [
            FaultTelemetry {
                duplicates: 1,
                ..Default::default()
            },
            FaultTelemetry {
                stale: 1,
                ..Default::default()
            },
            FaultTelemetry {
                restarts: 1,
                ..Default::default()
            },
        ] {
            assert!(t.tainted());
        }
    }

    #[test]
    fn none_fault_plan_is_byte_identical() {
        let c = cycle(16);
        fn trace(air: &mut dyn Air) -> (Vec<u8>, u64, u64, usize) {
            let mut trace = Vec::new();
            for i in 0..200u64 {
                if i % 5 == 0 {
                    air.sleep(i % 7);
                }
                if i % 11 == 0 {
                    air.sleep_to_offset((i % 16) as usize);
                }
                trace.push(match air.receive() {
                    Received::Packet(p) => p.payload()[0],
                    Received::Lost => 0xFE,
                    Received::Corrupted => 0xFF,
                });
            }
            (trace, air.elapsed(), air.tuned(), air.offset())
        }
        let loss = || LossModel::bursty(0.2, 4.0, 5);
        let mut bare = BroadcastChannel::tune_in(&c, 3, loss());
        let mut faulty = FaultyChannel::tune_in(&c, 3, loss(), FaultPlan::none());
        assert_eq!(trace(&mut bare), trace(&mut faulty));
        assert_eq!(faulty.telemetry(), FaultTelemetry::default());
        assert_eq!(faulty.version(), 0);
    }

    #[test]
    fn corruption_surfaces_as_corrupted_and_counts() {
        let c = cycle(8);
        let mut ch =
            FaultyChannel::tune_in(&c, 0, LossModel::Lossless, FaultPlan::corruption(0.3, 9));
        let mut corrupted = 0u64;
        for _ in 0..2_000 {
            if matches!(ch.receive(), Received::Corrupted) {
                corrupted += 1;
            }
        }
        assert!(corrupted > 400 && corrupted < 800, "corrupted {corrupted}");
        assert_eq!(ch.telemetry().corrupted, corrupted);
        assert!(!ch.telemetry().tainted(), "corruption is detectable");
    }

    #[test]
    fn duplicates_deliver_the_previous_slot() {
        let c = cycle(16);
        let mut ch =
            FaultyChannel::tune_in(&c, 0, LossModel::Lossless, FaultPlan::duplication(0.25, 4));
        let mut dups = 0u64;
        for i in 0..4_000u64 {
            let expected = (i % 16) as u8;
            if let Received::Packet(p) = ch.receive() {
                if p.payload()[0] != expected {
                    // A stutter delivers the frame one slot behind.
                    assert_eq!(u64::from(p.payload()[0]), (i + 16 - 1) % 16, "slot {i}");
                    dups += 1;
                }
            }
        }
        assert!(dups > 0);
        // Slot 0 has no previous slot: its stutter redelivers slot 0
        // itself, which the payload check cannot see.
        let counted = ch.telemetry().duplicates;
        assert!(
            counted == dups || counted == dups + 1,
            "{counted} vs {dups}"
        );
        assert!(ch.telemetry().tainted());
    }

    #[test]
    fn restarts_bump_the_version_and_shift_the_schedule() {
        let c = cycle(16);
        let mut ch = FaultyChannel::tune_in(
            &c,
            0,
            LossModel::Lossless,
            FaultPlan::restarts(40.0, 0.0, 2),
        );
        assert_eq!(ch.version(), 0);
        ch.sleep(10_000);
        assert!(ch.version() > 100);
        assert_eq!(u64::from(ch.version()), ch.telemetry().restarts);
        // The observed schedule is phase-shifted but still a valid cycle:
        // consecutive receives walk consecutive offsets.
        let a = ch.receive().ok().map(|p| p.payload()[0]);
        let b = ch.receive().ok().map(|p| p.payload()[0]);
        if let (Some(a), Some(b)) = (a, b) {
            assert_eq!(u64::from(b), (u64::from(a) + 1) % 16);
        }
    }

    #[test]
    fn correlated_loss_is_shared_across_clients() {
        // Two clients sharing the plan seed, tuned in at different
        // offsets, lose exactly the same absolute slots — the
        // flash-crowd fading model.
        let c = cycle(16);
        let plan = FaultPlan::correlated_loss(0.3, 4, 31);
        let lost_slots = |offset: usize| {
            let mut ch = FaultyChannel::tune_in(&c, offset, LossModel::Lossless, plan);
            let mut lost = Vec::new();
            for _ in 0..500 {
                let at = ch.elapsed() + offset as u64;
                if matches!(ch.receive(), Received::Lost) {
                    lost.push(at);
                }
            }
            lost
        };
        let a = lost_slots(0);
        let b = lost_slots(5);
        let a_set: std::collections::HashSet<u64> = a.into_iter().collect();
        let shared: Vec<u64> = b.iter().filter(|t| a_set.contains(t)).copied().collect();
        // Every slot client B lost in the overlapping clock range was
        // also lost by client A.
        let overlap: Vec<u64> = b
            .iter()
            .filter(|&&t| (5..500).contains(&t))
            .copied()
            .collect();
        assert!(!overlap.is_empty());
        assert_eq!(shared.len(), overlap.len());
    }
}
