//! The simulated broadcast channel: an [`Air`] over one in-memory cycle.
//!
//! A [`BroadcastChannel`] session starts when the client tunes in at an
//! arbitrary instant (packet offset) and advances in whole packets: the
//! client either **receives** the current packet (costing tuning time and
//! receive energy, and possibly losing the packet to channel noise, §6.2)
//! or **sleeps** forward without listening. The same cycle repeats
//! forever, so sleeping past the cycle end simply continues into the next
//! broadcast cycle — exactly the behaviour NR relies on (§5.2: "if the end
//! of the current broadcast cycle is reached, another starts, and
//! processing continues as if it was the same cycle").

use crate::air::{Air, Received};
use crate::cycle::BroadcastCycle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Channel noise model.
#[derive(Debug, Clone)]
pub enum LossModel {
    /// Every packet arrives intact.
    Lossless,
    /// Each received packet is independently lost with probability `rate`
    /// (the paper evaluates 0.1%–10%, per \[15\]).
    Bernoulli {
        /// Loss probability in `[0, 1]`.
        rate: f64,
        /// Seeded RNG for reproducible experiments.
        rng: StdRng,
    },
    /// Gilbert–Elliott bursty loss: a two-state Markov chain over packet
    /// slots (Good: intact, Bad: lost). Wireless losses cluster in bursts
    /// (\[15\]); this stresses the §6.2 recovery paths differently from
    /// i.i.d. noise — a burst can wipe out a contiguous index copy. The
    /// chain advances with the *packet clock*, including while the client
    /// sleeps, so the channel state at wake-up is independent of the
    /// client's behaviour.
    GilbertElliott {
        /// Good→Bad transition probability per packet slot.
        p_gb: f64,
        /// Bad→Good transition probability per packet slot.
        p_bg: f64,
        /// Currently in the Bad state.
        bad: bool,
        /// Packet-clock time the chain has been advanced to.
        advanced_to: u64,
        /// Seeded RNG for reproducible experiments.
        rng: StdRng,
    },
}

impl LossModel {
    /// Convenience constructor for a seeded Bernoulli model.
    pub fn bernoulli(rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "loss rate must be in [0,1]");
        LossModel::Bernoulli {
            rate,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Gilbert–Elliott model with stationary loss probability `rate` and
    /// mean burst length `burst` packets (`burst >= 1`; `burst = 1`
    /// degenerates to nearly-i.i.d. loss).
    pub fn bursty(rate: f64, burst: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&rate), "loss rate must be in [0,1)");
        assert!(burst >= 1.0, "mean burst length must be >= 1 packet");
        let p_bg = 1.0 / burst;
        let p_gb = (rate / (1.0 - rate) * p_bg).min(1.0);
        LossModel::GilbertElliott {
            p_gb,
            p_bg,
            bad: false,
            advanced_to: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Whether the packet at time `now` is lost.
    fn lost(&mut self, now: u64) -> bool {
        match self {
            LossModel::Lossless => false,
            LossModel::Bernoulli { rate, rng } => rng.gen_bool(*rate),
            LossModel::GilbertElliott {
                p_gb,
                p_bg,
                bad,
                advanced_to,
                rng,
            } => {
                // Step the chain through every packet slot up to `now`
                // (sleep included — the channel does not pause for us).
                while *advanced_to <= now {
                    let flip = if *bad {
                        rng.gen_bool(*p_bg)
                    } else {
                        rng.gen_bool(*p_gb)
                    };
                    if flip {
                        *bad = !*bad;
                    }
                    *advanced_to += 1;
                }
                *bad
            }
        }
    }
}

/// A tuned-in client session over a repeating broadcast cycle.
#[derive(Debug, Clone)]
pub struct BroadcastChannel<'a> {
    cycle: &'a BroadcastCycle,
    /// Global packet clock (monotonic across cycles).
    now: u64,
    start: u64,
    tuned: u64,
    loss: LossModel,
}

impl<'a> BroadcastChannel<'a> {
    /// Tunes in at cycle offset 0 with no loss.
    pub fn lossless(cycle: &'a BroadcastCycle) -> Self {
        Self::tune_in(cycle, 0, LossModel::Lossless)
    }

    /// Tunes in at an arbitrary cycle offset under the given loss model.
    pub fn tune_in(cycle: &'a BroadcastCycle, offset: usize, loss: LossModel) -> Self {
        assert!(!cycle.is_empty(), "cannot tune in to an empty cycle");
        let start = (offset % cycle.len()) as u64;
        Self {
            cycle,
            now: start,
            start,
            tuned: 0,
            loss,
        }
    }

    /// The cycle on air.
    #[inline]
    pub(crate) fn cycle(&self) -> &'a BroadcastCycle {
        self.cycle
    }

    /// The global packet clock.
    #[inline]
    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    /// Listens to one slot: advances the clock, counts the slot as tuned
    /// and draws the loss model for it. Returns the slot's clock and
    /// whether the frame was lost.
    #[inline]
    pub(crate) fn listen(&mut self) -> (u64, bool) {
        let at = self.now;
        self.now += 1;
        self.tuned += 1;
        (at, self.loss.lost(at))
    }

    /// Listens to the packet at the current offset and advances the
    /// clock: [`Air::receive`], with the packet borrowed from the cycle
    /// rather than from the channel.
    #[inline]
    pub fn receive(&mut self) -> Received<'a> {
        let pkt = self.cycle.packet(Air::offset(self));
        if self.listen().1 {
            Received::Lost
        } else {
            Received::Packet(pkt)
        }
    }

    /// [`Air::elapsed`], callable without the trait in scope.
    #[inline]
    pub fn elapsed(&self) -> u64 {
        self.now - self.start
    }

    /// [`Air::tuned`], callable without the trait in scope.
    #[inline]
    pub fn tuned(&self) -> u64 {
        self.tuned
    }
}

impl Air for BroadcastChannel<'_> {
    #[inline]
    fn receive(&mut self) -> Received<'_> {
        BroadcastChannel::receive(self)
    }

    #[inline]
    fn sleep(&mut self, packets: u64) {
        self.now += packets;
    }

    #[inline]
    fn offset(&self) -> usize {
        (self.now % self.cycle.len() as u64) as usize
    }

    #[inline]
    fn cycle_len(&self) -> usize {
        self.cycle.len()
    }

    #[inline]
    fn elapsed(&self) -> u64 {
        BroadcastChannel::elapsed(self)
    }

    #[inline]
    fn tuned(&self) -> u64 {
        BroadcastChannel::tuned(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::{CycleBuilder, SegmentKind};
    use crate::packet::PacketKind;
    use bytes::Bytes;

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
    fn receive_advances_and_counts() {
        let c = cycle(5);
        let mut ch = BroadcastChannel::lossless(&c);
        let p = ch.receive().ok().unwrap();
        assert_eq!(p.payload()[0], 0);
        assert_eq!(ch.elapsed(), 1);
        assert_eq!(ch.tuned(), 1);
        assert_eq!(ch.slept(), 0);
    }

    #[test]
    fn sleep_costs_latency_not_tuning() {
        let c = cycle(10);
        let mut ch = BroadcastChannel::lossless(&c);
        ch.sleep(4);
        assert_eq!(ch.elapsed(), 4);
        assert_eq!(ch.tuned(), 0);
        assert_eq!(ch.slept(), 4);
        let p = ch.receive().ok().unwrap();
        assert_eq!(p.payload()[0], 4);
    }

    #[test]
    fn wraps_to_next_cycle() {
        let c = cycle(4);
        let mut ch = BroadcastChannel::tune_in(&c, 3, LossModel::Lossless);
        let p = ch.receive().ok().unwrap();
        assert_eq!(p.payload()[0], 3);
        let p = ch.receive().ok().unwrap();
        assert_eq!(p.payload()[0], 0, "continued into next cycle");
    }

    #[test]
    fn sleep_to_offset_is_minimal() {
        let c = cycle(10);
        let mut ch = BroadcastChannel::tune_in(&c, 7, LossModel::Lossless);
        ch.sleep_to_offset(2); // 7 -> 2 wraps: 5 packets
        assert_eq!(ch.elapsed(), 5);
        assert_eq!(ch.offset(), 2);
        ch.sleep_to_offset(2); // already there: no-op
        assert_eq!(ch.elapsed(), 5);
    }

    #[test]
    fn lossless_never_loses() {
        let c = cycle(8);
        let mut ch = BroadcastChannel::lossless(&c);
        for _ in 0..100 {
            assert!(matches!(ch.receive(), Received::Packet(_)));
        }
    }

    #[test]
    fn bernoulli_loses_at_roughly_the_configured_rate() {
        let c = cycle(8);
        let mut ch = BroadcastChannel::tune_in(&c, 0, LossModel::bernoulli(0.3, 42));
        let mut lost = 0;
        let n = 20_000;
        for _ in 0..n {
            if matches!(ch.receive(), Received::Lost) {
                lost += 1;
            }
        }
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "observed loss rate {rate}");
        // Lost packets still cost tuning time.
        assert_eq!(ch.tuned(), n as u64);
    }

    #[test]
    fn loss_is_reproducible_per_seed() {
        let c = cycle(8);
        let run = |seed| {
            let mut ch = BroadcastChannel::tune_in(&c, 0, LossModel::bernoulli(0.5, seed));
            (0..64)
                .map(|_| matches!(ch.receive(), Received::Lost))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    #[should_panic(expected = "loss rate")]
    fn invalid_loss_rate_rejected() {
        LossModel::bernoulli(1.5, 0);
    }

    #[test]
    fn bursty_loss_hits_the_target_rate() {
        let c = cycle(64);
        for &(rate, burst) in &[(0.05f64, 8.0f64), (0.10, 4.0), (0.01, 16.0)] {
            let mut lost = 0usize;
            let total = 200_000usize;
            let mut ch = BroadcastChannel::tune_in(&c, 0, LossModel::bursty(rate, burst, 7));
            for _ in 0..total {
                if matches!(ch.receive(), Received::Lost) {
                    lost += 1;
                }
            }
            let measured = lost as f64 / total as f64;
            assert!(
                (measured - rate).abs() < rate * 0.25 + 0.002,
                "rate {rate} burst {burst}: measured {measured:.4}"
            );
        }
    }

    #[test]
    fn bursty_losses_cluster() {
        // Mean run length of consecutive losses should approach the
        // configured burst length, far above the Bernoulli value.
        let c = cycle(64);
        let mean_run = |model: LossModel| {
            let mut ch = BroadcastChannel::tune_in(&c, 0, model);
            let mut runs = Vec::new();
            let mut cur = 0usize;
            for _ in 0..400_000 {
                if matches!(ch.receive(), Received::Lost) {
                    cur += 1;
                } else if cur > 0 {
                    runs.push(cur);
                    cur = 0;
                }
            }
            runs.iter().sum::<usize>() as f64 / runs.len().max(1) as f64
        };
        let bursty = mean_run(LossModel::bursty(0.05, 10.0, 3));
        let iid = mean_run(LossModel::bernoulli(0.05, 3));
        assert!(bursty > 5.0, "bursty mean run {bursty:.2}");
        assert!(iid < 2.0, "iid mean run {iid:.2}");
    }

    #[test]
    fn bursty_state_advances_through_sleep() {
        // Two clients with the same seed, one sleeping 1000 packets
        // between receives: the chain state must not freeze during
        // sleep, i.e. the sleeper's loss pattern differs from a
        // back-to-back receiver's at the same receive indexes.
        let c = cycle(16);
        let pattern = |sleep: u64| {
            let mut ch = BroadcastChannel::tune_in(&c, 0, LossModel::bursty(0.3, 6.0, 11));
            (0..64)
                .map(|_| {
                    let r = matches!(ch.receive(), Received::Lost);
                    ch.sleep(sleep);
                    r
                })
                .collect::<Vec<bool>>()
        };
        assert_ne!(pattern(0), pattern(1000));
    }
}
