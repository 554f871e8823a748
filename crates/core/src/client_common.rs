//! Shared client-side reception routines, including the §6.2 loss recovery
//! discipline: "missing any needed adjacency data still requires waiting
//! for the next cycle".

use crate::netcodec::ReceivedGraph;
use bytes::Bytes;
use spair_broadcast::{Air, MemoryMeter, Received};

/// Receives the `len` packets starting at cycle offset `offset`, sleeping
/// to the start first. Lost packets yield `None` at their position.
pub fn receive_segment(ch: &mut dyn Air, offset: usize, len: usize) -> Vec<Option<Bytes>> {
    ch.sleep_to_offset(offset);
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(ch.receive().ok().map(|p| p.payload().clone()));
    }
    out
}

/// Receives the `len` data packets starting at cycle offset `offset`,
/// sleeping to the start first, and ingests each into `store` as it
/// arrives, charging `mem` once per packet. The offset of a lost or
/// malformed packet goes on `missing`.
pub fn ingest_segment(
    ch: &mut dyn Air,
    offset: usize,
    len: usize,
    store: &mut ReceivedGraph,
    mem: &mut MemoryMeter,
    missing: &mut Vec<usize>,
) {
    ch.sleep_to_offset(offset);
    for i in 0..len {
        match ch
            .receive()
            .ok()
            .and_then(|p| store.ingest_payload(p.payload()))
        {
            Some(charged) => mem.alloc(charged),
            None => missing.push((offset + i) % ch.cycle_len()),
        }
    }
}

/// Receives a segment reliably: lost packets are re-received in subsequent
/// broadcast cycles (each retry wakes up exactly at the still-missing
/// offsets, sleeping in between). Gives up after `max_cycles` extra cycles
/// and returns `None` — only possible at loss rates far beyond the
/// evaluated 10%.
pub fn receive_segment_reliable(
    ch: &mut dyn Air,
    offset: usize,
    len: usize,
    max_cycles: usize,
) -> Option<Vec<Bytes>> {
    let mut slots = receive_segment(ch, offset, len);
    let mut rounds = 0;
    while slots.iter().any(Option::is_none) {
        rounds += 1;
        if rounds > max_cycles {
            return None;
        }
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.is_none() {
                ch.sleep_to_offset((offset + i) % ch.cycle_len());
                *slot = ch.receive().ok().map(|p| p.payload().clone());
            }
        }
    }
    // The loop above only exits once every slot is filled; a `None` here
    // would be a logic error, so degrade to a typed give-up, not a panic.
    slots.into_iter().collect()
}

/// Retry budget for reliable reception; at the paper's worst loss rate
/// (10%) the probability of a packet still missing after 100 cycles is
/// 10^-100 — this is an abort guard, not a tuning knob.
pub const MAX_RETRY_CYCLES: usize = 100;

/// Listens to one packet to learn the pointer to the next index copy.
/// If the packet is lost, keeps listening (each subsequent packet also
/// carries the pointer). Returns the cycle offset where the next index
/// copy starts.
pub fn find_next_index(ch: &mut dyn Air, max_attempts: usize) -> Option<usize> {
    for _ in 0..max_attempts {
        if let Received::Packet(p) = ch.receive() {
            let ni = p.next_index();
            if ni == u32::MAX {
                return None; // cycle carries no index at all
            }
            return Some((ch.offset() + ni as usize) % ch.cycle_len());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use spair_broadcast::cycle::{CycleBuilder, SegmentKind};
    use spair_broadcast::packet::PacketKind;
    use spair_broadcast::{BroadcastChannel, LossModel};

    fn test_cycle(n: usize) -> spair_broadcast::BroadcastCycle {
        let mut b = CycleBuilder::new();
        b.push_segment(
            SegmentKind::GlobalIndex,
            PacketKind::Index,
            vec![Bytes::from(vec![255u8])],
        );
        b.push_segment(
            SegmentKind::NetworkData,
            PacketKind::Data,
            (1..n).map(|i| Bytes::from(vec![i as u8])).collect(),
        );
        b.finish()
    }

    #[test]
    fn segment_reception_in_order() {
        let c = test_cycle(10);
        let mut ch = BroadcastChannel::lossless(&c);
        let got = receive_segment(&mut ch, 3, 4);
        let bytes: Vec<u8> = got.iter().map(|o| o.as_ref().unwrap()[0]).collect();
        assert_eq!(bytes, vec![3, 4, 5, 6]);
        assert_eq!(ch.tuned(), 4);
    }

    #[test]
    fn segment_wraps_cycle() {
        let c = test_cycle(6);
        let mut ch = BroadcastChannel::lossless(&c);
        let got = receive_segment(&mut ch, 4, 4);
        let bytes: Vec<u8> = got.iter().map(|o| o.as_ref().unwrap()[0]).collect();
        assert_eq!(bytes, vec![4, 5, 255, 1]);
    }

    /// A scripted air over `cycle`, tuned in at offset 0, that loses
    /// exactly the receptions at the listed clock slots.
    struct ScriptedAir<'a> {
        cycle: &'a spair_broadcast::BroadcastCycle,
        now: u64,
        tuned: u64,
        lose: &'a [u64],
    }

    impl Air for ScriptedAir<'_> {
        fn receive(&mut self) -> Received<'_> {
            let at = self.now;
            self.now += 1;
            self.tuned += 1;
            if self.lose.contains(&at) {
                Received::Lost
            } else {
                Received::Packet(self.cycle.packet(self.offset_at(at)))
            }
        }

        fn sleep(&mut self, packets: u64) {
            self.now += packets;
        }

        fn offset(&self) -> usize {
            self.offset_at(self.now)
        }

        fn cycle_len(&self) -> usize {
            self.cycle.len()
        }

        fn elapsed(&self) -> u64 {
            self.now
        }

        fn tuned(&self) -> u64 {
            self.tuned
        }
    }

    impl ScriptedAir<'_> {
        fn offset_at(&self, t: u64) -> usize {
            (t % self.cycle.len() as u64) as usize
        }
    }

    #[test]
    fn reliable_reception_wakes_only_at_the_missing_offsets() {
        // Offsets 2..12 of a 20-packet cycle. The first pass (clock 2..12)
        // loses offsets 3, 5 and 9; the first retry round wakes at clock
        // 23, 25 and 29 and loses offset 5 again; the second wakes at
        // clock 45 (§6.2: each retry waits for the next cycle).
        let c = test_cycle(20);
        let mut air = ScriptedAir {
            cycle: &c,
            now: 0,
            tuned: 0,
            lose: &[3, 5, 9, 25],
        };
        let got = receive_segment_reliable(&mut air, 2, 10, MAX_RETRY_CYCLES).unwrap();
        let bytes: Vec<u8> = got.iter().map(|b| b[0]).collect();
        assert_eq!(bytes, (2..12).map(|i| i as u8).collect::<Vec<_>>());
        assert_eq!(air.tuned(), 10 + 3 + 1);
        assert_eq!(air.elapsed(), 46);
    }

    #[test]
    fn reliable_reception_gives_up_after_its_retry_budget() {
        // Offset 4 is lost in the first pass and in each of two retries.
        let c = test_cycle(10);
        let mut air = ScriptedAir {
            cycle: &c,
            now: 0,
            tuned: 0,
            lose: &[4, 14, 24],
        };
        assert!(receive_segment_reliable(&mut air, 0, 6, 2).is_none());
        assert_eq!(air.tuned(), 6 + 2);
        assert_eq!(air.elapsed(), 25);
    }

    #[test]
    fn reliable_reception_lossless_is_one_pass() {
        let c = test_cycle(12);
        let mut ch = BroadcastChannel::lossless(&c);
        let got = receive_segment_reliable(&mut ch, 0, 5, MAX_RETRY_CYCLES).unwrap();
        assert_eq!(got.len(), 5);
        assert_eq!(ch.tuned(), 5);
        assert_eq!(ch.elapsed(), 5);
    }

    #[test]
    fn find_next_index_follows_pointer() {
        let c = test_cycle(8);
        // Tune in mid-data: pointer should lead to offset 0 (the index).
        let mut ch = BroadcastChannel::tune_in(&c, 3, LossModel::Lossless);
        let idx = find_next_index(&mut ch, 10).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(ch.tuned(), 1);
    }

    #[test]
    fn find_next_index_retries_on_loss() {
        let c = test_cycle(8);
        let mut ch = BroadcastChannel::tune_in(&c, 3, LossModel::bernoulli(0.5, 7));
        let idx = find_next_index(&mut ch, 1000).unwrap();
        assert_eq!(idx, 0);
    }

    #[test]
    fn find_next_index_none_without_index() {
        let mut b = CycleBuilder::new();
        b.push_segment(
            SegmentKind::NetworkData,
            PacketKind::Data,
            vec![Bytes::from(vec![1u8]); 4],
        );
        let c = b.finish();
        let mut ch = BroadcastChannel::lossless(&c);
        assert_eq!(find_next_index(&mut ch, 10), None);
    }
}
