//! Shared client-side reception routines and the session epilogue.
//!
//! Every client listens through the same path:
//!
//! * a first pass over the segments its protocol names
//!   ([`receive_segment`], [`ingest_segment`], [`receive_whole_cycle`]
//!   or the client's own index walk), which notes the cycle offset of
//!   each slot it still needs;
//! * [`rereceive`], the paper's §6.2 loss rule ("missing any needed
//!   adjacency data still requires waiting for the next cycle"): the
//!   missing slots are retried in later cycles, in the client's
//!   [`RetryOrder`], until the client's `file` rule accepts each one or
//!   [`MAX_RETRY_CYCLES`] rounds have passed;
//! * [`finish`] (or [`session_stats`] for kNN), which reads the §3.1
//!   costs off the air and the client's meters into the session's
//!   [`QueryStats`].
//!
//! A check on every listened slot belongs in [`rereceive`] and the first
//! passes; a per-phase cost ledger, or a comparison of the session with
//! its listen plan, belongs in [`session_stats`].

use crate::netcodec::ReceivedGraph;
use crate::query::{Query, QueryError, QueryOutcome};
use bytes::Bytes;
use spair_broadcast::packet::PacketKind;
use spair_broadcast::{Air, CpuMeter, MemoryMeter, Packet, QueryStats, Received};
use spair_roadnet::{Distance, NodeId};

/// Retry budget for reliable reception; at the paper's worst loss rate
/// (10%) the probability of a packet still missing after 100 cycles is
/// 10^-100 — this is an abort guard, not a tuning knob.
pub const MAX_RETRY_CYCLES: usize = 100;

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
        if !ch.receive().ok().is_some_and(|p| ingest(store, mem, p)) {
            missing.push((offset + i) % ch.cycle_len());
        }
    }
}

/// Ingests a data packet into `store`, charging `mem` what it decoded
/// to; `false` if the payload does not decode.
#[inline]
pub fn ingest(store: &mut ReceivedGraph, mem: &mut MemoryMeter, p: &Packet) -> bool {
    store
        .ingest_payload(p.payload())
        .map(|charged| mem.alloc(charged))
        .is_some()
}

/// The order in which each round of [`rereceive`] wakes for the slots
/// still missing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryOrder {
    /// Nearest first by cycle distance from the offset the round starts
    /// at: NR, EB, kNN's region data and the whole-cycle clients.
    NearestFirst,
    /// In the order the slots were listed: HiTi's index, kNN's index and
    /// [`receive_segment_reliable`], whose first pass lists its slots in
    /// broadcast order from where it began. On an undisturbed schedule
    /// the two orders agree; after a server restart shifts the schedule,
    /// or when a first pass longer than a cycle lists a slot twice, they
    /// do not.
    AsListed,
}

/// The §6.2 re-reception of the slots at cycle offsets `missing`.
///
/// Each round wakes at each still-missing offset in `order`, sleeping in
/// between. An intact packet goes to `file(offset, packet)`, which says
/// whether it fills the slot; a lost, corrupted or rejected slot is
/// retried in the next round. After [`MAX_RETRY_CYCLES`] rounds with
/// slots still missing, gives up with `QueryError::Aborted(why)`; an
/// error from `file` ends reception at once.
pub fn rereceive(
    ch: &mut dyn Air,
    mut missing: Vec<usize>,
    order: RetryOrder,
    why: &'static str,
    mut file: impl FnMut(usize, &Packet) -> Result<bool, QueryError>,
) -> Result<(), QueryError> {
    let len = ch.cycle_len();
    for _ in 0..MAX_RETRY_CYCLES {
        if missing.is_empty() {
            return Ok(());
        }
        if order == RetryOrder::NearestFirst {
            let here = ch.offset();
            missing.sort_by_key(|&off| (off + len - here) % len);
        }
        let mut still = Vec::new();
        for off in missing {
            ch.sleep_to_offset(off);
            let filed = match ch.receive() {
                Received::Packet(p) => file(off, p)?,
                Received::Lost | Received::Corrupted => false,
            };
            if !filed {
                still.push(off);
            }
        }
        missing = still;
    }
    if missing.is_empty() {
        Ok(())
    } else {
        Err(QueryError::Aborted(why))
    }
}

/// Receives the `len` packets starting at cycle offset `offset` whole:
/// one pass, then [`rereceive`] for the lost ones. Gives up with
/// `Aborted(why)` — only possible at loss rates far beyond the evaluated
/// 10%, or for a segment longer than the cycle.
pub fn receive_segment_reliable(
    ch: &mut dyn Air,
    offset: usize,
    len: usize,
    why: &'static str,
) -> Result<Vec<Bytes>, QueryError> {
    let mut slots = receive_segment(ch, offset, len);
    let cycle = ch.cycle_len();
    let missing = (0..len)
        .filter(|&i| slots[i].is_none())
        .map(|i| (offset + i) % cycle)
        .collect();
    rereceive(ch, missing, RetryOrder::AsListed, why, |off, p| {
        slots[(off + cycle - offset % cycle) % cycle] = Some(p.payload().clone());
        Ok(true)
    })?;
    // Only a segment longer than the cycle can leave a slot unfilled.
    slots
        .into_iter()
        .collect::<Option<_>>()
        .ok_or(QueryError::Aborted(why))
}

/// Receives every packet of one full cycle starting now, handing each to
/// `on_packet`; lost packets are re-received in later cycles (§6.2).
/// Errors if the retry budget is exhausted. The receive step of every
/// whole-cycle client: DJ, LD, AF and SPQ, and A* and bidirectional
/// through [`receive_network_data`].
pub fn receive_whole_cycle(
    ch: &mut dyn Air,
    mut on_packet: impl FnMut(&Packet),
) -> Result<(), QueryError> {
    let mut missing = Vec::new();
    for _ in 0..ch.cycle_len() {
        let off = ch.offset();
        match ch.receive() {
            Received::Packet(p) => on_packet(p),
            Received::Lost | Received::Corrupted => missing.push(off),
        }
    }
    let why = "whole-cycle reception never completed";
    rereceive(ch, missing, RetryOrder::NearestFirst, why, |_, p| {
        on_packet(p);
        Ok(true)
    })
}

/// Clears `store` and receives one whole cycle of data packets into it
/// (§6.2 re-reception included), charging the meter each payload's
/// decoded-node bytes. The receive step of every client that searches the
/// whole received network: DJ, A* and bidirectional.
pub fn receive_network_data(
    ch: &mut dyn Air,
    mem: &mut MemoryMeter,
    store: &mut ReceivedGraph,
) -> Result<(), QueryError> {
    store.clear();
    receive_whole_cycle(ch, |p| {
        if p.kind() == PacketKind::Data {
            ingest(store, mem, p);
        }
    })
}

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

/// The answer to a query whose source is its target: the one-node path,
/// found without listening.
pub fn same_node(q: &Query) -> Option<QueryOutcome> {
    (q.source == q.target).then(|| QueryOutcome {
        distance: 0,
        path: vec![q.source],
        stats: QueryStats::default(),
    })
}

/// The session's §3.1 costs: tuning, latency and sleep read off the air,
/// peak memory and CPU time off the client's meters, and the search work
/// the client reports as `settled`.
pub fn session_stats(
    ch: &dyn Air,
    mem: &MemoryMeter,
    cpu: &CpuMeter,
    settled: usize,
) -> QueryStats {
    QueryStats {
        tuning_packets: ch.tuned(),
        latency_packets: ch.elapsed(),
        sleep_packets: ch.slept(),
        peak_memory_bytes: mem.peak(),
        cpu: cpu.total(),
        settled_nodes: settled as u64,
    }
}

/// Ends a point-to-point session: the path the search `found` with the
/// session's [`session_stats`], or `Unreachable` when it found none.
pub fn finish(
    ch: &dyn Air,
    mem: &MemoryMeter,
    cpu: &CpuMeter,
    settled: usize,
    found: Option<(Distance, Vec<NodeId>)>,
) -> Result<QueryOutcome, QueryError> {
    let (distance, path) = found.ok_or(QueryError::Unreachable)?;
    Ok(QueryOutcome {
        distance,
        path,
        stats: session_stats(ch, mem, cpu, settled),
    })
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

    impl<'a> ScriptedAir<'a> {
        fn new(cycle: &'a spair_broadcast::BroadcastCycle, lose: &'a [u64]) -> Self {
            Self {
                cycle,
                now: 0,
                tuned: 0,
                lose,
            }
        }

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
        let mut air = ScriptedAir::new(&c, &[3, 5, 9, 25]);
        let got = receive_segment_reliable(&mut air, 2, 10, "segment").unwrap();
        let bytes: Vec<u8> = got.iter().map(|b| b[0]).collect();
        assert_eq!(bytes, (2..12).map(|i| i as u8).collect::<Vec<_>>());
        assert_eq!(air.tuned(), 10 + 3 + 1);
        assert_eq!(air.elapsed(), 46);
    }

    #[test]
    fn reliable_reception_gives_up_after_its_retry_budget() {
        // Offset 4 of a 10-packet cycle is lost in the first pass and in
        // every one of the MAX_RETRY_CYCLES retries after it.
        let c = test_cycle(10);
        let lose: Vec<u64> = (0..=MAX_RETRY_CYCLES as u64).map(|k| 4 + 10 * k).collect();
        let mut air = ScriptedAir::new(&c, &lose);
        let err = receive_segment_reliable(&mut air, 0, 6, "segment").unwrap_err();
        assert_eq!(err, QueryError::Aborted("segment"));
        assert_eq!(air.tuned(), 6 + MAX_RETRY_CYCLES as u64);
        assert_eq!(air.elapsed(), 4 + 10 * MAX_RETRY_CYCLES as u64 + 1);
    }

    #[test]
    fn reliable_reception_lossless_is_one_pass() {
        let c = test_cycle(12);
        let mut ch = BroadcastChannel::lossless(&c);
        let got = receive_segment_reliable(&mut ch, 0, 5, "segment").unwrap();
        assert_eq!(got.len(), 5);
        assert_eq!(ch.tuned(), 5);
        assert_eq!(ch.elapsed(), 5);
    }

    #[test]
    fn rereceive_goes_nearest_first_across_the_cycle_wrap() {
        // At offset 7 of a 10-packet cycle, offsets 2, 8 and 5 are
        // missing. Nearest first is 8 (clock 8), then 2 past the wrap
        // (clock 12, lost), then 5 (clock 15). The next round, from
        // offset 6, wakes for 2 at clock 22.
        let c = test_cycle(10);
        let mut air = ScriptedAir::new(&c, &[12]);
        air.sleep(7);
        let mut filed = Vec::new();
        rereceive(
            &mut air,
            vec![2, 8, 5],
            RetryOrder::NearestFirst,
            "never",
            |off, p| {
                assert_eq!(p.payload()[0] as usize, off);
                filed.push(off);
                Ok(true)
            },
        )
        .unwrap();
        assert_eq!(filed, vec![8, 5, 2]);
        assert_eq!(air.tuned(), 4);
        assert_eq!(air.elapsed(), 23);
    }

    #[test]
    fn rereceive_as_listed_keeps_the_listed_order() {
        // At offset 7 of a 10-packet cycle, slots listed 5, 8, 2 are woken
        // at clock 15, 18 and 22, where nearest first would take 8, 2, 5
        // and end at clock 16.
        let c = test_cycle(10);
        let mut air = ScriptedAir::new(&c, &[]);
        air.sleep(7);
        let mut filed = Vec::new();
        let order = RetryOrder::AsListed;
        rereceive(&mut air, vec![5, 8, 2], order, "never", |off, _| {
            filed.push(off);
            Ok(true)
        })
        .unwrap();
        assert_eq!(filed, vec![5, 8, 2]);
        assert_eq!(air.tuned(), 3);
        assert_eq!(air.elapsed(), 23);
    }

    #[test]
    fn rereceive_retries_a_slot_its_file_rule_rejects() {
        // Offset 3 arrives intact at clock 3 but is rejected, so it
        // stays missing and is heard again at clock 13.
        let c = test_cycle(10);
        let mut air = ScriptedAir::new(&c, &[]);
        let mut heard = 0;
        rereceive(
            &mut air,
            vec![3],
            RetryOrder::NearestFirst,
            "never",
            |_, _| {
                heard += 1;
                Ok(heard > 1)
            },
        )
        .unwrap();
        assert_eq!(heard, 2);
        assert_eq!(air.tuned(), 2);
        assert_eq!(air.elapsed(), 14);
    }

    #[test]
    fn rereceive_aborts_after_its_retry_budget_of_total_loss() {
        let c = test_cycle(10);
        let lose: Vec<u64> = (0..10 * (MAX_RETRY_CYCLES as u64 + 2)).collect();
        let mut air = ScriptedAir::new(&c, &lose);
        let err = rereceive(
            &mut air,
            vec![6, 1],
            RetryOrder::NearestFirst,
            "gave up",
            |_, _| unreachable!("every slot is lost"),
        )
        .unwrap_err();
        assert_eq!(err, QueryError::Aborted("gave up"));
        // One listen per missing slot per round: 1 at clock 1, 6 at 6,
        // every round a cycle later.
        assert_eq!(air.tuned(), 2 * MAX_RETRY_CYCLES as u64);
        assert_eq!(air.elapsed(), 10 * (MAX_RETRY_CYCLES as u64 - 1) + 7);
    }

    #[test]
    fn rereceive_stops_at_a_file_error() {
        let c = test_cycle(10);
        let mut air = ScriptedAir::new(&c, &[]);
        let err = rereceive(
            &mut air,
            vec![2, 4],
            RetryOrder::NearestFirst,
            "never",
            |_, _| Err(QueryError::Aborted("undecodable")),
        )
        .unwrap_err();
        assert_eq!(err, QueryError::Aborted("undecodable"));
        assert_eq!(air.tuned(), 1);
    }

    #[test]
    fn finish_reads_every_cost_off_the_air_and_the_meters() {
        let c = test_cycle(10);
        let mut air = ScriptedAir::new(&c, &[]);
        air.sleep(3);
        receive_segment(&mut air, 5, 4);
        let mut mem = MemoryMeter::new();
        mem.alloc(300);
        mem.free(100);
        let mut cpu = CpuMeter::new();
        cpu.time(|| std::hint::black_box(0));
        let out = finish(&air, &mem, &cpu, 17, Some((42, vec![1, 2]))).unwrap();
        assert_eq!((out.distance, out.path), (42, vec![1, 2]));
        let want = QueryStats {
            tuning_packets: 4,
            latency_packets: 9,
            sleep_packets: 5,
            peak_memory_bytes: 300,
            cpu: cpu.total(),
            settled_nodes: 17,
        };
        assert_eq!(out.stats, want);
        assert_eq!(session_stats(&air, &mem, &cpu, 17), want);
        assert_eq!(
            finish(&air, &mem, &cpu, 17, None).unwrap_err(),
            QueryError::Unreachable
        );
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
