//! Property-based tests on the broadcast substrate: wire format, record
//! packing, channel clock accounting and loss statistics.

use bytes::Bytes;
use proptest::prelude::*;
use spair_broadcast::codec::{PayloadReader, RecordBuf, RecordWriter};
use spair_broadcast::cycle::{CycleBuilder, SegmentKind};
use spair_broadcast::packet::{Packet, PacketKind, PACKET_SIZE, PAYLOAD_CAPACITY};
use spair_broadcast::{Air, BroadcastChannel, LossModel, Received};

fn arb_kind() -> impl Strategy<Value = PacketKind> {
    prop_oneof![
        Just(PacketKind::Index),
        Just(PacketKind::LocalIndex),
        Just(PacketKind::Data),
        Just(PacketKind::Aux),
    ]
}

fn test_cycle(n: usize) -> spair_broadcast::BroadcastCycle {
    let mut b = CycleBuilder::new();
    b.push_segment(
        SegmentKind::NetworkData,
        PacketKind::Data,
        (0..n).map(|i| Bytes::from(vec![i as u8])).collect(),
    );
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Packets survive the 128-byte wire round trip exactly.
    #[test]
    fn packet_wire_round_trip(
        kind in arb_kind(),
        next in 0u32..1_000_000,
        payload in prop::collection::vec(any::<u8>(), 0..=PAYLOAD_CAPACITY),
    ) {
        let len = payload.len();
        let p = Packet::new(kind, next, Bytes::from(payload));
        let wire = p.to_wire();
        prop_assert_eq!(wire.len(), PACKET_SIZE);
        let q = Packet::from_wire(&wire, len).expect("valid frame");
        prop_assert_eq!(q.kind(), p.kind());
        prop_assert_eq!(q.next_index(), p.next_index());
        prop_assert_eq!(q.payload(), p.payload());
    }

    /// RecordWriter never splits a record across payloads and never
    /// exceeds capacity; concatenating the payloads reproduces the
    /// record stream byte for byte.
    #[test]
    fn record_writer_packs_without_splitting(
        records in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..40), 1..50),
        capacity in 40usize..200,
    ) {
        let mut w = RecordWriter::with_capacity(capacity);
        for r in &records {
            w.push_record(r);
        }
        let payloads = w.finish();
        for p in &payloads {
            prop_assert!(p.len() <= capacity);
        }
        let mut all = Vec::new();
        for p in &payloads {
            all.extend_from_slice(p);
        }
        let want: Vec<u8> = records.iter().flatten().copied().collect();
        prop_assert_eq!(all, want);
        // No record straddles a boundary: replaying the greedy packing
        // over record lengths must give exactly the payload lengths.
        let mut lens = Vec::new();
        let mut cur = 0usize;
        for r in &records {
            if cur + r.len() > capacity {
                lens.push(cur);
                cur = 0;
            }
            cur += r.len();
        }
        if cur > 0 {
            lens.push(cur);
        }
        let got: Vec<usize> = payloads.iter().map(|p| p.len()).collect();
        prop_assert_eq!(got, lens);
    }

    /// RecordBuf's little-endian primitives round-trip through
    /// PayloadReader in order.
    #[test]
    fn record_buf_round_trips(
        a in any::<u8>(), b in any::<u16>(), c in any::<u32>(), d in any::<u64>(),
        e in any::<f64>(),
    ) {
        let mut buf = RecordBuf::new();
        buf.put_u8(a).put_u16(b).put_u32(c).put_u64(d).put_f64(e);
        let mut r = PayloadReader::new(buf.as_slice());
        prop_assert_eq!(r.read_u8(), Some(a));
        prop_assert_eq!(r.read_u16(), Some(b));
        prop_assert_eq!(r.read_u32(), Some(c));
        prop_assert_eq!(r.read_u64(), Some(d));
        let back = r.read_f64().unwrap();
        prop_assert!(back == e || (back.is_nan() && e.is_nan()));
        prop_assert!(r.is_empty());
    }

    /// Channel bookkeeping: elapsed = tuned + slept always, regardless of
    /// the receive/sleep interleaving; offsets wrap modulo the cycle.
    #[test]
    fn channel_clock_invariants(
        n in 4usize..64,
        offset in 0usize..10_000,
        ops in prop::collection::vec((any::<bool>(), 0u64..50), 1..60),
    ) {
        let c = test_cycle(n);
        let mut ch = BroadcastChannel::tune_in(&c, offset % n, LossModel::Lossless);
        for (recv, sleep) in ops {
            let before = ch.offset();
            if recv {
                match ch.receive() {
                    Received::Packet(p) => prop_assert_eq!(p.payload()[0] as usize, before % 256),
                    Received::Lost | Received::Corrupted => {
                        prop_assert!(false, "lossless channel lost a packet")
                    }
                }
                prop_assert_eq!(ch.offset(), (before + 1) % n);
            } else {
                ch.sleep(sleep);
                prop_assert_eq!(ch.offset(), (before + sleep as usize) % n);
            }
            prop_assert_eq!(ch.elapsed(), ch.tuned() + ch.slept());
        }
    }

    /// sleep_to_offset always lands exactly on the target and never
    /// sleeps a full extra cycle.
    #[test]
    fn sleep_to_offset_is_minimal(
        n in 2usize..64,
        start in 0usize..10_000,
        target in 0usize..10_000,
    ) {
        let c = test_cycle(n);
        let mut ch = BroadcastChannel::tune_in(&c, start % n, LossModel::Lossless);
        let before = ch.elapsed();
        ch.sleep_to_offset(target % n);
        prop_assert_eq!(ch.offset(), target % n);
        prop_assert!(ch.elapsed() - before < n as u64);
    }

    /// Bernoulli loss at rate 0 is lossless and at any rate keeps the
    /// empirical frequency near the configured one.
    #[test]
    fn bernoulli_rate_is_respected(rate in 0.0f64..0.5, seed in 0u64..100) {
        let c = test_cycle(16);
        let mut ch = BroadcastChannel::tune_in(&c, 0, LossModel::bernoulli(rate, seed));
        let total = 20_000;
        let lost = (0..total)
            .filter(|_| matches!(ch.receive(), Received::Lost))
            .count();
        let measured = lost as f64 / total as f64;
        prop_assert!((measured - rate).abs() < 0.02 + rate * 0.2,
            "rate {rate}: measured {measured}");
    }
}
